//! The LDGM family behind the [`ErasureCode`] trait.

use std::sync::Arc;

use fec_ldgm::{
    Decoder as LdgmDecoder, Encoder as LdgmEncoder, LdgmParams, RightSide, SparseMatrix,
    StructuralDecoder, DEFAULT_LEFT_DEGREE,
};
use fec_sched::{Layout, PacketRef, TxModel};

use crate::{
    CodecError, DecodeProgress, Decoder, Decoding, Encoder, Envelope, ErasureCode, ExpansionRatio,
    SessionParams, StructuralFactory, StructuralSession, Symbol,
};

/// A large-block LDGM code (§2.3): plain, Staircase or Triangle, selected
/// by the right-side shape of the parity-check matrix.
pub struct LdgmCode {
    right: RightSide,
    id: &'static str,
    name: &'static str,
    serde_token: &'static str,
    aliases: &'static [&'static str],
    fti: Option<u8>,
}

impl LdgmCode {
    /// LDGM Staircase.
    pub fn staircase() -> LdgmCode {
        LdgmCode {
            right: RightSide::Staircase,
            id: "ldgm-staircase",
            name: "LDGM Staircase",
            serde_token: "LdgmStaircase",
            aliases: &["staircase"],
            fti: Some(3),
        }
    }

    /// LDGM Triangle.
    pub fn triangle() -> LdgmCode {
        LdgmCode {
            right: RightSide::Triangle,
            id: "ldgm-triangle",
            name: "LDGM Triangle",
            serde_token: "LdgmTriangle",
            aliases: &["triangle"],
            fti: Some(4),
        }
    }

    /// Plain LDGM (identity right side) — the ablation baseline.
    pub fn plain() -> LdgmCode {
        LdgmCode {
            right: RightSide::Identity,
            id: "ldgm-plain",
            name: "LDGM",
            serde_token: "LdgmPlain",
            aliases: &["plain"],
            fti: None,
        }
    }

    fn geometry(&self, k: usize, ratio: f64) -> Result<(usize, usize), CodecError> {
        let err = |reason: String| CodecError::UnsupportedGeometry {
            code: self.id.to_string(),
            k,
            ratio,
            reason,
        };
        if k == 0 {
            return Err(err("k must be positive".into()));
        }
        if ratio < 1.0 || !ratio.is_finite() {
            return Err(err(format!("expansion ratio {ratio} must be >= 1")));
        }
        let n = ((k as f64) * ratio).floor() as usize;
        if n <= k {
            return Err(err(format!("ratio {ratio} yields no parity for k = {k}")));
        }
        Ok((k, n))
    }

    /// Geometry check shared by the coding sessions: the peeling decoder
    /// needs at least `DEFAULT_LEFT_DEGREE` check equations.
    fn checked_geometry(&self, k: usize, ratio: f64) -> Result<(usize, usize), CodecError> {
        let (k, n) = self.geometry(k, ratio)?;
        if n - k < DEFAULT_LEFT_DEGREE {
            return Err(CodecError::UnsupportedGeometry {
                code: self.id.to_string(),
                k,
                ratio,
                reason: format!(
                    "LDGM needs at least {DEFAULT_LEFT_DEGREE} check equations, got {}",
                    n - k
                ),
            });
        }
        Ok((k, n))
    }

    fn matrix(&self, k: usize, n: usize, seed: u64) -> Result<SparseMatrix, CodecError> {
        SparseMatrix::build(LdgmParams::new(k, n, self.right, seed))
            .map_err(|e| CodecError::construction(self, e))
    }
}

impl ErasureCode for LdgmCode {
    fn id(&self) -> &str {
        self.id
    }

    fn name(&self) -> &str {
        self.name
    }

    fn serde_token(&self) -> &str {
        self.serde_token
    }

    fn aliases(&self) -> &[&str] {
        self.aliases
    }

    fn fti_id(&self) -> Option<u8> {
        self.fti
    }

    fn envelope(&self) -> Envelope {
        Envelope {
            min_k: 1,
            // The FLUTE large-block payload ID caps the ESI at 2^20.
            max_k: 1 << 20,
            min_ratio: 1.0,
            max_ratio: 16.0,
        }
    }

    fn supports(&self, k: usize, ratio: f64) -> bool {
        self.envelope().contains(k, ratio) && self.checked_geometry(k, ratio).is_ok()
    }

    fn uses_matrix_seed(&self) -> bool {
        true
    }

    fn recommendable(&self) -> bool {
        self.fti.is_some()
    }

    fn candidate_tuples(&self) -> Vec<(TxModel, ExpansionRatio)> {
        let mut out = Vec::new();
        for ratio in ExpansionRatio::paper_ratios() {
            out.push((TxModel::SourceSeqParityRandom, ratio));
            out.push((TxModel::Random, ratio));
        }
        if matches!(self.right, RightSide::Staircase) {
            // Tx_model_6 needs the high ratio (only 20% of source packets
            // are transmitted) and is only competitive with Staircase
            // (§4.8).
            out.push((TxModel::tx6_paper(), ExpansionRatio::R2_5));
        }
        out
    }

    fn layout(&self, k: usize, ratio: f64) -> Result<Layout, CodecError> {
        let (k, n) = self.geometry(k, ratio)?;
        Ok(Layout::single_block(k, n))
    }

    fn encoder(&self, params: &SessionParams) -> Result<Box<dyn Encoder>, CodecError> {
        let (k, n) = self.checked_geometry(params.k, params.ratio)?;
        Ok(Box::new(LdgmSessionEncoder {
            matrix: self.matrix(k, n, params.seed)?,
            id: self.id,
        }))
    }

    fn decoder(&self, params: &SessionParams) -> Result<Box<dyn Decoder>, CodecError> {
        let (k, n) = self.checked_geometry(params.k, params.ratio)?;
        let matrix = Arc::new(self.matrix(k, n, params.seed)?);
        Ok(Box::new(LdgmSessionDecoder {
            k,
            id: self.id,
            inner: LdgmDecoder::new(matrix, params.symbol_size),
        }))
    }

    fn structural_factory(
        &self,
        k: usize,
        ratio: f64,
        seeds: &[u64],
        decoding: Decoding,
    ) -> Result<Box<dyn StructuralFactory>, CodecError> {
        let (k, n) = self.checked_geometry(k, ratio)?;
        if seeds.is_empty() {
            return Err(CodecError::UnsupportedGeometry {
                code: self.id.to_string(),
                k,
                ratio,
                reason: "matrix pool must be non-empty for LDGM codes".into(),
            });
        }
        let matrices = seeds
            .iter()
            .map(|&seed| self.matrix(k, n, seed))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Box::new(LdgmStructuralFactory { matrices, decoding }))
    }
}

struct LdgmSessionEncoder {
    matrix: SparseMatrix,
    id: &'static str,
}

impl Encoder for LdgmSessionEncoder {
    fn parity<'s>(
        &mut self,
        block: usize,
        first: u32,
        earlier: &dyn Fn(u32) -> Option<&'s [u8]>,
        out: &mut [&mut [u8]],
    ) -> Result<(), CodecError> {
        let fail = |source: crate::BoxedError| CodecError::Encode {
            code: self.id.to_string(),
            source,
        };
        let k = self.matrix.k();
        if block != 0 || (first as usize) < k {
            return Err(fail(
                format!("no parity symbol {first} in block {block}").into(),
            ));
        }
        // Single block: the ESI is the variable id, and parity row
        // `esi - k` reads source symbols and earlier parity only — the
        // run's own earlier members from `out`.
        let encoder = LdgmEncoder::new(&self.matrix);
        let first = first as usize;
        for i in 0..out.len() {
            let (done, rest) = out.split_at_mut(i);
            let symbol = |c: usize| match c.checked_sub(first) {
                None => earlier(c as u32),
                Some(at) => done.get(at).map(|s| &s[..]),
            };
            encoder
                .parity(first + i - k, symbol, rest[0])
                .map_err(|e| fail(Box::new(e)))?;
        }
        Ok(())
    }
}

struct LdgmSessionDecoder {
    k: usize,
    id: &'static str,
    inner: LdgmDecoder,
}

impl Decoder for LdgmSessionDecoder {
    fn add_symbols(&mut self, batch: &[Symbol<'_>]) -> Result<DecodeProgress, CodecError> {
        // One pass over the burst: the LDGM batch entry point validates
        // everything up front and skips duplicates / already-solved
        // variables without entering the peeling machinery.
        let packets: Vec<(u32, &[u8])> = batch.iter().map(|s| (s.packet.esi, s.payload)).collect();
        self.inner
            .push_batch(&packets)
            .map_err(|e| CodecError::Decode {
                code: self.id.to_string(),
                source: Box::new(e),
            })?;
        // Peeling stalls on stopping sets the received symbols may already
        // solve: every batch ends with the exact maximum-likelihood check
        // (free until a counting gate opens near the completion point), so
        // the object completes at the first batch whose symbols determine
        // it.
        self.inner.try_complete();
        Ok(self.progress())
    }

    fn progress(&self) -> DecodeProgress {
        DecodeProgress {
            received: self.inner.received(),
            decoded_source: self.inner.decoded_source(),
            total_source: self.k,
        }
    }

    fn into_source(self: Box<Self>) -> Result<Vec<u8>, CodecError> {
        let progress = self.progress();
        self.inner.into_object().ok_or(CodecError::NotDecoded {
            decoded: progress.decoded_source,
            needed: progress.total_source,
        })
    }
}

struct LdgmStructuralFactory {
    matrices: Vec<SparseMatrix>,
    decoding: Decoding,
}

impl StructuralFactory for LdgmStructuralFactory {
    fn session(&self, run_idx: u64) -> Box<dyn StructuralSession + '_> {
        let matrix = &self.matrices[run_idx as usize % self.matrices.len()];
        Box::new(LdgmStructuralSession {
            inner: StructuralDecoder::new(matrix),
            decoding: self.decoding,
            scratch: Vec::new(),
        })
    }
}

struct LdgmStructuralSession<'m> {
    inner: StructuralDecoder<'m>,
    decoding: Decoding,
    /// Reusable id buffer for `add_batch`.
    scratch: Vec<u32>,
}

impl StructuralSession for LdgmStructuralSession<'_> {
    fn add_batch(&mut self, batch: &[PacketRef]) -> Option<usize> {
        // Large-block LDGM is single-block: the ESI is the variable id, so
        // the whole window forwards to the structural decoder in one call.
        self.scratch.clear();
        self.scratch.extend(batch.iter().map(|r| r.esi));
        match self.decoding {
            Decoding::Iterative => self.inner.push_batch(&self.scratch),
            // Asked after every packet, so the answer does not depend on
            // how the stream is split into batches.
            Decoding::MaximumLikelihood => {
                let mut done_at = None;
                for (i, &id) in self.scratch.iter().enumerate() {
                    let peeled = self.inner.push_batch(&[id]).is_some();
                    if done_at.is_none() && (peeled || self.inner.ml_complete()) {
                        done_at = Some(i);
                    }
                }
                done_at
            }
        }
    }
}
