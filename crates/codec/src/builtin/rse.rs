//! Blocked Reed-Solomon behind the [`ErasureCode`] trait.

use fec_rse::{Partition, RseCodec, RseError, StructuralObjectDecoder};
use fec_sched::{Layout, PacketRef, TxModel};

use crate::{
    CodecError, DecodeProgress, Decoder, Encoder, Envelope, ErasureCode, ExpansionRatio,
    SessionParams, StructuralFactory, StructuralSession, Symbol,
};

/// Reed-Solomon erasure over GF(2^8), segmented into RFC 5052-style
/// near-equal blocks when the object exceeds one block (§2.2).
pub struct RseCode;

impl RseCode {
    /// The canonical instance (stateless).
    pub fn new() -> RseCode {
        RseCode
    }

    fn validate(&self, k: usize, ratio: f64) -> Result<(), CodecError> {
        let err = |reason: String| CodecError::UnsupportedGeometry {
            code: "rse".into(),
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
        Ok(())
    }

    fn partition(&self, k: usize, ratio: f64) -> Result<Partition, CodecError> {
        self.validate(k, ratio)?;
        Ok(Partition::for_ratio(k, ratio))
    }
}

impl Default for RseCode {
    fn default() -> RseCode {
        RseCode::new()
    }
}

/// One codec per distinct `(k_b, n_b)` shape of `partition` (RFC 5052
/// partitions have at most two) and, per block, the index of its codec.
fn block_codecs(partition: &Partition) -> Result<(Vec<RseCodec>, Vec<usize>), CodecError> {
    let mut codecs: Vec<RseCodec> = Vec::new();
    let mut codec_of = Vec::with_capacity(partition.num_blocks());
    for b in partition.blocks() {
        let known = codecs.iter().position(|c| (c.k(), c.n()) == (b.k, b.n));
        codec_of.push(match known {
            Some(idx) => idx,
            None => {
                let codec = RseCodec::new(b.k, b.n).map_err(|err| CodecError::Construction {
                    code: "rse".into(),
                    source: Box::new(err),
                })?;
                codecs.push(codec);
                codecs.len() - 1
            }
        });
    }
    Ok((codecs, codec_of))
}

impl ErasureCode for RseCode {
    fn id(&self) -> &str {
        "rse"
    }

    fn name(&self) -> &str {
        "RSE"
    }

    fn serde_token(&self) -> &str {
        "Rse"
    }

    fn aliases(&self) -> &[&str] {
        &["reed-solomon"]
    }

    fn fti_id(&self) -> Option<u8> {
        Some(129)
    }

    fn envelope(&self) -> Envelope {
        Envelope {
            min_k: 1,
            // The FLUTE small-block payload ID caps the SBN at 2^16 blocks
            // of at most 255 symbols.
            max_k: (1 << 16) * fec_rse::MAX_N,
            min_ratio: 1.0,
            max_ratio: fec_rse::MAX_N as f64,
        }
    }

    fn is_large_block(&self) -> bool {
        false
    }

    fn candidate_tuples(&self) -> Vec<(TxModel, ExpansionRatio)> {
        // Blocked codes must interleave (§4.7): sequential or random
        // schedules expose whole blocks to loss bursts.
        ExpansionRatio::paper_ratios()
            .into_iter()
            .map(|ratio| (TxModel::Interleaved, ratio))
            .collect()
    }

    fn layout(&self, k: usize, ratio: f64) -> Result<Layout, CodecError> {
        let part = self.partition(k, ratio)?;
        Ok(Layout::from_blocks(
            part.blocks().iter().map(|b| (b.k, b.n)),
        ))
    }

    fn encoder(&self, params: &SessionParams) -> Result<Box<dyn Encoder>, CodecError> {
        let partition = self.partition(params.k, params.ratio)?;
        let (codecs, codec_of) = block_codecs(&partition)?;
        Ok(Box::new(RseSessionEncoder { codecs, codec_of }))
    }

    fn decoder(&self, params: &SessionParams) -> Result<Box<dyn Decoder>, CodecError> {
        let partition = self.partition(params.k, params.ratio)?;
        let (codecs, codec_of) = block_codecs(&partition)?;
        let blocks = partition
            .blocks()
            .iter()
            .zip(codec_of)
            .map(|(b, codec)| RseBlock {
                k: b.k,
                codec,
                packets: Vec::with_capacity(b.k),
                seen: vec![false; b.n],
                src_received: 0,
                solved: None,
            })
            .collect();
        Ok(Box::new(RseSessionDecoder {
            k: params.k,
            codecs,
            blocks,
            decoded_source: 0,
            received: 0,
        }))
    }

    fn structural_factory(
        &self,
        k: usize,
        ratio: f64,
        _seeds: &[u64],
    ) -> Result<Box<dyn StructuralFactory>, CodecError> {
        Ok(Box::new(RseStructuralFactory {
            partition: self.partition(k, ratio)?,
        }))
    }
}

struct RseSessionEncoder {
    codecs: Vec<RseCodec>,
    /// Index into `codecs`, per block.
    codec_of: Vec<usize>,
}

impl Encoder for RseSessionEncoder {
    fn parity<'s>(
        &mut self,
        block: usize,
        esi: u32,
        earlier: &dyn Fn(u32) -> Option<&'s [u8]>,
        out: &mut [u8],
    ) -> Result<(), CodecError> {
        let fail = |source: crate::BoxedError| CodecError::Encode {
            code: "rse".into(),
            source,
        };
        let codec = match self.codec_of.get(block) {
            Some(&c) => &self.codecs[c],
            None => return Err(fail(format!("no block {block}").into())),
        };
        // A parity row reads the block's source symbols only.
        let source = (0..codec.k() as u32)
            .map(|j| earlier(j).ok_or(j))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|j| fail(format!("source symbol {j} of block {block} missing").into()))?;
        codec
            .parity_symbol(esi, &source, out)
            .map_err(|e: RseError| fail(Box::new(e)))
    }
}

/// Per-block reception state.
struct RseBlock {
    k: usize,
    /// Index of this block's codec in the session's `codecs`.
    codec: usize,
    /// Distinct received `(esi, payload)` pairs (until decoded).
    packets: Vec<(u32, Vec<u8>)>,
    /// Which ESIs were seen (duplicate filter).
    seen: Vec<bool>,
    /// Distinct *source* packets among them (already-known symbols).
    src_received: usize,
    /// Recovered source symbols once `k` packets arrived.
    solved: Option<Vec<Vec<u8>>>,
}

struct RseSessionDecoder {
    k: usize,
    codecs: Vec<RseCodec>,
    blocks: Vec<RseBlock>,
    decoded_source: usize,
    received: u64,
}

/// Solves `block` from its buffered packets (call once it holds at least
/// `k` distinct symbols). Only the first `k` are used, so a deferred
/// batched solve and an eager per-symbol solve produce identical output.
/// Received source payloads move into the result; only the erased ones are
/// computed.
fn solve_block(codecs: &[RseCodec], block: &mut RseBlock) -> Result<usize, CodecError> {
    block.packets.truncate(block.k);
    let refs: Vec<(u32, &[u8])> = block
        .packets
        .iter()
        .map(|(esi, b)| (*esi, b.as_slice()))
        .collect();
    let recovered = codecs[block.codec]
        .recover_missing(&refs)
        .map_err(|e| CodecError::Decode {
            code: "rse".into(),
            source: Box::new(e),
        })?;
    let mut solved = vec![Vec::new(); block.k];
    for (esi, payload) in std::mem::take(&mut block.packets)
        .into_iter()
        .chain(recovered)
    {
        if (esi as usize) < block.k {
            solved[esi as usize] = payload;
        }
    }
    block.solved = Some(solved);
    Ok(block.k - block.src_received)
}

impl Decoder for RseSessionDecoder {
    fn add_symbols(&mut self, batch: &[Symbol<'_>]) -> Result<DecodeProgress, CodecError> {
        // Buffer the whole burst first, then solve each block it completed
        // exactly once — and look at no block the burst did not touch (an
        // object at the paper's k = 20 000 has 118 of them).
        self.received += batch.len() as u64;
        let mut solvable: Vec<u32> = Vec::new();
        for s in batch {
            let esi = s.packet.esi;
            let block = &mut self.blocks[s.packet.block as usize];
            if block.solved.is_some() || block.seen[esi as usize] {
                continue; // a duplicate, or its block is already whole
            }
            block.seen[esi as usize] = true;
            block.packets.push((esi, s.payload.to_vec()));
            if (esi as usize) < block.k {
                // A systematic source symbol is known the moment it arrives,
                // before the block as a whole decodes.
                block.src_received += 1;
                self.decoded_source += 1;
            }
            if block.packets.len() >= block.k {
                solvable.push(s.packet.block);
            }
        }
        for b in solvable {
            let block = &mut self.blocks[b as usize];
            if block.solved.is_none() {
                self.decoded_source += solve_block(&self.codecs, block)?;
            }
        }
        Ok(self.progress())
    }

    fn progress(&self) -> DecodeProgress {
        DecodeProgress {
            received: self.received,
            decoded_source: self.decoded_source,
            total_source: self.k,
        }
    }

    fn into_source(self: Box<Self>) -> Result<Vec<Vec<u8>>, CodecError> {
        if self.decoded_source != self.k {
            return Err(CodecError::NotDecoded {
                decoded: self.decoded_source,
                needed: self.k,
            });
        }
        let mut out = Vec::with_capacity(self.k);
        for b in self.blocks {
            out.extend(b.solved.expect("all blocks decoded"));
        }
        Ok(out)
    }
}

struct RseStructuralFactory {
    partition: Partition,
}

impl StructuralFactory for RseStructuralFactory {
    fn session(&self, _run_idx: u64) -> Box<dyn StructuralSession + '_> {
        Box::new(RseStructuralSession {
            inner: StructuralObjectDecoder::new(&self.partition),
            scratch: Vec::new(),
        })
    }
}

struct RseStructuralSession {
    inner: StructuralObjectDecoder,
    /// Reusable `(block, esi)` buffer for `add_batch`.
    scratch: Vec<(usize, usize)>,
}

impl StructuralSession for RseStructuralSession {
    fn add_batch(&mut self, batch: &[PacketRef]) -> Option<usize> {
        self.scratch.clear();
        self.scratch
            .extend(batch.iter().map(|r| (r.block as usize, r.esi as usize)));
        self.inner.push_batch(&self.scratch)
    }
}
