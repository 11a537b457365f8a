//! Blocked Reed-Solomon behind the [`ErasureCode`] trait.

use fec_rse::{Partition, RseCodec, RseError, StructuralObjectDecoder};
use fec_sched::{Layout, PacketRef, TxModel};

use crate::{
    CodecError, DecodeProgress, Decoder, Decoding, Encoder, Envelope, ErasureCode, ExpansionRatio,
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
        let mut first = 0;
        let blocks = partition
            .blocks()
            .iter()
            .zip(codec_of)
            .map(|(b, codec)| {
                first += b.k;
                RseBlock {
                    k: b.k,
                    codec,
                    first: first - b.k,
                    seen: vec![false; b.n],
                    src_received: 0,
                    parity: Vec::new(),
                    solved: false,
                }
            })
            .collect();
        Ok(Box::new(RseSessionDecoder {
            k: params.k,
            symbol_size: params.symbol_size,
            codecs,
            blocks,
            object: vec![0u8; params.k * params.symbol_size],
            decoded_source: 0,
            received: 0,
        }))
    }

    /// MDS: a block decodes from any `k` of its symbols under either
    /// decoder.
    fn structural_factory(
        &self,
        k: usize,
        ratio: f64,
        _seeds: &[u64],
        _decoding: Decoding,
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
        first: u32,
        earlier: &dyn Fn(u32) -> Option<&'s [u8]>,
        out: &mut [&mut [u8]],
    ) -> Result<(), CodecError> {
        let fail = |source: crate::BoxedError| CodecError::Encode {
            code: "rse".into(),
            source,
        };
        let codec = match self.codec_of.get(block) {
            Some(&c) => &self.codecs[c],
            None => return Err(fail(format!("no block {block}").into())),
        };
        // Parity rows read the block's source symbols only.
        let source = (0..codec.k() as u32)
            .map(|j| earlier(j).ok_or(j))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|j| fail(format!("source symbol {j} of block {block} missing").into()))?;
        codec
            .parity_symbols(first, &source, out)
            .map_err(|e: RseError| fail(Box::new(e)))
    }
}

/// Per-block reception state.
struct RseBlock {
    k: usize,
    /// Index of this block's codec in the session's `codecs`.
    codec: usize,
    /// Object index of the block's first source symbol.
    first: usize,
    /// Which ESIs were seen (duplicate filter).
    seen: Vec<bool>,
    /// Distinct source symbols received (each written into the object).
    src_received: usize,
    /// Received `(esi, payload)` parity, only as many as the block can
    /// use; freed when it solves.
    parity: Vec<(u32, Vec<u8>)>,
    solved: bool,
}

impl RseBlock {
    /// Whether the block holds `k` distinct symbols.
    fn solvable(&self) -> bool {
        self.src_received + self.parity.len() >= self.k
    }
}

struct RseSessionDecoder {
    k: usize,
    symbol_size: usize,
    codecs: Vec<RseCodec>,
    blocks: Vec<RseBlock>,
    /// The `k` source symbols back to back: the decoded object.
    object: Vec<u8>,
    decoded_source: usize,
    received: u64,
}

/// Solves `block` (call once it is solvable) from its received sources,
/// read in place in `object`, and the parity that completes `k` of them
/// (`recover_missing` reads the first `k`). Any `k` distinct symbols of
/// an MDS code give the same bytes, so a deferred batched solve and an
/// eager per-symbol solve agree. Only the erased sources are computed;
/// each is copied into its place.
fn solve_block(
    codecs: &[RseCodec],
    block: &mut RseBlock,
    object: &mut [u8],
    len: usize,
) -> Result<usize, CodecError> {
    let missing = block.k - block.src_received;
    let sources = &object[block.first * len..(block.first + block.k) * len];
    let received: Vec<(u32, &[u8])> = (0..block.k)
        .filter(|&j| block.seen[j])
        .map(|j| (j as u32, &sources[j * len..(j + 1) * len]))
        .chain(block.parity.iter().map(|(esi, p)| (*esi, p.as_slice())))
        .collect();
    let recovered = codecs[block.codec]
        .recover_missing(&received)
        .map_err(|e| CodecError::Decode {
            code: "rse".into(),
            source: Box::new(e),
        })?;
    for (esi, payload) in recovered {
        let at = (block.first + esi as usize) * len;
        object[at..at + len].copy_from_slice(&payload);
    }
    block.solved = true;
    block.parity = Vec::new();
    Ok(missing)
}

impl Decoder for RseSessionDecoder {
    fn add_symbols(&mut self, batch: &[Symbol<'_>]) -> Result<DecodeProgress, CodecError> {
        // Every length is checked before anything is consumed: a symbol is
        // written into the object as it is taken.
        let len = self.symbol_size;
        if let Some(s) = batch.iter().find(|s| s.payload.len() != len) {
            return Err(CodecError::Decode {
                code: "rse".into(),
                source: Box::new(RseError::SymbolLengthMismatch {
                    expected: len,
                    got: s.payload.len(),
                }),
            });
        }
        // Take the whole burst first, then solve each block it completed
        // exactly once — and look at no block the burst did not touch (an
        // object at the paper's k = 20 000 has 118 of them).
        self.received += batch.len() as u64;
        let mut solvable: Vec<u32> = Vec::new();
        for s in batch {
            let esi = s.packet.esi as usize;
            let block = &mut self.blocks[s.packet.block as usize];
            if block.solved || block.seen[esi] {
                continue; // a duplicate, or its block is already whole
            }
            block.seen[esi] = true;
            if esi < block.k {
                // A systematic source symbol is known the moment it arrives,
                // before the block as a whole decodes.
                let at = (block.first + esi) * len;
                self.object[at..at + len].copy_from_slice(s.payload);
                block.src_received += 1;
                self.decoded_source += 1;
            } else if !block.solvable() {
                block.parity.push((esi as u32, s.payload.to_vec()));
            }
            if block.solvable() {
                solvable.push(s.packet.block);
            }
        }
        for b in solvable {
            let block = &mut self.blocks[b as usize];
            if !block.solved {
                self.decoded_source += solve_block(&self.codecs, block, &mut self.object, len)?;
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

    fn into_source(self: Box<Self>) -> Result<Vec<u8>, CodecError> {
        if self.decoded_source != self.k {
            return Err(CodecError::NotDecoded {
                decoded: self.decoded_source,
                needed: self.k,
            });
        }
        Ok(self.object)
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
