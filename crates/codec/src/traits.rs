//! The object-safe codec abstraction: [`ErasureCode`] and its sessions.

use core::fmt;
use std::hash::{Hash, Hasher};

use fec_sched::{Layout, PacketRef, TxModel};

use crate::{CodecError, ExpansionRatio};

/// Per-object session parameters shared by sender and receiver.
///
/// Everything an [`ErasureCode`] needs to spawn byte-true
/// [`Encoder`]/[`Decoder`] sessions for one object. Two endpoints that
/// agree on a `SessionParams` (e.g. via a serialized `CodeSpec` or a FLUTE
/// FTI) derive bit-identical code structure with no other coordination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionParams {
    /// Number of source symbols the object is split into.
    pub k: usize,
    /// FEC expansion ratio `n/k`.
    pub ratio: f64,
    /// Symbol (packet payload) size in bytes.
    pub symbol_size: usize,
    /// Seed for deterministic code-structure construction (ignored by
    /// codes whose structure is geometry-only, e.g. Reed-Solomon).
    pub seed: u64,
}

/// The `(k, ratio)` region a code supports.
///
/// This is a coarse box; codes with coupled constraints (e.g. "needs at
/// least 3 parity symbols") refine it in [`ErasureCode::supports`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// Smallest supported number of source symbols.
    pub min_k: usize,
    /// Largest supported number of source symbols.
    pub max_k: usize,
    /// Smallest supported expansion ratio `n/k`.
    pub min_ratio: f64,
    /// Largest supported expansion ratio `n/k`.
    pub max_ratio: f64,
}

impl Envelope {
    /// Whether `(k, ratio)` falls inside the box.
    pub fn contains(&self, k: usize, ratio: f64) -> bool {
        ratio.is_finite()
            && (self.min_k..=self.max_k).contains(&k)
            && (self.min_ratio..=self.max_ratio).contains(&ratio)
    }
}

/// One received symbol, for the batched decoder entry point.
#[derive(Debug, Clone, Copy)]
pub struct Symbol<'a> {
    /// Which encoding symbol this is.
    pub packet: PacketRef,
    /// The symbol payload.
    pub payload: &'a [u8],
}

/// Decoding progress after feeding symbols to a [`Decoder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeProgress {
    /// Symbols pushed so far (duplicates included) — the quantity whose
    /// final value is the paper's `n_necessary_for_decoding`.
    pub received: u64,
    /// Source symbols recovered so far.
    pub decoded_source: usize,
    /// Source symbols needed (`k`).
    pub total_source: usize,
}

impl DecodeProgress {
    /// True once the full object can be reassembled.
    pub fn is_decoded(&self) -> bool {
        self.decoded_source == self.total_source
    }

    /// The running inefficiency ratio `received / k` (meaningful once
    /// decoded).
    pub fn inefficiency(&self) -> f64 {
        self.received as f64 / self.total_source as f64
    }
}

/// Parity symbols produced by an [`Encoder`]: `parity[block][i]` is the
/// payload of ESI `k_b + i` in block `block`.
pub type BlockParity = Vec<Vec<Vec<u8>>>;

/// A per-object encoding session.
pub trait Encoder: Send {
    /// Encodes the `k` padded source symbols (all `symbol_size` bytes
    /// long, concatenated across blocks in layout order) into parity.
    fn encode(&mut self, source: &[&[u8]]) -> Result<BlockParity, CodecError>;
}

/// A per-object decoding session: feed symbols in any order, across any
/// losses and duplicates, until [`DecodeProgress::is_decoded`].
pub trait Decoder: Send {
    /// Feeds one symbol. Duplicates are counted but harmless. The packet
    /// reference is trusted (session layers validate against the layout
    /// before calling).
    fn add_symbol(
        &mut self,
        packet: PacketRef,
        payload: &[u8],
    ) -> Result<DecodeProgress, CodecError>;

    /// Feeds a batch of symbols.
    ///
    /// For any batch of **valid** symbols this is semantically identical
    /// to looping [`Decoder::add_symbol`] (the conformance harness pins
    /// the equivalence at every batch boundary); implementations override
    /// it to amortise per-call work. The built-ins do: RSE defers each
    /// block's solve to the end of the batch, LDGM validates the burst up
    /// front and skips known variables before the peeling machinery. On
    /// an invalid symbol an implementation may reject the batch
    /// atomically (nothing consumed) instead of consuming the valid
    /// prefix the way a loop would — session layers validate packets
    /// before they reach the codec, so only direct codec users see the
    /// difference. The default implementation is the loop.
    fn add_symbols(&mut self, batch: &[Symbol<'_>]) -> Result<DecodeProgress, CodecError> {
        for s in batch {
            self.add_symbol(s.packet, s.payload)?;
        }
        Ok(self.progress())
    }

    /// Current progress snapshot.
    fn progress(&self) -> DecodeProgress;

    /// Consumes the session, yielding the `k` source symbols in object
    /// order. Fails with [`CodecError::NotDecoded`] before completion.
    fn into_source(self: Box<Self>) -> Result<Vec<Vec<u8>>, CodecError>;
}

/// A prepared index-only decoder pool for Monte-Carlo simulation.
///
/// Structural decoding answers only *when* an object becomes decodable,
/// never touching payload bytes, so sweeps can run millions of trials.
/// The factory owns whatever is expensive to build (LDGM matrix pools, RSE
/// partitions) and spawns cheap per-run sessions; it is `Sync` so sweep
/// threads can share one factory.
pub trait StructuralFactory: Send + Sync {
    /// Spawns the session for run number `run_idx` (codes with a structure
    /// pool rotate through it by index, holding the pool constant across
    /// schedules so comparisons isolate the schedule).
    fn session(&self, run_idx: u64) -> Box<dyn StructuralSession + '_>;
}

/// One structural decoding run.
///
/// A session never completes from fewer than `k` packets (duplicates
/// count as packets): an erasure code cannot recover `k` symbols from
/// fewer. The simulator relies on it — a run whose channel delivers fewer
/// than `k` packets is recorded as a failure without being decoded — and
/// [`conformance::check`](crate::conformance::check) enforces it.
pub trait StructuralSession {
    /// Records the arrival of `packet`; true once the object is decodable.
    fn add(&mut self, packet: PacketRef) -> bool;

    /// Records a whole window of arrivals (a loss-schedule batch). Every
    /// packet is processed; the return value is the index within `batch`
    /// at which [`StructuralSession::add`] first returned `true`, or
    /// `None` if the object is still undecodable afterwards.
    ///
    /// Semantically identical to looping [`StructuralSession::add`]; it
    /// exists so implementations can amortise per-packet dispatch (the
    /// sweep engine feeds batches of ~128 packets through one virtual
    /// call). The default implementation is the loop.
    fn add_batch(&mut self, batch: &[PacketRef]) -> Option<usize> {
        let mut done_at = None;
        for (i, &packet) in batch.iter().enumerate() {
            if self.add(packet) && done_at.is_none() {
                done_at = Some(i);
            }
        }
        done_at
    }
}

/// An erasure code, as the rest of the workspace sees it.
///
/// Implementations are stateless descriptors (all per-object state lives
/// in the sessions they spawn), shared as `Arc<dyn ErasureCode>` and
/// usually registered in a [`CodecRegistry`](crate::CodecRegistry) so
/// names, serialized specs and FLUTE FTI codepoints resolve to them.
///
/// Only [`id`](ErasureCode::id), [`fti_id`](ErasureCode::fti_id),
/// [`envelope`](ErasureCode::envelope), [`layout`](ErasureCode::layout)
/// and the three session constructors are mandatory; everything else has
/// conservative defaults. See the crate docs for a worked third-party
/// implementation.
pub trait ErasureCode: Send + Sync {
    /// Canonical machine id, kebab-case (`"ldgm-staircase"`). Registry
    /// lookups, CLI `--code` arguments and serialized specs resolve
    /// through it (case- and separator-insensitively).
    fn id(&self) -> &str;

    /// Human-facing name for reports (`"LDGM Staircase"`). Defaults to
    /// [`id`](ErasureCode::id).
    fn name(&self) -> &str {
        self.id()
    }

    /// The token written into serialized `CodeSpec`s / sweep results.
    /// Defaults to [`id`](ErasureCode::id); the built-ins override it to
    /// keep the pre-registry wire format (`"LdgmStaircase"`, …).
    fn serde_token(&self) -> &str {
        self.id()
    }

    /// Extra lookup tokens (CLI shorthands like `"staircase"`).
    fn aliases(&self) -> &[&str] {
        &[]
    }

    /// The FEC Encoding ID (FLUTE/LCT codepoint) this code is transported
    /// under, if it has one. Codes without a codepoint cannot ride in ALC
    /// sessions but work everywhere else.
    fn fti_id(&self) -> Option<u8>;

    /// The supported `(k, ratio)` box.
    fn envelope(&self) -> Envelope;

    /// Whether `(k, ratio)` is usable with this code. Defaults to the
    /// envelope box; override to add coupled constraints.
    fn supports(&self, k: usize, ratio: f64) -> bool {
        self.envelope().contains(k, ratio)
    }

    /// True for single-block (large-block) codes; false for codes that
    /// segment the object into many small blocks (RFC 5052 style). Drives
    /// schedule interleaving advice and FLUTE payload-ID shapes.
    fn is_large_block(&self) -> bool {
        true
    }

    /// Whether sessions derive code structure from [`SessionParams::seed`]
    /// (and the seed therefore travels in the FTI).
    fn uses_matrix_seed(&self) -> bool {
        false
    }

    /// Whether the §6 recommenders should consider this code at all.
    /// Ablation-only codes return false.
    fn recommendable(&self) -> bool {
        true
    }

    /// The `(schedule, ratio)` tuples this code enters measured candidate
    /// selection with. The default follows the paper's structure argument:
    /// large-block codes try Tx_model_2 and Tx_model_4 at both paper
    /// ratios; blocked codes must interleave (Tx_model_5).
    fn candidate_tuples(&self) -> Vec<(TxModel, ExpansionRatio)> {
        let mut out = Vec::new();
        for ratio in ExpansionRatio::paper_ratios() {
            if self.is_large_block() {
                out.push((TxModel::SourceSeqParityRandom, ratio));
                out.push((TxModel::Random, ratio));
            } else {
                out.push((TxModel::Interleaved, ratio));
            }
        }
        out
    }

    /// The structural packet layout (block structure) for `(k, ratio)`.
    fn layout(&self, k: usize, ratio: f64) -> Result<Layout, CodecError>;

    /// Spawns a byte-true encoding session.
    fn encoder(&self, params: &SessionParams) -> Result<Box<dyn Encoder>, CodecError>;

    /// Spawns a byte-true decoding session.
    fn decoder(&self, params: &SessionParams) -> Result<Box<dyn Decoder>, CodecError>;

    /// Prepares an index-only decoder pool for simulation. `seeds` gives
    /// one seed per pooled structure instance (codes without seeded
    /// structure may ignore it, but it is never empty).
    fn structural_factory(
        &self,
        k: usize,
        ratio: f64,
        seeds: &[u64],
    ) -> Result<Box<dyn StructuralFactory>, CodecError>;
}

impl fmt::Debug for dyn ErasureCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ErasureCode({})", self.id())
    }
}

impl fmt::Display for dyn ErasureCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Codec identity is the canonical id — two handles to codecs with the
/// same id are interchangeable by construction (the registry enforces
/// uniqueness).
impl PartialEq for dyn ErasureCode {
    fn eq(&self, other: &Self) -> bool {
        self.id() == other.id()
    }
}

impl Eq for dyn ErasureCode {}

impl Hash for dyn ErasureCode {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.id().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_box() {
        let e = Envelope {
            min_k: 2,
            max_k: 100,
            min_ratio: 1.0,
            max_ratio: 3.0,
        };
        assert!(e.contains(2, 1.0));
        assert!(e.contains(100, 3.0));
        assert!(!e.contains(1, 2.0));
        assert!(!e.contains(101, 2.0));
        assert!(!e.contains(50, 0.9));
        assert!(!e.contains(50, f64::NAN));
    }

    #[test]
    fn progress_predicates() {
        let p = DecodeProgress {
            received: 130,
            decoded_source: 100,
            total_source: 100,
        };
        assert!(p.is_decoded());
        assert!((p.inefficiency() - 1.3).abs() < 1e-12);
    }

    #[test]
    fn handles_compare_by_id() {
        let a = crate::builtin::rse();
        let b = crate::builtin::rse();
        let c = crate::builtin::ldgm_staircase();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(format!("{:?}", &*a), "ErasureCode(rse)");
        assert_eq!(format!("{}", &*c), "LDGM Staircase");
    }
}
