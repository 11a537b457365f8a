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

/// One received symbol, as [`Decoder::add_symbols`] takes it.
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

/// A per-object encoding session: one parity symbol per call.
///
/// A sender asks for parity the first time it emits it, so a symbol that
/// never leaves is never encoded.
pub trait Encoder: Send {
    /// Writes parity symbol `esi` (`k_b <= esi < n_b`) of `block` into
    /// `out`, which arrives zero-filled and one symbol long.
    ///
    /// `earlier(j)` returns symbol `j` of the same block for every
    /// `j < esi`: the padded source symbols below `k_b`, then the parity
    /// this session already wrote. A caller fills each block's parity in
    /// ascending ESI order, so codes whose parity chains on earlier parity
    /// (LDGM Staircase and Triangle) read it from there. The output must
    /// depend on `(block, esi)` and those symbols only, never on which
    /// calls came before — the conformance harness checks it.
    fn parity<'s>(
        &mut self,
        block: usize,
        esi: u32,
        earlier: &dyn Fn(u32) -> Option<&'s [u8]>,
        out: &mut [u8],
    ) -> Result<(), CodecError>;
}

/// A per-object decoding session: feed symbols in any order, across any
/// losses and duplicates, until [`DecodeProgress::is_decoded`].
pub trait Decoder: Send {
    /// Feeds a batch of symbols; one symbol is a batch of one.
    /// Duplicates are counted but harmless. The packet references are
    /// trusted (session layers validate against the layout before
    /// calling).
    ///
    /// How a stream is split into batches must not change the progress
    /// at any batch boundary: the conformance harness feeds the same
    /// stream in windows and one symbol at a time and compares. A batch
    /// lets an implementation amortise per-call work — the built-in RSE
    /// defers each block's solve to the end of the batch, LDGM validates
    /// the burst up front and skips known variables before the peeling
    /// machinery.
    fn add_symbols(&mut self, batch: &[Symbol<'_>]) -> Result<DecodeProgress, CodecError>;

    /// Current progress snapshot.
    fn progress(&self) -> DecodeProgress;

    /// Consumes the session, yielding the object: the `k` source symbols
    /// back to back in object order, `k × symbol_size` bytes in one
    /// buffer. Fails with [`CodecError::NotDecoded`] before completion.
    ///
    /// The built-in decoders write each source symbol into that buffer
    /// once, when it is received or solved, and hand the buffer over
    /// here without copying it.
    fn into_source(self: Box<Self>) -> Result<Vec<u8>, CodecError>;
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
    /// Records a window of arrivals (a loss-schedule batch; one packet is
    /// a batch of one). Every packet is processed; the return value is
    /// the index within `batch` of the first packet after which the
    /// object is decodable (`Some(0)` if it already was), or `None` if it
    /// is still undecodable afterwards. How a stream is split into
    /// batches must not move that point; the sweep engine feeds windows
    /// of ~128 packets through one virtual call.
    fn add_batch(&mut self, batch: &[PacketRef]) -> Option<usize>;
}

/// Which decoder a structural session stands for.
///
/// A code whose decoding is optimal either way (an MDS code decodes from
/// any `k` symbols of a block) decodes the same under both and may ignore
/// the choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoding {
    /// The paper's iterative decoder (§2.3.2 for LDGM): what the sweeps,
    /// figures and tables measure.
    Iterative,
    /// Maximum-likelihood decoding: the object decodes as soon as the
    /// symbols received determine it. The codec's byte-true
    /// [`Decoder`] decodes this way, so this is its exact twin.
    MaximumLikelihood,
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
    /// structure may ignore it, but it is never empty); `decoding` picks
    /// the decoder its sessions stand for.
    fn structural_factory(
        &self,
        k: usize,
        ratio: f64,
        seeds: &[u64],
        decoding: Decoding,
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
