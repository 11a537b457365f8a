//! Pluggable erasure-codec layer: the [`ErasureCode`] trait, its session
//! objects, and the [`CodecRegistry`].
//!
//! The paper's core observation is that FEC performance is a property of
//! the *(code, schedule, channel)* tuple — no single codec is "the"
//! answer. This crate is the seam that keeps the rest of the workspace
//! codec-agnostic: senders, receivers, the Monte-Carlo sweep engine, the
//! FLUTE transport and the §6 recommenders all talk to `dyn ErasureCode`,
//! and a new code joins every one of those layers by implementing one
//! trait and registering it.
//!
//! # Architecture
//!
//! * [`ErasureCode`] — an object-safe, stateless code descriptor:
//!   metadata (id, FTI codepoint, supported `(k, ratio)` [`Envelope`]), the
//!   structural [`Layout`](fec_sched::Layout) hook, and constructors for
//!   the three session kinds;
//! * [`Encoder`] / [`Decoder`] — byte-true per-object sessions
//!   (`add_symbol → DecodeProgress`, incremental, any order, duplicates
//!   tolerated). [`Decoder::add_symbols`] is the batched entry point that
//!   lets SIMD/batched kernels land behind the trait without an API break;
//! * [`StructuralFactory`] / [`StructuralSession`] — index-only decoding
//!   for simulation, where only *when* an object becomes decodable
//!   matters. The factory owns the expensive structure (LDGM matrix
//!   pools) so millions of runs amortise it;
//! * [`CodecRegistry`] / [`registry`] — name, alias and FTI-codepoint
//!   resolution. The [`builtin`] codecs (RSE, LDGM Staircase, LDGM
//!   Triangle, plain LDGM) are pre-registered in the
//!   [`registry::global`] registry;
//! * [`conformance`] — the behavioural test suite every implementation
//!   must pass.
//!
//! # Writing your own codec
//!
//! Implement [`ErasureCode`] (the minimal surface is `id`, `fti_id`,
//! `envelope`, `layout` and the three session constructors), register it,
//! and every consumer — `fec-core` sessions, `fec-sim` sweeps, the CLI's
//! `--code` flag — can use it by name. A complete single-parity XOR code
//! (decodes once any `k` of its `k + 1` symbols arrive):
//!
//! ```
//! use std::sync::Arc;
//! use fec_codec::{
//!     BlockParity, CodecError, DecodeProgress, Decoder, Encoder, Envelope,
//!     ErasureCode, SessionParams, StructuralFactory, StructuralSession,
//! };
//! use fec_sched::{Layout, PacketRef};
//!
//! struct XorParity;
//!
//! impl ErasureCode for XorParity {
//!     fn id(&self) -> &str { "xor-parity" }
//!     fn fti_id(&self) -> Option<u8> { None } // not transportable over ALC
//!     fn envelope(&self) -> Envelope {
//!         Envelope { min_k: 1, max_k: 1 << 16, min_ratio: 1.0, max_ratio: 2.0 }
//!     }
//!     fn supports(&self, k: usize, ratio: f64) -> bool {
//!         // Exactly one parity symbol: floor(k * ratio) == k + 1.
//!         self.envelope().contains(k, ratio)
//!             && ((k as f64) * ratio).floor() as usize == k + 1
//!     }
//!     fn layout(&self, k: usize, ratio: f64) -> Result<Layout, CodecError> {
//!         if !self.supports(k, ratio) {
//!             return Err(CodecError::UnsupportedGeometry {
//!                 code: self.id().into(), k, ratio,
//!                 reason: "needs floor(k * ratio) == k + 1".into(),
//!             });
//!         }
//!         Ok(Layout::single_block(k, k + 1))
//!     }
//!     fn encoder(&self, p: &SessionParams) -> Result<Box<dyn Encoder>, CodecError> {
//!         self.layout(p.k, p.ratio)?;
//!         Ok(Box::new(XorEncoder))
//!     }
//!     fn decoder(&self, p: &SessionParams) -> Result<Box<dyn Decoder>, CodecError> {
//!         self.layout(p.k, p.ratio)?;
//!         Ok(Box::new(XorDecoder::new(p.k, p.symbol_size)))
//!     }
//!     fn structural_factory(
//!         &self, k: usize, ratio: f64, _seeds: &[u64],
//!     ) -> Result<Box<dyn StructuralFactory>, CodecError> {
//!         self.layout(k, ratio)?;
//!         Ok(Box::new(XorFactory { k }))
//!     }
//! }
//!
//! struct XorEncoder;
//! impl Encoder for XorEncoder {
//!     fn encode(&mut self, source: &[&[u8]]) -> Result<BlockParity, CodecError> {
//!         let mut parity = source[0].to_vec();
//!         for s in &source[1..] {
//!             parity.iter_mut().zip(*s).for_each(|(p, b)| *p ^= b);
//!         }
//!         Ok(vec![vec![parity]]) // one block, one parity symbol
//!     }
//! }
//!
//! struct XorDecoder { k: usize, have: Vec<Option<Vec<u8>>>, received: u64 }
//! impl XorDecoder {
//!     fn new(k: usize, _symbol_size: usize) -> XorDecoder {
//!         XorDecoder { k, have: vec![None; k + 1], received: 0 }
//!     }
//!     fn distinct(&self) -> usize { self.have.iter().flatten().count() }
//! }
//! impl Decoder for XorDecoder {
//!     fn add_symbol(&mut self, r: PacketRef, payload: &[u8])
//!         -> Result<DecodeProgress, CodecError> {
//!         self.received += 1;
//!         self.have[r.esi as usize].get_or_insert_with(|| payload.to_vec());
//!         Ok(self.progress())
//!     }
//!     fn progress(&self) -> DecodeProgress {
//!         let missing_sources = self.have[..self.k].iter().filter(|s| s.is_none()).count();
//!         let solvable = missing_sources == 0
//!             || (missing_sources == 1 && self.have[self.k].is_some());
//!         DecodeProgress {
//!             received: self.received,
//!             decoded_source: if solvable { self.k } else { self.k - missing_sources },
//!             total_source: self.k,
//!         }
//!     }
//!     fn into_source(self: Box<Self>) -> Result<Vec<Vec<u8>>, CodecError> {
//!         let p = self.progress();
//!         if !p.is_decoded() {
//!             return Err(CodecError::NotDecoded {
//!                 decoded: p.decoded_source, needed: p.total_source,
//!             });
//!         }
//!         let mut have = self.have;
//!         if let Some(hole) = (0..self.k).find(|&i| have[i].is_none()) {
//!             let mut fill = have[self.k].clone().expect("parity present");
//!             for (i, s) in have[..self.k].iter().enumerate() {
//!                 if i != hole {
//!                     let s = s.as_ref().expect("only one hole");
//!                     fill.iter_mut().zip(s).for_each(|(p, b)| *p ^= b);
//!                 }
//!             }
//!             have[hole] = Some(fill);
//!         }
//!         Ok(have.into_iter().take(self.k).map(Option::unwrap).collect())
//!     }
//! }
//!
//! struct XorFactory { k: usize }
//! impl StructuralFactory for XorFactory {
//!     fn session(&self, _run_idx: u64) -> Box<dyn StructuralSession + '_> {
//!         Box::new(XorStructural { seen: vec![false; self.k + 1], distinct: 0, k: self.k })
//!     }
//! }
//! struct XorStructural { seen: Vec<bool>, distinct: usize, k: usize }
//! impl StructuralSession for XorStructural {
//!     fn add(&mut self, r: PacketRef) -> bool {
//!         if !self.seen[r.esi as usize] {
//!             self.seen[r.esi as usize] = true;
//!             self.distinct += 1;
//!         }
//!         self.distinct >= self.k
//!     }
//! }
//!
//! // Register it, resolve it by name, and prove it behaves like a codec.
//! fec_codec::registry::register(Arc::new(XorParity)).unwrap();
//! let code = fec_codec::registry::resolve("xor-parity").unwrap();
//! fec_codec::conformance::check_shape(&code, 50, 1.02); // n = 51
//! ```
//!
//! (`examples/custom_codec.rs` at the workspace root runs the same codec
//! through a full `fec-core` sender/receiver session.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builtin;
pub mod conformance;
mod error;
mod handle;
mod ratio;
pub mod registry;
mod traits;

pub use error::{BoxedError, CodecError};
pub use handle::CodecHandle;
pub use ratio::ExpansionRatio;
pub use registry::CodecRegistry;
pub use traits::{
    BlockParity, DecodeProgress, Decoder, Encoder, Envelope, ErasureCode, SessionParams,
    StructuralFactory, StructuralSession, Symbol,
};
