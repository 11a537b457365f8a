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
//! * [`Encoder`] / [`Decoder`] — byte-true per-object sessions. An
//!   encoder writes a run of parity symbols per call; a single symbol is
//!   a run of one. A decoder takes symbols through `add_symbols →
//!   DecodeProgress` (incremental, any order, duplicates tolerated); a
//!   batch is the one feed entry, and a single symbol is a batch of one;
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
//!     CodecError, DecodeProgress, Decoder, Decoding, Encoder, Envelope,
//!     ErasureCode, SessionParams, StructuralFactory, StructuralSession, Symbol,
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
//!     // Any k symbols decode, so both decoders finish at the same point.
//!     fn structural_factory(
//!         &self, k: usize, ratio: f64, _seeds: &[u64], _decoding: Decoding,
//!     ) -> Result<Box<dyn StructuralFactory>, CodecError> {
//!         self.layout(k, ratio)?;
//!         Ok(Box::new(XorFactory { k }))
//!     }
//! }
//!
//! struct XorEncoder;
//! impl Encoder for XorEncoder {
//!     // The one parity symbol, ESI k: the XOR of the k source symbols
//!     // below it, written (a run of one) when a sender first emits it.
//!     fn parity<'s>(
//!         &mut self, _block: usize, first: u32,
//!         earlier: &dyn Fn(u32) -> Option<&'s [u8]>, out: &mut [&mut [u8]],
//!     ) -> Result<(), CodecError> {
//!         let [out] = out else {
//!             return Err(CodecError::encode(&XorParity, "one parity symbol only"));
//!         };
//!         for j in 0..first {
//!             let s = earlier(j).ok_or_else(|| CodecError::encode(&XorParity, "source missing"))?;
//!             out.iter_mut().zip(s).for_each(|(p, b)| *p ^= b);
//!         }
//!         Ok(())
//!     }
//! }
//!
//! struct XorDecoder {
//!     k: usize,
//!     len: usize,
//!     object: Vec<u8>,
//!     have: Vec<bool>,
//!     parity: Option<Vec<u8>>,
//!     received: u64,
//! }
//! impl XorDecoder {
//!     fn new(k: usize, symbol_size: usize) -> XorDecoder {
//!         XorDecoder {
//!             k, len: symbol_size, object: vec![0; k * symbol_size],
//!             have: vec![false; k], parity: None, received: 0,
//!         }
//!     }
//! }
//! impl Decoder for XorDecoder {
//!     fn add_symbols(&mut self, batch: &[Symbol<'_>]) -> Result<DecodeProgress, CodecError> {
//!         for s in batch {
//!             self.received += 1;
//!             let i = s.packet.esi as usize;
//!             if i == self.k {
//!                 self.parity.get_or_insert_with(|| s.payload.to_vec());
//!             } else if !self.have[i] {
//!                 // A source symbol goes straight into the object.
//!                 self.have[i] = true;
//!                 self.object[i * self.len..][..self.len].copy_from_slice(s.payload);
//!             }
//!         }
//!         Ok(self.progress())
//!     }
//!     fn progress(&self) -> DecodeProgress {
//!         let missing_sources = self.have.iter().filter(|&&h| !h).count();
//!         let solvable = missing_sources == 0
//!             || (missing_sources == 1 && self.parity.is_some());
//!         DecodeProgress {
//!             received: self.received,
//!             decoded_source: if solvable { self.k } else { self.k - missing_sources },
//!             total_source: self.k,
//!         }
//!     }
//!     fn into_source(self: Box<Self>) -> Result<Vec<u8>, CodecError> {
//!         let p = self.progress();
//!         if !p.is_decoded() {
//!             return Err(CodecError::NotDecoded {
//!                 decoded: p.decoded_source, needed: p.total_source,
//!             });
//!         }
//!         let XorDecoder { len, mut object, have, parity, .. } = *self;
//!         if let Some(hole) = have.iter().position(|&h| !h) {
//!             // The hole is still zero: the parity XOR every symbol fills it.
//!             let mut fill = parity.expect("parity present");
//!             for s in object.chunks_exact(len) {
//!                 fill.iter_mut().zip(s).for_each(|(p, b)| *p ^= b);
//!             }
//!             object[hole * len..][..len].copy_from_slice(&fill);
//!         }
//!         Ok(object)
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
//!     fn add_batch(&mut self, batch: &[PacketRef]) -> Option<usize> {
//!         let mut done_at = None;
//!         for (i, r) in batch.iter().enumerate() {
//!             if !self.seen[r.esi as usize] {
//!                 self.seen[r.esi as usize] = true;
//!                 self.distinct += 1;
//!             }
//!             if done_at.is_none() && self.distinct >= self.k {
//!                 done_at = Some(i);
//!             }
//!         }
//!         done_at
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
    DecodeProgress, Decoder, Decoding, Encoder, Envelope, ErasureCode, SessionParams,
    StructuralFactory, StructuralSession, Symbol,
};
