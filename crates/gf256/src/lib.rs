//! GF(2^8) arithmetic and dense linear algebra for packet-level erasure codes.
//!
//! This crate is the lowest substrate of the `fec-broadcast` workspace. It
//! provides everything the Reed-Solomon erasure codec (crate `fec-rse`) needs:
//!
//! * [`Gf256`] — a field element with full operator support, built on
//!   compile-time exp/log tables over the primitive polynomial
//!   `x^8 + x^4 + x^3 + x^2 + 1` (`0x11D`, the polynomial used by Rizzo's
//!   classic `fec` codec and by CCSDS Reed-Solomon),
//! * [`kernels`] — the slice kernels that move actual packet payloads:
//!   `xor_slice` and `xor_acc_many` (one and many sources), `addmul_slice`
//!   and the many-row `addmul_rows`. Every backend implements two fused
//!   kernels, a many-source XOR and a many-row multiply-accumulate, and
//!   the one-source calls are their one-source case. They dispatch
//!   through a runtime-selected backend: a safe `u64`-lane portable
//!   implementation everywhere, plus `std::arch` SSSE3/AVX2 (x86_64) and
//!   NEON (aarch64) backends using split-nibble shuffle multiplies and a
//!   GFNI (x86_64 with AVX-512) backend using bit-matrix affine
//!   multiplies, detected once at first use (best wins, `gfni > avx2 > …`)
//!   and overridable via `FEC_FORCE_KERNEL`,
//! * [`Matrix`] — a dense matrix over GF(2^8) with Gauss-Jordan inversion and
//!   Vandermonde constructors, used to build systematic generator matrices
//!   and to solve the decoding systems.
//!
//! Design notes (see docs/ARCHITECTURE.md §"Arithmetic: `fec-gf256`"): no
//! macro/type tricks; the GF(2^8) tables are `const fn`-generated so the
//! common path has zero runtime initialisation and no dependencies. `unsafe`
//! is denied crate-wide and allowed only inside the SIMD kernel backends,
//! where every block carries a `SAFETY` comment and every backend is
//! differentially tested against the scalar reference
//! (`tests/kernel_props.rs`).

#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod field;
pub mod kernels;
mod matrix;
mod tables;

pub use field::Gf256;
pub use matrix::{Matrix, MatrixError};

/// Multiplicative order of the field: every non-zero element satisfies
/// `x^255 = 1`. This also bounds the number of *distinct* evaluation points
/// of the form `alpha^i`, and therefore the maximum Reed-Solomon block
/// length `n` supported by `fec-rse`.
pub const MUL_ORDER: usize = 255;
