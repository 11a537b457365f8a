//! Hot slice kernels: the operations that touch actual packet payloads.
//!
//! Erasure coding spends essentially all of its byte-moving time in two
//! primitives: `dst ^= src` (the only one LDGM ever needs) and
//! `dst ^= c * src` (the Reed-Solomon generator/decoder inner loop). Both
//! are implemented here on raw byte slices, behind a runtime-selected
//! backend:
//!
//! * [`scalar`](self) — the byte-at-a-time reference every other backend
//!   is differentially tested against (`tests/kernel_props.rs`);
//! * `portable` — safe Rust widened to `u64` lanes, available everywhere;
//! * `ssse3` / `avx2` (x86_64) and `neon` (aarch64) —
//!   `std::arch` SIMD, detected once at first use. The GF(2⁸) multiply
//!   kernels use the split-nibble table form (`tables::MUL_NIBBLES`):
//!   one 16-byte shuffle per nibble replaces one table lookup per byte;
//! * `gfni` (x86_64 with GFNI, AVX-512F and AVX-512BW) — each multiply
//!   is one affine instruction on a 64-byte register against the
//!   constant's 8×8 bit matrix (`tables::MUL_AFFINE`); its `xor_many` is
//!   `avx2`'s.
//!
//! The active backend is chosen once (best detected wins:
//! `gfni > avx2 > ssse3 > portable` on x86_64) and can be overridden
//! with the `FEC_FORCE_KERNEL` environment variable (`scalar`,
//! `portable`, `ssse3`, `avx2`, `gfni`, `neon`) — forcing an unknown
//! name or a backend the host cannot run panics rather than executing
//! illegal instructions. Backend choice can never change decode results: every
//! backend computes byte-identical output, which the differential
//! property tests and the workspace's cross-backend sweep test pin down.
//!
//! A backend implements two kernels, both fused over many sources:
//!
//! * `xor_many` — `dst ^= srcs[0] ^ srcs[1] ^ …` in one pass over the
//!   destination, which stays in registers instead of being re-streamed
//!   once per source. [`xor_acc_many`] is the LDGM encoder's equation
//!   row; [`xor_slice`] is its one-source case, the LDGM decoder's fold
//!   and row operations, so the SIMD forms step 128 bytes at a time and
//!   fold the first source in as they load `dst`: one source runs no
//!   inner source loop.
//! * `addmul_rows` — `outs[r] ^= Σ_j coeffs[r·m + j] · srcs[j]` for every
//!   row `r` of a row-major `outs.len() × m` coefficient matrix: the RSE
//!   generator and decoder ([`addmul_rows`]). `gfni` holds up to eight
//!   rows' accumulators in registers, so each source tile is loaded once
//!   per group of eight rows rather than once per row: a block's parity
//!   run reads its sources once per eight symbols. Every other backend
//!   applies its one-row body once per row. [`addmul_slice`] is the one
//!   row, one source case.
//!
//! Scaling a row in place is left to [`Matrix`](crate::Matrix), whose
//! rows hold at most 255 coefficients and go through the `MUL` table.

use std::sync::OnceLock;

use crate::tables::MUL;

mod portable;
mod scalar;

#[cfg(target_arch = "aarch64")]
mod neon;
#[cfg(target_arch = "x86_64")]
mod x86;

/// One kernel backend: a vtable of the two payload operations.
///
/// Both functions assume the length checks already happened in the
/// public wrappers, and that there is at least one source. Obtain
/// instances from [`active`] or [`backends`].
pub struct Kernels {
    name: &'static str,
    /// `dst[i] ^= srcs[0][i] ^ srcs[1][i] ^ …` in one pass.
    xor_many: fn(dst: &mut [u8], srcs: &[&[u8]]),
    /// `outs[r][i] ^= Σ_j coeffs[r * srcs.len() + j] * srcs[j][i]`, with
    /// at least one source.
    addmul_rows: AddmulRows,
}

type AddmulRows = fn(outs: &mut [&mut [u8]], srcs: &[&[u8]], coeffs: &[u8]);

impl Kernels {
    /// The backend's name (the token `FEC_FORCE_KERNEL` accepts).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// `dst[i] ^= src[i]` for all `i`.
    ///
    /// # Panics
    /// Panics if the slices have different lengths (mixed packet sizes are
    /// a framing bug upstream).
    #[inline]
    pub fn xor_slice(&self, dst: &mut [u8], src: &[u8]) {
        assert_eq!(
            dst.len(),
            src.len(),
            "xor_slice: length mismatch ({} vs {})",
            dst.len(),
            src.len()
        );
        (self.xor_many)(dst, &[src]);
    }

    /// `dst[i] ^= c * src[i]` for all `i` — the Reed-Solomon workhorse.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    #[inline]
    pub fn addmul_slice(&self, dst: &mut [u8], src: &[u8], c: u8) {
        assert_eq!(
            dst.len(),
            src.len(),
            "addmul_slice: length mismatch ({} vs {})",
            dst.len(),
            src.len()
        );
        match c {
            0 => {}
            1 => (self.xor_many)(dst, &[src]),
            _ => (self.addmul_rows)(&mut [dst], &[src], &[c]),
        }
    }

    /// `dst[i] ^= srcs[0][i] ^ srcs[1][i] ^ …` — a whole XOR equation row
    /// applied in one pass over `dst`.
    ///
    /// # Panics
    /// Panics if any source length differs from `dst`.
    pub fn xor_acc_many(&self, dst: &mut [u8], srcs: &[&[u8]]) {
        for s in srcs {
            assert_eq!(
                dst.len(),
                s.len(),
                "xor_acc_many: length mismatch ({} vs {})",
                dst.len(),
                s.len()
            );
        }
        if !srcs.is_empty() {
            (self.xor_many)(dst, srcs);
        }
    }

    /// `outs[r][i] ^= Σ_j coeffs[r * m + j] * srcs[j][i]` for every row
    /// `r`, where `m = srcs.len()` and `coeffs` is the row-major
    /// `outs.len() × m` coefficient matrix — a run of generator or
    /// decoding rows applied to one set of sources.
    ///
    /// # Panics
    /// Panics if `coeffs.len() != outs.len() * srcs.len()`, or if any
    /// output or source length differs from the first output's.
    pub fn addmul_rows(&self, outs: &mut [&mut [u8]], srcs: &[&[u8]], coeffs: &[u8]) {
        assert_eq!(
            coeffs.len(),
            outs.len() * srcs.len(),
            "addmul_rows: {} coefficients for {} rows of {} sources",
            coeffs.len(),
            outs.len(),
            srcs.len()
        );
        let Some(len) = outs.first().map(|o| o.len()) else {
            return;
        };
        for s in srcs.iter().copied().chain(outs.iter().map(|o| &o[..])) {
            assert_eq!(
                len,
                s.len(),
                "addmul_rows: length mismatch ({} vs {})",
                len,
                s.len()
            );
        }
        if !srcs.is_empty() {
            (self.addmul_rows)(outs, srcs, coeffs);
        }
    }
}

impl core::fmt::Debug for Kernels {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Kernels({})", self.name)
    }
}

static SCALAR: Kernels = Kernels {
    name: "scalar",
    xor_many: scalar::xor_many,
    addmul_rows: scalar::addmul_rows,
};

static PORTABLE: Kernels = Kernels {
    name: "portable",
    xor_many: portable::xor_many,
    addmul_rows: portable::addmul_rows,
};

/// Every backend this binary can run on this host, worst to best
/// (`scalar` first, the preferred native backend last). Differential
/// tests and the kernel ablation bench iterate this list.
pub fn backends() -> &'static [&'static Kernels] {
    static AVAILABLE: OnceLock<Vec<&'static Kernels>> = OnceLock::new();
    AVAILABLE.get_or_init(|| {
        #[allow(unused_mut)] // mutated only on SIMD-capable architectures
        let mut list: Vec<&'static Kernels> = vec![&SCALAR, &PORTABLE];
        #[cfg(target_arch = "x86_64")]
        x86::append_detected(&mut list);
        #[cfg(target_arch = "aarch64")]
        neon::append_detected(&mut list);
        list
    })
}

/// The backend all payload arithmetic dispatches through: the best
/// detected one, unless `FEC_FORCE_KERNEL` overrides it. Selected once
/// per process.
///
/// # Panics
/// Panics (on first use) if `FEC_FORCE_KERNEL` names a backend this
/// build/host cannot run.
pub fn active() -> &'static Kernels {
    static ACTIVE: OnceLock<&'static Kernels> = OnceLock::new();
    ACTIVE.get_or_init(|| {
        let available = backends();
        match std::env::var("FEC_FORCE_KERNEL") {
            Ok(name) => {
                let want = name.trim().to_ascii_lowercase();
                *available
                    .iter()
                    .find(|k| k.name == want)
                    .unwrap_or_else(|| {
                        let names: Vec<&str> = available.iter().map(|k| k.name).collect();
                        panic!(
                            "FEC_FORCE_KERNEL={name:?} is not available on this host \
                             (compiled + supported: {names:?})"
                        )
                    })
            }
            Err(_) => available.last().expect("scalar always present"),
        }
    })
}

/// Name of the backend [`active`] resolved to (for reports and benches).
pub fn active_name() -> &'static str {
    active().name()
}

// ---------------------------------------------------------------------------
// The module-level convenience API the rest of the workspace calls.
// ---------------------------------------------------------------------------

/// `dst[i] ^= src[i]` for all `i`, through the active backend.
///
/// This is GF(2^8) (and GF(2)) addition over whole packets — the only
/// payload operation LDGM encoding and decoding performs.
///
/// # Panics
/// Panics if the slices have different lengths (mixed packet sizes are a
/// framing bug upstream).
#[inline]
pub fn xor_slice(dst: &mut [u8], src: &[u8]) {
    active().xor_slice(dst, src);
}

/// `dst[i] ^= c * src[i]` for all `i` — the Reed-Solomon workhorse.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn addmul_slice(dst: &mut [u8], src: &[u8], c: u8) {
    active().addmul_slice(dst, src, c);
}

/// `dst[i] ^= srcs[0][i] ^ srcs[1][i] ^ …` in one fused pass (the LDGM
/// equation-row operation).
///
/// # Panics
/// Panics if any source length differs from `dst`.
#[inline]
pub fn xor_acc_many(dst: &mut [u8], srcs: &[&[u8]]) {
    active().xor_acc_many(dst, srcs);
}

/// `outs[r][i] ^= Σ_j coeffs[r * srcs.len() + j] * srcs[j][i]` for every
/// row `r`: a run of generator or decoding rows (row-major `coeffs`)
/// applied to one set of sources, each source read once per group of
/// rows the backend carries (see the module docs).
///
/// # Panics
/// Panics if `coeffs.len() != outs.len() * srcs.len()`, or if any output
/// or source length differs from the first output's.
#[inline]
pub fn addmul_rows(outs: &mut [&mut [u8]], srcs: &[&[u8]], coeffs: &[u8]) {
    active().addmul_rows(outs, srcs, coeffs);
}

/// Runs a one-row `addmul_many` body once per row of an `addmul_rows`
/// call: the multi-row entry of every backend without a tiled one.
fn each_row(
    outs: &mut [&mut [u8]],
    srcs: &[&[u8]],
    coeffs: &[u8],
    one_row: fn(&mut [u8], &[&[u8]], &[u8]),
) {
    for (out, row) in outs.iter_mut().zip(coeffs.chunks_exact(srcs.len())) {
        one_row(out, srcs, row);
    }
}

/// Shared tail/reference helper: `dst ^= c * src` one byte at a time via
/// the full multiplication table. Backends use it for sub-register tails.
#[inline]
fn addmul_tail(dst: &mut [u8], src: &[u8], c: u8) {
    let row = &MUL[c as usize];
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= row[*s as usize];
    }
}

/// `dst[i] ^= srcs[0][i] ^ srcs[1][i] ^ …` for `i >= from`: the bytes a
/// SIMD `xor_many` leaves past its last whole register. Symbols are
/// usually whole registers long, so an empty tail returns before the
/// per-source slicing.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[inline]
fn xor_tail(dst: &mut [u8], srcs: &[&[u8]], from: usize) {
    if from == dst.len() {
        return;
    }
    for s in srcs {
        for (d, x) in dst[from..].iter_mut().zip(&s[from..]) {
            *d ^= x;
        }
    }
}

/// `dst[i] ^= Σ_j coeffs[j] * srcs[j][i]` for `i >= from`, by
/// [`addmul_tail`]: the bytes a SIMD row body leaves past its last whole
/// block. An empty tail returns at once, as in [`xor_tail`].
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[inline]
fn addmul_row_tail(dst: &mut [u8], srcs: &[&[u8]], coeffs: &[u8], from: usize) {
    if from == dst.len() {
        return;
    }
    for (s, &c) in srcs.iter().zip(coeffs) {
        addmul_tail(&mut dst[from..], &s[from..], c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gf256;
    use proptest::prelude::*;

    #[test]
    fn backend_roster_is_sane() {
        let list = backends();
        assert!(!list.is_empty());
        assert_eq!(list[0].name(), "scalar");
        assert!(list.iter().any(|k| k.name() == "portable"));
        let mut names: Vec<&str> = list.iter().map(|k| k.name()).collect();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "backend names must be unique");
        // The active backend is always one of the roster (possibly forced).
        assert!(list.iter().any(|k| k.name() == active_name()));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn gfni_is_listed_exactly_when_the_cpu_runs_it_and_is_then_best() {
        let runs_gfni = is_x86_feature_detected!("gfni")
            && is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx2");
        let list = backends();
        assert_eq!(list.iter().any(|k| k.name() == "gfni"), runs_gfni);
        if runs_gfni {
            assert_eq!(list.last().map(|k| k.name()), Some("gfni"));
        }
    }

    #[test]
    fn xor_slice_basic() {
        let mut a = vec![0xFFu8; 20];
        let b: Vec<u8> = (0..20).collect();
        xor_slice(&mut a, &b);
        for (i, &x) in a.iter().enumerate() {
            assert_eq!(x, 0xFF ^ i as u8);
        }
    }

    #[test]
    fn xor_slice_empty() {
        let mut a: Vec<u8> = vec![];
        xor_slice(&mut a, &[]);
        assert!(a.is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn xor_slice_length_mismatch_panics() {
        let mut a = [0u8; 3];
        xor_slice(&mut a, &[0u8; 4]);
    }

    /// A slice times a constant is a multiply-add into a zeroed
    /// destination. `addmul_slice` shortcuts `c = 0` and `c = 1` before any
    /// backend runs, so each backend's `addmul_rows` is driven directly.
    #[test]
    fn mul_slice_special_cases() {
        let src = [1u8, 2, 3, 0xFF];
        let mut a = [0u8; 4];
        addmul_slice(&mut a, &src, 1);
        assert_eq!(a, src);
        let mut a = [0u8; 4];
        addmul_slice(&mut a, &src, 0);
        assert_eq!(a, [0u8; 4]);
        for backend in backends() {
            for (c, expect) in [(1u8, src), (0, [0u8; 4])] {
                let mut got = [0u8; 4];
                backend.addmul_rows(&mut [&mut got[..]], &[&src], &[c]);
                assert_eq!(got, expect, "backend {} c {c}", backend.name());
            }
        }
    }

    #[test]
    fn addmul_with_zero_is_noop() {
        let mut a = vec![5u8; 9];
        addmul_slice(&mut a, &[7u8; 9], 0);
        assert_eq!(a, vec![5u8; 9]);
    }

    #[test]
    fn xor_acc_many_folds_all_sources() {
        let s1 = [1u8, 2, 4, 8, 16];
        let s2 = [3u8, 3, 3, 3, 3];
        let s3 = [0u8, 1, 0, 1, 0];
        let mut dst = [0xA0u8, 0, 0, 0, 0x0A];
        let expect: Vec<u8> = dst
            .iter()
            .zip(&s1)
            .zip(&s2)
            .zip(&s3)
            .map(|(((d, a), b), c)| d ^ a ^ b ^ c)
            .collect();
        xor_acc_many(&mut dst, &[&s1, &s2, &s3]);
        assert_eq!(dst.to_vec(), expect);
        // Zero sources: identity.
        xor_acc_many(&mut dst, &[]);
        assert_eq!(dst.to_vec(), expect);
    }

    proptest! {
        /// The widened XOR path must agree with the scalar definition for all
        /// lengths, including ragged tails.
        #[test]
        fn xor_slice_matches_scalar(mut dst in proptest::collection::vec(any::<u8>(), 0..70),
                                    seed in any::<u64>()) {
            let src: Vec<u8> = (0..dst.len())
                .map(|i| (seed.wrapping_mul(i as u64 + 1) >> 13) as u8)
                .collect();
            let expect: Vec<u8> = dst.iter().zip(&src).map(|(a, b)| a ^ b).collect();
            xor_slice(&mut dst, &src);
            prop_assert_eq!(dst, expect);
        }

        #[test]
        fn addmul_matches_field_arithmetic(mut dst in proptest::collection::vec(any::<u8>(), 0..70),
                                           c in any::<u8>(),
                                           seed in any::<u64>()) {
            let src: Vec<u8> = (0..dst.len())
                .map(|i| (seed.wrapping_mul(i as u64 + 3) >> 7) as u8)
                .collect();
            let expect: Vec<u8> = dst
                .iter()
                .zip(&src)
                .map(|(&d, &s)| (Gf256(d) + Gf256(c) * Gf256(s)).0)
                .collect();
            addmul_slice(&mut dst, &src, c);
            prop_assert_eq!(dst, expect);
        }

        /// Every backend multiplies a slice by a constant, as a one-row,
        /// one-source multiply-add into zeros, as the field does.
        #[test]
        fn mul_slice_matches_field_arithmetic(src in proptest::collection::vec(any::<u8>(), 0..70),
                                              c in any::<u8>()) {
            let expect: Vec<u8> = src.iter().map(|&s| (Gf256(c) * Gf256(s)).0).collect();
            for backend in backends() {
                let mut got = vec![0u8; src.len()];
                backend.addmul_rows(&mut [&mut got[..]], &[&src[..]], &[c]);
                prop_assert_eq!(&got, &expect, "backend {}", backend.name());
            }
        }

        /// addmul twice with the same coefficient cancels (characteristic 2).
        #[test]
        fn addmul_is_involutive(orig in proptest::collection::vec(any::<u8>(), 1..70),
                                c in any::<u8>(),
                                seed in any::<u64>()) {
            let src: Vec<u8> = (0..orig.len())
                .map(|i| (seed.wrapping_mul(i as u64 + 11) >> 5) as u8)
                .collect();
            let mut dst = orig.clone();
            addmul_slice(&mut dst, &src, c);
            addmul_slice(&mut dst, &src, c);
            prop_assert_eq!(dst, orig);
        }

        /// One fused row equals the sequence of single addmuls, on every
        /// backend.
        #[test]
        fn one_row_addmul_rows_matches_sequential(len in 0usize..70,
                                              coeffs in proptest::collection::vec(any::<u8>(), 0..6),
                                              seed in any::<u64>()) {
            let srcs: Vec<Vec<u8>> = (0..coeffs.len())
                .map(|j| (0..len)
                    .map(|i| (seed.wrapping_mul((j * 97 + i) as u64 + 5) >> 9) as u8)
                    .collect())
                .collect();
            let refs: Vec<&[u8]> = srcs.iter().map(|s| s.as_slice()).collect();
            let init: Vec<u8> = (0..len).map(|i| (seed >> (i % 23)) as u8).collect();
            let mut expect = init.clone();
            for (s, &c) in refs.iter().zip(&coeffs) {
                addmul_tail(&mut expect, s, c);
            }
            for backend in backends() {
                let mut got = init.clone();
                backend.addmul_rows(&mut [&mut got[..]], &refs, &coeffs);
                prop_assert_eq!(&got, &expect, "backend {}", backend.name());
            }
        }
    }
}
