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
//! * `sse2` / `ssse3` / `avx2` (x86_64) and `neon` (aarch64) —
//!   `std::arch` SIMD, detected once at first use. The GF(2⁸) multiply
//!   kernels use the split-nibble table form (`tables::MUL_NIBBLES`):
//!   one 16-byte shuffle per nibble replaces one table lookup per byte;
//! * `gfni` (x86_64 with GFNI, AVX-512F and AVX-512BW) — each multiply
//!   is one affine instruction on a 64-byte register against the
//!   constant's 8×8 bit matrix (`tables::MUL_AFFINE`); XOR is `avx2`'s.
//!
//! The active backend is chosen once (best detected wins:
//! `gfni > avx2 > ssse3 > sse2 > portable` on x86_64) and can be
//! overridden with the `FEC_FORCE_KERNEL` environment variable
//! (`scalar`, `portable`, `sse2`, `ssse3`, `avx2`, `gfni`, `neon`) — forcing a
//! backend the host cannot run panics rather than executing illegal
//! instructions. Backend choice can never change decode results: every
//! backend computes byte-identical output, which the differential
//! property tests and the workspace's cross-backend sweep test pin down.
//!
//! Beyond the single-source forms, the fused multi-source kernels
//! [`xor_acc_many`] and [`addmul_acc_many`] apply a whole coefficient row
//! in one pass over the destination, which is what the LDGM encoder and
//! the RSE generator/decoder inner loops actually need: the destination
//! stays in registers instead of being re-streamed once per source.

use std::sync::OnceLock;

use crate::tables::MUL;

mod portable;
mod scalar;

#[cfg(target_arch = "aarch64")]
mod neon;
#[cfg(target_arch = "x86_64")]
mod x86;

/// One kernel backend: a vtable of the payload operations.
///
/// All functions assume the length checks already happened in the public
/// wrappers, and the multiply entries assume the trivial coefficients
/// (`c = 0`, `c = 1`) were peeled off — backends only see the general
/// case. Obtain instances from [`active`] or [`backends`].
pub struct Kernels {
    name: &'static str,
    /// `dst[i] ^= src[i]`.
    xor: fn(dst: &mut [u8], src: &[u8]),
    /// `dst[i] = c * dst[i]`, `c >= 2`.
    mul: fn(dst: &mut [u8], c: u8),
    /// `dst[i] ^= c * src[i]`, `c >= 2`.
    addmul: fn(dst: &mut [u8], src: &[u8], c: u8),
    /// `dst[i] ^= srcs[0][i] ^ srcs[1][i] ^ …` in one pass.
    xor_many: fn(dst: &mut [u8], srcs: &[&[u8]]),
    /// `dst[i] ^= Σ_j coeffs[j] * srcs[j][i]` in one pass.
    addmul_many: fn(dst: &mut [u8], srcs: &[&[u8]], coeffs: &[u8]),
}

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
    pub fn xor_slice(&self, dst: &mut [u8], src: &[u8]) {
        assert_eq!(
            dst.len(),
            src.len(),
            "xor_slice: length mismatch ({} vs {})",
            dst.len(),
            src.len()
        );
        (self.xor)(dst, src);
    }

    /// `dst[i] = c * dst[i]` for all `i` (in-place scaling).
    pub fn mul_slice(&self, dst: &mut [u8], c: u8) {
        match c {
            0 => dst.fill(0),
            1 => {}
            _ => (self.mul)(dst, c),
        }
    }

    /// `dst[i] ^= c * src[i]` for all `i` — the Reed-Solomon workhorse.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
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
            1 => (self.xor)(dst, src),
            _ => (self.addmul)(dst, src, c),
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
        match srcs {
            [] => {}
            [one] => (self.xor)(dst, one),
            _ => (self.xor_many)(dst, srcs),
        }
    }

    /// `dst[i] ^= Σ_j coeffs[j] * srcs[j][i]` — a coefficient row of a
    /// generator/decoding matrix applied in one pass over `dst`.
    ///
    /// # Panics
    /// Panics if `coeffs` and `srcs` have different lengths, or if any
    /// source length differs from `dst`.
    pub fn addmul_acc_many(&self, dst: &mut [u8], srcs: &[&[u8]], coeffs: &[u8]) {
        assert_eq!(
            coeffs.len(),
            srcs.len(),
            "addmul_acc_many: {} coefficients for {} sources",
            coeffs.len(),
            srcs.len()
        );
        for s in srcs {
            assert_eq!(
                dst.len(),
                s.len(),
                "addmul_acc_many: length mismatch ({} vs {})",
                dst.len(),
                s.len()
            );
        }
        match srcs {
            [] => {}
            [one] => self.addmul_slice(dst, one, coeffs[0]),
            _ => (self.addmul_many)(dst, srcs, coeffs),
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
    xor: scalar::xor,
    mul: scalar::mul,
    addmul: scalar::addmul,
    xor_many: scalar::xor_many,
    addmul_many: scalar::addmul_many,
};

static PORTABLE: Kernels = Kernels {
    name: "portable",
    xor: portable::xor,
    mul: portable::mul,
    addmul: portable::addmul,
    xor_many: portable::xor_many,
    addmul_many: portable::addmul_many,
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

/// `dst[i] = c * dst[i]` for all `i` (in-place scaling).
#[inline]
pub fn mul_slice(dst: &mut [u8], c: u8) {
    active().mul_slice(dst, c);
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

/// `dst[i] ^= Σ_j coeffs[j] * srcs[j][i]` in one fused pass (the RSE
/// generator/decoding-row operation).
///
/// # Panics
/// Panics if `coeffs` and `srcs` have different lengths, or if any source
/// length differs from `dst`.
#[inline]
pub fn addmul_acc_many(dst: &mut [u8], srcs: &[&[u8]], coeffs: &[u8]) {
    active().addmul_acc_many(dst, srcs, coeffs);
}

/// Dot product of a coefficient row with a set of symbol slices:
/// `out = sum_i coeffs[i] * symbols[i]`.
///
/// `out` is cleared first. Empty input leaves `out` all-zero.
///
/// # Panics
/// Panics if `coeffs` and `symbols` have different lengths, or if any symbol
/// length differs from `out`.
pub fn dot_product(out: &mut [u8], coeffs: &[u8], symbols: &[&[u8]]) {
    assert_eq!(
        coeffs.len(),
        symbols.len(),
        "dot_product: {} coefficients for {} symbols",
        coeffs.len(),
        symbols.len()
    );
    out.fill(0);
    active().addmul_acc_many(out, symbols, coeffs);
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

    #[test]
    fn mul_slice_special_cases() {
        let mut a = vec![1u8, 2, 3, 0xFF];
        mul_slice(&mut a, 1);
        assert_eq!(a, vec![1, 2, 3, 0xFF]);
        mul_slice(&mut a, 0);
        assert_eq!(a, vec![0, 0, 0, 0]);
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

        #[test]
        fn mul_slice_matches_field_arithmetic(mut dst in proptest::collection::vec(any::<u8>(), 0..70),
                                              c in any::<u8>()) {
            let expect: Vec<u8> = dst.iter().map(|&d| (Gf256(c) * Gf256(d)).0).collect();
            mul_slice(&mut dst, c);
            prop_assert_eq!(dst, expect);
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

        /// The fused row operation equals the sequence of single addmuls, on
        /// every backend.
        #[test]
        fn addmul_acc_many_matches_sequential(len in 0usize..70,
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
                backend.addmul_acc_many(&mut got, &refs, &coeffs);
                prop_assert_eq!(&got, &expect, "backend {}", backend.name());
            }
        }
    }

    #[test]
    fn dot_product_is_linear_combination() {
        let s1 = [1u8, 0, 0];
        let s2 = [0u8, 1, 0];
        let s3 = [0u8, 0, 1];
        let mut out = [0u8; 3];
        dot_product(&mut out, &[3, 5, 7], &[&s1, &s2, &s3]);
        assert_eq!(out, [3, 5, 7]);
    }

    #[test]
    fn dot_product_empty_clears_out() {
        let mut out = [9u8; 4];
        dot_product(&mut out, &[], &[]);
        assert_eq!(out, [0u8; 4]);
    }
}
