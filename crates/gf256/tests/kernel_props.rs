//! Differential property tests: every compiled kernel backend must agree
//! byte-for-byte with the scalar reference.
//!
//! The scalar backend is the ground truth (its loops mirror the field
//! definition, which the crate's own unit tests check against [`Gf256`]
//! arithmetic); the portable and SIMD backends must reproduce it exactly
//! on:
//!
//! * random contents at unaligned lengths, including non-multiples of the
//!   8/16/32/64-byte lane and block widths every backend uses internally,
//! * buffers that are directly adjacent in one allocation (`split_at_mut`
//!   neighbours), so an out-of-bounds lane read/write in one buffer would
//!   corrupt the other and fail the comparison,
//! * the `c = 0` / `c = 1` addmul fast paths and all-zero data,
//! * `xor_slice` and `addmul_slice`, the one-source cases that every
//!   backend routes through its fused `xor_many` and `addmul_rows`,
//! * multi-row `addmul_rows` calls whose row count crosses the `gfni`
//!   backend's eight-row group.

use fec_gf256::kernels::{self, Kernels};
use fec_gf256::Gf256;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Lengths that straddle every lane/block boundary the backends use
/// (u64 lanes, 16/32-byte registers, 64-byte fused blocks), plus the
/// paper-scale symbol sizes.
const EDGE_LENGTHS: &[usize] = &[
    0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 23, 31, 32, 33, 47, 63, 64, 65, 95, 127, 128, 129, 255, 511,
    1023, 1024, 2048, 4095, 4096,
];

fn non_scalar_backends() -> Vec<&'static Kernels> {
    let all = kernels::backends();
    assert_eq!(all[0].name(), "scalar");
    all[1..].to_vec()
}

fn fill(rng: &mut SmallRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen()).collect()
}

/// `dst ^= c * src` straight from the field definition.
fn reference_addmul(dst: &mut [u8], src: &[u8], c: u8) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (Gf256(*d) + Gf256(c) * Gf256(*s)).0;
    }
}

#[test]
fn every_backend_matches_reference_on_edge_lengths() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF);
    for &len in EDGE_LENGTHS {
        let src = fill(&mut rng, len);
        let init = fill(&mut rng, len);
        for &c in &[0u8, 1, 2, 3, 0x1D, 0x8E, 0xFF] {
            let mut expect = init.clone();
            reference_addmul(&mut expect, &src, c);
            for backend in kernels::backends() {
                let mut got = init.clone();
                backend.addmul_slice(&mut got, &src, c);
                assert_eq!(got, expect, "addmul {} len {len} c {c}", backend.name());
            }
        }
        let expect_xor: Vec<u8> = init.iter().zip(&src).map(|(a, b)| a ^ b).collect();
        for backend in kernels::backends() {
            let mut got = init.clone();
            backend.xor_slice(&mut got, &src);
            assert_eq!(got, expect_xor, "xor {} len {len}", backend.name());
        }
    }
}

#[test]
fn adjacent_buffers_are_not_corrupted() {
    // dst and src carved out of ONE allocation, directly adjacent: any
    // lane over-read/-write past either end lands in the guard regions or
    // the sibling buffer and breaks the comparison below.
    let mut rng = SmallRng::seed_from_u64(0xAD7A);
    for &len in EDGE_LENGTHS {
        let arena_init = fill(&mut rng, 2 * len + 32);
        for backend in non_scalar_backends() {
            for &c in &[1u8, 0x53] {
                // Reference run on copies.
                let mut expect_dst = arena_init[16..16 + len].to_vec();
                let src_copy = arena_init[16 + len..16 + 2 * len].to_vec();
                reference_addmul(&mut expect_dst, &src_copy, c);

                let mut arena = arena_init.clone();
                let (guard_lo, rest) = arena.split_at_mut(16);
                let (dst, rest) = rest.split_at_mut(len);
                let (src, guard_hi) = rest.split_at_mut(len);
                backend.addmul_slice(dst, src, c);
                assert_eq!(dst, &expect_dst[..], "{} len {len} c {c}", backend.name());
                assert_eq!(src, &src_copy[..], "src clobbered: {}", backend.name());
                assert_eq!(guard_lo, &arena_init[..16], "low guard: {}", backend.name());
                assert_eq!(
                    guard_hi,
                    &arena_init[16 + 2 * len..],
                    "high guard: {}",
                    backend.name()
                );
            }
        }
    }
}

#[test]
fn fused_many_matches_sequential_reference() {
    let mut rng = SmallRng::seed_from_u64(0xFA57);
    for &len in &[0usize, 1, 13, 63, 64, 65, 130, 1024, 4093] {
        for nsrc in [0usize, 1, 2, 3, 7] {
            let srcs: Vec<Vec<u8>> = (0..nsrc).map(|_| fill(&mut rng, len)).collect();
            let refs: Vec<&[u8]> = srcs.iter().map(|s| s.as_slice()).collect();
            let coeffs: Vec<u8> = (0..nsrc).map(|_| rng.gen()).collect();
            let init = fill(&mut rng, len);

            let mut expect_xor = init.clone();
            for s in &refs {
                for (d, x) in expect_xor.iter_mut().zip(*s) {
                    *d ^= x;
                }
            }
            let mut expect_addmul = init.clone();
            for (s, &c) in refs.iter().zip(&coeffs) {
                reference_addmul(&mut expect_addmul, s, c);
            }
            for backend in kernels::backends() {
                let mut got = init.clone();
                backend.xor_acc_many(&mut got, &refs);
                assert_eq!(got, expect_xor, "xor_many {} len {len}", backend.name());

                let mut got = init.clone();
                backend.addmul_rows(&mut [&mut got[..]], &refs, &coeffs);
                assert_eq!(
                    got,
                    expect_addmul,
                    "addmul_many {} len {len} x{nsrc}",
                    backend.name()
                );
            }
        }
    }
}

#[test]
fn fused_many_handles_trivial_coefficients() {
    // All-zero and all-one coefficient rows hit the skip and XOR branches
    // inside the fused kernels.
    let mut rng = SmallRng::seed_from_u64(0x0001);
    let len = 100;
    let srcs: Vec<Vec<u8>> = (0..4).map(|_| fill(&mut rng, len)).collect();
    let refs: Vec<&[u8]> = srcs.iter().map(|s| s.as_slice()).collect();
    let init = fill(&mut rng, len);
    for backend in kernels::backends() {
        let mut got = init.clone();
        backend.addmul_rows(&mut [&mut got[..]], &refs, &[0, 0, 0, 0]);
        assert_eq!(
            got,
            init,
            "all-zero row is the identity: {}",
            backend.name()
        );

        let mut got = init.clone();
        backend.addmul_rows(&mut [&mut got[..]], &refs, &[1, 1, 1, 1]);
        let mut expect = init.clone();
        backend.xor_acc_many(&mut expect, &refs);
        assert_eq!(got, expect, "all-one row equals XOR: {}", backend.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random lengths up to 4096 with random contents and coefficient:
    /// every backend equals the field-definition reference.
    #[test]
    fn addmul_differential(len in 0usize..=4096, c in any::<u8>(), seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let src = fill(&mut rng, len);
        let init = fill(&mut rng, len);
        let mut expect = init.clone();
        reference_addmul(&mut expect, &src, c);
        for backend in kernels::backends() {
            let mut got = init.clone();
            backend.addmul_slice(&mut got, &src, c);
            prop_assert_eq!(&got, &expect, "{} len {} c {}", backend.name(), len, c);
        }
    }

    /// Same for XOR.
    #[test]
    fn xor_differential(len in 0usize..=4096, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let src = fill(&mut rng, len);
        let init = fill(&mut rng, len);
        let expect: Vec<u8> = init.iter().zip(&src).map(|(a, b)| a ^ b).collect();
        for backend in kernels::backends() {
            let mut got = init.clone();
            backend.xor_slice(&mut got, &src);
            prop_assert_eq!(&got, &expect, "{} len {}", backend.name(), len);
        }
    }

    /// Fused rows against sequential single-source calls, random shapes.
    #[test]
    fn fused_differential(len in 0usize..=1024, nsrc in 0usize..6, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let srcs: Vec<Vec<u8>> = (0..nsrc).map(|_| fill(&mut rng, len)).collect();
        let refs: Vec<&[u8]> = srcs.iter().map(|s| s.as_slice()).collect();
        let coeffs: Vec<u8> = (0..nsrc).map(|_| rng.gen()).collect();
        let init = fill(&mut rng, len);
        let mut expect = init.clone();
        for (s, &c) in refs.iter().zip(&coeffs) {
            reference_addmul(&mut expect, s, c);
        }
        for backend in kernels::backends() {
            let mut got = init.clone();
            backend.addmul_rows(&mut [&mut got[..]], &refs, &coeffs);
            prop_assert_eq!(&got, &expect, "{} len {} x{}", backend.name(), len, nsrc);
        }
    }

    /// `addmul_rows` against one field-definition `addmul` per
    /// (row, source) pair, on every backend: 0..=17 rows, so calls cross
    /// the eight-row group, one row of one source (`addmul_slice`'s
    /// shape) in half the cases, lengths up to 300 with tails past every
    /// 64/128/256-byte step, and coefficients drawn so 0 and 1 are common.
    #[test]
    fn addmul_rows_matches_sequential_addmuls(
        (rows, nsrc) in prop_oneof![Just((1usize, 1usize)), (0usize..=17, 0usize..=6)],
        len in 0usize..=300,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let srcs: Vec<Vec<u8>> = (0..nsrc).map(|_| fill(&mut rng, len)).collect();
        let refs: Vec<&[u8]> = srcs.iter().map(|s| s.as_slice()).collect();
        let coeffs: Vec<u8> = (0..rows * nsrc)
            .map(|_| match rng.gen_range(0..4) {
                0 => 0,
                1 => 1,
                _ => rng.gen(),
            })
            .collect();
        let init: Vec<Vec<u8>> = (0..rows).map(|_| fill(&mut rng, len)).collect();
        let mut expect = init.clone();
        for (out, row) in expect.iter_mut().zip(coeffs.chunks(nsrc.max(1))) {
            for (s, &c) in refs.iter().zip(row) {
                reference_addmul(out, s, c);
            }
        }
        for backend in kernels::backends() {
            let mut got = init.clone();
            let mut outs: Vec<&mut [u8]> = got.iter_mut().map(|o| o.as_mut_slice()).collect();
            backend.addmul_rows(&mut outs, &refs, &coeffs);
            prop_assert_eq!(&got, &expect, "{} rows {} x{} len {}", backend.name(), rows, nsrc, len);
        }
    }
}
