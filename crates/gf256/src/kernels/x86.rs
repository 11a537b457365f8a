//! x86_64 `std::arch` backends: SSSE3, AVX2 and GFNI.
//!
//! * `ssse3` — 16-byte XOR lanes and `pshufb` split-nibble GF(2⁸)
//!   multiplies: each 16-byte register is multiplied by a constant with
//!   two shuffles into the [`MUL_NIBBLES`] tables instead of sixteen table
//!   lookups. (Plain SSE2 would only add XOR lanes on top of `portable`'s
//!   multiplies, so it is no backend of its own.)
//! * `avx2` — the same shapes on 32-byte registers.
//! * `gfni` — every multiply is one `vgf2p8affineqb` on a 64-byte
//!   register, against the constant's 8x8 bit matrix ([`MUL_AFFINE`]):
//!   no nibble split, no shuffles. Needs GFNI with AVX-512 (F and BW);
//!   its `xor_many` is AVX2's.
//!
//! Each `xor_many` walks 128-byte steps (eight or four registers per
//! source), then one register at a time, then bytes, folding its first
//! source in as it loads `dst`: with one source it is the LDGM decoder's
//! fold, and runs no inner source loop.
//!
//! Backends are appended to the roster only after
//! `is_x86_feature_detected!` confirms the host supports them, and the
//! `Kernels` statics never leave this module except through that roster —
//! that containment is what every `SAFETY` comment below leans on.

#![allow(unsafe_code)]

use std::arch::x86_64::*;

use super::Kernels;
use crate::tables::{MUL_AFFINE, MUL_NIBBLES};

static SSSE3: Kernels = Kernels {
    name: "ssse3",
    xor_many: xor_many_128,
    addmul_rows: addmul_rows_ssse3,
};

static AVX2: Kernels = Kernels {
    name: "avx2",
    xor_many: xor_many_avx2,
    addmul_rows: addmul_rows_avx2,
};

static GFNI: Kernels = Kernels {
    name: "gfni",
    xor_many: xor_many_avx2,
    addmul_rows: addmul_rows_gfni,
};

/// Appends every backend this CPU supports, worst to best.
pub(super) fn append_detected(list: &mut Vec<&'static Kernels>) {
    if is_x86_feature_detected!("ssse3") {
        list.push(&SSSE3);
    }
    if is_x86_feature_detected!("avx2") {
        list.push(&AVX2);
        // GFNI reuses AVX2's `xor_many`, hence the nesting.
        if is_x86_feature_detected!("gfni")
            && is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
        {
            list.push(&GFNI);
        }
    }
}

// ---------------------------------------------------------------------------
// 128-bit lanes (SSE2 XOR, which every SSSE3 CPU has; SSSE3 multiplies).
// ---------------------------------------------------------------------------

fn xor_many_128(dst: &mut [u8], srcs: &[&[u8]]) {
    // SAFETY: only the `ssse3` backend uses this function, and it is only
    // reachable through the roster, which `append_detected` populates after
    // `is_x86_feature_detected!("ssse3")` confirmed the CPU; every SSSE3
    // CPU has SSE2.
    unsafe { xor_many_128_impl(dst, srcs) }
}

/// # Safety
/// Caller must be compiled with (and the CPU support) `sse2`; every
/// source must have `dst`'s length (asserted by the `Kernels` wrappers).
#[target_feature(enable = "sse2")]
unsafe fn xor_many_128_impl(dst: &mut [u8], srcs: &[&[u8]]) {
    // SAFETY: the callees need what this function's caller guarantees.
    let i = unsafe {
        let i = xor_steps_128::<8>(dst, srcs, 0);
        xor_steps_128::<1>(dst, srcs, i)
    };
    super::xor_tail(dst, srcs, i);
}

/// Walks `T`-register steps from `i` while they fit in `dst`, folding
/// every source into registers that hold the step's `dst` bytes (the
/// first as they are loaded); returns where it stopped.
///
/// # Safety
/// Caller must be compiled with (and the CPU support) `sse2`; every
/// source must have `dst`'s length.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn xor_steps_128<const T: usize>(dst: &mut [u8], srcs: &[&[u8]], mut i: usize) -> usize {
    let len = dst.len();
    let d = dst.as_mut_ptr();
    let Some((first, rest)) = srcs.split_first() else {
        return i;
    };
    let f = first.as_ptr();
    while i + 16 * T <= len {
        // SAFETY: `i + 16 * T <= len` bounds every load and store, for
        // `dst` and for every source (the function's contract); unaligned
        // ops.
        unsafe {
            let mut acc = [_mm_setzero_si128(); T];
            for (t, a) in acc.iter_mut().enumerate() {
                *a = _mm_xor_si128(
                    _mm_loadu_si128(d.add(i + 16 * t).cast::<__m128i>()),
                    _mm_loadu_si128(f.add(i + 16 * t).cast::<__m128i>()),
                );
            }
            for s in rest {
                let p = s.as_ptr().add(i);
                for (t, a) in acc.iter_mut().enumerate() {
                    *a = _mm_xor_si128(*a, _mm_loadu_si128(p.add(16 * t).cast::<__m128i>()));
                }
            }
            for (t, &a) in acc.iter().enumerate() {
                _mm_storeu_si128(d.add(i + 16 * t).cast::<__m128i>(), a);
            }
        }
        i += 16 * T;
    }
    i
}

/// Multiplies one 16-byte register by a constant via two nibble shuffles.
///
/// # Safety
/// Caller must be compiled with (and the CPU support) `ssse3`.
#[inline]
#[target_feature(enable = "ssse3")]
unsafe fn mul16b(x: __m128i, lo: __m128i, hi: __m128i, mask: __m128i) -> __m128i {
    // Pure register arithmetic: these intrinsics are safe inside a
    // `#[target_feature(enable = "ssse3")]` function.
    let pl = _mm_shuffle_epi8(lo, _mm_and_si128(x, mask));
    let ph = _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(x, 4), mask));
    _mm_xor_si128(pl, ph)
}

fn addmul_rows_ssse3(outs: &mut [&mut [u8]], srcs: &[&[u8]], coeffs: &[u8]) {
    super::each_row(outs, srcs, coeffs, addmul_many_ssse3);
}

fn addmul_many_ssse3(dst: &mut [u8], srcs: &[&[u8]], coeffs: &[u8]) {
    // SAFETY: roster containment, as in `xor_many_128`.
    unsafe { addmul_many_ssse3_impl(dst, srcs, coeffs) }
}

/// # Safety
/// Caller must be compiled with (and the CPU support) `ssse3`; every
/// source must have `dst`'s length and `coeffs` must have `srcs`'s
/// length (asserted by `Kernels::addmul_rows`).
#[target_feature(enable = "ssse3")]
unsafe fn addmul_many_ssse3_impl(dst: &mut [u8], srcs: &[&[u8]], coeffs: &[u8]) {
    let n = dst.len() / 64 * 64;
    let d = dst.as_mut_ptr();
    // SAFETY: 64-byte blocks stay inside `n`; every source has `dst`'s
    // length (asserted by the `Kernels::addmul_rows` wrapper).
    unsafe {
        let mask = _mm_set1_epi8(0x0F);
        let mut i = 0;
        while i < n {
            // The whole block is held in registers while every source's
            // contribution folds in — dst traffic once per row, and the
            // per-coefficient table loads amortise over 4 shuffles.
            let mut a0 = _mm_loadu_si128(d.add(i).cast::<__m128i>());
            let mut a1 = _mm_loadu_si128(d.add(i + 16).cast::<__m128i>());
            let mut a2 = _mm_loadu_si128(d.add(i + 32).cast::<__m128i>());
            let mut a3 = _mm_loadu_si128(d.add(i + 48).cast::<__m128i>());
            for (s, &c) in srcs.iter().zip(coeffs) {
                if c == 0 {
                    continue;
                }
                let p = s.as_ptr().add(i);
                let x0 = _mm_loadu_si128(p.cast::<__m128i>());
                let x1 = _mm_loadu_si128(p.add(16).cast::<__m128i>());
                let x2 = _mm_loadu_si128(p.add(32).cast::<__m128i>());
                let x3 = _mm_loadu_si128(p.add(48).cast::<__m128i>());
                if c == 1 {
                    a0 = _mm_xor_si128(a0, x0);
                    a1 = _mm_xor_si128(a1, x1);
                    a2 = _mm_xor_si128(a2, x2);
                    a3 = _mm_xor_si128(a3, x3);
                } else {
                    let tab = MUL_NIBBLES[c as usize].as_ptr();
                    let lo = _mm_loadu_si128(tab.cast::<__m128i>());
                    let hi = _mm_loadu_si128(tab.add(16).cast::<__m128i>());
                    a0 = _mm_xor_si128(a0, mul16b(x0, lo, hi, mask));
                    a1 = _mm_xor_si128(a1, mul16b(x1, lo, hi, mask));
                    a2 = _mm_xor_si128(a2, mul16b(x2, lo, hi, mask));
                    a3 = _mm_xor_si128(a3, mul16b(x3, lo, hi, mask));
                }
            }
            _mm_storeu_si128(d.add(i).cast::<__m128i>(), a0);
            _mm_storeu_si128(d.add(i + 16).cast::<__m128i>(), a1);
            _mm_storeu_si128(d.add(i + 32).cast::<__m128i>(), a2);
            _mm_storeu_si128(d.add(i + 48).cast::<__m128i>(), a3);
            i += 64;
        }
    }
    super::addmul_row_tail(dst, srcs, coeffs, n);
}

// ---------------------------------------------------------------------------
// 256-bit lanes (AVX2).
// ---------------------------------------------------------------------------

fn xor_many_avx2(dst: &mut [u8], srcs: &[&[u8]]) {
    // SAFETY: roster containment — registered only after
    // `is_x86_feature_detected!("avx2")` succeeded.
    unsafe { xor_many_avx2_impl(dst, srcs) }
}

/// # Safety
/// Caller must be compiled with (and the CPU support) `avx2`; every
/// source must have `dst`'s length (asserted by the `Kernels` wrappers).
#[target_feature(enable = "avx2")]
unsafe fn xor_many_avx2_impl(dst: &mut [u8], srcs: &[&[u8]]) {
    // SAFETY: the callees need what this function's caller guarantees.
    let i = unsafe {
        let i = xor_steps_avx2::<4>(dst, srcs, 0);
        xor_steps_avx2::<1>(dst, srcs, i)
    };
    super::xor_tail(dst, srcs, i);
}

/// `xor_steps_128` on 32-byte registers.
///
/// # Safety
/// Caller must be compiled with (and the CPU support) `avx2`; every
/// source must have `dst`'s length.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn xor_steps_avx2<const T: usize>(dst: &mut [u8], srcs: &[&[u8]], mut i: usize) -> usize {
    let len = dst.len();
    let d = dst.as_mut_ptr();
    let Some((first, rest)) = srcs.split_first() else {
        return i;
    };
    let f = first.as_ptr();
    while i + 32 * T <= len {
        // SAFETY: as in `xor_steps_128`, with 32-byte registers.
        unsafe {
            let mut acc = [_mm256_setzero_si256(); T];
            for (t, a) in acc.iter_mut().enumerate() {
                *a = _mm256_xor_si256(
                    _mm256_loadu_si256(d.add(i + 32 * t).cast::<__m256i>()),
                    _mm256_loadu_si256(f.add(i + 32 * t).cast::<__m256i>()),
                );
            }
            for s in rest {
                let p = s.as_ptr().add(i);
                for (t, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_xor_si256(*a, _mm256_loadu_si256(p.add(32 * t).cast::<__m256i>()));
                }
            }
            for (t, &a) in acc.iter().enumerate() {
                _mm256_storeu_si256(d.add(i + 32 * t).cast::<__m256i>(), a);
            }
        }
        i += 32 * T;
    }
    i
}

/// Multiplies one 32-byte register by a constant via two nibble shuffles
/// (`vpshufb` shuffles within each 128-bit lane; the tables are broadcast
/// to both lanes, so the per-lane semantics are exactly what we want).
///
/// # Safety
/// Caller must be compiled with (and the CPU support) `avx2`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mul32b(x: __m256i, lo: __m256i, hi: __m256i, mask: __m256i) -> __m256i {
    // Pure register arithmetic: these intrinsics are safe inside a
    // `#[target_feature(enable = "avx2")]` function.
    let pl = _mm256_shuffle_epi8(lo, _mm256_and_si256(x, mask));
    let ph = _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(x, 4), mask));
    _mm256_xor_si256(pl, ph)
}

/// Loads the 32-byte nibble table for `c`, broadcast to both lanes.
///
/// # Safety
/// Caller must be compiled with (and the CPU support) `avx2`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn tables32(c: u8) -> (__m256i, __m256i) {
    let tab = MUL_NIBBLES[c as usize].as_ptr();
    // SAFETY: the nibble table row is 32 bytes: two 16-byte halves.
    unsafe {
        let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(tab.cast::<__m128i>()));
        let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(tab.add(16).cast::<__m128i>()));
        (lo, hi)
    }
}

fn addmul_rows_avx2(outs: &mut [&mut [u8]], srcs: &[&[u8]], coeffs: &[u8]) {
    super::each_row(outs, srcs, coeffs, addmul_many_avx2);
}

fn addmul_many_avx2(dst: &mut [u8], srcs: &[&[u8]], coeffs: &[u8]) {
    // SAFETY: roster containment, as in `xor_many_avx2`.
    unsafe { addmul_many_avx2_impl(dst, srcs, coeffs) }
}

/// # Safety
/// Caller must be compiled with (and the CPU support) `avx2`; every
/// source must have `dst`'s length and `coeffs` must have `srcs`'s
/// length (asserted by `Kernels::addmul_rows`).
#[target_feature(enable = "avx2")]
unsafe fn addmul_many_avx2_impl(dst: &mut [u8], srcs: &[&[u8]], coeffs: &[u8]) {
    let n = dst.len() / 64 * 64;
    let d = dst.as_mut_ptr();
    // SAFETY: 64-byte blocks stay inside `n`; sources share `dst`'s length
    // (wrapper assertion).
    unsafe {
        let mask = _mm256_set1_epi8(0x0F);
        let mut i = 0;
        while i < n {
            let mut a0 = _mm256_loadu_si256(d.add(i).cast::<__m256i>());
            let mut a1 = _mm256_loadu_si256(d.add(i + 32).cast::<__m256i>());
            for (s, &c) in srcs.iter().zip(coeffs) {
                if c == 0 {
                    continue;
                }
                let p = s.as_ptr().add(i);
                let x0 = _mm256_loadu_si256(p.cast::<__m256i>());
                let x1 = _mm256_loadu_si256(p.add(32).cast::<__m256i>());
                if c == 1 {
                    a0 = _mm256_xor_si256(a0, x0);
                    a1 = _mm256_xor_si256(a1, x1);
                } else {
                    let (lo, hi) = tables32(c);
                    a0 = _mm256_xor_si256(a0, mul32b(x0, lo, hi, mask));
                    a1 = _mm256_xor_si256(a1, mul32b(x1, lo, hi, mask));
                }
            }
            _mm256_storeu_si256(d.add(i).cast::<__m256i>(), a0);
            _mm256_storeu_si256(d.add(i + 32).cast::<__m256i>(), a1);
            i += 64;
        }
    }
    super::addmul_row_tail(dst, srcs, coeffs, n);
}

// ---------------------------------------------------------------------------
// 512-bit lanes (GFNI affine multiplies; `xor_many` is AVX2's).
// ---------------------------------------------------------------------------

/// Rows one `gfni` pass carries. Eight rows of two 64-byte accumulators,
/// two source tiles, the first source's eight matrices and one more
/// matrix keep 27 of the 32 zmm registers live; a third tile per row
/// would not fit.
const GFNI_ROWS: usize = 8;

fn addmul_rows_gfni(outs: &mut [&mut [u8]], srcs: &[&[u8]], coeffs: &[u8]) {
    let m = srcs.len();
    let mut rest = coeffs;
    for group in outs.chunks_mut(GFNI_ROWS) {
        let (coeffs, after) = rest.split_at(group.len() * m);
        rest = after;
        let done = match group.len() {
            1 => tiles_gfni::<1>(group, srcs, coeffs),
            2 => tiles_gfni::<2>(group, srcs, coeffs),
            3 => tiles_gfni::<3>(group, srcs, coeffs),
            4 => tiles_gfni::<4>(group, srcs, coeffs),
            5 => tiles_gfni::<5>(group, srcs, coeffs),
            6 => tiles_gfni::<6>(group, srcs, coeffs),
            7 => tiles_gfni::<7>(group, srcs, coeffs),
            _ => tiles_gfni::<GFNI_ROWS>(group, srcs, coeffs),
        };
        // The bytes past the last whole 64-byte tile.
        for (r, out) in group.iter_mut().enumerate() {
            super::addmul_row_tail(out, srcs, &coeffs[r * m..][..m], done);
        }
    }
}

/// Applies `R` rows to every whole 64-byte tile; returns the length they
/// cover.
fn tiles_gfni<const R: usize>(outs: &mut [&mut [u8]], srcs: &[&[u8]], coeffs: &[u8]) -> usize {
    let len = outs[0].len();
    let d: [*mut u8; R] = core::array::from_fn(|r| outs[r].as_mut_ptr());
    // SAFETY: roster containment — registered only after
    // `is_x86_feature_detected!` confirmed `gfni`, `avx512f` and
    // `avx512bw`. `outs` holds exactly `R` rows (`addmul_rows_gfni` picks
    // `R` from its length) and `coeffs` holds `R` rows of `srcs.len()`;
    // every row and source is `len` bytes long (wrapper assertions).
    unsafe {
        let i = affine_tiles_gfni::<R, 2>(d, srcs, coeffs, 0, len);
        affine_tiles_gfni::<R, 1>(d, srcs, coeffs, i, len)
    }
}

/// Walks `T`-tile steps from `i` while they fit below `len`, folding every
/// source into the `R` rows' accumulators; returns where it stopped.
///
/// # Safety
/// Caller must be compiled with (and the CPU support) `gfni`, `avx512f`
/// and `avx512bw`; every `d[r]` points at `len` writable bytes that no
/// source overlaps, every source is `len` bytes long, and `coeffs` holds
/// `R` rows of `srcs.len()` coefficients.
#[target_feature(enable = "gfni,avx512f,avx512bw")]
unsafe fn affine_tiles_gfni<const R: usize, const T: usize>(
    d: [*mut u8; R],
    srcs: &[&[u8]],
    coeffs: &[u8],
    mut i: usize,
    len: usize,
) -> usize {
    let m = srcs.len();
    let Some((first, rest)) = srcs.split_first() else {
        return i;
    };
    // The first source's matrices stay in registers across the steps.
    let c0: [__m512i; R] =
        core::array::from_fn(|r| _mm512_set1_epi64(MUL_AFFINE[coeffs[r * m] as usize] as i64));
    while i + 64 * T <= len {
        // SAFETY: `i + 64 * T <= len` bounds every load and store (the
        // function's contract); unaligned ops. Each source tile is loaded
        // once and multiplied into all `R` rows while it is in registers.
        unsafe {
            let p = first.as_ptr().add(i);
            let mut x = [_mm512_setzero_si512(); T];
            for (t, x) in x.iter_mut().enumerate() {
                *x = _mm512_loadu_si512(p.add(64 * t).cast::<__m512i>());
            }
            let mut acc = [[_mm512_setzero_si512(); T]; R];
            for ((tiles, &row), &c) in acc.iter_mut().zip(&d).zip(&c0) {
                for (t, a) in tiles.iter_mut().enumerate() {
                    let dv = _mm512_loadu_si512(row.add(i + 64 * t).cast::<__m512i>());
                    *a = _mm512_xor_si512(dv, _mm512_gf2p8affine_epi64_epi8::<0>(x[t], c));
                }
            }
            for (j, s) in rest.iter().enumerate() {
                let p = s.as_ptr().add(i);
                for (t, x) in x.iter_mut().enumerate() {
                    *x = _mm512_loadu_si512(p.add(64 * t).cast::<__m512i>());
                }
                for (r, tiles) in acc.iter_mut().enumerate() {
                    let c = _mm512_set1_epi64(MUL_AFFINE[coeffs[r * m + 1 + j] as usize] as i64);
                    for (a, &x) in tiles.iter_mut().zip(&x) {
                        *a = _mm512_xor_si512(*a, _mm512_gf2p8affine_epi64_epi8::<0>(x, c));
                    }
                }
            }
            for (tiles, &row) in acc.iter().zip(&d) {
                for (t, &a) in tiles.iter().enumerate() {
                    _mm512_storeu_si512(row.add(i + 64 * t).cast::<__m512i>(), a);
                }
            }
        }
        i += 64 * T;
    }
    i
}
