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
//!   its XOR entries are AVX2's.
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
    xor: xor_128,
    mul: mul_ssse3,
    addmul: addmul_ssse3,
    xor_many: xor_many_128,
    addmul_rows: addmul_rows_ssse3,
};

static AVX2: Kernels = Kernels {
    name: "avx2",
    xor: xor_avx2,
    mul: mul_avx2,
    addmul: addmul_avx2,
    xor_many: xor_many_avx2,
    addmul_rows: addmul_rows_avx2,
};

static GFNI: Kernels = Kernels {
    name: "gfni",
    xor: xor_avx2,
    mul: mul_gfni,
    addmul: addmul_gfni,
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
        // GFNI reuses AVX2's XOR entries, hence the nesting.
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

fn xor_128(dst: &mut [u8], src: &[u8]) {
    // SAFETY: only the `ssse3` backend uses this function, and it is only
    // reachable through the roster, which `append_detected` populates after
    // `is_x86_feature_detected!("ssse3")` confirmed the CPU; every SSSE3
    // CPU has SSE2.
    unsafe { xor_128_impl(dst, src) }
}

/// # Safety
/// Caller must be compiled with (and the CPU support) `sse2`; `dst` and
/// `src` must have equal lengths (the `Kernels` wrappers assert this).
#[target_feature(enable = "sse2")]
unsafe fn xor_128_impl(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    let n = dst.len() / 16 * 16;
    let d = dst.as_mut_ptr();
    let s = src.as_ptr();
    let mut i = 0;
    while i < n {
        // SAFETY: `i + 16 <= n <= len` for both slices, and `loadu`/`storeu`
        // carry no alignment requirement.
        unsafe {
            let a = _mm_loadu_si128(d.add(i).cast::<__m128i>());
            let b = _mm_loadu_si128(s.add(i).cast::<__m128i>());
            _mm_storeu_si128(d.add(i).cast::<__m128i>(), _mm_xor_si128(a, b));
        }
        i += 16;
    }
    for (db, sb) in dst[n..].iter_mut().zip(&src[n..]) {
        *db ^= sb;
    }
}

fn xor_many_128(dst: &mut [u8], srcs: &[&[u8]]) {
    // SAFETY: roster containment, as in `xor_128`.
    unsafe { xor_many_128_impl(dst, srcs) }
}

/// # Safety
/// Caller must be compiled with (and the CPU support) `sse2`; every
/// source must have `dst`'s length (asserted by `Kernels::xor_acc_many`).
#[target_feature(enable = "sse2")]
unsafe fn xor_many_128_impl(dst: &mut [u8], srcs: &[&[u8]]) {
    let n = dst.len() / 16 * 16;
    let d = dst.as_mut_ptr();
    let mut i = 0;
    while i < n {
        // SAFETY: `i + 16 <= n` and every source has `dst`'s length
        // (asserted by the `Kernels::xor_acc_many` wrapper).
        unsafe {
            let mut acc = _mm_loadu_si128(d.add(i).cast::<__m128i>());
            for s in srcs {
                let v = _mm_loadu_si128(s.as_ptr().add(i).cast::<__m128i>());
                acc = _mm_xor_si128(acc, v);
            }
            _mm_storeu_si128(d.add(i).cast::<__m128i>(), acc);
        }
        i += 16;
    }
    for (j, db) in dst[n..].iter_mut().enumerate() {
        for s in srcs {
            *db ^= s[n + j];
        }
    }
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

fn addmul_ssse3(dst: &mut [u8], src: &[u8], c: u8) {
    // SAFETY: roster containment — registered only after
    // `is_x86_feature_detected!("ssse3")` succeeded.
    unsafe { addmul_ssse3_impl(dst, src, c) }
}

/// # Safety
/// Caller must be compiled with (and the CPU support) `ssse3`; `dst` and
/// `src` must have equal lengths (the `Kernels` wrappers assert this).
#[target_feature(enable = "ssse3")]
unsafe fn addmul_ssse3_impl(dst: &mut [u8], src: &[u8], c: u8) {
    let tab = MUL_NIBBLES[c as usize].as_ptr();
    let n = dst.len() / 16 * 16;
    let d = dst.as_mut_ptr();
    let s = src.as_ptr();
    // SAFETY: the nibble table is 32 bytes; slice bounds as in `xor_128`.
    unsafe {
        let lo = _mm_loadu_si128(tab.cast::<__m128i>());
        let hi = _mm_loadu_si128(tab.add(16).cast::<__m128i>());
        let mask = _mm_set1_epi8(0x0F);
        let mut i = 0;
        while i < n {
            let x = _mm_loadu_si128(s.add(i).cast::<__m128i>());
            let p = mul16b(x, lo, hi, mask);
            let dv = _mm_loadu_si128(d.add(i).cast::<__m128i>());
            _mm_storeu_si128(d.add(i).cast::<__m128i>(), _mm_xor_si128(dv, p));
            i += 16;
        }
    }
    super::addmul_tail(&mut dst[n..], &src[n..], c);
}

fn mul_ssse3(dst: &mut [u8], c: u8) {
    // SAFETY: roster containment, as in `addmul_ssse3`.
    unsafe { mul_ssse3_impl(dst, c) }
}

/// # Safety
/// Caller must be compiled with (and the CPU support) `ssse3`.
#[target_feature(enable = "ssse3")]
unsafe fn mul_ssse3_impl(dst: &mut [u8], c: u8) {
    let tab = MUL_NIBBLES[c as usize].as_ptr();
    let n = dst.len() / 16 * 16;
    let d = dst.as_mut_ptr();
    // SAFETY: as in `addmul_ssse3_impl`.
    unsafe {
        let lo = _mm_loadu_si128(tab.cast::<__m128i>());
        let hi = _mm_loadu_si128(tab.add(16).cast::<__m128i>());
        let mask = _mm_set1_epi8(0x0F);
        let mut i = 0;
        while i < n {
            let x = _mm_loadu_si128(d.add(i).cast::<__m128i>());
            _mm_storeu_si128(d.add(i).cast::<__m128i>(), mul16b(x, lo, hi, mask));
            i += 16;
        }
    }
    let row = &crate::tables::MUL[c as usize];
    for b in &mut dst[n..] {
        *b = row[*b as usize];
    }
}

fn addmul_rows_ssse3(outs: &mut [&mut [u8]], srcs: &[&[u8]], coeffs: &[u8]) {
    super::each_row(outs, srcs, coeffs, addmul_many_ssse3);
}

fn addmul_many_ssse3(dst: &mut [u8], srcs: &[&[u8]], coeffs: &[u8]) {
    // SAFETY: roster containment, as in `addmul_ssse3`.
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
        for (s, &c) in srcs.iter().zip(coeffs) {
            match c {
                0 => {}
                _ => addmul_ssse3_impl(&mut dst[n..], &s[n..], c),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 256-bit lanes (AVX2).
// ---------------------------------------------------------------------------

fn xor_avx2(dst: &mut [u8], src: &[u8]) {
    // SAFETY: roster containment — registered only after
    // `is_x86_feature_detected!("avx2")` succeeded.
    unsafe { xor_avx2_impl(dst, src) }
}

/// # Safety
/// Caller must be compiled with (and the CPU support) `avx2`; `dst` and
/// `src` must have equal lengths (the `Kernels` wrappers assert this).
#[target_feature(enable = "avx2")]
unsafe fn xor_avx2_impl(dst: &mut [u8], src: &[u8]) {
    let n = dst.len() / 32 * 32;
    let d = dst.as_mut_ptr();
    let s = src.as_ptr();
    let mut i = 0;
    while i < n {
        // SAFETY: `i + 32 <= n <= len` for both slices; unaligned ops.
        unsafe {
            let a = _mm256_loadu_si256(d.add(i).cast::<__m256i>());
            let b = _mm256_loadu_si256(s.add(i).cast::<__m256i>());
            _mm256_storeu_si256(d.add(i).cast::<__m256i>(), _mm256_xor_si256(a, b));
        }
        i += 32;
    }
    for (db, sb) in dst[n..].iter_mut().zip(&src[n..]) {
        *db ^= sb;
    }
}

fn xor_many_avx2(dst: &mut [u8], srcs: &[&[u8]]) {
    // SAFETY: roster containment, as in `xor_avx2`.
    unsafe { xor_many_avx2_impl(dst, srcs) }
}

/// # Safety
/// Caller must be compiled with (and the CPU support) `avx2`; every
/// source must have `dst`'s length (asserted by `Kernels::xor_acc_many`).
#[target_feature(enable = "avx2")]
unsafe fn xor_many_avx2_impl(dst: &mut [u8], srcs: &[&[u8]]) {
    let n = dst.len() / 32 * 32;
    let d = dst.as_mut_ptr();
    let mut i = 0;
    while i < n {
        // SAFETY: `i + 32 <= n`; sources share `dst`'s length (wrapper).
        unsafe {
            let mut acc = _mm256_loadu_si256(d.add(i).cast::<__m256i>());
            for s in srcs {
                let v = _mm256_loadu_si256(s.as_ptr().add(i).cast::<__m256i>());
                acc = _mm256_xor_si256(acc, v);
            }
            _mm256_storeu_si256(d.add(i).cast::<__m256i>(), acc);
        }
        i += 32;
    }
    for (j, db) in dst[n..].iter_mut().enumerate() {
        for s in srcs {
            *db ^= s[n + j];
        }
    }
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

fn addmul_avx2(dst: &mut [u8], src: &[u8], c: u8) {
    // SAFETY: roster containment, as in `xor_avx2`.
    unsafe { addmul_avx2_impl(dst, src, c) }
}

/// # Safety
/// Caller must be compiled with (and the CPU support) `avx2`; `dst` and
/// `src` must have equal lengths (the `Kernels` wrappers assert this).
#[target_feature(enable = "avx2")]
unsafe fn addmul_avx2_impl(dst: &mut [u8], src: &[u8], c: u8) {
    let n = dst.len() / 32 * 32;
    let d = dst.as_mut_ptr();
    let s = src.as_ptr();
    // SAFETY: bounds as in `xor_avx2_impl`.
    unsafe {
        let (lo, hi) = tables32(c);
        let mask = _mm256_set1_epi8(0x0F);
        let mut i = 0;
        while i < n {
            let x = _mm256_loadu_si256(s.add(i).cast::<__m256i>());
            let p = mul32b(x, lo, hi, mask);
            let dv = _mm256_loadu_si256(d.add(i).cast::<__m256i>());
            _mm256_storeu_si256(d.add(i).cast::<__m256i>(), _mm256_xor_si256(dv, p));
            i += 32;
        }
    }
    super::addmul_tail(&mut dst[n..], &src[n..], c);
}

fn mul_avx2(dst: &mut [u8], c: u8) {
    // SAFETY: roster containment, as in `xor_avx2`.
    unsafe { mul_avx2_impl(dst, c) }
}

/// # Safety
/// Caller must be compiled with (and the CPU support) `avx2`.
#[target_feature(enable = "avx2")]
unsafe fn mul_avx2_impl(dst: &mut [u8], c: u8) {
    let n = dst.len() / 32 * 32;
    let d = dst.as_mut_ptr();
    // SAFETY: bounds as in `xor_avx2_impl`.
    unsafe {
        let (lo, hi) = tables32(c);
        let mask = _mm256_set1_epi8(0x0F);
        let mut i = 0;
        while i < n {
            let x = _mm256_loadu_si256(d.add(i).cast::<__m256i>());
            _mm256_storeu_si256(d.add(i).cast::<__m256i>(), mul32b(x, lo, hi, mask));
            i += 32;
        }
    }
    let row = &crate::tables::MUL[c as usize];
    for b in &mut dst[n..] {
        *b = row[*b as usize];
    }
}

fn addmul_rows_avx2(outs: &mut [&mut [u8]], srcs: &[&[u8]], coeffs: &[u8]) {
    super::each_row(outs, srcs, coeffs, addmul_many_avx2);
}

fn addmul_many_avx2(dst: &mut [u8], srcs: &[&[u8]], coeffs: &[u8]) {
    // SAFETY: roster containment, as in `xor_avx2`.
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
        for (s, &c) in srcs.iter().zip(coeffs) {
            match c {
                0 => {}
                _ => addmul_avx2_impl(&mut dst[n..], &s[n..], c),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 512-bit lanes (GFNI affine multiplies; XOR entries are AVX2's).
// ---------------------------------------------------------------------------

fn addmul_gfni(dst: &mut [u8], src: &[u8], c: u8) {
    // SAFETY: roster containment — registered only after
    // `is_x86_feature_detected!` confirmed `gfni`, `avx512f` and `avx512bw`.
    unsafe { addmul_gfni_impl(dst, src, c) }
}

/// # Safety
/// Caller must be compiled with (and the CPU support) `gfni`, `avx512f`
/// and `avx512bw`; `dst` and `src` must have equal lengths (the `Kernels`
/// wrappers assert this).
#[target_feature(enable = "gfni,avx512f,avx512bw")]
unsafe fn addmul_gfni_impl(dst: &mut [u8], src: &[u8], c: u8) {
    let n = dst.len() / 64 * 64;
    let d = dst.as_mut_ptr();
    let s = src.as_ptr();
    // SAFETY: `i + 64 <= n <= len` for both slices; unaligned ops.
    unsafe {
        let a = _mm512_set1_epi64(MUL_AFFINE[c as usize] as i64);
        let mut i = 0;
        while i < n {
            let x = _mm512_loadu_si512(s.add(i).cast::<__m512i>());
            let p = _mm512_gf2p8affine_epi64_epi8::<0>(x, a);
            let dv = _mm512_loadu_si512(d.add(i).cast::<__m512i>());
            _mm512_storeu_si512(d.add(i).cast::<__m512i>(), _mm512_xor_si512(dv, p));
            i += 64;
        }
    }
    super::addmul_tail(&mut dst[n..], &src[n..], c);
}

fn mul_gfni(dst: &mut [u8], c: u8) {
    // SAFETY: roster containment, as in `addmul_gfni`.
    unsafe { mul_gfni_impl(dst, c) }
}

/// # Safety
/// Caller must be compiled with (and the CPU support) `gfni`, `avx512f`
/// and `avx512bw`.
#[target_feature(enable = "gfni,avx512f,avx512bw")]
unsafe fn mul_gfni_impl(dst: &mut [u8], c: u8) {
    let n = dst.len() / 64 * 64;
    let d = dst.as_mut_ptr();
    // SAFETY: bounds as in `addmul_gfni_impl`.
    unsafe {
        let a = _mm512_set1_epi64(MUL_AFFINE[c as usize] as i64);
        let mut i = 0;
        while i < n {
            let x = _mm512_loadu_si512(d.add(i).cast::<__m512i>());
            let p = _mm512_gf2p8affine_epi64_epi8::<0>(x, a);
            _mm512_storeu_si512(d.add(i).cast::<__m512i>(), p);
            i += 64;
        }
    }
    let row = &crate::tables::MUL[c as usize];
    for b in &mut dst[n..] {
        *b = row[*b as usize];
    }
}

/// Rows one `gfni` pass carries. Eight rows of two 64-byte accumulators,
/// two source tiles and a matrix keep about 20 of the 32 zmm registers
/// live; a third tile per row would leave too few to hold them all.
const GFNI_ROWS: usize = 8;

fn addmul_rows_gfni(outs: &mut [&mut [u8]], srcs: &[&[u8]], coeffs: &[u8]) {
    let m = srcs.len();
    for (group, coeffs) in outs.chunks_mut(GFNI_ROWS).zip(coeffs.chunks(GFNI_ROWS * m)) {
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
        for (out, row) in group.iter_mut().zip(coeffs.chunks_exact(m)) {
            for (s, &c) in srcs.iter().zip(row) {
                super::addmul_tail(&mut out[done..], &s[done..], c);
            }
        }
    }
}

/// Applies `R` rows to every whole 64-byte tile; returns the length they
/// cover.
fn tiles_gfni<const R: usize>(outs: &mut [&mut [u8]], srcs: &[&[u8]], coeffs: &[u8]) -> usize {
    let len = outs[0].len();
    let d: [*mut u8; R] = core::array::from_fn(|r| outs[r].as_mut_ptr());
    // SAFETY: roster containment, as in `addmul_gfni`. `outs` holds
    // exactly `R` rows (`addmul_rows_gfni` picks `R` from its length) and
    // `coeffs` holds `R` rows of `srcs.len()`; every row and source is
    // `len` bytes long (wrapper assertions).
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
    let rows: [&[u8]; R] = core::array::from_fn(|r| &coeffs[r * m..][..m]);
    while i + 64 * T <= len {
        // SAFETY: `i + 64 * T <= len` bounds every load and store (the
        // function's contract); unaligned ops. Each source tile is loaded
        // once and multiplied into all `R` rows while it is in registers.
        unsafe {
            let mut acc = [[_mm512_setzero_si512(); T]; R];
            for (tiles, &row) in acc.iter_mut().zip(&d) {
                for (t, a) in tiles.iter_mut().enumerate() {
                    *a = _mm512_loadu_si512(row.add(i + 64 * t).cast::<__m512i>());
                }
            }
            for (j, s) in srcs.iter().enumerate() {
                let p = s.as_ptr().add(i);
                let mut x = [_mm512_setzero_si512(); T];
                for (t, x) in x.iter_mut().enumerate() {
                    *x = _mm512_loadu_si512(p.add(64 * t).cast::<__m512i>());
                }
                for (tiles, row) in acc.iter_mut().zip(&rows) {
                    let c = _mm512_set1_epi64(MUL_AFFINE[row[j] as usize] as i64);
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
