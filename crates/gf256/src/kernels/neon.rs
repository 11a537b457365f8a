//! aarch64 NEON backend: 16-byte XOR lanes and `vqtbl1q` split-nibble
//! GF(2⁸) multiplies (the `MUL_NIBBLES` halves are exactly one table
//! lookup register each).
//!
//! NEON is part of the aarch64 baseline, but registration still goes
//! through `is_aarch64_feature_detected!` so the roster-containment
//! safety argument reads identically to the x86 module.

#![allow(unsafe_code)]

use std::arch::aarch64::*;
use std::arch::is_aarch64_feature_detected;

use super::Kernels;
use crate::tables::MUL_NIBBLES;

static NEON: Kernels = Kernels {
    name: "neon",
    xor: xor_neon,
    mul: mul_neon,
    addmul: addmul_neon,
    xor_many: xor_many_neon,
    addmul_rows: addmul_rows_neon,
};

/// Appends the NEON backend when the host supports it.
pub(super) fn append_detected(list: &mut Vec<&'static Kernels>) {
    if is_aarch64_feature_detected!("neon") {
        list.push(&NEON);
    }
}

fn xor_neon(dst: &mut [u8], src: &[u8]) {
    // SAFETY: this backend is only reachable through the roster, which
    // `append_detected` populates after `is_aarch64_feature_detected!`
    // confirmed NEON support.
    unsafe { xor_neon_impl(dst, src) }
}

/// # Safety
/// Caller must be compiled with (and the CPU support) `neon`; `dst` and
/// `src` must have equal lengths (the `Kernels` wrappers assert this).
#[target_feature(enable = "neon")]
unsafe fn xor_neon_impl(dst: &mut [u8], src: &[u8]) {
    let n = dst.len() / 16 * 16;
    let d = dst.as_mut_ptr();
    let s = src.as_ptr();
    let mut i = 0;
    while i < n {
        // SAFETY: `i + 16 <= n <= len` for both slices; NEON loads and
        // stores are unaligned-tolerant.
        unsafe {
            let a = vld1q_u8(d.add(i));
            let b = vld1q_u8(s.add(i));
            vst1q_u8(d.add(i), veorq_u8(a, b));
        }
        i += 16;
    }
    for (db, sb) in dst[n..].iter_mut().zip(&src[n..]) {
        *db ^= sb;
    }
}

fn xor_many_neon(dst: &mut [u8], srcs: &[&[u8]]) {
    // SAFETY: roster containment, as in `xor_neon`.
    unsafe { xor_many_neon_impl(dst, srcs) }
}

/// # Safety
/// Caller must be compiled with (and the CPU support) `neon`; every
/// source must have `dst`'s length (asserted by `Kernels::xor_acc_many`).
#[target_feature(enable = "neon")]
unsafe fn xor_many_neon_impl(dst: &mut [u8], srcs: &[&[u8]]) {
    let n = dst.len() / 16 * 16;
    let d = dst.as_mut_ptr();
    let mut i = 0;
    while i < n {
        // SAFETY: `i + 16 <= n`; every source has `dst`'s length
        // (asserted by the `Kernels::xor_acc_many` wrapper).
        unsafe {
            let mut acc = vld1q_u8(d.add(i));
            for s in srcs {
                acc = veorq_u8(acc, vld1q_u8(s.as_ptr().add(i)));
            }
            vst1q_u8(d.add(i), acc);
        }
        i += 16;
    }
    for (j, db) in dst[n..].iter_mut().enumerate() {
        for s in srcs {
            *db ^= s[n + j];
        }
    }
}

/// Multiplies one 16-byte vector by a constant via two table lookups.
///
/// # Safety
/// Caller must be compiled with (and the CPU support) `neon`.
#[inline]
#[target_feature(enable = "neon")]
unsafe fn mul16b(x: uint8x16_t, lo: uint8x16_t, hi: uint8x16_t) -> uint8x16_t {
    // Pure register arithmetic: these intrinsics are safe inside a
    // `#[target_feature(enable = "neon")]` function. `vshrq_n_u8`
    // zero-extends, so no nibble mask is needed on the high half.
    let pl = vqtbl1q_u8(lo, vandq_u8(x, vdupq_n_u8(0x0F)));
    let ph = vqtbl1q_u8(hi, vshrq_n_u8(x, 4));
    veorq_u8(pl, ph)
}

fn addmul_neon(dst: &mut [u8], src: &[u8], c: u8) {
    // SAFETY: roster containment, as in `xor_neon`.
    unsafe { addmul_neon_impl(dst, src, c) }
}

/// # Safety
/// Caller must be compiled with (and the CPU support) `neon`; `dst` and
/// `src` must have equal lengths (the `Kernels` wrappers assert this).
#[target_feature(enable = "neon")]
unsafe fn addmul_neon_impl(dst: &mut [u8], src: &[u8], c: u8) {
    let tab = MUL_NIBBLES[c as usize].as_ptr();
    let n = dst.len() / 16 * 16;
    let d = dst.as_mut_ptr();
    let s = src.as_ptr();
    // SAFETY: the nibble table row is 32 bytes (two 16-byte halves);
    // slice bounds as in `xor_neon_impl`.
    unsafe {
        let lo = vld1q_u8(tab);
        let hi = vld1q_u8(tab.add(16));
        let mut i = 0;
        while i < n {
            let x = vld1q_u8(s.add(i));
            let p = mul16b(x, lo, hi);
            vst1q_u8(d.add(i), veorq_u8(vld1q_u8(d.add(i)), p));
            i += 16;
        }
    }
    super::addmul_tail(&mut dst[n..], &src[n..], c);
}

fn mul_neon(dst: &mut [u8], c: u8) {
    // SAFETY: roster containment, as in `xor_neon`.
    unsafe { mul_neon_impl(dst, c) }
}

/// # Safety
/// Caller must be compiled with (and the CPU support) `neon`.
#[target_feature(enable = "neon")]
unsafe fn mul_neon_impl(dst: &mut [u8], c: u8) {
    let tab = MUL_NIBBLES[c as usize].as_ptr();
    let n = dst.len() / 16 * 16;
    let d = dst.as_mut_ptr();
    // SAFETY: as in `addmul_neon_impl`.
    unsafe {
        let lo = vld1q_u8(tab);
        let hi = vld1q_u8(tab.add(16));
        let mut i = 0;
        while i < n {
            let x = vld1q_u8(d.add(i));
            vst1q_u8(d.add(i), mul16b(x, lo, hi));
            i += 16;
        }
    }
    let row = &crate::tables::MUL[c as usize];
    for b in &mut dst[n..] {
        *b = row[*b as usize];
    }
}

fn addmul_rows_neon(outs: &mut [&mut [u8]], srcs: &[&[u8]], coeffs: &[u8]) {
    super::each_row(outs, srcs, coeffs, addmul_many_neon);
}

fn addmul_many_neon(dst: &mut [u8], srcs: &[&[u8]], coeffs: &[u8]) {
    // SAFETY: roster containment, as in `xor_neon`.
    unsafe { addmul_many_neon_impl(dst, srcs, coeffs) }
}

/// # Safety
/// Caller must be compiled with (and the CPU support) `neon`; every
/// source must have `dst`'s length and `coeffs` must have `srcs`'s
/// length (asserted by `Kernels::addmul_rows`).
#[target_feature(enable = "neon")]
unsafe fn addmul_many_neon_impl(dst: &mut [u8], srcs: &[&[u8]], coeffs: &[u8]) {
    let n = dst.len() / 64 * 64;
    let d = dst.as_mut_ptr();
    // SAFETY: 64-byte blocks stay inside `n`; sources share `dst`'s
    // length (wrapper assertion).
    unsafe {
        let mut i = 0;
        while i < n {
            let mut a0 = vld1q_u8(d.add(i));
            let mut a1 = vld1q_u8(d.add(i + 16));
            let mut a2 = vld1q_u8(d.add(i + 32));
            let mut a3 = vld1q_u8(d.add(i + 48));
            for (s, &c) in srcs.iter().zip(coeffs) {
                if c == 0 {
                    continue;
                }
                let p = s.as_ptr().add(i);
                let x0 = vld1q_u8(p);
                let x1 = vld1q_u8(p.add(16));
                let x2 = vld1q_u8(p.add(32));
                let x3 = vld1q_u8(p.add(48));
                if c == 1 {
                    a0 = veorq_u8(a0, x0);
                    a1 = veorq_u8(a1, x1);
                    a2 = veorq_u8(a2, x2);
                    a3 = veorq_u8(a3, x3);
                } else {
                    let tab = MUL_NIBBLES[c as usize].as_ptr();
                    let lo = vld1q_u8(tab);
                    let hi = vld1q_u8(tab.add(16));
                    a0 = veorq_u8(a0, mul16b(x0, lo, hi));
                    a1 = veorq_u8(a1, mul16b(x1, lo, hi));
                    a2 = veorq_u8(a2, mul16b(x2, lo, hi));
                    a3 = veorq_u8(a3, mul16b(x3, lo, hi));
                }
            }
            vst1q_u8(d.add(i), a0);
            vst1q_u8(d.add(i + 16), a1);
            vst1q_u8(d.add(i + 32), a2);
            vst1q_u8(d.add(i + 48), a3);
            i += 64;
        }
        for (s, &c) in srcs.iter().zip(coeffs) {
            match c {
                0 => {}
                _ => addmul_neon_impl(&mut dst[n..], &s[n..], c),
            }
        }
    }
}
