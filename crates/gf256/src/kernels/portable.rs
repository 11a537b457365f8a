//! The safe `u64`-lane backend: available on every architecture.
//!
//! XOR is widened to eight bytes per operation (`chunks_exact` keeps the
//! bounds checks out of the loop and lets the compiler auto-vectorise
//! further on targets where the dedicated SIMD backends are absent). The
//! multiply kernels stay table-driven — a byte-indexed gather cannot be
//! widened without shuffles — but unroll the lookups and, in the fused
//! variants, keep the destination chunk in a local buffer so it is
//! loaded and stored once per row instead of once per source.

use crate::tables::MUL;

const LANE: usize = 8;

#[inline]
fn lane_split(len: usize) -> usize {
    len / LANE * LANE
}

pub(super) fn xor(dst: &mut [u8], src: &[u8]) {
    let n = lane_split(dst.len());
    let (dst_main, dst_tail) = dst.split_at_mut(n);
    let (src_main, src_tail) = src.split_at(n);
    for (d, s) in dst_main
        .chunks_exact_mut(LANE)
        .zip(src_main.chunks_exact(LANE))
    {
        let mut x = u64::from_ne_bytes(d.try_into().expect("exact chunk"));
        x ^= u64::from_ne_bytes(s.try_into().expect("exact chunk"));
        d.copy_from_slice(&x.to_ne_bytes());
    }
    for (d, s) in dst_tail.iter_mut().zip(src_tail) {
        *d ^= s;
    }
}

pub(super) fn mul(dst: &mut [u8], c: u8) {
    let row = &MUL[c as usize];
    let n = lane_split(dst.len());
    let (main, tail) = dst.split_at_mut(n);
    for d in main.chunks_exact_mut(LANE) {
        for b in d {
            *b = row[*b as usize];
        }
    }
    for b in tail {
        *b = row[*b as usize];
    }
}

pub(super) fn addmul(dst: &mut [u8], src: &[u8], c: u8) {
    let row = &MUL[c as usize];
    let n = lane_split(dst.len());
    let (dst_main, dst_tail) = dst.split_at_mut(n);
    let (src_main, src_tail) = src.split_at(n);
    for (d, s) in dst_main
        .chunks_exact_mut(LANE)
        .zip(src_main.chunks_exact(LANE))
    {
        for (b, x) in d.iter_mut().zip(s) {
            *b ^= row[*x as usize];
        }
    }
    super::addmul_tail(dst_tail, src_tail, c);
}

pub(super) fn xor_many(dst: &mut [u8], srcs: &[&[u8]]) {
    // As with `addmul_many`: without wide registers the fused inner loop
    // costs more in bounds-checked indexing than it saves in `dst`
    // traffic, so each source takes one widened pass.
    for s in srcs {
        xor(dst, s);
    }
}

pub(super) fn addmul_rows(outs: &mut [&mut [u8]], srcs: &[&[u8]], coeffs: &[u8]) {
    super::each_row(outs, srcs, coeffs, addmul_many);
}

fn addmul_many(dst: &mut [u8], srcs: &[&[u8]], coeffs: &[u8]) {
    // Without byte shuffles there is nothing to amortise across sources —
    // the table gathers dominate and a per-chunk accumulator only gets in
    // the optimizer's way — so the portable fused form is the plain
    // source loop over the widened single-source kernels.
    for (s, &c) in srcs.iter().zip(coeffs) {
        match c {
            0 => {}
            1 => xor(dst, s),
            _ => addmul(dst, s, c),
        }
    }
}
