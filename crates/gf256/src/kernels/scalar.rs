//! The byte-at-a-time reference backend.
//!
//! This is the ground truth every other backend is differentially tested
//! against, and the baseline the kernel ablation bench reports speedups
//! over. The XOR loop routes each source byte through
//! [`core::hint::black_box`] so the compiler cannot auto-vectorise it
//! back into SIMD — without the barrier, LLVM turns the "scalar" loop
//! into AVX2 code and the reference stops measuring what a per-byte
//! implementation costs. Multiply kernels need no barrier: their
//! byte-indexed table gathers do not auto-vectorise.

fn xor(dst: &mut [u8], src: &[u8]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= core::hint::black_box(*s);
    }
}

pub(super) fn xor_many(dst: &mut [u8], srcs: &[&[u8]]) {
    for src in srcs {
        xor(dst, src);
    }
}

pub(super) fn addmul_rows(outs: &mut [&mut [u8]], srcs: &[&[u8]], coeffs: &[u8]) {
    super::each_row(outs, srcs, coeffs, addmul_many);
}

fn addmul_many(dst: &mut [u8], srcs: &[&[u8]], coeffs: &[u8]) {
    for (src, &c) in srcs.iter().zip(coeffs) {
        match c {
            0 => {}
            1 => xor(dst, src),
            _ => super::addmul_tail(dst, src, c),
        }
    }
}
