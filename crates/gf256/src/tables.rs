//! Compile-time lookup tables for GF(2^8).
//!
//! All tables are produced by `const fn` evaluation, so they live in `.rodata`
//! and cost nothing at runtime. The field is generated by `alpha = 2` over the
//! primitive polynomial `x^8 + x^4 + x^3 + x^2 + 1` (`0x11D`).

/// The primitive polynomial, with the implicit `x^8` term in bit 8.
const PRIMITIVE_POLY: u16 = 0x11D;

/// `EXP[i] = alpha^i` for `i in 0..255`, duplicated over `255..510` so that
/// `EXP[log(a) + log(b)]` never needs a modulo reduction (the sum is at most
/// `254 + 254 = 508`).
pub const EXP: [u8; 512] = build_exp();

/// `LOG[x] = i` such that `alpha^i = x`, for non-zero `x`. `LOG[0]` is a
/// sentinel (`0xFFFF`) — callers must check for zero before indexing.
pub const LOG: [u16; 256] = build_log();

/// Full 256x256 multiplication table (64 KiB). `MUL[a][b] = a * b` in the
/// field. This is the backing store of the payload kernels: multiplying a
/// packet by a constant `c` is a single row lookup per byte.
pub static MUL: [[u8; 256]; 256] = build_mul();

/// `INV[x] = x^-1` for non-zero `x`; `INV[0] = 0` (never valid, checked by
/// callers in debug builds).
pub const INV: [u8; 256] = build_inv();

/// Split-nibble multiplication tables (8 KiB), the layout shuffle-SIMD
/// kernels want: for each constant `c`, `MUL_NIBBLES[c][x]` for `x < 16`
/// is `c * x` (low-nibble products) and `MUL_NIBBLES[c][16 + x]` is
/// `c * (x << 4)` (high-nibble products), so
/// `c * b = MUL_NIBBLES[c][b & 0xF] ^ MUL_NIBBLES[c][16 + (b >> 4)]`.
///
/// Each half is exactly one 16-byte shuffle table (`pshufb` / `vqtbl1q`),
/// and the same split drives the portable and scalar fallbacks so every
/// backend multiplies through identical tables.
pub static MUL_NIBBLES: [[u8; 32]; 256] = build_mul_nibbles();

/// Multiplication by each constant as an 8x8 bit matrix (2 KiB), the
/// operand layout of the GFNI affine instruction (`vgf2p8affineqb`):
/// byte `7 - i` of `MUL_AFFINE[c]` is row `i`, and bit `j` of that row is
/// bit `i` of `c * 2^j`. So bit `i` of `c * b` is the parity of
/// `row_i & b`. (`vgf2p8mulb` cannot be used instead: it is fixed to the
/// polynomial `0x11B`, and this field is `0x11D`.)
pub static MUL_AFFINE: [u64; 256] = build_mul_affine();

const fn build_exp() -> [u8; 512] {
    let mut exp = [0u8; 512];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        exp[i + 255] = x as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= PRIMITIVE_POLY;
        }
        i += 1;
    }
    // Two final padding entries so indexes up to 511 stay in bounds; they are
    // the continuation of the cycle (alpha^510 = alpha^0, alpha^511 = alpha^1).
    exp[510] = exp[0];
    exp[511] = exp[1];
    exp
}

const fn build_log() -> [u16; 256] {
    let exp = build_exp();
    let mut log = [0xFFFFu16; 256];
    let mut i = 0;
    while i < 255 {
        log[exp[i] as usize] = i as u16;
        i += 1;
    }
    log
}

const fn mul_slow(a: u8, b: u8) -> u8 {
    // Russian-peasant multiplication; only used at compile time to build MUL.
    let mut a = a as u16;
    let mut b = b as u16;
    let mut acc: u16 = 0;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a <<= 1;
        if a & 0x100 != 0 {
            a ^= PRIMITIVE_POLY;
        }
        b >>= 1;
    }
    acc as u8
}

const fn build_mul() -> [[u8; 256]; 256] {
    let mut t = [[0u8; 256]; 256];
    let mut a = 0;
    while a < 256 {
        let mut b = 0;
        while b < 256 {
            t[a][b] = mul_slow(a as u8, b as u8);
            b += 1;
        }
        a += 1;
    }
    t
}

const fn build_mul_nibbles() -> [[u8; 32]; 256] {
    let mut t = [[0u8; 32]; 256];
    let mut c = 0;
    while c < 256 {
        let mut x = 0;
        while x < 16 {
            t[c][x] = mul_slow(c as u8, x as u8);
            t[c][16 + x] = mul_slow(c as u8, (x << 4) as u8);
            x += 1;
        }
        c += 1;
    }
    t
}

const fn build_mul_affine() -> [u64; 256] {
    let mut t = [0u64; 256];
    let mut c = 0;
    while c < 256 {
        let mut j = 0;
        while j < 8 {
            // Column `j` of the matrix is `c * 2^j`.
            let column = mul_slow(c as u8, 1 << j);
            let mut i = 0;
            while i < 8 {
                if (column >> i) & 1 != 0 {
                    t[c] |= 1u64 << ((7 - i) * 8 + j);
                }
                i += 1;
            }
            j += 1;
        }
        c += 1;
    }
    t
}

const fn build_inv() -> [u8; 256] {
    let exp = build_exp();
    let log = build_log();
    let mut inv = [0u8; 256];
    let mut x = 1;
    while x < 256 {
        // x^-1 = alpha^(255 - log(x))
        let l = log[x] as usize;
        inv[x] = exp[(255 - l) % 255];
        x += 1;
    }
    inv
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    #[test]
    fn exp_log_roundtrip() {
        for i in 0..255usize {
            let x = EXP[i];
            assert_eq!(LOG[x as usize] as usize, i, "log(exp({i}))");
        }
        for x in 1..256usize {
            let l = LOG[x] as usize;
            assert_eq!(EXP[l] as usize, x, "exp(log({x}))");
        }
    }

    #[test]
    fn exp_is_duplicated_for_overflow_free_indexing() {
        for i in 0..255 {
            assert_eq!(EXP[i], EXP[i + 255]);
        }
    }

    #[test]
    fn log_zero_is_sentinel() {
        assert_eq!(LOG[0], 0xFFFF);
    }

    #[test]
    fn alpha_is_primitive() {
        // alpha = 2 must generate all 255 non-zero elements.
        let mut seen = [false; 256];
        for i in 0..255 {
            let x = EXP[i] as usize;
            assert!(!seen[x], "alpha^{i} repeats element {x}");
            seen[x] = true;
        }
        assert!(!seen[0], "zero is not a power of alpha");
    }

    #[test]
    fn mul_table_matches_exp_log() {
        for a in 1..256usize {
            for b in 1..256usize {
                let via_log = EXP[(LOG[a] + LOG[b]) as usize];
                assert_eq!(MUL[a][b], via_log);
            }
        }
    }

    #[test]
    fn mul_by_zero_and_one() {
        for a in 0..256usize {
            assert_eq!(MUL[a][0], 0);
            assert_eq!(MUL[0][a], 0);
            assert_eq!(MUL[a][1], a as u8);
            assert_eq!(MUL[1][a], a as u8);
        }
    }

    #[test]
    fn nibble_split_reconstructs_full_products() {
        for c in 0..256usize {
            for b in 0..256usize {
                let lo = MUL_NIBBLES[c][b & 0xF];
                let hi = MUL_NIBBLES[c][16 + (b >> 4)];
                assert_eq!(lo ^ hi, MUL[c][b], "c = {c}, b = {b}");
            }
        }
    }

    #[test]
    fn affine_matrices_reproduce_mul() {
        // Apply each matrix the way the instruction defines it: bit `i` of
        // the product is the parity of byte `7 - i` ANDed with the input.
        for c in 0..256usize {
            let bytes = MUL_AFFINE[c].to_le_bytes();
            for b in 0..256usize {
                let mut product = 0u8;
                for i in 0..8 {
                    let parity = (bytes[7 - i] & b as u8).count_ones() as u8 & 1;
                    product |= parity << i;
                }
                assert_eq!(product, MUL[c][b], "c = {c}, b = {b}");
            }
        }
    }

    #[test]
    fn inv_table_is_correct() {
        assert_eq!(INV[1], 1);
        for x in 1..256usize {
            assert_eq!(MUL[x][INV[x] as usize], 1, "x * x^-1 for x = {x}");
        }
    }
}
