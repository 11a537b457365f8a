//! A self-contained Park-Miller "minimal standard" PRNG.
//!
//! LDGM matrix construction must be *bit-identical* on sender and receiver
//! given only a seed carried in session metadata — so it cannot depend on a
//! third-party RNG whose stream may change between library versions.
//! RFC 5170 solves this the same way (its `rand31pmc`); we use the classic
//! Lehmer generator with Park-Miller constants: `x' = 16807 * x mod (2^31-1)`.
//!
//! This PRNG is **only** for matrix construction. Simulation-level
//! randomness (channel draws, schedule shuffles) uses `rand::SmallRng`,
//! which is free to evolve.

/// Modulus `2^31 - 1` (a Mersenne prime).
pub const M: u64 = 0x7FFF_FFFF;
/// Multiplier 16807 (a primitive root mod M).
pub const A: u64 = 16807;

/// Park-Miller minimal standard linear congruential generator.
///
/// The state is always in `1..M`; the zero/M seeds are remapped so every
/// `u64` is a valid seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmRand {
    state: u64,
}

impl PmRand {
    /// Creates a generator from any 64-bit seed.
    pub fn new(seed: u64) -> PmRand {
        // Fold the 64-bit seed into 1..M. The +1 keeps 0 (and multiples of M)
        // out of the fixed point at zero.
        let folded = seed % (M - 1) + 1;
        PmRand { state: folded }
    }

    /// Next raw value in `1..M`.
    #[inline]
    pub fn next_raw(&mut self) -> u32 {
        // `x mod (2^31 - 1)` without a division: 2^31 ≡ 1, so the high
        // bits fold onto the low ones. `x < 2^46`, so one fold leaves a
        // value below 2M, and `x` is never a multiple of M.
        let x = self.state * A;
        let folded = (x & M) + (x >> 31);
        self.state = if folded >= M { folded - M } else { folded };
        self.state as u32
    }

    /// Uniform value in `0..bound` (rejection-sampled, so unbiased).
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "PmRand::below(0)");
        loop {
            let v = self.next_raw() - 1; // 0..M-1
            let r = v % bound;
            // Accept `v` iff its whole block `[v - r, v - r + bound)` fits
            // in the M-1 raw values `0..M-1`: exactly the draws below the
            // largest multiple of `bound` in range, with one division.
            if u64::from(v - r) + u64::from(bound) < M {
                return r;
            }
        }
    }

    /// Fisher-Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u32 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// Reference step: the textbook `% M`.
    fn next_raw_mod(state: &mut u64) -> u32 {
        *state = (*state * A) % M;
        *state as u32
    }

    /// Reference `below`: the two-division form (the limit, then the
    /// residue) the one-division acceptance test must agree with draw for
    /// draw.
    fn below_two_divisions(state: &mut u64, bound: u32) -> u32 {
        let range = (M - 1) as u32;
        let limit = range - range % bound;
        loop {
            let v = next_raw_mod(state) - 1;
            if v < limit {
                return v % bound;
            }
        }
    }

    /// `A · A_INV ≡ 1 (mod M)`.
    const A_INV: u64 = 1_407_677_000;

    /// Edge states, random states, and states whose next state `t` is
    /// small: there the fold lands at `t + M` and its final subtraction
    /// matters (a few in a million random states do).
    fn random_states(count: usize) -> Vec<u64> {
        assert_eq!(A * A_INV % M, 1);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x0F01D);
        let mut states = vec![1, 2, A, M / 2, M / 2 + 1, M - 2, M - 1];
        states.extend((1..=64).map(|t| t * A_INV % M));
        states.extend((0..count).map(|_| rng.gen_range(1..M)));
        states
    }

    #[test]
    fn fold_equals_mod_m() {
        for state in random_states(200_000) {
            let mut fast = PmRand { state };
            let mut reference = state;
            assert_eq!(
                fast.next_raw(),
                next_raw_mod(&mut reference),
                "state {state}"
            );
            assert_eq!(fast.state, reference);
        }
    }

    #[test]
    fn one_division_below_equals_two_division_below() {
        let range = (M - 1) as u32;
        // 1, 2 and 3 are the smallest bounds; M - 2 rejects one raw value
        // and range / 2 + 1 rejects almost half, so the loop is exercised.
        let mut bounds = vec![1, 2, 3, 7, 1000, range / 2 + 1, range - 1, range];
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xB0B);
        bounds.extend((0..32).map(|_| rng.gen_range(1..=range)));
        for &bound in &bounds {
            for state in random_states(200) {
                let mut fast = PmRand { state };
                let mut reference = state;
                for _ in 0..16 {
                    assert_eq!(
                        fast.below(bound),
                        below_two_divisions(&mut reference, bound),
                        "bound {bound}, state {state}"
                    );
                }
                assert_eq!(fast.state, reference, "same draws consumed");
            }
        }
    }

    #[test]
    fn known_park_miller_sequence() {
        // The canonical check: starting from seed 1, the 10000th value of the
        // minimal standard generator is 1043618065 (Park & Miller, 1988).
        let mut r = PmRand { state: 1 };
        let mut v = 0;
        for _ in 0..10_000 {
            v = r.next_raw();
        }
        assert_eq!(v, 1_043_618_065);
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = PmRand::new(0xDEADBEEF);
        let mut b = PmRand::new(0xDEADBEEF);
        for _ in 0..100 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    #[test]
    fn zero_seed_is_valid() {
        let mut r = PmRand::new(0);
        // Must not get stuck at zero.
        let a = r.next_raw();
        let b = r.next_raw();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = PmRand::new(42);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = r.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        PmRand::new(1).below(0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = PmRand::new(7);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(xs, (0..50).collect::<Vec<u32>>(), "shuffle changed order");
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = PmRand::new(12345);
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.below(10) as usize] += 1;
        }
        for &c in &counts {
            // Expected 10000; allow +-5% (way beyond 5 sigma for a fair RNG).
            assert!((9_500..=10_500).contains(&c), "bucket count {c}");
        }
    }
}
