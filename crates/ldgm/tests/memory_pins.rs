//! §7's memory metric, pinned: [`MemoryStats`] counts the symbols the
//! peeling decoder must hold, not the allocations behind them, so a change
//! of storage must leave every figure here where it was.
//!
//! Each case is `(right side, matrix seed, arrival order)` at k = 200,
//! n = 300; the figures were recorded with the one-buffer-per-symbol store
//! this crate shipped before its object buffer and accumulator slots. The
//! `ShuffledMl` peaks include `try_complete`'s payload pass, and three of
//! them were re-recorded when the inactivation engine replaced the dense
//! elimination (its injection order holds fewer symbols at once).

use std::sync::Arc;

use fec_ldgm::RightSide::{self, Identity, Staircase, Triangle};
use fec_ldgm::{ml_necessary, Decoder, Encoder, LdgmParams, MemoryStats, SparseMatrix};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const K: usize = 200;
const N: usize = 300;
const SYM: usize = 8;

#[derive(Debug, Clone, Copy)]
enum Order {
    /// Sources `0..k`, then parity.
    SourceFirst,
    /// Parity `k..n`, then sources.
    ParityFirst,
    /// A seeded shuffle of all `n`.
    Shuffled,
    /// The shuffle's shortest decodable prefix, finished by
    /// `try_complete`.
    ShuffledMl,
}
use Order::*;

/// `(right side, matrix seed, order, peak_symbols, trajectory)`, where
/// the trajectory is `current_symbols` summed over every arrival.
#[rustfmt::skip]
const PINNED: &[(RightSide, u64, Order, usize, usize)] = &[
    (Identity, 0x1, SourceFirst, 238, 34437),
    (Identity, 0x1, ParityFirst, 210, 23096),
    (Identity, 0x1, Shuffled, 218, 39563),
    (Identity, 0x1, ShuffledMl, 218, 39563),
    (Identity, 0xdeadbeef, SourceFirst, 241, 34593),
    (Identity, 0xdeadbeef, ParityFirst, 211, 23942),
    (Identity, 0xdeadbeef, Shuffled, 218, 37290),
    (Identity, 0xdeadbeef, ShuffledMl, 218, 37290),
    (Staircase, 0x1, SourceFirst, 299, 37196),
    (Staircase, 0x1, ParityFirst, 210, 23195),
    (Staircase, 0x1, Shuffled, 227, 34355),
    (Staircase, 0x1, ShuffledMl, 225, 32355),
    (Staircase, 0xdeadbeef, SourceFirst, 291, 37136),
    (Staircase, 0xdeadbeef, ParityFirst, 211, 24041),
    (Staircase, 0xdeadbeef, Shuffled, 222, 31726),
    (Staircase, 0xdeadbeef, ShuffledMl, 221, 30865),
    (Triangle, 0x1, SourceFirst, 299, 37196),
    (Triangle, 0x1, ParityFirst, 210, 25720),
    (Triangle, 0x1, Shuffled, 234, 35256),
    (Triangle, 0x1, ShuffledMl, 231, 33433),
    (Triangle, 0xdeadbeef, SourceFirst, 291, 37136),
    (Triangle, 0xdeadbeef, ParityFirst, 211, 26587),
    (Triangle, 0xdeadbeef, Shuffled, 233, 33411),
    (Triangle, 0xdeadbeef, ShuffledMl, 229, 31148),
];

/// The final stats and the trajectory sum of one case.
fn run(right: RightSide, seed: u64, order: Order) -> (MemoryStats, usize) {
    let m = Arc::new(SparseMatrix::build(LdgmParams::new(K, N, right, seed)).unwrap());
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
    let src: Vec<Vec<u8>> = (0..K)
        .map(|_| (0..SYM).map(|_| rng.gen()).collect())
        .collect();
    let refs: Vec<&[u8]> = src.iter().map(|s| s.as_slice()).collect();
    let parity = Encoder::new(&m).encode(&refs).unwrap();
    let payload = |id: u32| -> &[u8] {
        match (id as usize).checked_sub(K) {
            None => &src[id as usize],
            Some(p) => &parity[p],
        }
    };
    let mut ids: Vec<u32> = match order {
        SourceFirst => (0..N as u32).collect(),
        ParityFirst => (K as u32..N as u32).chain(0..K as u32).collect(),
        Shuffled | ShuffledMl => {
            let mut ids: Vec<u32> = (0..N as u32).collect();
            ids.shuffle(&mut rng);
            ids
        }
    };
    if let ShuffledMl = order {
        ids.truncate(ml_necessary(&m, &ids).expect("all n packets decode"));
    }
    let mut d = Decoder::new(m, SYM);
    let mut trajectory = 0;
    for &id in &ids {
        let outcome = d.push_batch(&[(id, payload(id))]).unwrap();
        trajectory += d.memory_stats().current_symbols;
        if outcome.is_complete() {
            break;
        }
    }
    assert!(d.try_complete(), "{right} seed {seed} {order:?}");
    let stats = d.memory_stats();
    assert_eq!(d.into_object().unwrap(), src.concat());
    (stats, trajectory)
}

#[test]
fn peak_symbols_are_pinned() {
    for &(right, seed, order, peak, trajectory) in PINNED {
        let (stats, sum) = run(right, seed, order);
        assert_eq!(
            (
                stats.peak_symbols,
                sum,
                stats.current_symbols,
                stats.symbol_len
            ),
            (peak, trajectory, K, SYM),
            "{right} seed {seed} {order:?}"
        );
    }
}
