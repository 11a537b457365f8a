//! Independent oracle for the LDGM decoders (ROADMAP aim 3a).
//!
//! Everything below works on a dense copy of the parity-check matrix —
//! `Vec<Vec<bool>>` rows, `Vec<u8>` symbols — and is deliberately naive:
//! peeling is "find any equation with one unknown, solve it, repeat until
//! nothing changes", maximum-likelihood decoding is textbook Gauss-Jordan
//! over GF(2) with the known symbols folded into the right-hand side, and
//! the parity symbols are computed here by walking the lower-triangular
//! right side instead of calling `Encoder::encode`. The only thing taken
//! from `src/` is the matrix itself, read as the encoder's rows
//! (`Encoder::row`), which is the input, not the algorithm.
//!
//! `Decoder` and `StructuralDecoder` share one cascade; comparing them with
//! each other would prove nothing about it. Comparing both with this does.

use std::sync::Arc;

use fec_ldgm::{
    ml_necessary, peeling_necessary, Decoder, Encoder, LdgmParams, RightSide, SparseMatrix,
    StructuralDecoder,
};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const K: usize = 40;
const N: usize = 100;
const SYM: usize = 8;

fn xor_into(dst: &mut [u8], src: &[u8]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// One code instance as the oracle sees it: dense rows and all `n` symbol
/// values (sources drawn at random, parity solved row by row).
struct Instance {
    matrix: Arc<SparseMatrix>,
    rows: Vec<Vec<bool>>,
    symbols: Vec<Vec<u8>>,
}

impl Instance {
    fn new(right: RightSide, seed: u64) -> Instance {
        let matrix = Arc::new(SparseMatrix::build(LdgmParams::new(K, N, right, seed)).unwrap());
        let encoder = Encoder::new(&matrix);
        let rows: Vec<Vec<bool>> = (0..N - K)
            .map(|e| {
                let mut dense = vec![false; N];
                for &v in encoder.row(e) {
                    dense[v as usize] = true;
                }
                dense
            })
            .collect();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0AC1E);
        let mut symbols: Vec<Vec<u8>> = (0..K)
            .map(|_| (0..SYM).map(|_| rng.gen::<u8>()).collect())
            .collect();
        // Row e closes on parity k + e and otherwise touches only sources
        // and earlier parities (identity / staircase / lower triangle).
        for (e, row) in rows.iter().enumerate() {
            assert!(row[K + e] && row[K + e + 1..].iter().all(|&b| !b));
            let mut parity = vec![0u8; SYM];
            for v in (0..K + e).filter(|&v| row[v]) {
                xor_into(&mut parity, &symbols[v]);
            }
            symbols.push(parity);
        }
        Instance {
            matrix,
            rows,
            symbols,
        }
    }

    /// Naive peeling to a fixed point over what `value` already holds.
    fn peel(&self, value: &mut [Option<Vec<u8>>]) {
        loop {
            let mut changed = false;
            for row in &self.rows {
                let unknown: Vec<usize> =
                    (0..N).filter(|&v| row[v] && value[v].is_none()).collect();
                if let [u] = unknown[..] {
                    let mut solved = vec![0u8; SYM];
                    for v in (0..N).filter(|&v| row[v] && v != u) {
                        xor_into(&mut solved, value[v].as_ref().unwrap());
                    }
                    value[u] = Some(solved);
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// Dense Gauss-Jordan over the unknowns of `value`. Returns the source
    /// symbols if every one of them is either held or pinned by the
    /// reduced system (a pivot whose row has no other unknown left).
    fn eliminate(&self, value: &[Option<Vec<u8>>]) -> Option<Vec<Vec<u8>>> {
        let mut system: Vec<(Vec<bool>, Vec<u8>)> = self
            .rows
            .iter()
            .map(|row| {
                let mut coeffs = vec![false; N];
                let mut rhs = vec![0u8; SYM];
                for v in (0..N).filter(|&v| row[v]) {
                    match &value[v] {
                        Some(known) => xor_into(&mut rhs, known),
                        None => coeffs[v] = true,
                    }
                }
                (coeffs, rhs)
            })
            .collect();
        let mut pivot_row_of = vec![None; N];
        let mut next = 0;
        for col in 0..N {
            let Some(found) = (next..system.len()).find(|&r| system[r].0[col]) else {
                continue;
            };
            system.swap(next, found);
            let (pivot_coeffs, pivot_rhs) = system[next].clone();
            for (r, (coeffs, rhs)) in system.iter_mut().enumerate() {
                if r != next && coeffs[col] {
                    for (c, p) in coeffs.iter_mut().zip(&pivot_coeffs) {
                        *c ^= p;
                    }
                    xor_into(rhs, &pivot_rhs);
                }
            }
            pivot_row_of[col] = Some(next);
            next += 1;
        }
        (0..K)
            .map(|v| match &value[v] {
                Some(held) => Some(held.clone()),
                None => {
                    let (coeffs, rhs) = &system[pivot_row_of[v]?];
                    (coeffs.iter().filter(|&&b| b).count() == 1).then(|| rhs.clone())
                }
            })
            .collect()
    }

    fn received(&self, prefix: &[u32]) -> Vec<Option<Vec<u8>>> {
        let mut value = vec![None; N];
        for &id in prefix {
            value[id as usize] = Some(self.symbols[id as usize].clone());
        }
        value
    }
}

/// A reception order: a shuffle of all `n` ids with a few duplicates mixed
/// in, cut somewhere between "hopeless" and "everything" to model loss.
fn reception_order(rng: &mut SmallRng) -> Vec<u32> {
    let mut order: Vec<u32> = (0..N as u32).collect();
    order.shuffle(rng);
    for _ in 0..4 {
        let dup = order[rng.gen_range(0..order.len())];
        let at = rng.gen_range(0..=order.len());
        order.insert(at, dup);
    }
    order.truncate(rng.gen_range(K - 2..=order.len()));
    order
}

fn check_instance(right: RightSide, matrix_seed: u64, orders: usize) {
    let inst = Instance::new(right, matrix_seed);
    let source = &inst.symbols[..K];
    let mut rng = SmallRng::seed_from_u64(matrix_seed ^ 0x0DE5);
    for case in 0..orders {
        let order = reception_order(&mut rng);
        let ctx = format!("{right} matrix {matrix_seed} order {case}");

        // Peeling, packet by packet: the known set after every arrival
        // (not only the completion index) must be the oracle's fixed point.
        let mut oracle = vec![None; N];
        let mut bytes = Decoder::new(Arc::clone(&inst.matrix), SYM);
        let mut index = StructuralDecoder::new(&inst.matrix);
        let (mut oracle_done, mut bytes_done) = (None, None);
        for (i, &id) in order.iter().enumerate() {
            oracle[id as usize] = Some(inst.symbols[id as usize].clone());
            inst.peel(&mut oracle);
            bytes
                .push_batch(&[(id, &inst.symbols[id as usize])])
                .unwrap();
            index.push_batch(&[id]);
            if bytes_done.is_none() {
                // The byte decoder stops learning once the object is whole.
                for (v, held) in oracle.iter().enumerate() {
                    let known = held.is_some();
                    assert_eq!(bytes.is_known(v as u32), known, "{ctx} @{i} var {v}");
                    assert_eq!(index.is_known(v as u32), known, "{ctx} @{i} var {v}");
                    if v < K {
                        assert_eq!(
                            bytes.source_packet(v),
                            held.as_deref(),
                            "{ctx} @{i} src {v}"
                        );
                    }
                }
            }
            if oracle_done.is_none() && oracle[..K].iter().all(Option::is_some) {
                oracle_done = Some(i + 1);
            }
            if bytes_done.is_none() && bytes.is_complete() {
                bytes_done = Some(i + 1);
            }
        }
        assert_eq!(bytes_done, oracle_done, "{ctx}: Decoder completion");
        assert_eq!(
            peeling_necessary(&inst.matrix, &order),
            oracle_done,
            "{ctx}: peeling_necessary"
        );
        assert_eq!(bytes.received(), order.len() as u64, "{ctx}");
        if oracle_done.is_some() {
            assert_eq!(
                bytes.into_object().unwrap(),
                source.concat(),
                "{ctx}: peeled bytes"
            );
        }

        // Maximum likelihood: scan prefixes upward from k (fewer than k
        // packets cannot pin k symbols) until elimination recovers the
        // object; every shorter prefix has then been shown to fail.
        let oracle_ml = (K..=order.len()).find(|&i| {
            inst.eliminate(&inst.received(&order[..i]))
                .is_some_and(|recovered| {
                    assert_eq!(recovered, source, "{ctx}: oracle ML bytes");
                    true
                })
        });
        assert_eq!(
            ml_necessary(&inst.matrix, &order),
            oracle_ml,
            "{ctx}: ml_necessary"
        );
        if let (Some(ml), Some(peel)) = (oracle_ml, oracle_done) {
            assert!(ml <= peel, "{ctx}: ML needs {ml}, peeling {peel}");
        }

        // The two elimination entry points at, just below and well above
        // the threshold (or at the end of a hopeless order).
        let cuts = match oracle_ml {
            Some(ml) => vec![ml - 1, ml, order.len()],
            None => vec![order.len()],
        };
        for cut in cuts {
            let expect = oracle_ml.is_some_and(|ml| cut >= ml);
            let mut bytes = Decoder::new(Arc::clone(&inst.matrix), SYM);
            let mut index = StructuralDecoder::new(&inst.matrix);
            for &id in &order[..cut] {
                bytes
                    .push_batch(&[(id, &inst.symbols[id as usize])])
                    .unwrap();
                index.push_batch(&[id]);
            }
            assert_eq!(index.ml_complete(), expect, "{ctx}: ml_complete @{cut}");
            assert_eq!(bytes.try_complete(), expect, "{ctx}: try_complete @{cut}");
            if expect {
                assert_eq!(
                    bytes.into_object().unwrap(),
                    source.concat(),
                    "{ctx}: ML bytes @{cut}"
                );
            } else {
                // A failed attempt may have injected determined variables;
                // whatever it now claims to know must still be right.
                for (v, truth) in source.iter().enumerate() {
                    if let Some(held) = bytes.source_packet(v) {
                        assert_eq!(held, &truth[..], "{ctx}: partial ML src {v} @{cut}");
                    }
                }
            }
        }
    }
}

#[test]
fn plain_ldgm_matches_the_naive_decoders() {
    for matrix_seed in 0..6 {
        check_instance(RightSide::Identity, matrix_seed, 10);
    }
}

#[test]
fn ldgm_staircase_matches_the_naive_decoders() {
    for matrix_seed in 0..6 {
        check_instance(RightSide::Staircase, matrix_seed, 10);
    }
}

#[test]
fn ldgm_triangle_matches_the_naive_decoders() {
    for matrix_seed in 0..6 {
        check_instance(RightSide::Triangle, matrix_seed, 10);
    }
}
