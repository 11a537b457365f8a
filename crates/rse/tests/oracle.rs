//! Differential oracle for [`RseCodec`] (ROADMAP aim 3a).
//!
//! The references below are the construction and the decode the codec
//! shipped with before it switched to the closed-form generator and the
//! erasure-only solve: `G = V * V_top^{-1}` by Gauss-Jordan inversion and a
//! dense product, and decoding by inverting the full `k x k` sub-generator
//! of the received ESIs. They are deliberately naive, share no code with
//! `src/codec.rs` beyond `fec_gf256::Matrix`, and live only here.

use fec_gf256::{kernels, Matrix};
use fec_rse::RseCodec;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// `V * V_top^{-1}` on the points `alpha^i`.
fn reference_generator(k: usize, n: usize) -> Matrix {
    let v = Matrix::vandermonde(n, k);
    let top = v.select_rows(&(0..k).collect::<Vec<_>>());
    let top_inv = top.inverted().expect("Vandermonde top block invertible");
    v.mul(&top_inv).expect("n x k times k x k")
}

/// `x = A^{-1} y` with `A` the rows of `gen` for the first `k` received ESIs.
fn reference_decode(gen: &Matrix, received: &[(u32, &[u8])]) -> Vec<Vec<u8>> {
    let k = gen.cols();
    let received = &received[..k];
    let rows: Vec<usize> = received.iter().map(|&(esi, _)| esi as usize).collect();
    let payloads: Vec<&[u8]> = received.iter().map(|&(_, p)| p).collect();
    let a_inv = gen
        .select_rows(&rows)
        .inverted()
        .expect("any k rows of the generator are independent");
    (0..k)
        .map(|j| {
            let mut sym = vec![0u8; payloads[0].len()];
            kernels::addmul_rows(&mut [&mut sym[..]], &payloads, a_inv.row(j));
            sym
        })
        .collect()
}

fn assert_generator_matches(k: usize, n: usize) {
    let codec = RseCodec::new(k, n).unwrap();
    let reference = reference_generator(k, n);
    for esi in 0..n {
        assert_eq!(
            codec.generator_row(esi as u32),
            reference.row(esi),
            "generator row {esi} of ({k}, {n})"
        );
    }
}

#[test]
fn generator_equals_vandermonde_product_for_every_small_shape() {
    for n in 1..=48 {
        for k in 1..=n {
            assert_generator_matches(k, n);
        }
    }
}

#[test]
fn generator_equals_vandermonde_product_for_paper_and_random_shapes() {
    for (k, n) in [(170, 255), (102, 255), (255, 255), (1, 255), (1, 1)] {
        assert_generator_matches(k, n);
    }
    let mut rng = SmallRng::seed_from_u64(0x0AC1E);
    for _ in 0..200 {
        let n = rng.gen_range(1..=255usize);
        let k = rng.gen_range(1..=n);
        assert_generator_matches(k, n);
    }
}

/// One block with its encoding symbols and the reference generator.
struct Block {
    codec: RseCodec,
    reference: Matrix,
    /// All `n` encoding symbols, indexed by ESI.
    symbols: Vec<Vec<u8>>,
}

impl Block {
    fn new(k: usize, n: usize, sym_len: usize, rng: &mut SmallRng) -> Block {
        let codec = RseCodec::new(k, n).unwrap();
        let mut symbols: Vec<Vec<u8>> = (0..k)
            .map(|_| (0..sym_len).map(|_| rng.gen()).collect())
            .collect();
        let refs: Vec<&[u8]> = symbols.iter().map(|s| s.as_slice()).collect();
        let parity = codec.encode_refs(&refs).unwrap();
        symbols.extend(parity);
        Block {
            codec,
            reference: reference_generator(k, n),
            symbols,
        }
    }

    /// Decodes from `esis` (arrival order) through the codec and through
    /// the reference and checks both against the source.
    fn check(&self, esis: &[usize]) {
        let k = self.codec.k();
        let received: Vec<(u32, &[u8])> = esis
            .iter()
            .map(|&e| (e as u32, self.symbols[e].as_slice()))
            .collect();
        let decoded = self.codec.decode(&received).unwrap();
        assert_eq!(
            decoded,
            reference_decode(&self.reference, &received),
            "({k}, {}) from {esis:?}",
            self.codec.n()
        );
        assert_eq!(decoded, self.symbols[..k]);

        let erased: Vec<u32> = (0..k as u32)
            .filter(|e| !esis[..k].contains(&(*e as usize)))
            .collect();
        let recovered = self.codec.recover_missing(&received).unwrap();
        assert_eq!(
            recovered.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            erased
        );
        for (esi, payload) in recovered {
            assert_eq!(payload, self.symbols[esi as usize]);
        }
    }
}

#[test]
fn decode_equals_full_inversion_on_edge_patterns() {
    let mut rng = SmallRng::seed_from_u64(0xED6E);
    for (k, n) in [
        (1, 1),
        (1, 4),
        (4, 7),
        (20, 30),
        (10, 25),
        (170, 255),
        (102, 255),
    ] {
        let block = Block::new(k, n, 24, &mut rng);
        let parity = n - k;
        // e = 0, in order and reversed.
        block.check(&(0..k).collect::<Vec<_>>());
        block.check(&(0..k).rev().collect::<Vec<_>>());
        if parity == 0 {
            continue;
        }
        // e = 1: each end of the block erased, repaired by each end of the parity.
        for (lost, repair) in [(0, k), (k - 1, n - 1)] {
            let mut esis: Vec<usize> = (0..k).filter(|&e| e != lost).collect();
            esis.push(repair);
            block.check(&esis);
            // Parity arrives first.
            esis.rotate_right(1);
            block.check(&esis);
        }
        // e = min(k, n - k): every parity symbol used (all-parity when n >= 2k).
        let e = parity.min(k);
        let mut esis: Vec<usize> = (k..k + e).chain(e..k).collect();
        block.check(&esis);
        esis.reverse();
        block.check(&esis);
        if parity >= k {
            // All-parity reception from the far end of the block.
            block.check(&(n - k..n).rev().collect::<Vec<_>>());
        }
        // Extras beyond the first k are ignored, whatever they are.
        esis.extend((0..n).filter(|x| !esis.contains(x)).collect::<Vec<_>>());
        block.check(&esis);
    }
}

#[test]
fn decode_equals_full_inversion_on_random_patterns() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0AC1E);
    for _ in 0..120 {
        let n = rng.gen_range(1..=64usize);
        let k = rng.gen_range(1..=n);
        let sym_len = rng.gen_range(0..40usize);
        let block = Block::new(k, n, sym_len, &mut rng);
        for _ in 0..4 {
            // A random number of erasures at random places, random arrival order.
            let e = rng.gen_range(0..=(n - k).min(k));
            let mut sources: Vec<usize> = (0..k).collect();
            let mut parities: Vec<usize> = (k..n).collect();
            sources.shuffle(&mut rng);
            parities.shuffle(&mut rng);
            let mut esis: Vec<usize> = sources[e..].to_vec();
            esis.extend(&parities[..e]);
            esis.shuffle(&mut rng);
            block.check(&esis);
            // The same set with all parity ahead of all source.
            esis.sort_by_key(|&x| std::cmp::Reverse(x));
            block.check(&esis);
        }
    }
}
