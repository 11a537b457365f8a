//! §6.2 / §7 speed claim: "LDGM codes are an order of magnitude faster than
//! RSE codes".
//!
//! Criterion benches of encoding and decoding throughput for all three
//! codecs on equal objects (same k, same symbol size, ratio 1.5). RSE pays
//! GF(2^8) multiplications per byte and, per block, an inversion cubic in
//! the number of erased symbols; LDGM pays one XOR per matrix entry. Codecs
//! and matrices are built outside the timed loops on both sides.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::Arc;

use fec_ldgm::{
    Decoder as LdgmDecoder, Encoder as LdgmEncoder, LdgmParams, RightSide, SparseMatrix,
};
use fec_rse::{Partition, RseCodec};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const SYMBOL: usize = 1024;

fn make_source(k: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..k)
        .map(|_| (0..SYMBOL).map(|_| rng.gen()).collect())
        .collect()
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("encode");
    for &k in &[512usize, 2048] {
        let ratio = 1.5;
        let n = (k as f64 * ratio) as usize;
        let source = make_source(k, 7);
        let refs: Vec<&[u8]> = source.iter().map(|s| s.as_slice()).collect();
        group.throughput(Throughput::Bytes((k * SYMBOL) as u64));

        // RSE: blocked object encode.
        let partition = Partition::for_ratio(k, ratio);
        let codecs: Vec<RseCodec> = partition
            .blocks()
            .iter()
            .map(|b| RseCodec::new(b.k, b.n).expect("valid block"))
            .collect();
        group.bench_with_input(BenchmarkId::new("rse", k), &k, |b, _| {
            b.iter(|| {
                let mut off = 0usize;
                let mut out = 0usize;
                for (blk, codec) in partition.blocks().iter().zip(&codecs) {
                    let parity = codec.encode_refs(&refs[off..off + blk.k]).expect("encode");
                    out += parity.len();
                    off += blk.k;
                }
                out
            })
        });

        for (name, right) in [
            ("ldgm_staircase", RightSide::Staircase),
            ("ldgm_triangle", RightSide::Triangle),
        ] {
            let m = SparseMatrix::build(LdgmParams::new(k, n, right, 3)).expect("matrix");
            let encoder = LdgmEncoder::new(&m);
            group.bench_with_input(BenchmarkId::new(name, k), &k, |b, _| {
                b.iter(|| encoder.encode(&refs).expect("encode").len())
            });
        }
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode");
    let k = 1024usize;
    let ratio = 1.5;
    let n = (k as f64 * ratio) as usize;
    let source = make_source(k, 11);
    let refs: Vec<&[u8]> = source.iter().map(|s| s.as_slice()).collect();
    group.throughput(Throughput::Bytes((k * SYMBOL) as u64));

    // Common reception pattern: a random (k + 5%) subset of all packets.
    let budget = k + k / 20;

    // RSE.
    let partition = Partition::for_ratio(k, ratio);
    let codecs: Vec<RseCodec> = partition
        .blocks()
        .iter()
        .map(|b| RseCodec::new(b.k, b.n).expect("valid block"))
        .collect();
    let mut rse_packets: Vec<(usize, u32, Vec<u8>)> = Vec::new(); // (block, esi, payload)
    {
        let mut off = 0usize;
        for (bi, (blk, codec)) in partition.blocks().iter().zip(&codecs).enumerate() {
            let parity = codec.encode_refs(&refs[off..off + blk.k]).expect("encode");
            for esi in 0..blk.k {
                rse_packets.push((bi, esi as u32, source[off + esi].clone()));
            }
            for (j, p) in parity.into_iter().enumerate() {
                rse_packets.push((bi, (blk.k + j) as u32, p));
            }
            off += blk.k;
        }
    }
    let mut rng = SmallRng::seed_from_u64(5);
    rse_packets.shuffle(&mut rng);
    group.bench_function("rse", |b| {
        b.iter(|| {
            // Collect per block until k_b, then solve for the erased symbols.
            let mut per_block: Vec<Vec<(u32, &[u8])>> =
                partition.blocks().iter().map(|_| Vec::new()).collect();
            for (bi, esi, payload) in rse_packets.iter().take(budget + 200) {
                let blk = partition.blocks()[*bi];
                let bucket = &mut per_block[*bi];
                if bucket.len() < blk.k {
                    bucket.push((*esi, payload.as_slice()));
                }
            }
            let mut recovered = 0usize;
            for (codec, received) in codecs.iter().zip(&per_block) {
                recovered += codec.decode(received).expect("decode").len();
            }
            recovered
        })
    });

    for (name, right) in [
        ("ldgm_staircase", RightSide::Staircase),
        ("ldgm_triangle", RightSide::Triangle),
    ] {
        let m = Arc::new(SparseMatrix::build(LdgmParams::new(k, n, right, 3)).expect("matrix"));
        let parity = LdgmEncoder::new(&m).encode(&refs).expect("encode");
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut rng = SmallRng::seed_from_u64(6);
        order.shuffle(&mut rng);
        let m2 = m.clone();
        let source2 = source.clone();
        let parity2 = parity.clone();
        let order2 = order.clone();
        group.bench_function(name, move |b| {
            b.iter(|| {
                let mut dec = LdgmDecoder::new(m2.clone(), SYMBOL);
                for &id in &order2 {
                    let payload: &[u8] = if (id as usize) < k {
                        &source2[id as usize]
                    } else {
                        &parity2[id as usize - k]
                    };
                    if dec
                        .push_batch(&[(id, payload)])
                        .expect("push")
                        .is_complete()
                    {
                        break;
                    }
                }
                assert!(dec.is_complete());
                dec.decoded_source()
            })
        });
    }
    group.finish();
}

fn bench_gf_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("gf256_kernels");
    println!(
        "  active kernel backend: {}",
        fec_gf256::kernels::active_name()
    );
    let a = vec![0xA5u8; 64 * 1024];
    let mut b = vec![0x5Au8; 64 * 1024];
    group.throughput(Throughput::Bytes(a.len() as u64));
    group.bench_function("xor_slice_64k", |bch| {
        bch.iter(|| {
            fec_gf256::kernels::xor_slice(&mut b, &a);
            b[0]
        })
    });
    group.bench_function("addmul_slice_64k", |bch| {
        bch.iter(|| {
            fec_gf256::kernels::addmul_slice(&mut b, &a, 0x1D);
            b[0]
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_encode, bench_decode, bench_gf_kernels
}
criterion_main!(benches);
