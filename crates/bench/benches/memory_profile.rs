//! §7 future work, made measurable: "Other performance metrics will also be
//! added, like the maximum memory requirements needed in each case."
//!
//! The LDGM payload decoder counts its live symbol buffers (retained source
//! values, transient parity values, equation accumulators) and frees each
//! parity payload as soon as it has been folded into its equations —
//! streaming decoding. This bench profiles the peak across the six
//! transmission models and both codes on a mid-loss channel, quantifying a
//! point the paper never measured: any order stays below `k + (n-k)`
//! buffers, and parity-heavy schedules (Tx3, Tx6) are the memory-*friendly*
//! ones, peaking near the accumulator count alone.

use std::fmt::Write as _;
use std::sync::Arc;

use fec_bench::{banner, output, Scale};
use fec_channel::{GilbertChannel, GilbertParams, LossModel};
use fec_ldgm::{Decoder, Encoder, LdgmParams, RightSide, SparseMatrix};
use fec_sched::{Layout, TxModel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SYMBOL: usize = 64;

fn peak_memory(
    matrix: &Arc<SparseMatrix>,
    source: &[Vec<u8>],
    parity: &[Vec<u8>],
    tx: TxModel,
    channel: GilbertParams,
    seed: u64,
) -> Option<usize> {
    let k = matrix.k();
    let layout = Layout::single_block(k, matrix.n());
    let mut decoder = Decoder::new(matrix.clone(), SYMBOL);
    let mut gilbert = GilbertChannel::new(channel, seed ^ 0x31);
    for r in tx.schedule(&layout, seed) {
        if gilbert.next_is_lost() {
            continue;
        }
        let id = r.esi;
        let payload: &[u8] = if (id as usize) < k {
            &source[id as usize]
        } else {
            &parity[id as usize - k]
        };
        if decoder
            .push_batch(&[(id, payload)])
            .expect("valid")
            .is_complete()
        {
            return Some(decoder.memory_stats().peak_symbols);
        }
    }
    None
}

fn main() {
    let scale = Scale::from_env();
    banner(
        "Memory profile: peak decoder buffers per transmission model (§7)",
        &scale,
    );
    let k = scale.k.min(5000); // payload decode: keep the byte volume sane
    let n = (k as f64 * 2.5) as usize;
    let channel = GilbertParams::new(0.05, 0.5).expect("params");
    println!(
        "k = {k}, ratio 2.5, {SYMBOL}-byte symbols, channel p=5% q=50% (p_global {:.1}%)\n",
        channel.global_loss_probability() * 100.0
    );

    let mut csv = String::from("code,tx,mean_peak_symbols,peak_fraction_of_k\n");
    for right in [RightSide::Staircase, RightSide::Triangle] {
        let matrix =
            Arc::new(SparseMatrix::build(LdgmParams::new(k, n, right, 7)).expect("matrix"));
        let mut rng = SmallRng::seed_from_u64(1);
        let source: Vec<Vec<u8>> = (0..k)
            .map(|_| (0..SYMBOL).map(|_| rng.gen()).collect())
            .collect();
        let refs: Vec<&[u8]> = source.iter().map(|s| s.as_slice()).collect();
        let parity = Encoder::new(&matrix).encode(&refs).expect("encode");

        println!("--- {right} ---");
        let mut by_model = Vec::new();
        for tx in TxModel::paper_models() {
            let runs = scale.runs.min(10) as u64;
            let mut total = 0usize;
            let mut ok = 0usize;
            for run in 0..runs {
                if let Some(peak) =
                    peak_memory(&matrix, &source, &parity, tx, channel, run * 31 + 5)
                {
                    total += peak;
                    ok += 1;
                }
            }
            if ok == 0 {
                println!("  {:<12} never decoded on this channel", tx.name());
                continue;
            }
            let mean = total as f64 / ok as f64;
            println!(
                "  {:<12} peak buffers {:>8.0} symbols ({:.2} x k)",
                tx.name(),
                mean,
                mean / k as f64
            );
            let _ = writeln!(
                csv,
                "{},{},{:.1},{:.4}",
                right.name(),
                tx.name(),
                mean,
                mean / k as f64
            );
            by_model.push((tx, mean));
        }
        // Quantified claims: every schedule respects the streaming bound,
        // and the parity-first schedule is the memory-friendliest.
        for &(tx, mean) in &by_model {
            assert!(
                mean <= (n + 16) as f64,
                "{right}/{}: peak {mean:.0} exceeds the k + (n-k) streaming bound",
                tx.name()
            );
        }
        let get = |m: TxModel| by_model.iter().find(|(t, _)| *t == m).map(|(_, v)| *v);
        if let (Some(tx2), Some(tx3)) = (
            get(TxModel::SourceSeqParityRandom),
            get(TxModel::ParitySeqSourceRandom),
        ) {
            assert!(
                tx3 < tx2,
                "{right}: with streaming frees, parity-first ({tx3:.0}) must beat source-first ({tx2:.0})"
            );
        }
        println!();
    }
    output::save("memory_profile", "results.csv", &csv);
    println!("(Peak is in symbol buffers; multiply by the symbol size for bytes.)");
}
