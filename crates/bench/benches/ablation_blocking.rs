//! Ablation: RSE block size — the coupon-collector cost of segmentation.
//!
//! §2.2 explains why blocked RSE degrades as objects grow: a parity packet
//! only repairs the block it belongs to, so with `B` blocks a random parity
//! packet helps a given erasure with probability `1/B`. This bench fixes
//! the object (k) and the channel and varies `max_k` (the per-block size
//! cap), measuring interleaved-RSE inefficiency as the block count grows —
//! making the §2.2 argument quantitative.

use fec_bench::{banner, output, Scale};
use fec_channel::{GilbertChannel, GilbertParams, LossModel};
use fec_rse::{Partition, StructuralObjectDecoder};
use fec_sched::{Layout, TxModel};
use std::fmt::Write as _;

fn mean_inef(
    partition: &Partition,
    channel: GilbertParams,
    runs: u32,
    seed: u64,
) -> (Option<f64>, u32) {
    let layout = Layout::from_blocks(partition.blocks().iter().map(|b| (b.k, b.n)));
    let k = partition.k_total() as f64;
    let mut sum = 0.0;
    let mut fails = 0;
    for run in 0..runs {
        let order = TxModel::Interleaved.schedule(&layout, seed ^ run as u64);
        let mut ch = GilbertChannel::new(channel, seed.wrapping_add(run as u64 * 7919));
        let mut dec = StructuralObjectDecoder::new(partition);
        let mut done = false;
        for r in order {
            if ch.next_is_lost() {
                continue;
            }
            if dec
                .push_batch(&[(r.block as usize, r.esi as usize)])
                .is_some()
            {
                sum += dec.received() as f64 / k;
                done = true;
                break;
            }
        }
        if !done {
            fails += 1;
        }
    }
    let ok = runs - fails;
    ((ok > 0).then(|| sum / ok as f64), fails)
}

fn main() {
    let scale = Scale::from_env();
    banner("Ablation: RSE block size (coupon collector cost)", &scale);
    let ratio = 2.5;
    // A moderately bursty channel where repair actually matters.
    let channel = GilbertParams::new(0.05, 0.5).expect("probabilities");
    println!(
        "object k = {}, ratio {ratio}, channel (p=5%, q=50%, p_global = {:.3})\n",
        scale.k,
        channel.global_loss_probability()
    );

    let mut csv = String::from("max_k,blocks,mean_inefficiency,failures\n");
    let mut results = Vec::new();
    for max_k in [16usize, 32, 64, 102, 170, 255] {
        // Keep n_b <= 255: max_k beyond floor(255/ratio) would overflow the
        // field, so clamp exactly as a real deployment must.
        let max_k_eff = max_k.min(fec_rse::max_k_for_ratio(ratio));
        let partition = Partition::new(scale.k, max_k_eff, ratio);
        let (inef, fails) = mean_inef(&partition, channel, scale.runs, scale.seed);
        let shown = inef.map_or_else(|| "failed".into(), |i| format!("{i:.4}"));
        println!(
            "max_k = {max_k_eff:>3} -> {:>4} blocks: inefficiency {shown} ({fails} failures)",
            partition.num_blocks()
        );
        let _ = writeln!(
            csv,
            "{max_k_eff},{},{shown},{fails}",
            partition.num_blocks()
        );
        if let Some(i) = inef {
            results.push((partition.num_blocks(), i));
        }
    }
    output::save("ablation_blocking", "results.csv", &csv);

    // More blocks must cost more (allowing noise between adjacent sizes):
    // compare the most and least fragmented successful configurations.
    if results.len() >= 2 {
        let most_blocks = results.iter().max_by_key(|(b, _)| *b).expect("non-empty");
        let fewest_blocks = results.iter().min_by_key(|(b, _)| *b).expect("non-empty");
        println!(
            "\n{} blocks -> {:.4} vs {} blocks -> {:.4}",
            most_blocks.0, most_blocks.1, fewest_blocks.0, fewest_blocks.1
        );
        assert!(
            most_blocks.1 > fewest_blocks.1,
            "fragmentation must cost inefficiency (coupon collector, §2.2)"
        );
        println!("shape check passed: inefficiency grows with the block count");
    }
}
