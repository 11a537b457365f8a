//! Telemetry ablation: what instrumenting the receive/decode hot path
//! costs, and — the contract the whole design rests on — that it costs
//! (almost) **nothing when off**.
//!
//! Every instrumented struct owns its metric bundle from construction,
//! registered on `Registry::disabled()` (inert handles: one branch per
//! update site), and `attach_telemetry` re-registers it elsewhere. This
//! bench times the batched FLUTE decode loop (the workspace's hottest
//! consumer-facing path) in three configurations:
//!
//! 1. `off` — telemetry never attached (the bundle built at construction),
//! 2. `disabled` — attached to a `Registry::disabled()` (the shape a
//!    library embedder gets when wiring telemetry structurally but
//!    leaving it off),
//! 3. `enabled` — attached to a live registry (real atomic traffic).
//!
//! Rows 1 and 2 run the same code, so the run's **assertion** that
//! configuration 2 stays within 1% of configuration 1 pins that attaching
//! a disabled registry swaps in nothing heavier than the construction
//! default — no allocation or locking on the off path.

use std::time::{Duration, Instant};

use criterion::black_box;
use fec_codec::registry;
use fec_flute::{FluteReceiver, FluteSender, SenderConfig};
use fec_sched::TxModel;
use fec_sim::ExpansionRatio;
use fec_telemetry::Registry;

const TSI: u32 = 9;
const BATCH: usize = 256;

/// Builds one session's full datagram schedule (two 32 KiB objects).
fn make_datagrams() -> Vec<Vec<u8>> {
    let mut sender = FluteSender::new(SenderConfig::new(TSI));
    for toi in 1..=2u32 {
        let object: Vec<u8> = (0..32_000)
            .map(|i| ((i as u32 * 29 + toi) % 251) as u8)
            .collect();
        sender
            .add_object(
                toi,
                format!("file:///obj-{toi}.bin"),
                &object,
                registry::resolve("ldgm-triangle").expect("builtin"),
                ExpansionRatio::R1_5,
                64,
                toi as u64,
                TxModel::Random,
            )
            .expect("add object");
    }
    sender.datagrams(0xBE7C).expect("schedule")
}

/// One full batched decode of the session; returns datagrams consumed.
fn decode(datagrams: &[Vec<u8>], attach: Option<&Registry>) -> u64 {
    let mut receiver = FluteReceiver::new(TSI);
    if let Some(registry) = attach {
        receiver.attach_telemetry(registry);
    }
    let mut consumed = 0u64;
    for batch in datagrams.chunks(BATCH) {
        consumed += batch.len() as u64;
        receiver
            .push_datagrams(batch)
            .expect("well-formed datagrams");
    }
    consumed
}

/// Best per-iteration duration over several samples (least-noise estimator
/// for deterministic workloads; same policy as `ablation_kernels`).
fn time_best(samples: u32, mut f: impl FnMut() -> u64) -> Duration {
    let mut best: Option<Duration> = None;
    for _ in 0..samples {
        let start = Instant::now();
        black_box(f());
        let elapsed = start.elapsed();
        best = Some(best.map_or(elapsed, |b| b.min(elapsed)));
    }
    best.expect("at least one sample")
}

fn main() {
    println!("================================================================");
    println!("telemetry ablation: batched FLUTE decode loop (batch = {BATCH})");
    println!("================================================================");

    let datagrams = make_datagrams();
    println!(
        "session: 2 x 32 KiB, ratio 1.5, {} datagrams\n",
        datagrams.len()
    );

    // Warm the allocator and caches once per configuration before timing.
    let live = Registry::new();
    let inert = Registry::disabled();
    for attach in [None, Some(&inert), Some(&live)] {
        black_box(decode(&datagrams, attach));
    }

    // Interleave the samples so drift (thermal, scheduler) hits every
    // configuration equally instead of biasing whichever ran last.
    let mut off = Duration::MAX;
    let mut disabled = Duration::MAX;
    let mut enabled = Duration::MAX;
    for _ in 0..11 {
        off = off.min(time_best(1, || decode(&datagrams, None)));
        disabled = disabled.min(time_best(1, || decode(&datagrams, Some(&inert))));
        enabled = enabled.min(time_best(1, || decode(&datagrams, Some(&live))));
    }

    let pct = |d: Duration| (d.as_secs_f64() / off.as_secs_f64() - 1.0) * 100.0;
    println!(
        "{:<22} {:>12} {:>10}",
        "configuration", "best run", "vs off"
    );
    println!(
        "{:<22} {:>12.3?} {:>9.2}%",
        "off (never attached)", off, 0.0
    );
    println!(
        "{:<22} {:>12.3?} {:>9.2}%",
        "disabled registry",
        disabled,
        pct(disabled)
    );
    println!(
        "{:<22} {:>12.3?} {:>9.2}%",
        "enabled (live)",
        enabled,
        pct(enabled)
    );

    let overhead = pct(disabled);
    assert!(
        overhead < 1.0,
        "disabled telemetry costs {overhead:.2}% on the batched decode loop \
         (budget: < 1%) — something allocates or locks on the off path"
    );
    println!("\ndisabled-path overhead {overhead:.2}% — within the 1% budget");
}
