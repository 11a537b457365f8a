//! Cross-validation: the Monte-Carlo fast path (structural decoders in
//! `fec-sim`) must agree packet-for-packet with the real byte-moving
//! session layer (`fec-core`) on identical schedules and loss sequences.
//!
//! This is the load-bearing test of the whole reproduction: every figure
//! and table in docs/PAPER_MAP.md §"Figures" is computed by the structural
//! path, and this test is what entitles those numbers to speak for the real
//! codec.

use fec_broadcast::codec::builtin;
use fec_broadcast::prelude::*;

fn object(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u32 * 31 + seed as u32) as u8)
        .collect()
}

/// Feeds the same survivor sequence to the payload receiver and a
/// structural decoder; returns (payload_done_at, structural_done_at) as
/// received-packet counts.
fn run_both(
    code: &CodecHandle,
    k: usize,
    ratio: ExpansionRatio,
    tx: TxModel,
    channel: GilbertParams,
    seed: u64,
) -> (Option<u64>, Option<u64>) {
    let symbol = 8;
    let spec = CodeSpec::new(code, k, ratio).with_matrix_seed(seed ^ 0xAB);
    let obj = object(k * symbol, seed as u8);
    let sender = Sender::new(spec.clone(), &obj, symbol).expect("sender");
    let mut receiver = Receiver::new(spec.clone(), obj.len(), symbol).expect("receiver");

    // The structural twin is spawned through the same codec trait the
    // Monte-Carlo runner uses, from the same structure seed the session
    // uses.
    let layout = sender.layout().clone();
    let factory = spec
        .code
        .structural_factory(k, ratio.as_f64(), &[spec.matrix_seed])
        .expect("structural factory");
    let mut structural = factory.session(0);

    let mut gilbert = GilbertChannel::new(channel, seed ^ 0x77);
    let mut received = 0u64;
    let mut payload_done = None;
    let mut structural_done = None;
    for r in tx.schedule(&layout, seed) {
        if gilbert.next_is_lost() {
            continue;
        }
        received += 1;
        let symbol = sender.symbol(r).expect("valid");
        if receiver.push(r, symbol).expect("ok").is_decoded() && payload_done.is_none() {
            payload_done = Some(received);
        }
        if structural.add_batch(&[r]).is_some() && structural_done.is_none() {
            structural_done = Some(received);
        }
        if payload_done.is_some() && structural_done.is_some() {
            break;
        }
    }
    if payload_done.is_some() {
        assert_eq!(
            receiver.into_object().expect("decoded"),
            obj,
            "byte mismatch"
        );
    }
    (payload_done, structural_done)
}

#[test]
fn ldgm_structural_matches_payload_across_schedules_and_channels() {
    for kind in [builtin::ldgm_staircase(), builtin::ldgm_triangle()] {
        for tx in TxModel::paper_models() {
            for (ci, channel) in [
                GilbertParams::perfect(),
                GilbertParams::bernoulli(0.15).unwrap(),
                GilbertParams::new(0.05, 0.4).unwrap(),
            ]
            .into_iter()
            .enumerate()
            {
                for seed in 0..3u64 {
                    let (p, s) = run_both(
                        &kind,
                        150,
                        ExpansionRatio::R2_5,
                        tx,
                        channel,
                        seed * 17 + ci as u64,
                    );
                    assert_eq!(
                        p, s,
                        "{kind:?}/{tx:?}/channel{ci}/seed{seed}: payload vs structural"
                    );
                }
            }
        }
    }
}

#[test]
fn rse_structural_matches_payload_across_schedules_and_channels() {
    for tx in TxModel::paper_models() {
        for (ci, channel) in [
            GilbertParams::perfect(),
            GilbertParams::bernoulli(0.25).unwrap(),
            GilbertParams::new(0.1, 0.3).unwrap(),
        ]
        .into_iter()
        .enumerate()
        {
            for seed in 0..3u64 {
                let (p, s) = run_both(
                    &builtin::rse(),
                    300, // multiple blocks at ratio 2.5
                    ExpansionRatio::R2_5,
                    tx,
                    channel,
                    seed * 23 + ci as u64,
                );
                assert_eq!(p, s, "RSE/{tx:?}/channel{ci}/seed{seed}");
            }
        }
    }
}

#[test]
fn ratio_1_5_also_agrees() {
    for kind in [
        builtin::rse(),
        builtin::ldgm_staircase(),
        builtin::ldgm_triangle(),
    ] {
        for seed in 0..4u64 {
            let (p, s) = run_both(
                &kind,
                240,
                ExpansionRatio::R1_5,
                TxModel::Random,
                GilbertParams::bernoulli(0.1).unwrap(),
                seed,
            );
            assert_eq!(p, s, "{kind:?} ratio 1.5 seed {seed}");
        }
    }
}

/// The sim Runner's own results must be reproducible and consistent with
/// its reported metadata (n_sent = schedule length, received <= sent).
#[test]
fn runner_results_are_internally_consistent() {
    for kind in [
        builtin::rse(),
        builtin::ldgm_staircase(),
        builtin::ldgm_triangle(),
    ] {
        let exp = Experiment::new(kind, 200, ExpansionRatio::R2_5, TxModel::Random)
            .with_channel(GilbertParams::new(0.1, 0.5).unwrap());
        let runner = Runner::new(exp, 2).expect("runner");
        for run in 0..5 {
            let out = runner.run(99, run, true);
            assert!(out.n_received <= out.n_sent);
            if let Some(n) = out.n_necessary {
                assert!(n >= 200, "cannot decode below k");
                assert!(n <= out.n_received);
                assert!(out.decoded);
            } else {
                assert!(!out.decoded);
            }
        }
    }
}
