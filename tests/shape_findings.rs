//! Shape tests: the paper's qualitative findings, asserted at test-suite
//! scale (small k, few runs, coarse grids — seconds, not minutes; the
//! benches re-verify at higher fidelity).

use fec_broadcast::codec::builtin;
use fec_broadcast::prelude::*;

/// Mean inefficiency at one (p, q) point; None if any run failed.
fn point(
    code: &CodecHandle,
    k: usize,
    ratio: ExpansionRatio,
    tx: TxModel,
    p: f64,
    q: f64,
    runs: u64,
) -> Option<f64> {
    let channel = GilbertParams::new(p, q).unwrap();
    let exp = Experiment::new(code, k, ratio, tx).with_channel(channel);
    let runner = Runner::new(exp, 2).expect("runner");
    let mut sum = 0.0;
    for run in 0..runs {
        sum += runner.run(0xFEC, run, false).inefficiency(k)?;
    }
    Some(sum / runs as f64)
}

#[test]
fn perfect_channel_is_free_for_systematic_schedules() {
    // §4.3/§4.4: Tx1 and Tx2 at p = 0 give exactly 1.0 for every code.
    for code in [
        builtin::rse(),
        builtin::ldgm_staircase(),
        builtin::ldgm_triangle(),
    ] {
        for tx in [TxModel::SourceSeqParitySeq, TxModel::SourceSeqParityRandom] {
            let m = point(&code, 200, ExpansionRatio::R2_5, tx, 0.0, 0.5, 5).unwrap();
            assert_eq!(m, 1.0, "{code:?}/{tx:?}");
        }
    }
}

#[test]
fn tx2_beats_tx1_for_rse_under_bursts() {
    // §4.4: random parity order fixes RSE's tail-block problem.
    let (p, q) = (0.05, 0.3); // bursty
    let tx1 = point(
        &builtin::rse(),
        400,
        ExpansionRatio::R2_5,
        TxModel::SourceSeqParitySeq,
        p,
        q,
        8,
    );
    let tx2 = point(
        &builtin::rse(),
        400,
        ExpansionRatio::R2_5,
        TxModel::SourceSeqParityRandom,
        p,
        q,
        8,
    );
    match (tx1, tx2) {
        (Some(a), Some(b)) => assert!(b < a, "Tx2 ({b}) must beat Tx1 ({a}) for RSE"),
        (None, Some(_)) => {} // Tx1 failing outright is the paper's point, too
        other => panic!("unexpected outcome {other:?}"),
    }
}

#[test]
fn interleaving_rescues_rse_from_bursts() {
    // §4.7: under strong bursts, sequential RSE collapses while interleaved
    // RSE sails through.
    let (p, q) = (0.1, 0.2); // mean burst length 5
    let seq = point(
        &builtin::rse(),
        400,
        ExpansionRatio::R2_5,
        TxModel::SourceSeqParitySeq,
        p,
        q,
        8,
    );
    let il = point(
        &builtin::rse(),
        400,
        ExpansionRatio::R2_5,
        TxModel::Interleaved,
        p,
        q,
        8,
    );
    let il = il.expect("interleaved RSE must decode everywhere feasible");
    if let Some(seq) = seq {
        assert!(il < seq, "interleaving ({il}) must beat sequential ({seq})");
    }
}

#[test]
fn staircase_beats_triangle_at_low_loss_under_tx2() {
    // §6.1: "LDGM Staircase is more efficient with Tx_model_2 and a low p".
    let (p, q) = (0.01, 0.8);
    let sc = point(
        &builtin::ldgm_staircase(),
        2000,
        ExpansionRatio::R2_5,
        TxModel::SourceSeqParityRandom,
        p,
        q,
        6,
    )
    .unwrap();
    let tri = point(
        &builtin::ldgm_triangle(),
        2000,
        ExpansionRatio::R2_5,
        TxModel::SourceSeqParityRandom,
        p,
        q,
        6,
    )
    .unwrap();
    assert!(sc < tri, "staircase {sc} vs triangle {tri}");
}

#[test]
fn triangle_beats_staircase_under_tx4() {
    // §4.6 at moderate scale; the gap is small, so average over the grid
    // diagonal to stabilise.
    let mut sc_sum = 0.0;
    let mut tri_sum = 0.0;
    for (p, q) in [(0.0, 1.0), (0.1, 0.6), (0.2, 0.6), (0.3, 0.7)] {
        sc_sum += point(
            &builtin::ldgm_staircase(),
            4000,
            ExpansionRatio::R2_5,
            TxModel::Random,
            p,
            q,
            5,
        )
        .unwrap();
        tri_sum += point(
            &builtin::ldgm_triangle(),
            4000,
            ExpansionRatio::R2_5,
            TxModel::Random,
            p,
            q,
            5,
        )
        .unwrap();
    }
    assert!(
        tri_sum < sc_sum,
        "triangle ({tri_sum}) must beat staircase ({sc_sum}) under Tx4"
    );
}

#[test]
fn staircase_beats_triangle_under_tx6() {
    // §4.8: "the fact that LDGM Staircase performs better than Triangle is
    // rather unusual".
    let sc = point(
        &builtin::ldgm_staircase(),
        1500,
        ExpansionRatio::R2_5,
        TxModel::tx6_paper(),
        0.1,
        0.6,
        6,
    )
    .unwrap();
    let tri = point(
        &builtin::ldgm_triangle(),
        1500,
        ExpansionRatio::R2_5,
        TxModel::tx6_paper(),
        0.1,
        0.6,
        6,
    )
    .unwrap();
    assert!(sc < tri, "staircase {sc} vs triangle {tri} under Tx6");
}

#[test]
fn tx3_needs_all_parity_plus_one_source_at_ratio_2_5() {
    // §4.5's exact result for large-block codes on a perfect channel.
    let k = 1000;
    for code in [builtin::ldgm_staircase(), builtin::ldgm_triangle()] {
        let m = point(
            &code,
            k,
            ExpansionRatio::R2_5,
            TxModel::ParitySeqSourceRandom,
            0.0,
            0.5,
            3,
        )
        .unwrap();
        let exact = (1.5 * k as f64 + 1.0) / k as f64;
        assert!((m - exact).abs() < 1e-9, "{code:?}: {m} vs {exact}");
    }
}

#[test]
fn no_fec_repetition_fails_with_loss() {
    // §4.2: with p > 0 the x2 repetition scheme loses some packet twice.
    let m = point(
        &builtin::ldgm_staircase(),
        2000,
        ExpansionRatio::R2_5,
        TxModel::RepeatSource { copies: 2 },
        0.1,
        0.5,
        8,
    );
    assert_eq!(m, None, "repetition must fail at 17% loss");
    // And at p = 0 it works but wastes ~2x.
    let perfect = point(
        &builtin::ldgm_staircase(),
        2000,
        ExpansionRatio::R2_5,
        TxModel::RepeatSource { copies: 2 },
        0.0,
        0.5,
        8,
    )
    .unwrap();
    assert!(
        perfect > 1.8,
        "coupon collection should eat ~2x, got {perfect}"
    );
}

#[test]
fn infeasible_region_always_fails() {
    // §3.2 Fig. 6: outside the fundamental limit no code can decode. Pick
    // clearly-infeasible points for ratio 2.5 (needs >= 40% delivery).
    for (p, q) in [(0.9, 0.1), (0.7, 0.2), (1.0, 0.3)] {
        for code in [builtin::rse(), builtin::ldgm_staircase()] {
            let m = point(&code, 300, ExpansionRatio::R2_5, TxModel::Random, p, q, 5);
            assert_eq!(m, None, "{code:?} at ({p},{q}) must fail");
        }
    }
}

#[test]
fn inefficiency_never_below_one() {
    // Fundamental: you cannot decode k packets from fewer than k.
    for code in [
        builtin::rse(),
        builtin::ldgm_staircase(),
        builtin::ldgm_triangle(),
    ] {
        for tx in TxModel::paper_models() {
            if let Some(m) = point(&code, 150, ExpansionRatio::R2_5, tx, 0.05, 0.5, 4) {
                assert!(m >= 1.0, "{code:?}/{tx:?}: inefficiency {m} < 1");
            }
        }
    }
}

#[test]
fn rx1_sweet_spot_beats_extremes() {
    // §5.1 at reduced scale: a few percent of source packets up front beats
    // both one source packet and half the source packets.
    let k = 3000;
    let runner = Runner::new(
        Experiment::new(
            builtin::ldgm_staircase(),
            k,
            ExpansionRatio::R2_5,
            TxModel::Random,
        ),
        2,
    )
    .expect("runner");
    let mean = |m: usize| {
        let runs = 6;
        let mut sum = 0.0;
        for run in 0..runs {
            sum += runner
                .run_reception(RxModel::SourceThenParityRandom { num_source: m }, 5, run)
                .inefficiency(k)
                .expect("reception decodes");
        }
        sum / runs as f64
    };
    let low = mean(1);
    let sweet = mean(k * 3 / 100); // 3% of k
    let high = mean(k / 2);
    assert!(
        sweet < low && sweet < high,
        "sweet spot {sweet} must beat extremes ({low}, {high})"
    );
}
