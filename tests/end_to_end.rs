//! End-to-end session tests: sender → schedule → lossy channel → receiver,
//! asserting *byte-exact* object recovery across codes, schedules and
//! channels.

use fec_broadcast::codec::builtin;
use fec_broadcast::prelude::*;

fn object(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u32).wrapping_mul(2654435761) + seed as u32) as u8)
        .collect()
}

/// Runs a full session; returns packets consumed until decode, or None.
fn session(
    spec: &CodeSpec,
    obj: &[u8],
    symbol: usize,
    tx: TxModel,
    channel: Option<GilbertParams>,
    seed: u64,
) -> Option<u64> {
    let sender = Sender::new(spec.clone(), obj, symbol).expect("sender");
    let mut rx = Receiver::new(spec.clone(), obj.len(), symbol).expect("receiver");
    let mut gilbert = channel.map(|c| GilbertChannel::new(c, seed ^ 0x11));
    for r in tx.schedule(sender.layout(), seed) {
        if let Some(ch) = gilbert.as_mut() {
            if ch.next_is_lost() {
                continue;
            }
        }
        let symbol = sender.symbol(r).expect("valid ref");
        if rx.push(r, symbol).expect("valid symbol").is_decoded() {
            let n = rx.progress().received;
            assert_eq!(rx.into_object().expect("decoded"), obj, "byte mismatch");
            return Some(n);
        }
    }
    None
}

#[test]
fn all_codes_all_models_perfect_channel() {
    let symbol = 32;
    for kind in [
        builtin::rse(),
        builtin::ldgm_staircase(),
        builtin::ldgm_triangle(),
    ] {
        let k = 180;
        let spec = CodeSpec::new(&kind, k, ExpansionRatio::R2_5).with_matrix_seed(5);
        let obj = object(k * symbol - 7, 1);
        for tx in TxModel::paper_models() {
            let n = session(&spec, &obj, symbol, tx, None, 42)
                .unwrap_or_else(|| panic!("{kind:?}/{tx:?} failed on a perfect channel"));
            assert!(n >= k as u64, "{kind:?}/{tx:?}: decoded with fewer than k");
        }
    }
}

#[test]
fn all_codes_survive_moderate_bursty_loss() {
    let symbol = 16;
    let channel = GilbertParams::new(0.05, 0.5).unwrap(); // ~9% loss, bursts of 2
    for kind in [
        builtin::rse(),
        builtin::ldgm_staircase(),
        builtin::ldgm_triangle(),
    ] {
        let k = 300;
        let spec = CodeSpec::new(&kind, k, ExpansionRatio::R2_5).with_matrix_seed(9);
        let obj = object(k * symbol, 2);
        // Robust schedules only (Tx1 legitimately dies under bursts).
        let tx = if kind == builtin::rse() {
            TxModel::Interleaved
        } else {
            TxModel::Random
        };
        let mut ok = 0;
        for seed in 0..10u64 {
            if session(&spec, &obj, symbol, tx, Some(channel), seed).is_some() {
                ok += 1;
            }
        }
        assert!(ok >= 9, "{kind:?}: only {ok}/10 sessions decoded");
    }
}

#[test]
fn carousel_retransmission_recovers_catastrophic_receivers() {
    // A FLUTE-style carousel: the sender cycles its schedule; a receiver
    // that missed most of cycle 1 finishes during cycle 2.
    let symbol = 24;
    let k = 150;
    let spec = CodeSpec::ldgm_triangle(k, ExpansionRatio::R1_5).with_matrix_seed(3);
    let obj = object(k * symbol - 3, 3);
    let sender = Sender::new(spec.clone(), &obj, symbol).expect("sender");
    let mut rx = Receiver::new(spec, obj.len(), symbol).expect("receiver");
    // Terrible channel: long outage (q small).
    let mut channel = GilbertChannel::new(GilbertParams::new(0.02, 0.05).unwrap(), 7);
    let mut cycles = 0;
    'outer: loop {
        cycles += 1;
        assert!(cycles <= 20, "carousel should converge");
        for r in TxModel::Random.schedule(sender.layout(), cycles) {
            if channel.next_is_lost() {
                continue;
            }
            let symbol = sender.symbol(r).expect("valid");
            if rx.push(r, symbol).expect("ok").is_decoded() {
                break 'outer;
            }
        }
    }
    assert!(cycles >= 2, "the outage should have forced extra cycles");
    assert_eq!(rx.into_object().unwrap(), obj);
}

#[test]
fn one_byte_object() {
    let spec = CodeSpec::ldgm_staircase(1, ExpansionRatio::Custom(5.0));
    let obj = vec![0xA7u8];
    let sender = Sender::new(spec.clone(), &obj, 1).expect("sender");
    let mut rx = Receiver::new(spec, 1, 1).expect("receiver");
    // With k = 1 some check equations contain only the source and parity
    // packets (H1 row weight <= 1), so parity alone may already decode.
    // Feed parity first; fall back to the source packet if needed.
    for r in sender.layout().parity_sequential() {
        if rx.push(r, sender.symbol(r).unwrap()).unwrap().is_decoded() {
            break;
        }
    }
    if !rx.is_decoded() {
        let src = PacketRef { block: 0, esi: 0 };
        assert!(rx
            .push(src, sender.symbol(src).unwrap())
            .unwrap()
            .is_decoded());
    }
    assert_eq!(rx.into_object().unwrap(), obj);
}

#[test]
fn different_symbol_sizes_same_object() {
    for symbol in [1usize, 3, 16, 100] {
        let len = 600usize;
        let k = len.div_ceil(symbol);
        let spec = CodeSpec::ldgm_staircase(k, ExpansionRatio::R2_5).with_matrix_seed(8);
        let obj = object(len, 5);
        let n = session(&spec, &obj, symbol, TxModel::Random, None, 9);
        assert!(n.is_some(), "symbol size {symbol} failed");
    }
}

#[test]
fn rse_multi_block_objects() {
    // Forces several RSE blocks (k = 700 at ratio 2.5 -> 7 blocks).
    let symbol = 8;
    let k = 700;
    let spec = CodeSpec::rse(k, ExpansionRatio::R2_5);
    let obj = object(k * symbol, 6);
    for tx in [
        TxModel::Interleaved,
        TxModel::SourceSeqParityRandom,
        TxModel::Random,
    ] {
        let n = session(
            &spec,
            &obj,
            symbol,
            tx,
            Some(GilbertParams::bernoulli(0.2).unwrap()),
            3,
        )
        .unwrap_or_else(|| panic!("multi-block RSE failed under {tx:?}"));
        assert!(n >= k as u64);
    }
}
