//! End-to-end FLUTE delivery across the full stack: object → ALC datagrams
//! → lossy channel → wire parsing → FEC decode → byte-exact file.

use fec_broadcast::codec::builtin;
use fec_broadcast::flute::{FluteReceiver, FluteSender, ObjectStatus, SenderConfig};
use fec_broadcast::prelude::*;

fn object_bytes(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| ((i * 131) as u8) ^ salt).collect()
}

fn deliver_with_loss(
    sender: &FluteSender,
    receiver: &mut FluteReceiver,
    schedule_seed: u64,
    channel: Option<(GilbertParams, u64)>,
) {
    let mut loss = channel.map(|(params, seed)| GilbertChannel::new(params, seed));
    for dg in sender.datagrams(schedule_seed).expect("datagrams") {
        if let Some(ch) = loss.as_mut() {
            if ch.next_is_lost() {
                continue;
            }
        }
        receiver.push_datagram(&dg).expect("well-formed datagram");
    }
}

/// Every paper code delivers a file byte-exactly through its recommended
/// schedule, with no losses.
#[test]
fn all_codes_lossless() {
    let cases = [
        (builtin::rse(), ExpansionRatio::R1_5, TxModel::Interleaved),
        (
            builtin::ldgm_staircase(),
            ExpansionRatio::R2_5,
            TxModel::tx6_paper(),
        ),
        (
            builtin::ldgm_triangle(),
            ExpansionRatio::R2_5,
            TxModel::Random,
        ),
    ];
    for (i, (kind, ratio, tx)) in cases.into_iter().enumerate() {
        let data = object_bytes(20_000 + i * 997, i as u8);
        let mut sender = FluteSender::new(SenderConfig::new(42));
        sender
            .add_object(1, "test.bin", &data, &kind, ratio, 64, 7, tx)
            .expect("add object");
        let mut receiver = FluteReceiver::new(42);
        deliver_with_loss(&sender, &mut receiver, 3, None);
        assert_eq!(
            receiver.object(1).expect("decoded"),
            &data[..],
            "{kind} under {tx}"
        );
        assert!(receiver.all_complete());
    }
}

/// The paper's universal recommendation — LDGM Triangle + Tx_model_4 at
/// ratio 2.5 — survives a harsh bursty channel (20% loss, bursts of ~3).
#[test]
fn triangle_tx4_survives_bursty_channel() {
    let data = object_bytes(60_000, 9);
    let mut sender = FluteSender::new(SenderConfig::new(1));
    sender
        .add_object(
            5,
            "movie.ts",
            &data,
            builtin::ldgm_triangle(),
            ExpansionRatio::R2_5,
            128,
            11,
            TxModel::Random,
        )
        .expect("add object");
    let params = GilbertParams::new(0.25 / 3.0, 1.0 / 3.0).expect("valid");
    for trial in 0..5u64 {
        let mut receiver = FluteReceiver::new(1);
        deliver_with_loss(&sender, &mut receiver, trial, Some((params, trial ^ 0xAB)));
        assert_eq!(
            receiver.object_status(5),
            Some(ObjectStatus::Complete),
            "trial {trial}"
        );
        assert_eq!(receiver.object(5).unwrap(), &data[..]);
    }
}

/// RSE + interleaving (the paper's mandatory pairing) through the same
/// bursty channel at ratio 2.5.
#[test]
fn rse_interleaved_survives_bursty_channel() {
    let data = object_bytes(40_000, 4);
    let mut sender = FluteSender::new(SenderConfig::new(2));
    sender
        .add_object(
            1,
            "fw.img",
            &data,
            builtin::rse(),
            ExpansionRatio::R2_5,
            100,
            0,
            TxModel::Interleaved,
        )
        .expect("add object");
    let params = GilbertParams::new(0.05, 0.45).expect("valid");
    let mut receiver = FluteReceiver::new(2);
    deliver_with_loss(&sender, &mut receiver, 1, Some((params, 77)));
    assert_eq!(receiver.object(1).unwrap(), &data[..]);
}

/// Losing *every* FDT datagram must not prevent decoding (EXT_FTI carries
/// the OTI), only session-completeness reporting.
#[test]
fn fdt_loss_is_survivable() {
    let data = object_bytes(10_000, 2);
    let mut sender = FluteSender::new(SenderConfig::new(6));
    sender
        .add_object(
            1,
            "a",
            &data,
            builtin::ldgm_staircase(),
            ExpansionRatio::R2_5,
            32,
            3,
            TxModel::Random,
        )
        .expect("add object");
    let mut receiver = FluteReceiver::new(6);
    for dg in sender.datagrams(9).unwrap() {
        // An adversarial channel that eats exactly the FDT packets.
        let parsed = fec_broadcast::flute::AlcPacket::from_bytes(&dg).unwrap();
        if parsed.header.toi == fec_broadcast::flute::FDT_TOI {
            continue;
        }
        receiver.push_datagram(&dg).unwrap();
    }
    assert_eq!(receiver.object(1).unwrap(), &data[..]);
    assert!(receiver.fdt().is_none());
    assert!(
        !receiver.all_complete(),
        "no FDT -> completeness unknowable"
    );
}

/// A carousel-style rerun: when one pass leaves the object undecoded, a
/// second pass with a fresh schedule finishes it (the §1/§7 delivery loop).
#[test]
fn two_carousel_cycles_complete_under_heavy_loss() {
    let data = object_bytes(30_000, 8);
    let mut sender = FluteSender::new(SenderConfig::new(9));
    sender
        .add_object(
            1,
            "big.bin",
            &data,
            builtin::ldgm_triangle(),
            ExpansionRatio::R1_5,
            64,
            2,
            TxModel::Random,
        )
        .expect("add object");
    // 35% loss with ratio 1.5: one pass cannot decode (nreceived < k).
    let params = GilbertParams::new(0.35, 0.65).expect("valid");
    let mut receiver = FluteReceiver::new(9);
    deliver_with_loss(&sender, &mut receiver, 1, Some((params, 5)));
    assert_ne!(receiver.object_status(1), Some(ObjectStatus::Complete));
    // Second cycle, different schedule seed and channel state.
    deliver_with_loss(&sender, &mut receiver, 2, Some((params, 6)));
    assert_eq!(receiver.object_status(1), Some(ObjectStatus::Complete));
    assert_eq!(receiver.object(1).unwrap(), &data[..]);
}

/// Two receivers behind *different* channels decode the same transmission
/// (the broadcast scenario: one parity packet repairs different losses at
/// different receivers).
#[test]
fn heterogeneous_receivers_share_one_transmission() {
    let data = object_bytes(25_000, 3);
    let mut sender = FluteSender::new(SenderConfig::new(4));
    sender
        .add_object(
            1,
            "shared.bin",
            &data,
            builtin::ldgm_triangle(),
            ExpansionRatio::R2_5,
            64,
            13,
            TxModel::Random,
        )
        .expect("add object");
    let datagrams = sender.datagrams(10).unwrap();
    let channels = [
        GilbertParams::new(0.02, 0.9).unwrap(),  // light IID loss
        GilbertParams::new(0.08, 0.25).unwrap(), // heavy bursts
    ];
    for (i, params) in channels.into_iter().enumerate() {
        let mut receiver = FluteReceiver::new(4);
        let mut channel = GilbertChannel::new(params, i as u64 + 100);
        for dg in &datagrams {
            if channel.next_is_lost() {
                continue;
            }
            receiver.push_datagram(dg).unwrap();
        }
        assert_eq!(receiver.object(1).unwrap(), &data[..], "receiver {i}");
    }
}
