//! Golden wire bytes of whole FLUTE sessions, recorded at 1aa01dd — before
//! data datagrams were framed from a per-object header template instead of
//! a freshly built `AlcPacket` each. A session's datagrams are what a
//! deployed receiver parses, so "same bytes" here is the statement that the
//! framing change is invisible on the wire.
//!
//! Each file under `tests/golden/` holds the datagram count, an FNV-1a 64
//! over every datagram (carrying path, length, bytes) and three datagrams
//! verbatim: the first FDT, the first data datagram and the session's last
//! (A- and B-flagged) one. They are compared byte for byte and never
//! regenerated by the suite.

use std::fmt::Write;

use fec_codec::builtin;
use fec_core::ExpansionRatio;
use fec_flute::{AlcPacket, FluteSender, SenderConfig, FDT_TOI};
use fec_sched::TxModel;

const TSI: u32 = 0x601D;

fn object_bytes(len: usize, salt: usize) -> Vec<u8> {
    (0..len).map(|i| ((i + salt) * 31 % 251) as u8).collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut s, b| {
        let _ = write!(s, "{b:02x}");
        s
    })
}

/// The golden document of one emitted session.
fn render(session: &[(usize, Vec<u8>)]) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (path, datagram) in session {
        feed(&[*path as u8]);
        feed(&(datagram.len() as u32).to_be_bytes());
        feed(datagram);
    }
    let is_fdt = |d: &&(usize, Vec<u8>)| AlcPacket::from_bytes(&d.1).unwrap().header.toi == FDT_TOI;
    let first_fdt = session.iter().find(is_fdt).expect("an FDT datagram");
    let first_data = session
        .iter()
        .find(|d| !is_fdt(d))
        .expect("a data datagram");
    let last = session.last().expect("a datagram");
    let closing = AlcPacket::from_bytes(&last.1).unwrap().header;
    assert!(closing.close_session && closing.close_object);
    format!(
        "datagrams {}\nfnv1a64 {hash:016x}\nfirst_fdt {}\nfirst_data {}\nlast {}\n",
        session.len(),
        hex(&first_fdt.1),
        hex(&first_data.1),
        hex(&last.1),
    )
}

fn single_path(sender: &FluteSender, seed: u64) -> Vec<(usize, Vec<u8>)> {
    let datagrams = sender.datagrams(seed).unwrap();
    datagrams.into_iter().map(|d| (0, d)).collect()
}

#[test]
fn ldgm_triangle_defaults_keep_their_bytes() {
    let mut sender = FluteSender::new(SenderConfig::new(TSI));
    sender
        .add_object(
            1,
            "golden://triangle",
            &object_bytes(2040 * 1024, 0),
            builtin::ldgm_triangle(),
            ExpansionRatio::R1_5,
            1024,
            0xFACE,
            TxModel::Random,
        )
        .unwrap();
    assert_eq!(
        render(&single_path(&sender, 21)),
        include_str!("golden/wire_ldgm_triangle.txt")
    );
}

/// Three RSE blocks (the small-block payload ID carries a real SBN) and no
/// EXT_FTI on the data datagrams.
#[test]
fn rse_three_blocks_without_fti_keep_their_bytes() {
    let mut config = SenderConfig::new(TSI);
    config.fti_in_data_packets = false;
    let mut sender = FluteSender::new(config);
    sender
        .add_object(
            1,
            "golden://rse",
            &object_bytes(510 * 64 - 9, 3),
            builtin::rse(),
            ExpansionRatio::R1_5,
            64,
            0,
            TxModel::Interleaved,
        )
        .unwrap();
    assert_eq!(
        render(&single_path(&sender, 22)),
        include_str!("golden/wire_rse_no_fti.txt")
    );
}

/// Two objects back to back, an FDT repeat every seven data datagrams and
/// no EXT_SEQ anywhere.
#[test]
fn two_objects_unsequenced_keep_their_bytes() {
    let mut config = SenderConfig::new(TSI);
    config.fdt_interval = 7;
    config.sequence_datagrams = false;
    let mut sender = FluteSender::new(config);
    sender
        .add_object(
            1,
            "golden://a",
            &object_bytes(90 * 32, 5),
            builtin::ldgm_staircase(),
            ExpansionRatio::R2_5,
            32,
            0xA,
            TxModel::Random,
        )
        .unwrap();
    sender
        .add_object(
            2,
            "golden://b",
            &object_bytes(333, 7),
            builtin::rse(),
            ExpansionRatio::R1_5,
            16,
            0,
            TxModel::Interleaved,
        )
        .unwrap();
    assert_eq!(
        render(&single_path(&sender, 23)),
        include_str!("golden/wire_two_objects_unsequenced.txt")
    );
}

/// A bonded split: source symbols and the FDT on path 0, repair symbols on
/// path 1, each path stamping its own EXT_SEQ space.
#[test]
fn two_path_split_keeps_its_bytes() {
    let mut config = SenderConfig::new(TSI);
    config.fdt_interval = 40;
    let mut sender = FluteSender::new(config);
    sender
        .add_object(
            1,
            "golden://bonded",
            &object_bytes(200 * 48, 11),
            builtin::ldgm_staircase(),
            ExpansionRatio::R2_5,
            48,
            0xB0,
            TxModel::SourceSeqParityRandom,
        )
        .unwrap();
    let mut stream = sender.stream(24);
    let mut session = Vec::new();
    while let Some(routed) = stream
        .next_datagram_routed(|is_source| usize::from(!is_source))
        .unwrap()
    {
        session.push(routed);
    }
    assert!(stream.path_sequenced(0) > 0 && stream.path_sequenced(1) > 0);
    assert_eq!(render(&session), include_str!("golden/wire_two_paths.txt"));
}
