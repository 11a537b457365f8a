//! FLUTE file delivery over a real UDP socket (loopback), with loss.
//!
//! This is the paper's §1 scenario as an actual program: a feedback-free
//! sender broadcasts a file as ALC/LCT datagrams (FDT on TOI 0, EXT_FTI on
//! every data packet), a receiver joins the session knowing only the TSI
//! and the port, and reliability comes purely from FEC + scheduling —
//! the receiver never transmits anything.
//!
//! Losses are injected at the sender (a Gilbert channel decides which
//! datagrams are never written to the socket), so the loss pattern is
//! controlled and reproducible; everything downstream is real: UDP
//! datagram framing, the kernel socket buffer, wire parsing, out-of-order
//! tolerance.
//!
//! ```text
//! cargo run --example flute_udp [p] [q]       # default p=0.03 q=0.4
//! ```

use std::net::UdpSocket;
use std::thread;
use std::time::Duration;

use fec_broadcast::codec::builtin;
use fec_broadcast::flute::{FluteReceiver, FluteSender, SenderConfig};
use fec_broadcast::prelude::*;

const TSI: u32 = 0xBEEF;
const SYMBOL_SIZE: usize = 1024;

fn main() {
    let mut args = std::env::args().skip(1);
    let p: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.03);
    let q: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.4);
    let params = GilbertParams::new(p, q).expect("valid Gilbert parameters");

    // The "file": 2 MiB of deterministic bytes.
    let object: Vec<u8> = (0..2 * 1024 * 1024u32)
        .map(|i| (i * 2654435761) as u8)
        .collect();
    println!(
        "object: {} KiB, symbol {} B, channel p = {p}, q = {q} (loss ≈ {:.1}%, mean burst {:.1})",
        object.len() / 1024,
        SYMBOL_SIZE,
        params.global_loss_probability() * 100.0,
        1.0 / q.max(1e-9),
    );

    // Receiver socket first, so the sender knows where to aim.
    let rx_socket = UdpSocket::bind("127.0.0.1:0").expect("bind receiver");
    rx_socket
        .set_read_timeout(Some(Duration::from_millis(500)))
        .expect("set timeout");
    let target = rx_socket.local_addr().expect("local addr");

    // --- Sender thread: encode, schedule, inject losses, transmit. -------
    let sender_params = params;
    let object_for_sender = object.clone();
    let tx_thread = thread::spawn(move || {
        let tx_socket = UdpSocket::bind("127.0.0.1:0").expect("bind sender");
        let mut session = FluteSender::new(SenderConfig::new(TSI));
        session
            .add_object(
                1,
                "udp://demo/2mib.bin",
                &object_for_sender,
                builtin::ldgm_triangle(),
                ExpansionRatio::R1_5,
                SYMBOL_SIZE,
                0xC0FFEE,
                // The paper's recommendation for an unknown channel (§6.2.2):
                // LDGM Triangle with Tx_model_4.
                TxModel::Random,
            )
            .expect("add object");
        let datagrams = session.datagrams(7).expect("build datagrams");
        let mut channel = GilbertChannel::new(sender_params, 1234);
        let (mut sent, mut dropped) = (0u64, 0u64);
        for dg in &datagrams {
            if channel.next_is_lost() {
                dropped += 1;
                continue;
            }
            tx_socket.send_to(dg, target).expect("send datagram");
            sent += 1;
            // Pace slightly so the loopback socket buffer never overflows
            // (a real broadcast channel has a provisioned rate).
            if sent % 64 == 0 {
                thread::sleep(Duration::from_micros(200));
            }
        }
        println!("sender: {sent} datagrams sent, {dropped} lost in the channel");
        (sent, dropped)
    });

    // --- Receiver: parse datagrams until the object decodes. -------------
    let mut session = FluteReceiver::new(TSI);
    let mut buf = vec![0u8; SYMBOL_SIZE + 256];
    let mut received = 0u64;
    let decoded = loop {
        match rx_socket.recv_from(&mut buf) {
            Ok((len, _)) => {
                received += 1;
                match session.push_datagram(&buf[..len]) {
                    Ok(event) => {
                        if matches!(
                            event,
                            fec_broadcast::flute::ReceiverEvent::ObjectComplete { .. }
                        ) {
                            break true;
                        }
                    }
                    Err(e) => eprintln!("receiver: dropping bad datagram: {e}"),
                }
            }
            Err(_) => {
                // Timeout: the sender is done and we still aren't — the
                // losses exceeded the code's budget for this run.
                break false;
            }
        }
    };

    let (sent, dropped) = tx_thread.join().expect("sender thread");
    println!("receiver: {received} datagrams consumed");

    if decoded {
        let got = session.take_object(1).expect("object decoded");
        assert_eq!(got, object, "byte-exact reconstruction");
        let fdt = session.fdt().expect("FDT received");
        println!(
            "decoded '{}' ({} bytes) from {} of {} data packets — inefficiency {:.4}",
            fdt.file(1)
                .map(|f| f.content_location.as_str())
                .unwrap_or("?"),
            got.len(),
            session.packets_received(1),
            sent + dropped - 1, // minus the FDT datagrams (approximation for display)
            session.packets_received(1) as f64 / (got.len() as f64 / SYMBOL_SIZE as f64),
        );
    } else {
        println!(
            "decoding FAILED: the channel ate too much ({}% loss with ratio 1.5 \
             leaves no margin) — rerun with a smaller p or larger q",
            (dropped as f64 / (sent + dropped) as f64 * 100.0).round()
        );
        std::process::exit(1);
    }
}
