//! Quickstart: encode an object, broadcast it through a lossy channel,
//! decode it back — in ~30 lines of library use.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fec_broadcast::codec::builtin;
use fec_broadcast::prelude::*;

fn main() {
    // A 64 KiB "file", split into 1 KiB packets.
    let object: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
    let symbol_size = 1024;

    // LDGM Triangle at FEC expansion ratio 2.5, the paper's recommendation
    // for unknown channels, transmitted in fully random order (Tx_model_4).
    let spec = CodeSpec::for_object(
        builtin::ldgm_triangle(),
        ExpansionRatio::R2_5,
        object.len(),
        symbol_size,
    )
    .expect("valid parameters");
    println!(
        "object: {} bytes -> k = {} source packets, n = {} encoding packets",
        object.len(),
        spec.k,
        spec.layout().unwrap().total_packets()
    );

    let sender = Sender::new(spec.clone(), &object, symbol_size).expect("encode");
    let mut receiver = Receiver::new(spec, object.len(), symbol_size).expect("session");

    // A bursty Gilbert channel: 9% average loss in bursts of mean length 2.
    let params = GilbertParams::new(0.05, 0.5).expect("probabilities");
    let mut channel = GilbertChannel::new(params, 42);
    println!(
        "channel: p = {}, q = {} (p_global = {:.1}%, mean burst {:.1})",
        params.p(),
        params.q(),
        params.global_loss_probability() * 100.0,
        params.mean_burst_length().unwrap()
    );

    let mut sent = 0u64;
    let mut lost = 0u64;
    for r in TxModel::Random.schedule(sender.layout(), 7) {
        sent += 1;
        if channel.next_is_lost() {
            lost += 1;
            continue;
        }
        let symbol = sender.symbol(r).expect("valid ref");
        let progress = receiver.push(r, symbol).expect("valid symbol");
        if progress.is_decoded() {
            println!(
                "decoded after {} received packets (sent {sent}, lost {lost}) — inefficiency {:.3}",
                progress.received,
                progress.inefficiency()
            );
            break;
        }
    }

    let recovered = receiver.into_object().expect("decoded");
    assert_eq!(recovered, object);
    println!("byte-exact recovery confirmed ({} bytes)", recovered.len());
}
