//! Why interleaving matters for small-block codes (§4.7), shown on real
//! bytes: the same RSE-encoded object, the same bursty channel, two
//! schedules — sequential transmission collapses, interleaving sails.
//!
//! ```sh
//! cargo run --release --example interleaving_demo
//! ```

use fec_broadcast::prelude::*;

fn attempt(
    spec: &CodeSpec,
    object: &[u8],
    symbol: usize,
    tx: TxModel,
    channel: GilbertParams,
    seed: u64,
) -> Result<u64, u64> {
    let sender = Sender::new(spec.clone(), object, symbol).expect("encode");
    let mut rx = Receiver::new(spec.clone(), object.len(), symbol).expect("session");
    let mut ch = GilbertChannel::new(channel, seed);
    let mut received = 0u64;
    for r in tx.schedule(sender.layout(), seed) {
        if ch.next_is_lost() {
            continue;
        }
        received += 1;
        let symbol = sender.symbol(r).expect("ref");
        if rx.push(r, symbol).expect("push").is_decoded() {
            assert_eq!(rx.into_object().expect("decoded"), object);
            return Ok(received);
        }
    }
    Err(received)
}

fn main() {
    let symbol = 512;
    let k = 1000; // ~10 RSE blocks at ratio 2.5
    let object: Vec<u8> = (0..k * symbol).map(|i| ((i / 3) % 256) as u8).collect();
    let spec = CodeSpec::rse(k, ExpansionRatio::R2_5);
    println!(
        "RSE object: k = {k}, {} blocks of <= {} packets",
        spec.layout().expect("layout").num_blocks(),
        fec_broadcast::rse::max_k_for_ratio(2.5)
    );

    // A nasty burst channel: 33% loss in bursts averaging 10 packets.
    let channel = GilbertParams::new(0.05, 0.10).expect("params");
    println!(
        "channel: p = {}, q = {} -> p_global = {:.0}%, mean burst {:.0} packets\n",
        channel.p(),
        channel.q(),
        channel.global_loss_probability() * 100.0,
        channel.mean_burst_length().expect("lossy")
    );

    let trials = 20;
    for (label, tx) in [
        ("tx_model_1 (sequential)  ", TxModel::SourceSeqParitySeq),
        ("tx_model_2 (parity random)", TxModel::SourceSeqParityRandom),
        ("tx_model_5 (interleaved)  ", TxModel::Interleaved),
    ] {
        let mut ok = 0;
        let mut needed = 0u64;
        for seed in 0..trials {
            if let Ok(n) = attempt(&spec, &object, symbol, tx, channel, seed) {
                ok += 1;
                needed += n;
            }
        }
        let inef = if ok > 0 {
            format!("{:.3}", needed as f64 / ok as f64 / k as f64)
        } else {
            "-".into()
        };
        println!("{label}: {ok:>2}/{trials} decoded, mean inefficiency {inef}");
    }
    println!(
        "\nA burst wipes out consecutive packets; sequential order puts them all in\n\
         one block (unrecoverable), interleaving spreads them one-per-block (§4.7)."
    );
}
