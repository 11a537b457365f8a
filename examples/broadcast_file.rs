//! FLUTE-like carousel broadcast to heterogeneous receivers (§6.2.2).
//!
//! One sender, no feedback channel, five receivers behind very different
//! Gilbert channels (the paper's wireless scenario: "movement, obstacles,
//! distance to the source"). The sender cycles a Tx_model_4 schedule —
//! the paper's universal recommendation — and each receiver reports when it
//! finished and how many packets it needed.
//!
//! ```sh
//! cargo run --release --example broadcast_file
//! ```

use fec_broadcast::prelude::*;

struct Client {
    name: &'static str,
    channel: GilbertChannel,
    receiver: Option<Receiver>, // None once decoded
    received: u64,
    finished_at_cycle: Option<u32>,
}

fn main() {
    let object: Vec<u8> = (0..256 * 1024).map(|i| ((i * 31) % 251) as u8).collect();
    let symbol = 1024;

    // §6.2.2: unknown/heterogeneous channels -> (LDGM Triangle, Tx_model_4).
    let rec = &recommend(ChannelKnowledge::Unknown)[0];
    println!(
        "deployment: {:?} + {} — {}",
        rec.code,
        rec.tx.name(),
        rec.rationale
    );
    let spec = CodeSpec::for_object(rec.code.clone(), ExpansionRatio::R2_5, object.len(), symbol)
        .expect("valid parameters");
    let sender = Sender::new(spec.clone(), &object, symbol).expect("encode");
    println!(
        "object {} bytes, k = {}, n = {}\n",
        object.len(),
        sender.source_count(),
        sender.packet_count()
    );

    let mk = |name, p, q, seed| Client {
        name,
        channel: GilbertChannel::new(GilbertParams::new(p, q).expect("params"), seed),
        receiver: Some(Receiver::new(spec.clone(), object.len(), symbol).expect("session")),
        received: 0,
        finished_at_cycle: None,
    };
    let mut clients = vec![
        mk("wired-clean   (p=0.1%, q=90%)", 0.001, 0.90, 1),
        mk("dsl-typical   (p=1%,   q=80%)", 0.010, 0.80, 2),
        mk("wifi-fringe   (p=5%,   q=40%)", 0.050, 0.40, 3),
        mk("mobile-bursty (p=10%,  q=25%)", 0.100, 0.25, 4),
        mk("awful-outages (p=20%,  q=15%)", 0.200, 0.15, 5),
    ];

    let mut cycle = 0u32;
    while clients.iter().any(|c| c.receiver.is_some()) {
        cycle += 1;
        assert!(cycle <= 50, "carousel failed to converge");
        let schedule = rec.tx.schedule(sender.layout(), cycle as u64);
        for r in schedule {
            let symbol = sender.symbol(r).expect("valid ref");
            for client in clients.iter_mut() {
                let Some(rx) = client.receiver.as_mut() else {
                    continue;
                };
                if client.channel.next_is_lost() {
                    continue;
                }
                client.received += 1;
                if rx.push(r, symbol).expect("valid symbol").is_decoded() {
                    let rx = client.receiver.take().expect("present");
                    assert_eq!(rx.into_object().expect("decoded"), object);
                    client.finished_at_cycle = Some(cycle);
                }
            }
        }
        let done = clients.iter().filter(|c| c.receiver.is_none()).count();
        println!("cycle {cycle}: {done}/{} receivers complete", clients.len());
    }

    println!("\nper-receiver summary (k = {}):", sender.source_count());
    for c in &clients {
        println!(
            "  {} decoded in cycle {} after {:>6} packets (inefficiency {:.3})",
            c.name,
            c.finished_at_cycle.expect("all done"),
            c.received,
            c.received as f64 / sender.source_count() as f64
        );
    }
    println!(
        "\nNote how close the inefficiencies are despite wildly different channels —\n\
         that flatness is exactly why the paper recommends Tx_model_4 here (§6.2.2)."
    );
}
