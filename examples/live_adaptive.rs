//! The live adaptive loop, end to end in one process: the engine the CLI
//! ships (`live::send_session`) streams a FLUTE session of twelve objects
//! through a Gilbert-impaired link, the receiver's reception-report
//! digests come back, and the feedback both amends each object in flight
//! (§6.2 re-planning, early stops) and redeploys the objects still to come
//! under the controller's (code, tx, ratio) tuple.
//!
//! This is `fec-broadcast send --adaptive` / `recv --report-to` in the
//! in-process world `fec-broadcast adapt` runs (`fec_broadcast::world`):
//! no sockets, and the whole run is deterministic. Run with:
//!
//! ```text
//! cargo run --release --example live_adaptive
//! ```

use fec_broadcast::adapt::Decision;
use fec_broadcast::live::SendConfig;
use fec_broadcast::world::Workload;

fn main() {
    // Twelve objects of k = 400 symbols, added at the conservative
    // prior's ratio 2.5: the sender does not know the channel yet.
    let workload = Workload::drifting(400, 12, 0x5EED);
    let prior = Decision::prior();
    let per_object = (workload.k as f64 * prior.ratio.as_f64()) as u64;
    let full = per_object * workload.objects as u64;
    let channel = workload.regimes()[0].params;
    println!(
        "session: {} × k = {} at {prior} → {full} data packets if sent statically\n\
         channel: p_global = {:.1}%, mean burst {:.1}\n",
        workload.objects,
        workload.k,
        channel.global_loss_probability() * 100.0,
        channel.mean_burst_length().unwrap()
    );

    let config = SendConfig {
        window: 5_000,
        replan_every: 64,
    };
    let (report, receiver) = workload.run(&prior, Some(&config)).unwrap();

    // What each object went out under, and what the feedback made of it.
    for o in &report.objects {
        let bound = o
            .estimated_loss_bound
            .map_or_else(|| "  -  ".into(), |b| format!("{:>4.1}%", b * 100.0));
        println!(
            "  object {:>2}: est bound {bound} | {} | sent {:>4} | decoded after {:>4}{}",
            o.toi,
            o.decision,
            o.n_sent,
            o.n_necessary.unwrap_or(0),
            if o.switched { "  ← redeployed" } else { "" },
        );
    }

    for toi in 1..=workload.objects {
        assert_eq!(
            receiver.object(toi).expect("decoded"),
            &workload.object(toi)[..],
            "object {toi} must decode byte-exactly"
        );
    }
    let on_wire: u64 = report.objects.iter().map(|o| o.n_sent).sum();
    let overhead = report.mean_sent_ratio() / prior.ratio.as_f64();
    println!(
        "\ndelivered all {} objects with {on_wire} data datagrams \
         ({:.0}% of the static worst-case {full}) after {} switch(es)",
        workload.objects,
        overhead * 100.0,
        report.switches()
    );

    assert!(on_wire < full, "the adaptive loop must save packets");
    assert!(
        overhead < 1.0,
        "overhead {overhead:.3} must undercut the static worst case"
    );
}
