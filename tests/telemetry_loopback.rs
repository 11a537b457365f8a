//! Acceptance test for the observability layer on a live session: the
//! full adaptive loop (the send engine → impaired link → receiver →
//! digests → feedback) instrumented into one registry, scraped over a
//! **real HTTP connection** mid-flight, with the structured event log
//! drained to JSONL and parsed back.

mod support;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use fec_broadcast::channel::{GilbertParams, LinkConfig, LinkEmulator, LossModel};
use fec_broadcast::live::{self, PathSink, SendConfig};
use fec_broadcast::prelude::*;
use fec_broadcast::telemetry::EventRecord;
use support::{Load, World};

const TSI: u32 = 33;

/// One plain-text HTTP GET against the metrics endpoint; returns the body.
fn scrape(addr: std::net::SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics endpoint");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has header/body split");
    assert!(
        head.starts_with("HTTP/1.1 200 OK"),
        "unexpected status line: {head}"
    );
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "missing exposition content type: {head}"
    );
    body.to_string()
}

/// The world's forward path, with one scrape of the metrics endpoint a
/// quarter of the way through.
struct ScrapedPath {
    path: support::Path,
    metrics_addr: SocketAddr,
    scrape_at: u64,
    on_wire: u64,
    scraped_mid_session: bool,
}

impl PathSink for ScrapedPath {
    fn send_burst(&mut self, burst: &[Vec<u8>]) -> Result<(u64, u64), String> {
        let sent = self.path.send_burst(burst)?;
        self.on_wire += burst.len() as u64;
        if !self.scraped_mid_session && self.on_wire >= self.scrape_at {
            // Mid-flight scrape: counters must already be moving.
            let body = scrape(self.metrics_addr);
            assert!(series_value(&body, "fec_session_datagrams_total{kind=\"data\"}") > 0.0);
            self.scraped_mid_session = true;
        }
        Ok(sent)
    }

    fn dropped(&self) -> u64 {
        self.path.dropped()
    }
}

/// Extracts the value of an exact series line (`name value` or
/// `name{labels} value`).
fn series_value(body: &str, series: &str) -> f64 {
    body.lines()
        .find_map(|l| {
            l.strip_prefix(series)
                .and_then(|rest| rest.strip_prefix(' '))
        })
        .unwrap_or_else(|| panic!("series {series:?} not in scrape:\n{body}"))
        .parse()
        .expect("series value parses")
}

#[test]
fn live_session_exposes_metrics_and_events() {
    let registry = Registry::new();
    let server = MetricsServer::bind("127.0.0.1:0", registry.clone()).expect("bind metrics");
    let events = EventLog::bounded(1024);

    // A two-object session over a bursty link, closed-loop as in the CLI.
    let load = Load {
        tsi: TSI,
        objects: 2,
        len: 12_000,
    };
    let sender = load.session(TxModel::Random, ExpansionRatio::R2_5);
    let objects: Vec<Vec<u8>> = (1..=load.objects).map(|toi| load.object(toi)).collect();

    let params = GilbertParams::new(0.02, 0.5).unwrap();
    let model: Box<dyn LossModel> = Box::new(GilbertChannel::new(params, 77));
    let mut link = LinkEmulator::with_config(
        model,
        LinkConfig {
            duplicate_rate: 0.005,
            reorder_rate: 0.01,
            reorder_depth: 2,
        },
        13,
    );
    link.attach_telemetry(&registry);
    let mut member = load.member(1, vec![link]);
    member.receiver.attach_telemetry(&registry);

    let (world, sinks, mut reports) = World::new(vec![member], 1);
    let full = sender.data_packet_count();
    let mut paths: Vec<ScrapedPath> = sinks
        .into_iter()
        .map(|path| ScrapedPath {
            path,
            metrics_addr: server.local_addr(),
            scrape_at: full / 4,
            on_wire: 0,
            scraped_mid_session: false,
        })
        .collect();

    // The engine registers the stream and feedback metric families and
    // writes the session's lifecycle into the event log itself.
    let outcome = live::send_session(
        &sender,
        0xFEED,
        &mut paths,
        Some(&mut reports),
        &SendConfig {
            window: 5_000,
            replan_every: 64,
        },
        Some((&registry, &events)),
    )
    .unwrap();
    let on_wire = outcome.sent;
    assert!(
        paths[0].scraped_mid_session,
        "session ended before the mid-flight scrape"
    );
    let far = &mut world.borrow_mut().members[0];
    for (i, object) in objects.iter().enumerate() {
        assert_eq!(
            far.receiver.object(i as u32 + 1).expect("decoded"),
            &object[..]
        );
    }
    far.receiver.finalize_telemetry();

    // Final scrape: every layer of the stack must have reported in.
    let body = scrape(server.local_addr());
    let data = series_value(&body, "fec_session_datagrams_total{kind=\"data\"}");
    assert!(
        data > 0.0 && data <= on_wire as f64,
        "sender counted {data} of {on_wire} emitted datagrams"
    );
    assert!(
        series_value(&body, "fec_replans_total") > 0.0,
        "feedback loop never re-planned"
    );
    assert!(
        series_value(&body, "fec_feedback_digests_total{outcome=\"folded\"}") > 0.0,
        "no digest reached the estimator"
    );
    // The estimator gauges exist even before convergence (value may be 0).
    series_value(&body, "fec_estimator_p");
    let offered = series_value(&body, "fec_link_datagrams_total{fate=\"offered\"}");
    let delivered = series_value(&body, "fec_link_datagrams_total{fate=\"delivered\"}");
    let link_dropped = series_value(&body, "fec_link_datagrams_total{fate=\"dropped\"}");
    let duplicated = series_value(&body, "fec_link_datagrams_total{fate=\"duplicated\"}");
    assert_eq!(
        offered + duplicated,
        delivered + link_dropped,
        "link conservation law broken in the scrape"
    );
    let rx = series_value(&body, "fec_rx_datagrams_total{result=\"data\"}");
    assert!(
        rx > 0.0 && rx <= delivered,
        "receiver saw {rx} of {delivered} delivered"
    );
    assert!(
        series_value(&body, "fec_loss_run_length_count") > 0.0,
        "no loss runs observed on a 2% channel"
    );
    // Both objects decoded, so every loss run was repaired: the residual
    // histogram stays empty and the repaired counter took them all.
    assert_eq!(
        series_value(&body, "fec_residual_loss_run_length_count"),
        0.0
    );
    assert!(series_value(&body, "fec_repaired_loss_runs_total") > 0.0);

    // Event log: JSONL-encode the drained records and parse them back.
    let records = events.drain();
    assert!(
        records.len() >= 4,
        "session start/end + 2 completions expected"
    );
    let jsonl: String = records
        .iter()
        .map(|r| serde_json::to_string(r).unwrap() + "\n")
        .collect();
    let parsed: Vec<EventRecord> = jsonl
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(parsed, records);
    assert!(matches!(parsed[0].event, Event::SessionStart { tsi, .. } if tsi == TSI as u64));
    assert!(
        matches!(
            parsed.last().unwrap().event,
            Event::SessionEnd { completed: 2, .. }
        ),
        "last event must be the session end"
    );
}
