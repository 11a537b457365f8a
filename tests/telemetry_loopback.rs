//! Acceptance test for the observability layer on a live session: the
//! full adaptive loop (the send engine → impaired link → receiver →
//! digests → feedback) instrumented into one registry, scraped over a
//! **real HTTP connection** mid-flight, with the structured event log
//! drained to JSONL and parsed back.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::rc::Rc;

use fec_broadcast::channel::{GilbertParams, LinkConfig, LinkEmulator, LossModel};
use fec_broadcast::flute::feedback::ReportConfig;
use fec_broadcast::flute::{FluteReceiver, FluteSender, SenderConfig};
use fec_broadcast::live::{self, DigestSource, PathSink, SendConfig};
use fec_broadcast::prelude::*;
use fec_broadcast::telemetry::EventRecord;
use fec_broadcast::wire::{BufferPool, PoolBuf};

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

/// The far end of the in-process link: the receiver and the digests it
/// has queued for the return trip.
struct FarEnd {
    receiver: FluteReceiver,
    digests: VecDeque<PoolBuf>,
}

/// The forward path: impaired link straight into the receiver, with one
/// scrape of the metrics endpoint a quarter of the way through.
struct ScrapedPath {
    link: LinkEmulator,
    far: Rc<RefCell<FarEnd>>,
    pool: BufferPool,
    metrics_addr: SocketAddr,
    scrape_at: u64,
    on_wire: u64,
    scraped_mid_session: bool,
}

impl PathSink for ScrapedPath {
    fn send_burst(&mut self, burst: &[Vec<u8>]) -> Result<(u64, u64), String> {
        let far = &mut *self.far.borrow_mut();
        let delivered = self.link.transmit_batch(burst);
        far.receiver.push_datagrams(&delivered).unwrap();
        let report = if far.receiver.all_complete() {
            far.receiver.flush_report()
        } else {
            far.receiver.poll_report()
        };
        if let Some(report) = report {
            far.digests
                .push_back(self.pool.buf_from(&report.to_bytes().unwrap()));
        }
        self.on_wire += burst.len() as u64;
        if !self.scraped_mid_session && self.on_wire >= self.scrape_at {
            // Mid-flight scrape: counters must already be moving.
            let body = scrape(self.metrics_addr);
            assert!(series_value(&body, "fec_session_datagrams_total{kind=\"data\"}") > 0.0);
            self.scraped_mid_session = true;
        }
        Ok((
            burst.len() as u64,
            burst.iter().map(|d| d.len() as u64).sum(),
        ))
    }

    fn dropped(&self) -> u64 {
        0 // the link is the channel here, not sender-side injection
    }
}

struct ReturnPath(Rc<RefCell<FarEnd>>);

impl DigestSource for ReturnPath {
    fn try_recv_digests(&mut self, max: usize) -> std::io::Result<Vec<(PoolBuf, SocketAddr)>> {
        let receiver_addr = SocketAddr::from(([127, 0, 0, 1], 4000));
        let digests = &mut self.0.borrow_mut().digests;
        let n = max.min(digests.len());
        Ok(digests.drain(..n).map(|d| (d, receiver_addr)).collect())
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
    let mut sender = FluteSender::new(SenderConfig::new(TSI));
    let objects: Vec<Vec<u8>> = (1..=2u32)
        .map(|toi| {
            (0..12_000)
                .map(|i| ((i as u32 * 37 + toi) % 251) as u8)
                .collect()
        })
        .collect();
    for (i, object) in objects.iter().enumerate() {
        sender
            .add_object(
                i as u32 + 1,
                format!("file:///obj-{}.bin", i + 1),
                object,
                fec_broadcast::codec::registry::resolve("ldgm-triangle").unwrap(),
                ExpansionRatio::R2_5,
                64,
                11 + i as u64,
                TxModel::Random,
            )
            .unwrap();
    }

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

    let mut receiver = FluteReceiver::new(TSI);
    receiver.enable_reports(ReportConfig {
        report_every: 64,
        ..ReportConfig::default()
    });
    receiver.attach_telemetry(&registry);
    let far = Rc::new(RefCell::new(FarEnd {
        receiver,
        digests: VecDeque::new(),
    }));
    let full = sender.data_packet_count();
    let mut paths = [ScrapedPath {
        link,
        far: far.clone(),
        pool: BufferPool::with_config(2048, 64),
        metrics_addr: server.local_addr(),
        scrape_at: full / 4,
        on_wire: 0,
        scraped_mid_session: false,
    }];

    // The engine registers the stream and feedback metric families and
    // writes the session's lifecycle into the event log itself.
    let outcome = live::send_session(
        &sender,
        0xFEED,
        &mut paths,
        Some(&mut ReturnPath(far.clone())),
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
    let far = &mut *far.borrow_mut();
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
