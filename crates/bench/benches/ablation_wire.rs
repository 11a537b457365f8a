//! Wire-engine ablation: what batching the UDP syscalls buys on a real
//! loopback socket pair, path by path.
//!
//! Three configurations move the **same carousel** of indexed datagrams
//! through a loopback socket pair until every unique datagram has been
//! seen at least once. Each round trips a chunk of the carousel through
//! the kernel — send the chunk, drain it back — so the measurement is
//! the syscall + copy cost of the wire path itself, not the whims of the
//! thread scheduler (this matters on single-core CI boxes, where a
//! free-running sender thread would just measure preemption). UDP may
//! still drop under pressure — the carousel wraps and retransmits,
//! exactly like the FLUTE carousel the CLI ships, until the completion
//! flag trips:
//!
//! 1. `per_syscall` — one `send_to`/`recv_from` pair per datagram with a
//!    fresh buffer copy each time: the pre-engine CLI wire path, kept as
//!    the baseline.
//! 2. `batched` — `fec-wire`'s [`BatchSender`]/[`BatchReceiver`] on the
//!    platform backend with opportunistic UDP GSO/GRO offload: the full
//!    production configuration the CLI ships. On Linux a 64-datagram
//!    chunk becomes a couple of `sendmmsg` super-datagram entries and a
//!    handful of coalesced `recvmmsg` reads, so the kernel runs its
//!    per-packet UDP stack once per super-datagram instead of once per
//!    datagram (on loopback the syscall boundary is cheap; the per-packet
//!    stack walk is what batching actually has to amortise).
//! 3. `batched_portable` — the same engine API forced onto the portable
//!    loop backend with no offload, so the non-Linux fallback's overhead
//!    is measured, not assumed.
//!
//! Each path runs [`REPEATS`] times, the paths interleaved run by run,
//! and reports its median rate with the min and max; the headline ratio
//! is the ratio of medians, so one slow or lucky run cannot move it.
//!
//! Every path must deliver a **byte-identical** object (each datagram is
//! verified against its expected contents on arrival, and a checksum of
//! the reassembled object lands in the JSON so cross-path identity is
//! auditable). Results are printed and written to `BENCH_wire.json` at
//! the repository root.
//!
//! `FEC_WIRE_SMOKE=1` shrinks the carousel and the measurement window
//! for CI smoke runs; the committed JSON comes from a full run.

use std::net::UdpSocket;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fec_wire::{Backend, BatchReceiver, BatchSender, BufferPool, Pacer, MAX_BURST};

const PAYLOAD: usize = 1200;

/// Runs per path; the paths take turns, so a drifting host slows each
/// path's runs alike.
const REPEATS: usize = 5;

struct Workload {
    /// Distinct datagrams in the carousel.
    unique: usize,
    /// Keep the loop running at least this long so the rate settles.
    min_duration: Duration,
    /// Give up (panic) if a path has not completed by then.
    deadline: Duration,
    mode: &'static str,
}

impl Workload {
    fn from_env() -> Workload {
        if std::env::var("FEC_WIRE_SMOKE").is_ok_and(|v| v == "1") {
            Workload {
                unique: 256,
                min_duration: Duration::from_millis(200),
                deadline: Duration::from_secs(20),
                mode: "smoke",
            }
        } else {
            Workload {
                unique: 2048,
                min_duration: Duration::from_secs(1),
                deadline: Duration::from_secs(60),
                mode: "full",
            }
        }
    }
}

/// Datagram `i` of the carousel: 4-byte index, then a deterministic fill
/// that differs per index (so a mis-scattered receive cannot pass).
fn datagram(i: usize) -> Vec<u8> {
    let mut dg = Vec::with_capacity(PAYLOAD);
    dg.extend_from_slice(&(i as u32).to_be_bytes());
    dg.extend((4..PAYLOAD).map(|j| ((i * 31 + j * 7) % 251) as u8));
    dg
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// What one path measured.
struct PathResult {
    name: &'static str,
    received: u64,
    elapsed: Duration,
    checksum: u64,
    offload: bool,
}

impl PathResult {
    fn datagrams_per_sec(&self) -> f64 {
        self.received as f64 / self.elapsed.as_secs_f64()
    }
}

/// One path over all its runs: the median, min and max rate, and the
/// totals. Every run must have delivered the same bytes.
struct PathSummary {
    name: &'static str,
    median: f64,
    min: f64,
    max: f64,
    received: u64,
    elapsed: Duration,
    checksum: u64,
    offload: bool,
}

impl PathSummary {
    fn new(runs: Vec<PathResult>) -> PathSummary {
        let mut rates: Vec<f64> = runs.iter().map(PathResult::datagrams_per_sec).collect();
        rates.sort_by(f64::total_cmp);
        let mid = rates.len() / 2;
        let median = if rates.len() % 2 == 1 {
            rates[mid]
        } else {
            (rates[mid - 1] + rates[mid]) / 2.0
        };
        let first = &runs[0];
        assert!(
            runs.iter().all(|r| r.checksum == first.checksum),
            "{} delivered different bytes across its runs",
            first.name
        );
        PathSummary {
            name: first.name,
            median,
            min: rates[0],
            max: rates[rates.len() - 1],
            received: runs.iter().map(|r| r.received).sum(),
            elapsed: runs.iter().map(|r| r.elapsed).sum(),
            checksum: first.checksum,
            offload: runs.iter().all(|r| r.offload),
        }
    }

    fn median_mbits_per_sec(&self) -> f64 {
        self.median * (PAYLOAD as f64) * 8.0 / 1e6
    }
}

/// Shared receive bookkeeping: verify a datagram against the carousel,
/// record first sightings, and decide when the path is complete.
struct Reassembly {
    carousel: Arc<Vec<Vec<u8>>>,
    seen: Vec<bool>,
    remaining: usize,
    received: u64,
}

impl Reassembly {
    fn new(carousel: Arc<Vec<Vec<u8>>>) -> Reassembly {
        let unique = carousel.len();
        Reassembly {
            carousel,
            seen: vec![false; unique],
            remaining: unique,
            received: 0,
        }
    }

    fn accept(&mut self, dg: &[u8]) {
        assert!(dg.len() >= 4, "runt datagram on loopback");
        let i = u32::from_be_bytes([dg[0], dg[1], dg[2], dg[3]]) as usize;
        assert!(i < self.carousel.len(), "index {i} out of carousel range");
        assert_eq!(
            dg,
            self.carousel[i].as_slice(),
            "datagram {i} arrived corrupted"
        );
        self.received += 1;
        if !self.seen[i] {
            self.seen[i] = true;
            self.remaining -= 1;
        }
    }

    fn complete(&self) -> bool {
        self.remaining == 0
    }

    /// Checksum of the delivered object (the unique datagrams, in index
    /// order — identical across paths iff delivery was byte-identical).
    fn checksum(&self) -> u64 {
        assert!(self.complete());
        let mut object = Vec::with_capacity(self.carousel.len() * PAYLOAD);
        for dg in self.carousel.iter() {
            object.extend_from_slice(dg);
        }
        fnv1a(&object)
    }
}

fn socket_pair() -> (UdpSocket, UdpSocket, std::net::SocketAddr) {
    let rx = UdpSocket::bind("127.0.0.1:0").expect("bind receive socket");
    let dest = rx.local_addr().expect("local addr");
    rx.set_read_timeout(Some(Duration::from_millis(50)))
        .expect("read timeout");
    let tx = UdpSocket::bind("127.0.0.1:0").expect("bind send socket");
    (rx, tx, dest)
}

/// Baseline: the pre-engine wire path — one syscall per datagram on both
/// sides, one fresh `recv_from` buffer copy per datagram.
fn run_per_syscall(workload: &Workload, carousel: &Arc<Vec<Vec<u8>>>) -> PathResult {
    let (rx, tx, dest) = socket_pair();
    let mut reassembly = Reassembly::new(Arc::clone(carousel));
    let mut buf = [0u8; 2048];
    let hard_stop = Instant::now() + workload.deadline;
    let started = Instant::now();
    let elapsed = 'carousel: loop {
        for dg in carousel.iter() {
            tx.send_to(dg, dest).expect("loopback send");
            match rx.recv_from(&mut buf) {
                Ok((len, _)) => {
                    reassembly.accept(&buf[..len]);
                    let elapsed = started.elapsed();
                    if reassembly.complete() && elapsed >= workload.min_duration {
                        break 'carousel elapsed;
                    }
                }
                // The datagram was dropped; the carousel wraps and
                // retransmits it next round.
                Err(_) => assert!(
                    Instant::now() < hard_stop,
                    "per_syscall path did not complete within the deadline"
                ),
            }
        }
    };

    PathResult {
        name: "per_syscall",
        received: reassembly.received,
        elapsed,
        checksum: reassembly.checksum(),
        offload: false,
    }
}

/// The engine path, on whichever backend `backend` names: send a
/// 64-datagram chunk in one burst, drain it back in bursts. With
/// `offload`, UDP GSO/GRO is requested opportunistically — the CLI's
/// production configuration — and the JSON records whether the kernel
/// granted it.
fn run_engine(
    name: &'static str,
    backend: Backend,
    offload: bool,
    workload: &Workload,
    carousel: &Arc<Vec<Vec<u8>>>,
) -> PathResult {
    let (rx, tx, dest) = socket_pair();
    let mut sink =
        BatchSender::connect(tx, dest, backend, Pacer::unlimited()).expect("connect sender");
    // Full-size pool buffers: GRO needs room for a coalesced payload.
    let pool = BufferPool::new();
    let mut engine = BatchReceiver::new(rx, pool, backend);
    engine.request_recv_buffer(4 << 20);
    let mut granted = false;
    if offload {
        granted = sink.enable_gso().is_ok() && engine.enable_gro().is_ok();
        println!(
            "{name}: UDP GSO/GRO {}",
            if granted { "active" } else { "unavailable" }
        );
    }

    let mut reassembly = Reassembly::new(Arc::clone(carousel));
    let hard_stop = Instant::now() + workload.deadline;
    let started = Instant::now();
    let elapsed = 'carousel: loop {
        for chunk in carousel.chunks(MAX_BURST) {
            let refs: Vec<&[u8]> = chunk.iter().map(|d| d.as_slice()).collect();
            sink.send_burst(&refs).expect("loopback burst send");
            // Drain the chunk back; a short read timeout covers drops
            // (the carousel wraps and retransmits).
            let mut pending = chunk.len();
            while pending > 0 {
                // Under GRO one wire message may carry several coalesced
                // datagrams, so a burst can exceed the requested cap.
                match engine.recv_burst(pending.min(MAX_BURST)) {
                    Ok(burst) => {
                        pending = pending.saturating_sub(burst.len());
                        for dg in &burst {
                            reassembly.accept(dg);
                        }
                        let elapsed = started.elapsed();
                        if reassembly.complete() && elapsed >= workload.min_duration {
                            break 'carousel elapsed;
                        }
                    }
                    Err(_) => {
                        assert!(
                            Instant::now() < hard_stop,
                            "{name} path did not complete within the deadline"
                        );
                        break; // dropped: move on, the carousel repeats
                    }
                }
            }
        }
    };

    PathResult {
        name,
        received: reassembly.received,
        elapsed,
        checksum: reassembly.checksum(),
        offload: granted,
    }
}

fn main() {
    let workload = Workload::from_env();
    let carousel: Arc<Vec<Vec<u8>>> = Arc::new((0..workload.unique).map(datagram).collect());

    println!("================================================================");
    println!(
        "wire ablation ({}): {} x {} B carousel over 127.0.0.1 UDP",
        workload.mode, workload.unique, PAYLOAD
    );
    println!("================================================================");

    let mut runs: [Vec<PathResult>; 3] = Default::default();
    for _ in 0..REPEATS {
        runs[0].push(run_per_syscall(&workload, &carousel));
        runs[1].push(run_engine(
            "batched",
            Backend::platform_default(),
            true,
            &workload,
            &carousel,
        ));
        runs[2].push(run_engine(
            "batched_portable",
            Backend::Portable,
            false,
            &workload,
            &carousel,
        ));
    }
    let results = runs.map(PathSummary::new);

    println!(
        "\n{:<18} {:>14} {:>14} {:>14} {:>12} {:>10}",
        "path", "median dgram/s", "min", "max", "Mbit/s", "received"
    );
    for r in &results {
        println!(
            "{:<18} {:>14.0} {:>14.0} {:>14.0} {:>12.1} {:>10}",
            r.name,
            r.median,
            r.min,
            r.max,
            r.median_mbits_per_sec(),
            r.received
        );
    }

    let baseline = &results[0];
    let batched = &results[1];
    let speedup = batched.median / baseline.median;
    println!("\nbatched vs per_syscall: {speedup:.2}x median datagrams/s over {REPEATS} runs each");

    let identical = results.iter().all(|r| r.checksum == baseline.checksum);
    assert!(
        identical,
        "paths disagreed on the delivered bytes — checksums {:?}",
        results.iter().map(|r| r.checksum).collect::<Vec<_>>()
    );
    println!(
        "delivery byte-identical across all paths (fnv1a {:016x})",
        baseline.checksum
    );

    assert!(
        speedup >= 1.0,
        "the batched engine went SLOWER than one syscall per datagram \
         ({speedup:.2}x) — a regression in the burst path"
    );

    use std::fmt::Write as _;
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"ablation_wire\",");
    let _ = writeln!(json, "  \"arch\": \"{}\",", std::env::consts::ARCH);
    let _ = writeln!(json, "  \"host\": {},", fec_bench::output::host_json());
    let _ = writeln!(json, "  \"mode\": \"{}\",", workload.mode);
    let _ = writeln!(json, "  \"payload_bytes\": {PAYLOAD},");
    let _ = writeln!(json, "  \"unique_datagrams\": {},", workload.unique);
    let _ = writeln!(json, "  \"repeats\": {REPEATS},");
    let _ = writeln!(json, "  \"paths\": [");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"datagrams_per_sec\": {:.0}, \"datagrams_per_sec_min\": {:.0}, \
             \"datagrams_per_sec_max\": {:.0}, \"mbits_per_sec\": {:.1}, \"received\": {}, \
             \"elapsed_sec\": {:.4}, \"offload\": {}, \"checksum\": \"{:016x}\"}}{}",
            r.name,
            r.median,
            r.min,
            r.max,
            r.median_mbits_per_sec(),
            r.received,
            r.elapsed.as_secs_f64(),
            r.offload,
            r.checksum,
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"batched_speedup_vs_per_syscall\": {speedup:.2},");
    let _ = writeln!(json, "  \"delivery_byte_identical\": {identical}");
    let _ = writeln!(json, "}}");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wire.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
}
