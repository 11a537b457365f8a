//! `fec-broadcast` — command-line front end for the paper's workflows.
//!
//! ```text
//! fec-broadcast recommend [--p <p> --q <q>] [--high-loss]
//! fec-broadcast plan --k <k> --ratio <r> --inef <i> --p <p> --q <q> [--tolerance <n>]
//! fec-broadcast sweep --code <rse|staircase|triangle> --tx <1..6> --ratio <r>
//!                     [--k <k>] [--runs <n>] [--coarse]
//! fec-broadcast map [--ratio <r>]
//! ```
//!
//! Argument parsing is deliberately hand-rolled (the workspace's dependency
//! budget has no CLI crate); every command prints a paper-style report to
//! stdout.

use std::collections::HashMap;
use std::process::ExitCode;

use fec_broadcast::channel::analysis::FeasibilityLimit;
use fec_broadcast::channel::LinkEmulator;
use fec_broadcast::codec::{registry, CodecHandle};
use fec_broadcast::distrib;
use fec_broadcast::live;
use fec_broadcast::prelude::*;
use fec_broadcast::sim::report;
use fec_broadcast::wire::{Backend, BatchReceiver, BatchSender, BufferPool, Pacer, MAX_BURST};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let (opts, positionals) = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if command != "merge" && !positionals.is_empty() {
        eprintln!(
            "error: unexpected positional argument {:?}\n\n{USAGE}",
            positionals[0]
        );
        return ExitCode::FAILURE;
    }
    let result = check_flags(command, &opts).and_then(|()| match command.as_str() {
        "codecs" => cmd_codecs(&opts),
        "recommend" => cmd_recommend(&opts),
        "plan" => cmd_plan(&opts),
        "sweep" => cmd_sweep(&opts),
        "merge" => cmd_merge(&opts, &positionals),
        "map" => cmd_map(&opts),
        "adapt" => cmd_adapt(&opts),
        "send" => cmd_send(&opts),
        "recv" => cmd_recv(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
fec-broadcast — FEC scheduling & loss-distribution toolkit (INRIA RR-5578)

USAGE:
  fec-broadcast codecs
      List the registered erasure codecs (name, FTI id, (k, ratio)
      envelope). Every --code argument below accepts any listed name.

  fec-broadcast recommend [--p <p> --q <q>] [--high-loss]
      Rule-based §6.1 recommendations. With --p/--q: for that known channel.

  fec-broadcast plan --k <k> --ratio <r> --inef <i> --p <p> --q <q> [--tolerance <n>]
      Equation-3 transmission plan: how many packets to actually send.

  fec-broadcast sweep --code <name> --tx <1..6> --ratio <r>
                      [--k <k>] [--runs <n>] [--coarse] [--seed <n>]
                      [--out <file>] [--shard <i/n> --emit-partial]
                      [--metrics-addr <addr:port>] [--telemetry-log <path>]
      Monte-Carlo (p,q) grid sweep on an in-process work queue over all
      cores; prints a paper-style inefficiency table. --shard i/n runs
      only that round-robin slice of the plan and --emit-partial saves it
      as a self-contained partial file (--out, default stdout) for a later
      `merge` — the multi-host recipe. --out saves the merged result JSON.

  fec-broadcast merge <partial.json>... [--out <file>]
      Combines partial files produced by `sweep --shard i/n --emit-partial`
      (all hosts must use identical sweep parameters) into the full sweep
      result, checking that every work unit is covered exactly once.

  fec-broadcast map [--ratio <r>]
      ASCII feasibility region (paper Fig. 6) for the given expansion ratio.

  fec-broadcast adapt [--k <k>] [--epochs <n>] [--seed <n>] [--window <pkts>]
                      [--no-plan]
      Closed-loop demo: online Gilbert estimation + adaptive tuple/plan
      selection on a regime-switching channel, compared against the best
      and worst static configurations in hindsight.

  fec-broadcast send --file <path> (--dest <addr:port> | --paths <a1:p1,a2:p2,...>)
                     [--tsi <n>] [--code <name>] [--tx <1..6>]
                     [--ratio <r>] [--symbol <bytes>] [--seed <n>]
                     [--loss-p <p> --loss-q <q>] [--pace <micros>]
                     [--adaptive --report-addr <addr:port>]
                     [--window <pkts>] [--replan-every <pkts>]
                     [--metrics-addr <addr:port>] [--telemetry-log <path>]
      FLUTE/ALC file broadcast over UDP. --loss-p/--loss-q inject Gilbert
      losses at the sender for reproducible demos. --pace spaces datagrams
      that many microseconds apart so a human — or a Prometheus scrape —
      can watch a session (default 0: a 213 000 datagram/s ceiling).
      With --adaptive (--fanout is accepted as a synonym) the sender binds
      --report-addr for reception-report digests from any number of
      receivers: digests are keyed by source address and deduped per
      receiver, the worst receiver's loss sketch drives the online
      channel estimate, the transmission is truncated/extended live
      (§6.2 re-planning), receiver NACKs become targeted repair symbols,
      and the session ends when every tracked receiver reports it
      complete. Receivers run `recv --report-to` with the same address
      (add `--nack --population <n>` when many of them listen).
      --paths stripes the schedule across several destinations with a
      credit scheduler: source symbols prefer the first-listed (fastest)
      path, repair symbols the last — list links fastest-first. Pair
      with a `recv` whose --listen names the same addresses. --pace then
      applies per path. Replaces --dest; not combinable with --adaptive.

  fec-broadcast recv --listen <addr:port>[,<addr:port>...] [--tsi <n>] [--out <path>]
                     [--timeout <secs>]
                     [--report-to <addr:port>] [--report-every <pkts>]
                     [--population <n>] [--jitter-seed <n>]
                     [--backoff <exp>] [--nack]
                     [--metrics-addr <addr:port>] [--telemetry-log <path>]
      Join a FLUTE session and reconstruct the broadcast file. With
      --report-to, emit reception-report digests (one per --report-every
      received datagrams, default 128) to the sender's feedback port.
      --population scales the digest interval by n/log₂n (RTCP-style
      suppression: aggregate feedback stays O(log n) across n receivers);
      --jitter-seed de-synchronises report times ±25%; --backoff doubles
      the interval up to 2^exp while the channel stays clean. --nack adds
      per-block missing-ESI lists to each digest so an adaptive sender
      can emit targeted repairs. Several comma-separated --listen
      addresses bond the receive: one socket + drain thread per address,
      datagrams path-tagged into a single decoder (the receiving half of
      `send --paths`).

Observability (send / recv / sweep): --metrics-addr serves a Prometheus
text endpoint (`curl http://addr:port/metrics`) for the lifetime of the
command; --telemetry-log appends one JSON event per line to the given
file. With either flag, `send` also prints a SessionSummary
JSON document (goodput, overhead vs the static worst case, estimator
trajectory) on exit.

Probabilities are given as fractions (0.05 = 5%).";

/// Every flag each subcommand reads — the USAGE synopses above, as data.
/// A flag that is not listed is refused instead of silently ignored.
const FLAGS: [(&str, &str); 9] = [
    ("codecs", ""),
    ("recommend", "p q high-loss"),
    ("plan", "k ratio inef p q tolerance"),
    (
        "sweep",
        "code tx ratio k runs coarse seed out shard emit-partial metrics-addr telemetry-log",
    ),
    ("merge", "out"),
    ("map", "ratio"),
    ("adapt", "k epochs seed window no-plan"),
    (
        "send",
        "file dest paths tsi code tx ratio symbol seed loss-p loss-q pace adaptive fanout \
         report-addr window replan-every metrics-addr telemetry-log",
    ),
    (
        "recv",
        "listen tsi out timeout report-to report-every population jitter-seed backoff nack \
         metrics-addr telemetry-log",
    ),
];

/// `recv` flags that shape reception reports: without `--report-to` there
/// is no report for them to act on.
const REPORT_FLAGS: &str = "report-every population jitter-seed backoff nack";

/// Refuses any flag `command` does not read (an unknown command is the
/// dispatcher's error, not this one's).
fn check_flags(command: &str, opts: &HashMap<String, String>) -> Result<(), String> {
    let Some((_, known)) = FLAGS.iter().find(|(name, _)| *name == command) else {
        return Ok(());
    };
    let unknown = |key: &&String| !known.split_whitespace().any(|flag| flag == *key);
    let refuse = |key: &String| Err(format!("unknown option --{key} for '{command}'"));
    opts.keys().filter(unknown).min().map_or(Ok(()), refuse)
}

/// Minimal `--key value` / `--flag` parser; non-flag arguments that do not
/// follow a `--key` are collected as positionals (the `merge` subcommand's
/// partial files).
fn parse_opts(args: &[String]) -> Result<(HashMap<String, String>, Vec<String>), String> {
    let mut out = HashMap::new();
    let mut positionals = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let Some(key) = arg.strip_prefix("--") else {
            positionals.push(arg.clone());
            continue;
        };
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().expect("peeked").clone(),
            _ => String::from("true"), // bare flag
        };
        if out.insert(key.to_string(), value).is_some() {
            return Err(format!("--{key} given twice"));
        }
    }
    Ok((out, positionals))
}

fn get_f64(opts: &HashMap<String, String>, key: &str) -> Result<Option<f64>, String> {
    opts.get(key)
        .map(|v| {
            v.parse::<f64>()
                .map_err(|_| format!("--{key} {v:?} is not a number"))
        })
        .transpose()
}

fn require_f64(opts: &HashMap<String, String>, key: &str) -> Result<f64, String> {
    get_f64(opts, key)?.ok_or_else(|| format!("--{key} is required"))
}

fn get_usize(opts: &HashMap<String, String>, key: &str, default: usize) -> Result<usize, String> {
    match opts.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} {v:?} is not an integer")),
        None => Ok(default),
    }
}

/// A flag that is a 32-bit quantity where it lands (a TSI, a run count).
fn get_u32(opts: &HashMap<String, String>, key: &str, default: u32) -> Result<u32, String> {
    let n = get_usize(opts, key, default as usize)?;
    u32::try_from(n).map_err(|_| format!("--{key} {n} does not fit in 32 bits"))
}

fn channel_from(opts: &HashMap<String, String>) -> Result<Option<GilbertParams>, String> {
    channel_from_keys(opts, "p", "q")
}

/// Observability context shared by `send`, `recv` and `sweep`: the metric
/// registry (disabled — one dead branch per update site — unless a
/// telemetry flag is given), the Prometheus scrape endpoint, and the
/// structured event log with its optional JSONL sink.
struct Telemetry {
    registry: Registry,
    /// Holds the scrape endpoint open for the lifetime of the command.
    _server: Option<MetricsServer>,
    events: EventLog,
    sink: Option<JsonlSink>,
}

impl Telemetry {
    /// Parses `--metrics-addr` / `--telemetry-log`; with neither flag the
    /// registry is disabled and every instrument call is a no-op.
    fn from_opts(opts: &HashMap<String, String>) -> Result<Telemetry, String> {
        let metrics_addr = opts.get("metrics-addr");
        let log_path = opts.get("telemetry-log");
        let registry = if metrics_addr.is_some() || log_path.is_some() {
            Registry::new()
        } else {
            Registry::disabled()
        };
        let server = metrics_addr
            .map(|addr| {
                MetricsServer::bind(addr, registry.clone())
                    .map_err(|e| format!("metrics endpoint {addr}: {e}"))
            })
            .transpose()?;
        if let Some(server) = &server {
            eprintln!("serving metrics on http://{}/metrics", server.local_addr());
        }
        let sink = log_path
            .map(|p| {
                JsonlSink::create(std::path::Path::new(p))
                    .map_err(|e| format!("telemetry log {p}: {e}"))
            })
            .transpose()?;
        Ok(Telemetry {
            registry,
            _server: server,
            events: EventLog::bounded(4096),
            sink,
        })
    }

    fn enabled(&self) -> bool {
        self.registry.is_enabled()
    }

    /// Records `event` if telemetry is on (the log is bounded, so a burst
    /// between drains evicts oldest-first rather than growing).
    fn record(&self, event: Event) {
        if self.enabled() {
            self.events.record(event);
        }
    }

    /// Flushes buffered events to the JSONL sink, if one was requested.
    fn drain(&mut self) -> Result<(), String> {
        match &mut self.sink {
            Some(sink) => {
                sink.drain_from(&self.events)
                    .and_then(|_| sink.flush())
                    .map_err(|e| format!("telemetry log: {e}"))?;
            }
            None => {
                let _ = self.events.drain();
            }
        }
        Ok(())
    }
}

fn cmd_recommend(opts: &HashMap<String, String>) -> Result<(), String> {
    let knowledge = match (channel_from(opts)?, opts.contains_key("high-loss")) {
        (Some(ch), _) => {
            println!(
                "channel: p = {}, q = {} (p_global = {:.2}%, mean burst {:.1})\n",
                ch.p(),
                ch.q(),
                ch.global_loss_probability() * 100.0,
                ch.mean_burst_length().unwrap_or(f64::NAN)
            );
            ChannelKnowledge::Known(ch)
        }
        (None, true) => ChannelKnowledge::UnknownHighLoss,
        (None, false) => ChannelKnowledge::Unknown,
    };
    for (i, rec) in recommend(knowledge).iter().enumerate() {
        println!(
            "{}. {} + {} @ ratio {}\n   {}",
            i + 1,
            rec.code.name(),
            rec.tx.name(),
            rec.ratio.as_f64(),
            rec.rationale
        );
    }
    Ok(())
}

fn cmd_plan(opts: &HashMap<String, String>) -> Result<(), String> {
    let k = get_usize(opts, "k", 0)?;
    if k == 0 {
        return Err("--k is required".into());
    }
    let ratio = require_f64(opts, "ratio")?;
    let inef = require_f64(opts, "inef")?;
    let channel = channel_from(opts)?.ok_or("--p and --q are required")?;
    let tolerance = get_usize(opts, "tolerance", 0)? as u64;
    let n_total = (k as f64 * ratio).floor() as u64;
    let plan = TransmissionPlan::new(k, n_total, inef, channel, tolerance);
    println!(
        "object: k = {k}, n = {n_total} (ratio {ratio}); channel p_global = {:.2}%",
        plan.p_global * 100.0
    );
    println!(
        "send n_sent = {} packets (saves {} = {:.1}%)",
        plan.n_sent,
        plan.savings_packets(),
        plan.savings_fraction() * 100.0
    );
    println!(
        "expected deliveries: {:.0} for a requirement of {:.0} ({})",
        plan.expected_received(),
        plan.inefficiency * k as f64,
        if plan.is_sufficient() {
            "sufficient"
        } else {
            "INSUFFICIENT — even n packets cannot cover this channel"
        }
    );
    Ok(())
}

/// Parses `--code` against the codec registry (any registered name or
/// alias), defaulting to the paper's universal recommendation.
fn parse_code(
    opts: &HashMap<String, String>,
    default: Option<CodecHandle>,
) -> Result<CodecHandle, String> {
    match opts.get("code") {
        Some(token) => registry::resolve(token).map_err(|e| {
            format!(
                "{e} (try `fec-broadcast codecs`; registered: {})",
                registered_names().join(", ")
            )
        }),
        None => default.ok_or_else(|| {
            format!(
                "--code is required (one of: {})",
                registered_names().join(", ")
            )
        }),
    }
}

fn registered_names() -> Vec<String> {
    registry::registered()
        .iter()
        .map(|c| c.id().to_string())
        .collect()
}

fn cmd_codecs(_opts: &HashMap<String, String>) -> Result<(), String> {
    println!(
        "{:<16} {:<16} {:>6} {:>12} {:>13} {:>6} {:>6}",
        "name", "display", "fti", "k range", "ratio range", "seed", "block"
    );
    for code in registry::registered() {
        let env = code.envelope();
        println!(
            "{:<16} {:<16} {:>6} {:>12} {:>13} {:>6} {:>6}",
            code.id(),
            code.name(),
            code.fti_id()
                .map_or_else(|| "-".into(), |id| id.to_string()),
            format!("{}..{}", env.min_k, env.max_k),
            format!("{}..{}", env.min_ratio, env.max_ratio),
            if code.uses_matrix_seed() { "yes" } else { "no" },
            if code.is_large_block() {
                "large"
            } else {
                "small"
            },
        );
    }
    println!(
        "
aliases also resolve (e.g. \"staircase\", \"LdgmTriangle\", \"reed-solomon\");
ablation-only codecs (no FTI id) cannot be used with `send`."
    );
    Ok(())
}

/// Parses `--tx` as a paper model number.
fn parse_tx(opts: &HashMap<String, String>, default: Option<TxModel>) -> Result<TxModel, String> {
    match opts.get("tx").map(String::as_str) {
        Some("1") => Ok(TxModel::SourceSeqParitySeq),
        Some("2") => Ok(TxModel::SourceSeqParityRandom),
        Some("3") => Ok(TxModel::ParitySeqSourceRandom),
        Some("4") => Ok(TxModel::Random),
        Some("5") => Ok(TxModel::Interleaved),
        Some("6") => Ok(TxModel::tx6_paper()),
        Some(other) => Err(format!("unknown --tx {other:?} (1..6)")),
        None => default.ok_or_else(|| "--tx is required (1..6)".into()),
    }
}

/// Maps a numeric ratio onto the paper's enum values where exact.
fn ratio_from(r: f64) -> Result<ExpansionRatio, String> {
    if r < 1.0 {
        return Err(format!("--ratio {r} must be >= 1"));
    }
    Ok(if (r - 1.5).abs() < 1e-12 {
        ExpansionRatio::R1_5
    } else if (r - 2.5).abs() < 1e-12 {
        ExpansionRatio::R2_5
    } else {
        ExpansionRatio::Custom(r)
    })
}

/// Builds the sweep plan every `sweep`-family invocation shares: identical
/// flags on different hosts (or different `--shard` values) must produce
/// the identical plan document, or their partials will not merge.
fn sweep_plan(opts: &HashMap<String, String>) -> Result<(SweepPlan, String), String> {
    let code = parse_code(opts, None)?;
    let tx = parse_tx(opts, None)?;
    let ratio = ratio_from(require_f64(opts, "ratio")?)?;
    let k = get_usize(opts, "k", 2000)?;
    let runs = get_u32(opts, "runs", 20)?;
    let seed = get_usize(opts, "seed", SweepConfig::default().seed as usize)? as u64;
    let grid = if opts.contains_key("coarse") {
        fec_broadcast::channel::grid::GridKind::Coarse.to_vec()
    } else {
        fec_broadcast::channel::grid::GridKind::Paper.to_vec()
    };

    let experiment = Experiment::new(code.clone(), k, ratio, tx);
    let config = SweepConfig {
        runs,
        grid_p: grid.clone(),
        grid_q: grid,
        seed,
        ..SweepConfig::default()
    };
    let description = format!(
        "{} / {} / ratio {} at k = {k}, {runs} runs per cell",
        code.name(),
        tx.name(),
        ratio.as_f64()
    );
    let plan = SweepPlan::new(experiment, config).map_err(|e| e.to_string())?;
    Ok((plan, description))
}

fn print_sweep_result(result: &SweepResult) {
    println!("{}", report::paper_table(result));
    println!(
        "grand mean {} over {} decodable cells ({} masked)",
        result
            .grand_mean()
            .map_or_else(|| "-".into(), |m| format!("{m:.4}")),
        result.cells.len() - result.masked_cells(),
        result.masked_cells()
    );
}

fn write_or_print(out: Option<&String>, json: &str, what: &str) -> Result<(), String> {
    match out {
        Some(path) => {
            std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("{what} saved to {path}");
            Ok(())
        }
        None => {
            println!("{json}");
            Ok(())
        }
    }
}

fn cmd_sweep(opts: &HashMap<String, String>) -> Result<(), String> {
    let (plan, description) = sweep_plan(opts)?;

    // Multi-host path: run one round-robin shard and save its partial.
    if let Some(shard_arg) = opts.get("shard") {
        let shard = ShardSpec::parse(shard_arg).map_err(|e| e.to_string())?;
        if !opts.contains_key("emit-partial") {
            return Err(
                "--shard requires --emit-partial (run the slice, save the partial, \
                 combine later with `merge`)"
                    .into(),
            );
        }
        eprintln!("sweeping shard {shard} of {description}…");
        let partial = distrib::run_shard(&plan, &shard).map_err(|e| e.to_string())?;
        let units = partial.units.len();
        let file = PartialFile {
            plan,
            units: partial.units,
        };
        // JSONL (header line + one unit per line) so `merge` can fold the
        // file unit-by-unit in constant memory.
        let jsonl = file.to_jsonl().map_err(|e| e.to_string())?;
        write_or_print(
            opts.get("out"),
            jsonl.trim_end(),
            &format!("partial result ({units} work units)"),
        )?;
        return Ok(());
    }
    if opts.contains_key("emit-partial") {
        return Err("--emit-partial requires --shard i/n".into());
    }

    let mut telemetry = Telemetry::from_opts(opts)?;
    println!("sweeping {description}…\n");
    let result = execute_observed(&plan, &telemetry.registry).map_err(|e| e.to_string())?;
    telemetry.record(Event::SweepProgress {
        units_done: plan.unit_count() as u64,
        units_total: plan.unit_count() as u64,
    });
    telemetry.drain()?;
    print_sweep_result(&result);
    if let Some(path) = opts.get("out") {
        let json = serde_json::to_string(&result).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("sweep result saved to {path}");
    }
    Ok(())
}

/// Runs every unit of `plan` on the in-process work queue, folding each
/// accumulator into the merge as it completes and counting it into
/// `registry`, so a mid-run scrape shows live progress
/// (`fec_sweep_units_total` climbing to `fec_sweep_units_planned`).
fn execute_observed(
    plan: &SweepPlan,
    registry: &Registry,
) -> Result<SweepResult, distrib::DistribError> {
    let sweep = plan.prepare()?;
    let units = plan.units();
    let planned = registry.gauge("fec_sweep_units_planned", "Work units in the plan.");
    planned.set(units.len() as f64);
    let done = registry.counter("fec_sweep_units_total", "Work units executed so far.");
    let cores = || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let threads = plan.config.threads.unwrap_or_else(cores);
    let mut merge = distrib::StreamingMerge::new(plan.clone());
    let (_, folded) = sweep.execute_streamed(&units, threads, |i, accum| {
        done.inc();
        let unit_id = units[i].unit_id;
        merge.fold_unit(&distrib::UnitResult { unit_id, accum })
    });
    folded?;
    merge.finish()
}

fn cmd_merge(opts: &HashMap<String, String>, files: &[String]) -> Result<(), String> {
    if files.is_empty() {
        return Err("merge needs at least one partial file \
                    (produced by `sweep --shard i/n --emit-partial`)"
            .into());
    }
    // Streamed merge: each file folds into the plan's slot table one JSONL
    // unit line at a time, so multi-host merges at paper scale never load
    // a whole partial file into memory.
    let (result, total_units) = distrib::merge_paths(files).map_err(|e| e.to_string())?;
    eprintln!(
        "merged {} partial file(s) covering {total_units} work units\n",
        files.len()
    );
    print_sweep_result(&result);
    if let Some(path) = opts.get("out") {
        let json = serde_json::to_string(&result).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("merged sweep result saved to {path}");
    }
    Ok(())
}

fn cmd_map(opts: &HashMap<String, String>) -> Result<(), String> {
    let ratio = get_f64(opts, "ratio")?.unwrap_or(2.5);
    if ratio < 1.0 {
        return Err("--ratio must be >= 1".into());
    }
    let limit = FeasibilityLimit::ideal(ratio);
    println!(
        "decodable region for expansion ratio {ratio} (needs {:.0}% delivery):",
        limit.required_delivery_rate() * 100.0
    );
    println!("rows p = 0..1 top-down, cols q = 0..1 left-right; '#' feasible\n");
    let steps = 21;
    for pi in 0..steps {
        let p = pi as f64 / (steps - 1) as f64;
        let row: String = (0..steps)
            .map(|qi| {
                let q = qi as f64 / (steps - 1) as f64;
                if limit.is_feasible(p, q) {
                    '#'
                } else {
                    '.'
                }
            })
            .collect();
        println!("  p={p:>5.2} {row}");
    }
    Ok(())
}

fn cmd_adapt(opts: &HashMap<String, String>) -> Result<(), String> {
    use fec_broadcast::adapt::{AdaptiveRunner, ControllerConfig, Scenario};

    let k = get_usize(opts, "k", 400)?;
    let epochs = get_u32(opts, "epochs", 36)?;
    let seed = get_usize(opts, "seed", 0x5EED_AD47)? as u64;
    let window = get_usize(opts, "window", 2_500)?;
    if k == 0 || epochs == 0 {
        return Err("--k and --epochs must be positive".into());
    }
    if window < 2 {
        return Err("--window must be at least 2".into());
    }

    let scenario = Scenario::regime_switching(k, epochs, seed);
    let config = ControllerConfig {
        window,
        min_observations: (k / 2).max(200),
        confirm_after: 1,
        ..ControllerConfig::default()
    };
    let mut runner = AdaptiveRunner::new(scenario, config);
    if opts.contains_key("no-plan") {
        runner = runner.without_plan_truncation();
    }

    println!(
        "closed loop: k = {k}, {epochs} epochs, estimation window {window} packets\n\
         regimes (cycling):"
    );
    for (i, r) in runner.scenario().regimes.iter().enumerate() {
        println!(
            "  {}: p = {:.3}, q = {:.3} (p_global = {:.1}%, mean burst {:.1}) for {} packets",
            i,
            r.params.p(),
            r.params.q(),
            r.params.global_loss_probability() * 100.0,
            r.params.mean_burst_length().unwrap_or(f64::NAN),
            r.packets
        );
    }

    let comparison = runner.compare();
    println!(
        "\n{:>5} {:>9} {:>9} {:>7} {:>7} {:>7}  decision",
        "epoch", "true-loss", "est-bound", "sent", "inef", "status"
    );
    for e in &comparison.adaptive.epochs {
        let true_params = GilbertParams::new(e.true_p, e.true_q).map_err(|err| err.to_string())?;
        println!(
            "{:>5} {:>8.1}% {:>9} {:>7} {:>7} {:>7}  {}{}",
            e.epoch,
            true_params.global_loss_probability() * 100.0,
            e.estimated_loss_bound
                .map_or_else(|| "-".into(), |b| format!("{:.1}%", b * 100.0)),
            e.n_sent,
            e.inefficiency(comparison.adaptive.k)
                .map_or_else(|| "-".into(), |i| format!("{i:.3}")),
            if e.decoded { "ok" } else { "FAIL" },
            e.decision,
            if e.switched { "  <- switched" } else { "" },
        );
    }

    println!("\nsummary (penalized mean inefficiency; failures charged at the tuple's ratio):");
    println!(
        "  adaptive    : {:.4}  ({} switches, {} failures, mean sent ratio {:.3})",
        comparison.adaptive.penalized_mean_inefficiency(),
        comparison.adaptive.switches,
        comparison.adaptive.failures(),
        comparison.adaptive.mean_sent_ratio()
    );
    println!(
        "  static best : {:.4}  ({})",
        comparison.oracle.penalized_mean_inefficiency(),
        comparison.oracle_decision
    );
    println!(
        "  static worst: {:.4}  ({})",
        comparison.worst.penalized_mean_inefficiency(),
        comparison.worst_decision
    );
    println!(
        "  oracle gap {:.3}x; {} the static worst case",
        comparison.oracle_gap(),
        if comparison.beats_worst_case() {
            "beats"
        } else {
            "DOES NOT beat"
        }
    );
    Ok(())
}

fn cmd_send(opts: &HashMap<String, String>) -> Result<(), String> {
    use fec_broadcast::flute::{FluteSender, SenderConfig};

    let path = opts.get("file").ok_or("--file is required")?;
    let tsi = get_u32(opts, "tsi", 1)?;
    let code = parse_code(
        opts,
        Some(registry::resolve("ldgm-triangle").expect("builtin")),
    )?;
    let tx = parse_tx(opts, Some(TxModel::Random))?;
    let ratio = ratio_from(get_f64(opts, "ratio")?.unwrap_or(1.5))?;
    let symbol = get_usize(opts, "symbol", 1024)?;
    let seed = get_usize(opts, "seed", 1)? as u64;
    let pace_micros = get_usize(opts, "pace", 0)? as u64;
    let injected = channel_from_keys(opts, "loss-p", "loss-q")?;
    // --fanout is a spelling of --adaptive: one receiver reporting is a
    // population of one.
    let adaptive = opts.contains_key("adaptive") || opts.contains_key("fanout");
    let dests: Vec<&str> = match (opts.get("paths"), opts.get("dest")) {
        (Some(_), Some(_)) => {
            return Err("--paths replaces --dest (give every destination in --paths)".into())
        }
        (Some(_), None) if adaptive => {
            return Err("--paths stripes a static schedule; it cannot combine with \
                 --adaptive or --fanout (run the feedback loop on one path)"
                .into())
        }
        (Some(paths), None) => split_addrs("paths", paths)?,
        (None, Some(dest)) => vec![dest.as_str()],
        (None, None) => Vec::new(),
    };
    if dests.is_empty() {
        return Err("--dest is required (addr:port), or --paths a1:p1,a2:p2,...".into());
    }

    let object = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let name = std::path::Path::new(path)
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "object.bin".into());

    let mut session = FluteSender::new(SenderConfig::new(tsi));
    session
        .add_object(
            1,
            name.clone(),
            &object,
            code.clone(),
            ratio,
            symbol,
            seed,
            tx,
        )
        .map_err(|e| e.to_string())?;

    let mut telemetry = Telemetry::from_opts(opts)?;
    // One wire stack per path. Injected loss (if any) walks an
    // independent Gilbert process per path, seeded per index, so a demo
    // shows genuinely heterogeneous links; path 0 keeps the loss-process
    // seed single-path sessions have always used, so a given --seed
    // reproduces the same erasure pattern.
    let mut paths = Vec::with_capacity(dests.len());
    for (i, dest) in dests.iter().enumerate() {
        let socket = std::net::UdpSocket::bind("0.0.0.0:0").map_err(|e| e.to_string())?;
        let mut wire_tx = BatchSender::connect(
            socket,
            resolve_dest(dest)?,
            Backend::detect(),
            pacer_from_micros(pace_micros),
        )
        .map_err(|e| format!("connect {dest}: {e}"))?;
        if telemetry.enabled() {
            wire_tx.attach_telemetry(&telemetry.registry);
        }
        // Opportunistic UDP GSO: the wire format is unchanged (the kernel
        // segments super-datagrams), so a refusal just means
        // per-datagram sends.
        if wire_tx.enable_gso().is_ok() {
            eprintln!("wire: UDP generic segmentation offload active on path {i}");
        }
        let link = injected.map(|params| {
            let link_seed = seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9)) ^ 0x10c0;
            LinkEmulator::new(Box::new(GilbertChannel::new(params, link_seed)), link_seed)
        });
        paths.push(live::WirePath::new(wire_tx, link));
    }

    // The reception-report return channel, if anyone reports. Digests
    // ride the batched engine's address-aware control-plane poll: the
    // source address is the aggregator's receiver key.
    let mut report_rx = if adaptive {
        let addr = opts
            .get("report-addr")
            .ok_or("--adaptive requires --report-addr (addr:port to receive digests on)")?;
        let socket = std::net::UdpSocket::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let mut rx =
            BatchReceiver::new(socket, BufferPool::with_config(2048, 64), Backend::detect());
        if telemetry.enabled() {
            rx.attach_telemetry(&telemetry.registry);
        }
        Some(rx)
    } else {
        None
    };
    let config = live::SendConfig {
        window: get_usize(opts, "window", 20_000)?,
        replan_every: get_usize(opts, "replan-every", 64)?,
    };
    let outcome = live::send_session(
        &session,
        seed,
        &mut paths,
        report_rx
            .as_mut()
            .map(|rx| rx as &mut dyn live::DigestSource),
        &config,
        telemetry
            .enabled()
            .then_some((&telemetry.registry, &telemetry.events)),
    )?;
    println!(
        "sent '{name}' ({} bytes) to {}: {} datagrams transmitted, {} dropped by injected loss\n\
         session: tsi {tsi}, {} + {} @ ratio {}, {symbol}-byte symbols",
        object.len(),
        dests.join(","),
        outcome.sent,
        outcome.dropped,
        code.name(),
        tx.name(),
        ratio.as_f64()
    );
    if dests.len() > 1 {
        for (i, (dest, p)) in dests.iter().zip(&outcome.paths).enumerate() {
            println!(
                "  path {i} -> {dest}: {} datagrams ({} source, {} repair)",
                p.datagrams, p.source, p.repair
            );
        }
    }
    if telemetry.enabled() {
        println!("{}", outcome.summary.to_json());
    }
    telemetry.drain()?;
    Ok(())
}

/// Splits a comma-separated `addr:port` list (`--paths`, `--listen`).
/// Every address is one path, and a receiver keeps at most
/// `MAX_PATH_TRACKS` per-path EXT_SEQ spaces apart: beyond that, gaps on
/// one path would register as loss on another.
fn split_addrs<'a>(flag: &str, list: &'a str) -> Result<Vec<&'a str>, String> {
    use fec_broadcast::flute::feedback::MAX_PATH_TRACKS;
    let addrs: Vec<&str> = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if addrs.len() > MAX_PATH_TRACKS {
        return Err(format!(
            "--{flag} names {} addresses; a session has at most {MAX_PATH_TRACKS} paths",
            addrs.len()
        ));
    }
    Ok(addrs)
}

/// Maps `--pace <micros>` onto the wire engine's token bucket.
/// `--pace 1000` stretches a loopback session to something a metrics
/// scrape (or a human with `curl`) can observe mid-flight: any explicit
/// value paces at exactly `1e6 / micros` datagrams/s with a one-syscall
/// burst allowance. 0, the default, is *not* handed to
/// `Pacer::per_datagram_micros` (where 0 means unlimited): a loopback
/// receiver's kernel queue overflows at full blast, so the CLI caps an
/// unpaced session at 213 000 datagrams/s instead.
fn pacer_from_micros(micros: u64) -> Pacer {
    if micros == 0 {
        Pacer::rate(213_000.0, MAX_BURST as u32)
    } else {
        Pacer::per_datagram_micros(micros)
    }
}

/// Resolves `addr:port` to the first usable socket address.
fn resolve_dest(dest: &str) -> Result<std::net::SocketAddr, String> {
    use std::net::ToSocketAddrs;
    dest.to_socket_addrs()
        .map_err(|e| format!("resolve {dest}: {e}"))?
        .next()
        .ok_or_else(|| format!("{dest}: no usable address"))
}

fn cmd_recv(opts: &HashMap<String, String>) -> Result<(), String> {
    use fec_broadcast::flute::feedback::ReportConfig;
    use fec_broadcast::flute::FluteReceiver;

    let listen = opts
        .get("listen")
        .ok_or("--listen is required (addr:port, or a1:p1,a2:p2,... to bond)")?;
    let addrs = split_addrs("listen", listen)?;
    if addrs.is_empty() {
        return Err("--listen needs at least one addr:port".into());
    }
    let report_flag = REPORT_FLAGS.split(' ').find(|f| opts.contains_key(*f));
    if let (None, Some(flag)) = (opts.get("report-to"), report_flag) {
        return Err(format!(
            "unknown option --{flag} for 'recv' without --report-to"
        ));
    }
    let tsi = get_u32(opts, "tsi", 1)?;
    let timeout = get_usize(opts, "timeout", 10)? as u64;
    let report_every = get_usize(opts, "report-every", 128)?.max(1);

    let mut telemetry = Telemetry::from_opts(opts)?;
    println!(
        "listening on {listen} for FLUTE session tsi {tsi} \
         ({} path(s), timeout {timeout}s)…",
        addrs.len()
    );

    // The reception-report return channel, if the sender runs adaptively.
    let reporting = match opts.get("report-to") {
        Some(addr) => {
            let report_socket =
                std::net::UdpSocket::bind("0.0.0.0:0").map_err(|e| e.to_string())?;
            Some((report_socket, addr.clone()))
        }
        None => None,
    };

    // Drain each socket on a dedicated thread so a slow decode never lets
    // the kernel receive buffer overflow (which silently drops datagrams
    // the FEC budget then has to absorb twice). The drain rides the
    // batched engine: one `recvmmsg` syscall per burst, pooled buffers
    // instead of a fresh allocation per datagram, and an error
    // discipline (see [`live::drain_loop`]) that retries `EINTR` and
    // survives transient socket errors instead of silently ending the
    // session. Every socket's drain tags its datagrams with the path
    // index (one `--listen` address is path 0; several are the receiving
    // half of `send --paths`), so per-path sequence accounting stays
    // honest.
    let pool = BufferPool::new();
    if telemetry.enabled() {
        pool.attach_telemetry(&telemetry.registry);
    }
    let (datagram_tx, datagram_rx) = std::sync::mpsc::channel();
    for (path, addr) in addrs.iter().enumerate() {
        let socket = std::net::UdpSocket::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        socket
            .set_read_timeout(Some(std::time::Duration::from_secs(timeout)))
            .map_err(|e| e.to_string())?;
        let mut wire_rx = BatchReceiver::new(socket, pool.clone(), Backend::detect());
        wire_rx.request_recv_buffer(4 << 20);
        // Opportunistic UDP GRO: coalesced payloads are split back into
        // the original datagrams before decode, so decoding is
        // offload-agnostic.
        if wire_rx.enable_gro().is_ok() {
            eprintln!("wire: UDP generic receive offload active on {addr}");
        }
        if telemetry.enabled() {
            wire_rx.attach_telemetry(&telemetry.registry);
        }
        drop(live::spawn_drain(wire_rx, path, datagram_tx.clone()));
    }
    // The decode side must observe disconnect when every drain ends.
    drop(datagram_tx);

    let mut session = FluteReceiver::new(tsi);
    if reporting.is_some() {
        session.enable_reports(ReportConfig {
            report_every,
            population_hint: (get_usize(opts, "population", 1)? as u64).max(1),
            jitter_seed: get_usize(opts, "jitter-seed", 0)? as u64,
            max_backoff_exp: get_u32(opts, "backoff", 0)?,
            ..ReportConfig::default()
        });
        if opts.contains_key("nack") {
            session.enable_nacks();
        }
    }
    if telemetry.enabled() {
        session.attach_telemetry(&telemetry.registry);
    }
    let events = telemetry.events.clone();
    let record_events = telemetry.enabled();
    let ship = |report: &fec_broadcast::flute::ReceptionReport| -> Result<(), String> {
        if record_events {
            events.record(Event::DigestEmitted {
                report_seq: report.report_seq as u64,
                observations: report.observations(),
            });
        }
        if let Some((sock, addr)) = &reporting {
            let bytes = report.to_bytes().map_err(|e| e.to_string())?;
            sock.send_to(&bytes, addr.as_str())
                .map_err(|e| format!("report to {addr}: {e}"))?;
        }
        Ok(())
    };

    // The decode loop lives in [`live::receive_session`]: bursts from the
    // drain threads feed the decoder's batched path, digests ship through
    // the *lossy* return channel (a failed send is counted, never fatal),
    // and a malformed datagram costs itself, not its burst.
    let config = live::ReceiveConfig {
        rejected_counter: Some(telemetry.registry.counter(
            "fec_session_rejected_datagrams_total",
            "Datagrams the receiver rejected as malformed or undecodable.",
        )),
        ship_failure_counter: Some(telemetry.registry.counter(
            "fec_session_report_ship_failures_total",
            "Reception-report digests that failed to ship (lossy return channel).",
        )),
        ..Default::default()
    };
    let outcome = live::receive_session(&mut session, &datagram_rx, ship, &config)?;
    let live::ReceiveOutcome { toi, datagrams, .. } = outcome;
    if outcome.rejected > 0 || outcome.ship_failures > 0 {
        eprintln!(
            "survived wire faults: {} datagrams rejected, {} digests unshipped",
            outcome.rejected, outcome.ship_failures
        );
    }
    telemetry.record(Event::ObjectComplete { toi });
    // Attribute any loss runs still unrepaired to the residual histogram
    // before the final scrape / event drain.
    session.finalize_telemetry();
    telemetry.drain()?;

    let location = session
        .fdt()
        .and_then(|f| f.file(toi))
        .map(|f| f.content_location.clone())
        .unwrap_or_else(|| format!("toi-{toi}.bin"));
    let received = session.packets_received(toi);
    let object = session.take_object(toi).expect("object completed");
    let out_path = opts.get("out").cloned().unwrap_or_else(|| {
        std::path::Path::new(&location)
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| format!("toi-{toi}.bin"))
    });
    std::fs::write(&out_path, &object).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!(
        "decoded '{location}' -> {out_path}: {} bytes from {received} data packets \
         ({datagrams} datagrams consumed)",
        object.len()
    );
    Ok(())
}

/// A Gilbert channel from a `--<p_key>`/`--<q_key>` pair, if given.
fn channel_from_keys(
    opts: &HashMap<String, String>,
    p_key: &str,
    q_key: &str,
) -> Result<Option<GilbertParams>, String> {
    match (get_f64(opts, p_key)?, get_f64(opts, q_key)?) {
        (Some(p), Some(q)) => GilbertParams::new(p, q)
            .map(Some)
            .map_err(|e| e.to_string()),
        (None, None) => Ok(None),
        _ => Err(format!("--{p_key} and --{q_key} must be given together")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counters a scrape of `sweep --metrics-addr` shows: the planned
    /// unit count is there before the first unit is, the done count climbs
    /// one unit at a time to meet it, and the result is the library's.
    #[test]
    fn sweep_progress_counters_track_the_executor() {
        let grid = vec![0.0, 0.05, 0.1, 0.2];
        let plan = SweepPlan::new(
            Experiment::new(
                registry::resolve("ldgm-staircase").unwrap(),
                300,
                ExpansionRatio::R2_5,
                TxModel::Random,
            ),
            SweepConfig {
                runs: 40,
                grid_p: grid.clone(),
                grid_q: grid,
                seed: 7,
                threads: Some(2),
                ..SweepConfig::default()
            },
        )
        .unwrap()
        .with_runs_per_unit(2);
        let planned = plan.unit_count();
        assert_eq!(planned, 320);

        let metrics = Registry::new();
        let units_planned = metrics.gauge("fec_sweep_units_planned", "");
        let units_done = metrics.counter("fec_sweep_units_total", "");
        let mut samples = vec![(units_planned.get(), units_done.get())];
        let result = std::thread::scope(|scope| {
            let sweep = scope.spawn(|| execute_observed(&plan, &metrics));
            while !sweep.is_finished() {
                // Counter first: the gauge is set before any unit counts.
                let done = units_done.get();
                let sample = (units_planned.get(), done);
                if samples.last() != Some(&sample) {
                    samples.push(sample);
                }
                std::thread::yield_now();
            }
            sweep.join().expect("sweep thread").unwrap()
        });
        samples.push((units_planned.get(), units_done.get()));

        assert_eq!(samples[0], (0.0, 0));
        assert_eq!(samples[samples.len() - 1], (planned as f64, planned as u64));
        for pair in samples.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "done count fell: {pair:?}");
        }
        for &(gauge, done) in &samples {
            assert!(gauge == 0.0 || gauge == planned as f64, "{gauge}");
            assert!(
                done == 0 || gauge == planned as f64,
                "counted before planned"
            );
        }
        assert!(
            samples
                .iter()
                .any(|&(gauge, done)| gauge == planned as f64 && done > 0 && done < planned as u64),
            "no scrape saw the sweep under way: {samples:?}"
        );
        assert_eq!(
            serde_json::to_string(&result).unwrap(),
            serde_json::to_string(&distrib::execute_plan(&plan).unwrap()).unwrap()
        );
    }
}
