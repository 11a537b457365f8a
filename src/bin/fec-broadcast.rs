//! `fec-broadcast` — command-line front end for the paper's workflows;
//! `fec-broadcast help` prints every subcommand's synopsis ([`USAGE`]).
//!
//! Argument parsing is deliberately hand-rolled (the workspace's
//! dependency budget has no CLI crate): argv is tokenised once into
//! [`Args`], and each subcommand's parse declares every flag it reads
//! exactly once — name, arity, type, range, default — into typed
//! arguments (`SweepArgs`, `SendArgs`, `RecvArgs`; locals for the small
//! commands) before anything runs. Every command prints a paper-style
//! report to stdout.

use std::process::ExitCode;
use std::time::Duration;

use fec_broadcast::adapt::Decision;
use fec_broadcast::channel::analysis::FeasibilityLimit;
use fec_broadcast::channel::grid::GridKind::{Coarse, Paper};
use fec_broadcast::channel::LinkEmulator;
use fec_broadcast::codec::registry;
use fec_broadcast::core::{decode_probability, optimal_n_sent};
use fec_broadcast::flute::feedback::{ReportConfig, MAX_PATH_TRACKS};
use fec_broadcast::live;
use fec_broadcast::prelude::*;
use fec_broadcast::sim::{
    merge_paths, report, PartialFile, Shard, SimError, SweepPlan, UnitResult,
};
use fec_broadcast::wire::{Backend, BatchReceiver, BatchSender, BufferPool, Pacer, MAX_BURST};
use fec_broadcast::world::{self, Workload};

/// Every `println!` below is this one: a closed stdout (`sweep … | head`)
/// ends the command quietly — the reader has seen enough — where std's
/// panics in the middle of a report.
macro_rules! println {
    ($($arg:tt)*) => { print_line(format_args!($($arg)*)) };
}

fn print_line(line: std::fmt::Arguments) {
    use std::io::Write;
    if let Err(e) = writeln!(std::io::stdout(), "{line}") {
        let closed = e.kind() == std::io::ErrorKind::BrokenPipe;
        if !closed {
            eprintln!("error: stdout: {e}");
        }
        std::process::exit(i32::from(!closed));
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    // Wrong arguments are answered with the subcommand's synopsis (an
    // unknown command with all of them); a command that fails at run time
    // — socket, file, decode timeout — with its error alone.
    let failure = match run(&mut Args::new(&command, argv)) {
        Ok(ran) => ran.err(),
        Err(e) => Some(format!("{e}\n\n{}", synopsis(&command))),
    };
    let Some(e) = failure else {
        return ExitCode::SUCCESS;
    };
    eprintln!("error: {e}");
    ExitCode::FAILURE
}

/// Parses `a` as its subcommand's arguments, then runs it. The outer
/// error says the arguments were wrong; the inner one that the command
/// failed at run time (the commands that only print cannot).
fn run(a: &mut Args) -> Result<Result<(), String>, String> {
    match a.command.as_str() {
        "codecs" => cmd_codecs(a).map(Ok),
        "recommend" => cmd_recommend(a).map(Ok),
        "plan" => cmd_plan(a).map(Ok),
        "sweep" => SweepArgs::parse(a).map(cmd_sweep),
        "merge" => parse_merge(a).map(cmd_merge),
        "map" => cmd_map(a).map(Ok),
        "adapt" => cmd_adapt(a).map(Ok),
        "send" => SendArgs::parse(a).map(cmd_send),
        "recv" => RecvArgs::parse(a).map(cmd_recv),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(Ok(()))
        }
        "" => Err("no command given".into()),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Each synopsis names every flag its subcommand's parse reads, with the
/// same placeholder — `tests::every_synopsis_is_what_its_parse_reads`
/// holds the two to each other, both ways.
const USAGE: &str = "\
fec-broadcast — FEC scheduling & loss-distribution toolkit (INRIA RR-5578)

USAGE:
  fec-broadcast codecs
      List the registered erasure codecs (name, FTI id, (k, ratio)
      envelope). Every --code argument below accepts any listed name.

  fec-broadcast recommend [--p <p> --q <q>] [--high-loss]
      Rule-based §6.1 recommendations. With --p/--q: for that known channel.

  fec-broadcast plan --k <k> --ratio <r> --inef <i> --p <p> --q <q>
      §6.2 plan: the fewest sends decoded w.p. 0.999, beside equation 3.

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
      The live send engine's closed loop, in process: --epochs objects over
      a regime-switching channel, each re-planned in flight and redeployed
      under the controller's tuple when due, against every static tuple
      sent in full. --window is the estimator's sliding window,
      2..=10000000 packets (default 2500).

  fec-broadcast send --file <path> (--dest <addr:port> | --paths <a1:p1,a2:p2,...>)
                     [--tsi <n>] [--code <name>] [--tx <1..6>]
                     [--ratio <r>] [--symbol <bytes>] [--seed <n>]
                     [--loss-p <p> --loss-q <q>] [--pace <micros>]
                     [--adaptive --report-addr <addr:port>
                      [--window <pkts>] [--replan-every <pkts>]]
                     [--metrics-addr <addr:port>] [--telemetry-log <path>]
      FLUTE/ALC file broadcast over UDP. --loss-p/--loss-q inject Gilbert
      losses at the sender for reproducible demos. --pace spaces datagrams
      that many microseconds apart so a human — or a Prometheus scrape —
      can watch a session (default 0: a 213 000 datagram/s ceiling).
      With --adaptive the sender binds --report-addr for reception-report
      digests from any number of receivers: digests are keyed by source
      address and deduped per receiver, the worst receiver's loss sketch
      drives the online channel estimate (over a sliding --window of
      2..=10000000 packets, default 20000), the transmission is
      truncated/extended live (§6.2 re-planning, every --replan-every
      datagrams, default 64), receiver NACKs become targeted repair
      symbols, and the session ends when every tracked receiver reports
      it complete. Receivers run `recv --report-to` with the same address
      (add `--nack --population <n>` when many of them listen).
      --paths stripes the schedule across several destinations with a
      credit scheduler: source symbols prefer the first-listed (fastest)
      path, repair symbols the last — list links fastest-first. Pair
      with a `recv` whose --listen names the same addresses. --pace then
      applies per path. A path whose sends fail is retired and the rest
      carry on. Replaces --dest.

  fec-broadcast recv --listen <addr:port>[,<addr:port>...] [--tsi <n>] [--out <path>]
                     [--timeout <secs>]
                     [--report-to <addr:port> [--report-every <pkts>]
                      [--population <n>] [--jitter-seed <n>]
                      [--backoff <exp>] [--nack]]
                     [--metrics-addr <addr:port>] [--telemetry-log <path>]
      Join a FLUTE session and write every file it decodes, until every
      file its FDT lists has (--out names the file of a one-file
      session). With --report-to, emit reception-report digests (one per
      --report-every received datagrams, default 128) to the sender's
      feedback port. --population scales the digest interval by n/log₂n
      (RTCP-style suppression: aggregate feedback stays O(log n) across
      n receivers); --jitter-seed de-synchronises report times ±25%;
      --backoff doubles the interval up to 2^exp while the channel stays
      clean. --nack adds per-block missing-ESI lists to each digest so
      an adaptive sender can emit targeted repairs. Several
      comma-separated --listen addresses bond the receive: one socket +
      drain thread per address, datagrams path-tagged into a single
      decoder (the receiving half of `send --paths`).

Observability (send / recv / sweep): --metrics-addr serves a Prometheus
text endpoint (`curl http://addr:port/metrics`) for the lifetime of the
command; --telemetry-log appends one JSON event per line to the given
file. With either flag, `send` also prints a SessionSummary
JSON document (goodput, overhead vs the static worst case, estimator
trajectory) on exit.

Probabilities are given as fractions (0.05 = 5%).";

/// `command`'s synopsis lines out of [`USAGE`] (its prose is indented less
/// than they continue) — all of `USAGE` for a command it does not list.
fn synopsis(command: &str) -> String {
    let first = |l: &&str| l.starts_with("  fec-") && l.split(' ').nth(3) == Some(command);
    let continued = |l: &&str| first(l) || l.starts_with("          ");
    let lines: Vec<&str> = USAGE
        .lines()
        .skip_while(|l| !first(l))
        .take_while(continued)
        .collect();
    match lines.is_empty() {
        true => USAGE.to_string(),
        false => format!("usage:\n{}", lines.join("\n")),
    }
}

type Name = &'static str;
type Range = std::ops::RangeInclusive<u64>;
/// What asking for a flag yields: `None` when argv did not have it.
type Flag<T> = Result<Option<T>, String>;

/// argv after the subcommand, tokenised once. The cursor knows nothing
/// about any subcommand: a parse asks it for each flag it reads — a
/// switch takes its own token only, a value flag always takes the next
/// one too — and whatever nobody asked for is the error [`Args::rest`]
/// reports.
struct Args {
    command: String,
    /// `None` once a flag has taken the token.
    tokens: Vec<Option<String>>,
    /// Every flag asked for so far: name, placeholder (`None`: a switch)
    /// and whether argv had it.
    declared: Vec<(Name, Option<Name>, bool)>,
}

const ANY: Range = 0..=u64::MAX;
const POSITIVE: Range = 1..=u64::MAX;

impl Args {
    fn new(command: &str, argv: impl Iterator<Item = String>) -> Args {
        Args {
            command: command.to_string(),
            tokens: argv.map(Some).collect(),
            declared: Vec::new(),
        }
    }

    /// Takes `--name` out of argv: the index after it, if it was there.
    fn take(&mut self, name: Name, hint: Option<Name>) -> Flag<usize> {
        let flag = Some(format!("--{name}"));
        let at = self.tokens.iter().position(|token| *token == flag);
        self.declared.push((name, hint, at.is_some()));
        let Some(at) = at else { return Ok(None) };
        self.tokens[at] = None;
        match self.tokens.contains(&flag) {
            true => Err(format!("--{name} given twice")),
            false => Ok(Some(at + 1)),
        }
    }

    fn switch(&mut self, name: Name) -> Result<bool, String> {
        Ok(self.take(name, None)?.is_some())
    }

    fn value(&mut self, name: Name, hint: Name) -> Flag<String> {
        let Some(next) = self.take(name, Some(hint))? else {
            return Ok(None);
        };
        match self.tokens.get_mut(next).and_then(Option::take) {
            Some(value) if !value.starts_with("--") => Ok(Some(value)),
            _ => Err(format!("--{name} needs a value: --{name} {hint}")),
        }
    }

    /// A value of type `T` — `what` it must look like, for the error.
    fn parsed<T: std::str::FromStr>(&mut self, name: Name, hint: Name, what: &str) -> Flag<T> {
        let parse = |v: String| {
            v.parse()
                .map_err(|_| format!("--{name} {v:?} is not {what}"))
        };
        self.value(name, hint)?.map(parse).transpose()
    }

    /// An integer inside `range`, as the integer type it lands in.
    fn int<T: TryFrom<u64>>(&mut self, name: Name, hint: Name, range: Range) -> Flag<T> {
        let Some(n) = self.parsed::<u64>(name, hint, "an integer")? else {
            return Ok(None);
        };
        let ((lo, hi), bits) = (range.into_inner(), 8 * std::mem::size_of::<T>());
        match T::try_from(n) {
            Ok(landed) if (lo..=hi).contains(&n) => Ok(Some(landed)),
            Ok(_) if (n, lo) == (0, 1) => Err(format!("--{name} must be positive")),
            Ok(_) => Err(format!("--{name} {n} must be in {lo}..={hi}")),
            Err(_) => Err(format!("--{name} {n} does not fit in {bits} bits")),
        }
    }

    /// The flags declared since `declared[mode]` only mean something under
    /// that one: any of them given without it is refused.
    fn only_under(&self, mode: usize) -> Result<(), String> {
        let mut group = self.declared.iter().skip(mode);
        match (group.next(), group.find(|flag| flag.2)) {
            (Some((mode, _, false)), Some((stray, ..))) => Err(format!(
                "unknown option --{stray} for '{}' without --{mode}",
                self.command
            )),
            _ => Ok(()),
        }
    }

    /// Ends the parse: a `--flag` nobody declared is refused, and what
    /// else is left are the positional arguments.
    fn rest(&mut self) -> Result<Vec<String>, String> {
        let rest: Vec<String> = self.tokens.drain(..).flatten().collect();
        match rest.iter().find(|token| token.starts_with("--")) {
            Some(flag) => Err(format!("unknown option {flag} for '{}'", self.command)),
            None => Ok(rest),
        }
    }

    /// [`rest`](Args::rest) for a subcommand without positionals.
    fn finish(&mut self) -> Result<(), String> {
        match self.rest()?.first() {
            Some(stray) => Err(format!("unexpected argument {stray:?}")),
            None => Ok(()),
        }
    }
}

/// The estimator window `adapt` and `send --adaptive` accept: at least one
/// transition, at most 10 MB of loss history.
const WINDOW: Range = 2..=10_000_000;

/// Flags more than one subcommand reads, each declared here once.
impl Args {
    /// A Gilbert channel from a `--<p> --<q>` pair: both or neither.
    fn channel(&mut self, p: Name, q: Name) -> Flag<GilbertParams> {
        let p_value = self.parsed(p, "<p>", "a number")?;
        match (p_value, self.parsed(q, "<q>", "a number")?) {
            (Some(p), Some(q)) => GilbertParams::new(p, q)
                .map(Some)
                .map_err(|e| e.to_string()),
            (None, None) => Ok(None),
            _ => Err(format!("--{p} and --{q} must be given together")),
        }
    }

    /// `--code`, against the codec registry (any registered name or alias).
    fn code(&mut self) -> Flag<CodecHandle> {
        let names = registered_names();
        let unknown = |e| format!("{e} (try `fec-broadcast codecs`; registered: {names})");
        let resolve = |token: String| registry::resolve(&token).map_err(unknown);
        self.value("code", "<name>")?.map(resolve).transpose()
    }

    /// `--tx`, as a paper model number.
    fn tx(&mut self) -> Flag<TxModel> {
        let model = |number: usize| TxModel::paper_models()[number - 1];
        Ok(self.int("tx", "<1..6>", 1..=6)?.map(model))
    }

    /// `--ratio`, mapped onto the paper's enum values where exact.
    fn ratio(&mut self) -> Flag<ExpansionRatio> {
        let exact = |r: f64| match r {
            r if !(1.0..f64::INFINITY).contains(&r) => Err(format!("--ratio {r} must be >= 1")),
            r if (r - 1.5).abs() < 1e-12 => Ok(ExpansionRatio::R1_5),
            r if (r - 2.5).abs() < 1e-12 => Ok(ExpansionRatio::R2_5),
            r => Ok(ExpansionRatio::Custom(r)),
        };
        let ratio = self.parsed("ratio", "<r>", "a number")?;
        ratio.map(exact).transpose()
    }

    /// A comma-separated `addr:port` list (`--paths`, `--listen`). Every
    /// address is one path, and a receiver keeps at most
    /// `MAX_PATH_TRACKS` per-path EXT_SEQ spaces apart: beyond that, gaps
    /// on one path would register as loss on another.
    fn addrs(&mut self, name: Name, hint: Name) -> Flag<Vec<String>> {
        let list = self.value(name, hint)?.unwrap_or_default();
        let addrs = list.split(',').map(str::trim).filter(|s| !s.is_empty());
        let addrs: Vec<String> = addrs.map(String::from).collect();
        if addrs.len() > MAX_PATH_TRACKS {
            return Err(format!(
                "--{name} names {} addresses; a session has at most {MAX_PATH_TRACKS} paths",
                addrs.len()
            ));
        }
        Ok(Some(addrs).filter(|addrs| !addrs.is_empty()))
    }

    fn window(&mut self) -> Flag<usize> {
        self.int("window", "<pkts>", WINDOW)
    }

    fn telemetry(&mut self) -> Result<TelemetryArgs, String> {
        Ok(TelemetryArgs {
            metrics_addr: self.value("metrics-addr", "<addr:port>")?,
            log: self.value("telemetry-log", "<path>")?,
        })
    }
}

fn registered_names() -> String {
    let names: Vec<String> = registry::registered()
        .iter()
        .map(|c| c.id().to_string())
        .collect();
    names.join(", ")
}

/// `--metrics-addr` / `--telemetry-log` of `send`, `recv` and `sweep`.
struct TelemetryArgs {
    metrics_addr: Option<String>,
    log: Option<String>,
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
    /// With neither flag the registry is disabled and every instrument
    /// call is a no-op.
    fn open(args: &TelemetryArgs) -> Result<Telemetry, String> {
        let registry = if args.metrics_addr.is_some() || args.log.is_some() {
            Registry::new()
        } else {
            Registry::disabled()
        };
        let bind = |addr: &String| {
            MetricsServer::bind(addr, registry.clone())
                .map_err(|e| format!("metrics endpoint {addr}: {e}"))
        };
        let server = args.metrics_addr.as_ref().map(bind).transpose()?;
        if let Some(server) = &server {
            eprintln!("serving metrics on http://{}/metrics", server.local_addr());
        }
        let create = |p: &String| {
            JsonlSink::create(std::path::Path::new(p))
                .map_err(|e| format!("telemetry log {p}: {e}"))
        };
        let sink = args.log.as_ref().map(create).transpose()?;
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
        let Some(sink) = &mut self.sink else {
            return Ok(());
        };
        let flushed = sink.drain_from(&self.events).and_then(|_| sink.flush());
        flushed.map_err(|e| format!("telemetry log: {e}"))
    }
}

fn cmd_recommend(a: &mut Args) -> Result<(), String> {
    let channel = a.channel("p", "q")?;
    let high_loss = a.switch("high-loss")?;
    a.finish()?;
    let knowledge = match channel {
        Some(ch) => {
            println!(
                "channel: p = {}, q = {} (p_global = {:.2}%, mean burst {:.1})\n",
                ch.p(),
                ch.q(),
                ch.global_loss_probability() * 100.0,
                ch.mean_burst_length().unwrap_or(f64::NAN)
            );
            ChannelKnowledge::Known(ch)
        }
        None if high_loss => ChannelKnowledge::UnknownHighLoss,
        None => ChannelKnowledge::Unknown,
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

fn cmd_plan(a: &mut Args) -> Result<(), String> {
    let k: Option<usize> = a.int("k", "<k>", POSITIVE)?;
    let ratio = a.ratio()?;
    let inef: Option<f64> = a.parsed("inef", "<i>", "a number")?;
    let channel = a.channel("p", "q")?;
    a.finish()?;
    let k = k.ok_or("--k is required")?;
    let ratio = ratio.ok_or("--ratio is required")?.as_f64();
    let inef = inef.ok_or("--inef is required")?;
    let channel = channel.ok_or("--p and --q are required")?;
    // Equation 3 is defined for neither: a receiver never needs fewer
    // packets than k, and a channel that loses every packet never
    // delivers the ones it needs.
    if !(inef.is_finite() && inef >= 1.0) {
        return Err(format!("--inef {inef} must be a finite number >= 1"));
    }
    if channel.global_loss_probability() >= 1.0 {
        return Err(format!(
            "--p {} --q {} loses every packet (p_global = 1)",
            channel.p(),
            channel.q()
        ));
    }
    let n_total = (k as f64 * ratio).floor() as u64;
    let need = [((inef * k as f64).ceil() as u64, 1)];
    let decodes = |n| decode_probability(&need, channel, n);
    let eq3 = optimal_n_sent(k, inef, channel.global_loss_probability());
    println!(
        "object: k = {k}, n = {n_total} (ratio {ratio}); channel p_global = {:.2}%",
        channel.global_loss_probability() * 100.0
    );
    println!(
        "equation 3: n_sent = {eq3}, decoded w.p. {:.4}",
        decodes(eq3)
    );
    match TransmissionPlan::new(n_total, &need, channel, 1) {
        Some(plan) => println!(
            "plan: send {} packets (saves {} = {:.1}%), decoded w.p. {:.4}",
            plan.n_sent,
            plan.savings_packets(),
            plan.savings_fraction() * 100.0,
            plan.decode_probability
        ),
        None => println!("no plan: all {n_total} decode w.p. {:.4}", decodes(n_total)),
    }
    Ok(())
}

fn cmd_codecs(a: &mut Args) -> Result<(), String> {
    a.finish()?;
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

struct SweepArgs {
    /// What `--code --tx --ratio --k --runs --coarse --seed` ask for:
    /// identical flags on different hosts (or different `--shard` values)
    /// must produce the identical plan document, or their partials will
    /// not merge.
    plan: SweepPlan,
    description: String,
    out: Option<String>,
    /// `--shard i/n --emit-partial`: run that slice, save its partial.
    shard: Option<Shard>,
    telemetry: TelemetryArgs,
}

impl SweepArgs {
    fn parse(a: &mut Args) -> Result<SweepArgs, String> {
        let (code, tx, ratio) = (a.code()?, a.tx()?, a.ratio()?);
        let k: usize = a.int("k", "<k>", POSITIVE)?.unwrap_or(2000);
        let runs = a.int("runs", "<n>", POSITIVE)?.unwrap_or(20);
        let coarse = a.switch("coarse")?;
        let seed = a.int("seed", "<n>", ANY)?;
        let out = a.value("out", "<file>")?;
        let shard_mode = a.declared.len();
        let shard = a.value("shard", "<i/n>")?;
        let emit_partial = a.switch("emit-partial")?;
        a.only_under(shard_mode)?;
        let telemetry = a.telemetry()?;
        a.finish()?;
        if shard.is_some() && !emit_partial {
            return Err(
                "--shard requires --emit-partial (save the slice, `merge` it later)".into(),
            );
        }
        let shard = shard.map(|spec| Shard::parse(&spec).map_err(|e| e.to_string()));
        let codes = registered_names();
        let code = code.ok_or(format!("--code is required (one of: {codes})"))?;
        let tx = tx.ok_or("--tx is required (1..6)")?;
        let ratio = ratio.ok_or("--ratio is required")?;
        let description = format!(
            "{} / {} / ratio {ratio} at k = {k}, {runs} runs per cell",
            code.name(),
            tx.name()
        );
        let grid = if coarse { Coarse } else { Paper }.to_vec();
        let config = SweepConfig {
            runs,
            grid_p: grid.clone(),
            grid_q: grid,
            seed: seed.unwrap_or(SweepConfig::default().seed),
            ..SweepConfig::default()
        };
        Ok(SweepArgs {
            plan: SweepPlan::new(Experiment::new(code, k, ratio, tx), config),
            description,
            out,
            shard: shard.transpose()?,
            telemetry,
        })
    }
}

/// Prints the paper-style table, then saves the result where `--out` says.
fn report_sweep(result: &SweepResult, out: Option<String>, what: &str) -> Result<(), String> {
    println!("{}", report::paper_table(result));
    println!(
        "grand mean {} over {} decodable cells ({} masked)",
        result
            .grand_mean()
            .map_or_else(|| "-".into(), |m| format!("{m:.4}")),
        result.cells.len() - result.masked_cells(),
        result.masked_cells()
    );
    let Some(path) = out else { return Ok(()) };
    let json = serde_json::to_string(result).map_err(|e| e.to_string())?;
    write_or_print(Some(path), &json, what)
}

fn write_or_print(out: Option<String>, json: &str, what: &str) -> Result<(), String> {
    match out {
        Some(path) => {
            std::fs::write(&path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("{what} saved to {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn cmd_sweep(args: SweepArgs) -> Result<(), String> {
    let (plan, description) = (args.plan, args.description);

    // Multi-host path: run one round-robin shard and save its partial.
    if let Some(shard) = args.shard {
        eprintln!("sweeping shard {shard} of {description}…");
        let sweep = GridSweep::new(plan.experiment.clone(), plan.config.clone());
        let units = shard.select(&plan.units());
        let accums = sweep.map_err(|e| e.to_string())?.execute_units(&units);
        let what = format!("partial result ({} work units)", units.len());
        let units = units.iter().zip(accums).map(|(u, accum)| {
            let unit_id = u.unit_id;
            UnitResult { unit_id, accum }
        });
        // JSONL (header line + one unit per line) so `merge` can fold the
        // file unit by unit.
        let units = units.collect();
        let file = PartialFile { plan, units };
        let jsonl = file.to_jsonl().map_err(|e| e.to_string())?;
        return write_or_print(args.out, jsonl.trim_end(), &what);
    }

    let mut telemetry = Telemetry::open(&args.telemetry)?;
    println!("sweeping {description}…\n");
    let result = execute_observed(&plan, &telemetry.registry).map_err(|e| e.to_string())?;
    let units = plan.config.unit_count(plan.runs_per_unit);
    telemetry.record(Event::SweepProgress {
        units_done: units,
        units_total: units,
    });
    telemetry.drain()?;
    report_sweep(&result, args.out, "sweep result")
}

/// Runs every unit of `plan` on the in-process work queue, adding each
/// accumulator into its cell as it completes and counting it into
/// `registry`, so a mid-run scrape shows live progress
/// (`fec_sweep_units_total` climbing to `fec_sweep_units_planned`).
fn execute_observed(plan: &SweepPlan, registry: &Registry) -> Result<SweepResult, SimError> {
    let sweep = GridSweep::new(plan.experiment.clone(), plan.config.clone())?;
    let units = plan.units();
    let planned = registry.gauge("fec_sweep_units_planned", "Work units in the plan.");
    planned.set(units.len() as f64);
    let done = registry.counter("fec_sweep_units_total", "Work units executed so far.");
    Ok(sweep.execute_observed(&units, || done.inc()))
}

/// The partial files to combine, and `--out`.
fn parse_merge(a: &mut Args) -> Result<(Vec<String>, Option<String>), String> {
    let out = a.value("out", "<file>")?;
    let files = a.rest()?;
    if files.is_empty() {
        return Err("merge needs at least one partial file \
                    (produced by `sweep --shard i/n --emit-partial`)"
            .into());
    }
    Ok((files, out))
}

fn cmd_merge((files, out): (Vec<String>, Option<String>)) -> Result<(), String> {
    // Streamed merge: each file folds into the plan's slot table one JSONL
    // unit line at a time, so multi-host merges at paper scale never load
    // a whole partial file into memory.
    let (result, total_units) = merge_paths(&files).map_err(|e| e.to_string())?;
    eprintln!(
        "merged {} partial file(s) covering {total_units} work units\n",
        files.len()
    );
    report_sweep(&result, out, "merged sweep result")
}

fn cmd_map(a: &mut Args) -> Result<(), String> {
    let ratio = a.ratio()?.map_or(2.5, |r| r.as_f64());
    a.finish()?;
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

/// A failing session is a `--k` outside the codecs' envelope, so every
/// error here is an argument error.
fn cmd_adapt(a: &mut Args) -> Result<(), String> {
    let k: usize = a.int("k", "<k>", POSITIVE)?.unwrap_or(400);
    let epochs = a.int::<u32>("epochs", "<n>", POSITIVE)?.unwrap_or(36);
    let seed = a.int("seed", "<n>", ANY)?.unwrap_or(0x5EED_AD47);
    let window = a.window()?.unwrap_or(2_500);
    a.finish()?;
    // Every object is encoded before its session starts (16-byte symbols).
    if k as u64 * u64::from(epochs) > 1 << 22 {
        return Err("--k × --epochs must stay within 4194304 source symbols".into());
    }
    let workload = Workload::drifting(k, epochs, seed);
    println!(
        "closed loop: k = {k}, {epochs} epochs, estimation window {window} packets\n\
         regimes (cycling):"
    );
    for (i, r) in workload.regimes().iter().enumerate() {
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

    // The static sessions go first: nobody reports on them, so they print
    // nothing on stderr, and a reader that hangs up early ends the
    // command here.
    println!("\nstatic baselines (every object at its full schedule, nobody reporting):");
    let mut statics = Vec::new();
    for decision in world::static_candidates() {
        let (report, _) = workload.run(&decision, None)?;
        let cost = report.penalized_mean_inefficiency();
        println!("  {cost:.4}  ({} failures)  {decision}", report.failures());
        statics.push((cost, decision));
    }
    statics.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (Some(best), Some(worst)) = (statics.first(), statics.last()) else {
        return Err("no static candidates".into());
    };

    let config = live::SendConfig {
        window,
        ..Default::default()
    };
    let (adaptive, _) = workload.run(&Decision::prior(), Some(&config))?;
    println!(
        "\n{:>5} {:>9} {:>9} {:>7} {:>7} {:>7}  decision",
        "epoch", "true-loss", "est-bound", "sent", "inef", "status"
    );
    for (epoch, o) in adaptive.objects.iter().enumerate() {
        let (inefficiency, status) = match o.n_necessary {
            Some(n) => (format!("{:.3}", n as f64 / k as f64), "ok"),
            None => ("-".into(), "FAIL"),
        };
        println!(
            "{:>5} {:>8.1}% {:>9} {:>7} {:>7} {:>7}  {}{}",
            epoch,
            o.true_loss * 100.0,
            o.estimated_loss_bound
                .map_or_else(|| "-".into(), |b| format!("{:.1}%", b * 100.0)),
            o.n_sent,
            inefficiency,
            status,
            o.decision,
            if o.switched { "  <- switched" } else { "" },
        );
    }

    let cost = adaptive.penalized_mean_inefficiency();
    println!("\nsummary (penalized mean inefficiency; failures charged at the tuple's ratio):");
    println!(
        "  adaptive    : {cost:.4}  ({} switches, {} failures, mean sent ratio {:.3})",
        adaptive.switches(),
        adaptive.failures(),
        adaptive.mean_sent_ratio()
    );
    println!("  static best : {:.4}  ({})", best.0, best.1);
    println!("  static worst: {:.4}  ({})", worst.0, worst.1);
    println!(
        "  oracle gap {:.3}x; {} the static worst case",
        cost / best.0,
        if cost < worst.0 {
            "beats"
        } else {
            "DOES NOT beat"
        }
    );
    Ok(())
}

struct SendArgs {
    file: String,
    /// `--dest`, or every address of `--paths`.
    dests: Vec<String>,
    tsi: u32,
    code: CodecHandle,
    tx: TxModel,
    ratio: ExpansionRatio,
    symbol: usize,
    seed: u64,
    /// `--loss-p/--loss-q`: Gilbert loss injected at the sender.
    injected: Option<GilbertParams>,
    pace_micros: u64,
    /// `--adaptive`: where digests arrive, and the feedback loop's knobs.
    feedback: Option<(String, live::SendConfig)>,
    telemetry: TelemetryArgs,
}

impl SendArgs {
    fn parse(a: &mut Args) -> Result<SendArgs, String> {
        let file = a.value("file", "<path>")?;
        let dest = a.value("dest", "<addr:port>")?;
        let paths = a.addrs("paths", "<a1:p1,a2:p2,...>")?;
        let tsi = a.int("tsi", "<n>", ANY)?.unwrap_or(1);
        let code = a.code()?;
        let tx = a.tx()?.unwrap_or(TxModel::Random);
        let ratio = a.ratio()?.unwrap_or(ExpansionRatio::R1_5);
        let symbol = a.int("symbol", "<bytes>", POSITIVE)?.unwrap_or(1024);
        let seed = a.int("seed", "<n>", ANY)?.unwrap_or(1);
        let injected = a.channel("loss-p", "loss-q")?;
        let pace_micros = a.int("pace", "<micros>", ANY)?.unwrap_or(0);
        let adaptive_mode = a.declared.len();
        let adaptive = a.switch("adaptive")?;
        let report_addr = a.value("report-addr", "<addr:port>")?;
        let lib = live::SendConfig::default();
        let config = live::SendConfig {
            window: a.window()?.unwrap_or(lib.window),
            replan_every: a
                .int("replan-every", "<pkts>", POSITIVE)?
                .unwrap_or(lib.replan_every),
        };
        a.only_under(adaptive_mode)?;
        let telemetry = a.telemetry()?;
        a.finish()?;
        if paths.is_some() && dest.is_some() {
            return Err("--paths replaces --dest (give every destination in --paths)".into());
        }
        let dests = paths.or(dest.map(|dest| vec![dest]));
        let report_addr = report_addr
            .ok_or("--adaptive requires --report-addr (addr:port to receive digests on)");
        let feedback = adaptive.then_some(report_addr).transpose()?;
        Ok(SendArgs {
            file: file.ok_or("--file is required")?,
            dests: dests.ok_or("--dest is required (addr:port), or --paths a1:p1,a2:p2,...")?,
            tsi,
            code: code.unwrap_or(registry::resolve("ldgm-triangle").expect("builtin")),
            tx,
            ratio,
            symbol,
            seed,
            injected,
            pace_micros,
            feedback: feedback.map(|addr| (addr, config)),
            telemetry,
        })
    }
}

fn cmd_send(args: SendArgs) -> Result<(), String> {
    let (path, dests, code) = (&args.file, &args.dests, &args.code);
    let (tsi, tx, ratio, symbol, seed) = (args.tsi, args.tx, args.ratio, args.symbol, args.seed);
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

    let mut telemetry = Telemetry::open(&args.telemetry)?;
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
            pacer_from_micros(args.pace_micros),
        )
        .map_err(|e| format!("connect {dest}: {e}"))?;
        wire_tx.attach_telemetry(&telemetry.registry);
        // Opportunistic UDP GSO: the wire format is unchanged (the kernel
        // segments super-datagrams), so a refusal just means
        // per-datagram sends.
        if wire_tx.enable_gso().is_ok() {
            eprintln!("wire: UDP generic segmentation offload active on path {i}");
        }
        let link = args.injected.map(|params| {
            let link_seed = seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9)) ^ 0x10c0;
            LinkEmulator::new(Box::new(GilbertChannel::new(params, link_seed)), link_seed)
        });
        paths.push(live::WirePath::new(wire_tx, link));
    }

    // The reception-report return channel, if anyone reports. Digests
    // ride the batched engine's address-aware control-plane poll: the
    // source address is the aggregator's receiver key.
    let mut report_rx = match &args.feedback {
        Some((addr, _)) => {
            let socket =
                std::net::UdpSocket::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
            let mut rx = live::digest_receiver(socket);
            rx.attach_telemetry(&telemetry.registry);
            Some(rx)
        }
        None => None,
    };
    let outcome = live::send_session(
        &session,
        seed,
        &mut paths,
        report_rx
            .as_mut()
            .map(|rx| rx as &mut dyn live::DigestSource),
        &args
            .feedback
            .map_or_else(Default::default, |(_, config)| config),
        telemetry
            .enabled()
            .then_some((&telemetry.registry, &telemetry.events)),
    )?;
    println!(
        "sent '{name}' ({} bytes) to {}: {} datagrams transmitted, {} dropped by \
         injected loss or failed sends\n\
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
                "  path {i} -> {dest}: {} datagrams ({} source, {} repair){}",
                p.datagrams,
                p.source,
                p.repair,
                p.error
                    .as_ref()
                    .map_or_else(String::new, |e| format!(", retired: {e}"))
            );
        }
    }
    if telemetry.enabled() {
        println!("{}", outcome.summary.to_json());
    }
    telemetry.drain()?;
    Ok(())
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

struct RecvArgs {
    listen: Vec<String>,
    tsi: u32,
    out: Option<String>,
    timeout: Duration,
    /// `--report-to`: the sender's feedback port, how digests are shaped,
    /// and whether they carry NACKs.
    report: Option<(String, ReportConfig, bool)>,
    telemetry: TelemetryArgs,
}

impl RecvArgs {
    fn parse(a: &mut Args) -> Result<RecvArgs, String> {
        let listen = a.addrs("listen", "<addr:port>")?;
        let tsi = a.int("tsi", "<n>", ANY)?.unwrap_or(1);
        let out = a.value("out", "<path>")?;
        let timeout = a.int("timeout", "<secs>", POSITIVE)?.unwrap_or(10);
        let report_mode = a.declared.len();
        let report_to = a.value("report-to", "<addr:port>")?;
        let lib = ReportConfig::default();
        let config = ReportConfig {
            // Deliberately not the library's 256: one digest per 128
            // datagrams is what the CLI has always documented and done.
            report_every: a.int("report-every", "<pkts>", POSITIVE)?.unwrap_or(128),
            population_hint: a
                .int("population", "<n>", POSITIVE)?
                .unwrap_or(lib.population_hint),
            jitter_seed: a.int("jitter-seed", "<n>", ANY)?.unwrap_or(lib.jitter_seed),
            max_backoff_exp: a
                .int("backoff", "<exp>", ANY)?
                .unwrap_or(lib.max_backoff_exp),
            ..lib
        };
        let nack = a.switch("nack")?;
        a.only_under(report_mode)?;
        let telemetry = a.telemetry()?;
        a.finish()?;
        Ok(RecvArgs {
            listen: listen.ok_or("--listen is required (addr:port, or a1:p1,a2:p2,... to bond)")?,
            tsi,
            out,
            timeout: Duration::from_secs(timeout),
            report: report_to.map(|addr| (addr, config, nack)),
            telemetry,
        })
    }
}

fn cmd_recv(args: RecvArgs) -> Result<(), String> {
    let (listen, tsi, timeout) = (&args.listen, args.tsi, args.timeout);
    let mut telemetry = Telemetry::open(&args.telemetry)?;
    println!(
        "listening on {} for FLUTE session tsi {tsi} \
         ({} path(s), timeout {}s)…",
        listen.join(","),
        listen.len(),
        timeout.as_secs()
    );

    // The reception-report return channel, if the sender runs adaptively.
    let reporting = match &args.report {
        Some((addr, ..)) => {
            let report_socket =
                std::net::UdpSocket::bind("0.0.0.0:0").map_err(|e| e.to_string())?;
            Some((report_socket, addr))
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
    pool.attach_telemetry(&telemetry.registry);
    let (datagram_tx, datagram_rx) = std::sync::mpsc::channel();
    for (path, addr) in listen.iter().enumerate() {
        let socket = std::net::UdpSocket::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        socket
            .set_read_timeout(Some(timeout))
            .map_err(|e| e.to_string())?;
        let mut wire_rx = BatchReceiver::new(socket, pool.clone(), Backend::detect());
        wire_rx.request_recv_buffer(4 << 20);
        // Opportunistic UDP GRO: coalesced payloads are split back into
        // the original datagrams before decode, so decoding is
        // offload-agnostic.
        if wire_rx.enable_gro().is_ok() {
            eprintln!("wire: UDP generic receive offload active on {addr}");
        }
        wire_rx.attach_telemetry(&telemetry.registry);
        drop(live::spawn_drain(wire_rx, path, datagram_tx.clone()));
    }
    // The decode side must observe disconnect when every drain ends.
    drop(datagram_tx);

    let mut session = FluteReceiver::new(tsi);
    if let Some((_, config, nack)) = args.report {
        session.enable_reports(config);
        if nack {
            session.enable_nacks();
        }
    }
    session.attach_telemetry(&telemetry.registry);
    let ship = |report: &fec_broadcast::flute::ReceptionReport| -> Result<(), String> {
        telemetry.record(Event::DigestEmitted {
            report_seq: report.report_seq as u64,
            observations: report.observations(),
        });
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
    // a malformed datagram costs itself, not its burst, and the loop runs
    // until every object the FDT lists is decoded.
    let reception = live::receive_session(&mut session, &datagram_rx, ship, &telemetry.registry)?;
    if reception.rejected > 0 || reception.ship_failures > 0 {
        eprintln!(
            "survived wire faults: {} datagrams rejected, {} digests unshipped",
            reception.rejected, reception.ship_failures
        );
    }
    for (&toi, &received) in &reception.completed {
        telemetry.record(Event::ObjectComplete { toi });
        let location = session
            .fdt()
            .and_then(|f| f.file(toi))
            .map(|f| f.content_location.clone())
            .unwrap_or_else(|| format!("toi-{toi}.bin"));
        let object = session
            .take_object(toi)
            .ok_or_else(|| format!("object {toi} completed but its bytes were already taken"))?;
        let out_path = match &args.out {
            Some(out) if reception.completed.len() == 1 => out.clone(),
            _ => std::path::Path::new(&location)
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| format!("toi-{toi}.bin")),
        };
        std::fs::write(&out_path, &object).map_err(|e| format!("cannot write {out_path}: {e}"))?;
        println!(
            "decoded '{location}' -> {out_path}: {} bytes from {received} data packets \
             ({} datagrams consumed)",
            object.len(),
            reception.datagrams
        );
    }
    // Attribute any loss runs still unrepaired to the residual histogram
    // before the final scrape / event drain.
    session.finalize_telemetry();
    telemetry.drain()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every subcommand `USAGE` lists.
    fn commands() -> Vec<&'static str> {
        let listed = USAGE.lines().filter(|l| l.starts_with("  fec-broadcast "));
        listed.filter_map(|l| l.split(' ').nth(3)).collect()
    }

    /// Flags as a parse declares them: name and placeholder (`None`: a switch).
    type Declared = Vec<(Name, Option<Name>)>;

    /// Parses `argv` as `command`'s arguments: what the parse declared, and
    /// what it made of them. Nothing here touches the outside world as
    /// long as `argv` keeps the commands that only print from running.
    fn declare(command: &str, argv: &[&str]) -> (Declared, Result<(), String>) {
        let mut a = Args::new(command, argv.iter().map(|s| s.to_string()));
        let parsed = match command {
            "sweep" => SweepArgs::parse(&mut a).map(drop),
            "merge" => parse_merge(&mut a).map(drop),
            "send" => SendArgs::parse(&mut a).map(drop),
            "recv" => RecvArgs::parse(&mut a).map(drop),
            _ => run(&mut a).map(drop),
        };
        let declared = a.declared.iter().map(|&(name, hint, _)| (name, hint));
        (declared.collect(), parsed)
    }

    /// The test that replaces a hand-kept flag table: for every
    /// subcommand, the flags its parse asks the cursor for and the
    /// `--name <placeholder>` words of its `help` synopsis are the same
    /// list — no flag is read but undocumented, none documented but
    /// refused, and arity and placeholder agree.
    #[test]
    fn every_synopsis_is_what_its_parse_reads() {
        assert_eq!(commands().len(), 9);
        for command in commands() {
            // A stray positional ends every parse (but `merge`'s, which
            // takes it for a file) after its last declaration.
            let (mut declared, parsed) = declare(command, &["stray"]);
            let stray = Err("unexpected argument \"stray\"".to_string());
            assert!(
                parsed == stray || command == "merge",
                "{command}: {parsed:?}"
            );

            let synopsis = synopsis(command);
            assert!(synopsis.starts_with(&format!("usage:\n  fec-broadcast {command}")));
            let words: Vec<&str> = synopsis
                .split(|c: char| c.is_whitespace() || "[]()|".contains(c))
                .filter(|word| !word.is_empty())
                .collect();
            let mut listed = Vec::new();
            for (i, word) in words.iter().enumerate() {
                if let Some(name) = word.strip_prefix("--") {
                    let hint = words.get(i + 1).filter(|next| next.starts_with('<'));
                    listed.push((name, hint.copied()));
                }
            }
            declared.sort();
            listed.sort();
            assert_eq!(declared, listed, "{command}");
        }
        assert_eq!(synopsis("frobnicate"), USAGE);
        let window = format!("{}..={} packets", WINDOW.start(), WINDOW.end());
        assert_eq!(USAGE.matches(&window).count(), 2, "adapt and send state it");
    }

    #[test]
    fn switches_take_no_value_and_value_flags_always_take_one() {
        for command in commands() {
            for (name, hint) in declare(command, &["stray"]).0 {
                let flag = format!("--{name}");
                let Some(hint) = hint else {
                    let refused = declare(command, &[&flag, "stray"]).1.unwrap_err();
                    let out_of_mode = format!("unknown option {flag} for '{command}' without --");
                    assert!(
                        refused == "unexpected argument \"stray\""
                            || refused.starts_with(&out_of_mode),
                        "{command} {flag} stray: {refused}"
                    );
                    continue;
                };
                let needs = Err(format!("{flag} needs a value: {flag} {hint}"));
                assert_eq!(declare(command, &[&flag]).1, needs, "{command} {flag} last");
                assert_eq!(declare(command, &[&flag, "--stray"]).1, needs);
            }
        }
    }

    /// A mode's group defaults to what the library defaults to — the CLI
    /// re-types no number the engine already has — and does not exist
    /// without the mode.
    #[test]
    fn mode_groups_default_to_the_library_defaults() {
        let args =
            |command: &str, line: &str| Args::new(command, line.split(' ').map(String::from));
        let base = "--file f --dest h:1";
        let send = SendArgs::parse(&mut args(
            "send",
            &format!("{base} --adaptive --report-addr a:2"),
        ));
        let feedback = Some(("a:2".to_string(), live::SendConfig::default()));
        assert_eq!(send.unwrap().feedback, feedback);
        assert_eq!(
            SendArgs::parse(&mut args("send", base)).unwrap().feedback,
            None
        );

        let recv = RecvArgs::parse(&mut args("recv", "--listen h:1 --report-to a:2")).unwrap();
        let documented = ReportConfig {
            report_every: 128,
            ..ReportConfig::default()
        };
        assert_eq!(recv.report, Some(("a:2".to_string(), documented, false)));
        let quiet = RecvArgs::parse(&mut args("recv", "--listen h:1")).unwrap();
        assert_eq!(
            (quiet.report, quiet.timeout),
            (None, Duration::from_secs(10))
        );
    }

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
        );
        let planned = plan.units().len();
        assert_eq!(planned, 32);

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
        let library = GridSweep::new(plan.experiment, plan.config).unwrap();
        assert_eq!(
            serde_json::to_string(&result).unwrap(),
            serde_json::to_string(&library.execute()).unwrap()
        );
    }
}
