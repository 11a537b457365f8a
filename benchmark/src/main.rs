//! The repository's benchmark: six workloads through the public API of
//! the workspace crates, single-threaded and closed-loop.
//!
//! ```text
//! fec-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--check] [--out <file>]
//! fec-benchmark --list
//! fec-benchmark compare <setA.jsonl> <setB.jsonl>
//! ```
//!
//! With `--trace 0` a run reports the end-to-end metrics, with
//! `--trace 1` the per-layer metrics (at a quarter of the counts, with
//! spans written to `benchmark/out/trace-<workload>.jsonl`). The last
//! line of standard output is one JSON object; the exit code is 0 only if
//! every object, checksum and invariant check held.

#![forbid(unsafe_code)]

mod compare;
mod fanout;
mod host;
mod pipeline;
mod probe;
mod report;
mod spec;
mod stats;
mod sweep;
mod trace;
mod work;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use serde::{Number, Value};

use crate::pipeline::{Bulk, BulkSpec, Carousel};
use crate::report::Metrics;
use crate::trace::Tracer;
use crate::work::{Scale, Segment, Workload};

/// Set-ups per run: at least five, and as many more (up to 31) as fit in
/// [`SETUP_BUDGET_S`] going by the first one. `setup_s` is their median:
/// the first pays the process's cold start (page faults, kernel
/// detection), the rest show the set-up work itself, and a set-up of a
/// few milliseconds needs many repeats before its median holds still.
const SETUP_REPS: std::ops::RangeInclusive<usize> = 5..=31;
const SETUP_BUDGET_S: f64 = 1.0;

/// Share of the full counts the traced segment runs, and the shorter
/// untraced segment before it that `bench.trace_overhead_share` compares
/// against.
const TRACED_DIVISOR: u32 = 4;
const UNTRACED_DIVISOR: u32 = 8;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
    pub check: bool,
    pub out: Option<PathBuf>,
}

const USAGE: &str = "usage:
  fec-benchmark --workload <name> --seed <n> --seconds <1..60> --trace <0|1> [--check] [--out <file>]
  fec-benchmark --list
  fec-benchmark compare <setA.jsonl> <setB.jsonl>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 8,
        trace: false,
        check: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed is not an unsigned integer".to_string())?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds must be a whole number from 1 to 60")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--check" => args.check = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !spec::WORKLOADS.iter().any(|w| w.name == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Everything one run produced.
pub struct Outcome {
    pub correct: bool,
    /// False when the loopback dropped a datagram: the run is still
    /// correct, but its otherwise exact counts are perturbed.
    pub clean: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub violations: Vec<String>,
    pub gso: bool,
    pub gro: bool,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

fn peak_rss_mib() -> f64 {
    host::status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn trace_path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.jsonl"))
}

/// Sets the workload up, runs it and derives the metrics `args` asks for.
pub fn drive<W: Workload>(
    args: &Args,
    setup: impl Fn() -> Result<W, String>,
) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut workload = setup()?;
    let mut setup_s = vec![started.elapsed().as_secs_f64()];
    let mut extra = workload.setup_counts();
    let reps = if args.check {
        1
    } else {
        ((SETUP_BUDGET_S / setup_s[0]) as usize).clamp(*SETUP_REPS.start(), *SETUP_REPS.end())
    };
    while setup_s.len() < reps {
        // Free the previous instance first: its sockets and buffers are
        // not part of the next set-up.
        drop(workload);
        let started = Instant::now();
        workload = setup()?;
        setup_s.push(started.elapsed().as_secs_f64());
    }

    let mut spans = None;
    let (metrics, segments): (Metrics, Vec<Segment>) = if args.trace {
        let untraced = workload.run(UNTRACED_DIVISOR, 0, &mut Tracer::disabled());
        let first_round = workload.rounds(UNTRACED_DIVISOR);
        let rounds = workload.rounds(TRACED_DIVISOR) as usize;
        let mut tracer = Tracer::enabled(rounds * workload.spans_per_round() + 64);
        let traced = workload.run(TRACED_DIVISOR, first_round, &mut tracer);

        extra.extend(workload.final_counts());
        if let Some(symbol) = workload.symbol() {
            probe::kernel_throughput(symbol, &mut extra);
        }
        extra.insert(
            "flute.oti_roundtrip_fail",
            probe::oti_roundtrip_failures() as f64,
        );
        let metrics = report::per_layer(&traced, &untraced, &tracer, &extra);
        spans = Some(tracer);
        (metrics, vec![untraced, traced])
    } else {
        let seg = workload.run(1, 0, &mut Tracer::disabled());
        extra.extend(workload.final_counts());
        let metrics = report::end_to_end(&seg, stats::median(&setup_s), peak_rss_mib());
        (metrics, vec![seg])
    };

    let attempted: u64 = segments.iter().map(|s| s.attempted).sum();
    let failed: u64 = segments.iter().map(|s| s.failed).sum();
    let violations: Vec<String> = segments
        .iter()
        .flat_map(|s| s.violations.iter().cloned())
        .collect();
    let lost: f64 = segments
        .iter()
        .filter_map(|s| s.counts.get("wire.lost"))
        .sum();
    Ok(Outcome {
        correct: failed == 0 && violations.is_empty() && attempted > 0,
        clean: lost == 0.0,
        attempted,
        failed,
        metrics,
        violations,
        gso: extra.get("wire.gso_active") == Some(&1.0),
        gro: extra.get("wire.gro_active") == Some(&1.0),
        tracer: spans,
    })
}

pub fn run_workload(args: &Args) -> Result<Outcome, String> {
    let scale = Scale {
        seconds: args.seconds,
        check: args.check,
    };
    let seed = args.seed;
    match args.workload.as_str() {
        "bulk_ldgm" => drive(args, || Bulk::setup(BulkSpec::bulk_ldgm(), seed, scale)),
        "bulk_rse" => drive(args, || Bulk::setup(BulkSpec::bulk_rse(), seed, scale)),
        "small_symbol" => drive(args, || Bulk::setup(BulkSpec::small_symbol(), seed, scale)),
        "carousel_tx" => drive(args, || Carousel::setup(seed, scale)),
        "sweep_grid" => drive(args, || sweep::SweepGrid::setup(seed, scale)),
        "fanout_ingest" => drive(args, || fanout::Fanout::setup(seed, scale)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn uint(n: u64) -> Value {
    Value::Number(Number::U64(n))
}

/// The record `--out` appends: the result line plus everything needed to
/// tell whether two records may be compared.
fn record(
    args: &Args,
    outcome: &Outcome,
    host: &[(&'static str, String)],
    metrics: &Value,
) -> Value {
    let host = host
        .iter()
        .map(|(k, v)| (k.to_string(), Value::String(v.clone())))
        .collect();
    Value::Object(vec![
        ("workload".into(), Value::String(args.workload.clone())),
        ("seed".into(), uint(args.seed)),
        ("seconds".into(), uint(u64::from(args.seconds))),
        ("trace".into(), uint(u64::from(args.trace))),
        ("check".into(), Value::Bool(args.check)),
        ("correct".into(), Value::Bool(outcome.correct)),
        ("clean".into(), Value::Bool(outcome.clean)),
        ("attempted".into(), uint(outcome.attempted)),
        ("failed".into(), uint(outcome.failed)),
        ("host".into(), Value::Object(host)),
        ("metrics".into(), metrics.clone()),
    ])
}

fn to_json(value: &Value) -> Result<String, String> {
    serde_json::to_string(value).map_err(|e| e.to_string())
}

fn run(args: &Args) -> Result<bool, String> {
    let outcome = run_workload(args)?;
    if let Some(tracer) = &outcome.tracer {
        let path = trace_path(&args.workload);
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let defs = report::defs_for(args.trace);
    let metrics = report::metrics_value(defs, &outcome.metrics);
    let host = host::describe(outcome.gso, outcome.gro);
    let record = record(args, &outcome, &host, &metrics);

    println!(
        "workload {} seed {} seconds {} trace {} check {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.check
    );
    for (key, value) in &host {
        println!("host {key} = {value}");
    }
    for def in defs {
        let value = outcome.metrics.get(def.name).copied().unwrap_or(0.0);
        println!("metric {:<32} {:>18.6} {}", def.name, value, def.unit);
    }
    println!("clean {}", outcome.clean);
    for violation in &outcome.violations {
        println!("violation: {violation}");
    }

    if let Some(path) = &args.out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{}", to_json(&record)?).map_err(|e| e.to_string())?;
    }

    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(outcome.correct)),
        ("attempted".into(), uint(outcome.attempted)),
        ("failed".into(), uint(outcome.failed)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", to_json(&line)?);
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("--list") => {
            print!("{}", spec::list());
            Ok(true)
        }
        Some("compare") => match argv.as_slice() {
            [_, a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => Err(USAGE.to_string()),
        },
        _ => parse_args(&argv)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|args| run(&args)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};

    fn tiny(workload: &str, seed: u64, trace: bool) -> Outcome {
        let args = Args {
            workload: workload.to_string(),
            seed,
            seconds: 1,
            trace,
            check: true,
            out: None,
        };
        run_workload(&args).unwrap_or_else(|e| panic!("{workload}: {e}"))
    }

    /// `attempted`, `failed` and every metric that is a count or an exact
    /// ratio of counts.
    fn exact_part(outcome: &Outcome, defs: &[MetricDef]) -> Vec<(String, f64)> {
        let mut out = vec![
            ("attempted".to_string(), outcome.attempted as f64),
            ("failed".to_string(), outcome.failed as f64),
        ];
        for def in defs {
            let exact = def.unit == "count"
                || matches!(def.name, "inefficiency_ratio" | "success_share")
                || matches!(
                    def.name,
                    "codec.symbols_needed_share"
                        | "channel.lost_share"
                        | "flute.header_share"
                        | "sim.undecoded_share"
                        | "feedback.deduped_share"
                );
            // Span counts depend on nothing but the inputs either.
            if exact {
                out.push((def.name.to_string(), outcome.metrics[def.name]));
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_identical_counts_and_another_seed_still_passes() {
        for workload in &WORKLOADS {
            for (trace, defs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let a = tiny(workload.name, 11, trace);
                let b = tiny(workload.name, 11, trace);
                let c = tiny(workload.name, 12, trace);
                for (which, outcome) in [("a", &a), ("b", &b), ("c", &c)] {
                    assert!(
                        outcome.correct && outcome.clean && outcome.failed == 0,
                        "{} run {which} trace {trace}: {:?}",
                        workload.name,
                        outcome.violations
                    );
                    for def in defs {
                        let v = outcome.metrics.get(def.name).copied();
                        assert!(
                            v.is_some_and(f64::is_finite),
                            "{} lacks {}",
                            workload.name,
                            def.name
                        );
                    }
                }
                assert_eq!(
                    exact_part(&a, defs),
                    exact_part(&b, defs),
                    "{} trace {trace}",
                    workload.name
                );
                if !trace {
                    for def in defs {
                        assert!(
                            a.metrics[def.name] > 0.0,
                            "{}: end-to-end metric {} must never be 0",
                            workload.name,
                            def.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn traced_run_attributes_the_wall_to_spans() {
        let outcome = tiny("bulk_ldgm", 5, true);
        let tracer = outcome
            .tracer
            .as_ref()
            .expect("traced runs keep their spans");
        assert_eq!(outcome.metrics["bench.spans"], tracer.spans().len() as f64);
        assert!(tracer.spans().iter().any(|s| s.name == trace::ROUND));
        assert!(outcome.metrics["bench.other_share"] < 0.5);
        let shares: f64 = [
            "share.gf256_codec",
            "share.sched",
            "share.channel",
            "share.flute",
            "share.wire",
            "share.sim",
            "share.feedback",
            "bench.other_share",
        ]
        .iter()
        .map(|k| outcome.metrics[k])
        .sum();
        // The parse inside `push_datagrams` is priced from a sample of the
        // bursts, so the shares add up to 1 only nearly.
        assert!((shares - 1.0).abs() < 0.1, "shares add up to {shares}");
    }

    fn get<'v>(value: &'v Value, key: &str) -> &'v Value {
        value
            .as_object()
            .and_then(|o| o.iter().find_map(|(k, v)| (k == key).then_some(v)))
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
    }

    fn text<'v>(value: &'v Value, key: &str) -> &'v str {
        get(value, key).as_str().expect("a string")
    }

    #[test]
    fn list_output_equals_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json: Value =
            serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
                .expect("valid JSON");

        let mut expected = String::new();
        for w in get(&json, "workloads").as_array().expect("workloads") {
            expected += &format!("workload {} -- {}\n", text(w, "name"), text(w, "why"));
            assert!(text(w, "why").len() <= 200 && !text(w, "why").contains('\n'));
        }
        for m in get(&json, "end_to_end").as_array().expect("end_to_end") {
            expected += &format!(
                "end_to_end {} {} {} {}\n",
                text(m, "name"),
                text(m, "unit"),
                text(m, "better"),
                get(m, "bound").as_f64().expect("bound")
            );
            assert!(get(m, "bound")
                .as_f64()
                .is_some_and(|b| b > 0.0 && b <= 0.25));
        }
        for m in get(&json, "per_layer").as_array().expect("per_layer") {
            expected += &format!(
                "per_layer {} {} {}\n",
                text(m, "name"),
                text(m, "unit"),
                text(m, "better")
            );
        }
        assert_eq!(spec::list(), expected);

        let mut names: Vec<&str> = Vec::new();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            names.push(def.name);
            assert!(spec::valid_unit(def.unit), "unit {:?}", def.unit);
        }
        for name in &names {
            assert!(spec::valid_name(name), "name {name:?}");
        }
        let unique: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", spec::Better::Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));

        let paths: Vec<&str> = get(&json, "paths")
            .as_array()
            .expect("paths")
            .iter()
            .filter_map(Value::as_str)
            .collect();
        assert_eq!(paths, ["benchmark"]);
        assert!(get(&json, "run_seconds")
            .as_u64()
            .is_some_and(|s| (1..=60).contains(&s)));
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&argv(
            "--workload sweep_grid --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (
                ok.workload.as_str(),
                ok.seed,
                ok.seconds,
                ok.trace,
                ok.check
            ),
            ("sweep_grid", 9, 3, true, false)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload sweep_grid --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload sweep_grid --trace 2")).is_err());
        assert!(parse_args(&argv("--workload sweep_grid --seed")).is_err());
        assert!(parse_args(&argv("--workload sweep_grid --bogus")).is_err());
    }
}
