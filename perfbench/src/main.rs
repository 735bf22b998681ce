//! The repository benchmark harness: runs one workload (`paper`,
//! `sessions` or `wire`), checks its outputs, prints every metric by name
//! with its unit and sample count, and ends with one JSON result line.
//!
//! ```text
//! perfbench --workload paper|sessions|wire --seed N --seconds S --trace 0|1
//!           --server-bin PATH
//! ```
//!
//! Each workload does a fixed amount of work and reports how long it took;
//! `--seconds` is the run length `BENCHMARK.json` declares, which the
//! fixed work is sized to on a 2-core VM. With `--trace 0` the result
//! carries the end-to-end metrics; with `--trace 1` the workload runs
//! once untraced and once traced, and the result carries the per-layer
//! metrics of the traced run plus the tracing overhead. See `README.md`
//! for every metric, the workloads and the noise they are built around.

mod paper;
mod sessions;
mod stats;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use webrobot_data::{parse_json, Value};

use stats::{median, nearest_rank, p99, pct};
use trace::{self_times, Tracer};

/// The end-to-end metrics every workload reports: name and unit.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("accuracy_pct", "%"),
    ("solved_pct", "%"),
    ("ok_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// Request kinds whose count and time the per-layer metrics break out.
const SERVICE_KINDS: [&str; 11] = [
    "create",
    "demonstrate",
    "accept",
    "reject_all",
    "automate_step",
    "interrupt",
    "finish",
    "outputs",
    "close",
    "checkpoint",
    "metrics",
];

/// The per-layer metrics every traced run reports: name and unit. A
/// metric whose layer the workload does not run reads 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("browser.record_s", "s"),
        ("browser.replay_s", "s"),
        ("synth.observe_s", "s"),
        ("synth.synthesize_s", "s"),
        ("semantics.consistency_s", "s"),
        ("synth.pops", "count"),
        ("synth.pushes", "count"),
        ("synth.validations", "count"),
        ("synth.fast_path_pct", "%"),
        ("synth.deadline_hits", "count"),
        ("synth.truncated", "count"),
        ("dom.resolve_hit_pct", "%"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect();
    for kind in SERVICE_KINDS {
        out.push((format!("service.{kind}_n"), "count"));
        out.push((format!("service.{kind}_s"), "s"));
    }
    out.extend(
        [
            ("service.deadline_bound_requests", "count"),
            ("service.evictions", "count"),
            ("service.restores", "count"),
            ("service.evict_p50_ms", "ms"),
            ("service.restore_p50_ms", "ms"),
            ("service.checkpoint_p50_ms", "ms"),
            ("store.puts", "count"),
            ("store.bytes_written", "bytes"),
            ("store.fsyncs", "count"),
            ("store.compactions", "count"),
            ("server.transport_p50_ms", "ms"),
            ("server.transport_p99_ms", "ms"),
            ("wire.client_residual_p50_ms", "ms"),
            ("server.connect_s", "s"),
            ("server.connects", "count"),
            ("server.open_fds", "count"),
            ("server.threads", "count"),
            ("trace.overhead_pct", "%"),
            ("trace.spans", "count"),
        ]
        .iter()
        .map(|(n, u)| (n.to_string(), *u)),
    );
    out
}

/// What a workload needs from the command line.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Where scratch stores, span files and the work-variance memory go.
    pub out_dir: PathBuf,
    /// The `webrobot-server` executable (the `wire` workload spawns it).
    pub server_bin: PathBuf,
}

/// Deadline-driven work counters, printed for every run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Synthesis calls that ended on the wall-clock deadline.
    pub deadline_hits: u64,
    /// Synthesis calls cut by the stored-item cap.
    pub truncated: u64,
    /// Worklist pops over the run.
    pub pops: u64,
    /// Requests whose client-side latency reached the session deadline.
    pub deadline_bound_requests: u64,
}

/// A stretch of a run's timed phase, for workloads that report their
/// timings as medians over blocks.
pub struct Block {
    /// Milliseconds per op in the block.
    pub latencies_ms: Vec<f64>,
    /// Wall time the block took.
    pub seconds: f64,
}

/// One workload run, as measured from outside the program.
pub struct Outcome {
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Milliseconds per op.
    pub latencies_ms: Vec<f64>,
    /// Seconds of the timed phase.
    pub timed_s: f64,
    /// Consecutive blocks of the timed phase (`wire`): the p50, p99 and
    /// throughput are then medians over the blocks. Empty for workloads
    /// that report over the whole run.
    pub blocks: Vec<Block>,
    /// Ops that returned an error reply, were refused or hit a transport
    /// error.
    pub failed: usize,
    /// The workload's accuracy, and over how many samples.
    pub accuracy_pct: (f64, usize),
    /// The workload's solved share, and over how many units.
    pub solved_pct: (f64, usize),
    /// `VmHWM` of the process under test (the mean when there are
    /// several), and over how many processes.
    pub peak_rss_mb: (f64, usize),
    /// Per-layer values read without spans: engine counts, the metrics
    /// scrape, `/proc` gauges.
    pub counters: Vec<(String, f64)>,
    /// Deadline-driven work counters.
    pub work: Work,
    /// Correctness-gate failures.
    pub violations: Vec<String>,
    /// The run's spans (empty when untraced).
    pub tracer: Tracer,
    /// Per span name: span count and self time in nanoseconds, recorded
    /// in child processes (`paper` passes) rather than in `tracer`.
    pub child_self_times: BTreeMap<String, (usize, u64)>,
}

impl Outcome {
    fn throughput(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.timed_s
    }
}

/// Reads one `kB` field of `/proc/<pid>/status` (`pid` `None`: this
/// process).
pub fn proc_status_field(pid: Option<u32>, field: &str) -> Option<u64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// `VmHWM` in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    proc_status_field(pid, "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// The static span name of a service request kind.
pub fn service_span(kind: &str) -> &'static str {
    match kind {
        "create" => "service.create",
        "demonstrate" => "service.demonstrate",
        "accept" => "service.accept",
        "reject_all" => "service.reject_all",
        "automate_step" => "service.automate_step",
        "interrupt" => "service.interrupt",
        "finish" => "service.finish",
        "outputs" => "service.outputs",
        "close" => "service.close",
        "checkpoint" => "service.checkpoint",
        "metrics" => "service.metrics",
        _ => "service.other",
    }
}

/// The `(kind, payload)` list of an `outputs` reply.
pub fn wire_outputs(reply: &Value) -> Vec<(String, String)> {
    reply
        .field("outputs")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|o| {
            let s = |f| o.field(f).and_then(Value::as_str).unwrap_or("").to_string();
            (s("kind"), s("payload"))
        })
        .collect()
}

/// Per-layer counters from one `metrics` reply: residency counters,
/// lifecycle p50s, store I/O and the transport span. The shards of one
/// deployment share one segment log and each reports its totals, so the
/// store figures are the maximum over shard rows, not their sum.
pub fn scrape_counters(reply: &str) -> Result<Vec<(String, f64)>, String> {
    let v = parse_json(reply).map_err(|e| format!("metrics reply is not JSON: {e}"))?;
    let int = |v: Option<&Value>| v.and_then(Value::as_int).unwrap_or(0) as f64;
    let stats = v.field("stats").ok_or("metrics reply lacks stats")?;
    let m = v.field("metrics").ok_or("metrics reply lacks metrics")?;
    let residency = stats.field("residency");
    let lifecycle = m.field("lifecycle");
    let hist_ms = |h: Option<&Value>, p: &str| int(h.and_then(|h| h.field(p))) / 1e6;
    let mut out = vec![
        (
            "service.evictions".to_string(),
            int(residency.and_then(|r| r.field("evictions"))),
        ),
        (
            "service.restores".to_string(),
            int(residency.and_then(|r| r.field("restores"))),
        ),
    ];
    for stage in ["evict", "restore", "checkpoint"] {
        out.push((
            format!("service.{stage}_p50_ms"),
            hist_ms(lifecycle.and_then(|l| l.field(stage)), "p50_ns"),
        ));
    }
    let shards = m.field("shards").and_then(Value::as_array).unwrap_or(&[]);
    for (metric, field) in [
        ("store.puts", "store_puts"),
        ("store.bytes_written", "store_bytes"),
        ("store.fsyncs", "store_fsyncs"),
        ("store.compactions", "store_compactions"),
    ] {
        let max = shards
            .iter()
            .map(|s| int(s.field(field)))
            .fold(0.0, f64::max);
        out.push((metric.to_string(), max));
    }
    out.push((
        "server.transport_p50_ms".to_string(),
        hist_ms(m.field("transport"), "p50_ns"),
    ));
    out.push((
        "server.transport_p99_ms".to_string(),
        hist_ms(m.field("transport"), "p99_ns"),
    ));
    Ok(out)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    server_bin: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload paper|sessions|wire --seed N --seconds S \
                     --trace 0|1 --server-bin PATH";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server_bin = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument '{flag}'\n{USAGE}")),
        }
    }
    let workload = workload.ok_or(USAGE)?;
    if !["paper", "sessions", "wire"].contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'\n{USAGE}"));
    }
    let seconds = seconds.ok_or(USAGE)?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be 1..=60, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or(USAGE)?,
        seconds,
        trace: trace.ok_or(USAGE)?,
        server_bin: server_bin.ok_or(USAGE)?,
    })
}

fn run_workload(args: &Args, ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    let tracer = Tracer::new(traced, Instant::now());
    match args.workload.as_str() {
        "paper" => paper::run(ctx, tracer),
        "sessions" => sessions::run(ctx, tracer),
        _ => wire::run(ctx, tracer),
    }
}

/// The end-to-end metrics of an untraced run, printed with units and
/// sample counts.
fn end_to_end(o: &Outcome) -> Result<Vec<(&'static str, f64)>, String> {
    let mut sorted = o.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let ops = sorted.len();
    let p99 = p99(&sorted).ok_or(format!(
        "only {ops} ops: the p99 needs at least {}",
        stats::P99_MIN_SAMPLES
    ))?;
    let (mut p50, mut p99, mut throughput) = (
        nearest_rank(&sorted, 50.0).unwrap_or(0.0),
        p99,
        o.throughput(),
    );
    let mut timing_n = "ops".to_string();
    if !o.blocks.is_empty() {
        let (mut p50s, mut p99s, mut throughputs) = (Vec::new(), Vec::new(), Vec::new());
        for b in &o.blocks {
            let mut block = b.latencies_ms.clone();
            block.sort_by(f64::total_cmp);
            p50s.push(nearest_rank(&block, 50.0).unwrap_or(0.0));
            p99s.push(stats::p99(&block).ok_or(format!(
                "a block of only {} ops: the p99 needs at least {}",
                block.len(),
                stats::P99_MIN_SAMPLES
            ))?);
            throughputs.push(block.len() as f64 / b.seconds);
        }
        (p50, p99, throughput) = (median(&p50s), median(&p99s), median(&throughputs));
        timing_n = format!("ops; median of {} blocks", o.blocks.len());
    }
    let failed_pct = pct(o.failed, ops);
    let values = [
        (median(&o.setup_s), o.setup_s.len(), "set-ups"),
        (p50, ops, timing_n.as_str()),
        (p99, ops, timing_n.as_str()),
        (throughput, ops, timing_n.as_str()),
        (o.accuracy_pct.0, o.accuracy_pct.1, "samples"),
        (o.solved_pct.0, o.solved_pct.1, "units"),
        (100.0 - failed_pct, ops, "ops"),
        (o.peak_rss_mb.0, o.peak_rss_mb.1, "processes"),
    ];
    let mut out = Vec::new();
    for ((name, unit), (value, n, what)) in END_TO_END.iter().zip(values) {
        println!("metric {name:<18} {value:>14.4} {unit:<4} (n={n} {what})");
        out.push((*name, value));
    }
    println!(
        "metric {:<18} {:>14.4} {:<4} (n={ops} ops; not gated: 100 - ok_pct)",
        "failed_pct", failed_pct, "%"
    );
    println!(
        "timed phase {:.3} s; set-up runs (s): {:?}",
        o.timed_s, o.setup_s
    );
    Ok(out)
}

/// The per-layer metrics of a traced run: span self times, counters, and
/// the overhead against the untraced run's throughput.
fn per_layer_values(traced: &Outcome, untraced: &Outcome) -> Vec<(String, f64, &'static str)> {
    let mut layers = traced.child_self_times.clone();
    for (name, (count, self_ns)) in self_times(traced.tracer.spans()) {
        let entry = layers.entry(name.to_string()).or_default();
        entry.0 += count;
        entry.1 += self_ns;
    }
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for (name, &(count, self_ns)) in &layers {
        values.insert(format!("{name}_s"), self_ns as f64 / 1e9);
        if name.starts_with("service.") {
            values.insert(format!("{name}_n"), count as f64);
        }
    }
    for (name, value) in &traced.counters {
        values.insert(name.clone(), *value);
    }
    values.insert(
        "service.deadline_bound_requests".to_string(),
        traced.work.deadline_bound_requests as f64,
    );
    values.insert(
        "trace.overhead_pct".to_string(),
        100.0 * (untraced.throughput() / traced.throughput() - 1.0),
    );
    values.insert(
        "trace.spans".to_string(),
        layers.values().map(|(count, _)| *count).sum::<usize>() as f64,
    );
    per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let value = values.get(&name).copied().unwrap_or(0.0);
            println!("layer  {name:<34} {value:>16.6} {unit}");
            (name, value, unit)
        })
        .collect()
}

/// Prints the work-variance line and flags a change in deadline hits
/// against the previous run of the same workload in this checkout.
fn report_work(ctx: &Ctx, workload: &str, work: Work) {
    println!(
        "work synth.deadline_hits={} synth.truncated={} synth.pops={} \
         service.deadline_bound_requests={} (inferred: latency >= session deadline)",
        work.deadline_hits, work.truncated, work.pops, work.deadline_bound_requests
    );
    let memory = ctx.out_dir.join(format!("work-{workload}.last"));
    let now = format!("{} {}", work.deadline_hits, work.deadline_bound_requests);
    if let Ok(previous) = std::fs::read_to_string(&memory) {
        if previous.trim() != now {
            println!(
                "work FLAG: deadline-bound work changed from [{}] to [{now}] \
                 (deadline hits, deadline-bound requests) against the previous run: \
                 the work done differs, so time figures are not like for like",
                previous.trim()
            );
        }
    }
    std::fs::write(&memory, now).ok();
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let ctx = Ctx {
        seed: args.seed,
        out_dir: PathBuf::from(".bench_out"),
        server_bin: args.server_bin.clone(),
    };
    std::fs::create_dir_all(&ctx.out_dir)
        .map_err(|e| format!("create {}: {e}", ctx.out_dir.display()))?;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads_available={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let untraced = run_workload(args, &ctx, false)?;
    let e2e = end_to_end(&untraced)?;
    report_work(&ctx, &args.workload, untraced.work);
    let mut violations = untraced.violations.clone();
    let (metrics, attempted, failed) = if args.trace {
        let traced = run_workload(args, &ctx, true)?;
        // `paper` records its spans in its pass processes, which write
        // their own files.
        if !traced.tracer.spans().is_empty() {
            let spans = ctx
                .out_dir
                .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
            traced
                .tracer
                .write(&spans)
                .map_err(|e| format!("write {}: {e}", spans.display()))?;
            println!(
                "traced run: {} spans written to {}",
                traced.tracer.spans().len(),
                spans.display()
            );
        }
        report_work(&ctx, &args.workload, traced.work);
        violations.extend(traced.violations.iter().cloned());
        let metrics = per_layer_values(&traced, &untraced);
        (metrics, traced.latencies_ms.len(), traced.failed)
    } else {
        let metrics = e2e
            .into_iter()
            .zip(END_TO_END)
            .map(|((name, value), (_, unit))| (name.to_string(), value, unit))
            .collect();
        (metrics, untraced.latencies_ms.len(), untraced.failed)
    };
    for v in &violations {
        println!("CORRECTNESS VIOLATION: {v}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        violations.is_empty(),
        body.join(", ")
    );
    Ok(violations.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(paper::PASS_FLAG) {
        return match paper::pass_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("perfbench: {message}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` rows of one metric table in `BENCHMARK.json`. The
    /// data crate's JSON reader has no floats (the bounds), so the rows are
    /// read as text.
    fn declared(text: &str, table: &str) -> Vec<(String, String)> {
        let start = text.find(&format!("\"{table}\"")).expect("metric table");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("end of the metric table")];
        let field = |f: &str| -> Vec<String> {
            let key = format!("\"{f}\": \"");
            body.match_indices(&key)
                .map(|(i, _)| {
                    let rest = &body[i + key.len()..];
                    rest[..rest.find('"').expect("closing quote")].to_string()
                })
                .collect()
        };
        field("name").into_iter().zip(field("unit")).collect()
    }

    /// The names and units printed here are the ones `BENCHMARK.json`
    /// declares, in order.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared(&text, "end_to_end"), e2e);
        let layers: Vec<_> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared(&text, "per_layer"), layers);
    }

    #[test]
    fn args_are_checked() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let ok = parse_args(&args(
            "--workload paper --seed 3 --seconds 20 --trace 1 --server-bin s",
        ))
        .unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 20, true));
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 20 --trace 0")).is_err());
        assert!(parse_args(&args("--workload paper --seed 3 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("--workload paper --seed 3 --seconds 20 --trace 2")).is_err());
        assert!(parse_args(&args("--workload paper --seed 3 --seconds 20")).is_err());
    }

    fn outcome(blocks: Vec<Block>) -> Outcome {
        Outcome {
            setup_s: vec![1.0],
            latencies_ms: blocks.iter().flat_map(|b| b.latencies_ms.clone()).collect(),
            timed_s: 10.0,
            blocks,
            failed: 0,
            accuracy_pct: (100.0, 1),
            solved_pct: (100.0, 1),
            peak_rss_mb: (1.0, 1),
            counters: Vec::new(),
            work: Work::default(),
            violations: Vec::new(),
            tracer: Tracer::new(false, Instant::now()),
            child_self_times: BTreeMap::new(),
        }
    }

    #[test]
    fn block_timings_are_medians_over_blocks() {
        // Block k: 1,000 ops of k + 1 ms, plus one slow op in the last.
        let mut blocks: Vec<Block> = (0..3)
            .map(|k| Block {
                latencies_ms: vec![k as f64 + 1.0; 1_000],
                seconds: [1.0, 2.0, 4.0][k],
            })
            .collect();
        blocks[2].latencies_ms.push(500.0);
        let got: BTreeMap<&str, f64> = end_to_end(&outcome(blocks)).unwrap().into_iter().collect();
        assert_eq!(got["latency_p50_ms"], 2.0);
        assert_eq!(got["latency_p99_ms"], 2.0);
        assert_eq!(got["throughput_per_s"], 500.0);

        let short = vec![Block {
            latencies_ms: vec![1.0; 999],
            seconds: 1.0,
        }];
        assert!(end_to_end(&outcome(short)).is_err());
    }

    #[test]
    fn scrape_takes_the_store_maximum_over_shards() {
        let reply = r#"{"v":1,"status":"ok","kind":"metrics",
            "stats":{"v":2,"residency":{"evictions":4,"restores":3}},
            "metrics":{"lifecycle":{"evict":{"p50_ns":2000000},"restore":{"p50_ns":1000000},
                       "checkpoint":{"p50_ns":0}},
                       "transport":{"p50_ns":500000,"p99_ns":1500000},
                       "shards":[{"store_puts":10,"store_bytes":100,"store_fsyncs":2,"store_compactions":0},
                                 {"store_puts":12,"store_bytes":90,"store_fsyncs":2,"store_compactions":1}]}}"#;
        let got: BTreeMap<String, f64> = scrape_counters(reply).unwrap().into_iter().collect();
        assert_eq!(got["service.evictions"], 4.0);
        assert_eq!(got["service.restore_p50_ms"], 1.0);
        assert_eq!(got["store.puts"], 12.0);
        assert_eq!(got["store.bytes_written"], 100.0);
        assert_eq!(got["store.compactions"], 1.0);
        assert_eq!(got["server.transport_p99_ms"], 1.5);
    }
}
