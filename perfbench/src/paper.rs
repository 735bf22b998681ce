//! `paper`: the §7.1 per-test prediction protocol over all 76 suite
//! benchmarks at the paper's defaults (1 s synthesis deadline), on one
//! thread. No service, store or server code runs. The work is the same
//! for every seed.
//!
//! Each protocol pass runs in a child process of its own (the harness
//! binary started with [`PASS_FLAG`]) that sets up and then runs the
//! pass, as `fig12` runs in a fresh process. A pass leaves its heap
//! holding 400–500 MB of freed, scattered blocks from its deadline-bound
//! searches, and later passes in the same process did not run like the
//! first (see `README.md`).

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use webrobot_bench::{evaluate_benchmark, is_intended, par_map};
use webrobot_benchmarks::{suite, Benchmark};
use webrobot_browser::Recording;
use webrobot_semantics::action_consistent;
use webrobot_synth::{SynthConfig, Synthesizer};

use crate::stats::{nearest_rank, pct};
use crate::trace::{self_times, Tracer};
use crate::{peak_rss_mb, Ctx, Outcome, Work};

/// The first argument that makes the harness binary run one `paper` pass
/// and print its [`Pass`] report: `--paper-pass <pass> <seed> <trace 0|1>
/// <out dir>`.
pub const PASS_FLAG: &str = "--paper-pass";

/// Set-ups per pass process, before its pass; `setup_s` is the median
/// over every pass's set-ups. One set-up takes 25–70 ms, so the
/// repetitions of one pass span about 0.5 s, and those of successive
/// passes lie about 14 s apart.
const SETUP_REPS: usize = 10;

/// Protocol passes per untraced run, each in its own process. The p50 and
/// p99 pool every pass's tests; the peak RSS is the mean of the passes'.
const PASSES: usize = 3;

/// Passes per traced run. The per-layer figures need no repetition, and
/// one pass keeps a `--trace 1` run (untraced, then traced) well inside
/// its time limit.
const TRACED_PASSES: usize = 1;

/// Threads for the correctness gate's reference run of `fig12`'s
/// protocol, after the timed phase.
const GATE_THREADS: usize = 2;

struct Input {
    benches: Vec<Benchmark>,
    recordings: Vec<Recording>,
}

/// Builds the suite and records every ground truth.
fn set_up(tracer: &mut Tracer) -> Result<Input, String> {
    let benches = suite();
    let recordings = benches
        .iter()
        .map(|b| {
            tracer
                .time("browser.record", 0, || b.record())
                .map_err(|e| format!("b{} failed to record: {e}", b.id))
        })
        .collect::<Result<_, _>>()?;
    Ok(Input {
        benches,
        recordings,
    })
}

/// One pass of the protocol over every benchmark, as its process reports
/// it to the harness process.
#[derive(Debug, Clone, Default, PartialEq)]
struct Pass {
    /// Seconds per set-up repetition before the pass.
    setup_s: Vec<f64>,
    seconds: f64,
    latencies_ms: Vec<f64>,
    correct: usize,
    intended: usize,
    /// `VmHWM` of the pass's process, read right after the pass.
    peak_rss_mb: f64,
    work: Work,
    pushes: u64,
    validations: u64,
    fast_path: u64,
    resolve_hits: u64,
    resolve_misses: u64,
    /// Per span name: span count and self time in nanoseconds (traced
    /// passes only).
    self_times: BTreeMap<String, (usize, u64)>,
}

impl Pass {
    /// The report as text: one `key=value` line, one line of latencies,
    /// one of set-up times, and one `self` line per span name.
    fn to_text(&self) -> String {
        let mut out = format!(
            "pass seconds={} correct={} intended={} peak_rss_mb={} pops={} deadline_hits={} \
             truncated={} pushes={} validations={} fast_path={} resolve_hits={} \
             resolve_misses={}\nlatencies_ms",
            self.seconds,
            self.correct,
            self.intended,
            self.peak_rss_mb,
            self.work.pops,
            self.work.deadline_hits,
            self.work.truncated,
            self.pushes,
            self.validations,
            self.fast_path,
            self.resolve_hits,
            self.resolve_misses
        );
        for l in &self.latencies_ms {
            out.push_str(&format!(" {l}"));
        }
        out.push_str("\nsetup_s");
        for s in &self.setup_s {
            out.push_str(&format!(" {s}"));
        }
        out.push('\n');
        for (name, (count, ns)) in &self.self_times {
            out.push_str(&format!("self {name} {count} {ns}\n"));
        }
        out
    }

    /// Reads a report written by [`Pass::to_text`].
    fn from_text(text: &str) -> Result<Pass, String> {
        let bad = |what: &str| format!("malformed paper pass report: {what}");
        let mut fields = BTreeMap::new();
        let mut p = Pass::default();
        for line in text.lines() {
            let mut words = line.split_whitespace();
            match words.next() {
                Some("pass") => {
                    for word in words {
                        let (k, v) = word.split_once('=').ok_or_else(|| bad(word))?;
                        fields.insert(k, v.parse::<f64>().map_err(|_| bad(word))?);
                    }
                }
                Some(list @ ("latencies_ms" | "setup_s")) => {
                    let values = words
                        .map(|w| w.parse::<f64>().map_err(|_| bad(w)))
                        .collect::<Result<_, _>>()?;
                    if list == "setup_s" {
                        p.setup_s = values;
                    } else {
                        p.latencies_ms = values;
                    }
                }
                Some("self") => {
                    let w: Vec<&str> = words.collect();
                    let [name, count, ns] = w[..] else {
                        return Err(bad(line));
                    };
                    let count = count.parse().map_err(|_| bad(line))?;
                    let ns = ns.parse().map_err(|_| bad(line))?;
                    p.self_times.insert(name.to_string(), (count, ns));
                }
                _ => return Err(bad(line)),
            }
        }
        let f = |k: &str| fields.get(k).copied().ok_or_else(|| bad(k));
        p.seconds = f("seconds")?;
        p.correct = f("correct")? as usize;
        p.intended = f("intended")? as usize;
        p.peak_rss_mb = f("peak_rss_mb")?;
        p.work.pops = f("pops")? as u64;
        p.work.deadline_hits = f("deadline_hits")? as u64;
        p.work.truncated = f("truncated")? as u64;
        p.pushes = f("pushes")? as u64;
        p.validations = f("validations")? as u64;
        p.fast_path = f("fast_path")? as u64;
        p.resolve_hits = f("resolve_hits")? as u64;
        p.resolve_misses = f("resolve_misses")? as u64;
        Ok(p)
    }
}

/// The §7.1 protocol as `webrobot_bench::evaluate_benchmark` runs it: for
/// `k = 1..n-1`, observe action `k` and its DOM, synthesize, and check the
/// predictions against recorded action `k + 1`; then replay the final
/// program. Each prediction test is one op.
fn pass(
    benches: &[Benchmark],
    recordings: &[Recording],
    cfg: &SynthConfig,
    tracer: &mut Tracer,
) -> Pass {
    let started = Instant::now();
    let mut p = Pass::default();
    let mut op = 0u64;
    for (bench, rec) in benches.iter().zip(recordings) {
        let trace = &rec.trace;
        let mut synth = Synthesizer::new(cfg.clone(), trace.prefix(0));
        let mut final_program = None;
        for k in 1..trace.len() {
            op += 1;
            let test_started = Instant::now();
            let test = tracer.begin("paper.test", op);
            tracer.time("synth.observe", op, || {
                synth.observe(trace.actions()[k - 1].clone(), trace.doms()[k].clone())
            });
            let result = tracer.time("synth.synthesize", op, || synth.synthesize());
            let hit = tracer.time("semantics.consistency", op, || {
                result
                    .predictions
                    .iter()
                    .any(|p| action_consistent(p, &trace.actions()[k], &trace.doms()[k]))
            });
            tracer.end(test);
            p.latencies_ms
                .push(test_started.elapsed().as_secs_f64() * 1e3);
            p.correct += usize::from(hit);
            let s = &result.stats;
            p.work.pops += s.pops as u64;
            p.work.deadline_hits += u64::from(s.timed_out);
            p.work.truncated += u64::from(s.truncated);
            p.pushes += s.pushes as u64;
            p.validations += s.validations as u64;
            p.fast_path += u64::from(s.fast_path);
            p.resolve_hits += s.resolve_hits;
            p.resolve_misses += s.resolve_misses;
            if let Some(rp) = result.programs.into_iter().next() {
                final_program = Some(rp.program);
            }
        }
        if let Some(program) = final_program {
            p.intended +=
                usize::from(tracer.time("browser.replay", 0, || is_intended(&program, bench, rec)));
        }
    }
    p.seconds = started.elapsed().as_secs_f64();
    p
}

/// The file a traced pass writes its spans to, in the out directory.
fn pass_spans_file(seed: u64, pass: usize) -> String {
    format!("spans-paper-seed{seed}-pass{pass}.tsv")
}

/// The child process's side: `args` follow [`PASS_FLAG`]. Sets up
/// [`SETUP_REPS`] times (the last one traced), runs one pass, and prints
/// its report on stdout. A traced pass also writes its spans to
/// `<out dir>/spans-paper-seed<seed>-pass<pass>.tsv`.
pub fn pass_main(args: &[String]) -> Result<(), String> {
    let usage = || format!("usage: perfbench {PASS_FLAG} <pass> <seed> <trace 0|1> <out dir>");
    let [pass_no, seed, trace, out_dir] = args else {
        return Err(usage());
    };
    let traced = match trace.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err(usage()),
    };
    let pass_no: usize = pass_no.parse().map_err(|_| usage())?;
    let seed: u64 = seed.parse().map_err(|_| usage())?;
    let mut tracer = Tracer::new(traced, Instant::now());
    let mut setup_s = Vec::new();
    let mut input = None;
    for rep in 0..SETUP_REPS {
        // Drop the previous repetition's inputs before timing the next.
        drop(input.take());
        let mut untraced = Tracer::new(false, Instant::now());
        let t = if rep + 1 == SETUP_REPS {
            &mut tracer
        } else {
            &mut untraced
        };
        let started = Instant::now();
        input = Some(set_up(t)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let input = input.expect("at least one set-up");
    let mut p = pass(
        &input.benches,
        &input.recordings,
        &SynthConfig::default(),
        &mut tracer,
    );
    p.setup_s = setup_s;
    p.peak_rss_mb = peak_rss_mb(None);
    if traced {
        p.self_times = self_times(tracer.spans())
            .into_iter()
            .map(|(name, times)| (name.to_string(), times))
            .collect();
        let spans = Path::new(out_dir).join(pass_spans_file(seed, pass_no));
        tracer
            .write(&spans)
            .map_err(|e| format!("write {}: {e}", spans.display()))?;
    }
    print!("{}", p.to_text());
    Ok(())
}

/// Runs pass `i` in a child process and reads its report.
fn run_child(ctx: &Ctx, i: usize, traced: bool) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("find the harness binary: {e}"))?;
    let out = Command::new(exe)
        .arg(PASS_FLAG)
        .arg(i.to_string())
        .arg(ctx.seed.to_string())
        .arg(if traced { "1" } else { "0" })
        .arg(&ctx.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start paper pass {i}: {e}"))?;
    if !out.status.success() {
        return Err(format!("paper pass {i} failed: {}", out.status));
    }
    Pass::from_text(&String::from_utf8_lossy(&out.stdout))
}

/// The workload: [`PASSES`] (traced: [`TRACED_PASSES`]) passes in child
/// processes, then the correctness gate in this process. `tracer` only
/// says whether the passes trace; their spans stay in their own files.
pub fn run(ctx: &Ctx, tracer: Tracer) -> Result<Outcome, String> {
    let count = if tracer.is_on() {
        TRACED_PASSES
    } else {
        PASSES
    };
    let passes: Vec<Pass> = (0..count)
        .map(|i| run_child(ctx, i, tracer.is_on()))
        .collect::<Result<_, _>>()?;
    let setup_s: Vec<f64> = passes.iter().flat_map(|p| p.setup_s.clone()).collect();
    let timed_s: f64 = passes.iter().map(|p| p.seconds).sum();
    if tracer.is_on() {
        for i in 0..count {
            let spans = ctx.out_dir.join(pass_spans_file(ctx.seed, i));
            println!("traced pass {i}: spans written to {}", spans.display());
        }
    }
    let peak = passes.iter().map(|p| p.peak_rss_mb).sum::<f64>() / count as f64;
    for (i, p) in passes.iter().enumerate() {
        let mut sorted = p.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        println!(
            "paper pass {i}: {:.3} s, p50 {:.4} ms, p99 {:.3} ms, peak RSS {:.1} MB, \
             synth.deadline_hits={} synth.truncated={} synth.pops={}",
            p.seconds,
            nearest_rank(&sorted, 50.0).unwrap_or(0.0),
            nearest_rank(&sorted, 99.0).unwrap_or(0.0),
            p.peak_rss_mb,
            p.work.deadline_hits,
            p.work.truncated,
            p.work.pops
        );
    }

    // Correctness gate: `fig12`'s own protocol on the same build must give
    // the same pooled accuracy and intended-program count.
    let benches = suite();
    let cfg = SynthConfig::default();
    let reference = par_map(&benches, GATE_THREADS, |b| {
        evaluate_benchmark(b, cfg.clone())
    });
    let ref_correct: usize = reference.iter().map(|e| e.correct).sum();
    let ref_tests: usize = reference.iter().map(|e| e.tests).sum();
    let ref_intended = reference.iter().filter(|e| e.intended).count();
    let mut violations = Vec::new();
    for (i, p) in passes.iter().enumerate() {
        let tests = p.latencies_ms.len();
        if (p.correct, tests, p.intended) != (ref_correct, ref_tests, ref_intended) {
            violations.push(format!(
                "paper pass {i}: {}/{tests} correct and {} intended, \
                 but fig12's protocol gives {ref_correct}/{ref_tests} and {ref_intended}",
                p.correct, p.intended
            ));
        }
    }
    let (correct, intended) = (passes[0].correct, passes[0].intended);
    let tests = passes[0].latencies_ms.len();
    println!(
        "paper: accuracy {correct}/{tests} = {:.2}%, intended {intended}/{} \
         (fig12 protocol: {ref_correct}/{ref_tests}, {ref_intended})",
        pct(correct, tests),
        benches.len()
    );
    let mut work = Work::default();
    let mut latencies_ms = Vec::new();
    let (mut pushes, mut validations, mut fast_path) = (0u64, 0u64, 0u64);
    let (mut resolve_hits, mut resolve_misses) = (0u64, 0u64);
    let mut child_self_times: BTreeMap<String, (usize, u64)> = BTreeMap::new();
    for p in passes {
        work.deadline_hits += p.work.deadline_hits;
        work.truncated += p.work.truncated;
        work.pops += p.work.pops;
        pushes += p.pushes;
        validations += p.validations;
        fast_path += p.fast_path;
        resolve_hits += p.resolve_hits;
        resolve_misses += p.resolve_misses;
        latencies_ms.extend(p.latencies_ms);
        for (name, (count, ns)) in p.self_times {
            let entry = child_self_times.entry(name).or_default();
            entry.0 += count;
            entry.1 += ns;
        }
    }
    let calls = latencies_ms.len();
    Ok(Outcome {
        setup_s,
        latencies_ms,
        timed_s,
        blocks: Vec::new(),
        failed: 0,
        accuracy_pct: (pct(correct, tests), tests),
        solved_pct: (pct(intended, benches.len()), benches.len()),
        peak_rss_mb: (peak, count),
        counters: vec![
            ("synth.pops".to_string(), work.pops as f64),
            ("synth.pushes".to_string(), pushes as f64),
            ("synth.validations".to_string(), validations as f64),
            (
                "synth.fast_path_pct".to_string(),
                pct(fast_path as usize, calls),
            ),
            ("synth.deadline_hits".to_string(), work.deadline_hits as f64),
            ("synth.truncated".to_string(), work.truncated as f64),
            (
                "dom.resolve_hit_pct".to_string(),
                pct(
                    resolve_hits as usize,
                    (resolve_hits + resolve_misses) as usize,
                ),
            ),
        ],
        work,
        violations,
        tracer,
        child_self_times,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_reports_round_trip_through_text() {
        let p = Pass {
            setup_s: vec![0.041, 0.0557],
            seconds: 13.25,
            latencies_ms: vec![0.046017, 1000.5, 7e-4],
            correct: 3011,
            intended: 69,
            peak_rss_mb: 412.3515625,
            work: Work {
                deadline_hits: 5,
                truncated: 31,
                pops: 131_703,
                deadline_bound_requests: 0,
            },
            pushes: 9,
            validations: 196_993,
            fast_path: 1_200,
            resolve_hits: 40,
            resolve_misses: 2,
            self_times: [("synth.observe".to_string(), (3509, 123_456_789))].into(),
        };
        assert_eq!(Pass::from_text(&p.to_text()), Ok(p));
        assert!(Pass::from_text("pass seconds=1\nlatencies_ms 0.5\n").is_err());
        assert!(Pass::from_text("oops\n").is_err());
    }
}
