//! `sessions`: oracle users driven through `ShardedManager::handle_json`
//! with two shards on a fresh `SegmentStore`.
//!
//! The inputs are a fixed list of suite benchmarks plus the five
//! generated families at the run's seed. The client holds each
//! recording's action and DOM trace and picks demonstrate, accept,
//! reject_all, automate_step or interrupt from the wire predictions with
//! `action_consistent`, as `interact::drive_session` does. Each load
//! thread interleaves more sessions than a shard keeps live, so sessions
//! are evicted and restored, and one thread checkpoints periodically.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use webrobot_benchmarks::{benchmark, generated, Benchmark, GenFamily};
use webrobot_browser::{Output, Recording};
use webrobot_data::{parse_json, Value};
use webrobot_interact::Event;
use webrobot_lang::Action;
use webrobot_semantics::action_consistent;
use webrobot_service::{
    action_from_value, Request, SegmentStore, ServiceConfig, ShardedManager, SnapshotStore,
};
use webrobot_synth::SynthConfig;

use crate::stats::{session_accuracy_pct, sessions_solved_pct, SessionTally};
use crate::trace::Tracer;
use crate::{peak_rss_mb, scrape_counters, service_span, wire_outputs, Ctx, Outcome, Work};

/// The suite benchmarks the workload drives, in two groups. The short
/// ones are the 22 whose oracle session ends on an `automate_step` that
/// waits out the 1 s deadline after the program has run out, and that
/// take at most 57 requests. The heavy ones are b56, b58, b59 and b62,
/// whose searches hit the deadline or the item cap under the paper
/// protocol. About 30 of the run's 1,540 requests (2%) are then
/// deadline-bound, so the nearest-rank p99 always falls in that cluster
/// and reads the deadline. A plain sample of the suite puts 0.8-0.9% of
/// requests there, which put the p99 on the cluster's edge: it read the
/// deadline or the slowest finished search, depending on machine speed.
const SHORT_IDS: [u32; 22] = [
    12, 13, 14, 16, 19, 22, 24, 26, 27, 28, 43, 44, 45, 46, 47, 49, 50, 51, 52, 54, 55, 57,
];
const HEAVY_IDS: [u32; 4] = [56, 58, 59, 62];
/// Short sessions that join the heavy and generated ones on the first
/// shard, so that both shards wait out about 15 deadlines.
const SHORT_ON_FIRST: usize = 7;
/// Shards, and load threads (one per shard).
const SHARDS: usize = 2;
/// Live sessions per shard; each load thread keeps `WINDOW` open.
const MAX_LIVE: usize = 2;
const WINDOW: usize = 3;
/// Requests one session sends before its thread turns to the next.
const BURST: usize = 16;
/// The first load thread checkpoints after every this many requests.
const CHECKPOINT_EVERY: usize = 128;
/// Set-up is repeated and its median reported. One set-up takes about
/// 20 ms, and the host's speed drifts over tenths of a second, so the
/// repetitions span about 2 s: a median of 5 or 21 spread by a quarter
/// or more between runs.
const SETUP_REPS: usize = 101;

/// One session's inputs: its registered site and its recording.
struct Task {
    label: String,
    site: String,
    recording: Recording,
}

/// The inputs, labelled, in creation order. Session ids alternate
/// between the shards in creation order, so the even positions go to the
/// first shard. It gets the heavy benchmarks, the five generated families
/// at `seed` and the `SHORT_ON_FIRST` shortest short ones; the second
/// shard gets the other short ones. The heavy sessions then never search
/// at the same time, which made peak RSS depend on whether their
/// deadline-bound searches happened to overlap.
fn inputs(seed: u64, tracer: &mut Tracer) -> Result<Vec<(String, Benchmark, Recording)>, String> {
    let mut record = |b: Benchmark, label: String| {
        let rec = tracer
            .time("browser.record", 0, || b.record())
            .map_err(|e| format!("{label} failed to record: {e}"))?;
        Ok::<_, String>((label, b, rec))
    };
    let mut suite_part = |ids: &[u32]| {
        let mut out = Vec::new();
        for &id in ids {
            let b = benchmark(id).ok_or(format!("no suite benchmark b{id}"))?;
            out.push(record(b, format!("b{id}"))?);
        }
        out.sort_by_key(|(_, b, rec)| (rec.trace.len(), b.id));
        Ok::<_, String>(out)
    };
    let mut first = suite_part(&HEAVY_IDS)?;
    let mut short = suite_part(&SHORT_IDS)?;
    let second = short.split_off(SHORT_ON_FIRST);
    for family in GenFamily::ALL {
        first.push(record(
            generated(family, seed),
            format!("gen-{}-{seed}", family.key()),
        )?);
    }
    first.extend(short);
    let mut out = Vec::new();
    let mut second = second.into_iter();
    for input in first {
        out.push(input);
        out.extend(second.next());
    }
    Ok(out)
}

/// A deployment ready for the first request.
struct Deployment {
    manager: ShardedManager,
    tasks: Vec<Task>,
    dir: std::path::PathBuf,
}

fn set_up(ctx: &Ctx, rep: usize, tracer: &mut Tracer) -> Result<Deployment, String> {
    let drawn = inputs(ctx.seed, tracer)?;
    let dir = ctx
        .out_dir
        .join(format!("sessions-store-{}-{rep}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let store = SegmentStore::open(&dir)
        .map_err(|e| format!("open store {}: {e}", dir.display()))?
        .into_shared();
    let stores: Vec<Box<dyn SnapshotStore>> = (0..SHARDS)
        .map(|_| Box::new(store.clone()) as Box<dyn SnapshotStore>)
        .collect();
    let cfg = ServiceConfig::builder()
        .max_live_sessions(MAX_LIVE)
        .build()
        .map_err(|e| format!("config: {e}"))?;
    let manager = ShardedManager::with_stores(cfg, stores).map_err(|e| format!("store: {e}"))?;
    let mut tasks = Vec::new();
    for (i, (label, b, recording)) in drawn.into_iter().enumerate() {
        let site = format!("task-{i}");
        manager.register_site(site.clone(), b.site.clone(), b.input.clone());
        tasks.push(Task {
            label,
            site,
            recording,
        });
    }
    Ok(Deployment {
        manager,
        tasks,
        dir,
    })
}

/// One load thread's client: sends requests, times them, and keeps the
/// counts the outcome needs.
struct LoadClient<'a> {
    manager: &'a ShardedManager,
    ops: &'a AtomicU64,
    tracer: Tracer,
    latencies_ms: Vec<f64>,
    failed: usize,
    tallies: Vec<SessionTally>,
    violations: Vec<String>,
}

impl<'a> LoadClient<'a> {
    fn new(manager: &'a ShardedManager, ops: &'a AtomicU64, tracer: Tracer) -> LoadClient<'a> {
        LoadClient {
            manager,
            ops,
            tracer,
            latencies_ms: Vec::new(),
            failed: 0,
            tallies: Vec::new(),
            violations: Vec::new(),
        }
    }

    fn next_op(&self) -> u64 {
        self.ops.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Sends one request as a new op; `None` when the reply is not `ok`.
    fn call(&mut self, kind: &str, request: &str) -> Option<Value> {
        self.call_as(self.next_op(), kind, request)
    }

    /// Sends one request as op `op`.
    fn call_as(&mut self, op: u64, kind: &str, request: &str) -> Option<Value> {
        let manager = self.manager;
        let started = Instant::now();
        let reply = self
            .tracer
            .time(service_span(kind), op, || manager.handle_json(request));
        self.latencies_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
        let value = parse_json(&reply).ok();
        match value {
            Some(v) if v.field("status").and_then(Value::as_str) == Some("ok") => Some(v),
            _ => {
                self.failed += 1;
                println!("sessions: {kind} failed: {reply}");
                None
            }
        }
    }
}

/// A session in progress.
struct Live<'t> {
    task: &'t Task,
    id: String,
    pos: usize,
    mode: String,
    predictions: Vec<Action>,
    tally: SessionTally,
    steps: usize,
    /// The session ended as a user would end it: on a `finish` reply or in
    /// mode `done`. Not set when a request failed or the step cap cut it.
    ended: bool,
}

impl Live<'_> {
    /// Does `prediction` match the next intended action?
    fn approves(&self, prediction: &Action) -> bool {
        let trace = &self.task.recording.trace;
        self.pos < trace.actions().len()
            && action_consistent(
                prediction,
                &trace.actions()[self.pos],
                &trace.doms()[self.pos],
            )
    }

    /// Sends the oracle's next request; `false` once the session ended.
    fn step(&mut self, d: &mut LoadClient) -> bool {
        let actions = self.task.recording.trace.actions();
        self.steps += 1;
        if self.steps > actions.len() * 4 + 64 {
            return false;
        }
        let op = d.next_op();
        let (kind, event) = match self.mode.as_str() {
            "demonstrate" if self.pos < actions.len() => {
                ("demonstrate", Event::Demonstrate(actions[self.pos].clone()))
            }
            "demonstrate" => ("finish", Event::Finish),
            "authorize" => {
                let choice = d.tracer.time("semantics.consistency", op, || {
                    self.predictions.iter().position(|p| self.approves(p))
                });
                match choice {
                    Some(index) => ("accept", Event::Accept { index }),
                    None => ("reject_all", Event::RejectAll),
                }
            }
            "automate" => {
                let next_ok = d.tracer.time("semantics.consistency", op, || {
                    self.predictions.first().is_some_and(|p| self.approves(p))
                });
                if next_ok {
                    ("automate_step", Event::AutomateStep)
                } else {
                    ("interrupt", Event::Interrupt)
                }
            }
            mode => {
                self.ended = mode == "done";
                self.tally.script_ran = self.pos == actions.len();
                return false;
            }
        };
        let request = Request::Event {
            session: self.id.clone(),
            event,
        }
        .to_json();
        let Some(reply) = d.call_as(op, kind, &request) else {
            return false;
        };
        let outcome = reply.field("outcome").and_then(Value::as_str);
        match kind {
            "demonstrate" => {
                self.tally.demonstrated += 1;
                self.pos += 1;
            }
            "accept" => {
                self.tally.accepted += 1;
                self.pos += 1;
            }
            "automate_step" if outcome == Some("automated") => {
                self.tally.automated += 1;
                self.pos += 1;
            }
            "finish" => {
                self.ended = true;
                self.tally.script_ran = true;
                return false;
            }
            _ => {}
        }
        self.mode = reply
            .field("mode")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        self.predictions = reply
            .field("predictions")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|p| action_from_value(p).ok())
            .collect();
        true
    }

    /// Checks a session whose script ran against its recording, then
    /// closes it. A session that did not end normally is a violation.
    fn close(self, d: &mut LoadClient) {
        if !self.ended {
            d.violations.push(format!(
                "sessions: {} ({}) did not end: {} steps, mode {}, {} of {} actions done",
                self.id,
                self.task.label,
                self.steps,
                self.mode,
                self.pos,
                self.task.recording.trace.actions().len()
            ));
        }
        if self.tally.script_ran {
            let request = Request::Outputs {
                session: self.id.clone(),
            }
            .to_json();
            if let Some(reply) = d.call("outputs", &request) {
                let got = wire_outputs(&reply);
                let want: Vec<(String, String)> = self
                    .task
                    .recording
                    .outputs
                    .iter()
                    .map(output_pair)
                    .collect();
                if got != want {
                    d.violations.push(format!(
                        "sessions: {} ({}) ran its whole script but scraped {} outputs \
                         that differ from the recording's {}",
                        self.id,
                        self.task.label,
                        got.len(),
                        want.len()
                    ));
                }
            }
        }
        let request = Request::Close {
            session: self.id.clone(),
        }
        .to_json();
        d.call("close", &request);
        d.tallies.push(self.tally);
    }
}

/// `(kind, payload)` as the wire spells an output.
fn output_pair(o: &Output) -> (String, String) {
    let kind = match o {
        Output::Text(_) => "text",
        Output::Link(_) => "link",
        Output::Url(_) => "url",
        Output::Download(_) => "download",
    };
    (kind.to_string(), o.payload().to_string())
}

/// One load thread: drives its shard's sessions `WINDOW` at a time, each
/// for a burst of `BURST` requests before turning to the next.
fn drive(d: &mut LoadClient, sessions: Vec<(&Task, String)>, checkpoints: bool) {
    let mut queue: VecDeque<_> = sessions.into();
    let mut active: Vec<Live> = Vec::new();
    let mut next_checkpoint = CHECKPOINT_EVERY;
    while !queue.is_empty() || !active.is_empty() {
        while active.len() < WINDOW {
            let Some((task, id)) = queue.pop_front() else {
                break;
            };
            active.push(Live {
                task,
                id,
                pos: 0,
                mode: "demonstrate".to_string(),
                predictions: Vec::new(),
                tally: SessionTally::default(),
                steps: 0,
                ended: false,
            });
        }
        let mut i = 0;
        while i < active.len() {
            let mut running = true;
            for _ in 0..BURST {
                running = active[i].step(d);
                if checkpoints && d.latencies_ms.len() >= next_checkpoint {
                    d.call("checkpoint", &Request::Checkpoint.to_json());
                    next_checkpoint += CHECKPOINT_EVERY;
                }
                if !running {
                    break;
                }
            }
            if running {
                i += 1;
            } else {
                active.remove(i).close(d);
            }
        }
    }
}

pub fn run(ctx: &Ctx, mut tracer: Tracer) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut deployment = None;
    for rep in 0..SETUP_REPS {
        // Tear the previous repetition down before timing the next.
        if let Some(previous) = deployment.take() {
            let Deployment { manager, dir, .. } = previous;
            drop(manager);
            std::fs::remove_dir_all(dir).ok();
        }
        let mut untraced = Tracer::new(false, Instant::now());
        let t = if rep + 1 == SETUP_REPS {
            &mut tracer
        } else {
            &mut untraced
        };
        let started = Instant::now();
        deployment = Some(set_up(ctx, rep, t)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let Deployment {
        manager,
        tasks,
        dir,
    } = deployment.expect("at least one set-up");

    let ops = AtomicU64::new(0);
    let timed = Instant::now();
    let mut main = LoadClient::new(&manager, &ops, tracer);
    let mut per_shard: Vec<Vec<(&Task, String)>> = vec![Vec::new(); SHARDS];
    for task in &tasks {
        let request = Request::Create {
            site: task.site.clone(),
            input: None,
            deadline_ms: None,
        }
        .to_json();
        let id = main
            .call("create", &request)
            .and_then(|r| r.field("session").and_then(Value::as_str).map(String::from))
            .ok_or(format!("sessions: create for {} failed", task.label))?;
        let n: usize = id
            .strip_prefix("s-")
            .and_then(|n| n.parse().ok())
            .ok_or(format!("sessions: unexpected session id {id}"))?;
        per_shard[(n - 1) % SHARDS].push((task, id));
    }
    let mut clients: Vec<LoadClient> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_shard
            .into_iter()
            .enumerate()
            .map(|(shard, sessions)| {
                let mut d = LoadClient::new(&manager, &ops, main.tracer.fork());
                scope.spawn(move || {
                    drive(&mut d, sessions, shard == 0);
                    d
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let timed_s = timed.elapsed().as_secs_f64();

    let scrape = manager.handle_json(&Request::Metrics.to_json());
    let counters = scrape_counters(&scrape)?;
    let peak = peak_rss_mb(None);
    for d in clients.drain(..) {
        main.latencies_ms.extend(d.latencies_ms);
        main.failed += d.failed;
        main.tallies.extend(d.tallies);
        main.violations.extend(d.violations);
        main.tracer.absorb(d.tracer);
    }
    let LoadClient {
        latencies_ms,
        failed,
        tallies,
        violations,
        tracer,
        ..
    } = main;
    drop(manager);
    std::fs::remove_dir_all(&dir).ok();

    let deadline_ms = SynthConfig::default().timeout.as_secs_f64() * 1e3;
    let work = Work {
        deadline_bound_requests: latencies_ms.iter().filter(|&&ms| ms >= deadline_ms).count()
            as u64,
        ..Work::default()
    };
    let sum = |f: fn(&SessionTally) -> usize| tallies.iter().map(f).sum::<usize>();
    let (demonstrated, accepted, automated) = (
        sum(|t| t.demonstrated),
        sum(|t| t.accepted),
        sum(|t| t.automated),
    );
    let labels: Vec<&str> = tasks.iter().map(|t| t.label.as_str()).collect();
    println!(
        "sessions: {} sessions ({}), {} requests; demonstrated {demonstrated} \
         accepted {accepted} automated {automated}; {} solved by PBD",
        tallies.len(),
        labels.join(","),
        latencies_ms.len(),
        tallies.iter().filter(|t| t.solved_by_pbd()).count(),
    );
    Ok(Outcome {
        setup_s,
        accuracy_pct: (
            session_accuracy_pct(&tallies),
            demonstrated + accepted + automated,
        ),
        solved_pct: (sessions_solved_pct(&tallies), tallies.len()),
        latencies_ms,
        timed_s,
        blocks: Vec::new(),
        failed,
        peak_rss_mb: (peak, 1),
        counters,
        work,
        violations,
        tracer,
        child_self_times: Default::default(),
    })
}
