//! `wire`: a closed loop over real TCP against a spawned
//! `webrobot-server --store <dir> --backend segment`, two connections,
//! each running cheap scripted sessions on the built-in `anchors` site
//! with `checkpoint` and `metrics` requests mixed in, and reconnecting on
//! a fixed schedule so the total number of connections is fixed.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use webrobot_data::{parse_json, Value};
use webrobot_server::Client;

use crate::stats::{nearest_rank, pct};
use crate::trace::Tracer;
use crate::{
    peak_rss_mb, proc_status_field, scrape_counters, service_span, wire_outputs, Block, Ctx,
    Outcome, Work,
};

/// Concurrent connections, one load thread each.
const CONNECTIONS: usize = 2;
/// Scripted sessions per connection.
const SESSIONS_PER_CONNECTION: usize = 15_000;
/// A connection is replaced after this many sessions.
const RECONNECT_EVERY: usize = 30;
/// Every this many sessions, one checkpoints mid-session (so the store
/// writes its record and the close removes it again).
const CHECKPOINT_EVERY: usize = 40;
/// Every this many sessions, one scrapes `metrics` after closing.
const METRICS_EVERY: usize = 25;
/// Set-up (spawn to first reply) is repeated and its median reported.
const SETUP_REPS: usize = 7;
/// The timed phase is cut into this many blocks of equal session counts;
/// the p50, p99 and throughput are medians over the blocks, so that a
/// stall of the host in one block does not move them.
const BLOCKS: usize = 5;

/// A spawned server; dropping it stops the process and waits for it.
struct Server {
    child: Child,
    addr: String,
    dir: PathBuf,
    /// Held open so a late write by the server never meets a closed pipe.
    _stdout: Option<BufReader<ChildStdout>>,
}

impl Server {
    fn spawn(ctx: &Ctx, rep: usize) -> Result<Server, String> {
        let dir = ctx
            .out_dir
            .join(format!("wire-store-{}-{rep}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut child = Command::new(&ctx.server_bin)
            .args(["--addr", "127.0.0.1:0", "--shards", "2", "--store"])
            .arg(&dir)
            .args(["--backend", "segment"])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", ctx.server_bin.display()))?;
        let mut banner = String::new();
        let mut stdout = child.stdout.take().map(BufReader::new);
        let read = stdout.as_mut().map(|out| out.read_line(&mut banner));
        // "webrobot-server listening on 127.0.0.1:PORT (2 shards)"
        let addr = banner.split_whitespace().nth(3).map(String::from);
        let server = Server {
            child,
            addr: addr.clone().unwrap_or_default(),
            dir,
            _stdout: stdout,
        };
        match (read, addr) {
            (Some(Ok(_)), Some(_)) => Ok(server),
            _ => Err(format!("unexpected server banner {banner:?}")),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drains the server and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let drained = Client::connect(&self.addr).and_then(|mut c| c.drain());
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return match (drained, status.success()) {
                    (Ok(_), true) => Ok(()),
                    (drained, _) => Err(format!("server drain {drained:?}, exit {status}")),
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("server did not exit after drain".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            self.child.kill().ok();
            self.child.wait().ok();
        }
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// What a reply must say, beyond `"status":"ok"`.
struct Expect {
    kind: &'static str,
    strs: &'static [(&'static str, &'static str)],
    ints: &'static [(&'static str, i64)],
}

const CREATED: Expect = Expect {
    kind: "created",
    strs: &[("mode", "demonstrate")],
    ints: &[],
};
const FIRST_DEMO: Expect = Expect {
    kind: "event",
    strs: &[("outcome", "recorded")],
    ints: &[("outputs", 1)],
};
const SECOND_DEMO: Expect = Expect {
    kind: "event",
    strs: &[("outcome", "recorded"), ("mode", "authorize")],
    ints: &[("outputs", 2)],
};
const ACCEPTED: Expect = Expect {
    kind: "event",
    strs: &[("outcome", "recorded")],
    ints: &[("outputs", 3)],
};
const OUTPUTS: Expect = Expect {
    kind: "outputs",
    strs: &[],
    ints: &[],
};
const CLOSED: Expect = Expect {
    kind: "closed",
    strs: &[],
    ints: &[],
};
const CHECKPOINTED: Expect = Expect {
    kind: "checkpointed",
    strs: &[],
    ints: &[],
};
const METRICS: Expect = Expect {
    kind: "metrics",
    strs: &[],
    ints: &[],
};

impl Expect {
    fn met_by(&self, v: &Value) -> bool {
        let s = |f: &str| v.field(f).and_then(Value::as_str);
        s("status") == Some("ok")
            && s("kind") == Some(self.kind)
            && self.strs.iter().all(|(f, want)| s(f) == Some(*want))
            && self
                .ints
                .iter()
                .all(|(f, want)| v.field(f).and_then(Value::as_int) == Some(*want))
    }
}

fn demonstrate(session: &str, i: usize) -> String {
    format!(
        r#"{{"v": 1, "kind": "event", "session": "{session}", "event": {{"type": "demonstrate", "action": {{"op": "scrape_text", "selector": "/a[{i}]"}}}}}}"#
    )
}

/// One connection's closed loop.
struct Conn<'a> {
    addr: &'a str,
    ops: &'a AtomicU64,
    client: Option<Client>,
    tracer: Tracer,
    latencies_ms: Vec<f64>,
    failed: usize,
    replies_ok: usize,
    sessions_solved: usize,
    connects: usize,
    violations: Vec<String>,
    /// When each block started and how many ops came before it, plus the
    /// same for the end of the last block.
    marks: Vec<(Instant, usize)>,
}

impl Conn<'_> {
    fn connect(&mut self) {
        let addr = self.addr;
        self.connects += 1;
        self.client = self
            .tracer
            .time("server.connect", 0, || Client::connect(addr))
            .map_err(|e| self.violations.push(format!("wire: connect: {e}")))
            .ok();
    }

    /// Sends one request and checks the reply; `None` unless it met
    /// `expect`.
    fn call(&mut self, kind: &str, request: &str, expect: &Expect) -> Option<Value> {
        let op = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        let started = Instant::now();
        let reply = match self.client.as_mut() {
            Some(client) => self
                .tracer
                .time(service_span(kind), op, || client.call(request)),
            None => Err(std::io::Error::other("not connected")),
        };
        self.latencies_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
        let value = match reply {
            Ok(text) => parse_json(&text).ok(),
            Err(e) => {
                self.failed += 1;
                self.violations.push(format!("wire: {kind}: {e}"));
                // The connection is unusable; the next session reconnects.
                self.client = None;
                return None;
            }
        };
        if value
            .as_ref()
            .and_then(|v| v.field("status"))
            .and_then(Value::as_str)
            != Some("ok")
        {
            self.failed += 1;
        }
        match value {
            Some(v) if expect.met_by(&v) => {
                self.replies_ok += 1;
                Some(v)
            }
            _ => {
                self.violations.push(format!(
                    "wire: {kind} reply is not the expected {}",
                    expect.kind
                ));
                None
            }
        }
    }

    /// One scripted session: create, demonstrate ×2, accept, outputs,
    /// close, with the periodic checkpoint and metrics requests.
    fn session(&mut self, i: usize) {
        let Some(created) = self.call(
            "create",
            r#"{"v": 1, "kind": "create", "site": "anchors"}"#,
            &CREATED,
        ) else {
            return;
        };
        let id = created
            .field("session")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        self.call("demonstrate", &demonstrate(&id, 1), &FIRST_DEMO);
        if i % CHECKPOINT_EVERY == CHECKPOINT_EVERY / 2 {
            self.call(
                "checkpoint",
                r#"{"v": 1, "kind": "checkpoint"}"#,
                &CHECKPOINTED,
            );
        }
        self.call("demonstrate", &demonstrate(&id, 2), &SECOND_DEMO);
        self.call(
            "accept",
            &format!(
                r#"{{"v": 1, "kind": "event", "session": "{id}", "event": {{"type": "accept", "index": 0}}}}"#
            ),
            &ACCEPTED,
        );
        let outputs = self.call(
            "outputs",
            &format!(r#"{{"v": 1, "kind": "outputs", "session": "{id}"}}"#),
            &OUTPUTS,
        );
        let want: Vec<(String, String)> = (1..=3)
            .map(|k| ("text".to_string(), format!("item {k}")))
            .collect();
        match outputs.map(|v| wire_outputs(&v)) {
            Some(got) if got == want => self.sessions_solved += 1,
            got => self.violations.push(format!(
                "wire: {id} scraped {got:?}, expected the list {want:?}"
            )),
        }
        self.call(
            "close",
            &format!(r#"{{"v": 1, "kind": "close", "session": "{id}"}}"#),
            &CLOSED,
        );
        if i % METRICS_EVERY == METRICS_EVERY - 1 {
            self.call("metrics", r#"{"v": 1, "kind": "metrics"}"#, &METRICS);
        }
    }
}

/// Open fds and live threads of `pid`, read from `/proc`.
fn server_gauges(pid: u32) -> (f64, f64) {
    let fds = std::fs::read_dir(format!("/proc/{pid}/fd")).map_or(0, |d| d.count());
    let threads = proc_status_field(Some(pid), "Threads").unwrap_or(0);
    (fds as f64, threads as f64)
}

pub fn run(ctx: &Ctx, tracer: Tracer) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = server.take() {
            Server::stop(previous)?;
        }
        let started = Instant::now();
        let s = Server::spawn(ctx, rep)?;
        let first = Client::connect(&s.addr)
            .and_then(|mut c| c.call(r#"{"v": 1, "kind": "metrics"}"#))
            .map_err(|e| format!("first reply: {e}"))?;
        if !METRICS.met_by(&parse_json(&first).map_err(|e| e.to_string())?) {
            return Err(format!("unexpected first reply {first}"));
        }
        setup_s.push(started.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");

    let ops = AtomicU64::new(0);
    let timed = Instant::now();
    let conns: Vec<Conn> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let mut conn = Conn {
                    addr: &server.addr,
                    ops: &ops,
                    client: None,
                    tracer: tracer.fork(),
                    latencies_ms: Vec::new(),
                    failed: 0,
                    replies_ok: 0,
                    sessions_solved: 0,
                    connects: 0,
                    violations: Vec::new(),
                    marks: Vec::new(),
                };
                scope.spawn(move || {
                    for i in 0..SESSIONS_PER_CONNECTION {
                        if i % (SESSIONS_PER_CONNECTION / BLOCKS) == 0 {
                            conn.marks.push((Instant::now(), conn.latencies_ms.len()));
                        }
                        if i % RECONNECT_EVERY == 0 || conn.client.is_none() {
                            conn.connect();
                        }
                        conn.session(i);
                    }
                    conn.marks.push((Instant::now(), conn.latencies_ms.len()));
                    conn.client = None;
                    conn
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let timed_s = timed.elapsed().as_secs_f64();

    let scrape = Client::connect(&server.addr)
        .and_then(|mut c| c.call(r#"{"v": 1, "kind": "metrics"}"#))
        .map_err(|e| format!("metrics scrape: {e}"))?;
    let mut counters = scrape_counters(&scrape)?;
    let (fds, threads) = server_gauges(server.pid());
    let peak = peak_rss_mb(Some(server.pid()));

    // A block spans both connections' share of it, from the earlier start
    // to the later end.
    let blocks = (0..BLOCKS)
        .map(|b| {
            let start = conns.iter().map(|c| c.marks[b].0).min();
            let end = conns.iter().map(|c| c.marks[b + 1].0).max();
            Block {
                latencies_ms: conns
                    .iter()
                    .flat_map(|c| &c.latencies_ms[c.marks[b].1..c.marks[b + 1].1])
                    .copied()
                    .collect(),
                seconds: end.zip(start).map_or(0.0, |(e, s)| (e - s).as_secs_f64()),
            }
        })
        .collect();
    let mut tracer = tracer;
    let mut latencies_ms = Vec::new();
    let (mut failed, mut replies_ok, mut solved, mut connects) = (0, 0, 0, 0);
    let mut violations = Vec::new();
    for c in conns {
        latencies_ms.extend(c.latencies_ms);
        failed += c.failed;
        replies_ok += c.replies_ok;
        solved += c.sessions_solved;
        connects += c.connects;
        violations.extend(c.violations);
        tracer.absorb(c.tracer);
    }
    server.stop()?;
    let mut sorted = latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let client_p50 = nearest_rank(&sorted, 50.0).unwrap_or(0.0);
    let transport_p50 = counters
        .iter()
        .find(|(n, _)| n == "server.transport_p50_ms")
        .map_or(0.0, |(_, v)| *v);
    counters.extend([
        (
            "wire.client_residual_p50_ms".to_string(),
            client_p50 - transport_p50,
        ),
        ("server.connects".to_string(), connects as f64),
        ("server.open_fds".to_string(), fds),
        ("server.threads".to_string(), threads),
    ]);
    let sessions = CONNECTIONS * SESSIONS_PER_CONNECTION;
    println!(
        "wire: {sessions} sessions, {} requests over {connects} connections; \
         server after the run: {fds} open fds, {threads} threads",
        latencies_ms.len()
    );
    if violations.len() > 5 {
        let more = violations.len() - 5;
        violations.truncate(5);
        violations.push(format!("wire: {more} more violations"));
    }
    Ok(Outcome {
        setup_s,
        accuracy_pct: (pct(replies_ok, latencies_ms.len()), latencies_ms.len()),
        solved_pct: (pct(solved, sessions), sessions),
        latencies_ms,
        timed_s,
        blocks,
        failed,
        peak_rss_mb: (peak, 1),
        counters,
        work: Work::default(),
        violations,
        tracer,
        child_self_times: Default::default(),
    })
}
