//! The traced mode: spans recorded by the harness around each public call
//! into a layer, kept in memory and written out when the run ends.
//!
//! A span's *self time* is its duration minus the time its child spans
//! cover. One tracer belongs to one thread, so a span's children run one
//! after another inside it and never overlap: the covered time is the sum
//! of the children's durations.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `synth.synthesize`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The op the span belongs to (0: set-up or the run as a whole).
    pub op: u64,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// A span recorder; when off, every call is a no-op.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer timing spans from `epoch` (share it between threads so
    /// their spans line up).
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes the span `open` (the innermost open one).
    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, op);
        let out = f();
        self.end(open);
        out
    }

    /// An empty tracer with this one's switch and epoch, for another
    /// thread.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    /// Appends another thread's spans.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per span name: how many spans, and their summed self time in
/// nanoseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, u64)> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (usize, u64)> = BTreeMap::new();
    for (s, cover) in spans.iter().zip(covered) {
        let entry = out.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += (s.end_ns - s.start_ns).saturating_sub(cover);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_children() {
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("c", 50, 60, Some(2)),
            span("a", 200, 205, None),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"], (1, 30));
        assert_eq!(t["a"], (2, 25));
        assert_eq!(t["b"], (1, 40));
        assert_eq!(t["c"], (1, 10));
    }

    #[test]
    fn tracer_nests_and_absorbs() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        let outer = t.begin("outer", 7);
        t.time("inner", 7, || ());
        t.end(outer);
        let mut other = Tracer::new(true, epoch);
        let o = other.begin("outer", 8);
        other.time("inner", 8, || ());
        other.end(o);
        t.absorb(other);
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), None, Some(2)]);
        assert!(t.spans().iter().all(|s| s.start_ns <= s.end_ns));

        let mut off = Tracer::new(false, epoch);
        assert_eq!(off.time("x", 1, || 5), 5);
        assert!(off.spans().is_empty());
    }
}
