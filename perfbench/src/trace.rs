//! In-memory span recording for the traced runs.
//!
//! Spans are recorded from the benchmark's own code around calls into each
//! layer's public functions: name, start, end, the span that caused it, and
//! the trial or request id. They stay in memory until the run ends and are
//! then written out as JSON lines.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// The causing span's id; 0 for a root span.
    pub parent: u64,
    /// Trial index or request sequence number.
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Runs `f` inside a span with a fresh id, which `f` receives so that
    /// spans it causes can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        key: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id();
        let start_ns = self.now_ns();
        let value = f(id);
        self.record(Span {
            name,
            id,
            parent,
            key,
            start_ns,
            end_ns: self.now_ns(),
        });
        value
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"key\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.key, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-span accounting over a recorded trace.
pub struct Breakdown {
    spans: Vec<Span>,
}

impl Breakdown {
    pub fn new(spans: Vec<Span>) -> Self {
        Breakdown { spans }
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.named(name).count() as u64
    }

    /// Summed durations of the named spans (busy time; overlapping spans on
    /// different threads each count in full).
    pub fn busy_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::duration_ns).sum()
    }

    /// Wall time the named spans cover inside their parents: for each
    /// parent, the union of its children's intervals clipped to it.
    pub fn covered_ns(&self, name: &str) -> u64 {
        let mut by_parent: std::collections::BTreeMap<u64, Vec<(u64, u64)>> = Default::default();
        for s in self.named(name) {
            by_parent
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let parents: std::collections::HashMap<u64, Span> =
            self.spans.iter().map(|s| (s.id, *s)).collect();
        by_parent
            .into_iter()
            .map(|(parent, mut intervals)| {
                if let Some(p) = parents.get(&parent) {
                    for iv in &mut intervals {
                        iv.0 = iv.0.clamp(p.start_ns, p.end_ns);
                        iv.1 = iv.1.clamp(p.start_ns, p.end_ns);
                    }
                }
                union_ns(&mut intervals)
            })
            .sum()
    }

    /// Self time of the named spans: their durations minus the part of
    /// each interval that their children named `child` cover.
    pub fn self_ns(&self, name: &str, child: &str) -> u64 {
        self.busy_ns(name).saturating_sub(self.covered_ns(child))
    }
}

/// Length of the union of half-open intervals.
fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}
