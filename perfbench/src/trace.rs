//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a name, a start and end (nanoseconds since the tracer was
//! created), the id of the span that caused it (0 for a root), and a
//! trace id shared by every span of one unit of work — a job's global
//! sequence number, a heal cycle's index. Spans stay in memory while the
//! run measures; [`Tracer::write_jsonl`] writes them out once it ends,
//! with each span's *self* time (its duration minus the part of it
//! covered by its children).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use crate::stats::Samples;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span: allocated id and start time, recorded on [`Tracer::close`].
#[derive(Clone, Copy, Debug)]
pub struct Open {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&self, name: &'static str, trace: u64, parent: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            trace,
            name,
            start_ns: self.now_ns(),
        }
    }

    pub fn close(&self, open: Open) -> Span {
        let span = Span {
            id: open.id,
            parent: open.parent,
            trace: open.trace,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span.clone());
        span
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Samples {
        let mut s = Samples::new();
        for span in self.spans().iter().filter(|s| s.name == name) {
            s.push(span.dur_ns() as f64 / 1e3);
        }
        s
    }

    /// Writes every span as one JSON object per line, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"trace\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                span.id,
                span.parent,
                span.trace,
                span.name,
                span.start_ns,
                span.end_ns,
                selfs.get(&span.id).copied().unwrap_or(0)
            )?;
        }
        out.flush()
    }

    /// Per span name: count, median duration and median self time (µs).
    pub fn self_time_table(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let mut by_name: BTreeMap<&'static str, (Samples, Samples)> = BTreeMap::new();
        for span in &spans {
            let entry = by_name.entry(span.name).or_default();
            entry.0.push(span.dur_ns() as f64 / 1e3);
            entry
                .1
                .push(selfs.get(&span.id).copied().unwrap_or(0) as f64 / 1e3);
        }
        by_name
            .into_iter()
            .map(|(name, (dur, own))| (name, dur.len(), dur.median(), own.median()))
            .collect()
    }
}

/// Self time per span id: its duration minus the union of its children's
/// intervals clipped to it.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Runs `f` inside a span when tracing, or bare when not.
pub fn traced<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    trace: u64,
    parent: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => {
            let open = t.open(name, trace, parent);
            let out = f();
            t.close(open);
            out
        }
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 0,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),  // overlaps 2: union is 10..50
            span(4, 1, 90, 120), // clipped to 90..100
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 20);
    }
}
