//! In-memory spans for the traced pass.
//!
//! One span per timed public call into a layer: name, start, end,
//! parent span, and the session or job it belongs to. Every call feeds
//! its name's aggregate (count and total time); only sampled calls are
//! kept as spans, so a multi-million-call pass stays small. Spans are
//! written out once, when the pass ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Session id on `stream16`, job number on the Fig 4 workloads.
    pub unit: u64,
}

#[derive(Clone, Copy, Default)]
pub struct Aggregate {
    pub calls: u64,
    pub total_ns: u64,
}

impl Aggregate {
    pub fn mean_ns(&self) -> f64 {
        crate::measure::ratio(self.total_ns as f64, self.calls as f64)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    aggregates: BTreeMap<&'static str, Aggregate>,
}

/// Spans kept per pass at most; aggregates keep counting past it.
const MAX_SPANS: usize = 100_000;

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            aggregates: BTreeMap::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Counts one call of `name` that ran from `start` to `end`, and
    /// keeps it as a span when `keep` is set. Returns the span's id.
    pub fn call(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        unit: u64,
        keep: bool,
    ) -> Option<usize> {
        let agg = self.aggregates.entry(name).or_default();
        agg.calls += 1;
        agg.total_ns += u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX);
        if !keep || self.spans.len() >= MAX_SPANS {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            unit,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span whose end is not known yet (a session or a pass);
    /// [`Tracer::close`] sets it. Opened spans are always kept.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, unit: u64) -> usize {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            unit,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    pub fn aggregate(&self, name: &str) -> Aggregate {
        self.aggregates.get(name).copied().unwrap_or_default()
    }

    /// Writes the spans as JSON lines and the aggregates as a last
    /// `{"aggregates": ...}` line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"unit\": {}}}",
                s.name, s.start_ns, s.end_ns, s.unit
            );
        }
        let aggs: Vec<String> = self
            .aggregates
            .iter()
            .map(|(name, a)| {
                format!(
                    "\"{name}\": {{\"calls\": {}, \"total_ns\": {}}}",
                    a.calls, a.total_ns
                )
            })
            .collect();
        let _ = writeln!(out, "{{\"aggregates\": {{{}}}}}", aggs.join(", "));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
