//! In-memory spans around the benchmark's calls into each layer.
//!
//! One span per call: `{id, name, start_ns, end_ns, parent, request_id}`.
//! Spans of one commit (or one HTTP request) share a `request_id`. Commit
//! sub-phases are not observed from outside; they are laid out as child
//! spans from the durations the commit returns and marked `synthesized`.
//! Everything stays in memory until the run ends, then goes out as JSONL.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// `parent` of a root span, and the id `begin` returns when tracing is off.
pub const NO_SPAN: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request_id: u64,
    synthesized: bool,
}

/// Count, total and self time of every span name.
pub struct SpanSummary {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A second recorder on the same clock, for another thread; hand it back
    /// with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            origin: self.origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_SPAN {
                s.parent += base;
            }
            s
        }));
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, request_id: u64) -> u32 {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied().unwrap_or(NO_SPAN),
            request_id,
            synthesized: false,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: u32) {
        if id == NO_SPAN {
            return;
        }
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Times `f`, as a span when tracing is on; returns its result and the
    /// seconds it took either way.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request_id: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.begin(name, request_id);
        let t0 = Instant::now();
        let result = f();
        let secs = t0.elapsed().as_secs_f64();
        self.end(id);
        (result, secs)
    }

    /// Lays `phases` (name, seconds) end to end inside span `parent`, so
    /// that the last one ends where the parent ends.
    pub fn synthesize_tail(&mut self, parent: u32, phases: &[(&'static str, f64)]) {
        if parent == NO_SPAN {
            return;
        }
        let (request_id, parent_start, mut end) = {
            let p = &self.spans[parent as usize];
            (p.request_id, p.start_ns, p.end_ns)
        };
        for &(name, secs) in phases.iter().rev() {
            let start = end.saturating_sub((secs * 1e9) as u64).max(parent_start);
            self.spans.push(Span {
                name,
                start_ns: start,
                end_ns: end,
                parent,
                request_id,
                synthesized: true,
            });
            end = start;
        }
    }

    /// Records an already-measured interval (seconds since `origin`).
    pub fn record(&mut self, name: &'static str, request_id: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied().unwrap_or(NO_SPAN),
            request_id,
            synthesized: false,
        });
    }

    /// Per-name totals. Self time is a span's duration minus what its
    /// children cover (children of one span never overlap: one thread, one
    /// call at a time).
    pub fn summary(&self) -> BTreeMap<&'static str, SpanSummary> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_SPAN {
                covered[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanSummary> = BTreeMap::new();
        for (s, child_ns) in self.spans.iter().zip(covered) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_insert(SpanSummary {
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            e.count += 1;
            e.total_ns += total;
            e.self_ns += total.saturating_sub(child_ns);
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request_id\": {}, \"synthesized\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request_id, s.synthesized
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 1);
        let nap = |ms| std::thread::sleep(std::time::Duration::from_millis(ms));
        let ((), _) = t.time("inner", 1, || nap(2));
        nap(2);
        t.end(outer);
        t.synthesize_tail(outer, &[("phase", 0.0005)]);
        let s = t.summary();
        assert_eq!(s["outer"].count, 1);
        assert!(s["inner"].total_ns >= 2_000_000);
        assert_eq!(
            s["outer"].self_ns,
            s["outer"].total_ns - s["inner"].total_ns - s["phase"].total_ns
        );
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 0);
        assert_eq!(id, NO_SPAN);
        t.end(id);
        let (v, secs) = t.time("y", 0, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.summary().is_empty());
    }
}
