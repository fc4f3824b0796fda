//! Spans and counts recorded around calls into each layer.
//!
//! A span holds a name, start and end in nanoseconds since the run's
//! origin, its parent span and a request id shared by every span of one
//! request, solve, batch or iteration. Counts are recorded at the same
//! boundaries. Both go into buffers preallocated before the run and are
//! only summarised or written out after it, so recording costs two clock
//! reads and a push. A disabled tracer runs the wrapped call and records
//! nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// Enclosing span, `None` for a root.
    pub parent: Option<u64>,
    /// Request (solve, batch, iteration) the span belongs to.
    pub req: u64,
    /// Layer call, `module.function`.
    pub name: &'static str,
    /// Start, nanoseconds since the run origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run origin.
    pub end_ns: u64,
}

/// One counter value recorded at a span boundary.
#[derive(Debug, Clone, Copy)]
pub struct Count {
    /// Request the count belongs to.
    pub req: u64,
    /// Metric name the count feeds.
    pub name: &'static str,
    /// Value.
    pub value: f64,
}

/// A per-thread span and count buffer.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
    counts: Vec<Count>,
}

const PREALLOCATED: usize = 1 << 16;

impl Tracer {
    /// A tracer timing against `origin`. Ids start at `id_base`, so buffers
    /// of different threads merge without collisions.
    pub fn new(on: bool, origin: Instant, id_base: u64) -> Tracer {
        let cap = if on { PREALLOCATED } else { 0 };
        Tracer {
            on,
            origin,
            next_id: id_base + 1,
            stack: Vec::with_capacity(16),
            spans: Vec::with_capacity(cap),
            counts: Vec::with_capacity(cap),
        }
    }

    /// A buffer for another thread of the same run.
    pub fn fork(&self, thread: u64) -> Tracer {
        Tracer::new(self.on, self.origin, thread << 40)
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` of request `req`, nested in the
    /// innermost open span of this tracer.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let start_ns = self.now_ns();
        let out = f(self);
        let end_ns = self.now_ns();
        self.stack.pop();
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Records a count for request `req`.
    pub fn count(&mut self, req: u64, name: &'static str, value: f64) {
        if self.on {
            self.counts.push(Count { req, name, value });
        }
    }

    /// Moves another thread's buffers into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        self.counts.extend(other.counts);
    }

    /// Recorded spans, in completion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in nanoseconds of every span named `name`: its duration
    /// minus the part of its interval that its child spans cover.
    pub fn self_times_ns(&self, name: &str) -> Vec<f64> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let mut covered = 0u64;
                if let Some(kids) = children.get_mut(&s.id) {
                    kids.sort_unstable();
                    let mut reach = s.start_ns;
                    for &(a, b) in kids.iter() {
                        let (a, b) = (a.max(reach), b.min(s.end_ns));
                        if b > a {
                            covered += b - a;
                            reach = b;
                        }
                    }
                }
                (s.end_ns - s.start_ns - covered) as f64
            })
            .collect()
    }

    /// Mean of the counts named `name`, or `None` when none were recorded.
    pub fn count_mean(&self, name: &str) -> Option<f64> {
        let values: Vec<f64> = self
            .counts
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .collect();
        (!values.is_empty()).then(|| crate::summary::mean(&values))
    }

    /// Writes every span, then every count, as one JSON object per line.
    ///
    /// # Errors
    /// File-system failures.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"span":"{}","id":{},"parent":{},"req":{},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.id, parent, s.req, s.start_ns, s.end_ns
            )?;
        }
        for c in &self.counts {
            writeln!(
                out,
                r#"{{"count":"{}","req":{},"value":{}}}"#,
                c.name, c.req, c.value
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let outer = t
            .spans()
            .iter()
            .find(|s| s.name == "outer")
            .copied()
            .unwrap();
        let inner = t
            .spans()
            .iter()
            .find(|s| s.name == "inner")
            .copied()
            .unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!((inner.req, outer.req), (7, 7));
        let own = t.self_times_ns("outer")[0];
        let total = (outer.end_ns - outer.start_ns) as f64;
        let child = (inner.end_ns - inner.start_ns) as f64;
        assert_eq!(own, total - child);
        assert!(own >= 2e6 && child >= 4e6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        assert_eq!(t.span("x", 1, |_| 5), 5);
        t.count(1, "c", 1.0);
        assert!(t.spans().is_empty());
        assert_eq!(t.count_mean("c"), None);
    }
}
