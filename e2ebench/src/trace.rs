//! Bench-side wall-clock spans around the public calls each workload
//! makes, kept in memory and summarised at the end of a traced run.
//!
//! A span records its name, start, end, parent and op id. A layer's self
//! time is its span's duration minus the time its child spans cover, so
//! the self times of one op's spans sum to that op's wall total (the
//! root span `op` keeps whatever no layer span covers: bench glue).

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed or open span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Span recorder. A disabled tracer records nothing and reads no clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    bytes: BTreeMap<&'static str, u64>,
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            bytes: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Adds `n` payload bytes to the layer named `name` (for MB/s).
    pub fn add_bytes(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.bytes.entry(name).or_default() += n;
        }
    }

    pub fn bytes(&self, name: &str) -> u64 {
        self.bytes.get(name).copied().unwrap_or(0)
    }

    /// Per-name totals over every recorded span: `(calls, total duration
    /// ns, self ns)`.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let total = span.end_ns - span.start_ns;
            let e = out.entry(span.name).or_default();
            e.calls += 1;
            e.total_ns += total;
            e.self_ns += total.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Spans named `name` opened in steps before `op_limit`.
    pub fn calls_before(&self, name: &str, op_limit: u64) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.op < op_limit)
            .count() as u64
    }

    /// Wall total of every root span (one per op step).
    pub fn root_total_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }
}

/// Aggregate of one layer's spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_root_total() {
        let mut t = Tracer::new(true);
        for op in 0..3 {
            t.set_op(op);
            let root = t.enter("op");
            let a = t.enter("a");
            let b = t.enter("b");
            std::hint::black_box((0..1000).sum::<u64>());
            t.exit(b);
            t.exit(a);
            t.time("c", || std::hint::black_box(7));
            t.exit(root);
        }
        let layers = t.layers();
        let self_sum: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(self_sum, t.root_total_ns());
        assert_eq!(layers["op"].calls, 3);
        assert_eq!(t.calls_before("a", 2), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.enter("op");
        t.exit(open);
        t.add_bytes("x", 5);
        assert!(t.layers().is_empty());
        assert_eq!(t.bytes("x"), 0);
    }
}
