//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the suite is instrumented.
//! A disabled tracer calls the closure and records nothing, so the
//! untraced run pays no clock reads for it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer function name (`eig.tridiagonalize`, ...).
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The end-to-end operation this span belongs to (all spans of one
    /// operation share it).
    pub op: usize,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    /// Microseconds since the tracer was created.
    pub end_us: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_us - self.start_us) * 1e-6
    }
}

/// Records spans while enabled; holds them until the run ends.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` of operation `op`.
    pub fn span<T>(&self, op: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                parent: self.stack.borrow().last().copied(),
                op,
                start_us: self.now_us(),
                end_us: 0.0,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(index);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_us = self.now_us();
        out
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Seconds spent in spans named `name`, summed per operation, in
    /// operation order (operations without such a span are left out).
    pub fn per_op_seconds(&self, name: &str) -> Vec<f64> {
        let mut per_op: BTreeMap<usize, f64> = BTreeMap::new();
        for span in self.spans.borrow().iter().filter(|s| s.name == name) {
            *per_op.entry(span.op).or_insert(0.0) += span.seconds();
        }
        per_op.into_values().collect()
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Every span as one JSON array (written out when the run ends).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .borrow()
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"op\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                    s.name, s.op, s.start_us, s.end_us
                )
            })
            .collect();
        format!("[\n{}\n]", rows.join(",\n"))
    }
}
