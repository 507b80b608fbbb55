//! One pass over a workload's operations: each call is timed on its own
//! (so output checks stay outside the timed window), guarded against
//! panics, and wrapped in a span when the pass is traced.

use crate::trace::Tracer;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Everything one pass measured and produced.
pub struct Pass {
    /// Span recorder, when the pass is traced.
    pub tracer: Option<Tracer>,
    next_op: u64,
    /// Host ns spent inside the timed calls.
    pub wall_ns: u64,
    /// Calls made.
    pub attempted: u64,
    /// Ops that panicked or failed an output check.
    pub failed: BTreeSet<u64>,
    /// One line per failure, for the run's detail output.
    pub failures: Vec<String>,
    /// Deterministic simulated outputs, one line per call, in call order.
    pub det: Vec<String>,
    /// Deterministic per-layer counts.
    pub counts: BTreeMap<&'static str, f64>,
    /// Host-time per-layer measurements that are not spans (profile
    /// buckets), ns.
    pub layer_ns: BTreeMap<&'static str, u64>,
    /// Events the simulator dispatched during the pass.
    pub events: u64,
}

impl Pass {
    /// A pass whose op ids start at `first_op`; `tracer` turns spans on.
    pub fn new(first_op: u64, tracer: Option<Tracer>) -> Self {
        Pass {
            tracer,
            next_op: first_op,
            wall_ns: 0,
            attempted: 0,
            failed: BTreeSet::new(),
            failures: Vec::new(),
            det: Vec::new(),
            counts: BTreeMap::new(),
            layer_ns: BTreeMap::new(),
            events: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Id the next call will get.
    pub fn next_op(&self) -> u64 {
        self.next_op
    }

    /// Time one call. A panic counts the op as failed and yields `None`.
    pub fn call<T>(&mut self, span: &'static str, f: impl FnOnce() -> T) -> Option<T> {
        let op = self.next_op;
        self.next_op += 1;
        self.attempted += 1;
        let id = self.tracer.as_mut().map(|t| t.open(span, op));
        let events0 = apenet_sim::engine::thread_events();
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(f));
        self.wall_ns += t0.elapsed().as_nanos() as u64;
        self.events += apenet_sim::engine::thread_events() - events0;
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), id) {
            t.close(id);
        }
        match out {
            Ok(v) => Some(v),
            Err(_) => {
                self.fail(op, format!("{span}: panicked"));
                None
            }
        }
    }

    /// Output check on the most recent call.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(self.next_op - 1, what());
        }
    }

    /// Count `op` as failed.
    pub fn fail(&mut self, op: u64, what: String) {
        self.failed.insert(op);
        self.failures.push(format!("op {op}: {what}"));
    }

    /// Record one deterministic output line.
    pub fn det(&mut self, line: impl Display) {
        self.det.push(line.to_string());
    }

    /// Add to a deterministic per-layer count.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// Add host ns to a non-span per-layer bucket.
    pub fn add_ns(&mut self, name: &'static str, ns: u64) {
        *self.layer_ns.entry(name).or_default() += ns;
    }
}
