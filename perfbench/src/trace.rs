//! Host-time spans recorded by the benchmark around each call it makes
//! into the simulator crates. Spans nest (a pass contains its calls),
//! live in memory while the run lasts, and are written out once at exit
//! in the Chrome trace-event format that Perfetto opens.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `cluster.two_node`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// Benchmark operation the span belongs to; the spans of one call
    /// share it.
    pub op: u64,
}

impl Span {
    /// Wall duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Open a span nested in the innermost open one. Returns its index.
    pub fn open(&mut self, name: &'static str, op: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Every span recorded so far, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Chrome trace-event JSON of every span (complete "X" events, µs).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children of one parent are sequential on this single
/// thread, so their durations add without overlap.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Per-name totals over the spans in `range`: (total ns, self ns, count).
pub fn totals_by_name(
    spans: &[Span],
    range: Range<usize>,
) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, &self_ns) in spans[range.clone()].iter().zip(&selfs[range]) {
        let e = out.entry(s.name).or_default();
        e.0 += s.dur_ns();
        e.1 += self_ns;
        e.2 += 1;
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
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("call", 10, 40, Some(0)),
            span("inner", 15, 35, Some(1)),
            span("call", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 10, 20, 40]);
        let t = totals_by_name(&spans, 0..4);
        assert_eq!(t["call"], (70, 50, 2));
        assert_eq!(t["pass"], (100, 30, 1));
        let middle = totals_by_name(&spans, 1..3);
        assert_eq!(middle.len(), 2);
        assert_eq!(middle["call"], (30, 10, 1));
        assert_eq!(middle["inner"], (20, 20, 1));
    }

    #[test]
    fn tracer_nests_and_exports() {
        let mut t = Tracer::default();
        let a = t.open("pass", 0);
        let b = t.open("call", 7);
        t.close(b);
        t.close(a);
        assert_eq!(t.spans()[b].parent, Some(a));
        assert_eq!(t.spans()[a].parent, None);
        assert!(t.spans()[a].dur_ns() >= t.spans()[b].dur_ns());
        let json = t.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"call\""));
        assert!(json.contains("\"op\":7"));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::default();
        let a = t.open("a", 0);
        let _b = t.open("b", 0);
        t.close(a);
    }
}
