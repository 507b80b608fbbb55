//! Tumbling sim-time windows over per-message latency ledgers.
//!
//! The tail plane ([`crate::latency`]) answers "where did the slow
//! messages go" *after* a run; this module is the streaming half of the
//! SLO engine: it cuts simulated time into fixed tumbling windows and
//! folds every completed [`MsgLedger`] into the window containing its
//! *delivery* instant, producing one [`PercentileDigest`] per window.
//! Everything is keyed by integer-picosecond sim time — two runs of the
//! same schedule fold to byte-identical windows, and no wall clock
//! exists anywhere in the plane.
//!
//! The windows compose: [`merged_digest`] merges the per-window digests
//! back into one, and [`PercentileDigest::merge`] guarantees the result
//! answers every quantile within the digest's documented ≤ 6.25 %
//! relative-error bound of the whole-run digest (exactly equal while
//! both stay under the retention cap) — the property the window
//! property test pins across window counts 1/7/64.

use crate::digest::PercentileDigest;
use crate::latency::MsgLedger;
use apenet_sim::{SimDuration, SimTime};

/// One tumbling window's fold of the latency stream.
#[derive(Debug, Clone)]
pub struct Window {
    /// Window index: `floor(delivery_ps / width_ps)`.
    pub index: u64,
    /// Inclusive start of the window in sim time.
    pub start: SimTime,
    /// Exclusive end of the window in sim time.
    pub end: SimTime,
    /// End-to-end latency digest over messages *delivered* inside the
    /// window (submit-to-delivery, picoseconds).
    pub digest: PercentileDigest,
    /// Messages delivered inside the window.
    pub completed: u64,
    /// Messages whose typed error landed inside the window (their
    /// latency is not folded into `digest`: an errored message has no
    /// honest end-to-end latency).
    pub errors: u64,
}

impl Window {
    /// The window's p99 end-to-end latency in ps (0 when it saw no
    /// completion — an empty window has no latency, not a zero one;
    /// callers render empties as idle).
    pub fn p99_ps(&mut self) -> u64 {
        self.digest.quantile(0.99).unwrap_or(0)
    }
}

/// Fold `ledgers` into contiguous tumbling windows of `width`. Every
/// index from 0 through the last occupied window is present (empty
/// windows carry an empty digest), so the timeline has no gaps; an
/// empty ledger set folds to no windows at all. Incomplete ledgers
/// without a typed error are skipped — a truncated capture is the tail
/// plane's business, not a latency observation.
pub fn fold_windows(ledgers: &[MsgLedger], width: SimDuration) -> Vec<Window> {
    let width_ps = width.as_ps().max(1);
    let slot_of = |l: &MsgLedger| l.bounds[9].as_ps() / width_ps;
    let last = ledgers
        .iter()
        .filter(|l| l.complete || l.error.is_some())
        .map(slot_of)
        .max();
    let Some(last) = last else {
        return Vec::new();
    };
    let mut windows: Vec<Window> = (0..=last)
        .map(|i| Window {
            index: i,
            start: SimTime::from_ps(i * width_ps),
            end: SimTime::from_ps((i + 1) * width_ps),
            digest: PercentileDigest::new(),
            completed: 0,
            errors: 0,
        })
        .collect();
    for l in ledgers {
        if l.error.is_some() {
            windows[slot_of(l) as usize].errors += 1;
        } else if l.complete {
            let w = &mut windows[slot_of(l) as usize];
            w.digest.record(l.total().as_ps());
            w.completed += 1;
        }
    }
    windows
}

/// Merge every window's digest into one run-level digest (the
/// window-composability half of the SLO engine).
pub fn merged_digest(windows: &[Window]) -> PercentileDigest {
    let mut out = PercentileDigest::new();
    for w in windows {
        out.merge(&w.digest);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use apenet_sim::trace::SpanId;

    /// A complete ledger delivered at `at_ns` with `total_ns` latency.
    fn ledger(i: u64, at_ns: u64, total_ns: u64) -> MsgLedger {
        let t0 = SimTime::from_ps((at_ns - total_ns) * 1000);
        let t9 = SimTime::from_ps(at_ns * 1000);
        MsgLedger {
            span: SpanId::from_msg(0, i),
            len: 4096,
            bounds: [t0, t0, t0, t0, t0, t0, t0, t0, t9, t9],
            frames: 1,
            retransmits: 0,
            detours: 0,
            fetch_bytes: 4096,
            complete: true,
            error: None,
        }
    }

    #[test]
    fn fold_assigns_by_delivery_and_fills_gaps() {
        let ledgers = vec![
            ledger(1, 500, 100),   // window 0 of 1 µs
            ledger(2, 999, 10),    // window 0
            ledger(3, 3_500, 200), // window 3: windows 1-2 empty
        ];
        let ws = fold_windows(&ledgers, SimDuration::from_us(1));
        assert_eq!(ws.len(), 4);
        assert_eq!(ws[0].completed, 2);
        assert_eq!(ws[1].completed, 0);
        assert_eq!(ws[2].completed, 0);
        assert_eq!(ws[3].completed, 1);
        assert_eq!(ws[0].start, SimTime::ZERO);
        assert_eq!(ws[3].start, SimTime::from_ps(3_000_000));
        assert_eq!(ws[3].end, SimTime::from_ps(4_000_000));
        let mut w3 = ws[3].clone();
        assert_eq!(w3.p99_ps(), 200_000);
        let mut w1 = ws[1].clone();
        assert_eq!(w1.p99_ps(), 0, "empty window has no p99");
    }

    #[test]
    fn errors_count_without_polluting_latency() {
        let mut bad = ledger(7, 1_500, 100);
        bad.complete = false;
        bad.error = Some("unreachable");
        let ws = fold_windows(&[ledger(1, 500, 50), bad], SimDuration::from_us(1));
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[1].errors, 1);
        assert_eq!(ws[1].completed, 0);
        assert_eq!(ws[1].digest.count(), 0, "errors never enter the digest");
    }

    #[test]
    fn incomplete_without_error_is_skipped() {
        let mut trunc = ledger(9, 700, 10);
        trunc.complete = false;
        assert!(fold_windows(&[trunc], SimDuration::from_us(1)).is_empty());
    }

    /// Satellite property: for seeded random latency samples, a
    /// window-split fold + [`PercentileDigest::merge`] answers every
    /// quantile within the digest's documented ≤ 6.25 % relative-error
    /// bound of the single whole-run digest — across window counts
    /// 1 / 7 / 64, on both the exact path (equal caps → byte-identical)
    /// and the spilled path (tiny cap vs. exact truth → bounded above).
    #[test]
    fn prop_window_split_merge_stays_within_the_error_bound() {
        use apenet_sim::check::{cases, Gen};
        cases("window-split merge bound", 24, |g: &mut Gen| {
            let n = g.usize(64, 2048);
            let span_ns = g.u64(10_000, 1_000_000);
            let ledgers: Vec<MsgLedger> = (0..n as u64)
                .map(|i| {
                    let total_ns = g.u64(1, 5_000);
                    let at_ns = total_ns + g.u64(0, span_ns);
                    ledger(i, at_ns, total_ns)
                })
                .collect();
            let mut whole = PercentileDigest::new();
            for l in &ledgers {
                whole.record(l.total().as_ps());
            }
            for &k in &[1u64, 7, 64] {
                // Window width chosen so the fold produces ~k windows
                // (strictly wider than span/k, so the last delivery
                // lands below window index k).
                let width = SimDuration::from_ps((span_ns + 5_000) * 1000 / k + 1);
                let ws = fold_windows(&ledgers, width);
                assert!(
                    ws.len() as u64 <= k,
                    "width covers the span in ≤{k} windows"
                );
                let mut merged = merged_digest(&ws);
                assert_eq!(merged.count(), whole.count());
                // Exact path (default caps, nothing spills): the merge
                // is byte-identical to direct recording.
                assert_eq!(merged.snapshot_json(), whole.snapshot_json());

                // Spilled path: re-split under a tiny cap and compare
                // against the exact whole-run truth.
                let cap = *g.pick(&[16usize, 48, 128]);
                let mut spilled = PercentileDigest::with_cap(cap);
                for w in &ws {
                    spilled.merge(&w.digest);
                }
                for &q in &[0.5, 0.9, 0.99, 0.999] {
                    let truth = whole.quantile(q).expect("non-empty");
                    let approx = spilled.quantile(q).expect("non-empty");
                    assert!(
                        approx >= truth,
                        "spilled answers are upper bounds: q={q} approx={approx} truth={truth}"
                    );
                    // ≤ 6.25 % relative error: approx ≤ truth·(1+1/16),
                    // integer form with rounding slack.
                    assert!(
                        approx * 16 <= truth * 17 + 16,
                        "q={q} approx={approx} truth={truth} exceeds the 6.25% bound (k={k}, cap={cap})"
                    );
                }
            }
        });
    }

    #[test]
    fn window_merge_reproduces_the_run_digest() {
        let ledgers: Vec<MsgLedger> = (0..200)
            .map(|i| ledger(i, 100 + i * 37, 10 + (i * 13) % 400))
            .collect();
        let mut whole = PercentileDigest::new();
        for l in &ledgers {
            whole.record(l.total().as_ps());
        }
        for width_us in [1u64, 3, 1000] {
            let ws = fold_windows(&ledgers, SimDuration::from_us(width_us));
            let mut merged = merged_digest(&ws);
            assert_eq!(merged.count(), whole.count(), "width {width_us}us");
            assert_eq!(merged.snapshot_json(), whole.snapshot_json());
        }
    }
}
