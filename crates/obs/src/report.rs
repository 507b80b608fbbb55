//! Unified run report: windows + budget ledger + alert timeline +
//! published metrics, rendered deterministically.
//!
//! [`RunReport::build`] is the one-call front door to the SLO engine:
//! fold ledgers into windows ([`crate::window`]), evaluate the
//! objective ([`crate::slo`]), run the alert rules ([`crate::alert`]),
//! and publish the `window.*`/`slo.*`/`alert.*` ids into the plane's
//! own private [`Registry`] — the same scoping discipline as the tail
//! plane's `TailReport`: the SLO plane never touches the global
//! registry, so enabling it cannot perturb any other plane's
//! accounting.
//!
//! [`RunReport::render`] produces the committed-artifact text: fixed
//! integer formatting throughout (milli-units rendered as `N.NNNx`),
//! so two runs of the same schedule emit byte-identical reports and
//! `results/slo_timeline.txt` is CI-diffable.

use crate::alert::{evaluate_rules, Alert, AlertKind, RuleSet};
use crate::latency::MsgLedger;
use crate::registry::Registry;
use crate::slo::{evaluate, SloConfig, SloTrack};
use crate::window::{fold_windows, Window};
use std::fmt::Write as _;

/// Stable metric ids the SLO plane publishes, and their registration.
pub mod metrics {
    use crate::registry::Registry;

    /// Number of fold windows in the run (empties included).
    pub const WINDOW_COUNT: &str = "window.count";
    /// Messages delivered across all windows.
    pub const WINDOW_COMPLETED: &str = "window.completed";
    /// Messages ending in a typed error across all windows.
    pub const WINDOW_ERRORS: &str = "window.errors";
    /// Good messages (complete, error-free, within threshold).
    pub const SLO_GOOD: &str = "slo.good";
    /// Bad messages (errors and threshold misses).
    pub const SLO_BAD: &str = "slo.bad";
    /// Total observed messages (`good + bad`).
    pub const SLO_TOTAL: &str = "slo.total";
    /// Final cumulative budget consumption in milli-units.
    pub const SLO_BUDGET_CONSUMED_MILLI: &str = "slo.budget_consumed_milli";
    /// Worst single-window burn rate in milli-units.
    pub const SLO_MAX_BURN_MILLI: &str = "slo.max_burn_milli";
    /// The declared target in permille (mirrors the config).
    pub const SLO_TARGET_PERMILLE: &str = "slo.target_permille";
    /// The declared good-latency threshold in picoseconds.
    pub const SLO_THRESHOLD_PS: &str = "slo.threshold_ps";
    /// 1 when the run met its objective, 0 when it missed.
    pub const SLO_MET: &str = "slo.met";
    /// Total alert firings.
    pub const ALERT_FIRED: &str = "alert.fired";
    /// Threshold-rule firings.
    pub const ALERT_THRESHOLD_FIRED: &str = "alert.threshold_fired";
    /// Burn-rate-rule firings.
    pub const ALERT_BURN_FIRED: &str = "alert.burn_fired";

    /// Per-window p99 latency, one `(window_end_ps, p99_ps)` point per
    /// window (0 for idle windows) — exported as a Perfetto counter
    /// track next to the span traces.
    pub const WINDOW_P99: &str = "window.p99";
    /// Alert firings as `(fire_ps, observed)` points.
    pub const ALERT_TIMELINE: &str = "alert.timeline";

    /// Every counter id the plane publishes.
    pub const COUNTERS: [&str; 14] = [
        WINDOW_COUNT,
        WINDOW_COMPLETED,
        WINDOW_ERRORS,
        SLO_GOOD,
        SLO_BAD,
        SLO_TOTAL,
        SLO_BUDGET_CONSUMED_MILLI,
        SLO_MAX_BURN_MILLI,
        SLO_TARGET_PERMILLE,
        SLO_THRESHOLD_PS,
        SLO_MET,
        ALERT_FIRED,
        ALERT_THRESHOLD_FIRED,
        ALERT_BURN_FIRED,
    ];

    /// Every time-series id the plane publishes.
    pub const SERIES: [&str; 2] = [WINDOW_P99, ALERT_TIMELINE];

    /// Pre-create every id at zero/empty so completeness checks can
    /// verify the namespace both ways even on runs that never fire.
    pub fn register_metrics(reg: &Registry) {
        for id in COUNTERS {
            reg.counter(id);
        }
        for id in SERIES {
            reg.series(id);
        }
    }
}

/// The evaluated SLO engine output for one run.
#[derive(Debug)]
pub struct RunReport {
    /// The objective that was evaluated.
    pub cfg: SloConfig,
    /// The folded windows (digests consumed by evaluation, p99s intact).
    pub windows: Vec<Window>,
    /// The budget ledger.
    pub track: SloTrack,
    /// The rising-edge alert timeline.
    pub alerts: Vec<Alert>,
    /// The plane's own registry holding every published
    /// `window.*`/`slo.*`/`alert.*` id (plus any series the harness
    /// mirrors in, e.g. `cwnd.r*`).
    pub registry: Registry,
}

impl RunReport {
    /// Fold, evaluate, alert, publish. Pure function of the ledgers
    /// and the configuration: byte-identical across runs of the same
    /// schedule.
    pub fn build(ledgers: &[MsgLedger], cfg: SloConfig, rules: &RuleSet) -> RunReport {
        let mut windows = fold_windows(ledgers, cfg.window);
        let track = evaluate(&mut windows, cfg);
        let alerts = evaluate_rules(&mut windows, &track, rules);

        let registry = Registry::new();
        metrics::register_metrics(&registry);
        registry.add(metrics::WINDOW_COUNT, windows.len() as u64);
        registry.add(
            metrics::WINDOW_COMPLETED,
            windows.iter().map(|w| w.completed).sum(),
        );
        registry.add(
            metrics::WINDOW_ERRORS,
            windows.iter().map(|w| w.errors).sum(),
        );
        registry.add(metrics::SLO_GOOD, track.good);
        registry.add(metrics::SLO_BAD, track.bad);
        registry.add(metrics::SLO_TOTAL, track.total);
        registry.add(
            metrics::SLO_BUDGET_CONSUMED_MILLI,
            track.budget_consumed_milli,
        );
        registry.add(metrics::SLO_MAX_BURN_MILLI, track.max_burn_milli);
        registry.add(metrics::SLO_TARGET_PERMILLE, cfg.target_permille as u64);
        registry.add(metrics::SLO_THRESHOLD_PS, cfg.threshold.as_ps());
        registry.add(metrics::SLO_MET, track.met() as u64);
        registry.add(metrics::ALERT_FIRED, alerts.len() as u64);
        registry.add(
            metrics::ALERT_THRESHOLD_FIRED,
            alerts
                .iter()
                .filter(|a| a.kind == AlertKind::Threshold)
                .count() as u64,
        );
        registry.add(
            metrics::ALERT_BURN_FIRED,
            alerts
                .iter()
                .filter(|a| a.kind == AlertKind::BurnRate)
                .count() as u64,
        );
        let p99_series = registry.series(metrics::WINDOW_P99);
        for w in &mut windows {
            let p99 = w.p99_ps();
            p99_series.push(w.end, p99);
        }
        let timeline = registry.series(metrics::ALERT_TIMELINE);
        for a in &alerts {
            timeline.push(a.at, a.observed);
        }

        RunReport {
            cfg,
            windows,
            track,
            alerts,
            registry,
        }
    }

    /// Render the report as the committed-artifact text block.
    /// Consecutive idle (zero-message) windows collapse into one line
    /// so a long drain tail doesn't bury the burn.
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        let cfg = &self.cfg;
        let _ = writeln!(out, "== {title} ==");
        let _ = writeln!(
            out,
            "objective: window {}us  threshold {}us  target {}",
            cfg.window.as_ps() / 1_000_000,
            cfg.threshold.as_ps() / 1_000_000,
            permille(cfg.target_permille as u64),
        );
        let _ = writeln!(
            out,
            "messages: {} total, {} good, {} bad ({} errors)  windows: {}",
            self.track.total,
            self.track.good,
            self.track.bad,
            self.windows.iter().map(|w| w.errors).sum::<u64>(),
            self.windows.len(),
        );
        let _ = writeln!(
            out,
            "budget consumed: {}  max window burn: {}  objective {}",
            milli(self.track.budget_consumed_milli),
            milli(self.track.max_burn_milli),
            if self.track.met() { "MET" } else { "MISSED" },
        );
        let _ = writeln!(
            out,
            "{:>5} {:>10} {:>6} {:>6} {:>6} {:>10} {:>9}",
            "win", "start_us", "msgs", "good", "bad", "p99_us", "burn"
        );
        let mut i = 0;
        while i < self.windows.len() {
            let ws = &self.track.windows[i];
            if ws.total == 0 {
                let mut j = i;
                while j + 1 < self.windows.len() && self.track.windows[j + 1].total == 0 {
                    j += 1;
                }
                if j > i {
                    let _ = writeln!(
                        out,
                        "{:>5} {:>10} {:>6}",
                        format!("{}-{}", i, j),
                        self.windows[i].start.as_ps() / 1_000_000,
                        "idle"
                    );
                    i = j + 1;
                    continue;
                }
            }
            let w = &self.windows[i];
            let p99 = w.digest.clone().quantile(0.99).unwrap_or(0);
            let _ = writeln!(
                out,
                "{:>5} {:>10} {:>6} {:>6} {:>6} {:>10} {:>9}",
                w.index,
                w.start.as_ps() / 1_000_000,
                ws.total,
                ws.good,
                ws.bad,
                us(p99),
                milli(ws.burn_milli),
            );
            i += 1;
        }
        let _ = writeln!(out, "alerts: {}", self.alerts.len());
        for a in &self.alerts {
            let kind = match a.kind {
                AlertKind::Threshold => "threshold",
                AlertKind::BurnRate => "burn-rate",
            };
            let observed = match a.kind {
                AlertKind::Threshold => format!("p99 {}us", us(a.observed)),
                AlertKind::BurnRate => format!("burn {}", milli(a.observed)),
            };
            let _ = writeln!(
                out,
                "  [{kind}] {} fired at {}us (window {}, {observed})",
                a.rule,
                a.at.as_ps() / 1_000_000,
                a.window,
            );
        }
        out
    }
}

/// Milli-units as a fixed-point multiplier string (`1500` → `1.500x`).
fn milli(v: u64) -> String {
    format!("{}.{:03}x", v / 1000, v % 1000)
}

/// Permille as a fixed-point percentage (`990` → `99.0%`).
fn permille(v: u64) -> String {
    format!("{}.{}%", v / 10, v % 10)
}

/// Picoseconds as microseconds with one decimal (`1_500_000` → `1.5`).
fn us(ps: u64) -> String {
    format!("{}.{}", ps / 1_000_000, (ps % 1_000_000) / 100_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apenet_sim::trace::SpanId;
    use apenet_sim::SimTime;

    fn ledger(i: u64, at_us: u64, total_us: u64, error: Option<&'static str>) -> MsgLedger {
        let t9 = SimTime::from_ps(at_us * 1_000_000);
        let t0 = SimTime::from_ps((at_us - total_us) * 1_000_000);
        MsgLedger {
            span: SpanId::from_msg(0, i),
            len: 4096,
            bounds: [t0, t0, t0, t0, t0, t0, t0, t0, t9, t9],
            frames: 1,
            retransmits: 0,
            detours: 0,
            fetch_bytes: 4096,
            complete: error.is_none(),
            error,
        }
    }

    fn cfg() -> SloConfig {
        SloConfig {
            window: apenet_sim::SimDuration::from_us(100),
            threshold: apenet_sim::SimDuration::from_us(50),
            target_permille: 990,
        }
    }

    #[test]
    fn build_publishes_the_full_namespace() {
        let ledgers: Vec<MsgLedger> = (0..50)
            .map(|i| ledger(i, 20 + i, 10, None))
            .chain((50..60).map(|i| ledger(i, 400 + i, 200, None)))
            .collect();
        let report = RunReport::build(&ledgers, cfg(), &RuleSet::default());
        let snap = report.registry.counters();
        assert_eq!(snap.get(metrics::SLO_TOTAL), 60);
        assert_eq!(snap.get(metrics::SLO_GOOD), 50);
        assert_eq!(snap.get(metrics::SLO_BAD), 10);
        assert_eq!(snap.get(metrics::WINDOW_COMPLETED), 60);
        assert_eq!(snap.get(metrics::SLO_MET), 0, "17% bad misses a 1% budget");
        assert!(snap.get(metrics::ALERT_FIRED) > 0);
        assert_eq!(
            snap.get(metrics::ALERT_FIRED),
            snap.get(metrics::ALERT_THRESHOLD_FIRED) + snap.get(metrics::ALERT_BURN_FIRED)
        );
        // Every published id is in the declared namespace, and the
        // declared namespace is fully published.
        for id in snap.0.keys() {
            assert!(metrics::COUNTERS.contains(&id.as_str()), "undeclared {id}");
        }
        assert_eq!(
            report.registry.series(metrics::WINDOW_P99).len(),
            report.windows.len(),
            "one p99 point per window"
        );
        assert_eq!(
            report.registry.series(metrics::ALERT_TIMELINE).len(),
            report.alerts.len()
        );
    }

    #[test]
    fn clean_run_publishes_zero_alerts() {
        let ledgers: Vec<MsgLedger> = (0..50).map(|i| ledger(i, 20 + i, 10, None)).collect();
        let report = RunReport::build(&ledgers, cfg(), &RuleSet::default());
        assert!(report.alerts.is_empty());
        assert!(report.track.met());
        assert_eq!(report.registry.counters().get(metrics::SLO_MET), 1);
        assert!(report.registry.series(metrics::ALERT_TIMELINE).is_empty());
    }

    #[test]
    fn render_is_deterministic_and_collapses_idle_spans() {
        let ledgers = vec![ledger(0, 20, 10, None), ledger(1, 950, 10, None)];
        let report = RunReport::build(&ledgers, cfg(), &RuleSet::default());
        let a = report.render("clean");
        let b = report.render("clean");
        assert_eq!(a, b);
        assert!(a.contains("== clean =="));
        assert!(a.contains("target 99.0%"));
        assert!(a.contains("idle"), "idle gap between windows collapses");
        assert!(a.contains("1-8"), "windows 1..=8 are one idle row");
        assert!(a.contains("alerts: 0"));
    }

    #[test]
    fn errors_flow_into_the_report() {
        let ledgers = vec![
            ledger(0, 20, 10, None),
            ledger(1, 30, 10, Some("unreachable")),
        ];
        let report = RunReport::build(&ledgers, cfg(), &RuleSet::default());
        assert_eq!(report.registry.counters().get(metrics::WINDOW_ERRORS), 1);
        assert_eq!(report.track.bad, 1);
        assert!(report.render("r").contains("(1 errors)"));
    }
}
