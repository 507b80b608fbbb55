//! Perf-regression gate: compare fresh bench JSON against a committed
//! baseline and fail (exit 1) on regression.
//!
//! Two modes:
//!
//! * `perf-gate check <baseline.json> <fresh.json>` — pure comparison of
//!   two existing reports (what a CI artifact diff uses);
//! * `perf-gate` — run the in-tree microbench suite fresh (respecting
//!   `APENET_BENCH_ITERS`) and gate it against the committed
//!   `BENCH_microbench.json`.
//!
//! Tolerance for wall-derived metrics comes from `APENET_GATE_TOL`
//! (default [`apenet_obs::gate::DEFAULT_TOL`]); deterministic event
//! counts are compared exactly regardless.

use apenet_bench::microbench::{self, Harness};
use apenet_obs::gate;

/// Tolerance from `APENET_GATE_TOL` (a fraction, e.g. `0.25`), or
/// [`gate::DEFAULT_TOL`].
fn tol_from_env() -> f64 {
    std::env::var("APENET_GATE_TOL")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .filter(|t: &f64| t.is_finite() && *t >= 0.0)
        .unwrap_or(gate::DEFAULT_TOL)
}

fn gate_docs(baseline_name: &str, baseline: &str, fresh: &str, tol: f64) -> i32 {
    let out = match gate::compare(baseline, fresh, tol) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perf-gate: malformed JSON: {e}");
            return 2;
        }
    };
    print!("{}", out.render(baseline_name));
    i32::from(!out.passed())
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perf-gate: cannot read {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tol = tol_from_env();
    let code = match args.get(1).map(String::as_str) {
        Some("check") => match (args.get(2), args.get(3)) {
            (Some(b), Some(f)) => gate_docs(b, &read(b), &read(f), tol),
            _ => {
                eprintln!("usage: perf-gate check <baseline.json> <fresh.json>");
                2
            }
        },
        None => {
            let baseline_path = "BENCH_microbench.json";
            let baseline = read(baseline_path);
            let mut h = Harness::from_env();
            eprintln!(
                "[perf-gate] fresh microbench: {} samples after {} warmup rounds",
                h.iters, h.warmup
            );
            microbench::run_all(&mut h);
            gate_docs(baseline_path, &baseline, &h.to_json(), tol)
        }
        Some(other) => {
            eprintln!(
                "perf-gate: unknown mode {other:?}; usage: perf-gate [check <baseline> <fresh>]"
            );
            2
        }
    };
    std::process::exit(code);
}
