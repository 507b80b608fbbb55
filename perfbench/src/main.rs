//! perfbench: the apenet-rs benchmark.
//!
//! ```text
//! perfbench --workload <bfs_rmat|p2p_sweep|torus_faults> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The invoked process only orchestrates. It removes every `APENET_*` and
//! `HSG_TRACE` variable from its children's environment (the library
//! reads some of them), then starts the workload several times in set-up
//! mode and once in run mode, serially. Set-up time is measured from
//! spawning a child until it reports ready; the median over all children
//! is `setup_s`. The run child times passes over the workload's calls for
//! `--seconds`, checks their outputs outside the timed window, and reports
//! back. The last line of standard output is the result as one JSON
//! object; the line before it is a JSON object of run details.

mod metrics;
mod pass;
mod stats;
mod trace;
mod workload;

use pass::Pass;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::SimMetrics;

/// Children started per run; all but the last only set up.
const SETUP_SAMPLES: usize = 5;
/// Passes (rounds, when traced) a run makes however long they take.
const MIN_ROUNDS: u32 = 3;
/// The seed whose simulated outputs are pinned in `expect/`.
const DEFAULT_SEED: u64 = 1;
const USAGE: &str =
    "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Role {
    Parent,
    Setup,
    Run,
}

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    role: Role,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        role: Role::Parent,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(bad)?,
            "--seconds" => {
                a.seconds = val.parse().map_err(|_| format!("bad --seconds {val}"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got {val}"));
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val}")),
                }
            }
            "--role" => {
                a.role = match val.as_str() {
                    "setup" => Role::Setup,
                    "run" => Role::Run,
                    _ => return Err(format!("unknown role {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workload::NAMES.contains(&a.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; one of {:?}",
            a.workload,
            workload::NAMES
        ));
    }
    Ok(a)
}

/// Allocator setting every child runs with: a fixed mmap threshold, so
/// large buffers are returned to the system when freed and `VmHWM` follows
/// the live data instead of the heap's allocation history (with glibc's
/// adaptive threshold it jumped between two levels from seed to seed).
const CHILD_ENV: [(&str, &str); 1] = [("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=131072")];

/// Environment variables the library crates read as hidden inputs.
fn hidden_input(name: &str) -> bool {
    name.starts_with("APENET_") || name == "HSG_TRACE"
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.role {
        Role::Parent => parent(&args),
        Role::Setup | Role::Run => child(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Parent: spawn set-up children and the run child, assemble the result.
// ---------------------------------------------------------------------------

/// Start a child in `role` and wait for it. Returns the seconds from
/// spawn to its `ready` line, and every line it printed after that.
fn spawn_child(a: &Args, role: &str, scrubbed: &[String]) -> Result<(f64, Vec<String>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &a.workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if a.trace { "1" } else { "0" }])
        .args(["--role", role])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    for k in scrubbed {
        cmd.env_remove(k);
    }
    cmd.envs(CHILD_ENV);
    let t0 = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut lines = BufReader::new(stdout).lines();
    let first = lines.next().transpose();
    let setup = t0.elapsed().as_secs_f64();
    let rest: Result<Vec<String>, _> = lines.collect();
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    if !status.success() {
        return Err(format!("{role} child exited with {status}"));
    }
    match first.map_err(|e| format!("read: {e}"))? {
        Some(l) if l == "ready" => {}
        other => return Err(format!("{role} child did not report ready: {other:?}")),
    }
    Ok((setup, rest.map_err(|e| format!("read: {e}"))?))
}

fn parent(a: &Args) -> Result<(), String> {
    let mut scrubbed: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| hidden_input(k))
        .collect();
    scrubbed.sort();
    let mut setup_samples = Vec::new();
    for _ in 1..SETUP_SAMPLES {
        setup_samples.push(spawn_child(a, "setup", &scrubbed)?.0);
    }
    let (setup, lines) = spawn_child(a, "run", &scrubbed)?;
    setup_samples.push(setup);

    // The run child's report: `<kind> <name> <value>` lines plus one
    // JSON detail line.
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut detail = None;
    for l in &lines {
        if let Some(d) = l.strip_prefix("detail ") {
            detail = Some(d.to_string());
        } else if let Some(kv) = l.strip_prefix("metric ") {
            let (k, v) = kv
                .split_once(' ')
                .ok_or_else(|| format!("bad line {l:?}"))?;
            let v: f64 = v.parse().map_err(|_| format!("bad value in {l:?}"))?;
            values.insert(k.to_string(), v);
        }
    }
    let setup_s = stats::median(&setup_samples).expect("at least one sample");
    values.insert("setup_s".into(), setup_s);
    let get = |k: &str| values.get(k).copied();
    let attempted = get("ops").ok_or("run child reported no op count")? as u64;
    let failed = get("ops_failed").ok_or("run child reported no failure count")? as u64;
    let mut correct = get("correct") == Some(1.0) && failed == 0;

    let table: &[(&str, &str)] = if a.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    let mut out = String::new();
    for (name, unit) in table {
        let v = get(name).filter(|v| v.is_finite()).unwrap_or_else(|| {
            correct = false;
            0.0
        });
        let sep = if out.is_empty() { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    let env = join(scrubbed.iter().map(|k| json_str(k)));
    let samples = join(setup_samples.iter().map(f64::to_string));
    let set = join(
        CHILD_ENV
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))),
    );
    println!(
        "{{\"setup_samples_s\": [{samples}], \"env_removed\": [{env}], \"env_set\": {{{set}}}, \"run\": {}}}",
        detail.unwrap_or_else(|| "null".into())
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{out}}}}}"
    );
    Ok(())
}

/// Comma-separated list, for JSON arrays and objects.
fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(", ")
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Child: set up, then (run role) time passes, check, report.
// ---------------------------------------------------------------------------

fn child(a: &Args) -> Result<(), String> {
    let leaked: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| hidden_input(k))
        .collect();
    let mut wl = workload::make(&a.workload, a.seed).expect("workload validated by parse_args");
    wl.warm_up();
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "ready").map_err(|e| e.to_string())?;
    stdout.flush().map_err(|e| e.to_string())?;
    if a.role == Role::Setup {
        return Ok(());
    }

    let calib_ms = calibrate_ms();
    let budget = Duration::from_secs_f64(a.seconds);
    let start = Instant::now();
    let mut tracer = a.trace.then(Tracer::default);
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, std::ops::Range<usize>)> = Vec::new();
    let mut next_op = 0u64;
    let mut rounds = 0u32;
    let mut peaks_mb = Vec::new();
    loop {
        reset_peak_rss();
        let mut p = Pass::new(next_op, None);
        wl.pass(&mut p, plain.is_empty());
        next_op = p.next_op();
        plain.push(p);
        peaks_mb.extend(peak_rss_mb());
        if let Some(mut t) = tracer.take() {
            let from = t.spans().len();
            let root = t.open("bench.pass", next_op);
            let mut p = Pass::new(next_op, Some(t));
            wl.pass(&mut p, false);
            next_op = p.next_op();
            let mut t = p.tracer.take().expect("tracer handed back");
            t.close(root);
            traced.push((p, from..t.spans().len()));
            tracer = Some(t);
        }
        rounds += 1;
        let elapsed = start.elapsed();
        if rounds >= MIN_ROUNDS && elapsed + elapsed / rounds > budget {
            break;
        }
    }

    // Everything below is outside the timed window.
    let mut failures: Vec<String> = Vec::new();
    if !leaked.is_empty() {
        failures.push(format!("hidden inputs reached the run: {leaked:?}"));
    }
    let base = &plain[0];
    let later = plain.iter().skip(1).chain(traced.iter().map(|(p, _)| p));
    for (i, p) in later.enumerate() {
        if p.det != base.det || p.counts != base.counts || p.events != base.events {
            failures.push(format!(
                "simulated outputs of pass {} differ from pass 0",
                i + 1
            ));
        }
    }
    let sim = wl.finish(&mut plain[0]);
    if sim.is_none() {
        failures.push("no simulated metrics: a call failed or produced nothing".into());
    }
    let det = det_text(&plain[0], sim);
    failures.extend(check_determinism(a, &det));
    let all = plain.iter().chain(traced.iter().map(|(p, _)| p));
    let attempted: u64 = all.clone().map(|p| p.attempted).sum();
    let mut failed: u64 = all.clone().map(|p| p.failed.len() as u64).sum();
    failures.extend(all.flat_map(|p| p.failures.iter().cloned()));
    if failed == 0 && !failures.is_empty() {
        // Failures not tied to one call (drift, leaked inputs) still fail
        // the run.
        failed = 1;
    }

    let walls: Vec<f64> = plain.iter().map(|p| p.wall_ns as f64 / 1e9).collect();
    let wall_s = stats::median(&walls).expect("at least one pass");
    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    m.insert("wall_s", wall_s);
    if let Some(mb) = stats::median(&peaks_mb) {
        m.insert("peak_rss_mb", mb);
    }
    if let Some(s) = sim {
        m.insert("sim_bw_mbps", s.bw_mbps);
        m.insert("sim_lat_us", s.lat_us);
        m.insert("sim_p99_us", s.p99_us);
        m.insert("sim_teps", s.teps);
    }
    let mut self_times = String::new();
    if let Some(t) = &tracer {
        let per_pass: Vec<BTreeMap<&str, f64>> = traced
            .iter()
            .map(|(p, spans)| layer_metrics(p, &plain[0], t, spans.clone(), wall_s))
            .collect();
        for (name, _) in metrics::PER_LAYER {
            let vals: Vec<f64> = per_pass
                .iter()
                .filter_map(|pm| pm.get(name).copied())
                .collect();
            if let Some(v) = stats::median(&vals) {
                m.insert(name, v);
            }
        }
        for (name, (total, self_ns, n)) in trace::totals_by_name(t.spans(), 0..t.spans().len()) {
            let sep = if self_times.is_empty() { "" } else { ", " };
            let _ = write!(
                self_times,
                "{sep}\"{name}\": {{\"total_s\": {}, \"self_s\": {}, \"count\": {n}}}",
                total as f64 / 1e9,
                self_ns as f64 / 1e9
            );
        }
        let path = out_dir().join(format!("trace-{}-{}.json", a.workload, a.seed));
        write_file(&path, &t.to_chrome_json())?;
    }
    let correct = failures.is_empty();
    let pass_walls = join(walls.iter().map(f64::to_string));
    let wall_quartiles = stats::quartiles(&walls)
        .map_or_else(|| "null".to_string(), |(q1, q3)| format!("[{q1}, {q3}]"));
    let failure_list = join(failures.iter().take(20).map(|f| json_str(f)));
    writeln!(
        stdout,
        "detail {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"rounds\": {rounds}, \
         \"pass_wall_s\": [{pass_walls}], \"pass_wall_q1_q3_s\": {wall_quartiles}, \"host.calib_ms\": {calib_ms}, \"ops\": {attempted}, \
         \"ops_failed\": {failed}, \"sim.events\": {}, \"det_digest\": \"{:016x}\", \
         \"self_time\": {{{self_times}}}, \"failures\": [{failure_list}]}}",
        json_str(&a.workload),
        a.seed,
        a.trace,
        plain[0].events,
        workload::fnv1a(det.bytes()),
    )
    .map_err(|e| e.to_string())?;
    for (k, v) in &m {
        writeln!(stdout, "metric {k} {v}").map_err(|e| e.to_string())?;
    }
    writeln!(stdout, "metric ops {attempted}").map_err(|e| e.to_string())?;
    writeln!(stdout, "metric ops_failed {failed}").map_err(|e| e.to_string())?;
    writeln!(stdout, "metric correct {}", u8::from(correct)).map_err(|e| e.to_string())?;
    stdout.flush().map_err(|e| e.to_string())
}

/// Per-layer metrics of one traced pass. `base` is the first untraced
/// pass (the deterministic counts and the kept-pass outputs), `plain_wall_s`
/// the median untraced pass time.
fn layer_metrics(
    p: &Pass,
    base: &Pass,
    t: &Tracer,
    spans: std::ops::Range<usize>,
    plain_wall_s: f64,
) -> BTreeMap<&'static str, f64> {
    let spans = trace::totals_by_name(t.spans(), spans);
    let secs = |name: &str| spans.get(name).map_or(0.0, |s| s.0 as f64 / 1e9);
    let layer = |name: &str| p.layer_ns.get(name).map_or(0.0, |&ns| ns as f64 / 1e9);
    let count = |name: &str| base.counts.get(name).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let graph_s = secs("apps.bfs.rmat") + secs("apps.bfs.csr");
    let traverse_s = secs("apps.bfs.run_apenet") + secs("apps.bfs.run_ib");
    let traced_wall_s = p.wall_ns as f64 / 1e9 - graph_s;
    let mut m = BTreeMap::new();
    m.insert("apps.bfs.rmat_s", secs("apps.bfs.rmat"));
    m.insert("apps.bfs.csr_s", secs("apps.bfs.csr"));
    m.insert("apps.bfs.run_apenet_s", secs("apps.bfs.run_apenet"));
    m.insert("apps.bfs.run_ib_s", secs("apps.bfs.run_ib"));
    m.insert("apps.bfs.traverse_self_s", (traverse_s - graph_s).max(0.0));
    m.insert("apps.bfs.graph_edges", count("apps.bfs.graph_edges"));
    m.insert("sim.events", base.events as f64);
    m.insert(
        "sim.host_ns_per_event",
        ratio(plain_wall_s * 1e9, base.events as f64),
    );
    m.insert("core.card.dispatch_s", layer("core.card.dispatch"));
    m.insert("cluster.host.dispatch_s", layer("cluster.host.dispatch"));
    m.insert(
        "sim.engine_self_s",
        (secs("cluster.two_node") - layer("sim.dispatch")).max(0.0),
    );
    for (metric, span) in [
        ("cluster.flush_read_s", "cluster.flush_read"),
        ("cluster.two_node_s", "cluster.two_node"),
        ("cluster.pingpong_s", "cluster.pingpong"),
        ("cluster.chaos_s", "cluster.chaos"),
        ("cluster.incast_s", "cluster.incast"),
        ("cluster.get_s", "cluster.get"),
        ("ib.osu_s", "ib.osu"),
        ("obs.fold_s", "obs.fold"),
    ] {
        m.insert(metric, secs(span));
    }
    for name in [
        "core.link.retransmits",
        "core.link.timeouts",
        "core.route.detours",
        "core.ecn.marked",
        "rdma.watchdog_reissues",
        "rdma.pacer.throttled",
        "obs.trace_records",
    ] {
        m.insert(name, count(name));
    }
    let delivered = count("msgs.delivered");
    m.insert(
        "core.link.retransmits_per_msg",
        ratio(count("core.link.retransmits"), delivered),
    );
    m.insert(
        "rdma.delivered_per_issued",
        ratio(
            delivered,
            count("msgs.expected") + count("rdma.watchdog_reissues"),
        ),
    );
    m.insert(
        "rdma.get.doorbell_batched_ratio",
        ratio(count("rdma.get.doorbell_batched"), count("rdma.get.posted")),
    );
    m.insert(
        "bench.trace_overhead_pct",
        (traced_wall_s / plain_wall_s - 1.0) * 100.0,
    );
    m
}

/// The run's deterministic outputs as text: every call's simulated
/// result, the per-layer counts, the event count and the modelled metrics.
fn det_text(p: &Pass, sim: Option<SimMetrics>) -> String {
    let mut out = String::new();
    for l in &p.det {
        let _ = writeln!(out, "{l}");
    }
    for (k, v) in &p.counts {
        let _ = writeln!(out, "count {k} {v}");
    }
    let _ = writeln!(out, "events {}", p.events);
    if let Some(s) = sim {
        let _ = writeln!(
            out,
            "sim bw_mbps={} lat_us={} p99_us={} teps={}",
            s.bw_mbps, s.lat_us, s.p99_us, s.teps
        );
    }
    out
}

/// Run-to-run determinism: the outputs must equal those of every earlier
/// run of this workload and seed in this checkout, and for the default
/// seed the committed expectations.
fn check_determinism(a: &Args, det: &str) -> Vec<String> {
    let mut failures = Vec::new();
    if a.seed == DEFAULT_SEED {
        let expected = match a.workload.as_str() {
            "bfs_rmat" => include_str!("../expect/bfs_rmat.txt"),
            "p2p_sweep" => include_str!("../expect/p2p_sweep.txt"),
            _ => include_str!("../expect/torus_faults.txt"),
        };
        if let Some(line) = first_difference(expected, det) {
            failures.push(format!("differs from expect/{}.txt: {line}", a.workload));
        }
    }
    let path = out_dir().join(format!("det-{}-{}.txt", a.workload, a.seed));
    match std::fs::read_to_string(&path) {
        Ok(earlier) => {
            if let Some(line) = first_difference(&earlier, det) {
                failures.push(format!("differs from an earlier run of this seed: {line}"));
            }
        }
        Err(_) => {
            if let Err(e) = write_file(&path, det) {
                failures.push(e);
            }
        }
    }
    failures
}

/// The first line where `got` departs from `want`, if any.
fn first_difference(want: &str, got: &str) -> Option<String> {
    let mut w = want.lines();
    let mut g = got.lines();
    for n in 1.. {
        match (w.next(), g.next()) {
            (None, None) => return None,
            (a, b) if a == b => {}
            (a, b) => return Some(format!("line {n}: want {a:?}, got {b:?}")),
        }
    }
    unreachable!()
}

/// Where runs leave their traces and determinism records.
fn out_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Lower the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so the
/// next reading is the peak of one pass: the median over passes then does
/// not depend on how many passes the host's speed allowed. On a kernel
/// without the reset the readings stay cumulative, which is still a peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    stats::parse_vmhwm_mb(&status)
}

/// Median ms of the repository's calibration kernel: one million
/// xoshiro256** draws. Host speed drift shows here, not in the workload.
fn calibrate_ms() -> f64 {
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            let mut rng = apenet_sim::rng::Xoshiro256ss::seed_from(7);
            let mut acc = 0u64;
            for _ in 0..1_000_000 {
                acc = acc.wrapping_add(rng.next_u64());
            }
            std::hint::black_box(acc);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&samples).expect("seven samples")
}
