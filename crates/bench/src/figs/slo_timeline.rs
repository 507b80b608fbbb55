//! The SLO engine's headline proof: the burn-rate pager fires during an
//! unprotected incast collapse and stays silent when the overload plane
//! survives the same storm.
//!
//! Three regimes of the 9-ring incast harness, one declared objective:
//!
//! * `clean` — 1× offered load, plane off: healthy traffic, every
//!   window under threshold, zero alerts.
//! * `incast-4x-plane-off` — the PR 9 collapse: queueing delay crosses
//!   the 1 ms watchdog, duplicate re-issues steal the funnel, latency
//!   and errors burn the budget — the burn-rate rules must fire.
//! * `incast-4x-plane-on` — same storm, ECN marking + AIMD pacing on:
//!   the hosts shed excess at the source, the stream stays inside the
//!   objective, and the pager stays silent.
//!
//! The rendered window timeline, budget burn and alert firings are
//! committed as `results/slo_timeline.txt` and CI-diffed; the asserts
//! below make alert-on-collapse and silence-on-survival hard
//! acceptance criteria, not just prose.

use crate::emit;
use apenet_cluster::harness::{incast_run_slo_traced, IncastParams, IncastReport, IncastVerb};
use apenet_cluster::presets::{cluster_i_incast, incast_dims};
use apenet_obs::alert::AlertKind;
use apenet_obs::report::RunReport;
use apenet_obs::slo::SloConfig;
use apenet_rdma::pacing::PacerConfig;
use apenet_sim::SimDuration;

const SENDERS: u32 = 8;
const MSGS: u32 = 32;
const MSG_LEN: u64 = 32 * 1024;

/// The declared objective all three regimes are held to: 95 % of
/// messages within 3 ms, folded in 1 ms windows. Calibrated against
/// the regimes' measured latency profiles: clean traffic lands around
/// 284 µs p99 (multi-hop 32 KiB PUTs over 4 Gbps cables serialize in
/// ~65 µs per hop), the paced storm's AIMD probing transient briefly
/// delays a handful of messages to ~5 ms, and the unprotected collapse
/// blows past 6–31 ms with watchdog-exhausted errors on top. The
/// 3 ms / 95 % line is what makes the demo honest: the paced transient
/// *visibly burns budget* for a few windows, and the multi-window
/// burn-rate rules still (correctly) decline to page on it.
pub fn objective() -> SloConfig {
    SloConfig {
        window: SimDuration::from_ms(1),
        threshold: SimDuration::from_ms(3),
        target_permille: 950,
    }
}

/// One regime: `offered`× load with the overload plane off or on.
pub fn regime(offered: u32, plane: bool) -> (IncastReport, RunReport) {
    let (report, slo, _) = incast_run_slo_traced(
        incast_dims(),
        cluster_i_incast(plane),
        IncastParams {
            senders: SENDERS,
            msgs_per_sender: MSGS,
            msg_len: MSG_LEN,
            offered,
            verb: IncastVerb::Put,
            pacer: plane.then(PacerConfig::default),
        },
        objective(),
    );
    (report, slo)
}

/// Regenerate this experiment.
pub fn run() {
    let mut out = String::from(
        "# Streaming SLO engine over the incast storm: 8 ranks of a 9-ring\n\
         # PUT-storm rank 0 (32 x 32 KiB each) under one declared objective\n\
         # (95% of messages within 3 ms, 1 ms tumbling windows). burn = how\n\
         # fast each window spends the 5% error budget (1.000x = exactly at\n\
         # the tolerated rate); alerts are rising-edge firings of the stock\n\
         # pager (fast 10x burn over 4w/1w lookbacks, slow 2x over 16w/4w,\n\
         # p99 threshold backstop at 2x). The unprotected 4x storm must page;\n\
         # clean traffic must stay silent; the plane-on storm may burn budget\n\
         # through its AIMD probing transient but must neither page nor miss\n\
         # the objective.\n\n",
    );
    let mut burn_alerts_off = 0usize;
    for (name, offered, plane) in [
        ("clean", 1, false),
        ("incast-4x-plane-off", 4, false),
        ("incast-4x-plane-on", 4, true),
    ] {
        let (r, slo) = regime(offered, plane);
        assert!(r.payload_ok, "{name}: delivered slots stay byte-exact");
        out.push_str(&slo.render(name));
        out.push('\n');
        match name {
            "incast-4x-plane-off" => {
                burn_alerts_off = slo
                    .alerts
                    .iter()
                    .filter(|a| a.kind == AlertKind::BurnRate)
                    .count();
                assert!(
                    burn_alerts_off >= 1,
                    "the unprotected collapse must fire a burn-rate alert"
                );
                assert!(!slo.track.met(), "the collapse must blow the budget");
            }
            _ => {
                assert!(
                    slo.alerts.is_empty(),
                    "{name}: the pager must stay silent (got {:?})",
                    slo.alerts
                );
                assert!(slo.track.met(), "{name}: the objective must hold");
            }
        }
    }
    out.push_str(&format!(
        "verdict: {burn_alerts_off} burn-rate alert(s) on the unprotected collapse, \
         0 alerts clean, 0 alerts with the plane on\n"
    ));
    emit("slo_timeline", &out);
}
