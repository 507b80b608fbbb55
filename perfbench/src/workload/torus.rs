//! `torus_faults`: the card and RDMA layers under faults and overload
//! (the link-level reliability the follow-up papers stress). A 9-node
//! 8→1 incast at 4× and 8× offered load with the overload plane off and
//! on, one incast with the SLO plane whose captured spans the `obs` folds
//! re-read, two-node chaos runs at seeded fault plans with the tail
//! plane, GET chaos, and one mid-run cable kill routed around by detour.

use super::{sub_seed, SimMetrics, Workload};
use crate::pass::Pass;
use crate::stats::geomean;
use apenet_cluster::harness::{
    chaos_run, chaos_run_tail, get_chaos_run, incast_run, incast_run_slo_traced, ChaosParams,
    ChaosReport, IncastParams, IncastReport, IncastVerb,
};
use apenet_cluster::node::FaultPlan;
use apenet_cluster::presets::{
    cluster_i_chaos, cluster_i_hard_fault, cluster_i_incast, incast_dims,
};
use apenet_core::card::metrics as cm;
use apenet_core::coord::{LinkDir, TorusDims};
use apenet_obs::alert::RuleSet;
use apenet_obs::digest::PercentileDigest;
use apenet_obs::latency::{collect_ledgers, TailConfig, TailSummary};
use apenet_obs::report::RunReport;
use apenet_obs::slo::SloConfig;
use apenet_rdma::pacing::PacerConfig;
use apenet_rdma::signal::SignalConfig;
use apenet_sim::fault::FaultSpec;
use apenet_sim::rng::Xoshiro256ss;
use apenet_sim::{SimDuration, SimTime};

/// Per-frame fault rates of the two-node chaos runs (corrupt, drop and
/// stall each at this rate); the fault plans' seeds come from the run's.
const CHAOS_RATES: [f64; 3] = [1.0 / 200.0, 1.0 / 50.0, 1.0 / 20.0];
const GET_RATE: f64 = 1.0 / 50.0;
const INCAST_OFFERED: [u32; 2] = [4, 8];

fn chaos_params() -> ChaosParams {
    ChaosParams {
        msgs_per_rank: 64,
        msg_len: 128 * 1024,
        watchdog_reissue: true,
    }
}

fn kill_params() -> ChaosParams {
    ChaosParams {
        msgs_per_rank: 16,
        msg_len: 128 * 1024,
        watchdog_reissue: true,
    }
}

fn incast_params(offered: u32, plane: bool) -> IncastParams {
    IncastParams {
        senders: 8,
        msgs_per_sender: 32,
        msg_len: 32 * 1024,
        offered,
        verb: IncastVerb::Put,
        pacer: plane.then(PacerConfig::default),
    }
}

/// The objective the SLO-plane incast is judged against: 95 % of
/// messages within 3 ms, in 1 ms windows.
fn objective() -> SloConfig {
    SloConfig {
        window: SimDuration::from_ms(1),
        threshold: SimDuration::from_ms(3),
        target_permille: 950,
    }
}

/// Modelled samples of one pass.
#[derive(Default)]
struct Samples {
    bw_mbps: Vec<f64>,
    msgs_per_s: Vec<f64>,
    latency: PercentileDigest,
}

/// The workload.
pub struct TorusFaults {
    chaos_seeds: [u64; 3],
    get_seed: u64,
    kill_rank: u32,
    kill_at: SimTime,
    kept: Samples,
}

impl TorusFaults {
    /// Fault plans and the killed cable are drawn from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = Xoshiro256ss::seed_from(sub_seed(seed, 3));
        TorusFaults {
            chaos_seeds: [rng.next_u64(), rng.next_u64(), rng.next_u64()],
            get_seed: rng.next_u64(),
            kill_rank: rng.next_below(8) as u32,
            kill_at: SimTime::from_ps(rng.range_u64(10_000_000, 40_000_000)),
            kept: Samples::default(),
        }
    }
}

fn record_rate(delivered: u64, msg_len: u64, last: SimTime, s: &mut Samples) {
    let secs = last.since(SimTime::ZERO).as_secs_f64();
    s.bw_mbps
        .push(delivered as f64 * msg_len as f64 / secs / 1e6);
    s.msgs_per_s.push(delivered as f64 / secs);
}

/// Exactly-once, byte-exact, drained, and (with no partition) complete.
fn check_chaos(p: &mut Pass, what: &str, r: &ChaosReport) {
    p.check(
        r.payload_ok && r.duplicates == 0 && r.quiesced && r.delivered == r.expected,
        || {
            format!(
                "{what}: payload_ok={} duplicates={} quiesced={} delivered={}/{}",
                r.payload_ok, r.duplicates, r.quiesced, r.delivered, r.expected
            )
        },
    );
    p.det(format_args!(
        "{what} delivered={} last_ps={} end_ps={} retrans={} timeouts={} detours={} reissues={} dead={}",
        r.delivered,
        r.last_delivery.as_ps(),
        r.end.as_ps(),
        r.retransmits,
        r.timeouts,
        r.detours,
        r.watchdog_reissues,
        r.dead_links,
    ));
    p.count("core.link.retransmits", r.retransmits as f64);
    p.count("core.link.timeouts", r.timeouts as f64);
    p.count("core.route.detours", r.detours as f64);
    p.count("core.ecn.marked", r.metrics.get(cm::ECN_MARKED) as f64);
    p.count("rdma.watchdog_reissues", r.watchdog_reissues as f64);
    p.count("msgs.expected", r.expected as f64);
    p.count("msgs.delivered", r.delivered as f64);
}

/// Exactly-once, byte-exact, drained and complete. The unprotected storms
/// also raise typed error completions for messages the watchdog gave up
/// on too early; those messages still land, so they are reported, not
/// failed.
fn check_incast(p: &mut Pass, what: &str, r: &IncastReport) {
    p.check(
        r.payload_ok && r.duplicates == 0 && r.quiesced && r.delivered == r.expected,
        || {
            format!(
                "{what}: payload_ok={} duplicates={} quiesced={} delivered={}/{}",
                r.payload_ok, r.duplicates, r.quiesced, r.delivered, r.expected
            )
        },
    );
    p.det(format_args!(
        "{what} delivered={} errors={} goodput={} last_ps={} ecn={} throttled={} reissues={}",
        r.delivered,
        r.error_completions,
        r.goodput_mb_s,
        r.last_delivery.as_ps(),
        r.ecn_marked,
        r.throttled,
        r.watchdog_reissues,
    ));
    p.count(
        "core.link.retransmits",
        r.metrics.get(cm::RETRANSMITS) as f64,
    );
    p.count("core.link.timeouts", r.metrics.get(cm::TIMEOUTS) as f64);
    p.count("core.route.detours", r.metrics.get(cm::ROUTE_DETOUR) as f64);
    p.count("core.ecn.marked", r.ecn_marked as f64);
    p.count("rdma.watchdog_reissues", r.watchdog_reissues as f64);
    p.count("rdma.pacer.throttled", r.throttled as f64);
    p.count("msgs.expected", r.expected as f64);
    p.count("msgs.delivered", r.delivered as f64);
}

impl Workload for TorusFaults {
    fn warm_up(&mut self) {
        self.pass(&mut Pass::new(0, None), false);
    }

    fn pass(&mut self, p: &mut Pass, keep: bool) {
        let mut s = Samples::default();
        let msg_len = incast_params(1, false).msg_len;
        for offered in INCAST_OFFERED {
            for plane in [false, true] {
                let params = incast_params(offered, plane);
                let r = p.call("cluster.incast", || {
                    incast_run(incast_dims(), cluster_i_incast(plane), params)
                });
                if let Some(r) = r {
                    check_incast(p, &format!("incast x{offered} plane={plane}"), &r);
                    record_rate(r.delivered, msg_len, r.last_delivery, &mut s);
                }
            }
        }

        // One storm with the SLO plane; the obs folds re-read its spans.
        let params = incast_params(INCAST_OFFERED[1], true);
        let r = p.call("cluster.incast", || {
            incast_run_slo_traced(incast_dims(), cluster_i_incast(true), params, objective())
        });
        if let Some((r, slo, records)) = r {
            check_incast(p, "incast-slo", &r);
            record_rate(r.delivered, msg_len, r.last_delivery, &mut s);
            p.count("obs.trace_records", records.len() as f64);
            let folded = p.call("obs.fold", || {
                let ledgers = collect_ledgers(&records);
                let tail = TailSummary::build(&records, &[], TailConfig::default());
                let report = RunReport::build(&ledgers, objective(), &RuleSet::default());
                (ledgers.len(), tail.threshold_ps, report)
            });
            if let Some((ledgers, threshold_ps, report)) = folded {
                let title = "incast-slo";
                p.check(report.render(title) == slo.render(title), || {
                    "obs fold of the captured spans disagrees with the run's SLO report".into()
                });
                p.det(format_args!(
                    "obs ledgers={ledgers} tail_threshold_ps={threshold_ps} windows={} alerts={}",
                    report.windows.len(),
                    report.alerts.len()
                ));
            }
        }

        for (&seed, &rate_k) in self.chaos_seeds.iter().zip(&CHAOS_RATES) {
            let node = cluster_i_chaos(seed, FaultSpec::chaos(rate_k));
            let r = p.call("cluster.chaos", || {
                chaos_run_tail(
                    TorusDims::new(2, 1, 1),
                    node,
                    chaos_params(),
                    TailConfig::default(),
                )
            });
            if let Some((r, tail)) = r {
                check_chaos(p, &format!("chaos rate={rate_k}"), &r);
                record_rate(r.delivered, chaos_params().msg_len, r.last_delivery, &mut s);
                for l in tail.summary.ledgers.iter().filter(|l| l.complete) {
                    s.latency.record(l.total().as_ps());
                }
                p.det(format_args!(
                    "chaos rate={rate_k} tail_threshold_ps={}",
                    tail.summary.threshold_ps
                ));
            }
        }

        let node = cluster_i_chaos(self.get_seed, FaultSpec::chaos(GET_RATE));
        let r = p.call("cluster.get", || {
            get_chaos_run(
                TorusDims::new(2, 1, 1),
                node,
                chaos_params(),
                SignalConfig::default(),
            )
        });
        if let Some(r) = r {
            check_chaos(p, "get-chaos", &r);
            p.check(r.sq_retired == r.sq_posted, || {
                format!(
                    "get-chaos: retired {} of {} WQEs",
                    r.sq_retired, r.sq_posted
                )
            });
            record_rate(r.delivered, chaos_params().msg_len, r.last_delivery, &mut s);
            p.count("rdma.get.posted", r.sq_posted as f64);
            p.count("rdma.get.doorbell_batched", r.doorbell_batched as f64);
        }

        let mut node = cluster_i_hard_fault();
        node.faults = FaultPlan::none().kill_link(self.kill_rank, LinkDir::Xp, self.kill_at);
        let r = p.call("cluster.chaos", || {
            chaos_run(TorusDims::new(4, 2, 1), node, kill_params())
        });
        if let Some(r) = r {
            check_chaos(p, "link-kill", &r);
            p.check(r.dead_links == 2, || {
                format!("link-kill: {} dead ports, want 2", r.dead_links)
            });
            record_rate(r.delivered, kill_params().msg_len, r.last_delivery, &mut s);
        }

        if keep {
            self.kept = s;
        }
    }

    fn finish(&mut self, _p: &mut Pass) -> Option<SimMetrics> {
        let s = &mut self.kept;
        Some(SimMetrics {
            bw_mbps: geomean(&s.bw_mbps)?,
            lat_us: s.latency.quantile(0.5)? as f64 / 1e6,
            p99_us: s.latency.quantile(0.99)? as f64 / 1e6,
            teps: geomean(&s.msgs_per_s)?,
        })
    }
}
