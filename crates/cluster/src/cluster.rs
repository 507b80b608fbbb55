//! The torus-wired cluster builder.

use crate::msg::{CardActor, ClusterActor, HostActor, HostIn, HostProgram, Msg, NodeCtx};
use crate::node::{build_node, NodeConfig};
use apenet_core::card::{CardIn, CardShared};
use apenet_core::coord::{LinkDir, TorusDims};
use apenet_core::torus::{Port, TorusLink};
use apenet_gpu::cuda::CudaDevice;
use apenet_gpu::mem::Memory;
use apenet_obs::latency::TailConfig;
use apenet_obs::slo::SloConfig;
use apenet_sim::engine::{ActorId, Sim};
use apenet_sim::fault::{derive_seed, FaultInjector};
use apenet_sim::trace::SharedSink;
use apenet_sim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Shareable handles of one node, kept by the cluster for inspection.
pub struct NodeHandles {
    /// GPU devices.
    pub cuda: Vec<Rc<RefCell<CudaDevice>>>,
    /// Host memory.
    pub hostmem: Rc<RefCell<Memory>>,
    /// The card-shared state (PCIe fabric, firmware, …) — lets tests and
    /// figure harnesses attach bus analyzers or inspect registrations.
    pub shared: CardShared,
}

/// A built cluster: the simulation plus actor ids and node handles.
pub struct Cluster {
    /// The event engine, ready to run. The actor type is the concrete
    /// [`ClusterActor`] enum, so dispatch is a single match — no boxing,
    /// no vtable — on the hot path.
    pub sim: Sim<Msg, ClusterActor>,
    /// Torus dimensions.
    pub dims: TorusDims,
    /// Host actor ids by rank.
    pub hosts: Vec<ActorId>,
    /// Card actor ids by rank.
    pub cards: Vec<ActorId>,
    /// Per-node shareable handles.
    pub nodes: Vec<NodeHandles>,
    /// The span-trace sink every card records into (null unless enabled
    /// via [`ClusterBuilder::with_trace`] or the `APENET_TRACE` env var).
    /// Drain with [`SharedSink::take`] after a run.
    pub trace: SharedSink,
}

/// Builder for a torus of identical nodes.
pub struct ClusterBuilder {
    dims: TorusDims,
    node_cfg: NodeConfig,
    trace: Option<SharedSink>,
}

/// Resolve the trace sink requested by the `APENET_TRACE` env var:
/// `"capture"` keeps every record (unbounded), `"ring:N"` keeps the last
/// `N` in a ring buffer, any other non-empty non-`"0"` value defaults to
/// `ring:65536`, and unset/empty/`"0"` disables tracing entirely.
pub fn trace_sink_from_env() -> SharedSink {
    match std::env::var("APENET_TRACE").ok().as_deref() {
        None | Some("") | Some("0") => SharedSink::null(),
        Some("capture") => SharedSink::capturing(),
        Some(v) => match v
            .strip_prefix("ring:")
            .and_then(|n| n.parse::<usize>().ok())
        {
            Some(cap) => SharedSink::ring(cap),
            None => SharedSink::ring(65_536),
        },
    }
}

/// Resolve the tail-forensics plane requested by the `APENET_TAIL` env
/// var: unset/empty/`"0"`/`"off"` disables it, `"1"`/`"on"` enables the
/// default (p99) configuration, and `"p50"`/`"p90"`/`"p99"`/`"p999"`
/// pick the tail quantile — each optionally suffixed `":N"` to set the
/// flight-recorder capacity (`"p999:256"`). Any other non-empty value
/// falls back to the default, mirroring `APENET_TRACE`'s leniency.
pub fn tail_from_env() -> Option<TailConfig> {
    parse_tail(&std::env::var("APENET_TAIL").ok()?)
}

/// Parse one `APENET_TAIL` value (split from the env read so the
/// grammar is unit-testable without process-global state).
pub fn parse_tail(v: &str) -> Option<TailConfig> {
    match v {
        "" | "0" | "off" => None,
        "1" | "on" => Some(TailConfig::default()),
        v => {
            let (quant, cap) = match v.split_once(':') {
                Some((q, n)) => (q, n.parse::<usize>().ok()),
                None => (v, None),
            };
            let mut cfg = match quant {
                "p50" => TailConfig {
                    quantile: 0.50,
                    label: "p50",
                    ..TailConfig::default()
                },
                "p90" => TailConfig {
                    quantile: 0.90,
                    label: "p90",
                    ..TailConfig::default()
                },
                "p99" => TailConfig::default(),
                "p999" => TailConfig {
                    quantile: 0.999,
                    label: "p999",
                    ..TailConfig::default()
                },
                _ => TailConfig::default(),
            };
            if let Some(cap) = cap {
                cfg.capacity = cap.max(1);
            }
            Some(cfg)
        }
    }
}

/// Resolve the streaming SLO plane requested by the `APENET_SLO` env
/// var: unset/empty/`"0"`/`"off"` disables it, `"1"`/`"on"` enables the
/// default objective (100 µs windows, 99 % of messages under 50 µs),
/// and `"<window>[:<target_permille>[:<threshold>]]"` declares a custom
/// one — durations take `us`/`ns` suffixes (bare numbers are µs),
/// targets are permille (`990` = 99.0 % good). Malformed fields fall
/// back to their defaults, mirroring `APENET_TAIL`'s leniency:
/// `"500us:999:20us"` = 500 µs windows, 99.9 % target, 20 µs threshold.
pub fn slo_from_env() -> Option<SloConfig> {
    parse_slo(&std::env::var("APENET_SLO").ok()?)
}

/// One duration field of the `APENET_SLO` grammar (`"250us"`, `"800ns"`,
/// bare `"250"` = µs). Zero and garbage are `None`.
fn parse_slo_duration(s: &str) -> Option<SimDuration> {
    let s = s.trim();
    let (digits, unit_ps) = if let Some(n) = s.strip_suffix("us") {
        (n, 1_000_000)
    } else if let Some(n) = s.strip_suffix("ns") {
        (n, 1_000)
    } else {
        (s, 1_000_000)
    };
    let n: u64 = digits.trim().parse().ok()?;
    if n == 0 {
        return None;
    }
    Some(SimDuration::from_ps(n * unit_ps))
}

/// Parse one `APENET_SLO` value (split from the env read so the grammar
/// is unit-testable without process-global state).
pub fn parse_slo(v: &str) -> Option<SloConfig> {
    match v {
        "" | "0" | "off" => None,
        "1" | "on" => Some(SloConfig::default()),
        v => {
            let mut cfg = SloConfig::default();
            let mut parts = v.split(':');
            if let Some(w) = parts.next().and_then(parse_slo_duration) {
                cfg.window = w;
            }
            if let Some(t) = parts.next().and_then(|s| s.trim().parse::<u32>().ok()) {
                // A zero or ≥1000 target leaves no budget to burn —
                // fall back rather than divide by zero later.
                if t > 0 && t < 1000 {
                    cfg.target_permille = t;
                }
            }
            if let Some(th) = parts.next().and_then(parse_slo_duration) {
                cfg.threshold = th;
            }
            Some(cfg)
        }
    }
}

impl ClusterBuilder {
    /// A cluster of `dims` nodes configured by `node_cfg`.
    pub fn new(dims: TorusDims, node_cfg: NodeConfig) -> Self {
        ClusterBuilder {
            dims,
            node_cfg,
            trace: None,
        }
    }

    /// Record every card's span trace into `sink` (overrides the
    /// `APENET_TRACE` env var). Tracing is pure observation: enabling it
    /// never changes what the simulation schedules.
    pub fn with_trace(mut self, sink: SharedSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Build with one host program per rank (must supply exactly
    /// `dims.nodes()` programs). Each host receives `HostIn::Start` at t=0.
    pub fn build(self, programs: Vec<Box<dyn HostProgram>>) -> Cluster {
        let dims = self.dims;
        assert_eq!(programs.len(), dims.nodes(), "one program per rank");
        let mut sim: Sim<Msg, ClusterActor> = Sim::new();
        // APENET_PROFILE attaches the passive sim-time profiler: every
        // event's gap and wall cost is bucketed by (actor, kind), with
        // zero effect on the calendar. Harnesses that want the profile
        // call `sim.take_profile()` after the run; everyone else just
        // drops it with the Sim.
        if std::env::var("APENET_PROFILE").is_ok_and(|v| !v.is_empty() && v != "0") {
            sim.attach_profiler(crate::msg::kind_of);
        }
        let mut built = Vec::new();
        for (rank, _) in (0..dims.nodes()).enumerate() {
            let coord = dims.coord_of(rank);
            built.push(build_node(rank as u32, coord, dims, &self.node_cfg));
        }
        // Pre-create torus links: one per (node, direction).
        let link_gbps = self.node_cfg.card.link_gbps;
        let link_lat = self.node_cfg.card.link_latency;
        let trace = self.trace.clone().unwrap_or_else(trace_sink_from_env);
        for node in &mut built {
            node.card.set_trace(trace.clone());
            for dir in LinkDir::ALL {
                let link = Rc::new(RefCell::new(TorusLink::new_gbps(link_gbps, link_lat)));
                node.card.set_link(dir, link);
            }
        }
        // Attach fault injectors per the plan; every (card, port) pair
        // derives an independent stream from the single plan seed, so
        // the whole cluster's fault schedule replays from one u64.
        let plan = &self.node_cfg.faults;
        if !plan.is_noop() {
            for (rank, node) in built.iter_mut().enumerate() {
                for port in Port::ALL {
                    let spec = plan.spec_for(rank as u32, port);
                    if spec.is_noop() {
                        continue;
                    }
                    let salt = ((rank as u64) << 8) | port.index() as u64;
                    let inj = FaultInjector::new(spec, derive_seed(plan.seed, salt));
                    node.card.set_fault_injector(port, inj);
                }
            }
        }
        // Hard kills arm the fault plane on every card up front (so link
        // frames are windowed and replayable from t=0, not just after the
        // cut lands) — chaos runs only, so clean-run timing is untouched.
        if !plan.kills.is_empty() {
            for node in &mut built {
                node.card.arm_fault_plane();
            }
        }
        // Register actors: hosts first so cards can reference them.
        // Actor ids are assigned sequentially; we reserve [0, n) for cards
        // and [n, 2n) for hosts by adding cards first with placeholder
        // host ids, then fixing up is impossible — so compute ids ahead:
        // card i gets id i, host i gets id n + i.
        let n = dims.nodes();
        let mut handles = Vec::new();
        let mut cards = Vec::new();
        let mut programs = programs;
        // First pass: create card actors (ids 0..n).
        let mut host_ctxs = Vec::new();
        for (rank, node) in built.into_iter().enumerate() {
            let host_id = n + rank;
            let mut actor = CardActor::new(node.card, host_id);
            for dir in LinkDir::ALL {
                let nb = dims.neighbor(dims.coord_of(rank), dir);
                actor.neighbors[dir.index()] = Some(dims.rank_of(nb));
            }
            let id = sim.add_actor(ClusterActor::Card(Box::new(actor)));
            assert_eq!(id, rank);
            cards.push(id);
            handles.push(NodeHandles {
                cuda: node.cuda.clone(),
                hostmem: node.hostmem.clone(),
                shared: node.shared.clone(),
            });
            host_ctxs.push(NodeCtx {
                rank: rank as u32,
                coord: dims.coord_of(rank),
                dims,
                ep: node.ep,
                cq: node.cq,
                cuda: node.cuda,
                hostmem: node.hostmem,
            });
        }
        // Second pass: host actors (ids n..2n).
        let mut hosts = Vec::new();
        for (rank, ctx) in host_ctxs.into_iter().enumerate() {
            let program = programs.remove(0);
            let mut host = HostActor::new(ctx, program, cards[rank]);
            // Hosts share the cards' sink so `SUBMIT` records interleave
            // with the card-side span records in one capture.
            host.set_trace(trace.clone());
            let id = sim.add_actor(ClusterActor::Host(Box::new(host)));
            assert_eq!(id, n + rank);
            hosts.push(id);
            sim.send(id, SimTime::ZERO, Msg::Host(HostIn::Start));
        }
        // Deliver scheduled cable cuts to BOTH endpoint cards: a cable has
        // two ends, and each card must stop seeing traffic on its own port
        // the instant the cut lands.
        for kill in &plan.kills {
            let coord = dims.coord_of(kill.rank as usize);
            let far = dims.neighbor(coord, kill.dir);
            if far == coord {
                continue; // extent-1 ring: the port is a self-loop, no cable
            }
            sim.send(
                cards[kill.rank as usize],
                kill.at,
                Msg::Card(CardIn::AdminLinkDown {
                    port: Port::Link(kill.dir),
                }),
            );
            sim.send(
                cards[dims.rank_of(far)],
                kill.at,
                Msg::Card(CardIn::AdminLinkDown {
                    port: Port::Link(kill.dir.opposite()),
                }),
            );
        }
        Cluster {
            sim,
            dims,
            hosts,
            cards,
            nodes: handles,
            trace,
        }
    }
}

impl Cluster {
    /// Run to quiescence and return the final time.
    pub fn run(&mut self) -> SimTime {
        self.sim.run()
    }

    /// Run until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.sim.run_until(deadline)
    }

    /// Borrow the host actor of `rank` (after a run) to read results.
    pub fn host(&self, rank: usize) -> &HostActor {
        self.sim
            .actor(self.hosts[rank])
            .as_host()
            .expect("host actor at host id")
    }

    /// Borrow the card actor of `rank` (after a run) to read statistics.
    pub fn card(&self, rank: usize) -> &CardActor {
        self.sim
            .actor(self.cards[rank])
            .as_card()
            .expect("card actor at card id")
    }

    /// Wake host `rank` at time `at` with `tag`.
    pub fn wake_host(&mut self, rank: usize, at: SimTime, tag: u64) {
        self.sim
            .send(self.hosts[rank], at, Msg::Host(HostIn::Wake(tag)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_grammar_disables_and_defaults() {
        assert!(parse_tail("").is_none());
        assert!(parse_tail("0").is_none());
        assert!(parse_tail("off").is_none());
        for v in ["1", "on", "garbage"] {
            let cfg = parse_tail(v).expect("enabled");
            assert_eq!(cfg.label, "p99");
            assert_eq!(cfg.capacity, TailConfig::default().capacity);
        }
    }

    #[test]
    fn tail_grammar_quantiles_and_capacity() {
        for (v, label, q) in [
            ("p50", "p50", 0.50),
            ("p90", "p90", 0.90),
            ("p99", "p99", 0.99),
            ("p999", "p999", 0.999),
        ] {
            let cfg = parse_tail(v).unwrap();
            assert_eq!(cfg.label, label);
            assert_eq!(cfg.quantile, q);
        }
        let cfg = parse_tail("p999:256").unwrap();
        assert_eq!(cfg.label, "p999");
        assert_eq!(cfg.capacity, 256);
        // Bad capacity suffix: keep the quantile, default the capacity.
        let cfg = parse_tail("p90:zap").unwrap();
        assert_eq!(cfg.label, "p90");
        assert_eq!(cfg.capacity, TailConfig::default().capacity);
        // Capacity clamps to at least one retained span.
        assert_eq!(parse_tail("p99:0").unwrap().capacity, 1);
    }

    #[test]
    fn slo_grammar_disables_and_defaults() {
        assert!(parse_slo("").is_none());
        assert!(parse_slo("0").is_none());
        assert!(parse_slo("off").is_none());
        for v in ["1", "on"] {
            assert_eq!(parse_slo(v), Some(SloConfig::default()));
        }
        // Lenient: a malformed value enables the plane with defaults.
        assert_eq!(parse_slo("garbage"), Some(SloConfig::default()));
    }

    #[test]
    fn slo_grammar_window_target_threshold() {
        let cfg = parse_slo("500us:999:20us").unwrap();
        assert_eq!(cfg.window, SimDuration::from_us(500));
        assert_eq!(cfg.target_permille, 999);
        assert_eq!(cfg.threshold, SimDuration::from_us(20));
        // Bare numbers are µs; ns suffix scales down.
        let cfg = parse_slo("250").unwrap();
        assert_eq!(cfg.window, SimDuration::from_us(250));
        assert_eq!(cfg.target_permille, SloConfig::default().target_permille);
        let cfg = parse_slo("800ns:900").unwrap();
        assert_eq!(cfg.window, SimDuration::from_ps(800_000));
        assert_eq!(cfg.target_permille, 900);
        // Malformed fields fall back field-by-field: a budgetless
        // target (0 or ≥1000) keeps the default.
        let cfg = parse_slo("100us:1000:zap").unwrap();
        assert_eq!(cfg.window, SimDuration::from_us(100));
        assert_eq!(cfg.target_permille, SloConfig::default().target_permille);
        assert_eq!(cfg.threshold, SloConfig::default().threshold);
    }
}
