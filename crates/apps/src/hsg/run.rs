//! Distributed HSG runs: APEnet+ (event-driven, P2P = OFF / RX / ON) and
//! the OpenMPI-over-InfiniBand reference of Table III.
//!
//! The schedule per over-relaxation step follows §V.D exactly: for each
//! checkerboard colour, "first compute the local lattice boundary, then
//! exchange it with the remote nodes, while computing the bulk".

use crate::hsg::cost::HsgCost;
use crate::hsg::lattice::Slab;
use apenet_cluster::cluster::ClusterBuilder;
use apenet_cluster::msg::{HostApi, HostIn, HostProgram, NodeCtx};
use apenet_cluster::node::NodeConfig;
use apenet_cluster::presets::cluster_i_hsg;
use apenet_core::coord::{Coord, TorusDims};
use apenet_ib::{CudaAwareMpi, IbConfig};
use apenet_rdma::api::SrcHint;
use apenet_rdma::staging::{staged_put, staged_recv_finish};
use apenet_sim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Which datapaths use GPU peer-to-peer (Table III columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum P2pMode {
    /// Staging for both TX and RX.
    Off,
    /// Staging for TX, peer-to-peer for RX only.
    Rx,
    /// Peer-to-peer for both.
    On,
}

/// Run parameters.
#[derive(Debug, Clone)]
pub struct HsgConfig {
    /// Lattice side L.
    pub l: usize,
    /// Number of ranks (1-D slab decomposition along z; must divide L).
    pub np: usize,
    /// Over-relaxation sweeps.
    pub steps: u32,
    /// P2P mode for the APEnet+ run.
    pub p2p: P2pMode,
    /// Disorder seed.
    pub seed: u64,
    /// Run the real physics (energy/checksum validation). Turn off for
    /// large timing-only sweeps (e.g. L = 512).
    pub compute: bool,
    /// Kernel cost model.
    pub cost: HsgCost,
    /// Embed the rank ring as a Hamiltonian cycle on the torus (every
    /// ring hop = one torus hop) instead of the naive linear mapping,
    /// whose 2-hop seams on the 4×2 torus trigger a convoy oscillation at
    /// NP = 8 (an ablation the paper's own NP = 8 degradation hints at).
    pub snake: bool,
}

impl HsgConfig {
    /// A small, fully-validated configuration for tests.
    pub fn small(l: usize, np: usize, p2p: P2pMode) -> Self {
        HsgConfig {
            l,
            np,
            steps: 2,
            p2p,
            seed: 12345,
            compute: true,
            cost: HsgCost::default(),
            snake: false,
        }
    }

    /// The paper's strong-scaling configuration (timing-only for speed).
    pub fn paper(l: usize, np: usize, p2p: P2pMode) -> Self {
        HsgConfig {
            l,
            np,
            steps: 3,
            p2p,
            seed: 2013,
            compute: false,
            cost: HsgCost::default(),
            snake: false,
        }
    }
}

/// Aggregated result of a run.
#[derive(Debug, Clone)]
pub struct HsgResult {
    /// Wall time per spin update (the paper's `Ttot`), picoseconds.
    pub ttot_ps: f64,
    /// Boundary + network window per spin (`Tbnd + Tnet`), picoseconds.
    pub tbnd_net_ps: f64,
    /// Network window per spin (`Tnet`), picoseconds.
    pub tnet_ps: f64,
    /// Total wall time.
    pub wall: SimDuration,
    /// Energy before the first sweep (0 when `compute` is off).
    pub energy_initial: f64,
    /// Energy after the last sweep.
    pub energy_final: f64,
    /// Order-independent spin checksum summed over ranks.
    pub checksum: u64,
    /// Per-rank `(tbnd_ps, tnet_ps, wall_end_us)` breakdown.
    pub per_rank: Vec<(f64, f64, f64)>,
}

/// Torus shape used for `np` ranks (subset of the 4×2 Cluster I).
pub fn dims_for(np: usize) -> TorusDims {
    match np {
        1 => TorusDims::new(1, 1, 1),
        2 => TorusDims::new(2, 1, 1),
        4 => TorusDims::new(4, 1, 1),
        8 => TorusDims::new(4, 2, 1),
        _ => panic!("unsupported rank count {np}"),
    }
}

/// The torus coordinate hosting ring rank `r` of `np`.
pub fn coord_for(np: usize, r: usize, snake: bool) -> Coord {
    let dims = dims_for(np);
    if snake && np == 8 {
        // Hamiltonian cycle on the 4×2 torus: every ring hop is adjacent.
        const CYCLE: [(u8, u8); 8] = [
            (0, 0),
            (1, 0),
            (2, 0),
            (3, 0),
            (3, 1),
            (2, 1),
            (1, 1),
            (0, 1),
        ];
        let (x, y) = CYCLE[r];
        Coord::new(x, y, 0)
    } else {
        dims.coord_of(r)
    }
}

#[derive(Debug, Default)]
struct RankOutcome {
    wall_end: SimTime,
    tnet: SimDuration,
    tbnd: SimDuration,
    energy_initial: f64,
    energy_final: f64,
    checksum: u64,
}

struct HsgRank {
    cfg: HsgConfig,
    rank: usize,
    lz: usize,
    slab: Option<Slab>,
    // GPU buffers, double-buffered by checkerboard colour (phases of one
    // colour reuse their buffers only two phases later, so the pipeline
    // never stalls on send completion). Addresses are symmetric across
    // ranks because every rank allocates in the same order.
    send_up: [u64; 2],
    send_down: [u64; 2],
    recv_from_below: [u64; 2],
    recv_from_above: [u64; 2],
    // Host bounce buffers for the staged modes, also per colour.
    bounce_tx_up: [u64; 2],
    bounce_tx_down: [u64; 2],
    bounce_rx_below: [u64; 2],
    bounce_rx_above: [u64; 2],
    // Phase state.
    step: u32,
    color: u8,
    phase_start: SimTime,
    bnd_done: SimTime,
    bulk_done: SimTime,
    /// Latest usable-time of arrived halos, per colour.
    comm_end_c: [SimTime; 2],
    /// Halos arrived, per colour (early next-phase arrivals accumulate).
    halos_ready: [u8; 2],
    /// Bytes received per colour and side (staged chunks accumulate).
    halo_bytes_in: [[u64; 2]; 2],
    /// Cumulative submitted / completed TX descriptors.
    tx_expect_total: u32,
    tx_seen_total: u32,
    /// A phase may end once every send of *earlier* phases completed
    /// (one-phase-lagged barrier; current sends ride into the next phase).
    tx_barrier: u32,
    bulk_waited: bool,
    outcome: Rc<RefCell<Vec<RankOutcome>>>,
    acc_tnet: SimDuration,
    acc_tbnd: SimDuration,
}

const WAKE_BND: u64 = 1;
const WAKE_BULK: u64 = 2;

impl HsgRank {
    fn halo_len(&self) -> u64 {
        Slab::halo_bytes(self.cfg.l)
    }

    fn up_rank(&self) -> usize {
        (self.rank + 1) % self.cfg.np
    }

    fn down_rank(&self) -> usize {
        (self.rank + self.cfg.np - 1) % self.cfg.np
    }

    fn resident(&self) -> u64 {
        (self.lz * self.cfg.l * self.cfg.l) as u64
    }

    fn boundary_sites(&self) -> u64 {
        // Two boundary planes, one colour each phase.
        (2 * self.cfg.l * self.cfg.l / 2) as u64
    }

    fn bulk_sites(&self) -> u64 {
        self.resident() / 2 - self.boundary_sites()
    }

    /// Start a colour phase at `api.now`.
    fn start_phase(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        self.phase_start = api.now;
        self.bulk_waited = false;
        self.tx_barrier = self.tx_expect_total;
        if self.cfg.np == 1 {
            if let Some(s) = &mut self.slab {
                s.wrap_ghosts();
            }
        }
        let dev = &node.cuda[0];
        let kb = self.cfg.cost.kernel(self.boundary_sites(), self.resident());
        let s_bnd = apenet_gpu::cuda::CudaDevice::default_stream();
        let done = dev.borrow_mut().launch(api.now, s_bnd, kb);
        self.bnd_done = done;
        api.wake(done.since(api.now), WAKE_BND);
    }

    /// Boundary kernel finished: do the physics, exchange, start bulk.
    fn on_boundary_done(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        let color = self.color;
        let _l = self.cfg.l;
        // Physics + send-buffer fill.
        if let Some(slab) = &mut self.slab {
            slab.update_color(color, 1, 1);
            if self.lz > 1 {
                slab.update_color(color, self.lz, self.lz);
            }
            let down_bytes = slab.pack_plane(1, color);
            let up_bytes = slab.pack_plane(self.lz, color);
            let mut dev = node.cuda[0].borrow_mut();
            dev.mem
                .write(self.send_down[color as usize], &down_bytes)
                .unwrap();
            dev.mem
                .write(self.send_up[color as usize], &up_bytes)
                .unwrap();
        } else {
            // Timing-only: the buffers still need materialized bytes.
            let zeros = vec![0u8; self.halo_len() as usize];
            let mut dev = node.cuda[0].borrow_mut();
            dev.mem
                .write(self.send_down[color as usize], &zeros)
                .unwrap();
            dev.mem.write(self.send_up[color as usize], &zeros).unwrap();
        }
        // Exchange (np == 1 wraps locally instead).
        if self.cfg.np > 1 {
            let up = coord_for(self.cfg.np, self.up_rank(), self.cfg.snake);
            let down = coord_for(self.cfg.np, self.down_rank(), self.cfg.snake);
            self.submit_halo(node, api, self.send_up[color as usize], up, true);
            self.submit_halo(node, api, self.send_down[color as usize], down, false);
        } else if let Some(slab) = &mut self.slab {
            slab.wrap_ghosts();
        }
        // Bulk kernel (serialized after the boundary kernel on the GPU,
        // overlapping the exchange).
        if let Some(slab) = &mut self.slab {
            if self.lz > 2 {
                slab.update_color(color, 2, self.lz - 1);
            }
        }
        let kb = self.cfg.cost.kernel(self.bulk_sites(), self.resident());
        let s_bulk = apenet_gpu::cuda::CudaDevice::default_stream();
        let done = node.cuda[0].borrow_mut().launch(api.now, s_bulk, kb);
        self.bulk_done = done;
        api.wake(done.since(api.now), WAKE_BULK);
    }

    /// Submit one halo message; `to_upper` selects the destination slot
    /// (my top plane becomes the upper neighbour's from-below ghost).
    fn submit_halo(
        &mut self,
        node: &mut NodeCtx,
        api: &mut HostApi<'_, '_>,
        src_gpu: u64,
        peer: Coord,
        to_upper: bool,
    ) {
        let len = self.halo_len();
        let staged_tx = matches!(self.cfg.p2p, P2pMode::Off | P2pMode::Rx);
        let staged_rx = matches!(self.cfg.p2p, P2pMode::Off);
        let c = self.color as usize;
        let dst = match (staged_rx, to_upper) {
            (false, true) => self.recv_from_below[c],
            (false, false) => self.recv_from_above[c],
            (true, true) => self.bounce_rx_below[c],
            (true, false) => self.bounce_rx_above[c],
        };
        if staged_tx {
            let bounce = if to_upper {
                self.bounce_tx_up[c]
            } else {
                self.bounce_tx_down[c]
            };
            let mut dev = node.cuda[0].borrow_mut();
            let mut hm = node.hostmem.borrow_mut();
            let plan = staged_put(
                &mut node.ep,
                &mut dev,
                &mut hm,
                api.now,
                src_gpu,
                bounce,
                len,
                peer,
                dst,
            )
            .expect("staged halo put");
            for (t, desc) in plan.submissions {
                self.tx_expect_total += 1;
                api.submit(t.since(api.now), desc);
            }
        } else {
            let out = node
                .ep
                .put(src_gpu, len, peer, dst, SrcHint::Gpu)
                .expect("halo put");
            self.tx_expect_total += 1;
            api.submit(out.host_cost, out.desc);
        }
    }

    /// Classify a delivery address into `(ghost_plane, colour, gpu_base,
    /// offset, staged)` — staged transfers deliver in chunks at offsets
    /// within the bounce buffer.
    fn classify_halo(&self, dst_vaddr: u64) -> (usize, usize, u64, u64, bool) {
        let len = self.halo_len();
        let within = |base: u64| dst_vaddr >= base && dst_vaddr < base + len;
        for c in 0..2 {
            if within(self.recv_from_below[c]) {
                return (
                    0,
                    c,
                    self.recv_from_below[c],
                    dst_vaddr - self.recv_from_below[c],
                    false,
                );
            }
            if within(self.recv_from_above[c]) {
                return (
                    self.lz + 1,
                    c,
                    self.recv_from_above[c],
                    dst_vaddr - self.recv_from_above[c],
                    false,
                );
            }
            if within(self.bounce_rx_below[c]) {
                return (
                    0,
                    c,
                    self.recv_from_below[c],
                    dst_vaddr - self.bounce_rx_below[c],
                    true,
                );
            }
            if within(self.bounce_rx_above[c]) {
                return (
                    self.lz + 1,
                    c,
                    self.recv_from_above[c],
                    dst_vaddr - self.bounce_rx_above[c],
                    true,
                );
            }
        }
        panic!("delivery at unknown address {dst_vaddr:#x}");
    }

    fn on_halo(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>, dst_vaddr: u64, len: u64) {
        let (ghost_plane, color, gpu_base, offset, staged) = self.classify_halo(dst_vaddr);
        let mut usable = api.now;
        if staged {
            // Copy this chunk up to the GPU destination.
            let mut dev = node.cuda[0].borrow_mut();
            let mut hm = node.hostmem.borrow_mut();
            usable = staged_recv_finish(
                &mut dev,
                &mut hm,
                api.now,
                dst_vaddr,
                gpu_base + offset,
                len,
            )
            .expect("halo staging ranges are self-allocated");
        }
        let side = usize::from(ghost_plane != 0);
        self.halo_bytes_in[color][side] += len;
        self.comm_end_c[color] = self.comm_end_c[color].max(usable);
        debug_assert!(self.halo_bytes_in[color][side] <= self.halo_len());
        let full = self.halo_len();
        if self.halo_bytes_in[color][side] == full {
            self.halo_bytes_in[color][side] = 0;
            if let Some(slab) = &mut self.slab {
                let bytes = node.cuda[0]
                    .borrow_mut()
                    .mem
                    .read_vec(gpu_base, full)
                    .unwrap();
                // Unpacking the opposite colour early is safe: the next
                // phase only reads the *other* colour's ghost sites.
                slab.unpack_ghost(ghost_plane, color as u8, &bytes);
            }
            self.halos_ready[color] += 1;
            self.maybe_finish_phase(node, api);
        }
    }

    fn phase_comm_done(&self) -> bool {
        self.cfg.np == 1
            || (self.halos_ready[self.color as usize] >= 2 && self.tx_seen_total >= self.tx_barrier)
    }

    fn maybe_finish_phase(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        if self.step >= self.cfg.steps || !(self.bulk_waited && self.phase_comm_done()) {
            return;
        }
        // Phase accounting.
        let c = self.color as usize;
        let comm_end = self.comm_end_c[c];
        self.acc_tbnd += self.bnd_done.since(self.phase_start);
        if self.cfg.np > 1 {
            self.acc_tnet += comm_end.since(self.bnd_done);
        }
        // Consume this colour's arrivals.
        self.halos_ready[c] = 0;
        self.comm_end_c[c] = SimTime::ZERO;
        let end = self.bulk_done.max(comm_end).max(api.now);
        // Advance colour/step.
        if self.color == 0 {
            self.color = 1;
        } else {
            self.color = 0;
            self.step += 1;
        }
        if self.step == self.cfg.steps {
            let mut out = self.outcome.borrow_mut();
            let slot = &mut out[self.rank];
            slot.wall_end = end;
            slot.tnet = self.acc_tnet;
            slot.tbnd = self.acc_tbnd;
            if let Some(slab) = &self.slab {
                slot.energy_final = slab.owned_energy();
                slot.checksum = slab.checksum();
            }
            return;
        }
        // Next phase starts when both engines are done.
        let now = api.now;
        if end > now {
            // Defer via a wake at `end`.
            self.bulk_waited = false;
            api.wake(end.since(now), WAKE_BULK | 0x100);
        } else {
            self.start_phase(node, api);
        }
    }
}

impl HostProgram for HsgRank {
    fn start(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        let len = self.halo_len();
        let mut dev = node.cuda[0].borrow_mut();
        for c in 0..2 {
            self.send_up[c] = dev.malloc(len).unwrap();
            self.send_down[c] = dev.malloc(len).unwrap();
            self.recv_from_below[c] = dev.malloc(len).unwrap();
            self.recv_from_above[c] = dev.malloc(len).unwrap();
        }
        drop(dev);
        let mut hm = node.hostmem.borrow_mut();
        for c in 0..2 {
            self.bounce_tx_up[c] = hm.alloc(len).unwrap();
            self.bounce_tx_down[c] = hm.alloc(len).unwrap();
            self.bounce_rx_below[c] = hm.alloc(len).unwrap();
            self.bounce_rx_above[c] = hm.alloc(len).unwrap();
        }
        drop(hm);
        // Register the PUT targets first: the BUF_LIST scan is linear, so
        // the hot RX buffers want the lowest indices.
        for c in 0..2 {
            for addr in [
                self.recv_from_below[c],
                self.recv_from_above[c],
                self.bounce_rx_below[c],
                self.bounce_rx_above[c],
            ] {
                node.ep.register(addr, len).unwrap();
            }
        }
        for c in 0..2 {
            for addr in [
                self.send_up[c],
                self.send_down[c],
                self.bounce_tx_up[c],
                self.bounce_tx_down[c],
            ] {
                node.ep.register(addr, len).unwrap();
            }
        }
        if self.cfg.compute {
            let slab = Slab::new(self.cfg.l, self.rank * self.lz, self.lz, self.cfg.seed);
            self.outcome.borrow_mut()[self.rank].energy_initial = slab.owned_energy();
            self.slab = Some(slab);
        }
        self.start_phase(node, api);
    }

    fn on_event(&mut self, ev: HostIn, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        match ev {
            HostIn::Wake(WAKE_BND) => self.on_boundary_done(node, api),
            HostIn::Wake(WAKE_BULK) => {
                self.bulk_waited = true;
                self.maybe_finish_phase(node, api);
            }
            HostIn::Wake(tag) if tag & 0x100 != 0 => {
                // Deferred phase turnover.
                self.start_phase(node, api);
            }
            HostIn::Wake(_) => {}
            HostIn::Delivered { dst_vaddr, len, .. } => {
                self.on_halo(node, api, dst_vaddr, len);
            }
            HostIn::TxDone { .. } => {
                self.tx_seen_total += 1;
                self.maybe_finish_phase(node, api);
            }
            HostIn::Fault(_) => {}       // apps run on healthy clusters
            HostIn::EcnEcho { .. } => {} // apps run without the overload plane
            HostIn::Start => unreachable!("start handled by the actor"),
        }
    }
}

/// Run the APEnet+ version.
pub fn run_apenet(cfg: &HsgConfig) -> HsgResult {
    run_apenet_on(cfg, cluster_i_hsg())
}

/// Run the APEnet+ version on a custom node configuration.
pub fn run_apenet_on(cfg: &HsgConfig, node_cfg: NodeConfig) -> HsgResult {
    assert_eq!(cfg.l % cfg.np, 0, "np must divide L");
    let lz = cfg.l / cfg.np;
    assert!(lz >= 2 || cfg.np == 1, "need at least 2 planes per rank");
    let dims = dims_for(cfg.np);
    let outcome = Rc::new(RefCell::new(
        (0..cfg.np)
            .map(|_| RankOutcome::default())
            .collect::<Vec<_>>(),
    ));
    // Node n hosts the ring rank whose coordinate is n's coordinate.
    let mut node_to_rank = vec![0usize; cfg.np];
    for r in 0..cfg.np {
        node_to_rank[dims.rank_of(coord_for(cfg.np, r, cfg.snake))] = r;
    }
    let programs: Vec<Box<dyn HostProgram>> = (0..cfg.np)
        .map(|node| {
            let rank = node_to_rank[node];
            Box::new(HsgRank {
                cfg: cfg.clone(),
                rank,
                lz,
                slab: None,
                send_up: [0; 2],
                send_down: [0; 2],
                recv_from_below: [0; 2],
                recv_from_above: [0; 2],
                bounce_tx_up: [0; 2],
                bounce_tx_down: [0; 2],
                bounce_rx_below: [0; 2],
                bounce_rx_above: [0; 2],
                step: 0,
                color: 0,
                phase_start: SimTime::ZERO,
                bnd_done: SimTime::ZERO,
                bulk_done: SimTime::ZERO,
                comm_end_c: [SimTime::ZERO; 2],
                halos_ready: [0; 2],
                halo_bytes_in: [[0; 2]; 2],
                tx_expect_total: 0,
                tx_seen_total: 0,
                tx_barrier: 0,
                bulk_waited: false,
                outcome: outcome.clone(),
                acc_tnet: SimDuration::ZERO,
                acc_tbnd: SimDuration::ZERO,
            }) as Box<dyn HostProgram>
        })
        .collect();
    let mut cluster = ClusterBuilder::new(dims, node_cfg).build(programs);
    cluster.run();
    let out = outcome.borrow();
    aggregate(cfg, &out)
}

fn aggregate(cfg: &HsgConfig, out: &[RankOutcome]) -> HsgResult {
    let spins = (cfg.l as f64).powi(3) * cfg.steps as f64;
    let wall = out
        .iter()
        .map(|o| o.wall_end)
        .fold(SimTime::ZERO, SimTime::max)
        .since(SimTime::ZERO);
    let tnet: f64 = out.iter().map(|o| o.tnet.as_ps() as f64).sum::<f64>() / out.len() as f64;
    let tbnd: f64 = out.iter().map(|o| o.tbnd.as_ps() as f64).sum::<f64>() / out.len() as f64;
    HsgResult {
        ttot_ps: wall.as_ps() as f64 / spins,
        tbnd_net_ps: (tbnd + tnet) / spins,
        tnet_ps: tnet / spins,
        wall,
        energy_initial: out.iter().map(|o| o.energy_initial).sum(),
        energy_final: out.iter().map(|o| o.energy_final).sum(),
        checksum: out.iter().fold(0u64, |a, o| a.wrapping_add(o.checksum)),
        per_rank: out
            .iter()
            .map(|o| {
                (
                    o.tbnd.as_ps() as f64 / spins,
                    o.tnet.as_ps() as f64 / spins,
                    o.wall_end.as_us_f64(),
                )
            })
            .collect(),
    }
}

/// Run the OpenMPI/InfiniBand reference analytically (Table III).
pub fn run_ib(cfg: &HsgConfig, ib: IbConfig) -> HsgResult {
    assert_eq!(cfg.l % cfg.np, 0);
    let np = cfg.np;
    let lz = cfg.l / np;
    let resident = (lz * cfg.l * cfg.l) as u64;
    let halo = Slab::halo_bytes(cfg.l);
    let mut slabs: Vec<Option<Slab>> = (0..np)
        .map(|r| cfg.compute.then(|| Slab::new(cfg.l, r * lz, lz, cfg.seed)))
        .collect();
    let energy_initial: f64 = slabs
        .iter()
        .map(|s| s.as_ref().map_or(0.0, |s| s.owned_energy()))
        .sum();
    let mut mpi = CudaAwareMpi::new(np.max(2), ib);
    let mut clocks = vec![SimTime::ZERO; np];
    let boundary_sites = (cfg.l * cfg.l) as u64;
    let bulk_sites = resident / 2 - boundary_sites;
    let mut tnet_acc = SimDuration::ZERO;
    let mut tbnd_acc = SimDuration::ZERO;
    for _step in 0..cfg.steps {
        for color in 0..2u8 {
            // Boundary kernels.
            let bnd: Vec<SimTime> = clocks
                .iter()
                .map(|&t| t + cfg.cost.kernel(boundary_sites, resident))
                .collect();
            // Physics.
            let mut halos: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(np);
            for slab in slabs.iter_mut() {
                if let Some(s) = slab {
                    s.update_color(color, 1, 1);
                    if lz > 1 {
                        s.update_color(color, lz, lz);
                    }
                    if np == 1 {
                        s.wrap_ghosts();
                        halos.push((Vec::new(), Vec::new()));
                    } else {
                        halos.push((s.pack_plane(lz, color), s.pack_plane(1, color)));
                    }
                    if lz > 2 {
                        s.update_color(color, 2, lz - 1);
                    }
                } else {
                    halos.push((Vec::new(), Vec::new()));
                }
            }
            // Exchange.
            let mut arrivals = vec![SimTime::ZERO; np];
            let mut send_free = vec![SimTime::ZERO; np];
            if np > 1 {
                for r in 0..np {
                    let up = (r + 1) % np;
                    let down = (r + np - 1) % np;
                    let a = mpi.send_gg(bnd[r], r, up, halo);
                    let b = mpi.send_gg(bnd[r], r, down, halo);
                    arrivals[up] = arrivals[up].max(a.complete);
                    arrivals[down] = arrivals[down].max(b.complete);
                    send_free[r] = a.sender_free.max(b.sender_free);
                }
                for (r, slab) in slabs.iter_mut().enumerate() {
                    if let Some(s) = slab {
                        let up = (r + 1) % np;
                        let down = (r + np - 1) % np;
                        s.unpack_ghost(lz + 1, color, &halos[up].1);
                        s.unpack_ghost(0, color, &halos[down].0);
                    }
                }
            }
            // Phase turnover.
            for r in 0..np {
                let bulk_done = bnd[r] + cfg.cost.kernel(bulk_sites, resident);
                let comm_end = if np > 1 {
                    arrivals[r].max(send_free[r])
                } else {
                    bnd[r]
                };
                tbnd_acc += bnd[r].since(clocks[r]);
                if np > 1 {
                    tnet_acc += comm_end.since(bnd[r]);
                }
                clocks[r] = bulk_done.max(comm_end);
            }
        }
    }
    let spins = (cfg.l as f64).powi(3) * cfg.steps as f64;
    let wall = clocks
        .iter()
        .fold(SimTime::ZERO, |a, &t| a.max(t))
        .since(SimTime::ZERO);
    HsgResult {
        ttot_ps: wall.as_ps() as f64 / spins,
        tbnd_net_ps: (tbnd_acc.as_ps() as f64 + tnet_acc.as_ps() as f64) / (np as f64 * spins),
        tnet_ps: tnet_acc.as_ps() as f64 / (np as f64 * spins),
        wall,
        energy_initial,
        energy_final: slabs
            .iter()
            .map(|s| s.as_ref().map_or(0.0, |s| s.owned_energy()))
            .sum(),
        checksum: slabs.iter().fold(0u64, |a, s| {
            a.wrapping_add(s.as_ref().map_or(0, |s| s.checksum()))
        }),
        per_rank: Vec::new(),
    }
}
