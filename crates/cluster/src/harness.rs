//! The benchmark programs of §V and the reliability workloads, coded
//! against the RDMA API. Each entry point, and the plane it attaches:
//!
//! * [`flush_read_bandwidth`] — the Table I / Fig. 4 memory-read test:
//!   "the test allocates a single receive buffer, then it enters a tight
//!   loop, enqueuing as many RDMA PUT as possible as to keep the
//!   transmission queue constantly full", with TX injection FIFOs flushed;
//!   [`flush_read_with_trace`] adds a PCIe bus analyzer (Fig. 3);
//! * [`loopback_bandwidth`] — the same loop against the internal switch
//!   (Table I loop-back rows, Fig. 5);
//! * [`two_node_bandwidth`] — the Fig. 6/7 uni-directional bandwidth test
//!   for every source/destination buffer-kind combination, with optional
//!   host staging (P2P=OFF); its [`BwResult::submit_interval`] is the
//!   Fig. 10 host overhead. [`two_node_instrumented`] adds a span
//!   capture, [`two_node_profiled`] the sim-time profiler;
//! * [`two_node_bidir_bandwidth`] — both directions at once;
//! * [`pingpong_half_rtt`] — the Fig. 8/9 latency test (half round-trip);
//!   [`pingpong_instrumented`] adds a span capture and, optionally, an
//!   occupancy sampler;
//! * [`chaos_run`] — exactly-once PUT ring under link faults;
//!   [`chaos_run_tail`] adds the tail plane, [`chaos_run_sampled`] an
//!   occupancy sampler, and [`get_chaos_run`] swaps in the GET verb with
//!   send-queue moderation;
//! * [`incast_run`] — the overload-plane incast/hotspot storm;
//!   [`incast_run_slo_traced`] adds the SLO plane and returns its span
//!   capture; [`incast_single_flow_baseline`] is its 1-sender reference;
//! * [`get_stream_bandwidth`] — the doorbell-batch GET sweep.
//!
//! A plane is attached only through one of these entry points (or
//! [`ClusterBuilder::with_trace`] and the `node_cfg.card` fields for the
//! overload and route-around planes); the plain entry points run with
//! every plane off, whatever the process environment holds.

use crate::cluster::{Cluster, ClusterBuilder};
use crate::msg::{HostApi, HostIn, HostProgram, IdleProgram, NodeCtx};
use crate::node::NodeConfig;
use crate::sampling::OccupancySampler;
use apenet_core::config::TxSinkMode;
use apenet_core::coord::{Coord, TorusDims};
use apenet_core::packet::MsgId;
use apenet_gpu::mem::Memory;
use apenet_gpu::GPU_PAGE_SIZE;
use apenet_obs::alert::RuleSet;
use apenet_obs::latency::{
    attach_errors, collect_ledgers, metrics as tail_metrics, MsgLedger, TailConfig, TailSummary,
};
use apenet_obs::recorder::FlightRecorder;
use apenet_obs::report::RunReport;
use apenet_obs::slo::SloConfig;
use apenet_obs::{CounterSnapshot, Registry};
use apenet_rdma::api::{RdmaEndpoint, RdmaError, SrcHint};
use apenet_rdma::completion::CompletionError;
use apenet_rdma::driver::Watchdog;
use apenet_rdma::pacing::{self, Pacer, PacerConfig};
use apenet_rdma::signal::{self, SendQueue, SignalConfig};
use apenet_rdma::staging::{staged_put, staged_recv_finish};
use apenet_sim::profile::SimProfile;
use apenet_sim::trace::{kind as tk, SharedSink, SpanId, TraceRecord};
use apenet_sim::{Bandwidth, SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

/// Which memory a test buffer lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufSide {
    /// Host memory ("H" in the figures).
    Host,
    /// GPU device memory ("G").
    Gpu,
}

impl BufSide {
    fn hint(self) -> SrcHint {
        match self {
            BufSide::Host => SrcHint::Host,
            BufSide::Gpu => SrcHint::Gpu,
        }
    }
}

/// Shared measurement records filled in by the programs.
#[derive(Debug, Default)]
pub struct BenchRecords {
    /// Times each PUT was handed to the card (sender side).
    pub submits: Vec<SimTime>,
    /// TX-complete times (sender side).
    pub tx_done: Vec<SimTime>,
    /// Delivery times (receiver side, message granularity).
    pub deliveries: Vec<SimTime>,
    /// Post-processed completion `(time, bytes)` records (e.g. after the
    /// staged H2D copy; staged transfers complete chunk-wise).
    pub completions: Vec<(SimTime, u64)>,
}

type Shared = Rc<RefCell<BenchRecords>>;

fn alloc_buf(node: &NodeCtx, side: BufSide, len: u64) -> u64 {
    match side {
        BufSide::Host => node.hostmem.borrow_mut().alloc(len).expect("host alloc"),
        BufSide::Gpu => node.cuda[0].borrow_mut().malloc(len).expect("gpu alloc"),
    }
}

fn fill_buf(node: &NodeCtx, side: BufSide, addr: u64, len: u64, seed: u8) {
    let byte = |i: u64| (i as u8).wrapping_mul(31) ^ seed;
    match side {
        BufSide::Host => write_tiled(&mut node.hostmem.borrow_mut(), addr, len, byte),
        BufSide::Gpu => write_tiled(&mut node.cuda[0].borrow_mut().mem, addr, len, byte),
    }
}

/// Write `len` bytes of a 256-periodic stream (`byte(i)` depends on
/// `i % 256` only) at `addr`, as one page-sized tile repeated.
fn write_tiled(mem: &mut Memory, addr: u64, len: u64, byte: impl Fn(u64) -> u8) {
    let tile: Vec<u8> = (0..mem.page_size().min(len)).map(byte).collect();
    let mut off = 0;
    while off < len {
        let n = (tile.len() as u64).min(len - off);
        mem.write(addr + off, &tile[..n as usize]).unwrap();
        off += n;
    }
}

/// The streaming sender: keeps `window` PUTs outstanding until `count`
/// have been issued.
struct StreamSender {
    peer: Coord,
    src: BufSide,
    src_addr: u64,
    dst_vaddr: u64,
    size: u64,
    count: u32,
    window: u32,
    issued: u32,
    records: Shared,
}

impl StreamSender {
    fn send_one(
        &mut self,
        node: &mut NodeCtx,
        api: &mut HostApi<'_, '_>,
        mut clock: SimDuration,
    ) -> SimDuration {
        let out = node
            .ep
            .put(
                self.src_addr,
                self.size,
                self.peer,
                self.dst_vaddr,
                self.src.hint(),
            )
            .expect("put");
        clock += out.host_cost;
        self.records.borrow_mut().submits.push(api.now + clock);
        api.submit(clock, out.desc);
        self.issued += 1;
        clock
    }
}

impl HostProgram for StreamSender {
    fn start(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        let reg = node
            .ep
            .register(self.src_addr, self.size)
            .expect("register src");
        let mut clock = reg;
        let burst = self.window.min(self.count);
        for _ in 0..burst {
            clock = self.send_one(node, api, clock);
        }
    }

    fn on_event(&mut self, ev: HostIn, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        if let HostIn::TxDone { .. } = ev {
            self.records.borrow_mut().tx_done.push(api.now);
            if self.issued < self.count {
                self.send_one(node, api, SimDuration::ZERO);
            }
        }
    }
}

/// The receiving side: registers the destination buffer and records
/// deliveries; optionally finishes staged receptions with an H2D copy.
struct StreamReceiver {
    dst_vaddr: u64,
    size: u64,
    /// For staged (P2P=OFF) reception: copy up to this GPU address.
    staged_gpu_dst: Option<u64>,
    records: Shared,
}

impl HostProgram for StreamReceiver {
    fn start(&mut self, node: &mut NodeCtx, _api: &mut HostApi<'_, '_>) {
        node.ep
            .register(self.dst_vaddr, self.size)
            .expect("register dst");
    }

    fn on_event(&mut self, ev: HostIn, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        if let HostIn::Delivered { dst_vaddr, len, .. } = ev {
            let mut rec = self.records.borrow_mut();
            rec.deliveries.push(api.now);
            let done = if let Some(gpu_dst) = self.staged_gpu_dst {
                let mut dev = node.cuda[0].borrow_mut();
                let mut hm = node.hostmem.borrow_mut();
                staged_recv_finish(&mut dev, &mut hm, api.now, dst_vaddr, gpu_dst, len)
                    .expect("harness staging ranges are self-allocated")
            } else {
                api.now
            };
            rec.completions.push((done, len));
        }
    }
}

/// A sender and a receiver sharing one node (loop-back, bi-directional):
/// deliveries go to the receiver, everything else to the sender.
struct Duplex {
    sender: StreamSender,
    receiver: StreamReceiver,
}

impl HostProgram for Duplex {
    fn start(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        self.receiver.start(node, api);
        self.sender.start(node, api);
    }

    fn on_event(&mut self, ev: HostIn, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        match ev {
            HostIn::Delivered { .. } => self.receiver.on_event(ev, node, api),
            _ => self.sender.on_event(ev, node, api),
        }
    }
}

/// A program whose buffers are allocated when its node starts: `setup`
/// runs once in `start` to build the inner program, which then starts
/// and receives every later event.
struct OnStart<F, P> {
    setup: Option<F>,
    inner: Option<P>,
}

impl<F: FnOnce(&mut NodeCtx) -> P, P: HostProgram> OnStart<F, P> {
    fn new(setup: F) -> Self {
        OnStart {
            setup: Some(setup),
            inner: None,
        }
    }
}

impl<F: FnOnce(&mut NodeCtx) -> P, P: HostProgram> HostProgram for OnStart<F, P> {
    fn start(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        let setup = self.setup.take().expect("a host program starts once");
        self.inner.insert(setup(node)).start(node, api);
    }

    fn on_event(&mut self, ev: HostIn, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        if let Some(p) = &mut self.inner {
            p.on_event(ev, node, api);
        }
    }
}

/// Build a cluster of `programs`, recording spans into `trace` if given.
fn build(
    dims: TorusDims,
    node_cfg: NodeConfig,
    trace: Option<SharedSink>,
    programs: Vec<Box<dyn HostProgram>>,
) -> Cluster {
    let mut builder = ClusterBuilder::new(dims, node_cfg);
    if let Some(t) = trace {
        builder = builder.with_trace(t);
    }
    builder.build(programs)
}

/// Run `cluster` to quiescence, ticking `sampler` through it if given.
fn run(cluster: &mut Cluster, sampler: Option<&mut OccupancySampler>) -> SimTime {
    match sampler {
        Some(s) => cluster.run_sampled(s),
        None => cluster.run(),
    }
}

/// The staged (P2P=OFF) sender: `cudaMemcpy` into a bounce buffer, then
/// pipelined PUTs of the bounce.
struct StagedSender {
    peer: Coord,
    src_dev: u64,
    bounce: u64,
    dst_vaddr: u64,
    size: u64,
    count: u32,
    issued: u32,
    chunks_left: u32,
    records: Shared,
}

impl StagedSender {
    fn send_one(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        let mut dev = node.cuda[0].borrow_mut();
        let mut hm = node.hostmem.borrow_mut();
        // Split the borrow: staged_put needs the endpoint too.
        let plan = {
            let NodeCtx { ep, .. } = node;
            staged_put(
                ep,
                &mut dev,
                &mut hm,
                api.now,
                self.src_dev,
                self.bounce,
                self.size,
                self.peer,
                self.dst_vaddr,
            )
            .expect("staged put")
        };
        self.chunks_left = plan.submissions.len() as u32;
        let mut rec = self.records.borrow_mut();
        for (at, desc) in plan.submissions {
            rec.submits.push(at);
            api.submit(at.since(api.now), desc);
        }
        self.issued += 1;
    }
}

impl HostProgram for StagedSender {
    fn start(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        node.ep
            .register(self.bounce, self.size)
            .expect("register bounce");
        self.send_one(node, api);
    }

    fn on_event(&mut self, ev: HostIn, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        if let HostIn::TxDone { .. } = ev {
            self.records.borrow_mut().tx_done.push(api.now);
            self.chunks_left -= 1;
            if self.chunks_left == 0 && self.issued < self.count {
                self.send_one(node, api);
            }
        }
    }
}

/// Result of a bandwidth-style run.
#[derive(Debug, Clone, Copy)]
pub struct BwResult {
    /// Steady-state delivered bandwidth.
    pub bandwidth: Bandwidth,
    /// Mean sender-side inter-submit interval (the Fig. 10 host overhead).
    pub submit_interval: SimDuration,
    /// Completion time of the first message (startup latency).
    pub first_completion: SimTime,
    /// Time the first PUT was handed to the card (the Fig. 3 trigger).
    pub first_submit: SimTime,
}

fn measure(records: &BenchRecords, size: u64) -> BwResult {
    // Completion records carry byte counts (staged transfers complete in
    // chunks); TX-done records are per whole message.
    let comps: Vec<(SimTime, u64)> = if records.completions.is_empty() {
        records.tx_done.iter().map(|&t| (t, size)).collect()
    } else {
        records.completions.clone()
    };
    assert!(comps.len() >= 2, "need at least two completions to measure");
    let first_submit = records.submits.first().copied().unwrap_or(SimTime::ZERO);
    let bytes: u64 = comps.iter().skip(1).map(|&(_, b)| b).sum();
    let span = comps[comps.len() - 1].0.since(comps[0].0);
    let bandwidth = Bandwidth::measured(bytes, span.max(SimDuration::from_ps(1)));
    let submits = &records.submits;
    let submit_interval = if submits.len() >= 2 {
        submits[submits.len() - 1].since(submits[0]) / (submits.len() as u64 - 1)
    } else {
        SimDuration::ZERO
    };
    BwResult {
        bandwidth,
        submit_interval,
        first_completion: comps[0].0,
        first_submit,
    }
}

/// Fig. 4 / Table I memory-read rows: single node, TX FIFO flushed.
pub fn flush_read_bandwidth(node_cfg: NodeConfig, src: BufSide, size: u64, count: u32) -> BwResult {
    flush_read_with_trace(node_cfg, src, size, count, None).0
}

/// [`flush_read_bandwidth`] with an optional bus-analyzer interposer on
/// the card's PCIe uplink (the Fig. 3 setup); returns the capture.
pub fn flush_read_with_trace(
    mut node_cfg: NodeConfig,
    src: BufSide,
    size: u64,
    count: u32,
    sink: Option<SharedSink>,
) -> (BwResult, Vec<TraceRecord>) {
    node_cfg.card.tx_sink = TxSinkMode::Flush;
    let records: Shared = Rc::new(RefCell::new(BenchRecords::default()));
    let rec = records.clone();
    let sender = OnStart::new(move |node: &mut NodeCtx| {
        let src_addr = alloc_buf(node, src, size);
        fill_buf(node, src, src_addr, size, 0xA5);
        StreamSender {
            peer: node.coord, // self: flushed or loop-back
            src,
            src_addr,
            dst_vaddr: src_addr, // unused in flush mode
            size,
            count,
            window: 8,
            issued: 0,
            records: rec,
        }
    });
    let dims = TorusDims::new(1, 1, 1);
    let mut cluster = build(dims, node_cfg, None, vec![Box::new(sender)]);
    let sink = sink.unwrap_or_else(SharedSink::null);
    if sink.enabled() {
        let shared = &cluster.nodes[0].shared;
        shared
            .fabric
            .borrow_mut()
            .attach_analyzer(shared.nic_dev, sink.clone());
    }
    cluster.run();
    let r = records.borrow();
    (measure(&r, size), sink.take())
}

/// Single-node loop-back test (Table I loop-back rows, Fig. 5): the
/// message goes through the full TX *and* RX datapaths of one card.
pub fn loopback_bandwidth(
    node_cfg: NodeConfig,
    src: BufSide,
    dst: BufSide,
    size: u64,
    count: u32,
) -> BwResult {
    let dims = TorusDims::new(1, 1, 1);
    let records: Shared = Rc::new(RefCell::new(BenchRecords::default()));
    let rec = records.clone();
    let prog = OnStart::new(move |node: &mut NodeCtx| {
        let src_addr = alloc_buf(node, src, size);
        let dst_addr = alloc_buf(node, dst, size);
        fill_buf(node, src, src_addr, size, 0x3C);
        Duplex {
            receiver: StreamReceiver {
                dst_vaddr: dst_addr,
                size,
                staged_gpu_dst: None,
                records: rec.clone(),
            },
            sender: StreamSender {
                peer: node.coord,
                src,
                src_addr,
                dst_vaddr: dst_addr,
                size,
                count,
                window: 8,
                issued: 0,
                records: rec,
            },
        }
    });
    let mut cluster = build(dims, node_cfg, None, vec![Box::new(prog)]);
    cluster.run();
    let r = records.borrow();
    let comps = &r.deliveries;
    assert!(comps.len() >= 2);
    let n = comps.len() as u64;
    let span = comps[n as usize - 1].since(comps[0]);
    BwResult {
        bandwidth: Bandwidth::measured((n - 1) * size, span.max(SimDuration::from_ps(1))),
        submit_interval: SimDuration::ZERO,
        first_completion: comps[0],
        first_submit: r.submits.first().copied().unwrap_or(SimTime::ZERO),
    }
}

/// Parameters of a two-node transfer test.
#[derive(Debug, Clone, Copy)]
pub struct TwoNodeParams {
    /// Source buffer side on the sender.
    pub src: BufSide,
    /// Destination buffer side on the receiver.
    pub dst: BufSide,
    /// Message size.
    pub size: u64,
    /// Number of messages.
    pub count: u32,
    /// Use host staging instead of peer-to-peer for GPU buffers (P2P=OFF).
    pub staged: bool,
}

/// Fig. 6/7 two-node uni-directional bandwidth test.
pub fn two_node_bandwidth(node_cfg: NodeConfig, p: TwoNodeParams) -> BwResult {
    two_node_impl(node_cfg, p, None, false).0
}

/// [`two_node_bandwidth`] with both cards' span traces enabled: returns
/// the measurement plus the merged trace (sender fetch/stage/frame-tx and
/// receiver frame-rx/rx-write/delivered records, span-correlated).
pub fn two_node_instrumented(
    node_cfg: NodeConfig,
    p: TwoNodeParams,
) -> (BwResult, Vec<TraceRecord>) {
    let (bw, trace, _) = two_node_impl(node_cfg, p, Some(SharedSink::capturing()), false);
    (bw, trace)
}

/// [`two_node_bandwidth`] with the sim-time profiler attached: returns
/// the measurement plus the exact (component, event-kind) partition of
/// the run's simulated time — the Fig. 3/4-style "where do the
/// nanoseconds go" view, computed instead of sampled.
pub fn two_node_profiled(node_cfg: NodeConfig, p: TwoNodeParams) -> (BwResult, SimProfile) {
    let (bw, _, prof) = two_node_impl(node_cfg, p, None, true);
    (bw, prof.expect("profiler attached by two_node_impl"))
}

fn two_node_impl(
    node_cfg: NodeConfig,
    p: TwoNodeParams,
    trace: Option<SharedSink>,
    profile: bool,
) -> (BwResult, Vec<TraceRecord>, Option<SimProfile>) {
    let dims = TorusDims::new(2, 1, 1);
    let records: Shared = Rc::new(RefCell::new(BenchRecords::default()));
    // Destination addresses are deterministic: first allocation on the
    // receiver's memory. Compute them from the allocator's behaviour.
    let dst_vaddr = first_alloc_addr(&node_cfg, p.dst, p.size, p.staged);
    let rec = records.clone();
    let sender: Box<dyn HostProgram> = if p.staged && p.src == BufSide::Gpu {
        Box::new(OnStart::new(move |node: &mut NodeCtx| {
            let src_dev = alloc_buf(node, BufSide::Gpu, p.size);
            let bounce = alloc_buf(node, BufSide::Host, p.size);
            fill_buf(node, BufSide::Gpu, src_dev, p.size, 0x5A);
            StagedSender {
                peer: node.dims.coord_of(1),
                src_dev,
                bounce,
                dst_vaddr,
                size: p.size,
                count: p.count,
                issued: 0,
                chunks_left: 0,
                records: rec,
            }
        }))
    } else {
        Box::new(OnStart::new(move |node: &mut NodeCtx| {
            let src_addr = alloc_buf(node, p.src, p.size);
            fill_buf(node, p.src, src_addr, p.size, 0x5A);
            StreamSender {
                peer: node.dims.coord_of(1),
                src: p.src,
                src_addr,
                dst_vaddr,
                size: p.size,
                count: p.count,
                window: 8,
                issued: 0,
                records: rec,
            }
        }))
    };
    let rec = records.clone();
    let receiver = OnStart::new(move |node: &mut NodeCtx| {
        let (landing, staged_gpu_dst) = if p.staged && p.dst == BufSide::Gpu {
            let bounce = alloc_buf(node, BufSide::Host, p.size);
            (bounce, Some(alloc_buf(node, BufSide::Gpu, p.size)))
        } else {
            (alloc_buf(node, p.dst, p.size), None)
        };
        StreamReceiver {
            dst_vaddr: landing,
            size: p.size,
            staged_gpu_dst,
            records: rec,
        }
    });
    let mut cluster = build(dims, node_cfg, trace, vec![sender, Box::new(receiver)]);
    if profile {
        cluster.sim.attach_profiler(crate::msg::kind_of);
    }
    cluster.run();
    let prof = cluster.sim.take_profile();
    let r = records.borrow();
    (measure(&r, p.size), cluster.trace.take(), prof)
}

/// The address the first allocation of `size` bytes lands at.
fn first_alloc_addr(node_cfg: &NodeConfig, side: BufSide, size: u64, staged: bool) -> u64 {
    let probe = crate::node::build_node(9, Coord::new(0, 0, 0), TorusDims::new(1, 1, 1), node_cfg);
    match (side, staged) {
        (BufSide::Host, _) => probe.hostmem.borrow_mut().alloc(size).unwrap(),
        // Staged GPU reception lands in a host bounce buffer first.
        (BufSide::Gpu, true) => probe.hostmem.borrow_mut().alloc(size).unwrap(),
        (BufSide::Gpu, false) => probe.cuda[0].borrow_mut().malloc(size).unwrap(),
    }
}

/// Ping-pong latency test: returns the half round-trip time.
pub fn pingpong_half_rtt(
    node_cfg: NodeConfig,
    src: BufSide,
    dst: BufSide,
    size: u64,
    iters: u32,
    staged: bool,
) -> SimDuration {
    pingpong_impl(node_cfg, src, dst, size, iters, staged, None, None).0
}

/// [`pingpong_half_rtt`] with both cards' span traces enabled: returns
/// the latency plus the span-correlated trace of every PUT in the
/// exchange (the input to the Perfetto exporter and the latency
/// breakdown report). With a `sampler`, occupancy series tick through
/// the same run, so spans and counters share one timeline — what the
/// Perfetto export wants (counter tracks under the message slices).
pub fn pingpong_instrumented(
    node_cfg: NodeConfig,
    src: BufSide,
    dst: BufSide,
    size: u64,
    iters: u32,
    staged: bool,
    sampler: Option<&mut OccupancySampler>,
) -> (SimDuration, Vec<TraceRecord>) {
    pingpong_impl(
        node_cfg,
        src,
        dst,
        size,
        iters,
        staged,
        Some(SharedSink::capturing()),
        sampler,
    )
}

#[allow(clippy::too_many_arguments)]
fn pingpong_impl(
    node_cfg: NodeConfig,
    src: BufSide,
    dst: BufSide,
    size: u64,
    iters: u32,
    staged: bool,
    trace: Option<SharedSink>,
    sampler: Option<&mut OccupancySampler>,
) -> (SimDuration, Vec<TraceRecord>) {
    let dims = TorusDims::new(2, 1, 1);
    let records: Shared = Rc::new(RefCell::new(BenchRecords::default()));
    let peer_dst = first_alloc_addr(&node_cfg, dst, size, staged);
    let programs: Vec<Box<dyn HostProgram>> = (0..2)
        .map(|rank| {
            Box::new(PingPongProgram {
                initiator: rank == 0,
                src,
                dst,
                size,
                iters,
                staged,
                peer_dst,
                addrs: None,
                done: 0,
                timer_start: None,
                records: records.clone(),
            }) as Box<dyn HostProgram>
        })
        .collect();
    let mut cluster = build(dims, node_cfg, trace, programs);
    run(&mut cluster, sampler);
    let r = records.borrow();
    // completions[0] is the timer start (after warm-up); the last is the
    // final pong. Each iteration is one full round trip.
    assert!(
        r.completions.len() >= 2,
        "pingpong produced no measurements"
    );
    let span = r.completions[r.completions.len() - 1]
        .0
        .since(r.completions[0].0);
    (
        span / (2 * (r.completions.len() as u64 - 1)),
        cluster.trace.take(),
    )
}

/// Both sides of the ping-pong. The destination buffer layout is
/// symmetric, so `peer_dst` is the same on both nodes.
struct PingPongProgram {
    initiator: bool,
    src: BufSide,
    dst: BufSide,
    size: u64,
    iters: u32,
    staged: bool,
    peer_dst: u64,
    addrs: Option<(u64, u64, Option<u64>, Option<u64>)>, // src, dst, bounce_tx, gpu_dst
    done: u32,
    timer_start: Option<SimTime>,
    records: Shared,
}

const PINGPONG_WARMUP: u32 = 2;

impl PingPongProgram {
    fn peer(&self, node: &NodeCtx) -> Coord {
        node.dims.coord_of(if self.initiator { 1 } else { 0 })
    }

    fn send(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>, at: SimTime) {
        let (src_addr, _dst, bounce_tx, _gpu) = self.addrs.expect("addresses set in start");
        let peer = self.peer(node);
        if self.staged && self.src == BufSide::Gpu {
            let bounce = bounce_tx.expect("staged sender has a bounce");
            let mut dev = node.cuda[0].borrow_mut();
            let mut hm = node.hostmem.borrow_mut();
            let plan = staged_put(
                &mut node.ep,
                &mut dev,
                &mut hm,
                at,
                src_addr,
                bounce,
                self.size,
                peer,
                self.peer_dst,
            )
            .expect("staged put");
            for (t, desc) in plan.submissions {
                api.submit(t.since(api.now), desc);
            }
        } else {
            let out = node
                .ep
                .put(src_addr, self.size, peer, self.peer_dst, self.src.hint())
                .expect("put");
            api.submit(at.since(api.now) + out.host_cost, out.desc);
        }
    }
}

impl HostProgram for PingPongProgram {
    fn start(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        // Allocation order must match `first_alloc_addr`: destination first.
        let (dst_addr, gpu_dst) = if self.staged && self.dst == BufSide::Gpu {
            let bounce = alloc_buf(node, BufSide::Host, self.size);
            let gpu = alloc_buf(node, BufSide::Gpu, self.size);
            (bounce, Some(gpu))
        } else {
            (alloc_buf(node, self.dst, self.size), None)
        };
        let src_addr = alloc_buf(node, self.src, self.size);
        fill_buf(
            node,
            self.src,
            src_addr,
            self.size,
            if self.initiator { 1 } else { 2 },
        );
        let bounce_tx = if self.staged && self.src == BufSide::Gpu {
            Some(alloc_buf(node, BufSide::Host, self.size))
        } else {
            None
        };
        node.ep.register(dst_addr, self.size).expect("register dst");
        self.addrs = Some((src_addr, dst_addr, bounce_tx, gpu_dst));
        if self.initiator {
            self.send(node, api, api.now);
        }
    }

    fn on_event(&mut self, ev: HostIn, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        if let HostIn::Delivered { dst_vaddr, len, .. } = ev {
            // Staged reception must land in the GPU before replying.
            let usable = if let (true, Some((_, _, _, Some(gpu_dst)))) =
                (self.staged && self.dst == BufSide::Gpu, self.addrs)
            {
                let mut dev = node.cuda[0].borrow_mut();
                let mut hm = node.hostmem.borrow_mut();
                staged_recv_finish(&mut dev, &mut hm, api.now, dst_vaddr, gpu_dst, len)
                    .expect("harness staging ranges are self-allocated")
            } else {
                api.now
            };
            if self.initiator {
                self.done += 1;
                if self.done >= PINGPONG_WARMUP {
                    self.timer_start.get_or_insert(usable);
                    self.records.borrow_mut().completions.push((usable, len));
                }
                if self.done < self.iters + PINGPONG_WARMUP {
                    self.send(node, api, usable);
                }
            } else {
                // Echo.
                self.send(node, api, usable);
            }
        }
    }
}

/// Two-node bi-directional bandwidth (the test the paper alludes to:
/// "the APEnet+ bi-directional bandwidth … will reflect a similar
/// behaviour" to the loop-back plot, §IV): both nodes stream
/// simultaneously; returns the *aggregate* (sum of both directions)
/// steady bandwidth.
pub fn two_node_bidir_bandwidth(
    node_cfg: NodeConfig,
    src: BufSide,
    dst: BufSide,
    size: u64,
    count: u32,
) -> BwResult {
    let dims = TorusDims::new(2, 1, 1);
    let records: Shared = Rc::new(RefCell::new(BenchRecords::default()));
    let dst_vaddr = first_alloc_addr(&node_cfg, dst, size, false);
    let programs: Vec<Box<dyn HostProgram>> = (0..2)
        .map(|rank| {
            let rec = records.clone();
            Box::new(OnStart::new(move |node: &mut NodeCtx| {
                // Allocation order matches on both ranks: dst first, then src.
                let dst_addr = alloc_buf(node, dst, size);
                let src_addr = alloc_buf(node, src, size);
                fill_buf(node, src, src_addr, size, node.rank as u8);
                Duplex {
                    receiver: StreamReceiver {
                        dst_vaddr: dst_addr,
                        size,
                        staged_gpu_dst: None,
                        records: rec.clone(),
                    },
                    sender: StreamSender {
                        peer: node.dims.coord_of(1 - rank),
                        src,
                        src_addr,
                        dst_vaddr,
                        size,
                        count,
                        window: 8,
                        issued: 0,
                        records: rec,
                    },
                }
            })) as Box<dyn HostProgram>
        })
        .collect();
    let mut cluster = build(dims, node_cfg, None, programs);
    cluster.run();
    let r = records.borrow();
    // Deliveries from both directions interleave; aggregate rate over the
    // combined completion stream.
    measure(&r, size)
}

// ---------------------------------------------------------------------------
// Chaos harness: exactly-once delivery under injected link faults.
// ---------------------------------------------------------------------------

/// Parameters of one chaos run (see [`chaos_run`]).
#[derive(Debug, Clone)]
pub struct ChaosParams {
    /// Messages each rank streams to its ring successor.
    pub msgs_per_rank: u32,
    /// Length of each message in bytes.
    pub msg_len: u64,
    /// Poll the driver watchdog from host wake-ups and re-issue expired
    /// messages (application-level recovery above the link layer).
    pub watchdog_reissue: bool,
}

/// Everything a chaos run proves or measures, aggregated over the
/// cluster.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Messages the run expected to deliver.
    pub expected: u64,
    /// Distinct messages actually delivered.
    pub delivered: u64,
    /// Repeat deliveries seen by any completion queue (exactly-once
    /// requires 0).
    pub duplicates: u64,
    /// Every delivered payload byte-exact at its destination GPU.
    pub payload_ok: bool,
    /// Every card drained all queues, replay buffers and partial
    /// reassembly state.
    pub quiesced: bool,
    /// Driver-watchdog alarms (0 while link-level recovery is healthy).
    pub watchdog_fired: u64,
    /// Messages re-issued by the watchdog path.
    pub watchdog_reissues: u64,
    /// Messages the watchdog escalated to typed error completions after
    /// exhausting its re-issue budget (unreachable destinations).
    pub watchdog_failed: u64,
    /// Error completions recorded across all completion queues.
    pub error_completions: u64,
    /// Card ports declared dead (2 per killed cable: one per endpoint).
    pub dead_links: u64,
    /// Packets routed the long way round a dead ring arc.
    pub detours: u64,
    /// Packets dropped because every arc to their destination was dead.
    pub unreachable_drops: u64,
    /// In-flight frames moved from dead ports onto detour routes.
    pub requeued: u64,
    /// End-to-end duplicate fragments suppressed at destinations.
    pub rx_dup_fragments: u64,
    /// Link-layer replays across all cards.
    pub retransmits: u64,
    /// Retransmit-timer expirations that triggered a replay.
    pub timeouts: u64,
    /// Duplicate data frames discarded (and re-ACKed) on receive.
    pub dup_frames: u64,
    /// Frames dropped on CRC failure (only with retransmission disabled).
    pub crc_dropped: u64,
    /// NAKs sent across all cards.
    pub naks: u64,
    /// Injected (corruptions, drops, stalls) across all cards.
    pub injected: (u64, u64, u64),
    /// Total injected stall time across all links, in picoseconds.
    pub stall_ps: u64,
    /// Latest delivery timestamp across all ranks (effective-bandwidth
    /// endpoint; `end` includes trailing watchdog poll wake-ups).
    pub last_delivery: SimTime,
    /// Simulated end time.
    pub end: SimTime,
    /// Signaled WQEs posted across all send queues (0 on PUT runs).
    pub cq_signaled: u64,
    /// Posts whose doorbell was covered by a batched ring (0 on PUT runs).
    pub doorbell_batched: u64,
    /// WQEs posted into send-queue moderation (0 on PUT runs).
    pub sq_posted: u64,
    /// WQEs retired through batched CQEs (must equal `sq_posted` when
    /// the run drains; 0 on PUT runs).
    pub sq_retired: u64,
    /// The run's full counter snapshot from its private metrics registry
    /// (link-reliability ids from `apenet_core::card::metrics` plus the
    /// watchdog ids from `apenet_rdma::driver::metrics` and the signaling
    /// ids from `apenet_rdma::signal::metrics`). The scalar counter
    /// fields above are views into this snapshot.
    pub metrics: CounterSnapshot,
}

/// The tail-forensics side channel of a chaos run: the per-message
/// latency ledgers and blame attribution, the flight recorder holding
/// full traces of the tail and error spans, and the plane's *own*
/// metrics registry. Keeping the tail counters and digests out of the
/// run registry is what makes the plane zero-perturbation by
/// construction — [`ChaosReport`] is bit-identical with the plane on or
/// off, which the report-equality test pins.
#[derive(Debug)]
pub struct TailReport {
    /// Ledgers, tail set and dominant-stage blame.
    pub summary: TailSummary,
    /// Full span traces retained for the tail and error messages.
    pub recorder: FlightRecorder,
    /// The tail plane's private registry: every `tail.*` counter and
    /// `latency.*` digest, snapshot with `registry.snapshot_json()`.
    pub registry: Registry,
}

impl TailReport {
    /// Render the deterministic report section for one regime: the
    /// summary's attribution tables plus the recorder's retention line.
    pub fn render(&self, title: &str) -> String {
        let mut out = self.summary.render(title);
        out.push_str(&format!(
            "flight recorder: {} span(s) retained, {} evicted, fault dump: {}\n",
            self.recorder.len(),
            self.recorder.evicted(),
            if self.recorder.fault_dump().is_some() {
                "frozen"
            } else {
                "none"
            },
        ));
        out
    }
}

/// Fold a finished run's span capture once for the tail and SLO
/// planes: per-message ledgers with typed errors attached. Watchdog
/// escalations surface on completion queues; a completion parked on a
/// full RX event ring that the host never drained shows as an RX_HELD
/// record with no delivery.
fn fold_capture(cluster: &Cluster) -> (Vec<TraceRecord>, Vec<MsgLedger>) {
    let records = cluster.trace.take();
    let mut errors: Vec<(SpanId, &'static str)> = Vec::new();
    for r in 0..cluster.dims.nodes() {
        for (m, _, e) in cluster.host(r).node.cq.errors() {
            let label = match e {
                CompletionError::Unreachable => "unreachable",
            };
            errors.push((m.span(), label));
        }
    }
    let delivered_spans: std::collections::BTreeSet<SpanId> = records
        .iter()
        .filter(|r| r.kind == tk::DELIVERED)
        .filter_map(|r| r.span)
        .collect();
    let held: std::collections::BTreeSet<SpanId> = records
        .iter()
        .filter(|r| r.kind == tk::RX_HELD)
        .filter_map(|r| r.span)
        .collect();
    for &s in held.difference(&delivered_spans) {
        if !errors.iter().any(|&(e, _)| e == s) {
            errors.push((s, "rx-ring-full"));
        }
    }
    let mut ledgers = collect_ledgers(&records);
    attach_errors(&mut ledgers, &errors);
    (records, ledgers)
}

/// A re-issuable reliability-run descriptor: the verb decides how the
/// watchdog hands an expired message back to the card.
#[derive(Debug, Clone)]
enum ChaosDesc {
    Put(apenet_core::card::TxDesc),
    Get(apenet_core::card::GetDesc),
}

/// Where a delivered message's bytes landed, and whose TX stream they
/// copy.
struct Landing {
    /// Rank whose GPU holds the bytes.
    rank: usize,
    /// Landing address on that rank.
    addr: u64,
    /// Rank whose TX buffer the bytes were read from.
    owner: u32,
    /// Source address in the owner's TX buffer.
    from: u64,
    len: u64,
}

impl ChaosDesc {
    /// Post one `len`-byte GPU message between this node and `peer`: a
    /// PUT streams local `from` into the peer's `to`, a GET reads the
    /// peer's `from` into local `to`.
    fn post(
        ep: &mut RdmaEndpoint,
        verb: IncastVerb,
        from: u64,
        to: u64,
        len: u64,
        peer: Coord,
    ) -> Result<(ChaosDesc, SimDuration), RdmaError> {
        match verb {
            IncastVerb::Put => ep
                .put(from, len, peer, to, SrcHint::Gpu)
                .map(|out| (ChaosDesc::Put(out.desc), out.host_cost)),
            IncastVerb::Get => ep
                .get(to, len, peer, from, SrcHint::Gpu)
                .map(|out| (ChaosDesc::Get(out.desc), out.host_cost)),
        }
    }

    fn msg(&self) -> MsgId {
        match self {
            ChaosDesc::Put(d) => d.msg,
            ChaosDesc::Get(g) => g.msg,
        }
    }

    /// Hand the descriptor to the local card after `delay`.
    fn submit(self, api: &mut HostApi<'_, '_>, delay: SimDuration) {
        match self {
            ChaosDesc::Put(d) => api.submit(delay, d),
            ChaosDesc::Get(g) => api.submit_get(delay, g),
        }
    }

    /// A PUT lands at its destination and copies its source rank's
    /// stream; a GET lands on its requester and copies the responder's.
    fn landing(&self, dims: TorusDims) -> Landing {
        match self {
            ChaosDesc::Put(d) => Landing {
                rank: dims.rank_of(d.dst),
                addr: d.dst_vaddr,
                owner: d.msg.src_rank,
                from: d.src_addr,
                len: d.len,
            },
            ChaosDesc::Get(g) => Landing {
                rank: g.msg.src_rank as usize,
                addr: g.local_vaddr,
                owner: dims.rank_of(g.peer) as u32,
                from: g.peer_vaddr,
                len: g.len,
            },
        }
    }
}

/// The cluster-shared state of a reliability run (chaos ring or incast
/// storm): one watchdog over every rank's messages, the exactly-once
/// delivery set, and the per-rank queues the watchdog routes work home
/// through.
struct ChaosShared {
    watchdog: Watchdog,
    delivered: BTreeSet<MsgId>,
    descs: BTreeMap<MsgId, ChaosDesc>,
    /// Expired messages routed back to their source rank for re-issue.
    reissue: Vec<VecDeque<ChaosDesc>>,
    /// Escalated messages routed back to their source rank, to complete
    /// with a typed error on that rank's completion queue.
    failed: Vec<VecDeque<MsgId>>,
    /// Per-rank send-queue moderation models (GET chaos runs only;
    /// empty otherwise).
    sendqs: Vec<SendQueue>,
    /// Each stream-owning rank's TX buffer: byte `o` of rank `r`'s is
    /// `chaos_byte(r, o)`.
    tx_base: Vec<u64>,
}

impl ChaosShared {
    /// Arm the watchdog on a freshly posted message and keep its
    /// descriptor for re-issue.
    fn track(&mut self, desc: &ChaosDesc, now: SimTime) {
        self.watchdog.arm(desc.msg(), now);
        self.descs.insert(desc.msg(), desc.clone());
    }

    /// Fill `rank`'s TX buffer at `tx` with its `len`-byte stream and
    /// record where it lives, for the payload verifier.
    fn write_stream(&mut self, node: &NodeCtx, rank: u32, tx: u64, len: u64) {
        let mem = &mut node.cuda[0].borrow_mut().mem;
        write_tiled(mem, tx, len, |o| chaos_byte(rank, o));
        self.tx_base[rank as usize] = tx;
    }

    /// Record a delivery on `rank`, retiring its WQE if `rank` posts
    /// through a send queue.
    fn deliver(&mut self, rank: usize, msg: MsgId) {
        self.delivered.insert(msg);
        self.watchdog.disarm(&msg);
        if let Some(sq) = self.sendqs.get_mut(rank) {
            retire_wqe(sq, &msg);
        }
    }

    /// One host wake-up's watchdog duty on `rank`: route every
    /// globally-expired message to its source rank (the watchdog re-armed
    /// each with a backed-off deadline), then drain this rank's own
    /// queues — re-issues first, then escalations, which complete with a
    /// typed error on the completion queue: the watchdog's bounded
    /// give-up is never a silent drop.
    fn service(&mut self, rank: usize, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        let ex = self.watchdog.poll_expired(api.now);
        for msg in ex.reissue {
            let desc = self.descs[&msg].clone();
            self.reissue[msg.src_rank as usize].push_back(desc);
        }
        for msg in ex.failed {
            self.failed[msg.src_rank as usize].push_back(msg);
        }
        while let Some(desc) = self.reissue[rank].pop_front() {
            desc.submit(api, SimDuration::ZERO);
        }
        while let Some(msg) = self.failed[rank].pop_front() {
            node.cq
                .push_error(msg, api.now, CompletionError::Unreachable);
            // An escalated GET still terminates its WQE: the error
            // completion retires it so the batch behind it can drain.
            if let Some(sq) = self.sendqs.get_mut(rank) {
                retire_wqe(sq, &msg);
            }
        }
    }

    /// Whether anything in the cluster still needs the watchdog poll.
    fn armed(&self) -> bool {
        self.watchdog.outstanding() > 0
            || self.reissue.iter().any(|q| !q.is_empty())
            || self.failed.iter().any(|q| !q.is_empty())
    }
}

/// Retire `msg`'s WQE. Reap at the latest when the CQ is half full, so
/// moderation keeps retiring in batches without ever overflowing the
/// depth.
fn retire_wqe(sq: &mut SendQueue, msg: &MsgId) {
    sq.complete(msg);
    if sq.cq_occupancy() * 2 >= sq.cq_depth().max(1) {
        let _ = sq.reap();
    }
}

/// The deterministic payload byte of `(src_rank, byte offset)` — the
/// whole TX region of one rank is one stream of these.
fn chaos_byte(src_rank: u32, off: u64) -> u8 {
    (off as u8)
        .wrapping_mul(31)
        .wrapping_add((src_rank as u8).wrapping_mul(97))
        ^ 0x5A
}

/// Byte-exact check of every delivered message: its landing range must
/// hold the owner's stream at the message's offset in the owner's TX
/// buffer. Undelivered messages are skipped — with recovery disabled,
/// lost messages leave their slots unwritten.
///
/// Each landed page chunk is compared in place against a window of the
/// owner's stream tile; the stream is 256-periodic, so one tile of a page
/// plus 255 bytes holds every chunk at every phase.
fn payload_ok(cluster: &Cluster, sh: &ChaosShared) -> bool {
    let mut tiles: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
    sh.descs
        .iter()
        .filter(|(m, _)| sh.delivered.contains(m))
        .all(|(_, desc)| {
            let l = desc.landing(cluster.dims);
            let tile = tiles.entry(l.owner).or_insert_with(|| {
                (0..GPU_PAGE_SIZE + 255)
                    .map(|o| chaos_byte(l.owner, o))
                    .collect()
            });
            let mut o = l.from - sh.tx_base[l.owner as usize];
            let mut ok = true;
            cluster.host(l.rank).node.cuda[0]
                .borrow()
                .mem
                .for_each_chunk(l.addr, l.len, |chunk| {
                    let phase = (o % 256) as usize;
                    ok &= chunk == &tile[phase..phase + chunk.len()];
                    o += chunk.len() as u64;
                })
                .expect("landing range lies in the rank's GPU memory");
            ok
        })
}

/// The skeleton every reliability run shares. Every counter a report
/// quotes flows through the per-run registry `reg`: the watchdog mirrors
/// its alarms in, send queues and pacers mirror their activity, and each
/// card publishes its link-reliability totals after the run. The
/// signaling and pacing ids are pre-created at zero so every run
/// publishes the full id set.
struct Rig {
    reg: Registry,
    /// Host poll period of the watchdog duty: a quarter of its timeout.
    poll: SimDuration,
    shared: Rc<RefCell<ChaosShared>>,
}

/// Completion-queue and card totals of a finished reliability run.
struct Totals {
    duplicates: u64,
    error_completions: u64,
    last_delivery: SimTime,
    quiesced: bool,
}

impl Rig {
    fn new(n: usize, node_cfg: &NodeConfig) -> Rig {
        let reg = Registry::new();
        signal::register_metrics(&reg);
        pacing::register_metrics(&reg);
        let wd_cfg = node_cfg.driver.watchdog.clone();
        let poll = SimDuration::from_ps((wd_cfg.timeout.as_ps() / 4).max(1));
        let mut watchdog = Watchdog::new(wd_cfg);
        watchdog.attach_metrics(&reg);
        let shared = ChaosShared {
            watchdog,
            delivered: BTreeSet::new(),
            descs: BTreeMap::new(),
            reissue: vec![VecDeque::new(); n],
            failed: vec![VecDeque::new(); n],
            sendqs: Vec::new(),
            tx_base: vec![0; n],
        };
        Rig {
            reg,
            poll,
            shared: Rc::new(RefCell::new(shared)),
        }
    }

    /// Sum every rank's completion-queue totals and publish every card's
    /// link-reliability counters into the run registry.
    fn totals(&self, cluster: &Cluster) -> Totals {
        let mut t = Totals {
            duplicates: 0,
            error_completions: 0,
            last_delivery: SimTime::ZERO,
            quiesced: true,
        };
        for r in 0..cluster.dims.nodes() {
            let cq = &cluster.host(r).node.cq;
            t.duplicates += cq.duplicate_count();
            t.error_completions += cq.error_count() as u64;
            if let Some(at) = cq.last_delivery() {
                t.last_delivery = t.last_delivery.max(at);
            }
            let card = cluster.card(r).card();
            t.quiesced &= card.quiesced();
            card.publish_link_metrics(&self.reg);
        }
        t
    }
}

/// One rank of the chaos ring. With the PUT verb it streams its TX
/// region into its ring successor's RX buffer; with the GET verb it
/// *reads* the successor's TX region into its own RX buffer, posting
/// through send-queue moderation (selective signaling + doorbell
/// batching). The completion side — PUT destination or GET requester —
/// runs the watchdog, re-issue and Unreachable escalation, composed with
/// whatever the fault plan does to the streams.
struct ChaosRank {
    rank: u32,
    msgs: u32,
    msg_len: u64,
    verb: IncastVerb,
    reissue: bool,
    poll: SimDuration,
    peer: Coord,
    shared: Rc<RefCell<ChaosShared>>,
}

impl HostProgram for ChaosRank {
    fn start(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        let region = (self.msgs as u64 * self.msg_len).max(1);
        // Allocation order is identical on every rank, so this rank's RX
        // and TX addresses equal its peer's: a PUT names the peer's RX
        // slot, a GET the peer's TX stream, without an out-of-band
        // exchange.
        let rx_buf = node.cuda[0].borrow_mut().malloc(region).unwrap();
        let tx_buf = node.cuda[0].borrow_mut().malloc(region).unwrap();
        node.ep.register(rx_buf, region).unwrap();
        node.ep.register(tx_buf, region).unwrap();
        self.shared
            .borrow_mut()
            .write_stream(node, self.rank, tx_buf, region);
        for i in 0..self.msgs {
            let off = i as u64 * self.msg_len;
            let (desc, host_cost) = ChaosDesc::post(
                &mut node.ep,
                self.verb,
                tx_buf + off,
                rx_buf + off,
                self.msg_len,
                self.peer,
            )
            .unwrap();
            let mut sh = self.shared.borrow_mut();
            sh.track(&desc, api.now);
            // The last post of a moderated burst is force-signaled so the
            // tail of unsignaled WQEs always retires.
            if let Some(sq) = sh.sendqs.get_mut(self.rank as usize) {
                sq.post(desc.msg(), i + 1 == self.msgs);
            }
            drop(sh);
            desc.submit(api, host_cost);
        }
        if self.reissue {
            api.wake(self.poll, 0);
        }
    }

    fn on_event(&mut self, ev: HostIn, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        match ev {
            HostIn::Delivered { msg, .. } => {
                self.shared.borrow_mut().deliver(self.rank as usize, msg);
            }
            HostIn::Wake(_) if self.reissue => {
                let mut sh = self.shared.borrow_mut();
                sh.service(self.rank as usize, node, api);
                // Keep polling while anything in the cluster is still armed.
                if sh.armed() {
                    api.wake(self.poll, 0);
                }
            }
            _ => {}
        }
    }
}

/// Run a seeded chaos workload: every rank of `dims` streams
/// `msgs_per_rank` GPU-to-GPU PUTs to its ring successor while the fault
/// plan in `node_cfg.faults` corrupts, drops and stalls link frames. The
/// report carries everything the exactly-once proof needs: distinct
/// deliveries, duplicate completions, byte-exactness of every destination
/// region, card quiescence and the fault/recovery counter totals.
pub fn chaos_run(dims: TorusDims, node_cfg: NodeConfig, p: ChaosParams) -> ChaosReport {
    chaos_run_impl(dims, node_cfg, p, None, None, None).0
}

/// [`chaos_run`] with the tail-forensics plane attached: alongside the
/// (unchanged) chaos report, returns the [`TailReport`] — per-message
/// stage ledgers, tail attribution, and the flight recorder holding
/// full traces of the tail and error spans. The plane captures the
/// run's span trace, but everything it records and publishes stays out
/// of the run's schedule and registry, so the chaos report is identical
/// to [`chaos_run`]'s.
pub fn chaos_run_tail(
    dims: TorusDims,
    node_cfg: NodeConfig,
    p: ChaosParams,
    cfg: TailConfig,
) -> (ChaosReport, TailReport) {
    let (report, tail) = chaos_run_impl(dims, node_cfg, p, None, None, Some(cfg));
    (report, tail.expect("tail plane requested"))
}

/// [`chaos_run`] with the GET verb: every rank *reads* its ring
/// successor's TX region with one-sided GETs posted through send-queue
/// moderation tuned by `sig`. Exactly-once, byte-exactness, quiescence
/// and watchdog composition are proven the same way; the report
/// additionally carries the signaling counters and the send-queue
/// retirement totals (`sq_retired` must equal `sq_posted`).
pub fn get_chaos_run(
    dims: TorusDims,
    node_cfg: NodeConfig,
    p: ChaosParams,
    sig: SignalConfig,
) -> ChaosReport {
    chaos_run_impl(dims, node_cfg, p, None, Some(sig), None).0
}

/// [`chaos_run`] with an explicit [`OccupancySampler`] ticking through
/// the run — the congestion-heatmap harness uses this to record the
/// per-port wire-byte and queue-depth series while the fault plan does
/// its worst. Sampling never changes the schedule, so the report is
/// identical to an unsampled run's.
pub fn chaos_run_sampled(
    dims: TorusDims,
    node_cfg: NodeConfig,
    p: ChaosParams,
    sampler: &mut OccupancySampler,
) -> ChaosReport {
    chaos_run_impl(dims, node_cfg, p, Some(sampler), None, None).0
}

/// Build and run the chaos ring of `p` over `dims`: PUTs, or with `sig`
/// moderated GETs.
fn chaos_cluster(
    dims: TorusDims,
    node_cfg: NodeConfig,
    p: &ChaosParams,
    sig: Option<SignalConfig>,
    trace: Option<SharedSink>,
    sampler: Option<&mut OccupancySampler>,
) -> (Cluster, Rig, SimTime) {
    let n = dims.nodes();
    assert!(n >= 2, "the ring workload needs at least two nodes");
    let rig = Rig::new(n, &node_cfg);
    let verb = match sig {
        Some(sig) => {
            rig.shared.borrow_mut().sendqs = (0..n)
                .map(|_| {
                    let mut sq = SendQueue::new(sig.clone());
                    sq.attach_metrics(&rig.reg);
                    sq
                })
                .collect();
            IncastVerb::Get
        }
        None => IncastVerb::Put,
    };
    let programs: Vec<Box<dyn HostProgram>> = (0..n)
        .map(|r| {
            Box::new(ChaosRank {
                rank: r as u32,
                msgs: p.msgs_per_rank,
                msg_len: p.msg_len,
                verb,
                reissue: p.watchdog_reissue,
                poll: rig.poll,
                peer: dims.coord_of((r + 1) % n),
                shared: rig.shared.clone(),
            }) as Box<dyn HostProgram>
        })
        .collect();
    let mut cluster = build(dims, node_cfg, trace, programs);
    let end = run(&mut cluster, sampler);
    (cluster, rig, end)
}

fn chaos_run_impl(
    dims: TorusDims,
    node_cfg: NodeConfig,
    p: ChaosParams,
    sampler: Option<&mut OccupancySampler>,
    sig: Option<SignalConfig>,
    tail: Option<TailConfig>,
) -> (ChaosReport, Option<TailReport>) {
    let trace = tail.is_some().then(SharedSink::capturing);
    let (cluster, rig, end) = chaos_cluster(dims, node_cfg, &p, sig, trace, sampler);

    // Drain the send queues' final CQEs and collect retirement totals
    // before taking the long immutable borrow below.
    let (sq_posted, sq_retired) = {
        let mut sh = rig.shared.borrow_mut();
        let mut posted = 0;
        let mut retired = 0;
        for sq in sh.sendqs.iter_mut() {
            let _ = sq.reap();
            posted += sq.posted;
            retired += sq.retired;
        }
        (posted, retired)
    };
    let sh = rig.shared.borrow();
    let payload_ok = payload_ok(&cluster, &sh);
    let t = rig.totals(&cluster);
    let metrics = rig.reg.counters();
    use apenet_core::card::metrics as lm;
    use apenet_rdma::driver::metrics as wm;
    use apenet_rdma::signal::metrics as sm;
    let report = ChaosReport {
        expected: dims.nodes() as u64 * p.msgs_per_rank as u64,
        delivered: sh.delivered.len() as u64,
        duplicates: t.duplicates,
        payload_ok,
        quiesced: t.quiesced,
        watchdog_fired: metrics.get(wm::FIRED),
        watchdog_reissues: metrics.get(wm::REISSUES),
        watchdog_failed: metrics.get(wm::UNREACHABLE),
        error_completions: t.error_completions,
        dead_links: metrics.get(lm::LINK_DEAD),
        detours: metrics.get(lm::ROUTE_DETOUR),
        unreachable_drops: metrics.get(lm::ROUTE_UNREACHABLE),
        requeued: metrics.get(lm::ROUTE_REQUEUED),
        rx_dup_fragments: metrics.get(lm::RX_DUP_FRAGMENTS),
        retransmits: metrics.get(lm::RETRANSMITS),
        timeouts: metrics.get(lm::TIMEOUTS),
        dup_frames: metrics.get(lm::DUP_FRAMES),
        crc_dropped: metrics.get(lm::CRC_DROPPED),
        naks: metrics.get(lm::NAKS_SENT),
        injected: (
            metrics.get(lm::INJECTED_CORRUPT),
            metrics.get(lm::INJECTED_DROPS),
            metrics.get(lm::INJECTED_STALLS),
        ),
        stall_ps: metrics.get(lm::STALL_PS),
        last_delivery: t.last_delivery,
        end,
        cq_signaled: metrics.get(sm::CQ_SIGNALED),
        doorbell_batched: metrics.get(sm::DOORBELL_BATCHED),
        sq_posted,
        sq_retired,
        metrics,
    };

    // Fold the span capture after the report is fully assembled.
    let tail_report = tail.map(|cfg| {
        let (records, ledgers) = fold_capture(&cluster);
        let summary = TailSummary::from_ledgers(ledgers, cfg);
        let mut recorder = FlightRecorder::new(cfg.capacity);
        recorder.ingest(&records, &summary.retain_set());
        let registry = Registry::new();
        summary.publish(&registry);
        registry
            .counter(tail_metrics::RETAINED_SPANS)
            .add(recorder.len() as u64);
        registry
            .counter(tail_metrics::DROPPED_SPANS)
            .add(recorder.evicted());
        TailReport {
            summary,
            recorder,
            registry,
        }
    });
    (report, tail_report)
}

// ---------------------------------------------------------------------------
// Incast/hotspot harness: overload-plane survival proofs.
// ---------------------------------------------------------------------------

/// Which verb an incast storm uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncastVerb {
    /// N senders PUT into disjoint slots of rank 0's RX region.
    Put,
    /// N requesters GET rank 0's TX region (the hotspot-responder
    /// shape: the reply fan-out congests rank 0's own egress ports).
    Get,
}

/// Parameters of one incast run (see [`incast_run`]).
#[derive(Debug, Clone)]
pub struct IncastParams {
    /// Storming ranks (`1..=senders`), all aimed at rank 0.
    pub senders: u32,
    /// Messages each storming rank issues.
    pub msgs_per_sender: u32,
    /// Length of each message in bytes.
    pub msg_len: u64,
    /// Offered-load multiplier: the aggregate submit rate is this many
    /// times one torus link's line rate, split evenly across senders.
    pub offered: u32,
    /// PUT storm or GET (hotspot) storm.
    pub verb: IncastVerb,
    /// Host half of the overload plane: `Some` arms a per-sender
    /// [`Pacer`] (AIMD on the card's ECN echoes) plus endpoint
    /// admission control; `None` leaves submission open-loop.
    pub pacer: Option<PacerConfig>,
}

/// Everything an incast run proves or measures.
#[derive(Debug, Clone)]
pub struct IncastReport {
    /// Storming ranks.
    pub senders: u32,
    /// Offered-load multiplier the run was driven at.
    pub offered: u32,
    /// Messages the run expected to deliver.
    pub expected: u64,
    /// Distinct messages actually delivered.
    pub delivered: u64,
    /// Repeat deliveries seen by any completion queue (exactly-once
    /// requires 0).
    pub duplicates: u64,
    /// Every delivered payload byte-exact at its destination GPU.
    pub payload_ok: bool,
    /// Every card drained all queues, replay buffers and reassembly
    /// state.
    pub quiesced: bool,
    /// Unique delivered payload bytes over the time of the last
    /// delivery, in MB/s — the goodput the collapse proofs compare.
    pub goodput_mb_s: f64,
    /// Latest delivery timestamp across all ranks.
    pub last_delivery: SimTime,
    /// Simulated end time (includes trailing poll wake-ups).
    pub end: SimTime,
    /// Frames freshly CE-marked by overloaded cards.
    pub ecn_marked: u64,
    /// Congestion echoes generated back toward sources.
    pub ecn_echoed: u64,
    /// Additive window increases across all pacers.
    pub cwnd_increases: u64,
    /// Multiplicative window cuts across all pacers.
    pub cwnd_decreases: u64,
    /// Admission rejections (pacer gate plus endpoint budget).
    pub throttled: u64,
    /// Admission deadlines that expired before completion.
    pub deadline_expired: u64,
    /// Driver-watchdog alarms.
    pub watchdog_fired: u64,
    /// Messages re-issued by the watchdog path.
    pub watchdog_reissues: u64,
    /// Messages the watchdog escalated to typed error completions.
    pub watchdog_failed: u64,
    /// Error completions recorded across all completion queues.
    pub error_completions: u64,
    /// The run's full counter snapshot (card, watchdog, signaling and
    /// pacing ids; the scalar fields above are views into it).
    pub metrics: CounterSnapshot,
}

/// One storming rank of an incast run. Submission is paced open-loop at
/// the offered rate; with the overload plane armed, every send first
/// passes the pacer's window/budget gate and the endpoint's admission
/// budget, backing off exponentially on a throttle. Completion,
/// watchdog re-issue and Unreachable escalation follow the chaos-rank
/// pattern (cluster-shared watchdog, per-source re-issue queues).
struct IncastSender {
    rank: u32,
    senders: u32,
    msgs: u32,
    msg_len: u64,
    /// Submit interval implementing the offered rate.
    interval: SimDuration,
    poll: SimDuration,
    target: Coord,
    verb: IncastVerb,
    pacer: Option<Pacer>,
    /// Next unsubmitted message index.
    next: u32,
    /// Consecutive throttled attempts on the pending message.
    attempts: u32,
    /// Messages submitted and not yet settled on this rank.
    inflight: Vec<MsgId>,
    rx_buf: u64,
    tx_buf: u64,
    shared: Rc<RefCell<ChaosShared>>,
}

impl IncastSender {
    /// Target-side slot offset of this rank's message `i`: senders own
    /// disjoint blocks of rank 0's RX region.
    fn put_slot(&self, i: u32) -> u64 {
        ((self.rank - 1) as u64 * self.msgs as u64 + i as u64) * self.msg_len
    }

    /// The submit schedule: message `i` is due at `start + i·interval`.
    fn due_at(&self, i: u32) -> SimDuration {
        SimDuration::from_ps(self.interval.as_ps() * i as u64)
    }

    /// Settle every in-flight message the cluster has delivered or
    /// failed since the last poll (PUT completions land on rank 0, so
    /// senders observe them through the shared delivery set).
    fn settle(&mut self, node: &mut NodeCtx, now: SimTime) {
        let sh = self.shared.borrow();
        let done: Vec<_> = self
            .inflight
            .iter()
            .copied()
            .filter(|m| sh.delivered.contains(m) || node.cq.is_failed(*m))
            .collect();
        drop(sh);
        for msg in done {
            self.inflight.retain(|m| *m != msg);
            if let Some(p) = self.pacer.as_mut() {
                p.on_complete(msg, now);
            }
            node.ep.op_complete();
        }
    }

    /// Issue every due message the plane admits; schedule the next
    /// wake-up for the earliest of schedule, backoff and poll.
    fn pump(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        let now = api.now;
        let elapsed = now.since(SimTime::ZERO);
        self.settle(node, now);
        if let Some(p) = self.pacer.as_mut() {
            let _ = p.poll_deadlines(now);
        }
        self.shared
            .borrow_mut()
            .service(self.rank as usize, node, api);
        self.settle(node, now);
        // Open-loop schedule, gated by the plane when armed.
        let mut backoff: Option<SimDuration> = None;
        while self.next < self.msgs && self.due_at(self.next) <= elapsed {
            let admitted = match self.pacer.as_mut() {
                Some(p) => p.try_admit(0),
                None => true,
            };
            if !admitted {
                backoff = Some(
                    self.pacer
                        .as_ref()
                        .expect("gate implies pacer")
                        .backoff_for(self.attempts),
                );
                self.attempts += 1;
                break;
            }
            let i = self.next;
            let off = i as u64 * self.msg_len;
            // A GET reply lands at the stream offset in this rank's RX
            // region.
            let to = self.rx_buf
                + match self.verb {
                    IncastVerb::Put => self.put_slot(i),
                    IncastVerb::Get => off,
                };
            let res = ChaosDesc::post(
                &mut node.ep,
                self.verb,
                self.tx_buf + off,
                to,
                self.msg_len,
                self.target,
            );
            match res {
                Err(RdmaError::Throttled) => {
                    // The endpoint's own admission budget said no: same
                    // backed-off retry as a pacer rejection.
                    let delay = self
                        .pacer
                        .as_ref()
                        .map(|p| p.backoff_for(self.attempts))
                        .unwrap_or(self.poll);
                    backoff = Some(delay);
                    self.attempts += 1;
                    break;
                }
                Err(e) => panic!("incast submit failed: {e}"),
                Ok((desc, host_cost)) => {
                    let msg = desc.msg();
                    self.attempts = 0;
                    self.next += 1;
                    self.inflight.push(msg);
                    if let Some(p) = self.pacer.as_mut() {
                        p.on_submit(msg, 0, now);
                    }
                    self.shared.borrow_mut().track(&desc, now);
                    desc.submit(api, host_cost);
                }
            }
        }
        // Earliest reason to wake again: the throttle backoff (which
        // owns the overdue schedule — re-polling sooner would just spin
        // on the closed gate), the next scheduled submit, or the
        // completion/watchdog poll.
        let outstanding = !self.inflight.is_empty() || self.shared.borrow().armed();
        let mut delay: Option<SimDuration> = backoff;
        if backoff.is_none() && self.next < self.msgs {
            let sched = self.due_at(self.next);
            let wait = if sched > elapsed {
                SimDuration::from_ps(sched.as_ps() - elapsed.as_ps())
            } else {
                SimDuration::ZERO
            };
            delay = Some(wait);
        }
        if outstanding {
            delay = Some(delay.map_or(self.poll, |d| d.min(self.poll)));
        }
        if let Some(d) = delay {
            api.wake(d.max(SimDuration::from_ns(1)), 0);
        }
    }
}

impl HostProgram for IncastSender {
    fn start(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        // Identical allocation order on every rank: buffer A (rank 0's
        // RX landing region) then buffer B (rank 0's hotspot TX
        // region), so storms can name rank-0 memory without an
        // out-of-band exchange.
        let region_a = self.senders as u64 * self.msgs as u64 * self.msg_len;
        let region_b = (self.msgs as u64 * self.msg_len).max(1);
        self.rx_buf = node.cuda[0].borrow_mut().malloc(region_a.max(1)).unwrap();
        self.tx_buf = node.cuda[0].borrow_mut().malloc(region_b).unwrap();
        match self.verb {
            IncastVerb::Put => {
                // This rank's stream lives in buffer B; fill and map it.
                node.ep.register(self.tx_buf, region_b).unwrap();
                self.shared
                    .borrow_mut()
                    .write_stream(node, self.rank, self.tx_buf, region_b);
            }
            IncastVerb::Get => {
                // Replies land in this rank's buffer A prefix.
                node.ep.register(self.rx_buf, region_b).unwrap();
            }
        }
        if let Some(p) = &self.pacer {
            node.ep.set_admission(Some(p.config().admission));
        }
        self.pump(node, api);
    }

    fn on_event(&mut self, ev: HostIn, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        match ev {
            HostIn::Delivered { msg, .. } => {
                // GET completions land on the requester: settle in place.
                self.shared.borrow_mut().deliver(self.rank as usize, msg);
                self.inflight.retain(|m| *m != msg);
                if let Some(p) = self.pacer.as_mut() {
                    p.on_complete(msg, api.now);
                }
                node.ep.op_complete();
            }
            HostIn::EcnEcho { msg } => {
                if let Some(p) = self.pacer.as_mut() {
                    p.on_echo(msg, api.now);
                }
            }
            HostIn::Wake(_) => self.pump(node, api),
            _ => {}
        }
    }
}

/// The incast target (rank 0): registers the landing region (PUT) or
/// serves the hotspot TX region (GET) and records deliveries into the
/// cluster-shared exactly-once set.
struct IncastTarget {
    senders: u32,
    msgs: u32,
    msg_len: u64,
    verb: IncastVerb,
    shared: Rc<RefCell<ChaosShared>>,
}

impl HostProgram for IncastTarget {
    fn start(&mut self, node: &mut NodeCtx, _api: &mut HostApi<'_, '_>) {
        let region_a = (self.senders as u64 * self.msgs as u64 * self.msg_len).max(1);
        let region_b = (self.msgs as u64 * self.msg_len).max(1);
        let rx = node.cuda[0].borrow_mut().malloc(region_a).unwrap();
        let tx = node.cuda[0].borrow_mut().malloc(region_b).unwrap();
        match self.verb {
            IncastVerb::Put => {
                node.ep.register(rx, region_a).unwrap();
            }
            IncastVerb::Get => {
                node.ep.register(tx, region_b).unwrap();
                self.shared.borrow_mut().write_stream(node, 0, tx, region_b);
            }
        }
    }

    fn on_event(&mut self, ev: HostIn, _node: &mut NodeCtx, _api: &mut HostApi<'_, '_>) {
        if let HostIn::Delivered { msg, .. } = ev {
            self.shared.borrow_mut().deliver(0, msg);
        }
    }
}

/// Run a seeded incast/hotspot storm: ranks `1..=p.senders` of `dims`
/// storm rank 0 at `p.offered`× one link's line rate, optionally gated
/// by the overload plane's host half (`p.pacer`) on top of whatever
/// card-side marking `node_cfg.card.overload` arms. Composable with the
/// chaos and hard-fault planes through `node_cfg.faults` exactly like
/// [`chaos_run`]. The report carries goodput plus everything the
/// collapse proofs need.
pub fn incast_run(dims: TorusDims, node_cfg: NodeConfig, p: IncastParams) -> IncastReport {
    incast_run_impl(dims, node_cfg, p, None).0
}

/// [`incast_run`] with the streaming SLO engine attached: alongside the
/// (unchanged) incast report, returns the [`RunReport`] evaluating the
/// declared objective over the storm — the plane that proves the
/// burn-rate pager fires during an unprotected collapse and stays
/// silent when the overload plane survives it — and the raw span
/// capture, for the trace-export path that renders storm spans plus
/// counter tracks. The run's `cwnd.r*` time series are mirrored into
/// the report's registry so viewers see congestion-window collapse next
/// to the window p99 track.
pub fn incast_run_slo_traced(
    dims: TorusDims,
    node_cfg: NodeConfig,
    p: IncastParams,
    cfg: SloConfig,
) -> (IncastReport, RunReport, Vec<TraceRecord>) {
    let (report, slo) = incast_run_impl(dims, node_cfg, p, Some(cfg));
    let (slo, records) = slo.expect("slo plane requested");
    (report, slo, records)
}

/// Build and run the incast storm of `p` over `dims`.
fn incast_cluster(
    dims: TorusDims,
    node_cfg: NodeConfig,
    p: &IncastParams,
    trace: Option<SharedSink>,
) -> (Cluster, Rig, SimTime) {
    let n = dims.nodes();
    assert!(
        (p.senders as usize) < n,
        "rank 0 is the target; senders must fit in the remaining ranks"
    );
    let rig = Rig::new(n, &node_cfg);
    // One message serializes on the wire in `msg_len · 8 / link_gbps`
    // ns; the aggregate offered rate is `offered`× that line rate,
    // split evenly, so each sender submits every
    // `senders · serialize / offered`.
    let ser_ps = p.msg_len * 8000 / node_cfg.card.link_gbps.max(1);
    let interval =
        SimDuration::from_ps((p.senders as u64 * ser_ps / p.offered.max(1) as u64).max(1));
    let programs: Vec<Box<dyn HostProgram>> = (0..n)
        .map(|r| {
            if r == 0 {
                Box::new(IncastTarget {
                    senders: p.senders,
                    msgs: p.msgs_per_sender,
                    msg_len: p.msg_len,
                    verb: p.verb,
                    shared: rig.shared.clone(),
                }) as Box<dyn HostProgram>
            } else if r <= p.senders as usize {
                let pacer = p.pacer.clone().map(|cfg| {
                    let mut pc = Pacer::new(cfg);
                    pc.attach_metrics(&rig.reg);
                    pc.attach_series(&rig.reg, r as u32);
                    pc
                });
                Box::new(IncastSender {
                    rank: r as u32,
                    senders: p.senders,
                    msgs: p.msgs_per_sender,
                    msg_len: p.msg_len,
                    interval,
                    poll: rig.poll,
                    target: dims.coord_of(0),
                    verb: p.verb,
                    pacer,
                    next: 0,
                    attempts: 0,
                    inflight: Vec::new(),
                    rx_buf: 0,
                    tx_buf: 0,
                    shared: rig.shared.clone(),
                }) as Box<dyn HostProgram>
            } else {
                Box::new(IdleProgram) as Box<dyn HostProgram>
            }
        })
        .collect();
    let mut cluster = build(dims, node_cfg, trace, programs);
    let end = run(&mut cluster, None);
    (cluster, rig, end)
}

fn incast_run_impl(
    dims: TorusDims,
    node_cfg: NodeConfig,
    p: IncastParams,
    slo: Option<SloConfig>,
) -> (IncastReport, Option<(RunReport, Vec<TraceRecord>)>) {
    let trace = slo.is_some().then(SharedSink::capturing);
    let (cluster, rig, end) = incast_cluster(dims, node_cfg, &p, trace);
    let sh = rig.shared.borrow();
    let payload_ok = payload_ok(&cluster, &sh);
    let t = rig.totals(&cluster);
    let delivered = sh.delivered.len() as u64;
    let span_ps = t.last_delivery.since(SimTime::ZERO).as_ps();
    let goodput_mb_s = if span_ps == 0 {
        0.0
    } else {
        (delivered * p.msg_len) as f64 * 1e6 / span_ps as f64
    };
    let metrics = rig.reg.counters();
    use apenet_core::card::metrics as lm;
    use apenet_rdma::driver::metrics as wm;
    use apenet_rdma::pacing::metrics as pm;
    let report = IncastReport {
        senders: p.senders,
        offered: p.offered,
        expected: p.senders as u64 * p.msgs_per_sender as u64,
        delivered,
        duplicates: t.duplicates,
        payload_ok,
        quiesced: t.quiesced,
        goodput_mb_s,
        last_delivery: t.last_delivery,
        end,
        ecn_marked: metrics.get(lm::ECN_MARKED),
        ecn_echoed: metrics.get(lm::ECN_ECHOED),
        cwnd_increases: metrics.get(pm::CWND_INCREASES),
        cwnd_decreases: metrics.get(pm::CWND_DECREASES),
        throttled: metrics.get(pm::THROTTLED),
        deadline_expired: metrics.get(pm::DEADLINE_EXPIRED),
        watchdog_fired: metrics.get(wm::FIRED),
        watchdog_reissues: metrics.get(wm::REISSUES),
        watchdog_failed: metrics.get(wm::UNREACHABLE),
        error_completions: t.error_completions,
        metrics,
    };
    let slo_report = slo.map(|cfg| {
        let (records, ledgers) = fold_capture(&cluster);
        let slo = RunReport::build(&ledgers, cfg, &RuleSet::default());
        // Mirror the run's pacer series into the plane's registry so
        // `cwnd.r*` collapse renders next to the `window.p99` track.
        for id in rig.reg.series_ids() {
            if id.starts_with("cwnd.") {
                let dst = slo.registry.series(&id);
                for (ps, v) in rig.reg.series(&id).points() {
                    dst.push(SimTime::from_ps(ps), v);
                }
            }
        }
        (slo, records)
    });
    (report, slo_report)
}

/// The single-flow baseline the collapse proofs normalise against: one
/// sender at 1× offered load over the same configuration, plane off.
pub fn incast_single_flow_baseline(
    dims: TorusDims,
    node_cfg: NodeConfig,
    msgs: u32,
    msg_len: u64,
    verb: IncastVerb,
) -> IncastReport {
    incast_run(
        dims,
        node_cfg,
        IncastParams {
            senders: 1,
            msgs_per_sender: msgs,
            msg_len,
            offered: 1,
            verb,
            pacer: None,
        },
    )
}

// ---------------------------------------------------------------------------
// GET stream harness: the batch-size-vs-throughput sweep workload.
// ---------------------------------------------------------------------------

/// Parameters of a two-node GET stream (the `get_sweep` workload).
#[derive(Debug, Clone)]
pub struct GetStreamParams {
    /// Bytes per GET.
    pub size: u64,
    /// Number of GETs.
    pub count: u32,
    /// GETs kept outstanding.
    pub window: u32,
    /// Send-queue moderation tuning (`doorbell_batch` is the swept knob).
    pub sig: SignalConfig,
}

/// The GET requester: keeps `window` reads outstanding against the
/// responder's source buffer, charging the *moderated* host cost per
/// post — every post builds a descriptor, only batch-closing posts ring
/// the doorbell. This is the sweep's measurement loop: with doorbell
/// batching off (batch = 1) the per-post host cost caps small-message
/// throughput; with it on, the wire saturates at large batches.
struct GetStreamRequester {
    peer: Coord,
    peer_vaddr: u64,
    size: u64,
    count: u32,
    window: u32,
    issued: u32,
    rx_buf: u64,
    /// When the host core finishes its current post (posts serialize on
    /// the issuing CPU — this is the LogP *o* bound the doorbell batch
    /// amortises).
    host_free: SimTime,
    sendq: SendQueue,
    drv: apenet_rdma::driver::DriverConfig,
    records: Shared,
}

impl GetStreamRequester {
    fn issue_one(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        let out = node
            .ep
            .get(
                self.rx_buf,
                self.size,
                self.peer,
                self.peer_vaddr,
                SrcHint::Gpu,
            )
            .expect("get");
        let force = self.issued + 1 == self.count;
        let info = self.sendq.post(out.desc.msg, force);
        // The issuing core serializes descriptor builds and doorbells:
        // each post occupies it for its host cost after the previous
        // post retires, regardless of how the card pipeline is doing.
        let end = self.host_free.max(api.now) + info.host_cost(&self.drv);
        self.host_free = end;
        self.records.borrow_mut().submits.push(end);
        api.submit_get(end.since(api.now), out.desc);
        self.issued += 1;
        if force && self.sendq.flush_doorbell() {
            // Tail flush: the last burst may not land on a batch
            // boundary; the ring is charged but gates nothing.
        }
    }
}

impl HostProgram for GetStreamRequester {
    fn start(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        self.rx_buf = alloc_buf(node, BufSide::Gpu, self.size);
        node.ep
            .register(self.rx_buf, self.size)
            .expect("register rx");
        let burst = self.window.min(self.count);
        for _ in 0..burst {
            self.issue_one(node, api);
        }
    }

    fn on_event(&mut self, ev: HostIn, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        if let HostIn::Delivered { msg, len, .. } = ev {
            retire_wqe(&mut self.sendq, &msg);
            self.records.borrow_mut().completions.push((api.now, len));
            if self.issued < self.count {
                self.issue_one(node, api);
            }
        }
    }
}

/// The GET responder: owns the source buffer the requester reads. All
/// serving happens on the card (BUF_LIST walk + reply stream), so the
/// host just registers and idles — the one-sided half of the verb.
struct GetStreamResponder {
    size: u64,
}

impl HostProgram for GetStreamResponder {
    fn start(&mut self, node: &mut NodeCtx, _api: &mut HostApi<'_, '_>) {
        let src = alloc_buf(node, BufSide::Gpu, self.size);
        fill_buf(node, BufSide::Gpu, src, self.size, 0x6E);
        node.ep.register(src, self.size).expect("register src");
    }

    fn on_event(&mut self, _ev: HostIn, _node: &mut NodeCtx, _api: &mut HostApi<'_, '_>) {}
}

/// Two-node GET stream bandwidth: rank 0 reads rank 1's GPU buffer with
/// `count` pipelined GETs through send-queue moderation.
pub fn get_stream_bandwidth(node_cfg: NodeConfig, p: GetStreamParams) -> BwResult {
    let dims = TorusDims::new(2, 1, 1);
    let records: Shared = Rc::new(RefCell::new(BenchRecords::default()));
    // Both ranks' first GPU allocation lands at the same address, so the
    // requester can name the responder's buffer without an exchange.
    let peer_vaddr = first_alloc_addr(&node_cfg, BufSide::Gpu, p.size, false);
    let drv = node_cfg.driver.clone();
    let requester = Box::new(GetStreamRequester {
        peer: dims.coord_of(1),
        peer_vaddr,
        size: p.size,
        count: p.count,
        window: p.window,
        issued: 0,
        rx_buf: 0,
        host_free: SimTime::ZERO,
        sendq: SendQueue::new(p.sig.clone()),
        drv,
        records: records.clone(),
    });
    let responder = Box::new(GetStreamResponder { size: p.size });
    let mut cluster = ClusterBuilder::new(dims, node_cfg).build(vec![requester, responder]);
    cluster.run();
    let r = records.borrow();
    measure(&r, p.size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{cluster_i_default, cluster_i_incast};

    /// The verifier passes a clean run and flags one flipped byte in a
    /// delivered message's landing range — at its first byte, its last
    /// byte and on a 64 KiB page boundary inside it, where the chunked
    /// comparison starts a new chunk — and skips that range once its
    /// message counts as undelivered.
    fn assert_verifier_catches_a_flip(cluster: &Cluster, rig: &Rig) {
        let mut sh = rig.shared.borrow_mut();
        assert_eq!(sh.delivered.len(), sh.descs.len(), "clean run delivers all");
        assert!(payload_ok(cluster, &sh), "a clean run verifies");
        let landings: Vec<(MsgId, Landing)> = sh
            .descs
            .iter()
            .map(|(&m, d)| (m, d.landing(cluster.dims)))
            .collect();
        let crossing = landings
            .iter()
            .find_map(|(m, l)| {
                let boundary = (l.addr + 1).next_multiple_of(GPU_PAGE_SIZE);
                (boundary < l.addr + l.len).then_some((*m, l.rank, boundary))
            })
            .expect("a landing range crosses a page boundary");
        let (msg, l) = &landings[0];
        let targets = [
            (*msg, l.rank, l.addr),
            (*msg, l.rank, l.addr + l.len - 1),
            crossing,
        ];
        for (msg, rank, at) in targets {
            let flip = |at: u64| {
                let mut gpu = cluster.host(rank).node.cuda[0].borrow_mut();
                let byte = gpu.mem.read_vec(at, 1).unwrap()[0];
                gpu.mem.write(at, &[byte ^ 1]).unwrap();
            };
            flip(at);
            assert!(
                !payload_ok(cluster, &sh),
                "a flipped landing byte at {at:#x} is flagged"
            );
            sh.delivered.remove(&msg);
            assert!(payload_ok(cluster, &sh), "an undelivered slot is skipped");
            sh.delivered.insert(msg);
            flip(at);
            assert!(payload_ok(cluster, &sh), "the restored byte verifies");
        }
    }

    #[test]
    fn verifier_flags_a_flipped_landing_byte() {
        // 24 000 B messages: not a multiple of the 256 B stream period,
        // and four of them span a 64 KiB page boundary.
        let ring = ChaosParams {
            msgs_per_rank: 4,
            msg_len: 24_000,
            watchdog_reissue: false,
        };
        for sig in [None, Some(SignalConfig::default())] {
            let dims = TorusDims::new(2, 1, 1);
            let (cluster, rig, _) =
                chaos_cluster(dims, cluster_i_default(), &ring, sig, None, None);
            assert_verifier_catches_a_flip(&cluster, &rig);
        }
        let storm = IncastParams {
            senders: 2,
            msgs_per_sender: 4,
            msg_len: 24_000,
            offered: 1,
            verb: IncastVerb::Put,
            pacer: None,
        };
        let dims = TorusDims::new(3, 1, 1);
        let (cluster, rig, _) = incast_cluster(dims, cluster_i_incast(false), &storm, None);
        assert_verifier_catches_a_flip(&cluster, &rig);
    }

    /// A clean GET ring — request packets, remote serves, reply assembly,
    /// send-queue moderation — reports the same with the occupancy
    /// sampler ticking through it on top of the fault-aware routing
    /// plane: end time, deliveries and every counter.
    #[test]
    fn sampler_is_inert_on_a_get_ring() {
        let dims = TorusDims::new(4, 2, 1);
        let p = ChaosParams {
            msgs_per_rank: 3,
            msg_len: 24 * 1024,
            watchdog_reissue: true,
        };
        let plain = get_chaos_run(
            dims,
            cluster_i_default(),
            p.clone(),
            SignalConfig::default(),
        );
        assert_eq!(plain.delivered, plain.expected);
        assert!(plain.payload_ok && plain.quiesced);
        let mut routed = cluster_i_default();
        routed.card.route_around_faults = true;
        let mut sampler = OccupancySampler::new(SimDuration::from_us(5));
        let (sampled, _) = chaos_run_impl(
            dims,
            routed,
            p,
            Some(&mut sampler),
            Some(SignalConfig::default()),
            None,
        );
        assert!(sampler.samples() > 0, "the run is long enough to tick");
        assert_eq!(format!("{plain:?}"), format!("{sampled:?}"));
    }
}
