//! The assembled APEnet+ card.
//!
//! The card is a [`Device`] state machine: the cluster layer feeds it
//! [`CardIn`] events and routes its [`CardOut`] effects (self-timers,
//! torus transmissions, host notifications). All datapath timing — GPU
//! read prefetching, Nios II task contention, TX FIFO occupancy, torus
//! serialization, RX processing — is computed here against the shared
//! PCIe fabric and GPU models.

use crate::config::{CardConfig, GpuReadMethod, GpuTxVersion, TxSinkMode};
use crate::coord::{Coord, FaultMap, LinkDir, RouteChoice, TorusDims};
use crate::gpu_tx::FetchPlan;
use crate::nios::{BufEntry, BufKind, BufList, GpuV2p, HostV2p, Nios, PageDesc};
use crate::packet::{fragments, ApePacket, MsgId};
use crate::torus::{LinkFrame, LinkMsg, Port, TorusLink, NUM_PORTS};
use apenet_gpu::cuda::CudaDevice;
use apenet_gpu::mem::Memory;
use apenet_gpu::GPU_PAGE_SIZE;
use apenet_obs::Registry;
use apenet_pcie::fabric::{DeviceId, Fabric};
use apenet_pcie::server::ReadServer;
use apenet_pcie::tlp::TlpKind;
use apenet_sim::bytes::PayloadSlice;
use apenet_sim::fault::{self, FaultInjector};
use apenet_sim::rng::Xoshiro256ss;
use apenet_sim::trace::{kind as tk, SharedSink, TracePayload};
use apenet_sim::{Bandwidth, ByteFifo, Device, Outbox, SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::rc::Rc;

/// A local GPU as seen by the card: its PCIe endpoint and device model.
#[derive(Clone)]
pub struct GpuHandle {
    /// The GPU's endpoint on the host PCIe fabric.
    pub pcie_dev: DeviceId,
    /// The device model (memory, P2P engine, …).
    pub cuda: Rc<RefCell<CudaDevice>>,
}

/// The firmware-visible registration state (BUF_LIST + V2P maps), shared
/// between the card and the host driver: the driver populates it during
/// buffer registration, the RX datapath consults it per packet.
#[derive(Default)]
pub struct Firmware {
    /// The registered-buffer list with its linear traversal cost.
    pub buf_list: BufList,
    /// Host virtual-to-physical map.
    pub host_v2p: HostV2p,
    /// One 4-level page table per local GPU.
    pub gpu_v2p: Vec<GpuV2p>,
}

impl Firmware {
    /// Create firmware state for a card with `n_gpus` local GPUs.
    pub fn new(n_gpus: usize) -> Self {
        Firmware {
            buf_list: BufList::new(),
            host_v2p: HostV2p::new(),
            gpu_v2p: (0..n_gpus).map(|_| GpuV2p::new()).collect(),
        }
    }

    /// Fallible host registration: a full BUF_LIST rejects the request
    /// before any V2P state is touched, so the host can unregister a
    /// buffer and retry.
    pub fn try_register_host(&mut self, vaddr: u64, len: u64, pid: u32) -> Option<usize> {
        if self.buf_list.is_full() {
            return None;
        }
        for page in (vaddr..vaddr + len.max(1)).step_by(apenet_gpu::HOST_PAGE_SIZE as usize) {
            self.host_v2p.insert(page, page); // identity "physical" model
        }
        self.buf_list.try_register(BufEntry {
            vaddr,
            len,
            kind: BufKind::Host,
            pid,
        })
    }

    /// Fallible GPU registration (see [`Firmware::try_register_host`]).
    pub fn try_register_gpu(
        &mut self,
        gpu: apenet_gpu::GpuId,
        vaddr: u64,
        len: u64,
        pid: u32,
    ) -> Option<usize> {
        if self.buf_list.is_full() {
            return None;
        }
        let table = &mut self.gpu_v2p[gpu.0 as usize];
        let first = vaddr / GPU_PAGE_SIZE;
        let last = (vaddr + len.max(1) - 1) / GPU_PAGE_SIZE;
        for p in first..=last {
            table.insert(
                p * GPU_PAGE_SIZE,
                PageDesc {
                    phys: p * GPU_PAGE_SIZE,
                    token: 0xA9E0_0000 | gpu.0 as u64,
                },
            );
        }
        self.buf_list.try_register(BufEntry {
            vaddr,
            len,
            kind: BufKind::Gpu(gpu),
            pid,
        })
    }
}

/// Everything the card shares with the rest of its host.
#[derive(Clone)]
pub struct CardShared {
    /// The host PCIe fabric.
    pub fabric: Rc<RefCell<Fabric>>,
    /// The card's endpoint on that fabric.
    pub nic_dev: DeviceId,
    /// The host-memory target endpoint.
    pub hostmem_dev: DeviceId,
    /// Host memory contents.
    pub hostmem: Rc<RefCell<Memory>>,
    /// Host-memory read completer (2.4 GB/s in Table I).
    pub host_read: Rc<RefCell<ReadServer>>,
    /// Local GPUs.
    pub gpus: Vec<GpuHandle>,
    /// Registration state.
    pub firmware: Rc<RefCell<Firmware>>,
}

/// A TX request descriptor pushed by the host driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxDesc {
    /// Message id.
    pub msg: MsgId,
    /// Destination node.
    pub dst: Coord,
    /// Destination UVA address.
    pub dst_vaddr: u64,
    /// Message length in bytes.
    pub len: u64,
    /// Source UVA address.
    pub src_addr: u64,
    /// Source buffer kind.
    pub src_kind: BufKind,
}

/// A GET (RDMA-Read) request descriptor pushed by the host driver: ask
/// the card at `peer` to stream `len` bytes starting at its local
/// `peer_vaddr` back into this node's buffer at `local_vaddr`. The
/// requester's RX side completes the message exactly like an inbound
/// PUT, so the watchdog, dedup and fault planes all compose unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetDesc {
    /// Message id (requester-assigned; the reply stream carries it).
    pub msg: MsgId,
    /// The node whose memory is read.
    pub peer: Coord,
    /// Responder-local UVA address of the range to read.
    pub peer_vaddr: u64,
    /// Bytes to read.
    pub len: u64,
    /// Requester-local UVA address the reply lands at.
    pub local_vaddr: u64,
}

/// Sentinel TX-job id for GET request headers: they ride the TX FIFO
/// and the link layer like staged packets but belong to no fetch job —
/// the requester's completion is the *reply* delivery, not a TxDone.
const GET_REQ_JOB: u32 = u32::MAX;

/// Sentinel TX-job id for congestion-notification (CNP) echo frames:
/// header-only packets from the overload plane that ride the TX FIFO and
/// link layer like GET requests — no fetch job, no TxComplete.
const ECHO_JOB: u32 = u32::MAX - 1;

/// Events consumed by the card.
#[derive(Debug, Clone)]
pub enum CardIn {
    /// The host driver posts a transmission.
    TxSubmit(TxDesc),
    /// The host driver posts a one-sided GET (remote read).
    GetSubmit(GetDesc),
    /// A verified GET request finished its responder-side Nios decode +
    /// BUF_LIST lookup; start the reply TX job streaming the range back.
    GetServe {
        /// The reply transmission (destination = the requester).
        desc: TxDesc,
    },
    /// A link-layer frame (data or ACK/NAK credit) arrives on `port` —
    /// a torus ingress direction or the internal loop-back path.
    LinkRx {
        /// Ingress port.
        port: Port,
        /// The frame.
        msg: LinkMsg,
    },
    /// The retransmit timer of `port` fired. Stale epochs are ignored:
    /// the epoch counter bumps whenever the window advances.
    LinkTimeout {
        /// The transmitting port whose timer fired.
        port: Port,
        /// Timer epoch at arming time.
        epoch: u64,
    },
    /// Data for TX job `job` arrived from the source memory.
    FetchArrived {
        /// TX job id.
        job: u32,
        /// Offset within the message.
        offset: u64,
        /// Bytes arrived.
        len: u32,
    },
    /// A staged packet finished its Nios bookkeeping and may enter the FIFO.
    PushReady {
        /// TX job id.
        job: u32,
        /// The sealed packet.
        packet: ApePacket,
    },
    /// The TX FIFO head finished serializing; advance the drain.
    DrainNext,
    /// Administrative hard kill of `port`'s cable, scheduled by chaos
    /// plans at a chosen simulated time (both cable endpoints get one).
    /// The port immediately stops carrying traffic in both directions;
    /// *detecting* that is the keepalive plane's job.
    AdminLinkDown {
        /// The killed port.
        port: Port,
    },
    /// The host reaped `n` entries from the RX event ring, freeing slots
    /// for held-back completions (bounded-ring configurations only).
    RxRingPop {
        /// Entries reaped.
        n: u32,
    },
}

/// Typed failure effects: conditions that used to be panics or silent
/// drops, surfaced as events the host side can observe. Each is also
/// mirrored in a [`CardStats`] counter and a [`metrics`] id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CardError {
    /// A torus port was declared dead (keepalive escalation or a
    /// neighbour's `LinkDown` about a shared cable).
    LinkDead {
        /// The dead port's direction.
        dir: LinkDir,
    },
    /// A packet was dropped because no usable route to `dst` remains:
    /// both arcs of a ring are cut, or the direction is unwired.
    Unreachable {
        /// The message the dropped packet belonged to.
        msg: MsgId,
        /// Its destination node.
        dst: Coord,
    },
    /// The RX event ring is full: the completion for `msg` is held back
    /// (never lost) until the host pops entries.
    RxRingFull {
        /// The backpressured message.
        msg: MsgId,
    },
}

impl std::fmt::Display for CardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CardError::LinkDead { dir } => write!(f, "torus link {dir:?} declared dead"),
            CardError::Unreachable { msg, dst } => write!(
                f,
                "no usable route to {dst:?} for message {}/{}",
                msg.src_rank, msg.seq
            ),
            CardError::RxRingFull { msg } => write!(
                f,
                "RX event ring full; completion of message {}/{} held back",
                msg.src_rank, msg.seq
            ),
        }
    }
}

impl std::error::Error for CardError {}

/// Effects produced by the card, routed by the cluster layer.
#[derive(Debug, Clone)]
pub enum CardOut {
    /// Deliver back to this card after the attached delay.
    ToSelf(CardIn),
    /// A link-layer frame leaves on the torus link in direction `dir`;
    /// for data frames the delay already accounts for serialization and
    /// cable latency, for ACK/NAK credits (out-of-band control symbols)
    /// it is the cable latency alone.
    TorusSend {
        /// Outgoing link direction.
        dir: LinkDir,
        /// The frame.
        msg: LinkMsg,
    },
    /// A complete message landed in a local buffer (RX completion event).
    Delivered {
        /// Message id.
        msg: MsgId,
        /// Destination address it landed at.
        dst_vaddr: u64,
        /// Message length.
        len: u64,
    },
    /// The TX side finished fetching and enqueuing a message.
    TxComplete {
        /// Message id.
        msg: MsgId,
    },
    /// A typed failure effect (dead link, unreachable destination, RX
    /// event-ring backpressure) — failures are visible, never silent.
    Error(CardError),
    /// The overload plane's congestion echo reached `msg`'s source card:
    /// the host-side pacer shrinks that destination's window. Only ever
    /// emitted while the plane is armed and a high-water mark tripped.
    EcnEcho {
        /// The marked message.
        msg: MsgId,
    },
}

/// Per-port link-layer counters: retransmission activity and injected
/// degradation, the raw material of the effective-bandwidth reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Data frames put on the wire (first transmissions + replays).
    pub data_frames: u64,
    /// Wire bytes serialized onto the port (header + payload + CRC for
    /// every data frame, replays included). Cumulative, so a sampler
    /// can turn deltas into per-interval link utilization.
    pub wire_bytes: u64,
    /// Data frames replayed by go-back-N (NAK- or timeout-triggered).
    pub retransmits: u64,
    /// Retransmit-timer expirations that triggered a replay.
    pub timeouts: u64,
    /// NAKs sent by this port's receive side.
    pub naks_sent: u64,
    /// Duplicate data frames discarded (and re-ACKed) on receive.
    pub dup_frames: u64,
    /// Frames corrupted by the port's fault injector.
    pub injected_corrupt: u64,
    /// Frames (data or control) eaten by the port's fault injector.
    pub injected_drops: u64,
    /// Stall windows inserted by the port's fault injector.
    pub injected_stalls: u64,
    /// Total injected stall time in picoseconds.
    pub stall_ps: u64,
    /// Frames dropped on CRC failure (kill-switch mode only; with
    /// retransmission on, CRC failures turn into NAKs instead).
    pub crc_dropped: u64,
}

impl LinkStats {
    /// True when the port saw no retransmission activity and no injected
    /// damage — what every port of a healthy run must report.
    pub fn is_clean(&self) -> bool {
        self.retransmits == 0
            && self.timeouts == 0
            && self.naks_sent == 0
            && self.dup_frames == 0
            && self.injected_corrupt == 0
            && self.injected_drops == 0
            && self.injected_stalls == 0
            && self.stall_ps == 0
            && self.crc_dropped == 0
    }
}

/// Stable metric ids for the card's link-reliability counters in the
/// observability registry (see `apenet-obs`). Values are the per-port
/// [`LinkStats`] fields summed across ports; all-zero on clean runs — a
/// fault-free simulation never replays, NAKs, or stalls.
pub mod metrics {
    /// Data frames replayed by go-back-N.
    pub const RETRANSMITS: &str = "link.retransmits";
    /// Retransmit-timer expirations that triggered a replay.
    pub const TIMEOUTS: &str = "link.timeouts";
    /// NAKs sent.
    pub const NAKS_SENT: &str = "link.naks_sent";
    /// Duplicate data frames discarded on receive.
    pub const DUP_FRAMES: &str = "link.dup_frames";
    /// Frames corrupted by fault injectors.
    pub const INJECTED_CORRUPT: &str = "link.injected_corrupt";
    /// Frames eaten by fault injectors.
    pub const INJECTED_DROPS: &str = "link.injected_drops";
    /// Stall windows inserted by fault injectors.
    pub const INJECTED_STALLS: &str = "link.injected_stalls";
    /// Total injected stall time in picoseconds.
    pub const STALL_PS: &str = "link.stall_ps";
    /// Frames lost to CRC failure (kill-switch mode only).
    pub const CRC_DROPPED: &str = "link.crc_dropped";
    /// Ports declared dead (keepalive escalation or a neighbour's
    /// link-state notification about a shared cable).
    pub const LINK_DEAD: &str = "link.dead";
    /// Routing decisions that detoured off the strict dimension-order
    /// direction to avoid a dead link.
    pub const ROUTE_DETOUR: &str = "route.detour";
    /// Packets dropped because both arcs of a ring were cut.
    pub const ROUTE_UNREACHABLE: &str = "route.unreachable_drops";
    /// Frames moved off a dead port's replay/pending queues onto detours.
    pub const ROUTE_REQUEUED: &str = "route.requeued";
    /// Duplicate fragments suppressed end-to-end (a detour re-delivered a
    /// fragment whose first copy arrived before the cable died).
    pub const RX_DUP_FRAGMENTS: &str = "rx.dup_fragments";
    /// Completions held back by RX event-ring backpressure.
    pub const RX_RING_STALL: &str = "rx.ring_stall";
    /// GET requests injected by the local host (requester side).
    pub const GET_REQUESTS: &str = "get.requests";
    /// GET requests served (reply TX job started) by this card.
    pub const GET_SERVED: &str = "get.served";
    /// GET requests dropped because no registered buffer covered the
    /// requested range (the requester's watchdog recovers or escalates).
    pub const GET_UNMATCHED: &str = "get.unmatched";
    /// Duplicate GET requests suppressed while the first reply job was
    /// still streaming (a watchdog reissue racing a slow reply).
    pub const GET_DUP_REQUESTS: &str = "get.dup_requests";
    /// Data frames ECN-marked because an egress port queue (or the RX
    /// event ring at delivery) crossed the overload high-water mark.
    pub const ECN_MARKED: &str = "ecn.marked";
    /// Congestion echoes emitted for marked messages (CNP frames sent
    /// back to the source, or local echoes for self-sourced messages).
    pub const ECN_ECHOED: &str = "ecn.echoed";

    /// Every link-reliability id, in reporting order.
    pub const ALL: [&str; 21] = [
        RETRANSMITS,
        TIMEOUTS,
        NAKS_SENT,
        DUP_FRAMES,
        INJECTED_CORRUPT,
        INJECTED_DROPS,
        INJECTED_STALLS,
        STALL_PS,
        CRC_DROPPED,
        LINK_DEAD,
        ROUTE_DETOUR,
        ROUTE_UNREACHABLE,
        ROUTE_REQUEUED,
        RX_DUP_FRAGMENTS,
        RX_RING_STALL,
        GET_REQUESTS,
        GET_SERVED,
        GET_UNMATCHED,
        GET_DUP_REQUESTS,
        ECN_MARKED,
        ECN_ECHOED,
    ];
}

/// Datapath counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CardStats {
    /// Bytes fetched from TX source memory (host or GPU).
    pub tx_bytes_fetched: u64,
    /// Packets injected into the TX FIFO.
    pub tx_packets: u64,
    /// Packets extracted for local RX.
    pub rx_packets: u64,
    /// Payload bytes written to local destination buffers.
    pub rx_bytes: u64,
    /// Transit packets forwarded by the router.
    pub forwarded: u64,
    /// Data frames replayed by the link layer, all ports combined.
    pub retransmits: u64,
    /// Frames lost to CRC failure (kill-switch mode only).
    pub crc_dropped: u64,
    /// Packets dropped because no registered buffer matched.
    pub rx_unmatched: u64,
    /// Ports this card declared dead (keepalive escalation or a
    /// neighbour's notification about a shared cable).
    pub links_dead: u64,
    /// Routing decisions that detoured off the strict dimension-order
    /// direction to avoid a dead link.
    pub detours: u64,
    /// Packets dropped because both arcs of a ring were cut.
    pub unreachable_drops: u64,
    /// Frames moved off a dead port's replay/pending queues onto detours.
    pub requeued: u64,
    /// Duplicate fragments suppressed end-to-end after a detour.
    pub rx_dup_fragments: u64,
    /// Completions held back because the RX event ring was full.
    pub rx_ring_stalls: u64,
    /// GET requests injected by the local host (requester side).
    pub get_requests: u64,
    /// GET requests served (reply TX job started) by this card.
    pub get_served: u64,
    /// GET requests dropped because no registered buffer covered the
    /// requested range.
    pub get_unmatched: u64,
    /// Duplicate GET requests suppressed while the first reply job was
    /// still streaming.
    pub get_dup_requests: u64,
    /// Frames/messages ECN-marked by the overload plane (0 with the
    /// plane off — marking is its only card-side side effect).
    pub ecn_marked: u64,
    /// Congestion echoes emitted for marked messages.
    pub ecn_echoed: u64,
    /// Per-port link-layer counters (six torus directions + loop-back).
    pub links: [LinkStats; NUM_PORTS],
}

impl CardStats {
    /// Per-port link counters summed across all ports.
    pub fn link_sums(&self) -> LinkStats {
        let mut t = LinkStats::default();
        for l in &self.links {
            t.data_frames += l.data_frames;
            t.wire_bytes += l.wire_bytes;
            t.retransmits += l.retransmits;
            t.timeouts += l.timeouts;
            t.naks_sent += l.naks_sent;
            t.dup_frames += l.dup_frames;
            t.injected_corrupt += l.injected_corrupt;
            t.injected_drops += l.injected_drops;
            t.injected_stalls += l.injected_stalls;
            t.stall_ps += l.stall_ps;
            t.crc_dropped += l.crc_dropped;
        }
        t
    }
}

/// Point-in-time occupancy of one port's go-back-N transmit side, plus
/// its cumulative wire-byte counter (see [`Card::occupancy`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct PortOccupancy {
    /// Unacknowledged frames held in the replay buffer.
    pub replay: usize,
    /// Frames parked waiting for window credit.
    pub pending: usize,
    /// Sequence-number window currently in flight (`next_seq - base`).
    pub in_flight: u64,
    /// Cumulative wire bytes serialized onto this port.
    pub wire_bytes: u64,
}

/// Point-in-time occupancy of every card-side queue and buffer — the
/// occupancy sampler's per-tick read (see [`Card::occupancy`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct CardOccupancy {
    /// Bytes resident in the TX packet FIFO.
    pub tx_fifo_bytes: u64,
    /// Packets resident in the TX packet FIFO.
    pub tx_fifo_packets: usize,
    /// Packets parked in the header-FIFO elasticity queue.
    pub push_wait: usize,
    /// Bytes staged by Nios bookkeeping but not yet pushed.
    pub staged_pending: u64,
    /// Bytes claimed by in-flight source-memory reads.
    pub outstanding_total: u64,
    /// Open TX jobs (messages still fetching or draining).
    pub tx_jobs: usize,
    /// Partially reassembled RX messages.
    pub rx_partial_msgs: usize,
    /// RX event-ring entries the host has not reaped.
    pub rx_ring_used: u32,
    /// Completions held back by a full RX event ring.
    pub rx_ring_held: usize,
    /// Per-port link-layer occupancy.
    pub ports: [PortOccupancy; NUM_PORTS],
}

struct TxJob {
    desc: TxDesc,
    plan: FetchPlan,
    pushed: u64,
    /// This job streams a GET reply: its completion is silent (the
    /// responder host never posted it — the *requester's* RX delivery is
    /// the completion), and it suppresses duplicate serves of the same
    /// request while streaming.
    get_reply: bool,
}

/// Reassembly state of one partially received message.
#[derive(Debug)]
struct RxProgress {
    /// Payload bytes accepted so far.
    bytes: u64,
    /// Lowest fragment `dst_vaddr` seen (the message base).
    base: u64,
    /// Fragment addresses already accepted — end-to-end deduplication for
    /// the fault plane: a requeued detour can re-deliver a fragment whose
    /// first copy crossed the cable just before it died.
    got: BTreeSet<u64>,
    /// Any accepted fragment carried the ECN congestion-experienced
    /// mark; the completed message then owes its source a CNP echo.
    marked: bool,
}

/// Transmit side of one port's go-back-N channel.
#[derive(Debug, Default)]
struct LinkTxState {
    /// Next sequence number to assign.
    next_seq: u64,
    /// Lowest unacknowledged sequence number.
    base: u64,
    /// Clean (pre-corruption) copies of the unacknowledged frames
    /// `base..next_seq`, in order. Clones only bump payload refcounts, so
    /// the replay buffer costs no byte copies.
    replay: VecDeque<ApePacket>,
    /// Frames waiting for window credit, with their from-drain flag (a
    /// from-drain frame owes a `DrainNext` when it finally serializes).
    pending: VecDeque<(ApePacket, bool)>,
    /// Timer epoch; bumped whenever the window advances so in-flight
    /// timer events for the old window are ignored.
    epoch: u64,
    /// A timer event for the current epoch is outstanding.
    timer_live: bool,
    /// Consecutive barren timeouts (drives exponential backoff).
    consec_timeouts: u32,
}

/// Receive side of one port's go-back-N channel.
#[derive(Debug, Default)]
struct LinkRxState {
    /// Next expected sequence number.
    expect: u64,
    /// Sequence number we already NAKed (suppresses a NAK storm while a
    /// burst of in-flight frames behind one lost frame arrives); cleared
    /// when `expect` advances, so the retransmit timeout remains the
    /// backstop if the replayed frame is damaged again.
    nakked: Option<u64>,
}

/// The APEnet+ card model.
pub struct Card {
    /// This card's torus coordinates.
    pub coord: Coord,
    /// Torus dimensions.
    pub dims: TorusDims,
    /// Calibration constants.
    pub cfg: CardConfig,
    shared: CardShared,
    /// The Nios II task server.
    pub nios: Nios,
    links_out: [Option<Rc<RefCell<TorusLink>>>; 6],
    tx_jobs: HashMap<u32, TxJob>,
    next_job: u32,
    /// GPU-source jobs are processed one at a time by the GPU_P2P_TX
    /// engine; this queue holds the waiting ones.
    gpu_job_queue: VecDeque<u32>,
    gpu_job_active: Option<u32>,
    tx_fifo: ByteFifo<ApePacket>,
    push_wait: VecDeque<(u32, ApePacket)>,
    tx_since_fault: u32,
    staged_pending: u64,
    outstanding_total: u64,
    draining: bool,
    rx_msgs: HashMap<MsgId, RxProgress>,
    /// Messages fully delivered — the other half of the end-to-end
    /// duplicate suppression: a detour can re-deliver a fragment after
    /// its message already completed.
    rx_done: HashSet<MsgId>,
    /// RX event-ring occupancy: completions the host has not reaped yet
    /// (only tracked when `cfg.rx_ring_entries` bounds the ring).
    rx_ring_used: u32,
    /// Completions held back by a full RX event ring, with the time the
    /// notification write finished: `(note_done, msg, dst_vaddr, len)`.
    rx_ring_held: VecDeque<(SimTime, MsgId, u64, u64)>,
    /// Physically severed cables (admin kill): TX is swallowed, RX is
    /// ignored. The card does not *know* — detection is the keepalive
    /// plane's job.
    cable_cut: [bool; NUM_PORTS],
    /// Ports this card has declared dead (own keepalive escalation or a
    /// neighbour's `LinkDown` about a shared cable). Dead ports never
    /// re-arm timers, so the event stream stays bounded.
    port_dead: [bool; NUM_PORTS],
    /// Unanswered keepalive probes per port; any ingress traffic resets.
    probes: [u32; NUM_PORTS],
    /// Nonce source for keepalive pings.
    ping_nonce: u64,
    /// The mesh-wide dead-link map this card has converged on.
    fault_map: FaultMap,
    link_tx: [LinkTxState; NUM_PORTS],
    link_rx: [LinkRxState; NUM_PORTS],
    injectors: [Option<FaultInjector>; NUM_PORTS],
    /// Any fault source is configured (legacy periodic corruption or an
    /// injector on some port). When false, no retransmit timers are ever
    /// armed, so healthy runs schedule zero extra timing-relevant events.
    fault_active: bool,
    /// Seeded RNG for the legacy periodic corruption's position/mask.
    fault_rng: Xoshiro256ss,
    /// Span-correlated lifecycle trace sink (null by default; see
    /// [`Card::set_trace`]). Observation only — records never schedule
    /// events, so traced runs keep golden timing.
    trace: SharedSink,
    /// Datapath counters.
    pub stats: CardStats,
}

impl Card {
    /// Build a card at `coord` on a torus of `dims`.
    pub fn new(coord: Coord, dims: TorusDims, cfg: CardConfig, shared: CardShared) -> Self {
        let fifo = ByteFifo::with_default_watermark(cfg.tx_fifo_bytes);
        let coord_salt = ((coord.x as u64) << 16) | ((coord.y as u64) << 8) | coord.z as u64;
        let fault_active = cfg.tx_bit_error_every.is_some();
        let fault_rng = Xoshiro256ss::seed_from(fault::derive_seed(cfg.fault_seed, coord_salt));
        Card {
            coord,
            dims,
            cfg,
            shared,
            nios: Nios::new(),
            links_out: [None, None, None, None, None, None],
            tx_jobs: HashMap::new(),
            next_job: 0,
            gpu_job_queue: VecDeque::new(),
            gpu_job_active: None,
            tx_fifo: fifo,
            push_wait: VecDeque::new(),
            tx_since_fault: 0,
            staged_pending: 0,
            outstanding_total: 0,
            draining: false,
            rx_msgs: HashMap::new(),
            rx_done: HashSet::new(),
            rx_ring_used: 0,
            rx_ring_held: VecDeque::new(),
            cable_cut: [false; NUM_PORTS],
            port_dead: [false; NUM_PORTS],
            probes: [0; NUM_PORTS],
            ping_nonce: 0,
            fault_map: FaultMap::new(),
            link_tx: std::array::from_fn(|_| LinkTxState::default()),
            link_rx: std::array::from_fn(|_| LinkRxState::default()),
            injectors: std::array::from_fn(|_| None),
            fault_active,
            fault_rng,
            trace: SharedSink::null(),
            stats: CardStats::default(),
        }
    }

    /// Attach a lifecycle trace sink: every RDMA message flowing through
    /// this card records span-correlated post/fetch/frame/delivery
    /// events into it. The default null sink costs one branch per site.
    pub fn set_trace(&mut self, sink: SharedSink) {
        self.trace = sink;
    }

    /// Publish this card's link-reliability counters into `reg` under the
    /// [`metrics`] ids. Creates every id (at zero) even on clean runs so
    /// consumers see a stable key set.
    pub fn publish_link_metrics(&self, reg: &Registry) {
        let t = self.stats.link_sums();
        reg.add(metrics::RETRANSMITS, t.retransmits);
        reg.add(metrics::TIMEOUTS, t.timeouts);
        reg.add(metrics::NAKS_SENT, t.naks_sent);
        reg.add(metrics::DUP_FRAMES, t.dup_frames);
        reg.add(metrics::INJECTED_CORRUPT, t.injected_corrupt);
        reg.add(metrics::INJECTED_DROPS, t.injected_drops);
        reg.add(metrics::INJECTED_STALLS, t.injected_stalls);
        reg.add(metrics::STALL_PS, t.stall_ps);
        reg.add(metrics::CRC_DROPPED, t.crc_dropped);
        reg.add(metrics::LINK_DEAD, self.stats.links_dead);
        reg.add(metrics::ROUTE_DETOUR, self.stats.detours);
        reg.add(metrics::ROUTE_UNREACHABLE, self.stats.unreachable_drops);
        reg.add(metrics::ROUTE_REQUEUED, self.stats.requeued);
        reg.add(metrics::RX_DUP_FRAGMENTS, self.stats.rx_dup_fragments);
        reg.add(metrics::RX_RING_STALL, self.stats.rx_ring_stalls);
        reg.add(metrics::GET_REQUESTS, self.stats.get_requests);
        reg.add(metrics::GET_SERVED, self.stats.get_served);
        reg.add(metrics::GET_UNMATCHED, self.stats.get_unmatched);
        reg.add(metrics::GET_DUP_REQUESTS, self.stats.get_dup_requests);
        reg.add(metrics::ECN_MARKED, self.stats.ecn_marked);
        reg.add(metrics::ECN_ECHOED, self.stats.ecn_echoed);
    }

    /// Wire the outgoing torus link for `dir`.
    pub fn set_link(&mut self, dir: LinkDir, link: Rc<RefCell<TorusLink>>) {
        self.links_out[dir.index()] = Some(link);
    }

    /// Attach a fault injector to the transmit side of `port`. Arms the
    /// retransmit-timer machinery for the whole card.
    pub fn set_fault_injector(&mut self, port: Port, inj: FaultInjector) {
        self.fault_active = true;
        self.injectors[port.index()] = Some(inj);
    }

    /// Arm the fault plane without attaching an injector: admin kill
    /// schedules need windows and retransmit timers live from the start,
    /// exactly like injected chaos, or the first in-flight frames on a
    /// killed cable would never time out.
    pub fn arm_fault_plane(&mut self) {
        self.fault_active = true;
    }

    /// The mesh-wide dead-link map this card has converged on (empty on
    /// healthy runs; tests assert convergence across cards through it).
    pub fn fault_map(&self) -> &FaultMap {
        &self.fault_map
    }

    /// True when no datapath or link-layer state is in flight: no TX
    /// jobs, empty staging and TX FIFOs, every port's replay and pending
    /// queues drained, and no partially received messages. The chaos
    /// suite asserts this after every run — leaked state here means lost
    /// or phantom traffic.
    pub fn quiesced(&self) -> bool {
        self.tx_jobs.is_empty()
            && self.push_wait.is_empty()
            && self.tx_fifo.is_empty()
            && self.rx_msgs.is_empty()
            && self.rx_ring_held.is_empty()
            && self
                .link_tx
                .iter()
                .all(|st| st.replay.is_empty() && st.pending.is_empty())
    }

    /// The shared host/PCIe/GPU handles.
    pub fn shared(&self) -> &CardShared {
        &self.shared
    }

    /// Read-only snapshot of every queue and buffer level on the card —
    /// what the occupancy sampler records each tick. Pure reads over
    /// existing state: taking a snapshot can never perturb scheduling.
    pub fn occupancy(&self) -> CardOccupancy {
        CardOccupancy {
            tx_fifo_bytes: self.tx_fifo.occupied(),
            tx_fifo_packets: self.tx_fifo.len(),
            push_wait: self.push_wait.len(),
            staged_pending: self.staged_pending,
            outstanding_total: self.outstanding_total,
            tx_jobs: self.tx_jobs.len(),
            rx_partial_msgs: self.rx_msgs.len(),
            rx_ring_used: self.rx_ring_used,
            rx_ring_held: self.rx_ring_held.len(),
            ports: std::array::from_fn(|pi| PortOccupancy {
                replay: self.link_tx[pi].replay.len(),
                pending: self.link_tx[pi].pending.len(),
                in_flight: self.link_tx[pi].next_seq - self.link_tx[pi].base,
                wire_bytes: self.stats.links[pi].wire_bytes,
            }),
        }
    }

    /// Free downstream space available for new read requests: FIFO space
    /// not yet claimed by in-flight data. (Per-packet Nios bookkeeping for
    /// the *next* window overlaps the data arrival of the current one, so
    /// staged-but-unpushed bytes do not gate issuing; the small overlap
    /// spill is absorbed by `push_wait`, which stands in for the header
    /// FIFO elasticity of the real datapath.)
    fn issue_budget(&self) -> u64 {
        self.tx_fifo.free().saturating_sub(self.outstanding_total)
    }

    /// Start the next queued GPU-source job, paying the per-message
    /// engine setup (the Fig. 3 initial delay).
    fn activate_next_gpu_job(&mut self, now: SimTime, out: &mut Outbox<CardOut>) {
        debug_assert!(self.gpu_job_active.is_none());
        let Some(job_id) = self.gpu_job_queue.pop_front() else {
            return;
        };
        self.gpu_job_active = Some(job_id);
        let (_s, e) = self.nios.run(now, self.cfg.tx_gpu_setup());
        let ready = e + self.cfg.tx_gpu_hw_setup();
        // Re-enter through a self event at `ready` (len 0 = kick).
        out.push(
            ready.since(now),
            CardOut::ToSelf(CardIn::FetchArrived {
                job: job_id,
                offset: 0,
                len: 0,
            }),
        );
    }

    /// Issue as many source reads as the engine generation allows.
    fn issue_fetches(&mut self, job_id: u32, now: SimTime, out: &mut Outbox<CardOut>) {
        // GPU jobs may only fetch while they hold the engine.
        if self
            .tx_jobs
            .get(&job_id)
            .is_some_and(|j| matches!(j.desc.src_kind, BufKind::Gpu(_)))
            && self.gpu_job_active != Some(job_id)
        {
            return;
        }
        loop {
            let budget = self.issue_budget();
            let almost_full = self.tx_fifo.almost_full();
            let Some(job) = self.tx_jobs.get_mut(&job_id) else {
                return;
            };
            let Some(n) = job.plan.next_issue(budget, almost_full) else {
                return;
            };
            let offset = job.plan.requested;
            let src_kind = job.desc.src_kind;
            let span = job.desc.msg.span();
            // v1 pays Nios software time per request *before* issuing it.
            let req_ready =
                if matches!(src_kind, BufKind::Gpu(_)) && self.cfg.gpu_tx == GpuTxVersion::V1 {
                    let cost = self.cfg.tx_v1_per_chunk;
                    self.nios.run(now, cost).1
                } else {
                    now
                };
            let job = self.tx_jobs.get_mut(&job_id).expect("job exists");
            let arrive = match src_kind {
                BufKind::Gpu(_) => {
                    let gpu = match src_kind {
                        BufKind::Gpu(id) => self.shared.gpus[id.0 as usize].clone(),
                        BufKind::Host => unreachable!(),
                    };
                    // BAR1 reads need the source range mapped into the
                    // aperture first — once per buffer, and expensive
                    // ("a full reconfiguration of the GPU").
                    let mut req_ready = req_ready;
                    let src = job.desc.src_addr + offset;
                    if self.cfg.gpu_read == GpuReadMethod::Bar1 {
                        let mut cuda = gpu.cuda.borrow_mut();
                        if !cuda.bar1.is_mapped(job.desc.src_addr, job.desc.len.max(1)) {
                            let cost = cuda
                                .bar1
                                .map(job.desc.src_addr, job.desc.len.max(1))
                                .expect("BAR1 aperture exhausted");
                            req_ready += cost;
                        }
                    }
                    let mut fabric = self.shared.fabric.borrow_mut();
                    fabric.set_span(Some(span));
                    // Read request toward the GPU...
                    let req = fabric.send_tlp(
                        req_ready,
                        self.shared.nic_dev,
                        gpu.pcie_dev,
                        TlpKind::MemRead,
                        0,
                    );
                    // ...served by the P2P engine or the BAR1 aperture...
                    let cpl = match self.cfg.gpu_read {
                        GpuReadMethod::P2p => gpu.cuda.borrow_mut().p2p.serve_read(req.arrive, n),
                        GpuReadMethod::Bar1 => gpu
                            .cuda
                            .borrow_mut()
                            .bar1
                            .serve_read(req.arrive, src, n)
                            .expect("BAR1 range mapped above"),
                    };
                    // ...completion data streams back over the fabric.
                    let st = fabric.send_stream(
                        cpl.first,
                        gpu.pcie_dev,
                        self.shared.nic_dev,
                        TlpKind::Completion,
                        n,
                        apenet_pcie::MAX_PAYLOAD,
                    );
                    fabric.set_span(None);
                    st.arrive.max(cpl.last)
                }
                BufKind::Host => {
                    let mut fabric = self.shared.fabric.borrow_mut();
                    fabric.set_span(Some(span));
                    let req = fabric.send_tlp(
                        req_ready,
                        self.shared.nic_dev,
                        self.shared.hostmem_dev,
                        TlpKind::MemRead,
                        0,
                    );
                    let cpl = self.shared.host_read.borrow_mut().serve(req.arrive, n);
                    let st = fabric.send_stream(
                        cpl.first,
                        self.shared.hostmem_dev,
                        self.shared.nic_dev,
                        TlpKind::Completion,
                        n,
                        apenet_pcie::MAX_PAYLOAD,
                    );
                    fabric.set_span(None);
                    st.arrive.max(cpl.last)
                }
            };
            job.plan.issued(n);
            self.outstanding_total += n;
            out.push(
                arrive.since(now),
                CardOut::ToSelf(CardIn::FetchArrived {
                    job: job_id,
                    offset,
                    len: n as u32,
                }),
            );
        }
    }

    /// Borrow `len` bytes of the job's source buffer as a refcounted
    /// slice. Packet fragments are ≤ 4 KB at page-aligned offsets within a
    /// page-aligned allocation, so this shares the backing page and copies
    /// nothing on the clean TX path.
    fn read_source(&self, job: &TxJob, offset: u64, len: u32) -> PayloadSlice {
        let addr = job.desc.src_addr + offset;
        match job.desc.src_kind {
            BufKind::Host => self
                .shared
                .hostmem
                .borrow_mut()
                .read_payload(addr, len as u64)
                .expect("TX source range was validated at registration"),
            BufKind::Gpu(id) => self.shared.gpus[id.0 as usize]
                .cuda
                .borrow_mut()
                .mem
                .read_payload(addr, len as u64)
                .expect("TX source range was validated at registration"),
        }
    }

    fn make_packet(&self, job: &TxJob, offset: u64, len: u32) -> ApePacket {
        let payload = if len == 0 {
            PayloadSlice::empty()
        } else {
            self.read_source(job, offset, len)
        };
        ApePacket::new(
            job.desc.dst,
            self.coord,
            job.desc.msg,
            job.desc.dst_vaddr + offset,
            job.desc.len,
            payload,
        )
    }

    /// Stage the packets of an arrived fetch through the per-packet Nios
    /// bookkeeping (GPU sources only; the kernel driver already did this
    /// work for host sources).
    fn stage_packets(
        &mut self,
        job_id: u32,
        offset: u64,
        len: u32,
        now: SimTime,
        out: &mut Outbox<CardOut>,
    ) {
        let Some(job) = self.tx_jobs.get(&job_id) else {
            return;
        };
        let gpu_src = matches!(job.desc.src_kind, BufKind::Gpu(_));
        let per_packet = self.cfg.tx_per_packet();
        // A zero-length fetch still sends one header-only packet.
        let pieces = fragments(len as u64)
            .map(|(o, n)| (offset + o, n))
            .chain((len == 0).then_some((0, 0)));
        for (off, n) in pieces {
            let ready = if gpu_src && self.cfg.gpu_tx != GpuTxVersion::V1 {
                // v1 already paid its Nios cost at request time.
                self.nios.run(now, per_packet).1
            } else {
                now
            };
            let job = self.tx_jobs.get(&job_id).expect("job exists");
            let packet = self.make_packet(job, off, n);
            out.push(
                ready.since(now),
                CardOut::ToSelf(CardIn::PushReady {
                    job: job_id,
                    packet,
                }),
            );
        }
    }

    /// Legacy fault injection: flip a payload bit in every Nth freshly
    /// transmitted packet when configured (models a marginal cable; the
    /// receiver's CRC must catch it). Position and mask come from the
    /// card's seeded fault RNG — a real marginal cable flips arbitrary
    /// bits, not always the middle one. Applies to loop-back traffic too.
    fn maybe_corrupt(&mut self, mut packet: ApePacket) -> ApePacket {
        if let Some(n) = self.cfg.tx_bit_error_every {
            self.tx_since_fault += 1;
            if self.tx_since_fault >= n && !packet.payload.is_empty() {
                self.tx_since_fault = 0;
                let idx = self.fault_rng.next_below(packet.payload.len() as u64) as usize;
                let mask = 1u8 << self.fault_rng.next_below(8);
                // Copy-on-write: only this fragment is duplicated; the
                // source buffer and sibling fragments stay shared.
                packet.payload.make_mut()[idx] ^= mask;
            }
        }
        packet
    }

    /// Hand a packet to the link layer of `port`. With retransmission on,
    /// the frame gets a sequence number and a replay-buffer slot (or
    /// queues for window credit); with the kill switch thrown it goes on
    /// the wire raw, exactly like the pre-reliability datapath.
    ///
    /// `ready` is the earliest serialization start (`now` from the TX
    /// FIFO drain, `now + router_forward` for transit packets);
    /// `from_drain` frames owe a `DrainNext` when they serialize.
    fn link_send(
        &mut self,
        port: Port,
        mut packet: ApePacket,
        ready: SimTime,
        now: SimTime,
        from_drain: bool,
        out: &mut Outbox<CardOut>,
    ) {
        // ECN-style marking: every hop a frame crosses checks its egress
        // port's queue depth (replay backlog + frames parked for window
        // credit) against the overload high-water mark. CNP echoes are
        // never marked — congestion must not breed congestion traffic.
        if let Some(ov) = self.cfg.overload {
            if !packet.is_cnp() && !packet.ecn {
                let st = &self.link_tx[port.index()];
                if (st.replay.len() + st.pending.len()) as u32 >= ov.port_highwater {
                    packet.mark_ecn();
                    self.stats.ecn_marked += 1;
                }
            }
        }
        if !self.cfg.link_retrans {
            self.transmit_data(port, 0, packet, ready, now, from_drain, false, out);
            return;
        }
        let pi = port.index();
        // The window is enforced only while fault injection is armed: on
        // a fault-free run nothing is ever lost, so holding frames back
        // buys no reliability but would defer link reservations to
        // ACK-arrival times and reorder them against competing port
        // users — shifting golden timing. ACKs still continuously clear
        // the replay buffer, which stays bounded by the in-flight count.
        let windowed = self.fault_active;
        let st = &mut self.link_tx[pi];
        if windowed
            && (!st.pending.is_empty() || st.next_seq - st.base >= self.cfg.link_window as u64)
        {
            st.pending.push_back((packet, from_drain));
            return;
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.replay.push_back(packet.clone());
        self.transmit_data(port, seq, packet, ready, now, from_drain, false, out);
        self.arm_timer(port, out);
    }

    /// Put one data frame on the wire: apply fault injection (legacy
    /// periodic corruption only on fresh transmissions — replays resend
    /// the clean replay-buffer copy), burn the serialization slot, and
    /// schedule the arrival unless the frame was dropped.
    #[allow(clippy::too_many_arguments)]
    fn transmit_data(
        &mut self,
        port: Port,
        seq: u64,
        packet: ApePacket,
        ready: SimTime,
        now: SimTime,
        from_drain: bool,
        is_retrans: bool,
        out: &mut Outbox<CardOut>,
    ) {
        let pi = port.index();
        let mut wire = if is_retrans {
            packet
        } else {
            self.maybe_corrupt(packet)
        };
        let mut ready = ready;
        let mut dropped = false;
        if let Some(inj) = self.injectors[pi].as_mut() {
            let fate = inj.data_frame();
            if let Some(d) = fate.stall {
                // A stall delays the serialization start; everything
                // behind the frame backs up naturally through the link's
                // busy window (or the loop-back drain).
                ready += d;
                self.stats.links[pi].injected_stalls += 1;
                self.stats.links[pi].stall_ps += d.as_ps();
            }
            if fate.drop {
                dropped = true;
                self.stats.links[pi].injected_drops += 1;
            } else if let Some(c) = fate.corrupt {
                if !wire.payload.is_empty() {
                    let idx = (c.pos % wire.payload.len() as u64) as usize;
                    wire.payload.make_mut()[idx] ^= c.mask;
                    self.stats.links[pi].injected_corrupt += 1;
                }
            }
        }
        self.stats.links[pi].data_frames += 1;
        self.stats.links[pi].wire_bytes += wire.wire_bytes();
        if is_retrans {
            self.stats.retransmits += 1;
            self.stats.links[pi].retransmits += 1;
        }
        if self.trace.enabled() {
            self.trace.record(
                ready,
                "card",
                tk::FRAME_TX,
                Some(wire.msg.span()),
                TracePayload::Frame {
                    seq,
                    wire: wire.wire_bytes(),
                    retrans: is_retrans,
                },
            );
        }
        match port {
            Port::Loopback => {
                let serialize = Bandwidth::from_gb_per_sec(4).time_for(wire.wire_bytes());
                let drain_at = ready + serialize;
                if !dropped {
                    let arrive = drain_at + self.cfg.loopback_transit;
                    out.push(
                        arrive.since(now),
                        CardOut::ToSelf(CardIn::LinkRx {
                            port: Port::Loopback,
                            msg: LinkMsg::Data(LinkFrame { seq, packet: wire }),
                        }),
                    );
                }
                if from_drain {
                    out.push(drain_at.since(now), CardOut::ToSelf(CardIn::DrainNext));
                }
            }
            Port::Link(dir) => {
                let Some(link) = self.links_out[dir.index()].as_ref().cloned() else {
                    // An unwired direction (a mis-built cluster) used to
                    // be a panic; surface it and keep the drain alive.
                    self.stats.unreachable_drops += 1;
                    out.push(
                        SimDuration::ZERO,
                        CardOut::Error(CardError::Unreachable {
                            msg: wire.msg,
                            dst: wire.dst,
                        }),
                    );
                    if from_drain {
                        out.push(SimDuration::ZERO, CardOut::ToSelf(CardIn::DrainNext));
                    }
                    return;
                };
                let slot = link.borrow_mut().reserve(ready, wire.wire_bytes());
                // A cut or declared-dead cable swallows the frame: the
                // SerDes still burns its serialization slot (the card
                // does not know yet), but nothing reaches the far end.
                let swallowed = dropped || self.cable_cut[pi] || self.port_dead[pi];
                if !swallowed {
                    out.push(
                        slot.arrive.since(now),
                        CardOut::TorusSend {
                            dir,
                            msg: LinkMsg::Data(LinkFrame { seq, packet: wire }),
                        },
                    );
                }
                if from_drain {
                    out.push(
                        slot.depart_end.since(now),
                        CardOut::ToSelf(CardIn::DrainNext),
                    );
                }
            }
        }
    }

    /// Emit an ACK/NAK credit on `port`, back toward the sender whose
    /// data arrives there. Control symbols ride the out-of-band control
    /// channel: they pay cable (or switch-transit) latency but occupy no
    /// data wire slots, so healthy-run data timing is untouched.
    fn send_control(&mut self, port: Port, msg: LinkMsg, out: &mut Outbox<CardOut>) {
        let pi = port.index();
        if self.cable_cut[pi] || self.port_dead[pi] {
            return; // the cable is gone: control symbols vanish with it
        }
        if let Some(inj) = self.injectors[pi].as_mut() {
            if inj.control_frame() {
                self.stats.links[pi].injected_drops += 1;
                return;
            }
        }
        match port {
            Port::Link(dir) => out.push(self.cfg.link_latency, CardOut::TorusSend { dir, msg }),
            Port::Loopback => out.push(
                self.cfg.loopback_transit,
                CardOut::ToSelf(CardIn::LinkRx {
                    port: Port::Loopback,
                    msg,
                }),
            ),
        }
    }

    /// Arm the retransmit timer of `port` if it has unacknowledged frames
    /// and no live timer. Timers exist only while fault injection is
    /// possible: a fault-free run never schedules one, so the reliability
    /// layer adds zero events to golden-timing runs.
    fn arm_timer(&mut self, port: Port, out: &mut Outbox<CardOut>) {
        if !self.fault_active || !self.cfg.link_retrans || self.port_dead[port.index()] {
            return;
        }
        let st = &mut self.link_tx[port.index()];
        if st.timer_live || st.replay.is_empty() {
            return;
        }
        st.timer_live = true;
        let shift = st.consec_timeouts.min(6);
        let delay = SimDuration::from_ps(self.cfg.link_rto.as_ps() << shift);
        out.push(
            delay,
            CardOut::ToSelf(CardIn::LinkTimeout {
                port,
                epoch: st.epoch,
            }),
        );
    }

    /// Release acknowledged frames `< upto` from the replay buffer.
    /// Returns true when the window advanced.
    fn release_acked(&mut self, port: Port, upto: u64) -> bool {
        let st = &mut self.link_tx[port.index()];
        if upto <= st.base {
            return false;
        }
        let acked = ((upto - st.base) as usize).min(st.replay.len());
        for _ in 0..acked {
            st.replay.pop_front();
        }
        st.base += acked as u64;
        st.consec_timeouts = 0;
        st.epoch += 1;
        st.timer_live = false;
        true
    }

    /// Cumulative ACK: free replay slots, then let queued frames use the
    /// new window credit.
    fn handle_ack(&mut self, port: Port, upto: u64, now: SimTime, out: &mut Outbox<CardOut>) {
        if !self.cfg.link_retrans {
            return;
        }
        if self.release_acked(port, upto) {
            self.flush_pending(port, now, out);
        }
        self.arm_timer(port, out);
    }

    /// NAK: the receiver is stuck at `expect`. Treat it as a cumulative
    /// ACK for everything below, then go-back-N replay the rest.
    fn handle_nak(&mut self, port: Port, expect: u64, now: SimTime, out: &mut Outbox<CardOut>) {
        if !self.cfg.link_retrans {
            return;
        }
        {
            let st = &mut self.link_tx[port.index()];
            if expect < st.base {
                return; // stale: already acknowledged past it
            }
        }
        self.release_acked(port, expect);
        self.replay_window(port, now, out);
        self.flush_pending(port, now, out);
        self.arm_timer(port, out);
    }

    /// Retransmit timer: if the epoch still matches (no progress since
    /// arming), replay the whole window. Recovers dropped data frames
    /// *and* dropped ACK/NAK credits.
    fn handle_timeout(&mut self, port: Port, epoch: u64, now: SimTime, out: &mut Outbox<CardOut>) {
        let pi = port.index();
        if self.port_dead[pi] {
            return; // retired port; its frames were requeued already
        }
        {
            let st = &mut self.link_tx[pi];
            if epoch != st.epoch {
                return; // stale timer from a since-advanced window
            }
            st.timer_live = false;
            if st.replay.is_empty() {
                return;
            }
            st.consec_timeouts += 1;
            st.epoch += 1;
        }
        self.stats.links[pi].timeouts += 1;
        // Keepalive escalation: a timeout means a whole (backed-off) RTO
        // passed with no traffic back on this port — a dead cable and a
        // neighbour stuck in go-back-N recovery look identical from here,
        // so probe it. Any ingress on the port resets the count; enough
        // consecutive silent RTOs and the port is declared dead.
        if self.cfg.route_around_faults {
            if let Port::Link(dir) = port {
                self.probes[pi] += 1;
                if self.probes[pi] >= self.cfg.keepalive_misses {
                    self.declare_port_dead(dir, now, out);
                    return;
                }
                let nonce = self.ping_nonce;
                self.ping_nonce += 1;
                self.send_control(port, LinkMsg::Ping { nonce }, out);
            }
        }
        self.replay_window(port, now, out);
        self.arm_timer(port, out);
    }

    /// Replay every unacknowledged frame of `port`, in sequence order.
    fn replay_window(&mut self, port: Port, now: SimTime, out: &mut Outbox<CardOut>) {
        let st = &self.link_tx[port.index()];
        let base = st.base;
        let frames: Vec<(u64, ApePacket)> = st
            .replay
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, p)| (base + i as u64, p))
            .collect();
        for (seq, p) in frames {
            self.transmit_data(port, seq, p, now, now, false, true, out);
        }
    }

    /// Move frames from the pending queue into freed window slots.
    fn flush_pending(&mut self, port: Port, now: SimTime, out: &mut Outbox<CardOut>) {
        let pi = port.index();
        loop {
            let st = &mut self.link_tx[pi];
            if st.pending.is_empty() || st.next_seq - st.base >= self.cfg.link_window as u64 {
                return;
            }
            let (packet, from_drain) = st.pending.pop_front().expect("checked non-empty");
            let seq = st.next_seq;
            st.next_seq += 1;
            st.replay.push_back(packet.clone());
            self.transmit_data(port, seq, packet, now, now, from_drain, false, out);
        }
    }

    /// A data frame arrived on `port`: verify, sequence-check, ACK/NAK,
    /// and deliver in-order frames up to the routing layer.
    fn link_rx_data(
        &mut self,
        port: Port,
        frame: LinkFrame,
        now: SimTime,
        out: &mut Outbox<CardOut>,
    ) {
        let pi = port.index();
        if !self.cfg.link_retrans {
            // Kill-switch mode: the pre-reliability datapath — a CRC
            // failure drops the packet on the floor.
            if !frame.packet.verify() {
                self.stats.crc_dropped += 1;
                self.stats.links[pi].crc_dropped += 1;
                return;
            }
            self.record_frame_rx(&frame, now);
            self.deliver_up(frame.packet, now, out);
            return;
        }
        if !frame.packet.verify() {
            self.send_nak(port, out);
            return;
        }
        let rx = &mut self.link_rx[pi];
        if frame.seq == rx.expect {
            rx.expect += 1;
            rx.nakked = None;
            let upto = rx.expect;
            self.send_control(port, LinkMsg::Ack { upto }, out);
            self.record_frame_rx(&frame, now);
            self.deliver_up(frame.packet, now, out);
        } else if frame.seq < rx.expect {
            // Duplicate (a replay raced our ACK): discard and re-ACK so
            // the sender's window still advances. This is the hop-level
            // exactly-once guarantee.
            self.stats.links[pi].dup_frames += 1;
            let upto = self.link_rx[pi].expect;
            self.send_control(port, LinkMsg::Ack { upto }, out);
        } else {
            // Sequence gap: an earlier frame was lost on the wire.
            self.send_nak(port, out);
        }
    }

    /// Trace the in-order acceptance of a data frame.
    fn record_frame_rx(&self, frame: &LinkFrame, now: SimTime) {
        if self.trace.enabled() {
            self.trace.record(
                now,
                "card",
                tk::FRAME_RX,
                Some(frame.packet.msg.span()),
                TracePayload::Frame {
                    seq: frame.seq,
                    wire: frame.packet.wire_bytes(),
                    retrans: false,
                },
            );
        }
    }

    /// NAK the current expected sequence number, once per gap.
    fn send_nak(&mut self, port: Port, out: &mut Outbox<CardOut>) {
        let pi = port.index();
        let rx = &mut self.link_rx[pi];
        let expect = rx.expect;
        if rx.nakked == Some(expect) {
            return;
        }
        rx.nakked = Some(expect);
        self.stats.links[pi].naks_sent += 1;
        self.send_control(port, LinkMsg::Nak { expect }, out);
    }

    /// Route a link-verified packet: local extraction or transit forward.
    fn deliver_up(&mut self, packet: ApePacket, now: SimTime, out: &mut Outbox<CardOut>) {
        if packet.dst == self.coord {
            self.rx_local(packet, now, out);
        } else {
            self.forward(packet, now, out);
        }
    }

    fn kick_drain(&mut self, now: SimTime, out: &mut Outbox<CardOut>) {
        if self.draining {
            return;
        }
        let Some((_bytes, packet)) = self.tx_fifo.pop() else {
            return;
        };
        self.draining = true;
        match self.cfg.tx_sink {
            TxSinkMode::Flush => {
                // Fig. 4 mode: the packet evaporates at the switch.
                out.push(SimDuration::ZERO, CardOut::ToSelf(CardIn::DrainNext));
            }
            TxSinkMode::Torus => {
                if packet.dst == self.coord {
                    // Loop-back through the internal switch.
                    self.link_send(Port::Loopback, packet, now, now, true, out);
                } else {
                    match self.route_dir(packet.msg, packet.dst, now, out) {
                        Some(dir) => self.link_send(Port::Link(dir), packet, now, now, true, out),
                        // Dropped unreachable: free the drain slot at once.
                        None => out.push(SimDuration::ZERO, CardOut::ToSelf(CardIn::DrainNext)),
                    }
                }
            }
        }
    }

    fn try_push(
        &mut self,
        job_id: u32,
        packet: ApePacket,
        now: SimTime,
        out: &mut Outbox<CardOut>,
    ) {
        let len = packet.len();
        let span = packet.msg.span();
        match self.tx_fifo.push(packet.wire_bytes(), packet) {
            Ok(()) => {
                self.staged_pending = self.staged_pending.saturating_sub(len);
                self.stats.tx_packets += 1;
                if self.trace.enabled() {
                    self.trace.record(
                        now,
                        "card",
                        tk::STAGE,
                        Some(span),
                        TracePayload::Bytes { len },
                    );
                }
                if let Some(job) = self.tx_jobs.get_mut(&job_id) {
                    job.pushed += len;
                    let done = job.plan.done() && job.pushed == job.desc.len;
                    let msg = job.desc.msg;
                    let msg_len = job.desc.len;
                    let get_reply = job.get_reply;
                    if done {
                        self.tx_jobs.remove(&job_id);
                        if self.trace.enabled() {
                            self.trace.record(
                                now,
                                "card",
                                tk::TX_DONE,
                                Some(msg.span()),
                                TracePayload::Msg { len: msg_len },
                            );
                        }
                        if !get_reply {
                            out.push(SimDuration::ZERO, CardOut::TxComplete { msg });
                        }
                        if self.gpu_job_active == Some(job_id) {
                            // Release the GPU_P2P_TX engine for the next
                            // queued message.
                            self.gpu_job_active = None;
                            self.activate_next_gpu_job(now, out);
                        }
                    }
                }
                self.kick_drain(now, out);
            }
            Err(packet) => {
                self.push_wait.push_back((job_id, packet));
            }
        }
    }

    /// Handle an extracted packet addressed to this node. The CRC was
    /// already verified hop-by-hop at link ingress ([`Self::link_rx_data`]),
    /// so the packet is clean here.
    fn rx_local(&mut self, packet: ApePacket, now: SimTime, out: &mut Outbox<CardOut>) {
        self.stats.rx_packets += 1;
        // A congestion-notification echo terminating at the source card:
        // hand it straight to the host-side pacer. No dedup, no memory
        // writes — a duplicate echo is a harmless extra window decrease
        // (the pacer's cooldown absorbs it).
        if packet.is_cnp() {
            out.push(SimDuration::ZERO, CardOut::EcnEcho { msg: packet.msg });
            return;
        }
        // A GET request header: not a write — `dst_vaddr` names the range
        // to *read*. It has its own duplicate suppression (by in-flight
        // reply job), so it bypasses the write-side dedup below. A marked
        // request echoes before serving: the congestion sits on the
        // request path, and pacing the requester is the only relief.
        if packet.is_get_request() {
            if packet.ecn && self.cfg.overload.is_some() {
                self.emit_echo(packet.msg, now, out);
            }
            self.serve_get(packet, now, out);
            return;
        }
        // End-to-end duplicate suppression: a frame that crossed the cable
        // just before it died (its ACK lost with the cable) is requeued by
        // the sender onto the detour route and arrives a second time. The
        // per-message fragment set catches in-progress duplicates; the
        // tombstone catches ones landing after the message completed.
        if self.rx_done.contains(&packet.msg)
            || self
                .rx_msgs
                .get(&packet.msg)
                .is_some_and(|p| p.got.contains(&packet.dst_vaddr))
        {
            self.stats.rx_dup_fragments += 1;
            return;
        }
        if self.trace.enabled() {
            self.trace.record(
                now,
                "card",
                tk::RX_WRITE,
                Some(packet.msg.span()),
                TracePayload::Bytes { len: packet.len() },
            );
        }
        let fw = self.shared.firmware.borrow();
        let (entry, bl_cost) = fw.buf_list.lookup(packet.dst_vaddr, packet.len());
        let Some(entry) = entry else {
            drop(fw);
            self.stats.rx_unmatched += 1;
            return;
        };
        let (v2p_cost, gpu_extra) = match entry.kind {
            BufKind::Host => (fw.host_v2p.walk(packet.dst_vaddr).1, SimDuration::ZERO),
            BufKind::Gpu(id) => (
                fw.gpu_v2p[id.0 as usize].walk(packet.dst_vaddr).1,
                self.cfg.rx_gpu_extra,
            ),
        };
        drop(fw);
        let task = self.cfg.rx_packet_base + bl_cost + v2p_cost + gpu_extra;
        let (_s, nios_done) = self.nios.run(now, task);
        // Write the payload to the destination memory over the fabric.
        let len = packet.len();
        let done = match entry.kind {
            BufKind::Host => {
                let mut fabric = self.shared.fabric.borrow_mut();
                fabric.set_span(Some(packet.msg.span()));
                let st = fabric.send_stream(
                    nios_done,
                    self.shared.nic_dev,
                    self.shared.hostmem_dev,
                    TlpKind::MemWrite,
                    len,
                    apenet_pcie::MAX_PAYLOAD,
                );
                fabric.set_span(None);
                if len > 0 {
                    self.shared
                        .hostmem
                        .borrow_mut()
                        .write(packet.dst_vaddr, &packet.payload)
                        .expect("registered RX buffer is in range");
                }
                st.arrive
            }
            BufKind::Gpu(id) => {
                let gpu = self.shared.gpus[id.0 as usize].clone();
                let mut fabric = self.shared.fabric.borrow_mut();
                fabric.set_span(Some(packet.msg.span()));
                let st = fabric.send_stream(
                    nios_done,
                    self.shared.nic_dev,
                    gpu.pcie_dev,
                    TlpKind::MemWrite,
                    len,
                    apenet_pcie::MAX_PAYLOAD,
                );
                fabric.set_span(None);
                let mut cuda = gpu.cuda.borrow_mut();
                let wend = cuda.p2p.absorb_write(nios_done, packet.dst_vaddr, len);
                if len > 0 {
                    cuda.mem
                        .write(packet.dst_vaddr, &packet.payload)
                        .expect("registered RX buffer is in range");
                }
                st.arrive.max(wend)
            }
        };
        self.stats.rx_bytes += len;
        let entry = self
            .rx_msgs
            .entry(packet.msg)
            .or_insert_with(|| RxProgress {
                bytes: 0,
                base: packet.dst_vaddr,
                got: BTreeSet::new(),
                marked: false,
            });
        entry.got.insert(packet.dst_vaddr);
        entry.bytes += len;
        entry.base = entry.base.min(packet.dst_vaddr);
        entry.marked |= packet.ecn;
        if entry.bytes >= packet.msg_len {
            let base = entry.base;
            let mut marked = entry.marked;
            self.rx_msgs.remove(&packet.msg);
            self.rx_done.insert(packet.msg);
            // RX-ring occupancy is the receiver-side congestion signal:
            // a ring past its high-water mark (or one so full the
            // completion must be held below) marks the message even if
            // no torus hop did.
            if let Some(ov) = self.cfg.overload {
                if self
                    .cfg
                    .rx_ring_entries
                    .is_some_and(|_| self.rx_ring_used >= ov.ring_highwater)
                {
                    self.stats.ecn_marked += 1;
                    marked = true;
                }
                if marked {
                    self.emit_echo(packet.msg, now, out);
                }
            }
            // Completion notification (event-queue write the host polls).
            let (_s, note_done) = self.nios.run(done, self.cfg.rx_notify);
            if let Some(cap) = self.cfg.rx_ring_entries {
                if self.rx_ring_used >= cap {
                    // Credit backpressure: hold the completion (never drop
                    // it) until the host reaps ring entries via RxRingPop.
                    // The span records RX_HELD now and DELIVERED at the
                    // actual release, so the ledger's `rx_ring_wait` stage
                    // is the real backpressure wait.
                    self.stats.rx_ring_stalls += 1;
                    if self.trace.enabled() {
                        self.trace.record(
                            note_done,
                            "card",
                            tk::RX_HELD,
                            Some(packet.msg.span()),
                            TracePayload::Msg {
                                len: packet.msg_len,
                            },
                        );
                    }
                    self.rx_ring_held
                        .push_back((note_done, packet.msg, base, packet.msg_len));
                    out.push(
                        SimDuration::ZERO,
                        CardOut::Error(CardError::RxRingFull { msg: packet.msg }),
                    );
                    return;
                }
                self.rx_ring_used += 1;
            }
            if self.trace.enabled() {
                self.trace.record(
                    note_done,
                    "card",
                    tk::DELIVERED,
                    Some(packet.msg.span()),
                    TracePayload::Msg {
                        len: packet.msg_len,
                    },
                );
            }
            out.push(
                note_done.since(now),
                CardOut::Delivered {
                    msg: packet.msg,
                    dst_vaddr: base,
                    len: packet.msg_len,
                },
            );
        }
    }

    fn forward(&mut self, packet: ApePacket, now: SimTime, out: &mut Outbox<CardOut>) {
        self.stats.forwarded += 1;
        let Some(dir) = self.route_dir(packet.msg, packet.dst, now, out) else {
            return; // dropped: both arcs of the next ring are cut
        };
        self.link_send(
            Port::Link(dir),
            packet,
            now + self.cfg.router_forward,
            now,
            false,
            out,
        );
    }

    /// Pick the egress direction for a non-local packet. With the fault
    /// plane on this consults the converged dead-link map and may detour
    /// (counted) or drop the packet as unreachable (typed error effect +
    /// counter; the RDMA watchdog turns that into a host-visible error
    /// completion). With the plane off it is strict dimension order —
    /// minus the old panic.
    fn route_dir(
        &mut self,
        msg: MsgId,
        dst: Coord,
        now: SimTime,
        out: &mut Outbox<CardOut>,
    ) -> Option<LinkDir> {
        let choice = if self.cfg.route_around_faults {
            self.dims.next_hop_faulty(self.coord, dst, &self.fault_map)
        } else {
            match self.dims.next_hop(self.coord, dst) {
                Some(d) => RouteChoice::Hop(d),
                None => RouteChoice::Local,
            }
        };
        match choice {
            RouteChoice::Hop(d) => Some(d),
            RouteChoice::Detour(d) => {
                self.stats.detours += 1;
                if self.trace.enabled() {
                    self.trace.record(
                        now,
                        "card",
                        tk::DETOUR,
                        Some(msg.span()),
                        TracePayload::None,
                    );
                }
                Some(d)
            }
            // `Local` cannot happen (every caller checks dst != coord);
            // fold it into the dead-end path rather than panicking.
            RouteChoice::Unreachable | RouteChoice::Local => {
                self.stats.unreachable_drops += 1;
                out.push(
                    SimDuration::ZERO,
                    CardOut::Error(CardError::Unreachable { msg, dst }),
                );
                None
            }
        }
    }

    /// Keepalive escalation on this card's own `dir` port: record both
    /// endpoint orientations in the fault map, flood the link-state
    /// notification so the mesh converges, and retire the port.
    fn declare_port_dead(&mut self, dir: LinkDir, now: SimTime, out: &mut Outbox<CardOut>) {
        let far = self.dims.neighbor(self.coord, dir);
        self.fault_map.insert((self.coord, dir));
        self.fault_map.insert((far, dir.opposite()));
        self.flood_link_down(self.coord, dir, None, out);
        self.mark_own_port_dead(dir, now, out);
    }

    /// Retire one of this card's ports: stop its timers forever (bounding
    /// the event stream so the sim can quiesce), surface the typed error,
    /// and move its in-flight frames onto detour routes.
    fn mark_own_port_dead(&mut self, dir: LinkDir, now: SimTime, out: &mut Outbox<CardOut>) {
        let pi = Port::Link(dir).index();
        if self.port_dead[pi] {
            return;
        }
        self.port_dead[pi] = true;
        self.stats.links_dead += 1;
        out.push(
            SimDuration::ZERO,
            CardOut::Error(CardError::LinkDead { dir }),
        );
        self.requeue_dead_port(pi, now, out);
    }

    /// Drain the dead port's replay and pending queues and route every
    /// frame again through the fault-aware router. Replayed frames
    /// already produced their `DrainNext` when they first serialized;
    /// pending ones still owe theirs — even if they end up dropped as
    /// unreachable, the drain must advance.
    fn requeue_dead_port(&mut self, pi: usize, now: SimTime, out: &mut Outbox<CardOut>) {
        let st = &mut self.link_tx[pi];
        let mut frames: Vec<(ApePacket, bool)> = st.replay.drain(..).map(|p| (p, false)).collect();
        frames.extend(st.pending.drain(..));
        st.epoch += 1; // in-flight timer events for this port go stale
        st.timer_live = false;
        self.link_rx[pi] = LinkRxState::default();
        for (packet, from_drain) in frames {
            self.stats.requeued += 1;
            match self.route_dir(packet.msg, packet.dst, now, out) {
                Some(d) => self.link_send(Port::Link(d), packet, now, now, from_drain, out),
                None => {
                    if from_drain {
                        out.push(SimDuration::ZERO, CardOut::ToSelf(CardIn::DrainNext));
                    }
                }
            }
        }
    }

    /// Flood a `LinkDown` notification out of every live torus port
    /// (except the one it arrived on). Receivers deduplicate by fault-map
    /// membership, so the flood terminates after each card re-emits each
    /// failure at most once.
    fn flood_link_down(
        &mut self,
        origin: Coord,
        dir: LinkDir,
        ingress: Option<Port>,
        out: &mut Outbox<CardOut>,
    ) {
        for d in LinkDir::ALL {
            let port = Port::Link(d);
            if Some(port) == ingress
                || self.port_dead[port.index()]
                || self.cable_cut[port.index()]
                || self.links_out[d.index()].is_none()
                || self.dims.neighbor(self.coord, d) == self.coord
            {
                continue;
            }
            self.send_control(port, LinkMsg::LinkDown { origin, dir }, out);
        }
    }

    /// A link-state notification arrived: merge the fault, re-flood it,
    /// and — if the dead cable is one of ours because the neighbour's
    /// detector won the race — retire our end too.
    fn handle_link_down(
        &mut self,
        ingress: Port,
        origin: Coord,
        dir: LinkDir,
        now: SimTime,
        out: &mut Outbox<CardOut>,
    ) {
        if !self.cfg.route_around_faults || self.fault_map.contains(&(origin, dir)) {
            return;
        }
        let far = self.dims.neighbor(origin, dir);
        self.fault_map.insert((origin, dir));
        self.fault_map.insert((far, dir.opposite()));
        self.flood_link_down(origin, dir, Some(ingress), out);
        if origin == self.coord {
            self.mark_own_port_dead(dir, now, out);
        } else if far == self.coord {
            self.mark_own_port_dead(dir.opposite(), now, out);
        }
    }

    /// Open a TX job for `desc` and start fetching. The common body of a
    /// host-posted `TxSubmit` and a responder-side GET reply
    /// (`get_reply = true`, which completes silently — see [`TxJob`]).
    fn submit_tx(
        &mut self,
        desc: TxDesc,
        get_reply: bool,
        now: SimTime,
        out: &mut Outbox<CardOut>,
    ) {
        let job_id = self.next_job;
        self.next_job += 1;
        let gpu_src = matches!(desc.src_kind, BufKind::Gpu(_));
        let (version, window) = if gpu_src {
            (self.cfg.gpu_tx, self.cfg.prefetch_window)
        } else {
            // Host sources always pipeline: the kernel driver keeps
            // the injection queue full (§III.B).
            (GpuTxVersion::V3, self.cfg.tx_fifo_bytes)
        };
        let plan = FetchPlan::new(version, window, desc.len);
        let len = desc.len;
        if !get_reply && self.trace.enabled() {
            self.trace.record(
                now,
                "card",
                tk::POST,
                Some(desc.msg.span()),
                TracePayload::Msg { len },
            );
        }
        self.tx_jobs.insert(
            job_id,
            TxJob {
                desc,
                plan,
                pushed: 0,
                get_reply,
            },
        );
        if gpu_src {
            // GPU jobs serialize through the GPU_P2P_TX engine.
            self.gpu_job_queue.push_back(job_id);
            if self.gpu_job_active.is_none() {
                self.activate_next_gpu_job(now, out);
            }
        } else if len == 0 {
            // Header-only message: stage one empty packet.
            out.push(
                SimDuration::ZERO,
                CardOut::ToSelf(CardIn::FetchArrived {
                    job: job_id,
                    offset: 0,
                    len: 0,
                }),
            );
        } else {
            self.issue_fetches(job_id, now, out);
        }
    }

    /// Responder side of the one-sided GET protocol: a link-verified read
    /// request addressed to this node. Look the requested range up in the
    /// BUF_LIST (no registered buffer means a counted drop — the
    /// requester's watchdog retries or escalates), then start a reply TX
    /// job streaming the range back to the requester. The reply rides the
    /// ordinary fetch/FIFO/link machinery, so V2P-walk costs, go-back-N
    /// retransmission, dead-link detours and requester-side fragment
    /// dedup all compose unchanged.
    fn serve_get(&mut self, packet: ApePacket, now: SimTime, out: &mut Outbox<CardOut>) {
        let reply_vaddr = packet
            .get
            .expect("caller checked is_get_request")
            .reply_vaddr;
        // A watchdog-reissued request racing a still-streaming reply
        // would double-serve; the requester's dedup makes that harmless,
        // but suppressing it here keeps the wire quiet and counted.
        if self
            .tx_jobs
            .values()
            .any(|j| j.get_reply && j.desc.msg == packet.msg)
        {
            self.stats.get_dup_requests += 1;
            return;
        }
        let fw = self.shared.firmware.borrow();
        let (entry, bl_cost) = fw.buf_list.lookup(packet.dst_vaddr, packet.msg_len);
        let Some(entry) = entry else {
            drop(fw);
            self.stats.get_unmatched += 1;
            return;
        };
        let src_kind = entry.kind;
        drop(fw);
        self.stats.get_served += 1;
        // Request decode + BUF_LIST traversal on the Nios; the reply job
        // opens once that task retires and pays its own per-fragment
        // V2P/engine costs from there.
        let (_s, nios_done) = self.nios.run(now, self.cfg.rx_packet_base + bl_cost);
        let desc = TxDesc {
            msg: packet.msg,
            dst: packet.src,
            dst_vaddr: reply_vaddr,
            len: packet.msg_len,
            src_addr: packet.dst_vaddr,
            src_kind,
        };
        out.push(
            nios_done.since(now),
            CardOut::ToSelf(CardIn::GetServe { desc }),
        );
    }

    /// Emit the congestion echo for a marked message: a local effect
    /// when this card initiated the message (loop-back PUTs and GET
    /// replies landing back at their requester), otherwise a header-only
    /// CNP frame routed back to the source card through the ordinary TX
    /// FIFO / link machinery (so it shares the reliability layer and can
    /// detour around dead cables like any frame).
    fn emit_echo(&mut self, msg: MsgId, now: SimTime, out: &mut Outbox<CardOut>) {
        self.stats.ecn_echoed += 1;
        let origin = self.dims.coord_of(msg.src_rank as usize);
        if origin == self.coord {
            out.push(SimDuration::ZERO, CardOut::EcnEcho { msg });
            return;
        }
        let packet = ApePacket::cnp(origin, self.coord, msg);
        // Building the notification costs the Nios the same as an RX
        // completion write; the echo then enters the TX FIFO like a GET
        // request header and pays real serialization on the way back.
        let (_s, ready) = self.nios.run(now, self.cfg.rx_notify);
        out.push(
            ready.since(now),
            CardOut::ToSelf(CardIn::PushReady {
                job: ECHO_JOB,
                packet,
            }),
        );
    }

    /// The host reaped `n` RX event-ring entries; release held-back
    /// completions into the freed slots, oldest first.
    fn rx_ring_pop(&mut self, n: u32, now: SimTime, out: &mut Outbox<CardOut>) {
        let Some(cap) = self.cfg.rx_ring_entries else {
            return; // unbounded ring: nothing is ever held
        };
        self.rx_ring_used = self.rx_ring_used.saturating_sub(n);
        while self.rx_ring_used < cap {
            let Some((note_done, msg, dst_vaddr, len)) = self.rx_ring_held.pop_front() else {
                break;
            };
            self.rx_ring_used += 1;
            let at = note_done.max(now);
            if self.trace.enabled() {
                self.trace.record(
                    at,
                    "card",
                    tk::DELIVERED,
                    Some(msg.span()),
                    TracePayload::Msg { len },
                );
            }
            out.push(
                at.since(now),
                CardOut::Delivered {
                    msg,
                    dst_vaddr,
                    len,
                },
            );
        }
    }
}

impl Device for Card {
    type In = CardIn;
    type Out = CardOut;

    fn handle(&mut self, now: SimTime, ev: CardIn, out: &mut Outbox<CardOut>) {
        match ev {
            CardIn::TxSubmit(desc) => {
                self.submit_tx(desc, false, now, out);
            }
            CardIn::GetSubmit(desc) => {
                self.stats.get_requests += 1;
                if self.trace.enabled() {
                    self.trace.record(
                        now,
                        "card",
                        tk::POST,
                        Some(desc.msg.span()),
                        TracePayload::Msg { len: desc.len },
                    );
                }
                let packet = ApePacket::get_request(
                    desc.peer,
                    self.coord,
                    desc.msg,
                    desc.peer_vaddr,
                    desc.len,
                    desc.local_vaddr,
                );
                // Descriptor decode + request-header build on the Nios,
                // then the header enters the TX FIFO like a staged packet
                // and rides the ordinary drain/link/retransmit path.
                let (_s, ready) = self.nios.run(now, self.cfg.get_req_nios);
                out.push(
                    ready.since(now),
                    CardOut::ToSelf(CardIn::PushReady {
                        job: GET_REQ_JOB,
                        packet,
                    }),
                );
            }
            CardIn::GetServe { desc } => {
                self.submit_tx(desc, true, now, out);
            }
            CardIn::FetchArrived { job, offset, len } => {
                if len > 0 {
                    self.outstanding_total = self.outstanding_total.saturating_sub(len as u64);
                    self.staged_pending += len as u64;
                    if let Some(j) = self.tx_jobs.get_mut(&job) {
                        j.plan.arrived_bytes(len as u64);
                        self.stats.tx_bytes_fetched += len as u64;
                        if self.trace.enabled() {
                            self.trace.record(
                                now,
                                "card",
                                tk::FETCH,
                                Some(j.desc.msg.span()),
                                TracePayload::Bytes { len: len as u64 },
                            );
                        }
                    }
                    self.stage_packets(job, offset, len, now, out);
                } else if self.tx_jobs.get(&job).is_some_and(|j| j.desc.len == 0) {
                    // The zero-length sentinel packet.
                    self.stage_packets(job, 0, 0, now, out);
                }
                self.issue_fetches(job, now, out);
            }
            CardIn::PushReady { job, packet } => {
                self.try_push(job, packet, now, out);
            }
            CardIn::DrainNext => {
                self.draining = false;
                while let Some((job_id, packet)) = self.push_wait.pop_front() {
                    if self.tx_fifo.fits(packet.wire_bytes()) {
                        self.try_push(job_id, packet, now, out);
                    } else {
                        self.push_wait.push_front((job_id, packet));
                        break;
                    }
                }
                self.kick_drain(now, out);
                // Sorted: HashMap iteration order is seeded per process,
                // and the fetch-issue order below contends for the PCIe
                // fabric — unsorted it leaks hasher state into timing.
                let mut jobs: Vec<u32> = self.tx_jobs.keys().copied().collect();
                jobs.sort_unstable();
                for j in jobs {
                    self.issue_fetches(j, now, out);
                }
            }
            CardIn::LinkRx { port, msg } => {
                let pi = port.index();
                if self.cable_cut[pi] || self.port_dead[pi] {
                    return; // frames in flight when the cable died are lost
                }
                self.probes[pi] = 0; // any ingress traffic is proof of life
                match msg {
                    LinkMsg::Data(frame) => self.link_rx_data(port, frame, now, out),
                    LinkMsg::Ack { upto } => self.handle_ack(port, upto, now, out),
                    LinkMsg::Nak { expect } => self.handle_nak(port, expect, now, out),
                    LinkMsg::Ping { nonce } => {
                        self.send_control(port, LinkMsg::Pong { nonce }, out)
                    }
                    // The probe-counter reset above was the whole point.
                    LinkMsg::Pong { .. } => {}
                    LinkMsg::LinkDown { origin, dir } => {
                        self.handle_link_down(port, origin, dir, now, out)
                    }
                }
            }
            CardIn::LinkTimeout { port, epoch } => {
                self.handle_timeout(port, epoch, now, out);
            }
            CardIn::AdminLinkDown { port } => {
                let pi = port.index();
                if !self.cable_cut[pi] {
                    self.cable_cut[pi] = true;
                    // The kill schedule arms the fault plane; from here on
                    // frames are windowed and timers run, so the keepalive
                    // detector can escalate.
                    self.fault_active = true;
                }
            }
            CardIn::RxRingPop { n } => self.rx_ring_pop(n, now, out),
        }
    }
}

impl Drop for Card {
    fn drop(&mut self) {
        // Publish this card's lifetime reliability counters into the
        // process-wide registry (under the [`metrics`] ids), so a driver
        // that runs many simulations (`repro-all`) can report aggregate
        // retransmission/degradation activity without keeping any cluster
        // alive. Clean cards publish nothing, so fault-free runs touch no
        // shared state.
        let s = &self.stats;
        let hard = s.links_dead
            + s.detours
            + s.unreachable_drops
            + s.requeued
            + s.rx_dup_fragments
            + s.rx_ring_stalls
            + s.ecn_marked
            + s.ecn_echoed;
        if !s.link_sums().is_clean() || hard > 0 {
            self.publish_link_metrics(apenet_obs::global());
        }
    }
}
