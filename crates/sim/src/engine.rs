//! The discrete-event engine: actor slab, calendar queue, dispatch loop.
//!
//! The engine is generic over the message type `M` *and* the registered
//! actor type `A`, so each assembly (the APEnet+ cluster, the InfiniBand
//! cluster, unit-test rigs) defines its own closed event enum and — on
//! the hot path — a closed actor enum dispatched by a single match
//! instead of a vtable call. `A` defaults to `Box<dyn Actor<M>>`, which
//! keeps every pre-slab caller and test compiling unchanged (a blanket
//! [`Actor`] impl for boxes forwards through the pointer).
//!
//! Events live in a pooled [`CalendarQueue`]: the envelope of a
//! scheduled message is a recycled arena slot, not a per-push heap
//! allocation, and pop/push are O(1) in the steady state instead of the
//! binary heap's O(log n). Events scheduled for the same instant are
//! delivered in FIFO order of scheduling (a monotonically increasing
//! sequence number breaks ties), which makes every run fully
//! deterministic — the calendar swap preserves the `(at, seq)` total
//! order bit-for-bit (see `tests/calendar_equiv.rs`).

use crate::calendar::CalendarQueue;
use crate::profile::{Bucket, ProfileRow, SimProfile};
use crate::time::{SimDuration, SimTime};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Events dispatched by every [`Sim`] in this process, across threads.
/// Feeds the events/sec figures of the benchmark harness; per-instance
/// counts are on [`Sim::events_processed`].
static GLOBAL_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Batch size for publishing locally-counted events to [`GLOBAL_EVENTS`].
/// A relaxed `fetch_add` per dispatched event was measurable contention
/// when sweep workers run concurrently; each thread now accumulates into
/// a plain `Cell` and publishes in batches (plus a flush at every run-loop
/// exit, `Sim` drop, and [`global_events`] read, so same-thread readers
/// always observe exact totals).
const GLOBAL_FLUSH_BATCH: u64 = 1024;

thread_local! {
    /// Events dispatched by [`Sim`] instances on *this* thread. The
    /// global counter is cross-polluted when sweep workers run
    /// concurrently; per-thread deltas isolate each worker's share.
    /// Always exact — never batched.
    static THREAD_EVENTS: Cell<u64> = const { Cell::new(0) };
    /// Events counted on this thread but not yet published to
    /// [`GLOBAL_EVENTS`].
    static GLOBAL_PENDING: Cell<u64> = const { Cell::new(0) };
}

/// Count one dispatched event on the calling thread.
#[inline]
fn count_event() {
    THREAD_EVENTS.with(|c| c.set(c.get() + 1));
    GLOBAL_PENDING.with(|c| {
        let n = c.get() + 1;
        if n >= GLOBAL_FLUSH_BATCH {
            GLOBAL_EVENTS.fetch_add(n, Ordering::Relaxed);
            c.set(0);
        } else {
            c.set(n);
        }
    });
}

/// Publish this thread's pending event count to the global counter.
/// Called automatically at run-loop exits and by [`global_events`]; only
/// needed directly when reading [`global_events`] from a *different*
/// thread while this one is mid-run.
pub fn flush_thread_events() {
    GLOBAL_PENDING.with(|c| {
        let n = c.get();
        if n > 0 {
            GLOBAL_EVENTS.fetch_add(n, Ordering::Relaxed);
            c.set(0);
        }
    });
}

/// Total events dispatched process-wide since start. Monotone; take a
/// delta around a region to measure its event throughput. Flushes the
/// calling thread's pending batch first, so single-threaded deltas are
/// exact; counts from other still-running threads may lag by up to one
/// batch until their run loops exit.
pub fn global_events() -> u64 {
    flush_thread_events();
    GLOBAL_EVENTS.load(Ordering::Relaxed)
}

/// Total events dispatched on the calling thread since it started.
/// Monotone and exact (never batched); take a delta around a region to
/// attribute events to one sweep worker without interference from its
/// siblings.
pub fn thread_events() -> u64 {
    THREAD_EVENTS.with(|c| c.get())
}

/// Index of an actor registered with a [`Sim`].
pub type ActorId = usize;

/// A simulation participant. Actors receive the events addressed to them,
/// mutate their own state, and schedule new events through the [`Ctx`].
pub trait Actor<M> {
    /// Deliver one event.
    fn on_event(&mut self, ev: M, ctx: &mut Ctx<'_, M>);
    /// Human-readable name used in panics and traces.
    fn name(&self) -> &str {
        "actor"
    }
    /// Optional downcast hook so assemblies can read concrete actor state
    /// back after a run.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
    /// Mutable counterpart of [`Actor::as_any`] so assemblies can re-wire
    /// actor state (e.g. peers) after registration.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

/// Compatibility shim: a boxed actor (including `Box<dyn Actor<M>>`) is
/// itself an actor, forwarding through the pointer. This is what lets
/// `Sim<M>` default to boxed dynamic dispatch while assemblies register
/// concrete enum variants for static dispatch.
impl<M, T: Actor<M> + ?Sized> Actor<M> for Box<T> {
    fn on_event(&mut self, ev: M, ctx: &mut Ctx<'_, M>) {
        (**self).on_event(ev, ctx)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        (**self).as_any()
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        (**self).as_any_mut()
    }
}

/// The registry of actors in a [`Sim`]: a slab of slots indexed by
/// [`ActorId`]. During dispatch the target actor is checked out of its
/// slot so it can borrow the calendar through [`Ctx`] without aliasing
/// itself.
pub struct ActorSlab<A> {
    slots: Vec<Option<A>>,
}

impl<A> Default for ActorSlab<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A> ActorSlab<A> {
    /// An empty slab.
    pub fn new() -> Self {
        ActorSlab { slots: Vec::new() }
    }

    /// Register an actor, returning its id.
    pub fn insert(&mut self, actor: A) -> ActorId {
        let id = self.slots.len();
        self.slots.push(Some(actor));
        id
    }

    /// Number of registered actors (including any checked out).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no actors are registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Borrow the actor in slot `id`; `None` if out of range or checked
    /// out.
    pub fn get(&self, id: ActorId) -> Option<&A> {
        self.slots.get(id).and_then(|s| s.as_ref())
    }

    /// Mutable counterpart of [`ActorSlab::get`].
    pub fn get_mut(&mut self, id: ActorId) -> Option<&mut A> {
        self.slots.get_mut(id).and_then(|s| s.as_mut())
    }

    fn take(&mut self, id: ActorId) -> Option<A> {
        self.slots.get_mut(id).and_then(|s| s.take())
    }

    fn put(&mut self, id: ActorId, actor: A) {
        self.slots[id] = Some(actor);
    }
}

/// Scheduling context handed to an actor during dispatch.
pub struct Ctx<'a, M> {
    now: SimTime,
    self_id: ActorId,
    seq: &'a mut u64,
    queue: &'a mut CalendarQueue<M>,
}

impl<'a, M> Ctx<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the actor currently being dispatched.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Schedule `msg` for actor `to`, `delay` from now.
    pub fn send(&mut self, to: ActorId, delay: SimDuration, msg: M) {
        self.send_at(to, self.now + delay, msg);
    }

    /// Schedule `msg` for actor `to` at absolute time `at` (must be ≥ now).
    pub fn send_at(&mut self, to: ActorId, at: SimTime, msg: M) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        let seq = *self.seq;
        *self.seq += 1;
        self.queue.push(at, seq, to, msg);
    }

    /// Schedule `msg` back to the current actor, `delay` from now.
    pub fn send_self(&mut self, delay: SimDuration, msg: M) {
        self.send(self.self_id, delay, msg);
    }
}

/// Passive per-run profiler state. Attached with
/// [`Sim::attach_profiler`]; reads the event stream, never touches the
/// calendar, so scheduling is bit-identical with it on or off.
struct Profiler<M> {
    /// Maps an event to its kind label. A plain fn pointer: no capture,
    /// no allocation per event.
    classify: fn(&M) -> &'static str,
    /// `now` at attach time — the profile spans attach → extraction.
    start: SimTime,
    /// Picoseconds idled forward by `run_until` on a drained calendar.
    idle_ps: u64,
    /// Buckets indexed by [`ActorId`], keyed by event kind.
    buckets: Vec<BTreeMap<&'static str, Bucket>>,
}

/// The simulation: an [`ActorSlab`] plus a pooled [`CalendarQueue`].
///
/// `A` is the registered actor type. The default, `Box<dyn Actor<M>>`,
/// gives the classic open-world dynamic dispatch; assemblies that know
/// their full actor set (the APEnet+ cluster, the IB model) register a
/// concrete enum instead and every dispatch is a direct match.
pub struct Sim<M, A: Actor<M> = Box<dyn Actor<M>>> {
    now: SimTime,
    seq: u64,
    queue: CalendarQueue<M>,
    actors: ActorSlab<A>,
    events_processed: u64,
    profiler: Option<Profiler<M>>,
    /// Hard cap on processed events; exceeding it panics (runaway guard).
    pub max_events: u64,
}

impl<M, A: Actor<M>> Default for Sim<M, A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M, A: Actor<M>> Drop for Sim<M, A> {
    fn drop(&mut self) {
        // A sweep worker's results are read after its sims are gone;
        // publish any batched counts so cross-thread totals converge.
        flush_thread_events();
    }
}

impl<M, A: Actor<M>> Sim<M, A> {
    /// Create an empty simulation at t = 0.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            queue: CalendarQueue::new(),
            actors: ActorSlab::new(),
            events_processed: 0,
            profiler: None,
            max_events: u64::MAX,
        }
    }

    /// Register an actor, returning its id.
    pub fn add_actor(&mut self, actor: A) -> ActorId {
        self.actors.insert(actor)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of events still pending in the calendar.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Time of the next calendar entry, if any. External dispatch loops
    /// (e.g. the occupancy sampler) use this to fire read-only probes
    /// *between* events without ever touching the calendar — no seq
    /// numbers are consumed and `run()`-style draining still terminates.
    pub fn peek_next_at(&self) -> Option<SimTime> {
        self.queue.peek_at_ref()
    }

    /// Attach the passive sim-time profiler. From this point every
    /// dispatched event is attributed: the simulated-time gap it ends
    /// (to its target actor and kind), plus wall-clock time spent in
    /// `on_event`. Purely observational — the calendar, seq numbers and
    /// event order are untouched, so a profiled run is bit-identical to
    /// an unprofiled one.
    pub fn attach_profiler(&mut self, classify: fn(&M) -> &'static str) {
        self.profiler = Some(Profiler {
            classify,
            start: self.now,
            idle_ps: 0,
            buckets: Vec::new(),
        });
    }

    /// Detach the profiler and fold its buckets into a [`SimProfile`]
    /// whose rows aggregate by (actor name, kind). Returns `None` when
    /// no profiler was attached.
    pub fn take_profile(&mut self) -> Option<SimProfile> {
        let p = self.profiler.take()?;
        let mut rows: BTreeMap<(String, &'static str), Bucket> = BTreeMap::new();
        for (id, kinds) in p.buckets.iter().enumerate() {
            let name = self
                .actors
                .get(id)
                .map_or_else(|| format!("actor#{id}"), |a| a.name().to_string());
            for (kind, b) in kinds {
                let row = rows.entry((name.clone(), kind)).or_default();
                row.events += b.events;
                row.sim_ps += b.sim_ps;
                row.wall_ns += b.wall_ns;
            }
        }
        Some(SimProfile {
            rows: rows
                .into_iter()
                .map(|((component, kind), bucket)| ProfileRow {
                    component,
                    kind,
                    bucket,
                })
                .collect(),
            idle_ps: p.idle_ps,
            span_ps: self.now.as_ps() - p.start.as_ps(),
        })
    }

    /// Inject an event from outside the simulation (e.g. test setup).
    pub fn send(&mut self, to: ActorId, at: SimTime, msg: M) {
        assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at, seq, to, msg);
    }

    /// Borrow a registered actor (e.g. to read results after a run).
    ///
    /// Panics if the actor is currently being dispatched.
    pub fn actor(&self, id: ActorId) -> &A {
        self.actors.get(id).expect("actor checked out")
    }

    /// Mutably borrow a registered actor.
    pub fn actor_mut(&mut self, id: ActorId) -> &mut A {
        self.actors.get_mut(id).expect("actor checked out")
    }

    /// Dispatch the next event, if any. Returns `false` when the calendar is
    /// empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "calendar went backwards");
        // Attribute the simulated-time gap this event ends, before the
        // clock advances; the per-step gaps telescope to the exact span.
        let profiled = self.profiler.as_mut().map(|p| {
            let kind = (p.classify)(&ev.msg);
            let gap_ps = ev.at.as_ps() - self.now.as_ps();
            (kind, gap_ps, std::time::Instant::now())
        });
        self.now = ev.at;
        self.events_processed += 1;
        count_event();
        assert!(
            self.events_processed <= self.max_events,
            "simulation exceeded max_events = {} (runaway?)",
            self.max_events
        );
        // Check the actor out of the slab so it can borrow the queue through
        // Ctx without aliasing itself.
        let mut actor = self
            .actors
            .take(ev.to)
            .unwrap_or_else(|| panic!("event for missing actor #{}", ev.to));
        let mut ctx = Ctx {
            now: self.now,
            self_id: ev.to,
            seq: &mut self.seq,
            queue: &mut self.queue,
        };
        actor.on_event(ev.msg, &mut ctx);
        self.actors.put(ev.to, actor);
        if let Some((kind, gap_ps, t0)) = profiled {
            let p = self.profiler.as_mut().expect("profiler still attached");
            if p.buckets.len() <= ev.to {
                p.buckets.resize_with(ev.to + 1, BTreeMap::new);
            }
            let b = p.buckets[ev.to].entry(kind).or_default();
            b.events += 1;
            b.sim_ps += gap_ps;
            b.wall_ns += t0.elapsed().as_nanos() as u64;
        }
        true
    }

    /// Run until the calendar is empty. Returns the final time.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        flush_thread_events();
        self.now
    }

    /// Run until the calendar is empty or the next event would be after
    /// `deadline`; the clock never advances past `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while let Some(head_at) = self.queue.peek_at() {
            if head_at > deadline {
                if let Some(p) = self.profiler.as_mut() {
                    p.idle_ps += deadline.as_ps().saturating_sub(self.now.as_ps());
                }
                self.now = deadline;
                flush_thread_events();
                return self.now;
            }
            self.step();
        }
        // Calendar drained before the deadline: idle forward to it, so
        // repeated run_until calls observe monotone time.
        if let Some(p) = self.profiler.as_mut() {
            p.idle_ps += deadline.as_ps().saturating_sub(self.now.as_ps());
        }
        self.now = self.now.max(deadline);
        flush_thread_events();
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Debug, PartialEq, Clone)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    struct Recorder {
        log: Rc<RefCell<Vec<(u64, Msg)>>>,
        peer: Option<ActorId>,
    }

    impl Actor<Msg> for Recorder {
        fn on_event(&mut self, ev: Msg, ctx: &mut Ctx<'_, Msg>) {
            self.log.borrow_mut().push((ctx.now().as_ps(), ev.clone()));
            if let Msg::Ping(n) = &ev {
                if let (Some(peer), true) = (self.peer, *n > 0) {
                    ctx.send(peer, SimDuration::from_ns(10), Msg::Ping(n - 1));
                }
                ctx.send_self(SimDuration::from_ns(1), Msg::Pong(*n));
            }
        }
        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
        fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
            Some(self)
        }
    }

    #[test]
    fn ping_pong_round_trips() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        let a = sim.add_actor(Box::new(Recorder {
            log: log.clone(),
            peer: None,
        }));
        let b = sim.add_actor(Box::new(Recorder {
            log: log.clone(),
            peer: Some(a),
        }));
        // Wire a's peer now that b exists, via the downcast hook.
        sim.actor_mut(a)
            .as_any_mut()
            .and_then(|x| x.downcast_mut::<Recorder>())
            .expect("recorder at a")
            .peer = Some(b);
        sim.send(b, SimTime::ZERO, Msg::Ping(2));
        sim.run();
        let log = log.borrow();
        // b: Ping(2) @0, Pong(2) @1ns; a: Ping(1) @10ns, Pong(1) @11ns;
        // b again: Ping(0) @20ns (n == 0, no forward), Pong(0) @21ns.
        assert_eq!(log[0], (0, Msg::Ping(2)));
        assert_eq!(log[1], (1_000, Msg::Pong(2)));
        assert_eq!(log[2], (10_000, Msg::Ping(1)));
        assert_eq!(log[3], (11_000, Msg::Pong(1)));
        assert_eq!(log[4], (20_000, Msg::Ping(0)));
        assert_eq!(log[5], (21_000, Msg::Pong(0)));
        assert_eq!(log.len(), 6, "ping bounced a → b and stopped at 0");
    }

    #[test]
    fn same_time_events_fifo() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        let a = sim.add_actor(Box::new(Recorder {
            log: log.clone(),
            peer: None,
        }));
        for i in 0..16 {
            sim.send(a, SimTime::from_ps(42), Msg::Pong(i));
        }
        sim.run();
        let seen: Vec<u32> = log
            .borrow()
            .iter()
            .map(|(_, m)| match m {
                Msg::Pong(i) => *i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seen, (0..16).collect::<Vec<_>>(), "FIFO at equal times");
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        let a = sim.add_actor(Box::new(Recorder {
            log: log.clone(),
            peer: None,
        }));
        sim.send(a, SimTime::from_ps(100), Msg::Pong(0));
        sim.send(a, SimTime::from_ps(200), Msg::Pong(1));
        sim.run_until(SimTime::from_ps(150));
        assert_eq!(log.borrow().len(), 1);
        assert_eq!(sim.now(), SimTime::from_ps(150));
        sim.run();
        assert_eq!(log.borrow().len(), 2);
        assert_eq!(sim.now(), SimTime::from_ps(200));
    }

    #[test]
    fn run_until_advances_to_deadline_when_drained() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        let a = sim.add_actor(Box::new(Recorder {
            log: log.clone(),
            peer: None,
        }));
        sim.send(a, SimTime::from_ps(100), Msg::Pong(0));
        // The calendar drains at t = 100 ps, well before the deadline; the
        // clock must still idle forward to the deadline.
        let end = sim.run_until(SimTime::from_ps(5_000));
        assert_eq!(log.borrow().len(), 1);
        assert_eq!(end, SimTime::from_ps(5_000));
        assert_eq!(sim.now(), SimTime::from_ps(5_000));
        // And never move backwards on an already-passed deadline.
        let end = sim.run_until(SimTime::from_ps(1_000));
        assert_eq!(end, SimTime::from_ps(5_000));
    }

    #[test]
    #[should_panic(expected = "max_events")]
    fn runaway_guard_fires() {
        struct Looper;
        impl Actor<Msg> for Looper {
            fn on_event(&mut self, _ev: Msg, ctx: &mut Ctx<'_, Msg>) {
                ctx.send_self(SimDuration::from_ps(1), Msg::Ping(0));
            }
        }
        let mut sim = Sim::new();
        sim.max_events = 100;
        let a = sim.add_actor(Box::new(Looper));
        sim.send(a, SimTime::ZERO, Msg::Ping(0));
        sim.run();
    }

    #[test]
    fn events_processed_counts() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        let a = sim.add_actor(Box::new(Recorder { log, peer: None }));
        for i in 0..5 {
            sim.send(a, SimTime::from_ps(i), Msg::Pong(i as u32));
        }
        sim.run();
        assert_eq!(sim.events_processed(), 5);
        assert_eq!(sim.pending(), 0);
    }

    /// A statically-dispatched rig: the slab holds a concrete enum, no
    /// boxing anywhere.
    #[test]
    fn enum_actor_slab_dispatches_statically() {
        enum Rig {
            Counter(u32),
            Forwarder { to: ActorId },
        }
        impl Actor<u32> for Rig {
            fn on_event(&mut self, ev: u32, ctx: &mut Ctx<'_, u32>) {
                match self {
                    Rig::Counter(n) => *n += ev,
                    Rig::Forwarder { to } => ctx.send(*to, SimDuration::from_ns(1), ev),
                }
            }
            fn name(&self) -> &str {
                match self {
                    Rig::Counter(_) => "counter",
                    Rig::Forwarder { .. } => "forwarder",
                }
            }
        }
        let mut sim: Sim<u32, Rig> = Sim::new();
        let counter = sim.add_actor(Rig::Counter(0));
        let fwd = sim.add_actor(Rig::Forwarder { to: counter });
        for i in 1..=4 {
            sim.send(fwd, SimTime::ZERO, i);
        }
        sim.run();
        match sim.actor(counter) {
            Rig::Counter(n) => assert_eq!(*n, 10),
            _ => panic!("wrong actor in slot"),
        }
        assert_eq!(sim.events_processed(), 8, "4 forwards + 4 deliveries");
    }

    #[test]
    fn thread_and_global_counters_advance() {
        let t0 = thread_events();
        let g0 = global_events();
        let mut sim: Sim<u32> = Sim::new();
        struct Sink;
        impl Actor<u32> for Sink {
            fn on_event(&mut self, _ev: u32, _ctx: &mut Ctx<'_, u32>) {}
        }
        let a = sim.add_actor(Box::new(Sink));
        for i in 0..10 {
            sim.send(a, SimTime::from_ps(i), 0);
        }
        sim.run();
        assert_eq!(thread_events() - t0, 10);
        // global_events flushes this thread's batch, so the delta is
        // exact even though 10 < GLOBAL_FLUSH_BATCH.
        assert!(global_events() - g0 >= 10);
    }
}
