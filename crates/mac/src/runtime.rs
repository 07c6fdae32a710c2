//! The abstract MAC layer runtime: couples node automata, a message
//! scheduler policy, and the dual-graph topology into a deterministic
//! discrete-event execution that honours the model's five guarantees.
//!
//! ## How the guarantees are enforced
//!
//! * **Receive correctness** — at most one `rcv` per (instance, receiver);
//!   receivers are always `G′`-neighbors of the sender; every `rcv` happens
//!   no later than the instance's termination (the deliveries due at the
//!   ack are made by the ack event itself, one receiver per step, right
//!   before the `ack`; deliveries still pending at an `abort` are
//!   cancelled, i.e. `ε_abort = 0`).
//! * **Ack correctness** — every reliable neighbor is delivered before the
//!   `ack` (policies that omit a reliable neighbor get it scheduled at the
//!   ack deadline); each instance terminates at most once.
//! * **Termination** — every instance gets an `ack` (or an `abort` by its
//!   sender) as long as the execution is run to idleness.
//! * **Ack bound** — the requested ack delay is clamped into `[1, F_ack]`.
//! * **Progress bound** — a window `(s, s+L]` with `L > F_prog` violates
//!   the bound only if some `G`-neighbor instance spans it **and** no
//!   receive from a *contending* instance (one not terminated before `s`)
//!   has occurred by its end. A past receive therefore *covers* every
//!   window that starts before its instance terminates. The runtime tracks,
//!   per receiver `j`: how many in-flight instances already delivered to
//!   `j` (its *live protectors* — while the count is non-zero, no window
//!   can violate), and the latest termination time `pf` among past
//!   protectors. When
//!   unprotected, the earliest violating window starts at
//!   `s = max(oldest connected start, pf)` and closes at `s + F_prog + 1`;
//!   the runtime schedules a forced delivery for that instant, chosen by
//!   the policy among in-flight `G′`-instances that have not yet delivered
//!   to `j` (this is where an adversary feeds duplicates). Such a candidate
//!   always exists when unprotected, since the spanning instance itself
//!   qualifies.
//!
//! ## Observation
//!
//! The runtime does not retain any view of its own execution. Every
//! MAC-level event is emitted to the attached [`Observer`]s (see
//! [`observer`](crate::observer)): attach a
//! [`TraceObserver`](crate::TraceObserver) for the full
//! [`Trace`](crate::trace::Trace), an
//! [`OnlineValidator`](crate::OnlineValidator) for streaming conformance
//! checking, or any custom observer. With no observers attached, the hot
//! path records nothing.
//!
//! ## Memory
//!
//! A node has at most one broadcast in flight (user well-formedness), so
//! the runtime keeps one broadcast slot per sender, not a record per
//! instance: its instance state is O(n + |E′|) however many instances a
//! run starts. The slot owns the payload and lends it to each receiver's
//! callback. Only deliveries due before the ack are events of the queue;
//! one due at the ack waits in the slot until the ack makes it.

use crate::config::MacConfig;
use crate::fault::{FaultKind, FaultPlan};
use crate::instance::InstanceId;
use crate::message::{MacMessage, MessageKey};
use crate::node::{Automaton, Command, Ctx};
use crate::observer::{Observer, ObserverHandle, ObserverSet};
use crate::policy::{BcastInfo, ForcedCandidate, Policy, PolicyCtx};
use crate::trace::{TraceEntry, TraceKind};
use amac_graph::{DualGraph, NodeId};
use amac_sim::stats::Counters;
use amac_sim::{Duration, EventId, EventQueue, FastHashSet, Time};
use std::collections::VecDeque;
use std::fmt;

/// Why a [`Runtime::run`] call returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// No deliverable events remain; the execution is quiescent.
    Idle,
    /// The next pending event lies beyond the requested time horizon.
    TimeLimit,
    /// The configured event-count safety cap was reached.
    EventLimit,
    /// The caller stopped the run (e.g. on problem completion) with events
    /// still pending.
    Stopped,
}

/// A problem-level output emitted by a node via [`Ctx::output`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutputRecord<O> {
    /// When the output was emitted.
    pub time: Time,
    /// The emitting node.
    pub node: NodeId,
    /// The output value.
    pub out: O,
}

enum Ev<E> {
    Start(NodeId),
    Env(NodeId, E),
    /// `(instance, sender, receiver)`.
    Deliver(InstanceId, NodeId, NodeId),
    /// `(instance, sender)`.
    AckDue(InstanceId, NodeId),
    ProgressCheck(NodeId),
    /// `(node, tag)`.
    Timer(NodeId, u64),
    Fault(NodeId, FaultKind),
}

/// One sender's broadcast slot: the state of its in-flight instance, if
/// any. The slot owns the payload from broadcast to termination and lends
/// it to each receiver's callback, so a delivery neither clones it nor
/// counts a reference. The two lists are cleared but keep their capacity,
/// so a slot stops allocating once it has held its largest broadcast.
struct Slot<M> {
    /// The in-flight instance, `None` between broadcasts.
    id: Option<InstanceId>,
    /// The payload while the instance is in flight, except while a
    /// receiver's callback borrows it.
    msg: Option<M>,
    key: MessageKey,
    start: Time,
    delivered: Vec<NodeId>,
    /// The receivers still owed a delivery, in planned order, each with
    /// its queue event; a receiver due at the ack has none, and the ack
    /// delivers it (see [`Runtime::ack_step`]).
    pending: VecDeque<(NodeId, Option<EventId>)>,
    ack_event: Option<EventId>,
}

impl<M> Slot<M> {
    /// Removes `to`'s pending delivery, returning its queue event if it
    /// has one.
    fn take_pending(&mut self, to: NodeId) -> Option<EventId> {
        let pos = self.pending.iter().position(|&(n, _)| n == to)?;
        self.pending.remove(pos).and_then(|(_, ev)| ev)
    }

    fn idle() -> Slot<M> {
        Slot {
            id: None,
            msg: None,
            key: MessageKey(0),
            start: Time::ZERO,
            delivered: Vec::new(),
            pending: VecDeque::new(),
            ack_event: None,
        }
    }
}

/// Hot-path event counters kept as plain fields — the string-keyed
/// [`Counters`] map costs a comparison walk per increment, which is
/// measurable at millions of events per second. Materialized into a
/// [`Counters`] on demand.
#[derive(Clone, Copy, Default)]
struct HotCounters {
    events: u64,
    env: u64,
    timer: u64,
    bcast: u64,
    rcv: u64,
    ack: u64,
    abort: u64,
    forced_rcv: u64,
    crash: u64,
    recover: u64,
}

impl HotCounters {
    fn materialize(&self) -> Counters {
        let mut counters = Counters::new();
        for (key, value) in [
            ("events", self.events),
            ("env", self.env),
            ("timer", self.timer),
            ("bcast", self.bcast),
            ("rcv", self.rcv),
            ("ack", self.ack),
            ("abort", self.abort),
            ("forced_rcv", self.forced_rcv),
            ("crash", self.crash),
            ("recover", self.recover),
        ] {
            if value > 0 {
                counters.add(key, value);
            }
        }
        counters
    }
}

/// The abstract MAC layer execution engine.
///
/// Generic over the node [`Automaton`] `A` and the scheduler [`Policy`]
/// `P`. Executions are fully deterministic given the topology, the node
/// states, and the policy (including any seeds it holds).
///
/// # Examples
///
/// See [`crate`] documentation for an end-to-end example.
pub struct Runtime<A: Automaton, P: Policy> {
    dual: DualGraph,
    config: MacConfig,
    nodes: Vec<A>,
    policy: P,
    queue: EventQueue<Ev<A::Env>>,
    /// Per sender: its broadcast slot.
    slots: Vec<Slot<A::Msg>>,
    /// Instances started so far, i.e. the next broadcast's id.
    started: u64,
    /// Per receiver: how many in-flight instances already delivered to it.
    live_protectors: Vec<u32>,
    /// Per receiver: latest termination time among past protectors.
    protected_until: Vec<Option<Time>>,
    /// Per receiver: the senders of the in-flight instances of its `G`-
    /// (`connected`) and `G′`-neighbors (`contending`), in ascending
    /// instance id. An instance usually terminates before every younger
    /// one, so its sender leaves from the front.
    connected: Vec<VecDeque<NodeId>>,
    contending: Vec<VecDeque<NodeId>>,
    check_scheduled: Vec<bool>,
    /// The sender whose ack is making its deliveries due at the ack, one
    /// per step, until the step that acks.
    flushing: Option<NodeId>,
    // Determinism policy: every collection whose *iteration order* can
    // reach execution (in particular `connected`/`contending`, which
    // build the forced-delivery candidate list handed to
    // `Policy::pick_forced`) must be ordered — here by instance id — or
    // indexed, so executions are bit-reproducible from the seed alone,
    // across processes and thread counts. `seen_keys` is membership
    // access only (never iterated), so a hashed set is safe and keeps
    // that hot-path lookup O(1).
    seen_keys: Vec<FastHashSet<MessageKey>>,
    crashed: Vec<bool>,
    outputs: Vec<OutputRecord<A::Out>>,
    observers: ObserverSet,
    counters: HotCounters,
    event_limit: u64,
    // Scratch buffers, recycled across events so the hot path does not
    // allocate per event. `cmd_pool` is a stack because callbacks nest
    // (apply → deliver → callback → apply).
    cmd_pool: Vec<Vec<Command<A::Msg, A::Out>>>,
    forced_scratch: Vec<ForcedCandidate>,
    delay_scratch: Vec<(NodeId, Duration)>,
}

impl<A: Automaton, P: Policy> Runtime<A, P> {
    /// Creates a runtime over `dual` with one automaton per node.
    ///
    /// No observers are attached: the execution records nothing about
    /// itself. Attach a [`TraceObserver`](crate::TraceObserver) for a full
    /// trace, or an [`OnlineValidator`](crate::OnlineValidator) for
    /// streaming conformance checking.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != dual.len()`.
    pub fn new(dual: DualGraph, config: MacConfig, nodes: Vec<A>, policy: P) -> Self {
        assert_eq!(
            nodes.len(),
            dual.len(),
            "need exactly one automaton per node"
        );
        let n = dual.len();
        let mut queue = EventQueue::new();
        for i in 0..n {
            queue.schedule(Time::ZERO, Ev::Start(NodeId::new(i)));
        }
        Runtime {
            dual,
            config,
            nodes,
            policy,
            queue,
            slots: (0..n).map(|_| Slot::idle()).collect(),
            started: 0,
            live_protectors: vec![0; n],
            protected_until: vec![None; n],
            connected: vec![VecDeque::new(); n],
            contending: vec![VecDeque::new(); n],
            check_scheduled: vec![false; n],
            flushing: None,
            seen_keys: vec![FastHashSet::default(); n],
            crashed: vec![false; n],
            outputs: Vec::new(),
            observers: ObserverSet::default(),
            counters: HotCounters::default(),
            event_limit: 200_000_000,
            cmd_pool: Vec::new(),
            forced_scratch: Vec::new(),
            delay_scratch: Vec::new(),
        }
    }

    /// Attaches an observer; every subsequent MAC-level event (and applied
    /// fault) is streamed to it. Returns a typed handle for
    /// [`observer`](Runtime::observer) / [`detach`](Runtime::detach).
    pub fn attach<O: Observer>(&mut self, observer: O) -> ObserverHandle<O> {
        self.observers.attach(observer)
    }

    /// Borrows an attached observer.
    ///
    /// # Panics
    ///
    /// Panics if the observer was already detached.
    pub fn observer<O: Observer>(&self, handle: &ObserverHandle<O>) -> &O {
        self.observers.get(handle)
    }

    /// Detaches an observer, returning it by value.
    ///
    /// # Panics
    ///
    /// Panics if the observer was already detached.
    pub fn detach<O: Observer>(&mut self, handle: ObserverHandle<O>) -> O {
        self.observers.detach(handle)
    }

    /// Sets the safety cap on processed events (default 2·10⁸).
    pub fn with_event_limit(mut self, limit: u64) -> Self {
        self.event_limit = limit;
        self
    }

    /// Arms a [`FaultPlan`]: each scheduled crash/recovery is applied at
    /// its time, emitted to the observers' fault channel, and enforced by
    /// the runtime (a crashed node neither broadcasts, acknowledges,
    /// receives, nor gets callbacks until it recovers; its in-flight
    /// broadcast is silenced at the crash, leaving prior deliveries
    /// standing).
    ///
    /// # Panics
    ///
    /// Panics if the plan names a node outside the topology.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        for e in plan.events() {
            assert!(
                e.node.index() < self.dual.len(),
                "fault plan names node {} outside the {}-node topology",
                e.node,
                self.dual.len()
            );
            self.queue.schedule(e.at, Ev::Fault(e.node, e.kind));
        }
        self
    }

    /// The topology this execution runs over.
    pub fn dual(&self) -> &DualGraph {
        &self.dual
    }

    /// The MAC configuration.
    pub fn config(&self) -> &MacConfig {
        &self.config
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.queue.now()
    }

    /// Read access to a node automaton (for completion checks in tests and
    /// harnesses).
    pub fn node(&self, id: NodeId) -> &A {
        &self.nodes[id.index()]
    }

    /// Number of message instances started so far.
    pub fn instances_started(&self) -> usize {
        self.started as usize
    }

    /// Event counters (`events`, `bcast`, `rcv`, `ack`, `abort`,
    /// `forced_rcv`, …), materialized from the runtime's plain-field hot
    /// counters (a per-event string-keyed map lookup was measurable).
    pub fn counters(&self) -> Counters {
        self.counters.materialize()
    }

    /// `true` while `node` is crashed (between an applied crash and any
    /// later recovery).
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed[node.index()]
    }

    /// All outputs emitted since the last [`drain_outputs`](Runtime::drain_outputs).
    pub fn outputs(&self) -> &[OutputRecord<A::Out>] {
        &self.outputs
    }

    /// Drains outputs emitted since the last call, keeping the buffer's
    /// capacity (harness loops call this per event step — no allocation).
    pub fn drain_outputs(&mut self) -> std::vec::Drain<'_, OutputRecord<A::Out>> {
        self.outputs.drain(..)
    }

    /// Schedules an environment input for `node` at the current time (use
    /// before the first [`step`](Runtime::step) for the paper's time-0
    /// `arrive` events, or mid-run for online arrivals).
    pub fn inject(&mut self, node: NodeId, input: A::Env) {
        let now = self.queue.now();
        self.queue.schedule(now, Ev::Env(node, input));
    }

    /// Schedules an environment input at an absolute future time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn inject_at(&mut self, at: Time, node: NodeId, input: A::Env) {
        self.queue.schedule(at, Ev::Env(node, input));
    }

    /// Processes a single event. Returns `false` when no events remain.
    pub fn step(&mut self) -> bool {
        self.step_through(Time::MAX)
    }

    /// Processes the next event if it is due no later than `horizon`: the
    /// next step of a flushing ack, else the queue's next event. Returns
    /// `false` if there is none.
    fn step_through(&mut self, horizon: Time) -> bool {
        if let Some(sender) = self.flushing {
            if self.queue.now() > horizon {
                return false;
            }
            self.counters.events += 1;
            self.ack_step(sender);
            return true;
        }
        let Some((_, ev)) = self.queue.pop_through(horizon) else {
            return false;
        };
        self.counters.events += 1;
        self.process(ev);
        true
    }

    /// Handles one popped event.
    fn process(&mut self, ev: Ev<A::Env>) {
        match ev {
            Ev::Start(node) => {
                if self.crashed[node.index()] {
                    return;
                }
                let cmds = self.callback(node, super::node::Automaton::on_start);
                self.apply(node, cmds);
            }
            Ev::Env(node, input) => {
                if self.crashed[node.index()] {
                    return; // inputs to a crashed node are lost
                }
                self.counters.env += 1;
                let cmds = self.callback(node, |n, ctx| n.on_env(input, ctx));
                self.apply(node, cmds);
            }
            Ev::Deliver(inst, from, to) => {
                // Skip an event that outlived its instance (the slot may
                // hold a newer one). Otherwise drop the pending entry for
                // this receiver — under FIFO deliveries it is the first;
                // the event already fired, so there is nothing to cancel.
                let slot = &mut self.slots[from.index()];
                if slot.id == Some(inst) {
                    slot.take_pending(to).expect("a fired delivery is pending");
                    self.deliver_core(from, to);
                }
            }
            Ev::AckDue(inst, from) => {
                if self.slots[from.index()].id == Some(inst) {
                    self.ack_step(from);
                }
            }
            Ev::ProgressCheck(node) => self.progress_check(node),
            Ev::Timer(node, tag) => {
                if self.crashed[node.index()] {
                    return; // timer firings during an outage are lost
                }
                self.counters.timer += 1;
                let cmds = self.callback(node, |n, ctx| n.on_timer(tag, ctx));
                self.apply(node, cmds);
            }
            Ev::Fault(node, FaultKind::Crash) => self.crash_node(node),
            Ev::Fault(node, FaultKind::Recover) => self.recover_node(node),
        }
    }

    /// Processes the next event if it lies within `horizon`: returns `None`
    /// after processing one event, or `Some(outcome)` when the run should
    /// stop. Lets harnesses interleave stepping with their own checks
    /// (completion detection, output draining).
    pub fn run_until_next(&mut self, horizon: Time) -> Option<RunOutcome> {
        if self.counters.events >= self.event_limit {
            return Some(RunOutcome::EventLimit);
        }
        if self.step_through(horizon) {
            None
        } else if self.flushing.is_none() && self.queue.is_empty() {
            Some(RunOutcome::Idle)
        } else {
            Some(RunOutcome::TimeLimit)
        }
    }

    /// Runs until quiescence or until the next event would lie beyond
    /// `horizon`.
    pub fn run_until(&mut self, horizon: Time) -> RunOutcome {
        loop {
            if let Some(outcome) = self.run_until_next(horizon) {
                return outcome;
            }
        }
    }

    /// Runs to quiescence (bounded by the event-count safety cap).
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(Time::MAX)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn callback<F>(&mut self, node: NodeId, f: F) -> Vec<Command<A::Msg, A::Out>>
    where
        F: FnOnce(&mut A, &mut Ctx<'_, A::Msg, A::Out>),
    {
        let now = self.queue.now();
        let commands = self.cmd_pool.pop().unwrap_or_default();
        debug_assert!(commands.is_empty());
        let mut ctx = Ctx {
            node,
            now,
            config: &self.config,
            dual: &self.dual,
            in_flight: self.slots[node.index()].id.is_some(),
            commands,
        };
        f(&mut self.nodes[node.index()], &mut ctx);
        ctx.commands
    }

    fn apply(&mut self, node: NodeId, mut commands: Vec<Command<A::Msg, A::Out>>) {
        for cmd in commands.drain(..) {
            match cmd {
                Command::Bcast(msg) => self.start_instance(node, msg),
                Command::Abort => self.abort_in_flight(node),
                Command::SetTimer { delay, tag } => {
                    self.queue.schedule_after(delay, Ev::Timer(node, tag));
                }
                Command::Output(out) => {
                    self.outputs.push(OutputRecord {
                        time: self.queue.now(),
                        node,
                        out,
                    });
                }
            }
        }
        self.cmd_pool.push(commands);
    }

    #[inline]
    fn emit(&mut self, inst: InstanceId, node: NodeId, kind: TraceKind, key: MessageKey) {
        self.observers.emit(&TraceEntry {
            time: self.queue.now(),
            instance: inst,
            node,
            kind,
            key,
        });
    }

    fn start_instance(&mut self, sender: NodeId, msg: A::Msg) {
        debug_assert!(
            !self.crashed[sender.index()],
            "crashed node {sender} cannot broadcast (callbacks are suppressed)"
        );
        assert!(
            self.slots[sender.index()].id.is_none(),
            "node {sender} issued a second bcast without ack/abort (user well-formedness)"
        );
        let now = self.queue.now();
        let id = InstanceId::new(self.started);
        self.started += 1;
        let key = msg.key();
        self.seen_keys[sender.index()].insert(key);
        self.counters.bcast += 1;

        let plan = {
            let ctx = PolicyCtx {
                dual: &self.dual,
                config: &self.config,
                now,
            };
            self.policy.plan_bcast(
                &ctx,
                &BcastInfo {
                    instance: id,
                    sender,
                    key,
                },
            )
        };

        let f_ack = self.config.f_ack();
        let ack_delay = plan.ack_delay.max(Duration::TICK).min(f_ack);

        // Delivery delays: reliable neighbors default to the plan's
        // uniform delivery delay (the ack deadline when unset); individual
        // policy overrides are clamped into [0, ack_delay]. `delays` is a
        // recycled scratch buffer.
        let default_delay = plan.reliable_default.unwrap_or(ack_delay).min(ack_delay);
        let mut delays = std::mem::take(&mut self.delay_scratch);
        debug_assert!(delays.is_empty());
        delays.extend(
            self.dual
                .reliable_neighbors(sender)
                .iter()
                .map(|&j| (j, default_delay)),
        );
        for (j, d) in &plan.reliable {
            if let Some(slot) = delays.iter_mut().find(|(n, _)| n == j) {
                slot.1 = (*d).min(ack_delay);
            }
        }
        // A receiver listed twice keeps its first entry: each receiver has
        // at most one pending delivery, which `deliver_core` relies on.
        let reliable = delays.len();
        for (j, d) in &plan.unreliable {
            if self.dual.unreliable_neighbors(sender).contains(j)
                && !delays[reliable..].iter().any(|(n, _)| n == j)
            {
                delays.push((*j, (*d).min(ack_delay)));
            }
        }

        self.emit(id, sender, TraceKind::Bcast, key);

        // A delivery due at the ack gets no event: the ack makes it, in the
        // step its event would have taken (see `ack_step`).
        let slot = &mut self.slots[sender.index()];
        debug_assert!(slot.pending.is_empty() && slot.delivered.is_empty());
        for (j, d) in delays.drain(..) {
            if self.crashed[j.index()] {
                continue; // a crashed receiver gets nothing
            }
            let ev =
                (d < ack_delay).then(|| self.queue.schedule(now + d, Ev::Deliver(id, sender, j)));
            slot.pending.push_back((j, ev));
        }
        self.delay_scratch = delays;
        let ack_event = self.queue.schedule(now + ack_delay, Ev::AckDue(id, sender));
        slot.id = Some(id);
        slot.msg = Some(msg);
        slot.key = key;
        slot.start = now;
        slot.ack_event = Some(ack_event);

        // The new instance has the largest id in flight, so appending keeps
        // the sender lists in ascending instance id.
        for &j in self.dual.reliable_neighbors(sender) {
            self.connected[j.index()].push_back(sender);
        }
        for &j in self.dual.all_neighbors(sender) {
            self.contending[j.index()].push_back(sender);
        }
        for i in 0..self.dual.reliable_neighbors(sender).len() {
            let j = self.dual.reliable_neighbors(sender)[i];
            self.ensure_check(j);
        }
    }

    /// The earliest instant at which the progress bound could be violated
    /// for receiver `j`, or `None` while no violation is possible (no
    /// spanning `G`-neighbor instance, or a live protector exists).
    fn deadline(&self, j: NodeId) -> Option<Time> {
        if self.crashed[j.index()] {
            // The progress bound is conditioned on the receiver's liveness.
            return None;
        }
        let oldest = *self.connected[j.index()].front()?;
        if self.live_protectors[j.index()] > 0 {
            // Some in-flight instance already delivered to j: every window
            // starting before its termination is covered.
            return None;
        }
        let b_min = self.slots[oldest.index()].start;
        let s = match self.protected_until[j.index()] {
            Some(pf) => b_min.max(pf),
            None => b_min,
        };
        Some(s + self.config.f_prog() + Duration::TICK)
    }

    fn ensure_check(&mut self, j: NodeId) {
        if self.check_scheduled[j.index()] {
            return;
        }
        if let Some(d) = self.deadline(j) {
            let at = d.max(self.queue.now());
            self.queue.schedule(at, Ev::ProgressCheck(j));
            self.check_scheduled[j.index()] = true;
        }
    }

    fn progress_check(&mut self, j: NodeId) {
        self.check_scheduled[j.index()] = false;
        let now = self.queue.now();
        let Some(d) = self.deadline(j) else {
            return;
        };
        if now < d {
            self.ensure_check(j);
            return;
        }
        // The progress bound is due: force a delivery. Every in-flight
        // contender is a candidate: j is unprotected, so none of them has
        // delivered to it, and the spanning connected instance is among
        // them. `connected[j]` is a subsequence of `contending[j]` in the
        // same order, so a cursor into it finds the reliable links.
        // `candidates` is a recycled scratch buffer.
        let mut candidates = std::mem::take(&mut self.forced_scratch);
        debug_assert!(candidates.is_empty());
        let connected = &self.connected[j.index()];
        let mut next_connected = 0;
        candidates.extend(self.contending[j.index()].iter().map(|&sender| {
            let slot = &self.slots[sender.index()];
            debug_assert!(!slot.delivered.contains(&j), "{sender} protects {j}");
            let reliable_link = connected.get(next_connected) == Some(&sender);
            next_connected += usize::from(reliable_link);
            ForcedCandidate {
                instance: slot.id.expect("contending senders are in flight"),
                sender,
                key: slot.key,
                start: slot.start,
                duplicate_for_receiver: self.seen_keys[j.index()].contains(&slot.key),
                reliable_link,
            }
        }));
        debug_assert!(
            next_connected == connected.len() && next_connected > 0,
            "the connected senders of unprotected {j} are contending"
        );
        let idx = {
            let ctx = PolicyCtx {
                dual: &self.dual,
                config: &self.config,
                now,
            };
            let i = self.policy.pick_forced(&ctx, j, &candidates);
            if i < candidates.len() {
                i
            } else {
                0
            }
        };
        let chosen = candidates[idx].sender;
        candidates.clear();
        self.forced_scratch = candidates;
        self.counters.forced_rcv += 1;
        // Cancel the planned delivery (if any) and deliver now.
        if let Some(ev) = self.slots[chosen.index()].take_pending(j) {
            self.queue.cancel(ev);
        }
        self.deliver_core(chosen, j);
        self.ensure_check(j);
    }

    /// Delivers `from`'s in-flight instance to `to`. Callers deliver only
    /// a pending receiver or a forced candidate, and neither has been
    /// delivered yet.
    fn deliver_core(&mut self, from: NodeId, to: NodeId) {
        if self.crashed[to.index()] {
            return; // defensive: deliveries to crashed nodes are cancelled
        }
        let slot = &mut self.slots[from.index()];
        let Some(inst) = slot.id else {
            return;
        };
        debug_assert!(
            !slot.delivered.contains(&to),
            "{to} already received {inst}"
        );
        slot.delivered.push(to);
        let key = slot.key;
        // Lend the payload to the receiver's callback. The receiver is not
        // the sender, and a callback only buffers commands, so nothing
        // looks for the payload in the slot until it is back.
        let msg = slot.msg.take().expect("live instance holds its payload");
        self.counters.rcv += 1;
        self.emit(inst, to, TraceKind::Rcv, key);
        self.seen_keys[to.index()].insert(key);
        // The delivering instance is in flight, so it now protects `to`
        // from progress violations until it terminates.
        self.live_protectors[to.index()] += 1;
        let cmds = self.callback(to, |n, ctx| n.on_receive(&msg, ctx));
        self.slots[from.index()].msg = Some(msg);
        self.apply(to, cmds);
    }

    /// One step of `sender`'s ack: its next delivery due at the ack, or
    /// the ack once none is left. The `AckDue` event takes the first step
    /// and `flushing` names the sender until the last, so that
    /// [`step`](Runtime::step) and [`run_until_next`](Runtime::run_until_next)
    /// take the rest before the queue's next event. Each delivery takes
    /// the step its own event would have: those events were due at the
    /// ack's time, just before it in the queue's order.
    fn ack_step(&mut self, sender: NodeId) {
        match self.slots[sender.index()].pending.pop_front() {
            Some((to, ev)) => {
                debug_assert!(ev.is_none(), "{sender} acks before a delivery due earlier");
                self.flushing = Some(sender);
                self.deliver_core(sender, to);
            }
            None => {
                self.flushing = None;
                self.ack_instance(sender);
            }
        }
    }

    fn ack_instance(&mut self, sender: NodeId) {
        debug_assert!(
            self.slots[sender.index()].pending.is_empty(),
            "every rcv precedes the ack"
        );
        let (inst, key, msg) = self.terminate(sender);
        self.counters.ack += 1;
        self.emit(inst, sender, TraceKind::Ack, key);
        let cmds = self.callback(sender, |n, ctx| n.on_ack(&msg, ctx));
        self.apply(sender, cmds);
    }

    fn abort_in_flight(&mut self, node: NodeId) {
        assert!(
            self.slots[node.index()].id.is_some(),
            "node {node} aborted with no broadcast in flight"
        );
        let (inst, key, _) = self.terminate(node);
        self.counters.abort += 1;
        self.emit(inst, node, TraceKind::Abort, key);
    }

    /// Ends `sender`'s in-flight instance (ack, abort or crash): cancels
    /// its remaining deliveries and its ack, empties its slot and drops it
    /// from its neighbors' sender lists. Deliveries already made stand.
    /// Returns the instance, its key and its payload.
    fn terminate(&mut self, sender: NodeId) -> (InstanceId, MessageKey, A::Msg) {
        fn unlist(senders: &mut VecDeque<NodeId>, sender: NodeId) {
            if senders.front() == Some(&sender) {
                senders.pop_front();
            } else {
                let pos = senders.iter().position(|&s| s == sender);
                senders.remove(pos.expect("in-flight sender is listed"));
            }
        }
        let slot = &mut self.slots[sender.index()];
        let inst = slot.id.take().expect("terminated instance is in flight");
        for (_, ev) in slot.pending.drain(..) {
            if let Some(ev) = ev {
                self.queue.cancel(ev);
            }
        }
        if let Some(ev) = slot.ack_event.take() {
            self.queue.cancel(ev);
        }
        let msg = slot.msg.take().expect("live instance holds its payload");
        let (key, mut receivers) = (slot.key, std::mem::take(&mut slot.delivered));
        for &j in self.dual.reliable_neighbors(sender) {
            unlist(&mut self.connected[j.index()], sender);
        }
        for &j in self.dual.all_neighbors(sender) {
            unlist(&mut self.contending[j.index()], sender);
        }
        // Receivers protected by this instance lose that protection at its
        // termination time; their next possible violation window starts
        // here, so (re)arm their progress checks.
        let now = self.queue.now();
        for &j in &receivers {
            self.live_protectors[j.index()] -= 1;
            let pf = &mut self.protected_until[j.index()];
            *pf = Some(pf.map_or(now, |t| t.max(now)));
            self.ensure_check(j);
        }
        receivers.clear();
        self.slots[sender.index()].delivered = receivers;
        (inst, key, msg)
    }

    /// Applies a crash: silences the node's in-flight broadcast (pending
    /// deliveries and the ack are cancelled, deliveries already made
    /// stand), cancels every delivery still headed to the node, and
    /// suppresses all of its future callbacks until recovery.
    fn crash_node(&mut self, v: NodeId) {
        if self.crashed[v.index()] {
            return;
        }
        self.crashed[v.index()] = true;
        self.counters.crash += 1;
        let now = self.queue.now();
        self.observers.emit_fault(now, v, FaultKind::Crash);
        // Silence the node's own broadcast in flight. No event marks this:
        // the crash itself is emitted to the observers' fault channel.
        if self.slots[v.index()].id.is_some() {
            self.terminate(v);
        }
        // Cancel deliveries still headed to the crashed node. Only slots
        // in flight hold pending deliveries, so this costs O(n) per crash
        // however many instances the run has created.
        for slot in &mut self.slots {
            if let Some(ev) = slot.take_pending(v) {
                self.queue.cancel(ev);
            }
        }
    }

    /// Applies a recovery: the node's automaton state is intact, its
    /// `on_recover` callback runs, and its progress-bound tracking re-arms
    /// (in-flight broadcasts of `G`-neighbors resume entitling it to
    /// forced deliveries). A no-op for a node that is not crashed.
    fn recover_node(&mut self, v: NodeId) {
        if !self.crashed[v.index()] {
            return;
        }
        self.crashed[v.index()] = false;
        self.counters.recover += 1;
        let now = self.queue.now();
        self.observers.emit_fault(now, v, FaultKind::Recover);
        // A window uncovered while crashed does not count against the
        // model: the next possible violation starts at the recovery.
        if self.live_protectors[v.index()] > 0 {
            // Still protected by an in-flight instance received pre-crash.
        } else if !self.connected[v.index()].is_empty() {
            let pf = &mut self.protected_until[v.index()];
            *pf = Some(pf.map_or(now, |t| t.max(now)));
        }
        self.ensure_check(v);
        let cmds = self.callback(v, super::node::Automaton::on_recover);
        self.apply(v, cmds);
    }
}

impl<A: Automaton, P: Policy> fmt::Debug for Runtime<A, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("nodes", &self.nodes.len())
            .field("now", &self.queue.now())
            .field("instances", &self.started)
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{CounterObserver, TraceObserver};
    use crate::policies::{EagerPolicy, LazyPolicy, RandomPolicy};
    use crate::policy::BcastPlan;
    use amac_graph::generators;
    use amac_sim::SimRng;
    use proptest::prelude::*;

    #[derive(Clone, Debug)]
    struct Token(u64);
    impl MacMessage for Token {
        fn key(&self) -> MessageKey {
            MessageKey(self.0)
        }
    }

    /// Floods a single token: the source broadcasts on start; every node
    /// forwards the first copy it receives.
    struct Flooder {
        is_source: bool,
        got: Option<u64>,
    }

    impl Automaton for Flooder {
        type Msg = Token;
        type Env = ();
        type Out = u64;

        fn on_start(&mut self, ctx: &mut Ctx<'_, Token, u64>) {
            if self.is_source {
                self.got = Some(7);
                ctx.output(7);
                ctx.bcast(Token(7));
            }
        }

        fn on_receive(&mut self, msg: &Token, ctx: &mut Ctx<'_, Token, u64>) {
            if self.got.is_none() {
                self.got = Some(msg.0);
                ctx.output(msg.0);
                if !ctx.has_broadcast_in_flight() {
                    ctx.bcast(msg.clone());
                }
            }
        }

        fn on_ack(&mut self, _msg: &Token, _ctx: &mut Ctx<'_, Token, u64>) {}
    }

    fn line_dual(n: usize) -> DualGraph {
        DualGraph::reliable(amac_graph::generators::line(n).unwrap())
    }

    fn flooders(n: usize) -> Vec<Flooder> {
        (0..n)
            .map(|i| Flooder {
                is_source: i == 0,
                got: None,
            })
            .collect()
    }

    #[test]
    fn flood_reaches_every_node() {
        let dual = line_dual(10);
        let cfg = MacConfig::from_ticks(2, 16);
        let mut rt = Runtime::new(dual, cfg, flooders(10), EagerPolicy::new());
        assert_eq!(rt.run(), RunOutcome::Idle);
        assert_eq!(rt.outputs().len(), 10, "all nodes delivered the token");
        for i in 0..10 {
            assert_eq!(rt.node(NodeId::new(i)).got, Some(7));
        }
    }

    #[test]
    fn trace_is_recorded_and_consistent() {
        let dual = line_dual(5);
        let cfg = MacConfig::from_ticks(2, 16);
        let mut rt = Runtime::new(dual, cfg, flooders(5), EagerPolicy::new());
        let tracer = rt.attach(TraceObserver::new());
        rt.run();
        let trace = rt.observer(&tracer).trace();
        assert_eq!(trace.count(TraceKind::Bcast), 5);
        assert_eq!(trace.count(TraceKind::Ack), 5);
        assert!(trace.count(TraceKind::Rcv) >= 4);
    }

    #[test]
    fn counters_track_events() {
        let dual = line_dual(4);
        let cfg = MacConfig::from_ticks(2, 16);
        let mut rt = Runtime::new(dual, cfg, flooders(4), EagerPolicy::new());
        rt.run();
        assert_eq!(rt.counters().get("bcast"), 4);
        assert_eq!(rt.counters().get("ack"), 4);
        assert!(rt.counters().get("events") > 0);
    }

    #[test]
    fn observers_attach_detach_and_stream_events() {
        let dual = line_dual(4);
        let cfg = MacConfig::from_ticks(2, 16);
        let mut rt = Runtime::new(dual, cfg, flooders(4), EagerPolicy::new());
        let counters = rt.attach(CounterObserver::new());
        let tracer = rt.attach(TraceObserver::new());
        rt.run();
        assert_eq!(rt.observer(&counters).count(TraceKind::Bcast), 4);
        assert_eq!(
            rt.observer(&counters).total(),
            rt.observer(&tracer).trace().len() as u64,
            "both observers saw the same stream"
        );
        let trace = rt.detach(tracer).into_trace();
        assert_eq!(trace.count(TraceKind::Ack), 4);
        // Runtime-level counters agree with the observer.
        assert_eq!(rt.counters().get("bcast"), 4);
        assert_eq!(rt.detach(counters).count(TraceKind::Ack), 4);
    }

    #[test]
    fn run_until_respects_horizon() {
        let dual = line_dual(50);
        let cfg = MacConfig::from_ticks(2, 16);
        let mut rt = Runtime::new(dual, cfg, flooders(50), EagerPolicy::new());
        let outcome = rt.run_until(Time::from_ticks(5));
        assert_eq!(outcome, RunOutcome::TimeLimit);
        assert!(rt.now() <= Time::from_ticks(5));
        assert_eq!(rt.run(), RunOutcome::Idle);
        assert_eq!(rt.outputs().len(), 50);
    }

    #[test]
    fn event_limit_stops_execution() {
        let dual = line_dual(30);
        let cfg = MacConfig::from_ticks(2, 16);
        let mut rt = Runtime::new(dual, cfg, flooders(30), EagerPolicy::new()).with_event_limit(10);
        assert_eq!(rt.run(), RunOutcome::EventLimit);
    }

    #[test]
    fn default_runtime_records_no_trace() {
        let dual = line_dual(3);
        let cfg = MacConfig::from_ticks(2, 16);
        let mut rt = Runtime::new(dual, cfg, flooders(3), EagerPolicy::new());
        rt.run();
        assert!(rt.observers.is_empty(), "tracing is opt-in");
    }

    #[test]
    fn drain_outputs_keeps_capacity_and_order() {
        let dual = line_dual(6);
        let cfg = MacConfig::from_ticks(2, 16);
        let mut rt = Runtime::new(dual, cfg, flooders(6), EagerPolicy::new());
        let mut drained = Vec::new();
        loop {
            match rt.run_until_next(Time::MAX) {
                Some(_) => break,
                None => drained.extend(rt.drain_outputs()),
            }
        }
        drained.extend(rt.drain_outputs());
        assert_eq!(drained.len(), 6);
        assert!(rt.outputs().is_empty());
        assert!(drained.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn env_injection_dispatches() {
        struct EnvNode {
            seen: Vec<u32>,
        }
        impl Automaton for EnvNode {
            type Msg = Token;
            type Env = u32;
            type Out = ();
            fn on_env(&mut self, input: u32, _ctx: &mut Ctx<'_, Token, ()>) {
                self.seen.push(input);
            }
            fn on_receive(&mut self, _m: &Token, _c: &mut Ctx<'_, Token, ()>) {}
            fn on_ack(&mut self, _m: &Token, _c: &mut Ctx<'_, Token, ()>) {}
        }
        let dual = line_dual(2);
        let cfg = MacConfig::from_ticks(1, 4);
        let nodes = vec![EnvNode { seen: vec![] }, EnvNode { seen: vec![] }];
        let mut rt = Runtime::new(dual, cfg, nodes, EagerPolicy::new());
        rt.inject(NodeId::new(0), 11);
        rt.inject_at(Time::from_ticks(3), NodeId::new(1), 22);
        rt.run();
        assert_eq!(rt.node(NodeId::new(0)).seen, vec![11]);
        assert_eq!(rt.node(NodeId::new(1)).seen, vec![22]);
    }

    #[test]
    #[should_panic(expected = "user well-formedness")]
    fn double_bcast_panics() {
        struct Bad;
        impl Automaton for Bad {
            type Msg = Token;
            type Env = ();
            type Out = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, Token, ()>) {
                ctx.bcast(Token(1));
                ctx.bcast(Token(2));
            }
            fn on_receive(&mut self, _m: &Token, _c: &mut Ctx<'_, Token, ()>) {}
            fn on_ack(&mut self, _m: &Token, _c: &mut Ctx<'_, Token, ()>) {}
        }
        let dual = line_dual(2);
        let cfg = MacConfig::from_ticks(1, 4);
        let mut rt = Runtime::new(dual, cfg, vec![Bad, Bad], EagerPolicy::new());
        rt.run();
    }

    #[test]
    #[should_panic(expected = "requires the enhanced abstract MAC layer")]
    fn timers_require_enhanced_variant() {
        struct Timed;
        impl Automaton for Timed {
            type Msg = Token;
            type Env = ();
            type Out = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, Token, ()>) {
                ctx.set_timer(Duration::from_ticks(1), 0);
            }
            fn on_receive(&mut self, _m: &Token, _c: &mut Ctx<'_, Token, ()>) {}
            fn on_ack(&mut self, _m: &Token, _c: &mut Ctx<'_, Token, ()>) {}
        }
        let dual = line_dual(2);
        let cfg = MacConfig::from_ticks(1, 4); // standard variant
        let mut rt = Runtime::new(dual, cfg, vec![Timed, Timed], EagerPolicy::new());
        rt.run();
    }

    #[test]
    fn enhanced_timer_fires_and_abort_works() {
        struct RoundNode {
            fired: bool,
            aborted: bool,
        }
        impl Automaton for RoundNode {
            type Msg = Token;
            type Env = ();
            type Out = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, Token, ()>) {
                if ctx.id().index() == 0 {
                    ctx.bcast(Token(1));
                    ctx.set_timer(Duration::from_ticks(3), 42);
                }
            }
            fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, Token, ()>) {
                assert_eq!(tag, 42);
                self.fired = true;
                if ctx.has_broadcast_in_flight() {
                    ctx.abort();
                    self.aborted = true;
                }
            }
            fn on_receive(&mut self, _m: &Token, _c: &mut Ctx<'_, Token, ()>) {}
            fn on_ack(&mut self, _m: &Token, _c: &mut Ctx<'_, Token, ()>) {}
        }
        let dual = line_dual(2);
        // Lazy ack: use a policy with a long ack so the abort lands first.
        let cfg = MacConfig::from_ticks(2, 100).enhanced();
        let nodes = vec![
            RoundNode {
                fired: false,
                aborted: false,
            },
            RoundNode {
                fired: false,
                aborted: false,
            },
        ];
        let mut rt = Runtime::new(dual, cfg, nodes, crate::policies::LazyPolicy::new());
        let tracer = rt.attach(TraceObserver::new());
        rt.run();
        assert!(rt.node(NodeId::new(0)).fired);
        assert!(rt.node(NodeId::new(0)).aborted);
        let trace = rt.observer(&tracer).trace();
        assert_eq!(trace.count(TraceKind::Abort), 1);
        assert_eq!(trace.count(TraceKind::Ack), 0);
    }

    #[test]
    fn crash_silences_the_source_before_delivery() {
        // The source broadcasts at t=0 under the lazy policy (deliveries
        // held to the forced-progress schedule); crashing it at t=1 —
        // before any forced delivery is due — must silence the flood.
        let dual = line_dual(5);
        let cfg = MacConfig::from_ticks(3, 60);
        let plan = FaultPlan::new().crash_at(NodeId::new(0), Time::from_ticks(1));
        let mut rt = Runtime::new(
            dual.clone(),
            cfg,
            flooders(5),
            crate::policies::LazyPolicy::new(),
        )
        .with_faults(plan);
        let tracer = rt.attach(TraceObserver::new());
        let validator = rt.attach(crate::OnlineValidator::new(dual, cfg));
        assert_eq!(rt.run(), RunOutcome::Idle);
        assert_eq!(rt.outputs().len(), 1, "only the source itself delivered");
        assert!(rt.is_crashed(NodeId::new(0)));
        assert_eq!(rt.counters().get("crash"), 1);
        assert_eq!(rt.counters().get("rcv"), 0);
        let trace = rt.observer(&tracer).trace();
        assert_eq!(trace.faults().len(), 1);
        assert_eq!(trace.count(TraceKind::Ack), 0);
        let report = rt.detach(validator).into_report(true);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn mid_instance_crash_leaves_partial_delivery_standing() {
        // Star: the hub floods, the eager policy delivers after one tick
        // (t=1) and would ack at t=2; the crash lands at t=2 but was
        // enqueued before the ack, so the deliveries stand and the ack is
        // silenced — and the trace is still valid.
        let dual = DualGraph::reliable(amac_graph::generators::star(4).unwrap());
        let cfg = MacConfig::from_ticks(2, 16);
        let nodes = flooders(4);
        let plan = FaultPlan::new().crash_at(NodeId::new(0), Time::from_ticks(2));
        let mut rt = Runtime::new(dual.clone(), cfg, nodes, EagerPolicy::new()).with_faults(plan);
        let tracer = rt.attach(TraceObserver::new());
        let validator = rt.attach(crate::OnlineValidator::new(dual, cfg));
        rt.run();
        // Same-tick ordering: deliveries at t=1 were scheduled before the
        // crash at t=1, so the leaves hear the token; the ack (t=2) does
        // not fire.
        let trace = rt.observer(&tracer).trace();
        assert_eq!(trace.of_kind(TraceKind::Rcv).count(), 3);
        assert_eq!(
            trace
                .of_kind(TraceKind::Ack)
                .filter(|e| e.node == NodeId::new(0))
                .count(),
            0,
            "the crashed hub never acks"
        );
        let report = rt.detach(validator).into_report(true);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn crashed_receiver_gets_nothing_until_recovery() {
        struct Recoverer {
            is_source: bool,
            got: Option<u64>,
            recovered: bool,
        }
        impl Automaton for Recoverer {
            type Msg = Token;
            type Env = ();
            type Out = u64;
            fn on_start(&mut self, ctx: &mut Ctx<'_, Token, u64>) {
                if self.is_source {
                    ctx.bcast(Token(9));
                }
            }
            fn on_receive(&mut self, msg: &Token, ctx: &mut Ctx<'_, Token, u64>) {
                self.got = Some(msg.0);
                ctx.output(msg.0);
            }
            fn on_ack(&mut self, _m: &Token, ctx: &mut Ctx<'_, Token, u64>) {
                // Keep rebroadcasting so the recovered neighbor can catch
                // up via the progress bound.
                if self.is_source {
                    ctx.bcast(Token(9));
                }
            }
            fn on_recover(&mut self, _ctx: &mut Ctx<'_, Token, u64>) {
                self.recovered = true;
            }
        }
        let dual = line_dual(2);
        let cfg = MacConfig::from_ticks(2, 8);
        let nodes = vec![
            Recoverer {
                is_source: true,
                got: None,
                recovered: false,
            },
            Recoverer {
                is_source: false,
                got: None,
                recovered: false,
            },
        ];
        let plan = FaultPlan::new()
            .crash_at(NodeId::new(1), Time::ZERO)
            .recover_at(NodeId::new(1), Time::from_ticks(20));
        let mut rt = Runtime::new(dual.clone(), cfg, nodes, EagerPolicy::new())
            .with_faults(plan)
            .with_event_limit(5_000);
        let tracer = rt.attach(TraceObserver::new());
        rt.run_until(Time::from_ticks(40));
        let receiver = rt.node(NodeId::new(1));
        assert!(receiver.recovered, "on_recover must run");
        assert_eq!(receiver.got, Some(9), "catches up after recovery");
        let first_rcv = rt
            .observer(&tracer)
            .trace()
            .of_kind(TraceKind::Rcv)
            .map(|e| e.time)
            .next()
            .unwrap();
        assert!(
            first_rcv >= Time::from_ticks(20),
            "no delivery during the outage, got one at {first_rcv}"
        );
        assert_eq!(rt.counters().get("recover"), 1);
    }

    #[test]
    fn lazy_policy_progress_forced_delivery() {
        // With a lazy policy on a line, the progress bound must still make
        // the token advance one hop every F_prog, not every F_ack.
        let dual = line_dual(6);
        let cfg = MacConfig::from_ticks(3, 60);
        let mut rt = Runtime::new(dual, cfg, flooders(6), crate::policies::LazyPolicy::new());
        rt.run();
        assert_eq!(rt.outputs().len(), 6);
        // Node 5 is 5 hops away: it must receive by roughly 5*F_prog plus
        // slack, far below 5*F_ack = 300.
        let last = rt.outputs().iter().map(|o| o.time).max().unwrap();
        assert!(
            last.ticks() <= 5 * 3 + 10,
            "token should travel at F_prog speed, took {last:?}"
        );
        assert!(rt.counters().get("forced_rcv") > 0);
    }

    /// Checks the per-receiver bookkeeping against the slots: for every
    /// receiver `j`, `connected[j]`/`contending[j]` are the senders of the
    /// in-flight instances among `j`'s `G`-/`G′`-neighbors in ascending
    /// instance id, and `live_protectors[j]` counts the in-flight
    /// instances that delivered to `j`. Idle slots hold no instance state,
    /// and a slot's pending receivers are distinct and not yet delivered.
    /// A flushing ack names an in-flight slot whose pending receivers are
    /// all due at the ack, with no queue event.
    fn assert_consistent<A: Automaton, P: Policy>(rt: &Runtime<A, P>) {
        let in_flight = |neighbors: &[NodeId]| {
            let mut senders = neighbors.to_vec();
            senders.retain(|s| rt.slots[s.index()].id.is_some());
            senders.sort_by_key(|s| rt.slots[s.index()].id);
            senders
        };
        for (i, slot) in rt.slots.iter().enumerate() {
            let live = slot.id.is_some();
            assert_eq!(
                live,
                slot.msg.is_some() && slot.ack_event.is_some(),
                "slot {i}"
            );
            assert!(
                live || slot.pending.is_empty() && slot.delivered.is_empty(),
                "slot {i}"
            );
            let mut pending: Vec<NodeId> = slot.pending.iter().map(|&(j, _)| j).collect();
            pending.sort_unstable();
            pending.dedup();
            assert_eq!(pending.len(), slot.pending.len(), "slot {i} pending twice");
            assert!(
                pending.iter().all(|j| !slot.delivered.contains(j)),
                "slot {i} pending after delivery"
            );
        }
        if let Some(sender) = rt.flushing {
            let slot = &rt.slots[sender.index()];
            assert!(slot.id.is_some(), "idle slot {sender} flushing");
            assert!(
                slot.pending.iter().all(|&(_, ev)| ev.is_none()),
                "slot {sender} flushes a delivery that has an event"
            );
        }
        for i in 0..rt.dual.len() {
            let j = NodeId::new(i);
            let connected = in_flight(rt.dual.reliable_neighbors(j));
            assert_eq!(rt.connected[i], connected, "connected[{j}]");
            let contending = in_flight(rt.dual.all_neighbors(j));
            assert_eq!(rt.contending[i], contending, "contending[{j}]");
            let slots = rt.slots.iter();
            let protectors = slots.filter(|s| s.id.is_some() && s.delivered.contains(&j));
            assert_eq!(
                rt.live_protectors[i] as usize,
                protectors.count(),
                "protectors of {j}"
            );
        }
    }

    /// Broadcasts `budget` times in a row: on start, on every ack, and on
    /// recovery. A node that hears an odd key while its own broadcast is in
    /// flight aborts it for the next one, so runs mix acks and aborts.
    struct Talker {
        budget: u64,
    }

    impl Talker {
        fn next(&mut self, ctx: &mut Ctx<'_, Token, u64>) {
            if self.budget > 0 && !ctx.has_broadcast_in_flight() {
                self.budget -= 1;
                ctx.bcast(Token(self.budget % 4));
            }
        }
    }

    impl Automaton for Talker {
        type Msg = Token;
        type Env = ();
        type Out = u64;
        fn on_start(&mut self, ctx: &mut Ctx<'_, Token, u64>) {
            self.next(ctx);
        }
        fn on_receive(&mut self, msg: &Token, ctx: &mut Ctx<'_, Token, u64>) {
            if msg.0 % 2 == 1 && ctx.has_broadcast_in_flight() {
                ctx.abort();
                self.next(ctx);
            }
        }
        fn on_ack(&mut self, _msg: &Token, ctx: &mut Ctx<'_, Token, u64>) {
            self.next(ctx);
        }
        fn on_recover(&mut self, ctx: &mut Ctx<'_, Token, u64>) {
            self.next(ctx);
        }
    }

    /// `n` talkers with a broadcast budget each, over a line, ring, star
    /// or grid `G` plus up to `extra` unreliable edges, under the eager,
    /// lazy or random policy.
    fn talk(
        (topo, policy): (u8, u8),
        n: usize,
        extra: usize,
        budget: u64,
        rng: &mut SimRng,
    ) -> Runtime<Talker, Box<dyn Policy>> {
        let g = match topo % 4 {
            0 => generators::line(n),
            1 => generators::ring(n),
            2 => generators::star(n),
            _ => generators::grid(2, n.div_ceil(2)),
        };
        let dual = generators::arbitrary_augment(g.unwrap(), extra, rng).unwrap();
        let nodes = (0..dual.len()).map(|_| Talker { budget }).collect();
        let policy: Box<dyn Policy> = match policy % 3 {
            0 => Box::new(EagerPolicy::new().with_unreliable(0.5, rng.next())),
            1 => Box::new(LazyPolicy::new().prefer_duplicates()),
            _ => Box::new(RandomPolicy::new(rng.next())),
        };
        let f_prog = 1 + rng.below(3);
        let cfg = MacConfig::from_ticks(f_prog, f_prog * (1 + rng.below(6))).enhanced();
        Runtime::new(dual, cfg, nodes, policy)
    }

    #[test]
    fn long_run_keeps_instance_state_bounded_by_the_topology() {
        let mut rt = talk((1, 2), 6, 3, 17_000, &mut SimRng::seed(14)).with_faults(
            FaultPlan::new()
                .crash_at(NodeId::new(2), Time::from_ticks(5_000))
                .recover_at(NodeId::new(2), Time::from_ticks(5_100)),
        );
        assert_eq!(rt.run(), RunOutcome::Idle);
        assert!(
            rt.instances_started() >= 100_000,
            "{}",
            rt.instances_started()
        );
        assert!(rt.counters().get("abort") > 0 && rt.counters().get("crash") == 1);
        assert_consistent(&rt);
        assert!(rt.slots.iter().all(|s| s.id.is_none()));
        assert!(rt
            .connected
            .iter()
            .chain(&rt.contending)
            .all(VecDeque::is_empty));
        assert!(rt.live_protectors.iter().all(|&c| c == 0));
        // Each list holds at most deg′(v) entries, so with its doubling
        // (minimum capacity 4) each of the four families' total capacity is
        // at most Σ 4·deg′(v) = 8·|E′|, however many instances ran.
        let slots = rt.slots.iter();
        let lists = rt.connected.iter().chain(&rt.contending);
        let capacity: usize = slots
            .map(|s| s.delivered.capacity() + s.pending.capacity())
            .sum::<usize>()
            + lists.map(VecDeque::capacity).sum::<usize>();
        let edges = rt.dual.g_prime().edge_count();
        assert!(
            capacity <= 32 * edges,
            "capacity {capacity} for |E′| = {edges}"
        );
    }

    #[test]
    fn a_receiver_listed_twice_receives_once() {
        /// Lists every unreliable neighbor twice, at two delays.
        struct Stutter;
        impl Policy for Stutter {
            fn plan_bcast(&mut self, ctx: &PolicyCtx<'_>, info: &BcastInfo) -> BcastPlan {
                let unreliable = ctx.dual.unreliable_neighbors(info.sender).iter();
                let twice = unreliable.flat_map(|&j| [1, 2].map(|d| (j, Duration::from_ticks(d))));
                BcastPlan {
                    ack_delay: Duration::from_ticks(3),
                    reliable_default: Some(Duration::TICK),
                    reliable: Vec::new(),
                    unreliable: twice.collect(),
                }
            }
        }
        let n = 5;
        let dual = DualGraph::new(
            generators::line(n).unwrap(),
            generators::complete(n).unwrap(),
        )
        .unwrap();
        let cfg = MacConfig::from_ticks(2, 16);
        let mut rt = Runtime::new(dual.clone(), cfg, flooders(n), Stutter);
        let tracer = rt.attach(TraceObserver::new());
        let validator = rt.attach(crate::OnlineValidator::new(dual, cfg));
        while rt.step() {
            assert_consistent(&rt);
        }
        let report = rt.detach(validator).into_report(true);
        assert!(report.is_ok(), "{report}");
        let trace = rt.observer(&tracer).trace();
        let mut rcvs: Vec<_> = trace
            .of_kind(TraceKind::Rcv)
            .map(|e| (e.instance, e.node))
            .collect();
        rcvs.sort_unstable();
        rcvs.dedup();
        assert_eq!(
            rcvs.len(),
            trace.count(TraceKind::Rcv),
            "one rcv per receiver"
        );
        assert_eq!(rcvs.len(), (n - 1) * trace.count(TraceKind::Bcast));
    }

    #[test]
    fn a_flushing_ack_honors_the_horizon_and_the_event_limit() {
        // With F_prog = F_ack no delivery is forced before the ack, so the
        // lazy policy leaves all three leaves of the hub's flood due at it.
        let dual = DualGraph::reliable(generators::star(4).unwrap());
        let cfg = MacConfig::from_ticks(8, 8);
        let mut rt = Runtime::new(dual, cfg, flooders(4), LazyPolicy::new());
        while rt.flushing.is_none() {
            assert!(rt.step());
        }
        let (now, events) = (rt.now(), rt.counters().get("events"));
        assert_eq!(now, Time::from_ticks(8));
        let before = Time::from_ticks(7);
        assert_eq!(rt.run_until_next(before), Some(RunOutcome::TimeLimit));
        let mut rt = rt.with_event_limit(events);
        assert_eq!(rt.run_until_next(now), Some(RunOutcome::EventLimit));
        assert_eq!(rt.counters().get("events"), events);
        assert_eq!(rt.counters().get("rcv"), 1, "one leaf per step");
        let mut rt = rt.with_event_limit(u64::MAX);
        assert_eq!(rt.run_until(now), RunOutcome::TimeLimit);
        assert_eq!(rt.counters().get("rcv"), 3);
        assert_eq!(rt.counters().get("ack"), 1);
        assert_eq!(rt.run(), RunOutcome::Idle);
        assert_eq!(rt.outputs().len(), 4);
    }

    /// Cases per property in `cargo test`.
    const CASES: u32 = 64;

    /// Cases per property in the long run, the `#[ignore]`d copies below:
    /// `cargo test --release -p amac-mac --lib -- --ignored`.
    const LONG_CASES: u32 = 10_000;

    /// A [`talk`] fixture with up to `crashes` crashes inside its first
    /// ten `F_ack`, each recovered later with probability ½.
    #[derive(Debug)]
    struct Faulted {
        seed: u64,
        topo: u8,
        policy: u8,
        n: usize,
        extra: usize,
        budget: u64,
        crashes: usize,
    }

    fn faulted() -> impl Strategy<Value = Faulted> {
        (
            (0u64..1_000_000, 0u8..4, 0u8..3),
            (3usize..9, 0usize..6, 1u64..8, 0usize..4),
        )
            .prop_map(
                |((seed, topo, policy), (n, extra, budget, crashes))| Faulted {
                    seed,
                    topo,
                    policy,
                    n,
                    extra,
                    budget,
                    crashes,
                },
            )
    }

    impl Faulted {
        fn runtime(&self) -> Runtime<Talker, Box<dyn Policy>> {
            let mut rng = SimRng::seed(self.seed);
            let fixture = (self.topo, self.policy);
            let rt = talk(fixture, self.n, self.extra, self.budget, &mut rng);
            let (n, window) = (rt.dual.len() as u64, 10 * rt.config.f_ack().ticks());
            let mut plan = FaultPlan::new();
            for _ in 0..self.crashes {
                let (node, at) = (NodeId::new(rng.below(n) as usize), rng.below(window));
                plan = plan.crash_at(node, Time::from_ticks(at));
                if rng.chance(0.5) {
                    plan = plan.recover_at(node, Time::from_ticks(at + 1 + rng.below(window)));
                }
            }
            rt.with_faults(plan)
        }
    }

    /// The per-receiver bookkeeping matches the slots after every event,
    /// under every policy, with crashes and recoveries.
    fn bookkeeping_matches_the_slots(case: &Faulted) -> Result<(), TestCaseError> {
        let mut rt = case.runtime();
        while rt.step() {
            assert_consistent(&rt);
        }
        prop_assert!(rt.slots.iter().all(|s| s.id.is_none()));
        prop_assert!(rt.live_protectors.iter().all(|&c| c == 0));
        Ok(())
    }

    /// A step handles one event, as harnesses that stop between steps
    /// rely on: it emits at most one `rcv`, and an `ack` never shares its
    /// step with a `rcv` of its own instance (the deliveries due at an
    /// ack take a step each, before it).
    fn steps_emit_one_rcv_and_acks_alone(case: &Faulted) -> Result<(), TestCaseError> {
        let mut rt = case.runtime();
        let tracer = rt.attach(TraceObserver::new());
        let mut seen = 0;
        while rt.run_until_next(Time::MAX).is_none() {
            let entries = rt.observer(&tracer).trace().entries();
            let step = &entries[seen..];
            seen = entries.len();
            let is_rcv = |e: &&TraceEntry| e.kind == TraceKind::Rcv;
            prop_assert!(
                step.iter().filter(is_rcv).count() <= 1,
                "{case:?}: {step:?}"
            );
            for ack in step.iter().filter(|e| e.kind == TraceKind::Ack) {
                let own = step
                    .iter()
                    .filter(is_rcv)
                    .any(|e| e.instance == ack.instance);
                prop_assert!(!own, "{case:?}: {step:?}");
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        #[test]
        fn receiver_bookkeeping_matches_the_slots_after_every_step(case in faulted()) {
            bookkeeping_matches_the_slots(&case)?;
        }

        #[test]
        fn each_step_emits_at_most_one_rcv_and_never_one_with_its_ack(case in faulted()) {
            steps_emit_one_rcv_and_acks_alone(&case)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(LONG_CASES))]

        #[test]
        #[ignore = "long run: --release -- --ignored"]
        fn long_run_receiver_bookkeeping_matches_the_slots(case in faulted()) {
            bookkeeping_matches_the_slots(&case)?;
        }

        #[test]
        #[ignore = "long run: --release -- --ignored"]
        fn long_run_each_step_emits_at_most_one_rcv(case in faulted()) {
            steps_emit_one_rcv_and_acks_alone(&case)?;
        }
    }
}
