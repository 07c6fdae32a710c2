//! Streaming (online) validation of the MAC-layer guarantees.
//!
//! [`OnlineValidator`] is an [`Observer`] that checks the guarantees of
//! paper Section 3.2.1 *incrementally, as the events happen*, instead of
//! over a retained [`Trace`]:
//!
//! 1. **receive correctness** — receivers are `G′`-neighbors of the sender,
//!    at most one `rcv` per (instance, receiver), no `rcv` after the
//!    instance's termination;
//! 2. **acknowledgment correctness** — every `G`-neighbor receives before
//!    the `ack`; at most one terminating event per instance; acks go to the
//!    sender;
//! 3. **termination** — every instance terminates (checked only for
//!    executions flagged as run to quiescence);
//! 4. **acknowledgment bound** — `ack − bcast ≤ F_ack`;
//! 5. **progress bound** — no silent window longer than `F_prog` at a node
//!    while a `G`-neighbor's instance spans it;
//!
//! plus **user well-formedness** (no overlapping broadcasts per sender).
//! Under a [`FaultPlan`](crate::FaultPlan) every guarantee is conditioned
//! on the liveness of the nodes involved, exactly as the runtime enforces
//! it: a sender crashed within `F_ack` of its broadcast owes no
//! termination, a receiver crashed during an instance's lifetime is owed
//! no delivery, progress windows count only while the receiver is alive
//! throughout, and a node acting strictly inside one of its crash
//! intervals is a [`Violation::ActionWhileCrashed`].
//!
//! ## Memory model
//!
//! The validator never stores the event stream. Its state at any instant
//! is proportional to the *in-flight* portion of the execution, not its
//! length:
//!
//! * one record per **live instance** (broadcast, not yet terminated) —
//!   at most one per sender by user well-formedness;
//! * one record per **recently retired instance**, kept only until the
//!   clock passes its termination time by `F_ack` (the window within
//!   which any straggler event of that instance must fall), so late
//!   `rcv`s and double terminations are still classified exactly;
//! * **progress state per receiver** (its connected live instances and
//!   protector count mirror what the runtime itself maintains to
//!   *enforce* the bound) plus **one armed deadline per receiver** in a
//!   min-heap.
//!   A receiver whose state changes is queued once per tick and its
//!   deadline is recomputed when the clock moves, so a tick in which many
//!   instances deliver and terminate pushes at most one heap entry per
//!   receiver, however often its protection flips;
//! * the (small) node fault log, and the violations found.
//!
//! Per-instance state is retired at termination; [`OnlineStats`] reports
//! the observed peaks so harnesses can assert the bound. An execution
//! with millions of events therefore validates in memory proportional to
//! its concurrency, which is what makes `n = 10⁴`-node sweeps (and the
//! ROADMAP's larger ambitions) validatable at all.
//!
//! ## Cost per event
//!
//! On a runtime's stream every event costs O(1), apart from the work per
//! neighbor that starting and ending a broadcast needs. The fallbacks that
//! keep any other stream exact cost O(log degree) per lookup:
//!
//! * a **`bcast`** appends its instance to each `G`-neighbor's connected
//!   list, O(deg_G). A runtime broadcasts in ascending `(start, id)`, so
//!   the instance sorts last; one that does not (several broadcasts of a
//!   hand-built tick in descending ids) is inserted in order;
//! * a **`rcv`** costs one hash lookup of its instance (it names only the
//!   receiver) and O(1) more. A runtime mostly delivers in ascending
//!   receiver order, so the receiver is appended to the instance's sorted
//!   deliveries and is found among the sender's `G`-neighbors at a cursor
//!   just past the previous receiver. A receiver below an earlier one is
//!   searched for and inserted in order instead, and one outside `G` is
//!   also searched for among the `G′`-only neighbors;
//! * an **`ack`** is O(1) to check when its count of distinct reliable
//!   receivers equals `deg_G(sender)`; only a shortfall walks the neighbor
//!   list to name the missing receivers and excuse the crashed ones.
//!   Retiring any instance is O(deg_G + deliveries): each neighbor's
//!   connected list drops it from the front (instances retire roughly
//!   oldest first) or else by binary search, and each receiver it
//!   protected loses that protection;
//! * an event in the **same tick** as the one before does no clock work
//!   (the argument is on the private `advance`), and only a `bcast`, the
//!   one event that can raise the peaks of [`OnlineStats`], updates them.
//!
//! Advancing the clock arms the receivers queued in the tick and fires the
//! deadlines that closed, O(log receivers) per heap entry.
//!
//! ## The reference oracle
//!
//! The integration tests of this crate hold a post-hoc oracle
//! (`tests/oracle/mod.rs`) that re-derives the same guarantees from a
//! whole trace at once. On any trace the [`Runtime`](crate::Runtime) can
//! produce — including under crash/recovery fault plans — this validator
//! reports exactly the oracle's violation set (property-tested in
//! `tests/fault_conformance.rs`), and both give every hand-built trace in
//! the table of `tests/hand_built/mod.rs` its expected verdict. On *hand-built*
//! pathological streams the two can classify differently at the margins,
//! by construction of the memory model:
//!
//! * an event referencing an instance terminated more than `F_ack` ago
//!   (impossible for a runtime: every event of an instance falls within
//!   `F_ack` of its broadcast) reports [`Violation::MissingBcast`] rather
//!   than a post-termination violation — either way it is rejected;
//! * a `rcv` recorded *after* its instance's termination does not count
//!   toward progress coverage (the oracle, seeing the whole trace at once,
//!   lets it cover windows before the termination);
//! * progress windows are judged against the stream's own clock: a
//!   hand-built trace whose entries simply stop while a window is open is
//!   judged by the fault events that follow, where the oracle caps every
//!   span at the last *entry* (the table's
//!   `late_crash_does_not_excuse_an_overdue_ack` row).

use crate::config::MacConfig;
use crate::fault::FaultKind;
use crate::instance::InstanceId;
use crate::observer::Observer;
use crate::trace::{Trace, TraceEntry, TraceKind};
use crate::validator::{ValidationReport, Violation};
use amac_graph::{DualGraph, NodeId};
use amac_sim::{Duration, Time};
use amac_sim::{FastHashMap, FastHashSet};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Peak-memory statistics of one finished [`OnlineValidator`] run, used to
/// assert the streaming-memory contract in tests and to report "peak
/// in-flight state" in the `scale` experiment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OnlineStats {
    /// Maximum number of live (broadcast, not yet terminated) instances
    /// tracked at once.
    pub peak_live: usize,
    /// Maximum number of instance records held at once: live plus
    /// recently-retired (retained for `F_ack` past termination).
    pub peak_tracked: usize,
    /// Total MAC-level events processed.
    pub events: u64,
}

struct LiveInstance {
    sender: NodeId,
    start: Time,
    /// Receivers delivered so far (sorted), `G′`-neighbors or not.
    delivered: Vec<NodeId>,
    /// How many of `delivered` are `G`-neighbors of the sender.
    reliable: usize,
    /// Position in the sender's `G` adjacency of the first neighbor above
    /// every receiver delivered so far.
    next: usize,
}

struct RetiredInstance {
    sender: NodeId,
    /// `true` for an `ack`/`abort` termination, `false` for a
    /// crash-silenced instance (which has no terminating event).
    by_event: bool,
    delivered: Vec<NodeId>,
}

/// Per-receiver progress-bound state, mirroring the runtime's own
/// enforcement bookkeeping (`live_protectors` / `protected_until` /
/// `connected`) but with the model's exact window boundaries.
#[derive(Default)]
struct RxState {
    /// Live instances of reliable neighbors that could span a window for
    /// this receiver, sorted by (start, id); an instance is removed at
    /// termination — or when a progress violation has been reported for
    /// this (instance, receiver) pair, so each pair reports at most once.
    /// A deque because instances retire roughly oldest first.
    connected: VecDeque<(Time, InstanceId)>,
    /// Live instances that have delivered to this receiver. While any
    /// exists, no window can close uncovered.
    protectors: usize,
    /// Earliest admissible uncovered-window start: one past the latest
    /// past-protector termination, or the latest recovery, whichever is
    /// later.
    floor: Time,
    /// Invalidates stale deadline-heap entries.
    epoch: u64,
    /// The deadline currently armed in the heap (with the current epoch),
    /// if any. Invariant: `armed == Some(d)` iff the heap holds a live
    /// `(d, receiver, epoch)` entry.
    armed: Option<Time>,
    /// `true` while the receiver waits in the validator's `rearm_queue`
    /// for its deadline to be recomputed when the clock moves.
    queued: bool,
}

#[derive(Default)]
struct NodeFaults {
    /// Crash intervals `[crash, recover)` in time order; an open interval
    /// ends at `Time::MAX`. Boundary instants are permissive: an event at
    /// exactly the crash or recovery tick counts as live.
    intervals: Vec<(Time, Time)>,
}

impl NodeFaults {
    fn crashed_strictly_at(&self, t: Time) -> bool {
        // Only the last interval can contain the (non-decreasing) current
        // time.
        self.intervals.last().is_some_and(|&(c, r)| c < t && t < r)
    }

    fn overlaps(&self, lo: Time, hi: Time) -> bool {
        self.intervals.iter().any(|&(c, r)| c <= hi && r > lo)
    }
}

/// Queues receiver `j` once for re-arming (see `OnlineValidator::rearm`).
fn queue_rearm(rx: &mut [RxState], queue: &mut Vec<usize>, j: usize) {
    if !rx[j].queued {
        rx[j].queued = true;
        queue.push(j);
    }
}

/// Streaming validator of the five MAC-layer guarantees (see the
/// [module docs](self) for the guarantees, the memory model and the
/// margins against the test oracle).
///
/// Attach to a [`Runtime`](crate::Runtime) like any observer; when the run
/// is over, [`detach`](crate::Runtime::detach) it and call
/// [`into_report`](OnlineValidator::into_report).
///
/// # Examples
///
/// ```
/// use amac_mac::{MacConfig, OnlineValidator, Runtime, policies::LazyPolicy};
/// # use amac_mac::{Automaton, Ctx, MacMessage, MessageKey};
/// # use amac_graph::{generators, DualGraph, NodeId};
/// # #[derive(Clone, Debug)]
/// # struct T;
/// # impl MacMessage for T { fn key(&self) -> MessageKey { MessageKey(0) } }
/// # struct Hop { seen: bool }
/// # impl Automaton for Hop {
/// #     type Msg = T; type Env = (); type Out = ();
/// #     fn on_start(&mut self, ctx: &mut Ctx<'_, T, ()>) {
/// #         if ctx.id() == NodeId::new(0) { self.seen = true; ctx.bcast(T); }
/// #     }
/// #     fn on_receive(&mut self, _: &T, ctx: &mut Ctx<'_, T, ()>) {
/// #         if !self.seen { self.seen = true; ctx.bcast(T); }
/// #     }
/// #     fn on_ack(&mut self, _: &T, _: &mut Ctx<'_, T, ()>) {}
/// # }
/// let dual = DualGraph::reliable(generators::line(6)?);
/// let cfg = MacConfig::from_ticks(2, 30);
/// let nodes = (0..6).map(|_| Hop { seen: false }).collect();
/// let mut rt = Runtime::new(dual.clone(), cfg, nodes, LazyPolicy::new());
/// let validator = rt.attach(OnlineValidator::new(dual, cfg));
/// rt.run();
/// let report = rt.detach(validator).into_report(true);
/// assert!(report.is_ok(), "{report}");
/// # Ok::<(), amac_graph::GraphError>(())
/// ```
pub struct OnlineValidator {
    dual: DualGraph,
    config: MacConfig,
    /// Clock of the merged event+fault stream.
    now: Time,
    /// Time of the last MAC-level *event* (the horizon at which open
    /// progress windows stop being judged).
    horizon: Time,
    /// Live instances by id. Hashed: per-event lookups are hot, and the
    /// only iteration (leftover instances at finish) sorts its keys.
    live: FastHashMap<InstanceId, LiveInstance>,
    in_flight_of: Vec<Option<InstanceId>>,
    retired: FastHashMap<InstanceId, RetiredInstance>,
    /// Retired ids with their prune deadlines (`term + F_ack`), in
    /// non-decreasing deadline order.
    retire_queue: VecDeque<(Time, InstanceId)>,
    rx: Vec<RxState>,
    /// Receivers whose progress state changed in the current tick, each
    /// once; armed when the clock moves.
    rearm_queue: Vec<usize>,
    /// Min-heap of `(deadline, receiver, epoch)` progress deadlines; an
    /// entry whose epoch is no longer its receiver's is stale.
    deadlines: BinaryHeap<Reverse<(Time, usize, u64)>>,
    faults: Vec<NodeFaults>,
    crashed: Vec<bool>,
    violations: Vec<Violation>,
    /// Instances silenced by a sender crash *after* the ack window closed:
    /// a live sender would have terminated them, so they are reported as
    /// missing terminations if the execution is flagged quiescent.
    late_crash_unterminated: Vec<InstanceId>,
    orphans: FastHashSet<InstanceId>,
    events: u64,
    peak_live: usize,
    peak_tracked: usize,
}

impl OnlineValidator {
    /// Creates a validator for executions over `dual` under `config`.
    pub fn new(dual: DualGraph, config: MacConfig) -> OnlineValidator {
        let n = dual.len();
        OnlineValidator {
            dual,
            config,
            now: Time::ZERO,
            horizon: Time::ZERO,
            live: FastHashMap::default(),
            in_flight_of: vec![None; n],
            retired: FastHashMap::default(),
            retire_queue: VecDeque::new(),
            rx: (0..n).map(|_| RxState::default()).collect(),
            rearm_queue: Vec::new(),
            deadlines: BinaryHeap::new(),
            faults: (0..n).map(|_| NodeFaults::default()).collect(),
            crashed: vec![false; n],
            violations: Vec::new(),
            late_crash_unterminated: Vec::new(),
            orphans: FastHashSet::default(),
            events: 0,
            peak_live: 0,
            peak_tracked: 0,
        }
    }

    /// Feeds a recorded trace through a fresh validator and returns its
    /// report — the entry point for anyone holding a trace rather than a
    /// live runtime, such as this crate's oracle comparisons. Entries and
    /// fault records are merged by time; at equal times faults go first,
    /// matching the runtime's scheduling order (fault events are enqueued
    /// at plan time, before the execution's own events).
    pub fn replay(
        trace: &Trace,
        dual: &DualGraph,
        config: &MacConfig,
        quiescent: bool,
    ) -> ValidationReport {
        let mut validator = OnlineValidator::new(dual.clone(), *config);
        let entries = trace.entries();
        let faults = trace.faults();
        let (mut e, mut f) = (0, 0);
        while e < entries.len() || f < faults.len() {
            let fault_first =
                f < faults.len() && (e >= entries.len() || faults[f].time <= entries[e].time);
            if fault_first {
                let rec = faults[f];
                validator.on_fault(rec.time, rec.node, rec.kind);
                f += 1;
            } else {
                validator.on_event(&entries[e]);
                e += 1;
            }
        }
        validator.into_report(quiescent)
    }

    /// Violations found so far (more may follow until
    /// [`into_report`](Self::into_report) runs the end-of-execution
    /// checks).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Peak-memory statistics observed so far.
    pub fn stats(&self) -> OnlineStats {
        OnlineStats {
            peak_live: self.peak_live,
            peak_tracked: self.peak_tracked,
            events: self.events,
        }
    }

    /// Finishes the validation and returns the report. Set `quiescent`
    /// when the execution ran to idleness, enabling the termination check
    /// (guarantee 3); truncated executions skip it.
    pub fn into_report(mut self, quiescent: bool) -> ValidationReport {
        // Progress windows that closed strictly before the horizon are
        // due; windows still open at the horizon are not judged.
        self.arm_queued();
        self.fire_deadlines(self.horizon);
        if quiescent {
            let mut unterminated: Vec<InstanceId> = self.live.keys().copied().collect();
            unterminated.extend(self.late_crash_unterminated.iter().copied());
            unterminated.sort_unstable();
            for instance in unterminated {
                self.violations
                    .push(Violation::MissingTermination { instance });
            }
        }
        ValidationReport::from_violations(self.violations)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// The progress window length: a silent span strictly longer than
    /// `F_prog` (i.e. of `F_prog + 1` ticks) is a violation.
    fn window(&self) -> Duration {
        self.config.f_prog() + Duration::TICK
    }

    /// Advances the stream clock to `t`: arms the deadlines of the
    /// receivers whose state changed at the old clock, fires progress
    /// deadlines that closed strictly before `t` and prunes retired
    /// instances whose straggler window has passed.
    ///
    /// Within a tick (`t == now`) there is nothing to do: the previous
    /// advance left no armed deadline and no prune deadline before the
    /// clock, handlers only queue re-arms, and a retire pushes a prune
    /// deadline `F_ack` past the clock.
    fn advance(&mut self, t: Time) {
        if t == self.now {
            return;
        }
        if t > self.now {
            self.arm_queued();
        }
        self.fire_deadlines(t);
        while let Some(&(deadline, id)) = self.retire_queue.front() {
            if deadline >= t {
                break;
            }
            self.retire_queue.pop_front();
            self.retired.remove(&id);
        }
        self.now = t;
    }

    /// Pops and judges every armed deadline strictly before `t`. An armed
    /// deadline whose epoch is still current means the receiver has been
    /// continuously unprotected while a connected instance spanned the
    /// window — the window closed uncovered.
    fn fire_deadlines(&mut self, t: Time) {
        while let Some(&Reverse((deadline, j, epoch))) = self.deadlines.peek() {
            if deadline >= t {
                break;
            }
            self.deadlines.pop();
            if self.rx[j].epoch != epoch {
                continue; // stale: state changed since this was armed
            }
            debug_assert_eq!(self.rx[j].armed, Some(deadline));
            let (start, instance) = self.rx[j].connected[0];
            let window_start = start.max(self.rx[j].floor);
            self.violations.push(Violation::ProgressViolation {
                receiver: NodeId::new(j),
                instance,
                window_start,
            });
            // One report per (instance, receiver) pair: this pair stops
            // participating. The next window
            // may already have closed before `t`, so it is armed at once.
            self.rx[j].connected.pop_front();
            self.rx[j].armed = None;
            self.arm(j);
        }
    }

    fn deadline(&self, j: usize) -> Option<Time> {
        if self.crashed[j] || self.rx[j].protectors > 0 {
            return None;
        }
        let &(start, _) = self.rx[j].connected.front()?;
        Some(start.max(self.rx[j].floor) + self.window())
    }

    /// Queues receiver `j`, once per tick, for [`arm`](Self::arm) when the
    /// clock moves. Deferring is exact: outside `fire_deadlines` a
    /// recomputed deadline never lies before the clock (a retire raises
    /// the floor past it, a first connected instance starts at it, a
    /// recovery raises the floor to it, and dropping the oldest connected
    /// instance never lowers the deadline), and a deadline fires only once
    /// the clock has moved past it — so only the receiver's state at the
    /// end of the tick can fire.
    fn rearm(&mut self, j: usize) {
        queue_rearm(&mut self.rx, &mut self.rearm_queue, j);
    }

    /// Arms every queued receiver.
    fn arm_queued(&mut self) {
        let mut queue = std::mem::take(&mut self.rearm_queue);
        for j in queue.drain(..) {
            self.rx[j].queued = false;
            self.arm(j);
        }
        self.rearm_queue = queue;
    }

    /// Recomputes receiver `j`'s deadline and re-arms the heap if it
    /// changed. A no-op when the armed deadline is already correct, so
    /// state churn that leaves the deadline alone costs nothing. Leaving a
    /// superseded entry in the heap and recomputing the deadline when it
    /// pops saves no push: at perfbench seed 1 that variant pushed exactly
    /// as many entries per validator with the per-tick deferral of
    /// [`rearm`](Self::rearm) (214,565 on `fmmb_greyzone`, 4,039 on
    /// `consensus_crash_recorded`) and more without it (250,352 and
    /// 8,059), because each deadline moves at most once before it pops.
    fn arm(&mut self, j: usize) {
        let deadline = self.deadline(j);
        if deadline == self.rx[j].armed {
            return;
        }
        self.rx[j].epoch += 1;
        self.rx[j].armed = deadline;
        if let Some(d) = deadline {
            self.deadlines.push(Reverse((d, j, self.rx[j].epoch)));
        }
    }

    fn track_peaks(&mut self) {
        self.peak_live = self.peak_live.max(self.live.len());
        self.peak_tracked = self.peak_tracked.max(self.live.len() + self.retired.len());
    }

    fn orphan(&mut self, instance: InstanceId) {
        if self.orphans.insert(instance) {
            self.violations.push(Violation::MissingBcast { instance });
        }
    }

    fn handle_bcast(&mut self, e: &TraceEntry) {
        let id = e.instance;
        if self.live.contains_key(&id) || self.retired.contains_key(&id) {
            self.violations
                .push(Violation::DuplicateBcast { instance: id });
            return;
        }
        if let Some(first) = self.in_flight_of[e.node.index()] {
            self.violations.push(Violation::OverlappingBcasts {
                sender: e.node,
                first,
                second: id,
            });
        }
        self.in_flight_of[e.node.index()] = Some(id);
        let entry = (e.time, id);
        let (rx, rearm_queue) = (&mut self.rx, &mut self.rearm_queue);
        for &j in self.dual.reliable_neighbors(e.node) {
            // A runtime broadcasts in ascending (start, id), so the new
            // instance almost always sorts last.
            let connected = &mut rx[j.index()].connected;
            if connected.back().map_or(true, |&last| last < entry) {
                connected.push_back(entry);
            } else {
                let at = connected.partition_point(|&other| other < entry);
                connected.insert(at, entry);
            }
            queue_rearm(rx, rearm_queue, j.index());
        }
        let inst = LiveInstance {
            sender: e.node,
            start: e.time,
            delivered: Vec::new(),
            reliable: 0,
            next: 0,
        };
        // A broadcast in the same tick as its sender's crash (the runtime
        // processes time-0 wake-ups before same-tick faults; a replayed
        // stream merges faults first) is silenced on the spot: the crash
        // caps the instance at its own start, exempting it from
        // termination.
        if self.crashed[e.node.index()]
            && self.faults[e.node.index()]
                .intervals
                .last()
                .is_some_and(|&(c, _)| c == e.time)
        {
            self.retire(id, inst, e.time, false);
        } else {
            self.live.insert(id, inst);
        }
    }

    fn handle_rcv(&mut self, e: &TraceEntry) {
        let id = e.instance;
        let receiver = e.node;
        if let Some(inst) = self.live.get_mut(&id) {
            // A runtime mostly delivers in ascending receiver order: then
            // the receiver sorts last among those delivered, and it is
            // looked for only among the reliable neighbors above them,
            // where it usually comes first.
            let reliable = self.dual.reliable_neighbors(inst.sender);
            let appends = inst.delivered.last().map_or(true, |&last| last < receiver);
            let is_reliable = if appends {
                let above = &reliable[inst.next..];
                let at = if above.first() == Some(&receiver) {
                    Ok(0)
                } else {
                    above.binary_search(&receiver)
                };
                // `next` moves past the receiver's place, found or not.
                match at {
                    Ok(p) => inst.next += p + 1,
                    Err(p) => inst.next += p,
                }
                at.is_ok()
            } else {
                reliable.binary_search(&receiver).is_ok()
            };
            if !is_reliable
                && (self.dual.unreliable_neighbors(inst.sender))
                    .binary_search(&receiver)
                    .is_err()
            {
                self.violations.push(Violation::RcvToNonNeighbor {
                    instance: id,
                    receiver,
                });
            }
            let fresh = if appends {
                inst.delivered.push(receiver);
                true
            } else if let Err(at) = inst.delivered.binary_search(&receiver) {
                inst.delivered.insert(at, receiver);
                true
            } else {
                false
            };
            if fresh {
                inst.reliable += usize::from(is_reliable);
                self.rx[receiver.index()].protectors += 1;
                self.rearm(receiver.index());
            } else {
                self.violations.push(Violation::DuplicateRcv {
                    instance: id,
                    receiver,
                });
            }
        } else if let Some(inst) = self.retired.get(&id) {
            if !self.dual.g_prime().has_edge(inst.sender, receiver) {
                self.violations.push(Violation::RcvToNonNeighbor {
                    instance: id,
                    receiver,
                });
            }
            if inst.delivered.binary_search(&receiver).is_ok() {
                self.violations.push(Violation::DuplicateRcv {
                    instance: id,
                    receiver,
                });
            }
            if inst.by_event {
                self.violations.push(Violation::RcvAfterTermination {
                    instance: id,
                    receiver,
                });
            }
        } else {
            self.orphan(id);
        }
    }

    fn handle_termination(&mut self, e: &TraceEntry) {
        let id = e.instance;
        let Some(inst) = self.live.remove(&id) else {
            if self.retired.contains_key(&id) {
                self.violations
                    .push(Violation::MultipleTerminations { instance: id });
            } else {
                self.orphan(id);
            }
            return;
        };
        if e.node != inst.sender {
            self.violations.push(Violation::TerminationByNonSender {
                instance: id,
                node: e.node,
            });
        }
        if e.kind == TraceKind::Ack {
            let reliable = self.dual.reliable_neighbors(inst.sender);
            // A full count of reliable receivers leaves none missing; only
            // a shortfall walks the neighbor list.
            if inst.reliable < reliable.len() {
                for &receiver in reliable {
                    // A receiver crashed at any point of the instance's
                    // lifetime is exempt: its delivery may have been
                    // silenced.
                    if inst.delivered.binary_search(&receiver).is_err()
                        && !self.faults[receiver.index()].overlaps(inst.start, e.time)
                    {
                        self.violations.push(Violation::MissingReliableDelivery {
                            instance: id,
                            receiver,
                        });
                    }
                }
            }
            let delay = e.time.saturating_since(inst.start).ticks();
            if delay > self.config.f_ack().ticks() {
                self.violations.push(Violation::AckBoundExceeded {
                    instance: id,
                    delay,
                });
            }
        }
        self.retire(id, inst, e.time, true);
    }

    /// Retires instance `id`, already out of `live`, at `term`: releases
    /// its progress state (connected spans end, protected receivers
    /// convert to floor updates) and parks a straggler record for `F_ack`.
    fn retire(&mut self, id: InstanceId, inst: LiveInstance, term: Time, by_event: bool) {
        if self.in_flight_of[inst.sender.index()] == Some(id) {
            self.in_flight_of[inst.sender.index()] = None;
        }
        let entry = (inst.start, id);
        let (rx, rearm_queue) = (&mut self.rx, &mut self.rearm_queue);
        for &j in self.dual.reliable_neighbors(inst.sender) {
            // Instances retire roughly oldest first, so the entry is
            // usually at the front. It may be absent if a progress
            // violation already reported this pair.
            let connected = &mut rx[j.index()].connected;
            if connected.front() == Some(&entry) {
                connected.pop_front();
            } else if let Ok(at) = connected.binary_search(&entry) {
                connected.remove(at);
            }
            queue_rearm(rx, rearm_queue, j.index());
        }
        let next_floor = term + Duration::TICK;
        for &receiver in &inst.delivered {
            let state = &mut rx[receiver.index()];
            state.protectors -= 1;
            state.floor = state.floor.max(next_floor);
            queue_rearm(rx, rearm_queue, receiver.index());
        }
        self.retired.insert(
            id,
            RetiredInstance {
                sender: inst.sender,
                by_event,
                delivered: inst.delivered,
            },
        );
        self.retire_queue
            .push_back((term + self.config.f_ack(), id));
    }
}

impl Observer for OnlineValidator {
    fn on_event(&mut self, e: &TraceEntry) {
        self.events += 1;
        self.advance(e.time);
        self.horizon = e.time;
        if self.faults[e.node.index()].crashed_strictly_at(e.time) {
            self.violations.push(Violation::ActionWhileCrashed {
                instance: e.instance,
                node: e.node,
                kind: e.kind,
            });
        }
        match e.kind {
            // Only a broadcast adds an instance record, so only it can
            // raise the peaks.
            TraceKind::Bcast => {
                self.handle_bcast(e);
                self.track_peaks();
            }
            TraceKind::Rcv => self.handle_rcv(e),
            TraceKind::Ack | TraceKind::Abort => self.handle_termination(e),
        }
    }

    fn on_fault(&mut self, time: Time, node: NodeId, kind: FaultKind) {
        self.advance(time);
        let v = node.index();
        match kind {
            FaultKind::Crash => {
                if self.crashed[v] {
                    return;
                }
                self.crashed[v] = true;
                self.faults[v].intervals.push((time, Time::MAX));
                if let Some(id) = self.in_flight_of[v] {
                    // The sender's in-flight instance is silenced here. A
                    // crash after the ack window closed excuses nothing: a
                    // live sender would already have terminated.
                    let inst = self.live.remove(&id).expect("in flight is live");
                    if time > inst.start + self.config.f_ack() {
                        self.late_crash_unterminated.push(id);
                    }
                    self.retire(id, inst, time, false);
                }
                self.rearm(v);
            }
            FaultKind::Recover => {
                if !self.crashed[v] {
                    return;
                }
                self.crashed[v] = false;
                if let Some(last) = self.faults[v].intervals.last_mut() {
                    last.1 = time;
                }
                // Starvation spent crashed is not starvation: the first
                // judged window after an outage starts at the recovery.
                self.rx[v].floor = self.rx[v].floor.max(time);
                self.rearm(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hand_built::assert_rows;
    use crate::message::MessageKey;

    fn line_dual(n: usize) -> DualGraph {
        DualGraph::reliable(amac_graph::generators::line(n).unwrap())
    }

    fn t(ticks: u64) -> Time {
        Time::from_ticks(ticks)
    }

    fn key() -> MessageKey {
        MessageKey(1)
    }

    #[test]
    fn empty_trace_is_valid() {
        let report = OnlineValidator::replay(
            &Trace::new(),
            &line_dual(2),
            &MacConfig::from_ticks(2, 8),
            true,
        );
        assert!(report.is_ok());
    }

    #[test]
    fn stats_track_peak_and_retire_after_the_straggler_window() {
        // A long sequence of short-lived instances: live state stays at 1,
        // tracked state is bounded by the F_ack straggler window rather
        // than the execution length.
        let dual = line_dual(2);
        let cfg = MacConfig::from_ticks(2, 8);
        let mut validator = OnlineValidator::new(dual.clone(), cfg);
        let total = 200u64;
        for i in 0..total {
            let base = i * 10;
            validator.on_event(&TraceEntry {
                time: t(base),
                instance: InstanceId::new(i),
                node: NodeId::new(0),
                kind: TraceKind::Bcast,
                key: key(),
            });
            validator.on_event(&TraceEntry {
                time: t(base + 1),
                instance: InstanceId::new(i),
                node: NodeId::new(1),
                kind: TraceKind::Rcv,
                key: key(),
            });
            validator.on_event(&TraceEntry {
                time: t(base + 2),
                instance: InstanceId::new(i),
                node: NodeId::new(0),
                kind: TraceKind::Ack,
                key: key(),
            });
        }
        let stats = validator.stats();
        assert_eq!(stats.events, 3 * total);
        assert_eq!(stats.peak_live, 1, "one instance in flight at a time");
        assert!(
            stats.peak_tracked <= 3,
            "tracked state ({}) must be bounded by the F_ack window, not the {} instances",
            stats.peak_tracked,
            total
        );
        let report = validator.into_report(true);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn a_tick_of_protection_flips_arms_one_deadline_per_receiver() {
        // The row's trace: in the one tick t=1 every receiver's protection
        // flips off and on dozens of times while instance 0, delivered to
        // nobody yet, keeps it connected.
        let row = assert_rows(&["a_tick_of_protection_flips_arms_one_deadline_per_receiver"]);
        let (dual, trace) = (&row[0].dual, &row[0].trace);
        let mut validator = OnlineValidator::new(dual.clone(), row[0].config);
        for e in trace.entries().iter().take_while(|e| e.time < t(10)) {
            validator.on_event(e);
        }
        assert!(
            validator.deadlines.len() <= dual.len(),
            "{} heap entries for {} receivers",
            validator.deadlines.len(),
            dual.len()
        );
    }

    // Each hand-built trace is the row of the same name in the table of
    // `tests/hand_built/mod.rs`, where the post-hoc oracle and this
    // validator must both give it its expected verdict.

    #[test]
    fn matches_posthoc_on_valid_and_invalid_hand_built_traces() {
        assert_rows(&[
            "accepts_valid_trace",
            "rejects_missing_reliable_delivery",
            "rejects_ack_bound_excess (F_ack = 64)",
            "rejects_rcv_to_non_neighbor",
            "rejects_duplicate_rcv",
            "rejects_termination_by_non_sender",
            "rejects_orphaned_events",
            "rejects_overlapping_bcasts",
            "abort_exempts_ack_checks",
        ]);
    }

    #[test]
    fn matches_posthoc_on_progress_traces() {
        assert_rows(&[
            "rejects_progress_starvation",
            "progress_covered_by_earlier_rcv_from_live_instance",
            "progress_protection_ends_at_protector_termination",
            "progress_satisfied_by_other_instances",
        ]);
    }

    #[test]
    fn matches_posthoc_on_crash_conditioned_traces() {
        assert_rows(&[
            "rejects_actions_by_crashed_nodes",
            "crashed_receiver_exempts_reliable_delivery",
            "recovered_receiver_can_starve_again",
            "crashed_sender_exempts_termination_and_progress",
            "post_recovery_rebroadcast_is_well_formed",
        ]);
    }

    #[test]
    fn missing_termination_is_gated_on_quiescence() {
        assert_rows(&[
            "rejects_missing_termination_when_quiescent",
            "rejects_missing_termination_when_quiescent (truncated)",
        ]);
    }

    #[test]
    fn multiple_terminations_are_rejected() {
        assert_rows(&["multiple_terminations_are_rejected"]);
    }

    #[test]
    fn duplicate_bcast_is_rejected() {
        assert_rows(&["duplicate_bcast_is_rejected"]);
    }

    // The next four rows exercise the fallbacks behind the fast paths: an
    // instance that does not sort last among a receiver's connected
    // instances, a receiver that does not sort last among an instance's
    // deliveries, and an ack whose reliable receivers fall short.

    #[test]
    fn same_tick_bcasts_in_descending_ids_stay_in_start_order() {
        assert_rows(&["same_tick_bcasts_in_descending_ids_stay_in_start_order"]);
    }

    #[test]
    fn unreliable_delivery_does_not_stand_in_for_a_reliable_one() {
        assert_rows(&["unreliable_delivery_does_not_stand_in_for_a_reliable_one"]);
    }

    #[test]
    fn duplicate_rcv_after_an_out_of_order_delivery() {
        assert_rows(&["duplicate_rcv_after_an_out_of_order_delivery"]);
    }

    #[test]
    fn crash_exempts_only_the_crashed_receiver() {
        assert_rows(&["crash_exempts_only_the_crashed_receiver"]);
    }
}
