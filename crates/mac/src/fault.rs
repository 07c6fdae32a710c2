//! Node-crash fault injection: the schedule of crashes (and optional
//! recoveries) applied to one execution.
//!
//! The abstract MAC layer papers that build *services* on the layer —
//! Newport & Robinson's fault-tolerant consensus (2018), Zhang & Tseng's
//! fault-tolerance study (2024) — assume nodes may **crash**: a crashed
//! node stops broadcasting, acknowledging, and receiving, possibly leaving
//! a broadcast half-delivered (some neighbors got it, some never will).
//! That partial delivery is the whole difficulty of consensus on this
//! layer, so the simulator must be able to produce it.
//!
//! A [`FaultPlan`] is a deterministic schedule of [`FaultEvent`]s handed to
//! [`Runtime::with_faults`](crate::Runtime::with_faults). Crashes can be
//! placed explicitly ([`crash_at`](FaultPlan::crash_at), the *scheduled*
//! adversary) or sampled from a seeded stream
//! ([`random_crashes`](FaultPlan::random_crashes), the *policy-driven*
//! adversary used by the crash-fraction sweeps). Optional
//! [`recover_at`](FaultPlan::recover_at) events model crash-recovery:
//! the node's automaton state survives the outage and its
//! [`on_recover`](crate::Automaton::on_recover) callback runs when it
//! comes back.
//!
//! Every applied fault is recorded in the execution [`Trace`](crate::trace::Trace)
//! as a [`FaultRecord`](crate::trace::FaultRecord), and the
//! [`OnlineValidator`](crate::OnlineValidator) conditions the five model
//! guarantees on the liveness of the nodes involved.
//!
//! # Examples
//!
//! ```
//! use amac_mac::{FaultPlan, FaultKind};
//! use amac_graph::NodeId;
//! use amac_sim::{SimRng, Time};
//!
//! // Scheduled: node 3 crashes at t=10 and comes back at t=50.
//! let plan = FaultPlan::new()
//!     .crash_at(NodeId::new(3), Time::from_ticks(10))
//!     .recover_at(NodeId::new(3), Time::from_ticks(50));
//! assert_eq!(plan.len(), 2);
//!
//! // Policy-driven: crash 2 of 10 nodes at seeded-uniform times in [0, 100).
//! let mut rng = SimRng::seed(7);
//! let random = FaultPlan::random_crashes(10, 2, Time::from_ticks(100), &mut rng);
//! assert_eq!(random.events().iter().filter(|e| e.kind == FaultKind::Crash).count(), 2);
//! ```

use amac_graph::NodeId;
use amac_sim::{SimRng, Time};
use std::fmt;

/// What happens to a node at a fault event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The node crashes: it stops broadcasting, acknowledging, and
    /// receiving; its in-flight broadcast (if any) is silenced, leaving
    /// any deliveries that already happened standing.
    Crash,
    /// The node recovers from a crash with its automaton state intact
    /// (crash-recovery model); a no-op for a node that is not crashed.
    Recover,
}

impl FaultKind {
    /// Stable single-byte wire code of this kind, used as the record tag of
    /// the `amac-store` on-disk trace format (`docs/TRACE_FORMAT.md`).
    /// Codes 0–3 belong to [`TraceKind`](crate::trace::TraceKind); fault
    /// kinds continue the sequence. Part of the persisted format: never
    /// renumber.
    pub const fn code(self) -> u8 {
        match self {
            FaultKind::Crash => 4,
            FaultKind::Recover => 5,
        }
    }

    /// Inverse of [`code`](FaultKind::code); `None` for an unassigned code.
    pub const fn from_code(code: u8) -> Option<FaultKind> {
        match code {
            4 => Some(FaultKind::Crash),
            5 => Some(FaultKind::Recover),
            _ => None,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Crash => write!(f, "crash"),
            FaultKind::Recover => write!(f, "recover"),
        }
    }
}

/// One scheduled fault: a node and the instant its state flips.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault is applied.
    pub at: Time,
    /// The affected node.
    pub node: NodeId,
    /// Crash or recover.
    pub kind: FaultKind,
}

/// A deterministic schedule of node crashes and recoveries for one
/// execution (see the `fault` module docs above for the fault model).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules a crash of `node` at time `at`.
    pub fn crash_at(mut self, node: NodeId, at: Time) -> FaultPlan {
        self.events.push(FaultEvent {
            at,
            node,
            kind: FaultKind::Crash,
        });
        self
    }

    /// Schedules a recovery of `node` at time `at` (a no-op at runtime if
    /// the node is not crashed then).
    pub fn recover_at(mut self, node: NodeId, at: Time) -> FaultPlan {
        self.events.push(FaultEvent {
            at,
            node,
            kind: FaultKind::Recover,
        });
        self
    }

    /// Samples a policy-driven plan: `count` distinct nodes out of `n`
    /// crash (no recovery) at independent uniform times in `[0, window)`,
    /// drawn from `rng`. Deterministic for a given rng state, so
    /// experiment trials replay their crash schedules exactly.
    ///
    /// # Panics
    ///
    /// Panics if `count > n` or `window` is zero while `count > 0`.
    pub fn random_crashes(n: usize, count: usize, window: Time, rng: &mut SimRng) -> FaultPlan {
        assert!(count <= n, "cannot crash {count} of {n} nodes");
        if count > 0 {
            assert!(window.ticks() > 0, "crash window must be non-empty");
        }
        // Partial Fisher-Yates over the node indices: the first `count`
        // slots are a uniform sample without replacement.
        let mut ids: Vec<usize> = (0..n).collect();
        let mut plan = FaultPlan::new();
        for i in 0..count {
            let j = i + rng.below((n - i) as u64) as usize;
            ids.swap(i, j);
            let at = Time::from_ticks(rng.below(window.ticks()));
            plan = plan.crash_at(NodeId::new(ids[i]), at);
        }
        plan
    }

    /// The scheduled events in insertion order (the runtime orders them by
    /// time when it enqueues them).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The nodes with at least one scheduled crash, deduplicated and in
    /// ascending order.
    pub fn crashed_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self
            .events
            .iter()
            .filter(|e| e.kind == FaultKind::Crash)
            .map(|e| e.node)
            .collect();
        nodes.sort();
        nodes.dedup();
        nodes
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault plan with {} event(s)", self.events.len())?;
        for e in &self.events {
            write!(f, "; {} {} at t={}", e.kind, e.node, e.at)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_events() {
        let plan = FaultPlan::new()
            .crash_at(NodeId::new(1), Time::from_ticks(5))
            .recover_at(NodeId::new(1), Time::from_ticks(9))
            .crash_at(NodeId::new(2), Time::from_ticks(3));
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        assert_eq!(plan.crashed_nodes(), vec![NodeId::new(1), NodeId::new(2)]);
        let s = plan.to_string();
        assert!(s.contains("crash n1 at t=5"));
        assert!(s.contains("recover n1 at t=9"));
    }

    #[test]
    fn wire_codes_round_trip_and_stay_stable() {
        for kind in [FaultKind::Crash, FaultKind::Recover] {
            assert_eq!(FaultKind::from_code(kind.code()), Some(kind));
        }
        // Persisted-format pins: renumbering breaks stored traces.
        assert_eq!(FaultKind::Crash.code(), 4);
        assert_eq!(FaultKind::Recover.code(), 5);
        assert_eq!(FaultKind::from_code(0), None);
        assert_eq!(FaultKind::from_code(6), None);
    }

    #[test]
    fn random_crashes_sample_distinct_nodes_in_window() {
        let mut rng = SimRng::seed(11);
        let plan = FaultPlan::random_crashes(20, 6, Time::from_ticks(50), &mut rng);
        assert_eq!(plan.len(), 6);
        assert_eq!(plan.crashed_nodes().len(), 6, "nodes must be distinct");
        for e in plan.events() {
            assert!(e.at.ticks() < 50);
            assert_eq!(e.kind, FaultKind::Crash);
        }
    }

    #[test]
    fn random_crashes_are_deterministic_per_stream() {
        let a = FaultPlan::random_crashes(12, 4, Time::from_ticks(30), &mut SimRng::seed(3));
        let b = FaultPlan::random_crashes(12, 4, Time::from_ticks(30), &mut SimRng::seed(3));
        assert_eq!(a, b);
    }

    #[test]
    fn zero_count_needs_no_window() {
        let plan = FaultPlan::random_crashes(5, 0, Time::ZERO, &mut SimRng::seed(0));
        assert!(plan.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot crash")]
    fn over_budget_panics() {
        FaultPlan::random_crashes(3, 4, Time::from_ticks(10), &mut SimRng::seed(0));
    }
}
