//! Post-hoc validation of executions against the abstract MAC layer
//! guarantees (paper Section 3.2.1).
//!
//! The validator re-derives, from a recorded [`Trace`] and the topology,
//! whether the execution satisfied:
//!
//! 1. **receive correctness** — receivers are `G′`-neighbors of the sender,
//!    at most one `rcv` per (instance, receiver), all `rcv`s precede the
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
//!
//! ## Crash conditioning
//!
//! When the trace carries a fault log (see [`FaultPlan`](crate::FaultPlan)),
//! every guarantee is conditioned on the liveness of the nodes involved,
//! exactly as the runtime enforces it:
//!
//! * an instance whose **sender crashed** mid-flight is exempt from
//!   termination and its progress span is capped at the crash;
//! * a **receiver crashed** at any point during an instance's lifetime is
//!   exempt from that instance's reliable-delivery obligation;
//! * progress windows only count while the receiver is **alive
//!   throughout** (an uncovered window spent crashed is not starvation);
//! * conversely, no crashed node may *act*: a `bcast`/`ack`/`abort` by — or
//!   a `rcv` to — a node strictly inside one of its crash intervals is a
//!   new violation, [`Violation::ActionWhileCrashed`].
//!
//! Every test execution in this workspace is validated; fault-injection
//! tests hand-build invalid traces and assert they are rejected.

use crate::config::MacConfig;
use crate::fault::FaultKind;
use crate::instance::InstanceId;
use crate::trace::{Trace, TraceKind};
use amac_graph::{DualGraph, NodeId};
use amac_sim::Time;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A single violation of the model guarantees found in a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Violation {
    /// An instance has more than one `bcast` entry.
    DuplicateBcast {
        /// The offending instance.
        instance: InstanceId,
    },
    /// An event references an instance with no preceding `bcast` (the cause
    /// function is undefined for it).
    MissingBcast {
        /// The offending instance.
        instance: InstanceId,
    },
    /// A receiver got a message from a node that is not its `G′`-neighbor.
    RcvToNonNeighbor {
        /// The offending instance.
        instance: InstanceId,
        /// The receiver.
        receiver: NodeId,
    },
    /// The same receiver got the same instance twice.
    DuplicateRcv {
        /// The offending instance.
        instance: InstanceId,
        /// The receiver.
        receiver: NodeId,
    },
    /// A `rcv` appears after the instance's terminating event.
    RcvAfterTermination {
        /// The offending instance.
        instance: InstanceId,
        /// The receiver.
        receiver: NodeId,
    },
    /// An instance has more than one `ack`/`abort`.
    MultipleTerminations {
        /// The offending instance.
        instance: InstanceId,
    },
    /// An `ack`/`abort` is attributed to a node other than the sender.
    TerminationByNonSender {
        /// The offending instance.
        instance: InstanceId,
        /// The node recorded on the terminating event.
        node: NodeId,
    },
    /// An acked instance never delivered to some reliable neighbor.
    MissingReliableDelivery {
        /// The offending instance.
        instance: InstanceId,
        /// The `G`-neighbor that never received it.
        receiver: NodeId,
    },
    /// The ack came later than `F_ack` after the broadcast.
    AckBoundExceeded {
        /// The offending instance.
        instance: InstanceId,
        /// Observed delay in ticks.
        delay: u64,
    },
    /// An instance never terminated in a quiescent execution.
    MissingTermination {
        /// The offending instance.
        instance: InstanceId,
    },
    /// A window longer than `F_prog` was spanned by a `G`-neighbor's
    /// instance while the receiver had no covering receive (no receive, at
    /// any time up to the window's end, from an instance still contending
    /// at the window's start).
    ProgressViolation {
        /// The starving receiver.
        receiver: NodeId,
        /// The spanning instance from a `G`-neighbor.
        instance: InstanceId,
        /// Start of the uncovered window.
        window_start: Time,
    },
    /// A crashed node acted (broadcast, acknowledged, aborted) or received
    /// a message strictly inside one of its crash intervals.
    ActionWhileCrashed {
        /// The instance the offending event belongs to.
        instance: InstanceId,
        /// The crashed node recorded on the event.
        node: NodeId,
        /// The offending event's kind.
        kind: TraceKind,
    },
    /// A sender started a new broadcast before terminating the previous one
    /// (user well-formedness).
    OverlappingBcasts {
        /// The offending sender.
        sender: NodeId,
        /// The earlier, still-in-flight instance.
        first: InstanceId,
        /// The prematurely started instance.
        second: InstanceId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DuplicateBcast { instance } => {
                write!(f, "instance {instance} broadcast more than once")
            }
            Violation::MissingBcast { instance } => {
                write!(f, "instance {instance} has events but no bcast")
            }
            Violation::RcvToNonNeighbor { instance, receiver } => {
                write!(f, "instance {instance} delivered to non-G'-neighbor {receiver}")
            }
            Violation::DuplicateRcv { instance, receiver } => {
                write!(f, "instance {instance} delivered twice to {receiver}")
            }
            Violation::RcvAfterTermination { instance, receiver } => {
                write!(f, "instance {instance} delivered to {receiver} after termination")
            }
            Violation::MultipleTerminations { instance } => {
                write!(f, "instance {instance} terminated more than once")
            }
            Violation::TerminationByNonSender { instance, node } => {
                write!(f, "instance {instance} terminated by non-sender {node}")
            }
            Violation::MissingReliableDelivery { instance, receiver } => write!(
                f,
                "instance {instance} acked without delivering to reliable neighbor {receiver}"
            ),
            Violation::AckBoundExceeded { instance, delay } => {
                write!(f, "instance {instance} acked after {delay} ticks, beyond F_ack")
            }
            Violation::MissingTermination { instance } => {
                write!(f, "instance {instance} never terminated in a quiescent execution")
            }
            Violation::ProgressViolation {
                receiver,
                instance,
                window_start,
            } => write!(
                f,
                "receiver {receiver} had no covering receive for the window starting at t={window_start} while instance {instance} of a G-neighbor spanned it (progress bound)"
            ),
            Violation::ActionWhileCrashed { instance, node, kind } => write!(
                f,
                "crashed node {node} appears on a {kind:?} event of instance {instance}"
            ),
            Violation::OverlappingBcasts { sender, first, second } => write!(
                f,
                "sender {sender} started {second} before terminating {first} (user well-formedness)"
            ),
        }
    }
}

impl Error for Violation {}

/// The result of validating one execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ValidationReport {
    violations: Vec<Violation>,
}

impl ValidationReport {
    /// Builds a report from an already-collected violation list (used by
    /// the streaming [`OnlineValidator`](crate::OnlineValidator)).
    pub(crate) fn from_violations(violations: Vec<Violation>) -> ValidationReport {
        ValidationReport { violations }
    }

    /// `true` when no violations were found.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// All violations found.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// One-line verdict for table footers and trace-dump headers:
    /// `"ok"`, or the violation count.
    pub fn summary(&self) -> String {
        if self.is_ok() {
            "ok".to_string()
        } else {
            format!("{} violation(s)", self.violations.len())
        }
    }

    /// Converts into a `Result`, yielding the first violation on failure.
    pub fn into_result(mut self) -> Result<(), Violation> {
        if self.violations.is_empty() {
            Ok(())
        } else {
            Err(self.violations.remove(0))
        }
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ok() {
            return write!(f, "execution conforms to the abstract MAC layer model");
        }
        writeln!(f, "{} violation(s):", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

struct InstanceView {
    sender: NodeId,
    bcast_idx: usize,
    bcast_time: Time,
    rcvs: Vec<(usize, Time, NodeId)>,
    term: Option<(usize, Time, TraceKind)>,
}

/// Per-node crash intervals `[crash, recover)` derived from the trace's
/// fault log. Boundary instants are permissive: an event at exactly the
/// crash or recovery tick counts as live (the runtime processes same-tick
/// events in order, so a node may legitimately act in the tick its crash
/// lands).
struct CrashIntervals {
    by_node: BTreeMap<NodeId, Vec<(Time, Time)>>,
}

impl CrashIntervals {
    fn from_trace(trace: &Trace) -> CrashIntervals {
        let mut by_node: BTreeMap<NodeId, Vec<(Time, Time)>> = BTreeMap::new();
        for rec in trace.faults() {
            match rec.kind {
                FaultKind::Crash => by_node
                    .entry(rec.node)
                    .or_default()
                    .push((rec.time, Time::MAX)),
                FaultKind::Recover => {
                    if let Some(last) = by_node.get_mut(&rec.node).and_then(|v| v.last_mut()) {
                        if last.1 == Time::MAX {
                            last.1 = rec.time;
                        }
                    }
                }
            }
        }
        CrashIntervals { by_node }
    }

    fn is_empty(&self) -> bool {
        self.by_node.is_empty()
    }

    /// `true` when `node` is crashed strictly inside an interval at `t`.
    fn crashed_at(&self, node: NodeId, t: Time) -> bool {
        self.by_node
            .get(&node)
            .is_some_and(|iv| iv.iter().any(|&(c, r)| c < t && t < r))
    }

    /// `true` when any crash interval of `node` touches `[lo, hi]`. The
    /// interval is `[crash, recover)`: the node is alive again *at* the
    /// recovery instant, so an interval ending exactly at `lo` does not
    /// overlap — windows starting at a recovery count in full.
    fn overlaps(&self, node: NodeId, lo: Time, hi: Time) -> bool {
        self.by_node
            .get(&node)
            .is_some_and(|iv| iv.iter().any(|&(c, r)| c <= hi && r > lo))
    }

    /// The first crash of `node` at or after `t`, if any.
    fn first_crash_at_or_after(&self, node: NodeId, t: Time) -> Option<Time> {
        self.by_node
            .get(&node)?
            .iter()
            .map(|&(c, _)| c)
            .filter(|&c| c >= t)
            .min()
    }

    /// Finite recovery instants of `node`, in log order.
    fn recoveries(&self, node: NodeId) -> Vec<Time> {
        self.by_node
            .get(&node)
            .map(|iv| {
                iv.iter()
                    .map(|&(_, r)| r)
                    .filter(|&r| r < Time::MAX)
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Validates a recorded execution against the model guarantees.
///
/// Set `quiescent` to `true` when the execution ran to idleness, enabling
/// the termination check (3); truncated executions skip it and only check
/// progress windows that closed before the trace horizon.
///
/// This is the reference oracle: no production path calls it. Every
/// harness validates with the streaming
/// [`OnlineValidator`](crate::OnlineValidator), and tests check that the
/// two find the same violations.
///
/// # Examples
///
/// ```
/// use amac_mac::{validate, MacConfig, trace::Trace};
/// use amac_graph::{generators, DualGraph};
///
/// let dual = DualGraph::reliable(generators::line(3)?);
/// let report = validate(&Trace::new(), &dual, &MacConfig::from_ticks(1, 8), true);
/// assert!(report.is_ok(), "an empty execution is trivially valid");
/// # Ok::<(), amac_graph::GraphError>(())
/// ```
pub fn validate(
    trace: &Trace,
    dual: &DualGraph,
    config: &MacConfig,
    quiescent: bool,
) -> ValidationReport {
    let mut report = ValidationReport::default();
    let crashes = CrashIntervals::from_trace(trace);
    // Ordered maps keep the violation report order independent of hasher
    // state (same determinism policy as the runtime).
    let mut views: BTreeMap<InstanceId, InstanceView> = BTreeMap::new();
    let mut orphaned: Vec<InstanceId> = Vec::new();

    for (idx, e) in trace.entries().iter().enumerate() {
        match e.kind {
            TraceKind::Bcast => {
                if views
                    .insert(
                        e.instance,
                        InstanceView {
                            sender: e.node,
                            bcast_idx: idx,
                            bcast_time: e.time,
                            rcvs: Vec::new(),
                            term: None,
                        },
                    )
                    .is_some()
                {
                    report.violations.push(Violation::DuplicateBcast {
                        instance: e.instance,
                    });
                }
            }
            TraceKind::Rcv => match views.get_mut(&e.instance) {
                Some(v) => v.rcvs.push((idx, e.time, e.node)),
                None => orphaned.push(e.instance),
            },
            TraceKind::Ack | TraceKind::Abort => match views.get_mut(&e.instance) {
                Some(v) => {
                    if v.term.is_some() {
                        report.violations.push(Violation::MultipleTerminations {
                            instance: e.instance,
                        });
                    } else {
                        if e.node != v.sender {
                            report.violations.push(Violation::TerminationByNonSender {
                                instance: e.instance,
                                node: e.node,
                            });
                        }
                        v.term = Some((idx, e.time, e.kind));
                    }
                }
                None => orphaned.push(e.instance),
            },
        }
    }
    orphaned.sort();
    orphaned.dedup();
    for instance in orphaned {
        report.violations.push(Violation::MissingBcast { instance });
    }

    // No crashed node may act: every event attributed to a node strictly
    // inside one of its crash intervals is a violation.
    if !crashes.is_empty() {
        for e in trace.entries() {
            if crashes.crashed_at(e.node, e.time) {
                report.violations.push(Violation::ActionWhileCrashed {
                    instance: e.instance,
                    node: e.node,
                    kind: e.kind,
                });
            }
        }
    }

    let horizon = trace.entries().last().map(|e| e.time).unwrap_or(Time::ZERO);

    // Per-instance checks (receive/ack correctness, bounds, termination).
    let mut ids: Vec<InstanceId> = views.keys().copied().collect();
    ids.sort();
    for id in &ids {
        let v = &views[id];
        let mut seen: Vec<NodeId> = Vec::new();
        for &(idx, _t, receiver) in &v.rcvs {
            if !dual.g_prime().has_edge(v.sender, receiver) {
                report.violations.push(Violation::RcvToNonNeighbor {
                    instance: *id,
                    receiver,
                });
            }
            if seen.contains(&receiver) {
                report.violations.push(Violation::DuplicateRcv {
                    instance: *id,
                    receiver,
                });
            }
            seen.push(receiver);
            if let Some((term_idx, _, _)) = v.term {
                if idx > term_idx {
                    report.violations.push(Violation::RcvAfterTermination {
                        instance: *id,
                        receiver,
                    });
                }
            }
        }
        match v.term {
            Some((term_idx, term_time, TraceKind::Ack)) => {
                for &g_neighbor in dual.reliable_neighbors(v.sender) {
                    let delivered_before_ack = v
                        .rcvs
                        .iter()
                        .any(|&(idx, _, r)| r == g_neighbor && idx < term_idx);
                    // A receiver crashed at any point of the instance's
                    // lifetime is exempt: its delivery may have been
                    // silenced by the crash.
                    let crash_exempt = crashes.overlaps(g_neighbor, v.bcast_time, term_time);
                    if !delivered_before_ack && !crash_exempt {
                        report.violations.push(Violation::MissingReliableDelivery {
                            instance: *id,
                            receiver: g_neighbor,
                        });
                    }
                }
                let delay = term_time.saturating_since(v.bcast_time).ticks();
                if delay > config.f_ack().ticks() {
                    report.violations.push(Violation::AckBoundExceeded {
                        instance: *id,
                        delay,
                    });
                }
            }
            Some(_) => {} // aborts exempt from ack correctness and bound
            None => {
                // Termination is conditioned on the sender staying alive
                // *through the ack window*: a crash within `F_ack` of the
                // broadcast silences the instance (no ack follows). A
                // crash only after the ack was already overdue exempts
                // nothing — a live sender must have acked by then.
                let crashed_mid_flight = crashes
                    .first_crash_at_or_after(v.sender, v.bcast_time)
                    .is_some_and(|c| c <= v.bcast_time + config.f_ack());
                if quiescent && !crashed_mid_flight {
                    report
                        .violations
                        .push(Violation::MissingTermination { instance: *id });
                }
            }
        }
    }

    // Progress bound with coverage semantics. A window `[s, s + F + 1]`
    // (`F = F_prog`, strictly longer than `F_prog`) spanned by a connected
    // instance is *covered* for receiver `j` iff `j` has some receive at
    // `t_r ≤ s + F + 1` whose instance terminated no earlier than `s`
    // (i.e. was still contending at the window start). For each receiver
    // we collect `(t_r, T_term)` pairs sorted by `t_r` with a running
    // prefix-max of `T_term`; `covered(s)` is then
    // `max{T : t_r ≤ s + F + 1} ≥ s`. It suffices to test the window
    // starts `s = b` and `s = T_i + 1` for each receive (coverage only
    // switches off just past a termination time).
    // An instance stops spanning (and stops protecting) at its sender's
    // first crash after the broadcast: the runtime silences it there.
    let crash_cap = |v: &InstanceView| -> Time {
        crashes
            .first_crash_at_or_after(v.sender, v.bcast_time)
            .unwrap_or(Time::MAX)
    };
    let mut rcv_cover: Vec<Vec<(Time, Time)>> = vec![Vec::new(); dual.len()];
    for v in views.values() {
        let term_time = v
            .term
            .map(|(_, t, _)| t)
            .unwrap_or(Time::MAX)
            .min(crash_cap(v));
        for &(_, t, r) in &v.rcvs {
            rcv_cover[r.index()].push((t, term_time));
        }
    }
    let mut prefix_max: Vec<Vec<Time>> = Vec::with_capacity(dual.len());
    for cover in &mut rcv_cover {
        cover.sort();
        let mut acc = Time::ZERO;
        let maxes = cover
            .iter()
            .map(|&(_, term)| {
                acc = acc.max(term);
                acc
            })
            .collect();
        prefix_max.push(maxes);
    }
    let window = config.f_prog().ticks() + 1;
    for id in &ids {
        let v = &views[id];
        let span_end = match v.term {
            Some((_, t, _)) => t,
            None => horizon,
        }
        .min(crash_cap(v));
        // A violating window must fit strictly inside the span: the
        // terminating event at `span_end` must come after the window's
        // end, so the latest admissible window start is
        // `span_end - window - 1` (lenient by one tick on the boundary).
        if span_end.ticks() < v.bcast_time.ticks() + window + 1 {
            continue; // no full window fits in the span
        }
        let lo = v.bcast_time;
        let hi = Time::from_ticks(span_end.ticks() - window - 1);
        for &j in dual.reliable_neighbors(v.sender) {
            let cover = &rcv_cover[j.index()];
            let maxes = &prefix_max[j.index()];
            let covered = |s: Time| -> bool {
                let cutoff = Time::from_ticks(s.ticks() + window);
                let idx = cover.partition_point(|&(t_r, _)| t_r <= cutoff);
                idx > 0 && maxes[idx - 1] >= s
            };
            let mut candidates: Vec<Time> = vec![lo];
            for &(_, term) in cover {
                if term >= lo && term < hi {
                    candidates.push(term + amac_sim::Duration::TICK);
                }
            }
            // Coverage also switches at the receiver's recoveries: the
            // first window after an outage starts at the recovery.
            for r_t in crashes.recoveries(j) {
                if r_t >= lo && r_t <= hi {
                    candidates.push(r_t);
                }
            }
            // The guarantee only binds while the receiver is alive for the
            // whole window: windows touching one of j's crash intervals
            // are skipped (starvation spent crashed is not starvation).
            let alive_throughout =
                |s: Time| -> bool { !crashes.overlaps(j, s, Time::from_ticks(s.ticks() + window)) };
            if let Some(&s) = candidates
                .iter()
                .find(|&&s| s >= lo && s <= hi && alive_throughout(s) && !covered(s))
            {
                report.violations.push(Violation::ProgressViolation {
                    receiver: j,
                    instance: *id,
                    window_start: s,
                });
            }
        }
    }

    // User well-formedness: per-sender broadcasts must not overlap.
    let mut by_sender: BTreeMap<NodeId, Vec<InstanceId>> = BTreeMap::new();
    for id in &ids {
        by_sender.entry(views[id].sender).or_default().push(*id);
    }
    for (sender, mut insts) in by_sender {
        insts.sort_by_key(|id| views[id].bcast_idx);
        for pair in insts.windows(2) {
            let first = &views[&pair[0]];
            let second = &views[&pair[1]];
            let first_closed = match first.term {
                Some((term_idx, _, _)) => term_idx < second.bcast_idx,
                None => false,
            };
            // A crash between the two broadcasts silenced the first
            // instance, so a post-recovery broadcast is well-formed.
            let crash_closed = crashes
                .first_crash_at_or_after(sender, first.bcast_time)
                .is_some_and(|c| c <= second.bcast_time);
            if !first_closed && !crash_closed {
                report.violations.push(Violation::OverlappingBcasts {
                    sender,
                    first: pair[0],
                    second: pair[1],
                });
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageKey;
    use amac_graph::generators;

    fn line_dual(n: usize) -> DualGraph {
        DualGraph::reliable(generators::line(n).unwrap())
    }

    fn t(ticks: u64) -> Time {
        Time::from_ticks(ticks)
    }

    fn key() -> MessageKey {
        MessageKey(1)
    }

    /// A minimal valid execution: node 0 broadcasts on a 2-node line,
    /// node 1 receives, ack follows.
    fn valid_trace() -> Trace {
        let mut tr = Trace::new();
        tr.push(
            t(0),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Bcast,
            key(),
        );
        tr.push(
            t(1),
            InstanceId::new(0),
            NodeId::new(1),
            TraceKind::Rcv,
            key(),
        );
        tr.push(
            t(2),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Ack,
            key(),
        );
        tr
    }

    #[test]
    fn accepts_valid_trace() {
        let report = validate(
            &valid_trace(),
            &line_dual(2),
            &MacConfig::from_ticks(2, 8),
            true,
        );
        assert!(report.is_ok(), "{report}");
        assert_eq!(report.summary(), "ok");
    }

    #[test]
    fn rejects_missing_reliable_delivery() {
        let mut tr = Trace::new();
        tr.push(
            t(0),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Bcast,
            key(),
        );
        tr.push(
            t(2),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Ack,
            key(),
        );
        let report = validate(&tr, &line_dual(2), &MacConfig::from_ticks(2, 8), true);
        assert!(matches!(
            report.violations()[0],
            Violation::MissingReliableDelivery { .. }
        ));
    }

    #[test]
    fn rejects_ack_bound_excess() {
        let mut tr = Trace::new();
        tr.push(
            t(0),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Bcast,
            key(),
        );
        tr.push(
            t(1),
            InstanceId::new(0),
            NodeId::new(1),
            TraceKind::Rcv,
            key(),
        );
        tr.push(
            t(100),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Ack,
            key(),
        );
        let report = validate(&tr, &line_dual(2), &MacConfig::from_ticks(2, 8), true);
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::AckBoundExceeded { delay: 100, .. })));
    }

    #[test]
    fn rejects_rcv_to_non_neighbor() {
        let mut tr = Trace::new();
        tr.push(
            t(0),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Bcast,
            key(),
        );
        tr.push(
            t(1),
            InstanceId::new(0),
            NodeId::new(1),
            TraceKind::Rcv,
            key(),
        );
        tr.push(
            t(1),
            InstanceId::new(0),
            NodeId::new(2),
            TraceKind::Rcv,
            key(),
        );
        tr.push(
            t(2),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Ack,
            key(),
        );
        let report = validate(&tr, &line_dual(3), &MacConfig::from_ticks(2, 8), true);
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::RcvToNonNeighbor { .. })));
    }

    #[test]
    fn rejects_duplicate_rcv() {
        let mut tr = valid_trace();
        // Re-deliver to node 1 after the ack — both duplicate and late.
        tr.push(
            t(3),
            InstanceId::new(0),
            NodeId::new(1),
            TraceKind::Rcv,
            key(),
        );
        let report = validate(&tr, &line_dual(2), &MacConfig::from_ticks(2, 8), true);
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::DuplicateRcv { .. })));
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::RcvAfterTermination { .. })));
    }

    #[test]
    fn rejects_missing_termination_when_quiescent() {
        let mut tr = Trace::new();
        tr.push(
            t(0),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Bcast,
            key(),
        );
        let report = validate(&tr, &line_dual(2), &MacConfig::from_ticks(2, 8), true);
        assert!(matches!(
            report.violations()[0],
            Violation::MissingTermination { .. }
        ));
        // Truncated executions skip the check.
        let report = validate(&tr, &line_dual(2), &MacConfig::from_ticks(2, 8), false);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn rejects_progress_starvation() {
        // Node 0 broadcasts from t=0 to t=50 (within F_ack = 64) but node 1
        // receives only at t=50: a silent window of 50 > F_prog = 4.
        let mut tr = Trace::new();
        tr.push(
            t(0),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Bcast,
            key(),
        );
        tr.push(
            t(50),
            InstanceId::new(0),
            NodeId::new(1),
            TraceKind::Rcv,
            key(),
        );
        tr.push(
            t(50),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Ack,
            key(),
        );
        let report = validate(&tr, &line_dual(2), &MacConfig::from_ticks(4, 64), true);
        assert!(report.violations().iter().any(
            |v| matches!(v, Violation::ProgressViolation { window_start, .. }
                if window_start.ticks() == 0)
        ));
    }

    #[test]
    fn progress_covered_by_earlier_rcv_from_live_instance() {
        // Node 0's instance spans [0, 60]; node 1 receives it ONCE at t=3.
        // Because the delivering instance stays in flight until t=60, that
        // single receive covers every window starting before t=60: valid.
        let mut tr = Trace::new();
        tr.push(
            t(0),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Bcast,
            key(),
        );
        tr.push(
            t(3),
            InstanceId::new(0),
            NodeId::new(1),
            TraceKind::Rcv,
            key(),
        );
        tr.push(
            t(60),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Ack,
            key(),
        );
        let report = validate(&tr, &line_dual(2), &MacConfig::from_ticks(4, 64), true);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn progress_protection_ends_at_protector_termination() {
        // Instance A (node 2 -> node 1) delivers at t=2 and terminates at
        // t=4. Instance B (node 0 -> node 1) spans [0, 40] but only
        // delivers at t=40. Windows starting after t=4 are uncovered while
        // B spans them: violation.
        let dual = line_dual(3);
        let mut tr = Trace::new();
        tr.push(
            t(0),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Bcast,
            key(),
        );
        tr.push(
            t(0),
            InstanceId::new(1),
            NodeId::new(2),
            TraceKind::Bcast,
            MessageKey(2),
        );
        tr.push(
            t(2),
            InstanceId::new(1),
            NodeId::new(1),
            TraceKind::Rcv,
            MessageKey(2),
        );
        tr.push(
            t(4),
            InstanceId::new(1),
            NodeId::new(2),
            TraceKind::Ack,
            MessageKey(2),
        );
        tr.push(
            t(40),
            InstanceId::new(0),
            NodeId::new(1),
            TraceKind::Rcv,
            key(),
        );
        tr.push(
            t(40),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Ack,
            key(),
        );
        let report = validate(&tr, &dual, &MacConfig::from_ticks(4, 64), true);
        assert!(report.violations().iter().any(
            |v| matches!(v, Violation::ProgressViolation { window_start, .. }
                if window_start.ticks() == 5)
        ));
    }

    #[test]
    fn progress_satisfied_by_other_instances() {
        // Node 0's instance spans [0, 60], but node 1 keeps receiving other
        // messages (from node 2) every 4 ticks, so progress holds.
        let dual = line_dual(3); // 1 is adjacent to both 0 and 2
        let mut tr = Trace::new();
        tr.push(
            t(0),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Bcast,
            key(),
        );
        let mut inst = 1;
        let mut time = 0;
        while time < 60 {
            time += 4;
            let id = InstanceId::new(inst);
            tr.push(
                t(time),
                id,
                NodeId::new(2),
                TraceKind::Bcast,
                MessageKey(inst),
            );
            tr.push(
                t(time),
                id,
                NodeId::new(1),
                TraceKind::Rcv,
                MessageKey(inst),
            );
            tr.push(
                t(time),
                id,
                NodeId::new(2),
                TraceKind::Ack,
                MessageKey(inst),
            );
            inst += 1;
        }
        tr.push(
            t(60),
            InstanceId::new(0),
            NodeId::new(1),
            TraceKind::Rcv,
            key(),
        );
        tr.push(
            t(60),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Ack,
            key(),
        );
        let report = validate(&tr, &dual, &MacConfig::from_ticks(4, 64), true);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn rejects_overlapping_bcasts() {
        let mut tr = Trace::new();
        tr.push(
            t(0),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Bcast,
            key(),
        );
        tr.push(
            t(1),
            InstanceId::new(1),
            NodeId::new(0),
            TraceKind::Bcast,
            MessageKey(2),
        );
        let report = validate(&tr, &line_dual(2), &MacConfig::from_ticks(2, 8), false);
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::OverlappingBcasts { .. })));
    }

    #[test]
    fn rejects_orphaned_events() {
        let mut tr = Trace::new();
        tr.push(
            t(1),
            InstanceId::new(9),
            NodeId::new(1),
            TraceKind::Rcv,
            key(),
        );
        let report = validate(&tr, &line_dual(2), &MacConfig::from_ticks(2, 8), false);
        assert!(matches!(
            report.violations()[0],
            Violation::MissingBcast { .. }
        ));
    }

    #[test]
    fn rejects_termination_by_non_sender() {
        let mut tr = Trace::new();
        tr.push(
            t(0),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Bcast,
            key(),
        );
        tr.push(
            t(1),
            InstanceId::new(0),
            NodeId::new(1),
            TraceKind::Rcv,
            key(),
        );
        tr.push(
            t(2),
            InstanceId::new(0),
            NodeId::new(1),
            TraceKind::Ack,
            key(),
        );
        let report = validate(&tr, &line_dual(2), &MacConfig::from_ticks(2, 8), true);
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::TerminationByNonSender { .. })));
    }

    #[test]
    fn abort_exempts_ack_checks() {
        let mut tr = Trace::new();
        tr.push(
            t(0),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Bcast,
            key(),
        );
        tr.push(
            t(3),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Abort,
            key(),
        );
        let report = validate(&tr, &line_dual(2), &MacConfig::from_ticks(2, 8), true);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn late_crash_does_not_excuse_an_overdue_ack() {
        // The sender crashes only at t=100, long after its F_ack = 8 ack
        // window closed: no runtime can produce this trace (a live sender
        // must have acked by t=8), so the exemption must not apply.
        let mut tr = Trace::new();
        tr.push(
            t(0),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Bcast,
            key(),
        );
        tr.push_fault(t(100), NodeId::new(0), crate::FaultKind::Crash);
        let report = validate(&tr, &line_dual(2), &MacConfig::from_ticks(2, 8), true);
        assert!(
            report
                .violations()
                .iter()
                .any(|v| matches!(v, Violation::MissingTermination { .. })),
            "{report}"
        );
    }

    #[test]
    fn recovered_receiver_can_starve_again() {
        // Receiver 1 is crashed during [2, 10) but alive from t=10 on; a
        // G-neighbor instance spans [0, 100] and only delivers at t=100.
        // The window starting exactly at the recovery is uncovered and
        // fully alive: a progress violation — the outage excuses nothing
        // past its end.
        let mut tr = Trace::new();
        tr.push(
            t(0),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Bcast,
            key(),
        );
        tr.push(
            t(100),
            InstanceId::new(0),
            NodeId::new(1),
            TraceKind::Rcv,
            key(),
        );
        tr.push(
            t(100),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Ack,
            key(),
        );
        tr.push_fault(t(2), NodeId::new(1), crate::FaultKind::Crash);
        tr.push_fault(t(10), NodeId::new(1), crate::FaultKind::Recover);
        let report = validate(&tr, &line_dual(2), &MacConfig::from_ticks(4, 200), true);
        assert!(
            report.violations().iter().any(
                |v| matches!(v, Violation::ProgressViolation { window_start, .. }
                    if window_start.ticks() == 10)
            ),
            "{report}"
        );
    }

    #[test]
    fn crashed_sender_exempts_termination_and_progress() {
        // inst0: node 0 broadcasts at t=0 and is silenced by a crash at
        // t=2; it never terminates and never delivers. inst1 extends the
        // horizon past every window inst0 could have spanned.
        let mut tr = Trace::new();
        tr.push(
            t(0),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Bcast,
            key(),
        );
        tr.push(
            t(10),
            InstanceId::new(1),
            NodeId::new(1),
            TraceKind::Bcast,
            MessageKey(2),
        );
        tr.push(
            t(12),
            InstanceId::new(1),
            NodeId::new(0),
            TraceKind::Rcv,
            MessageKey(2),
        );
        tr.push(
            t(13),
            InstanceId::new(1),
            NodeId::new(1),
            TraceKind::Ack,
            MessageKey(2),
        );
        // Without the fault log this trace is invalid (inst0 never
        // terminated in a quiescent run).
        let bare = validate(&tr, &line_dual(2), &MacConfig::from_ticks(4, 64), true);
        assert!(matches!(
            bare.violations()[0],
            Violation::MissingTermination { .. }
        ));
        // With the crash recorded (and a recovery before node 0 receives
        // again), every guarantee is conditioned on liveness: valid.
        tr.push_fault(t(2), NodeId::new(0), crate::FaultKind::Crash);
        tr.push_fault(t(11), NodeId::new(0), crate::FaultKind::Recover);
        let report = validate(&tr, &line_dual(2), &MacConfig::from_ticks(4, 64), true);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn rejects_actions_by_crashed_nodes() {
        let mut tr = valid_trace();
        tr.push_fault(t(0), NodeId::new(1), crate::FaultKind::Crash);
        let report = validate(&tr, &line_dual(2), &MacConfig::from_ticks(2, 8), true);
        assert!(
            report.violations().iter().any(|v| matches!(
                v,
                Violation::ActionWhileCrashed {
                    node,
                    kind: TraceKind::Rcv,
                    ..
                } if node.index() == 1
            )),
            "{report}"
        );
    }

    #[test]
    fn crashed_receiver_exempts_reliable_delivery() {
        let mut tr = Trace::new();
        tr.push(
            t(0),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Bcast,
            key(),
        );
        tr.push(
            t(2),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Ack,
            key(),
        );
        tr.push_fault(t(1), NodeId::new(1), crate::FaultKind::Crash);
        let report = validate(&tr, &line_dual(2), &MacConfig::from_ticks(2, 8), true);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn post_recovery_rebroadcast_is_well_formed() {
        // Instance 0 is silenced by a crash; after recovery the sender
        // starts instance 1 — not an overlapping-broadcast violation.
        let mut tr = Trace::new();
        tr.push(
            t(0),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Bcast,
            key(),
        );
        tr.push(
            t(3),
            InstanceId::new(1),
            NodeId::new(0),
            TraceKind::Bcast,
            MessageKey(2),
        );
        tr.push(
            t(4),
            InstanceId::new(1),
            NodeId::new(1),
            TraceKind::Rcv,
            MessageKey(2),
        );
        tr.push(
            t(5),
            InstanceId::new(1),
            NodeId::new(0),
            TraceKind::Ack,
            MessageKey(2),
        );
        tr.push_fault(t(1), NodeId::new(0), crate::FaultKind::Crash);
        tr.push_fault(t(2), NodeId::new(0), crate::FaultKind::Recover);
        let report = validate(&tr, &line_dual(2), &MacConfig::from_ticks(2, 8), true);
        assert!(report.is_ok(), "{report}");
        // Without the fault log the same trace is rejected twice over
        // (overlap + missing termination of instance 0).
        let mut bare = Trace::new();
        for e in tr.entries() {
            bare.push(e.time, e.instance, e.node, e.kind, e.key);
        }
        let report = validate(&bare, &line_dual(2), &MacConfig::from_ticks(2, 8), true);
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::OverlappingBcasts { .. })));
    }

    #[test]
    fn report_display_lists_violations() {
        let mut tr = Trace::new();
        tr.push(
            t(0),
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Bcast,
            key(),
        );
        let report = validate(&tr, &line_dual(2), &MacConfig::from_ticks(2, 8), true);
        let s = report.to_string();
        assert!(s.contains("violation"));
        assert!(report.clone().into_result().is_err());
    }
}
