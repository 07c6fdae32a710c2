//! The post-hoc reference oracle of the abstract MAC layer guarantees
//! (paper Section 3.2.1), shared by the tests that compare the streaming
//! [`OnlineValidator`](amac_mac::OnlineValidator) against it:
//! `fault_conformance.rs` (`mod oracle;`) and the hand-built trace table
//! (`../hand_built/mod.rs`).
//!
//! [`validate`] re-derives, from a recorded [`Trace`] and the topology,
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
//! When the trace carries a fault log (see [`FaultPlan`](amac_mac::FaultPlan)),
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
//! It sees the whole trace at once and holds all of it, which is why it
//! lives here and not in the library: every run is judged by the
//! streaming validator, and this oracle is what that validator is tested
//! against.

use amac_graph::{DualGraph, NodeId};
use amac_mac::trace::{Trace, TraceKind};
use amac_mac::{FaultKind, InstanceId, MacConfig, Violation};
use amac_sim::Time;
use std::collections::BTreeMap;

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
/// [`OnlineValidator`](amac_mac::OnlineValidator), and tests check that the
/// two find the same violations.
pub(crate) fn validate(
    trace: &Trace,
    dual: &DualGraph,
    config: &MacConfig,
    quiescent: bool,
) -> Vec<Violation> {
    let mut violations = Vec::new();
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
                    violations.push(Violation::DuplicateBcast {
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
                        violations.push(Violation::MultipleTerminations {
                            instance: e.instance,
                        });
                    } else {
                        if e.node != v.sender {
                            violations.push(Violation::TerminationByNonSender {
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
        violations.push(Violation::MissingBcast { instance });
    }

    // No crashed node may act: every event attributed to a node strictly
    // inside one of its crash intervals is a violation.
    if !crashes.is_empty() {
        for e in trace.entries() {
            if crashes.crashed_at(e.node, e.time) {
                violations.push(Violation::ActionWhileCrashed {
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
                violations.push(Violation::RcvToNonNeighbor {
                    instance: *id,
                    receiver,
                });
            }
            if seen.contains(&receiver) {
                violations.push(Violation::DuplicateRcv {
                    instance: *id,
                    receiver,
                });
            }
            seen.push(receiver);
            if let Some((term_idx, _, _)) = v.term {
                if idx > term_idx {
                    violations.push(Violation::RcvAfterTermination {
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
                        violations.push(Violation::MissingReliableDelivery {
                            instance: *id,
                            receiver: g_neighbor,
                        });
                    }
                }
                let delay = term_time.saturating_since(v.bcast_time).ticks();
                if delay > config.f_ack().ticks() {
                    violations.push(Violation::AckBoundExceeded {
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
                    violations.push(Violation::MissingTermination { instance: *id });
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
                violations.push(Violation::ProgressViolation {
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
                violations.push(Violation::OverlappingBcasts {
                    sender,
                    first: pair[0],
                    second: pair[1],
                });
            }
        }
    }

    violations
}
