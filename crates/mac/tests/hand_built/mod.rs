//! The hand-built traces that the MAC validators are checked on, in one
//! table. Each row is a small execution written by hand — most of them
//! invalid on purpose — with the exact violations it must draw. The
//! post-hoc oracle (`../oracle/mod.rs`) and [`OnlineValidator::replay`]
//! must both report exactly those violations, so each row also pins that
//! the two agree. One row differs by a documented margin of
//! `amac_mac::online` and states what the online validator reports on top.
//!
//! A row runs in the test of the same name, through [`assert_rows`]:
//! `amac-mac`'s `validator` and `online` unit tests (the library loads
//! this module under `cfg(test)`) and the facade's
//! `tests/model_conformance.rs` (the `fault_*` rows). A new row needs a
//! test that names it.

#[path = "../oracle/mod.rs"]
mod oracle;

use amac_graph::{generators, DualGraph, NodeId};
use amac_mac::trace::Trace;
use amac_mac::trace::TraceKind::{self, Abort, Ack, Bcast, Rcv};
use amac_mac::FaultKind::{self, Crash, Recover};
use amac_mac::Violation::{
    self, AckBoundExceeded, ActionWhileCrashed, DuplicateBcast, DuplicateRcv, MissingBcast,
    MissingReliableDelivery, MissingTermination, MultipleTerminations, OverlappingBcasts,
    ProgressViolation, RcvAfterTermination, RcvToNonNeighbor, TerminationByNonSender,
};
use amac_mac::{InstanceId, MacConfig, MessageKey, OnlineValidator};
use amac_sim::Time;

/// One hand-built execution and its expected verdict.
pub(crate) struct Row {
    name: &'static str,
    pub(crate) dual: DualGraph,
    pub(crate) config: MacConfig,
    quiescent: bool,
    pub(crate) trace: Trace,
    /// What both validators report, in any order.
    violations: Vec<Violation>,
    /// What the online validator reports on top, by a documented margin.
    margin: Option<Violation>,
}

const QUIESCENT: bool = true;
const TRUNCATED: bool = false;

/// `(tick, instance, node, kind, message key)`.
type Entry = (u64, u64, usize, TraceKind, u64);

/// `(tick, node, kind)`.
type Fault = (u64, usize, FaultKind);

fn row(
    name: &'static str,
    dual: DualGraph,
    (f_prog, f_ack): (u64, u64),
    quiescent: bool,
    trace: Trace,
    violations: Vec<Violation>,
) -> Row {
    Row {
        name,
        dual,
        config: MacConfig::from_ticks(f_prog, f_ack),
        quiescent,
        trace,
        violations,
        margin: None,
    }
}

fn trace(entries: &[Entry], faults: &[Fault]) -> Trace {
    let mut tr = Trace::new();
    for &(tick, instance, node, kind, key) in entries {
        tr.push(t(tick), i(instance), n(node), kind, MessageKey(key));
    }
    for &(tick, node, kind) in faults {
        tr.push_fault(t(tick), n(node), kind);
    }
    tr
}

fn line(nodes: usize) -> DualGraph {
    DualGraph::reliable(generators::line(nodes).unwrap())
}

fn t(ticks: u64) -> Time {
    Time::from_ticks(ticks)
}

fn i(instance: u64) -> InstanceId {
    InstanceId::new(instance)
}

fn n(node: usize) -> NodeId {
    NodeId::new(node)
}

/// Node 0 broadcasts on a 2-node line, node 1 receives, the ack follows.
const VALID: &[Entry] = &[(0, 0, 0, Bcast, 1), (1, 0, 1, Rcv, 1), (2, 0, 0, Ack, 1)];

/// Node 0's instance spans [0, 60] while node 1 hears node 2's
/// broadcasts every 4 ticks.
fn steady_receives_from_a_third_node() -> Trace {
    let mut entries = vec![(0, 0, 0, Bcast, 1)];
    let mut inst = 1;
    let mut time = 0;
    while time < 60 {
        time += 4;
        entries.extend([
            (time, inst, 2, Bcast, inst),
            (time, inst, 1, Rcv, inst),
            (time, inst, 2, Ack, inst),
        ]);
        inst += 1;
    }
    entries.extend([(60, 0, 1, Rcv, 1), (60, 0, 0, Ack, 1)]);
    trace(&entries, &[])
}

/// On a 41-node complete graph every node broadcasts at t=0 and is
/// protected by the end of the tick (instance 1 delivers to all,
/// instance 2 to node 1). In the one tick t=1, instances 1..=40 each
/// deliver to every other node and ack, so every receiver's protection
/// flips off and on dozens of times while instance 0, delivered to
/// nobody yet, keeps it connected. Instance 0 covers nodes 1..=20 at t=3;
/// nodes 21..=40 starve from t=2 and miss their reliable delivery.
fn a_tick_of_protection_flips() -> Row {
    let nodes = 41;
    let mut entries = Vec::new();
    let mut at = |tick: u64, inst: usize, node: usize, kind: TraceKind| {
        entries.push((tick, inst as u64, node, kind, inst as u64));
    };
    for i in 0..nodes {
        at(0, i, i, Bcast);
    }
    for j in (0..nodes).filter(|&j| j != 1) {
        at(0, 1, j, Rcv);
    }
    at(0, 2, 1, Rcv);
    for i in 1..nodes {
        let early = |j: usize| i == 1 || (i == 2 && j == 1);
        for j in (0..nodes).filter(|&j| j != i && !early(j)) {
            at(1, i, j, Rcv);
        }
        at(1, i, i, Ack);
    }
    for j in 1..=nodes / 2 {
        at(3, 0, j, Rcv);
    }
    at(10, 0, 0, Ack);
    let starved = (nodes / 2 + 1..nodes).flat_map(|j| {
        [
            ProgressViolation {
                receiver: n(j),
                instance: i(0),
                window_start: t(2),
            },
            MissingReliableDelivery {
                instance: i(0),
                receiver: n(j),
            },
        ]
    });
    row(
        "a_tick_of_protection_flips_arms_one_deadline_per_receiver",
        DualGraph::reliable(generators::complete(nodes).unwrap()),
        (4, 64),
        QUIESCENT,
        trace(&entries, &[]),
        starved.collect(),
    )
}

/// One row per distinct (trace, dual, config, quiescent), laid out by
/// hand: name, dual, `(F_prog, F_ack)` and run kind, then the trace, then
/// the violations both validators must report.
#[rustfmt::skip]
fn table() -> Vec<Row> {
    vec![
        row("accepts_valid_trace", line(2), (2, 8), QUIESCENT,
            trace(VALID, &[]),
            vec![]),
        row("rejects_missing_reliable_delivery", line(2), (2, 8), QUIESCENT,
            trace(&[(0, 0, 0, Bcast, 1), (2, 0, 0, Ack, 1)], &[]),
            vec![MissingReliableDelivery { instance: i(0), receiver: n(1) }]),
        row("rejects_ack_bound_excess", line(2), (2, 8), QUIESCENT,
            trace(&[(0, 0, 0, Bcast, 1), (1, 0, 1, Rcv, 1), (100, 0, 0, Ack, 1)], &[]),
            vec![AckBoundExceeded { instance: i(0), delay: 100 }]),
        row("rejects_ack_bound_excess (F_ack = 64)", line(2), (4, 64), QUIESCENT,
            trace(&[(0, 0, 0, Bcast, 1), (1, 0, 1, Rcv, 1), (100, 0, 0, Ack, 1)], &[]),
            vec![AckBoundExceeded { instance: i(0), delay: 100 }]),
        row("rejects_rcv_to_non_neighbor", line(3), (2, 8), QUIESCENT,
            trace(&[(0, 0, 0, Bcast, 1), (1, 0, 1, Rcv, 1), (1, 0, 2, Rcv, 1),
                    (2, 0, 0, Ack, 1)], &[]),
            vec![RcvToNonNeighbor { instance: i(0), receiver: n(2) }]),
        row("rejects_duplicate_rcv", line(2), (2, 8), QUIESCENT,
            trace(&[VALID, &[(3, 0, 1, Rcv, 1)]].concat(), &[]),
            vec![DuplicateRcv { instance: i(0), receiver: n(1) },
                 RcvAfterTermination { instance: i(0), receiver: n(1) }]),
        row("rejects_missing_termination_when_quiescent", line(2), (2, 8), QUIESCENT,
            trace(&[(0, 0, 0, Bcast, 1)], &[]),
            vec![MissingTermination { instance: i(0) }]),
        row("rejects_missing_termination_when_quiescent (truncated)", line(2), (2, 8), TRUNCATED,
            trace(&[(0, 0, 0, Bcast, 1)], &[]),
            vec![]),
        row("rejects_progress_starvation", line(2), (4, 64), QUIESCENT,
            trace(&[(0, 0, 0, Bcast, 1), (50, 0, 1, Rcv, 1), (50, 0, 0, Ack, 1)], &[]),
            vec![ProgressViolation { receiver: n(1), instance: i(0), window_start: t(0) }]),
        // A single early receive from the still-live instance covers
        // every window starting before its termination.
        row("progress_covered_by_earlier_rcv_from_live_instance", line(2), (4, 64), QUIESCENT,
            trace(&[(0, 0, 0, Bcast, 1), (3, 0, 1, Rcv, 1), (60, 0, 0, Ack, 1)], &[]),
            vec![]),
        // Instance 1 protects node 1 until it terminates at t=4; instance 0
        // spans [0, 40] and delivers only at t=40.
        row("progress_protection_ends_at_protector_termination", line(3), (4, 64), QUIESCENT,
            trace(&[(0, 0, 0, Bcast, 1), (0, 1, 2, Bcast, 2), (2, 1, 1, Rcv, 2),
                    (4, 1, 2, Ack, 2), (40, 0, 1, Rcv, 1), (40, 0, 0, Ack, 1)], &[]),
            vec![ProgressViolation { receiver: n(1), instance: i(0), window_start: t(5) }]),
        row("progress_satisfied_by_other_instances", line(3), (4, 64), QUIESCENT,
            steady_receives_from_a_third_node(),
            vec![]),
        row("rejects_overlapping_bcasts", line(2), (2, 8), TRUNCATED,
            trace(&[(0, 0, 0, Bcast, 1), (1, 1, 0, Bcast, 2)], &[]),
            vec![OverlappingBcasts { sender: n(0), first: i(0), second: i(1) }]),
        row("rejects_orphaned_events", line(2), (2, 8), TRUNCATED,
            trace(&[(1, 9, 1, Rcv, 1)], &[]),
            vec![MissingBcast { instance: i(9) }]),
        row("rejects_termination_by_non_sender", line(2), (2, 8), QUIESCENT,
            trace(&[(0, 0, 0, Bcast, 1), (1, 0, 1, Rcv, 1), (2, 0, 1, Ack, 1)], &[]),
            vec![TerminationByNonSender { instance: i(0), node: n(1) }]),
        row("abort_exempts_ack_checks", line(2), (2, 8), QUIESCENT,
            trace(&[(0, 0, 0, Bcast, 1), (3, 0, 0, Abort, 1)], &[]),
            vec![]),
        // The sender crashes only at t=100, long after its F_ack = 8 ack
        // window closed: no runtime can produce this trace (a live sender
        // must have acked by t=8), so the crash excuses nothing. The
        // margin: the oracle caps progress spans at the last entry (t=0),
        // while the online validator judges the open window by the crash
        // that follows it.
        Row {
            margin: Some(ProgressViolation { receiver: n(1), instance: i(0), window_start: t(0) }),
            ..row("late_crash_does_not_excuse_an_overdue_ack", line(2), (2, 8), QUIESCENT,
                  trace(&[(0, 0, 0, Bcast, 1)], &[(100, 0, Crash)]),
                  vec![MissingTermination { instance: i(0) }])
        },
        // Receiver 1 is crashed during [2, 10): the window starting at the
        // recovery is uncovered and fully alive.
        row("recovered_receiver_can_starve_again", line(2), (4, 200), QUIESCENT,
            trace(&[(0, 0, 0, Bcast, 1), (100, 0, 1, Rcv, 1), (100, 0, 0, Ack, 1)],
                  &[(2, 1, Crash), (10, 1, Recover)]),
            vec![ProgressViolation { receiver: n(1), instance: i(0), window_start: t(10) }]),
        // Instance 0 is silenced by its sender's crash at t=2; instance 1
        // extends the horizon past every window instance 0 could span.
        row("crashed_sender_exempts_termination_and_progress", line(2), (4, 64), QUIESCENT,
            trace(&[(0, 0, 0, Bcast, 1), (10, 1, 1, Bcast, 2), (12, 1, 0, Rcv, 2),
                    (13, 1, 1, Ack, 2)], &[(2, 0, Crash), (11, 0, Recover)]),
            vec![]),
        row("crashed_sender_exempts_termination_and_progress (no fault log)", line(2), (4, 64),
            QUIESCENT,
            trace(&[(0, 0, 0, Bcast, 1), (10, 1, 1, Bcast, 2), (12, 1, 0, Rcv, 2),
                    (13, 1, 1, Ack, 2)], &[]),
            vec![MissingTermination { instance: i(0) },
                 ProgressViolation { receiver: n(1), instance: i(0), window_start: t(0) }]),
        row("rejects_actions_by_crashed_nodes", line(2), (2, 8), QUIESCENT,
            trace(VALID, &[(0, 1, Crash)]),
            vec![ActionWhileCrashed { instance: i(0), node: n(1), kind: Rcv }]),
        row("crashed_receiver_exempts_reliable_delivery", line(2), (2, 8), QUIESCENT,
            trace(&[(0, 0, 0, Bcast, 1), (2, 0, 0, Ack, 1)], &[(1, 1, Crash)]),
            vec![]),
        // Instance 0 is silenced by a crash; after recovery the sender
        // starts instance 1.
        row("post_recovery_rebroadcast_is_well_formed", line(2), (2, 8), QUIESCENT,
            trace(&[(0, 0, 0, Bcast, 1), (3, 1, 0, Bcast, 2), (4, 1, 1, Rcv, 2),
                    (5, 1, 0, Ack, 2)], &[(1, 0, Crash), (2, 0, Recover)]),
            vec![]),
        row("post_recovery_rebroadcast_is_well_formed (no fault log)", line(2), (2, 8), QUIESCENT,
            trace(&[(0, 0, 0, Bcast, 1), (3, 1, 0, Bcast, 2), (4, 1, 1, Rcv, 2),
                    (5, 1, 0, Ack, 2)], &[]),
            vec![MissingTermination { instance: i(0) },
                 ProgressViolation { receiver: n(1), instance: i(0), window_start: t(0) },
                 OverlappingBcasts { sender: n(0), first: i(0), second: i(1) }]),
        row("duplicate_bcast_is_rejected", line(2), (2, 8), TRUNCATED,
            trace(&[(0, 0, 0, Bcast, 1), (1, 0, 0, Bcast, 1)], &[]),
            vec![DuplicateBcast { instance: i(0) }]),
        row("multiple_terminations_are_rejected", line(2), (2, 8), QUIESCENT,
            trace(&[(0, 0, 0, Bcast, 1), (1, 0, 1, Rcv, 1), (2, 0, 0, Ack, 1),
                    (3, 0, 0, Ack, 1)], &[]),
            vec![MultipleTerminations { instance: i(0) }]),
        a_tick_of_protection_flips(),
        // Node 1 has reliable neighbors 0 and 2; only 0 is served.
        row("fault_missing_reliable_delivery_rejected", line(3), (2, 10), QUIESCENT,
            trace(&[(0, 0, 1, Bcast, 0), (1, 0, 0, Rcv, 0), (2, 0, 1, Ack, 0)], &[]),
            vec![MissingReliableDelivery { instance: i(0), receiver: n(2) }]),
        row("fault_late_ack_rejected", line(3), (2, 10), QUIESCENT,
            trace(&[(0, 0, 0, Bcast, 0), (3, 0, 1, Rcv, 0), (99, 0, 0, Ack, 0)], &[]),
            vec![AckBoundExceeded { instance: i(0), delay: 99 }]),
        // The instance spans [0, 10] but the receiver first hears anything
        // at t=9.
        row("fault_progress_starvation_rejected", line(3), (2, 10), QUIESCENT,
            trace(&[(0, 0, 0, Bcast, 0), (9, 0, 1, Rcv, 0), (10, 0, 0, Ack, 0)], &[]),
            vec![ProgressViolation { receiver: n(1), instance: i(0), window_start: t(0) }]),
        row("fault_delivery_to_stranger_rejected", line(3), (2, 10), QUIESCENT,
            trace(&[(0, 0, 0, Bcast, 0), (1, 0, 1, Rcv, 0), (1, 0, 2, Rcv, 0),
                    (2, 0, 0, Ack, 0)], &[]),
            vec![RcvToNonNeighbor { instance: i(0), receiver: n(2) }]),
        row("fault_double_termination_rejected", line(3), (2, 10), QUIESCENT,
            trace(&[(0, 0, 0, Bcast, 0), (1, 0, 1, Rcv, 0), (2, 0, 0, Ack, 0),
                    (3, 0, 0, Abort, 0)], &[]),
            vec![MultipleTerminations { instance: i(0) }]),
        row("fault_overlapping_user_broadcasts_rejected", line(3), (2, 10), TRUNCATED,
            trace(&[(0, 0, 0, Bcast, 0), (1, 1, 0, Bcast, 1)], &[]),
            vec![OverlappingBcasts { sender: n(0), first: i(0), second: i(1) }]),
        // The leaves of a star broadcast i1, i5 and then i3 in one tick,
        // so i3 sorts before i5 among the hub's connected instances. i1
        // and i3 protect the hub and terminate; i5 starves it from t=3. Kept
        // in arrival order instead, i3 would sit behind the larger i5 where
        // no search finds it at i3's ack, and would be reported as well.
        row("same_tick_bcasts_in_descending_ids_stay_in_start_order",
            DualGraph::reliable(generators::star(4).unwrap()), (4, 64), QUIESCENT,
            trace(&[(0, 1, 1, Bcast, 1), (0, 5, 2, Bcast, 5), (0, 3, 3, Bcast, 3),
                    (0, 1, 0, Rcv, 1), (1, 3, 0, Rcv, 3), (1, 3, 3, Ack, 3),
                    (2, 1, 1, Ack, 1), (20, 5, 0, Rcv, 5), (20, 5, 2, Ack, 5)], &[]),
            vec![ProgressViolation { receiver: n(0), instance: i(5), window_start: t(3) }]),
        // Node 0's one reliable neighbor is node 1; node 2 is a `G′`-only
        // neighbor. Its instance reaches node 2 alone, so a count of every
        // receiver would equal `deg_G(0)` = 1.
        row("unreliable_delivery_does_not_stand_in_for_a_reliable_one",
            DualGraph::new(generators::line(3).unwrap(), generators::complete(3).unwrap())
                .unwrap(),
            (2, 8), QUIESCENT,
            trace(&[(0, 0, 0, Bcast, 1), (1, 0, 2, Rcv, 1), (1, 0, 0, Ack, 1)], &[]),
            vec![MissingReliableDelivery { instance: i(0), receiver: n(1) }]),
        // Node 2 hears node 1's instance before node 0 does, then hears it
        // again. Appended out of order, node 2 would no longer sort last,
        // and the repeat would pass as a first delivery.
        row("duplicate_rcv_after_an_out_of_order_delivery", line(3), (2, 8), QUIESCENT,
            trace(&[(0, 0, 1, Bcast, 1), (1, 0, 2, Rcv, 1), (1, 0, 0, Rcv, 1),
                    (1, 0, 2, Rcv, 1), (2, 0, 1, Ack, 1)], &[]),
            vec![DuplicateRcv { instance: i(0), receiver: n(2) }]),
        // Node 1's instance reaches neither reliable neighbor: node 0 is
        // excused by its crash, node 2 is not.
        row("crash_exempts_only_the_crashed_receiver", line(3), (2, 8), QUIESCENT,
            trace(&[(0, 0, 1, Bcast, 1), (2, 0, 1, Ack, 1)], &[(1, 0, Crash)]),
            vec![MissingReliableDelivery { instance: i(0), receiver: n(2) }]),
    ]
}

/// Order-insensitive view of a violation list.
fn violation_set(violations: &[Violation]) -> Vec<String> {
    let mut v: Vec<String> = violations.iter().map(|x| format!("{x:?}")).collect();
    v.sort();
    v
}

/// Asserts, for each named row, that the oracle and
/// [`OnlineValidator::replay`] both report exactly its expected violations
/// (the online validator also its margin), and returns the rows.
pub(crate) fn assert_rows(names: &[&str]) -> Vec<Row> {
    let mut table = table();
    let rows: Vec<Row> = names
        .iter()
        .map(|name| {
            let at = table.iter().position(|row| row.name == *name);
            table.swap_remove(at.unwrap_or_else(|| panic!("no hand-built row {name:?}")))
        })
        .collect();
    let mut failures = Vec::new();
    for row in &rows {
        let expected = violation_set(&row.violations);
        let oracle = oracle::validate(&row.trace, &row.dual, &row.config, row.quiescent);
        if violation_set(&oracle) != expected {
            failures.push(format!(
                "{}: oracle reports {oracle:?}, expected {:?}",
                row.name, row.violations
            ));
        }
        let online_expected: Vec<Violation> =
            row.violations.iter().chain(&row.margin).cloned().collect();
        let online = OnlineValidator::replay(&row.trace, &row.dual, &row.config, row.quiescent);
        if violation_set(online.violations()) != violation_set(&online_expected) {
            failures.push(format!(
                "{}: online validator reports {:?}, expected {online_expected:?}",
                row.name,
                online.violations()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    rows
}
