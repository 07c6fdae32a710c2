//! Integration: the execution validator accepts every runtime-produced
//! execution and rejects a mutated one — our mechanical substitute for
//! the paper's model-conformance proofs. The hand-built invalid traces
//! of the `fault_*` tests are rows of the one table in
//! `crates/mac/tests/hand_built/mod.rs`, judged by the post-hoc oracle and
//! the online validator alike.

#[path = "../crates/mac/tests/hand_built/mod.rs"]
mod hand_built;

use amac::core::{Bmmb, MessageId, MmbMessage};
use amac::graph::{generators, DualGraph, NodeId};
use amac::mac::policies::{EagerPolicy, LazyPolicy, RandomPolicy};
use amac::mac::trace::{Trace, TraceKind};
use amac::mac::{MacConfig, MessageKey, OnlineValidator, Runtime, TraceObserver};
use amac::sim::SimRng;

fn run_and_validate(dual: DualGraph, cfg: MacConfig, policy: impl amac::mac::Policy, k: usize) {
    let n = dual.len();
    let nodes = (0..n).map(|_| Bmmb::new()).collect();
    let mut rt = Runtime::new(dual.clone(), cfg, nodes, policy);
    let online = rt.attach(OnlineValidator::new(dual, cfg));
    for i in 0..k {
        rt.inject(
            NodeId::new(i % n),
            MmbMessage {
                id: MessageId(i as u64),
                origin: NodeId::new(i % n),
            },
        );
    }
    rt.run();
    let report = rt.detach(online).into_report(true);
    assert!(report.is_ok(), "{report}");
}

#[test]
fn all_policies_produce_valid_executions_on_many_topologies() {
    let mut rng = SimRng::seed(77);
    let configs = [
        MacConfig::from_ticks(1, 1),
        MacConfig::from_ticks(1, 10),
        MacConfig::from_ticks(4, 17),
        MacConfig::from_ticks(8, 256),
    ];
    for cfg in configs {
        for k in [1usize, 4] {
            run_and_validate(
                DualGraph::reliable(generators::line(12).unwrap()),
                cfg,
                LazyPolicy::new().prefer_duplicates(),
                k,
            );
            run_and_validate(
                generators::r_restricted_augment(generators::grid(3, 4).unwrap(), 2, 0.5, &mut rng)
                    .unwrap(),
                cfg,
                RandomPolicy::new(k as u64),
                k,
            );
            run_and_validate(
                generators::long_range_augment(generators::line(14).unwrap(), 5).unwrap(),
                cfg,
                EagerPolicy::new().with_unreliable(0.7, 9),
                k,
            );
        }
    }
}

#[test]
fn grey_zone_adversary_runs_are_valid() {
    // The specialized Fig 2 adversary stays within the model too.
    let net = generators::dual_line(12).unwrap();
    let cfg = MacConfig::from_ticks(3, 30);
    let nodes = (0..net.dual.len()).map(|_| Bmmb::new()).collect();
    let adversary = amac::lower::GreyZoneAdversary::new(12, MessageKey(0), MessageKey(1));
    let mut rt = Runtime::new(net.dual.clone(), cfg, nodes, adversary);
    let validator = rt.attach(OnlineValidator::new(net.dual.clone(), cfg));
    rt.inject(
        net.a(1),
        MmbMessage {
            id: MessageId(0),
            origin: net.a(1),
        },
    );
    rt.inject(
        net.b(1),
        MmbMessage {
            id: MessageId(1),
            origin: net.b(1),
        },
    );
    rt.run();
    let report = rt.detach(validator).into_report(true);
    assert!(report.is_ok(), "{report}");
}

#[test]
fn mutated_valid_trace_becomes_invalid() {
    // Take a real execution, drop one rcv entry: ack correctness breaks.
    let dual = DualGraph::reliable(generators::line(3).unwrap());
    let cfg = MacConfig::from_ticks(2, 10);
    let nodes = (0..3).map(|_| Bmmb::new()).collect::<Vec<_>>();
    let mut rt = Runtime::new(dual.clone(), cfg, nodes, EagerPolicy::new());
    let tracer = rt.attach(TraceObserver::new());
    rt.inject(
        NodeId::new(0),
        MmbMessage {
            id: MessageId(0),
            origin: NodeId::new(0),
        },
    );
    rt.run();
    let good = rt.detach(tracer).into_trace();
    assert!(OnlineValidator::replay(&good, &dual, &cfg, true).is_ok());

    // Rebuild the trace without the first Rcv entry.
    let mut mutated = Trace::new();
    let mut dropped = false;
    for e in good.entries() {
        if !dropped && e.kind == TraceKind::Rcv {
            dropped = true;
            continue;
        }
        mutated.push(e.time, e.instance, e.node, e.kind, e.key);
    }
    let report = OnlineValidator::replay(&mutated, &dual, &cfg, true);
    assert!(!report.is_ok(), "dropping a delivery must be caught");
}

#[test]
fn fault_missing_reliable_delivery_rejected() {
    hand_built::assert_rows(&["fault_missing_reliable_delivery_rejected"]);
}

#[test]
fn fault_late_ack_rejected() {
    hand_built::assert_rows(&["fault_late_ack_rejected"]);
}

#[test]
fn fault_progress_starvation_rejected() {
    hand_built::assert_rows(&["fault_progress_starvation_rejected"]);
}

#[test]
fn fault_delivery_to_stranger_rejected() {
    hand_built::assert_rows(&["fault_delivery_to_stranger_rejected"]);
}

#[test]
fn fault_double_termination_rejected() {
    hand_built::assert_rows(&["fault_double_termination_rejected"]);
}

#[test]
fn fault_overlapping_user_broadcasts_rejected() {
    hand_built::assert_rows(&["fault_overlapping_user_broadcasts_rejected"]);
}
