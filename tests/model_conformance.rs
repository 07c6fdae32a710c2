//! Integration: the execution validator accepts every runtime-produced
//! execution and rejects injected faults — our mechanical substitute for
//! the paper's model-conformance proofs.

use amac::core::{Bmmb, MessageId, MmbMessage};
use amac::graph::{generators, DualGraph, NodeId};
use amac::mac::policies::{EagerPolicy, LazyPolicy, RandomPolicy};
use amac::mac::trace::{Trace, TraceKind};
use amac::mac::{
    validate, InstanceId, MacConfig, MessageKey, OnlineValidator, Runtime, TraceObserver, Violation,
};
use amac::sim::{SimRng, Time};

fn run_and_validate(dual: DualGraph, cfg: MacConfig, policy: impl amac::mac::Policy, k: usize) {
    let n = dual.len();
    let nodes = (0..n).map(|_| Bmmb::new()).collect();
    let mut rt = Runtime::new(dual.clone(), cfg, nodes, policy);
    let tracer = rt.attach(TraceObserver::new());
    let online = rt.attach(OnlineValidator::new(dual.clone(), cfg));
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
    let report = validate(rt.observer(&tracer).trace(), &dual, rt.config(), true);
    assert!(report.is_ok(), "{report}");
    // The streaming validator, fed the same execution live, agrees.
    let online = rt.detach(online).into_report(true);
    assert!(online.is_ok(), "online: {online}");
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
    let tracer = rt.attach(TraceObserver::new());
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
    let report = validate(rt.observer(&tracer).trace(), &net.dual, rt.config(), true);
    assert!(report.is_ok(), "{report}");
}

// ---------------------------------------------------------------------
// Fault injection: hand-built invalid traces must be rejected.
// ---------------------------------------------------------------------

fn base_cfg() -> MacConfig {
    MacConfig::from_ticks(2, 10)
}

fn line3() -> DualGraph {
    DualGraph::reliable(generators::line(3).unwrap())
}

fn key(i: u64) -> MessageKey {
    MessageKey(i)
}

#[test]
fn fault_missing_reliable_delivery_rejected() {
    let mut tr = Trace::new();
    tr.push(
        Time::ZERO,
        InstanceId::new(0),
        NodeId::new(1),
        TraceKind::Bcast,
        key(0),
    );
    // Node 1 has reliable neighbors 0 and 2; only 0 is served.
    tr.push(
        Time::from_ticks(1),
        InstanceId::new(0),
        NodeId::new(0),
        TraceKind::Rcv,
        key(0),
    );
    tr.push(
        Time::from_ticks(2),
        InstanceId::new(0),
        NodeId::new(1),
        TraceKind::Ack,
        key(0),
    );
    let report = validate(&tr, &line3(), &base_cfg(), true);
    assert!(report
        .violations()
        .iter()
        .any(|v| matches!(v, Violation::MissingReliableDelivery { .. })));
}

#[test]
fn fault_late_ack_rejected() {
    let mut tr = Trace::new();
    tr.push(
        Time::ZERO,
        InstanceId::new(0),
        NodeId::new(0),
        TraceKind::Bcast,
        key(0),
    );
    tr.push(
        Time::from_ticks(3),
        InstanceId::new(0),
        NodeId::new(1),
        TraceKind::Rcv,
        key(0),
    );
    tr.push(
        Time::from_ticks(99),
        InstanceId::new(0),
        NodeId::new(0),
        TraceKind::Ack,
        key(0),
    );
    let report = validate(&tr, &line3(), &base_cfg(), true);
    assert!(report
        .violations()
        .iter()
        .any(|v| matches!(v, Violation::AckBoundExceeded { .. })));
}

#[test]
fn fault_progress_starvation_rejected() {
    // Instance spans [0, 10] (within F_ack) but the receiver first hears
    // anything at t = 9: uncovered windows from t = 0.
    let cfg = MacConfig::from_ticks(2, 10);
    let mut tr = Trace::new();
    tr.push(
        Time::ZERO,
        InstanceId::new(0),
        NodeId::new(0),
        TraceKind::Bcast,
        key(0),
    );
    tr.push(
        Time::from_ticks(9),
        InstanceId::new(0),
        NodeId::new(1),
        TraceKind::Rcv,
        key(0),
    );
    tr.push(
        Time::from_ticks(10),
        InstanceId::new(0),
        NodeId::new(0),
        TraceKind::Ack,
        key(0),
    );
    let report = validate(&tr, &line3(), &cfg, true);
    assert!(report
        .violations()
        .iter()
        .any(|v| matches!(v, Violation::ProgressViolation { .. })));
}

#[test]
fn fault_delivery_to_stranger_rejected() {
    // Node 0 and node 2 are not G'-neighbors on a 3-line.
    let mut tr = Trace::new();
    tr.push(
        Time::ZERO,
        InstanceId::new(0),
        NodeId::new(0),
        TraceKind::Bcast,
        key(0),
    );
    tr.push(
        Time::from_ticks(1),
        InstanceId::new(0),
        NodeId::new(1),
        TraceKind::Rcv,
        key(0),
    );
    tr.push(
        Time::from_ticks(1),
        InstanceId::new(0),
        NodeId::new(2),
        TraceKind::Rcv,
        key(0),
    );
    tr.push(
        Time::from_ticks(2),
        InstanceId::new(0),
        NodeId::new(0),
        TraceKind::Ack,
        key(0),
    );
    let report = validate(&tr, &line3(), &base_cfg(), true);
    assert!(report.violations().iter().any(
        |v| matches!(v, Violation::RcvToNonNeighbor { receiver, .. } if *receiver == NodeId::new(2))
    ));
}

#[test]
fn fault_double_termination_rejected() {
    let mut tr = Trace::new();
    tr.push(
        Time::ZERO,
        InstanceId::new(0),
        NodeId::new(0),
        TraceKind::Bcast,
        key(0),
    );
    tr.push(
        Time::from_ticks(1),
        InstanceId::new(0),
        NodeId::new(1),
        TraceKind::Rcv,
        key(0),
    );
    tr.push(
        Time::from_ticks(2),
        InstanceId::new(0),
        NodeId::new(0),
        TraceKind::Ack,
        key(0),
    );
    tr.push(
        Time::from_ticks(3),
        InstanceId::new(0),
        NodeId::new(0),
        TraceKind::Abort,
        key(0),
    );
    let report = validate(&tr, &line3(), &base_cfg(), true);
    assert!(report
        .violations()
        .iter()
        .any(|v| matches!(v, Violation::MultipleTerminations { .. })));
}

#[test]
fn fault_overlapping_user_broadcasts_rejected() {
    let mut tr = Trace::new();
    tr.push(
        Time::ZERO,
        InstanceId::new(0),
        NodeId::new(0),
        TraceKind::Bcast,
        key(0),
    );
    tr.push(
        Time::from_ticks(1),
        InstanceId::new(1),
        NodeId::new(0),
        TraceKind::Bcast,
        key(1),
    );
    let report = validate(&tr, &line3(), &base_cfg(), false);
    assert!(report
        .violations()
        .iter()
        .any(|v| matches!(v, Violation::OverlappingBcasts { .. })));
}

#[test]
fn mutated_valid_trace_becomes_invalid() {
    // Take a real execution, drop one rcv entry: ack correctness breaks.
    let dual = line3();
    let cfg = base_cfg();
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
    assert!(validate(&good, &dual, &cfg, true).is_ok());

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
    let report = validate(&mutated, &dual, &cfg, true);
    assert!(!report.is_ok(), "dropping a delivery must be caught");
}
