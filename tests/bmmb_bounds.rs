//! Integration: BMMB solves MMB across topologies and schedulers, within
//! the paper's bounds, with every execution validated against the MAC
//! model.

use amac::core::{bounds, run_bmmb, Assignment, RunOptions};
use amac::graph::{generators, DualGraph, NodeId};
use amac::mac::policies::{EagerPolicy, LazyPolicy, RandomPolicy};
use amac::mac::MacConfig;
use amac::sim::SimRng;

fn cfg() -> MacConfig {
    MacConfig::from_ticks(2, 40)
}

#[test]
fn bmmb_solves_on_every_classic_topology() {
    let topologies: Vec<(&str, amac::graph::Graph)> = vec![
        ("line", generators::line(24).unwrap()),
        ("ring", generators::ring(24).unwrap()),
        ("grid", generators::grid(4, 6).unwrap()),
        ("star", generators::star(24).unwrap()),
        ("tree", generators::tree(24, 2).unwrap()),
        ("barbell", generators::barbell(8, 8).unwrap()),
        ("complete", generators::complete(12).unwrap()),
    ];
    for (name, g) in topologies {
        let n = g.len();
        let dual = DualGraph::reliable(g);
        let assignment = Assignment::all_at(NodeId::new(0), 3);
        let report = run_bmmb(
            &dual,
            cfg(),
            &assignment,
            LazyPolicy::new().prefer_duplicates(),
            &RunOptions::default(),
        );
        assert!(report.solved_and_valid(), "{name}: {report}");
        assert_eq!(
            report.deliveries,
            3 * n,
            "{name}: one delivery per (msg, node)"
        );
    }
}

#[test]
fn bmmb_solves_under_every_scheduler() {
    let g = generators::grid(5, 5).unwrap();
    let mut rng = SimRng::seed(1);
    let dual = generators::r_restricted_augment(g, 3, 0.4, &mut rng).unwrap();
    let assignment = Assignment::random(25, 5, &mut rng);

    let eager = run_bmmb(
        &dual,
        cfg(),
        &assignment,
        EagerPolicy::new(),
        &RunOptions::default(),
    );
    assert!(eager.solved_and_valid(), "eager: {eager}");

    let leaky = run_bmmb(
        &dual,
        cfg(),
        &assignment,
        EagerPolicy::new().with_unreliable(1.0, 3),
        &RunOptions::default(),
    );
    assert!(leaky.solved_and_valid(), "eager+unreliable: {leaky}");

    let lazy = run_bmmb(
        &dual,
        cfg(),
        &assignment,
        LazyPolicy::new().prefer_duplicates(),
        &RunOptions::default(),
    );
    assert!(lazy.solved_and_valid(), "lazy: {lazy}");

    for seed in 0..5 {
        let random = run_bmmb(
            &dual,
            cfg(),
            &assignment,
            RandomPolicy::new(seed),
            &RunOptions::default(),
        );
        assert!(random.solved_and_valid(), "random({seed}): {random}");
    }
}

#[test]
fn theorem_316_exact_deadline_across_r() {
    // The Theorem 3.16 deadline t1 (at the effective integer-tick progress
    // constant F_prog + 1) upper-bounds every measured completion.
    let config = cfg();
    let effective = MacConfig::from_ticks(config.f_prog().ticks() + 1, config.f_ack().ticks());
    for r in [1usize, 2, 4, 8] {
        for k in [1usize, 3, 6] {
            let d = 20;
            let g = generators::line(d + 1).unwrap();
            let mut rng = SimRng::seed((r * 100 + k) as u64);
            let dual = generators::r_restricted_augment(g, r, 0.5, &mut rng).unwrap();
            let assignment = Assignment::all_at(NodeId::new(0), k);
            let report = run_bmmb(
                &dual,
                config,
                &assignment,
                LazyPolicy::new().prefer_duplicates(),
                &RunOptions::default(),
            );
            assert!(report.solved_and_valid(), "r={r} k={k}: {report}");
            let t1 = bounds::bmmb_r_restricted_exact(d, k, r, &effective).ticks();
            assert!(
                report.completion_ticks() <= t1,
                "r={r} k={k}: measured {} exceeds exact t1 = {t1}",
                report.completion_ticks()
            );
        }
    }
}

#[test]
fn arbitrary_g_prime_upper_bound_holds() {
    // Theorem 3.1: O((D+k) * F_ack) for arbitrary G'.
    for (d, k) in [(16usize, 2usize), (32, 4), (24, 8)] {
        let g = generators::line(d + 1).unwrap();
        let dual = generators::long_range_augment(g, d / 2).unwrap();
        let assignment = Assignment::all_at(NodeId::new(0), k);
        let report = run_bmmb(
            &dual,
            cfg(),
            &assignment,
            LazyPolicy::new().prefer_duplicates(),
            &RunOptions::default(),
        );
        assert!(report.solved_and_valid(), "D={d} k={k}: {report}");
        let bound = bounds::bmmb_arbitrary(d, k, &cfg()).ticks();
        assert!(
            report.completion_ticks() <= 2 * bound,
            "D={d} k={k}: {} > 2x bound {bound}",
            report.completion_ticks()
        );
    }
}

#[test]
fn disconnected_networks_complete_per_component() {
    // Two components; messages start in each; completion is per-component.
    let g = amac::graph::Graph::from_edges(
        12,
        (0..5)
            .map(|i| (i, i + 1))
            .chain((6..11).map(|i| (i, i + 1))),
    )
    .unwrap();
    let dual = DualGraph::reliable(g);
    let assignment = Assignment::singleton([NodeId::new(0), NodeId::new(6)]);
    let report = run_bmmb(
        &dual,
        cfg(),
        &assignment,
        LazyPolicy::new(),
        &RunOptions::default(),
    );
    assert!(report.solved_and_valid(), "{report}");
    // 6 deliveries per message (its own component only).
    assert_eq!(report.deliveries, 12);
}

#[test]
fn online_arrivals_are_also_solved() {
    // The paper's footnote-4 variant: messages arriving mid-execution.
    use amac::core::{Bmmb, CompletionTracker, Delivered, MessageId, MmbMessage};
    use amac::mac::{OnlineValidator, Runtime};
    use amac::sim::Time;

    let dual = DualGraph::reliable(generators::line(10).unwrap());
    let nodes = (0..10).map(|_| Bmmb::new()).collect();
    let mut rt = Runtime::new(dual.clone(), cfg(), nodes, LazyPolicy::new());
    let validator = rt.attach(OnlineValidator::new(dual.clone(), cfg()));
    let m0 = MmbMessage {
        id: MessageId(0),
        origin: NodeId::new(0),
    };
    let m1 = MmbMessage {
        id: MessageId(1),
        origin: NodeId::new(9),
    };
    rt.inject(NodeId::new(0), m0);
    rt.inject_at(Time::from_ticks(100), NodeId::new(9), m1);
    rt.run();

    let assignment = Assignment::new([
        (NodeId::new(0), MessageId(0)),
        (NodeId::new(9), MessageId(1)),
    ]);
    let mut tracker = CompletionTracker::new(&dual, &assignment);
    for rec in rt.outputs() {
        let Delivered(id) = rec.out;
        tracker.record(rec.time, rec.node, id);
    }
    assert!(tracker.is_complete(), "{} missing", tracker.remaining());
    let report = rt.detach(validator).into_report(true);
    assert!(report.is_ok(), "{report}");
}
