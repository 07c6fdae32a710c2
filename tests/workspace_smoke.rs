//! Workspace smoke test: the facade re-exports resolve and the
//! `examples/quickstart.rs` path — generate a network, run BMMB under an
//! adversarial scheduler, validate against the MAC model — works end to end
//! on a small line graph.

use amac::core::{bounds, run_bmmb, Assignment, RunOptions};
use amac::graph::{generators, DualGraph, NodeId};
use amac::mac::{policies::LazyPolicy, MacConfig};
use amac::sim::SimRng;

/// Every facade re-export must resolve to the workspace crate behind it.
/// Referencing one item per layer makes a missing or misrouted re-export a
/// compile error of this test.
#[test]
fn facade_reexports_resolve() {
    let _graph: fn(usize) -> Result<amac::graph::Graph, amac::graph::GraphError> =
        amac::graph::generators::line;
    let _sim: amac::sim::SimRng = amac::sim::SimRng::seed(0);
    let _mac: amac::mac::MacConfig = amac::mac::MacConfig::from_ticks(1, 2);
    let _core: amac::core::Assignment = amac::core::Assignment::all_at(NodeId::new(0), 1);
    let _lower: &str = core::any::type_name::<amac::lower::LowerBoundReport>();
    let _bench: fn(&amac::bench::TrialRunner) -> amac::bench::experiments::fig1_gg::Fig1Gg =
        amac::bench::experiments::fig1_gg::run_smoke_with;
}

/// The quickstart flow on a 10-node line: 2 messages from node 0, lazy
/// duplicate-feeding scheduler, full model validation, and the Theorem 3.2
/// style bound check.
#[test]
fn quickstart_runs_end_to_end_on_a_line() {
    let g = generators::line(10).expect("line(10)");
    let mut rng = SimRng::seed(42);
    let dual = generators::r_restricted_augment(g, 2, 0.4, &mut rng).expect("augment");

    let config = MacConfig::from_ticks(3, 48);
    let assignment = Assignment::all_at(NodeId::new(0), 2);
    let report = run_bmmb(
        &dual,
        config,
        &assignment,
        LazyPolicy::new().prefer_duplicates(),
        &RunOptions::default(),
    );

    assert!(report.solved_and_valid(), "{report}");
    // Every node must receive every message: 2 messages x 10 nodes.
    assert_eq!(report.deliveries, 2 * dual.len());
    // Generous constant over the paper's O(.) bound, as in the doc example.
    let bound = bounds::bmmb_arbitrary(dual.diameter().max(1), 2, &config).ticks();
    assert!(
        report.completion_ticks() <= 4 * bound,
        "completion {} far above bound {bound}",
        report.completion_ticks()
    );
}

/// The reliable-only path from the crate-level doc example, verbatim.
#[test]
fn doc_example_reliable_line() {
    let dual = DualGraph::reliable(generators::line(10).expect("line(10)"));
    let report = run_bmmb(
        &dual,
        MacConfig::from_ticks(2, 40),
        &Assignment::all_at(NodeId::new(0), 2),
        LazyPolicy::new().prefer_duplicates(),
        &RunOptions::default(),
    );
    assert!(report.solved_and_valid());
}
