//! Quickstart: flood three messages through a small dual-graph network
//! with BMMB under a worst-case scheduler, and verify the execution
//! against the abstract MAC layer model.
//!
//! Run with: `cargo run --example quickstart`

use amac::core::{bounds, run_bmmb, Assignment, RunOptions};
use amac::graph::generators;
use amac::mac::{policies::LazyPolicy, MacConfig};
use amac::sim::SimRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 5x6 grid of devices; unreliable links may connect nodes up to 2
    // hops apart (an r-restricted G' with r = 2).
    let g = generators::grid(5, 6)?;
    let mut rng = SimRng::seed(42);
    let dual = generators::r_restricted_augment(g, 2, 0.4, &mut rng)?;
    println!("network: {dual:?}");

    // The MAC layer acknowledges within F_ack = 48 ticks and guarantees
    // progress within F_prog = 3 ticks.
    let config = MacConfig::from_ticks(3, 48);

    // k = 3 messages injected at random nodes at time 0.
    let assignment = Assignment::random(dual.len(), 3, &mut rng);
    for (node, msg) in assignment.arrivals() {
        println!("arrive({:?}) at {node}", msg.id);
    }

    // Run BMMB under the lazy, duplicate-feeding scheduler — the most
    // adversarial generic policy — validated against the model as it runs.
    let report = run_bmmb(
        &dual,
        config,
        &assignment,
        LazyPolicy::new().prefer_duplicates(),
        &RunOptions::default(),
    );

    println!("\n{report}");
    let d = dual.diameter();
    let bound = bounds::bmmb_r_restricted(d, assignment.k(), 2, &config);
    println!(
        "measured {} ticks vs O(D*F_prog + r*k*F_ack) = {} ticks (D = {d}, r = 2, k = {})",
        report.completion_ticks(),
        bound.ticks(),
        assignment.k(),
    );
    assert!(
        report.solved_and_valid(),
        "execution must conform to the model"
    );
    println!("execution validated against the abstract MAC layer guarantees");
    Ok(())
}
