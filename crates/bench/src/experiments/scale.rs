//! `SCALE` — runtime throughput and streaming-validation memory at
//! `n` up to 10⁶ (10⁵ in smoke mode).
//!
//! This experiment is about the *system*, not the paper: it sweeps BMMB
//! floods over large `G′ = G` jittered-grid duals
//! ([`generators::grid_grey_zone_network`] with grey probability 0 — the
//! O(n) generator with an analytic diameter, so topology construction
//! never dominates the measurement) with the streaming
//! [`OnlineValidator`](amac_mac::OnlineValidator) attached, and reports
//!
//! * **seq ev/s** — wall-clock runtime throughput (the one wall-clock
//!   column, exempt from the byte-identity contract like the JSON wall
//!   clock);
//! * **peak live / peak tracked** — the validator's peak in-flight state,
//!   the evidence that conformance checking no longer retains the
//!   execution: at `n = 10⁵` the validator tracks a few thousand instance
//!   records while the execution produces millions of events;
//! * **violations** — always 0: every sweep point is a fully validated
//!   execution.
//!
//! Before the observer refactor these sweeps were memory-bound: a
//! validated run materialized the full trace (O(events)) and re-scanned it
//! post hoc. The pre-refactor pin recorded in the table notes is the
//! anchor for the throughput trajectory in `BENCH_scale.json`.

use super::LabeledOutlier;
use crate::engine::{CellResult, TrialRunner};
use crate::table::Table;
use amac_core::{run_bmmb, Assignment, MmbReport, RunOptions};
use amac_graph::{generators, NodeId};
use amac_mac::policies::EagerPolicy;
use amac_mac::MacConfig;
use amac_sim::SimRng;
use std::time::Instant;

/// One measured scale point.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Network size (nodes on the jittered grid).
    pub n: usize,
    /// Total runtime events processed.
    pub events: u64,
    /// MAC instances broadcast.
    pub instances: u64,
    /// Completion time of the flood, in ticks.
    pub completion: u64,
    /// Peak live instances tracked by the streaming validator.
    pub peak_live: u64,
    /// Peak live + recently-retired instance records (the validator's
    /// whole per-instance memory).
    pub peak_tracked: u64,
    /// Validation violations (must be 0).
    pub violations: u64,
    /// Wall-clock events per second (machine-dependent; exempt from the
    /// byte-identity contract).
    pub seq_events_per_sec: f64,
}

/// Results of the `SCALE` experiment.
#[derive(Clone, Debug)]
pub struct Scale {
    /// One point per swept `n`.
    pub points: Vec<ScalePoint>,
    /// Captured outlier traces (capture replays re-run with a trace
    /// observer attached; empty otherwise).
    pub outliers: Vec<LabeledOutlier>,
    /// Rendered table. The `seq ev/s` column is wall clock; every other
    /// cell is byte-identical across `--jobs` and machines.
    pub table: Table,
}

/// The workload is a deterministic BMMB grid flood under the eager
/// scheduler: extra trials would re-measure identical values.
pub const DETERMINISTIC: bool = true;

/// Pre-refactor pin (trace-recording runtime + post-hoc validation) on the
/// n=1000, k=2 flooding workload, recorded before the observer refactor
/// landed — the anchor the ≥2× streaming-pipeline claim is measured
/// against. Machine: the CI-class box this workspace is developed on.
pub const PRE_REFACTOR_PIN_EVENTS_PER_SEC: f64 = 3_200_000.0;

/// Messages flooded per point (small and fixed: the sweep scales `n`).
const MESSAGES: usize = 2;

/// Topology seed. Only the grid jitter flows from it (grey probability is
/// 0, so `G′ = G` and the edge set is fixed by the grid arithmetic).
const TOPOLOGY_SEED: u64 = 0x5CA1E;

fn measure(n: usize, capture: bool) -> (MmbReport, f64) {
    let mut rng = SimRng::seed(TOPOLOGY_SEED ^ n as u64);
    let net = generators::grid_grey_zone_network(n, 0.0, &mut rng).expect("n >= 1");
    let assignment = Assignment::all_at(NodeId::new(0), MESSAGES);
    let config = MacConfig::from_ticks(2, 32);
    let options = if capture {
        RunOptions::default().capturing_trace()
    } else {
        RunOptions::default() // streaming validation on, no trace
    };
    let started = Instant::now();
    let report = run_bmmb(&net.dual, config, &assignment, EagerPolicy::new(), &options);
    (report, started.elapsed().as_secs_f64())
}

/// Runs the scale sweep over the given network sizes, timing every point
/// once.
pub fn run(ns: &[usize], runner: &TrialRunner) -> Scale {
    let runner = runner.deterministic();
    // The engine sweep exists solely to serve `--dump-traces` outlier
    // capture; without capture its results would be discarded, so skip
    // the duplicate executions entirely (the measurement pass below is
    // the experiment).
    let outliers = if runner.captures_traces() {
        let widths = vec![1usize; ns.len()];
        let run = runner.run_sweep(
            0,
            &widths,
            |_trial| (),
            |_, cell| {
                let (report, _) = measure(ns[cell.point], cell.capture_requested());
                CellResult::scalar(report.completion_ticks() as f64)
                    .with_capture(super::capture(report.trace, report.validation))
            },
        );
        super::collect_outliers(&run, |i| format!("n={}", ns[i]))
    } else {
        Vec::new()
    };

    // The wall-clock lane is measured outside the engine, sequentially
    // and after a warm-up, so worker contention never pollutes the
    // throughput numbers (and the engine's aggregates stay fully
    // deterministic).
    let _warmup = measure(ns[0], false);
    let points: Vec<ScalePoint> = ns
        .iter()
        .map(|&n| {
            let (report, secs) = measure(n, false);
            let stats = report
                .validator_stats
                .expect("scale runs with streaming validation attached");
            let violations = report
                .validation
                .as_ref()
                .map_or(0, |v| v.violations().len() as u64);
            assert_eq!(
                report.missing, 0,
                "scale flood must complete at n={n}: {report}"
            );
            let events = report.counters.get("events");
            ScalePoint {
                n,
                events,
                instances: report.instances as u64,
                completion: report.completion_ticks(),
                peak_live: stats.peak_live as u64,
                peak_tracked: stats.peak_tracked as u64,
                violations,
                seq_events_per_sec: events as f64 / secs.max(1e-9),
            }
        })
        .collect();

    let mut table = Table::new(
        format!(
            "SCALE  BMMB flood, G'=G jittered grid, streaming validation (k={MESSAGES}, eager)"
        ),
        &[
            "n",
            "events",
            "instances",
            "completion",
            "peak live",
            "peak tracked",
            "seq ev/s",
            "violations",
        ],
    );
    for p in &points {
        table.row([
            p.n.to_string(),
            p.events.to_string(),
            p.instances.to_string(),
            p.completion.to_string(),
            p.peak_live.to_string(),
            p.peak_tracked.to_string(),
            format!("{:.2e}", p.seq_events_per_sec),
            p.violations.to_string(),
        ]);
    }
    table.note(
        "seq ev/s is wall clock (machine-dependent) and exempt from the byte-identity contract; \
         every other column is invariant across --jobs",
    );
    table.note(format!(
        "peak live/tracked = streaming validator state: bounded by in-flight instances, \
         not execution length (pre-refactor pipeline retained the full trace, \
         pin {PRE_REFACTOR_PIN_EVENTS_PER_SEC:.1e} events/s on n=1k)",
    ));

    Scale {
        points,
        outliers,
        table,
    }
}

/// Default parameterisation: 10³ → 10⁶ on the jittered grid. The 10⁶
/// point is tens of seconds wall clock (14M events; see the worked
/// example in EXPERIMENTS.md) — full mode only, smoke stops at 10⁵.
pub fn run_default_with(runner: &TrialRunner) -> Scale {
    run(&[1000, 10_000, 100_000, 1_000_000], runner)
}

/// Smoke parameterisation: seconds-scale in release builds, but still
/// driving a fully validated n=10⁵ execution end-to-end.
pub fn run_smoke_with(runner: &TrialRunner) -> Scale {
    run(&[1000, 100_000], runner)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criterion of the observer refactor, re-derived for
    /// the grid workload: an n=5,000 MMB execution completes end-to-end
    /// with the streaming validator attached, zero violations, and no
    /// full-trace retention — on a grid the flood frontier is O(√n) nodes
    /// wide, and the validator's peak state tracks that frontier, not the
    /// execution volume. (`run_smoke_with` itself drives n=10⁵, sized for
    /// release-mode CI — too slow for a debug-build unit test, so this
    /// drives `run` directly.)
    #[test]
    fn n5000_grid_flood_has_bounded_validator_state() {
        let res = run(&[1000, 5000], &TrialRunner::new(1, 2));
        assert_eq!(res.points.len(), 2);
        let (small, big) = (&res.points[0], &res.points[1]);
        assert_eq!(big.n, 5000);
        assert_eq!(big.violations, 0, "streaming validation must pass");
        assert!(big.completion > 0);
        assert!(
            big.instances >= 2 * 5000 - 1,
            "every node rebroadcasts every message"
        );
        // Frontier, not volume: peak live instances stay within a small
        // multiple of the grid diagonal (~√n), and the validator never
        // retains even half of the instance records the execution
        // produced.
        for p in [small, big] {
            let diag = (p.n as f64).sqrt();
            assert!(
                (p.peak_live as f64) <= 8.0 * diag,
                "n={}: peak live {} exceeds 8·√n = {:.0}",
                p.n,
                p.peak_live,
                8.0 * diag
            );
            assert!(
                p.peak_live <= p.peak_tracked && p.peak_tracked < p.instances,
                "n={}: peak live {} / tracked {} vs {} instances",
                p.n,
                p.peak_live,
                p.peak_tracked,
                p.instances
            );
        }
        assert!(
            big.peak_tracked * 2 < big.instances,
            "peak tracked {} vs {} instances — no full-trace retention",
            big.peak_tracked,
            big.instances
        );
        // Sub-linear growth: 5× the nodes must grow the live frontier by
        // roughly √5, nowhere near 5×.
        assert!(
            big.peak_live < 3 * small.peak_live,
            "peak live grew {} → {} across a 5× size step — frontier \
             tracking must be sub-linear",
            small.peak_live,
            big.peak_live
        );
        assert!(small.seq_events_per_sec > 0.0 && big.seq_events_per_sec > 0.0);
    }

    // Jobs invariance of the deterministic columns lives in the
    // determinism suite (tests/determinism.rs), alongside the other
    // experiments' entries.

    #[test]
    fn capture_replays_with_valid_traces() {
        let runner = TrialRunner::new(1, 2).with_trace_capture(true);
        let res = run(&[64], &runner);
        assert!(!res.outliers.is_empty());
        for o in &res.outliers {
            assert!(!o.outlier.trace.is_empty(), "{}: empty trace", o.label);
            let v = o.outlier.validation.as_ref().expect("capture validates");
            assert!(v.is_ok(), "{}: {v}", o.label);
        }
    }
}
