//! `ELECT` — randomized back-off leader election on grey-zone duals.
//!
//! The wake-up service underlying the consensus constructions of NR18:
//! every node sleeps a uniform back-off in `[0, W)`, the first to wake
//! claims leadership, claims flood (at `F_prog` speed under the lazy
//! scheduler) and suppress later wake-ups, smallest claimed id wins.
//!
//! One sweep: **`n`** over per-trial sampled connected grey-zone networks
//! at constant deployment density (diameter grows like `√n`). Measured:
//!
//! * convergence time — expected `O(W + D·F_prog)`; the table reports the
//!   per-trial reference bound `W + 2(D+1)(F_prog+1)` alongside;
//! * claimant count — back-off suppression keeps it far below `n` (the
//!   message-complexity argument for the back-off);
//! * per-trial election violations ([`amac_proto::validate_election`]):
//!   agreement, completeness, claimant-ship, minimality — mean must be 0.

use super::LabeledOutlier;
use crate::engine::{CellResult, TrialRunner, TrialStats};
use crate::table::{ci_cell, mean_cell, Table};
use amac_graph::generators::{connected_grey_zone_network, GreyZoneConfig, GreyZoneNetwork};
use amac_mac::policies::LazyPolicy;
use amac_mac::{FaultPlan, MacConfig};
use amac_proto::election::run_election;
use amac_sim::{Duration, SimRng};

/// One measured sweep point of the election experiment.
#[derive(Clone, Copy, Debug)]
pub struct ElectionPoint {
    /// Network size `n`.
    pub n: usize,
    /// Convergence-time statistics over the trials, in ticks.
    pub measured: TrialStats,
    /// Claimant-count statistics over the trials.
    pub claimants: TrialStats,
    /// Per-trial election violation counts (mean must be 0).
    pub violations: TrialStats,
    /// Mean of the per-trial reference bound `W + 2(D+1)(F_prog+1)`.
    pub bound: u64,
}

/// Results of the `ELECT` experiment.
#[derive(Clone, Debug)]
pub struct Election {
    /// The `n` sweep.
    pub n_sweep: Vec<ElectionPoint>,
    /// Sum of all per-trial violations — 0.0 for a correct protocol.
    pub total_violations: f64,
    /// Captured outlier traces per sweep point.
    pub outliers: Vec<LabeledOutlier>,
    /// Rendered table.
    pub table: Table,
}

struct TrialSetup {
    nets: Vec<GreyZoneNetwork>,
}

/// Runs the experiment: back-off window `window` ticks, grey-zone samples
/// of each size in `ns` at `density` nodes per unit area, one fresh
/// sample per trial.
#[allow(clippy::too_many_arguments)]
pub fn run(
    f_prog: u64,
    f_ack: u64,
    window: u64,
    ns: &[usize],
    density: f64,
    seed: u64,
    runner: &TrialRunner,
) -> Election {
    let config = MacConfig::from_ticks(f_prog, f_ack).enhanced();
    // Four lanes: convergence, claimants, violations, per-trial bound.
    let widths = vec![4usize; ns.len()];
    let run = runner.run_sweep(
        seed,
        &widths,
        |trial| {
            let mut rng = SimRng::seed(trial.seed(seed));
            let nets = ns
                .iter()
                .map(|&n| {
                    let side = (n as f64 / density).sqrt();
                    connected_grey_zone_network(
                        &GreyZoneConfig::new(n, side).with_c(2.0),
                        500,
                        &mut rng,
                    )
                    .expect("connected sample")
                })
                .collect();
            TrialSetup { nets }
        },
        |setup, cell| {
            let net = &setup.nets[cell.point];
            let mut rng = cell.rng.clone();
            let report = run_election(
                &net.dual,
                config,
                Duration::from_ticks(window),
                rng.next(),
                FaultPlan::new(),
                LazyPolicy::new(),
                &super::cell_options(cell),
            );
            let d = net.dual.diameter() as u64;
            let bound = window + 2 * (d + 1) * (f_prog + 1);
            let convergence = report
                .convergence
                .map(amac_sim::Time::ticks)
                .unwrap_or(report.end_time.ticks()) as f64;
            let violations = report.violation_count() as f64;
            CellResult::vector(vec![
                convergence,
                report.claimants.len() as f64,
                violations,
                bound as f64,
            ])
        },
    );
    let label = |i: usize| format!("n={}", ns[i]);
    let outliers = super::collect_outliers(&run, label);

    let n_sweep: Vec<ElectionPoint> = ns
        .iter()
        .enumerate()
        .map(|(i, &n)| ElectionPoint {
            n,
            measured: TrialStats::from_aggregate(run.point(i).lane(0)),
            claimants: TrialStats::from_aggregate(run.point(i).lane(1)),
            violations: TrialStats::from_aggregate(run.point(i).lane(2)),
            bound: (run.point(i).lane(3).mean().round() as u64).max(1),
        })
        .collect();
    let total_violations: f64 = n_sweep
        .iter()
        .map(|p| p.violations.mean * p.violations.trials as f64)
        .sum();

    let mut table = Table::new(
        format!(
            "ELECT  leader election, grey zone G' (back-off W={window}, F_prog={f_prog}, F_ack={f_ack})"
        ),
        &[
            "sweep", "value", "converged@", "ci95", "W+2(D+1)(Fp+1)", "ratio", "claimants",
            "violations",
        ],
    );
    for p in &n_sweep {
        table.row([
            "n".to_string(),
            p.n.to_string(),
            mean_cell(&p.measured),
            ci_cell(&p.measured),
            p.bound.to_string(),
            format!("{:.2}", p.measured.mean / p.bound as f64),
            format!("{:.1}", p.claimants.mean),
            format!("{:.1}", p.violations.mean),
        ]);
    }
    table.note(format!(
        "{}, each on a fresh grey-zone sample",
        super::trials_phrase(runner, &run)
    ));
    table.note(format!(
        "violations column: per-trial ElectionValidator count (agreement/completeness/minimality); total = {total_violations:.0}"
    ));
    table.note(
        "claimants stays far below n: the first claim's flood (at F_prog speed) suppresses \
         later back-off timers — the wake-up argument of NR18",
    );
    super::append_plots(&mut table, runner, &run, label);

    Election {
        n_sweep,
        total_violations,
        outliers,
        table,
    }
}

/// Default parameterisation at an explicit trial/job count.
pub fn run_default_with(runner: &TrialRunner) -> Election {
    run(2, 16, 64, &[16, 32, 64, 96], 2.0, 17, runner)
}

/// Smoke parameterisation (what `repro --smoke` runs) at an explicit
/// trial/job count.
pub fn run_smoke_with(runner: &TrialRunner) -> Election {
    run(2, 12, 24, &[12, 16], 2.0, 17, runner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elections_agree_and_stay_within_the_bound() {
        let res = run(2, 12, 24, &[12, 20], 2.0, 17, &TrialRunner::new(3, 2));
        assert_eq!(res.total_violations, 0.0, "{}", res.table);
        for p in &res.n_sweep {
            assert_eq!(p.violations.max, 0.0);
            assert!(
                p.measured.mean <= p.bound as f64,
                "n={}: mean convergence {} above reference bound {}",
                p.n,
                p.measured.mean,
                p.bound
            );
            assert!(p.claimants.mean >= 1.0);
        }
    }

    #[test]
    fn suppression_scales_sublinearly() {
        let res = run(2, 12, 48, &[12, 32], 2.0, 9, &TrialRunner::new(3, 2));
        let small = &res.n_sweep[0];
        let large = &res.n_sweep[1];
        assert!(
            large.claimants.mean < large.n as f64 / 2.0,
            "claims must not track n: {} of {}",
            large.claimants.mean,
            large.n
        );
        assert!(small.claimants.mean >= 1.0);
    }

    #[test]
    fn captured_traces_are_model_valid() {
        let dir = crate::experiments::capture_tests::capture_dir("election");
        let runner = TrialRunner::new(2, 2).with_trace_capture(&dir);
        let res = run(2, 12, 16, &[10], 2.0, 3, &runner);
        crate::experiments::capture_tests::replay_clean(&res.outliers);
        std::fs::remove_dir_all(&dir).ok();
    }
}
