//! `ABL-ABORT` — ablation of the enhanced layer's **abort** interface.
//!
//! The paper's conclusion argues that the ability to abort an in-progress
//! broadcast is the decisive extra power of the enhanced MAC layer
//! ("Most existing MAC layers do not offer an interface to abort
//! messages. This result motivates the implementation of this
//! interface"). This experiment quantifies that claim: the identical FMMB
//! algorithm runs once with abort (rounds of `F_prog + 2` ticks) and once
//! without (rounds must stretch to `F_ack + 2` ticks so every broadcast
//! completes naturally). Without abort the round structure — and hence
//! the whole `O((D log n + k log n + log³n))`-round schedule — is paid in
//! units of `F_ack`, erasing the enhanced model's advantage.

use super::LabeledOutlier;
use crate::engine::{CellResult, TrialRunner, TrialStats};
use crate::table::{ci_cell, mean_cell, Table};
use amac_core::{run_fmmb, Assignment, FmmbParams};
use amac_graph::generators::{connected_grey_zone_network, GreyZoneConfig, GreyZoneNetwork};
use amac_mac::policies::LazyPolicy;
use amac_mac::MacConfig;
use amac_sim::SimRng;

/// One ablation row, aggregated over the trials.
#[derive(Clone, Copy, Debug)]
pub struct AblationPoint {
    /// `F_ack` in ticks.
    pub f_ack: u64,
    /// FMMB completion ticks with the abort interface.
    pub with_abort: TrialStats,
    /// FMMB completion ticks without it.
    pub without_abort: TrialStats,
}

impl AblationPoint {
    /// Slowdown factor from removing abort (ratio of mean completion
    /// times).
    pub fn slowdown(&self) -> f64 {
        self.without_abort.mean / self.with_abort.mean
    }
}

/// Results of the abort ablation.
#[derive(Clone, Debug)]
pub struct AblationAbort {
    /// Sweep over `F_ack`.
    pub points: Vec<AblationPoint>,
    /// Captured outlier traces per sweep point (empty unless the runner
    /// has trace capture enabled).
    pub outliers: Vec<LabeledOutlier>,
    /// Rendered table.
    pub table: Table,
}

/// Per-trial shared state: one sampled grey-zone workload reused by every
/// `(F_ack, variant)` cell of the trial.
struct TrialSetup {
    net: GreyZoneNetwork,
    assignment: Assignment,
    d: usize,
    trial_seed: u64,
}

/// Runs the ablation; each trial samples its own grey-zone network and
/// assignment, and runs the identical workload with and without abort.
/// Every `(F_ack, with/without)` pair is its own engine cell, scheduled
/// over the worker pool.
pub fn run(
    f_prog: u64,
    f_acks: &[u64],
    n: usize,
    density: f64,
    k: usize,
    seed: u64,
    runner: &TrialRunner,
) -> AblationAbort {
    // Points: 2i = with abort @ f_acks[i], 2i+1 = without abort.
    let widths = vec![1usize; 2 * f_acks.len()];
    let run = runner.run_sweep(
        seed,
        &widths,
        |trial| {
            let trial_seed = trial.seed(seed);
            let mut rng = SimRng::seed(trial_seed);
            let side = (n as f64 / density).sqrt();
            let net = connected_grey_zone_network(
                &GreyZoneConfig::new(n, side).with_c(2.0),
                500,
                &mut rng,
            )
            .expect("connected sample");
            let assignment = Assignment::random(n, k, &mut rng);
            let d = net.dual.diameter();
            TrialSetup {
                net,
                assignment,
                d,
                trial_seed,
            }
        },
        |setup, cell| {
            let f_ack = f_acks[cell.point / 2];
            let cfg = MacConfig::from_ticks(f_prog, f_ack).enhanced();
            let params = if cell.point % 2 == 0 {
                FmmbParams::new(k, setup.d)
            } else {
                FmmbParams::new(k, setup.d).without_abort()
            };
            let report = run_fmmb(
                &setup.net.dual,
                cfg,
                &setup.assignment,
                &params,
                setup.trial_seed ^ 0xAB,
                LazyPolicy::new(),
                &super::cell_options(cell.capture_requested()).stopping_on_completion(),
            );
            CellResult::scalar(report.completion_ticks() as f64)
                .with_capture(super::capture(report.trace, report.validation))
        },
    );
    let label = |i: usize| {
        format!(
            "Fack={}-{}",
            f_acks[i / 2],
            if i % 2 == 0 { "abort" } else { "noabort" }
        )
    };
    let outliers = super::collect_outliers(&run, label);

    let points: Vec<AblationPoint> = f_acks
        .iter()
        .zip(run.points().chunks_exact(2))
        .map(|(&f_ack, pair)| AblationPoint {
            f_ack,
            with_abort: TrialStats::from_aggregate(pair[0].primary()),
            without_abort: TrialStats::from_aggregate(pair[1].primary()),
        })
        .collect();

    let mut table = Table::new(
        format!(
            "ABL-ABORT  FMMB with vs without the abort interface (n={n}, k={k}, F_prog={f_prog})"
        ),
        &[
            "F_ack",
            "with abort",
            "ci95",
            "without abort",
            "ci95",
            "slowdown",
        ],
    );
    for p in &points {
        table.row([
            p.f_ack.to_string(),
            mean_cell(&p.with_abort),
            ci_cell(&p.with_abort),
            mean_cell(&p.without_abort),
            ci_cell(&p.without_abort),
            format!("{:.1}x", p.slowdown()),
        ]);
    }
    table.note(format!(
        "{}, each on a fresh grey-zone sample",
        super::trials_phrase(runner, &run)
    ));
    table.note(
        "same algorithm, same seeds: without abort each round costs F_ack + 2 \
         instead of F_prog + 2 ticks, so the slowdown tracks F_ack/F_prog — \
         the paper's case for adding an abort interface to MAC layers",
    );

    super::append_plots(&mut table, runner, &run, label);

    AblationAbort {
        points,
        outliers,
        table,
    }
}

/// Default parameterisation at an explicit trial/job count.
pub fn run_default_with(runner: &TrialRunner) -> AblationAbort {
    run(2, &[8, 32, 128, 512], 32, 2.0, 3, 6, runner)
}

/// Smoke parameterisation at an explicit trial/job count.
pub fn run_smoke_with(runner: &TrialRunner) -> AblationAbort {
    run(2, &[8, 32], 12, 2.0, 2, 6, runner)
}

/// A seconds-scale smoke parameterisation used by `repro --smoke` in CI: the
/// same code paths as [`run_default_with`], tiny sweeps, single trial.
pub fn run_smoke() -> AblationAbort {
    run_smoke_with(&TrialRunner::single())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removing_abort_costs_theta_f_ack_over_f_prog() {
        let res = run(2, &[16, 64], 20, 2.0, 2, 3, &TrialRunner::single());
        for p in &res.points {
            let expected = (p.f_ack + 2) as f64 / 4.0; // (F_ack+2)/(F_prog+2)
            let slowdown = p.slowdown();
            assert!(
                slowdown > 0.5 * expected && slowdown < 2.0 * expected,
                "F_ack={}: slowdown {slowdown:.1} should track {expected:.1}",
                p.f_ack
            );
        }
    }

    #[test]
    fn without_abort_still_solves() {
        // Correctness is unaffected; only time degrades.
        let res = run(2, &[16], 20, 2.0, 2, 9, &TrialRunner::single());
        assert!(res.points[0].without_abort.mean > res.points[0].with_abort.mean);
    }

    #[test]
    fn multi_trial_slowdown_still_tracks_f_ack() {
        let res = run(2, &[32], 16, 2.0, 2, 6, &TrialRunner::new(3, 3));
        let p = &res.points[0];
        assert_eq!(p.with_abort.trials, 3);
        // Mean slowdown still within a loose factor of (F_ack+2)/(F_prog+2).
        let expected = 34.0 / 4.0;
        assert!(
            p.slowdown() > 0.4 * expected && p.slowdown() < 2.5 * expected,
            "slowdown {:.1} vs expected {expected:.1}",
            p.slowdown()
        );
    }
}
