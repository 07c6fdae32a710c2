//! `F1-GG` — Figure 1, standard model, `G′ = G`:
//! BMMB completes in `O(D·F_prog + k·F_ack)` (prior work \[KLN11\],
//! subsumed by Theorem 3.2 with `r = 1`).
//!
//! Two sweeps over line networks with no unreliable links, under the lazy
//! duplicate-feeding scheduler (the harshest generic adversary):
//!
//! * sweep `D` at fixed `k` — the measured time must grow with slope
//!   `Θ(F_prog)` per hop (the pipeline travels at progress speed);
//! * sweep `k` at fixed `D` — slope `Θ(F_ack)` per message (each extra
//!   message costs one acknowledgment at the bottleneck).

use super::{LabeledOutlier, SweepPoint};
use crate::engine::{CellResult, TrialRunner};
use crate::fit::{linear_fit, proportional_fit, LinearFit, ProportionalFit};
use crate::table::{ci_cell, mean_cell, Table};
use amac_core::{bounds, run_bmmb, Assignment, MmbReport, RunOptions};
use amac_graph::{generators, DualGraph, NodeId};
use amac_mac::policies::LazyPolicy;
use amac_mac::MacConfig;

/// Results of the `F1-GG` experiment.
#[derive(Clone, Debug)]
pub struct Fig1Gg {
    /// Sweep of `D` at fixed `k`.
    pub d_sweep: Vec<SweepPoint>,
    /// Sweep of `k` at fixed `D`.
    pub k_sweep: Vec<SweepPoint>,
    /// Linear fit of measured time vs `D` (slope ≈ `Θ(F_prog)`).
    pub d_fit: LinearFit,
    /// Linear fit of measured time vs `k` (slope ≈ `Θ(F_ack)`).
    pub k_fit: LinearFit,
    /// Proportional fit of measured vs bound (the big-O constant).
    pub bound_fit: ProportionalFit,
    /// Captured outlier traces per sweep point (empty unless the runner
    /// has trace capture enabled).
    pub outliers: Vec<LabeledOutlier>,
    /// Rendered table.
    pub table: Table,
}

/// This workload (line topology, lazy duplicate-feeding scheduler) has no
/// randomness: [`run`] clamps the runner to a single trial. Flip this if the experiment
/// ever gains per-trial sampling; the clamp and `repro`'s progress
/// labels both key off it.
pub const DETERMINISTIC: bool = true;

fn measure(d: usize, k: usize, config: MacConfig, options: &RunOptions) -> MmbReport {
    let dual = DualGraph::reliable(generators::line(d + 1).expect("d >= 1"));
    let assignment = Assignment::all_at(NodeId::new(0), k);
    run_bmmb(
        &dual,
        config,
        &assignment,
        LazyPolicy::new().prefer_duplicates(),
        options,
    )
}

/// Runs the experiment with explicit sweep lists.
///
/// The workload (line topology, lazy duplicate-feeding scheduler) is fully
/// deterministic, so extra trials would re-measure byte-identical values;
/// the runner is clamped to a single trial. The sweep points still fan out
/// over the engine's worker pool as individual cells, so the single trial
/// no longer serializes on its slowest point.
pub fn run(
    config: MacConfig,
    ds: &[usize],
    fixed_k: usize,
    ks: &[usize],
    fixed_d: usize,
    runner: &TrialRunner,
) -> Fig1Gg {
    let runner = if DETERMINISTIC {
        runner.deterministic()
    } else {
        runner.clone()
    };
    let point_params = |point: usize| {
        if point < ds.len() {
            (ds[point], fixed_k)
        } else {
            (fixed_d, ks[point - ds.len()])
        }
    };
    let widths = vec![1usize; ds.len() + ks.len()];
    let run = runner.run_sweep(
        0,
        &widths,
        |_trial| (),
        |_, cell| {
            let (d, k) = point_params(cell.point);
            let report = measure(d, k, config, &super::cell_options(cell));
            CellResult::scalar(report.completion_ticks() as f64)
        },
    );
    let label = |i: usize| {
        let (d, k) = point_params(i);
        if i < ds.len() {
            format!("D={d}")
        } else {
            format!("k={k}")
        }
    };
    let outliers = super::collect_outliers(&run, label);
    let (d_points, k_points) = run.points().split_at(ds.len());
    let d_sweep: Vec<SweepPoint> = ds
        .iter()
        .zip(d_points)
        .map(|(&d, p)| {
            SweepPoint::from_aggregate(
                d,
                p.primary(),
                bounds::bmmb_reliable(d, fixed_k, &config).ticks(),
            )
        })
        .collect();
    let k_sweep: Vec<SweepPoint> = ks
        .iter()
        .zip(k_points)
        .map(|(&k, p)| {
            SweepPoint::from_aggregate(
                k,
                p.primary(),
                bounds::bmmb_reliable(fixed_d, k, &config).ticks(),
            )
        })
        .collect();

    let d_fit = linear_fit(
        &d_sweep
            .iter()
            .map(SweepPoint::as_param_point)
            .collect::<Vec<_>>(),
    );
    let k_fit = linear_fit(
        &k_sweep
            .iter()
            .map(SweepPoint::as_param_point)
            .collect::<Vec<_>>(),
    );
    let bound_fit = proportional_fit(
        &d_sweep
            .iter()
            .chain(&k_sweep)
            .map(SweepPoint::as_fit_point)
            .collect::<Vec<_>>(),
    );

    let mut table = Table::new(
        format!("F1-GG  BMMB, G'=G (line, lazy+dup scheduler, {config})"),
        &["sweep", "value", "measured", "ci95", "D*Fp + k*Fa", "ratio"],
    );
    for p in &d_sweep {
        table.row([
            format!("D (k={fixed_k})"),
            p.param.to_string(),
            mean_cell(&p.measured),
            ci_cell(&p.measured),
            p.bound.to_string(),
            format!("{:.2}", p.ratio()),
        ]);
    }
    for p in &k_sweep {
        table.row([
            format!("k (D={fixed_d})"),
            p.param.to_string(),
            mean_cell(&p.measured),
            ci_cell(&p.measured),
            p.bound.to_string(),
            format!("{:.2}", p.ratio()),
        ]);
    }
    table.note("deterministic workload: measured once (extra trials would repeat the same value)");
    table.note(format!(
        "slope vs D = {:.1} ticks/hop (F_prog = {}), slope vs k = {:.1} ticks/msg (F_ack = {})",
        d_fit.slope,
        config.f_prog(),
        k_fit.slope,
        config.f_ack()
    ));
    table.note(format!(
        "measured <= {:.2} x bound across all points (paper: O(D*F_prog + k*F_ack))",
        bound_fit.max_ratio
    ));

    super::append_plots(&mut table, &runner, &run, label);

    Fig1Gg {
        d_sweep,
        k_sweep,
        d_fit,
        k_fit,
        bound_fit,
        outliers,
        table,
    }
}

/// Default parameterisation at an explicit trial/job count.
pub fn run_default_with(runner: &TrialRunner) -> Fig1Gg {
    let config = MacConfig::from_ticks(2, 64);
    run(
        config,
        &[8, 16, 32, 64, 96],
        4,
        &[1, 2, 4, 8, 16],
        24,
        runner,
    )
}

/// Smoke parameterisation (what `repro --smoke` runs) at an explicit
/// trial/job count.
pub fn run_smoke_with(runner: &TrialRunner) -> Fig1Gg {
    run(MacConfig::from_ticks(2, 32), &[4, 8], 2, &[1, 2], 6, runner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d_slope_tracks_f_prog_not_f_ack() {
        let config = MacConfig::from_ticks(2, 64);
        let res = run(
            config,
            &[8, 16, 32],
            2,
            &[1, 2, 4],
            12,
            &TrialRunner::single(),
        );
        // Progress speed: a few ticks per hop, far below F_ack = 64.
        assert!(
            res.d_fit.slope < 16.0,
            "D-slope {:.1} should be Θ(F_prog), not F_ack",
            res.d_fit.slope
        );
        assert!(res.d_fit.slope >= 1.0);
        assert!(
            res.d_fit.r2 > 0.9,
            "scaling should be clean, r2 = {:.3}",
            res.d_fit.r2
        );
    }

    #[test]
    fn k_slope_tracks_f_ack() {
        let config = MacConfig::from_ticks(2, 64);
        let res = run(
            config,
            &[8, 16],
            2,
            &[1, 2, 4, 8],
            12,
            &TrialRunner::single(),
        );
        assert!(
            res.k_fit.slope >= 32.0 && res.k_fit.slope <= 160.0,
            "k-slope {:.1} should be Θ(F_ack = 64)",
            res.k_fit.slope
        );
    }

    #[test]
    fn measured_within_constant_of_bound() {
        let res = run(
            MacConfig::from_ticks(2, 48),
            &[8, 24],
            3,
            &[2, 6],
            10,
            &TrialRunner::single(),
        );
        assert!(
            res.bound_fit.max_ratio <= 3.0,
            "worst ratio {:.2} too large for an O(.) claim",
            res.bound_fit.max_ratio
        );
        assert_eq!(res.table.len(), 4);
    }

    #[test]
    fn captured_outliers_carry_valid_traces() {
        let dir = crate::experiments::capture_tests::capture_dir("fig1_gg");
        let runner = TrialRunner::new(1, 2).with_trace_capture(&dir);
        let res = run(
            MacConfig::from_ticks(2, 32),
            &[4, 8],
            2,
            &[1, 2],
            6,
            &runner,
        );
        // 4 points x 3 roles, all collapsing onto the single trial: one
        // recording per point.
        assert_eq!(res.outliers.len(), 12);
        crate::experiments::capture_tests::replay_clean(&res.outliers);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 4);
        std::fs::remove_dir_all(&dir).ok();
        // Capture off: no outliers retained.
        let plain = run(
            MacConfig::from_ticks(2, 32),
            &[4, 8],
            2,
            &[1, 2],
            6,
            &TrialRunner::single(),
        );
        assert!(plain.outliers.is_empty());
    }

    #[test]
    fn multi_trial_request_is_clamped_on_deterministic_workload() {
        // The workload has no randomness: asking for 3 trials must measure
        // once (not burn 3x the compute on identical values) and match a
        // single-trial run exactly.
        let config = MacConfig::from_ticks(2, 32);
        let multi = run(config, &[4, 8], 2, &[1, 2], 6, &TrialRunner::new(3, 2));
        for p in multi.d_sweep.iter().chain(&multi.k_sweep) {
            assert_eq!(p.measured.trials, 1, "clamped to one trial");
            assert_eq!(p.measured.ci95, 0.0);
            assert_eq!(p.measured.min, p.measured.max);
        }
        let single = run(config, &[4, 8], 2, &[1, 2], 6, &TrialRunner::single());
        for (a, b) in multi.d_sweep.iter().zip(&single.d_sweep) {
            assert_eq!(a.measured.mean, b.measured.mean);
        }
    }
}
