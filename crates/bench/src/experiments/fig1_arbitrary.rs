//! `F1-ARB` — Figure 1, standard model, arbitrary `G′`:
//! BMMB completes in `O((D + k)·F_ack)` (Theorem 3.1).
//!
//! The workload is a line `G` augmented with long-range unreliable
//! shortcuts (unreliability *covering distance in `G`*, which the paper's
//! discussion identifies as the harmful structure). The sweep verifies the
//! Theorem 3.1 upper bound and contrasts three per-hop slopes: `G′ = G`
//! (`Θ(F_prog)`), random shortcuts under the generic lazy scheduler, and
//! the crafted Figure 2 adversary (`Θ(F_ack)`).
//!
//! **Reproduction finding**: random long-range unreliability under a
//! generic worst-case scheduler does *not* slow BMMB below the reliable
//! case — every delivered message is useful MMB payload. Attaining the
//! `Θ((D+k)·F_ack)` regime requires the paper's carefully crafted
//! schedule (Section 3.3), underscoring that the lower bound is about the
//! *structure* of unreliability, not its quantity.

use super::{LabeledOutlier, SweepPoint};
use crate::engine::{CellResult, TrialRunner};
use crate::fit::{proportional_fit, ProportionalFit};
use crate::table::{ci_cell, mean_cell, Table};
use amac_core::{bounds, run_bmmb, Assignment, MmbReport, RunOptions};
use amac_graph::{generators, NodeId};
use amac_mac::policies::LazyPolicy;
use amac_mac::MacConfig;

/// Results of the `F1-ARB` experiment.
#[derive(Clone, Debug)]
pub struct Fig1Arbitrary {
    /// Sweep of `D` at fixed `k` (measured vs `(D+k)·F_ack`).
    pub d_sweep: Vec<SweepPoint>,
    /// Sweep of `k` at fixed `D`.
    pub k_sweep: Vec<SweepPoint>,
    /// Proportional fit of measured vs the Theorem 3.1 bound.
    pub bound_fit: ProportionalFit,
    /// Slope of completion time vs `D` on the pure-line baseline (no
    /// unreliable edges), for contrast — `Θ(F_prog)` per hop.
    pub reliable_d_slope: f64,
    /// Slope of completion time vs `D` with random long-range unreliable
    /// edges under the generic lazy scheduler (a reproduction finding:
    /// random unreliability does not by itself slow BMMB — any delivered
    /// message is useful payload).
    pub arbitrary_d_slope: f64,
    /// Slope of completion time vs `D` under the crafted Figure 2
    /// adversary — `Θ(F_ack)` per hop, realizing the worst case.
    pub adversarial_d_slope: f64,
    /// Captured outlier traces per sweep point (empty unless the runner
    /// has trace capture enabled).
    pub outliers: Vec<LabeledOutlier>,
    /// Rendered table.
    pub table: Table,
}

/// This workload (evenly spaced shortcuts, lazy scheduler, Fig 2
/// adversary) has no randomness: [`run`] clamps the runner to a single
/// trial. Flip this (and drop the clamp) if the experiment ever gains
/// per-trial sampling; `repro` derives its progress labels from it.
pub const DETERMINISTIC: bool = true;

fn measure(
    d: usize,
    k: usize,
    config: MacConfig,
    shortcuts: usize,
    options: &RunOptions,
) -> MmbReport {
    let g = generators::line(d + 1).expect("d >= 1");
    let dual = generators::long_range_augment(g, shortcuts).expect("valid augment");
    let assignment = Assignment::all_at(NodeId::new(0), k);
    run_bmmb(
        &dual,
        config,
        &assignment,
        LazyPolicy::new().prefer_duplicates(),
        options,
    )
}

/// Runs the experiment: `shortcut_fraction` of `D` long-range unreliable
/// edges are added to each line. The workload (evenly spaced shortcuts,
/// lazy scheduler) is deterministic, so the runner is clamped to a single
/// trial; the sweep points fan out over the worker pool as cells.
pub fn run(
    config: MacConfig,
    ds: &[usize],
    fixed_k: usize,
    ks: &[usize],
    fixed_d: usize,
    shortcut_fraction: f64,
    runner: &TrialRunner,
) -> Fig1Arbitrary {
    let runner = if DETERMINISTIC {
        runner.deterministic()
    } else {
        runner.clone()
    };
    let shortcuts = |d: usize| ((d as f64 * shortcut_fraction).ceil() as usize).max(1);
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
            let report = measure(d, k, config, shortcuts(d), &super::cell_options(cell));
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
                bounds::bmmb_arbitrary(d, fixed_k, &config).ticks(),
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
                bounds::bmmb_arbitrary(fixed_d, k, &config).ticks(),
            )
        })
        .collect();
    let bound_fit = proportional_fit(
        &d_sweep
            .iter()
            .chain(&k_sweep)
            .map(SweepPoint::as_fit_point)
            .collect::<Vec<_>>(),
    );

    // Slope contrast. Three per-hop slopes over the same D values:
    //  * reliable-only line (`G' = G`): Θ(F_prog) per hop;
    //  * line + random long-range shortcuts under the generic lazy
    //    scheduler: *not* slower — a reproduction finding: every delivered
    //    message is useful MMB payload, so random unreliability cannot by
    //    itself realize the worst case;
    //  * the crafted Figure 2 adversary (amac-lower): Θ(F_ack) per hop —
    //    the structure that actually attains the Θ((D+k)·F_ack) regime.
    let arbitrary_d_slope = crate::fit::linear_fit(
        &d_sweep
            .iter()
            .map(SweepPoint::as_param_point)
            .collect::<Vec<_>>(),
    )
    .slope;
    let reliable_d_slope = {
        let pts: Vec<(f64, f64)> = ds
            .iter()
            .map(|&d| {
                let dual = amac_graph::DualGraph::reliable(generators::line(d + 1).unwrap());
                let report = run_bmmb(
                    &dual,
                    config,
                    &Assignment::all_at(NodeId::new(0), fixed_k),
                    LazyPolicy::new().prefer_duplicates(),
                    &RunOptions::fast(),
                );
                (d as f64, report.completion_ticks() as f64)
            })
            .collect();
        crate::fit::linear_fit(&pts).slope
    };
    let adversarial_d_slope = {
        let pts: Vec<(f64, f64)> = ds
            .iter()
            .map(|&d| {
                let r = amac_lower::run_dual_line(d.max(2), config, &RunOptions::fast());
                (d as f64, r.completion_ticks as f64)
            })
            .collect();
        crate::fit::linear_fit(&pts).slope
    };

    let mut table = Table::new(
        format!("F1-ARB  BMMB, arbitrary G' (line + long-range shortcuts, {config})"),
        &["sweep", "value", "measured", "ci95", "(D+k)*Fa", "ratio"],
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
        "measured <= {:.2} x (D+k)*F_ack across all points (Theorem 3.1)",
        bound_fit.max_ratio
    ));
    table.note(format!(
        "per-hop slope at k={fixed_k}: {reliable_d_slope:.1} (G'=G), {arbitrary_d_slope:.1} (random shortcuts), {adversarial_d_slope:.1} (Fig 2 adversary); F_prog={}, F_ack={}",
        config.f_prog(), config.f_ack()
    ));
    table.note(
        "finding: random long-range unreliability alone does not slow BMMB — \
         realizing Θ((D+k)·F_ack) requires the crafted Fig 2 schedule",
    );

    super::append_plots(&mut table, &runner, &run, label);

    Fig1Arbitrary {
        d_sweep,
        k_sweep,
        bound_fit,
        reliable_d_slope,
        arbitrary_d_slope,
        adversarial_d_slope,
        outliers,
        table,
    }
}

/// Default parameterisation at an explicit trial/job count.
pub fn run_default_with(runner: &TrialRunner) -> Fig1Arbitrary {
    let config = MacConfig::from_ticks(2, 64);
    run(
        config,
        &[8, 16, 32, 64],
        4,
        &[1, 2, 4, 8, 16],
        24,
        0.5,
        runner,
    )
}

/// Smoke parameterisation (what `repro --smoke` runs) at an explicit
/// trial/job count.
pub fn run_smoke_with(runner: &TrialRunner) -> Fig1Arbitrary {
    run(
        MacConfig::from_ticks(2, 32),
        &[4, 8],
        2,
        &[1, 2],
        6,
        0.5,
        runner,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upper_bound_holds_with_constant() {
        let res = run(
            MacConfig::from_ticks(2, 48),
            &[8, 16],
            3,
            &[2, 6],
            10,
            0.5,
            &TrialRunner::single(),
        );
        assert!(
            res.bound_fit.max_ratio <= 2.0,
            "worst ratio {:.2} breaks the O((D+k)F_ack) claim",
            res.bound_fit.max_ratio
        );
    }

    #[test]
    fn long_range_unreliability_slows_the_pipeline() {
        // With k >= 2 the adversary can feed old messages over shortcuts,
        // degrading the per-hop slope from Θ(F_prog) toward Θ(F_ack).
        let res = run(
            MacConfig::from_ticks(2, 64),
            &[16, 32, 48],
            4,
            &[4],
            24,
            0.5,
            &TrialRunner::single(),
        );
        assert!(
            res.adversarial_d_slope > 2.0 * res.reliable_d_slope,
            "the Fig 2 adversary should slow the per-hop slope well past F_prog: {:.1} vs {:.1}",
            res.adversarial_d_slope,
            res.reliable_d_slope
        );
    }
}
