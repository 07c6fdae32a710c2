//! `F1-LB-K` and `F2-LB-D` — the Θ-matching lower bounds of Figure 1's
//! grey-zone/arbitrary cell:
//!
//! * Lemma 3.18 (choke star): any algorithm needs `Ω(k·F_ack)`;
//! * Lemmas 3.19–3.20 (Figure 2 dual lines): `Ω(D·F_ack)` under the grey
//!   zone constraint.
//!
//! Each sweep reports `measured / bound`; the lower bound is reproduced
//! when the ratio stays above a positive constant as the parameter grows.
//! With multiple trials the check uses each point's **minimum** trial — a
//! lower bound must hold on every execution, not on average.

use super::{LabeledOutlier, SweepPoint};
use crate::engine::{CellResult, TrialRunner};
use crate::fit::{linear_fit, LinearFit};
use crate::table::{ci_cell, mean_cell, Table};
use amac_core::bounds;
use amac_lower::{run_choke_star, run_dual_line};
use amac_mac::MacConfig;

/// Results of both lower-bound experiments.
#[derive(Clone, Debug)]
pub struct LowerBounds {
    /// Choke-star sweep over `k` (bound `k·F_ack`).
    pub star: Vec<SweepPoint>,
    /// Dual-line sweep over `D` (bound `D·F_ack`).
    pub line: Vec<SweepPoint>,
    /// Fit of dual-line mean time vs `D` (slope ≈ `Θ(F_ack)`).
    pub line_fit: LinearFit,
    /// Smallest per-trial ratio observed in the star sweep.
    pub star_min_ratio: f64,
    /// Smallest per-trial ratio observed in the line sweep.
    pub line_min_ratio: f64,
    /// Captured outlier traces per sweep point (empty unless the runner
    /// has trace capture enabled).
    pub outliers: Vec<LabeledOutlier>,
    /// Rendered table.
    pub table: Table,
}

/// The adversarial constructions have no randomness: [`run`] clamps the
/// runner to a single trial. Flip this if the experiment ever gains
/// per-trial sampling; the clamp and `repro`'s progress labels both key
/// off it.
pub const DETERMINISTIC: bool = true;

fn min_ratio(points: &[SweepPoint]) -> f64 {
    points
        .iter()
        .map(|p| p.measured.min / p.bound as f64)
        .fold(f64::INFINITY, f64::min)
}

/// Runs both sweeps. The adversarial constructions are deterministic, so
/// the runner is clamped to a single trial; the sweep points fan out over
/// the worker pool as cells.
pub fn run(config: MacConfig, ks: &[usize], ds: &[usize], runner: &TrialRunner) -> LowerBounds {
    let runner = if DETERMINISTIC {
        runner.deterministic()
    } else {
        runner.clone()
    };
    let widths = vec![1usize; ks.len() + ds.len()];
    let run = runner.run_sweep(
        0,
        &widths,
        |_trial| (),
        |_, cell| {
            let options = super::cell_options(cell);
            let report = if cell.point < ks.len() {
                run_choke_star(ks[cell.point], config, &options)
            } else {
                run_dual_line(ds[cell.point - ks.len()], config, &options)
            };
            CellResult::scalar(report.completion_ticks as f64)
        },
    );
    let label = |i: usize| {
        if i < ks.len() {
            format!("star-k={}", ks[i])
        } else {
            format!("line-D={}", ds[i - ks.len()])
        }
    };
    let outliers = super::collect_outliers(&run, label);
    let (star_points, line_points) = run.points().split_at(ks.len());
    let star: Vec<SweepPoint> = ks
        .iter()
        .zip(star_points)
        .map(|(&k, p)| {
            SweepPoint::from_aggregate(k, p.primary(), bounds::lower_choke(k, &config).ticks())
        })
        .collect();
    let line: Vec<SweepPoint> = ds
        .iter()
        .zip(line_points)
        .map(|(&d, p)| {
            SweepPoint::from_aggregate(d, p.primary(), bounds::lower_grey_zone(d, &config).ticks())
        })
        .collect();

    let line_fit = linear_fit(
        &line
            .iter()
            .map(SweepPoint::as_param_point)
            .collect::<Vec<_>>(),
    );
    let star_min_ratio = min_ratio(&star);
    let line_min_ratio = min_ratio(&line);

    let mut table = Table::new(
        format!("F1-LB-K / F2-LB-D  lower bounds ({config})"),
        &[
            "construction",
            "param",
            "measured",
            "ci95",
            "bound",
            "ratio",
        ],
    );
    for p in &star {
        table.row([
            "choke star (Lem 3.18)".to_string(),
            format!("k={}", p.param),
            mean_cell(&p.measured),
            ci_cell(&p.measured),
            format!("k*Fa={}", p.bound),
            format!("{:.2}", p.ratio()),
        ]);
    }
    for p in &line {
        table.row([
            "dual line (Fig 2)".to_string(),
            format!("D={}", p.param),
            mean_cell(&p.measured),
            ci_cell(&p.measured),
            format!("D*Fa={}", p.bound),
            format!("{:.2}", p.ratio()),
        ]);
    }
    table
        .note("deterministic adversarial constructions: measured once (extra trials would repeat)");
    table.note(format!(
        "ratios bounded below: star >= {star_min_ratio:.2}, dual line >= {line_min_ratio:.2} (Ω holds on every trial)"
    ));
    table.note(format!(
        "dual-line slope {:.1} ticks per hop of D ~ Θ(F_ack = {})",
        line_fit.slope,
        config.f_ack()
    ));

    super::append_plots(&mut table, &runner, &run, label);

    LowerBounds {
        star,
        line,
        line_fit,
        star_min_ratio,
        line_min_ratio,
        outliers,
        table,
    }
}

/// Default parameterisation at an explicit trial/job count.
pub fn run_default_with(runner: &TrialRunner) -> LowerBounds {
    run(
        MacConfig::from_ticks(2, 64),
        &[4, 8, 16, 32],
        &[4, 8, 16, 32],
        runner,
    )
}

/// Smoke parameterisation (what `repro --smoke` runs) at an explicit
/// trial/job count.
pub fn run_smoke_with(runner: &TrialRunner) -> LowerBounds {
    run(MacConfig::from_ticks(2, 32), &[2, 4], &[2, 4], runner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_bounded_below_by_constant() {
        let res = run(
            MacConfig::from_ticks(2, 48),
            &[4, 16],
            &[4, 12],
            &TrialRunner::single(),
        );
        assert!(
            res.star_min_ratio >= 0.6,
            "star ratio {:.2}",
            res.star_min_ratio
        );
        assert!(
            res.line_min_ratio >= 0.5,
            "line ratio {:.2}",
            res.line_min_ratio
        );
    }

    #[test]
    fn dual_line_slope_is_theta_f_ack() {
        let config = MacConfig::from_ticks(2, 48);
        let res = run(config, &[4], &[4, 8, 16], &TrialRunner::single());
        let f_ack = config.f_ack().ticks() as f64;
        assert!(
            res.line_fit.slope >= 0.5 * f_ack && res.line_fit.slope <= 4.0 * f_ack,
            "slope {:.1} not Θ(F_ack = {f_ack})",
            res.line_fit.slope
        );
    }
}
