//! `F1-RR` — Figure 1, standard model, `r`-restricted `G′`:
//! BMMB completes in `O(D·F_prog + r·k·F_ack)` (Theorem 3.2), concretely
//! by the Theorem 3.16 deadline
//! `t₁ = (D + (r+1)k − 2)·F_prog + r(k−1)·F_ack`.
//!
//! Workload: a line `G` with random unreliable edges of `G`-span at most
//! `r`, swept over `r` — interpolating between the `G′ = G` cell (`r = 1`)
//! and the arbitrary-`G′` regime (`r = D`). Theorem 3.16 is an *exact*
//! deadline, so each measured completion must not exceed it; the sweep
//! also shows the measured time degrading as `r` grows, matching the
//! paper's insight that the *reach* of unreliability (not its quantity)
//! is what hurts.

use super::{LabeledOutlier, SweepPoint};
use crate::engine::{CellResult, TrialRunner};
use crate::table::{ci_cell, mean_cell, Table};
use amac_core::{bounds, run_bmmb, Assignment, MmbReport, RunOptions};
use amac_graph::{generators, NodeId};
use amac_mac::policies::LazyPolicy;
use amac_mac::MacConfig;
use amac_sim::SimRng;

/// Results of the `F1-RR` experiment.
#[derive(Clone, Debug)]
pub struct Fig1RRestricted {
    /// Sweep of `r` at fixed `D`, `k`; bound is the exact `t₁`.
    pub r_sweep: Vec<SweepPoint>,
    /// `true` iff every measured time — in **every trial**, not just the
    /// mean — is within the exact Theorem 3.16 deadline.
    pub within_exact_bound: bool,
    /// Captured outlier traces per sweep point (empty unless the runner
    /// has trace capture enabled).
    pub outliers: Vec<LabeledOutlier>,
    /// Rendered table.
    pub table: Table,
}

fn measure(
    config: MacConfig,
    d: usize,
    k: usize,
    r: usize,
    p: f64,
    seed: u64,
    options: &RunOptions,
) -> MmbReport {
    let g = generators::line(d + 1).expect("d >= 1");
    let mut rng = SimRng::seed(seed ^ (r as u64).wrapping_mul(0x9E37));
    let dual = generators::r_restricted_augment(g, r, p, &mut rng).expect("valid parameters");
    debug_assert!(dual.check_r_restricted(r).is_ok());
    let assignment = Assignment::all_at(NodeId::new(0), k);
    run_bmmb(
        &dual,
        config,
        &assignment,
        LazyPolicy::new().prefer_duplicates(),
        options,
    )
}

/// Runs the experiment. Each trial samples its own `r`-restricted
/// augmentation (from the trial's split seed), so the aggregate spans the
/// topology distribution, and the exact Theorem 3.16 deadline is checked
/// on every trial individually. Each `(r, trial)` pair is its own engine
/// cell, so the `r` points of one trial run concurrently.
pub fn run(
    config: MacConfig,
    d: usize,
    k: usize,
    rs: &[usize],
    edge_probability: f64,
    seed: u64,
    runner: &TrialRunner,
) -> Fig1RRestricted {
    let widths = vec![1usize; rs.len()];
    let run = runner.run_sweep(
        seed,
        &widths,
        |_trial| (),
        |_, cell| {
            let report = measure(
                config,
                d,
                k,
                rs[cell.point],
                edge_probability,
                cell.seed(seed),
                &super::cell_options(cell.capture_requested()),
            );
            CellResult::scalar(report.completion_ticks() as f64)
                .with_capture(super::capture(report.trace, report.validation))
        },
    );
    let label = |i: usize| format!("r={}", rs[i]);
    let outliers = super::collect_outliers(&run, label);
    // Integer-tick note: a discrete simulator realizes a progress window
    // of F_prog + 1 ticks ("strictly longer than F_prog"), so the exact
    // t1 deadline is evaluated at that effective constant.
    let effective = MacConfig::from_ticks(config.f_prog().ticks() + 1, config.f_ack().ticks());
    let r_sweep: Vec<SweepPoint> = rs
        .iter()
        .zip(run.points())
        .map(|(&r, p)| {
            SweepPoint::from_aggregate(
                r,
                p.primary(),
                bounds::bmmb_r_restricted_exact(d, k, r, &effective).ticks(),
            )
        })
        .collect();
    let within_exact_bound = r_sweep.iter().all(|p| p.measured.max <= p.bound as f64);

    let mut table = Table::new(
        format!("F1-RR  BMMB, r-restricted G' (line D={d}, k={k}, {config})"),
        &[
            "r",
            "measured",
            "ci95",
            "exact t1 (Thm 3.16)",
            "ratio",
            "O-form D*Fp+r*k*Fa",
        ],
    );
    for p in &r_sweep {
        table.row([
            p.param.to_string(),
            mean_cell(&p.measured),
            ci_cell(&p.measured),
            p.bound.to_string(),
            format!("{:.2}", p.ratio()),
            bounds::bmmb_r_restricted(d, k, p.param, &config)
                .ticks()
                .to_string(),
        ]);
    }
    table.note(format!(
        "{}, each on a fresh r-restricted augmentation",
        super::trials_phrase(runner, &run)
    ));
    table.note(if within_exact_bound {
        "every trial's measured time is within the exact Theorem 3.16 deadline t1".to_string()
    } else {
        "VIOLATION: some run exceeded the exact Theorem 3.16 deadline".to_string()
    });
    table.note("r=1 reproduces the G'=G cell; growing r interpolates toward (D+k)*F_ack");

    super::append_plots(&mut table, runner, &run, label);

    Fig1RRestricted {
        r_sweep,
        within_exact_bound,
        outliers,
        table,
    }
}

/// Default parameterisation at an explicit trial/job count.
pub fn run_default_with(runner: &TrialRunner) -> Fig1RRestricted {
    run(
        MacConfig::from_ticks(2, 64),
        32,
        4,
        &[1, 2, 4, 8, 16],
        0.5,
        11,
        runner,
    )
}

/// Smoke parameterisation at an explicit trial/job count.
pub fn run_smoke_with(runner: &TrialRunner) -> Fig1RRestricted {
    run(MacConfig::from_ticks(2, 32), 8, 2, &[1, 2], 0.5, 11, runner)
}

/// A seconds-scale smoke parameterisation used by `repro --smoke` in CI: the
/// same code paths as [`run_default_with`], tiny sweeps, single trial.
pub fn run_smoke() -> Fig1RRestricted {
    run_smoke_with(&TrialRunner::single())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_theorem_316_deadline_holds() {
        let res = run(
            MacConfig::from_ticks(2, 48),
            16,
            3,
            &[1, 2, 4],
            0.5,
            3,
            &TrialRunner::single(),
        );
        assert!(res.within_exact_bound, "{}", res.table);
    }

    #[test]
    fn exact_deadline_holds_on_every_trial() {
        // The Theorem 3.16 deadline is exact, so it must hold on each of
        // the per-trial topologies, not just on the mean.
        let res = run(
            MacConfig::from_ticks(2, 32),
            8,
            2,
            &[1, 2],
            0.5,
            11,
            &TrialRunner::new(4, 2),
        );
        assert!(res.within_exact_bound, "{}", res.table);
        assert!(res.r_sweep.iter().all(|p| p.measured.trials == 4));
    }

    #[test]
    fn r_one_matches_reliable_case() {
        let res = run(
            MacConfig::from_ticks(2, 48),
            16,
            3,
            &[1],
            1.0,
            3,
            &TrialRunner::single(),
        );
        let p = res.r_sweep[0];
        // With r = 1 nothing can be added: identical to the G' = G cell.
        let gg_bound = bounds::bmmb_reliable(16, 3, &MacConfig::from_ticks(2, 48)).ticks();
        assert!(p.measured.max <= (3 * gg_bound) as f64);
    }

    #[test]
    fn larger_r_is_never_dramatically_faster() {
        // Growing r adds adversarial freedom; measured time should trend
        // upward (allowing small-sample noise).
        let res = run(
            MacConfig::from_ticks(2, 64),
            24,
            4,
            &[1, 8],
            0.5,
            7,
            &TrialRunner::single(),
        );
        let t1 = res.r_sweep[0].mean();
        let t8 = res.r_sweep[1].mean();
        assert!(
            t8 * 2.0 >= t1,
            "r=8 ({t8}) should not be far below r=1 ({t1})"
        );
    }
}
