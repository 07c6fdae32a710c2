//! `F1-ENH` — Figure 1, enhanced model, grey-zone `G′`:
//! FMMB completes in `O((D·log n + k·log n + log³ n)·F_prog)` w.h.p.
//! (Theorem 4.1) — with **no** `F_ack` term.
//!
//! Two sweeps:
//!
//! * the **crossover** sweep holds the network fixed and scales `F_ack`:
//!   BMMB (standard model) degrades linearly while FMMB stays flat, and
//!   the winner flips once `F_ack/F_prog` is large enough — the paper's
//!   case for the abort interface;
//! * the **size** sweep grows `n` (at constant deployment density) and
//!   fits FMMB's completion rounds against the Theorem 4.1 round bound.

use super::{LabeledOutlier, SweepPoint};
use crate::engine::{CellResult, TrialRunner, TrialStats};
use crate::fit::{proportional_fit, ProportionalFit};
use crate::table::{ci_cell, mean_cell, Table};
use amac_core::{bounds, run_bmmb, run_fmmb, Assignment, FmmbParams};
use amac_graph::generators::{connected_grey_zone_network, GreyZoneConfig, GreyZoneNetwork};
use amac_mac::policies::LazyPolicy;
use amac_mac::MacConfig;
use amac_sim::SimRng;

/// One crossover row: the same workload under both algorithms, aggregated
/// over the trials.
#[derive(Clone, Copy, Debug)]
pub struct CrossoverPoint {
    /// `F_ack` in ticks (`F_prog` fixed).
    pub f_ack: u64,
    /// BMMB completion ticks (standard MAC layer) over the trials.
    pub bmmb: TrialStats,
    /// FMMB completion ticks (enhanced MAC layer) over the trials.
    pub fmmb: TrialStats,
}

/// Results of the `F1-ENH` experiment.
#[derive(Clone, Debug)]
pub struct Fig1Fmmb {
    /// Crossover sweep over `F_ack`.
    pub crossover: Vec<CrossoverPoint>,
    /// Size sweep: FMMB completion vs the Theorem 4.1 bound.
    pub size_sweep: Vec<SweepPoint>,
    /// Proportional fit of FMMB time vs the Theorem 4.1 bound formula.
    pub bound_fit: ProportionalFit,
    /// The `F_ack` at which FMMB first beats BMMB, if any.
    pub crossover_f_ack: Option<u64>,
    /// Captured outlier traces per sweep point (empty unless the runner
    /// has trace capture enabled).
    pub outliers: Vec<LabeledOutlier>,
    /// Rendered table.
    pub table: Table,
}

/// Per-trial shared state: the crossover workload plus one sampled
/// workload per size-sweep point, all drawn from the trial's stream in a
/// fixed order.
struct TrialSetup {
    trial_seed: u64,
    cross_net: GreyZoneNetwork,
    cross_assignment: Assignment,
    cross_params: FmmbParams,
    size: Vec<SizeSetup>,
}

struct SizeSetup {
    net: GreyZoneNetwork,
    assignment: Assignment,
    d: usize,
    params: FmmbParams,
}

/// Runs the experiment.
///
/// `density` is nodes per unit area for the size sweep (the side length
/// grows as `sqrt(n/density)`, keeping degree roughly constant so `D`
/// grows with `sqrt(n)`).
///
/// Every trial samples its own grey-zone networks and assignments from its
/// split seed; the Theorem 4.1 bound depends on each trial's sampled
/// diameter, so bounds are aggregated alongside the measurements and the
/// table reports mean-vs-mean.
#[allow(clippy::too_many_arguments)]
pub fn run(
    f_prog: u64,
    f_acks: &[u64],
    crossover_n: usize,
    ns: &[usize],
    density: f64,
    k: usize,
    seed: u64,
    runner: &TrialRunner,
) -> Fig1Fmmb {
    // Points: [bmmb, fmmb] per f_ack (one cell each), then one two-lane
    // [measured, bound] point per n. The per-trial networks are sampled
    // once in setup — in the same stream order as the historical
    // whole-sweep closure — and every cell of the trial reads them.
    let widths: Vec<usize> = std::iter::repeat(1)
        .take(2 * f_acks.len())
        .chain(std::iter::repeat(2).take(ns.len()))
        .collect();
    let run = runner.run_sweep(
        seed,
        &widths,
        |trial| {
            let trial_seed = trial.seed(seed);
            let mut rng = SimRng::seed(trial_seed);
            let side = (crossover_n as f64 / density).sqrt();
            let cross_net = connected_grey_zone_network(
                &GreyZoneConfig::new(crossover_n, side).with_c(2.0),
                500,
                &mut rng,
            )
            .expect("connected sample");
            let cross_assignment = Assignment::random(crossover_n, k, &mut rng);
            let cross_params = FmmbParams::new(k, cross_net.dual.diameter());
            let size = ns
                .iter()
                .map(|&n| {
                    let side = (n as f64 / density).sqrt();
                    let net = connected_grey_zone_network(
                        &GreyZoneConfig::new(n, side).with_c(2.0),
                        500,
                        &mut rng,
                    )
                    .expect("connected sample");
                    let assignment = Assignment::random(n, k, &mut rng);
                    let d = net.dual.diameter();
                    SizeSetup {
                        net,
                        assignment,
                        d,
                        params: FmmbParams::new(k, d),
                    }
                })
                .collect();
            TrialSetup {
                trial_seed,
                cross_net,
                cross_assignment,
                cross_params,
                size,
            }
        },
        |setup, cell| {
            let options = super::cell_options(cell.capture_requested()).stopping_on_completion();
            if cell.point < 2 * f_acks.len() {
                let f_ack = f_acks[cell.point / 2];
                let cfg = MacConfig::from_ticks(f_prog, f_ack);
                if cell.point % 2 == 0 {
                    let bmmb = run_bmmb(
                        &setup.cross_net.dual,
                        cfg,
                        &setup.cross_assignment,
                        LazyPolicy::new().prefer_duplicates(),
                        &options,
                    );
                    CellResult::scalar(bmmb.completion_ticks() as f64)
                        .with_capture(super::capture(bmmb.trace, bmmb.validation))
                } else {
                    let fmmb = run_fmmb(
                        &setup.cross_net.dual,
                        cfg.enhanced(),
                        &setup.cross_assignment,
                        &setup.cross_params,
                        setup.trial_seed ^ 0xF,
                        LazyPolicy::new(),
                        &options,
                    );
                    // An unlucky trial can exhaust its whole schedule
                    // without solving MMB (the bound is only w.h.p.);
                    // record the schedule-end time instead of panicking —
                    // a lower bound on the true completion time.
                    CellResult::scalar(super::ticks_or_end(fmmb.completion, fmmb.end_time) as f64)
                        .with_capture(super::capture(fmmb.trace, fmmb.validation))
                }
            } else {
                // Size sweep (fixed moderate F_ack; FMMB does not depend
                // on it).
                let idx = cell.point - 2 * f_acks.len();
                let n = ns[idx];
                let s = &setup.size[idx];
                let cfg = MacConfig::from_ticks(f_prog, 16 * f_prog).enhanced();
                let report = run_fmmb(
                    &s.net.dual,
                    cfg,
                    &s.assignment,
                    &s.params,
                    setup.trial_seed ^ (n as u64),
                    LazyPolicy::new(),
                    &options,
                );
                CellResult::vector(vec![
                    super::ticks_or_end(report.completion, report.end_time) as f64,
                    bounds::fmmb_enhanced(n, s.d, k, &cfg).ticks().max(1) as f64,
                ])
                .with_capture(super::capture(report.trace, report.validation))
            }
        },
    );
    let label = |i: usize| {
        if i < 2 * f_acks.len() {
            format!(
                "{}-Fack={}",
                if i % 2 == 0 { "bmmb" } else { "fmmb" },
                f_acks[i / 2]
            )
        } else {
            format!("n={}", ns[i - 2 * f_acks.len()])
        }
    };
    let outliers = super::collect_outliers(&run, label);

    let (crossover_points, size_points) = run.points().split_at(2 * f_acks.len());
    let crossover: Vec<CrossoverPoint> = f_acks
        .iter()
        .zip(crossover_points.chunks_exact(2))
        .map(|(&f_ack, pair)| CrossoverPoint {
            f_ack,
            bmmb: TrialStats::from_aggregate(pair[0].primary()),
            fmmb: TrialStats::from_aggregate(pair[1].primary()),
        })
        .collect();
    let crossover_f_ack = crossover
        .iter()
        .find(|p| p.fmmb.mean < p.bmmb.mean)
        .map(|p| p.f_ack);

    let size_sweep: Vec<SweepPoint> = ns
        .iter()
        .zip(size_points)
        .map(|(&n, p)| SweepPoint {
            param: n,
            measured: TrialStats::from_aggregate(p.lane(0)),
            bound: (p.lane(1).mean().round() as u64).max(1),
        })
        .collect();
    let bound_fit = proportional_fit(
        &size_sweep
            .iter()
            .map(SweepPoint::as_fit_point)
            .collect::<Vec<_>>(),
    );

    let mut table = Table::new(
        format!("F1-ENH  FMMB vs BMMB, grey zone G' (n={crossover_n}, k={k}, F_prog={f_prog})"),
        &["sweep", "value", "BMMB", "FMMB", "ci95 (FMMB)", "winner"],
    );
    for p in &crossover {
        table.row([
            "F_ack".to_string(),
            p.f_ack.to_string(),
            mean_cell(&p.bmmb),
            mean_cell(&p.fmmb),
            ci_cell(&p.fmmb),
            if p.fmmb.mean < p.bmmb.mean {
                "FMMB"
            } else {
                "BMMB"
            }
            .to_string(),
        ]);
    }
    for p in &size_sweep {
        table.row([
            "n".to_string(),
            p.param.to_string(),
            String::new(),
            format!("{} (bound {})", mean_cell(&p.measured), p.bound),
            ci_cell(&p.measured),
            format!("{:.2}x", p.ratio()),
        ]);
    }
    table.note(format!(
        "{}, each on a fresh grey-zone sample",
        super::trials_phrase(runner, &run)
    ));
    match crossover_f_ack {
        Some(f) => table.note(format!(
            "FMMB wins from F_ack = {f} on (F_ack/F_prog = {}); its time is F_ack-independent",
            f / f_prog
        )),
        None => table.note("no crossover in the swept F_ack range"),
    };
    table.note(format!(
        "FMMB time <= {:.2} x (D log n + k log n + log^3 n) * F_prog across the size sweep",
        bound_fit.max_ratio
    ));

    super::append_plots(&mut table, runner, &run, label);

    Fig1Fmmb {
        crossover,
        size_sweep,
        bound_fit,
        crossover_f_ack,
        outliers,
        table,
    }
}

/// Default parameterisation at an explicit trial/job count.
pub fn run_default_with(runner: &TrialRunner) -> Fig1Fmmb {
    run(
        2,
        &[8, 64, 512, 4096, 16384],
        48,
        &[24, 48, 96],
        2.0,
        4,
        5,
        runner,
    )
}

/// Smoke parameterisation at an explicit trial/job count.
pub fn run_smoke_with(runner: &TrialRunner) -> Fig1Fmmb {
    run(2, &[8, 32], 12, &[12, 16], 2.0, 2, 5, runner)
}

/// A seconds-scale smoke parameterisation used by `repro --smoke` in CI: the
/// same code paths as [`run_default_with`], tiny sweeps, single trial.
pub fn run_smoke() -> Fig1Fmmb {
    run_smoke_with(&TrialRunner::single())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmmb_time_is_f_ack_independent() {
        let res = run(2, &[16, 1024], 24, &[16], 2.0, 2, 9, &TrialRunner::single());
        let lo = res.crossover[0].fmmb;
        let hi = res.crossover[1].fmmb;
        // 64x larger F_ack: FMMB time unchanged (same schedule, same seed).
        assert_eq!(lo.mean, hi.mean, "FMMB must not depend on F_ack");
        // BMMB time grows dramatically.
        assert!(res.crossover[1].bmmb.mean > 4.0 * res.crossover[0].bmmb.mean);
    }

    #[test]
    fn crossover_exists_for_large_f_ack() {
        let res = run(2, &[8, 16384], 32, &[16], 2.0, 3, 4, &TrialRunner::single());
        assert!(
            res.crossover_f_ack.is_some(),
            "FMMB should win at F_ack/F_prog = 8192"
        );
    }

    #[test]
    fn multi_trial_crossover_aggregates_fresh_samples() {
        let res = run(2, &[8, 512], 12, &[12], 2.0, 2, 5, &TrialRunner::new(3, 2));
        for p in &res.crossover {
            assert_eq!(p.bmmb.trials, 3);
            assert_eq!(p.fmmb.trials, 3);
            assert!(p.bmmb.min <= p.bmmb.mean && p.bmmb.mean <= p.bmmb.max);
        }
        // Different trials sample different networks, so the large-F_ack
        // BMMB point should show actual spread.
        assert!(
            res.crossover[1].bmmb.max > res.crossover[1].bmmb.min,
            "fresh samples per trial should vary"
        );
    }
}
