//! `CONS` — crash-tolerant consensus on the abstract MAC layer
//! (Newport & Robinson, DISC 2018; Zhang & Tseng, 2024).
//!
//! Two sweeps over complete (single-hop, the NR18 setting) reliable
//! graphs under the lazy duplicate-feeding scheduler, with per-trial
//! random inputs and a per-trial random crash schedule drawn from the
//! cell's split stream:
//!
//! * sweep the **crash fraction** `f` at fixed `n`: `⌊f·n⌋` nodes crash at
//!   uniform times inside the protocol window, the phase count scales as
//!   `⌊f·n⌋ + 1`, so decision time grows linearly in the crash budget
//!   while the violation count stays exactly 0;
//! * sweep **`n`** at fixed `f`: same shape, budget `⌊f·n⌋` grows with
//!   `n`.
//!
//! Every trial is checked by the consensus validator
//! ([`amac_proto::validate_consensus`]): agreement, validity, integrity,
//! and termination of live nodes within the horizon. The `violations`
//! column aggregates the per-trial violation count — its mean must be
//! **0.0** at every sweep point. Captured outlier recordings additionally
//! replay clean through the streaming validator with crash records
//! present.

use super::LabeledOutlier;
use crate::engine::{CellResult, TrialRunner, TrialStats};
use crate::table::{ci_cell, mean_cell, Table};
use amac_graph::{generators, DualGraph};
use amac_mac::policies::LazyPolicy;
use amac_mac::{FaultPlan, MacConfig};
use amac_proto::consensus::{run_consensus, ConsensusParams};

/// One measured sweep point of the consensus experiment.
#[derive(Clone, Copy, Debug)]
pub struct CrashPoint {
    /// Crash fraction `f` at this point.
    pub fraction: f64,
    /// Network size `n`.
    pub n: usize,
    /// Crash budget `⌊f·n⌋` (actual crashes injected per trial).
    pub crashes: usize,
    /// Flooding phases (`crashes + 1`).
    pub phases: u64,
    /// Decision-time statistics over the trials, in ticks.
    pub measured: TrialStats,
    /// Per-trial consensus+trace violation counts (mean must be 0).
    pub violations: TrialStats,
    /// Per-trial MAC broadcast counts — the message-cost lane; crashes
    /// silence nodes, so this *drops* as `f` grows while phases rise.
    pub broadcasts: TrialStats,
    /// The deterministic decision deadline `phases · phase_len`, in ticks.
    pub bound: u64,
}

/// Results of the `CONS` experiment.
#[derive(Clone, Debug)]
pub struct ConsensusCrash {
    /// Sweep of the crash fraction `f` at fixed `n`.
    pub f_sweep: Vec<CrashPoint>,
    /// Sweep of `n` at fixed `f`.
    pub n_sweep: Vec<CrashPoint>,
    /// Sum of all violation-count means across points and trials — the
    /// headline acceptance number, exactly 0.0 for a correct protocol.
    pub total_violations: f64,
    /// Captured outlier traces per sweep point (empty unless the runner
    /// has trace capture enabled).
    pub outliers: Vec<LabeledOutlier>,
    /// Rendered table.
    pub table: Table,
}

fn complete_dual(n: usize) -> DualGraph {
    DualGraph::reliable(generators::complete(n).expect("n >= 1"))
}

/// Runs the experiment with explicit sweep lists.
#[allow(clippy::too_many_arguments)]
pub fn run(
    f_prog: u64,
    f_ack: u64,
    fixed_n: usize,
    fractions: &[f64],
    ns: &[usize],
    fixed_f: f64,
    seed: u64,
    runner: &TrialRunner,
) -> ConsensusCrash {
    let config = MacConfig::from_ticks(f_prog, f_ack).enhanced();
    let point_params = |point: usize| -> (usize, f64) {
        if point < fractions.len() {
            (fixed_n, fractions[point])
        } else {
            (ns[point - fractions.len()], fixed_f)
        }
    };
    let shape = |point: usize| -> (usize, usize, ConsensusParams) {
        let (n, f) = point_params(point);
        let crashes = (f * n as f64).floor() as usize;
        (n, crashes, ConsensusParams::for_crashes(crashes, &config))
    };

    // Three lanes per point: decision time, the per-trial violation
    // count, and the MAC broadcast count.
    let widths = vec![3usize; fractions.len() + ns.len()];
    let run = runner.run_sweep(
        seed,
        &widths,
        |_trial| (),
        |_, cell| {
            let (n, crashes, params) = shape(cell.point);
            let mut rng = cell.rng.clone();
            let initial: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
            let window = amac_sim::Time::ZERO + params.phase_len.times(params.phases);
            let faults = FaultPlan::random_crashes(n, crashes, window, &mut rng);
            let report = run_consensus(
                &complete_dual(n),
                config,
                &initial,
                &params,
                faults,
                LazyPolicy::new().prefer_duplicates(),
                &super::cell_options(cell),
            );
            let ticks = super::ticks_or_end(report.completion, report.end_time) as f64;
            let violations = report.violation_count() as f64;
            let broadcasts = report.counters.get("bcast") as f64;
            CellResult::vector(vec![ticks, violations, broadcasts])
        },
    );
    let label = |i: usize| {
        let (n, f) = point_params(i);
        if i < fractions.len() {
            format!("f={f:.2}")
        } else {
            format!("n={n}")
        }
    };
    let outliers = super::collect_outliers(&run, label);

    let point_of = |i: usize| -> CrashPoint {
        let (n, f) = point_params(i);
        let (_, crashes, params) = shape(i);
        CrashPoint {
            fraction: f,
            n,
            crashes,
            phases: params.phases,
            measured: TrialStats::from_aggregate(run.point(i).lane(0)),
            violations: TrialStats::from_aggregate(run.point(i).lane(1)),
            broadcasts: TrialStats::from_aggregate(run.point(i).lane(2)),
            bound: params.phase_len.times(params.phases).ticks(),
        }
    };
    let f_sweep: Vec<CrashPoint> = (0..fractions.len()).map(point_of).collect();
    let n_sweep: Vec<CrashPoint> = (fractions.len()..fractions.len() + ns.len())
        .map(point_of)
        .collect();
    let total_violations: f64 = f_sweep
        .iter()
        .chain(&n_sweep)
        .map(|p| p.violations.mean * p.violations.trials as f64)
        .sum();

    let mut table = Table::new(
        format!(
            "CONS   crash-tolerant consensus, complete G (lazy+dup scheduler, F_prog={f_prog}, F_ack={f_ack})"
        ),
        &[
            "sweep", "value", "n", "crashes", "phases", "decided@", "ci95", "deadline", "bcasts",
            "ci95", "violations",
        ],
    );
    for (sweep, points, fixed) in [
        ("f", &f_sweep, format!("(n={fixed_n})")),
        ("n", &n_sweep, format!("(f={fixed_f:.2})")),
    ] {
        for p in points {
            table.row([
                format!("{sweep} {fixed}"),
                if sweep == "f" {
                    format!("{:.2}", p.fraction)
                } else {
                    p.n.to_string()
                },
                p.n.to_string(),
                p.crashes.to_string(),
                p.phases.to_string(),
                mean_cell(&p.measured),
                ci_cell(&p.measured),
                p.bound.to_string(),
                mean_cell(&p.broadcasts),
                ci_cell(&p.broadcasts),
                format!("{:.1}", p.violations.mean),
            ]);
        }
    }
    table.note(format!(
        "{}, fresh inputs + crash schedule per trial",
        super::trials_phrase(runner, &run)
    ));
    table.note(format!(
        "violations column: per-trial ConsensusValidator count (agreement/validity/integrity/termination); total = {total_violations:.0}"
    ));
    table.note(
        "deadline = phases * phase_len = (floor(f*n)+1)*(F_ack+2): every live node decides \
         exactly there (w.h.p. analogue of NR18 Thm 2, deterministic in this FloodSet variant)",
    );
    super::append_plots(&mut table, runner, &run, label);

    ConsensusCrash {
        f_sweep,
        n_sweep,
        total_violations,
        outliers,
        table,
    }
}

/// Default parameterisation at an explicit trial/job count: crash
/// fractions 0 / 0.1 / 0.2 / 0.3 at `n = 24`, and `n` up to 48 at
/// `f = 0.2`.
pub fn run_default_with(runner: &TrialRunner) -> ConsensusCrash {
    run(
        2,
        16,
        24,
        &[0.0, 0.1, 0.2, 0.3],
        &[8, 16, 32, 48],
        0.2,
        13,
        runner,
    )
}

/// Smoke parameterisation (what `repro --smoke` runs) at an explicit
/// trial/job count.
pub fn run_smoke_with(runner: &TrialRunner) -> ConsensusCrash {
    run(2, 12, 10, &[0.0, 0.3], &[8], 0.25, 13, runner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::capture_tests;

    #[test]
    fn zero_violations_across_crash_fractions() {
        // The acceptance criterion, at test scale: f in {0, 0.1, 0.3},
        // several trials each, no agreement/validity/termination failures.
        let res = run(
            2,
            12,
            12,
            &[0.0, 0.1, 0.3],
            &[8],
            0.25,
            13,
            &TrialRunner::new(4, 2),
        );
        assert_eq!(res.total_violations, 0.0, "{}", res.table);
        for p in res.f_sweep.iter().chain(&res.n_sweep) {
            assert_eq!(p.violations.max, 0.0, "no single trial may violate");
            assert!(
                p.measured.max <= p.bound as f64,
                "every trial decides by the deadline"
            );
        }
    }

    #[test]
    fn decision_time_scales_with_the_crash_budget() {
        let res = run(2, 12, 12, &[0.0, 0.3], &[], 0.2, 7, &TrialRunner::new(2, 2));
        let clean = &res.f_sweep[0];
        let crashy = &res.f_sweep[1];
        assert_eq!(clean.phases, 1);
        assert_eq!(crashy.phases, (0.3f64 * 12.0).floor() as u64 + 1);
        assert!(
            crashy.measured.mean > clean.measured.mean,
            "more budget, more phases, later decision"
        );
        // Per-phase message cost drops with crashes: a clean run
        // broadcasts n per phase, a crashy run loses the silenced nodes.
        assert!(
            crashy.broadcasts.mean / (crashy.phases as f64)
                < clean.broadcasts.mean / (clean.phases as f64) + 1.0,
            "crashed nodes must stop paying broadcasts"
        );
    }

    #[test]
    fn captured_outlier_traces_validate_with_crash_events() {
        let dir = capture_tests::capture_dir("consensus_crash");
        let runner = TrialRunner::new(2, 2).with_trace_capture(&dir);
        let res = run(2, 12, 10, &[0.3], &[], 0.2, 5, &runner);
        for (o, summary) in res
            .outliers
            .iter()
            .zip(capture_tests::replay_clean(&res.outliers))
        {
            assert!(
                summary.faults > 0,
                "{}: f=0.3 recordings must carry crash records",
                o.label
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
