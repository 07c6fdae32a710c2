//! One module per experiment in the reproduction plan (see `docs/EXPERIMENTS.md`).
//!
//! | id | module | paper artifact |
//! |---|---|---|
//! | `F1-GG` | [`fig1_gg`] | Fig. 1 standard/`G′=G`: `O(D·F_prog + k·F_ack)` |
//! | `F1-RR` | [`fig1_r_restricted`] | Fig. 1 standard/`r`-restricted: Thm 3.2/3.16 |
//! | `F1-ARB` | [`fig1_arbitrary`] | Fig. 1 standard/arbitrary: Thm 3.1 upper bound |
//! | `F1-LB-K` | [`lower_bounds`] | Lemma 3.18 choke star `Ω(k·F_ack)` |
//! | `F2-LB-D` | [`lower_bounds`] | Fig. 2 + Lemmas 3.19–3.20 `Ω(D·F_ack)` |
//! | `F1-ENH` | [`fig1_fmmb`] | Fig. 1 enhanced/grey-zone: Thm 4.1 |
//! | `SUB-MIS` | [`subroutines`] | Lemma 4.5 MIS in `O(log³ n)` rounds |
//! | `SUB-GATHER` | [`subroutines`] | Lemma 4.6 gather in `O(k + log n)` periods |
//! | `SUB-SPREAD` | [`subroutines`] | Lemmas 4.7–4.8 spread in `O((D+k) log n)` rounds |
//! | `ABL-ABORT` | [`ablation_abort`] | ablation: FMMB without the abort interface |
//! | `CONS` | [`consensus_crash`] | NR18/ZT24 crash-tolerant consensus on the aMAC layer |
//! | `ELECT` | [`election`] | NR18 wake-up/leader election via broadcast back-off |
//! | `SCALE` | [`scale`] | runtime throughput + streaming-validation memory at n ≤ 10⁶ |

pub mod ablation_abort;
pub mod consensus_crash;
pub mod election;
pub mod fig1_arbitrary;
pub mod fig1_fmmb;
pub mod fig1_gg;
pub mod fig1_r_restricted;
pub mod lower_bounds;
pub mod scale;
pub mod subroutines;

use crate::engine::TrialStats;
use crate::engine::{CellCtx, OutlierTrace, SweepRun, TrialRunner};
use crate::table::Table;
use amac_core::RunOptions;
use amac_sim::stats::Aggregate;
use amac_sim::Time;

/// A captured outlier execution labeled with the sweep point it belongs to
/// (e.g. `"D=32"`), as exposed by each experiment's result struct and
/// dumped by `repro --dump-traces`.
#[derive(Clone, Debug)]
pub struct LabeledOutlier {
    /// Human-readable sweep-point label.
    pub label: String,
    /// The captured min/median/max trial and the file its replay recorded.
    pub outlier: OutlierTrace,
}

/// Run options for one sweep cell: the fast no-validation path, recording
/// the execution to the cell's capture file when the engine is replaying
/// an outlier (its verdict comes from replaying that file).
pub(crate) fn cell_options(cell: &CellCtx) -> RunOptions {
    match cell.capture_path() {
        Some(path) => RunOptions::fast().recording(path, cell.trial.index),
        None => RunOptions::fast(),
    }
}

/// Flattens a sweep's captured outliers, labeling each with its point.
pub(crate) fn collect_outliers(
    run: &SweepRun,
    label: impl Fn(usize) -> String,
) -> Vec<LabeledOutlier> {
    run.points()
        .iter()
        .enumerate()
        .flat_map(|(i, point)| {
            point
                .outliers()
                .iter()
                .cloned()
                .map(move |outlier| (i, outlier))
        })
        .map(|(i, outlier)| LabeledOutlier {
            label: label(i),
            outlier,
        })
        .collect()
}

/// The per-point trial-count phrase for table footnotes: a fixed count in
/// fixed mode, the observed `min..max` range plus the stopping rule in
/// adaptive mode. Deterministic, so footnotes stay byte-identical across
/// `--jobs`.
pub(crate) fn trials_phrase(runner: &TrialRunner, run: &SweepRun) -> String {
    if runner.adaptive() {
        let (lo, hi) = (run.min_trials(), run.max_trials());
        let target = runner.target_ci().expect("adaptive implies a target") * 100.0;
        let range = if lo == hi {
            format!("{lo}")
        } else {
            format!("{lo}..{hi}")
        };
        format!(
            "adaptive: {range} trial(s) per point (target ci {target:.0}% of mean, floor {}, cap {})",
            runner.trials(),
            runner.max_trials()
        )
    } else {
        format!("{} trial(s) per point", runner.trials())
    }
}

/// One measured sweep point: a driving parameter, the completion-time
/// aggregate over the trials, and the paper's bound evaluated at that
/// point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepPoint {
    /// The swept parameter value (`D`, `k`, `r`, `n`, or `F_ack`).
    pub param: usize,
    /// Completion-time statistics over the trials, in ticks.
    pub measured: TrialStats,
    /// The bound formula evaluated at this point, in ticks.
    pub bound: u64,
}

impl SweepPoint {
    /// Builds a sweep point from a finished trial aggregate.
    pub fn from_aggregate(param: usize, aggregate: &Aggregate, bound: u64) -> SweepPoint {
        SweepPoint {
            param,
            measured: TrialStats::from_aggregate(aggregate),
            bound,
        }
    }

    /// Mean completion time over the trials, in ticks.
    pub fn mean(&self) -> f64 {
        self.measured.mean
    }

    /// `mean / bound`.
    pub fn ratio(&self) -> f64 {
        self.measured.mean / self.bound as f64
    }

    /// As a `(bound, mean)` float pair for proportional fitting.
    pub fn as_fit_point(&self) -> (f64, f64) {
        (self.bound as f64, self.measured.mean)
    }

    /// As a `(param, mean)` float pair for linear fitting.
    pub fn as_param_point(&self) -> (f64, f64) {
        (self.param as f64, self.measured.mean)
    }
}

pub(crate) fn ticks_or_end(completion: Option<Time>, end: Time) -> u64 {
    completion.map(amac_sim::Time::ticks).unwrap_or(end.ticks())
}

/// Appends one distribution-plot footnote per sweep point (primary lane,
/// labeled like the outliers) when the runner has plots enabled —
/// degenerate distributions (single trial, zero spread) are skipped.
pub(crate) fn append_plots(
    table: &mut Table,
    runner: &TrialRunner,
    run: &SweepRun,
    label: impl Fn(usize) -> String,
) {
    if !runner.plots() {
        return;
    }
    let mut any = false;
    for (i, point) in run.points().iter().enumerate() {
        if let Some(line) = crate::plot::point_line(&label(i), point.primary()) {
            table.note(line);
            any = true;
        }
    }
    if !any {
        table.note("dist: all points degenerate (single trial or zero spread), nothing to plot");
    }
}

/// The uniform per-experiment output consumed by the `repro` binary: the
/// rendered table plus any captured outlier traces.
#[derive(Clone, Debug)]
pub struct ExperimentOutput {
    /// Rendered result table.
    pub table: Table,
    /// Captured min/median/max recordings (empty without trace capture).
    pub outliers: Vec<LabeledOutlier>,
}

/// One registry entry: everything `repro` needs to list, select, and run
/// an experiment.
#[derive(Clone, Copy)]
pub struct ExperimentSpec {
    /// Stable machine id — the `repro` subcommand name and the
    /// `BENCH_<id>.json` stem.
    pub id: &'static str,
    /// Short table label (e.g. `F1-GG`).
    pub label: &'static str,
    /// One-line progress description.
    pub summary: &'static str,
    /// One-line description of what the experiment measures and against
    /// which paper artifact — printed by `repro --list`.
    pub detail: &'static str,
    /// `true` for workloads with no per-trial randomness (the runner is
    /// clamped to a single trial).
    pub deterministic: bool,
    run: fn(bool, &TrialRunner) -> ExperimentOutput,
    record: fn(&std::path::Path, bool) -> crate::record::RecordedTrace,
}

impl ExperimentSpec {
    /// Runs the experiment (`smoke` picks the seconds-scale
    /// parameterisation) on the given engine.
    pub fn run(&self, smoke: bool, runner: &TrialRunner) -> ExperimentOutput {
        (self.run)(smoke, runner)
    }

    /// Records the experiment's canonical execution (`smoke` picks the
    /// small parameterisation) to `dir/<id>.amactrace` — see
    /// [`crate::record`].
    pub fn record(&self, dir: &std::path::Path, smoke: bool) -> crate::record::RecordedTrace {
        (self.record)(dir, smoke)
    }
}

macro_rules! adapter {
    ($name:ident, $module:ident) => {
        fn $name(smoke: bool, runner: &TrialRunner) -> ExperimentOutput {
            let res = if smoke {
                $module::run_smoke_with(runner)
            } else {
                $module::run_default_with(runner)
            };
            ExperimentOutput {
                table: res.table,
                outliers: res.outliers,
            }
        }
    };
}

adapter!(run_fig1_gg, fig1_gg);
adapter!(run_fig1_r_restricted, fig1_r_restricted);
adapter!(run_fig1_arbitrary, fig1_arbitrary);
adapter!(run_lower_bounds, lower_bounds);
adapter!(run_fig1_fmmb, fig1_fmmb);
adapter!(run_subroutines, subroutines);
adapter!(run_ablation_abort, ablation_abort);
adapter!(run_consensus_crash, consensus_crash);
adapter!(run_election, election);
adapter!(run_scale, scale);

/// Every experiment in suite order. `repro` runs the whole list by
/// default, or the subset named on its command line.
pub fn registry() -> &'static [ExperimentSpec] {
    &[
        ExperimentSpec {
            id: "fig1_gg",
            label: "F1-GG",
            summary: "standard model, G' = G",
            detail: "BMMB on reliable lines: completion tracks O(D*F_prog + k*F_ack) (Fig. 1, KLN11 row)",
            deterministic: fig1_gg::DETERMINISTIC,
            run: run_fig1_gg,
            record: crate::record::fig1_gg,
        },
        ExperimentSpec {
            id: "fig1_r_restricted",
            label: "F1-RR",
            summary: "standard model, r-restricted G'",
            detail: "BMMB under r-restricted unreliable augmentation: Thm 3.2/3.16 bound, exact t1 deadline",
            deterministic: false,
            run: run_fig1_r_restricted,
            record: crate::record::fig1_r_restricted,
        },
        ExperimentSpec {
            id: "fig1_arbitrary",
            label: "F1-ARB",
            summary: "standard model, arbitrary G'",
            detail: "BMMB with arbitrary unreliable links: the O((D+k)*F_ack) slowdown of Thm 3.1",
            deterministic: fig1_arbitrary::DETERMINISTIC,
            run: run_fig1_arbitrary,
            record: crate::record::fig1_arbitrary,
        },
        ExperimentSpec {
            id: "lower_bounds",
            label: "LB",
            summary: "lower bounds (Lemma 3.18 + Figure 2)",
            detail: "choke-star Omega(k*F_ack) and grey-zone Omega(D*F_ack) adversary constructions",
            deterministic: lower_bounds::DETERMINISTIC,
            run: run_lower_bounds,
            record: crate::record::lower_bounds,
        },
        ExperimentSpec {
            id: "fig1_fmmb",
            label: "F1-ENH",
            summary: "enhanced model, FMMB vs BMMB",
            detail: "FMMB (MIS + gather + spread) beats BMMB on grey-zone duals: Thm 4.1 regime",
            deterministic: false,
            run: run_fig1_fmmb,
            record: crate::record::fig1_fmmb,
        },
        ExperimentSpec {
            id: "subroutines",
            label: "SUB-*",
            summary: "FMMB subroutines",
            detail: "MIS O(log^3 n) rounds, gather O(k+log n) periods, spread O((D+k) log n) rounds",
            deterministic: false,
            run: run_subroutines,
            record: crate::record::subroutines,
        },
        ExperimentSpec {
            id: "ablation_abort",
            label: "ABL",
            summary: "abort-interface ablation",
            detail: "FMMB with the enhanced-layer abort disabled: what the interface buys (and costs)",
            deterministic: false,
            run: run_ablation_abort,
            record: crate::record::ablation_abort,
        },
        ExperimentSpec {
            id: "consensus_crash",
            label: "CONS",
            summary: "crash-tolerant consensus (NR18), crash-fraction sweep",
            detail: "timed flooding consensus under node crashes: agreement/validity, (f+1)-phase deadline",
            deterministic: false,
            run: run_consensus_crash,
            record: crate::record::consensus_crash,
        },
        ExperimentSpec {
            id: "election",
            label: "ELECT",
            summary: "leader election via broadcast back-off, grey zone",
            detail: "randomized wake-up/election: convergence vs W + 2(D+1)(F_prog+1), claimant suppression",
            deterministic: false,
            run: run_election,
            record: crate::record::election,
        },
        ExperimentSpec {
            id: "scale",
            label: "SCALE",
            summary: "runtime throughput + streaming validation, n up to 1M",
            detail: "BMMB floods on 1k..1M-node grid duals: events/s and validator peaks",
            deterministic: scale::DETERMINISTIC,
            run: run_scale,
            record: crate::record::scale,
        },
    ]
}

/// Looks an experiment up by its registry [`id`](ExperimentSpec::id).
pub fn find(id: &str) -> Option<&'static ExperimentSpec> {
    registry().iter().find(|spec| spec.id == id)
}

/// Test support for outlier capture: a capture directory per test and the
/// replayed verdicts of its recordings.
#[cfg(test)]
pub(crate) mod capture_tests {
    use super::LabeledOutlier;
    use amac_store::{replay_validate, TraceReader, TraceSummary};
    use std::path::PathBuf;

    /// A fresh, existing capture directory unique to `tag` and this process.
    pub(crate) fn capture_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("amac-bench-capture-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("temp dir is writable");
        dir
    }

    /// Replays every outlier's recording through a fresh validator and
    /// asserts that it holds events and a clean verdict.
    pub(crate) fn replay_clean(outliers: &[LabeledOutlier]) -> Vec<TraceSummary> {
        assert!(!outliers.is_empty(), "capture must retain outliers");
        outliers
            .iter()
            .map(|o| {
                let summary = TraceReader::open(&o.outlier.path)
                    .and_then(replay_validate)
                    .unwrap_or_else(|e| panic!("{}: {e}", o.label));
                assert!(summary.events > 0, "{}: empty recording", o.label);
                assert!(
                    summary.validation.is_ok(),
                    "{}: {}",
                    o.label,
                    summary.validation
                );
                summary
            })
            .collect()
    }
}
