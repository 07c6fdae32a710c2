//! Canonical executions — `repro <experiment> --record DIR`,
//! `--metrics DIR`, and `--chrome-trace FILE`.
//!
//! Each registry experiment maps to one **canonical execution**: a single
//! representative run of the experiment's scenario at a fixed seed. What
//! the run produces is selected by [`CanonicalOpts`]: a streaming
//! [`amac_store::StoreObserver`] recording every MAC event and fault to
//! `DIR/<id>.amactrace`, a deterministic sim-time
//! [`MetricsReport`](amac_obs::MetricsReport), a Chrome trace-event span
//! export, or any combination. The live run validates as usual; a
//! recorded trace comes back as a [`RecordedTrace`] carrying the live
//! validator's verdict and [`OnlineStats`] packaged as a
//! [`TraceSummary`] — the *same* summary `repro replay` rebuilds from the
//! file alone, so recording and replaying print byte-identical blocks
//! when the store is faithful.
//!
//! Neither the trace format (`docs/TRACE_FORMAT.md`) nor the metrics
//! report stores wall-clock data, so every function here produces
//! byte-identical outputs on every run and machine.

use std::path::{Path, PathBuf};

use amac_core::{run_bmmb, run_fmmb, Assignment, FmmbParams, RunOptions};
use amac_graph::generators::{self, connected_grey_zone_network, GreyZoneConfig};
use amac_graph::{DualGraph, NodeId};
use amac_lower::choke_star_instance;
use amac_mac::policies::{EagerPolicy, LazyPolicy};
use amac_mac::{FaultPlan, MacConfig, OnlineStats, ValidationReport};
use amac_proto::consensus::{run_consensus, ConsensusParams};
use amac_proto::election::run_election;
use amac_sim::{Duration, SimRng, Time};
use amac_store::TraceSummary;

/// A freshly recorded canonical execution: where the trace landed, plus
/// the live run's summary (header read back from the file, live
/// validation verdict, live validator stats).
#[derive(Clone, Debug)]
pub struct RecordedTrace {
    /// The trace file (`DIR/<id>.amactrace`).
    pub path: PathBuf,
    /// The live-run summary; `repro replay` on [`path`](Self::path) must
    /// reproduce it byte-for-byte.
    pub summary: TraceSummary,
}

/// What a canonical execution is asked to produce: a recorded trace, a
/// deterministic metrics report, a Chrome trace-event export, or any
/// combination. `smoke` picks the small parameterisation.
#[derive(Clone, Debug, Default)]
pub struct CanonicalOpts {
    /// Small (seconds-scale) parameterisation.
    pub smoke: bool,
    /// Directory receiving `<id>.amactrace`, when recording.
    pub record: Option<PathBuf>,
    /// Collect a deterministic sim-time
    /// [`MetricsReport`](amac_obs::MetricsReport).
    pub metrics: bool,
    /// Export the span timeline as Chrome trace-event JSON to this file.
    pub chrome_trace: Option<PathBuf>,
}

impl CanonicalOpts {
    /// Options for plain recording — the historical `--record DIR` shape.
    pub fn recording(dir: impl AsRef<Path>, smoke: bool) -> CanonicalOpts {
        CanonicalOpts {
            smoke,
            record: Some(dir.as_ref().to_path_buf()),
            ..CanonicalOpts::default()
        }
    }

    /// Builds the per-experiment trace path (when recording) and the run
    /// options realising these canonical options.
    fn configure(&self, id: &str, seed: u64) -> (Option<PathBuf>, RunOptions) {
        let path = self
            .record
            .as_deref()
            .map(|dir| dir.join(format!("{id}.amactrace")));
        let mut options = RunOptions::default();
        if let Some(path) = &path {
            options = options.recording(path, seed);
        }
        if self.metrics {
            options = options.with_metrics();
        }
        if let Some(trace) = &self.chrome_trace {
            options = options.with_chrome_trace(trace);
        }
        (path, options)
    }

    /// Packages a finished canonical run: reads the header back from the
    /// trace file when one was recorded, and passes the metrics report
    /// through.
    fn finish(
        &self,
        path: Option<PathBuf>,
        validation: Option<ValidationReport>,
        stats: Option<OnlineStats>,
        metrics: Option<amac_obs::MetricsReport>,
    ) -> CanonicalRun {
        CanonicalRun {
            trace: path.map(|p| summarize(p, validation, stats)),
            metrics,
        }
    }
}

/// Output of one canonical execution, shaped by [`CanonicalOpts`].
#[derive(Clone, Debug)]
pub struct CanonicalRun {
    /// The recorded trace and its live summary, when
    /// [`CanonicalOpts::record`] was set.
    pub trace: Option<RecordedTrace>,
    /// The deterministic metrics report, when [`CanonicalOpts::metrics`]
    /// was set.
    pub metrics: Option<amac_obs::MetricsReport>,
}

/// Packages a finished recorded run: reads the header back from the file
/// and pairs it with the live validation verdict and stats.
fn summarize(
    path: PathBuf,
    validation: Option<ValidationReport>,
    stats: Option<OnlineStats>,
) -> RecordedTrace {
    let validation = validation.expect("recording runs keep validation on");
    let stats = stats.expect("recording runs keep validation on");
    let summary = TraceSummary::for_live(&path, validation, stats)
        .unwrap_or_else(|e| panic!("cannot read back {}: {e}", path.display()));
    RecordedTrace { path, summary }
}

/// `F1-GG`: BMMB flood on a reliable line under the lazy duplicate-feeding
/// scheduler.
pub fn fig1_gg(opts: &CanonicalOpts) -> CanonicalRun {
    let (d, k) = if opts.smoke { (8, 4) } else { (32, 8) };
    let (path, options) = opts.configure("fig1_gg", 0);
    let dual = DualGraph::reliable(generators::line(d + 1).expect("d >= 1"));
    let report = run_bmmb(
        &dual,
        MacConfig::from_ticks(2, 40),
        &Assignment::all_at(NodeId::new(0), k),
        LazyPolicy::new().prefer_duplicates(),
        &options,
    );
    opts.finish(
        path,
        report.validation,
        report.validator_stats,
        report.metrics,
    )
}

/// `F1-RR`: BMMB on a line with a seeded `r`-restricted unreliable
/// augmentation.
pub fn fig1_r_restricted(opts: &CanonicalOpts) -> CanonicalRun {
    let (d, k) = if opts.smoke { (8, 4) } else { (32, 8) };
    let seed = 0xF1_22;
    let (path, options) = opts.configure("fig1_r_restricted", seed);
    let g = generators::line(d + 1).expect("d >= 1");
    let mut rng = SimRng::seed(seed);
    let dual = generators::r_restricted_augment(g, 2, 0.5, &mut rng).expect("valid parameters");
    let report = run_bmmb(
        &dual,
        MacConfig::from_ticks(2, 40),
        &Assignment::all_at(NodeId::new(0), k),
        LazyPolicy::new().prefer_duplicates(),
        &options,
    );
    opts.finish(
        path,
        report.validation,
        report.validator_stats,
        report.metrics,
    )
}

/// `F1-ARB`: BMMB on a line with evenly spaced long-range unreliable
/// shortcuts.
pub fn fig1_arbitrary(opts: &CanonicalOpts) -> CanonicalRun {
    let (d, k) = if opts.smoke { (8, 4) } else { (32, 8) };
    let (path, options) = opts.configure("fig1_arbitrary", 0);
    let g = generators::line(d + 1).expect("d >= 1");
    let dual = generators::long_range_augment(g, d / 4).expect("valid augment");
    let report = run_bmmb(
        &dual,
        MacConfig::from_ticks(2, 40),
        &Assignment::all_at(NodeId::new(0), k),
        LazyPolicy::new().prefer_duplicates(),
        &options,
    );
    opts.finish(
        path,
        report.validation,
        report.validator_stats,
        report.metrics,
    )
}

/// `LB`: the Lemma 3.18 choke star under the lazy duplicate-feeding
/// scheduler (the `Ω(k·F_ack)` witness).
pub fn lower_bounds(opts: &CanonicalOpts) -> CanonicalRun {
    let k = if opts.smoke { 6 } else { 16 };
    let (path, options) = opts.configure("lower_bounds", 0);
    let (dual, assignment) = choke_star_instance(k);
    let report = run_bmmb(
        &dual,
        MacConfig::from_ticks(2, 40),
        &assignment,
        LazyPolicy::new().prefer_duplicates(),
        &options,
    );
    opts.finish(
        path,
        report.validation,
        report.validator_stats,
        report.metrics,
    )
}

/// Samples the seeded grey-zone deployment the FMMB-family canonical runs
/// share.
fn grey_zone(n: usize, seed: u64) -> (DualGraph, SimRng) {
    let mut rng = SimRng::seed(seed);
    let side = (n as f64 / 2.5).sqrt();
    let net = connected_grey_zone_network(&GreyZoneConfig::new(n, side).with_c(2.0), 500, &mut rng)
        .expect("connected sample");
    (net.dual, rng)
}

/// `F1-ENH`: FMMB (MIS + gather + spread) on a seeded grey-zone dual in
/// the enhanced model.
pub fn fig1_fmmb(opts: &CanonicalOpts) -> CanonicalRun {
    let (n, k) = if opts.smoke { (24, 3) } else { (64, 6) };
    let seed = 0xE0_14;
    let (path, options) = opts.configure("fig1_fmmb", seed);
    let (dual, mut rng) = grey_zone(n, seed);
    let assignment = Assignment::random(n, k, &mut rng);
    let params = FmmbParams::new(k, dual.diameter());
    let report = run_fmmb(
        &dual,
        MacConfig::from_ticks(2, 32).enhanced(),
        &assignment,
        &params,
        seed,
        LazyPolicy::new(),
        &options.stopping_on_completion(),
    );
    opts.finish(
        path,
        report.validation,
        report.validator_stats,
        report.metrics,
    )
}

/// `SUB-*`: the underlying FMMB execution the subroutine milestones are
/// carved from — same dual, same schedule — run through [`run_fmmb`] and
/// stopped at completion like the other FMMB canonical runs.
pub fn subroutines(opts: &CanonicalOpts) -> CanonicalRun {
    let (n, k) = if opts.smoke { (24, 3) } else { (64, 6) };
    let seed = 0x50_B5;
    let (path, options) = opts.configure("subroutines", seed);
    let (dual, mut rng) = grey_zone(n, seed);
    let assignment = Assignment::random(n, k, &mut rng);
    let params = FmmbParams::new(k, dual.diameter());
    let report = run_fmmb(
        &dual,
        MacConfig::from_ticks(2, 32).enhanced(),
        &assignment,
        &params,
        seed,
        LazyPolicy::new(),
        &options.stopping_on_completion(),
    );
    opts.finish(
        path,
        report.validation,
        report.validator_stats,
        report.metrics,
    )
}

/// `ABL`: FMMB with the enhanced-layer abort interface disabled.
pub fn ablation_abort(opts: &CanonicalOpts) -> CanonicalRun {
    let (n, k) = if opts.smoke { (24, 3) } else { (64, 6) };
    let seed = 0xAB_07;
    let (path, options) = opts.configure("ablation_abort", seed);
    let (dual, mut rng) = grey_zone(n, seed);
    let assignment = Assignment::random(n, k, &mut rng);
    let params = FmmbParams::new(k, dual.diameter()).without_abort();
    let report = run_fmmb(
        &dual,
        MacConfig::from_ticks(2, 32).enhanced(),
        &assignment,
        &params,
        seed,
        LazyPolicy::new(),
        &options.stopping_on_completion(),
    );
    opts.finish(
        path,
        report.validation,
        report.validator_stats,
        report.metrics,
    )
}

/// `CONS`: crash-tolerant flooding consensus on a complete reliable dual
/// with a seeded random crash plan — the one canonical trace whose
/// fault-plan section is non-empty.
pub fn consensus_crash(opts: &CanonicalOpts) -> CanonicalRun {
    let (n, crashes) = if opts.smoke { (8, 2) } else { (16, 4) };
    let seed = 0xC0_45;
    let (path, options) = opts.configure("consensus_crash", seed);
    let config = MacConfig::from_ticks(2, 16).enhanced();
    let params = ConsensusParams::for_crashes(crashes, &config);
    let mut rng = SimRng::seed(seed);
    let initial: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
    let window = Time::ZERO + params.phase_len.times(params.phases);
    let faults = FaultPlan::random_crashes(n, crashes, window, &mut rng);
    let dual = DualGraph::reliable(generators::complete(n).expect("n >= 2"));
    let report = run_consensus(
        &dual,
        config,
        &initial,
        &params,
        faults,
        LazyPolicy::new().prefer_duplicates(),
        &options,
    );
    opts.finish(
        path,
        report.validation,
        report.validator_stats,
        report.metrics,
    )
}

/// `ELECT`: randomized wake-up/leader election on a seeded grey-zone dual.
pub fn election(opts: &CanonicalOpts) -> CanonicalRun {
    let n = if opts.smoke { 16 } else { 48 };
    let seed = 0xE1_EC;
    let (path, options) = opts.configure("election", seed);
    let (dual, mut rng) = grey_zone(n, seed);
    let report = run_election(
        &dual,
        MacConfig::from_ticks(2, 16).enhanced(),
        Duration::from_ticks(64),
        rng.next(),
        FaultPlan::new(),
        LazyPolicy::new(),
        &options,
    );
    opts.finish(
        path,
        report.validation,
        report.validator_stats,
        report.metrics,
    )
}

/// `SCALE`: the throughput workload — an eager BMMB line flood — at a
/// recordable size.
pub fn scale(opts: &CanonicalOpts) -> CanonicalRun {
    let n = if opts.smoke { 200 } else { 1000 };
    let (path, options) = opts.configure("scale", 0);
    let dual = DualGraph::reliable(generators::line(n).expect("n >= 2"));
    let report = run_bmmb(
        &dual,
        MacConfig::from_ticks(2, 32),
        &Assignment::all_at(NodeId::new(0), 2),
        EagerPolicy::new(),
        &options,
    );
    opts.finish(
        path,
        report.validation,
        report.validator_stats,
        report.metrics,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use amac_store::{replay_validate, TraceReader};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("amac-bench-record-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn every_registry_experiment_records_and_replays_identically() {
        let dir = temp_dir("all");
        for spec in crate::experiments::registry() {
            let recorded = spec.record(&dir, true);
            let replayed = replay_validate(TraceReader::open(&recorded.path).unwrap())
                .unwrap_or_else(|e| panic!("{}: {e}", spec.id));
            assert_eq!(
                recorded.summary.to_string(),
                replayed.to_string(),
                "{}: live and replayed summaries must match byte-for-byte",
                spec.id
            );
            std::fs::remove_file(&recorded.path).ok();
        }
    }

    #[test]
    fn consensus_trace_stores_its_fault_plan_digest() {
        let dir = temp_dir("cons");
        let recorded = consensus_crash(&CanonicalOpts::recording(&dir, true))
            .trace
            .expect("recording was requested");
        assert_ne!(recorded.summary.header.fault_plan_digest, 0);
        assert!(recorded.summary.faults > 0, "crashes must be recorded");
        std::fs::remove_file(&recorded.path).ok();
    }

    #[test]
    fn canonical_run_serves_metrics_without_recording() {
        let run = fig1_gg(&CanonicalOpts {
            smoke: true,
            metrics: true,
            ..CanonicalOpts::default()
        });
        assert!(run.trace.is_none(), "no recording was requested");
        let metrics = run.metrics.expect("metrics were requested");
        assert!(metrics.bcasts > 0);
        assert!(
            metrics.delivery_within_ack_bound(),
            "fault-free canonical run must deliver within F_ack"
        );
    }
}
