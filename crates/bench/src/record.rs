//! Canonical executions — `repro <experiment> --record DIR`.
//!
//! Each registry experiment maps to one **canonical execution**: a single
//! representative run of the experiment's scenario at a fixed seed,
//! recorded by a streaming [`amac_store::StoreObserver`] to
//! `DIR/<id>.amactrace`. The live run validates as usual, and comes back
//! as a [`RecordedTrace`] carrying the live validator's verdict and
//! [`OnlineStats`] packaged as a [`TraceSummary`] — the *same* summary
//! `repro replay` rebuilds from the file alone, so recording and
//! replaying print byte-identical blocks when the store is faithful. The
//! other views of a canonical execution, its metrics document and its
//! span timeline, are rebuilt from the recording too (`repro replay FILE
//! --observer metrics|spans`).
//!
//! The trace format (`docs/TRACE_FORMAT.md`) stores no wall-clock data,
//! so every function here writes byte-identical files on every run and
//! machine.

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

/// The trace path `dir/<id>.amactrace` and the validated run options that
/// record to it with `seed` in the header.
fn recording(dir: &Path, id: &str, seed: u64) -> (PathBuf, RunOptions) {
    let path = dir.join(format!("{id}.amactrace"));
    let options = RunOptions::default().recording(&path, seed);
    (path, options)
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
pub fn fig1_gg(dir: &Path, smoke: bool) -> RecordedTrace {
    let (d, k) = if smoke { (8, 4) } else { (32, 8) };
    let (path, options) = recording(dir, "fig1_gg", 0);
    let dual = DualGraph::reliable(generators::line(d + 1).expect("d >= 1"));
    let report = run_bmmb(
        &dual,
        MacConfig::from_ticks(2, 40),
        &Assignment::all_at(NodeId::new(0), k),
        LazyPolicy::new().prefer_duplicates(),
        &options,
    );
    summarize(path, report.validation, report.validator_stats)
}

/// `F1-RR`: BMMB on a line with a seeded `r`-restricted unreliable
/// augmentation.
pub fn fig1_r_restricted(dir: &Path, smoke: bool) -> RecordedTrace {
    let (d, k) = if smoke { (8, 4) } else { (32, 8) };
    let seed = 0xF1_22;
    let (path, options) = recording(dir, "fig1_r_restricted", seed);
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
    summarize(path, report.validation, report.validator_stats)
}

/// `F1-ARB`: BMMB on a line with evenly spaced long-range unreliable
/// shortcuts.
pub fn fig1_arbitrary(dir: &Path, smoke: bool) -> RecordedTrace {
    let (d, k) = if smoke { (8, 4) } else { (32, 8) };
    let (path, options) = recording(dir, "fig1_arbitrary", 0);
    let g = generators::line(d + 1).expect("d >= 1");
    let dual = generators::long_range_augment(g, d / 4).expect("valid augment");
    let report = run_bmmb(
        &dual,
        MacConfig::from_ticks(2, 40),
        &Assignment::all_at(NodeId::new(0), k),
        LazyPolicy::new().prefer_duplicates(),
        &options,
    );
    summarize(path, report.validation, report.validator_stats)
}

/// `LB`: the Lemma 3.18 choke star under the lazy duplicate-feeding
/// scheduler (the `Ω(k·F_ack)` witness).
pub fn lower_bounds(dir: &Path, smoke: bool) -> RecordedTrace {
    let k = if smoke { 6 } else { 16 };
    let (path, options) = recording(dir, "lower_bounds", 0);
    let (dual, assignment) = choke_star_instance(k);
    let report = run_bmmb(
        &dual,
        MacConfig::from_ticks(2, 40),
        &assignment,
        LazyPolicy::new().prefer_duplicates(),
        &options,
    );
    summarize(path, report.validation, report.validator_stats)
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
pub fn fig1_fmmb(dir: &Path, smoke: bool) -> RecordedTrace {
    let (n, k) = if smoke { (24, 3) } else { (64, 6) };
    let seed = 0xE0_14;
    let (path, options) = recording(dir, "fig1_fmmb", seed);
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
    summarize(path, report.validation, report.validator_stats)
}

/// `SUB-*`: the underlying FMMB execution the subroutine milestones are
/// carved from — same dual, same schedule — run through [`run_fmmb`] and
/// stopped at completion like the other FMMB canonical runs.
pub fn subroutines(dir: &Path, smoke: bool) -> RecordedTrace {
    let (n, k) = if smoke { (24, 3) } else { (64, 6) };
    let seed = 0x50_B5;
    let (path, options) = recording(dir, "subroutines", seed);
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
    summarize(path, report.validation, report.validator_stats)
}

/// `ABL`: FMMB with the enhanced-layer abort interface disabled.
pub fn ablation_abort(dir: &Path, smoke: bool) -> RecordedTrace {
    let (n, k) = if smoke { (24, 3) } else { (64, 6) };
    let seed = 0xAB_07;
    let (path, options) = recording(dir, "ablation_abort", seed);
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
    summarize(path, report.validation, report.validator_stats)
}

/// `CONS`: crash-tolerant flooding consensus on a complete reliable dual
/// with a seeded random crash plan — the one canonical trace whose
/// fault-plan section is non-empty.
pub fn consensus_crash(dir: &Path, smoke: bool) -> RecordedTrace {
    let (n, crashes) = if smoke { (8, 2) } else { (16, 4) };
    let seed = 0xC0_45;
    let (path, options) = recording(dir, "consensus_crash", seed);
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
    summarize(path, report.validation, report.validator_stats)
}

/// `ELECT`: randomized wake-up/leader election on a seeded grey-zone dual.
pub fn election(dir: &Path, smoke: bool) -> RecordedTrace {
    let n = if smoke { 16 } else { 48 };
    let seed = 0xE1_EC;
    let (path, options) = recording(dir, "election", seed);
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
    summarize(path, report.validation, report.validator_stats)
}

/// `SCALE`: the throughput workload — an eager BMMB line flood — at a
/// recordable size.
pub fn scale(dir: &Path, smoke: bool) -> RecordedTrace {
    let n = if smoke { 200 } else { 1000 };
    let (path, options) = recording(dir, "scale", 0);
    let dual = DualGraph::reliable(generators::line(n).expect("n >= 2"));
    let report = run_bmmb(
        &dual,
        MacConfig::from_ticks(2, 32),
        &Assignment::all_at(NodeId::new(0), 2),
        EagerPolicy::new(),
        &options,
    );
    summarize(path, report.validation, report.validator_stats)
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
        let recorded = consensus_crash(&dir, true);
        assert_ne!(recorded.summary.header.fault_plan_digest, 0);
        assert!(recorded.summary.faults > 0, "crashes must be recorded");
        std::fs::remove_file(&recorded.path).ok();
    }
}
