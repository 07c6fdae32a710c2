//! The engine's determinism contract, end to end: with a fixed seed, the
//! rendered experiment tables must be **byte-identical** for `jobs = 1`
//! and `jobs = 8` — worker scheduling must never leak into results.

use amac_bench::engine::TrialRunner;
use amac_bench::experiments::{self, LabeledOutlier};
use amac_core::{run_bmmb, run_fmmb, Assignment, FmmbParams, RunOptions};
use amac_graph::generators::{self, connected_grey_zone_network, GreyZoneConfig};
use amac_graph::{DualGraph, NodeId};
use amac_mac::policies::LazyPolicy;
use amac_mac::{FaultPlan, MacConfig};
use amac_obs::{MetricsObserver, MetricsReport, SpanObserver};
use amac_proto::consensus::{run_consensus, ConsensusParams};
use amac_sim::{SimRng, Time};
use amac_store::{replay_into, replay_validate, TraceReader};
use std::path::{Path, PathBuf};

fn assert_jobs_invariant(render: impl Fn(&TrialRunner) -> String, label: &str) {
    let serial = render(&TrialRunner::new(4, 1));
    let parallel = render(&TrialRunner::new(4, 8));
    assert_eq!(
        serial, parallel,
        "{label}: jobs=1 and jobs=8 must render byte-identical tables"
    );
}

#[test]
fn fmmb_tables_are_jobs_invariant() {
    // The most randomness-heavy experiment: grey-zone sampling, random
    // assignments, and FMMB coin flips all flow from the trial seed.
    assert_jobs_invariant(
        |r| {
            experiments::fig1_fmmb::run(2, &[8, 32], 12, &[12], 2.0, 2, 5, r)
                .table
                .to_string()
        },
        "F1-ENH",
    );
}

#[test]
fn r_restricted_tables_are_jobs_invariant() {
    assert_jobs_invariant(
        |r| {
            experiments::fig1_r_restricted::run(
                amac_mac::MacConfig::from_ticks(2, 32),
                8,
                2,
                &[1, 2],
                0.5,
                11,
                r,
            )
            .table
            .to_string()
        },
        "F1-RR",
    );
}

#[test]
fn ablation_tables_are_jobs_invariant() {
    assert_jobs_invariant(
        |r| {
            experiments::ablation_abort::run(2, &[8, 32], 12, 2.0, 2, 6, r)
                .table
                .to_string()
        },
        "ABL-ABORT",
    );
}

#[test]
fn markdown_rendering_is_jobs_invariant_too() {
    assert_jobs_invariant(
        |r| {
            experiments::subroutines::run(2, &[8, 12], &[1, 2], 2.0, &[1], r)
                .table
                .to_markdown()
        },
        "SUB-*",
    );
}

#[test]
fn consensus_crash_tables_are_jobs_invariant() {
    // The new fault-injection path adds scheduling-sensitive surface
    // (crash schedules, decision tracking): sweep two crash fractions and
    // a size point, with distribution plots on — table plus plot lines
    // must be byte-identical across worker counts.
    assert_jobs_invariant(
        |r| {
            experiments::consensus_crash::run(
                2,
                12,
                10,
                &[0.0, 0.3],
                &[8],
                0.25,
                13,
                &r.clone().with_plots(true),
            )
            .table
            .to_string()
        },
        "CONS",
    );
}

#[test]
fn election_tables_are_jobs_invariant() {
    assert_jobs_invariant(
        |r| {
            experiments::election::run(2, 12, 24, &[10, 14], 2.0, 17, &r.clone().with_plots(true))
                .table
                .to_string()
        },
        "ELECT",
    );
}

#[test]
fn adaptive_tables_are_jobs_invariant() {
    // Adaptive mode adds a second scheduling-sensitive surface: per-point
    // trial counts. Both the counts and the aggregates must be identical
    // across worker counts (batch boundaries are fixed, stop decisions are
    // functions of folded data only).
    let render = |jobs: usize| {
        let runner = TrialRunner::new(3, jobs)
            .with_max_trials(24)
            .with_target_ci(0.2);
        experiments::fig1_fmmb::run(2, &[8, 32], 12, &[12], 2.0, 2, 5, &runner)
            .table
            .to_string()
    };
    assert_eq!(
        render(1),
        render(8),
        "F1-ENH adaptive: jobs=1 and jobs=8 must render byte-identical tables"
    );
}

#[test]
fn adaptive_mode_stops_low_variance_sweeps_early() {
    // r = 1 cannot add any edge to the line, so every trial measures the
    // same topology: the CI collapses to zero at the floor and the point
    // must stop there instead of burning trials up to the cap.
    let runner = TrialRunner::new(2, 2)
        .with_max_trials(32)
        .with_target_ci(0.1);
    let res = experiments::fig1_r_restricted::run(
        amac_mac::MacConfig::from_ticks(2, 32),
        8,
        2,
        &[1],
        0.5,
        11,
        &runner,
    );
    assert_eq!(
        res.r_sweep[0].measured.trials, 2,
        "zero-variance point must stop at the floor"
    );
    assert!(res.r_sweep[0].measured.trials < runner.max_trials() as u64);
}

/// A fresh, existing capture directory for one test.
fn capture_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "amac-bench-determinism-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn captured_outlier_traces_pass_the_validator() {
    // The engine replays each point's min/median/max trial with its
    // execution recorded; replaying every recording through a fresh
    // validator must find it non-empty and conforming to the MAC model.
    // FMMB runs through `run_fmmb`, the subroutines through their own
    // round-stepping runner.
    let dir = capture_dir("capture");
    let (fmmb_dir, sub_dir) = (dir.join("fmmb"), dir.join("sub"));
    for d in [&fmmb_dir, &sub_dir] {
        std::fs::create_dir_all(d).unwrap();
    }
    let runner = TrialRunner::new(2, 2);
    let fmmb = experiments::fig1_fmmb::run(
        2,
        &[8],
        12,
        &[12],
        2.0,
        2,
        5,
        &runner.clone().with_trace_capture(&fmmb_dir),
    );
    let sub = experiments::subroutines::run(
        2,
        &[8],
        &[1],
        2.0,
        &[1],
        &runner.clone().with_trace_capture(&sub_dir),
    );
    for outliers in [&fmmb.outliers, &sub.outliers] {
        assert!(!outliers.is_empty(), "capture must retain outliers");
        for o in outliers {
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
        }
    }
    // Capture itself must not perturb measurements: same sweeps without
    // capture render the identical tables.
    let fmmb_plain = experiments::fig1_fmmb::run(2, &[8], 12, &[12], 2.0, 2, 5, &runner);
    assert_eq!(fmmb.table.to_string(), fmmb_plain.table.to_string());
    let sub_plain = experiments::subroutines::run(2, &[8], &[1], 2.0, &[1], &runner);
    assert_eq!(sub.table.to_string(), sub_plain.table.to_string());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn captured_recordings_are_identical_across_job_counts() {
    // The recordings are a pure function of the replayed cells, so one
    // worker and two must dump the same files with the same bytes.
    let dir = capture_dir("capture-jobs");
    let dump = |jobs: usize| -> Vec<(PathBuf, Vec<u8>)> {
        let out = dir.join(format!("jobs{jobs}"));
        let runner = |id: &str| {
            std::fs::create_dir_all(out.join(id)).unwrap();
            TrialRunner::new(3, jobs).with_trace_capture(out.join(id))
        };
        let fmmb = experiments::fig1_fmmb::run(2, &[8, 32], 12, &[12], 2.0, 2, 5, &runner("fmmb"));
        let cons =
            experiments::consensus_crash::run(2, 12, 10, &[0.3], &[8], 0.25, 13, &runner("cons"));
        let mut paths: Vec<PathBuf> = [fmmb.outliers, cons.outliers]
            .iter()
            .flatten()
            .map(|o: &LabeledOutlier| o.outlier.path.clone())
            .collect();
        paths.sort();
        paths.dedup();
        paths
            .into_iter()
            .map(|path| {
                let bytes = std::fs::read(&path).unwrap();
                (path.strip_prefix(&out).unwrap().to_path_buf(), bytes)
            })
            .collect()
    };
    let (serial, parallel) = (dump(1), dump(2));
    assert!(!serial.is_empty());
    assert_eq!(
        serial, parallel,
        "jobs=1 and jobs=2 must dump byte-identical recordings"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Drops the named columns from a rendered table, keeping everything else
/// (cell-level masking — no regex, just header-name lookup).
fn strip_columns(
    table: &amac_bench::table::Table,
    exempt: &[&str],
) -> (Vec<String>, Vec<Vec<String>>) {
    let cols: Vec<usize> = exempt
        .iter()
        .map(|name| {
            table
                .headers()
                .iter()
                .position(|h| h == name)
                .unwrap_or_else(|| panic!("column {name} present"))
        })
        .collect();
    let keep = |i: &usize| !cols.contains(i);
    let headers: Vec<String> = table
        .headers()
        .iter()
        .enumerate()
        .filter(|(i, _)| keep(i))
        .map(|(_, h)| h.clone())
        .collect();
    let rows: Vec<Vec<String>> = table
        .rows()
        .iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .filter(|(i, _)| keep(i))
                .map(|(_, c)| c.clone())
                .collect()
        })
        .collect();
    (headers, rows)
}

#[test]
fn scale_tables_are_jobs_invariant_modulo_wall_clock() {
    // The scale experiment's wall-clock throughput column is exempt from
    // the byte-identity contract (like the JSON wall clock); every other
    // cell — events, instances, completion, validator peaks, violations —
    // must be byte-identical across worker counts.
    const WALL: &[&str] = &["seq ev/s"];
    let serial = experiments::scale::run(&[200, 600], &TrialRunner::new(4, 1));
    let parallel = experiments::scale::run(&[200, 600], &TrialRunner::new(4, 8));
    assert_eq!(
        strip_columns(&serial.table, WALL),
        strip_columns(&parallel.table, WALL),
        "SCALE: jobs=1 and jobs=8 must agree on every deterministic cell"
    );
}

/// The metrics rebuilt from the recording at `path` alone, as `repro
/// replay FILE --observer metrics` renders them.
fn replayed_metrics(path: &Path) -> MetricsReport {
    let mut reader = TraceReader::open(path).unwrap();
    let mut metrics = MetricsObserver::new(reader.header().config());
    replay_into(&mut reader, &mut metrics).unwrap();
    metrics.into_report()
}

#[test]
fn fault_free_metrics_respect_the_ack_bound() {
    // Every fault-free canonical run must deliver within F_ack: the
    // delivery-latency histogram's upper edge is bounded by the model's
    // ack deadline (consensus_crash injects crashes and is exempt).
    let dir = capture_dir("ack-bound");
    for id in ["fig1_gg", "fig1_fmmb", "scale"] {
        let spec = experiments::find(id).expect("registry id");
        let metrics = replayed_metrics(&spec.record(&dir, true).path);
        assert!(metrics.bcasts > 0, "{id}: empty run");
        assert!(
            metrics.delivery_within_ack_bound(),
            "{id}: fault-free delivery latency exceeded F_ack"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn canonical_chrome_trace_is_repeatable_and_has_spans() {
    // The span timeline of the canonical scale run, rebuilt from its
    // recording (`repro replay FILE --observer spans`), is a Chrome
    // trace-event document with complete spans, and two runs give the
    // same bytes.
    let dir = capture_dir("spans");
    let spec = experiments::find("scale").expect("registry id");
    let render = || {
        let mut spans = SpanObserver::new();
        let path = spec.record(&dir, true).path;
        replay_into(&mut TraceReader::open(&path).unwrap(), &mut spans).unwrap();
        spans.to_chrome_json()
    };
    let first = render();
    assert!(first.starts_with("{\"traceEvents\":["));
    assert!(first.contains("\"ph\":\"X\""), "spans present");
    assert_eq!(
        first,
        render(),
        "SCALE: the chrome trace must be repeatable"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replayed_metrics_match_live_metrics() {
    // Determinism contract item 3 of docs/OBSERVABILITY.md: the recording's
    // header carries F_prog/F_ack, so metrics rebuilt from the file alone
    // (`repro replay --observer metrics`) are the document a live
    // `MetricsObserver` renders for the same run, byte for byte — through
    // the BMMB, FMMB (aborts) and consensus (crashes) harnesses.
    let dir = capture_dir("replayed-metrics");
    let options = |name: &str| {
        RunOptions::default()
            .recording(dir.join(format!("{name}.amactrace")), 0)
            .with_metrics()
    };
    let compare = |name: &str, live: Option<MetricsReport>| {
        let live = live.expect("metrics were requested");
        let replayed = replayed_metrics(&dir.join(format!("{name}.amactrace")));
        assert_eq!(
            replayed.to_json(name),
            live.to_json(name),
            "{name}: replayed metrics must match the live document byte for byte"
        );
        live
    };

    let mut rng = SimRng::seed(0xF1_22);
    let line = generators::line(9).unwrap();
    let dual = generators::r_restricted_augment(line, 2, 0.5, &mut rng).unwrap();
    let bmmb = run_bmmb(
        &dual,
        MacConfig::from_ticks(2, 40),
        &Assignment::all_at(NodeId::new(0), 4),
        LazyPolicy::new().prefer_duplicates(),
        &options("bmmb"),
    );
    assert!(compare("bmmb", bmmb.metrics).bcasts > 0);

    let mut rng = SimRng::seed(8);
    let net = connected_grey_zone_network(&GreyZoneConfig::new(20, 3.2), 200, &mut rng).unwrap();
    let assignment = Assignment::random(20, 2, &mut rng);
    let fmmb = run_fmmb(
        &net.dual,
        MacConfig::from_ticks(2, 16).enhanced(),
        &assignment,
        &FmmbParams::new(2, net.dual.diameter()),
        3,
        LazyPolicy::new(),
        &options("fmmb").stopping_on_completion(),
    );
    assert!(compare("fmmb", fmmb.metrics).aborts > 0, "FMMB aborts");

    let config = MacConfig::from_ticks(2, 16).enhanced();
    let params = ConsensusParams::for_crashes(2, &config);
    let mut rng = SimRng::seed(0xC0_45);
    let initial: Vec<bool> = (0..8).map(|_| rng.chance(0.5)).collect();
    let window = Time::ZERO + params.phase_len.times(params.phases);
    let consensus = run_consensus(
        &DualGraph::reliable(generators::complete(8).unwrap()),
        config,
        &initial,
        &params,
        FaultPlan::random_crashes(8, 2, window, &mut rng),
        LazyPolicy::new().prefer_duplicates(),
        &options("consensus"),
    );
    assert!(
        compare("consensus", consensus.metrics).faults > 0,
        "crashes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_trial_reproduces_historical_seed_behaviour() {
    // Trial 0 is seeded with the experiment's historical base seed, so a
    // single-trial engine run must agree with itself across repeats and
    // across job counts (there is nothing to parallelize, but the code
    // path must not disturb the rng flow).
    let a = experiments::fig1_fmmb::run_smoke_with(&TrialRunner::single());
    let b = experiments::fig1_fmmb::run_smoke_with(&TrialRunner::new(1, 8));
    assert_eq!(a.table.to_string(), b.table.to_string());
}
