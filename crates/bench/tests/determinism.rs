//! The engine's determinism contract, end to end: with a fixed seed, the
//! rendered experiment tables must be **byte-identical** for `jobs = 1`
//! and `jobs = 8` — worker scheduling must never leak into results.

use amac_bench::engine::TrialRunner;
use amac_bench::experiments::{self, LabeledOutlier};
use amac_store::{replay_into, replay_validate, TraceReader};
use std::path::PathBuf;

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

/// Runs an experiment's canonical execution with metrics enabled (and,
/// when `trace` is set, a chrome-trace export written to that path).
fn canonical_obs(id: &str, trace: Option<std::path::PathBuf>) -> amac_bench::CanonicalRun {
    let spec = experiments::find(id).expect("registry id");
    spec.canonical(&amac_bench::CanonicalOpts {
        smoke: true,
        metrics: true,
        chrome_trace: trace,
        ..amac_bench::CanonicalOpts::default()
    })
}

#[test]
fn fault_free_metrics_respect_the_ack_bound() {
    // Every fault-free canonical run must deliver within F_ack: the
    // delivery-latency histogram's upper edge is bounded by the model's
    // ack deadline (consensus_crash injects crashes and is exempt).
    for id in ["fig1_gg", "fig1_fmmb", "scale"] {
        let metrics = canonical_obs(id, None)
            .metrics
            .expect("metrics were requested");
        assert!(metrics.bcasts > 0, "{id}: empty run");
        assert!(
            metrics.delivery_within_ack_bound(),
            "{id}: fault-free delivery latency exceeded F_ack"
        );
    }
}

#[test]
fn canonical_chrome_trace_is_repeatable_and_has_spans() {
    // The span timeline of the canonical scale run is a Chrome trace-event
    // document with complete spans, and two runs export the same bytes.
    let dir = std::env::temp_dir().join("amac-bench-determinism-spans");
    std::fs::create_dir_all(&dir).unwrap();
    let render = |run: usize| {
        let path = dir.join(format!("trace-{run}.json"));
        canonical_obs("scale", Some(path.clone()));
        let doc = std::fs::read_to_string(&path).expect("chrome trace written");
        std::fs::remove_file(&path).ok();
        doc
    };
    let first = render(0);
    assert!(first.starts_with("{\"traceEvents\":["));
    assert!(first.contains("\"ph\":\"X\""), "spans present");
    assert_eq!(
        first,
        render(1),
        "SCALE: the chrome trace must be repeatable"
    );
}

#[test]
fn replayed_metrics_match_live_metrics() {
    // Determinism contract item 3 of docs/OBSERVABILITY.md: the recording's
    // header carries F_prog/F_ack, so metrics rebuilt from the file alone
    // (`repro replay --observer metrics`) are the live run's document.
    let dir = capture_dir("replayed-metrics");
    for spec in experiments::registry() {
        let run = spec.canonical(&amac_bench::CanonicalOpts {
            smoke: true,
            record: Some(dir.clone()),
            metrics: true,
            ..amac_bench::CanonicalOpts::default()
        });
        let live = run
            .metrics
            .expect("metrics were requested")
            .to_json(spec.id);
        let path = run.trace.expect("recording was requested").path;
        let mut reader = TraceReader::open(&path).unwrap();
        let mut replayed = amac_obs::MetricsObserver::new(reader.header().config());
        replay_into(&mut reader, &mut replayed).unwrap();
        assert_eq!(
            replayed.into_report().to_json(spec.id),
            live,
            "{}: replayed metrics must match the live document byte for byte",
            spec.id
        );
    }
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
