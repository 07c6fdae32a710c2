//! The `repro` binary's output paths, driven end to end: a requested
//! output lands even when its directory does not exist yet, a path that
//! cannot be created fails before any experiment runs, and a recording
//! replays into the metrics document and the span timeline.

use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh per-test directory under the system temp dir (not created).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amac-repro-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Runs `repro` with `args` followed by `paths`.
fn repro(args: &[&str], paths: &[&Path]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .args(paths)
        .output()
        .expect("repro starts")
}

fn repro_record(dir: &Path) -> Output {
    repro(&["fig1_gg", "--smoke", "--record"], &[dir])
}

#[test]
fn record_creates_its_missing_nested_directory() {
    let dir = scratch("record");
    let nested = dir.join("nested").join("traces");
    let out = repro_record(&nested);
    assert!(
        out.status.success(),
        "{:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(nested.join("fig1_gg.amactrace").is_file());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn uncreatable_record_directory_exits_1_before_running() {
    let dir = scratch("blocked");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("not-a-dir");
    std::fs::write(&file, "").unwrap();
    let out = repro_record(&file.join("traces"));
    assert_eq!(out.status.code(), Some(1), "{:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot create"), "{stderr}");
    assert!(out.stdout.is_empty(), "no experiment may run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_renders_metrics_and_spans_from_a_recording() {
    let dir = scratch("views");
    assert!(repro_record(&dir).status.success());
    let trace = dir.join("fig1_gg.amactrace");
    let out_dir = dir.join("out");
    let metrics = repro(
        &["replay", "--observer", "metrics", "--json"],
        &[&out_dir, &trace],
    );
    assert!(metrics.status.success(), "{:?}", metrics.status);
    let doc = std::fs::read(out_dir.join("METRICS_fig1_gg.json")).expect("metrics written");
    assert_eq!(doc, metrics.stdout, "the file is the printed document");
    assert!(doc.starts_with(b"{\n  \"schema\": \"amac-metrics-v1\",\n"));
    let spans = repro(&["replay", "--observer", "spans"], &[&trace]);
    assert!(spans.status.success(), "{:?}", spans.status);
    let timeline = String::from_utf8_lossy(&spans.stdout);
    assert!(timeline.starts_with("{\"traceEvents\":["), "{timeline}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dump_traces_writes_recordings_that_replay_validates() {
    let dir = scratch("dump");
    let ids = ["fig1_gg", "consensus_crash"];
    let out = repro(
        &[
            ids[0],
            ids[1],
            "--smoke",
            "--trials",
            "2",
            "--jobs",
            "2",
            "--dump-traces",
        ],
        &[&dir],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(stderr.contains("(all validated ok)"), "{stderr}");
    // Every recording is named on the outlier list, and `repro replay`
    // judges them all clean.
    let mut files: Vec<PathBuf> = Vec::new();
    for id in ids {
        for entry in std::fs::read_dir(dir.join(id)).expect("capture directory") {
            let path = entry.unwrap().path();
            assert_eq!(path.extension(), Some(OsStr::new("amactrace")));
            let listed = format!(": {}\n", path.display());
            assert!(
                stderr.contains(&listed),
                "{} not listed: {stderr}",
                path.display()
            );
            files.push(path);
        }
    }
    assert!(files.len() >= ids.len(), "{files:?}");
    let replay = repro(
        &["replay"],
        &files.iter().map(PathBuf::as_path).collect::<Vec<_>>(),
    );
    let replay_err = String::from_utf8_lossy(&replay.stderr);
    assert!(replay.status.success(), "{:?}: {replay_err}", replay.status);
    let verdict = format!("replayed {} trace(s) (all validated ok)", files.len());
    assert!(replay_err.contains(&verdict), "{replay_err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn uncreatable_dump_traces_directory_exits_1_before_running() {
    let dir = scratch("dump-blocked");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("not-a-dir");
    std::fs::write(&file, "").unwrap();
    let out = repro(&["fig1_gg", "--smoke", "--dump-traces"], &[&file]);
    assert_eq!(out.status.code(), Some(1), "{:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot create"), "{stderr}");
    assert!(!stderr.contains("[1/"), "no experiment may start: {stderr}");
    assert!(out.stdout.is_empty(), "no table may print");
    std::fs::remove_dir_all(&dir).ok();
}
