//! The `repro` binary's output paths, driven end to end: a requested
//! output lands even when its directory does not exist yet, and a path
//! that cannot be created fails before any experiment runs.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh per-test directory under the system temp dir (not created).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amac-repro-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn repro_chrome_trace(path: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig1_gg", "--smoke", "--chrome-trace"])
        .arg(path)
        .output()
        .expect("repro starts")
}

#[test]
fn chrome_trace_creates_its_missing_parent_directory() {
    let dir = scratch("chrome");
    let path = dir.join("nested").join("fig1_gg.json");
    let out = repro_chrome_trace(&path);
    assert!(
        out.status.success(),
        "{:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&path).expect("chrome trace written");
    assert!(doc.starts_with("{\"traceEvents\":["), "{doc}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn uncreatable_chrome_trace_directory_exits_1_before_running() {
    let dir = scratch("blocked");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("not-a-dir");
    std::fs::write(&file, "").unwrap();
    let out = repro_chrome_trace(&file.join("fig1_gg.json"));
    assert_eq!(out.status.code(), Some(1), "{:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot create"), "{stderr}");
    assert!(out.stdout.is_empty(), "no experiment may run");
    std::fs::remove_dir_all(&dir).ok();
}
