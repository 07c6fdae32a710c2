//! End-to-end checker tests: clean certification of shipped protocols,
//! counterexample discovery + shrinking on the broken scenario, fixture
//! round-trip through the store, and bound behavior.

use amac_check::{
    check_fixture, explore, Bounds, ConsensusScenario, ElectionScenario, FloodScenario,
    ReplaySource, Scenario, PROP_CONSENSUS,
};

fn capped(max_schedules: u64) -> Bounds {
    Bounds {
        max_schedules,
        ..Bounds::default()
    }
}

#[test]
fn certified_consensus_exhausts_clean() {
    let report = explore(
        &ConsensusScenario::certified(3, 0),
        &Bounds::default(),
        None,
    );
    assert!(report.exhausted, "space must be fully enumerated");
    assert!(report.is_clean(), "shipped consensus must not violate");
    // The crash-free 3-node space is exactly 13^3 schedules: per
    // broadcast, ack delay ∈ {1,2} then two receiver delays ∈ [1,ack],
    // giving 1·1 + 2·2·... = 13 delivery plans for each of the three
    // initial broadcasts. A change here means the model's freedom moved.
    assert_eq!(report.stats.schedules, 2_197);
    assert_eq!(report.stats.depth_pinned, 0, "full depth pins nothing");
}

#[test]
fn certified_election_exhausts_clean() {
    let scenario = ElectionScenario {
        nodes: 2,
        f_ack: 2,
        window: 2,
    };
    let report = explore(&scenario, &Bounds::default(), None);
    assert!(report.exhausted && report.is_clean());
    assert_eq!(report.stats.schedules, 2_020);
}

#[test]
fn certified_flood_exhausts_clean() {
    let report = explore(&FloodScenario::certified(4, 1), &Bounds::default(), None);
    assert!(report.exhausted && report.is_clean());
    assert_eq!(report.stats.schedules, 4_225);
}

#[test]
fn broken_consensus_yields_minimized_counterexample() {
    let report = explore(&ConsensusScenario::broken(3), &Bounds::default(), None);
    assert!(!report.is_clean());
    let cx = report
        .counterexample
        .expect("one phase cannot absorb a crash");
    assert_eq!(cx.property, PROP_CONSENSUS);
    assert!(cx.detail.contains("agreement"), "detail: {}", cx.detail);
    assert!(
        cx.schedule.len() <= 6 && cx.schedule.len() < cx.original_len,
        "shrinker must reduce {} draws, got {:?}",
        cx.original_len,
        cx.schedule
    );

    // Determinism: replaying the minimized schedule reproduces the
    // violation and the exact event stream, twice.
    let scenario = ConsensusScenario::broken(3);
    let rerun = |schedule: &[u64]| {
        let mut source = ReplaySource::new(schedule.to_vec());
        scenario.run(&mut source, None)
    };
    let first = rerun(&cx.schedule);
    let second = rerun(&cx.schedule);
    assert_eq!(first.property, Some(PROP_CONSENSUS));
    assert_eq!(first.fingerprint, second.fingerprint);
}

#[test]
fn broken_consensus_fixture_replays_to_same_violation() {
    let dir = std::env::temp_dir().join("amac-check-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken-consensus.amactrace");
    let _ = std::fs::remove_file(&path);

    let report = explore(
        &ConsensusScenario::broken(3),
        &Bounds::default(),
        Some(&path),
    );
    let cx = report.counterexample.expect("violation expected");
    assert_eq!(cx.fixture.as_deref(), Some(path.as_path()));

    // The stored stream alone must reproduce the verdict: zero MAC-model
    // violations (the runtime honored its guarantees throughout) and the
    // same reconstructed disagreement the live checker reported.
    let check = check_fixture(&path).expect("fixture must decode");
    assert_eq!(check.mac_violations, 0);
    let verdict = check
        .estimate_verdict
        .expect("disagreement must survive replay");
    assert_eq!(verdict, cx.detail);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn depth_bound_pins_tail_decisions() {
    let report = explore(
        &ConsensusScenario::certified(3, 0),
        &Bounds {
            max_depth: Some(2),
            ..Bounds::default()
        },
        None,
    );
    assert!(report.exhausted, "bounded space still enumerates fully");
    assert!(report.is_clean());
    assert!(
        report.stats.depth_pinned > 0,
        "decisions past depth 2 pinned"
    );
    assert!(
        report.stats.schedules < 2_197,
        "bounding must shrink the space, got {}",
        report.stats.schedules
    );
}

#[test]
fn schedule_cap_reports_non_exhaustion() {
    let report = explore(&ElectionScenario::certified(3), &capped(500), None);
    assert!(!report.exhausted, "cap hit must not claim exhaustion");
    assert_eq!(report.stats.schedules, 500);
    assert!(report.is_clean());
}

#[test]
fn fingerprint_dedup_counts_duplicates() {
    // Crash slots introduce schedules that differ only in pre-crash
    // draws for a node that dies: distinct schedules, same stream. This
    // is the one smoke case whose executions collapse, so its exact
    // counts catch a fingerprint that splits or merges executions.
    let report = explore(&ConsensusScenario::broken(3), &Bounds::default(), None);
    let stats = report.stats;
    assert_eq!(
        (
            stats.schedules,
            stats.distinct,
            stats.duplicates,
            stats.events
        ),
        (2_367, 126, 2_241, 17_040)
    );
}
