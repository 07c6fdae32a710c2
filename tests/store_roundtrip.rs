//! Property tests for the durable trace store (`amac-store`): recording an
//! execution and replaying the file through a fresh `OnlineValidator` must
//! reproduce the live validator's verdict and stats exactly — over random
//! topologies, random schedulers, and random crash plans — and any damaged
//! or arbitrary file must be rejected, never misparsed, without panicking.

use amac::core::{run_bmmb, Assignment, RunOptions};
use amac::graph::{generators, DualGraph, NodeId};
use amac::mac::policies::{LazyPolicy, RandomPolicy};
use amac::mac::{FaultPlan, MacConfig};
use amac::proto::consensus::{run_consensus, ConsensusParams};
use amac::sim::{SimRng, Time};
use amac::store::format::{push_varint, HEADER_LEN};
use amac::store::{replay_validate, StoreError, TraceReader};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

/// A scratch file in the target-adjacent temp dir, unique per (test, case).
fn scratch(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join("amac-store-roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{case}.amactrace"))
}

/// Reads a whole trace: the header, then every record through the End
/// record.
fn parse(bytes: &[u8]) -> Result<(), StoreError> {
    let mut r = TraceReader::new(bytes)?;
    while r.next_record()?.is_some() {}
    Ok(())
}

/// The bytes of a small recorded BMMB run, recorded once per test binary.
fn sample_trace() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let path = scratch("damage", 0);
        let dual = DualGraph::reliable(generators::line(5).unwrap());
        run_bmmb(
            &dual,
            MacConfig::from_ticks(2, 16),
            &Assignment::all_at(NodeId::new(0), 2),
            LazyPolicy::new().prefer_duplicates(),
            &RunOptions::default().recording(&path, 0),
        );
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    })
}

/// Strategy: a connected dual graph with a seeded unreliable augmentation.
fn arb_dual() -> impl Strategy<Value = (DualGraph, u64)> {
    (3usize..16, 0u64..10_000).prop_map(|(n, seed)| {
        let mut rng = SimRng::seed(seed);
        let g = generators::line(n).unwrap();
        let dual = generators::arbitrary_augment(g, (n / 2).max(1), &mut rng).unwrap();
        (dual, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Record → replay equivalence on random BMMB executions: the replayed
    /// validator (rebuilt from nothing but the file) must report the same
    /// violation set and the same streaming stats as the live one.
    #[test]
    fn bmmb_replay_matches_live_validator(
        dual_seed in arb_dual(),
        k in 1usize..5,
        policy_seed in 0u64..1_000,
    ) {
        let (dual, seed) = dual_seed;
        let path = scratch("bmmb", seed ^ ((k as u64) << 32) ^ (policy_seed << 40));
        let mut rng = SimRng::seed(policy_seed);
        let assignment = Assignment::random(dual.len(), k, &mut rng);
        let report = run_bmmb(
            &dual,
            MacConfig::from_ticks(2, 16),
            &assignment,
            RandomPolicy::new(policy_seed),
            &RunOptions::default().recording(&path, policy_seed),
        );
        let live = report.validation.clone().expect("validation on");

        let replayed = replay_validate(TraceReader::open(&path).unwrap()).unwrap();
        prop_assert_eq!(replayed.header.seed, policy_seed);
        prop_assert_eq!(replayed.header.nodes as usize, dual.len());
        prop_assert_eq!(replayed.validation.violations(), live.violations());
        prop_assert_eq!(Some(replayed.stats), report.validator_stats);
        std::fs::remove_file(&path).ok();
    }

    /// The same equivalence under fault injection: consensus runs with a
    /// random crash plan, whose faults interleave with events in the
    /// stored stream.
    #[test]
    fn crashed_consensus_replay_matches_live_validator(
        n in 3usize..10,
        crash_fraction in 0.0f64..0.5,
        seed in 0u64..10_000,
    ) {
        let path = scratch("cons", seed ^ ((n as u64) << 32));
        let config = MacConfig::from_ticks(2, 12).enhanced();
        let crashes = (crash_fraction * n as f64).floor() as usize;
        let params = ConsensusParams::for_crashes(crashes, &config);
        let mut rng = SimRng::seed(seed);
        let initial: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
        let window = Time::ZERO + params.phase_len.times(params.phases);
        let faults = FaultPlan::random_crashes(n, crashes, window, &mut rng);
        let dual = DualGraph::reliable(generators::complete(n).unwrap());
        let report = run_consensus(
            &dual,
            config,
            &initial,
            &params,
            faults,
            LazyPolicy::new().prefer_duplicates(),
            &RunOptions::default().recording(&path, seed),
        );
        let live = report.validation.clone().expect("validation on");

        let replayed = replay_validate(TraceReader::open(&path).unwrap()).unwrap();
        // Crashes scheduled after the run goes idle are never applied, so
        // the recorded fault count is bounded by the plan, not equal to it.
        prop_assert!(replayed.faults as usize <= crashes);
        prop_assert_eq!(replayed.validation.violations(), live.violations());
        prop_assert_eq!(Some(replayed.stats), report.validator_stats);
        std::fs::remove_file(&path).ok();
    }

    /// The determinism contract (docs/TRACE_FORMAT.md): the same seeded
    /// workload records byte-identical files on every run.
    #[test]
    fn same_seed_records_byte_identical_files(
        dual_seed in arb_dual(),
        policy_seed in 0u64..1_000,
    ) {
        let (dual, seed) = dual_seed;
        let assignment = Assignment::all_at(NodeId::new(0), 2);
        let record = |tag: &str| {
            let path = scratch(tag, seed ^ policy_seed << 20);
            run_bmmb(
                &dual,
                MacConfig::from_ticks(2, 16),
                &assignment,
                RandomPolicy::new(policy_seed),
                &RunOptions::default().recording(&path, policy_seed),
            );
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            bytes
        };
        prop_assert_eq!(record("det-a"), record("det-b"));
    }
}

/// Damaged files are rejected with a `StoreError`, never misparsed into a
/// plausible-looking execution: every truncation of a real trace fails,
/// and so does every single-byte corruption of its record stream.
#[test]
fn truncated_and_corrupted_files_are_rejected() {
    let bytes = sample_trace().to_vec();
    assert!(parse(&bytes).is_ok(), "the pristine file must parse");
    for len in 0..bytes.len() {
        assert!(
            parse(&bytes[..len]).is_err(),
            "a {len}-byte truncation must be rejected"
        );
    }
    // Header bytes carry run metadata (seed, digests of *other* sections)
    // and are cross-checked rather than self-checksummed; the integrity
    // guarantee covers the topology section and the record stream.
    for at in HEADER_LEN..bytes.len() {
        let mut bad = bytes.clone();
        bad[at] ^= 0x01;
        assert!(
            parse(&bad).is_err(),
            "flipping a bit at offset {at} must be rejected"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Hostile input: arbitrary bytes, half of them behind a real trace's
    /// header (cut anywhere from the header's end to the file's end, so the
    /// garbage lands in the topology section and in the record stream
    /// too), make every reader call return `Ok` or a `StoreError`, never
    /// panic.
    #[test]
    fn arbitrary_bytes_never_panic_the_reader(
        behind_header in 0u8..2,
        cut in 0usize..1 << 16,
        tail in proptest::collection::vec(0u8..=255, 0..160),
    ) {
        let real = sample_trace();
        let mut bytes = Vec::new();
        if behind_header == 1 {
            bytes.extend_from_slice(&real[..HEADER_LEN + cut % (real.len() - HEADER_LEN + 1)]);
        }
        bytes.extend(tail);
        let outcome = std::panic::catch_unwind(|| parse(&bytes));
        prop_assert!(outcome.is_ok(), "the reader panicked on {:?}", bytes);
    }
}

/// Regression inputs: real traces whose header claims a node count beyond
/// the 32-bit node ids, or one large enough to overflow the cap on the
/// topology section's length, are corrupt. Both once panicked the reader;
/// the second also asks for a 2^40-byte section, which must not be
/// allocated up front.
#[test]
fn hostile_node_counts_are_rejected() {
    let real = sample_trace();
    let with_nodes = |nodes: u64, rest: &[u8]| {
        let mut bytes = real[..HEADER_LEN].to_vec();
        bytes[36..44].copy_from_slice(&nodes.to_le_bytes());
        [&bytes[..], rest].concat()
    };
    let err = parse(&with_nodes(u64::MAX, &real[HEADER_LEN..])).unwrap_err();
    assert!(err.to_string().contains("node count"), "{err}");
    let mut claim = Vec::new();
    push_varint(&mut claim, 1 << 40);
    let err = parse(&with_nodes(1 << 32, &claim)).unwrap_err();
    assert!(err.to_string().contains("truncated"), "{err}");
}

/// The operator-facing contract behind `repro <exp> --record` followed by
/// `repro replay`: the recorded run's summary block and the replayed one
/// render byte-identically.
#[test]
fn recorded_and_replayed_summaries_render_identically() {
    let dir = std::env::temp_dir().join("amac-store-roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let opts = amac::bench::CanonicalOpts::recording(&dir, true, 0, 0);
    let recorded = amac::bench::record::consensus_crash(&opts)
        .trace
        .expect("recording was requested");
    let replayed = replay_validate(TraceReader::open(&recorded.path).unwrap()).unwrap();
    assert_eq!(recorded.summary.to_string(), replayed.to_string());
    std::fs::remove_file(&recorded.path).ok();
}
