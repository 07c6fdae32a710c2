//! Bounded exhaustive DFS over a scenario's schedule space.
//!
//! The explorer is *stateless* model checking in the Godefroid/VeriSoft
//! tradition: the system under test cannot be snapshotted, so each
//! schedule is explored by re-executing the scenario from scratch with a
//! replayed choice prefix. Starting from the all-defaults schedule, the
//! explorer repeatedly takes the last incrementable decision of the
//! previous run, bumps it by one, and truncates — a depth-first,
//! defaults-first walk of the choice tree that visits every leaf exactly
//! once.
//!
//! Reduction happens at three levels (see `docs/CHECKING.md` for the
//! soundness argument):
//!
//! 1. **Structural** — a decision with one alternative never branches,
//!    and forced `chance` extremes consume no schedule position at all.
//! 2. **Canonical ordering** — same-tick deliveries run in deterministic
//!    FIFO order, so each Mazurkiewicz trace class of commuting
//!    deliveries is explored through exactly one representative; the
//!    permutations are never enumerated.
//! 3. **Fingerprint deduplication** — schedules whose executions emit an
//!    identical event stream (equal fingerprints from the run's
//!    `OnlineValidator`, which folds every event it checks) are counted as
//!    duplicates. Every schedule is still executed and judged; the walk
//!    stops at the first violation.
//!
//! A depth bound turns the walk into *bounded* exhaustion: decisions past
//! the bound are pinned to their defaults (alternative 0), which keeps
//! the visited set a prefix-closed under-approximation rather than a
//! biased sample.

use crate::scenario::Scenario;
use crate::schedule::ReplaySource;
use crate::shrink::{shrink, ShrinkOutcome};
use amac_sim::FastHashSet;
use std::path::{Path, PathBuf};

/// Exploration bounds.
#[derive(Clone, Debug)]
pub struct Bounds {
    /// Free decision positions per schedule; decisions beyond take their
    /// default. `None` = unbounded (`--depth full`).
    pub max_depth: Option<usize>,
    /// Hard cap on executed schedules; hitting it makes the report
    /// non-exhaustive (and says so — no silent truncation).
    pub max_schedules: u64,
    /// Re-executions granted to the shrinker per counterexample.
    pub max_shrink_runs: u64,
}

impl Default for Bounds {
    fn default() -> Bounds {
        Bounds {
            max_depth: None,
            max_schedules: 2_000_000,
            max_shrink_runs: 2_000,
        }
    }
}

/// Aggregate exploration statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Executions performed (= schedules explored).
    pub schedules: u64,
    /// Distinct execution fingerprints among them.
    pub distinct: u64,
    /// Schedules whose execution duplicated an earlier fingerprint.
    pub duplicates: u64,
    /// Total MAC events across all executions.
    pub events: u64,
    /// Longest schedule (decision count) seen.
    pub max_schedule_len: usize,
    /// Decisions pinned to their default by the depth bound, summed over
    /// all schedules (0 in a `--depth full` run).
    pub depth_pinned: u64,
    /// Executions that violated a property.
    pub violations: u64,
}

/// A minimized property violation.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The violated property identifier (see [`crate::scenario`]).
    pub property: &'static str,
    /// Human-readable description from the minimized execution.
    pub detail: String,
    /// The minimized schedule (trailing defaults stripped).
    pub schedule: Vec<u64>,
    /// Decision count of the first violating schedule, pre-shrinking.
    pub original_len: usize,
    /// Re-executions the shrinker spent.
    pub shrink_runs: u64,
    /// Where the minimized `.amactrace` fixture was written, when a
    /// fixture directory was provided.
    pub fixture: Option<PathBuf>,
}

/// Outcome of one exploration.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Scenario name.
    pub scenario: String,
    /// Statistics over every executed schedule.
    pub stats: CheckStats,
    /// `true` when the schedule space was fully enumerated within the
    /// bounds (no `max_schedules` cut-off).
    pub exhausted: bool,
    /// The first violation found, minimized — `None` for a clean space.
    pub counterexample: Option<Counterexample>,
}

impl CheckReport {
    /// `true` when no schedule violated any property.
    pub fn is_clean(&self) -> bool {
        self.counterexample.is_none() && self.stats.violations == 0
    }
}

/// Explores `scenario`'s schedule space depth-first within `bounds`.
///
/// Stops at the first violation, shrinks it with the delta-debugging
/// minimizer, and — when `fixture` names a file path — re-runs the
/// minimized schedule with a [`StoreObserver`](amac_store::StoreObserver)
/// attached to persist it as an `.amactrace` counterexample.
pub fn explore(scenario: &dyn Scenario, bounds: &Bounds, fixture: Option<&Path>) -> CheckReport {
    let mut stats = CheckStats::default();
    let mut seen: FastHashSet<u64> = FastHashSet::default();
    let mut prefix: Vec<u64> = Vec::new();
    let mut exhausted = false;
    let mut counterexample = None;

    loop {
        let mut source = ReplaySource::new(prefix.clone());
        let verdict = scenario.run(&mut source, None);
        let log = source.into_log();

        stats.schedules += 1;
        stats.events += verdict.events;
        stats.max_schedule_len = stats.max_schedule_len.max(log.len());
        if seen.insert(verdict.fingerprint) {
            stats.distinct += 1;
        } else {
            stats.duplicates += 1;
        }
        let free = bounds.max_depth.unwrap_or(usize::MAX).min(log.len());
        stats.depth_pinned += (log.len() - free) as u64;

        if let Some(property) = verdict.property {
            stats.violations += 1;
            let violating: Vec<u64> = log.iter().map(|d| d.chosen).collect();
            let original_len = violating.len();
            let ShrinkOutcome { schedule, runs } =
                shrink(scenario, violating, property, bounds.max_shrink_runs);
            // Re-run the minimized schedule, recording it if asked; its
            // verdict supplies the detail text the fixture reproduces.
            let mut replay = ReplaySource::new(schedule.clone());
            let minimized = scenario.run(&mut replay, fixture);
            debug_assert_eq!(minimized.property, Some(property));
            counterexample = Some(Counterexample {
                property,
                detail: minimized
                    .detail
                    .or(verdict.detail)
                    .unwrap_or_else(|| property.to_string()),
                schedule,
                original_len,
                shrink_runs: runs,
                fixture: fixture.map(Path::to_path_buf),
            });
            break;
        }

        // Defaults-first DFS step: bump the last incrementable decision
        // within the depth bound, drop everything after it.
        let Some(at) = (0..free).rev().find(|&i| log[i].chosen + 1 < log[i].width) else {
            exhausted = true;
            break;
        };
        prefix.clear();
        prefix.extend(log[..at].iter().map(|d| d.chosen));
        prefix.push(log[at].chosen + 1);

        if stats.schedules >= bounds.max_schedules {
            break;
        }
    }

    CheckReport {
        scenario: scenario.name().to_string(),
        stats,
        exhausted,
        counterexample,
    }
}
