//! CLI-facing wrapper around the [`amac_check`] explorer: maps `repro
//! check` arguments onto scenarios, renders reports, and defines the CI
//! smoke suite.
//!
//! The sizing built into [`smoke_suite`] comes from measured schedule
//! spaces (see `docs/CHECKING.md`): at check scale (`F_prog` = 1,
//! `F_ack` = 2) the crash-free 3-node consensus space is 2 197
//! schedules and the 2-node election space 2 020, both fully
//! enumerable in well under a second; the 3-node election space
//! exceeds 6 × 10⁶ schedules, so the smoke covers it bounded-exhaustively
//! (every schedule over the first [`SMOKE_ELECTION_DEPTH`] decisions,
//! later decisions pinned to their defaults).

use amac_check::{
    explore, Bounds, CheckReport, CheckStats, ConsensusScenario, ElectionScenario, FloodScenario,
    Scenario, PROP_CONSENSUS,
};
use std::fmt::Write as _;
use std::path::Path;

/// Scenario ids `repro check` accepts, in display order.
pub const SCENARIOS: &[&str] = &["consensus", "election", "flood"];

/// Free decision positions the smoke grants the 3-node election space.
pub const SMOKE_ELECTION_DEPTH: usize = 10;

/// Parsed `repro check` parameterisation.
#[derive(Clone, Debug)]
pub struct CheckOptions {
    /// Node count (`--nodes`, default 3).
    pub nodes: usize,
    /// Crash slots for the certified consensus scenario (`--crashes`,
    /// default 0 — the fully-exhaustible space).
    pub crashes: usize,
    /// Message count for the flood scenario (`--messages`, default 1).
    pub messages: usize,
    /// Free decision depth; `None` is `--depth full`.
    pub depth: Option<usize>,
    /// Schedule cap (`--max-schedules`).
    pub max_schedules: u64,
    /// Substitute the deliberately under-provisioned consensus
    /// (`--broken`): the run is then *expected* to find a violation.
    pub broken: bool,
}

impl Default for CheckOptions {
    fn default() -> CheckOptions {
        CheckOptions {
            nodes: 3,
            crashes: 0,
            messages: 1,
            depth: None,
            max_schedules: Bounds::default().max_schedules,
            broken: false,
        }
    }
}

impl CheckOptions {
    /// The exploration bounds these options select.
    pub fn bounds(&self) -> Bounds {
        Bounds {
            max_depth: self.depth,
            max_schedules: self.max_schedules,
            ..Bounds::default()
        }
    }
}

/// Builds the scenario named `id` under `opts`; `None` for an unknown id
/// or an unsupported combination (`--broken` applies to consensus only).
pub fn scenario_for(id: &str, opts: &CheckOptions) -> Option<Box<dyn Scenario>> {
    match (id, opts.broken) {
        ("consensus", true) => Some(Box::new(ConsensusScenario::broken(opts.nodes))),
        ("consensus", false) => Some(Box::new(ConsensusScenario::certified(
            opts.nodes,
            opts.crashes,
        ))),
        ("election", false) => Some(Box::new(ElectionScenario::certified(opts.nodes))),
        ("flood", false) => Some(Box::new(FloodScenario::certified(
            opts.nodes,
            opts.messages,
        ))),
        _ => None,
    }
}

/// Explores the scenario named `id` under `opts`, optionally recording a
/// minimized counterexample fixture at `fixture`.
///
/// Returns `None` exactly when [`scenario_for`] does.
pub fn run(id: &str, opts: &CheckOptions, fixture: Option<&Path>) -> Option<CheckReport> {
    let scenario = scenario_for(id, opts)?;
    Some(explore(scenario.as_ref(), &opts.bounds(), fixture))
}

/// Renders one report as the `repro check` text block.
pub fn render(report: &CheckReport, opts: &CheckOptions) -> String {
    let mut out = String::new();
    let depth = opts.depth.map_or("full".to_string(), |d| d.to_string());
    let _ = writeln!(
        out,
        "check {}: nodes={} depth={} max-schedules={}{}",
        report.scenario,
        opts.nodes,
        depth,
        opts.max_schedules,
        if opts.broken { " (broken variant)" } else { "" }
    );
    let _ = writeln!(out, "  {}", stats_line(&report.stats));
    let _ = writeln!(
        out,
        "  exhausted: {}",
        if report.exhausted {
            "yes"
        } else if report.counterexample.is_some() {
            "no (stopped at first violation)"
        } else {
            "no (schedule cap hit)"
        }
    );
    match &report.counterexample {
        None => {
            let _ = writeln!(out, "  verdict: clean");
        }
        Some(cx) => {
            let _ = writeln!(out, "  verdict: VIOLATION ({})", cx.property);
            let _ = writeln!(out, "    detail:   {}", cx.detail);
            let _ = writeln!(
                out,
                "    schedule: {:?} (shrunk from {} draws in {} runs)",
                cx.schedule, cx.original_len, cx.shrink_runs
            );
            if let Some(path) = &cx.fixture {
                let _ = writeln!(out, "    fixture:  {}", path.display());
            }
        }
    }
    out
}

/// One smoke-suite entry: a report plus whether it met its expectation.
#[derive(Debug)]
pub struct SmokeCase {
    /// Human-readable case description.
    pub label: String,
    /// Options the case ran under (for rendering).
    pub opts: CheckOptions,
    /// The exploration outcome.
    pub report: CheckReport,
    /// `true` when the outcome matched the case's expectation.
    pub ok: bool,
}

/// The statistics line of a report, as [`render`] prints it.
fn stats_line(s: &CheckStats) -> String {
    format!(
        "schedules={} distinct={} duplicates={} events={} max-len={} depth-pinned={}",
        s.schedules, s.distinct, s.duplicates, s.events, s.max_schedule_len, s.depth_pinned
    )
}

/// Runs one smoke case. It passes when `judge` accepts the report and
/// its statistics line is exactly `stats`: the counts pin what the
/// checker explores and tells apart, which a verdict alone does not.
fn smoke_case(
    label: &str,
    id: &str,
    opts: CheckOptions,
    stats: &str,
    judge: impl FnOnce(&CheckReport) -> bool,
) -> SmokeCase {
    let report = run(id, &opts, None).expect("smoke suite uses known ids");
    let pinned = stats_line(&report.stats) == stats;
    let label = if pinned {
        label.to_string()
    } else {
        format!("{label} (statistics differ, expected {stats})")
    };
    let ok = pinned && judge(&report);
    SmokeCase {
        label,
        opts,
        report,
        ok,
    }
}

/// The blocking CI suite behind `repro check --smoke`: exhaustive
/// certification of every shipped protocol at n = 3 scale (election
/// additionally fully at n = 2 and bounded-exhaustively at n = 3), plus a
/// self-test that the counterexample pipeline still finds and shrinks the
/// known agreement violation of the broken consensus. Each case also pins
/// its exact statistics line.
pub fn smoke_suite() -> Vec<SmokeCase> {
    let certified = |report: &CheckReport| report.exhausted && report.is_clean();
    vec![
        smoke_case(
            "consensus n=3, crash-free, full depth",
            "consensus",
            CheckOptions::default(),
            "schedules=2197 distinct=2197 duplicates=0 events=26364 max-len=9 depth-pinned=0",
            certified,
        ),
        smoke_case(
            "election n=2, full depth",
            "election",
            CheckOptions {
                nodes: 2,
                ..CheckOptions::default()
            },
            "schedules=2020 distinct=2020 duplicates=0 events=24120 max-len=10 depth-pinned=0",
            certified,
        ),
        smoke_case(
            &format!("election n=3, depth {SMOKE_ELECTION_DEPTH}"),
            "election",
            CheckOptions {
                depth: Some(SMOKE_ELECTION_DEPTH),
                ..CheckOptions::default()
            },
            "schedules=2704 distinct=2704 duplicates=0 events=65780 max-len=30 depth-pinned=30407",
            certified,
        ),
        smoke_case(
            "flood n=4, 1 message, full depth",
            "flood",
            CheckOptions {
                nodes: 4,
                ..CheckOptions::default()
            },
            "schedules=4225 distinct=4225 duplicates=0 events=59150 max-len=10 depth-pinned=0",
            certified,
        ),
        smoke_case(
            "broken consensus n=3 finds + shrinks the violation",
            "consensus",
            CheckOptions {
                broken: true,
                ..CheckOptions::default()
            },
            "schedules=2367 distinct=126 duplicates=2241 events=17040 max-len=13 depth-pinned=0",
            |report| {
                report
                    .counterexample
                    .as_ref()
                    .is_some_and(|cx| cx.property == PROP_CONSENSUS && cx.schedule.len() <= 6)
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_table_covers_ids_and_rejects_misuse() {
        let opts = CheckOptions::default();
        for id in SCENARIOS {
            assert!(scenario_for(id, &opts).is_some(), "{id}");
        }
        assert!(scenario_for("nope", &opts).is_none());
        let broken = CheckOptions {
            broken: true,
            ..opts
        };
        assert!(scenario_for("consensus", &broken).is_some());
        assert!(scenario_for("election", &broken).is_none());
        assert!(scenario_for("flood", &broken).is_none());
    }

    #[test]
    fn render_shows_verdict_lines() {
        let opts = CheckOptions {
            max_schedules: 50,
            ..CheckOptions::default()
        };
        let report = run("flood", &opts, None).unwrap();
        let text = render(&report, &opts);
        assert!(text.contains("check flood: nodes=3 depth=full max-schedules=50"));
        assert!(text.contains("exhausted: no (schedule cap hit)"));
        assert!(text.contains("verdict: clean"));
    }
}
