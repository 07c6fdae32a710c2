//! End-to-end MMB execution harness: wires an algorithm, a topology, an
//! assignment, and a scheduler policy into one run and reports completion
//! metrics.

use crate::bmmb::Bmmb;
use crate::mmb::{Assignment, CompletionTracker, Delivered};
use amac_graph::{DualGraph, NodeId};
use amac_mac::{
    Automaton, FaultPlan, MacConfig, ObserverHandle, OnlineStats, OnlineValidator, Policy,
    RunOutcome, Runtime, ValidationReport,
};
use amac_obs::{MetricsObserver, MetricsReport, SpanObserver};
use amac_sim::stats::Counters;
use amac_sim::Time;
use amac_store::StoreObserver;
use std::fmt;
use std::path::{Path, PathBuf};

/// Options controlling a harness run.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Check the execution against the MAC model by attaching a streaming
    /// [`OnlineValidator`] — O(in-flight) memory, no trace retention, so
    /// it is cheap enough to leave on for large sweeps. Its
    /// [`OnlineStats`] also count and fingerprint the event stream.
    pub validate: bool,
    /// Stop as soon as the MMB problem is solved (all required deliveries
    /// happened) instead of running the algorithm to quiescence.
    pub stop_on_completion: bool,
    /// Record the execution to this trace file by attaching a streaming
    /// [`amac_store::StoreObserver`] — O(1) memory, every MAC event and
    /// fault goes to disk in emission order, replayable with
    /// `repro replay` (see `docs/TRACE_FORMAT.md`). The seed is stamped
    /// into the file's header (purely metadata: it identifies which
    /// seeded execution the file holds).
    pub record: Option<(PathBuf, u64)>,
    /// Attach a streaming [`amac_obs::MetricsObserver`] and return its
    /// [`amac_obs::MetricsReport`] in the report: sim-time latency/slack
    /// histograms, per-node counters, and the in-flight depth series.
    pub metrics: bool,
    /// Attach an [`amac_obs::SpanObserver`] and export the execution's
    /// span timeline as Chrome trace-event JSON (Perfetto-loadable) to
    /// this file when the run finishes.
    pub chrome_trace: Option<PathBuf>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            validate: true,
            stop_on_completion: false,
            record: None,
            metrics: false,
            chrome_trace: None,
        }
    }
}

impl RunOptions {
    /// Default options but without validation (for large sweeps).
    pub fn fast() -> RunOptions {
        RunOptions {
            validate: false,
            ..RunOptions::default()
        }
    }

    /// Stops the simulation at the moment of MMB completion.
    pub fn stopping_on_completion(mut self) -> RunOptions {
        self.stop_on_completion = true;
        self
    }

    /// Records the execution to the trace file at `path`, stamping `seed`
    /// into its header (see [`RunOptions::record`]).
    pub fn recording(mut self, path: impl AsRef<Path>, seed: u64) -> RunOptions {
        self.record = Some((path.as_ref().to_path_buf(), seed));
        self
    }

    /// Collects deterministic sim-time metrics (see
    /// [`RunOptions::metrics`]).
    pub fn with_metrics(mut self) -> RunOptions {
        self.metrics = true;
        self
    }

    /// Exports the span timeline as Chrome trace-event JSON to `path`
    /// when the run finishes (see [`RunOptions::chrome_trace`]).
    pub fn with_chrome_trace(mut self, path: impl AsRef<Path>) -> RunOptions {
        self.chrome_trace = Some(path.as_ref().to_path_buf());
        self
    }
}

/// The observers a [`RunOptions`] selects, attached to one runtime: the
/// one place that turns options into observers and seals them again, so
/// every harness (MMB and FMMB here, the `amac-proto` services, the
/// subroutine runner of `amac-bench`) instruments its run the same way.
///
/// A harness builds its [`Runtime`], calls [`Instruments::attach`], steps
/// the execution, and hands the final [`RunOutcome`] to
/// [`Instruments::finish`].
#[must_use = "call `finish` to seal the observers (an unsealed recording is unreadable)"]
pub struct Instruments {
    validator: Option<ObserverHandle<OnlineValidator>>,
    recorder: Option<ObserverHandle<StoreObserver>>,
    metrics: Option<ObserverHandle<MetricsObserver>>,
    spans: Option<(ObserverHandle<SpanObserver>, PathBuf)>,
}

/// What the instruments of one run produced; each field is `Some` exactly
/// when [`RunOptions`] asked for it.
#[derive(Clone, Debug)]
pub struct InstrumentReport {
    /// The streaming validator's verdict ([`RunOptions::validate`]).
    pub validation: Option<ValidationReport>,
    /// Peak-memory statistics, event count and stream fingerprint of the
    /// streaming validator ([`RunOptions::validate`]).
    pub validator_stats: Option<OnlineStats>,
    /// Deterministic sim-time metrics ([`RunOptions::metrics`]).
    pub metrics: Option<MetricsReport>,
}

impl Instruments {
    /// Attaches the observers `options` selects to a freshly built
    /// runtime, in this order: [`OnlineValidator`],
    /// [`StoreObserver`] (whose header also digests `faults`),
    /// [`MetricsObserver`], [`SpanObserver`].
    ///
    /// # Panics
    ///
    /// Panics when the trace file of [`RunOptions::record`] cannot be
    /// created — recording was explicitly requested, so a silently
    /// skipped recording would be worse than stopping.
    pub fn attach<A: Automaton, P: Policy>(
        options: &RunOptions,
        rt: &mut Runtime<A, P>,
        faults: Option<&FaultPlan>,
    ) -> Instruments {
        let config = *rt.config();
        Instruments {
            validator: options.validate.then(|| {
                let validator = OnlineValidator::new(rt.dual().clone(), config);
                rt.attach(validator)
            }),
            recorder: options.record.as_ref().map(|(path, seed)| {
                let store = StoreObserver::create(path, rt.dual(), config, *seed, faults)
                    .unwrap_or_else(|e| panic!("cannot record trace to {}: {e}", path.display()));
                rt.attach(store)
            }),
            metrics: options
                .metrics
                .then(|| rt.attach(MetricsObserver::new(config))),
            spans: options
                .chrome_trace
                .clone()
                .map(|path| (rt.attach(SpanObserver::new()), path)),
        }
    }

    /// Detaches every observer in attach order and seals it: the
    /// validator judges the run (quiescent iff `outcome` is
    /// [`RunOutcome::Idle`]), the recording gets its End record, and the
    /// span timeline is written to [`RunOptions::chrome_trace`].
    ///
    /// # Panics
    ///
    /// Panics when the recording cannot be sealed (an unfinished
    /// recording is an unreadable file) or the chrome trace cannot be
    /// written — both were explicitly requested.
    pub fn finish<A: Automaton, P: Policy>(
        self,
        rt: &mut Runtime<A, P>,
        outcome: RunOutcome,
    ) -> InstrumentReport {
        let quiescent = outcome == RunOutcome::Idle;
        let validator = self.validator.map(|handle| rt.detach(handle));
        let validator_stats = validator.as_ref().map(OnlineValidator::stats);
        let validation = validator.map(|validator| validator.into_report(quiescent));
        if let Some(handle) = self.recorder {
            if let Err(e) = rt.detach(handle).finish(quiescent) {
                panic!("cannot finalize trace recording: {e}");
            }
        }
        let metrics = self.metrics.map(|handle| rt.detach(handle).into_report());
        if let Some((handle, path)) = self.spans {
            if let Err(e) = std::fs::write(&path, rt.detach(handle).to_chrome_json()) {
                panic!("cannot write chrome trace to {}: {e}", path.display());
            }
        }
        InstrumentReport {
            validation,
            validator_stats,
            metrics,
        }
    }
}

/// Result of one MMB run.
#[derive(Clone, Debug)]
pub struct MmbReport {
    /// Time of the last *required* delivery (MMB solved), if reached.
    pub completion: Option<Time>,
    /// Simulated time when the run stopped.
    pub end_time: Time,
    /// Why the run stopped.
    pub outcome: RunOutcome,
    /// Required deliveries still missing (0 when solved).
    pub missing: usize,
    /// Total deliver outputs observed.
    pub deliveries: usize,
    /// Message instances broadcast over the MAC layer.
    pub instances: usize,
    /// MAC-level event counters.
    pub counters: Counters,
    /// Validation report from the streaming validator, when requested.
    pub validation: Option<ValidationReport>,
    /// Peak-memory statistics of the streaming validator (evidence that
    /// validation state stayed bounded by the in-flight instances), when
    /// validation ran.
    pub validator_stats: Option<OnlineStats>,
    /// Deterministic sim-time metrics when [`RunOptions::metrics`] was
    /// set.
    pub metrics: Option<MetricsReport>,
}

impl MmbReport {
    /// `true` when the problem was solved and (if validated) the execution
    /// conformed to the model.
    pub fn solved_and_valid(&self) -> bool {
        self.completion.is_some()
            && self
                .validation
                .as_ref()
                .map_or(true, amac_mac::ValidationReport::is_ok)
    }

    /// Completion time in ticks.
    ///
    /// # Panics
    ///
    /// Panics if the run did not complete.
    pub fn completion_ticks(&self) -> u64 {
        self.completion.expect("MMB run did not complete").ticks()
    }
}

impl fmt::Display for MmbReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.completion {
            Some(t) => write!(f, "solved at t={t}")?,
            None => write!(f, "unsolved ({} deliveries missing)", self.missing)?,
        }
        write!(
            f,
            "; stopped at t={} ({:?}), {} instances, {} deliveries",
            self.end_time, self.outcome, self.instances, self.deliveries
        )
    }
}

/// Runs an arbitrary MMB automaton (anything consuming [`crate::MmbMessage`]
/// env events and emitting [`Delivered`] outputs) and tracks completion.
pub fn run_mmb<A, P, F>(
    dual: &DualGraph,
    config: MacConfig,
    assignment: &Assignment,
    make_node: F,
    policy: P,
    options: &RunOptions,
) -> MmbReport
where
    A: Automaton<Env = crate::MmbMessage, Out = Delivered>,
    P: Policy,
    F: FnMut(NodeId) -> A,
{
    let mut make_node = make_node;
    let nodes = (0..dual.len()).map(|i| make_node(NodeId::new(i))).collect();
    let mut rt = Runtime::new(dual.clone(), config, nodes, policy);
    let instruments = Instruments::attach(options, &mut rt, None);
    for (node, msg) in assignment.arrivals() {
        rt.inject(*node, *msg);
    }

    let mut tracker = CompletionTracker::new(dual, assignment);
    let mut deliveries = 0usize;
    let outcome = loop {
        if options.stop_on_completion && tracker.is_complete() {
            break RunOutcome::Stopped;
        }
        let step_outcome = rt.run_until_next(Time::MAX);
        for rec in rt.drain_outputs() {
            deliveries += 1;
            let Delivered(id) = rec.out;
            tracker.record(rec.time, rec.node, id);
        }
        if let Some(o) = step_outcome {
            break o;
        }
    };

    let InstrumentReport {
        validation,
        validator_stats,
        metrics,
    } = instruments.finish(&mut rt, outcome);

    MmbReport {
        completion: tracker.completed_at(),
        end_time: rt.now(),
        outcome,
        missing: tracker.remaining(),
        deliveries,
        instances: rt.instances_started(),
        counters: rt.counters(),
        validation,
        validator_stats,
        metrics,
    }
}

/// Runs the BMMB protocol over `dual` (convenience wrapper around
/// [`run_mmb`]).
///
/// # Examples
///
/// ```
/// use amac_core::{run_bmmb, Assignment, RunOptions};
/// use amac_graph::{generators, DualGraph, NodeId};
/// use amac_mac::{policies::LazyPolicy, MacConfig};
///
/// let dual = DualGraph::reliable(generators::line(10)?);
/// let report = run_bmmb(
///     &dual,
///     MacConfig::from_ticks(2, 30),
///     &Assignment::all_at(NodeId::new(0), 2),
///     LazyPolicy::new().prefer_duplicates(),
///     &RunOptions::default(),
/// );
/// assert!(report.solved_and_valid());
/// # Ok::<(), amac_graph::GraphError>(())
/// ```
pub fn run_bmmb<P: Policy>(
    dual: &DualGraph,
    config: MacConfig,
    assignment: &Assignment,
    policy: P,
    options: &RunOptions,
) -> MmbReport {
    run_mmb(dual, config, assignment, |_| Bmmb::new(), policy, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use amac_graph::generators;
    use amac_mac::policies::{EagerPolicy, LazyPolicy, RandomPolicy};
    use amac_sim::SimRng;

    fn line_dual(n: usize) -> DualGraph {
        DualGraph::reliable(generators::line(n).unwrap())
    }

    #[test]
    fn bmmb_completes_and_validates_on_line() {
        let dual = line_dual(12);
        let cfg = MacConfig::from_ticks(2, 30);
        let a = Assignment::all_at(NodeId::new(0), 3);
        let report = run_bmmb(&dual, cfg, &a, LazyPolicy::new(), &RunOptions::default());
        assert!(report.solved_and_valid(), "{report}");
        assert_eq!(report.missing, 0);
        assert_eq!(report.deliveries, 3 * 12);
    }

    #[test]
    fn completion_time_within_reliable_bound() {
        // G' = G: completion must be within a small constant of
        // D*Fprog + k*Fack even under the duplicate-feeding lazy adversary.
        let dual = line_dual(16);
        let cfg = MacConfig::from_ticks(2, 40);
        let k = 4;
        let a = Assignment::all_at(NodeId::new(0), k);
        let report = run_bmmb(
            &dual,
            cfg,
            &a,
            LazyPolicy::new().prefer_duplicates(),
            &RunOptions::default(),
        );
        let bound = bounds::bmmb_reliable(dual.diameter(), k, &cfg).ticks();
        let measured = report.completion_ticks();
        assert!(
            measured <= 3 * bound,
            "measured {measured} should be O(bound {bound})"
        );
    }

    #[test]
    fn stop_on_completion_halts_early() {
        let dual = line_dual(10);
        let cfg = MacConfig::from_ticks(2, 100);
        let a = Assignment::all_at(NodeId::new(0), 1);
        let stopped = run_bmmb(
            &dual,
            cfg,
            &a,
            LazyPolicy::new(),
            &RunOptions::fast().stopping_on_completion(),
        );
        let full = run_bmmb(&dual, cfg, &a, LazyPolicy::new(), &RunOptions::fast());
        assert!(stopped.completion.is_some());
        assert!(stopped.end_time <= full.end_time);
    }

    #[test]
    fn horizon_truncates_unsolved_runs() {
        let (report, outcome) =
            instrumented_flood(&RunOptions::default(), 40, Time::from_ticks(10));
        assert_eq!(outcome, RunOutcome::TimeLimit);
        // Truncated traces still validate (progress windows open at the
        // horizon are skipped).
        assert!(report.validation.expect("validated").is_ok());
    }

    #[test]
    fn recording_round_trips_through_replay() {
        let dir = std::env::temp_dir().join("amac-core-harness-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bmmb_line.amactrace");
        let dual = line_dual(10);
        let cfg = MacConfig::from_ticks(2, 30);
        let a = Assignment::all_at(NodeId::new(0), 2);
        let report = run_bmmb(
            &dual,
            cfg,
            &a,
            LazyPolicy::new(),
            &RunOptions::default().recording(&path, 5),
        );
        let summary =
            amac_store::replay_validate(amac_store::TraceReader::open(&path).unwrap()).unwrap();
        assert_eq!(summary.header.seed, 5);
        assert_eq!(summary.quiescent, report.outcome == RunOutcome::Idle);
        assert_eq!(Some(summary.validation), report.validation);
        assert_eq!(Some(summary.stats), report.validator_stats);
        // Recording must not disturb the execution.
        let bare = run_bmmb(&dual, cfg, &a, LazyPolicy::new(), &RunOptions::default());
        assert_eq!(bare.completion, report.completion);
        std::fs::remove_file(&path).ok();
    }

    /// Runs BMMB on an `n`-node line up to `horizon` with `options`
    /// instrumented directly.
    fn instrumented_flood(
        options: &RunOptions,
        n: usize,
        horizon: Time,
    ) -> (InstrumentReport, RunOutcome) {
        let dual = line_dual(n);
        let nodes = (0..dual.len()).map(|_| Bmmb::new()).collect();
        let mut rt = Runtime::new(dual, MacConfig::from_ticks(2, 20), nodes, LazyPolicy::new());
        let instruments = Instruments::attach(options, &mut rt, None);
        for (node, msg) in Assignment::all_at(NodeId::new(0), 2).arrivals() {
            rt.inject(*node, *msg);
        }
        let outcome = rt.run_until(horizon);
        (instruments.finish(&mut rt, outcome), outcome)
    }

    #[test]
    fn instruments_attach_and_seal_all_four_observers() {
        let dir = std::env::temp_dir().join("amac-core-instruments-test");
        std::fs::create_dir_all(&dir).unwrap();
        let (record, chrome) = (dir.join("flood.amactrace"), dir.join("flood.json"));
        let options = RunOptions::default()
            .recording(&record, 3)
            .with_metrics()
            .with_chrome_trace(&chrome);
        let (report, outcome) = instrumented_flood(&options, 6, Time::MAX);
        assert_eq!(outcome, RunOutcome::Idle);
        let validation = report.validation.expect("validated");
        assert!(validation.is_ok(), "{validation}");
        let stats = report.validator_stats.expect("validator stats");
        assert!(stats.events > 0);
        assert!(report.metrics.expect("metrics collected").bcasts > 0);
        let live = amac_store::TraceSummary::for_live(&record, validation, stats).unwrap();
        let replayed =
            amac_store::replay_validate(amac_store::TraceReader::open(&record).unwrap()).unwrap();
        assert_eq!(
            live, replayed,
            "the sealed recording replays to the live run"
        );
        assert!(live.quiescent);
        let doc = std::fs::read_to_string(&chrome).unwrap();
        assert!(doc.starts_with("{\"traceEvents\":["), "{doc}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fast_options_attach_nothing() {
        // `fast()` names no recording or chrome-trace path, so there is
        // no file to write either.
        let (report, _) = instrumented_flood(&RunOptions::fast(), 6, Time::MAX);
        assert!(report.validation.is_none());
        assert!(report.validator_stats.is_none());
        assert!(report.metrics.is_none());
    }

    #[test]
    fn random_scheduler_random_assignment_solves() {
        let g = generators::grid(4, 5).unwrap();
        let mut rng = SimRng::seed(3);
        let dual = generators::r_restricted_augment(g, 2, 0.3, &mut rng).unwrap();
        let cfg = MacConfig::from_ticks(2, 20);
        let a = Assignment::random(20, 4, &mut rng);
        let report = run_bmmb(&dual, cfg, &a, RandomPolicy::new(5), &RunOptions::default());
        assert!(report.solved_and_valid(), "{report}");
    }

    #[test]
    fn eager_policy_is_fastest() {
        let dual = line_dual(20);
        let cfg = MacConfig::from_ticks(2, 60);
        let a = Assignment::all_at(NodeId::new(0), 3);
        let eager = run_bmmb(&dual, cfg, &a, EagerPolicy::new(), &RunOptions::fast());
        let lazy = run_bmmb(&dual, cfg, &a, LazyPolicy::new(), &RunOptions::fast());
        assert!(eager.completion_ticks() <= lazy.completion_ticks());
    }
}
