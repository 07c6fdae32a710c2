//! The adaptive-precision, multi-core experiment engine.
//!
//! Every headline claim of the paper is probabilistic (the Theorem 3.1/4.1
//! completion bounds hold *with high probability*), so a single measurement
//! per sweep point says little. [`TrialRunner`] runs independent trials per
//! experiment and folds the per-trial measurements into streaming
//! aggregates ([`amac_sim::stats::Aggregate`]: Welford mean/variance plus a
//! reservoir for median/p95), fanned out over a scoped `std::thread` worker
//! pool.
//!
//! Three engine features stack on that base:
//!
//! * **Within-trial parallelism** ([`TrialRunner::run_sweep`]): the unit of
//!   scheduling is a `(sweep point, trial)` *cell*, not a whole trial, so a
//!   seven-point sweep no longer serializes on its slowest point — even a
//!   single-trial deterministic experiment fans its points over the pool.
//!   Per-trial shared state (a sampled topology) is built once by a `setup`
//!   closure and shared read-only by that trial's cells.
//! * **Adaptive trial counts** ([`TrialRunner::with_target_ci`]): trials run
//!   in deterministic batches (cumulative sizes `floor, 2·floor, 4·floor, …,
//!   cap`), and a sweep point stops recruiting once its Student-t 95% CI
//!   half-width falls below the target fraction of its mean — low-variance
//!   points stop at the floor while noisy points keep sampling up to the
//!   cap.
//! * **Outlier trace capture** ([`TrialRunner::with_trace_capture`]): after
//!   the sweep, the engine deterministically *re-runs* the min-, median-,
//!   and max-valued trial of every point, handing each replayed `(point,
//!   trial)` cell a file to record its execution to
//!   ([`CellCtx::capture_path`]) — the interesting behaviour of a w.h.p.
//!   bound lives in the tail, and the sealed `.amactrace` recording is the
//!   post-mortem record of it, judged and rendered by the same reader as
//!   `repro replay`.
//!
//! ## Determinism contract
//!
//! Results are **bit-identical regardless of the worker count**:
//!
//! * trial `i` draws all of its randomness from `SimRng::seed(base).split(i)`
//!   and cell `(i, p)` from a further split — pure functions of the
//!   experiment seed and the indices, never of scheduling;
//! * workers only *compute* cells; the fold into aggregates happens in
//!   `(point, trial)` order afterwards;
//! * batch boundaries are fixed up front, and the adaptive stop decision for
//!   a point is taken only at a boundary, from that point's folded
//!   aggregate — a function of the data alone.
//!
//! So `--jobs 1` and `--jobs 64` print byte-identical tables — including
//! adaptive per-point trial counts — and a table can be reproduced on any
//! machine from `(seed, trials, max-trials, target-ci)` alone.
//!
//! ```
//! use amac_bench::engine::{CellResult, TrialRunner};
//!
//! // Adaptive: floor 4 trials, cap 32, stop at a 20% relative CI.
//! let runner = TrialRunner::new(4, 2).with_max_trials(32).with_target_ci(0.2);
//! let run = runner.run_sweep(
//!     42,
//!     &[1, 1], // two sweep points, one measured value each
//!     |_trial| (),
//!     |_setup, cell| {
//!         let mut rng = cell.rng.clone();
//!         // Point 0 is noisy, point 1 is deterministic.
//!         let noise = if cell.point == 0 { rng.below(100) as f64 } else { 0.0 };
//!         CellResult::scalar(500.0 + noise)
//!     },
//! );
//! // The zero-variance point stopped at the floor; results are
//! // byte-identical for any worker count.
//! assert_eq!(run.point(1).trials(), 4);
//! assert!(run.point(0).trials() >= 4);
//! ```

use amac_sim::stats::Aggregate;
use amac_sim::SimRng;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Per-trial context handed to the measurement closure.
#[derive(Clone, Debug)]
pub struct TrialCtx {
    /// The trial index in `0..trials`.
    pub index: u64,
    /// This trial's private random stream, `SimRng::seed(base).split(index)`.
    /// Clone it before drawing if the closure needs `&mut` access.
    pub rng: SimRng,
}

impl TrialCtx {
    /// A per-trial `u64` seed derived from an experiment's historical base
    /// seed. Trial 0 returns `base` **unchanged**, so a single-trial run
    /// reproduces the pre-engine tables exactly; later trials mix `base`
    /// with this trial's split stream.
    pub fn seed(&self, base: u64) -> u64 {
        if self.index == 0 {
            base
        } else {
            self.rng.clone().next() ^ base
        }
    }
}

/// Salt separating a cell's private random stream from its trial's stream
/// (and from the node/scheduler streams experiments derive themselves).
const CELL_STREAM_SALT: u64 = 0xCE11_5EED_0000_0000;

/// Per-cell context handed to [`TrialRunner::run_sweep`]'s measurement
/// closure: one *cell* is one `(sweep point, trial)` pair, the engine's
/// unit of parallel scheduling.
#[derive(Clone, Debug)]
pub struct CellCtx {
    /// The owning trial (shared by all points of that trial).
    pub trial: TrialCtx,
    /// The sweep-point index in `0..widths.len()`.
    pub point: usize,
    /// This cell's private random stream,
    /// `trial.rng.split(CELL_SALT ^ point)` — independent per `(trial,
    /// point)` pair so sibling points of one trial can run concurrently.
    pub rng: SimRng,
    capture: Option<PathBuf>,
}

impl CellCtx {
    /// The file to record this cell's execution to, when the engine is
    /// replaying the cell to capture an outlier: one `.amactrace` per
    /// replayed `(point, trial)` cell under the runner's capture
    /// directory, so outlier roles that collapse onto one trial share one
    /// file. `None` on measurement cells.
    pub fn capture_path(&self) -> Option<&Path> {
        self.capture.as_deref()
    }

    /// The owning trial's derived seed (see [`TrialCtx::seed`]).
    pub fn seed(&self, base: u64) -> u64 {
        self.trial.seed(base)
    }
}

/// What one cell measured: a fixed-width vector of values (the point's
/// *lanes*; lane 0 is the primary measurement adaptive stopping and
/// outlier selection key on).
#[derive(Clone, Debug)]
pub struct CellResult {
    values: Vec<f64>,
}

impl CellResult {
    /// A single-lane measurement.
    pub fn scalar(value: f64) -> CellResult {
        CellResult {
            values: vec![value],
        }
    }

    /// A multi-lane measurement (the length must match the point's declared
    /// width).
    pub fn vector(values: Vec<f64>) -> CellResult {
        CellResult { values }
    }
}

impl From<f64> for CellResult {
    fn from(value: f64) -> CellResult {
        CellResult::scalar(value)
    }
}

/// Which order statistic of a sweep point an outlier trace represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutlierRole {
    /// The fastest (smallest lane-0 value) trial.
    Min,
    /// The median trial (lower median for even counts).
    Median,
    /// The slowest (largest lane-0 value) trial — where w.h.p. bounds are
    /// actually stressed.
    Max,
}

impl OutlierRole {
    /// Lower-case label for filenames and table notes.
    pub fn as_str(self) -> &'static str {
        match self {
            OutlierRole::Min => "min",
            OutlierRole::Median => "median",
            OutlierRole::Max => "max",
        }
    }
}

impl fmt::Display for OutlierRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One captured outlier execution of a sweep point: which trial, what it
/// measured, and the recording of its replay.
#[derive(Clone, Debug)]
pub struct OutlierTrace {
    /// Order statistic this trial realizes for its point.
    pub role: OutlierRole,
    /// The trial index that was replayed.
    pub trial: u64,
    /// The trial's lane-0 (primary) measurement.
    pub value: f64,
    /// The `.amactrace` file the replay recorded (shared by the roles that
    /// fall on the same trial).
    pub path: PathBuf,
}

/// Result of one sweep point: per-lane aggregates over however many trials
/// the point ran, the adaptive-stop flag, and any captured outlier traces.
#[derive(Clone, Debug)]
pub struct PointRun {
    aggregates: Vec<Aggregate>,
    converged: bool,
    outliers: Vec<OutlierTrace>,
}

impl PointRun {
    /// The primary (lane-0) aggregate — the measurement adaptive stopping
    /// and outlier selection key on.
    pub fn primary(&self) -> &Aggregate {
        &self.aggregates[0]
    }

    /// One lane's aggregate.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range for the point's declared width.
    pub fn lane(&self, lane: usize) -> &Aggregate {
        &self.aggregates[lane]
    }

    /// All lanes in declaration order.
    pub fn lanes(&self) -> &[Aggregate] {
        &self.aggregates
    }

    /// Number of trials this point actually ran (adaptive points stop
    /// early; fixed-count points run exactly the configured number).
    pub fn trials(&self) -> u64 {
        self.primary().count()
    }

    /// `true` when the point met the relative-CI target before the trial
    /// cap (always `false` in fixed-count mode).
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Captured min/median/max outlier traces (empty unless the runner had
    /// [`TrialRunner::with_trace_capture`] enabled).
    pub fn outliers(&self) -> &[OutlierTrace] {
        &self.outliers
    }
}

/// Result of a whole [`TrialRunner::run_sweep`] call.
#[derive(Clone, Debug)]
pub struct SweepRun {
    points: Vec<PointRun>,
}

impl SweepRun {
    /// All sweep points in declaration order.
    pub fn points(&self) -> &[PointRun] {
        &self.points
    }

    /// One sweep point.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn point(&self, index: usize) -> &PointRun {
        &self.points[index]
    }

    /// The smallest per-point trial count (the floor in adaptive runs).
    pub fn min_trials(&self) -> u64 {
        self.points.iter().map(PointRun::trials).min().unwrap_or(0)
    }

    /// The largest per-point trial count.
    pub fn max_trials(&self) -> u64 {
        self.points.iter().map(PointRun::trials).max().unwrap_or(0)
    }
}

/// Fans independent trials out over a worker pool and aggregates the
/// results deterministically. See the [module docs](self) for the
/// determinism contract and the three engine features (within-trial
/// parallelism, adaptive trial counts, outlier trace capture).
#[derive(Clone, Debug, PartialEq)]
pub struct TrialRunner {
    trials: usize,
    jobs: usize,
    max_trials: usize,
    target_ci: Option<f64>,
    capture: Option<PathBuf>,
    plots: bool,
}

impl TrialRunner {
    /// Creates a fixed-count runner for `trials` trials over `jobs` worker
    /// threads (both clamped to at least 1).
    pub fn new(trials: usize, jobs: usize) -> TrialRunner {
        let trials = trials.max(1);
        TrialRunner {
            trials,
            jobs: jobs.max(1),
            max_trials: trials,
            target_ci: None,
            capture: None,
            plots: false,
        }
    }

    /// One trial, inline — the historical single-measurement behaviour.
    pub fn single() -> TrialRunner {
        TrialRunner::new(1, 1)
    }

    /// Enables adaptive trial counts: a sweep point stops recruiting trials
    /// once its 95% CI half-width is at most `frac` of its mean's
    /// magnitude (checked at fixed batch boundaries, floor
    /// [`trials`](Self::trials), cap [`max_trials`](Self::max_trials) —
    /// raise the cap with [`with_max_trials`](Self::with_max_trials) or
    /// adaptivity has no room above the floor).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < frac < 1`.
    pub fn with_target_ci(mut self, frac: f64) -> TrialRunner {
        assert!(
            frac > 0.0 && frac < 1.0,
            "target CI fraction must be in (0, 1), got {frac}"
        );
        self.target_ci = Some(frac);
        self
    }

    /// Sets the worker thread count (clamped to at least 1).
    pub fn with_jobs(mut self, jobs: usize) -> TrialRunner {
        self.jobs = jobs.max(1);
        self
    }

    /// Sets the adaptive trial cap (clamped to at least the floor).
    pub fn with_max_trials(mut self, max_trials: usize) -> TrialRunner {
        self.max_trials = max_trials.max(self.trials);
        self
    }

    /// Enables outlier trace capture into `dir`: after the sweep, the
    /// min/median/max trial of every point is replayed with its execution
    /// recorded to `dir/point<p>_trial<t>.amactrace` (see
    /// [`CellCtx::capture_path`]). The directory must exist.
    pub fn with_trace_capture(mut self, dir: impl Into<PathBuf>) -> TrialRunner {
        self.capture = Some(dir.into());
        self
    }

    /// Enables (or disables) distribution plots: experiments append an
    /// ASCII histogram/CDF of each sweep point's per-trial samples (from
    /// the aggregate's [`Reservoir`](amac_sim::stats::Reservoir)) to their
    /// tables. Rendering reads the deterministically folded samples, so
    /// plots are byte-identical across `--jobs` like everything else.
    pub fn with_plots(mut self, plots: bool) -> TrialRunner {
        self.plots = plots;
        self
    }

    /// This runner clamped to a single trial, for fully deterministic
    /// workloads where extra trials would re-measure byte-identical
    /// values: the sweep runs once instead of `trials` times. Trace
    /// capture is preserved (all three outlier roles collapse onto
    /// trial 0); within-trial parallelism still fans the points out.
    pub fn deterministic(&self) -> TrialRunner {
        TrialRunner {
            trials: 1,
            jobs: self.jobs,
            max_trials: 1,
            target_ci: None,
            capture: self.capture.clone(),
            plots: self.plots,
        }
    }

    /// Number of trials per run (the floor in adaptive mode).
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Worker thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Adaptive trial cap (equals [`trials`](Self::trials) unless raised).
    pub fn max_trials(&self) -> usize {
        self.max_trials
    }

    /// The adaptive relative-CI target, if enabled.
    pub fn target_ci(&self) -> Option<f64> {
        self.target_ci
    }

    /// `true` when the runner can actually recruit beyond the floor.
    pub fn adaptive(&self) -> bool {
        self.target_ci.is_some() && self.max_trials > self.trials
    }

    /// `true` when outlier trace capture is enabled.
    pub fn captures_traces(&self) -> bool {
        self.capture.is_some()
    }

    /// `true` when distribution plots are enabled.
    pub fn plots(&self) -> bool {
        self.plots
    }

    /// Runs a sweep of `widths.len()` points, each measuring `widths[p]`
    /// values (lanes) per trial, and returns per-point, per-lane
    /// aggregates. This is the engine's main entry point:
    ///
    /// * `setup` builds each trial's shared state (e.g. a sampled
    ///   topology) once; all of that trial's cells read it;
    /// * `measure` computes one `(point, trial)` cell; cells are the unit
    ///   of parallel scheduling, so points of one trial run concurrently;
    /// * adaptive stopping (when configured) retires points whose lane-0
    ///   relative CI meets the target at a batch boundary;
    /// * trace capture (when enabled) deterministically replays each
    ///   point's min/median/max trial afterwards with
    ///   [`CellCtx::capture_path`] set.
    ///
    /// # Panics
    ///
    /// Panics if a cell returns a value vector whose length differs from
    /// its point's declared width, or if a worker thread panics.
    pub fn run_sweep<S, FS, FM>(
        &self,
        base_seed: u64,
        widths: &[usize],
        setup: FS,
        measure: FM,
    ) -> SweepRun
    where
        S: Send + Sync,
        FS: Fn(&TrialCtx) -> S + Sync,
        FM: Fn(&S, &CellCtx) -> CellResult + Sync,
    {
        let points = widths.len();
        let base = SimRng::seed(base_seed);
        let trial_ctx = |t: usize| TrialCtx {
            index: t as u64,
            rng: base.split(t as u64),
        };
        let cell_ctx = |t: usize, p: usize, capture: Option<PathBuf>| {
            let trial = trial_ctx(t);
            let rng = trial.rng.split(CELL_STREAM_SALT ^ p as u64);
            CellCtx {
                trial,
                point: p,
                rng,
                capture,
            }
        };

        // Lane aggregates + retained lane-0 values per point (the values
        // drive outlier selection and nothing else; aggregates fold
        // incrementally in (point, trial) order as batches complete).
        let mut aggregates: Vec<Vec<Aggregate>> = widths
            .iter()
            .map(|&w| vec![Aggregate::new(); w.max(1)])
            .collect();
        let mut lane0: Vec<Vec<f64>> = vec![Vec::new(); points];
        let mut converged = vec![false; points];

        let mut done = 0usize;
        for target in batch_boundaries(self.trials, self.max_trials, self.target_ci.is_some()) {
            let active: Vec<usize> = (0..points).filter(|&p| !converged[p]).collect();
            if active.is_empty() || target <= done {
                break;
            }
            let fresh = target - done;
            // One task per (active point, new trial) cell. A trial's shared
            // setup initializes lazily on its first cell (no setup barrier
            // before measurement starts); `OnceLock` runs the setup closure
            // exactly once and setups are pure, so scheduling cannot leak
            // into results.
            let setups: Vec<std::sync::OnceLock<S>> =
                (0..fresh).map(|_| std::sync::OnceLock::new()).collect();
            let results: Vec<CellResult> = self.parallel_map(active.len() * fresh, |i| {
                let (ti, pi) = (i / active.len(), i % active.len());
                let s = setups[ti].get_or_init(|| setup(&trial_ctx(done + ti)));
                measure(s, &cell_ctx(done + ti, active[pi], None))
            });
            // Fold in (point, trial) order — scheduling never leaks in.
            for (pi, &p) in active.iter().enumerate() {
                for ti in 0..fresh {
                    let cell = &results[ti * active.len() + pi];
                    assert_eq!(
                        cell.values.len(),
                        widths[p].max(1),
                        "point {p} trial {} measured {} values, declared width {}",
                        done + ti,
                        cell.values.len(),
                        widths[p].max(1)
                    );
                    lane0[p].push(cell.values[0]);
                    for (aggregate, &x) in aggregates[p].iter_mut().zip(&cell.values) {
                        aggregate.record(x);
                    }
                }
            }
            done = target;
            if let Some(frac) = self.target_ci {
                for &p in &active {
                    let primary = &aggregates[p][0];
                    if primary.count() >= self.trials as u64 && primary.relative_ci95() <= frac {
                        converged[p] = true;
                    }
                }
            }
        }

        let outliers = match &self.capture {
            Some(dir) => {
                self.capture_outliers(dir, &lane0, &trial_ctx, &cell_ctx, &setup, &measure)
            }
            None => vec![Vec::new(); points],
        };

        SweepRun {
            points: aggregates
                .into_iter()
                .zip(converged)
                .zip(outliers)
                .map(|((aggregates, converged), outliers)| PointRun {
                    aggregates,
                    converged,
                    outliers,
                })
                .collect(),
        }
    }

    /// Deterministic replay pass: pick each point's min/median/max trial
    /// from the recorded lane-0 values and re-run just those cells, each
    /// with its own capture file under `dir`. Each needed trial's setup is
    /// rebuilt once and shared by every point replaying that trial, and the
    /// replays themselves run over the worker pool.
    fn capture_outliers<S, FS, FM>(
        &self,
        dir: &Path,
        lane0: &[Vec<f64>],
        trial_ctx: &(dyn Fn(usize) -> TrialCtx + Sync),
        cell_ctx: &(dyn Fn(usize, usize, Option<PathBuf>) -> CellCtx + Sync),
        setup: &FS,
        measure: &FM,
    ) -> Vec<Vec<OutlierTrace>>
    where
        S: Send + Sync,
        FS: Fn(&TrialCtx) -> S + Sync,
        FM: Fn(&S, &CellCtx) -> CellResult + Sync,
    {
        let picks: Vec<Vec<(OutlierRole, u64, f64)>> =
            lane0.iter().map(|values| select_outliers(values)).collect();
        // Unique trials across all points, each set up exactly once.
        let mut trials: Vec<u64> = picks.iter().flatten().map(|&(_, trial, _)| trial).collect();
        trials.sort_unstable();
        trials.dedup();
        let setups: Vec<S> =
            self.parallel_map(trials.len(), |i| setup(&trial_ctx(trials[i] as usize)));
        let setup_of =
            |trial: u64| &setups[trials.binary_search(&trial).expect("trial was collected")];
        // Unique (point, trial) replay cells, fanned over the pool.
        let cells: Vec<(usize, u64)> = picks
            .iter()
            .enumerate()
            .flat_map(|(p, roles)| {
                let mut per_point: Vec<u64> = roles.iter().map(|&(_, t, _)| t).collect();
                per_point.sort_unstable();
                per_point.dedup();
                per_point.into_iter().map(move |t| (p, t))
            })
            .collect();
        let path_of = |p: usize, trial: u64| dir.join(format!("point{p}_trial{trial}.amactrace"));
        self.parallel_map(cells.len(), |i| {
            let (p, trial) = cells[i];
            measure(
                setup_of(trial),
                &cell_ctx(trial as usize, p, Some(path_of(p, trial))),
            );
        });

        picks
            .into_iter()
            .enumerate()
            .map(|(p, roles)| {
                roles
                    .into_iter()
                    .map(|(role, trial, value)| OutlierTrace {
                        role,
                        trial,
                        value,
                        path: path_of(p, trial),
                    })
                    .collect()
            })
            .collect()
    }

    /// Evaluates `task(i)` for `i in 0..n` over the worker pool and returns
    /// the results in index order. Work-steals via an atomic counter;
    /// determinism comes from writing each result into its index slot.
    fn parallel_map<T, F>(&self, n: usize, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        if self.jobs == 1 || n == 1 {
            return (0..n).map(&task).collect();
        }
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let next = AtomicUsize::new(0);
        let workers = self.jobs.min(n);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done: Vec<(usize, T)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            done.push((i, task(i)));
                        }
                        done
                    })
                })
                .collect();
            for handle in handles {
                for (i, value) in handle.join().expect("engine worker panicked") {
                    slots[i] = Some(value);
                }
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every task index was claimed by a worker"))
            .collect()
    }
}

impl Default for TrialRunner {
    fn default() -> Self {
        TrialRunner::single()
    }
}

/// Cumulative trial counts at which the engine folds results and (in
/// adaptive mode) takes stop decisions: `floor, 2·floor, 4·floor, …, cap`.
/// Fixed up front so the schedule — and therefore every aggregate — is
/// independent of the worker count.
fn batch_boundaries(floor: usize, cap: usize, adaptive: bool) -> Vec<usize> {
    let first = floor.min(cap);
    if !adaptive {
        return vec![floor];
    }
    let mut boundaries = vec![first];
    let mut t = first;
    while t < cap {
        t = t.saturating_mul(2).min(cap);
        boundaries.push(t);
    }
    boundaries
}

/// Picks the `(role, trial, value)` triples to replay for one point:
/// min, (lower) median, and max of the lane-0 values, ties broken toward
/// the lower trial index so the choice is deterministic.
fn select_outliers(values: &[f64]) -> Vec<(OutlierRole, u64, f64)> {
    if values.is_empty() {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]).then(a.cmp(&b)));
    let pick = |i: usize| (order[i] as u64, values[order[i]]);
    let (min_t, min_v) = pick(0);
    let (med_t, med_v) = pick((order.len() - 1) / 2);
    let (max_t, max_v) = pick(order.len() - 1);
    vec![
        (OutlierRole::Min, min_t, min_v),
        (OutlierRole::Median, med_t, med_v),
        (OutlierRole::Max, max_t, max_v),
    ]
}

/// One worker per available core (1 if the platform will not say).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A compact, `Copy` snapshot of an [`Aggregate`], carried by
/// [`crate::SweepPoint`] so sweep data stays cheap to pass around.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrialStats {
    /// Number of trials aggregated.
    pub trials: u64,
    /// Mean over trials.
    pub mean: f64,
    /// Half-width of the Student-t 95% confidence interval for the mean
    /// (0 for a single trial).
    pub ci95: f64,
    /// Smallest trial value.
    pub min: f64,
    /// Median trial value.
    pub median: f64,
    /// 95th-percentile trial value.
    pub p95: f64,
    /// Largest trial value.
    pub max: f64,
}

impl TrialStats {
    /// Snapshot of a finished aggregate.
    ///
    /// # Panics
    ///
    /// Panics on an empty aggregate.
    pub fn from_aggregate(aggregate: &Aggregate) -> TrialStats {
        assert!(aggregate.count() > 0, "aggregate holds no trials");
        TrialStats {
            trials: aggregate.count(),
            mean: aggregate.mean(),
            ci95: aggregate.ci95_half_width(),
            min: aggregate.min().unwrap_or(0.0),
            median: aggregate.median().unwrap_or(0.0),
            p95: aggregate.p95().unwrap_or(0.0),
            max: aggregate.max().unwrap_or(0.0),
        }
    }

    /// A degenerate single-measurement snapshot (mean = min = max = `x`).
    pub fn single(x: f64) -> TrialStats {
        TrialStats {
            trials: 1,
            mean: x,
            ci95: 0.0,
            min: x,
            median: x,
            p95: x,
            max: x,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_zero_seed_is_the_base_seed() {
        let base = SimRng::seed(9);
        let seeds: Vec<u64> = (0..3u64)
            .map(|i| {
                TrialCtx {
                    index: i,
                    rng: base.split(i),
                }
                .seed(0xDEAD)
            })
            .collect();
        assert_eq!(seeds[0], 0xDEAD, "trial 0 preserves the historical seed");
        assert_ne!(seeds[1], seeds[0]);
        assert_ne!(seeds[2], seeds[1]);
        assert_ne!(seeds[2], seeds[0]);
    }

    #[test]
    fn stats_snapshot_matches_aggregate() {
        let mut agg = Aggregate::new();
        for x in [2.0, 4.0, 9.0] {
            agg.record(x);
        }
        let s = TrialStats::from_aggregate(&agg);
        assert_eq!(s.trials, 3);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.median, 4.0);
        assert_eq!(s.max, 9.0);
        let one = TrialStats::single(7.0);
        assert_eq!((one.trials, one.mean, one.ci95), (1, 7.0, 0.0));
        assert_eq!(one.median, 7.0);
    }

    #[test]
    fn runner_clamps_to_at_least_one() {
        let r = TrialRunner::new(0, 0);
        assert_eq!((r.trials(), r.jobs()), (1, 1));
        assert!(default_jobs() >= 1);
    }

    // --- run_sweep: within-trial parallelism ---

    /// A sweep whose cell values depend only on (trial, point) and on the
    /// cell's private rng — the engine must produce identical aggregates
    /// for any job count.
    fn sweep_cell(_: &(), cell: &CellCtx) -> CellResult {
        let mut rng = cell.rng.clone();
        CellResult::scalar((cell.point * 1000) as f64 + rng.below(100) as f64)
    }

    #[test]
    fn sweep_is_identical_across_job_counts() {
        let widths = [1, 1, 1, 1];
        let reference = TrialRunner::new(8, 1).run_sweep(7, &widths, |_| (), sweep_cell);
        for jobs in [2, 3, 8, 32] {
            let parallel = TrialRunner::new(8, jobs).run_sweep(7, &widths, |_| (), sweep_cell);
            for (a, b) in reference.points().iter().zip(parallel.points()) {
                assert_eq!(a.lanes(), b.lanes(), "jobs={jobs} must not change results");
            }
        }
    }

    #[test]
    fn sweep_cells_share_their_trials_setup() {
        // Setup derives a per-trial token from the trial rng; every point
        // of that trial must observe the same token (and different trials
        // different tokens).
        let run = TrialRunner::new(4, 3).run_sweep(
            11,
            &[1, 1, 1],
            |trial| trial.rng.clone().next() as f64,
            |token, _| CellResult::scalar(*token),
        );
        let lanes: Vec<&Aggregate> = run.points().iter().map(PointRun::primary).collect();
        assert_eq!(lanes[0], lanes[1]);
        assert_eq!(lanes[1], lanes[2]);
        assert!(
            lanes[0].ci95_half_width() > 0.0,
            "distinct trials saw distinct tokens"
        );
    }

    #[test]
    fn sweep_lanes_fold_in_declared_width() {
        let run = TrialRunner::new(3, 2).run_sweep(
            0,
            &[2, 3],
            |_| (),
            |_, cell| {
                let w = if cell.point == 0 { 2 } else { 3 };
                CellResult::vector((0..w).map(|l| (cell.point * 10 + l) as f64).collect())
            },
        );
        assert_eq!(run.point(0).lanes().len(), 2);
        assert_eq!(run.point(1).lanes().len(), 3);
        assert_eq!(run.point(1).lane(2).mean(), 12.0);
    }

    #[test]
    #[should_panic(expected = "declared width")]
    fn sweep_width_mismatch_panics() {
        TrialRunner::new(2, 1).run_sweep(
            0,
            &[2],
            |_| (),
            |_, _| CellResult::scalar(1.0), // declared 2 lanes, returned 1
        );
    }

    #[test]
    fn cell_streams_differ_across_points_of_one_trial() {
        let run = TrialRunner::new(1, 1).run_sweep(
            5,
            &[1, 1],
            |_| (),
            |_, cell| CellResult::scalar(cell.rng.clone().next() as f64),
        );
        assert_ne!(run.point(0).primary().mean(), run.point(1).primary().mean());
    }

    // --- run_sweep: adaptive trial counts ---

    #[test]
    fn adaptive_stops_converged_points_at_the_floor() {
        let runner = TrialRunner::new(4, 2)
            .with_max_trials(64)
            .with_target_ci(0.1);
        assert!(runner.adaptive());
        let run = runner.run_sweep(
            3,
            &[1, 1],
            |_| (),
            |_, cell| {
                let mut rng = cell.rng.clone();
                match cell.point {
                    0 => CellResult::scalar(1000.0), // zero variance
                    _ => CellResult::scalar(100.0 + rng.below(200) as f64), // very noisy
                }
            },
        );
        assert_eq!(run.point(0).trials(), 4, "flat point stops at the floor");
        assert!(run.point(0).converged());
        assert!(
            run.point(1).trials() > 4,
            "noisy point must recruit beyond the floor"
        );
        assert!(run.point(1).trials() <= 64);
    }

    #[test]
    fn adaptive_respects_the_cap() {
        // A point oscillating around zero never meets a relative target.
        let runner = TrialRunner::new(2, 2)
            .with_max_trials(16)
            .with_target_ci(0.05);
        let run = runner.run_sweep(
            1,
            &[1],
            |_| (),
            |_, cell| CellResult::scalar(if cell.trial.index % 2 == 0 { -1.0 } else { 1.0 }),
        );
        assert_eq!(run.point(0).trials(), 16);
        assert!(!run.point(0).converged());
    }

    #[test]
    fn adaptive_is_identical_across_job_counts() {
        let base = TrialRunner::new(3, 1)
            .with_max_trials(48)
            .with_target_ci(0.15);
        let reference = base.run_sweep(9, &[1, 1, 1], |_| (), sweep_cell);
        for jobs in [2, 8] {
            let runner = TrialRunner::new(3, jobs)
                .with_max_trials(48)
                .with_target_ci(0.15);
            let parallel = runner.run_sweep(9, &[1, 1, 1], |_| (), sweep_cell);
            for (a, b) in reference.points().iter().zip(parallel.points()) {
                assert_eq!(a.trials(), b.trials(), "adaptive counts must match");
                assert_eq!(a.lanes(), b.lanes());
            }
        }
    }

    #[test]
    fn batch_boundaries_double_from_floor_to_cap() {
        assert_eq!(batch_boundaries(4, 4, false), vec![4]);
        assert_eq!(batch_boundaries(4, 40, true), vec![4, 8, 16, 32, 40]);
        assert_eq!(batch_boundaries(5, 5, true), vec![5]);
        assert_eq!(batch_boundaries(1, 3, true), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "target CI fraction")]
    fn target_ci_must_be_a_fraction() {
        let _ = TrialRunner::new(2, 1).with_target_ci(1.5);
    }

    // --- run_sweep: outlier capture ---

    fn capture_cell(_: &(), cell: &CellCtx) -> CellResult {
        CellResult::scalar((cell.trial.index * 10) as f64)
    }

    #[test]
    fn capture_replays_min_median_max_trials() {
        let dir = Path::new("captures");
        let run =
            TrialRunner::new(5, 2)
                .with_trace_capture(dir)
                .run_sweep(0, &[1], |_| (), capture_cell);
        let outliers = run.point(0).outliers();
        assert_eq!(outliers.len(), 3);
        let by_role: Vec<(OutlierRole, u64, f64)> = outliers
            .iter()
            .map(|o| (o.role, o.trial, o.value))
            .collect();
        assert_eq!(by_role[0], (OutlierRole::Min, 0, 0.0));
        assert_eq!(by_role[1], (OutlierRole::Median, 2, 20.0));
        assert_eq!(by_role[2], (OutlierRole::Max, 4, 40.0));
        assert_eq!(outliers[1].path, dir.join("point0_trial2.amactrace"));
        // The aggregate folds every trial's value, not just the outliers.
        let primary = run.point(0).primary();
        assert_eq!(primary.count(), 5);
        assert_eq!(primary.mean(), 20.0);
        assert_eq!(primary.min(), Some(0.0));
        assert_eq!(primary.max(), Some(40.0));
    }

    #[test]
    fn capture_collapses_on_a_single_trial() {
        // Every cell that is handed a capture path, in replay order.
        let replays = std::sync::Mutex::new(Vec::new());
        let run = TrialRunner::single()
            .with_trace_capture("captures")
            .run_sweep(
                0,
                &[1, 1],
                |_| (),
                |_, cell| {
                    if let Some(path) = cell.capture_path() {
                        replays.lock().unwrap().push(path.to_path_buf());
                    }
                    CellResult::scalar(1.0)
                },
            );
        let outliers = run.point(0).outliers();
        assert_eq!(outliers.len(), 3, "all three roles exist");
        assert!(outliers
            .iter()
            .all(|o| o.trial == 0 && o.path == outliers[0].path));
        // One replay per (point, trial): the three roles share its file.
        let mut replays = replays.into_inner().unwrap();
        replays.sort();
        assert_eq!(
            replays,
            ["point0_trial0.amactrace", "point1_trial0.amactrace"]
                .map(|name| Path::new("captures").join(name))
        );
    }

    #[test]
    fn capture_off_records_no_outliers() {
        let run = TrialRunner::new(4, 2).run_sweep(
            0,
            &[1],
            |_| (),
            |_, cell| {
                assert!(cell.capture_path().is_none());
                capture_cell(&(), cell)
            },
        );
        assert!(run.point(0).outliers().is_empty());
    }

    #[test]
    fn select_outliers_breaks_ties_toward_low_trials() {
        let picks = select_outliers(&[7.0, 7.0, 7.0]);
        assert_eq!(picks[0].1, 0);
        assert_eq!(picks[1].1, 1, "lower median of three equal values");
        assert_eq!(picks[2].1, 2);
        assert!(select_outliers(&[]).is_empty());
    }

    #[test]
    fn deterministic_clamp_keeps_capture_and_jobs() {
        let r = TrialRunner::new(8, 4)
            .with_max_trials(32)
            .with_target_ci(0.1)
            .with_trace_capture("captures")
            .deterministic();
        assert_eq!((r.trials(), r.max_trials()), (1, 1));
        assert_eq!(r.jobs(), 4);
        assert!(r.captures_traces());
        assert!(!r.adaptive());
    }
}
