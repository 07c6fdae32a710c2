//! `repro` — regenerate every table and figure of the paper in one run.
//!
//! Prints each experiment's table to stdout (plain text) and, with
//! `--markdown`, emits the EXPERIMENTS.md dataset instead. With `--smoke`,
//! runs every experiment at a tiny, seconds-scale parameterisation — the
//! same code paths as the full run — so CI can verify that table
//! regeneration still works without paying for the full sweeps.
//!
//! Positional arguments select individual experiments by id (run `repro
//! --list` for the ids): `repro consensus_crash` regenerates just the
//! consensus table, `repro fig1_gg election` two of them, no argument the
//! whole suite.
//!
//! `--trials N` runs `N` independent trials per experiment (tables then
//! report mean ± 95% CI per sweep point) and `--jobs J` fans `(sweep
//! point, trial)` cells over `J` worker threads (default: one per core).
//! `--target-ci FRAC` switches to adaptive precision: each sweep point
//! stops recruiting trials once its 95% CI half-width falls below `FRAC`
//! of its mean (floor `--trials`, cap `--max-trials`, default `8×trials`).
//! `--dump-traces DIR` re-runs the min/median/max trial of every sweep
//! point with MAC-trace recording, re-validates those executions, and
//! writes one annotated trace file per outlier under `DIR`.
//! `--plots` appends an ASCII histogram/CDF of each sweep point's trial
//! distribution to its table. `--json DIR` additionally writes one
//! machine-readable `BENCH_<id>.json` per experiment (full dataset,
//! engine parameters, wall clock) for tooling.
//!
//! Stdout is **byte-identical for any `J`** — including adaptive trial
//! counts and plot lines: trial `i` is seeded by `SimRng::split(i)`,
//! aggregates fold in `(point, trial)` order, and adaptive stop decisions
//! happen at fixed batch boundaries. (The JSON files carry wall-clock
//! seconds, and the `scale` experiment's `seq ev/s` column is wall clock;
//! both are exempt from the byte-identity contract — every other cell of
//! every table is covered.)
//!
//! `check` switches to **bounded exhaustive model checking** (the
//! `amac-check` crate): `repro check consensus --nodes 3 --depth full`
//! enumerates every schedule the MAC model permits for a small consensus
//! instance and judges each against the shipped safety properties,
//! printing explored/pruned statistics. `--depth D` bounds the free
//! decisions per schedule (later ones pinned to their defaults),
//! `--max-schedules M` caps the walk, `--broken` substitutes the
//! deliberately under-provisioned consensus so the counterexample
//! pipeline (delta-debugging shrinker + `.amactrace` fixture via
//! `--fixture PATH`) can be exercised, and `check --smoke` runs the
//! blocking CI suite (exhaustive certification at n = 3 scale plus a
//! shrinker self-test). Exit status 1 signals an unexpected verdict —
//! a violation in a certified space, or a clean run under `--broken`.
//!
//! `--record DIR` switches from sweeps to **canonical executions**: each
//! selected experiment runs its canonical fixed-seed execution once with a
//! streaming store observer attached, writing `DIR/<id>.amactrace` (format:
//! `docs/TRACE_FORMAT.md`) and printing the live validator's summary.
//! `--metrics DIR` runs the same canonical executions with a deterministic
//! sim-time metrics observer attached and writes one `METRICS_<id>.json`
//! per experiment (latency/slack histograms, per-node counters, in-flight
//! depth — see `docs/OBSERVABILITY.md`); `--chrome-trace FILE` exports the
//! single selected experiment's span timeline as Perfetto-loadable Chrome
//! trace-event JSON. The three outputs compose freely. The
//! `replay` subcommand re-reads stored trace files — `repro replay FILE`
//! re-runs a fresh `OnlineValidator` over the stored stream and prints the
//! same summary block (byte-identical to the recording run's, for a
//! faithful file); `--observer counter|trace|metrics|spans` feeds the
//! stream to a [`CounterObserver`], a [`TraceObserver`], a metrics
//! observer (prints the `METRICS` JSON document), or a span observer
//! (prints the Chrome trace-event JSON) instead.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p amac-bench --bin repro            # text tables
//! cargo run --release -p amac-bench --bin repro -- --markdown > EXPERIMENTS.data.md
//! cargo run --release -p amac-bench --bin repro -- --smoke  # CI fast path
//! cargo run --release -p amac-bench --bin repro -- --trials 32 --jobs 8 --plots
//! cargo run --release -p amac-bench --bin repro -- --trials 8 --target-ci 0.05 --max-trials 128
//! cargo run --release -p amac-bench --bin repro -- consensus_crash --trials 8 --json out/
//! cargo run --release -p amac-bench --bin repro -- consensus_crash --record traces/
//! cargo run --release -p amac-bench --bin repro -- scale --metrics out/ --chrome-trace out/scale.trace.json
//! cargo run --release -p amac-bench --bin repro -- replay traces/consensus_crash.amactrace
//! cargo run --release -p amac-bench --bin repro -- replay traces/consensus_crash.amactrace --observer metrics
//! cargo run --release -p amac-bench --bin repro -- check consensus --nodes 3 --depth full
//! cargo run --release -p amac-bench --bin repro -- check consensus --broken --fixture cx.amactrace
//! cargo run --release -p amac-bench --bin repro -- check --smoke  # CI blocking gate
//! ```

use amac_bench::engine::{default_jobs, TrialRunner};
use amac_bench::experiments::{self, ExperimentSpec, LabeledOutlier};
use amac_mac::trace::TraceKind;
use amac_mac::{CounterObserver, TraceObserver};
use amac_store::{replay_into, replay_validate, TraceReader};
use std::path::{Path, PathBuf};
use std::time::Instant;

fn usage_exit() -> ! {
    eprintln!(
        "usage: repro [EXPERIMENT ...] [--list] [--markdown] [--smoke] [--trials N] [--jobs J] \
         [--target-ci FRAC] [--max-trials M] [--dump-traces DIR] [--plots] [--json DIR] \
         [--record DIR] [--metrics DIR] [--chrome-trace FILE]"
    );
    eprintln!(
        "       repro replay FILE [FILE ...] \
         [--observer validator|counter|trace|check|metrics|spans] [--json DIR]"
    );
    eprintln!(
        "       repro check [SCENARIO ...] [--nodes N] [--crashes C] [--messages K] \
         [--depth D|full] [--max-schedules M] [--broken] [--fixture PATH] [--smoke] [--json DIR]"
    );
    eprintln!(
        "check scenarios: {} (default: all certified variants)",
        amac_bench::check::SCENARIOS.join(", ")
    );
    eprintln!("experiment ids:");
    for spec in experiments::registry() {
        eprintln!("  {:<18} {} ({})", spec.id, spec.summary, spec.label);
    }
    std::process::exit(2);
}

fn positive_arg(args: &mut impl Iterator<Item = String>, flag: &str) -> usize {
    args.next()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            eprintln!("{flag} needs a positive integer");
            usage_exit()
        })
}

fn fraction_arg(args: &mut impl Iterator<Item = String>, flag: &str) -> f64 {
    args.next()
        .and_then(|v| v.parse().ok())
        .filter(|&f: &f64| f > 0.0 && f < 1.0)
        .unwrap_or_else(|| {
            eprintln!("{flag} needs a fraction in (0, 1), e.g. 0.05");
            usage_exit()
        })
}

fn dir_arg(args: &mut impl Iterator<Item = String>, flag: &str) -> PathBuf {
    PathBuf::from(args.next().unwrap_or_else(|| {
        eprintln!("{flag} needs a directory");
        usage_exit()
    }))
}

fn count_arg(args: &mut impl Iterator<Item = String>, flag: &str) -> usize {
    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs a non-negative integer");
        usage_exit()
    })
}

fn depth_arg(args: &mut impl Iterator<Item = String>) -> Option<usize> {
    match args.next().as_deref() {
        Some("full") => None,
        Some(v) => match v.parse::<usize>() {
            Ok(d) if d >= 1 => Some(d),
            _ => {
                eprintln!("--depth needs a positive integer or `full`");
                usage_exit()
            }
        },
        None => {
            eprintln!("--depth needs a positive integer or `full`");
            usage_exit()
        }
    }
}

fn main() {
    let mut markdown = false;
    let mut smoke = false;
    let mut trials = 1usize;
    let mut jobs = default_jobs();
    let mut target_ci: Option<f64> = None;
    let mut max_trials: Option<usize> = None;
    let mut dump_traces: Option<PathBuf> = None;
    let mut plots = false;
    let mut json_dir: Option<PathBuf> = None;
    let mut record_dir: Option<PathBuf> = None;
    let mut metrics_dir: Option<PathBuf> = None;
    let mut chrome_trace: Option<PathBuf> = None;
    let mut replay_mode = false;
    let mut replay_files: Vec<PathBuf> = Vec::new();
    let mut observer = "validator".to_string();
    let mut check_mode = false;
    let mut check_scenarios: Vec<String> = Vec::new();
    let mut check_opts = amac_bench::check::CheckOptions::default();
    let mut check_fixture: Option<PathBuf> = None;
    let mut selected: Vec<&'static ExperimentSpec> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if check_mode {
            match arg.as_str() {
                "--nodes" => check_opts.nodes = positive_arg(&mut args, "--nodes"),
                "--crashes" => check_opts.crashes = count_arg(&mut args, "--crashes"),
                "--messages" => check_opts.messages = positive_arg(&mut args, "--messages"),
                "--depth" => check_opts.depth = depth_arg(&mut args),
                "--max-schedules" => {
                    check_opts.max_schedules = positive_arg(&mut args, "--max-schedules") as u64;
                }
                "--broken" => check_opts.broken = true,
                "--fixture" => check_fixture = Some(dir_arg(&mut args, "--fixture")),
                "--smoke" => smoke = true,
                "--json" => json_dir = Some(dir_arg(&mut args, "--json")),
                other if !other.starts_with('-') => check_scenarios.push(other.to_string()),
                other => {
                    eprintln!("unknown check argument: {other}");
                    usage_exit()
                }
            }
            continue;
        }
        match arg.as_str() {
            "--markdown" => markdown = true,
            "--smoke" => smoke = true,
            "--trials" => trials = positive_arg(&mut args, "--trials"),
            "--jobs" => jobs = positive_arg(&mut args, "--jobs"),
            "--target-ci" => target_ci = Some(fraction_arg(&mut args, "--target-ci")),
            "--max-trials" => max_trials = Some(positive_arg(&mut args, "--max-trials")),
            "--dump-traces" => dump_traces = Some(dir_arg(&mut args, "--dump-traces")),
            "--plots" => plots = true,
            "--json" => json_dir = Some(dir_arg(&mut args, "--json")),
            "--record" => record_dir = Some(dir_arg(&mut args, "--record")),
            "--metrics" => metrics_dir = Some(dir_arg(&mut args, "--metrics")),
            "--chrome-trace" => chrome_trace = Some(dir_arg(&mut args, "--chrome-trace")),
            "--observer" => {
                observer = args.next().unwrap_or_else(|| {
                    eprintln!(
                        "--observer needs one of: validator, counter, trace, check, metrics, spans"
                    );
                    usage_exit()
                });
                if !matches!(
                    observer.as_str(),
                    "validator" | "counter" | "trace" | "check" | "metrics" | "spans"
                ) {
                    eprintln!("unknown observer: {observer}");
                    usage_exit()
                }
            }
            "--list" => {
                for spec in experiments::registry() {
                    let mode = if spec.deterministic {
                        "deterministic"
                    } else {
                        "stochastic"
                    };
                    println!(
                        "{:<18} {:<7} {} [{mode}]",
                        spec.id, spec.label, spec.summary
                    );
                    println!("{:<18} {:<7} {}", "", "", spec.detail);
                }
                return;
            }
            other if !other.starts_with('-') => {
                if replay_mode {
                    replay_files.push(PathBuf::from(other));
                } else if other == "replay" && selected.is_empty() {
                    replay_mode = true;
                } else if other == "check" && selected.is_empty() {
                    check_mode = true;
                } else {
                    match experiments::find(other) {
                        // Dedup: a repeated id would run twice and overwrite
                        // its own --json/--dump-traces outputs.
                        Some(spec) => {
                            if !selected.iter().any(|s| s.id == spec.id) {
                                selected.push(spec);
                            }
                        }
                        None => {
                            eprintln!("unknown experiment: {other}");
                            usage_exit()
                        }
                    }
                }
            }
            other => {
                eprintln!("unknown argument: {other}");
                usage_exit()
            }
        }
    }
    if replay_mode {
        if replay_files.is_empty() {
            eprintln!("replay needs at least one trace FILE");
            usage_exit()
        }
        run_replay(&replay_files, &observer, json_dir.as_deref());
        return;
    }
    if check_mode {
        run_check(
            &check_scenarios,
            &check_opts,
            smoke,
            check_fixture.as_deref(),
            json_dir.as_deref(),
        );
        return;
    }

    let specs: Vec<&'static ExperimentSpec> = if selected.is_empty() {
        experiments::registry().iter().collect()
    } else {
        selected
    };

    if record_dir.is_some() || metrics_dir.is_some() || chrome_trace.is_some() {
        record_canonical(
            &specs,
            smoke,
            record_dir.as_deref(),
            metrics_dir.as_deref(),
            chrome_trace.as_deref(),
            json_dir.as_deref(),
        );
        return;
    }

    let mut runner = TrialRunner::new(trials, jobs)
        .with_trace_capture(dump_traces.is_some())
        .with_plots(plots);
    if let Some(frac) = target_ci {
        // Adaptive mode needs headroom above the floor; default the cap to
        // 8x the floor when --max-trials is not given.
        runner = runner
            .with_max_trials(max_trials.unwrap_or(8 * runner.trials()))
            .with_target_ci(frac);
    } else if let Some(max) = max_trials {
        if max > trials {
            eprintln!("--max-trials only has an effect together with --target-ci");
            usage_exit()
        }
    }

    let mode = if smoke { "smoke" } else { "full" };
    let stochastic_detail = if runner.adaptive() {
        format!(
            "{mode}, adaptive {}..{} trials (target ci {:.0}%), {} job(s)",
            runner.trials(),
            runner.max_trials(),
            runner.target_ci().unwrap_or(0.0) * 100.0,
            runner.jobs()
        )
    } else {
        format!(
            "{mode}, {} trial(s), {} job(s)",
            runner.trials(),
            runner.jobs()
        )
    };
    // Deterministic experiments clamp the runner to a single trial (their
    // module-level DETERMINISTIC const); report the effective count.
    let deterministic_detail = format!("{mode}, deterministic: 1 trial");

    let total = specs.len();
    let mut tables = Vec::new();
    let mut captures: Vec<(&'static str, Vec<LabeledOutlier>)> = Vec::new();
    let mut json_docs: Vec<(&'static str, String)> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let detail = if spec.deterministic {
            &deterministic_detail
        } else {
            &stochastic_detail
        };
        eprintln!(
            "[{}/{total}] {:<7}{} ({detail}) ...",
            i + 1,
            spec.label,
            spec.summary
        );
        let started = Instant::now();
        let out = spec.run(smoke, &runner);
        if json_dir.is_some() {
            json_docs.push((
                spec.id,
                amac_bench::json::experiment_json(
                    spec.id,
                    &out.table,
                    &runner,
                    smoke,
                    started.elapsed().as_secs_f64(),
                ),
            ));
        }
        captures.push((spec.label, out.outliers));
        tables.push(out.table);
    }

    for t in &tables {
        if markdown {
            println!("{}", t.to_markdown());
        } else {
            println!("{t}");
        }
    }
    if let Some(dir) = &dump_traces {
        dump_outlier_traces(dir, &captures);
    }
    if let Some(dir) = &json_dir {
        write_json_results(dir, &json_docs);
    }
    eprintln!("done: {} tables ({stochastic_detail})", tables.len());
}

/// Keeps filenames portable: anything outside `[A-Za-z0-9._=-]` becomes `_`.
fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || "._=-".contains(c) {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Writes one `BENCH_<id>.json` per experiment under `dir`.
fn write_json_results(dir: &Path, docs: &[(&'static str, String)]) {
    let named: Vec<(String, String)> = docs
        .iter()
        .map(|(id, doc)| (format!("BENCH_{}.json", sanitize(id)), doc.clone()))
        .collect();
    write_named_json(dir, &named);
}

/// Writes pre-named JSON documents under `dir`.
fn write_named_json(dir: &Path, docs: &[(String, String)]) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    for (name, doc) in docs {
        let path = dir.join(name);
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    eprintln!(
        "wrote {} machine-readable result file(s) to {}",
        docs.len(),
        dir.display()
    );
}

/// `--record DIR` / `--metrics DIR` / `--chrome-trace FILE`: runs each
/// selected experiment's canonical fixed-seed execution once with the
/// requested observers attached (`amac_bench::record`). Recording prints
/// the live run's summary — the exact block a later `repro replay` must
/// reproduce; metrics land as `METRICS_<id>.json` under the metrics
/// directory; the chrome trace is written by the harness as the run
/// finishes. Every output directory, the chrome trace's parent included,
/// is created before the first run, so a bad path exits 1 up front.
fn record_canonical(
    specs: &[&'static ExperimentSpec],
    smoke: bool,
    record_dir: Option<&Path>,
    metrics_dir: Option<&Path>,
    chrome_trace: Option<&Path>,
    json_dir: Option<&Path>,
) {
    if chrome_trace.is_some() && specs.len() != 1 {
        eprintln!("--chrome-trace needs exactly one experiment (later runs would overwrite it)");
        usage_exit()
    }
    let chrome_dir = chrome_trace.and_then(Path::parent);
    for dir in [record_dir, metrics_dir, chrome_dir].into_iter().flatten() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    let mut json_docs: Vec<(String, String)> = Vec::new();
    let mut metrics_docs: Vec<(String, String)> = Vec::new();
    for spec in specs {
        let started = Instant::now();
        let opts = amac_bench::CanonicalOpts {
            smoke,
            record: record_dir.map(Path::to_path_buf),
            metrics: metrics_dir.is_some(),
            chrome_trace: chrome_trace.map(Path::to_path_buf),
        };
        let run = spec.canonical(&opts);
        if let Some(recorded) = &run.trace {
            println!("recorded {}", recorded.path.display());
            println!("{}", recorded.summary);
            if json_dir.is_some() {
                json_docs.push((
                    format!("TRACE_{}.json", sanitize(spec.id)),
                    amac_bench::json::trace_json(
                        "record",
                        &recorded.path.display().to_string(),
                        &recorded.summary,
                        started.elapsed().as_secs_f64(),
                    ),
                ));
            }
        }
        if let Some(report) = &run.metrics {
            metrics_docs.push((
                format!("METRICS_{}.json", sanitize(spec.id)),
                report.to_json(spec.id),
            ));
        }
        if let Some(path) = chrome_trace {
            println!("chrome trace {}", path.display());
        }
    }
    if let Some(out) = metrics_dir {
        write_named_json(out, &metrics_docs);
    }
    if let Some(out) = json_dir {
        write_named_json(out, &json_docs);
    }
    if let Some(dir) = record_dir {
        eprintln!(
            "recorded {} canonical trace(s) to {}",
            specs.len(),
            dir.display()
        );
    }
}

/// `check [SCENARIO ...]`: bounded exhaustive exploration via
/// `amac-check`. Certified scenarios are expected clean and (without a
/// schedule cap cut-off) exhausted; `--broken` inverts the expectation —
/// the run must find, shrink, and (with `--fixture`) persist a
/// counterexample. Any unexpected verdict exits 1 so CI can gate on it.
fn run_check(
    scenarios: &[String],
    opts: &amac_bench::check::CheckOptions,
    smoke: bool,
    fixture: Option<&Path>,
    json_dir: Option<&Path>,
) {
    use amac_bench::check;
    if smoke {
        let cases = check::smoke_suite();
        let mut failed = 0usize;
        for case in &cases {
            println!("[{}] {}", if case.ok { "ok" } else { "FAIL" }, case.label);
            print!("{}", check::render(&case.report, &case.opts));
            if !case.ok {
                failed += 1;
            }
        }
        eprintln!(
            "check smoke: {}/{} cases ok",
            cases.len() - failed,
            cases.len()
        );
        if failed > 0 {
            std::process::exit(1);
        }
        return;
    }

    let ids: Vec<String> = if scenarios.is_empty() {
        check::SCENARIOS.iter().map(|s| (*s).to_string()).collect()
    } else {
        scenarios.to_vec()
    };
    if fixture.is_some() && ids.len() > 1 {
        eprintln!("--fixture needs exactly one scenario (later runs would overwrite the file)");
        usage_exit()
    }
    let mut json_docs: Vec<(String, String)> = Vec::new();
    let mut unexpected = 0usize;
    for id in &ids {
        let started = Instant::now();
        let Some(report) = check::run(id, opts, fixture) else {
            eprintln!(
                "unknown check scenario `{id}` (or unsupported: --broken applies to consensus only)"
            );
            usage_exit()
        };
        print!("{}", check::render(&report, opts));
        let ok = if opts.broken {
            report.counterexample.is_some()
        } else {
            report.is_clean()
        };
        if !ok {
            unexpected += 1;
        }
        if json_dir.is_some() {
            json_docs.push((
                format!("CHECK_{}.json", sanitize(id)),
                amac_bench::json::check_json(&report, opts, started.elapsed().as_secs_f64()),
            ));
        }
    }
    if let Some(out) = json_dir {
        write_named_json(out, &json_docs);
    }
    if unexpected > 0 {
        eprintln!("{unexpected} scenario(s) ended with an unexpected verdict");
        std::process::exit(1);
    }
}

fn replay_fail(path: &Path, e: amac_store::StoreError) -> ! {
    eprintln!("cannot replay {}: {e}", path.display());
    std::process::exit(1);
}

/// `replay FILE...`: re-reads stored traces and feeds them to the chosen
/// observer. Corrupt or truncated files abort with exit code 1; recorded
/// *violations* do not (inspecting them is what replay is for — the count
/// is reported on stderr instead).
fn run_replay(files: &[PathBuf], observer: &str, json_dir: Option<&Path>) {
    let mut json_docs: Vec<(String, String)> = Vec::new();
    let mut invalid = 0usize;
    for path in files {
        let started = Instant::now();
        let mut reader = match TraceReader::open(path) {
            Ok(r) => r,
            Err(e) => replay_fail(path, e),
        };
        // The metrics/spans observers print a machine-readable JSON
        // document; keep stdout clean so it can be redirected to a file.
        if !matches!(observer, "metrics" | "spans") {
            println!("replayed {}", path.display());
        }
        match observer {
            "validator" => match replay_validate(reader) {
                Ok(summary) => {
                    println!("{summary}");
                    if !summary.validation.is_ok() {
                        invalid += 1;
                    }
                    if json_dir.is_some() {
                        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
                        json_docs.push((
                            format!("REPLAY_{}.json", sanitize(stem)),
                            amac_bench::json::trace_json(
                                "replay",
                                &path.display().to_string(),
                                &summary,
                                started.elapsed().as_secs_f64(),
                            ),
                        ));
                    }
                }
                Err(e) => replay_fail(path, e),
            },
            "counter" => {
                let header = *reader.header();
                let mut counter = CounterObserver::new();
                match replay_into(&mut reader, &mut counter) {
                    Ok(trailer) => {
                        println!("  header: {header}");
                        println!(
                            "  counts: bcast={} rcv={} ack={} abort={} faults={}",
                            counter.count(TraceKind::Bcast),
                            counter.count(TraceKind::Rcv),
                            counter.count(TraceKind::Ack),
                            counter.count(TraceKind::Abort),
                            counter.faults()
                        );
                        println!("  quiescent: {}", trailer.quiescent);
                    }
                    Err(e) => replay_fail(path, e),
                }
            }
            "trace" => {
                let header = *reader.header();
                let mut tracer = TraceObserver::new();
                match replay_into(&mut reader, &mut tracer) {
                    Ok(trailer) => {
                        println!("  header: {header}");
                        println!("  quiescent: {}", trailer.quiescent);
                        println!("{}", tracer.into_trace());
                    }
                    Err(e) => replay_fail(path, e),
                }
            }
            // Deterministic sim-time metrics rebuilt from the stored
            // stream alone: the header carries F_prog/F_ack, so the
            // latency/slack histograms come out exactly as a live
            // `--metrics` run of the same execution would produce them.
            "metrics" => {
                let header = *reader.header();
                let mut metrics = amac_obs::MetricsObserver::new(header.config());
                match replay_into(&mut reader, &mut metrics) {
                    Ok(_trailer) => {
                        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
                        let doc = metrics.into_report().to_json(stem);
                        print!("{doc}");
                        if json_dir.is_some() {
                            json_docs.push((format!("METRICS_{}.json", sanitize(stem)), doc));
                        }
                    }
                    Err(e) => replay_fail(path, e),
                }
            }
            // Span timeline rebuilt from the stored stream: prints the
            // Perfetto-loadable Chrome trace-event JSON (redirect or use
            // --json to capture it as a file).
            "spans" => {
                let mut spans = amac_obs::SpanObserver::new();
                match replay_into(&mut reader, &mut spans) {
                    Ok(_trailer) => {
                        let doc = spans.to_chrome_json();
                        print!("{doc}");
                        if json_dir.is_some() {
                            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
                            json_docs.push((format!("SPANS_{}.json", sanitize(stem)), doc));
                        }
                    }
                    Err(e) => replay_fail(path, e),
                }
            }
            // Counterexample fixtures: MAC conformance plus the consensus
            // disagreement reconstructed from the stored stream alone.
            "check" => {
                drop(reader);
                match amac_check::check_fixture(path) {
                    Ok(check) => {
                        println!("  mac violations: {}", check.mac_violations);
                        match &check.estimate_verdict {
                            Some(v) => println!("  reconstructed consensus: VIOLATION — {v}"),
                            None => println!("  reconstructed consensus: agreement holds"),
                        }
                        if !check.is_clean() {
                            invalid += 1;
                        }
                    }
                    Err(e) => replay_fail(path, e),
                }
            }
            other => {
                eprintln!("unknown observer: {other}");
                usage_exit()
            }
        }
    }
    if let Some(out) = json_dir {
        write_named_json(out, &json_docs);
    }
    eprintln!(
        "replayed {} trace(s) ({})",
        files.len(),
        if observer == "check" {
            format!("observer: check, {invalid} with violations")
        } else if observer != "validator" {
            format!("observer: {observer}")
        } else if invalid == 0 {
            "all validated ok".to_string()
        } else {
            format!("{invalid} with violations")
        }
    );
}

/// Writes one annotated trace file per captured outlier and prints a
/// validation summary: the post-mortem record of each sweep point's
/// min/median/max execution.
fn dump_outlier_traces(dir: &Path, captures: &[(&'static str, Vec<LabeledOutlier>)]) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let mut written = 0usize;
    let mut invalid = 0usize;
    for (experiment, outliers) in captures {
        for o in outliers {
            let name = format!(
                "{experiment}_{}_{}_trial{}.txt",
                sanitize(&o.label),
                o.outlier.role,
                o.outlier.trial
            );
            let verdict = match &o.outlier.validation {
                Some(v) => {
                    if !v.is_ok() {
                        invalid += 1;
                    }
                    v.to_string()
                }
                None => "not validated".to_string(),
            };
            let body = format!(
                "experiment: {experiment}\npoint: {}\nrole: {}\ntrial: {}\nmeasured: {}\nevents: {}\nlast event at: t={}\nvalidation: {verdict}\n\n{}",
                o.label,
                o.outlier.role,
                o.outlier.trial,
                o.outlier.value,
                o.outlier.trace.len(),
                o.outlier
                    .trace
                    .last_time()
                    .map(|t| t.ticks().to_string())
                    .unwrap_or_else(|| "-".to_string()),
                o.outlier.trace
            );
            let path = dir.join(name);
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            written += 1;
        }
    }
    eprintln!(
        "dumped {written} outlier trace(s) to {} ({})",
        dir.display(),
        if invalid == 0 {
            "all validated ok".to_string()
        } else {
            format!("{invalid} with violations")
        }
    );
}
