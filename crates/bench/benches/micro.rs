//! `cargo bench --bench micro` — Criterion micro-benchmarks of the
//! simulation substrate and the end-to-end algorithms (engineering
//! throughput, not paper claims).

// `criterion_group!` expands to undocumented public functions.
#![allow(missing_docs)]

use amac_core::{run_bmmb, Assignment, RunOptions};
use amac_graph::{generators, DualGraph, NodeId};
use amac_mac::policies::{EagerPolicy, LazyPolicy};
use amac_mac::trace::Trace;
use amac_mac::{FaultPlan, MacConfig, OnlineValidator, TraceObserver};
use amac_proto::consensus::{run_consensus, ConsensusParams, ConsensusReport};
use amac_sim::{Duration, EventQueue, SimRng, Time};
use amac_store::{replay_into, TraceReader};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_10k", |b| {
        b.iter_batched(
            || {
                let mut rng = SimRng::seed(1);
                (0..10_000u64)
                    .map(|i| (Time::from_ticks(rng.below(1 << 20)), i))
                    .collect::<Vec<_>>()
            },
            |items| {
                let mut q = EventQueue::new();
                for (t, v) in items {
                    q.schedule(t, v);
                }
                let mut acc = 0u64;
                while let Some((_, v)) = q.pop() {
                    acc = acc.wrapping_add(v);
                }
                black_box(acc)
            },
            BatchSize::SmallInput,
        );
    });
    // The classic hold model: a steady 1,000 pending events, each step
    // popping the earliest and scheduling a successor U[1, 64] ticks
    // later, as the MAC runtime's deliveries, acks and timers do. The
    // push/pop bench above spreads its times over 2^20 ticks, so it runs
    // on the far heap alone; this one runs on the calendar ring.
    c.bench_function("event_queue_hold_1k", |b| {
        b.iter_batched(
            || {
                let mut rng = SimRng::seed(2);
                let mut q = EventQueue::new();
                for i in 0..1_000u64 {
                    q.schedule(Time::from_ticks(1 + rng.below(64)), i);
                }
                (q, rng)
            },
            |(mut q, mut rng)| {
                let mut acc = 0u64;
                for _ in 0..10_000 {
                    let (t, v) = q.pop().expect("the hold model keeps 1k events pending");
                    acc = acc.wrapping_add(v);
                    q.schedule(t + Duration::from_ticks(1 + rng.below(64)), v);
                }
                black_box(acc)
            },
            BatchSize::SmallInput,
        );
    });
}

/// Crash-tolerant consensus on the 200-node complete graph with 20 random
/// crashes under the lazy duplicate-preferring scheduler, the shape of
/// perfbench's `consensus_crash_recorded`: ~7.6e5 events at degree 199,
/// nearly every delivery due at its instance's ack.
fn consensus200(options: &RunOptions) -> ConsensusReport {
    let n = 200;
    let config = MacConfig::from_ticks(2, 16).enhanced();
    let params = ConsensusParams::for_crashes(20, &config);
    let mut rng = SimRng::seed(1);
    let initial = (0..n).map(|_| rng.chance(0.5)).collect::<Vec<_>>();
    let window = Time::ZERO + params.phase_len.times(params.phases);
    let faults = FaultPlan::random_crashes(n, 20, window, &mut rng);
    let dual = DualGraph::reliable(generators::complete(n).unwrap());
    let policy = LazyPolicy::new().prefer_duplicates();
    run_consensus(&dual, config, &initial, &params, faults, policy, options)
}

/// The runtime hot path at scale: a k=2 BMMB flood over a 1,000-node line
/// under the eager scheduler (~10⁴ events per run), measured bare and with
/// the streaming validator attached, and the dense consensus execution
/// with no observer attached, which times the runtime's delivery path
/// alone. Criterion reports seconds per run; events/sec = events ÷ mean
/// time.
fn bench_runtime_hot_path(c: &mut Criterion) {
    let dual = DualGraph::reliable(generators::line(1000).unwrap());
    let cfg = MacConfig::from_ticks(2, 32);
    let assignment = Assignment::all_at(NodeId::new(0), 2);
    c.bench_function("flood_line1k_k2_fast", |b| {
        b.iter(|| {
            let report = run_bmmb(
                black_box(&dual),
                cfg,
                &assignment,
                EagerPolicy::new(),
                &RunOptions::fast(),
            );
            black_box(report.counters.get("events"))
        });
    });
    c.bench_function("flood_line1k_k2_validated", |b| {
        b.iter(|| {
            let report = run_bmmb(
                black_box(&dual),
                cfg,
                &assignment,
                EagerPolicy::new(),
                &RunOptions::default(),
            );
            assert!(report
                .validation
                .as_ref()
                .is_some_and(amac_mac::ValidationReport::is_ok));
            black_box(report.counters.get("events"))
        });
    });
    c.bench_function("consensus200_crash20_fast", |b| {
        b.iter(|| black_box(consensus200(&RunOptions::fast()).counters.get("events")));
    });
}

/// A recorded execution read back into memory: the trace, the topology
/// and bounds it ran under, and whether it ran to quiescence.
struct Recorded {
    trace: Trace,
    dual: DualGraph,
    config: MacConfig,
    quiescent: bool,
}

/// Records one execution with `RunOptions::recording` (through `run`) and
/// replays the file into a `TraceObserver`, so the benches below time the
/// validator alone: no runtime, no decoding.
fn recorded(name: &str, run: impl FnOnce(&RunOptions)) -> Recorded {
    let path = std::env::temp_dir().join(format!(
        "amac-micro-{}-{name}.amactrace",
        std::process::id()
    ));
    run(&RunOptions::default().recording(&path, 1));
    let mut reader = TraceReader::open(&path).expect("the recording opens");
    let mut tracer = TraceObserver::new();
    let trailer = replay_into(&mut reader, &mut tracer).expect("the recording replays");
    std::fs::remove_file(&path).ok();
    Recorded {
        trace: tracer.into_trace(),
        dual: reader.dual().clone(),
        config: reader.config(),
        quiescent: trailer.quiescent,
    }
}

/// `OnlineValidator::replay` over two recorded executions at opposite
/// degrees: [`consensus200`], and the `scale` experiment's k=2 BMMB flood on
/// the 10⁴-node jittered grid (~1.4e5 events at degree ≤ 4).
fn bench_validator(c: &mut Criterion) {
    let consensus = recorded("consensus200", |options| {
        consensus200(options);
    });
    let grid = recorded("grid10k", |options| {
        let n = 10_000;
        let net = generators::grid_grey_zone_network(n, 0.0, &mut SimRng::seed(0x5CA1E ^ n as u64))
            .unwrap();
        let assignment = Assignment::all_at(NodeId::new(0), 2);
        let config = MacConfig::from_ticks(2, 32);
        run_bmmb(&net.dual, config, &assignment, EagerPolicy::new(), options);
    });
    for (name, rec) in [
        ("validator_replay_consensus200", consensus),
        ("validator_replay_grid10k", grid),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let report =
                    OnlineValidator::replay(&rec.trace, &rec.dual, &rec.config, rec.quiescent);
                assert!(report.is_ok(), "{report}");
                black_box(report)
            });
        });
    }
}

fn bench_bmmb(c: &mut Criterion) {
    let dual = DualGraph::reliable(generators::line(64).unwrap());
    let cfg = MacConfig::from_ticks(2, 32);
    let assignment = Assignment::all_at(NodeId::new(0), 4);
    c.bench_function("bmmb_line64_k4_eager", |b| {
        b.iter(|| {
            let report = run_bmmb(
                black_box(&dual),
                cfg,
                &assignment,
                EagerPolicy::new(),
                &RunOptions::fast(),
            );
            black_box(report.completion_ticks())
        });
    });
    c.bench_function("bmmb_line64_k4_lazy", |b| {
        b.iter(|| {
            let report = run_bmmb(
                black_box(&dual),
                cfg,
                &assignment,
                LazyPolicy::new().prefer_duplicates(),
                &RunOptions::fast(),
            );
            black_box(report.completion_ticks())
        });
    });
}

fn bench_topology(c: &mut Criterion) {
    c.bench_function("grey_zone_sample_n100", |b| {
        let mut rng = SimRng::seed(7);
        b.iter(|| {
            let net =
                generators::grey_zone_network(&generators::GreyZoneConfig::new(100, 7.0), &mut rng)
                    .unwrap();
            black_box(net.dual.len())
        });
    });
    c.bench_function("diameter_grid_20x20", |b| {
        let g = generators::grid(20, 20).unwrap();
        b.iter(|| black_box(amac_graph::algo::diameter(black_box(&g))));
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_runtime_hot_path,
    bench_validator,
    bench_bmmb,
    bench_topology
);
criterion_main!(benches);
