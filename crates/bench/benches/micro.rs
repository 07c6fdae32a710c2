//! `cargo bench --bench micro` — Criterion micro-benchmarks of the
//! simulation substrate and the end-to-end algorithms (engineering
//! throughput, not paper claims).

// `criterion_group!` expands to undocumented public functions.
#![allow(missing_docs)]

use amac_core::{run_bmmb, Assignment, RunOptions};
use amac_graph::{generators, DualGraph, NodeId};
use amac_mac::policies::{EagerPolicy, LazyPolicy};
use amac_mac::MacConfig;
use amac_sim::{Duration, EventQueue, SimRng, Time};
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

/// The runtime hot path at scale: a k=2 BMMB flood over a 1,000-node line
/// under the eager scheduler (~10⁴ events per run), measured bare and with
/// the streaming validator attached. Criterion reports seconds per run;
/// events/sec = events ÷ mean time. The pre-refactor pin for this workload
/// (trace-recording runtime + post-hoc validation) is recorded in
/// `experiments::scale::PRE_REFACTOR_PIN_EVENTS_PER_SEC` — the observer
/// refactor's ≥2× claim is measured against it.
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
    bench_bmmb,
    bench_topology
);
criterion_main!(benches);
