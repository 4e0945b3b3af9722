//! Criterion benchmark for the zero-allocation dispatch hot path: the
//! steady-state scheduler tick measured through the reusable-sink
//! `*_into` API (allocation-free after warm-up) — the per-interaction
//! scheduler overhead the paper's Figure 2 reports.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use yasmin_core::config::Config;
use yasmin_core::priority::PriorityPolicy;
use yasmin_core::time::Instant;
use yasmin_sched::{ActionSink, OnlineEngine};
use yasmin_taskgen::taskset::{build_independent, IndependentSetParams};

fn engine_for(n: usize) -> OnlineEngine {
    let ts = build_independent(&IndependentSetParams {
        n,
        total_utilisation: 1.5,
        seed: 1,
        ..IndependentSetParams::default()
    })
    .expect("valid set");
    let config = Config::builder()
        .workers(2)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .max_pending_jobs(8192)
        .build()
        .expect("valid config");
    OnlineEngine::new(Arc::new(ts), config).expect("valid engine")
}

fn bench_tick_sink(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath/on_tick_sink");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for n in [20usize, 120] {
        group.bench_function(format!("n{n}"), |b| {
            let mut engine = engine_for(n);
            let mut sink = ActionSink::with_capacity(256);
            engine.start_into(Instant::ZERO, &mut sink).expect("starts");
            let mut now = Instant::ZERO;
            let tick = engine.tick_period();
            b.iter(|| {
                now += tick;
                sink.clear();
                engine.on_tick_into(now, &mut sink);
                std::hint::black_box(sink.len());
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tick_sink);
criterion_main!(benches);
