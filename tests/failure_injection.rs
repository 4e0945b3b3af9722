//! Failure injection and degraded-mode behaviour: channel overflow,
//! accelerator starvation (PIP), sporadic violations, queue saturation,
//! configuration misuse — plus the PR 9 fault-tolerance machinery:
//! WCET-overrun enforcement, deterministic fault schedules replayed
//! through all three sim drivers, worker-panic containment in both
//! thread runtimes, overload shedding and the deadline-miss trip wire,
//! and the loss-free sharded drain.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use yasmin::prelude::*;
use yasmin::sched::{Action, ActionSink, OnlineEngine};
use yasmin::sim::{run_partitioned_parallel, ExecModel, FaultEvent, ParSimOptions};

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

#[test]
fn channel_overflow_is_counted_not_fatal() {
    // A join with one fast input (10ms) and one slow input (50ms): the
    // fast edge's tokens pile up past its declared capacity of 1 while
    // the join waits for the slow side.
    let mut b = TaskSetBuilder::new();
    let fast = b.task_decl(TaskSpec::periodic("fast", ms(10))).unwrap();
    let slow = b.task_decl(TaskSpec::periodic("slow", ms(50))).unwrap();
    let join = b.task_decl(TaskSpec::graph_node("join")).unwrap();
    b.version_decl(fast, VersionSpec::new("f", ms(1))).unwrap();
    b.version_decl(slow, VersionSpec::new("s", ms(1))).unwrap();
    b.version_decl(join, VersionSpec::new("j", ms(1))).unwrap();
    let cf = b.channel_decl("tight", 1, 4);
    let cs = b.channel_decl("wide", 8, 4);
    b.channel_connect(fast, join, cf).unwrap();
    b.channel_connect(slow, join, cs).unwrap();
    let ts = Arc::new(b.build().unwrap());
    let config = Config::builder()
        .workers(2)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .max_pending_jobs(4096)
        .build()
        .unwrap();
    let mut sim = SimConfig::uniform(2, ms(200));
    sim.exec = ExecModel::Wcet;
    let result = Simulation::new(ts, config, sim).unwrap().run().unwrap();
    assert!(
        result.engine_stats.channel_overflows > 0,
        "overflow must be detected: {:?}",
        result.engine_stats
    );
    // The schedule keeps going regardless.
    assert!(result.records.len() > 5);
}

#[test]
fn accel_starvation_triggers_pip_and_eventual_service() {
    // One GPU, one long-running low-urgency hog (GPU-only) and an urgent
    // GPU-only task: the urgent task must boost the hog (PIP) and run
    // right after it.
    let mut b = TaskSetBuilder::new();
    let gpu = b.hwaccel_decl("gpu");
    let hog = b.task_decl(TaskSpec::periodic("hog", ms(100))).unwrap();
    let vh = b.version_decl(hog, VersionSpec::new("h", ms(40))).unwrap();
    b.hwaccel_use(hog, vh, gpu).unwrap();
    let urgent = b
        .task_decl(
            TaskSpec::periodic("urgent", ms(100))
                .with_release_offset(ms(5))
                .with_constrained_deadline(ms(60)),
        )
        .unwrap();
    let vu = b
        .version_decl(urgent, VersionSpec::new("u", ms(5)))
        .unwrap();
    b.hwaccel_use(urgent, vu, gpu).unwrap();
    let ts = Arc::new(b.build().unwrap());
    let config = Config::builder()
        .workers(2)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        // The gcd of the two 100ms periods would give a 100ms scheduler
        // tick, releasing the offset task only after the hog finished; a
        // finer tick exposes the contention window (§3.3 allows any tick
        // dividing the periods).
        .tick(ms(5))
        .build()
        .unwrap();
    let mut sim = SimConfig::uniform(2, ms(300));
    sim.exec = ExecModel::Wcet;
    let result = Simulation::new(ts, config, sim).unwrap().run().unwrap();
    assert!(result.engine_stats.pip_boosts > 0, "PIP must fire");
    assert!(result.engine_stats.blocked_skips > 0);
    // The urgent task is eventually served every period and meets its
    // 60ms deadline (hog finishes at 40ms, urgent needs 5ms).
    assert_eq!(result.miss_count(TaskId::new(1)), 0);
    assert_eq!(result.records_of(TaskId::new(1)).count(), 3);
}

#[test]
fn ready_queue_saturation_is_survivable() {
    // A deliberately tiny queue bound with an overloaded set: the engine
    // records the loss instead of panicking.
    let mut b = TaskSetBuilder::new();
    for i in 0..8 {
        let t = b
            .task_decl(TaskSpec::periodic(format!("t{i}"), ms(10)))
            .unwrap();
        b.version_decl(t, VersionSpec::new("v", ms(30))).unwrap();
    }
    let ts = Arc::new(b.build().unwrap());
    let config = Config::builder()
        .workers(1)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .max_pending_jobs(4)
        .build()
        .unwrap();
    let sim = SimConfig::uniform(1, ms(500));
    let result = Simulation::new(ts, config, sim).unwrap().run().unwrap();
    // Releases beyond the bound are surfaced via the overflow counter.
    assert!(result.engine_stats.channel_overflows > 0);
}

#[test]
fn sporadic_violation_counting_via_engine() {
    let mut b = TaskSetBuilder::new();
    let s = b.task_decl(TaskSpec::sporadic("s", ms(10))).unwrap();
    b.version_decl(s, VersionSpec::new("v", ms(1))).unwrap();
    let ts = Arc::new(b.build().unwrap());
    let config = Config::builder().workers(1).tick(ms(10)).build().unwrap();
    let mut engine = OnlineEngine::new(ts, config).unwrap();
    let mut sink = ActionSink::new();
    engine.start_into(Instant::ZERO, &mut sink).unwrap();
    for at in [0, 3_000_000, 20_000_000] {
        sink.clear();
        engine
            .activate_into(s, Instant::from_nanos(at), &mut sink)
            .unwrap();
    }
    assert_eq!(engine.stats().sporadic_violations, 1);
}

#[test]
fn gpu_only_task_with_no_cpu_version_waits_but_completes() {
    // Three GPU-only tasks, one GPU, one worker pool of 3: they must
    // serialise on the accelerator and all finish.
    let mut b = TaskSetBuilder::new();
    let gpu = b.hwaccel_decl("gpu");
    let mut tasks = Vec::new();
    for i in 0..3 {
        let t = b
            .task_decl(TaskSpec::periodic(format!("g{i}"), ms(100)))
            .unwrap();
        let v = b.version_decl(t, VersionSpec::new("v", ms(20))).unwrap();
        b.hwaccel_use(t, v, gpu).unwrap();
        tasks.push(t);
    }
    let ts = Arc::new(b.build().unwrap());
    let config = Config::builder()
        .workers(3)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .build()
        .unwrap();
    let mut sim = SimConfig::uniform(3, ms(100));
    sim.exec = ExecModel::Wcet;
    let result = Simulation::new(ts, config, sim).unwrap().run().unwrap();
    assert_eq!(result.records.len(), 3);
    // Accelerator exclusivity: executions must not overlap.
    let mut spans: Vec<(Instant, Instant)> = result
        .records
        .iter()
        .map(|r| (r.first_start, r.completion))
        .collect();
    spans.sort();
    for pair in spans.windows(2) {
        assert!(pair[1].0 >= pair[0].1, "GPU overlap: {spans:?}");
    }
}

#[test]
fn overrun_enforcement_applies_policy_on_tick() {
    // enforce_wcet(true): a job strictly past release + WCET is flagged
    // on the next tick; DemoteToBackground surfaces as a Boost action
    // to background priority.
    let mut b = TaskSetBuilder::new();
    let t = b
        .task_decl(
            TaskSpec::periodic("t", ms(10)).with_overrun_policy(OverrunPolicy::DemoteToBackground),
        )
        .unwrap();
    b.version_decl(t, VersionSpec::new("v", ms(1))).unwrap();
    let ts = Arc::new(b.build().unwrap());
    let config = Config::builder()
        .workers(1)
        .tick(ms(1))
        .enforce_wcet(true)
        .build()
        .unwrap();
    let mut engine = OnlineEngine::new(ts, config).unwrap();
    let mut sink = ActionSink::new();
    engine.start_into(Instant::ZERO, &mut sink).unwrap();
    assert!(matches!(sink.as_slice(), [Action::Dispatch { .. }]));

    // At 1ms the job is exactly at its enforcement deadline (strict
    // comparison: no overrun); at 2ms it is past it.
    sink.clear();
    engine.on_tick_into(Instant::ZERO + ms(1), &mut sink);
    assert_eq!(engine.stats().overruns, 0);
    sink.clear();
    engine.on_tick_into(Instant::ZERO + ms(2), &mut sink);
    assert_eq!(engine.stats().overruns, 1);
    assert!(
        sink.as_slice().iter().any(|a| matches!(
            a,
            Action::Boost { priority, .. } if *priority == Priority::LOWEST
        )),
        "demotion must surface as a background boost: {:?}",
        sink.as_slice()
    );
    // The policy fires exactly once per job.
    sink.clear();
    engine.on_tick_into(Instant::ZERO + ms(3), &mut sink);
    assert_eq!(engine.stats().overruns, 1);
}

#[test]
fn forced_overrun_kill_gates_successor_tokens() {
    // src (Kill policy) -> dst: the overrun fault at 1ms flags the
    // first src job; its completion is still recorded (the middleware
    // never destroys a thread mid-body) but its successor token is
    // dropped, so dst runs once fewer than src.
    let mut b = TaskSetBuilder::new();
    let src = b
        .task_decl(TaskSpec::periodic("src", ms(10)).with_overrun_policy(OverrunPolicy::Kill))
        .unwrap();
    let dst = b.task_decl(TaskSpec::graph_node("dst")).unwrap();
    b.version_decl(src, VersionSpec::new("s", ms(2))).unwrap();
    b.version_decl(dst, VersionSpec::new("d", ms(1))).unwrap();
    let c = b.channel_decl("c", 4, 8);
    b.channel_connect(src, dst, c).unwrap();
    let ts = Arc::new(b.build().unwrap());
    let config = Config::builder()
        .workers(1)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .build()
        .unwrap();
    let mut sim = SimConfig::uniform(1, ms(50));
    sim.exec = ExecModel::Wcet;
    sim.fault_schedule.push((
        Duration::from_micros(1_100),
        FaultEvent::Overrun { task: src },
    ));
    let result = Simulation::new(ts, config, sim).unwrap().run().unwrap();
    assert_eq!(result.engine_stats.overruns, 1);
    assert_eq!(result.records_of(src).count(), 5, "releases at 0..50ms");
    assert_eq!(
        result.records_of(dst).count(),
        4,
        "the killed activation must not fire dst"
    );
}

#[test]
fn crash_fault_retires_through_policy() {
    // Two chains on two workers: a (Kill) -> x and b (LogOnly) -> y.
    // Both roots crash mid-body at 1.1ms. A crash under Kill drops the
    // successor token; under LogOnly downstream still fires (the
    // application tolerates a stale frame).
    let mut b = TaskSetBuilder::new();
    let ta = b
        .task_decl(TaskSpec::periodic("a", ms(10)).with_overrun_policy(OverrunPolicy::Kill))
        .unwrap();
    let tb = b.task_decl(TaskSpec::periodic("b", ms(10))).unwrap();
    let x = b.task_decl(TaskSpec::graph_node("x")).unwrap();
    let y = b.task_decl(TaskSpec::graph_node("y")).unwrap();
    for (t, w) in [(ta, ms(2)), (tb, ms(2)), (x, ms(1)), (y, ms(1))] {
        b.version_decl(t, VersionSpec::new("v", w)).unwrap();
    }
    let ca = b.channel_decl("ca", 4, 8);
    let cb = b.channel_decl("cb", 4, 8);
    b.channel_connect(ta, x, ca).unwrap();
    b.channel_connect(tb, y, cb).unwrap();
    let ts = Arc::new(b.build().unwrap());
    let config = Config::builder()
        .workers(2)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .build()
        .unwrap();
    let mut sim = SimConfig::uniform(2, ms(50));
    sim.exec = ExecModel::Wcet;
    let crash_at = Duration::from_micros(1_100);
    sim.fault_schedule
        .push((crash_at, FaultEvent::Crash { task: ta }));
    sim.fault_schedule
        .push((crash_at, FaultEvent::Crash { task: tb }));
    let result = Simulation::new(ts, config, sim).unwrap().run().unwrap();
    assert_eq!(result.engine_stats.failed, 2);
    // Crashed jobs never complete: 4 records each instead of 5.
    assert_eq!(result.records_of(ta).count(), 4);
    assert_eq!(result.records_of(tb).count(), 4);
    assert_eq!(result.records_of(x).count(), 4, "Kill drops the token");
    assert_eq!(result.records_of(y).count(), 5, "LogOnly still fires");
}

#[test]
fn overload_shedding_bounds_the_backlog() {
    // The fast/slow join from `channel_overflow_is_counted_not_fatal`,
    // but the tight edge now declares a shedding policy: the backlog is
    // dropped instead of growing, and the overflow counter stays clean.
    let run = |policy: BackpressurePolicy| {
        let mut b = TaskSetBuilder::new();
        let fast = b.task_decl(TaskSpec::periodic("fast", ms(10))).unwrap();
        let slow = b.task_decl(TaskSpec::periodic("slow", ms(50))).unwrap();
        let join = b.task_decl(TaskSpec::graph_node("join")).unwrap();
        b.version_decl(fast, VersionSpec::new("f", ms(1))).unwrap();
        b.version_decl(slow, VersionSpec::new("s", ms(1))).unwrap();
        b.version_decl(join, VersionSpec::new("j", ms(1))).unwrap();
        let cf = b.channel_decl_shedding("tight", 1, 4, policy);
        let cs = b.channel_decl("wide", 8, 4);
        b.channel_connect(fast, join, cf).unwrap();
        b.channel_connect(slow, join, cs).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let config = Config::builder()
            .workers(2)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .max_pending_jobs(4096)
            .build()
            .unwrap();
        let mut sim = SimConfig::uniform(2, ms(200));
        sim.exec = ExecModel::Wcet;
        Simulation::new(ts, config, sim).unwrap().run().unwrap()
    };
    for policy in [
        BackpressurePolicy::DropOldest,
        BackpressurePolicy::DeadlineAwareDrop,
    ] {
        let result = run(policy);
        assert!(
            result.engine_stats.shed_drops > 0,
            "{policy:?} must shed: {:?}",
            result.engine_stats
        );
        assert_eq!(
            result.engine_stats.channel_overflows, 0,
            "{policy:?} sheds instead of overflowing"
        );
        assert!(result.records.len() > 5);
    }
}

#[test]
fn miss_storm_trips_and_window_recovers() {
    // One worker, two tasks that together need 16ms per 10ms period:
    // every completion misses. With a 50ms window and a budget of one
    // miss, the trip wire must trip, recover at the window roll, and
    // trip again — at least twice over 200ms.
    let mut b = TaskSetBuilder::new();
    for i in 0..2 {
        let t = b
            .task_decl(TaskSpec::periodic(format!("t{i}"), ms(10)))
            .unwrap();
        b.version_decl(t, VersionSpec::new("v", ms(8))).unwrap();
    }
    let ts = Arc::new(b.build().unwrap());
    let config = Config::builder()
        .workers(1)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .max_pending_jobs(4096)
        .miss_trip(ms(50), 1)
        .build()
        .unwrap();
    let mut sim = SimConfig::uniform(1, ms(200));
    sim.exec = ExecModel::Wcet;
    let result = Simulation::new(ts, config, sim).unwrap().run().unwrap();
    assert!(
        result.engine_stats.miss_trips >= 2,
        "trip wire must trip, recover, and re-trip: {:?}",
        result.engine_stats
    );
}

#[test]
fn fault_schedule_parity_single_owner_vs_sharded() {
    // The same fault schedule (overrun + crash + burst) replayed through
    // the single-owner simulator and the free-running sharded driver
    // must produce bit-identical traces (modulo shard-stamped job ids)
    // and identical fault counters.
    let w0 = WorkerId::new(0);
    let w1 = WorkerId::new(1);
    let mut b = TaskSetBuilder::new();
    let t0 = b
        .task_decl(
            TaskSpec::periodic("t0", ms(10))
                .with_overrun_policy(OverrunPolicy::Kill)
                .on_worker(w0),
        )
        .unwrap();
    let d0 = b
        .task_decl(TaskSpec::graph_node("d0").on_worker(w0))
        .unwrap();
    let t1 = b
        .task_decl(TaskSpec::periodic("t1", ms(10)).on_worker(w1))
        .unwrap();
    let s1 = b
        .task_decl(
            TaskSpec::sporadic("s1", ms(20))
                .with_release_offset(Duration::from_micros(3_700))
                .on_worker(w1),
        )
        .unwrap();
    b.version_decl(t0, VersionSpec::new("v", Duration::from_micros(3_137)))
        .unwrap();
    b.version_decl(d0, VersionSpec::new("v", Duration::from_micros(1_009)))
        .unwrap();
    b.version_decl(t1, VersionSpec::new("v", Duration::from_micros(2_411)))
        .unwrap();
    b.version_decl(s1, VersionSpec::new("v", Duration::from_micros(907)))
        .unwrap();
    let c = b.channel_decl("c", 4, 8);
    b.channel_connect(t0, d0, c).unwrap();
    let ts = Arc::new(b.build().unwrap());

    let config = |sharded: bool| {
        Config::builder()
            .workers(2)
            .mapping(MappingScheme::Partitioned)
            .sharded_dispatch(sharded)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .build()
            .unwrap()
    };
    let mut sim = SimConfig::uniform(2, ms(100));
    sim.exec = ExecModel::Wcet;
    sim.fault_schedule = vec![
        (
            Duration::from_micros(1_501),
            FaultEvent::Overrun { task: t0 },
        ),
        (Duration::from_micros(1_501), FaultEvent::Crash { task: t1 }),
        (
            Duration::from_micros(41_303),
            FaultEvent::Burst { task: s1, count: 3 },
        ),
    ];

    let single = Simulation::new(Arc::clone(&ts), config(false), sim.clone())
        .unwrap()
        .run()
        .unwrap();
    let par = run_partitioned_parallel(
        Arc::clone(&ts),
        config(true),
        sim,
        ParSimOptions {
            producers: 2,
            ..ParSimOptions::default()
        },
    )
    .unwrap();

    assert!(single.engine_stats.overruns >= 1, "the overrun landed");
    assert_eq!(single.engine_stats.failed, 1, "the crash landed");
    assert_eq!(single.engine_stats.overruns, par.engine_stats.overruns);
    assert_eq!(single.engine_stats.failed, par.engine_stats.failed);
    assert_eq!(single.engine_stats.released, par.engine_stats.released);
    assert_eq!(single.engine_stats.completed, par.engine_stats.completed);
    assert_eq!(single.records.len(), par.records.len(), "trace lengths");
    let key = |r: &yasmin::sim::JobRecord| (r.task, r.seq);
    let mut s = single.records.to_vec();
    let mut p = par.records.to_vec();
    s.sort_by_key(key);
    p.sort_by_key(key);
    for (a, b) in s.iter().zip(&p) {
        assert_eq!(key(a), key(b), "record identity");
        assert_eq!(a.release, b.release, "{a:?} vs {b:?}");
        assert_eq!(a.first_start, b.first_start, "{a:?} vs {b:?}");
        assert_eq!(a.completion, b.completion, "{a:?} vs {b:?}");
        assert_eq!(a.version, b.version);
        assert_eq!(a.worker, b.worker);
    }
}

#[test]
fn fault_schedule_through_protocol_loop() {
    // Cross-shard edge: the fault schedule runs through the protocol
    // loop. The overrun kills the first src activation's token; the
    // crash at 11.3ms swallows the second instance entirely; the rest
    // route their tokens across shards.
    let w0 = WorkerId::new(0);
    let w1 = WorkerId::new(1);
    let mut b = TaskSetBuilder::new();
    let src = b
        .task_decl(
            TaskSpec::periodic("src", ms(10))
                .with_overrun_policy(OverrunPolicy::Kill)
                .on_worker(w0),
        )
        .unwrap();
    let dst = b
        .task_decl(TaskSpec::graph_node("dst").on_worker(w1))
        .unwrap();
    b.version_decl(src, VersionSpec::new("s", ms(2))).unwrap();
    b.version_decl(dst, VersionSpec::new("d", ms(1))).unwrap();
    let c = b.channel_decl("c", 4, 8);
    b.channel_connect(src, dst, c).unwrap();
    let ts = Arc::new(b.build().unwrap());
    let config = Config::builder()
        .workers(2)
        .mapping(MappingScheme::Partitioned)
        .sharded_dispatch(true)
        .preemption(false)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .build()
        .unwrap();
    let mut sim = SimConfig::uniform(2, ms(50));
    sim.exec = ExecModel::Wcet;
    sim.fault_schedule = vec![
        (
            Duration::from_micros(1_100),
            FaultEvent::Overrun { task: src },
        ),
        (
            Duration::from_micros(11_300),
            FaultEvent::Crash { task: src },
        ),
    ];
    let result = run_partitioned_parallel(
        ts,
        config,
        sim,
        ParSimOptions {
            producers: 1,
            ..ParSimOptions::default()
        },
    )
    .unwrap();
    assert_eq!(result.engine_stats.overruns, 1);
    assert_eq!(result.engine_stats.failed, 1);
    assert_eq!(
        result.records_of(src).count(),
        4,
        "the crashed instance is gone"
    );
    assert_eq!(
        result.records_of(dst).count(),
        3,
        "killed + crashed activations must not fire dst"
    );
    assert_eq!(result.engine_stats.cross_activations, 3);
}

#[test]
fn worker_panic_is_contained_in_runtime() {
    // A body that panics every time must not take the runtime down:
    // the panic is caught on the worker, the job retires as Failed, and
    // the healthy task keeps completing.
    let mut b = TaskSetBuilder::new();
    let bad = b.task_decl(TaskSpec::periodic("bad", ms(5))).unwrap();
    let good = b.task_decl(TaskSpec::periodic("good", ms(5))).unwrap();
    let vb = b
        .version_decl(bad, VersionSpec::new("v", Duration::from_micros(50)))
        .unwrap();
    let vg = b
        .version_decl(good, VersionSpec::new("v", Duration::from_micros(50)))
        .unwrap();
    let ts = Arc::new(b.build().unwrap());
    let config = Config::builder()
        .workers(2)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .preemption(false)
        .build()
        .unwrap();
    let rt = RuntimeBuilder::new(ts, config)
        .body(bad, vb, |_| panic!("injected body fault"))
        .body(good, vg, |_| {})
        .build()
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(40));
    rt.stop();
    let report = rt.cleanup();
    assert!(report.engine_stats.failed >= 1, "{:?}", report.engine_stats);
    assert!(report
        .records
        .iter()
        .any(|r| r.job.task == bad && r.outcome == JobOutcome::Failed));
    assert!(
        report
            .records
            .iter()
            .filter(|r| r.job.task == good && r.outcome == JobOutcome::Completed)
            .count()
            >= 2,
        "healthy task must keep running"
    );
}

#[test]
fn worker_panic_is_contained_in_sharded_runtime() {
    // Same containment through the sharded runtime (also the TSan smoke
    // for the panic path: catch_unwind on a racing worker thread).
    let mut b = TaskSetBuilder::new();
    let bad = b
        .task_decl(TaskSpec::periodic("bad", ms(5)).on_worker(WorkerId::new(0)))
        .unwrap();
    let good = b
        .task_decl(TaskSpec::periodic("good", ms(5)).on_worker(WorkerId::new(1)))
        .unwrap();
    let vb = b
        .version_decl(bad, VersionSpec::new("v", Duration::from_micros(50)))
        .unwrap();
    let vg = b
        .version_decl(good, VersionSpec::new("v", Duration::from_micros(50)))
        .unwrap();
    let ts = Arc::new(b.build().unwrap());
    let config = Config::builder()
        .workers(2)
        .mapping(MappingScheme::Partitioned)
        .sharded_dispatch(true)
        .preemption(false)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .build()
        .unwrap();
    let rt = RuntimeBuilder::new(ts, config)
        .body(bad, vb, |_| panic!("injected body fault"))
        .body(good, vg, |_| {})
        .build()
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(40));
    rt.stop();
    let report = rt.cleanup();
    assert!(report.engine_stats.failed >= 1, "{:?}", report.engine_stats);
    assert!(report
        .records
        .iter()
        .any(|r| r.job.task == bad && r.outcome == JobOutcome::Failed));
    assert!(report
        .records
        .iter()
        .any(|r| r.job.task == good && r.outcome == JobOutcome::Completed));
}

#[test]
fn sharded_stop_is_loss_free_under_cross_shard_traffic() {
    // Repeatedly tear down a sharded runtime mid-flight while tokens
    // cross shards. The two-phase drain must deliver every in-flight
    // peer message before any shard exits — the debug assertions at
    // shard exit (empty backlog, empty mailbox) turn a lost message
    // into a test failure — and no send may ever hit a closed peer.
    let crossed = Arc::new(AtomicU32::new(0));
    for round in 0..10u64 {
        let mut b = TaskSetBuilder::new();
        let src = b
            .task_decl(TaskSpec::periodic("src", ms(2)).on_worker(WorkerId::new(0)))
            .unwrap();
        let dst = b
            .task_decl(TaskSpec::graph_node("dst").on_worker(WorkerId::new(1)))
            .unwrap();
        let vs = b
            .version_decl(src, VersionSpec::new("v", Duration::from_micros(30)))
            .unwrap();
        let vd = b
            .version_decl(dst, VersionSpec::new("v", Duration::from_micros(30)))
            .unwrap();
        let c = b.channel_decl("c", 8, 8);
        b.channel_connect(src, dst, c).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let config = Config::builder()
            .workers(2)
            .mapping(MappingScheme::Partitioned)
            .sharded_dispatch(true)
            .preemption(false)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .build()
            .unwrap();
        let hits = Arc::clone(&crossed);
        let rt = RuntimeBuilder::new(ts, config)
            .body(src, vs, |_| {})
            .body(dst, vd, move |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            })
            .build()
            .unwrap();
        // Stagger the teardown point so some rounds stop with tokens
        // mid-route.
        std::thread::sleep(std::time::Duration::from_millis(3 + round % 5));
        rt.stop();
        let _ = rt.cleanup(); // must neither hang nor assert
    }
    assert!(
        crossed.load(Ordering::Relaxed) > 0,
        "traffic must actually have crossed shards"
    );
}

#[test]
fn config_misuse_is_rejected_loudly() {
    // Partitioned without assignments.
    let mut b = TaskSetBuilder::new();
    let t = b.task_decl(TaskSpec::periodic("t", ms(10))).unwrap();
    b.version_decl(t, VersionSpec::new("v", ms(1))).unwrap();
    let ts = Arc::new(b.build().unwrap());
    let config = Config::builder()
        .workers(2)
        .mapping(MappingScheme::Partitioned)
        .build()
        .unwrap();
    assert!(OnlineEngine::new(Arc::clone(&ts), config).is_err());

    // Simulator with more workers than cores.
    let config = Config::builder().workers(4).build().unwrap();
    assert!(Simulation::new(ts, config, SimConfig::uniform(2, ms(10))).is_err());
}
