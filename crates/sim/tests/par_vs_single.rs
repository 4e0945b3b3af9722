//! The PR 3 acceptance check: the multi-threaded sharded driver (N
//! producer threads feeding per-worker engine shards through the
//! lock-free command mailbox) must produce **the same trace** as the
//! single-threaded simulation for the same partitioned task set.
//!
//! Job ids are excluded from the comparison — shards stamp their worker
//! index into the id's high bits — so records are matched on the
//! semantically meaningful identity `(task, seq)` and compared on every
//! timing/placement field.

use std::sync::Arc;
use yasmin_core::config::{Config, MappingScheme};
use yasmin_core::graph::{TaskSet, TaskSetBuilder};
use yasmin_core::ids::WorkerId;
use yasmin_core::priority::PriorityPolicy;
use yasmin_core::task::TaskSpec;
use yasmin_core::time::Duration;
use yasmin_core::version::VersionSpec;
use yasmin_sim::{run_partitioned_parallel, ParSimOptions, SimConfig, Simulation};
use yasmin_taskgen::taskset::{build_partitioned, IndependentSetParams};

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

fn us(v: u64) -> Duration {
    Duration::from_micros(v)
}

fn config(workers: usize, sharded: bool) -> Config {
    Config::builder()
        .workers(workers)
        .mapping(MappingScheme::Partitioned)
        .sharded_dispatch(sharded)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .build()
        .unwrap()
}

/// Runs both drivers and asserts trace + aggregate equality.
fn assert_traces_match(ts: &Arc<TaskSet>, workers: usize, horizon: Duration, producers: usize) {
    let sim = SimConfig::uniform(workers, horizon);
    let single = Simulation::new(Arc::clone(ts), config(workers, false), sim.clone())
        .unwrap()
        .run()
        .unwrap();
    let par = run_partitioned_parallel(
        Arc::clone(ts),
        config(workers, true),
        sim,
        ParSimOptions {
            producers,
            ..ParSimOptions::default()
        },
    )
    .unwrap();

    assert_eq!(single.records.len(), par.records.len(), "trace lengths");
    let key = |r: &yasmin_sim::JobRecord| (r.task, r.seq);
    let mut s = single.records.to_vec();
    let mut p = par.records.to_vec();
    s.sort_by_key(key);
    p.sort_by_key(key);
    for (a, b) in s.iter().zip(&p) {
        assert_eq!(key(a), key(b), "record identity");
        assert_eq!(a.release, b.release, "{:?} vs {:?}", a, b);
        assert_eq!(a.graph_release, b.graph_release);
        assert_eq!(a.abs_deadline, b.abs_deadline);
        assert_eq!(a.first_start, b.first_start, "{:?} vs {:?}", a, b);
        assert_eq!(a.completion, b.completion, "{:?} vs {:?}", a, b);
        assert_eq!(a.version, b.version);
        assert_eq!(a.worker, b.worker);
        assert_eq!(a.preemptions, b.preemptions);
    }

    assert_eq!(single.unfinished, par.unfinished);
    assert_eq!(single.unfinished_missed, par.unfinished_missed);
    assert_eq!(single.engine_stats.released, par.engine_stats.released);
    assert_eq!(single.engine_stats.dispatched, par.engine_stats.dispatched);
    assert_eq!(single.engine_stats.completed, par.engine_stats.completed);
    assert_eq!(single.engine_stats.preempted, par.engine_stats.preempted);
    assert_eq!(single.worker_busy, par.worker_busy);
    assert_eq!(
        single.energy.as_microjoules(),
        par.energy.as_microjoules(),
        "per-shard energy accounting must sum to the whole-system figure"
    );
}

/// Mixed periodic + sporadic set across two workers. WCETs are odd
/// microsecond values and the sporadic offset is off the tick grid, so
/// no event ever ties with an event from a different source — ordering
/// is then a pure function of simulated time on both drivers.
fn mixed_two_worker_set() -> Arc<TaskSet> {
    let w0 = WorkerId::new(0);
    let w1 = WorkerId::new(1);
    let mut b = TaskSetBuilder::new();
    let a = b
        .task_decl(TaskSpec::periodic("a", ms(10)).on_worker(w0))
        .unwrap();
    let s = b
        .task_decl(
            TaskSpec::sporadic("s", ms(20))
                .with_release_offset(ms(1))
                .on_worker(w0),
        )
        .unwrap();
    let bb = b
        .task_decl(
            TaskSpec::periodic("b", ms(20))
                .with_constrained_deadline(ms(18))
                .on_worker(w1),
        )
        .unwrap();
    let c = b
        .task_decl(TaskSpec::periodic("c", ms(40)).on_worker(w1))
        .unwrap();
    b.version_decl(a, VersionSpec::new("a", us(3_137))).unwrap();
    b.version_decl(s, VersionSpec::new("s", us(2_411))).unwrap();
    b.version_decl(bb, VersionSpec::new("b", us(7_253)))
        .unwrap();
    b.version_decl(c, VersionSpec::new("c", us(9_101))).unwrap();
    Arc::new(b.build().unwrap())
}

#[test]
fn par_driver_matches_single_thread_mixed_sporadic() {
    let ts = mixed_two_worker_set();
    // ≥ 4 producer threads per the acceptance criterion.
    assert_traces_match(&ts, 2, ms(200), 4);
}

#[test]
fn par_driver_matches_single_thread_generated_periodic() {
    // A larger generated set: 24 periodic tasks worst-fit partitioned
    // over 3 workers at U = 2.2, enough to preempt. No sporadics: every
    // event is shard-local, so even same-instant ties are resolved
    // identically by both drivers (the shard's push order mirrors the
    // single-owner engine's within each worker).
    let ts = Arc::new(
        build_partitioned(
            &IndependentSetParams {
                n: 24,
                total_utilisation: 2.2,
                seed: 7,
                ..IndependentSetParams::default()
            },
            3,
        )
        .unwrap(),
    );
    assert_traces_match(&ts, 3, ms(300), 4);
}

#[test]
fn par_driver_handles_more_producers_than_tasks() {
    let ts = mixed_two_worker_set();
    assert_traces_match(&ts, 2, ms(100), 8);
}

#[test]
fn par_driver_survives_schedules_far_beyond_the_lane_floor() {
    // Regression: with bounded lanes, producer 0 blocked on shard 0's
    // full lane while shard 1 waits on producer 0's open-but-empty lane
    // (and symmetrically) deadlocked the watermark merge. Lanes are now
    // sized to the full per-producer schedule, so a 150-activation
    // stream against a floor of 8 must complete — and still match the
    // single-threaded trace.
    let mut b = TaskSetBuilder::new();
    for w in 0..2u16 {
        let t = b
            .task_decl(
                TaskSpec::sporadic(format!("s{w}"), ms(1))
                    .with_release_offset(us(300 + 400 * u64::from(w)))
                    .on_worker(WorkerId::new(w)),
            )
            .unwrap();
        b.version_decl(t, VersionSpec::new("v", us(97))).unwrap();
    }
    let ts = Arc::new(b.build().unwrap());
    assert_traces_match(&ts, 2, ms(150), 2);
}

#[test]
fn par_driver_matches_single_thread_at_the_horizon_edge() {
    // Regression: the single-threaded driver releases a sporadic root
    // whose offset lands *exactly* on the horizon (its event filter is
    // inclusive); the producer schedules must do the same or released/
    // unfinished counts diverge.
    let mut b = TaskSetBuilder::new();
    let s = b
        .task_decl(
            TaskSpec::sporadic("edge", ms(20))
                .with_release_offset(ms(50))
                .on_worker(WorkerId::new(0)),
        )
        .unwrap();
    b.version_decl(s, VersionSpec::new("v", us(500))).unwrap();
    let p = b
        .task_decl(TaskSpec::periodic("p", ms(10)).on_worker(WorkerId::new(0)))
        .unwrap();
    b.version_decl(p, VersionSpec::new("v", us(713))).unwrap();
    let ts = Arc::new(b.build().unwrap());
    let single = Simulation::new(
        Arc::clone(&ts),
        config(1, false),
        SimConfig::uniform(1, ms(50)),
    )
    .unwrap()
    .run()
    .unwrap();
    assert_eq!(single.unfinished, 1, "horizon-edge release is counted");
    assert_traces_match(&ts, 1, ms(50), 4);
}
