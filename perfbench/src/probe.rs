//! Per-layer probes: each times one public call of one crate, from
//! outside, on the benchmark's main thread (plus one echo thread for
//! the round trips). They run in the traced pass only.

use crate::outcome::Outcome;
use crate::stats::{us, Dist};
use crate::trace::Tracer;
use std::sync::Arc;
use std::time::Instant as WallInstant;
use yasmin_baselines::cyclictest::{run_real, CyclictestConfig};
use yasmin_core::config::Config;
use yasmin_core::graph::TaskSet;
use yasmin_core::ids::{JobId, TaskId, WorkerId};
use yasmin_core::time::{Duration, Instant};
use yasmin_sched::{Action, ActionSink, EngineShard, JobBatch, OnlineEngine};
use yasmin_sync::wait::{wait_until, Backoff, WaitMode};

/// Round trips per ping-pong probe.
const RTT_ROUNDS: usize = 20_000;
/// Waits per `wait_until` mode.
const WAITS: usize = 300;
/// Periods of the bare cyclictest thread.
const BARE_LOOPS: usize = 500;

fn ns(d: std::time::Duration) -> f64 {
    d.as_nanos() as f64
}

/// Median round trip of `rounds` ping-pongs: `ping` sends `i` and
/// blocks for the echo; the echo thread runs `echo` until it returns.
fn ping_pong(mut ping: impl FnMut(u64) -> u64, echo: impl FnOnce() + Send) -> f64 {
    let mut d = Dist::new();
    std::thread::scope(|s| {
        s.spawn(echo);
        for i in 0..RTT_ROUNDS as u64 {
            let t0 = WallInstant::now();
            let back = ping(i);
            d.push(ns(t0.elapsed()));
            assert_eq!(back, i, "echo returned a foreign payload");
        }
        // Ends the echo loop.
        ping(u64::MAX);
    });
    d.median().expect("probe recorded samples")
}

/// The `yasmin_sync` layer and its vendored channel: hand-off round
/// trips and timer-wake lateness at the workload's tick.
pub fn sync_layer(tr: &mut Tracer, o: &mut Outcome, tick: Duration) {
    let open = tr.begin("sync", "sync.chan_rtt", None);
    let (to_echo, echo_rx) = crossbeam::channel::bounded::<u64>(1);
    let (echo_tx, from_echo) = crossbeam::channel::bounded::<u64>(1);
    let rtt = ping_pong(
        |i| {
            to_echo.send(i).expect("echo thread alive");
            from_echo.recv().expect("echo thread alive")
        },
        move || {
            while let Ok(v) = echo_rx.recv() {
                echo_tx.send(v).expect("pinger alive");
                if v == u64::MAX {
                    break;
                }
            }
        },
    );
    tr.end(open);
    o.set("sync.chan_rtt_ns", rtt, "ns");

    let open = tr.begin("sync", "sync.spsc_rtt", None);
    let (mut to_echo, mut echo_rx) = yasmin_sync::spsc::channel::<u64>(4);
    let (mut echo_tx, mut from_echo) = yasmin_sync::spsc::channel::<u64>(4);
    let rtt = ping_pong(
        |i| {
            to_echo
                .push(i)
                .expect("ring has room: one message in flight");
            spin_pop(|| from_echo.pop())
        },
        move || loop {
            let v = spin_pop(|| echo_rx.pop());
            echo_tx
                .push(v)
                .expect("ring has room: one message in flight");
            if v == u64::MAX {
                break;
            }
        },
    );
    tr.end(open);
    o.set("sync.spsc_rtt_ns", rtt, "ns");

    let open = tr.begin("sync", "sync.mailbox_rtt", None);
    let (mut to_echo, mut echo_rx) = yasmin_sync::mailbox::mailbox::<u64>(1, 4);
    let (mut echo_tx, mut from_echo) = yasmin_sync::mailbox::mailbox::<u64>(1, 4);
    let mut to_echo = to_echo.pop().expect("one lane");
    let mut echo_tx = echo_tx.pop().expect("one lane");
    let rtt = ping_pong(
        |i| {
            to_echo.send(i).expect("lane has room");
            spin_pop(|| from_echo.try_recv())
        },
        move || loop {
            let v = spin_pop(|| echo_rx.try_recv());
            echo_tx.send(v).expect("lane has room");
            if v == u64::MAX {
                break;
            }
        },
    );
    tr.end(open);
    o.set("sync.mailbox_rtt_ns", rtt, "ns");

    let period: std::time::Duration = tick.into();
    for (mode, name, metric) in [
        (
            WaitMode::HybridSpin {
                spin_window_us: 200,
            },
            "sync.wait_until_hybrid",
            "sync.wait_late_hybrid_us",
        ),
        (
            WaitMode::Sleep,
            "sync.wait_until_sleep",
            "sync.wait_late_sleep_us",
        ),
    ] {
        let open = tr.begin("sync", name, None);
        let mut d = Dist::new();
        let mut next = WallInstant::now() + period;
        for _ in 0..WAITS {
            d.push(ns(wait_until(mode, next)) / 1e3);
            next += period;
        }
        tr.end(open);
        o.set(metric, d.median().expect("waits recorded"), "us");
    }
}

fn spin_pop<T>(mut pop: impl FnMut() -> Option<T>) -> T {
    let mut backoff = Backoff::new();
    loop {
        if let Some(v) = pop() {
            return v;
        }
        backoff.snooze();
    }
}

/// The bare-thread baseline: one cyclictest thread at the tick period.
pub fn bare_wake(tr: &mut Tracer, o: &mut Outcome, tick: Duration) {
    let cfg = CyclictestConfig {
        threads: 1,
        interval: tick,
        loops: BARE_LOOPS,
    };
    let (summary, _) = tr.timed("baselines", "baselines.run_real", || run_real(&cfg));
    let mean_ns = summary.mean().expect("cyclictest recorded wakes");
    o.set("baselines.bare_wake_us", mean_ns / 1e3, "us");
}

/// Replays `taskset` through a fresh engine on the main thread, at
/// simulated time, timing each engine call: every tick, then the
/// completion of every dispatched job half a tick later, plus one
/// activation of `aperiodic` every fourth tick when given.
pub fn sched_replay(
    tr: &mut Tracer,
    o: &mut Outcome,
    taskset: &Arc<TaskSet>,
    config: &Config,
    aperiodic: Option<TaskId>,
    ticks: usize,
) {
    let open = tr.begin("sched", "sched.replay", None);
    let mut engine = OnlineEngine::new(Arc::clone(taskset), config.clone())
        .expect("workload task set builds an engine");
    let tick = engine.tick_period();
    let half = Duration::from_nanos(tick.as_nanos() / 2);
    let mut sink = ActionSink::new();
    let mut running: Vec<Option<JobId>> = vec![None; config.workers()];
    let track = |sink: &ActionSink, running: &mut Vec<Option<JobId>>| {
        for a in sink.as_slice() {
            match *a {
                Action::Dispatch { worker, job, .. } => running[worker.index()] = Some(job.id),
                Action::Preempt { worker, .. } => running[worker.index()] = None,
                Action::Boost { .. } => {}
            }
        }
    };
    let (mut on_tick, mut completed, mut activate) = (Dist::new(), Dist::new(), Dist::new());
    let mut now = Instant::ZERO;
    engine
        .start_into(now, &mut sink)
        .expect("fresh engine starts");
    track(&sink, &mut running);
    let mut done: Vec<(WorkerId, JobId)> = Vec::with_capacity(running.len());
    for i in 0..ticks {
        let mid = now + half;
        done.clear();
        for (w, slot) in running.iter_mut().enumerate() {
            if let Some(job) = slot.take() {
                done.push((WorkerId::new(w as u16), job));
            }
        }
        if !done.is_empty() {
            sink.clear();
            let t0 = WallInstant::now();
            engine
                .on_jobs_completed_into(&done, mid, &mut sink)
                .expect("replay completes only running jobs");
            completed.push(ns(t0.elapsed()));
            track(&sink, &mut running);
        }
        if let Some(task) = aperiodic.filter(|_| i % 4 == 0) {
            sink.clear();
            let t0 = WallInstant::now();
            engine
                .activate_into(task, mid, &mut sink)
                .expect("aperiodic task activates");
            activate.push(ns(t0.elapsed()));
            track(&sink, &mut running);
        }
        now += tick;
        sink.clear();
        let t0 = WallInstant::now();
        engine.on_tick_into(now, &mut sink);
        on_tick.push(ns(t0.elapsed()));
        track(&sink, &mut running);
    }
    tr.end(open);
    for (name, d) in [
        ("sched.on_tick", &mut on_tick),
        ("sched.on_jobs_completed", &mut completed),
        ("sched.activate", &mut activate),
    ] {
        o.set(&format!("{name}_ns"), d.median().unwrap_or(0.0), "ns");
        o.set(
            &format!("{name}_tail_ns"),
            d.tail().map_or(0.0, |t| t.1),
            "ns",
        );
    }
}

/// Replays batch steals between two shards of `taskset` (a partitioned,
/// sharded configuration): `task`, pinned to the victim shard's worker,
/// is activated nine times — one runs, eight wait — and the thief
/// takes the waiting ones in one exchange, timed from the victim's
/// probe through the thief's adoption.
pub fn steal_replay(
    tr: &mut Tracer,
    o: &mut Outcome,
    taskset: &Arc<TaskSet>,
    config: &Config,
    task: TaskId,
    rounds: usize,
) {
    let open = tr.begin("sched", "sched.steal_replay", None);
    let mut shards = EngineShard::build_all(taskset, config).expect("sharded engines build");
    let victim_w = taskset
        .task(task)
        .expect("steal task exists")
        .spec()
        .assigned_worker()
        .expect("steal task is pinned")
        .index();
    let (a, b) = shards.split_at_mut(1);
    let (victim, thief) = if victim_w == 0 {
        (&mut a[0], &mut b[0])
    } else {
        (&mut b[0], &mut a[0])
    };
    let step = Duration::from_micros(1);
    let mut sink = ActionSink::new();
    let mut now = Instant::ZERO;
    let mut hints = Vec::with_capacity(yasmin_sched::MAX_STEAL_BATCH);
    let mut batch = JobBatch::new();
    let mut d = Dist::new();
    for _ in 0..rounds {
        for _ in 0..=yasmin_sched::MAX_STEAL_BATCH {
            now += step;
            sink.clear();
            victim
                .activate_into(task, now, &mut sink)
                .expect("victim activates its task");
        }
        now += step;
        batch.clear();
        sink.clear();
        let t0 = WallInstant::now();
        victim.try_steal_batch(yasmin_sched::MAX_STEAL_BATCH, &mut hints);
        victim.release_stolen_batch(&hints, &mut batch);
        thief
            .adopt_stolen_batch(batch.as_slice(), now, &mut sink)
            .expect("thief adopts a foreign batch");
        d.push(ns(t0.elapsed()));
        // Untimed: drain both shards back to idle.
        for shard in [&mut *thief, &mut *victim] {
            while let Some(r) = shard.running().copied() {
                now += step;
                sink.clear();
                shard
                    .on_job_completed_into(shard.worker(), r.job.id, now, &mut sink)
                    .expect("completion of the running job");
            }
        }
    }
    tr.end(open);
    o.set("sched.steal_batch_ns", d.median().unwrap_or(0.0), "ns");
    o.set(
        "sched.steal_batch_tail_ns",
        d.tail().map_or(0.0, |t| t.1),
        "ns",
    );
}

/// Engine counters of a finished run.
pub fn engine_counters(o: &mut Outcome, s: &yasmin_sched::EngineStats) {
    o.set("sched.released", s.released as f64, "count");
    o.set("sched.completed", s.completed as f64, "count");
    o.set("sched.stolen", s.stolen as f64, "count");
    o.set("sched.stolen_batch", s.stolen_batch as f64, "count");
    o.set(
        "sched.cross_activations",
        s.cross_activations as f64,
        "count",
    );
    o.set("sched.culled", s.culled as f64, "count");
    o.set("sched.budget_deferrals", s.budget_deferrals as f64, "count");
    let cap = (s.stolen_batch * yasmin_sched::MAX_STEAL_BATCH as u64) as f64;
    o.set(
        "sched.steal_yield",
        if cap > 0.0 {
            s.stolen as f64 / cap
        } else {
            0.0
        },
        "ratio",
    );
}

/// Median of a set of call durations, in microseconds.
pub fn median_us(calls: &[std::time::Duration]) -> f64 {
    let mut d = Dist::new();
    for c in calls {
        d.push(us(u64::try_from(c.as_nanos()).unwrap_or(u64::MAX)));
    }
    d.median().unwrap_or(0.0)
}
