//! `cyclic` — the paper's §4.2 cyclictest shape on the single-owner
//! `Runtime`: global EDF, one worker plus the scheduler thread, four
//! empty-bodied periodic tasks at harmonic 1/1/2/4 ms periods, so most
//! ticks release several jobs at once and all of them queue for the one
//! worker. Nearly all of a job's start latency is spent in `rt` and
//! `sync` (timer wake, channel hand-off, worker wake), very little in
//! `sched`; an engine-only change should not move it.
//!
//! The seed draws the declared WCETs (which only admission reads) and
//! the declaration order; the runtime's behaviour does not depend on
//! either, so run-to-run differences are the host's and the code's.

use crate::outcome::Outcome;
use crate::probe;
use crate::records::{self, Calibration, InstanceFigures};
use crate::stats::{us, Dist};
use crate::trace::Tracer;
use crate::Ctx;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use std::time::Instant as WallInstant;
use yasmin_core::config::Config;
use yasmin_core::graph::{TaskSet, TaskSetBuilder};
use yasmin_core::priority::PriorityPolicy;
use yasmin_core::task::TaskSpec;
use yasmin_core::time::Duration;
use yasmin_core::version::VersionSpec;
use yasmin_rt::{Runtime, RuntimeBuilder};
use yasmin_sched::admission::AdmissionControl;

/// Task periods in ms; the gcd (the scheduler tick) is 1 ms.
const PERIODS_MS: [u64; 4] = [1, 1, 2, 4];
/// Total declared utilisation, split over the tasks by UUniFast.
const DECLARED_UTIL: f64 = 0.08;
/// Length of one runtime instance. Short, so that a run samples the
/// per-instance start-up skew (README.md, Findings) hundreds of times
/// and its median over instances settles within the run.
const INSTANCE: std::time::Duration = std::time::Duration::from_millis(50);
/// Jobs released before this much of an instance are warm-up, not
/// measured.
const WARMUP: std::time::Duration = std::time::Duration::from_millis(10);
/// Runtime threads: the worker and the scheduler.
pub const RUNTIME_THREADS: usize = 2;

/// The seeded inputs: `(period, declared WCET)` per task, in
/// declaration order.
pub fn generate(seed: u64) -> Vec<(Duration, Duration)> {
    let utils = yasmin_taskgen::uunifast(PERIODS_MS.len(), DECLARED_UTIL, seed);
    let mut tasks: Vec<(Duration, Duration)> = PERIODS_MS
        .iter()
        .zip(&utils)
        .map(|(&p, &u)| {
            let period = Duration::from_millis(p);
            let wcet_ns = ((period.as_nanos() as f64 * u) as u64).max(1_000);
            (period, Duration::from_nanos(wcet_ns))
        })
        .collect();
    // Fisher–Yates over the declaration order.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_c1c1);
    for i in (1..tasks.len()).rev() {
        let j = rng.random_range(0..=i);
        tasks.swap(i, j);
    }
    tasks
}

fn config() -> Config {
    Config::builder()
        .workers(1)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .preemption(false)
        .build()
        .expect("valid cyclic config")
}

fn build_taskset(params: &[(Duration, Duration)]) -> TaskSet {
    let mut b = TaskSetBuilder::new();
    for (i, &(period, wcet)) in params.iter().enumerate() {
        let t = b
            .task_decl(TaskSpec::periodic(format!("cyclic{i}"), period))
            .expect("valid periodic task");
        b.version_decl(t, VersionSpec::new("v", wcet))
            .expect("valid version");
    }
    b.build().expect("valid cyclic task set")
}

fn runtime(ts: &Arc<TaskSet>, body_cal: Option<(Arc<Calibration>, WallInstant)>) -> Runtime {
    let mut builder = RuntimeBuilder::new(Arc::clone(ts), config());
    for t in ts.tasks() {
        builder = match &body_cal {
            None => builder.body(t.id(), yasmin_core::ids::VersionId::new(0), |_| {}),
            Some((cal, epoch)) => {
                let (cal, epoch) = (Arc::clone(cal), *epoch);
                builder.body(t.id(), yasmin_core::ids::VersionId::new(0), move |ctx| {
                    let now = u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    cal.note(ctx.job.id.raw(), now);
                })
            }
        };
    }
    builder.build().expect("cyclic runtime builds")
}

/// Per-job figures pooled over every instance of a run.
#[derive(Default)]
struct Pooled {
    start: Dist,
    first: Dist,
    queue: Dist,
    gaps: Dist,
    body: Dist,
    misses: u64,
    jobs: u64,
    stats: yasmin_sched::EngineStats,
}

impl Pooled {
    /// Room for every job of a run of `seconds`, so the pooled vectors
    /// never reallocate.
    fn new(seconds: std::time::Duration) -> Self {
        let jobs_per_s: f64 = PERIODS_MS.iter().map(|&p| 1_000.0 / p as f64).sum();
        let n = (seconds.as_secs_f64() * jobs_per_s * 1.1) as usize;
        Pooled {
            start: Dist::with_capacity(n),
            first: Dist::with_capacity(n),
            queue: Dist::with_capacity(n),
            gaps: Dist::with_capacity(n),
            body: Dist::with_capacity(n),
            ..Pooled::default()
        }
    }
}

/// Runs one runtime instance for its share of the run, pooling per-job
/// figures and engine counters; its gated latency is the median start
/// latency of its jobs.
fn instance(
    slice: std::time::Duration,
    tr: &mut Tracer,
    o: &mut Outcome,
    (rt, cal): (Runtime, Arc<Calibration>),
    pooled: &mut Pooled,
) -> InstanceFigures {
    // CPU time is taken over the measured window only, so thread
    // start-up and teardown do not count as per-job overhead.
    let run = tr.begin("bench", "cyclic.run", None);
    std::thread::sleep(WARMUP);
    let cpu0 = crate::sys::process_cpu();
    std::thread::sleep(slice.saturating_sub(WARMUP));
    let cpu = crate::sys::process_cpu() - cpu0;
    tr.end(run);
    rt.stop();
    let (report, cleanup) = tr.timed("rt", "rt.cleanup", || rt.cleanup());

    let stats = &report.engine_stats;
    let records = &report.records;
    records::common_checks(o, stats, records);
    let warm = yasmin_core::time::Instant::from_nanos(
        u64::try_from(WARMUP.as_nanos()).expect("warm-up fits"),
    );
    let lost = records::never_completed(stats);
    let mut start = Dist::new();
    let mut misses = lost;
    for r in records.iter().filter(|r| r.job.release >= warm) {
        let lat = us(r.start_latency().as_nanos());
        start.push(lat);
        pooled.start.push(lat);
        misses += u64::from(r.missed());
    }
    for _ in 0..lost {
        start.push_missing();
        pooled.start.push_missing();
    }
    pooled.jobs += start.count() as u64;
    pooled.misses += misses;

    // Hop attribution on the single worker: a job that found the worker
    // idle waited for the timer wake, the engine round and the hand-off
    // (`first_start`); one released while another ran waited for that
    // job (`queue_wait`) and then for the hand-off (`handoff_gap`).
    let mut by_start: Vec<_> = records.iter().collect();
    by_start.sort_by_key(|r| r.started);
    for pair in by_start.windows(2) {
        let (prev, r) = (pair[0], pair[1]);
        if r.job.release < warm {
            continue;
        }
        if prev.completed > r.job.release {
            let q = prev.completed.saturating_since(r.job.release);
            let g = r.started.saturating_since(prev.completed);
            pooled.queue.push(us(q.as_nanos()));
            pooled.gaps.push(us(g.as_nanos()));
        } else {
            pooled.first.push(us(r.start_latency().as_nanos()));
        }
    }
    for r in records {
        pooled
            .body
            .push(us(r.completed.saturating_since(r.started).as_nanos()));
    }
    pooled.stats.merge(stats);
    records::job_spans(tr, &cal, records);

    let measured = start.count().max(1);
    InstanceFigures {
        latency_us: start.median().unwrap_or(f64::INFINITY),
        cpu_us_per_job: cpu.as_secs_f64() * 1e6 / measured as f64,
        cleanup,
    }
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Outcome {
    let mut o = Outcome {
        threads: RUNTIME_THREADS + 1,
        ..Outcome::default()
    };
    let root = tr.begin("bench", "cyclic", None);
    let mut pooled = Pooled::new(ctx.seconds);
    let mut ts = None;
    records::drive_instances(
        ctx,
        INSTANCE,
        tr,
        &mut o,
        |tr, _| {
            // Set-up: generation + task-set build + runtime build.
            let (params, g) = tr.timed("taskgen", "taskgen.uunifast", || generate(ctx.seed));
            let (set, b) = tr.timed("core", "core.taskset_build", || {
                Arc::new(build_taskset(&params))
            });
            let cal = Calibration::new();
            let traced = tr.enabled().then(|| (Arc::clone(&cal), ctx.epoch));
            let (rt, r) = tr.timed("rt", "rt.build", || runtime(&set, traced));
            ts = Some(set);
            ((rt, cal), [g, b, r])
        },
        |tr, o, slice, rt| instance(slice, tr, o, rt, &mut pooled),
    );
    let ts = ts.expect("at least one instance");
    o.attempted = pooled.jobs;
    let start = &mut pooled.start;
    o.set(
        "e2e.start_latency_p50_us",
        start.median().unwrap_or(0.0),
        "us",
    );
    if let Some((p, v)) = start.tail() {
        o.set("e2e.latency_tail_us", v, "us");
        o.set("e2e.latency_tail_pct", p, "%");
        o.set("e2e.start_latency_tail_us", v, "us");
    }
    o.set("e2e.samples", start.count() as f64, "count");
    o.set(
        "e2e.deadline_miss_ratio",
        pooled.misses as f64 / pooled.jobs.max(1) as f64,
        "ratio",
    );
    let first_start = pooled.first.median().unwrap_or(0.0);
    o.set("rt.first_start_us", first_start, "us");
    o.set(
        "rt.queue_wait_us",
        pooled.queue.median().unwrap_or(0.0),
        "us",
    );
    o.set(
        "rt.handoff_gap_us",
        pooled.gaps.median().unwrap_or(0.0),
        "us",
    );
    o.set("rt.body_us", pooled.body.median().unwrap_or(0.0), "us");
    probe::engine_counters(&mut o, &pooled.stats);

    // Admission of the generated set against an empty system.
    let tick = ts.scheduler_tick().expect("periodic set has a tick");
    let gate = AdmissionControl::new(config(), tick);
    let empty = TaskSetBuilder::new().build().expect("empty set builds");
    let (verdict, eval) = tr.timed("analysis", "analysis.evaluate", || {
        gate.evaluate(&empty, &ts, None)
    });
    o.check("generated_set_is_admitted", u64::from(verdict.is_err()));
    o.set("analysis.evaluate_us", eval.as_secs_f64() * 1e6, "us");

    if tr.enabled() {
        probe::sync_layer(tr, &mut o, tick);
        probe::bare_wake(tr, &mut o, tick);
        let bare = o.get("baselines.bare_wake_us").unwrap_or(0.0);
        // Mean over mean: the baseline reports min/max/mean only.
        let mean = pooled.start.mean().unwrap_or(0.0);
        o.set(
            "rt.vs_bare_ratio",
            if bare > 0.0 { mean / bare } else { 0.0 },
            "ratio",
        );
        probe::sched_replay(tr, &mut o, &ts, &config(), None, 20_000);
        // How much of an idle-worker start the separately measured
        // layer costs explain: the timer wake's lateness (the scheduler
        // blocks in `recv_timeout`, a kernel sleep, until the tick, so
        // the Sleep-mode figure), one engine round and one channel
        // hand-off with its wake (half a ping-pong).
        let get = |name| o.get(name).unwrap_or(0.0);
        let explained = get("sync.wait_late_sleep_us")
            + get("sched.on_tick_ns") / 1e3
            + get("sync.chan_rtt_ns") / 2e3;
        o.set(
            "rt.accounted_share",
            records::share(explained, first_start),
            "ratio",
        );
    }
    tr.end(root);
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = format!("{:?}", build_taskset(&generate(42)).tasks());
        let b = format!("{:?}", build_taskset(&generate(42)).tasks());
        assert_eq!(a, b);
        assert_ne!(generate(42), generate(43));
    }
}
