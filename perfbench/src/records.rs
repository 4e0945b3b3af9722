//! The real-time workloads' instance driver, and the checks and hop
//! attribution over their runtimes' job records.

use crate::outcome::Outcome;
use crate::stats::{median_of, us, Dist};
use crate::trace::{Span, Tracer};
use crate::Ctx;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use yasmin_core::time::Instant;
use yasmin_rt::RtJobRecord;
use yasmin_sched::{EngineStats, JobOutcome};

/// Checks every runtime run must pass, whatever its workload:
///
/// * every released job retires exactly once (completed + failed +
///   culled = released, one record per completed or failed job, no
///   `(task, seq)` recorded twice) — a job that never retired is
///   counted here;
/// * no body starts before its job's release;
/// * no body failed.
pub fn common_checks(o: &mut Outcome, stats: &EngineStats, records: &[RtJobRecord]) {
    let retired = stats.completed + stats.failed + stats.culled;
    let mut seen = HashSet::with_capacity(records.len());
    let dupes = records
        .iter()
        .filter(|r| !seen.insert((r.job.task, r.job.seq)))
        .count() as u64;
    let recorded = records.len() as u64;
    o.check(
        "released_jobs_retire_exactly_once",
        stats.released.abs_diff(retired)
            + recorded.abs_diff(stats.completed + stats.failed)
            + dupes,
    );
    o.check(
        "no_body_starts_before_release",
        records.iter().filter(|r| r.started < r.job.release).count() as u64,
    );
    o.check(
        "no_job_fails",
        records
            .iter()
            .filter(|r| r.outcome == JobOutcome::Failed)
            .count() as u64,
    );
}

/// Jobs released but never completed (`released − completed − failed −
/// culled`, never negative).
pub fn never_completed(stats: &EngineStats) -> u64 {
    stats
        .released
        .saturating_sub(stats.completed + stats.failed + stats.culled)
}

/// Hand-off gaps per worker: a worker's completion → its next start,
/// for next jobs already `ready` when the previous one completed.
pub fn handoff_gaps(
    records: &[RtJobRecord],
    ready: impl Fn(&RtJobRecord) -> Instant,
    into: &mut Dist,
) {
    let mut by_start: Vec<&RtJobRecord> = records.iter().collect();
    by_start.sort_by_key(|r| (r.worker, r.started));
    for pair in by_start.windows(2) {
        let (prev, next) = (pair[0], pair[1]);
        if prev.worker == next.worker && ready(next) <= prev.completed {
            into.push(us(next.started.saturating_since(prev.completed).as_nanos()));
        }
    }
}

/// Where a job's body saw the benchmark's wall clock first: the job id
/// and nanoseconds since the tracer epoch. Lets the traced pass place
/// the runtime's own clock (which starts inside `build()`) on the
/// tracer's timeline.
#[derive(Default)]
pub struct Calibration {
    job: AtomicU64,
    wall_ns: AtomicU64,
}

impl Calibration {
    pub fn new() -> Arc<Self> {
        Arc::new(Calibration {
            job: AtomicU64::new(u64::MAX),
            wall_ns: AtomicU64::new(0),
        })
    }

    /// Called at the top of a traced body; keeps the first job only.
    pub fn note(&self, job: u64, wall_ns: u64) {
        if self
            .job
            .compare_exchange(u64::MAX, job, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.wall_ns.store(wall_ns, Ordering::Release);
        }
    }

    /// Offset to add to a runtime instant to land on the tracer's
    /// timeline, from the calibration job's record.
    fn offset(&self, records: &[RtJobRecord]) -> Option<i128> {
        let job = self.job.load(Ordering::Acquire);
        let r = records.iter().find(|r| r.job.id.raw() == job)?;
        Some(i128::from(self.wall_ns.load(Ordering::Acquire)) - i128::from(r.started.as_nanos()))
    }
}

/// Reconstructs one `rt.job` span per record (release → completion, on
/// the worker's track) with its `app.body` child (start → completion):
/// the job's time in the runtime layers is the job span's self time.
pub fn job_spans(tr: &mut Tracer, cal: &Calibration, records: &[RtJobRecord]) {
    if !tr.enabled() {
        return;
    }
    let Some(off) = cal.offset(records) else {
        return;
    };
    let at = |t: Instant| u64::try_from((i128::from(t.as_nanos()) + off).max(0)).unwrap_or(0);
    for r in records {
        let tid = 1 + u32::from(r.worker.raw());
        let job = Some(r.job.id.raw());
        let parent = tr.record(Span {
            name: "rt.job",
            layer: "rt",
            start: at(r.job.release),
            end: at(r.completed),
            parent: None,
            job,
            tid,
        });
        tr.record(Span {
            name: "app.body",
            layer: "app",
            start: at(r.started),
            end: at(r.completed),
            parent,
            job,
            tid,
        });
    }
}

/// What one runtime instance reports back to [`drive_instances`].
pub struct InstanceFigures {
    /// Median of the workload's gated latency over the instance, µs.
    pub latency_us: f64,
    /// Process CPU time per job over the instance, µs.
    pub cpu_us_per_job: f64,
    /// `cleanup()` call → return.
    pub cleanup: std::time::Duration,
}

/// Timed set-up phases of one instance: input generation, task-set
/// build, runtime `build()`.
pub type SetupTimes = [std::time::Duration; 3];

/// Runs a real-time pass as a series of runtime instances (see
/// [`Ctx::instances`]), each set up by `set_up`, run by `instance` for
/// its share of the pass and torn down. Sets the gated metrics as
/// medians over the instances (`latency_us`, `cpu_us_per_job`,
/// `setup_s`) and the set-up and teardown call times.
pub fn drive_instances<R>(
    ctx: &Ctx,
    len: std::time::Duration,
    tr: &mut Tracer,
    o: &mut Outcome,
    mut set_up: impl FnMut(&mut Tracer, std::time::Duration) -> (R, SetupTimes),
    mut instance: impl FnMut(&mut Tracer, &mut Outcome, std::time::Duration, R) -> InstanceFigures,
) {
    let (count, slice) = ctx.instances(len);
    let (mut latency, mut cpu, mut setups, mut cleanup) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut phases: [Vec<f64>; 3] = Default::default();
    for _ in 0..count {
        let (rt, times) = set_up(tr, slice);
        setups.push(times.iter().sum::<std::time::Duration>().as_secs_f64());
        for (v, t) in phases.iter_mut().zip(times) {
            v.push(t.as_secs_f64());
        }
        let f = instance(tr, o, slice, rt);
        latency.push(f.latency_us);
        cpu.push(f.cpu_us_per_job);
        cleanup.push(f.cleanup.as_secs_f64());
    }
    o.set("latency_us", median_of(&latency), "us");
    o.set("cpu_us_per_job", median_of(&cpu), "us");
    o.set("setup_s", median_of(&setups), "s");
    o.set("taskgen.generate_us", median_of(&phases[0]) * 1e6, "us");
    o.set("core.taskset_build_us", median_of(&phases[1]) * 1e6, "us");
    o.set("rt.build_ms", median_of(&phases[2]) * 1e3, "ms");
    o.set("rt.cleanup_ms", median_of(&cleanup) * 1e3, "ms");
}

/// `explained ÷ measured`, or 0 when nothing was measured: the share of
/// a latency that separately measured layer costs account for.
pub fn share(explained: f64, measured: f64) -> f64 {
    if measured > 0.0 && measured.is_finite() {
        explained / measured
    } else {
        0.0
    }
}
