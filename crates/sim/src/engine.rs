//! The discrete-event simulation driver.
//!
//! [`Simulation`] executes a task set on a modelled platform by driving
//! the *real* scheduling engine (`yasmin_sched::OnlineEngine`) with
//! simulated time: scheduler ticks, job completions and sporadic arrivals
//! are events in a time-ordered queue; the engine's actions (dispatch,
//! preempt, boost) are applied to modelled workers whose speed comes from
//! the platform description.
//!
//! The same event core runs every simulator driver. A simulation drives
//! either the one whole-system engine or N engine shards (one per
//! worker, built by [`crate::par`]) from **one** queue with one global
//! insertion sequence. Events that target an engine carry or derive its
//! index: one tick train per engine, finishes map worker → engine,
//! sporadic, message and fault events go to the engine of the task's
//! worker, and a cross-shard DAG token drained from an engine's outbox
//! becomes a `Cross` event for the destination engine at the same
//! instant. Each engine samples execution times and kernel latencies
//! from its own seeded streams.
//!
//! Overheads are handled two ways at once:
//!
//! * *modelled* overheads ([`OverheadModel`]) delay dispatches and charge
//!   context switches, so schedules shift the way they would on hardware;
//! * *measured* overhead: every engine call is wall-clock timed and the
//!   samples land in [`SimResult::sched_overhead_ns`] — this is the
//!   quantity the Figure 2 experiment reports for YASMIN, so the
//!   middleware's own cost is measured from the implementation rather
//!   than assumed.

use crate::exec::{ExecModel, ExecSampler};
use crate::kernel::{KernelKind, KernelModel};
use crate::par::{pop_due, ShardFeed};
use crate::stress::StressProfile;
use crate::trace::{JobRecord, SimResult};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use yasmin_core::config::Config;
use yasmin_core::energy::Energy;
use yasmin_core::error::{Error, Result};
use yasmin_core::graph::TaskSet;
use yasmin_core::ids::{CoreId, JobId, TaskId, TenantId, VersionId, WorkerId};
use yasmin_core::platform::PlatformSpec;
use yasmin_core::stats::Samples;
use yasmin_core::task::ActivationKind;
use yasmin_core::time::{Duration, Instant};
use yasmin_sched::admission::{AdmissionControl, AdmissionError};
use yasmin_sched::server::{ReservationServer, TenantBudget};
use yasmin_sched::{
    Action, ActionSink, EngineStats, Job, JobBatch, MsgEvent, OnlineEngine, RemoteActivation,
    ShardCmd, MAX_STEAL_BATCH,
};

/// Modelled fixed costs of scheduler interactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverheadModel {
    /// Cost added to a job's start on every dispatch.
    pub dispatch: Duration,
    /// Cost of a preemption context switch (charged to the worker).
    pub context_switch: Duration,
}

/// A deterministically scheduled fault ([`SimConfig::fault_schedule`]).
///
/// Faults are events like any other: delivered at exact instants, so a
/// fault schedule replays bit-identically across runs — and across
/// drivers (single-owner, free-running sharded, protocol loop), which
/// is what the failure-injection parity tests lock in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultEvent {
    /// Force a WCET overrun on the running job of `task`: the engine
    /// applies the task's [`yasmin_core::task::OverrunPolicy`] exactly
    /// as the enforcement tick would (no-op if the task is not running).
    Overrun {
        /// The task whose running job overruns.
        task: TaskId,
    },
    /// Crash the running job of `task` — the simulated analogue of a
    /// body panic: the job retires through the failure path (counted in
    /// `EngineStats::failed`, successors policy-gated), the worker is
    /// freed (no-op if the task is not running).
    Crash {
        /// The task whose running job panics.
        task: TaskId,
    },
    /// A burst of `count` back-to-back activations of `task` at one
    /// instant — the overload source for shedding scenarios.
    Burst {
        /// The (sporadic/aperiodic) task to activate.
        task: TaskId,
        /// Number of activations delivered at the instant.
        count: u32,
    },
}

impl FaultEvent {
    /// The task the fault targets.
    #[must_use]
    pub const fn task(&self) -> TaskId {
        match *self {
            FaultEvent::Overrun { task }
            | FaultEvent::Crash { task }
            | FaultEvent::Burst { task, .. } => task,
        }
    }
}

impl Default for OverheadModel {
    fn default() -> Self {
        OverheadModel {
            // A few microseconds each — representative of the paper's
            // Cortex-A15 measurements.
            dispatch: Duration::from_micros(3),
            context_switch: Duration::from_micros(8),
        }
    }
}

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The modelled platform; worker *w* runs on core *w*.
    pub platform: PlatformSpec,
    /// How long to simulate.
    pub horizon: Duration,
    /// Execution-time model.
    pub exec: ExecModel,
    /// Optional kernel latency model applied to job wake-ups.
    pub kernel: Option<KernelKind>,
    /// Interference profile feeding the kernel model.
    pub stress: StressProfile,
    /// Modelled overheads.
    pub overheads: OverheadModel,
    /// Master seed.
    pub seed: u64,
    /// Wall-clock-time every engine call (measured overhead samples).
    pub measure_engine_time: bool,
    /// Timed execution-mode switches (offset from start, new mode) — e.g.
    /// the drone's secure mode "activated when boats are detected" (§5).
    pub mode_schedule: Vec<(Duration, yasmin_core::version::ExecMode)>,
    /// Timed message-plane events (offset from start, event): high-lane
    /// posts/drains delivered deterministically at event boundaries, so
    /// a simulated run reproduces the priority boosts a real channel's
    /// notify hook would raise (see `yasmin_sched::msg`).
    pub msg_schedule: Vec<(Duration, MsgEvent)>,
    /// Timed fault injections (offset from start, fault): overruns,
    /// crashes and activation bursts delivered deterministically, so
    /// fault handling is parity-testable bit-for-bit across drivers.
    pub fault_schedule: Vec<(Duration, FaultEvent)>,
}

impl SimConfig {
    /// A convenient uniform-platform configuration.
    #[must_use]
    pub fn uniform(workers: usize, horizon: Duration) -> Self {
        SimConfig {
            platform: PlatformSpec::uniform(workers),
            horizon,
            exec: ExecModel::Wcet,
            kernel: None,
            stress: StressProfile::IDLE,
            overheads: OverheadModel {
                dispatch: Duration::ZERO,
                context_switch: Duration::ZERO,
            },
            seed: 0,
            measure_engine_time: false,
            mode_schedule: Vec::new(),
            msg_schedule: Vec::new(),
            fault_schedule: Vec::new(),
        }
    }
}

/// The receiving task of a message-plane event; its engine owns the
/// event.
pub(crate) fn msg_dst(ev: &MsgEvent) -> TaskId {
    match *ev {
        MsgEvent::HighPosted { dst, .. } | MsgEvent::HighDrained { dst } => dst,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Scheduler tick of one engine (all engines share the tick grid).
    Tick {
        engine: usize,
    },
    Finish {
        worker: WorkerId,
        job: JobId,
        gen: u64,
    },
    Sporadic {
        task: TaskId,
    },
    /// A cross-shard DAG token routed to `engine` at the completion
    /// instant of its source job.
    Cross {
        engine: usize,
        edge: u32,
        graph_release: Instant,
    },
    /// Switches every engine's execution mode at once.
    ModeSwitch {
        mode: yasmin_core::version::ExecMode,
    },
    /// Splice + commit a pre-validated tenant admission; `idx` indexes
    /// [`Simulation`]'s pending-admissions side table (the event itself
    /// stays `Copy` — the merged set travels by `Arc` in the table).
    Admit {
        idx: usize,
    },
    /// Quiesce an admitted tenant.
    Retire {
        tenant: TenantId,
    },
    /// A scheduled message-plane event ([`SimConfig::msg_schedule`]):
    /// a high-lane post or drain delivered to the engine at this exact
    /// event boundary.
    Msg {
        ev: MsgEvent,
    },
    /// A scheduled fault injection ([`SimConfig::fault_schedule`]).
    Fault {
        ev: FaultEvent,
    },
}

#[derive(Debug)]
struct QItem {
    time: u64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for QItem {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for QItem {}
impl Ord for QItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for QItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Clone, Copy)]
struct Slice {
    job: JobId,
    /// Slab handle of the job's in-flight state.
    slot: SlotRef,
    task: TaskId,
    version: VersionId,
    start: Instant,
    /// Remaining reference-time work at slice start.
    remaining_ref: Duration,
}

#[derive(Debug, Default, Clone)]
struct JobProgress {
    remaining_ref: Option<Duration>,
    first_start: Option<Instant>,
    preemptions: u32,
    accel_busy: Duration,
}

/// Generation-checked handle into the [`JobSlab`]: a stale handle (its
/// slot was freed and re-used) is detected instead of silently reading
/// another job's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotRef {
    idx: u32,
    gen: u32,
}

#[derive(Debug, Clone)]
struct JobSlot {
    gen: u32,
    occupied: bool,
    job: Job,
    progress: JobProgress,
}

/// A free-list slab holding every in-flight (dispatched or preempted)
/// job. Replaces the former `HashMap<JobId, …>` pair on the per-event
/// hot path: slot access is a bounds-checked array index plus a
/// generation check, and steady-state operation allocates nothing once
/// the slab has grown to the peak in-flight count.
#[derive(Debug, Default)]
struct JobSlab {
    slots: Vec<JobSlot>,
    free: Vec<u32>,
    live: usize,
}

impl JobSlab {
    fn insert(&mut self, job: Job) -> SlotRef {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            debug_assert!(!slot.occupied);
            slot.occupied = true;
            slot.job = job;
            slot.progress = JobProgress::default();
            SlotRef { idx, gen: slot.gen }
        } else {
            let idx = u32::try_from(self.slots.len()).expect("slab bounded by pending jobs");
            self.slots.push(JobSlot {
                gen: 0,
                occupied: true,
                job,
                progress: JobProgress::default(),
            });
            SlotRef { idx, gen: 0 }
        }
    }

    fn get_mut(&mut self, r: SlotRef) -> &mut JobSlot {
        let slot = &mut self.slots[r.idx as usize];
        assert!(
            slot.occupied && slot.gen == r.gen,
            "stale slab handle: slot {} gen {} vs handle gen {}",
            r.idx,
            slot.gen,
            r.gen
        );
        slot
    }

    /// Frees the slot, returning its contents; the generation bump
    /// invalidates any outstanding handle to it.
    fn remove(&mut self, r: SlotRef) -> (Job, JobProgress) {
        let slot = self.get_mut(r);
        slot.occupied = false;
        slot.gen = slot.gen.wrapping_add(1);
        let out = (slot.job, std::mem::take(&mut slot.progress));
        self.free.push(r.idx);
        self.live -= 1;
        out
    }

    fn len(&self) -> usize {
        self.live
    }

    fn iter_jobs(&self) -> impl Iterator<Item = &Job> {
        self.slots.iter().filter(|s| s.occupied).map(|s| &s.job)
    }
}

/// One engine a [`Simulation`] drives, with its own sampler streams.
#[derive(Debug)]
struct DrivenEngine {
    engine: OnlineEngine,
    exec: ExecSampler,
    kernel: Option<KernelModel>,
}

/// The discrete-event simulator.
#[derive(Debug)]
pub struct Simulation {
    /// The whole-system engine, or engine shards of distinct workers.
    engines: Vec<DrivenEngine>,
    /// Worker → index of the engine owning it; `None` for workers no
    /// driven engine owns (the other workers of a lone shard). Energy
    /// and idle accounting covers exactly the owned workers, so
    /// per-shard results sum to the whole-system result.
    engine_of: Vec<Option<usize>>,
    cfg: SimConfig,
    queue: BinaryHeap<Reverse<QItem>>,
    seq: u64,
    stress_intensity: f64,
    slices: Vec<Option<Slice>>,
    gens: Vec<u64>,
    /// In-flight job state (dispatched or preempted), slab-allocated.
    slab: JobSlab,
    /// Preempted jobs waiting for re-dispatch: (id, slab handle).
    suspended: Vec<(JobId, SlotRef)>,
    /// Reusable action buffer passed to every engine interaction.
    sink: ActionSink,
    /// Reusable buffer for routing an engine's cross-shard tokens.
    outbox: Vec<RemoteActivation>,
    /// Same-timestamp completions gathered for one batched engine call.
    finish_batch: Vec<(WorkerId, JobId)>,
    /// Sporadic root tasks and their release offsets, precomputed.
    sporadic_roots: Vec<(TaskId, Duration)>,
    /// Minimum inter-arrival per task index (ZERO for non-sporadic).
    sporadic_period: Vec<Duration>,
    records: Vec<JobRecord>,
    overhead_ns: Samples,
    worker_busy: Vec<Duration>,
    accel_busy: Vec<Duration>,
    tick: Duration,
    /// `Some(cap)`: idle engines steal from loaded peers after every
    /// event, up to `cap` jobs per exchange (see `Simulation::steal_pass`).
    steal_batch: Option<usize>,
    /// Side table for [`Ev::Admit`]: (merged set, budget) per scheduled
    /// admission, pre-validated by [`Simulation::admit_at`].
    pending_admissions: Vec<(Arc<TaskSet>, Option<TenantBudget>)>,
    /// The task set as it will stand after every scheduled admission —
    /// the base each further [`Simulation::admit_at`] extends.
    planned: Arc<TaskSet>,
    /// Admissions must be scheduled in non-decreasing time order (their
    /// splice order defines tenant ids).
    last_admit_offset: Duration,
}

impl Simulation {
    /// Builds a simulation of `taskset` under middleware `config` and
    /// simulator `sim` settings.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] if the platform has fewer cores than
    /// workers, plus any engine construction error.
    pub fn new(taskset: Arc<TaskSet>, config: Config, sim: SimConfig) -> Result<Self> {
        Self::from_engines([OnlineEngine::new(taskset, config)?], sim)
    }

    /// Builds a simulation around already-constructed engines: the
    /// whole-system engine, or engine shards of distinct workers over
    /// one task set (the drivers in [`crate::par`]). A shard of worker
    /// *w* seeds its samplers from `seed ^ w·0x9E37_79B9_7F4A_7C15`, so
    /// its streams are the same whichever driver runs it; the
    /// whole-system engine uses `seed` itself.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] if the platform has fewer cores than
    /// workers.
    pub(crate) fn from_engines(
        engines: impl IntoIterator<Item = OnlineEngine>,
        sim: SimConfig,
    ) -> Result<Self> {
        let engines: Vec<DrivenEngine> = engines
            .into_iter()
            .map(|engine| {
                let seed = engine.shard_worker().map_or(sim.seed, |w| {
                    sim.seed ^ u64::from(w.raw()).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                });
                DrivenEngine {
                    exec: ExecSampler::new(sim.exec, seed ^ 0xE5E5),
                    kernel: sim.kernel.map(|k| KernelModel::new(k, seed ^ 0x5EED)),
                    engine,
                }
            })
            .collect();
        let first = &engines[0].engine;
        let config = first.config();
        if config.workers() > sim.platform.core_count() {
            return Err(Error::InvalidConfig(format!(
                "{} workers need {} cores but platform {} has {}",
                config.workers(),
                config.workers(),
                sim.platform.name(),
                sim.platform.core_count()
            )));
        }
        let workers = config.workers();
        let mut engine_of = vec![None; workers];
        for (e, d) in engines.iter().enumerate() {
            match d.engine.shard_worker() {
                Some(w) => engine_of[w.index()] = Some(e),
                None => engine_of.fill(Some(e)),
            }
        }
        let accels = first.taskset().accels().len();
        let tick = first.tick_period();
        let planned = first.taskset_arc();
        let stress_intensity = sim.stress.intensity(sim.platform.core_count());
        // Sporadic bookkeeping is fixed by the task set: build it once
        // here instead of on every `run()` (released at the minimum
        // inter-arrival — the worst-case law the Fig. 2 harness wants).
        let ts = first.taskset();
        let mut sporadic_roots = Vec::new();
        let mut sporadic_period = vec![Duration::ZERO; ts.len()];
        for t in ts.tasks() {
            if t.spec().kind() == ActivationKind::Sporadic {
                sporadic_period[t.id().index()] = t.spec().period();
                if ts.in_degree(t.id()) == 0 {
                    sporadic_roots.push((t.id(), t.spec().release_offset()));
                }
            }
        }
        Ok(Simulation {
            engines,
            engine_of,
            stress_intensity,
            slices: vec![None; workers],
            gens: vec![0; workers],
            slab: JobSlab::default(),
            suspended: Vec::new(),
            sink: ActionSink::with_capacity(workers * 2),
            outbox: Vec::new(),
            finish_batch: Vec::with_capacity(workers),
            sporadic_roots,
            sporadic_period,
            records: Vec::new(),
            overhead_ns: Samples::new(),
            worker_busy: vec![Duration::ZERO; workers],
            accel_busy: vec![Duration::ZERO; accels],
            queue: BinaryHeap::new(),
            seq: 0,
            tick,
            steal_batch: None,
            pending_admissions: Vec::new(),
            planned,
            last_admit_offset: Duration::ZERO,
            cfg: sim,
        })
    }

    /// Enables work stealing between the driven engine shards, moving up
    /// to `batch` jobs per exchange (see `Simulation::steal_pass`).
    pub(crate) fn with_stealing(mut self, batch: usize) -> Self {
        self.steal_batch = Some(batch);
        self
    }

    /// Schedules a tenant admission at `offset` from the start:
    /// `tenant` (declared in its own id space) is schedulability-checked
    /// **now** against the planned set — the base set extended by every
    /// previously scheduled admission — exactly as the runtime's
    /// admission thread would, and on acceptance an internal admit event
    /// splices and commits it at the simulated instant. Returns the
    /// [`TenantId`] the splice will assign.
    ///
    /// Deterministic by construction: the admission instant, the merged
    /// set and the tenant id are all fixed before the run starts, so two
    /// runs with the same schedule produce identical traces.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Rejected`] with the violated bound;
    /// [`AdmissionError::Invalid`] for malformed requests, including
    /// admissions scheduled out of time order.
    pub fn admit_at(
        &mut self,
        offset: Duration,
        tenant: &TaskSet,
        budget: Option<TenantBudget>,
    ) -> std::result::Result<TenantId, AdmissionError> {
        if offset < self.last_admit_offset {
            return Err(AdmissionError::Invalid(Error::InvalidConfig(
                "admissions must be scheduled in non-decreasing time order".into(),
            )));
        }
        let ctl = AdmissionControl::new(self.engines[0].engine.config().clone(), self.tick);
        let merged = ctl.evaluate(&self.planned, tenant, budget.as_ref())?;
        // Tenant ids count the base set (tenant 0) plus every admission
        // scheduled so far, in splice order.
        let id = TenantId::new((1 + self.pending_admissions.len()) as u32);
        self.planned = Arc::clone(&merged);
        self.last_admit_offset = offset;
        let idx = self.pending_admissions.len();
        self.pending_admissions.push((merged, budget));
        self.push_event(Instant::ZERO + offset, Ev::Admit { idx });
        Ok(id)
    }

    /// Schedules the retirement of an admitted tenant at `offset` from
    /// the start. The tenant must exist by then (i.e. come from a prior
    /// [`Simulation::admit_at`] with an earlier or equal offset);
    /// tenant 0 cannot be retired.
    pub fn retire_at(&mut self, offset: Duration, tenant: TenantId) {
        self.push_event(Instant::ZERO + offset, Ev::Retire { tenant });
    }

    fn push_event(&mut self, at: Instant, ev: Ev) {
        self.seq += 1;
        self.queue.push(Reverse(QItem {
            time: at.as_nanos(),
            seq: self.seq,
            ev,
        }));
    }

    /// The simulated task set (shared by every driven engine).
    fn taskset(&self) -> &TaskSet {
        self.engines[0].engine.taskset()
    }

    /// The engine owning `worker`.
    fn engine_of_worker(&self, worker: WorkerId) -> usize {
        self.engine_of[worker.index()].expect("the worker belongs to a driven engine")
    }

    /// The engine owning `task`'s activations, messages and faults: the
    /// engine of its assigned worker when shards split the workers.
    fn engine_of_task(&self, task: TaskId) -> usize {
        if self.engines.len() == 1 {
            return 0;
        }
        let worker = self.taskset().tasks()[task.index()]
            .spec()
            .assigned_worker()
            .expect("shards validated the partition");
        self.engine_of_worker(worker)
    }

    fn speed_of(&self, worker: WorkerId) -> (u64, u64) {
        self.cfg
            .platform
            .class_of(CoreId::new(worker.raw()))
            .speed()
    }

    /// Reference-work → wall time on `worker`.
    fn wall_time(&self, worker: WorkerId, reference: Duration) -> Duration {
        let (num, den) = self.speed_of(worker);
        reference.scale(den, num)
    }

    /// Wall time → reference work on `worker`.
    fn ref_work(&self, worker: WorkerId, wall: Duration) -> Duration {
        let (num, den) = self.speed_of(worker);
        wall.scale(num, den)
    }

    /// One interaction with engine `e`: `f` runs on the cleared shared
    /// sink (wall-clock timed when measuring), its actions are applied at
    /// `now`, and every cross-shard token it left in the engine's outbox
    /// becomes an [`Ev::Cross`] event for the owning engine at `now`.
    fn interact<F>(&mut self, e: usize, now: Instant, f: F) -> Result<()>
    where
        F: FnOnce(&mut OnlineEngine, &mut ActionSink) -> Result<()>,
    {
        let mut sink = std::mem::take(&mut self.sink);
        sink.clear();
        let engine = &mut self.engines[e].engine;
        let res = if self.cfg.measure_engine_time {
            let t0 = std::time::Instant::now();
            let res = f(engine, &mut sink);
            self.overhead_ns
                .record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            res
        } else {
            f(engine, &mut sink)
        };
        if res.is_ok() {
            self.apply_actions(e, now, &sink);
        }
        self.sink = sink;
        res?;
        // Only shards have peers to route to.
        if self.engines.len() > 1 && self.engines[e].engine.has_outbox() {
            self.route_outbox(e, now);
        }
        Ok(())
    }

    /// Turns every cross-shard token in engine `e`'s outbox into an
    /// [`Ev::Cross`] event for the owning engine at `now`.
    fn route_outbox(&mut self, e: usize, now: Instant) {
        let mut outbox = std::mem::take(&mut self.outbox);
        self.engines[e].engine.drain_outbox_into(&mut outbox);
        for ra in outbox.drain(..) {
            let engine = self.engine_of_worker(ra.worker);
            self.push_event(
                now,
                Ev::Cross {
                    engine,
                    edge: ra.edge,
                    graph_release: ra.graph_release,
                },
            );
        }
        self.outbox = outbox;
    }

    /// Applies the actions engine `e` emitted at `now`.
    fn apply_actions(&mut self, e: usize, now: Instant, actions: &ActionSink) {
        for &a in actions.as_slice() {
            match a {
                Action::Dispatch {
                    worker,
                    job,
                    version,
                } => self.apply_dispatch(e, now, worker, job, version),
                Action::Preempt { worker, job } => self.apply_preempt(now, worker, job),
                Action::Boost { .. } => {
                    // Priority bookkeeping only; nothing to model.
                }
            }
        }
    }

    /// Finds (and detaches) the slab handle of a previously preempted
    /// job awaiting re-dispatch.
    fn take_suspended(&mut self, job: JobId) -> Option<SlotRef> {
        let pos = self.suspended.iter().position(|&(id, _)| id == job)?;
        Some(self.suspended.swap_remove(pos).1)
    }

    fn apply_dispatch(
        &mut self,
        e: usize,
        now: Instant,
        worker: WorkerId,
        job: Job,
        version: VersionId,
    ) {
        debug_assert_eq!(self.engine_of[worker.index()], Some(e));
        let task = &self.taskset().tasks()[job.task.index()];
        let wcet = task.versions()[version.index()].wcet();
        // A job the engine has preempted before carries a slab slot with
        // its remaining work; anything else is a fresh start whose
        // execution demand is sampled once, from the dispatching
        // engine's stream.
        let (slot, remaining, fresh) = match self.take_suspended(job.id) {
            Some(slot) => {
                let remaining = self.slab.get_mut(slot).progress.remaining_ref;
                let remaining = remaining.expect("resumed job has remaining");
                (slot, remaining, false)
            }
            None => {
                let slot = self.slab.insert(job);
                let d = self.engines[e].exec.sample(wcet);
                self.slab.get_mut(slot).progress.remaining_ref = Some(d);
                (slot, d, true)
            }
        };

        // Wake-up latency (kernel model) applies to fresh starts; resumes
        // pay the context switch instead.
        let mut delay = self.cfg.overheads.dispatch;
        if fresh {
            if let Some(k) = self.engines[e].kernel.as_mut() {
                delay += k.sample_latency(self.stress_intensity);
            }
        } else {
            delay += self.cfg.overheads.context_switch;
        }
        let start = now + delay;
        let p = &mut self.slab.get_mut(slot).progress;
        if p.first_start.is_none() {
            p.first_start = Some(start);
        }
        let wall = self.wall_time(worker, remaining);
        let finish = start + wall;
        self.gens[worker.index()] += 1;
        let gen = self.gens[worker.index()];
        self.slices[worker.index()] = Some(Slice {
            job: job.id,
            slot,
            task: job.task,
            version,
            start,
            remaining_ref: remaining,
        });
        self.push_event(
            finish,
            Ev::Finish {
                worker,
                job: job.id,
                gen,
            },
        );
    }

    fn apply_preempt(&mut self, now: Instant, worker: WorkerId, job: JobId) {
        let Some(slice) = self.slices[worker.index()].take() else {
            return;
        };
        debug_assert_eq!(slice.job, job, "engine preempted a different job");
        // Invalidate the scheduled finish.
        self.gens[worker.index()] += 1;
        // Progress made this slice (the slice may not have started yet if
        // `now` falls inside the dispatch-delay window).
        let elapsed = now.saturating_since(slice.start);
        let done_ref = self.ref_work(worker, elapsed).min(slice.remaining_ref);
        let busy = elapsed.min(self.wall_time(worker, slice.remaining_ref));
        self.worker_busy[worker.index()] += busy;
        let p = &mut self.slab.get_mut(slice.slot).progress;
        p.remaining_ref = Some(slice.remaining_ref - done_ref);
        p.preemptions += 1;
        self.suspended.push((slice.job, slice.slot));
        self.account_accel(&slice, elapsed);
    }

    fn account_accel(&mut self, slice: &Slice, busy: Duration) {
        let task = &self.taskset().tasks()[slice.task.index()];
        if let Some(a) = task.versions()[slice.version.index()].accel() {
            self.accel_busy[a.index()] += busy;
            self.slab.get_mut(slice.slot).progress.accel_busy += busy;
        }
    }

    /// Books one finish event — worker busy time, accelerator time, the
    /// job record — and returns the completion pair for the engine
    /// call, which the event loop batches across same-timestamp
    /// finishes. Returns `None` for a stale event (the slice was
    /// preempted or crashed after this finish was scheduled).
    fn settle_finish(
        &mut self,
        now: Instant,
        worker: WorkerId,
        job: JobId,
        gen: u64,
    ) -> Option<(WorkerId, JobId)> {
        if self.gens[worker.index()] != gen {
            return None; // stale event from before a preemption
        }
        let slice = self.slices[worker.index()]
            .take()
            .expect("matching generation implies an active slice");
        debug_assert_eq!(slice.job, job);
        let wall = now.saturating_since(slice.start);
        self.worker_busy[worker.index()] += wall;
        self.account_accel(&slice, wall);

        let (j, p) = self.slab.remove(slice.slot);
        debug_assert_eq!(j.id, job, "slab slot tracks the finished job");
        self.records.push(JobRecord {
            job,
            task: j.task,
            seq: j.seq,
            release: j.release,
            graph_release: j.graph_release,
            abs_deadline: j.abs_deadline,
            first_start: p.first_start.unwrap_or(slice.start),
            completion: now,
            version: slice.version,
            worker,
            preemptions: p.preemptions,
        });
        Some((worker, job))
    }

    /// Delivers one scheduled fault ([`SimConfig::fault_schedule`]) to
    /// engine `e`, the owner of the target task.
    fn apply_fault(&mut self, e: usize, now: Instant, ev: FaultEvent) -> Result<()> {
        match ev {
            // No-op when the task is not running at the instant (e.g. it
            // already finished) — the schedule stays valid across
            // parameter sweeps.
            FaultEvent::Overrun { task } => self.interact(e, now, |eng, sink| {
                let _ = eng.force_overrun(task, now, sink);
                Ok(())
            }),
            FaultEvent::Crash { task } => self.apply_crash(e, now, task),
            FaultEvent::Burst { task, count } => {
                for _ in 0..count {
                    // Tolerates non-activatable targets so burst
                    // schedules compose with retirement schedules.
                    self.interact(e, now, |eng, sink| {
                        let _ = eng.activate_into(task, now, sink);
                        Ok(())
                    })?;
                }
                Ok(())
            }
        }
    }

    /// Crashes the running job of `task` on engine `e`'s workers — the
    /// simulated analogue of a worker catching a body panic (`yasmin-rt`
    /// wraps bodies in `catch_unwind`). Progress is accounted, the slice
    /// and slab entry are dropped *without* a completion record (a
    /// failed job never completed), and the engine retires the job
    /// through its failure path. No-op if the task is not running there
    /// at the instant.
    fn apply_crash(&mut self, e: usize, now: Instant, task: TaskId) -> Result<()> {
        let Some(w) = (0..self.slices.len()).find(|&w| {
            self.engine_of[w] == Some(e) && matches!(self.slices[w], Some(sl) if sl.task == task)
        }) else {
            return Ok(());
        };
        let slice = self.slices[w].take().expect("position matched");
        let worker = WorkerId::new(w as u16);
        // Invalidate the scheduled finish.
        self.gens[w] += 1;
        let elapsed = now.saturating_since(slice.start);
        let busy = elapsed.min(self.wall_time(worker, slice.remaining_ref));
        self.worker_busy[w] += busy;
        self.account_accel(&slice, busy);
        let (j, _p) = self.slab.remove(slice.slot);
        debug_assert_eq!(j.id, slice.job, "slab slot tracks the crashed job");
        self.interact(e, now, |eng, sink| {
            eng.on_job_failed_into(worker, slice.job, now, sink)
        })
    }

    /// At an event boundary of a stealing run, every fully idle engine
    /// (no running slice, empty queue) adopts work from the most loaded
    /// *stealable* peer (one whose probe yields a hint; ties towards the
    /// lowest engine index); rounds repeat until no steal succeeds.
    /// Deterministic by construction. With `steal_batch == 1` each
    /// exchange moves the single most urgent job ([`ShardCmd::Stolen`]'s
    /// protocol); above `1` it moves up to half the victim's ready load
    /// in one exchange ([`ShardCmd::StolenBatch`]) — the batch size
    /// depends only on the victim's queue length, so reruns stay
    /// bit-identical. Kept out of line: the per-event loop stays small
    /// for the runs that never steal.
    #[inline(never)]
    fn steal_pass(&mut self, at: Instant, steal_batch: usize) -> Result<()> {
        let n = self.engines.len();
        let mut hints = Vec::new();
        loop {
            let mut stole = false;
            for thief in 0..n {
                let busy = (0..self.slices.len())
                    .any(|w| self.engine_of[w] == Some(thief) && self.slices[w].is_some());
                if busy || self.engines[thief].engine.ready_len() > 0 {
                    continue;
                }
                let victim = (0..n)
                    .filter(|&v| v != thief)
                    .filter(|&v| self.engines[v].engine.steal_hint().is_some())
                    .map(|v| (self.engines[v].engine.ready_len(), v))
                    .max_by_key(|&(load, v)| (load, Reverse(v)));
                let Some((load, v)) = victim else { continue };
                if steal_batch <= 1 {
                    let Some(hint) = self.engines[v].engine.steal_hint() else {
                        continue;
                    };
                    let Some(job) = self.engines[v].engine.release_stolen(hint) else {
                        continue;
                    };
                    self.interact(thief, at, |eng, sink| eng.adopt_stolen(job, at, sink))?;
                } else {
                    // Half the load gap (the thief is empty, so the gap
                    // is the victim's whole ready load), capped by the
                    // option and the protocol batch limit — the same
                    // sizing rule the free-running runtime derives from
                    // its load board.
                    let k = (load / 2).clamp(1, steal_batch.min(MAX_STEAL_BATCH));
                    if self.engines[v].engine.steal_hints(k, &mut hints) == 0 {
                        continue;
                    }
                    let mut jobs = JobBatch::new();
                    if self.engines[v]
                        .engine
                        .release_stolen_batch(&hints, &mut jobs)
                        == 0
                    {
                        continue;
                    }
                    self.interact(thief, at, |eng, sink| {
                        eng.adopt_stolen_batch(jobs.as_slice(), at, sink)
                    })?;
                }
                stole = true;
            }
            if !stole {
                return Ok(());
            }
        }
    }

    /// Runs the simulation to the horizon and aggregates the result.
    ///
    /// # Errors
    ///
    /// Engine errors (protocol violations) — not expected in normal
    /// operation.
    pub fn run(self) -> Result<SimResult> {
        self.run_with_feeds(Vec::new())
    }

    /// [`Simulation::run`] with external activation feeds, one per
    /// driven engine — the drivers in [`crate::par`] hand each engine a
    /// mailbox-backed feed delivering its sporadic activations; without
    /// feeds the simulation releases its sporadic roots itself.
    ///
    /// The merge is deterministic regardless of producer thread timing:
    /// each mailbox lane delivers commands in non-decreasing time order,
    /// a feed blocks until every open lane has revealed its next command
    /// (the watermark), the earliest command across feeds wins (ties
    /// towards the lower engine index), and an external command at time
    /// *t* is processed before any local event at the same *t*.
    pub(crate) fn run_with_feeds(mut self, mut feeds: Vec<ShardFeed>) -> Result<SimResult> {
        let horizon = Instant::ZERO + self.cfg.horizon;

        // Start every engine, then arm one tick train per engine.
        for e in 0..self.engines.len() {
            self.interact(e, Instant::ZERO, |eng, sink| {
                eng.start_into(Instant::ZERO, sink)
            })?;
        }
        for engine in 0..self.engines.len() {
            self.push_event(Instant::ZERO + self.tick, Ev::Tick { engine });
        }

        // Arm the sporadic roots (precomputed in `new`) — unless the
        // external feeds are the activation source.
        if feeds.is_empty() {
            for i in 0..self.sporadic_roots.len() {
                let (t, offset) = self.sporadic_roots[i];
                self.push_event(Instant::ZERO + offset, Ev::Sporadic { task: t });
            }
        }
        let mode_schedule = std::mem::take(&mut self.cfg.mode_schedule);
        for (offset, mode) in mode_schedule {
            self.push_event(Instant::ZERO + offset, Ev::ModeSwitch { mode });
        }
        let msg_schedule = std::mem::take(&mut self.cfg.msg_schedule);
        for (offset, ev) in msg_schedule {
            self.push_event(Instant::ZERO + offset, Ev::Msg { ev });
        }
        let fault_schedule = std::mem::take(&mut self.cfg.fault_schedule);
        for (offset, ev) in fault_schedule {
            self.push_event(Instant::ZERO + offset, Ev::Fault { ev });
        }
        if let Some(cap) = self.steal_batch {
            self.steal_pass(Instant::ZERO, cap)?;
        }

        loop {
            // Next local event, unless the run is over (the first local
            // event past the horizon ends it, matching the single-feed
            // `run` semantics — nothing later can be earlier).
            let local_t = self
                .queue
                .peek()
                .map(|Reverse(item)| item.time)
                .filter(|&t| Instant::from_nanos(t) <= horizon);
            let due = if feeds.is_empty() {
                None
            } else {
                pop_due(&mut feeds, local_t)
            };
            if let Some((e, cmd)) = due {
                let ShardCmd::Activate { task, at } = cmd else {
                    return Err(Error::InvalidConfig(format!(
                        "the simulator's feeds carry sporadic activations only, got {cmd:?}"
                    )));
                };
                // Commands past the horizon are drained but not
                // simulated (the producers must be unblocked even when
                // the run is over).
                if at <= horizon {
                    self.interact(e, at, |eng, sink| eng.activate_into(task, at, sink))?;
                    if let Some(cap) = self.steal_batch {
                        self.steal_pass(at, cap)?;
                    }
                }
                continue;
            }
            if local_t.is_none() {
                break;
            }
            let Some(Reverse(item)) = self.queue.pop() else {
                break;
            };
            let now = Instant::from_nanos(item.time);
            self.handle(now, item, horizon)?;
            if let Some(cap) = self.steal_batch {
                self.steal_pass(now, cap)?;
            }
        }

        // Account still-running slices up to the horizon.
        for (w, slice) in self.slices.iter().enumerate() {
            if let Some(s) = slice {
                let busy = horizon.saturating_since(s.start);
                let cap = self.wall_time(WorkerId::new(w as u16), s.remaining_ref);
                self.worker_busy[w] += busy.min(cap);
            }
        }

        // Energy model: busy at active power, idle at idle power, accels
        // at their active power — over the owned workers only, so
        // per-shard energies sum to the whole-system figure without
        // double-counting idle cores.
        let mut energy = Energy::ZERO;
        for (w, busy) in self.worker_busy.iter().enumerate() {
            if self.engine_of[w].is_none() {
                continue;
            }
            let class = self.cfg.platform.class_of(CoreId::new(w as u16));
            let idle = self.cfg.horizon.saturating_sub(*busy);
            energy += class.active_power().energy_over(*busy);
            energy += class.idle_power().energy_over(idle);
        }
        for (a, busy) in self.accel_busy.iter().enumerate() {
            let spec = &self.taskset().accels()[a];
            energy += spec.active_power().energy_over(*busy);
        }

        // Unfinished jobs: anything still tracked.
        let ready: usize = self.engines.iter().map(|d| d.engine.ready_len()).sum();
        let unfinished = self.slab.len() + ready;
        let unfinished_missed = self
            .slab
            .iter_jobs()
            .filter(|j| j.deadline_missed_at(horizon))
            .count();
        let mut engine_stats = EngineStats::default();
        for d in &self.engines {
            engine_stats.merge(d.engine.stats());
        }
        // Several engines retire in one global order, but records are
        // reported in the drivers' shared total order: (completion,
        // task, seq) — each (task, seq) completes exactly once.
        let mut records = self.records;
        if self.engines.len() > 1 {
            records.sort_by_key(|r| (r.completion, r.task, r.seq));
        }

        Ok(SimResult {
            records,
            unfinished,
            unfinished_missed,
            engine_stats,
            horizon,
            sched_overhead_ns: self.overhead_ns,
            worker_busy: self.worker_busy,
            energy,
        })
    }

    /// Applies one local event popped at `now`.
    fn handle(&mut self, now: Instant, item: QItem, horizon: Instant) -> Result<()> {
        match item.ev {
            Ev::Tick { engine } => {
                self.interact(engine, now, |eng, sink| {
                    eng.on_tick_into(now, sink);
                    Ok(())
                })?;
                let next = now + self.tick;
                // The horizon is exclusive for new releases, so runs
                // over [0, horizon) release exactly horizon/T jobs.
                if next < horizon {
                    self.push_event(next, Ev::Tick { engine });
                }
            }
            Ev::Finish { worker, job, gen } => {
                let e = self.engine_of_worker(worker);
                let mut batch = std::mem::take(&mut self.finish_batch);
                batch.clear();
                if let Some(c) = self.settle_finish(now, worker, job, gen) {
                    batch.push(c);
                }
                // Coalesce the consecutive run of same-timestamp
                // finishes of the same engine at the head of the event
                // queue into one batched engine call — a burst of
                // completions pays a single dispatch round. Only the
                // Finish prefix is absorbed, so ordering against ticks
                // and arrivals at the same instant is unchanged.
                loop {
                    let more = matches!(
                        self.queue.peek(),
                        Some(Reverse(n)) if n.time == item.time && matches!(
                            n.ev,
                            Ev::Finish { worker, .. } if self.engine_of[worker.index()] == Some(e)
                        )
                    );
                    if !more {
                        break;
                    }
                    let Some(Reverse(next)) = self.queue.pop() else {
                        break;
                    };
                    let Ev::Finish { worker, job, gen } = next.ev else {
                        unreachable!("peek matched a finish event")
                    };
                    if let Some(c) = self.settle_finish(now, worker, job, gen) {
                        batch.push(c);
                    }
                }
                if !batch.is_empty() {
                    self.interact(e, now, |eng, sink| {
                        eng.on_jobs_completed_into(&batch, now, sink)
                    })?;
                }
                self.finish_batch = batch;
            }
            Ev::Sporadic { task } => {
                let e = self.engine_of_task(task);
                // A retired tenant's sporadic train ends silently: no
                // activation, no re-arm.
                if self.engines[e].engine.is_task_retired(task) {
                    return Ok(());
                }
                self.interact(e, now, |eng, sink| eng.activate_into(task, now, sink))?;
                let next = now + self.sporadic_period[task.index()];
                if next < horizon {
                    self.push_event(next, Ev::Sporadic { task });
                }
            }
            Ev::Cross {
                engine,
                edge,
                graph_release,
            } => self.interact(engine, now, |eng, sink| {
                eng.on_remote_token(edge, graph_release, now, sink)
            })?,
            Ev::ModeSwitch { mode } => {
                for d in &mut self.engines {
                    d.engine.set_mode(mode);
                }
            }
            Ev::Msg { ev } => {
                let e = self.engine_of_task(msg_dst(&ev));
                self.interact(e, now, |eng, sink| match ev {
                    MsgEvent::HighPosted { dst, ceiling } => {
                        eng.on_high_posted_into(dst, ceiling, now, sink)
                    }
                    MsgEvent::HighDrained { dst } => eng.on_high_drained_into(dst, now, sink),
                })?;
            }
            Ev::Fault { ev } => self.apply_fault(self.engine_of_task(ev.task()), now, ev)?,
            // Admissions exist on single-engine simulations only
            // (`Simulation::new`), so they address engine 0.
            Ev::Admit { idx } => {
                let (merged, budget) = self.pending_admissions[idx].clone();
                let engine = &mut self.engines[0].engine;
                let tenant = TenantId::new(engine.tenant_count() as u32);
                let server = budget.map(|b| ReservationServer::new(tenant, b, now));
                let first_new = engine.taskset().len();
                // Splice: pre-validated at admit_at time, so a failure
                // here is a driver bug, not a tenant fault.
                engine
                    .splice_taskset(Arc::clone(&merged), server)
                    .expect("admission was validated by admit_at");
                // Grow the per-task / per-accel side state the sim keeps
                // alongside the engine.
                self.accel_busy
                    .resize(merged.accels().len(), Duration::ZERO);
                for t in &merged.tasks()[first_new..] {
                    self.sporadic_period
                        .push(if t.spec().kind() == ActivationKind::Sporadic {
                            t.spec().period()
                        } else {
                            Duration::ZERO
                        });
                }
                self.interact(0, now, |eng, sink| {
                    eng.commit_tenant_into(tenant, now, sink)
                })?;
                // Arm the tenant's sporadic roots from the commit
                // instant, like the base set's at start.
                for t in &merged.tasks()[first_new..] {
                    if t.spec().kind() == ActivationKind::Sporadic && merged.in_degree(t.id()) == 0
                    {
                        let first = now + t.spec().release_offset();
                        if first < horizon {
                            self.push_event(first, Ev::Sporadic { task: t.id() });
                        }
                    }
                }
            }
            Ev::Retire { tenant } => self.interact(0, now, |eng, sink| {
                eng.retire_tenant_into(tenant, now, sink)
            })?,
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yasmin_core::graph::TaskSetBuilder;
    use yasmin_core::priority::PriorityPolicy;
    use yasmin_core::task::TaskSpec;
    use yasmin_core::version::VersionSpec;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn edf(workers: usize) -> Config {
        Config::builder()
            .workers(workers)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .build()
            .unwrap()
    }

    fn simple_set(n: usize, period_ms: u64, wcet_ms: u64) -> Arc<TaskSet> {
        let mut b = TaskSetBuilder::new();
        for i in 0..n {
            let t = b
                .task_decl(TaskSpec::periodic(format!("t{i}"), ms(period_ms)))
                .unwrap();
            b.version_decl(t, VersionSpec::new("v", ms(wcet_ms)))
                .unwrap();
        }
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn single_task_runs_every_period() {
        let ts = simple_set(1, 10, 2);
        let sim = Simulation::new(ts, edf(1), SimConfig::uniform(1, ms(100))).unwrap();
        let r = sim.run().unwrap();
        // Releases at 0,10,...,90 -> 10 jobs, all complete, none missed.
        assert_eq!(r.records.len(), 10);
        assert_eq!(r.total_misses(), 0);
        let rt = r.response_times(TaskId::new(0));
        assert_eq!(rt.max(), Some(ms(2).as_nanos()));
        assert_eq!(r.unfinished, 0);
        // Worker busy 10 * 2ms = 20ms over 100ms.
        assert!((r.worker_utilisation(0) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn overload_misses_deadlines() {
        // One worker, two tasks each needing 6ms per 10ms -> U = 1.2.
        let ts = simple_set(2, 10, 6);
        let sim = Simulation::new(ts, edf(1), SimConfig::uniform(1, ms(200))).unwrap();
        let r = sim.run().unwrap();
        assert!(r.total_misses() > 0, "overload must miss deadlines");
    }

    #[test]
    fn edf_u_le_1_never_misses() {
        // Classic EDF optimality on one core: U = 0.9.
        let mut b = TaskSetBuilder::new();
        for (p, c) in [(10u64, 3u64), (20, 6), (40, 12)] {
            let t = b
                .task_decl(TaskSpec::periodic(format!("t{p}"), ms(p)))
                .unwrap();
            b.version_decl(t, VersionSpec::new("v", ms(c))).unwrap();
        }
        let ts = Arc::new(b.build().unwrap());
        let sim = Simulation::new(ts, edf(1), SimConfig::uniform(1, ms(400))).unwrap();
        let r = sim.run().unwrap();
        assert_eq!(r.total_misses(), 0);
        assert!(r.engine_stats.preempted > 0, "EDF at U=0.9 must preempt");
    }

    #[test]
    fn little_cores_stretch_execution() {
        let ts = simple_set(1, 100, 10);
        let mut cfg = SimConfig::uniform(1, ms(100));
        cfg.platform = PlatformSpec::odroid_xu4();
        // Worker 0 on a big core.
        let r_big = Simulation::new(Arc::clone(&ts), edf(1), cfg.clone())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            r_big.records[0].response_time(),
            ms(10),
            "big core runs at reference speed"
        );
        // Re-map: platform where core 0 is LITTLE (use cores 4.. of the
        // odroid by building a custom platform).
        let little = PlatformSpec::new(
            "little-only",
            vec![yasmin_core::platform::CoreClass::new("LITTLE", 2, 5)],
            vec![0],
        );
        cfg.platform = little;
        let r_little = Simulation::new(ts, edf(1), cfg).unwrap().run().unwrap();
        assert_eq!(
            r_little.records[0].response_time(),
            ms(25),
            "0.4x speed -> 10ms of work takes 25ms"
        );
    }

    #[test]
    fn dag_pipeline_completes_in_order() {
        let mut b = TaskSetBuilder::new();
        let src = b.task_decl(TaskSpec::periodic("src", ms(50))).unwrap();
        let dst = b.task_decl(TaskSpec::graph_node("dst")).unwrap();
        b.version_decl(src, VersionSpec::new("s", ms(5))).unwrap();
        b.version_decl(dst, VersionSpec::new("d", ms(5))).unwrap();
        let c = b.channel_decl("c", 1, 8);
        b.channel_connect(src, dst, c).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let sim = Simulation::new(ts, edf(2), SimConfig::uniform(2, ms(100))).unwrap();
        let r = sim.run().unwrap();
        let srcs: Vec<_> = r.records_of(TaskId::new(0)).collect();
        let dsts: Vec<_> = r.records_of(TaskId::new(1)).collect();
        assert_eq!(srcs.len(), 2);
        assert_eq!(dsts.len(), 2);
        for (s, d) in srcs.iter().zip(&dsts) {
            assert!(d.first_start >= s.completion, "consumer after producer");
            assert_eq!(d.graph_release, s.release);
            assert_eq!(d.end_to_end(), d.completion.saturating_since(s.release));
        }
    }

    #[test]
    fn preemption_progress_is_preserved() {
        // Long job preempted by short periodic urgent task; total work
        // must be conserved (response = own work + interference).
        let mut b = TaskSetBuilder::new();
        let long = b.task_decl(TaskSpec::periodic("long", ms(100))).unwrap();
        b.version_decl(long, VersionSpec::new("l", ms(40))).unwrap();
        let short = b
            .task_decl(TaskSpec::periodic("short", ms(20)).with_constrained_deadline(ms(5)))
            .unwrap();
        b.version_decl(short, VersionSpec::new("s", ms(2))).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let sim = Simulation::new(ts, edf(1), SimConfig::uniform(1, ms(100))).unwrap();
        let r = sim.run().unwrap();
        let long_rec = r.records_of(TaskId::new(0)).next().expect("long finished");
        // 40ms of own work + 2ms interference per 20ms window.
        assert!(long_rec.preemptions >= 1);
        let resp = long_rec.response_time();
        assert!(resp >= ms(44), "resp = {resp}");
        assert!(resp <= ms(50), "resp = {resp}");
        assert_eq!(r.total_misses(), 0);
    }

    #[test]
    fn kernel_latency_shifts_starts() {
        let ts = simple_set(1, 10, 1);
        let mut cfg = SimConfig::uniform(1, ms(100));
        cfg.kernel = Some(KernelKind::PreemptRt);
        cfg.stress = StressProfile::PAPER;
        let r = Simulation::new(ts, edf(1), cfg).unwrap().run().unwrap();
        assert!(!r.records.is_empty());
        for rec in &r.records {
            assert!(
                rec.start_latency() >= Duration::from_micros(170),
                "kernel base latency applies: {}",
                rec.start_latency()
            );
        }
    }

    #[test]
    fn measured_overhead_samples_collected() {
        let ts = simple_set(5, 10, 1);
        let mut cfg = SimConfig::uniform(2, ms(100));
        cfg.measure_engine_time = true;
        let r = Simulation::new(ts, edf(2), cfg).unwrap().run().unwrap();
        assert!(r.sched_overhead_ns.count() > 10);
        assert!(r.sched_overhead_ns.max().unwrap() > 0);
    }

    #[test]
    fn sporadic_roots_fire() {
        let mut b = TaskSetBuilder::new();
        let s = b.task_decl(TaskSpec::sporadic("s", ms(10))).unwrap();
        b.version_decl(s, VersionSpec::new("v", ms(1))).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let sim = Simulation::new(ts, edf(1), SimConfig::uniform(1, ms(100))).unwrap();
        let r = sim.run().unwrap();
        assert_eq!(r.records.len(), 10);
        assert_eq!(r.engine_stats.sporadic_violations, 0);
    }

    #[test]
    fn energy_accumulates() {
        let ts = simple_set(1, 10, 5);
        let r = Simulation::new(ts, edf(1), SimConfig::uniform(1, ms(100)))
            .unwrap()
            .run()
            .unwrap();
        // Uniform platform: 1W active. 50ms busy -> 50 mJ active + idle.
        assert!(r.energy.as_microjoules() > 50_000);
    }

    #[test]
    fn too_many_workers_rejected() {
        let ts = simple_set(1, 10, 1);
        let err = Simulation::new(ts, edf(4), SimConfig::uniform(2, ms(10)));
        assert!(err.is_err());
    }

    #[test]
    fn deterministic_runs() {
        let mk = || {
            let ts = simple_set(4, 10, 2);
            let mut cfg = SimConfig::uniform(2, ms(200));
            cfg.exec = ExecModel::UniformPct {
                min_pct: 60,
                max_pct: 100,
            };
            cfg.seed = 1234;
            Simulation::new(ts, edf(2), cfg).unwrap().run().unwrap()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.completion, y.completion);
            assert_eq!(x.worker, y.worker);
        }
    }
}
