//! The on-line scheduling engine (global & partitioned, Fig. 1a/1b).
//!
//! The engine is *pure scheduling logic*: it owns the ready queues, the
//! release bookkeeping, the DAG activation tokens and the accelerator
//! state, but it has no threads and no clock. Drivers feed it events —
//! the scheduler-thread tick, job completions, explicit activations — and
//! execute the [`Action`]s it returns. The discrete-event simulator
//! (`yasmin-sim`) and the real-thread runtime (`yasmin-rt`) drive the same
//! engine, so experiments exercise production scheduling code.
//!
//! Design notes mirrored from the paper:
//!
//! * the scheduler activates periodic jobs only at tick boundaries, with
//!   the tick equal to the gcd of all task periods (§3.3);
//! * preemption is a scheduler decision relayed to workers (§3.5) — here
//!   an [`Action::Preempt`] that the driver applies;
//! * jobs never migrate once dispatched; tasks may (§3.3 limitation);
//! * a job holding an accelerator is never preempted — combined with the
//!   PIP boost of §3.2 this prevents accelerator-deadlock and chained
//!   inversions (our design decision, documented in DESIGN.md).

use crate::accel::AccelManager;
use crate::job::{Job, JobBatch};
use crate::queue::ReadyQueue;
use crate::select::{rank_versions_into, RankBuf};
use crate::server::ReservationServer;
use crate::sink::ActionSink;
use std::sync::Arc;
use yasmin_core::channel::BackpressurePolicy;
use yasmin_core::config::{Config, MappingScheme, SelectCtx, VersionPolicy};
use yasmin_core::energy::BatteryLevel;
use yasmin_core::error::{Error, Result};
use yasmin_core::graph::TaskSet;
use yasmin_core::ids::{AccelId, JobId, TaskId, TenantId, VersionId, WorkerId};
use yasmin_core::priority::{Priority, PriorityPolicy};
use yasmin_core::task::{ActivationKind, OverrunPolicy};
use yasmin_core::time::{Duration, Instant};
use yasmin_core::version::{ExecMode, PermMask};

/// How a job's body ended on its worker.
///
/// Runtimes wrap task bodies in `catch_unwind`; a panicking body is
/// contained and reported as [`JobOutcome::Failed`] instead of poisoning
/// the worker thread. The engine retires failed jobs through
/// [`OnlineEngine::on_job_failed_into`], which applies the task's
/// [`OverrunPolicy`] to decide whether successors still fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum JobOutcome {
    /// The body returned normally.
    #[default]
    Completed,
    /// The body panicked; the runtime contained the unwind and the
    /// worker thread lives on.
    Failed,
}

/// A scheduling decision for the driver to carry out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Start (or resume) `job` on `worker` using `version`.
    Dispatch {
        /// Target worker.
        worker: WorkerId,
        /// The job to run.
        job: Job,
        /// The selected version.
        version: VersionId,
    },
    /// Pause the job currently running on `worker`; the engine has already
    /// re-queued it and will re-dispatch it later.
    Preempt {
        /// The worker to interrupt.
        worker: WorkerId,
        /// The job being paused.
        job: JobId,
    },
    /// Raise the effective priority of `job` on `worker` (Priority
    /// Inheritance after accelerator contention, §3.2).
    Boost {
        /// Worker running the boosted holder.
        worker: WorkerId,
        /// The boosted job.
        job: JobId,
        /// Its new effective priority.
        priority: Priority,
    },
}

/// What currently occupies a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunningJob {
    /// The job.
    pub job: Job,
    /// The version being executed.
    pub version: VersionId,
    /// The accelerator held, if the version uses one.
    pub accel: Option<AccelId>,
    /// Current effective priority (base, or PIP-boosted).
    pub effective_priority: Priority,
    /// The enforcement deadline: dispatch instant + the selected
    /// version's WCET (`Instant::MAX` when `Config::enforce_wcet` is
    /// off). A tick strictly past this instant flags the job as
    /// overrunning and applies the task's [`OverrunPolicy`].
    pub enforce_by: Instant,
    /// The overrun has been detected and handled (policies apply once).
    pub overrun: bool,
    /// The job was killed ([`OverrunPolicy::Kill`]): the body still runs
    /// to completion on its worker — the middleware never destroys a
    /// thread mid-body — but its successors are dropped at retirement.
    pub killed: bool,
}

/// Counters the engine maintains for overhead analysis (Fig. 2 uses the
/// queue-operation and preemption counts).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Jobs released into ready queues.
    pub released: u64,
    /// Dispatch actions emitted.
    pub dispatched: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Preemptions performed.
    pub preempted: u64,
    /// PIP boosts applied.
    pub pip_boosts: u64,
    /// Times a ready job had to be skipped because every eligible version
    /// targeted a busy accelerator (it stays ready).
    pub blocked_skips: u64,
    /// Sporadic activations violating the minimum inter-arrival time.
    pub sporadic_violations: u64,
    /// Token pushes that exceeded a channel's declared capacity.
    pub channel_overflows: u64,
    /// High-water mark over all ready queues.
    pub max_ready: usize,
    /// Foreign jobs this engine adopted from a victim shard and ran on
    /// its own worker (work stealing; thief side).
    pub stolen: u64,
    /// Ready jobs this engine handed to a thief shard (victim side).
    pub donated: u64,
    /// Batch-steal exchanges this engine completed as the thief
    /// ([`OnlineEngine::adopt_stolen_batch`]); each exchange's jobs are
    /// also counted individually in `stolen`.
    pub stolen_batch: u64,
    /// Histogram of adopted batch sizes: bucket `i` counts exchanges
    /// that delivered `i + 1` jobs (the last bucket absorbs anything
    /// larger, future-proofing against a raised batch cap).
    pub steal_batch_len: [u64; 8],
    /// DAG activation tokens routed to a foreign shard through the
    /// outbox instead of fired locally (cross-shard edges).
    pub cross_activations: u64,
    /// Ready jobs culled — either at a tick because their absolute
    /// deadline had already passed
    /// ([`yasmin_core::config::Config::cull_missed`]), or because their
    /// tenant was retired while they waited
    /// ([`OnlineEngine::retire_tenant_into`]).
    pub culled: u64,
    /// Dispatch attempts deferred because the job's tenant had exhausted
    /// its [`ReservationServer`] budget for the current replenishment
    /// period (the job stays ready and retries on later rounds).
    pub budget_deferrals: u64,
    /// Priority boosts applied because a high-priority message arrived
    /// for a task (message-plane PIP; released when the lane drains).
    pub msg_boosts: u64,
    /// Jobs caught running past their enforcement deadline
    /// (`Config::enforce_wcet`), or force-flagged by fault injection.
    pub overruns: u64,
    /// Jobs retired as [`JobOutcome::Failed`] (body panicked; contained
    /// by the runtime).
    pub failed: u64,
    /// DAG tokens shed by a channel's [`BackpressurePolicy`]
    /// (`DropOldest` / `DeadlineAwareDrop`) on a full channel.
    pub shed_drops: u64,
    /// Times the deadline-miss trip wire tripped (`Config::miss_trip`).
    pub miss_trips: u64,
}

impl EngineStats {
    /// Accumulates another engine's counters into this one — used to
    /// aggregate per-shard stats into a whole-system view. Every counter
    /// sums; `max_ready` sums too (each shard's high-water mark is over
    /// its own queue, so the sum is a conservative bound on the global
    /// concurrent ready count, not an observed maximum).
    pub fn merge(&mut self, other: &EngineStats) {
        self.released += other.released;
        self.dispatched += other.dispatched;
        self.completed += other.completed;
        self.preempted += other.preempted;
        self.pip_boosts += other.pip_boosts;
        self.blocked_skips += other.blocked_skips;
        self.sporadic_violations += other.sporadic_violations;
        self.channel_overflows += other.channel_overflows;
        self.max_ready += other.max_ready;
        self.stolen += other.stolen;
        self.donated += other.donated;
        self.stolen_batch += other.stolen_batch;
        for (b, o) in self.steal_batch_len.iter_mut().zip(&other.steal_batch_len) {
            *b += o;
        }
        self.cross_activations += other.cross_activations;
        self.culled += other.culled;
        self.budget_deferrals += other.budget_deferrals;
        self.msg_boosts += other.msg_boosts;
        self.overruns += other.overruns;
        self.failed += other.failed;
        self.shed_drops += other.shed_drops;
        self.miss_trips += other.miss_trips;
    }
}

/// Per-tenant bookkeeping: the contiguous id ranges a tenant occupies in
/// the (append-only) merged task set, its lifecycle flags, and its
/// optional processor-time reservation.
#[derive(Debug)]
struct TenantEntry {
    /// First task index of the tenant's contiguous range.
    first_task: u32,
    /// Number of tasks in the range.
    task_count: u32,
    /// First edge index of the tenant's contiguous range.
    first_edge: u32,
    /// Number of edges in the range.
    edge_count: u32,
    /// Releases armed ([`OnlineEngine::commit_tenant_into`] ran).
    committed: bool,
    /// Tenant torn down: future releases culled, activations refused,
    /// DAG tokens dropped.
    retired: bool,
    /// The tenant's budget; `None` (tenant 0, or an unbudgeted admission)
    /// means dispatches are never charged.
    server: Option<ReservationServer>,
}

/// A DAG activation token addressed to a foreign shard: the completion
/// of a job whose out-edge crosses shards does not touch the local
/// token state (the *destination* shard owns every edge entering its
/// tasks) — it lands here instead, for the driver to route to the
/// owning shard's mailbox as a
/// [`crate::shard::ShardCmd::CrossActivate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteActivation {
    /// The worker whose shard owns the edge's destination task.
    pub worker: WorkerId,
    /// Index of the edge in [`TaskSet::edges`].
    pub edge: u32,
    /// Graph release carried by the token (join semantics at the
    /// destination).
    pub graph_release: Instant,
}

/// An O(1) snapshot of a shard's most urgent ready job, taken through a
/// shared reference — what a work-stealing thief uses to decide whether
/// a victim is worth a steal request, and what the victim then turns
/// into a concrete hand-off via [`OnlineEngine::release_stolen`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealHint {
    /// The hinted job.
    pub job: JobId,
    /// Its task.
    pub task: TaskId,
    /// Its queue priority (smaller = more urgent).
    pub priority: Priority,
}

enum VersionChoice {
    Run(VersionId, Option<AccelId>),
    /// All eligible versions target busy accelerators; the wished-for
    /// accelerators are left in the engine's `wish_buf` scratch.
    Blocked,
    /// The selection policy filtered out every version.
    NoEligible,
}

/// Cached ranking of one task's versions under the engine's current
/// selection context. Each ranked id carries the version's (constant)
/// accelerator binding, so the dispatch loop never chases back into the
/// task-spec structs.
#[derive(Debug, Default)]
struct RankEntry {
    valid: bool,
    ids: Vec<(VersionId, Option<AccelId>)>,
}

/// The on-line scheduler state machine.
#[derive(Debug)]
pub struct OnlineEngine {
    taskset: Arc<TaskSet>,
    config: Config,
    queues: Vec<ReadyQueue>,
    running: Vec<Option<RunningJob>>,
    accels: AccelManager,
    /// Activation tokens per graph edge.
    tokens: Vec<u64>,
    /// Graph release carried by the tokens of each edge (FIFO of one: with
    /// unit-rate firing the front instance's release is enough).
    token_release: Vec<Vec<Instant>>,
    /// Next periodic release per task (`Instant::MAX` = not
    /// auto-released). Dense: the release scan is branch-predictable and
    /// cache-linear, which beats a timer heap at realistic task counts.
    next_release: Vec<Instant>,
    /// Per-task period, dense — the release loop re-arms without
    /// chasing into the task-spec structs.
    period: Vec<Duration>,
    /// Per-task effective relative deadline, dense (constant per task
    /// set; `Duration::MAX` = unconstrained).
    rel_deadline: Vec<Duration>,
    /// Per-task ready-queue slot, dense (0 under global mapping and in
    /// shards; the assigned worker's index under partitioned mapping).
    queue_of: Vec<u32>,
    /// Minimum over `next_release`: ticks strictly before this instant
    /// skip the release scan entirely (O(1) idle ticks).
    next_wake: Instant,
    /// Last activation per task (sporadic inter-arrival check).
    last_activation: Vec<Option<Instant>>,
    /// Per-task activation counter.
    activation_seq: Vec<u64>,
    static_priority: Vec<Priority>,
    job_counter: u64,
    tick: Duration,
    started: bool,
    stopping: bool,
    mode: ExecMode,
    permissions: PermMask,
    stats: EngineStats,
    /// Per-task outgoing / incoming edge indices, precomputed so DAG
    /// token firing never scans (or collects) the edge list.
    out_edges: Vec<Vec<usize>>,
    in_edges: Vec<Vec<usize>>,
    /// Per-task version ranking memo; entries are recomputed lazily when
    /// `cache_ctx` (mode, permissions, battery) changes.
    rank_cache: Vec<RankEntry>,
    /// The selection context the cache entries were ranked under.
    cache_ctx: SelectCtx,
    /// Ranking scratch (in-place sort storage).
    rank_buf: RankBuf,
    /// `false` for user-defined policies, whose rankings never cache.
    policy_cacheable: bool,
    /// Whether the active policy reads the battery (Energy or
    /// user-defined); others skip the probe and key the cache off a
    /// constant battery so a drifting probe cannot thrash it.
    policy_uses_battery: bool,
    /// Busy accelerators wished for by the last `Blocked` choice.
    wish_buf: Vec<AccelId>,
    /// Frontier scratch for the ordered ready-queue scan behind
    /// [`OnlineEngine::steal_hints`] (batch-steal probes); retained so
    /// steady-state batch stealing never allocates.
    steal_frontier: Vec<u32>,
    /// Jobs popped but unable to run this round (returned to the queue).
    blocked_buf: Vec<Job>,
    /// Distinct successor tasks of the job that just completed.
    successor_buf: Vec<TaskId>,
    /// Tokens for cross-shard edges, awaiting routing by the driver
    /// (shard engines only; always empty on the single-owner engine).
    outbox: Vec<RemoteActivation>,
    /// Scratch for the deadline-missed culling scan.
    cull_buf: Vec<JobId>,
    /// Copied from the config: cull deadline-missed ready jobs on tick.
    cull_missed: bool,
    /// Dense per-task assigned worker (`u16::MAX` = unassigned), so the
    /// successor-routing path never chases into the task-spec structs.
    task_worker: Vec<u16>,
    /// Dense per-task "any version targets an accelerator" flag, so the
    /// steal probe (run after every engine interaction in the sharded
    /// runtime) never scans version specs.
    task_accel_bound: Vec<bool>,
    /// The tenants admitted into this engine, in admission order.
    /// Entry 0 is always the task set the engine was built with.
    tenants: Vec<TenantEntry>,
    /// Dense per-task owning tenant (raw [`TenantId`]), so the dispatch
    /// and token paths resolve tenancy without a range search.
    tenant_of: Vec<u32>,
    /// Dense per-task count of outstanding high-priority messages
    /// (posted minus drained) — the message-plane boost is held while
    /// this is non-zero.
    high_depth: Vec<u32>,
    /// Dense per-task active message ceiling: the most urgent ceiling
    /// posted since the high lane last became non-empty;
    /// [`Priority::LOWEST`] when no boost is active. Jobs released while
    /// a ceiling is active inherit `min(base, ceiling)`.
    msg_ceiling: Vec<Priority>,
    /// Dense per-task WCET-overrun / body-failure policy.
    overrun_policy: Vec<OverrunPolicy>,
    /// Copied from the config: check enforcement deadlines on tick.
    enforce_wcet: bool,
    /// Copied from the config: the deadline-miss trip wire
    /// `(window, budget)`, `None` when disarmed.
    miss_trip: Option<(Duration, u32)>,
    /// Start of the current miss-accounting window.
    miss_window_start: Instant,
    /// Deadline misses observed in the current window.
    miss_window_count: u32,
    /// The trip wire is tripped: `LogOnly`-class tasks release at
    /// background priority until a window passes within budget.
    tripped: bool,
    /// `Some(w)`: this engine is the *shard* owning only worker `w`
    /// (partitioned mapping). It holds exactly one queue and one running
    /// slot, releases only tasks assigned to `w`, and still reports the
    /// global `WorkerId` in every action. `None`: the classic
    /// single-owner engine over all workers.
    shard: Option<WorkerId>,
}

impl OnlineEngine {
    /// Builds an engine for `taskset` under `config`.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidConfig`] if the task set has no tick source
    ///   (no recurring task and no tick override);
    /// * [`Error::MissingPartition`] / [`Error::UnknownWorker`] if
    ///   partitioned mapping lacks or exceeds worker assignments.
    pub fn new(taskset: Arc<TaskSet>, config: Config) -> Result<Self> {
        Self::new_inner(taskset, config, None)
    }

    /// Builds the *shard* of the engine owning only `worker`: one ready
    /// queue, one running slot, releases restricted to tasks assigned to
    /// `worker`. Used through [`crate::shard::EngineShard`], which also
    /// validates that the task set partitions cleanly across shards.
    ///
    /// # Errors
    ///
    /// As [`OnlineEngine::new`], plus [`Error::InvalidConfig`] unless
    /// the mapping is partitioned and `worker` exists.
    pub(crate) fn new_shard(
        taskset: Arc<TaskSet>,
        config: Config,
        worker: WorkerId,
    ) -> Result<Self> {
        if config.mapping() != MappingScheme::Partitioned {
            return Err(Error::InvalidConfig(
                "engine shards exist under partitioned mapping only".into(),
            ));
        }
        if worker.index() >= config.workers() {
            return Err(Error::UnknownWorker(worker));
        }
        Self::new_inner(taskset, config, Some(worker))
    }

    fn new_inner(taskset: Arc<TaskSet>, config: Config, shard: Option<WorkerId>) -> Result<Self> {
        let workers = config.workers();
        if config.mapping() == MappingScheme::Partitioned {
            for t in taskset.tasks() {
                match t.spec().assigned_worker() {
                    None => return Err(Error::MissingPartition(t.id())),
                    Some(w) if w.index() >= workers => return Err(Error::UnknownWorker(w)),
                    Some(_) => {}
                }
            }
        }
        let tick = match config.tick_override() {
            Some(t) => t,
            None => taskset.scheduler_tick().ok_or_else(|| {
                Error::InvalidConfig(
                    "no recurring task: provide a tick override to drive the scheduler".into(),
                )
            })?,
        };
        let n_queues = match (shard, config.mapping()) {
            (Some(_), _) => 1,
            (None, MappingScheme::Global) => 1,
            (None, MappingScheme::Partitioned) => workers,
        };
        let n_slots = if shard.is_some() { 1 } else { workers };
        let queues = (0..n_queues)
            .map(|_| ReadyQueue::with_capacity(config.max_pending_jobs()))
            .collect();
        let n = taskset.len();
        let static_priority = taskset
            .tasks()
            .iter()
            .map(|t| Self::static_priority_of(&taskset, config.priority(), t.id()))
            .collect();
        let mode = config.initial_mode();
        let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, e) in taskset.edges().iter().enumerate() {
            out_edges[e.src.index()].push(i);
            in_edges[e.dst.index()].push(i);
        }
        let max_versions = taskset
            .tasks()
            .iter()
            .map(|t| t.versions().len())
            .max()
            .unwrap_or(0);
        let rank_cache = taskset
            .tasks()
            .iter()
            .map(|t| RankEntry {
                valid: false,
                ids: Vec::with_capacity(t.versions().len()),
            })
            .collect();
        let period = taskset.tasks().iter().map(|t| t.spec().period()).collect();
        let rel_deadline = taskset
            .tasks()
            .iter()
            .map(|t| taskset.effective_deadline(t.id()))
            .collect();
        let queue_of = taskset
            .tasks()
            .iter()
            .map(|t| match (shard, config.mapping()) {
                (Some(_), _) | (None, MappingScheme::Global) => 0,
                (None, MappingScheme::Partitioned) => {
                    t.spec().assigned_worker().expect("validated above").index() as u32
                }
            })
            .collect();
        let policy_uses_battery = matches!(
            config.version_policy(),
            VersionPolicy::Energy | VersionPolicy::UserDefined(_)
        );
        let cache_ctx = SelectCtx {
            battery: if policy_uses_battery {
                config.read_battery()
            } else {
                BatteryLevel::FULL
            },
            mode,
            permissions: PermMask::ALL,
        };
        Ok(OnlineEngine {
            accels: AccelManager::new(taskset.accels().len()),
            tokens: vec![0; taskset.edges().len()],
            // Pre-reserve each edge's release FIFO to its channel's
            // declared capacity (+1 for the transient over-capacity
            // entry the shedding policies trim), so token pushes — the
            // cross-shard inbound path included — never allocate in
            // steady state.
            token_release: taskset
                .edges()
                .iter()
                .map(|e| {
                    let cap = taskset.channels()[e.channel.index()].capacity();
                    Vec::with_capacity(cap.max(1) + 1)
                })
                .collect(),
            next_release: vec![Instant::MAX; n],
            period,
            rel_deadline,
            queue_of,
            next_wake: Instant::MAX,
            last_activation: vec![None; n],
            activation_seq: vec![0; n],
            static_priority,
            // Shards stamp their worker index into the id's high bits so
            // job ids stay unique across concurrently-numbering shards.
            job_counter: shard.map_or(0, |w| (w.index() as u64) << 48),
            tick,
            started: false,
            stopping: false,
            mode,
            permissions: PermMask::ALL,
            stats: EngineStats::default(),
            out_edges,
            in_edges,
            rank_cache,
            cache_ctx,
            rank_buf: RankBuf::with_capacity(max_versions),
            policy_cacheable: !matches!(config.version_policy(), VersionPolicy::UserDefined(_)),
            policy_uses_battery,
            wish_buf: Vec::with_capacity(taskset.accels().len()),
            steal_frontier: Vec::with_capacity(if shard.is_some() {
                // k·(D-1) + 1 for the 4-ary heap at the batch cap.
                crate::job::MAX_STEAL_BATCH * 3 + 1
            } else {
                0
            }),
            blocked_buf: Vec::with_capacity(config.max_pending_jobs().min(64)),
            successor_buf: Vec::with_capacity(n),
            outbox: Vec::with_capacity(if shard.is_some() {
                taskset.edges().len()
            } else {
                0
            }),
            cull_buf: if config.cull_missed() {
                Vec::with_capacity(config.max_pending_jobs().min(64))
            } else {
                Vec::new()
            },
            cull_missed: config.cull_missed(),
            task_worker: taskset
                .tasks()
                .iter()
                .map(|t| t.spec().assigned_worker().map_or(u16::MAX, WorkerId::raw))
                .collect(),
            task_accel_bound: taskset
                .tasks()
                .iter()
                .map(|t| t.versions().iter().any(|v| v.accel().is_some()))
                .collect(),
            tenants: vec![TenantEntry {
                first_task: 0,
                task_count: n as u32,
                first_edge: 0,
                edge_count: taskset.edges().len() as u32,
                committed: true,
                retired: false,
                server: None,
            }],
            tenant_of: vec![0; n],
            high_depth: vec![0; n],
            msg_ceiling: vec![Priority::LOWEST; n],
            overrun_policy: taskset
                .tasks()
                .iter()
                .map(|t| t.spec().overrun_policy())
                .collect(),
            enforce_wcet: config.enforce_wcet(),
            miss_trip: config.miss_trip(),
            miss_window_start: Instant::ZERO,
            miss_window_count: 0,
            tripped: false,
            queues,
            running: vec![None; n_slots],
            shard,
            taskset,
            config,
        })
    }

    fn static_priority_of(ts: &TaskSet, policy: PriorityPolicy, t: TaskId) -> Priority {
        let task = &ts.tasks()[t.index()];
        match policy {
            PriorityPolicy::RateMonotonic => ts
                .effective_period(t)
                .map_or(Priority::LOWEST, Priority::rate_monotonic),
            PriorityPolicy::DeadlineMonotonic => {
                let d = ts.effective_deadline(t);
                if d == Duration::MAX {
                    Priority::LOWEST
                } else {
                    Priority::deadline_monotonic(d)
                }
            }
            PriorityPolicy::EarliestDeadlineFirst => Priority::LOWEST, // per-job
            PriorityPolicy::UserDefined => {
                task.spec().static_priority().unwrap_or(Priority::LOWEST)
            }
        }
    }

    /// The scheduler-thread period (gcd of task periods, or the override).
    #[must_use]
    pub fn tick_period(&self) -> Duration {
        self.tick
    }

    /// The task set this engine schedules.
    #[must_use]
    pub fn taskset(&self) -> &TaskSet {
        &self.taskset
    }

    /// A shared handle to the task set — what admission control extends
    /// to build a merged set without cloning the live one.
    #[must_use]
    pub fn taskset_arc(&self) -> Arc<TaskSet> {
        Arc::clone(&self.taskset)
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Switches the execution mode (mode-based version selection, §3.2).
    pub fn set_mode(&mut self, mode: ExecMode) {
        self.mode = mode;
    }

    /// The current execution mode.
    #[must_use]
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Replaces the granted permission mask (permission-based selection).
    pub fn set_permissions(&mut self, perms: PermMask) {
        self.permissions = perms;
    }

    /// Engine counters.
    #[must_use]
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The worker this engine is a shard of, `None` for the whole-system
    /// single-owner engine.
    #[must_use]
    pub fn shard_worker(&self) -> Option<WorkerId> {
        self.shard
    }

    /// The `running`-slot index serving `worker`, `None` when this
    /// engine does not own that worker (foreign shard / out of range).
    fn slot_of(&self, worker: WorkerId) -> Option<usize> {
        match self.shard {
            None => (worker.index() < self.running.len()).then(|| worker.index()),
            Some(w) => (worker == w).then_some(0),
        }
    }

    /// The global worker id served by running-slot `slot`.
    fn worker_of_slot(&self, slot: usize) -> WorkerId {
        match self.shard {
            None => WorkerId::new(slot as u16),
            Some(w) => w,
        }
    }

    /// `true` when this engine releases jobs of `task` (always, unless a
    /// shard not owning the task's assigned worker).
    fn owns_task(&self, task: TaskId) -> bool {
        match self.shard {
            None => true,
            Some(w) => self.taskset.tasks()[task.index()].spec().assigned_worker() == Some(w),
        }
    }

    /// What `worker` is currently executing.
    #[must_use]
    pub fn running(&self, worker: WorkerId) -> Option<&RunningJob> {
        let slot = self.slot_of(worker)?;
        self.running[slot].as_ref()
    }

    /// The most urgent ready job, through a shared reference — O(1) per
    /// queue since [`ReadyQueue::peek`] is index-tracked; suitable for
    /// telemetry and work-stealing probes of a shard.
    #[must_use]
    pub fn most_urgent_hint(&self) -> Option<&Job> {
        self.queues
            .iter()
            .filter_map(ReadyQueue::peek_hint)
            .min_by_key(|j| j.queue_key())
    }

    /// Total jobs currently ready (not running).
    #[must_use]
    pub fn ready_len(&self) -> usize {
        self.queues.iter().map(ReadyQueue::len).sum()
    }

    /// `true` once every queue is empty and every worker idle — the drain
    /// condition after [`OnlineEngine::stop`].
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.ready_len() == 0 && self.running.iter().all(Option::is_none)
    }

    /// `true` if `start` has been called and `stop` has not.
    #[must_use]
    pub fn is_started(&self) -> bool {
        self.started && !self.stopping
    }

    /// Starts the schedule at `now` (the paper's `yas_start`): arms the
    /// periodic release bookkeeping and performs the first release round,
    /// appending the resulting actions to a caller-owned reusable sink.
    ///
    /// # Errors
    ///
    /// [`Error::ScheduleRunning`] if already started.
    pub fn start_into(&mut self, now: Instant, sink: &mut ActionSink) -> Result<()> {
        if self.started && !self.stopping {
            return Err(Error::ScheduleRunning);
        }
        self.started = true;
        self.stopping = false;
        self.next_wake = Instant::MAX;
        for t in self.taskset.tasks() {
            let id = t.id();
            if !self.owns_task(id) {
                continue;
            }
            let is_root = self.taskset.in_degree(id) == 0;
            if is_root && t.spec().kind() == ActivationKind::Periodic {
                let r = now + t.spec().release_offset();
                self.next_release[id.index()] = r;
                self.next_wake = self.next_wake.min(r);
            }
        }
        self.on_tick_into(now, sink);
        Ok(())
    }

    /// Stops releasing new periodic jobs; already-released jobs drain
    /// (the paper's `yas_stop`).
    pub fn stop(&mut self) {
        self.stopping = true;
        for r in &mut self.next_release {
            *r = Instant::MAX;
        }
        self.next_wake = Instant::MAX;
    }

    /// Number of tenants ever admitted (including the built-in tenant 0
    /// and any since retired).
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The tenant owning `task`, `None` for an unknown task.
    #[must_use]
    pub fn tenant_of_task(&self, task: TaskId) -> Option<TenantId> {
        self.tenant_of.get(task.index()).map(|&n| TenantId::new(n))
    }

    /// `true` when `task` belongs to a retired tenant (`false` for
    /// unknown tasks).
    #[must_use]
    pub fn is_task_retired(&self, task: TaskId) -> bool {
        self.tenant_of
            .get(task.index())
            .is_some_and(|&n| self.tenants[n as usize].retired)
    }

    /// `true` when `tenant` has been retired.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTenant`] for an id never admitted.
    pub fn is_tenant_retired(&self, tenant: TenantId) -> Result<bool> {
        self.tenants
            .get(tenant.index())
            .map(|e| e.retired)
            .ok_or(Error::UnknownTenant(tenant.raw()))
    }

    /// The reservation server of `tenant`, `None` when the tenant is
    /// unbudgeted (or unknown).
    #[must_use]
    pub fn tenant_server(&self, tenant: TenantId) -> Option<&ReservationServer> {
        self.tenants.get(tenant.index())?.server.as_ref()
    }

    /// Splices an admitted tenant into the live engine — phase one of
    /// the two-phase admission described in `yasmin_sched::admission`.
    ///
    /// `merged` must be [`TaskSet::extended`] of this engine's current
    /// task set with the tenant's set: every existing id is unchanged
    /// and the tenant occupies the appended suffix. The engine adopts
    /// `merged` and extends every per-task/per-edge structure exactly as
    /// construction would have initialised it, with all of the new
    /// tasks' releases **disarmed** (`Instant::MAX`): after splicing,
    /// the engine knows the tenant's tasks and edges (so cross-shard
    /// tokens for them resolve) but releases nothing of it until
    /// [`OnlineEngine::commit_tenant_into`].
    ///
    /// `server`, if provided, must be tagged with the [`TenantId`] this
    /// splice assigns (the current [`OnlineEngine::tenant_count`]).
    ///
    /// The splice itself allocates (vector growth, rank-cache entries)
    /// — admission is a control-path operation; the post-splice steady
    /// state stays allocation-free.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] if `merged` is not an append-only
    /// extension of the current set, adds no tasks, has a recurring
    /// period that is not a multiple of the engine tick (admitted
    /// tenants cannot re-derive the tick of a running scheduler), or a
    /// mis-tagged server; [`Error::MissingPartition`] /
    /// [`Error::UnknownWorker`] for partition violations.
    pub fn splice_taskset(
        &mut self,
        merged: Arc<TaskSet>,
        server: Option<ReservationServer>,
    ) -> Result<TenantId> {
        let n0 = self.taskset.len();
        let n1 = merged.len();
        let e0 = self.taskset.edges().len();
        let e1 = merged.edges().len();
        if n1 <= n0 {
            return Err(Error::InvalidConfig("tenant splice adds no tasks".into()));
        }
        if e1 < e0
            || merged.edges()[..e0] != self.taskset.edges()[..e0]
            || merged.accels().len() < self.taskset.accels().len()
            || merged.channels().len() < self.taskset.channels().len()
        {
            return Err(Error::InvalidConfig(
                "tenant splice must extend the current task set append-only".into(),
            ));
        }
        let tenant = TenantId::new(self.tenants.len() as u32);
        if let Some(s) = &server {
            if s.tenant() != tenant {
                return Err(Error::InvalidConfig(format!(
                    "reservation server tagged {} but splice assigns {tenant}",
                    s.tenant()
                )));
            }
        }
        let workers = self.config.workers();
        for t in &merged.tasks()[n0..] {
            if self.config.mapping() == MappingScheme::Partitioned {
                match t.spec().assigned_worker() {
                    None => return Err(Error::MissingPartition(t.id())),
                    Some(w) if w.index() >= workers => return Err(Error::UnknownWorker(w)),
                    Some(_) => {}
                }
            }
            if t.spec().kind().is_recurring() {
                let p = t.spec().period();
                if p.as_nanos() % self.tick.as_nanos() != 0 {
                    return Err(Error::InvalidConfig(format!(
                        "tenant task {} period {p:?} is not a multiple of the engine tick \
                         {:?} (the tick is fixed when the schedule starts)",
                        t.id(),
                        self.tick
                    )));
                }
            }
        }

        for t in &merged.tasks()[n0..] {
            let id = t.id();
            self.next_release.push(Instant::MAX);
            self.period.push(t.spec().period());
            self.rel_deadline.push(merged.effective_deadline(id));
            self.queue_of
                .push(match (self.shard, self.config.mapping()) {
                    (Some(_), _) | (None, MappingScheme::Global) => 0,
                    (None, MappingScheme::Partitioned) => {
                        t.spec().assigned_worker().expect("validated above").index() as u32
                    }
                });
            self.last_activation.push(None);
            self.activation_seq.push(0);
            self.static_priority.push(Self::static_priority_of(
                &merged,
                self.config.priority(),
                id,
            ));
            self.rank_cache.push(RankEntry {
                valid: false,
                ids: Vec::with_capacity(t.versions().len()),
            });
            self.task_worker
                .push(t.spec().assigned_worker().map_or(u16::MAX, WorkerId::raw));
            self.task_accel_bound
                .push(t.versions().iter().any(|v| v.accel().is_some()));
            self.out_edges.push(Vec::new());
            self.in_edges.push(Vec::new());
            self.tenant_of.push(tenant.raw());
            self.high_depth.push(0);
            self.msg_ceiling.push(Priority::LOWEST);
            self.overrun_policy.push(t.spec().overrun_policy());
        }
        for (i, e) in merged.edges().iter().enumerate().skip(e0) {
            self.out_edges[e.src.index()].push(i);
            self.in_edges[e.dst.index()].push(i);
            self.tokens.push(0);
            let cap = merged.channels()[e.channel.index()].capacity();
            self.token_release.push(Vec::with_capacity(cap.max(1) + 1));
        }
        self.accels.grow_to(merged.accels().len());
        let max_versions = merged
            .tasks()
            .iter()
            .map(|t| t.versions().len())
            .max()
            .unwrap_or(0);
        self.rank_buf = RankBuf::with_capacity(max_versions);
        // Re-reserve the hot-path scratch so post-splice steady state
        // stays allocation-free even when the tenant widened the graph.
        self.successor_buf.reserve(n1);
        self.wish_buf.reserve(merged.accels().len());
        if self.shard.is_some() {
            self.outbox.reserve(e1);
        }
        self.taskset = merged;
        self.tenants.push(TenantEntry {
            first_task: n0 as u32,
            task_count: (n1 - n0) as u32,
            first_edge: e0 as u32,
            edge_count: (e1 - e0) as u32,
            committed: false,
            retired: false,
            server,
        });
        Ok(tenant)
    }

    /// Arms a spliced tenant's releases — phase two of admission. Every
    /// periodic root the engine owns gets its first release at
    /// `now + release_offset` (release instants are exact; dispatch
    /// happens at the engine's fixed tick granularity), and a release
    /// round runs immediately, so zero-offset tenants start at the
    /// commit instant.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTenant`], [`Error::TenantRetired`],
    /// [`Error::ScheduleNotRunning`] if the engine is not started, or
    /// [`Error::InvalidConfig`] for a double commit.
    pub fn commit_tenant_into(
        &mut self,
        tenant: TenantId,
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        self.commit_tenant_anchored_into(tenant, now, now, sink)
    }

    /// [`OnlineEngine::commit_tenant_into`] with the release anchor
    /// decoupled from the release round: first releases land at
    /// `anchor + release_offset` while the immediate release round runs
    /// at `now`.
    ///
    /// A driver dispatching on a fixed tick grid (the thread runtimes)
    /// passes its **next tick edge** as `anchor`: the tenant's release
    /// train then coincides with dispatch edges, so admitted jobs start
    /// at their nominal releases and the admitted deadlines hold exactly
    /// as analysed. Anchoring at an off-grid instant instead would delay
    /// every dispatch of the tenant by the phase difference — up to one
    /// full tick, enough to sink a deadline equal to the period. Exact
    /// event-driven drivers (the simulator) anchor at `now` via
    /// [`OnlineEngine::commit_tenant_into`].
    ///
    /// `anchor < now` is allowed; the round at `now` releases anything
    /// already due.
    ///
    /// # Errors
    ///
    /// As [`OnlineEngine::commit_tenant_into`].
    pub fn commit_tenant_anchored_into(
        &mut self,
        tenant: TenantId,
        anchor: Instant,
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        if !self.started || self.stopping {
            return Err(Error::ScheduleNotRunning);
        }
        let entry = self
            .tenants
            .get_mut(tenant.index())
            .ok_or(Error::UnknownTenant(tenant.raw()))?;
        if entry.retired {
            return Err(Error::TenantRetired(tenant.raw()));
        }
        if entry.committed {
            return Err(Error::InvalidConfig(format!(
                "tenant {tenant} is already committed"
            )));
        }
        entry.committed = true;
        let range = entry.first_task as usize..(entry.first_task + entry.task_count) as usize;
        for i in range {
            let id = TaskId::new(i as u32);
            if !self.owns_task(id) {
                continue;
            }
            let t = &self.taskset.tasks()[i];
            if self.taskset.in_degree(id) == 0 && t.spec().kind() == ActivationKind::Periodic {
                let r = anchor + t.spec().release_offset();
                self.next_release[i] = r;
                self.next_wake = self.next_wake.min(r);
            }
        }
        self.on_tick_into(now, sink);
        Ok(())
    }

    /// Quiesces a tenant: disarms its future releases, culls its ready
    /// jobs (counted in [`EngineStats::culled`]), drops its pending DAG
    /// tokens, and marks it retired so late activations and in-flight
    /// cross-shard tokens are refused or silently dropped. Jobs of the
    /// tenant already *running* are not interrupted — they complete
    /// normally (and are the last of the tenant to be accounted), they
    /// just no longer fire successors. Other tenants are untouched.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTenant`]; [`Error::TenantRetired`] on a double
    /// retire; [`Error::InvalidConfig`] for tenant 0 (the built-in task
    /// set cannot be retired — stop the schedule instead).
    pub fn retire_tenant_into(
        &mut self,
        tenant: TenantId,
        _now: Instant,
        _sink: &mut ActionSink,
    ) -> Result<()> {
        if tenant.index() == 0 {
            return Err(Error::InvalidConfig(
                "tenant 0 is the built-in task set; stop the schedule to end it".into(),
            ));
        }
        let entry = self
            .tenants
            .get_mut(tenant.index())
            .ok_or(Error::UnknownTenant(tenant.raw()))?;
        if entry.retired {
            return Err(Error::TenantRetired(tenant.raw()));
        }
        entry.retired = true;
        let tasks = entry.first_task as usize..(entry.first_task + entry.task_count) as usize;
        let edges = entry.first_edge as usize..(entry.first_edge + entry.edge_count) as usize;
        for i in tasks {
            self.next_release[i] = Instant::MAX;
        }
        for i in edges {
            self.tokens[i] = 0;
            self.token_release[i].clear();
        }
        let raw = tenant.raw();
        let mut expired = std::mem::take(&mut self.cull_buf);
        for qi in 0..self.queues.len() {
            expired.clear();
            expired.extend(
                self.queues[qi]
                    .iter()
                    .filter(|j| self.tenant_of[j.task.index()] == raw)
                    .map(|j| j.id),
            );
            for &id in &expired {
                if self.queues[qi].remove(id).is_some() {
                    self.stats.culled += 1;
                }
            }
        }
        expired.clear();
        self.cull_buf = expired;
        Ok(())
    }

    /// One scheduler-thread activation at time `now`: releases every
    /// periodic job due by `now`, then dispatches/preempts, appending the
    /// resulting actions to a caller-owned reusable sink. With a
    /// warmed-up sink this path performs no heap allocation in steady
    /// state.
    pub fn on_tick_into(&mut self, now: Instant, sink: &mut ActionSink) {
        if now >= self.next_wake {
            let mut wake = Instant::MAX;
            for i in 0..self.next_release.len() {
                let mut r = self.next_release[i];
                if r <= now {
                    let task = TaskId::new(i as u32);
                    let period = self.period[i];
                    while r <= now {
                        self.release_job(task, r, r);
                        r += period;
                    }
                    self.next_release[i] = r;
                }
                wake = wake.min(r);
            }
            self.next_wake = wake;
        }
        if self.enforce_wcet {
            self.enforce_overruns(now, sink);
        }
        if self.miss_trip.is_some() {
            self.roll_miss_window(now);
        }
        if self.cull_missed {
            self.cull_missed_jobs(now);
        }
        self.dispatch_round(now, sink);
    }

    /// Scans the running slots for jobs strictly past their enforcement
    /// deadline and applies each overrunning task's [`OverrunPolicy`]
    /// exactly once. Only called when `Config::enforce_wcet` opted in,
    /// so enforcement-off ticks pay nothing.
    fn enforce_overruns(&mut self, now: Instant, sink: &mut ActionSink) {
        for s in 0..self.running.len() {
            let due = self.running[s]
                .as_ref()
                .is_some_and(|r| !r.overrun && now > r.enforce_by);
            if due {
                self.apply_overrun(s, now, sink);
            }
        }
    }

    /// Marks the job in running-slot `s` as overrunning: counts it,
    /// bills the overage to its tenant's reservation replica (so one
    /// tenant's overruns never eat another's budget), and applies the
    /// task's [`OverrunPolicy`].
    fn apply_overrun(&mut self, s: usize, now: Instant, sink: &mut ActionSink) {
        let (task, job, overage) = {
            let r = self.running[s].as_mut().expect("caller checked the slot");
            r.overrun = true;
            (r.job.task, r.job.id, now.saturating_since(r.enforce_by))
        };
        self.stats.overruns += 1;
        let tenant = self.tenant_of[task.index()] as usize;
        if let Some(server) = self.tenants[tenant].server.as_mut() {
            let _ = server.charge_overrun(now, overage);
        }
        match self.overrun_policy[task.index()] {
            OverrunPolicy::Kill => {
                let r = self.running[s].as_mut().expect("slot still occupied");
                r.killed = true;
            }
            OverrunPolicy::DemoteToBackground => {
                let worker = self.worker_of_slot(s);
                let r = self.running[s].as_mut().expect("slot still occupied");
                if r.effective_priority != Priority::LOWEST {
                    r.effective_priority = Priority::LOWEST;
                    sink.push(Action::Boost {
                        worker,
                        job,
                        priority: Priority::LOWEST,
                    });
                }
            }
            OverrunPolicy::LogOnly => {}
        }
    }

    /// Deterministic fault injection: treats the running job of `task`
    /// (if any, and not already flagged) as overrunning *right now*,
    /// regardless of its enforcement deadline or whether enforcement is
    /// enabled. Returns `true` when a job was flagged. The simulator's
    /// `fault_schedule` drives this so overrun behaviour is replayable
    /// bit-for-bit.
    pub fn force_overrun(&mut self, task: TaskId, now: Instant, sink: &mut ActionSink) -> bool {
        for s in 0..self.running.len() {
            let hit = self.running[s]
                .as_ref()
                .is_some_and(|r| r.job.task == task && !r.overrun);
            if hit {
                self.apply_overrun(s, now, sink);
                return true;
            }
        }
        false
    }

    /// Observes one deadline miss at `now` for the trip wire; no-op when
    /// `Config::miss_trip` is disarmed.
    fn note_miss(&mut self, now: Instant) {
        let Some((_, budget)) = self.miss_trip else {
            return;
        };
        self.roll_miss_window(now);
        self.miss_window_count += 1;
        if self.miss_window_count > budget && !self.tripped {
            self.tripped = true;
            self.stats.miss_trips += 1;
        }
    }

    /// Advances the tumbling miss-accounting window: once a full window
    /// has elapsed the count resets, and — the recovery half of the trip
    /// wire — a tripped engine untrips, restoring `LogOnly`-class tasks
    /// to their base release priority.
    fn roll_miss_window(&mut self, now: Instant) {
        let Some((window, _)) = self.miss_trip else {
            return;
        };
        if now.saturating_since(self.miss_window_start) >= window {
            self.miss_window_start = now;
            self.miss_window_count = 0;
            self.tripped = false;
        }
    }

    /// `true` while the deadline-miss trip wire is tripped (shedding
    /// mode: `LogOnly`-class tasks release at background priority).
    #[must_use]
    pub fn is_tripped(&self) -> bool {
        self.tripped
    }

    /// Removes every ready job whose absolute deadline has already
    /// passed at `now` — each removal is the queue's O(log n)
    /// [`ReadyQueue::remove`], located by an O(queue) scan that only
    /// runs when [`yasmin_core::config::Config::cull_missed`] opted in.
    /// Running jobs are never culled (they complete and are accounted
    /// as misses by the driver).
    fn cull_missed_jobs(&mut self, now: Instant) {
        let mut expired = std::mem::take(&mut self.cull_buf);
        for qi in 0..self.queues.len() {
            expired.clear();
            expired.extend(
                self.queues[qi]
                    .iter()
                    .filter(|j| j.deadline_missed_at(now))
                    .map(|j| j.id),
            );
            for &id in &expired {
                if self.queues[qi].remove(id).is_some() {
                    self.stats.culled += 1;
                }
            }
        }
        expired.clear();
        self.cull_buf = expired;
    }

    /// Explicit activation (the paper's `yas_task_activate`): sporadic
    /// arrivals and user-triggered aperiodic jobs, appending the
    /// resulting actions to a caller-owned reusable sink.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTask`]; [`Error::InvalidConfig`] for periodic tasks
    /// (those are released by the scheduler itself).
    pub fn activate_into(
        &mut self,
        task: TaskId,
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        let t = self.taskset.task(task)?;
        if self.is_task_retired(task) {
            return Err(Error::TenantRetired(self.tenant_of[task.index()]));
        }
        if !self.owns_task(task) {
            return Err(Error::InvalidConfig(format!(
                "task {task} is not assigned to this engine shard"
            )));
        }
        match t.spec().kind() {
            ActivationKind::Periodic => {
                return Err(Error::InvalidConfig(format!(
                    "periodic task {task} is released by the scheduler, not task_activate"
                )))
            }
            ActivationKind::Sporadic => {
                if let Some(last) = self.last_activation[task.index()] {
                    if now.saturating_since(last) < t.spec().period() {
                        self.stats.sporadic_violations += 1;
                    }
                }
            }
            ActivationKind::Aperiodic => {}
        }
        self.release_job(task, now, now);
        self.dispatch_round(now, sink);
        Ok(())
    }

    /// Notification that `job` finished on `worker` at `now`. Frees the
    /// worker and any held accelerator, fires DAG successors, then
    /// dispatches, appending the resulting actions to a caller-owned
    /// reusable sink. With a warmed-up sink this path performs no heap
    /// allocation in steady state.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] if `worker` is not running `job` — a
    /// driver protocol violation.
    pub fn on_job_completed_into(
        &mut self,
        worker: WorkerId,
        job: JobId,
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        self.retire_job(worker, job, now)?;
        self.dispatch_round(now, sink);
        Ok(())
    }

    /// Batched completion hand-back: retires **every** `(worker, job)`
    /// pair — freeing the workers and any held accelerators, firing DAG
    /// successors — and only then runs a *single* selection/dispatch
    /// round, instead of one round per completion. When completions
    /// arrive in bursts (a mailbox drain finding several pending, the
    /// simulator retiring same-timestamp finishes), this amortises the
    /// dispatch round across the burst and lets the round see the whole
    /// burst's released successors before placing jobs on workers.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownWorker`] / [`Error::InvalidConfig`] on the first
    /// entry violating the completion protocol. Entries before the
    /// offending one are already retired and are dispatched for (the
    /// engine stays consistent); entries after it are untouched.
    pub fn on_jobs_completed_into(
        &mut self,
        completions: &[(WorkerId, JobId)],
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        let mut retired = 0usize;
        let mut first_err = None;
        for &(worker, job) in completions {
            match self.retire_job(worker, job, now) {
                Ok(()) => retired += 1,
                Err(e) => {
                    first_err = Some(e);
                    break;
                }
            }
        }
        if retired > 0 {
            self.dispatch_round(now, sink);
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// One coalesced engine round: retires every `(worker, job)`
    /// completion, then performs the tick at `now` (periodic releases,
    /// optional deadline culling) and a **single** dispatch round for
    /// all of it. This is what a sharded scheduler thread calls when a
    /// wake finds pending completions *and* a due tick: instead of one
    /// dispatch round for the completion batch and another for the
    /// tick, the whole wake pays one round that sees both the freed
    /// workers and the fresh releases.
    ///
    /// # Errors
    ///
    /// As [`OnlineEngine::on_jobs_completed_into`]; on error the valid
    /// completion prefix is retired and the tick still runs, so the
    /// engine stays consistent.
    pub fn advance_into(
        &mut self,
        completions: &[(WorkerId, JobId)],
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        let mut first_err = None;
        for &(worker, job) in completions {
            if let Err(e) = self.retire_job(worker, job, now) {
                first_err = Some(e);
                break;
            }
        }
        self.on_tick_into(now, sink);
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The most urgent ready job as a work-stealing hint — O(1),
    /// through a shared reference, shard engines only (`None`
    /// otherwise). No hint is given for a job that must not migrate:
    /// one of an accelerator-bound task (accelerators are arbitrated
    /// shard-locally), or one this shard itself adopted from elsewhere
    /// — a job migrates **at most once**, so thieves can never bounce
    /// work around or hand a job back to its owner.
    #[must_use]
    pub fn steal_hint(&self) -> Option<StealHint> {
        let w = self.shard?;
        let job = self.queues[0].peek_hint()?;
        if self.task_worker[job.task.index()] != w.raw() || self.task_accel_bound[job.task.index()]
        {
            return None;
        }
        Some(StealHint {
            job: job.id,
            task: job.task,
            priority: job.priority,
        })
    }

    /// Hands the hinted ready job to a thief (victim side of a steal):
    /// removes it from the ready queue in O(log n) via the
    /// index-tracked [`ReadyQueue::remove`] and returns it for the
    /// thief to adopt. Returns `None` when the hint went stale (the job
    /// dispatched or was culled since the hint was taken) or the job
    /// must not migrate (accelerator-bound task, or a job this shard
    /// itself adopted — migration happens at most once).
    pub fn release_stolen(&mut self, hint: StealHint) -> Option<Job> {
        let w = self.shard?;
        if self.task_worker[hint.task.index()] != w.raw()
            || self.task_accel_bound[hint.task.index()]
        {
            return None;
        }
        let job = self.queues[0].remove(hint.job)?;
        debug_assert_eq!(job.task, hint.task);
        self.stats.donated += 1;
        Some(job)
    }

    /// Adopts a job stolen from a victim shard (thief side): the job
    /// enters this shard's ready queue — keeping EDF order against any
    /// local work — and the dispatch round runs it on this shard's
    /// worker, reporting the thief's **global** [`WorkerId`] in the
    /// dispatch action. Completion is then handed back to *this* shard
    /// like any local job; DAG successors it fires are routed by
    /// destination ownership (outbox for foreign destinations).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] on a non-shard engine or for a task of
    /// this very shard (nothing was stolen) — protocol violations. A
    /// *full* local queue is not an error: like every release-path
    /// overflow it is a sizing condition, surfaced through
    /// `stats.channel_overflows` (the job is dropped) rather than by
    /// panicking a scheduler thread mid-handshake.
    pub fn adopt_stolen(&mut self, job: Job, now: Instant, sink: &mut ActionSink) -> Result<()> {
        let Some(w) = self.shard else {
            return Err(Error::InvalidConfig(
                "only engine shards adopt stolen jobs".into(),
            ));
        };
        if self.task_worker[job.task.index()] == w.raw() {
            return Err(Error::InvalidConfig(format!(
                "job of task {} is already owned by shard {w}",
                job.task
            )));
        }
        if self.queues[0].push(job).is_ok() {
            self.stats.stolen += 1;
            self.stats.max_ready = self.stats.max_ready.max(self.ready_len());
        } else {
            self.stats.channel_overflows += 1;
        }
        self.dispatch_round(now, sink);
        Ok(())
    }

    /// Up to `k` steal hints in ascending queue-key order — the batch
    /// generalisation of [`OnlineEngine::steal_hint`]. The ordered scan
    /// walks the ready heap without detaching anything and **stops at
    /// the first job that must not migrate** (accelerator-bound task,
    /// or a job this shard itself adopted): like the single-job probe,
    /// a thief never takes less urgent work while skipping over more
    /// urgent local-only work. Hints are appended to `out` (cleared
    /// here); returns the number produced. Shard engines only — 0
    /// otherwise.
    pub fn steal_hints(&mut self, k: usize, out: &mut Vec<StealHint>) -> usize {
        out.clear();
        let Some(w) = self.shard else { return 0 };
        let k = k.min(crate::job::MAX_STEAL_BATCH);
        if k == 0 {
            return 0;
        }
        let mut frontier = std::mem::take(&mut self.steal_frontier);
        let task_worker = &self.task_worker;
        let task_accel_bound = &self.task_accel_bound;
        self.queues[0].scan_in_order(&mut frontier, |job| {
            if task_worker[job.task.index()] != w.raw() || task_accel_bound[job.task.index()] {
                return false;
            }
            out.push(StealHint {
                job: job.id,
                task: job.task,
                priority: job.priority,
            });
            out.len() < k
        });
        self.steal_frontier = frontier;
        out.len()
    }

    /// Hands a batch of hinted jobs to a thief in one exchange (victim
    /// side): each hint is re-validated exactly like
    /// [`OnlineEngine::release_stolen`] — stale hints (dispatched or
    /// culled since the probe) and jobs that must no longer migrate are
    /// skipped, never errors — and each detached job is appended to
    /// `out` in hint order (most urgent first). Returns the number
    /// detached; every one counts in [`EngineStats::donated`].
    pub fn release_stolen_batch(&mut self, hints: &[StealHint], out: &mut JobBatch) -> usize {
        let mut released = 0;
        for &hint in hints {
            let Some(job) = self.release_stolen(hint) else {
                continue;
            };
            if out.push(job) {
                released += 1;
            } else {
                // The batch filled up (protocol cap): put the job back —
                // it was never handed over. The push cannot fail: the
                // remove just freed its slot.
                self.queues[0].push(job).expect("slot was just vacated");
                self.stats.donated -= 1;
                break;
            }
        }
        released
    }

    /// Adopts a whole stolen batch (thief side): every job enters this
    /// shard's ready queue — keeping EDF order against local work —
    /// then **one** dispatch round runs for the batch, which is the
    /// point of batching: k migrations pay one protocol exchange and
    /// one dispatch round instead of k of each. Tenant budgets keep the
    /// single-steal semantics — each job charges *this* shard's replica
    /// of its tenant's reservation at dispatch, not at adoption.
    ///
    /// Books one exchange in [`EngineStats::stolen_batch`] and the
    /// batch length in the [`EngineStats::steal_batch_len`] histogram;
    /// each job also counts in [`EngineStats::stolen`].
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] on a non-shard engine or when any job
    /// belongs to this very shard (nothing was stolen) — protocol
    /// violations, checked before any job is enqueued. A *full* local
    /// queue is not an error: overflowing jobs are dropped and counted
    /// in `stats.channel_overflows`, like every release-path overflow.
    pub fn adopt_stolen_batch(
        &mut self,
        jobs: &[Job],
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        let Some(w) = self.shard else {
            return Err(Error::InvalidConfig(
                "only engine shards adopt stolen jobs".into(),
            ));
        };
        if let Some(job) = jobs
            .iter()
            .find(|j| self.task_worker[j.task.index()] == w.raw())
        {
            return Err(Error::InvalidConfig(format!(
                "job of task {} is already owned by shard {w}",
                job.task
            )));
        }
        if jobs.is_empty() {
            return Ok(());
        }
        for &job in jobs {
            if self.queues[0].push(job).is_ok() {
                self.stats.stolen += 1;
            } else {
                self.stats.channel_overflows += 1;
            }
        }
        self.stats.max_ready = self.stats.max_ready.max(self.ready_len());
        self.stats.stolen_batch += 1;
        let bucket = (jobs.len() - 1).min(self.stats.steal_batch_len.len() - 1);
        self.stats.steal_batch_len[bucket] += 1;
        self.dispatch_round(now, sink);
        Ok(())
    }

    /// Validates and books one completion — frees the worker slot,
    /// releases any held accelerator, fires DAG successors — without
    /// running a dispatch round (the caller batches that). A job flagged
    /// [`OverrunPolicy::Kill`] retires without firing successors, and a
    /// completion past its absolute deadline feeds the miss trip wire.
    fn retire_job(&mut self, worker: WorkerId, job: JobId, now: Instant) -> Result<()> {
        let slot = self
            .slot_of(worker)
            .and_then(|s| self.running.get_mut(s))
            .ok_or(Error::UnknownWorker(worker))?;
        let running = slot.take().ok_or_else(|| {
            Error::InvalidConfig(format!("worker {worker} completed {job} while idle"))
        })?;
        if running.job.id != job {
            let actual = running.job.id;
            *slot = Some(running);
            return Err(Error::InvalidConfig(format!(
                "worker {worker} completed {job} but runs {actual}"
            )));
        }
        self.stats.completed += 1;
        if self.miss_trip.is_some() && running.job.abs_deadline < now {
            self.note_miss(now);
        }
        if let Some(a) = running.accel {
            self.accels.release(a, job);
        }
        if !running.killed {
            self.fire_successors(running.job.task, running.job.graph_release);
        }
        Ok(())
    }

    /// Validates and books one *failed* completion (the body panicked;
    /// the runtime contained the unwind). The worker slot and any held
    /// accelerator are freed like a normal retirement, the failure is
    /// counted in [`EngineStats::failed`] and fed to the miss trip wire,
    /// and the task's [`OverrunPolicy`] decides the successor tokens:
    /// `LogOnly` fires them (downstream stages still run, presumably on
    /// stale data the application tolerates), `Kill` and
    /// `DemoteToBackground` drop them (the containment boundary).
    fn retire_failed(&mut self, worker: WorkerId, job: JobId, now: Instant) -> Result<()> {
        let slot = self
            .slot_of(worker)
            .and_then(|s| self.running.get_mut(s))
            .ok_or(Error::UnknownWorker(worker))?;
        let running = slot.take().ok_or_else(|| {
            Error::InvalidConfig(format!("worker {worker} failed {job} while idle"))
        })?;
        if running.job.id != job {
            let actual = running.job.id;
            *slot = Some(running);
            return Err(Error::InvalidConfig(format!(
                "worker {worker} failed {job} but runs {actual}"
            )));
        }
        self.stats.failed += 1;
        self.note_miss(now);
        if let Some(a) = running.accel {
            self.accels.release(a, job);
        }
        if self.overrun_policy[running.job.task.index()] == OverrunPolicy::LogOnly
            && !running.killed
        {
            self.fire_successors(running.job.task, running.job.graph_release);
        }
        Ok(())
    }

    /// Notification that `job`'s body *failed* on `worker` at `now` (a
    /// contained panic). Frees the worker and any held accelerator,
    /// applies the task's [`OverrunPolicy`] to the successor tokens, and
    /// dispatches.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] if `worker` is not running `job` — a
    /// driver protocol violation.
    pub fn on_job_failed_into(
        &mut self,
        worker: WorkerId,
        job: JobId,
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        self.retire_failed(worker, job, now)?;
        self.dispatch_round(now, sink);
        Ok(())
    }

    /// Pushes one token per outgoing edge of `task` and releases any
    /// successor whose inputs are all present (§3.3: inner nodes are
    /// "automatically activated by the scheduler, once all required
    /// incoming data are present in their input channels"). Edge
    /// adjacency is precomputed at construction and the successor set
    /// lives in a reusable scratch, so firing allocates nothing.
    ///
    /// Token state is owned by the shard owning the edge's
    /// **destination**: an out-edge whose destination belongs to a
    /// foreign shard is not fired here — it lands in the outbox as a
    /// [`RemoteActivation`] for the driver to route, which is also why a
    /// *stolen* job completing on a thief shard stays consistent (the
    /// thief fires only the edges whose destinations it owns).
    fn fire_successors(&mut self, task: TaskId, graph_release: Instant) {
        // A retired tenant's in-flight jobs complete but activate
        // nothing: edges never cross tenants, so skipping the whole
        // fan-out (local tokens *and* outbox entries) is exact.
        if self.tenants[self.tenant_of[task.index()] as usize].retired {
            return;
        }
        let mut successors = std::mem::take(&mut self.successor_buf);
        successors.clear();
        for k in 0..self.out_edges[task.index()].len() {
            let i = self.out_edges[task.index()][k];
            let dst = self.taskset.edges()[i].dst;
            if let Some(w) = self.shard {
                let dw = self.task_worker[dst.index()];
                if dw != w.raw() {
                    self.outbox.push(RemoteActivation {
                        worker: WorkerId::new(dw),
                        edge: i as u32,
                        graph_release,
                    });
                    self.stats.cross_activations += 1;
                    continue;
                }
            }
            self.push_token(i, graph_release);
            if !successors.contains(&dst) {
                successors.push(dst);
            }
        }
        for &dst in &successors {
            self.try_fire_joins(dst);
        }
        self.successor_buf = successors;
    }

    /// Books one token on edge `i` (no release attempt). A token
    /// arriving on a full channel is resolved by the channel's
    /// [`BackpressurePolicy`]: `Reject` counts the overflow and keeps
    /// everything (historic behaviour); `DropOldest` sheds the oldest
    /// buffered token; `DeadlineAwareDrop` sheds the token with the
    /// latest downstream release (the least urgent). The shedding paths
    /// leave the FIFO length unchanged, so pre-reserved release buffers
    /// never reallocate under overload.
    fn push_token(&mut self, i: usize, graph_release: Instant) {
        let spec = &self.taskset.channels()[self.taskset.edges()[i].channel.index()];
        let cap = spec.capacity();
        let policy = spec.backpressure();
        if cap > 0 && self.tokens[i] as usize >= cap {
            match policy {
                BackpressurePolicy::Reject => {
                    self.tokens[i] += 1;
                    self.token_release[i].push(graph_release);
                    self.stats.channel_overflows += 1;
                }
                BackpressurePolicy::DropOldest => {
                    self.token_release[i].remove(0);
                    self.token_release[i].push(graph_release);
                    self.stats.shed_drops += 1;
                }
                BackpressurePolicy::DeadlineAwareDrop => {
                    // Shed the least urgent instance: the one whose
                    // graph release (hence derived deadline) is latest.
                    // Ties keep the older instance (FIFO stability).
                    let fifo = &mut self.token_release[i];
                    fifo.push(graph_release);
                    let mut worst = 0;
                    for k in 1..fifo.len() {
                        if fifo[k] > fifo[worst] {
                            worst = k;
                        }
                    }
                    fifo.remove(worst);
                    self.stats.shed_drops += 1;
                }
            }
        } else {
            self.tokens[i] += 1;
            self.token_release[i].push(graph_release);
        }
    }

    /// Releases instances of `dst` while every input edge holds a token.
    fn try_fire_joins(&mut self, dst: TaskId) {
        loop {
            let n_in = self.in_edges[dst.index()].len();
            let all_present = (0..n_in).all(|k| self.tokens[self.in_edges[dst.index()][k]] > 0);
            if !all_present {
                break;
            }
            // Consume one token per input; the graph release of the
            // new job is the *oldest* input instance (join semantics).
            let mut release = Instant::ZERO;
            for k in 0..n_in {
                let i = self.in_edges[dst.index()][k];
                self.tokens[i] -= 1;
                let r = self.token_release[i].remove(0);
                release = release.max(r);
            }
            self.release_job(dst, release, release);
        }
    }

    /// Applies a DAG token routed from a foreign shard (the receiving
    /// half of a cross-shard edge): books the token on `edge`, releases
    /// the destination if its join is complete, and dispatches.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when `edge` is out of range or this
    /// engine does not own the edge's destination — driver routing
    /// bugs, not runtime conditions.
    pub fn on_remote_token(
        &mut self,
        edge: u32,
        graph_release: Instant,
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        let i = edge as usize;
        if i >= self.taskset.edges().len() {
            return Err(Error::InvalidConfig(format!(
                "remote token names edge {edge} of {}",
                self.taskset.edges().len()
            )));
        }
        let dst = self.taskset.edges()[i].dst;
        // A token racing a tenant retirement (sent before the source
        // shard learned of it) is silently dropped, not a protocol
        // error.
        if self.is_task_retired(dst) {
            return Ok(());
        }
        if !self.owns_task(dst) {
            return Err(Error::InvalidConfig(format!(
                "remote token for edge {edge} routed to a shard not owning {dst}"
            )));
        }
        self.push_token(i, graph_release);
        self.try_fire_joins(dst);
        self.dispatch_round(now, sink);
        Ok(())
    }

    /// Moves every pending [`RemoteActivation`] into `buf` (appended;
    /// the outbox is left empty). Drivers call this after any engine
    /// interaction that may complete jobs and route each entry to the
    /// owning shard. The caller's buffer is reusable, so the steady
    /// state allocates nothing.
    pub fn drain_outbox_into(&mut self, buf: &mut Vec<RemoteActivation>) {
        buf.append(&mut self.outbox);
    }

    /// `true` when cross-shard tokens are waiting to be routed.
    #[must_use]
    pub fn has_outbox(&self) -> bool {
        !self.outbox.is_empty()
    }

    /// A high-priority message was posted to `dst`'s high lane: raises
    /// the task's active ceiling to `min(current, ceiling)` and applies
    /// the boost — the most urgent pending job of `dst` is re-queued at
    /// the ceiling, a running job of `dst` has its effective priority
    /// raised (emitting [`Action::Boost`]), and jobs released while the
    /// lane stays non-empty inherit the ceiling at release. The boost
    /// holds until [`OnlineEngine::on_high_drained_into`] has been
    /// called once per post (depth counting), making message priority a
    /// schedulable quantity, not just queue ordering.
    ///
    /// A dispatch round runs afterwards, so under preemptive configs a
    /// boosted pending job preempts immediately.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTask`] for an out-of-range task, or
    /// [`Error::InvalidConfig`] when a shard engine receives a post for
    /// a task it does not own — driver routing bugs, not runtime
    /// conditions. Posts for retired-tenant tasks are silently dropped.
    pub fn on_high_posted_into(
        &mut self,
        dst: TaskId,
        ceiling: Priority,
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        let ti = dst.index();
        if ti >= self.taskset.len() {
            return Err(Error::UnknownTask(dst));
        }
        if self.is_task_retired(dst) {
            return Ok(());
        }
        if self.shard.is_some() && !self.owns_task(dst) {
            return Err(Error::InvalidConfig(format!(
                "high-priority message for {dst} routed to a shard not owning it"
            )));
        }
        self.high_depth[ti] += 1;
        if ceiling.is_higher_than(self.msg_ceiling[ti]) {
            self.msg_ceiling[ti] = ceiling;
        }
        let active = self.msg_ceiling[ti];
        // Boost the most urgent pending job of `dst` (O(log n) re-queue
        // through the index heap; the scan itself allocates nothing).
        let qi = self.queue_of[ti] as usize;
        let mut target: Option<(Priority, JobId)> = None;
        for j in self.queues[qi].iter() {
            if j.task == dst
                && active.is_higher_than(j.priority)
                && target.is_none_or(|(p, _)| j.priority.is_higher_than(p))
            {
                target = Some((j.priority, j.id));
            }
        }
        if let Some((_, id)) = target {
            let mut job = self.queues[qi].remove(id).expect("job was just iterated");
            job.priority = active;
            let _ = self.queues[qi].push(job);
            self.stats.msg_boosts += 1;
        }
        // Boost a running job of `dst` the way accelerator PIP does:
        // update the slot's effective priority and tell the driver.
        for s in 0..self.running.len() {
            let worker = self.worker_of_slot(s);
            let mut boosted = None;
            if let Some(r) = self.running[s].as_mut() {
                if r.job.task == dst && active.is_higher_than(r.effective_priority) {
                    r.effective_priority = active;
                    boosted = Some(r.job.id);
                }
            }
            if let Some(job) = boosted {
                self.stats.msg_boosts += 1;
                sink.push(Action::Boost {
                    worker,
                    job,
                    priority: active,
                });
            }
        }
        self.dispatch_round(now, sink);
        Ok(())
    }

    /// One high-priority message of `dst` was consumed. When the last
    /// outstanding post drains (depth reaches zero) the boost is
    /// released: pending jobs of `dst` return to their base priority
    /// (recomputed — EDF from the absolute deadline, otherwise the
    /// static task priority), and a running job whose effective priority
    /// equals the released ceiling falls back to base (a concurrent,
    /// more urgent accelerator-PIP boost is left untouched).
    ///
    /// # Errors
    ///
    /// As [`OnlineEngine::on_high_posted_into`]. Draining an empty lane
    /// is a protocol error in debug builds and a no-op in release.
    pub fn on_high_drained_into(
        &mut self,
        dst: TaskId,
        now: Instant,
        sink: &mut ActionSink,
    ) -> Result<()> {
        let ti = dst.index();
        if ti >= self.taskset.len() {
            return Err(Error::UnknownTask(dst));
        }
        if self.is_task_retired(dst) {
            return Ok(());
        }
        if self.shard.is_some() && !self.owns_task(dst) {
            return Err(Error::InvalidConfig(format!(
                "high-lane drain for {dst} routed to a shard not owning it"
            )));
        }
        debug_assert!(self.high_depth[ti] > 0, "drained an empty high lane");
        self.high_depth[ti] = self.high_depth[ti].saturating_sub(1);
        if self.high_depth[ti] > 0 {
            return Ok(());
        }
        let ceiling = std::mem::replace(&mut self.msg_ceiling[ti], Priority::LOWEST);
        if ceiling == Priority::LOWEST {
            return Ok(());
        }
        // De-boost pending jobs: each restored job stops matching the
        // scan, so the loop terminates after at most one pass per
        // boosted job, allocation-free.
        let qi = self.queue_of[ti] as usize;
        loop {
            let mut found: Option<(JobId, Priority)> = None;
            for j in self.queues[qi].iter() {
                if j.task == dst {
                    let base = self.base_priority_of(j);
                    if j.priority != base {
                        found = Some((j.id, base));
                        break;
                    }
                }
            }
            let Some((id, base)) = found else { break };
            let mut job = self.queues[qi].remove(id).expect("job was just iterated");
            job.priority = base;
            let _ = self.queues[qi].push(job);
        }
        // De-boost a running job only when the message ceiling is the
        // active component of its effective priority.
        for s in 0..self.running.len() {
            let worker = self.worker_of_slot(s);
            let mut restored = None;
            if let Some(r) = self.running[s].as_mut() {
                if r.job.task == dst && r.effective_priority == ceiling {
                    let base = r.job.priority;
                    if base != r.effective_priority {
                        r.effective_priority = base;
                        restored = Some((r.job.id, base));
                    }
                }
            }
            if let Some((job, priority)) = restored {
                sink.push(Action::Boost {
                    worker,
                    job,
                    priority,
                });
            }
        }
        self.dispatch_round(now, sink);
        Ok(())
    }

    /// Outstanding high-priority messages for `task` (posted minus
    /// drained); the message boost is held while this is non-zero.
    #[must_use]
    pub fn high_lane_depth(&self, task: TaskId) -> u32 {
        self.high_depth.get(task.index()).copied().unwrap_or(0)
    }

    /// The ceiling `task` currently inherits from its high message lane,
    /// or `None` when no boost is active.
    #[must_use]
    pub fn active_msg_ceiling(&self, task: TaskId) -> Option<Priority> {
        match self.msg_ceiling.get(task.index()) {
            Some(&c) if c != Priority::LOWEST => Some(c),
            _ => None,
        }
    }

    /// The base (un-boosted) priority of a job under the active policy.
    fn base_priority_of(&self, job: &Job) -> Priority {
        match self.config.priority() {
            PriorityPolicy::EarliestDeadlineFirst => Priority::earliest_deadline(job.abs_deadline),
            _ => self.static_priority[job.task.index()],
        }
    }

    fn release_job(&mut self, task: TaskId, release: Instant, graph_release: Instant) {
        debug_assert!(
            !self.is_task_retired(task),
            "released a job of retired-tenant task {task}"
        );
        let seq = self.activation_seq[task.index()];
        self.activation_seq[task.index()] += 1;
        self.last_activation[task.index()] = Some(release);
        let rel_deadline = self.rel_deadline[task.index()];
        let abs_deadline = if rel_deadline == Duration::MAX {
            Instant::MAX
        } else {
            graph_release + rel_deadline
        };
        let priority = match self.config.priority() {
            PriorityPolicy::EarliestDeadlineFirst => Priority::earliest_deadline(abs_deadline),
            _ => self.static_priority[task.index()],
        };
        // Shedding mode: while the miss trip wire is tripped,
        // `LogOnly`-class tasks release at background priority so the
        // enforced/critical classes get the processor first. The message
        // ceiling below still applies — a control-plane boost outranks
        // the demotion.
        let priority =
            if self.tripped && self.overrun_policy[task.index()] == OverrunPolicy::LogOnly {
                Priority::LOWEST
            } else {
                priority
            };
        // A job released while its task's high message lane is non-empty
        // inherits the active ceiling immediately (message-plane PIP).
        let ceiling = self.msg_ceiling[task.index()];
        let priority = if ceiling.is_higher_than(priority) {
            ceiling
        } else {
            priority
        };
        let job = Job {
            id: JobId::new(self.job_counter),
            task,
            seq,
            release,
            graph_release,
            abs_deadline,
            priority,
            preempted: false,
        };
        self.job_counter += 1;
        let qi = self.queue_index(task);
        if self.queues[qi].push(job).is_err() {
            // A sizing error; surfaced through the stats rather than
            // panicking mid-schedule.
            self.stats.channel_overflows += 1;
        } else {
            self.stats.released += 1;
        }
        self.stats.max_ready = self.stats.max_ready.max(self.ready_len());
    }

    fn queue_index(&self, task: TaskId) -> usize {
        if self.shard.is_some() {
            debug_assert!(self.owns_task(task), "shard released a foreign task");
        }
        self.queue_of[task.index()] as usize
    }

    fn select_ctx(&self) -> SelectCtx {
        SelectCtx {
            // Battery-independent policies get a constant placeholder:
            // probing the battery on every dispatch would both cost a
            // callback and, with a drifting probe, invalidate the rank
            // cache on every call for no behavioural reason.
            battery: if self.policy_uses_battery {
                self.config.read_battery()
            } else {
                BatteryLevel::FULL
            },
            mode: self.mode,
            permissions: self.permissions,
        }
    }

    /// Ensures the rank cache entry for `task` is valid under the
    /// current selection context, recomputing it lazily. The whole cache
    /// is invalidated whenever the context (mode, permissions, battery)
    /// changes; user-defined policies are never cached since the
    /// callback may be stateful.
    #[inline]
    fn refresh_rank_cache(&mut self, task: TaskId) {
        let ctx = self.select_ctx();
        let ti = task.index();
        if ctx == self.cache_ctx {
            if self.policy_cacheable && self.rank_cache[ti].valid {
                return; // steady-state fast path
            }
        } else {
            for e in &mut self.rank_cache {
                e.valid = false;
            }
            self.cache_ctx = ctx;
        }
        let task_ref = &self.taskset.tasks()[ti];
        rank_versions_into(
            self.config.version_policy(),
            &ctx,
            task_ref,
            &mut self.rank_buf,
        );
        let entry = &mut self.rank_cache[ti];
        entry.ids.clear();
        entry.ids.extend(
            self.rank_buf
                .as_slice()
                .iter()
                .map(|&v| (v, task_ref.versions()[v.index()].accel())),
        );
        entry.valid = self.policy_cacheable;
    }

    fn choose_version(&mut self, task: TaskId) -> VersionChoice {
        self.refresh_rank_cache(task);
        let ti = task.index();
        if self.rank_cache[ti].ids.is_empty() {
            return VersionChoice::NoEligible;
        }
        self.wish_buf.clear();
        for &(v, accel) in &self.rank_cache[ti].ids {
            match accel {
                None => return VersionChoice::Run(v, None),
                Some(a) if self.accels.is_free(a) => return VersionChoice::Run(v, Some(a)),
                Some(a) => {
                    if !self.wish_buf.contains(&a) {
                        self.wish_buf.push(a);
                    }
                }
            }
        }
        VersionChoice::Blocked
    }

    fn start_job(
        &mut self,
        worker: WorkerId,
        job: Job,
        version: VersionId,
        accel: Option<AccelId>,
        now: Instant,
        actions: &mut ActionSink,
    ) {
        if let Some(a) = accel {
            self.accels
                .acquire(a, job.id, worker, job.priority)
                .expect("choose_version verified the accelerator is free");
        }
        // The enforcement budget is the selected version's declared
        // WCET, armed from the dispatch instant (a preempted job gets a
        // fresh budget on re-dispatch — its prior slice is not carried).
        let enforce_by = if self.enforce_wcet {
            now + self.taskset.tasks()[job.task.index()].versions()[version.index()].wcet()
        } else {
            Instant::MAX
        };
        let slot = self.slot_of(worker).expect("dispatch targets owned worker");
        self.running[slot] = Some(RunningJob {
            job,
            version,
            accel,
            effective_priority: job.priority,
            enforce_by,
            overrun: false,
            killed: false,
        });
        self.stats.dispatched += 1;
        actions.push(Action::Dispatch {
            worker,
            job,
            version,
        });
    }

    /// Applies PIP to every busy accelerator the blocked job wanted.
    fn apply_pip(&mut self, blocked: &Job, wishes: &[AccelId], actions: &mut ActionSink) {
        for &a in wishes {
            if let Some(holder) = self.accels.boost_holder(a, blocked.priority) {
                if let Some(r) = self
                    .slot_of(holder.worker)
                    .and_then(|s| self.running[s].as_mut())
                {
                    if r.job.id == holder.job {
                        r.effective_priority = holder.priority;
                    }
                }
                self.stats.pip_boosts += 1;
                actions.push(Action::Boost {
                    worker: holder.worker,
                    job: holder.job,
                    priority: holder.priority,
                });
            }
        }
        self.stats.blocked_skips += 1;
    }

    fn workers_fed_by(&self, queue_idx: usize) -> std::ops::Range<usize> {
        match self.config.mapping() {
            MappingScheme::Global => 0..self.running.len(),
            MappingScheme::Partitioned => queue_idx..queue_idx + 1,
        }
    }

    /// Charges the dispatch of `job` with `version` against its
    /// tenant's reservation server, if any. All-or-nothing on the
    /// selected version's WCET; `false` defers the job to a later round
    /// (counted in [`EngineStats::budget_deferrals`]).
    #[inline]
    fn charge_budget(&mut self, job: &Job, version: VersionId, now: Instant) -> bool {
        let tenant = self.tenant_of[job.task.index()] as usize;
        let Some(server) = self.tenants[tenant].server.as_mut() else {
            return true;
        };
        let wcet = self.taskset.tasks()[job.task.index()].versions()[version.index()].wcet();
        if server.try_charge(now, wcet) {
            true
        } else {
            self.stats.budget_deferrals += 1;
            false
        }
    }

    fn dispatch_round(&mut self, now: Instant, actions: &mut ActionSink) {
        for qi in 0..self.queues.len() {
            self.fill_idle_workers(qi, now, actions);
            if self.config.preemption() {
                self.preempt_round(qi, now, actions);
            }
        }
    }

    fn fill_idle_workers(&mut self, qi: usize, now: Instant, actions: &mut ActionSink) {
        let mut blocked = std::mem::take(&mut self.blocked_buf);
        blocked.clear();
        loop {
            let idle = self.workers_fed_by(qi).find(|&w| self.running[w].is_none());
            let Some(w) = idle else { break };
            let Some(job) = self.queues[qi].pop() else {
                break;
            };
            match self.choose_version(job.task) {
                VersionChoice::Run(v, a) => {
                    if !self.charge_budget(&job, v, now) {
                        blocked.push(job);
                        continue;
                    }
                    let worker = self.worker_of_slot(w);
                    self.start_job(worker, job, v, a, now, actions);
                }
                VersionChoice::Blocked => {
                    let wishes = std::mem::take(&mut self.wish_buf);
                    self.apply_pip(&job, &wishes, actions);
                    self.wish_buf = wishes;
                    blocked.push(job);
                }
                VersionChoice::NoEligible => {
                    self.stats.blocked_skips += 1;
                    blocked.push(job);
                }
            }
        }
        for j in blocked.drain(..) {
            let _ = self.queues[qi].push(j);
        }
        self.blocked_buf = blocked;
    }

    fn preempt_round(&mut self, qi: usize, now: Instant, actions: &mut ActionSink) {
        let mut blocked = std::mem::take(&mut self.blocked_buf);
        blocked.clear();
        // The no-preempt fast path compares priorities only, through the
        // heap root's key — the queued job's payload is read just when a
        // preemption actually proceeds.
        while let Some(top_priority) = self.queues[qi].peek_priority() {
            // Least-urgent preemptable running job fed by this queue;
            // accelerator holders are not preemptable.
            let victim = self
                .workers_fed_by(qi)
                .filter_map(|w| {
                    self.running[w]
                        .as_ref()
                        .filter(|r| r.accel.is_none())
                        .map(|r| (w, r.effective_priority))
                })
                .max_by_key(|&(w, p)| (p, w));
            let Some((w, victim_prio)) = victim else {
                break;
            };
            if !top_priority.is_higher_than(victim_prio) {
                break;
            }
            let top = *self.queues[qi].peek().expect("priority was peeked");
            match self.choose_version(top.task) {
                VersionChoice::Run(v, a) => {
                    let job = self.queues[qi].pop().expect("peeked job present");
                    if !self.charge_budget(&job, v, now) {
                        blocked.push(job);
                        continue;
                    }
                    let mut old = self.running[w].take().expect("victim present").job;
                    old.preempted = true;
                    let worker = self.worker_of_slot(w);
                    actions.push(Action::Preempt {
                        worker,
                        job: old.id,
                    });
                    self.stats.preempted += 1;
                    let _ = self.queues[qi].push(old);
                    self.start_job(worker, job, v, a, now, actions);
                }
                VersionChoice::Blocked => {
                    let job = self.queues[qi].pop().expect("peeked job present");
                    let wishes = std::mem::take(&mut self.wish_buf);
                    self.apply_pip(&job, &wishes, actions);
                    self.wish_buf = wishes;
                    blocked.push(job);
                }
                VersionChoice::NoEligible => {
                    let job = self.queues[qi].pop().expect("peeked job present");
                    self.stats.blocked_skips += 1;
                    blocked.push(job);
                }
            }
        }
        for j in blocked.drain(..) {
            let _ = self.queues[qi].push(j);
        }
        self.blocked_buf = blocked;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yasmin_core::config::VersionPolicy;
    use yasmin_core::task::TaskSpec;
    use yasmin_core::version::VersionSpec;

    /// Runs one `*_into` engine call against a fresh sink and returns
    /// the actions it emitted, or its error.
    fn actions_of(f: impl FnOnce(&mut ActionSink) -> Result<()>) -> Result<Vec<Action>> {
        let mut sink = ActionSink::new();
        f(&mut sink)?;
        Ok(sink.as_slice().to_vec())
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn at(v: u64) -> Instant {
        Instant::from_nanos(v * 1_000_000)
    }

    fn two_task_set() -> Arc<TaskSet> {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let a = b.task_decl(TaskSpec::periodic("a", ms(10))).unwrap();
        let c = b.task_decl(TaskSpec::periodic("c", ms(20))).unwrap();
        b.version_decl(a, VersionSpec::new("a", ms(2))).unwrap();
        b.version_decl(c, VersionSpec::new("c", ms(5))).unwrap();
        Arc::new(b.build().unwrap())
    }

    fn edf_config(workers: usize) -> Config {
        Config::builder()
            .workers(workers)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .build()
            .unwrap()
    }

    #[test]
    fn tick_is_gcd_of_periods() {
        let e = OnlineEngine::new(two_task_set(), edf_config(1)).unwrap();
        assert_eq!(e.tick_period(), ms(10));
    }

    #[test]
    fn start_releases_and_dispatches_by_deadline_order() {
        let mut e = OnlineEngine::new(two_task_set(), edf_config(1)).unwrap();
        let actions = actions_of(|sink| e.start_into(Instant::ZERO, sink)).unwrap();
        // Both release at 0; EDF picks the 10ms-deadline task first on the
        // single worker.
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            Action::Dispatch { worker, job, .. } => {
                assert_eq!(*worker, WorkerId::new(0));
                assert_eq!(job.task, TaskId::new(0));
                assert_eq!(job.abs_deadline, at(10));
            }
            other => panic!("expected dispatch, got {other:?}"),
        }
        assert_eq!(e.ready_len(), 1);
        assert_eq!(e.stats().released, 2);
    }

    #[test]
    fn completion_dispatches_next() {
        let mut e = OnlineEngine::new(two_task_set(), edf_config(1)).unwrap();
        let a0 = actions_of(|sink| e.start_into(Instant::ZERO, sink)).unwrap();
        let first = match &a0[0] {
            Action::Dispatch { job, .. } => job.id,
            _ => unreachable!(),
        };
        let a1 = actions_of(|sink| e.on_job_completed_into(WorkerId::new(0), first, at(2), sink))
            .unwrap();
        assert_eq!(a1.len(), 1);
        match &a1[0] {
            Action::Dispatch { job, .. } => assert_eq!(job.task, TaskId::new(1)),
            other => panic!("expected dispatch, got {other:?}"),
        }
        assert!(e.running(WorkerId::new(0)).is_some());
        assert_eq!(e.ready_len(), 0);
    }

    #[test]
    fn batch_completion_retires_all_then_dispatches_once() {
        // fork -> (left, right) -> join: completing left and right in
        // ONE batch must fire the join inside the same call — the single
        // dispatch round runs after every completion retired.
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let fork = b.task_decl(TaskSpec::periodic("fork", ms(100))).unwrap();
        let left = b.task_decl(TaskSpec::graph_node("left")).unwrap();
        let right = b.task_decl(TaskSpec::graph_node("right")).unwrap();
        let join = b.task_decl(TaskSpec::graph_node("join")).unwrap();
        for t in [fork, left, right, join] {
            b.version_decl(t, VersionSpec::new("v", ms(1))).unwrap();
        }
        let c1 = b.channel_decl("fl", 1, 1);
        let c2 = b.channel_decl("fr", 1, 1);
        let c3 = b.channel_decl("lj", 1, 1);
        let c4 = b.channel_decl("rj", 1, 1);
        b.channel_connect(fork, left, c1).unwrap();
        b.channel_connect(fork, right, c2).unwrap();
        b.channel_connect(left, join, c3).unwrap();
        b.channel_connect(right, join, c4).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let mut e = OnlineEngine::new(ts, edf_config(2)).unwrap();
        let _ = actions_of(|sink| e.start_into(Instant::ZERO, sink)).unwrap();
        let fork_id = e.running(WorkerId::new(0)).unwrap().job.id;
        let _ = actions_of(|sink| e.on_job_completed_into(WorkerId::new(0), fork_id, at(1), sink))
            .unwrap();
        let batch = [
            (
                WorkerId::new(0),
                e.running(WorkerId::new(0)).unwrap().job.id,
            ),
            (
                WorkerId::new(1),
                e.running(WorkerId::new(1)).unwrap().job.id,
            ),
        ];
        let acts = actions_of(|sink| e.on_jobs_completed_into(&batch, at(2), sink)).unwrap();
        assert!(
            acts.iter()
                .any(|a| matches!(a, Action::Dispatch { job, .. } if job.task == join)),
            "join fires within the batch call: {acts:?}"
        );
        assert_eq!(e.stats().completed, 3);
    }

    #[test]
    fn batch_completion_error_keeps_retired_prefix() {
        let mut e = OnlineEngine::new(two_task_set(), edf_config(2)).unwrap();
        let _ = actions_of(|sink| e.start_into(Instant::ZERO, sink)).unwrap();
        let good = e.running(WorkerId::new(0)).unwrap().job.id;
        let batch = [
            (WorkerId::new(0), good),
            (WorkerId::new(1), JobId::new(999)), // protocol violation
        ];
        let err = actions_of(|sink| e.on_jobs_completed_into(&batch, at(1), sink));
        assert!(err.is_err());
        // The valid prefix was retired (worker 0 freed, completion
        // counted); the offender's worker still runs its job.
        assert_eq!(e.stats().completed, 1);
        assert!(e.running(WorkerId::new(1)).is_some());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut e = OnlineEngine::new(two_task_set(), edf_config(2)).unwrap();
        let _ = actions_of(|sink| e.start_into(Instant::ZERO, sink)).unwrap();
        let acts = actions_of(|sink| e.on_jobs_completed_into(&[], at(1), sink)).unwrap();
        assert!(acts.is_empty());
        assert_eq!(e.stats().completed, 0);
    }

    #[test]
    fn wrong_completion_is_protocol_error() {
        let mut e = OnlineEngine::new(two_task_set(), edf_config(1)).unwrap();
        let _ = actions_of(|sink| e.start_into(Instant::ZERO, sink)).unwrap();
        assert!(actions_of(|sink| e.on_job_completed_into(
            WorkerId::new(0),
            JobId::new(999),
            at(1),
            sink
        ))
        .is_err());
        assert!(actions_of(|sink| e.on_job_completed_into(
            WorkerId::new(1),
            JobId::new(0),
            at(1),
            sink
        ))
        .is_err());
    }

    #[test]
    fn periodic_rereleases_on_tick() {
        let mut e = OnlineEngine::new(two_task_set(), edf_config(2)).unwrap();
        let _ = actions_of(|sink| e.start_into(Instant::ZERO, sink)).unwrap();
        // Finish both first jobs.
        let r0 = e.running(WorkerId::new(0)).unwrap().job.id;
        let r1 = e.running(WorkerId::new(1)).unwrap().job.id;
        let _ =
            actions_of(|sink| e.on_job_completed_into(WorkerId::new(0), r0, at(2), sink)).unwrap();
        let _ =
            actions_of(|sink| e.on_job_completed_into(WorkerId::new(1), r1, at(5), sink)).unwrap();
        // Tick at 10ms: only task a (period 10) re-releases.
        let acts = actions_of(|sink| {
            e.on_tick_into(at(10), sink);
            Ok(())
        })
        .unwrap();
        assert_eq!(acts.len(), 1);
        match &acts[0] {
            Action::Dispatch { job, .. } => {
                assert_eq!(job.task, TaskId::new(0));
                assert_eq!(job.seq, 1);
                assert_eq!(job.release, at(10));
            }
            other => panic!("{other:?}"),
        }
        // Tick at 20ms: task a again + task c.
        let r0 = e.running(WorkerId::new(0)).unwrap().job.id;
        let _ =
            actions_of(|sink| e.on_job_completed_into(WorkerId::new(0), r0, at(12), sink)).unwrap();
        let acts = actions_of(|sink| {
            e.on_tick_into(at(20), sink);
            Ok(())
        })
        .unwrap();
        assert_eq!(acts.len(), 2);
        assert_eq!(e.stats().released, 5);
    }

    #[test]
    fn preemption_on_more_urgent_release() {
        // One worker; long low-urgency job running, then an urgent one
        // arrives at the next tick.
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let slow = b.task_decl(TaskSpec::periodic("slow", ms(100))).unwrap();
        let fast = b
            .task_decl(
                TaskSpec::periodic("fast", ms(100))
                    .with_release_offset(ms(10))
                    .with_constrained_deadline(ms(20)),
            )
            .unwrap();
        b.version_decl(slow, VersionSpec::new("s", ms(50))).unwrap();
        b.version_decl(fast, VersionSpec::new("f", ms(5))).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let mut e = OnlineEngine::new(ts, edf_config(1)).unwrap();
        let a0 = actions_of(|sink| e.start_into(Instant::ZERO, sink)).unwrap();
        assert_eq!(a0.len(), 1); // slow dispatched
        let acts = actions_of(|sink| {
            e.on_tick_into(at(10), sink);
            Ok(())
        })
        .unwrap();
        // fast (deadline 30ms) preempts slow (deadline 100ms).
        assert!(matches!(acts[0], Action::Preempt { .. }), "{acts:?}");
        match &acts[1] {
            Action::Dispatch { job, .. } => assert_eq!(job.task, fast),
            other => panic!("{other:?}"),
        }
        assert_eq!(e.stats().preempted, 1);
        // The preempted job is ready again, marked preempted.
        assert_eq!(e.ready_len(), 1);
        // Completing fast resumes slow.
        let fast_id = e.running(WorkerId::new(0)).unwrap().job.id;
        let acts =
            actions_of(|sink| e.on_job_completed_into(WorkerId::new(0), fast_id, at(15), sink))
                .unwrap();
        match &acts[0] {
            Action::Dispatch { job, .. } => {
                assert_eq!(job.task, slow);
                assert!(job.preempted);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn no_preemption_when_disabled() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let slow = b.task_decl(TaskSpec::periodic("slow", ms(100))).unwrap();
        let fast = b
            .task_decl(
                TaskSpec::periodic("fast", ms(100))
                    .with_release_offset(ms(10))
                    .with_constrained_deadline(ms(20)),
            )
            .unwrap();
        b.version_decl(slow, VersionSpec::new("s", ms(50))).unwrap();
        b.version_decl(fast, VersionSpec::new("f", ms(5))).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let cfg = Config::builder()
            .workers(1)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .preemption(false)
            .build()
            .unwrap();
        let mut e = OnlineEngine::new(ts, cfg).unwrap();
        let _ = actions_of(|sink| e.start_into(Instant::ZERO, sink)).unwrap();
        let acts = actions_of(|sink| {
            e.on_tick_into(at(10), sink);
            Ok(())
        })
        .unwrap();
        assert!(acts.is_empty(), "{acts:?}");
        assert_eq!(e.stats().preempted, 0);
    }

    #[test]
    fn partitioned_requires_assignments() {
        let cfg = Config::builder()
            .workers(2)
            .mapping(MappingScheme::Partitioned)
            .build()
            .unwrap();
        assert!(matches!(
            OnlineEngine::new(two_task_set(), cfg),
            Err(Error::MissingPartition(_))
        ));
    }

    #[test]
    fn partitioned_respects_assignment() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let a = b
            .task_decl(TaskSpec::periodic("a", ms(10)).on_worker(WorkerId::new(1)))
            .unwrap();
        b.version_decl(a, VersionSpec::new("a", ms(1))).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let cfg = Config::builder()
            .workers(2)
            .mapping(MappingScheme::Partitioned)
            .build()
            .unwrap();
        let mut e = OnlineEngine::new(ts, cfg).unwrap();
        let acts = actions_of(|sink| e.start_into(Instant::ZERO, sink)).unwrap();
        match &acts[0] {
            Action::Dispatch { worker, .. } => assert_eq!(*worker, WorkerId::new(1)),
            other => panic!("{other:?}"),
        }
        assert!(e.running(WorkerId::new(0)).is_none());
    }

    #[test]
    fn dag_successors_fire_after_completion() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let fork = b.task_decl(TaskSpec::periodic("fork", ms(100))).unwrap();
        let left = b.task_decl(TaskSpec::graph_node("left")).unwrap();
        let right = b.task_decl(TaskSpec::graph_node("right")).unwrap();
        let join = b.task_decl(TaskSpec::graph_node("join")).unwrap();
        for t in [fork, left, right, join] {
            b.version_decl(t, VersionSpec::new("v", ms(1))).unwrap();
        }
        let c1 = b.channel_decl("fl", 1, 1);
        let c2 = b.channel_decl("fr", 1, 1);
        let c3 = b.channel_decl("lj", 1, 1);
        let c4 = b.channel_decl("rj", 1, 1);
        b.channel_connect(fork, left, c1).unwrap();
        b.channel_connect(fork, right, c2).unwrap();
        b.channel_connect(left, join, c3).unwrap();
        b.channel_connect(right, join, c4).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let mut e = OnlineEngine::new(ts, edf_config(2)).unwrap();
        let _ = actions_of(|sink| e.start_into(Instant::ZERO, sink)).unwrap();
        let fork_id = e.running(WorkerId::new(0)).unwrap().job.id;
        let acts =
            actions_of(|sink| e.on_job_completed_into(WorkerId::new(0), fork_id, at(1), sink))
                .unwrap();
        // left and right both released and dispatched on the two workers.
        let dispatched: Vec<TaskId> = acts
            .iter()
            .filter_map(|a| match a {
                Action::Dispatch { job, .. } => Some(job.task),
                _ => None,
            })
            .collect();
        assert_eq!(dispatched.len(), 2);
        assert!(dispatched.contains(&left) && dispatched.contains(&right));
        // Join waits for both.
        let left_id = e.running(WorkerId::new(0)).unwrap().job.id;
        let acts =
            actions_of(|sink| e.on_job_completed_into(WorkerId::new(0), left_id, at(2), sink))
                .unwrap();
        assert!(acts.is_empty(), "join must wait for right: {acts:?}");
        let right_id = e.running(WorkerId::new(1)).unwrap().job.id;
        let acts =
            actions_of(|sink| e.on_job_completed_into(WorkerId::new(1), right_id, at(3), sink))
                .unwrap();
        let join_dispatch = acts
            .iter()
            .any(|a| matches!(a, Action::Dispatch { job, .. } if job.task == join));
        assert!(join_dispatch, "{acts:?}");
        // Graph-level deadline: join inherits fork's release + 100ms.
        let j = e.running(WorkerId::new(0)).unwrap().job;
        assert_eq!(j.abs_deadline, at(100));
        assert_eq!(j.graph_release, Instant::ZERO);
    }

    #[test]
    fn accel_contention_uses_cpu_fallback_and_pip() {
        // Two tasks, both with GPU + CPU versions; one GPU.
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let gpu = b.hwaccel_decl("gpu");
        let t1 = b.task_decl(TaskSpec::periodic("t1", ms(100))).unwrap();
        let t2 = b
            .task_decl(TaskSpec::periodic("t2", ms(100)).with_constrained_deadline(ms(50)))
            .unwrap();
        b.version_decl(t1, VersionSpec::new("gpu", ms(10)).with_accel(gpu))
            .unwrap();
        b.version_decl(t1, VersionSpec::new("cpu", ms(30))).unwrap();
        b.version_decl(t2, VersionSpec::new("gpu", ms(10)).with_accel(gpu))
            .unwrap();
        b.version_decl(t2, VersionSpec::new("cpu", ms(30))).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let mut e = OnlineEngine::new(ts, edf_config(2)).unwrap();
        let acts = actions_of(|sink| e.start_into(Instant::ZERO, sink)).unwrap();
        // t2 (tighter deadline) gets the GPU; t1 falls back to CPU.
        let mut gpu_user = None;
        let mut cpu_user = None;
        for a in &acts {
            if let Action::Dispatch { job, version, .. } = a {
                if version.index() == 0 {
                    gpu_user = Some(job.task);
                } else {
                    cpu_user = Some(job.task);
                }
            }
        }
        assert_eq!(gpu_user, Some(t2));
        assert_eq!(cpu_user, Some(t1));
    }

    #[test]
    fn gpu_only_task_blocks_and_boosts() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let gpu = b.hwaccel_decl("gpu");
        // Low-urgency holder (long deadline), urgent GPU-only task later.
        let hold = b.task_decl(TaskSpec::periodic("hold", ms(200))).unwrap();
        let urgent = b
            .task_decl(
                TaskSpec::periodic("urgent", ms(200))
                    .with_release_offset(ms(10))
                    .with_constrained_deadline(ms(30)),
            )
            .unwrap();
        b.version_decl(hold, VersionSpec::new("gpu", ms(50)).with_accel(gpu))
            .unwrap();
        b.version_decl(urgent, VersionSpec::new("gpu", ms(5)).with_accel(gpu))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let mut e = OnlineEngine::new(ts, edf_config(2)).unwrap();
        let _ = actions_of(|sink| e.start_into(Instant::ZERO, sink)).unwrap();
        let acts = actions_of(|sink| {
            e.on_tick_into(at(10), sink);
            Ok(())
        })
        .unwrap();
        // urgent is blocked on the GPU -> PIP boost of the holder.
        let boost = acts.iter().find_map(|a| match a {
            Action::Boost { priority, .. } => Some(*priority),
            _ => None,
        });
        assert_eq!(boost, Some(Priority::earliest_deadline(at(40))));
        assert_eq!(e.stats().pip_boosts, 1);
        assert_eq!(e.ready_len(), 1, "urgent stays ready");
        // Holder's effective priority is boosted.
        let holder = e.running(WorkerId::new(0)).unwrap();
        assert_eq!(
            holder.effective_priority,
            Priority::earliest_deadline(at(40))
        );
        // When the holder finishes, urgent gets the GPU.
        let hold_id = holder.job.id;
        let acts =
            actions_of(|sink| e.on_job_completed_into(WorkerId::new(0), hold_id, at(50), sink))
                .unwrap();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Dispatch { job, .. } if job.task == urgent
        )));
    }

    #[test]
    fn accel_holder_not_preempted() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let gpu = b.hwaccel_decl("gpu");
        let hold = b.task_decl(TaskSpec::periodic("hold", ms(200))).unwrap();
        let urgent = b
            .task_decl(
                TaskSpec::periodic("urgent", ms(200))
                    .with_release_offset(ms(10))
                    .with_constrained_deadline(ms(20)),
            )
            .unwrap();
        b.version_decl(hold, VersionSpec::new("gpu", ms(100)).with_accel(gpu))
            .unwrap();
        b.version_decl(urgent, VersionSpec::new("cpu", ms(5)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let mut e = OnlineEngine::new(ts, edf_config(1)).unwrap();
        let _ = actions_of(|sink| e.start_into(Instant::ZERO, sink)).unwrap();
        let acts = actions_of(|sink| {
            e.on_tick_into(at(10), sink);
            Ok(())
        })
        .unwrap();
        // The only worker runs the GPU holder; urgent must NOT preempt it.
        assert!(
            !acts.iter().any(|a| matches!(a, Action::Preempt { .. })),
            "{acts:?}"
        );
        assert_eq!(e.ready_len(), 1);
    }

    #[test]
    fn aperiodic_activation() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let p = b.task_decl(TaskSpec::periodic("p", ms(10))).unwrap();
        let a = b.task_decl(TaskSpec::aperiodic("a")).unwrap();
        b.version_decl(p, VersionSpec::new("p", ms(1))).unwrap();
        b.version_decl(a, VersionSpec::new("a", ms(1))).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let mut e = OnlineEngine::new(ts, edf_config(2)).unwrap();
        let _ = actions_of(|sink| e.start_into(Instant::ZERO, sink)).unwrap();
        let acts = actions_of(|sink| e.activate_into(a, at(3), sink)).unwrap();
        assert!(acts.iter().any(|x| matches!(
            x,
            Action::Dispatch { job, .. } if job.task == a
        )));
        // Periodic tasks cannot be activated by hand.
        assert!(actions_of(|sink| e.activate_into(p, at(4), sink)).is_err());
    }

    #[test]
    fn sporadic_min_interarrival_violation_counted() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let s = b.task_decl(TaskSpec::sporadic("s", ms(10))).unwrap();
        b.version_decl(s, VersionSpec::new("s", ms(1))).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let cfg = Config::builder()
            .workers(1)
            .tick(ms(10))
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .build()
            .unwrap();
        let mut e = OnlineEngine::new(ts, cfg).unwrap();
        let _ = actions_of(|sink| e.start_into(Instant::ZERO, sink)).unwrap();
        let _ = actions_of(|sink| e.activate_into(s, at(0), sink)).unwrap();
        let _ = actions_of(|sink| e.activate_into(s, at(5), sink)).unwrap(); // violates T=10
        assert_eq!(e.stats().sporadic_violations, 1);
        let _ = actions_of(|sink| e.activate_into(s, at(20), sink)).unwrap();
        assert_eq!(e.stats().sporadic_violations, 1);
    }

    #[test]
    fn stop_drains() {
        let mut e = OnlineEngine::new(two_task_set(), edf_config(2)).unwrap();
        let _ = actions_of(|sink| e.start_into(Instant::ZERO, sink)).unwrap();
        e.stop();
        let acts = actions_of(|sink| {
            e.on_tick_into(at(10), sink);
            Ok(())
        })
        .unwrap();
        assert!(acts.is_empty(), "no releases after stop: {acts:?}");
        assert!(!e.is_idle());
        let r0 = e.running(WorkerId::new(0)).unwrap().job.id;
        let r1 = e.running(WorkerId::new(1)).unwrap().job.id;
        let _ =
            actions_of(|sink| e.on_job_completed_into(WorkerId::new(0), r0, at(11), sink)).unwrap();
        let _ =
            actions_of(|sink| e.on_job_completed_into(WorkerId::new(1), r1, at(12), sink)).unwrap();
        assert!(e.is_idle());
    }

    #[test]
    fn double_start_rejected_until_stop() {
        let mut e = OnlineEngine::new(two_task_set(), edf_config(1)).unwrap();
        let _ = actions_of(|sink| e.start_into(Instant::ZERO, sink)).unwrap();
        assert!(matches!(
            actions_of(|sink| e.start_into(at(1), sink)),
            Err(Error::ScheduleRunning)
        ));
        e.stop();
        // Multi-mode scheduling: resume after stop (§3.1).
        assert!(actions_of(|sink| e.start_into(at(100), sink)).is_ok());
    }

    #[test]
    fn rank_cache_invalidated_on_mode_switch() {
        // Mode policy: the cached ranking must be recomputed when the
        // execution mode changes, or the wrong version would dispatch.
        use yasmin_core::version::ModeMask;
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let t = b.task_decl(TaskSpec::periodic("enc", ms(10))).unwrap();
        b.version_decl(
            t,
            VersionSpec::new("plain", ms(1)).with_modes(ModeMask::only(ExecMode::NORMAL)),
        )
        .unwrap();
        b.version_decl(
            t,
            VersionSpec::new("secure", ms(2)).with_modes(ModeMask::only(ExecMode::new(1))),
        )
        .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let cfg = Config::builder()
            .workers(1)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .version_policy(VersionPolicy::Mode)
            .build()
            .unwrap();
        let mut e = OnlineEngine::new(ts, cfg).unwrap();
        let acts = actions_of(|sink| e.start_into(Instant::ZERO, sink)).unwrap();
        match &acts[0] {
            Action::Dispatch { version, .. } => assert_eq!(version.index(), 0),
            other => panic!("{other:?}"),
        }
        let id = e.running(WorkerId::new(0)).unwrap().job.id;
        let _ =
            actions_of(|sink| e.on_job_completed_into(WorkerId::new(0), id, at(1), sink)).unwrap();
        // Switch mode; the next release must pick the secure version.
        e.set_mode(ExecMode::new(1));
        let acts = actions_of(|sink| {
            e.on_tick_into(at(10), sink);
            Ok(())
        })
        .unwrap();
        match &acts[0] {
            Action::Dispatch { version, .. } => {
                assert_eq!(version.index(), 1, "cache must refresh on mode switch")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn energy_policy_tracks_battery_probe_through_cache() {
        // The rank cache must refresh when the probe's reading changes —
        // and only the Energy (and user-defined) policies pay the probe.
        use std::sync::atomic::{AtomicU32, Ordering};
        use yasmin_core::energy::{BatteryLevel, Energy};
        let level = Arc::new(AtomicU32::new(1000));
        let probe = Arc::clone(&level);
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let t = b.task_decl(TaskSpec::periodic("t", ms(10))).unwrap();
        b.version_decl(
            t,
            VersionSpec::new("cheap", ms(2))
                .with_energy(Energy::from_millijoules(5))
                .with_energy_budget(Energy::from_millijoules(5)),
        )
        .unwrap();
        b.version_decl(
            t,
            VersionSpec::new("hungry", ms(1))
                .with_energy(Energy::from_millijoules(12))
                .with_energy_budget(Energy::from_millijoules(12)),
        )
        .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let cfg = Config::builder()
            .workers(1)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .version_policy(VersionPolicy::Energy)
            .battery_source(move || {
                BatteryLevel::from_permille(probe.load(Ordering::Relaxed) as u16)
            })
            .build()
            .unwrap();
        let mut e = OnlineEngine::new(ts, cfg).unwrap();
        let acts = actions_of(|sink| e.start_into(Instant::ZERO, sink)).unwrap();
        match &acts[0] {
            Action::Dispatch { version, .. } => {
                assert_eq!(version.index(), 1, "full battery affords hungry")
            }
            other => panic!("{other:?}"),
        }
        let id = e.running(WorkerId::new(0)).unwrap().job.id;
        let _ =
            actions_of(|sink| e.on_job_completed_into(WorkerId::new(0), id, at(1), sink)).unwrap();
        // Battery collapses; the next dispatch must degrade.
        level.store(100, Ordering::Relaxed);
        let acts = actions_of(|sink| {
            e.on_tick_into(at(10), sink);
            Ok(())
        })
        .unwrap();
        match &acts[0] {
            Action::Dispatch { version, .. } => {
                assert_eq!(version.index(), 0, "cache must refresh on battery change")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn into_api_appends_without_clearing() {
        let mut e = OnlineEngine::new(two_task_set(), edf_config(2)).unwrap();
        let mut sink = crate::sink::ActionSink::new();
        e.start_into(Instant::ZERO, &mut sink).unwrap();
        let after_start = sink.len();
        assert_eq!(after_start, 2, "both tasks dispatch on two workers");
        // A completion appended into the same sink keeps prior actions.
        let id = e.running(WorkerId::new(0)).unwrap().job.id;
        e.on_job_completed_into(WorkerId::new(0), id, at(2), &mut sink)
            .unwrap();
        assert!(sink.len() >= after_start);
        sink.clear();
        e.on_tick_into(at(10), &mut sink);
        assert_eq!(sink.len(), 1, "task a re-releases and dispatches");
    }

    #[test]
    fn cull_missed_removes_expired_ready_jobs_on_tick() {
        // One worker, two tasks with constrained deadlines: the job that
        // loses the first dispatch sits ready past its deadline and must
        // be culled at the next tick — via ReadyQueue::remove, counted
        // in stats.culled, never dispatched.
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let winner = b
            .task_decl(TaskSpec::periodic("winner", ms(100)).with_constrained_deadline(ms(30)))
            .unwrap();
        let loser = b
            .task_decl(TaskSpec::periodic("loser", ms(100)).with_constrained_deadline(ms(40)))
            .unwrap();
        b.version_decl(winner, VersionSpec::new("w", ms(60)))
            .unwrap();
        b.version_decl(loser, VersionSpec::new("l", ms(10)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let cfg = Config::builder()
            .workers(1)
            .tick(ms(10))
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .preemption(false)
            .cull_missed(true)
            .build()
            .unwrap();
        let mut e = OnlineEngine::new(ts, cfg).unwrap();
        let _ = actions_of(|sink| e.start_into(Instant::ZERO, sink)).unwrap();
        assert_eq!(e.running(WorkerId::new(0)).unwrap().job.task, winner);
        assert_eq!(e.ready_len(), 1, "loser queued");
        // Ticks before the loser's deadline (40ms) keep it queued.
        let _ = actions_of(|sink| {
            e.on_tick_into(at(30), sink);
            Ok(())
        })
        .unwrap();
        assert_eq!(e.ready_len(), 1);
        assert_eq!(e.stats().culled, 0);
        // First tick past the deadline culls it.
        let _ = actions_of(|sink| {
            e.on_tick_into(at(50), sink);
            Ok(())
        })
        .unwrap();
        assert_eq!(e.ready_len(), 0);
        assert_eq!(e.stats().culled, 1);
        // The culled job never dispatches: completing the winner leaves
        // the worker idle.
        let w = e.running(WorkerId::new(0)).unwrap().job.id;
        let acts =
            actions_of(|sink| e.on_job_completed_into(WorkerId::new(0), w, at(60), sink)).unwrap();
        assert!(acts.is_empty(), "{acts:?}");
        assert!(e.running(WorkerId::new(0)).is_none());
        assert_eq!(e.stats().dispatched, 1);
    }

    #[test]
    fn shortest_wcet_policy_picks_gpu_when_free() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let gpu = b.hwaccel_decl("gpu");
        let t = b.task_decl(TaskSpec::periodic("t", ms(100))).unwrap();
        b.version_decl(t, VersionSpec::new("cpu", ms(30))).unwrap();
        b.version_decl(t, VersionSpec::new("gpu", ms(10)).with_accel(gpu))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let cfg = Config::builder()
            .workers(1)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .version_policy(VersionPolicy::ShortestWcet)
            .build()
            .unwrap();
        let mut e = OnlineEngine::new(ts, cfg).unwrap();
        let acts = actions_of(|sink| e.start_into(Instant::ZERO, sink)).unwrap();
        match &acts[0] {
            Action::Dispatch { version, .. } => assert_eq!(version.index(), 1),
            other => panic!("{other:?}"),
        }
    }

    /// Non-preemptive EDF — the thread runtime's semantics, which keeps
    /// the message-boost tests about queue ordering, not preemption.
    fn edf_np_config(workers: usize) -> Config {
        Config::builder()
            .workers(workers)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .preemption(false)
            .build()
            .unwrap()
    }

    fn three_task_set() -> Arc<TaskSet> {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let a = b.task_decl(TaskSpec::periodic("a", ms(10))).unwrap();
        let c = b.task_decl(TaskSpec::periodic("c", ms(20))).unwrap();
        let r = b.task_decl(TaskSpec::periodic("r", ms(40))).unwrap();
        for (t, w) in [(a, 2), (c, 2), (r, 2)] {
            b.version_decl(t, VersionSpec::new("v", ms(w))).unwrap();
        }
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn high_post_boosts_pending_job_ahead_of_more_urgent_competitor() {
        // One worker, EDF. At start: a (deadline 10) runs, c (20) and
        // r (40) queue — c is the more urgent competitor. A high post
        // for r must re-queue r's pending job at the ceiling so it
        // dispatches ahead of c when the worker frees; after the lane
        // drains, the order reverts to plain EDF.
        let ts = three_task_set();
        let receiver = TaskId::new(2);
        let mut e = OnlineEngine::new(ts, edf_np_config(1)).unwrap();
        let _ = actions_of(|sink| e.start_into(Instant::ZERO, sink)).unwrap();
        let mut sink = ActionSink::new();
        e.on_high_posted_into(receiver, Priority::HIGHEST, at(1), &mut sink)
            .unwrap();
        assert!(sink.is_empty(), "no worker freed, no action yet");
        assert_eq!(e.high_lane_depth(receiver), 1);
        assert_eq!(e.active_msg_ceiling(receiver), Some(Priority::HIGHEST));
        assert_eq!(e.stats().msg_boosts, 1);

        let running = e.running(WorkerId::new(0)).unwrap().job.id;
        sink.clear();
        e.on_job_completed_into(WorkerId::new(0), running, at(2), &mut sink)
            .unwrap();
        match sink.as_slice() {
            [Action::Dispatch { job, .. }] => {
                assert_eq!(job.task, receiver, "boosted receiver dispatches first");
                assert_eq!(job.priority, Priority::HIGHEST);
            }
            other => panic!("expected one dispatch, got {other:?}"),
        }

        // Drain while the receiver runs: its slot effective priority
        // falls back to base and c wins the next free worker.
        sink.clear();
        e.on_high_drained_into(receiver, at(3), &mut sink).unwrap();
        assert_eq!(e.high_lane_depth(receiver), 0);
        assert_eq!(e.active_msg_ceiling(receiver), None);
        let receiver_job = e.running(WorkerId::new(0)).unwrap().job.id;
        sink.clear();
        e.on_job_completed_into(WorkerId::new(0), receiver_job, at(4), &mut sink)
            .unwrap();
        match sink.as_slice() {
            [Action::Dispatch { job, .. }] => assert_eq!(job.task, TaskId::new(1)),
            other => panic!("expected one dispatch, got {other:?}"),
        }
    }

    #[test]
    fn high_post_boosts_running_job_and_drain_restores_base() {
        let ts = three_task_set();
        let mut e = OnlineEngine::new(ts, edf_np_config(1)).unwrap();
        let _ = actions_of(|sink| e.start_into(Instant::ZERO, sink)).unwrap();
        // a runs with its EDF base priority (deadline at 10ms).
        let base = e.running(WorkerId::new(0)).unwrap().effective_priority;
        assert_eq!(base, Priority::earliest_deadline(at(10)));
        let mut sink = ActionSink::new();
        e.on_high_posted_into(TaskId::new(0), Priority::new(7), at(1), &mut sink)
            .unwrap();
        let boosted = e.running(WorkerId::new(0)).unwrap();
        assert_eq!(boosted.effective_priority, Priority::new(7));
        assert!(
            sink.as_slice().iter().any(|a| matches!(
                a,
                Action::Boost { worker, priority, .. }
                    if *worker == WorkerId::new(0) && *priority == Priority::new(7)
            )),
            "driver is told about the boost: {:?}",
            sink.as_slice()
        );
        sink.clear();
        e.on_high_drained_into(TaskId::new(0), at(2), &mut sink)
            .unwrap();
        assert_eq!(
            e.running(WorkerId::new(0)).unwrap().effective_priority,
            base
        );
        assert!(
            sink.as_slice().iter().any(|a| matches!(
                a,
                Action::Boost { priority, .. } if *priority == base
            )),
            "release is visible too: {:?}",
            sink.as_slice()
        );
    }

    #[test]
    fn release_during_active_ceiling_inherits_it() {
        // Post the high message while no job of the receiver is pending:
        // the job released at the next tick must inherit the ceiling.
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let a = b.task_decl(TaskSpec::periodic("a", ms(40))).unwrap();
        let r = b.task_decl(TaskSpec::periodic("r", ms(40))).unwrap();
        b.version_decl(a, VersionSpec::new("v", ms(2))).unwrap();
        b.version_decl(r, VersionSpec::new("v", ms(2))).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let receiver = r;
        let mut e = OnlineEngine::new(ts, edf_np_config(2)).unwrap();
        let _ = actions_of(|sink| e.start_into(Instant::ZERO, sink)).unwrap();
        // Both tasks run; complete both so the next releases are fresh.
        let mut sink = ActionSink::new();
        for w in [0, 1] {
            let id = e.running(WorkerId::new(w)).unwrap().job.id;
            e.on_job_completed_into(WorkerId::new(w), id, at(6), &mut sink)
                .unwrap();
        }
        e.on_high_posted_into(receiver, Priority::HIGHEST, at(7), &mut sink)
            .unwrap();
        assert_eq!(e.stats().msg_boosts, 0, "nothing pending or running yet");
        sink.clear();
        e.on_tick_into(at(40), &mut sink);
        let (rw, rj) = sink
            .as_slice()
            .iter()
            .find_map(|a| match a {
                Action::Dispatch { worker, job, .. } if job.task == receiver => {
                    Some((*worker, *job))
                }
                _ => None,
            })
            .expect("receiver released and dispatched at t=40");
        assert_eq!(rj.priority, Priority::HIGHEST, "release inherits ceiling");
        // Drain, finish the cycle: the next release is back to base.
        e.on_high_drained_into(receiver, at(41), &mut sink).unwrap();
        sink.clear();
        e.on_job_completed_into(rw, rj.id, at(42), &mut sink)
            .unwrap();
        let aw = if rw == WorkerId::new(0) { 1 } else { 0 };
        let aj = e.running(WorkerId::new(aw)).unwrap().job.id;
        e.on_job_completed_into(WorkerId::new(aw), aj, at(43), &mut sink)
            .unwrap();
        sink.clear();
        e.on_tick_into(at(80), &mut sink);
        let rj2 = sink
            .as_slice()
            .iter()
            .find_map(|a| match a {
                Action::Dispatch { job, .. } if job.task == receiver => Some(*job),
                _ => None,
            })
            .expect("receiver released at t=80");
        assert_eq!(rj2.priority, Priority::earliest_deadline(at(120)));
    }

    #[test]
    fn ceiling_tightens_and_holds_until_all_posts_drain() {
        let ts = three_task_set();
        let receiver = TaskId::new(2);
        let mut e = OnlineEngine::new(ts, edf_np_config(1)).unwrap();
        let _ = actions_of(|sink| e.start_into(Instant::ZERO, sink)).unwrap();
        let mut sink = ActionSink::new();
        e.on_high_posted_into(receiver, Priority::new(9), at(1), &mut sink)
            .unwrap();
        e.on_high_posted_into(receiver, Priority::new(3), at(1), &mut sink)
            .unwrap();
        // A less urgent later post does not loosen the ceiling.
        e.on_high_posted_into(receiver, Priority::new(100), at(1), &mut sink)
            .unwrap();
        assert_eq!(e.high_lane_depth(receiver), 3);
        assert_eq!(e.active_msg_ceiling(receiver), Some(Priority::new(3)));
        e.on_high_drained_into(receiver, at(2), &mut sink).unwrap();
        e.on_high_drained_into(receiver, at(2), &mut sink).unwrap();
        assert_eq!(e.active_msg_ceiling(receiver), Some(Priority::new(3)));
        e.on_high_drained_into(receiver, at(2), &mut sink).unwrap();
        assert_eq!(e.active_msg_ceiling(receiver), None);
        assert_eq!(e.high_lane_depth(receiver), 0);
    }

    #[test]
    fn post_for_unknown_task_is_rejected() {
        let mut e = OnlineEngine::new(two_task_set(), edf_config(1)).unwrap();
        let mut sink = ActionSink::new();
        assert!(matches!(
            e.on_high_posted_into(TaskId::new(9), Priority::HIGHEST, at(0), &mut sink),
            Err(Error::UnknownTask(_))
        ));
        assert!(matches!(
            e.on_high_drained_into(TaskId::new(9), at(0), &mut sink),
            Err(Error::UnknownTask(_))
        ));
    }
}
