//! The real-thread YASMIN runtime (Fig. 1a/1b brought to life).
//!
//! **Scheduler threads** own the scheduling engine, generate ticks at
//! the gcd period (§3.3), retire completions handed back by workers
//! between ticks and dispatch into per-worker rings. **Worker threads**
//! ("virtual CPUs") are pinned to cores best-effort and execute
//! registered version bodies to completion.
//!
//! Each scheduler thread owns one [`OnlineEngine`] over a **group** of
//! workers. The group layout follows from the [`Config`]:
//!
//! * with `Config::sharded_dispatch(true)` (partitioned mapping) every
//!   worker forms its own group, driven by the engine shard of that
//!   worker ([`EngineShard::build_all`]) on a scheduler thread sharing
//!   the worker's core;
//! * any other configuration — global mapping, or partitioned mapping
//!   without sharded dispatch — forms one group of all workers, driven
//!   by a whole-system engine ([`OnlineEngine::new`]) that also
//!   arbitrates accelerators across workers; its scheduler thread is
//!   pinned to the core after the workers'.
//!
//! Every group uses the same lock-free plumbing:
//!
//! * **downstream** (scheduler → worker): one wait-free SPSC ring per
//!   worker carrying dispatches;
//! * **upstream** (everyone → scheduler): the MPSC command mailbox of
//!   `yasmin_sync::mailbox` with one lane for control commands
//!   (activate/admission/stop/shutdown), **one lane per peer group**
//!   carrying the cross-group protocol — routed DAG activation tokens
//!   (`CrossActivate`) and the work-stealing handshake
//!   (`StealRequest` / `StolenBatch` / `StealDeny`) — one message lane
//!   fed by the channel notify hooks, and one completion lane per
//!   worker of the group. Ticks are generated locally by each
//!   scheduler thread at the shared gcd period.
//!
//! With a single group the peer protocol is trivially quiet: admission
//! and the shutdown drain below are single-party.
//!
//! A wake that finds pending completions *and* a due tick coalesces
//! both into **one** engine round ([`OnlineEngine::advance_into`]): the
//! single dispatch round sees the freed workers and the fresh releases
//! together instead of paying two rounds.
//!
//! With [`RuntimeBuilder::work_stealing`] enabled and more than one
//! group, an idle group (empty queue, idle worker, drained mailbox)
//! probes the advisory [`LoadBoard`] for a victim — most loaded peer
//! first, exact load ties broken towards DAG-adjacent groups (wired
//! from the task set's cross-group edges at startup) and recent donors
//! — and sends it a `StealRequest` carrying a batch size `k` derived
//! from the load gap ([`LoadBoard::steal_batch_size`], capped at
//! [`yasmin_sched::MAX_STEAL_BATCH`]). The victim detaches up to `k` of
//! its most urgent accelerator-free ready jobs in one exchange
//! ([`OnlineEngine::steal_hints`] /
//! [`OnlineEngine::release_stolen_batch`]) and grants them back as a
//! single `StolenBatch` ack, and the thief adopts the whole batch with
//! one dispatch round, running the jobs on its own worker — global
//! [`WorkerId`]s keep every record truthful about where a job actually
//! ran. Cross-group DAG successors of any completion (stolen or local)
//! are drained from the engine outbox and routed to the owning peer's
//! lane.
//!
//! Substitution note (DESIGN.md): the paper preempts workers with POSIX
//! signals and a hand-written `swapcontext`. Safe Rust cannot hijack a
//! thread asynchronously, so this runtime schedules **non-preemptively
//! at job boundaries** — configurations must set `preemption(false)`;
//! preemptive behaviour is exercised in the simulator (including the
//! multi-threaded `yasmin_sim::par` driver), which drives the same
//! engine.
//!
//! Data channels: the engine tracks *activation tokens*; the actual data
//! travels through `yasmin_sync::spsc` endpoints captured inside the task
//! closures (the Rust analogue of the paper's macro-generated static
//! FIFO buffers — see `examples/quickstart.rs`), or through the typed
//! [`RuntimeBuilder::channel`] endpoints whose high lane boosts the
//! receiver through the scheduler.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use yasmin_core::config::{Config, WaitChoice};
use yasmin_core::error::{Error, Result};
use yasmin_core::graph::TaskSet;
use yasmin_core::ids::{JobId, TaskId, TenantId, VersionId, WorkerId};
use yasmin_core::priority::Priority;
use yasmin_core::time::{Clock, Instant, MonotonicClock};
use yasmin_sched::admission::{reservation_for, AdmissionControl, AdmissionError};
use yasmin_sched::msg::{MsgEvent, NotifyHandle, Receiver as MsgReceiver, Sender as MsgSender};
use yasmin_sched::server::TenantBudget;
use yasmin_sched::{
    validate_sharding, Action, ActionSink, EngineShard, EngineStats, Job, JobBatch, JobOutcome,
    OnlineEngine, RemoteActivation, StealHint, MAX_STEAL_BATCH,
};
use yasmin_sync::mailbox::{mailbox, MailboxFull, MailboxReceiver, MailboxSender};
use yasmin_sync::spsc;
use yasmin_sync::steal::LoadBoard;
use yasmin_sync::wait::Backoff;

/// Context handed to a task body for each job.
#[derive(Debug, Clone, Copy)]
pub struct JobCtx {
    /// The job being executed.
    pub job: Job,
    /// The version selected by the scheduler.
    pub version: VersionId,
    /// The worker (virtual CPU) executing it.
    pub worker: WorkerId,
}

/// A task-version body: the user function of `version_decl`.
pub type TaskBody = Arc<dyn Fn(&JobCtx) + Send + Sync>;

/// One completed job, as observed by the runtime.
#[derive(Debug, Clone, Copy)]
pub struct RtJobRecord {
    /// The job.
    pub job: Job,
    /// Version executed.
    pub version: VersionId,
    /// Worker that ran it.
    pub worker: WorkerId,
    /// When the body started.
    pub started: Instant,
    /// When the body returned.
    pub completed: Instant,
    /// Whether the body returned normally or panicked (panics are
    /// contained on the worker and retired as failures).
    pub outcome: JobOutcome,
}

impl RtJobRecord {
    /// Dispatch latency: body start − release.
    #[must_use]
    pub fn start_latency(&self) -> yasmin_core::time::Duration {
        self.started.saturating_since(self.job.release)
    }

    /// Response time: completion − release.
    #[must_use]
    pub fn response_time(&self) -> yasmin_core::time::Duration {
        self.completed.saturating_since(self.job.release)
    }

    /// `true` if the job completed past its deadline.
    #[must_use]
    pub fn missed(&self) -> bool {
        self.job.abs_deadline != Instant::MAX && self.completed > self.job.abs_deadline
    }
}

/// Final report returned by [`Runtime::cleanup`].
#[derive(Debug)]
pub struct RuntimeReport {
    /// Every completed job.
    pub records: Vec<RtJobRecord>,
    /// Engine counters.
    pub engine_stats: EngineStats,
}

/// Mailbox lanes of each group: lane `LANE_PEER0 + p` belongs to peer
/// group `p` (a group's own peer lane stays unused, so indexing needs
/// no adjustment). Lane `LANE_PEER0 + n` is the *message lane*: channel
/// notify hooks post high-lane events there from whichever thread sent
/// or received (the sender handle is shared behind a mutex, so the lane
/// keeps one logical producer). The completion lanes of the group's
/// workers follow it, one per worker.
const LANE_CONTROL: usize = 0;
const LANE_PEER0: usize = 1;

enum WorkerMsg {
    Run {
        job: Job,
        version: VersionId,
        body: TaskBody,
    },
    Exit,
}

/// Commands flowing into a group's scheduler thread.
// The steal-grant variant embeds a fixed-size `JobBatch` (see
// `ShardCmd`): boxing it would allocate on the steal hot path, and the
// messages live in preallocated mailbox lanes anyway.
#[allow(clippy::large_enum_variant)]
enum SchedMsg {
    /// A worker of the group finished a job — normally or by panic (the
    /// `JobCompleted` / `JobFailed` commands).
    Done {
        worker: WorkerId,
        job: Job,
        version: VersionId,
        started: Instant,
        completed: Instant,
        outcome: JobOutcome,
    },
    /// Explicit activation of a task owned by the group.
    Activate(TaskId),
    /// A DAG token routed from a peer group (cross-group edge whose
    /// destination this group owns).
    CrossActivate { edge: u32, graph_release: Instant },
    /// A high-priority message entered a channel lane. Lands first on
    /// the channel's *home* group (the sending task's, so one channel's
    /// posts and drains share one FIFO route); a home group that does
    /// not own `dst` forwards it over the per-peer lane to the owner,
    /// exactly like a [`SchedMsg::CrossActivate`] token.
    MsgHigh { dst: TaskId, ceiling: Priority },
    /// A high-lane message was consumed; routed like
    /// [`SchedMsg::MsgHigh`], releasing the boost when posts and drains
    /// balance.
    MsgDrained { dst: TaskId },
    /// An idle peer group asks for up to `k` ready jobs; `k` is sized
    /// by the thief from the advertised load gap
    /// ([`LoadBoard::steal_batch_size`]).
    StealRequest { thief: usize, k: u8 },
    /// A victim's grant: up to [`MAX_STEAL_BATCH`] detached jobs in one
    /// ack (a single steal is a batch of one); the thief adopts them
    /// all with one dispatch round.
    StolenBatch { jobs: JobBatch },
    /// A victim's refusal; the thief may re-probe.
    StealDeny,
    /// Phase one of a two-phase tenant admission (see
    /// [`Runtime::admit`]): splice the merged task set — its suffix is
    /// the new tenant — into this group's engine and register the
    /// tenant's bodies, with every new release left **disarmed**. The
    /// group decrements `ack` when its splice is done; the admitting
    /// thread holds the commit until the counter hits zero so a
    /// cross-group token for a new task can never reach a group that
    /// has not yet heard of it.
    Admit {
        taskset: Arc<TaskSet>,
        bodies: Arc<HashMap<(TaskId, VersionId), TaskBody>>,
        budget: Option<TenantBudget>,
        at: Instant,
        ack: Arc<AtomicUsize>,
    },
    /// Phase two: arm the tenant's releases. Each group anchors them at
    /// its **next local tick edge** (not the commit send instant): the
    /// group dispatches on a fixed tick grid, so an off-grid release
    /// phase would delay every dispatch of the tenant by up to one tick
    /// — enough to sink a deadline equal to the period.
    Commit { tenant: TenantId },
    /// Quiesce a tenant: cull its ready jobs, disarm its releases, drop
    /// its pending tokens; in-flight jobs finish but fire no successors.
    Retire { tenant: TenantId, at: Instant },
    /// Stop releasing periodic jobs.
    Stop,
    /// Drain and exit (two-phase: see the drain protocol in
    /// [`scheduler_main`]).
    Shutdown,
    /// Phase one of the loss-free shutdown drain: a quiesced group
    /// barriers each peer lane with this marker. Peer lanes are FIFO,
    /// so by the time the receiver sees the flush, every token the
    /// sender routed before it has been received; the receiver answers
    /// with [`SchedMsg::DrainAck`].
    DrainFlush { from: usize },
    /// The ack completing a [`SchedMsg::DrainFlush`] barrier: the
    /// sending peer has observed everything routed to it before the
    /// flush (the peer's identity is implied by its lane).
    DrainAck,
}

/// Builder mirroring the paper's init/declare phase.
pub struct RuntimeBuilder {
    taskset: Arc<TaskSet>,
    config: Config,
    bodies: HashMap<(TaskId, VersionId), TaskBody>,
    channels: Vec<NotifyHandle>,
    pin_offset: usize,
    lock_memory: bool,
    work_stealing: bool,
}

impl RuntimeBuilder {
    /// Starts building a runtime for `taskset` under `config`, which
    /// must schedule non-preemptively (`preemption(false)`); its
    /// `sharded_dispatch` flag selects the group layout (module docs).
    #[must_use]
    pub fn new(taskset: Arc<TaskSet>, config: Config) -> Self {
        RuntimeBuilder {
            taskset,
            config,
            bodies: HashMap::new(),
            channels: Vec::new(),
            pin_offset: 0,
            lock_memory: false,
            work_stealing: false,
        }
    }

    /// Opens the typed endpoints of a channel declared in the task set
    /// (`TaskSetBuilder::channel_decl` /
    /// `TaskSetBuilder::channel_decl_prioritized`) and registers its
    /// notify hook with the runtime: once built, a
    /// [`yasmin_sched::msg::Sender::send_high`] on this channel boosts
    /// the receiving task's pending job through the scheduler until the
    /// high lane drains. Capacity and element size are validated
    /// against the [`yasmin_core::channel::ChannelSpec`].
    ///
    /// Hand the [`yasmin_sched::msg::Sender`] to the producing task's
    /// body and the [`yasmin_sched::msg::Receiver`] to the consuming
    /// one (they are `Send + Sync`; capture them in the closures). The
    /// channel's events land on its *home* group (the sending task's);
    /// when the receiving task lives in another group the home group
    /// forwards them over the per-peer lanes, exactly like cross-group
    /// DAG activation tokens.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownChannel`] / [`Error::ChannelNotConnected`] for a
    /// bad id, [`Error::InvalidConfig`] when `T` does not fit the
    /// spec's element size.
    pub fn channel<T: Send>(
        &mut self,
        id: yasmin_core::ids::ChannelId,
    ) -> Result<(MsgSender<T>, MsgReceiver<T>)> {
        let (tx, rx) = yasmin_sched::msg::channel(&self.taskset, id)?;
        self.channels.push(tx.notify_handle());
        Ok((tx, rx))
    }

    /// Registers a standalone channel (built with
    /// [`yasmin_sched::ChannelBuilder`], outside the task-set graph) so
    /// its high-lane traffic reaches the group owning the receiver.
    #[must_use]
    pub fn register_channel(mut self, handle: NotifyHandle) -> Self {
        self.channels.push(handle);
        self
    }

    /// Enables work stealing between groups: an idle group probes the
    /// advisory load board and pulls the most urgent accelerator-free
    /// ready jobs off the most loaded peer, running them on its own
    /// worker. Off by default, which preserves strict task-to-worker
    /// placement; it has no effect with a single group.
    #[must_use]
    pub fn work_stealing(mut self, on: bool) -> Self {
        self.work_stealing = on;
        self
    }

    /// Registers the executable body of `(task, version)`.
    #[must_use]
    pub fn body(
        mut self,
        task: TaskId,
        version: VersionId,
        f: impl Fn(&JobCtx) + Send + Sync + 'static,
    ) -> Self {
        self.bodies.insert((task, version), Arc::new(f));
        self
    }

    /// Pins worker *w* to core `offset + w`, best-effort. A one-worker
    /// group's scheduler thread shares its worker's core; the scheduler
    /// of a single all-worker group takes core `offset + workers`.
    #[must_use]
    pub fn pin_cores_from(mut self, offset: usize) -> Self {
        self.pin_offset = offset;
        self
    }

    /// Calls `mlockall` at start (best-effort, §3.5).
    #[must_use]
    pub fn lock_memory(mut self) -> Self {
        self.lock_memory = true;
        self
    }

    /// Validates and spawns all threads; the schedule starts
    /// immediately.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidConfig`] when preemption is enabled (see module
    ///   docs), a version has no registered body, or — under sharded
    ///   dispatch — the task set violates the sharding contract
    ///   ([`yasmin_sched::validate_sharding`]);
    /// * engine construction errors (partition validation etc.).
    pub fn build(self) -> Result<Runtime> {
        if self.config.preemption() {
            return Err(Error::InvalidConfig(
                "the thread runtime schedules non-preemptively at job boundaries; \
                 build the Config with .preemption(false) (the simulator exercises \
                 preemptive configurations)"
                    .into(),
            ));
        }
        for t in self.taskset.tasks() {
            for (vi, _) in t.versions().iter().enumerate() {
                let key = (t.id(), VersionId::new(vi as u16));
                if !self.bodies.contains_key(&key) {
                    return Err(Error::InvalidConfig(format!(
                        "no body registered for task {} version v{vi}",
                        t.id()
                    )));
                }
            }
        }
        let engines = if self.config.sharded_dispatch() {
            EngineShard::build_all(&self.taskset, &self.config)?
                .into_iter()
                .map(EngineShard::into_inner)
                .collect()
        } else {
            vec![OnlineEngine::new(
                Arc::clone(&self.taskset),
                self.config.clone(),
            )?]
        };
        if self.lock_memory {
            // Best-effort; containers commonly deny it.
            let _ = crate::os::lock_all_memory();
        }
        Runtime::spawn(self, engines)
    }
}

/// Tenant bookkeeping, held under one mutex so concurrent admissions
/// serialise: the current merged task set (grows with each admission),
/// the next tenant id, the ids already retired (validated here because
/// scheduler threads cannot reply), and whether the schedule stopped.
struct TenantState {
    current: Arc<TaskSet>,
    next_tenant: u32,
    retired: Vec<TenantId>,
    stopped: bool,
}

/// The group owning `task`: its assigned worker's under sharded
/// dispatch (one group per worker), the only group otherwise.
fn group_of(taskset: &TaskSet, groups: usize, task: TaskId) -> Result<usize> {
    let spec = taskset.task(task)?.spec();
    if groups == 1 {
        return Ok(0);
    }
    spec.assigned_worker()
        .map(WorkerId::index)
        .ok_or(Error::MissingPartition(task))
}

/// The running middleware: scheduler threads + pinned workers.
pub struct Runtime {
    state: Mutex<TenantState>,
    admission: AdmissionControl,
    clock: Arc<MonotonicClock>,
    /// One control sender per group (lane [`LANE_CONTROL`]); behind a
    /// mutex because mailbox lanes are single-producer while this handle
    /// is `&self`-shared.
    control: Mutex<Vec<MailboxSender<SchedMsg>>>,
    schedulers: Vec<std::thread::JoinHandle<(Vec<RtJobRecord>, EngineStats)>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("groups", &self.schedulers.len())
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

/// Sends `msg` into a mailbox lane, backing off while it is full.
fn send_with_backoff(tx: &mut MailboxSender<SchedMsg>, mut msg: SchedMsg) {
    let mut backoff = Backoff::new();
    loop {
        match tx.send(msg) {
            Ok(()) => return,
            Err(MailboxFull(v)) => {
                msg = v;
                backoff.snooze();
            }
        }
    }
}

/// Pushes `msg` into a worker ring, backing off while it is full. The
/// ring is sized for `max_pending_jobs`, so a full ring only means the
/// worker is momentarily behind.
fn push_with_backoff(ring: &mut spsc::Producer<WorkerMsg>, mut msg: WorkerMsg) {
    let mut backoff = Backoff::new();
    while let Err(spsc::Full(v)) = ring.push(msg) {
        msg = v;
        backoff.snooze();
    }
}

impl Runtime {
    fn spawn(builder: RuntimeBuilder, engines: Vec<OnlineEngine>) -> Result<Self> {
        let clock = Arc::new(MonotonicClock::new());
        let cap = builder.config.max_pending_jobs();
        let waiting = builder.config.waiting();
        let workers_n = builder.config.workers();
        let n = engines.len();
        let tick = engines
            .first()
            .map(OnlineEngine::tick_period)
            .ok_or_else(|| Error::InvalidConfig("the runtime needs at least one worker".into()))?;
        let admission = AdmissionControl::new(builder.config.clone(), tick);
        let board = Arc::new(LoadBoard::new(n));
        // Seed the victim-selection hints: groups joined by a
        // cross-group DAG edge are marked adjacent, so on exact load
        // ties a thief prefers a victim whose jobs have successors (or
        // predecessors) in the thief's own group — the stolen work's
        // tokens then travel a lane that already exists.
        if n > 1 {
            for e in builder.taskset.edges() {
                let (a, b) = (
                    group_of(&builder.taskset, n, e.src)?,
                    group_of(&builder.taskset, n, e.dst)?,
                );
                if a != b {
                    board.set_adjacent(a, b);
                }
            }
        }
        let drain_board: Arc<Vec<AtomicBool>> =
            Arc::new((0..n).map(|_| AtomicBool::new(false)).collect());
        let mut control = Vec::with_capacity(n);
        let mut schedulers = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(workers_n);

        // One mailbox per group: control lane, one lane per peer group
        // for the cross-group protocol, the message lane fed by the
        // channel notify hooks, and one completion lane per worker.
        // Peer senders are regrouped so scheduler thread `s` owns, for
        // every target `t`, the sender feeding lane `LANE_PEER0 + s` of
        // `t`'s mailbox.
        let mut done_lanes = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        let mut peer_lanes_by_target = Vec::with_capacity(n);
        let mut msg_txs = Vec::with_capacity(n);
        for engine in &engines {
            let width = if engine.shard_worker().is_some() {
                1
            } else {
                workers_n
            };
            let (mut lanes, mailbox_rx) =
                mailbox::<SchedMsg>(LANE_PEER0 + n + 1 + width, cap.max(64));
            done_lanes.push(lanes.split_off(LANE_PEER0 + n + 1));
            let msg_tx = lanes.pop().expect("message lane present");
            msg_txs.push(Arc::new(Mutex::new(msg_tx)));
            peer_lanes_by_target.push(lanes.split_off(LANE_PEER0));
            control.push(lanes.remove(LANE_CONTROL));
            receivers.push(mailbox_rx);
        }

        // Arm the channel notify hooks: each channel posts its events to
        // its *home* group's message lane — the sending task's group, so
        // one channel's posts and drains travel one FIFO route and can
        // never reorder. A home group that does not own the receiver
        // forwards over the per-peer lanes (see `SchedMsg::MsgHigh`).
        for handle in &builder.channels {
            if handle.ceiling().is_none() {
                continue;
            }
            let home = match builder
                .taskset
                .edges()
                .iter()
                .find(|e| Some(e.channel) == handle.channel())
            {
                Some(e) => group_of(&builder.taskset, n, e.src)?,
                None => group_of(&builder.taskset, n, handle.dst())?,
            };
            let tx = Arc::clone(&msg_txs[home]);
            let _ = handle.set_notify(Arc::new(move |ev| {
                let msg = match ev {
                    MsgEvent::HighPosted { dst, ceiling } => SchedMsg::MsgHigh { dst, ceiling },
                    MsgEvent::HighDrained { dst } => SchedMsg::MsgDrained { dst },
                };
                let mut tx = tx.lock().expect("message lane mutex poisoned");
                send_with_backoff(&mut tx, msg);
            }));
        }
        // Transpose: peer_txs[source][target], a group never sends to
        // itself.
        let mut peer_txs: Vec<Vec<Option<MailboxSender<SchedMsg>>>> =
            (0..n).map(|_| Vec::with_capacity(n)).collect();
        for (target, lanes) in peer_lanes_by_target.into_iter().enumerate() {
            for (source, tx) in lanes.into_iter().enumerate() {
                peer_txs[source].push((source != target).then_some(tx));
            }
        }

        for (g, ((engine, mailbox_rx), (group_done_lanes, peers))) in engines
            .into_iter()
            .zip(receivers)
            .zip(done_lanes.into_iter().zip(peer_txs))
            .enumerate()
        {
            let first = engine.shard_worker().map_or(0, WorkerId::index);
            let mut rings = Vec::with_capacity(group_done_lanes.len());
            for (i, done_tx) in group_done_lanes.into_iter().enumerate() {
                let w = WorkerId::new((first + i) as u16);
                let core = builder.pin_offset + w.index();
                let (ring, from_sched) = spsc::channel::<WorkerMsg>(cap);
                rings.push(ring);
                let worker_clock = Arc::clone(&clock);
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("yasmin-worker-{w}"))
                        .spawn(move || {
                            let _ = crate::os::pin_current_thread(core);
                            worker_main(from_sched, done_tx, &worker_clock, w, waiting);
                        })
                        .map_err(|e| Error::Os(format!("spawning worker {w}: {e}")))?,
                );
            }

            let sched_core = builder.pin_offset
                + if engine.shard_worker().is_some() {
                    first
                } else {
                    workers_n
                };
            let group = Group {
                engine,
                first,
                rings,
            };
            let bodies = builder.bodies.clone();
            let sched_clock = Arc::clone(&clock);
            let links = PeerLinks {
                me: g,
                txs: peers,
                pending: (0..n).map(|_| std::collections::VecDeque::new()).collect(),
                board: Arc::clone(&board),
                stealing: builder.work_stealing && n > 1,
                drained: Arc::clone(&drain_board),
            };
            schedulers.push(
                std::thread::Builder::new()
                    .name(format!("yasmin-sched-{g}"))
                    .spawn(move || {
                        let _ = crate::os::pin_current_thread(sched_core);
                        scheduler_main(group, bodies, mailbox_rx, &sched_clock, waiting, links)
                    })
                    .map_err(|e| Error::Os(format!("spawning scheduler {g}: {e}")))?,
            );
        }

        Ok(Runtime {
            state: Mutex::new(TenantState {
                current: builder.taskset,
                next_tenant: 1,
                retired: Vec::new(),
                stopped: false,
            }),
            admission,
            clock,
            control: Mutex::new(control),
            schedulers,
            workers,
        })
    }

    /// Activates an aperiodic or sporadic task on its owning group (the
    /// paper's `yas_task_activate`).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTask`] when the task does not exist;
    /// [`Error::MissingPartition`] when, under sharded dispatch, it has
    /// no worker assignment.
    pub fn activate(&self, task: TaskId) -> Result<()> {
        let state = self.state.lock().expect("tenant state mutex poisoned");
        let mut control = self.control.lock().expect("control mutex poisoned");
        let g = group_of(&state.current, control.len(), task)?;
        send_with_backoff(&mut control[g], SchedMsg::Activate(task));
        Ok(())
    }

    /// Admits a new tenant into the **running** schedule.
    ///
    /// `candidate` is the tenant's task set declared in its own id
    /// space; `bodies` maps its `(task, version)` pairs (candidate-local
    /// ids) to executable bodies; `budget`, when given, caps the
    /// tenant's processor share with a per-group replica of its
    /// reservation server — under sharded dispatch the budget bounds the
    /// tenant **per worker** (a tenant spanning `k` groups may consume
    /// up to `k ×` capacity per period).
    ///
    /// The schedulability check ([`AdmissionControl::evaluate`], plus
    /// the sharding contract [`validate_sharding`] under sharded
    /// dispatch) runs on the **caller's** thread — the paper's
    /// non-real-time admission path. An accepted tenant is then spliced
    /// in **two phases** over the control lanes: every group first
    /// adopts the merged set with the new releases disarmed and
    /// acknowledges, and only once all groups have acknowledged is the
    /// commit broadcast that arms the releases. The barrier guarantees a
    /// cross-group DAG token of the new tenant can never arrive at a
    /// group that has not yet spliced. Existing tenants' scheduling is
    /// untouched either way.
    ///
    /// Returns the assigned [`TenantId`] (use it with
    /// [`Runtime::retire`]); the tenant's task ids are its candidate ids
    /// offset by the number of tasks admitted before it.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Rejected`] names the violated analysis bound;
    /// [`AdmissionError::Invalid`] covers malformed requests — missing
    /// bodies, partition or sharding-contract violations (e.g. an
    /// accelerator shared between groups), a period off the running
    /// tick, a degenerate budget — and a schedule already stopped.
    pub fn admit(
        &self,
        candidate: &TaskSet,
        bodies: HashMap<(TaskId, VersionId), TaskBody>,
        budget: Option<TenantBudget>,
    ) -> std::result::Result<TenantId, AdmissionError> {
        let mut state = self.state.lock().expect("tenant state mutex poisoned");
        if state.stopped {
            return Err(AdmissionError::Invalid(Error::ScheduleNotRunning));
        }
        check_candidate_bodies(candidate, &bodies)?;
        let merged = self
            .admission
            .evaluate(&state.current, candidate, budget.as_ref())?;
        if self.admission.config().sharded_dispatch() {
            validate_sharding(&merged, self.admission.config()).map_err(AdmissionError::Invalid)?;
        }
        let tenant = TenantId::new(state.next_tenant);
        let offset = state.current.len() as u32;
        let remapped: Arc<HashMap<(TaskId, VersionId), TaskBody>> = Arc::new(
            bodies
                .into_iter()
                .map(|((t, v), b)| ((TaskId::new(offset + t.raw()), v), b))
                .collect(),
        );

        // Phase 1: broadcast the splice and wait for every group to
        // acknowledge it.
        let mut control = self.control.lock().expect("control mutex poisoned");
        let ack = Arc::new(AtomicUsize::new(control.len()));
        let at = self.clock.now();
        for tx in control.iter_mut() {
            send_with_backoff(
                tx,
                SchedMsg::Admit {
                    taskset: Arc::clone(&merged),
                    bodies: Arc::clone(&remapped),
                    budget,
                    at,
                    ack: Arc::clone(&ack),
                },
            );
        }
        let mut backoff = Backoff::new();
        while ack.load(Ordering::Acquire) != 0 {
            backoff.snooze();
        }

        // Phase 2: every group knows the tenant — arm its releases
        // (each group anchors them at its next local tick edge).
        for tx in control.iter_mut() {
            send_with_backoff(tx, SchedMsg::Commit { tenant });
        }
        drop(control);
        state.current = merged;
        state.next_tenant += 1;
        Ok(tenant)
    }

    /// Retires an admitted tenant on every group: its future releases
    /// stop, its ready jobs are culled, its in-flight jobs finish
    /// without firing successors, and racing cross-group tokens are
    /// dropped silently. Other tenants are untouched.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTenant`] / [`Error::TenantRetired`] for ids never
    /// admitted or already retired; [`Error::InvalidConfig`] for tenant
    /// 0 (the build-time set — use [`Runtime::stop`]).
    pub fn retire(&self, tenant: TenantId) -> Result<()> {
        let mut state = self.state.lock().expect("tenant state mutex poisoned");
        if tenant.raw() == 0 {
            return Err(Error::InvalidConfig(
                "tenant 0 is the built-in task set; stop the schedule to end it".into(),
            ));
        }
        if tenant.raw() >= state.next_tenant {
            return Err(Error::UnknownTenant(tenant.raw()));
        }
        if state.retired.contains(&tenant) {
            return Err(Error::TenantRetired(tenant.raw()));
        }
        let at = self.clock.now();
        {
            let mut control = self.control.lock().expect("control mutex poisoned");
            for tx in control.iter_mut() {
                send_with_backoff(tx, SchedMsg::Retire { tenant, at });
            }
        }
        state.retired.push(tenant);
        Ok(())
    }

    /// Stops releasing new periodic jobs on every group; in-flight jobs
    /// drain (the paper's `yas_stop`).
    pub fn stop(&self) {
        let mut state = self.state.lock().expect("tenant state mutex poisoned");
        state.stopped = true;
        let mut control = self.control.lock().expect("control mutex poisoned");
        for tx in control.iter_mut() {
            send_with_backoff(tx, SchedMsg::Stop);
        }
    }

    /// Drains every group, joins all threads and returns the merged run
    /// report (the paper's `yas_cleanup`). Records are ordered by
    /// completion time across groups.
    ///
    /// # Panics
    ///
    /// Panics if a runtime thread panicked.
    #[must_use]
    pub fn cleanup(mut self) -> RuntimeReport {
        {
            let mut control = self.control.lock().expect("control mutex poisoned");
            for tx in control.iter_mut() {
                send_with_backoff(tx, SchedMsg::Shutdown);
            }
        }
        let mut records = Vec::new();
        let mut engine_stats = EngineStats::default();
        for s in self.schedulers.drain(..) {
            let (recs, stats) = s.join().expect("scheduler thread panicked");
            records.extend(recs);
            engine_stats.merge(&stats);
        }
        for w in self.workers.drain(..) {
            w.join().expect("worker thread panicked");
        }
        records.sort_by_key(|r| (r.completed, r.job.task, r.job.seq));
        RuntimeReport {
            records,
            engine_stats,
        }
    }
}

/// Verifies every version of every candidate task has a registered body
/// (keyed by candidate-local ids) before any scheduler thread hears
/// about the tenant.
fn check_candidate_bodies(
    candidate: &TaskSet,
    bodies: &HashMap<(TaskId, VersionId), TaskBody>,
) -> std::result::Result<(), AdmissionError> {
    for t in candidate.tasks() {
        for (vi, _) in t.versions().iter().enumerate() {
            let key = (t.id(), VersionId::new(vi as u16));
            if !bodies.contains_key(&key) {
                return Err(AdmissionError::Invalid(Error::InvalidConfig(format!(
                    "no body registered for admitted task {} version v{vi}",
                    t.id()
                ))));
            }
        }
    }
    Ok(())
}

fn worker_main(
    mut rx: spsc::Consumer<WorkerMsg>,
    mut done_tx: MailboxSender<SchedMsg>,
    clock: &Arc<MonotonicClock>,
    me: WorkerId,
    waiting: WaitChoice,
) {
    let mut backoff = Backoff::new();
    let mut idle_polls = 0u32;
    loop {
        match rx.pop() {
            Some(WorkerMsg::Exit) => break,
            Some(WorkerMsg::Run { job, version, body }) => {
                backoff.reset();
                idle_polls = 0;
                let started = clock.now();
                let ctx = JobCtx {
                    job,
                    version,
                    worker: me,
                };
                // Contain body panics: a panicking job is handed back as
                // Failed instead of killing the worker thread and with it
                // the whole group — one bad tenant body must not take a
                // virtual CPU down with it. `TaskBody` is a shared
                // closure and not `UnwindSafe`, but its captured state is
                // never observed by the runtime after a panic, so the
                // assertion is sound.
                let outcome =
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&ctx))) {
                        Ok(()) => JobOutcome::Completed,
                        Err(_) => JobOutcome::Failed,
                    };
                let completed = clock.now();
                send_with_backoff(
                    &mut done_tx,
                    SchedMsg::Done {
                        worker: me,
                        job,
                        version,
                        started,
                        completed,
                        outcome,
                    },
                );
            }
            None => {
                idle_polls += 1;
                // Under the sleep strategy an idle worker naps in short
                // slices instead of burning its core.
                if waiting == WaitChoice::Sleep && idle_polls > 64 {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                } else {
                    backoff.snooze();
                }
            }
        }
    }
}

/// What one scheduler thread owns: the engine over its group and the
/// dispatch ring of every worker in the group. The group's workers are
/// the contiguous global range starting at `first`, so worker `w`'s
/// ring is `rings[w - first]`.
struct Group {
    engine: OnlineEngine,
    first: usize,
    rings: Vec<spsc::Producer<WorkerMsg>>,
}

/// A scheduler thread's links to its peers: its own group index `me`,
/// one mailbox sender per target group (its own slot is `None`), the
/// advisory load board, and whether stealing is enabled.
///
/// Peer sends never block: a full lane spills into a local per-target
/// FIFO that [`PeerLinks::flush`] retries every wake. Blocking here
/// would be a deadlock hazard — two groups spinning on each other's
/// full lanes while neither drains its own mailbox, or one group
/// wedged forever on a peer that already exited at shutdown.
struct PeerLinks {
    me: usize,
    txs: Vec<Option<MailboxSender<SchedMsg>>>,
    /// Per-target overflow, preserving lane FIFO order.
    pending: Vec<std::collections::VecDeque<SchedMsg>>,
    board: Arc<LoadBoard>,
    stealing: bool,
    /// The shared drain board of the two-phase shutdown: `drained[s]`
    /// is raised by group `s` once it is quiet during shutdown and
    /// cleared by `s` when late work arrives. A group exits only at
    /// global quiescence — every flag raised *and* its own mailbox and
    /// spill backlog empty — so no in-flight message is ever dropped.
    drained: Arc<Vec<AtomicBool>>,
}

impl PeerLinks {
    fn send(&mut self, target: usize, msg: SchedMsg) {
        let tx = self.txs[target]
            .as_mut()
            .expect("peer links never target the sending group");
        if self.pending[target].is_empty() {
            if let Err(MailboxFull(v)) = tx.send(msg) {
                self.pending[target].push_back(v);
            }
        } else {
            // Keep lane order: everything queues behind the backlog.
            self.pending[target].push_back(msg);
        }
    }

    /// Retries the spilled backlog, stopping per target at the first
    /// still-full lane.
    fn flush(&mut self) {
        for (t, q) in self.pending.iter_mut().enumerate() {
            while let Some(msg) = q.pop_front() {
                let tx = self.txs[t].as_mut().expect("backlog only for peers");
                if let Err(MailboxFull(v)) = tx.send(msg) {
                    q.push_front(v);
                    break;
                }
            }
        }
    }

    fn pending_empty(&self) -> bool {
        self.pending
            .iter()
            .all(std::collections::VecDeque::is_empty)
    }

    /// Raises or clears this group's drained flag (cleared when late
    /// work arrives after the group advertised quiescence). `Release`
    /// pairs with the `Acquire` in [`PeerLinks::all_drained`]:
    /// everything this group sent before raising the flag (tokens
    /// already landed in peer mailboxes) is visible to a peer that
    /// observes the flag before it checks its own mailbox.
    fn set_drained(&self, drained: bool) {
        self.drained[self.me].store(drained, Ordering::Release);
    }

    /// `true` when every group has advertised quiescence.
    fn all_drained(&self) -> bool {
        self.drained.iter().all(|d| d.load(Ordering::Acquire))
    }
}

#[allow(clippy::too_many_lines)]
fn scheduler_main(
    group: Group,
    mut bodies: HashMap<(TaskId, VersionId), TaskBody>,
    mut rx: MailboxReceiver<SchedMsg>,
    clock: &Arc<MonotonicClock>,
    waiting: WaitChoice,
    mut peers: PeerLinks,
) -> (Vec<RtJobRecord>, EngineStats) {
    let Group {
        mut engine,
        first,
        mut rings,
    } = group;
    let me = peers.me;
    let tick = engine.tick_period();
    let mut records: Vec<RtJobRecord> = Vec::new();
    let mut shutting_down = false;
    // The victim group of the one in-flight steal request, if any —
    // cleared by its grant/refusal, or when the victim's lane closes
    // without answering (the victim exited).
    let mut pending_steal: Option<usize> = None;
    // Victim-side batch-steal scratch, reused across grants so the
    // steal path stays allocation-free after the first exchange.
    let mut steal_hints: Vec<StealHint> = Vec::with_capacity(MAX_STEAL_BATCH);
    let mut steal_batch = JobBatch::new();
    // Two-phase drain state: whether this group has barriered its peer
    // lanes with `DrainFlush`, and how many peers have acked.
    let mut flush_sent = false;
    let mut drain_acks = 0usize;
    let peer_count = peers.txs.len().saturating_sub(1);

    // One reusable sink: the steady-state loop allocates nothing for
    // actions. Dispatches go straight into the workers' SPSC rings.
    let mut sink = ActionSink::new();
    // Completions found pending in one mailbox drain, retired through
    // the engine's batch API (or folded into a due tick) so the whole
    // burst pays a single dispatch round.
    let mut done_batch: Vec<(WorkerId, JobId)> = Vec::with_capacity(rings.len().max(8));
    // Cross-group DAG tokens drained from the engine outbox, reused.
    let mut outbox: Vec<RemoteActivation> = Vec::with_capacity(8);
    let mut last_done = Instant::ZERO;
    // `bodies` is passed explicitly (not captured) because admission
    // grows the map between rounds.
    let dispatch = |sink: &ActionSink,
                    rings: &mut [spsc::Producer<WorkerMsg>],
                    bodies: &HashMap<(TaskId, VersionId), TaskBody>| {
        for &a in sink.as_slice() {
            if let Action::Dispatch {
                worker,
                job,
                version,
            } = a
            {
                let body = Arc::clone(&bodies[&(job.task, version)]);
                push_with_backoff(
                    &mut rings[worker.index() - first],
                    WorkerMsg::Run { job, version, body },
                );
            }
            // Boost actions are priority bookkeeping only; preemption is
            // disabled, so Preempt cannot occur.
        }
    };

    // The advertised load is the *stealable* load: zero whenever the
    // steal probe would yield no hint (empty queue, or a top job that
    // must not migrate). Advertising raw ready counts would invite a
    // persistent request/deny ping-pong against a group whose queue
    // holds only unstealable work.
    let stealable_load =
        |engine: &OnlineEngine| -> usize { engine.steal_hint().map_or(0, |_| engine.ready_len()) };

    // Everything an engine round leaves behind: dispatches go to the
    // worker rings, cross-group tokens route to their owning peers,
    // and — when anyone actually probes — the advisory load is
    // republished (with stealing off, the probe and the store would be
    // pure overhead on the benchmarked dispatch path).
    macro_rules! settle_round {
        ($sink:expr) => {{
            dispatch($sink, &mut rings, &bodies);
            engine.drain_outbox_into(&mut outbox);
            for ra in outbox.drain(..) {
                peers.send(
                    ra.worker.index(),
                    SchedMsg::CrossActivate {
                        edge: ra.edge,
                        graph_release: ra.graph_release,
                    },
                );
            }
            if peers.stealing {
                peers.board.publish(me, stealable_load(&engine));
            }
        }};
    }

    engine
        .start_into(clock.now(), &mut sink)
        .expect("fresh engine starts");
    settle_round!(&sink);
    let mut next_tick = clock.now() + tick;

    loop {
        // Retry any peer sends that found a full lane earlier — before
        // draining our own mailbox, so two busy groups always make
        // mutual progress.
        peers.flush();
        // Drain the mailbox (completions, control, peer protocol) on
        // the zero-alloc path. Pending completions coalesce; any other
        // command first flushes them, so command effects stay ordered
        // as received. Completions still pending when the drain ends
        // are folded into the tick round below if one is due.
        let mut drained_any = false;
        debug_assert!(done_batch.is_empty());
        loop {
            let msg = rx.try_recv();
            if msg.is_some() {
                drained_any = true;
            }
            let flush =
                !done_batch.is_empty() && !matches!(msg, Some(SchedMsg::Done { .. }) | None);
            if flush {
                sink.clear();
                engine
                    .on_jobs_completed_into(&done_batch, last_done, &mut sink)
                    .expect("completion protocol upheld");
                done_batch.clear();
                settle_round!(&sink);
            }
            let Some(msg) = msg else { break };
            // Late work arriving after this group advertised quiescence
            // revokes the advertisement before any effect of the work
            // (dispatches, routed tokens) becomes visible to peers. The
            // drain-protocol markers themselves are not work.
            if shutting_down && !matches!(msg, SchedMsg::DrainFlush { .. } | SchedMsg::DrainAck) {
                peers.set_drained(false);
            }
            match msg {
                SchedMsg::Done {
                    worker,
                    job,
                    version,
                    started,
                    completed,
                    outcome,
                } => {
                    // Max, not overwrite: the mailbox merges lanes, and
                    // a batch's dispatch round must not run at a
                    // timestamp earlier than a completion it retires.
                    last_done = last_done.max(completed);
                    records.push(RtJobRecord {
                        job,
                        version,
                        worker,
                        started,
                        completed,
                        outcome,
                    });
                    match outcome {
                        JobOutcome::Completed => done_batch.push((worker, job.id)),
                        JobOutcome::Failed => {
                            // Failures are rare by construction: flush
                            // the completed batch so retirement stays
                            // ordered, then retire the failure alone
                            // through the failure path (successors are
                            // policy-gated there).
                            sink.clear();
                            if !done_batch.is_empty() {
                                engine
                                    .on_jobs_completed_into(&done_batch, last_done, &mut sink)
                                    .expect("completion protocol upheld");
                                done_batch.clear();
                            }
                            engine
                                .on_job_failed_into(worker, job.id, completed, &mut sink)
                                .expect("failure protocol upheld");
                            settle_round!(&sink);
                        }
                    }
                }
                SchedMsg::Activate(task) => {
                    sink.clear();
                    if engine.activate_into(task, clock.now(), &mut sink).is_ok() {
                        settle_round!(&sink);
                    }
                }
                SchedMsg::CrossActivate {
                    edge,
                    graph_release,
                } => {
                    sink.clear();
                    engine
                        .on_remote_token(edge, graph_release, clock.now(), &mut sink)
                        .expect("cross-group token routed to the owning group");
                    settle_round!(&sink);
                }
                SchedMsg::MsgHigh { dst, ceiling } => {
                    match group_of(engine.taskset(), peers.txs.len(), dst) {
                        Ok(o) if o == me => {
                            sink.clear();
                            if engine
                                .on_high_posted_into(dst, ceiling, clock.now(), &mut sink)
                                .is_ok()
                            {
                                settle_round!(&sink);
                            }
                        }
                        // Not ours: ride the per-peer lane to the owner,
                        // like a cross-group activation token.
                        Ok(o) => peers.send(o, SchedMsg::MsgHigh { dst, ceiling }),
                        Err(_) => {}
                    }
                }
                SchedMsg::MsgDrained { dst } => {
                    match group_of(engine.taskset(), peers.txs.len(), dst) {
                        Ok(o) if o == me => {
                            sink.clear();
                            if engine
                                .on_high_drained_into(dst, clock.now(), &mut sink)
                                .is_ok()
                            {
                                settle_round!(&sink);
                            }
                        }
                        Ok(o) => peers.send(o, SchedMsg::MsgDrained { dst }),
                        Err(_) => {}
                    }
                }
                SchedMsg::StealRequest { thief, k } => {
                    // Answer authoritatively: detach up to `k` of the
                    // most urgent accelerator-free ready jobs in one
                    // exchange, or refuse. Scratch buffers are retained
                    // across rounds — the grant path allocates nothing.
                    steal_hints.clear();
                    steal_batch.clear();
                    engine.steal_hints(k as usize, &mut steal_hints);
                    let granted = engine.release_stolen_batch(&steal_hints, &mut steal_batch);
                    let reply = if granted == 0 {
                        SchedMsg::StealDeny
                    } else {
                        // Record the donation so future load ties break
                        // towards this group — recent donors tend to
                        // stay the imbalanced ones.
                        peers.board.record_donation(me);
                        SchedMsg::StolenBatch { jobs: steal_batch }
                    };
                    peers.send(thief, reply);
                    if peers.stealing {
                        peers.board.publish(me, stealable_load(&engine));
                    }
                }
                SchedMsg::StolenBatch { jobs } => {
                    pending_steal = None;
                    sink.clear();
                    engine
                        .adopt_stolen_batch(jobs.as_slice(), clock.now(), &mut sink)
                        .expect("stolen batch adoptable by the requesting group");
                    settle_round!(&sink);
                }
                SchedMsg::StealDeny => pending_steal = None,
                SchedMsg::Admit {
                    taskset,
                    bodies: tenant_bodies,
                    budget,
                    at,
                    ack,
                } => {
                    // Control path: allocation here is fine, the tenant
                    // is not running yet (see module docs of
                    // `yasmin_sched::admission`). The admitting thread
                    // ran `AdmissionControl::evaluate`, which refuses
                    // every request `splice_taskset` would.
                    for (k, b) in tenant_bodies.iter() {
                        bodies.insert(*k, Arc::clone(b));
                    }
                    let tenant = TenantId::new(engine.tenant_count() as u32);
                    engine
                        .splice_taskset(taskset, reservation_for(tenant, budget, at))
                        .expect("admission validated by the admitting thread");
                    ack.fetch_sub(1, Ordering::AcqRel);
                }
                SchedMsg::Commit { tenant } => {
                    sink.clear();
                    // A commit racing a `stop()` is refused by the
                    // engine (`ScheduleNotRunning`) — the schedule is
                    // ending anyway, so the tenant simply never starts.
                    if engine
                        .commit_tenant_anchored_into(tenant, next_tick, clock.now(), &mut sink)
                        .is_ok()
                    {
                        settle_round!(&sink);
                    }
                }
                SchedMsg::Retire { tenant, at } => {
                    sink.clear();
                    engine
                        .retire_tenant_into(tenant, at, &mut sink)
                        .expect("retirement validated by the retiring thread");
                    settle_round!(&sink);
                }
                SchedMsg::Stop => engine.stop(),
                SchedMsg::Shutdown => {
                    // Shutdown implies stop: the drain below terminates
                    // only once releases cease.
                    engine.stop();
                    shutting_down = true;
                }
                SchedMsg::DrainFlush { from } => {
                    // The flush rode the FIFO peer lane behind every
                    // token `from` routed here before quiescing; acking
                    // it proves all of them have been received.
                    peers.send(from, SchedMsg::DrainAck);
                }
                SchedMsg::DrainAck => drain_acks += 1,
            }
        }

        // A steal request outstanding towards a victim that exited
        // unanswered (its lane closed and drained) counts as a refusal.
        if let Some(v) = pending_steal {
            let lane = LANE_PEER0 + v;
            if !rx.lane_open(lane) && rx.peek_lane(lane).is_none() {
                pending_steal = None;
            }
        }
        // Two-phase loss-free drain. Phase one: a group that has gone
        // locally quiet — idle workers, no steal in flight, spill
        // backlog flushed — barriers every peer lane with `DrainFlush`
        // and waits for all acks; the FIFO lanes turn each ack into a
        // proof that the peer received everything routed to it before
        // the flush. Phase two: with all acks in and its own mailbox
        // empty, the group raises its flag on the shared drain board.
        // Exit happens only at global quiescence — every group drained
        // *and* this group's mailbox and backlog still empty. A late
        // token un-drains its receiver before any effect of the work is
        // visible, and an undelivered message always shows up either in
        // its sender's backlog (sender not drained) or its receiver's
        // mailbox (receiver re-checks before exiting), so no message
        // can be lost. With a single group both phases are immediate.
        if shutting_down && engine.is_idle() && pending_steal.is_none() && peers.pending_empty() {
            if !flush_sent {
                for p in 0..peers.txs.len() {
                    if p != me {
                        peers.send(p, SchedMsg::DrainFlush { from: me });
                    }
                }
                flush_sent = true;
            }
            if drain_acks >= peer_count && rx.is_empty() {
                peers.set_drained(true);
                if peers.all_drained() && rx.is_empty() && peers.pending_empty() {
                    break;
                }
            }
        }

        // Tick edge, generated locally by this group's scheduler. A due
        // tick folds the still-pending completion batch into the same
        // engine round: one dispatch round sees the freed workers and
        // the fresh releases together.
        let now = clock.now();
        if now >= next_tick {
            sink.clear();
            engine
                .advance_into(&done_batch, now, &mut sink)
                .expect("completion protocol upheld");
            done_batch.clear();
            settle_round!(&sink);
            // Age the donation history once per tick, from one group
            // only (every group halving it would decay n times faster
            // than intended). "Recent donor" then means "donated within
            // the last few ticks".
            if peers.stealing && me == 0 {
                peers.board.decay_donations();
            }
            while next_tick <= now {
                next_tick += tick;
            }
            continue;
        }
        if !done_batch.is_empty() {
            sink.clear();
            engine
                .on_jobs_completed_into(&done_batch, last_done, &mut sink)
                .expect("completion protocol upheld");
            done_batch.clear();
            settle_round!(&sink);
        }

        // Fully idle (empty queue, idle workers, drained mailbox): probe
        // the load board and ask the most loaded peer for work.
        if peers.stealing
            && !shutting_down
            && pending_steal.is_none()
            && engine.is_idle()
            && rx.is_empty()
        {
            if let Some(victim) = peers.board.pick_victim(me) {
                // Size the request to half the advertised load gap: a
                // thief this idle asks for more from a deeply loaded
                // victim, and never for more than the batch cap.
                let k = peers
                    .board
                    .steal_batch_size(victim, engine.ready_len(), MAX_STEAL_BATCH);
                peers.send(
                    victim,
                    SchedMsg::StealRequest {
                        thief: me,
                        k: k as u8,
                    },
                );
                pending_steal = Some(victim);
                continue;
            }
        }

        if !drained_any {
            // Idle until the next tick or the next mailbox command; the
            // sleep strategy naps in short slices so completions are
            // still picked up promptly.
            match waiting {
                WaitChoice::Sleep => {
                    let remaining: std::time::Duration = (next_tick - now).into();
                    std::thread::sleep(remaining.min(std::time::Duration::from_micros(200)));
                }
                WaitChoice::Spin => std::hint::spin_loop(),
            }
        }
    }

    // Global quiescence reached: every group is drained and this
    // group's mailbox and spill backlog are empty. Nothing can be in
    // flight — an undelivered message would have kept either its
    // sender's backlog non-empty (sender not drained) or this mailbox
    // non-empty — so exiting here loses no routed token, steal grant
    // or completion.
    debug_assert!(
        peers.pending_empty(),
        "drained group with spilled peer messages"
    );
    debug_assert!(rx.is_empty(), "drained group with a non-empty mailbox");
    peers.board.publish(me, 0);

    // Release the workers.
    for ring in &mut rings {
        push_with_backoff(ring, WorkerMsg::Exit);
    }
    (records, engine.stats().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use yasmin_core::config::MappingScheme;
    use yasmin_core::graph::TaskSetBuilder;
    use yasmin_core::priority::PriorityPolicy;
    use yasmin_core::task::TaskSpec;
    use yasmin_core::time::Duration;
    use yasmin_core::version::VersionSpec;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn config(workers: usize) -> Config {
        Config::builder()
            .workers(workers)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .preemption(false)
            .build()
            .unwrap()
    }

    fn sharded_config(workers: usize) -> Config {
        Config::builder()
            .workers(workers)
            .mapping(MappingScheme::Partitioned)
            .sharded_dispatch(true)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .preemption(false)
            .build()
            .unwrap()
    }

    #[test]
    fn periodic_task_fires_repeatedly() {
        let mut b = TaskSetBuilder::new();
        let t = b.task_decl(TaskSpec::periodic("tick", ms(5))).unwrap();
        let v = b
            .version_decl(t, VersionSpec::new("v", Duration::from_micros(100)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let count = Arc::new(AtomicU32::new(0));
        let c2 = Arc::clone(&count);
        let rt = RuntimeBuilder::new(ts, config(1))
            .body(t, v, move |_| {
                c2.fetch_add(1, Ordering::SeqCst);
            })
            .build()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(60));
        rt.stop();
        let report = rt.cleanup();
        let n = count.load(Ordering::SeqCst);
        // 60ms / 5ms = 12 expected; tolerate scheduling slack.
        assert!(n >= 6, "only {n} activations");
        assert_eq!(report.records.len() as u32, n);
        assert_eq!(report.engine_stats.completed as u32, n);
    }

    #[test]
    fn preemptive_config_rejected() {
        let mut b = TaskSetBuilder::new();
        let t = b.task_decl(TaskSpec::periodic("t", ms(5))).unwrap();
        let v = b
            .version_decl(t, VersionSpec::new("v", Duration::from_micros(10)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let cfg = Config::builder().workers(1).build().unwrap(); // preemption on
        let r = RuntimeBuilder::new(ts, cfg).body(t, v, |_| {}).build();
        assert!(matches!(r, Err(Error::InvalidConfig(_))));
    }

    #[test]
    fn missing_body_rejected() {
        let mut b = TaskSetBuilder::new();
        let t = b.task_decl(TaskSpec::periodic("t", ms(5))).unwrap();
        b.version_decl(t, VersionSpec::new("v", Duration::from_micros(10)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let r = RuntimeBuilder::new(ts, config(1)).build();
        assert!(matches!(r, Err(Error::InvalidConfig(_))));
    }

    #[test]
    fn dag_data_flows_through_spsc() {
        // fork -> join with a real typed channel captured in the bodies.
        let mut b = TaskSetBuilder::new();
        let fork = b.task_decl(TaskSpec::periodic("fork", ms(5))).unwrap();
        let join = b.task_decl(TaskSpec::graph_node("join")).unwrap();
        let vf = b
            .version_decl(fork, VersionSpec::new("f", Duration::from_micros(50)))
            .unwrap();
        let vj = b
            .version_decl(join, VersionSpec::new("j", Duration::from_micros(50)))
            .unwrap();
        let ch = b.channel_decl("c", 8, 8);
        b.channel_connect(fork, join, ch).unwrap();
        let ts = Arc::new(b.build().unwrap());

        let (tx, rx) = yasmin_sync::spsc::channel::<u64>(8);
        let tx = std::sync::Mutex::new(tx);
        let rx = std::sync::Mutex::new(rx);
        let sum = Arc::new(AtomicU32::new(0));
        let sum2 = Arc::clone(&sum);

        let rt = RuntimeBuilder::new(ts, config(2))
            .body(fork, vf, move |ctx| {
                let _ = tx.lock().unwrap().push(ctx.job.seq);
            })
            .body(join, vj, move |_| {
                if let Some(v) = rx.lock().unwrap().pop() {
                    sum2.fetch_add(v as u32 + 1, Ordering::SeqCst);
                }
            })
            .build()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(40));
        rt.stop();
        let report = rt.cleanup();
        assert!(sum.load(Ordering::SeqCst) > 0, "join never saw data");
        // Join jobs inherit the graph deadline and release.
        let join_rec = report
            .records
            .iter()
            .find(|r| r.job.task == join)
            .expect("join ran");
        assert!(join_rec.job.graph_release <= join_rec.job.release);
    }

    #[test]
    fn aperiodic_activation_runs_once() {
        let mut b = TaskSetBuilder::new();
        let p = b.task_decl(TaskSpec::periodic("p", ms(5))).unwrap();
        let a = b.task_decl(TaskSpec::aperiodic("a")).unwrap();
        let vp = b
            .version_decl(p, VersionSpec::new("v", Duration::from_micros(10)))
            .unwrap();
        let va = b
            .version_decl(a, VersionSpec::new("v", Duration::from_micros(10)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let hits = Arc::new(AtomicU32::new(0));
        let h2 = Arc::clone(&hits);
        let rt = RuntimeBuilder::new(ts, config(2))
            .body(p, vp, |_| {})
            .body(a, va, move |_| {
                h2.fetch_add(1, Ordering::SeqCst);
            })
            .build()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        rt.activate(a).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        rt.stop();
        let _ = rt.cleanup();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn tenant_admission_on_the_single_owner_runtime() {
        let mut b = TaskSetBuilder::new();
        let base = b.task_decl(TaskSpec::periodic("base", ms(5))).unwrap();
        let vb = b
            .version_decl(base, VersionSpec::new("v", Duration::from_micros(50)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let rt = RuntimeBuilder::new(ts, config(1))
            .body(base, vb, |_| {})
            .build()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(15));

        // Candidate in its own id space: one periodic task.
        let mut c = TaskSetBuilder::new();
        let t = c.task_decl(TaskSpec::periodic("tenant", ms(10))).unwrap();
        let v = c
            .version_decl(t, VersionSpec::new("v", Duration::from_micros(50)))
            .unwrap();
        let cand = c.build().unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        let mut bodies: HashMap<(TaskId, VersionId), TaskBody> = HashMap::new();
        bodies.insert(
            (t, v),
            Arc::new(move |_: &JobCtx| {
                h.fetch_add(1, Ordering::SeqCst);
            }),
        );
        let tenant = rt.admit(&cand, bodies, None).unwrap();
        assert_eq!(tenant.raw(), 1);
        std::thread::sleep(std::time::Duration::from_millis(35));
        let ran = hits.load(Ordering::SeqCst);
        assert!(ran >= 2, "admitted tenant only ran {ran} jobs");
        rt.retire(tenant).unwrap();
        assert!(matches!(rt.retire(tenant), Err(Error::TenantRetired(_))));
        std::thread::sleep(std::time::Duration::from_millis(25));
        let after = hits.load(Ordering::SeqCst);
        assert!(after <= ran + 1, "tenant kept running after retirement");
        rt.stop();
        let report = rt.cleanup();
        // The tenant's task is the merged suffix id T1; none of its jobs
        // missed a deadline.
        for r in report
            .records
            .iter()
            .filter(|r| r.job.task == TaskId::new(1))
        {
            assert!(!r.missed());
        }
    }

    #[test]
    fn oversubscribed_tenant_is_rejected() {
        let mut b = TaskSetBuilder::new();
        let base = b.task_decl(TaskSpec::periodic("base", ms(5))).unwrap();
        let vb = b.version_decl(base, VersionSpec::new("v", ms(3))).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let rt = RuntimeBuilder::new(ts, config(1))
            .body(base, vb, |_| {})
            .build()
            .unwrap();
        // Base already uses 3/5 of the single worker; 3ms/5ms more
        // pushes utilisation to 1.2.
        let mut c = TaskSetBuilder::new();
        let t = c.task_decl(TaskSpec::periodic("greedy", ms(5))).unwrap();
        let v = c.version_decl(t, VersionSpec::new("v", ms(3))).unwrap();
        let cand = c.build().unwrap();
        let mut bodies: HashMap<(TaskId, VersionId), TaskBody> = HashMap::new();
        bodies.insert((t, v), Arc::new(|_: &JobCtx| {}));
        assert!(matches!(
            rt.admit(&cand, bodies, None),
            Err(AdmissionError::Rejected(_))
        ));
        rt.stop();
        let _ = rt.cleanup();
    }

    #[test]
    fn latency_is_sane() {
        // Wake-up latency on this host should be far below one period.
        let mut b = TaskSetBuilder::new();
        let t = b.task_decl(TaskSpec::periodic("t", ms(10))).unwrap();
        let v = b
            .version_decl(t, VersionSpec::new("v", Duration::from_micros(20)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let rt = RuntimeBuilder::new(ts, config(1))
            .body(t, v, |_| {})
            .build()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(80));
        rt.stop();
        let report = rt.cleanup();
        assert!(report.records.len() >= 3);
        for r in &report.records {
            assert!(
                r.start_latency() < ms(10),
                "latency {} exceeds the period",
                r.start_latency()
            );
            assert!(!r.missed(), "missed deadline in an idle host run");
        }
    }

    #[test]
    fn per_shard_periodic_tasks_fire_on_both_workers() {
        let mut b = TaskSetBuilder::new();
        let mut ids = Vec::new();
        for w in 0..2u16 {
            let t = b
                .task_decl(TaskSpec::periodic(format!("t{w}"), ms(5)).on_worker(WorkerId::new(w)))
                .unwrap();
            let v = b
                .version_decl(t, VersionSpec::new("v", Duration::from_micros(100)))
                .unwrap();
            ids.push((t, v));
        }
        let ts = Arc::new(b.build().unwrap());
        let counts: Vec<Arc<AtomicU32>> = (0..2).map(|_| Arc::new(AtomicU32::new(0))).collect();
        let mut builder = RuntimeBuilder::new(ts, sharded_config(2));
        for (w, (t, v)) in ids.iter().enumerate() {
            let c = Arc::clone(&counts[w]);
            builder = builder.body(*t, *v, move |_| {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        let rt = builder.build().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(60));
        rt.stop();
        let report = rt.cleanup();
        for (w, c) in counts.iter().enumerate() {
            let n = c.load(Ordering::SeqCst);
            assert!(n >= 4, "worker {w} only ran {n} jobs");
        }
        assert_eq!(
            report.records.len() as u32,
            counts.iter().map(|c| c.load(Ordering::SeqCst)).sum::<u32>()
        );
        assert_eq!(report.engine_stats.completed, report.records.len() as u64);
        // Every record names the worker its task was pinned to.
        for r in &report.records {
            assert_eq!(
                r.worker.index(),
                r.job.task.index(),
                "task w pinned to worker w"
            );
        }
    }

    #[test]
    fn activation_routes_to_the_owning_shard() {
        let mut b = TaskSetBuilder::new();
        let p = b
            .task_decl(TaskSpec::periodic("p", ms(5)).on_worker(WorkerId::new(0)))
            .unwrap();
        let vp = b
            .version_decl(p, VersionSpec::new("v", Duration::from_micros(10)))
            .unwrap();
        let a = b
            .task_decl(TaskSpec::aperiodic("a").on_worker(WorkerId::new(1)))
            .unwrap();
        let va = b
            .version_decl(a, VersionSpec::new("v", Duration::from_micros(10)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let hits = Arc::new(AtomicU32::new(0));
        let h2 = Arc::clone(&hits);
        let on = Arc::new(AtomicU32::new(u32::MAX));
        let on2 = Arc::clone(&on);
        let rt = RuntimeBuilder::new(ts, sharded_config(2))
            .body(p, vp, |_| {})
            .body(a, va, move |ctx| {
                h2.fetch_add(1, Ordering::SeqCst);
                on2.store(u32::from(ctx.worker.raw()), Ordering::SeqCst);
            })
            .build()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        rt.activate(a).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(25));
        rt.stop();
        let _ = rt.cleanup();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(on.load(Ordering::SeqCst), 1, "ran on its assigned worker");
    }

    #[test]
    fn preemptive_or_unsharded_config_rejected() {
        let mut b = TaskSetBuilder::new();
        let t = b
            .task_decl(TaskSpec::periodic("t", ms(5)).on_worker(WorkerId::new(0)))
            .unwrap();
        let v = b
            .version_decl(t, VersionSpec::new("v", Duration::from_micros(10)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let preemptive = Config::builder()
            .workers(1)
            .mapping(MappingScheme::Partitioned)
            .sharded_dispatch(true)
            .build()
            .unwrap();
        assert!(RuntimeBuilder::new(Arc::clone(&ts), preemptive)
            .body(t, v, |_| {})
            .build()
            .is_err());
        let unsharded = Config::builder()
            .workers(1)
            .mapping(MappingScheme::Partitioned)
            .preemption(false)
            .build()
            .unwrap();
        // Without sharded dispatch the same partitioned config selects
        // a single group of all workers, which builds and runs the task
        // on its assigned worker.
        let rt = RuntimeBuilder::new(ts, unsharded)
            .body(t, v, |_| {})
            .build()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        rt.stop();
        let report = rt.cleanup();
        assert!(!report.records.is_empty());
        assert!(report.records.iter().all(|r| r.worker == WorkerId::new(0)));
    }

    #[test]
    fn cross_shard_dag_fires_on_the_owning_worker() {
        // src (periodic, worker 0) -> dst (graph node, worker 1): the
        // successor must run on worker 1, fed by CrossActivate commands
        // routed through the peer lanes.
        let mut b = TaskSetBuilder::new();
        let src = b
            .task_decl(TaskSpec::periodic("src", ms(5)).on_worker(WorkerId::new(0)))
            .unwrap();
        let vs = b
            .version_decl(src, VersionSpec::new("s", Duration::from_micros(50)))
            .unwrap();
        let dst = b
            .task_decl(TaskSpec::graph_node("dst").on_worker(WorkerId::new(1)))
            .unwrap();
        let vd = b
            .version_decl(dst, VersionSpec::new("d", Duration::from_micros(50)))
            .unwrap();
        let c = b.channel_decl("c", 1, 8);
        b.channel_connect(src, dst, c).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let dst_hits = Arc::new(AtomicU32::new(0));
        let dh = Arc::clone(&dst_hits);
        let dst_worker = Arc::new(AtomicU32::new(u32::MAX));
        let dw = Arc::clone(&dst_worker);
        let rt = RuntimeBuilder::new(ts, sharded_config(2))
            .body(src, vs, |_| {})
            .body(dst, vd, move |ctx| {
                dh.fetch_add(1, Ordering::SeqCst);
                dw.store(u32::from(ctx.worker.raw()), Ordering::SeqCst);
            })
            .build()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(60));
        rt.stop();
        let report = rt.cleanup();
        let hits = dst_hits.load(Ordering::SeqCst);
        assert!(hits >= 4, "successor fired only {hits} times");
        assert_eq!(
            dst_worker.load(Ordering::SeqCst),
            1,
            "successor runs on its assigned worker"
        );
        assert!(
            report.engine_stats.cross_activations >= u64::from(hits),
            "every firing crossed shards"
        );
        // Every dst record names worker 1.
        for r in report.records.iter().filter(|r| r.job.task == dst) {
            assert_eq!(r.worker, WorkerId::new(1));
        }
    }

    #[test]
    fn work_stealing_drains_an_imbalanced_shard() {
        // Worker 0 owns a burst of aperiodic jobs; worker 1 owns only a
        // light periodic tick source. With stealing enabled, worker 1
        // must pull jobs over and every activation must complete.
        const BURST: usize = 6;
        let mut b = TaskSetBuilder::new();
        let light = b
            .task_decl(TaskSpec::periodic("light", ms(5)).on_worker(WorkerId::new(1)))
            .unwrap();
        let vl = b
            .version_decl(light, VersionSpec::new("v", Duration::from_micros(10)))
            .unwrap();
        let mut heavy = Vec::new();
        for i in 0..BURST {
            let t = b
                .task_decl(TaskSpec::aperiodic(format!("h{i}")).on_worker(WorkerId::new(0)))
                .unwrap();
            let v = b.version_decl(t, VersionSpec::new("v", ms(4))).unwrap();
            heavy.push((t, v));
        }
        let ts = Arc::new(b.build().unwrap());
        let taskset = Arc::clone(&ts);
        let ran = Arc::new(AtomicU32::new(0));
        let mut builder = RuntimeBuilder::new(ts, sharded_config(2))
            .work_stealing(true)
            .body(light, vl, |_| {});
        for &(t, v) in &heavy {
            let r = Arc::clone(&ran);
            builder = builder.body(t, v, move |_| {
                r.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(3));
            });
        }
        let rt = builder.build().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        for &(t, _) in &heavy {
            rt.activate(t).unwrap();
        }
        // 6 jobs x 3ms on one worker would take ~18ms; give the pair
        // plenty of slack, then drain.
        std::thread::sleep(std::time::Duration::from_millis(60));
        rt.stop();
        let report = rt.cleanup();
        assert_eq!(
            ran.load(Ordering::SeqCst) as usize,
            BURST,
            "every activated job ran"
        );
        assert!(
            report.engine_stats.stolen >= 1,
            "the idle shard must steal from the loaded one (stats: {:?})",
            report.engine_stats
        );
        assert_eq!(report.engine_stats.stolen, report.engine_stats.donated);
        // Every migration rides a batch grant (a single steal is a
        // batch of one), and the batch-length histogram books exactly
        // one entry per exchange.
        assert!(report.engine_stats.stolen_batch >= 1);
        assert!(report.engine_stats.stolen_batch <= report.engine_stats.stolen);
        assert_eq!(
            report.engine_stats.steal_batch_len.iter().sum::<u64>(),
            report.engine_stats.stolen_batch
        );
        // Stolen jobs are recorded under the worker that actually ran
        // them: exactly `stolen` records name a worker other than the
        // task's assigned one (stealing may also move worker 1's light
        // jobs the other way while it serves stolen heavy work).
        let migrated = report
            .records
            .iter()
            .filter(|r| {
                taskset.tasks()[r.job.task.index()].spec().assigned_worker() != Some(r.worker)
            })
            .count();
        assert_eq!(migrated as u64, report.engine_stats.stolen);
        assert!(
            report.records.iter().any(
                |r| r.worker == WorkerId::new(1) && heavy.iter().any(|&(t, _)| t == r.job.task)
            ),
            "at least one heavy job ran on the idle worker"
        );
    }

    #[test]
    fn batch_steal_grants_multiple_jobs_in_one_exchange() {
        // A heavy burst parked on shard 0's queue while shard 1 idles:
        // the thief's probe sees a wide load gap, asks for k > 1, and a
        // single `StolenBatch` grant migrates several jobs at once. The
        // CI TSan step runs this whole exchange under ThreadSanitizer —
        // the hint scan, the k-job detach and the one-ack adoption are
        // raced against the victim's own dispatching, not just the
        // single-steal protocol of the test above.
        const BURST: usize = 12;
        let mut b = TaskSetBuilder::new();
        let light = b
            .task_decl(TaskSpec::periodic("light", ms(5)).on_worker(WorkerId::new(1)))
            .unwrap();
        let vl = b
            .version_decl(light, VersionSpec::new("v", Duration::from_micros(10)))
            .unwrap();
        let mut heavy = Vec::new();
        for i in 0..BURST {
            let t = b
                .task_decl(TaskSpec::aperiodic(format!("h{i}")).on_worker(WorkerId::new(0)))
                .unwrap();
            let v = b.version_decl(t, VersionSpec::new("v", ms(4))).unwrap();
            heavy.push((t, v));
        }
        let ts = Arc::new(b.build().unwrap());
        let ran = Arc::new(AtomicU32::new(0));
        let mut builder = RuntimeBuilder::new(ts, sharded_config(2))
            .work_stealing(true)
            .body(light, vl, |_| {});
        for &(t, v) in &heavy {
            let r = Arc::clone(&ran);
            builder = builder.body(t, v, move |_| {
                r.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(3));
            });
        }
        let rt = builder.build().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        for &(t, _) in &heavy {
            rt.activate(t).unwrap();
        }
        // 12 jobs x 3ms on one worker would take ~36ms; give the pair
        // plenty of slack, then drain.
        std::thread::sleep(std::time::Duration::from_millis(120));
        rt.stop();
        let report = rt.cleanup();
        assert_eq!(
            ran.load(Ordering::SeqCst) as usize,
            BURST,
            "every activated job ran"
        );
        assert!(
            report.engine_stats.stolen_batch >= 1,
            "the idle shard must steal (stats: {:?})",
            report.engine_stats
        );
        assert!(
            report.engine_stats.steal_batch_len[1..].iter().sum::<u64>() >= 1,
            "a 12-deep queue against an idle thief must grant more than \
             one job in some exchange (histogram {:?})",
            report.engine_stats.steal_batch_len
        );
        assert_eq!(report.engine_stats.stolen, report.engine_stats.donated);
        assert_eq!(
            report.engine_stats.steal_batch_len.iter().sum::<u64>(),
            report.engine_stats.stolen_batch
        );
    }

    #[test]
    fn cross_shard_high_lane_boosts_the_receiver() {
        // src (worker 0) streams typed messages to dst (worker 1) over
        // the channel bound to their DAG edge; every third message rides
        // the high lane. The notify hook runs on worker 0's thread, the
        // post crosses shard 0's message lane and a peer lane to shard 1
        // — the thread crossings this smoke test exists to put under
        // TSan. dst outlasts the src period, so a high post always finds
        // a live dst job to boost.
        use yasmin_core::priority::Priority;
        let mut b = TaskSetBuilder::new();
        let src = b
            .task_decl(TaskSpec::periodic("src", ms(5)).on_worker(WorkerId::new(0)))
            .unwrap();
        let vs = b
            .version_decl(src, VersionSpec::new("s", Duration::from_micros(50)))
            .unwrap();
        let dst = b
            .task_decl(TaskSpec::graph_node("dst").on_worker(WorkerId::new(1)))
            .unwrap();
        let vd = b.version_decl(dst, VersionSpec::new("d", ms(8))).unwrap();
        let c = b.channel_decl_prioritized("data", 64, 8, 16, Priority::HIGHEST);
        b.channel_connect(src, dst, c).unwrap();
        let ts = Arc::new(b.build().unwrap());

        let mut builder = RuntimeBuilder::new(ts, sharded_config(2));
        let (tx, rx) = builder.channel::<u64>(c).unwrap();
        let sent = Arc::new(AtomicU32::new(0));
        let got = Arc::new(AtomicU32::new(0));
        let s = Arc::clone(&sent);
        let g = Arc::clone(&got);
        let rt = builder
            .body(src, vs, move |_| {
                let n = s.fetch_add(1, Ordering::SeqCst);
                let _ = if n.is_multiple_of(3) {
                    tx.send_high(u64::from(n))
                } else {
                    tx.send(u64::from(n))
                };
            })
            .body(dst, vd, move |_| {
                while rx.recv().is_some() {
                    g.fetch_add(1, Ordering::SeqCst);
                }
                std::thread::sleep(std::time::Duration::from_millis(8));
            })
            .build()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(80));
        rt.stop();
        let report = rt.cleanup();
        assert!(sent.load(Ordering::SeqCst) >= 8);
        assert!(got.load(Ordering::SeqCst) >= 1, "messages delivered");
        assert!(
            report.engine_stats.msg_boosts >= 1,
            "a high post while dst is pending must boost it (stats: {:?})",
            report.engine_stats
        );
    }

    /// A candidate tenant in its own id space: one periodic task on
    /// `worker` with the given period/WCET, plus its body map.
    fn candidate(
        period_ms: u64,
        wcet: Duration,
        worker: u16,
        counter: &Arc<AtomicU32>,
    ) -> (TaskSet, HashMap<(TaskId, VersionId), TaskBody>) {
        let mut b = TaskSetBuilder::new();
        let t = b
            .task_decl(TaskSpec::periodic("tenant", ms(period_ms)).on_worker(WorkerId::new(worker)))
            .unwrap();
        let v = b.version_decl(t, VersionSpec::new("v", wcet)).unwrap();
        let c = Arc::clone(counter);
        let mut bodies: HashMap<(TaskId, VersionId), TaskBody> = HashMap::new();
        bodies.insert(
            (t, v),
            Arc::new(move |_: &JobCtx| {
                c.fetch_add(1, Ordering::SeqCst);
            }),
        );
        (b.build().unwrap(), bodies)
    }

    #[test]
    fn tenant_admitted_into_running_schedule_executes_and_retires() {
        let mut b = TaskSetBuilder::new();
        let base = b
            .task_decl(TaskSpec::periodic("base", ms(5)).on_worker(WorkerId::new(0)))
            .unwrap();
        let vb = b
            .version_decl(base, VersionSpec::new("v", Duration::from_micros(50)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let base_count = Arc::new(AtomicU32::new(0));
        let bc = Arc::clone(&base_count);
        let rt = RuntimeBuilder::new(ts, sharded_config(2))
            .body(base, vb, move |_| {
                bc.fetch_add(1, Ordering::SeqCst);
            })
            .build()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));

        let tenant_count = Arc::new(AtomicU32::new(0));
        let (cand, bodies) = candidate(5, Duration::from_micros(50), 1, &tenant_count);
        let tenant = rt
            .admit(&cand, bodies, Some(TenantBudget::deferrable(ms(2), ms(5))))
            .unwrap();
        assert_eq!(tenant.raw(), 1);

        std::thread::sleep(std::time::Duration::from_millis(40));
        let before_retire = tenant_count.load(Ordering::SeqCst);
        assert!(before_retire >= 4, "tenant only ran {before_retire} jobs");
        rt.retire(tenant).unwrap();
        assert!(
            matches!(rt.retire(tenant), Err(Error::TenantRetired(_))),
            "double retire must be refused"
        );
        std::thread::sleep(std::time::Duration::from_millis(30));
        let after = tenant_count.load(Ordering::SeqCst);
        // At most the in-flight job finishes after the retire.
        assert!(
            after <= before_retire + 1,
            "tenant kept running after retirement ({before_retire} -> {after})"
        );
        rt.stop();
        let report = rt.cleanup();

        // The tenant's task occupies the merged suffix: base set has one
        // task, so the tenant's task is T1, pinned to worker 1.
        let merged_id = TaskId::new(1);
        let tenant_recs: Vec<_> = report
            .records
            .iter()
            .filter(|r| r.job.task == merged_id)
            .collect();
        assert_eq!(tenant_recs.len() as u32, after);
        for r in &tenant_recs {
            assert!(!r.missed(), "admitted tenant missed a deadline");
            assert_eq!(r.worker, WorkerId::new(1));
        }
        // The build-time tenant ran throughout.
        assert!(base_count.load(Ordering::SeqCst) >= 10);
    }

    #[test]
    fn overloaded_tenant_is_rejected_with_the_violated_bound() {
        use yasmin_sched::BoundViolation;
        let mut b = TaskSetBuilder::new();
        let base = b
            .task_decl(TaskSpec::periodic("base", ms(5)).on_worker(WorkerId::new(0)))
            .unwrap();
        let vb = b
            .version_decl(base, VersionSpec::new("v", Duration::from_micros(50)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let rt = RuntimeBuilder::new(ts, sharded_config(2))
            .body(base, vb, |_| {})
            .build()
            .unwrap();

        // 12ms of work every 10ms on worker 1: density 1.2 > 1.
        let noop = Arc::new(AtomicU32::new(0));
        let (cand, bodies) = candidate(10, ms(12), 1, &noop);
        match rt.admit(&cand, bodies, None) {
            Err(AdmissionError::Rejected(BoundViolation::WorkerOverload { worker, density })) => {
                assert_eq!(worker, WorkerId::new(1));
                assert!(density > 1.0);
            }
            other => panic!("expected worker-overload rejection, got {other:?}"),
        }
        // A missing body is caught before any shard hears of the tenant.
        let (cand, _) = candidate(10, ms(1), 1, &noop);
        assert!(matches!(
            rt.admit(&cand, HashMap::new(), None),
            Err(AdmissionError::Invalid(_))
        ));
        rt.stop();
        let report = rt.cleanup();
        assert_eq!(noop.load(Ordering::SeqCst), 0, "rejected tenant never ran");
        assert!(report.records.iter().all(|r| r.job.task == base));
    }

    #[test]
    fn latency_is_sane_per_shard() {
        let mut b = TaskSetBuilder::new();
        let t = b
            .task_decl(TaskSpec::periodic("t", ms(10)).on_worker(WorkerId::new(0)))
            .unwrap();
        let v = b
            .version_decl(t, VersionSpec::new("v", Duration::from_micros(20)))
            .unwrap();
        let ts = Arc::new(b.build().unwrap());
        let rt = RuntimeBuilder::new(ts, sharded_config(1))
            .body(t, v, |_| {})
            .build()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(80));
        rt.stop();
        let report = rt.cleanup();
        assert!(report.records.len() >= 3);
        for r in &report.records {
            assert!(
                r.start_latency() < ms(10),
                "latency {} exceeds the period",
                r.start_latency()
            );
            assert!(!r.missed(), "missed deadline in an idle host run");
        }
    }

    #[test]
    fn every_layout_keeps_the_schedule_invariants() {
        // One small set — a periodic task, a two-node DAG joined by a
        // channel, and one aperiodic task activated once — run under
        // each group layout the Config selects, checked against the
        // same invariants. `partitioned` marks the layouts whose
        // records must stay on their task's worker unless stolen.
        let unsharded = Config::builder()
            .workers(2)
            .mapping(MappingScheme::Partitioned)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .preemption(false)
            .build()
            .unwrap();
        let layouts = [
            ("global EDF, 1 worker", config(1), false, false),
            ("global EDF, 2 workers", config(2), false, false),
            ("partitioned, 2 workers", unsharded, true, false),
            (
                "sharded, 2 workers, stealing",
                sharded_config(2),
                true,
                true,
            ),
        ];
        let hits = Arc::new(AtomicU32::new(0));
        for (name, cfg, partitioned, stealing) in layouts {
            let workers = cfg.workers();
            let on = |w: usize| WorkerId::new((w % workers) as u16);
            let mut b = TaskSetBuilder::new();
            let periodic = b
                .task_decl(TaskSpec::periodic("periodic", ms(5)).on_worker(on(0)))
                .unwrap();
            let src = b
                .task_decl(TaskSpec::periodic("src", ms(5)).on_worker(on(0)))
                .unwrap();
            let dst = b
                .task_decl(TaskSpec::graph_node("dst").on_worker(on(1)))
                .unwrap();
            let c = b.channel_decl("c", 4, 8);
            b.channel_connect(src, dst, c).unwrap();
            let aperiodic = b
                .task_decl(TaskSpec::aperiodic("aperiodic").on_worker(on(1)))
                .unwrap();
            let tasks = [periodic, src, dst, aperiodic];
            for t in tasks {
                b.version_decl(t, VersionSpec::new("v", Duration::from_micros(100)))
                    .unwrap();
            }
            let mut builder = RuntimeBuilder::new(Arc::new(b.build().unwrap()), cfg);
            for t in tasks {
                builder = builder.body(t, VersionId::new(0), |_| {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                });
            }
            let taskset = Arc::clone(&builder.taskset);
            let rt = builder.work_stealing(stealing).build().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(10));
            rt.activate(aperiodic).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(30));
            rt.stop();
            // A stopped schedule refuses admissions on the caller's
            // thread instead of splicing a tenant that never starts.
            let (late, bodies) = candidate(5, Duration::from_micros(10), on(0).raw(), &hits);
            assert!(
                matches!(
                    rt.admit(&late, bodies, None),
                    Err(AdmissionError::Invalid(Error::ScheduleNotRunning))
                ),
                "{name}: admission after stop()"
            );
            let report = rt.cleanup();
            let s = &report.engine_stats;
            assert_eq!(hits.load(Ordering::SeqCst), 0, "{name}: refused tenant ran");

            assert_eq!(
                s.released,
                s.completed + s.failed + s.culled,
                "{name}: every released job retires exactly once ({s:?})"
            );
            let done = |t: TaskId| report.records.iter().filter(|r| r.job.task == t).count();
            assert_eq!(done(aperiodic), 1, "{name}: one activation, one job");
            assert!(done(periodic) >= 2, "{name}: the periodic task ran");
            assert!(
                done(dst) <= done(src),
                "{name}: the DAG successor completed more jobs than its predecessor"
            );
            let mut migrated = 0u64;
            for r in &report.records {
                assert!(
                    r.started >= r.job.release,
                    "{name}: {:?} started before its release",
                    r.job
                );
                assert!(r.worker.index() < workers, "{name}: worker out of range");
                let home = taskset.tasks()[r.job.task.index()].spec().assigned_worker();
                migrated += u64::from(home != Some(r.worker));
            }
            if partitioned {
                assert_eq!(
                    migrated, s.stolen,
                    "{name}: only stolen jobs leave their partition"
                );
            }
        }
    }
}
