//! Multi-threaded partitioned simulation drivers.
//!
//! Both drivers run one engine shard per worker — each owning the
//! independent per-worker scheduler state of
//! [`yasmin_sched::EngineShard`] — on the one event core of
//! [`crate::Simulation`], while **N producer threads** feed sporadic
//! activations through the lock-free command mailbox
//! (`yasmin_sync::mailbox`, one SPSC lane per producer per shard). This
//! exercises the exact concurrency topology of the sharded real-time
//! runtime: multiple producers racing into a mailbox drained by a single
//! shard owner. The input picks the driver (see
//! [`run_partitioned_parallel`]):
//!
//! * sets with no cross-shard DAG edges, run without
//!   [`ParSimOptions::steal`], run **free**: one simulation thread per
//!   shard, each a one-engine `Simulation` draining its own mailbox.
//!   Shards share no mutable state, so they advance in parallel.
//! * sets with **cross-shard DAG edges**, and stealing runs, run the
//!   deterministic **protocol loop**: one `Simulation` drives all N
//!   engine shards from one event queue, turns every
//!   [`ShardCmd::CrossActivate`] token an engine emits into an event
//!   for the destination engine, and (when stealing) runs a steal pass
//!   at every event boundary. Routed activations and steal hand-offs
//!   thus land at exact event boundaries — zero-lookahead cross-shard
//!   traffic would serialise a free-running conservative merge behind
//!   null messages anyway, and schedule validation needs reproducible
//!   traces. Producer threads still race into the mailboxes.
//!
//! ## Determinism
//!
//! The result is **bit-identical to the single-owner
//! [`crate::Simulation`]** for the same partitioned task set (modulo
//! shard-stamped job ids), no matter how the OS schedules the threads:
//!
//! * free-running shards share no mutable state, so cross-shard thread
//!   timing cannot matter;
//! * each producer sends its commands in non-decreasing simulated time,
//!   so a lane's head is the lane's minimum;
//! * a shard's feed yields a command only once every still-open lane
//!   has revealed its next command (the *watermark*); commands and
//!   local events merge in simulated-time order — external commands win
//!   ties, and across feeds the lower engine index wins;
//! * randomised execution-time and kernel models sample in dispatch
//!   order, which is a global order the shards don't share: exact trace
//!   equality therefore holds for the deterministic models
//!   ([`crate::ExecModel::Wcet`], no kernel model). Each shard seeds its
//!   samplers from `seed ^ worker·0x9E37_79B9_7F4A_7C15` in both
//!   drivers, so randomised runs are still per-shard deterministic.
//!
//! Two tie classes bound the equality claim. First, when a **sporadic
//! activation coincides exactly** with another event of the same shard
//! (e.g. its offset lands on the tick grid), the single-owner simulator
//! breaks the tie by event *insertion order* — a history-dependent
//! global sequence the mailbox merge cannot observe — while the feeds
//! apply their own fixed rule (external command first). Second, under
//! the protocol loop, when a **cross-shard successor's release
//! coincides exactly** with another event of the destination shard
//! (e.g. two workers' finishes land on the same instant): the
//! single-owner engine retires the whole same-timestamp batch in one
//! call before one dispatch round, while the protocol loop's one queue
//! holds one finish per engine, retires them in insertion order with a
//! dispatch round each, and queues the routed token behind every event
//! already queued for that instant. Both drivers remain individually
//! deterministic in every case, but their traces may differ at a tied
//! instant. Keep sporadic offsets — and, for cross-shard sets, WCETs —
//! off each other's grid (odd sub-tick values do it) when
//! cross-checking traces; shard-local ties (tick vs completion) are
//! unaffected because each engine's events keep the single-owner
//! insertion order.

use crate::engine::{msg_dst, SimConfig, Simulation};
use crate::trace::SimResult;
use std::sync::Arc;
use yasmin_core::config::Config;
use yasmin_core::error::{Error, Result};
use yasmin_core::graph::TaskSet;
use yasmin_core::ids::TaskId;
use yasmin_core::task::ActivationKind;
use yasmin_core::time::{Duration, Instant};
use yasmin_sched::{EngineShard, ShardCmd};
use yasmin_sync::mailbox::{mailbox, MailboxFull, MailboxReceiver, MailboxSender};
use yasmin_sync::wait::Backoff;

/// Options of the multi-threaded driver.
#[derive(Debug, Clone, Copy)]
pub struct ParSimOptions {
    /// Producer threads feeding activations (≥ 1). Sporadic root tasks
    /// are distributed over producers round-robin by task index.
    pub producers: usize,
    /// Enables work stealing between shards: at every event boundary an
    /// idle shard (no running slice, empty queue) adopts the most
    /// urgent accelerator-free ready job of the most loaded peer.
    /// Stealing (like cross-shard DAG edges) routes the run through the
    /// deterministic protocol loop — see
    /// [`run_partitioned_parallel`].
    pub steal: bool,
    /// Cap on the batch size of one steal exchange (clamped to
    /// [`yasmin_sched::MAX_STEAL_BATCH`]). At the default `1` every
    /// exchange moves a single job over [`ShardCmd::Stolen`] —
    /// bit-identical to the pre-batching protocol. Above `1` an idle
    /// thief takes up to half the victim's ready load in one
    /// [`ShardCmd::StolenBatch`] exchange, sized deterministically from
    /// the victim's queue length at the event boundary.
    pub steal_batch: usize,
}

impl Default for ParSimOptions {
    fn default() -> Self {
        ParSimOptions {
            producers: 4,
            steal: false,
            steal_batch: 1,
        }
    }
}

/// The external command source of one engine: a mailbox receiver whose
/// lanes each deliver commands in non-decreasing time.
#[derive(Debug)]
pub(crate) struct ShardFeed {
    rx: MailboxReceiver<ShardCmd>,
    exhausted: bool,
}

impl ShardFeed {
    pub(crate) fn new(rx: MailboxReceiver<ShardCmd>) -> Self {
        ShardFeed {
            rx,
            exhausted: false,
        }
    }

    /// The effective time of a command, in nanoseconds (timeless
    /// commands act immediately).
    fn time_of(cmd: &ShardCmd) -> u64 {
        cmd.at().map_or(0, Instant::as_nanos)
    }

    /// The earliest pending (time, lane), blocking (bounded spin: every
    /// producer pushes a finite schedule and closes its lane) until
    /// that minimum is *known* — i.e. no lane is simultaneously open
    /// and empty. Ties across lanes break by lane index, so the result
    /// is a pure function of the lane contents. `None` once every lane
    /// is closed and drained.
    fn watermark(&mut self) -> Option<(u64, usize)> {
        if self.exhausted {
            return None;
        }
        let mut backoff = Backoff::new();
        loop {
            let mut min: Option<(u64, usize)> = None;
            let mut must_wait = false;
            for i in 0..self.rx.lane_count() {
                match self.rx.peek_lane(i) {
                    Some(cmd) => {
                        let t = Self::time_of(cmd);
                        if min.is_none_or(|(mt, _)| t < mt) {
                            min = Some((t, i));
                        }
                    }
                    None => {
                        if self.rx.lane_open(i) {
                            must_wait = true;
                        }
                    }
                }
            }
            if must_wait {
                backoff.snooze();
                continue;
            }
            if min.is_none() {
                self.exhausted = true;
            }
            return min;
        }
    }
}

/// Pops the earliest pending command across `feeds` (ties towards the
/// lower feed index) with the index of its feed, if it is due at or
/// before `local` (`None` = no local event pending, pop
/// unconditionally); blocks as [`ShardFeed::watermark`]. Kept out of
/// line so the simulator's per-event loop stays small.
#[inline(never)]
pub(crate) fn pop_due(feeds: &mut [ShardFeed], local: Option<u64>) -> Option<(usize, ShardCmd)> {
    let mut due: Option<(u64, usize, usize)> = None;
    for (f, feed) in feeds.iter_mut().enumerate() {
        if let Some((t, lane)) = feed.watermark() {
            if due.is_none_or(|(dt, ..)| t < dt) {
                due = Some((t, f, lane));
            }
        }
    }
    let (t, f, lane) = due?;
    if local.is_some_and(|lt| t > lt) {
        return None; // the local event comes first
    }
    let cmd = feeds[f]
        .rx
        .pop_lane(lane)
        .expect("peeked lane head present");
    Some((f, cmd))
}

/// The per-producer activation schedule: every sporadic root task is
/// released at its minimum inter-arrival from its offset — the same law
/// the single-threaded simulator applies: the offset release happens
/// whenever `offset <= horizon` (the single-threaded driver arms it
/// unconditionally and its event filter is inclusive), re-releases only
/// while strictly before the horizon — and assigned to producer
/// `task.index() % producers`. Each list is (time, task), time-ordered.
fn producer_schedules(
    taskset: &TaskSet,
    producers: usize,
    horizon: Duration,
) -> Vec<Vec<(Instant, TaskId)>> {
    let end = Instant::ZERO + horizon;
    let mut schedules = vec![Vec::new(); producers];
    for t in taskset.tasks() {
        if t.spec().kind() != ActivationKind::Sporadic || taskset.in_degree(t.id()) != 0 {
            continue;
        }
        let schedule = &mut schedules[t.id().index() % producers];
        let period = t.spec().period();
        let first = Instant::ZERO + t.spec().release_offset();
        if first <= end {
            schedule.push((first, t.id()));
        }
        let mut at = first + period;
        while at < end {
            schedule.push((at, t.id()));
            at += period;
        }
    }
    for s in &mut schedules {
        s.sort_by_key(|&(at, task)| (at, task));
    }
    schedules
}

/// Runs `schedule` into the per-shard senders, retrying full lanes with
/// backoff, then drops the senders (closing this producer's lanes).
fn producer_main(
    schedule: Vec<(Instant, TaskId)>,
    mut senders: Vec<MailboxSender<ShardCmd>>,
    owner: &[usize],
) {
    let mut backoff = Backoff::new();
    for (at, task) in schedule {
        let mut cmd = ShardCmd::Activate { task, at };
        loop {
            match senders[owner[task.index()]].send(cmd) {
                Ok(()) => {
                    backoff.reset();
                    break;
                }
                Err(MailboxFull(v)) => {
                    cmd = v;
                    backoff.snooze();
                }
            }
        }
    }
}

/// Sums per-shard results into the whole-system result. Records are
/// ordered by (completion, task, seq) — a deterministic total order,
/// since each (task, seq) completes exactly once.
fn merge_results(results: Vec<SimResult>, workers: usize) -> SimResult {
    let mut merged = SimResult {
        records: Vec::new(),
        unfinished: 0,
        unfinished_missed: 0,
        engine_stats: yasmin_sched::EngineStats::default(),
        horizon: Instant::ZERO,
        sched_overhead_ns: yasmin_core::stats::Samples::new(),
        worker_busy: vec![Duration::ZERO; workers],
        energy: yasmin_core::energy::Energy::ZERO,
    };
    for r in results {
        merged.records.extend(r.records);
        merged.unfinished += r.unfinished;
        merged.unfinished_missed += r.unfinished_missed;
        merged.engine_stats.merge(&r.engine_stats);
        merged.horizon = r.horizon;
        merged.sched_overhead_ns.merge(&r.sched_overhead_ns);
        for (w, busy) in r.worker_busy.iter().enumerate() {
            merged.worker_busy[w] += *busy;
        }
        merged.energy += r.energy;
    }
    merged
        .records
        .sort_by_key(|r| (r.completion, r.task, r.seq));
    merged
}

/// Per-producer activation schedules plus the per-shard mailboxes they
/// feed, senders regrouped by producer. Shared by both drivers.
struct ProducerFeeds {
    schedules: Vec<Vec<(Instant, TaskId)>>,
    owner: Vec<usize>,
    receivers: Vec<MailboxReceiver<ShardCmd>>,
    by_producer: Vec<Vec<MailboxSender<ShardCmd>>>,
}

fn build_producer_feeds(
    taskset: &TaskSet,
    opts: &ParSimOptions,
    horizon: Duration,
    workers: usize,
) -> ProducerFeeds {
    let schedules = producer_schedules(taskset, opts.producers, horizon);
    // Task -> owning shard, for producer routing.
    let owner: Vec<usize> = taskset
        .tasks()
        .iter()
        .map(|t| {
            t.spec()
                .assigned_worker()
                .expect("validated by build_all")
                .index()
        })
        .collect();

    // A lane must be able to hold its producer's *entire* schedule for
    // that shard: with bounded lanes, a producer blocked pushing into
    // one shard's full lane while another shard spins on that
    // producer's still-open-but-empty lane is a cross-shard deadlock
    // (the watermark wait is conservative). The schedules are
    // precomputed, so exact sizing costs nothing.
    let mut per_lane = vec![vec![0usize; opts.producers]; workers];
    for (p, schedule) in schedules.iter().enumerate() {
        for &(_, task) in schedule {
            per_lane[owner[task.index()]][p] += 1;
        }
    }

    // One mailbox per shard, one lane per producer; re-group the senders
    // by producer so each producer thread owns one sender per shard.
    let mut receivers = Vec::with_capacity(workers);
    let mut by_producer: Vec<Vec<MailboxSender<ShardCmd>>> = (0..opts.producers)
        .map(|_| Vec::with_capacity(workers))
        .collect();
    for lanes in &per_lane {
        // `mailbox` rejects a zero capacity.
        let cap = lanes.iter().copied().max().unwrap_or(0).max(1);
        let (senders, rx) = mailbox::<ShardCmd>(opts.producers, cap);
        receivers.push(rx);
        for (p, tx) in senders.into_iter().enumerate() {
            by_producer[p].push(tx);
        }
    }
    ProducerFeeds {
        schedules,
        owner,
        receivers,
        by_producer,
    }
}

/// `true` when some DAG edge's endpoints live on different workers.
fn has_cross_shard_edges(taskset: &TaskSet) -> bool {
    taskset.edges().iter().any(|e| {
        let w = |t: TaskId| taskset.tasks()[t.index()].spec().assigned_worker();
        w(e.src) != w(e.dst)
    })
}

/// Runs a partitioned task set with one engine shard per worker and
/// [`ParSimOptions::producers`] producer threads feeding sporadic
/// activations through per-shard command mailboxes.
///
/// `config` must opt in via `Config::sharded_dispatch(true)`; the task
/// set must satisfy the sharding contract (accelerators within one
/// worker — see [`yasmin_sched::validate_sharding`]).
///
/// Without cross-shard DAG edges and stealing, each shard runs on its
/// own simulation thread. Task sets whose DAG edges **cross shards**,
/// and runs with [`ParSimOptions::steal`] enabled, are executed by the
/// deterministic *protocol loop* instead: the producer threads still
/// race their activations into the mailbox lanes, but one
/// [`Simulation`] advances every shard engine from one event queue in
/// global simulated-time order, delivering [`ShardCmd::CrossActivate`]
/// tokens and steal hand-offs at exact event boundaries. Cross-shard
/// activation routing has **zero lookahead** (a token sent at time *t*
/// can alter the destination shard's behaviour at that same *t*), so a
/// conservative free-running merge would serialise behind null
/// messages anyway — the protocol loop keeps the run reproducible and
/// bit-comparable to the single-owner reference, which is what
/// schedule validation needs. The protocol loop supports the
/// non-preemptive configurations the sharded real runtime runs,
/// kernel models and mode schedules included.
///
/// # Errors
///
/// Sharding-contract violations, engine construction errors, a shard
/// simulation failing (driver protocol violation), or a preemptive
/// configuration for a cross-shard/stealing run.
///
/// # Panics
///
/// Panics if a shard or producer thread itself panicked.
pub fn run_partitioned_parallel(
    taskset: Arc<TaskSet>,
    config: Config,
    sim: SimConfig,
    opts: ParSimOptions,
) -> Result<SimResult> {
    if opts.producers == 0 {
        return Err(Error::InvalidConfig(
            "the parallel driver needs at least one producer thread".into(),
        ));
    }
    let workers = config.workers();
    let shards = EngineShard::build_all(&taskset, &config)?;
    let protocol_loop = opts.steal || has_cross_shard_edges(&taskset);
    if protocol_loop && config.preemption() {
        return Err(Error::InvalidConfig(
            "cross-shard/stealing simulation is non-preemptive: build the Config \
             with .preemption(false)"
                .into(),
        ));
    }
    let ProducerFeeds {
        schedules,
        owner,
        receivers,
        by_producer,
    } = build_producer_feeds(&taskset, &opts, sim.horizon, workers);
    let feeds = receivers.into_iter().map(ShardFeed::new);

    std::thread::scope(|scope| {
        let owner = &owner;
        let producers: Vec<_> = schedules
            .into_iter()
            .zip(by_producer)
            .map(|(schedule, senders)| {
                std::thread::Builder::new()
                    .name("yasmin-sim-producer".into())
                    .spawn_scoped(scope, move || producer_main(schedule, senders, owner))
                    .expect("spawning producer thread")
            })
            .collect();
        let res = if protocol_loop {
            // One N-engine simulation drives every shard from one queue.
            let engines = shards.into_iter().map(EngineShard::into_inner);
            Simulation::from_engines(engines, sim).and_then(|simulation| {
                let simulation = if opts.steal {
                    simulation.with_stealing(opts.steal_batch)
                } else {
                    simulation
                };
                simulation.run_with_feeds(feeds.collect())
            })
        } else {
            // One one-engine simulation thread per shard.
            let handles: Vec<_> = shards
                .into_iter()
                .zip(feeds)
                .map(|(shard, feed)| {
                    let worker = shard.worker();
                    let mut cfg = sim.clone();
                    // Message events are owned by the receiving task's
                    // shard, exactly like cross-shard activation tokens.
                    cfg.msg_schedule
                        .retain(|(_, ev)| owner[msg_dst(ev).index()] == worker.index());
                    // Fault injections land on the shard owning the
                    // target task.
                    cfg.fault_schedule
                        .retain(|(_, ev)| owner[ev.task().index()] == worker.index());
                    std::thread::Builder::new()
                        .name(format!("yasmin-sim-shard-{worker}"))
                        .spawn_scoped(scope, move || {
                            Simulation::from_engines([shard.into_inner()], cfg)?
                                .run_with_feeds(vec![feed])
                        })
                        .expect("spawning shard simulation thread")
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard simulation thread panicked"))
                .collect::<Result<Vec<_>>>()
                .map(|results| merge_results(results, workers))
        };
        for p in producers {
            p.join().expect("producer thread panicked");
        }
        res
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use yasmin_core::config::MappingScheme;
    use yasmin_core::ids::WorkerId;
    use yasmin_core::priority::PriorityPolicy;
    use yasmin_core::task::TaskSpec;
    use yasmin_core::version::VersionSpec;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn producer_schedules_cover_the_horizon() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        for i in 0..3u16 {
            let t = b
                .task_decl(
                    TaskSpec::sporadic(format!("s{i}"), ms(10))
                        .with_release_offset(ms(1))
                        .on_worker(WorkerId::new(0)),
                )
                .unwrap();
            b.version_decl(t, VersionSpec::new("v", ms(1))).unwrap();
        }
        let ts = b.build().unwrap();
        let schedules = producer_schedules(&ts, 2, ms(50));
        let total: usize = schedules.iter().map(Vec::len).sum();
        // Each task activates at 1, 11, 21, 31, 41 -> 5 each.
        assert_eq!(total, 15);
        // Round-robin: producer 0 gets tasks 0 and 2, producer 1 task 1.
        assert_eq!(schedules[0].len(), 10);
        assert_eq!(schedules[1].len(), 5);
        for s in &schedules {
            assert!(s.windows(2).all(|w| w[0].0 <= w[1].0), "time-ordered");
        }
    }

    #[test]
    fn zero_producers_rejected() {
        let mut b = yasmin_core::graph::TaskSetBuilder::new();
        let t = b
            .task_decl(TaskSpec::periodic("t", ms(10)).on_worker(WorkerId::new(0)))
            .unwrap();
        b.version_decl(t, VersionSpec::new("v", ms(1))).unwrap();
        let ts = Arc::new(b.build().unwrap());
        let cfg = Config::builder()
            .workers(1)
            .mapping(MappingScheme::Partitioned)
            .sharded_dispatch(true)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .build()
            .unwrap();
        let err = run_partitioned_parallel(
            ts,
            cfg,
            SimConfig::uniform(1, ms(50)),
            ParSimOptions {
                producers: 0,
                ..ParSimOptions::default()
            },
        );
        assert!(err.is_err());
    }
}
