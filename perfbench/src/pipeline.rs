//! `pipeline` — the sharded runtime under mixed traffic: 2 shards with
//! work stealing, running a seeded multi-version DAG of the drone-SAR
//! frame-pipeline shape (§5, Fig. 3b) time-scaled from a 500 ms to a
//! 10 ms frame, with cross-shard edges and data passed over the edge
//! channels. Alongside the DAG the main thread sends an open-loop,
//! seeded Poisson stream of aperiodic `activate()` calls, each timed
//! from its due time, and admits and retires a budgeted tenant at fixed
//! instants (admission is the "write" next to the steady "read"
//! traffic). It is the only workload that exercises cross-shard
//! routing, stealing, the SPSC/mailbox lanes, the control lane and
//! admission.
//!
//! The seed jitters every WCET within ±20 % of its scaled Fig. 3b value
//! (DRS with per-task bounds, so the total load is the same for every
//! seed) and draws the activation arrival times.

use crate::outcome::Outcome;
use crate::probe;
use crate::records::{self, Calibration, InstanceFigures};
use crate::stats::{us, Dist};
use crate::trace::Tracer;
use crate::Ctx;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant as WallInstant;
use yasmin_core::config::{Config, MappingScheme};
use yasmin_core::graph::{TaskSet, TaskSetBuilder};
use yasmin_core::ids::{TaskId, VersionId, WorkerId};
use yasmin_core::priority::PriorityPolicy;
use yasmin_core::task::TaskSpec;
use yasmin_core::time::{Duration, Instant};
use yasmin_core::version::{ExecMode, ModeMask, VersionSpec};
use yasmin_rt::{JobCtx, RtJobRecord, ShardedRuntime, ShardedRuntimeBuilder, TaskBody};
use yasmin_sched::admission::AdmissionControl;
use yasmin_sched::msg::{Receiver, Sender};
use yasmin_sched::TenantBudget;
use yasmin_sync::wait::{wait_until, WaitMode};

/// Frame period of the scaled pipeline (the paper's 500 ms ÷ 50).
const FRAME: Duration = Duration::from_millis(10);
/// Flight-control handler period (the paper's 10 ms ÷ 5).
const FC: Duration = Duration::from_millis(2);
/// Mean open-loop activation rate, per second.
const ACTIVATION_RATE: f64 = 250.0;
/// Relative deadline of an activation.
const ALERT_DEADLINE: Duration = Duration::from_millis(2);
/// Admission cycle within an instance: admit at `ADMIT_AT` into each
/// cycle, retire at `RETIRE_AT`.
const CYCLE: std::time::Duration = std::time::Duration::from_millis(2_000);
const ADMIT_AT: std::time::Duration = std::time::Duration::from_millis(500);
const RETIRE_AT: std::time::Duration = std::time::Duration::from_millis(1_500);
/// Length of one runtime instance: one admission cycle.
const INSTANCE: std::time::Duration = CYCLE;
/// Frames and activations before this much of an instance are warm-up.
const WARMUP: std::time::Duration = std::time::Duration::from_millis(250);
/// Two shards, each a scheduler thread and a worker.
pub const RUNTIME_THREADS: usize = 4;

/// One task of the scaled pipeline: name, kind, worker, and its
/// versions as `(name, WCET µs at the Fig. 3b / 50 scale, mode)`.
struct Node {
    name: &'static str,
    kind: Kind,
    worker: u16,
    versions: &'static [(&'static str, u64, Option<ExecMode>)],
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Periodic(Duration),
    Node,
    Aperiodic,
}

const SECURE: ExecMode = ExecMode::new(1);

/// Fig. 3b's frame pipeline plus the FC handler and an alert task. The
/// image tasks keep their GPU and CPU WCETs as two CPU versions (no
/// accelerator: the sharded runtime keeps an accelerator on one
/// shard, which would remove the cross-shard edges); `encode` keeps its
/// mode-gated plain/AES pair. Light tasks share worker 0 with the FC
/// handler, as in the paper's partitioned configuration.
const NODES: [Node; 12] = [
    Node {
        name: "fc",
        kind: Kind::Periodic(FC),
        worker: 0,
        versions: &[("fc", 34, None)],
    },
    Node {
        name: "fetch",
        kind: Kind::Periodic(FRAME),
        worker: 0,
        versions: &[("fetch", 9, None)],
    },
    Node {
        name: "extract",
        kind: Kind::Node,
        worker: 0,
        versions: &[("extract", 34, None)],
    },
    Node {
        name: "augment",
        kind: Kind::Node,
        worker: 0,
        versions: &[("augment", 11, None)],
    },
    Node {
        name: "store",
        kind: Kind::Node,
        worker: 0,
        versions: &[("store", 5, None)],
    },
    Node {
        name: "detect",
        kind: Kind::Node,
        worker: 1,
        versions: &[("detect-gpu", 520, None), ("detect-cpu", 920, None)],
    },
    Node {
        name: "estimate",
        kind: Kind::Node,
        worker: 0,
        versions: &[("estimate-gpu", 432, None), ("estimate-cpu", 896, None)],
    },
    Node {
        name: "highlight",
        kind: Kind::Node,
        worker: 1,
        versions: &[("highlight-gpu", 680, None), ("highlight-cpu", 968, None)],
    },
    Node {
        name: "create",
        kind: Kind::Node,
        worker: 0,
        versions: &[("create", 5, None)],
    },
    Node {
        name: "encode",
        kind: Kind::Node,
        worker: 0,
        versions: &[
            ("encode-plain", 60, Some(ExecMode::NORMAL)),
            ("encode-aes", 400, Some(SECURE)),
        ],
    },
    Node {
        name: "send",
        kind: Kind::Node,
        worker: 0,
        versions: &[("send", 5, None)],
    },
    Node {
        name: "alert",
        kind: Kind::Aperiodic,
        worker: 1,
        versions: &[("alert", 40, None)],
    },
];

/// Frame-pipeline edges, as indices into `NODES`.
const EDGES: [(usize, usize); 10] = [
    (1, 2),
    (2, 3),
    (3, 4),
    (4, 5),
    (5, 6),
    (5, 7),
    (6, 8),
    (7, 8),
    (8, 9),
    (9, 10),
];
const FETCH: usize = 1;
const SEND: usize = 10;
const ALERT: usize = 11;

/// The seeded inputs: one WCET scale factor per node (DRS over the
/// nodes' utilisations, each within ±20 % of nominal, total fixed) and
/// the activation due times (offsets from the start of the run).
pub struct Inputs {
    pub scale: Vec<f64>,
    pub arrivals: Vec<std::time::Duration>,
}

fn nominal_util(n: &Node) -> f64 {
    let period = match n.kind {
        Kind::Periodic(p) => p,
        Kind::Node | Kind::Aperiodic => FRAME,
    };
    n.versions[0].1 as f64 * 1e3 / period.as_nanos() as f64
}

pub fn generate(seed: u64, seconds: std::time::Duration) -> Inputs {
    let nominal: Vec<f64> = NODES.iter().map(nominal_util).collect();
    let lo: Vec<f64> = nominal.iter().map(|u| u * 0.8).collect();
    let hi: Vec<f64> = nominal.iter().map(|u| u * 1.2).collect();
    let utils = yasmin_taskgen::drs_bounded(&lo, &hi, nominal.iter().sum(), seed)
        .expect("bounds bracket the nominal total");
    let scale = utils.iter().zip(&nominal).map(|(u, n)| u / n).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00a1_1e57);
    let mut arrivals = Vec::new();
    let mut t = WARMUP.as_secs_f64();
    loop {
        t += -(1.0 - rng.random_unit()).ln() / ACTIVATION_RATE;
        if t >= seconds.as_secs_f64() {
            break;
        }
        arrivals.push(std::time::Duration::from_secs_f64(t));
    }
    Inputs { scale, arrivals }
}

fn wcet(node: &Node, v: usize, scale: f64) -> Duration {
    Duration::from_nanos(((node.versions[v].1 as f64 * 1e3) * scale).round() as u64)
}

fn build_taskset(inputs: &Inputs) -> TaskSet {
    let mut b = TaskSetBuilder::new();
    let mut ids = Vec::with_capacity(NODES.len());
    for (n, &scale) in NODES.iter().zip(&inputs.scale) {
        let spec = match n.kind {
            Kind::Periodic(p) => TaskSpec::periodic(n.name, p),
            Kind::Node => TaskSpec::graph_node(n.name),
            Kind::Aperiodic => TaskSpec::aperiodic(n.name).with_arbitrary_deadline(ALERT_DEADLINE),
        };
        let t = b
            .task_decl(spec.on_worker(WorkerId::new(n.worker)))
            .expect("valid pipeline task");
        for (vi, &(vname, _, mode)) in n.versions.iter().enumerate() {
            let mut v = VersionSpec::new(vname, wcet(n, vi, scale));
            if let Some(m) = mode {
                v = v.with_modes(ModeMask::only(m));
            }
            b.version_decl(t, v).expect("valid version");
        }
        ids.push(t);
    }
    for (i, &(s, d)) in EDGES.iter().enumerate() {
        let c = b.channel_decl(format!("c{i}"), 4, std::mem::size_of::<Frame>());
        b.channel_connect(ids[s], ids[d], c).expect("valid edge");
    }
    b.build().expect("valid pipeline task set")
}

fn config() -> Config {
    Config::builder()
        .workers(2)
        .mapping(MappingScheme::Partitioned)
        .sharded_dispatch(true)
        .priority(PriorityPolicy::EarliestDeadlineFirst)
        .preemption(false)
        .build()
        .expect("valid pipeline config")
}

/// What travels over an edge: the frame's sequence number and a tag
/// derived from the seed, the edge and the sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame {
    seq: u64,
    tag: u64,
}

pub fn tag(seed: u64, edge: usize, seq: u64) -> u64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for v in [edge as u64, seq] {
        h = (h ^ v).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn spin(d: Duration) {
    let end = WallInstant::now() + std::time::Duration::from_nanos(d.as_nanos());
    while WallInstant::now() < end {
        std::hint::spin_loop();
    }
}

/// State shared with the bodies.
struct Shared {
    seed: u64,
    /// Payloads whose tag does not match the sequence number they carry.
    corrupt_payloads: AtomicU64,
    /// Bodies that found no payload on an in-edge.
    missing_payloads: AtomicU64,
    /// Sends refused by a full channel.
    refused_payloads: AtomicU64,
    /// Intact payloads consumed by another instance of the node than
    /// the one they were produced for.
    foreign_payloads: AtomicU64,
    /// Wall-clock body start of each activation, by job sequence number
    /// (ns since the epoch; 0 = never started).
    alert_start: Vec<AtomicU64>,
    epoch: WallInstant,
    cal: Option<Arc<Calibration>>,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

fn runtime(ts: &Arc<TaskSet>, inputs: &Inputs, shared: &Arc<Shared>) -> ShardedRuntime {
    let mut builder = ShardedRuntimeBuilder::new(Arc::clone(ts), config()).work_stealing(true);
    // Edge endpoints, by node: what each body receives and sends.
    let mut rx: Vec<Vec<(usize, Receiver<Frame>)>> = (0..NODES.len()).map(|_| Vec::new()).collect();
    let mut tx: Vec<Vec<(usize, Sender<Frame>)>> = (0..NODES.len()).map(|_| Vec::new()).collect();
    for (i, e) in ts.edges().iter().enumerate() {
        let (s, r) = builder
            .channel::<Frame>(e.channel)
            .expect("edge channel opens");
        tx[EDGES[i].0].push((i, s));
        rx[EDGES[i].1].push((i, r));
    }
    let mut rx = rx.into_iter();
    let mut tx = tx.into_iter();
    for (idx, (n, t)) in NODES.iter().zip(ts.tasks()).enumerate() {
        let ins = Arc::new(rx.next().expect("one entry per node"));
        let outs = Arc::new(tx.next().expect("one entry per node"));
        for vi in 0..n.versions.len() {
            let w = wcet(n, vi, inputs.scale[idx]);
            let (ins, outs, sh) = (Arc::clone(&ins), Arc::clone(&outs), Arc::clone(shared));
            builder = builder.body(t.id(), VersionId::new(vi as u16), move |ctx: &JobCtx| {
                if let Some(cal) = &sh.cal {
                    cal.note(ctx.job.id.raw(), sh.now_ns());
                }
                if idx == ALERT {
                    if let Some(slot) = sh.alert_start.get(ctx.job.seq as usize) {
                        slot.store(sh.now_ns(), Ordering::Release);
                    }
                }
                for (edge, r) in ins.iter() {
                    match r.recv() {
                        Some(f) if f.tag != tag(sh.seed, *edge, f.seq) => {
                            sh.corrupt_payloads.fetch_add(1, Ordering::Relaxed);
                        }
                        Some(f) if f.seq != ctx.job.seq => {
                            sh.foreign_payloads.fetch_add(1, Ordering::Relaxed);
                        }
                        Some(_) => {}
                        None => {
                            sh.missing_payloads.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                spin(w);
                for (edge, s) in outs.iter() {
                    let frame = Frame {
                        seq: ctx.job.seq,
                        tag: tag(sh.seed, *edge, ctx.job.seq),
                    };
                    if s.send(frame).is_err() {
                        sh.refused_payloads.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    }
    builder.build().expect("pipeline runtime builds")
}

/// The tenant admitted and retired during the run: one periodic task
/// on worker 1 under a deferrable budget.
fn tenant() -> (
    TaskSet,
    HashMap<(TaskId, VersionId), TaskBody>,
    TenantBudget,
) {
    let mut b = TaskSetBuilder::new();
    let t = b
        .task_decl(
            TaskSpec::periodic("guest", Duration::from_millis(4)).on_worker(WorkerId::new(1)),
        )
        .expect("valid tenant task");
    let wcet = Duration::from_micros(100);
    let v = b
        .version_decl(t, VersionSpec::new("guest", wcet))
        .expect("valid tenant version");
    let mut bodies: HashMap<(TaskId, VersionId), TaskBody> = HashMap::new();
    bodies.insert((t, v), Arc::new(move |_: &JobCtx| spin(wcet)));
    let budget = TenantBudget::deferrable(Duration::from_micros(400), Duration::from_millis(4));
    (b.build().expect("valid tenant set"), bodies, budget)
}

/// Latency of each open-loop activation from its *due* time (not from
/// when the generator got round to sending it) to its body's first
/// instruction; `None` for an activation whose body never started.
pub fn activation_latencies(due_ns: &[u64], started_ns: &[u64]) -> Vec<Option<f64>> {
    due_ns
        .iter()
        .zip(started_ns)
        .map(|(&due, &start)| (start != 0).then(|| us(start.saturating_sub(due))))
        .collect()
}

/// Per-job figures pooled over every instance of a run.
#[derive(Default)]
struct Pooled {
    graph: Dist,
    runtime_part: Dist,
    act: Dist,
    start: Dist,
    cross: Dist,
    local: Dist,
    root_start: Dist,
    gaps: Dist,
    body: Dist,
    gen_late: Dist,
    /// Body times per frame node, indexed like `NODES`.
    node_body: Vec<Dist>,
    calls: Vec<std::time::Duration>,
    admits: Vec<std::time::Duration>,
    retires: Vec<std::time::Duration>,
    jobs: u64,
    misses: u64,
    reorders: u64,
    stats: yasmin_sched::EngineStats,
}

impl Pooled {
    /// Room for every job, frame, hop and activation of a run of
    /// `seconds`, so the pooled vectors never reallocate.
    fn new(seconds: std::time::Duration) -> Self {
        let s = seconds.as_secs_f64() * 1.1;
        let frames_per_s = 1e9 / FRAME.as_nanos() as f64;
        // FC handler, the ten frame nodes, activations, and the tenant
        // (250/s while admitted).
        let jobs_per_s = 1e9 / FC.as_nanos() as f64 + 10.0 * frames_per_s + 2.0 * ACTIVATION_RATE;
        let n = |per_s: f64| (s * per_s) as usize;
        Pooled {
            graph: Dist::with_capacity(n(frames_per_s)),
            runtime_part: Dist::with_capacity(n(frames_per_s)),
            act: Dist::with_capacity(n(ACTIVATION_RATE)),
            start: Dist::with_capacity(n(jobs_per_s)),
            cross: Dist::with_capacity(n(EDGES.len() as f64 * frames_per_s)),
            local: Dist::with_capacity(n(EDGES.len() as f64 * frames_per_s)),
            root_start: Dist::with_capacity(n(frames_per_s)),
            gaps: Dist::with_capacity(n(jobs_per_s)),
            body: Dist::with_capacity(n(jobs_per_s)),
            gen_late: Dist::with_capacity(n(ACTIVATION_RATE)),
            node_body: NODES
                .iter()
                .map(|_| Dist::with_capacity(n(frames_per_s)))
                .collect(),
            calls: Vec::with_capacity(n(ACTIVATION_RATE)),
            ..Pooled::default()
        }
    }
}

/// One runtime instance: open-loop traffic for its share of the run,
/// then the checks and per-job figures. Its gated latency is the median
/// runtime part of its frames' graph latency.
#[allow(clippy::too_many_lines)]
fn instance(
    slice: std::time::Duration,
    tr: &mut Tracer,
    o: &mut Outcome,
    (inputs, ts, shared, rt): (&Inputs, &Arc<TaskSet>, &Shared, ShardedRuntime),
    p: &mut Pooled,
) -> InstanceFigures {
    // Open-loop traffic, all from this thread and in time order:
    // activations at their due times, and admissions and retirements
    // at fixed instants.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Event {
        Admit,
        Retire,
        Activate,
    }
    let mut events: Vec<(std::time::Duration, Event)> = inputs
        .arrivals
        .iter()
        .map(|&d| (d, Event::Activate))
        .collect();
    let mut at = std::time::Duration::ZERO;
    while at + RETIRE_AT < slice {
        events.push((at + ADMIT_AT, Event::Admit));
        events.push((at + RETIRE_AT, Event::Retire));
        at += CYCLE;
    }
    events.sort();

    let alert = ts.tasks()[ALERT].id();
    let cpu0 = crate::sys::process_cpu();
    let start = WallInstant::now();
    let origin_ns = tr.ns(start);
    let mut due_ns = Vec::with_capacity(inputs.arrivals.len());
    let (mut admin_fail, mut activate_fail) = (0u64, 0u64);
    let mut tenant_id = None;
    let run = tr.begin("bench", "pipeline.run", None);
    for (when, event) in events {
        let late = wait_until(WaitMode::Sleep, start + when);
        match event {
            Event::Admit => {
                let (cand, bodies, budget) = tenant();
                let (res, d) = tr.timed("rt", "rt.admit", || rt.admit(&cand, bodies, Some(budget)));
                p.admits.push(d);
                match res {
                    Ok(t) => tenant_id = Some(t),
                    Err(_) => admin_fail += 1,
                }
            }
            Event::Retire => {
                if let Some(t) = tenant_id.take() {
                    let (res, d) = tr.timed("rt", "rt.retire", || rt.retire(t));
                    p.retires.push(d);
                    admin_fail += u64::from(res.is_err());
                }
            }
            Event::Activate => {
                p.gen_late.push(late.as_nanos() as f64 / 1e3);
                due_ns.push(origin_ns + u64::try_from(when.as_nanos()).unwrap_or(u64::MAX));
                let open = tr.begin("rt", "rt.activate", Some(due_ns.len() as u64 - 1));
                let res = rt.activate(alert);
                p.calls.push(tr.end(open));
                activate_fail += u64::from(res.is_err());
            }
        }
    }
    let _ = wait_until(WaitMode::Sleep, start + slice);
    tr.end(run);
    rt.stop();
    let (report, cleanup) = tr.timed("rt", "rt.cleanup", || rt.cleanup());
    let cpu = crate::sys::process_cpu() - cpu0;

    let stats = &report.engine_stats;
    let recs = &report.records;
    records::common_checks(o, stats, recs);
    o.fail("admission_or_retirement_refused", admin_fail);
    o.fail("activation_refused", activate_fail);
    o.check(
        "channel_payloads_arrive_intact",
        shared.corrupt_payloads.load(Ordering::Relaxed),
    );
    // A send refused by a full channel drops the frame record while the
    // engine still books the edge's token (`BackpressurePolicy::Reject`),
    // so a later body of the consumer finds its in-edge empty. That is
    // data lost under a backlog (a host stall longer than the channel's
    // four frames), not a broken invariant.
    o.fail(
        "payload_refused_by_full_channel",
        shared.refused_payloads.load(Ordering::Relaxed),
    );
    o.fail(
        "payload_missing",
        shared.missing_payloads.load(Ordering::Relaxed),
    );
    // Not a failure: under stealing, instances of one node can overlap
    // and run out of order, so intact FIFO edge data can reach another
    // instance than the one it was produced for. Reported as a count.
    p.reorders += shared.foreign_payloads.load(Ordering::Relaxed);

    // DAG precedence, as the engine defines it: edges carry counted
    // tokens, so the j-th start of a consumer must follow the j-th
    // completion of its producer. (Matching by graph instance would
    // misfire: a join pairs tokens first in, first out per edge, so under
    // reordering one job can combine tokens of two frames.)
    let task_of = |i: usize| ts.tasks()[i].id();
    let times = |task: TaskId, at: fn(&RtJobRecord) -> Instant| -> Vec<Instant> {
        let mut v: Vec<Instant> = recs.iter().filter(|r| r.job.task == task).map(at).collect();
        v.sort();
        v
    };
    let mut precedence = 0u64;
    for &(s, d) in &EDGES {
        let done = times(task_of(s), |r| r.completed);
        let starts = times(task_of(d), |r| r.started);
        precedence += starts
            .iter()
            .enumerate()
            .filter(|&(j, st)| done.get(j).is_none_or(|c| st < c))
            .count() as u64;
    }
    o.check("dag_precedence_holds", precedence);

    // Index the records per (task, graph instance) for the per-frame
    // figures. A job that combined tokens of two frames carries the
    // later frame's graph release; its frame's own record is then
    // missing and the frame counts as never completed.
    let by_frame: HashMap<(TaskId, Instant), &RtJobRecord> = recs
        .iter()
        .map(|r| ((r.job.task, r.job.graph_release), r))
        .collect();
    let warm = Instant::from_nanos(u64::try_from(WARMUP.as_nanos()).expect("warm-up fits"));
    // When each job became ready: its release for roots and aperiodic
    // jobs, its last predecessor's completion for inner nodes.
    let ready = |r: &RtJobRecord| -> Instant {
        EDGES
            .iter()
            .filter(|e| task_of(e.1) == r.job.task)
            .filter_map(|e| by_frame.get(&(task_of(e.0), r.job.graph_release)))
            .map(|p| p.completed)
            .max()
            .unwrap_or(r.job.release)
    };
    for r in recs.iter().filter(|r| r.job.task == task_of(FETCH)) {
        for &(s, d) in &EDGES {
            let src = by_frame.get(&(task_of(s), r.job.graph_release));
            let dst = by_frame.get(&(task_of(d), r.job.graph_release));
            if let (Some(src), Some(dst)) = (src, dst) {
                let hop = us(dst.started.saturating_since(src.completed).as_nanos());
                if NODES[s].worker == NODES[d].worker {
                    p.local.push(hop);
                } else {
                    p.cross.push(hop);
                }
            }
        }
    }

    // Graph latency per frame released after warm-up: sink completion −
    // graph release; a frame whose sink never completed is a miss. The
    // critical path back from the sink splits each latency into the
    // bodies along it and the runtime part: the root's start latency
    // plus the hops.
    let mut runtime_part = Dist::new();
    for f in recs
        .iter()
        .filter(|r| r.job.task == task_of(FETCH) && r.job.graph_release >= warm)
    {
        let Some(sink) = by_frame.get(&(task_of(SEND), f.job.graph_release)) else {
            runtime_part.push_missing();
            p.runtime_part.push_missing();
            p.graph.push_missing();
            continue;
        };
        let lat = us(sink
            .completed
            .saturating_since(f.job.graph_release)
            .as_nanos());
        p.graph.push(lat);
        let (mut node, mut r) = (SEND, *sink);
        let mut hops = 0.0;
        while node != FETCH {
            let (pred, pr) = EDGES
                .iter()
                .filter(|e| e.1 == node)
                .filter_map(|e| {
                    by_frame
                        .get(&(task_of(e.0), f.job.graph_release))
                        .map(|p| (e.0, *p))
                })
                .max_by_key(|(_, p)| p.completed)
                .expect("a completed sink has completed predecessors");
            hops += us(r.started.saturating_since(pr.completed).as_nanos());
            node = pred;
            r = pr;
        }
        let rs = us(r.started.saturating_since(f.job.graph_release).as_nanos());
        p.root_start.push(rs);
        runtime_part.push(rs + hops);
        p.runtime_part.push(rs + hops);
    }

    // Activation latency from each due time.
    let started: Vec<u64> = shared
        .alert_start
        .iter()
        .map(|a| a.load(Ordering::Acquire))
        .collect();
    for l in activation_latencies(&due_ns, &started) {
        match l {
            Some(v) => p.act.push(v),
            None => p.act.push_missing(),
        }
    }

    // Start latency and misses over every job released after warm-up.
    let lost = records::never_completed(stats);
    for r in recs.iter().filter(|r| r.job.release >= warm) {
        p.jobs += 1;
        p.start.push(us(r.start_latency().as_nanos()));
        p.misses += u64::from(r.missed());
    }
    for _ in 0..lost {
        p.start.push_missing();
    }
    p.jobs += lost;
    p.misses += lost;
    records::handoff_gaps(recs, ready, &mut p.gaps);
    for r in recs {
        let body = us(r.completed.saturating_since(r.started).as_nanos());
        p.body.push(body);
        let node = ts.tasks().iter().position(|t| t.id() == r.job.task);
        if let Some(i) = node.filter(|i| (FETCH..=SEND).contains(i)) {
            p.node_body[i].push(body);
        }
    }
    p.stats.merge(stats);
    if let Some(cal) = &shared.cal {
        records::job_spans(tr, cal, recs);
    }
    let completed = (stats.completed + stats.failed).max(1);
    InstanceFigures {
        latency_us: runtime_part.median().unwrap_or(f64::INFINITY),
        cpu_us_per_job: cpu.as_secs_f64() * 1e6 / completed as f64,
        cleanup,
    }
}

/// Graph latency predicted from the reported medians alone: the root's
/// start latency, then along the longest path each node's median body
/// and each edge's median hop of its kind (cross- or same-shard).
fn critical_path_us(root_start: f64, body: &[f64], cross: f64, local: f64) -> f64 {
    let mut finish = vec![0.0f64; NODES.len()];
    for node in FETCH..=SEND {
        let ready = EDGES
            .iter()
            .filter(|e| e.1 == node)
            .map(|&(s, _)| {
                let hop = if NODES[s].worker == NODES[node].worker {
                    local
                } else {
                    cross
                };
                finish[s] + hop
            })
            .fold(root_start, f64::max);
        finish[node] = ready + body[node];
    }
    finish[SEND]
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Outcome {
    let mut o = Outcome {
        threads: RUNTIME_THREADS + 1,
        ..Outcome::default()
    };
    let root = tr.begin("bench", "pipeline", None);
    let traced = tr.enabled();
    let mut p = Pooled::new(ctx.seconds);
    let mut ts = None;
    records::drive_instances(
        ctx,
        INSTANCE,
        tr,
        &mut o,
        |tr, slice| {
            // Set-up: generation + task-set build + runtime build.
            let (inputs, g) = tr.timed("taskgen", "taskgen.drs_bounded", || {
                generate(ctx.seed, slice)
            });
            let (set, b) = tr.timed("core", "core.taskset_build", || {
                Arc::new(build_taskset(&inputs))
            });
            let shared = Arc::new(Shared {
                seed: ctx.seed,
                corrupt_payloads: AtomicU64::new(0),
                missing_payloads: AtomicU64::new(0),
                refused_payloads: AtomicU64::new(0),
                foreign_payloads: AtomicU64::new(0),
                alert_start: (0..inputs.arrivals.len())
                    .map(|_| AtomicU64::new(0))
                    .collect(),
                epoch: ctx.epoch,
                cal: traced.then(Calibration::new),
            });
            let (rt, r) = tr.timed("rt", "rt.build", || runtime(&set, &inputs, &shared));
            ts = Some(Arc::clone(&set));
            ((inputs, set, shared, rt), [g, b, r])
        },
        |tr, o, slice, (inputs, set, shared, rt)| {
            instance(slice, tr, o, (&inputs, &set, &shared, rt), &mut p)
        },
    );
    let ts = ts.expect("at least one instance");
    o.attempted = p.jobs + p.act.count() as u64 + (p.admits.len() + p.retires.len()) as u64;

    if let Some((pct, v)) = p.runtime_part.tail() {
        o.set("e2e.latency_tail_us", v, "us");
        o.set("e2e.latency_tail_pct", pct, "%");
    }
    o.set("e2e.samples", p.runtime_part.count() as f64, "count");
    o.set(
        "e2e.graph_latency_p50_us",
        p.graph.median().unwrap_or(f64::INFINITY),
        "us",
    );
    o.set(
        "e2e.graph_latency_tail_us",
        p.graph.tail().map_or(0.0, |t| t.1),
        "us",
    );
    o.set(
        "e2e.start_latency_p50_us",
        p.start.median().unwrap_or(0.0),
        "us",
    );
    o.set(
        "e2e.start_latency_tail_us",
        p.start.tail().map_or(0.0, |t| t.1),
        "us",
    );
    o.set(
        "e2e.activation_latency_p50_us",
        p.act.median().unwrap_or(0.0),
        "us",
    );
    o.set(
        "e2e.activation_latency_tail_us",
        p.act.tail().map_or(0.0, |t| t.1),
        "us",
    );
    o.set(
        "e2e.deadline_miss_ratio",
        p.misses as f64 / p.jobs.max(1) as f64,
        "ratio",
    );
    o.set(
        "e2e.admit_latency_ms",
        probe::median_us(&p.admits) / 1e3,
        "ms",
    );
    o.set("rt.payload_reorders", p.reorders as f64, "count");
    let cross = p.cross.median().unwrap_or(0.0);
    let local = p.local.median().unwrap_or(0.0);
    let root_start = p.root_start.median().unwrap_or(0.0);
    o.set("rt.cross_hop_us", cross, "us");
    o.set("rt.local_hop_us", local, "us");
    o.set("rt.root_start_us", root_start, "us");
    let body: Vec<f64> = p
        .node_body
        .iter_mut()
        .map(|d| d.median().unwrap_or(0.0))
        .collect();
    o.set(
        "rt.accounted_share",
        records::share(
            critical_path_us(root_start, &body, cross, local),
            p.graph.median().unwrap_or(0.0),
        ),
        "ratio",
    );
    o.set("rt.handoff_gap_us", p.gaps.median().unwrap_or(0.0), "us");
    o.set("rt.body_us", p.body.median().unwrap_or(0.0), "us");
    o.set(
        "rt.activate_call_ns",
        probe::median_us(&p.calls) * 1e3,
        "ns",
    );
    o.set("rt.retire_ms", probe::median_us(&p.retires) / 1e3, "ms");
    o.set(
        "rt.gen_lateness_us",
        p.gen_late.median().unwrap_or(0.0),
        "us",
    );
    probe::engine_counters(&mut o, &p.stats);

    // Admission of the tenant against the pipeline, off the runtime.
    let gate = AdmissionControl::new(config(), FC);
    let (cand, _, budget) = tenant();
    let (verdict, eval) = tr.timed("analysis", "analysis.evaluate", || {
        gate.evaluate(&ts, &cand, Some(&budget))
    });
    o.check("tenant_is_admissible", u64::from(verdict.is_err()));
    o.set("analysis.evaluate_us", eval.as_secs_f64() * 1e6, "us");

    if traced {
        let alert = ts.tasks()[ALERT].id();
        probe::sync_layer(tr, &mut o, FC);
        probe::bare_wake(tr, &mut o, FC);
        let single = Config::builder()
            .workers(2)
            .mapping(MappingScheme::Partitioned)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .preemption(false)
            .build()
            .expect("valid replay config");
        probe::sched_replay(tr, &mut o, &ts, &single, Some(alert), 20_000);
        probe::steal_replay(tr, &mut o, &ts, &config(), alert, 2_000);
    }
    tr.end(root);
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let s = std::time::Duration::from_secs(3);
        let a = generate(9, s);
        let b = generate(9, s);
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(
            format!("{:?}", build_taskset(&a).tasks()),
            format!("{:?}", build_taskset(&b).tasks())
        );
        assert_ne!(generate(10, s).arrivals, a.arrivals);
        // The seed moves WCETs, never the total load.
        let load = |i: &Inputs| -> f64 {
            NODES
                .iter()
                .zip(&i.scale)
                .map(|(n, s)| nominal_util(n) * s)
                .sum()
        };
        assert!((load(&a) - load(&generate(10, s))).abs() < 1e-9);
    }

    #[test]
    fn critical_path_takes_the_longest_branch() {
        // One µs per body, free same-shard hops, 10 µs cross-shard hops:
        // nine nodes lie on every fetch → send path, and both branches
        // through the detect fork cross shards twice.
        let body = vec![1.0; NODES.len()];
        assert_eq!(critical_path_us(5.0, &body, 10.0, 0.0), 5.0 + 9.0 + 20.0);
        // A slower estimate body moves the path onto that branch.
        let mut slow = body.clone();
        slow[6] = 50.0;
        assert_eq!(critical_path_us(5.0, &slow, 10.0, 0.0), 5.0 + 58.0 + 20.0);
    }

    #[test]
    fn activation_latency_runs_from_the_due_time() {
        // Due at 1 ms and 2 ms; the generator ran late and sent the
        // first at 1.3 ms, its body started at 1.4 ms. The second body
        // never started.
        let due = [1_000_000, 2_000_000];
        let started = [1_400_000, 0];
        let l = activation_latencies(&due, &started);
        assert_eq!(l[0], Some(400.0)); // not 100 µs from the send
        assert_eq!(l[1], None);
    }
}
