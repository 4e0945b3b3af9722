//! `explore` — design-space exploration with no runtime threads: each
//! configuration is checked with `AdmissionControl` and then simulated.
//! The configurations are Fig. 4's twelve drone configurations
//! ({G,P} × {EDF,DM} × {cpu,gpu,both}, seeded secure-mode frames) plus a
//! Fig. 2-shape DRS sweep (task count × utilisation × {G,P} × {EDF,DM}
//! on two cores). Partitioned sweep configurations also run through
//! `run_partitioned_parallel` (one producer) and must give the same
//! trace as the single-owner simulator. The drone's partitioned
//! configurations stay single-owner: their GPU versions span shards,
//! which the sharding contract refuses.
//!
//! Time goes to the `sched` engine, the `sim` event loop and
//! `analysis`, none to `rt`/`sync`: engine gains show here, and a wake
//! or hand-off change must leave it unchanged. The sweep is repeated
//! until the run's time is up; every repetition must reproduce the
//! same trace digest.

use crate::calib;
use crate::outcome::Outcome;
use crate::probe;
use crate::stats::{median_of, Dist};
use crate::trace::Tracer;
use crate::Ctx;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use std::time::Instant as WallInstant;
use yasmin_core::config::{Config, MappingScheme, VersionPolicy};
use yasmin_core::graph::{TaskSet, TaskSetBuilder};
use yasmin_core::ids::WorkerId;
use yasmin_core::platform::PlatformSpec;
use yasmin_core::priority::PriorityPolicy;
use yasmin_core::task::TaskSpec;
use yasmin_core::time::Duration;
use yasmin_core::version::{ExecMode, VersionSpec};
use yasmin_sched::admission::AdmissionControl;
use yasmin_sim::{
    run_partitioned_parallel, ExecModel, ParSimOptions, SimConfig, SimResult, Simulation,
};
use yasmin_taskgen::drone::{self, DroneTasks, VersionRestriction, FRAME_PERIOD, SECURE_MODE};
use yasmin_taskgen::periods::{wcets_from_utilisation, GRID_1S};
use yasmin_taskgen::{assign_worst_fit, drs};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Reference-kernel calls measured around each set-up.
const SETUP_REF_CALLS: usize = 20;
/// A pass measures `REF_BLOCK` reference-kernel calls after every
/// `REF_EVERY` single-owner configurations.
const REF_EVERY: usize = 10;
const REF_BLOCK: usize = 5;
/// Passes whose per-configuration samples are pooled for the tail and
/// the per-layer medians; later passes feed only the per-pass figures,
/// so the memory a run holds does not grow with the host's speed.
const SAMPLE_PASSES: usize = 16;
/// Simulated mission of each drone configuration.
const MISSION: Duration = Duration::from_secs(10);
/// Share of frames (percent) that detect boats and need AES encoding.
const SECURE_PCT: u32 = 35;
/// Drone workers (the fourth core hosts the scheduler thread).
const DRONE_WORKERS: usize = 3;
/// Fig. 2-shape sweep axes.
const SWEEP_TASKS: [usize; 3] = [10, 20, 40];
const SWEEP_UTIL: [f64; 3] = [0.5, 1.0, 1.5];
/// Task sets drawn per (task count, utilisation) cell.
const SWEEP_SETS: u64 = 12;
const SWEEP_CORES: usize = 2;
const SWEEP_HORIZON: Duration = Duration::from_secs(2);
/// The main thread, plus one shard thread per core and one producer
/// while `run_partitioned_parallel` runs.
pub const THREADS: usize = 1 + SWEEP_CORES + 1;

const POLICIES: [(MappingScheme, PriorityPolicy); 4] = [
    (MappingScheme::Global, PriorityPolicy::EarliestDeadlineFirst),
    (MappingScheme::Global, PriorityPolicy::DeadlineMonotonic),
    (
        MappingScheme::Partitioned,
        PriorityPolicy::EarliestDeadlineFirst,
    ),
    (
        MappingScheme::Partitioned,
        PriorityPolicy::DeadlineMonotonic,
    ),
];

/// One configuration to explore.
pub struct Entry {
    pub taskset: Arc<TaskSet>,
    pub config: Config,
    pub sim: SimConfig,
    /// Drone task handles (Fig. 4 configurations only).
    pub drone: Option<(VersionRestriction, DroneTasks)>,
    /// The sharded twin of `config` for the parallel driver
    /// (partitioned sweep configurations only).
    pub par: Option<Config>,
}

/// Seconds spent generating (taskgen) and building (core) the inputs.
pub struct Generated {
    pub entries: Vec<Entry>,
    pub taskgen: std::time::Duration,
    pub core: std::time::Duration,
}

fn mode_schedule(seed: u64) -> Vec<(Duration, ExecMode)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd20e);
    (0..MISSION / FRAME_PERIOD)
        .map(|k| {
            let secure = rng.random_range(0..100u32) < SECURE_PCT;
            let mode = if secure {
                SECURE_MODE
            } else {
                ExecMode::NORMAL
            };
            (FRAME_PERIOD * k, mode)
        })
        .collect()
}

fn config(
    workers: usize,
    mapping: MappingScheme,
    priority: PriorityPolicy,
    sharded: bool,
) -> Config {
    Config::builder()
        .workers(workers)
        .mapping(mapping)
        .priority(priority)
        .version_policy(VersionPolicy::Mode)
        .sharded_dispatch(sharded)
        .max_pending_jobs(4096)
        .build()
        .expect("valid exploration config")
}

/// One sweep task set: `(period, WCET, worker under partitioning)` per
/// task. DRS draws the utilisations; the periods are the 1 s grid taken
/// in turn and shuffled by the seed, so every set of `n` tasks releases
/// the same number of jobs and the sweep's total work, which sets
/// `latency_us`, does not depend on the seed.
pub fn sweep_set(n: usize, utilisation: f64, seed: u64) -> Vec<(Duration, Duration, WorkerId)> {
    let utils = drs(n, utilisation, 1.0, seed).expect("feasible DRS request");
    let mut periods: Vec<Duration> = GRID_1S
        .iter()
        .cycle()
        .take(n)
        .map(|&ms| Duration::from_millis(ms))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        periods.swap(i, rng.random_range(0..=i));
    }
    let wcets = wcets_from_utilisation(&utils, &periods);
    let workers = assign_worst_fit(&utils, SWEEP_CORES);
    periods
        .into_iter()
        .zip(wcets)
        .zip(workers)
        .map(|((p, c), w)| (p, c, w))
        .collect()
}

/// Every configuration of the exploration, from the seed.
pub fn generate(seed: u64, tr: &mut Tracer) -> Generated {
    let mut entries = Vec::new();
    let (mut taskgen, mut core) = (std::time::Duration::ZERO, std::time::Duration::ZERO);
    let modes = mode_schedule(seed);
    for (mapping, priority) in POLICIES {
        for restriction in VersionRestriction::ALL {
            // The drone builder declares and builds the set itself; its
            // whole time counts as taskgen.
            let (w, d) = tr.timed("taskgen", "taskgen.drone", || match mapping {
                MappingScheme::Global => drone::build(restriction),
                MappingScheme::Partitioned => drone::build_partitioned(restriction, DRONE_WORKERS),
            });
            taskgen += d;
            let w = w.expect("valid drone workload");
            let mut sim = SimConfig::uniform(DRONE_WORKERS, MISSION);
            sim.platform = PlatformSpec::apalis_tk1();
            sim.exec = ExecModel::Wcet;
            sim.seed = seed;
            sim.mode_schedule = modes.clone();
            entries.push(Entry {
                taskset: Arc::new(w.taskset),
                config: config(DRONE_WORKERS, mapping, priority, false),
                sim,
                drone: Some((restriction, w.tasks)),
                par: None,
            });
        }
    }
    for (&n, &u, k) in SWEEP_TASKS
        .iter()
        .flat_map(|n| SWEEP_UTIL.iter().map(move |u| (n, u)))
        .flat_map(|(n, u)| (0..SWEEP_SETS).map(move |k| (n, u, k)))
    {
        let set_seed = seed
            .wrapping_mul(1_000_003)
            .wrapping_add((n as u64) << 16)
            .wrapping_add(((u * 10.0) as u64) << 8)
            .wrapping_add(k);
        let (params, d) = tr.timed("taskgen", "taskgen.drs", || sweep_set(n, u, set_seed));
        taskgen += d;
        for partitioned in [false, true] {
            let ((ts, sim), d) = tr.timed("core", "core.taskset_build", || {
                let mut b = TaskSetBuilder::new();
                for (i, &(period, wcet, w)) in params.iter().enumerate() {
                    let mut spec = TaskSpec::periodic(format!("t{i}"), period);
                    if partitioned {
                        spec = spec.on_worker(w);
                    }
                    let t = b.task_decl(spec).expect("valid generated task");
                    b.version_decl(t, VersionSpec::new(format!("t{i}"), wcet))
                        .expect("valid generated version");
                }
                let mut sim = SimConfig::uniform(SWEEP_CORES, SWEEP_HORIZON);
                sim.seed = set_seed;
                (Arc::new(b.build().expect("valid generated set")), sim)
            });
            core += d;
            for priority in [
                PriorityPolicy::EarliestDeadlineFirst,
                PriorityPolicy::DeadlineMonotonic,
            ] {
                let mapping = if partitioned {
                    MappingScheme::Partitioned
                } else {
                    MappingScheme::Global
                };
                entries.push(Entry {
                    taskset: Arc::clone(&ts),
                    config: config(SWEEP_CORES, mapping, priority, false),
                    sim: sim.clone(),
                    drone: None,
                    par: partitioned.then(|| config(SWEEP_CORES, mapping, priority, true)),
                });
            }
        }
    }
    Generated {
        entries,
        taskgen,
        core,
    }
}

/// FNV-1a over a simulation's records, in `(task, seq)` order and
/// without job ids (the sharded driver stamps its shard into them).
pub fn digest(r: &SimResult) -> u64 {
    let mut recs: Vec<_> = r.records.iter().collect();
    recs.sort_by_key(|j| (j.task, j.seq));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for j in recs {
        for v in [
            u64::from(j.task.raw()),
            j.seq,
            j.release.as_nanos(),
            j.graph_release.as_nanos(),
            j.abs_deadline.as_nanos(),
            j.first_start.as_nanos(),
            j.completion.as_nanos(),
            u64::from(j.version.raw()),
            u64::from(j.worker.raw()),
            u64::from(j.preemptions),
        ] {
            eat(v);
        }
    }
    eat(r.unfinished as u64);
    eat(r.unfinished_missed as u64);
    h
}

/// Frame-pipeline deadline misses of a drone run (late or unfinished).
fn frame_misses(r: &SimResult, t: &DroneTasks) -> usize {
    [
        t.fetch,
        t.extract,
        t.augment,
        t.store,
        t.detect,
        t.estimate,
        t.highlight,
        t.create,
        t.encode,
        t.send,
    ]
    .iter()
    .map(|&task| r.miss_count(task))
    .sum::<usize>()
        + r.unfinished_missed
}

/// What one pass over the configurations measured.
#[derive(Default)]
struct Pass {
    digest: u64,
    /// Per single-owner configuration: CPU time of this thread for
    /// admission + build + simulation.
    config_us: Vec<f64>,
    /// CPU time of each block of reference-kernel calls made between
    /// configurations, in µs per call.
    ref_us: Vec<f64>,
    evaluate_us: Vec<f64>,
    new_us: Vec<f64>,
    run_ms: Vec<f64>,
    par_ms: Vec<f64>,
    /// This thread's CPU time in `Simulation::run`, summed, and the jobs
    /// those runs simulated.
    run_cpu_us: f64,
    owner_jobs: u64,
    /// Process CPU time in `run_partitioned_parallel`, summed (the main
    /// thread only waits meanwhile), and the jobs it simulated.
    par_cpu_us: f64,
    par_jobs: u64,
    sim_jobs: u64,
    released: u64,
    misses: u64,
    par_mismatch: u64,
    both_frame_misses: u64,
    admitted: u64,
    stats: yasmin_sched::EngineStats,
}

fn run_pass(g: &Generated, tr: &mut Tracer) -> Pass {
    let mut p = Pass::default();
    let empty = TaskSetBuilder::new().build().expect("empty set builds");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, e) in g.entries.iter().enumerate() {
        if i % REF_EVERY == 0 {
            p.ref_us.push(calib::measure(REF_BLOCK));
        }
        let open = tr.begin("bench", "explore.config", None);
        let cpu0 = crate::sys::thread_cpu();
        let tick = e
            .taskset
            .scheduler_tick()
            .expect("periodic sets have a tick");
        let gate = AdmissionControl::new(e.config.clone(), tick);
        let (verdict, ev) = tr.timed("analysis", "analysis.evaluate", || {
            gate.evaluate(&empty, &e.taskset, None)
        });
        p.admitted += u64::from(verdict.is_ok());
        let (sim, nw) = tr.timed("sim", "sim.new", || {
            Simulation::new(Arc::clone(&e.taskset), e.config.clone(), e.sim.clone())
        });
        let run0 = crate::sys::thread_cpu();
        let (res, rn) = tr.timed("sim", "sim.run", || sim.expect("valid simulation").run());
        let res = res.expect("simulation runs");
        let cpu = crate::sys::thread_cpu() - cpu0;
        p.run_cpu_us += (crate::sys::thread_cpu() - run0).as_secs_f64() * 1e6;
        tr.end(open);
        p.config_us.push(cpu.as_secs_f64() * 1e6);
        p.evaluate_us.push(ev.as_secs_f64() * 1e6);
        p.new_us.push(nw.as_secs_f64() * 1e6);
        p.run_ms.push(rn.as_secs_f64() * 1e3);
        p.owner_jobs += res.records.len() as u64;
        p.sim_jobs += res.records.len() as u64;
        p.released += (res.records.len() + res.unfinished) as u64;
        p.misses += res.total_misses() as u64;
        p.stats.merge(&res.engine_stats);
        let d = digest(&res);
        h = (h ^ d).wrapping_mul(0x0100_0000_01b3);
        if let Some((VersionRestriction::Both, tasks)) = &e.drone {
            p.both_frame_misses += frame_misses(&res, tasks) as u64;
        }
        if let Some(par_cfg) = &e.par {
            let opts = ParSimOptions {
                producers: 1,
                ..ParSimOptions::default()
            };
            let cpu0 = crate::sys::process_cpu();
            let (par, pd) = tr.timed("sim", "sim.run_partitioned_parallel", || {
                run_partitioned_parallel(
                    Arc::clone(&e.taskset),
                    par_cfg.clone(),
                    e.sim.clone(),
                    opts,
                )
            });
            p.par_cpu_us += (crate::sys::process_cpu() - cpu0).as_secs_f64() * 1e6;
            let par = par.expect("parallel simulation runs");
            p.par_ms.push(pd.as_secs_f64() * 1e3);
            p.par_jobs += par.records.len() as u64;
            p.sim_jobs += par.records.len() as u64;
            p.par_mismatch += u64::from(digest(&par) != d);
        }
    }
    p.digest = h;
    p
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Outcome {
    let mut o = Outcome {
        threads: THREADS,
        ..Outcome::default()
    };
    let root = tr.begin("bench", "explore", None);

    // Set-up, several times: generation + build + Simulation::new of
    // every configuration. Timed as this thread's CPU time, like the
    // configurations: the set-up is single-threaded, so CPU time is its
    // wall time less the time the host took the vCPU away. Each set-up
    // is scaled by the reference kernel's speed measured around it.
    let (mut setups, mut gen_us, mut build_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut raw_setups = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let before = calib::measure(SETUP_REF_CALLS / 2);
        let cpu0 = crate::sys::thread_cpu();
        let g = generate(ctx.seed, tr);
        tr.timed("sim", "sim.new_all", || {
            for e in &g.entries {
                let _ = Simulation::new(Arc::clone(&e.taskset), e.config.clone(), e.sim.clone())
                    .expect("valid simulation");
            }
        });
        let setup = (crate::sys::thread_cpu() - cpu0).as_secs_f64();
        let after = calib::measure(SETUP_REF_CALLS / 2);
        raw_setups.push(setup);
        setups.push(setup * calib::REF_US * 2.0 / (before + after));
        gen_us.push(g.taskgen.as_secs_f64() * 1e6 / g.entries.len() as f64);
        build_us.push(g.core.as_secs_f64() * 1e6 / g.entries.len() as f64);
        last = Some(g);
    }
    let g = last.expect("at least one set-up");

    // Passes until the time is up (at least two, so reruns compare).
    // The gated figures are taken over passes, so a burst of host noise
    // moves few of the values they are taken from. Each pass's CPU times
    // are scaled by the reference kernel's speed in the same pass (see
    // calib.rs); the raw figures are kept as per-layer metrics.
    let start = WallInstant::now();
    let mut first: Option<Pass> = None;
    let (mut passes, mut jobs) = (0usize, 0u64);
    let (mut digest_changed, mut par_mismatch, mut both_misses) = (0u64, 0u64, 0u64);
    let (mut cpu_per_job, mut raw_cpu_per_job) = (Vec::new(), Vec::new());
    let (mut per_config, mut raw_per_config) = (Vec::new(), Vec::new());
    let (mut ref_us, mut par_cpu_per_job) = (Vec::new(), Vec::new());
    let mut config_us = Dist::new();
    let (mut ev, mut nw, mut rn, mut pr) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while passes < 2 || start.elapsed() < ctx.seconds {
        let p = run_pass(&g, tr);
        let ref_mean = p.ref_us.iter().sum::<f64>() / p.ref_us.len().max(1) as f64;
        let scale = calib::REF_US / ref_mean;
        ref_us.push(ref_mean);
        // Simulator CPU time per simulated job (single-owner runs).
        let raw = p.run_cpu_us / p.owner_jobs.max(1) as f64;
        raw_cpu_per_job.push(raw);
        cpu_per_job.push(raw * scale);
        par_cpu_per_job.push(p.par_cpu_us / p.par_jobs.max(1) as f64);
        // CPU time per configuration, averaged over the sweep.
        let raw = p.config_us.iter().sum::<f64>() / p.config_us.len().max(1) as f64;
        raw_per_config.push(raw);
        per_config.push(raw * scale);
        if passes < SAMPLE_PASSES {
            for &v in &p.config_us {
                config_us.push(v * scale);
            }
            ev.extend_from_slice(&p.evaluate_us);
            nw.extend_from_slice(&p.new_us);
            rn.extend_from_slice(&p.run_ms);
            pr.extend_from_slice(&p.par_ms);
        }
        jobs += p.sim_jobs;
        par_mismatch += p.par_mismatch;
        both_misses += p.both_frame_misses;
        match &first {
            Some(f) => digest_changed += u64::from(p.digest != f.digest),
            None => first = Some(p),
        }
        passes += 1;
    }
    let wall = start.elapsed();
    let first = first.expect("at least one pass");

    o.attempted = (passes * g.entries.len()) as u64;
    o.check("trace_digest_repeats_across_reruns", digest_changed);
    o.check("par_driver_matches_single_owner", par_mismatch);
    o.check("fig4_both_configs_miss_no_frame", both_misses);

    o.set("latency_us", median_of(&per_config), "us");
    o.set("e2e.latency_raw_us", median_of(&raw_per_config), "us");
    if let Some((p, v)) = config_us.tail() {
        o.set("e2e.latency_tail_us", v, "us");
        o.set("e2e.latency_tail_pct", p, "%");
    }
    o.set("e2e.samples", config_us.count() as f64, "count");
    o.set("cpu_us_per_job", median_of(&cpu_per_job), "us");
    o.set("e2e.cpu_raw_us_per_job", median_of(&raw_cpu_per_job), "us");
    o.set("host.ref_us", median_of(&ref_us), "us");
    o.set("sim.par_cpu_us_per_job", median_of(&par_cpu_per_job), "us");
    let miss_ratio = first.misses as f64 / first.released.max(1) as f64;
    o.set("e2e.deadline_miss_ratio", miss_ratio, "ratio");
    o.set(
        "e2e.sim_jobs_per_s",
        jobs as f64 / wall.as_secs_f64(),
        "1/s",
    );
    o.set("setup_s", median_of(&setups), "s");
    o.set("e2e.setup_raw_s", median_of(&raw_setups), "s");
    o.set("analysis.evaluate_us", median_of(&ev), "us");
    o.set("sim.new_us", median_of(&nw), "us");
    o.set("sim.run_ms", median_of(&rn), "ms");
    o.set("sim.par_run_ms", median_of(&pr), "ms");
    o.set("taskgen.generate_us", median_of(&gen_us), "us");
    o.set("core.taskset_build_us", median_of(&build_us), "us");
    probe::engine_counters(&mut o, &first.stats);
    o.set("explore.admitted", first.admitted as f64, "count");
    o.set("explore.passes", passes as f64, "count");

    if tr.enabled() {
        // Replay the Fig. 4 G-EDF-both set, non-preemptively, on the
        // main thread.
        let e = &g.entries[2];
        let replay = Config::builder()
            .workers(DRONE_WORKERS)
            .priority(PriorityPolicy::EarliestDeadlineFirst)
            .version_policy(VersionPolicy::Mode)
            .preemption(false)
            .build()
            .expect("valid replay config");
        probe::sched_replay(tr, &mut o, &e.taskset, &replay, None, 20_000);
    }
    tr.end(root);
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let mut tr = Tracer::new(false, WallInstant::now());
        let text = |g: &Generated| -> String {
            g.entries
                .iter()
                .map(|e| {
                    format!(
                        "{} {:?} {:?}",
                        e.config.label(),
                        e.taskset.tasks(),
                        e.sim.mode_schedule
                    )
                })
                .collect()
        };
        let a = text(&generate(5, &mut tr));
        assert_eq!(a, text(&generate(5, &mut tr)));
        assert_ne!(a, text(&generate(6, &mut tr)));
    }
}
