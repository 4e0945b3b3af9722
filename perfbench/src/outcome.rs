//! What one pass of a workload produced, and the metric catalogue.
//!
//! `END_TO_END` and `PER_LAYER` are the contract with `BENCHMARK.json`
//! (a unit test keeps the two in step): the untraced run prints every
//! end-to-end metric, the traced run every per-layer metric, on every
//! workload. A per-layer metric of a layer the workload bypasses reads
//! 0 — the workload spends no time there and does no such work.

use std::collections::BTreeMap;

/// Gated end-to-end metrics: `(name, unit)`. Each has a definition on
/// every workload (see README.md).
pub const END_TO_END: [(&str, &str); 4] = [
    ("latency_us", "us"),
    ("cpu_us_per_job", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 73] = [
    // Workload-specific end-to-end figures, too tail-heavy or too
    // workload-specific to gate; taken from the untraced pass.
    ("e2e.latency_tail_us", "us"),
    ("e2e.latency_tail_pct", "%"),
    ("e2e.samples", "count"),
    ("e2e.start_latency_p50_us", "us"),
    ("e2e.start_latency_tail_us", "us"),
    ("e2e.graph_latency_p50_us", "us"),
    ("e2e.graph_latency_tail_us", "us"),
    ("e2e.activation_latency_p50_us", "us"),
    ("e2e.activation_latency_tail_us", "us"),
    ("e2e.deadline_miss_ratio", "ratio"),
    ("e2e.admit_latency_ms", "ms"),
    ("e2e.sim_jobs_per_s", "1/s"),
    // `explore`'s gated CPU times before the host-speed scaling.
    ("e2e.latency_raw_us", "us"),
    ("e2e.cpu_raw_us_per_job", "us"),
    ("e2e.setup_raw_s", "s"),
    ("trace.overhead_pct", "%"),
    // Self time per layer over the traced pass.
    ("self.core_ms", "ms"),
    ("self.taskgen_ms", "ms"),
    ("self.analysis_ms", "ms"),
    ("self.sched_ms", "ms"),
    ("self.sync_ms", "ms"),
    ("self.rt_ms", "ms"),
    ("self.sim_ms", "ms"),
    ("self.baselines_ms", "ms"),
    ("self.app_ms", "ms"),
    ("self.bench_ms", "ms"),
    // sync
    ("sync.chan_rtt_ns", "ns"),
    ("sync.wait_late_hybrid_us", "us"),
    ("sync.wait_late_sleep_us", "us"),
    ("sync.spsc_rtt_ns", "ns"),
    ("sync.mailbox_rtt_ns", "ns"),
    // rt
    ("rt.first_start_us", "us"),
    ("rt.queue_wait_us", "us"),
    ("rt.handoff_gap_us", "us"),
    ("rt.cross_hop_us", "us"),
    ("rt.local_hop_us", "us"),
    ("rt.root_start_us", "us"),
    ("rt.body_us", "us"),
    ("rt.accounted_share", "ratio"),
    ("rt.payload_reorders", "count"),
    ("rt.activate_call_ns", "ns"),
    ("rt.build_ms", "ms"),
    ("rt.cleanup_ms", "ms"),
    ("rt.retire_ms", "ms"),
    ("rt.gen_lateness_us", "us"),
    ("rt.vs_bare_ratio", "ratio"),
    // sched: engine replay on the main thread, then run counters
    ("sched.on_tick_ns", "ns"),
    ("sched.on_tick_tail_ns", "ns"),
    ("sched.on_jobs_completed_ns", "ns"),
    ("sched.on_jobs_completed_tail_ns", "ns"),
    ("sched.activate_ns", "ns"),
    ("sched.activate_tail_ns", "ns"),
    ("sched.steal_batch_ns", "ns"),
    ("sched.steal_batch_tail_ns", "ns"),
    ("sched.released", "count"),
    ("sched.completed", "count"),
    ("sched.stolen", "count"),
    ("sched.stolen_batch", "count"),
    ("sched.cross_activations", "count"),
    ("sched.culled", "count"),
    ("sched.budget_deferrals", "count"),
    ("sched.steal_yield", "ratio"),
    // analysis, sim, core, taskgen, baselines
    ("analysis.evaluate_us", "us"),
    ("sim.new_us", "us"),
    ("sim.run_ms", "ms"),
    ("sim.par_run_ms", "ms"),
    ("sim.par_cpu_us_per_job", "us"),
    ("core.taskset_build_us", "us"),
    ("taskgen.generate_us", "us"),
    ("baselines.bare_wake_us", "us"),
    ("host.nproc", "count"),
    ("host.threads", "count"),
    ("host.ref_us", "us"),
];

/// The result of one pass of a workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (released jobs, activations, admissions,
    /// configurations, …).
    pub attempted: u64,
    /// Violations per correctness check (every check listed, 0 = held).
    pub checks: BTreeMap<&'static str, u64>,
    /// Operations that failed without breaking an invariant of the
    /// program — a refused request, data dropped by a full channel under
    /// a backlog — by kind (every kind listed, 0 = none failed).
    pub failures: BTreeMap<&'static str, u64>,
    /// Every measured metric: `name → (value, unit)`.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Threads the workload runs at once (runtime + main thread).
    pub threads: usize,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.0)
    }

    /// Records the result of a correctness check; each violation is a
    /// failed operation.
    pub fn check(&mut self, name: &'static str, violations: u64) {
        *self.checks.entry(name).or_default() += violations;
    }

    /// Records operations that failed; they count as failed but do not
    /// make the run incorrect.
    pub fn fail(&mut self, kind: &'static str, n: u64) {
        *self.failures.entry(kind).or_default() += n;
    }

    /// Failed operations: check violations plus failures.
    pub fn failed(&self) -> u64 {
        self.checks.values().chain(self.failures.values()).sum()
    }

    pub fn correct(&self) -> bool {
        self.checks.values().all(|&v| v == 0)
    }
}
