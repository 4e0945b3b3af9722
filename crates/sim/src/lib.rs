//! # yasmin-sim
//!
//! Discrete-event simulation of COTS heterogeneous platforms for the
//! YASMIN evaluation. The simulator drives the *real* scheduling engine
//! (`yasmin-sched`) with virtual time, so every experiment exercises
//! production scheduling code on a modelled platform:
//!
//! * [`engine`] — the DES event core ([`engine::Simulation`]): one
//!   event queue driving the whole-system engine or N engine shards,
//!   modelled workers with per-core speeds, preemption progress tracking,
//!   measured + modelled overheads, energy accounting;
//! * [`exec`] — execution-time models (WCET, uniform fraction);
//! * [`kernel`] — wake-up-latency models of the kernels in Table 2
//!   (vanilla Linux, PREEMPT_RT, LitmusRT GSN-EDF / P-RES);
//! * [`par`] — the partitioned drivers: engine shards fed by producer
//!   threads through the lock-free command mailbox, run one simulation
//!   thread per shard or — for cross-shard DAGs and stealing — as one
//!   N-engine [`engine::Simulation`], with results identical to the
//!   single-owner simulation;
//! * [`stress`] — the stress-ng-like interference profile;
//! * [`trace`] — per-job records and result aggregation;
//! * [`render`] — ASCII Gantt charts and Chrome-trace export.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod exec;
pub mod kernel;
pub mod par;
pub mod render;
pub mod stress;
pub mod trace;

pub use engine::{FaultEvent, OverheadModel, SimConfig, Simulation};
pub use exec::{ExecModel, ExecSampler};
pub use kernel::{KernelKind, KernelModel, KernelParams};
pub use par::{run_partitioned_parallel, ParSimOptions};
pub use render::{ascii_gantt, chrome_trace, task_report};
pub use stress::StressProfile;
pub use trace::{JobRecord, SimResult};
