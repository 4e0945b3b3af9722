//! # yasmin-rt
//!
//! The real-thread POSIX runtime of YASMIN: scheduler threads driving
//! the shared scheduling engine at the gcd tick, worker threads
//! ("virtual CPUs") pinned to cores executing registered task bodies, and
//! the OS plumbing the paper relies on (affinity, `mlockall`,
//! `SCHED_FIFO`).
//!
//! * [`runtime`] — [`runtime::RuntimeBuilder`] / [`runtime::Runtime`],
//!   mirroring the paper's `init`/`start`/`stop`/`cleanup` lifecycle.
//!   Each scheduler thread owns one engine over a group of workers; the
//!   `Config` selects the groups — one per worker under sharded
//!   dispatch (partitioned mapping), one group of all workers for
//!   global mapping and for partitioned mapping without sharded
//!   dispatch;
//! * [`os`] — best-effort real-time OS setup (feature `os-rt`, on by
//!   default; degrades gracefully in unprivileged containers).

#![warn(missing_docs)]

pub mod os;
pub mod runtime;

pub use runtime::{JobCtx, RtJobRecord, Runtime, RuntimeBuilder, RuntimeReport, TaskBody};

/// The runtime under a sharded-dispatch `Config`; kept for callers that
/// still name it. New code uses [`Runtime`].
pub type ShardedRuntime = Runtime;

/// The builder of a runtime under a sharded-dispatch `Config`; kept for
/// callers that still name it. New code uses [`RuntimeBuilder`].
pub type ShardedRuntimeBuilder = RuntimeBuilder;
