//! Host-speed reference for the CPU-bound `explore` workload.
//!
//! `explore` measures CPU time of single-threaded simulation work, and
//! on a shared host that time follows how fast the host runs the vCPU
//! (clock, a busy hyper-thread sibling, cache pressure from other
//! tenants) by far more than the gate's bounds: one seed's sweep read
//! 190 µs per configuration in one hour and 480 µs in another. So the
//! workload runs this kernel next to its own work, under the same host
//! conditions, and scales its CPU times to a host on which one call
//! takes [`REF_US`].
//!
//! The kernel is a small preemptive-EDF discrete-event simulation
//! written here against `std` alone (binary heaps, a growing record
//! vector, branchy dispatch), so its speed tracks the simulator's on
//! the same host while no change to the workspace can move it. Its
//! inputs are fixed: every call does the same work.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Nominal CPU time of one [`kernel`] call, in µs: the scale the
/// normalised figures are given at (about the kernel's time on a quiet
/// 2.1 GHz Xeon vCPU).
pub const REF_US: f64 = 16.0;

/// Periods of the kernel's task set, in ticks.
const PERIODS: [u64; 12] = [10, 12, 15, 20, 24, 25, 30, 40, 50, 60, 75, 100];
/// Simulated horizon, in ticks.
const HORIZON: u64 = 600;
const CORES: usize = 2;

/// One run of the reference simulation; returns a digest of its
/// schedule so the work cannot be optimised away.
pub fn kernel() -> u64 {
    // (release time, task) and (absolute deadline, task, remaining).
    let mut releases: BinaryHeap<Reverse<(u64, usize)>> =
        (0..PERIODS.len()).map(|i| Reverse((0, i))).collect();
    let mut ready: BinaryHeap<Reverse<(u64, usize, u64)>> = BinaryHeap::new();
    let mut running: [Option<(u64, usize, u64)>; CORES] = [None; CORES];
    let mut records: Vec<(usize, u64, u64)> = Vec::new();
    let mut now = 0;
    while now < HORIZON {
        while let Some(&Reverse((t, i))) = releases.peek() {
            if t > now {
                break;
            }
            releases.pop();
            let p = PERIODS[i];
            // Utilisation just under 0.9 per core, so jobs queue and preempt.
            let wcet = (p * 3 / 20).max(1) + (i as u64 % 3);
            ready.push(Reverse((t + p, i, wcet)));
            releases.push(Reverse((t + p, i)));
        }
        // Preempt: the earliest-deadline jobs hold the cores.
        for slot in &mut running {
            if let Some(job) = slot.take() {
                ready.push(Reverse(job));
            }
        }
        for slot in &mut running {
            *slot = ready.pop().map(|Reverse(j)| j);
        }
        // Advance to the next release or completion.
        let next_release = releases.peek().map_or(HORIZON, |r| r.0 .0);
        let step = running
            .iter()
            .flatten()
            .map(|&(_, _, rem)| rem)
            .min()
            .map_or(next_release - now, |rem| rem.min(next_release - now))
            .max(1);
        now += step;
        for slot in &mut running {
            if let Some((d, i, rem)) = slot {
                *rem -= step.min(*rem);
                if *rem == 0 {
                    records.push((*i, now, *d));
                    *slot = None;
                }
            }
        }
    }
    records
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h: u64, &(i, done, d)| {
            (h ^ (i as u64) ^ (done << 8) ^ (d << 32)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// CPU time of `calls` kernel runs on this thread, in µs per call.
pub fn measure(calls: usize) -> f64 {
    let cpu0 = crate::sys::thread_cpu();
    for _ in 0..calls {
        std::hint::black_box(kernel());
    }
    (crate::sys::thread_cpu() - cpu0).as_secs_f64() * 1e6 / calls.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
        assert!(measure(3) > 0.0);
    }
}
