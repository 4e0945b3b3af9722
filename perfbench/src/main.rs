//! End-to-end benchmark of the YASMIN workspace.
//!
//! ```text
//! perfbench --workload <cyclic|pipeline|explore> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload from its seed, checks the outputs, prints every
//! metric by name with its unit, writes the full result (host facts
//! included) to `.bench_out/`, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the gated end-to-end ones; with `--trace 1` the run
//! is split into an untraced half and a traced half, and the metrics
//! are the per-layer ones (see README.md).

mod calib;
mod cyclic;
mod explore;
mod outcome;
mod pipeline;
mod probe;
mod records;
mod stats;
mod sys;
mod trace;

use outcome::{Outcome, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Inputs shared by every workload pass.
pub struct Ctx {
    pub seed: u64,
    /// How long the pass measures.
    pub seconds: Duration,
    /// Zero of every wall-clock timestamp the benchmark records.
    pub epoch: Instant,
}

impl Ctx {
    /// How the real-time workloads split the pass into runtime
    /// instances of about `len` each, built, run and torn down in turn:
    /// `(count, length of each)`. Their gated figures are taken over
    /// instances, because a runtime's timing varies from one instance to
    /// the next (README.md, Findings).
    pub fn instances(&self, len: Duration) -> (usize, Duration) {
        let n = (self.seconds.as_secs_f64() / len.as_secs_f64())
            .round()
            .max(1.0) as u32;
        (n as usize, self.seconds / n)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(0.5..=600.0).contains(&s) {
                    return Err("--seconds must lie in [0.5, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run_pass(workload: &str, ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    Ok(match workload {
        "cyclic" => cyclic::run(ctx, tr),
        "pipeline" => pipeline::run(ctx, tr),
        "explore" => explore::run(ctx, tr),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// A JSON number; non-finite values (a latency whose rank fell on a
/// job that never completed) are written as a large finite stand-in so
/// the line stays valid JSON.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".into()
    }
}

fn metrics_json(o: &Outcome, names: &[(&str, &str)]) -> String {
    let mut s = String::from("{");
    for (i, (name, unit)) in names.iter().enumerate() {
        let v = o.get(name).unwrap_or(0.0);
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" },
            num(v)
        );
    }
    s.push('}');
    s
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let epoch = Instant::now();
    let whole = Duration::from_secs_f64(args.seconds);
    let mut o = if args.trace {
        // Untraced half first, traced half second; the per-layer
        // metrics come from the traced half, the e2e.* figures from
        // the untraced one, and their gap is the tracing overhead.
        let half = whole / 2;
        let ctx = Ctx {
            seed: args.seed,
            seconds: half,
            epoch,
        };
        let plain = run_pass(&args.workload, &ctx, &mut Tracer::new(false, epoch));
        let mut tr = Tracer::new(true, epoch);
        let traced = run_pass(&args.workload, &ctx, &mut tr);
        let (plain, mut traced) = match (plain, traced) {
            (Ok(p), Ok(t)) => (p, t),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("perfbench: {e}");
                std::process::exit(2);
            }
        };
        for (name, (v, unit)) in &plain.metrics {
            if name.starts_with("e2e.") {
                traced.set(name, *v, unit);
            }
        }
        let (p, t) = (
            plain.get("latency_us").unwrap_or(0.0),
            traced.get("latency_us").unwrap_or(0.0),
        );
        let overhead = if p > 0.0 && p.is_finite() && t.is_finite() {
            (t / p - 1.0) * 100.0
        } else {
            0.0
        };
        traced.set("trace.overhead_pct", overhead, "%");
        for (layer, ns) in tr.self_time_by_layer() {
            traced.set(&format!("self.{layer}_ms"), ns as f64 / 1e6, "ms");
        }
        write_out(
            &format!("trace-{}-seed{}.json", args.workload, args.seed),
            &tr.chrome_trace(),
        );
        traced.attempted += plain.attempted;
        for (k, v) in plain.checks {
            *traced.checks.entry(k).or_default() += v;
        }
        for (k, v) in plain.failures {
            *traced.failures.entry(k).or_default() += v;
        }
        traced
    } else {
        let ctx = Ctx {
            seed: args.seed,
            seconds: whole,
            epoch,
        };
        match run_pass(&args.workload, &ctx, &mut Tracer::new(false, epoch)) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(2);
            }
        }
    };
    o.set("peak_rss_mb", sys::peak_rss_mb(), "MB");
    o.set("host.nproc", sys::nproc() as f64, "count");
    o.set("host.threads", o.threads as f64, "count");
    o.attempted = o.attempted.max(1);

    // Human-readable report: every check, then every metric measured.
    println!(
        "perfbench {} seed={} seconds={} trace={} nproc={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::nproc(),
        o.threads
    );
    for (check, v) in &o.checks {
        println!(
            "check {check}: {}",
            if *v == 0 {
                "ok".into()
            } else {
                format!("{v} violations")
            }
        );
    }
    for (kind, v) in &o.failures {
        println!("fail {kind}: {v}");
    }
    for (name, (v, unit)) in &o.metrics {
        println!("metric {name} = {} {unit}", num(*v));
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.correct(),
        o.attempted,
        o.failed(),
        metrics_json(&o, names)
    );
    let mut full = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"threads\": {}, \"checks\": {{",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        sys::nproc(),
        o.threads
    );
    for (i, (check, v)) in o.checks.iter().enumerate() {
        let _ = write!(full, "{}\"{check}\": {v}", if i > 0 { ", " } else { "" });
    }
    full.push_str("}, \"failures\": {");
    for (i, (kind, v)) in o.failures.iter().enumerate() {
        let _ = write!(full, "{}\"{kind}\": {v}", if i > 0 { ", " } else { "" });
    }
    let _ = write!(full, "}}, \"result\": {line}, \"all_metrics\": {{");
    for (i, (name, (v, unit))) in o.metrics.iter().enumerate() {
        let _ = write!(
            full,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" },
            num(*v)
        );
    }
    full.push_str("}}\n");
    write_out(
        &format!(
            "{}-seed{}-trace{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ),
        &full,
    );
    println!("{line}");
}

/// Writes a result file under `.bench_out/` in the working directory.
fn write_out(name: &str, body: &str) {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).expect("create .bench_out");
    std::fs::write(dir.join(name), body).expect("write result file");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric catalogue and `BENCHMARK.json` name the same metrics
    /// with the same units, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = doc.find(&format!("\"{key}\"")).expect("section present");
            let body = &doc[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect("field present");
                        let rest = &entry[at + f.len() + 2..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = rest[open..].find('"').expect("value closes") + open;
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let want = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), want(&END_TO_END));
        assert_eq!(section("per_layer"), want(&PER_LAYER));
    }
}
