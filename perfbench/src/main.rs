//! The repository benchmark: one command that runs a Parallax workload
//! from generated inputs, checks its outputs bit for bit, and prints
//! every metric by name with its unit. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer breakdown
//! from a traced run with `--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lm-sparse --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--workload all` runs every workload untraced and traced in turn.

mod affinity;
mod checks;
mod layers;
mod serve;
mod stats;
mod train;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use train::{Model, Wire};

/// Every workload, in report order.
const WORKLOADS: [&str; 4] = [
    "lm-sparse",
    "resnet-dense",
    "lm-sparse-tcp",
    "serve-lm-open",
];

/// End-to-end metrics (`--trace 0`), name and unit. On training
/// workloads `p50_ms` is the step-time median; on `serve-lm-open` it is
/// the request latency median at the nominal rate, and `samples_per_s`
/// is the served capacity.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("samples_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), name and unit. A layer a workload
/// bypasses reads 0. `tail_ms` (step-time or latency p90) is here rather
/// than end to end: one contended run on a shared host can triple it.
const PER_LAYER: [(&str, &str); 45] = [
    ("tail_ms", "ms"),
    ("trace.step_ms", "ms"),
    ("core.forward_ms", "ms"),
    ("core.backward_ms", "ms"),
    ("core.exchange_ms", "ms"),
    ("core.apply_ms", "ms"),
    ("core.other_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.unattributed_pct", "%"),
    ("dataflow.compute_ms", "ms"),
    ("dataflow.variable_read_ms", "ms"),
    ("dataflow.ops_per_step", "count"),
    ("tensor.kernel_ms", "ms"),
    ("comm.collective_ms", "ms"),
    ("comm.msgs_per_step.nccl", "count"),
    ("comm.msgs_per_step.mpi", "count"),
    ("comm.msgs_per_step.ps", "count"),
    ("comm.bytes_per_step.nccl", "B"),
    ("comm.bytes_per_step.mpi", "B"),
    ("comm.bytes_per_step.ps", "B"),
    ("ps.requests_per_step", "count"),
    ("ps.client_ms", "ms"),
    ("ps.wait_us_mean", "us"),
    ("ps.service_us_mean", "us"),
    ("ps.server_busy_ms", "ms"),
    ("ps.server_wait_ms", "ms"),
    ("ps.server_busy_frac", "ratio"),
    ("net.connect_ms", "ms"),
    ("net.frames_per_step", "count"),
    ("net.send_ms", "ms"),
    ("net.transport_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.batch_ms", "ms"),
    ("serve.worker_latency_ms_p50", "ms"),
    ("serve.shed_frac", "ratio"),
    ("serve.snapshot_load_ms", "ms"),
    ("serve.qps_at_slo", "1/s"),
    ("serve.lat_ms_p99.r2000", "ms"),
    ("serve.lat_ms_p99.r5000", "ms"),
    ("serve.lat_ms_p99.r10000", "ms"),
    ("serve.lat_ms_p99.r20000", "ms"),
    ("serve.lat_ms_p99.r40000", "ms"),
    ("models.feed_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("bench.gen_lag_ms_p99", "ms"),
];

/// Mixes a workload seed with a stream tag and index (SplitMix64), so
/// every generated input stream is a pure function of the seed.
pub fn mix(seed: u64, tag: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Operations attempted (training steps, serve requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or failed a check.
    pub failed: u64,
    /// Check failures and errors, one line each.
    pub errors: Vec<String>,
    /// Human-readable report lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Counts `ops` attempted operations, failed if `result` is an error.
    pub fn record(&mut self, ops: usize, result: Result<(), String>) {
        self.attempted += ops as u64;
        if let Err(e) = result {
            self.failed += ops as u64;
            self.errors.push(e);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: parallax-perfbench --workload <lm-sparse|resnet-dense|lm-sparse-tcp|serve-lm-open|all> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set size of this process (VmHWM), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut out = match name {
        "lm-sparse" => train::run(Model::Lm, Wire::InProcess, seed, seconds, trace),
        "resnet-dense" => train::run(Model::ResNet, Wire::InProcess, seed, seconds, trace),
        "lm-sparse-tcp" => train::run(Model::Lm, Wire::Tcp, seed, seconds, trace),
        "serve-lm-open" => serve::run(seed, seconds, trace),
        other => Err(format!("unknown workload {other}")),
    }?;
    out.set("peak_rss_mb", peak_rss_mb()?);
    Ok(out)
}

/// Formats `value` as a JSON number with every digit Rust's shortest
/// round-trip rendering gives.
fn json_number(value: f64) -> Result<String, String> {
    if value.is_finite() {
        Ok(format!("{value:?}"))
    } else {
        Err(format!("non-finite metric value {value}"))
    }
}

/// Renders the result line for the metrics of one mode; `correct` also
/// covers any earlier runs of `--workload all`.
fn result_json(out: &Outcome, trace: bool, correct: bool) -> Result<String, String> {
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = String::new();
    for (i, (name, unit)) in list.iter().enumerate() {
        let value = match out.values.get(*name) {
            Some(&v) => v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)?
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        correct,
        out.attempted.max(1),
        out.failed
    ))
}

fn print_report(name: &str, out: &Outcome, trace: bool) {
    println!(
        "== {name} ({}) ==",
        if trace {
            "traced: per-layer rows"
        } else {
            "untraced: end to end"
        }
    );
    for line in &out.notes {
        println!("  {line}");
    }
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for (metric, unit) in list {
        if let Some(v) = out.values.get(*metric) {
            println!("  {metric:<28} {v:>14.4} {unit}");
        }
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  failed_frac {failed_frac} ({} of {} operations)",
        out.failed, out.attempted
    );
    for e in &out.errors {
        println!("  CHECK FAILED: {e}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let runs: Vec<(&str, bool)> = if args.workload == "all" {
        WORKLOADS
            .iter()
            .flat_map(|w| [(*w, false), (*w, true)])
            .collect()
    } else {
        let w = WORKLOADS
            .iter()
            .find(|w| **w == args.workload)
            .expect("validated");
        vec![(*w, args.trace)]
    };
    let mut last = None;
    let mut ok = true;
    for (name, trace) in runs {
        let out = match run_workload(name, args.seed, args.seconds, trace) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("{name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        print_report(name, &out, trace);
        ok &= out.errors.is_empty() && out.failed == 0;
        last = Some((out, trace));
    }
    let (out, trace) = last.expect("at least one run");
    match result_json(&out, trace, ok) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
