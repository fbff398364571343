//! Per-layer step breakdown from a trace dump.
//!
//! A *step* is one `iteration` span on a training worker thread or one
//! `serve.batch` span on a serving worker thread. Every span nested in a
//! step contributes its self time (its duration minus the time its
//! children cover) to the layer its name belongs to; the step span's own
//! self time is `core.unattributed`. The rows therefore sum to the traced
//! step wall time, and [`StepRows::check_closed`] asserts that they do.
//! Parameter-server threads run no steps; they are reported separately
//! as busy time (top-level spans other than `ps.wait`) and wait time.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use parallax_trace::{SpanCat, SpanRecord, TraceDump};

use crate::Outcome;

/// The rows of the step breakdown, in report order.
const LAYERS: [&str; 13] = [
    "core.forward",
    "core.backward",
    "core.exchange",
    "core.apply",
    "core.other",
    "core.unattributed",
    "dataflow.compute",
    "dataflow.variable_read",
    "tensor.kernel",
    "comm.collective",
    "ps.client",
    "net.send",
    "models.feed",
];

/// Step spans: training iterations and serving batches.
const STEP_SPANS: [&str; 2] = ["iteration", "serve.batch"];

/// Names of the spans the benchmark records around its own calls.
pub const FEED_SPAN: &str = "bench.feed";
/// Span around each frame the socket transport writes.
pub const SEND_SPAN: &str = "net.send";

/// The layer a non-step span's self time belongs to.
fn layer_of(rec: &SpanRecord) -> &'static str {
    match rec.cat {
        SpanCat::Compute => match rec.name {
            "Variable" => "dataflow.variable_read",
            "MatMul" | "MatMulBT" | "LstmCellFused" => "tensor.kernel",
            _ => "dataflow.compute",
        },
        SpanCat::Collective => "comm.collective",
        SpanCat::Ps => "ps.client",
        SpanCat::Phase | SpanCat::Sim => match rec.name {
            "phase.forward" => "core.forward",
            "phase.backward" => "core.backward",
            "phase.exchange" => "core.exchange",
            "phase.apply" => "core.apply",
            FEED_SPAN => "models.feed",
            SEND_SPAN => "net.send",
            _ => "core.other",
        },
    }
}

/// Accumulated breakdown over one or more trace dumps.
#[derive(Debug, Default, Clone)]
pub struct StepRows {
    /// Step spans counted (summed over worker threads).
    pub steps: u64,
    /// Sum of the counted step spans' durations, ns.
    pub wall_ns: u64,
    /// Self time per layer inside counted steps, ns.
    pub layer_ns: BTreeMap<&'static str, u64>,
    /// Operator spans inside counted steps.
    pub ops: u64,
    /// Server threads: top-level busy time, ns.
    pub server_busy_ns: u64,
    /// Server threads: time in `ps.wait`, ns.
    pub server_wait_ns: u64,
    /// Server thread-iterations counted.
    pub server_steps: u64,
}

impl StepRows {
    /// Adds one dump's spans. Steps (and server iterations) tagged with
    /// an iteration below `min_iter` are warm-up and skipped.
    pub fn add(&mut self, dump: &TraceDump, min_iter: u64) -> Result<(), String> {
        if dump.dropped > 0 {
            return Err(format!(
                "trace ring overflowed: {} spans dropped",
                dump.dropped
            ));
        }
        let labels: HashMap<(u32, u32), &str> = dump
            .threads
            .iter()
            .map(|t| ((t.machine, t.lane), t.label.as_str()))
            .collect();
        let mut by_thread: BTreeMap<(u32, u32), Vec<&SpanRecord>> = BTreeMap::new();
        for rec in &dump.records {
            by_thread
                .entry((rec.machine, rec.lane))
                .or_default()
                .push(rec);
        }
        for (key, recs) in by_thread {
            let is_server = labels.get(&key).is_some_and(|l| l.starts_with("server("));
            self.add_thread(recs, is_server, min_iter)?;
        }
        Ok(())
    }

    fn add_thread(
        &mut self,
        recs: Vec<&SpanRecord>,
        is_server: bool,
        min_iter: u64,
    ) -> Result<(), String> {
        let end = |r: &SpanRecord| r.start_ns + r.dur_ns;
        // Parents sort before their children: earlier start first, then
        // later end, then later completion (a parent closes after its
        // children, so it sits later in the thread's record order).
        let mut order: Vec<usize> = (0..recs.len()).collect();
        order.sort_by_key(|&i| (recs[i].start_ns, Reverse(end(recs[i])), Reverse(i)));

        let mut self_ns: Vec<u64> = recs.iter().map(|r| r.dur_ns).collect();
        let mut root: Vec<Option<usize>> = vec![None; recs.len()];
        let mut top_level = vec![false; recs.len()];
        let mut stack: Vec<usize> = Vec::new();
        for &k in &order {
            while let Some(&top) = stack.last() {
                if recs[k].start_ns >= recs[top].start_ns && end(recs[k]) <= end(recs[top]) {
                    break;
                }
                stack.pop();
            }
            match stack.last() {
                Some(&parent) => {
                    self_ns[parent] =
                        self_ns[parent].checked_sub(recs[k].dur_ns).ok_or_else(|| {
                            format!(
                                "span {} outlasts the time left in its parent {}",
                                recs[k].name, recs[parent].name
                            )
                        })?;
                    let base = stack[0];
                    if STEP_SPANS.contains(&recs[base].name) {
                        root[k] = Some(base);
                    }
                }
                None => top_level[k] = true,
            }
            stack.push(k);
        }

        let mut server_iters = BTreeSet::new();
        for (k, rec) in recs.iter().enumerate() {
            if top_level[k] && STEP_SPANS.contains(&rec.name) {
                if rec.iter >= min_iter {
                    self.steps += 1;
                    self.wall_ns += rec.dur_ns;
                    *self.layer_ns.entry("core.unattributed").or_default() += self_ns[k];
                }
            } else if let Some(base) = root[k] {
                if recs[base].iter >= min_iter {
                    *self.layer_ns.entry(layer_of(rec)).or_default() += self_ns[k];
                    if rec.cat == SpanCat::Compute {
                        self.ops += 1;
                    }
                }
            } else if is_server && top_level[k] && rec.iter >= min_iter {
                server_iters.insert(rec.iter);
                if rec.name == "ps.wait" {
                    self.server_wait_ns += rec.dur_ns;
                } else {
                    self.server_busy_ns += rec.dur_ns;
                }
            }
        }
        self.server_steps += server_iters.len() as u64;
        Ok(())
    }

    /// The rows must sum to the traced step wall time, to the
    /// nanosecond.
    pub fn check_closed(&self) -> Result<(), String> {
        if self.steps == 0 {
            return Err("the trace holds no step spans".into());
        }
        let sum: u64 = self.layer_ns.values().sum();
        if sum != self.wall_ns {
            return Err(format!(
                "layer rows sum to {sum} ns, traced step wall is {} ns",
                self.wall_ns
            ));
        }
        Ok(())
    }

    /// Records the closure check (one checked operation) and the rows,
    /// per step per worker.
    pub fn report(&self, out: &mut Outcome) {
        out.record(1, self.check_closed());
        for layer in LAYERS {
            out.set(&format!("{layer}_ms"), self.per_step_ms(layer));
        }
        let step_ms = self.step_ms();
        out.set("trace.step_ms", step_ms);
        out.set(
            "core.unattributed_pct",
            100.0 * self.per_step_ms("core.unattributed") / step_ms.max(f64::MIN_POSITIVE),
        );
        out.set(
            "dataflow.ops_per_step",
            self.ops as f64 / self.steps.max(1) as f64,
        );
    }

    /// Milliseconds per step of `layer`.
    pub fn per_step_ms(&self, layer: &str) -> f64 {
        let ns = self.layer_ns.get(layer).copied().unwrap_or(0);
        ns as f64 / self.steps.max(1) as f64 / 1e6
    }

    /// Mean traced step wall time, ms.
    pub fn step_ms(&self) -> f64 {
        self.wall_ns as f64 / self.steps.max(1) as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_trace::{FlowPoint, ThreadInfo};

    fn rec(
        cat: SpanCat,
        name: &'static str,
        lane: u32,
        start: u64,
        dur: u64,
        iter: u64,
    ) -> SpanRecord {
        SpanRecord {
            cat,
            name,
            machine: 0,
            lane,
            start_ns: start,
            dur_ns: dur,
            iter,
            bytes: 0,
            flow: FlowPoint::None,
        }
    }

    /// One worker step (records in completion order, children first)
    /// and one server iteration.
    fn dump() -> TraceDump {
        TraceDump {
            records: vec![
                rec(SpanCat::Phase, FEED_SPAN, 0, 102, 8, 1),
                rec(SpanCat::Compute, "Variable", 0, 115, 5, 1),
                rec(SpanCat::Compute, "MatMul", 0, 120, 30, 1),
                rec(SpanCat::Phase, "phase.forward", 0, 112, 50, 1),
                rec(SpanCat::Collective, "allreduce", 0, 170, 20, 1),
                rec(SpanCat::Phase, "phase.exchange", 0, 165, 30, 1),
                rec(SpanCat::Phase, "iteration", 0, 100, 100, 1),
                rec(SpanCat::Phase, "iteration", 0, 0, 90, 0),
                rec(SpanCat::Ps, "ps.wait", 1, 100, 60, 1),
                rec(SpanCat::Ps, "ps.apply", 1, 165, 10, 1),
                rec(SpanCat::Ps, "ps.serve.push_dense", 1, 160, 20, 1),
            ],
            threads: vec![
                ThreadInfo {
                    machine: 0,
                    lane: 0,
                    label: "worker0 (rank 0)".into(),
                },
                ThreadInfo {
                    machine: 0,
                    lane: 1,
                    label: "server(m0)".into(),
                },
            ],
            ..TraceDump::default()
        }
    }

    #[test]
    fn rows_close_against_step_wall() {
        let mut rows = StepRows::default();
        rows.add(&dump(), 1).expect("well nested");
        rows.check_closed().expect("rows close");
        assert_eq!(rows.steps, 1, "the warm-up iteration is skipped");
        assert_eq!(rows.wall_ns, 100);
        let ns = |l: &str| rows.layer_ns.get(l).copied().unwrap_or(0);
        assert_eq!(ns("models.feed"), 8);
        assert_eq!(ns("dataflow.variable_read"), 5);
        assert_eq!(ns("tensor.kernel"), 30);
        assert_eq!(ns("core.forward"), 15);
        assert_eq!(ns("comm.collective"), 20);
        assert_eq!(ns("core.exchange"), 10);
        assert_eq!(ns("core.unattributed"), 100 - 8 - 50 - 30);
        assert_eq!(rows.ops, 2);
        assert_eq!((rows.server_busy_ns, rows.server_wait_ns), (20, 60));
        assert_eq!(rows.server_steps, 1);
    }

    #[test]
    fn closure_check_rejects_lost_or_overlapping_time() {
        // A dropped record breaks the books.
        let mut lossy = dump();
        lossy.dropped = 1;
        assert!(StepRows::default().add(&lossy, 1).is_err());
        // Rows that do not sum to the wall are rejected.
        let mut rows = StepRows::default();
        rows.add(&dump(), 1).expect("well nested");
        *rows.layer_ns.get_mut("tensor.kernel").expect("row") += 1;
        assert!(rows.check_closed().is_err());
        // Two children covering more than their parent cannot be
        // attributed without double counting.
        let mut overlap = dump();
        overlap
            .records
            .insert(0, rec(SpanCat::Compute, "Add", 0, 113, 27, 1));
        assert!(StepRows::default().add(&overlap, 1).is_err());
    }
}
