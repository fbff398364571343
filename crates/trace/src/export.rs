//! Exporters for [`TraceDump`]: Chrome-trace JSON, per-iteration
//! breakdown tables, straggler reports, and a machine-readable summary.
//!
//! The JSON documents are built as [`crate::json::Value`]s, so they
//! are well-formed JSON that `chrome://tracing` / Perfetto will load.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Value;
use crate::tracer::{FlowPoint, SpanCat, SpanRecord, TraceDump, SIM_LANE, UNTRACKED_MACHINE};

/// Name of the per-iteration phase span the runner opens around each
/// training iteration; the straggler report keys off it.
pub const ITERATION_SPAN: &str = "iteration";

/// Phase spans that make up a machine's *un-gated* busy time. In
/// synchronous mode the `iteration` spans of all machines end together
/// at the barrier, so straggler skew must be read off the compute
/// phases (plus any injected straggler delay) instead.
pub const COMPUTE_PHASE_SPANS: [&str; 3] = ["phase.forward", "phase.backward", "phase.straggle"];

// ----------------------------------------------------------------- helpers

/// Nanoseconds as the microseconds Chrome trace timestamps use.
fn us(ns: u64) -> Value {
    Value::fixed(ns as f64 / 1000.0, 3)
}

/// Exclusive (self) duration per record: duration minus the duration of
/// direct children, reconstructed per `(machine, lane)` track from span
/// intervals. Returned vector is indexed like `records`.
pub fn self_durations(records: &[SpanRecord]) -> Vec<u64> {
    let mut selfs: Vec<u64> = records.iter().map(|r| r.dur_ns).collect();
    let mut tracks: BTreeMap<(u32, u32), Vec<usize>> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        tracks.entry((r.machine, r.lane)).or_default().push(i);
    }
    for idxs in tracks.values_mut() {
        // Parents sort before children: earlier start first, and at
        // equal start the longer (enclosing) span first.
        idxs.sort_by(|&a, &b| {
            records[a]
                .start_ns
                .cmp(&records[b].start_ns)
                .then(records[b].dur_ns.cmp(&records[a].dur_ns))
        });
        let end = |i: usize| records[i].start_ns + records[i].dur_ns;
        let mut stack: Vec<usize> = Vec::new();
        for &i in idxs.iter() {
            while let Some(&top) = stack.last() {
                if end(top) <= records[i].start_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&top) = stack.last() {
                selfs[top] = selfs[top].saturating_sub(records[i].dur_ns);
            }
            stack.push(i);
        }
    }
    selfs
}

// ------------------------------------------------------------ chrome trace

/// Renders the dump in the Chrome trace event format (JSON object
/// form), loadable in `chrome://tracing` and Perfetto. Each machine
/// becomes a process (`pid`), each worker/server lane a thread (`tid`);
/// modelled (simulated) spans sit on a dedicated `sim (modelled)` lane
/// of the same process.
pub fn chrome_trace(dump: &TraceDump) -> String {
    let mut events = Vec::with_capacity(dump.records.len() + 16);

    // Metadata: process names for every machine, thread names for every
    // known lane (registered threads + any sim lanes present).
    let mut machines: Vec<u32> = dump.records.iter().map(|r| r.machine).collect();
    machines.sort_unstable();
    machines.dedup();
    for m in machines {
        events.push(Value::object([
            ("ph", "M".into()),
            ("pid", m.into()),
            ("name", "process_name".into()),
            (
                "args",
                Value::object([("name", format!("machine{m}").into())]),
            ),
        ]));
    }
    let mut named: Vec<(u32, u32, String)> = dump
        .threads
        .iter()
        .map(|t| (t.machine, t.lane, t.label.clone()))
        .collect();
    let mut sim_lanes: Vec<u32> = dump
        .records
        .iter()
        .filter(|r| r.lane == SIM_LANE)
        .map(|r| r.machine)
        .collect();
    sim_lanes.sort_unstable();
    sim_lanes.dedup();
    for m in sim_lanes {
        named.push((m, SIM_LANE, "sim (modelled)".to_string()));
    }
    named.sort();
    named.dedup();
    for (machine, lane, label) in named {
        events.push(Value::object([
            ("ph", "M".into()),
            ("pid", machine.into()),
            ("tid", lane.into()),
            ("name", "thread_name".into()),
            ("args", Value::object([("name", label.into())])),
        ]));
    }

    // Complete ("X") events, sorted for stable output.
    let mut order: Vec<usize> = (0..dump.records.len()).collect();
    order.sort_by_key(|&i| {
        let r = &dump.records[i];
        (r.machine, r.lane, r.start_ns, std::cmp::Reverse(r.dur_ns))
    });
    for i in order {
        let r = &dump.records[i];
        events.push(Value::object([
            ("ph", "X".into()),
            ("pid", r.machine.into()),
            ("tid", r.lane.into()),
            ("ts", us(r.start_ns)),
            ("dur", us(r.dur_ns)),
            ("name", r.name.into()),
            ("cat", r.cat.as_str().into()),
            (
                "args",
                Value::object([("iter", r.iter.into()), ("bytes", r.bytes.into())]),
            ),
        ]));
        // Flow events bind to the enclosing slice on their pid/tid at
        // `ts`; emitting them at the slice midpoint keeps the binding
        // unambiguous even with zero-length neighbours.
        let mut flow = match r.flow {
            FlowPoint::None => continue,
            FlowPoint::Start(id) => vec![("ph", "s".into()), ("id", id.into())],
            FlowPoint::Finish(id) => {
                vec![("ph", "f".into()), ("bp", "e".into()), ("id", id.into())]
            }
        };
        flow.extend([
            ("pid", r.machine.into()),
            ("tid", r.lane.into()),
            ("ts", us(r.start_ns + r.dur_ns / 2)),
            ("name", "ps.flow".into()),
            ("cat", "flow".into()),
        ]);
        events.push(Value::object(flow));
    }
    Value::object([
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", "ms".into()),
    ])
    .to_string()
}

// ------------------------------------------------------------- flow checker

/// Validates flow pairing in a dump: every flow id must appear on
/// exactly one [`FlowPoint::Start`] span and exactly one
/// [`FlowPoint::Finish`] span. Returns the number of matched pairs.
pub fn check_flows(dump: &TraceDump) -> Result<usize, String> {
    let mut pairs: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for r in &dump.records {
        match r.flow {
            FlowPoint::None => {}
            FlowPoint::Start(id) => pairs.entry(id).or_default().0 += 1,
            FlowPoint::Finish(id) => pairs.entry(id).or_default().1 += 1,
        }
    }
    for (id, (starts, finishes)) in &pairs {
        if *starts != 1 || *finishes != 1 {
            return Err(format!(
                "flow {id:#x}: {starts} start(s), {finishes} finish(es); want exactly 1 of each"
            ));
        }
    }
    Ok(pairs.len())
}

// -------------------------------------------------------- breakdown table

/// Plain-text per-iteration breakdown: for each iteration, the *self*
/// time of every phase span (exclusive of nested phases, so `exchange`
/// excludes the `apply` time nested inside it), summed over all threads
/// and maxed over machines; followed by per-category totals and the top
/// compute ops by self time.
pub fn breakdown_table(dump: &TraceDump) -> String {
    let selfs = self_durations(&dump.records);
    let ms = |ns: u64| ns as f64 / 1e6;

    // (iter, phase name) -> (self total ns, per-machine self ns)
    type PhaseAcc = BTreeMap<(u64, &'static str), (u64, BTreeMap<u32, u64>)>;
    let mut phases: PhaseAcc = BTreeMap::new();
    let mut cats: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new(); // count,self,bytes
    let mut ops: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new(); // count,self
    for (i, r) in dump.records.iter().enumerate() {
        let c = cats.entry(r.cat.as_str()).or_default();
        c.0 += 1;
        c.1 += selfs[i];
        c.2 += r.bytes;
        match r.cat {
            SpanCat::Phase => {
                let e = phases.entry((r.iter, r.name)).or_default();
                e.0 += selfs[i];
                *e.1.entry(r.machine).or_default() += selfs[i];
            }
            SpanCat::Compute => {
                let e = ops.entry(r.name).or_default();
                e.0 += 1;
                e.1 += selfs[i];
            }
            _ => {}
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "per-iteration phase breakdown (self time)");
    let _ = writeln!(
        out,
        "{:>5}  {:<16} {:>14} {:>16}",
        "iter", "phase", "self-total(ms)", "max-machine(ms)"
    );
    for ((iter, name), (total, per_machine)) in &phases {
        let max_machine = per_machine.values().copied().max().unwrap_or(0);
        let _ = writeln!(
            out,
            "{:>5}  {:<16} {:>14.3} {:>16.3}",
            iter,
            name,
            ms(*total),
            ms(max_machine)
        );
    }

    let _ = writeln!(out, "\nby category (self time)");
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>14} {:>14}",
        "category", "spans", "self-total(ms)", "bytes"
    );
    for (cat, (count, self_ns, bytes)) in &cats {
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>14.3} {:>14}",
            cat,
            count,
            ms(*self_ns),
            bytes
        );
    }

    if !ops.is_empty() {
        let mut top: Vec<(&'static str, (u64, u64))> = ops.into_iter().collect();
        top.sort_by_key(|(_, (_, s))| std::cmp::Reverse(*s));
        let _ = writeln!(out, "\ntop compute ops (self time)");
        let _ = writeln!(out, "{:<20} {:>8} {:>14}", "op", "spans", "self-total(ms)");
        for (name, (count, self_ns)) in top.into_iter().take(8) {
            let _ = writeln!(out, "{:<20} {:>8} {:>14.3}", name, count, ms(self_ns));
        }
    }
    out
}

// -------------------------------------------------------- straggler report

/// Per-iteration straggler statistics derived from `iteration` phase
/// spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterStat {
    /// Iteration number.
    pub iter: u64,
    /// Slowest machine's iteration time (ns). The straggler bound.
    pub max_ns: u64,
    /// Median machine iteration time (ns).
    pub median_ns: u64,
    /// Machine id of the straggler.
    pub slowest_machine: u32,
}

/// Computes per-iteration max/median machine times from the measured
/// `iteration` phase spans (per machine, the longest worker lane's span
/// counts as that machine's time).
pub fn straggler_stats(dump: &TraceDump) -> Vec<IterStat> {
    let mut per_iter: BTreeMap<u64, BTreeMap<u32, u64>> = BTreeMap::new();
    for r in &dump.records {
        if r.cat == SpanCat::Phase && r.name == ITERATION_SPAN && r.lane != SIM_LANE {
            let m = per_iter.entry(r.iter).or_default();
            let e = m.entry(r.machine).or_default();
            *e = (*e).max(r.dur_ns);
        }
    }
    per_iter
        .into_iter()
        .map(|(iter, machines)| {
            let (&slowest_machine, &max_ns) = machines
                .iter()
                .max_by_key(|(_, &d)| d)
                .expect("non-empty by construction");
            let mut durs: Vec<u64> = machines.values().copied().collect();
            durs.sort_unstable();
            let median_ns = durs[durs.len() / 2];
            IterStat {
                iter,
                max_ns,
                median_ns,
                slowest_machine,
            }
        })
        .collect()
}

/// Per-iteration machine *busy* (compute-phase) times from the spans in
/// [`COMPUTE_PHASE_SPANS`]: `[iter][machine]`. Per machine, each worker
/// lane's phase durations are summed and the busiest lane counts as
/// that machine's time.
fn machine_busy_ns(dump: &TraceDump) -> BTreeMap<u64, BTreeMap<u32, u64>> {
    let mut per_iter: BTreeMap<u64, BTreeMap<u32, BTreeMap<u32, u64>>> = BTreeMap::new();
    for r in &dump.records {
        if r.cat == SpanCat::Phase
            && COMPUTE_PHASE_SPANS.contains(&r.name)
            && r.lane != SIM_LANE
            && r.machine != UNTRACKED_MACHINE
        {
            *per_iter
                .entry(r.iter)
                .or_default()
                .entry(r.machine)
                .or_default()
                .entry(r.lane)
                .or_default() += r.dur_ns;
        }
    }
    per_iter
        .into_iter()
        .map(|(iter, machines)| {
            let busy = machines
                .into_iter()
                .map(|(m, lanes)| (m, lanes.values().copied().max().unwrap_or(0)))
                .collect();
            (iter, busy)
        })
        .collect()
}

/// Computes per-iteration max/median machine busy times (see
/// [`machine_busy_ns`]). Unlike [`straggler_stats`] this is not gated
/// by the synchronization barrier, so an injected straggler shows up
/// here even when every `iteration` span ends at the same barrier.
pub fn compute_skew_stats(dump: &TraceDump) -> Vec<IterStat> {
    machine_busy_ns(dump)
        .into_iter()
        .map(|(iter, busy)| {
            let (&slowest_machine, &max_ns) = busy
                .iter()
                .max_by_key(|(_, &d)| d)
                .expect("non-empty by construction");
            let mut durs: Vec<u64> = busy.values().copied().collect();
            durs.sort_unstable();
            let median_ns = durs[durs.len() / 2];
            IterStat {
                iter,
                max_ns,
                median_ns,
                slowest_machine,
            }
        })
        .collect()
}

/// Best-of compute-skew ratio (`None` without compute spans): each
/// machine's busy time is its minimum over iterations, and the ratio is
/// the largest of those minima over their upper median. When more
/// worker threads than cores share a host, a machine's busy time in any
/// one iteration depends on which peers crowded it; its fastest
/// iteration is the least crowded sample, so the ratio compares the
/// machines' own compute costs (an injected straggler scales its own
/// compute, so it keeps its factor in its fastest iteration too).
pub fn best_of_ratio(dump: &TraceDump) -> Option<f64> {
    let mut best: BTreeMap<u32, u64> = BTreeMap::new();
    for busy in machine_busy_ns(dump).into_values() {
        for (m, ns) in busy {
            let b = best.entry(m).or_insert(ns);
            *b = (*b).min(ns);
        }
    }
    let mut durs: Vec<u64> = best.into_values().collect();
    durs.sort_unstable();
    let max = *durs.last()?;
    Some(max as f64 / durs[durs.len() / 2].max(1) as f64)
}

/// Aggregate max/median ratio over a stats vector (1.0 when empty):
/// total max divided by total median, which is more stable than the
/// mean of per-iteration ratios on noisy hosts.
pub fn aggregate_ratio(stats: &[IterStat]) -> f64 {
    let sum_max: u64 = stats.iter().map(|s| s.max_ns).sum();
    let sum_med: u64 = stats.iter().map(|s| s.median_ns).sum();
    if sum_med == 0 {
        1.0
    } else {
        sum_max as f64 / sum_med as f64
    }
}

fn stat_table(out: &mut String, stats: &[IterStat]) {
    let _ = writeln!(
        out,
        "{:>5} {:>12} {:>12} {:>8} {:>10}",
        "iter", "max(ms)", "median(ms)", "ratio", "straggler"
    );
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut sum_max = 0u64;
    let mut sum_med = 0u64;
    for s in stats {
        sum_max += s.max_ns;
        sum_med += s.median_ns;
        let ratio = s.max_ns as f64 / s.median_ns.max(1) as f64;
        let _ = writeln!(
            out,
            "{:>5} {:>12.3} {:>12.3} {:>8.3} {:>10}",
            s.iter,
            ms(s.max_ns),
            ms(s.median_ns),
            ratio,
            format!("machine{}", s.slowest_machine)
        );
    }
    let n = stats.len() as f64;
    let _ = writeln!(
        out,
        "mean max {:.3} ms, mean median {:.3} ms, mean straggler ratio {:.3}",
        ms(sum_max) / n,
        ms(sum_med) / n,
        sum_max as f64 / sum_med.max(1) as f64
    );
}

/// Plain-text straggler report: per-iteration max vs. median machine
/// time plus an aggregate slowdown ratio. Two sections: barrier-gated
/// `iteration` spans (equalized by synchronous exchanges) and un-gated
/// compute-phase busy time (where injected stragglers are visible).
pub fn straggler_report(dump: &TraceDump) -> String {
    let stats = straggler_stats(dump);
    let mut out = String::new();
    let _ = writeln!(out, "straggler report (per-iteration machine times)");
    if stats.is_empty() {
        let _ = writeln!(out, "  no `{ITERATION_SPAN}` phase spans recorded");
        return out;
    }
    stat_table(&mut out, &stats);
    let compute = compute_skew_stats(dump);
    if !compute.is_empty() {
        let _ = writeln!(
            out,
            "\ncompute-skew report (un-gated per-machine busy time)"
        );
        stat_table(&mut out, &compute);
    }
    if let Some((_, h)) = dump
        .histograms
        .iter()
        .find(|(n, _)| n == "ps.wait_ns")
        .filter(|(_, h)| h.count > 0)
    {
        let ms = |ns: f64| ns / 1e6;
        let _ = writeln!(
            out,
            "\nps wait (server idle gap per request, power-of-two buckets)"
        );
        let _ = writeln!(
            out,
            "  n={}, mean {:.3} ms, p50 <= {:.3} ms, p99 <= {:.3} ms",
            h.count,
            ms(h.mean()),
            ms(h.quantile_upper_bound(0.5) as f64),
            ms(h.quantile_upper_bound(0.99) as f64),
        );
    }
    out
}

// ------------------------------------------------------------ summary json

/// Machine-readable summary of the dump (span totals per category,
/// counters, histogram digests, straggler stats). Valid JSON.
pub fn summary_json(dump: &TraceDump) -> String {
    let selfs = self_durations(&dump.records);
    let mut spans = Vec::new();
    for cat in SpanCat::all() {
        let (mut count, mut total_ns, mut self_ns, mut bytes) = (0u64, 0u64, 0u64, 0u64);
        for (i, r) in dump.records.iter().enumerate() {
            if r.cat == cat {
                count += 1;
                total_ns += r.dur_ns;
                self_ns += selfs[i];
                bytes += r.bytes;
            }
        }
        if count > 0 {
            spans.push((
                cat.as_str(),
                Value::object([
                    ("count", count.into()),
                    ("total_ns", total_ns.into()),
                    ("self_ns", self_ns.into()),
                    ("bytes", bytes.into()),
                ]),
            ));
        }
    }
    let histograms = dump.histograms.iter().map(|(name, h)| {
        (
            name.as_str(),
            Value::object([
                ("count", h.count.into()),
                ("sum", h.sum.into()),
                ("mean", Value::fixed(h.mean(), 3)),
                ("p50_ub", h.quantile_upper_bound(0.5).into()),
                ("p99_ub", h.quantile_upper_bound(0.99).into()),
            ]),
        )
    });
    let stragglers = straggler_stats(dump).into_iter().map(|s| {
        Value::object([
            ("iter", s.iter.into()),
            ("max_ns", s.max_ns.into()),
            ("median_ns", s.median_ns.into()),
            ("slowest_machine", s.slowest_machine.into()),
        ])
    });
    Value::object([
        ("schema", "parallax-trace-summary-v1".into()),
        ("spans", Value::object(spans)),
        ("total_span_bytes", dump.total_span_bytes().into()),
        ("unattributed_net_bytes", dump.unattributed_net_bytes.into()),
        ("dropped", dump.dropped.into()),
        (
            "counters",
            Value::object(
                dump.counters
                    .iter()
                    .map(|(name, v)| (name.as_str(), (*v).into())),
            ),
        ),
        ("histograms", Value::object(histograms)),
        ("stragglers", stragglers.collect()),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::tracer::{ThreadInfo, UNTRACKED_MACHINE};

    #[allow(clippy::too_many_arguments)]
    fn rec(
        cat: SpanCat,
        name: &'static str,
        machine: u32,
        lane: u32,
        start: u64,
        dur: u64,
        iter: u64,
        bytes: u64,
    ) -> SpanRecord {
        SpanRecord {
            cat,
            name,
            machine,
            lane,
            start_ns: start,
            dur_ns: dur,
            iter,
            bytes,
            flow: FlowPoint::None,
        }
    }

    fn sample_dump() -> TraceDump {
        TraceDump {
            records: vec![
                rec(SpanCat::Phase, "iteration", 0, 1, 0, 1000, 0, 0),
                rec(SpanCat::Phase, "phase.forward", 0, 1, 0, 300, 0, 0),
                rec(SpanCat::Compute, "MatMul", 0, 1, 10, 200, 0, 0),
                rec(SpanCat::Phase, "phase.exchange", 0, 1, 600, 400, 0, 0),
                rec(SpanCat::Phase, "phase.apply", 0, 1, 800, 100, 0, 0),
                rec(SpanCat::Collective, "allreduce", 0, 1, 610, 150, 0, 512),
                rec(SpanCat::Phase, "iteration", 1, 1, 0, 1600, 0, 0),
                rec(SpanCat::Sim, "sim.compute", 0, SIM_LANE, 0, 900, 0, 0),
            ],
            threads: vec![ThreadInfo {
                machine: 0,
                lane: 1,
                label: "worker0".to_string(),
            }],
            counters: vec![("c\"x".to_string(), 3)],
            histograms: vec![],
            unattributed_net_bytes: 4,
            dropped: 0,
        }
    }

    #[test]
    fn self_durations_subtract_direct_children() {
        let d = sample_dump();
        let selfs = self_durations(&d.records);
        // iteration(1000) minus forward(300)+exchange(400) = 300.
        assert_eq!(selfs[0], 300);
        // forward(300) minus MatMul(200) = 100.
        assert_eq!(selfs[1], 100);
        // exchange(400) minus apply(100)+allreduce(150) = 150.
        assert_eq!(selfs[3], 150);
        // Leaves keep their full duration.
        assert_eq!(selfs[2], 200);
        assert_eq!(selfs[4], 100);
        // Other tracks unaffected.
        assert_eq!(selfs[6], 1600);
        assert_eq!(selfs[7], 900);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_rows() {
        let json = chrome_trace(&sample_dump());
        json::parse(&json).expect("chrome trace must be valid JSON");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"machine0\""));
        assert!(json.contains("\"name\":\"machine1\""));
        assert!(json.contains("\"name\":\"worker0\""));
        assert!(json.contains("sim (modelled)"));
        assert!(json.contains("\"cat\":\"collective\""));
        assert!(json.contains("\"bytes\":512"));
    }

    #[test]
    fn summary_json_is_valid_and_cross_checks_bytes() {
        let d = sample_dump();
        let json = summary_json(&d);
        json::parse(&json).expect("summary must be valid JSON");
        assert!(json.contains("\"total_span_bytes\":516"));
        assert!(json.contains("\"c\\\"x\":3"));
    }

    #[test]
    fn breakdown_table_lists_phases() {
        let table = breakdown_table(&sample_dump());
        assert!(table.contains("phase.forward"));
        assert!(table.contains("phase.exchange"));
        assert!(table.contains("MatMul"));
    }

    #[test]
    fn straggler_stats_pick_slowest_machine() {
        let stats = straggler_stats(&sample_dump());
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].max_ns, 1600);
        assert_eq!(stats[0].slowest_machine, 1);
        assert_eq!(stats[0].median_ns, 1600); // median of [1000, 1600] -> upper
        let report = straggler_report(&sample_dump());
        assert!(report.contains("machine1"));
    }

    #[test]
    fn straggler_ignores_untracked_and_sim() {
        let mut d = sample_dump();
        d.records.push(rec(
            SpanCat::Phase,
            "iteration",
            UNTRACKED_MACHINE,
            SIM_LANE,
            0,
            9999,
            0,
            0,
        ));
        let stats = straggler_stats(&d);
        assert_eq!(stats[0].max_ns, 1600);
    }

    #[test]
    fn compute_skew_sees_straggler_behind_barrier() {
        // Both machines' `iteration` spans end at the barrier (equal
        // durations), but machine 1's backward phase is 3x longer.
        let mut d = TraceDump::default();
        for m in 0..2u32 {
            d.records
                .push(rec(SpanCat::Phase, "iteration", m, 0, 0, 1000, 0, 0));
            d.records
                .push(rec(SpanCat::Phase, "phase.forward", m, 0, 0, 100, 0, 0));
            let bwd = if m == 1 { 600 } else { 200 };
            d.records
                .push(rec(SpanCat::Phase, "phase.backward", m, 0, 100, bwd, 0, 0));
        }
        let gated = straggler_stats(&d);
        assert_eq!(gated[0].max_ns, 1000);
        assert_eq!(gated[0].median_ns, 1000);
        let skew = compute_skew_stats(&d);
        assert_eq!(skew.len(), 1);
        assert_eq!(skew[0].max_ns, 700);
        assert_eq!(skew[0].median_ns, 700); // upper median of [300, 700]
        assert_eq!(skew[0].slowest_machine, 1);
        let report = straggler_report(&d);
        assert!(report.contains("compute-skew report"));
    }

    #[test]
    fn straggler_report_exports_ps_wait_p99() {
        let mut d = sample_dump();
        assert!(!straggler_report(&d).contains("ps wait"));
        // 9 zero-gap serves and one ~1ms gap: the p99 bound lands at the
        // top of the 2^20 ns bucket (1.049 ms).
        let mut buckets = vec![0u64; 21];
        buckets[0] = 9;
        buckets[20] = 1;
        d.histograms.push((
            "ps.wait_ns".to_string(),
            crate::HistogramSnapshot {
                count: 10,
                sum: 1_000_000,
                buckets,
            },
        ));
        let report = straggler_report(&d);
        assert!(report.contains("ps wait"), "{report}");
        assert!(report.contains("p99 <= 1.049 ms"), "{report}");
    }

    #[test]
    fn compute_skew_takes_busiest_lane_per_machine() {
        let mut d = TraceDump::default();
        // Machine 0: two parallel workers, lane 1 busier.
        d.records
            .push(rec(SpanCat::Phase, "phase.forward", 0, 0, 0, 100, 0, 0));
        d.records
            .push(rec(SpanCat::Phase, "phase.forward", 0, 1, 0, 250, 0, 0));
        d.records
            .push(rec(SpanCat::Phase, "phase.straggle", 0, 1, 250, 50, 0, 0));
        d.records
            .push(rec(SpanCat::Phase, "phase.forward", 1, 0, 0, 150, 0, 0));
        let skew = compute_skew_stats(&d);
        assert_eq!(skew[0].max_ns, 300);
        assert_eq!(skew[0].slowest_machine, 0);
    }

    #[test]
    fn best_of_ratio_uses_each_machines_fastest_iteration() {
        // Machine 0 straggles 2x its own compute; in iterations 1 and 2
        // the other machines were crowded and ran slow, which pulls those
        // iterations' ratios down to 1 but not the best-of ratio.
        let mut d = TraceDump::default();
        for (iter, busy) in [[200u64, 100, 100], [240, 240, 240], [240, 250, 250]]
            .into_iter()
            .enumerate()
        {
            for (m, dur) in busy.into_iter().enumerate() {
                d.records.push(rec(
                    SpanCat::Phase,
                    "phase.forward",
                    m as u32,
                    0,
                    0,
                    dur,
                    iter as u64,
                    0,
                ));
            }
        }
        let per_iter: Vec<u64> = compute_skew_stats(&d)
            .iter()
            .map(|s| s.max_ns / s.median_ns)
            .collect();
        assert_eq!(per_iter, [2, 1, 1]);
        assert_eq!(best_of_ratio(&d), Some(2.0));
        assert_eq!(best_of_ratio(&TraceDump::default()), None);
    }

    #[test]
    fn flows_pair_and_export() {
        let mut d = sample_dump();
        let mut start = rec(SpanCat::Ps, "ps.push_req", 0, 1, 100, 50, 0, 0);
        start.flow = FlowPoint::Start(0xabc);
        let mut finish = rec(SpanCat::Ps, "ps.serve.push_dense", 1, 9, 140, 30, 0, 0);
        finish.flow = FlowPoint::Finish(0xabc);
        d.records.push(start);
        d.records.push(finish);
        assert_eq!(check_flows(&d), Ok(1));
        let json = chrome_trace(&d);
        json::parse(&json).expect("chrome trace with flows must be valid JSON");
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\""));
        assert!(json.contains(&format!("\"id\":{}", 0xabc)));
    }

    #[test]
    fn check_flows_rejects_unpaired() {
        let mut d = TraceDump::default();
        let mut orphan = rec(SpanCat::Ps, "ps.push_req", 0, 1, 0, 10, 0, 0);
        orphan.flow = FlowPoint::Start(7);
        d.records.push(orphan.clone());
        assert!(check_flows(&d).is_err());
        // A duplicate start is also rejected.
        let mut finish = orphan.clone();
        finish.flow = FlowPoint::Finish(7);
        d.records.push(finish);
        assert_eq!(check_flows(&d), Ok(1));
        d.records.push(orphan);
        assert!(check_flows(&d).is_err());
    }
}
