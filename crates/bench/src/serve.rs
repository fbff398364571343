//! `repro serve-bench`: snapshot-serving gate for the inference
//! subsystem.
//!
//! For each requested model (`lm`, `nmt`, or both) the bench:
//!
//! 1. **Trains** a tiny model for [`TRAIN_ITERS`] synchronous
//!    iterations on [`MACHINES`] machines with `snapshot_path` set, so
//!    the chief publishes a post-barrier `PLXSNAP2` snapshot every
//!    [`PUBLISH_EVERY`] iterations via the FetchShard protocol.
//! 2. **Times the zero-copy load** — a full validated
//!    [`Snapshot::open`] must stay under [`SNAPSHOT_LOAD_GATE_US`]
//!    (the loader maps weight pages, it never deserializes them).
//! 3. **Gates bitwise equality** — every response from a running
//!    [`ServeEngine`] (batched, multi-worker) must be bitwise equal to
//!    a *training-graph* forward pass over a [`VarStore`] rebuilt from
//!    the snapshot views. Serving batches pack differently from the
//!    reference batch, so this also exercises the engine's
//!    padding-independence invariant.
//! 4. **Measures throughput** — concurrent submitters drive the
//!    engine; QPS and exact p50/p99 latency are reported (ungated —
//!    shared CI hosts make absolute latency meaningless), alongside
//!    the power-of-two upper bounds from the `serve.latency_ns`
//!    histogram on `parallax-trace`.
//!
//! Results are written as `BENCH_serving.json`; a load-time or bitwise
//! violation makes `run` return `ok = false` so `repro serve-bench`
//! exits nonzero.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use parallax_core::snapshot::Snapshot;
use parallax_core::sparsity::estimate_profile;
use parallax_core::{get_runner, ParallaxConfig};
use parallax_dataflow::{Feed, Graph, NodeId, Session, Value, VarStore};
use parallax_models::data::ZipfCorpus;
use parallax_models::lm::{LmConfig, LmModel};
use parallax_models::nmt::{NmtConfig, NmtModel};
use parallax_serve::engine::ServeModel;
use parallax_serve::{LmRequest, LmServe, NmtRequest, NmtServe, ServeConfig, ServeEngine};
use parallax_tensor::{DetRng, Tensor};
use parallax_trace::{json, TraceConfig};

/// Machines in the training topology (1 GPU each; PS placement, so the
/// snapshot is assembled from PS shards over FetchShard).
const MACHINES: usize = 2;

/// Synchronous training iterations before serving.
const TRAIN_ITERS: usize = 4;

/// `checkpoint_interval` during the run: the chief republishes the
/// snapshot every this many iterations (the staleness bound `k`).
const PUBLISH_EVERY: usize = 2;

/// Concurrent submitter threads in the throughput section.
const SUBMITTERS: usize = 4;

/// Requests per submitter thread.
const REQS_PER_SUBMITTER: usize = 25;

/// A full validated snapshot load (open + header/CRC/range checks, no
/// weight-byte reads) must finish within this budget. Tiny-model
/// artifacts are a few hundred KB; half a second is a generous ceiling
/// that still catches accidental deserialization of weight bytes.
pub const SNAPSHOT_LOAD_GATE_US: u64 = 500_000;

/// One model's serving measurement.
pub struct ServingRow {
    /// Model name (`lm`, `nmt`).
    pub model: &'static str,
    /// Training step recorded in the served snapshot.
    pub snapshot_step: u64,
    /// Snapshot artifact size in bytes.
    pub snapshot_bytes: u64,
    /// Variables in the snapshot.
    pub snapshot_vars: usize,
    /// Wall time of one validated `Snapshot::open`, microseconds.
    pub load_us: u64,
    /// Were all served outputs bitwise equal to the training-graph
    /// forward pass on the snapshot weights?
    pub bitwise_equal: bool,
    /// Requests answered in the throughput section.
    pub requests: usize,
    /// Throughput-section wall time, seconds.
    pub wall_secs: f64,
    /// Exact p50 latency (sorted observed latencies), microseconds.
    pub p50_us: u64,
    /// Exact p99 latency, microseconds.
    pub p99_us: u64,
    /// Power-of-two upper bound on p50 from the trace histogram.
    pub hist_p50_us: u64,
    /// Power-of-two upper bound on p99 from the trace histogram.
    pub hist_p99_us: u64,
    /// Mean forward-pass batch size the batcher achieved.
    pub mean_batch: f64,
}

impl ServingRow {
    /// Requests per second in the throughput section.
    pub fn qps(&self) -> f64 {
        self.requests as f64 / self.wall_secs.max(1e-9)
    }
}

/// Rebuilds a [`VarStore`] for `graph` from the snapshot's views —
/// the reference weights for the bitwise gate.
fn store_from_snapshot(snap: &Snapshot, graph: &Graph) -> Result<VarStore, String> {
    let mut values = Vec::with_capacity(graph.variables().len());
    for def in graph.variables() {
        let view = snap.view(&def.name).map_err(|e| e.to_string())?;
        values.push(view.to_tensor());
    }
    Ok(VarStore::from_values(values))
}

/// Shared serving measurement: load gate, bitwise gate, throughput.
///
/// `train_feed` must carry the same inputs as `requests` (plus dummy
/// labels); `train_logits` row `i` is the reference for request `i`.
fn measure_serving<M>(
    name: &'static str,
    train_graph: &Graph,
    train_logits: NodeId,
    model: M,
    snap_path: &Path,
    requests: Vec<M::Request>,
    train_feed: Feed,
) -> Result<ServingRow, String>
where
    M: ServeModel<Output = Vec<f32>>,
    M::Request: Clone + Sync,
{
    // 1. Timed zero-copy load.
    let t = Instant::now();
    let snap = Snapshot::open(snap_path).map_err(|e| e.to_string())?;
    let load_us = t.elapsed().as_micros() as u64;
    let snapshot_bytes = std::fs::metadata(snap_path)
        .map_err(|e| e.to_string())?
        .len();
    if snap.step() != TRAIN_ITERS as u64 {
        return Err(format!(
            "snapshot records step {}, expected the final publish at {TRAIN_ITERS}",
            snap.step()
        ));
    }

    // 2. Reference: the *training* graph forward on a store rebuilt
    // from the snapshot (VarIds are shared by construction).
    let mut ref_store = store_from_snapshot(&snap, train_graph)?;
    let acts = Session::new(train_graph)
        .forward(&train_feed, &mut ref_store)
        .map_err(|e| e.to_string())?;
    let reference = acts.tensor(train_logits).map_err(|e| e.to_string())?;

    // 3. Serve the same requests through the engine; batches pack
    // differently from the reference batch, so equality also proves
    // padding rows don't perturb real rows.
    parallax_trace::configure(TraceConfig::on());
    parallax_trace::reset();
    let engine = ServeEngine::start(
        model,
        snap_path.to_path_buf(),
        ServeConfig {
            queue_capacity: 64,
            workers: 2,
            refresh: false,
        },
    )
    .map_err(|e| e.to_string())?;
    let mut bitwise_equal = true;
    for (i, req) in requests.iter().enumerate() {
        let resp = engine.call(req.clone()).map_err(|e| e.to_string())?;
        let expect = reference.row(i).map_err(|e| e.to_string())?;
        bitwise_equal &= resp.step == snap.step() && resp.output == expect;
    }

    // 4. Throughput under concurrent submitters.
    let t = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let engine = &engine;
        let requests = &requests;
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|s| {
                scope.spawn(move || -> Result<Vec<u64>, String> {
                    let mut out = Vec::with_capacity(REQS_PER_SUBMITTER);
                    for i in 0..REQS_PER_SUBMITTER {
                        let req = requests[(s + i) % requests.len()].clone();
                        let resp = engine.call(req).map_err(|e| e.to_string())?;
                        out.push(resp.latency_ns);
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?
    .into_iter()
    .flatten()
    .collect();
    let wall_secs = t.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let pct = |q: f64| latencies[((latencies.len() - 1) as f64 * q).round() as usize] / 1_000;
    let hist = parallax_trace::histogram("serve.latency_ns").snapshot();
    let batch = parallax_trace::histogram("serve.batch_size").snapshot();
    let row = ServingRow {
        model: name,
        snapshot_step: snap.step(),
        snapshot_bytes,
        snapshot_vars: snap.entries().len(),
        load_us,
        bitwise_equal,
        requests: latencies.len(),
        wall_secs,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        hist_p50_us: hist.quantile_upper_bound(0.50) / 1_000,
        hist_p99_us: hist.quantile_upper_bound(0.99) / 1_000,
        mean_batch: batch.mean(),
    };
    parallax_trace::disable();
    parallax_trace::reset();
    Ok(row)
}

/// Trains the tiny LM with snapshot publishing, then measures serving.
fn bench_lm() -> Result<ServingRow, String> {
    let model = LmModel::build(LmConfig::tiny()).map_err(|e| e.to_string())?;
    let corpus = ZipfCorpus::new(model.config.vocab, 1.0);
    let profile = {
        let feed = model.feed(&corpus, &mut DetRng::seed(100));
        estimate_profile(&model.built.graph, &[feed], 1).map_err(|e| e.to_string())?
    };
    let snap_path = std::env::temp_dir().join(format!(
        "parallax_serve_bench_lm_{}.plxsnap",
        std::process::id()
    ));
    let config = ParallaxConfig {
        snapshot_path: Some(snap_path.clone()),
        checkpoint_interval: PUBLISH_EVERY,
        ..ParallaxConfig::default()
    };
    let runner = get_runner(
        model.built.graph.clone(),
        model.built.loss,
        vec![1; MACHINES],
        config,
        profile,
    )
    .map_err(|e| e.to_string())?;
    let m = &model;
    let corpus_ref = &corpus;
    runner
        .run(TRAIN_ITERS, |w, i| {
            m.sharded_feed(corpus_ref, MACHINES, w, &mut DetRng::seed(9000 + i as u64))
        })
        .map_err(|e| e.to_string())?;

    let cfg = model.config;
    let requests: Vec<LmRequest> = (0..cfg.batch)
        .map(|b| LmRequest {
            context: (0..cfg.length)
                .map(|t| (7 * b + 3 * t + 1) % cfg.vocab)
                .collect(),
        })
        .collect();
    let mut train_feed = Feed::new()
        .with("cands", (0..cfg.vocab).collect::<Vec<usize>>())
        .with("h0", Tensor::zeros([cfg.batch, cfg.hidden]))
        .with("c0", Tensor::zeros([cfg.batch, cfg.hidden]));
    let mut ids = Vec::new();
    for t in 0..cfg.length {
        for r in &requests {
            ids.push(r.context[t]);
        }
        train_feed.insert(format!("labels_{t}"), vec![0usize; cfg.batch]);
    }
    train_feed.insert("ids", Value::Ids(ids));

    let serve = LmServe::new(&model).map_err(|e| e.to_string())?;
    let row = measure_serving(
        "lm",
        &model.built.graph,
        model.built.logits,
        serve,
        &snap_path,
        requests,
        train_feed,
    );
    std::fs::remove_file(&snap_path).ok();
    row
}

/// Trains the tiny NMT model with snapshot publishing, then measures
/// serving.
fn bench_nmt() -> Result<ServingRow, String> {
    let model = NmtModel::build(NmtConfig::tiny()).map_err(|e| e.to_string())?;
    let src = ZipfCorpus::new(model.config.src_vocab, 1.0);
    let tgt = ZipfCorpus::new(model.config.tgt_vocab, 1.0);
    let profile = {
        let feed = model.feed(&src, &tgt, &mut DetRng::seed(200));
        estimate_profile(&model.built.graph, &[feed], 1).map_err(|e| e.to_string())?
    };
    let snap_path = std::env::temp_dir().join(format!(
        "parallax_serve_bench_nmt_{}.plxsnap",
        std::process::id()
    ));
    let config = ParallaxConfig {
        snapshot_path: Some(snap_path.clone()),
        checkpoint_interval: PUBLISH_EVERY,
        ..ParallaxConfig::default()
    };
    let runner = get_runner(
        model.built.graph.clone(),
        model.built.loss,
        vec![1; MACHINES],
        config,
        profile,
    )
    .map_err(|e| e.to_string())?;
    let m = &model;
    let (src_ref, tgt_ref) = (&src, &tgt);
    runner
        .run(TRAIN_ITERS, |w, i| {
            m.sharded_feed(
                src_ref,
                tgt_ref,
                MACHINES,
                w,
                &mut DetRng::seed(9500 + i as u64),
            )
        })
        .map_err(|e| e.to_string())?;

    let cfg = model.config;
    let requests: Vec<NmtRequest> = (0..cfg.batch)
        .map(|b| NmtRequest {
            src: (0..cfg.length)
                .map(|t| (5 * b + 2 * t + 1) % cfg.src_vocab)
                .collect(),
            tgt_prefix: (0..cfg.length)
                .map(|t| (3 * b + 7 * t + 1) % cfg.tgt_vocab)
                .collect(),
        })
        .collect();
    let mut train_feed = Feed::new()
        .with("h0", Tensor::zeros([cfg.batch, cfg.hidden]))
        .with("c0", Tensor::zeros([cfg.batch, cfg.hidden]));
    let mut src_ids = Vec::new();
    let mut tgt_ids = Vec::new();
    for t in 0..cfg.length {
        for r in &requests {
            src_ids.push(r.src[t]);
            tgt_ids.push(r.tgt_prefix[t]);
        }
        train_feed.insert(format!("labels_{t}"), vec![0usize; cfg.batch]);
    }
    train_feed.insert("src_ids", Value::Ids(src_ids));
    train_feed.insert("tgt_ids", Value::Ids(tgt_ids));

    let serve = NmtServe::new(&model).map_err(|e| e.to_string())?;
    let row = measure_serving(
        "nmt",
        &model.built.graph,
        model.built.logits,
        serve,
        &snap_path,
        requests,
        train_feed,
    );
    std::fs::remove_file(&snap_path).ok();
    row
}

/// Renders the measurement rows as a JSON document.
pub fn to_json(rows: &[ServingRow]) -> String {
    let models = rows.iter().map(|r| {
        json::Value::object([
            ("model", r.model.into()),
            ("snapshot_step", r.snapshot_step.into()),
            ("snapshot_bytes", r.snapshot_bytes.into()),
            ("snapshot_vars", r.snapshot_vars.into()),
            ("snapshot_load_us", r.load_us.into()),
            ("bitwise_equal", r.bitwise_equal.into()),
            ("requests", r.requests.into()),
            ("wall_secs", json::Value::fixed(r.wall_secs, 6)),
            ("qps", json::Value::fixed(r.qps(), 1)),
            ("p50_us", r.p50_us.into()),
            ("p99_us", r.p99_us.into()),
            ("hist_p50_us", r.hist_p50_us.into()),
            ("hist_p99_us", r.hist_p99_us.into()),
            ("mean_batch", json::Value::fixed(r.mean_batch, 2)),
        ])
    });
    let doc = json::Value::object([
        (
            "gates",
            json::Value::object([
                ("snapshot_load_us", SNAPSHOT_LOAD_GATE_US.into()),
                ("bitwise_equal", true.into()),
            ]),
        ),
        (
            "train",
            json::Value::object([
                ("machines", MACHINES.into()),
                ("iterations", TRAIN_ITERS.into()),
                ("publish_every", PUBLISH_EVERY.into()),
            ]),
        ),
        ("models", models.collect()),
    ]);
    format!("{doc:#}\n")
}

/// Runs the bench for `model` (`lm`, `nmt`, or both when `None`),
/// writes `path`, and returns the printable report plus whether the
/// load-time and bitwise gates passed.
pub fn run(model: Option<&str>, path: &str) -> Result<(String, bool), String> {
    let which: Vec<&str> = match model {
        None => vec!["lm", "nmt"],
        Some("lm") => vec!["lm"],
        Some("nmt") => vec!["nmt"],
        Some(other) => return Err(format!("unknown model '{other}' (expected lm or nmt)")),
    };
    let mut out = String::new();
    let mut ok = true;
    let _ = writeln!(
        out,
        "== Snapshot serving bench (tiny models, {MACHINES} machines x 1 GPU, \
         publish every {PUBLISH_EVERY} iters) =="
    );
    let mut rows = Vec::new();
    for name in which {
        let row = match name {
            "lm" => bench_lm()?,
            _ => bench_nmt()?,
        };
        let load_ok = row.load_us < SNAPSHOT_LOAD_GATE_US;
        let gate_ok = load_ok && row.bitwise_equal;
        ok &= gate_ok;
        let _ = writeln!(
            out,
            "serve {:<4} step {}  {} vars / {} B  load {:>6} us [{}]  bitwise: {}  \
             {} reqs  qps {:>8.1}  p50 {} us  p99 {} us (hist <= {}/{})  mean batch {:.2}  [{}]",
            row.model,
            row.snapshot_step,
            row.snapshot_vars,
            row.snapshot_bytes,
            row.load_us,
            if load_ok { "ok" } else { "GATE FAIL" },
            if row.bitwise_equal { "yes" } else { "NO" },
            row.requests,
            row.qps(),
            row.p50_us,
            row.p99_us,
            row.hist_p50_us,
            row.hist_p99_us,
            row.mean_batch,
            if gate_ok { "ok" } else { "GATE FAIL" },
        );
        rows.push(row);
    }
    std::fs::write(path, to_json(&rows)).map_err(|e| e.to_string())?;
    let _ = writeln!(out, "wrote {path}");
    let _ = writeln!(out, "serve-bench: {}", if ok { "PASS" } else { "FAIL" });
    out.push('\n');
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lm_serving_passes_gates() {
        let path = std::env::temp_dir().join(format!(
            "parallax_bench_serving_lm_{}.json",
            std::process::id()
        ));
        let (report, ok) = run(Some("lm"), path.to_str().unwrap()).expect("serve bench runs");
        std::fs::remove_file(&path).ok();
        assert!(ok, "report:\n{report}");
    }

    #[test]
    fn nmt_serving_passes_gates() {
        let path = std::env::temp_dir().join(format!(
            "parallax_bench_serving_nmt_{}.json",
            std::process::id()
        ));
        let (report, ok) = run(Some("nmt"), path.to_str().unwrap()).expect("serve bench runs");
        std::fs::remove_file(&path).ok();
        assert!(ok, "report:\n{report}");
    }

    #[test]
    fn unknown_model_is_rejected() {
        assert!(run(Some("bert"), "/dev/null").is_err());
    }

    #[test]
    fn json_renders_rows() {
        let rows = vec![ServingRow {
            model: "lm",
            snapshot_step: 4,
            snapshot_bytes: 1024,
            snapshot_vars: 7,
            load_us: 120,
            bitwise_equal: true,
            requests: 100,
            wall_secs: 0.5,
            p50_us: 800,
            p99_us: 2000,
            hist_p50_us: 1024,
            hist_p99_us: 2048,
            mean_batch: 2.5,
        }];
        let json = to_json(&rows);
        assert!(json.contains("\"gates\""));
        assert!(json.contains("\"models\""));
        assert!(json.contains("\"qps\": 200.0"));
    }
}
