//! `repro compress`: wire-format compression and fused-kernel gate.
//!
//! Three sections, each both *measured* and *gated*:
//!
//! 1. **Executed wire sweep** — one real LM iteration (Horovod-style
//!    AllReduce placement, so dense gradients ride the ring and sparse
//!    gradients ride AllGatherv) under every [`WireFormat`]. For each
//!    format the static traffic prediction must equal the measured
//!    ledger *exactly*, and the half-precision formats must cut dense
//!    ring bytes by at least [`DENSE_REDUCTION_GATE`].
//! 2. **Sparse index codec** — delta+varint index encoding on synthetic
//!    sorted gather indices across densities; must be lossless and, at
//!    alpha <= 0.1, shrink index bytes by at least
//!    [`INDEX_SHRINK_GATE`].
//! 3. **Fused LSTM cell** — the fused kernel against the unfused op
//!    composition it replaced; must be bitwise identical and not
//!    materially slower ([`FUSED_SPEEDUP_GATE`], tolerant of shared-host
//!    noise).
//!
//! Results are written as `BENCH_compression.json`; any gate violation
//! makes `run` return `ok = false` so `repro compress` exits nonzero.

use std::fmt::Write as _;
use std::time::Instant;

use parallax_comm::{wire, WireFormat};
use parallax_core::plancheck::predict_iteration_traffic;
use parallax_core::sparsity::estimate_profile;
use parallax_core::{get_runner, ParallaxConfig};
use parallax_models::data::ZipfCorpus;
use parallax_models::lm::{LmConfig, LmModel};
use parallax_tensor::{ops, DetRng, Tensor};
use parallax_trace::json::Value;

/// Machines in the executed topology (1 GPU each, matching `repro
/// check`, so ring hops cross real machine boundaries).
const MACHINES: usize = 4;

/// Required dense AllReduce byte reduction for 16-bit wire formats.
/// The ring moves 2·(n-1)/n of the payload per replica in both
/// directions regardless of format, so halving the scalar width must
/// show up nearly undiluted; 1.8x leaves room for index/header bytes.
pub const DENSE_REDUCTION_GATE: f64 = 1.8;

/// Required index-byte shrink (raw 8 B/index over delta+varint) at
/// alpha <= 0.1. Sorted gather indices at that density have small
/// deltas, so most encode in 1-2 bytes; 2x is a loose floor.
pub const INDEX_SHRINK_GATE: f64 = 2.0;

/// The fused kernel must not be materially slower than the unfused
/// composition. The real claim is the bitwise-equality assert plus the
/// reported speedup; the floor only catches pathological regressions
/// without flaking on a noisy shared host.
pub const FUSED_SPEEDUP_GATE: f64 = 0.9;

/// Interleaved best-of-`reps` timing of two closures (same discipline
/// as the kernel microbenchmark: noise hits both sides alike).
fn best_of_interleaved(
    reps: usize,
    mut optimized: impl FnMut(),
    mut baseline: impl FnMut(),
) -> (f64, f64) {
    let mut best_opt = f64::INFINITY;
    let mut best_base = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        optimized();
        best_opt = best_opt.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        baseline();
        best_base = best_base.min(t.elapsed().as_secs_f64());
    }
    (best_opt, best_base)
}

/// One executed-iteration measurement under a wire format.
pub struct WireRow {
    /// Format name (`f32`, `f16`, `bf16`).
    pub format: &'static str,
    /// Measured dense ring AllReduce bytes (nccl class).
    pub nccl_bytes: u64,
    /// Measured sparse AllGatherv bytes (mpi class).
    pub mpi_bytes: u64,
    /// Did the static prediction equal the measured ledger exactly?
    pub predicted_exact: bool,
}

/// One synthetic index-codec measurement.
pub struct IndexRow {
    /// Distinct-row density of the synthetic gather.
    pub alpha: f64,
    /// Number of encoded indices.
    pub count: usize,
    /// Raw cost: 8 bytes per index.
    pub raw_bytes: u64,
    /// Delta+varint encoded bytes.
    pub encoded_bytes: u64,
}

impl IndexRow {
    /// Raw-over-encoded byte ratio.
    pub fn shrink(&self) -> f64 {
        self.raw_bytes as f64 / self.encoded_bytes.max(1) as f64
    }
}

/// One fused-vs-unfused LSTM cell measurement.
pub struct LstmRow {
    /// Shape label.
    pub name: &'static str,
    /// Batch rows.
    pub batch: usize,
    /// Input width.
    pub in_dim: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Best unfused-composition time, seconds.
    pub unfused_secs: f64,
    /// Best fused-kernel time, seconds.
    pub fused_secs: f64,
}

impl LstmRow {
    /// Unfused-over-fused throughput ratio.
    pub fn speedup(&self) -> f64 {
        self.unfused_secs / self.fused_secs
    }
}

/// Runs one LM iteration under `format`, returning the measurement row
/// or an error string.
fn measure_wire(format: WireFormat) -> Result<WireRow, String> {
    let model = LmModel::build(LmConfig::tiny()).map_err(|e| e.to_string())?;
    let corpus = ZipfCorpus::new(model.config.vocab, 1.0);
    let profile = {
        let feed = model.feed(&corpus, &mut DetRng::seed(100));
        estimate_profile(&model.built.graph, &[feed], 1).map_err(|e| e.to_string())?
    };
    let config = ParallaxConfig {
        wire_format: format,
        ..ParallaxConfig::horovod_baseline()
    };
    let runner = get_runner(
        model.built.graph.clone(),
        model.built.loss,
        vec![1; MACHINES],
        config.clone(),
        profile,
    )
    .map_err(|e| e.to_string())?;
    let m = &model;
    let corpus_ref = &corpus;
    let feed_fn = |w: usize, i: usize| {
        m.sharded_feed(corpus_ref, MACHINES, w, &mut DetRng::seed(5000 + i as u64))
    };
    let feeds: Vec<_> = (0..MACHINES).map(|w| feed_fn(w, 0)).collect();
    let (predicted, conservation) = predict_iteration_traffic(
        &model.built.graph,
        model.built.loss,
        runner.plan(),
        runner.topology(),
        &config,
        &feeds,
    )
    .map_err(|e| e.to_string())?;
    if conservation.has_errors() {
        return Err(format!(
            "byte conservation failed under {}:\n{}",
            format.name(),
            conservation.render()
        ));
    }
    let report = runner.run(1, feed_fn).map_err(|e| e.to_string())?;
    let measured = &report.traffic;
    let predicted_exact = predicted.nccl == measured.nccl
        && predicted.mpi == measured.mpi
        && predicted.ps == measured.ps
        && predicted.local_agg == measured.local_agg
        && predicted.other == measured.other;
    Ok(WireRow {
        format: format.name(),
        nccl_bytes: measured.nccl.total_network_bytes(),
        mpi_bytes: measured.mpi.total_network_bytes(),
        predicted_exact,
    })
}

/// Synthetic sorted gather indices at `alpha` density over `rows` rows.
fn measure_index(alpha: f64, rows: usize, rng: &mut DetRng) -> IndexRow {
    let distinct = ((alpha * rows as f64).round() as usize).max(1);
    let mut indices: Vec<usize> = (0..distinct).map(|_| rng.below(rows)).collect();
    indices.sort_unstable();
    indices.dedup();
    let encoded = wire::encode_indices(&indices);
    assert_eq!(
        wire::decode_indices(&encoded, indices.len()),
        indices,
        "delta+varint index codec must be lossless at alpha {alpha}"
    );
    assert_eq!(
        encoded.len(),
        wire::encoded_index_len(&indices),
        "encoded_index_len must agree with the actual encoding"
    );
    IndexRow {
        alpha,
        count: indices.len(),
        raw_bytes: indices.len() as u64 * 8,
        encoded_bytes: encoded.len() as u64,
    }
}

/// The unfused LSTM cell as the op composition the dataflow graph used
/// before `Op::LstmCellFused`: concat -> matmul -> bias -> gate slices
/// -> activations -> Hadamard products.
fn unfused_cell(x: &Tensor, h_prev: &Tensor, c_prev: &Tensor, w: &Tensor, b: &Tensor) -> Tensor {
    let hidden = c_prev.shape().as_matrix().expect("c_prev matrix").1;
    let concat = ops::concat_cols(&[x, h_prev]).expect("concat");
    let z = ops::matmul(&concat, w).expect("matmul");
    let z = ops::add_bias(&z, b).expect("bias");
    let gates = ops::split_cols(&z, &[hidden, hidden, hidden, hidden]).expect("split");
    let i = ops::sigmoid(&gates[0]);
    let f = ops::sigmoid(&gates[1]);
    let g = ops::tanh(&gates[2]);
    let o = ops::sigmoid(&gates[3]);
    let fc = ops::hadamard(&f, c_prev).expect("f*c");
    let ig = ops::hadamard(&i, &g).expect("i*g");
    let c = ops::add(&fc, &ig).expect("c");
    let c_tanh = ops::tanh(&c);
    ops::hadamard(&o, &c_tanh).expect("h")
}

/// LSTM cell shapes drawn from the model presets (lm/nmt tiny steps)
/// plus one larger shape where fusion's saved passes dominate.
const LSTM_SHAPES: [(&str, usize, usize, usize); 3] = [
    ("lm_tiny_step", 32, 64, 64),
    ("nmt_tiny_step", 16, 48, 48),
    ("lm_full_step", 160, 256, 256),
];

/// Measures fused vs unfused LSTM cells, asserting bitwise equality of
/// the fused output's `[h|c]` bands against the composition first.
fn measure_lstm(reps: usize) -> Vec<LstmRow> {
    let mut rng = DetRng::seed(0xc0_11);
    let mut out = Vec::new();
    for (name, batch, in_dim, hidden) in LSTM_SHAPES {
        let x = Tensor::randn([batch, in_dim], 0.5, &mut rng);
        let h_prev = Tensor::randn([batch, hidden], 0.5, &mut rng);
        let c_prev = Tensor::randn([batch, hidden], 0.5, &mut rng);
        let w = Tensor::randn([in_dim + hidden, 4 * hidden], 0.2, &mut rng);
        let b = Tensor::randn([4 * hidden], 0.1, &mut rng);
        let fused = ops::lstm_cell_fused(&x, &h_prev, &c_prev, &w, &b, hidden).expect("fused");
        let h_ref = unfused_cell(&x, &h_prev, &c_prev, &w, &b);
        let h_band = ops::split_cols(&fused, &[hidden, 5 * hidden]).expect("split h")[0].clone();
        assert_eq!(
            h_band, h_ref,
            "fused h must equal the unfused composition bitwise at {name}"
        );
        let (fused_secs, unfused_secs) = best_of_interleaved(
            reps,
            || {
                std::hint::black_box(
                    ops::lstm_cell_fused(&x, &h_prev, &c_prev, &w, &b, hidden).unwrap(),
                );
            },
            || {
                std::hint::black_box(unfused_cell(&x, &h_prev, &c_prev, &w, &b));
            },
        );
        out.push(LstmRow {
            name,
            batch,
            in_dim,
            hidden,
            unfused_secs,
            fused_secs,
        });
    }
    out
}

/// Renders the three sections as a JSON document.
pub fn to_json(wires: &[WireRow], indices: &[IndexRow], lstms: &[LstmRow], reps: usize) -> String {
    let base = wires
        .iter()
        .find(|w| w.format == "f32")
        .map(|w| (w.nccl_bytes, w.mpi_bytes))
        .unwrap_or((0, 0));
    let wire = wires.iter().map(|r| {
        Value::object([
            ("format", r.format.into()),
            ("nccl_bytes", r.nccl_bytes.into()),
            ("mpi_bytes", r.mpi_bytes.into()),
            (
                "dense_reduction",
                Value::fixed(base.0 as f64 / r.nccl_bytes.max(1) as f64, 3),
            ),
            (
                "sparse_reduction",
                Value::fixed(base.1 as f64 / r.mpi_bytes.max(1) as f64, 3),
            ),
            ("predicted_exact", r.predicted_exact.into()),
        ])
    });
    let sparse_index = indices.iter().map(|r| {
        Value::object([
            ("alpha", r.alpha.into()),
            ("count", r.count.into()),
            ("raw_bytes", r.raw_bytes.into()),
            ("encoded_bytes", r.encoded_bytes.into()),
            ("shrink", Value::fixed(r.shrink(), 3)),
        ])
    });
    let fused_lstm = lstms.iter().map(|r| {
        Value::object([
            ("name", r.name.into()),
            ("batch", r.batch.into()),
            ("in_dim", r.in_dim.into()),
            ("hidden", r.hidden.into()),
            ("unfused_secs", Value::fixed(r.unfused_secs, 9)),
            ("fused_secs", Value::fixed(r.fused_secs, 9)),
            ("speedup", Value::fixed(r.speedup(), 3)),
        ])
    });
    let doc = Value::object([
        ("reps", reps.into()),
        (
            "gates",
            Value::object([
                ("dense_reduction", DENSE_REDUCTION_GATE.into()),
                ("index_shrink", INDEX_SHRINK_GATE.into()),
                ("fused_speedup", FUSED_SPEEDUP_GATE.into()),
            ]),
        ),
        ("wire", wire.collect()),
        ("sparse_index", sparse_index.collect()),
        ("fused_lstm", fused_lstm.collect()),
    ]);
    format!("{doc:#}\n")
}

/// Runs everything, writes `path`, and returns the printable report
/// plus whether every gate passed.
pub fn run(path: &str) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut ok = true;
    let _ = writeln!(
        out,
        "== Wire compression & fused-kernel gate (LM tiny, {MACHINES} machines x 1 GPU) =="
    );

    let formats = [WireFormat::F32, WireFormat::F16, WireFormat::Bf16];
    let mut wires = Vec::new();
    for format in formats {
        wires.push(measure_wire(format)?);
    }
    let base = (wires[0].nccl_bytes, wires[0].mpi_bytes);
    for r in &wires {
        let dense = base.0 as f64 / r.nccl_bytes.max(1) as f64;
        let sparse = base.1 as f64 / r.mpi_bytes.max(1) as f64;
        let gate_ok = r.predicted_exact
            && (r.format == "f32" || (dense >= DENSE_REDUCTION_GATE && sparse > 1.0));
        ok &= gate_ok;
        let _ = writeln!(
            out,
            "wire {:<5} nccl {:>9} B ({dense:.2}x)  mpi {:>9} B ({sparse:.2}x)  \
             predicted==measured: {}  [{}]",
            r.format,
            r.nccl_bytes,
            r.mpi_bytes,
            if r.predicted_exact { "yes" } else { "NO" },
            if gate_ok { "ok" } else { "GATE FAIL" },
        );
    }

    let mut rng = DetRng::seed(0x1d);
    let rows = 50_000usize;
    let indices: Vec<IndexRow> = [0.01, 0.05, 0.1]
        .into_iter()
        .map(|alpha| measure_index(alpha, rows, &mut rng))
        .collect();
    for r in &indices {
        let gate_ok = r.shrink() >= INDEX_SHRINK_GATE;
        ok &= gate_ok;
        let _ = writeln!(
            out,
            "index alpha={:<5} {:>7} indices  raw {:>8} B  encoded {:>7} B  ({:.2}x)  [{}]",
            r.alpha,
            r.count,
            r.raw_bytes,
            r.encoded_bytes,
            r.shrink(),
            if gate_ok { "ok" } else { "GATE FAIL" },
        );
    }

    let reps = 9;
    let lstms = measure_lstm(reps);
    for r in &lstms {
        // The speedup is a property of optimized code: an unoptimized
        // build times the kernels' debug overhead, often beside a
        // parallel test run. There the row is reported, not gated; the
        // release `repro compress` run gates it.
        let timed = !cfg!(debug_assertions);
        let gate_ok = !timed || r.speedup() >= FUSED_SPEEDUP_GATE;
        ok &= gate_ok;
        let _ = writeln!(
            out,
            "lstm {:<14} ({}x{}->{})  unfused {:>9.1} us  fused {:>9.1} us  ({:.2}x)  [{}]",
            r.name,
            r.batch,
            r.in_dim,
            r.hidden,
            r.unfused_secs * 1e6,
            r.fused_secs * 1e6,
            r.speedup(),
            match (timed, gate_ok) {
                (false, _) => "not gated: unoptimized build",
                (true, true) => "ok",
                (true, false) => "GATE FAIL",
            },
        );
    }

    std::fs::write(path, to_json(&wires, &indices, &lstms, reps)).map_err(|e| e.to_string())?;
    let _ = writeln!(out, "wrote {path}");
    let _ = writeln!(out, "compress: {}", if ok { "PASS" } else { "FAIL" });
    out.push('\n');
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_codec_rows_are_lossless_and_shrink() {
        let mut rng = DetRng::seed(7);
        let r = measure_index(0.1, 50_000, &mut rng);
        assert!(r.shrink() >= INDEX_SHRINK_GATE, "shrink {}", r.shrink());
    }

    #[test]
    fn fused_lstm_rows_measure_and_match() {
        // reps=1 keeps this fast; the bitwise assert inside is the point.
        let rows = measure_lstm(1);
        assert_eq!(rows.len(), LSTM_SHAPES.len());
        assert!(rows.iter().all(|r| r.fused_secs > 0.0));
    }

    #[test]
    fn json_renders_all_sections() {
        let wires = vec![WireRow {
            format: "f32",
            nccl_bytes: 100,
            mpi_bytes: 50,
            predicted_exact: true,
        }];
        let mut rng = DetRng::seed(7);
        let indices = vec![measure_index(0.05, 10_000, &mut rng)];
        let lstms = measure_lstm(1);
        let json = to_json(&wires, &indices, &lstms, 1);
        assert!(json.contains("\"wire\""));
        assert!(json.contains("\"sparse_index\""));
        assert!(json.contains("\"fused_lstm\""));
        assert!(json.contains("\"gates\""));
    }

    #[test]
    fn full_wire_sweep_passes_gates() {
        let path = std::env::temp_dir().join(format!(
            "parallax_bench_compress_{}.json",
            std::process::id()
        ));
        let (report, ok) = run(path.to_str().unwrap()).expect("compress bench runs");
        std::fs::remove_file(&path).ok();
        assert!(ok, "report:\n{report}");
    }
}
