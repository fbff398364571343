//! Kernel-layer microbenchmark: blocked/pooled kernels against the
//! scalar reference kernels, measured in one process and emitted as
//! `BENCH_kernels.json`.
//!
//! The host this runs on is shared and noisy, so each comparison is
//! *interleaved*: one repetition times the optimized kernel, then the
//! baseline, and the best (minimum) time of each over all repetitions
//! is reported. Noise spikes hit both kernels alike instead of biasing
//! whichever happened to run during a quiet window.

use std::collections::HashMap;
use std::time::Instant;

use parallax_tensor::ops::{self, matmul::naive};
use parallax_tensor::{pool, DetRng, IndexedSlices, Tensor};
use parallax_trace::json::Value;

/// Interleaved best-of-`reps` timing of two closures.
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

/// Which multiply a row times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Form {
    /// `matmul`: `a` is `m x k`, `b` is `k x n`.
    AB,
    /// `matmul_at_b`: `a` is `k x m`, `b` is `k x n`.
    AtB,
    /// `matmul_a_bt`: `a` is `m x k`, `b` is `n x k`.
    ABt,
}

impl Form {
    /// The `ops` function name.
    pub fn name(self) -> &'static str {
        match self {
            Form::AB => "matmul",
            Form::AtB => "matmul_at_b",
            Form::ABt => "matmul_a_bt",
        }
    }

    /// Random operands for an `m x n` output reducing over `k`.
    fn operands(self, m: usize, k: usize, n: usize, rng: &mut DetRng) -> (Tensor, Tensor) {
        let (a, b) = match self {
            Form::AB => ([m, k], [k, n]),
            Form::AtB => ([k, m], [k, n]),
            Form::ABt => ([m, k], [n, k]),
        };
        (Tensor::randn(a, 1.0, rng), Tensor::randn(b, 1.0, rng))
    }

    /// The packed library kernel.
    fn blocked(self, a: &Tensor, b: &Tensor) -> Tensor {
        match self {
            Form::AB => ops::matmul(a, b),
            Form::AtB => ops::matmul_at_b(a, b),
            Form::ABt => ops::matmul_a_bt(a, b),
        }
        .expect("blocked kernel")
    }

    /// The scalar reference kernel.
    fn naive(self, a: &Tensor, b: &Tensor) -> Tensor {
        match self {
            Form::AB => naive::matmul(a, b),
            Form::AtB => naive::matmul_at_b(a, b),
            Form::ABt => naive::matmul_a_bt(a, b),
        }
        .expect("naive kernel")
    }
}

/// One matmul comparison row.
pub struct MatmulRow {
    /// Workload label (which model preset the shape is drawn from).
    pub name: &'static str,
    /// Which multiply.
    pub form: Form,
    /// Output rows.
    pub m: usize,
    /// Reduction length.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Calls per timed repetition (small shapes loop to stay above
    /// timer resolution); the times below are per call.
    pub calls: usize,
    /// Best scalar-reference time per call, seconds.
    pub naive_secs: f64,
    /// Best blocked-kernel time per call, seconds.
    pub blocked_secs: f64,
}

impl MatmulRow {
    fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.k as f64 * self.n as f64
    }

    /// Blocked-over-naive throughput ratio.
    pub fn speedup(&self) -> f64 {
        self.naive_secs / self.blocked_secs
    }
}

/// One coalesce comparison row.
pub struct CoalesceRow {
    /// Target density (distinct rows / dense rows).
    pub alpha: f64,
    /// Dense row count of the variable.
    pub rows: usize,
    /// Row width.
    pub cols: usize,
    /// Non-coalesced slice count going in.
    pub nnz: usize,
    /// Best hash-map baseline time, seconds.
    pub naive_secs: f64,
    /// Best sort-based time, seconds.
    pub sorted_secs: f64,
}

impl CoalesceRow {
    /// Sorted-over-hash throughput ratio.
    pub fn speedup(&self) -> f64 {
        self.naive_secs / self.sorted_secs
    }
}

/// The original hash-map coalesce, kept here as the measured baseline
/// (the library's `IndexedSlices::coalesce` is now sort-based).
fn hashmap_coalesce(slices: &IndexedSlices) -> IndexedSlices {
    let cols = slices.cols();
    let mut map: HashMap<usize, Vec<f32>> = HashMap::new();
    for (slot, &idx) in slices.indices().iter().enumerate() {
        let row = &slices.values().data()[slot * cols..(slot + 1) * cols];
        match map.get_mut(&idx) {
            Some(acc) => {
                for (a, b) in acc.iter_mut().zip(row) {
                    *a += b;
                }
            }
            None => {
                map.insert(idx, row.to_vec());
            }
        }
    }
    let mut keys: Vec<usize> = map.keys().copied().collect();
    keys.sort_unstable();
    let mut data = Vec::with_capacity(keys.len() * cols);
    for k in &keys {
        data.extend_from_slice(&map[k]);
    }
    let values = Tensor::new([keys.len(), cols], data).expect("coalesce shape is consistent");
    IndexedSlices::new(keys, values, slices.dense_rows()).expect("valid coalesced slices")
}

/// Large matmul shapes: the ResNet block GEMM (batch x width), the LM
/// projection, the LM softmax logits GEMM, and the square size the
/// acceptance gate measures.
const MATMUL_SHAPES: [(&str, Form, usize, usize, usize); 4] = [
    ("square_256", Form::AB, 256, 256, 256),
    ("resnet_block_64x256x256", Form::AB, 64, 256, 256),
    ("lm_projection_160x512x512", Form::AB, 160, 512, 512),
    ("lm_logits_128x256x1024", Form::AB, 128, 256, 1024),
];

/// Every multiply one training step of the LM `small` (batch 8) and
/// ResNet `small` (batch 32) presets runs, as `(m, k, n)` of the
/// output and reduction: forward, input gradient (`_dx`) and weight
/// gradient (`_dw`) of each layer. These are the shapes the repository
/// benchmark's `lm-sparse`, `resnet-dense` and `serve-lm-open`
/// workloads spend their kernel time in.
const STEP_SHAPES: [(&str, Form, usize, usize, usize); 21] = [
    ("lm_lstm", Form::AB, 8, 48, 128),
    ("lm_lstm_dconcat", Form::ABt, 8, 128, 48),
    ("lm_lstm_dw", Form::AtB, 48, 8, 128),
    ("lm_proj", Form::AB, 8, 32, 16),
    ("lm_proj_dx", Form::ABt, 8, 16, 32),
    ("lm_proj_dw", Form::AtB, 32, 8, 16),
    ("lm_logits", Form::ABt, 8, 16, 48),
    ("lm_logits_dx", Form::AB, 8, 48, 16),
    ("lm_logits_dcand", Form::AtB, 48, 8, 16),
    ("resnet_stem", Form::AB, 32, 64, 48),
    ("resnet_stem_dx", Form::ABt, 32, 48, 64),
    ("resnet_stem_dw", Form::AtB, 64, 32, 48),
    ("resnet_fc1", Form::AB, 32, 48, 16),
    ("resnet_fc1_dx", Form::ABt, 32, 16, 48),
    ("resnet_fc1_dw", Form::AtB, 48, 32, 16),
    ("resnet_fc2", Form::AB, 32, 16, 48),
    ("resnet_fc2_dx", Form::ABt, 32, 48, 16),
    ("resnet_fc2_dw", Form::AtB, 16, 32, 48),
    ("resnet_classifier", Form::AB, 32, 48, 10),
    ("resnet_classifier_dx", Form::ABt, 32, 10, 48),
    ("resnet_classifier_dw", Form::AtB, 48, 32, 10),
];

/// Multiply-adds one timed repetition should cover at least, so that
/// microsecond kernels are timed over many calls.
const MIN_PRODUCTS_PER_REP: usize = 1 << 21;

const COALESCE_ALPHAS: [f64; 3] = [0.01, 0.1, 0.5];

/// Cross-checks one multiply bitwise against its scalar reference,
/// then times both, interleaved.
fn measure_matmul(
    reps: usize,
    rng: &mut DetRng,
    (name, form, m, k, n): (&'static str, Form, usize, usize, usize),
) -> MatmulRow {
    let (a, b) = form.operands(m, k, n, rng);
    let blocked = form.blocked(&a, &b);
    let reference = form.naive(&a, &b);
    assert_eq!(blocked.shape(), reference.shape());
    assert!(
        blocked
            .data()
            .iter()
            .zip(reference.data())
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "blocked {} diverged from reference at {name}",
        form.name()
    );
    let calls = MIN_PRODUCTS_PER_REP.div_ceil(m * k * n);
    let (blocked_secs, naive_secs) = best_of_interleaved(
        reps,
        || {
            for _ in 0..calls {
                std::hint::black_box(form.blocked(&a, &b));
            }
        },
        || {
            for _ in 0..calls {
                std::hint::black_box(form.naive(&a, &b));
            }
        },
    );
    MatmulRow {
        name,
        form,
        m,
        k,
        n,
        calls,
        naive_secs: naive_secs / calls as f64,
        blocked_secs: blocked_secs / calls as f64,
    }
}

/// Runs all comparisons. Separated from I/O for testing.
pub fn measure(reps: usize) -> (Vec<MatmulRow>, Vec<CoalesceRow>) {
    let mut rng = DetRng::seed(0xbe5c);
    let matmuls = MATMUL_SHAPES
        .into_iter()
        .chain(STEP_SHAPES)
        .map(|shape| measure_matmul(reps, &mut rng, shape))
        .collect();

    let mut coalesces = Vec::new();
    let rows = 50_000usize;
    let cols = 64usize;
    for alpha in COALESCE_ALPHAS {
        // Draw ~1.5 slices per target distinct row so duplicates exist.
        let nnz = ((alpha * rows as f64) * 1.5).round() as usize;
        let indices: Vec<usize> = (0..nnz)
            .map(|_| rng.below((alpha * rows as f64) as usize))
            .collect();
        let values = Tensor::randn([nnz, cols], 1.0, &mut rng);
        let slices = IndexedSlices::new(indices, values, rows).expect("bench slices");
        assert_eq!(
            slices.coalesce(),
            hashmap_coalesce(&slices),
            "sort-based coalesce diverged from the hash baseline at alpha {alpha}"
        );
        let (sorted_secs, naive_secs) = best_of_interleaved(
            reps,
            || {
                std::hint::black_box(slices.coalesce());
            },
            || {
                std::hint::black_box(hashmap_coalesce(&slices));
            },
        );
        coalesces.push(CoalesceRow {
            alpha,
            rows,
            cols,
            nnz,
            naive_secs,
            sorted_secs,
        });
    }
    (matmuls, coalesces)
}

/// Renders the measurements as a JSON document.
pub fn to_json(matmuls: &[MatmulRow], coalesces: &[CoalesceRow], reps: usize) -> String {
    let matmul = matmuls.iter().map(|r| {
        Value::object([
            ("name", r.name.into()),
            ("form", r.form.name().into()),
            ("m", r.m.into()),
            ("k", r.k.into()),
            ("n", r.n.into()),
            ("calls", r.calls.into()),
            ("naive_secs", Value::fixed(r.naive_secs, 9)),
            ("blocked_secs", Value::fixed(r.blocked_secs, 9)),
            (
                "naive_gflops",
                Value::fixed(r.flops() / r.naive_secs / 1e9, 3),
            ),
            (
                "blocked_gflops",
                Value::fixed(r.flops() / r.blocked_secs / 1e9, 3),
            ),
            ("speedup", Value::fixed(r.speedup(), 3)),
        ])
    });
    let coalesce = coalesces.iter().map(|r| {
        Value::object([
            ("alpha", r.alpha.into()),
            ("rows", r.rows.into()),
            ("cols", r.cols.into()),
            ("nnz", r.nnz.into()),
            ("naive_secs", Value::fixed(r.naive_secs, 9)),
            ("sorted_secs", Value::fixed(r.sorted_secs, 9)),
            ("speedup", Value::fixed(r.speedup(), 3)),
        ])
    });
    let doc = Value::object([
        ("reps", reps.into()),
        ("threads", pool::effective_threads().into()),
        ("matmul", matmul.collect()),
        ("coalesce", coalesce.collect()),
    ]);
    format!("{doc:#}\n")
}

/// Measures, writes `path`, and prints a human-readable summary.
pub fn run(path: &str) -> std::io::Result<()> {
    let reps = 9;
    let (matmuls, coalesces) = measure(reps);
    println!("== Kernel microbenchmarks (best of {reps}, interleaved) ==");
    for r in &matmuls {
        println!(
            "{:<11} {:<28} {:>7.2} GF/s naive  {:>7.2} GF/s blocked  ({:.2}x)",
            r.form.name(),
            r.name,
            r.flops() / r.naive_secs / 1e9,
            r.flops() / r.blocked_secs / 1e9,
            r.speedup(),
        );
    }
    for r in &coalesces {
        println!(
            "coalesce alpha={:<5} {:>9.1} us hash  {:>9.1} us sorted  ({:.2}x)",
            r.alpha,
            r.naive_secs * 1e6,
            r.sorted_secs * 1e6,
            r.speedup(),
        );
    }
    std::fs::write(path, to_json(&matmuls, &coalesces, reps))?;
    println!("wrote {path}");
    println!();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_and_render_small() {
        // `measure` cross-checks every row bitwise against the scalar
        // reference before timing it, so this also checks each form
        // on every training-step shape.
        let (m, c) = measure(1);
        assert_eq!(m.len(), MATMUL_SHAPES.len() + STEP_SHAPES.len());
        for form in [Form::AB, Form::AtB, Form::ABt] {
            assert!(m.iter().any(|r| r.form == form), "no {} row", form.name());
        }
        assert_eq!(c.len(), COALESCE_ALPHAS.len());
        let json = to_json(&m, &c, 1);
        assert!(json.contains("\"matmul\""));
        assert!(json.contains("\"coalesce\""));
        assert!(json.contains("square_256"));
        assert!(json.contains("lm_lstm_dconcat"));
    }
}
