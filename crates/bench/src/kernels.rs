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

/// One matmul comparison row.
pub struct MatmulRow {
    /// Workload label (which model preset the shape is drawn from).
    pub name: &'static str,
    /// `a` is `m x k`, `b` is `k x n`.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Best scalar-reference time, seconds.
    pub naive_secs: f64,
    /// Best blocked-kernel time, seconds.
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

/// Matmul shapes drawn from the executed model presets: the ResNet
/// block GEMM (batch x width), the LM projection, the LM softmax logits
/// GEMM, and the square size the acceptance gate measures.
const MATMUL_SHAPES: [(&str, usize, usize, usize); 4] = [
    ("square_256", 256, 256, 256),
    ("resnet_block_64x256x256", 64, 256, 256),
    ("lm_projection_160x512x512", 160, 512, 512),
    ("lm_logits_128x256x1024", 128, 256, 1024),
];

const COALESCE_ALPHAS: [f64; 3] = [0.01, 0.1, 0.5];

/// Runs all comparisons. Separated from I/O for testing.
pub fn measure(reps: usize) -> (Vec<MatmulRow>, Vec<CoalesceRow>) {
    let mut rng = DetRng::seed(0xbe5c);
    let mut matmuls = Vec::new();
    for (name, m, k, n) in MATMUL_SHAPES {
        let a = Tensor::randn([m, k], 1.0, &mut rng);
        let b = Tensor::randn([k, n], 1.0, &mut rng);
        // Correctness cross-check before timing anything.
        assert_eq!(
            ops::matmul(&a, &b).expect("blocked matmul"),
            naive::matmul(&a, &b).expect("naive matmul"),
            "blocked result diverged from reference at {name}"
        );
        let (blocked_secs, naive_secs) = best_of_interleaved(
            reps,
            || {
                std::hint::black_box(ops::matmul(&a, &b).unwrap());
            },
            || {
                std::hint::black_box(naive::matmul(&a, &b).unwrap());
            },
        );
        matmuls.push(MatmulRow {
            name,
            m,
            k,
            n,
            naive_secs,
            blocked_secs,
        });
    }

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
            ("m", r.m.into()),
            ("k", r.k.into()),
            ("n", r.n.into()),
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
            "matmul {:<28} {:>7.2} GF/s naive  {:>7.2} GF/s blocked  ({:.2}x)",
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
        let (m, c) = measure(1);
        assert_eq!(m.len(), MATMUL_SHAPES.len());
        assert_eq!(c.len(), COALESCE_ALPHAS.len());
        let json = to_json(&m, &c, 1);
        assert!(json.contains("\"matmul\""));
        assert!(json.contains("\"coalesce\""));
        assert!(json.contains("square_256"));
    }
}
