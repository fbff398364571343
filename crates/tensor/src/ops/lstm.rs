//! Fused LSTM-cell kernel.
//!
//! One call computes a whole LSTM step: the `[x | h_prev]` concatenation
//! is packed once into a scratch buffer, multiplied against the fused
//! `[input+hidden, 4*hidden]` kernel with the cache-blocked
//! [`super::matmul::matmul`] path, and the bias add, gate activations
//! and cell update run as a single pass over each output row. The
//! unfused graph spells the same step as ~13 ops, each allocating an
//! intermediate tensor; the fused kernel allocates three buffers total
//! (concat, pre-activations, output).
//!
//! Every output element is produced by the *same scalar expression* the
//! unfused op chain evaluates — the matmul reduces over `p` ascending
//! into one accumulator, the bias add / sigmoid / tanh / cell update
//! are the literal per-element formulas of `add_bias`, `sigmoid`,
//! `tanh`, `Hadamard` and `Add` — so the fused result is bit-for-bit
//! identical to the unfused composition, and (the fused row pass being
//! elementwise per row) identical at any worker-pool thread count.
//!
//! Output layout: `[batch, 6*hidden]` rows of `[h | c | i | f | g | o]`.
//! Exposing the post-activation gates alongside `h` and `c` lets the
//! backward pass run without recomputing the matmul or any activation.

use crate::pool;
use crate::tensor::Tensor;
use crate::{Result, TensorError};

/// Row count below which the fused row pass is not worth splitting
/// across the pool (matches the matmul kernels' `MIN_ROWS_PER_CHUNK`).
const MIN_ROWS_PER_CHUNK: usize = 8;

/// The logistic sigmoid, spelled exactly as the `sigmoid` activation
/// kernel spells it so fused and unfused paths agree bit-for-bit.
#[inline(always)]
fn sig(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

fn matrix(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    t.shape()
        .as_matrix()
        .map_err(|_| TensorError::RankMismatch {
            op,
            expected: 2,
            actual: t.shape().rank(),
        })
}

#[allow(clippy::too_many_arguments)]
fn check_shapes(
    x: &Tensor,
    h_prev: &Tensor,
    c_prev: &Tensor,
    w: &Tensor,
    b: &Tensor,
    hidden: usize,
) -> Result<(usize, usize)> {
    let (batch, in_dim) = matrix(x, "lstm_cell_fused x")?;
    let (hb, hc) = matrix(h_prev, "lstm_cell_fused h_prev")?;
    let (cb, cc) = matrix(c_prev, "lstm_cell_fused c_prev")?;
    let (wr, wc) = matrix(w, "lstm_cell_fused w")?;
    let bad = hidden == 0
        || hb != batch
        || cb != batch
        || hc != hidden
        || cc != hidden
        || wr != in_dim + hidden
        || wc != 4 * hidden
        || b.len() != 4 * hidden;
    if bad {
        return Err(TensorError::ShapeMismatch {
            op: "lstm_cell_fused",
            lhs: x.shape().dims().to_vec(),
            rhs: w.shape().dims().to_vec(),
        });
    }
    Ok((batch, in_dim))
}

/// Packs `[x | h_prev]` row-major into one `[batch, in_dim + hidden]`
/// tensor — the same values `concat_cols` would produce.
fn pack_concat(x: &Tensor, h_prev: &Tensor, batch: usize, in_dim: usize, hidden: usize) -> Tensor {
    let k = in_dim + hidden;
    let mut data = Vec::with_capacity(batch * k);
    for r in 0..batch {
        data.extend_from_slice(&x.data()[r * in_dim..(r + 1) * in_dim]);
        data.extend_from_slice(&h_prev.data()[r * hidden..(r + 1) * hidden]);
    }
    Tensor::new([batch, k], data).expect("packed concat shape")
}

/// The fused per-row epilogue: bias add, gate activations and cell
/// update for rows `[row0, row0 + chunk_rows)`, writing `[h|c|i|f|g|o]`
/// rows into `chunk`. Purely elementwise per row, so any row split
/// yields bitwise-identical results.
fn cell_rows(z: &[f32], bias: &[f32], cp: &[f32], chunk: &mut [f32], row0: usize, hidden: usize) {
    let zw = 4 * hidden;
    let ow = 6 * hidden;
    let nrows = chunk.len() / ow;
    let (bi, brest) = bias.split_at(hidden);
    let (bf, brest) = brest.split_at(hidden);
    let (bg, bo) = brest.split_at(hidden);
    for r in 0..nrows {
        let zrow = &z[(row0 + r) * zw..(row0 + r + 1) * zw];
        let crow = &cp[(row0 + r) * hidden..(row0 + r + 1) * hidden];
        let orow = &mut chunk[r * ow..(r + 1) * ow];
        let (zi, zrest) = zrow.split_at(hidden);
        let (zf, zrest) = zrest.split_at(hidden);
        let (zg, zo) = zrest.split_at(hidden);
        let (hband, orest) = orow.split_at_mut(hidden);
        let (cband, orest) = orest.split_at_mut(hidden);
        let (iband, orest) = orest.split_at_mut(hidden);
        let (fband, orest) = orest.split_at_mut(hidden);
        let (gband, oband) = orest.split_at_mut(hidden);
        // One contiguous pass per gate band, mirroring the unfused
        // kernels' sequential sweeps: a single read and a single write
        // stream per loop keeps the transcendental calls pipelined
        // instead of interleaving ten strided streams per element.
        for ((dst, &zv), &bv) in iband.iter_mut().zip(zi).zip(bi) {
            *dst = sig(zv + bv);
        }
        for ((dst, &zv), &bv) in fband.iter_mut().zip(zf).zip(bf) {
            *dst = sig(zv + bv);
        }
        for ((dst, &zv), &bv) in gband.iter_mut().zip(zg).zip(bg) {
            *dst = (zv + bv).tanh();
        }
        for ((dst, &zv), &bv) in oband.iter_mut().zip(zo).zip(bo) {
            *dst = sig(zv + bv);
        }
        // c = f (.) c_prev + i (.) g, as the unfused Hadamard/Add
        // chain evaluates it: two products, then one add.
        for (j, dst) in cband.iter_mut().enumerate() {
            let fc = fband[j] * crow[j];
            let ig = iband[j] * gband[j];
            *dst = fc + ig;
        }
        for ((dst, &ov), &cv) in hband.iter_mut().zip(&*oband).zip(&*cband) {
            *dst = ov * cv.tanh();
        }
    }
}

/// One fused LSTM step.
///
/// `x` is `[batch, in_dim]`, `h_prev`/`c_prev` are `[batch, hidden]`,
/// `w` is the fused `[in_dim + hidden, 4*hidden]` kernel (gate order
/// `i, f, g, o`), `b` is `[4*hidden]`. Returns `[batch, 6*hidden]` rows
/// of `[h | c | i | f | g | o]`.
pub fn lstm_cell_fused(
    x: &Tensor,
    h_prev: &Tensor,
    c_prev: &Tensor,
    w: &Tensor,
    b: &Tensor,
    hidden: usize,
) -> Result<Tensor> {
    let (batch, in_dim) = check_shapes(x, h_prev, c_prev, w, b, hidden)?;
    let concat = pack_concat(x, h_prev, batch, in_dim, hidden);
    let z = super::matmul::matmul(&concat, w)?;
    let mut out = vec![0.0f32; batch * 6 * hidden];
    if batch > 0 {
        let zd = z.data();
        let bd = b.data();
        let cd = c_prev.data();
        pool::parallel_rows(&mut out, batch, MIN_ROWS_PER_CHUNK, |row0, chunk| {
            cell_rows(zd, bd, cd, chunk, row0, hidden);
        });
    }
    Tensor::new([batch, 6 * hidden], out)
}

/// Exact backward of [`lstm_cell_fused`].
///
/// `y` is the forward output (`[batch, 6*hidden]`), `upstream` the
/// gradient against it — bands beyond `h` and `c` participate too, so
/// graphs that slice gates out directly still differentiate correctly.
/// Returns `(dx, dh_prev, dc_prev, dw, db)`.
///
/// The gate/cell chain runs the same per-element derivative formulas as
/// the unfused op chain (`sigmoid_grad`'s `dy * y * (1 - y)`,
/// `tanh_grad`'s `dy * (1 - y^2)`), and the weight/input gradients
/// reuse the blocked `matmul_at_b` / `matmul_a_bt` kernels.
pub fn lstm_cell_fused_grad(
    y: &Tensor,
    upstream: &Tensor,
    x: &Tensor,
    h_prev: &Tensor,
    c_prev: &Tensor,
    w: &Tensor,
    hidden: usize,
) -> Result<(Tensor, Tensor, Tensor, Tensor, Tensor)> {
    let (batch, in_dim) = matrix(x, "lstm_cell_fused_grad x")?;
    let ow = 6 * hidden;
    if y.shape().dims() != [batch, ow] || upstream.shape().dims() != [batch, ow] {
        return Err(TensorError::ShapeMismatch {
            op: "lstm_cell_fused_grad",
            lhs: y.shape().dims().to_vec(),
            rhs: upstream.shape().dims().to_vec(),
        });
    }
    let zw = 4 * hidden;
    let mut dz = vec![0.0f32; batch * zw];
    let mut dcp = vec![0.0f32; batch * hidden];
    let yd = y.data();
    let ud = upstream.data();
    let cpd = c_prev.data();
    for r in 0..batch {
        let yrow = &yd[r * ow..(r + 1) * ow];
        let urow = &ud[r * ow..(r + 1) * ow];
        let zrow = &mut dz[r * zw..(r + 1) * zw];
        let crow = &mut dcp[r * hidden..(r + 1) * hidden];
        for j in 0..hidden {
            let c = yrow[hidden + j];
            let i = yrow[2 * hidden + j];
            let f = yrow[3 * hidden + j];
            let g = yrow[4 * hidden + j];
            let o = yrow[5 * hidden + j];
            let dh = urow[j];
            let tanh_c = c.tanh();
            let d_o = urow[5 * hidden + j] + dh * tanh_c;
            let dc = urow[hidden + j] + (dh * o) * (1.0 - tanh_c * tanh_c);
            let di = urow[2 * hidden + j] + dc * g;
            let df = urow[3 * hidden + j] + dc * cpd[r * hidden + j];
            let dg = urow[4 * hidden + j] + dc * i;
            crow[j] = dc * f;
            zrow[j] = di * (i * (1.0 - i));
            zrow[hidden + j] = df * (f * (1.0 - f));
            zrow[2 * hidden + j] = dg * (1.0 - g * g);
            zrow[3 * hidden + j] = d_o * (o * (1.0 - o));
        }
    }
    let dz = Tensor::new([batch, zw], dz)?;
    let db = super::reduce::sum_cols(&dz)?;
    let concat = pack_concat(x, h_prev, batch, in_dim, hidden);
    let dw = super::matmul::matmul_at_b(&concat, &dz)?;
    let dconcat = super::matmul::matmul_a_bt(&dz, w)?;
    let k = in_dim + hidden;
    let mut dx = vec![0.0f32; batch * in_dim];
    let mut dh = vec![0.0f32; batch * hidden];
    for r in 0..batch {
        let row = &dconcat.data()[r * k..(r + 1) * k];
        dx[r * in_dim..(r + 1) * in_dim].copy_from_slice(&row[..in_dim]);
        dh[r * hidden..(r + 1) * hidden].copy_from_slice(&row[in_dim..]);
    }
    Ok((
        Tensor::new([batch, in_dim], dx)?,
        Tensor::new([batch, hidden], dh)?,
        Tensor::new([batch, hidden], dcp)?,
        dw,
        db,
    ))
}

/// Scalar reference kernel: the straight-line per-element LSTM step,
/// kept as the oracle for property tests and `repro compress`'s
/// fused-vs-unfused timing baseline.
#[cfg(any(test, feature = "reference-kernels"))]
pub mod naive {
    use super::{check_shapes, pack_concat, sig};
    use crate::ops::matmul::naive::matmul as naive_matmul;
    use crate::tensor::Tensor;
    use crate::Result;

    /// Reference fused step: naive matmul plus a plain per-element loop.
    pub fn lstm_cell_fused(
        x: &Tensor,
        h_prev: &Tensor,
        c_prev: &Tensor,
        w: &Tensor,
        b: &Tensor,
        hidden: usize,
    ) -> Result<Tensor> {
        let (batch, in_dim) = check_shapes(x, h_prev, c_prev, w, b, hidden)?;
        let concat = pack_concat(x, h_prev, batch, in_dim, hidden);
        let z = naive_matmul(&concat, w)?;
        let mut out = vec![0.0f32; batch * 6 * hidden];
        for r in 0..batch {
            for j in 0..hidden {
                let zat = |gate: usize| z.data()[r * 4 * hidden + gate * hidden + j];
                let i = sig(zat(0) + b.data()[j]);
                let f = sig(zat(1) + b.data()[hidden + j]);
                let g = (zat(2) + b.data()[2 * hidden + j]).tanh();
                let o = sig(zat(3) + b.data()[3 * hidden + j]);
                let fc = f * c_prev.data()[r * hidden + j];
                let ig = i * g;
                let c = fc + ig;
                let orow = &mut out[r * 6 * hidden..(r + 1) * 6 * hidden];
                orow[j] = o * c.tanh();
                orow[hidden + j] = c;
                orow[2 * hidden + j] = i;
                orow[3 * hidden + j] = f;
                orow[4 * hidden + j] = g;
                orow[5 * hidden + j] = o;
            }
        }
        Tensor::new([batch, 6 * hidden], out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::rng::DetRng;

    fn inputs(batch: usize, in_dim: usize, hidden: usize, seed: u64) -> [Tensor; 5] {
        let mut rng = DetRng::seed(seed);
        [
            Tensor::randn([batch, in_dim], 0.8, &mut rng),
            Tensor::randn([batch, hidden], 0.8, &mut rng),
            Tensor::randn([batch, hidden], 0.8, &mut rng),
            Tensor::randn([in_dim + hidden, 4 * hidden], 0.5, &mut rng),
            Tensor::randn([4 * hidden], 0.5, &mut rng),
        ]
    }

    /// The unfused op composition, spelled with the public kernels.
    fn unfused(x: &Tensor, h: &Tensor, c: &Tensor, w: &Tensor, b: &Tensor, hid: usize) -> Tensor {
        let concat = ops::concat_cols(&[x, h]).unwrap();
        let pre = ops::add_bias(&ops::matmul(&concat, w).unwrap(), b).unwrap();
        let parts = ops::split_cols(&pre, &[hid, hid, hid, hid]).unwrap();
        let i = ops::sigmoid(&parts[0]);
        let f = ops::sigmoid(&parts[1]);
        let g = ops::tanh(&parts[2]);
        let o = ops::sigmoid(&parts[3]);
        let cc = ops::add(
            &ops::hadamard(&f, c).unwrap(),
            &ops::hadamard(&i, &g).unwrap(),
        )
        .unwrap();
        let hh = ops::hadamard(&o, &ops::tanh(&cc)).unwrap();
        ops::concat_cols(&[&hh, &cc, &i, &f, &g, &o]).unwrap()
    }

    #[test]
    fn fused_matches_unfused_composition_bitwise() {
        for &(batch, in_dim, hidden) in &[(1, 1, 1), (2, 3, 5), (7, 9, 4), (33, 16, 24)] {
            let [x, h, c, w, b] = inputs(batch, in_dim, hidden, 42 + batch as u64);
            let fused = lstm_cell_fused(&x, &h, &c, &w, &b, hidden).unwrap();
            assert_eq!(fused, unfused(&x, &h, &c, &w, &b, hidden));
        }
    }

    #[test]
    fn fused_matches_naive_oracle_bitwise_at_any_thread_count() {
        let [x, h, c, w, b] = inputs(19, 12, 48, 7);
        let reference = naive::lstm_cell_fused(&x, &h, &c, &w, &b, 48).unwrap();
        for threads in [1, 2, 3, 4] {
            pool::configure_threads(threads);
            let fused = lstm_cell_fused(&x, &h, &c, &w, &b, 48).unwrap();
            assert_eq!(fused, reference, "threads={threads}");
        }
        pool::configure_threads(1);
    }

    #[test]
    fn shape_mismatches_rejected() {
        let [x, h, c, w, b] = inputs(2, 3, 5, 1);
        assert!(lstm_cell_fused(&x, &h, &c, &w, &b, 4).is_err());
        assert!(lstm_cell_fused(&h, &x, &c, &w, &b, 5).is_err());
        let short_b = Tensor::zeros([3]);
        assert!(lstm_cell_fused(&x, &h, &c, &w, &short_b, 5).is_err());
    }

    #[test]
    fn grad_matches_numeric_differences() {
        let hidden = 4;
        let [x, h, c, w, b] = inputs(3, 2, hidden, 11);
        let y = lstm_cell_fused(&x, &h, &c, &w, &b, hidden).unwrap();
        // Loss = sum of the h and c bands: upstream ones there, zeros on
        // the gate bands.
        let mut up = vec![0.0f32; y.len()];
        for r in 0..3 {
            for j in 0..2 * hidden {
                up[r * 6 * hidden + j] = 1.0;
            }
        }
        let upstream = Tensor::new(y.shape().clone(), up).unwrap();
        let (dx, dh, dcp, dw, db) =
            lstm_cell_fused_grad(&y, &upstream, &x, &h, &c, &w, hidden).unwrap();

        let loss = |x: &Tensor, h: &Tensor, c: &Tensor, w: &Tensor, b: &Tensor| -> f32 {
            let y = lstm_cell_fused(x, h, c, w, b, hidden).unwrap();
            let mut sum = 0.0f32;
            for r in 0..3 {
                for j in 0..2 * hidden {
                    sum += y.data()[r * 6 * hidden + j];
                }
            }
            sum
        };
        let eps = 1e-2f32;
        let check = |analytic: &Tensor, which: usize| {
            let n = analytic.len();
            for idx in (0..n).step_by(n.div_ceil(9).max(1)) {
                let bump = |delta: f32| -> f32 {
                    let mut xs = [x.clone(), h.clone(), c.clone(), w.clone(), b.clone()];
                    xs[which].data_mut()[idx] += delta;
                    loss(&xs[0], &xs[1], &xs[2], &xs[3], &xs[4])
                };
                let numeric = (bump(eps) - bump(-eps)) / (2.0 * eps);
                let got = analytic.data()[idx];
                assert!(
                    (numeric - got).abs() < 3e-2,
                    "input {which} elem {idx}: numeric {numeric} vs analytic {got}"
                );
            }
        };
        check(&dx, 0);
        check(&dh, 1);
        check(&dcp, 2);
        check(&dw, 3);
        check(&db, 4);
    }
}
