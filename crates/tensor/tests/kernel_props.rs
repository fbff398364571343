//! Property tests for the blocked/pooled compute kernels.
//!
//! Two invariants, both *bitwise*:
//!
//! 1. The blocked + vectorized kernels produce exactly the same bits as
//!    the scalar reference kernels (`ops::matmul::naive`), for random
//!    shapes including ones that are not multiples of the register tile.
//! 2. The worker pool changes only wall-clock time: running a kernel at
//!    any thread count yields exactly the serial result, because work is
//!    only ever split over disjoint output rows.
//!
//! Shapes are drawn on both sides of the kernels' pool threshold
//! (`m * k * n` of 128 Ki multiply-adds): small problems run inline on
//! the calling thread, large ones are split across the pool.

use std::sync::Mutex;

use proptest::prelude::*;

use parallax_tensor::ops::{self, matmul::naive};
use parallax_tensor::{pool, DetRng, Tensor};

/// The pool's thread count is process-wide; tests that set it hold this
/// lock so a concurrent test cannot change it under them.
static THREADS: Mutex<()> = Mutex::new(());

/// `(m, k, n)` either well below the pool threshold (at most 37 Ki
/// products, always inline) or above it (at least 144 Ki products, with
/// at least 24 rows, so two or more threads split it).
fn shape() -> impl Strategy<Value = (usize, usize, usize)> {
    prop_oneof![
        (1usize..40, 1usize..24, 1usize..40),
        (24usize..72, 64usize..96, 96usize..130),
    ]
}

fn tensor_from(seed: u64, rows: usize, cols: usize) -> Tensor {
    Tensor::randn([rows, cols], 1.0, &mut DetRng::seed(seed))
}

/// Bitwise equality (not tolerance-based): the kernels keep a single
/// accumulator per output element and add in ascending-k order, so the
/// blocked path must reproduce the reference exactly.
fn assert_bits_eq(a: &Tensor, b: &Tensor) -> std::result::Result<(), TestCaseError> {
    prop_assert_eq!(a.shape(), b.shape());
    for (x, y) in a.data().iter().zip(b.data()) {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Blocked kernels == scalar reference kernels, bit for bit, on
    /// shapes straddling the MR x NR register tile.
    #[test]
    fn blocked_kernels_match_naive_bitwise(
        mkn in shape(),
        seed in 0u64..1000,
    ) {
        let (m, k, n) = mkn;
        let _threads = THREADS.lock().unwrap_or_else(|e| e.into_inner());
        pool::configure_threads(1);
        let a = tensor_from(seed, m, k);
        let b = tensor_from(seed + 1, k, n);
        assert_bits_eq(
            &ops::matmul(&a, &b).unwrap(),
            &naive::matmul(&a, &b).unwrap(),
        )?;

        let at = tensor_from(seed + 2, k, m);
        assert_bits_eq(
            &ops::matmul_at_b(&at, &b).unwrap(),
            &naive::matmul_at_b(&at, &b).unwrap(),
        )?;

        let bt = tensor_from(seed + 3, n, k);
        assert_bits_eq(
            &ops::matmul_a_bt(&a, &bt).unwrap(),
            &naive::matmul_a_bt(&a, &bt).unwrap(),
        )?;

        assert_bits_eq(
            &ops::transpose(&a).unwrap(),
            &naive::transpose(&a).unwrap(),
        )?;
    }

    /// Pooled execution is a pure wall-clock optimization: every thread
    /// count produces the serial result exactly.
    #[test]
    fn pooled_kernels_are_thread_count_invariant(
        mkn in shape(),
        seed in 0u64..1000,
    ) {
        let (m, k, n) = mkn;
        let _threads = THREADS.lock().unwrap_or_else(|e| e.into_inner());
        let a = tensor_from(seed, m, k);
        let b = tensor_from(seed + 1, k, n);
        let at = tensor_from(seed + 2, k, m);
        let bt = tensor_from(seed + 3, n, k);

        pool::configure_threads(1);
        let serial_ab = ops::matmul(&a, &b).unwrap();
        let serial_atb = ops::matmul_at_b(&at, &b).unwrap();
        let serial_abt = ops::matmul_a_bt(&a, &bt).unwrap();

        for threads in [2usize, 3, 7] {
            pool::configure_threads(threads);
            assert_bits_eq(&ops::matmul(&a, &b).unwrap(), &serial_ab)?;
            assert_bits_eq(&ops::matmul_at_b(&at, &b).unwrap(), &serial_atb)?;
            assert_bits_eq(&ops::matmul_a_bt(&a, &bt).unwrap(), &serial_abt)?;
        }
        pool::configure_threads(1);
    }
}
