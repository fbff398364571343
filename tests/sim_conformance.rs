//! Sim-vs-measured conformance: the calibrated `IterationSim` must
//! predict what real straggler runs measure.
//!
//! Each case runs a homogeneous traced hybrid job (the calibration
//! baseline), distills a `CalibrationProfile` from its trace, applies a
//! matching straggler scale to the cluster model, and checks the
//! simulator's compute-skew ratio and mean PS wait predictions against a
//! second run with the *real* injected slowdown
//! (`ParallaxConfig::machine_slowdown`). Checked predictions: the
//! compute-skew ratio, the mean PS wait, (loosely) the p99 PS wait
//! — the largest modelled idle gap against the power-of-two histogram's
//! p99 bucket bound — and the per-phase figures: the mean exchange
//! phase (barrier skew + exposed communication vs the `phase.exchange`
//! spans) and the per-iteration optimizer-apply total (calibrated
//! `ps.apply` time, skew-invariant, vs the straggler run's `ps.apply`
//! spans). Tolerance bands are the ones DESIGN.md documents
//! (`parallax_bench::straggler::{RATIO_REL_TOL, RATIO_ABS_TOL,
//! WAIT_BAND, P99_BAND, EXCHANGE_BAND, APPLY_BAND}`).
//!
//! Band checks allow one full-matrix retry with a fresh baseline (see
//! `conformance_matrix`); run-health invariants never retry.
//!
//! The tracer is process-global, so every test takes one lock.

use std::sync::{Mutex, MutexGuard};

use parallax_bench::straggler::{conformance_case, measure, traced_run, MACHINES};
use parallax_repro::cluster::CalibrationProfile;

static TRACER: Mutex<()> = Mutex::new(());

fn tracer_lock() -> MutexGuard<'static, ()> {
    TRACER.lock().unwrap_or_else(|e| e.into_inner())
}

/// Iterations per traced run: the 9 `repro straggler` uses, so the
/// best-of skew measurement finds an uncrowded iteration for every
/// machine (at 4 the factor-3 ratio read low in 2 of 40 runs).
const ITERS: usize = 9;
/// The slowdown matrix every preset is checked against.
const FACTORS: [f64; 3] = [1.0, 2.0, 3.0];

/// Runs the factor matrix for one preset against a shared baseline.
/// Run-health invariants (classified traffic, paired push flows) are
/// timing-independent and assert immediately; band violations are
/// returned so the caller can retry the whole matrix once.
fn matrix_attempt(preset: &str) -> Result<(), String> {
    let baseline = traced_run(preset, MACHINES, ITERS, &[]).expect("baseline run");
    let cal = CalibrationProfile::from_dump(&baseline.dump, MACHINES, ITERS as u64).homogenized();
    for factor in FACTORS {
        let (case, run) = conformance_case(preset, MACHINES, ITERS, factor, &baseline, &cal)
            .expect("conformance case");
        // No bytes may escape transport classification when delays are
        // injected: the straggler knob changes timing, never routing.
        let other = &run.report.traffic.other;
        assert_eq!(
            other.total_network_bytes(),
            0,
            "{preset} factor {factor}: untagged network traffic"
        );
        assert_eq!(
            other.intra_bytes(),
            0,
            "{preset} factor {factor}: untagged intra-machine traffic"
        );
        // Every worker push span must pair with exactly one serve span
        // (measure() runs the flow validator internally).
        let measured = measure(&run).expect("measured run stays valid");
        assert!(
            measured.flow_pairs > 0,
            "{preset} factor {factor}: no push->serve flows recorded"
        );
        if !case.ok() {
            return Err(format!(
                "{preset} factor {factor}: prediction outside bands \
                 (ratio {:.3} vs {:.3} [{}], wait {:.6}s vs {:.6}s [{}], \
                 p99 {:.6}s vs {:.6}s [{}], exchange {:.6}s vs {:.6}s [{}], \
                 apply {:.6}s vs {:.6}s [{}])",
                case.predicted_ratio,
                case.measured_ratio,
                if case.ratio_ok() { "ok" } else { "FAIL" },
                case.predicted_wait_s,
                case.measured_wait_s,
                if case.wait_ok() { "ok" } else { "FAIL" },
                case.predicted_p99_s,
                case.measured_p99_s,
                if case.p99_ok() { "ok" } else { "FAIL" },
                case.predicted_exchange_s,
                case.measured_exchange_s,
                if case.exchange_ok() { "ok" } else { "FAIL" },
                case.predicted_apply_s,
                case.measured_apply_s,
                if case.apply_ok() { "ok" } else { "FAIL" },
            ));
        }
    }
    Ok(())
}

/// Asserts the conformance matrix, allowing one full retry with a
/// fresh baseline. On a 1-vCPU time-shared host a single contended
/// scheduling window (stalls of tens of ms have been observed) can
/// corrupt either the calibration baseline or a measured straggler
/// run; a genuine model error is persistent and fails both attempts,
/// while a transient stall cannot plausibly strike twice. The
/// run-health invariants inside `matrix_attempt` are never retried.
fn conformance_matrix(preset: &str) {
    if let Err(first) = matrix_attempt(preset) {
        if let Err(second) = matrix_attempt(preset) {
            panic!("conformance failed twice:\n  first:  {first}\n  second: {second}");
        }
    }
}

#[test]
fn lm_conformance_across_slowdown_factors() {
    let _g = tracer_lock();
    conformance_matrix("lm");
}

#[test]
fn nmt_conformance_across_slowdown_factors() {
    let _g = tracer_lock();
    conformance_matrix("nmt");
}

/// The model also has to hold off the default 4-machine topology: a
/// 3-machine cluster keeps a distinct machine count, server set, and
/// median position.
#[test]
fn three_machine_topology_conforms() {
    let _g = tracer_lock();
    let attempt = || -> Result<(), String> {
        let machines = 3;
        let baseline = traced_run("lm", machines, ITERS, &[]).expect("baseline run");
        let cal =
            CalibrationProfile::from_dump(&baseline.dump, machines, ITERS as u64).homogenized();
        for factor in [1.0, 2.5] {
            let (case, _run) = conformance_case("lm", machines, ITERS, factor, &baseline, &cal)
                .expect("conformance case");
            if !case.ok() {
                return Err(format!(
                    "3-machine factor {factor}: prediction outside bands \
                     (ratio {:.3} vs {:.3}, wait {:.6}s vs {:.6}s, \
                     p99 {:.6}s vs {:.6}s, exchange {:.6}s vs {:.6}s, \
                     apply {:.6}s vs {:.6}s)",
                    case.predicted_ratio,
                    case.measured_ratio,
                    case.predicted_wait_s,
                    case.measured_wait_s,
                    case.predicted_p99_s,
                    case.measured_p99_s,
                    case.predicted_exchange_s,
                    case.measured_exchange_s,
                    case.predicted_apply_s,
                    case.measured_apply_s,
                ));
            }
        }
        Ok(())
    };
    // Same one-retry policy as `conformance_matrix` (see its docs).
    if let Err(first) = attempt() {
        if let Err(second) = attempt() {
            panic!("conformance failed twice:\n  first:  {first}\n  second: {second}");
        }
    }
}
