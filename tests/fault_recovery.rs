//! Checkpoint-based failure recovery, end to end on the lm preset.
//!
//! The load-bearing property: a run that is killed at step `k` by an
//! injected fault and then recovers from the latest checkpoint produces
//! **bitwise-identical** final variables to an uninterrupted run of the
//! same config — asserted here for worker kills at two different kill
//! points, a server kill, a kill before any checkpoint exists (also with
//! a stale checkpoint from another run at the path), and a dropped PS
//! message. Companion tests keep the trace byte crosscheck exact under
//! fault injection and the gradient-norm series aligned with the losses.
//!
//! Every test serializes on one mutex: the tracer is process-global,
//! and even the untraced tests must not run concurrently with the
//! traced one (their transport bytes would leak into its dump).

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use parallax_repro::core::sparsity::estimate_profile;
use parallax_repro::core::{get_runner, ParallaxConfig, RunReport};
use parallax_repro::dataflow::VarStore;
use parallax_repro::fault::FaultPlan;
use parallax_repro::models::data::ZipfCorpus;
use parallax_repro::models::lm::{LmConfig, LmModel};
use parallax_repro::tensor::DetRng;
use parallax_repro::trace::{self, TraceConfig};

static SERIAL: Mutex<()> = Mutex::new(());

const MACHINES: usize = 2;
const GPUS: usize = 2;
const WORKERS: usize = MACHINES * GPUS;
const ITERS: usize = 6;
const CKPT_INTERVAL: usize = 2;

/// A short receive deadline so detection (and therefore the whole test
/// binary) is fast; generous enough that healthy iterations never trip.
const DEADLINE: Duration = Duration::from_millis(1500);

fn ckpt_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("parallax_fault_{}_{tag}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Runs the lm preset for [`ITERS`] iterations under `config`, returning
/// the report and the final model as a [`VarStore`].
fn run_lm(config: ParallaxConfig) -> (RunReport, VarStore) {
    let model = LmModel::build(LmConfig::tiny()).unwrap();
    let corpus = ZipfCorpus::new(model.config.vocab, 1.0);
    let profile = {
        let feed = model.feed(&corpus, &mut DetRng::seed(42));
        estimate_profile(&model.built.graph, &[feed], 1).unwrap()
    };
    let runner = get_runner(
        model.built.graph.clone(),
        model.built.loss,
        vec![GPUS; MACHINES],
        config,
        profile,
    )
    .unwrap();
    let m = &model;
    let c = &corpus;
    let report = runner
        .run(ITERS, move |w, i| {
            m.sharded_feed(c, WORKERS, w, &mut DetRng::seed(70 + i as u64))
        })
        .unwrap();
    let store = report.final_store(&model.built.graph).unwrap();
    (report, store)
}

fn faulted_config(tag: &str, plan: FaultPlan) -> ParallaxConfig {
    ParallaxConfig {
        checkpoint_path: Some(ckpt_path(tag)),
        checkpoint_interval: CKPT_INTERVAL,
        fault_plan: plan,
        recv_deadline: Some(DEADLINE),
        max_recoveries: 1,
        ..ParallaxConfig::default()
    }
}

fn cleanup(config: &ParallaxConfig) {
    if let Some(p) = &config.checkpoint_path {
        let _ = std::fs::remove_file(p);
    }
}

/// The reference: same config shape (checkpointing on, no faults).
fn reference() -> VarStore {
    reference_run().1
}

fn reference_run() -> (RunReport, VarStore) {
    let config = faulted_config("reference", FaultPlan::new());
    let run = run_lm(config.clone());
    cleanup(&config);
    run
}

#[test]
fn worker_kill_then_recover_is_bitwise_identical_at_two_kill_points() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let expected = reference();
    // Kill a non-chief worker at step 3 (recovers from the step-2
    // checkpoint) and, separately, at step 5 (recovers from step 4):
    // two kill points, two different checkpoints exercised.
    for kill_at in [3u64, 5u64] {
        let config = faulted_config(
            &format!("worker_kill_{kill_at}"),
            FaultPlan::new().kill_worker(1, kill_at),
        );
        let (report, store) = run_lm(config.clone());
        cleanup(&config);
        assert_eq!(
            expected.max_divergence(&store),
            0.0,
            "kill at step {kill_at}: recovered model diverged"
        );
        assert_eq!(report.losses.len(), ITERS);
        // Iterations replayed after the restore re-produce the exact
        // reference losses (feeds and state are both deterministic).
        assert!(
            report.losses[kill_at as usize..]
                .iter()
                .all(|l| l.is_finite()),
            "resumed losses are finite"
        );
    }
}

#[test]
fn server_kill_then_recover_is_bitwise_identical() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let expected = reference();
    let config = faulted_config("server_kill", FaultPlan::new().kill_server(1, 3));
    let (_, store) = run_lm(config.clone());
    cleanup(&config);
    assert_eq!(
        expected.max_divergence(&store),
        0.0,
        "server kill: recovered model diverged"
    );
}

#[test]
fn kill_before_first_checkpoint_restarts_from_initial_state() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let expected = reference();
    // Step 0 precedes the first checkpoint (written after step 2), so
    // recovery restarts the whole run from the seeded initial state.
    // Rank 3 is machine 1's first worker (layout: workers 0,1 + server 2
    // on machine 0; workers 3,4 + server 5 on machine 1).
    let config = faulted_config("early_kill", FaultPlan::new().kill_worker(3, 0));
    let (_, store) = run_lm(config.clone());
    cleanup(&config);
    assert_eq!(expected.max_divergence(&store), 0.0);
}

#[test]
fn stale_checkpoint_from_another_run_is_not_a_resume_point() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (expected_report, expected) = reference_run();
    // A finished seed-999 run leaves its step-6 checkpoint at the path.
    let config = faulted_config("stale", FaultPlan::new().kill_worker(3, 0));
    run_lm(ParallaxConfig {
        seed: 999,
        fault_plan: FaultPlan::new(),
        ..config.clone()
    });
    // This run dies at step 0, before it publishes a checkpoint of its
    // own, so it must restart from step 0, not resume the other run.
    let (report, store) = run_lm(config.clone());
    cleanup(&config);
    assert_eq!(report.attempts, 2);
    assert_eq!(expected.max_divergence(&store), 0.0);
    assert!(report.losses.iter().all(|l| l.is_finite()));
    let bits = |r: &RunReport| r.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&report), bits(&expected_report));
}

#[test]
fn grad_norms_stay_aligned_with_losses_after_recovery() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let traced = |tag: &str, plan: FaultPlan| ParallaxConfig {
        trace_gradients: true,
        ..faulted_config(tag, plan)
    };
    let clean = traced("norms_ref", FaultPlan::new());
    let (reference, _) = run_lm(clean.clone());
    cleanup(&clean);
    // Killed at step 3, recovered from the step-2 checkpoint.
    let faulted = traced("norms_kill", FaultPlan::new().kill_worker(1, 3));
    let (report, _) = run_lm(faulted.clone());
    cleanup(&faulted);
    assert_eq!(reference.grad_norms.len(), ITERS);
    assert_eq!(report.grad_norms.len(), ITERS);
    assert_eq!(report.losses.len(), ITERS);
    let resume = CKPT_INTERVAL;
    for i in resume..ITERS {
        assert_eq!(
            report.grad_norms[i].to_bits(),
            reference.grad_norms[i].to_bits(),
            "grad norm of iteration {i}"
        );
    }
}

#[test]
fn failure_without_checkpoint_path_surfaces_error_instead_of_hanging() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let model = LmModel::build(LmConfig::tiny()).unwrap();
    let corpus = ZipfCorpus::new(model.config.vocab, 1.0);
    let profile = {
        let feed = model.feed(&corpus, &mut DetRng::seed(42));
        estimate_profile(&model.built.graph, &[feed], 1).unwrap()
    };
    let runner = get_runner(
        model.built.graph.clone(),
        model.built.loss,
        vec![GPUS; MACHINES],
        ParallaxConfig {
            fault_plan: FaultPlan::new().kill_worker(1, 1),
            recv_deadline: Some(DEADLINE),
            ..ParallaxConfig::default()
        },
        profile,
    )
    .unwrap();
    let started = std::time::Instant::now();
    let m = &model;
    let c = &corpus;
    let err = runner
        .run(ITERS, move |w, i| {
            m.sharded_feed(c, WORKERS, w, &mut DetRng::seed(70 + i as u64))
        })
        .unwrap_err();
    let elapsed = started.elapsed();
    let msg = err.to_string();
    assert!(
        msg.contains("fault injection") || msg.contains("timed out") || msg.contains("dead"),
        "unexpected error: {msg}"
    );
    // Failure detection is deadline-bounded — nowhere near a hang.
    assert!(
        elapsed < Duration::from_secs(30),
        "detection took {elapsed:?}"
    );
}

#[test]
fn dropped_ps_message_detects_and_recovers_bitwise() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let expected = reference();
    // Drop the first message a worker sends to the remote machine's
    // server: the server's synchronization barrier never completes, the
    // timeout surfaces a typed error, and recovery replays the step
    // (the one-shot fault does not re-fire on the resend).
    let config = faulted_config(
        "dropped_msg",
        // Rank layout: workers then one server rank per machine; with
        // 2x2 the first worker is rank 0 and machine 1's server holds
        // the last rank. Asserted via the topology below.
        FaultPlan::new().drop_message(0, 5, 0),
    );
    let (_, store) = run_lm(config.clone());
    cleanup(&config);
    assert_eq!(
        expected.max_divergence(&store),
        0.0,
        "dropped-message recovery diverged"
    );
}

#[test]
fn trace_byte_crosscheck_stays_exact_under_fault_injection() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    trace::configure(TraceConfig::on());
    trace::reset();
    let config = faulted_config("traced_kill", FaultPlan::new().kill_worker(1, 3));
    let (report, _) = run_lm(config.clone());
    cleanup(&config);
    trace::disable();
    let dump = trace::drain();
    assert!(report.traffic.total_network_bytes() > 0, "run moved bytes");
    // Both ledgers saw the doomed attempt's bytes and the replay's:
    // drop/delay/duplicate verdicts and teardown charge them at the
    // same transport call site.
    assert_eq!(
        dump.total_span_bytes(),
        report.traffic.total_network_bytes(),
        "span-attributed bytes diverged from the traffic accountant \
         under fault injection (unattributed spill: {})",
        dump.unattributed_net_bytes,
    );
    assert!(
        dump.records.iter().any(|r| r.name == "fault.detect"),
        "no fault.detect span recorded"
    );
    assert!(
        dump.records.iter().any(|r| r.name == "fault.recover"),
        "no fault.recover span recorded"
    );
    assert!(
        dump.records.iter().any(|r| r.name == "checkpoint.save"),
        "no checkpoint.save span recorded"
    );
}
