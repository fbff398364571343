//! Chaos over sockets: deterministic fault plans driven through the
//! real multi-process TCP transport.
//!
//! Each scenario launches a 1x2 local-process cluster (two workers and
//! one server, three OS processes over `parallax-net`) with a fault
//! plan in the spec, and asserts the fleet-level recovery story: the
//! failure is detected (the fleet loses a generation), the supervisor
//! respawns from the chief's checkpoint, the one-shot fault does not
//! re-fire (write-ahead fired log), and the final weights are bitwise
//! identical to an uninterrupted in-process run of the same spec. A
//! second launch into the same directory must not resume from the
//! first one's checkpoint or treat its fired faults as spent.

use std::path::{Path, PathBuf};
use std::time::Duration;

use parallax_bench::dist::{launch, DistJob, FAULT_LOG};
use parallax_core::RunReport;
use parallax_net::ClusterSpec;

/// Per-generation wall budget; generous for loaded CI machines.
const DEADLINE: Duration = Duration::from_secs(120);

fn spec_for(scenario: &str, fault_spec: &str) -> ClusterSpec {
    let mut dir = std::env::temp_dir();
    dir.push(format!("parallax_dchaos_{}_{scenario}", std::process::id()));
    ClusterSpec {
        preset: "lm".into(),
        machines: 1,
        gpus_per_machine: 2,
        iterations: 6,
        seed: 11,
        wire_format: "f32".into(),
        host: "127.0.0.1".into(),
        ports: Vec::new(),
        artifact_dir: dir.display().to_string(),
        recv_deadline_ms: 3_000,
        fault_spec: fault_spec.into(),
        checkpoint: "run.ckpt".into(),
        snapshot: String::new(),
        checkpoint_interval: 2,
        max_recoveries: 2,
        validate_protocol: true,
    }
}

/// Runs `fault_spec` through the socket fleet `launches` times into one
/// artifact directory and compares each run against an uninterrupted
/// in-process run of the fault-free spec.
fn run_scenario(scenario: &str, fault_spec: &str, launches: usize) {
    let program = PathBuf::from(env!("CARGO_BIN_EXE_repro"));

    // Uninterrupted reference, in-process, same seed/plan/persistence.
    let ref_spec = spec_for(&format!("{scenario}_ref"), "");
    std::fs::create_dir_all(&ref_spec.artifact_dir).unwrap();
    let ref_job = DistJob::build(&ref_spec).unwrap();
    let reference = ref_job
        .runner
        .run(ref_spec.iterations, |w, i| ref_job.feed(w, i))
        .unwrap();

    let spec = spec_for(scenario, fault_spec);
    for launch_no in 1..=launches {
        let scenario = format!("{scenario} launch {launch_no}");
        let run = launch(&program, &spec, DEADLINE)
            .unwrap_or_else(|e| panic!("{scenario}: launch failed: {e}"));
        check_recovered(&scenario, fault_spec, &spec, &reference, &run);
    }

    let _ = std::fs::remove_dir_all(&spec.artifact_dir);
    let _ = std::fs::remove_dir_all(&ref_spec.artifact_dir);
}

/// Asserts one faulted socket run detected the fault, recovered, and
/// landed bitwise on the reference.
fn check_recovered(
    scenario: &str,
    fault_spec: &str,
    spec: &ClusterSpec,
    reference: &RunReport,
    merged: &RunReport,
) {
    // Detection + recovery happened at the fleet level: the first
    // generation died and a respawn finished the run.
    assert!(
        merged.attempts >= 2,
        "{scenario}: expected a lost generation, got {} attempt(s)",
        merged.attempts
    );

    // The one-shot fault was logged write-ahead, so the respawned
    // generation precleared it instead of re-firing it.
    let log = std::fs::read_to_string(Path::new(&spec.artifact_dir).join(FAULT_LOG))
        .unwrap_or_else(|e| panic!("{scenario}: fired-fault log missing: {e}"));
    assert!(
        log.contains(fault_spec),
        "{scenario}: fired log {log:?} does not record {fault_spec:?}"
    );

    // Recovery is exact: bitwise-identical final weights.
    assert_eq!(
        reference.final_model.len(),
        merged.final_model.len(),
        "{scenario}: variable count diverged"
    );
    for (var, expect) in &reference.final_model {
        let got = merged
            .final_model
            .get(var)
            .unwrap_or_else(|| panic!("{scenario}: variable {var} missing from merged run"));
        assert_eq!(expect.shape(), got.shape(), "{scenario}: var {var} shape");
        let same = expect
            .data()
            .iter()
            .zip(got.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(
            same,
            "{scenario}: var {var} weights diverged after recovery"
        );
    }
    // The last iteration always runs in the final attempt, so its loss
    // is the reference's bit for bit (a run that resumed past the end
    // would report 0).
    let last = |r: &RunReport| r.losses.last().map(|l| l.to_bits());
    assert_eq!(merged.losses.len(), spec.iterations, "{scenario}: losses");
    assert_eq!(last(merged), last(reference), "{scenario}: final loss");
}

#[test]
fn worker_kill_over_sockets_recovers_bitwise() {
    // Rank 1 is the second worker on the 1x2 topology; it dies at step
    // 3, after the step-2 checkpoint exists.
    run_scenario("kill", "kill-worker:1:3", 1);
}

#[test]
fn a_second_launch_into_the_same_directory_starts_fresh() {
    // The first launch leaves its step-6 checkpoint and its fired-fault
    // log behind; the second must neither resume from that checkpoint
    // nor treat the kill as already spent.
    run_scenario("relaunch", "kill-worker:1:3", 2);
}

#[test]
fn dropped_message_over_sockets_recovers_bitwise() {
    // The first message from worker rank 0 to the server (rank 2) is
    // dropped; the server times out, the fleet dies before any
    // checkpoint, and the respawn replays from scratch.
    run_scenario("drop", "drop:0:2:0", 1);
}
