//! `repro dist`: multi-process socket execution of the training job.
//!
//! One OS process per role (`chief` / `worker` / `server`), connected
//! by `parallax-net`'s TCP mesh. Every process parses the same
//! `CLUSTER.json` spec, derives the same deterministic plan, and calls
//! [`Runner::run_role`] — the *same* function the in-process runner
//! calls once per thread — over an endpoint whose transport happens to
//! cross a process boundary. Everything above the transport seam
//! (tag matching, traffic accounting, fault injection, protocol
//! validation) is shared, which is what makes the two modes
//! bitwise-equivalent.
//!
//! Each role writes an artifact (losses, traffic by class, traced span
//! bytes, chief replica / server shards) into the spec's
//! `artifact_dir` as a tensor container (`parallax_core::snapshot`);
//! the launcher verifies both of its CRCs and merges the artifacts
//! with the exact folds the in-process attempt uses
//! ([`mean_worker_losses`], [`Runner::stitch_final_model`],
//! `TrafficReport::merge_from`).
//!
//! Recovery model: the launcher respawns the *whole fleet* with fresh
//! ports when a generation fails (a fault-injected kill, a timeout
//! from a dropped message). Each process independently loads the
//! chief's checkpoint at startup, so every role resumes from the same
//! step; a write-ahead fired-fault log keeps one-shot faults from
//! re-firing after respawn. Artifacts only exist for the successful
//! generation, so the traced-vs-measured byte crosscheck stays exact.
//!
//! `repro dist-check` is the equivalence gate: same seed and plan,
//! in-process vs sockets, asserting bitwise-identical losses and final
//! weights and byte-identical per-class traffic (static prediction ==
//! traced spans == measured ledger) for both presets.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

use parallax_comm::protocheck::SessionValidator;
use parallax_comm::{Endpoint, PeerHealth, TrafficSnapshot, TrafficStats, WireFormat};
use parallax_core::plancheck::predict_iteration_traffic;
use parallax_core::runner::TrafficReport;
use parallax_core::snapshot::{Snapshot, Writer};
use parallax_core::sparsity::estimate_profile;
use parallax_core::{
    derive_session, get_runner, mean_worker_losses, CoreError, ParallaxConfig, RestorePoint,
    RoleAssignment, RoleOutput, Runner,
};
use parallax_dataflow::{Feed, Graph, NodeId, VarId, VarStore};
use parallax_fault::{FaultInjector, FaultPlan};
use parallax_models::data::ZipfCorpus;
use parallax_models::lm::{LmConfig, LmModel};
use parallax_models::nmt::{NmtConfig, NmtModel};
use parallax_net::{
    free_local_ports, ClusterSpec, Fleet, FleetOutcome, Role, TcpConfig, TcpTransport,
};
use parallax_tensor::{DetRng, Tensor};
use parallax_trace::TraceConfig;

/// Wall budget for one process generation of a test topology. Mesh
/// establishment plus a handful of tiny-preset iterations finishes in
/// seconds; the margin covers loaded CI machines.
pub const GENERATION_DEADLINE: Duration = Duration::from_secs(150);

/// The file name a fired-fault write-ahead log uses inside
/// `artifact_dir` (shared by every role, appended before a fault's
/// verdict is returned, so a SIGKILL cannot lose the record).
pub const FAULT_LOG: &str = "fault_fired.log";

/// A spec-selected model preset plus its corpora.
enum Preset {
    Lm {
        model: LmModel,
        corpus: ZipfCorpus,
    },
    Nmt {
        model: NmtModel,
        src: ZipfCorpus,
        tgt: ZipfCorpus,
    },
}

/// Everything one process (or the in-process reference) needs to run a
/// spec's job: the built model and the configured [`Runner`]. Every
/// process builds this from the same spec and — planning being
/// deterministic — derives the identical plan.
pub struct DistJob {
    preset: Preset,
    /// The configured runner (plan verified at construction).
    pub runner: Runner,
}

impl DistJob {
    /// Builds the job a spec describes: model, sparsity profile,
    /// config, verified plan.
    pub fn build(spec: &ClusterSpec) -> Result<DistJob, String> {
        let wire_format = if spec.wire_format.is_empty() {
            WireFormat::F32
        } else {
            WireFormat::parse(&spec.wire_format)
                .ok_or_else(|| format!("unknown wire format '{}'", spec.wire_format))?
        };
        let fault_plan = if spec.fault_spec.is_empty() {
            FaultPlan::new()
        } else {
            FaultPlan::parse_spec(&spec.fault_spec).map_err(|e| e.to_string())?
        };
        let artifact_dir = PathBuf::from(&spec.artifact_dir);
        let file_path = |name: &str| {
            if name.is_empty() {
                None
            } else {
                Some(artifact_dir.join(name))
            }
        };
        let checkpoint_path = file_path(&spec.checkpoint);
        let snapshot_path = file_path(&spec.snapshot);
        let persists = checkpoint_path.is_some() || snapshot_path.is_some();
        let config = ParallaxConfig {
            seed: spec.seed,
            wire_format,
            fault_plan,
            checkpoint_path,
            snapshot_path,
            checkpoint_interval: if persists {
                spec.checkpoint_interval
            } else {
                0
            },
            recv_deadline: (spec.recv_deadline_ms > 0)
                .then(|| Duration::from_millis(spec.recv_deadline_ms)),
            max_recoveries: spec.max_recoveries,
            validate_protocol: spec.validate_protocol,
            ..ParallaxConfig::default()
        };
        let gpus = vec![spec.gpus_per_machine; spec.machines];
        match spec.preset.as_str() {
            "nmt" => {
                let model = NmtModel::build(NmtConfig::tiny()).map_err(|e| e.to_string())?;
                let src = ZipfCorpus::new(model.config.src_vocab, 1.0);
                let tgt = ZipfCorpus::new(model.config.tgt_vocab, 1.0);
                let profile = {
                    let feed = model.feed(&src, &tgt, &mut DetRng::seed(100));
                    estimate_profile(&model.built.graph, &[feed], 1).map_err(|e| e.to_string())?
                };
                let runner = get_runner(
                    model.built.graph.clone(),
                    model.built.loss,
                    gpus,
                    config,
                    profile,
                )
                .map_err(|e| e.to_string())?;
                Ok(DistJob {
                    preset: Preset::Nmt { model, src, tgt },
                    runner,
                })
            }
            "lm" => {
                let model = LmModel::build(LmConfig::tiny()).map_err(|e| e.to_string())?;
                let corpus = ZipfCorpus::new(model.config.vocab, 1.0);
                let profile = {
                    let feed = model.feed(&corpus, &mut DetRng::seed(100));
                    estimate_profile(&model.built.graph, &[feed], 1).map_err(|e| e.to_string())?
                };
                let runner = get_runner(
                    model.built.graph.clone(),
                    model.built.loss,
                    gpus,
                    config,
                    profile,
                )
                .map_err(|e| e.to_string())?;
                Ok(DistJob {
                    preset: Preset::Lm { model, corpus },
                    runner,
                })
            }
            other => Err(format!("unknown preset '{other}' (known: lm, nmt)")),
        }
    }

    /// The single-GPU graph the job trains.
    pub fn graph(&self) -> &Graph {
        match &self.preset {
            Preset::Lm { model, .. } => &model.built.graph,
            Preset::Nmt { model, .. } => &model.built.graph,
        }
    }

    /// The loss node.
    pub fn loss(&self) -> NodeId {
        match &self.preset {
            Preset::Lm { model, .. } => model.built.loss,
            Preset::Nmt { model, .. } => model.built.loss,
        }
    }

    /// Worker `w`'s mini-batch for iteration `i` — the deterministic
    /// feed both execution modes share (seeds match `repro check`'s).
    pub fn feed(&self, w: usize, i: usize) -> Feed {
        let workers = self.runner.topology().num_workers();
        match &self.preset {
            Preset::Lm { model, corpus } => {
                model.sharded_feed(corpus, workers, w, &mut DetRng::seed(5000 + i as u64))
            }
            Preset::Nmt { model, src, tgt } => {
                model.sharded_feed(src, tgt, workers, w, &mut DetRng::seed(6000 + i as u64))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Role artifacts: the per-process half of a run report, merged by the
// launcher. Each is one tensor container (`parallax_core::snapshot`),
// and reads verify both of its CRCs.
// ---------------------------------------------------------------------------

/// Artifact sections: `u64` scalars and shard keys, `f32` per-iteration
/// series, the chief's replica and the server shards (tensors named by
/// position), and one traffic ledger per class.
const META: &str = "meta";
const SERIES: &str = "series";
const STORE: &str = "store";
const SHARDS: &str = "shards";
const LEDGERS: [&str; 5] = ["nccl", "mpi", "ps", "local_agg", "other"];

/// What one role process writes on success.
pub struct RoleArtifact {
    /// The role that produced this artifact.
    pub role: Role,
    /// The iteration this generation resumed from (0 = fresh start).
    pub start_iter: usize,
    /// `TraceDump::total_span_bytes()` of the process's traced run.
    pub span_bytes: u64,
    /// Worker per-iteration losses for `start_iter..iterations`.
    pub losses: Vec<f32>,
    /// Chief per-iteration gradient norms (under `trace_gradients`).
    pub norms: Vec<f32>,
    /// Worker forward+backward seconds.
    pub compute_secs: f64,
    /// Chief replica values in graph variable order (empty for every
    /// other role).
    pub store: Vec<Tensor>,
    /// Server shard values `((var index, partition), value)`.
    pub shards: Vec<((u64, u64), Tensor)>,
    /// The process's measured traffic by class (sender-side only, so
    /// per-process snapshots merge disjointly).
    pub traffic: TrafficReport,
}

/// The artifact file name for `role` inside an artifact directory.
pub fn artifact_name(role: Role) -> String {
    match role {
        Role::Chief => "artifact_worker0.bin".into(),
        Role::Worker { index } => format!("artifact_worker{index}.bin"),
        Role::Server { machine } => format!("artifact_server{machine}.bin"),
    }
}

fn ledgers(t: &TrafficReport) -> [&TrafficSnapshot; 5] {
    [&t.nccl, &t.mpi, &t.ps, &t.local_agg, &t.other]
}

fn read_ledger(snap: &Snapshot, section: &str) -> Result<TrafficSnapshot, CoreError> {
    let link_bytes = snap
        .u64s(section, "links")?
        .chunks_exact(3)
        .map(|l| ((l[0] as usize, l[1] as usize), l[2]))
        .collect();
    let [inter_messages, intra_messages] = snap.u64s(section, "messages")?[..] else {
        return Err(CoreError::Config(format!("{section}: bad message counts")));
    };
    Ok(TrafficSnapshot {
        out_bytes: snap.u64s(section, "out_bytes")?,
        in_bytes: snap.u64s(section, "in_bytes")?,
        link_bytes,
        intra_bytes_per_machine: snap.u64s(section, "intra_bytes")?,
        inter_messages,
        intra_messages,
    })
}

impl RoleArtifact {
    /// Writes the artifact atomically as a tensor container.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let kind = match self.role {
            Role::Chief | Role::Worker { .. } => 0,
            Role::Server { .. } => 1,
        };
        let keys = self.shards.iter().flat_map(|&((v, p), _)| [v, p]).collect();
        let mut w = Writer::new();
        w.u64s(META, "role", vec![kind, self.role.index() as u64])
            .u64s(META, "start_iter", vec![self.start_iter as u64])
            .u64s(META, "span_bytes", vec![self.span_bytes])
            .u64s(META, "compute_secs", vec![self.compute_secs.to_bits()])
            .u64s(META, "shard_keys", keys)
            .f32s(SERIES, "losses", &self.losses)
            .f32s(SERIES, "norms", &self.norms);
        for (i, t) in self.store.iter().enumerate() {
            w.tensor(STORE, &i.to_string(), t);
        }
        for (i, (_, t)) in self.shards.iter().enumerate() {
            w.tensor(SHARDS, &i.to_string(), t);
        }
        for (section, s) in LEDGERS.into_iter().zip(ledgers(&self.traffic)) {
            let mut links: Vec<[u64; 3]> = s
                .link_bytes
                .iter()
                .map(|(&(a, b), &v)| [a as u64, b as u64, v])
                .collect();
            links.sort_unstable();
            w.u64s(section, "out_bytes", s.out_bytes.clone())
                .u64s(section, "in_bytes", s.in_bytes.clone())
                .u64s(section, "intra_bytes", s.intra_bytes_per_machine.clone())
                .u64s(section, "links", links.concat())
                .u64s(
                    section,
                    "messages",
                    vec![s.inter_messages, s.intra_messages],
                );
        }
        w.write(0, path)
            .map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// Reads an artifact file, verifying both container CRCs.
    pub fn read(path: &Path) -> Result<RoleArtifact, String> {
        Self::parse(path).map_err(|e| format!("read {}: {e}", path.display()))
    }

    fn parse(path: &Path) -> Result<RoleArtifact, CoreError> {
        let snap = Snapshot::open_verified(path)?;
        let bad = |what: &str| CoreError::Config(format!("bad artifact {what}"));
        let scalar = |name: &str| match snap.u64s(META, name)?[..] {
            [x] => Ok(x),
            _ => Err(bad(name)),
        };
        let role = match snap.u64s(META, "role")?[..] {
            [0, 0] => Role::Chief,
            [0, index] => Role::Worker {
                index: index as usize,
            },
            [1, machine] => Role::Server {
                machine: machine as usize,
            },
            _ => return Err(bad("role")),
        };
        let tensors = |section: &str, n: usize| -> Result<Vec<Tensor>, CoreError> {
            (0..n)
                .map(|i| snap.tensor(section, &i.to_string()))
                .collect()
        };
        let keys = snap.u64s(META, "shard_keys")?;
        let store_len = snap.entries().iter().filter(|e| e.section == STORE).count();
        let shards = keys
            .chunks_exact(2)
            .map(|k| (k[0], k[1]))
            .zip(tensors(SHARDS, keys.len() / 2)?)
            .collect();
        Ok(RoleArtifact {
            role,
            start_iter: scalar("start_iter")? as usize,
            span_bytes: scalar("span_bytes")?,
            losses: snap.tensor(SERIES, "losses")?.into_data(),
            norms: snap.tensor(SERIES, "norms")?.into_data(),
            compute_secs: f64::from_bits(scalar("compute_secs")?),
            store: tensors(STORE, store_len)?,
            shards,
            traffic: TrafficReport {
                nccl: read_ledger(&snap, LEDGERS[0])?,
                mpi: read_ledger(&snap, LEDGERS[1])?,
                ps: read_ledger(&snap, LEDGERS[2])?,
                local_agg: read_ledger(&snap, LEDGERS[3])?,
                other: read_ledger(&snap, LEDGERS[4])?,
            },
        })
    }
}

// ---------------------------------------------------------------------------
// Role processes
// ---------------------------------------------------------------------------

/// Runs one role of a spec's job to completion: join the TCP mesh,
/// execute [`Runner::run_role`] with tracing live, write the role
/// artifact. This is the body of `repro dist --role ... --spec ...`.
pub fn role_main(spec_path: &Path, role: Role) -> Result<(), String> {
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("read {}: {e}", spec_path.display()))?;
    let spec = ClusterSpec::from_json(&text).map_err(|e| e.to_string())?;
    spec.validate().map_err(|e| e.to_string())?;
    if spec.ports.len() != spec.num_endpoints() {
        return Err(format!(
            "spec lists {} port(s) for {} endpoints; role processes need \
             the launcher-assigned ports (run `repro dist --launch`)",
            spec.ports.len(),
            spec.num_endpoints()
        ));
    }
    let job = DistJob::build(&spec)?;
    let runner = &job.runner;
    let topo = runner.topology();

    // Satellite: non-chief roles keep persistence paths (the protocol
    // depends on every role deriving the same checkpoint interval) but
    // never publish — surfaced as a typed warning, not a silent race.
    for warning in runner
        .config()
        .role_warnings(role.is_chief(), &role.to_string())
    {
        eprintln!("[parallax-net] warning: {warning}");
    }

    let (assignment, rank) = match role {
        Role::Chief => (RoleAssignment::Worker { index: 0 }, topo.worker_ranks()[0]),
        Role::Worker { index } => {
            let rank = *topo.worker_ranks().get(index).ok_or_else(|| {
                format!(
                    "worker index {index} outside {} workers",
                    topo.num_workers()
                )
            })?;
            (RoleAssignment::Worker { index }, rank)
        }
        Role::Server { machine } => {
            if machine >= topo.num_machines() {
                return Err(format!(
                    "server machine {machine} outside {} machines",
                    topo.num_machines()
                ));
            }
            (
                RoleAssignment::Server { machine },
                topo.server_rank(machine),
            )
        }
    };

    let artifact_dir = PathBuf::from(&spec.artifact_dir);

    // Resume point: every process independently loads the chief's
    // latest checkpoint (if one exists), so the whole fleet agrees on
    // `start_iter` — the multi-process analog of `Runner::run`'s
    // recovery loop threading one RestorePoint to every thread.
    let mut start_iter = 0usize;
    let mut restore: Option<RestorePoint> = None;
    if !spec.checkpoint.is_empty() {
        let ckpt = artifact_dir.join(&spec.checkpoint);
        if ckpt.exists() {
            let (rp, step) = RestorePoint::load(job.graph(), &ckpt).map_err(|e| e.to_string())?;
            eprintln!("[parallax-net] {role}: resuming from checkpoint at step {step}");
            start_iter = step as usize;
            restore = Some(rp);
        }
    }

    // One-shot fault semantics across respawns: fired events are logged
    // write-ahead (flushed before the verdict returns) and precleared
    // on the next generation, matching the in-process runner's single
    // shared injector.
    let injector = Arc::new(
        FaultInjector::new_logged(
            runner.config().fault_plan.clone(),
            &artifact_dir.join(FAULT_LOG),
        )
        .map_err(|e| e.to_string())?,
    );

    let health = Arc::new(PeerHealth::default());
    let tcp = TcpTransport::connect_mesh(&TcpConfig::new(rank, spec.addrs()), Arc::clone(&health))
        .map_err(|e| format!("{role}: mesh: {e}"))?;
    let traffic = TrafficStats::new(topo.num_machines());
    let mut endpoint = Endpoint::from_transport(
        topo.comm().clone(),
        rank,
        Box::new(tcp),
        Arc::clone(&traffic),
        health,
        Some(Arc::clone(&injector)),
    )
    .map_err(|e| e.to_string())?;
    if let Some(d) = runner.config().recv_deadline {
        endpoint.set_recv_deadline(d);
    }
    if cfg!(debug_assertions) || runner.config().validate_protocol {
        let session = derive_session(job.graph(), runner.config(), topo, runner.plan())
            .map_err(|e| e.to_string())?;
        endpoint.set_validator(SessionValidator::from_spec(&session));
    }

    parallax_trace::configure(TraceConfig::on());
    parallax_trace::reset();
    let result = runner.run_role(
        assignment,
        endpoint,
        spec.iterations,
        start_iter,
        restore.as_ref(),
        &injector,
        &|w, i| job.feed(w, i),
    );
    parallax_trace::disable();
    let dump = parallax_trace::drain();
    let output = result.map_err(|e| format!("{role}: {e}"))?;

    let chief_rank = topo.worker_ranks()[0];
    let artifact = match output {
        RoleOutput::Worker {
            losses,
            norms,
            compute_secs,
            store,
        } => RoleArtifact {
            role,
            start_iter,
            span_bytes: dump.total_span_bytes(),
            losses,
            norms,
            compute_secs,
            store: if rank == chief_rank {
                store.values().to_vec()
            } else {
                Vec::new()
            },
            shards: Vec::new(),
            traffic: class_report(&traffic),
        },
        RoleOutput::Server { shards } => RoleArtifact {
            role,
            start_iter,
            span_bytes: dump.total_span_bytes(),
            losses: Vec::new(),
            norms: Vec::new(),
            compute_secs: 0.0,
            store: Vec::new(),
            shards: shards
                .into_iter()
                .map(|((var, part), t)| ((var.index() as u64, part as u64), t))
                .collect(),
            traffic: class_report(&traffic),
        },
    };
    artifact.write(&artifact_dir.join(artifact_name(role)))
}

/// Snapshots a process's accumulator into a per-class report.
fn class_report(traffic: &TrafficStats) -> TrafficReport {
    use parallax_comm::TrafficClass;
    TrafficReport {
        nccl: traffic.class_snapshot(TrafficClass::Nccl),
        mpi: traffic.class_snapshot(TrafficClass::Mpi),
        ps: traffic.class_snapshot(TrafficClass::Ps),
        local_agg: traffic.class_snapshot(TrafficClass::LocalAgg),
        other: traffic.class_snapshot(TrafficClass::Default),
    }
}

// ---------------------------------------------------------------------------
// Chief-side launcher
// ---------------------------------------------------------------------------

/// A merged multi-process run: the socket-mode [`RunReport`] analog,
/// assembled from role artifacts with the in-process folds.
///
/// [`RunReport`]: parallax_core::RunReport
pub struct MergedRun {
    /// Mean training loss per iteration; zeros before the successful
    /// generation's resume point (matching in-process recovery).
    pub losses: Vec<f32>,
    /// Chief per-iteration gradient norms.
    pub grad_norms: Vec<f32>,
    /// Merged per-class traffic of the successful generation.
    pub traffic: TrafficReport,
    /// Max worker compute seconds per executed iteration.
    pub host_compute_per_iter: f64,
    /// Final values of every variable, by variable index.
    pub final_model: HashMap<usize, Tensor>,
    /// Sum of every process's traced span bytes (must equal the merged
    /// ledger's `total_network_bytes`, asserted at merge time).
    pub traced_span_bytes: u64,
    /// Process generations spawned (1 = no recovery needed).
    pub generations: usize,
}

/// Every role of a spec, chief first, in stable launch order.
pub fn roles_of(spec: &ClusterSpec) -> Vec<Role> {
    let workers = spec.machines * spec.gpus_per_machine;
    let mut roles = vec![Role::Chief];
    roles.extend((1..workers).map(|index| Role::Worker { index }));
    roles.extend((0..spec.machines).map(|machine| Role::Server { machine }));
    roles
}

/// Spawns the fleet for `spec` (one `repro dist` process per role),
/// respawning whole generations from the chief's checkpoint on failure
/// up to `spec.max_recoveries` times, and merges the surviving
/// generation's artifacts. Fresh ports are allocated per generation
/// (sidestepping TIME_WAIT), and the spec file is rewritten so every
/// process of a generation sees the same addresses.
pub fn launch(
    program: &Path,
    spec: &mut ClusterSpec,
    deadline: Duration,
) -> Result<MergedRun, String> {
    let artifact_dir = PathBuf::from(&spec.artifact_dir);
    std::fs::create_dir_all(&artifact_dir)
        .map_err(|e| format!("create {}: {e}", artifact_dir.display()))?;
    let job = DistJob::build(spec)?;
    let roles = roles_of(spec);
    let mut generation = 0usize;
    loop {
        spec.ports =
            free_local_ports(spec.num_endpoints()).map_err(|e| format!("port alloc: {e}"))?;
        let spec_path = artifact_dir.join("CLUSTER.json");
        std::fs::write(&spec_path, spec.to_json())
            .map_err(|e| format!("write {}: {e}", spec_path.display()))?;
        // Stale artifacts from a failed generation would carry the
        // wrong resume point; every generation starts clean.
        for role in &roles {
            let _ = std::fs::remove_file(artifact_dir.join(artifact_name(*role)));
        }
        let cmds: Vec<(String, Command)> = roles
            .iter()
            .map(|role| {
                let mut cmd = Command::new(program);
                cmd.arg("dist")
                    .arg("--role")
                    .arg(role.name())
                    .arg("--index")
                    .arg(role.index().to_string())
                    .arg("--spec")
                    .arg(&spec_path);
                (role.to_string(), cmd)
            })
            .collect();
        let mut fleet = Fleet::spawn(cmds).map_err(|e| format!("spawn fleet: {e}"))?;
        match fleet.wait_all(deadline) {
            FleetOutcome::AllOk => return merge(&job, spec, generation + 1),
            FleetOutcome::Failed { label, code } => {
                if spec.checkpoint.is_empty() || generation >= spec.max_recoveries {
                    return Err(format!(
                        "generation {generation}: {label} exited with code {code:?} \
                         (recovery budget exhausted or no checkpoint configured)"
                    ));
                }
                eprintln!(
                    "[parallax-net] generation {generation}: {label} exited with code \
                     {code:?}; respawning fleet from latest checkpoint"
                );
                generation += 1;
            }
            FleetOutcome::DeadlineExpired { still_running } => {
                return Err(format!(
                    "generation {generation}: deadline {deadline:?} expired with \
                     [{}] still running",
                    still_running.join(", ")
                ));
            }
        }
    }
}

/// Reads every role artifact of the successful generation and folds
/// them exactly the way `run_attempt`'s thread scope does.
fn merge(job: &DistJob, spec: &ClusterSpec, generations: usize) -> Result<MergedRun, String> {
    let artifact_dir = PathBuf::from(&spec.artifact_dir);
    let artifacts: Vec<RoleArtifact> = roles_of(spec)
        .into_iter()
        .map(|role| RoleArtifact::read(&artifact_dir.join(artifact_name(role))))
        .collect::<Result<_, _>>()?;

    let start_iter = artifacts[0].start_iter;
    if artifacts.iter().any(|a| a.start_iter != start_iter) {
        return Err("artifacts disagree on the resume iteration".into());
    }

    let workers = spec.machines * spec.gpus_per_machine;
    let per_worker: Vec<Vec<f32>> = artifacts[..workers]
        .iter()
        .map(|a| a.losses.clone())
        .collect();
    let mean = mean_worker_losses(&per_worker);
    let mut losses = vec![0.0f32; spec.iterations];
    for (slot, &l) in losses[start_iter..].iter_mut().zip(&mean) {
        *slot = l;
    }

    if artifacts[0].store.is_empty() {
        return Err("chief artifact carries no replica store".into());
    }
    let chief = VarStore::from_values(artifacts[0].store.clone());
    let shard_values: Vec<((VarId, usize), Tensor)> = artifacts
        .iter()
        .flat_map(|a| {
            a.shards.iter().map(|((var, part), t)| {
                (
                    (VarId::from_index(*var as usize), *part as usize),
                    t.clone(),
                )
            })
        })
        .collect();
    let final_model = job
        .runner
        .stitch_final_model(&chief, shard_values)
        .map_err(|e| e.to_string())?;

    let mut traffic = TrafficReport::default();
    let mut traced_span_bytes = 0u64;
    for a in &artifacts {
        traffic.merge_from(&a.traffic);
        traced_span_bytes += a.span_bytes;
    }
    // Cross-process half of the byte crosscheck: sender-attributed
    // trace spans must account for every measured network byte.
    let measured = traffic.total_network_bytes();
    if traced_span_bytes != measured {
        return Err(format!(
            "traced span bytes {traced_span_bytes} != measured network bytes {measured}"
        ));
    }

    let attempt_iters = (spec.iterations - start_iter).max(1);
    let host_compute_per_iter = artifacts[..workers]
        .iter()
        .map(|a| a.compute_secs)
        .fold(0.0, f64::max)
        / attempt_iters as f64;

    Ok(MergedRun {
        losses,
        grad_norms: artifacts[0].norms.clone(),
        traffic,
        host_compute_per_iter,
        final_model,
        traced_span_bytes,
        generations,
    })
}

// ---------------------------------------------------------------------------
// The dist-check equivalence gate
// ---------------------------------------------------------------------------

/// A fresh per-process temp artifact directory.
fn temp_artifact_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("parallax_dist_{}_{tag}", std::process::id()));
    p
}

/// A no-fault test spec for one preset.
fn check_spec(preset: &str, machines: usize, gpus: usize, wire: &str) -> ClusterSpec {
    ClusterSpec {
        preset: preset.into(),
        machines,
        gpus_per_machine: gpus,
        iterations: 2,
        seed: 7,
        wire_format: wire.into(),
        host: "127.0.0.1".into(),
        ports: Vec::new(),
        artifact_dir: temp_artifact_dir(preset).display().to_string(),
        recv_deadline_ms: 20_000,
        fault_spec: String::new(),
        checkpoint: String::new(),
        snapshot: String::new(),
        checkpoint_interval: 0,
        max_recoveries: 0,
        validate_protocol: true,
    }
}

/// Reports the network bytes of the nccl and ps classes and whether
/// both are non-zero: every preset must move both across machines, since
/// a class with no network bytes compares 0 B with 0 B and proves
/// nothing.
fn classes_carry_bytes(out: &mut String, traffic: &TrafficReport) -> bool {
    let mut ok = true;
    for (name, class) in [("nccl", &traffic.nccl), ("ps", &traffic.ps)] {
        let bytes = class.total_network_bytes();
        let _ = writeln!(
            out,
            "traffic[{name}]: {bytes} B across machines: {}",
            if bytes > 0 { "non-zero" } else { "ZERO" }
        );
        ok &= bytes > 0;
    }
    ok
}

fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One preset's equivalence check: in-process run vs socket run from
/// the identical spec, plus the static per-iteration prediction.
fn check_preset(out: &mut String, program: &Path, mut spec: ClusterSpec) -> Result<bool, String> {
    let label = format!(
        "{} on {} machine(s) x {} GPU(s), wire {}",
        spec.preset,
        spec.machines,
        spec.gpus_per_machine,
        if spec.wire_format.is_empty() {
            "f32"
        } else {
            &spec.wire_format
        }
    );
    let _ = writeln!(out, "-- dist-check: {label} --");

    // In-process reference from the very same spec-derived job.
    let job = DistJob::build(&spec)?;
    let reference = job
        .runner
        .run(spec.iterations, |w, i| job.feed(w, i))
        .map_err(|e| e.to_string())?;

    // Static prediction, summed per iteration (feeds are
    // iteration-dependent, so each iteration is predicted on its own
    // feeds and the per-class ledgers accumulate).
    let workers = job.runner.topology().num_workers();
    let mut predicted = TrafficReport::default();
    for i in 0..spec.iterations {
        let feeds: Vec<Feed> = (0..workers).map(|w| job.feed(w, i)).collect();
        let (p, conservation) = predict_iteration_traffic(
            job.graph(),
            job.loss(),
            job.runner.plan(),
            job.runner.topology(),
            job.runner.config(),
            &feeds,
        )
        .map_err(|e| e.to_string())?;
        if conservation.has_errors() {
            return Err(format!(
                "iteration {i} byte conservation failed:\n{}",
                conservation.render()
            ));
        }
        predicted.merge_from(&p);
    }

    // The socket run.
    let merged = launch(program, &mut spec, GENERATION_DEADLINE)?;
    let _ = std::fs::remove_dir_all(&spec.artifact_dir);

    let mut ok = true;
    let losses_eq = bitwise_eq(&reference.losses, &merged.losses);
    let _ = writeln!(
        out,
        "losses: {} iterations, bitwise {}",
        merged.losses.len(),
        if losses_eq { "EQUAL" } else { "DIFFER" }
    );
    ok &= losses_eq;

    let mut weights_eq = reference.final_model.len() == merged.final_model.len();
    for (var, t) in &reference.final_model {
        match merged.final_model.get(var) {
            Some(m) => weights_eq &= bitwise_eq(t.data(), m.data()),
            None => weights_eq = false,
        }
    }
    let _ = writeln!(
        out,
        "final model: {} variables, bitwise {}",
        reference.final_model.len(),
        if weights_eq { "EQUAL" } else { "DIFFER" }
    );
    ok &= weights_eq;

    let classes = [
        ("nccl", &reference.traffic.nccl, &merged.traffic.nccl),
        ("mpi", &reference.traffic.mpi, &merged.traffic.mpi),
        ("ps", &reference.traffic.ps, &merged.traffic.ps),
        (
            "local_agg",
            &reference.traffic.local_agg,
            &merged.traffic.local_agg,
        ),
        ("other", &reference.traffic.other, &merged.traffic.other),
    ];
    for (name, r, m) in classes {
        let eq = r == m;
        let _ = writeln!(
            out,
            "traffic[{name}]: in-process {} B / sockets {} B, per-link {}",
            r.total_network_bytes() + r.intra_bytes(),
            m.total_network_bytes() + m.intra_bytes(),
            if eq { "EQUAL" } else { "DIFFER" }
        );
        ok &= eq;
    }

    ok &= classes_carry_bytes(out, &merged.traffic);

    let pred_classes = [
        ("nccl", &predicted.nccl, &merged.traffic.nccl),
        ("mpi", &predicted.mpi, &merged.traffic.mpi),
        ("ps", &predicted.ps, &merged.traffic.ps),
        ("local_agg", &predicted.local_agg, &merged.traffic.local_agg),
        ("other", &predicted.other, &merged.traffic.other),
    ];
    let pred_eq = pred_classes.iter().all(|(_, p, m)| p == m);
    let _ = writeln!(
        out,
        "static prediction: {} B predicted == {} B measured: {}",
        predicted.total_network_bytes(),
        merged.traffic.total_network_bytes(),
        if pred_eq { "EQUAL" } else { "DIFFER" }
    );
    ok &= pred_eq;

    let _ = writeln!(
        out,
        "traced spans: {} B == measured {} B (asserted at merge)",
        merged.traced_span_bytes,
        merged.traffic.total_network_bytes()
    );
    let _ = writeln!(out, "{label}: {}\n", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

/// The `repro dist-check` gate: for both presets, launch a local
/// process topology and assert the equivalence guarantee — same seed
/// and plan, bitwise-identical losses and final weights, byte-identical
/// per-class traffic (predicted == traced == measured) between the
/// in-process and socket modes. `program` is the `repro` binary to
/// spawn role processes from (normally `current_exe`).
pub fn run(program: &Path) -> (String, bool) {
    let mut out = String::new();
    let _ = writeln!(out, "== Distributed equivalence: in-process vs sockets ==");
    let mut all_ok = true;
    for spec in [
        // lm exercises the sparse-PS path and local aggregation with
        // compressed wire words, and its fused 16-bit ring crosses real
        // sockets between machines.
        check_spec("lm", 2, 2, "f16"),
        // nmt crosses a (modelled) machine boundary, so per-link bytes
        // in the merged ledger cover genuinely inter-process links.
        check_spec("nmt", 2, 1, "f32"),
    ] {
        match check_preset(&mut out, program, spec) {
            Ok(ok) => all_ok &= ok,
            Err(e) => {
                let _ = writeln!(out, "dist-check error: {e}");
                all_ok = false;
            }
        }
    }
    let _ = writeln!(out, "dist-check: {}", if all_ok { "PASS" } else { "FAIL" });
    (out, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact() -> RoleArtifact {
        let snap = |seed: u64| TrafficSnapshot {
            out_bytes: vec![seed, seed + 1],
            in_bytes: vec![seed + 2, seed + 3],
            link_bytes: HashMap::from([((0, 1), seed + 4)]),
            intra_bytes_per_machine: vec![seed + 5, seed + 6],
            inter_messages: seed + 7,
            intra_messages: seed + 8,
        };
        RoleArtifact {
            role: Role::Worker { index: 3 },
            start_iter: 2,
            span_bytes: 99,
            losses: vec![1.5, -0.25],
            norms: vec![0.5],
            compute_secs: 1.25,
            store: vec![Tensor::zeros([2, 2]), Tensor::full([3], 7.0)],
            shards: vec![((4, 1), Tensor::full([2], -1.0))],
            traffic: TrafficReport {
                nccl: snap(10),
                mpi: snap(20),
                ps: snap(30),
                local_agg: snap(40),
                other: snap(50),
            },
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("parallax_artifact_{}_{name}", std::process::id()))
    }

    /// Writes `artifact()`, then returns its path and bytes.
    fn written(name: &str) -> (PathBuf, Vec<u8>) {
        let path = temp_path(name);
        artifact().write(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        (path, bytes)
    }

    #[test]
    fn artifact_roundtrips() {
        let a = artifact();
        let (path, _) = written("roundtrip");
        let b = RoleArtifact::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(b.role, Role::Worker { index: 3 });
        assert_eq!(b.start_iter, 2);
        assert_eq!(b.span_bytes, 99);
        assert_eq!(b.losses, a.losses);
        assert_eq!(b.norms, a.norms);
        assert_eq!(b.compute_secs.to_bits(), a.compute_secs.to_bits());
        assert_eq!(b.store.len(), 2);
        assert_eq!(b.store[0].shape().dims(), &[2, 2]);
        assert_eq!(b.store[1].data(), &[7.0, 7.0, 7.0]);
        assert_eq!(b.shards.len(), 1);
        assert_eq!(b.shards[0], a.shards[0]);
        for (got, want) in ledgers(&b.traffic).into_iter().zip(ledgers(&a.traffic)) {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn truncated_artifact_fails_cleanly() {
        let (path, bytes) = written("truncated");
        for cut in [0, 5, 9, 20, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(RoleArtifact::read(&path).is_err(), "cut {cut}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_loss_bit_and_appended_byte_are_rejected() {
        let (path, bytes) = written("corrupt");
        let loss_at = {
            let snap = Snapshot::open(&path).unwrap();
            snap.entries()[snap.find(SERIES, "losses").unwrap()].offset
        };
        let mut flipped = bytes.clone();
        flipped[loss_at] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        let err = RoleArtifact::read(&path)
            .err()
            .expect("flipped loss bit accepted");
        assert!(err.contains("data CRC"), "{err}");

        let mut appended = bytes;
        appended.push(0);
        std::fs::write(&path, &appended).unwrap();
        assert!(RoleArtifact::read(&path).is_err(), "appended byte accepted");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn roles_cover_every_rank_chief_first() {
        let spec = check_spec("lm", 2, 2, "f32");
        let roles = roles_of(&spec);
        assert_eq!(roles.len(), spec.num_endpoints() - 2 + 2);
        assert_eq!(roles[0], Role::Chief);
        assert!(matches!(roles[4], Role::Server { machine: 0 }));
    }

    #[test]
    fn dist_job_builds_for_both_presets() {
        for (preset, machines, gpus) in [("lm", 2, 2), ("nmt", 2, 1)] {
            let spec = check_spec(preset, machines, gpus, "f32");
            let job = DistJob::build(&spec).unwrap_or_else(|e| panic!("{preset}: {e}"));
            assert_eq!(job.runner.topology().num_workers(), machines * gpus);
            // Feeds exist for every worker and shard-select the batch.
            let a = job.feed(0, 1);
            let b = job.feed(1, 1);
            assert!(!a.is_empty());
            assert_eq!(a.len(), b.len());
        }
    }

    #[test]
    fn classes_without_network_bytes_fail_the_gate() {
        let mut out = String::new();
        assert!(!classes_carry_bytes(&mut out, &TrafficReport::default()));
        assert!(
            out.contains("traffic[nccl]: 0 B across machines: ZERO"),
            "{out}"
        );
        let mut traffic = artifact().traffic;
        assert!(classes_carry_bytes(&mut String::new(), &traffic));
        traffic.ps = TrafficSnapshot::default();
        assert!(!classes_carry_bytes(&mut String::new(), &traffic));
    }

    #[test]
    fn unknown_preset_and_wire_are_typed_errors() {
        let mut spec = check_spec("tabular", 1, 1, "f32");
        let Err(e) = DistJob::build(&spec) else {
            panic!("bogus preset accepted")
        };
        assert!(e.contains("unknown preset"));
        spec.preset = "lm".into();
        spec.wire_format = "f8".into();
        let Err(e) = DistJob::build(&spec) else {
            panic!("bogus wire format accepted")
        };
        assert!(e.contains("unknown wire format"));
    }
}
