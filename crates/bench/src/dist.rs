//! `repro dist`: multi-process socket execution of the training job.
//!
//! One OS process per role (`chief` / `worker` / `server`), connected
//! by `parallax-net`'s TCP mesh. Every process parses the same
//! `CLUSTER.json` spec, derives the same deterministic plan, and calls
//! [`Runner::run_role`], the function the thread fleet calls once per
//! thread, over an endpoint whose transport crosses a process boundary.
//! Everything above the transport seam is shared, which is what makes
//! the two modes bitwise-equivalent.
//!
//! - **Role processes** ([`role_main`]) resume from the run's checkpoint
//!   if it published one ([`Runner::resume_point`]), run the role with
//!   tracing live, and write a CRC-checked [`RoleArtifact`] (the role's
//!   report, traced span bytes and traffic by class).
//! - **The process fleet** ([`ProcessFleet`], [`launch`]) is a [`Fleet`]
//!   whose attempt is one generation of role processes on fresh ports;
//!   [`Runner::supervise`], the recovery loop and fold the in-process
//!   runner uses too, drives it. A write-ahead fired-fault log keeps
//!   one-shot faults from re-firing after a respawn; like the
//!   checkpoint, a stale one is removed before the first generation.
//! - **The equivalence gate** (`repro dist-check`, [`run`]): the same
//!   spec in-process and over sockets must give bitwise-identical
//!   losses and weights and byte-identical per-class traffic, equal to
//!   the static prediction where no checkpoint is taken, and
//!   bitwise-equal checkpoints and snapshots where one is.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

use parallax_comm::{Endpoint, PeerHealth, TrafficSnapshot, TrafficStats, WireFormat};
use parallax_core::plancheck::predict_iteration_traffic;
use parallax_core::runner::TrafficReport;
use parallax_core::snapshot::{Snapshot, Writer};
use parallax_core::sparsity::estimate_profile;
use parallax_core::supervisor::remove_stale;
use parallax_core::{
    get_runner, Attempt, CoreError, Fleet, ParallaxConfig, RestorePoint, RoleAssignment,
    RoleOutput, RoleReport, RunReport, Runner,
};
use parallax_dataflow::{Feed, Graph, NodeId, VarId, VarStore};
use parallax_fault::{FaultInjector, FaultPlan};
use parallax_models::data::ZipfCorpus;
use parallax_models::lm::{LmConfig, LmModel};
use parallax_models::nmt::{NmtConfig, NmtModel};
use parallax_net::{free_local_ports, ClusterSpec, FleetOutcome, Role, TcpConfig, TcpTransport};
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
        let (graph, loss, feed, preset) = match spec.preset.as_str() {
            "nmt" => {
                let model = NmtModel::build(NmtConfig::tiny()).map_err(|e| e.to_string())?;
                let src = ZipfCorpus::new(model.config.src_vocab, 1.0);
                let tgt = ZipfCorpus::new(model.config.tgt_vocab, 1.0);
                let feed = model.feed(&src, &tgt, &mut DetRng::seed(100));
                let (graph, loss) = (model.built.graph.clone(), model.built.loss);
                (graph, loss, feed, Preset::Nmt { model, src, tgt })
            }
            "lm" => {
                let model = LmModel::build(LmConfig::tiny()).map_err(|e| e.to_string())?;
                let corpus = ZipfCorpus::new(model.config.vocab, 1.0);
                let feed = model.feed(&corpus, &mut DetRng::seed(100));
                let (graph, loss) = (model.built.graph.clone(), model.built.loss);
                (graph, loss, feed, Preset::Lm { model, corpus })
            }
            other => return Err(format!("unknown preset '{other}' (known: lm, nmt)")),
        };
        let profile = estimate_profile(&graph, &[feed], 1).map_err(|e| e.to_string())?;
        let gpus = vec![spec.gpus_per_machine; spec.machines];
        let runner = get_runner(graph, loss, gpus, config, profile).map_err(|e| e.to_string())?;
        Ok(DistJob { preset, runner })
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
// Role artifacts: a role process's report to the launcher. Each is one
// tensor container (`parallax_core::snapshot`), and reads verify both
// of its CRCs.
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
    /// The role, its resume step and its output. Only the chief's
    /// worker output carries a replica; other workers ship an empty one.
    pub report: RoleReport,
    /// `TraceDump::total_span_bytes()` of the process's traced run.
    pub span_bytes: u64,
    /// The process's measured traffic by class (sender-side only, so
    /// per-process snapshots merge disjointly).
    pub traffic: TrafficReport,
}

/// The artifact file name for `role` inside an artifact directory.
pub fn artifact_name(role: RoleAssignment) -> String {
    match role {
        RoleAssignment::Worker { index } => format!("artifact_worker{index}.bin"),
        RoleAssignment::Server { machine } => format!("artifact_server{machine}.bin"),
    }
}

/// The runner role a process role executes (the chief is worker 0).
fn assignment(role: Role) -> RoleAssignment {
    match role {
        Role::Chief => RoleAssignment::Worker { index: 0 },
        Role::Worker { index } => RoleAssignment::Worker { index },
        Role::Server { machine } => RoleAssignment::Server { machine },
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
        let (kind, index) = match self.report.role {
            RoleAssignment::Worker { index } => (0, index),
            RoleAssignment::Server { machine } => (1, machine),
        };
        let mut w = Writer::new();
        w.u64s(META, "role", vec![kind, index as u64])
            .u64s(META, "start_iter", vec![self.report.start_iter as u64])
            .u64s(META, "span_bytes", vec![self.span_bytes]);
        match &self.report.output {
            RoleOutput::Worker {
                losses,
                norms,
                compute_secs,
                store,
            } => {
                w.u64s(META, "compute_secs", vec![compute_secs.to_bits()])
                    .f32s(SERIES, "losses", losses)
                    .f32s(SERIES, "norms", norms);
                for (i, t) in store.values().iter().enumerate() {
                    w.tensor(STORE, &i.to_string(), t);
                }
            }
            RoleOutput::Server { shards } => {
                let keys = shards.iter().flat_map(|((v, p), _)| [v.index(), *p]);
                w.u64s(META, "shard_keys", keys.map(|k| k as u64).collect());
                for (i, (_, t)) in shards.iter().enumerate() {
                    w.tensor(SHARDS, &i.to_string(), t);
                }
            }
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
        let tensors = |section: &str, n: usize| -> Result<Vec<Tensor>, CoreError> {
            (0..n)
                .map(|i| snap.tensor(section, &i.to_string()))
                .collect()
        };
        let (role, output) = match snap.u64s(META, "role")?[..] {
            [0, index] => {
                let store_len = snap.entries().iter().filter(|e| e.section == STORE).count();
                let output = RoleOutput::Worker {
                    losses: snap.tensor(SERIES, "losses")?.into_data(),
                    norms: snap.tensor(SERIES, "norms")?.into_data(),
                    compute_secs: f64::from_bits(scalar("compute_secs")?),
                    store: VarStore::from_values(tensors(STORE, store_len)?),
                };
                let index = index as usize;
                (RoleAssignment::Worker { index }, output)
            }
            [1, machine] => {
                let keys = snap.u64s(META, "shard_keys")?;
                let shards = keys
                    .chunks_exact(2)
                    .map(|k| (VarId::from_index(k[0] as usize), k[1] as usize))
                    .zip(tensors(SHARDS, keys.len() / 2)?)
                    .collect();
                let machine = machine as usize;
                (
                    RoleAssignment::Server { machine },
                    RoleOutput::Server { shards },
                )
            }
            _ => return Err(bad("role")),
        };
        Ok(RoleArtifact {
            report: RoleReport {
                role,
                start_iter: scalar("start_iter")? as usize,
                output,
            },
            span_bytes: scalar("span_bytes")?,
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

    // Non-chief roles keep persistence paths (the protocol depends on
    // every role deriving the same checkpoint interval) but never
    // publish; surfaced as a typed warning, not a silent race.
    for warning in runner
        .config()
        .role_warnings(role.is_chief(), &role.to_string())
    {
        eprintln!("[parallax-net] warning: {warning}");
    }
    let role = assignment(role);
    let rank = runner.rank_of(role).map_err(|e| e.to_string())?;
    let artifact_dir = PathBuf::from(&spec.artifact_dir);

    // The process half of the resume rule: the launcher's supervisor
    // removed any stale checkpoint before the first generation, so this
    // loads only one the run published, and the supervisor rejects a
    // role whose resume step differs from its own.
    let (restore, start_iter) = runner.resume_point().map_err(|e| e.to_string())?;

    // One-shot fault semantics across respawns: fired events are logged
    // write-ahead (flushed before the verdict returns) and precleared
    // on the next generation, matching the thread fleet's single
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
        .map_err(|e| format!("{role:?}: mesh: {e}"))?;
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
    runner
        .configure_endpoints(std::slice::from_mut(&mut endpoint))
        .map_err(|e| e.to_string())?;

    parallax_trace::configure(TraceConfig::on());
    parallax_trace::reset();
    let result = runner.run_role(
        role,
        endpoint,
        spec.iterations,
        start_iter,
        restore.as_ref(),
        &injector,
        &|w, i| job.feed(w, i),
    );
    parallax_trace::disable();
    let dump = parallax_trace::drain();
    let mut output = result.map_err(|e| format!("{role:?}: {e}"))?;
    if let RoleOutput::Worker { store, .. } = &mut output {
        if role != (RoleAssignment::Worker { index: 0 }) {
            *store = VarStore::from_values(Vec::new());
        }
    }
    let artifact = RoleArtifact {
        report: RoleReport {
            role,
            start_iter,
            output,
        },
        span_bytes: dump.total_span_bytes(),
        traffic: TrafficReport::from_stats(&traffic),
    };
    artifact.write(&artifact_dir.join(artifact_name(role)))
}

// ---------------------------------------------------------------------------
// Chief-side launcher
// ---------------------------------------------------------------------------

/// Every role of a spec, chief first, in stable launch order.
pub fn roles_of(spec: &ClusterSpec) -> Vec<Role> {
    let workers = spec.machines * spec.gpus_per_machine;
    let mut roles = vec![Role::Chief];
    roles.extend((1..workers).map(|index| Role::Worker { index }));
    roles.extend((0..spec.machines).map(|machine| Role::Server { machine }));
    roles
}

/// The multi-process [`Fleet`]: each attempt is one generation of `repro
/// dist --role` processes, one per role, on fresh ports (sidestepping
/// TIME_WAIT). The spec file is rewritten per generation so every
/// process of a generation sees the same addresses. A generation
/// reports its roles only when every process exits cleanly, every
/// artifact passes its CRCs, and the summed traced span bytes equal the
/// merged measured network bytes.
pub struct ProcessFleet {
    program: PathBuf,
    spec: ClusterSpec,
    deadline: Duration,
}

impl ProcessFleet {
    /// A fleet running `spec` from `program`, each generation under
    /// `deadline`. The run owns its fired-fault log, so a stale one is
    /// removed here.
    pub fn new(program: &Path, spec: &ClusterSpec, deadline: Duration) -> Result<Self, String> {
        let dir = Path::new(&spec.artifact_dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        remove_stale(&dir.join(FAULT_LOG)).map_err(|e| e.to_string())?;
        Ok(ProcessFleet {
            program: program.to_path_buf(),
            spec: spec.clone(),
            deadline,
        })
    }

    /// Spawns one generation and reads back every role's report and
    /// the generation's merged traffic.
    fn generation(
        &mut self,
        iterations: usize,
    ) -> Result<(Vec<RoleReport>, TrafficReport), String> {
        self.spec.iterations = iterations;
        let dir = PathBuf::from(&self.spec.artifact_dir);
        self.spec.ports =
            free_local_ports(self.spec.num_endpoints()).map_err(|e| format!("port alloc: {e}"))?;
        let spec_path = dir.join("CLUSTER.json");
        std::fs::write(&spec_path, self.spec.to_json())
            .map_err(|e| format!("write {}: {e}", spec_path.display()))?;
        let roles = roles_of(&self.spec);
        // A failed generation's artifacts must not be read as this one's.
        for &role in &roles {
            let _ = std::fs::remove_file(dir.join(artifact_name(assignment(role))));
        }
        let cmds = roles.iter().map(|role| {
            let mut cmd = Command::new(&self.program);
            cmd.arg("dist")
                .args(["--role", role.name(), "--index", &role.index().to_string()])
                .arg("--spec")
                .arg(&spec_path);
            (role.to_string(), cmd)
        });
        let mut fleet =
            parallax_net::Fleet::spawn(cmds.collect()).map_err(|e| format!("spawn fleet: {e}"))?;
        match fleet.wait_all(self.deadline) {
            FleetOutcome::AllOk => {}
            FleetOutcome::Failed { label, code } => {
                return Err(format!("{label} exited with code {code:?}"))
            }
            FleetOutcome::DeadlineExpired { still_running } => {
                return Err(format!(
                    "deadline {:?} expired with [{}] still running",
                    self.deadline,
                    still_running.join(", ")
                ))
            }
        }
        let (mut reports, mut traffic, mut traced) = (Vec::new(), TrafficReport::default(), 0);
        for role in roles {
            let artifact = RoleArtifact::read(&dir.join(artifact_name(assignment(role))))?;
            traffic.merge_from(&artifact.traffic);
            traced += artifact.span_bytes;
            reports.push(artifact.report);
        }
        // Cross-process half of the byte crosscheck: sender-attributed
        // trace spans must account for every measured network byte.
        let measured = traffic.total_network_bytes();
        if traced != measured {
            return Err(format!(
                "traced span bytes {traced} != measured network bytes {measured}"
            ));
        }
        Ok((reports, traffic))
    }
}

impl Fleet for ProcessFleet {
    /// One generation; each role process loads its resume point itself
    /// ([`role_main`]). A failed generation leaves no ledger, so a
    /// recovered run's traffic counts the successful generation only.
    fn attempt(&mut self, _runner: &Runner, iterations: usize) -> Attempt {
        match self.generation(iterations) {
            Ok((roles, traffic)) => Attempt {
                roles: Ok(roles),
                traffic: Some(traffic),
            },
            Err(e) => Attempt {
                roles: Err(CoreError::Worker(e)),
                traffic: None,
            },
        }
    }
}

/// Runs `spec` as a supervised [`ProcessFleet`]: the same recovery loop
/// and fold as [`Runner::run`], with whole generations respawned from
/// the chief's checkpoint up to `spec.max_recoveries` times.
pub fn launch(program: &Path, spec: &ClusterSpec, deadline: Duration) -> Result<RunReport, String> {
    let mut fleet = ProcessFleet::new(program, spec, deadline)?;
    let job = DistJob::build(spec)?;
    job.runner
        .supervise(spec.iterations, &mut fleet)
        .map_err(|e| e.to_string())
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

fn tensor_eq(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape() && bitwise_eq(a.data(), b.data())
}

/// Appends `what` and the verdict `EQUAL` or `DIFFER` to the report,
/// returning `eq`.
fn row(out: &mut String, what: String, eq: bool) -> bool {
    let _ = writeln!(out, "{what} {}", if eq { "EQUAL" } else { "DIFFER" });
    eq
}

/// The equivalence verdict over an in-process and a socket run of one
/// job: bitwise losses and final weights, byte-identical per-class
/// traffic, and non-zero network bytes in the nccl and ps classes.
fn runs_equivalent(out: &mut String, reference: &RunReport, sockets: &RunReport) -> bool {
    let n = sockets.losses.len();
    let losses_eq = bitwise_eq(&reference.losses, &sockets.losses);
    let mut ok = row(out, format!("losses: {n} iterations, bitwise"), losses_eq);
    let (r, m) = (&reference.final_model, &sockets.final_model);
    let weights_eq = r.len() == m.len()
        && r.iter()
            .all(|(var, t)| m.get(var).is_some_and(|x| tensor_eq(t, x)));
    ok &= row(
        out,
        format!("final model: {} variables, bitwise", r.len()),
        weights_eq,
    );
    let pairs = ledgers(&reference.traffic)
        .into_iter()
        .zip(ledgers(&sockets.traffic));
    for (name, (r, m)) in LEDGERS.into_iter().zip(pairs) {
        let (rb, mb) = (
            r.total_network_bytes() + r.intra_bytes(),
            m.total_network_bytes() + m.intra_bytes(),
        );
        ok &= row(
            out,
            format!("traffic[{name}]: in-process {rb} B / sockets {mb} B, per-link"),
            r == m,
        );
    }
    classes_carry_bytes(out, &sockets.traffic) && ok
}

/// Whether two runs' final checkpoints load to bitwise-equal restore
/// points and their serving snapshots are byte-identical.
fn persisted_equal(
    out: &mut String,
    graph: &Graph,
    a: &ClusterSpec,
    b: &ClusterSpec,
) -> Result<bool, String> {
    let load = |spec: &ClusterSpec| -> Result<_, String> {
        let path = |name: &str| Path::new(&spec.artifact_dir).join(name);
        let (rp, step) =
            RestorePoint::load(graph, &path(&spec.checkpoint)).map_err(|e| e.to_string())?;
        let snapshot = std::fs::read(path(&spec.snapshot)).map_err(|e| e.to_string())?;
        Ok((step, rp, snapshot))
    };
    let ((step_a, ra, sa), (step_b, rb, sb)) = (load(a)?, load(b)?);
    // Both restore points hold every variable of `graph`, in graph order.
    let stores = std::iter::zip(ra.store.values(), rb.store.values());
    let slots = std::iter::zip(ra.slots.values(), rb.slots.values());
    let ckpt_eq = step_a == step_b
        && ra.slots.keys().eq(rb.slots.keys())
        && stores.chain(slots).all(|(x, y)| tensor_eq(x, y));
    let ckpt = row(
        out,
        format!("checkpoint: step {step_a} / {step_b}, bitwise"),
        ckpt_eq,
    );
    let snap = row(
        out,
        format!("snapshot: {} B / {} B, bytes", sa.len(), sb.len()),
        sa == sb,
    );
    Ok(ckpt && snap)
}

/// Whether the static per-iteration prediction, summed over the run,
/// equals the measured per-class traffic (feeds are
/// iteration-dependent, so each iteration is predicted on its own feeds
/// and the per-class ledgers accumulate).
fn prediction_matches(
    out: &mut String,
    job: &DistJob,
    iterations: usize,
    measured: &TrafficReport,
) -> Result<bool, String> {
    let workers = job.runner.topology().num_workers();
    let mut predicted = TrafficReport::default();
    for i in 0..iterations {
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
    let eq = ledgers(&predicted).into_iter().eq(ledgers(measured));
    let (p, m) = (
        predicted.total_network_bytes(),
        measured.total_network_bytes(),
    );
    Ok(row(
        out,
        format!("static prediction: {p} B predicted == {m} B measured:"),
        eq,
    ))
}

/// One case's equivalence check: an in-process run and a socket run of
/// the identical spec, each in its own artifact directory. Cases that
/// persist compare their final checkpoints and snapshots; the others
/// compare against the static prediction, which does not model the
/// chief's checkpoint-boundary shard fetches.
fn check_preset(out: &mut String, program: &Path, spec: ClusterSpec) -> Result<bool, String> {
    let persists = !spec.checkpoint.is_empty();
    let persisted = if persists {
        ", checkpoint + snapshot"
    } else {
        ""
    };
    let label = format!(
        "{} on {} machine(s) x {} GPU(s), wire {}{persisted}",
        spec.preset, spec.machines, spec.gpus_per_machine, spec.wire_format,
    );
    let _ = writeln!(out, "-- dist-check: {label} --");

    let ref_spec = ClusterSpec {
        artifact_dir: format!("{}_ref", spec.artifact_dir),
        ..spec.clone()
    };
    std::fs::create_dir_all(&ref_spec.artifact_dir).map_err(|e| e.to_string())?;
    let job = DistJob::build(&ref_spec)?;
    let checked = job
        .runner
        .run(spec.iterations, |w, i| job.feed(w, i))
        .map_err(|e| e.to_string())
        .and_then(|reference| {
            let sockets = launch(program, &spec, GENERATION_DEADLINE)?;
            let ok = runs_equivalent(out, &reference, &sockets)
                & if persists {
                    persisted_equal(out, job.graph(), &ref_spec, &spec)?
                } else {
                    prediction_matches(out, &job, spec.iterations, &sockets.traffic)?
                };
            let _ = writeln!(
                out,
                "traced spans == measured {} B (checked per generation)",
                sockets.traffic.total_network_bytes()
            );
            Ok(ok)
        });
    let _ = std::fs::remove_dir_all(&spec.artifact_dir);
    let _ = std::fs::remove_dir_all(&ref_spec.artifact_dir);
    let ok = checked?;
    let _ = writeln!(out, "{label}: {}\n", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

/// The `repro dist-check` gate: for every case, launch a local process
/// topology and assert the equivalence guarantee — same seed and plan,
/// bitwise-identical losses and final weights, byte-identical per-class
/// traffic (predicted == traced == measured) between the in-process and
/// socket modes, and, across checkpoint boundaries, bitwise-equal
/// checkpoints and byte-identical snapshots. `program` is the `repro`
/// binary to spawn role processes from (normally `current_exe`).
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
        // lm past two checkpoint boundaries: the chief fetches every
        // shard and publishes a checkpoint and a snapshot at steps 2
        // and 4 in both modes.
        ClusterSpec {
            iterations: 5,
            artifact_dir: temp_artifact_dir("lm_persist").display().to_string(),
            checkpoint: "run.ckpt".into(),
            snapshot: "run.snap".into(),
            checkpoint_interval: 2,
            ..check_spec("lm", 2, 2, "f32")
        },
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

    use std::collections::HashMap;

    fn traffic() -> TrafficReport {
        let snap = |seed: u64| TrafficSnapshot {
            out_bytes: vec![seed, seed + 1],
            in_bytes: vec![seed + 2, seed + 3],
            link_bytes: HashMap::from([((0, 1), seed + 4)]),
            intra_bytes_per_machine: vec![seed + 5, seed + 6],
            inter_messages: seed + 7,
            intra_messages: seed + 8,
        };
        TrafficReport {
            nccl: snap(10),
            mpi: snap(20),
            ps: snap(30),
            local_agg: snap(40),
            other: snap(50),
        }
    }

    /// A worker artifact (`server: false`) or a server artifact.
    fn artifact_of(server: bool) -> RoleArtifact {
        let (role, output) = if server {
            let shards = vec![((VarId::from_index(4), 1), Tensor::full([2], -1.0))];
            (
                RoleAssignment::Server { machine: 1 },
                RoleOutput::Server { shards },
            )
        } else {
            let store = vec![Tensor::zeros([2, 2]), Tensor::full([3], 7.0)];
            let output = RoleOutput::Worker {
                losses: vec![1.5, -0.25],
                norms: vec![0.5],
                compute_secs: 1.25,
                store: VarStore::from_values(store),
            };
            (RoleAssignment::Worker { index: 3 }, output)
        };
        RoleArtifact {
            report: RoleReport {
                role,
                start_iter: 2,
                output,
            },
            span_bytes: 99,
            traffic: traffic(),
        }
    }

    fn artifact() -> RoleArtifact {
        artifact_of(false)
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
        for server in [false, true] {
            let a = artifact_of(server);
            let path = temp_path(&format!("roundtrip_{server}"));
            a.write(&path).unwrap();
            let b = RoleArtifact::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            assert_eq!(b.report.role, a.report.role);
            assert_eq!(b.report.start_iter, 2);
            assert_eq!(b.span_bytes, 99);
            match (&b.report.output, &a.report.output) {
                (
                    RoleOutput::Worker {
                        losses,
                        norms,
                        compute_secs,
                        store,
                    },
                    RoleOutput::Worker {
                        losses: l,
                        norms: n,
                        compute_secs: c,
                        ..
                    },
                ) => {
                    assert_eq!((losses, norms), (l, n));
                    assert_eq!(compute_secs.to_bits(), c.to_bits());
                    assert_eq!(store.values().len(), 2);
                    assert_eq!(store.values()[0].shape().dims(), &[2, 2]);
                    assert_eq!(store.values()[1].data(), &[7.0, 7.0, 7.0]);
                }
                (RoleOutput::Server { shards }, RoleOutput::Server { shards: want }) => {
                    assert_eq!(shards, want);
                }
                _ => panic!("role kind changed in the roundtrip"),
            }
            for (got, want) in ledgers(&b.traffic).into_iter().zip(ledgers(&a.traffic)) {
                assert_eq!(got, want);
            }
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
        let mut traffic = traffic();
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

    fn report() -> RunReport {
        RunReport {
            losses: vec![2.5, 1.75, 1.5],
            grad_norms: Vec::new(),
            traffic: traffic(),
            iterations: 3,
            host_compute_per_iter: 0.0,
            final_model: HashMap::from([(0, Tensor::full([3], 0.5)), (1, Tensor::zeros([2]))]),
            wall_seconds: 0.0,
            attempts: 1,
        }
    }

    fn flip(x: &mut f32) {
        *x = f32::from_bits(x.to_bits() ^ 1);
    }

    #[test]
    fn run_comparison_rejects_each_seeded_defect() {
        let base = report();
        let mut out = String::new();
        assert!(runs_equivalent(&mut out, &base, &report()), "{out}");
        let mut loss = report();
        flip(&mut loss.losses[1]);
        let mut weight = report();
        flip(&mut weight.final_model.get_mut(&0).unwrap().data_mut()[2]);
        let mut ledger = report();
        ledger.traffic.mpi.out_bytes[0] += 1;
        for (defect, run) in [
            ("loss bit", loss),
            ("weight bit", weight),
            ("ledger byte", ledger),
        ] {
            let mut out = String::new();
            assert!(
                !runs_equivalent(&mut out, &base, &run),
                "{defect} accepted:\n{out}"
            );
            assert!(out.contains("DIFFER"), "{defect}: {out}");
        }
    }
}
