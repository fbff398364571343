//! The `ParallaxConfig` object (Figure 3's optional configuration).

use parallax_dataflow::optimizer::{Adagrad, LrSchedule, Momentum, Sgd};
use parallax_dataflow::Optimizer;
use parallax_ps::placement::SyncDecision;
use parallax_ps::PlacementStrategy;

/// A non-fatal advisory produced when a [`ParallaxConfig`] is
/// interpreted for one role of a multi-process (`repro dist`) job.
/// Warnings never change behavior — they name behavior that differs
/// from what a single-process reading of the config might suggest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigWarning {
    /// Persistence paths are configured but this role is not the global
    /// chief. The paths deliberately stay in the config — every role
    /// must derive the same effective checkpoint interval (the servers
    /// fold the chief's per-boundary fetches into their synchronization
    /// barrier), and recovery respawns read the chief's checkpoint —
    /// but this role never writes either artifact.
    NonChiefPersistence {
        /// The role the config was interpreted for (e.g. `worker:1`).
        role: String,
        /// The configured paths this role will read but never write.
        paths: Vec<String>,
    },
}

impl std::fmt::Display for ConfigWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigWarning::NonChiefPersistence { role, paths } => write!(
                f,
                "role {role} is not the chief: {} will be read for recovery \
                 but only the chief publishes",
                paths.join(", ")
            ),
        }
    }
}

/// Which update rule replicas and servers apply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// Plain stochastic gradient descent.
    Sgd,
    /// SGD with classical momentum.
    Momentum {
        /// Momentum coefficient.
        mu: f32,
    },
    /// Adagrad (per-element adaptive rates; common for embeddings).
    Adagrad,
}

impl OptimizerKind {
    /// Instantiates the optimizer at a learning rate.
    pub fn build(&self, lr: f32) -> Box<dyn Optimizer> {
        match *self {
            OptimizerKind::Sgd => Box::new(Sgd::new(lr)),
            OptimizerKind::Momentum { mu } => Box::new(Momentum::new(lr, mu)),
            OptimizerKind::Adagrad => Box::new(Adagrad::new(lr)),
        }
    }
}

/// Which training architecture the runner composes.
///
/// `Hybrid` is Parallax; the others exist as the paper's baselines
/// (Table 4): `ArOnly` is Horovod, `PsOnly { optimized: false }` is
/// TF-PS (NaivePS), `PsOnly { optimized: true }` is OptPS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchChoice {
    /// AllReduce for dense variables, Parameter Server for sparse ones.
    Hybrid,
    /// Everything through the Parameter Server.
    PsOnly {
        /// Apply local aggregation and balanced placement.
        optimized: bool,
    },
    /// Everything through collectives (AllReduce + AllGatherv).
    ArOnly,
}

/// Extra arguments to `get_runner` (the paper's `ParallaxConfig`):
/// aggregation methods per variable type, local aggregation, and the
/// knobs this reproduction adds for experiments.
#[derive(Debug, Clone)]
pub struct ParallaxConfig {
    /// Seed for deterministic initialization and replica consistency.
    pub seed: u64,
    /// Learning rate used by replicas and servers.
    pub learning_rate: f32,
    /// The update rule.
    pub optimizer: OptimizerKind,
    /// The learning-rate schedule.
    pub lr_schedule: LrSchedule,
    /// Synchronous training (the default); asynchronous training applies
    /// each push immediately (PS architectures only).
    pub synchronous: bool,
    /// Let workers read back aggregated gradients (`RunReport` then
    /// carries per-iteration global gradient norms).
    pub trace_gradients: bool,
    /// Average (rather than sum) dense gradients across GPUs.
    pub average_dense: bool,
    /// Average (rather than sum) sparse gradients across GPUs.
    pub average_sparse: bool,
    /// Aggregate gradients within each machine before pushing.
    pub local_aggregation: bool,
    /// Gate server updates on the chief worker's trigger.
    pub chief_triggers_update: bool,
    /// Server placement strategy.
    pub placement: PlacementStrategy,
    /// Architecture selection.
    pub arch: ArchChoice,
    /// Fixed sparse partition count; `None` runs the partition search.
    pub sparse_partitions: Option<usize>,
    /// Per-variable decision overrides applied *after* the architecture
    /// rule: `(variable index, decision)` pairs — the mechanism
    /// placement strategies and the plan search use to pin individual
    /// variables. Validated in [`crate::hybrid::decide`]: indices must
    /// be in range and unique; a dense variable may only move between
    /// `AllReduce` and `PsDense` (hosting a dense variable on the PS
    /// additionally requires `average_dense == average_sparse`, because
    /// the server applies one averaging flag to everything it hosts);
    /// a sparse variable may use `PsSparse` with at least one partition
    /// or `AllReduce` (densify, the alpha-escape path).
    pub decision_overrides: Vec<(usize, SyncDecision)>,
    /// Per-partitioner-group overrides: `group_partitions[g]` fixes the
    /// count for variables declared in partitioner group `g` (the
    /// paper's "multiple partitioners ... applied independently" for
    /// different granularities). Groups beyond the vector's length — and
    /// ungrouped sparse variables — use `sparse_partitions`.
    pub group_partitions: Vec<usize>,
    /// Sparse variables with estimated `alpha` at or above this are
    /// treated as dense and AllReduced (Section 3.1's near-dense case).
    pub alpha_dense_threshold: f64,
    /// Threads the shared compute-kernel pool may use (including the
    /// calling thread). `None` keeps the pool's default (the machine's
    /// available parallelism); `Some(1)` forces fully serial kernels.
    /// Results are bitwise identical for every setting.
    pub compute_threads: Option<usize>,
    /// How gradient-exchange payloads are encoded on the wire
    /// (`WireFormat::F32` — the default — moves raw f32; `F16`/`Bf16`
    /// halve dense AllReduce bytes and varint-pack sparse AllGatherv
    /// indices). The static traffic predictor, the trace ledger, and
    /// the measured accounting all use the encoded sizes, so the
    /// byte-equality crosschecks stay exact under every format.
    /// Parameter-server traffic is never compressed.
    pub wire_format: parallax_comm::WireFormat,
    /// Row-parallelism for parameter-server applies: the minimum number
    /// of parameter rows per pool chunk when a server shards an
    /// optimizer apply across the shared compute pool. `0` disables
    /// sharding (fully serial applies, the pre-compression behavior).
    /// Results are bitwise identical for every setting; only `ps.wait`
    /// changes. See `parallax_cluster::PsQueueModel::recommended_apply_rows`
    /// for a queue-model-driven choice.
    pub ps_apply_min_rows: usize,
    /// Per-machine straggler injection: machine `m`'s workers busy-wait
    /// after each backward pass so their compute phase takes
    /// `machine_slowdown[m]` times as long as it measured. Machines past
    /// the end of the vector (and an empty vector, the default) run at
    /// nominal speed; every entry must be finite and `>= 1.0`. Numerics
    /// are untouched — only wall-clock timing changes — so heterogeneous
    /// clusters can be emulated on homogeneous hardware and checked
    /// against the `IterationSim` straggler model.
    pub machine_slowdown: Vec<f64>,
    /// Checkpoint file path (the paper's "file path to save trained
    /// variables"). `None` (the default) disables checkpointing and
    /// recovery.
    pub checkpoint_path: Option<std::path::PathBuf>,
    /// Iterations between checkpoints: the chief saves after every
    /// iteration where `(iter + 1) % interval == 0`. Must be `>= 1` when
    /// `checkpoint_path` is set.
    pub checkpoint_interval: usize,
    /// Serving-snapshot path. When set, the chief also publishes a
    /// weights-only, mmap-friendly tensor container (`PLXSNAP2`, see
    /// [`crate::snapshot`]; atomically, via rename) at every checkpoint
    /// boundary — the online-serving mode: a `parallax-serve` engine
    /// watching this path refreshes between batches and never lags
    /// training by more than `checkpoint_interval` steps. Uses
    /// `checkpoint_interval` as its cadence and may be set with or
    /// without `checkpoint_path`.
    pub snapshot_path: Option<std::path::PathBuf>,
    /// Deterministic fault-injection plan evaluated by the transport and
    /// the runner's worker/server loops. Empty (the default) injects
    /// nothing.
    pub fault_plan: parallax_fault::FaultPlan,
    /// Failure-detection deadline: how long any blocking receive may
    /// wait before surfacing `PeerTimeout`/`PeerDead`. `None` keeps the
    /// transport default (30 s).
    pub recv_deadline: Option<std::time::Duration>,
    /// How many detected failures the runner may recover from (restore
    /// the last checkpoint and resume) before giving up and returning
    /// the error. Recovery requires `checkpoint_path`.
    pub max_recoveries: usize,
    /// Install the session-machine validator
    /// ([`parallax_comm::protocheck::SessionValidator`]) on every
    /// endpoint, so any routed message outside the verified plan's
    /// protocol surfaces as a typed `CommError::Protocol` at the sender.
    /// Debug builds always install it; this flag extends the runtime
    /// assertion to release builds (`repro protocheck` / `repro check`).
    pub validate_protocol: bool,
}

impl Default for ParallaxConfig {
    fn default() -> Self {
        ParallaxConfig {
            seed: 0,
            learning_rate: 0.1,
            optimizer: OptimizerKind::Sgd,
            lr_schedule: LrSchedule::Constant,
            synchronous: true,
            trace_gradients: false,
            average_dense: true,
            average_sparse: true,
            local_aggregation: true,
            chief_triggers_update: true,
            placement: PlacementStrategy::Balanced,
            arch: ArchChoice::Hybrid,
            sparse_partitions: None,
            decision_overrides: Vec::new(),
            group_partitions: Vec::new(),
            alpha_dense_threshold: 0.95,
            compute_threads: None,
            wire_format: parallax_comm::WireFormat::F32,
            ps_apply_min_rows: 64,
            machine_slowdown: Vec::new(),
            checkpoint_path: None,
            checkpoint_interval: 0,
            snapshot_path: None,
            fault_plan: parallax_fault::FaultPlan::new(),
            recv_deadline: None,
            max_recoveries: 1,
            validate_protocol: false,
        }
    }
}

impl ParallaxConfig {
    /// The Horovod baseline: pure collectives.
    pub fn horovod_baseline() -> Self {
        ParallaxConfig {
            arch: ArchChoice::ArOnly,
            local_aggregation: false,
            ..Self::default()
        }
    }

    /// The TF-PS baseline: naive Parameter Server.
    pub fn tf_ps_baseline() -> Self {
        ParallaxConfig {
            arch: ArchChoice::PsOnly { optimized: false },
            local_aggregation: false,
            placement: PlacementStrategy::RoundRobin,
            ..Self::default()
        }
    }

    /// Parallax's optimized PS (no hybrid), the OptPS row of Table 4.
    pub fn opt_ps() -> Self {
        ParallaxConfig {
            arch: ArchChoice::PsOnly { optimized: true },
            ..Self::default()
        }
    }

    /// Advisories for executing this config as one role of a
    /// multi-process job. `role` is the role's display name (e.g.
    /// `worker:1` or `server:0`); `is_chief` is whether that role is
    /// the global chief. Non-chief roles with persistence paths get a
    /// [`ConfigWarning::NonChiefPersistence`]: publishing is
    /// suppressed at the role level, never by stripping the paths (the
    /// checkpoint interval derived from them feeds the servers' fetch
    /// barrier, so removing them would desynchronize the protocol).
    pub fn role_warnings(&self, is_chief: bool, role: &str) -> Vec<ConfigWarning> {
        let mut out = Vec::new();
        if !is_chief {
            let mut paths = Vec::new();
            if let Some(p) = &self.checkpoint_path {
                paths.push(format!("checkpoint_path={}", p.display()));
            }
            if let Some(p) = &self.snapshot_path {
                paths.push(format!("snapshot_path={}", p.display()));
            }
            if !paths.is_empty() {
                out.push(ConfigWarning::NonChiefPersistence {
                    role: role.to_string(),
                    paths,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimizer_kinds_build() {
        use parallax_tensor::Tensor;
        for kind in [
            OptimizerKind::Sgd,
            OptimizerKind::Momentum { mu: 0.9 },
            OptimizerKind::Adagrad,
        ] {
            let mut opt = kind.build(0.1);
            let mut p = Tensor::zeros([2]);
            opt.apply_dense(0, &mut p, &Tensor::full([2], 1.0)).unwrap();
            assert!(p.data()[0] < 0.0, "{kind:?} moved the parameter");
        }
    }

    #[test]
    fn non_chief_roles_warn_about_persistence_paths() {
        let mut config = ParallaxConfig {
            checkpoint_path: Some("ckpt.bin".into()),
            snapshot_path: Some("snap.bin".into()),
            checkpoint_interval: 2,
            ..ParallaxConfig::default()
        };
        // The chief publishes; no warning.
        assert!(config.role_warnings(true, "chief").is_empty());
        // Non-chief roles get exactly one typed warning naming both paths.
        let warnings = config.role_warnings(false, "worker:1");
        assert_eq!(warnings.len(), 1);
        match &warnings[0] {
            ConfigWarning::NonChiefPersistence { role, paths } => {
                assert_eq!(role, "worker:1");
                assert_eq!(paths.len(), 2);
                assert!(paths[0].contains("ckpt.bin"), "{paths:?}");
            }
        }
        assert!(warnings[0].to_string().contains("only the chief publishes"));
        // No persistence configured: nothing to warn about.
        config.checkpoint_path = None;
        config.snapshot_path = None;
        assert!(config.role_warnings(false, "server:0").is_empty());
    }

    #[test]
    fn baselines_compose_expected_knobs() {
        let horovod = ParallaxConfig::horovod_baseline();
        assert_eq!(horovod.arch, ArchChoice::ArOnly);
        let tfps = ParallaxConfig::tf_ps_baseline();
        assert_eq!(tfps.arch, ArchChoice::PsOnly { optimized: false });
        assert!(!tfps.local_aggregation);
        assert_eq!(tfps.placement, PlacementStrategy::RoundRobin);
        let opt = ParallaxConfig::opt_ps();
        assert!(opt.local_aggregation);
        assert_eq!(ParallaxConfig::default().arch, ArchChoice::Hybrid);
    }
}
