//! Static cluster specs (`CLUSTER.json`) and process roles.
//!
//! A spec names a *test topology*: which preset to train, how many
//! machines and GPUs, one `host:port` listen address per transport
//! rank, and the run knobs that must agree across every process for
//! the derived plan (and therefore the protocol) to be identical —
//! seed, iteration count, wire format, fault plan, checkpoint cadence.
//! Every process parses the same file and derives the same
//! deterministic plan; the spec never carries the plan itself.
//!
//! The format is one flat JSON object, written and read through
//! [`parallax_trace::json`] like every other document in the workspace.
//! Written by the launcher, read by `repro dist` roles.

use parallax_trace::json::{self, Fields, Value};

use crate::error::{NetError, Result};

/// Schema tag; bump on incompatible changes.
pub const SCHEMA: &str = "parallax-cluster-v1";

/// Which process a `repro dist` invocation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The chief worker (global worker 0): trains, triggers server
    /// updates, and is the only role that publishes checkpoints and
    /// serving snapshots.
    Chief,
    /// A non-chief training worker; `index` is the global worker
    /// position (1-based positions are workers after the chief, so
    /// `index >= 1`).
    Worker {
        /// Global worker position (0 is the chief; use [`Role::Chief`]).
        index: usize,
    },
    /// The parameter-server shard on `machine`.
    Server {
        /// Machine index hosting the shard.
        machine: usize,
    },
}

impl Role {
    /// Parses a `--role` value plus its `--index` argument. Returns
    /// `None` for unknown role names (the CLI exits 2 with usage, the
    /// same contract as unknown subcommands).
    pub fn parse(role: &str, index: usize) -> Option<Role> {
        match role {
            "chief" => Some(Role::Chief),
            "worker" => Some(if index == 0 {
                Role::Chief
            } else {
                Role::Worker { index }
            }),
            "server" => Some(Role::Server { machine: index }),
            _ => None,
        }
    }

    /// The role's CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Role::Chief => "chief",
            Role::Worker { .. } => "worker",
            Role::Server { .. } => "server",
        }
    }

    /// The role's `--index` argument (worker position or machine).
    pub fn index(&self) -> usize {
        match *self {
            Role::Chief => 0,
            Role::Worker { index } => index,
            Role::Server { machine } => machine,
        }
    }

    /// True for the chief (the only artifact-publishing role).
    pub fn is_chief(&self) -> bool {
        matches!(self, Role::Chief)
    }
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.name(), self.index())
    }
}

/// A static cluster description: everything a `repro dist` process
/// needs to join the mesh and run its role deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Model preset (`"lm"` or `"nmt"`).
    pub preset: String,
    /// Machine count.
    pub machines: usize,
    /// Training GPUs (worker ranks) per machine; each machine
    /// additionally hosts one server rank, matching the PS topology.
    pub gpus_per_machine: usize,
    /// Training iterations.
    pub iterations: usize,
    /// Config seed (initialization + replica consistency).
    pub seed: u64,
    /// Wire format name (`"f32"`, `"f16"`, `"bf16"`).
    pub wire_format: String,
    /// Listen host for every rank (test topologies are single-host).
    pub host: String,
    /// One listen port per transport rank, in rank order.
    pub ports: Vec<u16>,
    /// Directory for per-role artifacts, the fired-fault log, and (when
    /// checkpointing) the chief's checkpoint file.
    pub artifact_dir: String,
    /// Receive deadline in milliseconds; `0` keeps the transport
    /// default.
    pub recv_deadline_ms: u64,
    /// Fault plan, encoded by `FaultPlan::to_spec` (empty = none).
    pub fault_spec: String,
    /// Chief checkpoint file name inside `artifact_dir` (empty = no
    /// checkpointing). Non-chief roles read it for recovery but never
    /// write it.
    pub checkpoint: String,
    /// Chief serving-snapshot file name inside `artifact_dir`
    /// (empty = none).
    pub snapshot: String,
    /// Iterations between checkpoints (when `checkpoint`/`snapshot`
    /// set).
    pub checkpoint_interval: usize,
    /// How many failed process generations the launcher may respawn
    /// (recovery requires `checkpoint`; a stale checkpoint and
    /// fired-fault log in `artifact_dir` are removed at launch).
    pub max_recoveries: usize,
    /// Install the runtime session validator in release builds too.
    pub validate_protocol: bool,
}

impl ClusterSpec {
    /// Total transport ranks: per machine, its workers then its server.
    pub fn num_endpoints(&self) -> usize {
        self.machines * (self.gpus_per_machine + 1)
    }

    /// `host:port` for `rank`.
    pub fn addr_of(&self, rank: usize) -> Option<String> {
        self.ports.get(rank).map(|p| format!("{}:{}", self.host, p))
    }

    /// All rank addresses in rank order.
    pub fn addrs(&self) -> Vec<String> {
        self.ports
            .iter()
            .map(|p| format!("{}:{}", self.host, p))
            .collect()
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<()> {
        let bad = |msg: String| Err(NetError::Spec(msg));
        if self.preset.is_empty() {
            return bad("preset is empty".into());
        }
        if self.machines == 0 || self.gpus_per_machine == 0 {
            return bad("machines and gpus_per_machine must be >= 1".into());
        }
        if self.iterations == 0 {
            return bad("iterations must be >= 1".into());
        }
        // Empty ports mean "launcher assigns fresh ones"; anything else
        // must cover every rank.
        if !self.ports.is_empty() && self.ports.len() != self.num_endpoints() {
            return bad(format!(
                "{} ports for {} endpoints",
                self.ports.len(),
                self.num_endpoints()
            ));
        }
        if self.artifact_dir.is_empty() {
            return bad("artifact_dir is empty".into());
        }
        Ok(())
    }

    /// Serializes the spec (flat JSON, one object).
    pub fn to_json(&self) -> String {
        Value::object([
            ("schema", SCHEMA.into()),
            ("preset", self.preset.as_str().into()),
            ("wire_format", self.wire_format.as_str().into()),
            ("host", self.host.as_str().into()),
            ("artifact_dir", self.artifact_dir.as_str().into()),
            ("fault_spec", self.fault_spec.as_str().into()),
            ("checkpoint", self.checkpoint.as_str().into()),
            ("snapshot", self.snapshot.as_str().into()),
            ("machines", self.machines.into()),
            ("gpus_per_machine", self.gpus_per_machine.into()),
            ("iterations", self.iterations.into()),
            ("seed", self.seed.into()),
            ("recv_deadline_ms", self.recv_deadline_ms.into()),
            ("checkpoint_interval", self.checkpoint_interval.into()),
            ("max_recoveries", self.max_recoveries.into()),
            ("validate_protocol", self.validate_protocol.into()),
            ("ports", self.ports.clone().into()),
        ])
        .to_string()
    }

    /// Parses a [`ClusterSpec::to_json`] document and validates it.
    /// Fails closed: malformed JSON, a missing required field, an
    /// unknown or duplicate key, or a value that is not exactly of its
    /// field's type is a [`NetError::Spec`]. The string fields default
    /// to empty (`host` to `127.0.0.1`) and `max_recoveries` to 1.
    pub fn from_json(text: &str) -> Result<ClusterSpec> {
        let spec = Self::read(text).map_err(|e| NetError::Spec(e.to_string()))?;
        if spec.ports.contains(&0) {
            return Err(NetError::Spec("port out of range".into()));
        }
        spec.validate()?;
        Ok(spec)
    }

    fn read(text: &str) -> std::result::Result<ClusterSpec, json::Error> {
        let mut f = Fields::parse(text, SCHEMA)?;
        let host: String = f.get_or("host", String::new())?;
        let spec = ClusterSpec {
            preset: f.get("preset")?,
            machines: f.get("machines")?,
            gpus_per_machine: f.get("gpus_per_machine")?,
            iterations: f.get("iterations")?,
            seed: f.get("seed")?,
            wire_format: f.get_or("wire_format", String::new())?,
            host: if host.is_empty() {
                "127.0.0.1".to_string()
            } else {
                host
            },
            ports: f.get("ports")?,
            artifact_dir: f.get_or("artifact_dir", String::new())?,
            recv_deadline_ms: f.get("recv_deadline_ms")?,
            fault_spec: f.get_or("fault_spec", String::new())?,
            checkpoint: f.get_or("checkpoint", String::new())?,
            snapshot: f.get_or("snapshot", String::new())?,
            checkpoint_interval: f.get("checkpoint_interval")?,
            max_recoveries: f.get_or("max_recoveries", 1)?,
            validate_protocol: f.get("validate_protocol")?,
        };
        f.finish()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClusterSpec {
        ClusterSpec {
            preset: "lm".into(),
            machines: 1,
            gpus_per_machine: 2,
            iterations: 4,
            seed: 42,
            wire_format: "f32".into(),
            host: "127.0.0.1".into(),
            ports: vec![7101, 7102, 7103],
            artifact_dir: "/tmp/parallax dist \"quoted\"".into(),
            recv_deadline_ms: 5000,
            fault_spec: "drop:0:2:0;kill-worker:1:3".into(),
            checkpoint: "run.ckpt".into(),
            snapshot: String::new(),
            checkpoint_interval: 2,
            max_recoveries: 3,
            validate_protocol: true,
        }
    }

    #[test]
    fn spec_roundtrips_including_escaped_strings() {
        let s = spec();
        let back = ClusterSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn spec_validation_rejects_port_mismatch() {
        let mut s = spec();
        s.ports.pop();
        assert!(matches!(
            ClusterSpec::from_json(&s.to_json()),
            Err(NetError::Spec(_))
        ));
        // Empty ports are a valid launcher input (fresh ones are
        // assigned per generation).
        s.ports.clear();
        assert_eq!(ClusterSpec::from_json(&s.to_json()).unwrap(), s);
    }

    /// A hand-written spec in the README's style (spaces, `true`).
    const HAND_WRITTEN: &str = r#"{
            "schema": "parallax-cluster-v1",
            "preset": "lm",
            "machines": 1, "gpus_per_machine": 2,
            "iterations": 4, "seed": 7,
            "wire_format": "f32", "host": "127.0.0.1", "ports": [],
            "artifact_dir": "/tmp/demo", "recv_deadline_ms": 10000,
            "fault_spec": "", "checkpoint": "", "snapshot": "",
            "checkpoint_interval": 0, "max_recoveries": 0,
            "validate_protocol": true
        }"#;

    fn rejected(text: &str) -> bool {
        matches!(ClusterSpec::from_json(text), Err(NetError::Spec(_)))
    }

    #[test]
    fn spec_accepts_hand_written_json() {
        let s = ClusterSpec::from_json(HAND_WRITTEN).unwrap();
        assert_eq!(s.preset, "lm");
        assert!(s.validate_protocol);
        assert!(s.ports.is_empty());
        assert_eq!(s.max_recoveries, 0);
        // Whitespace around ':' is JSON too.
        let spaced = HAND_WRITTEN.replace("\"machines\": 1", "\"machines\" : 1");
        assert_eq!(ClusterSpec::from_json(&spaced).unwrap(), s);
        // `max_recoveries` is optional and defaults to 1.
        let defaulted = HAND_WRITTEN.replace(", \"max_recoveries\": 0", "");
        assert_eq!(
            ClusterSpec::from_json(&defaulted).unwrap().max_recoveries,
            1
        );
    }

    #[test]
    fn readme_quick_start_spec_parses() {
        let readme = include_str!("../../../README.md");
        let open = "cat > CLUSTER.json <<'EOF'\n";
        let start = readme
            .find(open)
            .expect("README has the CLUSTER.json quick start")
            + open.len();
        let len = readme[start..].find("\nEOF\n").expect("heredoc ends");
        let s = ClusterSpec::from_json(&readme[start..start + len]).unwrap();
        assert_eq!(
            (s.preset.as_str(), s.machines, s.gpus_per_machine),
            ("lm", 1, 2)
        );
        assert_eq!((s.checkpoint.as_str(), s.max_recoveries), ("run.ckpt", 1));
    }

    #[test]
    fn integers_round_trip_exactly_above_2_pow_53() {
        let mut s = spec();
        s.seed = (1 << 53) + 1;
        s.recv_deadline_ms = u64::MAX;
        assert_eq!(ClusterSpec::from_json(&s.to_json()).unwrap(), s);
        let text = HAND_WRITTEN.replace("\"seed\": 7", "\"seed\": 9007199254740993");
        assert_eq!(
            ClusterSpec::from_json(&text).unwrap().seed,
            9_007_199_254_740_993
        );
    }

    #[test]
    fn inexact_integers_are_rejected_not_truncated() {
        for field in ["\"machines\": 1", "\"seed\": 7", "\"max_recoveries\": 0"] {
            let key = field.split(':').next().unwrap();
            for bad in [
                "2.7",
                "2x",
                "-1",
                "1e0",
                "null",
                "\"2\"",
                "18446744073709551616",
            ] {
                let text = HAND_WRITTEN.replace(field, &format!("{key}: {bad}"));
                assert!(rejected(&text), "{key}: {bad} was accepted");
            }
        }
        for ports in [
            "[0, 7001, 7002]",
            "[70000, 7001, 7002]",
            "[7000.5, 7001, 7002]",
        ] {
            let text = HAND_WRITTEN.replace("\"ports\": []", &format!("\"ports\": {ports}"));
            assert!(rejected(&text), "ports {ports} were accepted");
        }
        // 0/1 is not a boolean.
        assert!(rejected(&HAND_WRITTEN.replace(
            "\"validate_protocol\": true",
            "\"validate_protocol\": 1"
        )));
    }

    #[test]
    fn keys_fail_closed() {
        // A duplicate key, a typo of an optional key, and a nested
        // object holding a real key name are all errors, never a silent
        // default or a shadowed value.
        for (from, to) in [
            ("\"seed\": 7", "\"seed\": 7, \"seed\": 8"),
            ("\"max_recoveries\": 0", "\"max_recoverys\": 5"),
            (
                "\"preset\": \"lm\",",
                "\"preset\": \"lm\", \"extra\": {\"seed\": 1},",
            ),
        ] {
            assert!(
                rejected(&HAND_WRITTEN.replace(from, to)),
                "{to} was accepted"
            );
        }
        assert!(rejected("{\"schema\":\"parallax-cluster-v1\"} trailing"));
        assert!(rejected(
            &HAND_WRITTEN.replace("parallax-cluster-v1", "parallax-cluster-v2")
        ));
    }

    #[test]
    fn awkward_strings_round_trip_as_valid_json() {
        let mut s = spec();
        s.artifact_dir = "/tmp/run\n\"seed\":1\\\tdünn 😀".into();
        s.fault_spec = "\"machines\":9".into();
        let text = s.to_json();
        assert!(!text.contains('\n'), "raw newline in {text}");
        json::parse(&text).expect("spec JSON is well-formed");
        assert_eq!(ClusterSpec::from_json(&text).unwrap(), s);
    }

    #[test]
    fn role_parsing() {
        assert_eq!(Role::parse("chief", 0), Some(Role::Chief));
        assert_eq!(Role::parse("worker", 0), Some(Role::Chief));
        assert_eq!(Role::parse("worker", 2), Some(Role::Worker { index: 2 }));
        assert_eq!(Role::parse("server", 1), Some(Role::Server { machine: 1 }));
        assert_eq!(Role::parse("observer", 0), None);
        assert!(Role::Chief.is_chief());
        assert!(!Role::Server { machine: 0 }.is_chief());
        assert_eq!(Role::Worker { index: 3 }.to_string(), "worker:3");
    }

    #[test]
    fn addresses_follow_rank_order() {
        let s = spec();
        assert_eq!(s.num_endpoints(), 3);
        assert_eq!(s.addr_of(1).unwrap(), "127.0.0.1:7102");
        assert_eq!(s.addrs().len(), 3);
        assert!(s.addr_of(9).is_none());
    }
}
