//! Typed per-link session machine for the training wire protocol.
//!
//! The parameter-server protocol and the collective schedules are
//! correct today by *convention*: `ps::protocol` packs headers, the
//! runner picks tags, and every send has a hand-written receive
//! somewhere else that must agree on link, tag and multiplicity. This
//! module lifts that convention into data: a [`SessionSpec`] describes,
//! for one steady-state iteration of a verified plan, **who may send
//! what to whom** — one [`MsgEvent`] per (link, message identity) with
//! its phase, per-iteration multiplicity as derived independently from
//! the sender's program and the receiver's synchronization arithmetic,
//! its reply obligation, and the events it must wait for.
//!
//! Two consumers:
//!
//! * the static checker (`parallax_core::protocheck`) walks the spec
//!   and proves send/recv pairing, reply-obligation discharge, absence
//!   of cross-phase tag collisions, deadlock freedom and dedup safety
//!   (`C001`–`C008` diagnostics);
//! * the [`SessionValidator`] — compiled from the same spec — is
//!   installed on every [`crate::Endpoint`] in debug builds (and under
//!   `repro protocheck` / `repro check`), and rejects any routed
//!   message whose (link, namespace, kind, variable, partition) the
//!   machine does not allow, turning protocol drift into a typed
//!   [`CommError::Protocol`] instead of a hang on the receiving side.
//!
//! The validator is deliberately **stateless**: it checks membership of
//! each message in the allowed set (plus the boundary-iteration gate),
//! not sequencing. Sequencing is the static checker's job; statelessness
//! is what guarantees zero false positives under fault injection —
//! duplicated, delayed or replayed-after-recovery messages carry the
//! same identity as their originals and stay accepted.
//!
//! Tag layout is mirrored from `ps::protocol` (`kind:6 | var:14 |
//! part:14 | iter:30`, namespace in the top nibble); `parallax-ps`
//! carries a cross-crate test asserting both crates agree bit for bit.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use crate::error::CommError;

/// `PullDense` request-kind discriminant (mirrors `ps::protocol`).
pub const KIND_PULL_DENSE: u8 = 1;
/// `PullSparse` request-kind discriminant.
pub const KIND_PULL_SPARSE: u8 = 2;
/// `PushDense` request-kind discriminant.
pub const KIND_PUSH_DENSE: u8 = 3;
/// `PushSparse` request-kind discriminant.
pub const KIND_PUSH_SPARSE: u8 = 4;
/// `ChiefUpdate` request-kind discriminant.
pub const KIND_CHIEF_UPDATE: u8 = 5;
/// `UpdateDone` notification-kind discriminant.
pub const KIND_UPDATE_DONE: u8 = 6;
/// `ReadAgg` request-kind discriminant.
pub const KIND_READ_AGG: u8 = 7;
/// `FetchShard` request-kind discriminant.
pub const KIND_FETCH_SHARD: u8 = 8;

const VAR_BITS: u64 = 14;
const PART_BITS: u64 = 14;
const ITER_BITS: u64 = 30;
const KIND_SHIFT: u64 = VAR_BITS + PART_BITS + ITER_BITS;

/// Maximum variable index representable in a wire header.
pub const MAX_HEADER_VARS: usize = (1 << VAR_BITS) - 1;
/// Maximum partition index representable in a wire header.
pub const MAX_HEADER_PARTS: usize = (1 << PART_BITS) - 1;

/// Namespace marker of AllReduce collective tags (top nibble `0x1`).
pub const NS_COLLECTIVE: u64 = 0x1000_0000_0000_0000;
/// Namespace marker of intra-machine local-aggregation tags (`0x2`).
pub const NS_LOCAL_AGG: u64 = 0x2000_0000_0000_0000;
/// Namespace marker of AllGatherv collective tags (`0x3`).
pub const NS_GATHERV: u64 = 0x3000_0000_0000_0000;
/// Namespace marker of the per-iteration request tag (`0x4`).
pub const NS_REQUEST: u64 = 0x4000_0000_0000_0000;
/// Namespace marker of response/notification tags (bit 63).
pub const NS_RESPONSE: u64 = 0x8000_0000_0000_0000;

/// What a wire tag says about the message travelling under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagClass {
    /// The fused ring AllReduce of `iter` (one ring carries every dense
    /// AllReduce gradient, so the tag names no variable).
    Collective {
        /// Iteration from the tag's low bits.
        iter: u64,
    },
    /// Intra-machine local-aggregation traffic for `var` in `iter`.
    LocalAgg {
        /// Variable index from the tag's header bits.
        var: usize,
        /// Iteration from the tag's low bits.
        iter: u64,
    },
    /// Ring-AllGatherv traffic for `var` in `iter`.
    Gatherv {
        /// Variable index from the tag's header bits.
        var: usize,
        /// Iteration from the tag's low bits.
        iter: u64,
    },
    /// A worker→server request of `iter`; the kind/target live in the
    /// packet header, not the tag.
    Request {
        /// Iteration from the tag's low bits.
        iter: u64,
    },
    /// A server→worker response or notification.
    Response {
        /// Request-kind discriminant (`KIND_*`).
        kind: u8,
        /// Target variable index.
        var: usize,
        /// Target partition index.
        part: usize,
        /// Iteration from the tag's low bits.
        iter: u64,
    },
    /// No known namespace claims this tag.
    Unknown,
}

/// Decodes the namespace, identity and iteration of a wire tag.
pub fn classify_tag(tag: u64) -> TagClass {
    let iter = tag & ((1 << ITER_BITS) - 1);
    let var = ((tag >> (PART_BITS + ITER_BITS)) & ((1 << VAR_BITS) - 1)) as usize;
    let part = ((tag >> ITER_BITS) & ((1 << PART_BITS) - 1)) as usize;
    if tag & NS_RESPONSE != 0 {
        // Response tags are `0x8... | pack(kind, ...)`; kind bits 58..64
        // carry *into* the namespace nibble (FetchShard = 8 lands the
        // tag in 0xA...), so the kind is recovered by clearing bit 63.
        let kind = ((tag & !NS_RESPONSE) >> KIND_SHIFT) as u8;
        if (1..=KIND_FETCH_SHARD).contains(&kind) {
            return TagClass::Response {
                kind,
                var,
                part,
                iter,
            };
        }
        return TagClass::Unknown;
    }
    match tag >> 60 {
        0x4 => TagClass::Request { iter },
        // Only the iteration bits may be set: a tag carrying header
        // bits is not one the fused ring mints.
        0x1 if tag >> ITER_BITS == NS_COLLECTIVE >> ITER_BITS => TagClass::Collective { iter },
        0x2 => TagClass::LocalAgg { var, iter },
        0x3 => TagClass::Gatherv { var, iter },
        _ => TagClass::Unknown,
    }
}

/// The identity of a session-machine message, independent of iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireKind {
    /// Ring-AllReduce step (dense or densified gradient).
    Collective,
    /// Ring-AllGatherv step (sparse gradient slices).
    Gatherv,
    /// Intra-machine reduce/gather leg toward the local chief.
    LocalAgg,
    /// A worker→server request of the given kind (`KIND_*`).
    Request(u8),
    /// A server→worker response/notification of the given kind.
    Response(u8),
}

impl WireKind {
    /// Human-readable name, e.g. `"Request(PushSparse)"`.
    pub fn describe(self) -> String {
        let kind_name = |k: u8| match k {
            KIND_PULL_DENSE => "PullDense",
            KIND_PULL_SPARSE => "PullSparse",
            KIND_PUSH_DENSE => "PushDense",
            KIND_PUSH_SPARSE => "PushSparse",
            KIND_CHIEF_UPDATE => "ChiefUpdate",
            KIND_UPDATE_DONE => "UpdateDone",
            KIND_READ_AGG => "ReadAgg",
            KIND_FETCH_SHARD => "FetchShard",
            _ => "?",
        };
        match self {
            WireKind::Collective => "Collective".into(),
            WireKind::Gatherv => "Gatherv".into(),
            WireKind::LocalAgg => "LocalAgg".into(),
            WireKind::Request(k) => format!("Request({})", kind_name(k)),
            WireKind::Response(k) => format!("Response({})", kind_name(k)),
        }
    }

    /// True for request kinds whose server-side effect is not idempotent
    /// (applying the message twice corrupts state unless deduplicated).
    pub fn non_idempotent_request(self) -> Option<u8> {
        match self {
            WireKind::Request(k)
                if matches!(
                    k,
                    KIND_PUSH_DENSE
                        | KIND_PUSH_SPARSE
                        | KIND_CHIEF_UPDATE
                        | KIND_READ_AGG
                        | KIND_FETCH_SHARD
                ) =>
            {
                Some(k)
            }
            _ => None,
        }
    }
}

/// The iteration phase an event belongs to, in worker program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Forward-pass parameter pulls.
    Pull,
    /// Collective gradient exchange (AllReduce / AllGatherv).
    Exchange,
    /// Intra-machine local aggregation toward the machine chief.
    LocalAgg,
    /// Gradient pushes to parameter servers.
    Push,
    /// The chief's update trigger.
    Trigger,
    /// Server→worker update-applied notifications.
    Notify,
    /// Post-update aggregated-gradient reads (tracing).
    TraceRead,
    /// Checkpoint/snapshot shard fetches at boundary iterations.
    Publish,
}

/// One edge of the session machine: a message identity on one link,
/// with its per-iteration multiplicity and obligations.
#[derive(Debug, Clone)]
pub struct MsgEvent {
    /// Which phase of the iteration the message belongs to.
    pub phase: Phase,
    /// Sending rank.
    pub from: usize,
    /// Receiving rank.
    pub to: usize,
    /// Message identity (namespace + kind).
    pub kind: WireKind,
    /// Target variable index.
    pub var: usize,
    /// Target partition index (0 where not applicable).
    pub part: usize,
    /// Messages per iteration, derived from the **sender's** program
    /// (client choreography / ring algebra).
    pub sends: u64,
    /// Messages per iteration, derived independently from the
    /// **receiver's** synchronization arithmetic (the server's
    /// outstanding-message formula, or the same ring algebra replayed
    /// from the receiving side).
    pub recvs: u64,
    /// How many of those messages share one tag *value* (ring steps
    /// reuse one tag `2(N-1)` times; a FetchShard reply is two messages
    /// FIFO-ordered under one tag). `1` for everything else — any other
    /// identity collision is cross-phase leakage.
    pub tag_uses: u64,
    /// True when the event only fires at checkpoint-boundary iterations
    /// (`(iter + 1) % checkpoint_interval == 0`).
    pub boundary_only: bool,
    /// True when the receiver blocks on this message (a missing sender
    /// is a deadlock, not just drift).
    pub blocking: bool,
    /// For responses/notifications: index of the request event this
    /// discharges.
    pub reply_of: Option<usize>,
    /// Events that must complete before this one's first message can be
    /// sent (worker program order and server reply obligations); edges
    /// of the wait-for graph.
    pub deps: Vec<usize>,
    /// Human-readable description for diagnostics.
    pub label: String,
}

impl MsgEvent {
    /// The event's wire identity modulo iteration: what the runtime
    /// validator keys on.
    pub fn identity(&self) -> (usize, usize, WireKind, usize, usize) {
        (self.from, self.to, self.kind, self.var, self.part)
    }
}

/// A complete per-iteration session machine for one verified plan.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Total rank count (workers + servers).
    pub ranks: usize,
    /// The chief worker's rank.
    pub chief: usize,
    /// Worker ranks in ring order.
    pub workers: Vec<usize>,
    /// Server ranks.
    pub servers: Vec<usize>,
    /// Synchronous training (the machine models one barriered
    /// iteration; async runs skip triggers/notifications).
    pub sync: bool,
    /// Effective checkpoint/snapshot interval (0 = no boundary events).
    pub checkpoint_interval: usize,
    /// True when blocking receives arm a failure-detection deadline, so
    /// dropped messages surface as typed errors instead of hangs.
    pub deadline_armed: bool,
    /// True when the server enforces its exact per-iteration pull quota
    /// (a duplicated pull then surfaces as a typed iteration-mismatch
    /// error rather than silently skewing the barrier).
    pub pull_exact_count: bool,
    /// Request kinds covered by the server's at-most-once dedup guard.
    pub dedup_guarded: Vec<u8>,
    /// The session events.
    pub events: Vec<MsgEvent>,
}

impl SessionSpec {
    /// Events in the spec.
    pub fn events(&self) -> &[MsgEvent] {
        &self.events
    }

    /// Mutable event access for negative-path tests: tampering with the
    /// spec must be *possible* so the checker's detection of every
    /// defect class stays testable (mirrors the plancheck tamper
    /// constructors).
    #[doc(hidden)]
    pub fn events_mut(&mut self) -> &mut Vec<MsgEvent> {
        &mut self.events
    }

    /// Disarms the receive-deadline flag (negative-path tests).
    #[doc(hidden)]
    pub fn tamper_disarm_deadline(&mut self) {
        self.deadline_armed = false;
    }

    /// Disables the exact pull-count guard (negative-path tests).
    #[doc(hidden)]
    pub fn tamper_disable_pull_guard(&mut self) {
        self.pull_exact_count = false;
    }

    /// Removes a request kind from the dedup guard (negative-path
    /// tests).
    #[doc(hidden)]
    pub fn tamper_unguard(&mut self, kind: u8) {
        self.dedup_guarded.retain(|&k| k != kind);
    }
}

impl fmt::Display for SessionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "session machine: {} ranks ({} workers, {} servers), chief {}, {} events, \
             interval {}",
            self.ranks,
            self.workers.len(),
            self.servers.len(),
            self.chief,
            self.events.len(),
            self.checkpoint_interval
        )?;
        for (i, e) in self.events.iter().enumerate() {
            writeln!(
                f,
                "  [{i:3}] {:?} {} -> {} {} var {} part {} x{}{}{}",
                e.phase,
                e.from,
                e.to,
                e.kind.describe(),
                e.var,
                e.part,
                e.sends,
                if e.boundary_only { " (boundary)" } else { "" },
                if e.reply_of.is_some() { " (reply)" } else { "" },
            )?;
        }
        Ok(())
    }
}

/// Identity key of the runtime allowed-set: `(from, to, namespace+kind,
/// var, part)`.
type LinkKey = (usize, usize, u8, u32, u32);

fn key_of(from: usize, to: usize, kind: WireKind, var: usize, part: usize) -> LinkKey {
    // Namespace-qualified kind byte: collectives/local-agg get codes
    // above the request-kind range; requests/responses keep their
    // discriminant with the response bit in 0x80.
    let code = match kind {
        WireKind::Collective => 0x41,
        WireKind::Gatherv => 0x43,
        WireKind::LocalAgg => 0x42,
        WireKind::Request(k) => k,
        WireKind::Response(k) => 0x80 | k,
    };
    (from, to, code, var as u32, part as u32)
}

/// Compiled, stateless runtime assertion of a [`SessionSpec`]: accepts
/// exactly the messages some event allows, with boundary-only events
/// gated on the tag's iteration. Cheap enough for debug-build installs
/// (two hash probes per send) and shared by all endpoints via `Arc`.
#[derive(Debug)]
pub struct SessionValidator {
    ranks: usize,
    interval: usize,
    steady: HashSet<LinkKey>,
    boundary: HashSet<LinkKey>,
}

impl SessionValidator {
    /// Compiles the allowed-set from a spec.
    pub fn from_spec(spec: &SessionSpec) -> Arc<Self> {
        let mut steady = HashSet::new();
        let mut boundary = HashSet::new();
        for e in &spec.events {
            let key = key_of(e.from, e.to, e.kind, e.var, e.part);
            if e.boundary_only {
                boundary.insert(key);
            } else {
                steady.insert(key);
            }
        }
        Arc::new(SessionValidator {
            ranks: spec.ranks,
            interval: spec.checkpoint_interval,
            steady,
            boundary,
        })
    }

    fn reject(&self, from: usize, to: usize, tag: u64, reason: String) -> CommError {
        CommError::Protocol {
            from,
            to,
            tag,
            reason,
        }
    }

    /// Validates one routed message. `header` is the packed request
    /// header for `Payload::Packet` sends (requests are disambiguated
    /// by header, not tag), `None` otherwise.
    pub fn check(
        &self,
        from: usize,
        to: usize,
        tag: u64,
        header: Option<u64>,
    ) -> Result<(), CommError> {
        if from >= self.ranks || to >= self.ranks {
            return Err(self.reject(
                from,
                to,
                tag,
                format!("rank outside the session's {} ranks", self.ranks),
            ));
        }
        let (kind, var, part, iter) = match classify_tag(tag) {
            TagClass::Collective { iter } => (WireKind::Collective, 0, 0, iter),
            TagClass::Gatherv { var, iter } => (WireKind::Gatherv, var, 0, iter),
            TagClass::LocalAgg { var, iter } => (WireKind::LocalAgg, var, 0, iter),
            TagClass::Response {
                kind,
                var,
                part,
                iter,
            } => (WireKind::Response(kind), var, part, iter),
            TagClass::Request { iter } => {
                let Some(h) = header else {
                    return Err(self.reject(
                        from,
                        to,
                        tag,
                        "request-tagged message without a packet header".into(),
                    ));
                };
                let kind = (h >> KIND_SHIFT) as u8;
                let hvar = ((h >> (PART_BITS + ITER_BITS)) & ((1 << VAR_BITS) - 1)) as usize;
                let hpart = ((h >> ITER_BITS) & ((1 << PART_BITS) - 1)) as usize;
                let hiter = h & ((1 << ITER_BITS) - 1);
                if !(1..=KIND_FETCH_SHARD).contains(&kind) {
                    return Err(self.reject(
                        from,
                        to,
                        tag,
                        format!("request header carries unknown kind {kind}"),
                    ));
                }
                if hiter != iter {
                    return Err(self.reject(
                        from,
                        to,
                        tag,
                        format!(
                            "request header iteration {hiter} disagrees with tag iteration \
                             {iter} (cross-phase leak)"
                        ),
                    ));
                }
                (WireKind::Request(kind), hvar, hpart, iter)
            }
            TagClass::Unknown => {
                return Err(self.reject(from, to, tag, "tag in no known namespace".into()));
            }
        };
        let key = key_of(from, to, kind, var, part);
        if self.steady.contains(&key) {
            return Ok(());
        }
        if self.boundary.contains(&key) {
            if self.interval > 0 && (iter + 1) % self.interval as u64 == 0 {
                return Ok(());
            }
            return Err(self.reject(
                from,
                to,
                tag,
                format!(
                    "{} for var {var} part {part} is boundary-only (interval {}), but \
                     iteration {iter} is not a checkpoint boundary",
                    kind.describe(),
                    self.interval
                ),
            ));
        }
        Err(self.reject(
            from,
            to,
            tag,
            format!(
                "session machine has no event {} -> {} {} var {var} part {part}",
                from,
                to,
                kind.describe()
            ),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SessionSpec {
        SessionSpec {
            ranks: 3,
            chief: 0,
            workers: vec![0, 1],
            servers: vec![2],
            sync: true,
            checkpoint_interval: 2,
            deadline_armed: true,
            pull_exact_count: true,
            dedup_guarded: vec![
                KIND_PUSH_DENSE,
                KIND_PUSH_SPARSE,
                KIND_CHIEF_UPDATE,
                KIND_READ_AGG,
                KIND_FETCH_SHARD,
            ],
            events: vec![
                MsgEvent {
                    phase: Phase::Push,
                    from: 0,
                    to: 2,
                    kind: WireKind::Request(KIND_PUSH_DENSE),
                    var: 1,
                    part: 0,
                    sends: 1,
                    recvs: 1,
                    tag_uses: 1,
                    boundary_only: false,
                    blocking: true,
                    reply_of: None,
                    deps: vec![],
                    label: "push".into(),
                },
                MsgEvent {
                    phase: Phase::Publish,
                    from: 0,
                    to: 2,
                    kind: WireKind::Request(KIND_FETCH_SHARD),
                    var: 1,
                    part: 0,
                    sends: 1,
                    recvs: 1,
                    tag_uses: 1,
                    boundary_only: true,
                    blocking: true,
                    reply_of: None,
                    deps: vec![],
                    label: "fetch".into(),
                },
            ],
        }
    }

    fn pack(kind: u8, var: usize, part: usize, iter: u64) -> u64 {
        ((kind as u64) << KIND_SHIFT)
            | ((var as u64) << (PART_BITS + ITER_BITS))
            | ((part as u64) << ITER_BITS)
            | iter
    }

    #[test]
    fn classify_covers_every_namespace() {
        assert_eq!(
            classify_tag(NS_COLLECTIVE | 9),
            TagClass::Collective { iter: 9 }
        );
        // A per-variable ring tag (header bits set) is no longer minted.
        assert_eq!(
            classify_tag(NS_COLLECTIVE | pack(KIND_PUSH_DENSE, 5, 0, 9)),
            TagClass::Unknown
        );
        assert_eq!(
            classify_tag(NS_GATHERV | pack(KIND_PUSH_DENSE, 5, 0, 9)),
            TagClass::Gatherv { var: 5, iter: 9 }
        );
        assert_eq!(
            classify_tag(NS_LOCAL_AGG | pack(KIND_PUSH_DENSE, 2, 0, 3)),
            TagClass::LocalAgg { var: 2, iter: 3 }
        );
        assert_eq!(classify_tag(NS_REQUEST | 7), TagClass::Request { iter: 7 });
        // FetchShard responses land in the 0xA nibble (kind bits carry
        // past the response marker) and must still classify.
        assert_eq!(
            classify_tag(NS_RESPONSE | pack(KIND_FETCH_SHARD, 3, 1, 4)),
            TagClass::Response {
                kind: KIND_FETCH_SHARD,
                var: 3,
                part: 1,
                iter: 4
            }
        );
        assert_eq!(classify_tag(0), TagClass::Unknown);
        assert_eq!(classify_tag(0x5000_0000_0000_0000), TagClass::Unknown);
    }

    #[test]
    fn validator_accepts_spec_messages_and_rejects_drift() {
        let spec = tiny_spec();
        let v = SessionValidator::from_spec(&spec);
        let req = NS_REQUEST;
        // Allowed: the push event, any iteration, any number of times
        // (duplicates carry the same identity — no false positives).
        for _ in 0..3 {
            v.check(0, 2, req, Some(pack(KIND_PUSH_DENSE, 1, 0, 0)))
                .unwrap();
        }
        // Drift: a push of an unplanned variable.
        let err = v
            .check(0, 2, req, Some(pack(KIND_PUSH_DENSE, 2, 0, 0)))
            .unwrap_err();
        assert!(matches!(err, CommError::Protocol { .. }), "{err}");
        // Drift: an unplanned sender.
        assert!(v
            .check(1, 2, req, Some(pack(KIND_PUSH_DENSE, 1, 0, 0)))
            .is_err());
        // Drift: header/tag iteration mismatch.
        assert!(v
            .check(0, 2, req, Some(pack(KIND_PUSH_DENSE, 1, 0, 1)))
            .is_err());
        // A request without a header cannot be validated.
        assert!(v.check(0, 2, req, None).is_err());
    }

    #[test]
    fn boundary_events_are_gated_on_the_interval() {
        let spec = tiny_spec();
        let v = SessionValidator::from_spec(&spec);
        // interval = 2: iterations 1, 3, ... are boundaries.
        let at = |iter: u64| (NS_REQUEST | iter, Some(pack(KIND_FETCH_SHARD, 1, 0, iter)));
        let (tag, h) = at(1);
        v.check(0, 2, tag, h).unwrap();
        let (tag, h) = at(0);
        let err = v.check(0, 2, tag, h).unwrap_err();
        assert!(err.to_string().contains("boundary"), "{err}");
    }

    #[test]
    fn out_of_range_ranks_are_rejected() {
        let spec = tiny_spec();
        let v = SessionValidator::from_spec(&spec);
        assert!(v.check(7, 2, NS_REQUEST, None).is_err());
        assert!(v.check(0, 9, NS_REQUEST, None).is_err());
    }
}
