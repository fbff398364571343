//! Wire protocol: request headers and tag layout.
//!
//! All worker->server requests of one iteration travel under a single
//! *request tag* and carry a packed header identifying the request kind
//! and target `(variable, partition)`. Server->worker responses use
//! per-target *response tags* so a worker can block on exactly the
//! response it needs.
//!
//! Packing layout (64 bits): `kind:6 | var:14 | part:14 | iter:30`.

use crate::{PsError, Result};

/// Request/response kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Worker pulls a full dense variable. Body: `Control(0)`.
    PullDense = 1,
    /// Worker pulls rows of one partition. Body: `Ids(local rows)`.
    PullSparse = 2,
    /// Worker (or local chief) pushes a dense gradient. Body: `Tensor`.
    PushDense = 3,
    /// Worker (or local chief) pushes a sparse gradient partition.
    /// Body: `Slices` (indices already partition-local).
    PushSparse = 4,
    /// The chief worker triggers the read-aggregated-gradient-and-update
    /// step for a variable (Section 5). Body: `Control(0)`.
    ChiefUpdate = 5,
    /// Server notifies workers that a shard's update is applied (the
    /// shared-queue notification). Body: `Control(0)`.
    UpdateDone = 6,
    /// Worker reads the shard's last aggregated gradient (saved by the
    /// update step) for tracing or global-norm clipping (Section 5).
    /// Body: `Control(0)`; response: `Slices` or `Tensor`.
    ReadAgg = 7,
    /// The chief fetches a shard's current (post-update) value for
    /// checkpointing. Body: `Control(0)`; response: `Tensor`.
    ///
    /// Note on traffic classing: `8 << 58` carries into the tag's top
    /// nibble, so FetchShard response tags read back as `0xA...` —
    /// `TrafficClass::from_tag` maps that nibble to PS traffic.
    FetchShard = 8,
}

impl ReqKind {
    fn from_bits(bits: u64) -> Result<Self> {
        Ok(match bits {
            1 => ReqKind::PullDense,
            2 => ReqKind::PullSparse,
            3 => ReqKind::PushDense,
            4 => ReqKind::PushSparse,
            5 => ReqKind::ChiefUpdate,
            6 => ReqKind::UpdateDone,
            7 => ReqKind::ReadAgg,
            8 => ReqKind::FetchShard,
            other => return Err(PsError::Protocol(format!("bad request kind {other}"))),
        })
    }
}

const VAR_BITS: u64 = 14;
const PART_BITS: u64 = 14;
const ITER_BITS: u64 = 30;

/// Maximum variable index representable in a header.
pub const MAX_VARS: usize = (1 << VAR_BITS) - 1;
/// Maximum partition index representable in a header.
pub const MAX_PARTS: usize = (1 << PART_BITS) - 1;

/// Packs a header word.
pub fn pack(kind: ReqKind, var: usize, part: usize, iter: u64) -> u64 {
    debug_assert!(var <= MAX_VARS, "variable index {var} exceeds header space");
    debug_assert!(
        part <= MAX_PARTS,
        "partition index {part} exceeds header space"
    );
    let iter = iter & ((1 << ITER_BITS) - 1);
    ((kind as u64) << (VAR_BITS + PART_BITS + ITER_BITS))
        | ((var as u64) << (PART_BITS + ITER_BITS))
        | ((part as u64) << ITER_BITS)
        | iter
}

/// Unpacks a header word into `(kind, var, part, iter)`.
pub fn unpack(header: u64) -> Result<(ReqKind, usize, usize, u64)> {
    let kind = ReqKind::from_bits(header >> (VAR_BITS + PART_BITS + ITER_BITS))?;
    let var = ((header >> (PART_BITS + ITER_BITS)) & ((1 << VAR_BITS) - 1)) as usize;
    let part = ((header >> ITER_BITS) & ((1 << PART_BITS) - 1)) as usize;
    let iter = header & ((1 << ITER_BITS) - 1);
    Ok((kind, var, part, iter))
}

/// The single tag all requests of iteration `iter` travel under.
pub fn request_tag(iter: u64) -> u64 {
    0x4000_0000_0000_0000 | (iter & ((1 << ITER_BITS) - 1))
}

/// The tag of a response (or notification) for `(kind, var, part)` in
/// iteration `iter`.
pub fn response_tag(kind: ReqKind, var: usize, part: usize, iter: u64) -> u64 {
    0x8000_0000_0000_0000 | pack(kind, var, part, iter)
}

/// Tag space for worker-side local aggregation of a variable (intra-
/// machine reduce/gather), disjoint from request/response tags.
pub fn local_agg_tag(var: usize, iter: u64) -> u64 {
    0x2000_0000_0000_0000 | pack(ReqKind::PushDense, var, 0, iter)
}

/// The single tag of iteration `iter`'s fused ring AllReduce, which
/// carries every dense (or densified) AllReduce gradient in one ring.
/// Disjoint from the PS tags; only the iteration bits are set.
pub fn allreduce_tag(iter: u64) -> u64 {
    0x1000_0000_0000_0000 | (iter & ((1 << ITER_BITS) - 1))
}

const FLOW_RANK_BITS: u64 = 10;
const FLOW_ITER_BITS: u64 = 20;

/// Chrome-trace flow-correlation id linking a worker's push-request
/// span to the server span that serves it. Both sides can compute it
/// independently: the pusher knows its own rank, the server reads the
/// sender from the transport envelope. Layout:
/// `kind:6 | var:14 | part:14 | from:10 | iter:20` — unique while
/// sender ranks stay below 1024 and iterations below 2^20 (traced runs
/// are far smaller than either bound).
pub fn flow_id(kind: ReqKind, var: usize, part: usize, from: usize, iter: u64) -> u64 {
    let from = (from as u64) & ((1 << FLOW_RANK_BITS) - 1);
    let iter = iter & ((1 << FLOW_ITER_BITS) - 1);
    ((kind as u64) << (VAR_BITS + PART_BITS + FLOW_RANK_BITS + FLOW_ITER_BITS))
        | ((var as u64) << (PART_BITS + FLOW_RANK_BITS + FLOW_ITER_BITS))
        | ((part as u64) << (FLOW_RANK_BITS + FLOW_ITER_BITS))
        | (from << FLOW_ITER_BITS)
        | iter
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        for (kind, var, part, iter) in [
            (ReqKind::PullDense, 0usize, 0usize, 0u64),
            (ReqKind::PullSparse, 17, 255, 12345),
            (ReqKind::PushSparse, MAX_VARS, MAX_PARTS, (1 << 30) - 1),
            (ReqKind::UpdateDone, 1, 2, 3),
            (ReqKind::FetchShard, 3, 1, 9),
        ] {
            let h = pack(kind, var, part, iter);
            let (k2, v2, p2, i2) = unpack(h).unwrap();
            assert_eq!((k2, v2, p2, i2), (kind, var, part, iter));
        }
    }

    #[test]
    fn bad_kind_rejected() {
        assert!(unpack(0).is_err());
        assert!(unpack(u64::MAX).is_err());
    }

    #[test]
    fn tag_spaces_are_disjoint() {
        let r = request_tag(5);
        let resp = response_tag(ReqKind::PullDense, 1, 0, 5);
        let agg = local_agg_tag(1, 5);
        let ar = allreduce_tag(5);
        let tags = [r, resp, agg, ar];
        for (i, a) in tags.iter().enumerate() {
            for (j, b) in tags.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b);
                }
            }
        }
    }

    #[test]
    fn flow_ids_distinguish_sender_and_target() {
        let a = flow_id(ReqKind::PushSparse, 1, 0, 0, 7);
        let b = flow_id(ReqKind::PushSparse, 1, 0, 1, 7);
        let c = flow_id(ReqKind::PushSparse, 1, 1, 0, 7);
        let d = flow_id(ReqKind::PushSparse, 1, 0, 0, 8);
        let e = flow_id(ReqKind::PushDense, 1, 0, 0, 7);
        let ids = [a, b, c, d, e];
        for (i, x) in ids.iter().enumerate() {
            for (j, y) in ids.iter().enumerate() {
                if i != j {
                    assert_ne!(x, y, "ids {i} and {j} collide");
                }
            }
        }
    }

    #[test]
    fn distinct_targets_distinct_response_tags() {
        let a = response_tag(ReqKind::PullSparse, 1, 0, 7);
        let b = response_tag(ReqKind::PullSparse, 1, 1, 7);
        let c = response_tag(ReqKind::PullSparse, 2, 0, 7);
        let d = response_tag(ReqKind::PullSparse, 1, 0, 8);
        assert!(a != b && a != c && a != d && b != c);
    }
}
