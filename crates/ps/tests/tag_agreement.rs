//! Cross-crate bit-for-bit agreement between `ps::protocol` (the tag
//! producer) and `comm::protocheck` (the tag classifier).
//!
//! The session validator can only be sound if both crates agree on the
//! wire layout: every namespace constant, every field boundary, every
//! kind discriminant. This test pins that agreement so a drift in either
//! crate fails here instead of at runtime.

use parallax_comm::protocheck::{
    classify_tag, TagClass, KIND_CHIEF_UPDATE, KIND_FETCH_SHARD, KIND_PULL_DENSE, KIND_PULL_SPARSE,
    KIND_PUSH_DENSE, KIND_PUSH_SPARSE, KIND_READ_AGG, KIND_UPDATE_DONE, MAX_HEADER_PARTS,
    MAX_HEADER_VARS,
};
use parallax_ps::protocol::{self, ReqKind, MAX_PARTS, MAX_VARS};

#[test]
fn kind_discriminants_agree() {
    for (kind, code) in [
        (ReqKind::PullDense, KIND_PULL_DENSE),
        (ReqKind::PullSparse, KIND_PULL_SPARSE),
        (ReqKind::PushDense, KIND_PUSH_DENSE),
        (ReqKind::PushSparse, KIND_PUSH_SPARSE),
        (ReqKind::ChiefUpdate, KIND_CHIEF_UPDATE),
        (ReqKind::UpdateDone, KIND_UPDATE_DONE),
        (ReqKind::ReadAgg, KIND_READ_AGG),
        (ReqKind::FetchShard, KIND_FETCH_SHARD),
    ] {
        assert_eq!(kind as u8, code, "{kind:?} discriminant drifted");
    }
}

#[test]
fn header_capacity_agrees() {
    assert_eq!(MAX_VARS, MAX_HEADER_VARS);
    assert_eq!(MAX_PARTS, MAX_HEADER_PARTS);
}

#[test]
fn every_produced_tag_classifies_to_its_namespace() {
    // Exercise field boundaries: zero, mid-range, and max values of
    // every header field, for every kind that travels under each tag.
    let vars = [0usize, 17, MAX_VARS];
    let parts = [0usize, 255, MAX_PARTS];
    let iters = [0u64, 12345, (1 << 30) - 1];
    for &iter in &iters {
        assert_eq!(
            classify_tag(protocol::request_tag(iter)),
            TagClass::Request { iter },
        );
        // One fused ring per iteration: the tag carries only the
        // iteration.
        assert_eq!(
            classify_tag(protocol::allreduce_tag(iter)),
            TagClass::Collective { iter },
        );
    }
    for &var in &vars {
        for &iter in &iters {
            assert_eq!(
                classify_tag(protocol::local_agg_tag(var, iter)),
                TagClass::LocalAgg { var, iter },
            );
            for &part in &parts {
                for kind in [
                    ReqKind::PullDense,
                    ReqKind::PullSparse,
                    ReqKind::PushDense,
                    ReqKind::PushSparse,
                    ReqKind::ChiefUpdate,
                    ReqKind::UpdateDone,
                    ReqKind::ReadAgg,
                    ReqKind::FetchShard,
                ] {
                    assert_eq!(
                        classify_tag(protocol::response_tag(kind, var, part, iter)),
                        TagClass::Response {
                            kind: kind as u8,
                            var,
                            part,
                            iter,
                        },
                        "{kind:?} response tag mis-classified"
                    );
                }
            }
        }
    }
}

#[test]
fn header_fields_decode_like_unpack() {
    // The validator decodes request headers with its own shifts; they
    // must match `protocol::unpack` exactly. Round-trip through a
    // response tag, whose classified fields come from the same layout.
    let h = protocol::pack(ReqKind::PushSparse, 17, 3, 999);
    let (kind, var, part, iter) = protocol::unpack(h).unwrap();
    let classified = classify_tag(0x8000_0000_0000_0000 | h);
    assert_eq!(
        classified,
        TagClass::Response {
            kind: kind as u8,
            var,
            part,
            iter,
        }
    );
}
