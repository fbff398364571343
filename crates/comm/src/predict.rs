//! Static traffic prediction: replay a communication schedule into a
//! ledger *without running anything*.
//!
//! The plan verifier (`parallax-core::plancheck`) statically computes,
//! per traffic class, the bytes a distributed plan will move in one
//! iteration, and cross-checks them against what the live
//! [`crate::traffic::TrafficStats`] accounting would record — a
//! compile-time analogue of the runtime conservation crosscheck. This
//! module supplies the two ingredients:
//!
//! * [`StaticLedger`] — accounting identical to a live router's
//!   [`TrafficStats`] (it *is* one, fed by hand), keyed by the same
//!   rank→machine mapping and tag→class convention, so a predicted
//!   snapshot is comparable to a measured one with `==`;
//! * `replay_*` helpers — the exact per-step wire schedule of every
//!   collective in [`crate::collectives`], expressed as byte counts
//!   instead of payloads. Unit tests pin each replay against the real
//!   collective's measured traffic.

use std::sync::Arc;

use crate::collectives::fused_chunk_len;
use crate::topology::Topology;
use crate::traffic::{TrafficClass, TrafficSnapshot, TrafficStats};
use crate::wire::WireFormat;
use crate::Result;

/// A traffic ledger fed by static replay instead of live sends.
///
/// Internally this wraps the very same [`TrafficStats`] accumulator the
/// transport layer charges, so intra/inter splitting, link accounting
/// and message counting are *identical by construction* — the predictor
/// can only diverge from a measurement by replaying the wrong schedule,
/// never by accounting the right schedule differently.
#[derive(Debug, Clone)]
pub struct StaticLedger {
    topo: Topology,
    stats: Arc<TrafficStats>,
}

impl StaticLedger {
    /// An empty ledger over a cluster topology (the same rank→machine
    /// mapping the live router uses).
    pub fn new(topo: Topology) -> Self {
        let stats = TrafficStats::new(topo.num_machines());
        StaticLedger { topo, stats }
    }

    /// The topology the ledger charges against.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Charges one message from rank `src` to rank `dst` under `tag`,
    /// exactly as `Endpoint::send` would: bytes go to the class named by
    /// the tag's top nibble and are split intra/inter by the machines
    /// hosting the two ranks.
    pub fn charge(&self, src: usize, dst: usize, tag: u64, bytes: u64) -> Result<()> {
        let src_machine = self.topo.machine_of(src)?;
        let dst_machine = self.topo.machine_of(dst)?;
        self.stats
            .record_class(src_machine, dst_machine, bytes, TrafficClass::from_tag(tag));
        Ok(())
    }

    /// Snapshot of one traffic class (comparable to a live
    /// `TrafficStats::class_snapshot` with `==`).
    pub fn class_snapshot(&self, class: TrafficClass) -> TrafficSnapshot {
        self.stats.class_snapshot(class)
    }

    /// Snapshot summed over all classes.
    pub fn snapshot(&self) -> TrafficSnapshot {
        self.stats.snapshot()
    }
}

/// Replays one ring AllReduce over buffers of `lens` elements under
/// `wire`: `2(n-1)` steps, each rank sending one message per step to its
/// ring successor (reduce-scatter then allgather). A step's message is
/// the concatenation of every buffer's chunk for that step, at
/// `wire.scalar_bytes()` per element — the exact sizes
/// `collectives::ring_allreduce_wire` puts on the wire. An empty buffer
/// list sends nothing.
pub fn replay_ring_allreduce_wire(
    ledger: &StaticLedger,
    ranks: &[usize],
    tag: u64,
    lens: &[usize],
    wire: WireFormat,
) -> Result<()> {
    let n = ranks.len();
    if n <= 1 || lens.is_empty() {
        return Ok(());
    }
    let ws = wire.scalar_bytes();
    for (pos, &src) in ranks.iter().enumerate() {
        let dst = ranks[(pos + 1) % n];
        // Reduce-scatter step s sends chunk (pos - s) mod n; allgather
        // step s sends chunk (pos + 1 - s) mod n — the exact rotation
        // `collectives::ring_allreduce` performs.
        for step in 0..n - 1 {
            let elems = fused_chunk_len(lens, n, (pos + n - step) % n);
            ledger.charge(src, dst, tag, ws * elems as u64)?;
        }
        for step in 0..n - 1 {
            let elems = fused_chunk_len(lens, n, (pos + 1 + n - step) % n);
            ledger.charge(src, dst, tag, ws * elems as u64)?;
        }
    }
    Ok(())
}

/// Replays a ring AllGatherv over `ranks`, where the rank at position
/// `p` contributes a payload of `contrib_bytes[p]` bytes: `n-1` steps,
/// step `s` forwarding contribution `(pos - s) mod n` to the successor.
pub fn replay_allgatherv(
    ledger: &StaticLedger,
    ranks: &[usize],
    tag: u64,
    contrib_bytes: &[u64],
) -> Result<()> {
    let n = ranks.len();
    if n <= 1 {
        return Ok(());
    }
    for (pos, &src) in ranks.iter().enumerate() {
        let dst = ranks[(pos + 1) % n];
        for step in 0..n - 1 {
            let idx = (pos + n - step) % n;
            ledger.charge(src, dst, tag, contrib_bytes[idx])?;
        }
    }
    Ok(())
}

/// Replays a reduce-to-root where the rank at position `p` holds
/// `bytes[p]` bytes: every non-root sends its buffer to the root.
pub fn replay_reduce_to(
    ledger: &StaticLedger,
    ranks: &[usize],
    tag: u64,
    root: usize,
    bytes: &[u64],
) -> Result<()> {
    for (pos, &src) in ranks.iter().enumerate() {
        if src != root {
            ledger.charge(src, root, tag, bytes[pos])?;
        }
    }
    Ok(())
}

/// Replays a broadcast from `root`: one payload of `bytes` to every
/// other participant.
pub fn replay_broadcast(
    ledger: &StaticLedger,
    ranks: &[usize],
    tag: u64,
    root: usize,
    bytes: u64,
) -> Result<()> {
    for &dst in ranks {
        if dst != root {
            ledger.charge(root, dst, tag, bytes)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{allgatherv_slices, gather_slices_to, reduce_to, ring_allreduce_wire};
    use crate::transport::{Endpoint, Payload, Router};
    use parallax_tensor::{IndexedSlices, Tensor};

    /// Runs `f` on every endpoint concurrently and returns the router's
    /// traffic accumulator.
    fn run_all(topo: Topology, f: impl Fn(&mut Endpoint, &[usize]) + Sync) -> Arc<TrafficStats> {
        let n = topo.num_workers();
        let ranks: Vec<usize> = (0..n).collect();
        let (eps, traffic) = Router::build(topo);
        std::thread::scope(|s| {
            for mut ep in eps {
                let ranks = &ranks;
                let f = &f;
                s.spawn(move || f(&mut ep, ranks));
            }
        });
        traffic
    }

    #[test]
    fn ledger_charges_like_an_endpoint() {
        let topo = Topology::new(vec![2, 1]).unwrap();
        let ledger = StaticLedger::new(topo.clone());
        // rank 0 -> rank 2 crosses machines; rank 0 -> rank 1 stays local.
        ledger.charge(0, 2, 0x8000_0000_0000_0000, 100).unwrap();
        ledger.charge(0, 1, 0x8000_0000_0000_0000, 40).unwrap();
        let ps = ledger.class_snapshot(TrafficClass::Ps);
        assert_eq!(ps.out_bytes, vec![100, 0]);
        assert_eq!(ps.in_bytes, vec![0, 100]);
        assert_eq!(ps.intra_bytes_per_machine, vec![40, 0]);
        assert_eq!(ps.inter_messages, 1);
        assert_eq!(ps.intra_messages, 1);
        // Wrong class stays empty; unknown ranks error instead of panic.
        assert_eq!(ledger.class_snapshot(TrafficClass::Nccl).inter_messages, 0);
        assert!(ledger.charge(9, 0, 0, 1).is_err());
    }

    /// Executes one fused ring AllReduce over buffers of `lens` elements
    /// on every rank of `topo` and returns the measured ledger.
    fn run_fused_ring(topo: &Topology, lens: &[usize], wire: WireFormat) -> Arc<TrafficStats> {
        run_all(topo.clone(), |ep, ranks| {
            let mut bufs: Vec<Vec<f32>> = lens.iter().map(|&len| vec![1.0f32; len]).collect();
            let mut views: Vec<&mut [f32]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
            ring_allreduce_wire(ep, ranks, RING_TAG, &mut views, wire).unwrap();
        })
    }

    const RING_TAG: u64 = 0x1000_0000_0000_0000;

    #[test]
    fn fused_ring_replay_matches_execution_exactly() {
        // Mixed topologies (incl. multi-GPU machines so intra-machine
        // hops show up) and buffer sets with lengths 0, below n, not
        // divisible by n, and a single buffer.
        for wire in [WireFormat::F32, WireFormat::F16, WireFormat::Bf16] {
            for (gpus, lens) in [
                (vec![1, 1, 1, 1], vec![8usize]),
                (vec![1, 1, 1], vec![7, 0, 2, 11]),
                (vec![2, 1], vec![10, 1, 0]),
                (vec![2, 2, 1], vec![13, 4, 3, 0, 26]),
                (vec![3], vec![5, 2]),
                (vec![1, 1], vec![0]),
            ] {
                let topo = Topology::new(gpus).unwrap();
                let measured = run_fused_ring(&topo, &lens, wire);
                let ledger = StaticLedger::new(topo.clone());
                let ranks: Vec<usize> = (0..topo.num_workers()).collect();
                replay_ring_allreduce_wire(&ledger, &ranks, RING_TAG, &lens, wire).unwrap();
                assert_eq!(
                    ledger.class_snapshot(TrafficClass::Nccl),
                    measured.class_snapshot(TrafficClass::Nccl),
                    "wire={wire:?} gpus={:?} lens={lens:?}",
                    topo.gpus_per_machine()
                );
            }
        }
    }

    #[test]
    fn per_buffer_ring_replay_fails_against_a_fused_run() {
        // Seeded defect: a predictor still replaying one ring per buffer
        // charges the same bytes in 2(n-1) messages per buffer instead of
        // 2(n-1) in total, so the exactness gate must reject it.
        let topo = Topology::new(vec![1, 1, 1]).unwrap();
        let lens = [7usize, 4, 9];
        let ranks: Vec<usize> = (0..topo.num_workers()).collect();
        for wire in [WireFormat::F32, WireFormat::F16, WireFormat::Bf16] {
            let measured = run_fused_ring(&topo, &lens, wire).class_snapshot(TrafficClass::Nccl);
            let stale = StaticLedger::new(topo.clone());
            for &len in &lens {
                replay_ring_allreduce_wire(&stale, &ranks, RING_TAG, &[len], wire).unwrap();
            }
            let stale = stale.class_snapshot(TrafficClass::Nccl);
            assert_eq!(stale.total_network_bytes(), measured.total_network_bytes());
            assert_ne!(stale, measured, "wire={wire:?}: stale replay passed");
            assert_eq!(
                stale.inter_messages,
                lens.len() as u64 * measured.inter_messages
            );
        }
    }

    #[test]
    fn wire_allgatherv_slices_replay_matches_execution_exactly() {
        use crate::collectives::allgatherv_slices_wire;
        use crate::wire::slices_wire_bytes;
        for wire in [WireFormat::F32, WireFormat::F16] {
            for gpus in [vec![1, 1, 1], vec![2, 2]] {
                let topo = Topology::new(gpus).unwrap();
                let tag = 0x3000_0000_0000_0000u64;
                let cols = 3usize;
                let nnz = |rank: usize| rank + 1;
                let build = |r: usize| {
                    IndexedSlices::new(
                        (0..nnz(r)).map(|i| i * 50).collect(),
                        Tensor::full([nnz(r), cols], r as f32),
                        1000,
                    )
                    .unwrap()
                };
                let measured = run_all(topo.clone(), |ep, ranks| {
                    allgatherv_slices_wire(ep, ranks, tag, build(ep.rank()), wire).unwrap();
                });
                let ledger = StaticLedger::new(topo.clone());
                let ranks: Vec<usize> = (0..topo.num_workers()).collect();
                let contrib: Vec<u64> = ranks
                    .iter()
                    .map(|&r| slices_wire_bytes(&build(r), wire))
                    .collect();
                replay_allgatherv(&ledger, &ranks, tag, &contrib).unwrap();
                assert_eq!(
                    ledger.class_snapshot(TrafficClass::Mpi),
                    measured.class_snapshot(TrafficClass::Mpi),
                    "wire={wire:?} gpus={:?}",
                    topo.gpus_per_machine()
                );
            }
        }
    }

    #[test]
    fn allgatherv_slices_replay_matches_execution_exactly() {
        for gpus in [vec![1, 1, 1], vec![2, 2], vec![2, 1, 1]] {
            let topo = Topology::new(gpus).unwrap();
            let tag = 0x3000_0000_0000_0000u64;
            let cols = 3usize;
            let nnz = |rank: usize| rank + 1;
            let measured = run_all(topo.clone(), |ep, ranks| {
                let r = ep.rank();
                let local = IndexedSlices::new(
                    (0..nnz(r)).collect(),
                    Tensor::full([nnz(r), cols], r as f32),
                    16,
                )
                .unwrap();
                allgatherv_slices(ep, ranks, tag, local).unwrap();
            });
            let ledger = StaticLedger::new(topo.clone());
            let ranks: Vec<usize> = (0..topo.num_workers()).collect();
            // IndexedSlices payload bytes: 4 per value + 8 per index.
            let contrib: Vec<u64> = ranks
                .iter()
                .map(|&r| (4 * nnz(r) * cols + 8 * nnz(r)) as u64)
                .collect();
            replay_allgatherv(&ledger, &ranks, tag, &contrib).unwrap();
            assert_eq!(
                ledger.class_snapshot(TrafficClass::Mpi),
                measured.class_snapshot(TrafficClass::Mpi),
                "gpus={:?}",
                topo.gpus_per_machine()
            );
        }
    }

    #[test]
    fn reduce_and_gather_replays_match_execution_exactly() {
        let topo = Topology::new(vec![2, 2]).unwrap();
        let tag = 0x2000_0000_0000_0000u64;
        let len = 6usize;
        let measured = run_all(topo.clone(), |ep, ranks| {
            // Machine-local reductions to each machine's first rank, the
            // shape local aggregation uses.
            let machine_ranks: Vec<usize> = if ep.rank() < 2 {
                vec![0, 1]
            } else {
                vec![2, 3]
            };
            let root = machine_ranks[0];
            if ranks.contains(&ep.rank()) {
                reduce_to(ep, &machine_ranks, tag, root, vec![0.0; len]).unwrap();
                let slices =
                    IndexedSlices::new(vec![ep.rank()], Tensor::full([1, 2], 1.0), 8).unwrap();
                gather_slices_to(ep, &machine_ranks, tag + 1, root, slices).unwrap();
            }
        });
        let ledger = StaticLedger::new(topo);
        for machine_ranks in [[0usize, 1], [2, 3]] {
            let root = machine_ranks[0];
            replay_reduce_to(&ledger, &machine_ranks, tag, root, &[4 * len as u64; 2]).unwrap();
            // Each non-root contributes one [1, 2] slice: 8 value bytes
            // + 8 index bytes.
            replay_reduce_to(&ledger, &machine_ranks, tag + 1, root, &[16; 2]).unwrap();
        }
        assert_eq!(
            ledger.class_snapshot(TrafficClass::LocalAgg),
            measured.class_snapshot(TrafficClass::LocalAgg)
        );
    }

    #[test]
    fn broadcast_replay_matches_execution_exactly() {
        let topo = Topology::new(vec![1, 2]).unwrap();
        let tag = 0u64;
        let measured = run_all(topo.clone(), |ep, ranks| {
            let value = (ep.rank() == 0).then(|| Tensor::full([5], 1.0));
            crate::collectives::broadcast(ep, ranks, tag, 0, value).unwrap();
        });
        let ledger = StaticLedger::new(topo.clone());
        let ranks: Vec<usize> = (0..topo.num_workers()).collect();
        replay_broadcast(&ledger, &ranks, tag, 0, 20).unwrap();
        assert_eq!(
            ledger.class_snapshot(TrafficClass::Default),
            measured.class_snapshot(TrafficClass::Default)
        );
    }

    #[test]
    fn single_rank_replays_are_silent() {
        let topo = Topology::new(vec![1]).unwrap();
        let ledger = StaticLedger::new(topo);
        replay_ring_allreduce_wire(&ledger, &[0], 1, &[100], WireFormat::F32).unwrap();
        replay_allgatherv(&ledger, &[0], 1, &[400]).unwrap();
        assert_eq!(ledger.snapshot().inter_messages, 0);
        assert_eq!(ledger.snapshot().intra_messages, 0);
    }

    #[test]
    fn payload_byte_sizes_are_what_replay_assumes() {
        // The replay hardcodes the wire sizes of the payload kinds it
        // models; pin them against the transport's byte_size.
        assert_eq!(Payload::Floats(Arc::new(vec![0.0; 7])).byte_size(), 28);
        let slices = IndexedSlices::new(vec![0, 2], Tensor::zeros([2, 3]), 4).unwrap();
        assert_eq!(
            Payload::Slices(Arc::new(slices)).byte_size(),
            2 * 3 * 4 + 2 * 8
        );
        assert_eq!(
            Payload::Tensor(Arc::new(Tensor::zeros([5]))).byte_size(),
            20
        );
        assert_eq!(Payload::Ids(vec![1, 2, 3]).byte_size(), 24);
        assert_eq!(Payload::Control(0).byte_size(), 8);
        assert_eq!(
            Payload::Packet {
                header: 0,
                body: Box::new(Payload::Control(0)),
            }
            .byte_size(),
            16
        );
    }
}
