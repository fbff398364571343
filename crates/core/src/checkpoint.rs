//! Model checkpointing.
//!
//! The paper's `ParallaxConfig` includes "a file path to save trained
//! variables". A checkpoint is a tensor container
//! ([`crate::snapshot`]) stamped with the number of completed
//! iterations: the variables in section [`VAR`], keyed by name, and
//! each optimizer slot kind (`velocity`, `accum`) as a section of its
//! own, keyed by variable name. Restores verify the data CRC, so a
//! flipped weight bit is rejected.

use std::collections::BTreeMap;
use std::path::Path;

use parallax_dataflow::{Graph, VarStore};
use parallax_tensor::Tensor;

use crate::snapshot::{var_writer, Snapshot, VAR};
use crate::{CoreError, Result};

/// Optimizer slot variables keyed by `(variable name, slot name)`.
///
/// A `BTreeMap` so serialization order — and therefore the bytes on
/// disk — is deterministic regardless of how the map was assembled.
pub type SlotMap = BTreeMap<(String, String), Tensor>;

/// A checkpoint a recovery attempt resumes from: the variable values
/// plus any optimizer slot state (velocity/accum) the save captured, so
/// Momentum/Adagrad resume bitwise, not just SGD.
///
/// Public because multi-process roles (`repro dist`) load the chief's
/// checkpoint themselves at respawn ([`crate::Runner::resume_point`])
/// and hand it to [`crate::Runner::run_role`], as the thread fleet does
/// for every thread.
#[derive(Debug, Clone)]
pub struct RestorePoint {
    /// The checkpointed variable values.
    pub store: VarStore,
    /// Checkpointed optimizer slot state, keyed `(variable name, slot
    /// kind)`.
    pub slots: SlotMap,
}

impl RestorePoint {
    /// Saves every variable of `store` (named per `graph`) and every
    /// slot to `path` as a checkpoint taken after `step` completed
    /// iterations, atomically (temp file + rename).
    pub fn save(&self, graph: &Graph, step: u64, path: &Path) -> Result<()> {
        let mut writer = var_writer(graph, &self.store)?;
        for ((var, kind), value) in &self.slots {
            writer.tensor(kind, var, value);
        }
        writer.write(step, path)
    }

    /// Loads the checkpoint at `path` into a [`VarStore`] laid out for
    /// `graph`, returning the step it was saved at (the iteration
    /// training resumes from).
    ///
    /// Variables are matched *by name*, so the checkpoint survives
    /// graph edits that only reorder declarations; corruption, shape
    /// mismatches and missing variables are errors. Slot entries naming
    /// a variable the graph no longer has are silently dropped — the
    /// model still loads, the stale state does not.
    pub fn load(graph: &Graph, path: &Path) -> Result<(RestorePoint, u64)> {
        let snap = Snapshot::open_verified(path)?;
        let mut values = Vec::with_capacity(graph.variables().len());
        for var in graph.var_ids() {
            let def = graph.var_def(var)?;
            let tensor = snap.tensor(VAR, &def.name)?;
            if tensor.shape() != &def.shape {
                return Err(CoreError::Config(format!(
                    "checkpoint variable '{}' has shape {}, graph expects {}",
                    def.name,
                    tensor.shape(),
                    def.shape
                )));
            }
            values.push(tensor);
        }
        let mut slots = SlotMap::new();
        for (i, entry) in snap.entries().iter().enumerate() {
            if entry.section != VAR && graph.find_variable(&entry.name).is_some() {
                let key = (entry.name.clone(), entry.section.clone());
                slots.insert(key, snap.view_at(i)?.to_tensor());
            }
        }
        let store = VarStore::from_values(values);
        Ok((RestorePoint { store, slots }, snap.step()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_dataflow::graph::Init;
    use parallax_dataflow::VariableDef;
    use parallax_tensor::DetRng;

    fn graph() -> Graph {
        let mut g = Graph::new();
        g.variable(VariableDef::new("emb", [10, 4], Init::Normal(0.1)))
            .unwrap();
        g.variable(VariableDef::new("w", [4, 3], Init::Glorot))
            .unwrap();
        g.variable(VariableDef::new("b", [3], Init::Zeros)).unwrap();
        g
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("parallax_ckpt_test_{}_{name}", std::process::id()));
        p
    }

    fn point(store: VarStore) -> RestorePoint {
        RestorePoint {
            store,
            slots: SlotMap::new(),
        }
    }

    #[test]
    fn optimizer_slots_and_step_roundtrip() {
        let g = graph();
        let mut saved = point(VarStore::init(&g, &mut DetRng::seed(3)));
        saved.slots.insert(
            ("w".into(), "velocity".into()),
            Tensor::new([4, 3], (0..12).map(|i| i as f32 * 0.25).collect::<Vec<_>>()).unwrap(),
        );
        saved.slots.insert(
            ("emb".into(), "velocity".into()),
            Tensor::new([10, 4], vec![0.5; 40]).unwrap(),
        );
        let path = temp_path("slots");
        saved.save(&g, 9, &path).unwrap();
        let (loaded, step) = RestorePoint::load(&g, &path).unwrap();
        assert_eq!(step, 9);
        assert_eq!(saved.store.max_divergence(&loaded.store), 0.0);
        assert_eq!(loaded.slots, saved.slots);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn slot_for_removed_variable_is_dropped_not_fatal() {
        let g = graph();
        let mut saved = point(VarStore::init(&g, &mut DetRng::seed(3)));
        saved.slots.insert(
            ("ghost".into(), "accum".into()),
            Tensor::new([2], vec![1.0, 2.0]).unwrap(),
        );
        let path = temp_path("ghost_slot");
        saved.save(&g, 0, &path).unwrap();
        let (loaded, _) = RestorePoint::load(&g, &path).unwrap();
        assert!(
            loaded.slots.is_empty(),
            "stale slot must be dropped, got {:?}",
            loaded.slots
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_matches_by_name_not_order() {
        let g = graph();
        let store = VarStore::init(&g, &mut DetRng::seed(3));
        let path = temp_path("reorder");
        point(store.clone()).save(&g, 0, &path).unwrap();
        // A graph with the same variables declared in a different order.
        let mut g2 = Graph::new();
        g2.variable(VariableDef::new("b", [3], Init::Zeros))
            .unwrap();
        g2.variable(VariableDef::new("emb", [10, 4], Init::Normal(0.1)))
            .unwrap();
        g2.variable(VariableDef::new("w", [4, 3], Init::Glorot))
            .unwrap();
        let (loaded, _) = RestorePoint::load(&g2, &path).unwrap();
        let b = g2.find_variable("b").unwrap();
        assert_eq!(loaded.store.get(b).unwrap().shape().dims(), &[3]);
        let emb2 = loaded.store.get(g2.find_variable("emb").unwrap()).unwrap();
        let emb1 = store.get(g.find_variable("emb").unwrap()).unwrap();
        assert_eq!(emb2, emb1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_corruption_and_mismatches() {
        let g = graph();
        let store = VarStore::init(&g, &mut DetRng::seed(3));
        let path = temp_path("corrupt");
        point(store).save(&g, 0, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Truncated file.
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(RestorePoint::load(&g, &path).is_err());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(RestorePoint::load(&g, &path).is_err());
        // A single flipped weight bit: caught by the data CRC.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 2;
        flipped[last] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        match RestorePoint::load(&g, &path) {
            Err(CoreError::Config(msg)) => {
                assert!(msg.contains("CRC"), "expected CRC error, got: {msg}")
            }
            other => panic!("bit flip must fail the CRC, got {other:?}"),
        }
        // Shape mismatch against a different graph.
        std::fs::write(&path, &bytes).unwrap();
        let mut g3 = Graph::new();
        g3.variable(VariableDef::new("emb", [10, 5], Init::Zeros))
            .unwrap();
        g3.variable(VariableDef::new("w", [4, 3], Init::Glorot))
            .unwrap();
        g3.variable(VariableDef::new("b", [3], Init::Zeros))
            .unwrap();
        assert!(RestorePoint::load(&g3, &path).is_err());
        // Missing variable.
        let mut g4 = graph();
        g4.variable(VariableDef::new("extra", [2], Init::Zeros))
            .unwrap();
        match RestorePoint::load(&g4, &path) {
            Err(CoreError::Config(msg)) => assert!(msg.contains("'extra'"), "got: {msg}"),
            other => panic!("missing variable must fail, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn partitioned_sparse_var_roundtrips_across_partition_counts() {
        use parallax_ps::plan::RowPartition;
        // Save a sparse (row-partitioned) variable's stitched value
        // under P = 3 partitions, restore and re-shard under P' = 2:
        // the stitch path must make partitioning invisible to the file.
        let mut g = Graph::new();
        g.variable(VariableDef::new("emb", [10, 4], Init::Normal(0.5)))
            .unwrap();
        let store = VarStore::init(&g, &mut DetRng::seed(11));
        let var = g.find_variable("emb").unwrap();
        let full = store.get(var).unwrap().clone();

        // Shard under P = 3 (as PS servers would hold it), stitch, save.
        let p3 = RowPartition::even(10, 3).unwrap();
        let shards3: Vec<Tensor> = (0..3)
            .map(|p| {
                let r = p3.range(p);
                full.slice_rows(r.start, r.end).unwrap()
            })
            .collect();
        let stitched = p3.stitch(&shards3).unwrap();
        assert_eq!(stitched, full);
        let path = temp_path("repartition");
        point(VarStore::from_values(vec![stitched]))
            .save(&g, 0, &path)
            .unwrap();

        // Restore and re-shard under P' = 2.
        let (loaded, _) = RestorePoint::load(&g, &path).unwrap();
        let restored = loaded.store.get(var).unwrap();
        let p2 = RowPartition::even(10, 2).unwrap();
        let shards2: Vec<Tensor> = (0..2)
            .map(|p| {
                let r = p2.range(p);
                restored.slice_rows(r.start, r.end).unwrap()
            })
            .collect();
        let rebuilt = p2.stitch(&shards2).unwrap();
        assert_eq!(rebuilt, full, "P=3 save -> P'=2 restore must be exact");
        std::fs::remove_file(&path).ok();
    }
}
