//! The serving engine: bounded admission, request batching, snapshot
//! refresh, and batched forward passes over zero-copy snapshot views.
//!
//! One engine owns a [`Bounded`] request queue and a pool of worker
//! threads. Each worker repeatedly drains up to one model batch from
//! the queue, runs a single [`Session::forward_into`] over the shared
//! compute pool, and answers every request in the batch with its own
//! logits row plus the snapshot step those logits were computed from.
//!
//! **Determinism invariant.** Every output row of a batched forward
//! pass depends only on that row's own request and the snapshot —
//! padding rows and batch-mates cannot perturb it (the kernels are
//! per-output-row independent and bitwise stable at any
//! `compute_threads`). The same request therefore yields the same
//! bits regardless of arrival order, batch packing, or worker count —
//! asserted by the root `serving_props` property test.
//!
//! **Staleness bound.** In online mode (`refresh`), workers probe the
//! snapshot path with the cheap [`Snapshot::peek_step`] at every batch
//! boundary and atomically swap in a newer artifact before feeding the
//! batch. With the trainer publishing every `k` iterations, a response
//! formed after training step `t` carries `step >= k * floor(t / k) >=
//! t - (k - 1)`, i.e. `t - step <= k`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crossbeam::channel;
use parallax_core::snapshot::{Snapshot, VAR};
use parallax_dataflow::{
    Activations, Feed, Graph, NodeId, Session, VarId, VarProvider, VariableDef,
};
use parallax_tensor::{IndexedSlices, Tensor};

use crate::error::ServeError;
use crate::queue::{Bounded, PushError};
use crate::Result;

/// A model adapter the engine can serve: the inference graph (usually a
/// training graph passed through `Graph::inference_slice`), plus the
/// request-to-feed and logits-to-response mappings.
pub trait ServeModel: Send + Sync + 'static {
    /// One inference request.
    type Request: Send + 'static;
    /// One request's answer (e.g. a logits row).
    type Output: Send + 'static;

    /// The inference graph. Variable names must match the training
    /// graph's (snapshots are applied by name).
    fn graph(&self) -> &Graph;

    /// The node whose activation answers requests (the logits).
    fn output(&self) -> NodeId;

    /// The graph's fixed batch size; the batcher never drains more
    /// requests than this per forward pass.
    fn batch_size(&self) -> usize;

    /// Rejects malformed requests before they are enqueued.
    fn validate(&self, req: &Self::Request) -> Result<()>;

    /// Builds the feed for a batch of `1..=batch_size()` requests,
    /// padding to the fixed batch size. Padding must not influence the
    /// real rows (the determinism invariant).
    fn build_feed(&self, batch: &[Self::Request]) -> Result<Feed>;

    /// Extracts one output per request from the batched activation of
    /// [`ServeModel::output`] (padding rows are dropped here).
    fn extract(&self, batch: &[Self::Request], output: &Tensor) -> Result<Vec<Self::Output>>;
}

/// A served answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Response<T> {
    /// The model output for this request.
    pub output: T,
    /// Training step of the snapshot the output was computed from —
    /// the value the staleness bound is asserted on.
    pub step: u64,
    /// Queue-to-response latency as observed by the worker.
    pub latency_ns: u64,
}

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Request-queue capacity; `try_submit` sheds load beyond it.
    pub queue_capacity: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Online mode: probe the snapshot path at batch boundaries and
    /// swap in newer artifacts while training republishes.
    pub refresh: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            workers: 1,
            refresh: false,
        }
    }
}

/// A validated, opened snapshot plus the `VarId -> entry` table for one
/// graph, checked once at load so the per-batch provider does no name
/// lookups.
struct Loaded {
    snap: Snapshot,
    /// Entry index per `VarId` of the serving graph.
    var_map: Vec<usize>,
}

impl Loaded {
    fn load(path: &std::path::Path, graph: &Graph) -> Result<Loaded> {
        let snap = Snapshot::open(path)?;
        let mut var_map = Vec::with_capacity(graph.variables().len());
        for var in graph.var_ids() {
            let def = graph.var_def(var)?;
            let idx = snap.find(VAR, &def.name).ok_or_else(|| {
                ServeError::Core(parallax_core::CoreError::Config(format!(
                    "snapshot at step {} has no variable '{}'",
                    snap.step(),
                    def.name
                )))
            })?;
            let entry = &snap.entries()[idx];
            if entry.shape != def.shape {
                return Err(ServeError::Core(parallax_core::CoreError::Config(format!(
                    "snapshot variable '{}' has shape {}, serving graph expects {}",
                    def.name, entry.shape, def.shape
                ))));
            }
            var_map.push(idx);
        }
        Ok(Loaded { snap, var_map })
    }
}

/// [`VarProvider`] over a loaded snapshot: dense reads materialize the
/// mapped view once per fetch; sparse reads coalesce duplicate row ids
/// (via [`IndexedSlices::coalesce`], the same dedup the training path
/// uses for sparse gradients), gather each distinct row from the
/// mapped pages once, then expand — densification before the hot loop.
struct SnapshotProvider<'a> {
    loaded: &'a Loaded,
}

impl SnapshotProvider<'_> {
    fn entry_of(&self, var: VarId) -> parallax_dataflow::Result<usize> {
        self.loaded
            .var_map
            .get(var.index())
            .copied()
            .ok_or_else(|| parallax_dataflow::DataflowError::UnknownVariable(var.index()))
    }
}

fn provider_err(e: parallax_core::CoreError) -> parallax_dataflow::DataflowError {
    parallax_dataflow::DataflowError::InvalidGraph(format!("snapshot read failed: {e}"))
}

impl VarProvider for SnapshotProvider<'_> {
    fn fetch_dense(&mut self, var: VarId, _def: &VariableDef) -> parallax_dataflow::Result<Tensor> {
        let idx = self.entry_of(var)?;
        let view = self.loaded.snap.view_at(idx).map_err(provider_err)?;
        Ok(view.to_tensor())
    }

    fn fetch_sparse_rows(
        &mut self,
        var: VarId,
        def: &VariableDef,
        ids: &[usize],
    ) -> parallax_dataflow::Result<Tensor> {
        let idx = self.entry_of(var)?;
        let view = self.loaded.snap.view_at(idx).map_err(provider_err)?;
        let (rows, cols) = def.shape.as_matrix()?;
        if ids.is_empty() {
            return Ok(Tensor::zeros([0, cols]));
        }
        // Coalesce duplicate lookups to one mapped-page read per
        // distinct row (batched requests share hot embedding rows).
        let distinct = IndexedSlices::new(ids.to_vec(), Tensor::zeros([ids.len(), 1]), rows)?
            .coalesce()
            .indices()
            .to_vec();
        let gathered = view.gather_rows(&distinct)?;
        let mut data = Vec::with_capacity(ids.len() * cols);
        for &id in ids {
            let slot = distinct.binary_search(&id).map_err(|_| {
                parallax_tensor::TensorError::IndexOutOfBounds {
                    index: id,
                    bound: rows,
                }
            })?;
            data.extend_from_slice(gathered.row(slot)?);
        }
        Ok(Tensor::new([ids.len(), cols], data)?)
    }
}

struct PendingRequest<M: ServeModel> {
    req: M::Request,
    enqueued: Instant,
    tx: channel::Sender<Response<M::Output>>,
}

/// A submitted request's claim ticket; [`Ticket::wait`] blocks for the
/// response.
pub struct Ticket<T> {
    rx: channel::Receiver<Response<T>>,
}

impl<T> Ticket<T> {
    /// Blocks until the batch containing this request completes.
    /// Fails with [`ServeError::Canceled`] when the batch errored.
    pub fn wait(self) -> Result<Response<T>> {
        self.rx.recv().map_err(|_| ServeError::Canceled)
    }
}

struct Shared<M: ServeModel> {
    model: M,
    path: PathBuf,
    refresh: bool,
    queue: Bounded<PendingRequest<M>>,
    loaded: Mutex<Arc<Loaded>>,
    served: AtomicU64,
}

impl<M: ServeModel> Shared<M> {
    fn current(&self) -> Arc<Loaded> {
        Arc::clone(&self.loaded.lock().expect("snapshot lock poisoned"))
    }

    /// Online-mode refresh at a batch boundary: a cheap 24-byte peek
    /// decides whether to pay a full validated reload. Failures (e.g. a
    /// publish in flight) keep the current snapshot — the engine never
    /// serves from a partially validated artifact.
    fn refresh_if_newer(&self) -> Arc<Loaded> {
        let current = self.current();
        if !self.refresh {
            return current;
        }
        match Snapshot::peek_step(&self.path) {
            Ok(step) if step > current.snap.step() => {
                match Loaded::load(&self.path, self.model.graph()) {
                    Ok(newer) => {
                        let mut guard = self.loaded.lock().expect("snapshot lock poisoned");
                        if newer.snap.step() > guard.snap.step() {
                            *guard = Arc::new(newer);
                            parallax_trace::counter("serve.snapshot_refresh").add(1);
                        }
                        Arc::clone(&guard)
                    }
                    Err(_) => current,
                }
            }
            _ => current,
        }
    }
}

/// The serving engine: owns the queue and worker pool. Dropping (or
/// [`ServeEngine::shutdown`]) closes the queue, drains in-flight
/// requests, and joins the workers.
pub struct ServeEngine<M: ServeModel> {
    shared: Arc<Shared<M>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl<M: ServeModel> ServeEngine<M> {
    /// Loads and validates the snapshot at `snapshot_path`, then starts
    /// the worker pool.
    pub fn start(model: M, snapshot_path: PathBuf, config: ServeConfig) -> Result<Self> {
        let loaded = Loaded::load(&snapshot_path, model.graph())?;
        let shared = Arc::new(Shared {
            model,
            path: snapshot_path,
            refresh: config.refresh,
            queue: Bounded::new(config.queue_capacity),
            loaded: Mutex::new(Arc::new(loaded)),
            served: AtomicU64::new(0),
        });
        let workers = (0..config.workers.max(1))
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("parallax-serve-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn serve worker")
            })
            .collect();
        Ok(ServeEngine { shared, workers })
    }

    /// Validates and enqueues a request, blocking while the queue is at
    /// capacity. Returns a [`Ticket`] for the response.
    pub fn submit(&self, req: M::Request) -> Result<Ticket<M::Output>> {
        self.shared.model.validate(&req)?;
        let (tx, rx) = channel::unbounded();
        let pending = PendingRequest {
            req,
            enqueued: Instant::now(),
            tx,
        };
        self.shared
            .queue
            .push(pending)
            .map_err(|_| ServeError::Closed)?;
        Ok(Ticket { rx })
    }

    /// Like [`ServeEngine::submit`] but sheds load instead of blocking
    /// when the queue is full.
    pub fn try_submit(&self, req: M::Request) -> Result<Ticket<M::Output>> {
        self.shared.model.validate(&req)?;
        let (tx, rx) = channel::unbounded();
        let pending = PendingRequest {
            req,
            enqueued: Instant::now(),
            tx,
        };
        match self.shared.queue.try_push(pending) {
            Ok(()) => Ok(Ticket { rx }),
            Err(PushError::Full(_)) => Err(ServeError::QueueFull),
            Err(PushError::Closed(_)) => Err(ServeError::Closed),
        }
    }

    /// Submits and blocks for the answer, with a per-request span on
    /// the trace timeline.
    pub fn call(&self, req: M::Request) -> Result<Response<M::Output>> {
        let _span = parallax_trace::span(parallax_trace::SpanCat::Phase, "serve.request");
        self.submit(req)?.wait()
    }

    /// Step of the snapshot currently being served.
    pub fn snapshot_step(&self) -> u64 {
        self.shared.current().snap.step()
    }

    /// Requests answered so far.
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }

    /// The model adapter.
    pub fn model(&self) -> &M {
        &self.shared.model
    }

    /// Closes the queue, serves out everything already admitted, and
    /// joins the workers.
    pub fn shutdown(&mut self) {
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<M: ServeModel> Drop for ServeEngine<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop<M: ServeModel>(shared: &Shared<M>) {
    let session = Session::new(shared.model.graph());
    let mut acts = Activations::new();
    while let Some(batch) = shared.queue.pop_batch(shared.model.batch_size()) {
        let _span = parallax_trace::span(parallax_trace::SpanCat::Phase, "serve.batch");
        parallax_trace::histogram("serve.batch_size").record(batch.len() as u64);
        let loaded = shared.refresh_if_newer();
        let n = batch.len() as u64;
        match run_batch(shared, &session, &mut acts, &loaded, batch) {
            Ok(()) => {}
            Err(_) => {
                // The batch's senders are gone; every waiter observes
                // `Canceled`. The worker keeps serving later batches.
                parallax_trace::counter("serve.errors").add(n);
            }
        }
    }
}

fn run_batch<M: ServeModel>(
    shared: &Shared<M>,
    session: &Session<'_>,
    acts: &mut Activations,
    loaded: &Loaded,
    batch: Vec<PendingRequest<M>>,
) -> Result<()> {
    let mut requests = Vec::with_capacity(batch.len());
    let mut waiters = Vec::with_capacity(batch.len());
    for pending in batch {
        requests.push(pending.req);
        waiters.push((pending.tx, pending.enqueued));
    }
    let feed = shared.model.build_feed(&requests)?;
    let mut provider = SnapshotProvider { loaded };
    session.forward_into(&feed, &mut provider, acts)?;
    let output = acts.tensor(shared.model.output())?;
    let outputs = shared.model.extract(&requests, output)?;
    debug_assert_eq!(outputs.len(), waiters.len());
    let step = loaded.snap.step();
    // Count before replying: a caller observing its response must also
    // observe the served() increment for its request.
    shared
        .served
        .fetch_add(outputs.len() as u64, Ordering::Relaxed);
    parallax_trace::counter("serve.requests").add(outputs.len() as u64);
    for (output, (tx, enqueued)) in outputs.into_iter().zip(waiters) {
        let latency_ns = enqueued.elapsed().as_nanos() as u64;
        parallax_trace::histogram("serve.latency_ns").record(latency_ns);
        // A departed caller (dropped ticket) is not an engine error;
        // the send's only failure mode is that receiver being gone.
        let _ = tx.send(Response {
            output,
            step,
            latency_ns,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_dataflow::graph::{Init, Op, PhKind};
    use parallax_dataflow::{VarStore, VariableDef};
    use parallax_tensor::DetRng;

    /// A toy adapter: requests are row ids, answers are rows of an
    /// `[8, 2]` table looked up through `Gather` (so the sparse
    /// provider path is exercised).
    struct RowLookup {
        graph: Graph,
        output: NodeId,
    }

    impl RowLookup {
        fn new() -> RowLookup {
            let mut graph = Graph::new();
            let table = graph
                .variable(VariableDef::new("table", [8, 2], Init::Normal(1.0)))
                .unwrap();
            let ids = graph.placeholder("ids", PhKind::Ids).unwrap();
            let output = graph.add(Op::Gather { table, ids }).unwrap();
            RowLookup { graph, output }
        }
    }

    impl ServeModel for RowLookup {
        type Request = usize;
        type Output = Vec<f32>;

        fn graph(&self) -> &Graph {
            &self.graph
        }
        fn output(&self) -> NodeId {
            self.output
        }
        fn batch_size(&self) -> usize {
            3
        }
        fn validate(&self, req: &usize) -> Result<()> {
            if *req >= 8 {
                return Err(ServeError::BadRequest(format!("row {req} out of range")));
            }
            Ok(())
        }
        fn build_feed(&self, batch: &[usize]) -> Result<Feed> {
            let mut ids: Vec<usize> = batch.to_vec();
            ids.resize(self.batch_size(), 0);
            Ok(Feed::new().with("ids", ids))
        }
        fn extract(&self, batch: &[usize], output: &Tensor) -> Result<Vec<Vec<f32>>> {
            (0..batch.len())
                .map(|b| Ok(output.row(b)?.to_vec()))
                .collect()
        }
    }

    fn snapshot_of(graph: &Graph, step: u64, name: &str) -> (std::path::PathBuf, VarStore) {
        let store = VarStore::init(graph, &mut DetRng::seed(9));
        let mut path = std::env::temp_dir();
        path.push(format!("parallax_serve_test_{}_{name}", std::process::id()));
        parallax_core::snapshot::save(graph, &store, step, &path).unwrap();
        (path, store)
    }

    #[test]
    fn serves_rows_bitwise_from_the_snapshot() {
        let model = RowLookup::new();
        let (path, store) = snapshot_of(&model.graph, 5, "rows");
        let table = model.graph.find_variable("table").unwrap();
        let expect = store.get(table).unwrap().clone();
        let mut engine = ServeEngine::start(model, path.clone(), ServeConfig::default()).unwrap();
        assert_eq!(engine.snapshot_step(), 5);
        for id in [3usize, 0, 7, 3] {
            let resp = engine.call(id).unwrap();
            assert_eq!(resp.step, 5);
            assert_eq!(resp.output, expect.row(id).unwrap());
        }
        assert_eq!(engine.served(), 4);
        engine.shutdown();
        assert!(matches!(engine.call(1), Err(ServeError::Closed)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validation_rejects_before_enqueue() {
        let model = RowLookup::new();
        let (path, _) = snapshot_of(&model.graph, 1, "validate");
        let engine = ServeEngine::start(model, path.clone(), ServeConfig::default()).unwrap();
        assert!(matches!(engine.call(99), Err(ServeError::BadRequest(_))));
        assert_eq!(engine.served(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tickets_resolve_across_batches() {
        let model = RowLookup::new();
        let (path, store) = snapshot_of(&model.graph, 2, "tickets");
        let table = model.graph.find_variable("table").unwrap();
        let expect = store.get(table).unwrap().clone();
        let engine = ServeEngine::start(
            model,
            path.clone(),
            ServeConfig {
                queue_capacity: 16,
                workers: 2,
                refresh: false,
            },
        )
        .unwrap();
        // More requests than one batch holds; all must resolve.
        let tickets: Vec<_> = (0..8).map(|id| engine.submit(id).unwrap()).collect();
        for (id, ticket) in tickets.into_iter().enumerate() {
            let resp = ticket.wait().unwrap();
            assert_eq!(resp.output, expect.row(id).unwrap());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_snapshot_variable_fails_start() {
        let model = RowLookup::new();
        // A snapshot of a *different* graph lacks "table".
        let mut other = Graph::new();
        other
            .variable(VariableDef::new("unrelated", [2, 2], Init::Zeros))
            .unwrap();
        let (path, _) = snapshot_of(&other, 1, "missing");
        assert!(ServeEngine::start(model, path.clone(), ServeConfig::default()).is_err());
        std::fs::remove_file(&path).ok();
    }
}
