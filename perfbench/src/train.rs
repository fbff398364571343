//! Training workloads: `lm-sparse`, `resnet-dense` and `lm-sparse-tcp`.
//!
//! Every workload trains on 2 machines x 1 GPU with one compute thread
//! per worker. A run repeats fixed-length *chunks* of [`CHUNK_STEPS`]
//! steps from the same seeded initial state and the same generated
//! feeds, so every chunk must reproduce the reference chunk's losses,
//! final weights and per-class traffic bit for bit. Step wall time is
//! the gap between consecutive `feed_fn` calls of worker 0.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parallax_comm::{
    Endpoint, Envelope, Payload, PeerHealth, RecvError, TrafficClass, TrafficStats, Transport,
};
use parallax_core::runner::TrafficReport;
use parallax_core::sparsity::estimate_profile;
use parallax_core::{
    get_runner, mean_worker_losses, predict_iteration_traffic, ParallaxConfig, RoleAssignment,
    RoleOutput, Runner,
};
use parallax_dataflow::{Feed, Graph, NodeId, VarStore};
use parallax_fault::{FaultInjector, FaultPlan};
use parallax_models::data::{ImageDataset, ZipfCorpus};
use parallax_models::lm::{LmConfig, LmModel};
use parallax_models::resnet::{self, ResNetConfig};
use parallax_net::{free_local_ports, TcpConfig, TcpTransport};
use parallax_tensor::{DetRng, Tensor};
use parallax_trace::{SpanCat, TraceConfig};

use crate::layers::{StepRows, FEED_SPAN, SEND_SPAN};
use crate::stats::{median, quantile};
use crate::{affinity, checks};
use crate::{mix, Outcome};

/// Machines in every training topology (1 GPU each).
pub const MACHINES: usize = 2;
/// Steps per chunk.
pub const CHUNK_STEPS: usize = 200;
/// Leading steps of each chunk left out of timing (thread start-up).
const WARM_STEPS: usize = 10;
/// ResNet images per worker per step.
const RESNET_BATCH: usize = 32;
/// Per-thread span ring while tracing: a traced chunk records a few
/// hundred spans per worker step and is drained after every chunk.
const TRACE_RING: usize = 1 << 19;

/// The model a training workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// LM `small`: sparse embeddings on the PS, dense LSTM on AllReduce.
    Lm,
    /// ResNet `small`: all dense, pure ring AllReduce.
    ResNet,
}

/// How roles talk to each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// `Runner::run`: one thread per role over in-process channels.
    InProcess,
    /// One thread per role over a loopback `parallax-net` TCP mesh.
    Tcp,
}

/// A configured job plus its generated inputs.
struct Job {
    runner: Runner,
    /// The single-GPU graph and loss the runner was built from.
    graph: Graph,
    loss: NodeId,
    /// Feeds indexed `[step][worker]`.
    feeds: Vec<Vec<Feed>>,
    /// Samples per step over all workers.
    global_batch: usize,
}

/// Model build, sparsity profile and `get_runner`: the timed set-up.
fn build_runner(model: Model, profile_feed: &Feed) -> Result<(Runner, Graph, NodeId), String> {
    let (graph, loss) = match model {
        Model::Lm => {
            let m = LmModel::build(LmConfig::small()).map_err(|e| e.to_string())?;
            (m.built.graph, m.built.loss)
        }
        Model::ResNet => {
            let m = resnet::build(ResNetConfig::small()).map_err(|e| e.to_string())?;
            (m.graph, m.loss)
        }
    };
    let profile = estimate_profile(&graph, std::slice::from_ref(profile_feed), 1)
        .map_err(|e| e.to_string())?;
    let config = ParallaxConfig {
        compute_threads: Some(1),
        ..ParallaxConfig::default()
    };
    let runner = get_runner(graph.clone(), loss, vec![1; MACHINES], config, profile)
        .map_err(|e| e.to_string())?;
    Ok((runner, graph, loss))
}

/// Generates every input from `seed`: a profiling feed and one feed per
/// worker per chunk step. LM workers cut their shard out of one Zipf
/// global batch per step (vocabulary 800, exponent 1.0); ResNet workers
/// each draw their own Gaussian images.
fn generate_inputs(model: Model, seed: u64) -> Result<(Feed, Vec<Vec<Feed>>, usize), String> {
    match model {
        Model::Lm => {
            let m = LmModel::build(LmConfig::small()).map_err(|e| e.to_string())?;
            let corpus = ZipfCorpus::new(m.config.vocab, 1.0);
            let profile = m.feed(&corpus, &mut DetRng::seed(mix(seed, 1, 0)));
            let feeds = (0..CHUNK_STEPS)
                .map(|i| {
                    (0..MACHINES)
                        .map(|w| {
                            let mut rng = DetRng::seed(mix(seed, 2, i as u64));
                            m.sharded_feed(&corpus, MACHINES, w, &mut rng)
                        })
                        .collect()
                })
                .collect();
            Ok((profile, feeds, m.config.batch * MACHINES))
        }
        Model::ResNet => {
            let cfg = ResNetConfig::small();
            let data = ImageDataset::new(cfg.features, cfg.classes);
            let profile = data.feed(RESNET_BATCH, &mut DetRng::seed(mix(seed, 1, 0)));
            let feeds = (0..CHUNK_STEPS)
                .map(|i| {
                    (0..MACHINES)
                        .map(|w| {
                            let stream = (i * MACHINES + w) as u64;
                            data.feed(RESNET_BATCH, &mut DetRng::seed(mix(seed, 3, stream)))
                        })
                        .collect()
                })
                .collect();
            Ok((profile, feeds, RESNET_BATCH * MACHINES))
        }
    }
}

/// Worker 0's `feed_fn` entry times for one chunk, ns since `base`.
struct Stamps {
    base: Instant,
    at: Vec<AtomicU64>,
}

impl Stamps {
    fn new() -> Stamps {
        Stamps {
            base: Instant::now(),
            at: (0..CHUNK_STEPS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Gaps between consecutive steps after warm-up, ns.
    fn step_gaps(&self) -> Vec<u64> {
        let t: Vec<u64> = self.at.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        t[WARM_STEPS..].windows(2).map(|w| w[1] - w[0]).collect()
    }
}

impl Job {
    /// The `feed_fn` handed to the runner: places the worker thread on
    /// its core, stamps worker 0's step start and hands out the
    /// pre-generated feed under a `bench.feed` span.
    fn feed(&self, stamps: &Stamps, w: usize, i: usize) -> Feed {
        affinity::pin_slot_once(w);
        if w == 0 {
            stamps.at[i].store(stamps.base.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        let _span = parallax_trace::span(SpanCat::Phase, FEED_SPAN);
        self.feeds[i][w].clone()
    }

    /// The static per-class traffic prediction for one chunk.
    fn predict(&self) -> Result<TrafficReport, String> {
        let r = &self.runner;
        let mut total = TrafficReport::default();
        for feeds in &self.feeds {
            let (p, conservation) = predict_iteration_traffic(
                &self.graph,
                self.loss,
                r.plan(),
                r.topology(),
                r.config(),
                feeds,
            )
            .map_err(|e| e.to_string())?;
            if conservation.has_errors() {
                return Err(format!("byte conservation: {}", conservation.render()));
            }
            total.merge_from(&p);
        }
        Ok(total)
    }
}

/// What one chunk produced.
struct Chunk {
    losses: Vec<f32>,
    weights: HashMap<usize, Tensor>,
    traffic: TrafficReport,
    /// Worker-0 step gaps after warm-up, ns.
    gaps: Vec<u64>,
    /// Slowest rank's mesh connect, ns (socket chunks only).
    connect_ns: u64,
    /// Frames written to sockets (socket chunks only).
    frames: u64,
}

impl Chunk {
    /// Global samples per second over the timed steps.
    fn samples_per_s(&self, global_batch: usize) -> f64 {
        let ns: u64 = self.gaps.iter().sum();
        (self.gaps.len() * global_batch) as f64 / (ns as f64 / 1e9)
    }
}

fn run_in_process(job: &Job) -> Result<Chunk, String> {
    let stamps = Stamps::new();
    let report = job
        .runner
        .run(CHUNK_STEPS, |w, i| job.feed(&stamps, w, i))
        .map_err(|e| e.to_string())?;
    Ok(Chunk {
        losses: report.losses,
        weights: report.final_model,
        traffic: report.traffic,
        gaps: stamps.step_gaps(),
        connect_ns: 0,
        frames: 0,
    })
}

/// A [`Transport`] that counts the frames its inner socket transport
/// writes to other ranks and records a `net.send` span around each.
struct Counted {
    inner: TcpTransport,
    rank: usize,
    frames: Arc<AtomicU64>,
}

impl Transport for Counted {
    fn send(&self, to: usize, tag: u64, payload: Payload) -> parallax_comm::Result<()> {
        if to == self.rank {
            return self.inner.send(to, tag, payload);
        }
        self.frames.fetch_add(1, Ordering::Relaxed);
        let _span = parallax_trace::span(SpanCat::Phase, SEND_SPAN);
        self.inner.send(to, tag, payload)
    }

    fn recv(&mut self, timeout: Duration) -> Result<Envelope, RecvError> {
        self.inner.recv(timeout)
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

fn class_report(traffic: &TrafficStats) -> TrafficReport {
    TrafficReport {
        nccl: traffic.class_snapshot(TrafficClass::Nccl),
        mpi: traffic.class_snapshot(TrafficClass::Mpi),
        ps: traffic.class_snapshot(TrafficClass::Ps),
        local_agg: traffic.class_snapshot(TrafficClass::LocalAgg),
        other: traffic.class_snapshot(TrafficClass::Default),
    }
}

/// One role of a socket chunk: join the mesh, then `Runner::run_role`.
fn tcp_role(
    job: &Job,
    stamps: &Stamps,
    rank: usize,
    addrs: Vec<String>,
    frames: &Arc<AtomicU64>,
    injector: &Arc<FaultInjector>,
) -> Result<(RoleOutput, TrafficReport, u64), String> {
    let topo = job.runner.topology();
    let role = match topo.worker_ranks().iter().position(|&r| r == rank) {
        Some(index) => RoleAssignment::Worker { index },
        None => RoleAssignment::Server {
            machine: topo.machine_of(rank).map_err(|e| e.to_string())?,
        },
    };
    let health = Arc::new(PeerHealth::default());
    let t = Instant::now();
    let tcp = TcpTransport::connect_mesh(&TcpConfig::new(rank, addrs), Arc::clone(&health))
        .map_err(|e| format!("rank {rank} mesh: {e}"))?;
    let connect_ns = t.elapsed().as_nanos() as u64;
    let traffic = TrafficStats::new(topo.num_machines());
    let transport = Counted {
        inner: tcp,
        rank,
        frames: Arc::clone(frames),
    };
    let endpoint = Endpoint::from_transport(
        topo.comm().clone(),
        rank,
        Box::new(transport),
        Arc::clone(&traffic),
        health,
        Some(Arc::clone(injector)),
    )
    .map_err(|e| e.to_string())?;
    let out = job
        .runner
        .run_role(role, endpoint, CHUNK_STEPS, 0, None, injector, &|w, i| {
            job.feed(stamps, w, i)
        })
        .map_err(|e| format!("rank {rank}: {e}"))?;
    Ok((out, class_report(&traffic), connect_ns))
}

/// One chunk with every role a thread of this process on a loopback TCP
/// mesh, merged with the in-process runner's own folds.
fn run_tcp(job: &Job) -> Result<Chunk, String> {
    let topo = job.runner.topology();
    let n = topo.num_endpoints();
    let addrs: Vec<String> = free_local_ports(n)
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|p| format!("127.0.0.1:{p}"))
        .collect();
    let stamps = Stamps::new();
    let frames = Arc::new(AtomicU64::new(0));
    let injector = Arc::new(FaultInjector::new(FaultPlan::new()));
    let results: Vec<Result<(RoleOutput, TrafficReport, u64), String>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|rank| {
                    let (stamps, frames, injector, addrs) =
                        (&stamps, &frames, &injector, addrs.clone());
                    scope.spawn(move || tcp_role(job, stamps, rank, addrs, frames, injector))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("role thread panicked".into()))
                })
                .collect()
        });

    let workers = topo.num_workers();
    let mut losses = vec![Vec::new(); workers];
    let mut chief: Option<VarStore> = None;
    let mut shards = Vec::new();
    let mut traffic = TrafficReport::default();
    let mut connect_ns = 0;
    for (rank, result) in results.into_iter().enumerate() {
        let (out, t, c) = result?;
        traffic.merge_from(&t);
        connect_ns = connect_ns.max(c);
        match out {
            RoleOutput::Worker {
                losses: l, store, ..
            } => {
                let index = topo
                    .worker_ranks()
                    .iter()
                    .position(|&r| r == rank)
                    .ok_or("worker output from a server rank")?;
                losses[index] = l;
                if index == 0 {
                    chief = Some(store);
                }
            }
            RoleOutput::Server { shards: s } => shards.extend(s),
        }
    }
    let chief = chief.ok_or("the chief produced no model")?;
    let weights = job
        .runner
        .stitch_final_model(&chief, shards)
        .map_err(|e| e.to_string())?;
    Ok(Chunk {
        losses: mean_worker_losses(&losses),
        weights,
        traffic,
        gaps: stamps.step_gaps(),
        connect_ns,
        frames: frames.load(Ordering::Relaxed),
    })
}

/// Bit-for-bit checks of one chunk against the reference chunk and the
/// static traffic prediction.
fn check_chunk(
    what: &str,
    chunk: &Chunk,
    reference: &Chunk,
    predicted: &TrafficReport,
) -> Result<(), String> {
    checks::losses_bitwise(what, &reference.losses, &chunk.losses)?;
    checks::weights_bitwise(what, &reference.weights, &chunk.weights)?;
    checks::traffic_matches(what, predicted, &chunk.traffic)
}

/// How a chunk of the measured phase runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// Tracing off, on the given wire.
    Plain(Wire),
    /// Tracing on, on the workload's wire.
    Traced,
}

/// Timing of every chunk of one pass.
#[derive(Default)]
struct PassStats {
    /// Samples per second of each chunk.
    rates: Vec<f64>,
    /// Median and p90 worker-0 step gap of each chunk, ms.
    p50s: Vec<f64>,
    p90s: Vec<f64>,
    /// Timed steps over all chunks.
    steps: usize,
}

impl PassStats {
    fn add(&mut self, chunk: &Chunk, global_batch: usize) {
        let gaps: Vec<f64> = chunk.gaps.iter().map(|&g| g as f64 / 1e6).collect();
        self.rates.push(chunk.samples_per_s(global_batch));
        self.p50s.push(median(&gaps));
        self.p90s.push(quantile(&gaps, 0.9));
        self.steps += gaps.len();
    }
}

/// Accumulated measurements of one run.
#[derive(Default)]
struct Tally {
    passes: BTreeMap<&'static str, PassStats>,
    /// Set-up times, ns: one before the first chunk and one after each.
    setup_ns: Vec<f64>,
    connect_ns: Vec<f64>,
    frames: u64,
    tcp_chunks: u64,
    rows: StepRows,
    ps_requests: u64,
    ps_wait: (u64, u64),
    ps_service: (u64, u64),
    traced_chunks: u64,
}

impl Tally {
    /// Adds a traced chunk's spans, counters and histograms.
    fn add_trace(&mut self, dump: &parallax_trace::TraceDump) -> Result<(), String> {
        self.rows.add(dump, WARM_STEPS as u64)?;
        for (name, v) in &dump.counters {
            if name == "ps.requests" {
                self.ps_requests += v;
            }
        }
        let add = |acc: &mut (u64, u64), h: &parallax_trace::HistogramSnapshot| {
            *acc = (acc.0 + h.count, acc.1 + h.sum);
        };
        for (name, h) in &dump.histograms {
            match name.as_str() {
                "ps.wait_ns" => add(&mut self.ps_wait, h),
                "ps.service_ns" => add(&mut self.ps_service, h),
                _ => {}
            }
        }
        self.traced_chunks += 1;
        Ok(())
    }
}

fn pass_key(pass: Pass) -> &'static str {
    match pass {
        Pass::Plain(Wire::InProcess) => "plain-inproc",
        Pass::Plain(Wire::Tcp) => "plain-tcp",
        Pass::Traced => "traced",
    }
}

/// Runs one training workload for `seconds` of measured chunks.
pub fn run(
    model: Model,
    wire: Wire,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let (profile_feed, feeds, global_batch) = generate_inputs(model, seed)?;
    let mut tally = Tally::default();
    let t = Instant::now();
    let (runner, graph, loss) = build_runner(model, &profile_feed)?;
    tally.setup_ns.push(t.elapsed().as_nanos() as f64);
    let job = Job {
        runner,
        graph,
        loss,
        feeds,
        global_batch,
    };
    let predicted = job.predict()?;

    let mut out = Outcome::default();

    // The in-process reference chunk doubles as warm-up; a socket
    // workload also warms its own path against it.
    let reference = run_in_process(&job)?;
    out.record(
        CHUNK_STEPS,
        checks::traffic_matches("reference chunk", &predicted, &reference.traffic),
    );
    if wire == Wire::Tcp {
        let warm = run_tcp(&job)?;
        out.record(
            CHUNK_STEPS,
            check_chunk("tcp warm-up chunk", &warm, &reference, &predicted),
        );
    }

    // Traced runs interleave untraced chunks (the tracing-overhead
    // baseline; on tcp also the in-process baseline of the transport
    // cost) with traced ones.
    let passes: Vec<Pass> = match (trace, wire) {
        (false, w) => vec![Pass::Plain(w)],
        (true, Wire::InProcess) => vec![Pass::Plain(Wire::InProcess), Pass::Traced],
        (true, Wire::Tcp) => vec![
            Pass::Plain(Wire::Tcp),
            Pass::Plain(Wire::InProcess),
            Pass::Traced,
        ],
    };
    let started = Instant::now();
    let mut k = 0usize;
    while started.elapsed().as_secs_f64() < seconds || k < passes.len() {
        let pass = passes[k % passes.len()];
        k += 1;
        let traced = pass == Pass::Traced;
        let chunk_wire = match pass {
            Pass::Plain(w) => w,
            Pass::Traced => wire,
        };
        if traced {
            parallax_trace::configure(TraceConfig::On {
                per_thread_capacity: TRACE_RING,
            });
            parallax_trace::reset();
        }
        let chunk = match chunk_wire {
            Wire::InProcess => run_in_process(&job),
            Wire::Tcp => run_tcp(&job),
        };
        if traced {
            parallax_trace::disable();
        }
        let chunk = match chunk {
            Ok(c) => c,
            Err(e) => {
                out.record(CHUNK_STEPS, Err(e));
                continue;
            }
        };
        let checked = check_chunk(pass_key(pass), &chunk, &reference, &predicted).and_then(|()| {
            if traced {
                tally.add_trace(&parallax_trace::drain())?;
            }
            Ok(())
        });
        out.record(CHUNK_STEPS, checked);
        if chunk_wire == Wire::Tcp {
            tally.connect_ns.push(chunk.connect_ns as f64);
            tally.frames += chunk.frames;
            tally.tcp_chunks += 1;
        }
        tally
            .passes
            .entry(pass_key(pass))
            .or_default()
            .add(&chunk, job.global_batch);
        // Set-up samples spread over the run, not bunched at its start.
        let t = Instant::now();
        drop(build_runner(model, &profile_feed)?);
        tally.setup_ns.push(t.elapsed().as_nanos() as f64);
    }

    let main = tally
        .passes
        .get(pass_key(Pass::Plain(wire)))
        .ok_or("no untraced chunk completed")?;
    let rate = median(&main.rates);
    let p50 = median(&main.p50s);
    let p90 = median(&main.p90s);
    out.notes.push(format!(
        "step_ms_p50 {p50:.4} ms, step_ms_p90 {p90:.4} ms, samples_per_s {rate:.1} 1/s: medians over {} chunks of each chunk's worker-0 step quantiles and rate ({} steps in all, {} samples/step)",
        main.rates.len(),
        main.steps,
        job.global_batch
    ));
    out.set(
        "setup_s",
        (median(&tally.setup_ns) + median(&tally.connect_ns)) / 1e9,
    );
    out.set("samples_per_s", rate);
    out.set("p50_ms", p50);
    out.set("tail_ms", p90);

    if trace {
        per_layer(&mut out, &tally, &predicted, wire);
    }
    Ok(out)
}

/// Fills the per-layer metrics from the traced chunks.
fn per_layer(out: &mut Outcome, tally: &Tally, predicted: &TrafficReport, wire: Wire) {
    let rows = &tally.rows;
    rows.report(out);

    let steps = (tally.traced_chunks.max(1) * CHUNK_STEPS as u64) as f64;
    // Every chunk replays the same inputs and is checked equal to the
    // prediction, so the predicted ledger is each chunk's exact count:
    // all messages and bytes of the class, within and across machines.
    for (name, snap) in checks::classes(predicted).into_iter().take(3) {
        let msgs = snap.inter_messages + snap.intra_messages;
        let bytes =
            snap.out_bytes.iter().sum::<u64>() + snap.intra_bytes_per_machine.iter().sum::<u64>();
        let (msgs, bytes) = (
            msgs as f64 / CHUNK_STEPS as f64,
            bytes as f64 / CHUNK_STEPS as f64,
        );
        out.set(&format!("comm.msgs_per_step.{name}"), msgs);
        out.set(&format!("comm.bytes_per_step.{name}"), bytes);
    }
    out.set("ps.requests_per_step", tally.ps_requests as f64 / steps);
    let mean_us = |(n, sum): (u64, u64)| {
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64 / 1e3
        }
    };
    out.set("ps.wait_us_mean", mean_us(tally.ps_wait));
    out.set("ps.service_us_mean", mean_us(tally.ps_service));
    let per_server_step = |ns: u64| ns as f64 / rows.server_steps.max(1) as f64 / 1e6;
    out.set("ps.server_busy_ms", per_server_step(rows.server_busy_ns));
    out.set("ps.server_wait_ms", per_server_step(rows.server_wait_ns));
    let server_ns = rows.server_busy_ns + rows.server_wait_ns;
    out.set(
        "ps.server_busy_frac",
        if server_ns == 0 {
            0.0
        } else {
            rows.server_busy_ns as f64 / server_ns as f64
        },
    );

    let pass = |p: Pass| tally.passes.get(pass_key(p));
    let rate = |p: Pass| pass(p).map_or(0.0, |s| median(&s.rates));
    let p50 = |p: Pass| pass(p).map_or(0.0, |s| median(&s.p50s));
    let main = Pass::Plain(wire);
    if rate(Pass::Traced) > 0.0 {
        out.set(
            "trace.overhead_pct",
            100.0 * (rate(main) / rate(Pass::Traced) - 1.0),
        );
    }
    if wire == Wire::Tcp {
        out.set("net.connect_ms", median(&tally.connect_ns) / 1e6);
        out.set(
            "net.frames_per_step",
            tally.frames as f64 / (tally.tcp_chunks.max(1) * CHUNK_STEPS as u64) as f64,
        );
        out.set(
            "net.transport_ms",
            p50(main) - p50(Pass::Plain(Wire::InProcess)),
        );
    }
}
