//! `serve-lm-open`: open-loop serving of an LM `small` snapshot.
//!
//! The benchmark first trains LM `small` for a few steps on 2 machines
//! with snapshot publishing on, which writes a PLXSNAP1 artifact; that
//! artifact and a pool of Zipf request contexts are the generated
//! inputs. One `ServeEngine` worker then serves an open-loop Poisson
//! arrival stream from one generator thread over a fixed rate ladder.
//! Each request is timed from its *due* time, so a stalled generator or
//! a growing queue both show up as latency; the generator's own lateness
//! is reported as `bench.gen_lag_ms_p99`. Refused `try_submit` calls
//! count as attempted and failed. Bursts of requests that are all due at
//! once measure the served capacity. Each cycle of the ladder serves from
//! a freshly started engine whose worker alternates between cores.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use parallax_core::snapshot::Snapshot;
use parallax_core::sparsity::estimate_profile;
use parallax_core::{get_runner, ParallaxConfig};
use parallax_dataflow::{Feed, Graph, Session, Value, VarStore};
use parallax_models::data::ZipfCorpus;
use parallax_models::lm::{LmConfig, LmModel};
use parallax_serve::{LmRequest, LmServe, ServeConfig, ServeEngine};
use parallax_tensor::{DetRng, Tensor};
use parallax_trace::{SpanCat, TraceConfig};

use crate::layers::StepRows;
use crate::stats::{median, quantile};
use crate::train::MACHINES;
use crate::{affinity, checks, mix, Outcome};

/// Offered rates of the ladder, requests per second. The top rung
/// offers more than one worker can serve.
const RATES: [u32; 5] = [2000, 5000, 10000, 20000, 40000];
/// One cycle of the ladder as (offered rate, seconds) segments. The
/// queue drains between segments. Cycles repeat over the run, so every
/// rate and every capacity burst samples the whole run, and the nominal
/// rate takes half of each cycle.
const CYCLE: [(u32, f64); 6] = [
    (2000, 0.25),
    (5000, 0.5),
    (10000, 0.25),
    (5000, 0.5),
    (20000, 0.2),
    (40000, 0.15),
];
/// The rate `p50_ms` and `tail_ms` are reported at.
const NOMINAL: u32 = 5000;
/// Latency limit on p99 for `serve.qps_at_slo`.
const SLO_MS: f64 = 2.0;
/// Requests per capacity burst (one burst per cycle), and roughly how
/// long one takes to serve.
const BURST_REQUESTS: usize = 2000;
const BURST_S: f64 = 0.1;
/// Engine set-ups (one serves the cycle) and snapshot opens timed per
/// cycle.
const SETUPS_PER_CYCLE: usize = 5;
/// Unmeasured nominal-rate warm-up after each engine start, seconds.
const WARM_S: f64 = 0.05;
/// Admission queue bound: deep enough that no rung sheds load.
const QUEUE_CAPACITY: usize = 1 << 16;
/// Training steps before the snapshot is published.
const TRAIN_STEPS: usize = 20;
/// Distinct request contexts generated per run.
const CONTEXTS: usize = 4096;
/// Every this-many-th request's output is kept for the bitwise check.
const SAMPLE_EVERY: u64 = 499;
const MAX_SAMPLES: usize = 32;
/// Per-thread span ring while tracing; drained after every segment.
const TRACE_RING: usize = 1 << 19;

/// Removes the run's snapshot file however the run ends.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Trains LM `small` on generated feeds and publishes its snapshot.
fn publish_snapshot(model: &LmModel, seed: u64, path: &Path) -> Result<(), String> {
    let corpus = ZipfCorpus::new(model.config.vocab, 1.0);
    let profile = estimate_profile(
        &model.built.graph,
        &[model.feed(&corpus, &mut DetRng::seed(mix(seed, 20, 0)))],
        1,
    )
    .map_err(|e| e.to_string())?;
    let config = ParallaxConfig {
        compute_threads: Some(1),
        snapshot_path: Some(path.to_path_buf()),
        checkpoint_interval: TRAIN_STEPS,
        ..ParallaxConfig::default()
    };
    let runner = get_runner(
        model.built.graph.clone(),
        model.built.loss,
        vec![1; MACHINES],
        config,
        profile,
    )
    .map_err(|e| e.to_string())?;
    runner
        .run(TRAIN_STEPS, |w, i| {
            let mut rng = DetRng::seed(mix(seed, 21, i as u64));
            model.sharded_feed(&corpus, MACHINES, w, &mut rng)
        })
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// One answered (or refused) request.
struct Served {
    due_ns: u64,
    submit_ns: u64,
    /// Queue-to-response time the engine measured.
    worker_ns: u64,
}

impl Served {
    fn complete_ns(&self) -> u64 {
        self.submit_ns + self.worker_ns
    }

    /// Latency from the due time, ms.
    fn latency_ms(&self) -> f64 {
        (self.complete_ns() - self.due_ns) as f64 / 1e6
    }
}

/// What one segment of arrivals produced.
#[derive(Default)]
struct Segment {
    /// Segment start on the generator's clock, ns; offsets count from it.
    start_ns: u64,
    served: Vec<Served>,
    refused: u64,
    errors: u64,
    samples: Vec<(u64, Vec<f32>)>,
}

/// The generator side: contexts, clock, and running counters.
struct Generator<'a> {
    contexts: &'a [Vec<usize>],
    step: u64,
    base: Instant,
    next_id: u64,
    samples: Vec<(u64, Vec<f32>)>,
}

impl Generator<'_> {
    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Sleeps most of the way to `due_ns`, then yields until it passes.
    fn wait_until(&self, due_ns: u64) -> u64 {
        loop {
            let now = self.now_ns();
            if now >= due_ns {
                return now;
            }
            let gap = due_ns - now;
            if gap > 120_000 {
                std::thread::sleep(Duration::from_nanos(gap - 60_000));
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Submits one request per offset (ns after the segment starts) and
    /// collects every answer before returning, so segments never overlap.
    fn segment(&mut self, engine: &ServeEngine<LmServe>, offsets: &[u64]) -> Segment {
        let (tx, rx) = mpsc::channel::<(parallax_serve::Ticket<Vec<f32>>, u64, u64, u64)>();
        let keep = MAX_SAMPLES.saturating_sub(self.samples.len());
        let step = self.step;
        let start = self.now_ns();
        let (mut seg, refused) = std::thread::scope(|scope| {
            let collector = scope.spawn(move || {
                let mut seg = Segment::default();
                for (ticket, due_ns, submit_ns, id) in rx {
                    match ticket.wait() {
                        Ok(resp) if resp.step == step => {
                            if id % SAMPLE_EVERY == 0 && seg.samples.len() < keep {
                                seg.samples.push((id, resp.output));
                            }
                            seg.served.push(Served {
                                due_ns,
                                submit_ns,
                                worker_ns: resp.latency_ns,
                            });
                        }
                        _ => seg.errors += 1,
                    }
                }
                seg
            });
            let mut refused = 0;
            for &offset in offsets {
                let due_ns = start + offset;
                let submit_ns = self.wait_until(due_ns);
                let id = self.next_id;
                self.next_id += 1;
                let context = self.contexts[(id % CONTEXTS as u64) as usize].clone();
                let _span = parallax_trace::span(SpanCat::Phase, "bench.submit");
                match engine.try_submit(LmRequest { context }) {
                    Ok(ticket) => {
                        // The collector outlives the loop; a send only
                        // fails if it panicked, which join reports.
                        let _ = tx.send((ticket, due_ns, submit_ns, id));
                    }
                    Err(_) => refused += 1,
                }
            }
            drop(tx);
            let seg = collector.join().unwrap_or_else(|_| Segment {
                errors: offsets.len() as u64,
                ..Segment::default()
            });
            (seg, refused)
        });
        seg.refused = refused;
        seg.start_ns = start;
        self.samples.append(&mut seg.samples);
        seg
    }
}

/// Poisson arrival offsets at `rate` per second over `seconds`.
fn poisson(rate: u32, seconds: f64, rng: &mut DetRng) -> Vec<u64> {
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Uniform in (0, 1] from the top 53 bits.
        let u = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        t += -u.ln() / rate as f64;
        if t >= seconds {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

/// Per-rate accumulation over a rung's segments.
#[derive(Default, Clone)]
struct Rung {
    latency_ms: Vec<f64>,
    worker_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    /// Median and p90 latency of each segment, ms.
    seg_p50: Vec<f64>,
    seg_p90: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// A segment ended with more requests outstanding than the rate
    /// could clear within the latency limit.
    backlog: bool,
}

impl Rung {
    fn add(&mut self, seg: &Segment, rate: u32, duration_ns: u64) {
        self.attempted += seg.served.len() as u64 + seg.refused + seg.errors;
        self.failed += seg.refused + seg.errors;
        let end_ns = seg.start_ns + duration_ns;
        let outstanding = seg
            .served
            .iter()
            .filter(|s| s.complete_ns() > end_ns)
            .count() as f64;
        let allowance = (rate as f64 * SLO_MS / 1e3).max(16.0);
        self.backlog |= outstanding > allowance;
        let latency: Vec<f64> = seg.served.iter().map(Served::latency_ms).collect();
        self.seg_p50.push(median(&latency));
        self.seg_p90.push(quantile(&latency, 0.9));
        self.latency_ms.extend(latency);
        for s in &seg.served {
            self.worker_ms.push(s.worker_ns as f64 / 1e6);
            self.lag_ms.push((s.submit_ns - s.due_ns) as f64 / 1e6);
        }
    }

    fn meets_slo(&self) -> bool {
        self.failed == 0 && !self.backlog && quantile(&self.latency_ms, 0.99) <= SLO_MS
    }
}

/// Everything one mode (traced or not) of a run measured.
struct Ladder {
    rungs: Vec<Rung>,
    /// Completions per second of each capacity burst.
    bursts: Vec<f64>,
}

impl Ladder {
    fn new() -> Ladder {
        Ladder {
            rungs: vec![Rung::default(); RATES.len()],
            bursts: Vec::new(),
        }
    }

    fn nominal(&self) -> &Rung {
        &self.rungs[rate_index(NOMINAL)]
    }

    /// Counts every request; refused and failed ones fail the run.
    fn record(&self, out: &mut Outcome) {
        for (rate, rung) in RATES.iter().zip(&self.rungs) {
            out.record((rung.attempted - rung.failed) as usize, Ok(()));
            if rung.failed > 0 {
                out.record(
                    rung.failed as usize,
                    Err(format!(
                        "{} requests refused or failed at {rate}/s",
                        rung.failed
                    )),
                );
            }
        }
    }
}

fn rate_index(rate: u32) -> usize {
    RATES
        .iter()
        .position(|&r| r == rate)
        .expect("every cycle rate is on the ladder")
}

/// Span and histogram totals of the traced segments.
struct Traced {
    rows: StepRows,
    batches: (u64, u64),
}

impl Traced {
    fn drain(&mut self) -> Result<(), String> {
        let dump = parallax_trace::drain();
        for (name, h) in &dump.histograms {
            if name == "serve.batch_size" {
                self.batches = (self.batches.0 + h.count, self.batches.1 + h.sum);
            }
        }
        self.rows.add(&dump, 0)
    }
}

/// Counts the requests of a segment outside the ladder (a burst or a
/// warm-up); refused and failed ones fail the run.
fn record_unladdered(out: &mut Outcome, seg: &Segment, what: &str) {
    out.record(seg.served.len(), Ok(()));
    let failed = (seg.refused + seg.errors) as usize;
    if failed > 0 {
        out.record(
            failed,
            Err(format!("{failed} {what} requests refused or failed")),
        );
    }
}

/// One cycle: every ladder segment, then a capacity burst of requests
/// all due at once (completions per second once the queue is full).
fn cycle(
    gen: &mut Generator<'_>,
    engine: &ServeEngine<LmServe>,
    seed: u64,
    index: u64,
    ladder: &mut Ladder,
    out: &mut Outcome,
    mut traced: Option<&mut Traced>,
) -> Result<(), String> {
    for (s, &(rate, seconds)) in CYCLE.iter().enumerate() {
        let mut rng = DetRng::seed(mix(seed, 30 + s as u64, index));
        let seg = gen.segment(engine, &poisson(rate, seconds, &mut rng));
        ladder.rungs[rate_index(rate)].add(&seg, rate, (seconds * 1e9) as u64);
        if let Some(t) = traced.as_deref_mut() {
            t.drain()?;
        }
    }
    let seg = gen.segment(engine, &[0; BURST_REQUESTS]);
    record_unladdered(out, &seg, "burst");
    let skip = 2 * LmConfig::small().batch;
    let mut done: Vec<u64> = seg.served.iter().map(Served::complete_ns).collect();
    done.sort_unstable();
    if done.len() > skip + 1 {
        let span_ns = done[done.len() - 1] - done[skip];
        ladder
            .bursts
            .push((done.len() - 1 - skip) as f64 / (span_ns as f64 / 1e9));
    }
    if let Some(t) = traced {
        t.drain()?;
    }
    Ok(())
}

/// Rebuilds the snapshot's weights as a training-graph store.
fn store_from_snapshot(snap: &Snapshot, graph: &Graph) -> Result<VarStore, String> {
    let values = graph
        .variables()
        .iter()
        .map(|def| snap.view(&def.name).map(|v| v.to_tensor()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok(VarStore::from_values(values))
}

/// Compares every kept served output with the training graph's forward
/// pass over the snapshot, in batches of the graph's fixed size.
fn check_samples(
    model: &LmModel,
    snap: &Snapshot,
    contexts: &[Vec<usize>],
    samples: &[(u64, Vec<f32>)],
) -> Result<(), String> {
    if samples.is_empty() {
        return Err("no served outputs were sampled".into());
    }
    let cfg = model.config;
    let mut store = store_from_snapshot(snap, &model.built.graph)?;
    let session = Session::new(&model.built.graph);
    for group in samples.chunks(cfg.batch) {
        // Pad the last group with its first request: rows are
        // independent, so padding cannot change the compared rows.
        let ctx = |slot: usize| {
            let (id, _) = group.get(slot).unwrap_or(&group[0]);
            &contexts[(*id % CONTEXTS as u64) as usize]
        };
        let mut feed = Feed::new()
            .with("cands", (0..cfg.vocab).collect::<Vec<usize>>())
            .with("h0", Tensor::zeros([cfg.batch, cfg.hidden]))
            .with("c0", Tensor::zeros([cfg.batch, cfg.hidden]));
        let mut ids = Vec::with_capacity(cfg.length * cfg.batch);
        for t in 0..cfg.length {
            for slot in 0..cfg.batch {
                ids.push(ctx(slot)[t]);
            }
            feed.insert(format!("labels_{t}"), vec![0usize; cfg.batch]);
        }
        feed.insert("ids", Value::Ids(ids));
        let acts = session
            .forward(&feed, &mut store)
            .map_err(|e| e.to_string())?;
        let logits = acts.tensor(model.built.logits).map_err(|e| e.to_string())?;
        for (slot, (id, served)) in group.iter().enumerate() {
            let reference = logits.row(slot).map_err(|e| e.to_string())?;
            checks::served_bitwise(&format!("served request {id}"), reference, served)?;
        }
    }
    Ok(())
}

/// The timed set-up: model build, serving adapter, engine start (which
/// opens and validates the snapshot).
fn start_engine(path: &Path) -> Result<(ServeEngine<LmServe>, f64), String> {
    let config = ServeConfig {
        queue_capacity: QUEUE_CAPACITY,
        workers: 1,
        refresh: false,
    };
    let t = Instant::now();
    let m = LmModel::build(LmConfig::small()).map_err(|e| e.to_string())?;
    let serve = LmServe::new(&m).map_err(|e| e.to_string())?;
    let engine =
        ServeEngine::start(serve, path.to_path_buf(), config).map_err(|e| e.to_string())?;
    Ok((engine, t.elapsed().as_nanos() as f64))
}

/// Runs `serve-lm-open` for about `seconds` of measured load.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let dir = PathBuf::from(".bench_build").join("perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let snap_file = TempFile(dir.join(format!("serve-{}.plxsnap", std::process::id())));
    let path = snap_file.0.clone();

    let model = LmModel::build(LmConfig::small()).map_err(|e| e.to_string())?;
    publish_snapshot(&model, seed, &path)?;
    let corpus = ZipfCorpus::new(model.config.vocab, 1.0);
    let mut rng = DetRng::seed(mix(seed, 22, 0));
    let contexts: Vec<Vec<usize>> = (0..CONTEXTS)
        .map(|_| {
            (0..model.config.length)
                .map(|_| corpus.sample(&mut rng))
                .collect()
        })
        .collect();
    let snap = Snapshot::open(&path).map_err(|e| e.to_string())?;
    if snap.step() != TRAIN_STEPS as u64 {
        return Err(format!(
            "snapshot is at step {}, expected {TRAIN_STEPS}",
            snap.step()
        ));
    }

    let mut setup_ns = Vec::new();
    let mut load_ns = Vec::new();
    let mut out = Outcome::default();
    let mut gen = Generator {
        contexts: &contexts,
        step: snap.step(),
        base: Instant::now(),
        next_id: 0,
        samples: Vec::new(),
    };

    // Traced runs alternate untraced and traced cycles; the untraced
    // ones are the baseline for the tracing overhead.
    let cycle_s: f64 = CYCLE.iter().map(|&(_, s)| s).sum::<f64>() + BURST_S;
    let cycles = ((seconds / cycle_s).round() as u64).max(if trace { 2 } else { 1 });
    let mut plain = Ladder::new();
    let mut traced = Ladder::new();
    let mut rows = Traced {
        rows: StepRows::default(),
        batches: (0, 0),
    };
    for c in 0..cycles {
        // Each cycle serves from a freshly started engine. Its worker
        // thread inherits this thread's core, which alternates between
        // cycles so no single core's neighbours decide the run; the
        // generator and its collectors then move to the other core.
        let core = c as usize % 2;
        affinity::pin_slot(core);
        let (engine, ns) = start_engine(&path)?;
        setup_ns.push(ns);
        affinity::pin_slot(core + 1);
        // Warm-up: a short unmeasured nominal segment.
        let mut rng = DetRng::seed(mix(seed, 23, c));
        let warm = gen.segment(&engine, &poisson(NOMINAL, WARM_S, &mut rng));
        record_unladdered(&mut out, &warm, "warm-up");
        if trace && c % 2 == 1 {
            parallax_trace::configure(TraceConfig::On {
                per_thread_capacity: TRACE_RING,
            });
            parallax_trace::reset();
            let r = cycle(
                &mut gen,
                &engine,
                seed,
                c,
                &mut traced,
                &mut out,
                Some(&mut rows),
            );
            parallax_trace::disable();
            r?;
        } else {
            cycle(&mut gen, &engine, seed, c, &mut plain, &mut out, None)?;
        }
        drop(engine);
        for _ in 1..SETUPS_PER_CYCLE {
            let (extra, ns) = start_engine(&path)?;
            drop(extra);
            setup_ns.push(ns);
        }
        for _ in 0..SETUPS_PER_CYCLE {
            let t = Instant::now();
            drop(Snapshot::open(&path).map_err(|e| e.to_string())?);
            load_ns.push(t.elapsed().as_nanos() as f64);
        }
    }
    plain.record(&mut out);
    traced.record(&mut out);
    let samples = std::mem::take(&mut gen.samples);
    out.record(
        samples.len(),
        check_samples(&model, &snap, &contexts, &samples),
    );

    // The reported ladder: the untraced cycles, or the traced ones in a
    // traced run.
    let ladder = if trace { &traced } else { &plain };
    let at = ladder.nominal();
    let qps_at_slo = RATES
        .iter()
        .zip(&ladder.rungs)
        .filter(|(_, r)| r.meets_slo())
        .map(|(&rate, _)| rate)
        .max()
        .unwrap_or(0);
    let cap = median(&ladder.bursts);
    let p50 = median(&at.seg_p50);
    let p90 = median(&at.seg_p90);
    out.notes.push(format!(
        "lat_ms_p50 {:.4} ms, lat_ms_p99 {:.4} ms at {NOMINAL}/s over {} requests, timed from the due time",
        median(&at.latency_ms),
        quantile(&at.latency_ms, 0.99),
        at.latency_ms.len()
    ));
    for (rate, rung) in RATES.iter().zip(&ladder.rungs) {
        out.notes.push(format!(
            "rate {rate}/s: p99 {:.4} ms over {} requests, backlog {}, failed {}",
            quantile(&rung.latency_ms, 0.99),
            rung.latency_ms.len(),
            if rung.backlog { "growing" } else { "bounded" },
            rung.failed
        ));
    }
    out.notes.push(format!(
        "serve_qps_at_slo {qps_at_slo}/s (p99 <= {SLO_MS} ms, no growing backlog); capacity {cap:.1} req/s, median of {} bursts of {BURST_REQUESTS}",
        ladder.bursts.len()
    ));
    out.notes.push(format!(
        "medians over {} segments at {NOMINAL}/s of each segment's p50 and p90: {p50:.4} ms, {p90:.4} ms",
        at.seg_p50.len()
    ));
    out.set("setup_s", median(&setup_ns) / 1e9);
    out.set("samples_per_s", cap);
    out.set("p50_ms", p50);
    out.set("tail_ms", p90);

    if trace {
        rows.rows.report(&mut out);
        out.set("serve.batch_ms", rows.rows.step_ms());
        out.set(
            "serve.batch_size_mean",
            rows.batches.1 as f64 / rows.batches.0.max(1) as f64,
        );
        out.set(
            "trace.overhead_pct",
            100.0 * (median(&traced.nominal().seg_p50) / median(&plain.nominal().seg_p50) - 1.0),
        );
    }
    let attempted: u64 = ladder.rungs.iter().map(|r| r.attempted).sum();
    let shed: u64 = ladder.rungs.iter().map(|r| r.failed).sum();
    let lag: Vec<f64> = ladder
        .rungs
        .iter()
        .flat_map(|r| r.lag_ms.iter().copied())
        .collect();
    out.set("serve.worker_latency_ms_p50", median(&at.worker_ms));
    out.set("serve.shed_frac", shed as f64 / attempted.max(1) as f64);
    out.set("serve.snapshot_load_ms", median(&load_ns) / 1e6);
    out.set("serve.qps_at_slo", qps_at_slo as f64);
    for (rate, rung) in RATES.iter().zip(&ladder.rungs) {
        out.set(
            &format!("serve.lat_ms_p99.r{rate}"),
            quantile(&rung.latency_ms, 0.99),
        );
    }
    out.set("bench.gen_lag_ms_p99", quantile(&lag, 0.99));
    affinity::unpin();
    Ok(out)
}
