//! The recovery supervisor shared by both execution modes.
//!
//! A run is a sequence of *attempts*. Each attempt runs every role of
//! the job (one worker per GPU, one server per machine) from a resume
//! point. A [`Fleet`] decides what a role is: a scoped thread over the
//! in-process channel router (`ThreadFleet`, behind [`Runner::run`])
//! or an OS process over the TCP mesh (`repro dist --launch`).
//! [`Runner::supervise`] owns everything else, once: the attempts and
//! the `max_recoveries` budget, the resume step, the `fault.detect` /
//! `fault.recover` spans and counters, and the fold from per-role
//! outputs to one [`RunReport`].
//!
//! **The resume rule.** The run owns its checkpoint file: a copy left at
//! `checkpoint_path` by an earlier run is removed before the first
//! attempt, so a later attempt resumes from a checkpoint only if this
//! run published it, and otherwise restarts from the seeded initial
//! state. Every role must report the supervisor's resume step; a role
//! that resumed anywhere else is a typed error.

use std::sync::Arc;
use std::time::Instant;

use parallax_comm::{Endpoint, Router};
use parallax_dataflow::Feed;
use parallax_fault::FaultInjector;
use parking_lot::Mutex;

use crate::runner::{mean_worker_losses, RoleAssignment, RoleOutput, RunReport, TrafficReport};
use crate::snapshot::Snapshot;
use crate::{CoreError, Result, Runner};

/// What one role reported at the end of a successful attempt.
#[derive(Debug)]
pub struct RoleReport {
    /// The role that ran.
    pub role: RoleAssignment,
    /// The iteration the role resumed from (0 = fresh start).
    pub start_iter: usize,
    /// What the role produced.
    pub output: RoleOutput,
}

/// How one attempt of every role ended.
#[derive(Debug)]
pub struct Attempt {
    /// Every role's report, or the attempt's first failure.
    pub roles: Result<Vec<RoleReport>>,
    /// The attempt's measured traffic by class, when the fleet observed
    /// it (a failed process generation leaves no ledger behind).
    pub traffic: Option<TrafficReport>,
}

/// Runs one attempt of every role of a job: `ThreadFleet` in this
/// process, `repro dist`'s process fleet over sockets.
pub trait Fleet {
    /// Runs every role up to `iterations` from the run's resume point,
    /// which the roles load themselves ([`Runner::resume_point`]) and
    /// report as their `start_iter`.
    fn attempt(&mut self, runner: &Runner, iterations: usize) -> Attempt;
}

impl Runner {
    /// Executes `iterations` of training as attempts of `fleet`, retrying
    /// a failed attempt up to `max_recoveries` times when
    /// `checkpoint_path` is set. Traffic is summed over every attempt
    /// that reported a ledger: a doomed attempt's bytes were still sent
    /// and traced. An exhausted budget returns the first failure.
    pub fn supervise(&self, iterations: usize, fleet: &mut impl Fleet) -> Result<RunReport> {
        let started = Instant::now();
        let ckpt = self.config().checkpoint_path.as_deref();
        if let Some(path) = ckpt {
            remove_stale(path)?;
        }
        let mut traffic = TrafficReport::default();
        let (mut start_iter, mut attempts, mut first_err) = (0, 0, None);
        loop {
            attempts += 1;
            let attempt = fleet.attempt(self, iterations);
            if let Some(t) = &attempt.traffic {
                traffic.merge_from(t);
            }
            let err = match attempt.roles {
                Ok(roles) => {
                    let mut report = self.fold(roles, iterations, start_iter)?;
                    report.traffic = traffic;
                    report.attempts = attempts;
                    report.wall_seconds = started.elapsed().as_secs_f64();
                    return Ok(report);
                }
                Err(err) => err,
            };
            {
                let _detect = parallax_trace::span(parallax_trace::SpanCat::Phase, "fault.detect");
                parallax_trace::counter("fault.detected").add(1);
            }
            eprintln!("parallax: attempt {attempts} failed: {err}");
            let first = first_err.get_or_insert(err);
            if ckpt.is_none() || attempts > self.config().max_recoveries {
                return Err(first.clone());
            }
            let _recover = parallax_trace::span(parallax_trace::SpanCat::Phase, "fault.recover");
            parallax_trace::counter("fault.recovered").add(1);
            // The step alone: every role loads and verifies the checkpoint.
            let published = ckpt.filter(|path| path.exists());
            start_iter = published.map_or(Ok(0), Snapshot::peek_step)? as usize;
            eprintln!("parallax: recovering at step {start_iter}");
        }
    }

    /// Folds one successful attempt's role reports into a [`RunReport`]:
    /// worker-mean losses and chief gradient norms zero-padded to
    /// `iterations`, the final model stitched from the chief replica and
    /// the server shards, and the slowest worker's compute per executed
    /// iteration. Traffic, attempts and wall time are the caller's.
    fn fold(
        &self,
        roles: Vec<RoleReport>,
        iterations: usize,
        start_iter: usize,
    ) -> Result<RunReport> {
        let workers = self.topology().num_workers();
        let mut losses: Vec<Option<Vec<f32>>> = vec![None; workers];
        let (mut chief, mut norms, mut shards, mut compute) = (None, Vec::new(), Vec::new(), 0.0);
        for RoleReport {
            role,
            start_iter: at,
            output,
        } in roles
        {
            if at != start_iter {
                return Err(CoreError::Worker(format!(
                    "{role:?} resumed at step {at} but the run resumed at step {start_iter}"
                )));
            }
            match (role, output) {
                (
                    RoleAssignment::Worker { index },
                    RoleOutput::Worker {
                        losses: l,
                        norms: n,
                        compute_secs,
                        store,
                    },
                ) if index < workers => {
                    losses[index] = Some(l);
                    compute = f64::max(compute, compute_secs);
                    if index == 0 {
                        (chief, norms) = (Some(store), n);
                    }
                }
                (RoleAssignment::Server { .. }, RoleOutput::Server { shards: s }) => {
                    shards.extend(s)
                }
                _ => {
                    return Err(CoreError::Worker(format!(
                        "{role:?} is not in this job or returned the other role kind's output"
                    )))
                }
            }
        }
        let losses: Vec<Vec<f32>> = losses
            .into_iter()
            .collect::<Option<_>>()
            .ok_or_else(|| CoreError::Worker("a worker reported nothing".into()))?;
        let chief = chief.ok_or_else(|| CoreError::Worker("chief produced no model".into()))?;
        let pad = |series: Vec<f32>| {
            let mut full = vec![0.0f32; iterations];
            for (slot, x) in full[start_iter..].iter_mut().zip(series) {
                *slot = x;
            }
            full
        };
        Ok(RunReport {
            losses: pad(mean_worker_losses(&losses)),
            grad_norms: if self.config().trace_gradients {
                pad(norms)
            } else {
                norms
            },
            traffic: TrafficReport::default(),
            iterations,
            host_compute_per_iter: compute / (iterations - start_iter).max(1) as f64,
            final_model: self.stitch_final_model(&chief, shards)?,
            wall_seconds: 0.0,
            attempts: 0,
        })
    }
}

/// Removes a file a run owns before its first attempt, so a copy left by
/// an earlier run cannot be read as this run's.
pub fn remove_stale(path: &std::path::Path) -> Result<()> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(CoreError::Config(format!(
            "remove stale {}: {e}",
            path.display()
        ))),
        _ => Ok(()),
    }
}

/// The in-process fleet: every role a scoped thread over one attempt's
/// channel [`Router`]. One [`FaultInjector`] serves every attempt, so a
/// fault fires at most once per run and a replay does not re-kill the
/// worker it recovered from.
pub(crate) struct ThreadFleet<'f, F> {
    /// Worker `w`'s mini-batch at iteration `i` is `feed_fn(w, i)`.
    pub(crate) feed_fn: &'f F,
    /// The run's fault injector.
    pub(crate) injector: Arc<FaultInjector>,
}

impl<F> Fleet for ThreadFleet<'_, F>
where
    F: Fn(usize, usize) -> Feed + Send + Sync,
{
    fn attempt(&mut self, runner: &Runner, iterations: usize) -> Attempt {
        // Loaded once and shared by every role thread.
        let (restore, start_iter) = match runner.resume_point() {
            Ok(point) => point,
            Err(e) => {
                return Attempt {
                    roles: Err(e),
                    traffic: None,
                }
            }
        };
        let restore = restore.as_ref();
        let topo = runner.topology();
        let (mut endpoints, stats) =
            Router::build_with(topo.comm().clone(), Some(Arc::clone(&self.injector)));
        if let Err(e) = runner.configure_endpoints(&mut endpoints) {
            return Attempt {
                roles: Err(e),
                traffic: None,
            };
        }
        let mut by_rank: Vec<Option<Endpoint>> = endpoints.into_iter().map(Some).collect();
        let servers = topo.num_machines() * usize::from(runner.plan().needs_servers());
        let roles = (0..servers)
            .map(|machine| RoleAssignment::Server { machine })
            .chain((0..topo.num_workers()).map(|index| RoleAssignment::Worker { index }));
        // Completion order, so the first error is the failure itself
        // rather than a peer's timeout waiting on it.
        let done: Mutex<Vec<Result<RoleReport>>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for role in roles {
                let rank = runner.rank_of(role).expect("roles come from the topology");
                let endpoint = by_rank[rank].take().expect("one endpoint per rank");
                let (done, injector, feed_fn) = (&done, &self.injector, self.feed_fn);
                scope.spawn(move || {
                    let output = runner
                        .run_role(
                            role, endpoint, iterations, start_iter, restore, injector, feed_fn,
                        )
                        .map_err(|e| CoreError::Worker(format!("{role:?}: {e}")));
                    if let Err(e) = &output {
                        // Surface at once: peers block on a dead role
                        // until their receive deadline.
                        eprintln!("parallax: {e}");
                    }
                    done.lock().push(output.map(|output| RoleReport {
                        role,
                        start_iter,
                        output,
                    }));
                });
            }
        });
        Attempt {
            roles: done.into_inner().into_iter().collect(),
            traffic: Some(TrafficReport::from_stats(&stats)),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use parallax_dataflow::graph::{Init, Op, PhKind};
    use parallax_dataflow::{Graph, VarStore, VariableDef};
    use parallax_tensor::DetRng;

    use super::*;
    use crate::checkpoint::RestorePoint;
    use crate::config::{ArchChoice, ParallaxConfig};
    use crate::sparsity::estimate_profile;

    const ITERS: usize = 5;

    /// A two-worker, one-machine AllReduce job (no servers) and its graph.
    fn job(checkpoint_path: Option<PathBuf>, max_recoveries: usize) -> (Runner, Graph) {
        let mut g = Graph::new();
        let emb = g
            .variable(VariableDef::new("emb", [8, 4], Init::Normal(0.2)))
            .unwrap();
        let ids = g.placeholder("ids", PhKind::Ids).unwrap();
        let labels = g.placeholder("labels", PhKind::Ids).unwrap();
        let logits = g.add(Op::Gather { table: emb, ids }).unwrap();
        let loss = g.add(Op::SoftmaxXent { logits, labels }).unwrap();
        let feed = Feed::new()
            .with("ids", vec![1usize, 3])
            .with("labels", vec![0usize, 2]);
        let profile = estimate_profile(&g, &[feed], 1).unwrap();
        let config = ParallaxConfig {
            arch: ArchChoice::ArOnly,
            checkpoint_interval: usize::from(checkpoint_path.is_some()),
            checkpoint_path,
            max_recoveries,
            ..ParallaxConfig::default()
        };
        let runner = crate::get_runner(g.clone(), loss, vec![2], config, profile).unwrap();
        (runner, g)
    }

    fn ckpt(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("parallax_supervise_{}_{tag}", std::process::id()))
    }

    fn worker(graph: &Graph, index: usize, start_iter: usize, loss: f32) -> RoleReport {
        RoleReport {
            role: RoleAssignment::Worker { index },
            start_iter,
            output: RoleOutput::Worker {
                losses: vec![loss; ITERS - start_iter],
                norms: Vec::new(),
                compute_secs: 0.5,
                store: VarStore::init(graph, &mut DetRng::seed(3)),
            },
        }
    }

    fn ok(roles: Vec<RoleReport>) -> Attempt {
        Attempt {
            roles: Ok(roles),
            traffic: Some(TrafficReport::default()),
        }
    }

    fn failed(n: usize) -> Attempt {
        Attempt {
            roles: Err(CoreError::Worker(format!("failure {n}"))),
            traffic: None,
        }
    }

    /// A scripted fleet: reads and records each attempt's resume step the
    /// way real roles do, then plays `script(attempt number, resume step)`.
    struct Fake<S> {
        calls: Vec<usize>,
        script: S,
    }

    impl<S: FnMut(usize, usize) -> Attempt> Fleet for Fake<S> {
        fn attempt(&mut self, runner: &Runner, _: usize) -> Attempt {
            let (_, start_iter) = runner.resume_point().unwrap();
            self.calls.push(start_iter);
            (self.script)(self.calls.len(), start_iter)
        }
    }

    fn fake<S: FnMut(usize, usize) -> Attempt>(script: S) -> Fake<S> {
        Fake {
            calls: Vec::new(),
            script,
        }
    }

    #[test]
    fn failure_then_success_resumes_at_the_published_checkpoint() {
        let path = ckpt("resume");
        let (runner, graph) = job(Some(path.clone()), 1);
        let point = |step| {
            let store = VarStore::init(&graph, &mut DetRng::seed(9));
            let slots = Default::default();
            RestorePoint { store, slots }
                .save(&graph, step, &path)
                .unwrap();
        };
        // A stale checkpoint from an earlier run is not a resume point.
        point(4);
        let mut fleet = fake(|n, start| {
            if n == 1 {
                point(2);
                return failed(n);
            }
            ok(vec![
                worker(&graph, 1, start, 1.0),
                worker(&graph, 0, start, 3.0),
            ])
        });
        let report = runner.supervise(ITERS, &mut fleet).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(fleet.calls, vec![0, 2]);
        assert_eq!(report.attempts, 2);
        assert_eq!(report.losses, vec![0.0, 0.0, 2.0, 2.0, 2.0]);
        assert_eq!(report.host_compute_per_iter, 0.5 / 3.0);
    }

    #[test]
    fn exhausted_budget_returns_the_first_error() {
        let path = ckpt("budget");
        let (runner, _) = job(Some(path.clone()), 2);
        let mut fleet = fake(|n, _| failed(n));
        let err = runner.supervise(ITERS, &mut fleet).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err, CoreError::Worker("failure 1".into()));
        assert_eq!(fleet.calls, vec![0; 3]);
    }

    #[test]
    fn no_checkpoint_path_returns_the_error_without_retry() {
        let (runner, _) = job(None, 3);
        let mut fleet = fake(|n, _| failed(n));
        let err = runner.supervise(ITERS, &mut fleet).unwrap_err();
        assert_eq!(err, CoreError::Worker("failure 1".into()));
        assert_eq!(fleet.calls.len(), 1);
    }

    #[test]
    fn a_role_resumed_elsewhere_is_rejected() {
        let (runner, graph) = job(None, 0);
        let mut fleet = fake(|_, _| ok(vec![worker(&graph, 0, 0, 1.0), worker(&graph, 1, 2, 1.0)]));
        let err = runner.supervise(ITERS, &mut fleet).unwrap_err().to_string();
        assert!(err.contains("resumed at step 2"), "{err}");
    }

    #[test]
    fn a_role_returning_the_other_kind_is_rejected() {
        let (runner, graph) = job(None, 0);
        let server_output = || RoleOutput::Server { shards: Vec::new() };
        let mut server_in_worker_slot = worker(&graph, 1, 0, 1.0);
        server_in_worker_slot.output = server_output();
        let mut worker_in_server_slot = worker(&graph, 1, 0, 1.0);
        worker_in_server_slot.role = RoleAssignment::Server { machine: 0 };
        for bad in [server_in_worker_slot, worker_in_server_slot] {
            let role = bad.role;
            let mut roles = Some(vec![worker(&graph, 0, 0, 1.0), bad]);
            let mut fleet = fake(|_, _| ok(roles.take().unwrap()));
            let err = runner.supervise(ITERS, &mut fleet).unwrap_err().to_string();
            assert!(err.contains("other role kind"), "{role:?}: {err}");
        }
    }

    #[test]
    fn attempts_counts_every_attempt() {
        let path = ckpt("count");
        let (runner, graph) = job(Some(path.clone()), 3);
        let mut fleet = fake(|n, start| {
            if n < 3 {
                return failed(n);
            }
            ok(vec![
                worker(&graph, 0, start, 1.0),
                worker(&graph, 1, start, 1.0),
            ])
        });
        let report = runner.supervise(ITERS, &mut fleet).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(report.attempts, 3);
        assert_eq!(report.losses, vec![1.0; ITERS]);
    }
}
