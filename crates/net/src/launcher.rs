//! Chief-side process launcher for local test topologies.
//!
//! Spawns one OS process per role, waits for the fleet with a
//! wall-clock deadline, and guarantees no orphans: the first failure
//! (or the deadline) kills every survivor. Respawn policy — recovery
//! from a checkpoint after a killed worker — lives in the caller
//! (`parallax_core`'s recovery supervisor, driving `repro dist`'s
//! process fleet); this module only runs one *generation* of processes.

use std::io;
use std::net::TcpListener;
use std::process::{Child, Command};
use std::time::{Duration, Instant};

/// Allocates `n` distinct free TCP ports on 127.0.0.1 by binding
/// ephemeral listeners, collecting their ports, then releasing them.
/// All listeners are held until every port is collected so the set is
/// duplicate-free. (The usual caveat applies: the ports are free *now*;
/// the caller should bind them promptly. Fresh ports are allocated per
/// process generation, which also sidesteps TIME_WAIT on respawn.)
pub fn free_local_ports(n: usize) -> io::Result<Vec<u16>> {
    let mut listeners = Vec::with_capacity(n);
    let mut ports = Vec::with_capacity(n);
    for _ in 0..n {
        let l = TcpListener::bind("127.0.0.1:0")?;
        ports.push(l.local_addr()?.port());
        listeners.push(l);
    }
    Ok(ports)
}

/// One generation of spawned role processes.
pub struct Fleet {
    children: Vec<(String, Child)>,
}

/// How one generation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetOutcome {
    /// Every process exited with status 0.
    AllOk,
    /// A process exited nonzero (survivors were killed).
    Failed {
        /// The failed process's label.
        label: String,
        /// Its exit code, if the OS reported one.
        code: Option<i32>,
    },
    /// The wall-clock deadline expired (everything was killed).
    DeadlineExpired {
        /// Labels of the processes still running at the deadline.
        still_running: Vec<String>,
    },
}

impl Fleet {
    /// Spawns every `(label, command)` pair. On any spawn failure the
    /// already-started children are killed before the error returns.
    pub fn spawn(cmds: Vec<(String, Command)>) -> io::Result<Fleet> {
        let mut children = Vec::with_capacity(cmds.len());
        for (label, mut cmd) in cmds {
            match cmd.spawn() {
                Ok(child) => children.push((label, child)),
                Err(e) => {
                    let mut fleet = Fleet { children };
                    fleet.kill_all();
                    return Err(e);
                }
            }
        }
        Ok(Fleet { children })
    }

    /// Polls the fleet until every process exits, one fails, or
    /// `deadline` passes. On failure or deadline every survivor is
    /// killed and reaped, so no generation leaks processes.
    pub fn wait_all(&mut self, deadline: Duration) -> FleetOutcome {
        let end = Instant::now() + deadline;
        let mut done = vec![false; self.children.len()];
        loop {
            let mut running = 0;
            for (i, (label, child)) in self.children.iter_mut().enumerate() {
                if done[i] {
                    continue;
                }
                match child.try_wait() {
                    Ok(Some(status)) if status.success() => done[i] = true,
                    Ok(Some(status)) => {
                        let failed = FleetOutcome::Failed {
                            label: label.clone(),
                            code: status.code(),
                        };
                        self.kill_all();
                        return failed;
                    }
                    Ok(None) => running += 1,
                    Err(_) => done[i] = true,
                }
            }
            if running == 0 {
                return FleetOutcome::AllOk;
            }
            if Instant::now() >= end {
                let mut still_running = Vec::new();
                for (label, child) in &mut self.children {
                    if matches!(child.try_wait(), Ok(None)) {
                        still_running.push(label.clone());
                    }
                }
                self.kill_all();
                return FleetOutcome::DeadlineExpired { still_running };
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Kills and reaps every child still running.
    pub fn kill_all(&mut self) {
        for (_, child) in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.kill_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_ports_are_distinct() {
        let ports = free_local_ports(8).unwrap();
        let mut sorted = ports.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
    }

    fn sh(label: &str, script: &str) -> (String, Command) {
        let mut c = Command::new("sh");
        c.arg("-c").arg(script);
        (label.to_string(), c)
    }

    #[test]
    fn fleet_all_ok() {
        let mut fleet = Fleet::spawn(vec![sh("a", "true"), sh("b", "true")]).unwrap();
        assert_eq!(fleet.wait_all(Duration::from_secs(10)), FleetOutcome::AllOk);
    }

    #[test]
    fn fleet_failure_kills_survivors() {
        let start = Instant::now();
        let mut fleet =
            Fleet::spawn(vec![sh("fast-fail", "exit 3"), sh("slow", "sleep 30")]).unwrap();
        match fleet.wait_all(Duration::from_secs(20)) {
            FleetOutcome::Failed { label, code } => {
                assert_eq!(label, "fast-fail");
                assert_eq!(code, Some(3));
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        // The sleeper was killed, not waited out.
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn fleet_deadline_kills_everything() {
        let mut fleet = Fleet::spawn(vec![sh("hung", "sleep 30")]).unwrap();
        match fleet.wait_all(Duration::from_millis(200)) {
            FleetOutcome::DeadlineExpired { still_running } => {
                assert_eq!(still_running, vec!["hung".to_string()]);
            }
            other => panic!("expected DeadlineExpired, got {other:?}"),
        }
    }
}
