//! Thread placement. On a host with fewer cores than roles, the
//! scheduler's placement of the worker threads decides whether they
//! compute in parallel or take turns, and it changes from second to
//! second. The benchmark therefore places threads itself: worker `w`
//! runs on the `w`-th core this process may use (modulo their number),
//! like one machine per core; other threads keep the process's mask.

use std::cell::Cell;

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t`: a 1024-bit mask.
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    /// The cores the calling thread may run on.
    pub fn allowed() -> Vec<usize> {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed, and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        if rc != 0 {
            return Vec::new();
        }
        (0..1024)
            .filter(|&c| mask[c / 64] & (1u64 << (c % 64)) != 0)
            .collect()
    }

    /// Restricts the calling thread to `cpus` (best effort).
    pub fn set(cpus: &[usize]) {
        let mut mask: CpuSet = [0; 16];
        for &cpu in cpus.iter().filter(|&&c| c < 1024) {
            mask[cpu / 64] |= 1u64 << (cpu % 64);
        }
        // SAFETY: `mask` is a live buffer of exactly the size passed,
        // only read by the call, and pid 0 names the calling thread.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn set(_cpus: &[usize]) {}
}

thread_local! {
    static PLACED: Cell<bool> = const { Cell::new(false) };
}

/// The cores this process may use, lowest first, read once before any
/// thread is pinned.
fn cores() -> &'static [usize] {
    static CORES: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CORES.get_or_init(sys::allowed)
}

/// Pins the calling thread to the `slot`-th allowed core (modulo their
/// number). Does nothing when the mask cannot be read.
pub fn pin_slot(slot: usize) {
    let cores = cores();
    if !cores.is_empty() {
        sys::set(&[cores[slot % cores.len()]]);
    }
}

/// Lets the calling thread run on every core the process started with.
pub fn unpin() {
    let cores = cores();
    if !cores.is_empty() {
        sys::set(cores);
    }
}

/// [`pin_slot`] once per thread: for hooks that run every step on
/// threads the runner creates.
pub fn pin_slot_once(slot: usize) {
    if !PLACED.with(|p| p.replace(true)) {
        pin_slot(slot);
    }
}
