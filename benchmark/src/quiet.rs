//! Keeps a run off this virtual machine's wake-up lottery.
//!
//! On this box a thread woken on the *other* virtual CPU costs 15-35 us
//! (an inter-processor interrupt is a VM exit) against 5 us on the same
//! one, and a CPU that has halted costs as much again to wake. Which
//! threads share a CPU is the scheduler's choice and changes from run to
//! run, so unpinned runs of one commit spread 10-20% and spend half the
//! daemon's CPU time in those exits. Two measures remove both effects:
//!
//! - the benchmark pins itself, and with it every thread and daemon it
//!   starts, to **one** CPU, so no wake-up crosses CPUs;
//! - a thread at nice 19 spins on that CPU, so the CPU never halts while
//!   a commit waits for the disk. It runs only when nothing else wants
//!   the CPU (weight 15 against 1024) and belongs to the benchmark's
//!   process, not the daemon's, so `server_cpu_us_per_txn` does not see it.
//!
//! The second CPU is left to the operating system and the driver.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn setpriority(which: i32, who: u32, prio: i32) -> i32;
}

fn affinity() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable cpu_set_t of the size passed.
    let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut set) };
    (rc == 0).then_some(set)
}

fn set_affinity(set: &CpuSet) -> bool {
    // SAFETY: `set` is a valid cpu_set_t of the size passed.
    unsafe { sched_setaffinity(0, size_of::<CpuSet>(), set) == 0 }
}

/// While this lives, the calling thread — and every thread and process
/// started from it — runs on one CPU that never halts. Dropping it stops
/// the spinner and gives the thread its CPUs back.
pub struct Quiet {
    before: Option<CpuSet>,
    /// The CPU everything runs on; `None` if the kernel refused to pin.
    pub cpu: Option<u64>,
    /// Whether the nice-19 spinner runs.
    pub keep_awake: bool,
    stop: Arc<AtomicBool>,
    spinner: Option<JoinHandle<()>>,
}

impl Quiet {
    /// Pin to the highest CPU the process may use (the lowest takes the
    /// kernel's housekeeping) and start the spinner there. Where pinning
    /// is refused the run goes on unpinned, and says so in `env`.
    pub fn enter() -> Quiet {
        let before = affinity();
        let cpu = before.and_then(|set| {
            let word = set.iter().rposition(|w| *w != 0)?;
            let cpu = word as u64 * 64 + 63 - u64::from(set[word].leading_zeros());
            let mut one: CpuSet = [0; 16];
            one[word] = 1 << (cpu % 64);
            set_affinity(&one).then_some(cpu)
        });
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel();
        let spinner = cpu.map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // On Linux `who` 0 is the calling thread. A spinner that
                // could not lower its priority would take half the CPU.
                // SAFETY: plain system call, no pointers.
                let lowered = unsafe { setpriority(0, 0, 19) } == 0;
                let _ = tx.send(lowered);
                while lowered && !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        });
        let keep_awake = spinner.is_some() && rx.recv().unwrap_or(false);
        Quiet { before, cpu, keep_awake, stop, spinner }
    }
}

impl Drop for Quiet {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(spinner) = self.spinner.take() {
            let _ = spinner.join();
        }
        if let (Some(_), Some(before)) = (self.cpu, &self.before) {
            set_affinity(before);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_to_one_allowed_cpu_and_restores() {
        let before = affinity().expect("sched_getaffinity");
        {
            let quiet = Quiet::enter();
            let cpu = quiet.cpu.expect("pinning is allowed here");
            let now = affinity().unwrap();
            assert_eq!(now.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_ne!(before[(cpu / 64) as usize] & (1 << (cpu % 64)), 0);
            assert!(quiet.keep_awake);
        }
        assert_eq!(affinity().unwrap(), before);
    }
}
