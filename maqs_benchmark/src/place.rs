//! Where threads run, and who goes first. The system under test and its
//! callers share one CPU (the "work" CPU): a wake-up that crosses vCPUs
//! costs 20-30 us on the build box and that cost moves with the host.
//! The open loop's sender shares it too, but must issue on a clock no
//! matter what the system is doing, so it runs at real-time priority:
//! when its timer fires it preempts whichever ORB thread is running
//! instead of queueing behind it. See README.md, "Placement".

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Words of a kernel CPU mask: room for 1024 CPUs.
const MASK_WORDS: usize = 16;
const PR_SET_TIMERSLACK: i32 = 29;
const SCHED_FIFO: i32 = 1;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

static WORK_CPU: OnceLock<Option<usize>> = OnceLock::new();
static REALTIME_REFUSED: AtomicBool = AtomicBool::new(false);

/// CPUs the calling thread may run on, ascending.
fn allowed() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64).filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
}

/// Restrict the calling thread (and every thread it starts later) to
/// `cpu`.
fn pin(cpu: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0
    // names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Move the calling thread to the work CPU: the last one it is allowed,
/// because the first is where a VM's interrupts and every other process
/// land. Call once, first thing in `main`, so that every later thread
/// (and the RSS probe's process) inherits it. Returns the CPU, or `None`
/// where the kernel refuses and nothing is pinned.
pub fn init() -> Option<usize> {
    *WORK_CPU.get_or_init(|| allowed().last().copied().filter(|&cpu| pin(cpu)))
}

/// The CPU `init` chose (`None` before `init`, as in unit tests).
pub fn work_cpu() -> Option<usize> {
    WORK_CPU.get().copied().flatten()
}

/// Make the calling thread the open-loop sender: first-in-first-out
/// real-time priority, so that it runs the moment its timer fires, and
/// precise sleeps (the default 50 us timer slack would be a quarter of
/// its lateness budget). Without the privilege the sender stays an
/// ordinary thread and `generator_sched` says so; whether it kept its
/// schedule is measured either way.
pub fn become_generator() {
    let priority = 1i32;
    // SAFETY: `sched_param` is a struct of one int; pid 0 names the
    // calling thread; the pointer is to a live local.
    if unsafe { sched_setscheduler(0, SCHED_FIFO, &priority) } != 0 {
        REALTIME_REFUSED.store(true, Ordering::Relaxed);
    }
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument (nanoseconds)
    // and affects only the calling thread.
    unsafe { prctl(PR_SET_TIMERSLACK, 1_000u64) };
}

/// How the open-loop sender is scheduled in this process, for `env`.
pub fn generator_sched() -> &'static str {
    if REALTIME_REFUSED.load(Ordering::Relaxed) {
        "other (SCHED_FIFO refused)"
    } else {
        "fifo"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_thread_is_allowed_exactly_one_cpu() {
        let before = allowed();
        assert!(!before.is_empty());
        let target = before[0];
        std::thread::spawn(move || {
            assert!(pin(target));
            assert_eq!(allowed(), vec![target]);
        })
        .join()
        .unwrap();
        // Pinning a thread leaves its parent alone.
        assert_eq!(allowed(), before);
        assert!(work_cpu().is_none(), "unit tests never call init");
    }

    #[test]
    fn becoming_the_generator_never_fails_the_thread() {
        std::thread::spawn(|| {
            become_generator();
            assert!(["fifo", "other (SCHED_FIFO refused)"].contains(&generator_sched()));
        })
        .join()
        .unwrap();
    }
}
