//! Where and on what a result was measured (`env` block), the
//! whole-process counters read around a window, and the speed reference.

use crate::json::{obj, Value};
use std::process::Command;
use std::sync::atomic::Ordering;
use std::sync::mpsc;

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// Process CPU time (user + system, all threads) in microseconds. From
/// the process CPU clock, not `/proc/self/stat`: that counts in 10 ms
/// ticks, which is 3 % of what the open loop uses in a one-second
/// window.
pub fn process_cpu_us() -> f64 {
    let mut now = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `now` is a live, writable `timespec` of the layout the
    // call expects on this target.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) } != 0 {
        return 0.0;
    }
    now.tv_sec as f64 * 1e6 + now.tv_nsec as f64 / 1e3
}

/// The speed reference: microseconds per round trip of a token handed
/// back and forth between two threads over `std::sync::mpsc` channels
/// (two futex wake-ups and two context switches on the work CPU, the
/// path every ORB call is made of; no product code). The fastest of
/// three blocks of 1 000 round trips, about 13 ms in all.
pub fn reference_round_trip_us() -> f64 {
    const BLOCKS: usize = 3;
    const ROUND_TRIPS: u32 = 1_000;
    let (to_echo, echo_in) = mpsc::channel::<u32>();
    let (to_caller, caller_in) = mpsc::channel::<u32>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for token in echo_in {
                if to_caller.send(token).is_err() {
                    break;
                }
            }
        });
        let mut best = f64::INFINITY;
        for _ in 0..BLOCKS {
            let t0 = std::time::Instant::now();
            for token in 0..ROUND_TRIPS {
                to_echo.send(token).expect("echo thread is alive");
                caller_in.recv().expect("echo thread is alive");
            }
            best = best.min(t0.elapsed().as_secs_f64() * 1e6 / f64::from(ROUND_TRIPS));
        }
        // Hanging up ends the echo thread, which the scope then joins.
        drop(to_echo);
        best
    })
}

fn status_field(status: &str, key: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM"))
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Live threads of this process.
pub fn thread_count() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "Threads"))
        .unwrap_or(0.0)
}

/// Voluntary + involuntary context switches summed over live threads.
/// Threads that exit take their counts with them, so read it around a
/// window whose threads outlive the second read.
pub fn context_switches() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0.0 };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches").unwrap_or(0.0)
                + status_field(&s, "nonvoluntary_ctxt_switches").unwrap_or(0.0)
        })
        .sum()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The `env` block of a result document.
pub fn env_block(seed: u64, rounds: usize, window_s: f64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    // run.sh records which dependency set the binary was linked against;
    // a binary started by hand cannot know.
    let dep_mode = std::env::var("MAQS_BENCH_DEP_MODE").unwrap_or_else(|_| "unknown".to_string());
    let commit = std::env::var("MAQS_BENCH_COMMIT")
        .ok()
        .filter(|c| !c.is_empty())
        .or_else(|| command_line("git", &["rev-parse", "HEAD"]))
        .unwrap_or_else(|| "unknown".to_string());
    let cpus_allowed = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    obj([
        ("nproc", Value::from(nproc)),
        ("cpus_allowed", Value::from(cpus_allowed)),
        ("work_cpu", crate::place::work_cpu().map_or(Value::Null, Value::from)),
        ("generator_sched", Value::from(crate::place::generator_sched())),
        ("dep_mode", Value::from(dep_mode)),
        ("commit", Value::from(commit)),
        (
            "rustc",
            Value::from(command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string())),
        ),
        ("seed", Value::from(seed)),
        ("rounds", Value::from(rounds)),
        ("window_seconds", Value::from(window_s)),
    ])
}

/// Heap allocation counters `(allocations, bytes)` accumulated while
/// [`count_allocations`] was on.
pub fn alloc_counters() -> (f64, f64) {
    (
        counting::ALLOCS.load(Ordering::Relaxed) as f64,
        counting::BYTES.load(Ordering::Relaxed) as f64,
    )
}

/// Switch allocation counting on or off. It is on only around the
/// observed window of the traced pass: the end-to-end pass pays one
/// relaxed load per allocation and nothing else.
pub fn count_allocations(on: bool) {
    counting::ENABLED.store(on, Ordering::Relaxed);
}

/// A counting wrapper around the system allocator (precedent:
/// `crates/orb/tests/alloc_framing.rs`).
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    pub static ENABLED: AtomicBool = AtomicBool::new(false);
    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
    pub static BYTES: AtomicU64 = AtomicU64::new(0);

    struct CountingAlloc;

    fn note(bytes: usize) {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the only addition is a
    // pair of atomic counter updates that touch no allocator state.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            // SAFETY: `layout` is the caller's, passed through as is.
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` was returned by `System` for this `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // A growing buffer is a hidden second allocation: count it.
            note(new_size);
            // SAFETY: arguments are the caller's, passed through as is.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mib() > 0.5);
        assert!(thread_count() >= 1.0);
        assert!(context_switches() >= 0.0);
        let before = process_cpu_us();
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu_us() >= before + 20_000.0);
    }

    #[test]
    fn reference_round_trip_is_a_small_positive_time() {
        let us = reference_round_trip_us();
        assert!(us > 0.05 && us < 5_000.0, "{us}");
    }

    #[test]
    fn allocations_counted_only_while_enabled() {
        let (a0, _) = alloc_counters();
        count_allocations(true);
        let v = std::hint::black_box(vec![0u8; 4096]);
        count_allocations(false);
        let (a1, b1) = alloc_counters();
        drop(v);
        assert!(a1 >= a0 + 1.0 && b1 >= 4096.0);
    }

    #[test]
    fn status_field_parses_kib_and_counts() {
        let s = "Name:\tx\nVmHWM:\t   2048 kB\nThreads:\t7\n";
        assert_eq!(status_field(s, "VmHWM"), Some(2048.0));
        assert_eq!(status_field(s, "Threads"), Some(7.0));
        assert_eq!(status_field(s, "Nope"), None);
    }
}
