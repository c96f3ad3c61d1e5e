//! Host-side measurement primitives (Linux): the process CPU clock, CPU
//! pinning, and `/proc/self/status` counters.
//!
//! The three libc calls are declared here rather than pulled from a crate:
//! the build is offline and std already links libc.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// 1024 CPUs, the kernel's default `cpu_set_t`.
type CpuSet = [u64; 16];

/// `struct rusage`: two `struct timeval` (seconds, microseconds), then
/// fourteen `long` counters this benchmark does not read.
#[repr(C)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_CHILDREN: i32 = -1;

/// CPU time (user + system) of every child process this one has started
/// and waited for, from their `exec` to the end of their exit — the part
/// of a repetition's cost its own process cannot see.
pub fn children_cpu_ns() -> u64 {
    let mut ru = Rusage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `ru` is a valid, writable `struct rusage` (144 bytes on
    // 64-bit Linux) for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    let ns = |t: [i64; 2]| t[0] as u64 * 1_000_000_000 + t[1] as u64 * 1_000;
    ns(ru.ru_utime) + ns(ru.ru_stime)
}

/// CPU time consumed by every thread of this process since it started, in
/// nanoseconds. This is the host clock of the benchmark: unlike wall time
/// it does not count the moments another process held the core.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPUs this process may run on, ascending. Empty if the kernel refuses.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is writable and exactly `size_of::<CpuSet>()` bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..set.len() * 64)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pin the calling thread — and every thread it spawns afterwards — to one
/// CPU. Call before anything else runs. Returns false if refused.
pub fn pin_to_cpu(cpu: usize) -> bool {
    let mut set: CpuSet = [0; 16];
    if cpu >= set.len() * 64 {
        return false;
    }
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is readable and exactly `size_of::<CpuSet>()` bytes.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

/// A numeric field of `/proc/self/status`, e.g. `VmHWM` (kB) or `Threads`.
pub fn proc_status(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        let rest = l.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > t0);
    }

    #[test]
    fn children_cpu_counts_a_child_that_worked() {
        let before = children_cpu_ns();
        let status = std::process::Command::new("sh")
            .args(["-c", "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done"])
            .status()
            .expect("sh runs");
        assert!(status.success());
        assert!(children_cpu_ns() > before);
    }

    #[test]
    fn proc_status_reads_threads_and_hwm() {
        assert!(proc_status("Threads").unwrap() >= 1);
        assert!(proc_status("VmHWM").unwrap() > 0);
        assert_eq!(proc_status("NoSuchKey"), None);
    }

    #[test]
    fn this_process_is_allowed_somewhere() {
        assert!(!allowed_cpus().is_empty());
    }
}
