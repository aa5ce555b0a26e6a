//! Confining the process to one core.
//!
//! `routed_repeat` runs client, router and two shards in this process:
//! one routed search is about twenty hand-offs between their threads.
//! Spread over the two virtual cores of a shared host, most hand-offs
//! are an inter-processor interrupt and the wake-up of a halted core,
//! and both cost whatever the hypervisor makes them cost at that moment
//! — the same seed gave a median search of 0.65 to 1.02 ms in five runs
//! one after the other. On one core a hand-off is a context switch, the
//! core never halts (the closed loop always has a runnable thread), and
//! three runs of that seed gave 0.50 to 0.52 ms. See README.md § Noise.
//!
//! The only `unsafe` in the benchmark: two calls into the C library that
//! `std` links anyway.

#![allow(unsafe_code)]

/// Words of a CPU mask: room for 1,024 cores, glibc's `cpu_set_t`.
#[cfg(target_os = "linux")]
const WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread — and every thread it starts from now
/// on — to the lowest-numbered core it may run on. Returns that core,
/// or `None` where the host would not say or would not do it (the run
/// then goes on unpinned).
#[cfg(target_os = "linux")]
pub fn pin_to_one_core() -> Option<usize> {
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let core = (0..WORDS * 64).find(|c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[core / 64] = 1 << (core % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    (unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } == 0)
        .then_some(core)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_core() -> Option<usize> {
    None
}
