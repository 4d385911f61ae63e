//! What the benchmark reads from the operating system: resident memory
//! for `rss_growth_mib`, and the CPU time a hypervisor took away.
//!
//! Rounds repeat in one process, so memory a previous round freed would
//! sit in the allocator and hide this round's growth. Before each round
//! the free memory goes back to the kernel (glibc `malloc_trim`), so
//! growth measured from `/proc/self/status` is memory the round touched.

/// Resident set size from `/proc/self/status` (`VmRSS`), in bytes; 0
/// where the file is unavailable.
pub fn rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kib| kib * 1024)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Returns freed heap memory of every malloc arena to the kernel.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes a plain byte count, touches only the
    // allocator's own free lists and is thread-safe in glibc.
    unsafe {
        malloc_trim(0);
    }
}

/// Clock ticks (1/100 s) the hypervisor ran something else while one of
/// this machine's CPUs wanted to run: the `steal` column of the `cpu`
/// line of `/proc/stat`, summed over all CPUs. 0 where unavailable.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            stat.lines()
                .next()
                .and_then(|cpu| cpu.split_whitespace().nth(8))
                .and_then(|steal| steal.parse::<u64>().ok())
        })
        .unwrap_or(0)
}
