//! Resident memory of this process, from `/proc/self/status`.
//!
//! `peak_rss_mib` is meant to cover the program, not the harness that
//! builds its inputs and expected outputs. So a workload drops those
//! tables, returns the freed heap to the system and resets the kernel's
//! high-water mark before its measuring phase starts
//! (`setup::Outcome::begin_measuring`).

/// A `/proc/self/status` field in MiB (0 where it is unavailable).
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident memory (`VmHWM`) since the process started or since the
/// last [`reset_peak`], in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Current resident memory (`VmRSS`), in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// Reset `VmHWM` to the current resident size (Linux `clear_refs` 5).
pub fn reset_peak() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("reset peak memory through /proc/self/clear_refs: {e}"))
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand the allocator's free pages back to the system, so that memory the
/// harness freed does not stay resident and hide the program's growth.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes no pointers and only releases free
    // pages of glibc's heap, which the Rust global allocator sits on.
    unsafe {
        malloc_trim(0);
    }
}
