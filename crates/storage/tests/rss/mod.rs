//! Peak-RSS measurement for the memory-bound tests. Each such test is a
//! binary of its own with one test in it, because `VmHWM` is per
//! process and any neighbour's allocations would land in the figure.

use std::fs;

pub const MIB: u64 = 1 << 20;

/// One `kB` field of `/proc/self/status`, in bytes.
pub fn status_bytes(field: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"));
    let kb: u64 = line
        .trim()
        .strip_suffix("kB")
        .expect("kB unit")
        .trim()
        .parse()
        .expect("numeric field");
    kb * 1024
}

/// How far `f` pushes the process's peak RSS above where it stands when
/// `f` starts. The peak is reset first where the kernel allows it
/// (`clear_refs`); where it does not, the old peak only makes the
/// figure larger, never smaller.
pub fn peak_rise<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let _ = fs::write("/proc/self/clear_refs", "5");
    let before = status_bytes("VmRSS");
    let out = f();
    (status_bytes("VmHWM").saturating_sub(before), out)
}
