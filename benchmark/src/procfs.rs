//! What `/proc/<pid>` says about a daemon: CPU time, peak memory and
//! bytes sent to the block layer.

use std::fs;
use std::io;

/// Kernel clock ticks per second behind `utime`/`stime`. Linux has
/// fixed `USER_HZ` at 100 on every architecture Rust targets.
pub const TICKS_PER_SECOND: u64 = 100;

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line, in
/// clock ticks; they cover every thread of the process, dead ones too.
/// The command name (field 2) may hold spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `kB` line of `/proc/<pid>/status`, such as `VmHWM` (peak RSS).
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// `write_bytes` of `/proc/<pid>/io`: bytes this process caused to be
/// sent to the storage layer.
pub fn parse_io_write_bytes(io: &str) -> Option<u64> {
    io.lines().find_map(|line| line.strip_prefix("write_bytes:")?.trim().parse().ok())
}

fn read(pid: u32, file: &str) -> io::Result<String> {
    fs::read_to_string(format!("/proc/{pid}/{file}"))
}

fn malformed(pid: u32, file: &str) -> io::Error {
    io::Error::other(format!("cannot parse /proc/{pid}/{file}"))
}

pub fn cpu_micros(pid: u32) -> io::Result<u64> {
    let ticks = parse_stat_cpu_ticks(&read(pid, "stat")?).ok_or_else(|| malformed(pid, "stat"))?;
    Ok(ticks * 1_000_000 / TICKS_PER_SECOND)
}

pub fn peak_rss_kb(pid: u32) -> io::Result<u64> {
    parse_status_kb(&read(pid, "status")?, "VmHWM").ok_or_else(|| malformed(pid, "status"))
}

pub fn write_bytes(pid: u32) -> io::Result<u64> {
    parse_io_write_bytes(&read(pid, "io")?).ok_or_else(|| malformed(pid, "io"))
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`
/// (longest mount-point prefix wins).
pub fn fs_type(path: &std::path::Path) -> String {
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_owned(), |(_, t)| t.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_survives_a_hostile_command_name() {
        let stat = "4242 (esr tcpd) (x) S 1 4242 4242 0 -1 4194560 310 0 0 0 \
                    137 41 0 0 20 0 9 0 1603829 2703360 310";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(137 + 41));
        assert_eq!(parse_stat_cpu_ticks("1 (short) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn status_and_io_lines() {
        let status =
            "Name:\tesr-tcpd\nVmPeak:\t  999 kB\nVmHWM:\t    1256 kB\nVmRSS:\t    1200 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(1256));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1200));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        let io =
            "rchar: 3980\nwchar: 0\nread_bytes: 0\nwrite_bytes: 8192\ncancelled_write_bytes: 0\n";
        assert_eq!(parse_io_write_bytes(io), Some(8192));
        assert_eq!(parse_io_write_bytes("rchar: 1\n"), None);
    }

    #[test]
    fn reads_this_process() {
        let me = std::process::id();
        assert!(peak_rss_kb(me).unwrap() > 0);
        cpu_micros(me).unwrap();
        write_bytes(me).unwrap();
    }
}
