//! Whole-process fault injection: run `esr-tcpd` as a child process
//! and kill it without warning.
//!
//! The in-process [`crate::FaultProxy`] can sever connections, but a
//! severed connection still leaves the server's memory intact. The
//! durability claims of the write-ahead log are about a harsher fault:
//! the entire server process dying mid-commit, mid-fsync, or mid-
//! checkpoint. [`ServerProc`] spawns the real daemon binary pointed at
//! a data directory, waits for its listening line, and exposes
//! [`ServerProc::kill`] (SIGKILL — no destructors, no flushes, exactly
//! like a power cut as far as user space is concerned). Restarting with
//! the same directory exercises the daemon's own recovery path, not a
//! test re-implementation of it.
//!
//! The crash tests additionally arm the daemon's `--wal-torn-after N`
//! injector, which makes the *server itself* abort midway through
//! writing record `N` — the torn-write case a SIGKILL from outside can
//! only hit by luck.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Options for spawning an `esr-tcpd` child.
#[derive(Debug, Clone)]
pub struct ServerProcOptions {
    /// Path to the `esr-tcpd` binary (tests use `env!("CARGO_BIN_EXE_esr-tcpd")`).
    pub binary: PathBuf,
    /// Data directory passed as `--data-dir`; `None` runs the daemon
    /// in-memory (no durability, nothing to recover).
    pub data_dir: Option<PathBuf>,
    /// Objects in the (first-boot) database.
    pub objects: usize,
    /// Initial value of every object.
    pub value: i64,
    /// Lease length in microseconds (0 = leases off).
    pub lease_micros: u64,
    /// Checkpoint cadence in seconds (0 = periodic checkpoints off).
    pub checkpoint_secs: u64,
    /// Arm the WAL torn-write injector at this record sequence.
    pub wal_torn_after: Option<u64>,
    /// Back the object table with the paged buffer pool, capped at
    /// this many cached pages (`--cache-pages`; durable only).
    pub cache_pages: Option<usize>,
    /// Arm the pager's torn-extent injector at this dirty-page
    /// write-back count (`--page-torn-after`; requires `cache_pages`).
    pub page_torn_after: Option<u64>,
    /// Serve the metrics endpoint on an ephemeral port and capture its
    /// address ([`ServerProc::metrics_addr`]).
    pub metrics: bool,
    /// Run the live conformance monitor (`--monitor`).
    pub monitor: bool,
    /// Capture-log retention bound (`--monitor-capacity`).
    pub monitor_capacity: Option<usize>,
    /// Arm the monitor's planted-violation injector after this many
    /// observed events (`--monitor-plant-after`).
    pub monitor_plant_after: Option<u64>,
    /// Serve WAL log shipping on an ephemeral port (`--repl-addr`)
    /// and capture its address ([`ServerProc::repl_addr`]). Durable
    /// only.
    pub repl: bool,
    /// Bump the stored replication epoch before serving
    /// (`--promote`); requires `repl`.
    pub promote: bool,
    /// Run as a read-only replica of this primary shipping address
    /// (`--replica-of`). Durable only; mutually exclusive with `repl`.
    pub replica_of: Option<String>,
    /// Slow the replica's apply thread by this many microseconds per
    /// record (`--repl-apply-delay-micros`).
    pub repl_apply_delay_micros: Option<u64>,
}

impl ServerProcOptions {
    /// Defaults for a small crash-test database.
    pub fn new(binary: impl Into<PathBuf>, data_dir: impl Into<PathBuf>) -> Self {
        ServerProcOptions {
            data_dir: Some(data_dir.into()),
            ..ServerProcOptions::in_memory(binary)
        }
    }

    /// Defaults for an in-memory daemon (no data directory) — what the
    /// monitor soak harness drives.
    pub fn in_memory(binary: impl Into<PathBuf>) -> Self {
        ServerProcOptions {
            binary: binary.into(),
            data_dir: None,
            objects: 16,
            value: 1000,
            lease_micros: 0,
            checkpoint_secs: 0,
            wal_torn_after: None,
            cache_pages: None,
            page_torn_after: None,
            metrics: false,
            monitor: false,
            monitor_capacity: None,
            monitor_plant_after: None,
            repl: false,
            promote: false,
            replica_of: None,
            repl_apply_delay_micros: None,
        }
    }
}

/// A running `esr-tcpd` child process.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    repl_addr: Option<SocketAddr>,
}

impl ServerProc {
    /// Spawn the daemon on an ephemeral port and wait until its
    /// "listening on" line reports the bound address (and, with
    /// [`ServerProcOptions::metrics`], until the metrics line reports
    /// the endpoint's).
    pub fn spawn(opts: &ServerProcOptions) -> io::Result<ServerProc> {
        let mut cmd = Command::new(&opts.binary);
        cmd.arg("127.0.0.1:0")
            .arg("--objects")
            .arg(opts.objects.to_string())
            .arg("--value")
            .arg(opts.value.to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(dir) = &opts.data_dir {
            cmd.arg("--data-dir")
                .arg(dir)
                .arg("--checkpoint-secs")
                .arg(opts.checkpoint_secs.to_string());
        }
        if opts.lease_micros > 0 {
            cmd.arg("--lease-micros").arg(opts.lease_micros.to_string());
        }
        if let Some(n) = opts.wal_torn_after {
            cmd.arg("--wal-torn-after").arg(n.to_string());
        }
        if let Some(n) = opts.cache_pages {
            cmd.arg("--cache-pages").arg(n.to_string());
        }
        if let Some(n) = opts.page_torn_after {
            cmd.arg("--page-torn-after").arg(n.to_string());
        }
        if opts.metrics {
            cmd.arg("--metrics-addr").arg("127.0.0.1:0");
        }
        if opts.monitor {
            cmd.arg("--monitor");
        }
        if let Some(cap) = opts.monitor_capacity {
            cmd.arg("--monitor-capacity").arg(cap.to_string());
        }
        if let Some(n) = opts.monitor_plant_after {
            cmd.arg("--monitor-plant-after").arg(n.to_string());
        }
        if opts.repl {
            cmd.arg("--repl-addr").arg("127.0.0.1:0");
        }
        if opts.promote {
            cmd.arg("--promote");
        }
        if let Some(primary) = &opts.replica_of {
            cmd.arg("--replica-of").arg(primary);
        }
        if let Some(n) = opts.repl_apply_delay_micros {
            cmd.arg("--repl-apply-delay-micros").arg(n.to_string());
        }
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("stdout piped");
        let (addr, metrics_addr, repl_addr) =
            match wait_for_listen_lines(stdout, &mut child, opts.metrics, opts.repl) {
                Ok(triple) => triple,
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(e);
                }
            };
        Ok(ServerProc {
            child,
            addr,
            metrics_addr,
            repl_addr,
        })
    }

    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's process id (for `/proc/<pid>` accounting).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The metrics endpoint's bound address, when spawned with
    /// [`ServerProcOptions::metrics`].
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The replication (log-shipping) listener's bound address, when
    /// spawned with [`ServerProcOptions::repl`].
    pub fn repl_addr(&self) -> Option<SocketAddr> {
        self.repl_addr
    }

    /// SIGKILL the daemon — no shutdown hooks, no flushes — and reap
    /// the zombie. Idempotent once the child is gone.
    pub fn kill(&mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait()?;
        Ok(())
    }

    /// Wait (bounded) for the child to exit on its own — used with the
    /// torn-write injector, where the *server* aborts itself. Returns
    /// `true` if it exited within `timeout`.
    pub fn wait_exit(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return true,
                Ok(None) => {
                    if Instant::now() >= deadline {
                        return false;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => return true,
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Read the child's stdout until the "listening on ADDR" line appears —
/// and, when `want_metrics`, until the "metrics on http://ADDR/metrics"
/// line that follows it. The recovery summary line (printed first on
/// durable boots) is swallowed here; stdout is drained on a detached
/// thread afterwards so the child never blocks on a full pipe.
fn wait_for_listen_lines(
    stdout: std::process::ChildStdout,
    child: &mut Child,
    want_metrics: bool,
    want_repl: bool,
) -> io::Result<(SocketAddr, Option<SocketAddr>, Option<SocketAddr>)> {
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    let mut addr: Option<SocketAddr> = None;
    let mut metrics_addr: Option<SocketAddr> = None;
    let mut repl_addr: Option<SocketAddr> = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            // EOF: the child died before listening (e.g. the torn-write
            // injector armed at a seq recovery itself replays).
            let status = child.wait()?;
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("esr-tcpd exited before listening: {status}"),
            ));
        }
        if let Some(rest) = line.trim().strip_prefix("esr-tcpd listening on ") {
            let addr_str = rest.split_whitespace().next().unwrap_or(rest);
            addr = Some(addr_str.parse().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("cannot parse listen address {addr_str:?}: {e}"),
                )
            })?);
        } else if let Some(rest) = line.trim().strip_prefix("esr-tcpd metrics on http://") {
            let addr_str = rest.trim_end_matches("/metrics");
            metrics_addr = Some(addr_str.parse().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("cannot parse metrics address {addr_str:?}: {e}"),
                )
            })?);
        } else if let Some(rest) = line.trim().strip_prefix("esr-tcpd replication on ") {
            let addr_str = rest.split_whitespace().next().unwrap_or(rest);
            repl_addr = Some(addr_str.parse().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("cannot parse replication address {addr_str:?}: {e}"),
                )
            })?);
        }
        if let Some(addr) = addr {
            if (!want_metrics || metrics_addr.is_some()) && (!want_repl || repl_addr.is_some()) {
                std::thread::spawn(move || {
                    let mut sink = String::new();
                    while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                        sink.clear();
                    }
                });
                return Ok((addr, metrics_addr, repl_addr));
            }
        }
    }
}

/// Convenience for tests: a scratch data directory under the system
/// temp root, cleaned before use.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("esr-proc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Remove a scratch directory, ignoring errors.
pub fn cleanup_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}
