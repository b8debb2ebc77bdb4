//! Building and running the real `esr-tcpd` binary as a child process.
//!
//! `esr_faults::proc::ServerProc` does the same for the crash tests, but
//! it neither passes `--workers` nor exposes the child's pid, and the
//! benchmark needs both (explicit flags; `/proc/<pid>` accounting). This
//! change may touch nothing outside `benchmark/`; once `ServerProc` has a
//! `workers` option and a `pid()` accessor, [`Daemon`] goes and only
//! [`daemon_args`] and [`build_daemon`] stay.

use crate::gen::{Workload, CHECKPOINT_SECS, WORKERS};
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The repository root: the directory above this crate, fixed when the
/// benchmark is compiled (it is always built where it runs).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark crate sits one level below the repository root")
        .to_path_buf()
}

/// Build `esr-tcpd` in release mode with the root workspace's own
/// profile and return the binary's path. A no-op when it is fresh.
/// Cargo's output goes to stderr so stdout stays the benchmark's.
pub fn build_daemon() -> io::Result<PathBuf> {
    let root = repo_root();
    // A relative CARGO_TARGET_DIR means relative to where *we* were
    // started, not to the root cargo is about to run in.
    let target_dir = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()?.join(dir),
        None => root.join("target"),
    };
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "esr-net", "--bin", "esr-tcpd", "--target-dir"])
        .arg(&target_dir)
        .current_dir(&root)
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!("building esr-tcpd failed: {status}")));
    }
    Ok(target_dir.join("release").join("esr-tcpd"))
}

/// Which daemon of a workload to start.
pub enum Role<'a> {
    /// The transaction daemon (a shipping primary when the workload has
    /// a replica).
    Primary,
    /// A read-only replica of the primary shipping on this address.
    ReplicaOf(&'a SocketAddr),
}

/// The daemon's command-line flags for `workload`, always explicit.
pub fn daemon_args(workload: &Workload, role: &Role, data_dir: &Path) -> Vec<String> {
    let mut args = vec![
        "127.0.0.1:0".to_owned(),
        "--objects".to_owned(),
        workload.objects.to_string(),
        "--value".to_owned(),
        workload.value.to_string(),
        "--workers".to_owned(),
        WORKERS.to_string(),
    ];
    if workload.durable {
        args.extend([
            "--data-dir".to_owned(),
            data_dir.display().to_string(),
            "--checkpoint-secs".to_owned(),
            CHECKPOINT_SECS.to_string(),
        ]);
    }
    if let Some(pages) = workload.cache_pages {
        args.extend(["--cache-pages".to_owned(), pages.to_string()]);
    }
    match role {
        Role::Primary if workload.replica => {
            args.extend(["--repl-addr".to_owned(), "127.0.0.1:0".to_owned()]);
        }
        Role::Primary => {}
        Role::ReplicaOf(primary) => {
            args.extend(["--replica-of".to_owned(), primary.to_string()]);
        }
    }
    args
}

/// How long a daemon may take from spawn to its listening line. Recovery
/// of the largest workload takes well under a second.
const SPAWN_DEADLINE: Duration = Duration::from_secs(30);

/// A running `esr-tcpd` child. Dropping it kills and reaps the child.
pub struct Daemon {
    child: Child,
    drain: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
    /// The log-shipping listener, when started with `--repl-addr`.
    pub repl_addr: Option<SocketAddr>,
    /// Redo records the daemon reported replaying at boot.
    pub replayed: Option<u64>,
    /// The exact command line, for the result's `env` block.
    pub command_line: String,
}

impl Daemon {
    /// Start the daemon and wait, at most [`SPAWN_DEADLINE`], for its
    /// "listening on" line (and, for a shipping primary, its
    /// "replication on" line, which comes first).
    pub fn spawn(binary: &Path, args: &[String]) -> io::Result<Daemon> {
        let mut child = Command::new(binary)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut reader = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // The thread hands over every line until the receiver is gone,
        // then keeps the pipe drained so the child can never block on it;
        // it ends at EOF, when the child exits.
        let (lines, incoming) = mpsc::channel::<String>();
        let drain = std::thread::spawn(move || {
            let mut line = String::new();
            while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                let _ = lines.send(std::mem::take(&mut line));
            }
        });
        let deadline = Instant::now() + SPAWN_DEADLINE;
        let mut repl_addr = None;
        let mut replayed = None;
        // `Ok` is the listening address; `Err` says why there is none.
        let listening: Result<SocketAddr, String> = loop {
            let line =
                match incoming.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                    Ok(line) => line,
                    Err(RecvTimeoutError::Disconnected) => {
                        break Err("esr-tcpd exited before listening".to_owned());
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        break Err(format!(
                            "esr-tcpd printed no listening line within {SPAWN_DEADLINE:?}"
                        ));
                    }
                };
            let first_word = |rest: &str| rest.split_whitespace().next().map(str::to_owned);
            if let Some(rest) = line.strip_prefix("esr-tcpd listening on ") {
                let addr = first_word(rest).and_then(|a| a.parse().ok());
                break addr.ok_or_else(|| format!("cannot parse the listening line {line:?}"));
            } else if let Some(rest) = line.strip_prefix("esr-tcpd replication on ") {
                repl_addr = first_word(rest).and_then(|a| a.parse().ok());
            } else if let Some((_, rest)) = line.split_once(": replayed ") {
                replayed = first_word(rest).and_then(|n| n.parse().ok());
            }
        };
        let addr = match listening {
            Ok(addr) => addr,
            Err(why) => {
                let _ = child.kill();
                let status = child.wait()?;
                let _ = drain.join();
                return Err(io::Error::other(format!("{why} ({status})")));
            }
        };
        Ok(Daemon {
            child,
            drain: Some(drain),
            addr,
            repl_addr,
            replayed,
            command_line: format!("{} {}", binary.display(), args.join(" ")),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL — no destructors, no flushes — then reap the child and
    /// the drain thread. A process crash, not a power cut: the page
    /// cache of the operating system survives.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}
