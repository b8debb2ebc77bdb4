//! One run of one workload: set-up, warm-up, the measured slices,
//! quiesce, correctness checks, and the metrics.

use crate::client::{Client, TxnRecord};
use crate::daemon::{self, Daemon, Role};
use crate::gen::{Target, Workload, CLIENTS, PAGED_HIT_BAND, PRELOAD_TXNS};
use crate::layers;
use crate::metrics::{self, ratio, ClientTotals, Measured, ReplTick, Sample, SideTimes};
use crate::procfs;
use crate::quiet::Quiet;
use crate::report::{Check, Env, RunResult};
use crate::stats::Metric;
use crate::trace::{self, Span, Tracer};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Discarded closed-loop running before the first measured slice.
const WARMUP: Duration = Duration::from_secs(3);
/// Timed set-ups per run; `setup_s` is their median. They run after the
/// measured phase, each torn down at once, so they meet the machine in
/// the steady state the other metrics saw rather than in whatever state
/// ran before the benchmark. The set-up the run uses is a further,
/// untimed one.
const SETUP_REPS: usize = 3;
/// How long a replica may take to apply everything after updates stop.
const CATCHUP_LIMIT: Duration = Duration::from_secs(10);
/// Objects compared between replica and primary after catch-up.
const REPLICA_SAMPLE: u32 = 64;

pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Daemons up, clients connected and preloaded.
struct Live {
    primary: Daemon,
    replica: Option<Daemon>,
    primary_args: Vec<String>,
    clients: Vec<Client>,
    control: Client,
    replica_control: Option<Client>,
    data_dir: PathBuf,
}

fn set_up(opts: &Options, binary: &Path, dir: &Path, epoch: Instant) -> Result<Live, String> {
    let w = opts.workload;
    let io = |what: &str, e: std::io::Error| format!("set-up: {what}: {e}");
    let data_dir = dir.join("primary");
    std::fs::create_dir_all(&data_dir).map_err(|e| io("create data dir", e))?;
    let primary_args = daemon::daemon_args(w, &Role::Primary, &data_dir);
    let primary = Daemon::spawn(binary, &primary_args).map_err(|e| io("spawn primary", e))?;
    let replica = if w.replica {
        let ship = primary.repl_addr.ok_or("set-up: the primary printed no replication address")?;
        let replica_dir = dir.join("replica");
        std::fs::create_dir_all(&replica_dir).map_err(|e| io("create replica dir", e))?;
        let args = daemon::daemon_args(w, &Role::ReplicaOf(&ship), &replica_dir);
        Some(Daemon::spawn(binary, &args).map_err(|e| io("spawn replica", e))?)
    } else {
        None
    };
    let addr_of = |target: Target| match (target, &replica) {
        (Target::Replica, Some(r)) => r.addr,
        _ => primary.addr,
    };
    let mut clients = Vec::with_capacity(CLIENTS);
    for index in 0..CLIENTS {
        let preload = w.stream(opts.seed, "preload", index);
        let addr = addr_of(w.target(index));
        let mut client = Client::connect(index, addr, preload, w.per_op, epoch, true)?;
        for _ in 0..PRELOAD_TXNS {
            client.run_one(false).map_err(|e| format!("set-up: preload on client {index}: {e}"))?;
        }
        client.records.clear();
        client.set_stream(w.stream(opts.seed, "run", index));
        clients.push(client);
    }
    let control_stream = || w.stream(opts.seed, "control", 0);
    let control = Client::connect(CLIENTS, primary.addr, control_stream(), w.per_op, epoch, true)?;
    let replica_control = match &replica {
        Some(r) => {
            Some(Client::connect(CLIENTS + 1, r.addr, control_stream(), w.per_op, epoch, true)?)
        }
        None => None,
    };
    Ok(Live { primary, replica, primary_args, clients, control, replica_control, data_dir })
}

fn sample(live: &mut Live, epoch: Instant) -> Result<Sample, String> {
    let stats = live.control.server_stats()?;
    let pids: Vec<u32> = [Some(&live.primary), live.replica.as_ref()]
        .into_iter()
        .flatten()
        .map(Daemon::pid)
        .collect();
    let sum = |f: fn(u32) -> std::io::Result<u64>| -> Result<u64, String> {
        pids.iter().map(|&pid| f(pid).map_err(|e| format!("/proc/{pid}: {e}"))).sum()
    };
    Ok(Sample {
        at_ns: epoch.elapsed().as_nanos() as u64,
        stats,
        cpu_us: sum(procfs::cpu_micros)?,
        write_bytes: sum(procfs::write_bytes)?,
        peak_rss_kb: sum(procfs::peak_rss_kb)?,
    })
}

fn measure(live: &mut Live, opts: &Options, epoch: Instant) -> Result<Measured, String> {
    let stop = AtomicBool::new(false);
    let trace_on = AtomicBool::new(false);
    let mut clients = std::mem::take(&mut live.clients);
    let measured = std::thread::scope(|scope| {
        for client in &mut clients {
            let (stop, trace_on) = (&stop, &trace_on);
            scope.spawn(move || client.run_until(stop, trace_on));
        }
        let mut ticker = || -> Result<Measured, String> {
            std::thread::sleep(WARMUP);
            // `--seconds` cut into slices of the workload's length (the
            // whole of a run shorter than one).
            let slices = (opts.seconds / opts.workload.slice_secs()).max(1);
            let slice = Duration::from_secs(opts.seconds) / slices as u32;
            let start = sample(live, epoch)?;
            let from = Instant::now();
            let slices_from_ns = epoch.elapsed().as_nanos() as u64;
            let mut stats_rpc_us = Vec::new();
            let mut repl = Vec::new();
            let mut last_tick = from;
            for n in 0..slices {
                // Tracing alternates by slice, so one run holds its own
                // untraced baseline.
                trace_on.store(opts.trace && n % 2 == 0, Ordering::Relaxed);
                let boundary = from + slice * (n as u32 + 1);
                std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
                let t0 = Instant::now();
                let primary = live.control.server_stats()?;
                stats_rpc_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
                if let Some(rc) = &mut live.replica_control {
                    let r = rc
                        .server_stats()?
                        .replication
                        .ok_or("the replica's Stats carry no replication block")?;
                    let now = Instant::now();
                    repl.push(ReplTick {
                        seconds: (now - last_tick).as_secs_f64(),
                        applied_seq: r.applied_seq,
                        lag_records: r.lag_records,
                        lag_micros: r.lag_micros,
                        divergence: r.divergence_total,
                        ship_lag: primary.kernel.commits_update.saturating_sub(r.received_seq),
                    });
                    last_tick = now;
                }
            }
            trace_on.store(false, Ordering::Relaxed);
            let end = sample(live, epoch)?;
            Ok(Measured { start, end, slices_from_ns, slices, slice, stats_rpc_us, repl })
        };
        let measured = ticker();
        stop.store(true, Ordering::Relaxed);
        measured
    });
    live.clients = clients;
    measured
}

struct Checks(Vec<Check>);

impl Checks {
    fn add(&mut self, name: &str, ok: bool, detail: String) {
        self.0.push(Check { name: name.to_owned(), ok, detail });
    }
}

/// SIGKILL the daemon under a running update stream, restart it on the
/// same directory, and hold every object to its last acknowledged value
/// (or the value of the one update the kill cut off). A process crash,
/// not a power cut. Returns the restart time in milliseconds.
fn crash_check(
    live: &mut Live,
    opts: &Options,
    binary: &Path,
    epoch: Instant,
    checks: &mut Checks,
) -> Result<f64, String> {
    let w = opts.workload;
    let mut expected: HashMap<u32, i64> = HashMap::new();
    for client in &live.clients {
        expected.extend(&client.acked);
    }
    let stream = w.stream(opts.seed, "crash", 0);
    let mut tail = Client::connect(0, live.primary.addr, stream, w.per_op, epoch, false)?;
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // Stop at the first failure: that transaction is the one
            // the kill cut off.
            loop {
                if stop.load(Ordering::Relaxed) || tail.run_one(false).is_err() {
                    break;
                }
            }
        });
        std::thread::sleep(Duration::from_millis(100));
        live.primary.kill();
        stop.store(true, Ordering::Relaxed);
    });
    expected.extend(&tail.acked);
    let in_flight = tail.in_flight.take().unwrap_or_default();

    let t0 = Instant::now();
    live.primary = Daemon::spawn(binary, &live.primary_args)
        .map_err(|e| format!("restart after SIGKILL: {e}"))?;
    let restart_ms = t0.elapsed().as_nanos() as f64 / 1e6;
    let stream = w.stream(opts.seed, "control", 0);
    let mut reader = Client::connect(CLIENTS, live.primary.addr, stream, w.per_op, epoch, true)?;
    let recovered = reader.read_all(0..w.objects)?;

    let base = |obj: u32| expected.get(&obj).copied().unwrap_or(w.value);
    let cut_off = |obj: &u32| in_flight.iter().any(|(o, _)| o == obj);
    let wrong = (0..w.objects)
        .filter(|obj| !cut_off(obj) && recovered[*obj as usize] != base(*obj))
        .count();
    // The cut-off update is atomic: all of its writes or none.
    let landed = in_flight.iter().filter(|(obj, v)| recovered[*obj as usize] == *v).count();
    let kept = in_flight.iter().filter(|(obj, _)| recovered[*obj as usize] == base(*obj)).count();
    let atomic = landed == in_flight.len() || kept == in_flight.len();
    checks.add(
        "acked_survives_sigkill",
        wrong == 0 && atomic && tail.commits > 0,
        format!(
            "{} objects read back after SIGKILL + restart ({} replayed): {wrong} differ from their \
             last acknowledged value; the cut-off update ({} writes) is {}; {} commits acknowledged \
             under the kill",
            recovered.len(),
            live.primary.replayed.unwrap_or(0),
            in_flight.len(),
            if atomic { "all-or-nothing" } else { "TORN" },
            tail.commits
        ),
    );
    Ok(restart_ms)
}

/// After updates stop: lag reaches 0, sampled strict reads agree, and
/// the replica refuses an update. Returns the catch-up time in ms.
fn replica_check(live: &mut Live, opts: &Options, checks: &mut Checks) -> Result<f64, String> {
    let w = opts.workload;
    let rc = live.replica_control.as_mut().ok_or("replica check without a replica")?;
    let shipped = live.control.server_stats()?.kernel.commits_update;
    let t0 = Instant::now();
    let caught_up = loop {
        let r = rc.server_stats()?.replication.unwrap_or_default();
        if r.applied_seq >= shipped && r.lag_records == 0 {
            break true;
        }
        if t0.elapsed() > CATCHUP_LIMIT {
            break false;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let catchup_ms = t0.elapsed().as_nanos() as f64 / 1e6;
    checks.add(
        "replica_lag_reaches_zero",
        caught_up,
        format!("{shipped} records applied {catchup_ms:.1} ms after updates stopped"),
    );
    let mut rng = crate::gen::Rng::new(opts.seed ^ 0x5a17);
    let sampled: Vec<u32> = (0..REPLICA_SAMPLE).map(|_| rng.below(w.objects)).collect();
    let on_primary = live.control.read_all(sampled.iter().copied())?;
    let on_replica = rc.read_all(sampled.iter().copied())?;
    checks.add(
        "replica_equals_primary",
        on_primary == on_replica,
        format!("{REPLICA_SAMPLE} sampled strict reads compared"),
    );
    checks.add(
        "replica_refuses_updates",
        rc.update_is_refused(),
        "an update Begin sent to the replica".to_owned(),
    );
    Ok(catchup_ms)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The checks every workload shares, made once the clients have stopped
/// and nothing is in flight. Returns the clients' totals.
fn quiesced_checks(
    live: &mut Live,
    w: &Workload,
    checks: &mut Checks,
) -> Result<ClientTotals, String> {
    let quiet = live.control.server_stats()?;
    let k = &quiet.kernel;
    checks.add(
        "server_conservation",
        k.begins == k.commits() + k.aborts() && quiet.active_txns == 0,
        format!("begins {} = commits {} + aborts {}", k.begins, k.commits(), k.aborts()),
    );
    let sum = |of: fn(&Client) -> u64, target: Option<Target>| -> u64 {
        let wanted = |c: &&Client| target.is_none_or(|t| w.target(c.index) == t);
        live.clients.iter().filter(wanted).map(of).sum()
    };
    let totals = ClientTotals {
        attempted: sum(|c| c.attempted, None),
        failed: sum(|c| c.failed, None),
        commits: sum(|c| c.commits, None),
        resends: sum(Client::resends, None),
        replica_commits: sum(|c| c.commits, Some(Target::Replica)),
        replica_resends: sum(Client::resends, Some(Target::Replica)),
    };
    let on_primary = totals.commits - totals.replica_commits;
    checks.add(
        "client_commits_equal_server_commits",
        on_primary == k.commits(),
        format!("clients {on_primary}, server {}", k.commits()),
    );
    let reasons = live.clients.iter().flat_map(|c| &c.failures);
    checks.add(
        "no_failed_transactions",
        totals.failed == 0 && totals.attempted > 0,
        format!(
            "{} of {} attempted{}",
            totals.failed,
            totals.attempted,
            reasons.fold(String::new(), |all, f| all + "; " + f)
        ),
    );
    let violations: Vec<&String> = live.clients.iter().flat_map(|c| &c.violations).collect();
    checks.add(
        "queries_within_their_bound",
        violations.is_empty(),
        violations.first().map_or_else(
            || "every CommitInfo.inconsistency is within its TIL (0 for strict)".to_owned(),
            |v| format!("{} violations, first: {v}", violations.len()),
        ),
    );
    Ok(totals)
}

/// The checks that depend on what the workload exercises. Returns the
/// restart or catch-up time they measured on the side.
fn workload_checks(
    live: &mut Live,
    opts: &Options,
    m: &Measured,
    binary: &Path,
    epoch: Instant,
    checks: &mut Checks,
) -> Result<SideTimes, String> {
    let w = opts.workload;
    let mut side = SideTimes::default();
    let window = m.end.stats.kernel.since(&m.start.stats.kernel);
    if !w.durable {
        checks.add(
            "relaxations_fired",
            window.inconsistent_ops() > 0,
            format!("{} inconsistent operations admitted", window.inconsistent_ops()),
        );
        let sum: i64 = live.control.read_all(0..w.objects)?.iter().sum();
        let want = i64::from(w.objects) * w.value;
        checks.add(
            "transfers_preserve_the_sum",
            sum == want,
            format!("final strict whole-database sum {sum}, expected {want}"),
        );
        return Ok(side);
    }
    side.disk_bytes = dir_bytes(&live.data_dir);
    side.objects = u64::from(w.objects);
    let fsyncs = |s: &Sample| s.stats.histogram("fsync_micros").map_or(0, |h| h.count);
    let (fsyncs, wal_bytes) =
        (fsyncs(&m.end) - fsyncs(&m.start), m.end.stats.wal_bytes - m.start.stats.wal_bytes);
    checks.add(
        "wal_written_and_synced",
        fsyncs > 0 && wal_bytes > 0,
        format!("{fsyncs} fsyncs, {wal_bytes} WAL bytes"),
    );
    if let (Some(a), Some(b)) = (&m.start.stats.page_cache, &m.end.stats.page_cache) {
        let (hits, misses, evictions) =
            (b.hits - a.hits, b.misses - a.misses, b.evictions - a.evictions);
        let rate = ratio(hits, hits + misses);
        checks.add(
            "page_cache_under_pressure",
            evictions > 0 && (PAGED_HIT_BAND.0..=PAGED_HIT_BAND.1).contains(&rate),
            format!(
                "{evictions} evictions, hit rate {rate:.3} (frozen band {:.2}..{:.2})",
                PAGED_HIT_BAND.0, PAGED_HIT_BAND.1
            ),
        );
    }
    if w.replica {
        side.catchup_ms = replica_check(live, opts, checks)?;
    } else {
        side.restart_ms = crash_check(live, opts, binary, epoch, checks)?;
    }
    Ok(side)
}

fn env(
    opts: &Options,
    nproc: u64,
    root: &Path,
    scratch: &Path,
    command_lines: Vec<String>,
    raw_fdatasync_p50_us: f64,
    quiet: &Quiet,
) -> Env {
    let w = opts.workload;
    Env {
        nproc,
        pinned_cpu: quiet.cpu,
        keep_awake: quiet.keep_awake,
        git_commit: command_output(
            "git",
            &["-C", &root.display().to_string(), "rev-parse", "HEAD"],
        ),
        rustc: command_output("rustc", &["--version"]),
        kernel_release: std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned()),
        scratch_fs: procfs::fs_type(scratch),
        daemon_command_lines: command_lines,
        seed: opts.seed,
        seconds: opts.seconds,
        clients: CLIENTS as u64,
        stream_hashes: (0..CLIENTS)
            .map(|c| format!("{:016x}", w.stream_hash(opts.seed, c)))
            .collect(),
        raw_fdatasync_p50_us,
    }
}

pub fn run(opts: &Options) -> Result<RunResult, String> {
    let w = opts.workload;
    let root = daemon::repo_root();
    let binary = daemon::build_daemon().map_err(|e| format!("build: {e}"))?;
    // Counted before pinning, which leaves this thread one CPU.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let quiet = Quiet::enter();
    let out_dir = root.join("benchmark").join("out");
    let scratch =
        Scratch(out_dir.join("scratch").join(format!("{}-{}", w.name, std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    let raw_fdatasync_p50_us = layers::raw_fdatasync_p50_us(&scratch.0)?;
    let epoch = Instant::now();

    let mut live = set_up(opts, &binary, &scratch.0.join("setup"), epoch)?;
    let command_lines: Vec<String> = [Some(&live.primary), live.replica.as_ref()]
        .into_iter()
        .flatten()
        .map(|d| d.command_line.clone())
        .collect();
    let mut handshakes_us: Vec<f64> = live.clients.iter().map(|c| c.handshake_us).collect();
    handshakes_us.push(live.control.handshake_us);

    let m = measure(&mut live, opts, epoch)?;
    let mut checks = Checks(Vec::new());
    let totals = quiesced_checks(&mut live, w, &mut checks)?;
    let side = SideTimes {
        handshakes_us,
        ..workload_checks(&mut live, opts, &m, &binary, epoch, &mut checks)?
    };

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let dir = scratch.0.join(format!("setup-{rep}"));
        let t0 = Instant::now();
        let timed = set_up(opts, &binary, &dir, epoch)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        drop(timed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let records: Vec<TxnRecord> =
        live.clients.iter().flat_map(|c| c.records.iter().copied()).collect();
    let end_to_end = metrics::end_to_end(&m, &records, &setup_s);
    let mut per_layer = metrics::per_layer(&m, &records, &totals, &side);
    per_layer.insert(
        "storage.raw_fdatasync_p50_us".to_owned(),
        Metric::whole(raw_fdatasync_p50_us, "us", 200),
    );

    // The traced half: client spans, then the peel and the probes.
    if opts.trace {
        let mut spans: Vec<Span> = Vec::new();
        for client in &mut live.clients {
            spans.append(&mut client.tracer.spans);
        }
        let primary_lanes: Vec<u64> = (0..CLIENTS)
            .filter(|&c| w.target(c) == Target::Primary)
            .map(|c| c as u64 + 1)
            .collect();
        let rpcs: Vec<&Span> =
            spans.iter().filter(|s| primary_lanes.contains(&(s.id >> 48))).collect();
        metrics::traced(&mut per_layer, &m, &records, &rpcs, w.per_op);

        let mut tracer = Tracer::new(CLIENTS as u64 + 1);
        // The peel's reference is a daemon as fresh as the stacks it
        // builds in-process: the run's own has 100 000 transactions of
        // history behind it and answers up to 6% slower.
        let dir = scratch.0.join("peel-daemon");
        let fresh = std::fs::create_dir_all(&dir)
            .and_then(|()| Daemon::spawn(&binary, &daemon::daemon_args(w, &Role::Primary, &dir)))
            .map_err(|e| format!("peel: spawn the reference daemon: {e}"))?;
        let (probes, reconciled) =
            layers::run(w, opts.seed, &scratch.0, fresh.addr, &mut tracer, epoch)?;
        drop(fresh);
        if w.per_op {
            checks.add(
                "peel_reconciles",
                reconciled,
                format!(
                    "kernel call + server.hop_us + net.hop_us is within {:.1}% of the daemon's \
                     single-client call (tolerance {:.0}%)",
                    100.0 * probes["trace.peel_residual_share"].value,
                    100.0 * layers::PEEL_TOLERANCE
                ),
            );
        }
        per_layer.extend(probes);
        spans.append(&mut tracer.spans);
        per_layer.insert(
            "trace.spans".to_owned(),
            Metric::whole(spans.len() as f64, "count", spans.len() as u64),
        );
        let path = out_dir.join(format!("trace.{}.json", w.name));
        trace::write(&path, w.name, opts.seed, &spans)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    Ok(RunResult {
        workload: w.name.to_owned(),
        traced: opts.trace,
        correct: checks.0.iter().all(|c| c.ok),
        attempted: totals.attempted,
        failed: totals.failed,
        env: env(opts, nproc, &root, &scratch.0, command_lines, raw_fdatasync_p50_us, &quiet),
        checks: checks.0,
        end_to_end,
        per_layer,
    })
}
