//! `esr-tcpd` — serve a fresh ESR database over TCP.
//!
//! ```text
//! esr-tcpd [ADDR] [--objects N] [--value V] [--workers W] [--metrics-addr ADDR]
//!          [--lease-micros L] [--data-dir DIR] [--checkpoint-secs S]
//!          [--cache-pages N]
//! ```
//!
//! Defaults: `127.0.0.1:7878`, 64 objects initialised to 1000 (the
//! paper's account-balance ballpark). Every TCP connection is served by
//! a thread of its own, which runs each request against the kernel
//! itself; there is no worker pool, and `--workers` is accepted and
//! ignored so that command lines written for one keep working.
//! `--lease-micros` enables transaction leases: a transaction whose
//! client goes silent for `L` microseconds is reaped (aborted and rolled
//! back), so stalled or crashed clients cannot wedge the server; `0`
//! (the default) disables leases. Orphaned transactions of
//! *disconnected* clients are always reaped, leases or not. The bound
//! address is printed once the listener is up; connect with
//! `esr_net::TcpConnection` (see the `tcp_loopback` example) or any
//! client speaking the framed protocol.
//!
//! With `--data-dir` the database is *durable*: every committing update
//! is journaled to a write-ahead log in `DIR` and fsynced (group
//! commit) before the commit reply leaves the server, and on startup
//! the daemon recovers from the newest checkpoint plus the log tail —
//! a line reporting what was recovered is printed before the listener
//! comes up. `--checkpoint-secs` (default 30 when durable) sets the
//! periodic checkpoint cadence. Without `--data-dir` the database is
//! in-memory only, exactly as before.
//!
//! `--cache-pages N` (durable only) backs the object table with the
//! paged buffer pool instead of keeping every object resident: at most
//! `N` heap pages stay decoded in memory, pinned while in use and
//! evicted by a CLOCK sweep otherwise, so the database can be larger
//! than RAM. Checkpoints then flush only dirty pages (incremental)
//! rather than snapshotting the whole table, and the metrics endpoint
//! exports `esr_page_cache_*` counters and gauges. A data directory
//! previously written without the pager is migrated in place on the
//! first paged boot.
//!
//! With `--metrics-addr` a second listener serves the live observability
//! layer over plain HTTP: `curl http://ADDR/metrics` returns kernel
//! counters, gauges (wait-queue depth, active transactions, in-flight
//! requests, WAL bytes, recoveries), and latency-histogram summaries in
//! Prometheus text format.
//!
//! With `--monitor` the daemon also runs a live conformance checker: a
//! bounded capture log feeds every kernel decision to an incremental
//! serialization-graph + epsilon-ledger monitor on its own thread, whose
//! memory stays bounded by the active-transaction window. Violations are
//! logged (rate-limited) to stderr and exported as the
//! `esr_conformance_violations` gauge, alongside `esr_monitor_*`
//! counters, on the metrics endpoint. `--monitor-capacity N` sets the
//! capture-log retention bound (default 65536 events; a monitor that
//! lags further than that loses — and counts — old events instead of
//! stalling the kernel).
//!
//! ## Replication
//!
//! With `--repl-addr ADDR` (durable only) the daemon is a replication
//! *primary*: a second listener streams every durable WAL record to
//! subscribed replicas, heartbeats its durable watermark, and serves
//! snapshot catch-up to replicas whose requested log position has been
//! pruned. The line `esr-tcpd replication on ADDR` is printed when the
//! shipping listener is up. `--promote` bumps the stored replication
//! epoch before serving — run it when promoting a former replica's
//! data directory so a resurrected old primary is fenced off instead
//! of splitting the log.
//!
//! With `--replica-of ADDR` (durable only; mutually exclusive with
//! `--repl-addr`) the daemon is a read-only *replica*: it subscribes to
//! the primary's shipping listener at `ADDR`, applies the log through
//! its own WAL + checkpoint path, and serves epsilon-bounded query
//! transactions on the main address, charging each read the divergence
//! between its local copy and the primary's shipped committed value.
//! Update transactions are refused. The hidden
//! `--repl-apply-delay-micros N` flag slows the apply thread by `N`
//! microseconds per record so staleness tests are reproducible.
//!
//! The hidden `--wal-torn-after N` flag arms the WAL's torn-write
//! injector: the process aborts midway through writing record `N`'s
//! bytes, leaving a torn tail on disk. It exists solely for the
//! crash-recovery test harness. The hidden `--page-torn-after N` flag
//! is the pager's counterpart: the process aborts midway through its
//! `N`-th dirty-page write-back, leaving a torn extent (covered by the
//! pager's copy-on-write placement, so recovery must shrug it off). The hidden `--monitor-plant-after N`
//! flag injects one out-of-protocol event into the monitor after `N`
//! observed events, so the violation path (gauge + stderr) can be
//! exercised end to end; it exists solely for the soak harness.

use esr_net::{
    ConformanceMonitor, MetricsServer, MonitorConfig, ReplicaConfig, ReplicaNode, ReplicaServer,
    ReplicationHub, TcpServer,
};
use esr_server::{start_durable_with, Server, ServerConfig, StatsSource};
use esr_storage::catalog::CatalogConfig;
use esr_storage::wal::WalOptions;
use esr_tso::{Kernel, KernelConfig};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: esr-tcpd [ADDR] [--objects N] [--value V] [--workers W] [--metrics-addr ADDR] \
         [--lease-micros L] [--data-dir DIR] [--checkpoint-secs S] [--cache-pages N] \
         [--monitor] [--monitor-capacity N] [--repl-addr ADDR] [--promote] \
         [--replica-of ADDR]\n\
         --workers is accepted and ignored: every connection is served by its own thread"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(args: &mut std::env::Args, flag: &str) -> T {
    match args.next().and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("{flag} needs a value");
            usage();
        }
    }
}

fn main() {
    let mut addr = "127.0.0.1:7878".to_owned();
    let mut objects: usize = 64;
    let mut value: i64 = 1000;
    let mut metrics_addr: Option<String> = None;
    let mut lease_micros: u64 = 0;
    let mut data_dir: Option<String> = None;
    let mut checkpoint_secs: u64 = 30;
    let mut cache_pages: Option<usize> = None;
    let mut wal_torn_after: Option<u64> = None;
    let mut page_torn_after: Option<u64> = None;
    let mut monitor = false;
    let mut monitor_capacity: usize = MonitorConfig::default().capacity;
    let mut monitor_plant_after: Option<u64> = None;
    let mut repl_addr: Option<String> = None;
    let mut replica_of: Option<String> = None;
    let mut promote = false;
    let mut repl_apply_delay_micros: u64 = 0;
    let mut args = std::env::args();
    let _ = args.next();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--objects" => objects = parse(&mut args, "--objects"),
            "--value" => value = parse(&mut args, "--value"),
            "--workers" => drop(parse::<usize>(&mut args, "--workers")),
            "--metrics-addr" => metrics_addr = Some(parse(&mut args, "--metrics-addr")),
            "--lease-micros" => lease_micros = parse(&mut args, "--lease-micros"),
            "--data-dir" => data_dir = Some(parse(&mut args, "--data-dir")),
            "--checkpoint-secs" => checkpoint_secs = parse(&mut args, "--checkpoint-secs"),
            "--cache-pages" => cache_pages = Some(parse(&mut args, "--cache-pages")),
            "--wal-torn-after" => wal_torn_after = Some(parse(&mut args, "--wal-torn-after")),
            "--page-torn-after" => page_torn_after = Some(parse(&mut args, "--page-torn-after")),
            "--monitor" => monitor = true,
            "--monitor-capacity" => monitor_capacity = parse(&mut args, "--monitor-capacity"),
            "--monitor-plant-after" => {
                monitor_plant_after = Some(parse(&mut args, "--monitor-plant-after"))
            }
            "--repl-addr" => repl_addr = Some(parse(&mut args, "--repl-addr")),
            "--replica-of" => replica_of = Some(parse(&mut args, "--replica-of")),
            "--promote" => promote = true,
            "--repl-apply-delay-micros" => {
                repl_apply_delay_micros = parse(&mut args, "--repl-apply-delay-micros")
            }
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => addr = other.to_owned(),
            _ => usage(),
        }
    }

    if replica_of.is_some() && repl_addr.is_some() {
        eprintln!("esr-tcpd: --replica-of and --repl-addr are mutually exclusive");
        usage();
    }
    if (replica_of.is_some() || repl_addr.is_some()) && data_dir.is_none() {
        eprintln!("esr-tcpd: replication requires --data-dir");
        usage();
    }
    if promote && repl_addr.is_none() {
        eprintln!("esr-tcpd: --promote only makes sense with --repl-addr");
        usage();
    }

    if let Some(primary) = replica_of {
        run_replica(
            &addr,
            metrics_addr.as_deref(),
            ReplicaConfig {
                data_dir: data_dir.expect("checked above").into(),
                primary,
                catalog: CatalogConfig {
                    n_objects: objects as u32,
                    value_lo: value,
                    value_hi: value,
                    ..CatalogConfig::default()
                },
                schema: esr_core::hierarchy::HierarchySchema::two_level(),
                checkpoint_every: 4096,
                apply_delay_micros: repl_apply_delay_micros,
            },
        );
    }

    let kernel_config = KernelConfig {
        lease_micros,
        ..KernelConfig::default()
    };
    let server_config = ServerConfig::default();
    let mut hub: Option<Arc<ReplicationHub>> = None;
    let server = match &data_dir {
        Some(dir) => {
            // Durable boot: the catalog describes the *first* boot's
            // database; later boots recover the real one from DIR.
            let catalog = CatalogConfig {
                n_objects: objects as u32,
                value_lo: value,
                value_hi: value,
                ..CatalogConfig::default()
            };
            let config = ServerConfig {
                checkpoint_interval: (checkpoint_secs > 0)
                    .then(|| Duration::from_secs(checkpoint_secs)),
                cache_pages,
                page_torn_after,
                ..server_config
            };
            let wal_opts = WalOptions {
                torn_write_after: wal_torn_after,
            };
            // A replicating primary interposes its shipping sink
            // between the kernel and the WAL; the hub must exist (and
            // have settled its epoch) before durability comes up.
            if repl_addr.is_some() {
                match ReplicationHub::new(dir, promote) {
                    Ok(h) => hub = Some(Arc::new(h)),
                    Err(e) => {
                        eprintln!("esr-tcpd: cannot initialise replication in {dir}: {e}");
                        std::process::exit(1);
                    }
                }
            }
            match start_durable_with(
                dir,
                &catalog,
                esr_core::hierarchy::HierarchySchema::two_level(),
                kernel_config,
                config,
                wal_opts,
                |wal| match &hub {
                    Some(h) => h.make_sink(wal),
                    None => wal,
                },
            ) {
                Ok((server, summary)) => {
                    println!(
                        "esr-tcpd recovered from {dir}: replayed {} record(s){}{}",
                        summary.replayed,
                        if summary.torn_tail {
                            ", truncated torn tail"
                        } else {
                            ""
                        },
                        if summary.had_state {
                            String::new()
                        } else {
                            " (fresh database)".to_owned()
                        }
                        .as_str(),
                    );
                    server
                }
                Err(e) => {
                    eprintln!("esr-tcpd: recovery from {dir} failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => {
            let table = CatalogConfig::default().build_with_values(&vec![value; objects]);
            let kernel = Kernel::new(
                table,
                esr_core::hierarchy::HierarchySchema::two_level(),
                kernel_config,
            );
            Server::start(kernel, server_config)
        }
    };
    // Bring the shipping listener up before the transaction listener:
    // a replica pointed at this primary may connect the instant the
    // address is printed.
    if let Some(h) = &hub {
        h.attach(&server);
        let raddr = repl_addr.as_deref().expect("hub implies --repl-addr");
        let listener = match TcpListener::bind(raddr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("esr-tcpd: cannot bind replication address {raddr}: {e}");
                std::process::exit(1);
            }
        };
        match h.serve(listener) {
            Ok(bound) => println!("esr-tcpd replication on {bound} (epoch {})", h.epoch()),
            Err(e) => {
                eprintln!("esr-tcpd: cannot serve replication on {raddr}: {e}");
                std::process::exit(1);
            }
        }
    }
    // Attach the conformance monitor before the listener comes up, so
    // the capture stream starts at event zero — a monitor joining
    // mid-history would misreport already-running transactions.
    let conformance = monitor.then(|| {
        let m = ConformanceMonitor::spawn(
            server.kernel(),
            MonitorConfig {
                capacity: monitor_capacity,
                plant_violation_after: monitor_plant_after,
                ..MonitorConfig::default()
            },
        );
        m.report_to(&server.rpc_handle());
        m
    });
    let tcp = match TcpServer::bind(server, &addr) {
        Ok(tcp) => tcp,
        Err(e) => {
            eprintln!("esr-tcpd: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    let lease = if lease_micros > 0 {
        format!(", {lease_micros}\u{b5}s leases")
    } else {
        String::new()
    };
    let durable = if data_dir.is_some() { ", durable" } else { "" };
    let paged = match cache_pages {
        Some(n) if data_dir.is_some() => format!(", paged ({n} cache pages)"),
        _ => String::new(),
    };
    let monitored = if conformance.is_some() {
        ", monitored"
    } else {
        ""
    };
    println!(
        "esr-tcpd listening on {} ({objects} objects @ {value}{lease}{durable}{paged}{monitored})",
        tcp.local_addr()
    );
    // Keep the metrics listener alive for the lifetime of the process.
    let _metrics = serve_metrics(metrics_addr.as_deref(), Arc::new(tcp.server().rpc_handle()));
    // Serve until killed; the TcpServer's Drop handles graceful
    // shutdown when the process is terminated cleanly. `conformance`
    // stays alive (and checking) alongside it.
    loop {
        std::thread::park();
    }
}

/// Replica mode: subscribe to the primary, apply the shipped log, and
/// serve read-only epsilon-bounded queries on `addr`. Never returns.
fn run_replica(addr: &str, metrics_addr: Option<&str>, cfg: ReplicaConfig) -> ! {
    let primary = cfg.primary.clone();
    let node = match ReplicaNode::start(cfg) {
        Ok(node) => node,
        Err(e) => {
            eprintln!("esr-tcpd: cannot start replica: {e}");
            std::process::exit(1);
        }
    };
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("esr-tcpd: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    let server = match ReplicaServer::start(Arc::clone(&node), listener) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("esr-tcpd: cannot serve replica reads: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "esr-tcpd listening on {} (replica of {primary}, read-only)",
        server.addr()
    );
    let _metrics = serve_metrics(metrics_addr, node);
    loop {
        std::thread::park();
    }
}

/// Serve `source`'s snapshots as `/metrics` on `addr`, when one was
/// given. The source is the same object that answers the wire `Stats`
/// request, so the two cannot differ.
fn serve_metrics(addr: Option<&str>, source: Arc<dyn StatsSource>) -> Option<MetricsServer> {
    let addr = addr?;
    match MetricsServer::bind(addr, source) {
        Ok(m) => {
            println!("esr-tcpd metrics on http://{}/metrics", m.local_addr());
            Some(m)
        }
        Err(e) => {
            eprintln!("esr-tcpd: cannot bind metrics address {addr}: {e}");
            std::process::exit(1);
        }
    }
}
