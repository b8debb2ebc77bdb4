//! Every in-process call into the repository's crates: the peel and the
//! micro-probes of the traced run. The import list below is the pinned
//! API — a refactor that breaks one of these names breaks the per-layer
//! half of the benchmark, and only that half.
//!
//! The peel replays one generated stream, one client, one call per
//! operation, against three depths of the same stack built with the
//! daemon's own configuration: the `Kernel` directly, then through
//! `Server::connect()` (request queue + worker pool), then through a
//! `TcpConnection` (framing + sockets). A layer's hop is the difference
//! between adjacent depths. A fourth replay, against the run's own
//! `esr-tcpd` process, is the independent measurement the three are
//! reconciled with.

use crate::gen::{TxnSpec, Workload, WriteVal, CLIENTS, HASHED_TXNS, WORKERS};
use crate::stats::{median, Metric};
use crate::trace::Tracer;
use esr_clock::{SystemTimeSource, Timestamp, TimestampGenerator};
use esr_core::bounds::Limit;
use esr_core::codec;
use esr_core::hierarchy::HierarchySchema;
use esr_core::ids::{ObjectId, SiteId, TxnId, TxnKind};
use esr_core::ledger::Ledger;
use esr_core::spec::TxnBounds;
use esr_net::{frame, RequestBody, TcpConnection, TcpServer, WireRequest};
use esr_obs::LatencyHistogram;
use esr_server::{start_durable, Server, ServerConfig};
use esr_sim::{simulate, SimConfig};
use esr_storage::wal::{DurabilitySink, Wal, WalOptions, WalRecord};
use esr_storage::{recover, recover_paged, CatalogConfig, PagerConfig};
use esr_tso::{Kernel, KernelConfig, OpOutcome, Operation};
use esr_txn::Session;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Relative gap allowed between `kernel + server.hop + net.hop` per call
/// and the single-client call time measured against the real daemon
/// before the peel counts as unreconciled.
pub const PEEL_TOLERANCE: f64 = 0.15;

/// Redo records the WAL probe appends, syncs and then recovers.
const WAL_PROBE_RECORDS: u64 = 2000;

fn catalog(w: &Workload) -> CatalogConfig {
    CatalogConfig {
        n_objects: w.objects,
        value_lo: w.value,
        value_hi: w.value,
        ..CatalogConfig::default()
    }
}

/// The stack `esr-tcpd` builds for `w`, minus the socket. Periodic
/// checkpoints stay off: the peel lasts a second or two and times
/// `Kernel::checkpoint` on its own.
fn build_server(w: &Workload, dir: &Path) -> Result<Server, String> {
    let config =
        ServerConfig { workers: WORKERS, cache_pages: w.cache_pages, ..ServerConfig::default() };
    if w.durable {
        start_durable(
            dir,
            &catalog(w),
            HierarchySchema::two_level(),
            KernelConfig::default(),
            config,
            WalOptions::default(),
        )
        .map(|(server, _)| server)
        .map_err(|e| format!("peel: durable boot in {}: {e}", dir.display()))
    } else {
        let table = CatalogConfig::default().build_with_values(&vec![w.value; w.objects as usize]);
        let kernel = Kernel::new(table, HierarchySchema::two_level(), KernelConfig::default());
        Ok(Server::start(kernel, config))
    }
}

/// The five operations at one depth of the stack.
trait Depth {
    fn begin(&mut self, kind: TxnKind, bounds: TxnBounds) -> Result<(), String>;
    fn read(&mut self, obj: ObjectId) -> Result<i64, String>;
    fn write(&mut self, obj: ObjectId, value: i64) -> Result<(), String>;
    fn commit(&mut self) -> Result<(), String>;
}

impl<S: Session> Depth for S {
    fn begin(&mut self, kind: TxnKind, bounds: TxnBounds) -> Result<(), String> {
        Session::begin(self, kind, bounds).map_err(|e| e.to_string())
    }
    fn read(&mut self, obj: ObjectId) -> Result<i64, String> {
        Session::read(self, obj).map_err(|e| e.to_string())
    }
    fn write(&mut self, obj: ObjectId, value: i64) -> Result<(), String> {
        Session::write(self, obj, value).map_err(|e| e.to_string())
    }
    fn commit(&mut self) -> Result<(), String> {
        Session::commit(self).map(drop).map_err(|e| e.to_string())
    }
}

/// Depth 0: the kernel called directly, with the worker's durability
/// gate (`sync_to` before the commit counts) reproduced by hand.
struct Direct {
    kernel: Arc<Kernel>,
    clock: TimestampGenerator,
    txn: TxnId,
}

impl Direct {
    fn done(what: &str, outcome: OpOutcome) -> Result<OpOutcome, String> {
        if outcome.is_done() {
            Ok(outcome)
        } else {
            Err(format!("peel: kernel {what} answered {outcome:?}"))
        }
    }
}

impl Depth for Direct {
    fn begin(&mut self, kind: TxnKind, bounds: TxnBounds) -> Result<(), String> {
        self.txn = self.kernel.begin(kind, bounds, self.clock.next());
        Ok(())
    }
    fn read(&mut self, obj: ObjectId) -> Result<i64, String> {
        let resp = self.kernel.read(self.txn, obj).map_err(|e| e.to_string())?;
        match Self::done("read", resp.outcome)? {
            OpOutcome::Value(v) => Ok(v),
            other => Err(format!("peel: kernel read answered {other:?}")),
        }
    }
    fn write(&mut self, obj: ObjectId, value: i64) -> Result<(), String> {
        let resp = self.kernel.write(self.txn, obj, value).map_err(|e| e.to_string())?;
        Self::done("write", resp.outcome).map(drop)
    }
    fn commit(&mut self) -> Result<(), String> {
        let end = self.kernel.commit(self.txn).map_err(|e| e.to_string())?;
        if let (Some(seq), Some(durability)) = (end.durable_seq, self.kernel.durability()) {
            durability.sink().sync_to(seq);
        }
        Ok(())
    }
}

/// Span names of one depth.
struct Names {
    txn: &'static str,
    begin: &'static str,
    read: &'static str,
    write: &'static str,
    commit: &'static str,
}

const KERNEL: Names = Names {
    txn: "kernel.txn",
    begin: "kernel.begin",
    read: "kernel.read",
    write: "kernel.write",
    commit: "kernel.commit",
};
const SERVER: Names = Names {
    txn: "server.txn",
    begin: "server.begin",
    read: "server.read",
    write: "server.write",
    commit: "server.commit",
};
const DAEMON: Names = Names {
    txn: "daemon.txn",
    begin: "daemon.begin",
    read: "daemon.read",
    write: "daemon.write",
    commit: "daemon.commit",
};
const TCP: Names = Names {
    txn: "tcp.txn",
    begin: "tcp.begin",
    read: "tcp.read",
    write: "tcp.write",
    commit: "tcp.commit",
};

/// Call times of one replay, nanoseconds, by call kind.
#[derive(Default)]
struct Pass {
    begin: Vec<f64>,
    read: Vec<f64>,
    write: Vec<f64>,
    commit_query: Vec<f64>,
    commit_update: Vec<f64>,
    txns_per_s: f64,
}

impl Pass {
    fn kinds(&self) -> [&Vec<f64>; 5] {
        [&self.begin, &self.read, &self.write, &self.commit_query, &self.commit_update]
    }

    /// Time of the average call in microseconds: each kind's median,
    /// weighted by how often the stream makes that call. Medians, so one
    /// preempted call on a 2-core box does not move a hop. Update commits
    /// are left out: where the stack is durable they wait on the disk,
    /// and a slow `fdatasync` in one pass is not a layer's overhead.
    fn per_call_us(&self) -> f64 {
        let kinds = &self.kinds()[..4];
        let calls: usize = kinds.iter().map(|k| k.len()).sum();
        let total: f64 = kinds.iter().map(|k| median(k) * k.len() as f64).sum();
        total / calls.max(1) as f64 / 1e3
    }
}

fn replay(
    depth: &mut impl Depth,
    names: &Names,
    specs: &[TxnSpec],
    tracer: &mut Tracer,
    epoch: Instant,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let now = || epoch.elapsed().as_nanos() as u64;
    let started = Instant::now();
    for (i, spec) in specs.iter().enumerate() {
        let txn = i as u64 + 1;
        let span = tracer.open();
        let limit = Limit::at_most(spec.limit);
        let (kind, bounds) = if spec.update {
            (TxnKind::Update, TxnBounds::export(limit))
        } else {
            (TxnKind::Query, TxnBounds::import(limit))
        };
        let t0 = now();
        depth.begin(kind, bounds)?;
        let mut t = now();
        pass.begin.push((t - t0) as f64);
        tracer.leaf(span, txn, names.begin, t0, t);
        let mut values = Vec::with_capacity(spec.reads.len());
        for &obj in &spec.reads {
            values.push(depth.read(ObjectId(obj))?);
            let end = now();
            pass.read.push((end - t) as f64);
            tracer.leaf(span, txn, names.read, t, end);
            t = now();
        }
        for &(obj, val) in &spec.writes {
            let value = match val {
                WriteVal::Const(v) => v,
                WriteVal::ReadPlus { read, delta } => values[read] + delta,
            };
            t = now();
            depth.write(ObjectId(obj), value)?;
            let end = now();
            pass.write.push((end - t) as f64);
            tracer.leaf(span, txn, names.write, t, end);
        }
        t = now();
        depth.commit()?;
        let end = now();
        let commits = if spec.update { &mut pass.commit_update } else { &mut pass.commit_query };
        commits.push((end - t) as f64);
        tracer.leaf(span, txn, names.commit, t, end);
        tracer.close(span, 0, txn, names.txn, t0, end);
    }
    pass.txns_per_s = specs.len() as f64 / started.elapsed().as_secs_f64();
    Ok(pass)
}

/// Mean nanoseconds per call of `f`, the median of five timed loops.
fn loop_ns(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let runs: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&runs)
}

/// Median `fdatasync` of a 128-byte append on the filesystem holding
/// `dir`, in microseconds: the floor under every durable commit.
pub fn raw_fdatasync_p50_us(dir: &Path) -> Result<f64, String> {
    let path = dir.join("fdatasync.probe");
    let probe = || -> std::io::Result<f64> {
        let mut file = std::fs::File::create(&path)?;
        let mut times = Vec::with_capacity(200);
        for _ in 0..200 {
            file.write_all(&[0x5a; 128])?;
            let t0 = Instant::now();
            file.sync_data()?;
            times.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        Ok(median(&times))
    };
    let out = probe().map_err(|e| format!("fdatasync probe in {}: {e}", dir.display()));
    let _ = std::fs::remove_file(&path);
    out
}

/// Append, sync and recover [`WAL_PROBE_RECORDS`] redo records in a
/// fresh directory with `w`'s table shape.
fn wal_probe(w: &Workload, dir: &Path, out: &mut BTreeMap<String, Metric>) -> Result<(), String> {
    let err = |what: &str, e: std::io::Error| format!("wal probe: {what}: {e}");
    let pager =
        w.cache_pages.map(|cache_pages| PagerConfig { cache_pages, ..PagerConfig::default() });
    // First boot: builds the heap file when paged, and names the first seq.
    let recover_once = || -> std::io::Result<(u64, u64)> {
        match &pager {
            Some(cfg) => recover_paged(dir, &catalog(w), cfg).map(|r| (r.next_seq, r.replayed)),
            None => recover(dir, &catalog(w)).map(|r| (r.next_seq, r.replayed)),
        }
    };
    let (next_seq, _) = recover_once().map_err(|e| err("first boot", e))?;
    let wal = Wal::open(dir, next_seq, WalOptions::default()).map_err(|e| err("open", e))?;
    let (mut appends, mut syncs) = (Vec::new(), Vec::new());
    for i in 0..WAL_PROBE_RECORDS {
        let obj = (i * 7919 % u64::from(w.objects)) as u32;
        let writes = [(ObjectId(obj), 4000 + i as i64), (ObjectId(obj ^ 1), 5000)];
        let t0 = Instant::now();
        let seq = wal.append_commit(TxnId(i + 1), Timestamp::new(i + 1, SiteId(1)), 0, &writes);
        let t1 = Instant::now();
        wal.sync_to(seq);
        appends.push((t1 - t0).as_nanos() as f64 / 1e3);
        syncs.push(t1.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(wal);
    let t0 = Instant::now();
    let (_, replayed) = recover_once().map_err(|e| err("recover", e))?;
    let secs = t0.elapsed().as_secs_f64();
    if replayed != WAL_PROBE_RECORDS {
        return Err(format!(
            "wal probe: recovery replayed {replayed} of {WAL_PROBE_RECORDS} records"
        ));
    }
    let n = WAL_PROBE_RECORDS;
    out.insert("storage.wal_append_us".into(), Metric::over(&appends, "us", n));
    out.insert("storage.wal_sync_us".into(), Metric::over(&syncs, "us", n));
    out.insert(
        "storage.recover_records_per_s".into(),
        Metric::whole(replayed as f64 / secs, "1/s", n),
    );
    Ok(())
}

/// Workload-independent CPU probes of single calls.
fn cpu_probes(out: &mut BTreeMap<String, Metric>) {
    const ITERS: u64 = 20_000;
    let mut put = |name: &str, ns: f64| {
        out.insert(name.to_owned(), Metric::whole(ns, "ns", ITERS));
    };

    let request = WireRequest {
        id: 7,
        retry: false,
        body: RequestBody::Op { txn: TxnId(42), op: Operation::Read(ObjectId(17)) },
    };
    let bytes = frame::to_bytes(&request);
    put(
        "net.frame_encode_ns",
        loop_ns(ITERS, |_| drop(black_box(frame::to_bytes(black_box(&request))))),
    );
    put(
        "net.frame_decode_ns",
        loop_ns(ITERS, |_| drop(black_box(frame::from_bytes::<WireRequest>(black_box(&bytes))))),
    );

    let record = WalRecord {
        seq: 1,
        txn: TxnId(42),
        ts: Timestamp::new(1_000_000, SiteId(1)),
        exported: 0,
        writes: vec![(ObjectId(17), 4321), (ObjectId(4711), 5678)],
    };
    let bytes = codec::to_bytes(&record);
    put(
        "core.codec_wal_encode_ns",
        loop_ns(ITERS, |_| drop(black_box(codec::to_bytes(black_box(&record))))),
    );
    put(
        "core.codec_wal_decode_ns",
        loop_ns(ITERS, |_| drop(black_box(codec::from_bytes::<WalRecord>(black_box(&bytes))))),
    );

    // Depth 3: root -> group -> subgroup -> object.
    let mut builder = HierarchySchema::builder();
    let group = builder.group("g");
    let sub = builder.subgroup(group, "s");
    builder.attach_range(0..64, sub);
    let schema = builder.build();
    let bounds = TxnBounds::import(Limit::at_most(u64::MAX / 2))
        .with_group("g", Limit::at_most(u64::MAX / 4))
        .with_group("s", Limit::at_most(u64::MAX / 8));
    put(
        "core.ledger_new_ns",
        loop_ns(ITERS, |_| drop(black_box(Ledger::new(&schema, black_box(&bounds))))),
    );
    let mut ledger = Ledger::new(&schema, &bounds);
    put(
        "core.ledger_charge_ns",
        loop_ns(ITERS, |i| {
            let _ = black_box(ledger.try_charge(ObjectId((i % 64) as u32), 1, Limit::Unlimited));
        }),
    );

    let hist = LatencyHistogram::new();
    put("obs.hist_record_ns", loop_ns(ITERS, |i| hist.record(black_box(i))));
    black_box(hist.count());
}

/// The virtual-time simulator at the paper's configuration (MPL 4, its
/// fixed seed). `sim.virtual_txn_per_s` is exact: it repeats to the last
/// digit until a change alters a scheduling decision.
fn sim_probe(out: &mut BTreeMap<String, Metric>) {
    let t0 = Instant::now();
    let result = simulate(&SimConfig::default());
    let wall = t0.elapsed().as_secs_f64();
    let commits = result.stats.commits();
    out.insert("sim.virtual_txn_per_s".into(), Metric::whole(result.throughput, "1/s", commits));
    out.insert("sim.wall_txn_per_s".into(), Metric::whole(commits as f64 / wall, "1/s", commits));
}

/// Pool hit and miss service time of `PagedHeap::pin_object`.
fn page_probe(kernel: &Kernel, out: &mut BTreeMap<String, Metric>) {
    let Some(heap) = kernel.table().pager() else {
        return;
    };
    const HITS: u64 = 20_000;
    drop(heap.pin_object(ObjectId(0)));
    let hit_ns = loop_ns(HITS, |_| drop(black_box(heap.pin_object(ObjectId(0)))));
    // Stride through far more pages than the pool holds: every pin misses.
    let objects = heap.len() as u64;
    let per_page = (objects / heap.logical_pages().max(1) as u64).max(1);
    let before = heap.cache_stats().misses;
    let t0 = Instant::now();
    let mut pins = 0u64;
    let mut obj = 0u64;
    while obj < objects && pins < 4000 {
        drop(black_box(heap.pin_object(ObjectId(obj as u32))));
        obj += per_page * 2;
        pins += 1;
    }
    let misses = heap.cache_stats().misses - before;
    let miss_us = t0.elapsed().as_nanos() as f64 / 1e3 / misses.max(1) as f64;
    out.insert("storage.page_hit_ns".into(), Metric::whole(hit_ns, "ns", HITS));
    out.insert("storage.page_miss_us".into(), Metric::whole(miss_us, "us", misses));
}

/// The leading transactions of both clients' measured streams,
/// interleaved, so every transaction class of the workload is replayed.
fn peel_stream(w: &'static Workload, seed: u64) -> Vec<TxnSpec> {
    let mut streams: Vec<_> = (0..CLIENTS).map(|c| w.stream(seed, "run", c)).collect();
    (0..HASHED_TXNS).map(|i| streams[i % CLIENTS].next_txn()).collect()
}

/// Run the peel and every probe. `daemon` is a fresh, idle `esr-tcpd`
/// started with the workload's flags. Returns the `P`-sourced per-layer metrics and whether
/// the peel reconciled.
pub fn run(
    w: &'static Workload,
    seed: u64,
    scratch: &Path,
    daemon: SocketAddr,
    tracer: &mut Tracer,
    epoch: Instant,
) -> Result<(BTreeMap<String, Metric>, bool), String> {
    let mut out = BTreeMap::new();
    let specs = peel_stream(w, seed);

    // Depth 0 on a stack of its own: its timestamps come from a local
    // clock the other depths' server-corrected clocks know nothing of.
    let server = build_server(w, &scratch.join("peel-kernel"))?;
    let mut direct = Direct {
        kernel: Arc::clone(server.kernel()),
        clock: TimestampGenerator::new(SiteId(1), Arc::new(SystemTimeSource::new())),
        txn: TxnId(0),
    };
    let kernel = replay(&mut direct, &KERNEL, &specs, tracer, epoch)?;
    if w.durable {
        let t0 = Instant::now();
        let done = direct.kernel.checkpoint();
        let ms = t0.elapsed().as_nanos() as f64 / 1e6;
        done.map_err(|e| format!("peel: checkpoint: {e}"))?;
        out.insert("storage.checkpoint_ms".into(), Metric::whole(ms, "ms", 1));
        wal_probe(w, &scratch.join("wal-probe"), &mut out)?;
    }
    page_probe(&direct.kernel, &mut out);
    drop(direct);
    drop(server);

    let server = build_server(w, &scratch.join("peel-server"))?;
    let channel = replay(&mut server.connect(), &SERVER, &specs, tracer, epoch)?;
    let tcp_server =
        TcpServer::bind(server, "127.0.0.1:0").map_err(|e| format!("peel: bind: {e}"))?;
    let mut conn = TcpConnection::connect(tcp_server.local_addr())
        .map_err(|e| format!("peel: connect: {e}"))?;
    let tcp = replay(&mut conn, &TCP, &specs, tracer, epoch)?;
    drop(conn);
    drop(tcp_server);
    // The same stream, one client, against a real daemon process: a call
    // time none of the three depths had a hand in.
    let mut conn =
        TcpConnection::connect(daemon).map_err(|e| format!("peel: connect to {daemon}: {e}"))?;
    let real = replay(&mut conn, &DAEMON, &specs, tracer, epoch)?;
    drop(conn);

    let n = specs.len() as u64;
    let kinds = ["begin", "read", "write", "commit_query", "commit_update"];
    for (kind, times) in kinds.iter().zip(kernel.kinds()) {
        let us: Vec<f64> = times.iter().map(|ns| ns / 1e3).collect();
        out.insert(format!("tso.{kind}_us"), Metric::over(&us, "us", us.len() as u64));
    }
    let server_hop = channel.per_call_us() - kernel.per_call_us();
    let net_hop = tcp.per_call_us() - channel.per_call_us();
    out.insert("server.hop_us".into(), Metric::whole(server_hop, "us", n));
    out.insert("net.hop_us".into(), Metric::whole(net_hop, "us", n));
    out.insert("net.mpl1_txn_per_s".into(), Metric::whole(tcp.txns_per_s, "1/s", n));
    // The hops telescope to the TCP depth by construction; what they are
    // held against is the real daemon's call time. A peel built unlike
    // the daemon (workers, table, durability) or a depth that mistimes
    // its calls shows here.
    let modelled = kernel.per_call_us() + server_hop + net_hop;
    let residual = (modelled - real.per_call_us()).abs() / real.per_call_us();
    let calls = real.kinds()[..4].iter().map(|k| k.len() as u64).sum();
    out.insert("trace.peel_residual_share".into(), Metric::whole(residual, "share", calls));

    cpu_probes(&mut out);
    sim_probe(&mut out);
    Ok((out, residual <= PEEL_TOLERANCE))
}
