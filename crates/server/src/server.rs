//! The central transaction server.

use crate::connection::Connection;
use crate::obs::{RequestKind, ServerObs};
use crate::proto::MAX_BATCH;
use crate::proto::{BeginReply, EndReply, OpReply, ReplySink, Request, ServerStats, StatsReply};
use esr_clock::{
    CorrectionFactor, ManualTimeSource, SkewedSource, SystemTimeSource, TimeSource,
    TimestampGenerator,
};
use esr_core::ids::{SiteId, TxnId};
use esr_tso::{AbortReason, Kernel, KernelError, OpOutcome, PendingOp};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Ignored. The server has no worker pool any more: every request,
    /// from a socket or from an in-process [`Connection`], runs on the
    /// thread that issued it ([`RpcHandle::serve`]), so the server is as
    /// multithreaded as its callers. The field stays only because the
    /// benchmark harness (`benchmark/`, frozen) names it; it goes when
    /// the harness stops doing so.
    pub workers: usize,
    /// Synchronous per-operation latency injected at the client side of
    /// the channel, modelling the paper's RPC (≈17–20 ms there). `None`
    /// for full speed. The TCP transport (`esr-net`) ignores this — its
    /// RPC cost is real.
    pub rpc_latency: Option<Duration>,
    /// Use a virtual (manually driven) reference clock instead of the
    /// wall clock. Tests use this for determinism.
    pub virtual_time: bool,
    /// How often the reaper thread advances the kernel lease clock and
    /// aborts expired transactions. Only relevant when the kernel was
    /// built with `lease_micros > 0` (no reaper thread is spawned
    /// otherwise). The effective lease is `lease_micros` ± one tick.
    pub reap_interval: Duration,
    /// Base offset of the server reference clock, in microseconds.
    /// After a crash, recovery reports the largest timestamp tick in
    /// the durable state, and the restarted server sets this above it:
    /// every timestamp is derived (via correction factors) from the
    /// reference, so a reference that restarted at ~0 would stamp new
    /// transactions *before* recovered committed writes and abort them
    /// forever.
    pub clock_epoch_micros: u64,
    /// Checkpoint cadence when the kernel has a durability sink
    /// attached: every interval, commits are briefly quiesced and a
    /// snapshot is written so the log can be pruned and recovery stays
    /// fast. `None` (the default) disables the checkpoint thread; a
    /// final checkpoint is still written on clean shutdown.
    pub checkpoint_interval: Option<Duration>,
    /// Back the object table with the paged buffer pool instead of
    /// keeping every object resident: `Some(n)` caps the page cache at
    /// `n` frames, letting the database grow larger than RAM. Only
    /// consulted by the durable boot path ([`crate::start_durable`]);
    /// an in-memory server ignores it.
    pub cache_pages: Option<usize>,
    /// Crash injection: make the pager abort the process midway through
    /// its N-th dirty-page write-back (1-based), leaving a torn extent
    /// on disk. Test harness only; requires `cache_pages`.
    pub page_torn_after: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            rpc_latency: None,
            virtual_time: false,
            reap_interval: Duration::from_millis(50),
            clock_epoch_micros: 0,
            checkpoint_interval: None,
            cache_pages: None,
            page_torn_after: None,
        }
    }
}

/// The error text used when shutdown answers requests it cannot serve.
pub const SHUTDOWN_ERROR: &str = "server shut down";

/// The stable prefix of a busy reject: the request was refused for a
/// transient reason and may be resent after a back-off. Today only a
/// replica sends it, for a read its budget cannot cover until the
/// replica has caught up (the text predates that and is matched by
/// deployed clients, so it stays).
pub const BUSY_ERROR: &str = "server busy (request queue full)";

/// Hands out site ids, erroring (instead of silently wrapping) when the
/// 16-bit site space is exhausted, and recycling ids released by
/// disconnected clients.
///
/// `SiteId` is a `u16` on the wire; the previous `AtomicU16::fetch_add`
/// wrapped after 65,535 connections, at which point two live connections
/// shared a site and timestamp uniqueness — the bedrock of timestamp
/// ordering — silently broke. The counter is now wider than the id
/// space, so exhaustion is observable and refused; and because a
/// long-running server with connection churn would otherwise burn
/// through the space (every TCP `Hello` consumes an id), transports
/// [`SiteAllocator::release`] ids when a connection goes away, and
/// those are reused before fresh ones are minted.
///
/// Reuse preserves timestamp uniqueness for *live* sites: two
/// simultaneously connected clients never share an id. A recycled id
/// can in principle collide with a timestamp the previous holder
/// issued, but only if the new holder's corrected clock reads an
/// earlier instant than the old holder ever stamped — bounded by the
/// residual correction error (~RTT/2), not by the configured skew.
#[derive(Debug)]
pub struct SiteAllocator {
    next: AtomicU32,
    /// Released ids awaiting reuse, smallest first. A set (not a list)
    /// so a double release cannot hand one id to two connections.
    free: Mutex<std::collections::BTreeSet<SiteId>>,
}

impl SiteAllocator {
    /// Site 0 is reserved for the server/initial values; clients start
    /// at 1.
    pub fn new() -> Self {
        SiteAllocator {
            next: AtomicU32::new(1),
            free: Mutex::new(std::collections::BTreeSet::new()),
        }
    }

    /// Allocate a site id — a recycled one if any has been released,
    /// else the next fresh id — or `None` once all 65,535 client ids
    /// are simultaneously in use.
    pub fn alloc(&self) -> Option<SiteId> {
        if let Some(site) = self.free.lock().pop_first() {
            return Some(site);
        }
        // fetch_add on the wider counter cannot wrap in any realistic
        // run (it would take 2^32 allocations); ids past u16::MAX are
        // refused rather than reused.
        let raw = self.next.fetch_add(1, Ordering::Relaxed);
        u16::try_from(raw).ok().map(SiteId)
    }

    /// Return a no-longer-used site id to the pool. Ignores site 0
    /// (reserved) and ids that were never handed out.
    pub fn release(&self, site: SiteId) {
        if site.0 == 0 || u32::from(site.0) >= self.next.load(Ordering::Relaxed) {
            return;
        }
        self.free.lock().insert(site);
    }

    /// How many ids are currently allocated (handed out, not released).
    pub fn allocated(&self) -> u32 {
        let minted = self.next.load(Ordering::Relaxed).saturating_sub(1);
        minted.saturating_sub(self.free.lock().len() as u32)
    }
}

impl Default for SiteAllocator {
    fn default() -> Self {
        Self::new()
    }
}

/// Connecting failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnectError {
    /// All 65,535 site ids are in use.
    SitesExhausted,
    /// The server has been shut down.
    ServerDown,
}

impl fmt::Display for ConnectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnectError::SitesExhausted => f.write_str("site id space exhausted (65535 in use)"),
            ConnectError::ServerDown => f.write_str("server is down"),
        }
    }
}

impl std::error::Error for ConnectError {}

/// Fibonacci multiplier for shard selection (same constant the kernel
/// uses): multiply-shift spreads consecutive ids across shards.
const SHARD_HASH: u64 = 0x9E37_79B9_7F4A_7C15;

/// Shards in the parked-reply map. Fixed: the map is touched once per
/// park/wake, so 16 shards keep concurrent serving threads apart.
const PENDING_SHARDS: usize = 16;

/// Reply sinks of operations currently parked on kernel wait queues,
/// sharded by `TxnId` hash so a wake serviced on one thread does not
/// contend with parks and completions on the others. Each entry lives
/// in exactly one shard (its transaction's); no path ever holds two
/// shard locks at once.
pub(crate) struct PendingShards {
    shards: Box<[Mutex<PendingShard>]>,
}

/// One shard of the parked-reply map.
type PendingShard = HashMap<TxnId, ReplySink<OpReply>>;

impl PendingShards {
    fn new() -> Self {
        PendingShards {
            shards: (0..PENDING_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    #[inline]
    fn shard(&self, txn: TxnId) -> &Mutex<PendingShard> {
        let h = txn.0.wrapping_mul(SHARD_HASH) >> 32;
        &self.shards[(h as usize) & (PENDING_SHARDS - 1)]
    }

    fn insert(&self, txn: TxnId, sink: ReplySink<OpReply>) {
        self.shard(txn).lock().insert(txn, sink);
    }

    fn remove(&self, txn: TxnId) -> Option<ReplySink<OpReply>> {
        self.shard(txn).lock().remove(&txn)
    }

    /// Drain every parked sink (shutdown): one shard at a time.
    fn drain(&self) -> Vec<(TxnId, ReplySink<OpReply>)> {
        self.shards
            .iter()
            .flat_map(|s| s.lock().drain().collect::<Vec<_>>())
            .collect()
    }
}

type PendingReplies = Arc<PendingShards>;

/// The server: owns the kernel, serves requests on the threads that
/// bring them, and routes wakeups back to the blocked clients.
pub struct Server {
    /// The kernel and everything a request needs besides it; what
    /// [`Server::rpc_handle`] clones.
    rpc: RpcHandle,
    /// The lease reaper thread, present only when the kernel has leases
    /// enabled. Stopped via `reaper_stop` + unpark on shutdown.
    reaper: Option<JoinHandle<()>>,
    reaper_stop: Arc<std::sync::atomic::AtomicBool>,
    /// The periodic checkpoint thread, present only when the kernel has
    /// a durability sink and a checkpoint interval is configured.
    /// Stopped via `checkpointer_stop` + unpark on shutdown.
    checkpointer: Option<JoinHandle<()>>,
    checkpointer_stop: Arc<std::sync::atomic::AtomicBool>,
    manual: Option<ManualTimeSource>,
    config: ServerConfig,
}

impl Server {
    /// Start a server over `kernel`.
    pub fn start(kernel: Kernel, config: ServerConfig) -> Self {
        let kernel = Arc::new(kernel);
        let (reference, manual): (Arc<dyn TimeSource>, Option<ManualTimeSource>) =
            if config.virtual_time {
                let m = ManualTimeSource::starting_at(1 + config.clock_epoch_micros);
                (Arc::new(m.clone()), Some(m))
            } else if config.clock_epoch_micros > 0 {
                // A recovered server resumes its timeline above every
                // pre-crash timestamp (see `clock_epoch_micros`).
                (
                    Arc::new(SkewedSource::new(
                        SystemTimeSource::new(),
                        i64::try_from(config.clock_epoch_micros).expect("clock epoch fits in i64"),
                    )),
                    None,
                )
            } else {
                (Arc::new(SystemTimeSource::new()), None)
            };
        // The live observability layer is on by default: the kernel
        // histograms are relaxed atomics and proven outcome-neutral, so
        // a production server is always measurable. It measures on the
        // server reference clock, so a virtual-time server stays
        // deterministic with obs on.
        kernel.enable_obs_with_clock(Arc::clone(&reference));
        let rpc = RpcHandle {
            sites: Arc::new(SiteAllocator::new()),
            reference,
            kernel,
            pending: Arc::new(PendingShards::new()),
            obs: Arc::new(ServerObs::new()),
            contributors: Arc::new(RwLock::new(Vec::new())),
            down: Arc::new(RwLock::new(false)),
        };
        let (kernel, reference) = (&rpc.kernel, &rpc.reference);
        let reaper_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reaper = if kernel.config().lease_micros > 0 {
            // Seed the lease clock before any transaction can begin, so
            // the first leases are measured from a real instant rather
            // than from zero.
            kernel.set_now(reference.raw_micros());
            let rpc = rpc.clone();
            let stop = Arc::clone(&reaper_stop);
            let interval = config.reap_interval.max(Duration::from_millis(1));
            Some(
                std::thread::Builder::new()
                    .name("esr-server-reaper".into())
                    .spawn(move || reaper_loop(rpc, stop, interval))
                    .expect("spawn server reaper"),
            )
        } else {
            None
        };
        let checkpointer_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let checkpointer = match (kernel.durability(), config.checkpoint_interval) {
            (Some(_), Some(interval)) => {
                let k = Arc::clone(kernel);
                let stop = Arc::clone(&checkpointer_stop);
                let interval = interval.max(Duration::from_millis(1));
                Some(
                    std::thread::Builder::new()
                        .name("esr-server-checkpoint".into())
                        .spawn(move || checkpoint_loop(k, stop, interval))
                        .expect("spawn server checkpointer"),
                )
            }
            _ => None,
        };
        Server {
            rpc,
            reaper,
            reaper_stop,
            checkpointer,
            checkpointer_stop,
            manual,
            config,
        }
    }

    /// The kernel (stats, table inspection).
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.rpc.kernel
    }

    /// The full live snapshot ([`StatsSource::stats`] of the server's
    /// [`RpcHandle`]): the value a remote client obtains through a
    /// `Stats` request and `/metrics` renders.
    pub fn stats(&self) -> ServerStats {
        self.rpc.stats()
    }

    /// The manually driven reference clock, when `virtual_time` is on.
    pub fn manual_clock(&self) -> Option<&ManualTimeSource> {
        self.manual.as_ref()
    }

    /// Open a connection whose site clock agrees with the server.
    ///
    /// Panics if the site id space is exhausted or the server was shut
    /// down; use [`Server::try_connect_with_skew`] to handle those.
    pub fn connect(&self) -> Connection {
        self.connect_with_skew(0)
    }

    /// Open a connection whose site clock is skewed by `skew_micros`
    /// (the paper saw up to two minutes) and then corrected into virtual
    /// synchrony with the server via a correction factor (§6).
    ///
    /// Panics if the site id space is exhausted or the server was shut
    /// down; use [`Server::try_connect_with_skew`] to handle those.
    pub fn connect_with_skew(&self, skew_micros: i64) -> Connection {
        self.try_connect_with_skew(skew_micros)
            .expect("connect failed")
    }

    /// Fallible variant of [`Server::connect_with_skew`].
    pub fn try_connect_with_skew(&self, skew_micros: i64) -> Result<Connection, ConnectError> {
        if *self.rpc.down.read() {
            return Err(ConnectError::ServerDown);
        }
        let site = self.rpc.alloc_site()?;
        // A site clock (epoch base + skew) rather than a bare skew: a
        // negatively skewed reading of the young reference would
        // saturate at zero and freeze the site's clock entirely.
        let skewed: Arc<dyn TimeSource> = Arc::new(SkewedSource::site_clock(
            Arc::clone(&self.rpc.reference),
            skew_micros,
        ));
        // The time exchange of the correction protocol: zero modelled
        // round trip because the "network" is an in-process channel.
        // Best-of-8 sampling bounds the error a preemption between the
        // two clock reads could otherwise inject.
        let cf = CorrectionFactor::estimate_best_of(&skewed, &self.rpc.reference, 8);
        let generator = TimestampGenerator::with_correction(site, skewed, cf);
        let rpc = self.rpc.clone();
        Ok(Connection::new(
            Box::new(move |req| rpc.serve(req)),
            Arc::new(generator),
            self.config.rpc_latency,
        ))
    }

    /// A handle a network transport uses to run requests against the
    /// kernel ([`RpcHandle::serve`]) and to serve the connection
    /// handshake (site allocation, reference-clock reads for
    /// correction-factor exchanges).
    pub fn rpc_handle(&self) -> RpcHandle {
        self.rpc.clone()
    }

    /// Stop serving requests. Called by `Drop`; explicit shutdown lets
    /// callers assert quiescence first.
    ///
    /// Live connections do not block shutdown beyond the request each
    /// has in service. Every request that arrives from now on and every
    /// operation parked on a kernel wait queue is answered with an
    /// explicit [`SHUTDOWN_ERROR`] through its reply sink — clients see
    /// a reported failure, not a silently dropped channel.
    pub fn shutdown(&mut self) {
        self.reaper_stop
            .store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(reaper) = self.reaper.take() {
            reaper.thread().unpark();
            let _ = reaper.join();
        }
        self.checkpointer_stop
            .store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(ckpt) = self.checkpointer.take() {
            ckpt.thread().unpark();
            let _ = ckpt.join();
        }
        // Taking the gate exclusively waits out every request in service,
        // on whichever thread: past this line nothing commits or parks,
        // so the drain of parked sinks below is final and the last
        // checkpoint sees every commit.
        *self.rpc.down.write() = true;
        for (_, sink) in self.rpc.pending.drain() {
            sink.send(OpReply::Error(SHUTDOWN_ERROR.to_owned()));
        }
        // Durable shutdown, now that nothing can commit: write a final checkpoint (the next boot recovers
        // without replay) and join the WAL flusher thread.
        if let Some(d) = self.rpc.kernel.durability() {
            if let Err(e) = self.rpc.kernel.checkpoint() {
                eprintln!("esr-server: final checkpoint failed: {e}");
            }
            d.sink().shutdown_sink();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Adds to every [`ServerStats`] snapshot a block the server itself
/// cannot see.
type StatsContributor = Box<dyn Fn(&mut ServerStats) + Send + Sync>;

/// Anything that reports a full [`ServerStats`] — a primary's
/// [`RpcHandle`], a replica node — and can therefore answer a `Stats`
/// request and back a metrics endpoint with the same value.
pub trait StatsSource: Send + Sync {
    /// A fresh snapshot.
    fn stats(&self) -> ServerStats;
}

/// The doorway into a running server: runs requests against the kernel
/// on the caller's thread and answers the connection handshake.
/// Cloneable; each network listener holds one, and so does every
/// in-process [`Connection`].
#[derive(Clone)]
pub struct RpcHandle {
    sites: Arc<SiteAllocator>,
    reference: Arc<dyn TimeSource>,
    kernel: Arc<Kernel>,
    pending: PendingReplies,
    obs: Arc<ServerObs>,
    /// Fill in the snapshot blocks only their owners know (conformance
    /// monitor, replication hub); see [`RpcHandle::register_stats`].
    contributors: Arc<RwLock<Vec<StatsContributor>>>,
    /// `true` once shutdown has begun. [`RpcHandle::serve`] holds it
    /// shared for the length of a request, so [`Server::shutdown`],
    /// which takes it exclusively, waits for the requests in service.
    down: Arc<RwLock<bool>>,
}

impl RpcHandle {
    /// Run `req` to completion on the calling thread: the one execution
    /// path of the server, called by an in-process [`Connection`] on its
    /// user's thread and by a network transport's connection threads for
    /// everything that arrives on a socket.
    ///
    /// The reply goes to the request's sink, from this thread unless the
    /// operation parks; a parked operation is answered by whichever
    /// thread later wakes it, and this call returns without it. A
    /// committing `End` on a durable server blocks here until its log
    /// record is synced — that is what gathers concurrent commits into
    /// one group-commit fsync, one per serving thread. Once the server
    /// is shut down every request is answered [`SHUTDOWN_ERROR`].
    pub fn serve(&self, req: Request) {
        let down = self.down.read();
        if *down {
            drop(down);
            req.reject(SHUTDOWN_ERROR);
            return;
        }
        let (kernel, pending) = (&self.kernel, &self.pending);
        let kind = match &req {
            Request::Begin { .. } => Some(RequestKind::Begin),
            Request::Op { .. } => Some(RequestKind::Op),
            Request::Batch { .. } => Some(RequestKind::Batch),
            Request::End { .. } => Some(RequestKind::End),
            Request::Stats { .. } => None,
        };
        self.obs.in_flight().inc();
        let service_start = Instant::now();
        match req {
            Request::Begin {
                kind,
                bounds,
                ts,
                reply,
            } => {
                let id = kernel.begin(kind, bounds, ts);
                reply.send(BeginReply::Started(id));
            }
            Request::Op { txn, op, reply } => {
                dispatch_op(kernel, pending, PendingOp { txn, op }, reply);
            }
            Request::Batch { txn, ops, reply } => {
                drive_batch(kernel, pending, txn, ops, reply);
            }
            Request::End { txn, commit, reply } => {
                let result = if commit {
                    kernel.commit(txn)
                } else {
                    kernel.abort(txn)
                };
                match result {
                    Ok(end) => {
                        let answer = match end.info {
                            Some(info) => EndReply::Committed(info),
                            None => EndReply::Aborted,
                        };
                        // Durability gate: the commit's redo record
                        // must be fsynced before the client is told
                        // "committed". Blocking here is what batches
                        // concurrent commits into one group-commit
                        // fsync. Woken waiters are drained first: they
                        // make progress during the wait, and never
                        // depend on how fast this request's own client
                        // takes its reply.
                        drain_woken(kernel, pending, end.woken);
                        if let (Some(seq), Some(d)) = (end.durable_seq, kernel.durability()) {
                            d.sink().sync_to(seq);
                        }
                        reply.send(answer);
                    }
                    // Unknown is typed, not stringly: the client must
                    // learn the transaction is permanently gone (a lost
                    // commit reply followed by a retry lands here) so it
                    // can drop its handle instead of retrying forever.
                    Err(KernelError::UnknownTxn(t)) => {
                        reply.send(EndReply::Unknown(t));
                    }
                    Err(e) => {
                        reply.send(EndReply::Error(e.to_string()));
                    }
                }
            }
            Request::Stats { reply } => {
                reply.send(StatsReply::Stats(Box::new(self.stats())));
            }
        }
        if let Some(kind) = kind {
            self.obs.record(kind, service_start.elapsed());
        }
        self.obs.in_flight().dec();
    }

    /// Have `contribute` fill in its block of every later snapshot.
    /// The conformance monitor (`monitor`) and the replication hub
    /// (`replication`) register here once, at start-up.
    pub fn register_stats(&self, contribute: impl Fn(&mut ServerStats) + Send + Sync + 'static) {
        self.contributors.write().push(Box::new(contribute));
    }

    /// Allocate a site id for a new remote connection.
    pub fn alloc_site(&self) -> Result<SiteId, ConnectError> {
        self.sites.alloc().ok_or(ConnectError::SitesExhausted)
    }

    /// Return a remote connection's site id for reuse once the
    /// connection is gone. Transports call this when a connection's
    /// thread exits so churn does not exhaust the 16-bit id space.
    pub fn release_site(&self, site: SiteId) {
        self.sites.release(site);
    }

    /// The server reference clock, read for a Cristian-style time
    /// exchange (the client halves its measured round trip).
    pub fn reference_micros(&self) -> u64 {
        self.reference.raw_micros()
    }

    /// Count one client-marked request resend (wire-level retry flag).
    pub fn note_retry(&self) {
        self.obs.note_retry();
    }

    /// Abort transactions orphaned by a disconnected client, through
    /// the normal kernel abort path: uncommitted writes are rolled
    /// back, waiters parked *behind* an orphan are woken and serviced,
    /// and any reply still parked *for* an orphan is answered with a
    /// typed [`AbortReason::Reaped`] (the send goes to the dead
    /// connection and is dropped there, but the pending map must drain).
    /// Transactions that already ended are skipped. Returns how many
    /// were actually reaped.
    ///
    /// Works independently of lease configuration: connection loss is
    /// definite evidence the client is gone, so no expiry wait applies.
    pub fn reap_orphans(&self, txns: &[TxnId]) -> usize {
        let mut reaped = 0;
        for &txn in txns {
            if let Ok(end) = self.kernel.reap(txn) {
                reaped += 1;
                answer_reaped(&self.pending, txn);
                drain_woken(&self.kernel, &self.pending, end.woken);
            }
        }
        reaped
    }
}

impl StatsSource for RpcHandle {
    /// The live snapshot — kernel counters, server gauges, page cache,
    /// durability sink, every declared histogram, then each registered
    /// contributor's block. The only assembler: [`Server::stats`], the
    /// wire `Stats` reply and `/metrics` all return this value.
    fn stats(&self) -> ServerStats {
        let kernel = &self.kernel;
        let mut stats = ServerStats {
            kernel: kernel.stats(),
            active_txns: kernel.active_txns() as u64,
            waitq_depth: kernel.waitq_depth() as u64,
            in_flight: self.obs.in_flight().get(),
            retries: self.obs.retries(),
            page_cache: kernel.table().page_cache_stats(),
            ..ServerStats::default()
        };
        stats.add_histograms(self.obs.service.snapshots());
        if let Some(kobs) = kernel.obs() {
            stats.add_histograms(kobs.snapshots());
        }
        if let Some(d) = kernel.durability() {
            stats.add_sink(d.sink().report());
        }
        for contribute in self.contributors.read().iter() {
            contribute(&mut stats);
        }
        stats
    }
}

/// The reaper thread: periodically advance the kernel lease clock from
/// the server reference clock and abort expired transactions. Runs
/// on a thread of its own so reaping keeps working when every serving
/// thread is busy — exactly the overload situation in which stalled
/// clients must not pin kernel state.
fn reaper_loop(rpc: RpcHandle, stop: Arc<std::sync::atomic::AtomicBool>, interval: Duration) {
    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
        rpc.kernel.set_now(rpc.reference.raw_micros());
        reap_expired_txns(&rpc.kernel, &rpc.pending);
        std::thread::park_timeout(interval);
    }
}

/// Run one reap pass: abort every lease-expired transaction, answer
/// clients parked on a reaped transaction with a typed error, and
/// service the waiters each reap released. Returns the number reaped.
pub(crate) fn reap_expired_txns(kernel: &Kernel, pending: &PendingReplies) -> usize {
    let reaped = kernel.reap_expired();
    let n = reaped.len();
    for (txn, end) in reaped {
        answer_reaped(pending, txn);
        drain_woken(kernel, pending, end.woken);
    }
    n
}

/// Answer a reply sink still parked for a reaped transaction.
fn answer_reaped(pending: &PendingReplies, txn: TxnId) {
    if let Some(sink) = pending.remove(txn) {
        sink.send(OpReply::Aborted(AbortReason::Reaped));
    }
}

/// The checkpoint thread: every interval, quiesce commits briefly and
/// write a durable snapshot so the log stays short. A failed checkpoint
/// is not fatal — the log still holds everything — so it is surfaced
/// and retried on the next tick.
fn checkpoint_loop(
    kernel: Arc<Kernel>,
    stop: Arc<std::sync::atomic::AtomicBool>,
    interval: Duration,
) {
    loop {
        std::thread::park_timeout(interval);
        if stop.load(std::sync::atomic::Ordering::Relaxed) {
            return;
        }
        if let Err(e) = kernel.checkpoint() {
            eprintln!("esr-server: checkpoint failed: {e}");
        }
    }
}

fn send_outcome(reply: ReplySink<OpReply>, outcome: OpOutcome) {
    reply.send(match outcome {
        OpOutcome::Value(v) => OpReply::Value(v),
        OpOutcome::Written | OpOutcome::WriteSkipped => OpReply::Written,
        OpOutcome::Aborted(r) => OpReply::Aborted(r),
        OpOutcome::Wait => unreachable!("Wait outcomes never reach the client"),
    });
}

/// Submit one operation; park its reply if the kernel makes it wait,
/// and service any operations the submission itself woke.
///
/// The reply sink is registered in `pending` *before* the kernel call:
/// if the kernel parks the operation, a commit on another thread may
/// wake and complete it before this call even returns, and that wake
/// path must find the sink. While an operation is parked its entry
/// stays in the map; it is removed exactly once, by whichever path
/// completes the operation.
fn dispatch_op(
    kernel: &Kernel,
    pending: &PendingReplies,
    op: PendingOp,
    reply: ReplySink<OpReply>,
) {
    pending.insert(op.txn, reply);
    match kernel.resume(op) {
        Ok(resp) => {
            // Waiters first, as at `End`: they never depend on how fast
            // this operation's own client takes its reply.
            drain_woken(kernel, pending, resp.woken);
            if resp.outcome != OpOutcome::Wait {
                // Not parked, so no concurrent wake could have consumed
                // the entry: it must still be present.
                if let Some(reply) = pending.remove(op.txn) {
                    send_outcome(reply, resp.outcome);
                }
            }
        }
        Err(e) => {
            if let Some(reply) = pending.remove(op.txn) {
                reply.send(OpReply::Error(e.to_string()));
            }
        }
    }
}

/// Resubmit woken operations, replying to their (blocked) clients as
/// they complete. A resubmitted operation may wait again (its pending
/// entry simply stays registered) or wake further operations; iterate
/// until the queue is dry.
fn drain_woken(kernel: &Kernel, pending: &PendingReplies, woken: Vec<PendingOp>) {
    let mut queue: std::collections::VecDeque<PendingOp> = woken.into();
    while let Some(p) = queue.pop_front() {
        match kernel.resume(p) {
            Ok(resp) => {
                if resp.outcome != OpOutcome::Wait {
                    if let Some(reply) = pending.remove(p.txn) {
                        send_outcome(reply, resp.outcome);
                    }
                }
                queue.extend(resp.woken);
            }
            Err(e) => {
                if let Some(reply) = pending.remove(p.txn) {
                    reply.send(OpReply::Error(e.to_string()));
                }
            }
        }
    }
}

/// The error text filling the remaining slots of a batch whose earlier
/// operation aborted the transaction or failed.
pub const BATCH_FAILED: &str = "earlier operation in batch failed";

/// The error text answering a batch larger than [`MAX_BATCH`].
pub const BATCH_TOO_LARGE: &str = "batch exceeds MAX_BATCH operations";

/// In-flight state of one pipelined batch, shared between the thread
/// that drives it and the wake hooks of any operation that parks.
struct BatchState {
    txn: TxnId,
    /// Operations not yet submitted, in order.
    remaining: std::collections::VecDeque<esr_tso::Operation>,
    /// One reply per completed operation, in submission order.
    replies: Vec<OpReply>,
    /// The client's sink; taken exactly once, when the batch completes.
    reply: Option<ReplySink<Vec<OpReply>>>,
    /// True while some thread is inside [`run_batch`] for this state.
    /// A wake hook that fires while the driver is still running just
    /// records its reply; one that fires after the driver parked the
    /// batch (`driving == false`) takes over driving itself. Exactly
    /// one thread drives at any moment.
    driving: bool,
    /// Set once an operation aborts the transaction or errors; the
    /// remaining operations are answered with [`BATCH_FAILED`] without
    /// touching the kernel (the transaction is gone, or its pipeline
    /// state is unknown).
    failed: bool,
}

/// Service a `Request::Batch`: drive the operations sequentially —
/// they belong to one transaction, so they cannot run concurrently —
/// and answer with one correlated reply per operation.
///
/// An operation that parks suspends the batch; its wake (serviced by
/// whichever thread commits the blocking writer) resumes driving via
/// the hook registered in `pending`, so a suspended batch never holds
/// a serving thread. An abort or error fails the remaining operations
/// without submitting them.
fn drive_batch(
    kernel: &Arc<Kernel>,
    pending: &PendingReplies,
    txn: TxnId,
    ops: Vec<esr_tso::Operation>,
    reply: ReplySink<Vec<OpReply>>,
) {
    if ops.len() > MAX_BATCH {
        reply.send(vec![OpReply::Error(BATCH_TOO_LARGE.to_owned()); ops.len()]);
        return;
    }
    let state = Arc::new(Mutex::new(BatchState {
        txn,
        remaining: ops.into(),
        replies: Vec::new(),
        reply: Some(reply),
        driving: true,
        failed: false,
    }));
    run_batch(kernel, pending, &state);
}

/// Drive `state` until its batch completes or parks. Called by the
/// thread that serves the batch and, after a park, by the wake hook
/// of the parked operation; the `driving` flag guarantees the two
/// never run concurrently.
fn run_batch(kernel: &Arc<Kernel>, pending: &PendingReplies, state: &Arc<Mutex<BatchState>>) {
    loop {
        // Take the next op — or finish the batch — under the lock.
        let (txn, op, completed_before) = {
            let mut s = state.lock();
            if s.failed {
                let n = s.remaining.len();
                s.remaining.clear();
                s.replies.extend(
                    std::iter::repeat_with(|| OpReply::Error(BATCH_FAILED.to_owned())).take(n),
                );
            }
            match s.remaining.pop_front() {
                Some(op) => (s.txn, op, s.replies.len()),
                None => {
                    s.driving = false;
                    let sink = s.reply.take();
                    let replies = std::mem::take(&mut s.replies);
                    drop(s);
                    if let Some(sink) = sink {
                        sink.send(replies);
                    }
                    return;
                }
            }
        };
        let st = Arc::clone(state);
        let k = Arc::clone(kernel);
        let p = Arc::clone(pending);
        let sink = ReplySink::hook(move |r: OpReply| {
            let take_over = {
                let mut s = st.lock();
                if !matches!(r, OpReply::Value(_) | OpReply::Written) {
                    s.failed = true;
                }
                s.replies.push(r);
                // If the driver already parked the batch, this hook is
                // the wake path and must continue driving; if the
                // driver is still running (synchronous completion, or a
                // wake racing the driver's park check), it will see the
                // new reply and keep going itself.
                if s.driving {
                    false
                } else {
                    s.driving = true;
                    true
                }
            };
            if take_over {
                run_batch(&k, &p, &st);
            }
        });
        dispatch_op(kernel, pending, PendingOp { txn, op }, sink);
        // Did the operation complete (its hook fired), or did it park?
        let mut s = state.lock();
        if s.replies.len() == completed_before {
            // Parked: hand driving over to the wake hook and release
            // this thread for other requests.
            s.driving = false;
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_allocator_is_dense_from_one() {
        let a = SiteAllocator::new();
        assert_eq!(a.alloc(), Some(SiteId(1)));
        assert_eq!(a.alloc(), Some(SiteId(2)));
        assert_eq!(a.allocated(), 2);
    }

    #[test]
    fn site_allocator_refuses_exhaustion_instead_of_wrapping() {
        let a = SiteAllocator::new();
        for expect in 1..=u16::MAX {
            assert_eq!(a.alloc(), Some(SiteId(expect)));
        }
        // The 65,536th client must be refused, not handed site 0 or a
        // duplicate of a live site.
        assert_eq!(a.alloc(), None);
        assert_eq!(
            a.alloc(),
            None,
            "exhaustion persists while all ids are live"
        );
        // …but releasing a live id makes room again: churn must not
        // permanently brick a long-running server.
        a.release(SiteId(7));
        assert_eq!(a.alloc(), Some(SiteId(7)));
        assert_eq!(a.alloc(), None);
    }

    #[test]
    fn site_allocator_recycles_released_ids() {
        let a = SiteAllocator::new();
        assert_eq!(a.alloc(), Some(SiteId(1)));
        assert_eq!(a.alloc(), Some(SiteId(2)));
        assert_eq!(a.alloc(), Some(SiteId(3)));
        a.release(SiteId(2));
        a.release(SiteId(1));
        assert_eq!(a.allocated(), 1);
        // Smallest released id first, then fresh ids once the pool is
        // dry.
        assert_eq!(a.alloc(), Some(SiteId(1)));
        assert_eq!(a.alloc(), Some(SiteId(2)));
        assert_eq!(a.alloc(), Some(SiteId(4)));
    }

    #[test]
    fn site_allocator_ignores_bogus_releases() {
        let a = SiteAllocator::new();
        assert_eq!(a.alloc(), Some(SiteId(1)));
        a.release(SiteId(0)); // reserved
        a.release(SiteId(9)); // never handed out
        assert_eq!(a.alloc(), Some(SiteId(2)));
        // Double release must not hand the same id out twice.
        a.release(SiteId(1));
        a.release(SiteId(1));
        assert_eq!(a.alloc(), Some(SiteId(1)));
        assert_eq!(a.alloc(), Some(SiteId(3)));
    }
}
