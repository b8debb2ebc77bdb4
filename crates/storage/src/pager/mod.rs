//! # The pager: larger-than-RAM object storage under the object table.
//!
//! Resident mode keeps every [`ObjectState`] in memory forever and
//! checkpoints by snapshotting the whole table. This module turns that
//! table into a *cache*: objects live in fixed-size pages of a heap
//! file, a pin-count buffer pool keeps a bounded set of pages decoded
//! in memory, and checkpoints flush only what is dirty plus a small
//! directory snapshot.
//!
//! ## Copy-on-write placement
//!
//! A dirty page is never written over its old extent: every write-back
//! allocates a fresh one, swaps the logical→physical map entry, and
//! *retires* the old extent to limbo until the next durable directory
//! snapshot stops referencing it. Recovery reads only extents the last
//! durable snapshot references, so a crash midway through any page
//! write — torn sectors included — is invisible: the torn extent is
//! simply unreachable. No double-write buffer is needed.
//!
//! ## WAL-before-page
//!
//! A dirty page may hold committed values whose redo records are still
//! in the group-commit buffer — or not yet appended at all: a committer
//! installs its writes *before* it appends their record. The rule
//! (ARIES's: flush the log through the page's LSN before the page) is
//! kept with an *exact* page LSN and without ever waiting:
//!
//! * **Stamped at install.** The kernel's install loop runs under the
//!   durability layer's order mutex, which serialises every append, so
//!   it knows the seq its record will take before installing, and
//!   stamps it on each object it commits ([`PinnedObject::cover`]); the
//!   frame keeps the maximum. That covers exactly what recovery
//!   replays: installed values and their history.
//! * **Volatile mutations carry no LSN.** Reader lists, read timestamps
//!   and the uncommitted slot are never logged and are sanitized at
//!   recovery (below), so they only mark the page dirty.
//! * **Victims are durable.** The CLOCK sweep passes over a frame whose
//!   `page_lsn` exceeds the log's durable watermark
//!   ([`DurabilitySink::durable_seq`]) exactly as it passes over a
//!   pinned one, and counts it (`undurable_skips`); if nothing is left
//!   the shard overcommits. Eviction write-back therefore never calls
//!   [`DurabilitySink::sync_to`]: a foreground miss never waits for
//!   another transaction's fsync. A checkpoint syncs the whole log
//!   first, under the commit gate, and then flushes everything.
//!
//! Why skip rather than wait for the page's LSN: the page is almost
//! always durable already (a CLOCK victim was last touched a sweep ago),
//! waiting would put an fsync under the shard lock, and a committer's
//! own install loop can miss on a page it stamped a moment earlier — its
//! record is not appended until the loop ends, so waiting for it would
//! deadlock. Recovery therefore never reads a page whose covering
//! records it cannot replay, and never one holding half a transaction.
//!
//! ## Volatile state across restarts
//!
//! Pages serialize the *full* object state — including the uncommitted
//! write slot and the query-reader list — because eviction must be
//! transparent to the kernel mid-transaction. Those fields are only
//! meaningful within one process lifetime, so every page image is
//! stamped with a boot **epoch**; a restart resumes at `epoch + 1` and
//! sanitizes any older page on first load (restore the shadow value,
//! clear the readers), which is exactly what the resident checkpoint's
//! capture/restore pair does, just lazily.
//!
//! ## Locking
//!
//! Object access goes `directory lookup → shard lock → pin → slot
//! mutex`, with the shard lock dropped before the slot mutex is taken.
//! Eviction and write-back run under the shard lock, so a logical page
//! has at most one frame and at most one write-back at any instant;
//! the kernel's one-object-lock-per-thread discipline bounds pinned
//! frames by the number of threads serving requests. Miss-path I/O happens under the shard
//! lock — a deliberate simplicity trade: misses on *other* shards
//! proceed unhindered.
//!
//! One more gate ties write-backs to checkpoints: the *query* read
//! path mutates objects (reader lists) without the kernel's commit
//! gate, so a query-driven eviction can run [`write_back`] while a
//! checkpoint is gathering its snapshot. The `flush_gate` RwLock makes
//! write-back's allocate→write→swap→retire sequence atomic with
//! respect to the checkpoint's allocator-copy + page-map gather:
//! without it, a write-back landing between the two copies would
//! produce a snapshot that both references a fresh extent and lists it
//! as free, and recovery would hand that extent to the first dirty
//! flush and overwrite the only copy of a live page. Write-backs share
//! the read side (they already serialize per-page via the shard lock);
//! only the checkpoint gather takes the exclusive side, briefly.
//!
//! [`write_back`]: PagedHeap::write_back

pub(crate) mod directory;
pub(crate) mod file;
pub(crate) mod page;
pub(crate) mod pool;
pub mod recover;

pub use page::DEFAULT_PAGE_SIZE;
pub use pool::PageCacheSnapshot;
pub use recover::{recover_paged, PagedRecovered};

use crate::object::ObjectState;
use crate::wal::DurabilitySink;
use directory::{Allocator, Directory, DirectorySnapshot, Extent, PageMap};
use esr_core::ids::ObjectId;
use file::HeapFile;
use parking_lot::{Mutex, MutexGuard, RwLock};
use pool::{Frame, PoolStats, Shard};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Buffer-pool and heap-file configuration.
#[derive(Debug, Clone)]
pub struct PagerConfig {
    /// Physical page size in bytes. Applies when the heap is *created*;
    /// an existing heap keeps the size it was built with.
    pub page_size: usize,
    /// Frame budget: how many pages the pool may keep decoded in
    /// memory (split across shards; tiny budgets are rounded up to two
    /// frames per shard so eviction always has somewhere to stand).
    pub cache_pages: usize,
    /// Shard count for the frame table.
    pub shards: usize,
    /// Bootstrap fill target, percent of a page the packer fills with
    /// *estimated-full* objects, leaving room for history growth.
    pub fill_percent: usize,
    /// Crash injection: abort the process midway through the N-th
    /// dirty-page write-back (1-based). Test harness only.
    pub torn_page_after: Option<u64>,
}

impl Default for PagerConfig {
    fn default() -> Self {
        PagerConfig {
            page_size: DEFAULT_PAGE_SIZE,
            cache_pages: 1024,
            shards: 8,
            fill_percent: 50,
            torn_page_after: None,
        }
    }
}

/// The paged heap: directory + page map + heap file + buffer pool.
pub struct PagedHeap {
    dir: PathBuf,
    file: HeapFile,
    directory: Directory,
    page_map: PageMap,
    alloc: Mutex<Allocator>,
    /// Serializes write-back's allocate→write→swap→retire against the
    /// checkpoint's snapshot gather (see the module Locking docs).
    flush_gate: RwLock<()>,
    shards: Vec<Shard>,
    shard_capacity: usize,
    /// This boot's epoch; pages stamped lower are sanitized on load.
    epoch: u32,
    stats: PoolStats,
    max_ts_ticks: AtomicU64,
    /// Attached once durability is enabled; drives WAL-before-page.
    wal: OnceLock<Arc<dyn DurabilitySink>>,
    /// Dirty write-backs so far (torn-page injection counter).
    flushes: AtomicU64,
    torn_page_after: Option<u64>,
    /// WAL seq covered by the snapshot this boot started from.
    base_seq: u64,
    /// `next_txn` recorded by that snapshot.
    boot_next_txn: u64,
    /// Test-only: widen the checkpoint gather window (between the
    /// allocator-state copy and the page-map copy) so the regression
    /// test can observe whether the flush gate excludes write-backs.
    #[cfg(test)]
    gather_pause_ms: AtomicU64,
}

impl std::fmt::Debug for PagedHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedHeap")
            .field("objects", &self.directory.len())
            .field("logical_pages", &self.page_map.len())
            .field("cache_pages", &self.stats.capacity_pages)
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl PagedHeap {
    /// Create a heap in `dir` from `states` (dense ids, in order), write
    /// every page at epoch 1, and persist an initial directory snapshot
    /// covering WAL seq `base_seq`. Used on first boot and when
    /// migrating a resident-mode data directory.
    ///
    /// The states stream: objects are packed into logical pages by
    /// estimated full size, and each page is encoded and written the
    /// moment it closes, so creation holds one page of states plus the
    /// `(page, slot)` assignments, never the whole table.
    pub fn create(
        dir: impl Into<PathBuf>,
        states: impl IntoIterator<Item = ObjectState>,
        base_seq: u64,
        next_txn: u64,
        cfg: &PagerConfig,
    ) -> io::Result<PagedHeap> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let file = HeapFile::open(&dir, cfg.page_size)?;
        let budget = (cfg.page_size * cfg.fill_percent.clamp(5, 100) / 100)
            .saturating_sub(page::PAGE_HEADER)
            .max(1);
        // Encode a closed page and write it to the extent after the last.
        let write_page = |extents: &mut Vec<Extent>, page: &[ObjectState]| -> io::Result<()> {
            let phys = extents.last().map_or(0, |e| e.phys + u64::from(e.pages));
            let image = page::encode_page(1, page);
            file.write_extent(phys, &image)?;
            extents.push(Extent {
                phys,
                pages: file::extent_pages(image.len(), cfg.page_size) as u16,
            });
            Ok(())
        };

        let states = states.into_iter();
        let mut locations: Vec<u64> = Vec::with_capacity(states.size_hint().0);
        let mut extents = Vec::new();
        let mut current: Vec<ObjectState> = Vec::new();
        let mut current_size = 0usize;
        let mut max_ticks = 0u64;
        for (i, s) in states.enumerate() {
            assert_eq!(s.id.index(), i, "object ids must be dense and in order");
            max_ticks = max_ticks.max(state_ticks(&s));
            let est = page::estimate_full_size(&s);
            if !current.is_empty()
                && (current_size + est > budget || current.len() == usize::from(u16::MAX))
            {
                write_page(&mut extents, &current)?;
                current.clear();
                current_size = 0;
            }
            locations.push(directory::pack_loc(
                extents.len() as u32,
                current.len() as u16,
            ));
            current.push(s);
            current_size += est;
        }
        if !current.is_empty() {
            write_page(&mut extents, &current)?;
        }
        let next_page = extents.last().map_or(0, |e| e.phys + u64::from(e.pages));
        file.sync()?;

        let page_map = PageMap::from_extents(extents);
        let snap = DirectorySnapshot {
            seq: base_seq,
            next_txn,
            epoch: 1,
            page_size: cfg.page_size as u32,
            max_ts_ticks: max_ticks,
            directory: locations,
            page_map: page_map.packed(),
            free: Vec::new(),
            next_page,
        };
        directory::write_snapshot(&dir, &snap)?;

        Ok(Self::assemble(
            dir,
            file,
            Directory::from_packed(snap.directory),
            page_map,
            Allocator::new(next_page, Vec::new()),
            1,
            max_ticks,
            base_seq,
            next_txn,
            cfg,
        ))
    }

    /// Open an existing heap from its newest valid directory snapshot,
    /// bumping the epoch so surviving pages sanitize on load. Returns
    /// `Ok(None)` when `dir` holds no snapshot (fresh or legacy
    /// directory — the caller bootstraps via [`PagedHeap::create`]).
    pub fn open(dir: impl Into<PathBuf>, cfg: &PagerConfig) -> io::Result<Option<PagedHeap>> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let Some(snap) = directory::load_latest(&dir)? else {
            return Ok(None);
        };
        let file = HeapFile::open(&dir, snap.page_size as usize)?;
        Ok(Some(Self::assemble(
            dir,
            file,
            Directory::from_packed(snap.directory),
            PageMap::from_packed(snap.page_map),
            Allocator::new(snap.next_page, snap.free),
            snap.epoch + 1,
            snap.max_ts_ticks,
            snap.seq,
            snap.next_txn,
            cfg,
        )))
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        dir: PathBuf,
        file: HeapFile,
        directory: Directory,
        page_map: PageMap,
        alloc: Allocator,
        epoch: u32,
        max_ts_ticks: u64,
        base_seq: u64,
        boot_next_txn: u64,
        cfg: &PagerConfig,
    ) -> PagedHeap {
        let shards = cfg.shards.max(1);
        let shard_capacity = (cfg.cache_pages / shards).max(2);
        PagedHeap {
            dir,
            file,
            directory,
            page_map,
            alloc: Mutex::new(alloc),
            flush_gate: RwLock::new(()),
            shards: (0..shards).map(|_| Shard::default()).collect(),
            shard_capacity,
            epoch,
            stats: PoolStats {
                capacity_pages: AtomicU64::new(cfg.cache_pages as u64),
                ..PoolStats::default()
            },
            max_ts_ticks: AtomicU64::new(max_ts_ticks),
            wal: OnceLock::new(),
            flushes: AtomicU64::new(0),
            torn_page_after: cfg.torn_page_after,
            base_seq,
            boot_next_txn,
            #[cfg(test)]
            gather_pause_ms: AtomicU64::new(0),
        }
    }

    /// Objects in the heap.
    pub fn len(&self) -> usize {
        self.directory.len()
    }

    /// Is the heap empty?
    pub fn is_empty(&self) -> bool {
        self.directory.len() == 0
    }

    /// Logical pages the heap packs its objects into — the database
    /// size in page terms, the unit cache budgets are expressed in.
    pub fn logical_pages(&self) -> usize {
        self.page_map.len()
    }

    /// WAL sequence covered by the snapshot this boot recovered from.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// `next_txn` recorded by that snapshot.
    pub fn boot_next_txn(&self) -> u64 {
        self.boot_next_txn
    }

    /// Largest timestamp tick ever flushed or recovered (monotone
    /// overestimate; a safe clock floor).
    pub fn max_ts_ticks(&self) -> u64 {
        self.max_ts_ticks.load(Ordering::Acquire)
    }

    /// Raise the timestamp floor (recovery feeds replayed record ticks
    /// through here).
    pub fn note_ts_ticks(&self, ticks: u64) {
        self.max_ts_ticks.fetch_max(ticks, Ordering::AcqRel);
    }

    /// Attach the durability sink that write-backs must wait on.
    /// Idempotent-ish: only the first attachment wins.
    pub fn attach_wal(&self, sink: Arc<dyn DurabilitySink>) {
        let _ = self.wal.set(sink);
    }

    /// Point-in-time cache counters.
    pub fn cache_stats(&self) -> PageCacheSnapshot {
        self.stats.snapshot()
    }

    /// Pin the frame holding `id` and lock its slot.
    ///
    /// # Panics
    /// Panics on out-of-range ids (like the resident table) and on
    /// heap-file I/O errors or checksum failures — a paged read that
    /// cannot be served is unrecoverable mid-operation, and failing
    /// loudly beats serving stale data.
    pub fn pin_object(&self, id: ObjectId) -> PinnedObject {
        self.try_pin_object(id)
            .unwrap_or_else(|e| panic!("paged heap read failed for {id}: {e}"))
    }

    fn try_pin_object(&self, id: ObjectId) -> io::Result<PinnedObject> {
        let (logical, slot) = self.directory.locate(id);
        let shard = &self.shards[logical as usize % self.shards.len()];
        let frame = {
            let mut inner = shard.inner.lock();
            match inner.get(logical) {
                Some(f) => {
                    self.stats.hits.fetch_add(1, Ordering::Relaxed);
                    f.referenced.store(true, Ordering::Release);
                    let f = Arc::clone(f);
                    f.pin.fetch_add(1, Ordering::AcqRel);
                    f
                }
                None => {
                    self.stats.misses.fetch_add(1, Ordering::Relaxed);
                    // Make room among frames whose log is durable. If
                    // every frame is pinned or not yet durable,
                    // overcommit rather than wait (see pool module docs).
                    let durable = self.wal.get().map_or(u64::MAX, |w| w.durable_seq());
                    while inner.len() >= self.shard_capacity {
                        let Some(victim) = inner.pick_victim(durable, &self.stats.undurable_skips)
                        else {
                            break;
                        };
                        self.write_back(&victim, false)?;
                        self.note_unresident(&victim);
                        self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    let frame = self.load_frame(logical)?;
                    frame.pin.fetch_add(1, Ordering::AcqRel);
                    self.note_resident(&frame);
                    inner.insert(Arc::clone(&frame));
                    frame
                }
            }
        };
        // SAFETY: the guard borrows a slot mutex owned by `frame`; the
        // `Arc` in the returned PinnedObject keeps that frame alive for
        // at least as long as the guard, and PinnedObject's Drop
        // releases the guard before the pin. The 'static lifetime never
        // escapes this module.
        let guard = frame.slots[usize::from(slot)].lock();
        let guard: MutexGuard<'static, ObjectState> = unsafe { std::mem::transmute(guard) };
        Ok(PinnedObject {
            guard: Some(guard),
            frame,
            mutated: false,
        })
    }

    /// Read, decode, and (when the page predates this boot) sanitize a
    /// logical page into a fresh frame.
    fn load_frame(&self, logical: u32) -> io::Result<Arc<Frame>> {
        let extent = self.page_map.get(logical);
        let bytes = self
            .file
            .read_extent(extent.phys, usize::from(extent.pages))?;
        let Some((page_epoch, mut states)) = page::decode_page(&bytes) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "corrupt page: logical {logical} at extent {}+{}",
                    extent.phys, extent.pages
                ),
            ));
        };
        if page_epoch != self.epoch {
            // The page was written by an earlier boot: its uncommitted
            // slot and reader list belonged to transactions that died
            // with that process. Same semantics as ObjectSnapshot's
            // capture/restore, applied lazily.
            for s in &mut states {
                sanitize(s);
            }
        }
        Ok(Arc::new(Frame::new(logical, states, extent.pages)))
    }

    /// Write a dirty frame to a fresh extent (copy-on-write) and retire
    /// the old one; returns the bytes written (0 for a clean frame).
    /// Must be called with the frame's shard lock held, which
    /// serializes write-backs of one logical page, and — WAL-before-page
    /// — only once the log is durable through the frame's `page_lsn`:
    /// eviction picks only such frames, a checkpoint syncs the whole log
    /// first. `still_cached` keeps the resident accounting right when
    /// the extent length changes under a checkpoint flush.
    fn write_back(&self, frame: &Frame, still_cached: bool) -> io::Result<u64> {
        if !frame.dirty.swap(false, Ordering::AcqRel) {
            return Ok(0);
        }
        debug_assert!(
            self.wal
                .get()
                .is_none_or(|w| frame.page_lsn.load(Ordering::Acquire) <= w.durable_seq()),
            "WAL-before-page: logical page {} holds an install the log has not made durable",
            frame.logical
        );
        let mut states = Vec::with_capacity(frame.slots.len());
        let mut max_ticks = 0u64;
        for slot in &frame.slots {
            let s = slot.lock().clone();
            max_ticks = max_ticks.max(state_ticks(&s));
            states.push(s);
        }
        self.max_ts_ticks.fetch_max(max_ticks, Ordering::AcqRel);
        let image = page::encode_page(self.epoch, &states);
        let pages = file::extent_pages(image.len(), self.file.page_size()) as u16;
        // A checkpoint gather that runs between our allocate and our
        // page-map swap would persist a snapshot that lists the fresh
        // extent as free while (after the swap) the live map references
        // it; the gate makes the whole sequence atomic vs the gather.
        let _gate = self.flush_gate.read();
        let fresh = self.alloc.lock().allocate(pages);
        let flush_no = self.flushes.fetch_add(1, Ordering::AcqRel) + 1;
        if self.torn_page_after == Some(flush_no) {
            // Crash injection: half the image reaches the platter, then
            // the process dies. Copy-on-write placement must make this
            // invisible to recovery.
            let _ = self.file.write_torn_prefix(fresh.phys, &image);
            let _ = self.file.sync();
            std::process::abort();
        }
        self.file.write_extent(fresh.phys, &image)?;
        let old = self.page_map.swap(frame.logical, fresh);
        self.alloc.lock().retire(old);
        if still_cached {
            let old_pages = frame.extent_pages.swap(u32::from(pages), Ordering::AcqRel);
            self.stats
                .resident_pages
                .fetch_add(u64::from(pages), Ordering::Relaxed);
            self.stats
                .resident_pages
                .fetch_sub(u64::from(old_pages), Ordering::Relaxed);
            self.stats.resident_bytes.fetch_add(
                u64::from(pages) * self.file.page_size() as u64,
                Ordering::Relaxed,
            );
            self.stats.resident_bytes.fetch_sub(
                u64::from(old_pages) * self.file.page_size() as u64,
                Ordering::Relaxed,
            );
        } else {
            frame
                .extent_pages
                .store(u32::from(pages), Ordering::Release);
        }
        self.stats.dirty_flushes.fetch_add(1, Ordering::Relaxed);
        Ok(image.len() as u64)
    }

    fn note_resident(&self, frame: &Frame) {
        let pages = u64::from(frame.extent_pages.load(Ordering::Acquire));
        self.stats
            .resident_pages
            .fetch_add(pages, Ordering::Relaxed);
        self.stats
            .resident_bytes
            .fetch_add(pages * self.file.page_size() as u64, Ordering::Relaxed);
    }

    fn note_unresident(&self, frame: &Frame) {
        let pages = u64::from(frame.extent_pages.load(Ordering::Acquire));
        self.stats
            .resident_pages
            .fetch_sub(pages, Ordering::Relaxed);
        self.stats
            .resident_bytes
            .fetch_sub(pages * self.file.page_size() as u64, Ordering::Relaxed);
    }

    /// Incremental checkpoint: flush every dirty frame, sync the heap
    /// file, persist a directory snapshot covering `seq`, and recycle
    /// limbo; returns the bytes written. The caller (the kernel's
    /// durability layer) holds the commit gate, so no commit is
    /// mid-install, and has synced the log through `seq`; concurrent
    /// *read-path* mutations (reader lists) are volatile and sanitized
    /// at recovery anyway.
    pub fn checkpoint(&self, seq: u64, next_txn: u64) -> io::Result<u64> {
        let mut bytes = 0;
        for shard in &self.shards {
            let inner = shard.inner.lock();
            for frame in inner.frames() {
                bytes += self.write_back(frame, true)?;
            }
        }
        // Gather the map and the allocator state *before* the file
        // sync: extents referenced by the gathered map were written
        // before this point, so the sync below makes them durable.
        // Limbo taken here is exactly what the new snapshot no longer
        // references; it recycles only once the snapshot is durable.
        // The exclusive flush_gate keeps any concurrent write-back
        // (query-driven evictions run outside the commit gate) entirely
        // before or entirely after *both* copies: allocator state and
        // page map are a consistent pair, so the snapshot can never
        // list a referenced extent as free or understate next_page.
        let (snap_free, taken_limbo, next_page, page_map) = {
            let _gate = self.flush_gate.write();
            let mut a = self.alloc.lock();
            let taken = a.take_limbo();
            let mut free = a.snapshot_free();
            for e in &taken {
                free.extend(e.phys..e.phys + u64::from(e.pages));
            }
            let next_page = a.next_page();
            drop(a);
            #[cfg(test)]
            {
                let ms = self.gather_pause_ms.load(Ordering::Relaxed);
                if ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }
            }
            (free, taken, next_page, self.page_map.packed())
        };
        self.file.sync()?;
        let snap = DirectorySnapshot {
            seq,
            next_txn,
            epoch: self.epoch,
            page_size: self.file.page_size() as u32,
            max_ts_ticks: self.max_ts_ticks(),
            directory: self.directory.packed().to_vec(),
            page_map,
            free: snap_free,
            next_page,
        };
        match directory::write_snapshot(&self.dir, &snap) {
            Ok(snap_bytes) => {
                self.alloc.lock().release(taken_limbo);
                Ok(bytes + snap_bytes)
            }
            Err(e) => {
                // The old snapshot may still be the recovery base;
                // keep its extents unrecyclable.
                self.alloc.lock().restore_limbo(taken_limbo);
                Err(e)
            }
        }
    }
}

/// Reset volatile, process-lifetime state on a page loaded from an
/// earlier boot (mirrors `ObjectSnapshot::capture`/`restore`).
fn sanitize(state: &mut ObjectState) {
    if let Some(u) = state.uncommitted.take() {
        state.value = u.shadow;
    }
    state.readers.clear();
}

/// Largest timestamp tick a state carries.
fn state_ticks(s: &ObjectState) -> u64 {
    s.committed_wts
        .ticks
        .max(s.max_query_rts.ticks)
        .max(s.max_update_rts.ticks)
}

/// Exclusive access to one object through the pool: a locked slot in a
/// pinned frame. The pin guarantees the frame survives eviction
/// pressure for the guard's lifetime; dropping the guard marks the
/// frame dirty (if mutated), releases the slot, and unpins.
pub struct PinnedObject {
    /// `'static` is a private fiction: the mutex lives in `frame`,
    /// which the `Arc` keeps alive past the guard, and Drop releases
    /// the guard first.
    guard: Option<MutexGuard<'static, ObjectState>>,
    frame: Arc<Frame>,
    mutated: bool,
}

impl PinnedObject {
    /// Record that this object now holds the install of WAL record
    /// `seq`: the page may not be written back until the log is durable
    /// through it. Only committed installs are covered; every other
    /// mutation (reader lists, read timestamps, the uncommitted slot) is
    /// sanitized at recovery and just marks the page dirty.
    pub(crate) fn cover(&self, seq: u64) {
        // Visible to the evictor before the pin count can reach zero:
        // Drop's unpin releases it.
        self.frame.page_lsn.fetch_max(seq, Ordering::Release);
    }
}

impl std::ops::Deref for PinnedObject {
    type Target = ObjectState;

    #[inline]
    fn deref(&self) -> &ObjectState {
        self.guard.as_ref().expect("guard live")
    }
}

impl std::ops::DerefMut for PinnedObject {
    #[inline]
    fn deref_mut(&mut self) -> &mut ObjectState {
        self.mutated = true;
        self.guard.as_mut().expect("guard live")
    }
}

impl Drop for PinnedObject {
    fn drop(&mut self) {
        if self.mutated {
            // Order matters: dirty must be visible before the pin count
            // can reach zero, because a zero pin makes the frame
            // evictable.
            self.frame.dirty.store(true, Ordering::Release);
        }
        self.guard.take(); // release the slot before unpinning
        self.frame.referenced.store(true, Ordering::Release);
        self.frame.pin.fetch_sub(1, Ordering::AcqRel);
    }
}

impl std::fmt::Debug for PinnedObject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinnedObject")
            .field("logical", &self.frame.logical)
            .field("mutated", &self.mutated)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogConfig;
    use crate::wal::tests::tempdir;
    use esr_clock::Timestamp;
    use esr_core::ids::{SiteId, TxnId};

    fn small_cfg() -> PagerConfig {
        PagerConfig {
            page_size: 512,
            cache_pages: 4,
            shards: 1,
            ..PagerConfig::default()
        }
    }

    fn states(n: u32) -> Vec<ObjectState> {
        CatalogConfig {
            n_objects: n,
            ..CatalogConfig::default()
        }
        .build_states()
    }

    fn ts(t: u64) -> Timestamp {
        Timestamp::new(t, SiteId(1))
    }

    fn frame_of(heap: &PagedHeap, id: ObjectId) -> Arc<Frame> {
        let (logical, _) = heap.directory.locate(id);
        let shard = &heap.shards[logical as usize % heap.shards.len()];
        let frame = shard.inner.lock().get(logical).cloned();
        frame.expect("cached")
    }

    #[test]
    fn volatile_mutations_dirty_a_page_without_covering_it() {
        let dir = tempdir("pager-volatile");
        let heap = PagedHeap::create(&dir, states(16), 0, 1, &small_cfg()).unwrap();
        // A log with one record appended: the parent raised every
        // mutated page's LSN to the log head.
        let log = Arc::new(crate::wal::Wal::open(dir.join("wal"), 1, Default::default()).unwrap());
        log.append_commit(TxnId(1), ts(1), 0, &[]);
        heap.attach_wal(log);
        {
            let mut g = heap.pin_object(ObjectId(2));
            let present = g.value;
            g.note_query_read(TxnId(8), ts(9), present);
            g.apply_write(TxnId(9), ts(9), -1);
        }
        let f = frame_of(&heap, ObjectId(2));
        assert!(f.dirty.load(Ordering::Acquire));
        assert_eq!(
            f.page_lsn.load(Ordering::Acquire),
            0,
            "reader lists, read timestamps and the uncommitted slot carry no LSN"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cover_keeps_the_highest_seq() {
        let dir = tempdir("pager-cover");
        let heap = PagedHeap::create(&dir, states(16), 0, 1, &small_cfg()).unwrap();
        for seq in [5, 3, 9, 7] {
            heap.pin_object(ObjectId(0)).cover(seq);
        }
        assert_eq!(
            frame_of(&heap, ObjectId(0))
                .page_lsn
                .load(Ordering::Acquire),
            9
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_pin_and_read_all_objects() {
        let dir = tempdir("pager-create");
        let expect = states(64);
        let heap = PagedHeap::create(&dir, expect.clone(), 0, 1, &small_cfg()).unwrap();
        assert_eq!(heap.len(), 64);
        for (i, want) in expect.iter().enumerate() {
            let g = heap.pin_object(ObjectId(i as u32));
            assert_eq!(g.id, want.id);
            assert_eq!(g.value, want.value);
        }
        let s = heap.cache_stats();
        assert!(s.misses > 0, "a 4-frame cache cannot hold 64 objects");
        assert!(s.evictions > 0);
        assert!(s.resident_pages <= 2 * 4, "respects capacity (plus slack)");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writes_survive_eviction_round_trips() {
        let dir = tempdir("pager-evict-rt");
        let heap = PagedHeap::create(&dir, states(64), 0, 1, &small_cfg()).unwrap();
        for i in 0..64u32 {
            let mut g = heap.pin_object(ObjectId(i));
            g.apply_write(TxnId(1), ts(10), 7_000 + i as i64);
            assert!(g.commit_write(TxnId(1)));
        }
        // Every page was evicted and reloaded at least once by now.
        for i in 0..64u32 {
            let g = heap.pin_object(ObjectId(i));
            assert_eq!(g.value, 7_000 + i as i64, "object {i}");
            assert_eq!(g.committed_wts, ts(10));
        }
        assert!(heap.cache_stats().dirty_flushes > 0);
        assert_eq!(heap.max_ts_ticks(), 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_residency_second_pass_never_misses_or_evicts() {
        let dir = tempdir("pager-resident");
        let cfg = PagerConfig {
            cache_pages: 64,
            ..small_cfg()
        };
        let heap = PagedHeap::create(&dir, states(64), 0, 1, &cfg).unwrap();
        assert!(
            heap.logical_pages() <= cfg.cache_pages,
            "the cache must hold the whole heap"
        );
        let pass = |txn: u64| {
            for i in 0..64u32 {
                let mut g = heap.pin_object(ObjectId(i));
                g.apply_write(TxnId(txn), ts(10 * txn), i as i64);
                assert!(g.commit_write(TxnId(txn)));
            }
        };
        pass(1);
        let warm = heap.cache_stats();
        pass(2);
        let again = heap.cache_stats();
        assert_eq!(again.misses, warm.misses, "every page was already resident");
        assert_eq!(again.evictions, warm.evictions, "nothing had to make room");
        assert_eq!(again.hits, warm.hits + 64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_then_open_recovers_committed_state_and_sanitizes() {
        let dir = tempdir("pager-reopen");
        {
            let heap = PagedHeap::create(&dir, states(16), 0, 1, &small_cfg()).unwrap();
            {
                let mut g = heap.pin_object(ObjectId(3));
                g.apply_write(TxnId(5), ts(20), 4242);
                assert!(g.commit_write(TxnId(5)));
            }
            {
                // Left uncommitted: must not survive the "restart".
                let mut g = heap.pin_object(ObjectId(4));
                g.apply_write(TxnId(6), ts(21), 9999);
            }
            {
                let mut g = heap.pin_object(ObjectId(5));
                g.note_query_read(TxnId(7), ts(22), 1000);
            }
            heap.checkpoint(17, 8).unwrap();
        }
        let heap = PagedHeap::open(&dir, &small_cfg())
            .unwrap()
            .expect("snapshot");
        assert_eq!(heap.base_seq(), 17);
        assert_eq!(heap.boot_next_txn(), 8);
        assert_eq!(heap.epoch, 2, "epoch bumps every boot");
        assert!(heap.max_ts_ticks() >= 22);
        assert_eq!(heap.pin_object(ObjectId(3)).value, 4242);
        let g4 = heap.pin_object(ObjectId(4));
        assert!(g4.uncommitted.is_none(), "uncommitted write sanitized");
        assert_ne!(g4.value, 9999, "shadow restored");
        drop(g4);
        assert!(heap.pin_object(ObjectId(5)).readers.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_without_snapshot_is_none() {
        let dir = tempdir("pager-none");
        assert!(PagedHeap::open(&dir, &small_cfg()).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncheckpointed_writes_roll_back_to_the_snapshot() {
        let dir = tempdir("pager-rollback");
        {
            let heap = PagedHeap::create(&dir, states(64), 0, 1, &small_cfg()).unwrap();
            // Committed in memory, flushed by eviction churn, but never
            // checkpointed: a crash-restart must serve the snapshot
            // base (the WAL would replay these — recover_paged's job).
            for i in 0..64u32 {
                let mut g = heap.pin_object(ObjectId(i));
                g.apply_write(TxnId(1), ts(5), -1);
                assert!(g.commit_write(TxnId(1)));
            }
            assert!(heap.cache_stats().dirty_flushes > 0);
            // No checkpoint; drop = crash (no destructor writes pages).
        }
        let heap = PagedHeap::open(&dir, &small_cfg())
            .unwrap()
            .expect("snapshot");
        let expect = states(64);
        for i in 0..64u32 {
            assert_eq!(
                heap.pin_object(ObjectId(i)).value,
                expect[i as usize].value,
                "object {i} must read from the snapshot base"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_recycles_superseded_extents() {
        let dir = tempdir("pager-limbo");
        let heap = PagedHeap::create(&dir, states(64), 0, 1, &small_cfg()).unwrap();
        let grow = |heap: &PagedHeap| {
            for i in 0..64u32 {
                let mut g = heap.pin_object(ObjectId(i));
                g.apply_write(TxnId(1), ts(2), i as i64);
                assert!(g.commit_write(TxnId(1)));
            }
        };
        grow(&heap);
        heap.checkpoint(1, 2).unwrap();
        let after_first = heap.alloc.lock().next_page();
        // More churn + checkpoints: free-list recycling must keep the
        // file from growing without bound.
        for seq in 2..8u64 {
            grow(&heap);
            heap.checkpoint(seq, 2).unwrap();
        }
        let after_many = heap.alloc.lock().next_page();
        assert!(
            after_many <= after_first + 2 * after_first,
            "file must stop growing once limbo recycles ({after_first} -> {after_many} pages)"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pinned_frames_survive_eviction_pressure() {
        let dir = tempdir("pager-pin");
        let heap = PagedHeap::create(&dir, states(64), 0, 1, &small_cfg()).unwrap();
        let mut g0 = heap.pin_object(ObjectId(0));
        g0.apply_write(TxnId(9), ts(3), 123_456);
        // Hammer every other object: frame 0 must not be evicted while
        // its guard (pin) is live.
        for i in 1..64u32 {
            let _ = heap.pin_object(ObjectId(i)).value;
        }
        assert_eq!(g0.value, 123_456, "pinned slot still live");
        assert!(g0.commit_write(TxnId(9)));
        drop(g0);
        assert_eq!(heap.pin_object(ObjectId(0)).value, 123_456);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression: a query-driven eviction (no commit gate held) racing
    /// the checkpoint gather must never produce a snapshot that lists a
    /// referenced extent as free, or one whose map points past
    /// `next_page` — recovery would re-hand such an extent to the first
    /// dirty write-back and overwrite the only copy of a live page.
    #[test]
    fn checkpoint_snapshots_stay_consistent_under_concurrent_evictions() {
        use std::sync::atomic::AtomicBool;
        let dir = tempdir("pager-ckpt-race");
        let heap = Arc::new(PagedHeap::create(&dir, states(64), 0, 1, &small_cfg()).unwrap());
        // Widen the gather window so an unexcluded write-back would
        // reliably land inside it (with the gate held this pause is
        // dead time: write-backs are blocked for its duration).
        heap.gather_pause_ms.store(5, Ordering::Relaxed);
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let heap = Arc::clone(&heap);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut round = 0u64;
                while !stop.load(Ordering::Acquire) {
                    round += 1;
                    // Mutate through the pool the way the query read
                    // path does — dirtying frames and forcing the
                    // 4-frame cache to evict and write back constantly.
                    let id = ObjectId(((t * 16 + round) % 64) as u32);
                    let mut g = heap.pin_object(id);
                    let present = g.value;
                    g.note_query_read(TxnId(t * 1_000_000 + round), ts(round), present);
                }
            }));
        }
        for seq in 1..=25u64 {
            heap.checkpoint(seq, 2).unwrap();
            let snap = directory::load_latest(&dir)
                .unwrap()
                .expect("snapshot present");
            let mut referenced = std::collections::HashSet::new();
            let mut max_end = 0u64;
            for &packed in &snap.page_map {
                let e = {
                    // Unpack via PageMap to avoid duplicating the layout.
                    PageMap::from_packed(vec![packed]).get(0)
                };
                for p in e.phys..e.phys + u64::from(e.pages) {
                    referenced.insert(p);
                }
                max_end = max_end.max(e.phys + u64::from(e.pages));
            }
            assert!(
                max_end <= snap.next_page,
                "snapshot {seq}: map references page past next_page ({max_end} > {})",
                snap.next_page
            );
            for p in &snap.free {
                assert!(
                    !referenced.contains(p),
                    "snapshot {seq}: extent page {p} is both referenced and free"
                );
            }
        }
        stop.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_pins_and_writes_stay_coherent() {
        let dir = tempdir("pager-conc");
        let heap = Arc::new(PagedHeap::create(&dir, states(32), 0, 1, &small_cfg()).unwrap());
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let heap = Arc::clone(&heap);
            handles.push(std::thread::spawn(move || {
                for round in 0..200u64 {
                    let id = ObjectId((t * 4 + (round % 4) as u32) % 32);
                    let mut g = heap.pin_object(id);
                    let txn = TxnId(u64::from(t) * 10_000 + round);
                    let before = g.value;
                    g.apply_write(txn, ts(round + 1), before + 1);
                    assert!(g.commit_write(txn));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 8 threads × 200 increments, objects disjoint per thread mod
        // scheme: total increments = 1600 spread over touched objects.
        let total: i64 = (0..32u32).map(|i| heap.pin_object(ObjectId(i)).value).sum();
        let initial: i64 = states(32).iter().map(|s| s.value).sum();
        assert_eq!(total - initial, 1600);
        // All pins drained.
        for shard in &heap.shards {
            let inner = shard.inner.lock();
            for f in inner.frames() {
                assert!(!f.is_pinned(), "pin leak on logical {}", f.logical);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
