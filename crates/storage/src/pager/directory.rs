//! The object directory, the logical→physical page map, the extent
//! allocator, and the durable directory snapshot.
//!
//! Three small maps give the pager its copy-on-write shape:
//!
//! * **Directory** — `ObjectId → (logical page, slot)`. Assigned once
//!   at bootstrap and immutable afterwards (overflowing record sets
//!   grow their *extent*, they never migrate objects), so lookups are
//!   a plain indexed load with no locking.
//! * **PageMap** — `logical page → physical extent`. This is the only
//!   mutable mapping: every flush of a dirty page writes a *fresh*
//!   extent and swaps the entry, so a crash mid-write can never tear a
//!   page any snapshot references. Entries are packed atomics; the
//!   logical page count is fixed at bootstrap, so the vector never
//!   reallocates.
//! * **Allocator** — free physical pages, plus the *limbo* list:
//!   extents superseded by a flush stay unrecyclable until the next
//!   durable snapshot stops referencing them (recovery may still need
//!   their bytes until then).
//!
//! The **directory snapshot** (`pagedir-<seq>.esrdir`) persists all
//! three plus the recovery metadata (covered WAL seq, next txn id,
//! epoch, max timestamp tick). It is a few bytes per object — the
//! "small directory snapshot" that replaces the full-table checkpoint
//! of resident mode — and is written with the same atomicity recipe as
//! the old checkpoints: tmp file, fsync, rename, directory fsync,
//! prune older.

use crate::wal::crc32;
use esr_core::codec;
use esr_core::ids::ObjectId;
use serde::{Deserialize, Serialize};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const MAGIC: &[u8; 8] = b"ESRPGDR1";

// ---------------------------------------------------------------------------
// Directory: ObjectId -> (logical page, slot)
// ---------------------------------------------------------------------------

/// Pack a `(logical, slot)` pair into the directory's u64 entry.
pub(crate) fn pack_loc(logical: u32, slot: u16) -> u64 {
    (u64::from(logical) << 16) | u64::from(slot)
}

/// Immutable object directory.
#[derive(Debug, Clone)]
pub(crate) struct Directory {
    entries: Vec<u64>,
}

impl Directory {
    pub(crate) fn from_packed(entries: Vec<u64>) -> Directory {
        Directory { entries }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Where does this object live?
    pub(crate) fn locate(&self, id: ObjectId) -> (u32, u16) {
        let e = self.entries[id.index()];
        ((e >> 16) as u32, (e & 0xFFFF) as u16)
    }

    pub(crate) fn packed(&self) -> &[u64] {
        &self.entries
    }
}

// ---------------------------------------------------------------------------
// PageMap: logical page -> physical extent
// ---------------------------------------------------------------------------

/// A physical extent: start page plus length in pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Extent {
    pub(crate) phys: u64,
    pub(crate) pages: u16,
}

fn pack_extent(e: Extent) -> u64 {
    debug_assert!(e.phys < (1 << 48), "heap file outgrew 48-bit page numbers");
    (u64::from(e.pages) << 48) | e.phys
}

fn unpack_extent(packed: u64) -> Extent {
    Extent {
        phys: packed & ((1 << 48) - 1),
        pages: (packed >> 48) as u16,
    }
}

/// Mutable logical→physical map; fixed length, atomic entries.
#[derive(Debug)]
pub(crate) struct PageMap {
    entries: Vec<AtomicU64>,
}

impl PageMap {
    pub(crate) fn from_extents(extents: impl IntoIterator<Item = Extent>) -> PageMap {
        PageMap {
            entries: extents
                .into_iter()
                .map(|e| AtomicU64::new(pack_extent(e)))
                .collect(),
        }
    }

    pub(crate) fn from_packed(packed: Vec<u64>) -> PageMap {
        PageMap {
            entries: packed.into_iter().map(AtomicU64::new).collect(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn get(&self, logical: u32) -> Extent {
        unpack_extent(self.entries[logical as usize].load(Ordering::Acquire))
    }

    /// Point `logical` at a freshly written extent; returns the
    /// superseded one (the caller sends it to limbo).
    pub(crate) fn swap(&self, logical: u32, fresh: Extent) -> Extent {
        unpack_extent(self.entries[logical as usize].swap(pack_extent(fresh), Ordering::AcqRel))
    }

    pub(crate) fn packed(&self) -> Vec<u64> {
        self.entries
            .iter()
            .map(|e| e.load(Ordering::Acquire))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Allocator
// ---------------------------------------------------------------------------

/// Physical page allocator with deferred (limbo) recycling.
#[derive(Debug, Default)]
pub(crate) struct Allocator {
    /// Single pages free for reuse right now.
    free: Vec<u64>,
    /// Extents superseded since the last durable snapshot; recyclable
    /// only once a snapshot that no longer references them is durable.
    limbo: Vec<Extent>,
    /// End of file, in pages: allocation of last resort (and the only
    /// source of multi-page extents).
    next_page: u64,
}

impl Allocator {
    pub(crate) fn new(next_page: u64, free: Vec<u64>) -> Allocator {
        Allocator {
            free,
            limbo: Vec::new(),
            next_page,
        }
    }

    /// Allocate a fresh extent of `pages` pages. Single pages come from
    /// the free list when possible; longer extents always extend the
    /// file (they are rare — an object set outgrowing its page).
    pub(crate) fn allocate(&mut self, pages: u16) -> Extent {
        if pages == 1 {
            if let Some(phys) = self.free.pop() {
                return Extent { phys, pages: 1 };
            }
        }
        let phys = self.next_page;
        self.next_page += u64::from(pages);
        Extent { phys, pages }
    }

    /// Send a superseded extent to limbo.
    pub(crate) fn retire(&mut self, extent: Extent) {
        self.limbo.push(extent);
    }

    /// The free list a snapshot written *now* should carry: everything
    /// free plus everything in limbo (once that snapshot is durable,
    /// limbo extents are unreferenced by construction).
    pub(crate) fn snapshot_free(&self) -> Vec<u64> {
        let mut out = self.free.clone();
        for e in &self.limbo {
            out.extend(e.phys..e.phys + u64::from(e.pages));
        }
        out
    }

    /// Detach the current limbo set. The checkpoint takes it while
    /// gathering its snapshot: extents retired *before* the gather are
    /// exactly the ones the new snapshot no longer references, while
    /// extents retired after must wait for the following snapshot.
    pub(crate) fn take_limbo(&mut self) -> Vec<Extent> {
        std::mem::take(&mut self.limbo)
    }

    /// Recycle a previously taken limbo set (its snapshot is durable).
    pub(crate) fn release(&mut self, extents: Vec<Extent>) {
        for e in extents {
            self.free.extend(e.phys..e.phys + u64::from(e.pages));
        }
    }

    /// Put a taken limbo set back (its snapshot failed to persist, so
    /// the old snapshot — which may reference these extents — remains
    /// the recovery base).
    pub(crate) fn restore_limbo(&mut self, extents: Vec<Extent>) {
        self.limbo.extend(extents);
    }

    pub(crate) fn next_page(&self) -> u64 {
        self.next_page
    }
}

// ---------------------------------------------------------------------------
// Durable directory snapshot
// ---------------------------------------------------------------------------

/// Everything recovery needs besides the heap file and the WAL tail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct DirectorySnapshot {
    /// Highest WAL sequence number this snapshot covers.
    pub(crate) seq: u64,
    /// The kernel's next transaction id at snapshot time.
    pub(crate) next_txn: u64,
    /// Page epoch current when the snapshot was written; a restart
    /// resumes at `epoch + 1` so every surviving page reads as stale
    /// and has its volatile state sanitized on first load.
    pub(crate) epoch: u32,
    /// Page size the heap file was built with (a mismatch on open is a
    /// configuration error, caught loudly).
    pub(crate) page_size: u32,
    /// Largest timestamp tick ever flushed; the restarted clock must
    /// start above it.
    pub(crate) max_ts_ticks: u64,
    /// Packed object directory, in id order.
    pub(crate) directory: Vec<u64>,
    /// Packed logical→physical extents, in logical order.
    pub(crate) page_map: Vec<u64>,
    /// Free physical pages.
    pub(crate) free: Vec<u64>,
    /// File length in pages.
    pub(crate) next_page: u64,
}

fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("pagedir-{seq:020}.esrdir"))
}

/// The snapshot file's bytes: magic, the payload's CRC-32, then the
/// payload, which is exactly `codec::to_bytes(snap)`. The payload is
/// written field by field with the codec's streaming headers, so the
/// directory (a few bytes per object) is never first built into a
/// serde tree of tens of bytes per entry.
fn encode_snapshot(snap: &DirectorySnapshot) -> Vec<u8> {
    let entries = snap.directory.len() + snap.page_map.len() + snap.free.len();
    let mut out = Vec::with_capacity(128 + 9 * entries);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&[0; 4]); // the CRC, patched in below
    codec::put_map_header(&mut out, 9);
    let scalars = [
        ("seq", snap.seq),
        ("next_txn", snap.next_txn),
        ("epoch", u64::from(snap.epoch)),
        ("page_size", u64::from(snap.page_size)),
        ("max_ts_ticks", snap.max_ts_ticks),
    ];
    for (key, value) in scalars {
        codec::put_key(&mut out, key);
        codec::encode_into(&value, &mut out);
    }
    for (key, seq) in [
        ("directory", &snap.directory),
        ("page_map", &snap.page_map),
        ("free", &snap.free),
    ] {
        codec::put_key(&mut out, key);
        codec::put_seq_header(&mut out, seq.len());
        for value in seq {
            codec::encode_into(value, &mut out);
        }
    }
    codec::put_key(&mut out, "next_page");
    codec::encode_into(&snap.next_page, &mut out);
    let crc = crc32(&out[12..]);
    out[8..12].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Write a snapshot atomically and prune older ones.
pub(crate) fn write_snapshot(dir: &Path, snap: &DirectorySnapshot) -> io::Result<u64> {
    let bytes = encode_snapshot(snap);
    let final_path = snapshot_path(dir, snap.seq);
    let tmp_path = final_path.with_extension("esrdir.tmp");
    {
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp_path)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp_path, &final_path)?;
    File::open(dir)?.sync_all()?;
    for (path, seq) in list_snapshots(dir)? {
        if seq < snap.seq {
            let _ = fs::remove_file(path);
        }
    }
    Ok(bytes.len() as u64)
}

/// All directory snapshots in `dir`, sorted oldest-first.
pub(crate) fn list_snapshots(dir: &Path) -> io::Result<Vec<(PathBuf, u64)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(seq) = name
            .strip_prefix("pagedir-")
            .and_then(|r| r.strip_suffix(".esrdir"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((path, seq));
        }
    }
    out.sort_by_key(|(_, s)| *s);
    Ok(out)
}

/// Does `dir` hold any directory snapshot at all? (Used by the legacy
/// resident-mode recovery to refuse a pager-built directory.)
pub(crate) fn any_snapshot(dir: &Path) -> bool {
    matches!(list_snapshots(dir), Ok(v) if !v.is_empty())
}

/// Load the newest snapshot that validates, skipping corrupt ones.
pub(crate) fn load_latest(dir: &Path) -> io::Result<Option<DirectorySnapshot>> {
    let mut candidates = list_snapshots(dir)?;
    candidates.reverse();
    for (path, _) in candidates {
        let Ok(bytes) = fs::read(&path) else {
            continue;
        };
        if let Some(snap) = decode_snapshot(&bytes) {
            return Ok(Some(snap));
        }
    }
    Ok(None)
}

fn decode_snapshot(bytes: &[u8]) -> Option<DirectorySnapshot> {
    if bytes.len() < 12 || &bytes[..8] != MAGIC {
        return None;
    }
    let crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let payload = &bytes[12..];
    if crc32(payload) != crc {
        return None;
    }
    codec::from_bytes::<DirectorySnapshot>(payload).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::tests::tempdir;

    #[test]
    fn directory_locates_objects() {
        let d = Directory::from_packed(
            [(0, 0), (0, 1), (1, 0), (7, 3)]
                .map(|(l, s)| pack_loc(l, s))
                .to_vec(),
        );
        assert_eq!(d.len(), 4);
        assert_eq!(d.locate(ObjectId(1)), (0, 1));
        assert_eq!(d.locate(ObjectId(3)), (7, 3));
        let d2 = Directory::from_packed(d.packed().to_vec());
        assert_eq!(d2.locate(ObjectId(2)), (1, 0));
    }

    #[test]
    fn page_map_swaps_and_round_trips() {
        let m = PageMap::from_extents([Extent { phys: 0, pages: 1 }, Extent { phys: 1, pages: 2 }]);
        assert_eq!(m.get(1), Extent { phys: 1, pages: 2 });
        let old = m.swap(1, Extent { phys: 9, pages: 1 });
        assert_eq!(old, Extent { phys: 1, pages: 2 });
        let back = PageMap::from_packed(m.packed());
        assert_eq!(back.get(1), Extent { phys: 9, pages: 1 });
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn allocator_prefers_free_list_and_defers_limbo() {
        let mut a = Allocator::new(10, vec![3]);
        assert_eq!(a.allocate(1), Extent { phys: 3, pages: 1 });
        assert_eq!(a.allocate(1), Extent { phys: 10, pages: 1 });
        assert_eq!(a.allocate(2), Extent { phys: 11, pages: 2 });
        a.retire(Extent { phys: 5, pages: 2 });
        // Limbo is visible to a snapshot written now…
        let snap_free = a.snapshot_free();
        assert!(snap_free.contains(&5) && snap_free.contains(&6));
        // …but not allocatable until the snapshot is durable.
        assert_eq!(a.allocate(1), Extent { phys: 13, pages: 1 });
        let taken = a.take_limbo();
        assert_eq!(taken.len(), 1);
        // A failed snapshot puts limbo back, untouched…
        a.restore_limbo(taken);
        assert_eq!(
            a.allocate(1),
            Extent {
                phys: 13 + 1,
                pages: 1
            }
        );
        // …a durable one releases it for reuse.
        let taken = a.take_limbo();
        a.release(taken);
        assert_eq!(a.allocate(1), Extent { phys: 6, pages: 1 });
        assert_eq!(a.next_page(), 15);
    }

    fn sample_snapshot(seq: u64) -> DirectorySnapshot {
        DirectorySnapshot {
            seq,
            next_txn: 42,
            epoch: 3,
            page_size: 4096,
            max_ts_ticks: 777,
            directory: vec![pack_loc(0, 0), pack_loc(0, 1)],
            page_map: vec![pack_extent(Extent { phys: 1, pages: 1 })],
            free: vec![0],
            next_page: 2,
        }
    }

    #[test]
    fn snapshots_round_trip_and_prune() {
        let dir = tempdir("pagedir-rt");
        assert!(!any_snapshot(&dir));
        write_snapshot(&dir, &sample_snapshot(5)).unwrap();
        write_snapshot(&dir, &sample_snapshot(9)).unwrap();
        assert!(any_snapshot(&dir));
        assert_eq!(list_snapshots(&dir).unwrap().len(), 1, "older pruned");
        let back = load_latest(&dir).unwrap().expect("snapshot present");
        assert_eq!(back, sample_snapshot(9));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_streamed_snapshot_is_the_one_shot_encoding() {
        let snap = sample_snapshot(u64::MAX);
        let bytes = encode_snapshot(&snap);
        assert_eq!(&bytes[..8], MAGIC);
        assert_eq!(&bytes[12..], codec::to_bytes(&snap).as_slice());
        assert_eq!(decode_snapshot(&bytes), Some(snap));
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_older() {
        let dir = tempdir("pagedir-corrupt");
        write_snapshot(&dir, &sample_snapshot(5)).unwrap();
        let mut bytes = fs::read(snapshot_path(&dir, 5)).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        fs::write(snapshot_path(&dir, 8), &bytes).unwrap();
        let back = load_latest(&dir).unwrap().expect("older survives");
        assert_eq!(back.seq, 5);
        let _ = fs::remove_dir_all(&dir);
    }
}
