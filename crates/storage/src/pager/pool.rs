//! The frame table: cached pages, pin counts, and CLOCK eviction.
//!
//! Frames cache pages in *decoded* form — a vector of slot mutexes over
//! live [`ObjectState`]s — so a cache hit costs a map lookup, a pin
//! increment, and one slot lock; serialization happens only at the
//! cache boundary (load and flush). The pool is sharded by logical page
//! id: each shard owns an independent mutex over its frame map and
//! clock hand, so pins of pages in different shards never contend.
//!
//! Pin protocol: pins are *acquired* only under the shard lock (a
//! lookup is required to reach the frame), but *released* with a plain
//! atomic decrement. Eviction picks victims under the shard lock and
//! only among frames with a zero pin count — a count that cannot rise
//! without the very lock the evictor holds — so a pinned frame is never
//! evicted, by construction rather than by retry.
//!
//! CLOCK second chance: every hit sets the frame's referenced bit; the
//! hand sweeps the shard's frame slots, clearing referenced bits and
//! evicting the first unpinned, unreferenced frame whose `page_lsn` the
//! log has made durable. A frame holding an install whose redo record
//! is not yet durable is passed over exactly like a pinned one (and
//! counted): eviction never waits for the log. If a full double sweep
//! finds no candidate the shard *overcommits* (the insert proceeds past
//! capacity) instead of waiting or deadlocking; the kernel holds at most
//! one object lock per thread, so pins per shard are bounded by the
//! worker count, not-yet-durable frames by the installs of one group
//! commit, and the overshoot is transient.

use crate::object::ObjectState;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// One cached page: its slots, live.
#[derive(Debug)]
pub(crate) struct Frame {
    /// The logical page cached here.
    pub(crate) logical: u32,
    /// Decoded object states, in slot order.
    pub(crate) slots: Vec<Mutex<ObjectState>>,
    /// Guards against eviction; see the module docs for the protocol.
    pub(crate) pin: AtomicU32,
    /// CLOCK second-chance bit.
    pub(crate) referenced: AtomicBool,
    /// Set when a slot was mutated since the last flush.
    pub(crate) dirty: AtomicBool,
    /// WAL sequence of the newest committed install in this frame (0:
    /// none since it was loaded). Stamped by the installer while pinned;
    /// the frame may be written back only once the log is durable
    /// through it (WAL-before-page).
    pub(crate) page_lsn: AtomicU64,
    /// Pages of the extent this frame was loaded from (resident-bytes
    /// accounting; the flushed size may differ).
    pub(crate) extent_pages: AtomicU32,
}

impl Frame {
    pub(crate) fn new(logical: u32, states: Vec<ObjectState>, extent_pages: u16) -> Frame {
        Frame {
            logical,
            slots: states.into_iter().map(Mutex::new).collect(),
            pin: AtomicU32::new(0),
            referenced: AtomicBool::new(true),
            dirty: AtomicBool::new(false),
            page_lsn: AtomicU64::new(0),
            extent_pages: AtomicU32::new(u32::from(extent_pages)),
        }
    }

    pub(crate) fn is_pinned(&self) -> bool {
        self.pin.load(Ordering::Acquire) > 0
    }
}

/// One shard of the frame table.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    pub(crate) inner: Mutex<ShardInner>,
}

/// Shard state: the frame map plus the clock ring over its slots.
#[derive(Debug, Default)]
pub(crate) struct ShardInner {
    map: HashMap<u32, usize>,
    frames: Vec<Option<Arc<Frame>>>,
    free_slots: Vec<usize>,
    hand: usize,
    /// Live frames (map entries).
    len: usize,
}

impl ShardInner {
    /// Look up a cached frame.
    pub(crate) fn get(&self, logical: u32) -> Option<&Arc<Frame>> {
        self.map
            .get(&logical)
            .and_then(|&slot| self.frames[slot].as_ref())
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Insert a freshly loaded frame.
    pub(crate) fn insert(&mut self, frame: Arc<Frame>) {
        let logical = frame.logical;
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.frames[s] = Some(frame);
                s
            }
            None => {
                self.frames.push(Some(frame));
                self.frames.len() - 1
            }
        };
        let prev = self.map.insert(logical, slot);
        debug_assert!(prev.is_none(), "logical page cached twice");
        self.len += 1;
    }

    /// CLOCK sweep: pick (and remove) an eviction victim whose
    /// `page_lsn` is at most `durable`, or `None` if every frame is
    /// pinned or not yet durable. Each would-be victim passed over for
    /// its LSN bumps `undurable`. The caller flushes the victim if
    /// dirty; once returned, the frame is unreachable for new pins and
    /// its pin count is zero, so the caller owns it outright.
    pub(crate) fn pick_victim(
        &mut self,
        durable: u64,
        undurable: &AtomicU64,
    ) -> Option<Arc<Frame>> {
        if self.frames.is_empty() {
            return None;
        }
        // Two full sweeps: the first may only be clearing referenced
        // bits, the second then finds any unpinned frame.
        for _ in 0..2 * self.frames.len() {
            let slot = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            let Some(frame) = &self.frames[slot] else {
                continue;
            };
            // A zero pin read here (under the shard lock, so it cannot
            // rise) also makes the installer's `page_lsn` stamp visible:
            // it was stored before the unpin released the frame.
            if frame.is_pinned() {
                continue;
            }
            if frame.referenced.swap(false, Ordering::AcqRel) {
                continue; // second chance
            }
            if frame.page_lsn.load(Ordering::Acquire) > durable {
                undurable.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let frame = self.frames[slot].take().expect("frame present");
            self.map.remove(&frame.logical);
            self.free_slots.push(slot);
            self.len -= 1;
            return Some(frame);
        }
        None
    }

    /// Every cached frame (checkpoint flush walks these).
    pub(crate) fn frames(&self) -> impl Iterator<Item = &Arc<Frame>> {
        self.frames.iter().flatten()
    }
}

esr_obs::metrics! {
    /// A point-in-time view of the page cache, exported over the stats
    /// wire and rendered on the Prometheus endpoint.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct PageCacheSnapshot / PoolStats {
        series "esr_page_cache_" {
            /// Object pins satisfied from a cached page frame.
            counter hits,
            /// Object pins that had to read the heap file.
            counter misses,
            /// Page frames evicted by the CLOCK sweep to make room.
            counter evictions,
            /// Dirty page write-backs (evictions and incremental checkpoints).
            counter dirty_flushes,
            /// Eviction candidates the CLOCK hand passed over because the
            /// log was not yet durable through their newest install.
            #[serde(default)]
            counter undurable_skips,
            /// Heap pages currently decoded in the buffer pool.
            gauge resident_pages,
            /// Bytes of heap-file extent currently cached.
            gauge resident_bytes,
            /// Configured buffer-pool capacity, in pages.
            gauge capacity_pages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_core::bounds::Limit;
    use esr_core::ids::ObjectId;

    /// A sweep that ignores LSNs (every frame durable).
    fn victim(s: &mut ShardInner) -> Option<Arc<Frame>> {
        s.pick_victim(u64::MAX, &AtomicU64::new(0))
    }

    fn frame(logical: u32) -> Arc<Frame> {
        Arc::new(Frame::new(
            logical,
            vec![ObjectState::new(
                ObjectId(logical),
                0,
                2,
                Limit::Unlimited,
                Limit::Unlimited,
            )],
            1,
        ))
    }

    #[test]
    fn clock_gives_second_chances_and_skips_pins() {
        let mut s = ShardInner::default();
        for l in 0..3 {
            s.insert(frame(l));
        }
        assert_eq!(s.len(), 3);
        // Frame 0 pinned, 1 referenced, 2 referenced.
        s.get(0).unwrap().pin.fetch_add(1, Ordering::AcqRel);
        // First victim: the sweep clears 1's and 2's referenced bits,
        // wraps, and takes the first unpinned unreferenced frame.
        let v = victim(&mut s).expect("victim");
        assert_ne!(v.logical, 0, "pinned frame must survive");
        assert_eq!(s.len(), 2);
        // Re-reference the survivor; it gets a second chance over the
        // never-referenced reinsert.
        let survivor = if v.logical == 1 { 2 } else { 1 };
        s.get(survivor)
            .unwrap()
            .referenced
            .store(true, Ordering::Release);
        s.insert(frame(9));
        s.get(9).unwrap().referenced.store(false, Ordering::Release);
        let v2 = victim(&mut s).expect("victim");
        assert_eq!(v2.logical, 9);
        // Only the pinned frame and the survivor remain.
        assert!(s.get(0).is_some());
        assert!(s.get(survivor).is_some());
    }

    #[test]
    fn all_pinned_means_no_victim() {
        let mut s = ShardInner::default();
        for l in 0..2 {
            let f = frame(l);
            f.pin.fetch_add(1, Ordering::AcqRel);
            s.insert(f);
        }
        assert!(victim(&mut s).is_none());
        s.get(1).unwrap().pin.fetch_sub(1, Ordering::AcqRel);
        assert_eq!(victim(&mut s).expect("now evictable").logical, 1);
    }

    #[test]
    fn frames_the_log_has_not_made_durable_are_skipped_like_pinned_ones() {
        let mut s = ShardInner::default();
        for l in 0..3 {
            let f = frame(l);
            f.referenced.store(false, Ordering::Release);
            f.page_lsn.store(10 + u64::from(l), Ordering::Release);
            s.insert(f);
        }
        let skips = AtomicU64::new(0);
        // Durable through 10: frame 0 (LSN 10) may go.
        assert_eq!(s.pick_victim(10, &skips).expect("durable").logical, 0);
        assert_eq!(skips.load(Ordering::Relaxed), 0);
        // Frames 1 and 2 hold installs of records 11 and 12: no victim,
        // so the shard overcommits instead of waiting for the log.
        assert!(s.pick_victim(10, &skips).is_none());
        assert_eq!(s.len(), 2);
        assert_eq!(skips.load(Ordering::Relaxed), 4, "two sweeps, two frames");
        // The log catches up through 11: frame 1 goes, frame 2 stays.
        assert_eq!(s.pick_victim(11, &skips).expect("durable").logical, 1);
        assert!(s.get(2).is_some());
    }

    #[test]
    fn slots_are_reused_after_eviction() {
        let mut s = ShardInner::default();
        for l in 0..4 {
            s.insert(frame(l));
            s.get(l).unwrap().referenced.store(false, Ordering::Release);
        }
        for _ in 0..4 {
            victim(&mut s).expect("victim");
        }
        assert_eq!(s.len(), 0);
        for l in 10..14 {
            s.insert(frame(l));
        }
        assert_eq!(s.frames.len(), 4, "slots recycled, not grown");
    }
}
