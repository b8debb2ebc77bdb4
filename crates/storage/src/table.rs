//! The object table: one mutex per object, or a paged buffer pool.

use crate::object::ObjectState;
use crate::pager::{PageCacheSnapshot, PagedHeap, PinnedObject};
use esr_core::bounds::Limit;
use esr_core::ids::ObjectId;
use esr_core::value::Value;
use parking_lot::{Mutex, MutexGuard};
use std::sync::Arc;

/// A dense, per-object-locked table over one of two backings:
///
/// * **Resident** — the prototype's data manager (§6): every
///   [`ObjectState`] lives in memory forever behind its own [`Mutex`],
///   so operations on distinct objects never contend.
/// * **Paged** — the same locking discipline, but states live in pages
///   of a [`PagedHeap`] and [`ObjectTable::lock`] pins the page through
///   the buffer pool, so the database can exceed RAM.
///
/// Either way object ids index directly, the kernel locks at most one
/// object at a time, and lock ordering is trivially deadlock-free —
/// debug builds *assert* it: [`ObjectTable::lock`] panics if the
/// calling thread already holds an object lock. That discipline is
/// load-bearing for the paged backing too: it bounds pinned frames by
/// the worker count, so the pool can always make eviction progress.
pub struct ObjectTable {
    backing: Backing,
}

enum Backing {
    Resident(Vec<Mutex<ObjectState>>),
    Paged(Arc<PagedHeap>),
}

#[cfg(debug_assertions)]
thread_local! {
    /// Object locks held by this thread via [`ObjectTable::lock`].
    static OBJECT_LOCKS_HELD: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Exclusive guard over one object's state, returned by
/// [`ObjectTable::lock`].
///
/// In debug builds the guard participates in a per-thread lock-depth
/// check backing the kernel's claim that no code path ever holds two
/// object locks at once; in release builds it is a zero-cost wrapper
/// around the mutex guard.
pub struct ObjectGuard<'a> {
    inner: GuardInner<'a>,
}

enum GuardInner<'a> {
    Resident(MutexGuard<'a, ObjectState>),
    Paged(PinnedObject),
}

impl ObjectGuard<'_> {
    /// Stamp this object's install of WAL record `seq` on its page, which
    /// then stays cached until the log is durable through `seq`
    /// (WAL-before-page). Call once per committed install. No-op on a
    /// resident table.
    #[inline]
    pub fn cover(&self, seq: u64) {
        if let GuardInner::Paged(p) = &self.inner {
            p.cover(seq);
        }
    }
}

impl std::ops::Deref for ObjectGuard<'_> {
    type Target = ObjectState;

    #[inline]
    fn deref(&self) -> &ObjectState {
        match &self.inner {
            GuardInner::Resident(g) => g,
            GuardInner::Paged(p) => p,
        }
    }
}

impl std::ops::DerefMut for ObjectGuard<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut ObjectState {
        match &mut self.inner {
            GuardInner::Resident(g) => g,
            GuardInner::Paged(p) => p,
        }
    }
}

#[cfg(debug_assertions)]
impl Drop for ObjectGuard<'_> {
    fn drop(&mut self) {
        OBJECT_LOCKS_HELD.with(|held| held.set(held.get() - 1));
    }
}

impl ObjectTable {
    /// Build a table from pre-constructed object states.
    ///
    /// # Panics
    /// Panics if object ids are not dense `0..n` in order — the catalog
    /// constructs them that way and the table relies on it for direct
    /// indexing.
    pub fn new(states: Vec<ObjectState>) -> Self {
        for (i, s) in states.iter().enumerate() {
            assert_eq!(s.id.index(), i, "object ids must be dense and in order");
        }
        ObjectTable {
            backing: Backing::Resident(states.into_iter().map(Mutex::new).collect()),
        }
    }

    /// Build a table over a paged heap: reads and writes go through the
    /// buffer pool instead of a resident vector.
    pub fn paged(heap: Arc<PagedHeap>) -> Self {
        ObjectTable {
            backing: Backing::Paged(heap),
        }
    }

    /// The paged heap behind this table, if it has one.
    pub fn pager(&self) -> Option<&Arc<PagedHeap>> {
        match &self.backing {
            Backing::Resident(_) => None,
            Backing::Paged(heap) => Some(heap),
        }
    }

    /// Page-cache counters, when paged.
    pub fn page_cache_stats(&self) -> Option<PageCacheSnapshot> {
        self.pager().map(|h| h.cache_stats())
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        match &self.backing {
            Backing::Resident(objects) => objects.len(),
            Backing::Paged(heap) => heap.len(),
        }
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Does the table contain this id?
    pub fn contains(&self, id: ObjectId) -> bool {
        id.index() < self.len()
    }

    /// Lock one object for exclusive access.
    ///
    /// # Panics
    /// Panics on out-of-range ids; the transaction layer validates ids
    /// before they reach the table. In debug builds, also panics if the
    /// calling thread already holds another object lock: holding two at
    /// once risks deadlock (there is no global object order) and
    /// violates the kernel's documented locking discipline.
    pub fn lock(&self, id: ObjectId) -> ObjectGuard<'_> {
        #[cfg(debug_assertions)]
        OBJECT_LOCKS_HELD.with(|held| {
            assert_eq!(
                held.get(),
                0,
                "object lock-order violation: thread already holds an \
                 object lock while locking {id}"
            );
            held.set(held.get() + 1);
        });
        let inner = match &self.backing {
            Backing::Resident(objects) => GuardInner::Resident(objects[id.index()].lock()),
            Backing::Paged(heap) => GuardInner::Paged(heap.pin_object(id)),
        };
        ObjectGuard { inner }
    }

    /// Run `f` on one locked object.
    pub fn with<R>(&self, id: ObjectId, f: impl FnOnce(&mut ObjectState) -> R) -> R {
        f(&mut self.lock(id))
    }

    /// Every object id, for whole-table sweeps.
    fn ids(&self) -> impl Iterator<Item = ObjectId> {
        (0..self.len() as u32).map(ObjectId)
    }

    /// Snapshot of all values. Locks objects one at a time, so callers
    /// that need a *consistent* snapshot must quiesce writers first (the
    /// tests and examples do). On a paged table this pages every object
    /// in — it is a maintenance sweep, not a hot path.
    pub fn values(&self) -> Vec<Value> {
        self.ids().map(|id| self.lock(id).value).collect()
    }

    /// Sum of all values (same quiescence caveat as [`values`]).
    ///
    /// [`values`]: ObjectTable::values
    pub fn sum_values(&self) -> i128 {
        self.ids().map(|id| self.lock(id).value as i128).sum()
    }

    /// Overwrite every object's OIL/OEL. Used between experiment points
    /// when sweeping the object limits (Figures 12–13).
    pub fn set_all_limits(&self, oil: Limit, oel: Limit) {
        for id in self.ids() {
            let mut g = self.lock(id);
            g.oil = oil;
            g.oel = oel;
        }
    }

    /// True if no object holds an uncommitted write or registered
    /// reader — i.e. the system is quiescent.
    pub fn is_quiescent(&self) -> bool {
        self.ids().all(|id| {
            let g = self.lock(id);
            g.uncommitted.is_none() && g.readers.is_empty()
        })
    }
}

impl std::fmt::Debug for ObjectTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectTable")
            .field("len", &self.len())
            .field("paged", &self.pager().is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: u32) -> ObjectTable {
        ObjectTable::new(
            (0..n)
                .map(|i| {
                    ObjectState::new(
                        ObjectId(i),
                        1000 + i as i64,
                        4,
                        Limit::Unlimited,
                        Limit::Unlimited,
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn construction_and_access() {
        let t = table(3);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert!(t.contains(ObjectId(2)));
        assert!(!t.contains(ObjectId(3)));
        assert_eq!(t.lock(ObjectId(1)).value, 1001);
        assert_eq!(t.values(), vec![1000, 1001, 1002]);
        assert_eq!(t.sum_values(), 3003);
    }

    #[test]
    fn with_mutates_under_lock() {
        let t = table(2);
        t.with(ObjectId(0), |o| o.value = 9999);
        assert_eq!(t.lock(ObjectId(0)).value, 9999);
    }

    #[test]
    fn set_all_limits() {
        let t = table(3);
        t.set_all_limits(Limit::at_most(5), Limit::at_most(7));
        for i in 0..3 {
            let g = t.lock(ObjectId(i));
            assert_eq!(g.oil, Limit::at_most(5));
            assert_eq!(g.oel, Limit::at_most(7));
        }
    }

    #[test]
    fn quiescence_detection() {
        use esr_clock::Timestamp;
        use esr_core::ids::{SiteId, TxnId};
        let t = table(2);
        assert!(t.is_quiescent());
        t.with(ObjectId(0), |o| {
            o.apply_write(TxnId(1), Timestamp::new(1, SiteId(0)), 42)
        });
        assert!(!t.is_quiescent());
        t.with(ObjectId(0), |o| {
            o.abort_write(TxnId(1));
        });
        assert!(t.is_quiescent());
    }

    #[test]
    fn sequential_locks_do_not_trip_the_order_check() {
        let t = table(2);
        for _ in 0..3 {
            assert_eq!(t.lock(ObjectId(0)).value, 1000);
            assert_eq!(t.lock(ObjectId(1)).value, 1001);
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "object lock-order violation")
    )]
    fn holding_two_object_locks_is_rejected_in_debug() {
        let t = table(2);
        let _a = t.lock(ObjectId(0));
        let _b = t.lock(ObjectId(1));
    }

    #[test]
    fn lock_depth_recovers_after_violation_panic() {
        let t = std::sync::Arc::new(table(2));
        // Trip the assertion on a scratch thread; the panic must unwind
        // the outer guard so the *thread-local* depth returns to zero.
        let t2 = std::sync::Arc::clone(&t);
        let res = std::thread::spawn(move || {
            let _a = t2.lock(ObjectId(0));
            let _b = t2.lock(ObjectId(1));
        })
        .join();
        if cfg!(debug_assertions) {
            assert!(res.is_err());
        }
        // This thread's depth is untouched either way.
        assert_eq!(t.lock(ObjectId(0)).value, 1000);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn non_dense_ids_rejected() {
        let _ = ObjectTable::new(vec![ObjectState::new(
            ObjectId(5),
            0,
            4,
            Limit::Unlimited,
            Limit::Unlimited,
        )]);
    }

    #[test]
    fn paged_backing_behaves_like_resident() {
        use crate::pager::{PagedHeap, PagerConfig};
        let dir = crate::wal::tests::tempdir("table-paged");
        let states: Vec<ObjectState> = (0..16)
            .map(|i| {
                ObjectState::new(
                    ObjectId(i),
                    1000 + i as i64,
                    4,
                    Limit::Unlimited,
                    Limit::Unlimited,
                )
            })
            .collect();
        let cfg = PagerConfig {
            page_size: 512,
            cache_pages: 4,
            shards: 1,
            ..PagerConfig::default()
        };
        let heap = PagedHeap::create(&dir, states, 0, 1, &cfg).unwrap();
        let t = ObjectTable::paged(Arc::new(heap));
        assert_eq!(t.len(), 16);
        assert!(t.contains(ObjectId(15)) && !t.contains(ObjectId(16)));
        assert!(t.pager().is_some());
        t.with(ObjectId(3), |o| o.value = -5);
        assert_eq!(t.lock(ObjectId(3)).value, -5);
        assert_eq!(t.values()[3], -5);
        assert_eq!(
            t.sum_values(),
            (0..16).map(|i| 1000 + i as i128).sum::<i128>() - 1003 - 5
        );
        t.set_all_limits(Limit::at_most(2), Limit::at_most(3));
        assert_eq!(t.lock(ObjectId(9)).oil, Limit::at_most(2));
        assert!(t.is_quiescent());
        let stats = t.page_cache_stats().expect("paged stats");
        assert!(stats.misses > 0, "sweeps page objects in");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_access_on_distinct_objects() {
        use std::sync::Arc;
        let t = Arc::new(table(8));
        let mut handles = Vec::new();
        for i in 0..8u32 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    t.with(ObjectId(i), |o| o.value += 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..8u32 {
            assert_eq!(t.lock(ObjectId(i)).value, 1000 + i as i64 + 1000);
        }
    }
}
