//! The online conformance monitor: `check_history`, incrementally and
//! in bounded memory.
//!
//! [`EsrMonitor`] consumes a live capture stream (the batches a
//! [`CaptureCursor`](esr_tso::capture::CaptureCursor) yields) and runs
//! the same three passes the offline checker runs — serialization-graph
//! test, epsilon replay, specification lint — while the server is still
//! serving. The offline checker may keep the whole history; the monitor
//! may not: its memory must stay bounded by the *active transaction
//! window* (transactions begun but not yet ended, plus a committed
//! frontier awaiting pruning), however many transactions commit.
//!
//! ## The incremental serialization graph
//!
//! The offline pass ([`crate::graph`]) filters accesses to committed
//! update ETs before building the reduced conflict graph — a luxury of
//! hindsight the monitor doesn't have: when an access arrives, nobody
//! knows yet whether its transaction will commit. So the monitor keeps,
//! per object, an ordered log of accesses by *non-aborted* update
//! transactions. A new access by `T` scans that log backwards, adding a
//! conflict edge `e.txn → T` for each conflicting entry (a write
//! conflicts with everything; a read only with writes), and stops after
//! processing the first entry that is a write by a *committed*
//! transaction — a committed write masks everything older, but an
//! *active* write must not stop the scan, because it may still abort
//! and un-mask what it hid.
//!
//! This over-approximates the offline reduced graph only by transitive
//! edges, which change neither reachability nor cyclicity. Soundness:
//! every online edge is a real conflict between non-aborted update
//! transactions, and cycle checks consider committed nodes only.
//! Completeness: edges *into* a transaction are created only by its own
//! accesses, so they are final the moment it ends — a conflict cycle is
//! therefore found no later than when its last member commits. The
//! commit-time check walks committed nodes from the newly committed one;
//! each cycle found is reported and its closing edge broken so it is
//! reported once.
//!
//! ## Why pruning is safe
//!
//! A committed node whose in-edge set is empty can never be part of a
//! future cycle: its in-edges were final at end, so no path will ever
//! lead *into* it again. Such nodes are pruned — node, edges, and
//! object-log entries — and pruning `u` removes `u` from each
//! out-neighbour's in-edge set, which may make that neighbour prunable
//! in turn (a cascade). Dropping the out-edges of a pruned node is safe
//! for the same reason: any cycle through `u → v` would have to re-enter
//! `u`, which is impossible once `u`'s in-edge set is empty forever.
//! Under a steadily committing workload the graph drains to the active
//! window; only a transaction that never ends (or a committed node kept
//! alive by one) retains state.
//!
//! The per-object logs stay bounded by two rules: at most one entry per
//! (transaction, object) — a later access supersedes an earlier one
//! unless a write landed in between, and then the newer entry conflicts
//! at least as broadly — and a *committed* write truncates everything
//! older than itself on its object, since scans stop there anyway.
//!
//! ## Replay, lint, and stream gaps
//!
//! Epsilon replay runs through the very same [`ReplayEngine`] the
//! offline checker uses, so verdicts and diagnostics match by
//! construction; its memory is the live-transaction ledgers plus
//! coalesced id-range tombstones for ended transactions
//! ([`crate::ranges::IdRanges`] — `O(active window)` for the kernel's
//! dense ids). Schema lint runs once at construction, spec lint at each
//! `Begin`, as offline. Sequence numbers are checked against the
//! expected next; any discontinuity (eviction before the cursor caught
//! up, reordering) is surfaced as a [`Diagnostic::StreamGap`] rather
//! than silently skipped.

use crate::ranges::IdRanges;
use crate::replay::ReplayEngine;
use crate::report::Diagnostic;
use crate::{lint, EventKind};
use esr_core::hierarchy::HierarchySchema;
use esr_core::ids::{ObjectId, TxnId, TxnKind};
use esr_tso::capture::Event;
use esr_tso::{KernelConfig, MonitorSnapshot};
use std::collections::{HashMap, HashSet, VecDeque};

/// One access in a per-object log.
#[derive(Debug, Clone, Copy)]
struct Access {
    txn: TxnId,
    write: bool,
}

/// Per-object state: the ordered access log and a generation counter
/// bumped at every write (used to deduplicate reads).
#[derive(Debug, Default)]
struct ObjectLog {
    log: VecDeque<Access>,
    writes_seen: u64,
}

/// A node in the online conflict graph (update transactions only).
#[derive(Debug, Default)]
struct Node {
    committed: bool,
    /// Conflict edges out of this node (`self → other`).
    out: HashSet<TxnId>,
    /// Conflict edges into this node (`other → self`).
    inn: HashSet<TxnId>,
    /// Objects this transaction accessed, with the object's
    /// `writes_seen` at the time of this transaction's latest entry.
    objs: HashMap<ObjectId, u64>,
}

/// An incremental ESR conformance checker over a live capture stream.
pub struct EsrMonitor {
    replay: ReplayEngine,
    schema: HierarchySchema,
    /// Next expected capture sequence number, once known.
    expect: Option<u64>,
    /// Update transactions: the online conflict graph.
    nodes: HashMap<TxnId, Node>,
    /// Update transactions that ended (for stray-event hygiene in the
    /// graph; the replay engine keeps its own).
    ended: IdRanges,
    objects: HashMap<ObjectId, ObjectLog>,
    out: Vec<Diagnostic>,
    events: u64,
    violations: u64,
    gaps: u64,
    missed_events: u64,
}

impl EsrMonitor {
    /// A monitor for streams captured under `schema` / `config`. Schema
    /// lint runs immediately, as in the offline checker.
    pub fn new(schema: HierarchySchema, config: KernelConfig) -> Self {
        let mut out = Vec::new();
        for finding in lint::lint_schema(&schema) {
            out.push(Diagnostic::SpecLint { txn: None, finding });
        }
        let violations = out.iter().filter(|d| d.is_error()).count() as u64;
        EsrMonitor {
            replay: ReplayEngine::new(schema.clone(), config),
            schema,
            expect: None,
            nodes: HashMap::new(),
            ended: IdRanges::new(),
            objects: HashMap::new(),
            out,
            events: 0,
            violations,
            gaps: 0,
            missed_events: 0,
        }
    }

    /// Feed one captured event, checking stream continuity.
    pub fn observe(&mut self, ev: &Event) {
        if let Some(expected) = self.expect {
            if ev.seq != expected {
                self.gaps += 1;
                self.push(Diagnostic::StreamGap {
                    expected,
                    found: ev.seq,
                });
            }
        }
        self.expect = Some(ev.seq + 1);
        self.process(ev.seq, &ev.kind);
    }

    /// Feed a batch (convenience over [`observe`](Self::observe)).
    pub fn ingest(&mut self, events: &[Event]) {
        for ev in events {
            self.observe(ev);
        }
    }

    /// Record that the capture log evicted `n` events before the cursor
    /// could read them (the `missed` field of a `CaptureBatch`). The
    /// very next observed event will also trip a [`Diagnostic::StreamGap`];
    /// this keeps the precise count.
    pub fn note_missed(&mut self, n: u64) {
        self.missed_events += n;
    }

    /// Feed a synthetic event *without* touching sequence tracking —
    /// the hook used to plant a deliberate violation and prove the
    /// monitor is alive end-to-end.
    pub fn inject(&mut self, kind: &EventKind) {
        let seq = self.expect.unwrap_or(0);
        self.process(seq, kind);
    }

    /// Diagnostics found since the last call; the buffer is drained.
    pub fn take_diagnostics(&mut self) -> Vec<Diagnostic> {
        std::mem::take(&mut self.out)
    }

    /// Error-level diagnostics found over the monitor's lifetime.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    pub fn stats(&self) -> MonitorSnapshot {
        MonitorSnapshot {
            events: self.events,
            violations: self.violations,
            gaps: self.gaps,
            missed_events: self.missed_events,
            live_txns: self.replay.live_txns() as u64,
            graph_nodes: self.nodes.len() as u64,
            tracked_objects: self.objects.len() as u64,
            retained_entries: self.objects.values().map(|o| o.log.len() as u64).sum(),
        }
    }

    /// Coalesced ranges remembering ended transaction ids — the one
    /// retained structure [`Self::stats`] does not report.
    pub fn ended_ranges(&self) -> usize {
        self.replay.ended_ranges().max(self.ended.range_count())
    }

    fn push(&mut self, d: Diagnostic) {
        if d.is_error() {
            self.violations += 1;
        }
        self.out.push(d);
    }

    /// Run one event through lint, graph, and replay.
    fn process(&mut self, seq: u64, kind: &EventKind) {
        self.events += 1;

        // Spec lint, exactly as the offline checker's per-Begin pass.
        if let EventKind::Begin {
            txn,
            kind: txn_kind,
            bounds,
            ..
        } = kind
        {
            // Only for a first, legitimate Begin — duplicates are the
            // replay engine's diagnostic to make, once.
            if self.replay.live_kind(*txn).is_none() {
                for finding in lint::lint_spec(&self.schema, *txn_kind, bounds) {
                    self.push(Diagnostic::SpecLint {
                        txn: Some(*txn),
                        finding,
                    });
                }
            }
        }

        self.graph_step(kind);

        // Replay last: it ends transactions at Commit/Abort, and the
        // graph step needs them still live to classify the event.
        self.replay.observe_kind(seq, kind);
        for d in self.replay.take_diagnostics() {
            self.push(d);
        }
    }

    /// The incremental serialization-graph pass for one event.
    fn graph_step(&mut self, kind: &EventKind) {
        match kind {
            EventKind::Begin {
                txn,
                kind: TxnKind::Update,
                ..
            } if !self.nodes.contains_key(txn) && !self.ended.contains(txn.0) => {
                self.nodes.insert(*txn, Node::default());
            }
            EventKind::UpdateRead { txn, obj, .. } => self.access(*txn, *obj, false),
            EventKind::Write { txn, obj, .. } => self.access(*txn, *obj, true),
            EventKind::Commit { txn, .. } => self.commit(*txn),
            EventKind::Abort { txn, .. } => self.abort(*txn),
            // Query reads are the epsilon-relaxed edges ESR excludes,
            // Thomas-rule skips installed nothing, waits access nothing.
            _ => {}
        }
    }

    /// Record an access by an update transaction and add the conflict
    /// edges it implies.
    fn access(&mut self, txn: TxnId, obj: ObjectId, write: bool) {
        // Unknown or non-update transactions contribute nothing (the
        // replay engine reports MissingBegin / KindMismatch).
        if !self.nodes.contains_key(&txn) {
            return;
        }
        let olog = self.objects.entry(obj).or_default();

        // Deduplicate: at most one entry per (txn, object). A repeat
        // read with no intervening write adds no edge a scan could
        // miss (reads don't conflict with reads); a write supersedes
        // any earlier entry of the same transaction outright.
        let prev_gen = self.nodes[&txn].objs.get(&obj).copied();
        if !write && prev_gen == Some(olog.writes_seen) {
            return;
        }
        if write {
            olog.log.retain(|a| a.txn != txn);
        }

        // Scan backwards for conflicts, stopping after the first write
        // by a *committed* transaction — a committed write masks all
        // older entries, an active one must not (it may abort).
        let mut edges: Vec<TxnId> = Vec::new();
        for a in olog.log.iter().rev() {
            if a.txn == txn {
                continue;
            }
            let conflicts = write || a.write;
            if conflicts {
                edges.push(a.txn);
            }
            if a.write && self.nodes.get(&a.txn).is_some_and(|n| n.committed) {
                break;
            }
        }
        olog.log.push_back(Access { txn, write });
        if write {
            olog.writes_seen += 1;
        }
        let gen = olog.writes_seen;
        for from in edges {
            if from != txn {
                self.nodes.get_mut(&from).unwrap().out.insert(txn);
                self.nodes.get_mut(&txn).unwrap().inn.insert(from);
            }
        }
        self.nodes.get_mut(&txn).unwrap().objs.insert(obj, gen);
    }

    /// Commit an update transaction: truncate behind its committed
    /// writes, run the cycle check, then prune what can never cycle.
    fn commit(&mut self, txn: TxnId) {
        let Some(node) = self.nodes.get_mut(&txn) else {
            return; // query, unknown, or already ended
        };
        node.committed = true;

        // A committed write masks everything older on its object:
        // future scans stop at it, so entries before it are dead.
        let objs: Vec<ObjectId> = node.objs.keys().copied().collect();
        for obj in &objs {
            let Some(olog) = self.objects.get_mut(obj) else {
                continue;
            };
            if let Some(pos) = olog.log.iter().position(|a| a.txn == txn && a.write) {
                olog.log.drain(..pos);
            }
        }

        // Cycle check over committed nodes, from the newly committed
        // one. In-edges are final at end, so a cycle is caught exactly
        // when its last member commits.
        while let Some(cycle) = self.find_cycle(txn) {
            let mut txns = cycle.clone();
            txns.sort_unstable();
            txns.dedup();
            self.push(Diagnostic::SerializationCycle { txns });
            // Break the closing edge so the same cycle reports once.
            let last = *cycle.last().expect("cycle is non-empty");
            if let Some(n) = self.nodes.get_mut(&last) {
                n.out.remove(&txn);
            }
            if let Some(n) = self.nodes.get_mut(&txn) {
                n.inn.remove(&last);
            }
        }

        self.ended.insert(txn.0);
        self.try_prune(txn);
    }

    /// An aborted transaction never conflicts: drop its node, its
    /// edges, and its access-log entries entirely.
    fn abort(&mut self, txn: TxnId) {
        let Some(node) = self.nodes.remove(&txn) else {
            return;
        };
        self.ended.insert(txn.0);
        for obj in node.objs.keys() {
            if let Some(olog) = self.objects.get_mut(obj) {
                olog.log.retain(|a| a.txn != txn);
                if olog.log.is_empty() {
                    self.objects.remove(obj);
                }
            }
        }
        for from in &node.inn {
            if let Some(n) = self.nodes.get_mut(from) {
                n.out.remove(&txn);
            }
        }
        let successors: Vec<TxnId> = node.out.iter().copied().collect();
        for to in &successors {
            if let Some(n) = self.nodes.get_mut(to) {
                n.inn.remove(&txn);
            }
        }
        // Losing an in-edge may have made a committed successor
        // prunable.
        for to in successors {
            self.try_prune(to);
        }
    }

    /// Prune `txn` if it is committed with no in-edges — it can never
    /// join a future cycle — and cascade to successors that become
    /// prunable in turn.
    fn try_prune(&mut self, txn: TxnId) {
        let mut work = vec![txn];
        while let Some(t) = work.pop() {
            let prunable = self
                .nodes
                .get(&t)
                .is_some_and(|n| n.committed && n.inn.is_empty());
            if !prunable {
                continue;
            }
            let node = self.nodes.remove(&t).expect("checked above");
            for obj in node.objs.keys() {
                if let Some(olog) = self.objects.get_mut(obj) {
                    olog.log.retain(|a| a.txn != t);
                    if olog.log.is_empty() {
                        self.objects.remove(obj);
                    }
                }
            }
            for to in node.out {
                if let Some(n) = self.nodes.get_mut(&to) {
                    n.inn.remove(&t);
                    work.push(to);
                }
            }
        }
    }

    /// DFS over committed nodes from `start`, looking for a path back
    /// to `start`. Returns the cycle as a node path ending at the node
    /// whose edge closes back to `start`.
    fn find_cycle(&self, start: TxnId) -> Option<Vec<TxnId>> {
        let mut path: Vec<TxnId> = vec![start];
        let mut iters: Vec<Vec<TxnId>> = vec![self.committed_successors(start)];
        let mut visited: HashSet<TxnId> = HashSet::new();
        visited.insert(start);
        while let Some(succs) = iters.last_mut() {
            match succs.pop() {
                Some(next) if next == start => return Some(path),
                Some(next) => {
                    if visited.insert(next) {
                        path.push(next);
                        iters.push(self.committed_successors(next));
                    }
                }
                None => {
                    iters.pop();
                    path.pop();
                }
            }
        }
        None
    }

    fn committed_successors(&self, txn: TxnId) -> Vec<TxnId> {
        self.nodes
            .get(&txn)
            .map(|n| {
                n.out
                    .iter()
                    .copied()
                    .filter(|t| self.nodes.get(t).is_some_and(|n| n.committed))
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_clock::Timestamp;
    use esr_core::bounds::Limit;
    use esr_core::spec::TxnBounds;
    use esr_tso::outcome::CommitInfo;

    fn begin(txn: u64, kind: TxnKind) -> EventKind {
        let bounds = match kind {
            TxnKind::Query => TxnBounds::import(Limit::Unlimited),
            TxnKind::Update => TxnBounds::export(Limit::Unlimited),
        };
        EventKind::Begin {
            txn: TxnId(txn),
            kind,
            ts: Timestamp::ZERO,
            bounds,
        }
    }

    fn write(txn: u64, obj: u32) -> EventKind {
        EventKind::Write {
            txn: TxnId(txn),
            obj: ObjectId(obj),
            value: 0,
            d: 0,
            case3: false,
            readers: Vec::new(),
            oel: Limit::Unlimited,
        }
    }

    fn uread(txn: u64, obj: u32) -> EventKind {
        EventKind::UpdateRead {
            txn: TxnId(txn),
            obj: ObjectId(obj),
            value: 0,
        }
    }

    fn commit(txn: u64) -> EventKind {
        EventKind::Commit {
            txn: TxnId(txn),
            info: CommitInfo {
                inconsistency: 0,
                inconsistent_ops: 0,
                reads: 0,
                writes: 0,
                written: Vec::new(),
            },
        }
    }

    fn abort(txn: u64) -> EventKind {
        EventKind::Abort {
            txn: TxnId(txn),
            reason: None,
        }
    }

    fn feed(monitor: &mut EsrMonitor, kinds: Vec<EventKind>) {
        let base = monitor.stats().events;
        for (i, kind) in kinds.into_iter().enumerate() {
            monitor.observe(&Event {
                seq: base + i as u64,
                kind,
            });
        }
    }

    fn fresh() -> EsrMonitor {
        EsrMonitor::new(HierarchySchema::two_level(), KernelConfig::default())
    }

    #[test]
    fn serial_commits_stay_clean_and_drain_state() {
        let mut m = fresh();
        for t in 1..=200u64 {
            feed(
                &mut m,
                vec![
                    begin(t, TxnKind::Update),
                    uread(t, 0),
                    write(t, 1),
                    commit(t),
                ],
            );
        }
        assert_eq!(m.violations(), 0, "{:?}", m.take_diagnostics());
        let stats = m.stats();
        // Every transaction ended and pruned: nothing retained beyond
        // the last committed write's masking entry.
        assert_eq!(stats.live_txns, 0);
        assert_eq!(stats.graph_nodes, 0);
        assert!(
            stats.retained_entries <= 1,
            "retained {} entries",
            stats.retained_entries
        );
        assert_eq!(m.ended_ranges(), 1, "dense ids must coalesce");
    }

    #[test]
    fn ww_cycle_is_caught_at_last_commit() {
        let mut m = fresh();
        feed(
            &mut m,
            vec![
                begin(1, TxnKind::Update),
                begin(2, TxnKind::Update),
                write(1, 0),
                write(2, 1),
                write(2, 0),
                write(1, 1),
                commit(1),
            ],
        );
        assert_eq!(m.violations(), 0, "cycle incomplete until both commit");
        feed(&mut m, vec![commit(2)]);
        let diags = m.take_diagnostics();
        let cycles: Vec<_> = diags
            .iter()
            .filter_map(|d| match d {
                Diagnostic::SerializationCycle { txns } => Some(txns.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(cycles, vec![vec![TxnId(1), TxnId(2)]], "{diags:?}");
    }

    #[test]
    fn an_interleaved_aborting_writer_does_not_mask_conflicts() {
        // T3 reads obj 1 before T1 writes it (edge 3 → 1). T1 commits,
        // then T2 overwrites obj 0 and aborts, then T3 reads obj 0.
        // A naive "last writer" state would credit T3's read to T2 and
        // lose the 1 → 3 edge when T2 aborts; the committed-write
        // barrier scan keeps it, closing the 1 ⇄ 3 cycle.
        let mut m = fresh();
        feed(
            &mut m,
            vec![
                begin(1, TxnKind::Update),
                begin(2, TxnKind::Update),
                begin(3, TxnKind::Update),
                uread(3, 1), // RW: 3 → (whoever writes obj 1 later)
                write(1, 0),
                write(1, 1), // 3 → 1 via obj 1
                commit(1),
                write(2, 0), // interloper over obj 0 ...
                abort(2),    // ... aborts
                uread(3, 0), // 1 → 3 via obj 0, across the aborted mask
                commit(3),
            ],
        );
        let diags = m.take_diagnostics();
        assert!(
            diags
                .iter()
                .any(|d| matches!(d, Diagnostic::SerializationCycle { txns } if txns == &vec![TxnId(1), TxnId(3)])),
            "cycle lost behind an aborted writer: {diags:?}"
        );
    }

    #[test]
    fn stream_gap_is_reported_not_skipped() {
        let mut m = fresh();
        m.observe(&Event {
            seq: 0,
            kind: begin(1, TxnKind::Update),
        });
        m.observe(&Event {
            seq: 5,
            kind: commit(1),
        });
        let diags = m.take_diagnostics();
        assert!(
            diags.iter().any(|d| matches!(
                d,
                Diagnostic::StreamGap {
                    expected: 1,
                    found: 5
                }
            )),
            "{diags:?}"
        );
        assert_eq!(m.stats().gaps, 1);
        assert!(m.violations() >= 1);
    }

    #[test]
    fn injected_violation_fires_without_breaking_sequence_tracking() {
        let mut m = fresh();
        for (seq, kind) in [(0, begin(1, TxnKind::Update)), (1, write(1, 0))] {
            m.observe(&Event { seq, kind });
        }
        assert_eq!(m.violations(), 0);
        // A write by a transaction that never began: a planted violation.
        m.inject(&write(999, 0));
        assert_eq!(m.violations(), 1);
        let diags = m.take_diagnostics();
        assert!(diags.iter().any(|d| matches!(
            d,
            Diagnostic::MissingBegin {
                txn: TxnId(999),
                ..
            }
        )));
        // The real stream continues gap-free: injection must not have
        // consumed a sequence number.
        m.observe(&Event {
            seq: 2,
            kind: commit(1),
        });
        assert_eq!(m.stats().gaps, 0);
    }

    #[test]
    fn long_running_query_bounds_are_enforced_online() {
        let mut m = fresh();
        m.observe(&Event {
            seq: 0,
            kind: EventKind::Begin {
                txn: TxnId(1),
                kind: TxnKind::Query,
                ts: Timestamp::ZERO,
                bounds: TxnBounds::import(Limit::at_most(5)),
            },
        });
        m.observe(&Event {
            seq: 1,
            kind: EventKind::QueryRead {
                txn: TxnId(1),
                obj: ObjectId(0),
                present: 100,
                proper: 90,
                d: 10,
                case1: true,
                case2: false,
                oil: Limit::at_most(5),
            },
        });
        let diags = m.take_diagnostics();
        assert!(
            diags
                .iter()
                .any(|d| matches!(d, Diagnostic::BoundExceeded { txn: TxnId(1), .. })),
            "{diags:?}"
        );
    }

    #[test]
    fn memory_stays_bounded_under_churn_with_one_straggler() {
        // One never-ending update holds an in-edge chain open; churn
        // 500 committed transactions across ten objects and confirm
        // retained state tracks the window, not the history.
        let mut m = fresh();
        feed(&mut m, vec![begin(1, TxnKind::Update), uread(1, 0)]);
        for t in 2..=501u64 {
            let obj = (t % 10) as u32;
            feed(
                &mut m,
                vec![begin(t, TxnKind::Update), write(t, obj), commit(t)],
            );
        }
        assert_eq!(m.violations(), 0, "{:?}", m.take_diagnostics());
        let stats = m.stats();
        assert_eq!(stats.live_txns, 1);
        // The straggler read obj 0 once; committed writers on obj 0
        // gained an edge from it and can't prune, but each *committed*
        // write truncates its object log, so entries stay O(objects).
        assert!(
            stats.retained_entries <= 2 * 10 + 1,
            "retained {} entries",
            stats.retained_entries
        );
        // Graph nodes: the straggler plus obj-0 writers it precedes
        // (kept by its potential future cycle) — but writers on the
        // other nine objects must all have pruned.
        assert!(
            stats.graph_nodes <= 52,
            "graph grew unbounded: {} nodes",
            stats.graph_nodes
        );
        // Now the straggler ends; everything drains.
        feed(&mut m, vec![commit(1)]);
        let stats = m.stats();
        assert_eq!(stats.live_txns, 0);
        assert_eq!(stats.graph_nodes, 0, "prune cascade incomplete");
        assert_eq!(m.violations(), 0);
    }

    #[test]
    fn matches_offline_checker_on_a_mixed_history() {
        // A well-formed history tripping all three passes at once: a WW
        // cycle, an uncharged Case-1 relaxation, and a spec-lint error.
        // The monitor fed the same events must produce the same
        // diagnostic multiset as `check_history`.
        use crate::{check_history, History};
        let kinds = vec![
            begin(1, TxnKind::Update),
            begin(2, TxnKind::Update),
            EventKind::Begin {
                txn: TxnId(3),
                kind: TxnKind::Query,
                ts: Timestamp::ZERO,
                bounds: TxnBounds::import(Limit::Unlimited)
                    .with_group("no-such-group", Limit::at_most(10)),
            },
            write(1, 0),
            write(2, 1),
            write(2, 0),
            write(1, 1),
            EventKind::QueryRead {
                txn: TxnId(3),
                obj: ObjectId(1),
                present: 12,
                proper: 7,
                d: 0, // implies 5 — an uncharged relaxation
                case1: true,
                case2: false,
                oil: Limit::Unlimited,
            },
            commit(2),
            commit(1),
            commit(3),
        ];
        let events: Vec<Event> = kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Event {
                seq: i as u64,
                kind,
            })
            .collect();
        let history = History {
            schema: HierarchySchema::two_level(),
            config: KernelConfig::default(),
            events: events.clone(),
        };
        let offline = check_history(&history);

        let mut m = EsrMonitor::new(history.schema.clone(), history.config);
        m.ingest(&events);
        let mut online = m.take_diagnostics();

        let mut offline_diags = offline.diagnostics.clone();
        let key = |d: &Diagnostic| format!("{d:?}");
        online.sort_by_key(key);
        offline_diags.sort_by_key(key);
        assert_eq!(online, offline_diags);
    }
}
