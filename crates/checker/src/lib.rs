//! # esr-checker — offline conformance checking of captured ESR histories
//!
//! The kernel in `esr-tso` *claims* that update ETs stay serializable
//! among themselves and that every query ET's view stays within its
//! declared hierarchical inconsistency bounds (§2–§5 of the paper). This
//! crate validates those claims after the fact, from a captured
//! [`History`] alone, with three independent passes:
//!
//! 1. **Serialization-graph test** ([`graph`]) — the committed update
//!    ETs must form an acyclic conflict graph once the epsilon-relaxed
//!    query edges are excluded.
//! 2. **Epsilon replay** ([`replay`]) — recompute every operation's
//!    inconsistency from the event's own data (present/proper values,
//!    the §5.2 export rule over Case-3 reader snapshots), confirm the
//!    kernel charged exactly that, and replay the charges bottom-up
//!    through a fresh [`esr_core::ledger::Ledger`] to confirm no
//!    committed transaction exceeded its declared [`TxnBounds`].
//! 3. **Specification linting** ([`lint`]) — the bound specifications
//!    themselves must make sense: known group names, directions matching
//!    transaction kinds, no child limit looser than an ancestor's.
//!
//! [`check_history`] runs all three and merges the findings into one
//! [`CheckReport`]; the `esr-check` binary applies it to history JSON
//! files emitted by instrumented runs. The [`monitor`] module packages
//! the same passes incrementally — an [`EsrMonitor`](monitor::EsrMonitor)
//! consumes a live capture stream with memory bounded by the active
//! transaction window instead of history length.
//!
//! [`TxnBounds`]: esr_core::spec::TxnBounds

pub mod graph;
pub mod lint;
pub mod monitor;
pub mod ranges;
pub mod replay;
pub mod report;

pub use esr_tso::capture::{Event, EventKind, History, ReaderView};
pub use lint::{lint_schema, lint_spec, LintFinding};
pub use monitor::EsrMonitor;
pub use report::{CheckReport, Diagnostic};

use esr_tso::capture::EventKind as Ek;

/// Run every pass over one captured history.
///
/// Diagnostics come out grouped by pass: schema lint first (a broken
/// hierarchy invalidates everything downstream), then per-transaction
/// spec lint in begin order, then the serialization-graph test, then the
/// replay findings in event order.
pub fn check_history(history: &History) -> CheckReport {
    let mut diagnostics = Vec::new();

    // Structural schema problems apply to no particular transaction:
    // they carry `txn: None` instead of being pinned on whichever
    // transaction happened to begin first (an empty history used to
    // fabricate a `txn#0` that never existed).
    for finding in lint::lint_schema(&history.schema) {
        diagnostics.push(Diagnostic::SpecLint { txn: None, finding });
    }

    for ev in &history.events {
        if let Ek::Begin {
            txn, kind, bounds, ..
        } = &ev.kind
        {
            for finding in lint::lint_spec(&history.schema, *kind, bounds) {
                diagnostics.push(Diagnostic::SpecLint {
                    txn: Some(*txn),
                    finding,
                });
            }
        }
    }

    diagnostics.extend(graph::check_serialization(history));
    diagnostics.extend(replay::replay_bounds(history));

    CheckReport { diagnostics }
}

/// A cross-site capture: the primary's full history plus the history
/// each replica recorded locally while serving epsilon-bounded reads.
///
/// The replica histories contain `Begin` / `ReplicaRead` / `Commit` /
/// `Abort` events for the read-only transactions the replica served;
/// every `ReplicaRead` carries both the local value returned and the
/// primary shadow the divergence charge was measured against.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ReplicatedCapture {
    /// The primary site's history (updates and any primary-side queries).
    pub primary: History,
    /// One history per replica, in site order.
    pub replicas: Vec<History>,
    /// The initial value of every object, shared by all sites.
    pub initial: Vec<i64>,
}

/// Validate a cross-site capture: the paper's headline guarantee,
/// enforced end-to-end across sites.
///
/// Three obligations, three checks:
///
/// 1. The primary history passes [`check_history`] on its own —
///    serializable updates, exact charges, bounds respected.
/// 2. Each replica history replays clean: every `ReplicaRead` was
///    charged exactly `distance(local, shadow)` and no served
///    transaction exceeded its declared hierarchical bounds.
/// 3. The shadows are *honest*: every shadow a replica charged against
///    is a value the primary actually committed to that object (or the
///    object's initial value). Without this, a replica could fabricate
///    a nearby shadow and launder unbounded staleness through a tiny
///    recorded charge — [`Diagnostic::ForeignShadow`] catches it.
pub fn check_replicated(capture: &ReplicatedCapture) -> CheckReport {
    use esr_core::ids::ObjectId;
    use std::collections::{HashMap, HashSet};

    let mut report = check_history(&capture.primary);

    // The honest-shadow baseline: per object, the initial value plus
    // every value a *committed* primary update installed there.
    let committed: HashSet<_> = capture
        .primary
        .events
        .iter()
        .filter_map(|ev| match &ev.kind {
            Ek::Commit { txn, .. } => Some(*txn),
            _ => None,
        })
        .collect();
    let mut legitimate: HashMap<ObjectId, HashSet<i64>> = HashMap::new();
    for (i, &v) in capture.initial.iter().enumerate() {
        legitimate.entry(ObjectId(i as u32)).or_default().insert(v);
    }
    for ev in &capture.primary.events {
        if let Ek::Write {
            txn, obj, value, ..
        } = &ev.kind
        {
            if committed.contains(txn) {
                legitimate.entry(*obj).or_default().insert(*value);
            }
        }
    }

    for replica in &capture.replicas {
        let site = check_history(replica);
        report.diagnostics.extend(site.diagnostics);
        for ev in &replica.events {
            if let Ek::ReplicaRead {
                txn, obj, shadow, ..
            } = &ev.kind
            {
                let known = legitimate
                    .get(obj)
                    .is_some_and(|vals| vals.contains(shadow));
                if !known {
                    report.diagnostics.push(Diagnostic::ForeignShadow {
                        txn: *txn,
                        obj: *obj,
                        seq: ev.seq,
                        shadow: *shadow,
                    });
                }
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_clock::Timestamp;
    use esr_core::bounds::Limit;
    use esr_core::hierarchy::HierarchySchema;
    use esr_core::ids::{ObjectId, TxnId, TxnKind};
    use esr_core::spec::TxnBounds;
    use esr_tso::outcome::CommitInfo;
    use esr_tso::KernelConfig;

    #[test]
    fn empty_history_is_clean() {
        let h = History {
            schema: HierarchySchema::two_level(),
            config: KernelConfig::default(),
            events: Vec::new(),
        };
        let report = check_history(&h);
        assert!(report.is_clean());
        assert!(report.diagnostics.is_empty());
    }

    #[test]
    fn spec_lint_findings_are_attached_to_the_transaction() {
        let mut b = HierarchySchema::builder();
        b.group("company");
        let schema = b.build();
        let h = History {
            schema,
            config: KernelConfig::default(),
            events: vec![
                Event {
                    seq: 0,
                    kind: EventKind::Begin {
                        txn: TxnId(5),
                        kind: TxnKind::Query,
                        ts: Timestamp::ZERO,
                        bounds: TxnBounds::import(Limit::at_most(100))
                            .with_group("no-such-group", Limit::at_most(10)),
                    },
                },
                Event {
                    seq: 1,
                    kind: EventKind::Commit {
                        txn: TxnId(5),
                        info: CommitInfo {
                            inconsistency: 0,
                            inconsistent_ops: 0,
                            reads: 0,
                            writes: 0,
                            written: Vec::new(),
                        },
                    },
                },
            ],
        };
        let report = check_history(&h);
        assert!(!report.is_clean());
        assert!(report.diagnostics.iter().any(|d| matches!(
            d,
            Diagnostic::SpecLint {
                txn: Some(TxnId(5)),
                finding: LintFinding::UnknownGroup { .. },
            }
        )));
        // And the rendered report names the transaction and the group.
        let text = report.to_string();
        assert!(text.contains("txn#5"), "{text}");
        assert!(text.contains("no-such-group"), "{text}");
    }

    #[test]
    fn schema_lints_on_an_empty_history_name_no_transaction() {
        // A structurally broken schema (as might arrive in a tampered
        // history file) lints even with no events at all — and with no
        // events there is no transaction to blame: the report must say
        // so instead of inventing txn#0.
        let well_formed = serde_json::to_string(&HierarchySchema::two_level()).unwrap();
        let tampered = well_formed.replacen("\"children\":[]", "\"children\":[7]", 1);
        assert_ne!(
            tampered, well_formed,
            "tamper point not found: {well_formed}"
        );
        let schema: HierarchySchema = serde_json::from_str(&tampered).unwrap();
        let h = History {
            schema,
            config: KernelConfig::default(),
            events: Vec::new(),
        };
        let report = check_history(&h);
        assert!(!report.diagnostics.is_empty());
        for d in &report.diagnostics {
            match d {
                Diagnostic::SpecLint { txn, .. } => {
                    assert_eq!(*txn, None, "schema lint fabricated a transaction: {d}")
                }
                other => panic!("unexpected diagnostic on empty history: {other}"),
            }
        }
        let text = report.to_string();
        assert!(text.contains("schema specification"), "{text}");
        assert!(!text.contains("txn#0"), "{text}");
    }

    fn ev(seq: u64, kind: EventKind) -> Event {
        Event { seq, kind }
    }

    fn commit_info(inconsistency: u64, ops: u64, written: Vec<(ObjectId, i64)>) -> CommitInfo {
        CommitInfo {
            inconsistency,
            inconsistent_ops: ops,
            reads: 0,
            writes: written.len() as u64,
            written,
        }
    }

    /// A primary that commits 1020 then 1040 to object 0, and a replica
    /// that served one read of the stale 1020 copy while the shadow had
    /// already advanced to 1040 (divergence 20, charged exactly).
    fn replicated_fixture() -> ReplicatedCapture {
        let primary = History {
            schema: HierarchySchema::two_level(),
            config: KernelConfig::default(),
            events: vec![
                ev(
                    0,
                    EventKind::Begin {
                        txn: TxnId(1),
                        kind: TxnKind::Update,
                        ts: Timestamp::ZERO,
                        bounds: TxnBounds::export(Limit::Unlimited),
                    },
                ),
                ev(
                    1,
                    EventKind::Write {
                        txn: TxnId(1),
                        obj: ObjectId(0),
                        value: 1020,
                        d: 0,
                        case3: false,
                        readers: Vec::new(),
                        oel: Limit::Unlimited,
                    },
                ),
                ev(
                    2,
                    EventKind::Commit {
                        txn: TxnId(1),
                        info: commit_info(0, 0, vec![(ObjectId(0), 1020)]),
                    },
                ),
                ev(
                    3,
                    EventKind::Begin {
                        txn: TxnId(2),
                        kind: TxnKind::Update,
                        ts: Timestamp::ZERO,
                        bounds: TxnBounds::export(Limit::Unlimited),
                    },
                ),
                ev(
                    4,
                    EventKind::Write {
                        txn: TxnId(2),
                        obj: ObjectId(0),
                        value: 1040,
                        d: 0,
                        case3: false,
                        readers: Vec::new(),
                        oel: Limit::Unlimited,
                    },
                ),
                ev(
                    5,
                    EventKind::Commit {
                        txn: TxnId(2),
                        info: commit_info(0, 0, vec![(ObjectId(0), 1040)]),
                    },
                ),
            ],
        };
        let replica = History {
            schema: HierarchySchema::two_level(),
            config: KernelConfig::default(),
            events: vec![
                ev(
                    0,
                    EventKind::Begin {
                        txn: TxnId(100),
                        kind: TxnKind::Query,
                        ts: Timestamp::ZERO,
                        bounds: TxnBounds::import(Limit::at_most(50)),
                    },
                ),
                ev(
                    1,
                    EventKind::ReplicaRead {
                        txn: TxnId(100),
                        obj: ObjectId(0),
                        local: 1020,
                        shadow: 1040,
                        d: 20,
                        lag: 1,
                        oil: Limit::Unlimited,
                    },
                ),
                ev(
                    2,
                    EventKind::Commit {
                        txn: TxnId(100),
                        info: commit_info(20, 1, Vec::new()),
                    },
                ),
            ],
        };
        ReplicatedCapture {
            primary,
            replicas: vec![replica],
            initial: vec![1000, 1000],
        }
    }

    #[test]
    fn honest_cross_site_capture_is_clean() {
        let cap = replicated_fixture();
        let report = check_replicated(&cap);
        assert!(report.is_clean(), "{report}");
        assert!(report.diagnostics.is_empty(), "{report}");
    }

    #[test]
    fn undercharged_replica_read_is_flagged() {
        // Tamper: the replica claims it only imported 5 although its own
        // event says the copy was 20 away from the shadow.
        let mut cap = replicated_fixture();
        let events = &mut cap.replicas[0].events;
        if let EventKind::ReplicaRead { d, .. } = &mut events[1].kind {
            *d = 5;
        }
        if let EventKind::Commit { info, .. } = &mut events[2].kind {
            info.inconsistency = 5;
        }
        let report = check_replicated(&cap);
        assert!(
            report.diagnostics.iter().any(|dg| matches!(
                dg,
                Diagnostic::UnchargedRelaxation {
                    txn: TxnId(100),
                    recorded: 5,
                    recomputed: 20,
                    ..
                }
            )),
            "{report}"
        );
    }

    #[test]
    fn replica_read_over_budget_is_flagged() {
        let mut cap = replicated_fixture();
        if let EventKind::Begin { bounds, .. } = &mut cap.replicas[0].events[0].kind {
            *bounds = TxnBounds::import(Limit::at_most(10));
        }
        let report = check_replicated(&cap);
        assert!(
            report.diagnostics.iter().any(|dg| matches!(
                dg,
                Diagnostic::BoundExceeded {
                    txn: TxnId(100),
                    ..
                }
            )),
            "{report}"
        );
    }

    #[test]
    fn fabricated_shadow_is_flagged() {
        // Tamper: the replica measured divergence against 1021, a value
        // the primary never committed — the tiny charge is a lie.
        let mut cap = replicated_fixture();
        let events = &mut cap.replicas[0].events;
        if let EventKind::ReplicaRead { shadow, d, .. } = &mut events[1].kind {
            *shadow = 1021;
            *d = 1;
        }
        if let EventKind::Commit { info, .. } = &mut events[2].kind {
            info.inconsistency = 1;
        }
        let report = check_replicated(&cap);
        assert!(
            report.diagnostics.iter().any(|dg| matches!(
                dg,
                Diagnostic::ForeignShadow {
                    txn: TxnId(100),
                    obj: ObjectId(0),
                    shadow: 1021,
                    ..
                }
            )),
            "{report}"
        );
        // The initial value is always a legitimate shadow.
        let mut cap = replicated_fixture();
        let events = &mut cap.replicas[0].events;
        if let EventKind::ReplicaRead {
            shadow, d, local, ..
        } = &mut events[1].kind
        {
            *shadow = 1000;
            *local = 1000;
            *d = 0;
        }
        if let EventKind::Commit { info, .. } = &mut events[2].kind {
            info.inconsistency = 0;
            info.inconsistent_ops = 0;
        }
        assert!(check_replicated(&cap).is_clean());
    }

    #[test]
    fn report_merges_all_passes() {
        // One history tripping replay (uncharged relaxation) and lint
        // (unknown group) at once.
        let h = History {
            schema: HierarchySchema::two_level(),
            config: KernelConfig::default(),
            events: vec![
                Event {
                    seq: 0,
                    kind: EventKind::Begin {
                        txn: TxnId(1),
                        kind: TxnKind::Query,
                        ts: Timestamp::ZERO,
                        bounds: TxnBounds::import(Limit::at_most(100))
                            .with_group("ghost", Limit::at_most(1)),
                    },
                },
                Event {
                    seq: 1,
                    kind: EventKind::QueryRead {
                        txn: TxnId(1),
                        obj: ObjectId(0),
                        present: 1010,
                        proper: 1000,
                        d: 0,
                        case1: true,
                        case2: false,
                        oil: Limit::Unlimited,
                    },
                },
            ],
        };
        let report = check_history(&h);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| matches!(d, Diagnostic::SpecLint { .. })));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| matches!(d, Diagnostic::UnchargedRelaxation { .. })));
    }
}
