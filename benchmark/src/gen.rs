//! The workloads and the seeded generator that turns a workload into
//! per-client transaction streams.
//!
//! The daemon sees only generated operations; everything random comes
//! from [`Rng`], seeded from `--seed`, the stream's purpose and the
//! client index, so two runs with one seed replay the same input. Every
//! size below is frozen: changing one changes what every later
//! measurement means.

/// Closed-loop client connections of a run, all from one generator
/// process: the paper's terminal model at MPL 2.
pub const CLIENTS: usize = 2;

/// Transactions each client runs during set-up, before the warm-up.
pub const PRELOAD_TXNS: usize = 200;

/// Leading transactions of each client's stream covered by the stream
/// hash and replayed by the peel.
pub const HASHED_TXNS: usize = 1000;

/// splitmix64: small, fast, and good enough to pick keys.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }

    /// True with probability `percent / 100`.
    pub fn chance(&mut self, percent: u32) -> bool {
        self.below(100) < percent
    }
}

/// FNV-1a, used for stream hashes and for deriving stream seeds.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Which daemon a client talks to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    Primary,
    Replica,
}

/// How a written value is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteVal {
    /// A generated constant (blind write).
    Const(i64),
    /// The value returned by read number `read` of this transaction,
    /// plus `delta` — the two halves of a sum-preserving transfer.
    ReadPlus { read: usize, delta: i64 },
}

/// One generated transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnSpec {
    pub update: bool,
    /// TIL of a query, TEL of an update; 0 is strict (SR).
    pub limit: u64,
    pub reads: Vec<u32>,
    pub writes: Vec<(u32, WriteVal)>,
}

impl TxnSpec {
    fn hash_bytes(&self) -> Vec<u8> {
        let mut out = vec![u8::from(self.update)];
        out.extend(self.limit.to_le_bytes());
        for r in &self.reads {
            out.extend(r.to_le_bytes());
        }
        for (obj, val) in &self.writes {
            out.extend(obj.to_le_bytes());
            match *val {
                WriteVal::Const(v) => out.extend(v.to_le_bytes()),
                WriteVal::ReadPlus { read, delta } => {
                    out.extend((read as u64).to_le_bytes());
                    out.extend(delta.to_le_bytes());
                }
            }
        }
        out
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mix {
    PaperHot,
    DurableCommit,
    PagedMixed,
    ReplicaRead,
}

/// One workload: the daemon's configuration and the traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Why the workload exists is recorded beside its name in
    /// `BENCHMARK.json`.
    pub name: &'static str,
    pub objects: u32,
    pub value: i64,
    /// `--data-dir` + `--checkpoint-secs 5`.
    pub durable: bool,
    /// `--cache-pages N` (durable only).
    pub cache_pages: Option<usize>,
    /// A second daemon runs as `--replica-of` the first.
    pub replica: bool,
    /// One RPC per operation (the paper's shape) instead of one `Batch`.
    pub per_op: bool,
    mix: Mix,
}

/// Checkpoint cadence of every durable daemon, seconds.
pub const CHECKPOINT_SECS: u64 = 5;
/// Worker threads of every daemon.
pub const WORKERS: usize = 4;
/// `paged_mixed`: share of each client's partition that is hot, in
/// 1/1000. Calibrated once at the seed commit so that
/// `storage.page_hit_rate` sits near 0.80 with 256 cache pages.
const PAGED_HOT_PERMILLE: u32 = 40;
/// The band `storage.page_hit_rate` must stay in on `paged_mixed`.
pub const PAGED_HIT_BAND: (f64, f64) = (0.75, 0.85);
/// `paper_hot`: size of the hot set and the TIL/TEL of relaxed ETs.
const PAPER_HOT_SET: u32 = 20;
pub const PAPER_RELAXED_LIMIT: u64 = 100_000;
/// `replica_read`: TIL of the replica's queries.
const REPLICA_TIL: u64 = 10_000;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_hot",
        objects: 1000,
        value: 5000,
        durable: false,
        cache_pages: None,
        replica: false,
        per_op: true,
        mix: Mix::PaperHot,
    },
    Workload {
        name: "durable_commit",
        objects: 10_000,
        value: 5000,
        durable: true,
        cache_pages: None,
        replica: false,
        per_op: false,
        mix: Mix::DurableCommit,
    },
    Workload {
        name: "paged_mixed",
        objects: 60_000,
        value: 5000,
        durable: true,
        cache_pages: Some(256),
        replica: false,
        per_op: false,
        mix: Mix::PagedMixed,
    },
    Workload {
        name: "replica_read",
        objects: 10_000,
        value: 5000,
        durable: true,
        cache_pages: None,
        replica: true,
        per_op: false,
        mix: Mix::ReplicaRead,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The daemon a client connects to. With a replica, client 0 writes
    /// on the primary and client 1 reads on the replica.
    pub fn target(&self, client: usize) -> Target {
        if self.replica && client > 0 {
            Target::Replica
        } else {
            Target::Primary
        }
    }

    /// Length of one measured slice in seconds. A durable daemon
    /// checkpoints every [`CHECKPOINT_SECS`]; a slice that long holds one
    /// checkpoint, so every slice measures the same thing. With 1-second
    /// slices the one in five that meets a checkpoint forms a second mode.
    pub fn slice_secs(&self) -> u64 {
        if self.durable {
            CHECKPOINT_SECS
        } else {
            1
        }
    }

    /// A generator for `client`'s stream; `purpose` separates the
    /// preload stream from the measured one.
    pub fn stream(&'static self, seed: u64, purpose: &str, client: usize) -> Stream {
        let tag = format!("{}/{purpose}/{client}", self.name);
        Stream { workload: self, client, rng: Rng::new(seed ^ fnv1a(tag.bytes())) }
    }

    /// Hash of the first [`HASHED_TXNS`] transactions of `client`'s
    /// measured stream: equal hashes mean equal input.
    pub fn stream_hash(&'static self, seed: u64, client: usize) -> u64 {
        let mut stream = self.stream(seed, "run", client);
        fnv1a((0..HASHED_TXNS).flat_map(|_| stream.next_txn().hash_bytes()))
    }
}

/// An endless, deterministic stream of one client's transactions.
#[derive(Debug, Clone)]
pub struct Stream {
    workload: &'static Workload,
    client: usize,
    rng: Rng,
}

impl Stream {
    /// `n` distinct picks.
    fn distinct(&mut self, n: usize, mut pick: impl FnMut(&mut Rng) -> u32) -> Vec<u32> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let obj = pick(&mut self.rng);
            if !out.contains(&obj) {
                out.push(obj);
            }
        }
        out
    }

    /// A blind-write value near the initial one, so replica divergence
    /// per object stays below the replica queries' TIL.
    fn blind_value(&mut self) -> i64 {
        4000 + i64::from(self.rng.below(2000))
    }

    /// 2 reads + 2 blind writes on 4 distinct objects.
    fn batched_update(&mut self, pick: impl FnMut(&mut Rng) -> u32) -> TxnSpec {
        let objs = self.distinct(4, pick);
        let writes = vec![
            (objs[2], WriteVal::Const(self.blind_value())),
            (objs[3], WriteVal::Const(self.blind_value())),
        ];
        TxnSpec { update: true, limit: 0, reads: objs[..2].to_vec(), writes }
    }

    pub fn next_txn(&mut self) -> TxnSpec {
        let w = self.workload;
        let part = w.objects / CLIENTS as u32;
        let base = self.client as u32 * part;
        match w.mix {
            Mix::PaperHot => {
                let pick = |rng: &mut Rng| {
                    if rng.chance(90) {
                        rng.below(PAPER_HOT_SET)
                    } else {
                        rng.below(w.objects)
                    }
                };
                if self.rng.chance(50) {
                    // Sum-preserving transfer between the first two of
                    // four distinct reads.
                    let reads = self.distinct(4, pick);
                    let d = 1 + i64::from(self.rng.below(2000));
                    let writes = vec![
                        (reads[0], WriteVal::ReadPlus { read: 0, delta: -d }),
                        (reads[1], WriteVal::ReadPlus { read: 1, delta: d }),
                    ];
                    TxnSpec { update: true, limit: PAPER_RELAXED_LIMIT, reads, writes }
                } else {
                    let strict = self.rng.chance(50);
                    TxnSpec {
                        update: false,
                        limit: if strict { 0 } else { PAPER_RELAXED_LIMIT },
                        reads: (0..20).map(|_| pick(&mut self.rng)).collect(),
                        writes: Vec::new(),
                    }
                }
            }
            Mix::DurableCommit => {
                let pick = |rng: &mut Rng| base + rng.below(part);
                if self.rng.chance(90) {
                    self.batched_update(pick)
                } else {
                    TxnSpec {
                        update: false,
                        limit: 0,
                        reads: self.distinct(4, pick),
                        writes: Vec::new(),
                    }
                }
            }
            Mix::PagedMixed => {
                let hot = part * PAGED_HOT_PERMILLE / 1000;
                let pick = |rng: &mut Rng| {
                    if rng.chance(80) {
                        base + rng.below(hot)
                    } else {
                        base + rng.below(part)
                    }
                };
                if self.rng.chance(50) {
                    self.batched_update(pick)
                } else {
                    TxnSpec {
                        update: false,
                        limit: 0,
                        reads: self.distinct(8, pick),
                        writes: Vec::new(),
                    }
                }
            }
            Mix::ReplicaRead => {
                if w.target(self.client) == Target::Primary {
                    // The writer and the reader both roam the whole id
                    // space, so every read can meet a shipped write.
                    self.batched_update(|rng| rng.below(w.objects))
                } else {
                    TxnSpec {
                        update: false,
                        limit: REPLICA_TIL,
                        reads: self.distinct(8, |rng| rng.below(w.objects)),
                        writes: Vec::new(),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in &WORKLOADS {
            for client in 0..CLIENTS {
                assert_eq!(w.stream_hash(1993, client), w.stream_hash(1993, client));
                assert_ne!(w.stream_hash(1993, client), w.stream_hash(1994, client));
            }
            assert_ne!(w.stream_hash(1993, 0), w.stream_hash(1993, 1));
        }
    }

    #[test]
    fn partitioned_workloads_stay_inside_their_partition() {
        for name in ["durable_commit", "paged_mixed"] {
            let w = workload(name).unwrap();
            let part = w.objects / CLIENTS as u32;
            for client in 0..CLIENTS {
                let mut s = w.stream(7, "run", client);
                for _ in 0..500 {
                    let t = s.next_txn();
                    let lo = client as u32 * part;
                    let objs = t.reads.iter().chain(t.writes.iter().map(|(o, _)| o));
                    assert!(objs.clone().all(|&o| (lo..lo + part).contains(&o)));
                }
            }
        }
    }

    #[test]
    fn paper_hot_transfers_preserve_the_sum() {
        let mut s = workload("paper_hot").unwrap().stream(3, "run", 0);
        let updates: Vec<TxnSpec> = (0..200).map(|_| s.next_txn()).filter(|t| t.update).collect();
        assert!(!updates.is_empty());
        for t in updates {
            let deltas: Vec<i64> = t
                .writes
                .iter()
                .map(|(obj, val)| match *val {
                    WriteVal::ReadPlus { read, delta } => {
                        assert_eq!(t.reads[read], *obj);
                        delta
                    }
                    WriteVal::Const(_) => panic!("paper_hot writes are transfers"),
                })
                .collect();
            assert_eq!(deltas.iter().sum::<i64>(), 0);
        }
    }
}
