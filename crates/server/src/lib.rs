//! # esr-server — the prototype client/server system (§6)
//!
//! *"We used the client server model for our implementation. Multiple
//! transaction clients submit transactions to a central transaction
//! server. … The server primarily consists of a scheduler, a transaction
//! manager and a data manager."*
//!
//! This crate reproduces that system in-process: a [`server::Server`]
//! owns the `esr-tso` kernel (which packages the scheduler, transaction
//! manager, and data manager) and serves each request on the thread
//! that brings it ([`server::RpcHandle::serve`]) — as multithreaded as
//! its callers, like the paper's RPC dispatch. Each
//! [`connection::Connection`] is one client site:
//! it carries its own (optionally skewed) clock, synchronised with the
//! server through a correction factor exactly as §6 describes, and
//! implements `esr-txn`'s [`esr_txn::Session`] so transaction programs
//! run against the server unchanged.
//!
//! The paper's synchronous RPC (null call ≈ 11 ms, average 17–20 ms) is
//! modelled by an optional per-operation latency injected on the client
//! side of the call ([`server::ServerConfig::rpc_latency`]).
//!
//! Operations that must wait (strict ordering) simply do not get their
//! reply until a commit or abort wakes them — the client thread blocks
//! on its reply channel, mirroring a blocked synchronous RPC.

pub mod connection;
pub mod durable;
pub mod obs;
pub mod proto;
pub mod server;

pub use connection::Connection;
pub use durable::{start_durable, start_durable_with, RecoverySummary, CLOCK_EPOCH_MARGIN_MICROS};
pub use esr_storage::PageCacheSnapshot;
pub use obs::{RequestKind, ServerObs, ServiceHistograms};
pub use proto::{
    BeginReply, EndReply, MonitorSnapshot, NamedHistogram, OpReply, ReplicaPeerRow,
    ReplicationStats, ReplySink, Request, ServerStats, StatsReply, MAX_BATCH,
};
pub use server::{
    ConnectError, RpcHandle, Server, ServerConfig, SiteAllocator, StatsSource, BATCH_FAILED,
    BATCH_TOO_LARGE, BUSY_ERROR, SHUTDOWN_ERROR,
};
