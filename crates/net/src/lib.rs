//! # esr-net — the real networked transport for the ESR server
//!
//! The paper's entire performance study runs multiple transaction
//! clients against one central server over synchronous RPC (a null call
//! cost ≈ 11 ms there; 17–20 ms on average). `esr-server` reproduces
//! the *system* — kernel, request path, blocking strict-ordering waits —
//! but speaks only in-process channels, with a `thread::sleep` standing
//! in for the network. This crate replaces the sleep with a socket:
//!
//! - [`frame`] — length-prefixed binary framing of the serde data
//!   model (the bincode/postcard niche, in-tree because the build is
//!   offline), with a hard frame-size cap;
//! - [`msg`] — the serializable wire protocol: request/reply bodies
//!   wrapped in correlation-id envelopes, so one socket can have an
//!   operation parked on a kernel wait queue while other traffic
//!   (including the `End` that wakes it) flows past;
//! - [`server`] — [`TcpServer`], which accepts connections and runs
//!   each decoded request against the kernel on its connection's own
//!   thread, with hook reply sinks that write each reply (immediate or
//!   woken much later) to the right socket;
//! - [`client`] — [`TcpConnection`], a [`esr_txn::Session`] over the
//!   socket with the §6 handshake done for real: server-allocated site
//!   id, Cristian time exchanges for the clock correction factor,
//!   connect retry with exponential backoff, and bounded read/write
//!   timeouts.
//!
//! Keeping the wire protocol an explicit, separately-reusable layer is
//! deliberate: multi-site replication (the §9 extension, `esr-replica`)
//! can reuse the same framing for site-to-site shipping.
//!
//! The `esr-tcpd` binary serves a fresh database over TCP; the
//! workspace example `tcp_loopback` drives it with concurrent clients
//! and reports *measured* RPC round trips and throughput.

pub mod client;
mod conn;
pub mod frame;
mod listen;
pub mod metrics;
pub mod monitor;
pub mod msg;
pub mod repl;
pub mod server;

pub use client::{NetClientConfig, TcpConnection};
pub use frame::{FrameError, FrameReader, MAX_FRAME};
pub use metrics::{render_metrics, MetricsServer};
pub use monitor::{ConformanceMonitor, MonitorConfig};
pub use msg::{ReplyBody, RequestBody, WireReply, WireRequest};
pub use repl::hub::{ReplSink, ReplicationHub};
pub use repl::replica::{ReplicaConfig, ReplicaNode};
pub use repl::serve::{ReplicaServer, READ_ONLY_ERROR};
pub use repl::{ReplFrame, ReplRequest, REPL_PROTOCOL_VERSION};
pub use server::{
    busy_retry_after_micros, is_busy_error, NetServerConfig, TcpServer, BUSY_RETRY_BASE_MICROS,
};
