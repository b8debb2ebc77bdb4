//! What a connection costs in threads. A test binary of its own: the
//! count is the whole process's, and tests of one binary share it.
#![cfg(target_os = "linux")]

use esr_net::{TcpConnection, TcpServer};
use esr_server::{Server, ServerConfig};
use esr_storage::catalog::CatalogConfig;
use esr_tso::Kernel;

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

#[test]
fn an_idle_connection_costs_one_thread() {
    const CONNECTIONS: usize = 32;
    let table = CatalogConfig::default().build_with_values(&[1]);
    let server = Server::start(Kernel::with_defaults(table), ServerConfig::default());
    let tcp = TcpServer::bind(server, "127.0.0.1:0").expect("bind loopback");
    let before = threads();
    // A connection whose handshake was answered has its thread, and the
    // client side starts none.
    let clients: Vec<TcpConnection> = (0..CONNECTIONS)
        .map(|_| TcpConnection::connect(tcp.local_addr()).expect("connect"))
        .collect();
    assert_eq!(threads() - before, CONNECTIONS);
    drop(clients);
}
