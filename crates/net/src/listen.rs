//! The one accept loop and the one shutdown wake-up behind every
//! listener of this crate (`TcpServer`, `MetricsServer`,
//! `ReplicaServer`, `ReplicationHub`). What happens to an accepted
//! connection stays with each listener.

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Pause after a failed `accept()`. A persistent failure (EMFILE when
/// the fd table is full, say) would otherwise busy-spin the accept
/// thread at 100% CPU.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Call `accept` and hand every connection to `handle` until `stop` is
/// set. No accept error ends the loop: EMFILE and ECONNABORTED are
/// transient, and a listener that quietly stops listening is a wedge
/// nobody notices. `stop` is re-checked after every return of `accept`,
/// so the wake-up connection made by [`wake`] (or a late straggler) is
/// dropped unhandled. `accept` is a closure so tests can script it.
pub(crate) fn accept_until_stopped<C>(
    stop: &AtomicBool,
    mut accept: impl FnMut() -> io::Result<C>,
    mut handle: impl FnMut(C),
) {
    loop {
        let accepted = accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok(conn) => handle(conn),
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

/// The address that reaches a listener bound to `bound` from this host.
/// A wildcard bind address (0.0.0.0/::) is not connectable on every
/// platform, so it maps to the loopback of the same family with the
/// bound port.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    if !bound.ip().is_unspecified() {
        return bound;
    }
    let ip: IpAddr = if bound.is_ipv4() {
        Ipv4Addr::LOCALHOST.into()
    } else {
        Ipv6Addr::LOCALHOST.into()
    };
    SocketAddr::new(ip, bound.port())
}

/// Unblock an [`accept_until_stopped`] loop whose `stop` flag was just
/// set, with a throwaway connection. Bounded by a timeout so a failed
/// wake-up cannot hang shutdown in the connect itself.
pub(crate) fn wake(bound: SocketAddr) {
    let _ = TcpStream::connect_timeout(&wake_addr(bound), Duration::from_secs(2));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    fn accept_errors_are_retried_and_only_stop_ends_the_loop() {
        let stop = AtomicBool::new(false);
        let mut script: VecDeque<io::Result<u32>> = VecDeque::from([
            Err(io::Error::from_raw_os_error(24)), // EMFILE
            Err(io::ErrorKind::ConnectionAborted.into()),
            Ok(7),
        ]);
        let mut accepts = 0;
        let mut handled = Vec::new();
        accept_until_stopped(
            &stop,
            || {
                accepts += 1;
                // Past the script the acceptor behaves like a listener
                // woken by `wake` after shutdown set the flag.
                script
                    .pop_front()
                    .unwrap_or_else(|| Err(io::ErrorKind::ConnectionAborted.into()))
            },
            |conn| {
                handled.push(conn);
                stop.store(true, Ordering::SeqCst);
            },
        );
        assert_eq!(handled, [7], "the connection after two errors is served");
        assert_eq!(accepts, 4, "the loop ended on the first accept after stop");
    }

    #[test]
    fn a_connection_accepted_after_stop_is_not_handled() {
        let stop = AtomicBool::new(true);
        let mut handled = 0;
        accept_until_stopped(&stop, || Ok(()), |()| handled += 1);
        assert_eq!(handled, 0);
    }

    #[test]
    fn wildcard_addresses_wake_through_loopback() {
        let v4: SocketAddr = "0.0.0.0:4000".parse().unwrap();
        let v6: SocketAddr = "[::]:4000".parse().unwrap();
        let bound: SocketAddr = "192.0.2.1:4000".parse().unwrap();
        assert_eq!(wake_addr(v4), "127.0.0.1:4000".parse().unwrap());
        assert_eq!(wake_addr(v6), "[::1]:4000".parse().unwrap());
        assert_eq!(wake_addr(bound), bound);
    }
}
