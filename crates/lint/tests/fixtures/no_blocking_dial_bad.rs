//! Fixture: blocking dials on a shard path. Linted under the path
//! `crates/measurer/src/reactor.rs`, all three dials below must fire —
//! each one parks a shard thread for a handshake and stalls every
//! connection its epoll loop drives.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use flashflow_proto::tcp::TcpTransport;

pub fn dial_echo_channel(addr: SocketAddr) -> Option<TcpTransport> {
    TcpTransport::connect(addr).ok()
}

pub fn dial_raw(addr: SocketAddr) -> Option<TcpStream> {
    // Fully qualified form.
    std::net::TcpStream::connect(addr).ok()
}

pub fn dial_bounded(addr: SocketAddr) -> Option<TcpStream> {
    TcpStream::connect_timeout(&addr, Duration::from_millis(50)).ok()
}

#[cfg(test)]
mod tests {
    // Exempt: a test harness dialing a listener blocks nobody's data
    // plane.
    #[test]
    fn dials() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let _ = std::net::TcpStream::connect(listener.local_addr().unwrap());
    }
}
