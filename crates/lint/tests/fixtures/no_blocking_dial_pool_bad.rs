//! Fixture: a connection pool whose fresh-dial path blocks. Linted under
//! `crates/core/src/pool.rs`, both dials below must fire: the round
//! thread that checks a connection out would wait for the handshake —
//! and, while the next round is staged, the round that is blasting
//! would wait with it.

use std::net::{SocketAddr, TcpStream};

use flashflow_proto::tcp::TcpTransport;

pub struct Pool {
    idle: Vec<TcpTransport>,
}

impl Pool {
    pub fn checkout(&mut self, addr: SocketAddr) -> std::io::Result<TcpTransport> {
        match self.idle.pop() {
            Some(warm) => Ok(warm),
            None => TcpTransport::connect(addr),
        }
    }

    pub fn checkout_raw(&mut self, addr: SocketAddr) -> std::io::Result<TcpTransport> {
        TcpTransport::from_stream(TcpStream::connect(addr)?)
    }
}

#[cfg(test)]
mod tests {
    // Exempt: a test dialing its own listener stalls no round.
    #[test]
    fn dials() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let _ = std::net::TcpStream::connect(listener.local_addr().unwrap());
    }
}
