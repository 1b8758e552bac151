//! Fixture: a shard path that dials correctly. Linted under the path
//! `crates/measurer/src/reactor.rs` and must produce zero findings —
//! the dial starts without blocking and finishes on write readiness;
//! nothing else named `connect` is a TCP handshake.

use std::io;
use std::net::{SocketAddr, TcpStream};

use flashflow_procutil::reactor;

pub struct Channel {
    stream: TcpStream,
    connected: bool,
}

impl Channel {
    pub fn dial(addr: SocketAddr) -> io::Result<Channel> {
        Ok(Channel { stream: reactor::dial(addr)?, connected: false })
    }

    /// On write readiness: has the handshake settled?
    pub fn on_ready(&mut self) -> io::Result<bool> {
        self.connected = reactor::dialed(&self.stream)?;
        Ok(self.connected)
    }
}

/// A local function named `connect` is not a TCP dial.
pub fn connect(channel: &mut Channel) -> io::Result<bool> {
    channel.on_ready()
}
