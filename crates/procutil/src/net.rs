//! Listener construction for restartable serving processes.
//!
//! [`listen_reuseaddr`] is `TcpListener::bind` with `SO_REUSEADDR` set
//! before the bind. The difference matters exactly once in a process's
//! life: when it is a **replacement**. A killed peer's accepted
//! connections linger in `TIME_WAIT` on its listen port for minutes,
//! and a plain `bind(2)` of the same port fails with `EADDRINUSE`
//! until they age out — so a supervisor restarting `flashflow-relay`
//! or `flashflow-measurer` on its configured `--listen` address would
//! flap. `SO_REUSEADDR` lets the replacement bind immediately while
//! still refusing a port another *live* listener holds.
//!
//! `std` offers no hook between `socket(2)` and `bind(2)`, and
//! crates.io is unreachable, so the socket is built with the raw
//! syscalls (the [`crate::reactor`] layer's `socket`, `close` and
//! address encoder, which its nonblocking `dial` uses) and then handed
//! to `TcpListener` via `FromRawFd`.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::fd::FromRawFd;

use crate::reactor::{close, family, sockaddr, socket, SOCK_CLOEXEC, SOCK_STREAM};

// SAFETY: the exact libc prototypes on every Linux we target (see
// `setsockopt(2)`, `bind(2)`, `listen(2)`): integer fds, pointer +
// length option/address buffers, C `int` returns with errno. `bind`'s
// address is a `struct sockaddr_in` / `sockaddr_in6` byte image whose
// length travels with it.
extern "C" {
    fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const u8, optlen: u32) -> i32;
    fn bind(fd: i32, addr: *const u8, addrlen: u32) -> i32;
    fn listen(fd: i32, backlog: i32) -> i32;
}

const SOL_SOCKET: i32 = 1;
const SO_REUSEADDR: i32 = 2;

/// Binds a listening socket with `SO_REUSEADDR`, so a restarted process
/// can re-take its configured port while the previous incarnation's
/// connections are still in `TIME_WAIT`.
///
/// `addr` resolves like `TcpListener::bind`'s argument; the resolved
/// addresses are tried in order and the first that binds is used.
///
/// # Errors
/// Address resolution and any of the underlying syscalls.
pub fn listen_reuseaddr<A: ToSocketAddrs>(addr: A) -> io::Result<TcpListener> {
    let mut last_err = None;
    for resolved in addr.to_socket_addrs()? {
        match listen_on(resolved) {
            Ok(l) => return Ok(l),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
    }))
}

fn listen_on(addr: SocketAddr) -> io::Result<TcpListener> {
    // SAFETY: plain syscalls on a socket this function owns end to
    // end; on any failure the fd is closed before the error returns,
    // and on success its ownership moves into the `TcpListener`. The
    // address buffer is a live stack array of at least `len` bytes.
    unsafe {
        let fd = socket(family(addr), SOCK_STREAM | SOCK_CLOEXEC, 0);
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let fail = |fd: i32| -> io::Error {
            let err = io::Error::last_os_error();
            close(fd);
            err
        };
        let one: i32 = 1;
        if setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, std::ptr::addr_of!(one).cast::<u8>(), 4) != 0 {
            return Err(fail(fd));
        }
        let (raw, len) = sockaddr(addr);
        if bind(fd, raw.as_ptr(), len) != 0 {
            return Err(fail(fd));
        }
        if listen(fd, 1024) != 0 {
            return Err(fail(fd));
        }
        Ok(TcpListener::from_raw_fd(fd))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;

    #[test]
    fn listener_accepts_and_reports_its_bound_address() {
        let listener = listen_reuseaddr("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        assert!(addr.port() != 0, "ephemeral port must be resolved");
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(b"hi").expect("send");
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let mut buf = [0u8; 2];
        conn.read_exact(&mut buf).expect("recv");
        assert_eq!(&buf, b"hi");
        client.join().expect("client thread");
    }

    #[test]
    fn an_ipv6_address_binds_through_the_same_encoder() {
        // Only where the host has IPv6 loopback at all.
        if std::net::TcpListener::bind("[::1]:0").is_err() {
            return;
        }
        let listener = listen_reuseaddr("[::1]:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        assert!(addr.is_ipv6() && addr.port() != 0, "{addr}");
        let _client = TcpStream::connect(addr).expect("connect");
        listener.accept().expect("accept");
    }

    #[test]
    fn port_can_be_retaken_immediately_after_the_previous_listener_dies() {
        // Manufacture the restart hazard: the first listener's accepted
        // connection is closed server-side first, parking a TIME_WAIT
        // entry on the listen port; a replacement must still bind.
        let first = listen_reuseaddr("127.0.0.1:0").expect("first bind");
        let addr = first.local_addr().expect("local addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (conn, _) = first.accept().expect("accept");
        drop(conn); // server closes first: TIME_WAIT lands on our port
        drop(client);
        drop(first);
        let second = listen_reuseaddr(addr).expect("rebind the same port");
        assert_eq!(second.local_addr().expect("addr").port(), addr.port());
    }
}
