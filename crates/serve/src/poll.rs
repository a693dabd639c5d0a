//! Hand-rolled readiness shim over `poll(2)` — the std-only substrate
//! under the nonblocking server core and the cluster fan-out.
//!
//! The build is offline (no mio/tokio), so the event loop talks to the
//! kernel directly through the C library's `poll` entry point, which
//! std already links. A [`Poller`] keeps one persistent `pollfd` array
//! plus a parallel token vector: interest changes edit the array in
//! place and a wait hands it to the kernel as is. The cost is
//! O(registered fds) per wake-up; every loop here watches a handful of
//! sockets, so that scan never shows.
//!
//! Readiness is level-triggered: a readable fd stays readable until
//! drained, so a caller that processes only part of a buffer is woken
//! again instead of hanging. Tokens are caller-chosen `u64`s (the
//! server uses slab indices; the cluster fan-out uses leg indices) and
//! come back verbatim in each [`Event`].
//!
//! Nothing here owns an fd: callers keep their `TcpStream`s /
//! `TcpListener`s and must [`Poller::deregister`] before closing (a
//! closed fd left in the array would busy-wake on `POLLNVAL`).

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_short, c_ulong};
use std::time::Duration;

/// What a registration wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Write-only interest.
    pub const WRITE: Interest = Interest {
        read: false,
        write: true,
    };
    /// Read + write interest.
    pub const BOTH: Interest = Interest {
        read: true,
        write: true,
    };

    fn events(self) -> c_short {
        let mut events = 0;
        if self.read {
            events |= POLLIN;
        }
        if self.write {
            events |= POLLOUT;
        }
        events
    }
}

/// One readiness notification.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd has bytes to read (or EOF to observe).
    pub readable: bool,
    /// The fd can accept bytes.
    pub writable: bool,
    /// Error or hang-up: the connection is dead either way, and a
    /// read will surface the exact condition.
    pub closed: bool,
}

/// `struct pollfd` from `<poll.h>` — identical on every Unix.
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;
const POLLNVAL: c_short = 0x020;

extern "C" {
    // Prototype transcribed from <poll.h>; the C library std links
    // provides this exact symbol, a thin syscall wrapper with no
    // callback into Rust.
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// A readiness selector over registered fds: `fds[i]` is registered
/// with `tokens[i]`.
#[derive(Default)]
pub struct Poller {
    fds: Vec<PollFd>,
    tokens: Vec<u64>,
}

impl Poller {
    /// An empty poller. It creates no kernel object, so it cannot fail.
    pub fn new() -> Poller {
        Poller::default()
    }

    fn slot(&self, fd: RawFd) -> Option<usize> {
        self.fds.iter().position(|p| p.fd == fd)
    }

    fn not_registered() -> io::Error {
        io::Error::new(io::ErrorKind::NotFound, "fd not registered")
    }

    /// Starts watching `fd` with `interest`; `token` comes back in
    /// every event for it. One registration per fd.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        if self.slot(fd).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        self.fds.push(PollFd {
            fd,
            events: interest.events(),
            revents: 0,
        });
        self.tokens.push(token);
        Ok(())
    }

    /// Replaces an existing registration's interest (and token).
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let i = self.slot(fd).ok_or_else(Poller::not_registered)?;
        self.fds[i].events = interest.events();
        self.tokens[i] = token;
        Ok(())
    }

    /// Stops watching `fd`. Must be called before the fd is closed.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let i = self.slot(fd).ok_or_else(Poller::not_registered)?;
        self.fds.swap_remove(i);
        self.tokens.swap_remove(i);
        Ok(())
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// expires (`None` blocks indefinitely). Ready events are appended
    /// to `out` (which is cleared first); returns how many. An
    /// interrupted wait (EINTR) returns zero events.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        out.clear();
        let timeout_ms: c_int = match timeout {
            // poll takes int milliseconds; round up so a 100 µs
            // deadline is not treated as "return immediately".
            Some(d) => d
                .as_millis()
                .max(u128::from(!d.is_zero()))
                .min(c_int::MAX as u128) as c_int,
            None => -1,
        };
        // SAFETY: `fds` holds exactly `len` valid pollfd entries; the
        // kernel writes only their `revents` fields and keeps no
        // reference past the call.
        let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as c_ulong, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        for (pfd, &token) in self.fds.iter().zip(&self.tokens) {
            // lint: allow(R2) -- O(registered fds) readiness copy-out
            // after the kernel wait; no I/O, no unbounded work
            let r = pfd.revents;
            if r == 0 {
                continue;
            }
            out.push(Event {
                token,
                readable: r & (POLLIN | POLLHUP) != 0,
                writable: r & POLLOUT != 0,
                closed: r & (POLLERR | POLLHUP | POLLNVAL) != 0,
            });
        }
        Ok(out.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    /// A connected (peer, accepted nonblocking socket) pair.
    fn pair(listener: &TcpListener) -> (TcpStream, TcpStream) {
        let peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (sock, _) = listener.accept().expect("accept");
        sock.set_nonblocking(true).expect("nonblocking");
        (peer, sock)
    }

    #[test]
    fn readable_after_peer_writes() {
        let mut poller = Poller::new();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let (mut peer, mut sock) = pair(&listener);
        poller
            .register(sock.as_raw_fd(), 7, Interest::READ)
            .expect("register");

        let mut events = Vec::new();
        // Nothing to read yet: a short wait times out empty.
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .expect("wait");
        assert!(events.is_empty(), "spurious event {events:?}");

        peer.write_all(b"ping").expect("peer write");
        poller
            .wait(&mut events, Some(Duration::from_millis(2_000)))
            .expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Level-triggered: still readable until drained.
        poller
            .wait(&mut events, Some(Duration::from_millis(2_000)))
            .expect("re-wait");
        assert!(
            events.iter().any(|e| e.token == 7 && e.readable),
            "level-triggered readiness must persist"
        );
        let mut buf = [0u8; 16];
        let n = sock.read(&mut buf).expect("drain");
        assert_eq!(&buf[..n], b"ping");
        poller.deregister(sock.as_raw_fd()).expect("deregister");
    }

    #[test]
    fn write_interest_and_modify() {
        let mut poller = Poller::new();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let (peer, sock) = pair(&listener);
        // A fresh socket with an empty send buffer is writable.
        poller
            .register(sock.as_raw_fd(), 1, Interest::WRITE)
            .expect("register");
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(2_000)))
            .expect("wait");
        assert!(
            events.iter().any(|e| e.token == 1 && e.writable),
            "fresh socket must be writable"
        );
        // Downgrade to read interest: no events until the peer speaks.
        poller
            .modify(sock.as_raw_fd(), 2, Interest::READ)
            .expect("modify");
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .expect("wait");
        assert!(events.is_empty(), "{events:?}");
        drop(peer); // EOF counts as readable
        poller
            .wait(&mut events, Some(Duration::from_millis(2_000)))
            .expect("wait");
        assert!(
            events.iter().any(|e| e.token == 2 && e.readable),
            "EOF must surface as readable"
        );
        poller.deregister(sock.as_raw_fd()).expect("deregister");
    }

    #[test]
    fn deregister_then_modify_keeps_each_token_on_its_own_fd() {
        let mut poller = Poller::new();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let (mut peer_a, sock_a) = pair(&listener);
        let (mut peer_b, sock_b) = pair(&listener);
        let (mut peer_c, sock_c) = pair(&listener);
        poller
            .register(sock_a.as_raw_fd(), 10, Interest::READ)
            .expect("register a");
        poller
            .register(sock_b.as_raw_fd(), 20, Interest::READ)
            .expect("register b");
        poller
            .register(sock_c.as_raw_fd(), 30, Interest::READ)
            .expect("register c");
        // Removing the middle entry moves the last one; its token must
        // move with it, and a later modify must find it by fd.
        poller.deregister(sock_b.as_raw_fd()).expect("deregister b");
        poller
            .modify(sock_c.as_raw_fd(), 33, Interest::BOTH)
            .expect("modify c");

        // `c` is writable at once and only `c` asked for write.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(2_000)))
            .expect("wait");
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].token, 33);
        assert!(events[0].writable && !events[0].readable);

        // Every peer speaks; `b` is no longer watched.
        peer_a.write_all(b"a").expect("write a");
        peer_b.write_all(b"b").expect("write b");
        peer_c.write_all(b"c").expect("write c");
        let want = |events: &[Event]| {
            events.iter().any(|e| e.token == 10 && e.readable && !e.writable)
                && events.iter().any(|e| e.token == 33 && e.readable && e.writable)
        };
        let give_up = std::time::Instant::now() + Duration::from_secs(2);
        while !want(&events) && std::time::Instant::now() < give_up {
            poller
                .wait(&mut events, Some(Duration::from_millis(200)))
                .expect("wait");
        }
        assert!(want(&events), "{events:?}");
        assert_eq!(events.len(), 2, "{events:?}");

        assert!(poller.modify(sock_b.as_raw_fd(), 20, Interest::READ).is_err());
        poller.deregister(sock_a.as_raw_fd()).expect("deregister a");
        poller.deregister(sock_c.as_raw_fd()).expect("deregister c");
    }

    #[test]
    fn double_register_and_missing_deregister_error_on_pollset() {
        let mut p = Poller::new();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let fd = listener.as_raw_fd();
        p.register(fd, 0, Interest::READ).expect("register");
        assert!(p.register(fd, 1, Interest::READ).is_err());
        p.deregister(fd).expect("deregister");
        assert!(p.deregister(fd).is_err());
        assert!(p.modify(fd, 0, Interest::READ).is_err());
    }
}
