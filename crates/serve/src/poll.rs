//! Hand-rolled readiness shim: `epoll` on Linux, `poll(2)` everywhere
//! else — the std-only substrate under the nonblocking server core.
//!
//! The build is offline (no mio/tokio), so the event loop talks to the
//! kernel directly through the C library entry points std already
//! links. Two backends implement the same level-triggered API:
//!
//! * **epoll** (Linux): one `epoll_create1` instance per [`Poller`];
//!   interest changes are `epoll_ctl` calls, waits are `epoll_wait`.
//!   O(ready) per wake-up, the production backend.
//! * **poll** (portable fallback): the registration table is kept in
//!   user space and rebuilt into a `pollfd` array per wait. O(fds) per
//!   wake-up, but works on every Unix and exercises the exact same
//!   caller state machines — CI runs the serve and sharding suites
//!   against it via `SKYDIVER_POLLER=poll`. It is also the cluster
//!   fan-out's fallback when the native backend cannot be created.
//!
//! Both backends are level-triggered: a readable fd stays readable
//! until drained, so a caller that processes only part of a buffer is
//! woken again instead of hanging. Tokens are caller-chosen `u64`s
//! (the server uses slab indices; the cluster fan-out uses leg
//! indices) and come back verbatim in each [`Event`].
//!
//! Nothing here owns an fd: callers keep their `TcpStream`s /
//! `TcpListener`s and must [`Poller::deregister`] before closing
//! (the epoll backend would otherwise keep a stale interest entry;
//! the poll backend would busy-wake on `POLLNVAL`).

use std::io;
use std::os::fd::RawFd;
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

/// A readiness selector over registered fds.
pub struct Poller {
    backend: Backend,
}

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll(epoll::Epoll),
    Poll(pollset::PollSet),
}

impl Poller {
    /// The platform's best backend: epoll on Linux, `poll(2)` on other
    /// Unixes. `SKYDIVER_POLLER=poll` forces the portable backend (the
    /// serve test suite runs under both).
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            if std::env::var_os("SKYDIVER_POLLER").is_some_and(|v| v == "poll") {
                return Ok(Poller::portable());
            }
            Ok(Poller {
                backend: Backend::Epoll(epoll::Epoll::new()?),
            })
        }
        #[cfg(not(target_os = "linux"))]
        {
            Ok(Poller::portable())
        }
    }

    /// The portable `poll(2)` backend, on any platform. It allocates no
    /// kernel object, so it cannot fail — the fallback when
    /// [`Poller::new`] does.
    pub fn portable() -> Poller {
        Poller {
            backend: Backend::Poll(pollset::PollSet::new()),
        }
    }

    /// Which backend this poller runs on (`"epoll"` / `"poll"`).
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(_) => "epoll",
            Backend::Poll(_) => "poll",
        }
    }

    /// Starts watching `fd` with `interest`; `token` comes back in
    /// every event for it. One registration per fd.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.ctl(epoll::EPOLL_CTL_ADD, fd, token, interest),
            Backend::Poll(p) => p.register(fd, token, interest),
        }
    }

    /// Replaces an existing registration's interest (and token).
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.ctl(epoll::EPOLL_CTL_MOD, fd, token, interest),
            Backend::Poll(p) => p.modify(fd, token, interest),
        }
    }

    /// Stops watching `fd`. Must be called before the fd is closed.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.ctl(epoll::EPOLL_CTL_DEL, fd, 0, Interest::READ),
            Backend::Poll(p) => p.deregister(fd),
        }
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// expires (`None` blocks indefinitely). Ready events are appended
    /// to `out` (which is cleared first); returns how many.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        out.clear();
        let timeout_ms: i32 = match timeout {
            // poll/epoll take int milliseconds; round up so a 100 µs
            // deadline is not treated as "return immediately".
            Some(d) => d
                .as_millis()
                .max(u128::from(!d.is_zero()))
                .min(i32::MAX as u128) as i32,
            None => -1,
        };
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.wait(out, timeout_ms),
            Backend::Poll(p) => p.wait(out, timeout_ms),
        }
    }
}

/// The C library entry points both backends stand on. std already
/// links libc, so declaring the prototypes is enough — no crate, no
/// build script.
mod ffi {
    use std::os::raw::{c_int, c_short, c_uint, c_ulong};

    /// Kernel/libc `struct epoll_event`. On x86-64 the ABI packs it
    /// (no padding between `events` and `data`); other architectures
    /// use natural alignment — mirror glibc's `__EPOLL_PACKED`.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    /// `struct pollfd` from `<poll.h>` — identical on every Unix.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    extern "C" {
        // SAFETY: prototypes transcribed from <sys/epoll.h> / <poll.h>;
        // the C library std links provides these exact symbols. All are
        // thin syscall wrappers with no callback into Rust.
        #[cfg(target_os = "linux")]
        pub fn epoll_create1(flags: c_int) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn close(fd: c_int) -> c_int;
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    pub const EPOLLIN: c_uint = 0x001;
    pub const EPOLLOUT: c_uint = 0x004;
    pub const EPOLLERR: c_uint = 0x008;
    pub const EPOLLHUP: c_uint = 0x010;
    pub const EPOLLRDHUP: c_uint = 0x2000;

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;
    pub const POLLNVAL: c_short = 0x020;
}

#[cfg(target_os = "linux")]
mod epoll {
    use super::ffi;
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;
    /// Per-wait event batch; more ready fds just surface on the next
    /// wait (level-triggered, nothing is lost).
    const MAX_EVENTS: usize = 256;

    pub struct Epoll {
        epfd: RawFd,
        buf: Vec<ffi::EpollEvent>,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes a flags int and returns a new
            // fd or -1; no pointers cross the boundary.
            let epfd = unsafe { ffi::epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll {
                epfd,
                buf: vec![ffi::EpollEvent { events: 0, data: 0 }; MAX_EVENTS],
            })
        }

        fn mask(interest: Interest) -> u32 {
            let mut m = ffi::EPOLLRDHUP;
            if interest.read {
                m |= ffi::EPOLLIN;
            }
            if interest.write {
                m |= ffi::EPOLLOUT;
            }
            m
        }

        pub fn ctl(&mut self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = ffi::EpollEvent {
                events: Self::mask(interest),
                data: token,
            };
            // SAFETY: `ev` is a live, properly laid out EpollEvent for
            // the duration of the call; the kernel copies it and keeps
            // no reference. For EPOLL_CTL_DEL the pointer is ignored
            // (we still pass a valid one for pre-2.6.9 portability).
            let rc = unsafe { ffi::epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
            // SAFETY: `buf` is MAX_EVENTS valid EpollEvents and the
            // kernel writes at most `maxevents` of them; `buf` outlives
            // the call. EINTR is retried by the caller's outer loop
            // semantics — we surface it as zero events.
            let n = unsafe {
                ffi::epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    MAX_EVENTS as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(e);
            }
            for ev in &self.buf[..n as usize] {
                // lint: allow(R2) -- O(ready fds ≤ MAX_EVENTS) copy-out
                // after the kernel wait; no I/O, no unbounded work
                // Copy out of the (possibly packed) struct before use.
                let bits = ev.events;
                let token = ev.data;
                out.push(Event {
                    token,
                    readable: bits & (ffi::EPOLLIN | ffi::EPOLLRDHUP) != 0,
                    writable: bits & ffi::EPOLLOUT != 0,
                    closed: bits & (ffi::EPOLLERR | ffi::EPOLLHUP) != 0,
                });
            }
            Ok(n as usize)
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: epfd came from epoll_create1 and is closed
            // exactly once, here.
            unsafe { ffi::close(self.epfd) };
        }
    }
}

mod pollset {
    use super::ffi;
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;

    /// User-space registration table rebuilt into a `pollfd` array per
    /// wait — O(fds) per wake-up, but dependency-free and portable.
    pub struct PollSet {
        regs: Vec<(RawFd, u64, Interest)>,
        fds: Vec<ffi::PollFd>,
    }

    impl PollSet {
        pub fn new() -> PollSet {
            PollSet {
                regs: Vec::new(),
                fds: Vec::new(),
            }
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            if self.regs.iter().any(|&(f, _, _)| f == fd) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            self.regs.push((fd, token, interest));
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            for r in &mut self.regs {
                // lint: allow(R2) -- bounded linear scan over registered fds,
                // pure memory writes; returns as soon as the entry is found.
                if r.0 == fd {
                    *r = (fd, token, interest);
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let before = self.regs.len();
            self.regs.retain(|&(f, _, _)| f != fd);
            if self.regs.len() == before {
                return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
            }
            Ok(())
        }

        pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
            self.fds.clear();
            for &(fd, _, interest) in &self.regs {
                // lint: allow(R2) -- O(registered fds) table rebuild,
                // pure memory writes; the wait below is the blocking point
                let mut events = 0i16;
                if interest.read {
                    events |= ffi::POLLIN;
                }
                if interest.write {
                    events |= ffi::POLLOUT;
                }
                self.fds.push(ffi::PollFd {
                    fd,
                    events,
                    revents: 0,
                });
            }
            // SAFETY: `fds` holds exactly `len` valid pollfd entries;
            // the kernel writes only their `revents` fields and keeps
            // no reference past the call.
            let n = unsafe {
                ffi::poll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as std::os::raw::c_ulong,
                    timeout_ms,
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(e);
            }
            for (pfd, &(_, token, _)) in self.fds.iter().zip(&self.regs) {
                // lint: allow(R2) -- O(registered fds) readiness copy-out
                // after the kernel wait; no I/O, no unbounded work
                let r = pfd.revents;
                if r == 0 {
                    continue;
                }
                out.push(Event {
                    token,
                    readable: r & (ffi::POLLIN | ffi::POLLHUP) != 0,
                    writable: r & ffi::POLLOUT != 0,
                    closed: r & (ffi::POLLERR | ffi::POLLHUP | ffi::POLLNVAL) != 0,
                });
            }
            Ok(out.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    fn backends() -> Vec<Poller> {
        let mut v = vec![Poller::portable()];
        if cfg!(target_os = "linux") {
            v.push(Poller::new().expect("native backend"));
        }
        v
    }

    #[test]
    fn readable_after_peer_writes_on_both_backends() {
        for mut poller in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let mut peer = TcpStream::connect(addr).expect("connect");
            let (sock, _) = listener.accept().expect("accept");
            sock.set_nonblocking(true).expect("nonblocking");
            poller
                .register(sock.as_raw_fd(), 7, Interest::READ)
                .expect("register");

            let mut events = Vec::new();
            // Nothing to read yet: a short wait times out empty.
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .expect("wait");
            assert!(
                events.is_empty(),
                "{}: spurious event {events:?}",
                poller.backend_name()
            );

            peer.write_all(b"ping").expect("peer write");
            poller
                .wait(&mut events, Some(Duration::from_millis(2_000)))
                .expect("wait");
            assert_eq!(events.len(), 1, "{}", poller.backend_name());
            assert_eq!(events[0].token, 7);
            assert!(events[0].readable);

            // Level-triggered: still readable until drained.
            poller
                .wait(&mut events, Some(Duration::from_millis(2_000)))
                .expect("re-wait");
            assert!(
                events.iter().any(|e| e.token == 7 && e.readable),
                "{}: level-triggered readiness must persist",
                poller.backend_name()
            );
            let mut sock = sock;
            let mut buf = [0u8; 16];
            let n = sock.read(&mut buf).expect("drain");
            assert_eq!(&buf[..n], b"ping");
            poller.deregister(sock.as_raw_fd()).expect("deregister");
        }
    }

    #[test]
    fn write_interest_and_modify() {
        for mut poller in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let peer = TcpStream::connect(addr).expect("connect");
            let (sock, _) = listener.accept().expect("accept");
            sock.set_nonblocking(true).expect("nonblocking");
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
                "{}: fresh socket must be writable",
                poller.backend_name()
            );
            // Downgrade to read interest: no events until the peer speaks.
            poller
                .modify(sock.as_raw_fd(), 2, Interest::READ)
                .expect("modify");
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .expect("wait");
            assert!(events.is_empty(), "{}", poller.backend_name());
            drop(peer); // EOF counts as readable
            poller
                .wait(&mut events, Some(Duration::from_millis(2_000)))
                .expect("wait");
            assert!(
                events.iter().any(|e| e.token == 2 && e.readable),
                "{}: EOF must surface as readable",
                poller.backend_name()
            );
            poller.deregister(sock.as_raw_fd()).expect("deregister");
        }
    }

    #[test]
    fn double_register_and_missing_deregister_error_on_pollset() {
        let mut p = Poller::portable();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let fd = listener.as_raw_fd();
        p.register(fd, 0, Interest::READ).expect("register");
        assert!(p.register(fd, 1, Interest::READ).is_err());
        p.deregister(fd).expect("deregister");
        assert!(p.deregister(fd).is_err());
        assert!(p.modify(fd, 0, Interest::READ).is_err());
    }
}
