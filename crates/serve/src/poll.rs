//! A hand-rolled readiness-polling layer for the event-loop server.
//!
//! The build environment has no package registry, so the server cannot pull
//! in mio/tokio — the same constraint that made the workspace hand-roll its
//! serde shims and HTTP layer. This module wraps the two syscall families
//! the event loop needs behind one [`Poller`] type:
//!
//! * **`epoll` on Linux** — O(ready) readiness delivery, so ten thousand
//!   idle keep-alive connections cost nothing per wakeup.
//! * **`poll(2)` everywhere else on Unix** — O(registered) per wait, but
//!   portable. The unit tests build it on Linux too, through
//!   [`Poller::new_poll_fallback`], so both backends are exercised.
//!
//! Both backends are level-triggered: an event keeps firing until the
//! condition is consumed, so the loop never needs the re-arm bookkeeping of
//! edge-triggered notification.
//!
//! The poller owns a **self-pipe [`Waker`]**: a nonblocking pipe whose read
//! end is registered like any other descriptor. Any thread holding a waker
//! clone can interrupt a blocked [`Poller::wait`] with one `write(2)` —
//! this is how shutdown and handler-pool completions nudge the event loop,
//! replacing the old "dial a throwaway TCP connection at ourselves" hack.
//!
//! This is the one module in the crate allowed to use `unsafe`: the raw
//! syscall bindings are confined here behind a safe API, and the crate root
//! holds the line with `#![deny(unsafe_code)]`.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::{AsRawFd, OwnedFd, RawFd};
use std::sync::Arc;
use std::time::Duration;

/// The token [`Poller::wait`] reports when the built-in [`Waker`] fired.
pub const WAKER_TOKEN: u64 = u64::MAX;

/// Which readiness conditions a registered descriptor is watched for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the descriptor is writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only (the steady state of a parked keep-alive connection).
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only (a connection draining its response backlog; reads are
    /// paused so a pipelining peer gets TCP backpressure instead of
    /// unbounded server-side buffering).
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered with ([`WAKER_TOKEN`] for
    /// the self-pipe).
    pub token: u64,
    /// Reading will not block: data, EOF, or a pending socket error.
    pub readable: bool,
    /// Writing will not block.
    pub writable: bool,
    /// The peer hung up or the descriptor is in an error state; the
    /// connection is done once any readable data is drained.
    pub closed: bool,
}

/// Raw syscall bindings. Everything below is `unsafe` FFI; the rest of the
/// module wraps it in owned-descriptor types so no raw fd outlives its
/// owner.
mod sys {
    #[cfg(not(target_os = "linux"))]
    use std::ffi::c_uint;
    #[cfg(target_os = "linux")]
    use std::ffi::c_ulong;
    use std::ffi::{c_int, c_short, c_void};
    use std::io;
    use std::os::fd::{FromRawFd, OwnedFd, RawFd};

    // `epoll_event` carries a 32-bit mask and 64-bit user data. On x86-64
    // the kernel ABI packs the struct (no padding between the fields);
    // everywhere else it is laid out naturally.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy, Default)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    #[cfg(target_os = "linux")]
    const EPOLL_CLOEXEC: c_int = 0o2000000;

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;
    pub const POLLNVAL: c_short = 0x020;

    const F_GETFL: c_int = 3;
    const F_SETFL: c_int = 4;
    #[cfg(target_os = "linux")]
    const O_NONBLOCK: c_int = 0o4000;
    #[cfg(not(target_os = "linux"))]
    const O_NONBLOCK: c_int = 0x0004;
    #[cfg(target_os = "linux")]
    const RLIMIT_NOFILE: c_int = 7;
    #[cfg(not(target_os = "linux"))]
    const RLIMIT_NOFILE: c_int = 8;

    #[cfg(target_os = "linux")]
    type NFds = c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NFds = c_uint;

    extern "C" {
        #[cfg(target_os = "linux")]
        fn epoll_create1(flags: c_int) -> c_int;
        #[cfg(target_os = "linux")]
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        #[cfg(target_os = "linux")]
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
        fn pipe(fds: *mut c_int) -> c_int;
        fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    }

    fn check(result: c_int) -> io::Result<c_int> {
        if result < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(result)
        }
    }

    /// Create the epoll instance as an owned descriptor.
    #[cfg(target_os = "linux")]
    pub fn epoll_create() -> io::Result<OwnedFd> {
        let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: `epoll_create1` returned a fresh descriptor we own.
        Ok(unsafe { OwnedFd::from_raw_fd(fd) })
    }

    #[cfg(target_os = "linux")]
    pub fn epoll_control(
        epfd: RawFd,
        op: c_int,
        fd: RawFd,
        events: u32,
        data: u64,
    ) -> io::Result<()> {
        let mut event = EpollEvent { events, data };
        // SAFETY: `event` outlives the call; the kernel copies it.
        check(unsafe { epoll_ctl(epfd, op, fd, &mut event) }).map(|_| ())
    }

    /// Wait for events; returns how many entries of `events` were filled.
    #[cfg(target_os = "linux")]
    pub fn epoll_wait_on(
        epfd: RawFd,
        events: &mut [EpollEvent],
        timeout_ms: c_int,
    ) -> io::Result<usize> {
        // SAFETY: the buffer pointer/length describe a live mutable slice.
        let n = check(unsafe {
            epoll_wait(epfd, events.as_mut_ptr(), events.len() as c_int, timeout_ms)
        })?;
        Ok(n as usize)
    }

    /// `poll(2)` over a caller-built descriptor set; returns the number of
    /// descriptors with events.
    pub fn poll_on(fds: &mut [PollFd], timeout_ms: c_int) -> io::Result<usize> {
        // SAFETY: the buffer pointer/length describe a live mutable slice.
        let n = check(unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, timeout_ms) })?;
        Ok(n as usize)
    }

    /// A nonblocking anonymous pipe as `(read end, write end)`.
    pub fn nonblocking_pipe() -> io::Result<(OwnedFd, OwnedFd)> {
        let mut fds = [0 as c_int; 2];
        // SAFETY: `fds` is a live two-element buffer for the syscall.
        check(unsafe { pipe(fds.as_mut_ptr()) })?;
        // SAFETY: `pipe` returned two fresh descriptors we own.
        let (r, w) = unsafe { (OwnedFd::from_raw_fd(fds[0]), OwnedFd::from_raw_fd(fds[1])) };
        for fd in [fds[0], fds[1]] {
            // SAFETY: plain fcntl flag read/update on descriptors we own.
            let flags = check(unsafe { fcntl(fd, F_GETFL) })?;
            check(unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) })?;
        }
        Ok((r, w))
    }

    /// Write one byte; `Ok(false)` when the pipe is full (a wake-up is
    /// already pending, which is all the caller wanted).
    pub fn write_byte(fd: RawFd) -> io::Result<bool> {
        let byte = 1u8;
        // SAFETY: one-byte write from a live stack buffer.
        let n = unsafe { write(fd, (&raw const byte).cast(), 1) };
        if n == 1 {
            return Ok(true);
        }
        let error = io::Error::last_os_error();
        match error.kind() {
            io::ErrorKind::WouldBlock => Ok(false),
            io::ErrorKind::Interrupted => Ok(false),
            _ => Err(error),
        }
    }

    /// Drain every pending byte from a nonblocking pipe's read end.
    pub fn drain(fd: RawFd) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: reads into a live stack buffer of the stated length.
            let n = unsafe { read(fd, buf.as_mut_ptr().cast(), buf.len()) };
            if n <= 0 {
                return;
            }
        }
    }

    /// The process's `RLIMIT_NOFILE` as `(soft, hard)`.
    pub fn nofile_limit() -> Option<(u64, u64)> {
        let mut limit = RLimit { cur: 0, max: 0 };
        // SAFETY: `limit` is a live out-parameter for the syscall.
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut limit) } == 0 {
            Some((limit.cur, limit.max))
        } else {
            None
        }
    }
}

/// The process's open-file-descriptor limit as `(soft, hard)`, when the
/// platform exposes it. File descriptors are the event-loop server's only
/// per-connection resource, so benches and tests use this to size
/// connection floods to what the environment allows.
pub fn nofile_limit() -> Option<(u64, u64)> {
    sys::nofile_limit()
}

/// A cloneable handle that interrupts a blocked [`Poller::wait`] from any
/// thread (self-pipe pattern: one nonblocking `write(2)` on the pipe's
/// write end; a full pipe already has a wake-up pending and counts as
/// success).
#[derive(Debug, Clone)]
pub struct Waker {
    pipe_write: Arc<OwnedFd>,
}

impl Waker {
    /// Nudge the poller awake. Infallible by design: the only non-success
    /// case that matters (pipe full) means a wake-up is already queued.
    pub fn wake(&self) {
        let _ = sys::write_byte(self.pipe_write.as_raw_fd());
    }
}

/// Backend selection for [`Poller::new`].
enum Backend {
    /// Linux `epoll`: readiness delivery costs O(ready events).
    #[cfg(target_os = "linux")]
    Epoll {
        epfd: OwnedFd,
        /// Reusable kernel-event buffer for `epoll_wait`.
        events: Vec<sys::EpollEvent>,
    },
    /// Portable `poll(2)`: the registration list is rebuilt into a
    /// `pollfd` array per wait — O(registered), fine as a fallback.
    Poll { entries: Vec<PollEntry> },
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            #[cfg(target_os = "linux")]
            Backend::Epoll { .. } => "epoll",
            Backend::Poll { .. } => "poll",
        })
    }
}

#[derive(Debug, Clone, Copy)]
struct PollEntry {
    fd: RawFd,
    token: u64,
    interest: Interest,
}

/// A readiness poller over registered file descriptors, with a built-in
/// self-pipe waker. See the module docs for backend selection.
#[derive(Debug)]
pub struct Poller {
    backend: Backend,
    pipe_read: OwnedFd,
    waker: Waker,
}

fn interest_epoll_mask(interest: Interest) -> u32 {
    let mut mask = sys::EPOLLRDHUP;
    if interest.readable {
        mask |= sys::EPOLLIN;
    }
    if interest.writable {
        mask |= sys::EPOLLOUT;
    }
    mask
}

fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        // Round sub-millisecond timeouts up so a short deadline never
        // degenerates into a busy spin.
        Some(t) => t.as_millis().clamp(1, i32::MAX as u128) as i32,
        None => -1,
    }
}

impl Poller {
    /// A poller on the platform's best backend: `epoll` on Linux,
    /// `poll(2)` elsewhere.
    ///
    /// # Errors
    ///
    /// Propagates backend-creation and self-pipe syscall failures.
    pub fn new() -> io::Result<Self> {
        #[cfg(target_os = "linux")]
        let backend = Backend::Epoll {
            epfd: sys::epoll_create()?,
            events: vec![sys::EpollEvent::default(); 1024],
        };
        #[cfg(not(target_os = "linux"))]
        let backend = Backend::Poll {
            entries: Vec::new(),
        };
        Self::with_backend(backend)
    }

    /// A poller on the portable `poll(2)` backend, regardless of platform
    /// (unit tests cover both backends on Linux through this).
    ///
    /// # Errors
    ///
    /// Propagates self-pipe syscall failures.
    pub fn new_poll_fallback() -> io::Result<Self> {
        Self::with_backend(Backend::Poll {
            entries: Vec::new(),
        })
    }

    fn with_backend(backend: Backend) -> io::Result<Self> {
        let (pipe_read, pipe_write) = sys::nonblocking_pipe()?;
        let mut poller = Poller {
            backend,
            pipe_read,
            waker: Waker {
                pipe_write: Arc::new(pipe_write),
            },
        };
        poller.register(poller.pipe_read.as_raw_fd(), WAKER_TOKEN, Interest::READ)?;
        Ok(poller)
    }

    /// The backend in use (`"epoll"` or `"poll"`), for banners and tests.
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { .. } => "epoll",
            Backend::Poll { .. } => "poll",
        }
    }

    /// A cloneable waker for this poller.
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Start watching `fd`; events report back with `token`. The caller
    /// keeps the descriptor open for as long as it is registered.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures (the `poll` backend cannot fail).
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, .. } => sys::epoll_control(
                epfd.as_raw_fd(),
                sys::EPOLL_CTL_ADD,
                fd,
                interest_epoll_mask(interest),
                token,
            ),
            Backend::Poll { entries } => {
                entries.push(PollEntry {
                    fd,
                    token,
                    interest,
                });
                Ok(())
            }
        }
    }

    /// Change the interest set (and token) of a registered descriptor.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures; the `poll` backend reports an
    /// unregistered descriptor as [`io::ErrorKind::NotFound`].
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, .. } => sys::epoll_control(
                epfd.as_raw_fd(),
                sys::EPOLL_CTL_MOD,
                fd,
                interest_epoll_mask(interest),
                token,
            ),
            Backend::Poll { entries } => {
                let entry = entries
                    .iter_mut()
                    .find(|entry| entry.fd == fd)
                    .ok_or_else(|| io::Error::from(io::ErrorKind::NotFound))?;
                entry.token = token;
                entry.interest = interest;
                Ok(())
            }
        }
    }

    /// Stop watching `fd`. Must happen before the descriptor is closed or
    /// handed to a blocking handler thread.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures (the `poll` backend cannot fail).
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, .. } => {
                sys::epoll_control(epfd.as_raw_fd(), sys::EPOLL_CTL_DEL, fd, 0, 0)
            }
            Backend::Poll { entries } => {
                entries.retain(|entry| entry.fd != fd);
                Ok(())
            }
        }
    }

    /// Block until at least one registered descriptor is ready, the waker
    /// fires, or `timeout` expires (`None` waits indefinitely). Events are
    /// appended to `out` (cleared first); a timeout or signal interruption
    /// returns `Ok` with `out` empty. Waker bytes are drained here, so one
    /// [`Event`] with [`WAKER_TOKEN`] coalesces any number of `wake` calls.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait`/`poll` failures other than `EINTR`.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        let timeout = timeout_ms(timeout);
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, events } => {
                let filled = match sys::epoll_wait_on(epfd.as_raw_fd(), events, timeout) {
                    Ok(filled) => filled,
                    Err(error) if error.kind() == io::ErrorKind::Interrupted => 0,
                    Err(error) => return Err(error),
                };
                for event in &events[..filled] {
                    let mask = event.events;
                    out.push(Event {
                        token: event.data,
                        readable: mask & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                        writable: mask & sys::EPOLLOUT != 0,
                        closed: mask & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                    });
                }
                // Readiness overflow (more ready fds than the buffer holds)
                // is not lost: level-triggered epoll re-reports the
                // remainder on the next wait.
            }
            Backend::Poll { entries } => {
                let mut fds: Vec<sys::PollFd> = entries
                    .iter()
                    .map(|entry| {
                        let mut events = 0;
                        if entry.interest.readable {
                            events |= sys::POLLIN;
                        }
                        if entry.interest.writable {
                            events |= sys::POLLOUT;
                        }
                        sys::PollFd {
                            fd: entry.fd,
                            events,
                            revents: 0,
                        }
                    })
                    .collect();
                match sys::poll_on(&mut fds, timeout) {
                    Ok(_) => {}
                    Err(error) if error.kind() == io::ErrorKind::Interrupted => return Ok(()),
                    Err(error) => return Err(error),
                }
                for (entry, fd) in entries.iter().zip(&fds) {
                    let revents = fd.revents;
                    if revents == 0 {
                        continue;
                    }
                    out.push(Event {
                        token: entry.token,
                        readable: revents & (sys::POLLIN | sys::POLLHUP) != 0,
                        writable: revents & sys::POLLOUT != 0,
                        closed: revents & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0,
                    });
                }
            }
        }
        if out.iter().any(|event| event.token == WAKER_TOKEN) {
            sys::drain(self.pipe_read.as_raw_fd());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    fn both_backends() -> Vec<Poller> {
        let fallback = Poller::new_poll_fallback().unwrap();
        assert_eq!(fallback.backend_name(), "poll");
        // The platform default: epoll on Linux, poll(2) elsewhere.
        vec![fallback, Poller::new().unwrap()]
    }

    #[test]
    fn readiness_and_interest_changes_on_both_backends() {
        for mut poller in both_backends() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();
            poller
                .register(server.as_raw_fd(), 7, Interest::READ)
                .unwrap();

            // Nothing to read yet: the wait times out empty.
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.iter().all(|event| event.token != 7));

            // Bytes arrive: readable fires with our token.
            client.write_all(b"ping").unwrap();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            let event = events.iter().find(|event| event.token == 7).unwrap();
            assert!(event.readable && !event.writable);

            // Level-triggered: unconsumed input keeps firing.
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(events.iter().any(|event| event.token == 7));

            // Switch to write interest: an idle socket is instantly
            // writable, and the pending readable no longer reports.
            poller
                .modify(server.as_raw_fd(), 9, Interest::WRITE)
                .unwrap();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            let event = events.iter().find(|event| event.token == 9).unwrap();
            assert!(event.writable && !event.readable);
            assert!(events.iter().all(|event| event.token != 7));

            poller.deregister(server.as_raw_fd()).unwrap();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{:?}", poller.backend_name());
        }
    }

    #[test]
    fn peer_hangup_reports_closed() {
        for mut poller in both_backends() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();
            poller
                .register(server.as_raw_fd(), 3, Interest::READ)
                .unwrap();
            drop(client);
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            let event = events.iter().find(|event| event.token == 3).unwrap();
            assert!(
                event.closed || event.readable,
                "hangup must surface as closed or readable-EOF"
            );
            poller.deregister(server.as_raw_fd()).unwrap();
        }
    }

    #[test]
    fn waker_wakes_coalesce_into_one_event() {
        for mut poller in both_backends() {
            // All three wakes land before the wait, so they are pending
            // together when it drains the pipe.
            let waker = poller.waker();
            waker.wake();
            waker.wake();
            waker.wake();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            let wakes = events
                .iter()
                .filter(|event| event.token == WAKER_TOKEN)
                .count();
            assert_eq!(wakes, 1, "{}", poller.backend_name());

            // Drained: the next wait times out with no waker event.
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{}", poller.backend_name());
        }
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        for mut poller in both_backends() {
            let waker = poller.waker();
            let handle = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                waker.wake();
            });
            let mut events = Vec::new();
            let started = std::time::Instant::now();
            poller
                .wait(&mut events, Some(Duration::from_secs(30)))
                .unwrap();
            assert!(started.elapsed() < Duration::from_secs(10));
            assert!(events.iter().any(|event| event.token == WAKER_TOKEN));
            handle.join().unwrap();
        }
    }

    #[test]
    fn nofile_limit_reports_something_sane() {
        let (soft, hard) = nofile_limit().expect("unix exposes RLIMIT_NOFILE");
        assert!(soft >= 64, "soft fd limit {soft} too small to serve");
        assert!(hard >= soft);
    }
}
