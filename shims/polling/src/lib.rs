//! Offline shim for the `polling` crate: OS readiness notification with
//! **no external dependencies**.
//!
//! The backbone's event-loop transport (`backbone::net`) needs three
//! primitives the standard library does not expose:
//!
//! * a **readiness poller** — "tell me which of these sockets can make
//!   progress" — built on `epoll(7)` on Linux and on portable `poll(2)`
//!   elsewhere (and available on Linux too, as the differential test
//!   target for the fallback);
//! * a **waker** — a file descriptor another thread can poke to pull a
//!   blocked `wait` out of the kernel — an `eventfd(2)` on Linux, a
//!   nonblocking pipe elsewhere;
//! * an **`RLIMIT_NOFILE` raiser**, because holding 100k sockets open
//!   needs more than the default 1024-fd budget.
//!
//! The workspace's `unsafe` lives in two shims (every product crate
//! keeps `#![forbid(unsafe_code)]`): `crc32fast`'s one call into its
//! carry-less-multiply kernel, and here, confined to the `sys` module's
//! raw syscall bindings and a handful of call sites that pass plain
//! integers and `#[repr(C)]` structs across the FFI boundary. The API
//! surface mirrors the real `polling` crate in spirit (add / modify /
//! delete / wait with level-triggered semantics and u64 keys) but only
//! the subset this workspace consumes.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::io;
use std::os::unix::io::RawFd;
use std::sync::Mutex;
use std::time::Duration;

/// Raw syscall bindings. Numbers and layouts follow the Linux (and,
/// where gated, BSD/macOS) ABI; everything is called with plain
/// integers or `#[repr(C)]` structs, so each call site's obligation is
/// just "the pointer/length pair is valid for the duration of the
/// call".
mod sys {
    use std::os::raw::{c_int, c_uint, c_ulong, c_void};

    // epoll(7) — Linux only.
    #[cfg(target_os = "linux")]
    pub(super) const EPOLL_CLOEXEC: c_int = 0o2000000;
    #[cfg(target_os = "linux")]
    pub(super) const EPOLL_CTL_ADD: c_int = 1;
    #[cfg(target_os = "linux")]
    pub(super) const EPOLL_CTL_DEL: c_int = 2;
    #[cfg(target_os = "linux")]
    pub(super) const EPOLL_CTL_MOD: c_int = 3;
    #[cfg(target_os = "linux")]
    pub(super) const EPOLLIN: u32 = 0x001;
    #[cfg(target_os = "linux")]
    pub(super) const EPOLLOUT: u32 = 0x004;
    #[cfg(target_os = "linux")]
    pub(super) const EPOLLERR: u32 = 0x008;
    #[cfg(target_os = "linux")]
    pub(super) const EPOLLHUP: u32 = 0x010;
    #[cfg(target_os = "linux")]
    pub(super) const EPOLLRDHUP: u32 = 0x2000;

    /// `struct epoll_event`; packed on x86 so the 12-byte kernel layout
    /// matches (other architectures use natural alignment).
    #[cfg(target_os = "linux")]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    #[derive(Clone, Copy)]
    pub(super) struct EpollEvent {
        pub(super) events: u32,
        pub(super) data: u64,
    }

    // eventfd(2) — Linux only.
    #[cfg(target_os = "linux")]
    pub(super) const EFD_CLOEXEC: c_int = 0o2000000;
    #[cfg(target_os = "linux")]
    pub(super) const EFD_NONBLOCK: c_int = 0o4000;

    // poll(2) — portable.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(super) struct PollFd {
        pub(super) fd: c_int,
        pub(super) events: i16,
        pub(super) revents: i16,
    }
    pub(super) const POLLIN: i16 = 0x001;
    pub(super) const POLLOUT: i16 = 0x004;
    pub(super) const POLLERR: i16 = 0x008;
    pub(super) const POLLHUP: i16 = 0x010;

    // fcntl(2) file-status flags for the pipe waker.
    pub(super) const F_GETFL: c_int = 3;
    pub(super) const F_SETFL: c_int = 4;
    #[cfg(target_os = "linux")]
    pub(super) const O_NONBLOCK: c_int = 0o4000;
    #[cfg(not(target_os = "linux"))]
    pub(super) const O_NONBLOCK: c_int = 0x0004;

    // setrlimit(2).
    #[cfg(target_os = "linux")]
    pub(super) const RLIMIT_NOFILE: c_int = 7;
    #[cfg(not(target_os = "linux"))]
    pub(super) const RLIMIT_NOFILE: c_int = 8;
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(super) struct Rlimit {
        pub(super) cur: u64,
        pub(super) max: u64,
    }

    #[allow(unsafe_code)]
    extern "C" {
        #[cfg(target_os = "linux")]
        pub(super) fn epoll_create1(flags: c_int) -> c_int;
        #[cfg(target_os = "linux")]
        pub(super) fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        #[cfg(target_os = "linux")]
        pub(super) fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        #[cfg(target_os = "linux")]
        pub(super) fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        pub(super) fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        pub(super) fn pipe(fds: *mut c_int) -> c_int;
        pub(super) fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        pub(super) fn close(fd: c_int) -> c_int;
        pub(super) fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub(super) fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub(super) fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
        pub(super) fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
    }
}

/// Which readiness directions a registration asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest { read: true, write: false };
}

/// One readiness notification from [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The `key` the fd was registered under.
    pub key: u64,
    /// The fd can (probably) be read without blocking.
    pub readable: bool,
    /// The fd can (probably) be written without blocking.
    pub writable: bool,
    /// The peer closed or an error is pending; a subsequent read/write
    /// will report the specific cause.
    pub hangup: bool,
}

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll { epfd: RawFd },
    Poll {
        /// fd → (key, interest); rebuilt into a `pollfd` array per wait.
        registered: Mutex<HashMap<RawFd, (u64, Interest)>>,
    },
}

/// A level-triggered readiness poller.
///
/// One `Poller` belongs to one event-loop thread: `add`/`modify`/
/// `delete`/`wait` are called from that thread only (a [`Waker`] is the
/// cross-thread signalling primitive). Registrations are
/// level-triggered: an fd that stays readable keeps reporting until it
/// is drained.
pub struct Poller {
    backend: Backend,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller").field("backend", &self.backend_name()).finish()
    }
}

fn check(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

impl Poller {
    /// Creates a poller on the best backend for this OS (`epoll` on
    /// Linux, `poll` elsewhere).
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            #[allow(unsafe_code)]
            let epfd = check(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
            Ok(Poller { backend: Backend::Epoll { epfd } })
        }
        #[cfg(not(target_os = "linux"))]
        {
            Poller::new_poll_fallback()
        }
    }

    /// Creates a poller on the portable `poll(2)` backend. On Linux
    /// only this file's `*_on_every_backend` tests construct it.
    #[cfg_attr(target_os = "linux", allow(dead_code))]
    pub(crate) fn new_poll_fallback() -> io::Result<Poller> {
        Ok(Poller { backend: Backend::Poll { registered: Mutex::new(HashMap::new()) } })
    }

    /// The backend in use: `"epoll"` or `"poll"`.
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { .. } => "epoll",
            Backend::Poll { .. } => "poll",
        }
    }

    #[cfg(target_os = "linux")]
    fn epoll_ctl(&self, epfd: RawFd, op: i32, fd: RawFd, key: u64, interest: Interest) -> io::Result<()> {
        // A peer's half-close is news only to a reader: asked for without
        // read interest, EPOLLRDHUP would report a half-closed socket on
        // every wait, and a loop blocked writing to it would spin.
        let mut events = 0;
        if interest.read {
            events |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if interest.write {
            events |= sys::EPOLLOUT;
        }
        let mut ev = sys::EpollEvent { events, data: key };
        #[allow(unsafe_code)]
        check(unsafe { sys::epoll_ctl(epfd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` under `key` with the given interest.
    pub fn add(&self, fd: RawFd, key: u64, interest: Interest) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => self.epoll_ctl(*epfd, sys::EPOLL_CTL_ADD, fd, key, interest),
            Backend::Poll { registered } => {
                registered.lock().expect("poller map").insert(fd, (key, interest));
                Ok(())
            }
        }
    }

    /// Changes the interest set (and key) of a registered fd.
    pub fn modify(&self, fd: RawFd, key: u64, interest: Interest) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => self.epoll_ctl(*epfd, sys::EPOLL_CTL_MOD, fd, key, interest),
            Backend::Poll { registered } => {
                registered.lock().expect("poller map").insert(fd, (key, interest));
                Ok(())
            }
        }
    }

    /// Removes a registration. Must be called **before** the fd is
    /// closed (a closed fd silently vanishes from epoll, but the poll
    /// fallback would keep a stale entry).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => {
                let mut ev = sys::EpollEvent { events: 0, data: 0 };
                #[allow(unsafe_code)]
                check(unsafe { sys::epoll_ctl(*epfd, sys::EPOLL_CTL_DEL, fd, &mut ev) })?;
                Ok(())
            }
            Backend::Poll { registered } => {
                registered.lock().expect("poller map").remove(&fd);
                Ok(())
            }
        }
    }

    /// Blocks until at least one registered fd is ready (or `timeout`
    /// elapses), appending notifications to `events`. Returns how many
    /// were appended; `0` means timeout. `EINTR` retries internally.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(t) => t.as_millis().min(i32::MAX as u128) as i32,
        };
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => {
                let mut buf = [sys::EpollEvent { events: 0, data: 0 }; 512];
                let n = loop {
                    #[allow(unsafe_code)]
                    let rc = unsafe {
                        sys::epoll_wait(*epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms)
                    };
                    match check(rc) {
                        Ok(n) => break n as usize,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(e) => return Err(e),
                    }
                };
                for ev in &buf[..n] {
                    // Copy out of the (possibly packed) struct before use.
                    let bits = ev.events;
                    let key = ev.data;
                    events.push(Event {
                        key,
                        readable: bits & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                        writable: bits & sys::EPOLLOUT != 0,
                        hangup: bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                    });
                }
                Ok(n)
            }
            Backend::Poll { registered } => {
                let mut fds: Vec<sys::PollFd> = Vec::new();
                let mut keys: Vec<u64> = Vec::new();
                {
                    let registered = registered.lock().expect("poller map");
                    for (fd, (key, interest)) in registered.iter() {
                        let mut evs: i16 = 0;
                        if interest.read {
                            evs |= sys::POLLIN;
                        }
                        if interest.write {
                            evs |= sys::POLLOUT;
                        }
                        fds.push(sys::PollFd { fd: *fd, events: evs, revents: 0 });
                        keys.push(*key);
                    }
                }
                let n = loop {
                    #[allow(unsafe_code)]
                    let rc = unsafe {
                        sys::poll(fds.as_mut_ptr(), fds.len() as std::os::raw::c_ulong, timeout_ms)
                    };
                    match check(rc) {
                        Ok(n) => break n as usize,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(e) => return Err(e),
                    }
                };
                if n > 0 {
                    for (pfd, key) in fds.iter().zip(&keys) {
                        let got = pfd.revents;
                        if got == 0 {
                            continue;
                        }
                        events.push(Event {
                            key: *key,
                            readable: got & (sys::POLLIN | sys::POLLHUP) != 0,
                            writable: got & sys::POLLOUT != 0,
                            hangup: got & (sys::POLLERR | sys::POLLHUP) != 0,
                        });
                    }
                }
                Ok(n)
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Backend::Epoll { epfd } = &self.backend {
            #[allow(unsafe_code)]
            let _ = unsafe { sys::close(*epfd) };
        }
    }
}

enum WakerImpl {
    #[cfg(target_os = "linux")]
    EventFd { fd: RawFd },
    Pipe { read_fd: RawFd, write_fd: RawFd },
}

/// A cross-thread wake-up fd for a [`Poller`]: register
/// [`read_fd`](Waker::read_fd) under a reserved key, then any thread
/// may [`wake`](Waker::wake) to pull the loop out of `wait`; the loop
/// [`drain`](Waker::drain)s on readiness so level-triggered polling
/// does not spin.
///
/// On Linux this is an `eventfd(2)` (one fd, a single 8-byte counter);
/// elsewhere a nonblocking pipe.
pub struct Waker {
    inner: WakerImpl,
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.inner {
            #[cfg(target_os = "linux")]
            WakerImpl::EventFd { .. } => "eventfd",
            WakerImpl::Pipe { .. } => "pipe",
        };
        f.debug_struct("Waker").field("kind", &kind).finish()
    }
}

fn set_nonblocking_fd(fd: RawFd) -> io::Result<()> {
    #[allow(unsafe_code)]
    let flags = check(unsafe { sys::fcntl(fd, sys::F_GETFL, 0) })?;
    #[allow(unsafe_code)]
    check(unsafe { sys::fcntl(fd, sys::F_SETFL, flags | sys::O_NONBLOCK) })?;
    Ok(())
}

impl Waker {
    /// Creates a waker (`eventfd` on Linux, pipe elsewhere).
    pub fn new() -> io::Result<Waker> {
        #[cfg(target_os = "linux")]
        {
            #[allow(unsafe_code)]
            let fd = check(unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) })?;
            Ok(Waker { inner: WakerImpl::EventFd { fd } })
        }
        #[cfg(not(target_os = "linux"))]
        {
            Waker::new_pipe()
        }
    }

    /// Creates a pipe-backed waker. On Linux only this file's
    /// `*_on_every_backend` tests construct it.
    #[cfg_attr(target_os = "linux", allow(dead_code))]
    pub(crate) fn new_pipe() -> io::Result<Waker> {
        let mut fds: [std::os::raw::c_int; 2] = [0; 2];
        #[allow(unsafe_code)]
        check(unsafe { sys::pipe(fds.as_mut_ptr()) })?;
        let (read_fd, write_fd) = (fds[0], fds[1]);
        set_nonblocking_fd(read_fd)?;
        set_nonblocking_fd(write_fd)?;
        Ok(Waker { inner: WakerImpl::Pipe { read_fd, write_fd } })
    }

    /// The fd to register with the poller under a reserved key.
    pub fn read_fd(&self) -> RawFd {
        match &self.inner {
            #[cfg(target_os = "linux")]
            WakerImpl::EventFd { fd } => *fd,
            WakerImpl::Pipe { read_fd, .. } => *read_fd,
        }
    }

    /// Signals the poller. Nonblocking and idempotent: if the counter
    /// or pipe is already full, the loop is already guaranteed to wake,
    /// so a `WouldBlock` here is success.
    pub fn wake(&self) {
        match &self.inner {
            #[cfg(target_os = "linux")]
            WakerImpl::EventFd { fd } => {
                let one: u64 = 1;
                #[allow(unsafe_code)]
                let _ = unsafe {
                    sys::write(*fd, std::ptr::addr_of!(one).cast(), std::mem::size_of::<u64>())
                };
            }
            WakerImpl::Pipe { write_fd, .. } => {
                let byte: u8 = 1;
                #[allow(unsafe_code)]
                let _ = unsafe { sys::write(*write_fd, std::ptr::addr_of!(byte).cast(), 1) };
            }
        }
    }

    /// Consumes pending wake signals so a level-triggered poller stops
    /// reporting the waker fd as readable.
    pub fn drain(&self) {
        match &self.inner {
            #[cfg(target_os = "linux")]
            WakerImpl::EventFd { fd } => {
                let mut counter: u64 = 0;
                #[allow(unsafe_code)]
                let _ = unsafe {
                    sys::read(*fd, std::ptr::addr_of_mut!(counter).cast(), std::mem::size_of::<u64>())
                };
            }
            WakerImpl::Pipe { read_fd, .. } => {
                let mut sink = [0u8; 64];
                loop {
                    #[allow(unsafe_code)]
                    let n = unsafe { sys::read(*read_fd, sink.as_mut_ptr().cast(), sink.len()) };
                    if n <= 0 {
                        break;
                    }
                }
            }
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        match &self.inner {
            #[cfg(target_os = "linux")]
            WakerImpl::EventFd { fd } => {
                #[allow(unsafe_code)]
                let _ = unsafe { sys::close(*fd) };
            }
            WakerImpl::Pipe { read_fd, write_fd } => {
                #[allow(unsafe_code)]
                let _ = unsafe { sys::close(*read_fd) };
                #[allow(unsafe_code)]
                let _ = unsafe { sys::close(*write_fd) };
            }
        }
    }
}

/// Raises the soft `RLIMIT_NOFILE` toward `target` (clamped to the hard
/// limit; a privileged process also raises the hard limit). Returns the
/// resulting soft limit — callers holding tens of thousands of sockets
/// size themselves to it.
pub fn raise_nofile_limit(target: u64) -> io::Result<u64> {
    let mut lim = sys::Rlimit { cur: 0, max: 0 };
    #[allow(unsafe_code)]
    check(unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) })?;
    if lim.cur >= target {
        return Ok(lim.cur);
    }
    if lim.max < target {
        // Only a privileged process may raise the hard limit; try, and
        // fall back to the existing ceiling on EPERM.
        let want = sys::Rlimit { cur: target, max: target };
        #[allow(unsafe_code)]
        if unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &want) } == 0 {
            return Ok(target);
        }
    }
    let want = sys::Rlimit { cur: target.min(lim.max), max: lim.max };
    #[allow(unsafe_code)]
    check(unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &want) })?;
    Ok(want.cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::{Mutex, MutexGuard, PoisonError};
    use std::time::Duration;

    /// `/proc/self/fd` counts the whole process and the tests of this
    /// module run on parallel threads of it: every test that opens a
    /// descriptor holds this lock for its whole body, so none opens or
    /// closes one between another's baseline and final count.
    static FD_COUNT: Mutex<()> = Mutex::new(());

    fn fd_count_lock() -> MutexGuard<'static, ()> {
        FD_COUNT.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn backends() -> Vec<Poller> {
        let mut pollers = vec![Poller::new_poll_fallback().unwrap()];
        if cfg!(target_os = "linux") {
            pollers.push(Poller::new().unwrap());
        }
        pollers
    }

    #[test]
    fn socket_readiness_round_trip_on_every_backend() {
        use std::os::unix::io::AsRawFd;
        let _alone = fd_count_lock();
        for poller in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();
            poller.add(server.as_raw_fd(), 7, Interest::READ).unwrap();

            // Nothing pending: a short wait times out.
            let mut events = Vec::new();
            let n = poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
            assert_eq!(n, 0, "{}: spurious readiness", poller.backend_name());

            // Data arrives: readable fires with the right key.
            client.write_all(b"ping").unwrap();
            client.flush().unwrap();
            let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
            assert!(n >= 1, "{}: no readiness", poller.backend_name());
            assert!(events.iter().any(|e| e.key == 7 && e.readable));

            // Drain, then re-arm for write interest: sockets are
            // writable immediately.
            let mut buf = [0u8; 16];
            let mut srv = &server;
            let _ = srv.read(&mut buf).unwrap();
            poller.modify(server.as_raw_fd(), 9, Interest { read: false, write: true }).unwrap();
            events.clear();
            let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
            assert!(n >= 1);
            assert!(events.iter().any(|e| e.key == 9 && e.writable));
            poller.delete(server.as_raw_fd()).unwrap();
        }
    }

    #[test]
    fn hangup_is_reported() {
        use std::os::unix::io::AsRawFd;
        let _alone = fd_count_lock();
        for poller in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();
            poller.add(server.as_raw_fd(), 1, Interest::READ).unwrap();
            drop(client);
            let mut events = Vec::new();
            let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
            assert!(n >= 1, "{}: no hangup readiness", poller.backend_name());
            // A hangup must at least surface as readable (read returns
            // Ok(0)) so the state machine notices the close.
            assert!(events.iter().any(|e| e.key == 1 && (e.readable || e.hangup)));
        }
    }

    #[test]
    fn a_half_close_wakes_only_a_reader_on_every_backend() {
        use std::os::unix::io::AsRawFd;
        let _alone = fd_count_lock();
        for poller in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            let idle = Interest { read: false, write: false };
            poller.add(server.as_raw_fd(), 3, idle).unwrap();
            client.shutdown(std::net::Shutdown::Write).unwrap();
            let mut events = Vec::new();
            let n = poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
            assert_eq!(n, 0, "{}: {events:?}", poller.backend_name());
            poller.modify(server.as_raw_fd(), 3, Interest::READ).unwrap();
            let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
            assert!(n >= 1 && events.iter().any(|e| e.key == 3 && e.readable));
            poller.delete(server.as_raw_fd()).unwrap();
        }
    }

    #[test]
    fn wakers_wake_and_drain_on_every_backend() {
        use std::sync::Arc;
        let _alone = fd_count_lock();
        let wakers = {
            let mut w = vec![Arc::new(Waker::new_pipe().unwrap())];
            if cfg!(target_os = "linux") {
                w.push(Arc::new(Waker::new().unwrap()));
            }
            w
        };
        for waker in wakers {
            for poller in backends() {
                const WAKE_KEY: u64 = u64::MAX;
                poller.add(waker.read_fd(), WAKE_KEY, Interest::READ).unwrap();

                // Wake from another thread while this one blocks in wait.
                let remote = Arc::clone(&waker);
                let handle = std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(20));
                    remote.wake();
                    remote.wake(); // coalesces; still one wake-up
                });
                let mut events = Vec::new();
                let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
                handle.join().unwrap();
                assert!(n >= 1, "waker did not wake {}", poller.backend_name());
                assert!(events.iter().any(|e| e.key == WAKE_KEY && e.readable));

                // After draining, the poller goes quiet again.
                waker.drain();
                events.clear();
                let n = poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
                assert_eq!(n, 0, "waker not drained on {}", poller.backend_name());
                poller.delete(waker.read_fd()).unwrap();
            }
        }
    }

    /// The `poll(2)` backend and the pipe waker own different
    /// descriptors than epoll/eventfd (a pipe pair; no kernel object
    /// for the poller, but a registration table that must not keep a
    /// closed socket alive): after 100 sockets were registered, made
    /// ready, deregistered and closed, and both were dropped, the
    /// process holds exactly the descriptors it started with.
    #[cfg(target_os = "linux")]
    #[test]
    fn poll_backend_and_pipe_waker_churn_returns_every_descriptor() {
        use std::os::unix::io::AsRawFd;
        const WAKE_KEY: u64 = u64::MAX;
        let open_fds = || std::fs::read_dir("/proc/self/fd").unwrap().count();
        let _alone = fd_count_lock();
        let baseline = open_fds();
        {
            let poller = Poller::new_poll_fallback().unwrap();
            let waker = Waker::new_pipe().unwrap();
            poller.add(waker.read_fd(), WAKE_KEY, Interest::READ).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut events = Vec::new();
            for key in 0..100u64 {
                let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                let (server, _) = listener.accept().unwrap();
                poller.add(server.as_raw_fd(), key, Interest::READ).unwrap();
                client.write_all(b"probe").unwrap();
                waker.wake();
                events.clear();
                poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
                assert!(events.iter().any(|e| e.key == key && e.readable));
                waker.drain();
                poller.delete(server.as_raw_fd()).unwrap();
            }
            assert!(open_fds() > baseline);
        }
        assert_eq!(open_fds(), baseline, "poll backend or pipe waker leaked a descriptor");
    }

    #[test]
    fn nofile_limit_is_queryable_and_monotone() {
        let current = raise_nofile_limit(0).unwrap();
        assert!(current > 0);
        let raised = raise_nofile_limit(current).unwrap();
        assert!(raised >= current);
    }
}
