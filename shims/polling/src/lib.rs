//! Offline shim for the `polling` crate: OS readiness notification with
//! **no external dependencies**. Linux only.
//!
//! The workspace's readiness loop (`xml2wire::driver`, under the event
//! server and the metadata server) needs three primitives the standard
//! library does not expose:
//!
//! * a **readiness poller** — "tell me which of these sockets can make
//!   progress" — built on `epoll(7)`;
//! * a **waker** — an `eventfd(2)` another thread can poke to pull a
//!   blocked `wait` out of the kernel;
//! * an **`RLIMIT_NOFILE` raiser**, because holding 100k sockets open
//!   needs more than the default 1024-fd budget.
//!
//! The paper's heterogeneity lives in the `Architecture` descriptions,
//! not in the host OS, and CI runs on Linux only, so there is no
//! portable `poll(2)` backend.
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

#[cfg(not(target_os = "linux"))]
compile_error!("the polling shim is Linux-only: it is epoll and eventfd");

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Raw syscall bindings. Numbers and layouts follow the Linux ABI;
/// everything is called with plain integers or `#[repr(C)]` structs, so
/// each call site's obligation is just "the pointer/length pair is valid
/// for the duration of the call".
mod sys {
    use std::os::raw::{c_int, c_uint, c_void};

    pub(super) const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub(super) const EPOLL_CTL_ADD: c_int = 1;
    pub(super) const EPOLL_CTL_DEL: c_int = 2;
    pub(super) const EPOLL_CTL_MOD: c_int = 3;
    pub(super) const EPOLLIN: u32 = 0x001;
    pub(super) const EPOLLOUT: u32 = 0x004;
    pub(super) const EPOLLERR: u32 = 0x008;
    pub(super) const EPOLLHUP: u32 = 0x010;
    pub(super) const EPOLLRDHUP: u32 = 0x2000;

    /// `struct epoll_event`; packed on x86 so the 12-byte kernel layout
    /// matches (other architectures use natural alignment).
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    #[derive(Clone, Copy)]
    pub(super) struct EpollEvent {
        pub(super) events: u32,
        pub(super) data: u64,
    }

    pub(super) const EFD_CLOEXEC: c_int = 0o2000000;
    pub(super) const EFD_NONBLOCK: c_int = 0o4000;

    pub(super) const RLIMIT_NOFILE: c_int = 7;
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(super) struct Rlimit {
        pub(super) cur: u64,
        pub(super) max: u64,
    }

    #[allow(unsafe_code)]
    extern "C" {
        pub(super) fn epoll_create1(flags: c_int) -> c_int;
        pub(super) fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent)
            -> c_int;
        pub(super) fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub(super) fn eventfd(initval: c_uint, flags: c_int) -> c_int;
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
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
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

/// A level-triggered readiness poller over one epoll instance.
///
/// One `Poller` belongs to one event-loop thread: `add`/`modify`/
/// `delete`/`wait` are called from that thread only (a [`Waker`] is the
/// cross-thread signalling primitive). Registrations are
/// level-triggered: an fd that stays readable keeps reporting until it
/// is drained.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

fn check(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

impl Poller {
    /// Creates a poller.
    pub fn new() -> io::Result<Poller> {
        #[allow(unsafe_code)]
        let epfd = check(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, key: u64, interest: Interest) -> io::Result<()> {
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
        check(unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` under `key` with the given interest.
    pub fn add(&self, fd: RawFd, key: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, key, interest)
    }

    /// Changes the interest set (and key) of a registered fd.
    pub fn modify(&self, fd: RawFd, key: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, key, interest)
    }

    /// Removes a registration. Call it **before** the fd is closed: a
    /// closed fd vanishes from epoll only once no duplicate of it is
    /// left open.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        let idle = Interest {
            read: false,
            write: false,
        };
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, idle)
    }

    /// Blocks until at least one registered fd is ready (or `timeout`
    /// elapses), appending notifications to `events`. Returns how many
    /// were appended; `0` means timeout. `EINTR` retries internally.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(t) => t.as_millis().min(i32::MAX as u128) as i32,
        };
        let mut buf = [sys::EpollEvent { events: 0, data: 0 }; 512];
        let n = loop {
            #[allow(unsafe_code)]
            let rc = unsafe {
                sys::epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms)
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
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[allow(unsafe_code)]
        let _ = unsafe { sys::close(self.epfd) };
    }
}

/// A cross-thread wake-up fd for a [`Poller`]: register
/// [`read_fd`](Waker::read_fd) under a reserved key, then any thread
/// may [`wake`](Waker::wake) to pull the loop out of `wait`; the loop
/// [`drain`](Waker::drain)s on readiness so level-triggered polling
/// does not spin. An `eventfd(2)`: one fd, a single 8-byte counter.
#[derive(Debug)]
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// Creates a waker.
    pub fn new() -> io::Result<Waker> {
        #[allow(unsafe_code)]
        let fd = check(unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) })?;
        Ok(Waker { fd })
    }

    /// The fd to register with the poller under a reserved key.
    pub fn read_fd(&self) -> RawFd {
        self.fd
    }

    /// Signals the poller. Nonblocking and idempotent: if the counter is
    /// already full, the loop is already guaranteed to wake, so a
    /// `WouldBlock` here is success.
    pub fn wake(&self) {
        let one: u64 = 1;
        #[allow(unsafe_code)]
        let _ = unsafe {
            sys::write(
                self.fd,
                std::ptr::addr_of!(one).cast(),
                std::mem::size_of::<u64>(),
            )
        };
    }

    /// Consumes pending wake signals so a level-triggered poller stops
    /// reporting the waker fd as readable.
    pub fn drain(&self) {
        let mut counter: u64 = 0;
        #[allow(unsafe_code)]
        let _ = unsafe {
            sys::read(
                self.fd,
                std::ptr::addr_of_mut!(counter).cast(),
                std::mem::size_of::<u64>(),
            )
        };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        #[allow(unsafe_code)]
        let _ = unsafe { sys::close(self.fd) };
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
        let want = sys::Rlimit {
            cur: target,
            max: target,
        };
        #[allow(unsafe_code)]
        if unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &want) } == 0 {
            return Ok(target);
        }
    }
    let want = sys::Rlimit {
        cur: target.min(lim.max),
        max: lim.max,
    };
    #[allow(unsafe_code)]
    check(unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &want) })?;
    Ok(want.cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
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

    #[test]
    fn socket_readiness_round_trip_on_every_backend() {
        let _alone = fd_count_lock();
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        poller.add(server.as_raw_fd(), 7, Interest::READ).unwrap();

        // Nothing pending: a short wait times out.
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert_eq!(n, 0, "spurious readiness");

        // Data arrives: readable fires with the right key.
        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(n >= 1, "no readiness");
        assert!(events.iter().any(|e| e.key == 7 && e.readable));

        // Drain, then re-arm for write interest: sockets are writable
        // immediately.
        let mut buf = [0u8; 16];
        let mut srv = &server;
        let _ = srv.read(&mut buf).unwrap();
        let write = Interest {
            read: false,
            write: true,
        };
        poller.modify(server.as_raw_fd(), 9, write).unwrap();
        events.clear();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(n >= 1);
        assert!(events.iter().any(|e| e.key == 9 && e.writable));
        poller.delete(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn hangup_is_reported() {
        let _alone = fd_count_lock();
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        poller.add(server.as_raw_fd(), 1, Interest::READ).unwrap();
        drop(client);
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(n >= 1, "no hangup readiness");
        // A hangup must at least surface as readable (read returns
        // Ok(0)) so the state machine notices the close.
        assert!(events
            .iter()
            .any(|e| e.key == 1 && (e.readable || e.hangup)));
    }

    #[test]
    fn a_half_close_wakes_only_a_reader_on_every_backend() {
        let _alone = fd_count_lock();
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let idle = Interest {
            read: false,
            write: false,
        };
        poller.add(server.as_raw_fd(), 3, idle).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert_eq!(n, 0, "{events:?}");
        poller
            .modify(server.as_raw_fd(), 3, Interest::READ)
            .unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(n >= 1 && events.iter().any(|e| e.key == 3 && e.readable));
        poller.delete(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn wakers_wake_and_drain_on_every_backend() {
        use std::sync::Arc;
        const WAKE_KEY: u64 = u64::MAX;
        let _alone = fd_count_lock();
        let waker = Arc::new(Waker::new().unwrap());
        let poller = Poller::new().unwrap();
        poller
            .add(waker.read_fd(), WAKE_KEY, Interest::READ)
            .unwrap();

        // Wake from another thread while this one blocks in wait.
        let remote = Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            remote.wake();
            remote.wake(); // coalesces; still one wake-up
        });
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        handle.join().unwrap();
        assert!(n >= 1, "waker did not wake the poller");
        assert!(events.iter().any(|e| e.key == WAKE_KEY && e.readable));

        // After draining, the poller goes quiet again.
        waker.drain();
        events.clear();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert_eq!(n, 0, "waker not drained");
        poller.delete(waker.read_fd()).unwrap();
    }

    /// After 100 sockets were registered, made ready, deregistered and
    /// closed, and the poller and the waker were dropped, the process
    /// holds exactly the descriptors it started with.
    #[test]
    fn poll_backend_and_pipe_waker_churn_returns_every_descriptor() {
        const WAKE_KEY: u64 = u64::MAX;
        let open_fds = || std::fs::read_dir("/proc/self/fd").unwrap().count();
        let _alone = fd_count_lock();
        let baseline = open_fds();
        {
            let poller = Poller::new().unwrap();
            let waker = Waker::new().unwrap();
            poller
                .add(waker.read_fd(), WAKE_KEY, Interest::READ)
                .unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut events = Vec::new();
            for key in 0..100u64 {
                let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                let (server, _) = listener.accept().unwrap();
                poller.add(server.as_raw_fd(), key, Interest::READ).unwrap();
                client.write_all(b"probe").unwrap();
                waker.wake();
                events.clear();
                poller
                    .wait(&mut events, Some(Duration::from_secs(5)))
                    .unwrap();
                assert!(events.iter().any(|e| e.key == key && e.readable));
                waker.drain();
                poller.delete(server.as_raw_fd()).unwrap();
            }
            assert!(open_fds() > baseline);
        }
        assert_eq!(
            open_fds(),
            baseline,
            "the poller or the waker leaked a descriptor"
        );
    }

    #[test]
    fn nofile_limit_is_queryable_and_monotone() {
        let current = raise_nofile_limit(0).unwrap();
        assert!(current > 0);
        let raised = raise_nofile_limit(current).unwrap();
        assert!(raised >= current);
    }
}
