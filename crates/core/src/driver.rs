//! The one readiness loop under both servers: the metadata server's HTTP
//! connections ([`crate::server`]) and the event server's framed ones
//! (`backbone::net`).
//!
//! A [`Driver`] is one thread's loop. It owns a [`Poller`], the waker and
//! command inbox of its [`Handle`], its table of connections and, on one
//! driver per server, the listener. What a connection does with its bytes
//! is its [`Protocol`]'s business: the driver hands it readiness and
//! takes back the interest it wants, a deadline and whether it stays
//! open. Everything else is the driver's, and the same for both servers:
//!
//! * **Accept** is non-blocking and in the loop. An accept error other
//!   than `WouldBlock` (such as `EMFILE`) takes the listener out of the
//!   poller for [`ACCEPT_BACKOFF`], or until a connection closes, so the
//!   connections already open are served meanwhile. At the protocol's
//!   [`Protocol::MAX_CONNECTIONS`] the longest-idle connection is closed
//!   for a new one; when none is idle, new clients wait in the TCP
//!   backlog until one closes.
//! * **The wait's timeout** is the nearest deadline: a connection's, or
//!   the end of an accept pause. A protocol without deadlines
//!   ([`Protocol::DEADLINES`]) pays no scan of the table per wake, and a
//!   driver with nothing due waits without a timeout: an idle server
//!   never wakes.
//! * **Interest** is re-registered only when the wanted set changes.
//! * **Commands** from other threads — a connection handed over, a
//!   message for one — go through the inbox. The inbox is swapped out
//!   whole, every message is queued, and only then is each connection
//!   a message touched serviced, once: messages that piled up for one
//!   connection leave in one write.
//! * **Each descriptor closes once.** Removal from the table is the only
//!   close path: the poller forgets the socket, the protocol hears
//!   [`Protocol::closed`], and dropping the stream closes it.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use polling::{Interest, Poller, Waker};

use crate::unpoisoned;

/// After an accept error other than `WouldBlock`, the listener goes
/// unwatched for this long, unless a connection closes first.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// The poller keys of the listener and the waker. Connections count up
/// from zero and a key is never reused.
const LISTENER: u64 = u64::MAX - 1;
const WAKER: u64 = u64::MAX;

/// What the poller reported for a connection. Both are false when the
/// connection is serviced because a message was delivered to it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ready {
    /// Input (or end of input) is waiting.
    pub readable: bool,
    /// The peer hung up or an error is pending.
    pub hangup: bool,
}

/// What a connection wants once it has handled readiness.
#[derive(Clone, Copy, Debug)]
pub struct Want {
    /// The readiness to wait for next.
    pub interest: Interest,
    /// When the connection is closed unless it is serviced again first.
    pub deadline: Option<Instant>,
}

/// One connection's side of the loop: everything the driver does not
/// decide. The methods are called on the driver's thread only, and
/// statically: no call per event goes through a `dyn`.
pub trait Protocol: Sized {
    /// What the connections of one driver share: routes or a handler,
    /// counters, a read buffer.
    type Context;
    /// The one command the protocol takes through the inbox, addressed
    /// to a connection.
    type Message;
    /// Most connections a driver holds at once.
    const MAX_CONNECTIONS: usize;
    /// Whether a connection ever wants a deadline.
    const DEADLINES: bool;

    /// A connection accepted under `key`: returns the stream for this
    /// driver to open, or `None` once it has been handed to another
    /// driver.
    fn accepted(_key: u64, stream: TcpStream, _cx: &mut Self::Context) -> Option<TcpStream> {
        Some(stream)
    }

    /// The state of a connection the driver takes on, and its first
    /// deadline; it waits for input first.
    fn open(key: u64, cx: &mut Self::Context) -> (Self, Option<Instant>);

    /// Moves the connection on. `None` closes it.
    fn ready(
        &mut self,
        key: u64,
        stream: &mut TcpStream,
        ready: Ready,
        cx: &mut Self::Context,
    ) -> Option<Want>;

    /// Takes a message; the connection is serviced once the inbox is
    /// drained.
    fn deliver(&mut self, key: u64, message: Self::Message, cx: &mut Self::Context);

    /// A message whose connection is gone, or came as the driver stopped.
    fn undelivered(message: Self::Message, cx: &mut Self::Context);

    /// The connection has left the table and its stream is about to
    /// close: by its own choice, a deadline, eviction or shutdown.
    fn closed(self, key: u64, cx: &mut Self::Context);

    /// Whether the connection may be evicted for a new one at the cap.
    fn idle(&self) -> bool {
        false
    }
}

enum Command<M> {
    Register(u64, TcpStream),
    Deliver(u64, M),
}

/// A driver's face to other threads: its inbox and waker, its stop flag
/// and its counters.
pub struct Handle<M> {
    inbox: Mutex<VecDeque<Command<M>>>,
    waker: Waker,
    stop: AtomicBool,
    accepted: AtomicU64,
    /// How many times the driver's wait has returned.
    pub(crate) wakeups: Arc<AtomicU64>,
}

impl<M> Handle<M> {
    /// A handle for a driver yet to be built.
    ///
    /// # Errors
    ///
    /// The waker's `eventfd` could not be made.
    pub fn new() -> io::Result<Arc<Handle<M>>> {
        Ok(Arc::new(Handle {
            inbox: Mutex::new(VecDeque::new()),
            waker: Waker::new()?,
            stop: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            wakeups: Arc::new(AtomicU64::new(0)),
        }))
    }

    /// Hands a connection accepted under `key` to this driver.
    pub fn register(&self, key: u64, stream: TcpStream) {
        self.send(Command::Register(key, stream));
    }

    /// Delivers a message to connection `key` of this driver.
    pub fn deliver(&self, key: u64, message: M) {
        self.send(Command::Deliver(key, message));
    }

    /// Writes the waker only on the empty → non-empty transition, so a
    /// burst of commands costs one syscall. The driver drains until it
    /// sees the inbox empty, so a command appended to a non-empty inbox
    /// is collected by the drain already due.
    fn send(&self, command: Command<M>) {
        let was_empty = {
            let mut inbox = unpoisoned(self.inbox.lock());
            inbox.push_back(command);
            inbox.len() == 1
        };
        if was_empty {
            self.waker.wake();
        }
    }

    /// Stops the driver: it closes every connection and its listener.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// Whether [`stop`](Self::stop) was called.
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Connections this driver has accepted.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::SeqCst)
    }

    /// How many times this driver's wait has returned.
    pub fn wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::SeqCst)
    }
}

struct Slot<P> {
    stream: TcpStream,
    conn: P,
    /// Interest registered with the poller.
    interest: Interest,
    deadline: Option<Instant>,
    /// Already on the list of connections to service once the inbox is
    /// drained.
    touched: bool,
}

/// One thread's readiness loop; see the module header.
pub struct Driver<P: Protocol> {
    handle: Arc<Handle<P::Message>>,
    poller: Poller,
    listener: Option<TcpListener>,
    /// Whether the poller watches the listener: not while every one of
    /// `MAX_CONNECTIONS` connections is busy, nor after an accept error
    /// until `paused_until`.
    listening: bool,
    paused_until: Option<Instant>,
    next_key: u64,
    conns: HashMap<u64, Slot<P>>,
    cx: P::Context,
    /// Reused across wake-ups: the inbox is swapped out into `commands`,
    /// and `touched` lists the connections its messages landed on.
    commands: VecDeque<Command<P::Message>>,
    touched: Vec<u64>,
}

impl<P: Protocol> Driver<P> {
    /// A driver for `handle`, accepting on `listener` if it has one.
    ///
    /// # Errors
    ///
    /// The poller could not be made or could not watch the waker or the
    /// listener.
    pub fn new(
        handle: Arc<Handle<P::Message>>,
        listener: Option<TcpListener>,
        cx: P::Context,
    ) -> io::Result<Driver<P>> {
        let poller = Poller::new()?;
        poller.add(handle.waker.read_fd(), WAKER, Interest::READ)?;
        if let Some(listener) = &listener {
            listener.set_nonblocking(true)?;
            poller.add(listener.as_raw_fd(), LISTENER, Interest::READ)?;
        }
        Ok(Driver {
            handle,
            poller,
            listening: listener.is_some(),
            listener,
            paused_until: None,
            next_key: 0,
            conns: HashMap::new(),
            cx,
            commands: VecDeque::new(),
            touched: Vec::new(),
        })
    }

    /// Runs the driver on a thread of its own until its handle is
    /// stopped.
    ///
    /// # Errors
    ///
    /// The thread could not be spawned.
    pub fn spawn(self, name: String) -> io::Result<JoinHandle<()>>
    where
        P: Send + 'static,
        P::Context: Send,
        P::Message: Send,
    {
        std::thread::Builder::new()
            .name(name)
            .spawn(move || self.run())
    }

    fn run(mut self) {
        let mut events = Vec::new();
        loop {
            let due = self.next_deadline();
            let timeout = due.map(|deadline| {
                let left = deadline.saturating_duration_since(Instant::now());
                // Whole milliseconds, rounded up, so a deadline less than
                // one away does not spin the loop until it passes.
                Duration::from_millis(left.as_micros().div_ceil(1000) as u64)
            });
            events.clear();
            let waited = self.poller.wait(&mut events, timeout);
            self.handle.wakeups.fetch_add(1, Ordering::SeqCst);
            if waited.is_err() || self.handle.stopped() {
                break;
            }
            if events.iter().any(|event| event.key == WAKER) {
                self.handle.waker.drain();
            }
            // Commands first, so a delivery and its connection's
            // readiness coalesce into one service pass.
            self.drain_inbox();
            for event in &events {
                match event.key {
                    WAKER => {}
                    LISTENER => self.accept(),
                    key => {
                        let ready = Ready {
                            readable: event.readable,
                            hangup: event.hangup,
                        };
                        self.service(key, ready);
                    }
                }
            }
            if due.is_some_and(|deadline| deadline <= Instant::now()) {
                self.expire();
            }
        }
        self.shutdown();
    }

    fn next_deadline(&self) -> Option<Instant> {
        if !P::DEADLINES {
            return self.paused_until;
        }
        let deadlines = self.conns.values().filter_map(|slot| slot.deadline);
        deadlines.chain(self.paused_until).min()
    }

    fn accept(&mut self) {
        loop {
            if self.conns.len() >= P::MAX_CONNECTIONS && !self.evict_idle() {
                // Every connection is busy: the rest wait in the TCP
                // backlog until one closes.
                return self.pause(None);
            }
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.handle.accepted.fetch_add(1, Ordering::SeqCst);
                    let key = self.next_key;
                    self.next_key += 1;
                    if let Some(stream) = P::accepted(key, stream, &mut self.cx) {
                        self.register(key, stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // A persistent failure such as EMFILE leaves the listener
                // readable: stop watching it for a while rather than spin
                // on it or sleep on the thread that serves every open
                // connection.
                Err(_) => return self.pause(Some(Instant::now() + ACCEPT_BACKOFF)),
            }
        }
    }

    fn pause(&mut self, until: Option<Instant>) {
        if let Some(listener) = &self.listener {
            let _ = self.poller.delete(listener.as_raw_fd());
        }
        self.listening = false;
        self.paused_until = until;
    }

    /// Watches the listener again once a connection has closed or an
    /// accept error's pause has passed.
    fn listen(&mut self) {
        self.paused_until = None;
        if let (false, Some(listener)) = (self.listening, &self.listener) {
            let fd = listener.as_raw_fd();
            self.listening = self.poller.add(fd, LISTENER, Interest::READ).is_ok();
        }
    }

    /// Closes the longest-idle connection, if any is idle.
    fn evict_idle(&mut self) -> bool {
        let idle = self
            .conns
            .iter()
            .filter(|(_, slot)| slot.conn.idle())
            .min_by_key(|(_, slot)| slot.deadline)
            .map(|(key, _)| *key);
        idle.map(|key| self.close(key)).is_some()
    }

    fn register(&mut self, key: u64, stream: TcpStream) {
        let (conn, deadline) = P::open(key, &mut self.cx);
        let registered = stream
            .set_nonblocking(true)
            .and_then(|()| stream.set_nodelay(true))
            .and_then(|()| self.poller.add(stream.as_raw_fd(), key, Interest::READ));
        if registered.is_err() {
            return conn.closed(key, &mut self.cx);
        }
        let slot = Slot {
            stream,
            conn,
            interest: Interest::READ,
            deadline,
            touched: false,
        };
        self.conns.insert(key, slot);
    }

    fn drain_inbox(&mut self) {
        loop {
            {
                let mut inbox = unpoisoned(self.handle.inbox.lock());
                if inbox.is_empty() {
                    break;
                }
                std::mem::swap(&mut *inbox, &mut self.commands);
            }
            while let Some(command) = self.commands.pop_front() {
                match command {
                    Command::Register(key, stream) => self.register(key, stream),
                    Command::Deliver(key, message) => match self.conns.get_mut(&key) {
                        Some(slot) => {
                            slot.conn.deliver(key, message, &mut self.cx);
                            if !slot.touched {
                                slot.touched = true;
                                self.touched.push(key);
                            }
                        }
                        None => P::undelivered(message, &mut self.cx),
                    },
                }
            }
        }
        for at in 0..self.touched.len() {
            let key = self.touched[at];
            if let Some(slot) = self.conns.get_mut(&key) {
                slot.touched = false;
            }
            self.service(key, Ready::default());
        }
        self.touched.clear();
    }

    fn service(&mut self, key: u64, ready: Ready) {
        let Some(slot) = self.conns.get_mut(&key) else {
            return;
        };
        let Some(want) = slot.conn.ready(key, &mut slot.stream, ready, &mut self.cx) else {
            return self.close(key);
        };
        slot.deadline = want.deadline;
        if want.interest != slot.interest {
            let fd = slot.stream.as_raw_fd();
            if self.poller.modify(fd, key, want.interest).is_err() {
                return self.close(key);
            }
            slot.interest = want.interest;
        }
    }

    fn expire(&mut self) {
        let now = Instant::now();
        if self.paused_until.is_some_and(|until| until <= now) {
            self.listen();
        }
        if P::DEADLINES {
            let due: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, slot)| slot.deadline.is_some_and(|deadline| deadline <= now))
                .map(|(key, _)| *key)
                .collect();
            for key in due {
                self.close(key);
            }
        }
    }

    fn close(&mut self, key: u64) {
        if let Some(slot) = self.conns.remove(&key) {
            let _ = self.poller.delete(slot.stream.as_raw_fd());
            slot.conn.closed(key, &mut self.cx);
            self.listen();
        }
    }

    /// Messages still in the inbox are undelivered, and every connection
    /// closes; dropping the driver closes the listener.
    fn shutdown(mut self) {
        let pending = std::mem::take(&mut *unpoisoned(self.handle.inbox.lock()));
        for command in pending {
            if let Command::Deliver(_, message) = command {
                P::undelivered(message, &mut self.cx);
            }
        }
        for (key, slot) in self.conns.drain() {
            let _ = self.poller.delete(slot.stream.as_raw_fd());
            slot.conn.closed(key, &mut self.cx);
        }
    }
}
