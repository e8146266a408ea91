//! The broker's one queue: a FIFO over a `Mutex<VecDeque>` and two
//! condvars, with batch sends and batch receives under one lock. It
//! carries each shard's dispatch queue (bounded, so publishers wait while
//! their shard is behind) and every subscriber queue (unbounded, so the
//! dispatch worker never waits on a subscriber).
//!
//! Wake rule: a receiver raises `parked` just before it waits, and a push
//! takes the flag and, if it was up, wakes every waiting receiver once
//! the lock is released. The flag is read and written only under the
//! lock. A burst of pushes therefore pays one wake; a wake that arrives
//! late only makes a receiver look at the queue again; and two threads
//! receiving on one shared receiver both wake.
//!
//! Dropping the receiver drops whatever is still queued, so a sender
//! held inside a queued item closes its own queue then.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::unpoisoned;

/// The other end is gone: the receiver (for a send), or every sender
/// and every queued item (for a receive).
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Closed;

struct State<T> {
    items: VecDeque<T>,
    senders: usize,
    receiver: bool,
    /// A receiver is waiting, or about to; the next push wakes it.
    parked: bool,
    /// Senders waiting for space in a full bounded queue.
    blocked: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signalled when items arrive or the last sender goes.
    ready: Condvar,
    /// Signalled when items leave a queue senders wait on, or the
    /// receiver goes.
    space: Condvar,
    cap: usize,
}

type Guard<'a, T> = MutexGuard<'a, State<T>>;

impl<T> Shared<T> {
    fn lock(&self) -> Guard<'_, T> {
        unpoisoned(self.state.lock())
    }

    /// Ends a push: releases the lock, then wakes the receivers if one
    /// had parked.
    fn unlock_and_wake(&self, mut state: Guard<'_, T>) {
        if std::mem::take(&mut state.parked) {
            drop(state);
            self.ready.notify_all();
        }
    }

    /// Ends a pop: releases the lock, then wakes blocked senders if any.
    fn unlock_after_pop(&self, state: Guard<'_, T>) {
        if state.blocked > 0 {
            drop(state);
            self.space.notify_all();
        }
    }

    /// Moves up to `max` items into `out` and releases the lock.
    fn drain_into(&self, mut state: Guard<'_, T>, out: &mut Vec<T>, max: usize) -> usize {
        let take = state.items.len().min(max);
        out.extend(state.items.drain(..take));
        self.unlock_after_pop(state);
        take
    }

    /// Parks a receiver until a push, the last sender's exit, or the
    /// end of `wait` (`None`: no end).
    fn wait_ready<'a>(&self, mut state: Guard<'a, T>, wait: Option<Duration>) -> Guard<'a, T> {
        state.parked = true;
        match wait {
            None => unpoisoned(self.ready.wait(state)),
            Some(wait) => unpoisoned(self.ready.wait_timeout(state, wait)).0,
        }
    }
}

/// The sending half; clone it for more senders.
pub(crate) struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half. It is not `Clone`, but it may be shared by
/// reference between threads.
pub(crate) struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// A queue holding at most `cap` (≥ 1) items; sends wait while it is full.
pub(crate) fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let state = State {
        items: VecDeque::new(),
        senders: 1,
        receiver: true,
        parked: false,
        blocked: 0,
    };
    let shared = Arc::new(Shared {
        state: Mutex::new(state),
        ready: Condvar::new(),
        space: Condvar::new(),
        cap,
    });
    let receiver = Receiver { shared };
    let shared = Arc::clone(&receiver.shared);
    (Sender { shared }, receiver)
}

/// A queue whose sends never wait.
pub(crate) fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    bounded(usize::MAX)
}

impl<T> Sender<T> {
    /// Appends `value`, waiting while the queue is full.
    pub(crate) fn send(&self, value: T) -> Result<(), Closed> {
        self.send_many(std::iter::once(value)).map(drop)
    }

    /// Appends every value under one lock, waiting for space as needed,
    /// and returns how many went in. A full queue first wakes its
    /// receiver, which is what makes the space.
    pub(crate) fn send_many(&self, values: impl IntoIterator<Item = T>) -> Result<usize, Closed> {
        let shared = &*self.shared;
        let mut state = shared.lock();
        let mut sent = 0;
        for value in values {
            loop {
                if !state.receiver {
                    drop(state);
                    return Err(Closed);
                }
                if state.items.len() < shared.cap {
                    break;
                }
                if std::mem::take(&mut state.parked) {
                    shared.ready.notify_all();
                }
                state.blocked += 1;
                state = unpoisoned(shared.space.wait(state));
                state.blocked -= 1;
            }
            state.items.push_back(value);
            sent += 1;
        }
        shared.unlock_and_wake(state);
        Ok(sent)
    }

    /// Appends `value` unless the queue is full or closed; whether it
    /// went in.
    pub(crate) fn try_send(&self, value: T) -> bool {
        let mut state = self.shared.lock();
        if !state.receiver || state.items.len() >= self.shared.cap {
            return false;
        }
        state.items.push_back(value);
        self.shared.unlock_and_wake(state);
        true
    }

    /// Whether the receiver is gone.
    pub(crate) fn is_closed(&self) -> bool {
        !self.shared.lock().receiver
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        let shared = Arc::clone(&self.shared);
        shared.lock().senders += 1;
        Sender { shared }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.senders -= 1;
        if state.senders == 0 {
            self.shared.unlock_and_wake(state);
        }
    }
}

impl<T> Receiver<T> {
    /// Takes the next item, waiting up to `timeout` (`None`: for as long
    /// as it takes); `Ok(None)` is a timeout. An item already queued is
    /// taken without reading the clock.
    pub(crate) fn recv(&self, timeout: Option<Duration>) -> Result<Option<T>, Closed> {
        let shared = &*self.shared;
        let mut state = shared.lock();
        let mut deadline = None;
        loop {
            if let Some(value) = state.items.pop_front() {
                shared.unlock_after_pop(state);
                return Ok(Some(value));
            }
            if state.senders == 0 {
                return Err(Closed);
            }
            let wait = timeout.map(|timeout| {
                let now = Instant::now();
                deadline
                    .get_or_insert(now + timeout)
                    .saturating_duration_since(now)
            });
            if wait == Some(Duration::ZERO) {
                return Ok(None);
            }
            state = shared.wait_ready(state, wait);
        }
    }

    /// Takes the next item if one is queued.
    pub(crate) fn try_recv(&self) -> Option<T> {
        self.recv(Some(Duration::ZERO)).ok().flatten()
    }

    /// Waits for at least one item, then moves up to `max` (≥ 1) into
    /// `out` under one lock; returns how many.
    pub(crate) fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> Result<usize, Closed> {
        let shared = &*self.shared;
        let mut state = shared.lock();
        while state.items.is_empty() {
            if state.senders == 0 {
                return Err(Closed);
            }
            state = shared.wait_ready(state, None);
        }
        Ok(shared.drain_into(state, out, max))
    }

    /// Moves up to `max` queued items into `out` without waiting;
    /// returns how many.
    pub(crate) fn try_recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        self.shared.drain_into(self.shared.lock(), out, max)
    }

    /// How many items are queued.
    pub(crate) fn len(&self) -> usize {
        self.shared.lock().items.len()
    }

    /// Closes the queue as dropping the receiver does: senders see it
    /// closed, and what was queued is dropped.
    pub(crate) fn close(&self) {
        let mut state = self.shared.lock();
        state.receiver = false;
        // Dropped on return, after the unlock: an item may hold a sender
        // of this very queue.
        let _items = std::mem::take(&mut state.items);
        self.shared.unlock_after_pop(state);
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.close();
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sender").finish_non_exhaustive()
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiver").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    const PATIENCE: Duration = Duration::from_secs(10);

    /// Runs `f` on a thread of its own, so that a lost wake-up fails
    /// the test instead of hanging it.
    fn watchdog<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (done_tx, done) = mpsc::channel();
        std::thread::spawn(move || done_tx.send(f()).unwrap());
        done.recv_timeout(Duration::from_secs(60))
            .expect("the run hung, or panicked (see its message above)")
    }

    fn until_parked<T>(shared: &Shared<T>) {
        let deadline = Instant::now() + PATIENCE;
        while !shared.lock().parked {
            assert!(Instant::now() < deadline, "the receiver never parked");
            std::thread::yield_now();
        }
    }

    #[test]
    fn send_recv_in_order() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(None), Ok(Some(1)));
        assert_eq!(rx.try_recv(), Some(2));
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn disconnect_is_observed_both_ways() {
        let (tx, rx) = unbounded::<u8>();
        assert!(!tx.is_closed());
        drop(rx);
        assert!(tx.is_closed());
        assert_eq!(tx.send(1), Err(Closed));
        assert_eq!(tx.send_many([1, 2]), Err(Closed));

        let (tx, rx) = unbounded::<u8>();
        tx.send(9).unwrap();
        drop(tx);
        assert_eq!(rx.recv(None), Ok(Some(9)));
        assert_eq!(rx.recv(None), Err(Closed));
        assert_eq!(rx.recv_batch(&mut Vec::new(), 8), Err(Closed));
    }

    #[test]
    fn timeout_elapses_without_messages() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(rx.recv(Some(Duration::from_millis(10))), Ok(None));
        drop(tx);
        assert_eq!(rx.recv(Some(Duration::from_millis(10))), Err(Closed));
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = unbounded();
        let handle = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        for _ in 0..100 {
            got.push(rx.recv(None).unwrap().unwrap());
        }
        handle.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_try_send_reports_full() {
        let (tx, rx) = bounded(2);
        assert!(tx.try_send(1));
        assert!(tx.try_send(2));
        assert!(!tx.try_send(3));
        assert_eq!(rx.recv(None), Ok(Some(1)));
        assert!(tx.try_send(3));
        drop(rx);
        assert!(!tx.try_send(4));
    }

    #[test]
    fn bounded_send_blocks_until_space() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let handle = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.len(), 1);
        assert_eq!(rx.recv(None), Ok(Some(1)));
        assert_eq!(rx.recv(None), Ok(Some(2)));
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn blocked_send_observes_receiver_disconnect() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let handle = std::thread::spawn(move || tx.send_many([2, 3]));
        std::thread::sleep(Duration::from_millis(20));
        drop(rx);
        assert_eq!(handle.join().unwrap(), Err(Closed));
    }

    #[test]
    fn batch_send_and_recv() {
        let (tx, rx) = unbounded();
        assert_eq!(tx.send_many(0..5), Ok(5));
        let mut out = Vec::new();
        assert_eq!(rx.recv_batch(&mut out, 3), Ok(3));
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(rx.try_recv_batch(&mut out, 10), 2);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(rx.try_recv_batch(&mut out, 10), 0);
    }

    #[test]
    fn recv_batch_blocks_for_first_message() {
        let (tx, rx) = unbounded();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send_many([1, 2, 3]).unwrap();
        });
        let mut out = Vec::new();
        assert_eq!(rx.recv_batch(&mut out, 8), Ok(3));
        assert_eq!(out, vec![1, 2, 3]);
        handle.join().unwrap();
        assert_eq!(rx.recv_batch(&mut out, 8), Err(Closed));
    }

    /// The lost wake-up, forced rather than hoped for. The test thread
    /// plays a sender stalled between unlock and notify: it queues an
    /// item and takes the flag under the lock, as a push does, and holds
    /// back the notify. The receiver wakes at its timeout, takes the item
    /// and goes off to work; the late notify lands on nobody. The
    /// receiver's next wait is untimed, as the shard worker's is, and
    /// the next send must still end it.
    #[test]
    fn stalled_notify_does_not_strand_the_next_wait() {
        let (tx, rx) = unbounded::<u32>();
        let (drained_tx, drained) = mpsc::channel();
        let (work_done, go_wait) = mpsc::channel::<()>();
        let (got_tx, got) = mpsc::channel();
        let receiver = std::thread::spawn(move || {
            drained_tx
                .send(rx.recv(Some(Duration::from_millis(200))))
                .unwrap();
            go_wait.recv().unwrap();
            let mut out = Vec::new();
            let taken = rx.recv_batch(&mut out, 8);
            got_tx.send((taken, out)).unwrap();
        });
        until_parked(&tx.shared);
        {
            let mut state = tx.shared.lock();
            state.items.push_back(1);
            assert!(
                std::mem::take(&mut state.parked),
                "the stalled sender takes the flag"
            );
        }

        // No notify came: the receiver wakes at its timeout and takes
        // the item the stalled sender queued.
        assert_eq!(drained.recv_timeout(PATIENCE), Ok(Ok(Some(1))));
        tx.shared.ready.notify_all();

        work_done.send(()).unwrap();
        until_parked(&tx.shared);
        tx.send(3).unwrap();
        assert_eq!(
            got.recv_timeout(PATIENCE),
            Ok((Ok(1), vec![3])),
            "receiver left parked on a non-empty queue"
        );
        receiver.join().unwrap();
    }

    /// An item already queued is returned even when no time is left:
    /// `recv` pops before it looks at the clock.
    #[test]
    fn recv_timeout_zero_takes_a_queued_message() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(Some(Duration::ZERO)), Ok(Some(1)));
        assert_eq!(rx.recv(Some(Duration::ZERO)), Ok(Some(2)));
        assert_eq!(rx.recv(Some(Duration::ZERO)), Ok(None));
        drop(tx);
        assert_eq!(rx.recv(Some(Duration::ZERO)), Err(Closed));
    }

    /// Two threads waiting on one shared receiver: two rapid sends wake
    /// both, the second send finding the flag already taken.
    fn two_waiters_both_wake(timeout: Option<Duration>) {
        let (tx, rx) = unbounded();
        let got = watchdog(move || {
            std::thread::scope(|s| {
                let h1 = s.spawn(|| rx.recv(timeout));
                let h2 = s.spawn(|| rx.recv(timeout));
                until_parked(&tx.shared);
                std::thread::sleep(Duration::from_millis(20));
                tx.send(1).unwrap();
                tx.send(2).unwrap();
                [h1.join().unwrap(), h2.join().unwrap()]
            })
        });
        let mut got = got.map(|r| r.unwrap());
        got.sort_unstable();
        assert_eq!(got, [Some(1), Some(2)]);
    }

    #[test]
    fn two_blocked_recv_timeout_receivers_both_wake() {
        two_waiters_both_wake(Some(PATIENCE));
    }

    #[test]
    fn two_blocked_receivers_both_wake() {
        two_waiters_both_wake(None);
    }

    /// Dropping the receiver drops what it held, so a sender queued
    /// inside an item closes its own queue.
    #[test]
    fn dropping_the_receiver_drops_queued_items() {
        let (outer_tx, outer_rx) = unbounded::<Sender<u8>>();
        let (inner_tx, inner_rx) = unbounded::<u8>();
        outer_tx.send(inner_tx).unwrap();
        assert_eq!(inner_rx.recv(Some(Duration::ZERO)), Ok(None));
        drop(outer_rx);
        assert_eq!(inner_rx.recv(Some(PATIENCE)), Err(Closed));
    }

    /// Two senders (one by item, one by batch) and one receiver (by
    /// item and by batch) on a small bounded queue, every wait untimed:
    /// each sender's items arrive whole and in order.
    #[test]
    fn two_senders_one_receiver_untimed_stress() {
        const PER_SENDER: u32 = 20_000;
        let (tx, rx) = bounded::<(u8, u32)>(8);
        let next = watchdog(move || {
            let tx2 = tx.clone();
            let one = std::thread::spawn(move || {
                for n in 0..PER_SENDER {
                    tx.send((0, n)).unwrap();
                }
            });
            let many = std::thread::spawn(move || {
                for start in (0..PER_SENDER).step_by(5) {
                    tx2.send_many((start..start + 5).map(|n| (1, n))).unwrap();
                }
            });
            let mut next = [0u32; 2];
            let mut batch = Vec::new();
            loop {
                batch.clear();
                let taken = if next[0] % 2 == 0 {
                    rx.recv(None).map(|item| batch.extend(item))
                } else {
                    rx.recv_batch(&mut batch, 16).map(drop)
                };
                if taken.is_err() {
                    break;
                }
                for &(sender, n) in &batch {
                    assert_eq!(n, next[usize::from(sender)], "sender {sender} out of order");
                    next[usize::from(sender)] += 1;
                }
            }
            one.join().unwrap();
            many.join().unwrap();
            next
        });
        assert_eq!(next, [PER_SENDER; 2]);
    }
}
