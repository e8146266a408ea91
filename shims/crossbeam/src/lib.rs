//! Offline shim for `crossbeam`, providing the `channel` module used by
//! the backbone broker: unbounded and bounded MPMC channels built on
//! `Mutex<VecDeque>` + `Condvar`, with disconnect detection,
//! non-blocking sends, timed receives, and batch extensions (`send_many`,
//! `try_send_many`, `recv_batch`) that move several
//! messages under a single lock acquisition — the primitive the broker's
//! batched fan-out dispatch is built on.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        /// Signalled when the queue gains a message.
        available: Condvar,
        /// Signalled when a bounded queue gains free space.
        space: Condvar,
        /// `None` = unbounded.
        cap: Option<usize>,
        senders: AtomicUsize,
        receivers: AtomicUsize,
        /// Receivers currently blocked in `wait`. Senders skip the
        /// condvar entirely when this is zero — `notify_one` performs a
        /// wake syscall even with no waiters, which would otherwise
        /// dominate high-fan-out publish paths whose consumers poll.
        /// Read and written only with the queue lock held.
        waiters: AtomicUsize,
        /// Senders currently blocked waiting for space.
        send_waiters: AtomicUsize,
        /// Set when a receiver wake is already in flight; collapses the
        /// one-syscall-per-push storm a producer would otherwise cause
        /// while the consumer is runnable but not yet scheduled.
        ///
        /// Read and written only with the queue lock held, like
        /// `waiters`: a sender that raised it has seen, under the lock, a
        /// receiver that is still counted in `waiters`, and every such
        /// receiver lowers it again when it next takes the lock. Deciding
        /// outside the lock let a receiver wake, lower the flag, drain the
        /// queue and get on with its work between a sender's look at
        /// `waiters` and its raising of the flag; the flag then stayed up
        /// with nobody left to lower it, every later send skipped its
        /// notify, and the receiver's next untimed wait never ended.
        notify_pending: AtomicBool,
        /// Test hook: run once by the next sender that has claimed a
        /// wake-up, after it released the queue and before it notifies.
        #[cfg(test)]
        before_notify: Mutex<Option<Box<dyn FnOnce() + Send>>>,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
            self.queue.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// After a push, with the queue lock held (the guard is the
        /// proof): whether this sender is the one to wake a receiver —
        /// one is blocked and no wake is pending. With no receiver
        /// blocked this is two loads and no syscall.
        fn claim_wake(&self, _held: &MutexGuard<'_, VecDeque<T>>) -> bool {
            self.waiters.load(Ordering::SeqCst) > 0
                && !self.notify_pending.swap(true, Ordering::SeqCst)
        }

        /// Ends a push: decides about the wake-up under the lock,
        /// releases the queue, then notifies — outside the lock, so the
        /// woken receiver does not run straight into it.
        fn unlock_and_wake(&self, queue: MutexGuard<'_, VecDeque<T>>) {
            let wake = self.claim_wake(&queue);
            drop(queue);
            if wake {
                #[cfg(test)]
                {
                    let hook = self.before_notify.lock().unwrap().take();
                    if let Some(hook) = hook {
                        hook();
                    }
                }
                self.available.notify_one();
            }
        }

        /// After popping `freed` messages: chain-wake a further receiver
        /// if messages remain (a collapsed notify may have stood for
        /// several pushes), and wake senders blocked on space — all of
        /// them when a batch drain freed several slots, since each woken
        /// sender re-checks capacity under the lock anyway and a single
        /// `notify_one` would leave the rest asleep for a whole batch
        /// cycle.
        fn after_pop(&self, queue: &VecDeque<T>, freed: usize) {
            if !queue.is_empty() && self.waiters.load(Ordering::SeqCst) > 0 {
                self.available.notify_one();
            }
            if self.send_waiters.load(Ordering::SeqCst) > 0 {
                if freed > 1 {
                    self.space.notify_all();
                } else {
                    self.space.notify_one();
                }
            }
        }

        fn is_full(&self, queue: &VecDeque<T>) -> bool {
            self.cap.is_some_and(|cap| queue.len() >= cap)
        }
    }

    /// The sending half of a channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Error returned by [`Sender::send`] when every receiver is gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Sender::try_send`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The bounded channel is at capacity.
        Full(T),
        /// Every receiver is gone.
        Disconnected(T),
    }

    /// Error returned by [`Receiver::recv`] when every sender is gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// Every sender is gone and the channel is drained.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// Every sender is gone and the channel is drained.
        Disconnected,
    }

    fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            space: Condvar::new(),
            cap,
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
            waiters: AtomicUsize::new(0),
            send_waiters: AtomicUsize::new(0),
            notify_pending: AtomicBool::new(false),
            #[cfg(test)]
            before_notify: Mutex::new(None),
        });
        (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    /// Creates a bounded channel holding at most `cap` messages.
    ///
    /// # Panics
    ///
    /// `cap` must be at least 1; the zero-capacity rendezvous channel of
    /// real crossbeam is not supported by this shim.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        assert!(cap >= 1, "zero-capacity channels are not supported by this shim");
        channel(Some(cap))
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::SeqCst);
            Sender { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last sender: wake blocked receivers so they observe the
                // disconnect.
                self.shared.available.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::SeqCst);
            Receiver { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.shared.receivers.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last receiver: wake senders blocked on space so they
                // observe the disconnect.
                self.shared.space.notify_all();
            }
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

    impl<T> Sender<T> {
        /// Enqueues a message, blocking while a bounded channel is full;
        /// fails if every receiver has hung up.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut queue = self.shared.lock();
            loop {
                if self.shared.receivers.load(Ordering::SeqCst) == 0 {
                    return Err(SendError(value));
                }
                if !self.shared.is_full(&queue) {
                    queue.push_back(value);
                    self.shared.unlock_and_wake(queue);
                    return Ok(());
                }
                self.shared.send_waiters.fetch_add(1, Ordering::SeqCst);
                let woken =
                    self.shared.space.wait(queue).unwrap_or_else(PoisonError::into_inner);
                self.shared.send_waiters.fetch_sub(1, Ordering::SeqCst);
                queue = woken;
            }
        }

        /// Enqueues without blocking; fails with `Full` when a bounded
        /// channel is at capacity.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut queue = self.shared.lock();
            if self.shared.receivers.load(Ordering::SeqCst) == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if self.shared.is_full(&queue) {
                return Err(TrySendError::Full(value));
            }
            queue.push_back(value);
            self.shared.unlock_and_wake(queue);
            Ok(())
        }

        /// Shim extension: enqueues every message of `values` under a
        /// single lock acquisition, blocking for space as needed. Returns
        /// the number enqueued; on disconnect the remaining messages are
        /// dropped.
        pub fn send_many<I>(&self, values: I) -> Result<usize, SendError<usize>>
        where
            I: IntoIterator<Item = T>,
        {
            let mut queue = self.shared.lock();
            let mut pushed = 0usize;
            for value in values {
                loop {
                    if self.shared.receivers.load(Ordering::SeqCst) == 0 {
                        return Err(SendError(pushed));
                    }
                    if !self.shared.is_full(&queue) {
                        queue.push_back(value);
                        pushed += 1;
                        // Before this sender can block for space: the
                        // receiver that will make it must be awake.
                        if self.shared.claim_wake(&queue) {
                            self.shared.available.notify_one();
                        }
                        break;
                    }
                    self.shared.send_waiters.fetch_add(1, Ordering::SeqCst);
                    let woken = self
                        .shared
                        .space
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                    self.shared.send_waiters.fetch_sub(1, Ordering::SeqCst);
                    queue = woken;
                }
            }
            drop(queue);
            Ok(pushed)
        }

        /// Shim extension: enqueues messages under a single lock
        /// acquisition until the channel fills, dropping the rest.
        /// Returns the number accepted; fails only when every receiver
        /// is gone, so an empty batch probes for a disconnect.
        pub fn try_send_many<I>(&self, values: I) -> Result<usize, SendError<usize>>
        where
            I: IntoIterator<Item = T>,
        {
            let mut queue = self.shared.lock();
            if self.shared.receivers.load(Ordering::SeqCst) == 0 {
                return Err(SendError(0));
            }
            let mut pushed = 0usize;
            for value in values {
                if self.shared.is_full(&queue) {
                    break;
                }
                queue.push_back(value);
                pushed += 1;
            }
            if pushed > 0 {
                self.shared.unlock_and_wake(queue);
            }
            Ok(pushed)
        }
    }

    impl<T> Receiver<T> {
        /// Pops under the lock, running the chain-wake / space-wake
        /// protocol on success.
        fn pop(&self, queue: &mut MutexGuard<'_, VecDeque<T>>) -> Option<T> {
            let value = queue.pop_front()?;
            self.shared.after_pop(queue, 1);
            Some(value)
        }

        /// Blocks until a message arrives or every sender disconnects.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self.shared.lock();
            loop {
                if let Some(value) = self.pop(&mut queue) {
                    return Ok(value);
                }
                if self.shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                self.shared.waiters.fetch_add(1, Ordering::SeqCst);
                let woken = self
                    .shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
                self.shared.waiters.fetch_sub(1, Ordering::SeqCst);
                self.shared.notify_pending.store(false, Ordering::SeqCst);
                queue = woken;
            }
        }

        /// Waits up to `timeout` for a message. A message already queued
        /// is popped without reading the clock; the deadline is fixed
        /// when the first wait begins.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let mut queue = self.shared.lock();
            let mut deadline = None;
            loop {
                if let Some(value) = self.pop(&mut queue) {
                    return Ok(value);
                }
                if self.shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                let deadline = *deadline.get_or_insert(now + timeout);
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                self.shared.waiters.fetch_add(1, Ordering::SeqCst);
                let (guard, _) = self
                    .shared
                    .available
                    .wait_timeout(queue, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                self.shared.waiters.fetch_sub(1, Ordering::SeqCst);
                self.shared.notify_pending.store(false, Ordering::SeqCst);
                queue = guard;
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut queue = self.shared.lock();
            match self.pop(&mut queue) {
                Some(value) => Ok(value),
                None if self.shared.senders.load(Ordering::SeqCst) == 0 => {
                    Err(TryRecvError::Disconnected)
                }
                None => Err(TryRecvError::Empty),
            }
        }

        /// Shim extension: blocks until at least one message is
        /// available, then drains up to `max` messages into `out` under a
        /// single lock acquisition (appending; `out` is not cleared).
        /// Returns the number received. This is the consuming half of
        /// batched dispatch: a worker pays one lock per batch instead of
        /// one per message.
        pub fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> Result<usize, RecvError> {
            debug_assert!(max >= 1);
            let mut queue = self.shared.lock();
            loop {
                if !queue.is_empty() {
                    let take = queue.len().min(max);
                    out.extend(queue.drain(..take));
                    self.shared.after_pop(&queue, take);
                    return Ok(take);
                }
                if self.shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                self.shared.waiters.fetch_add(1, Ordering::SeqCst);
                let woken = self
                    .shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
                self.shared.waiters.fetch_sub(1, Ordering::SeqCst);
                self.shared.notify_pending.store(false, Ordering::SeqCst);
                queue = woken;
            }
        }

        /// Shim extension: non-blocking batch drain — pops up to `max`
        /// messages into `out` (appending) under a single lock
        /// acquisition, without waiting. Returns the number received,
        /// which is 0 both for an empty live channel and a drained
        /// disconnected one; callers that must distinguish fall back to
        /// [`recv_batch`](Receiver::recv_batch). This is the polling
        /// half of spin-then-park consumers: while they poll, senders
        /// skip wake syscalls entirely.
        pub fn try_recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
            let mut queue = self.shared.lock();
            let take = queue.len().min(max);
            if take > 0 {
                out.extend(queue.drain(..take));
                self.shared.after_pop(&queue, take);
            }
            take
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.shared.lock().len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_in_order() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_is_observed_both_ways() {
            let (tx, rx) = unbounded::<u8>();
            drop(rx);
            assert_eq!(tx.send(1), Err(SendError(1)));

            let (tx, rx) = unbounded::<u8>();
            tx.send(9).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(9));
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn timeout_elapses_without_messages() {
            let (tx, rx) = unbounded::<u8>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            drop(tx);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Disconnected)
            );
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
                got.push(rx.recv().unwrap());
            }
            handle.join().unwrap();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        }

        #[test]
        fn bounded_try_send_reports_full() {
            let (tx, rx) = bounded(2);
            tx.try_send(1).unwrap();
            tx.try_send(2).unwrap();
            assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
            assert_eq!(rx.recv(), Ok(1));
            tx.try_send(3).unwrap();
            drop(rx);
            assert_eq!(tx.try_send(4), Err(TrySendError::Disconnected(4)));
        }

        #[test]
        fn bounded_send_blocks_until_space() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let handle = std::thread::spawn(move || tx.send(2));
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            handle.join().unwrap().unwrap();
        }

        #[test]
        fn blocked_send_observes_receiver_disconnect() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let handle = std::thread::spawn(move || tx.send(2));
            std::thread::sleep(Duration::from_millis(20));
            drop(rx);
            assert_eq!(handle.join().unwrap(), Err(SendError(2)));
        }

        #[test]
        fn batch_send_and_recv() {
            let (tx, rx) = unbounded();
            assert_eq!(tx.send_many(0..5), Ok(5));
            let mut out = Vec::new();
            assert_eq!(rx.recv_batch(&mut out, 3), Ok(3));
            assert_eq!(out, vec![0, 1, 2]);
            assert_eq!(rx.recv_batch(&mut out, 10), Ok(2));
            assert_eq!(out, vec![0, 1, 2, 3, 4]);
        }

        #[test]
        fn try_send_many_stops_at_capacity() {
            let (tx, rx) = bounded(3);
            assert_eq!(tx.try_send_many(0..10), Ok(3));
            assert_eq!(rx.len(), 3);
            let mut out = Vec::new();
            rx.recv_batch(&mut out, 10).unwrap();
            assert_eq!(out, vec![0, 1, 2]);
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
            assert_eq!(rx.recv_batch(&mut out, 8), Err(RecvError));
        }

        /// The lost wake-up that left a broker shard worker parked in an
        /// untimed `recv_batch` on a non-empty queue. The schedule is
        /// forced, not hoped for: a sender claims the wake-up for a
        /// parked receiver and stalls before delivering it; the receiver
        /// is woken another way (a chain wake), takes what is queued and
        /// goes off to work; the stalled notify then lands on nobody.
        /// Whatever the flag says at that point, the receiver's next
        /// untimed wait must still end when something is sent.
        #[test]
        fn stalled_notify_does_not_strand_the_next_wait() {
            fn until_parked<T>(shared: &Shared<T>) {
                while shared.waiters.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
            }
            let patience = Duration::from_secs(10);
            let (tx, rx) = unbounded::<u32>();
            let (claimed_tx, claimed) = std::sync::mpsc::channel();
            let (resume, resumed) = std::sync::mpsc::channel::<()>();
            *tx.shared.before_notify.lock().unwrap() = Some(Box::new(move || {
                claimed_tx.send(()).unwrap();
                resumed.recv().unwrap();
            }));

            let parked = {
                let rx = rx.clone();
                std::thread::spawn(move || rx.recv())
            };
            until_parked(&tx.shared);
            let stalled = {
                let tx = tx.clone();
                std::thread::spawn(move || tx.send(1))
            };
            claimed.recv_timeout(patience).expect("a sender claims the wake-up");

            // A second message (its sender sees a wake pending and skips
            // the notify), then a pop by another receiver: messages
            // remain and a receiver is blocked, so the pop chain-wakes it.
            tx.send(2).unwrap();
            let polled = rx.try_recv().unwrap();
            let woken = parked.join().unwrap().unwrap();
            assert_eq!((polled.min(woken), polled.max(woken)), (1, 2));

            // The receiver is off working; the stalled notify finds nobody.
            resume.send(()).unwrap();
            stalled.join().unwrap().unwrap();

            // Its next wait is untimed, as the shard worker's is.
            let (got_tx, got) = std::sync::mpsc::channel();
            let worker = std::thread::spawn(move || {
                let mut out = Vec::new();
                let taken = rx.recv_batch(&mut out, 8);
                got_tx.send((taken, out)).unwrap();
            });
            until_parked(&tx.shared);
            tx.send(3).unwrap();
            assert_eq!(
                got.recv_timeout(patience),
                Ok((Ok(1), vec![3])),
                "receiver left parked on a non-empty queue"
            );
            worker.join().unwrap();
        }

        /// A message already queued is returned even when no time is
        /// left: `recv_timeout` pops before it looks at the clock.
        #[test]
        fn recv_timeout_zero_takes_a_queued_message() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv_timeout(Duration::ZERO), Ok(1));
            assert_eq!(rx.recv_timeout(Duration::ZERO), Ok(2));
            assert_eq!(
                rx.recv_timeout(Duration::ZERO),
                Err(RecvTimeoutError::Timeout)
            );
            drop(tx);
            assert_eq!(
                rx.recv_timeout(Duration::ZERO),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        /// The pop fast path keeps the chain wake: a `recv_timeout` that
        /// leaves messages behind wakes the other blocked receiver.
        #[test]
        fn two_blocked_recv_timeout_receivers_both_wake() {
            let patience = Duration::from_secs(10);
            let (tx, rx) = unbounded();
            let rx2 = rx.clone();
            let h1 = std::thread::spawn(move || rx.recv_timeout(patience));
            let h2 = std::thread::spawn(move || rx2.recv_timeout(patience));
            while tx.shared.waiters.load(Ordering::SeqCst) < 2 {
                std::thread::yield_now();
            }
            // Two rapid sends: the second usually finds a wake pending and
            // skips its notify, so only the first receiver's pop wakes the
            // second (which otherwise times out, and the unwrap fails).
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            let mut got = vec![h1.join().unwrap().unwrap(), h2.join().unwrap().unwrap()];
            got.sort_unstable();
            assert_eq!(got, vec![1, 2]);
        }

        #[test]
        fn two_blocked_receivers_both_wake() {
            let (tx, rx) = unbounded();
            let rx2 = rx.clone();
            let h1 = std::thread::spawn(move || rx.recv());
            let h2 = std::thread::spawn(move || rx2.recv());
            std::thread::sleep(Duration::from_millis(20));
            // Two rapid sends: the collapsed-notify protocol must still
            // wake both receivers (chain wake on pop).
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            let mut got = vec![h1.join().unwrap().unwrap(), h2.join().unwrap().unwrap()];
            got.sort_unstable();
            assert_eq!(got, vec![1, 2]);
        }
    }
}
