//! A bounded multi-producer/multi-consumer job queue.
//!
//! [`JobQueue`] is the intake of every serving shard: producers block in
//! [`JobQueue::push`] while the queue is at capacity (backpressure — jobs
//! are never dropped), consumers block in [`JobQueue::pop`] while it is
//! empty, and [`JobQueue::close`] wakes everyone for graceful shutdown
//! (pushes start failing, pops drain the remainder and then return
//! `None`). The implementation is a `Mutex<VecDeque>` with two condition
//! variables — deliberately boring, offline-friendly, and `unsafe`-free;
//! the jobs it carries are far coarser-grained than the queue itself, so
//! lock-free cleverness would buy nothing.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// Error returned by [`JobQueue::push`] on a closed queue; carries the
/// rejected item back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct QueueClosed<T>(pub T);

/// Error returned by [`JobQueue::try_push`].
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// The queue is at capacity; a blocking [`JobQueue::push`] would wait.
    Full(T),
    /// The queue is closed and accepts nothing more.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

/// A bounded MPMC queue handle. Clones share the same queue; any handle
/// may push, pop or close.
///
/// ```
/// use uw_serve::queue::JobQueue;
///
/// let queue = JobQueue::bounded(2);
/// let consumer = queue.clone();
/// let worker = std::thread::spawn(move || {
///     let mut seen = Vec::new();
///     while let Some(item) = consumer.pop() {
///         seen.push(item);
///     }
///     seen
/// });
/// for job in 0..5 {
///     queue.push(job).unwrap(); // blocks whenever the worker falls behind
/// }
/// queue.close();
/// assert_eq!(worker.join().unwrap(), vec![0, 1, 2, 3, 4]);
/// ```
pub struct JobQueue<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for JobQueue<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> JobQueue<T> {
    /// Creates a queue with no practical capacity bound: pushes never
    /// block. Used for the server's update stream, where emitting must
    /// never stall a worker (consumers that fall behind cost memory, not
    /// correctness).
    pub fn unbounded() -> Self {
        Self::bounded(usize::MAX)
    }

    /// Creates a queue holding at most `capacity` items (clamped to ≥ 1).
    pub fn bounded(capacity: usize) -> Self {
        Self {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    items: VecDeque::new(),
                    closed: false,
                }),
                not_full: Condvar::new(),
                not_empty: Condvar::new(),
                capacity: capacity.max(1),
            }),
        }
    }

    /// Maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.inner.state.lock().expect("queue lock").items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues an item, blocking while the queue is at capacity
    /// (backpressure: producers wait, items are never dropped). Fails only
    /// on a closed queue, returning the item.
    pub fn push(&self, item: T) -> Result<(), QueueClosed<T>> {
        let mut state = self.inner.state.lock().expect("queue lock");
        loop {
            if state.closed {
                return Err(QueueClosed(item));
            }
            if state.items.len() < self.inner.capacity {
                state.items.push_back(item);
                self.inner.not_empty.notify_one();
                return Ok(());
            }
            state = self.inner.not_full.wait(state).expect("queue lock");
        }
    }

    /// Enqueues without blocking; fails when full or closed.
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut state = self.inner.state.lock().expect("queue lock");
        if state.closed {
            return Err(TryPushError::Closed(item));
        }
        if state.items.len() >= self.inner.capacity {
            return Err(TryPushError::Full(item));
        }
        state.items.push_back(item);
        self.inner.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is empty.
    /// Returns `None` once the queue is closed *and* drained, so consumer
    /// loops terminate cleanly on shutdown.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.inner.state.lock().expect("queue lock");
        loop {
            if let Some(item) = state.items.pop_front() {
                self.inner.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.inner.not_empty.wait(state).expect("queue lock");
        }
    }

    /// Dequeues without blocking; `None` when empty (closed or not).
    pub fn try_pop(&self) -> Option<T> {
        let mut state = self.inner.state.lock().expect("queue lock");
        let item = state.items.pop_front();
        if item.is_some() {
            self.inner.not_full.notify_one();
        }
        item
    }

    /// Closes the queue: subsequent pushes fail, queued items remain
    /// poppable, and every blocked producer/consumer is woken.
    pub fn close(&self) {
        let mut state = self.inner.state.lock().expect("queue lock");
        state.closed = true;
        self.inner.not_full.notify_all();
        self.inner.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn fifo_order_within_a_producer() {
        let q = JobQueue::bounded(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 5);
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn push_blocks_at_capacity_until_a_pop_frees_space() {
        let q = JobQueue::bounded(1);
        q.push(0usize).unwrap();
        let producer_done = Arc::new(AtomicUsize::new(0));
        let done = Arc::clone(&producer_done);
        let q2 = q.clone();
        let producer = std::thread::spawn(move || {
            q2.push(1).unwrap(); // must block: capacity 1, queue full
            done.store(1, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            producer_done.load(Ordering::SeqCst),
            0,
            "push did not block"
        );
        assert_eq!(q.pop(), Some(0));
        producer.join().unwrap();
        assert_eq!(producer_done.load(Ordering::SeqCst), 1);
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn try_push_reports_full_and_closed() {
        let q = JobQueue::bounded(1);
        q.try_push(1).unwrap();
        assert_eq!(q.try_push(2), Err(TryPushError::Full(2)));
        q.close();
        assert_eq!(q.try_push(3), Err(TryPushError::Closed(3)));
        // Queued items survive the close.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q: JobQueue<usize> = JobQueue::bounded(4);
        let q2 = q.clone();
        let consumer = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
        assert_eq!(q.push(9), Err(QueueClosed(9)));
    }

    #[test]
    fn close_wakes_blocked_producers_with_an_error() {
        // A push blocked on a full queue must wake and fail on close(),
        // not deadlock: close() flips `closed` under the lock and
        // notifies `not_full`, and the push loop re-checks `closed`
        // before re-checking capacity.
        let q = JobQueue::bounded(1);
        q.push(0usize).unwrap();
        let n_blocked = 3;
        let woken = Arc::new(AtomicUsize::new(0));
        let mut producers = Vec::new();
        for i in 0..n_blocked {
            let q = q.clone();
            let woken = Arc::clone(&woken);
            producers.push(std::thread::spawn(move || {
                let result = q.push(i + 1); // blocks: capacity 1, queue full
                woken.fetch_add(1, Ordering::SeqCst);
                result
            }));
        }
        // Let every producer reach the blocked wait.
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(woken.load(Ordering::SeqCst), 0, "pushes did not block");
        q.close();
        for (i, p) in producers.into_iter().enumerate() {
            // join() would hang forever on the historical deadlock; the
            // harness timeout is the backstop, the assertions the spec.
            let result = p.join().unwrap();
            assert_eq!(result, Err(QueueClosed(i + 1)));
        }
        assert_eq!(woken.load(Ordering::SeqCst), n_blocked);
        // The pre-close item survives; the blocked items were returned to
        // their callers, not enqueued and not dropped silently.
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn many_producers_many_consumers_lose_nothing() {
        let q = JobQueue::bounded(3);
        let n_producers = 4;
        let per_producer = 25;
        let consumed = Arc::new(AtomicUsize::new(0));
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let q = q.clone();
            let consumed = Arc::clone(&consumed);
            consumers.push(std::thread::spawn(move || {
                while q.pop().is_some() {
                    consumed.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        let mut producers = Vec::new();
        for p in 0..n_producers {
            let q = q.clone();
            producers.push(std::thread::spawn(move || {
                for i in 0..per_producer {
                    q.push(p * per_producer + i).unwrap();
                }
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(consumed.load(Ordering::SeqCst), n_producers * per_producer);
    }
}
