//! A bounded MPMC request queue with blocking pops.
//!
//! The serving front end must never buffer unboundedly: when traffic
//! outruns the worker pool the queue fills and [`BoundedQueue::push`]
//! fails fast with [`PushError::Full`], which the connection layer
//! turns into an explicit `503 {"error":"busy"}` response —
//! backpressure the client can see, instead of latency quietly
//! diverging.
//!
//! Consumers take one item at a time: [`BoundedQueue::pop`] blocks on
//! the queue's condition variable until an item is available and
//! returns it at once. Nothing waits for more items to arrive.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity — shed load now, retry later.
    Full,
    /// The queue was closed for shutdown; no further work is accepted.
    Closed,
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Full => write!(f, "queue full"),
            PushError::Closed => write!(f, "queue closed"),
        }
    }
}

impl std::error::Error for PushError {}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A capacity-bounded multi-producer multi-consumer queue.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (clamped ≥ 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Current queue depth.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").items.len()
    }

    /// Enqueues `item` without blocking. Fails with
    /// [`PushError::Full`] at capacity and [`PushError::Closed`] after
    /// [`BoundedQueue::close`]; the item is dropped in both cases (the
    /// caller still owns the request context and reports the reject).
    pub fn push(&self, item: T) -> Result<(), PushError> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed {
            return Err(PushError::Closed);
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Takes the oldest item, blocking until one is available. Returns
    /// `None` only when the queue is closed and drained, which is the
    /// worker's signal to exit; items pushed before the close are
    /// still returned.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).expect("queue poisoned");
        }
    }

    /// Closes the queue: pending items remain poppable, further pushes
    /// fail, and blocked consumers wake up.
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn push_pop_roundtrip_in_order() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let q = BoundedQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3), Err(PushError::Full));
        assert_eq!(q.len(), 2);
        // Taking one item reopens capacity for exactly one.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.push(3), Ok(()));
        assert_eq!(q.push(4), Err(PushError::Full));
    }

    #[test]
    fn pop_takes_one_item_and_leaves_the_rest() {
        let q = BoundedQueue::new(16);
        for i in 0..10 {
            q.push(i).unwrap();
        }
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.len(), 9);
    }

    #[test]
    fn closed_and_drained_returns_none() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        q.push(7).unwrap();
        q.close();
        assert_eq!(q.push(8), Err(PushError::Closed));
        // Pending items still drain after close...
        assert_eq!(q.pop(), Some(7));
        // ...then the consumer is told to exit.
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_consumer_wakes_on_push_and_on_close() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || (q.pop(), q.pop()))
        };
        std::thread::sleep(Duration::from_millis(5));
        q.push(1).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        q.close();
        assert_eq!(
            consumer.join().unwrap(),
            (Some(1), None),
            "the consumer took the item, then saw the shutdown"
        );
    }

    #[test]
    fn close_with_a_blocked_consumer_or_pending_items_drains_everything() {
        // The race this pins: a consumer is blocked in `pop` (or about
        // to be) while producers push and then `close()` fires. Closure
        // must not eat the pending items — the consumer drains every
        // one, then sees the exit signal at once. A worker pool stuck
        // here would hang `ServerHandle::shutdown` forever.
        for round in 0..50 {
            let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(16));
            let consumer = {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(item) = q.pop() {
                        got.push(item);
                    }
                    got
                })
            };
            // Half the rounds let the consumer block on the empty queue
            // first; the rest race the pushes against its first pop.
            if round % 2 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            q.push(1).unwrap();
            q.push(2).unwrap();
            q.push(3).unwrap();
            q.close();
            assert_eq!(q.push(4), Err(PushError::Closed));
            let start = Instant::now();
            let got = consumer.join().unwrap();
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "consumer must exit on close"
            );
            assert_eq!(got, vec![1, 2, 3], "pending items survive the close");
            // Post-close pops report the shutdown immediately.
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn contended_producers_and_consumers_lose_nothing() {
        let q = Arc::new(BoundedQueue::new(1024));
        let n_producers = 4;
        let per_producer = 250u32;
        let producers: Vec<_> = (0..n_producers)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..per_producer {
                        loop {
                            match q.push(p * per_producer + i) {
                                Ok(()) => break,
                                Err(PushError::Full) => std::thread::yield_now(),
                                Err(PushError::Closed) => panic!("closed early"),
                            }
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(item) = q.pop() {
                        got.push(item);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u32> = Vec::new();
        for c in consumers {
            all.extend(c.join().unwrap());
        }
        all.sort_unstable();
        let expect: Vec<u32> = (0..n_producers * per_producer).collect();
        assert_eq!(all, expect, "every pushed item popped exactly once");
    }
}
