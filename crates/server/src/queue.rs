//! A bounded MPMC queue of accepted connections — the server's
//! backpressure point.
//!
//! The acceptor `try_push`es; when the queue is full the connection is
//! rejected immediately with `429 Too Many Requests` instead of queueing
//! unbounded work. Workers `pop` (blocking) and drain whatever is left
//! after [`BoundedQueue::close`], so graceful shutdown finishes every
//! connection that was accepted before the signal.
//!
//! Std-only (`Mutex` + `Condvar`): every worker pops from the one queue,
//! and a `std::sync::mpsc` receiver cannot be shared between them.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded FIFO usable from any number of producer and consumer threads.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

/// Why a `try_push` was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back for the caller's
    /// overload response.
    Full(T),
    /// The queue has been closed; no new work is accepted.
    Closed(T),
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner { items: VecDeque::new(), closed: false }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues without blocking; refuses when full or closed.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock().expect("queue mutex poisoned");
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues, blocking until an item arrives or the queue is closed
    /// *and* drained (then `None` — the consumer's exit signal).
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue mutex poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            // A timeout guards against a missed notify under shutdown races;
            // the loop re-checks state either way.
            let (guard, _) = self
                .not_empty
                .wait_timeout(inner, Duration::from_millis(100))
                .expect("queue mutex poisoned");
            inner = guard;
        }
    }

    /// Number of items currently waiting.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue mutex poisoned").items.len()
    }

    /// True when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: future pushes fail, consumers drain what remains
    /// and then observe `None`.
    pub fn close(&self) {
        self.inner.lock().expect("queue mutex poisoned").closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_capacity() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = BoundedQueue::new(4);
        q.try_push("a").unwrap();
        q.close();
        assert_eq!(q.try_push("b"), Err(PushError::Closed("b")));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let q = Arc::new(BoundedQueue::new(8));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..100u32 {
                        let mut item = p * 1000 + i;
                        // Spin on Full: the consumers guarantee progress.
                        loop {
                            match q.try_push(item) {
                                Ok(()) => break,
                                Err(PushError::Full(v)) => {
                                    item = v;
                                    std::thread::yield_now();
                                }
                                Err(PushError::Closed(_)) => panic!("closed early"),
                            }
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap().len()).sum();
        assert_eq!(total, 400);
    }
}
