//! Simulation-aware synchronization.
//!
//! A simulated task must never hold an OS mutex across a park point: the
//! scheduler runs exactly one thread at a time, so a second task spinning on
//! an OS lock while holding the baton would freeze the whole simulation.
//! [`SimMutex`] parks contending *simulated* tasks instead, waking them in
//! FIFO order when the guard drops. Use it whenever a lock is held across
//! blocking I/O (socket writes, sleeps); plain `parking_lot` locks remain
//! fine for short, non-parking critical sections.

use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use crate::runtime::{ctx, Waker};

struct Inner<T: ?Sized> {
    ctl: Mutex<Ctl>,
    value: UnsafeCell<T>,
}

struct Ctl {
    locked: bool,
    waiters: VecDeque<Waker>,
}

// Safety: exclusivity of access to `value` is enforced by the `locked`
// flag; the control mutex orders flag transitions across threads.
unsafe impl<T: ?Sized + Send> Send for Inner<T> {}
unsafe impl<T: ?Sized + Send> Sync for Inner<T> {}

/// A mutex whose `lock` parks the calling *simulated task* (in simulated
/// time) instead of blocking the OS thread.
pub struct SimMutex<T: ?Sized> {
    inner: Arc<Inner<T>>,
}

impl<T> SimMutex<T> {
    pub fn new(value: T) -> SimMutex<T> {
        SimMutex {
            inner: Arc::new(Inner {
                ctl: Mutex::new(Ctl {
                    locked: false,
                    waiters: VecDeque::new(),
                }),
                value: UnsafeCell::new(value),
            }),
        }
    }
}

impl<T: ?Sized> Clone for SimMutex<T> {
    fn clone(&self) -> Self {
        SimMutex {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: ?Sized> SimMutex<T> {
    /// Acquire the lock, parking the calling task while contended.
    pub fn lock(&self) -> SimMutexGuard<'_, T> {
        loop {
            {
                let mut ctl = self.inner.ctl.lock();
                if !ctl.locked {
                    ctl.locked = true;
                    return SimMutexGuard { m: self };
                }
                ctl.waiters.push_back(ctx::waker());
            }
            ctx::park("sim-mutex");
        }
    }

    /// Are any tasks parked waiting for this lock? Release wakes the
    /// front waiter, but the wake is a scheduled event — a running task
    /// that releases and immediately re-acquires barges past it. Callers
    /// in such loops poll this (before dropping their guard) and yield
    /// the slice so the waiter actually gets its turn.
    pub fn has_waiters(&self) -> bool {
        !self.inner.ctl.lock().waiters.is_empty()
    }
}

/// RAII guard; unlocks and wakes the next waiter on drop.
pub struct SimMutexGuard<'a, T: ?Sized> {
    m: &'a SimMutex<T>,
}

impl<T: ?Sized> Drop for SimMutexGuard<'_, T> {
    fn drop(&mut self) {
        let mut ctl = self.m.inner.ctl.lock();
        ctl.locked = false;
        if let Some(w) = ctl.waiters.pop_front() {
            w.wake();
        }
    }
}

impl<T: ?Sized> Deref for SimMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Safety: guard holds the lock.
        unsafe { &*self.m.inner.value.get() }
    }
}

impl<T: ?Sized> DerefMut for SimMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // Safety: guard holds the lock exclusively.
        unsafe { &mut *self.m.inner.value.get() }
    }
}

/// A bounded FIFO queue for simulated tasks: `push` parks while full,
/// `pop` parks while empty. The workhorse behind message queues and stream
/// buffers in the grid runtime.
pub struct SimQueue<T> {
    inner: Arc<QueueInner<T>>,
}

struct QueueInner<T> {
    state: Mutex<QueueState<T>>,
}

struct QueueState<T> {
    items: VecDeque<T>,
    capacity: usize,
    closed: bool,
    push_waiters: VecDeque<Waker>,
    pop_waiters: VecDeque<Waker>,
}

impl<T> Clone for SimQueue<T> {
    fn clone(&self) -> Self {
        SimQueue {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> SimQueue<T> {
    pub fn bounded(capacity: usize) -> SimQueue<T> {
        assert!(capacity > 0);
        SimQueue {
            inner: Arc::new(QueueInner {
                state: Mutex::new(QueueState {
                    items: VecDeque::new(),
                    capacity,
                    closed: false,
                    push_waiters: VecDeque::new(),
                    pop_waiters: VecDeque::new(),
                }),
            }),
        }
    }

    /// Push, parking while the queue is full. Returns `Err(item)` if closed.
    pub fn push(&self, mut item: T) -> Result<(), T> {
        loop {
            {
                let mut st = self.inner.state.lock();
                if st.closed {
                    return Err(item);
                }
                if st.items.len() < st.capacity {
                    st.items.push_back(item);
                    if let Some(w) = st.pop_waiters.pop_front() {
                        w.wake();
                    }
                    return Ok(());
                }
                st.push_waiters.push_back(ctx::waker());
            }
            ctx::park("queue push");
            item = match self.try_reclaim(item) {
                Ok(()) => return Ok(()),
                Err(i) => i,
            };
        }
    }

    /// Non-blocking push. `Err(item)` when the queue is full or closed;
    /// callers that must not drop fall back to the parking [`push`](Self::push)
    /// after signalling backpressure out-of-band.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut st = self.inner.state.lock();
        if st.closed || st.items.len() >= st.capacity {
            return Err(item);
        }
        st.items.push_back(item);
        if let Some(w) = st.pop_waiters.pop_front() {
            w.wake();
        }
        Ok(())
    }

    // Helper so `push` can retry without re-borrowing issues.
    fn try_reclaim(&self, item: T) -> Result<(), T> {
        let mut st = self.inner.state.lock();
        if st.closed {
            return Err(item);
        }
        if st.items.len() < st.capacity {
            st.items.push_back(item);
            if let Some(w) = st.pop_waiters.pop_front() {
                w.wake();
            }
            Ok(())
        } else {
            Err(item)
        }
    }

    /// Pop, parking while empty. `None` when closed and drained.
    pub fn pop(&self) -> Option<T> {
        loop {
            {
                let mut st = self.inner.state.lock();
                if let Some(item) = st.items.pop_front() {
                    if let Some(w) = st.push_waiters.pop_front() {
                        w.wake();
                    }
                    return Some(item);
                }
                if st.closed {
                    return None;
                }
                st.pop_waiters.push_back(ctx::waker());
            }
            ctx::park("queue pop");
        }
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<T> {
        let mut st = self.inner.state.lock();
        let item = st.items.pop_front();
        if item.is_some() {
            if let Some(w) = st.push_waiters.pop_front() {
                w.wake();
            }
        }
        item
    }

    /// Close the queue: pending pops drain remaining items then see `None`;
    /// pushes fail.
    pub fn close(&self) {
        let mut st = self.inner.state.lock();
        st.closed = true;
        let mut wakers: Vec<Waker> = st.push_waiters.drain(..).collect();
        wakers.extend(st.pop_waiters.drain(..));
        drop(st);
        for w in wakers {
            w.wake();
        }
    }

    pub fn len(&self) -> usize {
        self.inner.state.lock().items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Has the queue been closed? (Items may still be draining.)
    pub fn is_closed(&self) -> bool {
        self.inner.state.lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Scheduler;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn mutex_serializes_critical_sections_across_parks() {
        let sched = Scheduler::new();
        let m = SimMutex::new(Vec::<u32>::new());
        for i in 0..3u32 {
            let m = m.clone();
            sched.spawn(format!("t{i}"), move || {
                let mut g = m.lock();
                g.push(i * 10);
                // Park (sleep) while holding the lock: contenders must wait
                // in simulated time, not spin.
                ctx::sleep(Duration::from_millis(10));
                g.push(i * 10 + 1);
            });
        }
        sched.run();
        let g = m.lock_outside();
        assert_eq!(
            *g,
            vec![0, 1, 10, 11, 20, 21],
            "no interleaving inside the lock"
        );
        assert_eq!(
            sched.now().as_nanos(),
            30_000_000,
            "three serialized 10ms sections"
        );
    }

    #[test]
    fn queue_backpressure_blocks_producer() {
        let sched = Scheduler::new();
        let q: SimQueue<u64> = SimQueue::bounded(2);
        let produced = Arc::new(AtomicUsize::new(0));
        {
            let q = q.clone();
            let produced = Arc::clone(&produced);
            sched.spawn("producer", move || {
                for i in 0..6 {
                    q.push(i).unwrap();
                    produced.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        {
            let q = q.clone();
            sched.spawn("consumer", move || {
                for expect in 0..6 {
                    ctx::sleep(Duration::from_millis(5));
                    assert_eq!(q.pop(), Some(expect));
                }
            });
        }
        sched.run();
        assert_eq!(produced.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn queue_close_wakes_blocked_pop() {
        let sched = Scheduler::new();
        let q: SimQueue<u8> = SimQueue::bounded(1);
        {
            let q = q.clone();
            sched.spawn("popper", move || {
                assert_eq!(q.pop(), None, "close with no items yields None");
            });
        }
        {
            let q = q.clone();
            sched.spawn("closer", move || {
                ctx::sleep(Duration::from_millis(1));
                q.close();
            });
        }
        sched.run();
    }

    #[test]
    fn try_push_refuses_full_or_closed_without_parking() {
        let sched = Scheduler::new();
        let q: SimQueue<u8> = SimQueue::bounded(2);
        {
            let q = q.clone();
            sched.spawn("t", move || {
                assert!(q.try_push(1).is_ok());
                assert!(q.try_push(2).is_ok());
                assert_eq!(q.try_push(3), Err(3), "full queue refuses");
                assert_eq!(q.pop(), Some(1));
                assert!(q.try_push(3).is_ok(), "room again after pop");
                q.close();
                assert_eq!(q.try_push(4), Err(4), "closed queue refuses");
            });
        }
        sched.run();
    }

    #[test]
    fn queue_drains_remaining_items_after_close() {
        let sched = Scheduler::new();
        let q: SimQueue<u8> = SimQueue::bounded(4);
        {
            let q = q.clone();
            sched.spawn("t", move || {
                q.push(1).unwrap();
                q.push(2).unwrap();
                q.close();
                assert_eq!(q.pop(), Some(1));
                assert_eq!(q.pop(), Some(2));
                assert_eq!(q.pop(), None);
                assert!(q.push(3).is_err());
            });
        }
        sched.run();
    }

    impl<T> SimMutex<T> {
        /// Test helper: lock from outside the simulation (single-threaded
        /// by then).
        fn lock_outside(&self) -> SimMutexGuard<'_, T> {
            let mut ctl = self.inner.ctl.lock();
            assert!(!ctl.locked, "uncontended after run");
            ctl.locked = true;
            SimMutexGuard { m: self }
        }
    }
}
