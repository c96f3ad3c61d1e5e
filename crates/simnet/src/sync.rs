//! Simulation-aware synchronization.
//!
//! A simulated task must never hold an OS mutex across a park point: the
//! scheduler runs exactly one thread at a time, so a second task spinning on
//! an OS lock while holding the baton would freeze the whole simulation.
//! [`SimMutex`] parks contending *simulated* tasks instead, waking them in
//! FIFO order when the guard drops. Use it whenever a lock is held across
//! blocking I/O (socket writes, sleeps); plain `parking_lot` locks remain
//! fine for short, non-parking critical sections.
//!
//! Each blocking call is its poll plus one park: [`SimMutex::lock`] is
//! [`SimMutex::poll_lock`], [`SimQueue::push`] / [`SimQueue::pop`] are
//! `poll_push` / `poll_pop`. An async task awaits the poll alone
//! (`ctx::wait`, with the same reason); a mutex guard owns its mutex, so
//! the task can hold it across that wait.

use parking_lot::Mutex;
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::{Acquire, Relaxed};
use std::sync::Arc;
use std::task::Poll;

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
    /// What a task blocked in [`lock`](Self::lock) is parked on: the park
    /// reason, and what a `Pending` from [`poll_lock`](Self::poll_lock)
    /// stands for.
    pub const LOCK_WAIT: &'static str = "sim-mutex";

    /// Acquire the lock, parking the calling task while contended.
    pub fn lock(&self) -> SimMutexGuard<T> {
        ctx::park_until(Self::LOCK_WAIT, || self.poll_lock())
    }

    /// Acquire the lock without parking: the guard, or `Pending` with the
    /// calling task's waker queued for an unlock. The guard holds
    /// the mutex itself, so an async task can keep it across a wait.
    pub fn poll_lock(&self) -> Poll<SimMutexGuard<T>> {
        let mut ctl = self.inner.ctl.lock();
        if !ctl.locked {
            ctl.locked = true;
            return Poll::Ready(SimMutexGuard { m: self.clone() });
        }
        ctl.waiters.push_back(ctx::waker());
        Poll::Pending
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
pub struct SimMutexGuard<T: ?Sized> {
    m: SimMutex<T>,
}

impl<T: ?Sized> Drop for SimMutexGuard<T> {
    fn drop(&mut self) {
        let mut ctl = self.m.inner.ctl.lock();
        ctl.locked = false;
        if let Some(w) = ctl.waiters.pop_front() {
            w.wake();
        }
    }
}

impl<T: ?Sized> Deref for SimMutexGuard<T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Safety: guard holds the lock.
        unsafe { &*self.m.inner.value.get() }
    }
}

impl<T: ?Sized> DerefMut for SimMutexGuard<T> {
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

    /// What a task blocked in [`pop`](Self::pop) is parked on: the park
    /// reason, and the would-block reason of [`poll_pop`](Self::poll_pop).
    pub const POP_WAIT: &'static str = "queue pop";
    /// As [`POP_WAIT`](Self::POP_WAIT), for a push into a full queue.
    pub const PUSH_WAIT: &'static str = "queue push";

    /// Push, parking while the queue is full. Returns `Err(item)` if closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut slot = Some(item);
        ctx::park_until(Self::PUSH_WAIT, || self.poll_push(&mut slot))
    }

    /// Push the item in `slot` without parking: `Ready(Ok)` with `slot`
    /// emptied, `Ready(Err(item))` if the queue is closed, or `Pending`
    /// with the item left in `slot` and the calling task's waker registered
    /// for the room a pop makes.
    pub fn poll_push(&self, slot: &mut Option<T>) -> Poll<Result<(), T>> {
        let mut st = self.inner.state.lock();
        let Some(item) = slot.take() else {
            return Poll::Ready(Ok(()));
        };
        if st.closed {
            return Poll::Ready(Err(item));
        }
        if st.items.len() < st.capacity {
            st.items.push_back(item);
            if let Some(w) = st.pop_waiters.pop_front() {
                w.wake();
            }
            return Poll::Ready(Ok(()));
        }
        *slot = Some(item);
        st.push_waiters.push_back(ctx::waker());
        Poll::Pending
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

    /// Pop, parking while empty. `None` when closed and drained.
    pub fn pop(&self) -> Option<T> {
        ctx::park_until(Self::POP_WAIT, || self.poll_pop())
    }

    /// Pop without parking: `Ready(Some)`, `Ready(None)` when closed and
    /// drained, or `Pending` with the calling task's waker registered for
    /// the next push.
    pub fn poll_pop(&self) -> Poll<Option<T>> {
        let mut st = self.inner.state.lock();
        if let Some(item) = st.items.pop_front() {
            if let Some(w) = st.push_waiters.pop_front() {
                w.wake();
            }
            return Poll::Ready(Some(item));
        }
        if st.closed {
            return Poll::Ready(None);
        }
        st.pop_waiters.push_back(ctx::waker());
        Poll::Pending
    }

    /// Wake the task waiting to pop, as a push would, without pushing.
    pub fn wake_popper(&self) {
        let popper = self.inner.state.lock().pop_waiters.pop_front();
        popper.iter().for_each(Waker::wake);
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

/// A scheduler's table or world, owned by one thread (DESIGN.md §6): a borrow
/// while one is out, or from a thread that does not own it, panics naming it.
pub(crate) struct BatonCell<T> {
    name: &'static str,
    busy: Cell<bool>,
    /// The [`thread_token`] of its owner: the baton's holder in a run, else the driving thread.
    pub(crate) holder: Arc<AtomicUsize>,
    value: UnsafeCell<T>,
}

// SAFETY: `name` and `holder` are `Sync`. Only the owner, the thread whose token is in
// `holder`, touches `busy` and `value`; an unowned cell is taken by an Acquire CAS from 0.
// In a run the baton's holder stores its token after the Acquire that takes it, and a
// granter (a Release) runs nothing until granted again; a dead owner's token reaches a
// new thread only through the exit and spawn that reuse it. So each owner's touches
// happen-before the next's; `busy` makes a nested borrow a panic.
unsafe impl<T: Send> Sync for BatonCell<T> {}

impl<T> BatonCell<T> {
    pub(crate) fn new(name: &'static str, holder: Arc<AtomicUsize>, value: T) -> Self {
        BatonCell {
            name,
            busy: Cell::new(false),
            holder,
            value: UnsafeCell::new(value),
        }
    }

    pub(crate) fn borrow(&self) -> BatonRef<'_, T> {
        if self.holder.load(Relaxed) != thread_token() {
            self.claim();
        }
        let name = self.name;
        assert!(!self.busy.replace(true), "`{name}` borrowed re-entrantly");
        BatonRef(self, std::marker::PhantomData)
    }

    /// The calling thread takes the cell if nobody owns it yet, else panics.
    #[cold]
    fn claim(&self) {
        let (me, name) = (thread_token(), self.name);
        let cas = self.holder.compare_exchange(0, me, Acquire, Relaxed);
        assert!(cas.is_ok(), "`{name}` touched by a thread not its owner");
    }

    /// The calling thread has just taken the baton: it owns the cell.
    pub(crate) fn hold(&self) {
        self.holder.store(thread_token(), Relaxed);
    }
}

/// A borrow of a [`BatonCell`]; it stays on the thread that made it.
pub(crate) struct BatonRef<'a, T>(&'a BatonCell<T>, std::marker::PhantomData<*const ()>);

impl<T> Drop for BatonRef<'_, T> {
    fn drop(&mut self) {
        self.0.busy.set(false);
    }
}

impl<T> Deref for BatonRef<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard is the one borrow out (`busy`), on the owning thread.
        unsafe { &*self.0.value.get() }
    }
}

impl<T> DerefMut for BatonRef<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as for `deref`, and the guard itself is borrowed mutably.
        unsafe { &mut *self.0.value.get() }
    }
}

/// The address of a thread-local: distinct for every live thread, never 0.
fn thread_token() -> usize {
    thread_local!(static TOKEN: u8 = const { 0 });
    TOKEN.with(|t| std::ptr::from_ref(t) as usize)
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

    /// An async task takes the lock with `poll_lock` and holds the guard
    /// across a wait; two tasks block in `lock` meanwhile. Released, the
    /// lock goes to them in the order they asked, and the task, asking
    /// again while both are ahead of it, gets it last — one park each.
    #[test]
    fn poll_lock_hands_off_in_fifo_order_across_a_held_step() {
        use std::sync::Mutex as StdMutex;
        let sched = Scheduler::new();
        let h = sched.handle();
        let m = SimMutex::new(());
        let log = Arc::new(StdMutex::new(Vec::new()));
        let note = {
            let (log, h) = (Arc::clone(&log), h.clone());
            move |who: &str| {
                log.lock()
                    .unwrap()
                    .push((who.to_string(), h.now().as_nanos()))
            }
        };
        // Pending until a wake 1 ms from now asks again.
        let pause = |reason| {
            let (h, w) = (ctx::handle(), ctx::waker());
            h.call_at(h.now() + Duration::from_millis(1), move || w.wake());
            let mut asked = false;
            ctx::wait(reason, move || match std::mem::replace(&mut asked, true) {
                true => Poll::Ready(()),
                false => Poll::Pending,
            })
        };
        let (m2, n) = (m.clone(), note.clone());
        h.spawn_async("step", async move {
            let Poll::Ready(guard) = m2.poll_lock() else {
                unreachable!("the lock is free at first")
            };
            n("step");
            pause("hold").await;
            drop(guard);
            pause("pause").await;
            let _g = ctx::wait(SimMutex::<()>::LOCK_WAIT, || m2.poll_lock()).await;
            n("step again");
        });
        for who in ["a", "b"] {
            let (m, n) = (m.clone(), note.clone());
            sched.spawn(who, move || {
                let _g = m.lock();
                n(who);
                ctx::sleep(Duration::from_millis(2));
            });
        }
        sched.run();
        let ms = 1_000_000;
        let expect = [
            ("step", 0),
            ("a", ms),
            ("b", 3 * ms),
            ("step again", 5 * ms),
        ];
        let expect: Vec<_> = expect.iter().map(|&(w, t)| (w.to_string(), t)).collect();
        assert_eq!(*log.lock().unwrap(), expect);
        let parks = h.metric(crate::runtime::Metric("task/parks", None, "sim-mutex"));
        assert_eq!(parks, 3);
    }

    /// A packet for `net`'s one host `a` (1.0.0.1) from itself, and its
    /// UDP dispatcher `on_packet`.
    fn loopback(net: &crate::Net, on_packet: impl Fn() + Send + Sync + 'static) {
        use crate::{proto, Ip, Packet, RawBytes, SockAddr};
        net.with(|w| {
            let a = w.add_host("a", vec![Ip::new(1, 0, 0, 1)]);
            w.register_proto(proto::UDP, Arc::new(move |_w, _n, _p| on_packet()));
            let me = SockAddr::new(Ip::new(1, 0, 0, 1), 9);
            let bytes = Box::new(RawBytes(vec![0; 8]));
            w.send_from(a, Packet::new(me, me, proto::UDP, bytes));
        });
    }

    #[test]
    fn a_dispatcher_that_borrows_the_world_again_panics_naming_it() {
        let sim = crate::Sim::new(1);
        let net = sim.net();
        let again = net.clone();
        loopback(&net, move || again.with(|_| ()));
        let p = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()));
        let p = p.expect_err("a second borrow of the world");
        let msg = p.downcast_ref::<String>().map(String::as_str);
        assert_eq!(msg, Some("`World` borrowed re-entrantly"));
    }

    #[test]
    fn a_thread_that_does_not_own_the_world_touching_it_panics() {
        let sim = crate::Sim::new(1);
        let net = sim.net();
        let seen = Arc::new(Mutex::new(None));
        let (n, s) = (net.clone(), Arc::clone(&seen));
        loopback(&net, move || {
            let n = n.clone();
            let foreign = std::thread::spawn(move || n.with(|w| w.node_count()));
            let p = foreign.join().expect_err("the foreign thread panics");
            *s.lock() = p.downcast_ref::<String>().cloned();
        });
        sim.run();
        let expect = "`World` touched by a thread not its owner";
        assert_eq!(seen.lock().as_deref(), Some(expect));
        // Between runs it belongs to the thread that drives them, and no other.
        let n = net.clone();
        let p = std::thread::spawn(move || n.with(|_| ())).join();
        let p = p.expect_err("the world is the driving thread's");
        assert_eq!(p.downcast_ref::<String>().map(String::as_str), Some(expect));
        assert_eq!(net.with(|w| w.node_count()), 1);
    }

    impl<T> SimMutex<T> {
        /// Test helper: lock from outside the simulation (single-threaded
        /// by then).
        fn lock_outside(&self) -> SimMutexGuard<T> {
            let mut ctl = self.inner.ctl.lock();
            assert!(!ctl.locked, "uncontended after run");
            ctl.locked = true;
            SimMutexGuard { m: self.clone() }
        }
    }
}
