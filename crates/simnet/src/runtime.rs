//! Deterministic cooperative runtime.
//!
//! Simulated processes run on one OS thread, the one that called
//! `run_until`, each blocking one on a stack of its own (`fiber.rs`), and
//! *exactly one* of them runs at any moment: the one holding the baton.
//! There is no scheduler stack. A task that blocks (parks), sleeps or
//! yields runs the scheduler loop itself ([`SchedCore::drive`]) — pop the
//! run queue, else fire the next event — until the loop names the next
//! task. If that is the caller, it simply returns: no switch at all (a
//! reader parked on a socket whose next event wakes it; a `sleep`).
//! Otherwise the caller switches to that task's stack: a grant, the cost
//! of a function call. A task that finishes runs the loop the same way.
//! When nothing is left to do before the `run_until` limit the baton goes
//! back to the caller's own stack (the root), which alone computes the
//! [`RunOutcome`]. Combined with a totally ordered event queue (time, then
//! insertion sequence) and seeded RNGs, every run of a simulation is
//! bit-for-bit reproducible — the run-queue and event order do not depend
//! on which stack happens to drive.
//!
//! Every task is a future: its slot holds it while it waits, and whoever
//! pops it off the run queue polls it on its own stack. A closure task is
//! one blocking section ([`ctx::blocking`]). The stacks are workers, taken
//! by a poll that reaches a blocking section, not at spawn: a task that
//! never blocks never holds one. A worker whose task has finished, or waits
//! inline again, waits on an idle list for the next, so a task maps a new
//! stack only when every worker is busy. Dropping the [`Scheduler`] ends
//! the idle ones and unmaps their stacks.
//!
//! The design mirrors classic conservative process-oriented simulators:
//!
//! * [`Scheduler::spawn`] creates a simulated process from a closure: a
//!   task whose whole body is one blocking section, given a worker when it
//!   first runs.
//! * Inside a process, [`crate::ctx`] functions (`now`, `sleep`, `park`) block
//!   the process in *simulated* time.
//! * Protocol code (packet delivery, retransmit timers) runs as scheduled
//!   closure events on the stack holding the baton, never concurrently with
//!   a task, and with task context masked: inside an event `ctx::in_task()`
//!   is false and `ctx::park`/`ctx::now` panic, whichever stack fires it.
//!   A deadline that may be met first is a [`Timer`]
//!   ([`SchedHandle::timer`]), kept in the record it guards: dropping it
//!   cancels the event, whose heap entry is then discarded unseen — it
//!   neither runs nor moves the clock, so a run ends at its last real event.
//! * A [`Waker`] moves a parked task back to the run queue; wakes delivered to
//!   a running task are remembered (`unpark` semantics), so the standard
//!   `while !condition { park() }` loop is race-free.
//! * An *async* task ([`SchedHandle::spawn_async`]) is that future as
//!   written: it has a [`TaskId`], a run-queue slot and [`Waker`]s like any
//!   task, and a stack of its own only inside a blocking section. It
//!   awaits two things only. [`ctx::wait`] asks a `poll_*` source, which
//!   leaves the task's waker behind when it returns `Pending`; the
//!   scheduler counts that as the park a blocking call would have made.
//!   [`ctx::blocking`] runs a closure that may park: the whole future
//!   moves to a worker under the same id, next, runs the closure there and
//!   goes on to its next wait — and the task is inline once more.
//! * The world's one metrics registry, named counters and gauges
//!   ([`Metric`]), sits beside the task table: [`SchedHandle::metric_add`]
//!   and friends. Only counters move; nothing in the simulation reads them.

use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Duration;

use crate::fiber::Stack;
use crate::sync::BatonCell;
use crate::time::SimTime;

/// Identifier of a simulated process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TaskId(pub u64);

impl TaskId {
    /// Position in the task table: ids are handed out densely in spawn order.
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a scheduled event does when it fires.
enum EventAction {
    /// Wake a parked task (used by `sleep`).
    WakeTask(TaskId),
    /// Run a one-shot closure on the stack holding the baton, if armed.
    Call(Armed),
    /// Fire a pre-registered callback ([`SchedHandle::register_hook`])
    /// with its argument. Unlike `Call`, the event itself carries no
    /// allocation — the hot packet-delivery path keeps one of these per
    /// busy link ([`HookQueue`]) instead of boxing a closure per hop.
    Hook(HookId, u64),
}

/// A registered recurring callback.
type Hook = Box<dyn Fn(u64) + Send>;

/// A closure event's code, emptied when it runs or its [`Timer`] drops.
type Armed = Arc<Mutex<Option<Box<dyn FnOnce() + Send>>>>;

/// A closure event armed by [`SchedHandle::timer`]. Dropping it cancels
/// the event, if it has not fired, and drops the closure at once.
#[must_use = "dropping a Timer cancels it"]
pub struct Timer(Armed);

impl Drop for Timer {
    fn drop(&mut self) {
        let f = self.0.lock().take();
        drop(f);
    }
}

thread_local! {
    /// The park under which a task's future returned `Pending`: set by
    /// [`ctx::wait`], left empty by [`ctx::blocking`], which asks for a
    /// thread.
    static PEND: Cell<Option<&'static str>> = const { Cell::new(None) };
    /// The park the last [`ctx::would_block`] on this thread stands for,
    /// until a wait takes it ([`ctx::blocked_on`]).
    static WHY: Cell<Option<&'static str>> = const { Cell::new(None) };
}

/// A task: its future and the waker it is polled with. Its slot holds it
/// while it waits; a blocking section hands it to a worker.
struct AsyncTask {
    fut: Pin<Box<dyn Future<Output = ()> + Send>>,
    /// Over the task's own [`Waker`].
    waker: std::task::Waker,
}

/// How one poll of a task ended.
enum Polled {
    /// Pending in [`ctx::wait`], the task's waker left where the wake will
    /// come from: a park under this reason (`task/parks/<reason>`), unless
    /// a wake arrived during the poll — then it is polled again at once, as
    /// `ctx::park` returns at once on a pending wake.
    Blocked(&'static str, AsyncTask),
    /// Pending in [`ctx::blocking`], polled inline: the task needs a worker.
    Blocking(AsyncTask),
    /// Ready.
    Done,
}

impl AsyncTask {
    /// Poll the future once. One that is ready is dropped here, as a
    /// thread's locals are where it returns.
    fn poll(mut self) -> Polled {
        let cx = &mut Context::from_waker(&self.waker);
        if self.fut.as_mut().poll(cx).is_ready() {
            return Polled::Done;
        }
        match PEND.take() {
            Some(reason) => Polled::Blocked(reason, self),
            None => Polled::Blocking(self),
        }
    }
}

impl std::task::Wake for Waker {
    fn wake(self: Arc<Self>) {
        Waker::wake(&self);
    }
}

/// An event's code or a task, taken out of the scheduler's state
/// to run; a hook goes back into its slot when it returns.
enum Callback {
    Call(Box<dyn FnOnce() + Send>),
    Hook(HookId, Hook, u64),
    Poll(TaskId, AsyncTask),
}

/// Handle to a recurring callback registered with
/// [`SchedHandle::register_hook`]; a [`HookQueue`] fires it without a
/// per-event allocation.
#[derive(Clone, Copy, Debug, Default)]
pub struct HookId(usize);

/// Items fired one by one as a hook's event, each at its own time, which
/// never goes down, from one heap entry: the head's. An item takes its place
/// in scheduling order when pushed, and each pop schedules the next head in
/// that place, so events fire exactly as with one heap entry per item.
#[derive(Debug)]
pub(crate) struct HookQueue<T>(VecDeque<(SimTime, u64, T)>);

impl<T> HookQueue<T> {
    pub(crate) const fn new() -> Self {
        HookQueue(VecDeque::new())
    }

    /// Queue `item`, due at `at`, in the place it takes now, reserved for
    /// the event `hook(arg)` that fires for it once it is the head. An `at`
    /// before the tail's panics.
    pub(crate) fn push(&mut self, sched: &SchedHandle, event: (HookId, u64), at: SimTime, item: T) {
        let tail = self.0.back().map_or(at, |&(tail, ..)| tail);
        assert!(tail <= at, "an item would overtake the one ahead of it");
        let mut st = sched.core.state.borrow();
        let seq = st.seq;
        st.seq += 1;
        if self.0.is_empty() {
            st.call_hook(at, seq, event);
        }
        self.0.push_back((at, seq, item));
    }

    /// Take the head, whose event fired, and schedule the next head's.
    pub(crate) fn pop(&mut self, sched: &SchedHandle, event: (HookId, u64)) -> T {
        let (_, _, item) = self.0.pop_front().expect("fired while it holds one");
        if let Some(&(at, seq, _)) = self.0.front() {
            sched.core.state.borrow().call_hook(at, seq, event);
        }
        item
    }
}

struct EventEntry {
    at: SimTime,
    seq: u64,
    action: EventAction,
}

impl EventEntry {
    /// A cancelled timer's entry, discarded unseen when it comes up.
    fn cancelled(&self) -> bool {
        matches!(&self.action, EventAction::Call(f) if f.lock().is_none())
    }
}

// BinaryHeap is a max-heap; invert the ordering to pop the earliest event.
impl PartialEq for EventEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for EventEntry {}
impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TaskState {
    /// Waiting in the run queue.
    Runnable,
    /// Currently holding the baton.
    Running,
    /// Parked; waiting for a `Waker`.
    Blocked,
    Finished,
}

struct TaskSlot {
    /// Emptied when the task finishes.
    name: String,
    /// Daemon tasks (servers, pumps) do not keep the simulation alive: the
    /// run loop reports Idle when only daemons remain parked.
    daemon: bool,
    state: TaskState,
    /// Park/unpark token: a wake delivered while the task is not blocked.
    notified: bool,
    /// The stack of the worker running the task; `None` outside a blocking
    /// section (before the first, between two, once finished).
    stack: Option<Arc<Stack>>,
    /// The task, in the slot while it is not running.
    task: Option<AsyncTask>,
    /// Tasks waiting for this one to finish.
    joiners: Vec<TaskId>,
    /// Human-readable reason the task is parked (deadlock diagnostics);
    /// meaningful only while `state` is `Blocked`.
    blocked_on: &'static str,
}

#[derive(Default)]
struct SchedState {
    seq: u64,
    events: BinaryHeap<EventEntry>,
    runnable: VecDeque<TaskId>,
    /// Indexed by `TaskId`: slots are pushed in spawn order and never
    /// removed (a finished slot drops its stack and name).
    tasks: Vec<TaskSlot>,
    /// First panic observed in a task or an event; stops the loop and is
    /// resumed on `run_until`'s caller.
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// The `run_until` call in progress: events later than `limit` stay in
    /// the heap, and `root` is its caller's own stack.
    limit: SimTime,
    root: Option<Arc<Stack>>,
    /// Workers whose task has finished or waits inline again, waiting for
    /// the next one. A worker goes here only after it has chosen its
    /// successor, so no `drive` it runs can hand it a job of its own.
    idle: Vec<Arc<Stack>>,
    /// The task a worker is given, set just before it is switched to and
    /// taken by it then: polled on there to its next wait.
    job: Option<(TaskId, AsyncTask)>,
    /// Callbacks by [`HookId`], only appended to in a run. A firing takes its
    /// hook out to run it and puts it back: registering moves no other.
    hooks: Vec<Option<Hook>>,
    /// Baton grants so far: one stack switching to another. A task that
    /// parks, sleeps or yields and is itself the next to run costs none
    /// (the in-file tests pin exactly that), and neither does a task's
    /// inline poll. Read into snapshots as [`GRANTS`].
    grants: u64,
    /// The metrics registry, in name order. Among its names,
    /// `task/parks/<reason>` counts the times tasks actually parked
    /// (wake-token misses only): each is a trip through the scheduler loop,
    /// attributed to the wait that caused it.
    metrics: BTreeMap<Metric, i64>,
}

/// A name in the metrics registry: static text, at most one id, static
/// text. `Metric("node", Some(3), "walks")` prints `node/3/walks`, and
/// `Metric("task/parks", None, "sleep")` prints `task/parks/sleep`. A name
/// already in the registry is moved in place, without allocating.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Metric(pub &'static str, pub Option<u64>, pub &'static str);

/// The registry name under which snapshots report [`SchedState::grants`],
/// each one stack switch. It is read when a snapshot is taken, so the
/// grant itself stays a bare increment.
pub const GRANTS: Metric = Metric("sched", None, "grants");

/// The registry's count of the worker stacks the scheduler has mapped.
pub const STACKS: Metric = Metric("sched", None, "stacks");

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.1 {
            Some(id) => write!(f, "{}/{id}/{}", self.0, self.2),
            None => write!(f, "{}/{}", self.0, self.2),
        }
    }
}

impl SchedState {
    /// Wake `tid` per unpark semantics.
    fn wake(&mut self, tid: TaskId) {
        let Some(slot) = self.tasks.get_mut(tid.index()) else {
            return;
        };
        match slot.state {
            TaskState::Blocked => {
                slot.state = TaskState::Runnable;
                slot.notified = false;
                self.runnable.push_back(tid);
            }
            TaskState::Runnable | TaskState::Running => slot.notified = true,
            TaskState::Finished => {}
        }
    }

    /// Mark `tid` finished and wake its joiners.
    fn retire(&mut self, tid: TaskId) {
        let slot = &mut self.tasks[tid.index()];
        slot.state = TaskState::Finished;
        slot.name = String::new();
        slot.stack = None;
        for j in std::mem::take(&mut slot.joiners) {
            self.wake(j);
        }
    }

    /// Schedule `hook(arg)` at `at`, no earlier than now, in the place `seq`
    /// taken earlier. Allocation-free apart from amortized heap growth.
    fn call_hook(&mut self, at: SimTime, seq: u64, (hook, arg): (HookId, u64)) {
        let action = EventAction::Hook(hook, arg);
        self.events.push(EventEntry { at, seq, action });
    }

    /// Count one park of a task under `reason`.
    fn count_park(&mut self, reason: &'static str) {
        *self
            .metrics
            .entry(Metric("task/parks", None, reason))
            .or_insert(0) += 1;
    }
}

/// Shared core of the scheduler; cheap to clone via [`SchedHandle`].
pub struct SchedCore {
    state: BatonCell<SchedState>,
    /// Simulated time in nanoseconds, read without borrowing the state.
    /// Only the baton holder stores it, on the one thread every stack of
    /// the simulation runs on.
    clock: AtomicU64,
}

/// Who is running the scheduler loop.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Driver {
    /// The stack inside `run_until`.
    Root,
    /// The worker of a task that has just parked, yielded or finished.
    Task(TaskId),
}

impl SchedCore {
    /// Current simulated time, without borrowing the state.
    fn now(&self) -> SimTime {
        SimTime(self.clock.load(Ordering::Relaxed))
    }

    /// Queue an event at `at`, clamped to be no earlier than now; ties
    /// fire in scheduling order.
    fn schedule(&self, at: SimTime, action: EventAction) {
        let at = at.max(self.now());
        let mut st = self.state.borrow();
        let seq = st.seq;
        st.seq += 1;
        st.events.push(EventEntry { at, seq, action });
    }

    /// Run the scheduler loop on the calling stack, which holds the baton:
    /// run-queue head first, else the next event, until someone is to run.
    /// A task at the head with no worker is polled right here, like an event.
    ///
    /// Returns `None` when that someone is the caller — its own task came
    /// off the run queue, or it is the root and the run is over — and
    /// otherwise the stack the caller must switch to: the next task's (one
    /// just given a worker for a blocking section included), or
    /// the root's when the run is over (a panic is pending, the event heap
    /// is empty, or the next event lies past the `run_until` limit).
    fn drive(self: &Arc<Self>, me: Driver) -> Option<Arc<Stack>> {
        loop {
            let callback = {
                let mut st = self.state.borrow();
                let st = &mut *st;
                loop {
                    if st.panic.is_none() {
                        if let Some(tid) = st.runnable.pop_front() {
                            let slot = &mut st.tasks[tid.index()];
                            slot.state = TaskState::Running;
                            if let Some(task) = slot.task.take() {
                                break Callback::Poll(tid, task);
                            }
                            if me == Driver::Task(tid) {
                                return None;
                            }
                            st.grants += 1;
                            return Some(Arc::clone(
                                slot.stack.as_ref().expect("a runnable task has a stack"),
                            ));
                        }
                        // The clock never stops at a cancelled timer's time.
                        while st.events.peek().is_some_and(EventEntry::cancelled) {
                            st.events.pop();
                        }
                        if st.events.peek().is_some_and(|ev| ev.at <= st.limit) {
                            let ev = st.events.pop().expect("peeked");
                            debug_assert!(ev.at >= self.now(), "time went backwards");
                            self.clock.store(ev.at.0, Ordering::Relaxed);
                            match ev.action {
                                EventAction::WakeTask(tid) => {
                                    st.wake(tid);
                                    continue;
                                }
                                EventAction::Call(f) => {
                                    break Callback::Call(f.lock().take().expect("not cancelled"))
                                }
                                EventAction::Hook(id, arg) => {
                                    let hook = st.hooks[id.0].take();
                                    break Callback::Hook(id, hook.expect("not firing"), arg);
                                }
                            }
                        }
                    }
                    if me == Driver::Root {
                        return None;
                    }
                    st.grants += 1;
                    return Some(Arc::clone(
                        st.root.as_ref().expect("tasks run only inside run_until"),
                    ));
                }
            };
            match callback {
                Callback::Poll(tid, task) => {
                    if let Some(task) = self.poll_task(tid, task, None) {
                        let mut st = self.state.borrow();
                        let stack = self.start_stack(&mut st, (tid, task));
                        st.tasks[tid.index()].stack = Some(Arc::clone(&stack));
                        st.grants += 1;
                        return Some(stack);
                    }
                }
                Callback::Call(f) => self.fire(f),
                Callback::Hook(id, hook, arg) => {
                    self.fire(|| hook(arg));
                    self.state.borrow().hooks[id.0] = Some(hook);
                }
            }
        }
    }

    /// Run one closure or hook event. The stack may be a task's, so a
    /// panic must not unwind into it: it is caught and kept (first one
    /// wins, as for task panics) for `run_until`'s caller.
    fn fire(&self, f: impl FnOnce()) {
        if let Err(p) = std::panic::catch_unwind(AssertUnwindSafe(f)) {
            self.state.borrow().panic.get_or_insert(p);
        }
    }

    /// Poll task `tid` on the calling stack, with the task's context
    /// in place of the driver's (none), until it blocks without a wake
    /// pending or ends. On its worker (`stack`), a blocking section runs in
    /// place. Inline, one returns the task, still running, to be given a
    /// worker: it runs next. A panic is kept for `run_until`'s caller, as
    /// an event's is, and ends the task.
    fn poll_task(
        self: &Arc<Self>,
        tid: TaskId,
        mut task: AsyncTask,
        stack: Option<&Arc<Stack>>,
    ) -> Option<AsyncTask> {
        loop {
            let driver = CURRENT.replace(Some(Current {
                handle: SchedHandle {
                    core: Arc::clone(self),
                },
                tid,
                stack: stack.cloned(),
            }));
            let polled = std::panic::catch_unwind(AssertUnwindSafe(move || task.poll()));
            CURRENT.set(driver);
            let mut st = self.state.borrow();
            match polled {
                Ok(Polled::Blocked(reason, again)) => {
                    let slot = &mut st.tasks[tid.index()];
                    if std::mem::take(&mut slot.notified) {
                        task = again;
                        continue;
                    }
                    slot.state = TaskState::Blocked;
                    slot.blocked_on = reason;
                    slot.stack = None;
                    slot.task = Some(again);
                    st.count_park(reason);
                    return None;
                }
                Ok(Polled::Blocking(task)) => return Some(task),
                Ok(Polled::Done) => {}
                Err(p) => {
                    st.panic.get_or_insert(p);
                }
            }
            st.retire(tid);
            return None;
        }
    }

    /// Give a task a worker, idle or else new, that polls it on once its
    /// returned stack is switched to. The caller switches to it; the
    /// worker touches no state before then.
    fn start_stack(self: &Arc<Self>, st: &mut SchedState, job: (TaskId, AsyncTask)) -> Arc<Stack> {
        st.job = Some(job);
        st.idle.pop().unwrap_or_else(|| {
            *st.metrics.entry(STACKS).or_insert(0) += 1;
            let core = Arc::clone(self);
            Arc::new(Stack::new(move || {
                core.work();
                let root = core.state.borrow().root.clone();
                root.expect("a worker ends in its scheduler's drop")
            }))
        })
    }

    /// A worker's life: poll each task it is switched to on to its next
    /// wait, every blocking section on the way run in place, and return
    /// when switched to with no task. A panic ends the task; one in the
    /// scheduler loop after it, which no task catches, is kept for
    /// `run_until`'s caller as a task's is.
    fn work(self: &Arc<Self>) {
        loop {
            let Some((tid, task)) = self.state.borrow().job.take() else {
                return;
            };
            let me = self.state.borrow().tasks[tid.index()].stack.clone();
            let me = me.expect("a task given a worker holds its stack");
            let left = self.poll_task(tid, task, Some(&me));
            debug_assert!(left.is_none(), "a worker runs blocking sections in place");
            // Choose the successor, only then go idle, and only then hand
            // the baton on: no `drive` here can give this worker a job. A
            // panic in the loop is kept, and the loop run again then ends
            // the run: it switches to the root.
            let drive = || self.drive(Driver::Task(tid));
            let next = std::panic::catch_unwind(AssertUnwindSafe(drive))
                .unwrap_or_else(|p| {
                    self.state.borrow().panic.get_or_insert(p);
                    drive()
                })
                .expect("a task off its worker is not the one to run next");
            self.state.borrow().idle.push(Arc::clone(&me));
            me.switch_to(&next);
        }
    }
}

/// A cloneable handle to the scheduler, used to schedule events and wake
/// tasks from protocol code or from other tasks.
#[derive(Clone)]
pub struct SchedHandle {
    core: Arc<SchedCore>,
}

/// Handle used to wake one parked task. Semantics match
/// `std::thread::Thread::unpark`: waking a task that is not parked makes its
/// next park return immediately.
#[derive(Clone)]
pub struct Waker {
    handle: SchedHandle,
    tid: TaskId,
}

impl Waker {
    /// Wake the target task (move it to the run queue, or set its token).
    pub fn wake(&self) {
        self.handle.wake_task(self.tid);
    }

    /// The task this waker targets.
    pub fn task(&self) -> TaskId {
        self.tid
    }
}

/// Outcome of driving the simulation.
#[derive(Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// No events and no runnable or blocked tasks remain.
    Idle,
    /// The time limit passed to `run_until` was reached.
    TimeLimit,
    /// No events or runnable tasks remain but some tasks are still parked.
    /// Contains `(task name, blocked_on reason)` for each parked task, in
    /// spawn order.
    Deadlock(Vec<(String, &'static str)>),
}

/// What a task knows about itself. Taken out of `CURRENT` while its stack
/// drives the scheduler loop, so events it fires see no task context; put
/// in for the length of a task's poll.
struct Current {
    handle: SchedHandle,
    tid: TaskId,
    /// Its worker's; `None` for a task polled inline, which cannot park.
    stack: Option<Arc<Stack>>,
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<Current>> =
        const { std::cell::RefCell::new(None) };
}

/// The scheduler: owns the event queue and the task table and drives
/// simulated time forward. Create one per simulation via
/// [`Scheduler::new`], usually through [`crate::Sim`].
pub struct Scheduler {
    core: Arc<SchedCore>,
}

impl Default for Scheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler {
    pub fn new() -> Self {
        Scheduler {
            core: Arc::new(SchedCore {
                state: BatonCell::new("SchedState", Arc::default(), SchedState::default()),
                clock: AtomicU64::new(0),
            }),
        }
    }

    /// A cloneable handle for scheduling and waking.
    pub fn handle(&self) -> SchedHandle {
        SchedHandle {
            core: Arc::clone(&self.core),
        }
    }

    /// Spawn a simulated process. It becomes runnable immediately (at the
    /// current simulated time) and runs when the scheduler reaches it, as
    /// one blocking section: it takes a worker then, not now.
    pub fn spawn<F, T>(&self, name: impl Into<String>, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        self.handle().spawn(name, f)
    }

    /// Spawn a daemon process (see [`SchedHandle::spawn_daemon`]).
    pub fn spawn_daemon<F, T>(&self, name: impl Into<String>, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        self.handle().spawn_daemon(name, f)
    }

    /// Drive the simulation until it is idle, a deadlock is detected, or
    /// simulated time would exceed `limit`.
    ///
    /// The caller starts the scheduler loop; from the first task slice on,
    /// whichever task holds the baton continues it, and the caller's stack
    /// stays suspended until the loop has nothing left to do within `limit`.
    pub fn run_until(&self, limit: SimTime) -> RunOutcome {
        let root = Arc::new(Stack::default());
        {
            let mut st = self.core.state.borrow();
            st.limit = limit;
            st.root = Some(Arc::clone(&root));
        }
        // Whoever drives switches back to the root only when the run is over.
        if let Some(first) = self.core.drive(Driver::Root) {
            root.switch_to(&first);
        }
        let (panic, outcome) = {
            let mut st = self.core.state.borrow();
            let outcome = match st.events.peek() {
                Some(_) => RunOutcome::TimeLimit,
                None => {
                    let stuck: Vec<(String, &'static str)> = st
                        .tasks
                        .iter()
                        .filter(|t| t.state == TaskState::Blocked && !t.daemon)
                        .map(|t| (t.name.clone(), t.blocked_on))
                        .collect();
                    if stuck.is_empty() {
                        RunOutcome::Idle
                    } else {
                        RunOutcome::Deadlock(stuck)
                    }
                }
            };
            (st.panic.take(), outcome)
        };
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
        outcome
    }

    /// Drive until idle; panic with diagnostics if parked tasks remain.
    pub fn run(&self) -> RunOutcome {
        let out = self.run_until(SimTime::MAX);
        if let RunOutcome::Deadlock(ref blocked) = out {
            panic!("simulation deadlock; parked tasks: {blocked:?}");
        }
        out
    }

    /// Drive for at most `d` of simulated time (from the current instant).
    pub fn run_for(&self, d: Duration) -> RunOutcome {
        let limit = self.now() + d;
        self.run_until(limit)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }
}

impl Drop for Scheduler {
    /// Drop the hooks (a world's delivery hook holds the world, which holds a handle to
    /// this one) and every task waiting in its slot (its future holds its own waker, and so
    /// this scheduler), then end every idle worker and unmap its stack; a task parked on one
    /// stays, and its stack with it.
    fn drop(&mut self) {
        let (hooks, tasks) = {
            let mut st = self.core.state.borrow();
            let tasks: Vec<AsyncTask> = st.tasks.iter_mut().filter_map(|t| t.task.take()).collect();
            (std::mem::take(&mut st.hooks), tasks)
        };
        // With the state free: a dropped Timer or listener borrows it again.
        drop(hooks);
        drop(tasks);
        // Switched to with no job, a worker returns and leaves for the root.
        let idle = std::mem::take(&mut self.core.state.borrow().idle);
        let me = Arc::new(Stack::default());
        self.core.state.borrow().root = Some(Arc::clone(&me));
        for stack in idle {
            me.switch_to(&stack);
        }
    }
}

impl SchedHandle {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// Add `delta` to the named counter or gauge; returns its new value.
    pub fn metric_add(&self, name: Metric, delta: i64) -> i64 {
        let mut st = self.core.state.borrow();
        let v = st.metrics.entry(name).or_insert(0);
        *v += delta;
        *v
    }

    /// Raise the named peak to `v` if that is higher.
    pub fn metric_max(&self, name: Metric, v: i64) {
        let mut st = self.core.state.borrow();
        let peak = st.metrics.entry(name).or_insert(v);
        *peak = v.max(*peak);
    }

    /// The named value: 0 for a name that never moved.
    pub fn metric(&self, name: Metric) -> i64 {
        let st = self.core.state.borrow();
        if name == GRANTS {
            return st.grants as i64;
        }
        st.metrics.get(&name).copied().unwrap_or(0)
    }

    /// Every name moved so far with its value, in name order, and
    /// [`GRANTS`]. A phase's deltas are two snapshots subtracted.
    pub fn metrics(&self) -> BTreeMap<Metric, i64> {
        let st = self.core.state.borrow();
        let mut snapshot = st.metrics.clone();
        snapshot.insert(GRANTS, st.grants as i64);
        snapshot
    }

    /// Schedule `f` to run at absolute time `at` (clamped to be no earlier
    /// than now). It runs on the stack holding the baton — `run_until`'s
    /// caller's or whichever task's is driving the scheduler loop — never
    /// concurrently with a task, with task context masked
    /// (`ctx::in_task()` is false). A panic in `f` surfaces from
    /// `run_until`.
    pub fn call_at(&self, at: SimTime, f: impl FnOnce() + Send + 'static) {
        let f: Armed = Arc::new(Mutex::new(Some(Box::new(f))));
        self.core.schedule(at, EventAction::Call(f));
    }

    /// [`call_at`](Self::call_at) for a deadline that may be met first:
    /// dropping the [`Timer`] cancels the event. A closure that reaches the
    /// record owning its timer does so by a `Weak`: no cycle through the heap.
    pub fn timer(&self, at: SimTime, f: impl FnOnce() + Send + 'static) -> Timer {
        let f: Armed = Arc::new(Mutex::new(Some(Box::new(f))));
        self.core.schedule(at, EventAction::Call(Arc::clone(&f)));
        Timer(f)
    }

    /// Register a recurring callback and get a handle for a [`HookQueue`].
    /// The callback stays registered for the scheduler's lifetime. Like a
    /// `call_at` closure it runs on the stack holding the baton, never
    /// concurrently with a task, with task context masked.
    pub fn register_hook(&self, f: impl Fn(u64) + Send + 'static) -> HookId {
        let mut st = self.core.state.borrow();
        st.hooks.push(Some(Box::new(f)));
        HookId(st.hooks.len() - 1)
    }

    /// Its baton holder, for a [`BatonCell`] that belongs to it.
    pub(crate) fn holder(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.core.state.holder)
    }

    /// Wake `tid` per unpark semantics.
    fn wake_task(&self, tid: TaskId) {
        self.core.state.borrow().wake(tid);
    }

    /// A waker for the given task.
    pub fn waker(&self, tid: TaskId) -> Waker {
        Waker {
            handle: self.clone(),
            tid,
        }
    }

    /// Spawn a simulated process (see [`Scheduler::spawn`]).
    pub fn spawn<F, T>(&self, name: impl Into<String>, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        self.spawn_blocking(name.into(), false, f)
    }

    /// Spawn a daemon process: a server or pump loop that may stay parked
    /// forever without counting as a deadlock or keeping the run alive.
    pub fn spawn_daemon<F, T>(&self, name: impl Into<String>, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        self.spawn_blocking(name.into(), true, f)
    }

    /// A task whose whole body is `f`, one blocking section, its result
    /// kept for the [`JoinHandle`].
    fn spawn_blocking<F, T>(&self, name: String, daemon: bool, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let result: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
        let out = Arc::clone(&result);
        let body = async move { *out.lock() = Some(ctx::blocking(f).await) };
        JoinHandle {
            handle: self.clone(),
            tid: self.push_task(name, daemon, body),
            result,
        }
    }

    /// Spawn an async task: `fut` is polled on the stack of whoever pops
    /// the task off the run queue, with the task's context (`ctx::waker`,
    /// `ctx::now`, `ctx::handle`), each time the task is woken, and awaits
    /// [`ctx::wait`] and [`ctx::blocking`] only. It takes the run-queue
    /// place a [`spawn_daemon`](Self::spawn_daemon) would, and counts as a
    /// daemon: blocked, it is no deadlock. `ctx::park`, `sleep` and
    /// `yield_now` panic in it outside a blocking section.
    pub fn spawn_async(
        &self,
        name: impl Into<String>,
        fut: impl Future<Output = ()> + Send + 'static,
    ) -> TaskId {
        self.push_task(name.into(), true, fut)
    }

    /// Put a new task at the back of the run queue, its slot holding `fut`.
    fn push_task(
        &self,
        name: String,
        daemon: bool,
        fut: impl Future<Output = ()> + Send + 'static,
    ) -> TaskId {
        // One critical section from id to run queue keeps the table dense.
        let mut st = self.core.state.borrow();
        let tid = TaskId(st.tasks.len() as u64);
        let task = AsyncTask {
            fut: Box::pin(fut),
            waker: Arc::new(self.waker(tid)).into(),
        };
        st.tasks.push(TaskSlot {
            name,
            daemon,
            state: TaskState::Runnable,
            notified: false,
            stack: None,
            task: Some(task),
            joiners: Vec::new(),
            blocked_on: "",
        });
        st.runnable.push_back(tid);
        tid
    }
}

/// Handle to a spawned simulated process; `join` blocks the *calling task*
/// in simulated time until the target finishes.
pub struct JoinHandle<T> {
    handle: SchedHandle,
    tid: TaskId,
    result: Arc<Mutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// The spawned task's id.
    pub fn task(&self) -> TaskId {
        self.tid
    }

    /// Has the task finished?
    pub fn is_finished(&self) -> bool {
        let st = self.handle.core.state.borrow();
        st.tasks[self.tid.index()].state == TaskState::Finished
    }

    /// Block the calling simulated task until the target finishes, then
    /// return its result. Must be called from within a simulated task.
    pub fn join(self) -> T {
        let me = ctx::current_task();
        let mut registered = false;
        ctx::park_until("join", || {
            let mut st = self.handle.core.state.borrow();
            let target = &mut st.tasks[self.tid.index()];
            if target.state == TaskState::Finished {
                return Poll::Ready(());
            }
            // Once: a stray wake token must not queue a second wake.
            if !registered {
                target.joiners.push(me);
                registered = true;
            }
            Poll::Pending
        });
        self.result.lock().take().expect("joined task result")
    }
}

/// Task-side context functions. Valid only on threads spawned through the
/// scheduler, and not inside events those threads fire while they drive the
/// scheduler loop; calling them elsewhere panics.
///
/// A wait is written once, as a future over [`ctx::wait`] or
/// [`ctx::wait_io`]: an async task awaits it, and a task that may park runs
/// it under [`ctx::block_on`], the one park loop ([`ctx::park_io`] and
/// [`ctx::park_until`] are it over a single poll).
pub mod ctx {
    use super::*;
    use std::io;

    fn with_current<R>(f: impl FnOnce(&SchedHandle, TaskId) -> R) -> R {
        CURRENT.with(|c| {
            let b = c.borrow();
            let cur = b.as_ref().expect("not inside a simulated task");
            f(&cur.handle, cur.tid)
        })
    }

    /// Is the calling thread running a simulated task's own code?
    pub fn in_task() -> bool {
        CURRENT.with(|c| c.borrow().is_some())
    }

    /// The calling task's id.
    pub(crate) fn current_task() -> TaskId {
        with_current(|_, tid| tid)
    }

    /// Scheduler handle of the calling task.
    pub fn handle() -> SchedHandle {
        with_current(|h, _| h.clone())
    }

    /// Current simulated time.
    pub fn now() -> SimTime {
        with_current(|h, _| h.now())
    }

    /// A waker targeting the calling task.
    pub fn waker() -> Waker {
        with_current(|h, tid| h.waker(tid))
    }

    /// Take the calling task out of the running state as `leave` dictates
    /// (`false`: stay running after all), then run the scheduler loop with
    /// task context masked until this task is the one to run again.
    fn reschedule(leave: impl FnOnce(&mut SchedState, TaskId) -> bool) {
        let cur = CURRENT.take().expect("not inside a simulated task");
        let Some(stack) = &cur.stack else {
            let name = cur.handle.core.state.borrow().tasks[cur.tid.index()]
                .name
                .clone();
            CURRENT.set(Some(cur));
            panic!("inline task `{name}` cannot park, sleep or yield");
        };
        let left = leave(&mut cur.handle.core.state.borrow(), cur.tid);
        if left {
            if let Some(next) = cur.handle.core.drive(Driver::Task(cur.tid)) {
                stack.switch_to(&next);
            }
        }
        CURRENT.set(Some(cur));
    }

    /// Park the calling task until woken. `reason` appears in deadlock
    /// diagnostics. Consumes a pending wake token if present.
    pub fn park(reason: &'static str) {
        reschedule(|st, tid| {
            let slot = &mut st.tasks[tid.index()];
            if std::mem::take(&mut slot.notified) {
                return false;
            }
            slot.state = TaskState::Blocked;
            slot.blocked_on = reason;
            st.count_park(reason);
            true
        });
    }

    /// Yield the baton but stay runnable (cooperative yield at the same
    /// simulated instant).
    pub fn yield_now() {
        reschedule(|st, tid| {
            st.tasks[tid.index()].state = TaskState::Runnable;
            st.runnable.push_back(tid);
            true
        });
    }

    /// What a task in [`sleep`] is parked on, and the would-block reason
    /// of a poll that waits out a time ([`wake_at`]).
    pub const SLEEP_WAIT: &str = "sleep";

    /// Sleep for `d` of simulated time: [`delay`] run to its end, or a
    /// yield for a zero `d`. The delay's wake is its event, not a waker, so
    /// it runs in the park loop with none: a sleep allocates nothing.
    pub fn sleep(d: Duration) {
        match d.is_zero() {
            true => yield_now(),
            false => park_on(delay(d), std::task::Waker::noop()),
        }
    }

    /// Await `d` of simulated time: one wake at its end ([`wake_at`]), and
    /// [`reached`] asked on every wake, under [`SLEEP_WAIT`]. A zero `d` is
    /// over at once.
    pub async fn delay(d: Duration) {
        if d.is_zero() {
            return;
        }
        let at = now() + d;
        wake_at(at);
        let _ = wait_io(|| reached(at)).await;
    }

    /// Has the clock reached `at`? `WouldBlock` under [`SLEEP_WAIT`] until
    /// it has: the poll of a wait for a time (a sleep, a CPU charge), asked
    /// again on every wake, so a stray one cannot end it early.
    pub fn reached(at: SimTime) -> io::Result<()> {
        if now() < at {
            return Err(would_block(SLEEP_WAIT));
        }
        Ok(())
    }

    /// Wake the calling task at `at`: the event [`sleep`] schedules, for a
    /// poll that waits out a time and would block under [`SLEEP_WAIT`]
    /// until then (a CPU charge).
    pub fn wake_at(at: SimTime) {
        with_current(|h, tid| h.core.schedule(at, EventAction::WakeTask(tid)));
    }

    /// `Err(WouldBlock)` from a source that left the calling task's waker
    /// where the wake will come from, standing for a park under `reason`:
    /// whoever waits on it, however many readers up, parks under that name
    /// ([`blocked_on`], [`wait_io`]).
    pub fn would_block(reason: &'static str) -> io::Error {
        WHY.set(Some(reason));
        io::ErrorKind::WouldBlock.into()
    }

    /// The park the would-block the calling task just saw stands for.
    pub fn blocked_on() -> &'static str {
        WHY.take()
            .expect("a would-block names its park (ctx::would_block)")
    }

    /// Await `poll`, an I/O poll, until it is ready: an `Err(WouldBlock)`
    /// is a wait, in an async task a park, under the reason its source
    /// named ([`would_block`]). The next wake asks `poll` again.
    pub fn wait_io<T>(
        mut poll: impl FnMut() -> io::Result<T>,
    ) -> impl Future<Output = io::Result<T>> {
        std::future::poll_fn(move |_| match poll() {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                PEND.set(Some(blocked_on()));
                Poll::Pending
            }
            done => Poll::Ready(done),
        })
    }

    /// [`wait`] in a task that may park: each `Pending` is one park under
    /// `reason`, and the wake asks `poll` again.
    pub fn park_until<T>(reason: &'static str, poll: impl FnMut() -> Poll<T>) -> T {
        park_on(wait(reason, poll), std::task::Waker::noop())
    }

    /// [`wait_io`] in a task that may park: each `Err(WouldBlock)` is one
    /// park under the reason its source named, and the wake asks `poll`
    /// again.
    pub fn park_io<T>(poll: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        park_on(wait_io(poll), std::task::Waker::noop())
    }

    /// Run `fut`, polled with the calling task's waker, to its end in a task
    /// that may park: how an `async fn` keeps one body for its blocking
    /// callers too.
    pub fn block_on<F: Future>(fut: F) -> F::Output {
        park_on(fut, &Arc::new(waker()).into())
    }

    /// The one park loop: poll `fut` with `waker`; each `Pending` is one
    /// park under the reason its [`wait`] or [`wait_io`] named (they leave
    /// the task's own waker where the wake will come from), and the wake
    /// polls it again.
    fn park_on<F: Future>(fut: F, waker: &std::task::Waker) -> F::Output {
        let (mut fut, cx) = (std::pin::pin!(fut), &mut Context::from_waker(waker));
        loop {
            if let Poll::Ready(out) = fut.as_mut().poll(cx) {
                return out;
            }
            park(
                PEND.take()
                    .expect("a pending future names its park (ctx::wait)"),
            );
        }
    }

    /// Await `poll` until it is ready. In an async task a `Pending`, with
    /// the task's waker left where the wake will come from, blocks the task:
    /// a park under `task/parks/<reason>`. The next wake asks `poll` again.
    pub fn wait<T>(
        reason: &'static str,
        mut poll: impl FnMut() -> Poll<T>,
    ) -> impl Future<Output = T> {
        std::future::poll_fn(move |_| {
            let out = poll();
            if out.is_pending() {
                PEND.set(Some(reason));
            }
            out
        })
    }

    /// Run `f`, which may park, on a thread. Awaited in a task polled
    /// inline, it moves the whole task to a worker (same [`TaskId`], next to
    /// run); `f` runs there, borrowing the task's locals, the task is polled
    /// on there to its next wait, and is inline again after it.
    pub fn blocking<R>(f: impl FnOnce() -> R) -> impl Future<Output = R> {
        let mut f = Some(f);
        std::future::poll_fn(move |_| {
            if CURRENT.with_borrow(|c| c.as_ref().is_some_and(|c| c.stack.is_none())) {
                return Poll::Pending;
            }
            Poll::Ready(f.take().expect("a blocking section runs once")())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::SimQueue;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn tasks_run_in_spawn_order_and_time_advances() {
        let sched = Scheduler::new();
        let log: Arc<Mutex<Vec<(u64, &str)>>> = Arc::new(Mutex::new(Vec::new()));
        for (name, delay) in [("a", 30u64), ("b", 10), ("c", 20)] {
            let log = Arc::clone(&log);
            sched.spawn(name, move || {
                ctx::sleep(Duration::from_millis(delay));
                log.lock().push((ctx::now().as_nanos() / 1_000_000, name));
            });
        }
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert_eq!(*log.lock(), vec![(10, "b"), (20, "c"), (30, "a")]);
    }

    #[test]
    fn join_returns_value() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let out = sched.spawn("outer", move || {
            let j = h.spawn("inner", || {
                ctx::sleep(Duration::from_secs(1));
                42
            });
            j.join()
        });
        sched.run();
        // After run, the outer task has finished; fetch its result.
        assert_eq!(out.result.lock().take(), Some(42));
    }

    #[test]
    fn join_registers_once_despite_stray_wakes() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let joiner = sched.spawn("joiner", move || {
            let target = h.spawn("target", || ctx::sleep(Duration::from_millis(10)));
            for ms in [1, 2] {
                let me = ctx::waker();
                h.call_at(h.now() + Duration::from_millis(ms), move || me.wake());
            }
            target.join();
            // The target woke us once, so no token is left over to cut
            // this park short of its own wake.
            let me = ctx::waker();
            h.call_at(h.now() + Duration::from_millis(5), move || me.wake());
            ctx::park("probe");
            ctx::now().as_nanos()
        });
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert_eq!(joiner.result.lock().take(), Some(15_000_000));
    }

    #[test]
    fn wake_before_park_is_remembered() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let done = Arc::new(AtomicUsize::new(0));
        let d2 = Arc::clone(&done);
        let j = sched.spawn("sleeper", move || {
            // Busy at t=0 while the waker fires; then park. The remembered
            // token must make park return immediately.
            ctx::park("test-wait");
            d2.store(1, Ordering::SeqCst);
        });
        let w = h.waker(j.task());
        // Wake at t=0 via an event that runs before the task parks is not
        // possible (task runs first), so wake from another task instead.
        sched.spawn("waker", move || w.wake());
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn deadlock_is_reported_with_reasons() {
        let sched = Scheduler::new();
        sched.spawn("stuck", || ctx::park("never-signalled"));
        sched.spawn("done", || ctx::sleep(Duration::from_secs(1)));
        sched.spawn_daemon("server", || ctx::park("accept"));
        sched.spawn("stuck-too", || {
            ctx::sleep(Duration::from_secs(2));
            ctx::park("lost-wake");
        });
        // Found by the last task to park, on its own thread; reported to
        // the caller in spawn order, daemons and finished tasks left out.
        match sched.run_until(SimTime::MAX) {
            RunOutcome::Deadlock(v) => assert_eq!(
                v,
                vec![
                    ("stuck".to_string(), "never-signalled"),
                    ("stuck-too".to_string(), "lost-wake"),
                ]
            ),
            o => panic!("expected deadlock, got {o:?}"),
        }
    }

    #[test]
    fn scheduled_calls_fire_in_time_order_with_fifo_ties() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let log: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        for (i, at_ms) in [(1u32, 5u64), (2, 5), (3, 1)] {
            let log = Arc::clone(&log);
            h.call_at(SimTime::ZERO + Duration::from_millis(at_ms), move || {
                log.lock().push(i);
            });
        }
        sched.run();
        assert_eq!(*log.lock(), vec![3, 1, 2]);
    }

    #[test]
    fn hooks_closures_and_sleep_wakes_fire_by_time_then_schedule_order() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let note = {
            let (log, h) = (Arc::clone(&log), h.clone());
            move |what: String| {
                let at = h.now().as_nanos() / 1_000_000;
                log.lock().push(format!("{at} {what}"));
            }
        };
        let hook = {
            let note = note.clone();
            h.register_hook(move |arg| note(format!("hook {arg}")))
        };
        let ms = |n: u64| SimTime::ZERO + Duration::from_millis(n);
        // Task i schedules hook(10 + i), then a timer it cancels, then a
        // closure, then its own sleep wake, in spawn order: the three kinds
        // that fire interleave in schedule order, and the cancelled timers
        // neither run nor move anything.
        for (i, (hook_at, call_at, sleep)) in [(5, 5, 5), (1, 5, 1), (5, 1, 5), (3, 3, 5)]
            .into_iter()
            .enumerate()
        {
            let (h, note) = (h.clone(), note.clone());
            sched.spawn(format!("t{i}"), move || {
                HookQueue::new().push(&h, (hook, 10 + i as u64), ms(hook_at), ());
                let n = note.clone();
                drop(h.timer(ms(call_at), move || n(format!("timer {i}"))));
                let n = note.clone();
                h.call_at(ms(call_at), move || n(format!("call {i}")));
                ctx::sleep(Duration::from_millis(sleep));
                note(format!("wake {i}"));
            });
        }
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert_eq!(
            *log.lock(),
            [
                "1 hook 11",
                "1 wake 1",
                "1 call 2",
                "3 hook 13",
                "3 call 3",
                "5 hook 10",
                "5 call 0",
                "5 wake 0",
                "5 call 1",
                "5 hook 12",
                "5 wake 2",
                "5 wake 3",
            ]
        );
    }

    #[test]
    fn dropping_a_timer_cancels_its_event_and_drops_its_closure_at_once() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let (held, ran) = (Arc::new(()), Arc::new(AtomicBool::new(false)));
        let (h2, r2) = (Arc::clone(&held), Arc::clone(&ran));
        let timer = h.timer(h.now() + Duration::from_millis(5), move || {
            drop(h2);
            r2.store(true, Ordering::SeqCst);
        });
        assert_eq!(Arc::strong_count(&held), 2);
        drop(timer);
        assert_eq!(
            Arc::strong_count(&held),
            1,
            "the closure outlived its timer"
        );
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert!(!ran.load(Ordering::SeqCst));
    }

    #[test]
    fn a_timer_cancelled_by_an_event_at_its_own_instant_does_not_run() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let at = h.now() + Duration::from_millis(5);
        let log: Arc<Mutex<Vec<&str>>> = Arc::new(Mutex::new(Vec::new()));
        let slot: Arc<Mutex<Option<Timer>>> = Arc::new(Mutex::new(None));
        let (l1, s1) = (Arc::clone(&log), Arc::clone(&slot));
        h.call_at(at, move || {
            l1.lock().push("canceller");
            drop(s1.lock().take());
        });
        let l2 = Arc::clone(&log);
        *slot.lock() = Some(h.timer(at, move || l2.lock().push("timer")));
        let l3 = Arc::clone(&log);
        h.call_at(at, move || l3.lock().push("after"));
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert_eq!(*log.lock(), ["canceller", "after"]);
    }

    #[test]
    fn the_clock_never_stops_at_a_cancelled_time() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let ms = |n: u64| SimTime::ZERO + Duration::from_millis(n);
        let late = h.timer(ms(7), || {});
        let early = h.timer(ms(1), || {});
        h.call_at(ms(3), move || drop(late));
        drop(early);
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert_eq!(sched.now(), ms(3));
    }

    #[test]
    fn a_run_with_only_cancelled_events_left_is_idle_or_a_deadlock() {
        let sched = Scheduler::new();
        let h = sched.handle();
        drop(h.timer(h.now() + Duration::from_secs(10), || {}));
        assert_eq!(sched.run_for(Duration::from_secs(5)), RunOutcome::Idle);
        assert_eq!(sched.now(), SimTime::ZERO);
        sched.spawn("stuck", || ctx::park("forever"));
        drop(h.timer(h.now() + Duration::from_secs(10), || {}));
        assert_eq!(
            sched.run_for(Duration::from_secs(5)),
            RunOutcome::Deadlock(vec![("stuck".to_string(), "forever")])
        );
    }

    #[test]
    fn run_for_respects_time_limit() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let fired = Arc::new(AtomicUsize::new(0));
        let f2 = Arc::clone(&fired);
        h.call_at(h.now() + Duration::from_secs(10), move || {
            f2.store(1, Ordering::SeqCst);
        });
        assert_eq!(sched.run_for(Duration::from_secs(5)), RunOutcome::TimeLimit);
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        assert_eq!(sched.run_for(Duration::from_secs(10)), RunOutcome::Idle);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn run_for_the_longest_duration_once_the_clock_has_moved_runs_to_idle() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let fired = Arc::new(AtomicUsize::new(0));
        let f2 = Arc::clone(&fired);
        h.call_at(SimTime::from_secs(1), || {});
        h.call_at(SimTime::from_secs(2), move || {
            f2.store(1, Ordering::SeqCst);
        });
        let one_s = SimTime::from_secs(1);
        assert_eq!(sched.run_until(one_s), RunOutcome::TimeLimit);
        assert_eq!(sched.now(), one_s);
        assert_eq!(sched.run_for(Duration::MAX), RunOutcome::Idle);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn task_panic_propagates() {
        let sched = Scheduler::new();
        sched.spawn("boom", || panic!("exploded"));
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| sched.run()));
        assert!(r.is_err());
    }

    #[test]
    fn yield_now_interleaves_fairly() {
        let sched = Scheduler::new();
        let log: Arc<Mutex<Vec<&str>>> = Arc::new(Mutex::new(Vec::new()));
        for name in ["x", "y"] {
            let log = Arc::clone(&log);
            sched.spawn(name, move || {
                for _ in 0..3 {
                    log.lock().push(name);
                    ctx::yield_now();
                }
            });
        }
        sched.run();
        assert_eq!(*log.lock(), vec!["x", "y", "x", "y", "x", "y"]);
    }

    /// This scheduler's cross-thread grants so far.
    fn grants(h: &SchedHandle) -> u64 {
        h.core.state.borrow().grants
    }

    #[test]
    fn lone_task_never_switches_threads() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let inside = sched.spawn("lone", move || {
            let g0 = grants(&h);
            for _ in 0..1000 {
                ctx::yield_now();
            }
            for _ in 0..1000 {
                ctx::sleep(Duration::from_micros(3));
            }
            grants(&h) - g0
        });
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert_eq!(sched.now().as_nanos(), 3_000_000);
        assert_eq!(inside.result.lock().take(), Some(0));
        // Caller to the task, and the task back to the caller.
        assert_eq!(grants(&sched.handle()), 2);
    }

    #[test]
    fn ping_pong_costs_one_grant_per_message() {
        const ROUNDS: u64 = 500;
        let sched = Scheduler::new();
        let h = sched.handle();
        let ping = crate::sync::SimQueue::<u64>::bounded(1);
        let pong = crate::sync::SimQueue::<u64>::bounded(1);
        let (ping2, pong2) = (ping.clone(), pong.clone());
        sched.spawn("echo", move || {
            while let Some(v) = ping2.pop() {
                pong2.push(v).unwrap();
            }
        });
        let spent = sched.spawn("client", move || {
            // One warm-up round trip so both sides sit in their loops.
            ping.push(0).unwrap();
            pong.pop().unwrap();
            let g0 = grants(&h);
            for i in 1..=ROUNDS {
                ping.push(i).unwrap();
                assert_eq!(pong.pop(), Some(i));
            }
            let spent = grants(&h) - g0;
            ping.close();
            spent
        });
        assert_eq!(sched.run(), RunOutcome::Idle);
        // Each message crosses threads once: client -> echo, echo -> client.
        assert_eq!(spent.result.lock().take(), Some(2 * ROUNDS));
    }

    #[test]
    fn time_limit_hit_on_a_task_thread_returns_to_the_caller() {
        let sched = Scheduler::new();
        let ticks = Arc::new(AtomicUsize::new(0));
        let t2 = Arc::clone(&ticks);
        let ticker = sched.spawn("ticker", move || {
            for _ in 0..10 {
                ctx::sleep(Duration::from_secs(1));
                t2.fetch_add(1, Ordering::SeqCst);
            }
        });
        // The ticker is alone, so it is the one driving when the next
        // event (its own wake at t=4s) lies past the limit.
        assert_eq!(
            sched.run_for(Duration::from_millis(3500)),
            RunOutcome::TimeLimit
        );
        assert_eq!(ticks.load(Ordering::SeqCst), 3);
        assert_eq!(sched.now().as_nanos(), 3_000_000_000);
        assert!(!ticker.is_finished());
        // A later run picks the same parked task up where it stopped.
        assert_eq!(sched.run_for(Duration::from_secs(2)), RunOutcome::TimeLimit);
        assert_eq!(ticks.load(Ordering::SeqCst), 5);
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert_eq!(ticks.load(Ordering::SeqCst), 10);
        assert!(ticker.is_finished());
    }

    #[test]
    fn task_finishing_among_runnable_tasks_hands_the_baton_on() {
        let sched = Scheduler::new();
        let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        for (name, rounds) in [("short", 1), ("long", 3), ("mid", 2)] {
            let log = Arc::clone(&log);
            sched.spawn(name, move || {
                for i in 0..rounds {
                    log.lock().push(format!("{name}{i}"));
                    ctx::yield_now();
                }
            });
        }
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert_eq!(
            *log.lock(),
            ["short0", "long0", "mid0", "long1", "mid1", "long2"]
        );
    }

    #[test]
    fn slice_and_event_order_is_reproduced_exactly() {
        fn scenario() -> Vec<String> {
            let sched = Scheduler::new();
            let h = sched.handle();
            let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
            let note = {
                let (log, h) = (Arc::clone(&log), h.clone());
                move |what: &str| {
                    let at = h.now().as_nanos() / 1_000_000;
                    log.lock().push(format!("{at}ms {what}"));
                }
            };
            let q = crate::sync::SimQueue::<u32>::bounded(1);
            let (q2, n) = (q.clone(), note.clone());
            sched.spawn("producer", move || {
                for i in 0..3 {
                    ctx::sleep(Duration::from_millis(10));
                    n(&format!("produce {i}"));
                    q2.push(i).unwrap();
                }
                q2.close();
            });
            let n = note.clone();
            sched.spawn("consumer", move || {
                while let Some(i) = q.pop() {
                    n(&format!("consume {i}"));
                    ctx::sleep(Duration::from_millis(15));
                }
                n("consumer done");
            });
            let n = note.clone();
            sched.spawn("ticker", move || {
                for i in 0..3 {
                    ctx::yield_now();
                    n(&format!("tick {i}"));
                    ctx::sleep(Duration::from_millis(20));
                }
            });
            for (at, tag) in [(20u64, "timer A"), (10, "timer B"), (20, "timer C")] {
                let n = note.clone();
                h.call_at(SimTime::ZERO + Duration::from_millis(at), move || n(tag));
            }
            assert_eq!(sched.run(), RunOutcome::Idle);
            let out = log.lock().clone();
            out
        }
        let first = scenario();
        assert_eq!(
            first,
            [
                "0ms tick 0",
                "10ms timer B",
                "10ms produce 0",
                "10ms consume 0",
                "20ms timer A",
                "20ms timer C",
                "20ms tick 1",
                "20ms produce 1",
                "25ms consume 1",
                "30ms produce 2",
                "40ms tick 2",
                "40ms consume 2",
                "55ms consumer done",
            ]
        );
        assert_eq!(scenario(), first);
    }

    #[test]
    fn events_fired_by_a_task_thread_see_no_task_context() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let seen: Arc<Mutex<Vec<(bool, bool)>>> = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&seen);
        sched.spawn("sleeper", move || {
            let me = std::thread::current().id();
            // Fires while this task is asleep and alone, so on its thread.
            h.call_at(h.now() + Duration::from_millis(1), move || {
                let on_task_thread = std::thread::current().id() == me;
                s2.lock().push((on_task_thread, ctx::in_task()));
            });
            ctx::sleep(Duration::from_millis(2));
            assert!(ctx::in_task(), "context is back after the drive");
        });
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert_eq!(*seen.lock(), [(true, false)]);

        // And the task-only calls panic there as they do on the caller.
        let calls: [fn(); 2] = [
            || ctx::park("in-event"),
            || {
                ctx::now();
            },
        ];
        for call in calls {
            let sched = Scheduler::new();
            let h = sched.handle();
            sched.spawn("sleeper", move || {
                h.call_at(h.now() + Duration::from_millis(1), call);
                ctx::sleep(Duration::from_millis(2));
            });
            let p = std::panic::catch_unwind(AssertUnwindSafe(|| sched.run())).unwrap_err();
            // `expect` formats its message, so the payload is a `String`.
            let msg = p.downcast_ref::<String>().map(String::as_str);
            assert_eq!(msg, Some("not inside a simulated task"));
        }
    }

    #[test]
    fn event_panic_on_a_task_thread_resumes_on_the_caller() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let after = Arc::new(AtomicUsize::new(0));
        let a2 = Arc::clone(&after);
        sched.spawn("sleeper", move || {
            h.call_at(h.now() + Duration::from_millis(1), || panic!("first"));
            h.call_at(h.now() + Duration::from_millis(1), || panic!("second"));
            ctx::sleep(Duration::from_millis(2));
            a2.store(1, Ordering::SeqCst);
        });
        let p = std::panic::catch_unwind(AssertUnwindSafe(|| sched.run())).unwrap_err();
        assert_eq!(p.downcast_ref::<&str>(), Some(&"first"));
        // The loop stopped at the panic: nothing later ran, and the
        // sleeper's thread survived it, still parked.
        assert_eq!(after.load(Ordering::SeqCst), 0);
        assert_eq!(sched.now().as_nanos(), 1_000_000);
        let p = std::panic::catch_unwind(AssertUnwindSafe(|| sched.run())).unwrap_err();
        assert_eq!(p.downcast_ref::<&str>(), Some(&"second"));
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert_eq!(after.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn workers_are_reused_and_unmapped_when_the_scheduler_drops() {
        let sched = Scheduler::new();
        let on = Arc::new(Mutex::new(std::collections::BTreeSet::new()));
        for i in 0..40u64 {
            let on = Arc::clone(&on);
            sched.spawn(format!("t{i}"), move || {
                on.lock().insert(my_stack());
                ctx::sleep(Duration::from_millis(i % 7));
            });
            assert_eq!(sched.run(), RunOutcome::Idle);
        }
        assert_eq!(on.lock().len(), 1, "one task after another, one stack");
        assert_eq!(sched.handle().metric(STACKS), 1);
        for i in 0..8u64 {
            let on = Arc::clone(&on);
            sched.spawn(format!("u{i}"), move || {
                on.lock().insert(my_stack());
                ctx::sleep(Duration::from_millis(i % 3));
            });
        }
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert_eq!(on.lock().len(), 8, "eight at once, the first reused");
        assert_eq!(sched.handle().metric(STACKS), 8);
        let idle: Vec<_> = sched
            .core
            .state
            .borrow()
            .idle
            .iter()
            .map(Arc::downgrade)
            .collect();
        let core = Arc::downgrade(&sched.core);
        assert_eq!(idle.len(), 8, "idle, not gone");
        drop(sched);
        assert!(
            idle.iter().all(|s| s.upgrade().is_none()),
            "every idle stack unmapped"
        );
        assert!(core.upgrade().is_none(), "every worker's body returned");
    }

    /// A task that waits forever in its slot holds its future, the future
    /// its own waker, and the waker the scheduler's core: dropping the
    /// scheduler drops the future, so the core goes with it. A task that
    /// finished holds nothing either way.
    #[test]
    fn dropping_the_scheduler_drops_the_tasks_waiting_in_their_slots() {
        for waits in [false, true] {
            let sched = Scheduler::new();
            let core = Arc::downgrade(&sched.core);
            let forever = ctx::wait("never", move || match waits {
                true => Poll::Pending,
                false => Poll::Ready(()),
            });
            sched.handle().spawn_async("forever", forever);
            assert_eq!(sched.run(), RunOutcome::Idle);
            drop(sched);
            assert!(core.upgrade().is_none(), "the core outlives its scheduler");
        }
    }

    #[test]
    fn a_task_takes_a_worker_when_it_first_runs() {
        let sched = Scheduler::new();
        let h = sched.handle();
        sched.spawn("never-run", || {});
        assert_eq!(h.metric(STACKS), 0, "a task spawned and never run");
        drop(sched);
        // The first runs on one worker; each finishing one picks the next
        // before it is idle, so the next takes a second, and the two take
        // turns.
        let sched = Scheduler::new();
        for i in 0..16 {
            sched.spawn(format!("t{i}"), || {});
        }
        assert_eq!(sched.handle().metric(STACKS), 0, "spawned, not yet run");
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert_eq!(sched.handle().metric(STACKS), 2, "sixteen tasks in turn");
    }

    /// A panic in the scheduler loop itself reaches `run_until`'s caller
    /// like a task's, whether the loop runs in a task's sleep or on its
    /// worker after the task ended: here an event whose hook was never
    /// registered. The run is on a helper thread, so a hang fails the test.
    #[test]
    fn a_panic_in_the_loop_on_a_worker_reaches_the_caller() {
        for (hook_ms, sleep_ms) in [(1, 2), (2, 1)] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let sched = Scheduler::new();
                let h = sched.handle();
                sched.spawn("pusher", move || {
                    let at = h.now() + Duration::from_millis(hook_ms);
                    HookQueue::new().push(&h, (HookId(7), 0), at, ());
                    ctx::sleep(Duration::from_millis(sleep_ms));
                });
                let out = std::panic::catch_unwind(AssertUnwindSafe(|| sched.run()));
                let _ = tx.send(out.map_err(|p| p.downcast_ref::<String>().cloned()));
            });
            let out = rx.recv_timeout(Duration::from_secs(30));
            let msg = out.expect("run_until hung").expect_err("the run panicked");
            let msg = msg.expect("an index panic formats its message");
            assert!(msg.contains("index out of bounds"), "{msg}");
        }
    }

    /// The worker stack the calling task runs on, by address: `None` for a
    /// task polled inline.
    fn my_stack() -> Option<usize> {
        CURRENT.with_borrow(|c| {
            let stack = c.as_ref().and_then(|c| c.stack.as_ref());
            stack.map(|s| Arc::as_ptr(s) as usize)
        })
    }

    /// The worker stack a task ran on, as seen from inside it.
    fn stack_of_task(sched: &Scheduler, f: impl FnOnce() + Send + 'static) -> usize {
        let task = sched.spawn("probe", move || {
            f();
            my_stack()
        });
        assert_eq!(sched.run(), RunOutcome::Idle);
        let on = task.result.lock().take();
        on.expect("the probe task finished").expect("on a worker")
    }

    #[test]
    fn a_finishing_task_whose_successor_promotes_does_not_run_it_itself() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let first = stack_of_task(&sched, || {});
        let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let (l, h2) = (Arc::clone(&log), h.clone());
        sched.spawn("finisher", move || {
            assert_eq!(my_stack(), Some(first), "the idle worker");
            let l = Arc::clone(&l);
            // Runnable behind this task: its finish pops it, polls it and
            // maps its stack before this worker is idle.
            h2.spawn_async("promotes", async move {
                ctx::blocking(|| {
                    let other = my_stack().is_some_and(|s| s != first);
                    l.lock().push(format!("promoted, other stack: {other}"));
                    ctx::sleep(Duration::from_millis(1));
                    l.lock().push(format!("woken at {}", ctx::now().as_nanos()));
                })
                .await;
            });
        });
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert_eq!(
            *log.lock(),
            ["promoted, other stack: true", "woken at 1000000"]
        );
        assert_eq!(h.metric(STACKS), 2);
    }

    #[test]
    fn a_promoted_body_lands_on_an_idle_worker() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let first = stack_of_task(&sched, || {});
        let ran_on = Arc::new(Mutex::new(None));
        let r = Arc::clone(&ran_on);
        let tid = h.spawn_async("promoted", async move {
            let (me, h) = (ctx::waker(), ctx::handle());
            h.call_at(h.now() + Duration::from_millis(1), move || me.wake());
            once_pending("first").await;
            ctx::blocking(|| {
                ctx::sleep(Duration::from_millis(1));
                *r.lock() = Some((my_stack(), ctx::waker().task()));
            })
            .await;
        });
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert_eq!(ran_on.lock().take(), Some((Some(first), tid)));
        assert_eq!(h.metric(STACKS), 1);
    }

    #[test]
    fn a_panicking_tasks_payload_reaches_the_caller_and_its_worker_runs_on() {
        #[derive(Debug, PartialEq)]
        struct Payload(u32);
        let sched = Scheduler::new();
        sched.spawn("boom", || std::panic::panic_any(Payload(7)));
        let p = std::panic::catch_unwind(AssertUnwindSafe(|| sched.run())).unwrap_err();
        assert_eq!(p.downcast_ref::<Payload>(), Some(&Payload(7)));
        let boom = stack_of_task(&sched, || {});
        let again = stack_of_task(&sched, || ctx::sleep(Duration::from_millis(1)));
        assert_eq!(boom, again);
        assert_eq!(sched.handle().metric(STACKS), 1);
    }

    #[test]
    fn a_snapshot_lists_names_in_the_same_order_on_every_run() {
        let names = || {
            let sched = Scheduler::new();
            let h = sched.handle();
            h.metric_add(Metric("node", Some(12), "walks"), 1);
            h.metric_max(Metric("world", None, "walk_peak"), 2);
            h.metric_add(Metric("node", Some(3), "links"), 1);
            sched.spawn("t", || ctx::sleep(Duration::from_millis(1)));
            sched.run();
            let names: Vec<_> = h.metrics().keys().map(Metric::to_string).collect();
            names.join(" ")
        };
        let expect = "node/3/links node/12/walks sched/grants sched/stacks task/parks/sleep \
                      world/walk_peak";
        assert_eq!(names(), expect);
        assert_eq!(names(), expect);
    }

    #[test]
    fn add_and_max_keep_a_gauge_and_its_peak() {
        let h = Scheduler::new().handle();
        let (up, peak) = (Metric("world", None, "up"), Metric("world", None, "peak"));
        for delta in [1, 1, -1, 1, 1, -1, -1, -1] {
            h.metric_max(peak, h.metric_add(up, delta));
        }
        let never = h.metric(Metric("world", None, "never"));
        assert_eq!([h.metric(up), h.metric(peak), never], [0, 3, 0]);
    }

    /// A wait that is pending the first time it is asked, under `reason`,
    /// and ready from the next: one park, unless a wake is already pending.
    fn once_pending(reason: &'static str) -> impl Future<Output = ()> {
        let mut asked = false;
        ctx::wait(reason, move || match std::mem::replace(&mut asked, true) {
            true => Poll::Ready(()),
            false => Poll::Pending,
        })
    }

    /// How the relay task of [`relay_scenario`] runs.
    #[derive(Clone, Copy, PartialEq)]
    enum Form {
        Thread,
        /// An async task that only waits.
        Inline,
        /// An async task, each odd item's push a blocking section: a
        /// blocking push on a thread, after which the task goes on inline.
        Promoting,
    }

    /// The producer → relay → consumer scenario of the inline-task tests:
    /// a relay task moves items from `inbox` to a one-slot `outbox`, on a
    /// thread or inline, with the same queue calls in the same order. The
    /// log notes every slice and event, and the parks by reason close it.
    fn relay_scenario(form: Form) -> (Vec<String>, u64) {
        use crate::sync::SimQueue;
        let sched = Scheduler::new();
        let h = sched.handle();
        let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let note = {
            let (log, h) = (Arc::clone(&log), h.clone());
            move |what: &str| {
                let at = h.now().as_nanos() / 1_000_000;
                log.lock().push(format!("{at}ms {what}"));
            }
        };
        let (inbox, outbox) = (SimQueue::<u32>::bounded(2), SimQueue::<u32>::bounded(1));
        let (q, n) = (inbox.clone(), note.clone());
        sched.spawn("producer", move || {
            for i in 0..6 {
                ctx::sleep(Duration::from_millis([3, 0, 7][i as usize % 3]));
                n(&format!("produce {i}"));
                q.push(i).unwrap();
            }
            q.close();
        });
        let (from, to, n) = (inbox, outbox.clone(), note.clone());
        if form == Form::Thread {
            sched.spawn_daemon("relay", move || {
                while let Some(i) = from.pop() {
                    n(&format!("relay {i}"));
                    if i % 2 == 1 {
                        n(&format!("promoted push {i}"));
                    }
                    if to.push(i).is_err() {
                        return;
                    }
                }
                to.close();
            });
        } else {
            h.spawn_async("relay", async move {
                while let Some(i) = ctx::wait(SimQueue::<u32>::POP_WAIT, || from.poll_pop()).await {
                    n(&format!("relay {i}"));
                    let pushed = if form == Form::Promoting && i % 2 == 1 {
                        ctx::blocking(|| {
                            n(&format!("promoted push {i}"));
                            to.push(i)
                        })
                        .await
                    } else {
                        let mut held = Some(i);
                        ctx::wait(SimQueue::<u32>::PUSH_WAIT, || to.poll_push(&mut held)).await
                    };
                    if pushed.is_err() {
                        return;
                    }
                }
                to.close();
            });
        }
        let n = note.clone();
        sched.spawn("consumer", move || {
            while let Some(i) = outbox.pop() {
                n(&format!("consume {i}"));
                ctx::sleep(Duration::from_millis(4));
            }
            n("consumer done");
        });
        for (at, tag) in [(3u64, "timer A"), (8, "timer B")] {
            let n = note.clone();
            h.call_at(SimTime::ZERO + Duration::from_millis(at), move || n(tag));
        }
        assert_eq!(sched.run(), RunOutcome::Idle);
        let mut out = log.lock().clone();
        for (name, v) in h.metrics() {
            if name.0 == "task/parks" {
                out.push(format!("{name} {v}"));
            }
        }
        (out, h.metric(GRANTS) as u64)
    }

    #[test]
    fn an_inline_task_reproduces_its_thread_forms_slices_events_and_parks() {
        let (threaded, thread_grants) = relay_scenario(Form::Thread);
        let (inline, inline_grants) = relay_scenario(Form::Inline);
        let (promoting, _) = relay_scenario(Form::Promoting);
        // The log of the inline form has no promotion lines to skip: its
        // slices and events are the thread form's but for those notes.
        let unnoted = |log: &[String]| -> Vec<String> {
            let kept = log.iter().filter(|l| !l.contains("promoted push"));
            kept.cloned().collect()
        };
        assert_eq!(inline, unnoted(&threaded));
        assert_eq!(
            promoting, threaded,
            "an async task with blocking sections, promoted mid-life and resuming"
        );
        assert!(
            threaded.iter().any(|l| l == "task/parks/queue push 1"),
            "the scenario fills the outbox: {threaded:?}"
        );
        assert!(
            inline_grants < thread_grants,
            "{inline_grants} vs {thread_grants}"
        );
        assert_eq!(relay_scenario(Form::Inline), (inline, inline_grants));
    }

    #[test]
    fn park_inside_an_inline_step_panics_with_the_tasks_name() {
        let calls: [fn(); 3] = [
            || ctx::park("never"),
            || ctx::sleep(Duration::from_millis(1)),
            ctx::yield_now,
        ];
        for call in calls {
            let sched = Scheduler::new();
            sched.handle().spawn_async("pumpish", async move { call() });
            let p = std::panic::catch_unwind(AssertUnwindSafe(|| sched.run())).unwrap_err();
            let msg = p.downcast_ref::<String>().map(String::as_str);
            assert_eq!(
                msg,
                Some("inline task `pumpish` cannot park, sleep or yield")
            );
        }
    }

    #[test]
    fn a_wake_during_a_step_runs_it_again_at_once() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let steps = Arc::new(AtomicUsize::new(0));
        let s2 = Arc::clone(&steps);
        h.spawn_async(
            "self-waker",
            // Two polls wake the task before it blocks; the third blocks for
            // good. Only that one is a park.
            ctx::wait("test-wait", move || {
                if s2.fetch_add(1, Ordering::SeqCst) < 2 {
                    ctx::waker().wake();
                }
                Poll::<()>::Pending
            }),
        );
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert_eq!(steps.load(Ordering::SeqCst), 3);
        assert_eq!(h.metric(Metric("task/parks", None, "test-wait")), 1);
        assert_eq!(h.metric(GRANTS), 0, "the root ran every poll itself");
    }

    #[test]
    fn a_promoted_task_keeps_its_id_and_runs_next() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let (l, h2) = (Arc::clone(&log), h.clone());
        let tid = h.spawn_async("promoted", async move {
            // First poll: leave a waker behind, as a socket read would.
            let stale = ctx::waker();
            let w = stale.clone();
            h2.call_at(h2.now() + Duration::from_millis(1), move || w.wake());
            once_pending("first").await;
            ctx::blocking(|| {
                assert_eq!(ctx::waker().task(), stale.task(), "same id on the thread");
                l.lock().push(format!("thread {}", ctx::now().as_nanos()));
                // The waker taken inline still reaches the thread.
                let h = ctx::handle();
                h.call_at(ctx::now() + Duration::from_millis(1), move || stale.wake());
                ctx::park("second");
                l.lock().push(format!("woken {}", ctx::now().as_nanos()));
            })
            .await;
        });
        // Runnable behind the promoted task when it is woken: it must not
        // run in between.
        let l = Arc::clone(&log);
        sched.spawn("other", move || {
            ctx::sleep(Duration::from_millis(1));
            l.lock().push("other".to_string());
        });
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert_eq!(
            *log.lock(),
            ["thread 1000000", "other", "woken 2000000"],
            "task {tid:?}"
        );
    }

    /// When a blocking section returns, its worker polls the task on at
    /// once — before a task made runnable at the same instant — and a
    /// second section from there runs on the same worker, with no switch.
    #[test]
    fn a_resumed_step_runs_at_once_on_its_worker_and_may_promote_again() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let stack = || format!("{:?}", my_stack());
        let l = Arc::clone(&log);
        h.spawn_async("twice", async move {
            for steps in 1..=3 {
                l.lock().push(format!("step {steps} on {}", stack()));
                if steps == 3 {
                    return;
                }
                ctx::blocking(|| {
                    l.lock().push(format!("body on {}", stack()));
                    ctx::sleep(Duration::from_millis(1));
                })
                .await;
            }
        });
        let l = Arc::clone(&log);
        sched.spawn("other", move || {
            ctx::sleep(Duration::from_millis(1));
            l.lock().push(format!("other at {}", ctx::now().as_nanos()));
        });
        assert_eq!(sched.run(), RunOutcome::Idle);
        let log = log.lock().clone();
        let worker = log[1]
            .strip_prefix("body on ")
            .expect("a body ran")
            .to_string();
        let on = |what: &str| format!("{what} on {worker}");
        let expect = [
            "step 1 on None".to_string(),
            on("body"),
            on("step 2"),
            on("body"),
            "other at 1000000".to_string(),
            on("step 3"),
        ];
        assert_eq!(log, expect);
        assert_eq!(h.metric(STACKS), 2, "one worker for both bodies");
    }

    #[test]
    fn a_panic_in_a_promoted_body_surfaces_and_ends_its_task() {
        let sched = Scheduler::new();
        let steps = Arc::new(AtomicUsize::new(0));
        let s2 = Arc::clone(&steps);
        sched.handle().spawn_async("boom", async move {
            loop {
                s2.fetch_add(1, Ordering::SeqCst);
                ctx::blocking(|| std::panic::panic_any("promoted and blew up")).await
            }
        });
        let p = std::panic::catch_unwind(AssertUnwindSafe(|| sched.run())).unwrap_err();
        assert_eq!(p.downcast_ref::<&str>(), Some(&"promoted and blew up"));
        assert_eq!(sched.run(), RunOutcome::Idle, "the task is over");
        assert_eq!(steps.load(Ordering::SeqCst), 1, "no step after the panic");
    }

    /// A wake that lands while a blocking section runs — the task is running
    /// then — is kept: the wait that follows is asked again instead of
    /// parking.
    #[test]
    fn a_wake_during_a_promoted_body_is_not_lost() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let steps = Arc::new(AtomicUsize::new(0));
        let s2 = Arc::clone(&steps);
        h.spawn_async("woken", async move {
            s2.fetch_add(1, Ordering::SeqCst);
            ctx::blocking(|| ctx::waker().wake()).await;
            ctx::wait("test-wait", || match s2.fetch_add(1, Ordering::SeqCst) {
                1 => Poll::Pending,
                _ => Poll::Ready(()),
            })
            .await;
        });
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert_eq!(steps.load(Ordering::SeqCst), 3);
        assert_eq!(h.metric(Metric("task/parks", None, "test-wait")), 0);
    }

    /// A blocking section runs on a worker under its task's id; a wake it
    /// delivers is kept for the wait after it; and a second section, once
    /// that worker is idle (the run stopped in between), takes it again.
    #[test]
    fn a_blocking_section_runs_on_a_worker_under_its_task_and_keeps_its_wakes() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&seen);
        let tid = h.spawn_async("blocks", async move {
            let on = |what: &'static str| s2.lock().push((what, my_stack(), ctx::waker().task()));
            ctx::blocking(|| {
                on("first");
                ctx::waker().wake();
            })
            .await;
            // The first ask would block: the wake above polls the task again.
            let mut asked = 0;
            ctx::wait("test-wait", || {
                asked += 1;
                if asked == 1 {
                    Poll::Pending
                } else {
                    Poll::Ready(())
                }
            })
            .await;
            let (me, at) = (ctx::waker(), ctx::now() + Duration::from_millis(1));
            let timer = ctx::handle().timer(at, move || me.wake());
            ctx::wait("timer", || {
                if ctx::now() < at {
                    Poll::Pending
                } else {
                    Poll::Ready(())
                }
            })
            .await;
            drop(timer);
            let threads = ctx::handle().metric(STACKS);
            ctx::blocking(|| {
                on("second");
                ctx::sleep(Duration::from_millis(1));
            })
            .await;
            assert_eq!(ctx::handle().metric(STACKS), threads, "a warm world");
        });
        let stop = Duration::from_micros(500);
        assert_eq!(sched.run_for(stop), RunOutcome::TimeLimit);
        assert_eq!(sched.run(), RunOutcome::Idle);
        let worker = seen.lock()[0].1;
        assert!(worker.is_some(), "on a worker");
        let expect = [("first", worker, tid), ("second", worker, tid)];
        assert_eq!(*seen.lock(), expect);
        assert_eq!(h.metric(Metric("task/parks", None, "test-wait")), 0);
        assert_eq!(h.metric(Metric("task/parks", None, "timer")), 1);
        assert_eq!(h.metric(STACKS), 1);
        assert_eq!(sched.now().as_nanos(), 2_000_000);
    }

    /// Every blocking task, promoted bodies and a task a ping-pong wakes
    /// included, runs on the OS thread that called `run_until`.
    #[test]
    fn every_blocking_task_runs_on_the_thread_of_run_until() {
        let sched = Scheduler::new();
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let note = {
            let r = Arc::clone(&ran_on);
            move || r.lock().push((std::thread::current().id(), my_stack()))
        };
        let (ping, pong) = (SimQueue::<u32>::bounded(1), SimQueue::<u32>::bounded(1));
        let (p, q, n) = (ping.clone(), pong.clone(), note.clone());
        sched.spawn("echo", move || {
            while let Some(v) = p.pop() {
                n();
                q.push(v).unwrap();
            }
        });
        let n = note.clone();
        sched.spawn("client", move || {
            for i in 0..3 {
                ping.push(i).unwrap();
                pong.pop().unwrap();
                n();
            }
            ping.close();
        });
        let n = note.clone();
        sched.handle().spawn_async("promoted", async move {
            ctx::blocking(|| {
                ctx::sleep(Duration::from_millis(1));
                n();
            })
            .await;
        });
        assert_eq!(sched.run(), RunOutcome::Idle);
        let ran_on = ran_on.lock();
        let stacks: std::collections::BTreeSet<_> = ran_on.iter().map(|&(_, s)| s).collect();
        assert_eq!(stacks.len(), 3, "three workers: {ran_on:?}");
        assert!(!stacks.contains(&None), "every note from a worker");
        let me = std::thread::current().id();
        assert!(ran_on.iter().all(|&(t, _)| t == me), "{ran_on:?} vs {me:?}");
    }

    /// A blocking task recurses through a mebibyte of its stack, sleeps at
    /// the bottom while another task runs, and returns.
    #[test]
    fn a_task_recursing_through_a_mebibyte_of_stack_completes() {
        fn dig(top: usize) -> usize {
            let frame = std::hint::black_box([1u8; 1024]);
            if top - std::ptr::addr_of!(frame) as usize >= 1 << 20 {
                ctx::sleep(Duration::from_millis(1));
                return 0;
            }
            dig(top) + usize::from(frame[1023])
        }
        let sched = Scheduler::new();
        let deep = sched.spawn("deep", || {
            let top = 0u8;
            dig(std::ptr::addr_of!(top) as usize)
        });
        sched.spawn("other", || ctx::sleep(Duration::from_millis(1)));
        assert_eq!(sched.run(), RunOutcome::Idle);
        let frames = deep.result.lock().take().expect("the deep task returned");
        assert!((100..1024).contains(&frames), "{frames} frames");
    }

    /// A simulation whose task is parked mid-stack belongs to its thread:
    /// driven from another, it panics naming its table before any switch,
    /// and the stack resumes only back on the owner.
    #[test]
    fn a_parked_stack_never_resumes_on_another_thread() {
        let sched = Scheduler::new();
        let resumed = Arc::new(AtomicBool::new(false));
        let r = Arc::clone(&resumed);
        sched.spawn("parked", move || {
            ctx::sleep(Duration::from_millis(1));
            r.store(true, Ordering::SeqCst);
        });
        assert_eq!(
            sched.run_for(Duration::from_micros(500)),
            RunOutcome::TimeLimit
        );
        let (sched, p) = std::thread::spawn(move || {
            let p = std::panic::catch_unwind(AssertUnwindSafe(|| sched.run()));
            let msg = p
                .expect_err("a foreign driver")
                .downcast_ref::<String>()
                .cloned();
            (sched, msg)
        })
        .join()
        .expect("the foreign thread returns the scheduler");
        let expect = "`SchedState` touched by a thread not its owner";
        assert_eq!(p.as_deref(), Some(expect));
        assert!(
            !resumed.load(Ordering::SeqCst),
            "resumed on the foreign thread"
        );
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert!(resumed.load(Ordering::SeqCst));
    }

    #[test]
    fn a_blocked_inline_task_is_not_a_deadlock() {
        let sched = Scheduler::new();
        let idle = || ctx::wait("tcp read", || Poll::<()>::Pending);
        sched.handle().spawn_async("idle-pump", idle());
        sched.spawn("stuck", || ctx::park("never-signalled"));
        match sched.run_until(SimTime::MAX) {
            RunOutcome::Deadlock(v) => {
                assert_eq!(v, vec![("stuck".to_string(), "never-signalled")])
            }
            o => panic!("expected deadlock, got {o:?}"),
        }
        let sched = Scheduler::new();
        sched.handle().spawn_async("idle-pump", idle());
        assert_eq!(sched.run(), RunOutcome::Idle);
    }

    #[test]
    fn a_panic_in_an_inline_step_surfaces_from_run() {
        let sched = Scheduler::new();
        sched
            .handle()
            .spawn_async("boom", async { std::panic::panic_any("stepped on") });
        let p = std::panic::catch_unwind(AssertUnwindSafe(|| sched.run())).unwrap_err();
        assert_eq!(p.downcast_ref::<&str>(), Some(&"stepped on"));
        assert_eq!(sched.run(), RunOutcome::Idle, "the task is over");
    }

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local!(static ALLOCS: Cell<u64> = const { Cell::new(0) });

    /// Counts each thread's allocations in `ALLOCS`.
    struct CountingAlloc;

    // SAFETY: every call goes to `System` with the caller's arguments
    // unchanged; the counter is a statistic and guards nothing.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    #[test]
    fn moving_a_name_already_present_does_not_allocate() {
        let sched = Scheduler::new();
        let h = sched.handle();
        let lone = sched.spawn("lone", move || {
            let m = Metric("node", Some(1), "walks");
            h.metric_add(m, 1);
            ctx::sleep(Duration::from_micros(1));
            let before = ALLOCS.with(Cell::get);
            for _ in 0..100 {
                h.metric_max(m, h.metric_add(m, 1));
                // A park, counted under `task/parks/sleep`.
                ctx::sleep(Duration::from_micros(1));
            }
            ALLOCS.with(Cell::get) - before
        });
        sched.run();
        assert_eq!(lone.result.lock().take(), Some(0));
    }
}
