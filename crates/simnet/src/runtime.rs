//! Deterministic cooperative runtime.
//!
//! Simulated processes are real OS threads, but *exactly one* of them runs at
//! any moment: the one holding the baton. There is no scheduler thread. A
//! task that blocks (parks), sleeps, yields or finishes runs the scheduler
//! loop itself ([`SchedCore::drive`]) — pop the run queue, else fire the next
//! event — until the loop names the next task. If that is the caller, it
//! simply returns: no syscall, no thread switch (a reader parked on a socket
//! whose next event wakes it; a `sleep`). Otherwise the caller grants that
//! task's baton and waits on its own: one switch. When nothing is left to do
//! before the `run_until` limit the baton goes back to the thread that
//! called `run_until` (the root), which alone computes the [`RunOutcome`].
//! Combined with a totally ordered event queue (time, then insertion
//! sequence) and seeded RNGs, every run of a simulation is bit-for-bit
//! reproducible — the run-queue and event order do not depend on which thread
//! happens to drive.
//!
//! The design mirrors classic conservative process-oriented simulators:
//!
//! * [`Scheduler::spawn`] creates a simulated process from a closure.
//! * Inside a process, [`crate::ctx`] functions (`now`, `sleep`, `park`) block
//!   the process in *simulated* time.
//! * Protocol code (packet delivery, retransmit timers) runs as scheduled
//!   closure events on the thread holding the baton, never concurrently with
//!   a task, and with task context masked: inside an event `ctx::in_task()`
//!   is false and `ctx::park`/`ctx::now` panic, whichever thread fires it.
//! * A [`Waker`] moves a parked task back to the run queue; wakes delivered to
//!   a running task are remembered (`unpark` semantics), so the standard
//!   `while !condition { park() }` loop is race-free.

use parking_lot::Mutex;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

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
    /// Run protocol code on the thread holding the baton.
    Run(Callback),
}

enum Callback {
    /// An arbitrary one-shot closure.
    Call(Box<dyn FnOnce() + Send>),
    /// A pre-registered recurring callback ([`SchedHandle::
    /// register_hook`]). Unlike `Call`, the event itself carries no
    /// allocation — the hot packet-delivery path schedules one of these
    /// per hop instead of boxing a closure.
    Hook(usize),
}

/// Handle to a recurring callback registered with
/// [`SchedHandle::register_hook`]; pass it to
/// [`SchedHandle::call_hook_at`] to fire it without a per-event
/// allocation.
#[derive(Clone, Copy, Debug)]
pub struct HookId(usize);

struct EventEntry {
    at: SimTime,
    seq: u64,
    action: EventAction,
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

/// The right to run, one per thread that takes part in a simulation (each
/// task thread, and the caller of `run_until` for the length of that call).
///
/// Exactly one baton is ever in the `go` state or held by a running thread.
/// The holder decides who is next ([`SchedCore::drive`]), calls
/// [`Baton::grant`] on that thread's baton and [`Baton::wait`] on its own.
struct Baton {
    /// Set by the granter (`Release`), read and cleared by the owner
    /// (`Acquire`): everything the granter did happens-before the owner's
    /// next step.
    go: AtomicBool,
    /// The one thread that waits on this baton. For a task it is filled in
    /// by the spawner before the task first becomes runnable, so no granter
    /// can find it empty.
    owner: OnceLock<std::thread::Thread>,
}

impl Baton {
    fn new(owner: Option<std::thread::Thread>) -> Arc<Self> {
        Arc::new(Baton {
            go: AtomicBool::new(false),
            owner: owner.map_or_else(OnceLock::new, OnceLock::from),
        })
    }

    /// Let the owner run. The caller must stop touching simulation state
    /// and wait on its own baton (or exit).
    fn grant(&self) {
        self.go.store(true, Ordering::Release);
        // std's park token makes a too-early unpark safe: the owner's next
        // `park` returns immediately and it re-checks `go`.
        self.owner
            .get()
            .expect("a baton's owner is registered before its first grant")
            .unpark();
    }

    /// Owner side: sleep until granted, then take the baton.
    ///
    /// No spin phase, on any host. With one CPU in the affinity mask the
    /// granter cannot run while the owner spins; with more, measurements
    /// (EXPERIMENTS.md, "Baton holder drives") have a spin window lose on
    /// every datapath row: each thread that handed the baton on within the
    /// window is spinning too, and a sleeping owner is woken next to its
    /// granter, cache-warm, instead of across cores.
    fn wait(&self) {
        // Only the owner clears `go`, and `park` may return spuriously.
        while !self.go.swap(false, Ordering::Acquire) {
            std::thread::park();
        }
    }
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
    /// `None` once the task has finished.
    baton: Option<Arc<Baton>>,
    join_handle: Option<std::thread::JoinHandle<()>>,
    /// Tasks waiting for this one to finish.
    joiners: Vec<TaskId>,
    /// Human-readable reason the task is parked (deadlock diagnostics);
    /// meaningful only while `state` is `Blocked`.
    blocked_on: &'static str,
}

struct SchedState {
    now: SimTime,
    seq: u64,
    events: BinaryHeap<EventEntry>,
    runnable: VecDeque<TaskId>,
    /// Indexed by `TaskId`: slots are pushed in spawn order and never
    /// removed (a finished slot drops its baton and name).
    tasks: Vec<TaskSlot>,
    /// First panic observed in a task or an event; stops the loop and is
    /// resumed on `run_until`'s caller.
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// The `run_until` call in progress: events later than `limit` stay in
    /// the heap, and `root` is its caller's baton.
    limit: SimTime,
    root: Option<Arc<Baton>>,
    /// Thread of the most recently finished task. Each finishing task
    /// joins its predecessor and `run_until`'s caller joins the last, so
    /// no finished thread outlives the run.
    last_finished: Option<std::thread::JoinHandle<()>>,
    /// Cross-thread baton grants so far: one thread handing the baton to
    /// another. A task that parks, sleeps or yields and is itself the next
    /// to run costs none (the in-file tests pin exactly that).
    grants: u64,
    /// How many times tasks actually parked (wake-token misses only), by
    /// `ctx::park` reason: each is a trip through the scheduler loop,
    /// attributed to the wait that caused it.
    parks: HashMap<&'static str, u64>,
}

impl SchedState {
    /// Queue an event at `at`, clamped to be no earlier than now; ties
    /// fire in scheduling order.
    fn schedule(&mut self, at: SimTime, action: EventAction) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.events.push(EventEntry { at, seq, action });
    }

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
}

/// A registered recurring callback; the slot is `None` while it runs.
type HookSlot = Option<Box<dyn FnMut() + Send>>;

/// Shared core of the scheduler; cheap to clone via [`SchedHandle`].
pub struct SchedCore {
    state: Mutex<SchedState>,
    /// Recurring callbacks fired by `Callback::Hook` events. Kept
    /// outside `state` so a running hook can schedule further events; the
    /// slot is taken for the duration of the call (hooks never re-enter
    /// themselves — events only fire from the scheduler loop).
    hooks: Mutex<Vec<HookSlot>>,
}

/// Who is running the scheduler loop.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Driver {
    /// The thread inside `run_until`.
    Root,
    /// A task thread that has just parked, yielded or finished.
    Task(TaskId),
}

impl SchedCore {
    /// Run the scheduler loop on the calling thread, which holds the baton:
    /// run-queue head first, else the next event, until someone is to run.
    ///
    /// Returns `None` when that someone is the caller — its own task came
    /// off the run queue, or it is the root and the run is over — and
    /// otherwise the baton the caller must grant: the next task's, or the
    /// root's when the run is over (a panic is pending, the event heap is
    /// empty, or the next event lies past the `run_until` limit).
    fn drive(&self, me: Driver) -> Option<Arc<Baton>> {
        loop {
            let callback = {
                let mut st = self.state.lock();
                let st = &mut *st;
                loop {
                    if st.panic.is_none() {
                        if let Some(tid) = st.runnable.pop_front() {
                            let slot = &mut st.tasks[tid.index()];
                            slot.state = TaskState::Running;
                            if me == Driver::Task(tid) {
                                return None;
                            }
                            st.grants += 1;
                            return Some(Arc::clone(
                                slot.baton.as_ref().expect("a runnable task has a baton"),
                            ));
                        }
                        if st.events.peek().is_some_and(|ev| ev.at <= st.limit) {
                            let ev = st.events.pop().expect("peeked");
                            debug_assert!(ev.at >= st.now, "time went backwards");
                            st.now = ev.at;
                            match ev.action {
                                EventAction::WakeTask(tid) => {
                                    st.wake(tid);
                                    continue;
                                }
                                EventAction::Run(callback) => break callback,
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
            self.fire(callback);
        }
    }

    /// Run one closure or hook event. The thread may be a task's, so a
    /// panic must not unwind into it: it is caught and kept (first one
    /// wins, as for task panics) for `run_until`'s caller.
    fn fire(&self, callback: Callback) {
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| match callback {
            Callback::Call(f) => f(),
            Callback::Hook(i) => {
                let mut f = self.hooks.lock()[i].take().expect("hook in use");
                f();
                self.hooks.lock()[i] = Some(f);
            }
        }));
        if let Err(p) = outcome {
            self.state.lock().panic.get_or_insert(p);
        }
    }

    /// End of a task's thread: record the outcome, wake the joiners, hand
    /// the baton on and join the previously finished thread.
    fn finish(&self, tid: TaskId, panic: Option<Box<dyn std::any::Any + Send>>) {
        let predecessor = {
            let mut st = self.state.lock();
            if let Some(p) = panic {
                st.panic.get_or_insert(p);
            }
            let slot = &mut st.tasks[tid.index()];
            slot.state = TaskState::Finished;
            slot.name = String::new();
            slot.baton = None;
            let me = slot.join_handle.take();
            for j in std::mem::take(&mut slot.joiners) {
                st.wake(j);
            }
            std::mem::replace(&mut st.last_finished, me)
        };
        self.drive(Driver::Task(tid))
            .expect("a finished task is never runnable, so someone else is next")
            .grant();
        if let Some(jh) = predecessor {
            // It has handed the baton on, so it is exiting or gone.
            let _ = jh.join();
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

/// What a task thread knows about itself. Taken out of `CURRENT` while the
/// thread drives the scheduler loop, so events it fires see no task context.
struct Current {
    handle: SchedHandle,
    tid: TaskId,
    baton: Arc<Baton>,
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
                state: Mutex::new(SchedState {
                    now: SimTime::ZERO,
                    seq: 0,
                    events: BinaryHeap::new(),
                    runnable: VecDeque::new(),
                    tasks: Vec::new(),
                    panic: None,
                    limit: SimTime::ZERO,
                    root: None,
                    last_finished: None,
                    grants: 0,
                    parks: HashMap::new(),
                }),
                hooks: Mutex::new(Vec::new()),
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
    /// current simulated time) and runs when the scheduler reaches it.
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
    /// whichever task holds the baton continues it, and the caller sleeps
    /// until the loop has nothing left to do within `limit`.
    pub fn run_until(&self, limit: SimTime) -> RunOutcome {
        let root = Baton::new(Some(std::thread::current()));
        {
            let mut st = self.core.state.lock();
            st.limit = limit;
            st.root = Some(Arc::clone(&root));
        }
        if let Some(first) = self.core.drive(Driver::Root) {
            first.grant();
            root.wait();
        }
        let (last_finished, panic, outcome) = {
            let mut st = self.core.state.lock();
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
            (st.last_finished.take(), st.panic.take(), outcome)
        };
        if let Some(jh) = last_finished {
            let _ = jh.join();
        }
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
        self.core.state.lock().now
    }
}

impl SchedHandle {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.state.lock().now
    }

    /// This scheduler's park-reason histogram, sorted by descending count.
    pub fn park_stats(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<_> = self
            .core
            .state
            .lock()
            .parks
            .iter()
            .map(|(reason, n)| (*reason, *n))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }

    /// Schedule `f` to run at absolute time `at` (clamped to be no earlier
    /// than now). It runs on the thread holding the baton — `run_until`'s
    /// caller or whichever task thread is driving the scheduler loop — never
    /// concurrently with a task, with task context masked
    /// (`ctx::in_task()` is false). A panic in `f` surfaces from
    /// `run_until`.
    pub fn call_at(&self, at: SimTime, f: impl FnOnce() + Send + 'static) {
        let action = EventAction::Run(Callback::Call(Box::new(f)));
        self.core.state.lock().schedule(at, action);
    }

    /// Register a recurring callback and get a handle for scheduling it.
    /// The callback stays registered for the scheduler's lifetime. Like a
    /// `call_at` closure it runs on the thread holding the baton, never
    /// concurrently with a task, with task context masked.
    pub fn register_hook(&self, f: impl FnMut() + Send + 'static) -> HookId {
        let mut hooks = self.core.hooks.lock();
        hooks.push(Some(Box::new(f)));
        HookId(hooks.len() - 1)
    }

    /// Schedule a registered hook to fire at absolute time `at` (clamped
    /// to be no earlier than now). Allocation-free apart from amortized
    /// event-heap growth; ties with other events break in schedule order,
    /// exactly like `call_at`.
    pub fn call_hook_at(&self, at: SimTime, hook: HookId) {
        let action = EventAction::Run(Callback::Hook(hook.0));
        self.core.state.lock().schedule(at, action);
    }

    /// Wake `tid` per unpark semantics.
    fn wake_task(&self, tid: TaskId) {
        self.core.state.lock().wake(tid);
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
        self.spawn_inner(name.into(), false, f)
    }

    /// Spawn a daemon process: a server or pump loop that may stay parked
    /// forever without counting as a deadlock or keeping the run alive.
    pub fn spawn_daemon<F, T>(&self, name: impl Into<String>, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        self.spawn_inner(name.into(), true, f)
    }

    fn spawn_inner<F, T>(&self, name: String, daemon: bool, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let baton = Baton::new(None);
        let result: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
        // One critical section from id to run queue keeps the table dense.
        // The new thread does not touch the state before its first grant.
        let mut st = self.core.state.lock();
        let tid = TaskId(st.tasks.len() as u64);
        let thread = {
            let baton = Arc::clone(&baton);
            let result = Arc::clone(&result);
            let handle = self.clone();
            std::thread::Builder::new()
                .name(format!("sim:{name}"))
                .spawn(move || {
                    baton.wait();
                    CURRENT.set(Some(Current {
                        handle: handle.clone(),
                        tid,
                        baton,
                    }));
                    let out = std::panic::catch_unwind(AssertUnwindSafe(f));
                    CURRENT.set(None);
                    let panic = match out {
                        Ok(v) => {
                            *result.lock() = Some(v);
                            None
                        }
                        Err(p) => Some(p),
                    };
                    handle.core.finish(tid, panic);
                })
                .expect("spawn sim task thread")
        };
        baton
            .owner
            .set(thread.thread().clone())
            .expect("a fresh baton has no owner");
        st.tasks.push(TaskSlot {
            name,
            daemon,
            state: TaskState::Runnable,
            notified: false,
            baton: Some(baton),
            join_handle: Some(thread),
            joiners: Vec::new(),
            blocked_on: "",
        });
        st.runnable.push_back(tid);
        drop(st);
        JoinHandle {
            handle: self.clone(),
            tid,
            result,
        }
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
        let st = self.handle.core.state.lock();
        st.tasks[self.tid.index()].state == TaskState::Finished
    }

    /// Block the calling simulated task until the target finishes, then
    /// return its result. Must be called from within a simulated task.
    pub fn join(self) -> T {
        let me = ctx::current_task();
        let mut registered = false;
        loop {
            {
                let mut st = self.handle.core.state.lock();
                let target = &mut st.tasks[self.tid.index()];
                if target.state == TaskState::Finished {
                    break;
                }
                // Once: a stray wake token must not queue a second wake.
                if !registered {
                    target.joiners.push(me);
                    registered = true;
                }
            }
            ctx::park("join");
        }
        self.result.lock().take().expect("joined task result")
    }
}

/// Task-side context functions. Valid only on threads spawned through the
/// scheduler, and not inside events those threads fire while they drive the
/// scheduler loop; calling them elsewhere panics.
pub mod ctx {
    use super::*;

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
        let left = leave(&mut cur.handle.core.state.lock(), cur.tid);
        if left {
            if let Some(next) = cur.handle.core.drive(Driver::Task(cur.tid)) {
                next.grant();
                cur.baton.wait();
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
            *st.parks.entry(reason).or_insert(0) += 1;
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

    /// Sleep for `d` of simulated time.
    pub fn sleep(d: Duration) {
        if d.is_zero() {
            yield_now();
            return;
        }
        let at = with_current(|h, tid| {
            let mut st = h.core.state.lock();
            let at = st.now + d;
            st.schedule(at, EventAction::WakeTask(tid));
            at
        });
        // A stray wake token could end the sleep early; loop on the clock.
        loop {
            park("sleep");
            if now() >= at {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        h.core.state.lock().grants
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
    fn finished_threads_are_joined_before_run_returns() {
        struct CountOnExit(Arc<AtomicUsize>);
        impl Drop for CountOnExit {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static ON_EXIT: std::cell::RefCell<Option<CountOnExit>> =
                const { std::cell::RefCell::new(None) };
        }
        const TASKS: usize = 40;
        let exited = Arc::new(AtomicUsize::new(0));
        let sched = Scheduler::new();
        for i in 0..TASKS {
            let exited = Arc::clone(&exited);
            sched.spawn(format!("t{i}"), move || {
                // Dropped by the thread-local destructor, i.e. when the OS
                // thread is really going away.
                ON_EXIT.set(Some(CountOnExit(exited)));
                ctx::sleep(Duration::from_millis(i as u64 % 7));
            });
        }
        assert_eq!(sched.run(), RunOutcome::Idle);
        assert_eq!(exited.load(Ordering::SeqCst), TASKS);
        let st = sched.core.state.lock();
        assert!(st.last_finished.is_none());
        assert!(st.tasks.iter().all(|t| t.join_handle.is_none()));
    }
}
