//! Deterministic cooperative runtime.
//!
//! Simulated processes are real OS threads, but *exactly one* of them runs at
//! any moment: the scheduler hands a baton to a task, and the task returns it
//! when it blocks (parks), sleeps, or finishes. Combined with a totally
//! ordered event queue (time, then insertion sequence) and seeded RNGs, every
//! run of a simulation is bit-for-bit reproducible.
//!
//! The design mirrors classic conservative process-oriented simulators:
//!
//! * [`Scheduler::spawn`] creates a simulated process from a closure.
//! * Inside a process, [`crate::ctx`] functions (`now`, `sleep`, `park`) block
//!   the process in *simulated* time.
//! * Protocol code (packet delivery, retransmit timers) runs as scheduled
//!   closure events on the scheduler thread, never concurrently with a task.
//! * A [`Waker`] moves a parked task back to the run queue; wakes delivered to
//!   a running task are remembered (`unpark` semantics), so the standard
//!   `while !condition { park() }` loop is race-free.

use parking_lot::Mutex;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::time::SimTime;

/// Host-side work counters, summed across all schedulers in the process.
/// Purely observational (benchmarks, tuning); they never affect simulation.
static HOST_SLICES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static HOST_EVENTS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static HOST_SLICE_NS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static HOST_EVENT_NS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// (task slices granted, events dispatched) since process start — host-side
/// cost counters for benchmarking the scheduler itself.
pub fn host_work_counters() -> (u64, u64) {
    (
        HOST_SLICES.load(Ordering::Relaxed),
        HOST_EVENTS.load(Ordering::Relaxed),
    )
}

/// Host nanoseconds spent (granting task slices — handoff plus the slice
/// body, dispatching events) since process start. Splits the scheduler's
/// wall clock into its two cost centers for the datapath benchmarks.
pub fn host_work_ns() -> (u64, u64) {
    (
        HOST_SLICE_NS.load(Ordering::Relaxed),
        HOST_EVENT_NS.load(Ordering::Relaxed),
    )
}

/// Park-reason histogram: how many times tasks actually parked (wake-token
/// misses only), keyed by the `ctx::park` reason string. Observational —
/// the profiling side of the slice counters: each entry is a task handoff
/// round trip, the dominant host cost of the simulator on small-core
/// machines, attributed to the wait that caused it.
static PARK_STATS: Mutex<Option<HashMap<&'static str, u64>>> = Mutex::new(None);

fn note_park(reason: &'static str) {
    let mut g = PARK_STATS.lock();
    *g.get_or_insert_with(HashMap::new)
        .entry(reason)
        .or_insert(0) += 1;
}

/// Snapshot of the park-reason histogram, sorted by descending count.
pub fn park_stats() -> Vec<(&'static str, u64)> {
    let g = PARK_STATS.lock();
    let mut v: Vec<_> = g
        .as_ref()
        .map(|m| m.iter().map(|(k, c)| (*k, *c)).collect())
        .unwrap_or_default();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    v
}

/// Identifier of a simulated process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TaskId(pub u64);

/// What a scheduled event does when it fires.
enum EventAction {
    /// Wake a parked task (used by `sleep`).
    WakeTask(TaskId),
    /// Run an arbitrary closure on the scheduler thread.
    Call(Box<dyn FnOnce() + Send>),
    /// Invoke a pre-registered recurring callback ([`SchedHandle::
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

/// Per-task baton used to hand execution back and forth between the
/// scheduler thread and the task thread.
///
/// The handoff is the hot path of the whole simulator — every park, wake,
/// yield, and event-driven task slice crosses it twice — so it is built on
/// a single atomic with a spin-then-park wait. In the common ping-pong
/// (task yields, scheduler processes a couple of queue events, grants the
/// same task again) both sides catch the transition inside the spin window
/// and a handoff costs ~100 ns of shared-memory traffic instead of two
/// futex sleep/wake round trips. Exactly one task thread is ever spinning
/// (the one in a handoff), so the spin cannot oversubscribe the host.
struct Baton {
    state: AtomicU32,
    /// The parked side's thread handles, registered before waiting so the
    /// other side can `unpark` it (std's token semantics make a too-early
    /// unpark safe: the next park returns immediately).
    sched_thread: Mutex<Option<std::thread::Thread>>,
    task_thread: Mutex<Option<std::thread::Thread>>,
}

/// Task thread must wait.
const BATON_HELD: u32 = 0;
/// Task thread may run.
const BATON_GO: u32 = 1;
/// Task thread yielded back to the scheduler.
const BATON_YIELDED: u32 = 2;
/// Task thread finished (or panicked).
const BATON_DONE: u32 = 3;

/// Baton spin windows, calibrated once at startup.
///
/// The two sides of a handoff have very different wait profiles, so they
/// get different spin budgets:
///
/// * `sched`: the scheduler in `grant_and_wait`, waiting for the running
///   task to yield back. While it spins, exactly one other thread (the
///   task) is doing real work, so the spin never oversubscribes a ≥2-core
///   host. The window is sized to cover a typical task slice plus the
///   futex wake latency of a task that had gone to sleep (~5–25 µs), so
///   the yield-back lands in the spin phase as a ~100 ns cache-line
///   transfer instead of a sched_yield/futex round trip (~10–25 µs on
///   older or throttled kernels).
/// * `task`: a task in `yield_and_wait`/`wait_first`, waiting for its next
///   grant. That grant may be far away (the task is parked on I/O), and
///   meanwhile another task plus the scheduler may both be active, so a
///   long spin here *steals* a core from the thread doing real work. The
///   short window only covers the common immediate re-grant (scheduler
///   pops a delivery event and grants the same task again within a few
///   µs), then the thread goes straight to the futex.
///
/// `pause` latency spans 2–50 ns across x86/ARM generations, so iteration
/// counts are calibrated from a timed burst rather than hard-coded. On a
/// single-core host both windows are zero (the partner cannot run while we
/// spin) and the yield phase below is the fast path.
struct SpinCfg {
    sched: u32,
    task: u32,
    yields: u32,
}

fn spin_cfg() -> &'static SpinCfg {
    static CFG: std::sync::OnceLock<SpinCfg> = std::sync::OnceLock::new();
    CFG.get_or_init(|| {
        let multi = std::thread::available_parallelism().is_ok_and(|n| n.get() > 1);
        if !multi {
            return SpinCfg {
                sched: 0,
                task: 0,
                yields: 200,
            };
        }
        // Time a burst of pauses to convert "µs of patience" into
        // iterations. Clamp defensively: a preemption mid-burst inflates
        // the measurement, which would only make us spin less, not more.
        const BURST: u32 = 10_000;
        let t0 = std::time::Instant::now();
        for _ in 0..BURST {
            std::hint::spin_loop();
        }
        let per_iter_ns = (t0.elapsed().as_nanos() as f64 / BURST as f64).clamp(0.5, 100.0);
        let iters = |us: f64| ((us * 1000.0 / per_iter_ns) as u32).max(64);
        SpinCfg {
            sched: iters(40.0),
            task: iters(15.0),
            yields: 0,
        }
    })
}

impl Baton {
    fn new() -> Arc<Self> {
        Arc::new(Baton {
            state: AtomicU32::new(BATON_HELD),
            sched_thread: Mutex::new(None),
            task_thread: Mutex::new(None),
        })
    }

    /// Spin briefly, then yield the core, then park, until `state` is
    /// something other than `not`.
    fn await_change(&self, not: u32, spins: u32) -> u32 {
        let yields = spin_cfg().yields;
        let mut tries = 0u32;
        loop {
            let s = self.state.load(Ordering::Acquire);
            if s != not {
                return s;
            }
            if tries < spins {
                std::hint::spin_loop();
            } else if tries < spins + yields {
                std::thread::yield_now();
            } else {
                std::thread::park();
            }
            tries += 1;
        }
    }

    /// Scheduler side: let the task run, then wait until it yields or finishes.
    fn grant_and_wait(&self) -> u32 {
        *self.sched_thread.lock() = Some(std::thread::current());
        self.state.store(BATON_GO, Ordering::Release);
        if let Some(t) = self.task_thread.lock().as_ref() {
            t.unpark();
        }
        self.await_change(BATON_GO, spin_cfg().sched)
    }

    /// Task side: give the baton back and wait for the next grant.
    fn yield_and_wait(&self) {
        self.state.store(BATON_YIELDED, Ordering::Release);
        if let Some(t) = self.sched_thread.lock().as_ref() {
            t.unpark();
        }
        self.await_change(BATON_YIELDED, spin_cfg().task);
    }

    /// Task side: wait for the first grant (start of the task body).
    fn wait_first(&self) {
        *self.task_thread.lock() = Some(std::thread::current());
        self.await_change(BATON_HELD, spin_cfg().task);
    }

    /// Task side: mark the task done and release the scheduler.
    fn finish(&self) {
        self.state.store(BATON_DONE, Ordering::Release);
        if let Some(t) = self.sched_thread.lock().as_ref() {
            t.unpark();
        }
    }
}

struct TaskSlot {
    name: String,
    /// Daemon tasks (servers, pumps) do not keep the simulation alive: the
    /// run loop reports Idle when only daemons remain parked.
    daemon: bool,
    state: TaskState,
    /// Park/unpark token: a wake delivered while the task is not blocked.
    notified: bool,
    baton: Arc<Baton>,
    join_handle: Option<std::thread::JoinHandle<()>>,
    /// Tasks waiting for this one to finish.
    joiners: Vec<TaskId>,
    /// Human-readable reason the task is parked (deadlock diagnostics).
    blocked_on: &'static str,
}

struct SchedState {
    now: SimTime,
    seq: u64,
    next_task: u64,
    events: BinaryHeap<EventEntry>,
    runnable: VecDeque<TaskId>,
    tasks: HashMap<TaskId, TaskSlot>,
    live_tasks: usize,
    /// First panic observed in a task; resumed by the scheduler loop.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// A registered recurring callback; the slot is `None` while it runs.
type HookSlot = Option<Box<dyn FnMut() + Send>>;

/// Shared core of the scheduler; cheap to clone via [`SchedHandle`].
pub struct SchedCore {
    state: Mutex<SchedState>,
    /// Recurring callbacks fired by `EventAction::Hook` events. Kept
    /// outside `state` so a running hook can schedule further events; the
    /// slot is taken for the duration of the call (hooks never re-enter
    /// themselves — events only fire from the scheduler loop).
    hooks: Mutex<Vec<HookSlot>>,
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
    /// Contains `(task name, blocked_on reason)` for each parked task.
    Deadlock(Vec<(String, &'static str)>),
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<(SchedHandle, TaskId)>> =
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
                    next_task: 0,
                    events: BinaryHeap::new(),
                    runnable: VecDeque::new(),
                    tasks: HashMap::new(),
                    live_tasks: 0,
                    panic: None,
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
    pub fn run_until(&self, limit: SimTime) -> RunOutcome {
        loop {
            // Run every runnable task to its next yield point.
            loop {
                let (tid, baton) = {
                    let mut st = self.core.state.lock();
                    if let Some(p) = st.panic.take() {
                        drop(st);
                        std::panic::resume_unwind(p);
                    }
                    match st.runnable.pop_front() {
                        Some(tid) => {
                            let slot = st.tasks.get_mut(&tid).expect("runnable task exists");
                            slot.state = TaskState::Running;
                            (tid, Arc::clone(&slot.baton))
                        }
                        None => break,
                    }
                };
                HOST_SLICES.fetch_add(1, Ordering::Relaxed);
                let t0 = std::time::Instant::now();
                let end = baton.grant_and_wait();
                HOST_SLICE_NS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                if end == BATON_DONE {
                    self.finish_task(tid);
                }
            }
            // Advance to the next event.
            let action = {
                let mut st = self.core.state.lock();
                if let Some(p) = st.panic.take() {
                    drop(st);
                    std::panic::resume_unwind(p);
                }
                match st.events.peek() {
                    None => {
                        let stuck: Vec<(String, &'static str)> = st
                            .tasks
                            .values()
                            .filter(|t| t.state == TaskState::Blocked && !t.daemon)
                            .map(|t| (t.name.clone(), t.blocked_on))
                            .collect();
                        return if stuck.is_empty() {
                            RunOutcome::Idle
                        } else {
                            RunOutcome::Deadlock(stuck)
                        };
                    }
                    Some(ev) if ev.at > limit => return RunOutcome::TimeLimit,
                    Some(_) => {
                        let ev = st.events.pop().unwrap();
                        debug_assert!(ev.at >= st.now, "time went backwards");
                        st.now = ev.at;
                        ev.action
                    }
                }
            };
            HOST_EVENTS.fetch_add(1, Ordering::Relaxed);
            let t0 = std::time::Instant::now();
            match action {
                EventAction::WakeTask(tid) => self.handle().wake_task(tid),
                EventAction::Call(f) => f(),
                EventAction::Hook(i) => {
                    let mut f = self.core.hooks.lock()[i].take().expect("hook in use");
                    f();
                    self.core.hooks.lock()[i] = Some(f);
                }
            }
            HOST_EVENT_NS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
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

    fn finish_task(&self, tid: TaskId) {
        let (joiners, jh) = {
            let mut st = self.core.state.lock();
            let slot = st.tasks.get_mut(&tid).expect("finished task exists");
            slot.state = TaskState::Finished;
            let joiners = std::mem::take(&mut slot.joiners);
            let jh = slot.join_handle.take();
            st.live_tasks -= 1;
            (joiners, jh)
        };
        if let Some(jh) = jh {
            // The thread has signalled Done; joining is immediate.
            let _ = jh.join();
        }
        let h = self.handle();
        for j in joiners {
            h.wake_task(j);
        }
    }
}

impl SchedHandle {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.state.lock().now
    }

    /// Schedule `f` to run on the scheduler thread at absolute time `at`
    /// (clamped to be no earlier than now).
    pub fn call_at(&self, at: SimTime, f: impl FnOnce() + Send + 'static) {
        let mut st = self.core.state.lock();
        let at = at.max(st.now);
        let seq = st.seq;
        st.seq += 1;
        st.events.push(EventEntry {
            at,
            seq,
            action: EventAction::Call(Box::new(f)),
        });
    }

    /// Schedule `f` to run after `d` of simulated time.
    pub fn call_after(&self, d: Duration, f: impl FnOnce() + Send + 'static) {
        let now = self.now();
        self.call_at(now + d, f);
    }

    /// Register a recurring callback and get a handle for scheduling it.
    /// The callback stays registered for the scheduler's lifetime.
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
        let mut st = self.core.state.lock();
        let at = at.max(st.now);
        let seq = st.seq;
        st.seq += 1;
        st.events.push(EventEntry {
            at,
            seq,
            action: EventAction::Hook(hook.0),
        });
    }

    /// Wake `tid` per unpark semantics.
    pub fn wake_task(&self, tid: TaskId) {
        let mut st = self.core.state.lock();
        let Some(slot) = st.tasks.get_mut(&tid) else {
            return;
        };
        match slot.state {
            TaskState::Blocked => {
                slot.state = TaskState::Runnable;
                slot.notified = false;
                st.runnable.push_back(tid);
            }
            TaskState::Runnable | TaskState::Running => slot.notified = true,
            TaskState::Finished => {}
        }
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
        let baton = Baton::new();
        let result: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
        let tid = {
            let mut st = self.core.state.lock();
            let tid = TaskId(st.next_task);
            st.next_task += 1;
            tid
        };
        let thread = {
            let baton = Arc::clone(&baton);
            let result = Arc::clone(&result);
            let handle = self.clone();
            let tname = name.clone();
            std::thread::Builder::new()
                .name(format!("sim:{tname}"))
                .spawn(move || {
                    baton.wait_first();
                    CURRENT.with(|c| *c.borrow_mut() = Some((handle.clone(), tid)));
                    let out = std::panic::catch_unwind(AssertUnwindSafe(f));
                    CURRENT.with(|c| *c.borrow_mut() = None);
                    match out {
                        Ok(v) => *result.lock() = Some(v),
                        Err(p) => {
                            let mut st = handle.core.state.lock();
                            if st.panic.is_none() {
                                st.panic = Some(p);
                            }
                        }
                    };
                    baton.finish();
                })
                .expect("spawn sim task thread")
        };
        {
            let mut st = self.core.state.lock();
            st.tasks.insert(
                tid,
                TaskSlot {
                    name,
                    daemon,
                    state: TaskState::Runnable,
                    notified: false,
                    baton,
                    join_handle: Some(thread),
                    joiners: Vec::new(),
                    blocked_on: "",
                },
            );
            st.live_tasks += 1;
            st.runnable.push_back(tid);
        }
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
        st.tasks
            .get(&self.tid)
            .map(|t| t.state == TaskState::Finished)
            .unwrap_or(true)
    }

    /// Block the calling simulated task until the target finishes, then
    /// return its result. Must be called from within a simulated task.
    pub fn join(self) -> T {
        loop {
            {
                let mut st = self.handle.core.state.lock();
                let done = st
                    .tasks
                    .get(&self.tid)
                    .map(|t| t.state == TaskState::Finished)
                    .unwrap_or(true);
                if done {
                    break;
                }
                let me = ctx::current_task();
                st.tasks.get_mut(&self.tid).unwrap().joiners.push(me);
            }
            ctx::park("join");
        }
        self.result.lock().take().expect("joined task result")
    }
}

/// Task-side context functions. Valid only on threads spawned through the
/// scheduler; calling them elsewhere panics.
pub mod ctx {
    use super::*;

    fn with_current<R>(f: impl FnOnce(&SchedHandle, TaskId) -> R) -> R {
        CURRENT.with(|c| {
            let b = c.borrow();
            let (h, tid) = b.as_ref().expect("not inside a simulated task");
            f(h, *tid)
        })
    }

    /// Is the calling thread a simulated task?
    pub fn in_task() -> bool {
        CURRENT.with(|c| c.borrow().is_some())
    }

    /// The calling task's id.
    pub fn current_task() -> TaskId {
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

    /// Park the calling task until woken. `reason` appears in deadlock
    /// diagnostics. Consumes a pending wake token if present.
    pub fn park(reason: &'static str) {
        let (baton, proceed) = with_current(|h, tid| {
            let mut st = h.core.state.lock();
            let slot = st.tasks.get_mut(&tid).expect("current task slot");
            if slot.notified {
                slot.notified = false;
                (Arc::clone(&slot.baton), true)
            } else {
                slot.state = TaskState::Blocked;
                slot.blocked_on = reason;
                (Arc::clone(&slot.baton), false)
            }
        });
        if proceed {
            return;
        }
        super::note_park(reason);
        baton.yield_and_wait();
        with_current(|h, tid| {
            let mut st = h.core.state.lock();
            let slot = st.tasks.get_mut(&tid).expect("current task slot");
            slot.state = TaskState::Running;
            slot.blocked_on = "";
        });
    }

    /// Yield the baton but stay runnable (cooperative yield at the same
    /// simulated instant).
    pub fn yield_now() {
        with_current(|h, tid| {
            let mut st = h.core.state.lock();
            let slot = st.tasks.get_mut(&tid).expect("current task slot");
            slot.state = TaskState::Runnable;
            st.runnable.push_back(tid);
        });
        let baton = with_current(|h, tid| {
            let st = h.core.state.lock();
            Arc::clone(&st.tasks.get(&tid).unwrap().baton)
        });
        baton.yield_and_wait();
        with_current(|h, tid| {
            let mut st = h.core.state.lock();
            st.tasks.get_mut(&tid).unwrap().state = TaskState::Running;
        });
    }

    /// Sleep for `d` of simulated time.
    pub fn sleep(d: Duration) {
        if d.is_zero() {
            yield_now();
            return;
        }
        let (h, tid) = with_current(|h, tid| (h.clone(), tid));
        let at = h.now() + d;
        {
            let mut st = h.core.state.lock();
            let seq = st.seq;
            st.seq += 1;
            st.events.push(EventEntry {
                at,
                seq,
                action: EventAction::WakeTask(tid),
            });
        }
        // A stray wake token could end the sleep early; loop on the clock.
        loop {
            park("sleep");
            if h.now() >= at {
                break;
            }
        }
        let _ = tid;
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
        match sched.run_until(SimTime::MAX) {
            RunOutcome::Deadlock(v) => {
                assert_eq!(v, vec![("stuck".to_string(), "never-signalled")]);
            }
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
        h.call_after(Duration::from_secs(10), move || {
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
}
