//! Stacks of their own on one OS thread, and the switch between them.
//!
//! A task that blocks runs on a [`Stack`] mapped here, on the thread that
//! called `run_until` (runtime.rs). Handing the baton from one stack to
//! another is [`Stack::switch_to`]: push the six callee-saved registers,
//! save the stack pointer, load the other stack's, pop, `ret` — a function
//! call's cost, with no syscall. x86_64 Linux (System V) only.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("crates/simnet/src/fiber.rs switches stacks on x86_64 Linux only");

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use crate::sync::thread_token;

/// A mapping: a `PROT_NONE` guard page under 2 MiB, the std thread default.
const LEN: usize = 4096 + (2 << 20);
/// A new stack's first frame, under its top: the six registers the switch
/// pops, then the trampoline it returns to, which calls `entry` 16-aligned.
const FIRST: usize = LEN - 9 * 8;
/// `MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK`.
const MAP: i32 = 0x2 | 0x20 | 0x4000 | 0x2_0000;

// `gridsim_fiber_switch(save, to)` suspends the calling stack, its stack
// pointer stored at `save`, and resumes the one saved as `to`. A new
// stack's first switch returns to `gridsim_fiber_start`, which calls
// `rbx(r12)` as `Stack::new` laid them out and ends the call chain for
// unwinders.
std::arch::global_asm!(
    ".globl gridsim_fiber_switch; .hidden gridsim_fiber_switch; gridsim_fiber_switch:",
    "push rbp; push rbx; push r12; push r13; push r14; push r15",
    "mov [rdi], rsp; mov rsp, rsi",
    "pop r15; pop r14; pop r13; pop r12; pop rbx; pop rbp; ret",
    ".globl gridsim_fiber_start; .hidden gridsim_fiber_start; gridsim_fiber_start:",
    ".cfi_startproc; .cfi_undefined rip; mov rdi, r12; call rbx; ud2; .cfi_endproc",
);

extern "C" {
    fn gridsim_fiber_switch(save: *mut usize, to: usize);
    fn gridsim_fiber_start();
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

/// What a new stack runs; it returns the stack to leave for, for good.
type Body = Box<dyn FnOnce() -> Arc<Stack> + Send>;

/// A place to resume: a stack mapped by [`Stack::new`], or the calling
/// thread's own ([`Stack::default`]).
#[derive(Default)]
pub(crate) struct Stack {
    /// The stack pointer saved when it was suspended; 0 while it runs.
    sp: AtomicUsize,
    /// The [`thread_token`] of the thread it was suspended on; 0 before.
    thread: AtomicUsize,
    /// The mapping's address; 0 for a thread's own stack.
    map: usize,
}

impl Stack {
    /// Map a stack that runs `body` when it is first switched to.
    pub(crate) fn new(body: impl FnOnce() -> Arc<Stack> + Send + 'static) -> Stack {
        let body: Box<Body> = Box::new(Box::new(body));
        // SAFETY: a fresh private mapping aliases nothing; the first frame
        // is written inside it, above the guard page.
        unsafe {
            let map = mmap(std::ptr::null_mut(), LEN, 0x1 | 0x2, MAP, -1, 0) as usize;
            let guarded = map != usize::MAX && mprotect(map as *mut u8, 4096, 0) == 0;
            assert!(guarded, "map a stack: {}", std::io::Error::last_os_error());
            let frame = (map + FIRST) as *mut usize; // r15 r14 r13 r12 rbx rbp ret
            frame.add(3).write(Box::into_raw(body) as usize);
            frame.add(4).write(entry as *const () as usize);
            frame
                .add(6)
                .write(gridsim_fiber_start as *const () as usize);
            let sp = AtomicUsize::new(map + FIRST);
            Stack {
                sp,
                map,
                thread: AtomicUsize::new(0),
            }
        }
    }

    /// Suspend the calling stack, whose `Stack` this is, and resume `to`;
    /// returns when a stack switches back to this one.
    pub(crate) fn switch_to(&self, to: &Stack) {
        debug_assert_eq!(self.sp.load(Relaxed), 0, "a switch from a suspended stack");
        let sp = to.resume_here();
        self.thread.store(thread_token(), Relaxed);
        // SAFETY: `sp` was saved by a switch away from `to` on this thread,
        // and `to` is still mapped as it is borrowed; or `Stack::new` laid
        // it out.
        unsafe { gridsim_fiber_switch(self.sp.as_ptr(), sp) }
    }

    /// Take the stack pointer to resume this stack at, on the calling
    /// thread: a stack suspended on one thread never runs on another.
    fn resume_here(&self) -> usize {
        let on = self.thread.load(Relaxed);
        assert!(
            on == 0 || on == thread_token(),
            "a stack resumed on another thread"
        );
        let sp = self.sp.swap(0, Relaxed);
        assert_ne!(sp, 0, "a switch to a running stack");
        sp
    }
}

impl Drop for Stack {
    /// Unmap it, never from itself. One never switched to drops its body;
    /// one suspended mid-body leaks what its frames own.
    fn drop(&mut self) {
        let here = std::ptr::addr_of!(self) as usize;
        if self.map == 0 {
            return;
        }
        assert!(
            !(self.map..self.map + LEN).contains(&here),
            "a stack unmapped while it runs"
        );
        // SAFETY: not the running stack's mapping; an untouched first frame
        // still holds the body `Stack::new` leaked there.
        unsafe {
            if *self.sp.get_mut() == self.map + FIRST {
                let body = *((self.map + FIRST) as *const usize).add(3);
                drop(Box::from_raw(body as *mut Body));
            }
            munmap(self.map as *mut u8, LEN);
        }
    }
}

/// A new stack's first code: run its body, then leave for the stack the
/// body names, for good. A panic out of the body has no frame to unwind
/// into: it aborts.
extern "C" fn entry(body: *mut Body) -> ! {
    // SAFETY: `Stack::new` leaked this box into the first frame for this call.
    let body = unsafe { Box::from_raw(body) };
    let Ok(to) = catch_unwind(AssertUnwindSafe(move || (*body)())) else {
        std::process::abort()
    };
    let sp = to.resume_here();
    assert!(
        to.map == 0 || Arc::strong_count(&to) > 1,
        "a stack left for one it frees"
    );
    drop(to);
    // SAFETY: as in `switch_to`; this stack is not resumed again.
    unsafe { gridsim_fiber_switch(&mut 0, sp) };
    unreachable!("a stack resumed after its body returned")
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    /// A stack runs its body at its first switch, resumes where it was
    /// suspended, only ever on the thread it was suspended on, and at its
    /// body's end leaves for the stack the body names.
    #[test]
    fn a_stack_resumes_where_it_stopped_and_only_on_its_thread() {
        let root = Arc::new(Stack::default());
        let (log, me) = (Arc::new(Mutex::new(Vec::new())), Arc::new(Mutex::new(None)));
        let (l, m, r) = (Arc::clone(&log), Arc::clone(&me), Arc::clone(&root));
        let stack = Arc::new(Stack::new(move || {
            let me: Arc<Stack> = m.lock().take().expect("the stack itself");
            l.lock().push("first");
            me.switch_to(&r);
            l.lock().push("resumed");
            r
        }));
        *me.lock() = Some(Arc::clone(&stack));
        root.switch_to(&stack);
        assert_eq!(*log.lock(), ["first"]);
        let s = Arc::clone(&stack);
        let foreign = std::thread::spawn(move || Stack::default().switch_to(&s)).join();
        let p = foreign.expect_err("resumed on a foreign thread");
        let msg = p.downcast_ref::<&str>().copied();
        assert_eq!(msg, Some("a stack resumed on another thread"));
        assert_eq!(*log.lock(), ["first"]);
        root.switch_to(&stack);
        assert_eq!(*log.lock(), ["first", "resumed"]);
        assert_eq!(
            Arc::strong_count(&stack),
            1,
            "its body dropped what it held"
        );
    }
}
