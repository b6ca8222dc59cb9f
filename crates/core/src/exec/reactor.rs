//! Socket-readiness reactor for the pooled executor.
//!
//! A blocked remote-channel operation that holds its OS thread
//! (`blocking_region`) is correct, but 10k blocked remote channels would
//! cost 10k threads while 10k blocked *local* channels cost none. This
//! module removes that asymmetry: an epoll-based readiness queue owned by
//! a [`super::PooledExec`], so a remote wait can park its *fiber* through
//! the ordinary `park_token`/`park` protocol and be woken when the socket
//! becomes readable or writable. Determinacy is untouched — a reactor
//! wakeup is just an `unpark_all` on the waiter's key, indistinguishable
//! from any other wake site (DESIGN.md §5j).
//!
//! The reactor owns no thread. Workers drain it without blocking from the
//! scheduler loop (the pre-sleep path and the fair tick), with the same
//! Dekker rescan discipline that guards the run queues: readiness is
//! drained *before* quiescence is computed, so a ready socket can never
//! fake an idle pool. At most one idle worker sleeps *in* the reactor
//! ([`Reactor::wait`]), woken through an `eventfd` ([`Reactor::wake`]).
//!
//! Events are armed `EPOLLONESHOT` with the waiter's park key in the
//! event's data word. One-shot arming makes the wakeup protocol
//! self-cleaning: each wait re-arms after taking a fresh park token, and a
//! stale event (the waiter already gone) is a harmless spurious
//! `unpark_all` on a dead key. A small timer heap stands in for park
//! timeouts, which the pooled fiber path deliberately ignores
//! (idle-driven deadlock detection): timed waits arm a deadline here and
//! are unparked when it expires.
//!
//! Everything is `#[cfg]`-gated to Linux/x86_64 outside Miri — the same
//! gate as the fiber context switch. Elsewhere [`Reactor::new`] returns
//! `None` and every net-layer wait blocks its thread.

/// Cumulative reactor counters, surfaced through
/// [`super::SchedulerStats::reactor`] and from there through
/// `MonitorStats` (maintained with relaxed atomics; observation only).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// File descriptors attached at snapshot time.
    pub current_registered: usize,
    /// Park keys woken by socket readiness (real progress signals: data,
    /// buffer space, hangup). Frozen across probe polls during a true
    /// deadlock, which is what lets the cluster probe treat it as a
    /// freshness input.
    pub wakeups: u64,
    /// Park keys woken by timer expiry (idle-poll deadlines; *not*
    /// progress — a deadlocked endpoint re-arms these forever).
    pub timer_wakeups: u64,
}

/// Readiness direction for [`Reactor::arm`] / [`poll_fd`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Wake when the source is readable (or hung up).
    Read,
    /// Wake when the sink is writable (or errored).
    Write,
}

#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
mod imp {
    use super::{Interest, ReactorStats};
    use parking_lot::Mutex;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::io;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Raw syscalls: the workspace vendors no libc, and the only kernel
    /// interfaces needed here are stable-ABI x86_64 syscall numbers.
    mod sys {
        use std::arch::asm;

        pub const SYS_READ: usize = 0;
        pub const SYS_WRITE: usize = 1;
        pub const SYS_POLL: usize = 7;
        pub const SYS_CLOSE: usize = 3;
        pub const SYS_EPOLL_WAIT: usize = 232;
        pub const SYS_EPOLL_CTL: usize = 233;
        pub const SYS_EVENTFD2: usize = 290;
        pub const SYS_EPOLL_CREATE1: usize = 291;

        pub const EPOLL_CLOEXEC: usize = 0x80000;
        pub const EFD_CLOEXEC: usize = 0x80000;
        pub const EFD_NONBLOCK: usize = 0x800;
        pub const EPOLL_CTL_ADD: usize = 1;
        pub const EPOLL_CTL_DEL: usize = 2;
        pub const EPOLL_CTL_MOD: usize = 3;

        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLOUT: u32 = 0x004;
        pub const EPOLLRDHUP: u32 = 0x2000;
        pub const EPOLLONESHOT: u32 = 1 << 30;

        pub const POLLIN: i16 = 0x001;
        pub const POLLOUT: i16 = 0x004;

        pub const ENOENT: isize = 2;
        pub const EINTR: isize = 4;

        /// `struct epoll_event`; packed on x86_64 (12 bytes), per the
        /// kernel ABI.
        #[repr(C, packed)]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        /// `struct pollfd` for the foreign-thread fallback path.
        #[repr(C)]
        #[derive(Clone, Copy)]
        pub struct PollFd {
            pub fd: i32,
            pub events: i16,
            pub revents: i16,
        }

        /// Four-argument syscall; returns the raw kernel result
        /// (negative errno on failure).
        pub unsafe fn syscall4(n: usize, a: usize, b: usize, c: usize, d: usize) -> isize {
            let ret: isize;
            asm!(
                "syscall",
                inlateout("rax") n as isize => ret,
                in("rdi") a,
                in("rsi") b,
                in("rdx") c,
                in("r10") d,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
            ret
        }
    }

    /// Epoll data word of the wake eventfd (park keys are addresses).
    const WAKE_KEY: u64 = u64::MAX;

    /// The epoll instance plus a timer heap, owned by one `PooledExec`.
    pub struct Reactor {
        epfd: i32,
        /// Level-triggered eventfd in the epoll set; see [`Reactor::wake`].
        wakefd: i32,
        /// A blocking [`Reactor::wait`] is in progress.
        sleeping: AtomicBool,
        /// Fds currently attached (lets a non-blocking poll skip the
        /// syscall when nothing is registered).
        attached: AtomicUsize,
        /// Pending wake deadlines, min-first. Lazy: entries are never
        /// cancelled; an expired entry for a waiter that already resumed
        /// is a spurious `unpark_all` on a stale generation.
        timers: Mutex<BinaryHeap<Reverse<(Instant, usize)>>>,
        wakeups: AtomicU64,
        timer_wakeups: AtomicU64,
    }

    // The epoll fd is used from any worker; all syscalls on it are
    // thread-safe per the kernel contract.
    unsafe impl Send for Reactor {}
    unsafe impl Sync for Reactor {}

    impl Reactor {
        /// Create a reactor, or `None` if the kernel refuses an epoll
        /// instance or eventfd (net waits then block their threads).
        pub fn new() -> Option<Arc<Reactor>> {
            let ep = unsafe { sys::syscall4(sys::SYS_EPOLL_CREATE1, sys::EPOLL_CLOEXEC, 0, 0, 0) };
            let efd_flags = sys::EFD_CLOEXEC | sys::EFD_NONBLOCK;
            let wakefd = unsafe { sys::syscall4(sys::SYS_EVENTFD2, 0, efd_flags, 0, 0) };
            let reactor = Reactor {
                epfd: ep as i32,
                wakefd: wakefd as i32,
                sleeping: AtomicBool::new(false),
                attached: AtomicUsize::new(0),
                timers: Mutex::new(BinaryHeap::new()),
                wakeups: AtomicU64::new(0),
                timer_wakeups: AtomicU64::new(0),
            };
            // On failure `reactor` drops, closing whatever was opened.
            let ok = ep >= 0
                && wakefd >= 0
                && reactor.ctl(sys::EPOLL_CTL_ADD, reactor.wakefd, sys::EPOLLIN, WAKE_KEY) >= 0;
            ok.then(|| Arc::new(reactor))
        }

        fn ctl(&self, op: usize, fd: i32, events: u32, data: u64) -> isize {
            let mut ev = sys::EpollEvent { events, data };
            unsafe {
                sys::syscall4(
                    sys::SYS_EPOLL_CTL,
                    self.epfd as usize,
                    op,
                    fd as usize,
                    std::ptr::addr_of_mut!(ev) as usize,
                )
            }
        }

        /// Add `fd` to the epoll set, disarmed (no interest yet).
        pub fn attach(&self, fd: i32) -> io::Result<()> {
            let r = self.ctl(sys::EPOLL_CTL_ADD, fd, 0, 0);
            if r < 0 {
                return Err(io::Error::from_raw_os_error(-r as i32));
            }
            self.attached.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }

        /// Remove `fd` from the epoll set. Must run before the fd closes.
        pub fn detach(&self, fd: i32) {
            if self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0) >= 0 {
                self.attached.fetch_sub(1, Ordering::Relaxed);
            }
        }

        /// Arm a one-shot readiness watch on an attached `fd`, delivering
        /// `key` when it fires. Callers MUST take their park token
        /// *before* arming: one-shot delivery consumed before the token
        /// exists would be a lost wakeup, while any delivery after
        /// `park_token` invalidates the token and the park returns
        /// immediately.
        pub fn arm(&self, fd: i32, key: usize, interest: Interest) -> io::Result<()> {
            let events = match interest {
                Interest::Read => sys::EPOLLIN | sys::EPOLLRDHUP,
                Interest::Write => sys::EPOLLOUT,
            } | sys::EPOLLONESHOT;
            let mut r = self.ctl(sys::EPOLL_CTL_MOD, fd, events, key as u64);
            if r == -sys::ENOENT {
                // Not attached (or detached by a racing teardown): attach
                // armed in one step.
                r = self.ctl(sys::EPOLL_CTL_ADD, fd, events, key as u64);
                if r >= 0 {
                    self.attached.fetch_add(1, Ordering::Relaxed);
                }
            }
            if r < 0 {
                return Err(io::Error::from_raw_os_error(-r as i32));
            }
            Ok(())
        }

        /// Arrange for `unpark_all(key)` no earlier than `deadline`. A new
        /// earliest deadline wakes a sleeping [`Reactor::wait`] to re-arm.
        pub fn add_timer(&self, deadline: Instant, key: usize) {
            let mut timers = self.timers.lock();
            timers.push(Reverse((deadline, key)));
            let earliest = timers.peek() == Some(&Reverse((deadline, key)));
            drop(timers);
            if earliest && self.sleeping.load(Ordering::SeqCst) {
                self.wake();
            }
        }

        /// End the [`Reactor::wait`] in progress, or the next one to start.
        pub fn wake(&self) {
            self.wakefd_io(sys::SYS_WRITE);
        }

        /// Add 1 to (`SYS_WRITE`) or reset (`SYS_READ`) the eventfd.
        fn wakefd_io(&self, nr: usize) {
            let mut v: u64 = 1;
            let buf = std::ptr::addr_of_mut!(v) as usize;
            unsafe { sys::syscall4(nr, self.wakefd as usize, buf, 8, 0) };
        }

        /// Wait for socket readiness, the earliest timer, [`Reactor::wake`]
        /// or `timeout` (`None`: unbounded) and return the park keys to
        /// wake. A zero timeout never blocks and may run anywhere; at most
        /// one blocking waiter runs at a time, and only it resets the
        /// eventfd (a poll that swallowed its wake would strand it).
        pub fn wait(&self, timeout: Option<Duration>) -> Vec<usize> {
            let mut keys = Vec::new();
            let blocking = timeout != Some(Duration::ZERO);
            if blocking {
                // Before the heap read, pairing with the load in `add_timer`:
                // either it sees us sleeping or we see its timer.
                self.sleeping.store(true, Ordering::SeqCst);
            }
            if blocking || self.attached.load(Ordering::Relaxed) > 0 {
                let now = Instant::now();
                let next = self.timers.lock().peek().map(|t| t.0 .0.saturating_duration_since(now));
                let ms = match timeout.into_iter().chain(next).min() {
                    None => -1isize as usize, // the kernel reads an int: -1 = no timeout
                    // Round up, so a sub-millisecond deadline cannot spin.
                    Some(d) => d.as_micros().div_ceil(1000).min(i32::MAX as u128) as usize,
                };
                const BATCH: usize = 64;
                let mut events = [sys::EpollEvent { events: 0, data: 0 }; BATCH];
                let ptr = events.as_mut_ptr() as usize;
                let epfd = self.epfd as usize;
                let n = unsafe { sys::syscall4(sys::SYS_EPOLL_WAIT, epfd, ptr, BATCH, ms) };
                for ev in events.iter().take(n.max(0) as usize) {
                    match ev.data {
                        WAKE_KEY if blocking => self.wakefd_io(sys::SYS_READ),
                        WAKE_KEY => {}
                        key => keys.push(key as usize),
                    }
                }
                self.wakeups.fetch_add(keys.len() as u64, Ordering::Relaxed);
            }
            if blocking {
                self.sleeping.store(false, Ordering::Relaxed);
            }
            let fd_ready = keys.len();
            {
                let now = Instant::now();
                let mut timers = self.timers.lock();
                while let Some(Reverse((deadline, key))) = timers.peek().copied() {
                    if deadline > now {
                        break;
                    }
                    timers.pop();
                    keys.push(key);
                }
                self.timer_wakeups
                    .fetch_add((keys.len() - fd_ready) as u64, Ordering::Relaxed);
            }
            keys
        }

        /// Snapshot the counters.
        pub fn stats(&self) -> ReactorStats {
            ReactorStats {
                current_registered: self.attached.load(Ordering::Relaxed),
                wakeups: self.wakeups.load(Ordering::Relaxed),
                timer_wakeups: self.timer_wakeups.load(Ordering::Relaxed),
            }
        }
    }

    impl Drop for Reactor {
        fn drop(&mut self) {
            for fd in [self.wakefd, self.epfd] {
                unsafe { sys::syscall4(sys::SYS_CLOSE, fd as usize, 0, 0, 0) };
            }
        }
    }

    impl std::fmt::Debug for Reactor {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Reactor")
                .field("attached", &self.attached.load(Ordering::Relaxed))
                .finish()
        }
    }

    /// Blocking readiness wait on one fd, for contexts that cannot park a
    /// fiber (foreign threads, the sink linger thread). `poll(2)`, so no
    /// registration state; returns `Ok(true)` when ready, `Ok(false)` on
    /// timeout or `EINTR` (callers loop on a deadline).
    pub fn poll_fd(fd: i32, interest: Interest, timeout: Option<Duration>) -> io::Result<bool> {
        let mut pfd = sys::PollFd {
            fd,
            events: match interest {
                Interest::Read => sys::POLLIN,
                Interest::Write => sys::POLLOUT,
            },
            revents: 0,
        };
        let ms: isize = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(i32::MAX as u128) as isize,
        };
        let r = unsafe {
            sys::syscall4(
                sys::SYS_POLL,
                std::ptr::addr_of_mut!(pfd) as usize,
                1,
                ms as usize,
                0,
            )
        };
        match r {
            n if n > 0 => Ok(true),
            0 => Ok(false),
            e if e == -sys::EINTR => Ok(false),
            e => Err(io::Error::from_raw_os_error(-e as i32)),
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};
        use std::os::fd::AsRawFd;

        fn pair() -> (TcpStream, TcpStream) {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
            let (b, _) = l.accept().unwrap();
            (a, b)
        }

        #[test]
        fn oneshot_arm_delivers_key_once() {
            let r = Reactor::new().expect("epoll available on linux");
            let (mut w, rd) = pair();
            r.attach(rd.as_raw_fd()).unwrap();
            assert!(r.wait(Some(Duration::ZERO)).is_empty(), "disarmed fd must not fire");
            r.arm(rd.as_raw_fd(), 0x1234, Interest::Read).unwrap();
            assert!(r.wait(Some(Duration::ZERO)).is_empty(), "no data yet");
            w.write_all(b"x").unwrap();
            w.flush().unwrap();
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            let mut got = Vec::new();
            while got.is_empty() && std::time::Instant::now() < deadline {
                got = r.wait(Some(Duration::ZERO));
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(got, vec![0x1234]);
            // One-shot: without re-arming the event must not re-fire.
            assert!(r.wait(Some(Duration::ZERO)).is_empty());
            r.detach(rd.as_raw_fd());
            assert_eq!(r.stats().current_registered, 0);
        }

        #[test]
        fn timers_fire_in_deadline_order() {
            let r = Reactor::new().unwrap();
            let now = Instant::now();
            r.add_timer(now + Duration::from_millis(30), 2);
            r.add_timer(now + Duration::from_millis(5), 1);
            std::thread::sleep(Duration::from_millis(10));
            assert_eq!(r.wait(Some(Duration::ZERO)), vec![1]);
            std::thread::sleep(Duration::from_millis(25));
            assert_eq!(r.wait(Some(Duration::ZERO)), vec![2]);
            let s = r.stats();
            assert_eq!(s.timer_wakeups, 2);
        }

        #[test]
        fn blocked_wait_returns_promptly_after_wake_or_earlier_timer() {
            let r = Reactor::new().unwrap();
            let sleeper = || std::thread::spawn({
                let r = r.clone();
                move || (r.wait(None), Instant::now())
            });
            let t = sleeper();
            std::thread::sleep(Duration::from_millis(50));
            let woke_at = Instant::now();
            r.wake();
            let (keys, returned_at) = t.join().unwrap();
            assert!(keys.is_empty() && returned_at - woke_at < Duration::from_millis(500));
            // The sleeper reset the eventfd, so the next blocking wait lasts
            // its full timeout instead of returning at once.
            let t0 = Instant::now();
            assert!(r.wait(Some(Duration::from_millis(30))).is_empty());
            assert!(t0.elapsed() >= Duration::from_millis(25), "eventfd left set");
            // A timer pushed while the next waiter sleeps ends that sleep
            // (directly, or via its wake).
            let t = sleeper();
            std::thread::sleep(Duration::from_millis(20));
            r.add_timer(Instant::now(), 7);
            let keys = Some(t.join().unwrap().0).filter(|k| !k.is_empty());
            assert_eq!(keys.unwrap_or_else(|| r.wait(None)), vec![7]);
        }

        #[test]
        fn poll_fd_sees_readiness_and_timeout() {
            let (mut w, rd) = pair();
            assert!(!poll_fd(
                rd.as_raw_fd(),
                Interest::Read,
                Some(Duration::from_millis(1))
            )
            .unwrap());
            w.write_all(b"y").unwrap();
            assert!(poll_fd(rd.as_raw_fd(), Interest::Read, None).unwrap());
            // A fresh socket's send buffer is writable immediately.
            assert!(poll_fd(w.as_raw_fd(), Interest::Write, Some(Duration::ZERO)).unwrap());
        }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(miri))))]
mod imp {
    use super::{Interest, ReactorStats};
    use std::io;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Stub reactor for platforms without epoll (and Miri):
    /// [`Reactor::new`] yields `None`, so no instance ever exists and every
    /// net-layer wait blocks its thread.
    #[derive(Debug)]
    pub struct Reactor {
        _never: std::convert::Infallible,
    }

    impl Reactor {
        /// Always `None` here; see the Linux implementation.
        pub fn new() -> Option<Arc<Reactor>> {
            None
        }

        /// Unreachable (no instance can exist).
        pub fn attach(&self, _fd: i32) -> io::Result<()> {
            match self._never {}
        }

        /// Unreachable (no instance can exist).
        pub fn detach(&self, _fd: i32) {
            match self._never {}
        }

        /// Unreachable (no instance can exist).
        pub fn arm(&self, _fd: i32, _key: usize, _interest: Interest) -> io::Result<()> {
            match self._never {}
        }

        /// Unreachable (no instance can exist).
        pub fn add_timer(&self, _deadline: Instant, _key: usize) {
            match self._never {}
        }

        /// Unreachable (no instance can exist).
        pub fn wake(&self) {
            match self._never {}
        }

        /// Unreachable (no instance can exist).
        pub fn wait(&self, _timeout: Option<Duration>) -> Vec<usize> {
            match self._never {}
        }

        /// Unreachable (no instance can exist).
        pub fn stats(&self) -> ReactorStats {
            match self._never {}
        }
    }

    /// Readiness waits degrade to "assume ready" off-Linux; the caller's
    /// subsequent blocking I/O provides the actual wait. The net layer
    /// never makes readiness waits off-Linux.
    pub fn poll_fd(_fd: i32, _interest: Interest, _timeout: Option<Duration>) -> io::Result<bool> {
        Ok(true)
    }
}

pub use imp::{poll_fd, Reactor};
