//! Reactor-backed I/O: the net layer's one socket wait path.
//!
//! A blocked remote-channel operation that held its OS thread inside
//! `blocking_region` would make 10k blocked remote channels cost 10k
//! threads. [`ReactorIo`] wraps every socket transport (on Linux x86_64)
//! to remove that cost: it puts the socket in permanent non-blocking mode
//! and emulates blocking semantics *internally* — an operation that would
//! block parks the calling fiber through the ordinary
//! `Exec::park_token`/`park` protocol with interest registered on the
//! pool's [`Reactor`](kpn_core::exec::reactor::Reactor), and retries when
//! the worker sleeping in the reactor (or a worker's poll) unparks it.
//!
//! Because blocking semantics are preserved at the [`Transport`] surface
//! (complete reads/writes or a synthesized `TimedOut`, exactly what a
//! kernel op timeout yields), everything above — `BufReader`/`BufWriter`
//! framing, the ack parser, the reconnection state machines, and
//! [`FaultyTransport`](crate::transport::FaultyTransport) fault schedules
//! wrapped *underneath* this layer — runs unchanged whether a wait parks a
//! fiber or blocks a thread.
//!
//! ## The lost-wakeup ordering
//!
//! The reactor arms fds `EPOLLONESHOT`. The wait sequence is strictly
//! `park_token` → `arm` → `park`: arming first could let a worker consume
//! the one-shot event and `unpark_all` a key nobody holds a token for
//! yet, losing the wakeup. With the token taken first, any delivery after
//! that point bumps the key's generation and the park returns
//! immediately. Timeouts ride on the reactor's timer heap (the pooled
//! fiber path ignores park timeouts by design); timers are never
//! cancelled, so a stale timer is just a spurious unpark on a dead
//! generation.
//!
//! Contexts that cannot park a fiber — foreign threads (the sink linger
//! thread), thread/sim executors, a pool whose reactor failed to
//! initialize — fall back per-wait to `poll(2)` under `blocking_region`,
//! holding their OS thread for the wait.

use crate::transport::Transport;
use kpn_core::exec::reactor::Reactor;
use kpn_core::Exec;
use std::sync::Arc;
use std::time::Duration;

/// The executor and reactor to park through, when the current task runs
/// on an executor that owns a reactor. `None` means "block this thread
/// for the wait".
pub(crate) fn parking_context() -> Option<(Arc<dyn Exec>, Arc<Reactor>)> {
    let exec = kpn_core::exec::current_exec()?;
    let reactor = exec.reactor()?;
    Some((exec, reactor))
}

/// Fiber-aware sleep: parks the calling fiber on a reactor timer when
/// the executor owns a reactor (so 1k concurrently backing-off writers do
/// not spawn 1k compensation threads), else a plain thread sleep.
pub(crate) fn sleep(d: Duration) {
    if d.is_zero() {
        return;
    }
    if let Some((exec, reactor)) = parking_context() {
        let cell: u8 = 0;
        let key = std::ptr::addr_of!(cell) as usize;
        let deadline = std::time::Instant::now() + d;
        loop {
            let now = std::time::Instant::now();
            if now >= deadline {
                return;
            }
            let token = exec.park_token(key);
            reactor.add_timer(deadline, key);
            let _ = exec.park(key, token, Some(deadline - now));
        }
    } else {
        std::thread::sleep(d);
    }
}

/// Wrap `t` in a [`ReactorIo`] when the transport is socket-backed;
/// otherwise (or off Linux x86_64) return it unchanged. The wrapper goes
/// *outside* any [`FaultyTransport`] so seeded chaos schedules step on
/// every attempt whether the wait parks a fiber or blocks a thread.
pub(crate) fn maybe_wrap(t: Box<dyn Transport>) -> Box<dyn Transport> {
    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
    {
        imp::maybe_wrap(t)
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(miri))))]
    {
        t
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
mod imp {
    use super::parking_context;
    use crate::transport::Transport;
    use kpn_core::blocking_region;
    use kpn_core::exec::reactor::{poll_fd, Interest, Reactor};
    use parking_lot::Mutex;
    use std::io::{Read, Write};
    use std::net::{Shutdown, SocketAddr, TcpStream};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    pub(super) fn maybe_wrap(t: Box<dyn Transport>) -> Box<dyn Transport> {
        if t.is_event_driven() {
            return t;
        }
        let Some(fd) = t.raw_fd() else {
            return t;
        };
        if t.set_nonblocking(true).is_err() {
            return t;
        }
        Box::new(ReactorIo {
            inner: t,
            fd,
            key: Box::new(0),
            op_timeout: Mutex::new(None),
            passthrough: AtomicBool::new(false),
            attached: Mutex::new(None),
        })
    }

    /// A transport whose fd lives permanently in non-blocking mode;
    /// would-block operations park the fiber on readiness (see the module
    /// docs). Blocking semantics are emulated at this surface, so callers
    /// above see complete operations or `TimedOut` — never `WouldBlock`,
    /// unless they opted into passthrough via `set_nonblocking(true)`.
    pub(super) struct ReactorIo {
        inner: Box<dyn Transport>,
        fd: i32,
        /// Stable heap address used as this endpoint's park key (the
        /// `ReactorIo` itself moves when the owning endpoint does).
        key: Box<u8>,
        /// Mirror of the endpoint's op timeout: non-blocking fds never
        /// surface kernel timeouts, so this layer synthesizes them.
        op_timeout: Mutex<Option<Duration>>,
        /// `set_nonblocking(true)` from above (ack draining) switches to
        /// passthrough: surface `WouldBlock` instead of waiting.
        passthrough: AtomicBool,
        /// The reactor this fd is attached to, for re-attach after an
        /// executor change and detach-before-close on drop.
        attached: Mutex<Option<Arc<Reactor>>>,
    }

    impl ReactorIo {
        fn key(&self) -> usize {
            std::ptr::addr_of!(*self.key) as usize
        }

        fn deadline(&self) -> Option<Instant> {
            self.op_timeout.lock().map(|d| Instant::now() + d)
        }

        fn ensure_attached(&self, reactor: &Arc<Reactor>) -> std::io::Result<()> {
            let mut att = self.attached.lock();
            match &*att {
                Some(r) if Arc::ptr_eq(r, reactor) => Ok(()),
                _ => {
                    if let Some(old) = att.take() {
                        old.detach(self.fd);
                    }
                    reactor.attach(self.fd)?;
                    *att = Some(reactor.clone());
                    Ok(())
                }
            }
        }

        /// Wait until `fd` reports readiness for `interest` (or a timer /
        /// spurious wakeup; the caller's retry loop re-checks). Parks the
        /// fiber when possible, else blocks this thread compensated.
        fn wait_ready(&self, interest: Interest, deadline: Option<Instant>) -> std::io::Result<()> {
            if let Some((exec, reactor)) = parking_context() {
                if self.ensure_attached(&reactor).is_ok() {
                    let key = self.key();
                    // Token BEFORE arm: see the module docs on one-shot
                    // delivery ordering.
                    let token = exec.park_token(key);
                    if reactor.arm(self.fd, key, interest).is_ok() {
                        let timeout = deadline.map(|dl| {
                            reactor.add_timer(dl, key);
                            dl.saturating_duration_since(Instant::now())
                        });
                        let _ = exec.park(key, token, timeout);
                        return Ok(());
                    }
                }
            }
            // No parkable context (foreign thread, thread/sim executor,
            // reactor unavailable): block this OS thread, compensated.
            blocking_region(|| {
                let timeout = deadline.map(|dl| dl.saturating_duration_since(Instant::now()));
                poll_fd(self.fd, interest, timeout).map(|_| ())
            })
        }

        /// Drives one *logical* operation to completion. `op` is invoked
        /// with `retry = false` exactly once (the attempt that charges a
        /// fault-injecting transport's schedule) and with `retry = true`
        /// after each readiness wakeup — see [`Transport::retry_read`] for
        /// why the distinction keeps chaos schedules identical whether a
        /// wait parks or blocks.
        fn run<T>(
            &mut self,
            interest: Interest,
            mut op: impl FnMut(&mut Box<dyn Transport>, bool) -> std::io::Result<T>,
        ) -> std::io::Result<T> {
            let deadline = self.deadline();
            let mut retry = false;
            loop {
                match op(&mut self.inner, std::mem::replace(&mut retry, true)) {
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if self.passthrough.load(Ordering::Relaxed) {
                            return Err(e);
                        }
                        // Readiness always outranks the deadline (retry
                        // the op after every wake); only a wake that
                        // still would-block past the deadline times out —
                        // the same precedence a kernel op timeout has.
                        if deadline.is_some_and(|dl| Instant::now() >= dl) {
                            return Err(std::io::Error::from(std::io::ErrorKind::TimedOut));
                        }
                        self.wait_ready(interest, deadline)?;
                    }
                    r => return r,
                }
            }
        }
    }

    impl Read for ReactorIo {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.run(Interest::Read, |t, retry| {
                if retry {
                    t.retry_read(buf)
                } else {
                    t.read(buf)
                }
            })
        }
    }

    impl Write for ReactorIo {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.run(Interest::Write, |t, retry| {
                if retry {
                    t.retry_write(buf)
                } else {
                    t.write(buf)
                }
            })
        }
        fn flush(&mut self) -> std::io::Result<()> {
            // `flush` never advances fault schedules, so retries need no
            // special path.
            self.run(Interest::Write, |t, _| t.flush())
        }
    }

    impl Transport for ReactorIo {
        fn shutdown(&self, how: Shutdown) -> std::io::Result<()> {
            self.inner.shutdown(how)
        }
        fn peer_addr(&self) -> std::io::Result<SocketAddr> {
            self.inner.peer_addr()
        }
        fn shutdown_handle(&self) -> Option<TcpStream> {
            self.inner.shutdown_handle()
        }
        fn set_op_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
            *self.op_timeout.lock() = timeout;
            // Push it down too: FaultyTransport mirrors the timeout for
            // its stall emulation (kernel timeouts on a non-blocking fd
            // are inert, so this costs nothing on a raw TcpTransport).
            self.inner.set_op_timeout(timeout)
        }
        fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
            // The fd never leaves non-blocking mode; this only toggles
            // whether WouldBlock surfaces to the caller.
            self.passthrough.store(nonblocking, Ordering::Relaxed);
            Ok(())
        }
        fn raw_fd(&self) -> Option<i32> {
            Some(self.fd)
        }
        fn try_read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.inner.read(buf)
        }
        fn try_write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.inner.write(buf)
        }
        fn is_event_driven(&self) -> bool {
            true
        }
    }

    impl Drop for ReactorIo {
        fn drop(&mut self) {
            // Detach before `inner` drops and closes the fd: a closed fd
            // number can be reused by an unrelated socket immediately.
            if let Some(r) = self.attached.lock().take() {
                r.detach(self.fd);
            }
        }
    }
}
