//! The execution layer: one scheduling seam beneath every channel.
//!
//! The paper's runtime is one Java thread per KPN process (§3). PR 3 added a
//! deterministic simulation scheduler, which left the blocking paths in
//! `channel.rs` hand-interleaved between two worlds (`Option<SimScheduler>`
//! branches at every park site). This module extracts the blocking
//! discipline — the thing Kahn semantics actually live in — into a single
//! [`Exec`] trait with three implementations:
//!
//! * [`ThreadExec`] — the paper's shape: one OS thread per process, keyed
//!   condvar parking;
//! * `SimExec` (internal, built from a [`crate::sim::SimScheduler`]) — the
//!   PR-3 deterministic scheduler, now just another executor;
//! * [`PooledExec`] — M:N execution: many processes multiplexed onto a
//!   fixed worker pool with per-worker work-stealing run queues, blocked
//!   channel operations converted into parked stackful continuations, so a
//!   10 000-process graph runs on `available_parallelism()` workers.
//!
//! The module splits by executor: [`mod@self`] holds the trait, task
//! identity, and [`ExecMode`]; `thread.rs`, `sim.rs`, and `pooled.rs` hold
//! the three implementations; `deque.rs` is the Chase–Lev deque under the
//! pooled scheduler and `fiber.rs` its stackful continuations.
//!
//! ## The park/unpark protocol
//!
//! Channels never touch condvars or schedulers directly. A blocking site
//! does, conceptually:
//!
//! ```text
//! lock state;
//! loop {
//!     if !must_wait { break }
//!     let token = exec.park_token(key);   // still under the state lock
//!     unlock state;
//!     exec.park(key, token, timeout)?;    // may return spuriously
//!     lock state;
//! }
//! ```
//!
//! and every wake site calls `exec.unpark_all(key)` *after* publishing the
//! state change. Lost wakeups are impossible because of a generation
//! protocol ("absent is stale"): `park_token` reads the key's current
//! generation while the caller still holds the lock that guards the wait
//! predicate; any `unpark_all` that runs after that point bumps the
//! generation, and `park` with a stale token returns immediately. A parked
//! task can therefore only sleep through a wakeup it had already observed
//! the effects of. Spurious returns are always allowed — callers re-check
//! their predicate in a loop.
//!
//! ## Task identity
//!
//! Monitors and the flush registry used to key their bookkeeping by OS
//! thread. Under a pooled executor one worker thread runs many tasks (and
//! one task may migrate between workers), so identity moves to a
//! `TaskLocals` record carried by the task itself and installed into a
//! thread-local by whichever worker is currently running it.

mod deque;
pub(crate) mod fiber;
mod pooled;
pub mod reactor;
mod sim;
mod thread;

pub use pooled::PooledExec;
pub(crate) use sim::SimExec;
pub(crate) use thread::default_exec;
pub use thread::ThreadExec;

use crate::error::Result;
use crate::flush::Flushable;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Monotonic source of task tokens and park generations. Starting at 1
/// keeps 0 free as an always-stale sentinel.
static GLOBAL_COUNTER: AtomicU64 = AtomicU64::new(1);

pub(crate) fn next_id() -> u64 {
    GLOBAL_COUNTER.fetch_add(1, Ordering::Relaxed)
}

/// Downgrade to an unsized `Weak<dyn Exec>` (coercion happens at the
/// return position).
pub(crate) fn weak_dyn<T: Exec>(arc: &Arc<T>) -> Weak<dyn Exec> {
    let w: Weak<T> = Arc::downgrade(arc);
    w
}

/// Buckets for the keyed wait tables (thread and pooled executors).
pub(crate) const BUCKETS: usize = 16;

pub(crate) fn bucket_of(key: usize) -> usize {
    // Keys are addresses; the low bits below 16 are alignment noise.
    (key >> 4) & (BUCKETS - 1)
}

/// The scheduling seam every channel blocks through.
///
/// Implementations decide what a "task" is (OS thread, sim task, pooled
/// fiber) and how a blocked task sleeps; channels only ever express *what*
/// they are waiting for (a `key`) and *when* the wait became unnecessary
/// (`unpark_all`).
pub trait Exec: Send + Sync + 'static {
    /// Start a new task running `body`. The task inherits nothing from the
    /// spawning thread; its identity is fresh.
    fn spawn(&self, name: &str, body: Box<dyn FnOnce() + Send>);

    /// Read the current generation for `key`, creating the key's wait entry
    /// if needed. Must be called while holding the lock that guards the
    /// caller's wait predicate; the returned token is what makes the
    /// subsequent [`Exec::park`] immune to lost wakeups.
    fn park_token(&self, key: usize) -> u64;

    /// Block the current task until `unpark_all(key)` is called with a
    /// generation newer than `token`, the timeout elapses, or spuriously.
    ///
    /// Returns `Ok(true)` if the wait timed out, `Ok(false)` otherwise.
    /// Executors that serialize or pool tasks may ignore `timeout` (they
    /// drive periodic work through [`Exec::add_idle_hook`] instead).
    /// Returns an error if this executor cannot block the calling context
    /// (e.g. a foreign OS thread blocking on a simulation's channel).
    fn park(&self, key: usize, token: u64, timeout: Option<Duration>) -> Result<bool>;

    /// Wake every task parked on `key` and invalidate outstanding tokens
    /// for it. Callable from any thread.
    fn unpark_all(&self, key: usize);

    /// A voluntary scheduling point. No-op for preemptive executors; the
    /// simulation uses it to interleave at every channel operation.
    fn yield_point(&self);

    /// Register a hook run when the executor quiesces (every task parked).
    /// The monitor's deadlock tick rides on this for executors that do not
    /// honor park timeouts.
    fn add_idle_hook(&self, hook: Box<dyn Fn() + Send + Sync>);

    /// Release tasks held at a start barrier, if the executor has one.
    fn release(&self) {}

    /// Note that the current task is entering a region that blocks the
    /// underlying OS thread outside the park protocol (socket I/O). Pooled
    /// executors use this to keep the worker pool from starving.
    fn enter_blocking(&self) {}

    /// Exit a region entered with [`Exec::enter_blocking`].
    fn exit_blocking(&self) {}

    /// Ask the executor to wind down once all tasks finish. Idempotent;
    /// no-op for executors without retained resources.
    fn shutdown(&self) {}

    /// Point-in-time scheduler counters, for executors that keep them
    /// (currently only [`PooledExec`]). `None` elsewhere.
    fn scheduler_stats(&self) -> Option<SchedulerStats> {
        None
    }

    /// The readiness reactor owned by this executor, if it can park tasks
    /// on socket readiness (currently only [`PooledExec`] on
    /// Linux/x86_64). Callers that get `None` fall back to blocking the
    /// OS thread under [`blocking_region`].
    fn reactor(&self) -> Option<Arc<reactor::Reactor>> {
        None
    }
}

// ---------------------------------------------------------------------------
// Scheduler observability
// ---------------------------------------------------------------------------

/// Per-worker scheduling counters of a [`PooledExec`], snapshotted by
/// [`Exec::scheduler_stats`]. All counters are cumulative since pool
/// creation and are maintained with relaxed atomics — they never
/// synchronize the scheduler, only observe it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Fibers this worker switched into (dispatches).
    pub fiber_switches: u64,
    /// Dispatches served by the worker's own deque (LIFO pop).
    pub local_pops: u64,
    /// Dispatches served by the worker's LIFO hot slot.
    pub hot_hits: u64,
    /// Steal sweeps attempted (one per victim probed).
    pub steal_attempts: u64,
    /// Steal sweeps that yielded at least one fiber.
    pub steal_successes: u64,
    /// Total fibers obtained by stealing (steal-half takes several).
    pub stolen_fibers: u64,
    /// Fibers taken from the global injector.
    pub injector_pops: u64,
    /// Times this worker went to sleep on the pool's condvar.
    pub parks: u64,
    /// Times this worker was woken from that sleep.
    pub unparks: u64,
    /// Run-queue depth (deque + hot slot) at snapshot time.
    pub queue_depth: u64,
    /// Highest run-queue depth observed after a local push.
    pub max_queue_depth: u64,
}

impl WorkerStats {
    fn add(&mut self, o: &WorkerStats) {
        self.fiber_switches += o.fiber_switches;
        self.local_pops += o.local_pops;
        self.hot_hits += o.hot_hits;
        self.steal_attempts += o.steal_attempts;
        self.steal_successes += o.steal_successes;
        self.stolen_fibers += o.stolen_fibers;
        self.injector_pops += o.injector_pops;
        self.parks += o.parks;
        self.unparks += o.unparks;
        self.queue_depth += o.queue_depth;
        self.max_queue_depth = self.max_queue_depth.max(o.max_queue_depth);
    }
}

/// Pool-wide scheduling counters of a [`PooledExec`] (see
/// [`Exec::scheduler_stats`]); surfaced through
/// [`crate::monitor::MonitorStats`] for networks running on a pool.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Configured steady-state worker count (the number of slots).
    pub target_workers: usize,
    /// Worker threads currently alive, including `blocking_region`
    /// compensation workers.
    pub current_workers: usize,
    /// Fibers ever pushed to the global injector (spawns, cross-worker and
    /// foreign-thread unparks, deque overflow spills).
    pub injector_pushes: u64,
    /// Fibers sitting in the injector at snapshot time.
    pub injector_depth: usize,
    /// Unparked fibers routed through the injector because the waker was
    /// not a slot-owning worker of this pool.
    pub foreign_unparks: u64,
    /// Tasks currently inside a [`blocking_region`] (the pool's
    /// `external` gauge). Snapshotted under the same central-lock
    /// acquisition as `current_workers`, so `blocked_workers <=
    /// current_workers` holds in every snapshot — `exit_blocking`'s
    /// surplus-worker retirement can never be observed halfway.
    pub blocked_workers: usize,
    /// Readiness-reactor counters, when the pool has instantiated one
    /// (see [`reactor::Reactor`]); `None` until a net-layer wait needs it.
    pub reactor: Option<reactor::ReactorStats>,
    /// Per-slot worker counters, indexed by slot.
    pub workers: Vec<WorkerStats>,
}

impl SchedulerStats {
    /// Sum of the per-worker counters (`max_queue_depth` is the max).
    pub fn totals(&self) -> WorkerStats {
        let mut t = WorkerStats::default();
        for w in &self.workers {
            t.add(w);
        }
        t
    }
}

// ---------------------------------------------------------------------------
// Task identity
// ---------------------------------------------------------------------------

/// Per-task identity and task-local state, carried by the task itself so it
/// survives migration between pooled workers.
pub(crate) struct TaskLocals {
    /// Unique token identifying this task to the monitor.
    pub(crate) token: u64,
    /// The task's (process) name; empty for foreign threads.
    pub(crate) name: String,
    /// True for KPN process tasks, false for foreign threads.
    pub(crate) is_process: bool,
    /// The executor running this task (for `blocking_region` and pooled
    /// self-identification). Weak to avoid an `Arc` cycle.
    pub(crate) exec: Weak<dyn Exec>,
    /// Buffered sinks owned by this task: flushed before every blocking
    /// read (see [`crate::flush`]).
    pub(crate) sinks: Mutex<Vec<Weak<dyn Flushable>>>,
}

impl TaskLocals {
    pub(crate) fn new(name: &str, is_process: bool, exec: Weak<dyn Exec>) -> Arc<Self> {
        Arc::new(TaskLocals {
            token: next_id(),
            name: name.to_string(),
            is_process,
            exec,
            sinks: Mutex::new(Vec::new()),
        })
    }
}

thread_local! {
    /// The task currently running on this thread. `None` until first use on
    /// foreign threads; set by executors on task entry (and on every fiber
    /// switch-in for pooled workers).
    static CURRENT: RefCell<Option<Arc<TaskLocals>>> = const { RefCell::new(None) };
}

/// Run `f` with the current task's locals, lazily installing foreign-thread
/// locals on threads no executor owns.
pub(crate) fn with_current<R>(f: impl FnOnce(&Arc<TaskLocals>) -> R) -> R {
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        if cur.is_none() {
            let exec = weak_dyn(default_exec());
            *cur = Some(TaskLocals::new("", false, exec));
        }
        f(cur.as_ref().unwrap())
    })
}

/// Install `locals` as the current task on this thread, returning the
/// previous value (restore it when the task yields the thread).
pub(crate) fn set_current(locals: Option<Arc<TaskLocals>>) -> Option<Arc<TaskLocals>> {
    CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), locals))
}

/// A stable token identifying the current task (not the current OS thread):
/// the monitor keys its blocked-set by this.
pub(crate) fn task_token() -> u64 {
    with_current(|l| l.token)
}

/// True when the caller is a KPN process task (as opposed to a foreign
/// thread touching a channel from outside the network).
pub(crate) fn is_process_task() -> bool {
    with_current(|l| l.is_process)
}

/// The current task's process name, or `None` on foreign threads.
pub(crate) fn current_task_name() -> Option<String> {
    with_current(|l| {
        if l.is_process {
            Some(l.name.clone())
        } else {
            None
        }
    })
}

/// Install process-task locals on the current thread (test helper for code
/// that blocks on channels from hand-spawned threads).
#[cfg(test)]
pub(crate) fn install_process_locals(name: &str) {
    let exec = weak_dyn(default_exec());
    set_current(Some(TaskLocals::new(name, true, exec)));
}

/// Run `f`, telling the current task's executor that the region blocks the
/// OS thread outside the park protocol (socket reads, condvar waits on
/// foreign state). Pooled executors temporarily enlarge their worker pool
/// so fibers keep running; other executors run `f` directly.
pub fn blocking_region<T>(f: impl FnOnce() -> T) -> T {
    let exec = with_current(|l| l.exec.clone()).upgrade();
    struct Guard(Option<Arc<dyn Exec>>);
    impl Drop for Guard {
        fn drop(&mut self) {
            if let Some(e) = &self.0 {
                e.exit_blocking();
            }
        }
    }
    let guard = Guard(exec);
    if let Some(e) = &guard.0 {
        e.enter_blocking();
    }
    f()
}

/// The executor running the current task — the process's executor on KPN
/// tasks, the thread-mode default executor on foreign threads, `None`
/// once the owning executor has shut down.
pub fn current_exec() -> Option<Arc<dyn Exec>> {
    with_current(|l| l.exec.clone()).upgrade()
}

// ---------------------------------------------------------------------------
// ExecMode: network-level executor selection
// ---------------------------------------------------------------------------

/// Which executor a [`crate::Network`] runs its processes on.
#[derive(Clone)]
pub enum ExecMode {
    /// One OS thread per process (the paper's model).
    Thread,
    /// A fixed worker pool running processes as parked continuations;
    /// `workers == 0` means `available_parallelism()`.
    Pooled {
        /// Worker thread count (0 = `available_parallelism()`).
        workers: usize,
    },
    /// The deterministic simulation scheduler from PR 3.
    Sim(Arc<crate::sim::SimScheduler>),
}

impl std::fmt::Debug for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecMode::Thread => write!(f, "Thread"),
            ExecMode::Pooled { workers } => write!(f, "Pooled {{ workers: {workers} }}"),
            ExecMode::Sim(_) => write!(f, "Sim(..)"),
        }
    }
}

impl Default for ExecMode {
    /// Reads `KPN_EXEC` and `KPN_WORKERS` so existing programs can be
    /// switched to the pooled executor without code changes; defaults to
    /// [`ExecMode::Thread`] (see [`ExecMode::from_env`]).
    fn default() -> Self {
        Self::from_env()
    }
}

impl ExecMode {
    /// Parse the `KPN_EXEC` / `KPN_WORKERS` environment variables.
    ///
    /// `KPN_EXEC` selects the executor (`thread`, `pooled`, `pooled:N`);
    /// `KPN_WORKERS=N` sets the pooled worker count and, when `KPN_EXEC`
    /// is unset, implies `pooled`. Precedence, strongest first: an
    /// explicit [`crate::NetworkConfig::workers`] call (which bypasses
    /// this parser entirely) > `KPN_WORKERS` > `KPN_EXEC=pooled:N` >
    /// `available_parallelism()`. An explicit `KPN_EXEC=thread` wins over
    /// `KPN_WORKERS` — naming the executor outranks tuning one.
    pub fn from_env() -> ExecMode {
        let workers_env = std::env::var("KPN_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok());
        match std::env::var("KPN_EXEC") {
            Ok(v) => {
                let v = v.trim();
                if v.eq_ignore_ascii_case("pooled") {
                    ExecMode::Pooled {
                        workers: workers_env.unwrap_or(0),
                    }
                } else if let Some(n) = v
                    .strip_prefix("pooled:")
                    .and_then(|n| n.parse::<usize>().ok())
                {
                    ExecMode::Pooled {
                        workers: workers_env.unwrap_or(n),
                    }
                } else {
                    ExecMode::Thread
                }
            }
            Err(_) => match workers_env {
                Some(n) => ExecMode::Pooled { workers: n },
                None => ExecMode::Thread,
            },
        }
    }

    /// True for [`ExecMode::Sim`].
    pub fn is_sim(&self) -> bool {
        matches!(self, ExecMode::Sim(_))
    }

    /// Instantiate the executor for this mode.
    pub(crate) fn build(&self) -> Arc<dyn Exec> {
        match self {
            ExecMode::Thread => default_exec().clone() as Arc<dyn Exec>,
            ExecMode::Pooled { workers } => PooledExec::new(*workers) as Arc<dyn Exec>,
            ExecMode::Sim(sched) => SimExec::new(sched.clone()) as Arc<dyn Exec>,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_mode_env_parsing() {
        // Not exercised via the env vars themselves (tests run in
        // parallel); from_env falls back to Thread when both are unset,
        // and the parser is trivial enough to exercise through the enum.
        assert!(matches!(
            ExecMode::Pooled { workers: 3 },
            ExecMode::Pooled { workers: 3 }
        ));
    }

    #[test]
    fn scheduler_stats_totals_sum_workers() {
        let a = WorkerStats {
            local_pops: 3,
            stolen_fibers: 2,
            max_queue_depth: 7,
            ..Default::default()
        };
        let b = WorkerStats {
            local_pops: 4,
            hot_hits: 5,
            max_queue_depth: 4,
            ..Default::default()
        };
        let s = SchedulerStats {
            target_workers: 2,
            workers: vec![a, b],
            ..Default::default()
        };
        let t = s.totals();
        assert_eq!(t.local_pops, 7);
        assert_eq!(t.hot_hits, 5);
        assert_eq!(t.stolen_fibers, 2);
        assert_eq!(t.max_queue_depth, 7, "depth aggregates by max, not sum");
    }

    #[test]
    fn blocking_region_on_foreign_thread_is_direct() {
        assert_eq!(blocking_region(|| 41 + 1), 42);
    }
}
