//! Bounded-scheduling deadlock monitor (§3.5 and Parks' thesis \[13\]).
//!
//! Channels have limited capacity and writes block when full. This enforces
//! fair progress without relying on scheduler time-slicing, but it can
//! introduce *artificial* deadlock: a set of processes blocked forever even
//! though the (unbounded-channel) Kahn semantics would keep producing data —
//! the Hamming network of Figure 12 and the acyclic graph of Figure 13 are
//! the paper's examples.
//!
//! The monitor implements Parks' procedure:
//!
//! 1. detect that *every* live process thread in the network is blocked;
//! 2. if at least one of them is blocked **writing** to a full channel, the
//!    deadlock is artificial — grow the capacity of the *smallest* full
//!    channel with a blocked writer and wake it;
//! 3. if all of them are blocked **reading**, the deadlock is true — no
//!    finite buffer assignment can help; the network is aborted (every
//!    blocked operation fails with [`Error::Deadlocked`]).
//!
//! Detection is event-driven: the last thread to block runs it, with a short
//! settling delay to reject races (a thread may appear blocked an instant
//! before a notify wakes it). Blocked threads also re-run detection on a
//! periodic tick as a belt-and-braces fallback.

use crate::error::{Error, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

/// Default for [`MonitorTiming::tick`].
pub(crate) const MONITOR_TICK: Duration = Duration::from_millis(20);

/// Default for [`MonitorTiming::settle`].
const SETTLE: Duration = Duration::from_millis(2);

/// `KPN_MONITOR_DEBUG` tracing, read once per process: the trace sites sit
/// under the network-wide monitor mutex on every block and unblock.
fn debug_enabled() -> bool {
    static DEBUG: OnceLock<bool> = OnceLock::new();
    *DEBUG.get_or_init(|| std::env::var_os("KPN_MONITOR_DEBUG").is_some())
}

/// The monitor's two timing knobs, injectable per network via
/// [`crate::NetworkConfig::monitor_timing`]. The defaults favour low
/// steady-state overhead; tests that provoke many deadlocks can shrink
/// them ([`MonitorTiming::fast`]), and the deterministic simulator runs
/// with both at zero ([`MonitorTiming::zero`]) because under a serial
/// scheduler there are no settling races to reject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorTiming {
    /// How long a blocked channel operation waits before re-running
    /// detection (the belt-and-braces fallback behind the event-driven
    /// path).
    pub tick: Duration,
    /// Settling delay used to confirm that an apparent all-blocked state
    /// is stable before acting on it.
    pub settle: Duration,
}

impl Default for MonitorTiming {
    fn default() -> Self {
        MonitorTiming {
            tick: MONITOR_TICK,
            settle: SETTLE,
        }
    }
}

impl MonitorTiming {
    /// Aggressive timing for tests that provoke deadlocks on purpose:
    /// detection latency drops from tens of milliseconds to hundreds of
    /// microseconds at the cost of more frequent wakeups while blocked.
    pub fn fast() -> Self {
        MonitorTiming {
            tick: Duration::from_millis(1),
            settle: Duration::from_micros(200),
        }
    }

    /// No waiting at all. Only sound when channel operations are
    /// serialized (the sim scheduler), where an all-blocked observation
    /// cannot be a transient race.
    pub fn zero() -> Self {
        MonitorTiming {
            tick: Duration::ZERO,
            settle: Duration::ZERO,
        }
    }
}

/// What to do when every process in the network is blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlockPolicy {
    /// Parks' bounded scheduling: double the smallest full channel (up to
    /// `max_capacity`, if set) on artificial deadlock; abort on true
    /// deadlock. This is the default.
    Grow {
        /// Upper bound on any single channel's capacity; `None` = unbounded.
        max_capacity: Option<usize>,
    },
    /// Abort the network on any full deadlock, artificial or true.
    Abort,
    /// Do nothing (useful for tests that assert raw blocking behaviour).
    Ignore,
}

impl Default for DeadlockPolicy {
    fn default() -> Self {
        DeadlockPolicy::Grow { max_capacity: None }
    }
}

/// Why a thread is blocked, as reported to the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// Blocked reading an empty channel.
    Read,
    /// Blocked writing a full channel.
    Write,
}

/// Per-channel I/O counters (see [`crate::Network::channel_report`]):
/// the observability layer behind the buffer-management analysis —
/// `peak_occupancy` is the buffer demand bounded scheduling discovered,
/// and the block counters show where backpressure (or starvation) lives.
///
/// Counters account for bytes at the *channel* boundary. Buffered typed
/// streams batch tokens privately before they cross it, but the auto-flush
/// rule (see [`crate::flush`]) empties those private buffers whenever the
/// owning process blocks or finishes a step, so at every point where the
/// monitor inspects a stalled network these counters describe all data in
/// flight — which is what keeps bounded-capacity scheduling decisions
/// correct under buffering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelIoStats {
    /// Total bytes pushed through the channel.
    pub bytes_written: u64,
    /// Blocking episodes on the write side (buffer full).
    pub write_blocks: u64,
    /// Blocking episodes on the read side (buffer empty).
    pub read_blocks: u64,
    /// Highest buffer occupancy observed, in bytes.
    pub peak_occupancy: usize,
    /// Current capacity (after any growth).
    pub capacity: usize,
}

/// Channel-side operations the monitor needs. Implemented by the local
/// channel's shared state.
pub(crate) trait MonitoredChannel: Send + Sync {
    /// Current capacity in bytes.
    fn capacity(&self) -> usize;
    /// True when the buffer is at capacity (writers must block).
    fn is_full(&self) -> bool;
    /// Bytes currently buffered (diagnostics).
    fn buffered(&self) -> usize;
    /// True when the write end has been closed (reader is about to see
    /// EOF, so a registered read-block on this channel is not a deadlock).
    fn is_write_closed(&self) -> bool;
    /// True when the read end has been closed (writer is about to fail,
    /// so a registered write-block on this channel is not a deadlock).
    fn is_read_closed(&self) -> bool;
    /// If the channel is full, grow it (respecting `max`) and wake writers.
    /// Returns `(old, new)` capacities when growth happened.
    fn grow_if_full(&self, max: Option<usize>) -> Option<(usize, usize)>;
    /// Grow the channel to at least `min` bytes (never shrinks) and wake
    /// writers. Returns true when the capacity actually changed. Used to
    /// apply statically synthesized capacities before a network starts.
    fn ensure_capacity(&self, min: usize) -> bool;
    /// Mark the channel poisoned and wake everyone; all subsequent and
    /// pending operations fail with [`Error::Deadlocked`].
    fn poison(&self);
    /// Point-in-time I/O counters.
    fn io_stats(&self) -> ChannelIoStats;
}

/// Counters exposed for tests, benches and EXPERIMENTS.md.
#[derive(Debug, Default, Clone)]
pub struct MonitorStats {
    /// Number of artificial deadlocks resolved by growing a channel.
    pub growths: u64,
    /// Capacity-growth events the runtime monitor performed after start —
    /// the observable cost of Parks' detect-and-grow loop. Statically
    /// synthesized capacities applied before start
    /// (`NetworkConfig::synthesize_capacities`) do not count, so a static
    /// region whose synthesized sizes hold reports `capacity_grows == 0`.
    pub capacity_grows: u64,
    /// Number of true deadlocks detected.
    pub true_deadlocks: u64,
    /// Every growth performed: `(channel id, old capacity, new capacity)`.
    /// The raw material for buffer-management analysis (§6.2): the final
    /// entry per channel is the capacity bounded scheduling settled on.
    pub growth_log: Vec<(u64, usize, usize)>,
    /// Per-worker scheduler counters, when the network runs on an executor
    /// that keeps them (the pooled executor); `None` under thread and sim
    /// execution.
    pub scheduler: Option<crate::exec::SchedulerStats>,
}

/// A point-in-time view of a monitor, used by the distributed deadlock
/// probe (§6.2): a node whose every network is fully blocked — including
/// threads blocked on *remote* channel reads — is a candidate participant
/// in a cross-machine deadlock that no local monitor can prove alone.
#[derive(Debug, Clone, Default)]
pub struct MonitorSnapshot {
    /// Monotonic activity counter: bumps on every block, unblock, spawn
    /// and exit. Two identical snapshots with equal generations mean *no
    /// thread made progress in between* — the distributed probe's
    /// freshness check.
    pub generation: u64,
    /// Live process threads.
    pub live: usize,
    /// Process threads blocked reading.
    pub blocked_reads: usize,
    /// Process threads blocked writing.
    pub blocked_writes: usize,
    /// Whether the network was aborted.
    pub aborted: bool,
    /// Resolution counters.
    pub stats: MonitorStats,
}

impl MonitorSnapshot {
    /// True when the network still has live processes and every one of
    /// them is blocked.
    pub fn fully_blocked(&self) -> bool {
        self.live > 0 && self.blocked_reads + self.blocked_writes >= self.live
    }

    /// True when the network has finished (no live processes).
    pub fn finished(&self) -> bool {
        self.live == 0
    }
}

/// Sentinel channel id for blocks on channels the monitor cannot inspect
/// (remote transports). Such blocks count toward all-blocked detection but
/// always fail semantic verification, so they can never cause a *local*
/// true-deadlock abort — exactly right, since data may be in flight on the
/// network (§6.2 leaves resolution to a distributed protocol).
pub const EXTERNAL_CHANNEL: u64 = 0;

#[derive(Debug, Clone, Copy)]
struct BlockInfo {
    kind: BlockKind,
    chan: u64,
    is_process: bool,
}

#[derive(Default)]
struct MonState {
    /// Live process threads in the network (running or blocked).
    live: usize,
    /// All threads currently blocked on a monitored channel, keyed by a
    /// per-thread token. Includes non-process threads (e.g. a test's main
    /// thread draining the output), which participate in deadlock but not
    /// in the live count.
    blocked: HashMap<u64, BlockInfo>,
    /// Number of blocked entries with `is_process == true`.
    blocked_processes: usize,
    /// Bumped on every block/unblock/process event; used by the settling
    /// double-check to detect concurrent activity.
    generation: u64,
    channels: HashMap<u64, Weak<dyn MonitoredChannel>>,
    /// Final counters of channels that have been dropped, so reports cover
    /// the network's whole life.
    retired: Vec<(u64, ChannelIoStats)>,
    aborted: bool,
    stats: MonitorStats,
}

/// The per-network deadlock monitor. One instance is shared by every channel
/// and process thread created through a [`crate::Network`].
pub struct Monitor {
    state: Mutex<MonState>,
    policy: DeadlockPolicy,
    timing: MonitorTiming,
    /// Callbacks run when the network aborts, *after* local channels are
    /// poisoned. Used by the distributed layer to interrupt threads
    /// blocked on transports the monitor cannot poison (TCP reads,
    /// pending connections).
    abort_hooks: Mutex<Vec<Box<dyn Fn() + Send + Sync>>>,
    /// Pulls scheduler counters from the network's executor for
    /// [`Monitor::stats`]/[`Monitor::snapshot`]. A closure (over a weak
    /// executor handle) rather than an `Arc<dyn Exec>` because the
    /// executor holds the monitor strongly via its idle hook — a direct
    /// reference back would leak both.
    scheduler_source: Mutex<Option<SchedulerSource>>,
}

/// Closure pulling a [`SchedulerStats`](crate::exec::SchedulerStats)
/// snapshot from the owning network's executor.
type SchedulerSource = Box<dyn Fn() -> Option<crate::exec::SchedulerStats> + Send + Sync>;

/// The monitor keys its blocked-set by *task*, not OS thread: under the
/// pooled executor one worker thread runs many tasks (and a task may
/// migrate between workers between its enter/exit pair), so identity comes
/// from the executor's task-locals.
fn thread_token() -> u64 {
    crate::exec::task_token()
}

/// True when the caller is a network process task (any executor); foreign
/// threads touching channels from outside register as external blocks.
fn is_process_thread() -> bool {
    crate::exec::is_process_task()
}

impl Monitor {
    /// Creates a monitor with the given policy and default timing.
    pub fn new(policy: DeadlockPolicy) -> Arc<Self> {
        Self::with_timing(policy, MonitorTiming::default())
    }

    /// Creates a monitor with explicit timing knobs.
    pub fn with_timing(policy: DeadlockPolicy, timing: MonitorTiming) -> Arc<Self> {
        Arc::new(Monitor {
            state: Mutex::new(MonState::default()),
            policy,
            timing,
            abort_hooks: Mutex::new(Vec::new()),
            scheduler_source: Mutex::new(None),
        })
    }

    /// Wire up the provider of executor scheduling counters (set by
    /// [`crate::Network`] when the executor keeps them). The closure is
    /// called outside the monitor's state lock, so it may itself lock
    /// executor state.
    pub fn set_scheduler_source(
        &self,
        source: Box<dyn Fn() -> Option<crate::exec::SchedulerStats> + Send + Sync>,
    ) {
        *self.scheduler_source.lock() = Some(source);
    }

    /// Current executor scheduling counters, if any.
    fn scheduler_stats(&self) -> Option<crate::exec::SchedulerStats> {
        self.scheduler_source.lock().as_ref().and_then(|f| f())
    }

    /// The timing knobs this monitor runs with.
    pub fn timing(&self) -> MonitorTiming {
        self.timing
    }

    /// Registers a callback to run when the network aborts (after local
    /// channels are poisoned). If the network is already aborted the hook
    /// runs immediately.
    pub fn on_abort(&self, hook: Box<dyn Fn() + Send + Sync>) {
        let already = self.state.lock().aborted;
        if already {
            hook();
        } else {
            self.abort_hooks.lock().push(hook);
        }
    }

    fn run_abort_hooks(&self) {
        // Take the hooks out so they run exactly once, without the lock.
        let hooks: Vec<_> = self.abort_hooks.lock().drain(..).collect();
        for hook in hooks {
            hook();
        }
    }

    /// The policy this monitor was created with.
    pub fn policy(&self) -> DeadlockPolicy {
        self.policy
    }

    /// Snapshot of resolution counters, including the executor's
    /// per-worker scheduling counters when it keeps them.
    pub fn stats(&self) -> MonitorStats {
        let mut stats = self.state.lock().stats.clone();
        // Filled after releasing the state lock: the source closure takes
        // the executor's own locks, and the executor's idle hook calls
        // back into this monitor.
        stats.scheduler = self.scheduler_stats();
        stats
    }

    /// Per-channel I/O counters, keyed by channel id — live channels plus
    /// the final counters of already-dropped ones, so the report covers
    /// the network's entire execution.
    pub fn channel_report(&self) -> Vec<(u64, ChannelIoStats)> {
        let st = self.state.lock();
        let mut out: Vec<(u64, ChannelIoStats)> = st
            .channels
            .iter()
            .filter_map(|(id, w)| w.upgrade().map(|ch| (*id, ch.io_stats())))
            .chain(st.retired.iter().cloned())
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// A point-in-time view for the distributed deadlock probe.
    pub fn snapshot(&self) -> MonitorSnapshot {
        let st = self.state.lock();
        let mut reads = 0;
        let mut writes = 0;
        for b in st.blocked.values() {
            if !b.is_process {
                continue;
            }
            match b.kind {
                BlockKind::Read => reads += 1,
                BlockKind::Write => writes += 1,
            }
        }
        let mut snap = MonitorSnapshot {
            generation: st.generation,
            live: st.live,
            blocked_reads: reads,
            blocked_writes: writes,
            aborted: st.aborted,
            stats: st.stats.clone(),
        };
        drop(st); // scheduler source takes executor locks; see stats()
        snap.stats.scheduler = self.scheduler_stats();
        snap
    }

    /// Registers the current thread as blocked on a channel the monitor
    /// cannot inspect (a remote transport). The block participates in
    /// all-blocked detection and snapshots, but never satisfies the
    /// true-deadlock verification — remote data may be in flight, so only
    /// a distributed protocol may abort (§6.2).
    pub fn external_block(&self, kind: BlockKind) -> Result<ExternalBlockGuard<'_>> {
        self.enter_block(kind, EXTERNAL_CHANNEL)?;
        Ok(ExternalBlockGuard { monitor: self })
    }

    /// True once a true deadlock was declared or the network was aborted.
    pub fn is_aborted(&self) -> bool {
        self.state.lock().aborted
    }

    pub(crate) fn register_channel(&self, id: u64, chan: Weak<dyn MonitoredChannel>) {
        let mut st = self.state.lock();
        st.channels.insert(id, chan);
    }

    /// Records the final counters of a dropped channel.
    pub(crate) fn channel_retired(&self, id: u64, stats: ChannelIoStats) {
        let mut st = self.state.lock();
        st.channels.remove(&id);
        st.retired.push((id, stats));
    }

    /// A process thread entered the network.
    pub(crate) fn process_started(&self) {
        let mut st = self.state.lock();
        st.live += 1;
        st.generation += 1;
    }

    /// A process thread left the network (finished or failed).
    pub(crate) fn process_finished(&self) {
        let plan = {
            let mut st = self.state.lock();
            st.live -= 1;
            st.generation += 1;
            // The departing process may have been the only runnable one;
            // the remainder might now be fully blocked.
            self.plan_if_all_blocked(&mut st)
        };
        self.execute(plan);
    }

    /// Registers the current thread as blocked and runs deadlock detection.
    /// Returns `Err(Deadlocked)` if the network is already aborted.
    pub(crate) fn enter_block(&self, kind: BlockKind, chan: u64) -> Result<()> {
        let token = thread_token();
        let is_process = is_process_thread();
        let (plan, gen) = {
            let mut st = self.state.lock();
            if st.aborted {
                return Err(Error::Deadlocked);
            }
            let prev = st.blocked.insert(
                token,
                BlockInfo {
                    kind,
                    chan,
                    is_process,
                },
            );
            debug_assert!(prev.is_none(), "thread blocked twice");
            if debug_enabled() {
                eprintln!(
                    "[monitor] enter token={token} chan={chan} kind={kind:?} gen={}",
                    st.generation + 1
                );
            }
            if is_process {
                st.blocked_processes += 1;
            }
            st.generation += 1;
            let gen = st.generation;
            (self.detect(&mut st), gen)
        };
        if plan {
            self.settle_and_resolve(gen);
        }
        Ok(())
    }

    /// Re-runs detection from a thread that has been blocked for a while
    /// (periodic fallback; the thread stays registered, so this does not
    /// bump the generation and cannot destabilize a concurrent settle).
    pub(crate) fn tick(&self) {
        let (detected, gen) = {
            let mut st = self.state.lock();
            (self.detect(&mut st), st.generation)
        };
        if detected {
            self.settle_and_resolve(gen);
        }
    }

    /// Unregisters the current thread.
    pub(crate) fn exit_block(&self) {
        let token = thread_token();
        let mut st = self.state.lock();
        if let Some(info) = st.blocked.remove(&token) {
            if info.is_process {
                st.blocked_processes -= 1;
            }
            st.generation += 1;
            if debug_enabled() {
                eprintln!(
                    "[monitor] exit token={token} chan={} gen={}",
                    info.chan, st.generation
                );
            }
        }
    }

    /// Aborts the network: poisons every registered channel so all pending
    /// and future operations fail with [`Error::Deadlocked`].
    pub fn abort(&self) {
        let chans: Vec<Arc<dyn MonitoredChannel>> = {
            let mut st = self.state.lock();
            st.aborted = true;
            st.generation += 1;
            st.channels.values().filter_map(Weak::upgrade).collect()
        };
        for c in chans {
            c.poison();
        }
        self.run_abort_hooks();
    }

    /// True when every live process thread is blocked (candidate deadlock).
    fn detect(&self, st: &mut MonState) -> bool {
        !st.aborted && st.live > 0 && st.blocked_processes >= st.live
    }

    /// Semantic confirmation for a *growth* decision: every blocked entry
    /// on a locally-inspectable channel must be consistent with a real
    /// block (reads on empty-and-open channels, writes on full-and-open
    /// ones). This rejects the single-core race where a *runnable* reader
    /// is still registered while the settle delay elapses, and — the
    /// `!is_read_closed` clause — the termination-cascade race where a
    /// writer parked on a channel whose reader just died has its
    /// `WriteClosed` wake still in flight: the network looks all-blocked
    /// for an instant, but the cascade is about to unwedge it and growing
    /// any channel now would be pure buffer inflation. Only blocks on the
    /// [`EXTERNAL_CHANNEL`] sentinel pass unverified (a distributed
    /// artificial deadlock may still need a local channel to grow); local
    /// channels stay registered until both endpoints are gone, so a
    /// blocked entry always finds its channel here.
    fn verify_for_growth(st: &MonState) -> bool {
        st.blocked.values().all(|b| {
            match st.channels.get(&b.chan).and_then(Weak::upgrade) {
                Some(ch) => match b.kind {
                    BlockKind::Read => ch.buffered() == 0 && !ch.is_write_closed(),
                    BlockKind::Write => ch.is_full() && !ch.is_read_closed(),
                },
                // Remote (never locally registered) channel: introspection
                // impossible; do not veto the growth.
                None => b.chan == EXTERNAL_CHANNEL,
            }
        })
    }

    /// Semantic confirmation for a true-deadlock declaration: every
    /// read-blocked channel must actually be empty and every write-blocked
    /// channel actually full. This closes the race where the *detecting*
    /// thread registered as blocked but has not yet re-checked its channel
    /// (its pending progress cannot bump the generation, so the settling
    /// delay alone would not catch it).
    fn verify_blocked_semantics(st: &MonState) -> bool {
        st.blocked.values().all(|b| {
            match st.channels.get(&b.chan).and_then(Weak::upgrade) {
                Some(ch) => match b.kind {
                    BlockKind::Read => ch.buffered() == 0 && !ch.is_write_closed(),
                    BlockKind::Write => ch.is_full() && !ch.is_read_closed(),
                },
                // Unknown channel: cannot verify, be conservative.
                None => false,
            }
        })
    }

    fn plan_if_all_blocked(&self, st: &mut MonState) -> bool {
        self.detect(st)
    }

    fn execute(&self, detected: bool) {
        if detected {
            let gen = self.state.lock().generation;
            self.settle_and_resolve(gen);
        }
    }

    /// Confirms the all-blocked state is stable across a short delay, then
    /// resolves per policy. Called without any locks held.
    fn settle_and_resolve(&self, gen_at_detect: u64) {
        // Fast pre-check: if the current state can not possibly lead to an
        // action (e.g. every blocked read is on an external/remote channel,
        // which only a distributed protocol may resolve), skip the settling
        // sleep — it would otherwise add latency to every blocking remote
        // read in small partitions.
        {
            let mut st = self.state.lock();
            if !self.detect(&mut st) {
                return;
            }
            let growable = st.blocked.values().any(|b| {
                b.kind == BlockKind::Write
                    && st
                        .channels
                        .get(&b.chan)
                        .and_then(Weak::upgrade)
                        .map(|ch| ch.is_full())
                        .unwrap_or(false)
            });
            match self.policy {
                DeadlockPolicy::Ignore => return,
                DeadlockPolicy::Grow { .. } if growable => {
                    if !Self::verify_for_growth(&st) {
                        return;
                    }
                }
                _ => {
                    if !Self::verify_blocked_semantics(&st) {
                        return;
                    }
                }
            }
        }
        if !self.timing.settle.is_zero() {
            std::thread::sleep(self.timing.settle);
        }
        // Decide under the lock; act on channels after releasing it
        // (channel poison/grow takes the channel lock — never hold both).
        enum Act {
            None,
            Grow(u64, Arc<dyn MonitoredChannel>, Option<usize>),
            Abort(Vec<Arc<dyn MonitoredChannel>>),
        }
        let act = {
            let mut st = self.state.lock();
            if st.generation != gen_at_detect || !self.detect(&mut st) {
                Act::None
            } else {
                let any_writer = st.blocked.values().any(|b| b.kind == BlockKind::Write);
                match (self.policy, any_writer) {
                    (DeadlockPolicy::Ignore, _) => Act::None,
                    (DeadlockPolicy::Grow { max_capacity }, true)
                        if Self::verify_for_growth(&st) =>
                    {
                        // Artificial deadlock: grow the smallest-capacity
                        // *full* channel that has a blocked writer (Parks'
                        // procedure). Stale blocked entries can reference
                        // channels that have since drained; skip those.
                        // Capacity ties break on channel id so the choice
                        // does not depend on HashMap iteration order — the
                        // sim scheduler's replay guarantee needs growth
                        // decisions to be a function of network state alone.
                        let mut best: Option<(usize, u64, Arc<dyn MonitoredChannel>)> = None;
                        for info in st.blocked.values() {
                            if info.kind != BlockKind::Write {
                                continue;
                            }
                            if let Some(ch) = st.channels.get(&info.chan).and_then(Weak::upgrade) {
                                if !ch.is_full() {
                                    continue;
                                }
                                let cap = ch.capacity();
                                let better = best
                                    .as_ref()
                                    .map(|(c, id, _)| (cap, info.chan) < (*c, *id))
                                    .unwrap_or(true);
                                if better {
                                    best = Some((cap, info.chan, ch));
                                }
                            }
                        }
                        match best {
                            Some((_, id, ch)) => Act::Grow(id, ch, max_capacity),
                            None => Act::None,
                        }
                    }
                    (DeadlockPolicy::Grow { .. }, false) | (DeadlockPolicy::Abort, _)
                        if Self::verify_blocked_semantics(&st) =>
                    {
                        if debug_enabled() {
                            let occupancy: Vec<(u64, usize)> = st
                                .channels
                                .iter()
                                .filter_map(|(id, w)| w.upgrade().map(|c| (*id, c.buffered())))
                                .collect();
                            eprintln!(
                                "[monitor] true deadlock: live={} gen={} gen_at_detect={} blocked={:?} occupancy={:?}",
                                st.live,
                                st.generation,
                                gen_at_detect,
                                st.blocked.values().collect::<Vec<_>>(),
                                occupancy,
                            );
                        }
                        st.aborted = true;
                        st.stats.true_deadlocks += 1;
                        st.generation += 1;
                        Act::Abort(st.channels.values().filter_map(Weak::upgrade).collect())
                    }
                    // All-read-blocked but some blocked channel still holds
                    // data (or is unverifiable): a reader is about to make
                    // progress — not a deadlock. A later tick retries.
                    _ => Act::None,
                }
            }
        };
        match act {
            Act::None => {}
            Act::Grow(id, ch, max) => {
                if debug_enabled() {
                    let st = self.state.lock();
                    let chans: Vec<(u64, usize, usize, bool, bool)> = st
                        .channels
                        .iter()
                        .filter_map(|(cid, w)| {
                            w.upgrade().map(|c| {
                                (*cid, c.buffered(), c.capacity(), c.is_read_closed(), c.is_write_closed())
                            })
                        })
                        .collect();
                    eprintln!(
                        "[monitor] GROW ch={id} live={} blocked={:?} chans(id,buf,cap,rc,wc)={:?}",
                        st.live,
                        st.blocked.values().collect::<Vec<_>>(),
                        chans
                    );
                }
                if let Some((old, new)) = ch.grow_if_full(max) {
                    let mut st = self.state.lock();
                    st.stats.growths += 1;
                    st.stats.capacity_grows += 1;
                    st.stats.growth_log.push((id, old, new));
                    st.generation += 1;
                } else {
                    // The channel drained between detection and action, or
                    // growth is capped; if everyone is still blocked a
                    // subsequent tick will retry (possibly picking another
                    // channel, or declaring true deadlock if capped).
                    let capped = max.map(|m| ch.capacity() >= m).unwrap_or(false);
                    if capped {
                        // All writable channels at max: treat as true
                        // deadlock to avoid spinning forever.
                        let still = {
                            let mut st = self.state.lock();
                            if self.detect(&mut st) {
                                st.aborted = true;
                                st.stats.true_deadlocks += 1;
                                Some(
                                    st.channels
                                        .values()
                                        .filter_map(Weak::upgrade)
                                        .collect::<Vec<_>>(),
                                )
                            } else {
                                None
                            }
                        };
                        if let Some(chans) = still {
                            for c in chans {
                                c.poison();
                            }
                            self.run_abort_hooks();
                        }
                    }
                }
            }
            Act::Abort(chans) => {
                for c in chans {
                    c.poison();
                }
                self.run_abort_hooks();
            }
        }
    }
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("Monitor")
            .field("policy", &self.policy)
            .field("live", &st.live)
            .field("blocked", &st.blocked.len())
            .field("aborted", &st.aborted)
            .finish()
    }
}

/// RAII guard for an external (remote-transport) block; see
/// [`Monitor::external_block`].
pub struct ExternalBlockGuard<'m> {
    monitor: &'m Monitor,
}

impl Drop for ExternalBlockGuard<'_> {
    fn drop(&mut self) {
        self.monitor.exit_block();
    }
}

/// RAII guard pairing [`Monitor::enter_block`]/[`Monitor::exit_block`].
pub(crate) struct BlockGuard<'m> {
    monitor: &'m Monitor,
}

impl<'m> BlockGuard<'m> {
    pub(crate) fn enter(monitor: &'m Monitor, kind: BlockKind, chan: u64) -> Result<Self> {
        monitor.enter_block(kind, chan)?;
        Ok(BlockGuard { monitor })
    }
}

impl Drop for BlockGuard<'_> {
    fn drop(&mut self) {
        self.monitor.exit_block();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeChan {
        cap: Mutex<usize>,
        full: Mutex<bool>,
        poisoned: Mutex<bool>,
    }

    impl FakeChan {
        fn new(cap: usize, full: bool) -> Arc<Self> {
            Arc::new(FakeChan {
                cap: Mutex::new(cap),
                full: Mutex::new(full),
                poisoned: Mutex::new(false),
            })
        }
    }

    impl MonitoredChannel for FakeChan {
        fn capacity(&self) -> usize {
            *self.cap.lock()
        }
        fn is_full(&self) -> bool {
            *self.full.lock()
        }
        fn buffered(&self) -> usize {
            0
        }
        fn is_write_closed(&self) -> bool {
            false
        }
        fn is_read_closed(&self) -> bool {
            false
        }
        fn io_stats(&self) -> ChannelIoStats {
            ChannelIoStats::default()
        }
        fn grow_if_full(&self, max: Option<usize>) -> Option<(usize, usize)> {
            let mut cap = self.cap.lock();
            if !*self.full.lock() {
                return None;
            }
            let old = *cap;
            let new = (old * 2).min(max.unwrap_or(usize::MAX));
            if new <= old {
                return None;
            }
            *cap = new;
            // A freshly grown channel is no longer full.
            *self.full.lock() = false;
            Some((old, new))
        }
        fn ensure_capacity(&self, min: usize) -> bool {
            let mut cap = self.cap.lock();
            if *cap >= min {
                return false;
            }
            *cap = min;
            *self.full.lock() = false;
            true
        }
        fn poison(&self) {
            *self.poisoned.lock() = true;
        }
    }

    #[test]
    fn policy_default_is_grow_unbounded() {
        assert_eq!(
            DeadlockPolicy::default(),
            DeadlockPolicy::Grow { max_capacity: None }
        );
    }

    #[test]
    fn enter_after_abort_fails() {
        let m = Monitor::new(DeadlockPolicy::default());
        m.abort();
        assert!(matches!(
            m.enter_block(BlockKind::Read, 1),
            Err(Error::Deadlocked)
        ));
    }

    /// Reserves `blocks.len()` live processes, then blocks one thread per
    /// entry in order (each thread leaves its blocked entry in place, as a
    /// permanently-stuck process would). Detection fires when the last one
    /// blocks.
    fn block_all(m: &Arc<Monitor>, blocks: &[(u64, BlockKind)]) {
        for _ in blocks {
            m.process_started();
        }
        for &(chan, kind) in blocks {
            let m2 = m.clone();
            std::thread::spawn(move || {
                crate::exec::install_process_locals("blocked");
                let _ = m2.enter_block(kind, chan);
            })
            .join()
            .unwrap();
        }
        // Let the settling delay of the final detection elapse.
        std::thread::sleep(Duration::from_millis(20));
    }

    #[test]
    fn all_read_blocked_is_true_deadlock() {
        let m = Monitor::new(DeadlockPolicy::default());
        let c1: Arc<FakeChan> = FakeChan::new(16, false);
        m.register_channel(1, Arc::downgrade(&c1) as Weak<dyn MonitoredChannel>);
        block_all(&m, &[(1, BlockKind::Read), (1, BlockKind::Read)]);
        assert!(m.is_aborted());
        assert!(*c1.poisoned.lock());
        assert_eq!(m.stats().true_deadlocks, 1);
    }

    #[test]
    fn write_blocked_grows_smallest_channel() {
        let m = Monitor::new(DeadlockPolicy::default());
        let small = FakeChan::new(8, true);
        let big = FakeChan::new(64, true);
        m.register_channel(1, Arc::downgrade(&small) as Weak<dyn MonitoredChannel>);
        m.register_channel(2, Arc::downgrade(&big) as Weak<dyn MonitoredChannel>);
        block_all(&m, &[(1, BlockKind::Write), (2, BlockKind::Write)]);
        assert!(!m.is_aborted());
        assert_eq!(*small.cap.lock(), 16, "smallest channel doubled");
        assert_eq!(*big.cap.lock(), 64, "larger channel untouched");
        assert_eq!(m.stats().growths, 1);
    }

    #[test]
    fn mixed_block_prefers_growth_over_abort() {
        let m = Monitor::new(DeadlockPolicy::default());
        let c = FakeChan::new(8, true);
        let empty = FakeChan::new(8, false);
        m.register_channel(7, Arc::downgrade(&c) as Weak<dyn MonitoredChannel>);
        m.register_channel(9, Arc::downgrade(&empty) as Weak<dyn MonitoredChannel>);
        block_all(&m, &[(7, BlockKind::Write), (9, BlockKind::Read)]);
        assert!(!m.is_aborted());
        assert_eq!(m.stats().growths, 1);
    }

    #[test]
    fn block_on_vanished_local_channel_vetoes_growth() {
        // A writer parked on a channel the monitor no longer sees (its
        // reader died mid-cascade and the registration followed the Shared
        // out) means a `WriteClosed` wake is in flight: the all-blocked
        // picture is transient and growing another channel would be pure
        // inflation. Only the EXTERNAL_CHANNEL sentinel may pass
        // unverified.
        let m = Monitor::new(DeadlockPolicy::default());
        let c = FakeChan::new(8, true);
        m.register_channel(7, Arc::downgrade(&c) as Weak<dyn MonitoredChannel>);
        block_all(&m, &[(7, BlockKind::Write), (9, BlockKind::Read)]);
        assert!(!m.is_aborted());
        assert_eq!(m.stats().growths, 0, "in-flight cascade must veto growth");
    }

    #[test]
    fn external_block_still_permits_growth() {
        // Distributed artificial deadlocks block on the sentinel id; the
        // monitor cannot introspect the remote side and must still be able
        // to grow a full local channel.
        let m = Monitor::new(DeadlockPolicy::default());
        let c = FakeChan::new(8, true);
        m.register_channel(7, Arc::downgrade(&c) as Weak<dyn MonitoredChannel>);
        block_all(&m, &[(7, BlockKind::Write), (EXTERNAL_CHANNEL, BlockKind::Read)]);
        assert!(!m.is_aborted());
        assert_eq!(m.stats().growths, 1);
    }

    #[test]
    fn grow_capped_at_max_becomes_true_deadlock() {
        let m = Monitor::new(DeadlockPolicy::Grow {
            max_capacity: Some(8),
        });
        let c = FakeChan::new(8, true); // already at max
        m.register_channel(1, Arc::downgrade(&c) as Weak<dyn MonitoredChannel>);
        block_all(&m, &[(1, BlockKind::Write)]);
        // Growth impossible: the monitor must not spin; it declares a true
        // deadlock and poisons the channel.
        assert!(m.is_aborted());
        assert!(*c.poisoned.lock());
    }

    #[test]
    fn foreign_thread_does_not_trigger_alone() {
        let m = Monitor::new(DeadlockPolicy::default());
        // One live process that is NOT blocked...
        let m1 = m.clone();
        std::thread::spawn(move || {
            crate::exec::install_process_locals("live");
            m1.process_started();
        })
        .join()
        .unwrap();
        // ...and a foreign (non-process) thread that blocks.
        m.enter_block(BlockKind::Read, 1).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        assert!(!m.is_aborted());
        m.exit_block();
    }

    #[test]
    fn exit_block_clears_state() {
        let m = Monitor::new(DeadlockPolicy::Ignore);
        m.enter_block(BlockKind::Read, 1).unwrap();
        m.exit_block();
        let st = m.state.lock();
        assert!(st.blocked.is_empty());
        assert_eq!(st.blocked_processes, 0);
    }

    #[test]
    fn ignore_policy_never_acts() {
        let m = Monitor::new(DeadlockPolicy::Ignore);
        let c = FakeChan::new(8, true);
        m.register_channel(1, Arc::downgrade(&c) as Weak<dyn MonitoredChannel>);
        let m2 = m.clone();
        std::thread::spawn(move || {
            crate::exec::install_process_locals("writer");
            m2.process_started();
            m2.enter_block(BlockKind::Write, 1).unwrap();
        })
        .join()
        .unwrap();
        std::thread::sleep(Duration::from_millis(10));
        assert!(!m.is_aborted());
        assert_eq!(*c.cap.lock(), 8);
    }
}
