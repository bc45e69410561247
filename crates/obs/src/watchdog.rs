//! Starvation watchdog: per-thread progress epochs plus a background
//! monitor that flags waiters stalled past a threshold.
//!
//! CLoF's fairness argument is conditional — every component fair, every
//! `keep_local` bounded — and the stress oracle checks it after the
//! fact. The watchdog checks it *during* a run: each thread publishes
//! its lock-protocol phase (idle / waiting / holding) and a progress
//! epoch into a fixed slot of a [`ProgressRegistry`]; a [`Watchdog`]
//! polls the registry and reports any thread that has been `Waiting` on
//! one epoch for longer than the configured threshold, together with a
//! diagnostic dump (who currently holds, how many are waiting, plus a
//! caller-supplied context line — e.g. per-level queue hints and the
//! pass-ring tail).
//!
//! The publishing side is one or two relaxed stores per transition
//! (phase word and, on release, an epoch bump) into a slot only that
//! thread writes, on a cache line of its own — no locks, no RMW, no
//! clock read (the caller passes the transition's timestamp), safe to
//! leave always-on under `obs`.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crate::counters::bump;
use crate::now_ns;

/// Progress slots in the global registry. Thread tags at or above this
/// are silently not monitored (the telemetry stays exact; only the
/// watchdog loses sight of them) — that takes this many threads alive
/// at once, since [`crate::thread_tag`] recycles the tags of exited
/// threads.
pub const MAX_PROGRESS_SLOTS: usize = 512;

// Phase 0 (idle) is implicit: an idle store writes just the timestamp.
const PHASE_WAITING: u64 = 1;
const PHASE_HOLDING: u64 = 2;

/// A thread's current lock-protocol phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Outside the lock.
    Idle,
    /// Between acquire-entry and acquire-return.
    Waiting,
    /// Between acquire-return and release.
    Holding,
}

/// One slot: `state` packs `since_ns << 2 | phase`; `epoch` counts
/// completed critical sections (bumped on release). Consecutive tags
/// belong to different threads, so each slot gets its own line.
#[repr(align(128))]
#[derive(Debug)]
struct ProgressSlot {
    state: AtomicU64,
    epoch: AtomicU64,
}

const _: () = assert!(std::mem::size_of::<ProgressSlot>() == 128);

/// Fixed-slot table of per-thread progress state, indexed by
/// [`crate::thread_tag`].
#[derive(Debug)]
pub struct ProgressRegistry {
    slots: Box<[ProgressSlot]>,
}

impl ProgressRegistry {
    /// A registry with [`MAX_PROGRESS_SLOTS`] slots.
    pub fn new() -> Self {
        Self::with_slots(MAX_PROGRESS_SLOTS)
    }

    /// A registry with an explicit slot count (tests).
    pub fn with_slots(slots: usize) -> Self {
        ProgressRegistry {
            slots: (0..slots.max(1))
                .map(|_| ProgressSlot {
                    state: AtomicU64::new(0),
                    epoch: AtomicU64::new(0),
                })
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        }
    }

    #[inline]
    fn set(&self, thread: u32, now: u64, phase: u64) {
        if let Some(slot) = self.slots.get(thread as usize) {
            slot.state.store((now << 2) | phase, Ordering::Relaxed);
        }
    }

    /// Thread `thread` entered an acquire at `now` (one relaxed store).
    #[inline]
    pub fn wait_at(&self, thread: u32, now: u64) {
        self.set(thread, now, PHASE_WAITING);
    }

    /// Thread `thread` won the lock at `now` (one relaxed store).
    #[inline]
    pub fn hold_at(&self, thread: u32, now: u64) {
        self.set(thread, now, PHASE_HOLDING);
    }

    /// Thread `thread` released the lock (or gave up waiting) at `now`:
    /// phase goes idle and its progress epoch advances.
    #[inline]
    pub fn idle_at(&self, thread: u32, now: u64) {
        if let Some(slot) = self.slots.get(thread as usize) {
            bump(&slot.epoch, 1);
            slot.state.store(now << 2, Ordering::Relaxed);
        }
    }

    /// Every thread that has ever published (phase != idle-at-epoch-0),
    /// with its current phase, when it entered it, and its epoch.
    pub fn sample(&self) -> Vec<ThreadProgress> {
        let mut out = Vec::new();
        for (tag, slot) in self.slots.iter().enumerate() {
            let state = slot.state.load(Ordering::Relaxed);
            let epoch = slot.epoch.load(Ordering::Relaxed);
            if state == 0 && epoch == 0 {
                continue;
            }
            let phase = match state & 0x3 {
                PHASE_WAITING => Phase::Waiting,
                PHASE_HOLDING => Phase::Holding,
                _ => Phase::Idle,
            };
            out.push(ThreadProgress {
                thread: tag as u32,
                phase,
                since_ns: state >> 2,
                epoch,
            });
        }
        out
    }

    /// Zeroes every slot (between runs).
    pub fn reset(&self) {
        for slot in self.slots.iter() {
            slot.state.store(0, Ordering::Relaxed);
            slot.epoch.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for ProgressRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// One thread's progress state at sample time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadProgress {
    /// Thread tag ([`crate::thread_tag`]).
    pub thread: u32,
    /// Current phase.
    pub phase: Phase,
    /// When the phase was entered (ns, [`now_ns`] epoch).
    pub since_ns: u64,
    /// Completed critical sections.
    pub epoch: u64,
}

/// The process-global registry the lock hooks publish into.
pub fn global() -> &'static Arc<ProgressRegistry> {
    static REG: OnceLock<Arc<ProgressRegistry>> = OnceLock::new();
    REG.get_or_init(|| Arc::new(ProgressRegistry::new()))
}

/// Watchdog tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    /// A thread `Waiting` longer than this is reported as stalled.
    pub stall_ns: u64,
    /// Poll cadence of the background monitor thread.
    pub poll: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            // 100 ms: geologic time for a spinlock, short enough to
            // catch a livelock long before a CI timeout would.
            stall_ns: 100_000_000,
            poll: Duration::from_millis(50),
        }
    }
}

/// A stalled waiter, with enough context to start debugging.
#[derive(Debug, Clone)]
pub struct StallReport {
    /// The stalled thread's tag.
    pub thread: u32,
    /// How long it has been waiting (ns).
    pub waited_ns: u64,
    /// Its progress epoch (critical sections completed before stalling).
    pub epoch: u64,
    /// Threads currently `Holding`, with how long they have held (ns) —
    /// a long-held lock and a stalled waiter are different bugs.
    pub holders: Vec<(u32, u64)>,
    /// Total threads currently `Waiting`.
    pub waiting: usize,
    /// Caller-supplied diagnostic line (e.g. per-level queue hints and
    /// the pass-ring tail); empty if none was configured.
    pub context: String,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "STALL: thread {} waiting {:.1} ms (epoch {}); {} waiting total; holders: ",
            self.thread,
            self.waited_ns as f64 / 1e6,
            self.epoch,
            self.waiting,
        )?;
        if self.holders.is_empty() {
            write!(f, "none")?;
        } else {
            for (i, (t, held)) in self.holders.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "thread {t} ({:.1} ms)", *held as f64 / 1e6)?;
            }
        }
        if !self.context.is_empty() {
            write!(f, "; {}", self.context)?;
        }
        Ok(())
    }
}

type DiagFn = dyn Fn() -> String + Send + Sync;

/// Polls a [`ProgressRegistry`] for stalled waiters.
pub struct Watchdog {
    registry: Arc<ProgressRegistry>,
    config: WatchdogConfig,
    diag: Option<Box<DiagFn>>,
}

impl Watchdog {
    /// A watchdog over the [`global`] registry.
    pub fn new(config: WatchdogConfig) -> Self {
        Self::with_registry(Arc::clone(global()), config)
    }

    /// A watchdog over an explicit registry (tests, multiple locks).
    pub fn with_registry(registry: Arc<ProgressRegistry>, config: WatchdogConfig) -> Self {
        Watchdog {
            registry,
            config,
            diag: None,
        }
    }

    /// Attaches a diagnostic closure whose output lands in every
    /// [`StallReport::context`] — typically the lock's per-level queue
    /// hints and ring tail.
    pub fn with_diag(mut self, diag: impl Fn() -> String + Send + Sync + 'static) -> Self {
        self.diag = Some(Box::new(diag));
        self
    }

    /// One synchronous poll: every thread `Waiting` past the threshold,
    /// worst first.
    pub fn check(&self) -> Vec<StallReport> {
        let now = now_ns();
        let sample = self.registry.sample();
        let holders: Vec<(u32, u64)> = sample
            .iter()
            .filter(|p| p.phase == Phase::Holding)
            .map(|p| (p.thread, now.saturating_sub(p.since_ns)))
            .collect();
        let waiting = sample.iter().filter(|p| p.phase == Phase::Waiting).count();
        let mut out: Vec<StallReport> = sample
            .iter()
            .filter(|p| {
                p.phase == Phase::Waiting
                    && now.saturating_sub(p.since_ns) > self.config.stall_ns
            })
            .map(|p| StallReport {
                thread: p.thread,
                waited_ns: now.saturating_sub(p.since_ns),
                epoch: p.epoch,
                holders: holders.clone(),
                waiting,
                context: self.diag.as_ref().map_or_else(String::new, |d| d()),
            })
            .collect();
        out.sort_by_key(|r| std::cmp::Reverse(r.waited_ns));
        out
    }

    /// Spawns the background monitor. `on_stall` runs on the monitor
    /// thread for each *newly observed* stall (a waiter stuck across
    /// multiple polls is reported once per stall, not once per poll).
    /// The monitor stops when the returned guard is dropped.
    pub fn spawn(self, mut on_stall: impl FnMut(&StallReport) + Send + 'static) -> WatchdogGuard {
        let stop = Arc::new(AtomicBool::new(false));
        let stalls = Arc::new(AtomicU64::new(0));
        let handle = {
            let stop = Arc::clone(&stop);
            let stalls = Arc::clone(&stalls);
            std::thread::spawn(move || {
                // (thread, wait-phase entry time) pairs already reported.
                let mut seen: Vec<(u32, u64)> = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let now = now_ns();
                    for report in self.check() {
                        let key = (report.thread, now.saturating_sub(report.waited_ns));
                        // Entry times within one poll period of a seen
                        // stall are the same stall (ns jitter aside).
                        let poll_ns = self.config.poll.as_nanos() as u64;
                        if seen
                            .iter()
                            .any(|&(t, s)| t == key.0 && s.abs_diff(key.1) < poll_ns.max(1))
                        {
                            continue;
                        }
                        seen.push(key);
                        stalls.fetch_add(1, Ordering::Relaxed);
                        on_stall(&report);
                    }
                    std::thread::sleep(self.config.poll);
                }
            })
        };
        WatchdogGuard {
            stop,
            stalls,
            handle: Some(handle),
        }
    }
}

/// Keeps the background monitor alive; stops and joins it on drop.
pub struct WatchdogGuard {
    stop: Arc<AtomicBool>,
    stalls: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl WatchdogGuard {
    /// Distinct stalls reported so far.
    pub fn stalls(&self) -> u64 {
        self.stalls.load(Ordering::Relaxed)
    }

    /// Stops the monitor and returns the stall count.
    pub fn stop(mut self) -> u64 {
        self.shutdown();
        self.stalls()
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for WatchdogGuard {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that touch the global registry.
    static GLOBAL_REG_TESTS: Mutex<()> = Mutex::new(());

    fn tiny_config() -> WatchdogConfig {
        WatchdogConfig {
            stall_ns: 1, // everything counts as stalled
            poll: Duration::from_millis(1),
        }
    }

    #[test]
    fn waiting_thread_past_threshold_is_reported() {
        let reg = Arc::new(ProgressRegistry::with_slots(16));
        reg.wait_at(3, now_ns());
        reg.hold_at(7, now_ns());
        // Ensure measurable elapsed time on coarse clocks.
        std::thread::sleep(Duration::from_millis(2));
        let wd = Watchdog::with_registry(Arc::clone(&reg), tiny_config());
        let reports = wd.check();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.thread, 3);
        assert!(r.waited_ns > 0);
        assert_eq!(r.waiting, 1);
        assert_eq!(r.holders.len(), 1);
        assert_eq!(r.holders[0].0, 7);
        assert!(r.context.is_empty());
    }

    #[test]
    fn generous_threshold_reports_nothing() {
        let reg = Arc::new(ProgressRegistry::with_slots(16));
        reg.wait_at(3, now_ns());
        let wd = Watchdog::with_registry(
            reg,
            WatchdogConfig {
                stall_ns: u64::MAX,
                poll: Duration::from_millis(1),
            },
        );
        assert!(wd.check().is_empty());
    }

    #[test]
    fn progressing_thread_is_not_stalled() {
        let reg = Arc::new(ProgressRegistry::with_slots(16));
        reg.wait_at(2, now_ns());
        reg.hold_at(2, now_ns());
        reg.idle_at(2, now_ns());
        std::thread::sleep(Duration::from_millis(2));
        let wd = Watchdog::with_registry(Arc::clone(&reg), tiny_config());
        assert!(wd.check().is_empty());
        let sample = reg.sample();
        let p = sample.iter().find(|p| p.thread == 2).unwrap();
        assert_eq!(p.phase, Phase::Idle);
        assert_eq!(p.epoch, 1);
    }

    #[test]
    fn diag_context_lands_in_reports() {
        let reg = Arc::new(ProgressRegistry::with_slots(16));
        reg.wait_at(1, now_ns());
        std::thread::sleep(Duration::from_millis(2));
        let wd = Watchdog::with_registry(Arc::clone(&reg), tiny_config())
            .with_diag(|| "queue hints: L0=2".to_string());
        let reports = wd.check();
        assert_eq!(reports[0].context, "queue hints: L0=2");
        let line = reports[0].to_string();
        assert!(line.contains("STALL: thread 1"), "{line}");
        assert!(line.contains("queue hints"), "{line}");
    }

    #[test]
    fn out_of_range_tags_are_ignored() {
        let reg = ProgressRegistry::with_slots(4);
        reg.wait_at(1000, now_ns());
        reg.idle_at(1000, now_ns());
        assert!(reg.sample().is_empty());
    }

    #[test]
    fn background_monitor_flags_a_stall_once() {
        let reg = Arc::new(ProgressRegistry::with_slots(16));
        reg.wait_at(5, now_ns());
        std::thread::sleep(Duration::from_millis(2));
        let wd = Watchdog::with_registry(Arc::clone(&reg), tiny_config());
        let guard = wd.spawn(|_| {});
        std::thread::sleep(Duration::from_millis(30));
        let stalls = guard.stop();
        assert_eq!(stalls, 1, "one stall, many polls, one report");
    }

    #[test]
    fn lock_hooks_publish_to_the_global_registry() {
        let _g = GLOBAL_REG_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        global().reset();
        global().wait_at(0, now_ns());
        global().hold_at(0, now_ns());
        global().idle_at(0, now_ns());
        let sample = global().sample();
        let p = sample.iter().find(|p| p.thread == 0).unwrap();
        assert_eq!(p.epoch, 1);
        global().reset();
    }

    #[test]
    fn exited_threads_return_their_tags() {
        let _g = GLOBAL_REG_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        // Other tests of this binary hold a few tags of their own — far
        // fewer than the table, which is all the bound has to show.
        let spawned = 2 * MAX_PROGRESS_SLOTS;
        for i in 0..spawned {
            let (tag, seen) = std::thread::spawn(|| {
                let tag = crate::thread_tag();
                global().wait_at(tag, now_ns());
                let seen = global().sample().iter().any(|p| p.thread == tag);
                global().idle_at(tag, now_ns());
                (tag, seen)
            })
            .join()
            .unwrap();
            assert!(tag < 128, "thread {i} of {spawned} got tag {tag}");
            assert!(seen, "thread {i} (tag {tag}) is invisible to the watchdog");
        }
    }
}
