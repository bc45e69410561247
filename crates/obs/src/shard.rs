//! Per-handle telemetry shards: the single-writer data plane.
//!
//! Every lock handle owns one [`Shard`] — the counters and acquire-wait
//! histogram of each level on the handle's leaf→root path, the hold
//! histogram, the whole-acquire wait and a small pass-event ring — and
//! is its only writer. Every fact is therefore written once, with a
//! relaxed load + store, into a cache line no other thread writes;
//! nothing on the lock's hand-off path touches a line two handles share.
//!
//! Inside the critical section the handle only *stashes*: the timestamp
//! of each level it won and the release decision of each level it left
//! ([`Shard::enter`], [`Shard::level_won`], [`Shard::pass`], …). The
//! stash is folded into the counters, histograms and ring by
//! [`Shard::commit`], which the handle calls after the low lock is
//! released.
//!
//! A lock's shards are registered with its [`ShardSet`]: snapshots sum
//! the live shards plus the accumulator a dropped handle's shard is
//! folded into, and the contention profiler ([`crate::profile`]) derives
//! a site's wait/hold/traffic and per-node waits from the same sums
//! instead of keeping copies of its own.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::counters::bump;
use crate::profile::{self, NodeProfile};
use crate::registry::SiteAnchor;
use crate::{
    EventRing, HistSnapshot, LevelCounters, LevelSnapshot, LockSnapshot, LogHistogram, PassEvent,
    PassKind,
};

/// Pass events a lock keeps from handles that no longer exist.
const RETIRED_EVENTS: usize = 1024;

// Stash bits of one level: how the level was won, and what its release
// decided.
const INHERITED: u32 = 1;
const HINT: u32 = 2;
const PASS: u32 = 4;
const UP: u32 = 8;
const FORCED: u32 = 16;

/// A single-writer (sum, count) accumulator.
#[derive(Debug, Default)]
struct Pair {
    sum: AtomicU64,
    count: AtomicU64,
}

impl Pair {
    #[inline]
    fn add(&self, value: u64) {
        bump(&self.sum, value);
        bump(&self.count, 1);
    }

    fn get(&self) -> (u64, u64) {
        (
            self.sum.load(Ordering::Relaxed),
            self.count.load(Ordering::Relaxed),
        )
    }
}

/// One level of a handle's path: the stash of the acquire in flight,
/// and what earlier acquires committed.
#[repr(align(128))]
#[derive(Debug)]
struct LevelCell {
    /// Trace tag of the cohort node the path crosses at this level.
    node: u32,
    won_ns: AtomicU64,
    flags: AtomicU32,
    counters: LevelCounters,
    acquire_ns: LogHistogram,
}

/// One handle's recorder. Shared (`Arc`) only so snapshots can read it;
/// every method that records must be called by the owning handle alone.
#[repr(align(128))]
#[derive(Debug)]
pub struct Shard {
    entered_ns: AtomicU64,
    released_ns: AtomicU64,
    /// Levels won by the acquire in flight (a contiguous prefix of the
    /// path: the climb stops at the first inherited level).
    won: AtomicU32,
    wait: Pair,
    gate_wait: Pair,
    gate_hold: Pair,
    hold_ns: LogHistogram,
    ring: EventRing,
    levels: Box<[LevelCell]>,
}

// A shard and each of its level cells start on a line of their own.
const _: () = assert!(std::mem::align_of::<Shard>() == 128);
const _: () = assert!(std::mem::align_of::<LevelCell>() == 128);

impl Shard {
    fn new(path: &[u32]) -> Self {
        Shard {
            entered_ns: AtomicU64::new(0),
            released_ns: AtomicU64::new(0),
            won: AtomicU32::new(0),
            wait: Pair::default(),
            gate_wait: Pair::default(),
            gate_hold: Pair::default(),
            hold_ns: LogHistogram::new(),
            ring: EventRing::with_capacity(EventRing::DEFAULT_CAPACITY),
            levels: path
                .iter()
                .map(|&node| LevelCell {
                    node,
                    won_ns: AtomicU64::new(0),
                    flags: AtomicU32::new(0),
                    counters: LevelCounters::new(),
                    acquire_ns: LogHistogram::new(),
                })
                .collect(),
        }
    }

    /// The composed acquire starts at `now`.
    #[inline]
    pub fn enter(&self, now: u64) {
        self.entered_ns.store(now, Ordering::Relaxed);
        self.won.store(0, Ordering::Relaxed);
    }

    /// The next level of the path was won at `now`; returns when the
    /// wait for it started — where the level below ended.
    #[inline]
    pub fn level_won(&self, now: u64, inherited: bool) -> u64 {
        let start = self.acquired_ns();
        let level = self.won.load(Ordering::Relaxed);
        let cell = &self.levels[level as usize];
        cell.won_ns.store(now, Ordering::Relaxed);
        cell.flags.store(u32::from(inherited), Ordering::Relaxed);
        self.won.store(level + 1, Ordering::Relaxed);
        start
    }

    /// When the acquire in flight won its latest level (its entry, before
    /// the first): once acquired, the start of the hold.
    #[inline]
    pub fn acquired_ns(&self) -> u64 {
        match self.won.load(Ordering::Relaxed) as usize {
            0 => self.entered_ns.load(Ordering::Relaxed),
            n => self.levels[n - 1].won_ns.load(Ordering::Relaxed),
        }
    }

    /// The release starts at `now`: the end of the hold, and the stamp
    /// of the pass events its decisions produce.
    #[inline]
    pub fn releasing(&self, now: u64) {
        self.released_ns.store(now, Ordering::Relaxed);
    }

    /// The timestamp of the last [`releasing`](Self::releasing).
    #[inline]
    pub fn released_ns(&self) -> u64 {
        self.released_ns.load(Ordering::Relaxed)
    }

    #[inline]
    fn decide(&self, level: usize, bits: u32) {
        let flags = &self.levels[level].flags;
        flags.store(flags.load(Ordering::Relaxed) | bits, Ordering::Relaxed);
    }

    /// The release at `level` answered its waiter question from the low
    /// lock's native hint.
    #[inline]
    pub fn hint_hit(&self, level: usize) {
        self.decide(level, HINT);
    }

    /// The release at `level` passed the high lock within the cohort.
    #[inline]
    pub fn pass(&self, level: usize) {
        self.decide(level, PASS);
    }

    /// The release at `level` surrendered the high lock upward; `forced`
    /// when waiters existed but `keep_local` hit its threshold.
    #[inline]
    pub fn release_up(&self, level: usize, forced: bool) {
        self.decide(level, if forced { UP | FORCED } else { UP });
    }

    /// Counts the levels the acquire in flight won and their waits;
    /// returns when the last one was won.
    fn commit_levels(&self) -> u64 {
        let mut start = self.entered_ns.load(Ordering::Relaxed);
        let won = self.won.load(Ordering::Relaxed) as usize;
        for cell in &self.levels[..won] {
            let end = cell.won_ns.load(Ordering::Relaxed);
            cell.counters
                .record_acquire(cell.flags.load(Ordering::Relaxed) & INHERITED != 0);
            cell.acquire_ns.record_owned(end.saturating_sub(start));
            start = end;
        }
        self.won.store(0, Ordering::Relaxed);
        start
    }

    /// Folds the stash of one acquire→release into the counters,
    /// histograms and ring. Call after the low lock is released;
    /// `thread` tags the ring events.
    pub fn commit(&self, thread: u32) {
        let released_ns = self.released_ns();
        let entered = self.entered_ns.load(Ordering::Relaxed);
        let acquired = self.commit_levels();
        self.wait.add(acquired.saturating_sub(entered));
        self.hold_ns
            .record_owned(released_ns.saturating_sub(acquired));
        for (level, cell) in self.levels.iter().enumerate() {
            let flags = cell.flags.load(Ordering::Relaxed);
            if flags & (PASS | UP) == 0 {
                break;
            }
            cell.flags.store(0, Ordering::Relaxed);
            if flags & HINT != 0 {
                cell.counters.record_hint_hit();
            }
            if flags & PASS != 0 {
                cell.counters.record_pass_taken();
                self.ring
                    .record(released_ns, level as u8, PassKind::Pass, thread);
                break;
            }
            cell.counters.record_pass_declined(flags & FORCED != 0);
            self.ring
                .record(released_ns, level as u8, PassKind::ReleaseUp, thread);
        }
    }

    /// The acquire in flight gave up (deadline): the levels it won and
    /// then unwound were still acquired once each; nothing was held.
    pub fn abandon(&self) {
        self.commit_levels();
    }

    /// A fast-path gate win in front of this handle's composition
    /// (`FastClof`): attributed to the lock's profiler site only — the
    /// composition's own counters and histograms describe the slow path.
    #[inline]
    pub fn gate_won(&self, wait_ns: u64) {
        self.gate_wait.add(wait_ns);
    }

    /// The hold that followed a [`gate_won`](Self::gate_won).
    #[inline]
    pub fn gate_held(&self, hold_ns: u64) {
        self.gate_hold.add(hold_ns);
    }
}

/// Plain-data sums over shards.
#[derive(Debug, Clone, Default)]
pub(crate) struct Totals {
    pub(crate) levels: Vec<LevelSnapshot>,
    pub(crate) hold_ns: HistSnapshot,
    /// Whole-acquire wait (sum, count) through the composition.
    pub(crate) wait: (u64, u64),
    pub(crate) gate_wait: (u64, u64),
    pub(crate) gate_hold: (u64, u64),
    /// Sorted by (level, node).
    pub(crate) nodes: Vec<NodeProfile>,
}

fn add_pair(into: &mut (u64, u64), from: (u64, u64)) {
    into.0 += from.0;
    into.1 += from.1;
}

impl Totals {
    fn absorb(&mut self, shard: &Shard) {
        for (level, cell) in shard.levels.iter().enumerate() {
            let mut snap = cell.counters.snapshot(level);
            snap.acquire_ns = cell.acquire_ns.snapshot();
            let key = (level as u8, cell.node);
            if let Ok(i) = self.nodes.binary_search_by_key(&key, |n| (n.level, n.node)) {
                self.nodes[i].wait_ns += snap.acquire_ns.sum;
                self.nodes[i].waits += snap.acquire_ns.count;
            }
            self.levels[level].merge(&snap);
        }
        self.hold_ns.merge(&shard.hold_ns.snapshot());
        add_pair(&mut self.wait, shard.wait.get());
        add_pair(&mut self.gate_wait, shard.gate_wait.get());
        add_pair(&mut self.gate_hold, shard.gate_hold.get());
    }
}

#[derive(Debug)]
struct SetInner {
    live: Vec<Arc<Shard>>,
    /// What the shards of dropped handles recorded.
    retired: Totals,
    retired_events: Vec<PassEvent>,
    retired_recorded: u64,
}

impl SetInner {
    /// Sums over live and retired shards (exact at quiescence).
    fn totals(&self) -> Totals {
        let mut totals = self.retired.clone();
        for shard in &self.live {
            totals.absorb(shard);
        }
        totals
    }
}

/// The shards of one lock: registered at handle creation, folded into a
/// retired accumulator at handle drop, summed by snapshots.
#[derive(Debug)]
pub struct ShardSet {
    site: Arc<SiteAnchor>,
    inner: Mutex<SetInner>,
}

impl ShardSet {
    /// The shard registry of a lock with profiler site `site` whose tree
    /// has the given `(level, node tag)` nodes (every level of the
    /// composition appears at least once); registers itself with the
    /// site.
    pub fn new(site: Arc<SiteAnchor>, nodes: impl Iterator<Item = (u8, u32)>) -> Arc<Self> {
        let mut nodes: Vec<NodeProfile> = nodes
            .map(|(level, node)| NodeProfile {
                level,
                node,
                wait_ns: 0,
                waits: 0,
            })
            .collect();
        nodes.sort_by_key(|n| (n.level, n.node));
        let depth = nodes.last().map_or(0, |n| n.level as usize + 1);
        let set = Arc::new(ShardSet {
            site,
            inner: Mutex::new(SetInner {
                live: Vec::new(),
                retired: Totals {
                    levels: (0..depth)
                        .map(|level| LevelSnapshot {
                            level,
                            ..Default::default()
                        })
                        .collect(),
                    nodes,
                    ..Default::default()
                },
                retired_events: Vec::new(),
                retired_recorded: 0,
            }),
        });
        set.attach();
        set
    }

    /// The lock's profiler site.
    #[inline]
    pub fn site(&self) -> &Arc<SiteAnchor> {
        &self.site
    }

    /// (Re-)registers this set with the site its anchor currently names
    /// — the adaptation rebind path: when a lock adopts another's site,
    /// what its handles record follows it onto the adopted id.
    pub fn attach(self: &Arc<Self>) {
        profile::global().attach(self.site.id(), self);
    }

    fn inner(&self) -> std::sync::MutexGuard<'_, SetInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// A new handle's shard; `path` is the node tags of the handle's
    /// leaf→root path.
    pub fn shard(&self, path: &[u32]) -> Arc<Shard> {
        let shard = Arc::new(Shard::new(path));
        self.inner().live.push(Arc::clone(&shard));
        shard
    }

    /// The handle owning `shard` is gone: fold what it recorded into the
    /// retired accumulator, keeping the latest [`RETIRED_EVENTS`] of the
    /// lock's retired pass events.
    pub fn retire(&self, shard: &Arc<Shard>) {
        let mut inner = self.inner();
        let inner = &mut *inner;
        inner.live.retain(|s| !Arc::ptr_eq(s, shard));
        inner.retired.absorb(shard);
        inner.retired_recorded += shard.ring.recorded();
        inner.retired_events.extend(shard.ring.events());
        if inner.retired_events.len() > RETIRED_EVENTS {
            inner.retired_events.sort_by_key(|e| e.timestamp_ns);
            let excess = inner.retired_events.len() - RETIRED_EVENTS;
            inner.retired_events.drain(..excess);
        }
    }

    /// Sums over live and retired shards (exact at quiescence).
    pub(crate) fn totals(&self) -> Totals {
        self.inner().totals()
    }

    /// The lock's full telemetry snapshot under `name`.
    pub fn lock_snapshot(&self, name: &str) -> LockSnapshot {
        let inner = self.inner();
        let totals = inner.totals();
        let mut events = inner.retired_events.clone();
        let mut events_recorded = inner.retired_recorded;
        for shard in &inner.live {
            events.extend(shard.ring.events());
            events_recorded += shard.ring.recorded();
        }
        events.sort_by_key(|e| e.timestamp_ns);
        LockSnapshot {
            name: name.to_string(),
            levels: totals.levels,
            hold_ns: totals.hold_ns,
            events_recorded,
            events_dropped: events_recorded.saturating_sub(events.len() as u64),
            events,
        }
    }
}

impl Drop for ShardSet {
    /// The lock is gone but its site may live on (an adaptation swap
    /// rebinds the next tree onto it): leave the sums with the site.
    fn drop(&mut self) {
        let inner = self.inner.get_mut().unwrap_or_else(|p| p.into_inner());
        profile::global().retire(self.site.id(), &inner.totals());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    fn set_3level(label: &str) -> Arc<ShardSet> {
        let site = Arc::new(registry::global().register(label, "x"));
        // Two leaves (10, 11) under one mid (20) under the root (30).
        ShardSet::new(site, [(0, 10), (0, 11), (1, 20), (2, 30)].into_iter())
    }

    /// One acquire through `shard`: `climb` levels won from `t`, 10 ns
    /// apiece, the last one inherited unless it is the root; then a
    /// 100 ns hold and a release that passes at level 0 iff `pass`.
    fn cycle(shard: &Shard, t: u64, climb: usize, pass: bool) {
        shard.enter(t);
        for k in 0..climb {
            let inherited = k + 1 == climb && climb < 3;
            assert_eq!(
                shard.level_won(t + 10 * (k as u64 + 1), inherited),
                t + 10 * k as u64
            );
        }
        let acquired = shard.acquired_ns();
        assert_eq!(acquired, t + 10 * climb as u64);
        shard.hint_hit(0);
        if pass {
            shard.pass(0);
        } else {
            shard.release_up(0, true);
            shard.release_up(1, false);
        }
        shard.releasing(acquired + 100);
        shard.commit(7);
    }

    #[test]
    fn a_committed_cycle_lands_in_every_view_once() {
        let set = set_3level("shard-cycle");
        let shard = set.shard(&[10, 20, 30]);
        cycle(&shard, 1000, 3, false); // full climb, releases all the way up
        cycle(&shard, 2000, 1, true); // inherits at the leaf, passes on
        let snap = set.lock_snapshot("l");
        assert_eq!(snap.name, "l");
        let l0 = &snap.levels[0];
        assert_eq!((l0.acquires, l0.contended_acquires), (2, 1));
        assert_eq!((l0.passes_taken, l0.passes_declined), (1, 1));
        assert_eq!((l0.keep_local_resets, l0.hint_fast_hits), (1, 2));
        assert_eq!((l0.acquire_ns.count, l0.acquire_ns.sum), (2, 20));
        let l1 = &snap.levels[1];
        assert_eq!(
            (l1.acquires, l1.passes_declined, l1.keep_local_resets),
            (1, 1, 0)
        );
        assert_eq!(
            (snap.levels[2].acquires, snap.levels[2].passes_declined),
            (1, 0)
        );
        assert_eq!((snap.hold_ns.count, snap.hold_ns.sum), (2, 200));
        // Ring: two release-ups of the first cycle, one pass of the second.
        assert_eq!(snap.events_recorded, 3);
        assert_eq!(snap.events_dropped, 0);
        let kinds: Vec<_> = snap
            .events
            .iter()
            .map(|e| (e.timestamp_ns, e.level, e.kind))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (1130, 0, PassKind::ReleaseUp),
                (1130, 1, PassKind::ReleaseUp),
                (2110, 0, PassKind::Pass)
            ]
        );
        assert!(snap.events.iter().all(|e| e.thread == 7));

        let totals = set.totals();
        assert_eq!(totals.wait, (40, 2), "whole-acquire waits: 30 + 10");
        let waits: Vec<_> = totals
            .nodes
            .iter()
            .map(|n| (n.node, n.wait_ns, n.waits))
            .collect();
        assert_eq!(
            waits,
            vec![(10, 20, 2), (11, 0, 0), (20, 10, 1), (30, 10, 1)]
        );
    }

    #[test]
    fn retiring_a_shard_keeps_what_it_recorded() {
        let set = set_3level("shard-retire");
        let a = set.shard(&[10, 20, 30]);
        let b = set.shard(&[11, 20, 30]);
        cycle(&a, 1000, 3, false);
        cycle(&b, 2000, 3, false);
        let before = set.lock_snapshot("l");
        set.retire(&a);
        drop(a);
        assert_eq!(
            set.lock_snapshot("l"),
            before,
            "retiring moves sums, it does not change them"
        );
        set.retire(&b);
        assert_eq!(set.lock_snapshot("l"), before);
        assert_eq!(before.levels[0].acquires, 2);
        assert_eq!(before.events_recorded, 4);
    }

    #[test]
    fn retired_events_are_bounded_and_accounted() {
        let set = set_3level("shard-events");
        let rounds = (RETIRED_EVENTS / EventRing::DEFAULT_CAPACITY + 2) as u64;
        let per_shard = 2 * EventRing::DEFAULT_CAPACITY as u64;
        for r in 0..rounds {
            let shard = set.shard(&[10, 20, 30]);
            for i in 0..per_shard {
                cycle(&shard, (r * per_shard + i) * 1000, 1, true);
            }
            set.retire(&shard);
        }
        let snap = set.lock_snapshot("l");
        assert_eq!(snap.events_recorded, rounds * per_shard);
        assert_eq!(snap.events.len(), RETIRED_EVENTS);
        assert_eq!(
            snap.events_dropped,
            snap.events_recorded - snap.events.len() as u64
        );
        assert!(snap
            .events
            .windows(2)
            .all(|w| w[0].timestamp_ns <= w[1].timestamp_ns));
        // The newest events survive.
        assert_eq!(
            snap.events.last().unwrap().timestamp_ns,
            (rounds * per_shard - 1) * 1000 + 110
        );
    }

    #[test]
    fn an_abandoned_acquire_counts_its_levels_and_nothing_else() {
        let set = set_3level("shard-abandon");
        let shard = set.shard(&[10, 20, 30]);
        shard.enter(500);
        shard.level_won(510, false);
        shard.level_won(530, false);
        shard.abandon(); // timed out at the root; levels 0 and 1 unwound
        let snap = set.lock_snapshot("l");
        assert_eq!(snap.levels[0].acquires, 1);
        assert_eq!(
            (snap.levels[1].acquires, snap.levels[1].acquire_ns.sum),
            (1, 20)
        );
        assert_eq!(snap.levels[2].acquires, 0);
        assert_eq!(snap.hold_ns.count, 0);
        assert_eq!(set.totals().wait, (0, 0));
        // The handle is reusable: the next acquire starts a fresh stash.
        cycle(&shard, 1000, 1, true);
        assert_eq!(set.lock_snapshot("l").levels[0].acquires, 2);
    }
}
