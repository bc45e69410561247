//! Per-handle telemetry shards: the single-writer data plane.
//!
//! Every lock handle owns one [`Shard`] — the acquire-wait histogram
//! and inherited wins of each level on the handle's leaf→root path, the
//! hold histogram and the whole-acquire wait — and is its only writer. Every fact is therefore written once, with a
//! relaxed load + store, into a cache line no other thread writes;
//! nothing on the lock's hand-off path touches a line two handles share.
//! The release decisions are not a shard's: the lock's level step counts
//! each once, on the deciding level's owner line, and a [`ShardSet`]
//! reads them there through the [`Counts`] reader the lock hands it;
//! the tracer ([`crate::trace`]) is the record of individual decisions.
//!
//! Inside the critical section the handle only *stashes*: the timestamp
//! of each level it won and whether it inherited it ([`Shard::enter`],
//! [`Shard::level_won`], …). The stash is folded into the histograms
//! and the inherited wins by [`Shard::commit`], which the handle calls
//! after the low lock is released.
//!
//! A lock's shards are registered with its [`ShardSet`]: snapshots sum
//! the live shards plus the accumulator a dropped handle's shard is
//! folded into, and the contention profiler ([`crate::profile`]) derives
//! a site's wait/hold/traffic and per-node waits from the same sums
//! instead of keeping copies of its own.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::bump;
use crate::profile::{self, NodeProfile};
use crate::registry::SiteAnchor;
use crate::{HistSnapshot, LevelSnapshot, LockSnapshot, LogHistogram};

/// Reads a lock's decision counts from where the lock keeps them into
/// the levels of a snapshot (innermost first): `acquires`,
/// `passes_taken`, `passes_declined`, `keep_local_resets` and
/// `hint_fast_hits`. The shards supply the other fields.
pub type Counts = Box<dyn Fn(&mut [LevelSnapshot]) + Send + Sync>;

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
    /// Whether the acquire in flight inherited this level.
    inherited_won: AtomicBool,
    /// Wins that found the high lock passed to the cohort.
    inherited: AtomicU64,
    /// The wait of every win; its sample count is the level's wins.
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
            levels: path
                .iter()
                .map(|&node| LevelCell {
                    node,
                    won_ns: AtomicU64::new(0),
                    inherited_won: AtomicBool::new(false),
                    inherited: AtomicU64::new(0),
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
        cell.inherited_won.store(inherited, Ordering::Relaxed);
        self.won.store(level + 1, Ordering::Relaxed);
        start
    }

    /// The next level of the path was won without a clock read of its
    /// own: at `handoff`, the stamp its low lock's last releaser left,
    /// clamped to no earlier than where the wait for it started. A stamp
    /// older than that start means the lock was free all along, so the
    /// wait is 0. Returns `(start, won)`.
    #[inline]
    pub fn level_won_stamped(&self, handoff: u64, inherited: bool) -> (u64, u64) {
        let won = handoff.max(self.acquired_ns());
        (self.level_won(won, inherited), won)
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
    /// of the hand-off its decisions produce.
    #[inline]
    pub fn releasing(&self, now: u64) {
        self.released_ns.store(now, Ordering::Relaxed);
    }

    /// The timestamp of the last [`releasing`](Self::releasing).
    #[inline]
    pub fn released_ns(&self) -> u64 {
        self.released_ns.load(Ordering::Relaxed)
    }

    /// Records the levels the acquire in flight won — their waits and
    /// which were inherited; returns when the last one was won.
    fn commit_levels(&self) -> u64 {
        let mut start = self.entered_ns.load(Ordering::Relaxed);
        let won = self.won.load(Ordering::Relaxed) as usize;
        for cell in &self.levels[..won] {
            let end = cell.won_ns.load(Ordering::Relaxed);
            if cell.inherited_won.load(Ordering::Relaxed) {
                bump(&cell.inherited, 1);
            }
            cell.acquire_ns.record_owned(end.saturating_sub(start));
            start = end;
        }
        self.won.store(0, Ordering::Relaxed);
        start
    }

    /// Folds the stash of one acquire→release into the histograms and
    /// the inherited wins. Call after the low lock is released.
    pub fn commit(&self) {
        let entered = self.entered_ns.load(Ordering::Relaxed);
        let acquired = self.commit_levels();
        self.wait.add(acquired.saturating_sub(entered));
        self.hold_ns
            .record_owned(self.released_ns().saturating_sub(acquired));
    }

    /// The acquire in flight gave up (deadline): the levels it won and
    /// then unwound were still won once each; nothing was held.
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

/// Plain-data sums over shards, with the lock's decision counts.
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
            let waits = cell.acquire_ns.snapshot();
            let key = (level as u8, cell.node);
            if let Ok(i) = self.nodes.binary_search_by_key(&key, |n| (n.level, n.node)) {
                self.nodes[i].wait_ns += waits.sum;
                self.nodes[i].waits += waits.count;
            }
            let at = &mut self.levels[level];
            at.contended_acquires += cell.inherited.load(Ordering::Relaxed);
            at.acquire_ns.merge(&waits);
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
    /// What the shards of dropped handles recorded (decision counts
    /// aside: the lock keeps those whole).
    retired: Totals,
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
/// retired accumulator at handle drop, summed by snapshots together with
/// the lock's decision counts.
pub struct ShardSet {
    site: Arc<SiteAnchor>,
    counts: Counts,
    inner: Mutex<SetInner>,
}

impl std::fmt::Debug for ShardSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSet")
            .field("site", &self.site)
            .finish_non_exhaustive()
    }
}

impl ShardSet {
    /// The shard registry of a lock with profiler site `site` whose tree
    /// has the given `(level, node tag)` nodes (every level of the
    /// composition appears at least once), and whose decision counts
    /// `counts` reads; registers itself with the site.
    pub fn new(
        site: Arc<SiteAnchor>,
        nodes: impl Iterator<Item = (u8, u32)>,
        counts: Counts,
    ) -> Arc<Self> {
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
            counts,
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
    /// retired accumulator.
    pub fn retire(&self, shard: &Arc<Shard>) {
        let mut inner = self.inner();
        inner.live.retain(|s| !Arc::ptr_eq(s, shard));
        inner.retired.absorb(shard);
    }

    /// Sums over live and retired shards, with the decision counts as
    /// the lock reads them now (exact at quiescence).
    pub(crate) fn totals(&self) -> Totals {
        let mut totals = self.inner().totals();
        (self.counts)(&mut totals.levels);
        totals
    }

    /// The lock's full telemetry snapshot under `name`.
    pub fn lock_snapshot(&self, name: &str) -> LockSnapshot {
        let totals = self.totals();
        LockSnapshot {
            name: name.to_string(),
            levels: totals.levels,
            hold_ns: totals.hold_ns,
        }
    }
}

impl Drop for ShardSet {
    /// The lock is gone but its site may live on (an adaptation swap
    /// rebinds the next tree onto it): leave the sums with the site.
    fn drop(&mut self) {
        let inner = self.inner.get_mut().unwrap_or_else(|p| p.into_inner());
        let mut totals = inner.totals();
        (self.counts)(&mut totals.levels);
        profile::global().retire(self.site.id(), &totals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    /// The decision counts of a test lock, per level: acquires, passes,
    /// releases up and forced ones (all decisions hint hits).
    const COUNTS: [(u64, u64, u64, u64); 3] = [(5, 2, 3, 1), (3, 0, 3, 0), (3, 0, 0, 0)];

    fn counts(levels: &mut [LevelSnapshot]) {
        for (at, &(acquires, passes, ups, forced)) in levels.iter_mut().zip(&COUNTS) {
            at.acquires = acquires;
            at.passes_taken = passes;
            at.passes_declined = ups;
            at.keep_local_resets = forced;
            at.hint_fast_hits = passes + ups;
        }
    }

    fn set_3level(label: &str) -> Arc<ShardSet> {
        let site = Arc::new(registry::global().register(label, "x"));
        // Two leaves (10, 11) under one mid (20) under the root (30).
        let nodes = [(0, 10), (0, 11), (1, 20), (2, 30)].into_iter();
        ShardSet::new(site, nodes, Box::new(counts))
    }

    /// One acquire through `shard`: `climb` levels won from `t`, 10 ns
    /// apiece, the last one inherited unless it is the root; then a
    /// 100 ns hold.
    fn cycle(shard: &Shard, t: u64, climb: usize) {
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
        shard.releasing(acquired + 100);
        shard.commit();
    }

    #[test]
    fn a_committed_cycle_lands_in_every_view_once() {
        let _g = crate::test_lock();
        let set = set_3level("shard-cycle");
        let shard = set.shard(&[10, 20, 30]);
        cycle(&shard, 1000, 3); // full climb
        cycle(&shard, 2000, 1); // inherits at the leaf
        let snap = set.lock_snapshot("l");
        assert_eq!(snap.name, "l");
        // The shards give each level's waits and inherited wins ...
        let waits: Vec<_> = snap
            .levels
            .iter()
            .map(|l| (l.acquire_ns.count, l.acquire_ns.sum, l.contended_acquires))
            .collect();
        assert_eq!(waits, vec![(2, 20, 1), (1, 10, 0), (1, 10, 0)]);
        // ... and the lock's reader every decision count.
        for (level, &(acquires, passes, ups, forced)) in snap.levels.iter().zip(&COUNTS) {
            let decided = (level.acquires, level.passes_taken, level.passes_declined);
            assert_eq!(decided, (acquires, passes, ups));
            let hints = (level.keep_local_resets, level.hint_fast_hits);
            assert_eq!(hints, (forced, passes + ups));
        }
        assert_eq!((snap.hold_ns.count, snap.hold_ns.sum), (2, 200));

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
        let _g = crate::test_lock();
        let set = set_3level("shard-retire");
        let a = set.shard(&[10, 20, 30]);
        let b = set.shard(&[11, 20, 30]);
        cycle(&a, 1000, 3);
        cycle(&b, 2000, 3);
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
        assert_eq!(before.levels[0].acquire_ns.count, 2);
    }

    #[test]
    fn a_hand_off_stamp_is_clamped_to_the_wait_start() {
        let _g = crate::test_lock();
        let set = set_3level("shard-clamp");
        let shard = set.shard(&[10, 20, 30]);
        // Passed at 900, before this acquire began at 1000: the lock was
        // free all along, so no wait, and the hold starts at entry.
        shard.enter(1000);
        assert_eq!(shard.level_won_stamped(900, true), (1000, 1000));
        assert_eq!(shard.acquired_ns(), 1000);
        shard.releasing(1100);
        shard.commit();
        let snap = set.lock_snapshot("l");
        assert_eq!(set.totals().wait, (0, 1));
        assert_eq!(snap.levels[0].acquire_ns.sum, 0);
        assert_eq!((snap.hold_ns.count, snap.hold_ns.sum), (1, 100));
        // Passed at 2050, after this acquire began at 2000: the wait ends
        // and the hold starts at the releaser's stamp.
        shard.enter(2000);
        assert_eq!(shard.level_won_stamped(2050, true), (2000, 2050));
        shard.releasing(2150);
        shard.commit();
        assert_eq!(set.totals().wait, (50, 2));
        assert_eq!(set.lock_snapshot("l").hold_ns.sum, 200);
    }

    #[test]
    fn an_abandoned_acquire_counts_its_levels_and_nothing_else() {
        let _g = crate::test_lock();
        let set = set_3level("shard-abandon");
        let shard = set.shard(&[10, 20, 30]);
        shard.enter(500);
        shard.level_won(510, false);
        shard.level_won(530, false);
        shard.abandon(); // timed out at the root; levels 0 and 1 unwound
        let snap = set.lock_snapshot("l");
        let waits: Vec<_> = snap
            .levels
            .iter()
            .map(|l| (l.acquire_ns.count, l.acquire_ns.sum))
            .collect();
        assert_eq!(waits, vec![(1, 10), (1, 20), (0, 0)]);
        assert_eq!(snap.hold_ns.count, 0);
        assert_eq!(set.totals().wait, (0, 0));
        // The handle is reusable: the next acquire starts a fresh stash.
        cycle(&shard, 1000, 1);
        let l0 = &set.lock_snapshot("l").levels[0];
        assert_eq!((l0.acquire_ns.count, l0.contended_acquires), (2, 1));
    }
}
