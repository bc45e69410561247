//! Per-site wait/hold attribution: the contention profiler's view.
//!
//! Every registered lock site ([`crate::registry`]) owns one slot here.
//! The slot holds no wait/hold/traffic counters of its own: a lock's
//! handles record into their private [`crate::Shard`]s, the lock's
//! [`ShardSet`] is attached to the slot, and a snapshot *computes*
//!
//! * **wait** — Σ whole-acquire wait of the site's shards, and per
//!   (level, node) the acquire-wait histogram (sum, count) of the shards
//!   whose path crosses the node, so a hot site can be broken down into
//!   "which node of which level absorbs the waiting";
//! * **hold** — Σ hold histogram (sum, count);
//! * **traffic** — Σ level-0 acquires and Σ passes taken. The pass sum
//!   doubles as the waits-for graph's inversion clock: a waiter that an
//!   observer watches it advance past the `keep_local` bound *H* without
//!   getting the lock is being starved behind local hand-offs
//!   ([`crate::waitgraph`]).
//!
//! What a dropped lock tree recorded is folded into the slot, so a site
//! that outlives its trees (adaptation swaps) keeps monotone sums.
//! Only **park** time is written here directly (a striped cell, off the
//! lock's hand-off path). [`ProfileSnapshot::delta`] pairs snapshots by
//! (site id, slot epoch), so windowed `clof profile` / `clof top` deltas
//! are exact even while slots are reused between windows.
//!
//! Exporters: [`render_folded`] emits `site;L<level>;n<node> <wait_ns>`
//! folded stacks for standard flamegraph tooling; [`render_profile_json`]
//! is the `/profile` endpoint body.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, Weak};

use crate::export::json_escape;
use crate::registry::{self, INVALID_SITE, MAX_SITES};
use crate::shard::{ShardSet, Totals};
use crate::waitgraph::GraphFinding;
use crate::{now_ns, thread_tag};

/// Marker literal proving profiler code is linked in: rendered into the
/// `/profile` body and the `clof profile` header, grepped for (absence)
/// in the default binary by CI.
pub const PROFILE_MARKER: &str = "clof-profile-v1";

/// Stripes of the park accumulator (power of two; threads hash by
/// [`thread_tag`] so concurrent recorders rarely share a line).
pub const PROFILE_STRIPES: usize = 8;

/// One cache line holding a pair of counters.
#[repr(align(128))]
#[derive(Debug, Default)]
struct StripeCell {
    a: AtomicU64,
    b: AtomicU64,
}

/// A pair of striped monotone counters (sum-style `a`, count-style `b`).
#[derive(Debug, Default)]
struct Striped {
    cells: [StripeCell; PROFILE_STRIPES],
}

impl Striped {
    #[inline]
    fn add(&self, a: u64, b: u64) {
        let cell = &self.cells[thread_tag() as usize & (PROFILE_STRIPES - 1)];
        cell.a.fetch_add(a, Ordering::Relaxed);
        cell.b.fetch_add(b, Ordering::Relaxed);
    }

    fn sum(&self) -> (u64, u64) {
        self.cells.iter().fold((0, 0), |(a, b), c| {
            (
                a.wrapping_add(c.a.load(Ordering::Relaxed)),
                b.wrapping_add(c.b.load(Ordering::Relaxed)),
            )
        })
    }

    fn reset(&self) {
        for c in &self.cells {
            c.a.store(0, Ordering::Relaxed);
            c.b.store(0, Ordering::Relaxed);
        }
    }
}

/// A site's wait/hold/traffic sums.
#[derive(Debug, Clone, Copy, Default)]
struct SiteSums {
    wait_ns: u64,
    waits: u64,
    hold_ns: u64,
    holds: u64,
    acquires: u64,
    passes: u64,
}

impl SiteSums {
    /// Adds one lock's shard totals: fast-path gate wins count as
    /// acquires with their own wait and hold.
    fn add(&mut self, t: &Totals) {
        self.wait_ns += t.wait.0 + t.gate_wait.0;
        self.waits += t.wait.1 + t.gate_wait.1;
        self.hold_ns += t.hold_ns.sum + t.gate_hold.0;
        self.holds += t.hold_ns.count + t.gate_hold.1;
        self.acquires += t.levels.first().map_or(0, |l| l.acquires) + t.gate_wait.1;
        self.passes += t.levels.iter().map(|l| l.passes_taken).sum::<u64>();
    }
}

#[derive(Debug, Default)]
struct SiteState {
    /// Sums left behind by lock trees that no longer exist.
    retired: SiteSums,
    /// Shard sets of the live trees on this site (dead `Weak`s pruned
    /// on snapshot).
    sets: Vec<Weak<ShardSet>>,
}

/// One site's slot.
#[derive(Debug, Default)]
struct SiteCell {
    /// Mirrors the registry slot's claim epoch; snapshots pair on it.
    epoch: AtomicU64,
    /// (park_ns, parks) — time waiters of this site spent blocked in
    /// the spin-then-park waiting layer, and completed park episodes.
    /// Zero unless the `park` feature is compiled into the lock crates.
    park: Striped,
    state: Mutex<SiteState>,
}

impl SiteCell {
    fn state(&self) -> MutexGuard<'_, SiteState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The site's sums and the totals of each live tree on it.
    fn view(&self) -> (SiteSums, Vec<Totals>) {
        // The sets are summed (and the upgraded `Arc`s dropped) outside
        // the cell lock: dropping the last reference to a set folds it
        // back in here.
        let (mut sums, sets) = {
            let mut state = self.state();
            state.sets.retain(|w| w.strong_count() > 0);
            let sets: Vec<Arc<ShardSet>> = state.sets.iter().filter_map(Weak::upgrade).collect();
            (state.retired, sets)
        };
        let totals: Vec<Totals> = sets.iter().map(|set| set.totals()).collect();
        for t in &totals {
            sums.add(t);
        }
        (sums, totals)
    }
}

/// The profiler's fixed site-indexed table.
#[derive(Debug)]
pub struct ContentionProfile {
    sites: Box<[SiteCell]>,
}

impl ContentionProfile {
    fn new() -> Self {
        ContentionProfile {
            sites: (0..MAX_SITES)
                .map(|_| SiteCell::default())
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        }
    }

    #[inline]
    fn cell(&self, id: u32) -> Option<&SiteCell> {
        if id == INVALID_SITE {
            return None;
        }
        self.sites.get(id as usize)
    }

    /// Clears a site's slot for a fresh registration (called by the
    /// registry when a slot is claimed).
    pub fn reset_site(&self, id: u32, epoch: u64) {
        if let Some(cell) = self.cell(id) {
            cell.park.reset();
            *cell.state() = SiteState::default();
            cell.epoch.store(epoch, Ordering::Release);
        }
    }

    /// Records one completed park episode of `ns` nanoseconds by a
    /// waiter of this site (the site is carried in a thread-local on the
    /// waiter side; the park/wake layer itself is site-oblivious).
    #[inline]
    pub fn record_park(&self, id: u32, ns: u64) {
        if let Some(cell) = self.cell(id) {
            cell.park.add(ns, 1);
        }
    }

    /// Attaches a lock's shard set to site `id`: from now on the site's
    /// sums include what the lock's handles record.
    pub(crate) fn attach(&self, id: u32, set: &Arc<ShardSet>) {
        if let Some(cell) = self.cell(id) {
            cell.state().sets.push(Arc::downgrade(set));
        }
    }

    /// Keeps the sums of a lock tree that is being dropped with its site.
    pub(crate) fn retire(&self, id: u32, totals: &Totals) {
        if let Some(cell) = self.cell(id) {
            cell.state().retired.add(totals);
        }
    }

    /// Intra-level passes taken at a site so far (the inversion clock).
    pub fn passes(&self, id: u32) -> u64 {
        self.cell(id).map_or(0, |c| c.view().0.passes)
    }

    /// Advances a site's pass clock by `n` without any lock passing —
    /// how tests and `clof profile --inject-inversion` stage a starved
    /// waiter.
    pub fn inject_passes(&self, id: u32, n: u64) {
        if let Some(cell) = self.cell(id) {
            cell.state().retired.passes += n;
        }
    }

    /// A point-in-time copy of every live site's sums, joined with the
    /// registry metadata.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let mut sites = Vec::new();
        for info in registry::global().sites() {
            let Some(cell) = self.cell(info.id) else {
                continue;
            };
            let (sums, totals) = cell.view();
            let (park_ns, parks) = cell.park.sum();
            let mut nodes: Vec<NodeProfile> =
                totals.into_iter().flat_map(|t| t.nodes).collect();
            nodes.sort_by_key(|n| (n.level, n.node));
            sites.push(SiteProfile {
                id: info.id,
                epoch: cell.epoch.load(Ordering::Acquire),
                generation: info.generation,
                refs: info.refs,
                label: info.label,
                shape: info.shape,
                location: format!("{}:{}", info.file, info.line),
                wait_ns: sums.wait_ns,
                waits: sums.waits,
                hold_ns: sums.hold_ns,
                holds: sums.holds,
                acquires: sums.acquires,
                passes: sums.passes,
                park_ns,
                parks,
                nodes,
            });
        }
        ProfileSnapshot {
            taken_ns: now_ns(),
            sites,
        }
    }
}

/// The process-global profile table the lock hooks record into.
pub fn global() -> &'static ContentionProfile {
    static PROF: OnceLock<ContentionProfile> = OnceLock::new();
    PROF.get_or_init(ContentionProfile::new)
}

/// One (level, node) wait breakdown within a site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeProfile {
    /// Hierarchy level (0 = leaf).
    pub level: u8,
    /// Node trace tag.
    pub node: u32,
    /// Wait nanoseconds attributed to this node.
    pub wait_ns: u64,
    /// Acquires that waited at this node.
    pub waits: u64,
}

/// One site's profile at snapshot time.
#[derive(Debug, Clone)]
pub struct SiteProfile {
    /// Site id (registry slot).
    pub id: u32,
    /// Slot claim epoch (snapshot pairing key).
    pub epoch: u64,
    /// Adoption generation (adaptation swaps survived).
    pub generation: u64,
    /// Live anchors on the site.
    pub refs: u32,
    /// Composition label.
    pub label: String,
    /// Topology shape line.
    pub shape: String,
    /// Construction `file:line`.
    pub location: String,
    /// Total wait nanoseconds at the site.
    pub wait_ns: u64,
    /// Acquires that recorded a wait.
    pub waits: u64,
    /// Total hold nanoseconds.
    pub hold_ns: u64,
    /// Critical sections completed.
    pub holds: u64,
    /// Acquires completed.
    pub acquires: u64,
    /// Intra-level passes taken.
    pub passes: u64,
    /// Nanoseconds waiters spent parked (blocked) at this site.
    pub park_ns: u64,
    /// Completed park episodes at this site.
    pub parks: u64,
    /// Per-(level, node) wait breakdown.
    pub nodes: Vec<NodeProfile>,
}

impl SiteProfile {
    /// Mean wait per contended acquire, ns.
    pub fn mean_wait_ns(&self) -> u64 {
        if self.waits == 0 {
            0
        } else {
            self.wait_ns / self.waits
        }
    }

    /// Mean hold per critical section, ns.
    pub fn mean_hold_ns(&self) -> u64 {
        if self.holds == 0 {
            0
        } else {
            self.hold_ns / self.holds
        }
    }
}

/// A point-in-time copy of the whole profile table.
#[derive(Debug, Clone)]
pub struct ProfileSnapshot {
    /// When the snapshot was taken ([`now_ns`] epoch).
    pub taken_ns: u64,
    /// Live sites, in id order.
    pub sites: Vec<SiteProfile>,
}

impl ProfileSnapshot {
    /// Exact per-window deltas: counters for each site paired by
    /// (id, epoch) and subtracted. A site absent from `earlier` — or
    /// whose slot was reclaimed in between (epoch mismatch) — is
    /// reported as-is, i.e. re-baselined, never mixed with a stranger's
    /// counters.
    pub fn delta(&self, earlier: &ProfileSnapshot) -> ProfileSnapshot {
        let sites = self
            .sites
            .iter()
            .map(|cur| {
                let Some(prev) = earlier
                    .sites
                    .iter()
                    .find(|p| p.id == cur.id && p.epoch == cur.epoch)
                else {
                    return cur.clone();
                };
                let nodes = cur
                    .nodes
                    .iter()
                    .map(|n| {
                        let base = prev
                            .nodes
                            .iter()
                            .find(|p| p.level == n.level && p.node == n.node);
                        NodeProfile {
                            level: n.level,
                            node: n.node,
                            wait_ns: n.wait_ns - base.map_or(0, |b| b.wait_ns.min(n.wait_ns)),
                            waits: n.waits - base.map_or(0, |b| b.waits.min(n.waits)),
                        }
                    })
                    .collect();
                SiteProfile {
                    wait_ns: cur.wait_ns.saturating_sub(prev.wait_ns),
                    waits: cur.waits.saturating_sub(prev.waits),
                    hold_ns: cur.hold_ns.saturating_sub(prev.hold_ns),
                    holds: cur.holds.saturating_sub(prev.holds),
                    acquires: cur.acquires.saturating_sub(prev.acquires),
                    passes: cur.passes.saturating_sub(prev.passes),
                    park_ns: cur.park_ns.saturating_sub(prev.park_ns),
                    parks: cur.parks.saturating_sub(prev.parks),
                    nodes,
                    ..cur.clone()
                }
            })
            .collect();
        ProfileSnapshot {
            taken_ns: self.taken_ns,
            sites,
        }
    }

    /// The `k` sites with the most wait time, worst first (ties broken
    /// by hold time, then id for determinism).
    pub fn top_k(&self, k: usize) -> Vec<&SiteProfile> {
        let mut refs: Vec<&SiteProfile> = self.sites.iter().collect();
        refs.sort_by(|a, b| {
            b.wait_ns
                .cmp(&a.wait_ns)
                .then(b.hold_ns.cmp(&a.hold_ns))
                .then(a.id.cmp(&b.id))
        });
        refs.truncate(k);
        refs
    }
}

/// Folded-stack frame sanitizer: flamegraph folded format separates
/// frames with `;` and the count with a space.
fn fold_frame(s: &str) -> String {
    s.chars()
        .map(|c| if c == ';' || c.is_whitespace() { '-' } else { c })
        .collect()
}

/// Renders folded stacks (`site;L<level>;n<node> <wait_ns>`), one line
/// per (site, level, node), weighted by wait nanoseconds — pipe into
/// standard flamegraph tooling. Site-level wait not attributed to any
/// node (e.g. the fast-path gate) gets a bare `site <wait_ns>` line.
pub fn render_folded(snap: &ProfileSnapshot) -> String {
    let mut out = String::new();
    for site in &snap.sites {
        let label = fold_frame(&site.label);
        let mut attributed = 0u64;
        for n in &site.nodes {
            if n.wait_ns == 0 {
                continue;
            }
            attributed += n.wait_ns;
            out.push_str(&format!("{label};L{};n{} {}\n", n.level, n.node, n.wait_ns));
        }
        let rest = site.wait_ns.saturating_sub(attributed);
        if rest > 0 || (site.wait_ns == 0 && site.nodes.is_empty() && site.acquires > 0) {
            out.push_str(&format!("{label} {rest}\n"));
        }
    }
    out
}

/// Renders the `/profile` endpoint body: the snapshot, plus any current
/// waits-for graph findings, plus the folded stacks inline.
pub fn render_profile_json(snap: &ProfileSnapshot, findings: &[GraphFinding]) -> String {
    let mut out = String::new();
    out.push_str("{\"profiler\":\"");
    out.push_str(PROFILE_MARKER);
    out.push_str("\",\"taken_ns\":");
    out.push_str(&snap.taken_ns.to_string());
    out.push_str(",\"sites\":[");
    for (i, s) in snap.sites.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{},\"epoch\":{},\"generation\":{},\"refs\":{},\
             \"label\":\"{}\",\"shape\":\"{}\",\"location\":\"{}\",\
             \"wait_ns\":{},\"waits\":{},\"hold_ns\":{},\"holds\":{},\
             \"acquires\":{},\"passes\":{},\"park_ns\":{},\"parks\":{},\"nodes\":[",
            s.id,
            s.epoch,
            s.generation,
            s.refs,
            json_escape(&s.label),
            json_escape(&s.shape),
            json_escape(&s.location),
            s.wait_ns,
            s.waits,
            s.hold_ns,
            s.holds,
            s.acquires,
            s.passes,
            s.park_ns,
            s.parks,
        ));
        for (j, n) in s.nodes.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"level\":{},\"node\":{},\"wait_ns\":{},\"waits\":{}}}",
                n.level, n.node, n.wait_ns, n.waits
            ));
        }
        out.push_str("]}");
    }
    out.push_str("],\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&f.to_json());
    }
    out.push_str("],\"folded\":\"");
    out.push_str(&json_escape(&render_folded(snap)));
    out.push_str("\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A registered site with one lock tree on it: leaf node 7 under
    /// root node 9.
    fn site_with_tree(label: &str) -> (u32, Arc<ShardSet>) {
        let anchor = Arc::new(registry::global().register(label, "levels=2"));
        let id = anchor.id();
        (id, ShardSet::new(anchor, [(0, 7), (1, 9)].into_iter()))
    }

    /// One acquire→release through `shard`, entered at `t`: `wait` ns to
    /// win the leaf (climbing on to the root in no time unless
    /// `inherited`), `hold` ns held, passed on at the leaf iff `pass`.
    fn cycle(shard: &crate::Shard, t: u64, wait: u64, hold: u64, inherited: bool, pass: bool) {
        shard.enter(t);
        shard.level_won(t + wait, inherited);
        if !inherited {
            shard.level_won(t + wait, false);
        }
        if pass {
            shard.pass(0);
        } else {
            shard.release_up(0, false);
        }
        shard.releasing(t + wait + hold);
        shard.commit(0);
    }

    fn site_of(snap: &ProfileSnapshot, id: u32) -> &SiteProfile {
        snap.sites.iter().find(|s| s.id == id).expect("site")
    }

    #[test]
    fn striped_counters_accumulate_and_reset() {
        let s = Striped::default();
        s.add(10, 1);
        s.add(32, 1);
        assert_eq!(s.sum(), (42, 2));
        s.reset();
        assert_eq!(s.sum(), (0, 0));
    }

    #[test]
    fn shard_records_flow_into_the_site_view() {
        let (id, set) = site_with_tree("prof-flow");
        let shard = set.shard(&[7, 9]);
        cycle(&shard, 1000, 100, 30, false, true);
        cycle(&shard, 2000, 50, 5, true, false);
        shard.gate_won(8);
        shard.gate_held(2);

        let prof = global();
        let snap = prof.snapshot();
        let s = site_of(&snap, id);
        assert_eq!(s.label, "prof-flow");
        assert_eq!((s.wait_ns, s.waits), (158, 3), "two slow acquires and a gate win");
        assert_eq!((s.hold_ns, s.holds), (37, 3));
        assert_eq!(s.acquires, 3);
        assert_eq!(s.passes, 1);
        assert_eq!(prof.passes(id), 1);
        assert_eq!(
            s.nodes,
            vec![
                NodeProfile { level: 0, node: 7, wait_ns: 150, waits: 2 },
                NodeProfile { level: 1, node: 9, wait_ns: 0, waits: 1 },
            ]
        );

        // A retired handle's records stay; a dropped tree's sums stay
        // with the site, its nodes go.
        set.retire(&shard);
        drop(shard);
        assert_eq!(site_of(&prof.snapshot(), id).acquires, 3);
        drop(set);
        let snap = prof.snapshot();
        // The registry slot died with the set's anchor.
        assert!(snap.sites.iter().all(|s| s.id != id));
    }

    #[test]
    fn a_site_outliving_its_tree_keeps_monotone_sums() {
        let (id, old) = site_with_tree("prof-swap");
        let shard = old.shard(&[7, 9]);
        cycle(&shard, 1000, 40, 10, false, true);
        old.retire(&shard);
        // The adaptation swap: a new tree's anchor adopts the site, its
        // set re-attaches, then the old tree goes away.
        let fresh = Arc::new(registry::global().register("prof-swap-new", "levels=2"));
        fresh.rebind(old.site(), "prof-swap-new");
        assert_eq!(fresh.id(), id);
        let new = ShardSet::new(fresh, [(0, 17), (1, 19)].into_iter());
        drop(old);
        let shard = new.shard(&[17, 19]);
        cycle(&shard, 2000, 2, 3, false, false);
        let snap = global().snapshot();
        let s = site_of(&snap, id);
        assert_eq!((s.wait_ns, s.waits), (42, 2));
        assert_eq!((s.hold_ns, s.holds), (13, 2));
        assert_eq!((s.acquires, s.passes), (2, 1));
        assert_eq!(s.generation, 1);
        let nodes: Vec<u32> = s.nodes.iter().map(|n| n.node).collect();
        assert_eq!(nodes, vec![17, 19], "only the live tree's nodes are listed");
    }

    #[test]
    fn invalid_site_records_are_dropped() {
        let prof = global();
        prof.record_park(INVALID_SITE, 1);
        prof.inject_passes(INVALID_SITE, 1);
        assert_eq!(prof.passes(INVALID_SITE), 0);
        // A lock whose registration found the table full still works.
        let set = ShardSet::new(Arc::new(registry::SiteAnchor::dead()), [(0, 1)].into_iter());
        let shard = set.shard(&[1]);
        shard.enter(1);
        shard.level_won(2, false);
        shard.releasing(3);
        shard.commit(0);
        assert_eq!(set.lock_snapshot("orphan").levels[0].acquires, 1);
    }

    #[test]
    fn delta_is_exact_and_rebaselines_on_epoch_change() {
        let (id, set) = site_with_tree("prof-delta");
        let shard = set.shard(&[7, 9]);
        let prof = global();
        cycle(&shard, 1000, 100, 1, false, false);
        let first = prof.snapshot();
        cycle(&shard, 2000, 25, 1, false, false);
        let second = prof.snapshot();
        let d = second.delta(&first);
        let s = site_of(&d, id);
        assert_eq!((s.wait_ns, s.waits), (25, 1));
        assert_eq!(s.acquires, 1);
        assert_eq!(s.nodes[0], NodeProfile { level: 0, node: 7, wait_ns: 25, waits: 1 });

        // Fake an epoch change: the site must be re-baselined (reported
        // as-is), not subtracted against a stranger's counters.
        let mut stale = first.clone();
        for s in &mut stale.sites {
            if s.id == id {
                s.epoch += 1;
                s.wait_ns = 1_000_000;
            }
        }
        let d = second.delta(&stale);
        assert_eq!(site_of(&d, id).wait_ns, 125, "epoch mismatch re-baselines");
    }

    #[test]
    fn top_k_ranks_by_wait() {
        let (_a, set_a) = site_with_tree("prof-top-a");
        let (_b, set_b) = site_with_tree("prof-top-b");
        cycle(&set_a.shard(&[7, 9]), 0, 10, 1, false, false);
        cycle(&set_b.shard(&[7, 9]), 0, 999_999_999_999, 1, false, false);
        let snap = global().snapshot();
        let top = snap.top_k(1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].label, "prof-top-b");
    }

    #[test]
    fn folded_output_is_flamegraph_shaped() {
        let (id, set) = site_with_tree("prof folded;site");
        let shard = set.shard(&[7, 9]);
        cycle(&shard, 0, 70, 1, true, true);
        shard.gate_won(30);
        let snap = global().snapshot();
        let snap = ProfileSnapshot {
            taken_ns: snap.taken_ns,
            sites: snap.sites.into_iter().filter(|s| s.id == id).collect(),
        };
        let folded = render_folded(&snap);
        assert!(
            folded.contains("prof-folded-site;L0;n7 70"),
            "node line with sanitized label: {folded:?}"
        );
        assert!(
            folded.contains("prof-folded-site 30"),
            "unattributed remainder line: {folded:?}"
        );
    }

    #[test]
    fn profile_json_carries_marker_and_folded() {
        let (_id, set) = site_with_tree("prof-json");
        cycle(&set.shard(&[7, 9]), 0, 5, 1, false, false);
        let snap = global().snapshot();
        let body = render_profile_json(&snap, &[]);
        assert!(body.contains(PROFILE_MARKER));
        assert!(body.contains("\"sites\":["));
        assert!(body.contains("\"findings\":[]"));
        assert!(body.contains("\"folded\":\""));
    }
}
