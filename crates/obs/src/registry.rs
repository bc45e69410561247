//! Process-global lock-site registry.
//!
//! Every constructed CLoF lock (a `DynClofLock`, the `FastClof` wrapper,
//! or a kvstore lock built on either) registers a **site** here: a
//! static label (the composition name), a topology shape line, and the
//! source location of the construction call (captured via
//! `#[track_caller]` in the lock builders). The registry is the spine of
//! the contention profiler: the per-site accumulators in [`crate::profile`]
//! are keyed by the site ids handed out here.
//!
//! Design constraints, in order:
//!
//! * **Wait-free hot path.** The lock protocol never touches the
//!   registry after construction; it carries an [`Arc<SiteAnchor>`] and
//!   reads the site id with one relaxed load. Registration and
//!   deregistration (cold paths) claim slots with a single CAS each.
//! * **Stable ids across adaptation swaps.** `AdaptiveLock::swap_to`
//!   builds a fresh tree per generation; [`SiteRegistry::adopt`] +
//!   [`SiteAnchor::rebind`] let the incoming tree take over the outgoing
//!   tree's slot (refcounted), so `clof profile` deltas keep
//!   attributing to one logical site while generations churn underneath.
//! * **Deregistration on drop.** The last [`SiteAnchor`] clone for a
//!   slot releases it; [`SiteRegistry::len`] returns to baseline once a
//!   lock (and every generation that adopted its site) is gone.
//!
//! Slots are a fixed-capacity table ([`MAX_SITES`]). If the table is
//! ever full, registration degrades gracefully: the lock still works,
//! it just profiles into the void ([`INVALID_SITE`]).
//!
//! [`Arc<SiteAnchor>`]: SiteAnchor

use std::panic::Location;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::now_ns;

/// Capacity of the global site table. Live locks above this count are
/// not registered (they still work; they are just invisible to the
/// profiler).
pub const MAX_SITES: usize = 256;

/// Sentinel site id for "not registered" (table full). All profiler
/// paths treat it as a no-op.
pub const INVALID_SITE: u32 = u32::MAX;

/// Slot metadata, written under the slot mutex at registration /
/// relabel / adoption time and copied out by [`SiteRegistry::sites`].
#[derive(Debug, Clone)]
struct SiteMeta {
    label: String,
    shape: String,
    file: &'static str,
    line: u32,
    registered_ns: u64,
    generation: u64,
}

/// One registry slot: `refs == 0` means free; a claim CASes 0 → 1.
/// `epoch` counts claims of this slot, so samplers can tell a reused
/// slot from the site they were watching.
#[derive(Debug)]
struct SiteSlot {
    refs: AtomicU32,
    epoch: AtomicU64,
    meta: Mutex<Option<SiteMeta>>,
}

/// A point-in-time copy of one registered site.
#[derive(Debug, Clone)]
pub struct SiteInfo {
    /// The site id (slot index).
    pub id: u32,
    /// Claim count of the slot when sampled (slot-reuse detector).
    pub epoch: u64,
    /// Live [`SiteAnchor`] clones holding the slot.
    pub refs: u32,
    /// Static label — the composition name (e.g. `mcs-clh-tkt`,
    /// `tas+clh-clh-tkt`, or a caller-supplied store name).
    pub label: String,
    /// Topology shape line (levels, leaf count, CPU count).
    pub shape: String,
    /// Source file of the construction call.
    pub file: &'static str,
    /// Source line of the construction call.
    pub line: u32,
    /// When the site was registered ([`now_ns`] epoch).
    pub registered_ns: u64,
    /// Adoption generation: 0 for the original registration, bumped
    /// every time an adaptation swap rebinds a new tree onto the site.
    pub generation: u64,
}

impl SiteInfo {
    /// `file:line` of the construction call.
    pub fn location(&self) -> String {
        format!("{}:{}", self.file, self.line)
    }
}

/// Fixed-capacity, CAS-claimed table of lock sites.
#[derive(Debug)]
pub struct SiteRegistry {
    slots: Box<[SiteSlot]>,
    /// Only the process-global registry resets the (global) profile
    /// accumulators on slot claim; private tables (tests) must not
    /// touch profiler state they do not own.
    wired_to_profile: bool,
}

impl SiteRegistry {
    /// An empty registry with [`MAX_SITES`] slots.
    pub fn new() -> Self {
        SiteRegistry {
            slots: (0..MAX_SITES)
                .map(|_| SiteSlot {
                    refs: AtomicU32::new(0),
                    epoch: AtomicU64::new(0),
                    meta: Mutex::new(None),
                })
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            wired_to_profile: false,
        }
    }

    /// Registers a new site and returns its anchor. The caller's source
    /// location is captured automatically; lock builders re-export this
    /// with their own `#[track_caller]` chain so the location names the
    /// user's construction call, not the builder internals.
    #[track_caller]
    pub fn register(&self, label: &str, shape: &str) -> SiteAnchor {
        self.register_at(label, shape, Location::caller())
    }

    /// [`register`](Self::register) with an explicit caller location
    /// (forwarded from a `#[track_caller]` builder).
    pub fn register_at(
        &self,
        label: &str,
        shape: &str,
        loc: &'static Location<'static>,
    ) -> SiteAnchor {
        for (id, slot) in self.slots.iter().enumerate() {
            if slot
                .refs
                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            let epoch = slot.epoch.fetch_add(1, Ordering::AcqRel) + 1;
            let meta = SiteMeta {
                label: label.to_string(),
                shape: shape.to_string(),
                file: loc.file(),
                line: loc.line(),
                registered_ns: now_ns(),
                generation: 0,
            };
            // The profile slot is cleared before the site is listed, so
            // no snapshot shows the previous registration's sums under
            // this one's label and epoch.
            if self.wired_to_profile {
                crate::profile::global().reset_site(id as u32, epoch);
            }
            *slot.meta.lock().unwrap_or_else(|p| p.into_inner()) = Some(meta);
            return SiteAnchor {
                id: AtomicU32::new(id as u32),
            };
        }
        // Table full: hand out a dead anchor; the lock still works.
        SiteAnchor {
            id: AtomicU32::new(INVALID_SITE),
        }
    }

    /// Takes an additional reference on a live site (the adoption half
    /// of an adaptation swap). Returns `false` if the site is not live,
    /// in which case the caller keeps its own registration.
    pub fn adopt(&self, id: u32) -> bool {
        let Some(slot) = self.slots.get(id as usize) else {
            return false;
        };
        let mut refs = slot.refs.load(Ordering::Acquire);
        loop {
            if refs == 0 {
                return false;
            }
            match slot.refs.compare_exchange_weak(
                refs,
                refs + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    if let Some(meta) = slot
                        .meta
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .as_mut()
                    {
                        meta.generation += 1;
                    }
                    return true;
                }
                Err(cur) => refs = cur,
            }
        }
    }

    /// Drops one reference; frees the slot when the last goes.
    fn release(&self, id: u32) {
        let Some(slot) = self.slots.get(id as usize) else {
            return;
        };
        // The last reference clears the metadata under its lock: a
        // registration that claims the freed slot meanwhile waits for
        // the lock, so its metadata is never the one cleared.
        let mut meta = slot.meta.lock().unwrap_or_else(|p| p.into_inner());
        if slot.refs.fetch_sub(1, Ordering::AcqRel) == 1 {
            *meta = None;
        }
    }

    /// Replaces a live site's label (e.g. `FastClof` renaming its inner
    /// tree's site to `tas+<composition>`).
    pub fn relabel(&self, id: u32, label: &str) {
        if let Some(slot) = self.slots.get(id as usize) {
            if let Some(meta) = slot
                .meta
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .as_mut()
            {
                meta.label = label.to_string();
            }
        }
    }

    /// Live sites (slots with a nonzero refcount), in id order.
    pub fn sites(&self) -> Vec<SiteInfo> {
        let mut out = Vec::new();
        for (id, slot) in self.slots.iter().enumerate() {
            let refs = slot.refs.load(Ordering::Acquire);
            if refs == 0 {
                continue;
            }
            let meta = slot.meta.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(m) = meta.as_ref() {
                out.push(SiteInfo {
                    id: id as u32,
                    epoch: slot.epoch.load(Ordering::Acquire),
                    refs,
                    label: m.label.clone(),
                    shape: m.shape.clone(),
                    file: m.file,
                    line: m.line,
                    registered_ns: m.registered_ns,
                    generation: m.generation,
                });
            }
        }
        out
    }

    /// One site's metadata, if live.
    pub fn site(&self, id: u32) -> Option<SiteInfo> {
        self.sites().into_iter().find(|s| s.id == id)
    }

    /// Number of live sites.
    pub fn len(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.refs.load(Ordering::Acquire) > 0)
            .count()
    }

    /// `true` when no site is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for SiteRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-global registry every lock builder registers into.
pub fn global() -> &'static SiteRegistry {
    static REG: OnceLock<SiteRegistry> = OnceLock::new();
    REG.get_or_init(|| SiteRegistry {
        wired_to_profile: true,
        ..SiteRegistry::new()
    })
}

/// A lock's handle on its registry slot.
///
/// The lock stores this in an `Arc` and clones it into every hook that
/// needs the site id (node observers, hold observers, the fast-path
/// gate); the hot path reads the id with a single relaxed load. The last
/// clone to drop releases the slot.
///
/// The id is interior-mutable so an adaptation swap can [`rebind`] a
/// freshly built tree onto the outgoing tree's site without rebuilding
/// the tree's observer graph.
///
/// [`rebind`]: SiteAnchor::rebind
#[derive(Debug)]
pub struct SiteAnchor {
    id: AtomicU32,
}

impl SiteAnchor {
    /// An anchor that is not registered anywhere (profiles into the
    /// void). Used by non-CLoF baseline locks and as a fallback.
    pub fn dead() -> Self {
        SiteAnchor {
            id: AtomicU32::new(INVALID_SITE),
        }
    }

    /// The current site id ([`INVALID_SITE`] when unregistered).
    #[inline]
    pub fn id(&self) -> u32 {
        self.id.load(Ordering::Relaxed)
    }

    /// `true` when this anchor holds a live registry slot.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.id() != INVALID_SITE
    }

    /// Adopts `donor`'s site: takes a reference on the donor's slot,
    /// points this anchor at it, and releases this anchor's previous
    /// slot. After this, both the outgoing and incoming lock trees
    /// attribute to one site id; the incoming label wins.
    ///
    /// No-op (keeping the existing registration) if the donor is dead
    /// or already the same site.
    pub fn rebind(&self, donor: &SiteAnchor, label: &str) {
        let target = donor.id();
        let mine = self.id();
        if target == INVALID_SITE || target == mine {
            return;
        }
        if !global().adopt(target) {
            return;
        }
        let prev = self.id.swap(target, Ordering::AcqRel);
        if prev != INVALID_SITE {
            global().release(prev);
        }
        global().relabel(target, label);
    }
}

impl Drop for SiteAnchor {
    fn drop(&mut self) {
        let id = self.id();
        if id != INVALID_SITE {
            global().release(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests use the private registry constructor where possible,
    // but anchor drop/rebind go through the process-global table, so
    // they use unique labels and count those instead of absolute len.
    fn count_label(label: &str) -> usize {
        global().sites().iter().filter(|s| s.label == label).count()
    }

    #[test]
    fn register_and_drop_round_trip() {
        let _g = crate::test_lock();
        let label = "reg-test-round-trip";
        assert_eq!(count_label(label), 0);
        let a = global().register(label, "levels=3");
        assert!(a.is_live());
        assert_eq!(count_label(label), 1);
        let info = global().site(a.id()).expect("live site");
        assert_eq!(info.label, label);
        assert_eq!(info.shape, "levels=3");
        assert!(info.file.ends_with("registry.rs"));
        assert_eq!(info.generation, 0);
        drop(a);
        assert_eq!(count_label(label), 0);
    }

    #[test]
    fn rebind_keeps_one_site_and_bumps_generation() {
        let _g = crate::test_lock();
        let old = global().register("reb-old", "levels=3");
        let old_id = old.id();
        let fresh = global().register("reb-new", "levels=3");
        assert_ne!(fresh.id(), old_id);

        fresh.rebind(&old, "reb-new");
        assert_eq!(fresh.id(), old_id, "incoming anchor adopted the site");
        assert_eq!(count_label("reb-new"), 1, "label follows the adoption");
        assert_eq!(count_label("reb-old"), 0);
        let info = global().site(old_id).unwrap();
        assert_eq!(info.generation, 1);
        assert_eq!(info.refs, 2);

        drop(old);
        assert_eq!(count_label("reb-new"), 1, "site survives the donor");
        drop(fresh);
        assert_eq!(count_label("reb-new"), 0, "last anchor frees the slot");
    }

    #[test]
    fn rebind_to_dead_donor_is_a_no_op() {
        let _g = crate::test_lock();
        let a = global().register("reb-dead", "x");
        let id = a.id();
        a.rebind(&SiteAnchor::dead(), "renamed");
        assert_eq!(a.id(), id);
        assert_eq!(count_label("reb-dead"), 1);
    }

    #[test]
    fn relabel_updates_live_meta() {
        let _g = crate::test_lock();
        let a = global().register("relabel-before", "x");
        global().relabel(a.id(), "relabel-after");
        assert_eq!(count_label("relabel-after"), 1);
        assert_eq!(count_label("relabel-before"), 0);
    }

    #[test]
    fn full_table_degrades_to_dead_anchors() {
        // A private table, so the global registry is untouched. Anchors
        // release into the *global* table on drop, so these must be
        // forgotten, not dropped — this test only exercises claiming.
        let reg = SiteRegistry::new();
        for i in 0..MAX_SITES {
            let a = reg.register_at(
                &format!("fill-{i}"),
                "x",
                std::panic::Location::caller(),
            );
            assert!(a.is_live());
            std::mem::forget(a);
        }
        assert_eq!(reg.len(), MAX_SITES);
        let overflow = reg.register_at("overflow", "x", std::panic::Location::caller());
        assert!(!overflow.is_live());
        assert_eq!(overflow.id(), INVALID_SITE);
        std::mem::forget(overflow);
    }

    #[test]
    fn slot_reuse_bumps_epoch() {
        let _g = crate::test_lock();
        let a = global().register("epoch-a", "x");
        let id = a.id();
        let e1 = global().site(id).unwrap().epoch;
        drop(a);
        // Claim slots until we land on the same one (single-threaded,
        // lowest-free-slot allocation makes this the very next claim
        // unless a parallel test grabbed it; either way the epoch of
        // whatever slot we get is fresh).
        let b = global().register("epoch-b", "x");
        if b.id() == id {
            let e2 = global().site(id).unwrap().epoch;
            assert!(e2 > e1, "reused slot advanced its epoch");
        }
    }
}
