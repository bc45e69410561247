//! CLH queue lock (Craig, Landin & Hagersten \[19\]): fair, spins on the
//! predecessor's node.

use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, Ordering};

use crate::park::{WaitWord, ABANDONED, SPIN_FOREVER};
use crate::raw::{LockInfo, RawLock};

/// A CLH queue node: a single wait word the *successor* waits on.
#[derive(Debug)]
struct ClhNode {
    /// Armed while the node's current owner holds or waits for the lock;
    /// with the `park` feature the successor blocks on this word once its
    /// spin budget runs out and the releaser futex-wakes it.
    locked: WaitWord,
    /// Escape pointer an abandoning owner leaves behind: where this
    /// node's owner was itself waiting. A successor that observes the
    /// abandoned marker in `locked` redirects its wait to this
    /// predecessor, frees the abandoned node, and carries on — the CLH
    /// analogue of the MCS releaser-side skip. Published by the
    /// `Release` swap that abandons `locked`; read after the successor's
    /// `Acquire` observation of the marker.
    pred: AtomicPtr<ClhNode>,
}

impl ClhNode {
    fn boxed(locked: bool) -> NonNull<ClhNode> {
        let node = Box::new(ClhNode {
            locked: if locked {
                WaitWord::new_wait()
            } else {
                WaitWord::new_go()
            },
            pred: AtomicPtr::new(std::ptr::null_mut()),
        });
        NonNull::new(Box::into_raw(node)).expect("Box::into_raw returned null")
    }
}

/// Per-slot context of [`ClhLock`].
///
/// CLH recycles nodes across threads: on release, a thread abandons the
/// node it enqueued and adopts its predecessor's node for the next
/// acquisition, so the context tracks *which* node it currently owns.
#[derive(Debug)]
pub struct ClhContext {
    /// Node this context will enqueue next (exclusively owned while not
    /// enqueued).
    node: NonNull<ClhNode>,
    /// Predecessor node recorded by the last acquire; adopted on release.
    pred: Option<NonNull<ClhNode>>,
}

// SAFETY: The context carries pointers to heap nodes whose only shared
// field is an atomic; the ownership protocol (see `acquire`/`release`)
// guarantees exclusive reuse.
unsafe impl Send for ClhContext {}
// SAFETY: As above.
unsafe impl Sync for ClhContext {}

impl Default for ClhContext {
    fn default() -> Self {
        ClhContext {
            node: ClhNode::boxed(false),
            pred: None,
        }
    }
}

impl Drop for ClhContext {
    fn drop(&mut self) {
        // SAFETY: By the `RawLock` contract the context is idle: its
        // current `node` is not enqueued anywhere and this is the unique
        // owner of that allocation. (`pred` is only set while the lock is
        // held and is consumed by `release`, so it is not freed here.)
        unsafe { drop(Box::from_raw(self.node.as_ptr())) };
    }
}

/// The CLH queue lock.
///
/// An *implicit* queue: each thread swaps its node into `tail` and spins
/// on the `locked` flag of the node it received back (its predecessor's).
/// Used e.g. as the big kernel lock of seL4 (paper §2.1). On the paper's
/// Armv8 server, CLH is the best basic lock at the NUMA-node level
/// (Figure 3b); the best Armv8 CLoF compositions are built around it.
///
/// # Examples
///
/// ```
/// use clof_locks::{ClhContext, ClhLock, RawLock};
///
/// let lock = ClhLock::default();
/// let mut ctx = ClhContext::default();
/// lock.acquire(&mut ctx);
/// lock.release(&mut ctx);
/// ```
#[derive(Debug)]
pub struct ClhLock {
    /// Most recently enqueued node; initially a dummy unlocked node owned
    /// by the lock.
    tail: AtomicPtr<ClhNode>,
}

impl ClhLock {
    /// Creates an unlocked CLH lock.
    pub fn new() -> Self {
        ClhLock {
            tail: AtomicPtr::new(ClhNode::boxed(false).as_ptr()),
        }
    }

    /// Whether the lock is currently held or queued (racy; diagnostics).
    pub fn is_locked(&self) -> bool {
        let tail = self.tail.load(Ordering::Relaxed);
        // SAFETY: `tail` always points to a live node: either the lock's
        // dummy or a node owned by a context that cannot legally be
        // dropped while enqueued.
        unsafe { !(*tail).locked.is_go() }
    }

    /// Returns whether a look at a predecessor's word found it armed.
    fn acquire_inner(&self, ctx: &mut ClhContext, budget: u32) -> bool {
        debug_assert!(ctx.pred.is_none(), "context invariant violated: re-acquire");
        let node = ctx.node;
        // SAFETY: We exclusively own `node` until the swap publishes it.
        unsafe { node.as_ref().locked.prime() };
        // AcqRel: Release publishes our armed word with the node; Acquire
        // orders us after the predecessor's publication.
        let mut pred = self.tail.swap(node.as_ptr(), Ordering::AcqRel);
        crate::chaos::point("clh-acquire-enqueued");
        let mut waited = false;
        loop {
            // SAFETY: `pred` stays alive while we wait: its owner either
            // is the lock itself (dummy) or cannot reuse/free it before we
            // stop observing it — the releaser abandons the node to us,
            // and an abandoning owner leaves it to us outright. The wait's
            // Acquire pairs with the releaser's `grant_raw` swap.
            let (value, armed) = unsafe { (*pred).locked.wait(budget) };
            waited |= armed;
            if value & ABANDONED == 0 {
                break;
            }
            // Any predecessor may abandon its position mid-wait (even
            // though *this* acquire is unbounded).
            // SAFETY: We just observed the marker.
            pred = unsafe { Self::skip_abandoned(pred) };
        }
        ctx.pred = NonNull::new(pred);
        waited
    }

    /// A waiter's continuation past an abandoned predecessor: adopts
    /// *its* predecessor as ours and reclaims the abandoned node. The
    /// escape pointer was published before the marker (Release/Acquire
    /// on the word).
    ///
    /// # Safety
    ///
    /// The caller observed the abandoned marker in `pred`'s word, which
    /// makes it the only thread that can still reach the node (its owner
    /// left, only direct successors observe a CLH node, and we are the
    /// unique one).
    #[cold]
    #[inline(never)]
    unsafe fn skip_abandoned(pred: *mut ClhNode) -> *mut ClhNode {
        // SAFETY: By the contract above we are the only thread that can
        // still reach `pred`, a live boxed node: reading its escape
        // pointer and then freeing it races with nobody.
        unsafe {
            let further = (*pred).pred.load(Ordering::Relaxed);
            debug_assert!(!further.is_null(), "abandoned node without an escape");
            crate::deadline::on_skip();
            drop(Box::from_raw(pred));
            further
        }
    }

    /// Deadline-bounded acquire with node abandonment. Two exits on
    /// expiry:
    ///
    /// * **Tail restore** — if our node is still the tail (no successor
    ///   yet), a `tail` CAS back to our predecessor erases us from the
    ///   queue entirely: we keep our node, nothing is leaked, nobody
    ///   ever knew we were queued.
    /// * **Abandon** — otherwise a successor is already waiting on our
    ///   word: publish our predecessor as the escape pointer and swap
    ///   the abandoned marker into our word. The successor redirects to
    ///   our predecessor and frees our node; the context takes a fresh
    ///   one.
    ///
    /// Either way the unconsumed grant (if our predecessor released
    /// while we gave up) is not lost: it stays visible in the
    /// predecessor's word, where the redirected successor — or, after a
    /// tail restore, the next enqueuer — finds it.
    fn try_acquire_inner(&self, ctx: &mut ClhContext, deadline: std::time::Instant) -> bool {
        debug_assert!(ctx.pred.is_none(), "context invariant violated: re-acquire");
        let node = ctx.node;
        // SAFETY: We exclusively own `node` until the swap publishes it.
        unsafe { node.as_ref().locked.prime() };
        let mut pred = self.tail.swap(node.as_ptr(), Ordering::AcqRel);
        crate::chaos::point("clh-acquire-enqueued");
        loop {
            // SAFETY: As in `acquire_inner`.
            match unsafe { (*pred).locked.wait_deadline(deadline, "clh-wait") } {
                Some(v) if v & ABANDONED == 0 => {
                    // Granted (possibly at the deadline edge): acquired.
                    ctx.pred = NonNull::new(pred);
                    return true;
                }
                // SAFETY: As in `acquire_inner`.
                Some(_) => pred = unsafe { Self::skip_abandoned(pred) },
                None => break,
            }
        }
        // Expired. Try to erase ourselves: if the tail is still our
        // node, no successor observed us and the CAS atomically puts
        // our predecessor back in our place. (The tail can never ABA
        // back to our node while we wait — the queue behind us cannot
        // advance past our armed word.)
        if self
            .tail
            .compare_exchange(node.as_ptr(), pred, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            crate::deadline::on_abandon();
            crate::chaos::point("clh-restore-tail");
            return false;
        }
        // A successor waits on our word. Leave it the escape pointer
        // and the abandoned marker; it reclaims our node (and any
        // pending grant at `pred`). Publication order matters: the
        // escape store must precede the marker's Release swap.
        // SAFETY: Our own node; the successor only reads these fields.
        unsafe {
            node.as_ref().pred.store(pred, Ordering::Relaxed);
            node.as_ref().locked.abandon();
        }
        crate::deadline::on_abandon();
        ctx.node = ClhNode::boxed(false);
        false
    }
}

impl Default for ClhLock {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for ClhLock {
    fn drop(&mut self) {
        // No operation is in flight when the lock is dropped, so the node
        // left in `tail` is owned by the lock: the dummy, or the node
        // abandoned by the last releaser (whose releaser adopted its
        // predecessor's allocation in exchange). A waiter that abandoned
        // while it was the last in line leaves its marked node there with
        // an escape pointer to its predecessor — adopted by the next
        // enqueuer, or by nobody if none ever came. Walk the escape chain
        // so those orphans are reclaimed with the lock.
        let mut node = self.tail.load(Ordering::Relaxed);
        while !node.is_null() {
            // SAFETY: Quiescent at drop; every node on the escape chain
            // is owned by the lock (abandoned, never adopted) down to the
            // terminal non-abandoned node (the dummy).
            let abandoned = unsafe { !(*node).locked.is_go() };
            let next = if abandoned {
                // SAFETY: As above.
                unsafe { (*node).pred.load(Ordering::Relaxed) }
            } else {
                std::ptr::null_mut()
            };
            // SAFETY: As above; sole owner of the allocation.
            unsafe { drop(Box::from_raw(node)) };
            node = next;
        }
    }
}

impl RawLock for ClhLock {
    type Context = ClhContext;

    const INFO: LockInfo = LockInfo {
        name: "clh",
        full_name: "CLH lock",
        fair: true,
        local_spinning: true,
        needs_context: true,
        waiter_hint: true,
    };

    fn acquire(&self, ctx: &mut ClhContext) {
        self.acquire_inner(ctx, SPIN_FOREVER);
    }

    #[cfg(feature = "park")]
    fn acquire_budgeted(&self, ctx: &mut ClhContext, budget: u32) {
        self.acquire_inner(ctx, budget);
    }

    fn acquire_reporting(&self, ctx: &mut ClhContext, budget: u32) -> bool {
        self.acquire_inner(ctx, budget)
    }

    fn try_acquire_until(&self, ctx: &mut ClhContext, deadline: std::time::Instant) -> bool {
        self.try_acquire_inner(ctx, deadline)
    }

    fn release(&self, ctx: &mut ClhContext) {
        let pred = ctx
            .pred
            .take()
            .expect("ClhLock::release called without a matching acquire");
        crate::chaos::point("clh-release-window");
        // SAFETY: Our node is still ours to signal through; the successor
        // (or nobody) waits on it. The grant's Release swap publishes the
        // critical section to the successor's Acquire wait, after which
        // the successor adopts the node — `grant_raw` wakes by address
        // and never dereferences past that hand-over.
        unsafe { WaitWord::grant_raw(std::ptr::addr_of!((*ctx.node.as_ptr()).locked)) };
        // Adopt the predecessor's node for the next acquisition; our old
        // node now belongs to our successor (or to the lock if none).
        ctx.node = pred;
    }

    fn has_waiters_hint(&self, ctx: &Self::Context) -> Option<bool> {
        // If the tail is not our node, someone enqueued after us.
        Some(self.tail.load(Ordering::Relaxed) != ctx.node.as_ptr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn uncontended_roundtrip() {
        let lock = ClhLock::new();
        let mut ctx = ClhContext::default();
        assert!(!lock.is_locked());
        lock.acquire(&mut ctx);
        assert!(lock.is_locked());
        assert_eq!(lock.has_waiters_hint(&ctx), Some(false));
        lock.release(&mut ctx);
        assert!(!lock.is_locked());
    }

    #[test]
    fn node_recycling_many_rounds() {
        let lock = ClhLock::new();
        let mut ctx = ClhContext::default();
        for _ in 0..1000 {
            lock.acquire(&mut ctx);
            lock.release(&mut ctx);
        }
    }

    #[test]
    #[should_panic(expected = "without a matching acquire")]
    fn release_without_acquire_panics() {
        let lock = ClhLock::new();
        let mut ctx = ClhContext::default();
        lock.release(&mut ctx);
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        const THREADS: usize = 4;
        const ITERS: usize = 2_000;
        let lock = Arc::new(ClhLock::new());
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                let mut ctx = ClhContext::default();
                for _ in 0..ITERS {
                    lock.acquire(&mut ctx);
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    lock.release(&mut ctx);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), THREADS * ITERS);
    }

    #[test]
    fn thread_oblivious_release() {
        let lock = Arc::new(ClhLock::new());
        let mut ctx = ClhContext::default();
        lock.acquire(&mut ctx);
        let lock2 = Arc::clone(&lock);
        std::thread::scope(|s| {
            s.spawn(|| {
                lock2.release(&mut ctx);
            });
        });
        let mut ctx2 = ClhContext::default();
        lock.acquire(&mut ctx2);
        lock.release(&mut ctx2);
    }

    #[test]
    fn contexts_and_lock_drop_in_any_order() {
        // Exercises the node-ownership shuffle: contexts allocated, used,
        // and dropped before/after the lock without double frees (verified
        // under the default allocator; a double free would abort).
        let lock = ClhLock::new();
        let mut a = ClhContext::default();
        let mut b = ClhContext::default();
        lock.acquire(&mut a);
        lock.release(&mut a);
        lock.acquire(&mut b);
        lock.release(&mut b);
        drop(a);
        drop(lock);
        drop(b);
    }

    #[test]
    fn info_is_fair_local_spinning() {
        assert!(ClhLock::INFO.fair);
        assert!(ClhLock::INFO.local_spinning);
        assert!(ClhLock::INFO.needs_context);
    }

    mod deadline {
        use super::*;
        use std::time::{Duration, Instant};

        fn soon() -> Instant {
            Instant::now() + Duration::from_millis(5)
        }

        #[test]
        fn try_acquire_uncontended_succeeds() {
            let lock = ClhLock::new();
            let mut ctx = ClhContext::default();
            assert!(lock.try_acquire_until(&mut ctx, soon()));
            lock.release(&mut ctx);
            assert!(!lock.is_locked());
        }

        #[test]
        fn last_in_line_timeout_restores_the_tail() {
            // With no successor the timed-out waiter erases itself via
            // the tail CAS: no node changes hands, no abandon marker.
            let lock = ClhLock::new();
            let mut holder = ClhContext::default();
            lock.acquire(&mut holder);
            let mut waiter = ClhContext::default();
            let node = waiter.node;
            assert!(!lock.try_acquire_until(&mut waiter, soon()));
            // Observed on this lock and context alone: the skip counter
            // is process-wide and the tests beside this one bump it.
            assert_eq!(lock.has_waiters_hint(&holder), Some(false), "tail restored");
            assert_eq!(waiter.node, node, "no node left behind to skip");
            lock.release(&mut holder);
            assert!(!lock.is_locked());
            // Both contexts stay usable; drop order stays arbitrary.
            lock.acquire(&mut waiter);
            lock.release(&mut waiter);
        }

        #[test]
        fn abandoned_node_redirects_blocked_successor() {
            // holder <- w1 (abandons) <- w2 (blocks): w2 must observe
            // w1's marker, adopt w1's predecessor, and still acquire.
            let lock = Arc::new(ClhLock::new());
            let mut holder = ClhContext::default();
            lock.acquire(&mut holder);
            let mut w1 = ClhContext::default();
            // Enqueue w2 first so w1's timeout cannot tail-restore.
            let t = {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    let mut ctx = ClhContext::default();
                    lock.acquire(&mut ctx);
                    lock.release(&mut ctx);
                })
            };
            // w1 enqueues between holder and (soon) w2 — ordering is
            // racy either way, and whichever exit w1 takes (abandon or
            // tail restore) the state must come out clean.
            assert!(!lock.try_acquire_until(&mut w1, soon()));
            lock.release(&mut holder);
            t.join().expect("w2 acquires despite the abandonment");
            assert!(!lock.is_locked());
            lock.acquire(&mut w1);
            lock.release(&mut w1);
        }

        /// Hand-builds the orphan state the abandon/restore race can
        /// leave behind: an abandoned node at the tail (its abandoner
        /// gone, its one-time successor tail-restored and gone too),
        /// escape pointing at the previous tail.
        fn plant_orphan(lock: &ClhLock) {
            let old = lock.tail.load(Ordering::Relaxed);
            let orphan = ClhNode::boxed(true);
            // SAFETY: The orphan is private until the tail store below.
            unsafe {
                orphan.as_ref().pred.store(old, Ordering::Relaxed);
                orphan.as_ref().locked.abandon();
            }
            lock.tail.store(orphan.as_ptr(), Ordering::Relaxed);
        }

        #[test]
        fn orphaned_abandoned_tail_is_adopted_by_next_enqueuer() {
            let lock = ClhLock::new();
            plant_orphan(&lock);
            let skips = crate::deadline::skips();
            // The next acquire lands on the orphan, redirects past it
            // to the dummy, and reclaims it.
            let mut ctx = ClhContext::default();
            lock.acquire(&mut ctx);
            lock.release(&mut ctx);
            assert!(crate::deadline::skips() > skips);
            assert!(!lock.is_locked());
        }

        #[test]
        fn orphaned_abandoned_tail_is_reclaimed_on_drop() {
            // Nobody ever adopts the orphan: the lock's Drop walks the
            // escape chain and frees it along with the dummy (verified
            // under the default allocator; a double free would abort,
            // a leak shows up under the oracle's allocation checks).
            let lock = ClhLock::new();
            plant_orphan(&lock);
            drop(lock);
        }

        #[test]
        fn timeout_leaves_other_traffic_unharmed() {
            const THREADS: usize = 4;
            const ITERS: usize = 300;
            let lock = Arc::new(ClhLock::new());
            let counter = Arc::new(AtomicUsize::new(0));
            let mut handles = Vec::new();
            for i in 0..THREADS {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                handles.push(std::thread::spawn(move || {
                    let mut ctx = ClhContext::default();
                    let mut held = 0usize;
                    for _ in 0..ITERS {
                        if i % 2 == 0 {
                            let d = Instant::now() + Duration::from_micros(50);
                            if !lock.try_acquire_until(&mut ctx, d) {
                                continue;
                            }
                        } else {
                            lock.acquire(&mut ctx);
                        }
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                        held += 1;
                        lock.release(&mut ctx);
                    }
                    held
                }));
            }
            let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(counter.load(Ordering::Relaxed), total);
        }
    }
}
