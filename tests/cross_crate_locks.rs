//! Cross-crate lock stress: every lock family guarding the same store,
//! and compositions exercised on the paper hierarchies with real threads.

use std::sync::Arc;

use clof::{DynClofLock, LockKind};
use clof_kvstore::{CabinetDb, LockChoice, MiniDb, MiniDbOptions};
use clof_topology::platforms;

fn hammer_lock(lock: Arc<DynClofLock>, cpus: &[usize], iters: usize) -> usize {
    let counter = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let mut threads = Vec::new();
    for &cpu in cpus {
        let lock = Arc::clone(&lock);
        let counter = Arc::clone(&counter);
        threads.push(std::thread::spawn(move || {
            let mut handle = lock.handle(cpu);
            for _ in 0..iters {
                handle.acquire();
                let v = counter.load(std::sync::atomic::Ordering::Relaxed);
                counter.store(v + 1, std::sync::atomic::Ordering::Relaxed);
                handle.release();
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    counter.load(std::sync::atomic::Ordering::Relaxed)
}

#[test]
fn all_heterogeneous_3level_compositions_on_tiny() {
    // Every pairwise-heterogeneous 3-level composition of the fair set,
    // with threads spanning all cohorts: 64 compositions, each must
    // preserve mutual exclusion.
    let h = platforms::tiny();
    let combos = clof::compositions(&LockKind::PAPER_ARM, 3);
    assert_eq!(combos.len(), 64);
    for combo in combos {
        let lock = Arc::new(DynClofLock::build(&h, &combo).unwrap());
        let got = hammer_lock(lock, &[0, 3, 4, 7], 200);
        assert_eq!(got, 800, "{}", clof::composition_name(&combo));
    }
}

#[test]
fn deep_composition_on_paper_x86() {
    // The full 5-level x86 hierarchy (core/cache/numa/package/system).
    let h = platforms::paper_x86();
    let combo = [
        LockKind::HemlockCtr,
        LockKind::HemlockCtr,
        LockKind::Mcs,
        LockKind::Clh,
        LockKind::Ticket,
    ];
    let lock = Arc::new(DynClofLock::build(&h, &combo).unwrap());
    // CPUs chosen to exercise every level boundary: HT sibling (0,48),
    // cache neighbour (1), NUMA neighbour (3), cross-package (24).
    let got = hammer_lock(lock, &[0, 48, 1, 3, 24, 72], 300);
    assert_eq!(got, 1800);
}

#[test]
fn minidb_consistent_under_all_lock_families() {
    let h = platforms::tiny();
    for choice in [
        LockChoice::Clof(vec![LockKind::Hemlock, LockKind::Clh, LockKind::Ticket]),
        LockChoice::Hmcs,
        LockChoice::Cna,
        LockChoice::Shfl,
        LockChoice::Std,
    ] {
        let db = Arc::new(MiniDb::open(&h, &choice, MiniDbOptions::default()).unwrap());
        let mut writers = Vec::new();
        for cpu in 0..4usize {
            let db = Arc::clone(&db);
            writers.push(std::thread::spawn(move || {
                let mut handle = db.handle(cpu * 2);
                for i in 0..250usize {
                    handle.put(
                        format!("{cpu}-{i}").into_bytes(),
                        vec![cpu as u8, i as u8],
                    );
                }
            }));
        }
        for w in writers {
            w.join().unwrap();
        }
        let mut handle = db.handle(0);
        for cpu in 0..4usize {
            for i in (0..250usize).step_by(49) {
                assert_eq!(
                    handle.get(format!("{cpu}-{i}").as_bytes()),
                    Some(vec![cpu as u8, i as u8]),
                    "{choice:?}"
                );
            }
        }
    }
}

/// The gets among `CabinetHandle::mixed_workload(ops, _, seed)`'s
/// operations: its generator replayed (xorshift64*, a set when the draw
/// is 0 mod 5).
fn mixed_workload_gets(ops: usize, seed: u64) -> usize {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..ops)
        .filter(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D) % 5 != 0
        })
        .count()
}

#[test]
fn cabinet_mixed_workload_under_clof() {
    let h = platforms::paper_armv8_3level();
    let tree = vec![LockKind::Ticket, LockKind::Clh, LockKind::Ticket];
    for choice in [
        LockChoice::Clof(tree.clone()),
        LockChoice::ClofFast(tree),
        LockChoice::Hmcs,
        LockChoice::Cna,
        LockChoice::Shfl,
        LockChoice::Basic(LockKind::Mcs),
        LockChoice::Std,
    ] {
        let db = Arc::new(CabinetDb::open(&h, &choice, 256).unwrap());
        {
            let mut handle = db.handle(0);
            for i in 0..1000u64 {
                handle.set(i.to_be_bytes().to_vec(), vec![0]);
            }
        }
        let mut workers = Vec::new();
        for (i, cpu) in [0usize, 33, 66, 127].into_iter().enumerate() {
            let db = Arc::clone(&db);
            workers.push(std::thread::spawn(move || {
                db.handle(cpu).mixed_workload(2000, 1000, i as u64)
            }));
        }
        for (i, w) in workers.into_iter().enumerate() {
            // Every key was filled first, so every get hits.
            assert_eq!(
                w.join().unwrap(),
                mixed_workload_gets(2000, i as u64),
                "{choice:?}: a get missed a filled key"
            );
        }
        assert_eq!(db.handle(0).len(), 1000, "{choice:?}: sets only overwrite");
    }
}

#[test]
fn static_and_dyn_compositions_agree_behaviourally() {
    use clof::compose::build3;
    use clof::ClofParams;
    use clof_locks::{ClhLock, McsLock, TicketLock};

    let h = platforms::tiny();
    let static_tree = Arc::new(
        build3::<McsLock, ClhLock, TicketLock>(&h, ClofParams::default()).unwrap(),
    );
    let dyn_lock = Arc::new(
        DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket]).unwrap(),
    );
    assert_eq!(static_tree.name(), dyn_lock.name());

    let counter = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let mut threads = Vec::new();
    for cpu in 0..8usize {
        let counter = Arc::clone(&counter);
        if cpu % 2 == 0 {
            let tree = Arc::clone(&static_tree);
            threads.push(std::thread::spawn(move || {
                let mut handle = tree.handle(cpu);
                for _ in 0..400 {
                    handle.acquire();
                    let v = counter.load(std::sync::atomic::Ordering::Relaxed);
                    counter.store(v + 1, std::sync::atomic::Ordering::Relaxed);
                    handle.release();
                }
            }));
        } else {
            let lock = Arc::clone(&dyn_lock);
            threads.push(std::thread::spawn(move || {
                let mut handle = lock.handle(cpu);
                for _ in 0..400 {
                    handle.acquire();
                    handle.release();
                }
            }));
        }
    }
    for t in threads {
        t.join().unwrap();
    }
    // Note: static and dyn trees are *different lock instances*; the
    // counter is only touched under the static tree. The dyn threads
    // exercise their own lock concurrently.
    assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 1600);
}
