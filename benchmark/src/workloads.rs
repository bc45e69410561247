//! The seven workloads: what is set up, which public function one
//! operation calls, and how its result is checked.
//!
//! All of them are closed loops — a lock user is a thread that blocks
//! until its own operation returns — with 1 or 2 clients. Client *i* is
//! pinned to host CPU *i* and declares a cohort CPU id in
//! `platforms::tiny()` (8 CPUs: cache pairs inside 2 NUMA quads). The
//! host is flat, so the cohort id selects a code path (pass inside a
//! leaf, or climb and meet at the root), not a physical distance.

use std::sync::Arc;

use clof::{ClofMutex, ClofMutexHandle, LockKind};
use clof_kvstore::cabinet::CabinetHandle;
use clof_kvstore::{CabinetDb, LockChoice, MiniDb, MiniDbHandle, MiniDbOptions};
use clof_topology::platforms;

use crate::keys::{key, value_for, value_ok, Key, KeyStream, Mix, Op};
use crate::span::{Call, OpRecord, SpanBuf};

/// The composition behind every fast-dispatch-tier number.
pub const MCS_CLH_TKT: [LockKind; 3] = [LockKind::Mcs, LockKind::Clh, LockKind::Ticket];
/// A composition with no monomorphized tier: generic enum dispatch.
pub const TKT_CLH_TKT: [LockKind; 3] = [LockKind::Ticket, LockKind::Clh, LockKind::Ticket];

/// Working sets are sized to stay in a private cache: a neighbour's
/// last-level-cache pressure is not ours to measure.
pub const CABINET_KEYS: usize = 1024;
pub const CABINET_BUCKETS: usize = 1024;
pub const MINIDB_KEYS: usize = 2048;
/// 2 048 filled keys make 4 runs; puts then flush every 512 distinct
/// keys and merge-compact at the 9th run, all under the lock.
pub const MINIDB_OPTIONS: MiniDbOptions = MiniDbOptions {
    memtable_limit: 512,
    max_runs: 8,
};

pub enum Kind {
    /// `ClofMutex<u64>`: `lock(); *g += 1; drop`.
    Lock,
    /// `CabinetDb` under the given lock, 80 % `get` / 20 % `set`.
    Cabinet(fn() -> LockChoice),
    /// `MiniDb` under `Clof(mcs-clh-tkt)`, `write_pct` % `put`.
    MiniDb { write_pct: u64 },
}

pub struct Spec {
    pub name: &'static str,
    /// Cohort CPU id in `platforms::tiny()` each client declares; its
    /// length is the client count.
    pub cohort_cpus: &'static [usize],
    /// Produced by the binary built with `--features obs`.
    pub obs_build: bool,
    pub kind: Kind,
}

pub const CABINET_WRITE_PCT: u64 = 20;

pub fn cabinet_fast() -> LockChoice {
    LockChoice::ClofFast(MCS_CLH_TKT.to_vec())
}

pub fn cabinet_generic() -> LockChoice {
    LockChoice::Clof(TKT_CLH_TKT.to_vec())
}

/// Names are fixed; later issues cite them.
pub const SPECS: [Spec; 7] = [
    Spec {
        name: "lock_solo_1t",
        cohort_cpus: &[0],
        obs_build: false,
        kind: Kind::Lock,
    },
    Spec {
        name: "lock_pass_2t",
        cohort_cpus: &[0, 1],
        obs_build: false,
        kind: Kind::Lock,
    },
    Spec {
        name: "lock_pass_2t_obs",
        cohort_cpus: &[0, 1],
        obs_build: true,
        kind: Kind::Lock,
    },
    Spec {
        name: "cabinet_mix_1t",
        cohort_cpus: &[0],
        obs_build: false,
        kind: Kind::Cabinet(cabinet_fast),
    },
    Spec {
        name: "cabinet_mix_2t",
        cohort_cpus: &[0, 4],
        obs_build: false,
        kind: Kind::Cabinet(cabinet_generic),
    },
    Spec {
        name: "minidb_read_2t",
        cohort_cpus: &[0, 1],
        obs_build: false,
        kind: Kind::MiniDb { write_pct: 0 },
    },
    Spec {
        name: "minidb_rw_2t",
        cohort_cpus: &[0, 1],
        obs_build: false,
        kind: Kind::MiniDb { write_pct: 10 },
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// What one operation enters: the one public call into the repo.
pub trait Target: Send {
    /// Performs `op`; a `Get` returns what the store returned.
    fn call(&mut self, op: Op) -> Option<Vec<u8>>;
    /// Span name of the call `op` makes.
    fn call_kind(op: &Op) -> Call;
}

impl Target for ClofMutexHandle<u64> {
    #[inline]
    fn call(&mut self, _op: Op) -> Option<Vec<u8>> {
        *self.lock() += 1;
        None
    }

    fn call_kind(_op: &Op) -> Call {
        Call::MutexLock
    }
}

impl Target for CabinetHandle {
    #[inline]
    fn call(&mut self, op: Op) -> Option<Vec<u8>> {
        match op {
            Op::Get(key) => self.get(&key),
            Op::Put(key, value) => {
                self.set(key, value);
                None
            }
            Op::Incr => unreachable!("counter op on a store"),
        }
    }

    fn call_kind(op: &Op) -> Call {
        match op {
            Op::Put(..) => Call::CabinetSet,
            _ => Call::CabinetGet,
        }
    }
}

impl Target for MiniDbHandle {
    #[inline]
    fn call(&mut self, op: Op) -> Option<Vec<u8>> {
        match op {
            Op::Get(key) => self.get(&key),
            Op::Put(key, value) => {
                self.put(key, value);
                None
            }
            Op::Incr => unreachable!("counter op on a store"),
        }
    }

    fn call_kind(op: &Op) -> Call {
        match op {
            Op::Put(..) => Call::MiniDbPut,
            _ => Call::MiniDbGet,
        }
    }
}

/// A `Get` must return a well-formed value of its key (every key was
/// filled at set-up and is never deleted); other operations return
/// nothing.
#[inline]
fn reply_ok(wanted: Option<Key>, reply: Option<Vec<u8>>) -> bool {
    match (wanted, reply) {
        (Some(key), Some(value)) => value_ok(&key, &value),
        (None, None) => true,
        _ => false,
    }
}

#[inline]
fn wanted(op: &Op) -> Option<Key> {
    match op {
        Op::Get(key) => Some(*key),
        _ => None,
    }
}

/// One closed-loop client: its handle into the program and its stream.
pub struct Client<T> {
    target: T,
    stream: KeyStream,
    /// Operations issued so far, warm-up and every kind of slice included.
    pub ops: u64,
}

impl<T: Target> Client<T> {
    pub fn new(target: T, stream: KeyStream) -> Self {
        Client {
            target,
            stream,
            ops: 0,
        }
    }

    /// One operation: make the input, make the call, check the result.
    /// Returns whether the result was right.
    #[inline]
    pub fn op(&mut self) -> bool {
        let op = self.stream.next_op();
        let wanted = wanted(&op);
        let reply = self.target.call(op);
        self.ops += 1;
        reply_ok(wanted, reply)
    }

    /// [`Self::op`] with its three parts bracketed by clock reads and
    /// recorded in `buf`.
    #[inline]
    pub fn op_traced(&mut self, epoch: std::time::Instant, buf: &mut SpanBuf) -> bool {
        let now = || epoch.elapsed().as_nanos() as u64;
        let t0 = now();
        let op = self.stream.next_op();
        let wanted = wanted(&op);
        let call = T::call_kind(&op);
        let t1 = now();
        let reply = self.target.call(op);
        let t2 = now();
        let ok = reply_ok(wanted, reply);
        let t3 = now();
        buf.push(OpRecord {
            seq: self.ops as u32,
            call,
            t: [t0, t1, t2, t3],
        });
        self.ops += 1;
        ok
    }
}

/// Result of the final-state check made once after the last slice.
#[derive(Debug, Default, Clone, Copy)]
pub struct FinalCheck {
    /// Operations the check itself issued.
    pub attempted: u64,
    /// Wrong results it found: lost increments, or 1 per failed check.
    pub failed: u64,
}

/// Everything one set-up produces.
pub struct Rig<T> {
    pub clients: Vec<Client<T>>,
    /// Given the number of operations all clients issued, checks the
    /// final state of what they operated on.
    pub finish: Box<dyn FnOnce(u64) -> FinalCheck>,
}

/// `ClofMutex<u64>` over `mcs-clh-tkt` (fast-dispatch tier) and one
/// handle per client. Final check: no increment was lost.
pub fn setup_lock(seed: u64, cohort_cpus: &[usize]) -> Rig<ClofMutexHandle<u64>> {
    let hierarchy = platforms::tiny();
    let mutex =
        Arc::new(ClofMutex::new(0u64, &hierarchy, &MCS_CLH_TKT).expect("mcs-clh-tkt fits tiny()"));
    let clients = cohort_cpus
        .iter()
        .enumerate()
        .map(|(i, &cpu)| Client::new(mutex.handle(cpu), KeyStream::new(seed, i, Mix::Counter)))
        .collect();
    let mut reader = mutex.handle(cohort_cpus[0]);
    Rig {
        clients,
        finish: Box::new(move |ops| FinalCheck {
            attempted: 0,
            failed: ops.abs_diff(*reader.lock()),
        }),
    }
}

fn kv_clients<T: Target>(
    seed: u64,
    cohort_cpus: &[usize],
    mix: Mix,
    handle: impl Fn(usize) -> T,
) -> Vec<Client<T>> {
    cohort_cpus
        .iter()
        .enumerate()
        .map(|(i, &cpu)| Client::new(handle(cpu), KeyStream::new(seed, i, mix)))
        .collect()
}

/// `CabinetDb` with 1 024 buckets, filled with 1 024 keys. Final check:
/// `len()` is still the key space (sets only overwrite).
pub fn setup_cabinet(
    seed: u64,
    cohort_cpus: &[usize],
    choice: &LockChoice,
    write_pct: u64,
) -> Rig<CabinetHandle> {
    let hierarchy = platforms::tiny();
    let db = CabinetDb::open(&hierarchy, choice, CABINET_BUCKETS).expect("lock fits tiny()");
    let mut filler = db.handle(cohort_cpus[0]);
    for i in 0..CABINET_KEYS {
        let key = key(i);
        filler.set(key.to_vec(), value_for(&key, i as u8));
    }
    let mix = Mix::Kv {
        keys: CABINET_KEYS,
        write_pct,
    };
    Rig {
        clients: kv_clients(seed, cohort_cpus, mix, |cpu| db.handle(cpu)),
        finish: Box::new(move |_| FinalCheck {
            attempted: 1,
            failed: u64::from(filler.len() != CABINET_KEYS),
        }),
    }
}

/// An empty `MiniDb` under `Clof(mcs-clh-tkt)`.
pub fn open_minidb() -> MiniDb {
    let choice = LockChoice::Clof(MCS_CLH_TKT.to_vec());
    MiniDb::open(&platforms::tiny(), &choice, MINIDB_OPTIONS).expect("mcs-clh-tkt fits tiny()")
}

/// Puts each of the `MINIDB_KEYS` keys once.
pub fn fill_minidb(handle: &mut MiniDbHandle) {
    for i in 0..MINIDB_KEYS {
        let key = key(i);
        handle.put(key.to_vec(), value_for(&key, i as u8));
    }
}

/// `MiniDb` under `Clof(mcs-clh-tkt)`, filled with 2 048 keys (4 runs).
/// Final check: a full `scan` is strictly ascending and is the key space.
pub fn setup_minidb(seed: u64, cohort_cpus: &[usize], write_pct: u64) -> Rig<MiniDbHandle> {
    let db = open_minidb();
    let mut filler = db.handle(cohort_cpus[0]);
    fill_minidb(&mut filler);
    let mix = Mix::Kv {
        keys: MINIDB_KEYS,
        write_pct,
    };
    Rig {
        clients: kv_clients(seed, cohort_cpus, mix, |cpu| db.handle(cpu)),
        finish: Box::new(move |_| {
            let all = filler.scan(&[0x00; 8], &[0xFF; 9], usize::MAX);
            let sorted = all.windows(2).all(|w| w[0].0 < w[1].0);
            let whole = all.len() == MINIDB_KEYS && all.iter().all(|(k, v)| value_ok(k, v));
            FinalCheck {
                attempted: 1,
                failed: u64::from(!(sorted && whole)),
            }
        }),
    }
}

/// Flushes and compactions after one client issued exactly `ops`
/// operations of the `minidb_rw_2t` stream: a count that repeats exactly
/// for a given seed.
pub fn minidb_maintenance_counts(seed: u64, write_pct: u64, ops: u64) -> (u64, u64) {
    let db = open_minidb();
    let mut handle = db.handle(0);
    fill_minidb(&mut handle);
    let before = handle.maintenance_counters();
    let mix = Mix::Kv {
        keys: MINIDB_KEYS,
        write_pct,
    };
    let mut client = Client::new(db.handle(0), KeyStream::new(seed, 0, mix));
    for _ in 0..ops {
        client.op();
    }
    let after = handle.maintenance_counters();
    (after.0 - before.0, after.1 - before.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive<T: Target>(rig: Rig<T>, ops_each: usize) -> (u64, FinalCheck) {
        let Rig {
            mut clients,
            finish,
        } = rig;
        let mut failed = 0;
        for c in &mut clients {
            for _ in 0..ops_each {
                failed += u64::from(!c.op());
            }
        }
        let ops = clients.iter().map(|c| c.ops).sum();
        drop(clients);
        (failed, finish(ops))
    }

    #[test]
    fn every_workload_checks_clean_single_threaded() {
        for spec in &SPECS {
            let (failed, fin) = match spec.kind {
                Kind::Lock => drive(setup_lock(1, spec.cohort_cpus), 5_000),
                Kind::Cabinet(choice) => drive(
                    setup_cabinet(1, spec.cohort_cpus, &choice(), CABINET_WRITE_PCT),
                    5_000,
                ),
                Kind::MiniDb { write_pct } => {
                    drive(setup_minidb(1, spec.cohort_cpus, write_pct), 20_000)
                }
            };
            assert_eq!((failed, fin.failed), (0, 0), "{}", spec.name);
        }
    }

    #[test]
    fn lost_increment_is_reported() {
        let rig = setup_lock(1, &[0, 1]);
        let (_, fin) = drive(rig, 10);
        assert_eq!(fin.failed, 0);
        let rig = setup_lock(1, &[0]);
        // Claim three more operations than were made.
        assert_eq!((rig.finish)(3).failed, 3);
    }

    #[test]
    fn wrong_replies_are_reported() {
        let key: Key = [7; 8];
        assert!(reply_ok(Some(key), Some(value_for(&key, 1))));
        assert!(!reply_ok(Some(key), None), "missing pre-filled key");
        assert!(!reply_ok(Some(key), Some(vec![0; 24])), "wrong value");
        assert!(reply_ok(None, None));
        assert!(!reply_ok(None, Some(vec![])));
    }

    #[test]
    fn traced_op_records_ordered_boundaries() {
        let mut rig = setup_cabinet(2, &[0], &cabinet_fast(), CABINET_WRITE_PCT);
        let mut buf = SpanBuf::with_capacity(100);
        let epoch = std::time::Instant::now();
        for _ in 0..100 {
            assert!(rig.clients[0].op_traced(epoch, &mut buf));
        }
        assert_eq!(buf.records().len(), 100);
        for (i, r) in buf.records().iter().enumerate() {
            assert_eq!(r.seq as usize, i);
            assert!(r.t.windows(2).all(|w| w[0] <= w[1]));
            assert!(matches!(r.call, Call::CabinetGet | Call::CabinetSet));
        }
    }

    #[test]
    fn minidb_rw_flushes_and_compacts_the_same_for_a_seed() {
        let (flushes, compactions) = minidb_maintenance_counts(3, 10, 60_000);
        assert!(
            flushes >= 5 && compactions >= 1,
            "{flushes} flushes, {compactions} compactions"
        );
        assert_eq!(
            minidb_maintenance_counts(3, 10, 60_000),
            (flushes, compactions)
        );
        assert_eq!(
            minidb_maintenance_counts(3, 0, 1_000),
            (0, 0),
            "reads never flush"
        );
    }
}
