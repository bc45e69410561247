//! CabinetDb: a hash store in the Kyoto Cabinet HashDB mould.
//!
//! Kyoto Cabinet's in-memory hash databases serialize every operation on
//! the database lock — the paper uses one as the cross-validation
//! workload (§5.1.2). This stand-in keeps that contention profile: all
//! access goes through one pluggable [`DbMutex`], and the store's job is
//! to make the critical section short and its footprint small.
//!
//! Where it departs from Kyoto. Kyoto chains records off a fixed bucket
//! array. Here the table is open-addressed: linear probing over a
//! power-of-two slot array that is at most half full and doubles when an
//! insert would pass that. A slot holds the key's 64-bit hash and one
//! boxed record, `key ++ value`, so a lookup compares hashes inside the
//! slot array and touches one record allocation — not a bucket `Vec`, a
//! chain buffer, a key and a value. The hash is MurmurHash64A, 8 bytes
//! per step, as under Kyoto's `hashmurmur`. A set of a value as long as the
//! stored one overwrites it in place. Removal shifts the rest of the
//! probe cluster back (no tombstones), so set/remove churn does not
//! lengthen probes. Whatever an operation frees — the caller's key and
//! value buffers, a replaced record, a grown-out slot array — is dropped
//! after the lock is released.
//!
//! `CabinetDb::open`'s `buckets` is therefore the number of records the
//! store holds before its table first grows: the initial slot array has
//! `2 × buckets` slots, rounded up to a power of two.

use std::sync::Arc;

use clof::ClofError;
use clof_topology::{CpuId, Hierarchy};

use crate::hash::hash;
use crate::lock::{DbHandle, DbMutex, LockChoice};

/// An occupied slot: the key's hash and the record `key ++ value` in
/// one allocation.
struct Record {
    hash: u64,
    key_len: usize,
    bytes: Box<[u8]>,
}

impl Record {
    fn new(hash: u64, key: &[u8], value: &[u8]) -> Self {
        let mut bytes = Vec::with_capacity(key.len() + value.len());
        bytes.extend_from_slice(key);
        bytes.extend_from_slice(value);
        Record {
            hash,
            key_len: key.len(),
            bytes: bytes.into_boxed_slice(),
        }
    }

    fn key(&self) -> &[u8] {
        &self.bytes[..self.key_len]
    }

    fn value(&self) -> &[u8] {
        &self.bytes[self.key_len..]
    }
}

/// What a set took out of the table: a replaced record, and the slot
/// array a grow replaced (an empty `Vec`, which owns no memory, if the
/// table did not grow). It leaves the critical section as the closure's
/// result and is dropped after the lock is released.
type Spent = (Option<Record>, Vec<Option<Record>>);

struct Inner {
    /// Power-of-two length, at most half occupied.
    slots: Vec<Option<Record>>,
    len: usize,
}

fn empty_slots(n: usize) -> Vec<Option<Record>> {
    (0..n).map(|_| None).collect()
}

impl Inner {
    fn with_records(records: usize) -> Self {
        Inner {
            slots: empty_slots((2 * records.max(1)).next_power_of_two()),
            len: 0,
        }
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// `Ok` with the slot that holds `key`, or `Err` with the empty slot
    /// that ends its probe. Only a slot whose stored hash matches has its
    /// record read. Terminates because at least half the slots are empty.
    fn probe(&self, hash: u64, key: &[u8]) -> Result<usize, usize> {
        let mask = self.mask();
        let mut i = hash as usize & mask;
        loop {
            match &self.slots[i] {
                None => return Err(i),
                Some(r) if r.hash == hash && r.key() == key => return Ok(i),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    fn set(&mut self, key: &[u8], value: &[u8]) -> Spent {
        let hash = hash(key);
        match self.probe(hash, key) {
            Ok(i) => {
                let r = self.slots[i]
                    .as_mut()
                    .expect("probe returned an occupied slot");
                if r.value().len() == value.len() {
                    r.bytes[r.key_len..].copy_from_slice(value);
                    (None, Vec::new())
                } else {
                    (
                        Some(std::mem::replace(r, Record::new(hash, key, value))),
                        Vec::new(),
                    )
                }
            }
            Err(mut i) => {
                let mut old_slots = Vec::new();
                if 2 * (self.len + 1) > self.slots.len() {
                    old_slots = self.grow();
                    i = self
                        .probe(hash, key)
                        .expect_err("key absent before the grow");
                }
                self.slots[i] = Some(Record::new(hash, key, value));
                self.len += 1;
                (None, old_slots)
            }
        }
    }

    /// Doubles the slot array and re-homes every record into it. Returns
    /// the old array, emptied, so that it is freed outside the lock.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) -> Vec<Option<Record>> {
        let bigger = empty_slots(2 * self.slots.len());
        let mut old = std::mem::replace(&mut self.slots, bigger);
        let mask = self.mask();
        for r in old.iter_mut().filter_map(Option::take) {
            let mut i = r.hash as usize & mask;
            while self.slots[i].is_some() {
                i = (i + 1) & mask;
            }
            self.slots[i] = Some(r);
        }
        old
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let i = self.probe(hash(key), key).ok()?;
        self.slots[i].as_ref().map(|r| r.value().to_vec())
    }

    /// Removes `key` by backward-shift deletion and returns its record
    /// for the caller to free outside the lock.
    fn remove(&mut self, key: &[u8]) -> Option<Record> {
        let i = self.probe(hash(key), key).ok()?;
        let removed = self.slots[i].take();
        self.len -= 1;
        // Walk the rest of the cluster. A record may fill the hole only if
        // the hole lies on its probe path — cyclically between its home
        // slot and where it sits — or a lookup from home would stop at the
        // hole before reaching it.
        let mask = self.mask();
        let (mut hole, mut j) = (i, (i + 1) & mask);
        while let Some(r) = &self.slots[j] {
            let home = r.hash as usize & mask;
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[j].take();
                hole = j;
            }
            j = (j + 1) & mask;
        }
        removed
    }
}

/// The Kyoto Cabinet stand-in store.
///
/// # Examples
///
/// ```
/// use clof_kvstore::{CabinetDb, LockChoice};
/// use clof_topology::platforms;
///
/// let db = CabinetDb::open(&platforms::tiny(), &LockChoice::Hmcs, 1024).unwrap();
/// let mut handle = db.handle(0);
/// handle.set(b"k".to_vec(), b"v".to_vec());
/// assert_eq!(handle.get(b"k"), Some(b"v".to_vec()));
/// ```
pub struct CabinetDb {
    inner: Arc<DbMutex<Inner>>,
}

impl CabinetDb {
    /// Opens an empty store that holds `buckets` records before its
    /// table first grows.
    ///
    /// # Errors
    ///
    /// Propagates lock-composition errors.
    pub fn open(
        hierarchy: &Hierarchy,
        choice: &LockChoice,
        buckets: usize,
    ) -> Result<Self, ClofError> {
        Ok(CabinetDb {
            inner: Arc::new(DbMutex::new(
                Inner::with_records(buckets),
                hierarchy,
                choice,
            )?),
        })
    }

    /// A store handle for a thread running on `cpu`.
    pub fn handle(&self, cpu: CpuId) -> CabinetHandle {
        CabinetHandle {
            handle: self.inner.handle(cpu),
        }
    }

    /// Telemetry snapshot of the store's lock (`None` for lock choices
    /// that do not record telemetry); see [`DbMutex::stats`].
    #[cfg(feature = "obs")]
    pub fn stats(&self) -> Option<clof::obs::LockSnapshot> {
        self.inner.stats()
    }

    /// Windowed lock-telemetry rates since `sampler`'s previous tick;
    /// see [`DbMutex::stats_window`].
    #[cfg(feature = "obs")]
    pub fn stats_window(&self, sampler: &mut clof::obs::Sampler) -> Option<clof::obs::WindowRates> {
        self.inner.stats_window(sampler)
    }
}

/// Per-thread handle on a [`CabinetDb`].
pub struct CabinetHandle {
    handle: DbHandle<Inner>,
}

impl CabinetHandle {
    /// Inserts or overwrites a record.
    pub fn set(&mut self, key: Vec<u8>, value: Vec<u8>) {
        let spent = self.handle.with(|db| db.set(&key, &value));
        // Freed here, after the lock is released.
        drop((key, value, spent));
    }

    /// Retrieves a record.
    pub fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.handle.with(|db| db.get(key))
    }

    /// Removes a record; returns whether it existed.
    pub fn remove(&mut self, key: &[u8]) -> bool {
        // The record is freed after the lock is released.
        self.handle.with(|db| db.remove(key)).is_some()
    }

    /// Number of records.
    pub fn len(&mut self) -> usize {
        self.handle.with(|db| db.len)
    }

    /// Whether the store is empty.
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }

    /// The Kyoto-style mixed benchmark: `ops` operations, 80% get / 20%
    /// set, over `key_space` keys. Returns the number of successful gets.
    /// The key comes from the draw's high half and the operation from its
    /// low bits, so which keys are set does not depend on `key_space`.
    pub fn mixed_workload(&mut self, ops: usize, key_space: usize, seed: u64) -> usize {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut hits = 0;
        for _ in 0..ops {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let key = ((r >> 32) % key_space.max(1) as u64).to_be_bytes().to_vec();
            if r % 5 == 0 {
                self.set(key, vec![0xCD; 24]);
            } else if self.get(&key).is_some() {
                hits += 1;
            }
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clof::LockKind;
    use clof_topology::platforms;

    fn open_tiny() -> CabinetDb {
        CabinetDb::open(
            &platforms::tiny(),
            &LockChoice::Clof(vec![LockKind::Ticket, LockKind::Clh, LockKind::Ticket]),
            64,
        )
        .unwrap()
    }

    #[test]
    fn set_get_remove_roundtrip() {
        let db = open_tiny();
        let mut h = db.handle(0);
        assert!(h.is_empty());
        h.set(b"a".to_vec(), b"1".to_vec());
        h.set(b"b".to_vec(), b"2".to_vec());
        assert_eq!(h.len(), 2);
        assert_eq!(h.get(b"a"), Some(b"1".to_vec()));
        assert!(h.remove(b"a"));
        assert!(!h.remove(b"a"));
        assert_eq!(h.get(b"a"), None);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn overwrite_keeps_len() {
        let db = open_tiny();
        let mut h = db.handle(0);
        h.set(b"k".to_vec(), b"1".to_vec());
        h.set(b"k".to_vec(), b"2".to_vec());
        assert_eq!(h.len(), 1);
        assert_eq!(h.get(b"k"), Some(b"2".to_vec()));
    }

    #[test]
    fn probing_survives_growth_from_one_record() {
        // Room for one record ⇒ the table grows through 2 … 256 slots and
        // every insert probes past earlier ones.
        let db = CabinetDb::open(&platforms::tiny(), &LockChoice::Std, 1).unwrap();
        let mut h = db.handle(0);
        for i in 0..100u32 {
            h.set(i.to_be_bytes().to_vec(), vec![i as u8]);
        }
        assert_eq!(h.len(), 100);
        for i in 0..100u32 {
            assert_eq!(h.get(&i.to_be_bytes()), Some(vec![i as u8]));
        }
    }

    /// The first 4-byte big-endian counter not in `taken` whose home slot
    /// in a `slots`-slot table is `home`.
    fn key_homed_at(home: usize, slots: usize, taken: &[Vec<u8>]) -> Vec<u8> {
        (0u32..)
            .map(|i| i.to_be_bytes().to_vec())
            .find(|k| hash(k) as usize & (slots - 1) == home && !taken.contains(k))
            .unwrap()
    }

    #[test]
    fn remove_from_a_cluster_that_wraps_keeps_every_key_reachable() {
        // 16 slots, homes 14, 14, 15, 0, 2 ⇒ the cluster sits at slots
        // 14, 15, 0, 1, 2 and wraps past the end. Removing the record at
        // 15 must shift the one homed at 15 back into the hole (its home
        // *is* the hole), shift the one homed at 0 after it, and leave the
        // one at its home slot 2 where it is.
        let mut db = Inner::with_records(8);
        assert_eq!(db.slots.len(), 16);
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for home in [14, 14, 15, 0, 2] {
            let k = key_homed_at(home, 16, &keys);
            keys.push(k);
        }
        for (i, k) in keys.iter().enumerate() {
            db.set(k, &[i as u8]);
        }
        let at = |db: &Inner, slot: usize| db.slots[slot].as_ref().map(|r| r.key().to_vec());
        assert_eq!(
            at(&db, 15),
            Some(keys[1].clone()),
            "second home-14 key probed to 15"
        );
        assert_eq!(at(&db, 2), Some(keys[4].clone()));
        assert!(db.remove(&keys[1]).is_some());
        assert_eq!(db.len, 4);
        for (i, k) in keys.iter().enumerate().filter(|&(i, _)| i != 1) {
            assert_eq!(db.get(k), Some(vec![i as u8]), "key {i} lost");
        }
        assert_eq!(db.get(&keys[1]), None);
        assert_eq!(at(&db, 15), Some(keys[2].clone()));
        assert_eq!(at(&db, 0), Some(keys[3].clone()));
        assert_eq!(at(&db, 1), None);
        assert_eq!(at(&db, 2), Some(keys[4].clone()));
    }

    #[test]
    fn mixed_workload_deterministic_and_progressing() {
        let db = open_tiny();
        let mut h = db.handle(0);
        for i in 0..256u64 {
            h.set(i.to_be_bytes().to_vec(), vec![1]);
        }
        let a = h.mixed_workload(1000, 256, 9);
        assert!(a > 0);
        // Note: the workload mutates (sets), so back-to-back runs are not
        // compared; determinism is exercised across two fresh stores.
        let db2 = open_tiny();
        let mut h2 = db2.handle(0);
        for i in 0..256u64 {
            h2.set(i.to_be_bytes().to_vec(), vec![1]);
        }
        assert_eq!(h2.mixed_workload(1000, 256, 9), a);
    }

    #[test]
    fn mixed_workload_draws_key_and_operation_apart() {
        // On an empty store only sets create keys. With 5 | key_space, a
        // key drawn from the same bits as the 1-in-5 set would be ≡ 0 mod
        // 5 on every set, and no get would read a key being set.
        let db = open_tiny();
        let mut h = db.handle(0);
        assert!(
            h.mixed_workload(4000, 1000, 3) > 0,
            "gets read keys that sets made"
        );
        let set: Vec<u64> = (0..1000u64)
            .filter(|k| h.get(&k.to_be_bytes()).is_some())
            .collect();
        assert_eq!(set.len(), h.len());
        assert!((0..5).all(|r| set.iter().any(|k| k % 5 == r)), "{set:?}");
    }

    #[test]
    fn concurrent_mixed_workload_under_hmcs() {
        let db = Arc::new(CabinetDb::open(&platforms::tiny(), &LockChoice::Hmcs, 128).unwrap());
        {
            let mut h = db.handle(0);
            for i in 0..512u64 {
                h.set(i.to_be_bytes().to_vec(), vec![2]);
            }
        }
        let mut threads = Vec::new();
        for cpu in 0..8 {
            let db = Arc::clone(&db);
            threads.push(std::thread::spawn(move || {
                db.handle(cpu).mixed_workload(500, 512, cpu as u64)
            }));
        }
        for t in threads {
            assert!(t.join().unwrap() > 0);
        }
    }

    mod props {
        use super::*;
        use clof_testkit::gen::{any_u8, element_of, one_of, vec_of, zip, Gen};
        use clof_testkit::{props, tk_assert_eq, Config};
        use std::collections::HashMap;

        /// Keys of 0–12 bytes over three letters, so keys repeat across
        /// operations and cross the 8-byte word boundary of the hash.
        fn key() -> Gen<Vec<u8>> {
            vec_of(element_of(vec![0x00, 0x01, 0xFF]), 0, 13)
        }

        #[derive(Debug, Clone)]
        enum Op {
            /// Value length 0–2, so overwrites go both in place and not.
            Set(Vec<u8>, Vec<u8>),
            Get(Vec<u8>),
            Remove(Vec<u8>),
            Len,
        }

        fn op() -> Gen<Op> {
            one_of(vec![
                zip(key(), vec_of(any_u8(), 0, 3)).map(|(k, v)| Op::Set(k, v)),
                key().map(Op::Get),
                key().map(Op::Remove),
                Gen::constant(Op::Len),
            ])
        }

        props! {
            config: Config::with_cases(64);

            /// CabinetDb behaves like a `HashMap` under arbitrary set,
            /// get, remove and len sequences. Tables sized for 1–64
            /// records make probes wrap, collide and grow.
            fn matches_hashmap_model(
                buckets in element_of(vec![1usize, 2, 3, 64]),
                ops in vec_of(op(), 1, 200),
            ) {
                let db = CabinetDb::open(&platforms::tiny(), &LockChoice::Std, buckets).unwrap();
                let mut h = db.handle(0);
                let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
                for op in ops {
                    match op {
                        Op::Set(k, v) => {
                            h.set(k.clone(), v.clone());
                            model.insert(k, v);
                        }
                        Op::Get(k) => tk_assert_eq!(h.get(&k), model.get(&k).cloned()),
                        Op::Remove(k) => tk_assert_eq!(h.remove(&k), model.remove(&k).is_some()),
                        Op::Len => tk_assert_eq!(h.len(), model.len()),
                    }
                }
                for (k, v) in &model {
                    tk_assert_eq!(h.get(k), Some(v.clone()));
                }
            }
        }
    }
}
