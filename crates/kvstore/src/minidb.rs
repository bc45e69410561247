//! MiniDb: an LSM-flavoured ordered key-value store (LevelDB stand-in).
//!
//! Like LevelDB, reads and writes go through a *memtable* backed by
//! immutable sorted *runs*; the memtable is flushed when full, and runs
//! are merge-compacted when too numerous. Unlike LevelDB there is no
//! disk — runs live in memory — because the paper's `readrandom`
//! benchmark measures lock hand-off around the store's shared state, not
//! I/O. All engine state sits behind one [`DbMutex`], exactly the
//! contention profile the paper exercises.
//!
//! Where it departs from LevelDB. The memtable is a hash index, not a
//! skip list, like RocksDB's hash-indexed memtables for point lookups:
//! a get, or a put or delete of a key it holds, is one probe
//! (MurmurHash64A, as in `CabinetDb`) and one key compare; a fresh key
//! is a miss and then an insert. Key order is made only where it is read:
//! a flush drains the memtable and sorts it into the new run, and a
//! `scan` sorts the memtable entries inside its range before merging
//! them with the runs. The drained memtable keeps its capacity, so it
//! does not regrow every cycle. No store data is freed under the lock: a
//! put hands back the slot it replaced, the caller's key it made
//! redundant, and the runs a compaction merged away, and the handle
//! drops them after the unlock. (The memtable's growth during its first
//! fill and the merge's per-source buffers are still freed inside.)

use std::borrow::BorrowMut;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use clof::ClofError;
use clof_topology::{CpuId, Hierarchy};

use crate::hash::BuildMurmur;
use crate::lock::{DbHandle, DbMutex, LockChoice};

/// Tuning knobs for [`MiniDb`].
#[derive(Debug, Clone, Copy)]
pub struct MiniDbOptions {
    /// Entries in the memtable before it is flushed to a run.
    pub memtable_limit: usize,
    /// Runs allowed before a merge compaction.
    pub max_runs: usize,
}

impl Default for MiniDbOptions {
    fn default() -> Self {
        MiniDbOptions {
            memtable_limit: 4096,
            max_runs: 8,
        }
    }
}

/// A value or a deletion marker.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Slot {
    Value(Vec<u8>),
    Tombstone,
}

/// The first 8 bytes of `key`, zero-padded, read big-endian. The order of
/// prefixes is the order of keys: `key_prefix(a) < key_prefix(b)` implies
/// `a < b`, so two keys need a full compare only when their prefixes tie.
fn key_prefix(key: &[u8]) -> u64 {
    let mut bytes = [0u8; 8];
    let n = key.len().min(8);
    bytes[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(bytes)
}

/// Key order, read off the [`key_prefix`]es first: full keys are
/// compared only when the prefixes tie.
fn key_order(a: &[u8], b: &[u8]) -> Ordering {
    key_prefix(a).cmp(&key_prefix(b)).then_with(|| a.cmp(b))
}

/// An immutable sorted run: strictly ascending keys, and beside them a
/// dense fence of their [`key_prefix`]es (4 KiB per 512 keys) that a
/// lookup searches instead of chasing every key's heap pointer.
#[derive(Debug)]
struct Run {
    prefix: Vec<u64>,
    entries: Vec<(Vec<u8>, Slot)>,
}

impl Run {
    fn new(entries: Vec<(Vec<u8>, Slot)>) -> Run {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "a run's keys must be strictly ascending"
        );
        let prefix = entries.iter().map(|(k, _)| key_prefix(k)).collect();
        Run { prefix, entries }
    }

    /// The index of the first entry whose prefix ties `key`'s, and the
    /// entries of that tie: the only ones that can equal `key`.
    fn tied(&self, key: &[u8]) -> (usize, &[(Vec<u8>, Slot)]) {
        let p = key_prefix(key);
        let lo = self.prefix.partition_point(|&q| q < p);
        let ties = self.prefix[lo..].iter().take_while(|&&q| q == p).count();
        (lo, &self.entries[lo..lo + ties])
    }

    fn get(&self, key: &[u8]) -> Option<&Slot> {
        let (_, tied) = self.tied(key);
        let i = tied.binary_search_by(|(k, _)| k.as_slice().cmp(key)).ok()?;
        Some(&tied[i].1)
    }

    /// The index of the first entry whose key is `>= key`.
    fn lower_bound(&self, key: &[u8]) -> usize {
        let (lo, tied) = self.tied(key);
        lo + tied.partition_point(|(k, _)| k.as_slice() < key)
    }

    /// The entries with keys in `[start, end)`.
    fn range(&self, start: &[u8], end: &[u8]) -> &[(Vec<u8>, Slot)] {
        let from = self.lower_bound(start);
        &self.entries[from..self.lower_bound(end)]
    }
}

/// A linear k-way merge of ascending `sources`, newest first: yields each
/// key once, from the lowest-indexed source that holds it. Tombstones
/// pass through; the caller drops them. Each source must hold a key at
/// most once.
struct Merge<I: Iterator> {
    sources: Vec<I>,
    heads: Vec<Option<I::Item>>,
}

fn merge<K, S, I>(sources: impl IntoIterator<Item = I>) -> Merge<I>
where
    K: AsRef<[u8]>,
    I: Iterator<Item = (K, S)>,
{
    let mut sources: Vec<I> = sources.into_iter().collect();
    let heads = sources.iter_mut().map(Iterator::next).collect();
    Merge { sources, heads }
}

impl<K: AsRef<[u8]>, S, I: Iterator<Item = (K, S)>> Iterator for Merge<I> {
    type Item = (K, S);

    fn next(&mut self) -> Option<(K, S)> {
        // The smallest head; on equal keys the first (newest) source wins.
        let mut win: Option<(usize, &[u8])> = None;
        for (i, head) in self.heads.iter().enumerate() {
            if let Some((k, _)) = head {
                if win.map_or(true, |(_, w)| k.as_ref() < w) {
                    win = Some((i, k.as_ref()));
                }
            }
        }
        let w = win?.0;
        let next = self.sources[w].next();
        let (key, slot) = std::mem::replace(&mut self.heads[w], next)?;
        // Older sources holding the same key are shadowed: skip them. A
        // newer one cannot hold it, or it would have won.
        for i in w + 1..self.heads.len() {
            if self.heads[i]
                .as_ref()
                .is_some_and(|(k, _)| k.as_ref() == key.as_ref())
            {
                self.heads[i] = self.sources[i].next();
            }
        }
        Some((key, slot))
    }
}

/// Merges newest-first `runs` into one run's entries: the newest value
/// per key, tombstones dropped — what a full compaction keeps. The kept
/// keys and values are moved out of the runs; what the runs still hold
/// (shadowed entries, tombstones, emptied keys and their buffers) is
/// freed with them.
fn merge_runs<R: BorrowMut<Run>>(runs: impl IntoIterator<Item = R>) -> Vec<(Vec<u8>, Slot)> {
    let mut runs: Vec<R> = runs.into_iter().collect();
    // An upper bound, so that the merged entries never reallocate.
    let total = runs.iter().map(|run| run.borrow().entries.len()).sum();
    let mut merged = Vec::with_capacity(total);
    let sources = runs
        .iter_mut()
        .map(|run| run.borrow_mut().entries.iter_mut().map(|(k, s)| (k, s)));
    merged.extend(
        merge(sources)
            .filter(|(_, slot)| **slot != Slot::Tombstone)
            .map(|(k, slot)| (std::mem::take(k), std::mem::replace(slot, Slot::Tombstone))),
    );
    merged
}

/// What a put took out of the store, for the caller to drop after the
/// lock is released: an overwrite's replaced slot with the caller's key
/// it made redundant, and the runs a compaction merged away (an empty
/// `Vec`, which owns no memory, if none ran).
type Spent = (Option<(Slot, Vec<u8>)>, Vec<Run>);

/// Engine state (guarded by the pluggable lock): a hash-indexed
/// memtable in front of sorted runs. Only the runs are in key order;
/// `flush` and `scan` sort what they take from the memtable.
#[derive(Debug)]
struct Inner {
    memtable: HashMap<Vec<u8>, Slot, BuildMurmur>,
    /// Immutable sorted runs, newest first.
    runs: Vec<Run>,
    options: MiniDbOptions,
    flushes: u64,
    compactions: u64,
}

impl Inner {
    fn new(options: MiniDbOptions) -> Inner {
        Inner {
            memtable: HashMap::default(),
            runs: Vec::new(),
            options,
            flushes: 0,
            compactions: 0,
        }
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let slot = match self.memtable.get(key) {
            Some(slot) => slot,
            None => self.runs.iter().find_map(|run| run.get(key))?,
        };
        match slot {
            Slot::Value(v) => Some(v.clone()),
            Slot::Tombstone => None,
        }
    }

    /// Writes `slot` under `key`. An overwrite replaces the slot in
    /// place; a fresh key is inserted (a miss, then the insert: `std`'s
    /// one-probe `entry` would free the redundant key under the lock)
    /// and may fill the memtable, which then flushes.
    fn put(&mut self, key: Vec<u8>, slot: Slot) -> Spent {
        if let Some(old) = self.memtable.get_mut(key.as_slice()) {
            return (Some((std::mem::replace(old, slot), key)), Vec::new());
        }
        self.memtable.insert(key, slot);
        let spent = if self.memtable.len() >= self.options.memtable_limit {
            self.flush()
        } else {
            Vec::new()
        };
        (None, spent)
    }

    /// Drains the memtable into a new run, sorted; `drain` keeps the
    /// memtable's capacity. Returns what a compaction merged away.
    fn flush(&mut self) -> Vec<Run> {
        let mut entries: Vec<(Vec<u8>, Slot)> = self.memtable.drain().collect();
        entries.sort_unstable_by(|(a, _), (b, _)| key_order(a, b));
        self.runs.insert(0, Run::new(entries));
        self.flushes += 1;
        if self.runs.len() > self.options.max_runs {
            self.compact()
        } else {
            Vec::new()
        }
    }

    /// Merges all runs into one, newest value wins, dropping tombstones.
    /// Returns the merged-away runs, to be freed after the lock.
    fn compact(&mut self) -> Vec<Run> {
        // Sized like the old list, so that later flushes never regrow it.
        let capacity = self.runs.len();
        let mut old = std::mem::replace(&mut self.runs, Vec::with_capacity(capacity));
        let merged = merge_runs(old.iter_mut());
        if !merged.is_empty() {
            self.runs.push(Run::new(merged));
        }
        self.compactions += 1;
        old
    }

    fn len_estimate(&self) -> usize {
        self.memtable.len() + self.runs.iter().map(|run| run.entries.len()).sum::<usize>()
    }

    /// Ordered scan of `[start, end)`, newest value per key, tombstones
    /// elided — the LSM merge over memtable + runs. The memtable entries
    /// in range are sorted first.
    fn scan(&self, start: &[u8], end: &[u8], limit: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        type Source<'a> = Box<dyn Iterator<Item = (&'a Vec<u8>, &'a Slot)> + 'a>;
        let mut in_range: Vec<(&Vec<u8>, &Slot)> = self
            .memtable
            .iter()
            .filter(|(k, _)| start <= k.as_slice() && k.as_slice() < end)
            .collect();
        in_range.sort_unstable_by(|(a, _), (b, _)| key_order(a, b));
        let memtable: Source<'_> = Box::new(in_range.into_iter());
        let runs = self.runs.iter().map(|run| -> Source<'_> {
            Box::new(run.range(start, end).iter().map(|(k, slot)| (k, slot)))
        });
        merge(std::iter::once(memtable).chain(runs))
            .filter_map(|(k, slot)| match slot {
                Slot::Value(v) => Some((k.clone(), v.clone())),
                Slot::Tombstone => None,
            })
            .take(limit)
            .collect()
    }
}

/// The LevelDB stand-in store.
///
/// # Examples
///
/// ```
/// use clof::LockKind;
/// use clof_kvstore::{LockChoice, MiniDb, MiniDbOptions};
/// use clof_topology::platforms;
///
/// let hierarchy = platforms::tiny();
/// let db = MiniDb::open(
///     &hierarchy,
///     &LockChoice::Clof(vec![LockKind::Mcs, LockKind::Clh, LockKind::Ticket]),
///     MiniDbOptions::default(),
/// )
/// .unwrap();
/// let mut handle = db.handle(0);
/// handle.put(b"k".to_vec(), b"v".to_vec());
/// assert_eq!(handle.get(b"k"), Some(b"v".to_vec()));
/// ```
pub struct MiniDb {
    inner: Arc<DbMutex<Inner>>,
}

impl MiniDb {
    /// Opens an empty store guarded by `choice` on `hierarchy`.
    ///
    /// # Errors
    ///
    /// Propagates lock-composition errors.
    pub fn open(
        hierarchy: &Hierarchy,
        choice: &LockChoice,
        options: MiniDbOptions,
    ) -> Result<Self, ClofError> {
        Ok(MiniDb {
            inner: Arc::new(DbMutex::new(Inner::new(options), hierarchy, choice)?),
        })
    }

    /// A store handle for a thread running on `cpu`.
    pub fn handle(&self, cpu: CpuId) -> MiniDbHandle {
        MiniDbHandle {
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

/// Per-thread handle on a [`MiniDb`].
pub struct MiniDbHandle {
    handle: DbHandle<Inner>,
}

impl MiniDbHandle {
    /// Inserts or overwrites a key.
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>) {
        // Freed here, after the lock is released.
        drop(self.handle.with(|db| db.put(key, Slot::Value(value))));
    }

    /// Looks a key up.
    pub fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.handle.with(|db| db.get(key))
    }

    /// Deletes a key (tombstone).
    pub fn delete(&mut self, key: Vec<u8>) {
        // Freed here, after the lock is released.
        drop(self.handle.with(|db| db.put(key, Slot::Tombstone)));
    }

    /// Ordered range scan `[start, end)` (up to `limit` entries): the
    /// newest value per key, deletions elided — LevelDB's iterator
    /// semantics over memtable and runs.
    pub fn scan(&mut self, start: &[u8], end: &[u8], limit: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.handle.with(|db| db.scan(start, end, limit))
    }

    /// Number of entries across memtable and runs (over-counts
    /// overwritten keys until compaction, like LevelDB's table counts).
    pub fn len_estimate(&mut self) -> usize {
        self.handle.with(|db| db.len_estimate())
    }

    /// `(flushes, compactions)` so far.
    pub fn maintenance_counters(&mut self) -> (u64, u64) {
        self.handle.with(|db| (db.flushes, db.compactions))
    }

    /// Loads `n` sequential keys (`fillseq` in LevelDB's benchmark
    /// terms): key = 8-byte big-endian index, value = 16 bytes.
    pub fn fill_seq(&mut self, n: usize) {
        for i in 0..n {
            let key = (i as u64).to_be_bytes().to_vec();
            self.put(key, vec![0xAB; 16]);
        }
    }

    /// LevelDB's `readrandom`: `reads` random point lookups over a key
    /// space of `key_space` sequential keys; returns the number found.
    /// Deterministic for a given `seed`.
    pub fn read_random(&mut self, reads: usize, key_space: usize, seed: u64) -> usize {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut found = 0;
        for _ in 0..reads {
            // xorshift64*.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let idx = (r % key_space.max(1) as u64).to_be_bytes().to_vec();
            if self.get(&idx).is_some() {
                found += 1;
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clof::LockKind;
    use std::collections::BTreeMap;
    use clof_topology::platforms;

    fn open_tiny() -> MiniDb {
        MiniDb::open(
            &platforms::tiny(),
            &LockChoice::Clof(vec![LockKind::Mcs, LockKind::Clh, LockKind::Ticket]),
            MiniDbOptions {
                memtable_limit: 16,
                max_runs: 3,
            },
        )
        .unwrap()
    }

    #[test]
    fn put_get_roundtrip() {
        let db = open_tiny();
        let mut h = db.handle(0);
        h.put(b"alpha".to_vec(), b"1".to_vec());
        h.put(b"beta".to_vec(), b"2".to_vec());
        assert_eq!(h.get(b"alpha"), Some(b"1".to_vec()));
        assert_eq!(h.get(b"beta"), Some(b"2".to_vec()));
        assert_eq!(h.get(b"gamma"), None);
    }

    #[test]
    fn overwrite_returns_latest() {
        let db = open_tiny();
        let mut h = db.handle(0);
        for i in 0..100u32 {
            h.put(b"k".to_vec(), i.to_be_bytes().to_vec());
        }
        assert_eq!(h.get(b"k"), Some(99u32.to_be_bytes().to_vec()));
    }

    #[test]
    fn delete_shadows_older_values_across_flushes() {
        let db = open_tiny();
        let mut h = db.handle(0);
        h.put(b"k".to_vec(), b"v".to_vec());
        // Force the value into a run.
        for i in 0..40u32 {
            h.put(format!("fill{i}").into_bytes(), vec![0]);
        }
        h.delete(b"k".to_vec());
        assert_eq!(h.get(b"k"), None);
        // Push the tombstone through a compaction too.
        for i in 0..200u32 {
            h.put(format!("more{i}").into_bytes(), vec![0]);
        }
        assert_eq!(h.get(b"k"), None);
    }

    #[test]
    fn flush_and_compaction_fire() {
        let db = open_tiny();
        let mut h = db.handle(0);
        h.fill_seq(200);
        let (flushes, compactions) = h.maintenance_counters();
        assert!(flushes >= 10, "flushes {flushes}");
        assert!(compactions >= 1, "compactions {compactions}");
        // Data survives maintenance.
        for i in [0u64, 99, 199] {
            assert!(h.get(&i.to_be_bytes()).is_some(), "key {i}");
        }
    }

    #[test]
    fn scan_merges_memtable_and_runs() {
        let db = open_tiny();
        let mut h = db.handle(0);
        // Force some keys into runs, keep others in the memtable.
        h.fill_seq(64); // flushes at 16-entry memtable limit
        h.put(5u64.to_be_bytes().to_vec(), b"updated".to_vec());
        h.delete(6u64.to_be_bytes().to_vec());
        let got = h.scan(&4u64.to_be_bytes(), &8u64.to_be_bytes(), 100);
        let keys: Vec<u64> = got
            .iter()
            .map(|(k, _)| u64::from_be_bytes(k.as_slice().try_into().unwrap()))
            .collect();
        assert_eq!(keys, vec![4, 5, 7]); // 6 deleted
        assert_eq!(got[1].1, b"updated".to_vec()); // newest wins
    }

    #[test]
    fn scan_respects_limit_and_order() {
        let db = open_tiny();
        let mut h = db.handle(0);
        h.fill_seq(100);
        let got = h.scan(&10u64.to_be_bytes(), &90u64.to_be_bytes(), 5);
        assert_eq!(got.len(), 5);
        let keys: Vec<u64> = got
            .iter()
            .map(|(k, _)| u64::from_be_bytes(k.as_slice().try_into().unwrap()))
            .collect();
        assert_eq!(keys, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn scan_empty_range() {
        let db = open_tiny();
        let mut h = db.handle(0);
        h.fill_seq(10);
        assert!(h.scan(b"zzz", b"zzzz", 10).is_empty());
        assert!(h.scan(&5u64.to_be_bytes(), &5u64.to_be_bytes(), 10).is_empty());
    }

    #[test]
    fn read_random_finds_loaded_keys() {
        let db = open_tiny();
        let mut h = db.handle(0);
        h.fill_seq(500);
        let found = h.read_random(200, 500, 42);
        assert_eq!(found, 200); // all keys in range exist
        let found = h.read_random(200, 1000, 42);
        assert!(found < 200); // half the space is unpopulated
    }

    #[test]
    fn read_random_is_deterministic() {
        let db = open_tiny();
        let mut h = db.handle(0);
        h.fill_seq(100);
        assert_eq!(
            h.read_random(100, 200, 7),
            h.read_random(100, 200, 7)
        );
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let db = Arc::new(open_tiny());
        db.handle(0).fill_seq(300);
        let mut threads = Vec::new();
        for cpu in 0..8 {
            let db = Arc::clone(&db);
            threads.push(std::thread::spawn(move || {
                let mut h = db.handle(cpu);
                if cpu % 2 == 0 {
                    h.read_random(300, 300, cpu as u64)
                } else {
                    for i in 0..100usize {
                        h.put(
                            format!("w{cpu}-{i}").into_bytes(),
                            vec![cpu as u8],
                        );
                    }
                    100
                }
            }));
        }
        for t in threads {
            assert!(t.join().unwrap() > 0);
        }
        // Readers on even CPUs found everything; writers' data is there.
        let mut h = db.handle(0);
        assert_eq!(h.get(b"w1-99"), Some(vec![1]));
    }

    #[test]
    fn keys_that_tie_on_the_fence_keep_their_own_values() {
        let db = MiniDb::open(
            &platforms::tiny(),
            &LockChoice::Clof(vec![LockKind::Mcs, LockKind::Clh, LockKind::Ticket]),
            MiniDbOptions {
                memtable_limit: 4,
                max_runs: 8,
            },
        )
        .unwrap();
        let mut h = db.handle(0);
        // One padded prefix, `ab` then six zero bytes, for all four keys.
        let keys: [&[u8]; 4] = [b"ab", b"ab\0", b"ab\0\0\0\0\0\0", b"ab\0\0\0\0\0\0\0"];
        assert!(keys.iter().all(|k| key_prefix(k) == key_prefix(b"ab")));
        for (i, key) in keys.iter().enumerate() {
            h.put(key.to_vec(), vec![i as u8]);
        }
        // The fourth put flushed all four into one run.
        assert_eq!(h.maintenance_counters(), (1, 0));
        assert_eq!(h.len_estimate(), 4);
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(h.get(key), Some(vec![i as u8]), "{key:?}");
        }
        assert_eq!(h.get(b"ab\0\0"), None);
        assert_eq!(h.get(b""), None);
        let scanned: Vec<Vec<u8>> = h
            .scan(b"ab", b"ab\0\0\0\0\0\0\0", 10)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(
            scanned,
            keys[..3].iter().map(|k| k.to_vec()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn put_hands_back_an_overwrite_and_a_compaction() {
        let mut db = Inner::new(MiniDbOptions {
            memtable_limit: 2,
            max_runs: 1,
        });
        assert!(db.put(b"a".to_vec(), Slot::Value(b"1".to_vec())).0.is_none());
        let (replaced, compacted) = db.put(b"a".to_vec(), Slot::Tombstone);
        assert_eq!(replaced, Some((Slot::Value(b"1".to_vec()), b"a".to_vec())));
        assert!(compacted.is_empty());
        // The second fresh key fills the memtable: flush 1, no compaction.
        let (replaced, compacted) = db.put(b"b".to_vec(), Slot::Value(b"2".to_vec()));
        assert!(replaced.is_none() && compacted.is_empty());
        assert_eq!((db.flushes, db.compactions, db.memtable.len()), (1, 0, 0));
        db.put(b"b".to_vec(), Slot::Value(b"3".to_vec()));
        // Flush 2 makes a second run, one over `max_runs`: the compaction
        // hands back both old runs, holding what it did not keep — `a`'s
        // tombstone, `b`'s shadowed value — and emptied shells.
        let (_, compacted) = db.put(b"c".to_vec(), Slot::Value(b"4".to_vec()));
        assert_eq!((db.flushes, db.compactions), (2, 1));
        assert_eq!(compacted.len(), 2);
        let left: Vec<&(Vec<u8>, Slot)> = compacted
            .iter()
            .flat_map(|run| &run.entries)
            .filter(|(k, _)| !k.is_empty())
            .collect();
        assert_eq!(
            left,
            [
                &(b"a".to_vec(), Slot::Tombstone),
                &(b"b".to_vec(), Slot::Value(b"2".to_vec())),
            ]
        );
        assert_eq!(db.get(b"a"), None);
        assert_eq!(db.get(b"b"), Some(b"3".to_vec()));
        assert_eq!(db.get(b"c"), Some(b"4".to_vec()));
        assert_eq!(db.runs.len(), 1);
    }

    mod props {
        use super::*;
        use clof_testkit::gen::{any_u8, element_of, one_of, vec_of, zip, Gen};
        use clof_testkit::{props, tk_assert, tk_assert_eq, Config};

        /// Keys of 0–12 bytes over an alphabet with `0x00` in it, so
        /// short keys and their zero-extended twins tie on the fence.
        fn key() -> Gen<Vec<u8>> {
            vec_of(element_of(vec![0x00, 0x01, 0xFF]), 0, 13)
        }

        #[derive(Debug, Clone)]
        enum Op {
            Put(Vec<u8>, u8),
            Delete(Vec<u8>),
            Get(Vec<u8>),
            Scan(Vec<u8>, Vec<u8>),
        }

        fn op() -> Gen<Op> {
            one_of(vec![
                zip(key(), any_u8()).map(|(k, v)| Op::Put(k, v)),
                key().map(Op::Delete),
                key().map(Op::Get),
                zip(key(), key()).map(|(a, b)| {
                    let (a, b) = if a <= b { (a, b) } else { (b, a) };
                    Op::Scan(a, b)
                }),
            ])
        }

        /// A run's entries; `None` is a tombstone.
        type RawRun = Vec<(Vec<u8>, Option<u8>)>;

        /// Up to 9 newest-first runs over a few short keys, so they
        /// overlap, with tombstones among the values.
        fn runs() -> Gen<Vec<RawRun>> {
            let short_key = vec_of(element_of(vec![0x00, 0x01, 0xFF]), 0, 4);
            let entry = zip(
                short_key,
                one_of(vec![Gen::constant(None), any_u8().map(Some)]),
            );
            vec_of(vec_of(entry, 0, 24), 0, 10)
        }

        fn slot(value: Option<u8>) -> Slot {
            value.map_or(Slot::Tombstone, |v| Slot::Value(vec![v]))
        }

        /// The compaction MiniDb shipped before its k-way merge: every
        /// entry folded, oldest run first, through a `BTreeMap`.
        fn fold_through_btreemap(runs: &[Vec<(Vec<u8>, Slot)>]) -> Vec<(Vec<u8>, Slot)> {
            let mut merged: BTreeMap<Vec<u8>, Slot> = BTreeMap::new();
            for run in runs.iter().rev() {
                for (k, s) in run {
                    merged.insert(k.clone(), s.clone());
                }
            }
            merged
                .into_iter()
                .filter(|(_, s)| *s != Slot::Tombstone)
                .collect()
        }

        props! {
            config: Config::with_cases(32);

            /// MiniDb behaves exactly like a `BTreeMap` reference model
            /// under arbitrary operation sequences, across flushes and
            /// compactions: a 4-entry memtable forces constant
            /// maintenance, and a 64-entry one makes flush and `scan`
            /// sort many memtable keys, fence ties among them.
            fn matches_btreemap_model(ops in vec_of(op(), 1, 120)) {
                for memtable_limit in [4, 64] {
                    let db = MiniDb::open(
                        &platforms::tiny(),
                        &LockChoice::Clof(vec![
                            LockKind::Ticket,
                            LockKind::Ticket,
                            LockKind::Ticket,
                        ]),
                        MiniDbOptions { memtable_limit, max_runs: 2 },
                    )
                    .unwrap();
                    let mut h = db.handle(0);
                    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
                    for op in ops.iter().cloned() {
                        match op {
                            Op::Put(k, v) => {
                                h.put(k.clone(), vec![v]);
                                model.insert(k, vec![v]);
                            }
                            Op::Delete(k) => {
                                h.delete(k.clone());
                                model.remove(&k);
                            }
                            Op::Get(k) => {
                                tk_assert_eq!(h.get(&k), model.get(&k).cloned());
                            }
                            Op::Scan(a, b) => {
                                let got = h.scan(&a, &b, usize::MAX);
                                let want: Vec<(Vec<u8>, Vec<u8>)> = model
                                    .range(a..b)
                                    .map(|(k, v)| (k.clone(), v.clone()))
                                    .collect();
                                tk_assert_eq!(got, want, "memtable_limit {memtable_limit}");
                            }
                        }
                    }
                }
            }

            /// Compaction's k-way merge keeps what the `BTreeMap` fold
            /// kept: strictly ascending keys, the newest value of each,
            /// and no tombstone.
            fn k_way_merge_equals_the_btreemap_fold(raw in runs()) {
                let runs: Vec<Vec<(Vec<u8>, Slot)>> = raw
                    .iter()
                    .map(|run| {
                        let dedup: BTreeMap<Vec<u8>, Slot> =
                            run.iter().map(|(k, v)| (k.clone(), slot(*v))).collect();
                        dedup.into_iter().collect()
                    })
                    .collect();
                let merged = merge_runs(runs.iter().cloned().map(Run::new));
                tk_assert_eq!(merged, fold_through_btreemap(&runs));
                tk_assert!(merged.windows(2).all(|w| w[0].0 < w[1].0));
                for (k, s) in &merged {
                    tk_assert!(*s != Slot::Tombstone, "tombstone kept at {k:?}");
                    let newest = runs.iter().find_map(|run| {
                        run.iter().find(|(rk, _)| rk == k).map(|(_, rs)| rs)
                    });
                    tk_assert_eq!(newest, Some(s));
                }
            }
        }
    }

    #[test]
    fn works_under_every_lock_choice() {
        let h = platforms::tiny();
        for choice in [
            LockChoice::Hmcs,
            LockChoice::Cna,
            LockChoice::Shfl,
            LockChoice::Std,
            LockChoice::Basic(LockKind::Ticket),
        ] {
            let db = MiniDb::open(&h, &choice, MiniDbOptions::default()).unwrap();
            let mut handle = db.handle(3);
            handle.fill_seq(50);
            assert_eq!(handle.read_random(50, 50, 1), 50, "{choice:?}");
        }
    }
}
