//! MiniDb under concurrent puts, deletes, gets and scans, for every lock
//! family: a small memtable makes flushes and compactions run while the
//! other clients read, and every reply is checked against what its
//! writer last wrote.

use std::collections::BTreeMap;
use std::sync::Arc;

use clof::LockKind;
use clof_kvstore::{LockChoice, MiniDb, MiniDbHandle, MiniDbOptions};
use clof_topology::platforms;

const CLIENTS: u8 = 4;
const KEYS_EACH: u8 = 48;
const OPS_EACH: u32 = 2_000;
const SCAN_EVERY: u32 = 250;

/// Client `w`'s key `i`: every client writes only its own range.
fn key(w: u8, i: u8) -> Vec<u8> {
    vec![b'k', w, i]
}

/// A value names its key and the writer's version of it.
fn value(key: &[u8], version: u32) -> Vec<u8> {
    [key, &version.to_be_bytes()].concat()
}

fn well_formed(key: &[u8], value: &[u8]) -> bool {
    value.len() == key.len() + 4 && value.starts_with(key)
}

/// Every key in the store, checked strictly ascending and well-formed.
fn full_scan(h: &mut MiniDbHandle) -> Vec<(Vec<u8>, Vec<u8>)> {
    let all = h.scan(b"k", b"l", usize::MAX);
    assert!(all.windows(2).all(|p| p[0].0 < p[1].0), "scan out of order");
    assert!(all.iter().all(|(k, v)| well_formed(k, v)), "malformed value");
    all
}

/// Client `w`'s stream. Returns its last write per key (`None`: deleted).
fn client(mut h: MiniDbHandle, w: u8) -> BTreeMap<Vec<u8>, Option<Vec<u8>>> {
    let mut mine: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
    let mut state = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(w) + 1) | 1;
    for version in 0..OPS_EACH {
        // xorshift64*.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let i = (r >> 40) as u8 % KEYS_EACH;
        match r % 20 {
            0..=8 => {
                let k = key(w, i);
                let v = value(&k, version);
                h.put(k.clone(), v.clone());
                mine.insert(k, Some(v));
            }
            9..=10 => {
                let k = key(w, i);
                h.delete(k.clone());
                mine.insert(k, None);
            }
            _ => {
                let owner = (r >> 32) as u8 % CLIENTS;
                let k = key(owner, i);
                let got = h.get(&k);
                if owner == w {
                    // Only this client writes its range.
                    assert_eq!(got, mine.get(&k).cloned().flatten(), "own key {k:?}");
                } else if let Some(v) = got {
                    assert!(well_formed(&k, &v), "{k:?} read {v:?}");
                }
            }
        }
        if version % SCAN_EVERY == SCAN_EVERY - 1 {
            let own: Vec<(Vec<u8>, Vec<u8>)> = full_scan(&mut h)
                .into_iter()
                .filter(|(k, _)| k[1] == w)
                .collect();
            let want: Vec<(Vec<u8>, Vec<u8>)> = mine
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.clone()?)))
                .collect();
            assert_eq!(own, want, "client {w}'s range in a scan");
        }
    }
    mine
}

#[test]
fn minidb_mix_under_every_lock_choice() {
    let h = platforms::tiny();
    let tree = vec![LockKind::Mcs, LockKind::Clh, LockKind::Ticket];
    let choices = [
        LockChoice::Clof(tree.clone()),
        LockChoice::ClofFast(tree),
        LockChoice::Hmcs,
        LockChoice::Cna,
        LockChoice::Shfl,
        LockChoice::Basic(LockKind::Ticket),
        LockChoice::Std,
    ];
    for choice in choices {
        let options = MiniDbOptions {
            memtable_limit: 32,
            max_runs: 3,
        };
        let db = Arc::new(MiniDb::open(&h, &choice, options).unwrap());
        // Two clients share a cache cohort, the other two sit in the
        // other NUMA node.
        let workers: Vec<_> = [0usize, 1, 4, 6]
            .into_iter()
            .zip(0..CLIENTS)
            .map(|(cpu, w)| {
                let handle = db.handle(cpu);
                std::thread::spawn(move || client(handle, w))
            })
            .collect();
        let mut want = Vec::new();
        for worker in workers {
            let mine = worker.join().unwrap();
            want.extend(mine.into_iter().filter_map(|(k, v)| Some((k, v?))));
        }
        want.sort();
        let mut h = db.handle(0);
        let (flushes, compactions) = h.maintenance_counters();
        assert!(
            flushes >= 10 && compactions >= 2,
            "{choice:?}: {flushes} flushes, {compactions} compactions"
        );
        assert_eq!(full_scan(&mut h), want, "{choice:?}");
    }
}
