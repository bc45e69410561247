//! `--selftest`: proof that the correctness checks can fail.
//!
//! `lock_pass_2t` and `cabinet_mix_2t` run through the same protocol and
//! the same checks, but over a benchmark-owned *broken* lock: acquire and
//! release do nothing, around a read-modify-write that is not atomic.
//! The run must report `failed_ops_ratio > 0`, or the checks are vacuous.
//! The shared words are atomics accessed `Relaxed`, so the race loses
//! updates and tears values without being undefined behaviour.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::keys::{key, Key, KeyStream, Mix, Op, VALUE_LEN};
use crate::protocol::{self, Outcome, Plan};
use crate::span::Call;
use crate::workloads::{Client, FinalCheck, Rig, Target, CABINET_WRITE_PCT};

/// Widens the window between the read and the write of a "critical
/// section" so that a second client lands in it even on one CPU.
fn dawdle() {
    for _ in 0..8 {
        std::hint::spin_loop();
    }
}

struct BrokenCounter(Arc<AtomicU64>);

impl Target for BrokenCounter {
    fn call(&mut self, _op: Op) -> Option<Vec<u8>> {
        let seen = self.0.load(Ordering::Relaxed);
        dawdle();
        self.0.store(seen + 1, Ordering::Relaxed);
        None
    }

    fn call_kind(_op: &Op) -> Call {
        Call::MutexLock
    }
}

/// One slot per key, each value kept as three words.
struct BrokenTable {
    slot_of: HashMap<Key, usize>,
    words: Vec<[AtomicU64; VALUE_LEN / 8]>,
}

struct BrokenTableHandle(Arc<BrokenTable>);

impl Target for BrokenTableHandle {
    fn call(&mut self, op: Op) -> Option<Vec<u8>> {
        match op {
            Op::Get(key) => {
                let slot = &self.0.words[*self.0.slot_of.get(&key)?];
                let mut value = Vec::with_capacity(VALUE_LEN);
                for word in slot {
                    value.extend_from_slice(&word.load(Ordering::Relaxed).to_be_bytes());
                    dawdle();
                }
                Some(value)
            }
            Op::Put(key, value) => {
                let key: Key = key.as_slice().try_into().ok()?;
                let slot = &self.0.words[*self.0.slot_of.get(&key)?];
                for (word, bytes) in slot.iter().zip(value.chunks_exact(8)) {
                    word.store(
                        u64::from_be_bytes(bytes.try_into().ok()?),
                        Ordering::Relaxed,
                    );
                    dawdle();
                }
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

fn broken_lock_rig(seed: u64) -> Rig<BrokenCounter> {
    let cell = Arc::new(AtomicU64::new(0));
    Rig {
        clients: (0..2)
            .map(|i| {
                Client::new(
                    BrokenCounter(Arc::clone(&cell)),
                    KeyStream::new(seed, i, Mix::Counter),
                )
            })
            .collect(),
        finish: Box::new(move |ops| FinalCheck {
            attempted: 0,
            failed: ops.abs_diff(cell.load(Ordering::Relaxed)),
        }),
    }
}

/// Few keys, so that the two clients meet on one often enough for a
/// short run to see a torn value.
const BROKEN_TABLE_KEYS: usize = 16;

fn broken_cabinet_rig(seed: u64) -> Rig<BrokenTableHandle> {
    let table = Arc::new(BrokenTable {
        slot_of: (0..BROKEN_TABLE_KEYS).map(|i| (key(i), i)).collect(),
        words: (0..BROKEN_TABLE_KEYS)
            .map(|i| {
                let fill = u64::from_be_bytes([i as u8; 8]);
                [u64::from_be_bytes(key(i)), fill, fill].map(AtomicU64::new)
            })
            .collect(),
    });
    let mix = Mix::Kv {
        keys: BROKEN_TABLE_KEYS,
        write_pct: CABINET_WRITE_PCT,
    };
    Rig {
        clients: (0..2)
            .map(|i| {
                Client::new(
                    BrokenTableHandle(Arc::clone(&table)),
                    KeyStream::new(seed, i, mix),
                )
            })
            .collect(),
        finish: Box::new(|_| FinalCheck::default()),
    }
}

/// Runs both broken workloads; `true` when each reported failed
/// operations, i.e. when the oracle works.
pub fn selftest(seed: u64, host_cpus: &[usize]) -> bool {
    let plan = Plan::new(1, true, false);
    let report = |name: &str, out: &Outcome| {
        let ratio = out.failed as f64 / out.attempted.max(1) as f64;
        println!(
            "selftest {name} over a broken lock: failed_ops_ratio = {ratio:.6} ({} of {} attempted)",
            out.failed, out.attempted
        );
        out.failed > 0
    };
    let lock = report(
        "lock_pass_2t",
        &protocol::run(&plan, host_cpus, || broken_lock_rig(seed)),
    );
    let cabinet = report(
        "cabinet_mix_2t",
        &protocol::run(&plan, host_cpus, || broken_cabinet_rig(seed)),
    );
    lock && cabinet
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broken_targets_behave_when_used_by_one_client() {
        let Rig {
            mut clients,
            finish,
        } = broken_lock_rig(1);
        for _ in 0..100 {
            assert!(clients[0].op());
        }
        assert_eq!(finish(100).failed, 0);

        let Rig { mut clients, .. } = broken_cabinet_rig(1);
        for _ in 0..5_000 {
            assert!(clients[0].op(), "an unshared table never tears");
        }
    }
}
