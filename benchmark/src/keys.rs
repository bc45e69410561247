//! Inputs, made by the benchmark: a fixed key set, and from `--seed` each
//! client's operation stream and the values written. The program under
//! test receives only these — its own `read_random`/`mixed_workload`
//! helpers, which hide a generator inside the store, are not used.

/// Length of every key in bytes.
pub const KEY_LEN: usize = 8;
/// Length of every value in bytes: the key, then 16 copies of one byte.
pub const VALUE_LEN: usize = 24;

pub type Key = [u8; KEY_LEN];

/// SplitMix64's output function: a bijection on `u64`, so distinct
/// inputs give distinct keys.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Key number `i`: distinct 8-byte strings with no order or hash
/// structure. A workload touches the first `keys` of them, the same for
/// every seed — the seed picks which are touched in which order — because
/// a different set fills `CabinetDb`'s buckets differently, and that moved
/// `ops_per_s` by up to 9 % between seeds: a property of the input, not of
/// the program.
pub fn key(i: usize) -> Key {
    mix(0x4B45_5953_u64.wrapping_add(i as u64)).to_be_bytes() // "KEYS"
}

/// The value stored under `key` with fill byte `fill`: the reader can
/// tell a value that belongs to another key, and one torn between two
/// writers, from a good one.
pub fn value_for(key: &[u8], fill: u8) -> Vec<u8> {
    let mut v = Vec::with_capacity(VALUE_LEN);
    v.extend_from_slice(key);
    v.resize(VALUE_LEN, fill);
    v
}

/// Whether `value` is a well-formed value of `key`.
pub fn value_ok(key: &[u8], value: &[u8]) -> bool {
    value.len() == VALUE_LEN
        && value[..KEY_LEN] == *key
        && value[KEY_LEN..].iter().all(|&b| b == value[KEY_LEN])
}

/// One operation a client is about to issue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Increment the shared counter under the lock.
    Incr,
    /// Read a key that was filled at set-up.
    Get(Key),
    /// Overwrite a key that was filled at set-up. The stores take
    /// ownership of both, so both are made here, not inside the call.
    Put(Vec<u8>, Vec<u8>),
}

/// What a client's stream is made of.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    /// Only [`Op::Incr`].
    Counter,
    /// `write_pct` % [`Op::Put`], the rest [`Op::Get`], uniform over the
    /// first `keys` keys.
    Kv { keys: usize, write_pct: u64 },
}

/// One client's deterministic operation stream (xorshift64*).
#[derive(Debug, Clone)]
pub struct KeyStream {
    state: u64,
    mix: Mix,
}

impl KeyStream {
    pub fn new(seed: u64, client: usize, mix: Mix) -> Self {
        KeyStream {
            state: self::mix(seed ^ self::mix(client as u64 + 1)) | 1,
            mix,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        self.state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    #[inline]
    pub fn next_op(&mut self) -> Op {
        match self.mix {
            Mix::Counter => Op::Incr,
            Mix::Kv { keys, write_pct } => {
                let r = self.next_u64();
                let key = key(((r >> 32) % keys as u64) as usize);
                if r % 100 < write_pct {
                    Op::Put(key.to_vec(), value_for(&key, (r >> 8) as u8))
                } else {
                    Op::Get(key)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_keys(seed: u64, client: usize) -> Vec<Op> {
        let mix = Mix::Kv {
            keys: 1024,
            write_pct: 20,
        };
        let mut s = KeyStream::new(seed, client, mix);
        (0..1000).map(|_| s.next_op()).collect()
    }

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(first_keys(7, 0), first_keys(7, 0));
        assert_eq!(first_keys(u64::MAX, 1), first_keys(u64::MAX, 1));
    }

    #[test]
    fn different_seed_or_client_different_stream() {
        assert_ne!(first_keys(7, 0), first_keys(8, 0));
        assert_ne!(first_keys(7, 0), first_keys(7, 1));
    }

    #[test]
    fn keys_are_distinct() {
        let mut keys: Vec<Key> = (0..2048).map(key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 2048);
    }

    #[test]
    fn mix_keeps_its_ratio_and_stays_in_the_key_space() {
        let all: Vec<Key> = (0..64).map(key).collect();
        let mut s = KeyStream::new(
            3,
            0,
            Mix::Kv {
                keys: 64,
                write_pct: 20,
            },
        );
        let mut puts = 0;
        for _ in 0..10_000 {
            match s.next_op() {
                Op::Put(k, v) => {
                    puts += 1;
                    assert!(all.iter().any(|a| a[..] == k[..]) && value_ok(&k, &v));
                }
                Op::Get(k) => assert!(all.contains(&k)),
                Op::Incr => panic!("kv stream issued a counter op"),
            }
        }
        assert!((1_800..2_200).contains(&puts), "{puts} puts of 10000");
        let mut c = KeyStream::new(3, 0, Mix::Counter);
        assert_eq!(c.next_op(), Op::Incr);
    }

    #[test]
    fn value_check_rejects_foreign_and_torn_values() {
        let (a, b) = (key(0), key(1));
        let good = value_for(&a, 0x11);
        assert!(value_ok(&a, &good));
        assert!(!value_ok(&b, &good), "value of another key");
        assert!(!value_ok(&a, &good[..VALUE_LEN - 1]), "short value");
        let mut torn = good.clone();
        torn[VALUE_LEN - 1] = 0x22;
        assert!(!value_ok(&a, &torn), "two writers' fill bytes");
    }
}
