//! The stores' one byte-string hash, and a `std` hasher built on it.
//!
//! `CabinetDb` probes its table with [`hash`] directly; `MiniDb`'s
//! memtable is a `std::collections::HashMap` whose hasher is
//! [`BuildMurmur`], so both stores hash a key the same way.

use std::hash::{BuildHasherDefault, Hasher};

/// A word-at-a-time multiply-xorshift hash: MurmurHash64A, the hash
/// Kyoto Cabinet's `hashmurmur` is built on. Eight bytes per step; the
/// tail is zero-padded, and the length seeds the state, so `b"a"` and
/// `b"a\0"` differ.
#[inline]
pub(crate) fn hash(key: &[u8]) -> u64 {
    const M: u64 = 0xc6a4_a793_5bd1_e995;
    const R: u32 = 47;
    let mut h = 19_780_211 ^ (key.len() as u64).wrapping_mul(M);
    let mut words = key.chunks_exact(8);
    for word in &mut words {
        let mut k = u64::from_le_bytes(word.try_into().expect("8-byte chunk")).wrapping_mul(M);
        k ^= k >> R;
        h = (h ^ k.wrapping_mul(M)).wrapping_mul(M);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(M);
    }
    h ^= h >> R;
    h = h.wrapping_mul(M);
    h ^ (h >> R)
}

/// [`hash`] as a [`Hasher`], for byte-string keys (`Vec<u8>`, `[u8]`):
/// `std` hashes one as a length prefix and then the bytes, so the
/// prefix is skipped — [`hash`] seeds its state with the length — and
/// the bytes are hashed in one call. A key hashes to exactly
/// `hash(key)`.
#[derive(Debug, Default)]
pub(crate) struct Murmur(u64);

impl Hasher for Murmur {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0 ^= hash(bytes);
    }

    #[inline]
    fn write_usize(&mut self, _len: usize) {}

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds a [`Murmur`] per lookup; stateless, so every map agrees.
pub(crate) type BuildMurmur = BuildHasherDefault<Murmur>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn a_byte_key_hashes_to_its_murmur_hash() {
        for key in [&b""[..], b"a", b"a\0", b"01234567", b"0123456789abcdef0"] {
            assert_eq!(BuildMurmur::default().hash_one(key), hash(key), "{key:?}");
            assert_eq!(BuildMurmur::default().hash_one(key.to_vec()), hash(key));
        }
        assert_ne!(hash(b"a"), hash(b"a\0"));
    }
}
