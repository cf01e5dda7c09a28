//! Deterministic, fast hashing for hot-path lookup tables.
//!
//! The synthesis inner loops key memo tables by small integers, by
//! [`BitSet`](crate::BitSet) crossing sets and by the channels an
//! incremental Theorem-1 check numbers. The standard library's default
//! SipHash is designed to resist hash-flooding from untrusted keys; these
//! tables only ever hold keys the search itself generated, so that
//! robustness buys nothing and costs a large fraction of every probe. [`FxBuildHasher`] swaps in the
//! rustc-hash ("Fx") word-at-a-time multiply-xor hash: a couple of ALU
//! ops per `u64`, and — unlike `RandomState` — with no per-process seed,
//! so table behavior is identical across runs by construction.
//!
//! Never use this state for maps keyed by attacker-controlled input; the
//! ingestion boundary (`nocsyn_model::text`) stays on SipHash.

use std::hash::{BuildHasher, Hasher};

/// The Fx multiply constant (golden-ratio derived, as in rustc-hash).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// A [`BuildHasher`] producing [`FxHasher`]s with a fixed (zero) seed.
///
/// Drop-in third type parameter for `HashMap`/`HashSet` on trusted keys:
///
/// ```
/// use std::collections::HashMap;
/// use nocsyn_model::FxBuildHasher;
///
/// let mut memo: HashMap<u64, usize, FxBuildHasher> = HashMap::default();
/// memo.insert(42, 1);
/// assert_eq!(memo.get(&42), Some(&1));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    fn build_hasher(&self) -> FxHasher {
        FxHasher { hash: 0 }
    }
}

/// Word-at-a-time multiply-xor hasher (the rustc-hash algorithm).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            // Mix the length so "ab" and "ab\0" stay distinct.
            self.add(u64::from_le_bytes(buf) ^ (rem.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher.hash_one(value)
    }

    #[test]
    fn same_input_same_hash() {
        assert_eq!(hash_of(&0xDEAD_BEEFu64), hash_of(&0xDEAD_BEEFu64));
        assert_eq!(hash_of(&vec![1u64, 2, 3]), hash_of(&vec![1u64, 2, 3]));
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&vec![1u64, 2]), hash_of(&vec![2u64, 1]));
        assert_ne!(hash_of(&"ab"), hash_of(&"ab\0"));
    }

    #[test]
    fn map_with_fx_state_behaves() {
        let mut map: std::collections::HashMap<Vec<u64>, usize, FxBuildHasher> =
            std::collections::HashMap::default();
        for i in 0..100u64 {
            map.insert(vec![i, i * i], i as usize);
        }
        for i in 0..100u64 {
            assert_eq!(map.get(&vec![i, i * i]), Some(&(i as usize)));
        }
        assert!(!map.contains_key(&vec![7]));
    }
}
