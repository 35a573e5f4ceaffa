//! The workspace's one hasher for in-program keys: `FxHasher`,
//! `FxHashMap`, `FxHashSet`.
//!
//! The classic word-at-a-time rotate-xor-multiply Fx function, copied bit
//! for bit from the std-only stand-in every benchmark number since PR 10
//! was measured on (`benchmark/standins/rustc-hash`), so map iteration
//! order — and with it anything that walks a map — is what was measured.
//! It is unkeyed: use it for node ids, packet ids and other keys the
//! program makes itself, never for keys an outsider chooses.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;
/// The `BuildHasher` of the two aliases above.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic, unkeyed hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add_to_hash(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;
    use std::hash::Hash;

    fn hash<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    fn raw(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    /// Values printed by `benchmark/standins/rustc-hash` on the commit
    /// before this module existed.
    #[test]
    fn hashes_are_the_measured_stand_ins() {
        assert_eq!(hash(&0u16), 0);
        assert_eq!(hash(&(NodeId(7), 42u32)), 0x08868cd75bf498d1);
        // Slices hash their length first, then the bytes: whole words,
        // then the tail byte by byte.
        assert_eq!(hash(&b"abc"[..]), 0x08ee6325cb455e50);
        assert_eq!(hash(&b"abcdefgh"[..]), 0xf05732280c376430);
        assert_eq!(hash(&b"abcdefghijk"[..]), 0xfdc3b37bacce39ed);
        assert_eq!(raw(b"abc"), 0x62fd7437241e1adf);
        assert_eq!(raw(b"abcdefgh"), 0xe2237c7627920c75);
        assert_eq!(raw(b"abcdefghijk"), 0x9e186d9f717f88ae);
        assert_eq!(hash("refill"), 0xd256f1b0dcb99624);
    }

    #[test]
    fn maps_and_sets_work() {
        let mut m: FxHashMap<(NodeId, u32), usize> = FxHashMap::default();
        m.insert((NodeId(1), 2), 3);
        assert_eq!(m.get(&(NodeId(1), 2)), Some(&3));
        let mut s: FxHashSet<u16> = FxHashSet::default();
        assert!(s.insert(9) && !s.insert(9));
    }
}
