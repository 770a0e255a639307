//! Deterministic, fast hashing for simulator-internal maps.
//!
//! `std`'s default `RandomState` seeds SipHash per process, which is both
//! slow for the tiny integer keys the simulator uses (pids, file ids,
//! request ids, page numbers) and gratuitously nondeterministic: any code
//! path that iterates a map must sort anyway, so the random seed buys
//! nothing. [`FastMap`]/[`FastSet`] swap in an FxHash-style multiplicative
//! hasher — a single wrapping multiply per word — giving hot-path lookups
//! at a few cycles each and identical iteration order on every run, which
//! makes bugs reproducible under the fuzz/check harness.
//!
//! This is an *internal* hash: keys are trusted simulator state, never
//! adversarial input, so HashDoS resistance is irrelevant.
//!
//! Every simulator map and set is a [`FastMap`]/[`FastSet`]. Clippy
//! enforces it: the workspace's `clippy.toml` disallows `std`'s
//! `HashMap` and `HashSet`, and this module, which defines the aliases,
//! is the only place allowed to name them.

#![allow(clippy::disallowed_types)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit multiplicative constant (from FxHash / Firefox), chosen for good
/// bit diffusion under wrapping multiplication.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One-multiply-per-word hasher for small integer-like keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FastHasher`].
pub(crate) type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// Drop-in `HashMap` with the deterministic fast hasher.
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// Drop-in `HashSet` with the deterministic fast hasher.
pub type FastSet<T> = HashSet<T, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FastHasher::default();
        let mut b = FastHasher::default();
        a.write_u64(0xdead_beef);
        b.write_u64(0xdead_beef);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let hash = |n: u64| {
            let mut h = FastHasher::default();
            h.write_u64(n);
            h.finish()
        };
        // Sequential ids (the common key shape) must not collide in the
        // low bits HashMap actually uses.
        let mut low7 = std::collections::HashSet::new();
        for i in 0..128u64 {
            low7.insert(hash(i) & 0x7f);
        }
        assert!(
            low7.len() > 96,
            "low-bit diffusion too weak: {}",
            low7.len()
        );
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FastMap<u64, &str> = FastMap::default();
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get(&1), Some(&"a"));
        let mut s: FastSet<u32> = FastSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }

    #[test]
    fn byte_stream_matches_word_writes_only_for_same_chunks() {
        // write() on 8-byte chunks equals write_u64 of the same word.
        let mut a = FastHasher::default();
        a.write(&42u64.to_le_bytes());
        let mut b = FastHasher::default();
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
    }
}
