//! A fast, deterministic hasher for small integer keys.
//!
//! The simulation hot paths hash nothing but machine integers (message
//! keys, instance ids, timer handles). The standard library's default
//! SipHash is DoS-resistant but costs tens of cycles per key — measurable
//! at millions of events per second. [`FastHasher`] is an FxHash-style
//! multiply-rotate mix: a few cycles per integer, identical output on
//! every platform and run (no random seed), and entirely adequate for
//! trusted, well-distributed keys.
//!
//! **Determinism note:** the workspace's reproducibility contract forbids
//! *iterating* hashed collections on any path that can reach execution or
//! output. That rule is unchanged — [`FastHashMap`]/[`FastHashSet`] are
//! for membership and keyed access only, exactly like their SipHash
//! predecessors. (The fixed seed additionally makes iteration order
//! machine-stable, but do not rely on it.)

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash-style multiply-rotate hasher for integer-keyed collections.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher(u64);

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// `HashMap` keyed by small integers, hashed with [`FastHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` of small integers, hashed with [`FastHasher`].
pub type FastHashSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

// FNV-1a 64-bit parameters (public-domain hash; stable by definition).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64-bit digest — the workspace's one canonical
/// content-fingerprint function.
///
/// Chosen for being trivially reimplementable from its published spec (no
/// dependency, no seed): it guards against corruption and drift, not
/// adversaries. The `amac-store` on-disk integrity digest, its fault-plan
/// and topology digests, and the golden canonical-trace pins are all this
/// function; keeping a single implementation here is what makes those
/// digests comparable across crates. The model checker's per-schedule
/// fingerprints are not: they are never persisted, so they come from a
/// faster word-wise fold inside `amac_mac::OnlineValidator`.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A fresh digest (the FNV-1a offset basis).
    pub fn new() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }

    /// Resumes a digest from a previously captured [`value`](Fnv1a::value).
    pub fn from_value(value: u64) -> Fnv1a {
        Fnv1a(value)
    }

    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The current digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// FNV-1a 64-bit digest of a complete byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut d = Fnv1a::new();
    d.update(bytes);
    d.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_and_set_behave_like_std() {
        let mut m: FastHashMap<u64, &str> = FastHashMap::default();
        m.insert(1, "one");
        m.insert(u64::MAX, "max");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.get(&u64::MAX), Some(&"max"));
        assert_eq!(m.remove(&1), Some("one"));
        assert_eq!(m.get(&1), None);

        let mut s: FastHashSet<u64> = FastHashSet::default();
        for i in 0..1000 {
            assert!(s.insert(i * 0x9E37_79B9));
        }
        for i in 0..1000 {
            assert!(s.contains(&(i * 0x9E37_79B9)));
        }
        assert_eq!(s.len(), 1000);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv1a_streaming_equals_oneshot_and_resumes() {
        let mut d = Fnv1a::new();
        d.update(b"foo");
        let resumed = Fnv1a::from_value(d.value());
        let mut d2 = resumed;
        d2.update(b"bar");
        assert_eq!(d2.value(), fnv1a64(b"foobar"));
        assert_eq!(Fnv1a::default().value(), fnv1a64(b""));
    }

    #[test]
    fn hashes_are_deterministic_and_spread() {
        let h = |n: u64| {
            let mut hasher = FastHasher::default();
            hasher.write_u64(n);
            hasher.finish()
        };
        assert_eq!(h(42), h(42), "no per-process seed");
        // Consecutive keys land in distinct buckets of a small table.
        let buckets: std::collections::BTreeSet<u64> = (0..64).map(|n| h(n) % 64).collect();
        assert!(
            buckets.len() > 32,
            "only {} distinct buckets",
            buckets.len()
        );
    }
}
