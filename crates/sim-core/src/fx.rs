//! A fast, deterministic hasher for small fixed-size keys.
//!
//! The reclamation engine's hot paths key hash maps by object ids and
//! curve-shape fingerprints — tiny keys hashed millions of times per
//! simulated decade. `std`'s default SipHash is DoS-resistant but costs
//! tens of nanoseconds per key; these structures are never fed untrusted
//! input, so the workspace uses the much cheaper multiply-rotate hash
//! known as FxHash (originally from the Firefox/rustc codebases).
//!
//! The hash is fully deterministic (no per-process seed), which also keeps
//! map iteration order stable across runs — a property the repository's
//! byte-identical reproduction contract depends on wherever a map feeds an
//! ordered output.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] keyed by the [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash streaming hasher: for each input word,
/// `state = (rotl(state, 5) ^ word) · SEED`.
///
/// # Examples
///
/// ```
/// use std::hash::{Hash, Hasher};
/// use sim_core::fx::FxHasher;
///
/// let mut a = FxHasher::default();
/// 42u64.hash(&mut a);
/// let mut b = FxHasher::default();
/// 42u64.hash(&mut b);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            self.add_word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_word(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_word(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_word(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_word(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add_word(v as u64);
        self.add_word((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_i8(&mut self, v: i8) {
        self.add_word(v as u8 as u64);
    }

    #[inline]
    fn write_i16(&mut self, v: i16) {
        self.add_word(v as u16 as u64);
    }

    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.add_word(v as u32 as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.add_word(v as usize as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(value: impl Hash) -> u64 {
        let mut hasher = FxHasher::default();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn deterministic_across_hashers() {
        assert_eq!(hash_of(7u64), hash_of(7u64));
        assert_eq!(hash_of("breakpoint"), hash_of("breakpoint"));
        assert_ne!(hash_of(7u64), hash_of(8u64));
    }

    #[test]
    fn byte_stream_equals_word_stream_for_whole_words() {
        let mut by_bytes = FxHasher::default();
        by_bytes.write(&42u64.to_le_bytes());
        let mut by_word = FxHasher::default();
        by_word.write_u64(42);
        assert_eq!(by_bytes.finish(), by_word.finish());
    }

    #[test]
    fn partial_tail_bytes_hash_consistently() {
        let mut a = FxHasher::default();
        a.write(b"abcdefghijk"); // 8 + 3 bytes
        let mut b = FxHasher::default();
        b.write(b"abcdefghijk");
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(b"abcdefghij");
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn maps_work() {
        let mut map: FxHashMap<u64, &str> = FxHashMap::default();
        map.insert(1, "one");
        map.insert(2, "two");
        assert_eq!(map.get(&1), Some(&"one"));
        assert_eq!(hash_of(0u64), 0, "empty-state hash of zero word is zero");
    }

    #[test]
    fn all_write_widths_fold_into_state() {
        let mut h = FxHasher::default();
        h.write_u8(1);
        h.write_u16(2);
        h.write_u32(3);
        h.write_u64(4);
        h.write_u128(5);
        h.write_usize(6);
        h.write_i8(-1);
        h.write_i16(-2);
        h.write_i32(-3);
        h.write_i64(-4);
        h.write_isize(-5);
        assert_ne!(h.finish(), 0);
    }
}
