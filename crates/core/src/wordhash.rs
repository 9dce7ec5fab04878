//! Keyed word-folding hasher for the tap monitor's flow table.
//!
//! The flow table is probed once per packet, and its keys — five-tuples,
//! which hash as two `u64` words — are chosen by whoever sends traffic
//! past the tap. The standard library's SipHash answers the second point
//! and pays for it on the first (it walks a tuple byte by byte). This
//! hasher keeps the keying and drops the bytes: every word written is
//! xored into a 64-bit state and folded through one 64×64→128-bit
//! multiply, the state starts from a per-table random seed and the result
//! is folded once more with a second random word, so collisions cannot be
//! computed without knowing a key that never leaves the process. It is not
//! a cryptographic hash and is used for nothing that is stored or compared
//! across tables.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// Odd multiplier of the folding step.
const MULTIPLE: u64 = 0x9e37_79b9_7f4a_7c15;

/// Full 128-bit product of `a` and `b`, upper half xored onto the lower:
/// every bit of either operand reaches both halves of the result.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    product as u64 ^ (product >> 64) as u64
}

/// Builds [`WordHasher`]s that share one random key, drawn at construction
/// from the standard library's per-process entropy ([`RandomState`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct WordHashBuilder {
    seed: u64,
    pad: u64,
}

impl WordHashBuilder {
    /// A builder with a fresh key.
    pub(crate) fn new() -> Self {
        // Each `RandomState::new()` carries a different SipHash key, so the
        // two draws are independent.
        let draw = || RandomState::new().build_hasher().finish();
        WordHashBuilder {
            seed: draw(),
            pad: draw(),
        }
    }
}

impl BuildHasher for WordHashBuilder {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher {
            state: self.seed,
            pad: self.pad,
        }
    }
}

/// The hasher: one fold per word written, one more to finish.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WordHasher {
    state: u64,
    pad: u64,
}

impl WordHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.state = fold(self.state ^ w, MULTIPLE);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        fold(self.state, self.pad)
    }

    /// Byte strings go in eight bytes at a time, then their length (so a
    /// trailing zero byte is not the same input as no byte). Every integer
    /// width but `u64` arrives here through the trait's defaults.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
        self.word(bytes.len() as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::packet::FiveTuple;
    use std::collections::HashSet;

    #[test]
    fn equal_keys_hash_equal_and_keys_differ_between_builders() {
        let a = WordHashBuilder::new();
        let b = WordHashBuilder::new();
        let t = FiveTuple::udp_v4([10, 0, 0, 1], 49003, [100, 64, 1, 1], 50_000);
        assert_eq!(a.hash_one(t), a.hash_one(t));
        // Two tables never share a key (64 random bits each).
        assert_ne!(a.hash_one(t), b.hash_one(t));
    }

    #[test]
    fn dense_keys_spread_over_both_ends_of_the_hash() {
        // The hash map indexes buckets with the low bits and tags entries
        // with the top seven: neighbouring client addresses must spread
        // over both.
        let build = WordHashBuilder::new();
        let hashes: Vec<u64> = (0..4096u32)
            .map(|i| {
                let [_, _, c, d] = i.to_be_bytes();
                build.hash_one(FiveTuple::udp_v4(
                    [10, 0, 0, 1],
                    49003,
                    [100, 64, c, d],
                    50_000,
                ))
            })
            .collect();
        assert_eq!(hashes.iter().collect::<HashSet<_>>().len(), 4096);
        for shift in [0, 57] {
            let mut buckets = [0usize; 128];
            for h in &hashes {
                buckets[(h >> shift) as usize & 127] += 1;
            }
            // 32 expected per bucket (a good hash strays outside 4..=80
            // less than once in a million keys); a weak mix leaves
            // buckets empty.
            assert!(
                buckets.iter().all(|&c| (4..=80).contains(&c)),
                "bits {shift}..{}: {buckets:?}",
                shift + 7
            );
        }
    }

    #[test]
    fn byte_strings_differ_by_length() {
        let build = WordHashBuilder::new();
        let hash = |bytes: &[u8]| {
            let mut h = build.build_hasher();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(hash(&[1, 2, 3]), hash(&[1, 2, 3, 0]));
        assert_ne!(hash(&[]), hash(&[0]));
        assert_eq!(hash(&[9; 20]), hash(&[9; 20]));
    }
}
