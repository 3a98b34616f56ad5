//! The hasher behind the name maps (the `.bench` reader's table and
//! [`crate::Netlist`]'s name lookup).
//!
//! Names are short byte strings, so the hasher reads eight bytes per
//! step and mixes each word with one 64×64→128-bit multiply whose halves
//! are folded together. Both the start state and the multiplier come
//! from a per-process random seed, so a submitted netlist cannot be
//! built to collide in advance.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A map keyed by names, hashed with [`NameHash`].
pub(crate) type NameMap<K, V> = HashMap<K, V, NameHash>;

/// Builds [`NameHasher`]s keyed with this process's seed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NameHash {
    start: u64,
    mul: u64,
}

impl Default for NameHash {
    fn default() -> NameHash {
        static SEED: OnceLock<(u64, u64)> = OnceLock::new();
        let &(start, mul) = SEED.get_or_init(|| {
            let random = RandomState::new();
            (random.hash_one(0u64), random.hash_one(1u64) | 1)
        });
        NameHash { start, mul }
    }
}

impl BuildHasher for NameHash {
    type Hasher = NameHasher;

    fn build_hasher(&self) -> NameHasher {
        NameHasher {
            state: self.start,
            mul: self.mul,
        }
    }
}

/// One hash in progress (see the module docs).
pub(crate) struct NameHasher {
    state: u64,
    mul: u64,
}

impl NameHasher {
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(self.mul);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for NameHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.state = self.state.wrapping_add(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, byte: u8) {
        self.mix(u64::from(byte));
    }

    fn finish(&self) -> u64 {
        let product = u128::from(self.state) * u128::from(self.mul);
        (product as u64) ^ ((product >> 64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_names_hash_equal_and_near_names_apart() {
        let h = NameHash::default();
        assert_eq!(h.hash_one("G10"), NameHash::default().hash_one("G10"));
        let names = [
            "G1",
            "G10",
            "G100",
            "G1\0",
            "",
            "\0",
            "G11",
            "abcdefgh",
            "abcdefgh\0",
        ];
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(h.hash_one(a), h.hash_one(b), "{a:?} vs {b:?}");
            }
        }
    }
}
