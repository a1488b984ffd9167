//! The broker tier's one map keyed by client id: a broker's sessions and
//! a ledger's per-client entries.
//!
//! A client id is a `u64` that arrives off the wire, so the map is keyed:
//! each map draws its own seed from std's [`RandomState`], and a client
//! cannot pick ids that collide in a map whose seed it never sees. The
//! hash is one folded multiply (as in foldhash) instead of SipHash's
//! rounds. No code iterates a `ClientMap`, so the per-map seed never
//! reaches an output: frames, replies and verdicts are the same under
//! every seed.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};

/// A `HashMap` keyed by client id, under a seed of its own.
pub(crate) type ClientMap<V> = HashMap<u64, V, ClientKeys>;

/// The seeds of one [`ClientMap`]'s hasher.
#[derive(Clone, Debug)]
pub(crate) struct ClientKeys {
    seed: u64,
    /// The multiplier; odd, so the low product bits depend on every key bit
    /// below them.
    fold: u64,
}

impl Default for ClientKeys {
    /// Fresh seeds: every `RandomState::new` is keyed differently.
    fn default() -> Self {
        let keys = RandomState::new();
        ClientKeys {
            seed: keys.hash_one(0u64),
            fold: keys.hash_one(1u64) | 1,
        }
    }
}

impl BuildHasher for ClientKeys {
    type Hasher = ClientHasher;

    fn build_hasher(&self) -> ClientHasher {
        ClientHasher {
            acc: self.seed,
            fold: self.fold,
        }
    }
}

/// One folded multiply per `u64` written.
pub(crate) struct ClientHasher {
    acc: u64,
    fold: u64,
}

impl Hasher for ClientHasher {
    fn write_u64(&mut self, n: u64) {
        let full = u128::from(self.acc ^ n) * u128::from(self.fold);
        self.acc = full as u64 ^ (full >> 64) as u64;
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_are_seeded_apart() {
        let (a, b) = (ClientKeys::default(), ClientKeys::default());
        assert_ne!(a.hash_one(7u64), b.hash_one(7u64));
        assert_eq!(a.hash_one(7u64), a.hash_one(7u64));
    }

    #[test]
    fn dense_ids_spread_over_the_top_and_bottom_bits() {
        // The table picks a bucket from the low bits and a tag from the
        // top seven: 1,024 dense ids must not pile up in either.
        let keys = ClientKeys::default();
        let (mut low, mut top) = ([0u32; 64], [0u32; 128]);
        for id in 0..1024u64 {
            let h = keys.hash_one(id);
            low[(h & 63) as usize] += 1;
            top[(h >> 57) as usize] += 1;
        }
        assert!(low.iter().all(|&n| n < 48), "{low:?}");
        assert!(top.iter().all(|&n| n < 32), "{top:?}");
    }
}
