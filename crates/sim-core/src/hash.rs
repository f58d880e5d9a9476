//! The simulator's one hash function: fixed, seedless, a multiply per word.
//!
//! Every hash map under the LRTS boundary is a look-up table keyed by
//! small integers the simulator minted itself — PE pairs, transfer ids,
//! memory handles, simulated addresses — and is hit several times per
//! message. `std`'s default `RandomState` (SipHash-1-3 with a per-process
//! seed) pays for protection against an adversary choosing keys to collide;
//! that protection buys nothing here and the price is most of the look-up:
//!
//! * **No key comes from outside the process.** Keys are ids the runtime
//!   allocates; message *payloads* are never hashed. Nobody can aim a
//!   collision attack at a table whose keys they cannot choose.
//! * **Order is unobservable.** The workspace's `clippy.toml` forbids
//!   iterating these maps, so neither the function nor the absence of a
//!   seed can reach a virtual timestamp; a fixed function additionally
//!   makes the host-side behaviour (probe lengths, resizes) repeat run to
//!   run.
//!
//! The function: each written word is xor'ed into the state and multiplied
//! by a fixed odd constant *as a 128-bit product*, and the product's high
//! half is folded back into its low half. The fold is what the key shapes
//! need. hashbrown indexes buckets with the hash's low bits and tags
//! entries with its top seven, and a plain wrapping multiply only carries
//! entropy upward — yet this tree's addresses keep theirs high up
//! (`alloc_addr` steps by `1 << 24` inside a `(node + 1) << 44` window, a
//! mempool window starts at `(1 << 62) + (pe << 40)`), which a multiply
//! alone turns into a constant low half: every key in one bucket chain.
//! Folding inside each write (not once in `finish`) also covers entropy
//! above bit 48, which a single `h ^ (h >> 32)` at the end cannot reach.
//! The tests below pin the distribution on each shape the tree uses, and
//! the function itself against fixed vectors.
//!
//! Use through [`DetHashMap`] / [`DetHashSet`] (construct with
//! `::default()`); the workspace's `clippy.toml` rejects a plain
//! `std::collections::HashMap` everywhere else.

#![allow(
    clippy::disallowed_types,
    reason = "this file defines the Det* aliases over the std containers"
)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, odd: the usual Fibonacci-hashing multiplier.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// See the [module docs](self).
#[derive(Default)]
pub struct DetHasher(u64);

impl DetHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let p = u128::from(self.0 ^ word) * u128::from(K);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

impl Hasher for DetHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// Byte strings (no key in the tree is one today): eight bytes per
    /// word, then the length so `[1]` and `[1, 0]` differ.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
        self.mix(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
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

pub(crate) type DetBuildHasher = BuildHasherDefault<DetHasher>;
pub type DetHashMap<K, V> = HashMap<K, V, DetBuildHasher>;
pub type DetHashSet<K> = HashSet<K, DetBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(key: T) -> u64 {
        DetBuildHasher::default().hash_one(key)
    }

    /// The hashes' low 16 bits (what a table of up to 64k buckets indexes
    /// with) and top 7 (hashbrown's per-entry tag) must each take at least
    /// 60 % of the distinct values that many keys could reach: 65,536
    /// uniformly random hashes would fill 1 - 1/e = 63 % of the 65,536
    /// low-16 values, so 60 % is "as good as random".
    fn assert_spread<T: Hash>(shape: &str, keys: impl Iterator<Item = T>) {
        let hashes: Vec<u64> = keys.map(hash_of).collect();
        let share = |bits: u32, pick: fn(u64) -> u64| {
            let distinct: BTreeSet<u64> = hashes.iter().map(|&h| pick(h)).collect();
            distinct.len() as f64 / hashes.len().min(1 << bits) as f64
        };
        let (low, top) = (share(16, |h| h & 0xffff), share(7, |h| h >> 57));
        assert!(low >= 0.60, "{shape}: low 16 bits only {low:.3} distinct");
        assert!(top >= 0.60, "{shape}: top 7 bits only {top:.3} distinct");
    }

    /// Addresses as `gemini_net::Addr` hashes them (a derived `Hash` on a
    /// one-field tuple struct writes the field).
    #[derive(Hash)]
    struct Addr(u64);

    const HOPPER_PES: u32 = 153_216;

    #[test]
    fn pe_pairs_spread() {
        // Connections of a k = 3 ring, both directions, strided across the
        // whole Hopper machine; and a dense 256 x 256 block.
        let ring = (0..HOPPER_PES).step_by(14).flat_map(|pe| {
            (1..=3).flat_map(move |d| {
                let peer = (pe + d) % HOPPER_PES;
                [(pe, peer), (peer, pe)]
            })
        });
        assert_spread("ring PE pairs", ring);
        assert_spread(
            "dense PE pairs",
            (0..256u32).flat_map(|a| (0..256u32).map(move |b| (a, b))),
        );
    }

    #[test]
    fn bump_addresses_spread() {
        // `Gni::alloc_addr`: `(node + 1) << 44`, stepping by `1 << 24`.
        let addr = |node: u32, k: u64| (node, Addr(((u64::from(node) + 1) << 44) | (k << 24)));
        assert_spread(
            "64 nodes x 1,024 buffers",
            (0..64).flat_map(|n| (0..1024).map(move |k| addr(n, k))),
        );
        assert_spread("one node, 65,536 buffers", (0..65_536).map(|k| addr(3, k)));
    }

    #[test]
    fn pool_addresses_spread() {
        // `UgniLayer::pool_base(pe) + k * 4096`, as a bare address.
        let addr = |pe: u64, k: u64| Addr((1 << 62) + (pe << 40) + k * 4096);
        assert_spread(
            "1,024 PEs x 64 blocks",
            (0..1024).flat_map(|pe| (0..64).map(move |k| addr(pe, k))),
        );
        assert_spread(
            "64 PEs x 1,024 blocks",
            (0..64).flat_map(|pe| (0..1024).map(move |k| addr(pe, k))),
        );
        // Entropy above bit 40 only: folding once at `finish` would put
        // these on 0.2 % of the low-16 values.
        assert_spread("65,536 window bases", (0..65_536).map(|pe| addr(2 * pe, 0)));
    }

    #[test]
    fn monotone_ids_spread() {
        assert_spread("xids from 0", 0..65_536u64);
        assert_spread(
            "handles, stride 3",
            (0..65_536u64).map(|i| 1_000_000 + 3 * i),
        );
        // Chare-array elements: `(u16, u64)`.
        assert_spread(
            "(array, index)",
            (0..16u16).flat_map(|a| (0..4096u64).map(move |i| (a, i))),
        );
    }

    /// The function cannot drift silently: host-side probe sequences (and
    /// every benchmark number) depend on it.
    #[test]
    fn fixed_vectors() {
        assert_eq!(hash_of(0u64), 0);
        assert_eq!(hash_of(1u64), 0x9E37_79B9_7F4A_7C15);
        assert_eq!(hash_of(0xdead_beefu32), 0x00df_ed97_a74d_1096);
        assert_eq!(hash_of((7u32, 9u32)), 0xd4a2_b3eb_9be1_63e6);
        assert_eq!(hash_of(Addr((4 << 44) | (5 << 24))), 0x3e81_93e1_8885_7533);
        // A slice writes its length, then `write`: the bytes, the length.
        assert_eq!(hash_of(&b"abc"[..]), 0x73ba_b3a9_1d71_8bfe);
    }

    #[test]
    fn aliases_behave_as_maps() {
        let mut m: DetHashMap<(u32, u32), u64> = DetHashMap::default();
        let mut s: DetHashSet<u64> = DetHashSet::default();
        for i in 0..1000u32 {
            m.insert((i, i + 1), u64::from(i));
            s.insert(u64::from(i) << 24);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&(41, 42)], 41);
        assert!(s.contains(&(999 << 24)) && !s.contains(&1));
        assert_eq!(m.remove(&(0, 1)), Some(0));
        assert_eq!(m.get(&(0, 1)), None);
    }
}
