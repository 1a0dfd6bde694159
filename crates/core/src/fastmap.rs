//! Open-addressed hash containers specialised for `u64` keys.
//!
//! The compiled pair search ([`crate::reach`]) streams millions of packed
//! pair codes through its visited set and sparse row index; the standard
//! library's SipHash plus per-entry layout dominate that hot loop. These
//! tables use splitmix64 mixing, power-of-two capacity with linear
//! probing, and reserve `u64::MAX` as the empty-slot marker — packed pair
//! keys are always `< |Σ|² ≤ (2³² − 1)²`, and sparse row keys are state
//! codes `< |Σ|`, so the marker can never collide with a real key.

const EMPTY: u64 = u64::MAX;
const INITIAL_SLOTS: usize = 16;

/// splitmix64 finalizer: a cheap, well-mixed `u64 → u64` hash.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A set of `u64` keys; every key must be strictly below `u64::MAX`.
#[derive(Debug, Default)]
pub struct U64Set {
    slots: Vec<u64>,
    len: usize,
}

impl U64Set {
    /// An empty set.
    pub fn new() -> U64Set {
        U64Set::default()
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        debug_assert_ne!(key, EMPTY);
        if self.slots.is_empty() {
            return false;
        }
        let mask = self.slots.len() - 1;
        let mut i = mix(key) as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == key {
                return true;
            }
            if slot == EMPTY {
                return false;
            }
            i = (i + 1) & mask;
        }
    }

    /// Removes every key, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.len = 0;
    }

    /// Inserts `key`; returns `true` when it was not already present.
    #[inline]
    pub fn insert(&mut self, key: u64) -> bool {
        debug_assert_ne!(key, EMPTY);
        if self.len * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = mix(key) as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == key {
                return false;
            }
            if slot == EMPTY {
                self.slots[i] = key;
                self.len += 1;
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(INITIAL_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; new_len]);
        let mask = new_len - 1;
        for key in old {
            if key == EMPTY {
                continue;
            }
            let mut i = mix(key) as usize & mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = key;
        }
    }
}

/// A map from `u64` keys to `u64` values; every key must be strictly
/// below `u64::MAX` (values are unrestricted).
///
/// Sparse row indexes map state codes to arena offsets; the prover
/// kernels map packed projection keys (a state code with some
/// coordinates zeroed) to packed outcomes.
#[derive(Debug, Default)]
pub struct U64Map {
    keys: Vec<u64>,
    vals: Vec<u64>,
    len: usize,
}

impl U64Map {
    /// An empty map.
    pub fn new() -> U64Map {
        U64Map::default()
    }

    /// Number of entries stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value stored under `key`, if any.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u64> {
        debug_assert_ne!(key, EMPTY);
        if self.keys.is_empty() {
            return None;
        }
        let mask = self.keys.len() - 1;
        let mut i = mix(key) as usize & mask;
        loop {
            let slot = self.keys[i];
            if slot == key {
                return Some(self.vals[i]);
            }
            if slot == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts `key → val`, replacing and returning any previous value.
    #[inline]
    pub fn insert(&mut self, key: u64, val: u64) -> Option<u64> {
        debug_assert_ne!(key, EMPTY);
        if self.len * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut i = mix(key) as usize & mask;
        loop {
            let slot = self.keys[i];
            if slot == key {
                return Some(std::mem::replace(&mut self.vals[i], val));
            }
            if slot == EMPTY {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_len = (self.keys.len() * 2).max(INITIAL_SLOTS);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_len]);
        let old_vals = std::mem::replace(&mut self.vals, vec![0; new_len]);
        let mask = new_len - 1;
        for (key, val) in old_keys.into_iter().zip(old_vals) {
            if key == EMPTY {
                continue;
            }
            let mut i = mix(key) as usize & mask;
            while self.keys[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.keys[i] = key;
            self.vals[i] = val;
        }
    }
}

/// Streaming 64-bit FNV-1a hasher.
///
/// Used wherever the workspace needs a *stable, canonical* content hash
/// rather than a per-process randomized one: system registry keys in
/// `sd-server` and [`crate::query::Query::fingerprint`] cache keys. It
/// implements [`std::hash::Hasher`], so any `#[derive(Hash)]` type can
/// feed it — but unlike the std `DefaultHasher`, the digest is specified
/// (FNV-1a over the byte stream) and identical across processes and
/// runs.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

impl Fnv64 {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }

    /// The digest so far.
    pub fn digest(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

impl std::hash::Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    // The std defaults feed native-endian bytes; pin little-endian so
    // digests are identical across architectures, not just runs.
    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }
    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }
    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }
    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }
    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }
    fn write_usize(&mut self, i: usize) {
        self.write(&(i as u64).to_le_bytes());
    }
    fn write_i64(&mut self, i: i64) {
        self.write(&i.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    /// A cheap deterministic pseudo-random stream.
    fn stream(seed: u64, len: usize) -> Vec<u64> {
        (0..len as u64).map(|i| mix(seed ^ i) % 1000).collect()
    }

    #[test]
    fn set_matches_std_hashset() {
        let mut ours = U64Set::new();
        let mut std_set = HashSet::new();
        for key in stream(1, 4000) {
            assert_eq!(ours.insert(key), std_set.insert(key));
        }
        assert_eq!(ours.len(), std_set.len());
        for key in 0..1000 {
            assert_eq!(ours.contains(key), std_set.contains(&key));
        }
        assert!(!ours.is_empty());
        ours.clear();
        assert!(ours.is_empty());
        for key in 0..1000 {
            assert!(!ours.contains(key));
        }
        assert!(ours.insert(7));
    }

    #[test]
    fn map_matches_std_hashmap() {
        let mut ours = U64Map::new();
        let mut std_map = HashMap::new();
        for (i, key) in stream(2, 4000).into_iter().enumerate() {
            let val = mix(i as u64);
            assert_eq!(ours.insert(key, val), std_map.insert(key, val));
        }
        assert_eq!(ours.len(), std_map.len());
        for key in 0..1000 {
            assert_eq!(ours.get(key), std_map.get(&key).copied());
        }
    }

    #[test]
    fn empty_containers_answer_lookups() {
        assert!(!U64Set::new().contains(7));
        assert!(U64Set::new().is_empty());
        assert_eq!(U64Map::new().get(7), None);
        assert!(U64Map::new().is_empty());
    }

    #[test]
    fn large_keys_near_the_marker_work() {
        // Packed pair keys can approach (2³²−1)² − 1; anything below
        // u64::MAX must round-trip.
        let big = u64::MAX - 1;
        let mut s = U64Set::new();
        assert!(s.insert(big));
        assert!(s.contains(big));
        let mut m = U64Map::new();
        assert_eq!(m.insert(big, u64::MAX), None);
        assert_eq!(m.get(big), Some(u64::MAX));
    }
}
