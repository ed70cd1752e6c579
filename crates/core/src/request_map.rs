//! A compact map keyed by request id, for the scheduler's per-block and
//! per-install paths.
//!
//! [`RequestMap`] is open addressing with linear probing over the `u32` id:
//! keys and values live in two parallel arrays, a removal shifts the rest of
//! its probe run back one slot (no tombstones, so a long-lived table never
//! degrades), and the slot of an id is the high bits of its product with a
//! fixed odd 64-bit constant.  That product is a bijection on the id, so
//! there is no per-process random state to seed and nothing to hash byte by
//! byte: a lookup is one multiply, one shift and a short probe, where `std`'s
//! `RandomState` runs SipHash over the id.
//!
//! The mixer is fixed, so ids can be chosen to collide.  Every table in the
//! scheduler is bounded by what one session holds — the ring's resident
//! requests (at most its `cache_blocks`) or the requests it has touched — so
//! a peer that picks colliding ids lengthens only its own probe runs, and
//! only up to that bound.
//!
//! Iteration runs in table order, a function of the insertion and removal
//! history: like a `HashMap`'s, it must not feed anything that has to be
//! reproducible without a sort.

use crate::types::RequestId;

/// The key of an empty slot.  No catalog reaches `u32::MAX` requests, so no
/// real request has this id.
const EMPTY: u32 = u32::MAX;

/// `2^64 / φ`, rounded to odd: multiplying by it permutes the 64-bit words
/// and spreads consecutive ids evenly over the high bits.
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// The smallest non-empty table.
const MIN_SLOTS: usize = 8;

/// Map from [`RequestId`] to `V`: linear probing, backward-shift deletion,
/// at most seven eighths full.  An empty map holds no allocation, and
/// [`clear`](Self::clear) keeps the table it has.
#[derive(Debug, Clone)]
pub struct RequestMap<V> {
    /// Key of each slot, [`EMPTY`] when vacant; the length is zero or a
    /// power of two.
    keys: Vec<u32>,
    /// Value of each slot, `V::default()` when vacant.
    values: Vec<V>,
    /// Occupied slots.
    len: usize,
    /// `64 - log2(keys.len())`: the product's high bits index the table.
    shift: u32,
}

impl<V: Default> RequestMap<V> {
    /// Creates an empty map, with no allocation.
    pub fn new() -> Self {
        RequestMap {
            keys: Vec::new(),
            values: Vec::new(),
            len: 0,
            shift: 64,
        }
    }

    /// Creates a map that holds `n` entries without growing.
    pub fn with_capacity(n: usize) -> Self {
        let mut map = Self::new();
        if n > 0 {
            map.resize(slots_for(n));
        }
        map
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The value of `r`, if present.
    pub fn get(&self, r: RequestId) -> Option<&V> {
        self.find(r.0).map(|i| &self.values[i])
    }

    /// The value of `r`, mutably, if present.
    pub fn get_mut(&mut self, r: RequestId) -> Option<&mut V> {
        self.find(r.0).map(|i| &mut self.values[i])
    }

    /// Whether `r` has an entry.
    pub fn contains_key(&self, r: RequestId) -> bool {
        self.find(r.0).is_some()
    }

    /// Sets `r`'s value, returning the one it replaced.
    pub fn insert(&mut self, r: RequestId, v: V) -> Option<V> {
        let slot = self.slot_for_insert(r);
        if self.keys[slot] == r.0 {
            return Some(std::mem::replace(&mut self.values[slot], v));
        }
        self.keys[slot] = r.0;
        self.values[slot] = v;
        self.len += 1;
        None
    }

    /// `r`'s value, inserting `make()` first when `r` has none.
    pub fn get_or_insert_with(&mut self, r: RequestId, make: impl FnOnce() -> V) -> &mut V {
        let slot = self.slot_for_insert(r);
        if self.keys[slot] != r.0 {
            self.keys[slot] = r.0;
            self.values[slot] = make();
            self.len += 1;
        }
        &mut self.values[slot]
    }

    /// Removes `r`, returning its value.  The entries after it in its probe
    /// run move back to close the gap, so no slot is ever left marked dead.
    pub fn remove(&mut self, r: RequestId) -> Option<V> {
        let mut hole = self.find(r.0)?;
        let removed = std::mem::take(&mut self.values[hole]);
        let mask = self.keys.len() - 1;
        let mut next = (hole + 1) & mask;
        while self.keys[next] != EMPTY {
            // An entry may fill the hole unless its home lies cyclically in
            // `(hole, next]`, where a probe for it would stop before the hole.
            let home = self.home(self.keys[next]);
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(hole) & mask) {
                self.keys[hole] = self.keys[next];
                self.values.swap(hole, next);
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.keys[hole] = EMPTY;
        self.len -= 1;
        Some(removed)
    }

    /// Removes every entry, keeping the table's allocation.
    pub fn clear(&mut self) {
        if self.len == 0 {
            return;
        }
        for (key, value) in self.keys.iter_mut().zip(&mut self.values) {
            if *key != EMPTY {
                *key = EMPTY;
                *value = V::default();
            }
        }
        self.len = 0;
    }

    /// The entries, in table order (see the [module docs](self)).
    pub fn iter(&self) -> impl Iterator<Item = (RequestId, &V)> + '_ {
        (self.keys.iter().zip(&self.values))
            .filter(|&(&key, _)| key != EMPTY)
            .map(|(&key, value)| (RequestId(key), value))
    }

    /// The keys, in table order (see the [module docs](self)).
    pub fn keys(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.iter().map(|(r, _)| r)
    }

    /// The slot a probe for `key` starts at.
    fn home(&self, key: u32) -> usize {
        (u64::from(key).wrapping_mul(MIX) >> self.shift) as usize
    }

    /// The slot holding `key`, if any.
    fn find(&self, key: u32) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mask = self.keys.len() - 1;
        let mut i = self.home(key);
        loop {
            match self.keys[i] {
                k if k == key => return Some(i),
                EMPTY => return None,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The slot holding `r`, or else the vacant slot where it belongs,
    /// growing the table first if one more entry would fill it past seven
    /// eighths.
    fn slot_for_insert(&mut self, r: RequestId) -> usize {
        assert_ne!(r.0, EMPTY, "request id u32::MAX is reserved");
        if let Some(slot) = self.find(r.0) {
            return slot;
        }
        if 8 * (self.len + 1) > 7 * self.keys.len() {
            self.resize(slots_for(self.len + 1).max(2 * self.keys.len()));
        }
        let mask = self.keys.len() - 1;
        let mut i = self.home(r.0);
        while self.keys[i] != EMPTY {
            i = (i + 1) & mask;
        }
        i
    }

    /// Moves every entry into a table of `slots` slots.
    fn resize(&mut self, slots: usize) {
        debug_assert!(slots.is_power_of_two() && 8 * self.len <= 7 * slots);
        let keys = std::mem::replace(&mut self.keys, vec![EMPTY; slots]);
        let values = std::mem::take(&mut self.values);
        self.values.resize_with(slots, V::default);
        self.shift = 64 - slots.trailing_zeros();
        let mask = slots - 1;
        for (key, value) in keys.into_iter().zip(values) {
            if key != EMPTY {
                let mut i = self.home(key);
                while self.keys[i] != EMPTY {
                    i = (i + 1) & mask;
                }
                self.keys[i] = key;
                self.values[i] = value;
            }
        }
    }
}

impl<V: Default> Default for RequestMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Default> FromIterator<(RequestId, V)> for RequestMap<V> {
    fn from_iter<I: IntoIterator<Item = (RequestId, V)>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut map = Self::with_capacity(iter.size_hint().0);
        for (r, v) in iter {
            map.insert(r, v);
        }
        map
    }
}

impl<V: Default> std::ops::Index<RequestId> for RequestMap<V> {
    type Output = V;

    /// `r`'s value; panics when `r` has no entry.
    fn index(&self, r: RequestId) -> &V {
        match self.get(r) {
            Some(v) => v,
            None => panic!("no entry for {r}"),
        }
    }
}

/// Equal as maps: the same entries, whatever their table order.
impl<V: Default + PartialEq> PartialEq for RequestMap<V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().all(|(r, v)| other.get(r) == Some(v))
    }
}

/// The smallest table that holds `n` entries at most seven eighths full.
fn slots_for(n: usize) -> usize {
    (n * 8).div_ceil(7).next_power_of_two().max(MIN_SLOTS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn an_empty_map_allocates_nothing() {
        let map: RequestMap<u64> = RequestMap::new();
        assert_eq!(map.keys.capacity(), 0);
        assert_eq!(map.get(RequestId(0)), None);
        assert_eq!(map.iter().count(), 0);
    }

    #[test]
    fn clear_keeps_the_table() {
        let mut map = RequestMap::new();
        for r in 0..20 {
            map.insert(RequestId(r), r);
        }
        let slots = map.keys.len();
        map.clear();
        assert_eq!(map.len(), 0);
        assert_eq!(map.keys.len(), slots);
        assert_eq!(map.get(RequestId(3)), None);
        map.insert(RequestId(3), 7);
        assert_eq!(map.get(RequestId(3)), Some(&7));
    }

    #[test]
    fn with_capacity_does_not_grow() {
        let mut map = RequestMap::with_capacity(100);
        let slots = map.keys.len();
        for r in 0..100 {
            map.insert(RequestId(r * 1_024), ());
        }
        assert_eq!(map.keys.len(), slots);
        assert_eq!(map.len(), 100);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn the_empty_key_is_refused() {
        RequestMap::new().insert(RequestId(u32::MAX), 0u8);
    }

    #[test]
    fn removal_wraps_past_the_end() {
        // A run that starts in the last slot of an eight-slot table and
        // spills over into slot 0; removing its head moves the rest back.
        let mut map = RequestMap::with_capacity(1);
        let run: Vec<u32> = (0..u32::MAX)
            .filter(|&k| map.home(k) == 7)
            .take(3)
            .collect();
        for &k in &run {
            map.insert(RequestId(k), k);
        }
        assert_eq!(map.keys.len(), 8, "three entries fit in eight slots");
        assert_eq!(map.keys[0], run[1], "the run wrapped");
        assert_eq!(map.remove(RequestId(run[0])), Some(run[0]));
        assert_eq!(map.keys[7], run[1], "moved back across the end");
        for &k in &run[1..] {
            assert_eq!(map.get(RequestId(k)), Some(&k));
        }
        let live: Vec<u32> = map.keys().map(|r| r.0).collect();
        assert_eq!(live.len(), 2);
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        /// An id from a small pool, so operations revisit keys, in one of
        /// three families: dense, multiples of 64 and multiples of 1 024
        /// (equal in their low bits).
        fn id(family: u8, k: u32) -> u32 {
            match family {
                0 => k,
                1 => k * 64,
                _ => k * 1_024,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Random inserts, updates, removals, lookups and clears from an
            /// empty map answer what a `HashMap` answers, and the map
            /// iterates exactly the live set after each one.
            #[test]
            fn matches_a_hash_map(
                ops in proptest::collection::vec(((0u8..14, 0u8..3), (0u32..48, any::<u32>())), 1..400)
            ) {
                let mut map: RequestMap<u32> = RequestMap::new();
                let mut oracle: HashMap<u32, u32> = HashMap::new();
                for ((kind, family), (k, v)) in ops {
                    let k = id(family, k);
                    let r = RequestId(k);
                    match kind {
                        0..=5 => prop_assert_eq!(map.insert(r, v), oracle.insert(k, v)),
                        6..=9 => prop_assert_eq!(map.remove(r), oracle.remove(&k)),
                        10..=12 => {
                            prop_assert_eq!(map.get(r), oracle.get(&k));
                            prop_assert_eq!(map.contains_key(r), oracle.contains_key(&k));
                        }
                        _ => {
                            map.clear();
                            oracle.clear();
                        }
                    }
                    prop_assert_eq!(map.len(), oracle.len());
                    let live: HashMap<u32, u32> = map.iter().map(|(r, &v)| (r.0, v)).collect();
                    prop_assert_eq!(live.len(), map.len(), "a key iterated twice");
                    prop_assert_eq!(&live, &oracle);
                    prop_assert!(8 * map.len() <= 7 * map.keys.len().max(1));
                }
            }

            /// Removals anywhere in runs that wrap past the table's end: in
            /// a table kept at eight slots, every key homes to one of its
            /// last two slots.
            #[test]
            fn removals_across_the_wrap(
                picks in proptest::collection::vec((0usize..7, 0u8..2), 1..200)
            ) {
                let mut map = RequestMap::with_capacity(1);
                let pool: Vec<u32> = (0..u32::MAX).filter(|&k| map.home(k) >= 6).take(7).collect();
                let mut oracle: HashMap<u32, u32> = HashMap::new();
                for (i, insert) in picks {
                    let k = pool[i];
                    if insert == 1 && oracle.len() < 7 {
                        prop_assert_eq!(map.insert(RequestId(k), i as u32), oracle.insert(k, i as u32));
                    } else {
                        prop_assert_eq!(map.remove(RequestId(k)), oracle.remove(&k));
                    }
                    prop_assert_eq!(map.keys.len(), 8);
                    for &k in &pool {
                        prop_assert_eq!(map.get(RequestId(k)), oracle.get(&k));
                    }
                    let live: HashMap<u32, u32> = map.iter().map(|(r, &v)| (r.0, v)).collect();
                    prop_assert_eq!(&live, &oracle);
                }
            }
        }
    }
}
