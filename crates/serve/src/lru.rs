//! The one least-recently-used index both cache tiers keep: the memory
//! tier weighs each entry 1 against its entry cap, the disk tier weighs
//! each entry by its file's bytes against its byte cap.

use std::collections::{BTreeMap, HashMap};

/// One resident entry: its value, weight and LRU stamp.
struct Slot<V> {
    value: V,
    weight: u64,
    /// Larger = more recently used.
    seq: u64,
}

/// A keyed LRU with per-entry weights and a cap on their sum. Inserts
/// never evict by themselves; the owner drains
/// [`Lru::pop_over_cap`] when it wants the cap to hold, so it can act
/// on each victim (the disk tier deletes its file).
pub(crate) struct Lru<V> {
    entries: HashMap<String, Slot<V>>,
    /// seq → key, the eviction order. Kept in lockstep with `entries`.
    order: BTreeMap<u64, String>,
    weight: u64,
    cap: u64,
    next_seq: u64,
}

impl<V> Lru<V> {
    /// An empty LRU whose entries may weigh `cap` in all.
    pub(crate) fn new(cap: u64) -> Lru<V> {
        Lru {
            entries: HashMap::new(),
            order: BTreeMap::new(),
            weight: 0,
            cap,
            next_seq: 0,
        }
    }

    /// The entry under `key`, now the most recently used.
    pub(crate) fn get(&mut self, key: &str) -> Option<&V> {
        let slot = self.entries.get_mut(key)?;
        let seq = self.next_seq;
        self.next_seq += 1;
        let old = std::mem::replace(&mut slot.seq, seq);
        let key = self.order.remove(&old).expect("order tracks every entry");
        self.order.insert(seq, key);
        Some(&slot.value)
    }

    /// Whether `key` is resident (recency unchanged).
    pub(crate) fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Inserts or replaces `key` as the most recently used entry.
    pub(crate) fn insert(&mut self, key: &str, value: V, weight: u64) {
        self.remove(key);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries
            .insert(key.to_string(), Slot { value, weight, seq });
        self.order.insert(seq, key.to_string());
        self.weight += weight;
    }

    /// Removes `key`, returning its value.
    pub(crate) fn remove(&mut self, key: &str) -> Option<V> {
        let slot = self.entries.remove(key)?;
        self.order.remove(&slot.seq);
        self.weight -= slot.weight;
        Some(slot.value)
    }

    /// While the entries weigh more than the cap, removes the least
    /// recently used one and returns its key.
    pub(crate) fn pop_over_cap(&mut self) -> Option<String> {
        if self.weight <= self.cap {
            return None;
        }
        let (_, key) = self.order.pop_first()?;
        let slot = self.entries.remove(&key).expect("order tracks every entry");
        self.weight -= slot.weight;
        Some(key)
    }

    /// Resident entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The summed weight of the resident entries.
    pub(crate) fn weight(&self) -> u64 {
        self.weight
    }

    /// Keys in eviction order, least recently used first.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &String> {
        self.order.values()
    }

    /// Every entry's key and weight, in no particular order.
    pub(crate) fn weights(&self) -> impl Iterator<Item = (&String, u64)> {
        self.entries.iter().map(|(k, s)| (k, s.weight))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recent_first_until_the_weights_fit() {
        let mut lru = Lru::new(10);
        lru.insert("a", 1, 4);
        lru.insert("b", 2, 4);
        assert_eq!(lru.get("a"), Some(&1), "a is now most recent");
        lru.insert("c", 3, 4);
        assert_eq!(lru.weight(), 12);
        assert_eq!(lru.pop_over_cap().as_deref(), Some("b"));
        assert_eq!(lru.pop_over_cap(), None);
        assert_eq!(lru.keys().collect::<Vec<_>>(), ["a", "c"]);
        // Replacing an entry re-weighs it and makes it most recent.
        lru.insert("a", 4, 1);
        assert_eq!((lru.len(), lru.weight()), (2, 5));
        assert_eq!(lru.keys().collect::<Vec<_>>(), ["c", "a"]);
        assert_eq!(lru.remove("c"), Some(3));
        assert!(!lru.contains("c") && lru.contains("a"));
        assert_eq!(lru.weights().collect::<Vec<_>>(), [(&"a".to_string(), 1)]);
    }

    #[test]
    fn an_entry_over_the_cap_alone_is_evicted_too() {
        let mut lru = Lru::new(3);
        lru.insert("big", (), 5);
        assert_eq!(lru.pop_over_cap().as_deref(), Some("big"));
        assert_eq!((lru.len(), lru.weight()), (0, 0));
    }
}
