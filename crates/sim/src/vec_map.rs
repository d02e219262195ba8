//! A map for the handful of entries a Thing or its runtime keeps per
//! peripheral, driver slot or operation.
//!
//! These maps hold a few entries at most, and a fleet holds a
//! million Things, so what counts is bytes per entry, not lookup
//! asymptotics. [`VecMap`] keeps its pairs in one vector that grows by
//! exactly one slot per new key: an empty map allocates nothing, one
//! entry costs one entry, and a lookup is a short linear scan.
//! Iteration runs in insertion order, except that a removal moves the
//! last pair into the freed place.

/// A vector of `(key, value)` pairs with map operations.
#[derive(Debug)]
pub struct VecMap<K, V> {
    pairs: Vec<(K, V)>,
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap { pairs: Vec::new() }
    }
}

impl<K: PartialEq, V> VecMap<K, V> {
    /// An empty map; it allocates on the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    fn position(&self, key: &K) -> Option<usize> {
        self.pairs.iter().position(|(k, _)| k == key)
    }

    /// The value stored under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        let i = self.position(key)?;
        Some(&self.pairs[i].1)
    }

    /// The value stored under `key`, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let i = self.position(key)?;
        Some(&mut self.pairs[i].1)
    }

    /// The value stored under `key`, inserting `V::default()` first if
    /// there is none.
    pub fn get_or_insert_default(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        let i = match self.position(&key) {
            Some(i) => i,
            None => self.push(key, V::default()),
        };
        &mut self.pairs[i].1
    }

    /// Stores `value` under `key`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.position(&key) {
            Some(i) => Some(std::mem::replace(&mut self.pairs[i].1, value)),
            None => {
                self.push(key, value);
                None
            }
        }
    }

    /// Appends a pair whose key is absent, growing by exactly one slot;
    /// returns its index.
    fn push(&mut self, key: K, value: V) -> usize {
        self.pairs.reserve_exact(1);
        self.pairs.push((key, value));
        self.pairs.len() - 1
    }

    /// Removes and returns the value stored under `key`.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.position(key)?;
        Some(self.pairs.swap_remove(i).1)
    }

    /// The number of entries.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// True if a value is stored under `key`.
    pub fn contains_key(&self, key: &K) -> bool {
        self.position(key).is_some()
    }

    /// The keys.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.pairs.iter().map(|(k, _)| k)
    }

    /// The `(key, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.pairs.iter().map(|(k, v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_as_a_map() {
        let mut m = VecMap::new();
        assert_eq!(m.insert(7u32, "a"), None);
        assert_eq!(m.insert(9, "b"), None);
        assert_eq!(m.insert(7, "c"), Some("a"));
        assert_eq!(m.pairs.len(), 2);
        assert_eq!(m.get(&7), Some(&"c"));
        assert!(m.contains_key(&9));
        *m.get_mut(&9).unwrap() = "d";
        assert_eq!(m.remove(&7), Some("c"));
        assert_eq!(m.remove(&7), None);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(&9, &"d")]);
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn grows_by_one_entry_per_key() {
        let mut m: VecMap<u32, Vec<u8>> = VecMap::new();
        for key in 0..5 {
            m.get_or_insert_default(key).push(key as u8);
            m.get_or_insert_default(key).push(key as u8);
            assert_eq!(m.pairs.capacity(), key as usize + 1);
        }
        assert_eq!(m.get(&3), Some(&vec![3, 3]));
    }
}
