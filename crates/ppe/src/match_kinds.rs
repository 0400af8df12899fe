//! Longest-prefix and ternary match structures.
//!
//! Exact matching is covered by [`crate::tables::HashTable`]. Routing-
//! style lookups need longest-prefix match ([`LpmTable`]) and ACLs need
//! ternary match with priorities ([`TernaryTable`]) — in silicon the
//! latter is a small TCAM or LUT-cascade; the model preserves its
//! first-match-by-priority semantics and capacity accounting.

use std::collections::BTreeMap;

/// A longest-prefix-match table over IPv4 prefixes.
#[derive(Debug, Clone, Default)]
pub struct LpmTable<V: Copy> {
    // One exact-match map per prefix length, searched longest-first —
    // the classic "32 parallel tables" hardware decomposition.
    levels: BTreeMap<u8, std::collections::HashMap<u32, V>>,
    entries: usize,
}

impl<V: Copy> LpmTable<V> {
    /// An empty table.
    pub fn new() -> LpmTable<V> {
        LpmTable {
            levels: BTreeMap::new(),
            entries: 0,
        }
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(len))
        }
    }

    /// Insert `prefix/len → value`. Panics on `len > 32`.
    pub fn insert(&mut self, prefix: u32, len: u8, value: V) {
        assert!(len <= 32, "prefix length out of range");
        let masked = prefix & Self::mask(len);
        let level = self.levels.entry(len).or_default();
        if level.insert(masked, value).is_none() {
            self.entries += 1;
        }
    }

    /// Remove `prefix/len`.
    pub fn remove(&mut self, prefix: u32, len: u8) -> Option<V> {
        let masked = prefix & Self::mask(len);
        let v = self.levels.get_mut(&len)?.remove(&masked);
        if v.is_some() {
            self.entries -= 1;
        }
        v
    }

    /// Longest-prefix lookup.
    pub fn lookup(&self, addr: u32) -> Option<(u8, V)> {
        for (&len, level) in self.levels.iter().rev() {
            if let Some(v) = level.get(&(addr & Self::mask(len))) {
                return Some((len, *v));
            }
        }
        None
    }

    /// Number of installed prefixes.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when no prefixes are installed.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }
}

/// One ternary entry: `value/mask` with a priority (lower = higher
/// priority, matching P4 convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TernaryEntry<V: Copy> {
    /// Key value bits.
    pub value: [u8; 13],
    /// Care mask: 1 bits must match.
    pub mask: [u8; 13],
    /// Priority; lower wins.
    pub priority: u32,
    /// Associated data.
    pub data: V,
}

impl<V: Copy> TernaryEntry<V> {
    fn matches(&self, key: &[u8; 13]) -> bool {
        self.value
            .iter()
            .zip(&self.mask)
            .zip(key)
            .all(|((v, m), k)| v & m == k & m)
    }
}

/// A fixed-capacity ternary (TCAM-style) table.
#[derive(Debug, Clone)]
pub struct TernaryTable<V: Copy> {
    entries: Vec<TernaryEntry<V>>,
    capacity: usize,
}

impl<V: Copy> TernaryTable<V> {
    /// A table of at most `capacity` entries (TCAM rows are precious).
    pub fn new(capacity: usize) -> TernaryTable<V> {
        TernaryTable {
            entries: Vec::new(),
            capacity,
        }
    }

    /// Install an entry; returns `false` when the table is full.
    pub fn insert(&mut self, entry: TernaryEntry<V>) -> bool {
        if self.entries.len() >= self.capacity {
            return false;
        }
        self.entries.push(entry);
        // Keep sorted by priority so lookup is first-match.
        self.entries.sort_by_key(|e| e.priority);
        true
    }

    /// Highest-priority matching entry.
    pub fn lookup(&self, key: &[u8; 13]) -> Option<&TernaryEntry<V>> {
        self.entries.iter().find(|e| e.matches(key))
    }

    /// Remove all entries with `priority`.
    pub fn remove_priority(&mut self, priority: u32) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.priority != priority);
        before - self.entries.len()
    }

    /// Installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Remaining rows.
    pub fn free(&self) -> usize {
        self.capacity - self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpm_prefers_longest() {
        let mut t = LpmTable::new();
        t.insert(0x0a000000, 8, "ten-slash-8");
        t.insert(0x0a010000, 16, "ten-one");
        t.insert(0, 0, "default");
        assert_eq!(t.lookup(0x0a010203), Some((16, "ten-one")));
        assert_eq!(t.lookup(0x0a020304), Some((8, "ten-slash-8")));
        assert_eq!(t.lookup(0xc0a80001), Some((0, "default")));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn lpm_no_default_misses() {
        let mut t = LpmTable::new();
        t.insert(0x0a000000, 8, 1u8);
        assert_eq!(t.lookup(0x0b000000), None);
    }

    #[test]
    fn lpm_insert_masks_host_bits() {
        let mut t = LpmTable::new();
        t.insert(0x0a0000ff, 24, 9u8); // host bits ignored
        assert_eq!(t.lookup(0x0a000001), Some((24, 9)));
        assert_eq!(t.remove(0x0a000000, 24), Some(9));
        assert!(t.is_empty());
    }

    #[test]
    fn lpm_slash32_is_exact() {
        let mut t = LpmTable::new();
        t.insert(0x01020304, 32, 5u8);
        assert_eq!(t.lookup(0x01020304), Some((32, 5)));
        assert_eq!(t.lookup(0x01020305), None);
    }

    fn key(bytes: &[u8]) -> [u8; 13] {
        let mut k = [0u8; 13];
        k[..bytes.len()].copy_from_slice(bytes);
        k
    }

    #[test]
    fn ternary_priority_order() {
        let mut t = TernaryTable::new(8);
        // Low priority: match anything.
        assert!(t.insert(TernaryEntry {
            value: [0; 13],
            mask: [0; 13],
            priority: 100,
            data: "any",
        }));
        // High priority: first byte must be 0x0a.
        assert!(t.insert(TernaryEntry {
            value: key(&[0x0a]),
            mask: key(&[0xff]),
            priority: 1,
            data: "ten-net",
        }));
        assert_eq!(t.lookup(&key(&[0x0a, 0x01])).unwrap().data, "ten-net");
        assert_eq!(t.lookup(&key(&[0x0b])).unwrap().data, "any");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn ternary_capacity_enforced() {
        let mut t = TernaryTable::new(1);
        assert!(t.insert(TernaryEntry {
            value: [0; 13],
            mask: [0; 13],
            priority: 1,
            data: 0u8,
        }));
        assert!(!t.insert(TernaryEntry {
            value: [0; 13],
            mask: [0; 13],
            priority: 2,
            data: 1u8,
        }));
        assert_eq!(t.free(), 0);
    }

    #[test]
    fn ternary_remove_by_priority() {
        let mut t = TernaryTable::new(4);
        for p in [1u32, 2, 2, 3] {
            t.insert(TernaryEntry {
                value: [0; 13],
                mask: [0; 13],
                priority: p,
                data: p,
            });
        }
        assert_eq!(t.remove_priority(2), 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup(&[0; 13]).unwrap().priority, 1);
    }

    #[test]
    fn ternary_masked_bits_ignored() {
        let mut t = TernaryTable::new(2);
        t.insert(TernaryEntry {
            value: key(&[0xaa, 0xff]),
            mask: key(&[0xff, 0x00]), // second byte don't-care
            priority: 1,
            data: (),
        });
        assert!(t.lookup(&key(&[0xaa, 0x12])).is_some());
        assert!(t.lookup(&key(&[0xab, 0xff])).is_none());
    }
}
