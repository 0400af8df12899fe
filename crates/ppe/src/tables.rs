//! The hardware hash-table model.
//!
//! Exact-match state in the PPE lives in bucketized hash tables carved
//! out of LSRAM: CRC-32 of the key selects a bucket, and a small number
//! of ways per bucket are probed in parallel. Unlike a software HashMap
//! there is no rehashing and no unbounded chaining — a full bucket is an
//! insertion failure the control plane must handle. The NAT case study's
//! 32 768-flow source-IP table is exactly such a structure.

use flexsfp_fabric::hash::crc32;
use flexsfp_obs::TableTelemetry;
use std::cell::Cell;

/// Fixed-width key material for hardware tables (13 bytes fits an IPv4
/// 5-tuple; shorter keys zero-pad).
pub trait TableKey: Copy + Eq {
    /// Serialized key bytes (zero-padded to a fixed width in hardware).
    fn key_bytes(&self) -> [u8; 13];
}

impl TableKey for u32 {
    fn key_bytes(&self) -> [u8; 13] {
        let mut b = [0u8; 13];
        b[..4].copy_from_slice(&self.to_be_bytes());
        b
    }
}

impl TableKey for u64 {
    fn key_bytes(&self) -> [u8; 13] {
        let mut b = [0u8; 13];
        b[..8].copy_from_slice(&self.to_be_bytes());
        b
    }
}

/// IPv4 5-tuple key `(src, dst, proto, sport, dport)`.
pub type FiveTuple = (u32, u32, u8, u16, u16);

impl TableKey for FiveTuple {
    fn key_bytes(&self) -> [u8; 13] {
        let mut b = [0u8; 13];
        b[0..4].copy_from_slice(&self.0.to_be_bytes());
        b[4..8].copy_from_slice(&self.1.to_be_bytes());
        b[8] = self.2;
        b[9..11].copy_from_slice(&self.3.to_be_bytes());
        b[11..13].copy_from_slice(&self.4.to_be_bytes());
        b
    }
}

/// Errors from table updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableError {
    /// Every way of the target bucket is occupied.
    BucketFull,
}

impl core::fmt::Display for TableError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TableError::BucketFull => write!(f, "hash bucket full"),
        }
    }
}

impl std::error::Error for TableError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry<K, V> {
    key: K,
    value: V,
}

/// Map a key's CRC-32 to a nonzero 1-byte fingerprint. The high byte is
/// used so the fingerprint bits don't overlap the bucket-index bits for
/// any realistic table size (≤ 2^24 buckets); 0 is reserved for "empty"
/// and remapped to 1.
fn fingerprint(hash: u32) -> u8 {
    let fp = (hash >> 24) as u8;
    if fp == 0 {
        1
    } else {
        fp
    }
}

/// A bucketized, CRC-indexed hash table of fixed capacity.
///
/// Storage is a single flat slot array of `buckets × ways` entries with
/// a parallel 1-byte tag array — no per-bucket `Vec`, no pointer chase.
/// A probe scans the bucket's contiguous tag bytes (one cache line for
/// any realistic associativity) and touches the wide slot array only on
/// a fingerprint match; tag 0 means the way is empty. Bucket selection
/// is unchanged from the chained layout (CRC-32 of the key masked by
/// the power-of-two bucket count), as are the BucketFull semantics, so
/// table layouts — which keys land in which bucket, and which inserts
/// overflow — are bit-identical to the previous representation.
///
/// Hit/miss counters live in [`Cell`]s so [`lookup`](HashTable::lookup)
/// takes `&self` — the dataplane probes tables through shared references
/// (hardware lookups don't mutate the table), and sweep workers can hold a
/// module without exclusive access just to count hits.
#[derive(Debug, Clone)]
pub struct HashTable<K: TableKey, V: Copy> {
    /// One byte per slot: 0 = empty, else the occupant's fingerprint.
    tags: Vec<u8>,
    /// `Some` exactly where the tag is nonzero.
    slots: Vec<Option<Entry<K, V>>>,
    bucket_mask: usize,
    ways: usize,
    occupied: usize,
    hits: Cell<u64>,
    misses: Cell<u64>,
    insert_failures: u64,
}

/// Ways per bucket of a [`HashTable::with_capacity`] table.
const WAYS: usize = 4;

/// Entries a [`HashTable::with_capacity`] table of `capacity` holds:
/// 4-way buckets, their count rounded up to a power of two. An app
/// costs its table with this before allocating it, so it saturates
/// where the table could not be built; it is idempotent, so the built
/// table's capacity costs the same.
pub fn slots_for(capacity: usize) -> usize {
    capacity
        .div_ceil(WAYS)
        .checked_next_power_of_two()
        .and_then(|buckets| buckets.checked_mul(WAYS))
        .unwrap_or(usize::MAX)
}

impl<K: TableKey, V: Copy> HashTable<K, V> {
    /// A table with `buckets` buckets (rounded up to a power of two) of
    /// `ways` entries each. Test-only: `crates/ppe/tests/prop.rs`: a
    /// two-way geometry small enough to fill buckets.
    pub fn new(buckets: usize, ways: usize) -> HashTable<K, V> {
        assert!(buckets > 0 && ways > 0);
        let buckets = buckets.next_power_of_two();
        HashTable {
            tags: vec![0; buckets * ways],
            slots: vec![None; buckets * ways],
            bucket_mask: buckets - 1,
            ways,
            occupied: 0,
            hits: Cell::new(0),
            misses: Cell::new(0),
            insert_failures: 0,
        }
    }

    /// A table sized for `capacity` total entries with 4-way buckets —
    /// the layout used for the NAT's 32 768-flow table. It holds
    /// [`slots_for`]`(capacity)` entries.
    pub fn with_capacity(capacity: usize) -> HashTable<K, V> {
        HashTable::new(capacity.div_ceil(WAYS), WAYS)
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.tags.len()
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// True when no entries are present. Test-only:
    /// `crates/ppe/tests/prop.rs`: emptiness against a model map.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// The bucket `key` hashes to. Public so layout-pinning tests (and
    /// control-plane introspection) can prove which bucket an entry
    /// occupies without depending on the storage representation.
    pub(crate) fn bucket_of(&self, key: &K) -> usize {
        (crc32(&key.key_bytes()) as usize) & self.bucket_mask
    }

    /// Probe a bucket for `key`: tag scan first, full key compare only
    /// on fingerprint match. Returns the matching slot index.
    #[inline]
    fn find(&self, key: &K) -> Option<usize> {
        let h = crc32(&key.key_bytes());
        let base = ((h as usize) & self.bucket_mask) * self.ways;
        let fp = fingerprint(h);
        for w in 0..self.ways {
            if self.tags[base + w] == fp {
                if let Some(e) = &self.slots[base + w] {
                    if e.key == *key {
                        return Some(base + w);
                    }
                }
            }
        }
        None
    }

    /// Look up `key`, updating hit/miss statistics.
    pub fn lookup(&self, key: &K) -> Option<V> {
        match self.find(key) {
            Some(slot) => {
                self.hits.set(self.hits.get() + 1);
                self.slots[slot].as_ref().map(|e| e.value)
            }
            None => {
                self.misses.set(self.misses.get() + 1);
                None
            }
        }
    }

    /// Look up without touching statistics (control-plane reads).
    pub fn peek(&self, key: &K) -> Option<V> {
        self.find(key)
            .and_then(|slot| self.slots[slot].as_ref())
            .map(|e| e.value)
    }

    /// Load `key`'s bucket — its tags and its slots — changing nothing
    /// and counting nothing: a batch processor calls this for a whole
    /// window before the lookups, so their cache misses overlap. Both
    /// addresses follow from the hash alone, so neither load waits for
    /// the other (a `peek` would fetch the slot only after the tags).
    pub fn touch(&self, key: &K) {
        let base = self.bucket_of(key) * self.ways;
        std::hint::black_box((
            self.tags[base],
            self.slots[base].is_some(),
            self.slots[base + self.ways - 1].is_some(),
        ));
    }

    /// Insert or update. Fails with [`TableError::BucketFull`] when the
    /// bucket has no free way (the hardware has nowhere to put it —
    /// there is no probing across buckets).
    pub fn insert(&mut self, key: K, value: V) -> Result<(), TableError> {
        let h = crc32(&key.key_bytes());
        let base = ((h as usize) & self.bucket_mask) * self.ways;
        let fp = fingerprint(h);
        // Update in place when the key is already resident.
        for w in 0..self.ways {
            if self.tags[base + w] == fp {
                if let Some(e) = &mut self.slots[base + w] {
                    if e.key == key {
                        e.value = value;
                        return Ok(());
                    }
                }
            }
        }
        // First free way, else the bucket is full.
        for w in 0..self.ways {
            if self.tags[base + w] == 0 {
                self.tags[base + w] = fp;
                self.slots[base + w] = Some(Entry { key, value });
                self.occupied += 1;
                return Ok(());
            }
        }
        self.insert_failures += 1;
        Err(TableError::BucketFull)
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let slot = self.find(key)?;
        self.tags[slot] = 0;
        self.occupied -= 1;
        self.slots[slot].take().map(|e| e.value)
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        self.tags.fill(0);
        for s in &mut self.slots {
            *s = None;
        }
        self.occupied = 0;
    }

    /// Geometry and lifetime counters, as telemetry exports them.
    pub fn stats(&self) -> TableTelemetry {
        TableTelemetry {
            capacity: self.capacity() as u64,
            occupied: self.occupied as u64,
            hits: self.hits.get(),
            misses: self.misses.get(),
            insert_failures: self.insert_failures,
        }
    }

    /// Iterate over `(key, value)` pairs (control-plane table dump).
    pub fn iter(&self) -> impl Iterator<Item = (K, V)> + '_ {
        self.slots.iter().flatten().map(|e| (e.key, e.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove() {
        let mut t: HashTable<u32, u64> = HashTable::with_capacity(1024);
        assert!(t.is_empty());
        t.insert(0xc0a80001, 42).unwrap();
        assert_eq!(t.lookup(&0xc0a80001), Some(42));
        assert_eq!(t.lookup(&0xc0a80002), None);
        assert_eq!(t.len(), 1);
        assert_eq!((t.stats().capacity, t.stats().occupied), (1024, 1));
        assert_eq!(t.remove(&0xc0a80001), Some(42));
        assert_eq!(t.lookup(&0xc0a80001), None);
        assert!(t.is_empty());
        let s = t.stats();
        assert_eq!((s.hits, s.misses, s.occupied), (1, 2, 0));
    }

    #[test]
    fn update_in_place() {
        let mut t: HashTable<u32, u64> = HashTable::with_capacity(16);
        t.insert(7, 1).unwrap();
        t.insert(7, 2).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(&7), Some(2));
    }

    #[test]
    fn bucket_overflow_is_an_error() {
        // One bucket, two ways: the third distinct key must fail.
        let mut t: HashTable<u32, u64> = HashTable::new(1, 2);
        let mut inserted = 0;
        let mut failed = 0;
        for k in 0u32..3 {
            match t.insert(k, u64::from(k)) {
                Ok(()) => inserted += 1,
                Err(TableError::BucketFull) => failed += 1,
            }
        }
        assert_eq!(inserted, 2);
        assert_eq!(failed, 1);
        assert_eq!(t.stats().insert_failures, 1);
    }

    #[test]
    fn holds_nat_scale_population() {
        // The NAT's table: 32 768 entries, 4-way (8 192 buckets). At 25%
        // load the per-bucket Poisson mean is 1, so overflow is rare;
        // at 50% it degrades gracefully (a few percent), which is why
        // real deployments keep exact-match tables under-filled.
        let mut t: HashTable<u32, u32> = HashTable::with_capacity(32_768);
        assert_eq!(t.capacity(), 32_768);
        let mut failures_at_quarter = 0;
        let mut failures_at_half = 0;
        for i in 0..16_384u32 {
            // Realistic subscriber addresses: 10.0.0.0/10 spread.
            let ip = 0x0a000000 | (i.wrapping_mul(7919));
            if t.insert(ip, i).is_err() {
                failures_at_half += 1;
                if i < 8_192 {
                    failures_at_quarter += 1;
                }
            }
        }
        assert!(
            failures_at_quarter < 100,
            "excessive overflow at 25% load: {failures_at_quarter}"
        );
        assert!(
            failures_at_half < 16_384 / 20,
            "worse than 5% overflow at 50% load: {failures_at_half}"
        );
        assert!(t.len() > 15_000);
    }

    #[test]
    fn five_tuple_keys() {
        let mut t: HashTable<FiveTuple, u8> = HashTable::with_capacity(64);
        let k1 = (1u32, 2u32, 6u8, 80u16, 443u16);
        let k2 = (1u32, 2u32, 6u8, 80u16, 444u16);
        t.insert(k1, 1).unwrap();
        assert_eq!(t.lookup(&k1), Some(1));
        assert_eq!(t.lookup(&k2), None);
    }

    #[test]
    fn iter_dumps_all_entries() {
        let mut t: HashTable<u32, u32> = HashTable::with_capacity(64);
        for k in 0..10u32 {
            t.insert(k, k * 2).unwrap();
        }
        let mut pairs: Vec<_> = t.iter().collect();
        pairs.sort();
        assert_eq!(pairs.len(), 10);
        assert_eq!(pairs[3], (3, 6));
    }

    #[test]
    fn clear_resets() {
        let mut t: HashTable<u32, u32> = HashTable::with_capacity(64);
        t.insert(1, 1).unwrap();
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.lookup(&1), None);
    }

    #[test]
    fn lookup_counts_through_shared_reference() {
        let mut t: HashTable<u32, u32> = HashTable::with_capacity(16);
        t.insert(1, 10).unwrap();
        let shared: &HashTable<u32, u32> = &t;
        assert_eq!(shared.lookup(&1), Some(10));
        assert_eq!(shared.lookup(&2), None);
        assert_eq!(shared.stats().hits, 1);
        assert_eq!(shared.stats().misses, 1);
        // peek still bypasses the counters.
        assert_eq!(shared.peek(&1), Some(10));
        assert_eq!(shared.stats().hits, 1);
    }

    #[test]
    fn capacity_rounds_to_power_of_two_buckets() {
        let t: HashTable<u32, u32> = HashTable::new(10, 4);
        assert_eq!(t.capacity(), 16 * 4);
    }

    #[test]
    fn slots_for_is_the_capacity_with_capacity_builds() {
        for capacity in (1..=300).chain([4_095, 4_096, 4_097, 32_768, 100_000]) {
            let t: HashTable<u32, u32> = HashTable::with_capacity(capacity);
            assert_eq!(slots_for(capacity), t.capacity(), "{capacity}");
        }
        assert_eq!(slots_for(usize::MAX), usize::MAX);
        assert_eq!(slots_for((1 << 63) + 1), usize::MAX);
        assert_eq!(slots_for(1 << 63), 1 << 63);
    }

    /// Pinned CRC-32 bucket indices at the NAT's production geometry
    /// (32 768 entries, 4-way ⇒ 8 192 buckets). These literals were
    /// computed against the chained layout before the flat rework; if
    /// any of them moves, NAT table layouts — and therefore which
    /// inserts overflow — would silently change.
    #[test]
    fn bucket_index_golden_is_pinned() {
        let t: HashTable<u32, u32> = HashTable::with_capacity(32_768);
        for (key, bucket) in [
            (0xc0a8_0001u32, 7142usize),
            (0xc0a8_0002, 229),
            (0x0a00_0000, 164),
            (0x0a3f_ffff, 3439),
            (0x650a_0001, 3216),
            (0xdead_beef, 3803),
            (0x0000_0000, 1666),
            (0x7f00_0001, 1037),
        ] {
            assert_eq!(t.bucket_of(&key), bucket, "bucket moved for {key:#010x}");
        }
    }

    /// Model check against a BTreeMap: a seeded random stream of
    /// insert/update/remove/lookup operations must agree with the
    /// reference map on every observable, with BucketFull rejections
    /// exactly when the model already holds `ways` keys of the same
    /// bucket. (`tests/prop.rs` runs 256 shorter schedules over a
    /// smaller table, with `clear` and a full iteration.)
    #[test]
    fn flat_table_matches_btreemap_model() {
        use std::collections::BTreeMap;
        // SplitMix64: tiny, seedable, no dependency.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut t: HashTable<u64, u64> = HashTable::new(64, 4);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let (mut expect_hits, mut expect_misses, mut expect_failures) = (0u64, 0u64, 0u64);
        for _ in 0..20_000 {
            let r = next();
            let key = next() % 512; // dense keyspace: collisions guaranteed
            match r % 4 {
                0 | 1 => {
                    let value = next();
                    match t.insert(key, value) {
                        Ok(()) => {
                            model.insert(key, value);
                        }
                        Err(TableError::BucketFull) => {
                            expect_failures += 1;
                            assert!(!model.contains_key(&key), "rejected a resident key");
                            let bucket = t.bucket_of(&key);
                            let same_bucket =
                                model.keys().filter(|k| t.bucket_of(k) == bucket).count();
                            assert_eq!(same_bucket, 4, "BucketFull with a free way");
                        }
                    }
                }
                2 => {
                    let got = t.lookup(&key);
                    assert_eq!(got, model.get(&key).copied());
                    if got.is_some() {
                        expect_hits += 1;
                    } else {
                        expect_misses += 1;
                    }
                }
                _ => {
                    assert_eq!(t.remove(&key), model.remove(&key));
                }
            }
            assert_eq!(t.len(), model.len());
        }
        let s = t.stats();
        assert_eq!(s.hits, expect_hits);
        assert_eq!(s.misses, expect_misses);
        assert_eq!(s.insert_failures, expect_failures);
        // The full dump agrees with the model too.
        let mut pairs: Vec<_> = t.iter().collect();
        pairs.sort();
        let reference: Vec<_> = model.into_iter().collect();
        assert_eq!(pairs, reference);
    }
}
