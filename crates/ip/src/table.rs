//! Longest-prefix-match routing tables.
//!
//! A gateway's routing table is the *only* state it holds — and that state
//! describes the topology, not any conversation. That is the fate-sharing
//! design: the table can be rebuilt from scratch after a crash (by the
//! routing protocol) without any end-to-end connection noticing more than
//! a pause. The table is generic over its next-hop type `M` so the same
//! structure backs static host routes and the distance-vector protocol's
//! metric-bearing entries.
//!
//! The table keeps one bucket per prefix length present, longest first.
//! A bucket holds its routes in insertion order plus a hash index keyed
//! by the masked network address, so exact-prefix access is one probe
//! and a longest-prefix match probes each present length once, whatever
//! the table size.
//!
//! Iteration order is part of the contract: longest prefix first, then
//! insertion order within a length. Replacing a prefix keeps its place;
//! a new (or removed and re-inserted) prefix goes to the end of its
//! length. RIP encodes advertisements in this order, so simulated bytes
//! depend on it.

use catenet_wire::{Ipv4Address, Ipv4Cidr};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hashing for keys that are already-masked `u32`
/// network addresses: no SipHash, no per-map random state.
#[derive(Debug, Default, Clone, Copy)]
struct NetHasher(u64);

impl Hasher for NetHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(byte)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = u64::from(n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // The high half of the product mixes every key bit; move it to
        // the low bits the map indexes with (masked keys end in zeros).
        self.0.rotate_left(32)
    }
}

type NetIndex = HashMap<u32, usize, BuildHasherDefault<NetHasher>>;

/// The routes of one prefix length.
#[derive(Debug, Clone)]
struct Bucket<M> {
    prefix_len: u8,
    mask: u32,
    /// Insertion order.
    entries: Vec<(Ipv4Cidr, M)>,
    /// Masked network address → position in `entries`.
    index: NetIndex,
}

impl<M> Bucket<M> {
    fn new(prefix_len: u8) -> Bucket<M> {
        Bucket {
            prefix_len,
            mask: u32::MAX
                .checked_shl(32 - u32::from(prefix_len))
                .unwrap_or(0),
            entries: Vec::new(),
            index: NetIndex::default(),
        }
    }

    fn find(&self, network: u32) -> Option<usize> {
        self.index.get(&network).copied()
    }

    fn reindex(&mut self) {
        self.index.clear();
        for (pos, (prefix, _)) in self.entries.iter().enumerate() {
            self.index.insert(prefix.address().to_u32(), pos);
        }
    }
}

/// A routing table mapping CIDR prefixes to values of type `M`.
#[derive(Debug, Clone)]
pub struct RoutingTable<M> {
    /// One non-empty bucket per prefix length present, longest first, so
    /// the first match in iteration order is the longest match.
    buckets: Vec<Bucket<M>>,
    len: usize,
}

impl<M> Default for RoutingTable<M> {
    fn default() -> Self {
        RoutingTable {
            buckets: Vec::new(),
            len: 0,
        }
    }
}

impl<M> RoutingTable<M> {
    /// An empty table.
    pub fn new() -> RoutingTable<M> {
        Self::default()
    }

    /// Number of routes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bucket(&self, prefix_len: u8) -> Option<&Bucket<M>> {
        self.buckets.iter().find(|b| b.prefix_len == prefix_len)
    }

    fn bucket_mut(&mut self, prefix_len: u8) -> Option<&mut Bucket<M>> {
        self.buckets.iter_mut().find(|b| b.prefix_len == prefix_len)
    }

    /// Insert or replace the route for exactly `prefix`.
    /// Returns the previous value if one was replaced.
    pub fn insert(&mut self, prefix: Ipv4Cidr, value: M) -> Option<M> {
        let prefix = prefix.network();
        let len = prefix.prefix_len();
        let at = self.buckets.partition_point(|b| b.prefix_len > len);
        if self.buckets.get(at).is_none_or(|b| b.prefix_len != len) {
            self.buckets.insert(at, Bucket::new(len));
        }
        let bucket = &mut self.buckets[at];
        let network = prefix.address().to_u32();
        if let Some(pos) = bucket.find(network) {
            return Some(core::mem::replace(&mut bucket.entries[pos].1, value));
        }
        bucket.index.insert(network, bucket.entries.len());
        bucket.entries.push((prefix, value));
        self.len += 1;
        None
    }

    /// Remove the route for exactly `prefix`, returning its value.
    pub fn remove(&mut self, prefix: &Ipv4Cidr) -> Option<M> {
        let prefix = prefix.network();
        let at = self
            .buckets
            .iter()
            .position(|b| b.prefix_len == prefix.prefix_len())?;
        let bucket = &mut self.buckets[at];
        let pos = bucket.index.remove(&prefix.address().to_u32())?;
        let (_, value) = bucket.entries.remove(pos);
        for later in bucket.index.values_mut().filter(|later| **later > pos) {
            *later -= 1;
        }
        if bucket.entries.is_empty() {
            self.buckets.remove(at);
        }
        self.len -= 1;
        Some(value)
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, addr: Ipv4Address) -> Option<&M> {
        self.lookup_entry(addr).map(|(_, value)| value)
    }

    /// Longest-prefix-match lookup returning the matched prefix too.
    pub fn lookup_entry(&self, addr: Ipv4Address) -> Option<(&Ipv4Cidr, &M)> {
        let addr = addr.to_u32();
        self.buckets.iter().find_map(|b| {
            let (prefix, value) = &b.entries[b.find(addr & b.mask)?];
            Some((prefix, value))
        })
    }

    /// The value stored for exactly `prefix`, if any.
    pub fn get(&self, prefix: &Ipv4Cidr) -> Option<&M> {
        let prefix = prefix.network();
        let bucket = self.bucket(prefix.prefix_len())?;
        let pos = bucket.find(prefix.address().to_u32())?;
        Some(&bucket.entries[pos].1)
    }

    /// Mutable access to the value stored for exactly `prefix`.
    pub fn get_mut(&mut self, prefix: &Ipv4Cidr) -> Option<&mut M> {
        let prefix = prefix.network();
        let bucket = self.bucket_mut(prefix.prefix_len())?;
        let pos = bucket.find(prefix.address().to_u32())?;
        Some(&mut bucket.entries[pos].1)
    }

    /// Where exactly `prefix` sits in [`iter`](Self::iter) order, if
    /// present. Positions shift when routes are removed, so compare
    /// them only within one unmodified state of the table.
    pub fn position(&self, prefix: &Ipv4Cidr) -> Option<usize> {
        let prefix = prefix.network();
        let network = prefix.address().to_u32();
        let mut before = 0;
        for bucket in &self.buckets {
            if bucket.prefix_len == prefix.prefix_len() {
                return bucket.find(network).map(|pos| before + pos);
            }
            before += bucket.entries.len();
        }
        None
    }

    /// Iterate over `(prefix, value)` pairs, longest prefixes first.
    pub fn iter(&self) -> impl Iterator<Item = (&Ipv4Cidr, &M)> {
        self.buckets
            .iter()
            .flat_map(|b| b.entries.iter().map(|(prefix, value)| (prefix, value)))
    }

    /// Iterate mutably over `(prefix, value)` pairs, in `iter` order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&Ipv4Cidr, &mut M)> {
        self.buckets.iter_mut().flat_map(|b| {
            b.entries
                .iter_mut()
                .map(|(prefix, value)| (&*prefix, value))
        })
    }

    /// Remove every entry for which `keep` returns false, visiting in
    /// `iter` order.
    pub fn retain(&mut self, mut keep: impl FnMut(&Ipv4Cidr, &mut M) -> bool) {
        for bucket in &mut self.buckets {
            let before = bucket.entries.len();
            bucket
                .entries
                .retain_mut(|(prefix, value)| keep(prefix, value));
            if bucket.entries.len() != before {
                self.len -= before - bucket.entries.len();
                bucket.reindex();
            }
        }
        self.buckets.retain(|b| !b.entries.is_empty());
    }

    /// Remove all routes.
    pub fn clear(&mut self) {
        self.buckets.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cidr(s: &str) -> Ipv4Cidr {
        s.parse().unwrap()
    }

    fn addr(s: &str) -> Ipv4Address {
        s.parse().unwrap()
    }

    #[test]
    fn longest_prefix_wins() {
        let mut table = RoutingTable::new();
        table.insert(cidr("0.0.0.0/0"), "default");
        table.insert(cidr("10.0.0.0/8"), "ten");
        table.insert(cidr("10.1.0.0/16"), "ten-one");
        table.insert(cidr("10.1.2.0/24"), "ten-one-two");

        assert_eq!(table.lookup(addr("10.1.2.3")), Some(&"ten-one-two"));
        assert_eq!(table.lookup(addr("10.1.9.9")), Some(&"ten-one"));
        assert_eq!(table.lookup(addr("10.200.0.1")), Some(&"ten"));
        assert_eq!(table.lookup(addr("192.0.2.1")), Some(&"default"));
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let mut forward = RoutingTable::new();
        forward.insert(cidr("10.0.0.0/8"), 8);
        forward.insert(cidr("10.1.0.0/16"), 16);
        let mut reverse = RoutingTable::new();
        reverse.insert(cidr("10.1.0.0/16"), 16);
        reverse.insert(cidr("10.0.0.0/8"), 8);
        for table in [&forward, &reverse] {
            assert_eq!(table.lookup(addr("10.1.0.1")), Some(&16));
            assert_eq!(table.lookup(addr("10.2.0.1")), Some(&8));
        }
    }

    #[test]
    fn no_match_without_default() {
        let mut table = RoutingTable::new();
        table.insert(cidr("10.0.0.0/8"), ());
        assert_eq!(table.lookup(addr("192.0.2.1")), None);
    }

    #[test]
    fn insert_replaces_and_returns_old() {
        let mut table = RoutingTable::new();
        assert_eq!(table.insert(cidr("10.0.0.0/8"), 1), None);
        assert_eq!(table.insert(cidr("10.0.0.0/8"), 2), Some(1));
        assert_eq!(table.len(), 1);
        assert_eq!(table.lookup(addr("10.0.0.1")), Some(&2));
    }

    #[test]
    fn host_bits_normalized_on_insert() {
        let mut table = RoutingTable::new();
        table.insert(cidr("10.1.2.3/8"), "a");
        // Same network expressed differently replaces it.
        assert_eq!(table.insert(cidr("10.9.9.9/8"), "b"), Some("a"));
        assert_eq!(table.get(&cidr("10.0.0.0/8")), Some(&"b"));
    }

    #[test]
    fn remove_and_get() {
        let mut table = RoutingTable::new();
        table.insert(cidr("10.0.0.0/8"), 1);
        table.insert(cidr("172.16.0.0/12"), 2);
        assert_eq!(table.remove(&cidr("10.0.0.0/8")), Some(1));
        assert_eq!(table.remove(&cidr("10.0.0.0/8")), None);
        assert_eq!(table.lookup(addr("10.0.0.1")), None);
        assert_eq!(table.len(), 1);
        *table.get_mut(&cidr("172.16.0.0/12")).unwrap() = 9;
        assert_eq!(table.get(&cidr("172.16.0.0/12")), Some(&9));
    }

    #[test]
    fn lookup_entry_reports_prefix() {
        let mut table = RoutingTable::new();
        table.insert(cidr("10.1.0.0/16"), ());
        let (prefix, _) = table.lookup_entry(addr("10.1.5.5")).unwrap();
        assert_eq!(*prefix, cidr("10.1.0.0/16"));
    }

    #[test]
    fn retain_filters() {
        let mut table = RoutingTable::new();
        table.insert(cidr("10.0.0.0/8"), 1);
        table.insert(cidr("11.0.0.0/8"), 2);
        table.insert(cidr("12.0.0.0/8"), 3);
        table.retain(|_, metric| *metric % 2 == 1);
        assert_eq!(table.len(), 2);
        assert_eq!(table.lookup(addr("11.0.0.1")), None);
        assert_eq!(table.lookup(addr("12.0.0.1")), Some(&3));
    }

    #[test]
    fn iter_longest_first() {
        let mut table = RoutingTable::new();
        table.insert(cidr("0.0.0.0/0"), 0);
        table.insert(cidr("10.1.2.0/24"), 24);
        table.insert(cidr("10.0.0.0/8"), 8);
        let lens: Vec<u8> = table.iter().map(|(p, _)| p.prefix_len()).collect();
        assert_eq!(lens, vec![24, 8, 0]);
    }

    #[test]
    fn order_within_a_length_is_insertion_order() {
        let mut table = RoutingTable::new();
        for net in ["10.3.0.0/16", "10.1.0.0/16", "10.2.0.0/16"] {
            table.insert(cidr(net), ());
        }
        // Replacing keeps the place; removing and re-inserting moves
        // the prefix to the end of its length.
        table.insert(cidr("10.3.0.0/16"), ());
        table.remove(&cidr("10.1.0.0/16"));
        table.insert(cidr("10.1.0.0/16"), ());
        let order: Vec<String> = table.iter().map(|(p, _)| p.to_string()).collect();
        assert_eq!(order, ["10.3.0.0/16", "10.2.0.0/16", "10.1.0.0/16"]);
        assert_eq!(table.position(&cidr("10.2.0.0/16")), Some(1));
        assert_eq!(table.position(&cidr("10.9.0.0/16")), None);
    }

    #[test]
    fn host_route_matches_exactly() {
        let mut table = RoutingTable::new();
        table.insert(cidr("10.0.0.5/32"), "host");
        table.insert(cidr("10.0.0.0/24"), "net");
        assert_eq!(table.lookup(addr("10.0.0.5")), Some(&"host"));
        assert_eq!(table.lookup(addr("10.0.0.6")), Some(&"net"));
    }

    #[test]
    fn clear_empties() {
        let mut table = RoutingTable::new();
        table.insert(cidr("10.0.0.0/8"), ());
        table.clear();
        assert!(table.is_empty());
    }
}
