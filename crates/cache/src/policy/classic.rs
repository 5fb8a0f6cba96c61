//! The classic baselines: LRU, LFU, SIZE and FIFO.
//!
//! Each ranks an entry by a pair whose second half is a tick, so every
//! rank is unique:
//!
//! | policy | rank | hits |
//! |---|---|---|
//! | LRU | `(0, tick)` of the last insert or hit | re-rank |
//! | LFU | `(count, tick)`: accesses since the last insert, and the last one's tick | re-rank |
//! | SIZE | `(Reverse(size), tick)` of the last insert, as `u64::MAX - size` | ignored |
//! | FIFO | `(0, tick)` of the first insert since the key entered | ignored |

use super::heap::RankHeap;
use super::{EntryAttrs, EntryKey, ReplacementPolicy};

const LRU: u8 = 0;
const LFU: u8 = 1;
const SIZE: u8 = 2;
const FIFO: u8 = 3;

/// A classic baseline; `RULE` selects which one.
#[derive(Default)]
pub struct Classic<const RULE: u8> {
    heap: RankHeap<(u64, u64)>,
    tick: u64,
}

/// Classic LRU, tracked with a logical access clock.
pub type Lru = Classic<LRU>;

/// LFU with an LRU tiebreak among equal frequencies.
pub type Lfu = Classic<LFU>;

/// Evicts the largest resident entry, the classic proxy-cache heuristic
/// that maximizes object hit rate by keeping many small documents; equal
/// sizes evict the oldest insert first.
pub type SizePolicy = Classic<SIZE>;

/// FIFO: evicts in insertion order, ignoring hits entirely.
pub type Fifo = Classic<FIFO>;

impl<const RULE: u8> Classic<RULE> {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the number of heap nodes; always [`ReplacementPolicy::len`].
    #[doc(hidden)]
    pub fn heap_nodes(&self) -> usize {
        self.heap.nodes()
    }
}

impl<const RULE: u8> ReplacementPolicy for Classic<RULE> {
    fn name(&self) -> &'static str {
        match RULE {
            LRU => "lru",
            LFU => "lfu",
            SIZE => "size",
            _ => "fifo",
        }
    }

    fn on_insert(&mut self, key: EntryKey, attrs: &EntryAttrs) {
        // A FIFO re-insert of a resident key keeps its queue position.
        if RULE == FIFO && self.heap.contains(&key) {
            return;
        }
        self.tick += 1;
        let class = match RULE {
            LFU => 1,
            SIZE => u64::MAX - attrs.size,
            _ => 0,
        };
        self.heap.insert(key, (class, self.tick), ());
    }

    fn on_hit(&mut self, key: EntryKey) {
        // SIZE and FIFO ignore hits. Hits on untracked keys are ignored
        // too; only inserts admit keys.
        if RULE == SIZE || RULE == FIFO {
            return;
        }
        self.tick += 1;
        let (tick, counted) = (self.tick, u64::from(RULE == LFU));
        self.heap.update(&key, |(count, stamp), _| {
            *count += counted;
            *stamp = tick;
        });
    }

    fn on_remove(&mut self, key: EntryKey) {
        self.heap.remove(&key);
    }

    fn evict(&mut self) -> Option<EntryKey> {
        self.heap.pop().map(|(key, ..)| key)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use placeless_core::id::{DocumentId, UserId};

    fn key(i: u64) -> EntryKey {
        EntryKey::Version(DocumentId(i), UserId(1))
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = Lru::new();
        lru.on_insert(key(1), &EntryAttrs::new(1, 1.0));
        lru.on_insert(key(2), &EntryAttrs::new(1, 1.0));
        lru.on_insert(key(3), &EntryAttrs::new(1, 1.0));
        lru.on_hit(key(1));
        assert_eq!(lru.evict(), Some(key(2)));
        assert_eq!(lru.evict(), Some(key(3)));
        assert_eq!(lru.evict(), Some(key(1)));
    }

    #[test]
    fn hit_order_matters_not_insert_order() {
        let mut lru = Lru::new();
        lru.on_insert(key(1), &EntryAttrs::new(1, 1.0));
        lru.on_insert(key(2), &EntryAttrs::new(1, 1.0));
        lru.on_hit(key(1));
        lru.on_hit(key(2));
        lru.on_hit(key(1));
        assert_eq!(lru.evict(), Some(key(2)));
    }

    #[test]
    fn evicts_least_frequent() {
        let mut lfu = Lfu::new();
        lfu.on_insert(key(1), &EntryAttrs::new(1, 1.0));
        lfu.on_insert(key(2), &EntryAttrs::new(1, 1.0));
        lfu.on_hit(key(1));
        lfu.on_hit(key(1));
        lfu.on_hit(key(2));
        assert_eq!(lfu.evict(), Some(key(2)));
        assert_eq!(lfu.evict(), Some(key(1)));
    }

    #[test]
    fn ties_break_by_recency() {
        let mut lfu = Lfu::new();
        lfu.on_insert(key(1), &EntryAttrs::new(1, 1.0));
        lfu.on_insert(key(2), &EntryAttrs::new(1, 1.0));
        lfu.on_hit(key(1));
        lfu.on_hit(key(2)); // both at count 2; key(1) older
        assert_eq!(lfu.evict(), Some(key(1)));
    }

    #[test]
    fn evicts_largest_first() {
        let mut policy = SizePolicy::new();
        policy.on_insert(key(1), &EntryAttrs::new(10, 1.0));
        policy.on_insert(key(2), &EntryAttrs::new(1_000, 1.0));
        policy.on_insert(key(3), &EntryAttrs::new(100, 1.0));
        assert_eq!(policy.evict(), Some(key(2)));
        assert_eq!(policy.evict(), Some(key(3)));
        assert_eq!(policy.evict(), Some(key(1)));
    }

    #[test]
    fn equal_sizes_evict_oldest_first() {
        let mut policy = SizePolicy::new();
        policy.on_insert(key(1), &EntryAttrs::new(10, 1.0));
        policy.on_insert(key(2), &EntryAttrs::new(10, 1.0));
        assert_eq!(policy.evict(), Some(key(1)));
    }

    #[test]
    fn evicts_in_insertion_order() {
        let mut fifo = Fifo::new();
        fifo.on_insert(key(1), &EntryAttrs::new(1, 1.0));
        fifo.on_insert(key(2), &EntryAttrs::new(1, 1.0));
        fifo.on_hit(key(1)); // hits do not matter
        assert_eq!(fifo.evict(), Some(key(1)));
        assert_eq!(fifo.evict(), Some(key(2)));
        assert_eq!(fifo.evict(), None);
    }

    #[test]
    fn duplicate_insert_keeps_original_position() {
        let mut fifo = Fifo::new();
        fifo.on_insert(key(1), &EntryAttrs::new(1, 1.0));
        fifo.on_insert(key(2), &EntryAttrs::new(1, 1.0));
        fifo.on_insert(key(1), &EntryAttrs::new(1, 1.0));
        assert_eq!(fifo.evict(), Some(key(1)));
    }

    #[test]
    fn reinsert_after_remove_joins_the_back_of_the_queue() {
        let mut fifo = Fifo::new();
        fifo.on_insert(key(9), &EntryAttrs::new(1, 1.0));
        fifo.on_remove(key(9));
        fifo.on_insert(key(1), &EntryAttrs::new(1, 1.0));
        fifo.on_insert(key(2), &EntryAttrs::new(1, 1.0));
        fifo.on_insert(key(9), &EntryAttrs::new(1, 1.0));
        assert_eq!(fifo.evict(), Some(key(1)), "not at its removed position");
        assert_eq!(fifo.evict(), Some(key(2)));
        assert_eq!(fifo.evict(), Some(key(9)));
        assert_eq!((fifo.len(), fifo.heap_nodes()), (0, 0));
    }
}
