//! The addressable min-heap every replacement policy ranks its entries in.
//!
//! The heap holds exactly one node per tracked key. `index` maps a key to
//! its slot number and policy-specific metadata; `pos` maps a slot to the
//! position of its node in `heap`, and each node holds its rank inline with
//! its slot number. A sift therefore compares contiguous nodes and rewrites
//! entries of the compact `pos` array without hashing. Re-ranking a tracked
//! key sifts its node in place; removing one moves the last node into the
//! hole and frees the slot for the next insert, so memory follows the
//! number of tracked keys rather than the number of calls. Every operation
//! is `O(log n)`; the heap is 4-ary, which halves the depth a re-ranked
//! node sinks through.

use super::EntryKey;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

const ARITY: usize = 4;

#[derive(Clone, Copy)]
struct Node<R> {
    rank: R,
    slot: u32,
}

struct Tracked<M> {
    slot: u32,
    meta: M,
}

/// A min-heap of tracked keys ordered by rank `R`, each carrying metadata
/// `M` that takes no part in the order.
pub(crate) struct RankHeap<R, M = ()> {
    index: HashMap<EntryKey, Tracked<M>>,
    /// The key in each slot, for [`RankHeap::pop`].
    keys: Vec<EntryKey>,
    /// The heap position of each slot's node.
    pos: Vec<u32>,
    /// Slots whose key is no longer tracked, reused by later inserts.
    free: Vec<u32>,
    heap: Vec<Node<R>>,
}

impl<R, M> Default for RankHeap<R, M> {
    fn default() -> Self {
        Self {
            index: HashMap::new(),
            keys: Vec::new(),
            pos: Vec::new(),
            free: Vec::new(),
            heap: Vec::new(),
        }
    }
}

impl<R: Ord + Copy, M> RankHeap<R, M> {
    /// Returns the number of tracked keys.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns the number of heap nodes, which equals [`RankHeap::len`]
    /// unless the heap is corrupt.
    pub(crate) fn nodes(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if `key` is tracked.
    pub(crate) fn contains(&self, key: &EntryKey) -> bool {
        self.index.contains_key(key)
    }

    /// Returns the metadata of a tracked key.
    pub(crate) fn meta(&self, key: &EntryKey) -> Option<&M> {
        self.index.get(key).map(|tracked| &tracked.meta)
    }

    /// Tracks `key` at `rank`, replacing its rank and metadata if it is
    /// already tracked.
    pub(crate) fn insert(&mut self, key: EntryKey, rank: R, meta: M) {
        match self.index.entry(key) {
            Entry::Occupied(mut tracked) => {
                let tracked = tracked.get_mut();
                tracked.meta = meta;
                let pos = self.pos[tracked.slot as usize] as usize;
                let old = std::mem::replace(&mut self.heap[pos].rank, rank);
                self.reposition(pos, old);
            }
            Entry::Vacant(vacant) => {
                let pos = self.heap.len();
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.keys[slot as usize] = key;
                        slot
                    }
                    None => {
                        self.keys.push(key);
                        self.pos.push(0);
                        to_u32(self.keys.len() - 1)
                    }
                };
                vacant.insert(Tracked { slot, meta });
                self.heap.push(Node { rank, slot });
                self.sift_up(pos);
            }
        }
    }

    /// Re-ranks a tracked key in place; returns `false` if it is untracked.
    pub(crate) fn update(&mut self, key: &EntryKey, f: impl FnOnce(&mut R, &mut M)) -> bool {
        let Some(tracked) = self.index.get_mut(key) else {
            return false;
        };
        let pos = self.pos[tracked.slot as usize] as usize;
        let old = self.heap[pos].rank;
        f(&mut self.heap[pos].rank, &mut tracked.meta);
        self.reposition(pos, old);
        true
    }

    /// Stops tracking `key`.
    pub(crate) fn remove(&mut self, key: &EntryKey) {
        if let Some(tracked) = self.index.remove(key) {
            self.take(tracked.slot);
        }
    }

    /// Removes and returns the lowest-ranked key with its rank.
    pub(crate) fn pop(&mut self) -> Option<(EntryKey, R)> {
        let slot = self.heap.first()?.slot;
        let key = self.keys[slot as usize];
        self.index.remove(&key);
        Some((key, self.take(slot)))
    }

    /// Unlinks a slot already dropped from `index`: the last node takes
    /// its node's heap position and the slot joins the free list.
    fn take(&mut self, slot: u32) -> R {
        let pos = self.pos[slot as usize] as usize;
        let taken = self.heap.swap_remove(pos);
        if pos < self.heap.len() {
            self.place(pos, self.heap[pos]);
            self.reposition(pos, taken.rank);
        }
        self.free.push(slot);
        taken.rank
    }

    fn place(&mut self, pos: usize, node: Node<R>) {
        self.heap[pos] = node;
        self.pos[node.slot as usize] = to_u32(pos);
    }

    /// Restores the heap order after the node at `pos` replaced one ranked
    /// `old`. Its parent ranks at most `old` and its children at least
    /// `old`, so it can only move away from `old`: up if it ranks lower,
    /// else down. Only one side is read.
    fn reposition(&mut self, pos: usize, old: R) {
        if self.heap[pos].rank < old {
            self.sift_up(pos);
        } else {
            self.sift_down(pos);
        }
    }

    /// Moves the node at `pos` towards the root.
    fn sift_up(&mut self, mut pos: usize) {
        let node = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if node.rank >= self.heap[parent].rank {
                break;
            }
            self.place(pos, self.heap[parent]);
            pos = parent;
        }
        self.place(pos, node);
    }

    fn sift_down(&mut self, mut pos: usize) {
        let node = self.heap[pos];
        loop {
            let first = pos * ARITY + 1;
            let Some(children) = self.heap.get(first..(first + ARITY).min(self.heap.len())) else {
                break;
            };
            let Some((offset, least)) = children.iter().enumerate().min_by_key(|(_, c)| c.rank)
            else {
                break;
            };
            if least.rank >= node.rank {
                break;
            }
            self.place(pos, *least);
            pos = first + offset;
        }
        self.place(pos, node);
    }
}

fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("a policy tracks fewer than 2^32 entries")
}

#[cfg(test)]
mod tests {
    use super::*;
    use placeless_core::id::{DocumentId, UserId};

    fn key(i: u64) -> EntryKey {
        EntryKey::Version(DocumentId(i), UserId(1))
    }

    /// Every node's position agrees with its slot and the heap order holds.
    fn assert_consistent(heap: &RankHeap<u64>) {
        assert_eq!(heap.len(), heap.nodes());
        assert_eq!(heap.keys.len() - heap.free.len(), heap.nodes());
        for (pos, node) in heap.heap.iter().enumerate() {
            assert_eq!(heap.pos[node.slot as usize] as usize, pos);
            let key = heap.keys[node.slot as usize];
            assert_eq!(heap.index[&key].slot, node.slot);
            if pos > 0 {
                assert!(heap.heap[(pos - 1) / ARITY].rank <= node.rank);
            }
        }
    }

    #[test]
    fn pops_in_rank_order_through_updates_and_removals() {
        let mut heap = RankHeap::<u64>::default();
        for i in 0..40 {
            heap.insert(key(i), (i * 7) % 40, ());
            assert_consistent(&heap);
        }
        heap.remove(&key(3));
        heap.remove(&key(39));
        assert!(heap.update(&key(5), |rank, _| *rank = 100));
        assert!(!heap.update(&key(3), |rank, _| *rank = 0));
        heap.insert(key(6), 1_000, ());
        heap.insert(key(3), 2, ()); // reuses a freed slot
        assert_consistent(&heap);
        let mut last = 0;
        let mut popped = 0;
        while let Some((_, rank)) = heap.pop() {
            assert!(rank >= last);
            last = rank;
            popped += 1;
            assert_consistent(&heap);
        }
        assert_eq!(popped, 39);
    }
}
