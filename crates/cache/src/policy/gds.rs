//! Greedy-Dual-Size [Cao & Irani 1997] and its frequency form, GDSF — the
//! prototype's actual policy.
//!
//! Every resident entry carries a credit `H = L + cost / size`, where `L` is
//! the policy's inflation value. Eviction removes the entry with the lowest
//! `H` and raises `L` to that value, so recently accessed and
//! expensive-to-reproduce documents survive. With `cost ≡ 1` this degrades
//! to GD(1), the cost-blind variant used as an ablation baseline.
//!
//! §4: "The replacement policy used in the implementation is a version of
//! the Greedy-Dual-Size algorithm \[Cao & Irani 1997\], based on the
//! replacement cost supplied by the properties and bit-provider, as well as
//! on the size of the document **and the access frequency of the document
//! at that cache**." Plain GDS ignores frequency; the "version" described
//! is GDS-Frequency: `H = L + frequency · cost / size`, so repeatedly
//! accessed documents accumulate credit beyond what one touch grants.
//!
//! All three rank an entry by `(H, generation)`, where the generation
//! stamps the entry's last insert or hit, so equal credits evict the
//! least recently touched entry first. A hit re-ranks the entry's one heap
//! node in place.

use super::heap::RankHeap;
use super::{EntryAttrs, EntryKey, ReplacementPolicy, STAGE_COST_DISCOUNT, STAGE_PIN_LEVEL};

/// An `f64` with total ordering for use in the heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// What an entry's credit is computed from.
struct Basis {
    size: u64,
    cost: f64,
    frequency: u64,
}

/// The Greedy-Dual family; `FREQUENCY` selects GDSF.
#[derive(Default)]
pub struct GreedyDual<const FREQUENCY: bool> {
    heap: RankHeap<(OrdF64, u64), Basis>,
    inflation: f64,
    next_generation: u64,
    cost_blind: bool,
}

/// Greedy-Dual-Size: credit from cost and size only.
pub type GreedyDualSize = GreedyDual<false>;

/// Greedy-Dual-Size-Frequency: credit grows with every hit.
pub type GdsFrequency = GreedyDual<true>;

impl GreedyDualSize {
    /// Creates a cost-aware GDS policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates GD(1): every entry costs 1, isolating the size/recency terms.
    pub fn cost_blind() -> Self {
        Self {
            cost_blind: true,
            ..Self::new()
        }
    }
}

impl GdsFrequency {
    /// Creates an empty GDSF policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<const FREQUENCY: bool> GreedyDual<FREQUENCY> {
    /// Returns the current inflation value `L`.
    pub fn inflation(&self) -> f64 {
        self.inflation
    }

    /// Returns the number of heap nodes; always [`ReplacementPolicy::len`].
    #[doc(hidden)]
    pub fn heap_nodes(&self) -> usize {
        self.heap.nodes()
    }
}

/// The credit `H = L + frequency · cost / size` of an entry.
fn credit(inflation: f64, basis: &Basis) -> OrdF64 {
    OrdF64(inflation + basis.frequency as f64 * basis.cost / basis.size.max(1) as f64)
}

impl<const FREQUENCY: bool> ReplacementPolicy for GreedyDual<FREQUENCY> {
    fn name(&self) -> &'static str {
        match (FREQUENCY, self.cost_blind) {
            (true, _) => "gdsf",
            (false, true) => "gd1",
            (false, false) => "gds",
        }
    }

    fn on_insert(&mut self, key: EntryKey, attrs: &EntryAttrs) {
        // Intermediate stage entries are rebuildable from any final read:
        // discount their cost so they lose ties against final versions.
        let cost = if self.cost_blind {
            1.0
        } else if attrs.pin_level == STAGE_PIN_LEVEL {
            attrs.cost * STAGE_COST_DISCOUNT
        } else {
            attrs.cost
        };
        // A re-insert of a resident key keeps its earned frequency.
        let frequency = if FREQUENCY {
            self.heap.meta(&key).map_or(1, |basis| basis.frequency)
        } else {
            1
        };
        let basis = Basis {
            size: attrs.size,
            cost,
            frequency,
        };
        let rank = (credit(self.inflation, &basis), self.next_generation);
        self.next_generation += 1;
        self.heap.insert(key, rank, basis);
    }

    fn on_hit(&mut self, key: EntryKey) {
        // Restore the entry's credit to its full L + cost/size (GDSF: times
        // its raised frequency).
        let (inflation, generation) = (self.inflation, self.next_generation);
        self.next_generation += 1;
        self.heap.update(&key, |rank, basis| {
            if FREQUENCY {
                basis.frequency += 1;
            }
            *rank = (credit(inflation, basis), generation);
        });
    }

    fn on_remove(&mut self, key: EntryKey) {
        self.heap.remove(&key);
    }

    fn evict(&mut self) -> Option<EntryKey> {
        let (key, (OrdF64(h), _)) = self.heap.pop()?;
        // Inflate L to the evicted credit; future entries start from here,
        // which is what ages out stale residents.
        self.inflation = self.inflation.max(h);
        Some(key)
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
    fn evicts_lowest_credit_first() {
        let mut gds = GreedyDualSize::new();
        gds.on_insert(key(1), &EntryAttrs::new(100, 1_000.0)); // H = 10
        gds.on_insert(key(2), &EntryAttrs::new(100, 100.0)); // H = 1
        gds.on_insert(key(3), &EntryAttrs::new(100, 500.0)); // H = 5
        assert_eq!(gds.evict(), Some(key(2)));
        assert_eq!(gds.evict(), Some(key(3)));
        assert_eq!(gds.evict(), Some(key(1)));
        assert_eq!(gds.evict(), None);
    }

    #[test]
    fn size_divides_cost() {
        let mut gds = GreedyDualSize::new();
        gds.on_insert(key(1), &EntryAttrs::new(10, 100.0)); // H = 10: small and pricey
        gds.on_insert(key(2), &EntryAttrs::new(1_000, 100.0)); // H = 0.1: big
        assert_eq!(gds.evict(), Some(key(2)), "big documents go first");
    }

    #[test]
    fn hit_refreshes_credit() {
        let mut gds = GreedyDualSize::new();
        gds.on_insert(key(1), &EntryAttrs::new(100, 100.0));
        gds.on_insert(key(2), &EntryAttrs::new(100, 100.0));
        // Evicting key(1) raises L to 1.0.
        assert_eq!(gds.evict(), Some(key(1)));
        assert_eq!(gds.inflation(), 1.0);
        // Insert a new entry; its credit is L + 1 = 2.
        gds.on_insert(key(3), &EntryAttrs::new(100, 100.0));
        // key(2) still has its old credit 1.0 and goes first...
        // unless it is hit, which refreshes it to L + 1 = 2.
        gds.on_hit(key(2));
        gds.on_insert(key(4), &EntryAttrs::new(1_000_000, 1.0)); // essentially L
        assert_eq!(gds.evict(), Some(key(4)));
    }

    #[test]
    fn inflation_is_monotone() {
        let mut gds = GreedyDualSize::new();
        for i in 0..10 {
            gds.on_insert(key(i), &EntryAttrs::new(10, (i * 100) as f64 + 10.0));
        }
        let mut last = 0.0;
        while gds.evict().is_some() {
            assert!(gds.inflation() >= last);
            last = gds.inflation();
        }
    }

    #[test]
    fn cost_blind_ignores_cost() {
        let mut gd1 = GreedyDualSize::cost_blind();
        gd1.on_insert(key(1), &EntryAttrs::new(100, 1_000_000.0));
        gd1.on_insert(key(2), &EntryAttrs::new(10, 1.0));
        // Cost is ignored; only size matters: 1/100 < 1/10.
        assert_eq!(gd1.evict(), Some(key(1)));
        assert_eq!(gd1.name(), "gd1");
    }

    #[test]
    fn remove_then_evict_skips_removed_entries() {
        let mut gds = GreedyDualSize::new();
        gds.on_insert(key(1), &EntryAttrs::new(100, 1.0));
        gds.on_insert(key(2), &EntryAttrs::new(100, 2.0));
        gds.on_remove(key(1));
        assert_eq!(gds.evict(), Some(key(2)));
        assert_eq!(gds.evict(), None);
        assert!(gds.is_empty());
    }

    #[test]
    fn reinsert_updates_metadata() {
        let mut gds = GreedyDualSize::new();
        gds.on_insert(key(1), &EntryAttrs::new(100, 1.0));
        gds.on_insert(key(2), &EntryAttrs::new(100, 50.0));
        // Re-insert key(1) with a much higher cost.
        gds.on_insert(key(1), &EntryAttrs::new(100, 10_000.0));
        assert_eq!(gds.len(), 2);
        assert_eq!(gds.evict(), Some(key(2)), "refreshed entry survives");
    }

    #[test]
    fn stage_entries_lose_ties_against_final_versions() {
        let mut gds = GreedyDualSize::new();
        let stage = EntryKey::Stage(placeless_core::digest::md5(b"stage"));
        gds.on_insert(key(1), &EntryAttrs::new(100, 1_000.0));
        gds.on_insert(
            stage,
            &EntryAttrs::new(100, 1_000.0).with_pin_level(STAGE_PIN_LEVEL),
        );
        assert_eq!(
            gds.evict(),
            Some(stage),
            "equal cost/size: stage goes first"
        );
        assert_eq!(gds.evict(), Some(key(1)));
    }

    #[test]
    fn zero_size_does_not_divide_by_zero() {
        let mut gds = GreedyDualSize::new();
        gds.on_insert(key(1), &EntryAttrs::new(0, 100.0));
        assert_eq!(gds.evict(), Some(key(1)));
    }

    #[test]
    fn frequency_raises_credit() {
        let mut gdsf = GdsFrequency::new();
        gdsf.on_insert(key(1), &EntryAttrs::new(100, 100.0));
        gdsf.on_insert(key(2), &EntryAttrs::new(100, 100.0));
        // Hit key(1) three times: its credit triples.
        gdsf.on_hit(key(1));
        gdsf.on_hit(key(1));
        gdsf.on_hit(key(1));
        assert_eq!(gdsf.evict(), Some(key(2)), "unfrequented entry goes first");
        assert_eq!(gdsf.evict(), Some(key(1)));
    }

    #[test]
    fn frequency_can_outweigh_cost() {
        let mut gdsf = GdsFrequency::new();
        gdsf.on_insert(key(1), &EntryAttrs::new(100, 300.0)); // pricey, touched once: H = 3
        gdsf.on_insert(key(2), &EntryAttrs::new(100, 100.0)); // cheap, hot
        for _ in 0..4 {
            gdsf.on_hit(key(2)); // frequency 5: H = 5
        }
        assert_eq!(gdsf.evict(), Some(key(1)));
    }

    #[test]
    fn cost_still_matters_at_equal_frequency() {
        let mut gdsf = GdsFrequency::new();
        gdsf.on_insert(key(1), &EntryAttrs::new(100, 500.0));
        gdsf.on_insert(key(2), &EntryAttrs::new(100, 50.0));
        assert_eq!(gdsf.evict(), Some(key(2)));
    }

    #[test]
    fn gdsf_inflation_is_monotone() {
        let mut gdsf = GdsFrequency::new();
        for i in 0..12 {
            gdsf.on_insert(key(i), &EntryAttrs::new(10, (i + 1) as f64 * 10.0));
            if i % 3 == 0 {
                gdsf.on_hit(key(i));
            }
        }
        let mut last = 0.0;
        while gdsf.evict().is_some() {
            assert!(gdsf.inflation() >= last);
            last = gdsf.inflation();
        }
        assert!(gdsf.is_empty());
    }

    #[test]
    fn reinsert_preserves_earned_frequency() {
        let mut gdsf = GdsFrequency::new();
        gdsf.on_insert(key(1), &EntryAttrs::new(100, 100.0));
        gdsf.on_hit(key(1));
        gdsf.on_hit(key(1)); // frequency 3
                             // Re-insert (e.g. verifier replaced the content): frequency kept.
        gdsf.on_insert(key(1), &EntryAttrs::new(100, 100.0));
        gdsf.on_insert(key(2), &EntryAttrs::new(100, 250.0)); // frequency 1, H = 2.5 < 3
        assert_eq!(gdsf.evict(), Some(key(2)));
    }
}
