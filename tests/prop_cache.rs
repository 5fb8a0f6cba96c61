//! Property-based tests over the caching layer: the shared store against a
//! reference model, replacement-policy contracts under random operation
//! sequences, every policy's victim order against a naive model of its
//! rank, GDS invariants, the document index under eviction and
//! invalidation, and the simulation substrate.

use bytes::Bytes;
use placeless_cache::keys::SharedStore;
use placeless_cache::policy::{
    by_name, Classic, EntryAttrs, EntryKey, Fifo, GdsFrequency, GreedyDual, GreedyDualSize, Lfu,
    Lru, ReplacementPolicy, SizePolicy, ALL_POLICIES, STAGE_COST_DISCOUNT, STAGE_PIN_LEVEL,
};
use placeless_cache::{CacheConfig, DocumentCache, WriteMode};
use placeless_core::bitprovider::MemoryProvider;
use placeless_core::digest::md5;
use placeless_core::id::{DocumentId, UserId};
use placeless_core::notifier::Invalidation;
use placeless_core::space::{DocumentSpace, Scope};
use placeless_proplang::{ExtEnv, ScriptProperty};
use placeless_simenv::trace::{WorkloadBuilder, ZipfSampler};
use placeless_simenv::{SimRng, VirtualClock};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

fn key_strategy() -> impl Strategy<Value = EntryKey> {
    (0u64..12, 0u64..4).prop_map(|(d, u)| EntryKey::Version(DocumentId(d), UserId(u)))
}

/// Operations the store/policy models replay.
#[derive(Debug, Clone)]
enum Op {
    Insert(EntryKey, u8),
    Remove(EntryKey),
    Hit(EntryKey),
    Evict,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (key_strategy(), any::<u8>()).prop_map(|(k, v)| Op::Insert(k, v)),
        key_strategy().prop_map(Op::Remove),
        key_strategy().prop_map(Op::Hit),
        Just(Op::Evict),
    ]
}

proptest! {
    /// The shared store behaves like a plain `(key → bytes)` map for
    /// lookups, while storing each distinct value once.
    #[test]
    fn shared_store_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 0..200)) {
        let mut store = SharedStore::new();
        let mut model: HashMap<EntryKey, u8> = HashMap::new();
        for op in ops {
            match op {
                Op::Insert(key, v) => {
                    // Content derived from the value: equal values share.
                    store.insert(key, Bytes::from(vec![v; 16]));
                    model.insert(key, v);
                }
                Op::Remove(key) => {
                    let existed = store.remove(key);
                    prop_assert_eq!(existed, model.remove(&key).is_some());
                }
                _ => {}
            }
            // Lookups agree.
            for (&key, &v) in &model {
                prop_assert_eq!(store.get(key), Some(Bytes::from(vec![v; 16])));
            }
            prop_assert_eq!(store.key_count(), model.len());
            // Physical bytes: one copy per distinct value.
            let distinct: HashSet<u8> = model.values().copied().collect();
            prop_assert_eq!(store.distinct_contents(), distinct.len());
            prop_assert_eq!(store.physical_bytes(), distinct.len() as u64 * 16);
            prop_assert_eq!(store.logical_bytes(), model.len() as u64 * 16);
        }
    }

    /// Every policy maintains the contract: it tracks exactly the live
    /// keys, evicts only live keys, and empties exactly when drained.
    #[test]
    fn policy_contract_under_random_ops(
        name in proptest::sample::select(ALL_POLICIES.to_vec()),
        ops in proptest::collection::vec(op_strategy(), 0..200),
    ) {
        let mut policy = by_name(name).unwrap();
        let mut live: HashSet<EntryKey> = HashSet::new();
        for op in ops {
            match op {
                Op::Insert(key, v) => {
                    policy.on_insert(key, &EntryAttrs::new(1 + v as u64, v as f64 + 1.0));
                    live.insert(key);
                }
                Op::Remove(key) => {
                    policy.on_remove(key);
                    live.remove(&key);
                }
                Op::Hit(key) => {
                    // Hits on non-resident keys may occur in the manager
                    // only for resident ones; policies must tolerate both.
                    policy.on_hit(key);
                }
                Op::Evict => {
                    match policy.evict() {
                        Some(victim) => {
                            prop_assert!(live.remove(&victim), "{}: evicted dead key", name);
                        }
                        None => prop_assert!(live.is_empty(), "{}: refused with live keys", name),
                    }
                }
            }
            prop_assert_eq!(policy.len(), live.len(), "{}", name);
        }
        // Drain: every live key comes out exactly once.
        let mut drained = HashSet::new();
        while let Some(victim) = policy.evict() {
            prop_assert!(drained.insert(victim), "{}: duplicate eviction", name);
        }
        prop_assert_eq!(drained, live, "{}", name);
    }

    /// GDS inflation (`L`) never decreases, and eviction order respects
    /// credits for a pure-insert workload.
    #[test]
    fn gds_inflation_is_monotone(costs in proptest::collection::vec(1u64..10_000, 1..64)) {
        let mut gds = GreedyDualSize::new();
        for (i, &cost) in costs.iter().enumerate() {
            gds.on_insert(
                EntryKey::Version(DocumentId(i as u64), UserId(1)),
                &EntryAttrs::new(100, cost as f64),
            );
        }
        let mut last = gds.inflation();
        while gds.evict().is_some() {
            prop_assert!(gds.inflation() >= last);
            last = gds.inflation();
        }
    }

    /// For equal sizes and no hits, GDS evicts in ascending cost order.
    #[test]
    fn gds_pure_insert_evicts_cheapest_first(costs in proptest::collection::vec(1u64..1_000_000, 1..40)) {
        let mut gds = GreedyDualSize::new();
        for (i, &cost) in costs.iter().enumerate() {
            gds.on_insert(
                EntryKey::Version(DocumentId(i as u64), UserId(1)),
                &EntryAttrs::new(64, cost as f64),
            );
        }
        let mut evicted_costs = Vec::new();
        while let Some(victim) = gds.evict() {
            let EntryKey::Version(DocumentId(i), _) = victim else {
                panic!("only version keys were inserted");
            };
            evicted_costs.push(costs[i as usize]);
        }
        let mut sorted = evicted_costs.clone();
        sorted.sort_unstable();
        prop_assert_eq!(evicted_costs, sorted);
    }

    /// The virtual clock never goes backwards under arbitrary advances.
    #[test]
    fn clock_is_monotone(advances in proptest::collection::vec(0u64..1_000_000, 0..64)) {
        let clock = VirtualClock::new();
        let mut last = clock.now();
        for a in advances {
            if a % 2 == 0 {
                clock.advance(a);
            } else {
                clock.advance_to(placeless_simenv::Instant(a));
            }
            let now = clock.now();
            prop_assert!(now >= last);
            last = now;
        }
    }

    /// Zipf samples stay within the universe and the generator is
    /// deterministic per seed.
    #[test]
    fn zipf_within_bounds(n in 1usize..500, theta in 0.0f64..1.5, seed in any::<u64>()) {
        let zipf = ZipfSampler::new(n, theta);
        let mut a = SimRng::seeded(seed);
        let mut b = SimRng::seeded(seed);
        for _ in 0..64 {
            let x = zipf.sample(&mut a);
            prop_assert!(x < n);
            prop_assert_eq!(x, zipf.sample(&mut b));
        }
    }

    /// Workloads honor their parameters.
    #[test]
    fn workload_respects_parameters(
        seed in any::<u64>(),
        users in 1usize..8,
        docs in 1usize..64,
        events in 0usize..256,
    ) {
        let workload = WorkloadBuilder::new(seed)
            .users(users)
            .documents(docs)
            .events(events)
            .build();
        prop_assert_eq!(workload.len(), events);
        for e in &workload {
            prop_assert!(e.user < users);
            prop_assert!(e.doc < docs);
        }
    }

    /// `SimRng::next_range` is inclusive and in bounds.
    #[test]
    fn rng_range_inclusive(seed in any::<u64>(), lo in 0u64..1000, span in 0u64..1000) {
        let hi = lo + span;
        let mut rng = SimRng::seeded(seed);
        for _ in 0..32 {
            let v = rng.next_range(lo, hi);
            prop_assert!((lo..=hi).contains(&v));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every policy evicts exactly the victims a naive scan of its
    /// documented rank picks, under inserts and re-inserts of final and
    /// stage entries of mixed sizes and costs, hits on tracked and
    /// untracked keys, removals and evictions. After every step the policy
    /// holds exactly one heap node per tracked key.
    #[test]
    fn policies_evict_in_documented_rank_order(
        ops in proptest::collection::vec(oracle_op_strategy(), 0..300),
    ) {
        for name in ALL_POLICIES {
            let mut policy = probed(name);
            prop_assert_eq!(policy.name(), by_name(name).unwrap().name());
            let mut model = RankModel::new(name);
            for op in &ops {
                match *op {
                    OracleOp::Insert(key, attrs) => {
                        policy.on_insert(key, &attrs);
                        model.insert(key, &attrs);
                    }
                    OracleOp::Hit(key) => {
                        policy.on_hit(key);
                        model.hit(key);
                    }
                    OracleOp::Remove(key) => {
                        policy.on_remove(key);
                        model.tracked.remove(&key);
                    }
                    OracleOp::Evict => {
                        prop_assert_eq!(policy.evict(), model.evict(), "{} after {:?}", name, op);
                    }
                }
                prop_assert_eq!(policy.len(), model.tracked.len(), "{}", name);
                prop_assert_eq!(policy.heap_nodes(), policy.len(), "{} after {:?}", name, op);
            }
            loop {
                let victim = model.evict();
                prop_assert_eq!(policy.evict(), victim, "{}: drain", name);
                if victim.is_none() {
                    break;
                }
            }
            prop_assert_eq!(policy.heap_nodes(), 0, "{}", name);
        }
    }
}

/// Operations the order oracle replays against a policy and its model.
#[derive(Debug, Clone, Copy)]
enum OracleOp {
    Insert(EntryKey, EntryAttrs),
    Hit(EntryKey),
    Remove(EntryKey),
    Evict,
}

/// Final versions of eight documents for three users (24 keys) and four
/// stage outputs.
fn oracle_key_strategy() -> impl Strategy<Value = EntryKey> {
    (0u64..28).prop_map(|i| match i {
        0..=23 => EntryKey::Version(DocumentId(i / 3), UserId(i % 3)),
        _ => EntryKey::Stage(md5(&[i as u8])),
    })
}

/// Three inserts and three hits to each removal and two evictions. Sizes
/// and costs come from small sets, so credits and sizes tie often and the
/// tiebreaks are exercised; stage entries carry the stage pin level, as
/// the cache tags them.
fn oracle_op_strategy() -> impl Strategy<Value = OracleOp> {
    let size = prop_oneof![Just(0u64), Just(64), Just(128), 1u64..5_000];
    let cost = prop_oneof![Just(1.0), (1u32..8).prop_map(|c| f64::from(c) * 250.0)];
    (0u8..9, oracle_key_strategy(), size, cost).prop_map(|(pick, key, size, cost)| match pick {
        0..=2 => {
            let pin = if key.is_stage() { STAGE_PIN_LEVEL } else { 0 };
            OracleOp::Insert(key, EntryAttrs::new(size, cost).with_pin_level(pin))
        }
        3..=5 => OracleOp::Hit(key),
        6 => OracleOp::Remove(key),
        _ => OracleOp::Evict,
    })
}

/// A policy under the order oracle, with its heap node count.
trait Probed: ReplacementPolicy {
    fn heap_nodes(&self) -> usize;
}

impl<const FREQUENCY: bool> Probed for GreedyDual<FREQUENCY> {
    fn heap_nodes(&self) -> usize {
        GreedyDual::heap_nodes(self)
    }
}

impl<const RULE: u8> Probed for Classic<RULE> {
    fn heap_nodes(&self) -> usize {
        Classic::heap_nodes(self)
    }
}

/// Builds the named policy as [`by_name`] does, keeping its node count
/// readable.
fn probed(name: &str) -> Box<dyn Probed> {
    match name {
        "gds" => Box::new(GreedyDualSize::new()),
        "gd1" => Box::new(GreedyDualSize::cost_blind()),
        "gdsf" => Box::new(GdsFrequency::new()),
        "lru" => Box::new(Lru::new()),
        "lfu" => Box::new(Lfu::new()),
        "size" => Box::new(SizePolicy::new()),
        "fifo" => Box::new(Fifo::new()),
        other => panic!("{other}: give the order oracle a model of its rank"),
    }
}

/// What the naive model remembers of one tracked key. Ticks count every
/// insert and hit, tracked or not.
struct Tracked {
    /// Tick of the first insert since the key last entered.
    first: u64,
    /// Tick of the latest insert.
    inserted: u64,
    /// Tick of the latest insert or hit.
    touched: u64,
    /// Accesses since the latest insert.
    count: u64,
    /// Accesses since the key last entered (GDSF's frequency).
    frequency: u64,
    size: u64,
    cost: f64,
    /// The Greedy-Dual credit `H` as of the latest insert or hit.
    credit: f64,
}

/// A naive model of each policy's documented rank: victims are found by
/// scanning every tracked key.
struct RankModel {
    name: &'static str,
    tracked: HashMap<EntryKey, Tracked>,
    tick: u64,
    inflation: f64,
}

impl RankModel {
    fn new(name: &'static str) -> Self {
        Self {
            name,
            tracked: HashMap::new(),
            tick: 0,
            inflation: 0.0,
        }
    }

    /// GDS and GD(1) count one access whatever the hits; GD(1) costs 1.
    fn credit(&self, t: &Tracked) -> f64 {
        let frequency = if self.name == "gdsf" { t.frequency } else { 1 };
        self.inflation + frequency as f64 * t.cost / t.size.max(1) as f64
    }

    fn insert(&mut self, key: EntryKey, attrs: &EntryAttrs) {
        self.tick += 1;
        let cost = if self.name == "gd1" {
            1.0
        } else if attrs.pin_level == STAGE_PIN_LEVEL {
            attrs.cost * STAGE_COST_DISCOUNT
        } else {
            attrs.cost
        };
        let prior = self.tracked.get(&key);
        let mut t = Tracked {
            first: prior.map_or(self.tick, |t| t.first),
            inserted: self.tick,
            touched: self.tick,
            count: 1,
            frequency: prior.map_or(1, |t| t.frequency),
            size: attrs.size,
            cost,
            credit: 0.0,
        };
        t.credit = self.credit(&t);
        self.tracked.insert(key, t);
    }

    fn hit(&mut self, key: EntryKey) {
        self.tick += 1;
        let Some(mut t) = self.tracked.remove(&key) else {
            return;
        };
        t.touched = self.tick;
        t.count += 1;
        t.frequency += 1;
        t.credit = self.credit(&t);
        self.tracked.insert(key, t);
    }

    /// Compares two tracked keys by the policy's rank; the lower goes first.
    fn order(&self, a: &Tracked, b: &Tracked) -> Ordering {
        match self.name {
            "gds" | "gd1" | "gdsf" => a
                .credit
                .total_cmp(&b.credit)
                .then(a.touched.cmp(&b.touched)),
            "lru" => a.touched.cmp(&b.touched),
            "lfu" => (a.count, a.touched).cmp(&(b.count, b.touched)),
            "size" => b.size.cmp(&a.size).then(a.inserted.cmp(&b.inserted)),
            "fifo" => a.first.cmp(&b.first),
            other => panic!("{other}: no documented rank"),
        }
    }

    fn evict(&mut self) -> Option<EntryKey> {
        let victim = *self.tracked.iter().min_by(|a, b| self.order(a.1, b.1))?.0;
        let evicted = self.tracked.remove(&victim).expect("victim is tracked");
        // Greedy-Dual inflation rises to the evicted credit.
        self.inflation = self.inflation.max(evicted.credit);
        Some(victim)
    }
}

/// Operations the document-index model replays against a live cache.
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Read(u64, u64),
    Write(u64, u8),
    InvalidateDocument(u64),
    InvalidateUser(u64, u64),
}

const INDEX_DOCS: u64 = 4;
const INDEX_USERS: u64 = 3;

/// Reads are listed twice, so they make up two ops in five.
fn cache_op_strategy() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        (0..INDEX_DOCS, 0..INDEX_USERS).prop_map(|(d, u)| CacheOp::Read(d, u)),
        (0..INDEX_DOCS, 0..INDEX_USERS).prop_map(|(d, u)| CacheOp::Read(d, u)),
        (0..INDEX_DOCS, any::<u8>()).prop_map(|(d, v)| CacheOp::Write(d, v)),
        (0..INDEX_DOCS).prop_map(CacheOp::InvalidateDocument),
        (0..INDEX_DOCS, 0..INDEX_USERS).prop_map(|(d, u)| CacheOp::InvalidateUser(d, u)),
    ]
}

/// A body whose length varies with `v`, so fills of different sizes
/// compete for the small budget below; one value in eight is larger than
/// the whole budget, so its fills evict everything and then themselves.
fn index_body(doc: u64, v: u8) -> String {
    let repeats = if v % 8 == 7 {
        40
    } else {
        usize::from(v % 6) + 1
    };
    format!("d{doc}v{v}-").repeat(repeats)
}

proptest! {
    /// Each shard's `DocumentId → keys` index equals its resident keys
    /// grouped by document after every step — fills, evictions (the
    /// budget holds a few entries), self-evicting fills, write-through
    /// writes and bus invalidations — so no index entry outlives its key.
    /// Reads stay correct while stage outputs are reclaimed.
    #[test]
    fn document_index_matches_resident_keys(
        shards in 2usize..5,
        ops in proptest::collection::vec(cache_op_strategy(), 1..150),
    ) {
        let space = DocumentSpace::new(VirtualClock::new());
        let mut bodies = Vec::new();
        let mut docs = Vec::new();
        for d in 0..INDEX_DOCS {
            let body = index_body(d, 0);
            let provider = MemoryProvider::new("doc", body.clone(), 500);
            let doc = space.create_document(UserId(0), provider);
            let upper = ScriptProperty::compile("up", "upper", ExtEnv::new()).unwrap();
            space.attach_active(Scope::Universal, doc, upper).unwrap();
            for u in 0..INDEX_USERS {
                space.add_reference(UserId(u), doc).unwrap();
                let source = format!("append(\"[u{u}]\")");
                let tag = ScriptProperty::compile("tag", &source, ExtEnv::new()).unwrap();
                space.attach_active(Scope::Personal(UserId(u)), doc, tag).unwrap();
            }
            bodies.push(body);
            docs.push(doc);
        }
        let cache = DocumentCache::new(
            Arc::clone(&space),
            CacheConfig::builder()
                .capacity_bytes(160)
                .shards(shards)
                .stage_cache(true)
                .write_mode(WriteMode::Through)
                .build(),
        );
        for op in ops {
            match op {
                CacheOp::Read(d, u) => {
                    let got = cache.read(UserId(u), docs[d as usize]).unwrap();
                    let expected = format!("{}[u{u}]", bodies[d as usize].to_uppercase());
                    prop_assert_eq!(got, Bytes::from(expected));
                }
                CacheOp::Write(d, v) => {
                    let body = index_body(d, v);
                    cache.write(UserId(0), docs[d as usize], body.as_bytes()).unwrap();
                    bodies[d as usize] = body;
                }
                CacheOp::InvalidateDocument(d) => {
                    space.bus().post(Invalidation::Document(docs[d as usize]));
                }
                CacheOp::InvalidateUser(d, u) => {
                    let doc = docs[d as usize];
                    space.bus().post(Invalidation::UserDocument(doc, UserId(u)));
                }
            }
            let exact = cache.check_doc_index();
            prop_assert!(exact.is_ok(), "{:?} after {:?}", exact, op);
        }
    }
}
