//! Wall-clock throughput of the replacement policies: a mixed
//! insert/hit/evict cycle over a 4,096-entry working set, per policy.
//! Every policy ranks entries in the same addressable heap, so every call
//! is `O(log n)`; the policies differ only in how they rank.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use placeless_cache::{by_name, EntryAttrs, EntryKey, ALL_POLICIES};
use placeless_core::id::{DocumentId, UserId};
use std::hint::black_box;

fn bench_policy_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy_cycle");
    for policy_name in ALL_POLICIES {
        group.bench_with_input(
            BenchmarkId::from_parameter(policy_name),
            &policy_name,
            |b, name| {
                b.iter_with_setup(
                    || {
                        let mut policy = by_name(name).expect("known");
                        for i in 0..4_096u64 {
                            policy.on_insert(
                                EntryKey::Version(DocumentId(i), UserId(1)),
                                &EntryAttrs::new(256 + (i % 1_024), (i % 97) as f64 * 100.0),
                            );
                        }
                        policy
                    },
                    |mut policy| {
                        for i in 0..256u64 {
                            policy.on_hit(EntryKey::Version(DocumentId(i * 13 % 4_096), UserId(1)));
                            policy.on_insert(
                                EntryKey::Version(DocumentId(10_000 + i), UserId(1)),
                                &EntryAttrs::new(512, 1_000.0),
                            );
                            black_box(policy.evict());
                        }
                    },
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_policy_cycle);
criterion_main!(benches);
