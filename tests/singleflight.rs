//! Single-flight coalescing and the `read_with` options surface, tested
//! end to end: racing OS threads against one cold document and asserting
//! the origin saw exactly one fetch.

use bytes::Bytes;
use placeless_cache::{CacheConfig, DocumentCache, HitClass, ReadOptions, ResilienceConfig};
use placeless_core::bitprovider::BitProvider;
use placeless_core::error::{PlacelessError, Result};
use placeless_core::id::UserId;
use placeless_core::space::{DocumentSpace, Scope};
use placeless_core::streams::{InputStream, MemoryInput, OutputStream};
use placeless_core::verifier::Verifier;
use placeless_repository::{FsProvider, MemFs};
use placeless_simenv::{FaultPlan, Instant, LatencyModel, Link, VirtualClock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

const USER: UserId = UserId(1);

/// A counting provider that parks its *first* fetch until the cache
/// reports `expected_waiters` queued readers (so the race is real, not
/// timing luck), optionally failing that first fetch after the waiters
/// have queued.
struct GateProvider {
    body: Bytes,
    fetches: AtomicU64,
    fail_first: bool,
    cache: Arc<OnceLock<Arc<DocumentCache>>>,
    expected_waiters: u64,
}

impl GateProvider {
    fn new(
        fail_first: bool,
        cache: Arc<OnceLock<Arc<DocumentCache>>>,
        expected_waiters: u64,
    ) -> Arc<Self> {
        Arc::new(Self {
            body: Bytes::from_static(b"the one true body"),
            fetches: AtomicU64::new(0),
            fail_first,
            cache,
            expected_waiters,
        })
    }

    fn fetches(&self) -> u64 {
        self.fetches.load(Ordering::SeqCst)
    }
}

impl BitProvider for GateProvider {
    fn describe(&self) -> String {
        "gate:test".to_owned()
    }

    fn open_input(&self, _clock: &VirtualClock) -> Result<Box<dyn InputStream>> {
        if self.fetches.fetch_add(1, Ordering::SeqCst) == 0 {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while std::time::Instant::now() < deadline {
                let waiting = self
                    .cache
                    .get()
                    .map(|cache| cache.waiting_reads())
                    .unwrap_or(0);
                if waiting >= self.expected_waiters {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            if self.fail_first {
                return Err(PlacelessError::Unavailable {
                    source: "gate:test".to_owned(),
                    retry_after: None,
                });
            }
        }
        Ok(Box::new(MemoryInput::new(self.body.clone())))
    }

    fn open_output(&self, _clock: &VirtualClock) -> Result<Box<dyn OutputStream>> {
        Err(PlacelessError::Repository("gate is read-only".to_owned()))
    }

    fn make_verifier(&self, _clock: &VirtualClock) -> Option<Box<dyn Verifier>> {
        None
    }

    fn fetch_cost_micros(&self) -> u64 {
        100
    }
}

fn gated_world(
    fail_first: bool,
    threads: usize,
) -> (
    Arc<DocumentCache>,
    Arc<GateProvider>,
    placeless_core::id::DocumentId,
) {
    let handle: Arc<OnceLock<Arc<DocumentCache>>> = Arc::new(OnceLock::new());
    let provider = GateProvider::new(fail_first, handle.clone(), threads as u64 - 1);
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let doc = space.create_document(USER, provider.clone());
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .build(),
    );
    handle.set(cache.clone()).ok().expect("handle set once");
    (cache, provider, doc)
}

/// N racing threads miss the same cold document: the provider computes
/// once, every other read coalesces, and all threads see identical bytes.
#[test]
fn concurrent_misses_compute_once() {
    const THREADS: usize = 8;
    let (cache, provider, doc) = gated_world(false, THREADS);

    let bodies: Vec<Bytes> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let cache = &cache;
                scope.spawn(move || cache.read(USER, doc).expect("read"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert!(bodies.windows(2).all(|w| w[0] == w[1]), "bytes diverged");
    assert_eq!(provider.fetches(), 1, "origin must compute exactly once");

    let stats = cache.stats();
    assert_eq!(stats.coalesced_waits, THREADS as u64 - 1);
    assert_eq!(stats.misses, 1, "one leader filled the entry");
    assert_eq!(stats.hits, THREADS as u64 - 1, "waiters count as hits");
    assert_eq!(stats.hits + stats.misses, THREADS as u64, "accounting");
    assert!(stats.inflight_peak >= 1);
    assert_eq!(cache.waiting_reads(), 0, "no waiter left behind");
}

/// A failing leader shares its error with every waiter — but the failure
/// is not sticky: the flight is gone before the outcome publishes, so the
/// very next read retries the origin and succeeds.
#[test]
fn leader_failure_is_shared_but_not_sticky() {
    const THREADS: usize = 4;
    let (cache, provider, doc) = gated_world(true, THREADS);

    let errors: Vec<PlacelessError> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let cache = &cache;
                scope.spawn(move || cache.read(USER, doc).expect_err("origin is dark"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(provider.fetches(), 1, "one failed attempt serves them all");
    assert!(
        errors
            .iter()
            .all(|e| matches!(e, PlacelessError::Unavailable { .. })),
        "waiters must share the leader's error: {errors:?}"
    );
    assert_eq!(cache.stats().coalesced_waits, THREADS as u64 - 1);

    // The flight died with its leader; a fresh read goes back to the
    // origin (whose failure was first-fetch-only) and succeeds.
    assert_eq!(
        cache.read(USER, doc).expect("retry reaches the origin"),
        "the one true body"
    );
    assert_eq!(provider.fetches(), 2);
    assert_eq!(cache.stats().misses, 1, "only the successful fill counts");
}

/// `read()` is a thin wrapper: it returns exactly `read_with(..)`'s bytes
/// under default options, on both the miss and the hit path.
#[test]
fn read_delegates_to_read_with() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
    let fs = MemFs::new(clock);
    fs.create("/doc", "delegation body");
    let doc = space.create_document(
        USER,
        FsProvider::new(fs, "/doc", Link::new(500, 2_000_000, 0.0, 1)),
    );
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .build(),
    );

    let miss = cache
        .read_with(USER, doc, ReadOptions::default())
        .expect("miss");
    assert_eq!(miss.class, HitClass::Miss);
    assert_eq!(cache.read(USER, doc).expect("hit"), miss.bytes);
    let hit = cache
        .read_with(USER, doc, ReadOptions::default())
        .expect("hit");
    assert_eq!(hit.class, HitClass::Hit);
    assert_eq!(hit.bytes, miss.bytes);
}

/// Per-read `allow_stale` serves resident bytes across an outage with no
/// configured serve-stale policy — and only for the reads that opt in.
#[test]
fn allow_stale_is_per_read() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
    let fs = MemFs::new(clock.clone());
    fs.create("/doc", "body");
    let link = Link::new(1_000, 10_000_000, 0.0, 7);
    link.set_fault_plan(FaultPlan::builder(7).outage(10_000, 500_000).build());
    let doc = space.create_document(USER, FsProvider::new(fs, "/doc", link));
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .build(),
    );

    assert_eq!(cache.read(USER, doc).expect("warm fill"), "body");

    clock.advance_to(Instant(20_000));
    cache
        .read(USER, doc)
        .expect_err("no stale policy, no opt-in: the outage surfaces");

    let outcome = cache
        .read_with(USER, doc, ReadOptions::new().allow_stale(true))
        .expect("opted-in read survives the outage");
    assert_eq!(outcome.bytes, "body");
    assert_eq!(outcome.class, HitClass::StaleServed);

    let stats = cache.stats();
    assert_eq!(stats.stale_served, 1);
    assert_eq!(stats.degraded_errors, 1);
}

/// A per-read deadline override cuts retry scheduling short: the same
/// outage that the configured policy would ride out with backoff turns
/// into an immediate timeout when the caller's budget can't cover the
/// first backoff delay.
#[test]
fn deadline_override_bounds_retries() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
    let fs = MemFs::new(clock.clone());
    fs.create("/doc", "body");
    let link = Link::new(1_000, 10_000_000, 0.0, 9);
    link.set_fault_plan(FaultPlan::builder(9).outage(0, 30_000).build());
    let doc = space.create_document(USER, FsProvider::new(fs, "/doc", link));
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .resilience(
                ResilienceConfig::builder()
                    .max_retries(3)
                    .backoff_base_micros(10_000)
                    .backoff_jitter_frac(0)
                    .build(),
            )
            .build(),
    );

    // Budget below the first backoff delay: fail fast with Timeout, no
    // retries burned.
    let err = cache
        .read_with(USER, doc, ReadOptions::new().deadline_micros(5_000))
        .expect_err("budget exhausted before the first retry");
    assert!(matches!(err, PlacelessError::Timeout { .. }), "{err}");
    assert_eq!(cache.stats().retries, 0);

    // The configured policy (no per-read override) rides the outage out:
    // backoff walks the clock past the outage end and the read succeeds.
    let outcome = cache
        .read_with(USER, doc, ReadOptions::default())
        .expect("retries outlast the outage");
    assert!(!outcome.bytes.is_empty());
    assert!(cache.stats().retries > 0);
}

/// `bypass_stage_cache` forces a full recompute: a read that would have
/// been a partial hit over the shared stage prefix classifies as a plain
/// miss and takes no stage hits.
#[test]
fn bypass_stage_cache_forces_full_recompute() {
    use placeless_bench::support::TagProperty;

    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
    let fs = MemFs::new(clock.clone());
    fs.create("/doc", "staged body");
    let doc = space.create_document(
        USER,
        FsProvider::new(fs, "/doc", Link::new(500, 2_000_000, 0.0, 3)),
    );
    for i in 0..3 {
        space
            .attach_active(
                Scope::Universal,
                doc,
                TagProperty::new(&format!("b{i}"), 100),
            )
            .expect("attach");
    }
    let second = UserId(2);
    let third = UserId(3);
    space.add_reference(second, doc).expect("reference");
    space.add_reference(third, doc).expect("reference");
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .stage_cache(true)
            .build(),
    );

    // First user warms the shared stage prefix.
    let first = cache
        .read_with(USER, doc, ReadOptions::default())
        .expect("cold fill");
    assert_eq!(first.class, HitClass::Miss);

    // Second user normally rides it: a partial hit.
    let partial = cache
        .read_with(second, doc, ReadOptions::default())
        .expect("staged read");
    assert_eq!(partial.class, HitClass::PartialHit);
    let stage_hits_after_partial = cache.stats().stage_hits;
    assert!(stage_hits_after_partial > 0);

    // Third user bypasses the stage cache: same bytes, full recompute.
    let bypassed = cache
        .read_with(third, doc, ReadOptions::new().bypass_stage_cache(true))
        .expect("bypassed read");
    assert_eq!(bypassed.class, HitClass::Miss);
    assert_eq!(bypassed.bytes, partial.bytes);
    assert_eq!(
        cache.stats().stage_hits,
        stage_hits_after_partial,
        "a bypassed read must not consult stage entries"
    );
}
