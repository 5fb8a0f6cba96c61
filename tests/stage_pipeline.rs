//! End-to-end tests of the staged read path: byte parity with the plain
//! path (opaque stages included), content-addressed invalidation via
//! external epochs, and cacheability enforcement during the staged walk.

use bytes::Bytes;
use placeless::prelude::*;
use placeless_core::cacheability::Cacheability;
use placeless_core::error::Result as CoreResult;
use placeless_core::event::{EventKind, Interests};
use placeless_core::external::SimpleExternal;
use placeless_core::property::{ActiveProperty, PathCtx, PathReport};
use placeless_core::streams::{InputStream, TransformingInput};
use placeless_proplang::{ExtEnv, ScriptProperty};
use std::sync::Arc;

/// Appends a fixed marker; staged (tokened) or opaque on demand.
struct Suffix {
    name: String,
    marker: Vec<u8>,
    tokened: bool,
}

impl Suffix {
    fn staged(label: &str) -> Arc<Self> {
        Arc::new(Self {
            name: format!("suffix-{label}"),
            marker: format!("[{label}]").into_bytes(),
            tokened: true,
        })
    }

    fn opaque(label: &str) -> Arc<Self> {
        Arc::new(Self {
            name: format!("opaque-{label}"),
            marker: format!("[{label}]").into_bytes(),
            tokened: false,
        })
    }
}

impl ActiveProperty for Suffix {
    fn name(&self) -> &str {
        &self.name
    }
    fn interests(&self) -> Interests {
        Interests::of(&[EventKind::GetInputStream])
    }
    fn execution_cost_micros(&self) -> u64 {
        100
    }
    fn wrap_input(
        &self,
        _ctx: &PathCtx<'_>,
        _report: &mut PathReport,
        inner: Box<dyn InputStream>,
    ) -> CoreResult<Box<dyn InputStream>> {
        let marker = self.marker.clone();
        Ok(Box::new(TransformingInput::new(
            inner,
            Box::new(move |bytes| {
                let mut out = bytes.to_vec();
                out.extend_from_slice(&marker);
                Ok(Bytes::from(out))
            }),
        )))
    }
    fn transform_token(&self, _ctx: &PathCtx<'_>) -> Option<Vec<u8>> {
        self.tokened.then(|| self.marker.clone())
    }
}

/// A tokened property that nevertheless votes its path uncacheable.
struct NoStore;

impl ActiveProperty for NoStore {
    fn name(&self) -> &str {
        "no-store"
    }
    fn interests(&self) -> Interests {
        Interests::of(&[EventKind::GetInputStream])
    }
    fn wrap_input(
        &self,
        _ctx: &PathCtx<'_>,
        report: &mut PathReport,
        inner: Box<dyn InputStream>,
    ) -> CoreResult<Box<dyn InputStream>> {
        report.vote(Cacheability::Uncacheable);
        Ok(inner)
    }
    fn transform_token(&self, _ctx: &PathCtx<'_>) -> Option<Vec<u8>> {
        Some(b"no-store".to_vec())
    }
}

const USERS: usize = 3;

/// Builds a document with a mixed universal chain (staged, staged, opaque)
/// and one staged per-user suffix, behind a cache with stage caching
/// `stage_cache`.
fn mixed_world(stage_cache: bool) -> (Arc<DocumentCache>, DocumentId, Vec<UserId>) {
    let clock = VirtualClock::new();
    let space = DocumentSpace::new(clock.clone());
    let provider = MemoryProvider::new("doc", "the draft and the paper\nsecond line", 1_000);
    let doc = space.create_document(UserId(0), provider);
    space
        .attach_active(
            Scope::Universal,
            doc,
            ScriptProperty::compile("up", "upper", ExtEnv::new()).unwrap(),
        )
        .unwrap();
    space
        .attach_active(
            Scope::Universal,
            doc,
            ScriptProperty::compile("head", "take_lines(1)", ExtEnv::new()).unwrap(),
        )
        .unwrap();
    space
        .attach_active(Scope::Universal, doc, Suffix::opaque("!"))
        .unwrap();
    let users: Vec<UserId> = (1..=USERS as u64).map(UserId).collect();
    for &user in &users {
        space.add_reference(user, doc).unwrap();
        space
            .attach_active(
                Scope::Personal(user),
                doc,
                Suffix::staged(&format!("u{}", user.0)),
            )
            .unwrap();
    }
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder().stage_cache(stage_cache).build(),
    );
    (cache, doc, users)
}

/// Every user's first and second read, in order.
fn render_all(cache: &DocumentCache, doc: DocumentId, users: &[UserId]) -> Vec<Bytes> {
    let mut out = Vec::new();
    for &user in users {
        out.push(cache.read(user, doc).unwrap());
    }
    for &user in users {
        out.push(cache.read(user, doc).unwrap());
    }
    out
}

#[test]
fn staged_path_is_byte_identical_to_plain_path() {
    let (plain, doc, users) = mixed_world(false);
    let (staged, sdoc, susers) = mixed_world(true);
    let expected = render_all(&plain, doc, &users);
    let got = render_all(&staged, sdoc, &susers);
    assert_eq!(got, expected);

    // The opaque stage ran (its marker is in the output) and the staged
    // walk genuinely engaged: later users partial-hit the tokened prefix.
    assert!(got[0].ends_with(b"[!][u1]"));
    let stats = staged.stats();
    assert_eq!(stats.stage_partial_hits, USERS as u64 - 1);
    // Two universal tokened stages hit per later user; the opaque stage
    // re-executes every miss and never gets an entry.
    assert_eq!(stats.stage_hits, 2 * (USERS as u64 - 1));
    assert_eq!(staged.stage_entry_count(), 2 + USERS);

    // The plain world saw none of this.
    assert_eq!(plain.stats().stage_hits, 0);
    assert_eq!(plain.stats().stage_bytes, 0);
    assert_eq!(plain.stage_entry_count(), 0);
}

#[test]
fn external_epoch_change_rekeys_the_chain() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::new(clock.clone());
    let provider = MemoryProvider::new("doc", "price: ", 1_000);
    let doc = space.create_document(UserId(0), provider);
    let env = ExtEnv::new();
    let quote = SimpleExternal::new("quote", "v1");
    env.add(quote.clone());
    space
        .attach_active(
            Scope::Universal,
            doc,
            ScriptProperty::compile("q", "append_ext(\"quote\")", env).unwrap(),
        )
        .unwrap();
    let users: Vec<UserId> = (1..=3).map(UserId).collect();
    for &user in &users {
        space.add_reference(user, doc).unwrap();
        space
            .attach_active(
                Scope::Personal(user),
                doc,
                Suffix::staged(&format!("u{}", user.0)),
            )
            .unwrap();
    }
    let cache = DocumentCache::new(space, CacheConfig::builder().stage_cache(true).build());

    // Two users populate and share the external-bearing stage.
    assert_eq!(
        cache.read(users[0], doc).unwrap(),
        Bytes::from_static(b"price: v1[u1]")
    );
    assert_eq!(
        cache.read(users[1], doc).unwrap(),
        Bytes::from_static(b"price: v1[u2]")
    );
    let before = cache.stats();
    assert_eq!(before.stage_hits, 1);

    // The external changes. A cold reader must see the new value even
    // though the v1 stage entries are still resident: the changed epoch
    // changes the token, so the old entries simply stop being addressed.
    quote.set("v2");
    assert_eq!(
        cache.read(users[2], doc).unwrap(),
        Bytes::from_static(b"price: v2[u3]")
    );
    let after = cache.stats();
    assert_eq!(after.stage_hits, before.stage_hits, "no stale stage served");
    assert_eq!(after.stage_partial_hits, before.stage_partial_hits);
}

#[test]
fn uncacheable_vote_blocks_stage_fills() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::new(clock.clone());
    let provider = MemoryProvider::new("doc", "secret", 1_000);
    let doc = space.create_document(UserId(0), provider);
    space
        .attach_active(Scope::Universal, doc, Arc::new(NoStore))
        .unwrap();
    let user = UserId(1);
    space.add_reference(user, doc).unwrap();
    let cache = DocumentCache::new(space, CacheConfig::builder().stage_cache(true).build());

    assert_eq!(
        cache.read(user, doc).unwrap(),
        Bytes::from_static(b"secret")
    );
    assert_eq!(
        cache.read(user, doc).unwrap(),
        Bytes::from_static(b"secret")
    );
    let stats = cache.stats();
    assert_eq!(stats.uncacheable_reads, 2, "every read forwarded");
    assert_eq!(stats.stage_hits, 0);
    assert_eq!(
        cache.stage_entry_count(),
        0,
        "a token does not override the cacheability vote"
    );
    assert_eq!(stats.stage_bytes, 0);
}

/// A document with a two-stage tokened universal chain and a reader.
fn staged_doc(space: &Arc<DocumentSpace>, body: &'static str, reader: UserId) -> DocumentId {
    let doc = space.create_document(UserId(0), MemoryProvider::new("doc", body, 1_000));
    for label in ["x", "y"] {
        space
            .attach_active(Scope::Universal, doc, Suffix::staged(label))
            .unwrap();
    }
    space.add_reference(reader, doc).unwrap();
    doc
}

#[test]
fn document_invalidation_reclaims_its_stage_outputs() {
    let space = DocumentSpace::new(VirtualClock::new());
    let (reader, late_reader) = (UserId(1), UserId(2));
    let a = staged_doc(&space, "body-0000", reader);
    let b = staged_doc(&space, "other-000", reader);
    space.add_reference(late_reader, b).unwrap();
    let cache = DocumentCache::new(
        Arc::clone(&space),
        CacheConfig::builder()
            .stage_cache(true)
            .write_mode(WriteMode::Through)
            .build(),
    );
    cache.read(reader, a).unwrap();
    cache.read(reader, b).unwrap();
    // Two stage outputs per document's live chain.
    let live = 4;
    assert_eq!(cache.stage_entry_count(), live);
    let (physical, _) = cache.resident_bytes();

    // Every write moves `a`'s root, so the stage outputs chained from the
    // old root can never be addressed again: they go with the write
    // instead of piling up until evicted.
    for k in 1..=20 {
        let body = format!("body-{k:04}");
        cache.write(reader, a, body.as_bytes()).unwrap();
        assert_eq!(
            cache.read(reader, a).unwrap(),
            Bytes::from(format!("{body}[x][y]"))
        );
        assert_eq!(cache.stage_entry_count(), live, "after write {k}");
        assert_eq!(cache.resident_bytes().0, physical, "after write {k}");
        cache.check_doc_index().unwrap();
    }

    // A bus invalidation of `a` drops its stages and its one version, and
    // counts only the version; `b`'s stages stay and still serve.
    let before = cache.stats();
    space.bus().post(Invalidation::Document(a));
    let after = cache.stats();
    assert_eq!(
        after.notifier_invalidations - before.notifier_invalidations,
        1
    );
    assert_eq!(cache.stage_entry_count(), 2);
    assert!(!cache.contains(reader, a));
    assert!(cache.contains(reader, b));
    assert_eq!(
        cache.read(late_reader, b).unwrap(),
        Bytes::from_static(b"other-000[x][y]")
    );
    assert_eq!(cache.stats().stage_hits - after.stage_hits, 2);
    cache.check_doc_index().unwrap();
}
