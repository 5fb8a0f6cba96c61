//! The workloads: seeded inputs, set-up, warm-up, and the closed-loop
//! drive against the public API of `placeless-cache`.
//!
//! Every input — the access trace, the document bodies, the property
//! chains, the origins and the out-of-band edits — is generated from the
//! seed during set-up. The drive only replays the generated op lists.
//! See `WORKLOADS.md` for why each workload exists and what it loads.

use crate::trace::{self, Layer, Ledger, TracedPolicy, TracedProperty, TracedProvider};
use bytes::Bytes;
use placeless_cache::{
    CacheConfig, CacheStats, DocumentCache, FlushReport, HitClass, MergePolicy, PolicyFactory,
    ReadOptions, WriteJournal, WriteMode,
};
use placeless_core::prelude::*;
use placeless_properties::Rot13AtRest;
use placeless_proplang::{ExtEnv, ScriptProperty};
use placeless_repository::{FsProvider, MemFs, WebProvider, WebServer};
use placeless_simenv::trace::lorem_bytes;
use placeless_simenv::{
    AccessEvent, Link, LinkClass, SimRng, StableStore, TraceBuilder, VirtualClock,
};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{Arc, Barrier};
use std::time::Instant as WallInstant;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// E-LOAD shape: a large Zipf population over staged property chains,
    /// 2 % write-through writes.
    Population,
    /// Working set larger than the cache over repository origins.
    Churn,
    /// Write-back writes and typed ops beside reads, journaled and merged.
    Writeback,
    /// Two client threads racing misses on a few hot documents.
    Contended,
}

impl Workload {
    /// Every workload; `BENCHMARK.json` lists all but `contended` (see
    /// `WORKLOADS.md`).
    pub const ALL: [Workload; 4] = [
        Workload::Population,
        Workload::Churn,
        Workload::Writeback,
        Workload::Contended,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Population => "population",
            Workload::Churn => "churn",
            Workload::Writeback => "writeback",
            Workload::Contended => "contended",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client threads.
    pub fn clients(self) -> usize {
        match self {
            Workload::Contended => 2,
            _ => 1,
        }
    }

    /// Timed ops per client per second of `--seconds`: the drive is a
    /// fixed amount of work, sized to take about that long on a 2-core
    /// host, so both sides of a comparison do identical work.
    fn ops_per_second(self) -> usize {
        match self {
            Workload::Population => 16_000,
            Workload::Churn => 20_000,
            Workload::Writeback => 6_000,
            Workload::Contended => 30_000,
        }
    }

    /// Untimed warm-up ops per client.
    fn warm_ops(self) -> usize {
        match self {
            Workload::Population => 30_000,
            Workload::Churn => 30_000,
            Workload::Writeback => 10_000,
            Workload::Contended => 10_000,
        }
    }
}

/// The sizes of one run. [`Spec::new`] gives the benchmark's sizes; the
/// tests shrink them.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Untimed warm-up ops per client.
    pub warm_ops: usize,
    /// Timed ops per client.
    pub drive_ops: usize,
    /// Documents in the corpus.
    pub documents: usize,
    /// Users in the trace.
    pub users: usize,
}

impl Spec {
    /// The benchmark's sizes for `workload`, with a drive of about
    /// `seconds` seconds.
    pub fn new(workload: Workload, seed: u64, seconds: u64) -> Self {
        let (documents, users) = match workload {
            Workload::Population => (2_048, 100_000),
            Workload::Churn => (4_096, 1_000),
            Workload::Writeback => (256, 5_000),
            Workload::Contended => (64, 16),
        };
        Self {
            workload,
            seed,
            warm_ops: workload.warm_ops(),
            drive_ops: workload.ops_per_second() * seconds as usize,
            documents,
            users,
        }
    }
}

/// One generated op. Users and documents are trace indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `read_with`.
    Read { user: u32, doc: u32 },
    /// Full-body `write` carrying token `<w{id}>`.
    Write { user: u32, doc: u32, id: u32 },
    /// `write_op(Append)` of token `<a{id}>`.
    Append { user: u32, doc: u32, id: u32 },
    /// `write_op(ReplaceRange)` inserting token `<i{id}>` at offset 0.
    Insert { user: u32, doc: u32, id: u32 },
    /// `write_op(SetProperty)`: a personal annotation.
    Annotate { user: u32, doc: u32, id: u32 },
    /// `flush`.
    Flush,
    /// An out-of-band edit at the origin (not a cache op).
    Edit { doc: u32, id: u32 },
    /// Another writer appends token `<f{id}>` at the origin, outside the
    /// cache (not a cache op).
    ForeignAppend { doc: u32, id: u32 },
}

impl Op {
    fn is_write(&self) -> bool {
        matches!(
            self,
            Op::Write { .. } | Op::Append { .. } | Op::Insert { .. } | Op::Annotate { .. }
        )
    }
}

/// A document held in memory on a server shared with other documents:
/// every call goes to the document's own `MemoryProvider`, but the origin
/// key names the server, so the cache groups flushes, breakers and
/// in-flight windows per server.
struct OnServer {
    bits: Arc<MemoryProvider>,
    server: String,
}

impl BitProvider for OnServer {
    fn describe(&self) -> String {
        self.bits.describe()
    }

    fn origin_key(&self) -> String {
        self.server.clone()
    }

    fn open_input(&self, clock: &VirtualClock) -> Result<Box<dyn InputStream>> {
        self.bits.open_input(clock)
    }

    fn open_output(&self, clock: &VirtualClock) -> Result<Box<dyn OutputStream>> {
        self.bits.open_output(clock)
    }

    fn commit_batch(&self, clock: &VirtualClock, payloads: &[Bytes]) -> Option<Vec<Result<()>>> {
        self.bits.commit_batch(clock, payloads)
    }

    fn make_verifier(&self, clock: &VirtualClock) -> Option<Box<dyn Verifier>> {
        self.bits.make_verifier(clock)
    }

    fn fetch_cost_micros(&self) -> u64 {
        self.bits.fetch_cost_micros()
    }

    fn content_len_hint(&self) -> Option<u64> {
        self.bits.content_len_hint()
    }
}

/// Where a document's bytes live, for out-of-band edits and checks.
enum Origin {
    Memory(Arc<MemoryProvider>),
    Web(Arc<WebServer>, String),
    Fs(Arc<MemFs>, String),
}

/// A set-up workload, ready to drive.
pub struct World {
    /// The sizes it was built with.
    spec: Spec,
    /// The middleware.
    space: Arc<DocumentSpace>,
    /// The cache under test.
    cache: Arc<DocumentCache>,
    /// Physical byte capacity of the cache.
    capacity: u64,
    docs: Vec<DocumentId>,
    origins: Vec<Origin>,
    /// Each memory document's initial body.
    bases: Vec<Bytes>,
    sizes: Vec<usize>,
    filler: Bytes,
    drive: Vec<Vec<Op>>,
    checks: Vec<(u32, u32)>,
    journal_store: Option<StableStore>,
    /// Longest TTL any origin grants (µs); the read check runs past it.
    ttl_micros: u64,
}

fn user_id(user: u32) -> UserId {
    UserId(user as u64 + 1)
}

/// Deterministic per-key hash for seeded choices.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut rng = SimRng::seeded(seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.rotate_left(32));
    rng.next_u64()
}

fn policy(name: &str, traced: bool) -> PolicyFactory {
    let base = PolicyFactory::by_name(name).expect("known policy");
    if !traced {
        return base;
    }
    PolicyFactory::new(name, move || Box::new(TracedPolicy(base.build())))
}

fn provider(p: Arc<dyn BitProvider>, traced: bool) -> Arc<dyn BitProvider> {
    if traced {
        Arc::new(TracedProvider(p))
    } else {
        p
    }
}

fn property(p: Arc<dyn ActiveProperty>, traced: bool) -> Arc<dyn ActiveProperty> {
    if traced {
        Arc::new(TracedProperty(p))
    } else {
        p
    }
}

/// Samples `warm + drive` events per client from `sampler`, turning each
/// into an op with `to_op(event, index)`.
fn sample(
    sampler: &placeless_simenv::TraceSampler,
    spec: &Spec,
    clients: usize,
    mut to_op: impl FnMut(&AccessEvent, usize) -> Op,
) -> (Vec<Vec<Op>>, Vec<Vec<Op>>) {
    let mut warm = Vec::with_capacity(clients);
    let mut drive = Vec::with_capacity(clients);
    let mut index = 0;
    for client in 0..clients {
        let mut rng = sampler.stream(client as u64);
        let mut ops = Vec::with_capacity(spec.warm_ops + spec.drive_ops);
        for _ in 0..spec.warm_ops + spec.drive_ops {
            let event = sampler.next_event(&mut rng);
            ops.push(to_op(&event, index));
            index += 1;
        }
        drive.push(ops.split_off(spec.warm_ops));
        warm.push(ops);
    }
    (warm, drive)
}

/// Inserts a flush after every `every` writes and one at the end.
fn with_flushes(ops: Vec<Op>, every: usize) -> Vec<Op> {
    let mut out = Vec::with_capacity(ops.len() + ops.len() / every + 1);
    let mut writes = 0;
    for op in ops {
        let write = op.is_write();
        out.push(op);
        if write {
            writes += 1;
            if writes % every == 0 {
                out.push(Op::Flush);
            }
        }
    }
    out.push(Op::Flush);
    out
}

/// Every `(user, doc)` pair the ops touch, sorted.
fn pairs(lists: &[&[Vec<Op>]]) -> Vec<(u32, u32)> {
    let mut set = HashSet::new();
    for list in lists {
        for ops in *list {
            for op in ops {
                match *op {
                    Op::Read { user, doc }
                    | Op::Write { user, doc, .. }
                    | Op::Append { user, doc, .. }
                    | Op::Insert { user, doc, .. }
                    | Op::Annotate { user, doc, .. } => {
                        set.insert((user, doc));
                    }
                    Op::Flush | Op::Edit { .. } | Op::ForeignAppend { .. } => {}
                }
            }
        }
    }
    let mut out: Vec<_> = set.into_iter().collect();
    out.sort_unstable();
    out
}

/// Up to `n` read pairs spread evenly over the drive, for the read check.
fn check_pairs(drive: &[Vec<Op>], n: usize) -> Vec<(u32, u32)> {
    let reads: Vec<(u32, u32)> = drive
        .iter()
        .flatten()
        .filter_map(|op| match *op {
            Op::Read { user, doc } => Some((user, doc)),
            _ => None,
        })
        .collect();
    let step = (reads.len() / n.max(1)).max(1);
    let mut out: Vec<_> = reads.into_iter().step_by(step).take(n).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Where each popularity rank falls in the size range, in `0..1`: a
/// golden-ratio sequence, so every band of ranks holds an even spread of
/// sizes whatever the seed, with each point moved by up to 1/16 of the
/// range by a draw from the seed.
fn size_quantiles(seed: u64, n: usize) -> Vec<f64> {
    const JITTER: f64 = 1.0 / 16.0;
    let mut rng = SimRng::seeded(seed ^ 0x5EED_5123);
    (0..n)
        .map(|rank| {
            let base = ((rank as f64 + 0.5) * 0.618_033_988_749_894_9).fract();
            base * (1.0 - JITTER) + rng.next_f64() * JITTER
        })
        .collect()
}

/// Body sizes spread uniformly over `lo..=hi` bytes by popularity rank.
fn uniform_sizes(seed: u64, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    size_quantiles(seed, n)
        .into_iter()
        .map(|q| lo + (q * (hi - lo) as f64).round() as usize)
        .collect()
}

/// Body sizes spread log-uniformly over `lo..=hi` bytes by popularity
/// rank.
fn log_uniform_sizes(seed: u64, n: usize, lo: f64, hi: f64) -> Vec<usize> {
    size_quantiles(seed, n)
        .into_iter()
        .map(|q| (lo * (hi / lo).powf(q)).round() as usize)
        .collect()
}

fn rot13(data: &[u8]) -> Vec<u8> {
    data.iter()
        .map(|&b| placeless_properties::rot13::rot13_byte(b))
        .collect()
}

/// Longest TTL the churn web origins grant, in virtual µs.
const WEB_TTL_MICROS: u64 = 600_000_000;

/// Writes between two write-back flushes.
const FLUSH_EVERY: usize = 1_000;

/// Every how many ops a `contended` client writes its document through.
const CONTENDED_WRITE_EVERY: usize = 20;

impl World {
    /// Generates the inputs of `spec`, sets up the space and the cache,
    /// and runs the warm-up. `traced` installs the timing decorators.
    pub fn build(spec: Spec, traced: bool) -> World {
        let (mut world, warm) = match spec.workload {
            Workload::Population => Self::population(spec, traced),
            Workload::Churn => Self::churn(spec, traced),
            Workload::Writeback => Self::writeback(spec, traced),
            Workload::Contended => Self::contended(spec, traced),
        };
        world.checks = check_pairs(&world.drive, 200);
        // Untimed warm-up: plan leases, first fills and (churn) eviction
        // reach steady state before the drive.
        let mut scratch = ClientRun::default();
        for ops in &warm {
            world.run_ops(ops, &mut scratch, 0, false);
        }
        world
    }

    fn new(
        spec: Spec,
        space: Arc<DocumentSpace>,
        cache: Arc<DocumentCache>,
        capacity: u64,
    ) -> Self {
        World {
            spec,
            space,
            cache,
            capacity,
            docs: Vec::new(),
            origins: Vec::new(),
            bases: Vec::new(),
            sizes: Vec::new(),
            filler: Bytes::from(lorem_bytes(spec.seed ^ 0xF111, 64 << 10)),
            drive: Vec::new(),
            checks: Vec::new(),
            journal_store: None,
            ttl_micros: 0,
        }
    }

    /// Creates one in-memory document per size, spread round-robin over
    /// `servers` origins, with `chain` as its universal property chain
    /// (bodies stored rot13-scrambled when the chain unscrambles them).
    fn memory_docs(
        &mut self,
        servers: usize,
        chain: &[Arc<dyn ActiveProperty>],
        scrambled: bool,
        traced: bool,
    ) {
        for (d, &size) in self.sizes.iter().enumerate() {
            let text = lorem_bytes(self.spec.seed ^ ((d as u64) << 20), size);
            let body = Bytes::from(if scrambled { rot13(&text) } else { text });
            // Fetch cost of a LAN origin: one round trip plus the bytes at
            // 1.25 MB/s.
            let fetch_micros = 1_000 + size as u64 * 4 / 5;
            let origin = MemoryProvider::new(&format!("doc{d}"), body.clone(), fetch_micros);
            self.bases.push(body);
            let bits = Arc::new(OnServer {
                bits: origin.clone(),
                server: format!("memory-server-{}", d % servers),
            });
            let doc = self
                .space
                .create_document(UserId(0), provider(bits, traced));
            for prop in chain {
                self.space
                    .attach_active(Scope::Universal, doc, property(prop.clone(), traced))
                    .expect("attach universal property");
            }
            self.docs.push(doc);
            self.origins.push(Origin::Memory(origin));
        }
    }

    /// Gives every user a reference to each document their ops touch;
    /// returns those `(user, doc)` pairs.
    fn add_references(&self, warm: &[Vec<Op>]) -> Vec<(u32, u32)> {
        let pairs = pairs(&[warm, &self.drive]);
        for &(user, doc) in &pairs {
            self.space
                .add_reference(user_id(user), self.docs[doc as usize])
                .expect("reference");
        }
        pairs
    }

    /// The staged base chain of `population` and `contended`: a
    /// `properties` byte map and a `proplang` script, both cacheable stages.
    fn base_chain() -> Vec<Arc<dyn ActiveProperty>> {
        let fix = ScriptProperty::compile(
            "fix-spelling",
            "@cost(300) replace(\"teh\", \"the\") | replace(\"recieve\", \"receive\")",
            ExtEnv::new(),
        )
        .expect("base script compiles");
        vec![Rot13AtRest::new(), fix]
    }

    fn population(spec: Spec, traced: bool) -> (World, Vec<Vec<Op>>) {
        let sampler = TraceBuilder::new(spec.seed)
            .users(spec.users)
            .documents(spec.documents)
            .doc_theta(0.9)
            .user_theta(0.6)
            .locality(0.3)
            .working_set(8)
            .write_fraction(0.02)
            .build();
        let (warm, drive) = sample(&sampler, &spec, 1, |e, i| {
            let (user, doc, id) = (e.user as u32, e.doc as u32, i as u32);
            if e.is_write {
                Op::Write { user, doc, id }
            } else {
                Op::Read { user, doc }
            }
        });
        let space = DocumentSpace::new(VirtualClock::new());
        let capacity = 1 << 30;
        let cache = DocumentCache::new(
            space.clone(),
            CacheConfig::builder()
                .capacity_bytes(capacity)
                .policy(policy("gds", traced))
                .shards(2)
                .stage_cache(true)
                .build(),
        );
        let mut world = World::new(spec, space, cache, capacity);
        world.sizes = uniform_sizes(spec.seed, spec.documents, 1 << 10, 16 << 10);
        world.memory_docs(16, &Self::base_chain(), true, traced);
        world.drive = drive;
        // A one-stage personal suffix on about 10 % of references.
        for (user, doc) in world.add_references(&warm) {
            if !mix(spec.seed, user as u64, doc as u64).is_multiple_of(10) {
                continue;
            }
            let suffix = ScriptProperty::compile(
                &format!("sig-{user}"),
                &format!("@cost(200) append(\" -- for reader {user}\")"),
                ExtEnv::new(),
            )
            .expect("suffix script compiles");
            world
                .space
                .attach_active(
                    Scope::Personal(user_id(user)),
                    world.docs[doc as usize],
                    property(suffix, traced),
                )
                .expect("attach suffix");
        }
        (world, warm)
    }

    fn churn(spec: Spec, traced: bool) -> (World, Vec<Vec<Op>>) {
        let sampler = TraceBuilder::new(spec.seed)
            .users(spec.users)
            .documents(spec.documents)
            .doc_theta(0.8)
            .user_theta(0.9)
            .locality(0.9)
            .working_set(32)
            .write_fraction(0.1)
            .build();
        let mut edits = SimRng::seeded(spec.seed ^ 0xED17);
        let (warm, drive) = sample(&sampler, &spec, 1, |e, i| {
            let (user, doc, id) = (e.user as u32, e.doc as u32, i as u32);
            // About one access in 200 is replaced by an out-of-band edit
            // of the document it names.
            if edits.chance(0.005) {
                Op::Edit { doc, id }
            } else if e.is_write {
                Op::Annotate { user, doc, id }
            } else {
                Op::Read { user, doc }
            }
        });
        let sizes = log_uniform_sizes(spec.seed, spec.documents, 1024.0, 65536.0);
        // Capacity: 1/8 of the distinct rendition bytes the trace touches.
        let touched: BTreeSet<u32> = pairs(&[&warm, &drive])
            .into_iter()
            .map(|(_, d)| d)
            .collect();
        let distinct: u64 = touched.iter().map(|&d| sizes[d as usize] as u64).sum();
        let capacity = (distinct / 8).max(1);

        let clock = VirtualClock::new();
        let space = DocumentSpace::new(clock.clone());
        let cache = DocumentCache::new(
            space.clone(),
            CacheConfig::builder()
                .capacity_bytes(capacity)
                .policy(policy("gdsf", traced))
                .shards(2)
                .build(),
        );
        let mut world = World::new(spec, space, cache, capacity);
        world.sizes = sizes;
        world.ttl_micros = WEB_TTL_MICROS;
        let lan_web = WebServer::new("lan-web");
        let wan_web = WebServer::new("wan-web");
        let fs = MemFs::new(clock);
        let lan = Link::of_class(LinkClass::Lan, spec.seed);
        let wan = Link::of_class(LinkClass::Wan, spec.seed ^ 1);
        let fs_link = Link::of_class(LinkClass::Lan, spec.seed ^ 2);
        for d in 0..spec.documents {
            let body = lorem_bytes(spec.seed ^ ((d as u64) << 20), world.sizes[d]);
            let path = format!("/doc{d}");
            let (origin, bits): (Origin, Arc<dyn BitProvider>) =
                match mix(spec.seed, d as u64, 7) % 3 {
                    0 => {
                        lan_web.publish(&path, body, WEB_TTL_MICROS);
                        let p = WebProvider::new(lan_web.clone(), &path, lan.clone());
                        (Origin::Web(lan_web.clone(), path), p)
                    }
                    1 => {
                        wan_web.publish(&path, body, WEB_TTL_MICROS);
                        let p = WebProvider::new(wan_web.clone(), &path, wan.clone());
                        (Origin::Web(wan_web.clone(), path), p)
                    }
                    _ => {
                        fs.create(&path, body);
                        let p = FsProvider::new(fs.clone(), &path, fs_link.clone());
                        (Origin::Fs(fs.clone(), path), p)
                    }
                };
            let doc = world
                .space
                .create_document(UserId(0), provider(bits, traced));
            world.docs.push(doc);
            world.origins.push(origin);
        }
        world.drive = drive;
        world.add_references(&warm);
        (world, warm)
    }

    fn writeback(spec: Spec, traced: bool) -> (World, Vec<Vec<Op>>) {
        let sampler = TraceBuilder::new(spec.seed)
            .users(spec.users)
            .documents(spec.documents)
            .doc_theta(1.0)
            .user_theta(0.6)
            .locality(0.3)
            .working_set(8)
            .write_fraction(0.5)
            .build();
        let seed = spec.seed;
        let mut foreign = SimRng::seeded(seed ^ 0xF0E1);
        // Even-ranked documents take full-body writes, odd-ranked ones
        // typed ops, half appends and half range inserts. About one access
        // to an odd-ranked document in 200 is replaced by another writer's
        // append at the origin, so buffered ops meet a moved origin.
        let (warm, drive) = sample(&sampler, &spec, 1, |e, i| {
            let (user, doc, id) = (e.user as u32, e.doc as u32, i as u32);
            if doc % 2 == 1 && foreign.chance(0.005) {
                Op::ForeignAppend { doc, id }
            } else if !e.is_write {
                Op::Read { user, doc }
            } else if doc % 2 == 0 {
                Op::Write { user, doc, id }
            } else if mix(seed, i as u64, 3).is_multiple_of(2) {
                Op::Append { user, doc, id }
            } else {
                Op::Insert { user, doc, id }
            }
        });
        let warm: Vec<Vec<Op>> = warm
            .into_iter()
            .map(|ops| with_flushes(ops, FLUSH_EVERY))
            .collect();
        let drive: Vec<Vec<Op>> = drive
            .into_iter()
            .map(|ops| with_flushes(ops, FLUSH_EVERY))
            .collect();
        let store = StableStore::new();
        let space = DocumentSpace::new(VirtualClock::new());
        let capacity = 64 << 20;
        let cache = DocumentCache::new(
            space.clone(),
            CacheConfig::builder()
                .capacity_bytes(capacity)
                .policy(policy("gds", traced))
                .shards(2)
                .write_mode(WriteMode::Back)
                .journal(WriteJournal::new(store.clone()))
                .merge(MergePolicy::new())
                .build(),
        );
        let mut world = World::new(spec, space, cache, capacity);
        world.journal_store = Some(store);
        world.sizes = uniform_sizes(spec.seed, spec.documents, 128, 1 << 10);
        world.memory_docs(8, &[], false, traced);
        world.drive = drive;
        world.add_references(&warm);
        (world, warm)
    }

    fn contended(spec: Spec, traced: bool) -> (World, Vec<Vec<Op>>) {
        let sampler = TraceBuilder::new(spec.seed)
            .users(spec.users)
            .documents(spec.documents)
            .doc_theta(1.1)
            .user_theta(0.6)
            .locality(0.3)
            .working_set(8)
            .write_fraction(0.0)
            .build();
        let (warm, drive) = sample(&sampler, &spec, Workload::Contended.clients(), |e, i| {
            let (user, doc, id) = (e.user as u32, e.doc as u32, i as u32);
            // Every N-th op writes its document through: the write drops
            // every user's version of it, so hot keys go cold again and
            // both clients' misses race into one flight.
            if i % CONTENDED_WRITE_EVERY == CONTENDED_WRITE_EVERY - 1 {
                Op::Write { user, doc, id }
            } else {
                Op::Read { user, doc }
            }
        });
        let space = DocumentSpace::new(VirtualClock::new());
        // Above the working set of versions and live stages; writes leave
        // unreachable stage entries behind, which eviction reclaims.
        let capacity = 32 << 20;
        let cache = DocumentCache::new(
            space.clone(),
            CacheConfig::builder()
                .capacity_bytes(capacity)
                .policy(policy("gds", traced))
                .shards(2)
                .stage_cache(true)
                .max_inflight_per_origin(1)
                .build(),
        );
        let mut world = World::new(spec, space, cache, capacity);
        world.sizes = uniform_sizes(spec.seed, spec.documents, 4 << 10, 16 << 10);
        world.memory_docs(8, &Self::base_chain(), true, traced);
        world.drive = drive;
        world.add_references(&warm);
        (world, warm)
    }

    /// The generated timed op lists, one per client.
    #[cfg(test)]
    pub fn ops(&self) -> &[Vec<Op>] {
        &self.drive
    }

    /// A full body for `doc` led by token `<w{id}>`.
    fn write_body(&self, doc: u32, id: u32) -> Vec<u8> {
        let size = self.sizes[doc as usize].min(self.filler.len() / 2);
        let offset = (id as usize).wrapping_mul(7_919) % (self.filler.len() - size);
        let mut body = format!("<w{id}>").into_bytes();
        body.extend_from_slice(&self.filler[offset..offset + size]);
        body
    }

    /// Edits `doc` at its origin, behind the middleware's back.
    fn edit(&self, doc: u32, id: u32) {
        let body = Bytes::from(self.write_body(doc, id));
        match &self.origins[doc as usize] {
            Origin::Memory(p) => p.set_out_of_band(body),
            Origin::Web(server, path) => server.edit_origin(path, body).expect("edit page"),
            Origin::Fs(fs, path) => fs.write_direct(path, body).expect("edit file"),
        }
    }

    /// The bytes `doc`'s origin holds now.
    fn origin_content(&self, doc: u32) -> Bytes {
        match &self.origins[doc as usize] {
            Origin::Memory(p) => p.content(),
            Origin::Web(server, path) => server.get(path).expect("page").body,
            Origin::Fs(fs, path) => fs.read(path).expect("file"),
        }
    }

    /// Issues one content write (`write` or `write_op`) through `call`
    /// and records it. A traced drive also measures the journal bytes the
    /// write appended.
    fn content_write(
        &self,
        out: &mut ClientRun,
        traced: bool,
        id: u64,
        write: ContentWrite,
        call: impl FnOnce() -> placeless_core::error::Result<()>,
    ) {
        let layer = if write.full {
            Layer::Write
        } else {
            Layer::WriteOp
        };
        let journal = self.journal_store.as_ref().filter(|_| traced);
        let before = journal.map(StableStore::len);
        let (ns, result) = timed(traced, id, layer, call);
        if let (Some(store), Some(before)) = (journal, before) {
            out.journal_bytes += store.len().saturating_sub(before);
            out.user_bytes += write.bytes as u64;
        }
        out.attempted += 1;
        if result.is_err() {
            out.failed += 1;
            return;
        }
        out.write_ns.push(ns);
        out.acks.push(Ack {
            doc: write.doc,
            id: write.token,
            full: write.full,
            window: out.window,
        });
        if self.journal_store.is_some() {
            // Buffered until the next flush: the writer's reads of this
            // pair are served from its own dirty data.
            out.pending.insert((write.user, write.doc));
            if !write.full {
                out.op_docs.insert(write.doc);
            }
        }
    }

    /// After a flush: snapshots every typed-op document written in the
    /// window the flush closed, for the loss check, then resets it at the
    /// origin to its initial body. Typed ops only ever grow a document;
    /// the reset keeps document sizes, and so per-op cost, steady over a
    /// drive of any length.
    fn archive(&self, out: &mut ClientRun) {
        let mut docs: Vec<u32> = out.op_docs.drain().collect();
        docs.sort_unstable();
        for doc in docs {
            let Origin::Memory(origin) = &self.origins[doc as usize] else {
                unreachable!("typed ops target memory origins");
            };
            out.snapshots.push((out.window, doc, origin.content()));
            origin.set_out_of_band(self.bases[doc as usize].clone());
        }
    }

    /// Replays `ops` as one closed-loop client, recording into `out`.
    /// Op ids start at `first_id` (they name the op spans when `traced`).
    fn run_ops(&self, ops: &[Op], out: &mut ClientRun, first_id: u64, traced: bool) {
        let cache = &self.cache;
        for (i, op) in ops.iter().enumerate() {
            if i % 256 == 0 && cache.resident_bytes().0 > self.capacity {
                out.resident_violations += 1;
            }
            let id = first_id + i as u64;
            match *op {
                Op::Read { user, doc } => {
                    out.attempted += 1;
                    let d = self.docs[doc as usize];
                    let (ns, result) = timed(traced, id, Layer::Read, || {
                        cache.read_with(user_id(user), d, ReadOptions::default())
                    });
                    match result {
                        Ok(outcome) => {
                            std::hint::black_box(&outcome.bytes);
                            if out.pending.contains(&(user, doc)) {
                                out.dirty_reads += 1;
                            }
                            out.read_ns.push(ns);
                            out.class_ns[outcome.class as usize].push(ns);
                            out.classes[outcome.class as usize] += 1;
                            out.vread.push(outcome.latency_micros);
                        }
                        Err(_) => out.failed += 1,
                    }
                }
                Op::Write {
                    user,
                    doc,
                    id: token,
                } => {
                    let body = self.write_body(doc, token);
                    let d = self.docs[doc as usize];
                    let write = ContentWrite {
                        user,
                        doc,
                        token,
                        full: true,
                        bytes: body.len(),
                    };
                    self.content_write(out, traced, id, write, || {
                        cache.write(user_id(user), d, &body)
                    });
                }
                Op::Append {
                    user,
                    doc,
                    id: token,
                } => {
                    let data = Bytes::from(format!(" <a{token}>"));
                    let d = self.docs[doc as usize];
                    let write = ContentWrite {
                        user,
                        doc,
                        token,
                        full: false,
                        bytes: data.len(),
                    };
                    self.content_write(out, traced, id, write, || {
                        cache.write_op(user_id(user), d, DocOp::Append(data))
                    });
                }
                Op::Insert {
                    user,
                    doc,
                    id: token,
                } => {
                    let data = Bytes::from(format!("<i{token}> "));
                    let d = self.docs[doc as usize];
                    let write = ContentWrite {
                        user,
                        doc,
                        token,
                        full: false,
                        bytes: data.len(),
                    };
                    let edit = DocOp::ReplaceRange {
                        start: 0,
                        end: 0,
                        data,
                    };
                    self.content_write(out, traced, id, write, || {
                        cache.write_op(user_id(user), d, edit)
                    });
                }
                Op::Annotate {
                    user,
                    doc,
                    id: token,
                } => {
                    let edit = DocOp::SetProperty {
                        name: "rating".to_owned(),
                        value: PropertyValue::Int((token % 5) as i64),
                    };
                    let d = self.docs[doc as usize];
                    let (ns, result) = timed(traced, id, Layer::WriteOp, || {
                        cache.write_op(user_id(user), d, edit)
                    });
                    // Annotations change no content: nothing to check at
                    // the origin.
                    out.attempted += 1;
                    if result.is_ok() {
                        out.write_ns.push(ns);
                    } else {
                        out.failed += 1;
                    }
                }
                Op::Flush => {
                    out.attempted += 1;
                    out.pending.clear();
                    let (ns, result) = timed(traced, id, Layer::Flush, || cache.flush());
                    match result {
                        Ok(report) => {
                            out.flush_ns.push(ns);
                            out.flush.absorb(&report);
                        }
                        Err(_) => out.failed += 1,
                    }
                    self.archive(out);
                    out.window += 1;
                }
                Op::Edit { doc, id } => self.edit(doc, id),
                Op::ForeignAppend { doc, id: token } => {
                    let Origin::Memory(origin) = &self.origins[doc as usize] else {
                        unreachable!("foreign appends target memory origins");
                    };
                    let mut body = origin.content().to_vec();
                    body.extend_from_slice(format!(" <f{token}>").as_bytes());
                    origin.set_out_of_band(body);
                    out.op_docs.insert(doc);
                    out.acks.push(Ack {
                        doc,
                        id: token,
                        full: false,
                        window: out.window,
                    });
                }
            }
        }
    }

    /// Runs the timed drive: every client replays its op list in a closed
    /// loop, each on its own thread when there are several.
    pub fn drive(&self, traced: bool) -> Drive {
        let before = self.cache.stats();
        let ops_before = self.space.ops_count();
        let store = self.journal_store.as_ref();
        let appends_before = store.map_or(0, |s| s.append_count());
        let rewrites_before = store.map_or(0, |s| s.rewrite_count());
        let clock = self.space.clock();
        let (wall_ns, clients) = if self.drive.len() == 1 {
            if traced {
                trace::install(clock);
            }
            let mut run = ClientRun::default();
            let start = WallInstant::now();
            self.run_ops(&self.drive[0], &mut run, 0, traced);
            let wall = start.elapsed().as_nanos() as u64;
            if traced {
                run.ledger = Some(trace::take());
            }
            (wall, vec![run])
        } else {
            let barrier = Barrier::new(self.drive.len() + 1);
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .drive
                    .iter()
                    .enumerate()
                    .map(|(c, ops)| {
                        let barrier = &barrier;
                        scope.spawn(move || {
                            if traced {
                                trace::install(clock);
                            }
                            let mut run = ClientRun::default();
                            barrier.wait();
                            self.run_ops(ops, &mut run, (c as u64) << 40, traced);
                            if traced {
                                run.ledger = Some(trace::take());
                            }
                            run
                        })
                    })
                    .collect();
                barrier.wait();
                let start = WallInstant::now();
                let runs: Vec<ClientRun> = handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect();
                (start.elapsed().as_nanos() as u64, runs)
            })
        };
        let (physical, logical) = self.cache.resident_bytes();
        Drive {
            wall_ns,
            clients,
            stats: self.cache.stats().delta(&before),
            middleware_ops: self.space.ops_count() - ops_before,
            physical_bytes: physical,
            logical_bytes: logical,
            entries: self.cache.len() as u64,
            stage_entries: self.cache.stage_entry_count() as u64,
            journal_len: store.map_or(0, |s| s.len()),
            journal_appends: store.map_or(0, |s| s.append_count()) - appends_before,
            journal_rewrites: store.map_or(0, |s| s.rewrite_count()) - rewrites_before,
        }
    }

    /// Runs every correctness check against a finished drive; returns the
    /// failures. Reads the cache and advances the virtual clock, so call
    /// it only after every count of the drive has been taken.
    pub fn check(&self, drive: &Drive) -> Vec<String> {
        let mut failures = Vec::new();
        let mut fail = |ok: bool, what: String| {
            if !ok {
                failures.push(what);
            }
        };
        for (c, run) in drive.clients.iter().enumerate() {
            let reads = run.read_ns.len() as u64;
            let completed = reads + run.write_ns.len() as u64 + run.flush_ns.len() as u64;
            fail(
                run.classes.iter().sum::<u64>() == reads,
                format!("client {c}: hit classes do not sum to reads"),
            );
            fail(
                run.attempted == completed + run.failed,
                format!("client {c}: attempted != completed + failed"),
            );
            fail(
                run.flush.unbalanced == 0,
                format!(
                    "client {c}: {} flush report(s) with attempted != flushed + parked + requeued",
                    run.flush.unbalanced
                ),
            );
            fail(
                run.resident_violations == 0,
                format!("client {c}: physical resident bytes exceeded capacity"),
            );
        }
        let class = |k: HitClass| {
            drive
                .clients
                .iter()
                .map(|r| r.classes[k as usize])
                .sum::<u64>()
        };
        let dirty_reads: u64 = drive.clients.iter().map(|r| r.dirty_reads).sum();
        fail(
            class(HitClass::Hit) + class(HitClass::CoalescedWait) + class(HitClass::StaleServed)
                == drive.stats.hits + drive.stats.stale_served + dirty_reads,
            "served-from-cache classes disagree with the hit counters".to_owned(),
        );
        fail(
            class(HitClass::Miss) + class(HitClass::PartialHit) == drive.stats.misses,
            "miss classes disagree with the miss counter".to_owned(),
        );
        fail(
            drive.physical_bytes <= self.capacity,
            "physical resident bytes exceed capacity after the drive".to_owned(),
        );
        if self.journal_store.is_some() {
            failures.extend(self.check_writeback(drive));
        }
        // Sampled reads must match the middleware's own rendition. The
        // clock first runs past every TTL, so a TTL-verified entry that an
        // out-of-band edit made stale is refetched rather than served.
        self.space.clock().advance(self.ttl_micros + 1);
        for &(user, doc) in &self.checks {
            let d = self.docs[doc as usize];
            let cached = self
                .cache
                .read_with(user_id(user), d, ReadOptions::default())
                .map(|o| o.bytes);
            let direct = self.space.read_document(user_id(user), d).map(|(b, _)| b);
            match (cached, direct) {
                (Ok(a), Ok(b)) if a == b => {}
                _ => failures.push(format!(
                    "read of doc {doc} by user {user} differs from read_document"
                )),
            }
        }
        failures
    }

    /// Zero acknowledged-edit loss after the final flush: every typed-op
    /// token is at its origin, and each full-body document holds a body
    /// written in the last flush window that wrote it.
    fn check_writeback(&self, drive: &Drive) -> Vec<String> {
        let mut failures = Vec::new();
        if self.cache.dirty_count() != 0 {
            failures.push(format!(
                "{} entries still dirty after the final flush",
                self.cache.dirty_count()
            ));
        }
        if self.cache.journal().map_or(0, |j| j.len()) != 0 {
            failures.push("journal still holds records after the final flush".to_owned());
        }
        let mut by_doc: HashMap<u32, Vec<Ack>> = HashMap::new();
        for run in &drive.clients {
            for ack in &run.acks {
                by_doc.entry(ack.doc).or_default().push(*ack);
            }
        }
        let snapshots: HashMap<(u32, u32), HashSet<u32>> = drive
            .clients
            .iter()
            .flat_map(|run| &run.snapshots)
            .map(|(window, doc, content)| ((*window, *doc), parse_tokens(content)))
            .collect();
        let (mut lost, mut stale_bodies) = (0u64, 0u64);
        for (&doc, acks) in &by_doc {
            if acks[0].full {
                let content = self.origin_content(doc);
                let last = acks.iter().map(|a| a.window).max().unwrap_or(0);
                let leading = leading_write_token(&content);
                if !acks
                    .iter()
                    .any(|a| a.window == last && Some(a.id) == leading)
                {
                    stale_bodies += 1;
                }
            } else {
                lost += acks
                    .iter()
                    .filter(|a| {
                        snapshots
                            .get(&(a.window, doc))
                            .is_none_or(|tokens| !tokens.contains(&a.id))
                    })
                    .count() as u64;
            }
        }
        if stale_bodies > 0 {
            failures.push(format!(
                "{stale_bodies} full-body documents do not hold a body from their last write window"
            ));
        }
        if lost > 0 {
            failures.push(format!(
                "{lost} acknowledged typed edits missing at their origin"
            ));
        }
        failures
    }
}

/// Runs `f` as one timed op (and, when traced, one op span).
fn timed<R>(traced: bool, id: u64, layer: Layer, f: impl FnOnce() -> R) -> (u64, R) {
    if traced {
        trace::begin_op(id, layer);
    }
    let start = WallInstant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    if traced {
        trace::end_op();
    }
    (ns, out)
}

/// Ids of the `<a..>` / `<i..>` / `<f..>` tokens in `content`.
fn parse_tokens(content: &[u8]) -> HashSet<u32> {
    let mut out = HashSet::new();
    let mut i = 0;
    while i + 2 < content.len() {
        if content[i] == b'<' && matches!(content[i + 1], b'a' | b'i' | b'f') {
            let digits = content[i + 2..]
                .iter()
                .take_while(|b| b.is_ascii_digit())
                .count();
            if digits > 0 && content.get(i + 2 + digits) == Some(&b'>') {
                let text = std::str::from_utf8(&content[i + 2..i + 2 + digits]).expect("ascii");
                if let Ok(id) = text.parse() {
                    out.insert(id);
                }
            }
        }
        i += 1;
    }
    out
}

/// Id of the `<w..>` token a full body starts with.
fn leading_write_token(content: &[u8]) -> Option<u32> {
    let rest = content.strip_prefix(b"<w")?;
    let end = rest.iter().position(|&b| b == b'>')?;
    std::str::from_utf8(&rest[..end]).ok()?.parse().ok()
}

/// One content write about to be issued.
struct ContentWrite {
    user: u32,
    doc: u32,
    token: u32,
    full: bool,
    bytes: usize,
}

/// One acknowledged content edit of the drive.
#[derive(Debug, Clone, Copy)]
pub struct Ack {
    doc: u32,
    id: u32,
    full: bool,
    window: u32,
}

/// What the flushes of one client reported, summed.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlushTotals {
    /// Entries the flushes attempted.
    pub attempted: u64,
    /// Entries written to their origin.
    pub flushed: u64,
    /// Entries parked in the journal.
    pub parked: u64,
    /// Entries re-queued dirty.
    pub requeued: u64,
    /// Per-origin groups formed.
    pub batches: u64,
    /// Typed ops rebased by the merge policy.
    pub rebases: u64,
    /// Reports whose accounting did not balance.
    pub unbalanced: u64,
}

impl FlushTotals {
    fn absorb(&mut self, report: &FlushReport) {
        let parked = report.parked.len() as u64;
        let requeued = report.requeued.len() as u64;
        if report.attempted != report.flushed + parked + requeued || !report.dropped.is_empty() {
            self.unbalanced += 1;
        }
        self.attempted += report.attempted;
        self.flushed += report.flushed;
        self.parked += parked;
        self.requeued += requeued;
        self.batches += report.batches;
        self.rebases += report.merge.rebases;
    }
}

/// What one closed-loop client observed.
#[derive(Debug, Default)]
pub struct ClientRun {
    /// Wall ns of each completed read.
    pub read_ns: Vec<u64>,
    /// Wall ns of completed reads, per `HitClass`.
    pub class_ns: [Vec<u64>; 5],
    /// Wall ns of each completed `write` / `write_op`.
    pub write_ns: Vec<u64>,
    /// Wall ns of each completed `flush`.
    pub flush_ns: Vec<u64>,
    /// `ReadOutcome::latency_micros` of each completed read.
    pub vread: Vec<u64>,
    /// Completed reads per `HitClass`.
    pub classes: [u64; 5],
    /// Ops issued.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// Flush reports, summed.
    pub flush: FlushTotals,
    /// Samples of resident bytes above capacity.
    pub resident_violations: u64,
    /// Reads of a pair with a buffered write (served as `Hit` from dirty
    /// data, outside the hit counter).
    pub dirty_reads: u64,
    /// The traced drive's ledger.
    pub ledger: Option<Ledger>,
    /// Journal bytes appended by the writes (traced write-back drives).
    pub journal_bytes: u64,
    /// Bytes the writes carried (traced write-back drives).
    pub user_bytes: u64,
    acks: Vec<Ack>,
    window: u32,
    /// Pairs with a write buffered since the last flush.
    pending: HashSet<(u32, u32)>,
    /// Typed-op documents written since the last flush.
    op_docs: HashSet<u32>,
    /// `(window, doc, origin content)` right after each flush, for the
    /// typed-op documents the window wrote.
    snapshots: Vec<(u32, u32, Bytes)>,
}

/// One timed drive: per-client observations plus the counts the program
/// keeps, read once at the end.
#[derive(Debug)]
pub struct Drive {
    /// Wall ns of the whole drive.
    pub wall_ns: u64,
    /// Per-client observations.
    pub clients: Vec<ClientRun>,
    /// `CacheStats` delta across the drive.
    pub stats: CacheStats,
    /// `DocumentSpace::ops_count` delta across the drive.
    pub middleware_ops: u64,
    /// Physical resident bytes at the end.
    pub physical_bytes: u64,
    /// Logical resident bytes at the end.
    pub logical_bytes: u64,
    /// Resident entries at the end.
    pub entries: u64,
    /// Resident stage entries at the end.
    pub stage_entries: u64,
    /// Journal medium length at the end (bytes).
    pub journal_len: u64,
    /// Journal medium appends during the drive.
    pub journal_appends: u64,
    /// Journal medium rewrites during the drive.
    pub journal_rewrites: u64,
}

/// The counts a drive must reproduce exactly: the same seed gives the
/// same counts, traced or not (single-client workloads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    /// Completed reads per `HitClass`.
    pub classes: [u64; 5],
    /// Middleware operations.
    pub middleware_ops: u64,
    /// Evictions.
    pub evictions: u64,
    /// Journal appends.
    pub journal_appends: u64,
    /// Sum of `latency_micros` over completed reads.
    pub vread_sum: u64,
    /// 99th percentile of `latency_micros`.
    pub vread_p99: u64,
    /// Entries flushed.
    pub flushed: u64,
    /// Stage hits.
    pub stage_hits: u64,
}

impl Drive {
    /// The counts the program keeps, read once at the end of the drive,
    /// as one JSON object.
    pub fn program_counts_json(&self) -> String {
        format!(
            "{{\"stats_delta\": {}, \"middleware_ops\": {}, \"physical_bytes\": {}, \
             \"logical_bytes\": {}, \"entries\": {}, \"stage_entries\": {}, \
             \"journal_len\": {}, \"journal_appends\": {}, \"journal_rewrites\": {}}}",
            crate::report::json_str(&format!("{:?}", self.stats)),
            self.middleware_ops,
            self.physical_bytes,
            self.logical_bytes,
            self.entries,
            self.stage_entries,
            self.journal_len,
            self.journal_appends,
            self.journal_rewrites
        )
    }

    /// The drive's reproducible counts.
    pub fn counts(&self) -> Counts {
        let mut vread: Vec<u64> = self
            .clients
            .iter()
            .flat_map(|c| c.vread.iter().copied())
            .collect();
        vread.sort_unstable();
        let mut classes = [0; 5];
        for run in &self.clients {
            for (k, n) in run.classes.iter().enumerate() {
                classes[k] += n;
            }
        }
        Counts {
            classes,
            middleware_ops: self.middleware_ops,
            evictions: self.stats.evictions,
            journal_appends: self.stats.journal_appends,
            vread_sum: vread.iter().sum(),
            vread_p99: crate::report::percentile(&vread, 0.99),
            flushed: self.clients.iter().map(|c| c.flush.flushed).sum(),
            stage_hits: self.stats.stage_hits,
        }
    }
}
