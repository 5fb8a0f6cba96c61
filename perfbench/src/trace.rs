//! Span recorder and the timing decorators of the traced run.
//!
//! The traced run wraps the program's public seams — `BitProvider`, the
//! `Verifier`s it hands out, `ActiveProperty` and the `InputStream` its
//! `wrap_input` returns, and `ReplacementPolicy` — in decorators that
//! forward every call unchanged and record a span around it. The drive
//! loop opens one op span around each `read_with` / `write` / `write_op`
//! / `flush` call; spans opened outside an op (set-up, warm-up, checks)
//! are ignored.
//!
//! Each thread records into its own recorder, so tracing adds no shared
//! state to the hot path. When an op ends its spans are folded into the
//! thread's [`Ledger`]: a span's self time is its duration minus its
//! children's, on the wall clock (ns) and on the virtual clock (µs). The
//! spans of the first [`KEEP_OPS`] ops are also kept and written out when
//! the run ends.

use bytes::Bytes;
use placeless_cache::{EntryAttrs, EntryKey, ReplacementPolicy};
use placeless_core::prelude::*;
use placeless_simenv::VirtualClock;
use std::cell::RefCell;
use std::sync::{Arc, OnceLock};
use std::time::Instant as WallInstant;

/// Ops whose raw spans are kept for the span dump.
pub const KEEP_OPS: u64 = 2_000;

/// A traced layer. The first four are the benchmark's own op spans; the
/// rest are the public seams the decorators wrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `DocumentCache::read_with`.
    Read,
    /// `DocumentCache::write`.
    Write,
    /// `DocumentCache::write_op`.
    WriteOp,
    /// `DocumentCache::flush`.
    Flush,
    /// `BitProvider::open_input` (repository).
    Fetch,
    /// Reads of a provider's input stream (repository).
    SourceRead,
    /// `BitProvider::commit_batch` or an output stream's `close` (repository).
    Commit,
    /// `Verifier::check` (core.verifier).
    Verify,
    /// `ActiveProperty::wrap_input` (properties / proplang).
    Wrap,
    /// Reads of a property's input stream (properties / proplang).
    Transform,
    /// Any `ReplacementPolicy` call (cache.policy).
    Policy,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 11;

impl Layer {
    /// Stable label for the span dump.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Read => "op.read",
            Layer::Write => "op.write",
            Layer::WriteOp => "op.write_op",
            Layer::Flush => "op.flush",
            Layer::Fetch => "repository.fetch",
            Layer::SourceRead => "repository.read",
            Layer::Commit => "repository.commit",
            Layer::Verify => "core.verifier.check",
            Layer::Wrap => "properties.wrap_input",
            Layer::Transform => "properties.transform",
            Layer::Policy => "cache.policy",
        }
    }
}

/// One recorded span. Times are ns since the recorder's epoch (wall) and
/// virtual µs; `parent` indexes the op's span list (`NO_PARENT` for the op
/// span itself).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The op the span belongs to.
    pub op: u64,
    /// The layer.
    pub layer: Layer,
    /// Index of the parent span within the op, or [`NO_PARENT`].
    pub parent: u32,
    /// Wall start, ns.
    pub start_ns: u64,
    /// Wall end, ns.
    pub end_ns: u64,
    /// Virtual start, µs.
    pub vstart: u64,
    /// Virtual end, µs.
    pub vend: u64,
    /// Bytes the span moved (stream reads, commits), or entries committed.
    pub bytes: u64,
}

/// Parent marker of an op span.
pub const NO_PARENT: u32 = u32::MAX;

/// Per-layer totals folded from completed ops.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Sum of self wall time, ns.
    pub self_ns: u64,
    /// Sum of self virtual time, µs.
    pub self_vus: u64,
    /// Sum of the spans' `bytes`.
    pub bytes: u64,
    /// Self wall time of each span, ns (kept for the layers with a median).
    pub samples: Vec<u64>,
}

/// Everything one thread's traced drive recorded.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Totals per layer, indexed by `Layer as usize`.
    pub layers: Vec<LayerTotals>,
    /// Verifier checks that answered `Invalid`.
    pub invalid_checks: u64,
    /// Raw spans of the first [`KEEP_OPS`] ops.
    pub kept: Vec<Span>,
    /// Spans recorded in total.
    pub spans: u64,
}

impl Default for Ledger {
    fn default() -> Self {
        Self {
            layers: vec![LayerTotals::default(); LAYERS],
            invalid_checks: 0,
            kept: Vec::new(),
            spans: 0,
        }
    }
}

impl Ledger {
    /// Totals of one layer.
    pub fn layer(&self, layer: Layer) -> &LayerTotals {
        &self.layers[layer as usize]
    }

    /// Folds another thread's ledger into this one.
    pub fn absorb(&mut self, other: Ledger) {
        for (mine, theirs) in self.layers.iter_mut().zip(other.layers) {
            mine.calls += theirs.calls;
            mine.self_ns += theirs.self_ns;
            mine.self_vus += theirs.self_vus;
            mine.bytes += theirs.bytes;
            mine.samples.extend(theirs.samples);
        }
        self.invalid_checks += other.invalid_checks;
        self.kept.extend(other.kept);
        self.spans += other.spans;
    }
}

/// Layers whose per-span self times are kept for medians.
fn keeps_samples(layer: Layer) -> bool {
    matches!(
        layer,
        Layer::Read | Layer::Write | Layer::WriteOp | Layer::Verify
    )
}

struct Recorder {
    clock: VirtualClock,
    op: Option<u64>,
    stack: Vec<u32>,
    spans: Vec<Span>,
    ledger: Ledger,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

fn epoch() -> WallInstant {
    static EPOCH: OnceLock<WallInstant> = OnceLock::new();
    *EPOCH.get_or_init(WallInstant::now)
}

fn wall_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Starts recording on this thread, reading virtual time from `clock`.
pub fn install(clock: &VirtualClock) {
    epoch();
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            clock: clock.clone(),
            op: None,
            stack: Vec::new(),
            spans: Vec::new(),
            ledger: Ledger::default(),
        })
    });
}

/// Stops recording on this thread and returns what it recorded.
pub fn take() -> Ledger {
    RECORDER
        .with(|r| r.borrow_mut().take())
        .map(|rec| rec.ledger)
        .unwrap_or_default()
}

/// Opens the op span of op `id`.
pub fn begin_op(id: u64, layer: Layer) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.op = Some(id);
            rec.spans.clear();
            rec.stack.clear();
            let vnow = rec.clock.now().as_micros();
            rec.spans.push(Span {
                op: id,
                layer,
                parent: NO_PARENT,
                start_ns: wall_ns(),
                end_ns: 0,
                vstart: vnow,
                vend: 0,
                bytes: 0,
            });
            rec.stack.push(0);
        }
    });
}

/// Closes the current op span and folds the op's spans into the ledger.
pub fn end_op() {
    let end = wall_ns();
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let Some(rec) = guard.as_mut() else { return };
        let Some(id) = rec.op.take() else { return };
        rec.spans[0].end_ns = end;
        rec.spans[0].vend = rec.clock.now().as_micros();
        let n = rec.spans.len();
        let mut child_ns = vec![0u64; n];
        let mut child_vus = vec![0u64; n];
        for span in &rec.spans[1..] {
            let p = span.parent as usize;
            child_ns[p] += span.end_ns.saturating_sub(span.start_ns);
            child_vus[p] += span.vend.saturating_sub(span.vstart);
        }
        for (i, span) in rec.spans.iter().enumerate() {
            let self_ns = span
                .end_ns
                .saturating_sub(span.start_ns)
                .saturating_sub(child_ns[i]);
            let self_vus = span
                .vend
                .saturating_sub(span.vstart)
                .saturating_sub(child_vus[i]);
            let totals = &mut rec.ledger.layers[span.layer as usize];
            totals.calls += 1;
            totals.self_ns += self_ns;
            totals.self_vus += self_vus;
            totals.bytes += span.bytes;
            if keeps_samples(span.layer) {
                totals.samples.push(self_ns);
            }
        }
        rec.ledger.spans += n as u64;
        if id < KEEP_OPS {
            rec.ledger.kept.extend_from_slice(&rec.spans);
        }
        rec.stack.clear();
    });
}

/// Opens a child span of the innermost open span; `None` outside an op.
fn enter(layer: Layer) -> Option<u32> {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut()?;
        let op = rec.op?;
        let parent = *rec.stack.last()?;
        let index = rec.spans.len() as u32;
        let vnow = rec.clock.now().as_micros();
        rec.spans.push(Span {
            op,
            layer,
            parent,
            start_ns: wall_ns(),
            end_ns: 0,
            vstart: vnow,
            vend: 0,
            bytes: 0,
        });
        rec.stack.push(index);
        Some(index)
    })
}

fn exit(index: Option<u32>, bytes: u64) {
    let Some(index) = index else { return };
    let end = wall_ns();
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let vnow = rec.clock.now().as_micros();
            let span = &mut rec.spans[index as usize];
            span.end_ns = end;
            span.vend = vnow;
            span.bytes = bytes;
            rec.stack.pop();
        }
    });
}

/// Runs `f` inside a span of `layer`; `bytes` derives the span's byte
/// count from the result.
fn span<R>(layer: Layer, f: impl FnOnce() -> R, bytes: impl FnOnce(&R) -> u64) -> R {
    let index = enter(layer);
    let out = f();
    exit(index, bytes(&out));
    out
}

fn note_invalid() {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            if rec.op.is_some() {
                rec.ledger.invalid_checks += 1;
            }
        }
    });
}

/// A `BitProvider` that records the repository layer.
pub struct TracedProvider(pub Arc<dyn BitProvider>);

impl BitProvider for TracedProvider {
    fn describe(&self) -> String {
        self.0.describe()
    }

    fn origin_key(&self) -> String {
        self.0.origin_key()
    }

    fn open_input(&self, clock: &VirtualClock) -> Result<Box<dyn InputStream>> {
        let stream = span(Layer::Fetch, || self.0.open_input(clock), |_| 0)?;
        Ok(Box::new(TracedInput {
            inner: stream,
            layer: Layer::SourceRead,
        }))
    }

    fn open_output(&self, clock: &VirtualClock) -> Result<Box<dyn OutputStream>> {
        let inner = self.0.open_output(clock)?;
        Ok(Box::new(TracedOutput { inner, bytes: 0 }))
    }

    fn commit_batch(&self, clock: &VirtualClock, payloads: &[Bytes]) -> Option<Vec<Result<()>>> {
        let index = enter(Layer::Commit);
        let out = self.0.commit_batch(clock, payloads);
        exit(index, payloads.iter().map(|p| p.len() as u64).sum());
        out
    }

    fn make_verifier(&self, clock: &VirtualClock) -> Option<Box<dyn Verifier>> {
        self.0
            .make_verifier(clock)
            .map(|inner| Box::new(TracedVerifier(inner)) as Box<dyn Verifier>)
    }

    fn fetch_cost_micros(&self) -> u64 {
        self.0.fetch_cost_micros()
    }

    fn content_len_hint(&self) -> Option<u64> {
        self.0.content_len_hint()
    }

    fn writable(&self) -> bool {
        self.0.writable()
    }

    fn cacheability_vote(&self) -> Cacheability {
        self.0.cacheability_vote()
    }
}

/// An `InputStream` whose reads are spans of `layer`.
struct TracedInput {
    inner: Box<dyn InputStream>,
    layer: Layer,
}

impl InputStream for TracedInput {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        let inner = &mut self.inner;
        span(
            self.layer,
            || inner.read(buf),
            |n| *n.as_ref().unwrap_or(&0) as u64,
        )
    }

    fn size_hint(&self) -> Option<u64> {
        self.inner.size_hint()
    }

    fn read_chunk(&mut self) -> Result<Option<Bytes>> {
        let inner = &mut self.inner;
        span(
            self.layer,
            || inner.read_chunk(),
            |chunk| match chunk {
                Ok(Some(c)) => c.len() as u64,
                _ => 0,
            },
        )
    }
}

/// An `OutputStream` whose `close` (the commit) is a repository span.
struct TracedOutput {
    inner: Box<dyn OutputStream>,
    bytes: u64,
}

impl OutputStream for TracedOutput {
    fn write(&mut self, buf: &[u8]) -> Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn close(&mut self) -> Result<()> {
        let inner = &mut self.inner;
        let bytes = self.bytes;
        span(Layer::Commit, || inner.close(), |_| bytes)
    }

    fn write_bytes(&mut self, chunk: Bytes) -> Result<()> {
        self.bytes += chunk.len() as u64;
        self.inner.write_bytes(chunk)
    }
}

/// A `Verifier` whose checks are core.verifier spans.
struct TracedVerifier(Box<dyn Verifier>);

impl Verifier for TracedVerifier {
    fn check(&self, clock: &VirtualClock) -> Validity {
        let verdict = span(Layer::Verify, || self.0.check(clock), |_| 0);
        if verdict == Validity::Invalid {
            note_invalid();
        }
        verdict
    }

    fn cost_micros(&self) -> u64 {
        self.0.cost_micros()
    }

    fn describe(&self) -> String {
        self.0.describe()
    }
}

/// An `ActiveProperty` that records the properties layer: its
/// `wrap_input` call and every read of the stream it returns. Every other
/// hook is forwarded unchanged, so signatures and virtual costs match the
/// undecorated property.
pub struct TracedProperty(pub Arc<dyn ActiveProperty>);

impl ActiveProperty for TracedProperty {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn interests(&self) -> Interests {
        self.0.interests()
    }

    fn execution_cost_micros(&self) -> u64 {
        self.0.execution_cost_micros()
    }

    fn wrap_input(
        &self,
        ctx: &PathCtx<'_>,
        report: &mut PathReport,
        inner: Box<dyn InputStream>,
    ) -> Result<Box<dyn InputStream>> {
        let stream = span(Layer::Wrap, || self.0.wrap_input(ctx, report, inner), |_| 0)?;
        Ok(Box::new(TracedInput {
            inner: stream,
            layer: Layer::Transform,
        }))
    }

    fn wrap_output(
        &self,
        ctx: &PathCtx<'_>,
        report: &mut PathReport,
        inner: Box<dyn OutputStream>,
    ) -> Result<Box<dyn OutputStream>> {
        self.0.wrap_output(ctx, report, inner)
    }

    fn on_event(&self, ctx: &EventCtx<'_>, event: &DocumentEvent) -> Result<()> {
        self.0.on_event(ctx, event)
    }

    fn write_cacheability(&self) -> Cacheability {
        self.0.write_cacheability()
    }

    fn transform_token(&self, ctx: &PathCtx<'_>) -> Option<Vec<u8>> {
        self.0.transform_token(ctx)
    }
}

/// A `ReplacementPolicy` whose every call is a cache.policy span.
pub struct TracedPolicy(pub Box<dyn ReplacementPolicy>);

impl ReplacementPolicy for TracedPolicy {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn on_insert(&mut self, key: EntryKey, attrs: &EntryAttrs) {
        let inner = &mut self.0;
        span(Layer::Policy, || inner.on_insert(key, attrs), |_| 0)
    }

    fn on_hit(&mut self, key: EntryKey) {
        let inner = &mut self.0;
        span(Layer::Policy, || inner.on_hit(key), |_| 0)
    }

    fn on_remove(&mut self, key: EntryKey) {
        let inner = &mut self.0;
        span(Layer::Policy, || inner.on_remove(key), |_| 0)
    }

    fn evict(&mut self) -> Option<EntryKey> {
        let inner = &mut self.0;
        span(Layer::Policy, || inner.evict(), |_| 0)
    }

    fn len(&self) -> usize {
        let inner = &self.0;
        span(Layer::Policy, || inner.len(), |_| 0)
    }
}
