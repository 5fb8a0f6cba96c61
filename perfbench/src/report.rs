//! Metrics: the end-to-end metrics of an untraced run and the per-layer
//! metrics of a traced one, with their units, and the JSON they print as.

use crate::trace::{Layer, Ledger};
use crate::workload::Drive;
use placeless_cache::HitClass;
use std::fmt::Write as _;

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind the value, when it summarises a distribution.
    pub samples: Option<usize>,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples: None,
    }
}

fn sampled(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples: Some(samples),
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nearest-rank percentile `p` (0..=1) of `sorted`, or 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample, or 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Per-kind op counts and samples of a drive, merged over its clients.
struct Totals {
    reads: Vec<u64>,
    writes: Vec<u64>,
    flushes: Vec<u64>,
    vread: Vec<u64>,
    class_ns: Vec<Vec<u64>>,
    classes: [u64; 5],
    flushed: u64,
    flush_attempted: u64,
    parked: u64,
    batches: u64,
    rebases: u64,
    journal_bytes: u64,
    user_bytes: u64,
}

impl Totals {
    fn of(drive: &Drive) -> Self {
        let mut t = Totals {
            reads: Vec::new(),
            writes: Vec::new(),
            flushes: Vec::new(),
            vread: Vec::new(),
            class_ns: vec![Vec::new(); 5],
            classes: [0; 5],
            flushed: 0,
            flush_attempted: 0,
            parked: 0,
            batches: 0,
            rebases: 0,
            journal_bytes: 0,
            user_bytes: 0,
        };
        for run in &drive.clients {
            t.reads.extend_from_slice(&run.read_ns);
            t.writes.extend_from_slice(&run.write_ns);
            t.flushes.extend_from_slice(&run.flush_ns);
            t.vread.extend_from_slice(&run.vread);
            for (k, ns) in run.class_ns.iter().enumerate() {
                t.class_ns[k].extend_from_slice(ns);
                t.classes[k] += run.classes[k];
            }
            t.flushed += run.flush.flushed;
            t.flush_attempted += run.flush.attempted;
            t.parked += run.flush.parked;
            t.batches += run.flush.batches;
            t.rebases += run.flush.rebases;
            t.journal_bytes += run.journal_bytes;
            t.user_bytes += run.user_bytes;
        }
        t.reads = sorted(t.reads);
        t.writes = sorted(t.writes);
        t.flushes = sorted(t.flushes);
        t.vread = sorted(t.vread);
        t.class_ns = t.class_ns.into_iter().map(sorted).collect();
        t
    }

    fn completed(&self) -> u64 {
        (self.reads.len() + self.writes.len() + self.flushes.len()) as u64
    }
}

/// Completed ops per wall second of the whole drive.
pub fn ops_per_s(drive: &Drive) -> f64 {
    let t = Totals::of(drive);
    ratio(t.completed() as f64, drive.wall_ns as f64 / 1e9)
}

/// Peak resident memory of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The end-to-end metrics of an untraced run: the set-up time and what
/// the modelled system shows its users, which repeats for a seed.
pub fn end_to_end(setup_s: f64, drive: &Drive) -> Vec<Metric> {
    let t = Totals::of(drive);
    let attempted: u64 = drive.clients.iter().map(|c| c.attempted).sum();
    let vread_sum: u64 = t.vread.iter().sum();
    vec![
        metric("setup_s", "s", setup_s),
        sampled(
            "vread_mean_us",
            "vus",
            ratio(vread_sum as f64, t.vread.len() as f64),
            t.vread.len(),
        ),
        sampled(
            "vread_p99_us",
            "vus",
            percentile(&t.vread, 0.99) as f64,
            t.vread.len(),
        ),
        metric(
            "middleware_ops_per_op",
            "ops",
            ratio(drive.middleware_ops as f64, t.completed() as f64),
        ),
        metric(
            "ok_frac",
            "fraction",
            ratio(t.completed() as f64, attempted as f64),
        ),
        metric("peak_rss_mb", "MiB", peak_rss_mb()),
    ]
}

/// Wall-clock rate and latencies of the calls into the cache's public
/// API over the whole drive: what the cache layer costs its caller.
pub fn wall(drive: &Drive) -> Vec<Metric> {
    let t = Totals::of(drive);
    let us = |sorted: &[u64], p: f64| percentile(sorted, p) as f64 / 1_000.0;
    vec![
        sampled(
            "cache.ops_per_s",
            "ops/s",
            ops_per_s(drive),
            t.completed() as usize,
        ),
        sampled("cache.read.p50_us", "us", us(&t.reads, 0.50), t.reads.len()),
        sampled("cache.read.p99_us", "us", us(&t.reads, 0.99), t.reads.len()),
        sampled(
            "cache.write.p50_us",
            "us",
            us(&t.writes, 0.50),
            t.writes.len(),
        ),
        sampled(
            "cache.write.p99_us",
            "us",
            us(&t.writes, 0.99),
            t.writes.len(),
        ),
    ]
}

/// The per-layer metrics: counts and per-class latencies from the
/// untraced drive `plain`, layer times from the traced drive `traced`.
pub fn per_layer(plain: &Drive, traced: &Drive) -> Vec<Metric> {
    let mut ledger = Ledger::default();
    for run in &traced.clients {
        if let Some(l) = &run.ledger {
            ledger.absorb(l.clone());
        }
    }
    let t = Totals::of(plain);
    let traced_totals = Totals::of(traced);
    let s = &plain.stats;
    let reads = t.reads.len() as f64;
    let ops = t.completed() as f64;
    let class = |k: HitClass| t.classes[k as usize] as f64;
    let class_us = |k: HitClass| percentile(&t.class_ns[k as usize], 0.5) as f64 / 1_000.0;
    let layer = |l: Layer| ledger.layer(l);
    let median_us = |l: Layer| {
        let v = sorted(layer(l).samples.clone());
        percentile(&v, 0.5) as f64 / 1_000.0
    };
    let self_us = |l: Layer| layer(l).self_ns as f64 / 1_000.0;
    let self_vus = |l: Layer| layer(l).self_vus as f64;
    let calls = |l: Layer| layer(l).calls as f64;
    let traced_reads = traced_totals.reads.len() as f64;
    let traced_ops = traced_totals.completed() as f64;
    // Content reaching origins: flushed entries when the drive flushes
    // (write-back), else one commit per completed write (write-through).
    let written = if traced_totals.flushes.is_empty() {
        traced_totals.writes.len() as f64
    } else {
        traced_totals.flushed as f64
    };
    let writes_ns: Vec<u64> = sorted(
        [
            layer(Layer::Write).samples.clone(),
            layer(Layer::WriteOp).samples.clone(),
        ]
        .concat(),
    );
    let flush_calls = t.flushes.len() as f64;
    let flush_total_ns: u64 = t.flushes.iter().sum();
    let overhead = 1.0 - ratio(ops_per_s(traced), ops_per_s(plain));
    let mut metrics = wall(plain);
    metrics.extend([
        metric(
            "cache.read.hit_frac",
            "fraction",
            ratio(class(HitClass::Hit), reads),
        ),
        metric(
            "cache.read.partial_frac",
            "fraction",
            ratio(class(HitClass::PartialHit), reads),
        ),
        metric(
            "cache.read.miss_frac",
            "fraction",
            ratio(class(HitClass::Miss), reads),
        ),
        metric(
            "cache.read.coalesced_frac",
            "fraction",
            ratio(class(HitClass::CoalescedWait), reads),
        ),
        metric("cache.read.hit_us", "us", class_us(HitClass::Hit)),
        metric(
            "cache.read.partial_us",
            "us",
            class_us(HitClass::PartialHit),
        ),
        metric("cache.read.miss_us", "us", class_us(HitClass::Miss)),
        metric("cache.self_us", "us", median_us(Layer::Read)),
        metric(
            "cache.self_vus",
            "vus",
            ratio(self_vus(Layer::Read), traced_reads),
        ),
        metric(
            "cache.write.self_us",
            "us",
            percentile(&writes_ns, 0.5) as f64 / 1_000.0,
        ),
        metric(
            "cache.stage.hits_per_read",
            "count",
            ratio(s.stage_hits as f64, reads),
        ),
        metric(
            "cache.stage.root_reuse_frac",
            "fraction",
            ratio(s.root_reuses as f64, s.misses as f64),
        ),
        metric(
            "cache.store.resident_mb",
            "MiB",
            plain.physical_bytes as f64 / (1u64 << 20) as f64,
        ),
        metric(
            "cache.store.sharing_ratio",
            "ratio",
            ratio(plain.logical_bytes as f64, plain.physical_bytes as f64),
        ),
        metric(
            "cache.policy.calls_per_op",
            "count",
            ratio(calls(Layer::Policy), traced_ops),
        ),
        metric(
            "cache.policy.us_per_op",
            "us",
            ratio(self_us(Layer::Policy), traced_ops),
        ),
        metric(
            "cache.evictions_per_op",
            "count",
            ratio(s.evictions as f64, ops),
        ),
        metric(
            "core.verifier.checks_per_hit",
            "count",
            ratio(calls(Layer::Verify), traced.stats.hits as f64),
        ),
        metric("core.verifier.check_us", "us", median_us(Layer::Verify)),
        metric(
            "core.verifier.check_vus",
            "vus",
            ratio(self_vus(Layer::Verify), calls(Layer::Verify)),
        ),
        metric(
            "core.verifier.invalid_frac",
            "fraction",
            ratio(ledger.invalid_checks as f64, calls(Layer::Verify)),
        ),
        metric(
            "properties.stages_per_read",
            "count",
            ratio(calls(Layer::Wrap), traced_reads),
        ),
        metric(
            "properties.transform_us_per_read",
            "us",
            ratio(
                self_us(Layer::Wrap) + self_us(Layer::Transform),
                traced_reads,
            ),
        ),
        metric(
            "properties.transform_vus_per_read",
            "vus",
            ratio(
                self_vus(Layer::Wrap) + self_vus(Layer::Transform),
                traced_reads,
            ),
        ),
        metric(
            "properties.bytes_per_read",
            "B",
            ratio(layer(Layer::Transform).bytes as f64, traced_reads),
        ),
        metric(
            "repository.fetches_per_read",
            "count",
            ratio(calls(Layer::Fetch), traced_reads),
        ),
        metric(
            "repository.fetch_us",
            "us",
            ratio(
                self_us(Layer::Fetch) + self_us(Layer::SourceRead),
                calls(Layer::Fetch),
            ),
        ),
        metric(
            "repository.fetch_vus_per_read",
            "vus",
            ratio(
                self_vus(Layer::Fetch) + self_vus(Layer::SourceRead),
                traced_reads,
            ),
        ),
        metric(
            "repository.commits_per_entry",
            "count",
            ratio(calls(Layer::Commit), written),
        ),
        metric(
            "repository.commit_us_per_entry",
            "us",
            ratio(self_us(Layer::Commit), written),
        ),
        metric(
            "repository.commit_vus_per_entry",
            "vus",
            ratio(self_vus(Layer::Commit), written),
        ),
        metric(
            "cache.singleflight.coalesced_per_miss",
            "count",
            ratio(s.coalesced_waits as f64, s.misses as f64),
        ),
        metric(
            "cache.singleflight.wait_us",
            "us",
            class_us(HitClass::CoalescedWait),
        ),
        metric(
            "cache.singleflight.inflight_peak",
            "count",
            s.inflight_peak as f64,
        ),
        metric(
            "cache.journal.appends_per_write",
            "count",
            ratio(s.journal_appends as f64, t.writes.len() as f64),
        ),
        metric(
            "cache.journal.bytes_per_user_byte",
            "ratio",
            ratio(
                traced_totals.journal_bytes as f64,
                traced_totals.user_bytes as f64,
            ),
        ),
        metric(
            "cache.journal.rewrites_per_flush",
            "count",
            ratio(plain.journal_rewrites as f64, flush_calls),
        ),
        metric(
            "cache.flush.entries_per_batch",
            "count",
            ratio(t.flushed as f64, t.batches as f64),
        ),
        metric(
            "cache.flush.parked_frac",
            "fraction",
            ratio(t.parked as f64, t.flush_attempted as f64),
        ),
        metric(
            "cache.flush.us_per_flush",
            "us",
            percentile(&t.flushes, 0.5) as f64 / 1_000.0,
        ),
        metric(
            "cache.flush.us_per_entry",
            "us",
            ratio(flush_total_ns as f64 / 1_000.0, t.flushed as f64),
        ),
        metric(
            "cache.merge.rebases_per_flush",
            "count",
            ratio(t.rebases as f64, flush_calls),
        ),
        metric(
            "trace.spans_per_op",
            "count",
            ratio(ledger.spans as f64, traced_ops),
        ),
        metric("trace.overhead_frac", "fraction", overhead),
    ]);
    metrics
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The `metrics` object of the result line.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}
