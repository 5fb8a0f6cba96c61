//! Overload control: deadline-aware admission, adaptive concurrency, and
//! graceful brownout.
//!
//! Under a traffic burst the failure mode of a naive cache is *congestive
//! collapse*: every reader queues on the per-origin
//! `InflightWindow` forever, misses
//! its deadline anyway, and still consumes a thread, a queue slot, and —
//! eventually — origin capacity. This module turns that cliff into a
//! ladder of controlled degradation:
//!
//! 1. **Deadline-aware admission** — before a reader is allowed to queue
//!    for an origin slot, the expected completion time (queue depth ÷
//!    concurrency × observed service time) is compared against the
//!    reader's remaining deadline budget. Doomed work is shed immediately
//!    with the non-transient
//!    [`PlacelessError::Overloaded`](placeless_core::error::PlacelessError::Overloaded)
//!    instead of being served late.
//! 2. **AIMD concurrency limits** — each origin's in-flight window width
//!    adapts to observed fetch latency: additive increase while fetches
//!    meet the latency target, multiplicative decrease when they exceed
//!    it. A slow origin sheds load instead of accumulating queues.
//! 3. **Priority classes** — [`Priority::Foreground`] >
//!    [`Priority::Refresh`] > [`Priority::Prefetch`]; pressure sheds the
//!    lowest class first, so speculative sibling prefetches are the first
//!    casualties and interactive reads the last.
//! 4. **Brownout ladder** — sustained queue pressure walks
//!    [`BrownoutLevel`] upward (serve staler → skip stage-cache fills →
//!    shed prefetch → reject background work) and back down as pressure
//!    drains, with hysteresis and a minimum dwell between moves so the
//!    ladder cannot flap.
//!
//! Every decision is a pure function of the virtual clock, the queue
//! state, and the seeded configuration — shedding is deterministic and
//! replayable, which the overload proptests rely on.
//!
//! The subsystem is **opt-in**: `overload: None` (the default) leaves
//! every path byte-for-byte identical to the pre-overload cache, which
//! the parity tests pin.

use crate::resilience::StalenessBound;
use parking_lot::Mutex;
use placeless_simenv::Instant;
use std::collections::HashMap;

/// Scheduling class of a read, from most to least sheddable.
///
/// Ordering is by importance: `Prefetch < Refresh < Foreground`, so
/// "shed lowest first" is a plain `<` comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Speculative work (collection sibling prefetch): first to shed.
    Prefetch,
    /// Freshness maintenance (background revalidation): shed next.
    Refresh,
    /// An interactive user is waiting on this read: shed last.
    #[default]
    Foreground,
}

impl Priority {
    /// Stable lower-case label, used in stats tables and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Prefetch => "prefetch",
            Priority::Refresh => "refresh",
            Priority::Foreground => "foreground",
        }
    }
}

/// Rungs of the brownout ladder, from healthy to rejecting.
///
/// Each level implies every cheaper degradation below it: at
/// [`BrownoutLevel::ShedPrefetch`] the cache is also widening staleness
/// and skipping stage-cache fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum BrownoutLevel {
    /// No degradation.
    #[default]
    Normal,
    /// Serve stale copies within the configured brownout staleness bound
    /// instead of fetching.
    WidenStale,
    /// Compute stages but skip persisting intermediates to the stage
    /// cache (saves allocation and cache churn under pressure).
    SkipStageFills,
    /// Drop collection-sibling prefetches entirely.
    ShedPrefetch,
    /// Reject non-foreground misses outright with `Overloaded`;
    /// foreground reads remain subject to deadline-aware admission.
    Reject,
}

impl BrownoutLevel {
    const LADDER: [BrownoutLevel; 5] = [
        BrownoutLevel::Normal,
        BrownoutLevel::WidenStale,
        BrownoutLevel::SkipStageFills,
        BrownoutLevel::ShedPrefetch,
        BrownoutLevel::Reject,
    ];

    /// Numeric rung, 0 (normal) through 4 (reject).
    pub fn rung(self) -> u8 {
        self as u8
    }

    fn step_up(self) -> BrownoutLevel {
        let next = (self.rung() as usize + 1).min(Self::LADDER.len() - 1);
        Self::LADDER[next]
    }

    fn step_down(self) -> BrownoutLevel {
        let prev = (self.rung() as usize).saturating_sub(1);
        Self::LADDER[prev]
    }

    /// Whether stale serving should widen to the brownout bound.
    pub fn widens_stale(self) -> bool {
        self >= BrownoutLevel::WidenStale
    }

    /// Whether stage-cache fills should be skipped.
    pub fn skips_stage_fills(self) -> bool {
        self >= BrownoutLevel::SkipStageFills
    }

    /// Whether collection prefetch should be shed.
    pub fn sheds_prefetch(self) -> bool {
        self >= BrownoutLevel::ShedPrefetch
    }

    /// Whether non-foreground misses are rejected outright.
    pub fn rejects_background(self) -> bool {
        self >= BrownoutLevel::Reject
    }
}

/// Tuning for the overload subsystem; enable via
/// [`CacheConfig::overload`](crate::manager::CacheConfig::overload).
///
/// All times are virtual microseconds. The defaults suit the simulated
/// origins used in tests and experiments; production deployments should
/// start from the observed origin latency distribution (set
/// `target_fetch_micros` near the healthy p90) and the interactive
/// deadline (leave `expected_service_micros` at the healthy mean so cold
/// admission is neither credulous nor paranoid).
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// AIMD latency target: fetches slower than this shrink the origin's
    /// window, faster ones grow it.
    pub target_fetch_micros: u64,
    /// Floor for the adaptive per-origin window.
    pub min_inflight: u32,
    /// Ceiling (and initial width) for the adaptive per-origin window.
    pub max_inflight: u32,
    /// Prior for expected service time before the per-origin EWMA warms.
    pub expected_service_micros: u64,
    /// Queue pressure (readers parked on origin windows) at or above
    /// which the brownout ladder steps up one rung.
    pub brownout_enter_waiters: u64,
    /// Pressure at or below which the ladder steps back down. Must be
    /// below `brownout_enter_waiters` to give the ladder hysteresis.
    pub brownout_exit_waiters: u64,
    /// Minimum virtual time between ladder moves (dwell), so one noisy
    /// sample cannot flap the level.
    pub brownout_dwell_micros: u64,
    /// Staleness bound used while the ladder is at
    /// [`BrownoutLevel::WidenStale`] or above; `None` falls back to the
    /// resilience `serve_stale` bound.
    pub brownout_stale: Option<StalenessBound>,
    /// `retry_after` hint attached to `Overloaded` rejections.
    pub retry_after_micros: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        Self {
            target_fetch_micros: 5_000,
            min_inflight: 1,
            max_inflight: 8,
            expected_service_micros: 2_000,
            brownout_enter_waiters: 8,
            brownout_exit_waiters: 2,
            brownout_dwell_micros: 10_000,
            brownout_stale: None,
            retry_after_micros: 10_000,
        }
    }
}

impl OverloadConfig {
    /// Sets the AIMD latency target.
    pub fn target_fetch_micros(mut self, micros: u64) -> Self {
        self.target_fetch_micros = micros.max(1);
        self
    }

    /// Sets the adaptive window floor and ceiling (both clamped ≥ 1).
    pub fn inflight_bounds(mut self, min: u32, max: u32) -> Self {
        self.min_inflight = min.max(1);
        self.max_inflight = max.max(self.min_inflight);
        self
    }

    /// Sets the cold-start expected service time used by admission.
    pub fn expected_service_micros(mut self, micros: u64) -> Self {
        self.expected_service_micros = micros.max(1);
        self
    }

    /// Sets the brownout enter/exit pressure thresholds (hysteresis).
    pub fn brownout_waiters(mut self, enter: u64, exit: u64) -> Self {
        self.brownout_enter_waiters = enter.max(1);
        self.brownout_exit_waiters = exit.min(enter.saturating_sub(1));
        self
    }

    /// Sets the minimum virtual dwell between ladder moves.
    pub fn brownout_dwell_micros(mut self, micros: u64) -> Self {
        self.brownout_dwell_micros = micros;
        self
    }

    /// Sets the widened staleness bound for brownout stale serving.
    pub fn brownout_stale(mut self, bound: StalenessBound) -> Self {
        self.brownout_stale = Some(bound);
        self
    }

    /// Sets the `retry_after` hint attached to shed requests.
    pub fn retry_after_micros(mut self, micros: u64) -> Self {
        self.retry_after_micros = micros.max(1);
        self
    }
}

/// Expected completion time for a new arrival at an origin window:
/// `queued_ahead` readers are already parked, `limit` slots drain the
/// queue, and each service takes `service_micros`. The arrival completes
/// after its own service plus however many full drain rounds precede it.
///
/// This is the admission predicate's left-hand side: a reader whose
/// remaining deadline budget is smaller than this is doomed and gets
/// shed instead of queued.
pub fn expected_completion_micros(queued_ahead: u64, limit: u32, service_micros: u64) -> u64 {
    let rounds = queued_ahead / u64::from(limit.max(1)) + 1;
    rounds.saturating_mul(service_micros.max(1))
}

struct OriginControl {
    limit: u32,
    /// EWMA of observed fetch latency (µs); 0 means "no samples yet".
    ewma_micros: u64,
}

struct ControllerState {
    origins: HashMap<String, OriginControl>,
    level: BrownoutLevel,
    /// Virtual instant of the last ladder move, for dwell enforcement.
    shifted_at: Instant,
}

/// Runtime state of the overload subsystem: per-origin AIMD windows and
/// the brownout ladder. One per cache; all methods are thread-safe and
/// deterministic given the same sequence of (virtual time, observation)
/// inputs.
pub(crate) struct OverloadController {
    config: OverloadConfig,
    state: Mutex<ControllerState>,
}

impl OverloadController {
    pub(crate) fn new(config: OverloadConfig) -> Self {
        Self {
            state: Mutex::new(ControllerState {
                origins: HashMap::new(),
                level: BrownoutLevel::Normal,
                shifted_at: Instant(0),
            }),
            config,
        }
    }

    pub(crate) fn config(&self) -> &OverloadConfig {
        &self.config
    }

    /// Current expected service time for `origin` (EWMA, or the
    /// configured prior before any sample lands).
    pub(crate) fn expected_service_micros(&self, origin: &str) -> u64 {
        let state = self.state.lock();
        state
            .origins
            .get(origin)
            .map(|c| c.ewma_micros)
            .filter(|&e| e > 0)
            .unwrap_or(self.config.expected_service_micros)
            .max(1)
    }

    /// Records one completed fetch against `origin` and returns the new
    /// AIMD window width: multiplicative decrease when the observation
    /// exceeds the latency target, additive increase otherwise.
    pub(crate) fn observe_fetch(&self, origin: &str, observed_micros: u64) -> u32 {
        let mut state = self.state.lock();
        let control = state
            .origins
            .entry(origin.to_owned())
            .or_insert(OriginControl {
                limit: self.config.max_inflight,
                ewma_micros: 0,
            });
        control.ewma_micros = if control.ewma_micros == 0 {
            observed_micros.max(1)
        } else {
            // 3/4 old + 1/4 new: smooth enough to ride out one outlier,
            // fast enough to track a regime change within a few fetches.
            ((control.ewma_micros * 3 + observed_micros) / 4).max(1)
        };
        control.limit = if observed_micros > self.config.target_fetch_micros {
            (control.limit / 2).max(self.config.min_inflight)
        } else {
            (control.limit + 1).min(self.config.max_inflight)
        };
        control.limit
    }

    /// Current brownout level.
    pub(crate) fn level(&self) -> BrownoutLevel {
        self.state.lock().level
    }

    /// Feeds the ladder one pressure sample (`waiters` readers parked on
    /// origin windows) at virtual time `now`. Steps at most one rung per
    /// dwell period: up when pressure is at or above the enter
    /// threshold, down when at or below the exit threshold. Returns the
    /// `(from, to)` pair when the level moved, for stats accounting.
    pub(crate) fn observe_pressure(
        &self,
        now: Instant,
        waiters: u64,
    ) -> Option<(BrownoutLevel, BrownoutLevel)> {
        let mut state = self.state.lock();
        let dwelled = now.since(state.shifted_at) >= self.config.brownout_dwell_micros;
        if !dwelled && state.shifted_at.as_micros() != 0 {
            return None;
        }
        let from = state.level;
        let to = if waiters >= self.config.brownout_enter_waiters {
            from.step_up()
        } else if waiters <= self.config.brownout_exit_waiters {
            from.step_down()
        } else {
            from
        };
        if to == from {
            return None;
        }
        state.level = to;
        state.shifted_at = now;
        Some((from, to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_orders_by_importance() {
        assert!(Priority::Prefetch < Priority::Refresh);
        assert!(Priority::Refresh < Priority::Foreground);
        assert_eq!(Priority::default(), Priority::Foreground);
        assert_eq!(Priority::Prefetch.label(), "prefetch");
    }

    #[test]
    fn ladder_steps_saturate_at_both_ends() {
        assert_eq!(BrownoutLevel::Normal.step_down(), BrownoutLevel::Normal);
        assert_eq!(BrownoutLevel::Reject.step_up(), BrownoutLevel::Reject);
        assert_eq!(
            BrownoutLevel::WidenStale.step_up(),
            BrownoutLevel::SkipStageFills
        );
        assert!(BrownoutLevel::Reject.widens_stale());
        assert!(BrownoutLevel::Reject.sheds_prefetch());
        assert!(!BrownoutLevel::WidenStale.skips_stage_fills());
    }

    #[test]
    fn expected_completion_counts_drain_rounds() {
        // Empty queue: one service time.
        assert_eq!(expected_completion_micros(0, 4, 1_000), 1_000);
        // 7 ahead, 4 slots: one full round ahead of us, then ours.
        assert_eq!(expected_completion_micros(7, 4, 1_000), 2_000);
        // Zero-width limits are clamped rather than dividing by zero.
        assert_eq!(expected_completion_micros(3, 0, 1_000), 4_000);
    }

    #[test]
    fn aimd_shrinks_on_slow_and_grows_on_fast() {
        let ctrl = OverloadController::new(
            OverloadConfig::default()
                .target_fetch_micros(1_000)
                .inflight_bounds(1, 8),
        );
        assert_eq!(ctrl.observe_fetch("o", 5_000), 4, "8/2 on a slow fetch");
        assert_eq!(ctrl.observe_fetch("o", 5_000), 2);
        assert_eq!(ctrl.observe_fetch("o", 5_000), 1);
        assert_eq!(ctrl.observe_fetch("o", 5_000), 1, "floored at min");
        assert_eq!(ctrl.observe_fetch("o", 100), 2, "+1 on a fast fetch");
        for _ in 0..10 {
            ctrl.observe_fetch("o", 100);
        }
        assert_eq!(ctrl.observe_fetch("o", 100), 8, "capped at max");
    }

    #[test]
    fn ewma_warms_from_prior_then_tracks() {
        let ctrl =
            OverloadController::new(OverloadConfig::default().expected_service_micros(2_000));
        assert_eq!(ctrl.expected_service_micros("o"), 2_000, "prior");
        ctrl.observe_fetch("o", 10_000);
        assert_eq!(ctrl.expected_service_micros("o"), 10_000, "first sample");
        ctrl.observe_fetch("o", 2_000);
        assert_eq!(ctrl.expected_service_micros("o"), 8_000, "(3·10k + 2k)/4");
    }

    #[test]
    fn ladder_has_hysteresis_and_dwell() {
        let ctrl = OverloadController::new(
            OverloadConfig::default()
                .brownout_waiters(8, 2)
                .brownout_dwell_micros(1_000),
        );
        // First sample may move immediately (nothing to dwell from).
        assert_eq!(
            ctrl.observe_pressure(Instant(10), 9),
            Some((BrownoutLevel::Normal, BrownoutLevel::WidenStale))
        );
        // Within the dwell: no move even under pressure.
        assert_eq!(ctrl.observe_pressure(Instant(500), 100), None);
        // After the dwell: one rung at a time.
        assert_eq!(
            ctrl.observe_pressure(Instant(1_100), 100),
            Some((BrownoutLevel::WidenStale, BrownoutLevel::SkipStageFills))
        );
        // Pressure between exit and enter thresholds: hold steady.
        assert_eq!(ctrl.observe_pressure(Instant(3_000), 5), None);
        assert_eq!(ctrl.level(), BrownoutLevel::SkipStageFills);
        // Pressure drains: step back down.
        assert_eq!(
            ctrl.observe_pressure(Instant(5_000), 0),
            Some((BrownoutLevel::SkipStageFills, BrownoutLevel::WidenStale))
        );
    }

    #[test]
    fn decisions_replay_identically() {
        let run = || {
            let ctrl = OverloadController::new(OverloadConfig::default());
            let mut log = Vec::new();
            for i in 0..200u64 {
                let observed = (i * 37) % 9_000;
                log.push(ctrl.observe_fetch("o", observed));
                log.push(u32::from(
                    ctrl.observe_pressure(Instant(i * 700), (i * 13) % 16)
                        .map(|(_, to)| to.rung())
                        .unwrap_or(99),
                ));
            }
            log
        };
        assert_eq!(run(), run(), "controller is a pure function of inputs");
    }
}
