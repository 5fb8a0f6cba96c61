//! Single-flight miss coalescing and per-origin in-flight windows.
//!
//! Under heavy concurrent traffic the expensive event is not the miss
//! itself but the *redundant* miss: N threads observe the same key absent
//! and all N walk the property chain, so one cold popular document costs
//! N provider fetches and N transform executions. A `FlightGroup`
//! deduplicates that work: the first thread to miss a key becomes the
//! flight's **leader** and computes the result; every other thread that
//! misses the same key while the flight is open becomes a **waiter**,
//! blocks on the leader's condvar, and shares the leader's outcome — a
//! cloneable `FlightResult`, so errors are shared exactly like bytes.
//!
//! The flight is removed from the table *before* its outcome is
//! published, so a thread arriving after completion starts a fresh
//! flight: a failed flight is never sticky, and the next read retries
//! against the origin.
//!
//! Both layers of the read path use the same group type:
//!
//! * **version flights**, keyed `EntryKey::Version(doc, user)`, wrap the
//!   whole resilient miss fetch;
//! * **stage flights**, keyed `EntryKey::Stage(signature)`, wrap one
//!   stage execution inside the compiled-plan walk, so concurrent misses
//!   on the same `(doc, stage)` signature — typically different users
//!   sharing a chain prefix — compute the intermediate exactly once.
//!
//! `InflightWindow` is the companion back-pressure mechanism: a bounded
//! count of concurrently in-flight fetches per origin, so a miss storm
//! that single-flight cannot coalesce (distinct keys, one origin) queues
//! at the cache instead of stampeding the origin.
//!
//! Locks here are `std::sync` primitives (the flight wait needs a
//! condvar) and are **leaves** in the manager's lock order: no shard lock
//! is ever taken while one is held, and the manager only joins flights
//! and acquires window slots while holding no shard lock. Waiting
//! threads hold no lock at all while blocked. Leader/waiter waits cannot
//! cycle: a version leader may wait on a stage flight, but a stage
//! leader only executes its transform — it never joins another flight.

use crate::policy::EntryKey;
use bytes::Bytes;
use placeless_core::error::PlacelessError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// What a flight leader publishes to its waiters. Cloneable, so one
/// computation fans out to any number of waiters — including one
/// failure.
#[derive(Debug, Clone)]
pub(crate) enum FlightResult {
    /// The leader produced shareable bytes.
    Shared {
        /// The computed content.
        bytes: Bytes,
        /// Whether the read path demands per-read event forwarding
        /// (`CacheableWithEvents`): each waiter posts its own event.
        forward: bool,
    },
    /// The leader completed, but the result must not be shared
    /// (uncacheable content has to reach the origin on every read).
    /// Waiters fall back to their own fetch.
    Unshared,
    /// The leader's fetch failed; every waiter shares this error.
    Failed(PlacelessError),
}

enum FlightState {
    Pending,
    Done(FlightResult),
    /// The leader unwound without completing (panic in a transform).
    /// Waiters fall back to their own fetch rather than hanging.
    Abandoned,
}

struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

impl Flight {
    fn new() -> Self {
        Self {
            state: Mutex::new(FlightState::Pending),
            done: Condvar::new(),
        }
    }

    /// Blocks until the leader publishes; `None` means abandoned.
    fn wait(&self) -> Option<FlightResult> {
        let mut state = lock(&self.state);
        loop {
            match &*state {
                FlightState::Pending => {
                    state = self
                        .done
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                FlightState::Done(result) => return Some(result.clone()),
                FlightState::Abandoned => return None,
            }
        }
    }

    fn finish(&self, state: FlightState) {
        *lock(&self.state) = state;
        self.done.notify_all();
    }
}

/// A mutex lock that shrugs off poisoning: flight state transitions are
/// trivial stores, so state is coherent even if a panicking thread was
/// interrupted holding the lock.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How [`FlightGroup::join`] classified the caller.
pub(crate) enum Join<'a> {
    /// First thread in: compute the result, then publish it through the
    /// guard. Dropping the guard without completing abandons the flight.
    Leader(FlightGuard<'a>),
    /// Another thread was already computing this key; this is its
    /// (cloned) outcome. `None` means the leader abandoned the flight —
    /// fall back to an independent fetch.
    Waited(Option<FlightResult>),
}

/// One in-flight computation per key; see the module docs.
#[derive(Default)]
pub(crate) struct FlightGroup {
    flights: Mutex<HashMap<EntryKey, Arc<Flight>>>,
    /// Threads currently blocked inside [`FlightGroup::join`] as waiters
    /// (a gauge, exposed for experiments and tests).
    waiting: AtomicU64,
}

impl FlightGroup {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Joins the flight for `key`, creating it if none is open.
    ///
    /// Waiters block (holding no lock) until the leader publishes.
    pub(crate) fn join(&self, key: EntryKey) -> Join<'_> {
        let flight = {
            let mut flights = lock(&self.flights);
            match flights.get(&key) {
                Some(flight) => Arc::clone(flight),
                None => {
                    let flight = Arc::new(Flight::new());
                    flights.insert(key, Arc::clone(&flight));
                    return Join::Leader(FlightGuard {
                        group: self,
                        key,
                        flight,
                        completed: false,
                    });
                }
            }
        };
        self.waiting.fetch_add(1, Ordering::SeqCst);
        let result = flight.wait();
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        Join::Waited(result)
    }

    /// Returns how many threads are currently blocked waiting on some
    /// flight in this group.
    pub(crate) fn waiting(&self) -> u64 {
        self.waiting.load(Ordering::SeqCst)
    }

    fn remove(&self, key: EntryKey) {
        lock(&self.flights).remove(&key);
    }
}

/// The leader's obligation to publish; see [`Join::Leader`].
pub(crate) struct FlightGuard<'a> {
    group: &'a FlightGroup,
    key: EntryKey,
    flight: Arc<Flight>,
    completed: bool,
}

impl FlightGuard<'_> {
    /// Publishes the leader's outcome to every waiter and closes the
    /// flight. The flight leaves the table *before* the outcome lands,
    /// so later arrivals start a fresh flight (a failure is shared with
    /// the threads that waited on it, never with the next read).
    pub(crate) fn complete(mut self, result: FlightResult) {
        self.group.remove(self.key);
        self.flight.finish(FlightState::Done(result));
        self.completed = true;
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.completed {
            self.group.remove(self.key);
            self.flight.finish(FlightState::Abandoned);
        }
    }
}

/// How [`InflightWindow::acquire_until`] resolved a slot request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Acquire {
    /// A slot was claimed; `queued_micros` is the virtual time spent
    /// parked before admission (0 when a slot was free on arrival).
    Admitted {
        /// Virtual microseconds spent queued before the slot freed.
        queued_micros: u64,
    },
    /// The request was shed: its remaining deadline budget could not
    /// cover the expected queue wait plus service time, or the deadline
    /// lapsed while parked. No slot is held.
    Shed {
        /// Virtual microseconds spent queued before giving up.
        queued_micros: u64,
    },
}

/// Per-origin slot accounting inside [`InflightWindow`].
#[derive(Default)]
struct OriginSlots {
    /// Fetches currently holding a slot.
    inflight: usize,
    /// Readers parked waiting for a slot (for admission math and the
    /// brownout pressure signal).
    queued: usize,
    /// AIMD override of the window width; `None` means the static
    /// default applies.
    limit: Option<usize>,
}

/// A bounded per-origin window of concurrently in-flight fetches.
///
/// `acquire` blocks (holding no other lock) while the origin's window is
/// already full; `release` frees the slot and wakes blocked threads.
/// Slots are held only for the duration of a single origin attempt,
/// never across a flight wait for another key's leader — so slot waits
/// always terminate.
///
/// Two extensions support the overload subsystem and change nothing
/// until used: [`InflightWindow::set_limit`] lets the AIMD controller
/// widen or shrink one origin's window at runtime, and
/// [`InflightWindow::acquire_until`] is the deadline-aware variant of
/// `acquire` that sheds doomed requests instead of queueing them (see
/// [`crate::overload`]).
pub(crate) struct InflightWindow {
    default_limit: usize,
    slots: Mutex<HashMap<String, OriginSlots>>,
    freed: Condvar,
    /// Total readers parked across all origins (brownout pressure
    /// gauge; kept atomic so sampling never takes the slot lock).
    queued: AtomicU64,
}

impl InflightWindow {
    /// How long a parked reader sleeps between deadline re-checks in
    /// [`InflightWindow::acquire_until`]. Wall-clock, not virtual: the
    /// virtual clock only moves when some thread advances it, so parked
    /// readers must poll it to notice a deadline that lapsed without a
    /// slot being freed.
    const QUEUE_POLL: std::time::Duration = std::time::Duration::from_millis(1);

    /// Creates a window admitting up to `limit` concurrent fetches per
    /// origin (`limit` is clamped to at least 1 — a zero-wide window
    /// would admit nothing and hang the first fetch).
    pub(crate) fn new(limit: usize) -> Self {
        Self {
            default_limit: limit.max(1),
            slots: Mutex::new(HashMap::new()),
            freed: Condvar::new(),
            queued: AtomicU64::new(0),
        }
    }

    fn effective_limit(&self, slots: &OriginSlots) -> usize {
        slots.limit.unwrap_or(self.default_limit)
    }

    /// Overrides `origin`'s window width (clamped ≥ 1). Raising the
    /// limit wakes parked readers so they can claim the new slots.
    pub(crate) fn set_limit(&self, origin: &str, limit: usize) {
        let mut slots = lock(&self.slots);
        let entry = slots.entry(origin.to_owned()).or_default();
        let limit = limit.max(1);
        let raised = limit > self.effective_limit(entry);
        entry.limit = Some(limit);
        drop(slots);
        if raised {
            self.freed.notify_all();
        }
    }

    /// Current window width for `origin`.
    #[cfg(test)]
    pub(crate) fn limit_for(&self, origin: &str) -> usize {
        let slots = lock(&self.slots);
        slots
            .get(origin)
            .map(|s| self.effective_limit(s))
            .unwrap_or(self.default_limit)
    }

    /// Total readers currently parked on any origin's window.
    pub(crate) fn queued_total(&self) -> u64 {
        self.queued.load(Ordering::SeqCst)
    }

    /// Blocks until a slot for `origin` is free, then claims it.
    pub(crate) fn acquire(&self, origin: &str) {
        let mut slots = lock(&self.slots);
        loop {
            let entry = slots.entry(origin.to_owned()).or_default();
            if entry.inflight < self.effective_limit(entry) {
                entry.inflight += 1;
                return;
            }
            slots = self
                .freed
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Deadline-aware [`InflightWindow::acquire`]: claims a slot for
    /// `origin` only if the caller can plausibly finish in time.
    ///
    /// On arrival, the expected completion time (queue depth ÷ window
    /// width × `expected_service_micros`, see
    /// [`crate::overload::expected_completion_micros`]) is compared
    /// against the budget remaining until `deadline_at`; a doomed
    /// request is shed immediately without queueing. While parked, the
    /// reader re-checks the virtual clock (woken by `release`, or every
    /// [`Self::QUEUE_POLL`] of wall time otherwise) and sheds the moment
    /// its deadline lapses — a reader whose deadline expires while
    /// queued is never served late. `deadline_at: None` never sheds and
    /// degrades to plain `acquire` with queue accounting.
    pub(crate) fn acquire_until(
        &self,
        origin: &str,
        clock: &placeless_simenv::VirtualClock,
        deadline_at: Option<placeless_simenv::Instant>,
        expected_service_micros: u64,
    ) -> Acquire {
        let started = clock.now();
        let mut slots = lock(&self.slots);
        {
            let entry = slots.entry(origin.to_owned()).or_default();
            let limit = self.effective_limit(entry);
            if entry.inflight < limit {
                entry.inflight += 1;
                return Acquire::Admitted { queued_micros: 0 };
            }
            if let Some(deadline_at) = deadline_at {
                let remaining = deadline_at.since(started);
                let expected = crate::overload::expected_completion_micros(
                    entry.queued as u64,
                    limit as u32,
                    expected_service_micros,
                );
                if remaining == 0 || expected > remaining {
                    return Acquire::Shed { queued_micros: 0 };
                }
            }
            entry.queued += 1;
        }
        self.queued.fetch_add(1, Ordering::SeqCst);
        let verdict = loop {
            let entry = slots.entry(origin.to_owned()).or_default();
            if entry.inflight < self.effective_limit(entry) {
                entry.inflight += 1;
                entry.queued -= 1;
                break Acquire::Admitted {
                    queued_micros: clock.now().since(started),
                };
            }
            if deadline_at.is_some_and(|d| clock.now() >= d) {
                entry.queued -= 1;
                break Acquire::Shed {
                    queued_micros: clock.now().since(started),
                };
            }
            slots = self
                .freed
                .wait_timeout(slots, Self::QUEUE_POLL)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        };
        self.queued.fetch_sub(1, Ordering::SeqCst);
        verdict
    }

    /// Releases a slot claimed by [`InflightWindow::acquire`] or
    /// [`InflightWindow::acquire_until`].
    pub(crate) fn release(&self, origin: &str) {
        let mut slots = lock(&self.slots);
        if let Some(entry) = slots.get_mut(origin) {
            entry.inflight = entry.inflight.saturating_sub(1);
            if entry.inflight == 0 && entry.queued == 0 && entry.limit.is_none() {
                slots.remove(origin);
            }
        }
        drop(slots);
        self.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use placeless_core::id::{DocumentId, UserId};
    use std::sync::atomic::AtomicUsize;
    use std::thread;
    use std::time::Duration;

    fn key(n: u64) -> EntryKey {
        EntryKey::Version(DocumentId(n), UserId(1))
    }

    #[test]
    fn sole_joiner_is_leader() {
        let group = FlightGroup::new();
        match group.join(key(1)) {
            Join::Leader(guard) => guard.complete(FlightResult::Unshared),
            Join::Waited(_) => panic!("first joiner must lead"),
        }
        // The flight closed: the next joiner leads a fresh one.
        assert!(matches!(group.join(key(1)), Join::Leader(_)));
    }

    #[test]
    fn waiters_share_the_leaders_bytes() {
        let group = Arc::new(FlightGroup::new());
        let Join::Leader(guard) = group.join(key(7)) else {
            panic!("first joiner must lead");
        };
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let group = Arc::clone(&group);
                thread::spawn(move || match group.join(key(7)) {
                    Join::Waited(Some(FlightResult::Shared { bytes, .. })) => bytes,
                    _ => panic!("expected a shared outcome"),
                })
            })
            .collect();
        // All four must be blocked inside join before the leader lands.
        while group.waiting() < 4 {
            thread::sleep(Duration::from_millis(1));
        }
        guard.complete(FlightResult::Shared {
            bytes: Bytes::from_static(b"payload"),
            forward: false,
        });
        for waiter in waiters {
            assert_eq!(waiter.join().expect("no panic"), "payload");
        }
        assert_eq!(group.waiting(), 0);
    }

    #[test]
    fn waiters_share_the_leaders_error() {
        let group = Arc::new(FlightGroup::new());
        let Join::Leader(guard) = group.join(key(9)) else {
            panic!("first joiner must lead");
        };
        let waiter = {
            let group = Arc::clone(&group);
            thread::spawn(move || match group.join(key(9)) {
                Join::Waited(Some(FlightResult::Failed(error))) => error,
                _ => panic!("expected the shared failure"),
            })
        };
        while group.waiting() < 1 {
            thread::sleep(Duration::from_millis(1));
        }
        guard.complete(FlightResult::Failed(PlacelessError::Unavailable {
            source: "origin-x".into(),
            retry_after: None,
        }));
        let error = waiter.join().expect("no panic");
        assert!(matches!(error, PlacelessError::Unavailable { .. }));
    }

    #[test]
    fn dropped_guard_abandons_instead_of_hanging() {
        let group = Arc::new(FlightGroup::new());
        let guard = match group.join(key(3)) {
            Join::Leader(guard) => guard,
            Join::Waited(_) => panic!("first joiner must lead"),
        };
        let waiter = {
            let group = Arc::clone(&group);
            thread::spawn(move || matches!(group.join(key(3)), Join::Waited(None)))
        };
        while group.waiting() < 1 {
            thread::sleep(Duration::from_millis(1));
        }
        drop(guard);
        assert!(waiter.join().expect("no panic"), "waiter saw abandonment");
    }

    #[test]
    fn distinct_keys_fly_independently() {
        let group = FlightGroup::new();
        let a = match group.join(key(1)) {
            Join::Leader(guard) => guard,
            Join::Waited(_) => panic!("lead a"),
        };
        // A different key must not wait on key 1's flight.
        match group.join(key(2)) {
            Join::Leader(guard) => guard.complete(FlightResult::Unshared),
            Join::Waited(_) => panic!("key 2 must lead its own flight"),
        }
        a.complete(FlightResult::Unshared);
    }

    #[test]
    fn window_bounds_concurrency_per_origin() {
        let window = Arc::new(InflightWindow::new(2));
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let window = Arc::clone(&window);
                let running = Arc::clone(&running);
                let peak = Arc::clone(&peak);
                thread::spawn(move || {
                    window.acquire("origin-a");
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    thread::sleep(Duration::from_millis(2));
                    running.fetch_sub(1, Ordering::SeqCst);
                    window.release("origin-a");
                })
            })
            .collect();
        for thread in threads {
            thread.join().expect("no panic");
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "window overshot");
    }

    #[test]
    fn window_is_per_origin() {
        let window = InflightWindow::new(1);
        window.acquire("origin-a");
        // A different origin is admitted immediately even though
        // origin-a's window is full.
        window.acquire("origin-b");
        window.release("origin-a");
        window.release("origin-b");
    }

    #[test]
    fn set_limit_overrides_one_origin_and_persists_when_idle() {
        let window = InflightWindow::new(1);
        window.set_limit("origin-a", 2);
        assert_eq!(window.limit_for("origin-a"), 2);
        assert_eq!(window.limit_for("origin-b"), 1, "others keep the default");
        window.acquire("origin-a");
        window.acquire("origin-a");
        window.release("origin-a");
        window.release("origin-a");
        // The override survives the origin going idle.
        assert_eq!(window.limit_for("origin-a"), 2);
    }

    #[test]
    fn acquire_until_sheds_doomed_arrivals_without_queueing() {
        use placeless_simenv::VirtualClock;
        let clock = VirtualClock::new();
        let window = InflightWindow::new(1);
        window.acquire("o");
        // Budget 1000µs, expected service 5000µs: doomed on arrival.
        let deadline = Some(clock.now().plus(1_000));
        assert_eq!(
            window.acquire_until("o", &clock, deadline, 5_000),
            Acquire::Shed { queued_micros: 0 }
        );
        assert_eq!(window.queued_total(), 0, "shed arrivals never park");
        // Without a deadline the same arrival would have queued; with a
        // generous budget and a free slot it is admitted instantly.
        window.release("o");
        assert_eq!(
            window.acquire_until("o", &clock, deadline, 5_000),
            Acquire::Admitted { queued_micros: 0 }
        );
        window.release("o");
    }

    #[test]
    fn queued_reader_sheds_when_virtual_deadline_lapses() {
        use placeless_simenv::VirtualClock;
        let clock = Arc::new(VirtualClock::new());
        let window = Arc::new(InflightWindow::new(1));
        window.acquire("o");
        let parked = {
            let clock = Arc::clone(&clock);
            let window = Arc::clone(&window);
            thread::spawn(move || {
                // Budget 10000µs covers one expected service, so the
                // reader queues rather than shedding on arrival.
                let deadline = Some(clock.now().plus(10_000));
                window.acquire_until("o", &clock, deadline, 5_000)
            })
        };
        while window.queued_total() < 1 {
            thread::sleep(Duration::from_millis(1));
        }
        // The slot never frees; the virtual clock passes the deadline.
        clock.advance(20_000);
        let verdict = parked.join().expect("no panic");
        let Acquire::Shed { queued_micros } = verdict else {
            panic!("expected a shed, got {verdict:?}");
        };
        assert!(queued_micros >= 10_000, "queue wait is accounted");
        window.release("o");
    }
}
