//! Zero-overhead-when-disabled instrumentation for pebblyn.
//!
//! The crate exposes a small process-global registry of typed
//! [`Counter`]s and [`Gauge`]s plus monotonic phase timers ([`span`]).
//! Instrumented code calls [`add`]/[`gauge_max`]/[`span`] unconditionally;
//! every entry point first performs a single `Relaxed` load of a static
//! `AtomicBool` and returns immediately when telemetry is off.  That check
//! is the entire disabled-path cost, so golden outputs produced with
//! telemetry off are byte-identical to an uninstrumented build.
//!
//! When enabled (via [`enable`]), counters are `Relaxed` atomic adds,
//! gauges are `fetch_max`, and spans accumulate wall-clock nanoseconds per
//! phase name.  A run's totals are captured with [`snapshot`] and emitted
//! to pluggable [`sink::Sink`]s with [`flush_run`]:
//!
//! - [`sink::JsonlSink`] appends one schema-versioned JSON object per run
//!   (see [`schema::SCHEMA`]),
//! - [`sink::InMemorySink`] buffers events for tests,
//! - [`sink::SummarySink`] prints a human-readable table to stderr.
//!
//! The crate deliberately has no pebblyn dependencies so any layer —
//! engine, exact solver, conformance harness, CLI — can report through it
//! without dependency cycles.

pub mod schema;
pub mod sink;

pub use sink::{Event, InMemorySink, JsonlSink, Sink, SummarySink};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Typed event counters.  Each variant has a stable snake_case name used in
/// JSONL output; see [`Counter::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Counter {
    /// States popped and expanded by the exact A* search.
    StatesExpanded,
    /// Successor states generated (pre-dedup, pre-dominance).
    StatesGenerated,
    /// Successors discarded by the dominance filter.
    DominancePruned,
    /// Successors discarded as exact duplicates of a queued/closed state.
    DedupPruned,
    /// Successors rewritten to their twin-orbit canonical representative by
    /// the exact search's symmetry reduction.
    SymmetryPruned,
    /// States the exact search expanded again after a strictly cheaper path
    /// reopened them (only an inconsistent bound allows this).
    ReExpansions,
    /// Moves emitted by heuristic schedulers through the registry surface.
    MovesEmitted,
    /// Conformance probes executed (scheduler × graph × budget points).
    Probes,
    /// Conformance probes certified against the exact solver.
    ProbesCertified,
    /// Conformance probes where exact certification was skipped.
    ProbesSkipped,
    /// Greedy shrink steps taken while minimizing a failing case.
    ShrinkSteps,
    /// Tasks executed by the deterministic parallel map.
    ParTasks,
    /// Invocations of the deterministic parallel map.
    ParRounds,
    /// Scheduling requests accepted by the service (hits + misses + rejects;
    /// excludes load-shed requests, which never reach the cache).
    ServiceRequests,
    /// Service requests answered from the canonical schedule cache.
    ServiceCacheHits,
    /// Service requests that fell through to an engine solve.
    ServiceCacheMisses,
    /// Service requests shed because the bounded queue was full.
    ServiceShed,
    /// Residents evicted by the streaming topological-window scheduler's
    /// Belady (furthest-next-use) policy.
    WindowEvictions,
    /// Slab boundaries committed by the streaming layered partitioner.
    SlabCuts,
    /// Nodes scheduled by the streaming schedulers (one increment per
    /// computed node, across both streaming strategies).
    StreamNodes,
    /// Red-to-red communication moves in multiprocessor schedules answered
    /// through the registry surface.
    CommMoves,
    /// Multiprocessor schedule requests answered through the registry
    /// surface (one increment per validated multi answer).
    MultiRequests,
}

/// All counters, in declaration (and output) order.
pub const COUNTERS: [Counter; 22] = [
    Counter::StatesExpanded,
    Counter::StatesGenerated,
    Counter::DominancePruned,
    Counter::DedupPruned,
    Counter::SymmetryPruned,
    Counter::ReExpansions,
    Counter::MovesEmitted,
    Counter::Probes,
    Counter::ProbesCertified,
    Counter::ProbesSkipped,
    Counter::ShrinkSteps,
    Counter::ParTasks,
    Counter::ParRounds,
    Counter::ServiceRequests,
    Counter::ServiceCacheHits,
    Counter::ServiceCacheMisses,
    Counter::ServiceShed,
    Counter::WindowEvictions,
    Counter::SlabCuts,
    Counter::StreamNodes,
    Counter::CommMoves,
    Counter::MultiRequests,
];

impl Counter {
    /// Stable snake_case name used in JSONL and summary output.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::StatesExpanded => "states_expanded",
            Counter::StatesGenerated => "states_generated",
            Counter::DominancePruned => "dominance_pruned",
            Counter::DedupPruned => "dedup_pruned",
            Counter::SymmetryPruned => "symmetry_prunes",
            Counter::ReExpansions => "re_expansions",
            Counter::MovesEmitted => "moves_emitted",
            Counter::Probes => "probes",
            Counter::ProbesCertified => "probes_certified",
            Counter::ProbesSkipped => "probes_skipped",
            Counter::ShrinkSteps => "shrink_steps",
            Counter::ParTasks => "par_tasks",
            Counter::ParRounds => "par_rounds",
            Counter::ServiceRequests => "service_requests",
            Counter::ServiceCacheHits => "service_cache_hits",
            Counter::ServiceCacheMisses => "service_cache_misses",
            Counter::ServiceShed => "service_shed",
            Counter::WindowEvictions => "window_evictions",
            Counter::SlabCuts => "slab_cuts",
            Counter::StreamNodes => "stream_nodes",
            Counter::CommMoves => "comm_moves",
            Counter::MultiRequests => "multi_requests",
        }
    }
}

/// Typed high-water-mark gauges (updated with `fetch_max`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Gauge {
    /// Peak open-list size observed by the exact search.
    OpenListPeak,
    /// Peak number of dominance-table entries.
    DominanceEntriesPeak,
    /// Peak depth of any engine work queue.
    QueueDepthPeak,
    /// Peak depth of the service's bounded request queue.
    ServiceQueueDepthPeak,
    /// Slowest single request the service answered, in wall nanoseconds.
    ServiceLatencyPeakNs,
    /// Widest state mask (in 64-bit words) any exact search in this run
    /// monomorphized to: 1 = the u64 fast path, 2+ = `Words<N>`.
    MaskWords,
    /// Peak resident red weight (in bits) observed by the streaming
    /// topological-window scheduler.
    WindowPeak,
    /// Most processors any multiprocessor answer in this run actually
    /// occupied (computed at least one node on).
    MultiProcsUsed,
}

/// All gauges, in declaration (and output) order.
pub const GAUGES: [Gauge; 8] = [
    Gauge::OpenListPeak,
    Gauge::DominanceEntriesPeak,
    Gauge::QueueDepthPeak,
    Gauge::ServiceQueueDepthPeak,
    Gauge::ServiceLatencyPeakNs,
    Gauge::MaskWords,
    Gauge::WindowPeak,
    Gauge::MultiProcsUsed,
];

impl Gauge {
    /// Stable snake_case name used in JSONL and summary output.
    pub const fn name(self) -> &'static str {
        match self {
            Gauge::OpenListPeak => "open_list_peak",
            Gauge::DominanceEntriesPeak => "dominance_entries_peak",
            Gauge::QueueDepthPeak => "queue_depth_peak",
            Gauge::ServiceQueueDepthPeak => "service_queue_depth_peak",
            Gauge::ServiceLatencyPeakNs => "service_latency_peak_ns",
            Gauge::MaskWords => "mask_words",
            Gauge::WindowPeak => "window_peak",
            Gauge::MultiProcsUsed => "multi_procs_used",
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

// A `const` initializer is the idiomatic way to build a static array of
// atomics; the lint fires on any interior-mutable const regardless.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::borrow_interior_mutable_const)]
static COUNTER_CELLS: [AtomicU64; COUNTERS.len()] = [ZERO; COUNTERS.len()];
#[allow(clippy::borrow_interior_mutable_const)]
static GAUGE_CELLS: [AtomicU64; GAUGES.len()] = [ZERO; GAUGES.len()];
static SPANS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());
static SINKS: Mutex<Vec<Box<dyn Sink>>> = Mutex::new(Vec::new());

/// Turn telemetry collection on for the rest of the process.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn telemetry collection off (used by tests to restore the default).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether telemetry is collecting.  A single `Relaxed` load — this is the
/// entire cost of every instrumentation site when telemetry is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Add `n` to counter `c`.  No-op when disabled.
#[inline]
pub fn add(c: Counter, n: u64) {
    if enabled() {
        COUNTER_CELLS[c as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Add 1 to counter `c`.  No-op when disabled.
#[inline]
pub fn incr(c: Counter) {
    add(c, 1);
}

/// Current value of counter `c` (zero when telemetry never ran).
pub fn counter(c: Counter) -> u64 {
    COUNTER_CELLS[c as usize].load(Ordering::Relaxed)
}

/// Raise gauge `g` to at least `v`.  No-op when disabled.
#[inline]
pub fn gauge_max(g: Gauge, v: u64) {
    if enabled() {
        GAUGE_CELLS[g as usize].fetch_max(v, Ordering::Relaxed);
    }
}

/// Current value of gauge `g`.
pub fn gauge(g: Gauge) -> u64 {
    GAUGE_CELLS[g as usize].load(Ordering::Relaxed)
}

/// A scoped phase timer: accumulates elapsed wall-clock nanoseconds under
/// `name` when dropped.  Obtained from [`span`]; does nothing when
/// telemetry is disabled at drop time.
#[must_use = "a span records its phase time when dropped"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        if !enabled() {
            return;
        }
        let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let mut spans = SPANS.lock().expect("telemetry span table poisoned");
        *spans.entry(self.name).or_insert(0) += ns;
    }
}

/// Start a monotonic phase timer; the returned guard accumulates wall time
/// under `name` when it goes out of scope.  When telemetry is disabled the
/// guard holds no clock and drops for free.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        name,
        start: enabled().then(Instant::now),
    }
}

/// Point-in-time totals of every counter, gauge, and span phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, total)` for each counter, in [`COUNTERS`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, high-water mark)` for each gauge, in [`GAUGES`] order.
    pub gauges: Vec<(&'static str, u64)>,
    /// `(phase, total wall ns)` sorted by phase name.
    pub spans_ns: Vec<(&'static str, u64)>,
}

impl Snapshot {
    /// Value of the counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Value of the gauge named `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Capture the current totals of all counters, gauges, and spans.
pub fn snapshot() -> Snapshot {
    Snapshot {
        counters: COUNTERS.iter().map(|&c| (c.name(), counter(c))).collect(),
        gauges: GAUGES.iter().map(|&g| (g.name(), gauge(g))).collect(),
        spans_ns: SPANS
            .lock()
            .expect("telemetry span table poisoned")
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect(),
    }
}

/// Zero all counters, gauges, and span totals (test isolation helper).
pub fn reset() {
    for cell in &COUNTER_CELLS {
        cell.store(0, Ordering::Relaxed);
    }
    for cell in &GAUGE_CELLS {
        cell.store(0, Ordering::Relaxed);
    }
    SPANS.lock().expect("telemetry span table poisoned").clear();
}

/// Register a sink to receive subsequent [`flush_run`] events.
pub fn install_sink(sink: Box<dyn Sink>) {
    SINKS
        .lock()
        .expect("telemetry sink list poisoned")
        .push(sink);
}

/// Drop all registered sinks (flushing them first).
pub fn clear_sinks() {
    let mut sinks = SINKS.lock().expect("telemetry sink list poisoned");
    for sink in sinks.iter_mut() {
        sink.flush();
    }
    sinks.clear();
}

/// Emit one `Run` event carrying the current [`snapshot`] totals, labelled
/// `label`, to every registered sink, then flush them.  No-op when
/// telemetry is disabled.
pub fn flush_run(label: &str) {
    if !enabled() {
        return;
    }
    let event = Event::Run {
        label: label.to_string(),
        snapshot: snapshot(),
    };
    let mut sinks = SINKS.lock().expect("telemetry sink list poisoned");
    for sink in sinks.iter_mut() {
        sink.record(&event);
        sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sink::InMemorySink;

    // All tests share process-global state, so they run under one lock and
    // restore the disabled default before returning.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn isolated<R>(f: impl FnOnce() -> R) -> R {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        clear_sinks();
        enable();
        let out = f();
        disable();
        reset();
        clear_sinks();
        out
    }

    #[test]
    fn disabled_sites_record_nothing() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        disable();
        add(Counter::StatesExpanded, 10);
        gauge_max(Gauge::OpenListPeak, 99);
        drop(span("phase"));
        assert_eq!(counter(Counter::StatesExpanded), 0);
        assert_eq!(gauge(Gauge::OpenListPeak), 0);
        assert!(snapshot().spans_ns.is_empty());
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        isolated(|| {
            add(Counter::MovesEmitted, 3);
            incr(Counter::MovesEmitted);
            gauge_max(Gauge::OpenListPeak, 7);
            gauge_max(Gauge::OpenListPeak, 4);
            let snap = snapshot();
            assert_eq!(snap.counter("moves_emitted"), Some(4));
            assert_eq!(snap.gauge("open_list_peak"), Some(7));
            assert_eq!(snap.counter("no_such"), None);
        });
    }

    #[test]
    fn spans_accumulate_under_one_name() {
        isolated(|| {
            for _ in 0..2 {
                let _s = span("expand");
                std::hint::black_box(());
            }
            let snap = snapshot();
            assert_eq!(snap.spans_ns.len(), 1);
            assert_eq!(snap.spans_ns[0].0, "expand");
        });
    }

    #[test]
    fn flush_run_reaches_installed_sinks() {
        isolated(|| {
            let sink = InMemorySink::new();
            let events = sink.handle();
            install_sink(Box::new(sink));
            incr(Counter::Probes);
            flush_run("unit");
            let events = events.lock().unwrap();
            assert_eq!(events.len(), 1);
            let Event::Run { label, snapshot } = &events[0];
            assert_eq!(label, "unit");
            assert_eq!(snapshot.counter("probes"), Some(1));
        });
    }

    #[test]
    fn counter_names_are_unique_and_ordered() {
        let names: Vec<_> = COUNTERS.iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate counter name");
        assert_eq!(COUNTERS[0].name(), "states_expanded");
        let gnames: Vec<_> = GAUGES.iter().map(|g| g.name()).collect();
        let mut gdedup = gnames.clone();
        gdedup.sort_unstable();
        gdedup.dedup();
        assert_eq!(gdedup.len(), gnames.len(), "duplicate gauge name");
    }
}
