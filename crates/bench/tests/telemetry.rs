//! End-to-end telemetry counter checks.
//!
//! Lives in its own integration-test binary on purpose: telemetry state is
//! process-global, so these assertions must not share a process with tests
//! that enable/reset telemetry concurrently.  The single test function
//! below is the only code in this binary that touches the registry.

use pebblyn::prelude::*;
use pebblyn::telemetry;
use pebblyn_bench::reconvergent_mesh16;

/// The pinned witness: a full binary tree of depth 2 — 7 nodes, unit-ish
/// weights — small enough that the exact solve is instant in debug builds.
fn kary7() -> Cdag {
    pebblyn::graphs::tree::full_kary(2, 2, WeightScheme::Equal(2)).expect("valid tree")
}

#[test]
fn exact_solve_feeds_the_in_memory_sink() {
    telemetry::reset();
    telemetry::clear_sinks();
    telemetry::enable();
    let sink = telemetry::InMemorySink::default();
    let events = sink.handle();
    telemetry::install_sink(Box::new(sink));

    // One exact solve on the 7-node kary witness; its stats must be
    // mirrored 1:1 into the global counters.
    let g = kary7();
    let budget = min_feasible_budget(&g) + 2;
    let sol = ExactSolver::default().solve(&g, budget).expect("in cap");
    assert!(sol.cost.is_some(), "witness must be feasible at min+2");
    assert!(sol.stats.expanded > 0);
    assert_eq!(
        telemetry::counter(telemetry::Counter::StatesExpanded),
        sol.stats.expanded as u64,
        "telemetry must count exactly the solver's expansions"
    );
    assert_eq!(
        telemetry::counter(telemetry::Counter::StatesGenerated),
        sol.stats.generated as u64
    );
    assert!(telemetry::gauge(telemetry::Gauge::OpenListPeak) > 0);

    // A second solve accumulates (counters are process totals per run).
    let mesh = reconvergent_mesh16();
    let mesh_budget = min_feasible_budget(&mesh) + 4;
    let sol2 = ExactSolver::default()
        .solve(&mesh, mesh_budget)
        .expect("mesh within cap");
    assert_eq!(
        telemetry::counter(telemetry::Counter::StatesExpanded),
        (sol.stats.expanded + sol2.stats.expanded) as u64
    );

    // Flush through the sink and check the recorded snapshot agrees.
    telemetry::flush_run("telemetry-test");
    let recorded = events.lock().expect("sink events");
    assert_eq!(recorded.len(), 1);
    let telemetry::Event::Run { label, snapshot } = &recorded[0];
    assert_eq!(label, "telemetry-test");
    assert_eq!(
        snapshot.counter("states_expanded"),
        Some((sol.stats.expanded + sol2.stats.expanded) as u64)
    );
    assert!(snapshot.gauge("open_list_peak").unwrap() > 0);
    drop(recorded);

    telemetry::disable();
    telemetry::clear_sinks();
    telemetry::reset();
}
