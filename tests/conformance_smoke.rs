//! Tier-1 smoke test for the differential conformance harness.
//!
//! Runs the full oracle (generator families, budget sweep, exact
//! certification, metamorphic transforms) at a fixed seed with a small
//! case budget, plus one mutation-smoke pass, so `cargo test -q`
//! exercises the whole subsystem deterministically in a few seconds.
//! The heavyweight randomized sweep lives in CI's `conformance` job
//! (`cargo run -p pebblyn-conformance -- --seed N --cases K`).

use pebblyn::conformance::{self, mutation_smoke, Config};

fn smoke_cfg() -> Config {
    Config {
        seed: 3,
        cases: 20,
        ..Config::default()
    }
}

#[test]
fn registry_conforms_at_the_pinned_seed() {
    let report = conformance::run(&smoke_cfg());
    assert_eq!(report.cases, 20);
    assert!(
        report.is_clean(),
        "conformance violations at seed 3:\n{}",
        report
            .failures
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The run must actually certify something against the exact optimum —
    // a harness that silently skips every exact comparison is vacuous.
    assert!(
        report.exact_certified >= report.budgets / 2,
        "only {} of {} probes exact-certified",
        report.exact_certified,
        report.budgets
    );
}

#[test]
fn injected_mutants_are_caught() {
    let reports = mutation_smoke(&smoke_cfg());
    assert!(!reports.is_empty());
    for (name, r) in &reports {
        let ex = r.failures.first().unwrap_or_else(|| {
            panic!(
                "mutant {name} survived {} cases — the oracle has a hole",
                r.cases
            )
        });
        assert!(
            ex.shrunk.graph.len() <= 12,
            "{name}: shrunk witness still has {} nodes",
            ex.shrunk.graph.len()
        );
    }
}
