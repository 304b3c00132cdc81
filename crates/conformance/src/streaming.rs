//! The STREAMING conformance regime: the O(E) streaming schedulers
//! certified by invariants alone, with the Proposition 2.4 bound gap
//! recorded.
//!
//! The streaming pair (`topo-window`, `slab-partition`) is built for
//! graphs the exact solver will never touch, so this regime is the
//! [`oracle`](crate::oracle) run on [`streaming_schedulers`] with the exact
//! ceiling at 0 (`OracleConfig::with_exhaustive_max_nodes(0)`), over the
//! same four generator families and feasibility-aware budget probes as the
//! exact regime.  Every relation that needs no optimum still applies:
//!
//! 1. **Feasibility (Prop. 2.3)** — both schedulers are
//!    [`ALWAYS_FEASIBLE`](crate::oracle::ALWAYS_FEASIBLE): they support
//!    every CDAG, succeed at or above [`min_feasible_budget`], and below it
//!    decline with the game-level hint filled in.
//! 2. **Replay-cost identity** — the emitted schedule replays cleanly
//!    through the validator, the occupancy trace and the executable
//!    machine under the requested budget, and the replayed cost equals the
//!    scheduler's own cost claim.
//! 3. **Bound gap (Prop. 2.4)** — the replayed cost sits at or above the
//!    algorithmic lower bound; the observed gap ratio is *recorded* (not
//!    asserted) so the report quantifies how far the heuristics sit from
//!    the information-theoretic floor.
//! 4. **Metamorphic** — weight scaling and relabeling carry each schedule
//!    to an equally valid one of the predicted cost.
//!
//! The exact cross-check these schedulers owe on small graphs
//! (`beats-exact`) is the exact regime's: both are in the registry it
//! fuzzes.
//!
//! [`min_feasible_budget`]: pebblyn_core::min_feasible_budget

use pebblyn_schedulers::{by_name, Scheduler};

/// The schedulers this regime certifies, resolved from the live registry
/// so the regime and the CLI can never disagree about what "streaming"
/// means.
///
/// # Panics
///
/// Panics if either streaming scheduler has been dropped from the
/// registry — that is a wiring bug, not a conformance finding.
pub fn streaming_schedulers() -> Vec<&'static dyn Scheduler> {
    ["topo-window", "slab-partition"]
        .into_iter()
        .map(|n| by_name(n).unwrap_or_else(|| panic!("{n} missing from the registry")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{GapSample, OracleConfig};
    use crate::rng::SplitRng;
    use crate::{drive, run_regime, Config, Regime};
    use pebblyn_core::CdagBuilder;

    fn small_cfg() -> Config {
        Config {
            seed: 3,
            cases: 24,
            oracle: OracleConfig::default().with_exhaustive_max_nodes(0),
        }
    }

    #[test]
    fn registry_streaming_pair_is_clean_on_a_small_run() {
        let report = run_regime(&small_cfg(), Regime::Oracle(&streaming_schedulers()));
        assert!(
            report.is_clean(),
            "violations: {:#?}",
            report
                .failures
                .iter()
                .map(|f| &f.violations)
                .collect::<Vec<_>>()
        );
        assert_eq!(report.cases, 24);
        assert_eq!(report.exact_certified + report.exact_skipped, 0);
        assert!(report.feasible_probes > 0, "nothing was probed feasibly");
        assert!(
            report.worst_gap >= 1.0,
            "gap ratios are cost/lb >= 1, got {}",
            report.worst_gap
        );
        assert!(report.mean_gap >= 1.0 && report.mean_gap <= report.worst_gap);
    }

    #[test]
    fn streaming_runs_are_deterministic() {
        let schedulers = streaming_schedulers();
        let a = run_regime(&small_cfg(), Regime::Oracle(&schedulers));
        let b = run_regime(&small_cfg(), Regime::Oracle(&schedulers));
        assert_eq!(a.probes, b.probes);
        assert_eq!(a.feasible_probes, b.feasible_probes);
        assert_eq!(a.worst_gap, b.worst_gap);
        assert_eq!(a.mean_gap, b.mean_gap);
        assert_eq!(a.failures.len(), b.failures.len());
    }

    /// A broken streaming scheduler must be caught *and* shrunk: the
    /// regime's net and the shrinker's recheck both work end-to-end.
    #[test]
    fn a_phantom_feasible_mutant_is_caught_and_shrunk() {
        use crate::mutants;
        let mutant = &mutants::all()[3]; // phantom-feasible: schedules below minb
        let schedulers: Vec<&dyn Scheduler> = vec![mutant.as_ref()];
        let cfg = small_cfg();
        let report = drive(&cfg, Regime::Oracle(&schedulers), true);
        let failure = report
            .failures
            .first()
            .unwrap_or_else(|| panic!("no mutant violation found in {} cases", cfg.cases));
        assert!(!failure.shrunk_detail.is_empty());
        let original = crate::generate(cfg.seed, failure.spec.index);
        assert!(failure.shrunk.graph.len() <= original.graph.len());
    }

    #[test]
    fn gap_sample_ratio_is_cost_over_bound() {
        let s = GapSample {
            cost: 96,
            lower_bound: 64,
        };
        assert!((s.ratio() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn hand_built_diamond_passes_every_probe() {
        let mut b = CdagBuilder::new();
        let a = b.node(16, "a");
        let x = b.node(32, "x");
        let y = b.node(32, "y");
        let z = b.node(16, "z");
        b.edge(a, x);
        b.edge(a, y);
        b.edge(x, z);
        b.edge(y, z);
        let g = b.build().unwrap();
        let schedulers = streaming_schedulers();
        let regime = Regime::Oracle(&schedulers);
        let out = regime.check(
            &g,
            &regime.sweep(&g),
            &small_cfg().oracle,
            &mut SplitRng::new(1),
        );
        assert!(out.violations.is_empty(), "{:#?}", out.violations);
        assert!(out.probes >= out.gaps.len());
        assert!(out.gaps.iter().all(|s| s.ratio() >= 1.0));
    }
}
