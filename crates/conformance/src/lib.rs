//! Differential conformance and fuzzing harness.
//!
//! Certifies every registered [`Scheduler`] on randomized weighted CDAGs.
//! One *case* is a pure function of `(seed, index)` (see [`rng`]): a
//! random graph from one of four shape families ([`gen`]), checked across
//! a feasibility-aware budget sweep against a [`Regime`]'s relations.
//! Failing cases are greedily minimized before reporting ([`shrink`]), and
//! the harness's own sensitivity is certified by injecting known-bad
//! schedulers and asserting they are caught ([`mutants`],
//! [`mutation_smoke`]).
//!
//! One case loop, [`run_regime`], serves three scheduler sets with one
//! per-case [`CaseOutcome`], one summed [`Report`] and one shrinker:
//!
//! * the **exact regime** ([`run`]) — the full [`oracle`] on the registry,
//!   with exact certification on the small cases and the
//!   [`metamorphic`] transforms;
//! * **STREAMING** ([`streaming`]) — the same oracle on the streaming
//!   schedulers with exact certification off;
//! * **MULTI** ([`multi`]) — the multiprocessor relations across
//!   processor counts.
//!
//! The `conformance` binary wraps them all:
//!
//! ```text
//! cargo run -p pebblyn-conformance -- --seed 3 --cases 2000
//! cargo run -p pebblyn-conformance -- --mutation-smoke
//! cargo run -p pebblyn-conformance -- --streaming --cases 500
//! cargo run -p pebblyn-conformance -- --multi --cases 500 --procs 1,2,4
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod metamorphic;
pub mod multi;
pub mod mutants;
pub mod oracle;
pub mod rng;
pub mod shrink;
pub mod streaming;

pub use gen::{generate, CaseSpec, Family, TestCase};
pub use multi::{multi_schedulers, DEFAULT_PROCS};
pub use oracle::{CaseOutcome, GapSample, OracleConfig, Violation};
pub use rng::SplitRng;
pub use shrink::Shrunk;
pub use streaming::streaming_schedulers;

use pebblyn_core::{min_feasible_budget, Cdag, Weight};
use pebblyn_engine::par::par_map;
use pebblyn_schedulers::{registry, Scheduler};
use std::fmt;

/// Domain-separation salts: the oracle's value stream and the shrinker's
/// re-check stream must not replay the generator's draws.
const ORACLE_SALT: u64 = 0xA5A5_0123_89AB_CDEF;
const SHRINK_SALT: u64 = 0x5A5A_FEDC_BA98_3210;

/// Harness configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Master seed; every case derives from `(seed, index)`.
    pub seed: u64,
    /// Number of cases to generate and check.
    pub cases: u64,
    /// Oracle knobs.
    pub oracle: OracleConfig,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 3,
            cases: 200,
            oracle: OracleConfig::default(),
        }
    }
}

/// A scheduler set and the relations a run certifies it by.
#[derive(Clone, Copy)]
pub enum Regime<'a> {
    /// The differential [`oracle`] on these schedulers, with exact
    /// certification up to [`OracleConfig::exhaustive_max_nodes`].
    Oracle(&'a [&'a dyn Scheduler]),
    /// The [`multi`] relations on these schedulers at each of these
    /// processor counts.
    Multi(&'a [&'a dyn Scheduler], &'a [usize]),
}

impl Regime<'_> {
    /// The budgets one case is checked at: the oracle's feasibility-aware
    /// sweep, from the Prop. 2.3 minimum up under MULTI.
    pub fn sweep(&self, g: &Cdag) -> Vec<Weight> {
        let mut probes = oracle::budget_probes(g);
        if let Regime::Multi(..) = self {
            let minb = min_feasible_budget(g);
            probes.retain(|&b| b >= minb);
        }
        probes
    }

    /// Check `g` at each budget in `probes` (ascending).
    pub fn check(
        &self,
        g: &Cdag,
        probes: &[Weight],
        cfg: &OracleConfig,
        rng: &mut SplitRng,
    ) -> CaseOutcome {
        match *self {
            Regime::Oracle(schedulers) => oracle::check_graph(g, probes, schedulers, cfg, rng),
            Regime::Multi(schedulers, procs) => {
                let mut out = CaseOutcome::default();
                for &b in probes {
                    out.budgets += 1;
                    multi::check_multi_graph_at(g, b, procs, schedulers, &mut out);
                }
                out
            }
        }
    }
}

/// One failing case, minimized.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Reproduction coordinates of the original case.
    pub spec: CaseSpec,
    /// The original case's one-line description.
    pub label: String,
    /// Every violation the oracle recorded on the original case.
    pub violations: Vec<Violation>,
    /// The greedily minimized `(graph, budget)` reproduction.
    pub shrunk: Shrunk,
    /// The matching violation as it appears on the shrunk case.
    pub shrunk_detail: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "FAIL {}", self.label)?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        writeln!(
            f,
            "  shrunk to {} nodes / {} edges at budget {} ({} steps):",
            self.shrunk.graph.len(),
            self.shrunk.graph.edge_count(),
            self.shrunk.budget,
            self.shrunk.steps
        )?;
        writeln!(f, "    {}", self.shrunk_detail)?;
        for line in self.shrunk.graph.to_dot().lines() {
            writeln!(f, "    {line}")?;
        }
        Ok(())
    }
}

/// Aggregate run report: every checked case's [`CaseOutcome`] summed,
/// with the failing cases shrunk.  Each regime prints the counters that
/// apply to it.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Cases checked.
    pub cases: u64,
    /// Total budget probes across all cases.
    pub budgets: usize,
    /// Total scheduler probes (see [`CaseOutcome::probes`]).
    pub probes: usize,
    /// Scheduler probes at or above the Prop. 2.3 minimum.
    pub feasible_probes: usize,
    /// Probes certified against the exhaustive optimum.
    pub exact_certified: usize,
    /// Probes where the exact search hit its state cap and was skipped.
    pub exact_skipped: usize,
    /// Total states the exact solver expanded across the run — the sweep's
    /// certification cost.
    pub exact_states: usize,
    /// Communication moves observed in replayed multiprocessor schedules.
    pub comm_moves: u64,
    /// Largest observed `cost / lower_bound` ratio ([`GapSample::ratio`]).
    pub worst_gap: f64,
    /// Mean observed `cost / lower_bound` ratio over every sample.
    pub mean_gap: f64,
    /// Failing cases, shrunk.
    pub failures: Vec<Failure>,
}

impl Report {
    /// `true` when no case violated any relation.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Fuzz the real scheduler registry in the exact regime.
pub fn run(cfg: &Config) -> Report {
    run_regime(cfg, Regime::Oracle(registry()))
}

/// Check cases `0..cfg.cases` under `regime`, shrinking every failure.
pub fn run_regime(cfg: &Config, regime: Regime) -> Report {
    drive(cfg, regime, false)
}

/// The one case loop.  With `until_caught` the cases are checked one at a
/// time and the run stops at the first failing case (the mutation smoke's
/// hunt); otherwise they are checked in parallel.
fn drive(cfg: &Config, regime: Regime, until_caught: bool) -> Report {
    let batch = if until_caught { 1 } else { cfg.cases.max(1) };
    let mut report = Report::default();
    let mut gap_sum = 0.0f64;
    let mut gap_count = 0usize;
    let mut next = 0;
    while next < cfg.cases && (report.is_clean() || !until_caught) {
        let indices: Vec<u64> = (next..cfg.cases.min(next + batch)).collect();
        next += batch;
        let outcomes = par_map(&indices, |&idx| {
            let case = generate(cfg.seed, idx);
            let mut rng = SplitRng::for_case(cfg.seed ^ ORACLE_SALT, idx);
            let probes = regime.sweep(&case.graph);
            let out = regime.check(&case.graph, &probes, &cfg.oracle, &mut rng);
            (case, out)
        });
        for (case, out) in outcomes {
            report.cases += 1;
            report.budgets += out.budgets;
            report.probes += out.probes;
            report.feasible_probes += out.feasible_probes;
            report.exact_certified += out.exact_certified;
            report.exact_skipped += out.exact_skipped;
            report.exact_states += out.exact_states;
            report.comm_moves += out.comm_moves;
            for g in &out.gaps {
                let r = g.ratio();
                report.worst_gap = report.worst_gap.max(r);
                gap_sum += r;
                gap_count += 1;
            }
            if !out.violations.is_empty() {
                report
                    .failures
                    .push(shrink_failure(cfg, regime, &case, out.violations));
            }
        }
    }
    if gap_count > 0 {
        report.mean_gap = gap_sum / gap_count as f64;
    }
    report
}

/// Minimize one failing case: shrink `(graph, budget)` while the *same
/// relation* keeps failing.
fn shrink_failure(
    cfg: &Config,
    regime: Regime,
    case: &TestCase,
    violations: Vec<Violation>,
) -> Failure {
    let first = violations[0].clone();
    let check = first.check;
    let seed = cfg.seed ^ SHRINK_SALT;
    let idx = case.spec.index;
    // Monotonicity relations span the whole budget sweep, so their
    // re-check must sweep too; everything else reproduces at the recorded
    // budget, which lets the shrinker minimize the budget as well.
    let sweep_level = matches!(check, "non-monotone" | "exact-non-monotone");

    let recheck = |g: &Cdag, b: Weight| -> Vec<Violation> {
        let mut rng = SplitRng::for_case(seed, idx);
        let probes = if sweep_level {
            regime.sweep(g)
        } else {
            vec![b]
        };
        regime.check(g, &probes, &cfg.oracle, &mut rng).violations
    };

    let shrunk = shrink::shrink(&case.graph, first.budget, |g, b| {
        if sweep_level && b != first.budget {
            return false;
        }
        recheck(g, b).iter().any(|v| v.check == check)
    });

    let shrunk_detail = recheck(&shrunk.graph, shrunk.budget)
        .into_iter()
        .find(|v| v.check == check)
        .map(|v| v.to_string())
        .unwrap_or_else(|| format!("[{check}] (reproduces only on the unshrunk case)"));

    Failure {
        spec: case.spec,
        label: case.label(),
        violations,
        shrunk,
        shrunk_detail,
    }
}

/// Certify the harness itself: inject each known-bad scheduler and hunt
/// it until the oracle objects.  Returns each mutant's name with its
/// hunt's [`Report`]: `cases` counts the cases tried, and the first
/// failing case, shrunk, is the catch.  A mutant whose report stays clean
/// for `cfg.cases` cases escaped — the net has a hole.
pub fn mutation_smoke(cfg: &Config) -> Vec<(String, Report)> {
    mutants::all()
        .iter()
        .map(|m| {
            let report = drive(cfg, Regime::Oracle(&[m.as_ref()]), true);
            (m.name().to_string(), report)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> Config {
        Config {
            seed: 3,
            cases: 24,
            oracle: OracleConfig::default(),
        }
    }

    #[test]
    fn registry_is_clean_on_a_small_run() {
        let report = run(&small_cfg());
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
        assert!(report.exact_certified > 0, "nothing was certified");
    }

    #[test]
    fn every_mutant_is_caught_and_shrunk() {
        let reports = mutation_smoke(&small_cfg());
        assert_eq!(reports.len(), mutants::all().len());
        for (name, r) in &reports {
            let ex = r
                .failures
                .first()
                .unwrap_or_else(|| panic!("{name} escaped the harness"));
            assert!(
                ex.shrunk.graph.len() <= ex.violations.len().max(1) * 12,
                "{name}: shrunk case suspiciously large ({} nodes)",
                ex.shrunk.graph.len()
            );
            assert!(!ex.shrunk_detail.is_empty());
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(&small_cfg());
        let b = run(&small_cfg());
        assert_eq!(a.budgets, b.budgets);
        assert_eq!(a.exact_certified, b.exact_certified);
        assert_eq!(a.exact_skipped, b.exact_skipped);
        assert_eq!(a.failures.len(), b.failures.len());
    }
}
