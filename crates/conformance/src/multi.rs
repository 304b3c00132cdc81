//! The MULTI conformance regime: invariant certification of the
//! multiprocessor schedulers across processor counts.
//!
//! The exact oracle certifies single-processor optimality; nothing like an
//! exhaustive multiprocessor optimum is tractable, so this regime pins the
//! multiprocessor schedulers (`partition-belady`, `comm-list`) to the
//! relations that *are* checkable, on the same generator families and
//! feasibility-aware budget probes as the other regimes:
//!
//! 1. **Feasibility** — at or above the Proposition 2.3 minimum per
//!    processor, both schedulers must produce a schedule for every CDAG at
//!    every probed processor count.
//! 2. **Replay** — the schedule replays cleanly through
//!    [`validate_multi_schedule`]; the replayed per-processor red peaks
//!    respect every processor's budget (re-asserted outside the validator
//!    so a validator regression cannot mask a scheduler one).
//! 3. **I/O floor** — replayed I/O cost (loads + stores, communication
//!    excluded) sits at or above [`algorithmic_lower_bound`]: every source
//!    still enters fast memory at least once and every sink is still
//!    stored, no matter how many processors participate.
//! 4. **Makespan floor** — the makespan covers both the weighted compute
//!    critical path (dependencies serialize across processors through
//!    stores/communication) and the average work bound
//!    `ceil(total compute weight / p)`.
//! 5. **p = 1 identity** — on a uniprocessor machine both multiprocessor
//!    schedulers project to *byte-identical* `greedy-belady` move streams:
//!    the multiprocessor surface is a strict extension, not a fork.
//! 6. **Monotonicity in p** — `partition-belady` selects the best machine
//!    prefix, so its `(makespan, total cost)` objective never worsens as
//!    processors are added at a fixed per-processor budget.
//! 7. **Work conservation** — `comm-list` dispatches to the least-loaded
//!    processor, so it must occupy at least `min(p, computed nodes)`
//!    processors.
//!
//! The harness runs these relations as [`Regime::Multi`](crate::Regime):
//! the same case loop, report and shrinker as the other regimes, at the
//! oracle's budget probes from the Prop. 2.3 minimum up (below it the
//! multiprocessor surface declines uniformly; nothing to learn).

use crate::oracle::{CaseOutcome, Violation};
use pebblyn_core::{
    algorithmic_lower_bound, min_feasible_budget, validate_multi_schedule, Cdag, MachineSpec,
    MultiSchedule, Weight,
};
use pebblyn_graphs::AnyGraph;
use pebblyn_schedulers::{by_name, Scheduler};
use pebblyn_telemetry as telemetry;

/// The multiprocessor schedulers this regime certifies, resolved from the
/// live registry so the regime and the CLI can never disagree.
///
/// # Panics
///
/// Panics if either scheduler is missing from the registry — a wiring bug,
/// not a conformance finding.
pub fn multi_schedulers() -> Vec<&'static dyn Scheduler> {
    ["partition-belady", "comm-list"]
        .into_iter()
        .map(|n| by_name(n).unwrap_or_else(|| panic!("{n} missing from the registry")))
        .collect()
}

/// The processor counts a default MULTI run sweeps.
pub const DEFAULT_PROCS: &[usize] = &[1, 2, 4];

/// The weighted compute critical path: the heaviest compute-weight chain,
/// a makespan floor no processor count can beat.
fn critical_path(g: &Cdag) -> Weight {
    let mut down = vec![0 as Weight; g.len()];
    let mut best = 0;
    for &v in g.topo_order().iter().rev() {
        let tail = g
            .succs(v)
            .iter()
            .map(|&s| down[s.index()])
            .max()
            .unwrap_or(0);
        let own = if g.is_source(v) { 0 } else { g.weight(v) };
        down[v.index()] = own + tail;
        best = best.max(down[v.index()]);
    }
    best
}

/// Check the multiprocessor schedulers on one `(graph, budget)` probe at
/// every processor count in `procs`, recording into `out`.  Pure — no
/// RNG — so the shrinker can re-invoke it at any budget.
pub fn check_multi_graph_at(
    g: &Cdag,
    budget: Weight,
    procs: &[usize],
    schedulers: &[&dyn Scheduler],
    out: &mut CaseOutcome,
) {
    let minb = min_feasible_budget(g);
    let lb = algorithmic_lower_bound(g);
    let cp = critical_path(g);
    let work: Weight = g
        .nodes()
        .filter(|&v| !g.is_source(v))
        .map(|v| g.weight(v))
        .sum();
    let computes = g.nodes().filter(|&v| !g.is_source(v)).count();
    let any = AnyGraph::custom("multi", g.clone());
    let single = pebblyn_schedulers::greedy_belady::schedule(g, budget);

    for s in schedulers {
        // (makespan, total cost) of the previous processor count, for the
        // partition scheduler's monotonicity relation.
        let mut prev_key: Option<(Weight, Weight)> = None;
        for &p in procs {
            telemetry::incr(telemetry::Counter::Probes);
            out.probes += 1;
            if budget >= minb {
                out.feasible_probes += 1;
            }
            let spec = MachineSpec::symmetric(p, budget);
            let fail = |check: &'static str, detail: String| Violation {
                check,
                scheduler: format!("{}@p{p}", s.name()),
                budget,
                detail,
            };
            let ms: MultiSchedule = match s.schedule_multi(&any, &spec) {
                Ok(ms) => ms,
                Err(e) => {
                    if budget >= minb {
                        out.push(fail(
                            "multi-infeasible",
                            format!("declined a feasible budget ({minb} bits suffice): {e}"),
                        ));
                    }
                    continue;
                }
            };
            if budget < minb {
                out.push(fail(
                    "multi-phantom-feasibility",
                    format!("produced a schedule below the Prop. 2.3 minimum ({minb} bits)"),
                ));
                continue;
            }
            let stats = match validate_multi_schedule(g, &spec, &ms) {
                Ok(stats) => stats,
                Err(e) => {
                    out.push(fail("multi-invalid", format!("replay rejected: {e}")));
                    continue;
                }
            };
            out.comm_moves += stats.comm_moves;
            if let Some((q, &peak)) = stats
                .peak_red
                .iter()
                .enumerate()
                .find(|&(q, &peak)| peak > spec.proc_budget(q))
            {
                out.push(fail(
                    "multi-budget-exceeded",
                    format!(
                        "processor {q} peaked at {peak} over budget {}",
                        spec.proc_budget(q)
                    ),
                ));
                continue;
            }
            if stats.io_cost < lb {
                out.push(fail(
                    "multi-below-lower-bound",
                    format!("I/O cost {} < algorithmic lower bound {lb}", stats.io_cost),
                ));
            }
            let span_floor = cp.max(work.div_ceil(p as Weight));
            if stats.makespan < span_floor {
                out.push(fail(
                    "multi-makespan-floor",
                    format!(
                        "makespan {} < max(critical path {cp}, work/p {})",
                        stats.makespan,
                        work.div_ceil(p as Weight)
                    ),
                ));
            }
            if p == 1 {
                match (&single, ms.project_single()) {
                    (Some(expected), Some(projected)) if &projected == expected => {}
                    (Some(_), got) => out.push(fail(
                        "multi-p1-divergence",
                        format!(
                            "p=1 projection is not byte-identical to greedy-belady \
                             (projected {} moves)",
                            got.map(|s| s.len()).unwrap_or(0)
                        ),
                    )),
                    (None, _) => out.push(fail(
                        "multi-p1-divergence",
                        "scheduled at p=1 where greedy-belady is infeasible".to_string(),
                    )),
                }
                if stats.comm_moves != 0 {
                    out.push(fail(
                        "multi-p1-comm",
                        format!("{} communication moves on one processor", stats.comm_moves),
                    ));
                }
            }
            if s.name() == "partition-belady" {
                let key = (stats.makespan, stats.total_cost());
                if let Some(prev) = prev_key {
                    if key > prev {
                        out.push(fail(
                            "multi-non-monotone",
                            format!(
                                "objective worsened with more processors: {key:?} after {prev:?}"
                            ),
                        ));
                    }
                }
                prev_key = Some(key);
            }
            if s.name() == "comm-list" && stats.procs_used() < p.min(computes) {
                out.push(fail(
                    "multi-not-work-conserving",
                    format!(
                        "used {} of {p} processors with {computes} computed nodes",
                        stats.procs_used()
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::OracleConfig;
    use crate::rng::SplitRng;
    use crate::{generate, run_regime, Config, Regime};
    use pebblyn_core::CdagBuilder;

    fn small_cfg() -> Config {
        Config {
            seed: 3,
            cases: 16,
            ..Config::default()
        }
    }

    /// Every relation the regime checks on `g`, across its sweep.
    fn check_multi_graph(g: &Cdag, procs: &[usize], schedulers: &[&dyn Scheduler]) -> CaseOutcome {
        let regime = Regime::Multi(schedulers, procs);
        regime.check(
            g,
            &regime.sweep(g),
            &OracleConfig::default(),
            &mut SplitRng::new(0),
        )
    }

    #[test]
    fn registry_multi_pair_is_clean_on_a_small_run() {
        let report = run_regime(
            &small_cfg(),
            Regime::Multi(&multi_schedulers(), DEFAULT_PROCS),
        );
        assert!(
            report.is_clean(),
            "violations: {:#?}",
            report
                .failures
                .iter()
                .map(|f| &f.violations)
                .collect::<Vec<_>>()
        );
        assert_eq!(report.cases, 16);
        assert!(report.probes > 0, "nothing was probed");
    }

    #[test]
    fn multi_runs_are_deterministic() {
        let schedulers = multi_schedulers();
        let a = run_regime(&small_cfg(), Regime::Multi(&schedulers, DEFAULT_PROCS));
        let b = run_regime(&small_cfg(), Regime::Multi(&schedulers, DEFAULT_PROCS));
        assert_eq!(a.probes, b.probes);
        assert_eq!(a.comm_moves, b.comm_moves);
        assert_eq!(a.failures.len(), b.failures.len());
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
        let out = check_multi_graph(&g, DEFAULT_PROCS, &multi_schedulers());
        assert!(out.violations.is_empty(), "{:#?}", out.violations);
        assert!(out.probes > 0);
    }

    /// A deliberately broken "multiprocessor" scheduler — it silently drops
    /// the last compute — must be caught by the replay check.
    #[test]
    fn a_truncating_mutant_is_caught() {
        use pebblyn_core::{MultiSchedule, Weight};
        use pebblyn_schedulers::{api, ScheduleError};

        struct Truncating;
        impl api::sealed::Sealed for Truncating {}
        impl Scheduler for Truncating {
            fn name(&self) -> &str {
                "truncating"
            }
            fn supports(&self, _g: &AnyGraph) -> bool {
                true
            }
            fn schedule(
                &self,
                g: &AnyGraph,
                budget: Weight,
            ) -> Result<pebblyn_core::Schedule, ScheduleError> {
                pebblyn_schedulers::greedy_belady::schedule(g.cdag(), budget)
                    .ok_or(ScheduleError::InfeasibleBudget { min_feasible: None })
            }
            fn supports_machine(&self, _g: &AnyGraph, _spec: &MachineSpec) -> bool {
                true
            }
            fn schedule_multi(
                &self,
                g: &AnyGraph,
                spec: &MachineSpec,
            ) -> Result<MultiSchedule, ScheduleError> {
                let full = self.schedule(g, spec.proc_budget(0))?;
                let moves: Vec<_> = full.iter().collect();
                let cut = moves.len().saturating_sub(1);
                Ok(MultiSchedule::from_single(
                    &pebblyn_core::Schedule::from_moves(moves[..cut].to_vec()),
                ))
            }
        }

        let schedulers: Vec<&dyn Scheduler> = vec![&Truncating];
        let cfg = small_cfg();
        for idx in 0..cfg.cases {
            let case = generate(cfg.seed, idx);
            let out = check_multi_graph(&case.graph, &[2], &schedulers);
            if out.violations.iter().any(|v| v.check == "multi-invalid") {
                return;
            }
        }
        panic!("truncating mutant escaped the MULTI regime");
    }
}
