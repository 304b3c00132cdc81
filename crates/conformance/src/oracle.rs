//! The differential oracle: every relation a correct scheduler stack must
//! satisfy on one `(graph, budget sweep)` instance.
//!
//! For each generated graph the oracle runs every scheduler it is given
//! across a feasibility-aware budget sweep and checks the full lattice of
//! relations:
//!
//! 1. **Feasibility** — below [`min_feasible_budget`] every scheduler and
//!    the exact solver decline; at or above it the exact solver succeeds.
//!    The [`ALWAYS_FEASIBLE`] schedulers support every CDAG, schedule at
//!    every budget at or above the minimum, and below it refuse with the
//!    minimum as their hint.
//! 2. **Validity** — every emitted schedule replays cleanly through
//!    [`validate_moves`] under the *requested* budget.
//! 3. **Cost agreement** — the scheduler's `min_cost` claim equals the
//!    replayed cost; [`occupancy_trace`]'s peak equals the validator's
//!    peak and respects the budget; the executable [`Machine`] measures
//!    the same I/O bits and peak while checking output values against a
//!    schedule-free reference evaluation.
//! 4. **Optimality lattice** — the exact optimum is a lower bound on every
//!    heuristic, *equals* the DPs wherever they are certifiably optimal
//!    (see [`certified_optimal`]), sits at or above the algorithmic lower
//!    bound, and reaches exactly the lower bound at ample budget.  Every
//!    replayed cost sits at or above that bound too, and its distance from
//!    it is recorded as a [`GapSample`].
//! 5. **Monotonicity** — schedulers advertising [`Scheduler::monotone`]
//!    and the exact solver must be non-increasing in budget.
//! 6. **Metamorphic** — the transforms in [`crate::metamorphic`].
//!
//! The exact solver runs only on graphs within
//! [`OracleConfig::exhaustive_max_nodes`]; at a ceiling of 0 the oracle is
//! invariant-only (the STREAMING regime, [`crate::streaming`]).
//! Violations are *collected*, not panicked, so the harness can shrink the
//! offending case before reporting.

use pebblyn_core::{
    algorithmic_lower_bound, min_feasible_budget, occupancy_trace, validate_moves, Cdag, Schedule,
    Weight,
};
use pebblyn_exact::ExactSolver;
use pebblyn_graphs::AnyGraph;
use pebblyn_machine::{Machine, Op, OpTable};
use pebblyn_schedulers::{kary, ScheduleError, Scheduler};
use pebblyn_telemetry as telemetry;
use rand::Rng;
use std::fmt;

/// Is `scheduler` *certifiably* optimal on this graph, so the oracle may
/// demand equality with the exhaustive optimum (not merely `>=`)?
///
/// `dwt-opt` is provably optimal on every graph it supports.  The k-ary
/// Eq. (6) DP is optimal only within *contiguous* subtree evaluations, so
/// equality is asserted just where that restriction is provably lossless
/// ([`kary::contiguous_evaluation_safe`]); on other weighted in-trees the
/// DP can be genuinely suboptimal — the fuzzer shrank a 7-node witness,
/// pinned in `kary`'s unit tests — and only the `>=` bound applies.
pub fn certified_optimal(scheduler: &str, g: &Cdag) -> bool {
    match scheduler {
        "dwt-opt" => true,
        "kary" => kary::contiguous_evaluation_safe(g),
        _ => false,
    }
}

/// Schedulers held to Proposition 2.3 exactly: they support every CDAG,
/// schedule at every budget at or above [`min_feasible_budget`], and below
/// it refuse with `InfeasibleBudget { min_feasible: Some(_) }`.  `naive`
/// is the proposition's witness; the streaming pair is built to the same
/// contract.
pub const ALWAYS_FEASIBLE: [&str; 3] = ["naive", "topo-window", "slab-partition"];

/// Oracle tuning knobs.
///
/// Constructed with [`OracleConfig::default`] and refined through the
/// `with_*` builder methods; the fields themselves are fully private so
/// configuration flows through one audited surface (each has a matching
/// getter).
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Run the exact solver when the graph has at most this many nodes.
    exhaustive_max_nodes: usize,
    /// Exact-solver expanded-state cap; budgets whose search exceeds it are
    /// downgraded to invariant-only (counted in `exact_skipped`).
    max_states: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            exhaustive_max_nodes: crate::gen::EXHAUSTIVE.max_nodes,
            max_states: 2_000_000,
        }
    }
}

impl OracleConfig {
    /// The exact solver this configuration asks for: the default A\* under
    /// the configured state cap.
    pub fn solver(&self) -> ExactSolver {
        ExactSolver::with_max_states(self.max_states)
    }

    /// Only run the exact solver on graphs with at most `n` nodes (0 turns
    /// exact certification off).
    pub fn with_exhaustive_max_nodes(mut self, n: usize) -> Self {
        self.exhaustive_max_nodes = n;
        self
    }

    /// Cap the exact solver at `n` expanded states per probe.
    pub fn with_max_states(mut self, n: usize) -> Self {
        self.max_states = n;
        self
    }

    /// The configured expanded-state cap.
    pub fn max_states(&self) -> usize {
        self.max_states
    }

    /// The configured exhaustive-regime node ceiling.
    pub fn exhaustive_max_nodes(&self) -> usize {
        self.exhaustive_max_nodes
    }
}

/// One broken relation, with enough context to reproduce and attribute it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which oracle relation failed (stable identifier).
    pub check: &'static str,
    /// The scheduler at fault (`"exact"` / `"oracle"` for solver-level
    /// relations).
    pub scheduler: String,
    /// The budget probed when the relation broke.
    pub budget: Weight,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] scheduler={} budget={}: {}",
            self.check, self.scheduler, self.budget, self.detail
        )
    }
}

/// One feasible probe's observed distance from the Prop. 2.4 floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapSample {
    /// Replayed schedule cost (weighted I/O bits).
    pub cost: Weight,
    /// [`algorithmic_lower_bound`] of the probed graph.
    pub lower_bound: Weight,
}

impl GapSample {
    /// `cost / lower_bound` — `1.0` means the schedule hit the floor.
    ///
    /// The lower bound is strictly positive on every valid CDAG (sources
    /// and sinks have positive weights), so the ratio is always finite.
    pub fn ratio(&self) -> f64 {
        self.cost as f64 / self.lower_bound as f64
    }
}

/// What checking one case found, in every regime: the counters the run
/// report sums, and the broken relations the shrinker minimizes.
#[derive(Debug, Clone, Default)]
pub struct CaseOutcome {
    /// Budgets probed.
    pub budgets: usize,
    /// Scheduler probes: one per `(scheduler, budget)`, and per processor
    /// count under MULTI.
    pub probes: usize,
    /// Scheduler probes at or above the Prop. 2.3 minimum.
    pub feasible_probes: usize,
    /// `(budget)` points certified against the exact optimum.
    pub exact_certified: usize,
    /// Budgets where the exact search hit the state cap and was skipped.
    pub exact_skipped: usize,
    /// Total states the exact solver expanded across this case's probes
    /// (including capped searches) — the cost of certification.
    pub exact_states: usize,
    /// Communication moves in the replayed multiprocessor schedules.
    pub comm_moves: u64,
    /// One sample per schedule that replayed cleanly, in probe order.
    pub gaps: Vec<GapSample>,
    /// All broken relations found (capped per case).
    pub violations: Vec<Violation>,
}

impl CaseOutcome {
    /// Record a broken relation, up to the per-case cap.
    pub fn push(&mut self, v: Violation) {
        if self.violations.len() < MAX_VIOLATIONS_PER_CASE {
            self.violations.push(v);
        }
    }
}

/// Cap on recorded violations per case — one bad scheduler fails most
/// relations at most budgets; a handful of samples is enough to shrink.
const MAX_VIOLATIONS_PER_CASE: usize = 8;

/// The feasibility-aware budget sweep for a graph: one infeasible probe,
/// the feasibility threshold, one step above it, the midpoint of the
/// interesting range, and the ample budget where every solver must reach
/// the lower bound.
pub fn budget_probes(g: &Cdag) -> Vec<Weight> {
    let minb = min_feasible_budget(g);
    let step = g.weight_gcd().max(1);
    let total = g.total_weight();
    let mut probes = vec![
        minb.saturating_sub(1),
        minb,
        minb + step,
        minb + (total.saturating_sub(minb) / 2) / step * step,
        total,
    ];
    probes.sort_unstable();
    probes.dedup();
    probes
}

/// How an [`ALWAYS_FEASIBLE`] scheduler broke its contract at budget `b`,
/// if it did.  A schedule below the minimum is `phantom-feasibility`'s
/// finding and a wrong hint `infeasible-hint-wrong`'s, so neither is
/// repeated here.
fn always_feasible_breach(
    supported: bool,
    sched: &Result<Schedule, ScheduleError>,
    b: Weight,
    minb: Weight,
) -> Option<String> {
    if !supported {
        return Some("supports() is false, but it must support every CDAG".into());
    }
    match sched {
        Err(e) if b >= minb => Some(format!(
            "declined budget {b} at or above the Prop. 2.3 minimum {minb}: {e}"
        )),
        Ok(_)
        | Err(ScheduleError::InfeasibleBudget {
            min_feasible: Some(_),
        }) => None,
        Err(e) => Some(format!(
            "below the Prop. 2.3 minimum {minb} it must refuse with that minimum \
             as its hint, got: {e}"
        )),
    }
}

/// Run the oracle on `g` at each budget in `probes` (ascending): the
/// whole sweep for a case, or one budget when the shrinker re-checks.
pub fn check_graph(
    g: &Cdag,
    probes: &[Weight],
    schedulers: &[&dyn Scheduler],
    cfg: &OracleConfig,
    rng: &mut crate::rng::SplitRng,
) -> CaseOutcome {
    let mut out = CaseOutcome::default();
    let any = AnyGraph::custom("conformance", g.clone());
    let minb = min_feasible_budget(g);
    let lb = algorithmic_lower_bound(g);
    let exhaustive = g.len() <= cfg.exhaustive_max_nodes;
    let solver = cfg.solver();

    let ops = lincom_ops(g);
    let inputs: Vec<f64> = (0..g.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();

    let mut exact_costs: Vec<Option<Option<Weight>>> = Vec::with_capacity(probes.len());
    let mut per_sched_costs: Vec<Vec<Option<Weight>>> =
        vec![Vec::with_capacity(probes.len()); schedulers.len()];

    for &b in probes {
        out.budgets += 1;

        // Exact optimum for this budget, if exhaustible.
        let exact: Option<Option<Weight>> = if exhaustive {
            match solver.solve(g, b) {
                Ok(sol) => {
                    out.exact_certified += 1;
                    out.exact_states += sol.stats.expanded;
                    telemetry::incr(telemetry::Counter::ProbesCertified);
                    Some(sol.cost)
                }
                Err(e) => {
                    out.exact_skipped += 1;
                    out.exact_states += e.states_expanded();
                    telemetry::incr(telemetry::Counter::ProbesSkipped);
                    None
                }
            }
        } else {
            None
        };
        exact_costs.push(exact);

        if let Some(exact) = exact {
            // Prop. 2.3: the exact solver finds a schedule iff b >= minb.
            if exact.is_some() != (b >= minb) {
                out.push(Violation {
                    check: "exact-feasibility",
                    scheduler: "exact".into(),
                    budget: b,
                    detail: format!(
                        "exact={exact:?} but min_feasible_budget={minb} (existence criterion)"
                    ),
                });
            }
            if let Some(c) = exact {
                if c < lb {
                    out.push(Violation {
                        check: "exact-below-lower-bound",
                        scheduler: "exact".into(),
                        budget: b,
                        detail: format!("exact cost {c} < algorithmic lower bound {lb}"),
                    });
                }
                if b >= g.total_weight() && c != lb {
                    out.push(Violation {
                        check: "exact-ample-budget",
                        scheduler: "exact".into(),
                        budget: b,
                        detail: format!("at ample budget exact cost {c} != lower bound {lb}"),
                    });
                }
            }
        }

        for (si, s) in schedulers.iter().enumerate() {
            telemetry::incr(telemetry::Counter::Probes);
            out.probes += 1;
            if b >= minb {
                out.feasible_probes += 1;
            }
            let supported = s.supports(&any);
            let sched = s.schedule(&any, b);
            let claimed = s.min_cost(&any, b);
            let fail = |check: &'static str, detail: String| Violation {
                check,
                scheduler: s.name().into(),
                budget: b,
                detail,
            };

            if ALWAYS_FEASIBLE.contains(&s.name()) {
                if let Some(detail) = always_feasible_breach(supported, &sched, b, minb) {
                    out.push(fail("always-feasible", detail));
                }
            }
            if !supported {
                if sched.is_ok() || claimed.is_ok() {
                    out.push(fail(
                        "unsupported-but-scheduled",
                        "supports() is false but schedule/min_cost succeeded".into(),
                    ));
                }
                per_sched_costs[si].push(None);
                continue;
            }

            if b < minb && (sched.is_ok() || claimed.is_ok()) {
                out.push(fail(
                    "phantom-feasibility",
                    format!("returned a result below the minimum feasible budget {minb}"),
                ));
            }
            // A `min_feasible` hint asserts *no* algorithm can schedule
            // below it (Prop. 2.3), so it must equal the game minimum.
            for (method, r) in [
                ("schedule", sched.as_ref().err()),
                ("min_cost", claimed.as_ref().err()),
            ] {
                if let Some(ScheduleError::InfeasibleBudget {
                    min_feasible: Some(m),
                }) = r
                {
                    if *m != minb || b >= *m {
                        out.push(fail(
                            "infeasible-hint-wrong",
                            format!(
                                "{method} hinted min_feasible={m} but the game minimum is {minb}"
                            ),
                        ));
                    }
                }
            }
            if sched.is_err() && claimed.is_ok() {
                out.push(fail(
                    "cost-without-schedule",
                    format!("min_cost={claimed:?} but schedule() declined"),
                ));
            }

            let Ok(sched) = sched else {
                per_sched_costs[si].push(None);
                continue;
            };

            // Independent replay under the *requested* budget.
            let stats = match validate_moves(g, b, sched.iter()) {
                Ok(st) => st,
                Err(e) => {
                    out.push(fail("invalid-schedule", format!("replay rejected: {e}")));
                    per_sched_costs[si].push(None);
                    continue;
                }
            };
            out.gaps.push(GapSample {
                cost: stats.cost,
                lower_bound: lb,
            });

            match claimed {
                Ok(c) if c == stats.cost => {}
                _ => out.push(fail(
                    "cost-claim-mismatch",
                    format!(
                        "min_cost claims {claimed:?} but the replayed schedule costs {}",
                        stats.cost
                    ),
                )),
            }

            if stats.cost < lb {
                out.push(fail(
                    "below-lower-bound",
                    format!("cost {} < algorithmic lower bound {lb}", stats.cost),
                ));
            }

            // Trace agreement: the occupancy curve replays cleanly, its
            // peak is the validator's peak, and it never exceeds the budget.
            let trace_peak =
                occupancy_trace(g, &sched).map(|trace| trace.into_iter().max().unwrap_or(0));
            if trace_peak != Ok(stats.peak_red_weight) || stats.peak_red_weight > b {
                out.push(fail(
                    "trace-peak-mismatch",
                    format!(
                        "occupancy_trace peak {trace_peak:?} vs validator peak {} (budget {b})",
                        stats.peak_red_weight
                    ),
                ));
            }

            // Executable machine replay with real values.
            match Machine::new(g, &ops, b).run(&sched, &inputs) {
                Ok(report) => {
                    if report.io_bits != stats.cost
                        || report.peak_fast_bits != stats.peak_red_weight
                    {
                        out.push(fail(
                            "machine-disagrees",
                            format!(
                                "machine measured io={} peak={} vs validator cost={} peak={}",
                                report.io_bits,
                                report.peak_fast_bits,
                                stats.cost,
                                stats.peak_red_weight
                            ),
                        ));
                    }
                }
                Err(e) => out.push(fail(
                    "machine-rejects",
                    format!("machine execution failed: {e}"),
                )),
            }

            // Differential: never beat the optimum; optimal DPs match it.
            if let Some(Some(opt)) = exact {
                if stats.cost < opt {
                    out.push(fail(
                        "beats-exact",
                        format!("cost {} below the exhaustive optimum {opt}", stats.cost),
                    ));
                }
                if certified_optimal(s.name(), g) && stats.cost != opt {
                    out.push(fail(
                        "optimal-dp-suboptimal",
                        format!(
                            "provably-optimal DP cost {} != exhaustive optimum {opt}",
                            stats.cost
                        ),
                    ));
                }
            }

            per_sched_costs[si].push(Some(stats.cost));
        }
    }

    // Monotonicity across the sweep (probes are sorted ascending).
    let exact_series: Vec<Option<Weight>> = exact_costs.iter().map(|e| e.flatten()).collect();
    if let Some((b, prev, cur)) = first_monotonicity_break(probes, &exact_series) {
        out.push(Violation {
            check: "exact-non-monotone",
            scheduler: "exact".into(),
            budget: b,
            detail: format!("exact cost rose from {prev} to {cur} as the budget grew"),
        });
    }
    for (si, s) in schedulers.iter().enumerate() {
        if !s.monotone() {
            continue;
        }
        if let Some((b, prev, cur)) = first_monotonicity_break(probes, &per_sched_costs[si]) {
            out.push(Violation {
                check: "non-monotone",
                scheduler: s.name().into(),
                budget: b,
                detail: format!(
                    "monotone() scheduler's cost rose from {prev} to {cur} as the budget grew"
                ),
            });
        }
    }

    if out.violations.is_empty() {
        crate::metamorphic::check(g, probes, schedulers, cfg, &exact_series, rng, &mut out);
    }
    out
}

/// First `(budget, previous cost, current cost)` where a cost series rises
/// with the budget (`None` gaps are skipped: a scheduler may decline).
fn first_monotonicity_break(
    probes: &[Weight],
    costs: &[Option<Weight>],
) -> Option<(Weight, Weight, Weight)> {
    let mut prev: Option<Weight> = None;
    for (&b, &c) in probes.iter().zip(costs) {
        if let Some(c) = c {
            if let Some(p) = prev {
                if c > p {
                    return Some((b, p, c));
                }
            }
            prev = Some(c);
        }
    }
    None
}

/// A generic op table for arbitrary CDAGs: sources are inputs, every
/// computed node sums its operands — enough for the machine to verify
/// value correctness against its reference evaluation.
pub fn lincom_ops(g: &Cdag) -> OpTable {
    let ops: Vec<Op> = g
        .nodes()
        .map(|v| {
            if g.is_source(v) {
                Op::Input
            } else {
                Op::LinCom(vec![1.0; g.in_degree(v)])
            }
        })
        .collect();
    OpTable::new(g, ops).expect("lincom table matches arities by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::rng::SplitRng;
    use pebblyn_schedulers::registry;

    #[test]
    fn clean_on_a_handful_of_cases() {
        for idx in 0..12 {
            let case = generate(1, idx);
            let mut rng = SplitRng::for_case(1, 1000 + idx);
            let probes = budget_probes(&case.graph);
            let out = check_graph(
                &case.graph,
                &probes,
                registry(),
                &OracleConfig::default(),
                &mut rng,
            );
            assert!(
                out.violations.is_empty(),
                "case {idx} ({}): {:?}",
                case.label(),
                out.violations
            );
            assert!(out.budgets >= 3);
        }
    }

    /// A scheduler wearing a registry name, broken one of two ways: it
    /// reports `supports() == false`, or it supports every graph but
    /// refuses every budget with the (correct) Prop. 2.3 hint.
    struct Refuser {
        name: &'static str,
        supports: bool,
    }

    impl pebblyn_schedulers::api::sealed::Sealed for Refuser {}

    impl Scheduler for Refuser {
        fn name(&self) -> &str {
            self.name
        }
        fn supports(&self, _g: &AnyGraph) -> bool {
            self.supports
        }
        fn schedule(&self, g: &AnyGraph, _budget: Weight) -> Result<Schedule, ScheduleError> {
            Err(ScheduleError::InfeasibleBudget {
                min_feasible: Some(min_feasible_budget(g.cdag())),
            })
        }
    }

    fn always_feasible_budgets(s: &Refuser, g: &Cdag) -> Vec<Weight> {
        let cfg = OracleConfig::default().with_exhaustive_max_nodes(0);
        let out = check_graph(
            g,
            &budget_probes(g),
            &[s as &dyn Scheduler],
            &cfg,
            &mut SplitRng::new(7),
        );
        out.violations
            .iter()
            .filter(|v| v.check == "always-feasible")
            .map(|v| v.budget)
            .collect()
    }

    #[test]
    fn always_feasible_relation_fires_on_declines_and_on_unsupported() {
        let g = generate(1, 0).graph;
        let minb = min_feasible_budget(&g);
        let probes = budget_probes(&g);
        assert!(probes[0] < minb);

        // Declining a feasible budget breaks the contract; the hinted
        // refusal below the minimum is exactly what it asks for.
        let declines = Refuser {
            name: "topo-window",
            supports: true,
        };
        let fired = always_feasible_budgets(&declines, &g);
        assert!(fired.contains(&minb), "{fired:?}");
        assert!(fired.iter().all(|&b| b >= minb), "{fired:?}");

        // An always-feasible scheduler must support every CDAG.
        let unsupported = Refuser {
            name: "naive",
            supports: false,
        };
        assert!(always_feasible_budgets(&unsupported, &g).contains(&probes[0]));

        // The relation binds the listed schedulers only.
        let unlisted = Refuser {
            name: "layer-by-layer",
            supports: true,
        };
        assert!(always_feasible_budgets(&unlisted, &g).is_empty());
    }

    #[test]
    fn probes_are_sorted_and_bracket_feasibility() {
        let case = generate(2, 0);
        let probes = budget_probes(&case.graph);
        let minb = min_feasible_budget(&case.graph);
        assert!(probes.windows(2).all(|w| w[0] < w[1]));
        assert!(probes.contains(&minb));
        assert!(probes.iter().any(|&b| b < minb));
        assert!(probes.iter().any(|&b| b >= case.graph.total_weight()));
    }
}
