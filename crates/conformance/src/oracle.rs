//! The differential oracle: every relation a correct scheduler stack must
//! satisfy on one `(graph, budget sweep)` instance.
//!
//! For each generated graph the oracle runs every applicable registered
//! [`Scheduler`] across a feasibility-aware budget sweep and checks the
//! full lattice of relations:
//!
//! 1. **Feasibility** — below [`min_feasible_budget`] every scheduler and
//!    the exact solver decline; at or above it, `naive` (the Prop. 2.3
//!    witness) and the exact solver must succeed.
//! 2. **Validity** — every emitted schedule replays cleanly through
//!    [`validate_moves`] under the *requested* budget.
//! 3. **Cost agreement** — the scheduler's `min_cost` claim equals the
//!    replayed cost; [`occupancy_trace`]'s peak equals the validator's
//!    peak and respects the budget; when enabled, the executable
//!    [`Machine`] measures the same I/O bits and peak while checking
//!    output values against a schedule-free reference evaluation.
//! 4. **Optimality lattice** — the exact optimum is a lower bound on every
//!    heuristic, *equals* the DPs wherever they are certifiably optimal
//!    (see [`certified_optimal`]), sits at or above the algorithmic lower
//!    bound, and reaches exactly the lower bound at ample budget.
//! 5. **Monotonicity** — schedulers advertising [`Scheduler::monotone`]
//!    and the exact solver must be non-increasing in budget.
//!
//! Violations are *collected*, not panicked, so the harness can shrink the
//! offending case before reporting.

use crate::gen::TestCase;
use pebblyn_core::{
    algorithmic_lower_bound, min_feasible_budget, occupancy_trace, validate_moves, Cdag, Weight,
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
    /// Cross-check every schedule on the executable machine with real
    /// values (validates outputs against a reference evaluation).
    machine_replay: bool,
    /// Apply the metamorphic transforms (weight scaling, isomorphism,
    /// IO-scale symmetry).
    metamorphic: bool,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            exhaustive_max_nodes: crate::gen::EXHAUSTIVE.max_nodes,
            max_states: 2_000_000,
            machine_replay: true,
            metamorphic: true,
        }
    }
}

impl OracleConfig {
    /// The exact solver this configuration asks for: the default A\* under
    /// the configured state cap.
    pub fn solver(&self) -> ExactSolver {
        ExactSolver::with_max_states(self.max_states)
    }

    /// Only run the exact solver on graphs with at most `n` nodes.
    pub fn with_exhaustive_max_nodes(mut self, n: usize) -> Self {
        self.exhaustive_max_nodes = n;
        self
    }

    /// Cap the exact solver at `n` expanded states per probe.
    pub fn with_max_states(mut self, n: usize) -> Self {
        self.max_states = n;
        self
    }

    /// Enable or disable machine replay cross-checks.
    pub fn with_machine_replay(mut self, on: bool) -> Self {
        self.machine_replay = on;
        self
    }

    /// Enable or disable the metamorphic transforms.
    pub fn with_metamorphic(mut self, on: bool) -> Self {
        self.metamorphic = on;
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

    /// Whether machine replay cross-checks are enabled.
    pub fn machine_replay(&self) -> bool {
        self.machine_replay
    }

    /// Whether the metamorphic transforms are enabled.
    pub fn metamorphic(&self) -> bool {
        self.metamorphic
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

/// Aggregate result of running the oracle on one case.
#[derive(Debug, Clone, Default)]
pub struct CaseOutcome {
    /// Budgets probed.
    pub budgets: usize,
    /// `(budget)` points certified against the exact optimum.
    pub exact_certified: usize,
    /// Budgets where the exact search hit the state cap and was skipped.
    pub exact_skipped: usize,
    /// Total states the exact solver expanded across this case's probes
    /// (including capped searches) — the cost of certification.
    pub exact_states: usize,
    /// All broken relations found (capped per case).
    pub violations: Vec<Violation>,
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

/// Run the full oracle on one generated case.
pub fn check_case(
    case: &TestCase,
    schedulers: &[&dyn Scheduler],
    cfg: &OracleConfig,
    rng: &mut crate::rng::SplitRng,
) -> CaseOutcome {
    let mut out = CaseOutcome::default();
    check_graph(&case.graph, &case.label(), schedulers, cfg, rng, &mut out);
    out
}

/// Run the oracle on a bare graph at every probe of its budget sweep.
/// (Also the shrinker's re-check entry point, via [`check_graph_at`].)
pub fn check_graph(
    g: &Cdag,
    label: &str,
    schedulers: &[&dyn Scheduler],
    cfg: &OracleConfig,
    rng: &mut crate::rng::SplitRng,
    out: &mut CaseOutcome,
) {
    check_graph_probes(g, label, &budget_probes(g), schedulers, cfg, rng, out);
}

/// Run the oracle on a bare graph at one fixed budget (shrinker re-check).
pub fn check_graph_at(
    g: &Cdag,
    budget: Weight,
    schedulers: &[&dyn Scheduler],
    cfg: &OracleConfig,
    rng: &mut crate::rng::SplitRng,
) -> CaseOutcome {
    let mut out = CaseOutcome::default();
    check_graph_probes(g, "shrink", &[budget], schedulers, cfg, rng, &mut out);
    out
}

#[allow(clippy::too_many_arguments)]
fn check_graph_probes(
    g: &Cdag,
    label: &str,
    probes: &[Weight],
    schedulers: &[&dyn Scheduler],
    cfg: &OracleConfig,
    rng: &mut crate::rng::SplitRng,
    out: &mut CaseOutcome,
) {
    let any = AnyGraph::custom(label, g.clone());
    let minb = min_feasible_budget(g);
    let lb = algorithmic_lower_bound(g);
    let exhaustive = g.len() <= cfg.exhaustive_max_nodes;
    let solver = cfg.solver();

    let ops = lincom_ops(g);
    let inputs: Vec<f64> = (0..g.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();

    let mut exact_costs: Vec<Option<Option<Weight>>> = Vec::with_capacity(probes.len());
    let mut per_sched_costs: Vec<Vec<Option<Weight>>> =
        vec![Vec::with_capacity(probes.len()); schedulers.len()];

    let push = |out: &mut CaseOutcome, v: Violation| {
        if out.violations.len() < MAX_VIOLATIONS_PER_CASE {
            out.violations.push(v);
        }
    };

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
                push(
                    out,
                    Violation {
                        check: "exact-feasibility",
                        scheduler: "exact".into(),
                        budget: b,
                        detail: format!(
                            "exact={exact:?} but min_feasible_budget={minb} (existence criterion)"
                        ),
                    },
                );
            }
            if let Some(c) = exact {
                if c < lb {
                    push(
                        out,
                        Violation {
                            check: "exact-below-lower-bound",
                            scheduler: "exact".into(),
                            budget: b,
                            detail: format!("exact cost {c} < algorithmic lower bound {lb}"),
                        },
                    );
                }
                if b >= g.total_weight() && c != lb {
                    push(
                        out,
                        Violation {
                            check: "exact-ample-budget",
                            scheduler: "exact".into(),
                            budget: b,
                            detail: format!("at ample budget exact cost {c} != lower bound {lb}"),
                        },
                    );
                }
            }
        }

        for (si, s) in schedulers.iter().enumerate() {
            telemetry::incr(telemetry::Counter::Probes);
            let supported = s.supports(&any);
            let sched = s.schedule(&any, b);
            let claimed = s.min_cost(&any, b);

            if !supported {
                if sched.is_ok() || claimed.is_ok() {
                    push(
                        out,
                        Violation {
                            check: "unsupported-but-scheduled",
                            scheduler: s.name().into(),
                            budget: b,
                            detail: "supports() is false but schedule/min_cost succeeded".into(),
                        },
                    );
                }
                per_sched_costs[si].push(None);
                continue;
            }

            if b < minb && (sched.is_ok() || claimed.is_ok()) {
                push(
                    out,
                    Violation {
                        check: "phantom-feasibility",
                        scheduler: s.name().into(),
                        budget: b,
                        detail: format!(
                            "returned a result below the minimum feasible budget {minb}"
                        ),
                    },
                );
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
                        push(
                            out,
                            Violation {
                                check: "infeasible-hint-wrong",
                                scheduler: s.name().into(),
                                budget: b,
                                detail: format!(
                                    "{method} hinted min_feasible={m} but the game minimum is {minb}"
                                ),
                            },
                        );
                    }
                }
            }
            if b >= minb && s.name() == "naive" && sched.is_err() {
                push(
                    out,
                    Violation {
                        check: "witness-missing",
                        scheduler: s.name().into(),
                        budget: b,
                        detail: format!("the Prop. 2.3 witness must exist at budget {b} >= {minb}"),
                    },
                );
            }
            if sched.is_err() && claimed.is_ok() {
                push(
                    out,
                    Violation {
                        check: "cost-without-schedule",
                        scheduler: s.name().into(),
                        budget: b,
                        detail: format!("min_cost={claimed:?} but schedule() declined"),
                    },
                );
            }

            let Ok(sched) = sched else {
                per_sched_costs[si].push(None);
                continue;
            };

            // Independent replay under the *requested* budget.
            let stats = match validate_moves(g, b, sched.iter()) {
                Ok(st) => st,
                Err(e) => {
                    push(
                        out,
                        Violation {
                            check: "invalid-schedule",
                            scheduler: s.name().into(),
                            budget: b,
                            detail: format!("replay rejected: {e}"),
                        },
                    );
                    per_sched_costs[si].push(None);
                    continue;
                }
            };

            match claimed {
                Ok(c) if c == stats.cost => {}
                _ => push(
                    out,
                    Violation {
                        check: "cost-claim-mismatch",
                        scheduler: s.name().into(),
                        budget: b,
                        detail: format!(
                            "min_cost claims {claimed:?} but the replayed schedule costs {}",
                            stats.cost
                        ),
                    },
                ),
            }

            if stats.cost < lb {
                push(
                    out,
                    Violation {
                        check: "below-lower-bound",
                        scheduler: s.name().into(),
                        budget: b,
                        detail: format!("cost {} < algorithmic lower bound {lb}", stats.cost),
                    },
                );
            }

            // Trace agreement: the occupancy curve replays cleanly, its
            // peak is the validator's peak, and it never exceeds the budget.
            let trace_peak =
                occupancy_trace(g, &sched).map(|trace| trace.into_iter().max().unwrap_or(0));
            if trace_peak != Ok(stats.peak_red_weight) || stats.peak_red_weight > b {
                push(
                    out,
                    Violation {
                        check: "trace-peak-mismatch",
                        scheduler: s.name().into(),
                        budget: b,
                        detail: format!(
                            "occupancy_trace peak {trace_peak:?} vs validator peak {} (budget {b})",
                            stats.peak_red_weight
                        ),
                    },
                );
            }

            // Executable machine replay with real values.
            if cfg.machine_replay {
                match Machine::new(g, &ops, b).run(&sched, &inputs) {
                    Ok(report) => {
                        if report.io_bits != stats.cost
                            || report.peak_fast_bits != stats.peak_red_weight
                        {
                            push(
                                out,
                                Violation {
                                    check: "machine-disagrees",
                                    scheduler: s.name().into(),
                                    budget: b,
                                    detail: format!(
                                        "machine measured io={} peak={} vs validator cost={} peak={}",
                                        report.io_bits,
                                        report.peak_fast_bits,
                                        stats.cost,
                                        stats.peak_red_weight
                                    ),
                                },
                            );
                        }
                    }
                    Err(e) => push(
                        out,
                        Violation {
                            check: "machine-rejects",
                            scheduler: s.name().into(),
                            budget: b,
                            detail: format!("machine execution failed: {e}"),
                        },
                    ),
                }
            }

            // Differential: never beat the optimum; optimal DPs match it.
            if let Some(Some(opt)) = exact {
                if stats.cost < opt {
                    push(
                        out,
                        Violation {
                            check: "beats-exact",
                            scheduler: s.name().into(),
                            budget: b,
                            detail: format!(
                                "cost {} below the exhaustive optimum {opt}",
                                stats.cost
                            ),
                        },
                    );
                }
                if certified_optimal(s.name(), g) && stats.cost != opt {
                    push(
                        out,
                        Violation {
                            check: "optimal-dp-suboptimal",
                            scheduler: s.name().into(),
                            budget: b,
                            detail: format!(
                                "provably-optimal DP cost {} != exhaustive optimum {opt}",
                                stats.cost
                            ),
                        },
                    );
                }
            }

            per_sched_costs[si].push(Some(stats.cost));
        }
    }

    // Monotonicity across the sweep (probes are sorted ascending).
    let exact_series: Vec<Option<Weight>> = exact_costs.iter().map(|e| e.flatten()).collect();
    if let Some((b, prev, cur)) = first_monotonicity_break(probes, &exact_series) {
        push(
            out,
            Violation {
                check: "exact-non-monotone",
                scheduler: "exact".into(),
                budget: b,
                detail: format!("exact cost rose from {prev} to {cur} as the budget grew"),
            },
        );
    }
    for (si, s) in schedulers.iter().enumerate() {
        if !s.monotone() {
            continue;
        }
        if let Some((b, prev, cur)) = first_monotonicity_break(probes, &per_sched_costs[si]) {
            push(
                out,
                Violation {
                    check: "non-monotone",
                    scheduler: s.name().into(),
                    budget: b,
                    detail: format!(
                        "monotone() scheduler's cost rose from {prev} to {cur} as the budget grew"
                    ),
                },
            );
        }
    }

    if cfg.metamorphic && out.violations.is_empty() {
        crate::metamorphic::check(g, label, probes, schedulers, cfg, &exact_series, rng, out);
    }
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
            let out = check_case(&case, registry(), &OracleConfig::default(), &mut rng);
            assert!(
                out.violations.is_empty(),
                "case {idx} ({}): {:?}",
                case.label(),
                out.violations
            );
            assert!(out.budgets >= 3);
        }
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
