//! Metamorphic relations: transforms of a case whose effect on cost is
//! known *a priori*, so the transformed instance needs no independent
//! oracle.
//!
//! Three transforms:
//!
//! * **Uniform weight scaling** — multiplying every node weight by `s`
//!   turns any schedule valid at budget `b` into one valid at `s·b` with
//!   exactly `s×` the cost and peak (the game rules are linear in the
//!   weights), and scales the exact optimum by the same factor.
//! * **Node relabeling (isomorphism)** — rebuilding the graph under a
//!   random node permutation and pushing a schedule through
//!   [`Schedule::map_nodes`] must preserve validity, cost, and peak
//!   exactly; the exact optimum is isomorphism-invariant.
//! * **IO-scale symmetry** — the exact solver under uniform I/O scales
//!   `(a, a)` must report exactly `a×` its unscaled optimum, and under
//!   asymmetric scales `(ls, ss)` must land between `min(ls, ss)×` the
//!   unscaled optimum and the scaled replay cost of the unscaled optimal
//!   schedule.
//!
//! All three run on a single mid-sweep budget per case (they multiply the
//! exact-solver work, which dominates runtime).

use crate::oracle::{CaseOutcome, OracleConfig, Violation};
use crate::rng::SplitRng;
use pebblyn_core::{min_feasible_budget, validate_moves, Cdag, CdagBuilder, NodeId, Weight};
use pebblyn_graphs::AnyGraph;
use pebblyn_schedulers::Scheduler;
use rand::Rng;

/// Rebuild `g` with every weight multiplied by `s`.
pub fn scale_weights(g: &Cdag, s: Weight) -> Cdag {
    let mut b = CdagBuilder::with_capacity(g.len());
    for v in g.nodes() {
        b.node(g.weight(v) * s, g.name(v).to_string());
    }
    for v in g.nodes() {
        for &p in g.preds(v) {
            b.edge(p, v);
        }
    }
    b.build().expect("scaling weights preserves structure")
}

/// Rebuild `g` with node identities permuted by `perm` (old id `v` becomes
/// new id `perm[v]`).
pub fn permute_nodes(g: &Cdag, perm: &[u32]) -> Cdag {
    let mut inv = vec![0u32; g.len()];
    for (old, &new) in perm.iter().enumerate() {
        inv[new as usize] = old as u32;
    }
    let mut b = CdagBuilder::with_capacity(g.len());
    for &old in &inv {
        let old = NodeId(old);
        b.node(g.weight(old), g.name(old).to_string());
    }
    for v in g.nodes() {
        for &p in g.preds(v) {
            b.edge(NodeId(perm[p.index()]), NodeId(perm[v.index()]));
        }
    }
    b.build().expect("a permuted DAG is still a DAG")
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
pub fn random_perm(n: usize, rng: &mut SplitRng) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

/// Run all metamorphic relations for one graph at one mid-sweep budget.
///
/// `exact_series[i]` is the known exact optimum at `probes[i]` (when the
/// exhaustive pass computed one).
pub fn check(
    g: &Cdag,
    probes: &[Weight],
    schedulers: &[&dyn Scheduler],
    cfg: &OracleConfig,
    exact_series: &[Option<Weight>],
    rng: &mut SplitRng,
    out: &mut CaseOutcome,
) {
    let minb = min_feasible_budget(g);
    let feasible: Vec<usize> = (0..probes.len()).filter(|&i| probes[i] >= minb).collect();
    let Some(&pi) = feasible.get(feasible.len() / 2) else {
        return;
    };
    let b = probes[pi];
    let exact_at_b = exact_series[pi];

    let s: Weight = rng.gen_range(2..=4);
    let scaled = scale_weights(g, s);
    let perm = random_perm(g.len(), rng);
    let permuted = permute_nodes(g, &perm);

    let any = AnyGraph::custom("meta-orig", g.clone());
    let push = |out: &mut CaseOutcome, check: &'static str, sched: &str, detail: String| {
        out.push(Violation {
            check,
            scheduler: sched.to_string(),
            budget: b,
            detail,
        });
    };

    for sch in schedulers {
        if !sch.supports(&any) {
            continue;
        }
        let Ok(schedule) = sch.schedule(&any, b) else {
            continue;
        };
        let Ok(stats) = validate_moves(g, b, schedule.iter()) else {
            continue; // already reported by the main oracle pass
        };

        // Weight scaling: the *same move sequence* on the scaled graph.
        match validate_moves(&scaled, s * b, schedule.iter()) {
            Ok(st) => {
                if st.cost != s * stats.cost || st.peak_red_weight != s * stats.peak_red_weight {
                    push(
                        out,
                        "meta-weight-scaling",
                        sch.name(),
                        format!(
                            "x{s} weights: expected cost {} peak {}, got cost {} peak {}",
                            s * stats.cost,
                            s * stats.peak_red_weight,
                            st.cost,
                            st.peak_red_weight
                        ),
                    );
                }
            }
            Err(e) => push(
                out,
                "meta-weight-scaling",
                sch.name(),
                format!(
                    "schedule invalid on x{s}-scaled graph at budget {}: {e}",
                    s * b
                ),
            ),
        }

        // Isomorphism: the relabeled schedule on the relabeled graph.
        let mapped = schedule.map_nodes(|v| NodeId(perm[v.index()]));
        match validate_moves(&permuted, b, mapped.iter()) {
            Ok(st) => {
                if st.cost != stats.cost || st.peak_red_weight != stats.peak_red_weight {
                    push(
                        out,
                        "meta-isomorphism",
                        sch.name(),
                        format!(
                            "relabeled replay: cost {} peak {} vs original cost {} peak {}",
                            st.cost, st.peak_red_weight, stats.cost, stats.peak_red_weight
                        ),
                    );
                }
            }
            Err(e) => push(
                out,
                "meta-isomorphism",
                sch.name(),
                format!("relabeled schedule invalid on permuted graph: {e}"),
            ),
        }
    }

    // Exact-solver covariances, where the exhaustive pass certified b.
    // Every search here reports its expansions into `out.exact_states`
    // (capped or not), keeping the report total equal to the telemetry
    // `states_expanded` counter on clean runs.
    let Some(opt) = exact_at_b else { return };
    let solver = cfg.solver();

    match solver.solve(&scaled, s * b) {
        Ok(sol) => {
            out.exact_states += sol.stats.expanded;
            let c = sol.cost;
            if c != Some(s * opt) {
                push(
                    out,
                    "meta-exact-weight-scaling",
                    "exact",
                    format!(
                        "exact on x{s}-scaled graph: {c:?}, expected {:?}",
                        Some(s * opt)
                    ),
                );
            }
        }
        Err(e) => {
            out.exact_states += e.states_expanded();
            out.exact_skipped += 1;
        }
    }

    match solver.solve(&permuted, b) {
        Ok(sol) => {
            out.exact_states += sol.stats.expanded;
            let c = sol.cost;
            if c != Some(opt) {
                push(
                    out,
                    "meta-exact-isomorphism",
                    "exact",
                    format!("exact on permuted graph: {c:?}, expected {:?}", Some(opt)),
                );
            }
        }
        Err(e) => {
            out.exact_states += e.states_expanded();
            out.exact_skipped += 1;
        }
    }

    // IO-scale symmetry: uniform (a, a) scales the optimum exactly; an
    // asymmetric (ls, ss) optimum is bracketed by min-scale x optimum below
    // and the scaled replay of the symmetric optimal schedule above.
    let a: Weight = rng.gen_range(2..=3);
    match solver.with_io_scales(a, a).solve(g, b) {
        Ok(sol) => {
            out.exact_states += sol.stats.expanded;
            let c = sol.cost;
            if c != Some(a * opt) {
                push(
                    out,
                    "meta-io-scale-uniform",
                    "exact",
                    format!(
                        "exact at io scales ({a},{a}): {c:?}, expected {:?}",
                        Some(a * opt)
                    ),
                );
            }
        }
        Err(e) => {
            out.exact_states += e.states_expanded();
            out.exact_skipped += 1;
        }
    }

    let (ls, ss): (Weight, Weight) = (1, rng.gen_range(2..=4));
    let asym_sol = solver.with_io_scales(ls, ss).solve(g, b);
    let sym_sol = solver.solve_with_schedule(g, b);
    for r in [&asym_sol, &sym_sol] {
        match r {
            Ok(sol) => out.exact_states += sol.stats.expanded,
            Err(e) => out.exact_states += e.states_expanded(),
        }
    }
    match (asym_sol, sym_sol) {
        (Ok(asym), Ok(sym)) => match (asym.cost, sym.cost.zip(sym.schedule)) {
            (Some(asym), Some((_, sym_sched))) => {
                // A scaled replay past u64::MAX bounds no u64 optimum.
                let upper = sym_sched.scaled_io_cost(g, ls, ss).unwrap_or(Weight::MAX);
                let lower = ls.min(ss) * opt;
                if asym < lower || asym > upper {
                    push(
                        out,
                        "meta-io-scale-asymmetric",
                        "exact",
                        format!("asymmetric ({ls},{ss}) optimum {asym} outside [{lower}, {upper}]"),
                    );
                }
            }
            (None, _) => push(
                out,
                "meta-io-scale-asymmetric",
                "exact",
                "asymmetric solver infeasible where the symmetric one succeeded".to_string(),
            ),
            _ => {}
        },
        _ => out.exact_skipped += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn scaling_multiplies_every_weight() {
        let g = generate(5, 0).graph;
        let s = scale_weights(&g, 3);
        assert_eq!(s.len(), g.len());
        assert_eq!(s.edge_count(), g.edge_count());
        for v in g.nodes() {
            assert_eq!(s.weight(v), 3 * g.weight(v));
        }
        assert_eq!(s.total_weight(), 3 * g.total_weight());
    }

    #[test]
    fn permutation_preserves_structure() {
        let g = generate(5, 2).graph;
        let mut rng = SplitRng::new(99);
        let perm = random_perm(g.len(), &mut rng);
        let p = permute_nodes(&g, &perm);
        assert_eq!(p.len(), g.len());
        assert_eq!(p.edge_count(), g.edge_count());
        assert_eq!(p.total_weight(), g.total_weight());
        for v in g.nodes() {
            let pv = NodeId(perm[v.index()]);
            assert_eq!(p.weight(pv), g.weight(v));
            assert_eq!(p.in_degree(pv), g.in_degree(v));
            assert_eq!(p.out_degree(pv), g.out_degree(v));
        }
    }

    #[test]
    fn identity_permutation_roundtrips() {
        let g = generate(5, 1).graph;
        let perm: Vec<u32> = (0..g.len() as u32).collect();
        assert_eq!(permute_nodes(&g, &perm), g);
    }
}
