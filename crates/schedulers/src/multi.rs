//! Multiprocessor schedulers: assignment policies over the shared
//! per-processor Belady simulator ([`crate::multi_sim`]).
//!
//! Two policies, mirroring the federated-scheduling and critical-path
//! idioms of DAG-task multicore simulators:
//!
//! * [`partition_schedule`] — **level partitioning**: nodes are grouped by
//!   topological level; within a level they are distributed across
//!   processors longest-processing-time-first (heaviest remaining
//!   critical path first, to the least-loaded processor).  Because raw
//!   list-style makespans suffer Graham anomalies (more processors can
//!   *lengthen* a schedule), the policy internally tries every machine
//!   prefix `q ∈ {1..p}` and keeps the best `(makespan, I/O)` — so its
//!   reported objectives are monotone in `p` **by construction**, which
//!   the conformance MULTI regime asserts.  The `q = 1` candidate *is*
//!   [`crate::greedy_belady`] lifted onto processor 0, making p=1
//!   byte-identical to the single-processor scheduler.
//!
//! * [`comm_list_schedule`] — a **work-conserving list scheduler** with
//!   communication-aware placement: ready nodes (all predecessors
//!   assigned) are dispatched one at a time to the processor with the
//!   smallest finish-time estimate, choosing the ready node that best
//!   trades critical-path priority (bottom level) against the estimated
//!   communication cost of fetching its operands onto that processor.
//!   Dispatching to the least-loaded processor first makes occupancy
//!   work-conserving by construction: with `c` computed nodes, at least
//!   `min(p, c)` processors receive work (asserted by the MULTI regime).
//!
//! Every candidate is replayed ([`validate_multi_schedule`]) for its
//! stats.  A candidate whose replay overflows a 64-bit cost or clock sum
//! leaves the race; when none remains, the answer is that typed failure,
//! [`ScheduleError::MultiValidationFailed`], not an infeasible budget.

use crate::api::{infeasible, ScheduleError};
use crate::multi_sim;
use pebblyn_core::{
    validate_multi_schedule, Cdag, MachineSpec, MultiSchedule, MultiStats, NodeId, ValidityError,
    Weight,
};

/// Topological level of every node (sources at level 0).
fn topo_levels(graph: &Cdag) -> Vec<usize> {
    let mut level = vec![0usize; graph.len()];
    for &v in graph.topo_order() {
        level[v.index()] = graph
            .preds(v)
            .iter()
            .map(|&u| level[u.index()] + 1)
            .max()
            .unwrap_or(0);
    }
    level
}

/// Bottom level of every node: `w(v)` plus the heaviest compute-weight
/// path from `v` to a sink (the critical-path priority of list
/// scheduling; source weights excluded since sources are never computed).
fn bottom_levels(graph: &Cdag) -> Vec<Weight> {
    let mut bl = vec![0 as Weight; graph.len()];
    for &v in graph.topo_order().iter().rev() {
        let down = graph
            .succs(v)
            .iter()
            .map(|&s| bl[s.index()])
            .max()
            .unwrap_or(0);
        let own = if graph.is_source(v) {
            0
        } else {
            graph.weight(v)
        };
        bl[v.index()] = own + down;
    }
    bl
}

/// The non-source nodes in topological order.
fn computed_nodes(graph: &Cdag) -> Vec<NodeId> {
    graph
        .topo_order()
        .iter()
        .copied()
        .filter(|&v| !graph.is_source(v))
        .collect()
}

/// Replay every candidate (`None` = infeasible on its processors) and
/// keep the best under lexicographic `(makespan, total_cost)`, earlier
/// candidates winning ties.  A failed replay drops its candidate: a
/// 64-bit sum overflowing is the weights' doing, any other failure a
/// policy bug (debug builds assert).  The first failure is the answer
/// when no candidate finishes.
fn best_of(
    graph: &Cdag,
    spec: &MachineSpec,
    candidates: impl Iterator<Item = Option<MultiSchedule>>,
) -> Result<(MultiSchedule, MultiStats), ScheduleError> {
    let key = |st: &MultiStats| (st.makespan, st.total_cost());
    let mut best: Option<(MultiSchedule, MultiStats)> = None;
    let mut failure = None;
    for s in candidates.flatten() {
        match validate_multi_schedule(graph, spec, &s) {
            Ok(stats) if best.as_ref().is_none_or(|(_, b)| key(&stats) < key(b)) => {
                best = Some((s, stats));
            }
            Ok(_) => {}
            Err(e) => {
                debug_assert!(
                    matches!(e, ValidityError::WeightOverflow { .. }),
                    "multiprocessor candidate failed replay: {e}"
                );
                failure.get_or_insert(e);
            }
        }
    }
    match (best, failure) {
        (Some(best), _) => Ok(best),
        (None, Some(e)) => Err(ScheduleError::MultiValidationFailed(e)),
        (None, None) => Err(infeasible(graph, spec.max_proc_budget())),
    }
}

/// Every node on processor 0 in topological order: greedy-belady lifted
/// onto processor 0 — the `q = 1` candidate of both policies, and the
/// whole answer for uniprocessor machines.
fn single_proc_candidate(graph: &Cdag, spec: &MachineSpec) -> Option<MultiSchedule> {
    let on_one = vec![0; graph.len()];
    multi_sim::simulate(graph, spec, 1, &on_one, &computed_nodes(graph))
}

/// Level-partitioned multiprocessor scheduling (see the module docs).
///
/// Fails with [`ScheduleError::InfeasibleBudget`] when no machine prefix
/// admits a feasible schedule — in particular whenever processor 0's
/// budget cannot hold the largest operand set.
pub fn partition_schedule(
    graph: &Cdag,
    spec: &MachineSpec,
) -> Result<MultiSchedule, ScheduleError> {
    Ok(partition_schedule_with_stats(graph, spec)?.0)
}

/// As [`partition_schedule`], also returning the replayed [`MultiStats`]
/// of the winning candidate (the bench sweep uses both).
pub fn partition_schedule_with_stats(
    graph: &Cdag,
    spec: &MachineSpec,
) -> Result<(MultiSchedule, MultiStats), ScheduleError> {
    let multi = partition_plans(graph, spec.num_procs())
        .map(|(q, assignment, order)| multi_sim::simulate(graph, spec, q, &assignment, &order));
    best_of(
        graph,
        spec,
        std::iter::once(single_proc_candidate(graph, spec)).chain(multi),
    )
}

/// The level-partitioned `(q, assignment, order)` for every machine
/// prefix `q ∈ {2..p}`.
fn partition_plans(
    graph: &Cdag,
    p: usize,
) -> impl Iterator<Item = (usize, Vec<usize>, Vec<NodeId>)> + '_ {
    let order_all = computed_nodes(graph);
    let levels = topo_levels(graph);
    let bottoms = bottom_levels(graph);
    (2..=p).map(move |q| {
        // LPT assignment level by level: within each level, heaviest
        // bottom level first, each to the least-loaded active processor.
        let mut load: Vec<Weight> = vec![0; q];
        let mut assignment = vec![0usize; graph.len()];
        let mut by_level: Vec<NodeId> = order_all.clone();
        by_level.sort_by_key(|&v| {
            (
                levels[v.index()],
                std::cmp::Reverse(bottoms[v.index()]),
                v.index(),
            )
        });
        for &v in &by_level {
            let target = (0..q).min_by_key(|&r| (load[r], r)).unwrap_or(0);
            assignment[v.index()] = target;
            load[target] += graph.weight(v);
        }
        // Global order: level-major, processor-minor, so each processor's
        // slice of a level runs contiguously.
        let mut order = order_all.clone();
        order.sort_by_key(|&v| (levels[v.index()], assignment[v.index()], v.index()));
        (q, assignment, order)
    })
}

/// Work-conserving communication-aware list scheduling (see the module
/// docs).  Fails with [`ScheduleError::InfeasibleBudget`] when infeasible
/// under the per-processor budgets.
pub fn comm_list_schedule(
    graph: &Cdag,
    spec: &MachineSpec,
) -> Result<MultiSchedule, ScheduleError> {
    Ok(comm_list_schedule_with_stats(graph, spec)?.0)
}

/// As [`comm_list_schedule`], also returning the replayed [`MultiStats`].
pub fn comm_list_schedule_with_stats(
    graph: &Cdag,
    spec: &MachineSpec,
) -> Result<(MultiSchedule, MultiStats), ScheduleError> {
    let candidate = if spec.num_procs() == 1 {
        single_proc_candidate(graph, spec)
    } else {
        let (assignment, order) = comm_list_plan(graph, spec);
        multi_sim::simulate(graph, spec, spec.num_procs(), &assignment, &order)
    };
    best_of(graph, spec, std::iter::once(candidate))
}

/// The list scheduler's `(assignment, order)` on all of `spec`'s
/// processors.  Its finish-time estimates saturate: they only rank.
fn comm_list_plan(graph: &Cdag, spec: &MachineSpec) -> (Vec<usize>, Vec<NodeId>) {
    let p = spec.num_procs();
    let n = graph.len();
    let bottoms = bottom_levels(graph);

    // Readiness = all predecessors assigned (sources are born assigned).
    let mut missing: Vec<usize> = (0..n)
        .map(|i| {
            graph
                .preds(NodeId(i as u32))
                .iter()
                .filter(|&&u| !graph.is_source(u))
                .count()
        })
        .collect();
    let mut ready: Vec<NodeId> = computed_nodes(graph)
        .into_iter()
        .filter(|&v| missing[v.index()] == 0)
        .collect();

    let mut clock: Vec<Weight> = vec![0; p];
    // Processor currently holding each value's freshest red copy
    // (usize::MAX = only blue / source).
    let mut home: Vec<usize> = vec![usize::MAX; n];
    let mut assignment = vec![0usize; n];
    let mut order: Vec<NodeId> = Vec::new();

    while !ready.is_empty() {
        // Work conservation: dispatch to the least-loaded processor.
        let q = (0..p).min_by_key(|&r| (clock[r], r)).expect("p >= 1");
        // Fetch estimate for running v on q: free for operands homed on
        // q, a load for blue-only operands, a priced communication for
        // operands homed elsewhere.
        let fetch = |v: NodeId, home: &[usize]| -> Weight {
            graph.preds(v).iter().fold(0, |sum: Weight, &u| {
                let w = graph.weight(u);
                sum.saturating_add(if home[u.index()] == q {
                    0
                } else if home[u.index()] == usize::MAX {
                    w
                } else {
                    spec.comm_price().saturating_mul(w)
                })
            })
        };
        // Choose the ready node that best trades critical-path priority
        // against communication onto q.
        let (slot, _) = ready
            .iter()
            .enumerate()
            .max_by_key(|&(_, &v)| {
                let f = fetch(v, &home);
                (
                    bottoms[v.index()].saturating_sub(f),
                    bottoms[v.index()],
                    std::cmp::Reverse(v.index()),
                )
            })
            .expect("ready set non-empty");
        let v = ready.swap_remove(slot);
        let f = fetch(v, &home);
        assignment[v.index()] = q;
        clock[q] = clock[q].saturating_add(f).saturating_add(graph.weight(v));
        home[v.index()] = q;
        order.push(v);
        for &s in graph.succs(v) {
            missing[s.index()] -= 1;
            if missing[s.index()] == 0 {
                ready.push(s);
            }
        }
    }
    // `order` is topological by construction (a node is dispatched only
    // after all its predecessors were).
    (assignment, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy_belady;
    use pebblyn_core::{min_feasible_budget, validate_schedule, CdagBuilder, MultiMove};
    use pebblyn_graphs::testgraphs::{diamond, fft_butterfly, random_layered_dag};
    use pebblyn_graphs::{DwtGraph, WeightScheme};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn graphs() -> Vec<Cdag> {
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let mut out = vec![
            diamond(WeightScheme::Equal(8)),
            fft_butterfly(3, WeightScheme::Equal(8)).unwrap(),
        ];
        for _ in 0..4 {
            out.push(random_layered_dag(4, 5, 1..=6, &mut rng).unwrap());
        }
        out
    }

    #[test]
    fn p1_is_byte_identical_to_greedy_belady() {
        for g in graphs() {
            let b = min_feasible_budget(&g) + 16;
            let spec = MachineSpec::uniprocessor(b);
            let expected = greedy_belady::schedule(&g, b).expect("feasible");
            for (label, got) in [
                ("partition", partition_schedule(&g, &spec)),
                ("comm-list", comm_list_schedule(&g, &spec)),
            ] {
                let ms = got.unwrap_or_else(|e| panic!("{label} failed at p=1: {e}"));
                assert_eq!(
                    ms.project_single().expect("p=1 projects"),
                    expected,
                    "{label} p=1 must match greedy-belady"
                );
            }
        }
    }

    #[test]
    fn multi_schedules_validate_on_their_machines() {
        for g in graphs() {
            let b = min_feasible_budget(&g) + 24;
            for p in [2usize, 4] {
                let spec = MachineSpec::symmetric(p, b);
                for (label, got) in [
                    ("partition", partition_schedule_with_stats(&g, &spec)),
                    ("comm-list", comm_list_schedule_with_stats(&g, &spec)),
                ] {
                    let (_, stats) = got.unwrap_or_else(|e| panic!("{label} failed p={p}: {e}"));
                    for (q, &peak) in stats.peak_red.iter().enumerate() {
                        assert!(peak <= spec.proc_budget(q), "{label} p{q} over budget");
                    }
                }
            }
        }
    }

    #[test]
    fn partition_objectives_monotone_in_p() {
        for g in graphs() {
            let b = min_feasible_budget(&g) + 24;
            let mut prev: Option<(Weight, Weight)> = None;
            for p in 1..=4usize {
                let spec = MachineSpec::symmetric(p, b);
                let (_, stats) =
                    partition_schedule_with_stats(&g, &spec).expect("feasible at generous budget");
                let key = (stats.makespan, stats.total_cost());
                if let Some(prev) = prev {
                    assert!(
                        key <= prev,
                        "partition best-of-q must be monotone: p={p} {key:?} vs {prev:?}"
                    );
                }
                prev = Some(key);
            }
        }
    }

    #[test]
    fn comm_list_is_work_conserving_in_dispatch() {
        for g in graphs() {
            let b = g.total_weight(); // ample budget
            let computes = g.nodes().filter(|&v| !g.is_source(v)).count();
            for p in [2usize, 4] {
                let spec = MachineSpec::symmetric(p, b);
                let (_, stats) =
                    comm_list_schedule_with_stats(&g, &spec).expect("feasible at ample budget");
                assert!(
                    stats.procs_used() >= p.min(computes),
                    "comm-list used {} of {p} procs ({computes} computes)",
                    stats.procs_used()
                );
            }
        }
    }

    /// Two independent heavy chains: with 2 processors the partition
    /// scheduler should roughly halve the makespan.
    #[test]
    fn independent_chains_speed_up() {
        let mut b = CdagBuilder::new();
        let chain = |b: &mut CdagBuilder, tag: &str| {
            let mut prev = b.node(16, format!("{tag}0"));
            for i in 1..8 {
                let next = b.node(16, format!("{tag}{i}"));
                b.edge(prev, next);
                prev = next;
            }
        };
        chain(&mut b, "a");
        chain(&mut b, "x");
        let g = b.build().unwrap();
        let spec1 = MachineSpec::uniprocessor(64);
        let spec2 = MachineSpec::symmetric(2, 64);
        let (_, s1) = partition_schedule_with_stats(&g, &spec1).unwrap();
        let (_, s2) = partition_schedule_with_stats(&g, &spec2).unwrap();
        assert!(
            s2.makespan * 10 <= s1.makespan * 7,
            "expected parallel speedup: {} vs {}",
            s2.makespan,
            s1.makespan
        );
        assert_eq!(s2.procs_used(), 2);
    }

    /// The projected p=1 schedule replays cleanly on the classic validator
    /// with the same cost the multi validator reports.
    #[test]
    fn p1_projection_agrees_with_classic_validator() {
        for g in graphs() {
            let b = min_feasible_budget(&g) + 16;
            let spec = MachineSpec::uniprocessor(b);
            let (ms, stats) = partition_schedule_with_stats(&g, &spec).unwrap();
            let single = ms.project_single().unwrap();
            let classic = validate_schedule(&g, b, &single).unwrap();
            assert_eq!(classic.cost, stats.io_cost);
            assert_eq!(stats.comm_moves, 0);
        }
    }

    /// Every eviction on every processor of both policies picks a
    /// furthest-next-use victim, under the kernel's full-scan audit.
    #[test]
    fn evictions_are_belady_on_every_processor() {
        let mut evictions = 0;
        for g in graphs() {
            let minb = min_feasible_budget(&g);
            for b in [minb, minb + 16, minb + 24] {
                for p in [2usize, 4] {
                    let spec = MachineSpec::symmetric(p, b);
                    let mut plans: Vec<_> = partition_plans(&g, p).collect();
                    let (assignment, order) = comm_list_plan(&g, &spec);
                    plans.push((p, assignment, order));
                    for (q, assignment, order) in plans {
                        let Some((s, violations)) =
                            multi_sim::simulate_audited(&g, &spec, q, &assignment, &order)
                        else {
                            continue;
                        };
                        assert_eq!(violations, 0, "q={q} of p={p} at budget {b}");
                        evictions += s
                            .iter()
                            .filter(|m| matches!(m, MultiMove::Delete { .. }))
                            .count();
                    }
                }
            }
        }
        assert!(evictions > 0, "the audit saw no eviction");
    }

    /// `DWT(16, 2)` at 2^58 bits a node: the weights sum below 2^64, but
    /// some candidates' replayed clock and cost sums do not.
    fn heavy_dwt() -> Cdag {
        DwtGraph::new(16, 2, WeightScheme::Equal(1 << 58))
            .expect("weights sum below 2^64")
            .cdag()
            .clone()
    }

    #[test]
    fn comm_list_reports_a_replay_overflow_as_typed() {
        let g = heavy_dwt();
        let b = min_feasible_budget(&g);
        for p in [2, 4] {
            let got = comm_list_schedule(&g, &MachineSpec::symmetric(p, b));
            assert!(
                matches!(
                    got,
                    Err(ScheduleError::MultiValidationFailed(
                        ValidityError::WeightOverflow { .. }
                    ))
                ),
                "p={p}: {got:?}"
            );
        }
    }

    #[test]
    fn partition_drops_only_the_overflowing_candidate() {
        let g = heavy_dwt();
        let b = min_feasible_budget(&g);
        // The q = 1 candidate's replay overflows its makespan clock; q = 2
        // fits.
        let spec = MachineSpec::symmetric(2, b);
        let q1 = single_proc_candidate(&g, &spec).expect("q = 1 fits the budget");
        assert!(matches!(
            validate_multi_schedule(&g, &spec, &q1),
            Err(ValidityError::WeightOverflow { .. })
        ));
        let (_, stats) = partition_schedule_with_stats(&g, &spec).expect("q = 2 fits");
        assert_eq!((stats.io_cost, stats.makespan), (56 << 58, 40 << 58));
        let four = partition_schedule_with_stats(&g, &MachineSpec::symmetric(4, b));
        assert!(four.is_ok(), "p=4: {four:?}");
    }
}
