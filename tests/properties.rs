//! Property-based tests over randomly generated workloads: the invariants
//! every scheduler must uphold regardless of shape, weights, or budget.

use pebblyn::conformance::metamorphic::scale_weights;
use pebblyn::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Multiply every node weight produced by a scheme by `s`.  All three
/// variants assign weights linearly in their parameters, so scaling the
/// parameters scales the whole graph uniformly.
fn scale_scheme(scheme: WeightScheme, s: Weight) -> WeightScheme {
    match scheme {
        WeightScheme::Equal(w) => WeightScheme::Equal(s * w),
        WeightScheme::DoubleAccumulator(w) => WeightScheme::DoubleAccumulator(s * w),
        WeightScheme::Custom { input, compute } => WeightScheme::Custom {
            input: s * input,
            compute: s * compute,
        },
    }
}

fn arb_scheme() -> impl Strategy<Value = WeightScheme> {
    prop_oneof![
        (1u64..=32).prop_map(WeightScheme::Equal),
        (1u64..=16).prop_map(WeightScheme::DoubleAccumulator),
        (1u64..=16, 1u64..=32).prop_map(|(i, c)| WeightScheme::Custom {
            input: i,
            compute: c
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The k-ary DP emits valid schedules whose replayed cost equals the
    /// DP's claim, sits at or above the lower bound, and is monotone in
    /// budget — on arbitrary random weighted trees.
    #[test]
    fn kary_invariants(seed in 0u64..5000, internal in 1usize..7, kmax in 1usize..4) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let t = tree::random_weighted_tree(internal, kmax, 1..=9, &mut rng).unwrap();
        let lb = algorithmic_lower_bound(&t);
        let minb = min_feasible_budget(&t);
        let mut prev: Option<Weight> = None;
        let mut b = minb;
        let step = t.weight_gcd().max(1);
        while b <= t.total_weight() {
            let cost = kary::min_cost(&t, b);
            let sched = kary::schedule(&t, b);
            prop_assert_eq!(cost.is_some(), sched.is_some());
            if let (Some(c), Some(s)) = (cost, sched) {
                let stats = validate_schedule(&t, b, &s).expect("valid schedule");
                prop_assert_eq!(stats.cost, c);
                prop_assert!(c >= lb);
                prop_assert!(stats.peak_red_weight <= b);
                if let Some(p) = prev {
                    prop_assert!(c <= p);
                }
                prev = Some(c);
            }
            b += step;
        }
        // Ample budget reaches the lower bound on trees.
        prop_assert_eq!(kary::min_cost(&t, t.total_weight()), Some(lb));
    }

    /// DWT invariants across random (n, d, scheme) combinations, including
    /// equality between cost-only and schedule-emitting paths.
    #[test]
    fn dwt_invariants(k in 1usize..5, d in 1usize..5, scheme in arb_scheme()) {
        let n = k << d;
        let dwt = DwtGraph::new(n, d, scheme).unwrap();
        let g = dwt.cdag();
        let lb = algorithmic_lower_bound(g);
        let minb = min_feasible_budget(g);
        for b in [minb, minb + g.weight_gcd(), g.total_weight() / 2, g.total_weight()] {
            if b < minb { continue; }
            let cost = dwt_opt::min_cost(&dwt, b);
            if let Some(c) = cost {
                let s = dwt_opt::schedule(&dwt, b).expect("schedule when cost exists");
                let stats = validate_schedule(g, b, &s).expect("valid");
                prop_assert_eq!(stats.cost, c);
                prop_assert!(c >= lb);
            }
        }
        prop_assert_eq!(dwt_opt::min_cost(&dwt, g.total_weight()), Some(lb));
    }

    /// The naive existence-witness schedule is valid exactly when
    /// Proposition 2.3 says a schedule exists.
    #[test]
    fn naive_matches_existence(seed in 0u64..5000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = pebblyn::graphs::testgraphs::random_layered_dag(3, 4, 1..=8, &mut rng).unwrap();
        let minb = min_feasible_budget(&g);
        prop_assert!(schedule_exists(&g, minb));
        prop_assert!(!schedule_exists(&g, minb - 1));
        let s = naive::schedule(&g, minb).expect("witness at min feasible");
        let stats = validate_schedule(&g, minb, &s).expect("valid witness");
        prop_assert_eq!(stats.cost, naive::cost(&g));
        prop_assert!(naive::schedule(&g, minb - 1).is_none());
    }

    /// Layer-by-layer emits valid schedules whenever it emits at all, on
    /// random DWT shapes and budgets.
    #[test]
    fn layer_by_layer_validity(k in 1usize..4, d in 1usize..5, extra in 0u64..64) {
        let n = k << d;
        let dwt = DwtGraph::new(n, d, WeightScheme::Equal(4)).unwrap();
        let g = dwt.cdag();
        let b = min_feasible_budget(g) + extra * g.weight_gcd();
        if let Some(s) = layer_by_layer::schedule(&dwt, b, LayerByLayerOptions::default()) {
            let stats = validate_schedule(g, b, &s).expect("valid");
            prop_assert!(stats.cost >= algorithmic_lower_bound(g));
        }
    }

    /// MVM tiling: every config in range produces a schedule whose
    /// validator-measured peak and cost equal the analytic formulas.
    #[test]
    fn tiling_formulas_exact(m in 2usize..7, n in 1usize..7, scheme in arb_scheme()) {
        let mvm = MvmGraph::new(m, n, scheme).unwrap();
        for h in 1..=m {
            for vr in [0, n / 2, n] {
                let cfg = TilingConfig::new(h, vr, n);
                let s = mvm_tiling::schedule_with_config(&mvm, &cfg);
                let peak = mvm_tiling::config_peak(&mvm, &cfg);
                let stats = validate_schedule(mvm.cdag(), peak, &s).expect("valid at peak");
                prop_assert_eq!(stats.peak_red_weight, peak);
                prop_assert_eq!(stats.cost, mvm_tiling::config_cost(&mvm, &cfg));
            }
        }
    }

    /// The machine and the validator agree on every measurable of a
    /// schedule (cost, peak) for random DWT workloads.
    #[test]
    fn machine_and_validator_agree(seed in 0u64..1000, d in 1usize..5) {
        let n = 1usize << d;
        let dwt = DwtGraph::new(n, d, WeightScheme::Equal(16)).unwrap();
        let g = dwt.cdag();
        let b = min_feasible_budget(g) + 32;
        let s = dwt_opt::schedule(&dwt, b).expect("feasible");
        let stats = validate_schedule(g, b, &s).expect("valid");

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let signal: Vec<f64> = (0..n).map(|_| rand::Rng::gen_range(&mut rng, -1.0..1.0)).collect();
        let ops = haar::op_table(&dwt);
        let env = haar::inputs_for(&dwt, &signal);
        let report = Machine::new(g, &ops, b).run(&s, &env).expect("executes");
        prop_assert_eq!(report.io_bits, stats.cost);
        prop_assert_eq!(report.peak_fast_bits, stats.peak_red_weight);
    }

    /// The memory-state planner (Eq. 8 with emission) always matches the
    /// cost-only DP, and its context schedule, embedded in a full game,
    /// replays to the same cost — on random binary trees with random
    /// initial/reuse sets.
    #[test]
    fn memstate_planner_matches_cost_dp(seed in 0u64..3000, internal in 1usize..6) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let t = tree::random_weighted_tree(internal, 2, 1..=6, &mut rng).unwrap();
        prop_assume!(t.max_in_degree() <= 2);
        // Random states: each leaf flips into I and/or R with p = 1/3.
        let leaves = t.sources();
        let mut initial = Vec::new();
        let mut reuse = Vec::new();
        for &l in leaves {
            if rand::Rng::gen_bool(&mut rng, 1.0 / 3.0) { initial.push(l); }
            if rand::Rng::gen_bool(&mut rng, 1.0 / 3.0) { reuse.push(l); }
        }
        let states = MemoryStates::new(initial, reuse);
        let minb = min_feasible_budget(&t);
        for b in [minb, minb + 3, minb + 9, t.total_weight() + 8] {
            let cost = memstate::min_cost(&t, b, &states);
            let ctx = memstate::plan(&t, b, &states);
            prop_assert_eq!(cost, ctx.as_ref().map(|c| c.cost), "budget {}", b);
            if let Some(ctx) = ctx {
                // Load the initial state, play the context, store the root,
                // then delete each reuse node (rejected unless still red).
                let root = t.sinks()[0];
                let moves: Vec<Move> = states.initial.iter().map(|&v| Move::Load(v))
                    .chain(ctx.schedule.iter())
                    .chain([Move::Store(root)])
                    .chain(states.reuse.iter().map(|&v| Move::Delete(v)))
                    .collect();
                let stats = validate_schedule(&t, b, &Schedule::from_moves(moves))
                    .map_err(|e| TestCaseError::fail(format!("b={b}: {e}")))?;
                let setup: Weight = states.initial.iter().map(|&v| t.weight(v)).sum();
                prop_assert_eq!(stats.cost - setup - t.weight(root), ctx.cost);
            }
        }
    }

    /// Exact solver sanity on random tiny trees: never beaten by, and never
    /// beats, the k-ary DP (i.e. they agree).
    #[test]
    fn exact_agrees_with_kary_on_tiny_trees(seed in 0u64..300) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let t = tree::random_weighted_tree(2, 2, 1..=3, &mut rng).unwrap();
        prop_assume!(t.len() <= 7);
        let minb = min_feasible_budget(&t);
        for b in [minb, minb + 1, minb + 3, t.total_weight()] {
            prop_assert_eq!(kary::min_cost(&t, b), exact_min_cost(&t, b));
        }
    }

    /// CSR construction round-trips the builder: for random DAG edge lists,
    /// the flat adjacency agrees with a naive `Vec<Vec<NodeId>>` layout
    /// built from the same edges — per-node neighbor order included — and
    /// the cached sources/sinks/edge-count/topo/ancestors match what the
    /// naive layout derives.
    #[test]
    fn csr_round_trips_builder(seed in 0u64..5000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = rand::Rng::gen_range(&mut rng, 2usize..=24);
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        // Every non-root node gets >= 1 predecessor so nothing is isolated.
        for j in 1..n {
            let i = rand::Rng::gen_range(&mut rng, 0..j);
            if seen.insert((i, j)) { edges.push((i, j)); }
            for _ in 0..rand::Rng::gen_range(&mut rng, 0usize..3) {
                let i = rand::Rng::gen_range(&mut rng, 0..j);
                if seen.insert((i, j)) { edges.push((i, j)); }
            }
        }

        let mut b = CdagBuilder::new();
        let ids: Vec<NodeId> = (0..n)
            .map(|i| b.node(rand::Rng::gen_range(&mut rng, 1u64..=9), format!("v{i}")))
            .collect();
        for &(x, y) in &edges {
            b.edge(ids[x], ids[y]);
        }
        // Every node with index >= 1 has a predecessor and node 0 has a
        // successor, so the builder's isolated-node check cannot fire.
        let g = b.build().expect("random DAG builds");

        // Naive adjacency in edge-insertion order — the pre-CSR layout.
        let mut preds: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &(x, y) in &edges {
            preds[y].push(ids[x]);
            succs[x].push(ids[y]);
        }

        prop_assert_eq!(g.edge_count(), edges.len());
        for v in g.nodes() {
            let i = v.index();
            prop_assert_eq!(g.preds(v), &preds[i][..]);
            prop_assert_eq!(g.succs(v), &succs[i][..]);
            prop_assert_eq!(g.in_degree(v), preds[i].len());
            prop_assert_eq!(g.out_degree(v), succs[i].len());
        }
        let naive_sources: Vec<NodeId> =
            g.nodes().filter(|v| preds[v.index()].is_empty()).collect();
        let naive_sinks: Vec<NodeId> =
            g.nodes().filter(|v| succs[v.index()].is_empty()).collect();
        prop_assert_eq!(g.sources(), &naive_sources[..]);
        prop_assert_eq!(g.sinks(), &naive_sinks[..]);

        // topo_order is a permutation where every edge goes forward.
        let topo = g.topo_order();
        prop_assert_eq!(topo.len(), n);
        let mut pos = vec![usize::MAX; n];
        for (idx, &v) in topo.iter().enumerate() {
            pos[v.index()] = idx;
        }
        for &(x, y) in &edges {
            prop_assert!(pos[x] < pos[y], "edge ({x}, {y}) violates topo order");
        }

        // ancestors() agrees with naive reachability over the naive layout.
        for v in g.nodes() {
            let anc = g.ancestors(v);
            let mut naive = vec![false; n];
            let mut stack = vec![v];
            while let Some(u) = stack.pop() {
                for &p in &preds[u.index()] {
                    if !naive[p.index()] {
                        naive[p.index()] = true;
                        stack.push(p);
                    }
                }
            }
            prop_assert_eq!(anc, naive);
        }
    }

    /// A schedule replayed through the struct-of-arrays `MoveStream` path
    /// is indistinguishable from its `Vec<Move>` form: identical move
    /// round-trip, identical cost, and the identical validation verdict —
    /// for valid schedules and corrupted ones alike.
    #[test]
    fn move_stream_replay_is_identical(seed in 0u64..2000, cut in 0usize..40) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = pebblyn::graphs::testgraphs::random_layered_dag(3, 4, 1..=8, &mut rng).unwrap();
        let b = min_feasible_budget(&g);
        let s = naive::schedule(&g, b).expect("witness at min feasible");
        let moves: Vec<Move> = s.moves();

        // Round-trip through the stream.
        let rebuilt = Schedule::from_moves(moves.clone());
        prop_assert_eq!(&rebuilt, &s);
        prop_assert_eq!(rebuilt.stream().iter().collect::<Vec<_>>(), moves.clone());
        for (i, &mv) in moves.iter().enumerate() {
            prop_assert_eq!(rebuilt.stream().get(i), mv);
        }

        // Identical verdict and stats via both entry points.
        let via_schedule = validate_schedule(&g, b, &s);
        let via_stream = validate_moves(&g, b, moves.iter().copied());
        prop_assert_eq!(via_schedule.clone(), via_stream);
        let stats = via_schedule.expect("witness schedule is valid");
        prop_assert_eq!(stats.cost, s.cost(&g));

        // Corrupt the schedule (truncate at a random point): both paths
        // must agree on the failure, too.
        let cut = cut % (moves.len() + 1);
        let truncated: Vec<Move> = moves[..cut].to_vec();
        let ts = Schedule::from_moves(truncated.clone());
        prop_assert_eq!(
            validate_schedule(&g, b, &ts),
            validate_moves(&g, b, truncated.iter().copied())
        );
    }

    /// Budget monotonicity for the DWT DP: more fast memory never costs
    /// more I/O, at budget probes spread across the whole feasible range
    /// (not just lattice points), and the ample-budget end touches the
    /// lower bound.
    #[test]
    fn dwt_budget_monotonicity(k in 1usize..5, d in 1usize..5, scheme in arb_scheme()) {
        let n = k << d;
        let dwt = DwtGraph::new(n, d, scheme).unwrap();
        let g = dwt.cdag();
        let minb = min_feasible_budget(g);
        let total = g.total_weight();
        let mut prev: Option<Weight> = None;
        let mut samples = 0usize;
        for i in 0..=16u64 {
            let b = minb + (total - minb) * i / 16;
            if let Some(c) = dwt_opt::min_cost(&dwt, b) {
                if let Some(p) = prev {
                    prop_assert!(c <= p, "cost rose {} -> {} at budget {}", p, c, b);
                }
                prev = Some(c);
                samples += 1;
            }
        }
        prop_assert!(samples >= 2, "monotonicity probe vacuous: {samples} feasible budgets");
        prop_assert_eq!(prev, Some(algorithmic_lower_bound(g)));
    }

    /// Budget monotonicity for the memory-state DP, with random
    /// initial/reuse leaf sets in play: more fast memory never costs more,
    /// and feasibility is upward-closed over the probed budgets.
    #[test]
    fn memstate_budget_monotonicity(seed in 0u64..3000, internal in 1usize..6) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let t = tree::random_weighted_tree(internal, 2, 1..=6, &mut rng).unwrap();
        prop_assume!(t.max_in_degree() <= 2);
        let leaves = t.sources();
        let mut initial = Vec::new();
        let mut reuse = Vec::new();
        for &l in leaves {
            if rand::Rng::gen_bool(&mut rng, 1.0 / 3.0) { initial.push(l); }
            if rand::Rng::gen_bool(&mut rng, 1.0 / 3.0) { reuse.push(l); }
        }
        let states = MemoryStates::new(initial, reuse);
        let minb = min_feasible_budget(&t);
        let top = t.total_weight() + 8;
        let mut prev: Option<Weight> = None;
        for i in 0..=12u64 {
            let b = minb + (top - minb) * i / 12;
            match memstate::min_cost(&t, b, &states) {
                Some(c) => {
                    if let Some(p) = prev {
                        prop_assert!(c <= p, "cost rose {} -> {} at budget {}", p, c, b);
                    }
                    prev = Some(c);
                }
                None => prop_assert!(
                    prev.is_none(),
                    "feasibility not upward-closed: infeasible at {} after a feasible budget", b
                ),
            }
        }
        prop_assert!(prev.is_some(), "ample budget {} still infeasible", top);
    }

    /// Weight scaling is a symmetry of the k-ary DP: multiplying every
    /// node weight by `s` multiplies the DP's cost at budget `s * b` by
    /// exactly `s` — the recurrence is weight-linear, so the claim holds
    /// for the DP value even on trees where the DP is not globally optimal.
    #[test]
    fn kary_cost_scales_with_weights(
        seed in 0u64..3000, internal in 1usize..6, kmax in 1usize..4, s in 2u64..6
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let t = tree::random_weighted_tree(internal, kmax, 1..=9, &mut rng).unwrap();
        let scaled = scale_weights(&t, s);
        let minb = min_feasible_budget(&t);
        prop_assert_eq!(min_feasible_budget(&scaled), s * minb);
        for b in [minb, minb + 1, minb + t.weight_gcd(), (minb + t.total_weight()) / 2, t.total_weight()] {
            prop_assert_eq!(
                kary::min_cost(&scaled, s * b),
                kary::min_cost(&t, b).map(|c| s * c),
                "budget {}", b
            );
        }
    }

    /// Weight scaling is a symmetry of the DWT DP, across every weight
    /// scheme: `min_cost` on the `s`-scaled scheme at budget `s * b` is
    /// exactly `s` times `min_cost` on the original at `b` — including
    /// agreement on infeasibility.
    #[test]
    fn dwt_cost_scales_with_weights(
        k in 1usize..5, d in 1usize..5, scheme in arb_scheme(), s in 2u64..5
    ) {
        let n = k << d;
        let dwt = DwtGraph::new(n, d, scheme).unwrap();
        let scaled = DwtGraph::new(n, d, scale_scheme(scheme, s)).unwrap();
        let g = dwt.cdag();
        let minb = min_feasible_budget(g);
        prop_assert_eq!(min_feasible_budget(scaled.cdag()), s * minb);
        let total = g.total_weight();
        for b in [minb.saturating_sub(1), minb, minb + g.weight_gcd(), (minb + total) / 2, total] {
            prop_assert_eq!(
                dwt_opt::min_cost(&scaled, s * b),
                dwt_opt::min_cost(&dwt, b).map(|c| s * c),
                "budget {}", b
            );
        }
    }

    /// Weight scaling is a symmetry of the memory-state DP even with
    /// nonempty initial/reuse sets: the state semantics are structural
    /// (which leaves are resident / rematerializable), so scaling weights
    /// and budget together scales the cost exactly.
    #[test]
    fn memstate_cost_scales_with_weights(seed in 0u64..3000, internal in 1usize..6, s in 2u64..5) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let t = tree::random_weighted_tree(internal, 2, 1..=6, &mut rng).unwrap();
        prop_assume!(t.max_in_degree() <= 2);
        let leaves = t.sources();
        let mut initial = Vec::new();
        let mut reuse = Vec::new();
        for &l in leaves {
            if rand::Rng::gen_bool(&mut rng, 1.0 / 3.0) { initial.push(l); }
            if rand::Rng::gen_bool(&mut rng, 1.0 / 3.0) { reuse.push(l); }
        }
        let states = MemoryStates::new(initial, reuse);
        // scale_weights preserves node ids, so the same state sets apply.
        let scaled = scale_weights(&t, s);
        let minb = min_feasible_budget(&t);
        for b in [minb, minb + 2, (minb + t.total_weight()) / 2, t.total_weight() + 8] {
            prop_assert_eq!(
                memstate::min_cost(&scaled, s * b, &states),
                memstate::min_cost(&t, b, &states).map(|c| s * c),
                "budget {}", b
            );
        }
    }
}
