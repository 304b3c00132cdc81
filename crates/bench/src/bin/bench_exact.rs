//! Exact-search micro-benchmark: the bound-guided A\* against the plain
//! Dijkstra baseline it replaced, plus the wide-mask / symmetry check that
//! certifies the post-64-node solver.
//!
//! **Section 1 (legacy races).**  For each ≤ 64-node certification-suite
//! workload the binary runs both solvers at the same budget and reports
//! expanded states and wall time.  The baseline is
//! [`ExactSolver::dijkstra_baseline`] — no heuristic, no dominance pruning,
//! raw four-move successor relation, no symmetry — which is byte-identical
//! in behaviour to the pre-A\* solver, so the comparison measures exactly
//! the pruning levers.  These graphs all dispatch to the `u64` fast path
//! (`mask_words = 1` is recorded per case to prove it).
//!
//! **Section 2 (wide ablation).**  A 72-node diamond chain — past the old
//! `u64` wall, so it runs on `Words<2>` masks — is solved with symmetry
//! reduction off and on.  "Symmetry off" is the A\* reconstructing its
//! schedule, which suspends the reduction and leaves the rest of the
//! search as it is.
//!
//! Expanded-state counts are deterministic on any host; wall times are
//! same-host single-run measurements and only meaningful as ratios.
//! `--records <FILE>` additionally writes every run's deterministic fields
//! (no wall times) as JSON — CI runs the bench twice and byte-diffs the
//! records.

use pebblyn::exact::{ExactError, ExactSolver, SearchStats, Solution};
use pebblyn::prelude::*;
use pebblyn::telemetry;
use pebblyn_bench::{diamond_chain, init_telemetry_from_args, reconvergent_mesh16, results_dir};
use std::time::Instant;

/// One workload/budget instance both solvers race on.
struct Case {
    name: &'static str,
    workload: &'static str,
    graph: Cdag,
    budget: Weight,
}

fn cases() -> Vec<Case> {
    let dwt = DwtGraph::new(8, 2, WeightScheme::Equal(4)).unwrap();
    let tree = pebblyn::graphs::tree::full_kary(2, 3, WeightScheme::Equal(2)).unwrap();
    let fft = pebblyn::graphs::testgraphs::fft_butterfly(2, WeightScheme::Equal(2)).unwrap();
    let mesh = reconvergent_mesh16();
    let b_dwt = min_feasible_budget(dwt.cdag());
    let b_tree = min_feasible_budget(&tree) + 2;
    let b_fft = min_feasible_budget(&fft) + 4;
    let b_mesh = min_feasible_budget(&mesh);
    vec![
        Case {
            name: "dwt8x2_minb",
            workload: "DWT(8,2) Equal(4) at min feasible budget",
            graph: dwt.cdag().clone(),
            budget: b_dwt,
        },
        Case {
            name: "kary2x3_minb+2",
            workload: "full binary tree depth 3, budget min+2",
            graph: tree,
            budget: b_tree,
        },
        Case {
            name: "fft4_minb+4",
            workload: "FFT-4 butterfly, budget min+4",
            graph: fft,
            budget: b_fft,
        },
        Case {
            name: "mesh16_minb",
            workload: "16-node reconvergent mesh at min feasible budget",
            graph: mesh,
            budget: b_mesh,
        },
    ]
}

struct Run {
    cost: Option<Weight>,
    stats: SearchStats,
    capped: bool,
    ms: f64,
}

/// Time one solve.
fn run(solve: impl FnOnce() -> Result<Solution, ExactError>) -> Run {
    let t = Instant::now();
    let r = solve();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    match r {
        Ok(sol) => Run {
            cost: sol.cost,
            stats: sol.stats,
            capped: false,
            ms,
        },
        Err(e) => Run {
            cost: None,
            stats: SearchStats {
                expanded: e.states_expanded(),
                ..SearchStats::default()
            },
            capped: true,
            ms,
        },
    }
}

/// Deterministic fields of one solve, serialized for the `--records` file.
/// Deliberately excludes wall times and anything else host-dependent:
/// CI byte-diffs these records across runs.
fn record(name: &str, config: &str, budget: Weight, r: &Run) -> String {
    let st = &r.stats;
    format!(
        r#"    {{
      "case": "{name}",
      "config": "{config}",
      "budget": {budget},
      "cost": {cost},
      "expanded": {expanded},
      "generated": {generated},
      "dominated": {dominated},
      "deduped": {deduped},
      "symmetry_pruned": {symmetry_pruned},
      "peak_open": {peak_open},
      "re_expansions": {re_expanded},
      "frontier_left": {frontier_left},
      "root_bound": {root_bound},
      "mask_words": {mask_words}
    }}"#,
        cost = r.cost.map_or_else(|| "null".into(), |c| c.to_string()),
        expanded = st.expanded,
        generated = st.generated,
        dominated = st.dominated,
        deduped = st.deduped,
        symmetry_pruned = st.symmetry_pruned,
        peak_open = st.peak_open,
        re_expanded = st.re_expanded,
        frontier_left = st.frontier_left,
        root_bound = st.root_bound,
        mask_words = st.mask_words,
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let telemetry_on = init_telemetry_from_args(&argv);
    let records_path = argv
        .iter()
        .position(|a| a == "--records")
        .and_then(|i| argv.get(i + 1))
        .cloned();
    let astar = ExactSolver::default();
    let baseline = ExactSolver::dijkstra_baseline();
    let mut records = String::new();
    let mut push_record = |name: &str, config: &str, budget: Weight, r: &Run| {
        if !records.is_empty() {
            records.push_str(",\n");
        }
        records.push_str(&record(name, config, budget, r));
    };

    println!("exact search micro-bench: plain Dijkstra vs bound-guided A*\n");
    println!(
        "{:<16} {:>6} {:>12} {:>10} {:>12} {:>10} {:>8}",
        "case", "budget", "dij states", "dij ms", "A* states", "A* ms", "shrink"
    );

    let mut entries = String::new();
    for case in cases() {
        // One telemetry run per solver per case: reset between solves so
        // each flushed record carries exactly that solve's counters (the
        // JSONL's states_expanded then equals the table's column).
        if telemetry_on {
            telemetry::reset();
        }
        let before = run(|| baseline.solve(&case.graph, case.budget));
        if telemetry_on {
            telemetry::flush_run(&format!("{}/dijkstra", case.name));
            telemetry::reset();
        }
        let after = run(|| astar.solve(&case.graph, case.budget));
        if telemetry_on {
            telemetry::flush_run(&format!("{}/astar", case.name));
        }
        assert!(!after.capped, "{}: A* hit the state cap", case.name);
        assert_eq!(
            after.stats.mask_words, 1,
            "{}: a ≤64-node case must stay on the u64 fast path",
            case.name
        );
        if !before.capped {
            assert_eq!(
                before.cost, after.cost,
                "{}: solvers disagree on the optimum",
                case.name
            );
        }
        push_record(case.name, "dijkstra", case.budget, &before);
        push_record(case.name, "astar", case.budget, &after);
        let shrink = before.stats.expanded as f64 / (after.stats.expanded.max(1)) as f64;
        println!(
            "{:<16} {:>6} {:>11}{} {:>10.1} {:>12} {:>10.1} {:>7.1}x",
            case.name,
            case.budget,
            before.stats.expanded,
            if before.capped { "+" } else { " " },
            before.ms,
            after.stats.expanded,
            after.ms,
            shrink,
        );
        if !entries.is_empty() {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            r#"    {{
      "bench": "{name}",
      "workload": "{workload}",
      "budget": {budget},
      "optimal_cost": {cost},
      "mask_words": 1,
      "before_states_expanded": {bs},
      "before_hit_state_cap": {bc},
      "before_ms": {bms:.1},
      "after_states_expanded": {as_},
      "after_ms": {ams:.1},
      "state_reduction": {shrink:.1}
    }}"#,
            name = case.name,
            workload = case.workload,
            budget = case.budget,
            cost = after.cost.map_or_else(|| "null".into(), |c| c.to_string()),
            bs = before.stats.expanded,
            bc = before.capped,
            bms = before.ms,
            as_ = after.stats.expanded,
            ams = after.ms,
            shrink = shrink,
        ));
    }

    // --- Section 2: the 72-node wide-mask ablation -----------------------
    let wide = diamond_chain(18);
    let wide_budget: Weight = 3;
    assert_eq!(wide.len(), 72, "the wide case must cross the 64-node wall");
    println!("\nwide ablation: 72-node diamond chain, budget {wide_budget} (Words<2> masks)\n");
    println!(
        "{:<22} {:>12} {:>12} {:>8}",
        "config", "states", "sym prunes", "ms"
    );

    if telemetry_on {
        telemetry::reset();
    }
    let sym_off = run(|| astar.solve_with_schedule(&wide, wide_budget));
    if telemetry_on {
        telemetry::flush_run("diamond72/sym_off");
        telemetry::reset();
    }
    let sym_on = run(|| astar.solve(&wide, wide_budget));
    if telemetry_on {
        telemetry::flush_run("diamond72/sym_on");
    }
    assert!(!sym_off.capped && !sym_on.capped, "diamond72 hit state cap");
    assert_eq!(sym_on.cost, sym_off.cost, "symmetry must not change cost");
    assert_eq!(sym_on.cost, Some(2), "diamond chain optimum is 2");
    assert_eq!(sym_on.stats.mask_words, 2, "72 nodes need Words<2>");
    assert!(
        sym_on.stats.expanded < sym_off.stats.expanded,
        "orbit collapsing must shrink the search"
    );
    push_record("diamond72", "sym_off", wide_budget, &sym_off);
    push_record("diamond72", "sym_on", wide_budget, &sym_on);
    for (label, r) in [("sym_off", &sym_off), ("sym_on", &sym_on)] {
        println!(
            "{:<22} {:>12} {:>12} {:>8.1}",
            label, r.stats.expanded, r.stats.symmetry_pruned, r.ms
        );
    }

    let ablation = format!(
        r#"    {{
      "bench": "diamond72",
      "workload": "72-node diamond chain (18 fused diamonds), budget 3",
      "nodes": 72,
      "budget": {wide_budget},
      "optimal_cost": {cost},
      "mask_words": 2,
      "sym_off_states_expanded": {off},
      "sym_on_states_expanded": {on},
      "symmetry_pruned": {pruned}
    }}"#,
        cost = sym_on.cost.unwrap(),
        off = sym_off.stats.expanded,
        on = sym_on.stats.expanded,
        pruned = sym_on.stats.symmetry_pruned,
    );
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let json = format!(
        r#"{{
  "description": "Exact-solver search benchmark. 'benchmarks': expanded states and wall time for the plain Dijkstra baseline (no heuristic, no dominance, raw four-move successors, no symmetry — the pre-A* solver) vs the bound-guided serial A* (landmark-pdb bound, dominance pruning, macro moves, WL-orbit symmetry reduction); all four cases dispatch to the u64 fast path (mask_words 1). 'wide_ablation': a 72-node diamond chain past the old 64-node u64 wall, solved on Words<2> masks with symmetry off (the A* reconstructing its schedule) and on. States-expanded counts are deterministic; wall times are single-run same-host measurements and only the ratios are meaningful across machines. before_hit_state_cap means the baseline exceeded 5M expansions and its count is a lower bound.",
  "host": "{os} {arch}",
  "cpus": {cpus},
  "command": "cargo run --release -p pebblyn-bench --bin bench_exact",
  "benchmarks": [
{entries}
  ],
  "wide_ablation": [
{ablation}
  ]
}}
"#,
        os = std::env::consts::OS,
        arch = std::env::consts::ARCH,
    );
    let path = results_dir().join("bench_exact.json");
    std::fs::write(&path, json).expect("write bench_exact.json");
    println!("\n[json] {}", path.display());

    if let Some(rp) = records_path {
        let body = format!(
            "{{\n  \"description\": \"Deterministic per-solve records (no wall times); byte-identical on every run.\",\n  \"records\": [\n{records}\n  ]\n}}\n"
        );
        std::fs::write(&rp, body).unwrap_or_else(|e| panic!("write {rp}: {e}"));
        println!("[records] {rp}");
    }
}
