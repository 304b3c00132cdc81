//! Figure 5: bits transferred between fast and slow memory as a function
//! of fast memory size, for all four workload/weighting panels.
//!
//! Each panel is a declarative [`SweepPlan`] run by the engine (in
//! parallel); this binary only declares the plans and pivots the rows into
//! the paper's column layout.  Structured engine output (with lower-bound
//! gaps) lands next to the per-panel CSVs as `fig5_sweep.json`.
//!
//! ```sh
//! cargo run --release -p pebblyn-bench --bin fig5 [-- --panel a|b|c|d]
//! ```

use pebblyn::prelude::*;
use pebblyn_bench::{fmt_bits, init_telemetry_from_args, results_dir, Table};

fn dwt_panel(panel: &str, scheme: WeightScheme) -> SweepResult {
    let g = AnyGraph::build(Workload::Dwt { n: 256, d: 8 }, scheme).unwrap();
    let lb = algorithmic_lower_bound(g.cdag());
    let minb = min_feasible_budget(g.cdag()) / 16;
    // Sweep to past the point where layer-by-layer flattens (~1k words).
    let plan = SweepPlan::new(
        format!("Fig 5{panel} {} DWT(256,8)", scheme.label()),
        BudgetSpec::LogWords {
            lo_words: minb,
            hi_words: 1200,
            points: 28,
            word: 16,
        },
    )
    .workload(g.clone())
    .series(Series::scheduler(&api::DwtOpt))
    .series(Series::scheduler(&api::LayerByLayer));
    let res = plan.run();

    let name = g.name();
    let opt = res.series_costs(&name, "dwt-opt");
    let lbl = res.series_costs(&name, "layer-by-layer");
    let mut t = Table::new(
        res.title.clone(),
        &[
            "fast_memory_bits",
            "algorithmic_lb_bits",
            "layer_by_layer_bits",
            "optimum_bits",
        ],
    );
    for ((b, opt), (_, lbl)) in opt.into_iter().zip(lbl) {
        t.row(vec![
            b.to_string(),
            lb.to_string(),
            fmt_bits(lbl),
            fmt_bits(opt),
        ]);
    }
    t.emit();
    res
}

fn mvm_panel(panel: &str, scheme: WeightScheme) -> SweepResult {
    let g = AnyGraph::build(Workload::Mvm { m: 96, n: 120 }, scheme).unwrap();
    let plan = SweepPlan::new(
        format!("Fig 5{panel} {} MVM(96,120)", scheme.label()),
        BudgetSpec::LogWords {
            lo_words: 4,
            hi_words: 1200,
            points: 28,
            word: 16,
        },
    )
    .workload(g.clone())
    .series(Series::ioopt_lb())
    .series(Series::ioopt_ub())
    .series(Series::scheduler(&api::MvmTiling));
    let res = plan.run();

    let name = g.name();
    let lb = res.series_costs(&name, "ioopt-lb");
    let ub = res.series_costs(&name, "ioopt-ub");
    let tiling = res.series_costs(&name, "mvm-tiling");
    let mut t = Table::new(
        res.title.clone(),
        &[
            "fast_memory_bits",
            "ioopt_lb_bits",
            "ioopt_ub_bits",
            "tiling_bits",
        ],
    );
    for (((b, lb), (_, ub)), (_, tiling)) in lb.into_iter().zip(ub).zip(tiling) {
        t.row(vec![
            b.to_string(),
            fmt_bits(lb),
            fmt_bits(ub),
            fmt_bits(tiling),
        ]);
    }
    t.emit();
    res
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    init_telemetry_from_args(&args);
    let panel = args
        .iter()
        .position(|a| a == "--panel")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("all");

    let started = std::time::Instant::now();
    let mut results: Vec<SweepResult> = Vec::new();
    if matches!(panel, "a" | "all") {
        results.push(dwt_panel("a", WeightScheme::Equal(16)));
    }
    if matches!(panel, "b" | "all") {
        results.push(dwt_panel("b", WeightScheme::DoubleAccumulator(16)));
    }
    if matches!(panel, "c" | "all") {
        results.push(mvm_panel("c", WeightScheme::Equal(16)));
    }
    if matches!(panel, "d" | "all") {
        results.push(mvm_panel("d", WeightScheme::DoubleAccumulator(16)));
    }

    let json = format!(
        "[{}]",
        results
            .iter()
            .map(SweepResult::to_json)
            .collect::<Vec<_>>()
            .join(",")
    );
    let path = results_dir().join("fig5_sweep.json");
    std::fs::write(&path, json).expect("write sweep json");
    println!("[json] {}", path.display());

    let points: usize = results.iter().map(|r| r.rows.len()).sum();
    let point_ns: u64 = results.iter().map(SweepResult::total_wall_ns).sum();
    println!(
        "engine: {points} points in {:.2}s wall ({:.2}s point time)",
        started.elapsed().as_secs_f64(),
        point_ns as f64 / 1e9,
    );

    // No-op unless --telemetry installed sinks: the sweep numbers printed
    // above also land in the JSONL record for machine consumption.
    pebblyn::telemetry::flush_run(&format!("fig5/{panel}"));
}
