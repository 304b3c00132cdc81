//! Figure 6: minimum fast memory size (Definition 2.6) as a function of
//! the workload size parameter `n`.
//!
//! Panels a/b sweep `DWT(n, d*)` for even `n ≤ 256` with `d*` the maximum
//! admissible level; panels c/d sweep `MVM(96, n)` for `n ≤ 120`.  Each
//! panel is a declarative [`MinMemoryPlan`] run by the engine: the DWT
//! minima come from the bisection over the DP's costs, the MVM minima from
//! the closed-form `Direct` entries.
//!
//! ```sh
//! cargo run --release -p pebblyn-bench --bin fig6 [-- --panel a|b|c|d]
//! ```

use pebblyn::prelude::*;
use pebblyn_bench::Table;

fn dwt_panel(panel: &str, scheme: WeightScheme) {
    let ns: Vec<usize> = (2..=256).step_by(2).collect();
    let mut plan = MinMemoryPlan::new(format!("Fig 6{panel} {} DWT(n,dstar)", scheme.label()))
        .to_lower_bound(Series::scheduler(&api::DwtOpt))
        .to_lower_bound(Series::scheduler(&api::LayerByLayer));
    for &n in &ns {
        let d = DwtGraph::max_level(n).expect("even n");
        plan = plan.workload(AnyGraph::build(Workload::Dwt { n, d }, scheme).unwrap());
    }
    let res = plan.run();

    let mut t = Table::new(
        res.title.clone(),
        &["n", "d_star", "layer_by_layer_bits", "optimum_bits"],
    );
    for (i, &n) in ns.iter().enumerate() {
        let d = DwtGraph::max_level(n).expect("even n");
        let opt = res.rows[2 * i].min_bits.expect("optimum reaches LB");
        let lbl = res.rows[2 * i + 1].min_bits.expect("baseline reaches LB");
        t.row(vec![
            n.to_string(),
            d.to_string(),
            lbl.to_string(),
            opt.to_string(),
        ]);
    }
    t.emit();
}

fn mvm_panel(panel: &str, scheme: WeightScheme) {
    let mut plan = MinMemoryPlan::new(format!("Fig 6{panel} {} MVM(96,n)", scheme.label()))
        .direct("ioopt-ub", |g| match g {
            AnyGraph::Mvm(m) => Some(IoOptMvmModel::for_graph(m).min_memory()),
            _ => None,
        })
        .direct("mvm-tiling", |g| match g {
            AnyGraph::Mvm(m) => Some(mvm_tiling::min_memory(m)),
            _ => None,
        });
    for n in 1..=120usize {
        plan = plan.workload(AnyGraph::build(Workload::Mvm { m: 96, n }, scheme).unwrap());
    }
    let res = plan.run();

    let mut t = Table::new(res.title.clone(), &["n", "ioopt_ub_bits", "tiling_bits"]);
    for (i, n) in (1..=120usize).enumerate() {
        let ioopt = res.rows[2 * i].min_bits.expect("IOOpt closed form");
        let tiling = res.rows[2 * i + 1].min_bits.expect("tiling family minimum");
        t.row(vec![n.to_string(), ioopt.to_string(), tiling.to_string()]);
    }
    t.emit();
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let panel = args
        .iter()
        .position(|a| a == "--panel")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("all");

    if matches!(panel, "a" | "all") {
        dwt_panel("a", WeightScheme::Equal(16));
    }
    if matches!(panel, "b" | "all") {
        dwt_panel("b", WeightScheme::DoubleAccumulator(16));
    }
    if matches!(panel, "c" | "all") {
        mvm_panel("c", WeightScheme::Equal(16));
    }
    if matches!(panel, "d" | "all") {
        mvm_panel("d", WeightScheme::DoubleAccumulator(16));
    }
}
