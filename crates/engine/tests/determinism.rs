//! The engine's headline invariant: a parallel sweep is byte-identical to
//! a serial (`RAYON_NUM_THREADS=1`) sweep.
//!
//! One `#[test]` only — it mutates the thread-count environment variable,
//! and this integration binary owning the whole process keeps that safe.

use pebblyn_engine::{BudgetSpec, MinMemoryPlan, Series, SweepPlan};
use pebblyn_graphs::{AnyGraph, WeightScheme, Workload};
use pebblyn_schedulers::api;

fn sweep() -> (String, String) {
    let mut plan = SweepPlan::new(
        "determinism",
        BudgetSpec::LogWords {
            lo_words: 3,
            hi_words: 400,
            points: 12,
            word: 16,
        },
    )
    .series(Series::scheduler(&api::DwtOpt))
    .series(Series::scheduler(&api::LayerByLayer))
    .series(Series::scheduler(&api::GreedyBelady))
    .series(Series::ioopt_lb())
    .series(Series::ioopt_ub())
    .measure_peak(true);
    for w in [
        Workload::Dwt { n: 64, d: 6 },
        Workload::Mvm { m: 8, n: 10 },
        Workload::Conv { n: 24, k: 4 },
    ] {
        plan = plan.workload(AnyGraph::build(w, WeightScheme::Equal(16)).unwrap());
    }
    let res = plan.run();

    let min = MinMemoryPlan::new("determinism min-memory")
        .workload(AnyGraph::build(Workload::Dwt { n: 64, d: 6 }, WeightScheme::Equal(16)).unwrap())
        .to_lower_bound(Series::scheduler(&api::DwtOpt))
        .to_lower_bound(Series::scheduler(&api::LayerByLayer))
        .run();

    // Deterministic emitters only — wall times legitimately differ.
    (format!("{}\n{}", res.to_csv(), res.to_json()), min.to_csv())
}

#[test]
fn parallel_output_is_byte_identical_to_serial() {
    let saved = std::env::var("RAYON_NUM_THREADS").ok();

    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial = sweep();

    std::env::set_var("RAYON_NUM_THREADS", "8");
    let parallel = sweep();

    match saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }

    assert_eq!(
        serial.0, parallel.0,
        "sweep rows diverged across thread counts"
    );
    assert_eq!(
        serial.1, parallel.1,
        "min-memory rows diverged across thread counts"
    );
}
