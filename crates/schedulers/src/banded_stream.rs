//! Streaming scheduler for banded (structured-sparse) MVM.
//!
//! The §4.3 tiling specialised to a banded matrix: the vector window slides
//! exactly as in [`crate::conv_stream`], while the band entries stream
//! through fast memory once (they have no reuse, like the dense MVM's
//! matrix).  Both residency strategies from the FIR case carry over:
//!
//! * **window-resident** — hold the `b` vector entries of the current row,
//! * **partial-interleaved** — hold one partial per open row and only two
//!   vector entries.
//!
//! Every input is read once and every output written once, so both
//! strategies meet the algorithmic lower bound; [`schedule`] picks the one
//! that fits the budget.

use pebblyn_core::{validate_schedule, Move, Schedule, Weight};
use pebblyn_graphs::banded::BandedMvmGraph;

pub use crate::conv_stream::Strategy;

/// Weighted cost of any streaming schedule: the algorithmic lower bound.
pub fn cost(g: &BandedMvmGraph) -> Weight {
    let w_in = g.scheme().input_weight();
    let w_c = g.scheme().compute_weight();
    let vector = g.n() as Weight * w_in;
    let band = (g.rows() * g.bandwidth()) as Weight * w_in;
    let outputs = g.rows() as Weight * w_c;
    vector + band + outputs
}

/// Emit the schedule for a given residency strategy.
pub fn schedule_with_strategy(g: &BandedMvmGraph, strategy: Strategy) -> Schedule {
    match strategy {
        Strategy::WindowResident => window_resident(g),
        Strategy::PartialInterleaved => partial_interleaved(g),
    }
}

/// Exact peak occupancy of a strategy, measured by replay under an
/// unbounded budget.
pub fn strategy_peak(g: &BandedMvmGraph, strategy: Strategy) -> Weight {
    let sched = schedule_with_strategy(g, strategy);
    validate_schedule(g.cdag(), Weight::MAX, &sched)
        .expect("streaming strategies emit valid schedules")
        .peak_red_weight
}

/// The streaming family's minimum fast memory size (Definition 2.6).
pub fn min_memory(g: &BandedMvmGraph) -> Weight {
    strategy_peak(g, Strategy::WindowResident).min(strategy_peak(g, Strategy::PartialInterleaved))
}

/// Budgeted cost, on the same shape as every other scheduler's
/// `min_cost(g, budget)`: the streaming cost when some strategy fits in
/// `budget`, `None` otherwise.
pub fn min_cost(g: &BandedMvmGraph, budget: Weight) -> Option<Weight> {
    (budget >= min_memory(g)).then(|| cost(g))
}

/// The cheapest-footprint streaming schedule fitting `budget`, or `None`.
pub fn schedule(g: &BandedMvmGraph, budget: Weight) -> Option<Schedule> {
    [Strategy::PartialInterleaved, Strategy::WindowResident]
        .into_iter()
        .find(|&s| strategy_peak(g, s) <= budget)
        .map(|s| schedule_with_strategy(g, s))
}

fn window_resident(g: &BandedMvmGraph) -> Schedule {
    let (b, rows) = (g.bandwidth(), g.rows());
    let mut mv = Vec::new();
    for t in 1..=b {
        mv.push(Move::Load(g.vector(t)));
    }
    for r in 1..=rows {
        // Accumulate the row: product j=0, then (product, partial) pairs.
        for j in 0..b {
            mv.push(Move::Load(g.band(r, j)));
            mv.push(Move::Compute(g.product(r, j)));
            mv.push(Move::Delete(g.band(r, j)));
            if j >= 1 {
                mv.push(Move::Compute(g.partial(r, j)));
                mv.push(Move::Delete(g.product(r, j)));
                let prev = if j == 1 {
                    g.product(r, 0)
                } else {
                    g.partial(r, j - 1)
                };
                mv.push(Move::Delete(prev));
            }
        }
        let y = g.output(r);
        mv.push(Move::Store(y));
        mv.push(Move::Delete(y));
        if r < rows {
            mv.push(Move::Delete(g.vector(r)));
            mv.push(Move::Load(g.vector(r + b)));
        }
    }
    for t in rows..=g.n() {
        mv.push(Move::Delete(g.vector(t)));
    }
    Schedule::from_moves(mv)
}

fn partial_interleaved(g: &BandedMvmGraph) -> Schedule {
    let (n, b, rows) = (g.n(), g.bandwidth(), g.rows());
    let mut mv = Vec::new();
    for s in 1..=n {
        mv.push(Move::Load(g.vector(s)));
        // Rows where x_s is the (j = s − r)-th band position, 0 <= j < b.
        let r_hi = s.min(rows);
        let r_lo = s.saturating_sub(b - 1).max(1);
        // Ascending r finishes the oldest row first (fewest live partials).
        for r in r_lo..=r_hi {
            let j = s - r;
            mv.push(Move::Load(g.band(r, j)));
            mv.push(Move::Compute(g.product(r, j)));
            mv.push(Move::Delete(g.band(r, j)));
            if j >= 1 {
                mv.push(Move::Compute(g.partial(r, j)));
                mv.push(Move::Delete(g.product(r, j)));
                let prev = if j == 1 {
                    g.product(r, 0)
                } else {
                    g.partial(r, j - 1)
                };
                mv.push(Move::Delete(prev));
            }
            if j == b - 1 {
                let y = g.output(r);
                mv.push(Move::Store(y));
                mv.push(Move::Delete(y));
            }
        }
        if s >= 2 {
            mv.push(Move::Delete(g.vector(s - 1)));
        }
    }
    mv.push(Move::Delete(g.vector(n)));
    Schedule::from_moves(mv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblyn_core::{algorithmic_lower_bound, validate_schedule};
    use pebblyn_exact::exact_min_cost;
    use pebblyn_graphs::WeightScheme;

    fn check(n: usize, b: usize, scheme: WeightScheme) {
        let g = BandedMvmGraph::new(n, b, scheme).unwrap();
        let cdag = g.cdag();
        let lb = algorithmic_lower_bound(cdag);
        for strategy in [Strategy::WindowResident, Strategy::PartialInterleaved] {
            let peak = strategy_peak(&g, strategy);
            let s = schedule_with_strategy(&g, strategy);
            let stats = validate_schedule(cdag, peak, &s)
                .unwrap_or_else(|e| panic!("Banded({n},{b}) {scheme} {strategy:?}: {e}"));
            assert_eq!(stats.cost, lb);
            assert_eq!(stats.peak_red_weight, peak);
        }
        let bmin = min_memory(&g);
        assert!(schedule(&g, bmin).is_some());
        assert!(schedule(&g, bmin - 1).is_none());
        assert_eq!(cost(&g), lb);
    }

    #[test]
    fn small_bands_all_schemes() {
        for scheme in WeightScheme::paper_configs() {
            for (n, b) in [(4, 2), (5, 3), (8, 4), (6, 6), (16, 5)] {
                check(n, b, scheme);
            }
        }
    }

    #[test]
    fn custom_weights() {
        check(
            10,
            3,
            WeightScheme::Custom {
                input: 5,
                compute: 9,
            },
        );
    }

    #[test]
    fn bci_scale_band() {
        // Tridiagonal-ish smoothing over a 96-channel frame.
        check(96, 3, WeightScheme::Equal(16));
    }

    /// Unlike the FIR case, the streamed band entry occupies one transient
    /// slot in *both* strategies, which erases interleaving's one-word
    /// advantage: the strategies tie under Equal weights and the window
    /// wins outright under Double Accumulator.
    #[test]
    fn residency_tradeoff_differs_from_fir() {
        let eq = BandedMvmGraph::new(16, 6, WeightScheme::Equal(16)).unwrap();
        assert_eq!(
            strategy_peak(&eq, Strategy::PartialInterleaved),
            strategy_peak(&eq, Strategy::WindowResident)
        );
        let da = BandedMvmGraph::new(16, 6, WeightScheme::DoubleAccumulator(16)).unwrap();
        assert!(
            strategy_peak(&da, Strategy::WindowResident)
                < strategy_peak(&da, Strategy::PartialInterleaved)
        );
    }

    #[test]
    fn min_memory_close_to_fundamental() {
        let g = BandedMvmGraph::new(3, 2, WeightScheme::Equal(1)).unwrap();
        let cdag = g.cdag();
        let lb = algorithmic_lower_bound(cdag);
        let fam = min_memory(&g);
        assert_eq!(exact_min_cost(cdag, fam), Some(lb));
        // The exhaustive optimum may shave a little more via wavefront
        // scheduling (as in the FIR case); it can never need more than the
        // family, and within two lattice units below the family minimum the
        // lower bound becomes unreachable.
        assert_ne!(exact_min_cost(cdag, fam - 3), Some(lb));
    }
}
