//! Streaming schedulers for FIR convolution graphs.
//!
//! The §4 data-reuse machinery applied to the simplest overlapping-window
//! dataflow.  Two residency strategies exist, mirroring the
//! accumulator-versus-vector trade-off of the MVM tiling (§4.3):
//!
//! * **window-resident** — keep the current `k` input samples in fast
//!   memory and run each output's accumulation caterpillar to completion;
//!   peak `k·w_in + 2·w_c` (samples + two live partials),
//! * **partial-interleaved** — keep one in-flight partial sum per open
//!   window instead, so only two input samples are ever resident; peak
//!   `(k−1)·w_c + 2·w_in + w_c`-ish (measured exactly, see
//!   [`min_memory`]).
//!
//! Both read every input once and write every output once, so both meet
//! the algorithmic lower bound; which one needs less fast memory depends on
//! the weights — windows win when partials are expensive (Double
//! Accumulator), interleaving wins when everything is one word (Equal).
//! [`schedule`] picks the cheaper strategy that fits.

use pebblyn_core::{validate_schedule, Move, Schedule, Weight};
use pebblyn_graphs::conv::ConvGraph;

/// Which residency strategy a schedule uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Hold the `k`-sample window; one live accumulation at a time.
    WindowResident,
    /// Hold one partial per open window; two samples at a time.
    PartialInterleaved,
}

/// Weighted cost of any streaming schedule: the algorithmic lower bound.
pub fn cost(conv: &ConvGraph) -> Weight {
    let w_in = conv.scheme().input_weight();
    let w_c = conv.scheme().compute_weight();
    conv.n() as Weight * w_in + conv.outputs() as Weight * w_c
}

/// Emit the schedule for a specific strategy (always LB-cost; validity
/// requires a budget of at least [`strategy_peak`]).
pub fn schedule_with_strategy(conv: &ConvGraph, strategy: Strategy) -> Schedule {
    match strategy {
        Strategy::WindowResident => window_resident(conv),
        Strategy::PartialInterleaved => partial_interleaved(conv),
    }
}

/// Exact peak fast-memory occupancy of a strategy on this graph,
/// measured by replaying the emitted moves under an unbounded budget.
pub fn strategy_peak(conv: &ConvGraph, strategy: Strategy) -> Weight {
    let sched = schedule_with_strategy(conv, strategy);
    validate_schedule(conv.cdag(), Weight::MAX, &sched)
        .expect("streaming strategies emit valid schedules")
        .peak_red_weight
}

/// The smallest budget at which some streaming strategy is valid — and,
/// because streaming cost is the algorithmic lower bound, the minimum fast
/// memory size (Definition 2.6) of the streaming family.
pub fn min_memory(conv: &ConvGraph) -> Weight {
    strategy_peak(conv, Strategy::WindowResident)
        .min(strategy_peak(conv, Strategy::PartialInterleaved))
}

/// Budgeted cost, on the same shape as every other scheduler's
/// `min_cost(g, budget)`: the streaming cost when some strategy fits in
/// `budget`, `None` otherwise.  (Streaming cost is budget-independent —
/// always the algorithmic lower bound — so this only gates on
/// [`min_memory`].)
pub fn min_cost(conv: &ConvGraph, budget: Weight) -> Option<Weight> {
    (budget >= min_memory(conv)).then(|| cost(conv))
}

/// Generate the cheapest-footprint streaming schedule fitting `budget`,
/// or `None` when neither strategy fits.
pub fn schedule(conv: &ConvGraph, budget: Weight) -> Option<Schedule> {
    [Strategy::PartialInterleaved, Strategy::WindowResident]
        .into_iter()
        .find(|&s| strategy_peak(conv, s) <= budget)
        .map(|s| schedule_with_strategy(conv, s))
}

fn window_resident(conv: &ConvGraph) -> Schedule {
    let (k, outputs) = (conv.k(), conv.outputs());
    let mut mv = Vec::new();
    for t in 1..=k {
        mv.push(Move::Load(conv.input(t)));
    }
    for t in 1..=outputs {
        mv.push(Move::Compute(conv.partial(t, 2)));
        for j in 3..=k {
            mv.push(Move::Compute(conv.partial(t, j)));
            mv.push(Move::Delete(conv.partial(t, j - 1)));
        }
        let y = conv.output(t);
        mv.push(Move::Store(y));
        mv.push(Move::Delete(y));
        if t < outputs {
            mv.push(Move::Delete(conv.input(t)));
            mv.push(Move::Load(conv.input(t + k)));
        }
    }
    for t in outputs..=conv.n() {
        mv.push(Move::Delete(conv.input(t)));
    }
    Schedule::from_moves(mv)
}

fn partial_interleaved(conv: &ConvGraph) -> Schedule {
    let (n, k, outputs) = (conv.n(), conv.k(), conv.outputs());
    let mut mv = Vec::new();
    for s in 1..=n {
        mv.push(Move::Load(conv.input(s)));
        if s >= 2 {
            // Windows where x_s is the j-th sample, j = s − t + 1 ∈ [2, k].
            // Ascending t finishes the oldest window (freeing its partial)
            // before opening the newest one, which keeps the number of live
            // partials at k−1 instead of k.
            let t_hi = (s - 1).min(outputs);
            let t_lo = s.saturating_sub(k - 1).max(1);
            for t in t_lo..=t_hi {
                let j = s - t + 1;
                mv.push(Move::Compute(conv.partial(t, j)));
                if j > 2 {
                    mv.push(Move::Delete(conv.partial(t, j - 1)));
                }
                if j == k {
                    let y = conv.output(t);
                    mv.push(Move::Store(y));
                    mv.push(Move::Delete(y));
                }
            }
            mv.push(Move::Delete(conv.input(s - 1)));
        }
    }
    mv.push(Move::Delete(conv.input(n)));
    Schedule::from_moves(mv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblyn_core::{algorithmic_lower_bound, validate_schedule};
    use pebblyn_exact::exact_min_cost;
    use pebblyn_graphs::WeightScheme;

    fn check(n: usize, k: usize, scheme: WeightScheme) {
        let conv = ConvGraph::new(n, k, scheme).unwrap();
        let g = conv.cdag();
        let lb = algorithmic_lower_bound(g);
        for strategy in [Strategy::WindowResident, Strategy::PartialInterleaved] {
            let peak = strategy_peak(&conv, strategy);
            let s = schedule_with_strategy(&conv, strategy);
            let stats = validate_schedule(g, peak, &s)
                .unwrap_or_else(|e| panic!("Conv({n},{k}) {scheme} {strategy:?}: {e}"));
            assert_eq!(stats.cost, lb, "{strategy:?} hits LB");
            assert_eq!(stats.peak_red_weight, peak, "peak measurement is tight");
        }
        let b = min_memory(&conv);
        let s = schedule(&conv, b).expect("feasible at family min");
        let stats = validate_schedule(g, b, &s).unwrap();
        assert_eq!(stats.cost, cost(&conv));
        assert!(schedule(&conv, b - 1).is_none());
    }

    #[test]
    fn small_filters_all_schemes() {
        for scheme in WeightScheme::paper_configs() {
            for (n, k) in [(4, 2), (5, 3), (8, 4), (6, 6), (16, 5)] {
                check(n, k, scheme);
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
        check(
            10,
            4,
            WeightScheme::Custom {
                input: 9,
                compute: 2,
            },
        );
    }

    #[test]
    fn bci_scale_filter() {
        // A 32-tap filter over a 256-sample window — realistic band-pass
        // front-end dimensions.
        check(256, 32, WeightScheme::Equal(16));
    }

    /// The residency trade-off flips with the weights, exactly like the
    /// MVM tiling's accumulator-vs-vector choice.
    #[test]
    fn strategy_choice_depends_on_weights() {
        // Equal: partials are as cheap as samples — interleaving (2 samples
        // + k−1 partials) beats the window (k samples + 2 partials).
        let eq = ConvGraph::new(16, 6, WeightScheme::Equal(16)).unwrap();
        assert!(
            strategy_peak(&eq, Strategy::PartialInterleaved)
                < strategy_peak(&eq, Strategy::WindowResident)
        );
        // Double Accumulator: partials cost twice a sample — the window
        // wins.
        let da = ConvGraph::new(16, 6, WeightScheme::DoubleAccumulator(16)).unwrap();
        assert!(
            strategy_peak(&da, Strategy::WindowResident)
                < strategy_peak(&da, Strategy::PartialInterleaved)
        );
    }

    /// The family minimum matches the fundamental minimum (exact solver)
    /// on a small instance.
    #[test]
    fn min_memory_is_fundamental_small() {
        let conv = ConvGraph::new(5, 3, WeightScheme::Equal(2)).unwrap();
        let g = conv.cdag();
        let lb = algorithmic_lower_bound(g);
        let b = min_memory(&conv);
        assert_eq!(exact_min_cost(g, b), Some(lb));
        assert_ne!(
            exact_min_cost(g, b - 2),
            Some(lb),
            "one lattice step below the family minimum the LB is unreachable"
        );
    }

    /// Below the streaming minimum the problem is still schedulable (with
    /// extra I/O) — quantified by the exact solver.
    #[test]
    fn exact_quantifies_the_gap_below_min_memory() {
        let conv = ConvGraph::new(4, 2, WeightScheme::Equal(1)).unwrap();
        let g = conv.cdag();
        let lb = algorithmic_lower_bound(g); // 4 inputs + 3 outputs = 7
        assert_eq!(lb, 7);
        assert_eq!(exact_min_cost(g, 3), Some(lb));
        let tight = exact_min_cost(g, pebblyn_core::min_feasible_budget(g)).unwrap();
        assert!(tight >= lb);
    }
}
