//! Statistics helpers: percentiles that carry their sample support,
//! medians of repeated measurements, geometric means, and the
//! multiprocessor work bound behind `makespan_gap`.

use pebblyn::prelude::*;

/// Fewest samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the sample it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The nearest-rank percentile value.
    pub value: f64,
    /// How many samples it was taken over.
    pub samples: usize,
}

/// Nearest-rank percentile `q` (in `0..1`) of `samples`.
///
/// Refuses (returns `Err` naming the support) unless at least
/// [`MIN_BEYOND`] samples rank strictly above the chosen one, so a p99
/// needs at least 1000 samples and a p50 at least 20.
pub fn percentile(samples: &[f64], q: f64) -> Result<Percentile, String> {
    assert!(q > 0.0 && q < 1.0, "percentile rank {q} outside (0, 1)");
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return Err(format!(
            "p{} over {n} samples leaves {} beyond it (need {MIN_BEYOND})",
            q * 100.0,
            n.saturating_sub(rank)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// Median of repeated measurements of one quantity (no support rule:
/// these are repeats, not a latency distribution).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank upper quartile of repeated measurements of one quantity
/// (no support rule, as for [`median`]).
pub fn upper_quartile(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "quartile of nothing");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(3 * sorted.len()).div_ceil(4) - 1]
}

/// Geometric mean of strictly positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of nothing");
    assert!(
        values.iter().all(|&v| v > 0.0),
        "geometric mean needs positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Total weight of the non-source nodes: each must be computed at least
/// once, and a compute of `v` occupies its processor for `w(v)`.
pub fn compute_weight(g: &Cdag) -> Weight {
    g.nodes()
        .filter(|&v| !g.is_source(v))
        .map(|v| g.weight(v))
        .sum()
}

/// A lower bound on the makespan of any schedule of `g` on `procs`
/// processors: the busy time every schedule must spend (each non-source
/// computed once, plus the Prop 2.4 loads and stores), spread evenly.
pub fn work_bound(g: &Cdag, procs: usize) -> f64 {
    (compute_weight(g) + algorithmic_lower_bound(g)) as f64 / procs as f64
}

/// The makespan of a single-processor answer of cost `cost` under the
/// multiprocessor timing model, with every node computed once: on one
/// processor loads never wait, so the clock is compute plus I/O.
pub fn uniprocessor_makespan(g: &Cdag, cost: Weight) -> f64 {
    (compute_weight(g) + cost) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblyn::conformance::generate;

    #[test]
    fn percentile_reports_support_and_refuses_thin_tails() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&xs, 0.99).expect("1000 samples support p99");
        assert_eq!(
            p99,
            Percentile {
                value: 990.0,
                samples: 1000
            }
        );
        assert!(percentile(&xs[..999], 0.99).is_err());
        let p50 = percentile(&xs[..20], 0.5).expect("20 samples support p50");
        assert_eq!((p50.value, p50.samples), (10.0, 20));
        assert!(percentile(&xs[..19], 0.5).is_err());
    }

    #[test]
    fn median_quartile_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(upper_quartile(&[4.0, 1.0, 2.0, 3.0]), 3.0);
        assert_eq!(upper_quartile(&[5.0, 1.0, 4.0, 2.0, 3.0]), 4.0);
        assert_eq!(upper_quartile(&[7.0]), 7.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    /// The work bound never exceeds a validated makespan, for both
    /// multiprocessor schedulers at p in {1, 2, 4} over corpus graphs.
    #[test]
    fn work_bound_never_exceeds_a_validated_makespan() {
        let mut checked = 0;
        for index in 0..32 {
            let g = generate(0xB0B0, index).graph;
            let any = AnyGraph::custom("corpus", g.clone());
            let per_proc = min_feasible_budget(&g) + g.total_weight() / 4;
            for name in ["partition-belady", "comm-list"] {
                let s = api::by_name(name).expect("registered scheduler");
                for p in [1, 2, 4] {
                    let spec = MachineSpec::symmetric(p, per_proc);
                    let multi = s.schedule_multi(&any, &spec).expect("feasible");
                    let stats = validate_multi_schedule(&g, &spec, &multi).expect("valid schedule");
                    assert!(
                        work_bound(&g, p) <= stats.makespan as f64,
                        "{name} p={p} case {index}: bound {} > makespan {}",
                        work_bound(&g, p),
                        stats.makespan
                    );
                    if p == 1 {
                        assert!(
                            uniprocessor_makespan(&g, stats.total_cost()) <= stats.makespan as f64
                        );
                    }
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 32 * 2 * 3);
    }
}
