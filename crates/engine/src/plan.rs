//! Declarative sweep plans: `workloads × budgets × series`.
//!
//! A [`SweepPlan`] names what to evaluate — workload instances, a budget
//! grid, and cost series (schedulers behind the
//! [`Scheduler`] trait, or analytic models such as the IOOpt bounds) —
//! and [`SweepPlan::run`] fans the cross product out over the worker pool.
//! A [`MinMemoryPlan`] does the same for Definition 2.6 searches.
//!
//! Rows come back in deterministic plan order regardless of thread count,
//! so parallel output is byte-identical to `RAYON_NUM_THREADS=1`.

use crate::par::par_map;
use crate::result::{MinMemoryResult, MinMemoryRow, SweepResult, SweepRow};
use pebblyn_baselines::IoOptMvmModel;
use pebblyn_core::{
    algorithmic_lower_bound, min_feasible_budget, occupancy_summary, ScheduleRequest, Weight,
};
use pebblyn_graphs::AnyGraph;
use pebblyn_schedulers::{api, MinMemoryOptions, ScheduleError, Scheduler};
use pebblyn_telemetry as telemetry;
use std::time::Instant;

/// Log-spaced budgets on the word lattice from `lo_words` to `hi_words`
/// (inclusive, deduplicated, in bits).
pub fn log_budgets(lo_words: u64, hi_words: u64, points: usize, word: u64) -> Vec<Weight> {
    assert!(lo_words >= 1 && hi_words >= lo_words && points >= 2);
    let lo = lo_words as f64;
    let hi = hi_words as f64;
    let mut out: Vec<Weight> = (0..points)
        .map(|i| {
            let t = i as f64 / (points - 1) as f64;
            let w = lo * (hi / lo).powf(t);
            (w.round() as u64).clamp(lo_words, hi_words) * word
        })
        .collect();
    out.dedup();
    out
}

/// How a plan picks its budget grid.
#[derive(Debug, Clone)]
pub enum BudgetSpec {
    /// An explicit list of budgets in bits, shared by every workload.
    Explicit(Vec<Weight>),
    /// [`log_budgets`] — the figure binaries' grid.
    LogWords {
        /// Smallest budget in words.
        lo_words: u64,
        /// Largest budget in words.
        hi_words: u64,
        /// Number of grid points before deduplication.
        points: usize,
        /// Word size in bits.
        word: u64,
    },
    /// Per-workload log grid from the minimum feasible budget to the total
    /// weight, floored to word multiples — the CLI `sweep` grid (every
    /// point is kept, duplicates included).
    LogLattice {
        /// Number of grid points.
        points: usize,
        /// Word size in bits (floor granularity).
        word: u64,
    },
}

impl BudgetSpec {
    /// The budgets to probe for one workload.
    pub fn budgets(&self, g: &AnyGraph) -> Vec<Weight> {
        match *self {
            BudgetSpec::Explicit(ref b) => b.clone(),
            BudgetSpec::LogWords {
                lo_words,
                hi_words,
                points,
                word,
            } => log_budgets(lo_words, hi_words, points, word),
            BudgetSpec::LogLattice { points, word } => {
                assert!(word > 0, "word size must be positive");
                let cdag = g.cdag();
                let lo = min_feasible_budget(cdag);
                let hi = cdag.total_weight();
                let points = points.max(2);
                (0..points)
                    .map(|i| {
                        let t = i as f64 / (points - 1) as f64;
                        let b = (lo as f64 * (hi as f64 / lo as f64).powf(t)) as Weight;
                        b / word * word
                    })
                    .collect()
            }
        }
    }
}

/// Boxed analytic cost model: `(graph, budget) -> cost`.
type CostFn<'a> = Box<dyn Fn(&AnyGraph, Weight) -> Option<Weight> + Send + Sync + 'a>;

/// Boxed closed-form minimum-memory formula.
type MinMemoryFn<'a> = Box<dyn Fn(&AnyGraph) -> Option<Weight> + Send + Sync + 'a>;

enum Kind<'a> {
    Scheduler(&'a dyn Scheduler),
    Model(CostFn<'a>),
}

/// One cost series of a sweep: a scheduler or an analytic model.
pub struct Series<'a> {
    name: String,
    monotone: bool,
    kind: Kind<'a>,
}

impl<'a> Series<'a> {
    /// A scheduler series (name and monotonicity from the trait).
    pub fn scheduler(s: &'a dyn Scheduler) -> Self {
        Series {
            name: s.name().to_string(),
            monotone: s.monotone(),
            kind: Kind::Scheduler(s),
        }
    }

    /// An analytic cost model series.
    pub fn model(
        name: impl Into<String>,
        monotone: bool,
        f: impl Fn(&AnyGraph, Weight) -> Option<Weight> + Send + Sync + 'a,
    ) -> Self {
        Series {
            name: name.into(),
            monotone,
            kind: Kind::Model(Box::new(f)),
        }
    }

    /// The IOOpt lower bound for MVM workloads (§5.2).
    pub fn ioopt_lb() -> Series<'static> {
        Series::model("ioopt-lb", true, |g, b| match g {
            AnyGraph::Mvm(m) => Some(IoOptMvmModel::for_graph(m).lower_bound(b)),
            _ => None,
        })
    }

    /// The IOOpt upper bound for MVM workloads (§5.2).
    pub fn ioopt_ub() -> Series<'static> {
        Series::model("ioopt-ub", true, |g, b| match g {
            AnyGraph::Mvm(m) => IoOptMvmModel::for_graph(m).upper_bound(b),
            _ => None,
        })
    }

    /// The series name used in result rows.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the series' cost is non-increasing in the budget.
    pub fn monotone(&self) -> bool {
        self.monotone
    }

    /// Evaluate the series.
    ///
    /// Scheduler series go through the typed request surface
    /// ([`api::execute_with`] with a cost-only [`ScheduleRequest`], so DP
    /// schedulers answer from their recurrences), folding
    /// [`ScheduleError::Unsupported`] and
    /// [`ScheduleError::InfeasibleBudget`] into `None` (an empty sweep
    /// cell); a [`ScheduleError::ValidationFailed`] is a scheduler bug and
    /// panics rather than masquerading as infeasibility.
    pub fn cost(&self, g: &AnyGraph, budget: Weight) -> Option<Weight> {
        match &self.kind {
            Kind::Scheduler(s) => {
                let req = ScheduleRequest::new(g, budget, s.name()).with_cost_only(true);
                match api::execute_with(*s, &req) {
                    Ok(r) => Some(r.cost()),
                    Err(ScheduleError::Unsupported | ScheduleError::InfeasibleBudget { .. }) => {
                        None
                    }
                    Err(
                        e @ (ScheduleError::ValidationFailed(_)
                        | ScheduleError::MultiValidationFailed(_)),
                    ) => {
                        panic!("{} on {} at {budget}: {e}", s.name(), g.name())
                    }
                }
            }
            Kind::Model(f) => f(g, budget),
        }
    }

    fn schedule_peak(&self, g: &AnyGraph, budget: Weight) -> Option<Weight> {
        match &self.kind {
            Kind::Scheduler(s) => {
                let sch = s.schedule(g, budget).ok()?;
                let summary = occupancy_summary(g.cdag(), &sch)
                    .unwrap_or_else(|e| panic!("{} on {} at {budget}: {e}", s.name(), g.name()));
                Some(summary.peak)
            }
            Kind::Model(_) => None,
        }
    }
}

impl std::fmt::Debug for Series<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Series")
            .field("name", &self.name)
            .field("monotone", &self.monotone)
            .finish_non_exhaustive()
    }
}

/// A declarative `workloads × budgets × series` sweep.
///
/// Constructed exclusively through [`SweepPlan::new`] and the builder
/// methods ([`workload`](SweepPlan::workload), [`series`](SweepPlan::series),
/// [`measure_peak`](SweepPlan::measure_peak)) so adding plan knobs is not a
/// breaking change.
#[derive(Debug)]
pub struct SweepPlan<'a> {
    title: String,
    workloads: Vec<AnyGraph>,
    budgets: BudgetSpec,
    series: Vec<Series<'a>>,
    measure_peak: bool,
}

impl<'a> SweepPlan<'a> {
    /// An empty plan over a budget grid.
    pub fn new(title: impl Into<String>, budgets: BudgetSpec) -> Self {
        SweepPlan {
            title: title.into(),
            workloads: Vec::new(),
            budgets,
            series: Vec::new(),
            measure_peak: false,
        }
    }

    /// Add a workload instance.
    pub fn workload(mut self, g: AnyGraph) -> Self {
        self.workloads.push(g);
        self
    }

    /// Add a cost series.
    pub fn series(mut self, s: Series<'a>) -> Self {
        self.series.push(s);
        self
    }

    /// Request per-point peak-occupancy measurement.
    pub fn measure_peak(mut self, yes: bool) -> Self {
        self.measure_peak = yes;
        self
    }

    /// Execute the plan.
    ///
    /// Points fan out over the worker pool (`RAYON_NUM_THREADS`, then
    /// `PEBBLYN_THREADS`, then all cores); rows come back in plan order:
    /// workload-major, then budget, then series.
    pub fn run(&self) -> SweepResult {
        let _span = telemetry::span("sweep");
        struct WorkloadMeta {
            name: String,
            lower_bound: Weight,
        }
        let meta: Vec<WorkloadMeta> = self
            .workloads
            .iter()
            .map(|g| WorkloadMeta {
                name: g.name(),
                lower_bound: algorithmic_lower_bound(g.cdag()),
            })
            .collect();
        let mut points: Vec<(usize, Weight, usize)> = Vec::new();
        for (wi, g) in self.workloads.iter().enumerate() {
            for b in self.budgets.budgets(g) {
                for si in 0..self.series.len() {
                    points.push((wi, b, si));
                }
            }
        }
        let rows = par_map(&points, |&(wi, budget, si)| {
            let started = Instant::now();
            let g = &self.workloads[wi];
            let s = &self.series[si];
            let m = &meta[wi];
            let cost = s.cost(g, budget);
            let peak = if self.measure_peak {
                s.schedule_peak(g, budget)
            } else {
                None
            };
            SweepRow {
                workload: m.name.clone(),
                series: s.name().to_string(),
                budget,
                lower_bound: m.lower_bound,
                cost,
                peak,
                wall_ns: started.elapsed().as_nanos() as u64,
            }
        });
        SweepResult {
            title: self.title.clone(),
            rows,
        }
    }
}

/// One column of a [`MinMemoryPlan`].
pub enum MinMemoryEntry<'a> {
    /// Search the smallest budget at which the series' cost reaches the
    /// workload's algorithmic lower bound (Definition 2.6), bisecting when
    /// the series is monotone.
    ToLowerBound(Series<'a>),
    /// A closed-form family minimum, evaluated directly (e.g.
    /// `mvm_tiling::min_memory`, `IoOptMvmModel::min_memory`).
    Direct {
        /// Column name.
        name: String,
        /// The minimum for one workload (`None` = not applicable).
        f: MinMemoryFn<'a>,
    },
}

impl MinMemoryEntry<'_> {
    /// The column name used in result rows.
    pub fn name(&self) -> &str {
        match self {
            MinMemoryEntry::ToLowerBound(s) => s.name(),
            MinMemoryEntry::Direct { name, .. } => name,
        }
    }
}

impl std::fmt::Debug for MinMemoryEntry<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MinMemoryEntry({})", self.name())
    }
}

/// A declarative `workloads × series` minimum-fast-memory computation.
///
/// Constructed exclusively through [`MinMemoryPlan::new`] and the builder
/// methods, like [`SweepPlan`].
#[derive(Debug)]
pub struct MinMemoryPlan<'a> {
    title: String,
    workloads: Vec<AnyGraph>,
    entries: Vec<MinMemoryEntry<'a>>,
}

impl<'a> MinMemoryPlan<'a> {
    /// An empty plan.
    pub fn new(title: impl Into<String>) -> Self {
        MinMemoryPlan {
            title: title.into(),
            workloads: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Add a workload instance.
    pub fn workload(mut self, g: AnyGraph) -> Self {
        self.workloads.push(g);
        self
    }

    /// Add a Definition 2.6 search column for a series.
    pub fn to_lower_bound(mut self, s: Series<'a>) -> Self {
        self.entries.push(MinMemoryEntry::ToLowerBound(s));
        self
    }

    /// Add a closed-form column.
    pub fn direct(
        mut self,
        name: impl Into<String>,
        f: impl Fn(&AnyGraph) -> Option<Weight> + Send + Sync + 'a,
    ) -> Self {
        self.entries.push(MinMemoryEntry::Direct {
            name: name.into(),
            f: Box::new(f),
        });
        self
    }

    /// Execute the plan; rows come back in plan order: workload-major, then
    /// entry.
    pub fn run(&self) -> MinMemoryResult {
        let _span = telemetry::span("min_memory");
        let mut points: Vec<(usize, usize)> = Vec::new();
        for wi in 0..self.workloads.len() {
            for ei in 0..self.entries.len() {
                points.push((wi, ei));
            }
        }
        let rows = par_map(&points, |&(wi, ei)| {
            let started = Instant::now();
            let g = &self.workloads[wi];
            let cdag = g.cdag();
            let lower_bound = algorithmic_lower_bound(cdag);
            let min_bits = match &self.entries[ei] {
                MinMemoryEntry::ToLowerBound(s) => {
                    let opts = MinMemoryOptions::for_graph(cdag).monotone(s.monotone());
                    pebblyn_schedulers::min_memory(|b| s.cost(g, b), lower_bound, opts)
                }
                MinMemoryEntry::Direct { f, .. } => f(g),
            };
            MinMemoryRow {
                workload: g.name(),
                series: self.entries[ei].name().to_string(),
                lower_bound,
                min_bits,
                wall_ns: started.elapsed().as_nanos() as u64,
            }
        });
        MinMemoryResult {
            title: self.title.clone(),
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblyn_graphs::{WeightScheme, Workload};
    use pebblyn_schedulers::api::{DwtOpt, LayerByLayer};
    use pebblyn_schedulers::layer_by_layer::LayerByLayerOptions;
    use pebblyn_schedulers::{dwt_opt, layer_by_layer, mvm_tiling};

    fn dwt16() -> AnyGraph {
        AnyGraph::build(Workload::Dwt { n: 16, d: 4 }, WeightScheme::Equal(16)).unwrap()
    }

    #[test]
    fn log_budgets_are_monotone_and_bounded() {
        let b = log_budgets(3, 1024, 20, 16);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*b.first().unwrap(), 48);
        assert_eq!(*b.last().unwrap(), 1024 * 16);
    }

    #[test]
    fn log_lattice_matches_cli_grid() {
        let g = dwt16();
        let spec = BudgetSpec::LogLattice {
            points: 5,
            word: 16,
        };
        let budgets = spec.budgets(&g);
        assert_eq!(budgets.len(), 5, "every point kept, duplicates included");
        assert!(budgets.iter().all(|b| b % 16 == 0));
        assert!(budgets.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sweep_rows_match_direct_evaluation() {
        let g = dwt16();
        let AnyGraph::Dwt(ref d) = g else {
            unreachable!()
        };
        let budgets = vec![64, 112, 160, 4096];
        let plan = SweepPlan::new("test", BudgetSpec::Explicit(budgets.clone()))
            .workload(g.clone())
            .series(Series::scheduler(&DwtOpt))
            .series(Series::scheduler(&LayerByLayer));
        let res = plan.run();
        assert_eq!(res.rows.len(), budgets.len() * 2);
        for (i, &b) in budgets.iter().enumerate() {
            let opt_row = &res.rows[2 * i];
            let lbl_row = &res.rows[2 * i + 1];
            assert_eq!(opt_row.series, "dwt-opt");
            assert_eq!(opt_row.cost, dwt_opt::min_cost(d, b));
            assert_eq!(
                lbl_row.cost,
                layer_by_layer::cost(d, b, LayerByLayerOptions::default())
            );
            assert_eq!(opt_row.lower_bound, algorithmic_lower_bound(d.cdag()));
        }
    }

    #[test]
    fn repeated_runs_agree() {
        let plan = SweepPlan::new("test", BudgetSpec::Explicit(vec![112, 160]))
            .workload(dwt16())
            .series(Series::scheduler(&DwtOpt));
        assert_eq!(plan.run().to_csv(), plan.run().to_csv());
    }

    #[test]
    fn peaks_respect_the_budget() {
        let plan = SweepPlan::new("test", BudgetSpec::Explicit(vec![160, 320]))
            .workload(dwt16())
            .series(Series::scheduler(&DwtOpt))
            .series(Series::ioopt_lb())
            .measure_peak(true);
        let res = plan.run();
        for row in &res.rows {
            match row.series.as_str() {
                "dwt-opt" => {
                    let peak = row.peak.expect("scheduler rows have peaks");
                    assert!(peak <= row.budget);
                }
                "ioopt-lb" => {
                    assert_eq!(row.peak, None, "model rows have no schedule");
                    assert_eq!(row.cost, None, "ioopt does not apply to DWT");
                }
                other => panic!("unexpected series {other}"),
            }
        }
    }

    #[test]
    fn min_memory_plan_matches_direct_search() {
        let g = dwt16();
        let AnyGraph::Dwt(ref d) = g else {
            unreachable!()
        };
        let cdag = d.cdag();
        let lb = algorithmic_lower_bound(cdag);
        let expect = pebblyn_schedulers::min_memory(
            |b| dwt_opt::min_cost(d, b),
            lb,
            MinMemoryOptions::for_graph(cdag).monotone(true),
        );
        let res = MinMemoryPlan::new("test")
            .workload(g.clone())
            .to_lower_bound(Series::scheduler(&DwtOpt))
            .run();
        assert_eq!(res.rows.len(), 1);
        assert_eq!(res.rows[0].min_bits, expect);
        assert_eq!(res.rows[0].lower_bound, lb);
    }

    #[test]
    fn direct_entries_bypass_the_search() {
        let g = AnyGraph::build(Workload::Mvm { m: 4, n: 5 }, WeightScheme::Equal(16)).unwrap();
        let AnyGraph::Mvm(ref m) = g else {
            unreachable!()
        };
        let expect = mvm_tiling::min_memory(m);
        let res = MinMemoryPlan::new("test")
            .workload(g.clone())
            .direct("mvm-tiling", |g| match g {
                AnyGraph::Mvm(m) => Some(mvm_tiling::min_memory(m)),
                _ => None,
            })
            .run();
        assert_eq!(res.rows[0].min_bits, Some(expect));
        assert_eq!(res.rows[0].series, "mvm-tiling");
    }

    #[test]
    fn ioopt_series_track_the_model() {
        let g = AnyGraph::build(Workload::Mvm { m: 8, n: 10 }, WeightScheme::Equal(16)).unwrap();
        let AnyGraph::Mvm(ref m) = g else {
            unreachable!()
        };
        let model = pebblyn_baselines::IoOptMvmModel::for_graph(m);
        for b in [64u64, 256, 1024] {
            assert_eq!(Series::ioopt_lb().cost(&g, b), Some(model.lower_bound(b)));
            assert_eq!(Series::ioopt_ub().cost(&g, b), model.upper_bound(b));
        }
    }
}
