//! Structured sweep results with CSV/JSON emitters.
//!
//! Rows are produced in deterministic plan order (workload-major, then
//! budget, then series), so a parallel run's [`SweepResult::to_csv`] is
//! byte-identical to a single-threaded one.  Wall-clock timings are
//! recorded per row but kept out of the deterministic emitters; use
//! [`SweepResult::to_csv_timed`] when you want them.

use pebblyn_core::Weight;
use pebblyn_telemetry::schema::json_str;

/// One evaluated sweep point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRow {
    /// Workload instance name, e.g. `DWT(256, 8)`.
    pub workload: String,
    /// Series (scheduler or model) name, e.g. `dwt-opt`.
    pub series: String,
    /// Fast-memory budget in bits.
    pub budget: Weight,
    /// The workload's algorithmic lower bound in bits.
    pub lower_bound: Weight,
    /// The series' cost at this budget (`None` = infeasible/unsupported).
    pub cost: Option<Weight>,
    /// Peak fast-memory occupancy of the generated schedule, when the plan
    /// asked for it and the series produces schedules.
    pub peak: Option<Weight>,
    /// Wall-clock time spent evaluating this point (nondeterministic).
    pub wall_ns: u64,
}

impl SweepRow {
    /// Distance of the achieved cost from the algorithmic lower bound.
    pub fn gap(&self) -> Option<Weight> {
        self.cost.map(|c| c.saturating_sub(self.lower_bound))
    }
}

fn cell(v: Option<Weight>) -> String {
    v.map_or_else(|| "inf".into(), |w| w.to_string())
}

fn json_opt(v: Option<Weight>) -> String {
    v.map_or_else(|| "null".into(), |w| w.to_string())
}

/// All rows of one executed [`crate::SweepPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepResult {
    /// Plan title.
    pub title: String,
    /// Rows in plan order.
    pub rows: Vec<SweepRow>,
}

impl SweepResult {
    /// Header of [`Self::to_csv`].
    pub const CSV_HEADER: &'static str =
        "workload,series,budget_bits,lower_bound_bits,cost_bits,peak_bits,gap_bits";

    /// Deterministic CSV (no timings): identical across thread counts.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(Self::CSV_HEADER);
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                r.workload,
                r.series,
                r.budget,
                r.lower_bound,
                cell(r.cost),
                cell(r.peak),
                cell(r.gap()),
            ));
        }
        out
    }

    /// CSV with a trailing nondeterministic `wall_ns` column.
    pub fn to_csv_timed(&self) -> String {
        let mut out = String::from(Self::CSV_HEADER);
        out.push_str(",wall_ns\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{}\n",
                r.workload,
                r.series,
                r.budget,
                r.lower_bound,
                cell(r.cost),
                cell(r.peak),
                cell(r.gap()),
                r.wall_ns,
            ));
        }
        out
    }

    /// Deterministic JSON: `{"title": ..., "rows": [{...}, ...]}`.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"title\":{},\"rows\":[", json_str(&self.title));
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"workload\":{},\"series\":{},\"budget_bits\":{},\
                 \"lower_bound_bits\":{},\"cost_bits\":{},\"peak_bits\":{},\"gap_bits\":{}}}",
                json_str(&r.workload),
                json_str(&r.series),
                r.budget,
                r.lower_bound,
                json_opt(r.cost),
                json_opt(r.peak),
                json_opt(r.gap()),
            ));
        }
        out.push_str("]}");
        out
    }

    /// The `(budget, cost)` column of one `(workload, series)` pair, in
    /// plan order — how figure binaries pivot rows back into plot series.
    pub fn series_costs(&self, workload: &str, series: &str) -> Vec<(Weight, Option<Weight>)> {
        self.rows
            .iter()
            .filter(|r| r.workload == workload && r.series == series)
            .map(|r| (r.budget, r.cost))
            .collect()
    }

    /// Total wall-clock nanoseconds summed over rows (CPU-time-like: the
    /// parallel wall-clock is lower).
    pub fn total_wall_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.wall_ns).sum()
    }
}

/// One minimum-fast-memory answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinMemoryRow {
    /// Workload instance name.
    pub workload: String,
    /// Series name.
    pub series: String,
    /// The workload's algorithmic lower bound in bits.
    pub lower_bound: Weight,
    /// The minimum fast memory in bits (`None` = the goal is unreachable).
    pub min_bits: Option<Weight>,
    /// Wall-clock time spent on this entry (nondeterministic).
    pub wall_ns: u64,
}

/// All rows of one executed [`crate::MinMemoryPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinMemoryResult {
    /// Plan title.
    pub title: String,
    /// Rows in plan order (workload-major, then series).
    pub rows: Vec<MinMemoryRow>,
}

impl MinMemoryResult {
    /// Header of [`Self::to_csv`].
    pub const CSV_HEADER: &'static str = "workload,series,lower_bound_bits,min_memory_bits";

    /// Deterministic CSV (no timings).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(Self::CSV_HEADER);
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{}\n",
                r.workload,
                r.series,
                r.lower_bound,
                cell(r.min_bits),
            ));
        }
        out
    }

    /// The minimum-memory column of one series, in workload order.
    pub fn series_minima(&self, series: &str) -> Vec<Option<Weight>> {
        self.rows
            .iter()
            .filter(|r| r.series == series)
            .map(|r| r.min_bits)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(cost: Option<Weight>) -> SweepRow {
        SweepRow {
            workload: "DWT(4, 1)".into(),
            series: "dwt-opt".into(),
            budget: 64,
            lower_bound: 96,
            cost,
            peak: Some(48),
            wall_ns: 1234,
        }
    }

    #[test]
    fn csv_shapes() {
        let res = SweepResult {
            title: "t".into(),
            rows: vec![row(Some(100)), row(None)],
        };
        let csv = res.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(SweepResult::CSV_HEADER));
        assert_eq!(lines.next(), Some("DWT(4, 1),dwt-opt,64,96,100,48,4"));
        assert_eq!(lines.next(), Some("DWT(4, 1),dwt-opt,64,96,inf,48,inf"));
        assert!(res
            .to_csv_timed()
            .lines()
            .next()
            .unwrap()
            .ends_with(",wall_ns"));
        assert!(res.to_csv_timed().contains(",1234"));
        assert!(
            !res.to_csv().contains("1234"),
            "timings stay out of the deterministic CSV"
        );
    }

    #[test]
    fn json_is_escaped_and_nullable() {
        let mut r = row(None);
        r.workload = "odd\"name".into();
        let res = SweepResult {
            title: "t".into(),
            rows: vec![r],
        };
        let json = res.to_json();
        assert!(json.contains("\"workload\":\"odd\\\"name\""));
        assert!(json.contains("\"cost_bits\":null"));
        assert!(json.contains("\"peak_bits\":48"));
        assert!(!json.contains("wall"));
    }

    #[test]
    fn gap_saturates_below_lower_bound() {
        // A cost below the LB can only arise from a buggy model, but the
        // emitter must not panic on it.
        let mut r = row(Some(10));
        r.lower_bound = 20;
        assert_eq!(r.gap(), Some(0));
    }

    #[test]
    fn series_pivot() {
        let res = SweepResult {
            title: "t".into(),
            rows: vec![row(Some(1)), row(Some(2))],
        };
        assert_eq!(
            res.series_costs("DWT(4, 1)", "dwt-opt"),
            vec![(64, Some(1)), (64, Some(2))]
        );
        assert!(res.series_costs("DWT(4, 1)", "other").is_empty());
        assert_eq!(res.total_wall_ns(), 2468);
    }

    #[test]
    fn min_memory_csv() {
        let res = MinMemoryResult {
            title: "t".into(),
            rows: vec![MinMemoryRow {
                workload: "MVM(2, 3)".into(),
                series: "mvm-tiling".into(),
                lower_bound: 100,
                min_bits: Some(160),
                wall_ns: 7,
            }],
        };
        assert_eq!(
            res.to_csv(),
            "workload,series,lower_bound_bits,min_memory_bits\nMVM(2, 3),mvm-tiling,100,160\n"
        );
        assert_eq!(res.series_minima("mvm-tiling"), vec![Some(160)]);
    }
}
