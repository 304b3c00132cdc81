//! Fast-memory occupancy traces — see *where* a schedule's peak lives.
//!
//! Memory designers don't just need the peak (Definition 2.6 aside): the
//! shape of the occupancy curve shows whether a schedule could share its
//! SRAM with other tasks, how long the peak persists, and where spill
//! pressure concentrates.  [`occupancy_trace`] replays a schedule and
//! records the weighted red occupancy after every move;
//! [`render_sparkline`] draws it for terminals.

use crate::error::ValidityError;
use crate::graph::{Cdag, Weight};
use crate::replay::{replay, Played, Uni};
use crate::schedule::Schedule;

/// The weighted fast-memory occupancy after each move (index `i` =
/// occupancy after move `i`; the implicit starting occupancy is 0).
///
/// The replay checks every rule of the game under an unbounded budget, so
/// an invalid schedule is an error rather than a misleading curve; pair
/// with [`crate::validate_schedule`] to check a budget too.
pub fn occupancy_trace(graph: &Cdag, schedule: &Schedule) -> Result<Vec<Weight>, ValidityError> {
    let mut trace = Vec::with_capacity(schedule.len());
    let mut record = |p: Played| {
        trace.push(p.red);
        Some(())
    };
    replay(graph, &Uni(Weight::MAX), schedule.iter(), &mut record)?;
    Ok(trace)
}

/// Summary statistics of an occupancy trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccupancySummary {
    /// Peak occupancy in bits.
    pub peak: Weight,
    /// Mean occupancy in bits.
    pub mean: f64,
    /// Fraction of moves spent at ≥ 90% of peak.
    pub time_at_peak: f64,
}

/// Replay a schedule and summarise its occupancy in one call — the
/// per-point statistics hook used by the sweep engine.
pub fn occupancy_summary(
    graph: &Cdag,
    schedule: &Schedule,
) -> Result<OccupancySummary, ValidityError> {
    Ok(summarize(&occupancy_trace(graph, schedule)?))
}

/// Summarise a trace (empty traces yield zeros).
pub fn summarize(trace: &[Weight]) -> OccupancySummary {
    if trace.is_empty() {
        return OccupancySummary {
            peak: 0,
            mean: 0.0,
            time_at_peak: 0.0,
        };
    }
    let peak = trace.iter().copied().max().unwrap_or(0);
    let mean = trace.iter().sum::<Weight>() as f64 / trace.len() as f64;
    let hot = trace.iter().filter(|&&w| 10 * w >= 9 * peak).count() as f64;
    OccupancySummary {
        peak,
        mean,
        time_at_peak: hot / trace.len() as f64,
    }
}

const SPARK_LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Render a trace as a fixed-width Unicode sparkline (each column shows
/// the maximum occupancy of its bucket, so peaks are never hidden by
/// downsampling).
pub fn render_sparkline(trace: &[Weight], width: usize) -> String {
    if trace.is_empty() || width == 0 {
        return String::new();
    }
    let peak = trace.iter().copied().max().unwrap_or(0).max(1);
    let width = width.min(trace.len());
    let mut out = String::with_capacity(width * 3);
    for col in 0..width {
        let lo = col * trace.len() / width;
        let hi = ((col + 1) * trace.len() / width).max(lo + 1);
        let bucket_max = trace[lo..hi].iter().copied().max().unwrap_or(0);
        let level = (bucket_max * (SPARK_LEVELS.len() as Weight - 1) + peak / 2) / peak;
        out.push(SPARK_LEVELS[level as usize]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{CdagBuilder, NodeId};
    use crate::moves::Move;

    fn setup() -> (Cdag, Schedule) {
        let mut b = CdagBuilder::new();
        let x = b.node(16, "x");
        let y = b.node(16, "y");
        let s = b.node(32, "s");
        b.edge(x, s);
        b.edge(y, s);
        let g = b.build().unwrap();
        let sched = Schedule::from_moves(vec![
            Move::Load(NodeId(0)),
            Move::Load(NodeId(1)),
            Move::Compute(NodeId(2)),
            Move::Store(NodeId(2)),
            Move::Delete(NodeId(0)),
            Move::Delete(NodeId(1)),
            Move::Delete(NodeId(2)),
        ]);
        (g, sched)
    }

    #[test]
    fn trace_matches_hand_computation() {
        let (g, sched) = setup();
        assert_eq!(
            occupancy_trace(&g, &sched).unwrap(),
            vec![16, 32, 64, 64, 48, 32, 0]
        );
    }

    #[test]
    fn summary_stats() {
        let (g, sched) = setup();
        let trace = occupancy_trace(&g, &sched).unwrap();
        let s = summarize(&trace);
        assert_eq!(s.peak, 64);
        assert!((s.mean - (16 + 32 + 64 + 64 + 48 + 32) as f64 / 7.0).abs() < 1e-9);
        assert!((s.time_at_peak - 2.0 / 7.0).abs() < 1e-9);
        assert_eq!(summarize(&[]).peak, 0);
    }

    #[test]
    fn sparkline_has_requested_width_and_peak() {
        let (g, sched) = setup();
        let trace = occupancy_trace(&g, &sched).unwrap();
        let line = render_sparkline(&trace, 7);
        assert_eq!(line.chars().count(), 7);
        assert!(line.contains('█'), "{line}");
        // Downsampling keeps the bucket maxima: width 3 still shows a peak.
        let line3 = render_sparkline(&trace, 3);
        assert_eq!(line3.chars().count(), 3);
        assert!(line3.contains('█'));
    }

    #[test]
    fn sparkline_edge_cases() {
        assert_eq!(render_sparkline(&[], 10), "");
        assert_eq!(render_sparkline(&[5], 0), "");
        let flat = render_sparkline(&[7, 7, 7], 3);
        assert_eq!(flat, "███");
    }
}
