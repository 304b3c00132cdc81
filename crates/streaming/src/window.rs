//! Topological-window greedy with Belady-style furthest-next-use eviction.
//!
//! Nodes are computed in topological order, and when the weighted budget
//! would overflow, the [`Belady`] kernel evicts the resident with the
//! *furthest* next use in the compute order (Belady's MIN policy).  The
//! streaming twist is the **window**: next uses more than `window` compute
//! steps ahead all clamp to one "beyond horizon" key, so the scheduler
//! only relies on lookahead a real streaming frontend could buffer.
//!
//! The O((V + E) log R) pass (R residents) is built for the cache-miss
//! bound million-node regime: the kernel's chain and packed records, a
//! move stream reserved up front, and dead values kept out of the heap —
//! deleted at their last use (deletes are free), sinks stored when
//! computed.

use pebblyn_core::{min_feasible_budget, Cdag, Move, MoveStream, NodeId, Schedule, Weight};
use pebblyn_telemetry::{self as telemetry, Counter, Gauge};

use crate::belady::Belady;

/// Default lookahead window, in compute steps.
pub const DEFAULT_WINDOW: usize = 1024;

/// Tuning knobs for [`window_schedule_with`].
#[derive(Debug, Clone)]
pub struct WindowConfig {
    /// Lookahead horizon in compute steps; `0` means unbounded (full
    /// Belady knowledge of the compute order).
    pub window: usize,
    /// When set, every eviction is cross-checked against a full scan of
    /// the resident set and counted in [`WindowStats::audit_violations`]
    /// if a strictly better victim existed.  O(V) per eviction — test
    /// use only.
    pub audit: bool,
}

impl Default for WindowConfig {
    fn default() -> Self {
        Self {
            window: DEFAULT_WINDOW,
            audit: false,
        }
    }
}

/// Counters reported alongside a schedule by [`window_schedule_with`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Compute moves emitted (= non-source node count).
    pub computes: u64,
    /// Residents evicted to make room.
    pub evictions: u64,
    /// Load moves emitted.
    pub loads: u64,
    /// Store moves emitted.
    pub stores: u64,
    /// Peak resident red weight, in bits.
    pub peak_red: Weight,
    /// Evictions where a strictly-further-next-use victim was available
    /// (only counted under [`WindowConfig::audit`]; always 0 in a correct
    /// build).
    pub audit_violations: u64,
}

/// Schedule `graph` under `budget` with the default window.
///
/// Returns `None` exactly when Prop 2.3 says no schedule exists
/// (`budget < min_feasible_budget`).
pub fn window_schedule(graph: &Cdag, budget: Weight) -> Option<Schedule> {
    window_schedule_with(graph, budget, &WindowConfig::default()).map(|(s, _)| s)
}

/// Schedule `graph` under `budget` with explicit [`WindowConfig`],
/// returning the schedule together with [`WindowStats`].
pub fn window_schedule_with(
    graph: &Cdag,
    budget: Weight,
    cfg: &WindowConfig,
) -> Option<(Schedule, WindowStats)> {
    if budget < min_feasible_budget(graph) {
        return None;
    }
    let computes = graph
        .topo_order()
        .iter()
        .copied()
        .filter(|&v| !graph.is_source(v));
    let mut state = State {
        graph,
        belady: Belady::new(graph, computes, budget, cfg.window, cfg.audit),
        // Reserved at a provable bound — computes + stores ≤ 2·steps,
        // loads ≤ edges, deletes ≤ loads + computes — so the columns never
        // regrow: at a million nodes each regrowth is a multi-ten-MB remap
        // that costs more than the scheduling itself.
        moves: MoveStream::with_capacity(
            3 * (graph.len() - graph.sources().len()) + 2 * graph.edge_count(),
        ),
        stats: WindowStats::default(),
    };
    state.run();
    let mut stats = state.stats;
    stats.peak_red = state.belady.peak();
    stats.audit_violations = state.belady.audit_violations();
    telemetry::add(Counter::StreamNodes, stats.computes);
    telemetry::add(Counter::WindowEvictions, stats.evictions);
    telemetry::gauge_max(Gauge::WindowPeak, stats.peak_red);
    Some((Schedule::from_stream(state.moves), stats))
}

/// The single pass.  The kernel's caller mark is the dirty bit: set on
/// compute, cleared by a store.
struct State<'g> {
    graph: &'g Cdag,
    belady: Belady<'g>,
    moves: MoveStream,
    stats: WindowStats,
}

impl State<'_> {
    fn run(&mut self) {
        let graph = self.graph;
        for &v in graph.topo_order() {
            if graph.is_source(v) {
                continue;
            }
            let preds = graph.preds(v);
            self.belady.pin(preds);
            for &p in preds {
                if !self.belady.is_red(p) {
                    self.make_room(graph.weight(p));
                    self.moves.push(Move::Load(p));
                    self.belady.admit(p);
                    self.belady.offer(p);
                    self.stats.loads += 1;
                }
            }
            self.make_room(graph.weight(v));
            self.moves.push(Move::Compute(v));
            self.belady.admit(v);
            self.belady.mark(v, true);
            self.stats.computes += 1;
            // Consume the operands.  Values with no use left are reclaimed
            // on the spot — an immediate M4 both frees budget earlier and
            // keeps dead entries out of the heap.
            for &p in preds {
                if self.belady.consume(p) {
                    self.belady.offer(p);
                } else {
                    self.moves.push(Move::Delete(p));
                    self.belady.release(p);
                }
            }
            if self.belady.needed_again(v) {
                self.belady.offer(v);
            } else {
                // A freshly computed value with no consumers is a sink:
                // stream it straight out and drop the red pebble.  Every
                // sink is stored here (sources start blue), so the
                // stopping condition holds when the pass ends.
                self.store(v);
                self.moves.push(Move::Delete(v));
                self.belady.release(v);
            }
            self.belady.finish_step();
        }
    }

    fn store(&mut self, u: NodeId) {
        self.moves.push(Move::Store(u));
        self.belady.mark(u, false);
        self.stats.stores += 1;
    }

    /// Evict furthest-next-use residents until `need` more bits fit.
    /// Every resident is used again (dead values were reclaimed at their
    /// last use), so a victim needs a store exactly when it is dirty.
    fn make_room(&mut self, need: Weight) {
        while let Some(u) = self
            .belady
            .next_victim(need)
            .expect("budget >= min_feasible leaves an evictable resident")
        {
            if self.belady.is_marked(u) {
                self.store(u);
            }
            self.moves.push(Move::Delete(u));
            self.stats.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblyn_core::{validate_schedule, CdagBuilder};

    fn diamond() -> Cdag {
        let mut b = CdagBuilder::new();
        let a = b.node(16, "a");
        let bb = b.node(16, "b");
        let c = b.node(32, "c");
        let d = b.node(32, "d");
        let e = b.node(16, "e");
        b.edge(a, c);
        b.edge(bb, c);
        b.edge(bb, d);
        b.edge(c, e);
        b.edge(d, e);
        b.build().unwrap()
    }

    /// A long chain of independent 2-input adds feeding one final reduce,
    /// forcing evictions at tight budgets.
    fn wide_then_reduce() -> Cdag {
        let mut b = CdagBuilder::new();
        let mut mids = Vec::new();
        for i in 0..8 {
            let x = b.node(8, format!("x{i}"));
            let y = b.node(8, format!("y{i}"));
            let m = b.node(8, format!("m{i}"));
            b.edge(x, m);
            b.edge(y, m);
            mids.push(m);
        }
        let z = b.node(8, "z");
        for m in mids {
            b.edge(m, z);
        }
        b.build().unwrap()
    }

    #[test]
    fn infeasible_budget_returns_none() {
        let g = diamond();
        let minb = min_feasible_budget(&g);
        assert!(window_schedule(&g, minb - 1).is_none());
        assert!(window_schedule(&g, minb).is_some());
    }

    #[test]
    fn schedules_validate_across_budgets() {
        for g in [diamond(), wide_then_reduce()] {
            let minb = min_feasible_budget(&g);
            for budget in [minb, minb + 8, g.total_weight()] {
                let s = window_schedule(&g, budget).expect("feasible");
                let stats = validate_schedule(&g, budget, &s).expect("valid");
                assert_eq!(stats.cost, s.cost(&g));
                assert!(stats.peak_red_weight <= budget);
            }
        }
    }

    #[test]
    fn ample_budget_needs_no_evictions() {
        let g = wide_then_reduce();
        let (s, stats) =
            window_schedule_with(&g, g.total_weight(), &WindowConfig::default()).unwrap();
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.computes, 9);
        validate_schedule(&g, g.total_weight(), &s).expect("valid");
    }

    #[test]
    fn belady_never_prefers_an_in_window_victim() {
        // The unit-level invariant from the issue: with audit on, every
        // eviction must pick a maximal-next-use resident, so a value needed
        // within the window is never evicted while a further-out (or dead)
        // alternative exists.
        let cfg = WindowConfig {
            window: 4,
            audit: true,
        };
        for g in [diamond(), wide_then_reduce()] {
            let minb = min_feasible_budget(&g);
            for budget in [minb, minb + 8, minb + 16] {
                let (s, stats) = window_schedule_with(&g, budget, &cfg).expect("feasible");
                assert_eq!(
                    stats.audit_violations, 0,
                    "eviction passed over a further-next-use victim"
                );
                validate_schedule(&g, budget, &s).expect("valid");
            }
        }
    }

    #[test]
    fn tiny_window_still_validates() {
        let g = wide_then_reduce();
        let minb = min_feasible_budget(&g);
        let cfg = WindowConfig {
            window: 1,
            audit: true,
        };
        let (s, stats) = window_schedule_with(&g, minb, &cfg).expect("feasible");
        assert_eq!(stats.audit_violations, 0);
        validate_schedule(&g, minb, &s).expect("valid");
    }
}
