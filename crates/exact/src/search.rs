//! Best-first A\* search over packed WRBPG game states.
//!
//! The driver is a plain serial A\*: it pops the single best entry of one
//! binary-heap open list, expands it inline, merges its successors into
//! the distance map and the heap, and repeats.  The heap orders entries by
//! `(f, −g, state)`, a total order, so the expansion order — and with it
//! every cost, schedule and statistic — is a pure function of the graph,
//! the budget and the solver configuration.  One expansion takes
//! microseconds, less than handing a batch of states to worker threads
//! costs, so the search runs on the calling thread (DESIGN.md, "Why the
//! search is serial").
//!
//! The state is generic over [`StateMask`]: `u64` is the zero-cost fast
//! path for graphs of ≤ 64 nodes (the monomorphized hot loop is the
//! pre-refactor single-word code), and `Words<N>` lifts the same search to
//! wider graphs.  The search itself never mentions a concrete width.
//!
//! A goal state is only accepted when it is popped with its recorded
//! distance — i.e. its `f = g` is no worse than every open `f = g + h` —
//! which with an admissible (not necessarily consistent) heuristic
//! certifies optimality; improved paths re-queue their state, so
//! inconsistency costs re-expansions ([`SearchStats::re_expanded`]), never
//! correctness.
//!
//! Successor generation runs in one of two modes:
//!
//! * **loose** — the four raw game moves, the relation of the Dijkstra
//!   baseline (the differential-testing oracle);
//! * **tightened** — the A\*'s macro-moves, justified by schedule
//!   normalization: every load can be postponed until just before the
//!   compute that consumes it, every store advanced to just after the
//!   compute that creates it, and every delete postponed until some
//!   load/compute is budget-blocked.  Each successor is then either *fused
//!   loads + compute (+ store)* for one target node, or a single delete
//!   when the budget actually blocks progress.  Both the intermediate load
//!   states and all detached store/delete interleavings vanish from the
//!   state space.
//!
//! On top of the tightened relation, **symmetry reduction** (unless a
//! schedule is being reconstructed) rewrites every generated state to its
//! twin-orbit canonical form: within each twin class of the graph
//! ([`pebblyn_core::twin_classes`] — nodes with identical predecessor and
//! successor sets, hence equal weights and mutually interchangeable by
//! automorphism), the members' per-node `(red, blue)` statuses are sorted
//! into a fixed order.  States differing only by which twin holds a pebble
//! collapse to one representative, and because the permutation is a
//! weight-preserving automorphism, reachability, budget feasibility, and
//! optimal completion cost are untouched — only the number of states the
//! search must visit shrinks.
//!
//! The **WL-orbit lever** extends the same argument past exact twins: after
//! the twin sort, the canonicalizer greedily applies every *certified*
//! automorphism generator ([`pebblyn_core::certified_generators`] — WL-class
//! candidates that passed a full edge/weight permutation check), keeping any
//! image that is strictly smaller in state order, to a fixpoint.  Each
//! application is a genuine automorphism, so the rewrite is sound for the
//! same reason the twin sort is; greedy descent need not reach the global
//! orbit minimum, which costs collapse opportunities but never correctness.
//!
//! Path costs never wrap: a successor whose `g` overflows a `u64` leaves
//! the search (its cost exceeds every cost a `u64` can hold), `f = g + h`
//! saturates, and a search that drains its open list after such a drop
//! reports [`ExactError::WeightOverflow`] rather than infeasibility.

use crate::dominance::DominanceStore;
use crate::{ExactError, ExactSolver, SearchStats, Solution, StateLimitExceeded};
use pebblyn_core::{
    certified_generators, mask_iter, mask_weight, twin_classes, Cdag, FastHashMap, Move, NodeId,
    Schedule, StateBounds, StateMask, Weight,
};
use pebblyn_telemetry as telemetry;
use std::collections::BinaryHeap;

/// Packed game snapshot: one red and one blue bitset, one bit per node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
struct State<M: StateMask> {
    red: M,
    blue: M,
}

/// One search transition; `Fused` covers the tightened macro-moves.
#[derive(Clone, Copy, Debug)]
enum Step<M: StateMask> {
    /// A raw game move (loose mode, and deletes in tightened mode).
    Single(Move),
    /// Load every node in `loads` (ascending), compute `target`, and
    /// optionally store it immediately.
    Fused {
        loads: M,
        target: NodeId,
        store: bool,
    },
}

impl<M: StateMask> Step<M> {
    fn emit(self, moves: &mut Vec<Move>) {
        match self {
            Step::Single(mv) => moves.push(mv),
            Step::Fused {
                loads,
                target,
                store,
            } => {
                for v in mask_iter(loads) {
                    moves.push(Move::Load(v));
                }
                moves.push(Move::Compute(target));
                if store {
                    moves.push(Move::Store(target));
                }
            }
        }
    }
}

/// A successor produced by expansion, with its heuristic already evaluated
/// and its state already in twin-orbit canonical form.
struct Succ<M: StateMask> {
    state: State<M>,
    g: Weight,
    red_weight: Weight,
    h: Weight,
    step: Step<M>,
    /// Whether canonicalization rewrote the state (a symmetry prune).
    canonized: bool,
}

/// One state's expansion: its successors, and whether any successor was
/// dropped because its path cost overflowed a `u64`.  The search reuses one
/// buffer for every expansion.
struct Expansion<M: StateMask> {
    succs: Vec<Succ<M>>,
    overflowed: bool,
}

/// `g + scale · w`, or `None` when that path cost overflows a `u64`.
fn priced(g: Weight, scale: Weight, w: Weight) -> Option<Weight> {
    scale.checked_mul(w).and_then(|c| g.checked_add(c))
}

#[derive(Clone, Copy, Eq, Debug)]
struct QueueItem<M: StateMask> {
    f: Weight,
    g: Weight,
    state: State<M>,
    /// Weighted red occupancy of `state`, carried incrementally so expansion
    /// never rescans the node set.  A pure function of `state.red`, so
    /// duplicate queue entries always agree.
    red_weight: Weight,
}

impl<M: StateMask> PartialEq for QueueItem<M> {
    fn eq(&self, other: &Self) -> bool {
        // Must agree with `Ord` (which ignores the derived `red_weight`), or
        // heap invariants break.
        self.f == other.f && self.g == other.g && self.state == other.state
    }
}

impl<M: StateMask> Ord for QueueItem<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap priority: smallest f first, then deepest (largest g),
        // then smallest state value — a total order, so ties are
        // deterministic.  `M`'s Ord matches u64's numeric order on shared
        // widths, so the tie-break (and hence the whole expansion order) is
        // identical between the u64 fast path and a wider mask on the same
        // graph.
        other
            .f
            .cmp(&self.f)
            .then_with(|| self.g.cmp(&other.g))
            .then_with(|| other.state.cmp(&self.state))
    }
}

impl<M: StateMask> PartialOrd for QueueItem<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Immutable per-search tables; successor generation reads only this.
struct Ctx<M: StateMask> {
    n: usize,
    weights: Vec<Weight>,
    pred_masks: Vec<M>,
    source_mask: M,
    sink_mask: M,
    budget: Weight,
    load_scale: Weight,
    store_scale: Weight,
    /// The A\*'s lower bound; `None` (h ≡ 0) for the Dijkstra baseline.
    bounds: Option<StateBounds<M>>,
    /// The A\*'s tightened macro-move relation (else the raw four moves).
    tighten: bool,
    /// Twin classes (size ≥ 2, members ascending) used for state
    /// canonicalization; empty when symmetry reduction is off.
    classes: Vec<Vec<u32>>,
    /// Certified automorphism generators (full node permutations) applied
    /// greedily after the twin sort; empty when symmetry reduction is off.
    generators: Vec<Vec<u32>>,
}

impl<M: StateMask> Ctx<M> {
    fn h(&self, s: State<M>) -> Weight {
        self.bounds
            .as_ref()
            .map_or(0, |b| b.lower_bound(s.red, s.blue))
    }

    /// Rewrite `s` to its twin-orbit canonical representative: within each
    /// twin class, sort the members' 2-bit `(red, blue)` statuses into
    /// descending order along ascending member index.  The rewrite is a
    /// permutation of pebbles inside automorphism orbits of equal-weight
    /// nodes, so it preserves red weight, budget feasibility, goal
    /// membership, and optimal completion cost.
    fn canon(&self, s: State<M>) -> (State<M>, bool) {
        let mut red = s.red;
        let mut blue = s.blue;
        let mut changed = false;
        for class in &self.classes {
            let mut count = [0usize; 4];
            for &v in class {
                let v = v as usize;
                count[usize::from(red.get(v)) << 1 | usize::from(blue.get(v))] += 1;
            }
            let mut members = class.iter();
            for status in (0..4usize).rev() {
                for _ in 0..count[status] {
                    let v = *members.next().expect("statuses == members") as usize;
                    let r = status & 2 != 0;
                    let b = status & 1 != 0;
                    if red.get(v) != r || blue.get(v) != b {
                        changed = true;
                    }
                    red = if r { red.set(v) } else { red.clear(v) };
                    blue = if b { blue.set(v) } else { blue.clear(v) };
                }
            }
        }
        let mut cur = State { red, blue };
        // WL orbits: greedy descent under the certified generators.
        // Every application is a weight-preserving automorphism, so each
        // image is cost-equivalent; keeping only strictly smaller images
        // makes the loop terminate (finite strictly-decreasing chain) and
        // keeps canon a pure function of its input.
        if !self.generators.is_empty() {
            loop {
                let mut improved = false;
                for perm in &self.generators {
                    let img = apply_perm(perm, cur, self.n);
                    if img < cur {
                        cur = img;
                        improved = true;
                        changed = true;
                    }
                }
                if !improved {
                    break;
                }
            }
        }
        (cur, changed)
    }

    /// Refill `out` with the successors of `item`.
    fn successors(&self, item: &QueueItem<M>, out: &mut Expansion<M>) {
        out.succs.clear();
        out.overflowed = false;
        if self.tighten {
            self.successors_tight(item, out);
        } else {
            self.successors_loose(item, out);
        }
    }

    /// Queue a successor reached at path cost `g`; `None` means that cost
    /// overflowed a `u64`, so no optimal schedule runs through it and the
    /// successor is dropped (and the drop recorded).
    fn push(
        &self,
        out: &mut Expansion<M>,
        state: State<M>,
        g: Option<Weight>,
        red_weight: Weight,
        step: Step<M>,
    ) {
        let Some(g) = g else {
            out.overflowed = true;
            return;
        };
        let (state, canonized) = self.canon(state);
        let h = self.h(state);
        out.succs.push(Succ {
            state,
            g,
            red_weight,
            h,
            step,
            canonized,
        });
    }

    /// Tightened successor relation (see module docs): fused
    /// loads+compute(+store) macros per target node, plus deletes only when
    /// some otherwise-applicable load/compute is budget-blocked.
    fn successors_tight(&self, item: &QueueItem<M>, out: &mut Expansion<M>) {
        let s = item.state;
        let mut blocked = false;
        for u in 0..self.n {
            if s.red.get(u) || self.source_mask.get(u) {
                continue;
            }
            let missing = self.pred_masks[u] & !s.red;
            if !(missing & !s.blue).is_empty() {
                continue; // some predecessor is neither red nor blue:
                          // deletes cannot unblock this target
            }
            let is_sink = self.sink_mask.get(u);
            let is_blue = s.blue.get(u);
            if is_sink && is_blue {
                continue; // already delivered and has no consumers
            }
            let load_w = mask_weight(missing, &self.weights);
            let w_u = self.weights[u];
            if item.red_weight + load_w + w_u > self.budget {
                blocked = true;
                continue;
            }
            let next_red = s.red | missing | M::bit(u);
            let next_rw = item.red_weight + load_w + w_u;
            let g_loads = priced(item.g, self.load_scale, load_w);
            let step = |store| Step::Fused {
                loads: missing,
                target: NodeId(u as u32),
                store,
            };
            // A computed sink is only useful stored, so its unstored variant
            // is dropped; interior nodes get both (a store only pays off if
            // the value is later reloaded, which the search decides).
            if !is_sink {
                self.push(
                    out,
                    State {
                        red: next_red,
                        blue: s.blue,
                    },
                    g_loads,
                    next_rw,
                    step(false),
                );
            }
            if !is_blue {
                self.push(
                    out,
                    State {
                        red: next_red,
                        blue: s.blue.set(u),
                    },
                    g_loads.and_then(|g| priced(g, self.store_scale, w_u)),
                    next_rw,
                    step(true),
                );
            }
        }
        if blocked {
            for x in mask_iter(s.red) {
                self.push(
                    out,
                    State {
                        red: s.red.clear(x.index()),
                        blue: s.blue,
                    },
                    Some(item.g),
                    item.red_weight - self.weights[x.index()],
                    Step::Single(Move::Delete(x)),
                );
            }
        }
    }

    /// The raw four-move relation of the Dijkstra baseline, the
    /// differential oracle.
    fn successors_loose(&self, item: &QueueItem<M>, out: &mut Expansion<M>) {
        let s = item.state;
        for v in 0..self.n {
            let id = NodeId(v as u32);
            let w = self.weights[v];
            let has_red = s.red.get(v);
            let has_blue = s.blue.get(v);

            // M1: load — only useful when it changes the label.
            if has_blue && !has_red && item.red_weight + w <= self.budget {
                self.push(
                    out,
                    State {
                        red: s.red.set(v),
                        blue: s.blue,
                    },
                    priced(item.g, self.load_scale, w),
                    item.red_weight + w,
                    Step::Single(Move::Load(id)),
                );
            }
            // M2: store — only useful when the node is red-only.
            if has_red && !has_blue {
                self.push(
                    out,
                    State {
                        red: s.red,
                        blue: s.blue.set(v),
                    },
                    priced(item.g, self.store_scale, w),
                    item.red_weight,
                    Step::Single(Move::Store(id)),
                );
            }
            // M3: compute — non-source, all preds red, not already red.
            if !has_red
                && !self.source_mask.get(v)
                && s.red.contains_all(self.pred_masks[v])
                && item.red_weight + w <= self.budget
            {
                self.push(
                    out,
                    State {
                        red: s.red.set(v),
                        blue: s.blue,
                    },
                    Some(item.g),
                    item.red_weight + w,
                    Step::Single(Move::Compute(id)),
                );
            }
            // M4: delete.
            if has_red {
                self.push(
                    out,
                    State {
                        red: s.red.clear(v),
                        blue: s.blue,
                    },
                    Some(item.g),
                    item.red_weight - w,
                    Step::Single(Move::Delete(id)),
                );
            }
        }
    }
}

/// Image of a packed state under a node permutation: pebbles move with
/// their nodes (`perm[v]` is `v`'s image).
fn apply_perm<M: StateMask>(perm: &[u32], s: State<M>, n: usize) -> State<M> {
    let mut red = M::empty();
    let mut blue = M::empty();
    for (v, &img) in perm.iter().enumerate().take(n) {
        let t = img as usize;
        if s.red.get(v) {
            red = red.set(t);
        }
        if s.blue.get(v) {
            blue = blue.set(t);
        }
    }
    State { red, blue }
}

/// Mirror a finished search's [`SearchStats`] into the process telemetry.
///
/// Called exactly once per `search` exit (every `return` path), so the
/// `states_expanded` counter equals the sum of per-solve `stats.expanded`
/// — the invariant the conformance CI job asserts against its report.
fn record_stats(stats: &SearchStats) {
    if !telemetry::enabled() {
        return;
    }
    use telemetry::{Counter, Gauge};
    telemetry::add(Counter::StatesExpanded, stats.expanded as u64);
    telemetry::add(Counter::StatesGenerated, stats.generated as u64);
    telemetry::add(Counter::DominancePruned, stats.dominated as u64);
    telemetry::add(Counter::DedupPruned, stats.deduped as u64);
    telemetry::add(Counter::SymmetryPruned, stats.symmetry_pruned as u64);
    telemetry::add(Counter::ReExpansions, stats.re_expanded as u64);
    telemetry::gauge_max(Gauge::OpenListPeak, stats.peak_open as u64);
    telemetry::gauge_max(Gauge::DominanceEntriesPeak, stats.dominance_entries as u64);
    telemetry::gauge_max(Gauge::MaskWords, stats.mask_words as u64);
}

pub(crate) fn search<M: StateMask>(
    solver: &ExactSolver,
    graph: &Cdag,
    budget: Weight,
    reconstruct: bool,
) -> Result<Solution, ExactError> {
    assert!(
        graph.len() <= M::BITS,
        "state mask of {} bits cannot represent {} nodes (checked by the solver entry points)",
        M::BITS,
        graph.len()
    );
    let _span = telemetry::span("exact_search");
    let n = graph.len();
    let weights: Vec<Weight> = (0..n).map(|v| graph.weight(NodeId(v as u32))).collect();
    let pred_masks: Vec<M> = (0..n)
        .map(|v| pebblyn_core::bounds::nodes_to_mask(graph.preds(NodeId(v as u32))))
        .collect();
    let astar = solver.is_astar();
    // Symmetry reduction (twin sort, then the certified WL-orbit
    // generators) rewrites states across automorphism orbits, which
    // preserves costs but not the parent pointers a concrete move sequence
    // needs — so it is disabled whenever a schedule is being reconstructed.
    let symmetry = astar && !reconstruct;
    let ctx = Ctx {
        n,
        source_mask: pebblyn_core::bounds::nodes_to_mask::<M>(graph.sources()),
        sink_mask: pebblyn_core::bounds::nodes_to_mask::<M>(graph.sinks()),
        budget,
        load_scale: solver.load_scale,
        store_scale: solver.store_scale,
        bounds: astar
            .then(|| StateBounds::new(graph, solver.load_scale, solver.store_scale, budget)),
        tighten: astar,
        weights,
        pred_masks,
        classes: if symmetry {
            twin_classes(graph)
        } else {
            Vec::new()
        },
        generators: if symmetry {
            certified_generators(graph)
        } else {
            Vec::new()
        },
    };

    let (start, _) = ctx.canon(State {
        red: M::empty(),
        blue: ctx.source_mask,
    });
    let mut stats = SearchStats {
        root_bound: ctx.h(start),
        mask_words: M::WORDS,
        ..SearchStats::default()
    };

    let mut dist: FastHashMap<State<M>, Weight> = FastHashMap::default();
    let mut parent: FastHashMap<State<M>, (State<M>, Step<M>)> = FastHashMap::default();
    let mut open: BinaryHeap<QueueItem<M>> = BinaryHeap::new();
    dist.insert(start, 0);
    open.push(QueueItem {
        f: stats.root_bound,
        g: 0,
        state: start,
        red_weight: 0,
    });
    let mut dom = DominanceStore::default();
    let mut expansion = Expansion {
        succs: Vec::new(),
        overflowed: false,
    };
    // Whether any successor was dropped for an overflowing path cost.
    let mut overflowed = false;

    while let Some(item) = open.pop() {
        if dist.get(&item.state) != Some(&item.g) {
            continue; // stale queue entry
        }
        if item.state.blue.contains_all(ctx.sink_mask) {
            // Popped with its recorded g ≤ every open f, hence optimal.
            stats.frontier_left = open.len();
            let schedule = reconstruct.then(|| {
                let mut steps = Vec::new();
                let mut cur = item.state;
                while let Some(&(prev, step)) = parent.get(&cur) {
                    steps.push(step);
                    cur = prev;
                }
                steps.reverse();
                let mut moves = Vec::new();
                for step in steps {
                    step.emit(&mut moves);
                }
                Schedule::from_moves(moves)
            });
            record_stats(&stats);
            return Ok(Solution {
                cost: Some(item.g),
                schedule,
                stats,
            });
        }
        if stats.expanded == solver.max_states {
            record_stats(&stats);
            return Err(ExactError::StateLimit(StateLimitExceeded {
                max_states: solver.max_states,
                states_expanded: stats.expanded,
            }));
        }
        if astar {
            if dom.dominated(item.state.red, item.state.blue, item.g) {
                stats.dominated += 1;
                continue;
            }
            // Evicting the state's own entry means a strictly cheaper path
            // reopened an already expanded state.
            if dom.record(item.state.red, item.state.blue, item.g) {
                stats.re_expanded += 1;
            }
        }
        stats.expanded += 1;

        ctx.successors(&item, &mut expansion);
        overflowed |= expansion.overflowed;
        for succ in expansion.succs.drain(..) {
            stats.generated += 1;
            if succ.canonized {
                stats.symmetry_pruned += 1;
            }
            let improves = match dist.get(&succ.state) {
                Some(&d) => succ.g < d,
                None => true,
            };
            if !improves {
                stats.deduped += 1;
                continue;
            }
            if astar && dom.dominated(succ.state.red, succ.state.blue, succ.g) {
                stats.dominated += 1;
                continue;
            }
            dist.insert(succ.state, succ.g);
            if reconstruct {
                parent.insert(succ.state, (item.state, succ.step));
            }
            open.push(QueueItem {
                f: succ.g.saturating_add(succ.h),
                g: succ.g,
                state: succ.state,
                red_weight: succ.red_weight,
            });
        }
        stats.peak_open = stats.peak_open.max(open.len());
        stats.dominance_entries = stats.dominance_entries.max(dom.len());
    }

    // The open list drained without reaching the goal: infeasible, unless a
    // path was dropped for overflowing — then every schedule left costs
    // more than a u64 can hold.
    stats.frontier_left = 0;
    record_stats(&stats);
    if overflowed {
        return Err(ExactError::WeightOverflow {
            states_expanded: stats.expanded,
        });
    }
    Ok(Solution {
        cost: None,
        schedule: None,
        stats,
    })
}
