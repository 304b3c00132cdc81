//! Model-level bounds: schedule existence (Prop. 2.3), the algorithmic
//! lower bound (Prop. 2.4), and the per-state admissible lower bound that
//! guides best-first search ([`StateBounds`]).
//!
//! The per-state bound generalizes Prop. 2.4 from the initial position to an
//! arbitrary mid-game snapshot `(red, blue)`: it counts the stores every
//! not-yet-blue sink still owes and the loads every never-loaded source that
//! must become red still owes, charges the cheapest chain of loads that can
//! restore an evicted-but-still-needed value (*forced reload*), adds the
//! reloads a budget-cut *landmark* provably forces, and takes the larger of
//! that and an abstraction *pattern database* (see [`StateBounds::new`]).
//! It is admissible (never exceeds the true remaining optimal cost), which
//! is what lets the exact solver run A\* instead of uniform-cost Dijkstra.
//! Every term saturates at `Weight::MAX` instead of wrapping, so the bound
//! stays admissible when weights times I/O scales approach the top of `u64`.

use crate::graph::{Cdag, NodeId, Weight};
use crate::mask::{mask_iter, mask_weight, StateMask};
use std::cell::RefCell;

/// The algorithmic lower bound of Proposition 2.4:
///
/// `Σ_{v ∈ A(G)} w_v + Σ_{v ∈ Z(G)} w_v ≤ Cost(S_G)` for every valid
/// schedule — every input must be loaded at least once and every output
/// stored at least once.
pub fn algorithmic_lower_bound(graph: &Cdag) -> Weight {
    graph
        .nodes()
        .filter(|&v| graph.is_source(v) || graph.is_sink(v))
        .map(|v| graph.weight(v))
        .sum()
}

/// The smallest budget for which *any* valid WRBPG schedule exists
/// (Proposition 2.3): `max_{v ∉ A(G)} ( w_v + Σ_{p ∈ H(v)} w_p )`.
///
/// Computing a node requires the node and all its parents to be
/// simultaneously red, so this is both necessary and (with eager spilling)
/// sufficient.
pub fn min_feasible_budget(graph: &Cdag) -> Weight {
    graph
        .nodes()
        .filter(|&v| !graph.is_source(v))
        .map(|v| {
            graph.weight(v)
                + graph
                    .preds(v)
                    .iter()
                    .map(|&p| graph.weight(p))
                    .sum::<Weight>()
        })
        .max()
        .unwrap_or(0)
}

/// Schedule existence (Proposition 2.3): a valid schedule exists for budget
/// `b` iff `w_v + Σ_{p ∈ H(v)} w_p ≤ b` for all non-source nodes `v`.
pub fn schedule_exists(graph: &Cdag, budget: Weight) -> bool {
    budget >= min_feasible_budget(graph)
}

/// Fold a node list into a mask of any [`StateMask`] width.
pub fn nodes_to_mask<M: StateMask>(nodes: &[NodeId]) -> M {
    nodes.iter().fold(M::empty(), |m, v| m.set(v.index()))
}

/// At most this many budget-cut landmarks are retained per instance; the
/// per-state evaluation re-checks each retained pivot, so the cap bounds the
/// landmark term's cost at a handful of mask closures.
const LANDMARK_CAP: usize = 4;

/// Pattern-database projection width: `4^PDB_CAP` abstract states bound the
/// per-instance build (reverse Dijkstra over at most 4096 states), which
/// keeps construction cheap enough for the conformance sweep's thousands of
/// per-probe solver calls.
const PDB_CAP: usize = 6;

/// A retained budget-cut landmark: computing `pivot` pins its closed
/// neighborhood `N(z) = {z} ∪ preds(z)` red simultaneously, so any source
/// consumed both before and after that moment and too heavy for the
/// leftover budget must be reloaded afterwards.
#[derive(Debug, Clone)]
struct Landmark<M: StateMask> {
    pivot: u32,
    /// `N(z)`: the pivot plus its predecessors.
    group_mask: M,
    /// Red weight the budget has left beside `N(z)`:
    /// `budget − (w(z) + Σ w(preds(z)))`, saturating.
    free: Weight,
}

/// Abstraction pattern database over a fixed node subset `P`: the table maps
/// the blue-set projection `blue ∩ P` to the cheapest abstract completion
/// cost, where the abstract game keeps only `P`'s nodes, relaxes every
/// out-of-`P` dependency, and retains the real weighted budget.
#[derive(Debug, Clone)]
struct Pdb<M: StateMask> {
    /// Pattern members in ascending node order; bit `i` of a table key is
    /// `nodes[i]`'s blue status.
    nodes: Vec<u32>,
    /// Cheapest abstract completion cost per blue projection (`2^|P|` keys).
    table: Vec<Weight>,
    /// Sinks outside the pattern (their stores are disjoint from `P` moves).
    out_sink_mask: M,
    /// Sources outside the pattern (their loads are disjoint from `P` moves).
    out_source_mask: M,
}

thread_local! {
    /// Scratch for the forced-reload DP so the per-state evaluation never
    /// allocates.  Entries are only valid for cone members written during the
    /// current call; red members are written explicitly (0) for that reason.
    static MK_SCRATCH: RefCell<Vec<Weight>> = const { RefCell::new(Vec::new()) };
}

/// Precomputed context for evaluating admissible lower bounds on packed
/// `(red, blue)` game states of a fixed graph (one bit per node; the mask
/// type `M` sets the node-count ceiling — `u64` covers 64 nodes, wider
/// [`crate::Words`] masks up to `M::BITS`).
///
/// Construction walks the graph once; each bound evaluation is then a few
/// linear mask passes and never touches the graph again, so it is cheap
/// enough to run on every generated search state.
#[derive(Debug, Clone)]
pub struct StateBounds<M: StateMask = u64> {
    weights: Vec<Weight>,
    pred_masks: Vec<M>,
    succ_masks: Vec<M>,
    /// Ancestors-or-self per node: the cone of nodes whose status can change
    /// the forced-reload DP value at this node.
    anc_masks: Vec<M>,
    /// Forced-reload DP values at the all-empty state (`red = blue = ∅`) —
    /// the pointwise maximum over every state, exact whenever no cone member
    /// is red or blue-interior.
    root_mk: Vec<Weight>,
    topo: Vec<NodeId>,
    source_mask: M,
    sink_mask: M,
    load_scale: Weight,
    store_scale: Weight,
    /// Budget-cut landmarks.
    landmarks: Vec<Landmark<M>>,
    /// Pattern database; `None` when the pattern would have under 2 nodes.
    pdb: Option<Pdb<M>>,
}

impl<M: StateMask> StateBounds<M> {
    /// Build the bound context for `graph` searched under `budget`, with
    /// per-bit I/O costs (`load_scale` per loaded bit, `store_scale` per
    /// stored bit).
    ///
    /// Besides the per-node tables this builds the budget-dependent terms:
    /// budget-cut landmarks (retained by their root-state charge, at most
    /// [`LANDMARK_CAP`]) and the abstraction pattern database (reverse
    /// Dijkstra over at most `4^PDB_CAP` abstract states).  Construction is
    /// deterministic — ties break on node index — and happens once per
    /// instance.
    ///
    /// # Panics
    ///
    /// Panics when the graph has more nodes than `M` has bits (the
    /// packed-mask limit of the chosen width).
    pub fn new(graph: &Cdag, load_scale: Weight, store_scale: Weight, budget: Weight) -> Self {
        let n = graph.len();
        assert!(
            n <= M::BITS,
            "per-state bounds support at most {} nodes at this mask width (got {n})",
            M::BITS
        );
        let weights: Vec<Weight> = (0..n).map(|v| graph.weight(NodeId(v as u32))).collect();
        let pred_masks: Vec<M> = (0..n)
            .map(|v| nodes_to_mask(graph.preds(NodeId(v as u32))))
            .collect();
        let succ_masks: Vec<M> = (0..n)
            .map(|v| nodes_to_mask(graph.succs(NodeId(v as u32))))
            .collect();
        let topo = graph.topo_order().to_vec();
        let source_mask: M = nodes_to_mask(graph.sources());

        // Ancestor cones and the all-empty-state DP values, both in one
        // topological pass: anc(v) = {v} ∪ ⋃_p anc(p), and root_mk is the
        // forced-reload recurrence with nothing red and nothing blue (its
        // pointwise maximum over all states).
        let mut anc_masks = vec![M::empty(); n];
        let mut root_mk = vec![0 as Weight; n];
        for &v in &topo {
            let i = v.index();
            let mut anc = M::bit(i);
            let mut via_preds = 0;
            for p in mask_iter(pred_masks[i]) {
                anc = anc | anc_masks[p.index()];
                via_preds = via_preds.max(root_mk[p.index()]);
            }
            anc_masks[i] = anc;
            root_mk[i] = if source_mask.get(i) {
                load_scale.saturating_mul(weights[i])
            } else {
                via_preds
            };
        }

        let mut sb = StateBounds {
            weights,
            pred_masks,
            succ_masks,
            anc_masks,
            root_mk,
            topo,
            source_mask,
            sink_mask: nodes_to_mask(graph.sinks()),
            load_scale,
            store_scale,
            landmarks: Vec::new(),
            pdb: None,
        };
        sb.landmarks = sb.build_landmarks(budget);
        sb.pdb = sb.build_pdb(budget);
        sb
    }

    /// The "must still become red" closure `R*` of a state.
    ///
    /// Seeded with every sink that is neither red nor blue (it has to be
    /// computed before it can be stored), then closed backwards: a member
    /// that is not blue can only first turn red via M3 (compute) — an M1
    /// load needs a blue pebble, and earning one takes an M2 store which
    /// itself needs the node red first — so all its non-red predecessors
    /// must become red too.  Blue members stop the recursion (they may
    /// simply be reloaded).  Every member is non-red by construction.
    fn needed_mask(&self, red: M, blue: M) -> M {
        let mut need = self.sink_mask & !blue & !red;
        let mut frontier = need;
        while !frontier.is_empty() {
            let mut next = M::empty();
            for v in mask_iter(frontier) {
                if !blue.get(v.index()) {
                    next = next | (self.pred_masks[v.index()] & !red & !need);
                }
            }
            need = need | next;
            frontier = next;
        }
        need
    }

    /// Cost of storing every node of `mask` once, saturating.
    fn stores(&self, mask: M) -> Weight {
        self.store_scale
            .saturating_mul(mask_weight(mask, &self.weights))
    }

    /// Cost of loading every node of `mask` once, saturating.
    fn loads(&self, mask: M) -> Weight {
        self.load_scale
            .saturating_mul(mask_weight(mask, &self.weights))
    }

    /// The forced-reload chain term `max_{u ∈ R*} mk(u)`.
    ///
    /// For each node `u`, `mk(u)` lower-bounds the load cost any schedule
    /// pays before `u` can next be red: zero if `u` is red; `load·w_u` if `u`
    /// is a source (only M1 applies); for interior nodes the compute route
    /// needs every predecessor red, which costs at least `max_p mk(p)` (max,
    /// not sum — predecessor chains may share ancestors), and a blue interior
    /// node may instead be reloaded directly for `load·w_u`, so `mk` takes
    /// the cheaper route.
    ///
    /// The DP is hoisted: `mk` differs from the precomputed all-empty-state
    /// values only where a red or blue-interior node sits in a needed node's
    /// ancestor cone, so the common case is a pure masked fold over
    /// `root_mk` and the general case re-runs the recurrence on cone members
    /// only, in thread-local scratch (no allocation either way).
    fn reload_chain(&self, red: M, blue: M, need: M) -> Weight {
        if need.is_empty() {
            return 0;
        }
        let mut cone = M::empty();
        for u in mask_iter(need) {
            cone = cone | self.anc_masks[u.index()];
        }
        // Nodes whose status discounts the recurrence below its root value:
        // red anywhere, or blue off-source (the direct-reload shortcut).
        let dirty = (red | (blue & !self.source_mask)) & cone;
        if dirty.is_empty() {
            return mask_iter(need)
                .map(|u| self.root_mk[u.index()])
                .max()
                .unwrap_or(0);
        }
        MK_SCRATCH.with(|scratch| {
            let mut mk = scratch.borrow_mut();
            if mk.len() < self.weights.len() {
                mk.resize(self.weights.len(), 0);
            }
            for &v in &self.topo {
                let i = v.index();
                if !cone.get(i) {
                    continue;
                }
                if red.get(i) {
                    mk[i] = 0;
                    continue;
                }
                let direct = self.load_scale.saturating_mul(self.weights[i]);
                if self.source_mask.get(i) {
                    mk[i] = direct;
                    continue;
                }
                let via_preds = mask_iter(self.pred_masks[i])
                    .map(|p| mk[p.index()])
                    .max()
                    .unwrap_or(0);
                mk[i] = if blue.get(i) {
                    direct.min(via_preds)
                } else {
                    via_preds
                };
            }
            mask_iter(need).map(|u| mk[u.index()]).max().unwrap_or(0)
        })
    }

    /// Identify budget-cut landmarks at the root state (`red = ∅`,
    /// `blue = sources`) and retain the [`LANDMARK_CAP`] strongest, ordered
    /// by root charge descending with node-index tie-break.  Retention is a
    /// selection heuristic only — admissibility is re-established per state
    /// by [`StateBounds::landmark_extra`].
    fn build_landmarks(&self, budget: Weight) -> Vec<Landmark<M>> {
        let red = M::empty();
        let blue = self.source_mask;
        let need = self.needed_mask(red, blue);
        let mut scored: Vec<(Weight, u32)> = Vec::new();
        let mut candidates: Vec<Landmark<M>> = Vec::new();
        for z in 0..self.weights.len() {
            if self.source_mask.get(z) {
                continue; // a pivot must be computable
            }
            let group_mask = self.pred_masks[z].set(z);
            let group_weight = mask_weight(group_mask, &self.weights);
            let lm = Landmark {
                pivot: z as u32,
                group_mask,
                free: budget.saturating_sub(group_weight),
            };
            let extra = self.landmark_extra(&lm, red, blue, need);
            if extra > 0 {
                scored.push((extra, z as u32));
                candidates.push(lm);
            }
        }
        let mut order: Vec<usize> = (0..scored.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(scored[i].0), scored[i].1));
        order
            .into_iter()
            .take(LANDMARK_CAP)
            .map(|i| candidates[i].clone())
            .collect()
    }

    /// Per-state landmark charge for one retained pivot `z`.
    ///
    /// Valid only when `z ∈ R*` and `z` is not blue — then `z`'s first
    /// return to red is a compute, at which moment `red ⊇ N(z)` and at most
    /// `free = budget − w(N(z))` weight of anything else fits.  A source
    /// outside `N(z)` that is consumed by a forced compute *before* that
    /// moment and by one *after* it must be red on both sides; whatever part
    /// of that source set exceeds `free` is provably non-red at the pivot
    /// moment and must be reloaded afterwards.  Those reload events are
    /// disjoint from the first-load events the source-load term counts
    /// (first loads happen before the pivot moment), so the two *add*.
    fn landmark_extra(&self, lm: &Landmark<M>, red: M, blue: M, need: M) -> Weight {
        let z = lm.pivot as usize;
        if !need.get(z) || blue.get(z) {
            return 0;
        }
        // Forced computes strictly before the pivot moment: the backward
        // closure of z's non-red, non-blue predecessors through non-red,
        // non-blue nodes (each must first become red via compute, before z).
        let mut before = self.pred_masks[z] & !red & !blue;
        let mut frontier = before;
        while !frontier.is_empty() {
            let mut next = M::empty();
            for v in mask_iter(frontier) {
                next = next | (self.pred_masks[v.index()] & !red & !blue & !before);
            }
            before = before | next;
            frontier = next;
        }
        if before.is_empty() {
            return 0;
        }
        // Forced computes strictly after the pivot moment: the forward
        // closure of z's needed non-blue successors through needed non-blue
        // nodes (each consumes a value first produced at or after z's
        // compute).
        let mut after = self.succ_masks[z] & need & !blue;
        let mut frontier = after;
        while !frontier.is_empty() {
            let mut next = M::empty();
            for v in mask_iter(frontier) {
                next = next | (self.succ_masks[v.index()] & need & !blue & !after);
            }
            after = after | next;
            frontier = next;
        }
        if after.is_empty() {
            return 0;
        }
        // Sources outside N(z) consumed on both sides of the pivot moment.
        let mut crossing = 0;
        let mut members: [Weight; 6] = [0; 6];
        let mut count = 0usize;
        for s in mask_iter(self.source_mask & !lm.group_mask) {
            let consumers = self.succ_masks[s.index()];
            if !(consumers & before).is_empty() && !(consumers & after).is_empty() {
                crossing += self.weights[s.index()];
                if count < members.len() {
                    members[count] = self.weights[s.index()];
                }
                count += 1;
            }
        }
        // Sources are atomic, so the resident crossing weight at the pivot
        // moment is the best *subset* sum fitting `free` — enumerated
        // exactly while the crossing set is small, else relaxed to `free`
        // itself (still admissible, possibly looser).
        let resident = if count <= members.len() {
            let mut best = 0;
            for pick in 0u32..(1 << count) {
                let total: Weight = (0..count)
                    .filter(|&i| pick & (1 << i) != 0)
                    .map(|i| members[i])
                    .sum();
                if total <= lm.free && total > best {
                    best = total;
                }
            }
            best
        } else {
            lm.free
        };
        self.load_scale
            .saturating_mul(crossing.saturating_sub(resident))
    }

    /// Choose the pattern subset deterministically: sinks by descending
    /// weight, then the heaviest closed neighborhood `N(z*)` (the Prop. 2.3
    /// bottleneck — where the budget bites hardest), then the heaviest
    /// remaining nodes; node-index tie-breaks throughout, capped at
    /// [`PDB_CAP`] members.
    fn choose_pattern(&self) -> Vec<u32> {
        let n = self.weights.len();
        let by_weight = |ids: Vec<u32>| -> Vec<u32> {
            let mut v = ids;
            v.sort_by_key(|&i| (std::cmp::Reverse(self.weights[i as usize]), i));
            v
        };
        let sinks = by_weight(
            mask_iter(self.sink_mask)
                .map(|v| v.index() as u32)
                .collect(),
        );
        let bottleneck = (0..n)
            .filter(|&z| !self.source_mask.get(z))
            .max_by_key(|&z| {
                (
                    mask_weight(self.pred_masks[z].set(z), &self.weights),
                    std::cmp::Reverse(z),
                )
            });
        let group = bottleneck.map_or_else(Vec::new, |z| {
            by_weight(
                mask_iter(self.pred_masks[z].set(z))
                    .map(|v| v.index() as u32)
                    .collect(),
            )
        });
        let rest = by_weight((0..n as u32).collect());

        let mut pattern: Vec<u32> = Vec::new();
        for id in sinks.into_iter().chain(group).chain(rest) {
            if pattern.len() == PDB_CAP {
                break;
            }
            if !pattern.contains(&id) {
                pattern.push(id);
            }
        }
        pattern.sort_unstable();
        pattern
    }

    /// Build the pattern database: enumerate every abstract `(red_P, blue_P)`
    /// state with `w(red_P) ≤ budget`, reverse-Dijkstra from the abstract
    /// goals (`blue_P ⊇ sinks ∩ P`), then project to blue keys by minimizing
    /// over the red coordinate.
    ///
    /// The abstract game keeps the real budget and the real per-node rules
    /// restricted to `P`: load needs the node blue, store needs it red,
    /// compute needs the in-`P` predecessors red (out-of-`P` dependencies are
    /// relaxed away) and is forbidden for real sources, delete is free.  The
    /// `P`-projection of any real completion is a valid abstract play of no
    /// larger cost, so the table value under-estimates the real cost of the
    /// moves any completion still spends on `P`'s nodes — and those moves are
    /// disjoint from out-of-`P` sink stores and source loads, so the three
    /// terms of [`StateBounds::lower_bound`]'s PDB component add.
    fn build_pdb(&self, budget: Weight) -> Option<Pdb<M>> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let nodes = self.choose_pattern();
        let k = nodes.len();
        if k < 2 {
            return None;
        }
        let w: Vec<Weight> = nodes.iter().map(|&i| self.weights[i as usize]).collect();
        // In-pattern predecessor masks and real-source / sink flags, all in
        // pattern-bit space.
        let mut pred_bits = vec![0u32; k];
        let mut source_bits = 0u32;
        let mut sink_bits = 0u32;
        for (bi, &id) in nodes.iter().enumerate() {
            for (bj, &jd) in nodes.iter().enumerate() {
                if self.pred_masks[id as usize].get(jd as usize) {
                    pred_bits[bi] |= 1 << bj;
                }
            }
            if self.source_mask.get(id as usize) {
                source_bits |= 1 << bi;
            }
            if self.sink_mask.get(id as usize) {
                sink_bits |= 1 << bi;
            }
        }
        // Red-set weights, and which red sets fit the budget.
        let reds = 1usize << k;
        let mut red_weight = vec![0 as Weight; reds];
        for r in 1..reds {
            let low = r.trailing_zeros() as usize;
            red_weight[r] = red_weight[r & (r - 1)] + w[low];
        }

        // state = red | (blue << k); dist = cheapest abstract completion.
        let states = 1usize << (2 * k);
        let mut dist = vec![Weight::MAX; states];
        let mut heap: BinaryHeap<Reverse<(Weight, u32)>> = BinaryHeap::new();
        for (s, d) in dist.iter_mut().enumerate() {
            let r = s & (reds - 1);
            let b = s >> k;
            if red_weight[r] > budget {
                continue;
            }
            if b & sink_bits as usize == sink_bits as usize {
                *d = 0;
                heap.push(Reverse((0, s as u32)));
            }
        }
        // Reverse relaxation: for a settled state s, enumerate the abstract
        // moves that *arrive* at s and relax their origins.
        while let Some(Reverse((d, s))) = heap.pop() {
            let s = s as usize;
            if d > dist[s] {
                continue;
            }
            let r = s & (reds - 1);
            let b = s >> k;
            for v in 0..k {
                let bit = 1usize << v;
                // load v arrived here: v red and blue now; origin dropped v
                // from red and paid load·w.
                if r & bit != 0 && b & bit != 0 {
                    let t = (r & !bit) | (b << k);
                    let nd = d.saturating_add(self.load_scale.saturating_mul(w[v]));
                    if nd < dist[t] {
                        dist[t] = nd;
                        heap.push(Reverse((nd, t as u32)));
                    }
                }
                // store v arrived here: v red and blue now; origin lacked the
                // blue pebble and paid store·w.
                if r & bit != 0 && b & bit != 0 {
                    let t = r | ((b & !bit) << k);
                    let nd = d.saturating_add(self.store_scale.saturating_mul(w[v]));
                    if nd < dist[t] {
                        dist[t] = nd;
                        heap.push(Reverse((nd, t as u32)));
                    }
                }
                // compute v arrived here: v red now, its in-pattern preds
                // red, and v is not a real source; free.
                if r & bit != 0
                    && source_bits & bit as u32 == 0
                    && r & pred_bits[v] as usize == pred_bits[v] as usize
                {
                    let t = (r & !bit) | (b << k);
                    if d < dist[t] {
                        dist[t] = d;
                        heap.push(Reverse((d, t as u32)));
                    }
                }
                // delete v arrived here: v not red now; origin held it (and
                // must itself fit the budget); free.
                if r & bit == 0 && red_weight[r | bit] <= budget {
                    let t = (r | bit) | (b << k);
                    if d < dist[t] {
                        dist[t] = d;
                        heap.push(Reverse((d, t as u32)));
                    }
                }
            }
        }
        // Blue-set projection: the table key is blue ∩ P alone, so take the
        // cheapest completion over every red coordinate (an unreachable
        // column degrades to the admissible 0, never an over-estimate).
        let table: Vec<Weight> = (0..(1usize << k))
            .map(|b| {
                (0..reds)
                    .map(|r| dist[r | (b << k)])
                    .min()
                    .filter(|&d| d != Weight::MAX)
                    .unwrap_or(0)
            })
            .collect();

        let pattern_mask: M = nodes.iter().fold(M::empty(), |m, &i| m.set(i as usize));
        Some(Pdb {
            nodes,
            table,
            out_sink_mask: self.sink_mask & !pattern_mask,
            out_source_mask: self.source_mask & !pattern_mask,
        })
    }

    /// The bound itself: the larger of the landmark-strengthened
    /// forced-reload bound and the pattern-database bound.  Always
    /// admissible — the result never exceeds the true optimal remaining
    /// cost from `(red, blue)` — and zero at goal states.
    ///
    /// The forced-reload bound is the unavoidable sink stores (every
    /// not-yet-blue sink needs an M2) plus the larger of the unavoidable
    /// source loads (a source in `R*` can only turn red via M1) and the
    /// best forced-reload chain.  The chain counts load events only, which
    /// may coincide with the source loads, so the two join by `max`, while
    /// store events are disjoint from both and add.
    pub fn lower_bound(&self, red: M, blue: M) -> Weight {
        let need = self.needed_mask(red, blue);
        let store = self.stores(self.sink_mask & !blue);
        let load_term = self.loads(need & self.source_mask);
        let chain = self.reload_chain(red, blue, need);
        let lmax = self
            .landmarks
            .iter()
            .map(|lm| self.landmark_extra(lm, red, blue, need))
            .max()
            .unwrap_or(0);
        // Landmark reloads add to the first-load term (disjoint events);
        // the chain may share load events with both, so it joins by max.
        let lm_bound = store.saturating_add(load_term.saturating_add(lmax).max(chain));
        let pdb_bound = self.pdb.as_ref().map_or(0, |p| {
            let mut key = 0usize;
            for (bit, &v) in p.nodes.iter().enumerate() {
                if blue.get(v as usize) {
                    key |= 1 << bit;
                }
            }
            p.table[key]
                .saturating_add(self.stores(p.out_sink_mask & !blue))
                .saturating_add(self.loads(need & p.out_source_mask))
        });
        lm_bound.max(pdb_bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CdagBuilder;

    /// A two-level chain: x(16) -> m(32) -> y(16)
    fn chain() -> Cdag {
        let mut b = CdagBuilder::new();
        let x = b.node(16, "x");
        let m = b.node(32, "m");
        let y = b.node(16, "y");
        b.edge(x, m);
        b.edge(m, y);
        b.build().unwrap()
    }

    /// The forced-reload bound without landmarks or pattern database:
    /// unavoidable stores plus the larger of the unavoidable source loads
    /// and the forced-reload chain.
    fn forced_reload_floor(sb: &StateBounds, red: u64, blue: u64) -> Weight {
        let need = sb.needed_mask(red, blue);
        let loads = sb.loads(need & sb.source_mask);
        sb.stores(sb.sink_mask & !blue) + loads.max(sb.reload_chain(red, blue, need))
    }

    /// The pre-hoist forced-reload chain: a fresh full-width DP per call,
    /// the reference the hoisted [`StateBounds::reload_chain`] must
    /// reproduce exactly.
    fn forced_reload_reference<M: StateMask>(sb: &StateBounds<M>, red: M, blue: M) -> Weight {
        let mut mk = vec![0 as Weight; sb.weights.len()];
        for &v in &sb.topo {
            let i = v.index();
            if red.get(i) {
                continue; // mk = 0
            }
            let direct = sb.load_scale * sb.weights[i];
            if sb.source_mask.get(i) {
                mk[i] = direct;
                continue;
            }
            let via_preds = mask_iter(sb.pred_masks[i])
                .map(|p| mk[p.index()])
                .max()
                .unwrap_or(0);
            mk[i] = if blue.get(i) {
                direct.min(via_preds)
            } else {
                via_preds
            };
        }
        mask_iter(sb.needed_mask(red, blue))
            .map(|u| mk[u.index()])
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn lower_bound_sums_sources_and_sinks() {
        let g = chain();
        // sources: x(16); sinks: y(16); interior m excluded.
        assert_eq!(algorithmic_lower_bound(&g), 32);
    }

    #[test]
    fn min_feasible_is_max_parent_closure() {
        let g = chain();
        // m needs 16+32 = 48; y needs 32+16 = 48.
        assert_eq!(min_feasible_budget(&g), 48);
        assert!(schedule_exists(&g, 48));
        assert!(!schedule_exists(&g, 47));
    }

    #[test]
    fn start_state_bound_matches_prop_2_4() {
        // At the initial position (red = ∅, blue = sources) the per-state
        // bound specializes exactly to the algorithmic lower bound.
        let g = chain();
        let sb = StateBounds::new(&g, 1, 1, 48);
        let sources = 1u64; // x is node 0
        assert_eq!(sb.needed_mask(0, sources), 0b111);
        assert_eq!(
            forced_reload_floor(&sb, 0, sources),
            algorithmic_lower_bound(&g)
        );
        assert_eq!(sb.lower_bound(0, sources), algorithmic_lower_bound(&g));
    }

    #[test]
    fn forced_reload_charges_for_evicted_interior() {
        // x(16) -> m(32) -> y(16).  Mid-game: m was computed, stored, and
        // evicted; nothing is red.  R* is {y, m}: y must be computed, so m
        // must become red again, but m is blue so the closure stops there
        // (it may be reloaded) and the source x is not forced.  The chain
        // prices the cheapest way to get m red again: min(reload m = 32,
        // recompute via x = 16) = 16.
        let g = chain();
        let sb = StateBounds::new(&g, 1, 1, 48);
        let blue: u64 = 0b011; // x (source) and m stored
        assert_eq!(sb.needed_mask(0, blue), 0b110); // sink y + evicted m
        assert_eq!(sb.stores(sb.sink_mask & !blue), 16); // store y
        assert_eq!(forced_reload_floor(&sb, 0, blue), 16 + 16); // store y + chain to m
                                                                // True remaining optimum: load x (16), compute m, compute y, store y
                                                                // (16) = 32, so the bound is tight here and admissible.
        assert_eq!(sb.lower_bound(0, blue), 32);
    }

    /// The 20-node symmetric reconvergent mesh: two sources feeding four
    /// isomorphic 4-node arms that reconverge on a two-node sink chain; the
    /// crossing source returns at every arm's tail, so reload chains run
    /// through blue and red interiors alike.
    fn mesh20() -> Cdag {
        let mut b = CdagBuilder::new();
        let root = b.node(2, "r");
        let crossing = b.node(4, "c");
        let mut tails = Vec::new();
        for arm in 0..4 {
            let head = b.node(2, format!("a{arm}_0"));
            b.edge(root, head);
            b.edge(crossing, head);
            let mut prev = head;
            for (pos, w) in [4, 4, 1].into_iter().enumerate() {
                let v = b.node(w, format!("a{arm}_{}", pos + 1));
                b.edge(prev, v);
                prev = v;
            }
            b.edge(crossing, prev);
            tails.push(prev);
        }
        let join = b.node(2, "s0");
        for t in tails {
            b.edge(t, join);
        }
        let sink = b.node(1, "s1");
        b.edge(join, sink);
        b.build().unwrap()
    }

    #[test]
    fn hoisted_forced_reload_matches_the_reference() {
        // Every (red, blue) pair over the 3-node chain, at asymmetric I/O
        // scales: the cone-restricted scratch DP must agree exactly with
        // the fresh-allocation reference.
        let g = chain();
        let sb = StateBounds::<u64>::new(&g, 2, 3, 48);
        for red in 0u64..8 {
            for blue in 0u64..8 {
                let need = sb.needed_mask(red, blue);
                assert_eq!(
                    sb.reload_chain(red, blue, need),
                    forced_reload_reference(&sb, red, blue),
                    "red={red:03b} blue={blue:03b}"
                );
            }
        }
        // 20,000 pseudo-random states on the 20-node mesh, where most
        // states dirty some needed node's ancestor cone.
        let g = mesh20();
        assert_eq!(g.len(), 20);
        let sb = StateBounds::<u64>::new(&g, 1, 1, min_feasible_budget(&g));
        let node_mask: u64 = (1 << g.len()) - 1;
        for i in 0..20_000u64 {
            let mut x = i.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
            x ^= x >> 29;
            let red = x & node_mask;
            x = x.wrapping_mul(0xbf58476d1ce4e5b9);
            x ^= x >> 32;
            let blue = x & node_mask;
            let need = sb.needed_mask(red, blue);
            assert_eq!(
                sb.reload_chain(red, blue, need),
                forced_reload_reference(&sb, red, blue),
                "red={red:#x} blue={blue:#x}"
            );
        }
    }

    #[test]
    fn bounds_are_zero_at_goal() {
        let g = chain();
        let sb = StateBounds::new(&g, 1, 1, 48);
        let all: u64 = 0b111;
        assert_eq!(forced_reload_floor(&sb, 0, all), 0);
        assert_eq!(sb.lower_bound(0, all), 0);
    }

    #[test]
    fn io_scales_multiply_the_bound_terms() {
        let g = chain();
        let sb = StateBounds::new(&g, 3, 5, 48);
        let sources = 1u64;
        // 3 × load(x=16) vs chain (same events) + 5 × store(y=16).
        assert_eq!(forced_reload_floor(&sb, 0, sources), 3 * 16 + 5 * 16);
        assert_eq!(sb.lower_bound(0, sources), 3 * 16 + 5 * 16);
    }

    #[test]
    fn bound_terms_saturate_instead_of_wrapping() {
        // Weights of 2^62 at load scale 4: one load of x alone costs 2^64.
        // Every term (and the pattern database's reverse Dijkstra) must
        // saturate at Weight::MAX, which stays a lower bound on a cost no
        // u64 can hold.
        let big: Weight = 1 << 62;
        let mut b = CdagBuilder::new();
        let x = b.node(big, "x");
        let y = b.node(big, "y");
        b.edge(x, y);
        let g = b.build().unwrap();
        let sb = StateBounds::<u64>::new(&g, 4, 1, 2 * big);
        assert_eq!(sb.lower_bound(0, 0b01), Weight::MAX);
        assert_eq!(sb.lower_bound(0, 0b11), 0);
    }

    #[test]
    fn wide_join_dominates() {
        let mut b = CdagBuilder::new();
        let inputs: Vec<_> = (0..4).map(|i| b.node(16, format!("x{i}"))).collect();
        let s = b.node(32, "sum");
        for &x in &inputs {
            b.edge(x, s);
        }
        let g = b.build().unwrap();
        assert_eq!(min_feasible_budget(&g), 4 * 16 + 32);
        assert_eq!(algorithmic_lower_bound(&g), 4 * 16 + 32);
    }

    #[test]
    fn landmark_pdb_dominates_forced_reload_pointwise() {
        let g = chain();
        let sb = StateBounds::<u64>::new(&g, 1, 1, 48);
        for red in 0u64..8 {
            for blue in 0u64..8 {
                assert!(
                    sb.lower_bound(red, blue) >= forced_reload_floor(&sb, red, blue),
                    "red={red:03b} blue={blue:03b}"
                );
            }
        }
    }

    /// s(2) -> a(4) -> z(1) -> c(1), plus s -> c: computing z pins {a, z}
    /// (weight 5) red, so at budget 6 the crossing source s (needed before
    /// z for a, and after z for c) cannot stay resident and must reload.
    fn crossing() -> Cdag {
        let mut b = CdagBuilder::new();
        let s = b.node(2, "s");
        let a = b.node(4, "a");
        let z = b.node(1, "z");
        let c = b.node(1, "c");
        b.edge(s, a);
        b.edge(a, z);
        b.edge(z, c);
        b.edge(s, c);
        b.build().unwrap()
    }

    #[test]
    fn landmark_charges_the_budget_forced_reload() {
        let g = crossing();
        assert_eq!(min_feasible_budget(&g), 6); // a: 4 + 2
        let sb = StateBounds::<u64>::new(&g, 1, 1, 6);
        let root_red = 0u64;
        let root_blue = 0b0001; // source s
                                // Forced reload alone sees: store c (1) + max(load s = 2, chain 2) = 3.
        assert_eq!(forced_reload_floor(&sb, root_red, root_blue), 3);
        // The landmark at pivot z adds the forced s reload: free budget
        // beside N(z) = {a, z} is 6 − 5 = 1 < w(s) = 2, so one extra load
        // of s.  store c (1) + (load 2 + extra 2) = 5 — and 5 is the true
        // optimum (load s, compute a, delete s, compute z, delete a,
        // reload s, compute c, store c = 2 + 2 + 1).
        assert_eq!(sb.lower_bound(root_red, root_blue), 5);
    }

    #[test]
    fn pdb_projection_is_admissible_on_the_chain() {
        // Full-pattern PDB on the 3-node chain: the abstract game equals the
        // real game here, so the bound at the root must not exceed the true
        // optimum (32) and must keep the forced-reload floor.
        let g = chain();
        let sb = StateBounds::<u64>::new(&g, 1, 1, 48);
        let b = sb.lower_bound(0, 0b001);
        assert!(b >= 32, "must keep the forced-reload floor, got {b}");
        assert!(b <= 32, "must stay admissible (true optimum 32), got {b}");
    }
}
