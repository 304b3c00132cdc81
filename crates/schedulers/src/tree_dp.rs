//! One tree dynamic program behind the paper's three tree recurrences.
//!
//! `P(v, b)` is the least weighted cost of making `v` red under a fast
//! memory of `b` bits, leaving red every reuse-state node of `v`'s subtree
//! too.  It is Eq. (8) of §4.1; with empty memory states it is Eq. (6), and
//! on a DWT's average nodes, each computing its pruned coefficient sibling
//! right before itself (Lemma 3.2), it is Algorithm 1's Eq. (2):
//!
//! ```text
//! P(v, b) = ∞                    if w(R_v ∪ H(v) ∪ {v}) > b
//!         = load·w(R_v \ I)      if v ∈ I          – already resident
//!         = load·w_v             if H(v) = ∅       – an input
//!         = min_{σ, δ} Σ_i P(σ_i, b − I_after(i) − held(i))
//!                      + (load + store)·Σ_{δ_i = 0} w_σ_i
//!                      + store·w_u                 – u: v's DWT sibling
//! ```
//!
//! over parent orders `σ` and keep flags `δ`, where `I_after(i)` is the
//! initial-state weight of the parents computed after `σ_i` (resident
//! until consumed) and `held(i)` the reuse weight of the parents computed
//! before it, plus those kept red (`δ = 1`; a spill, `δ = 0`, stores and
//! reloads the parent).  `I_v`/`R_v` are the memory states projected onto
//! `pred(v) ∪ {v}`; empty states make every projection zero.
//!
//! Two parents run Eq. (2)'s four candidates directly; every other
//! in-degree runs a Held–Karp subset DP over (processed parents, held
//! weight), which covers the same `(σ, δ)` space in `O(3^k)`-ish work.
//!
//! The memo holds costs only: `pack_key(node, budget) → Option<Weight>`.
//! A schedule comes from one traceback ([`TreeDp::emit`]) that asks each
//! step again for its choice, the memo answering the step's sub-costs.
//! Every cost sum is checked: a candidate whose cost overflows a
//! [`Weight`] is dropped, as the exact search drops an overflowing path.

use crate::memstate::MemoryStates;
use pebblyn_core::{pack_key, Cdag, FastHashMap, Move, NodeId, Schedule, Weight};

/// Per-bit I/O cost scales: the classic game uses `(1, 1)`; asymmetric
/// scales model technologies where writes to slow memory cost more than
/// reads (e.g. embedded Flash in implanted devices).  The DP is exact for
/// any non-negative scales — certified against the exhaustive solver in
/// this crate's test suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoCosts {
    /// Cost per bit of an M1 (slow → fast) transfer.
    pub load: Weight,
    /// Cost per bit of an M2 (fast → slow) transfer.
    pub store: Weight,
}

impl Default for IoCosts {
    fn default() -> Self {
        IoCosts { load: 1, store: 1 }
    }
}

/// The memory states projected onto each subtree `pred(v) ∪ {v}`.
struct Projections {
    /// Σ weights of `I_v`.
    i_weight: Vec<Weight>,
    /// Σ weights of `R_v`.
    r_weight: Vec<Weight>,
    /// Σ weights of `R_v \ I_v`.
    r_minus_i_weight: Vec<Weight>,
    in_i: Vec<bool>,
    in_r: Vec<bool>,
}

impl Projections {
    fn new(graph: &Cdag, states: &MemoryStates) -> Self {
        let n = graph.len();
        let mut p = Projections {
            i_weight: vec![0; n],
            r_weight: vec![0; n],
            r_minus_i_weight: vec![0; n],
            in_i: vec![false; n],
            in_r: vec![false; n],
        };
        for &v in &states.initial {
            p.in_i[v.index()] = true;
        }
        for &v in &states.reuse {
            p.in_r[v.index()] = true;
        }
        // In an in-tree, pred(v) ∪ {v} is the disjoint union of the
        // parents' subtrees plus v itself, so the projected weights
        // accumulate in topological order.
        for &v in graph.topo_order() {
            let i = v.index();
            let w = graph.weight(v);
            let mut iw = if p.in_i[i] { w } else { 0 };
            let mut rw = if p.in_r[i] { w } else { 0 };
            let mut rmiw = if p.in_r[i] && !p.in_i[i] { w } else { 0 };
            for &c in graph.preds(v) {
                iw += p.i_weight[c.index()];
                rw += p.r_weight[c.index()];
                rmiw += p.r_minus_i_weight[c.index()];
            }
            p.i_weight[i] = iw;
            p.r_weight[i] = rw;
            p.r_minus_i_weight[i] = rmiw;
        }
        p
    }
}

/// One parent in a step's choice: computed at `budget`, then kept red or
/// spilled (stored, deleted, reloaded before `v`'s compute).
#[derive(Debug, Clone, Copy)]
struct Parent {
    node: NodeId,
    budget: Weight,
    keep: bool,
}

/// How a step makes `v` red.
enum Choice {
    /// `v ∈ I`: load the subtree's reuse nodes the initial state lacks.
    Resident,
    /// An input: load it.
    Load,
    /// Two parents, in computation order.
    Pair([Parent; 2]),
    /// Any other in-degree, in computation order.
    Order(Vec<Parent>),
}

/// Back-pointer of one Held–Karp state: its cost, the state it extends
/// and the parent that extension computed.
type Link = (Weight, u128, Parent);

/// The DP over one graph, one price pair and one pair of memory states.
pub(crate) struct TreeDp<'a> {
    graph: &'a Cdag,
    costs: IoCosts,
    proj: Projections,
    /// DWT's pruned coefficient sibling of each average node; empty for
    /// plain trees.
    sibling: Vec<Option<NodeId>>,
    /// Keyed by [`pack_key`]`(node, budget)` — one `u128` per state.
    memo: FastHashMap<u128, Option<Weight>>,
}

impl<'a> TreeDp<'a> {
    pub(crate) fn new(graph: &'a Cdag, costs: IoCosts, states: &MemoryStates) -> Self {
        TreeDp {
            graph,
            costs,
            proj: Projections::new(graph, states),
            sibling: Vec::new(),
            memo: FastHashMap::default(),
        }
    }

    /// Compute, store and delete `sibling[v]` right before each `v`.
    pub(crate) fn with_siblings(mut self, sibling: Vec<Option<NodeId>>) -> Self {
        self.sibling = sibling;
        self
    }

    /// `P(v, b)`, or `None` when infeasible or past a `u64` weight.
    pub(crate) fn cost(&mut self, v: NodeId, b: Weight) -> Option<Weight> {
        let key = pack_key(v.index() as u64, b);
        if let Some(&hit) = self.memo.get(&key) {
            return hit;
        }
        let cost = self.step(v, b).map(|(cost, _)| cost);
        self.memo.insert(key, cost);
        cost
    }

    /// The cost of pebbling each root in turn and storing it.
    pub(crate) fn forest_cost(&mut self, roots: &[NodeId], b: Weight) -> Option<Weight> {
        roots.iter().try_fold(0 as Weight, |total, &r| {
            let store = self.costs.store.checked_mul(self.graph.weight(r))?;
            total.checked_add(self.cost(r, b)?.checked_add(store)?)
        })
    }

    /// The schedule realising [`TreeDp::forest_cost`]: each root's moves,
    /// then its store and delete.
    pub(crate) fn forest_schedule(&mut self, roots: &[NodeId], b: Weight) -> Option<Schedule> {
        self.forest_cost(roots, b)?;
        let mut moves = Vec::new();
        for &r in roots {
            self.emit(r, b, &mut moves);
            moves.extend([Move::Store(r), Move::Delete(r)]);
        }
        Some(Schedule::from_moves(moves))
    }

    /// Append the moves realising a feasible `P(v, b)`.  Afterwards `v` and
    /// the subtree's reuse nodes are red; every other node of the subtree
    /// outside the initial state is not (a DWT sibling is also blue).
    pub(crate) fn emit(&mut self, v: NodeId, b: Weight, out: &mut Vec<Move>) {
        let (_, choice) = self.step(v, b).expect("traceback visits feasible states");
        match choice {
            Choice::Resident => {
                // DFS over the subtree for the reuse nodes not yet red.
                let mut stack = vec![v];
                while let Some(u) = stack.pop() {
                    if self.proj.in_r[u.index()] && !self.proj.in_i[u.index()] {
                        out.push(Move::Load(u));
                    }
                    stack.extend_from_slice(self.graph.preds(u));
                }
            }
            Choice::Load => out.push(Move::Load(v)),
            Choice::Pair(parents) => self.emit_parents(v, &parents, out),
            Choice::Order(parents) => self.emit_parents(v, &parents, out),
        }
    }

    fn emit_parents(&mut self, v: NodeId, parents: &[Parent], out: &mut Vec<Move>) {
        for p in parents {
            self.emit(p.node, p.budget, out);
            if !p.keep {
                out.extend([Move::Store(p.node), Move::Delete(p.node)]);
            }
        }
        out.extend(
            parents
                .iter()
                .filter(|p| !p.keep)
                .map(|p| Move::Load(p.node)),
        );
        if let Some(u) = self.sibling(v) {
            out.extend([Move::Compute(u), Move::Store(u), Move::Delete(u)]);
        }
        out.push(Move::Compute(v));
        let in_r = &self.proj.in_r;
        out.extend(
            parents
                .iter()
                .filter(|p| !in_r[p.node.index()])
                .map(|p| Move::Delete(p.node)),
        );
    }

    fn sibling(&self, v: NodeId) -> Option<NodeId> {
        self.sibling.get(v.index()).copied().flatten()
    }

    /// One evaluation of the recurrence at `(v, b)`: the best cost and the
    /// choice reaching it.  The forward pass keeps the cost, the traceback
    /// the choice.
    fn step(&mut self, v: NodeId, b: Weight) -> Option<(Weight, Choice)> {
        let g = self.graph;
        let proj = &self.proj;
        let unless_reused = |u: NodeId| if proj.in_r[u.index()] { 0 } else { g.weight(u) };
        // R_v ∪ H(v) ∪ {v} is red at once when v is computed.
        let preds = g.preds(v);
        let occupancy = proj.r_weight[v.index()]
            + unless_reused(v)
            + preds.iter().map(|&p| unless_reused(p)).sum::<Weight>();
        if occupancy > b {
            return None;
        }
        if proj.in_i[v.index()] {
            let loads = self
                .costs
                .load
                .checked_mul(proj.r_minus_i_weight[v.index()])?;
            return Some((loads, Choice::Resident));
        }
        let (cost, choice) = match *preds {
            [] => return Some((self.costs.load.checked_mul(g.weight(v))?, Choice::Load)),
            [p1, p2] => self.pair_step(p1, p2, b)?,
            _ => self.subset_step(preds, b)?,
        };
        // The sibling's compute fits: it shares v's parents and w_u <= w_v.
        let sibling_store = match self.sibling(v) {
            Some(u) => self.costs.store.checked_mul(g.weight(u))?,
            None => 0,
        };
        Some((cost.checked_add(sibling_store)?, choice))
    }

    /// Eq. (2)'s candidates, in order: spill p1, keep p1, spill p2, keep
    /// p2.  The first strict minimum wins.
    fn pair_step(&mut self, p1: NodeId, p2: NodeId, b: Weight) -> Option<(Weight, Choice)> {
        let mut best: Option<(Weight, Choice)> = None;
        for (first, second) in [(p1, p2), (p2, p1)] {
            // The other parent's initial nodes stay resident meanwhile.
            let Some(b1) = b.checked_sub(self.proj.i_weight[second.index()]) else {
                continue;
            };
            let Some(c1) = self.cost(first, b1) else {
                continue;
            };
            for keep in [false, true] {
                let Some((held, extra)) = self.settle(first, keep) else {
                    continue;
                };
                let Some(b2) = b.checked_sub(held) else {
                    continue;
                };
                let Some(c2) = self.cost(second, b2) else {
                    continue;
                };
                let Some(cost) = c1.checked_add(c2).and_then(|c| c.checked_add(extra)) else {
                    continue;
                };
                if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                    best = Some((
                        cost,
                        Choice::Pair([
                            Parent {
                                node: first,
                                budget: b1,
                                keep,
                            },
                            Parent {
                                node: second,
                                budget: b2,
                                keep: true,
                            },
                        ]),
                    ));
                }
            }
        }
        best
    }

    /// The weight `p`'s subtree holds red once `p` is done and kept red
    /// (`keep`) or spilled, and that choice's extra price.  `None` drops
    /// the choice: a spill whose round trip overflows, or of a reuse-state
    /// parent, which must stay red once computed (and costs less kept, at
    /// the same budget).
    fn settle(&self, p: NodeId, keep: bool) -> Option<(Weight, Weight)> {
        let (r, w) = (self.proj.r_weight[p.index()], self.graph.weight(p));
        match (keep, self.proj.in_r[p.index()]) {
            (true, true) => Some((r, 0)),
            (true, false) => Some((r + w, 0)),
            (false, true) => None,
            (false, false) => {
                let round_trip = self.costs.load.checked_add(self.costs.store)?;
                Some((r, round_trip.checked_mul(w)?))
            }
        }
    }

    /// The Held–Karp subset DP over `(processed parents, held weight)`:
    /// held weight is the only channel through which earlier decisions
    /// affect later parents' budgets, so it is a sufficient statistic for
    /// `δ`.  `layers[j]` holds the states after `j` parents, keyed by
    /// `pack_key(processed mask, held weight)`.
    fn subset_step(&mut self, preds: &[NodeId], b: Weight) -> Option<(Weight, Choice)> {
        let k = preds.len();
        assert!(
            k <= 20,
            "tree DP supports in-degree <= 20 (got {k}); the paper targets k = O(log log n)"
        );
        // The empty start state's link is never followed.
        let start = Parent {
            node: preds[0],
            budget: b,
            keep: true,
        };
        let mut layers: Vec<FastHashMap<u128, Link>> = Vec::with_capacity(k + 1);
        layers.push(FastHashMap::from_iter([(pack_key(0, 0), (0, 0, start))]));
        for j in 0..k {
            let mut next: FastHashMap<u128, Link> = FastHashMap::default();
            for (&state, &(cost, ..)) in &layers[j] {
                let (mask, held) = ((state >> 64) as u64, state as u64 as Weight);
                // Unprocessed parents' initial nodes stay resident while
                // the others are computed.
                let pending_initial: Weight = (0..k)
                    .filter(|&i| mask & (1 << i) == 0)
                    .map(|i| self.proj.i_weight[preds[i].index()])
                    .sum();
                for (i, &p) in preds.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        continue;
                    }
                    let resident = pending_initial - self.proj.i_weight[p.index()] + held;
                    let Some(budget) = b.checked_sub(resident) else {
                        continue;
                    };
                    let Some(base) = self.cost(p, budget).and_then(|c| cost.checked_add(c)) else {
                        continue;
                    };
                    for keep in [true, false] {
                        let Some((dheld, extra)) = self.settle(p, keep) else {
                            continue;
                        };
                        let Some(ncost) = base.checked_add(extra) else {
                            continue;
                        };
                        let key = pack_key(mask | 1 << i, held + dheld);
                        if next.get(&key).is_none_or(|&(c, ..)| ncost < c) {
                            next.insert(
                                key,
                                (
                                    ncost,
                                    state,
                                    Parent {
                                        node: p,
                                        budget,
                                        keep,
                                    },
                                ),
                            );
                        }
                    }
                }
            }
            layers.push(next);
        }
        let (&end, &(cost, ..)) = layers[k].iter().min_by_key(|(_, &(c, ..))| c)?;
        let mut order = Vec::with_capacity(k);
        let mut key = end;
        for layer in layers[1..].iter().rev() {
            let (_, prev, parent) = layer[&key];
            order.push(parent);
            key = prev;
        }
        order.reverse();
        Some((cost, Choice::Order(order)))
    }
}
