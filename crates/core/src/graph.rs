//! Node-weighted computational DAGs (`G = (V, E, w, B)` minus the budget,
//! which is supplied per-schedule).

use crate::error::GraphError;
use std::fmt;

/// Identifier of a CDAG node: a dense index into the graph's node arrays.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's position in the graph's dense node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Node weight / budget type: a number of **bits**.
///
/// See the crate docs for why weights are integral.
pub type Weight = u64;

/// An immutable node-weighted computational DAG.
///
/// Nodes are identified by dense [`NodeId`]s.  Edges are directed from a
/// predecessor (operand) to the node that consumes it.  Source nodes
/// (in-degree 0) are the graph's inputs `A(G)`; sink nodes (out-degree 0) are
/// its outputs `Z(G)`.  Construction (via [`CdagBuilder`]) guarantees
/// acyclicity, positive weights, and `A(G) ∩ Z(G) = ∅`.
///
/// Adjacency is stored in CSR (compressed sparse row) form: one flat
/// `NodeId` array per direction plus an `n + 1` offset array, so
/// [`preds`](Cdag::preds)/[`succs`](Cdag::succs) are O(1) slice views with
/// no per-node allocation and traversals walk contiguous memory.  Per-node
/// neighbor order equals edge insertion order, exactly as the previous
/// `Vec<Vec<NodeId>>` layout produced.  Sources, sinks, and the edge count
/// are precomputed at build time.
#[derive(Clone, PartialEq, Eq)]
pub struct Cdag {
    weights: Vec<Weight>,
    names: Vec<String>,
    topo: Vec<NodeId>,
    /// CSR offsets into `pred_adj`; `preds(v) = pred_adj[pred_off[v]..pred_off[v+1]]`.
    pred_off: Vec<u32>,
    pred_adj: Vec<NodeId>,
    /// CSR offsets into `succ_adj`; `succs(v) = succ_adj[succ_off[v]..succ_off[v+1]]`.
    succ_off: Vec<u32>,
    succ_adj: Vec<NodeId>,
    sources: Vec<NodeId>,
    sinks: Vec<NodeId>,
}

impl fmt::Debug for Cdag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cdag")
            .field("nodes", &self.len())
            .field("edges", &self.edge_count())
            .finish()
    }
}

impl Cdag {
    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` when the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Total number of directed edges (cached at construction).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.pred_adj.len()
    }

    /// Iterator over all node ids in index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len() as u32).map(NodeId)
    }

    /// The weight `w_v` of a node.
    #[inline]
    pub fn weight(&self, v: NodeId) -> Weight {
        self.weights[v.index()]
    }

    /// Immediate predecessors `H(v)` (operands of `v`).
    #[inline]
    pub fn preds(&self, v: NodeId) -> &[NodeId] {
        &self.pred_adj[self.pred_off[v.index()] as usize..self.pred_off[v.index() + 1] as usize]
    }

    /// Immediate successors (consumers of `v`).
    #[inline]
    pub fn succs(&self, v: NodeId) -> &[NodeId] {
        &self.succ_adj[self.succ_off[v.index()] as usize..self.succ_off[v.index() + 1] as usize]
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        (self.pred_off[v.index() + 1] - self.pred_off[v.index()]) as usize
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        (self.succ_off[v.index() + 1] - self.succ_off[v.index()]) as usize
    }

    /// `true` iff `v` is a source (input) node, i.e. `v ∈ A(G)`.
    #[inline]
    pub fn is_source(&self, v: NodeId) -> bool {
        self.in_degree(v) == 0
    }

    /// `true` iff `v` is a sink (output) node, i.e. `v ∈ Z(G)`.
    #[inline]
    pub fn is_sink(&self, v: NodeId) -> bool {
        self.out_degree(v) == 0
    }

    /// All source nodes `A(G)` in index order (cached at construction).
    #[inline]
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// All sink nodes `Z(G)` in index order (cached at construction).
    #[inline]
    pub fn sinks(&self) -> &[NodeId] {
        &self.sinks
    }

    /// A topological ordering of the nodes (computed at construction).
    #[inline]
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// Sum of all node weights (construction guarantees it fits a
    /// [`Weight`]).
    pub fn total_weight(&self) -> Weight {
        self.weights.iter().sum()
    }

    /// The human-readable name of a node (empty string when unnamed).
    ///
    /// Graphs built with [`Cdag::from_csr`] carry no name table at all, so
    /// out-of-range lookups fall back to the empty string rather than
    /// paying one heap `String` per node at million-node scale.
    #[inline]
    pub fn name(&self, v: NodeId) -> &str {
        self.names.get(v.index()).map_or("", String::as_str)
    }

    /// Greatest common divisor of all node weights.
    ///
    /// Useful as a step size when sweeping budgets: every interesting budget
    /// is a multiple of this value plus the minimum feasible budget.
    pub fn weight_gcd(&self) -> Weight {
        self.weights.iter().copied().fold(0, gcd)
    }

    /// Partition the nodes into weakly-connected components.
    ///
    /// Schedules for independent components never benefit from interleaving
    /// (Lemma 3.3's first observation), so schedulers process components one
    /// at a time.
    pub fn weakly_connected_components(&self) -> Vec<Vec<NodeId>> {
        let n = self.len();
        let mut comp = vec![usize::MAX; n];
        let mut count = 0usize;
        let mut stack = Vec::new();
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            stack.push(NodeId(start as u32));
            comp[start] = count;
            while let Some(v) = stack.pop() {
                for &u in self.preds(v).iter().chain(self.succs(v)) {
                    if comp[u.index()] == usize::MAX {
                        comp[u.index()] = count;
                        stack.push(u);
                    }
                }
            }
            count += 1;
        }
        let mut out = vec![Vec::new(); count];
        for v in self.nodes() {
            out[comp[v.index()]].push(v);
        }
        out
    }

    /// Extract the subgraph induced by a *closed* node set (no edges may
    /// cross the boundary — e.g. a weakly-connected component).
    ///
    /// Returns the subgraph and the mapping from subgraph node ids back to
    /// the original ids (`mapping[sub.index()] == original`).
    ///
    /// # Panics
    ///
    /// Panics if an edge crosses the boundary of `nodes`, or if `nodes`
    /// contains duplicates.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Cdag, Vec<NodeId>) {
        let mut sub_id = vec![u32::MAX; self.len()];
        for (i, &v) in nodes.iter().enumerate() {
            assert!(sub_id[v.index()] == u32::MAX, "duplicate node {v}");
            sub_id[v.index()] = i as u32;
        }
        let mut b = CdagBuilder::with_capacity(nodes.len());
        for &v in nodes {
            b.node(self.weight(v), self.name(v).to_string());
        }
        for &v in nodes {
            for &p in self.preds(v) {
                assert!(
                    sub_id[p.index()] != u32::MAX,
                    "edge {p} -> {v} crosses the subgraph boundary"
                );
                b.edge(NodeId(sub_id[p.index()]), NodeId(sub_id[v.index()]));
            }
            for &s in self.succs(v) {
                assert!(
                    sub_id[s.index()] != u32::MAX,
                    "edge {v} -> {s} crosses the subgraph boundary"
                );
            }
        }
        let sub = b.build().expect("closed induced subgraph is valid");
        (sub, nodes.to_vec())
    }

    /// Build the disjoint union of several CDAGs.
    ///
    /// Returns the union and, for each part, the node-id offset of its
    /// first node (part `i`'s node `v` becomes `NodeId(offsets[i] + v.0)`).
    pub fn disjoint_union(parts: &[&Cdag]) -> (Cdag, Vec<u32>) {
        let total = parts.iter().map(|g| g.len()).sum();
        let mut b = CdagBuilder::with_capacity(total);
        let mut offsets = Vec::with_capacity(parts.len());
        let mut base = 0u32;
        for g in parts {
            offsets.push(base);
            for v in g.nodes() {
                b.node(g.weight(v), g.name(v).to_string());
            }
            for v in g.nodes() {
                for &p in g.preds(v) {
                    b.edge(NodeId(base + p.0), NodeId(base + v.0));
                }
            }
            base += g.len() as u32;
        }
        let union = b.build().expect("disjoint union of valid graphs is valid");
        (union, offsets)
    }

    /// The set of all (not necessarily immediate) predecessors of `v`,
    /// returned as a boolean membership vector indexed by node.
    pub fn ancestors(&self, v: NodeId) -> Vec<bool> {
        let mut seen = vec![false; self.len()];
        let mut stack: Vec<NodeId> = self.preds(v).to_vec();
        while let Some(u) = stack.pop() {
            if !seen[u.index()] {
                seen[u.index()] = true;
                stack.extend_from_slice(self.preds(u));
            }
        }
        seen
    }

    /// `true` iff every node has out-degree ≤ 1 and exactly one sink exists:
    /// the shape required of k-ary tree graphs (Definition 3.6).
    pub fn is_in_tree(&self) -> bool {
        let mut sinks = 0usize;
        for v in self.nodes() {
            match self.out_degree(v) {
                0 => sinks += 1,
                1 => {}
                _ => return false,
            }
        }
        sinks == 1
    }

    /// Maximum in-degree across all nodes (the `k` of a k-ary tree).
    pub fn max_in_degree(&self) -> usize {
        self.nodes().map(|v| self.in_degree(v)).max().unwrap_or(0)
    }

    /// Build a [`Cdag`] directly from predecessor-CSR arrays, skipping the
    /// per-edge bookkeeping of [`CdagBuilder`].
    ///
    /// `pred_off` must have `weights.len() + 1` entries with `pred_off[0] ==
    /// 0`, non-decreasing offsets, and `pred_off[n] == pred_adj.len()`;
    /// `preds(v)` is then `pred_adj[pred_off[v]..pred_off[v+1]]`.  Nodes are
    /// unnamed ([`Cdag::name`] returns `""`).  This is the million-node
    /// entry point: it allocates only the successor CSR and the topological
    /// order on top of the caller's arrays, and duplicate detection uses an
    /// O(V) stamp array instead of a hash set, so the whole construction is
    /// O(V + E).
    ///
    /// # Errors
    ///
    /// The same structural invariants as [`CdagBuilder::build`]:
    /// [`GraphError::Empty`], [`GraphError::ZeroWeight`],
    /// [`GraphError::WeightOverflow`],
    /// [`GraphError::BadEdge`] (out-of-range endpoint or self-loop),
    /// [`GraphError::DuplicateEdge`] (repeated predecessor of one node),
    /// [`GraphError::Cycle`], and [`GraphError::SourceIsSink`].
    ///
    /// # Panics
    ///
    /// Panics if the CSR arrays are malformed (wrong `pred_off` length,
    /// non-zero first offset, decreasing offsets, or a final offset that
    /// disagrees with `pred_adj.len()`) — those are caller bugs, not data
    /// errors.
    pub fn from_csr(
        weights: Vec<Weight>,
        pred_off: Vec<u32>,
        pred_adj: Vec<NodeId>,
    ) -> Result<Cdag, GraphError> {
        let n = weights.len();
        let m = pred_adj.len();
        if n == 0 {
            return Err(GraphError::Empty);
        }
        assert_eq!(pred_off.len(), n + 1, "pred_off must have n + 1 entries");
        assert_eq!(pred_off[0], 0, "pred_off must start at 0");
        assert!(
            pred_off.windows(2).all(|w| w[0] <= w[1]),
            "pred_off must be non-decreasing"
        );
        assert_eq!(
            pred_off[n] as usize, m,
            "pred_off must end at pred_adj.len()"
        );
        check_weights(&weights)?;

        // Endpoint / self-loop / duplicate checks with a stamp array: node v
        // stamps each predecessor slot with v + 1, so a repeat within one
        // node's slice is caught in O(1) without hashing.
        let mut stamp = vec![0u32; n];
        for v in 0..n {
            let to = NodeId(v as u32);
            for &p in &pred_adj[pred_off[v] as usize..pred_off[v + 1] as usize] {
                if p.index() >= n || p == to {
                    return Err(GraphError::BadEdge(p, to));
                }
                if stamp[p.index()] == v as u32 + 1 {
                    return Err(GraphError::DuplicateEdge(p, to));
                }
                stamp[p.index()] = v as u32 + 1;
            }
        }

        // Successor CSR by stable counting sort over the predecessor lists.
        let mut succ_off = vec![0u32; n + 1];
        for &p in &pred_adj {
            succ_off[p.index() + 1] += 1;
        }
        for v in 0..n {
            succ_off[v + 1] += succ_off[v];
        }
        let mut succ_adj = vec![NodeId(0); m];
        let mut succ_cur: Vec<u32> = succ_off[..n].to_vec();
        for v in 0..n {
            for &p in &pred_adj[pred_off[v] as usize..pred_off[v + 1] as usize] {
                succ_adj[succ_cur[p.index()] as usize] = NodeId(v as u32);
                succ_cur[p.index()] += 1;
            }
        }

        // Kahn's algorithm: topological sort + cycle detection.
        let mut indeg: Vec<u32> = (0..n).map(|v| pred_off[v + 1] - pred_off[v]).collect();
        let mut queue: std::collections::VecDeque<NodeId> = (0..n as u32)
            .map(NodeId)
            .filter(|v| indeg[v.index()] == 0)
            .collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(v) = queue.pop_front() {
            topo.push(v);
            for &u in &succ_adj[succ_off[v.index()] as usize..succ_off[v.index() + 1] as usize] {
                indeg[u.index()] -= 1;
                if indeg[u.index()] == 0 {
                    queue.push_back(u);
                }
            }
        }
        if topo.len() != n {
            return Err(GraphError::Cycle);
        }

        let mut sources = Vec::new();
        let mut sinks = Vec::new();
        for v in 0..n {
            let is_source = pred_off[v] == pred_off[v + 1];
            let is_sink = succ_off[v] == succ_off[v + 1];
            if is_source && is_sink {
                return Err(GraphError::SourceIsSink(NodeId(v as u32)));
            }
            if is_source {
                sources.push(NodeId(v as u32));
            }
            if is_sink {
                sinks.push(NodeId(v as u32));
            }
        }

        Ok(Cdag {
            weights,
            names: Vec::new(),
            topo,
            pred_off,
            pred_adj,
            succ_off,
            succ_adj,
            sources,
            sinks,
        })
    }

    /// Render the graph in Graphviz DOT format.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("digraph cdag {\n  rankdir=LR;\n");
        for v in self.nodes() {
            let label = if self.name(v).is_empty() {
                format!("{v} (w={})", self.weight(v))
            } else {
                format!("{} (w={})", self.name(v), self.weight(v))
            };
            let shape = if self.is_source(v) {
                "box"
            } else if self.is_sink(v) {
                "doublecircle"
            } else {
                "circle"
            };
            let _ = writeln!(s, "  {} [label=\"{label}\", shape={shape}];", v.0);
        }
        for v in self.nodes() {
            for &u in self.preds(v) {
                let _ = writeln!(s, "  {} -> {};", u.0, v.0);
            }
        }
        s.push_str("}\n");
        s
    }
}

fn gcd(a: Weight, b: Weight) -> Weight {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Incremental builder for [`Cdag`]s.
///
/// ```
/// use pebblyn_core::CdagBuilder;
/// let mut b = CdagBuilder::new();
/// let x = b.node(16, "x");
/// let y = b.node(16, "y");
/// let s = b.node(16, "x+y");
/// b.edge(x, s);
/// b.edge(y, s);
/// let g = b.build().unwrap();
/// assert_eq!(g.sources(), vec![x, y]);
/// assert_eq!(g.sinks(), vec![s]);
/// ```
#[derive(Default, Debug, Clone)]
pub struct CdagBuilder {
    weights: Vec<Weight>,
    names: Vec<String>,
    edges: Vec<(NodeId, NodeId)>,
}

impl CdagBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a builder with room for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        Self {
            weights: Vec::with_capacity(nodes),
            names: Vec::with_capacity(nodes),
            edges: Vec::new(),
        }
    }

    /// Add a node with the given weight (in bits) and name.
    pub fn node(&mut self, weight: Weight, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.weights.len() as u32);
        self.weights.push(weight);
        self.names.push(name.into());
        id
    }

    /// Add an unnamed node with the given weight.
    pub fn unnamed(&mut self, weight: Weight) -> NodeId {
        self.node(weight, String::new())
    }

    /// Add the directed edge `from → to` (`from` is an operand of `to`).
    pub fn edge(&mut self, from: NodeId, to: NodeId) {
        self.edges.push((from, to));
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` when no nodes have been added.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Finish construction, verifying all structural invariants.
    ///
    /// # Errors
    ///
    /// * [`GraphError::Empty`] — no nodes,
    /// * [`GraphError::ZeroWeight`] — some `w_v = 0` (weights must be `> 0`),
    /// * [`GraphError::WeightOverflow`] — `Σ w_v` exceeds `u64::MAX`, so
    ///   red-set and budget sums could wrap,
    /// * [`GraphError::BadEdge`] — an edge endpoint is out of range or a
    ///   self-loop,
    /// * [`GraphError::DuplicateEdge`] — an edge is listed twice,
    /// * [`GraphError::Cycle`] — the edge set is not acyclic,
    /// * [`GraphError::SourceIsSink`] — an isolated node would be both input
    ///   and output, violating the model's `A(G) ∩ Z(G) = ∅` assumption.
    pub fn build(self) -> Result<Cdag, GraphError> {
        let n = self.weights.len();
        let m = self.edges.len();
        if n == 0 {
            return Err(GraphError::Empty);
        }
        check_weights(&self.weights)?;
        assert!(m <= u32::MAX as usize, "edge count exceeds u32 CSR offsets");
        let mut seen = std::collections::HashSet::with_capacity(m);
        for &(a, b) in &self.edges {
            if a.index() >= n || b.index() >= n || a == b {
                return Err(GraphError::BadEdge(a, b));
            }
            if !seen.insert((a, b)) {
                return Err(GraphError::DuplicateEdge(a, b));
            }
        }

        // CSR construction via stable counting sort: count per-node degrees,
        // prefix-sum into offsets, then scatter edges in insertion order so
        // each node's neighbor slice keeps the order edges were added in.
        let mut pred_off = vec![0u32; n + 1];
        let mut succ_off = vec![0u32; n + 1];
        for &(a, b) in &self.edges {
            pred_off[b.index() + 1] += 1;
            succ_off[a.index() + 1] += 1;
        }
        for v in 0..n {
            pred_off[v + 1] += pred_off[v];
            succ_off[v + 1] += succ_off[v];
        }
        let mut pred_adj = vec![NodeId(0); m];
        let mut succ_adj = vec![NodeId(0); m];
        let mut pred_cur: Vec<u32> = pred_off[..n].to_vec();
        let mut succ_cur: Vec<u32> = succ_off[..n].to_vec();
        for &(a, b) in &self.edges {
            pred_adj[pred_cur[b.index()] as usize] = a;
            pred_cur[b.index()] += 1;
            succ_adj[succ_cur[a.index()] as usize] = b;
            succ_cur[a.index()] += 1;
        }

        // Kahn's algorithm: topological sort + cycle detection.
        let succs = |v: usize| &succ_adj[succ_off[v] as usize..succ_off[v + 1] as usize];
        let mut indeg: Vec<u32> = (0..n).map(|v| pred_off[v + 1] - pred_off[v]).collect();
        let mut queue: std::collections::VecDeque<NodeId> = (0..n as u32)
            .map(NodeId)
            .filter(|v| indeg[v.index()] == 0)
            .collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(v) = queue.pop_front() {
            topo.push(v);
            for &u in succs(v.index()) {
                indeg[u.index()] -= 1;
                if indeg[u.index()] == 0 {
                    queue.push_back(u);
                }
            }
        }
        if topo.len() != n {
            return Err(GraphError::Cycle);
        }

        let mut sources = Vec::new();
        let mut sinks = Vec::new();
        for v in 0..n {
            let is_source = pred_off[v] == pred_off[v + 1];
            let is_sink = succ_off[v] == succ_off[v + 1];
            if is_source && is_sink {
                return Err(GraphError::SourceIsSink(NodeId(v as u32)));
            }
            if is_source {
                sources.push(NodeId(v as u32));
            }
            if is_sink {
                sinks.push(NodeId(v as u32));
            }
        }

        Ok(Cdag {
            weights: self.weights,
            names: self.names,
            topo,
            pred_off,
            pred_adj,
            succ_off,
            succ_adj,
            sources,
            sinks,
        })
    }
}

/// Weights must be positive and sum to at most `u64::MAX`, so no subset
/// sum (a red set, a blue set, a budget check) can wrap.
fn check_weights(weights: &[Weight]) -> Result<(), GraphError> {
    if let Some(v) = weights.iter().position(|&w| w == 0) {
        return Err(GraphError::ZeroWeight(NodeId(v as u32)));
    }
    let total = weights.iter().try_fold(0, |t: Weight, &w| t.checked_add(w));
    total.map(drop).ok_or(GraphError::WeightOverflow)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Cdag {
        // a   b
        //  \ / \
        //   c   d
        //    \ /
        //     e
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

    #[test]
    fn builds_and_reports_structure() {
        let g = diamond();
        assert_eq!(g.len(), 5);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.sources(), vec![NodeId(0), NodeId(1)]);
        assert_eq!(g.sinks(), vec![NodeId(4)]);
        assert_eq!(g.total_weight(), 16 + 16 + 32 + 32 + 16);
        assert_eq!(g.weight_gcd(), 16);
        assert_eq!(g.in_degree(NodeId(4)), 2);
        assert_eq!(g.out_degree(NodeId(1)), 2);
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let pos: Vec<usize> = {
            let mut p = vec![0; g.len()];
            for (i, &v) in g.topo_order().iter().enumerate() {
                p[v.index()] = i;
            }
            p
        };
        for v in g.nodes() {
            for &u in g.preds(v) {
                assert!(pos[u.index()] < pos[v.index()]);
            }
        }
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(CdagBuilder::new().build(), Err(GraphError::Empty)));
    }

    #[test]
    fn rejects_zero_weight() {
        let mut b = CdagBuilder::new();
        let x = b.node(0, "x");
        let y = b.node(1, "y");
        b.edge(x, y);
        assert!(matches!(b.build(), Err(GraphError::ZeroWeight(_))));
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = CdagBuilder::new();
        let x = b.node(1, "x");
        b.edge(x, x);
        assert!(matches!(b.build(), Err(GraphError::BadEdge(_, _))));
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut b = CdagBuilder::new();
        let x = b.node(1, "x");
        let y = b.node(1, "y");
        b.edge(x, y);
        b.edge(x, y);
        assert!(matches!(b.build(), Err(GraphError::DuplicateEdge(_, _))));
    }

    #[test]
    fn rejects_cycle() {
        let mut b = CdagBuilder::new();
        let x = b.node(1, "x");
        let y = b.node(1, "y");
        let z = b.node(1, "z");
        b.edge(x, y);
        b.edge(y, z);
        b.edge(z, x);
        assert!(matches!(b.build(), Err(GraphError::Cycle)));
    }

    #[test]
    fn rejects_isolated_node() {
        let mut b = CdagBuilder::new();
        let x = b.node(1, "x");
        let y = b.node(1, "y");
        b.edge(x, y);
        b.node(1, "lonely");
        assert!(matches!(b.build(), Err(GraphError::SourceIsSink(_))));
    }

    #[test]
    fn components_split_disconnected_graphs() {
        let mut b = CdagBuilder::new();
        let a = b.node(1, "a");
        let c = b.node(1, "c");
        b.edge(a, c);
        let d = b.node(1, "d");
        let e = b.node(1, "e");
        b.edge(d, e);
        let g = b.build().unwrap();
        let comps = g.weakly_connected_components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![NodeId(0), NodeId(1)]);
        assert_eq!(comps[1], vec![NodeId(2), NodeId(3)]);
    }

    #[test]
    fn ancestors_are_transitive() {
        let g = diamond();
        let anc = g.ancestors(NodeId(4)); // e
        assert!(anc[0] && anc[1] && anc[2] && anc[3]);
        assert!(!anc[4]);
        let anc_c = g.ancestors(NodeId(2)); // c
        assert!(anc_c[0] && anc_c[1]);
        assert!(!anc_c[3]);
    }

    #[test]
    fn tree_detection() {
        let mut b = CdagBuilder::new();
        let l1 = b.node(1, "l1");
        let l2 = b.node(1, "l2");
        let r = b.node(1, "r");
        b.edge(l1, r);
        b.edge(l2, r);
        let g = b.build().unwrap();
        assert!(g.is_in_tree());
        assert_eq!(g.max_in_degree(), 2);
        assert!(!diamond().is_in_tree()); // b has out-degree 2
    }

    #[test]
    fn induced_subgraph_of_component() {
        let mut b = CdagBuilder::new();
        let a = b.node(2, "a");
        let c = b.node(3, "c");
        b.edge(a, c);
        let d = b.node(5, "d");
        let e = b.node(7, "e");
        b.edge(d, e);
        let g = b.build().unwrap();
        let comps = g.weakly_connected_components();
        let (sub, map) = g.induced_subgraph(&comps[1]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.weight(NodeId(0)), 5);
        assert_eq!(sub.weight(NodeId(1)), 7);
        assert_eq!(map, vec![NodeId(2), NodeId(3)]);
        assert_eq!(sub.preds(NodeId(1)), &[NodeId(0)]);
    }

    #[test]
    #[should_panic(expected = "crosses the subgraph boundary")]
    fn induced_subgraph_rejects_open_sets() {
        let g = diamond();
        g.induced_subgraph(&[NodeId(0), NodeId(2)]); // c's parent b missing
    }

    #[test]
    fn disjoint_union_concatenates() {
        let mut b1 = CdagBuilder::new();
        let x = b1.node(1, "x");
        let y = b1.node(2, "y");
        b1.edge(x, y);
        let g1 = b1.build().unwrap();
        let (union, offsets) = Cdag::disjoint_union(&[&g1, &g1, &g1]);
        assert_eq!(union.len(), 6);
        assert_eq!(offsets, vec![0, 2, 4]);
        assert_eq!(union.weakly_connected_components().len(), 3);
        assert_eq!(union.weight(NodeId(4)), 1);
        assert_eq!(union.preds(NodeId(5)), &[NodeId(4)]);
    }

    #[test]
    fn from_csr_matches_builder() {
        // Same diamond as `diamond()`, expressed as predecessor CSR.
        let weights = vec![16, 16, 32, 32, 16];
        let pred_off = vec![0, 0, 0, 2, 3, 5];
        let pred_adj = vec![NodeId(0), NodeId(1), NodeId(1), NodeId(2), NodeId(3)];
        let g = Cdag::from_csr(weights, pred_off, pred_adj).unwrap();
        let b = diamond();
        assert_eq!(g.len(), b.len());
        assert_eq!(g.edge_count(), b.edge_count());
        assert_eq!(g.sources(), b.sources());
        assert_eq!(g.sinks(), b.sinks());
        assert_eq!(g.topo_order(), b.topo_order());
        for v in g.nodes() {
            assert_eq!(g.preds(v), b.preds(v));
            assert_eq!(g.succs(v), b.succs(v));
            assert_eq!(g.name(v), ""); // no name table
        }
    }

    #[test]
    fn from_csr_rejects_structural_errors() {
        let edge = |off: Vec<u32>, adj: Vec<NodeId>| Cdag::from_csr(vec![1, 1], off, adj);
        assert!(matches!(
            Cdag::from_csr(vec![], vec![0], vec![]),
            Err(GraphError::Empty)
        ));
        assert!(matches!(
            Cdag::from_csr(vec![1, 0], vec![0, 0, 1], vec![NodeId(0)]),
            Err(GraphError::ZeroWeight(NodeId(1)))
        ));
        assert!(matches!(
            edge(vec![0, 0, 1], vec![NodeId(7)]),
            Err(GraphError::BadEdge(_, _))
        ));
        assert!(matches!(
            edge(vec![0, 0, 1], vec![NodeId(1)]),
            Err(GraphError::BadEdge(_, _)) // self-loop
        ));
        assert!(matches!(
            edge(vec![0, 0, 2], vec![NodeId(0), NodeId(0)]),
            Err(GraphError::DuplicateEdge(_, _))
        ));
        // 0 -> 1 and 1 -> 0 is a 2-cycle.
        assert!(matches!(
            edge(vec![0, 1, 2], vec![NodeId(1), NodeId(0)]),
            Err(GraphError::Cycle)
        ));
        assert!(matches!(
            Cdag::from_csr(vec![1, 1, 1], vec![0, 0, 1, 1], vec![NodeId(0)]),
            Err(GraphError::SourceIsSink(NodeId(2)))
        ));
    }

    #[test]
    fn both_constructors_reject_weight_sums_past_u64() {
        let half = 1 << 63;
        let mut b = CdagBuilder::new();
        let x = b.unnamed(half);
        let y = b.unnamed(half);
        b.edge(x, y);
        assert_eq!(b.build().unwrap_err(), GraphError::WeightOverflow);
        assert_eq!(
            Cdag::from_csr(vec![half, half], vec![0, 0, 1], vec![NodeId(0)]).unwrap_err(),
            GraphError::WeightOverflow
        );
        // Exactly u64::MAX in total still fits.
        let g = Cdag::from_csr(vec![half, half - 1], vec![0, 0, 1], vec![NodeId(0)]).unwrap();
        assert_eq!(g.total_weight(), u64::MAX);
    }

    #[test]
    fn dot_contains_nodes_and_edges() {
        let g = diamond();
        let dot = g.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("0 -> 2;"));
        assert!(dot.contains("a (w=16)"));
    }
}
