//! Discrete Wavelet Transform graphs `DWT(n, d)` — Definition 3.1.
//!
//! The construction models the recursive Haar wavelet transform: layer `S_1`
//! holds the `n` input samples; each subsequent layer computes
//! averages (odd indices) and coefficients (even indices) of the previous
//! layer's averages.  Every average/coefficient pair shares the same two
//! parents, which is what makes the pruning of Lemma 3.2 possible: removing
//! the even-indexed (coefficient) nodes of layers `S_2 … S_{d+1}` leaves a
//! forest of `n / 2^d` independent binary in-trees.

use crate::weights::WeightScheme;
use crate::{ParamError, Workload};
use pebblyn_core::{Cdag, CdagBuilder, NodeId, Weight};

/// A constructed `DWT(n, d)` graph with its structural metadata.
#[derive(Debug, Clone)]
pub struct DwtGraph {
    cdag: Cdag,
    n: usize,
    d: usize,
    scheme: WeightScheme,
    /// Byte offset of each 1-based layer into the dense node ids;
    /// `offsets[i]` is the id of `v^i_1`.  Index 0 is unused.
    offsets: Vec<usize>,
    /// `layers[i - 1]` lists the nodes of `S_i`.
    layers: Vec<Vec<NodeId>>,
}

impl DwtGraph {
    /// Build `DWT(n, d)` under the given weight scheme.
    ///
    /// Requires `d ≥ 1` and `n = k · 2^d` for some `k ≥ 1` (Definition 3.1).
    pub fn new(n: usize, d: usize, scheme: WeightScheme) -> Result<Self, ParamError> {
        if d < 1 {
            return Err(ParamError(format!("DWT level d={d} must be >= 1")));
        }
        if d >= usize::BITS as usize || n == 0 || !n.is_multiple_of(1usize << d) {
            return Err(ParamError(format!(
                "DWT inputs n={n} must be a positive multiple of 2^{d}"
            )));
        }
        let total = Workload::Dwt { n, d }.checked_node_count()?;

        // Layer sizes: |S_1| = |S_2| = n, |S_i| = |S_{i-1}| / 2 for i > 2.
        let mut sizes = vec![0usize; d + 2]; // 1-based
        sizes[1] = n;
        if d >= 1 {
            sizes[2] = n;
        }
        for i in 3..=d + 1 {
            sizes[i] = sizes[i - 1] / 2;
        }
        let mut offsets = vec![0usize; d + 2];
        for i in 2..=d + 1 {
            offsets[i] = offsets[i - 1] + sizes[i - 1];
        }

        let mut b = CdagBuilder::with_capacity(total);
        #[allow(clippy::needless_range_loop)] // indices mirror the paper's 1-based S_i
        for i in 1..=d + 1 {
            for j in 1..=sizes[i] {
                let (w, name): (Weight, String) = if i == 1 {
                    (scheme.input_weight(), format!("x{j}"))
                } else if j % 2 == 1 {
                    (scheme.compute_weight(), format!("a{}_{}", i - 1, j))
                } else {
                    (scheme.compute_weight(), format!("c{}_{}", i - 1, j))
                };
                b.node(w, name);
            }
        }

        let node = |i: usize, j: usize| NodeId((offsets[i] + j - 1) as u32);

        // Rule (1): inputs feed the first average/coefficient pair.
        for j in 1..=n {
            b.edge(node(1, j), node(2, j));
            if j % 2 == 1 {
                b.edge(node(1, j), node(2, j + 1));
            } else {
                b.edge(node(1, j), node(2, j - 1));
            }
        }
        // Rules (2) and (3): averages of S_i feed the pair in S_{i+1}.
        #[allow(clippy::needless_range_loop)] // indices mirror the paper's 1-based S_i
        for i in 2..=d {
            for j in (1..=sizes[i]).step_by(2) {
                match j % 4 {
                    1 => {
                        b.edge(node(i, j), node(i + 1, j.div_ceil(2)));
                        b.edge(node(i, j), node(i + 1, (j + 3) / 2));
                    }
                    3 => {
                        b.edge(node(i, j), node(i + 1, (j - 1) / 2));
                        b.edge(node(i, j), node(i + 1, j.div_ceil(2)));
                    }
                    _ => unreachable!("odd j mod 4 is 1 or 3"),
                }
            }
        }

        let cdag = b
            .build()
            .map_err(|e| ParamError(format!("internal DWT construction error: {e}")))?;
        let layers = (1..=d + 1)
            .map(|i| (1..=sizes[i]).map(|j| node(i, j)).collect())
            .collect();

        Ok(DwtGraph {
            cdag,
            n,
            d,
            scheme,
            offsets,
            layers,
        })
    }

    /// The largest admissible level `d*` for `n` inputs: the greatest `d ≥ 1`
    /// with `2^d | n` (used by Figure 6's `DWT(n, d*)` sweep).
    ///
    /// Returns `None` for odd or zero `n`.
    pub fn max_level(n: usize) -> Option<usize> {
        if n == 0 || !n.is_multiple_of(2) {
            return None;
        }
        Some(n.trailing_zeros() as usize)
    }

    /// The underlying CDAG.
    #[inline]
    pub fn cdag(&self) -> &Cdag {
        &self.cdag
    }

    /// The number of input samples `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The transform depth `d`.
    #[inline]
    pub fn d(&self) -> usize {
        self.d
    }

    /// The weight scheme the graph was built with.
    #[inline]
    pub fn scheme(&self) -> WeightScheme {
        self.scheme
    }

    /// Node `v^i_j` (both indices 1-based, `1 ≤ i ≤ d+1`).
    pub fn node(&self, layer: usize, j: usize) -> NodeId {
        debug_assert!(layer >= 1 && layer <= self.d + 1);
        debug_assert!(j >= 1 && j <= self.layers[layer - 1].len());
        NodeId((self.offsets[layer] + j - 1) as u32)
    }

    /// The layers `S_1 … S_{d+1}`; `layers()[i]` is `S_{i+1}`.
    #[inline]
    pub fn layers(&self) -> &[Vec<NodeId>] {
        &self.layers
    }

    /// The 1-based layer containing `v`.
    pub fn layer_of(&self, v: NodeId) -> usize {
        let idx = v.index();
        // offsets are increasing; find the last offset <= idx.
        let mut layer = 1;
        for i in 2..=self.d + 1 {
            if idx >= self.offsets[i] {
                layer = i;
            } else {
                break;
            }
        }
        layer
    }

    /// The 1-based index of `v` within its layer.
    pub fn index_in_layer(&self, v: NodeId) -> usize {
        v.index() - self.offsets[self.layer_of(v)] + 1
    }

    /// `true` iff `v` is an average node (odd index in a non-input layer).
    pub fn is_average(&self, v: NodeId) -> bool {
        self.layer_of(v) > 1 && self.index_in_layer(v) % 2 == 1
    }

    /// `true` iff `v` is a coefficient node (even index in a non-input
    /// layer).  These are exactly the nodes removed by the Lemma 3.2 pruning.
    pub fn is_coefficient(&self, v: NodeId) -> bool {
        self.layer_of(v) > 1 && self.index_in_layer(v).is_multiple_of(2)
    }

    /// The coefficient sibling `v^i_{j+1}` of an average node `v^i_j`
    /// (they share both parents), or `None` if `v` is not an average.
    pub fn sibling(&self, v: NodeId) -> Option<NodeId> {
        if self.is_average(v) {
            let i = self.layer_of(v);
            let j = self.index_in_layer(v);
            Some(self.node(i, j + 1))
        } else {
            None
        }
    }

    /// The roots (in the *original* graph) of the independent binary trees
    /// obtained by the Lemma 3.2 pruning: the average nodes of `S_{d+1}`.
    pub fn tree_roots(&self) -> Vec<NodeId> {
        self.layers[self.d]
            .iter()
            .copied()
            .filter(|&v| self.index_in_layer(v) % 2 == 1)
            .collect()
    }

    /// All coefficient (pruned) nodes, i.e. `v^i_j` with `i > 1`, `j` even.
    pub fn pruned_nodes(&self) -> Vec<NodeId> {
        self.cdag
            .nodes()
            .filter(|&v| self.is_coefficient(v))
            .collect()
    }

    /// Materialize the pruned graph `G'` of Lemma 3.2 (coefficients and
    /// their incoming edges removed), together with the original id of each
    /// pruned-graph node.
    ///
    /// The result is a forest of `n / 2^d` binary in-trees... except that the
    /// builder forbids a forest with isolated nodes only when nodes lose all
    /// edges, which cannot happen here (`d ≥ 1` keeps every input connected
    /// to its average).
    pub fn prune(&self) -> (Cdag, Vec<NodeId>) {
        let keep: Vec<NodeId> = self
            .cdag
            .nodes()
            .filter(|&v| !self.is_coefficient(v))
            .collect();
        let mut new_id = vec![u32::MAX; self.cdag.len()];
        for (i, &v) in keep.iter().enumerate() {
            new_id[v.index()] = i as u32;
        }
        let mut b = CdagBuilder::with_capacity(keep.len());
        for &v in &keep {
            b.node(self.cdag.weight(v), self.cdag.name(v).to_string());
        }
        for &v in &keep {
            for &p in self.cdag.preds(v) {
                debug_assert!(new_id[p.index()] != u32::MAX, "parents are never pruned");
                b.edge(NodeId(new_id[p.index()]), NodeId(new_id[v.index()]));
            }
        }
        let pruned = b.build().expect("pruned DWT graph is structurally valid");
        (pruned, keep)
    }

    /// Check the weight precondition of Lemma 3.2: within every non-input
    /// layer, each even-indexed (coefficient) node weighs at most its
    /// odd-indexed (average) sibling.
    pub fn satisfies_pruning_condition(&self) -> bool {
        self.cdag.nodes().all(|v| match self.sibling(v) {
            Some(u) => self.cdag.weight(u) <= self.cdag.weight(v),
            None => true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn equal16(n: usize, d: usize) -> DwtGraph {
        DwtGraph::new(n, d, WeightScheme::Equal(16)).unwrap()
    }

    #[test]
    fn rejects_bad_params() {
        assert!(DwtGraph::new(4, 0, WeightScheme::Equal(16)).is_err());
        assert!(DwtGraph::new(6, 2, WeightScheme::Equal(16)).is_err()); // 6 not mult of 4
        assert!(DwtGraph::new(0, 1, WeightScheme::Equal(16)).is_err());
    }

    #[test]
    fn dwt_4_1_matches_figure_2a() {
        let g = equal16(4, 1);
        let c = g.cdag();
        assert_eq!(c.len(), 8);
        // Two independent diamond components.
        assert_eq!(c.weakly_connected_components().len(), 2);
        // v1_1 and v1_2 both feed v2_1 (average) and v2_2 (coefficient).
        let a1 = g.node(2, 1);
        let c1 = g.node(2, 2);
        assert_eq!(c.preds(a1), &[g.node(1, 1), g.node(1, 2)]);
        assert_eq!(c.preds(c1), &[g.node(1, 1), g.node(1, 2)]);
        assert_eq!(c.sinks().len(), 4); // all of S_2
        assert_eq!(c.sources().len(), 4);
    }

    #[test]
    fn dwt_4_2_matches_figure_2b() {
        let g = equal16(4, 2);
        let c = g.cdag();
        assert_eq!(c.len(), 4 + 4 + 2);
        assert_eq!(c.weakly_connected_components().len(), 1);
        // S_2 averages feed S_3; coefficients are sinks.
        let a2_1 = g.node(2, 1);
        let a2_3 = g.node(2, 3);
        let s3_1 = g.node(3, 1);
        let s3_2 = g.node(3, 2);
        assert_eq!(c.succs(a2_1), &[s3_1, s3_2]);
        assert_eq!(c.succs(a2_3), &[s3_1, s3_2]);
        assert!(c.is_sink(g.node(2, 2)));
        assert!(c.is_sink(g.node(2, 4)));
        assert!(c.is_sink(s3_1) && c.is_sink(s3_2));
    }

    #[test]
    fn dwt_8_3_matches_figure_3a() {
        let g = equal16(8, 3);
        let c = g.cdag();
        assert_eq!(c.len(), 8 + 8 + 4 + 2);
        // Layer sizes per Definition 3.1.
        let sizes: Vec<usize> = g.layers().iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![8, 8, 4, 2]);
        // S_3 odd nodes j=1 (mod 4 = 1) and j=3 (mod 4 = 3) both feed S_4.
        assert_eq!(c.succs(g.node(3, 1)), &[g.node(4, 1), g.node(4, 2)]);
        assert_eq!(c.succs(g.node(3, 3)), &[g.node(4, 1), g.node(4, 2)]);
        // Sinks: coefficients of S_2 (4), S_3 (2) and all of S_4 (2).
        assert_eq!(c.sinks().len(), 4 + 2 + 2);
    }

    #[test]
    fn coordinates_round_trip() {
        let g = equal16(16, 4);
        for (li, layer) in g.layers().iter().enumerate() {
            for (ji, &v) in layer.iter().enumerate() {
                assert_eq!(g.layer_of(v), li + 1);
                assert_eq!(g.index_in_layer(v), ji + 1);
                assert_eq!(g.node(li + 1, ji + 1), v);
            }
        }
    }

    #[test]
    fn siblings_share_parents() {
        let g = equal16(16, 4);
        for v in g.cdag().nodes() {
            if let Some(u) = g.sibling(v) {
                assert!(g.is_average(v));
                assert!(g.is_coefficient(u));
                assert_eq!(g.cdag().preds(v), g.cdag().preds(u));
            }
        }
    }

    #[test]
    fn pruning_leaves_binary_forest() {
        let g = equal16(16, 2);
        let (pruned, orig_ids) = g.prune();
        // Kept: S_1 (16) + odd of S_2 (8) + odd of S_3 (4).
        assert_eq!(pruned.len(), 16 + 8 + 4);
        assert_eq!(orig_ids.len(), pruned.len());
        // Forest of n / 2^d = 4 trees.
        let comps = pruned.weakly_connected_components();
        assert_eq!(comps.len(), 4);
        for v in pruned.nodes() {
            assert!(pruned.out_degree(v) <= 1);
            assert!(pruned.in_degree(v) == 0 || pruned.in_degree(v) == 2);
        }
        assert_eq!(g.tree_roots().len(), 4);
    }

    #[test]
    fn tree_roots_are_top_layer_averages() {
        let g = equal16(256, 8);
        let roots = g.tree_roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0], g.node(9, 1));
        assert_eq!(g.cdag().len(), 256 + 256 + 128 + 64 + 32 + 16 + 8 + 4 + 2);
    }

    #[test]
    fn weights_follow_scheme() {
        let g = DwtGraph::new(8, 2, WeightScheme::DoubleAccumulator(16)).unwrap();
        let c = g.cdag();
        for v in c.nodes() {
            if c.is_source(v) {
                assert_eq!(c.weight(v), 16);
            } else {
                assert_eq!(c.weight(v), 32);
            }
        }
        assert!(g.satisfies_pruning_condition());
    }

    #[test]
    fn max_level() {
        assert_eq!(DwtGraph::max_level(256), Some(8));
        assert_eq!(DwtGraph::max_level(6), Some(1));
        assert_eq!(DwtGraph::max_level(12), Some(2));
        assert_eq!(DwtGraph::max_level(7), None);
        assert_eq!(DwtGraph::max_level(0), None);
    }

    #[test]
    fn pruning_condition_fails_for_heavier_coefficients() {
        // Give coefficients *more* weight than averages via Custom is not
        // expressible (schemes are uniform over computes), so check the
        // positive case thoroughly instead.
        for scheme in WeightScheme::paper_configs() {
            let g = DwtGraph::new(32, 3, scheme).unwrap();
            assert!(g.satisfies_pruning_condition());
        }
    }
}
