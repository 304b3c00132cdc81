//! Matrix-Vector Multiplication graphs `MVM(m, n)` — Definition 4.1.
//!
//! `MVM(m, n)` computes `y = A·x` for `A ∈ R^{m×n}`, `x ∈ R^n`.  Layer `S_1`
//! holds the `mn` matrix entries and `n` vector entries (column-major blocks
//! of `m + 1` nodes, vector entry first); `S_2` holds the `mn` elementwise
//! products; layers `S_3 … S_{n+1}` hold the running accumulations, `m` nodes
//! each.  Each output `y_r` is therefore the root of a left-deep binary
//! in-tree over the products of row `r` — exactly the shape the §4.3 tiling
//! scheduler exploits.

use crate::weights::WeightScheme;
use crate::{ParamError, Workload};
use pebblyn_core::{Cdag, CdagBuilder, NodeId};

/// A constructed `MVM(m, n)` graph with its structural metadata.
#[derive(Debug, Clone)]
pub struct MvmGraph {
    cdag: Cdag,
    m: usize,
    n: usize,
    scheme: WeightScheme,
    /// `layers[i - 1]` lists the nodes of `S_i` (1-based layers, `n+1` of
    /// them).
    layers: Vec<Vec<NodeId>>,
}

impl MvmGraph {
    /// Build `MVM(m, n)` under the given weight scheme.
    ///
    /// Requires `m ≥ 2` and `n ≥ 1` (Definition 4.1).
    pub fn new(m: usize, n: usize, scheme: WeightScheme) -> Result<Self, ParamError> {
        if m < 2 {
            return Err(ParamError(format!("MVM rows m={m} must be >= 2")));
        }
        if n < 1 {
            return Err(ParamError(format!("MVM columns n={n} must be >= 1")));
        }

        let mut b = CdagBuilder::with_capacity(Workload::Mvm { m, n }.checked_node_count()?);
        // S_1: column-major blocks, vector entry first.
        for c in 1..=n {
            b.node(scheme.input_weight(), format!("x{c}"));
            for r in 1..=m {
                b.node(scheme.input_weight(), format!("a{r}_{c}"));
            }
        }
        // S_2: products, column-major.
        for c in 1..=n {
            for r in 1..=m {
                b.node(scheme.compute_weight(), format!("p{r}_{c}"));
            }
        }
        // S_3 … S_{n+1}: accumulators.
        for t in 2..=n {
            for r in 1..=m {
                b.node(scheme.compute_weight(), format!("s{r}_{t}"));
            }
        }

        // |S_1| and |S_2|, which cannot overflow once the node count fits.
        let (s1, s2) = (m * n + n, m * n);
        let vector = |c: usize| NodeId(((c - 1) * (m + 1)) as u32);
        let matrix = |r: usize, c: usize| NodeId(((c - 1) * (m + 1) + r) as u32);
        let product = |r: usize, c: usize| NodeId((s1 + (c - 1) * m + r - 1) as u32);
        // Accumulator in layer S_{t+1}: the partial sum over columns 1..=t.
        let partial = |r: usize, t: usize| NodeId((s1 + s2 + (t - 2) * m + r - 1) as u32);

        // Rule (1): inputs feed products.
        for c in 1..=n {
            for r in 1..=m {
                b.edge(vector(c), product(r, c));
                b.edge(matrix(r, c), product(r, c));
            }
        }
        // Rules (2) + (3): products and partials chain into accumulators.
        // S_3 row r sums the column-1 and column-2 products.
        for t in 2..=n {
            for r in 1..=m {
                let prev = if t == 2 {
                    product(r, 1)
                } else {
                    partial(r, t - 1)
                };
                b.edge(prev, partial(r, t));
                b.edge(product(r, t), partial(r, t));
            }
        }

        let cdag = b
            .build()
            .map_err(|e| ParamError(format!("internal MVM construction error: {e}")))?;

        let mut layers = Vec::with_capacity(n + 1);
        layers.push(
            (1..=n)
                .flat_map(|c| std::iter::once(vector(c)).chain((1..=m).map(move |r| matrix(r, c))))
                .collect(),
        );
        layers.push(
            (1..=n)
                .flat_map(|c| (1..=m).map(move |r| product(r, c)))
                .collect(),
        );
        for t in 2..=n {
            layers.push((1..=m).map(|r| partial(r, t)).collect());
        }

        Ok(MvmGraph {
            cdag,
            m,
            n,
            scheme,
            layers,
        })
    }

    /// The underlying CDAG.
    #[inline]
    pub fn cdag(&self) -> &Cdag {
        &self.cdag
    }

    /// Number of matrix rows `m` (outputs).
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of matrix columns `n` (vector length).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The weight scheme the graph was built with.
    #[inline]
    pub fn scheme(&self) -> WeightScheme {
        self.scheme
    }

    /// The layers `S_1 … S_{n+1}`.
    #[inline]
    pub fn layers(&self) -> &[Vec<NodeId>] {
        &self.layers
    }

    /// The vector input `x_c` (1-based column).
    pub fn vector(&self, c: usize) -> NodeId {
        debug_assert!((1..=self.n).contains(&c));
        NodeId(((c - 1) * (self.m + 1)) as u32)
    }

    /// The matrix input `a_{r,c}` (1-based row/column).
    pub fn matrix(&self, r: usize, c: usize) -> NodeId {
        debug_assert!((1..=self.m).contains(&r) && (1..=self.n).contains(&c));
        NodeId(((c - 1) * (self.m + 1) + r) as u32)
    }

    /// The product `p_{r,c} = a_{r,c} · x_c`.
    pub fn product(&self, r: usize, c: usize) -> NodeId {
        debug_assert!((1..=self.m).contains(&r) && (1..=self.n).contains(&c));
        NodeId((self.m * self.n + self.n + (c - 1) * self.m + r - 1) as u32)
    }

    /// The partial sum of row `r` over columns `1..=t` (requires
    /// `2 ≤ t ≤ n`); for `t = n` this is the output `y_r`.
    pub fn partial(&self, r: usize, t: usize) -> NodeId {
        debug_assert!((1..=self.m).contains(&r) && (2..=self.n).contains(&t));
        let base = self.m * self.n + self.n + self.m * self.n;
        NodeId((base + (t - 2) * self.m + r - 1) as u32)
    }

    /// The output node `y_r`.  For `n = 1` this is the product `p_{r,1}`.
    pub fn output(&self, r: usize) -> NodeId {
        if self.n == 1 {
            self.product(r, 1)
        } else {
            self.partial(r, self.n)
        }
    }

    /// All output nodes `y_1 … y_m`.
    pub fn outputs(&self) -> Vec<NodeId> {
        (1..=self.m).map(|r| self.output(r)).collect()
    }

    /// The accumulation node that consumes column `c`'s product of row `r`:
    /// `partial(r, c)` for `c ≥ 2`, or `None` for `c = 1` (the column-1
    /// product is consumed by `partial(r, 2)` as its left operand).
    pub fn accumulator_for(&self, r: usize, c: usize) -> Option<NodeId> {
        if c >= 2 && c <= self.n {
            Some(self.partial(r, c))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn equal16(m: usize, n: usize) -> MvmGraph {
        MvmGraph::new(m, n, WeightScheme::Equal(16)).unwrap()
    }

    #[test]
    fn rejects_bad_params() {
        assert!(MvmGraph::new(1, 3, WeightScheme::Equal(16)).is_err());
        assert!(MvmGraph::new(2, 0, WeightScheme::Equal(16)).is_err());
    }

    #[test]
    fn mvm_2_3_matches_figure_4b() {
        let g = equal16(2, 3);
        let c = g.cdag();
        // S_1 = 9, S_2 = 6, S_3 = 2, S_4 = 2.
        assert_eq!(c.len(), 9 + 6 + 2 + 2);
        let sizes: Vec<usize> = g.layers().iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![9, 6, 2, 2]);
        // x_1 feeds both column-1 products.
        assert_eq!(c.succs(g.vector(1)), &[g.product(1, 1), g.product(2, 1)]);
        // a_{2,3} feeds p_{2,3} only.
        assert_eq!(c.succs(g.matrix(2, 3)), &[g.product(2, 3)]);
        // Column-1 products feed S_3 directly; partials chain.
        assert_eq!(c.succs(g.product(1, 1)), &[g.partial(1, 2)]);
        assert_eq!(c.succs(g.partial(1, 2)), &[g.partial(1, 3)]);
        // Outputs are the last partial layer.
        assert_eq!(g.outputs(), vec![g.partial(1, 3), g.partial(2, 3)]);
        assert_eq!(c.sinks(), g.outputs());
    }

    #[test]
    fn mvm_3_2_matches_figure_4a() {
        let g = equal16(3, 2);
        let c = g.cdag();
        assert_eq!(c.len(), (3 * 2 + 2) + 3 * 2 + 3);
        assert_eq!(c.sinks().len(), 3);
        // Every product has exactly the vector + matrix entry as parents.
        for r in 1..=3 {
            for col in 1..=2 {
                assert_eq!(
                    c.preds(g.product(r, col)),
                    &[g.vector(col), g.matrix(r, col)]
                );
            }
        }
        // y_r = p_{r,1} + p_{r,2}.
        for r in 1..=3 {
            assert_eq!(
                c.preds(g.partial(r, 2)),
                &[g.product(r, 1), g.product(r, 2)]
            );
        }
    }

    #[test]
    fn single_column_outputs_are_products() {
        let g = equal16(4, 1);
        let c = g.cdag();
        assert_eq!(c.len(), 5 + 4);
        assert_eq!(
            g.outputs(),
            (1..=4).map(|r| g.product(r, 1)).collect::<Vec<_>>()
        );
        assert_eq!(c.sinks().len(), 4);
    }

    #[test]
    fn weights_follow_scheme() {
        let g = MvmGraph::new(3, 2, WeightScheme::DoubleAccumulator(16)).unwrap();
        let c = g.cdag();
        for v in c.nodes() {
            let expected = if c.is_source(v) { 16 } else { 32 };
            assert_eq!(c.weight(v), expected, "node {v} ({})", c.name(v));
        }
    }

    #[test]
    fn paper_scale_builds() {
        let g = equal16(96, 120);
        let c = g.cdag();
        assert_eq!(c.len(), (96 * 120 + 120) + 96 * 120 + 119 * 96);
        assert_eq!(c.sinks().len(), 96);
        assert_eq!(c.sources().len(), 96 * 120 + 120);
    }

    #[test]
    fn row_trees_are_left_deep() {
        let g = equal16(2, 4);
        let c = g.cdag();
        // Walking back from the output of row 1 visits partials then the
        // column-1 product.
        let mut v = g.output(1);
        for t in (3..=4).rev() {
            assert_eq!(c.preds(v)[0], g.partial(1, t - 1));
            assert_eq!(c.preds(v)[1], g.product(1, t));
            v = g.partial(1, t - 1);
        }
        assert_eq!(c.preds(v), &[g.product(1, 1), g.product(1, 2)]);
    }

    #[test]
    fn accumulator_for_mapping() {
        let g = equal16(3, 3);
        assert_eq!(g.accumulator_for(2, 1), None);
        assert_eq!(g.accumulator_for(2, 2), Some(g.partial(2, 2)));
        assert_eq!(g.accumulator_for(2, 3), Some(g.partial(2, 3)));
        assert_eq!(g.accumulator_for(2, 4), None);
    }
}
