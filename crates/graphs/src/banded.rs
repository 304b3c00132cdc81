//! Banded matrix-vector multiplication — the paper's "structured sparse"
//! tensor claim made concrete.
//!
//! §4.3 notes the tiling approach "extends to dense and structured sparse
//! tensor multiplication".  A banded MVM is the canonical structured-sparse
//! kernel: row `r` of the matrix is zero outside columns `r … r+b−1`, so
//!
//! ```text
//! y_r = Σ_{j=0}^{b−1} a_{r,j} · x_{r+j},     r = 1 … n−b+1
//! ```
//!
//! Unlike the dense `MVM(m, n)` every vector entry feeds at most `b`
//! outputs (a sliding window, as in [`crate::conv`]), and unlike the FIR
//! filter the per-row weights `a_{r,j}` are *inputs*, not constants — so
//! the graph has `n + m·b` sources and exhibits both streaming and window
//! reuse.

use crate::weights::WeightScheme;
use crate::{ParamError, Workload};
use pebblyn_core::{Cdag, CdagBuilder, NodeId};

/// A constructed banded-MVM graph.
#[derive(Debug, Clone)]
pub struct BandedMvmGraph {
    cdag: Cdag,
    n: usize,
    b: usize,
    scheme: WeightScheme,
}

impl BandedMvmGraph {
    /// Build the banded MVM over an `n`-vector with bandwidth `b`
    /// (`2 ≤ b ≤ n`); there are `n − b + 1` output rows.
    pub fn new(n: usize, b: usize, scheme: WeightScheme) -> Result<Self, ParamError> {
        if b < 2 || b > n {
            return Err(ParamError(format!(
                "banded MVM needs 2 <= b <= n (got n={n}, b={b})"
            )));
        }
        let rows = n - b + 1;
        let mut builder =
            CdagBuilder::with_capacity(Workload::Banded { n, bandwidth: b }.checked_node_count()?);
        // Sources: vector, then band entries row-major.
        for t in 1..=n {
            builder.node(scheme.input_weight(), format!("x{t}"));
        }
        for r in 1..=rows {
            for j in 0..b {
                builder.node(scheme.input_weight(), format!("a{r}_{j}"));
            }
        }
        // Products p_{r,j}, row-major.
        for r in 1..=rows {
            for j in 0..b {
                builder.node(scheme.compute_weight(), format!("p{r}_{j}"));
            }
        }
        // Partials s_{r,j} for j = 1..b-1 (s_{r,b-1} is the output y_r).
        for r in 1..=rows {
            for j in 1..b {
                builder.node(scheme.compute_weight(), format!("s{r}_{j}"));
            }
        }

        let g = Mapper { n, b, rows };
        for r in 1..=rows {
            for j in 0..b {
                builder.edge(g.vector(r + j), g.product(r, j));
                builder.edge(g.band(r, j), g.product(r, j));
            }
            builder.edge(g.product(r, 0), g.partial(r, 1));
            builder.edge(g.product(r, 1), g.partial(r, 1));
            for j in 2..b {
                builder.edge(g.partial(r, j - 1), g.partial(r, j));
                builder.edge(g.product(r, j), g.partial(r, j));
            }
        }

        let cdag = builder
            .build()
            .map_err(|e| ParamError(format!("internal banded MVM construction error: {e}")))?;
        Ok(BandedMvmGraph { cdag, n, b, scheme })
    }

    /// The underlying CDAG.
    #[inline]
    pub fn cdag(&self) -> &Cdag {
        &self.cdag
    }

    /// Vector length `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bandwidth `b`.
    #[inline]
    pub fn bandwidth(&self) -> usize {
        self.b
    }

    /// Number of output rows, `n − b + 1`.
    #[inline]
    pub fn rows(&self) -> usize {
        self.n - self.b + 1
    }

    /// The weight scheme.
    #[inline]
    pub fn scheme(&self) -> WeightScheme {
        self.scheme
    }

    fn mapper(&self) -> Mapper {
        Mapper {
            n: self.n,
            b: self.b,
            rows: self.rows(),
        }
    }

    /// Vector entry `x_t` (1-based).
    pub fn vector(&self, t: usize) -> NodeId {
        self.mapper().vector(t)
    }

    /// Band entry `a_{r,j}` (row 1-based, `0 ≤ j < b`).
    pub fn band(&self, r: usize, j: usize) -> NodeId {
        self.mapper().band(r, j)
    }

    /// Product `p_{r,j} = a_{r,j} · x_{r+j}`.
    pub fn product(&self, r: usize, j: usize) -> NodeId {
        self.mapper().product(r, j)
    }

    /// Partial sum of row `r` over products `0..=j` (`1 ≤ j ≤ b−1`).
    pub fn partial(&self, r: usize, j: usize) -> NodeId {
        self.mapper().partial(r, j)
    }

    /// Output `y_r`.
    pub fn output(&self, r: usize) -> NodeId {
        self.partial(r, self.b - 1)
    }
}

/// Node-id arithmetic shared between construction and accessors.
struct Mapper {
    n: usize,
    b: usize,
    rows: usize,
}

impl Mapper {
    fn vector(&self, t: usize) -> NodeId {
        debug_assert!((1..=self.n).contains(&t));
        NodeId((t - 1) as u32)
    }
    fn band(&self, r: usize, j: usize) -> NodeId {
        debug_assert!((1..=self.rows).contains(&r) && j < self.b);
        NodeId((self.n + (r - 1) * self.b + j) as u32)
    }
    fn product(&self, r: usize, j: usize) -> NodeId {
        debug_assert!((1..=self.rows).contains(&r) && j < self.b);
        NodeId((self.n + self.rows * self.b + (r - 1) * self.b + j) as u32)
    }
    fn partial(&self, r: usize, j: usize) -> NodeId {
        debug_assert!((1..=self.rows).contains(&r) && (1..self.b).contains(&j));
        NodeId((self.n + 2 * self.rows * self.b + (r - 1) * (self.b - 1) + j - 1) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn equal(n: usize, b: usize) -> BandedMvmGraph {
        BandedMvmGraph::new(n, b, WeightScheme::Equal(16)).unwrap()
    }

    #[test]
    fn rejects_bad_params() {
        assert!(BandedMvmGraph::new(4, 1, WeightScheme::Equal(16)).is_err());
        assert!(BandedMvmGraph::new(3, 4, WeightScheme::Equal(16)).is_err());
    }

    #[test]
    fn structure_of_5_3() {
        let g = equal(5, 3);
        let c = g.cdag();
        assert_eq!(g.rows(), 3);
        // 5 vector + 9 band + 9 products + 6 partials.
        assert_eq!(c.len(), 5 + 9 + 9 + 6);
        assert_eq!(c.sources().len(), 14);
        assert_eq!(c.sinks().len(), 3);
        // Row 2 reads x_2, x_3, x_4.
        assert_eq!(c.preds(g.product(2, 0)), &[g.vector(2), g.band(2, 0)]);
        assert_eq!(c.preds(g.product(2, 2)), &[g.vector(4), g.band(2, 2)]);
        // x_3 feeds three rows (window overlap).
        assert_eq!(c.out_degree(g.vector(3)), 3);
        // Band entries feed exactly one product.
        assert_eq!(c.out_degree(g.band(1, 1)), 1);
        // The output accumulates the whole row.
        assert_eq!(c.preds(g.output(2)), &[g.partial(2, 1), g.product(2, 2)]);
    }

    #[test]
    fn weights_follow_scheme() {
        let g = BandedMvmGraph::new(6, 3, WeightScheme::DoubleAccumulator(16)).unwrap();
        let c = g.cdag();
        for v in c.nodes() {
            let expected = if c.is_source(v) { 16 } else { 32 };
            assert_eq!(c.weight(v), expected);
        }
    }

    #[test]
    fn full_band_is_one_dense_row_set() {
        let g = equal(4, 4);
        assert_eq!(g.rows(), 1);
        assert_eq!(g.cdag().sinks(), vec![g.output(1)]);
    }
}
