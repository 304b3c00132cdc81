//! 1-D convolution (FIR filter) graphs — an extension workload.
//!
//! The paper motivates the DWT as representative of BCI filtering
//! pipelines ("DWT's recursive divide-and-conquer structure appears in
//! filters and fast Fourier transforms"); a direct FIR filter is the
//! simplest member of that family and, unlike the DWT, has *overlapping*
//! input windows: each input sample feeds up to `k` outputs, so schedules
//! must exploit data reuse (§4) to reach the algorithmic lower bound.
//!
//! `Conv(n, k)` computes the valid convolution of an `n`-sample signal
//! with a `k`-tap filter: `y_t = Σ_j h_j · x_{t+j}` for
//! `t = 1 … n−k+1`.  Filter coefficients are compile-time constants folded
//! into the operations (exactly as the DWT's `1/√2` factors are), so the
//! graph's sources are the signal samples only.  Each output is a left-deep
//! accumulation caterpillar over its window.

use crate::weights::WeightScheme;
use crate::{ParamError, Workload};
use pebblyn_core::{Cdag, CdagBuilder, NodeId};

/// A constructed `Conv(n, k)` graph with structural metadata.
#[derive(Debug, Clone)]
pub struct ConvGraph {
    cdag: Cdag,
    n: usize,
    k: usize,
    scheme: WeightScheme,
    layers: Vec<Vec<NodeId>>,
}

impl ConvGraph {
    /// Build `Conv(n, k)`: `n` samples filtered by `k` taps.
    ///
    /// Requires `2 ≤ k ≤ n`.
    pub fn new(n: usize, k: usize, scheme: WeightScheme) -> Result<Self, ParamError> {
        if k < 2 || k > n {
            return Err(ParamError(format!(
                "Conv needs 2 <= k <= n (got n={n}, k={k})"
            )));
        }
        let outputs = n - k + 1;
        let mut b = CdagBuilder::with_capacity(Workload::Conv { n, k }.checked_node_count()?);
        for t in 1..=n {
            b.node(scheme.input_weight(), format!("x{t}"));
        }
        // partial(t, j) accumulates taps 0..j of window t; stored layer by
        // layer (j = 2..=k), outputs are partial(t, k).
        for j in 2..=k {
            for t in 1..=outputs {
                b.node(scheme.compute_weight(), format!("p{t}_{j}"));
            }
        }

        let input = |t: usize| NodeId((t - 1) as u32);
        let partial = |t: usize, j: usize| NodeId((n + (j - 2) * outputs + t - 1) as u32);

        for t in 1..=outputs {
            b.edge(input(t), partial(t, 2));
            b.edge(input(t + 1), partial(t, 2));
            for j in 3..=k {
                b.edge(partial(t, j - 1), partial(t, j));
                b.edge(input(t + j - 1), partial(t, j));
            }
        }

        let cdag = b
            .build()
            .map_err(|e| ParamError(format!("internal Conv construction error: {e}")))?;
        let mut layers = Vec::with_capacity(k);
        layers.push((1..=n).map(input).collect());
        for j in 2..=k {
            layers.push((1..=outputs).map(|t| partial(t, j)).collect());
        }

        Ok(ConvGraph {
            cdag,
            n,
            k,
            scheme,
            layers,
        })
    }

    /// The underlying CDAG.
    #[inline]
    pub fn cdag(&self) -> &Cdag {
        &self.cdag
    }

    /// Signal length `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Filter length `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of outputs, `n − k + 1`.
    #[inline]
    pub fn outputs(&self) -> usize {
        self.n - self.k + 1
    }

    /// The weight scheme the graph was built with.
    #[inline]
    pub fn scheme(&self) -> WeightScheme {
        self.scheme
    }

    /// Input sample `x_t` (1-based).
    pub fn input(&self, t: usize) -> NodeId {
        debug_assert!((1..=self.n).contains(&t));
        NodeId((t - 1) as u32)
    }

    /// Partial sum of window `t` over taps `0..j` (`2 ≤ j ≤ k`).
    pub fn partial(&self, t: usize, j: usize) -> NodeId {
        debug_assert!((1..=self.outputs()).contains(&t));
        debug_assert!((2..=self.k).contains(&j));
        NodeId((self.n + (j - 2) * self.outputs() + t - 1) as u32)
    }

    /// Output `y_t = partial(t, k)`.
    pub fn output(&self, t: usize) -> NodeId {
        self.partial(t, self.k)
    }

    /// The layers `S_1 … S_k` (inputs first).
    #[inline]
    pub fn layers(&self) -> &[Vec<NodeId>] {
        &self.layers
    }
}

impl crate::layered::Layered for ConvGraph {
    fn cdag(&self) -> &Cdag {
        ConvGraph::cdag(self)
    }
    fn layers(&self) -> &[Vec<NodeId>] {
        ConvGraph::layers(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn equal(n: usize, k: usize) -> ConvGraph {
        ConvGraph::new(n, k, WeightScheme::Equal(16)).unwrap()
    }

    #[test]
    fn rejects_bad_params() {
        assert!(ConvGraph::new(4, 1, WeightScheme::Equal(16)).is_err());
        assert!(ConvGraph::new(3, 4, WeightScheme::Equal(16)).is_err());
    }

    #[test]
    fn structure_of_conv_5_3() {
        let g = equal(5, 3);
        let c = g.cdag();
        // 5 inputs + 2 layers of 3 partials.
        assert_eq!(c.len(), 5 + 3 + 3);
        assert_eq!(g.outputs(), 3);
        assert_eq!(c.sinks().len(), 3);
        assert_eq!(c.sources().len(), 5);
        // Window t = 2 touches inputs 2, 3, 4.
        assert_eq!(c.preds(g.partial(2, 2)), &[g.input(2), g.input(3)]);
        assert_eq!(c.preds(g.partial(2, 3)), &[g.partial(2, 2), g.input(4)]);
        // Overlap: input 3 feeds windows 1, 2 and 3.
        assert_eq!(c.out_degree(g.input(3)), 3);
    }

    #[test]
    fn two_tap_filter_is_dwt_like() {
        // k = 2 makes every output depend on exactly two adjacent inputs,
        // the same local structure as a single DWT level (without the
        // pairing): out-degree of interior inputs is 2.
        let g = equal(4, 2);
        let c = g.cdag();
        assert_eq!(c.len(), 4 + 3);
        assert_eq!(c.out_degree(g.input(2)), 2);
        assert_eq!(c.out_degree(g.input(1)), 1);
    }

    #[test]
    fn single_output_when_k_equals_n() {
        let g = equal(4, 4);
        assert_eq!(g.outputs(), 1);
        assert_eq!(g.cdag().sinks(), vec![g.output(1)]);
    }

    #[test]
    fn layers_are_valid() {
        let g = equal(8, 4);
        assert!(crate::layered::check_layering(&g));
    }

    #[test]
    fn weights_follow_scheme() {
        let g = ConvGraph::new(6, 3, WeightScheme::DoubleAccumulator(16)).unwrap();
        let c = g.cdag();
        for v in c.nodes() {
            let expected = if c.is_source(v) { 16 } else { 32 };
            assert_eq!(c.weight(v), expected);
        }
    }
}
