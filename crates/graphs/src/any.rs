//! [`AnyGraph`] — every workload family behind one type.
//!
//! The CLI, the sweep engine and the bench binaries all need "build the
//! graph this workload names, then treat it uniformly".  Historically each
//! carried its own private enum and dispatch; this module is the single
//! shared version.  [`Workload`] is the parameter record (what to build),
//! [`AnyGraph`] the built graph (what to schedule), and both implement the
//! operations downstream layers dispatch on: [`AnyGraph::cdag`],
//! [`AnyGraph::name`], [`AnyGraph::scheme`] and [`Layered`].

use crate::banded::BandedMvmGraph;
use crate::conv::ConvGraph;
use crate::dwt::DwtGraph;
use crate::dwt2d::Dwt2dGraph;
use crate::layered::{layering, Layered, LayeredCdag};
use crate::mvm::MvmGraph;
use crate::weights::WeightScheme;
use crate::ParamError;
use pebblyn_core::{Cdag, NodeId};
use std::fmt;

/// Parameters naming one workload instance (build with
/// [`AnyGraph::build`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// `DWT(n, d)` — 1-D discrete wavelet transform.
    Dwt {
        /// Number of input samples.
        n: usize,
        /// Decomposition levels.
        d: usize,
    },
    /// `MVM(m, n)` — dense matrix-vector multiplication.
    Mvm {
        /// Matrix rows.
        m: usize,
        /// Matrix columns.
        n: usize,
    },
    /// `Conv(n, k)` — 1-D convolution / FIR filter.
    Conv {
        /// Input samples.
        n: usize,
        /// Filter taps.
        k: usize,
    },
    /// Separable 2-D DWT over an `n × n` image.
    Dwt2d {
        /// Image side length.
        n: usize,
        /// Decomposition levels.
        levels: usize,
    },
    /// Banded matrix-vector multiplication with half-bandwidth `bandwidth`.
    Banded {
        /// Matrix dimension.
        n: usize,
        /// Half-bandwidth.
        bandwidth: usize,
    },
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Workload::Dwt { n, d } => write!(f, "DWT({n}, {d})"),
            Workload::Mvm { m, n } => write!(f, "MVM({m}, {n})"),
            Workload::Conv { n, k } => write!(f, "Conv({n}, {k})"),
            Workload::Dwt2d { n, levels } => write!(f, "DWT2D({n}x{n}, {levels} levels)"),
            Workload::Banded { n, bandwidth } => write!(f, "BandedMVM({n}, {bandwidth})"),
        }
    }
}

impl Workload {
    /// How many nodes [`AnyGraph::build`] creates for these parameters,
    /// from each family's closed form, or `None` when the count overflows
    /// `usize` or the parameters leave the formula's range.  It allocates
    /// nothing and takes at most 64 steps whatever the parameters, so a
    /// caller can size an untrusted spec before building it.
    pub fn node_count(&self) -> Option<usize> {
        match *self {
            // |S_1| = |S_2| = n, then each level halves: n + n + n/2 + …
            Workload::Dwt { n, d } => (0..u32::try_from(d).ok()?)
                .try_fold(n, |total, level| total.checked_add(n.checked_shr(level)?)),
            // Matrix and vector, the m·n products, then m accumulators per
            // column after the first.
            Workload::Mvm { m, n } => {
                let products = m.checked_mul(n)?;
                let accumulators = n.checked_sub(1)?.checked_mul(m)?;
                products
                    .checked_add(n)?
                    .checked_add(products)?
                    .checked_add(accumulators)
            }
            // Inputs, then k - 1 partial sums per output window.
            Workload::Conv { n, k } => {
                let outputs = n.checked_sub(k)?.checked_add(1)?;
                n.checked_add(outputs.checked_mul(k.checked_sub(1)?)?)
            }
            // Pixels, then per level 2·m² nodes on the current m×m LL grid.
            Workload::Dwt2d { n, levels } => {
                (0..u32::try_from(levels).ok()?).try_fold(n.checked_mul(n)?, |total, level| {
                    let m = n.checked_shr(level)?;
                    total.checked_add(m.checked_mul(m)?.checked_mul(2)?)
                })
            }
            // The vector, then per output row b band entries, b products
            // and b - 1 partial sums.
            Workload::Banded { n, bandwidth: b } => {
                let rows = n.checked_sub(b)?.checked_add(1)?;
                n.checked_add(rows.checked_mul(b.checked_mul(3)?.checked_sub(1)?)?)
            }
        }
    }

    /// [`Workload::node_count`] for parameters a family constructor has
    /// already validated, where `None` can only mean an overflow.
    pub(crate) fn checked_node_count(self) -> Result<usize, ParamError> {
        self.node_count()
            .ok_or_else(|| ParamError(format!("{self} has more nodes than usize can count")))
    }
}

/// Any workload graph, unified behind the operations schedulers and
/// sweeps need.
#[derive(Debug, Clone)]
pub enum AnyGraph {
    /// A 1-D DWT graph.
    Dwt(DwtGraph),
    /// A dense MVM graph.
    Mvm(MvmGraph),
    /// A 1-D convolution graph.
    Conv(ConvGraph),
    /// A separable 2-D DWT graph.
    Dwt2d(Dwt2dGraph),
    /// A banded MVM graph (layers computed on construction, since the
    /// underlying type does not carry them).
    Banded {
        /// The wrapped graph.
        graph: BandedMvmGraph,
        /// Longest-path layering of its CDAG.
        layers: Vec<Vec<NodeId>>,
    },
    /// An arbitrary CDAG under a caller-chosen name (test graphs, custom
    /// dataflows); layered by longest path.
    Custom {
        /// Display name, also part of the memo key.
        name: String,
        /// The wrapped graph plus its layering.
        graph: LayeredCdag,
    },
}

impl AnyGraph {
    /// Build the graph a [`Workload`] names under a weight scheme.
    pub fn build(w: Workload, scheme: WeightScheme) -> Result<Self, ParamError> {
        match w {
            Workload::Dwt { n, d } => DwtGraph::new(n, d, scheme).map(AnyGraph::Dwt),
            Workload::Mvm { m, n } => MvmGraph::new(m, n, scheme).map(AnyGraph::Mvm),
            Workload::Conv { n, k } => ConvGraph::new(n, k, scheme).map(AnyGraph::Conv),
            Workload::Dwt2d { n, levels } => {
                Dwt2dGraph::new(n, levels, scheme).map(AnyGraph::Dwt2d)
            }
            Workload::Banded { n, bandwidth } => {
                BandedMvmGraph::new(n, bandwidth, scheme).map(|graph| {
                    let layers = layering(graph.cdag());
                    AnyGraph::Banded { graph, layers }
                })
            }
        }
    }

    /// Wrap an arbitrary CDAG (layered by longest path) under a name.
    pub fn custom(name: impl Into<String>, cdag: Cdag) -> Self {
        AnyGraph::Custom {
            name: name.into(),
            graph: LayeredCdag::from_cdag(cdag),
        }
    }

    /// The underlying CDAG.
    pub fn cdag(&self) -> &Cdag {
        match self {
            AnyGraph::Dwt(g) => g.cdag(),
            AnyGraph::Mvm(g) => g.cdag(),
            AnyGraph::Conv(g) => g.cdag(),
            AnyGraph::Dwt2d(g) => g.cdag(),
            AnyGraph::Banded { graph, .. } => graph.cdag(),
            AnyGraph::Custom { graph, .. } => Layered::cdag(graph),
        }
    }

    /// Human-readable instance name, e.g. `DWT(256, 8)`.
    pub fn name(&self) -> String {
        match self {
            AnyGraph::Dwt(g) => format!("DWT({}, {})", g.n(), g.d()),
            AnyGraph::Mvm(g) => format!("MVM({}, {})", g.m(), g.n()),
            AnyGraph::Conv(g) => format!("Conv({}, {})", g.n(), g.k()),
            AnyGraph::Dwt2d(g) => format!("DWT2D({0}x{0}, {1} levels)", g.n(), g.levels()),
            AnyGraph::Banded { graph, .. } => {
                format!("BandedMVM({}, {})", graph.n(), graph.bandwidth())
            }
            AnyGraph::Custom { name, .. } => name.clone(),
        }
    }

    /// The weight scheme the graph was built with (`None` for custom
    /// CDAGs, whose weights are per-node).
    pub fn scheme(&self) -> Option<WeightScheme> {
        match self {
            AnyGraph::Dwt(g) => Some(g.scheme()),
            AnyGraph::Mvm(g) => Some(g.scheme()),
            AnyGraph::Conv(g) => Some(g.scheme()),
            AnyGraph::Dwt2d(g) => Some(g.scheme()),
            AnyGraph::Banded { graph, .. } => Some(graph.scheme()),
            AnyGraph::Custom { .. } => None,
        }
    }
}

impl Layered for AnyGraph {
    fn cdag(&self) -> &Cdag {
        AnyGraph::cdag(self)
    }
    fn layers(&self) -> &[Vec<NodeId>] {
        match self {
            AnyGraph::Dwt(g) => g.layers(),
            AnyGraph::Mvm(g) => g.layers(),
            AnyGraph::Conv(g) => g.layers(),
            AnyGraph::Dwt2d(g) => Layered::layers(g),
            AnyGraph::Banded { layers, .. } => layers,
            AnyGraph::Custom { graph, .. } => Layered::layers(graph),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layered::check_layering;

    #[test]
    fn builds_every_family() {
        let scheme = WeightScheme::Equal(16);
        let workloads = [
            Workload::Dwt { n: 16, d: 4 },
            Workload::Dwt { n: 24, d: 1 },
            Workload::Mvm { m: 4, n: 5 },
            Workload::Mvm { m: 2, n: 1 },
            Workload::Conv { n: 12, k: 3 },
            Workload::Conv { n: 5, k: 5 },
            Workload::Dwt2d { n: 8, levels: 2 },
            Workload::Dwt2d { n: 16, levels: 3 },
            Workload::Banded {
                n: 12,
                bandwidth: 2,
            },
            Workload::Banded { n: 6, bandwidth: 6 },
        ];
        for w in workloads {
            let g = AnyGraph::build(w, scheme).unwrap_or_else(|e| panic!("{w}: {e}"));
            assert!(!g.cdag().is_empty(), "{w}");
            assert_eq!(w.node_count(), Some(g.cdag().len()), "{w}");
            assert_eq!(g.name(), w.to_string());
            assert_eq!(g.scheme(), Some(scheme));
            assert!(check_layering(&g), "{w} layering violates the contract");
        }
    }

    #[test]
    fn invalid_params_error() {
        assert!(AnyGraph::build(Workload::Dwt { n: 10, d: 4 }, WeightScheme::Equal(16)).is_err());
        // A level count past 2^127 must not overflow the error message.
        assert!(AnyGraph::build(Workload::Dwt { n: 16, d: 200 }, WeightScheme::Equal(16)).is_err());
        // m·n + n overflows: a typed error before anything is allocated.
        let huge = Workload::Mvm { m: 1 << 62, n: 2 };
        assert_eq!(huge.node_count(), None);
        assert!(AnyGraph::build(huge, WeightScheme::Equal(16)).is_err());
    }

    #[test]
    fn custom_graphs_are_layered() {
        let diamond = crate::testgraphs::diamond(WeightScheme::Equal(8));
        let g = AnyGraph::custom("diamond", diamond);
        assert!(check_layering(&g));
        assert_eq!(g.scheme(), None);
        assert_eq!(g.name(), "diamond");
    }
}
