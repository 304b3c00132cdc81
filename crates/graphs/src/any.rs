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
            Workload::Mvm { m: 4, n: 5 },
            Workload::Conv { n: 12, k: 3 },
            Workload::Dwt2d { n: 8, levels: 2 },
            Workload::Banded {
                n: 12,
                bandwidth: 2,
            },
        ];
        for w in workloads {
            let g = AnyGraph::build(w, scheme).unwrap_or_else(|e| panic!("{w}: {e}"));
            assert!(!g.cdag().is_empty(), "{w}");
            assert_eq!(g.name(), w.to_string());
            assert_eq!(g.scheme(), Some(scheme));
            assert!(check_layering(&g), "{w} layering violates the contract");
        }
    }

    #[test]
    fn invalid_params_error() {
        assert!(AnyGraph::build(Workload::Dwt { n: 10, d: 4 }, WeightScheme::Equal(16)).is_err());
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
