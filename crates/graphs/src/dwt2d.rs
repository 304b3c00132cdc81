//! Separable 2-D DWT graphs — image pipelines for the generic schedulers.
//!
//! BCI research systems also compress electrode-array *frames* (a 2-D grid
//! of channel samples) and spectrogram images; the standard tool is the
//! separable 2-D wavelet transform: one 1-D transform pass over the rows,
//! one over the columns, recursing on the LL (average/average) quadrant.
//! Unlike the 1-D `DWT(n, d)`, the column pass consumes values *across*
//! row transforms, so the graph is not a forest of trees — it exercises
//! the generic (Belady / layer-by-layer) schedulers rather than the tree
//! DPs, and its minimum memory is governed by how many row results must
//! stay live for the column pass.

use crate::weights::WeightScheme;
use crate::{ParamError, Workload};
use pebblyn_core::{Cdag, CdagBuilder, NodeId};

/// A separable `levels`-level 2-D DWT over an `n × n` image.
#[derive(Debug, Clone)]
pub struct Dwt2dGraph {
    cdag: Cdag,
    n: usize,
    levels: usize,
    scheme: WeightScheme,
    /// Pixel grid: `pixels[r][c]`.
    pixels: Vec<Vec<NodeId>>,
    /// Per level: the four quadrants after the column pass
    /// (`ll, lh, hl, hh`), each `m/2 × m/2` where `m` is the level's input
    /// size.
    quadrants: Vec<Quadrants>,
    layers: Vec<Vec<NodeId>>,
}

/// The four subbands produced by one 2-D level.
#[derive(Debug, Clone)]
pub struct Quadrants {
    /// Average/average — input to the next level (or final output).
    pub ll: Vec<Vec<NodeId>>,
    /// Average/detail.
    pub lh: Vec<Vec<NodeId>>,
    /// Detail/average.
    pub hl: Vec<Vec<NodeId>>,
    /// Detail/detail.
    pub hh: Vec<Vec<NodeId>>,
}

impl Dwt2dGraph {
    /// Build the graph.  Requires `n` a positive multiple of `2^levels`
    /// and `levels ≥ 1`.
    pub fn new(n: usize, levels: usize, scheme: WeightScheme) -> Result<Self, ParamError> {
        if levels < 1 {
            return Err(ParamError("2-D DWT needs levels >= 1".into()));
        }
        if levels >= usize::BITS as usize
            || n == 0
            || !n.is_multiple_of(1usize << levels)
            || n / (1 << levels) == 0
        {
            return Err(ParamError(format!(
                "2-D DWT size n={n} must be a positive multiple of 2^{levels} with nonzero LL"
            )));
        }
        let w_in = scheme.input_weight();
        let w_c = scheme.compute_weight();
        let mut b = CdagBuilder::with_capacity(Workload::Dwt2d { n, levels }.checked_node_count()?);
        let pixels: Vec<Vec<NodeId>> = (0..n)
            .map(|r| (0..n).map(|c| b.node(w_in, format!("px{r}_{c}"))).collect())
            .collect();

        let mut layers: Vec<Vec<NodeId>> = vec![pixels.iter().flatten().copied().collect()];
        let mut quadrants = Vec::with_capacity(levels);
        let mut grid = pixels.clone(); // current LL input, m x m
        for lvl in 1..=levels {
            let m = grid.len();
            let half = m / 2;
            // Row pass: each row -> L (averages) and H (coefficients),
            // both m x half.
            let mut row_l = vec![vec![NodeId(0); half]; m];
            let mut row_h = vec![vec![NodeId(0); half]; m];
            let mut row_layer = Vec::with_capacity(m * m);
            for r in 0..m {
                for t in 0..half {
                    let a = b.node(w_c, format!("rL{lvl}_{r}_{t}"));
                    let h = b.node(w_c, format!("rH{lvl}_{r}_{t}"));
                    for node in [a, h] {
                        b.edge(grid[r][2 * t], node);
                        b.edge(grid[r][2 * t + 1], node);
                    }
                    row_l[r][t] = a;
                    row_h[r][t] = h;
                    row_layer.push(a);
                    row_layer.push(h);
                }
            }
            layers.push(row_layer);
            // Column pass over both halves.
            let mut col = |src: &Vec<Vec<NodeId>>,
                           tag: &str|
             -> (Vec<Vec<NodeId>>, Vec<Vec<NodeId>>, Vec<NodeId>) {
                let mut avg = vec![vec![NodeId(0); half]; half];
                let mut det = vec![vec![NodeId(0); half]; half];
                let mut layer = Vec::with_capacity(2 * half * half);
                for t in 0..half {
                    for c in 0..half {
                        let a = b.node(w_c, format!("c{tag}a{lvl}_{t}_{c}"));
                        let d = b.node(w_c, format!("c{tag}d{lvl}_{t}_{c}"));
                        for node in [a, d] {
                            b.edge(src[2 * t][c], node);
                            b.edge(src[2 * t + 1][c], node);
                        }
                        avg[t][c] = a;
                        det[t][c] = d;
                        layer.push(a);
                        layer.push(d);
                    }
                }
                (avg, det, layer)
            };
            let (ll, lh, mut l_layer) = col(&row_l, "L");
            let (hl, hh, h_layer) = col(&row_h, "H");
            l_layer.extend(h_layer);
            layers.push(l_layer);
            quadrants.push(Quadrants {
                ll: ll.clone(),
                lh,
                hl,
                hh,
            });
            grid = ll;
        }

        let cdag = b
            .build()
            .map_err(|e| ParamError(format!("internal 2-D DWT error: {e}")))?;
        Ok(Dwt2dGraph {
            cdag,
            n,
            levels,
            scheme,
            pixels,
            quadrants,
            layers,
        })
    }

    /// The weight configuration the graph was built with.
    #[inline]
    pub fn scheme(&self) -> WeightScheme {
        self.scheme
    }

    /// The underlying CDAG.
    #[inline]
    pub fn cdag(&self) -> &Cdag {
        &self.cdag
    }

    /// Image side length.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Decomposition levels.
    #[inline]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Pixel `(row, col)`.
    pub fn pixel(&self, r: usize, c: usize) -> NodeId {
        self.pixels[r][c]
    }

    /// Quadrants of 1-based level `lvl`.
    pub fn level(&self, lvl: usize) -> &Quadrants {
        &self.quadrants[lvl - 1]
    }
}

impl crate::layered::Layered for Dwt2dGraph {
    fn cdag(&self) -> &Cdag {
        Dwt2dGraph::cdag(self)
    }
    fn layers(&self) -> &[Vec<NodeId>] {
        &self.layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layered::check_layering;

    #[test]
    fn structure_of_4x4_one_level() {
        let g = Dwt2dGraph::new(4, 1, WeightScheme::Equal(16)).unwrap();
        let c = g.cdag();
        // 16 pixels + row pass (16) + column pass (16).
        assert_eq!(c.len(), 48);
        // Outputs: LH + HL + HH + final LL = 4 quadrants of 2x2.
        assert_eq!(c.sinks().len(), 16);
        // Row average rL(0,0) consumes pixels (0,0) and (0,1) and feeds
        // two column nodes.
        let q = g.level(1);
        let row_avg_parents = c.preds(q.ll[0][0]);
        assert_eq!(row_avg_parents.len(), 2);
        // Column nodes consume vertically adjacent row results.
        assert!(check_layering(&g));
    }

    #[test]
    fn structure_of_8x8_two_levels() {
        let g = Dwt2dGraph::new(8, 2, WeightScheme::DoubleAccumulator(16)).unwrap();
        let c = g.cdag();
        // 64 px + L1 (64 + 64) + L2 (16 + 16).
        assert_eq!(c.len(), 64 + 128 + 32);
        // Sinks: L1 detail quadrants 3*16 + L2 all four quadrants 4*4.
        assert_eq!(c.sinks().len(), 48 + 16);
        // LL of level 1 feeds level 2 rows.
        let ll = g.level(1).ll[0][0];
        assert_eq!(c.out_degree(ll), 2);
        assert!(check_layering(&g));
    }

    #[test]
    fn rejects_bad_params() {
        assert!(Dwt2dGraph::new(6, 2, WeightScheme::Equal(8)).is_err());
        assert!(Dwt2dGraph::new(4, 0, WeightScheme::Equal(8)).is_err());
        assert!(Dwt2dGraph::new(2, 2, WeightScheme::Equal(8)).is_err()); // 2 % 4 != 0
    }

    #[test]
    fn minimal_ll_is_allowed() {
        // n = 4, levels = 2 leaves a 1x1 LL — the previous test expects a
        // rejection; confirm which way the constructor rules.
        let r = Dwt2dGraph::new(4, 2, WeightScheme::Equal(8));
        // 4 / 2^2 = 1, nonzero — so it builds.
        assert!(r.is_ok());
    }

    #[test]
    fn single_level_decomposes_into_blocks() {
        // One 2-D Haar level is a block transform: each 2x2 pixel block
        // independently produces one entry of each quadrant.
        let g = Dwt2dGraph::new(4, 1, WeightScheme::Equal(16)).unwrap();
        assert_eq!(g.cdag().weakly_connected_components().len(), 4);
        assert!(!g.cdag().is_in_tree());
    }

    #[test]
    fn multi_level_couples_blocks() {
        // Each extra level joins four lower-level blocks, so the component
        // count is (n / 2^levels)²: 8x8 with two levels leaves 4, and a
        // full decomposition (n = 2^levels) leaves a single component.
        let g = Dwt2dGraph::new(8, 2, WeightScheme::Equal(16)).unwrap();
        assert_eq!(g.cdag().weakly_connected_components().len(), 4);
        let full = Dwt2dGraph::new(4, 2, WeightScheme::Equal(16)).unwrap();
        assert_eq!(full.cdag().weakly_connected_components().len(), 1);
        // Every pixel feeds two row nodes (average + detail): reuse.
        assert_eq!(g.cdag().out_degree(g.pixel(0, 0)), 2);
    }
}
