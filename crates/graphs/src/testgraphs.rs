//! Auxiliary graph shapes: validation fodder for the schedulers/validator
//! and extension workloads beyond the paper's two benchmarks.

use crate::weights::WeightScheme;
use crate::ParamError;
use pebblyn_core::{Cdag, CdagBuilder, NodeId, Weight};
use rand::Rng;

/// The two-input/one-output "add" graph used throughout unit tests.
pub fn single_add(scheme: WeightScheme) -> Cdag {
    let mut b = CdagBuilder::new();
    let x = b.node(scheme.input_weight(), "x");
    let y = b.node(scheme.input_weight(), "y");
    let s = b.node(scheme.compute_weight(), "x+y");
    b.edge(x, s);
    b.edge(y, s);
    b.build().expect("single add is structurally valid")
}

/// A diamond with shared input:
/// `a, b → c`;  `b → d`;  `c, d → e` — the smallest graph with data reuse
/// (node `b` has out-degree 2).
pub fn diamond(scheme: WeightScheme) -> Cdag {
    let mut b = CdagBuilder::new();
    let a = b.node(scheme.input_weight(), "a");
    let bb = b.node(scheme.input_weight(), "b");
    let c = b.node(scheme.compute_weight(), "c");
    let d = b.node(scheme.compute_weight(), "d");
    let e = b.node(scheme.compute_weight(), "e");
    b.edge(a, c);
    b.edge(bb, c);
    b.edge(bb, d);
    b.edge(c, e);
    b.edge(d, e);
    b.build().expect("diamond is structurally valid")
}

/// A radix-2 FFT butterfly network on `n = 2^stages` points — the paper
/// motivates DWT as representative of FFT-like recursive dataflows; this
/// graph lets the generic schedulers be exercised on the real thing.
///
/// Every node of stage `s` has two parents from stage `s-1` (the classic
/// Cooley–Tukey wiring), and out-degree 2 except in the last stage.
pub fn fft_butterfly(stages: usize, scheme: WeightScheme) -> Result<Cdag, ParamError> {
    if !(1..=20).contains(&stages) {
        return Err(ParamError(format!(
            "fft butterfly needs 1 <= stages <= 20 (got {stages})"
        )));
    }
    let n = 1usize << stages;
    let mut b = CdagBuilder::new();
    let mut prev: Vec<NodeId> = (0..n)
        .map(|i| b.node(scheme.input_weight(), format!("x{i}")))
        .collect();
    for s in 0..stages {
        let half = 1usize << s;
        let cur: Vec<NodeId> = (0..n)
            .map(|i| b.node(scheme.compute_weight(), format!("f{}_{}", s + 1, i)))
            .collect();
        for (i, &v) in cur.iter().enumerate() {
            let partner = i ^ half;
            b.edge(prev[i], v);
            b.edge(prev[partner], v);
        }
        prev = cur;
    }
    b.build()
        .map_err(|e| ParamError(format!("internal FFT construction error: {e}")))
}

/// A 16-node reconvergent mesh: 4 sources feeding 12 interior joins, each
/// consuming its two predecessors plus a periodic long-range operand, so
/// diamonds stack and shared operands stay live across the frontier.  This
/// is the shape class the 16-node EXHAUSTIVE certification regime must
/// dispatch under the 5M-state cap; the exact-search bench races both
/// solvers on it, and tests pin the solver's counters against it.
pub fn reconvergent_mesh16() -> Cdag {
    let mut b = CdagBuilder::with_capacity(16);
    let ids: Vec<NodeId> = (0..16)
        .map(|i| b.node(1 + (i as Weight) % 2, format!("m{i}")))
        .collect();
    for j in 4..16 {
        b.edge(ids[j - 1], ids[j]);
        b.edge(ids[j - 4], ids[j]);
        if j % 3 == 0 {
            b.edge(ids[j - 3], ids[j]);
        }
    }
    b.build().expect("mesh is a connected DAG")
}

/// A chain of `k` unit-weight diamonds `a→{b,c}→d`, each diamond's exit
/// feeding the next diamond's entry: `4k` nodes total.  Every diamond's
/// midpoints are a twin orbit (identical predecessor and successor sets),
/// so the graph is the canonical symmetry-reduction witness; at `k = 18`
/// (72 nodes) it is also the bench instance that crosses the old 64-node
/// `u64` state-mask wall and exercises the `Words<2>` search.  Feasible at
/// budget 3 with optimal cost 2 (load the head source, store the tail
/// sink; every interior node is compute-only).
pub fn diamond_chain(k: usize) -> Cdag {
    let mut b = CdagBuilder::with_capacity(4 * k);
    let ids: Vec<NodeId> = (0..4 * k).map(|i| b.node(1, format!("d{i}"))).collect();
    for d in 0..k {
        let (a, m1, m2, z) = (ids[4 * d], ids[4 * d + 1], ids[4 * d + 2], ids[4 * d + 3]);
        b.edge(a, m1);
        b.edge(a, m2);
        b.edge(m1, z);
        b.edge(m2, z);
        if d + 1 < k {
            b.edge(z, ids[4 * d + 4]);
        }
    }
    b.build().expect("diamond chain is a connected DAG")
}

/// A random layered DAG: `layers` layers of `width` nodes; each non-input
/// node draws 1–2 parents from the previous layer.  Always yields a valid
/// CDAG (connected enough that no node is isolated).
pub fn random_layered_dag<R: Rng>(
    layers: usize,
    width: usize,
    w_range: std::ops::RangeInclusive<Weight>,
    rng: &mut R,
) -> Result<Cdag, ParamError> {
    if layers < 2 || width < 1 {
        return Err(ParamError(format!(
            "random layered DAG needs layers >= 2, width >= 1 (got {layers}, {width})"
        )));
    }
    let mut b = CdagBuilder::new();
    let mut prev: Vec<NodeId> = (0..width)
        .map(|i| b.node(rng.gen_range(w_range.clone()), format!("in{i}")))
        .collect();
    for l in 1..layers {
        let cur: Vec<NodeId> = (0..width)
            .map(|i| b.node(rng.gen_range(w_range.clone()), format!("v{l}_{i}")))
            .collect();
        // Every current node draws 1–2 distinct parents from the previous
        // layer; then any previous-layer node left unused is attached to a
        // random current node so no input ends up isolated.
        let mut parents: Vec<Vec<NodeId>> = vec![Vec::new(); cur.len()];
        for (i, _) in cur.iter().enumerate() {
            let p1 = prev[rng.gen_range(0..prev.len())];
            parents[i].push(p1);
            if prev.len() > 1 && rng.gen_bool(0.5) {
                let mut p2 = prev[rng.gen_range(0..prev.len())];
                while p2 == p1 {
                    p2 = prev[rng.gen_range(0..prev.len())];
                }
                parents[i].push(p2);
            }
        }
        for &p in &prev {
            if !parents.iter().any(|ps| ps.contains(&p)) {
                let i = rng.gen_range(0..cur.len());
                parents[i].push(p);
            }
        }
        for (i, &v) in cur.iter().enumerate() {
            for &p in &parents[i] {
                b.edge(p, v);
            }
        }
        prev = cur;
    }
    b.build()
        .map_err(|e| ParamError(format!("random layered DAG construction failed: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn single_add_and_diamond() {
        let g = single_add(WeightScheme::Equal(16));
        assert_eq!(g.len(), 3);
        let d = diamond(WeightScheme::DoubleAccumulator(16));
        assert_eq!(d.len(), 5);
        assert_eq!(d.out_degree(NodeId(1)), 2);
        assert_eq!(d.sinks().len(), 1);
    }

    #[test]
    fn fft_structure() {
        let g = fft_butterfly(3, WeightScheme::Equal(16)).unwrap();
        // 8 inputs + 3 stages of 8.
        assert_eq!(g.len(), 8 * 4);
        assert_eq!(g.sources().len(), 8);
        assert_eq!(g.sinks().len(), 8);
        for v in g.nodes() {
            if !g.is_source(v) {
                assert_eq!(g.in_degree(v), 2);
            }
        }
        assert!(fft_butterfly(0, WeightScheme::Equal(1)).is_err());
    }

    #[test]
    fn random_layered_dags_build() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..50 {
            let g = random_layered_dag(4, 5, 1..=8, &mut rng).unwrap();
            assert_eq!(g.len(), 20);
            assert!(g.edge_count() >= 15);
            assert_eq!(g.sources().len(), 5);
        }
    }
}
