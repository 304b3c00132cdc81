//! Random weighted-CDAG generator families.
//!
//! Four shape families, chosen to cover the structure classes where the
//! schedulers' assumptions differ:
//!
//! * **chains** — the degenerate `k = 1` trees (interior nodes are free to
//!   pebble; only the ends cost),
//! * **random in-trees** — the k-ary DP's home turf, with independent
//!   per-node weights,
//! * **layered DAGs** — what the layer-by-layer baseline expects,
//! * **fan-in meshes** — general DAGs with shared operands and multiple
//!   sinks (diamond motifs composed at random), the class where
//!   red-blue-pebbling intuition is known to fail and which none of the
//!   structured generators in `tests/` produce.
//!
//! Every case is a pure function of `(master seed, case index)` via
//! [`SplitRng::for_case`], so any failure reproduces from the two printed
//! integers.  Cases alternate between two regimes: **exhaustive** (small
//! node counts and weights, so the exact solver can certify optimality)
//! and **invariant-only** (larger graphs checked against the game rules,
//! the replayer, and the metamorphic relations, but not the optimum).

use crate::rng::SplitRng;
use pebblyn_core::{Cdag, CdagBuilder, NodeId, Weight};
use pebblyn_graphs::{testgraphs, tree};
use rand::Rng;
use std::fmt;

/// The shape family of a generated case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// A weighted path graph.
    Chain,
    /// A random weighted in-tree (single sink, bounded in-degree).
    Tree,
    /// A random layered DAG (every non-input draws 1–2 parents from the
    /// previous layer).
    Layered,
    /// A random fan-in mesh: each new node joins 2–3 distinct earlier
    /// nodes, composing diamond/reconvergence motifs.
    Mesh,
}

impl Family {
    /// All families, in generation rotation order.
    pub const ALL: [Family; 4] = [Family::Chain, Family::Tree, Family::Layered, Family::Mesh];
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Family::Chain => "chain",
            Family::Tree => "tree",
            Family::Layered => "layered",
            Family::Mesh => "mesh",
        };
        write!(f, "{s}")
    }
}

/// Identity of one generated case: everything needed to regenerate it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseSpec {
    /// The harness master seed.
    pub seed: u64,
    /// The case index under that seed.
    pub index: u64,
}

impl fmt::Display for CaseSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "--seed {} (case {})", self.seed, self.index)
    }
}

/// A generated test case: the graph plus its provenance.
#[derive(Debug, Clone)]
pub struct TestCase {
    /// Where this case came from (reproduction coordinates).
    pub spec: CaseSpec,
    /// Shape family.
    pub family: Family,
    /// The generated weighted CDAG.
    pub graph: Cdag,
}

impl TestCase {
    /// One-line description: family, size, repro coordinates.
    pub fn label(&self) -> String {
        format!(
            "{}(n={}, e={}) {}",
            self.family,
            self.graph.len(),
            self.graph.edge_count(),
            self.spec
        )
    }
}

/// Size / weight limits for one generation regime.
#[derive(Debug, Clone, Copy)]
pub struct SizeProfile {
    /// Inclusive node-count band the generator aims for.
    pub min_nodes: usize,
    /// Upper node-count bound (hard: generators never exceed it).
    pub max_nodes: usize,
    /// Per-node weights are drawn from `1..=max_weight`.
    pub max_weight: Weight,
}

/// Small graphs + small weights: the exact solver can exhaust these.
///
/// The ceiling has moved with the solver: plain Dijkstra was practical to
/// 12 nodes, the bound-guided A\* (dominance pruning + macro moves) raised
/// it to 16, twin-orbit symmetry reduction on the mask-generic search to
/// 20, and the landmark/PDB lower-bound tier plus certified WL-orbit
/// generators raise it to 24 under the same 5M-state cap and CI wall-clock
/// guard.
pub const EXHAUSTIVE: SizeProfile = SizeProfile {
    min_nodes: 3,
    max_nodes: 24,
    max_weight: 3,
};

/// Larger graphs checked in invariant-only mode.  The 44-node ceiling
/// exercises the relation lattice well past the exhaustible band while
/// staying far under the 256-node `Words<4>` mask limit.
pub const INVARIANT: SizeProfile = SizeProfile {
    min_nodes: 25,
    max_nodes: 44,
    max_weight: 8,
};

/// Generate case `index` under `seed`.
///
/// Three out of four cases use the [`EXHAUSTIVE`] profile (differential
/// certification against the exact optimum is the harness's whole point);
/// every fourth stretches into [`INVARIANT`] sizes.
pub fn generate(seed: u64, index: u64) -> TestCase {
    let mut rng = SplitRng::for_case(seed, index);
    let profile = if index % 4 == 3 {
        INVARIANT
    } else {
        EXHAUSTIVE
    };
    let family = Family::ALL[(index % 4 + index / 4) as usize % 4];
    let graph = generate_shape(family, profile, &mut rng);
    TestCase {
        spec: CaseSpec { seed, index },
        family,
        graph,
    }
}

fn generate_shape(family: Family, p: SizeProfile, rng: &mut SplitRng) -> Cdag {
    match family {
        Family::Chain => chain(p, rng),
        Family::Tree => in_tree(p, rng),
        Family::Layered => layered(p, rng),
        Family::Mesh => mesh(p, rng),
    }
}

fn chain(p: SizeProfile, rng: &mut SplitRng) -> Cdag {
    let len = rng.gen_range(p.min_nodes.max(2)..=p.max_nodes);
    let mut b = CdagBuilder::with_capacity(len);
    let mut prev = b.node(rng.gen_range(1..=p.max_weight), "x0");
    for i in 1..len {
        let v = b.node(rng.gen_range(1..=p.max_weight), format!("x{i}"));
        b.edge(prev, v);
        prev = v;
    }
    b.build().expect("chain is structurally valid")
}

fn in_tree(p: SizeProfile, rng: &mut SplitRng) -> Cdag {
    // random_weighted_tree sizes by internal-node count and grows leaves on
    // demand; retry until the result lands under the profile's hard cap.
    // With internal <= max_nodes/3 and k <= 3 the first attempt almost
    // always fits.  A third of trees get uniform weights: that is the
    // regime where the k-ary DP is certifiably optimal
    // (contiguous-evaluation-safe), so the exact-equality relation stays
    // exercised alongside the free-weight trees that only get the >= bound.
    let k_max = rng.gen_range(1usize..=3);
    let weights = if rng.gen_bool(1.0 / 3.0) {
        let w = rng.gen_range(1..=p.max_weight);
        w..=w
    } else {
        1..=p.max_weight
    };
    loop {
        let internal = rng.gen_range(1usize..=(p.max_nodes / 3).max(1));
        let t = tree::random_weighted_tree(internal, k_max, weights.clone(), rng)
            .expect("tree parameters are in range");
        if t.len() <= p.max_nodes {
            return t;
        }
    }
}

fn layered(p: SizeProfile, rng: &mut SplitRng) -> Cdag {
    let layers = rng.gen_range(2usize..=4);
    let width = rng.gen_range(1usize..=(p.max_nodes / layers).max(1));
    testgraphs::random_layered_dag(layers, width, 1..=p.max_weight, rng)
        .expect("layered parameters are in range")
}

/// Fan-in mesh: start from a few sources; each subsequent node picks 2–3
/// distinct predecessors among all earlier nodes (biased toward recent
/// ones, which composes diamonds).  Earlier nodes left without a consumer
/// become extra sinks — legal as long as no node is isolated, which the
/// final patch-up guarantees.
fn mesh(p: SizeProfile, rng: &mut SplitRng) -> Cdag {
    let n = rng.gen_range(p.min_nodes.max(4)..=p.max_nodes);
    let n_sources = rng.gen_range(2usize..=(n / 2).max(2)).min(n - 1);
    let mut b = CdagBuilder::with_capacity(n);
    let ids: Vec<NodeId> = (0..n)
        .map(|i| b.node(rng.gen_range(1..=p.max_weight), format!("m{i}")))
        .collect();
    let mut has_succ = vec![false; n];
    for j in n_sources..n {
        let fan = rng.gen_range(2usize..=3).min(j);
        let mut picked: Vec<usize> = Vec::with_capacity(fan);
        while picked.len() < fan {
            // Square the uniform draw toward j so reconvergent diamonds on
            // recent nodes dominate over long-range edges.
            let r = rng.gen_range(0..j * j);
            let i = (r as f64).sqrt() as usize;
            let i = i.min(j - 1);
            if !picked.contains(&i) {
                picked.push(i);
            }
        }
        for &i in &picked {
            b.edge(ids[i], ids[j]);
            has_succ[i] = true;
        }
    }
    // Patch isolated prefixes: any non-final node without a consumer that
    // is also a source would be isolated; feed it to a later node it does
    // not already feed.
    for i in 0..n - 1 {
        if !has_succ[i] && i < n_sources {
            let j = rng.gen_range(i + 1..n);
            b.edge(ids[i], ids[j]);
            has_succ[i] = true;
        }
    }
    b.build()
        .expect("mesh construction keeps every node connected")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for idx in 0..16 {
            let a = generate(3, idx);
            let b = generate(3, idx);
            assert_eq!(a.graph, b.graph, "case {idx} not reproducible");
            assert_eq!(a.family, b.family);
        }
    }

    #[test]
    fn all_families_appear_and_respect_bounds() {
        let mut seen = std::collections::HashSet::new();
        for idx in 0..64 {
            let c = generate(7, idx);
            seen.insert(c.family);
            let cap = if idx % 4 == 3 {
                INVARIANT.max_nodes
            } else {
                EXHAUSTIVE.max_nodes
            };
            assert!(
                c.graph.len() <= cap,
                "case {idx} ({}) has {} nodes over cap {cap}",
                c.family,
                c.graph.len()
            );
        }
        assert_eq!(seen.len(), 4, "not all families generated: {seen:?}");
    }

    #[test]
    fn meshes_contain_reconvergence() {
        // At least some meshes must have a node with out-degree >= 2
        // (shared operands) — the whole point of the family.
        let mut found = false;
        for idx in 0..32 {
            let c = generate(11, idx);
            if c.family == Family::Mesh && c.graph.nodes().any(|v| c.graph.out_degree(v) >= 2) {
                found = true;
            }
        }
        assert!(found, "no mesh with shared operands in 32 cases");
    }
}
