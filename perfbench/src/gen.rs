//! Seeded input generation.  Everything the program receives — request
//! frames, graphs, budgets — is a pure function of the workload seed.

use pebblyn::conformance::metamorphic::{permute_nodes, random_perm};
use pebblyn::conformance::{generate, SplitRng};
use pebblyn::prelude::*;
use pebblyn::service::wire;
use rand::Rng;
use std::collections::{HashMap, HashSet};

/// `items` in the order of a uniform random permutation drawn from `rng`.
fn shuffled<T: Copy>(items: &[T], rng: &mut SplitRng) -> Vec<T> {
    random_perm(items.len(), rng)
        .into_iter()
        .map(|i| items[i as usize])
        .collect()
}

/// A request with its length-prefixed wire frame.
#[derive(Debug, Clone)]
pub struct Framed {
    /// The typed request (kept for answer checks).
    pub request: Request,
    /// `len:u32` plus the encoded payload, written as one unit.
    pub frame: Vec<u8>,
}

impl Framed {
    fn new(request: Request) -> Self {
        let mut frame = Vec::new();
        wire::write_frame(&mut frame, &wire::encode_request(&request))
            .expect("writing to a Vec cannot fail");
        Framed { request, frame }
    }
}

/// The graph a request names, built as the daemon builds it.
pub fn build_graph(spec: &GraphSpec) -> AnyGraph {
    match spec {
        GraphSpec::Custom(cdag) => AnyGraph::custom("wire-custom", cdag.clone()),
        GraphSpec::Workload { workload, scheme } => {
            AnyGraph::build(*workload, *scheme).expect("generated workload parameters are valid")
        }
    }
}

// ------------------------------------------------------------ serve-repeat

/// Unique graphs in the serve-repeat pool (loadgen's default).
pub const REPEAT_GRAPHS: usize = 12;
/// Relabeled isomorphs per unique graph.
pub const RELABELS: usize = 2;
/// Pool entries per unique graph: full, cost-only, then the relabels.
pub const PER_GRAPH: usize = 2 + RELABELS;
/// The conformance-corpus seed of serve-repeat's generated graphs
/// (loadgen's default).
const CORPUS_SEED: u64 = 0x10AD_6E4E;

/// How a pool entry presents its unique graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The graph under its own labels, full schedule requested.
    Full,
    /// The graph under its own labels, cost only.
    CostOnly,
    /// A relabeled isomorph, full schedule requested.
    Relabel(usize),
}

/// The serve-repeat inputs: unique graphs and the fixed pool of request
/// frames every timed request is drawn from.
pub struct RepeatTrace {
    /// The unique graphs (loadgen shape: mid-size conv CDAGs, every
    /// fourth one conformance-generated).
    pub graphs: Vec<Cdag>,
    /// `pool[g * PER_GRAPH + k]`: graph `g`, variant `k` (see
    /// [`RepeatTrace::variant`]).  A pool entry's request id is its index,
    /// so equal requests are equal frames and earn equal responses.
    pub pool: Vec<Framed>,
}

impl RepeatTrace {
    /// Generate the pool for `seed`.  The conformance graphs come from
    /// loadgen's fixed corpus seed, so the seed moves only conv sizes,
    /// relabelings and order, and `io_gap` stays comparable across seeds.
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitRng::for_case(seed, 1);
        let graphs: Vec<Cdag> = (0..REPEAT_GRAPHS)
            .map(|i| {
                if i % 4 == 3 {
                    generate(CORPUS_SEED, i as u64).graph
                } else {
                    let n = 192 + 4 * i + rng.gen_range(0..=3usize);
                    let k = 8 + i % 3;
                    ConvGraph::new(n, k, WeightScheme::Equal(16))
                        .expect("valid conv parameters")
                        .cdag()
                        .clone()
                }
            })
            .collect();
        let mut pool = Vec::with_capacity(graphs.len() * PER_GRAPH);
        for (gi, g) in graphs.iter().enumerate() {
            let budget = min_feasible_budget(g) + g.total_weight() / 2;
            for k in 0..PER_GRAPH {
                let (graph, cost_only) = match Self::variant(k) {
                    Variant::Full => (g.clone(), false),
                    Variant::CostOnly => (g.clone(), true),
                    Variant::Relabel(r) => {
                        let mut prng =
                            SplitRng::for_case(seed ^ 0x5EED, (gi * RELABELS + r) as u64);
                        (permute_nodes(g, &random_perm(g.len(), &mut prng)), false)
                    }
                };
                pool.push(Framed::new(Request {
                    id: pool.len() as u64,
                    ask: ScheduleRequest::new(GraphSpec::Custom(graph), budget, "greedy-belady")
                        .with_cost_only(cost_only),
                    no_cache: false,
                }));
            }
        }
        RepeatTrace { graphs, pool }
    }

    /// The variant of pool slot `k` within its graph's block.
    pub fn variant(k: usize) -> Variant {
        match k {
            0 => Variant::Full,
            1 => Variant::CostOnly,
            r => Variant::Relabel(r - 2),
        }
    }

    /// The timed request sequence, in blocks that each send every graph
    /// in loadgen's mix: twice as a byte-identical full repeat, once as a
    /// cost-only probe and once as a relabeled isomorph, shuffled.  The
    /// fixed per-block mix keeps the seed from moving the work per
    /// request.
    pub fn sequence(seed: u64) -> impl Iterator<Item = usize> {
        let mut rng = SplitRng::for_case(seed, 2);
        let mut block: Vec<usize> = Vec::new();
        let mut round = 0;
        std::iter::from_fn(move || {
            if block.is_empty() {
                let mut mix = Vec::with_capacity(REPEAT_GRAPHS * 4);
                for g in 0..REPEAT_GRAPHS {
                    let slot = |k| g * PER_GRAPH + k;
                    mix.extend([0, 0, 1].map(slot));
                    mix.push(slot(2 + (round + g) % RELABELS));
                }
                block = shuffled(&mix, &mut rng);
                round += 1;
            }
            block.pop()
        })
    }
}

// -------------------------------------------------------------- serve-cold

/// The paper's workload-specific schedulers, sent as workload specs.
const SPEC_SCHEDULERS: [&str; 5] = [
    "dwt-opt",
    "mvm-tiling",
    "conv-stream",
    "banded-stream",
    "layer-by-layer",
];

/// One kind of serve-cold request.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// A custom conv CDAG on `greedy-belady`.
    Custom,
    /// A workload spec for one of [`SPEC_SCHEDULERS`].
    Spec(&'static str),
    /// A conv spec for a multiprocessor scheduler on `p` processors.
    Multi(&'static str, usize),
}

/// One block of the serve-cold stream: 8 custom requests, 2 per spec
/// scheduler and 2 per (multiprocessor scheduler, p) pair, each kind half
/// cost-only.  Fixed proportions keep the seed from moving the mix.
fn cold_block() -> Vec<(Kind, bool)> {
    let mut kinds: Vec<Kind> = vec![Kind::Custom; 8];
    for s in SPEC_SCHEDULERS {
        kinds.extend([Kind::Spec(s); 2]);
    }
    for s in ["partition-belady", "comm-list"] {
        for p in [2, 4] {
            kinds.extend([Kind::Multi(s, p); 2]);
        }
    }
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, k)| (k, i % 2 == 0))
        .collect()
}

/// Size strata per scheduler: successive requests to one scheduler take
/// their graph size from successive eighths of its range, so every run
/// holds the same spread of sizes and the seed moves the tail little.
const STRATA: usize = 8;

/// An endless stream of requests, each unique in (graph, machine,
/// scheduler), so the daemon's cache never answers.
pub struct ColdTrace {
    rng: SplitRng,
    block: Vec<(Kind, bool)>,
    strata: HashMap<&'static str, usize>,
    seen: HashSet<String>,
    next_id: u64,
}

impl ColdTrace {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        ColdTrace {
            rng: SplitRng::for_case(seed, 3),
            block: Vec::new(),
            strata: HashMap::new(),
            seen: HashSet::new(),
            next_id: 0,
        }
    }

    fn scheme(&mut self) -> WeightScheme {
        match self.rng.gen_range(0..4) {
            0 => WeightScheme::Equal(8),
            1 => WeightScheme::Equal(16),
            2 => WeightScheme::Equal(32),
            _ => WeightScheme::DoubleAccumulator(16),
        }
    }

    /// A draw from stratum `s` of `lo..=hi`.
    fn sized(&mut self, s: usize, lo: usize, hi: usize) -> usize {
        let width = hi - lo + 1;
        let (from, to) = (lo + width * s / STRATA, lo + width * (s + 1) / STRATA);
        self.rng.gen_range(from..to.max(from + 1))
    }

    fn workload_for(&mut self, scheduler: &str, s: usize) -> Workload {
        let family = match scheduler {
            "dwt-opt" => 0,
            "mvm-tiling" => 1,
            "conv-stream" => 2,
            "banded-stream" => 3,
            _ => self.rng.gen_range(0..4),
        };
        match family {
            0 => Workload::Dwt {
                n: 1 << (5 + s % 4),
                d: self.rng.gen_range(1..=4),
            },
            // Canonical forms of MVM graphs grow factorially in the row
            // count (MVM(6, 12) takes ~0.6 s, MVM(8, 12) ~1.3 s), so
            // rows stay at most 4.
            1 => Workload::Mvm {
                m: 2 + s % 3,
                n: self.sized(s, 2, 16),
            },
            2 => Workload::Conv {
                n: self.sized(s, 48, 192),
                k: self.rng.gen_range(3..=8),
            },
            _ => Workload::Banded {
                n: self.sized(s, 32, 96),
                bandwidth: self.rng.gen_range(2..=6),
            },
        }
    }

    /// A budget above the Prop 2.3 minimum by `words` of the heaviest
    /// node (room the tiling and streaming schedulers need beyond the
    /// game's minimum) plus a random share of half the graph's weight.
    fn budget(&mut self, g: &Cdag, words: usize) -> Weight {
        let heaviest = g.nodes().map(|v| g.weight(v)).max().unwrap_or(0);
        let slack = g.total_weight() / 2;
        min_feasible_budget(g)
            + words as Weight * heaviest
            + slack * (1 + self.rng.gen_range(0..64 as Weight)) / 64
    }

    /// A candidate request of `kind` in size stratum `s`, or `None` for
    /// parameters the scheduler does not take (the caller draws again).
    fn candidate(
        &mut self,
        kind: Kind,
        s: usize,
    ) -> Option<(GraphSpec, MachineSpec, &'static str)> {
        Some(match kind {
            Kind::Custom => {
                let (n, k) = (self.sized(s, 48, 160), self.rng.gen_range(3..=8));
                let scheme = self.scheme();
                let cdag = ConvGraph::new(n, k, scheme)
                    .expect("valid conv parameters")
                    .cdag()
                    .clone();
                let budget = self.budget(&cdag, 2);
                (
                    GraphSpec::Custom(cdag),
                    MachineSpec::uniprocessor(budget),
                    "greedy-belady",
                )
            }
            Kind::Spec(scheduler) => {
                let workload = self.workload_for(scheduler, s);
                let scheme = self.scheme();
                let g = AnyGraph::build(workload, scheme).ok()?;
                if !api::by_name(scheduler).is_some_and(|s| s.supports(&g)) {
                    return None;
                }
                // The streaming schedulers hold a window of the input.
                let words = match workload {
                    Workload::Conv { k, .. } => k + 2,
                    Workload::Banded { bandwidth, .. } => 2 * bandwidth + 3,
                    _ => 2,
                };
                let budget = self.budget(g.cdag(), words);
                (
                    GraphSpec::Workload { workload, scheme },
                    MachineSpec::uniprocessor(budget),
                    scheduler,
                )
            }
            Kind::Multi(scheduler, procs) => {
                let workload = Workload::Conv {
                    n: self.sized(s, 48, 128),
                    k: self.rng.gen_range(3..=6),
                };
                let scheme = self.scheme();
                let g = AnyGraph::build(workload, scheme).ok()?;
                let budget = self.budget(g.cdag(), 2);
                (
                    GraphSpec::Workload { workload, scheme },
                    MachineSpec::symmetric(procs, budget),
                    scheduler,
                )
            }
        })
    }

    /// The next unique request.
    pub fn next_request(&mut self) -> Framed {
        if self.block.is_empty() {
            self.block = shuffled(&cold_block(), &mut self.rng);
        }
        let (kind, cost_only) = self.block.pop().expect("refilled above");
        let key = match kind {
            Kind::Custom => "greedy-belady",
            Kind::Spec(s) | Kind::Multi(s, _) => s,
        };
        let count = self.strata.entry(key).or_default();
        let stratum = *count % STRATA;
        *count += 1;
        for _ in 0..100_000 {
            let Some((spec, machine, scheduler)) = self.candidate(kind, stratum) else {
                continue;
            };
            // One key per (graph, machine, scheduler): a custom conv and
            // the same conv sent as a spec are one graph to the cache.
            let graph_key = match &spec {
                GraphSpec::Custom(c) => {
                    format!("conv{}:{}:{}", c.len(), c.edge_count(), c.total_weight())
                }
                GraphSpec::Workload { workload, scheme } => match workload {
                    Workload::Conv { n, k } => {
                        let g = ConvGraph::new(*n, *k, *scheme).expect("valid conv parameters");
                        let c = g.cdag();
                        format!("conv{}:{}:{}", c.len(), c.edge_count(), c.total_weight())
                    }
                    w => format!("{w:?}/{scheme:?}"),
                },
            };
            if !self
                .seen
                .insert(format!("{graph_key}|{machine:?}|{scheduler}"))
            {
                continue;
            }
            let id = self.next_id;
            self.next_id += 1;
            return Framed::new(Request {
                id,
                ask: ScheduleRequest::new(spec, machine, scheduler).with_cost_only(cost_only),
                no_cache: false,
            });
        }
        panic!("no unused {kind:?} request left to draw");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repeat_frames(seed: u64) -> Vec<Vec<u8>> {
        let t = RepeatTrace::new(seed);
        let mut frames: Vec<Vec<u8>> = t.pool.iter().map(|f| f.frame.clone()).collect();
        frames.extend(
            RepeatTrace::sequence(seed)
                .take(200)
                .map(|i| t.pool[i].frame.clone()),
        );
        frames
    }

    fn cold_frames(seed: u64) -> Vec<Vec<u8>> {
        let mut t = ColdTrace::new(seed);
        (0..200).map(|_| t.next_request().frame).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_frames() {
        assert_eq!(repeat_frames(7), repeat_frames(7));
        assert_eq!(cold_frames(7), cold_frames(7));
    }

    /// Every generated cold request is one the executor answers.
    #[test]
    fn cold_requests_are_feasible() {
        for seed in [1, 2] {
            let mut t = ColdTrace::new(seed);
            for i in 0..150 {
                let ask = t.next_request().request.ask;
                let g = build_graph(ask.graph());
                let req = ScheduleRequest::new(&g, ask.machine().clone(), ask.scheduler())
                    .with_cost_only(ask.is_cost_only());
                if let Err(e) = api::execute(&req) {
                    panic!("seed {seed} request {i} ({}): {e}", ask.scheduler());
                }
            }
        }
    }

    #[test]
    fn different_seeds_give_different_frames() {
        assert_ne!(repeat_frames(7), repeat_frames(8));
        assert_ne!(cold_frames(7), cold_frames(8));
    }
}
