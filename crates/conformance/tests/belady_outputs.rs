//! Byte-identity pins for the four schedulers that evict by Belady's rule
//! (furthest next use): greedy-belady and topo-window on the classic
//! single-processor game, partition-belady and comm-list on symmetric
//! machines of 1, 2 and 4 processors.
//!
//! Every move each scheduler emits over a fixed input set is folded into
//! one FNV-1a digest per scheduler — a seedless, platform-independent
//! hash over each move's tag byte, processor indices and little-endian
//! node id, with a marker byte for an infeasible answer and a terminator
//! per schedule.  The constants below were recorded when each of the
//! four still ran its own eviction loop, so any change to one move, its
//! order, or a feasibility verdict shows up here as a digest mismatch.
//!
//! Inputs: the first 200 cases of the conformance corpus at seed 17; the
//! nine conv shapes of the benchmark's serve-repeat trace (`perfbench/`,
//! without its size jitter); and one random layered DAG whose 1,600-wide
//! layers put next uses beyond topo-window's 1,024-step lookahead, so its
//! clamped "beyond the window" keys are exercised.
//! Budgets: the Proposition 2.3 minimum, the minimum plus half the total
//! weight (serve-repeat's budget), and the total weight.

use pebblyn_conformance::{generate, SplitRng};
use pebblyn_core::{min_feasible_budget, Cdag, MachineSpec, Move, MultiMove, Weight};
use pebblyn_graphs::testgraphs::random_layered_dag;
use pebblyn_graphs::{AnyGraph, ConvGraph, WeightScheme};
use pebblyn_schedulers::{by_name, ScheduleError, Scheduler};

const INFEASIBLE: u8 = 0xFF;
const END: u8 = 0xFE;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn word(&mut self, x: u32) {
        for b in x.to_le_bytes() {
            self.byte(b);
        }
    }
}

fn inputs() -> Vec<AnyGraph> {
    let mut graphs: Vec<Cdag> = (0..200).map(|i| generate(17, i).graph).collect();
    for i in (0..12usize).filter(|i| i % 4 != 3) {
        let conv = ConvGraph::new(192 + 4 * i, 8 + i % 3, WeightScheme::Equal(16))
            .expect("valid conv parameters");
        graphs.push(conv.cdag().clone());
    }
    let mut rng = SplitRng::for_case(17, 1 << 20);
    graphs.push(random_layered_dag(3, 1600, 1..=8, &mut rng).expect("valid layered DAG"));
    graphs
        .into_iter()
        .enumerate()
        .map(|(i, g)| AnyGraph::custom(format!("input-{i}"), g))
        .collect()
}

fn budgets(g: &Cdag) -> [Weight; 3] {
    let minb = min_feasible_budget(g);
    [minb, minb + g.total_weight() / 2, g.total_weight()]
}

fn scheduler(name: &str) -> &'static dyn Scheduler {
    by_name(name).unwrap_or_else(|| panic!("{name} is registered"))
}

/// Digest of `Scheduler::schedule` over every input and budget.
fn single_digest(name: &str) -> u64 {
    let s = scheduler(name);
    let mut h = Fnv::new();
    for g in inputs() {
        for b in budgets(g.cdag()) {
            match s.schedule(&g, b) {
                Ok(schedule) => {
                    for mv in schedule.iter() {
                        let (tag, node) = match mv {
                            Move::Load(v) => (0, v),
                            Move::Store(v) => (1, v),
                            Move::Compute(v) => (2, v),
                            Move::Delete(v) => (3, v),
                        };
                        h.byte(tag);
                        h.word(node.0);
                    }
                }
                Err(ScheduleError::InfeasibleBudget { .. }) => h.byte(INFEASIBLE),
                Err(e) => panic!("{name} on {} at {b}: {e}", g.name()),
            }
            h.byte(END);
        }
    }
    h.0
}

/// Digest of `Scheduler::schedule_multi` on symmetric machines of 1, 2 and
/// 4 processors over every input and budget.
fn multi_digest(name: &str) -> u64 {
    let s = scheduler(name);
    let mut h = Fnv::new();
    for g in inputs() {
        for b in budgets(g.cdag()) {
            for p in [1, 2, 4] {
                match s.schedule_multi(&g, &MachineSpec::symmetric(p, b)) {
                    Ok(schedule) => {
                        for mv in schedule.iter() {
                            let (tag, procs) = match mv {
                                MultiMove::Load { proc, .. } => (0, [proc, 0]),
                                MultiMove::Store { proc, .. } => (1, [proc, 0]),
                                MultiMove::Compute { proc, .. } => (2, [proc, 0]),
                                MultiMove::Delete { proc, .. } => (3, [proc, 0]),
                                MultiMove::Comm { from, to, .. } => (4, [from, to]),
                            };
                            h.byte(tag);
                            for q in procs {
                                h.word(q as u32);
                            }
                            h.word(mv.node().0);
                        }
                    }
                    Err(ScheduleError::InfeasibleBudget { .. }) => h.byte(INFEASIBLE),
                    Err(e) => panic!("{name} on {} at {b}, p={p}: {e}", g.name()),
                }
                h.byte(END);
            }
        }
    }
    h.0
}

const GREEDY_BELADY: u64 = 0x561a_7ad4_45d3_1ec0;
const TOPO_WINDOW: u64 = 0x60bf_6dd9_2d7a_6544;
const PARTITION_BELADY: u64 = 0xa436_64e9_2a62_ab36;
const COMM_LIST: u64 = 0x036c_fec7_84da_7322;

#[test]
fn greedy_belady_moves_are_pinned() {
    let got = single_digest("greedy-belady");
    assert_eq!(got, GREEDY_BELADY, "greedy-belady digest {got:#018x}");
}

#[test]
fn topo_window_moves_are_pinned() {
    let got = single_digest("topo-window");
    assert_eq!(got, TOPO_WINDOW, "topo-window digest {got:#018x}");
}

#[test]
fn partition_belady_moves_are_pinned() {
    let got = multi_digest("partition-belady");
    assert_eq!(got, PARTITION_BELADY, "partition-belady digest {got:#018x}");
}

#[test]
fn comm_list_moves_are_pinned() {
    let got = multi_digest("comm-list");
    assert_eq!(got, COMM_LIST, "comm-list digest {got:#018x}");
}
