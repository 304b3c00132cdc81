//! The shared schedule simulator behind greedy-belady (one processor)
//! and both multiprocessor schedulers.
//!
//! The schedulers are *assignment policies*: they decide which processor
//! computes each node and in what global order.  This module turns such
//! an `(assignment, order)` pair into a concrete, rule-respecting
//! [`MultiSchedule`]:
//!
//! * each active processor evicts through its own [`Belady`] kernel, whose
//!   next-use chain covers that processor's computes only; a value with
//!   no use left on a processor stays red there until it ages out as a
//!   furthest-key victim;
//! * a needed operand is acquired by the cheapest legal means: already
//!   red on the processor → free; blue → a load; red only on another
//!   processor → a [`MultiMove::Comm`] from the least-loaded holder
//!   (communication-aware source selection under the timing model);
//! * evicting a dirty value stores it first exactly when it is needed
//!   again on *some* processor (or is an unstored sink) and no other
//!   processor still holds it red — the invariant that every
//!   still-needed value stays recoverable (blue or red somewhere) is
//!   maintained, since recomputation is not a move of the game.
//!
//! Returns `None` when some node's operand set cannot fit inside its
//! assigned processor's budget — the multiprocessor analogue of the
//! single-processor schedulers' infeasibility.

use pebblyn_core::{Cdag, MachineSpec, MultiMove, MultiSchedule, NodeId, Weight};
use pebblyn_streaming::Belady;

/// Simulate per-processor Belady scheduling of `order` (a topological
/// order of the non-source nodes) with node-to-processor `assignment`
/// (indexed by `NodeId::index`; entries of source nodes are ignored).
///
/// Only processors `0..active` of `spec` are used; `assignment` entries
/// must be `< active`.
pub(crate) fn simulate(
    graph: &Cdag,
    spec: &MachineSpec,
    active: usize,
    assignment: &[usize],
    order: &[NodeId],
) -> Option<MultiSchedule> {
    simulate_with(graph, spec, active, assignment, order, false).map(|(s, _)| s)
}

/// [`simulate`], auditing every eviction when `audit` is set; also
/// returns the audit's violation count over all processors.
fn simulate_with(
    graph: &Cdag,
    spec: &MachineSpec,
    active: usize,
    assignment: &[usize],
    order: &[NodeId],
    audit: bool,
) -> Option<(MultiSchedule, u64)> {
    debug_assert!(active >= 1 && active <= spec.num_procs());
    let mut sim = Sim {
        graph,
        comm_price: spec.comm_price(),
        procs: (0..active)
            .map(|q| {
                let mine = order.iter().copied().filter(|v| assignment[v.index()] == q);
                Belady::new(graph, mine, spec.proc_budget(q), 0, audit)
            })
            .collect(),
        blue: graph.nodes().map(|v| graph.is_source(v)).collect(),
        clock: vec![0; active],
        moves: MultiSchedule::new(),
    };
    for &v in order {
        debug_assert!(!graph.is_source(v), "order lists computed nodes only");
        let q = assignment[v.index()];
        debug_assert!(q < active, "assignment targets an inactive processor");
        sim.compute(v, q)?;
    }
    // Stopping condition: every sink needs a blue copy.  A red-only sink
    // is stored from whichever processor still holds it (there is always
    // one — eviction never drops the last copy of a dirty sink).
    for &v in graph.sinks() {
        if !sim.blue[v.index()] {
            let holder = sim.procs.iter().position(|k| k.is_red(v))?;
            sim.store(holder, v);
        }
    }
    let violations = sim.procs.iter().map(Belady::audit_violations).sum();
    Some((sim.moves, violations))
}

struct Sim<'a> {
    graph: &'a Cdag,
    comm_price: Weight,
    /// One eviction kernel per active processor.
    procs: Vec<Belady<'a>>,
    /// Whether each value has a blue copy.
    blue: Vec<bool>,
    /// Per-processor finish-time estimates under the timing model; used
    /// to pick the cheapest communication source, not for validity, so
    /// they saturate rather than overflow.
    clock: Vec<Weight>,
    moves: MultiSchedule,
}

impl Sim<'_> {
    fn compute(&mut self, v: NodeId, q: usize) -> Option<()> {
        let graph = self.graph;
        let preds = graph.preds(v);
        self.procs[q].pin(preds);
        for &u in preds {
            if !self.procs[q].is_red(u) {
                self.acquire(q, u)?;
            }
        }
        self.make_room(q, graph.weight(v))?;
        self.moves.push(MultiMove::Compute { proc: q, node: v });
        self.clock[q] = self.clock[q].saturating_add(graph.weight(v));
        let k = &mut self.procs[q];
        k.admit(v);
        k.offer(v);
        // The operands' just-consumed uses are gone, so their keys grew;
        // grown keys must be offered eagerly (the kernel's lazy
        // revalidation can only shrink a stale entry's priority).
        for &u in preds {
            k.consume(u);
            k.offer(u);
        }
        k.finish_step();
        Some(())
    }

    /// Make `u` red on processor `q`: a load if blue, otherwise a
    /// communication from the least-loaded holder.
    fn acquire(&mut self, q: usize, u: NodeId) -> Option<()> {
        let w = self.graph.weight(u);
        self.make_room(q, w)?;
        if self.blue[u.index()] {
            self.moves.push(MultiMove::Load { proc: q, node: u });
            self.clock[q] = self.clock[q].saturating_add(w);
        } else {
            // Red on some other processor (the recoverability invariant).
            // Choose the sender with the smallest clock: the communication
            // synchronizes both endpoints, so the cheapest source is the
            // one that least delays the receiver.
            let sender = (0..self.procs.len())
                .filter(|&r| self.procs[r].is_red(u))
                .min_by_key(|&r| (self.clock[r], r));
            let Some(r) = sender else {
                debug_assert!(false, "value {u} neither blue nor red anywhere");
                return None;
            };
            self.moves.push(MultiMove::Comm {
                from: r,
                to: q,
                node: u,
            });
            let t = self.clock[r]
                .max(self.clock[q])
                .saturating_add(self.comm_price.saturating_mul(w));
            self.clock[r] = t;
            self.clock[q] = t;
        }
        self.procs[q].admit(u);
        self.procs[q].offer(u);
        Some(())
    }

    fn store(&mut self, q: usize, v: NodeId) {
        let w = self.graph.weight(v);
        self.moves.push(MultiMove::Store { proc: q, node: v });
        self.blue[v.index()] = true;
        self.clock[q] = self.clock[q].saturating_add(w);
    }

    /// Evict Belady victims on `q` until `need` more bits fit.  A dirty
    /// victim is stored first when it would otherwise be lost: still
    /// needed on some processor (or an unstored sink) and red nowhere
    /// else.
    fn make_room(&mut self, q: usize, need: Weight) -> Option<()> {
        while let Some(u) = self.procs[q].next_victim(need).ok()? {
            if !self.blue[u.index()]
                && !self.procs.iter().any(|k| k.is_red(u))
                && (self.graph.is_sink(u) || self.procs.iter().any(|k| k.needed_again(u)))
            {
                self.store(q, u);
            }
            self.moves.push(MultiMove::Delete { proc: q, node: u });
        }
        Some(())
    }
}

/// [`simulate`] with every eviction audited, also returning the
/// evictions that passed over a strictly better victim (0 in a correct
/// build).
#[cfg(test)]
pub(crate) fn simulate_audited(
    graph: &Cdag,
    spec: &MachineSpec,
    active: usize,
    assignment: &[usize],
    order: &[NodeId],
) -> Option<(MultiSchedule, u64)> {
    simulate_with(graph, spec, active, assignment, order, true)
}
