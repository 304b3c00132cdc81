//! The Belady eviction kernel: furthest-next-use victim selection for one
//! red set under a weighted budget.
//!
//! topo-window ([`crate::window`]) keeps one [`Belady`]; the schedule
//! simulator in `pebblyn-schedulers` keeps one per active processor, which
//! is how greedy-belady, partition-belady and comm-list evict.  It holds
//! a **next-use chain** (one backward sweep over the red set's compute
//! order, so advancing a next use is a sequential read), a packed 8-byte
//! **record** per node, a max-heap of `(next-use key, node)` **victims**
//! (revalidated lazily at pop time, pinned operands parked during an
//! eviction, stale entries compacted away) and an optional **audit**.
//!
//! The caller owns the moves: what to emit around an eviction, how an
//! operand becomes resident, and what becomes of a value at its last use
//! (left resident, it has the largest key and goes first).  Per compute
//! step, in the order the kernel was built from: [`Belady::pin`] the
//! operands, make the missing ones resident ([`Belady::next_victim`]
//! until they fit, then [`Belady::admit`] and [`Belady::offer`]),
//! compute, [`Belady::consume`] each operand in predecessor-slice order,
//! and [`Belady::finish_step`].
//!
//! Every resident keeps a heap entry keyed at least at its live key (each
//! consumption re-offers), so the popped maximum is the true Belady
//! victim: the largest `(live key, node)` among unpinned residents, ties
//! going to the larger node id.  The audit checks exactly that.

use std::collections::BinaryHeap;

use pebblyn_core::{Cdag, NodeId, Weight};

/// Key of a value with no remaining use in this red set.
const KEY_DEAD: u64 = u64::MAX;
/// Key of a value whose next use lies beyond the lookahead window.
const KEY_BEYOND: u64 = u64::MAX - 1;
/// Sentinel next-use position: no further use.
const NO_USE: u32 = u32::MAX;

const RED: u8 = 1;
const PINNED: u8 = 2;
/// Transient marker used only inside [`Belady::compact`].
const SEEN: u8 = 4;
/// The record bit left to the caller ([`Belady::mark`]).
const MARK: u8 = 8;

/// Compact the victim heap once it holds more than `COMPACT_FACTOR`
/// entries per resident: without this, graphs scheduled under ample
/// budgets (few evictions, so the heap is rarely drained) accumulate one
/// stale entry per consumed edge and pushes degrade to O(log E) with cold
/// cache lines.  Compaction is O(heap) and amortized O(1) per push.
const COMPACT_FACTOR: usize = 4;

/// One node's state, packed into 8 bytes.
#[derive(Clone, Copy)]
struct NodeRec {
    /// Next use position in the compute order ([`NO_USE`] = none).
    next: u32,
    /// RED / PINNED / SEEN / MARK bits.
    flags: u8,
}

const UNUSED: NodeRec = NodeRec {
    next: NO_USE,
    flags: 0,
};

/// The eviction key of a value next used at `next`, seen from compute
/// position `t`: the position itself, clamped to [`KEY_BEYOND`] past the
/// window (`0` = unbounded) and [`KEY_DEAD`] when no use remains.  Larger
/// keys are better victims.
#[inline]
fn key_of(next: u32, t: usize, window: usize) -> u64 {
    if next == NO_USE {
        return KEY_DEAD;
    }
    if window > 0 && u64::from(next) > (t as u64).saturating_add(window as u64) {
        KEY_BEYOND
    } else {
        u64::from(next)
    }
}

/// [`Belady::next_victim`] found only pinned residents left to evict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exhausted;

/// Belady eviction state for one red set (see the module docs).
pub struct Belady<'g> {
    graph: &'g Cdag,
    budget: Weight,
    window: usize,
    /// Evictions that passed over a strictly better victim, when auditing.
    audit: Option<u64>,
    /// Entry `k` is where the operand of the `k`-th use (in compute order,
    /// then predecessor-slice order) is used *next* ([`NO_USE`] = never).
    next_at: Vec<u32>,
    rec: Vec<NodeRec>,
    /// Current compute position, and its first use's index in `next_at`.
    step: usize,
    event: usize,
    red_weight: Weight,
    /// Residents; each has a heap entry, so compaction finds them there.
    red_count: usize,
    peak: Weight,
    victims: BinaryHeap<(u64, NodeId)>,
    /// Pinned entries popped by the current eviction, restored after it.
    parked: Vec<(u64, NodeId)>,
}

impl<'g> Belady<'g> {
    /// The kernel for a red set that computes `computes` (a topological
    /// order of non-source nodes, each computed once) under `budget`,
    /// distinguishing next uses at most `window` steps ahead (`0` =
    /// unbounded), and auditing every eviction when `audit` is set.
    pub fn new(
        graph: &'g Cdag,
        computes: impl DoubleEndedIterator<Item = NodeId>,
        budget: Weight,
        window: usize,
        audit: bool,
    ) -> Self {
        let mut rec = vec![UNUSED; graph.len()];
        // One backward sweep threads each operand's uses into a chain and
        // leaves every node's first use in `rec.next`; slots within a step
        // run in reverse, so consuming them forward ends on the first use
        // after the step.  Both numberings count down from bounds no red
        // set exceeds (edges, nodes), so no counting pass is needed: the
        // forward cursors start where the sweep stopped.
        let mut next_at = vec![NO_USE; graph.edge_count()];
        let (mut k, mut t) = (next_at.len(), graph.len());
        for v in computes.rev() {
            let preds = graph.preds(v);
            t -= 1;
            k -= preds.len();
            for i in (0..preds.len()).rev() {
                let p = preds[i].index();
                next_at[k + i] = rec[p].next;
                rec[p].next = t as u32;
            }
        }
        Self {
            graph,
            budget,
            window,
            audit: audit.then_some(0),
            next_at,
            rec,
            step: t,
            event: k,
            red_weight: 0,
            red_count: 0,
            peak: 0,
            victims: BinaryHeap::with_capacity(graph.len().min(1024)),
            parked: Vec::new(),
        }
    }

    /// Whether `u` is resident.
    #[inline]
    pub fn is_red(&self, u: NodeId) -> bool {
        self.rec[u.index()].flags & RED != 0
    }

    /// Whether this red set uses `u` again.
    #[inline]
    pub fn needed_again(&self, u: NodeId) -> bool {
        self.rec[u.index()].next != NO_USE
    }

    /// Whether `u` carries the caller's mark.
    #[inline]
    pub fn is_marked(&self, u: NodeId) -> bool {
        self.rec[u.index()].flags & MARK != 0
    }

    /// Set or clear the caller's mark on `u`: a record bit the kernel never
    /// reads, on `u`'s cache line (topo-window keeps its dirty bit there).
    #[inline]
    pub fn mark(&mut self, u: NodeId, on: bool) {
        let r = &mut self.rec[u.index()];
        r.flags = if on { r.flags | MARK } else { r.flags & !MARK };
    }

    /// Pin the current compute step's operands: none is chosen as a
    /// victim until [`Belady::consume`] unpins it.
    #[inline]
    pub fn pin(&mut self, operands: &[NodeId]) {
        for &u in operands {
            self.rec[u.index()].flags |= PINNED;
        }
    }

    /// Make `u` resident; it becomes a candidate once [`Belady::offer`]ed.
    #[inline]
    pub fn admit(&mut self, u: NodeId) {
        self.rec[u.index()].flags |= RED;
        self.red_weight += self.graph.weight(u);
        self.red_count += 1;
        self.peak = self.peak.max(self.red_weight);
    }

    /// Drop resident `u` from the red set.
    #[inline]
    pub fn release(&mut self, u: NodeId) {
        self.rec[u.index()].flags &= !RED;
        self.red_weight -= self.graph.weight(u);
        self.red_count -= 1;
    }

    /// Offer resident `u` as a victim candidate at its current key; call
    /// again whenever its next use moves (after [`Belady::consume`]).
    #[inline]
    pub fn offer(&mut self, u: NodeId) {
        let key = key_of(self.rec[u.index()].next, self.step, self.window);
        self.victims.push((key, u));
        if self.victims.len() > 64 && self.victims.len() > COMPACT_FACTOR * self.red_count {
            self.compact();
        }
    }

    /// Consume operand `u` of the current step: unpin it and advance its
    /// next use along the chain.  Returns whether this red set uses it again.
    #[inline]
    pub fn consume(&mut self, u: NodeId) -> bool {
        let next = self.next_at[self.event];
        self.event += 1;
        let r = &mut self.rec[u.index()];
        r.flags &= !PINNED;
        r.next = next;
        next != NO_USE
    }

    /// Close the current compute step.
    #[inline]
    pub fn finish_step(&mut self) {
        self.step += 1;
    }

    /// Make room for `need` more bits.  `Ok(None)` once they fit;
    /// otherwise the Belady victim — the unpinned resident with the
    /// largest `(key, node)` — is released and returned as `Ok(Some(u))`
    /// for the caller to emit its moves, and the caller asks again.
    /// `Err(Exhausted)` when only pinned residents remain.
    #[inline]
    pub fn next_victim(&mut self, need: Weight) -> Result<Option<NodeId>, Exhausted> {
        if self.red_weight + need <= self.budget {
            if !self.parked.is_empty() {
                self.victims.extend(self.parked.drain(..));
            }
            return Ok(None);
        }
        self.pop_victim().map(Some)
    }

    fn pop_victim(&mut self) -> Result<NodeId, Exhausted> {
        loop {
            let Some((k, u)) = self.victims.pop() else {
                self.victims.extend(self.parked.drain(..));
                return Err(Exhausted);
            };
            let r = self.rec[u.index()];
            if r.flags & RED == 0 {
                continue; // stale: already evicted
            }
            if r.flags & PINNED != 0 {
                self.parked.push((k, u));
                continue;
            }
            let live = key_of(r.next, self.step, self.window);
            if live > k {
                continue; // stale: a fresher entry with the larger key exists
            }
            if live < k {
                // The next use slid inside the window since this entry
                // was pushed; re-queue at its true (smaller) key.
                self.victims.push((live, u));
                continue;
            }
            if let Some(count) = self.audit {
                self.audit = Some(count + u64::from(self.better_victim(u, live)));
            }
            self.release(u);
            return Ok(u);
        }
    }

    /// Rebuild the heap with exactly one live-keyed entry per resident.
    fn compact(&mut self) {
        let old = std::mem::take(&mut self.victims).into_vec();
        let mut keep: Vec<(u64, NodeId)> = Vec::with_capacity(self.red_count);
        for (_, u) in old {
            // The SEEN bit dedups residents with several heap entries;
            // cleared again below.
            let r = &mut self.rec[u.index()];
            if r.flags & (RED | SEEN) == RED {
                r.flags |= SEEN;
                keep.push((key_of(r.next, self.step, self.window), u));
            }
        }
        for &(_, u) in &keep {
            self.rec[u.index()].flags &= !SEEN;
        }
        self.victims = BinaryHeap::from(keep);
    }

    /// Whether some other unpinned resident has a strictly larger live key
    /// than the victim — in particular, a value needed within the window
    /// must never go while a beyond-window or dead resident stays.
    fn better_victim(&self, victim: NodeId, victim_key: u64) -> bool {
        self.graph.nodes().any(|w| {
            let r = self.rec[w.index()];
            w != victim
                && r.flags & (RED | PINNED) == RED
                && key_of(r.next, self.step, self.window) > victim_key
        })
    }

    /// Peak resident weight so far, in bits.
    pub fn peak(&self) -> Weight {
        self.peak
    }

    /// Audited evictions that passed over a strictly better victim (0 in a
    /// correct build, and whenever the audit is off).
    pub fn audit_violations(&self) -> u64 {
        self.audit.unwrap_or(0)
    }
}
