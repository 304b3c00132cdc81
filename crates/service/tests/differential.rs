//! Differential conformance for the daemon: a seeded 500-request trace
//! answered twice, by a cache-enabled service and a cache-disabled
//! control, with every divergence a hard failure.
//!
//! The trace cycles 40 conformance-generated graphs through four request
//! variants: identical-label full solves, identical-label cost-only
//! probes, randomly relabeled isomorphs, and a second scheduler at the
//! same labels.  The acceptance bar (from the PR issue):
//!
//! * identical-label requests must produce **byte-identical** encoded
//!   responses (after normalizing the cache-hit flag) from both
//!   services — a cache hit is indistinguishable from a cold solve;
//! * relabeled requests must agree on cost with the control (`naive`'s
//!   cost is a pure function of structure) and their transported
//!   schedules must replay on the requester's labeling at that cost;
//! * the trace must actually exercise the cache: identity repeats
//!   guarantee hundreds of hits, and at least one relabeled isomorph
//!   must hit through exact canonicalization.

use pebblyn_conformance::metamorphic::{permute_nodes, random_perm};
use pebblyn_conformance::{generate, SplitRng};
use pebblyn_core::{validate_schedule, Cdag, ScheduleRequest};
use pebblyn_service::{wire, GraphSpec, Outcome, Request, Response, Service, ServiceConfig};

const TRACE_SEED: u64 = 0xC0FFEE;
const CASES: usize = 40;
const REQUESTS: usize = 500;

struct TraceItem {
    req: Request,
    graph: Cdag,
    relabeled: bool,
}

/// Deterministic request `i` of the trace.
fn trace_item(cases: &[Cdag], i: usize) -> TraceItem {
    let case = i % CASES;
    let cycle = i / CASES;
    let variant = cycle % 4;
    let g = &cases[case];
    let minb = pebblyn_core::min_feasible_budget(g);
    let budget = minb + g.total_weight() / 2;
    let (graph, scheduler, cost_only, relabeled) = match variant {
        0 => (g.clone(), "naive", false, false),
        1 => (g.clone(), "naive", true, false),
        2 => {
            let mut rng = SplitRng::for_case(TRACE_SEED ^ 0xA5A5, i as u64);
            let perm = random_perm(g.len(), &mut rng);
            (permute_nodes(g, &perm), "naive", false, true)
        }
        _ => (g.clone(), "greedy-belady", false, false),
    };
    TraceItem {
        req: Request {
            id: i as u64,
            ask: ScheduleRequest::new(GraphSpec::Custom(graph.clone()), budget, scheduler)
                .with_cost_only(cost_only),
            no_cache: false,
        },
        graph,
        relabeled,
    }
}

/// Encode with the cache-hit flag cleared, so cached and cold answers can
/// be compared byte for byte.
fn normalized_bytes(resp: &Response) -> Vec<u8> {
    let mut r = resp.clone();
    if let Outcome::Ok { cache_hit, .. } = &mut r.outcome {
        *cache_hit = false;
    }
    wire::encode_response(&r)
}

#[test]
fn cached_service_is_byte_equivalent_to_control_on_500_request_trace() {
    let cases: Vec<Cdag> = (0..CASES as u64)
        .map(|i| generate(TRACE_SEED, i).graph)
        .collect();
    let cached = Service::with_default_config();
    let control = Service::new(&ServiceConfig { cache: false });

    let mut relabeled_hits = 0u64;
    for i in 0..REQUESTS {
        let item = trace_item(&cases, i);
        let a = cached.handle(item.req.clone());
        let b = control.handle(item.req.clone());
        assert_eq!(a.id, b.id);

        let hit = matches!(
            a.outcome,
            Outcome::Ok {
                cache_hit: true,
                ..
            }
        );
        if item.relabeled {
            // Label-sensitive schedulers may emit different (equally
            // valid) moves for different labelings, so the contract here
            // is semantic: same cost, and a schedule that replays on the
            // requester's labeling at exactly that cost.
            match (&a.outcome, &b.outcome) {
                (
                    Outcome::Ok {
                        cost: ca,
                        schedule: sa,
                        ..
                    },
                    Outcome::Ok { cost: cb, .. },
                ) => {
                    assert_eq!(ca, cb, "request {i}: cached and control cost diverge");
                    let sched = sa.as_ref().expect("full request returns moves");
                    let stats = validate_schedule(&item.graph, item.req.ask.budget(), sched)
                        .unwrap_or_else(|e| {
                            panic!("request {i}: transported schedule invalid: {e}")
                        });
                    assert_eq!(stats.cost, *ca, "request {i}: replay cost mismatch");
                }
                (Outcome::Rejected { kind: ka, .. }, Outcome::Rejected { kind: kb, .. }) => {
                    assert_eq!(ka, kb, "request {i}: rejection kinds diverge")
                }
                (a, b) => panic!("request {i}: outcomes diverge: {a:?} vs {b:?}"),
            }
            if hit {
                relabeled_hits += 1;
            }
        } else {
            // Identical labels: the daemon's answer must be
            // indistinguishable from a cold solve, byte for byte.
            assert_eq!(
                normalized_bytes(&a),
                normalized_bytes(&b),
                "request {i}: cached response not byte-identical to control"
            );
        }
    }

    let stats = cached.cache().expect("cache enabled").stats();
    // Identity-label repeats alone guarantee hundreds of hits on this
    // trace shape (see the cycle structure in `trace_item`).
    assert!(
        stats.hits() >= 300,
        "expected >= 300 hits, got {} (misses {})",
        stats.hits(),
        stats.misses()
    );
    assert!(
        stats.misses() >= CASES as u64,
        "every first occurrence must miss"
    );
    assert!(
        relabeled_hits >= 1,
        "at least one relabeled isomorph must hit via exact canonicalization"
    );
    // The control service never touches a cache.
    assert!(control.cache().is_none());
}
