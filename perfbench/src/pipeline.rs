//! An in-process replica of the daemon's request path, timed layer by
//! layer.
//!
//! [`answer_frame`] follows `Service::answer` call for call — frame
//! decode, graph build, identity form, identity lookup, canonical form,
//! canonical lookup, solve, validate, insert, encode — through each
//! layer's public functions, with the solve/validate split of
//! `api::execute_with`.  A [`Tracer`] records a span around every call;
//! the drift guard in the serve workloads checks that the bytes this
//! produces equal the daemon's, so the decomposition cannot silently
//! diverge from the program it describes.

use pebblyn::prelude::*;
use pebblyn::service::canon::{
    canonical_form_with_budget, identity_form, CanonicalForm, DEFAULT_SEARCH_BUDGET,
};
use pebblyn::service::wire::{self, Frame};
use pebblyn::service::ScheduleCache;
use std::collections::BTreeMap;
use std::time::Instant;

/// A layer of the request path, as the benchmark names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `wire::read_frame` + `wire::decode_payload`.
    Decode,
    /// `AnyGraph::custom` / `AnyGraph::build`.
    Build,
    /// `canon::identity_form`.
    Identity,
    /// `canon::canonical_form_with_budget`.
    Canonical,
    /// `ScheduleCache::lookup_identity` / `lookup` (with transport).
    Lookup,
    /// `Scheduler::schedule` / `min_cost` / `schedule_multi`.
    Solve,
    /// `validate_schedule` / `validate_multi_schedule`.
    Validate,
    /// `ScheduleCache::insert_identity` + `insert`.
    Insert,
    /// `wire::encode_response`.
    Encode,
}

const LAYERS: usize = 9;

/// Per-layer span durations and counts.  With `on == false` no clock is
/// read and nothing is recorded: the untraced control pass.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    /// Span durations in ns, indexed by `Layer as usize`.
    pub spans: [Vec<u64>; LAYERS],
    /// Solve spans per scheduler name.
    pub solve_by: BTreeMap<String, Vec<u64>>,
    /// Sum of every span of each request, in ns.
    pub per_request: Vec<u64>,
    current: u64,
    /// Requests answered.
    pub requests: u64,
    /// Request frame bytes (with length prefix).
    pub request_bytes: u64,
    /// Response frame bytes (with length prefix).
    pub response_bytes: u64,
    /// Requests the cache participated in.
    pub cache_requests: u64,
    /// Identity-index hits.
    pub identity_hits: u64,
    /// Canonical forms computed, and how many were exact.
    pub canonical_calls: u64,
    /// Exact canonical forms.
    pub canonical_exact: u64,
    /// Canonical-index hits (each one a canonical form that paid off).
    pub canonical_hits: u64,
    /// Moves rewritten by canonical transport.
    pub transported_moves: u64,
    /// Moves produced by solves.
    pub moves_emitted: u64,
    /// Moves replayed by validation.
    pub validated_moves: u64,
}

impl Tracer {
    /// A tracer that records (`on`) or only counts outcomes (`!on`).
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            ..Tracer::default()
        }
    }

    /// Run `f` as one span of `layer`.
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.spans[layer as usize].push(ns);
        self.current += ns;
        r
    }

    /// The most recent span of `layer` (0 when untraced).
    fn last(&self, layer: Layer) -> u64 {
        self.spans[layer as usize].last().copied().unwrap_or(0)
    }

    /// Span samples of `layer` in µs.
    pub fn us(&self, layer: Layer) -> Vec<f64> {
        self.spans[layer as usize]
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect()
    }

    /// Total ns recorded for `layer`.
    pub fn total_ns(&self, layer: Layer) -> u64 {
        self.spans[layer as usize].iter().sum()
    }
}

/// Answer one length-prefixed request frame as the daemon would, and
/// return the encoded response payload.
pub fn answer_frame(cache: &ScheduleCache, tr: &mut Tracer, frame: &[u8]) -> Vec<u8> {
    tr.current = 0;
    tr.requests += 1;
    tr.request_bytes += frame.len() as u64;
    let decoded = tr.span(Layer::Decode, || {
        let payload = wire::read_frame(&mut &frame[..])
            .expect("in-memory read")
            .expect("generated frames are whole");
        wire::decode_payload(&payload)
    });
    let resp = match decoded {
        Ok(Frame::Request(req)) => answer(cache, tr, req),
        other => panic!("generated frame did not decode as a request: {other:?}"),
    };
    let payload = tr.span(Layer::Encode, || wire::encode_response(&resp));
    tr.response_bytes += 4 + payload.len() as u64;
    if tr.on {
        tr.per_request.push(tr.current);
    }
    payload
}

fn ok(
    id: u64,
    cost: Weight,
    makespan: Option<Weight>,
    comm: Option<Weight>,
    schedule: Option<Schedule>,
    hit: bool,
) -> Response {
    Response {
        id,
        outcome: Outcome::Ok {
            cost,
            schedule,
            cache_hit: hit,
            makespan,
            comm_cost: comm,
        },
    }
}

/// `Service::answer`, one layer call at a time.
fn answer(cache: &ScheduleCache, tr: &mut Tracer, req: Request) -> Response {
    let Request { id, ask, no_cache } = req;
    let machine = ask.machine().clone();
    let budget = ask.budget();
    let cost_only = ask.is_cost_only();
    let need_moves = !cost_only;
    let scheduler = ask.scheduler().to_owned();
    let graph = match tr.span(Layer::Build, || match ask.into_graph() {
        GraphSpec::Custom(cdag) => Ok(AnyGraph::custom("wire-custom", cdag)),
        GraphSpec::Workload { workload, scheme } => {
            AnyGraph::build(workload, scheme).map_err(|e| e.to_string())
        }
    }) {
        Ok(g) => g,
        Err(msg) => return Response::rejected(id, RejectKind::BadRequest, msg),
    };
    let resolved = api::by_name(&scheduler);
    let cache = Some(cache)
        .filter(|_| !no_cache && resolved.is_some_and(|s| s.supports_machine(&graph, &machine)));

    let ident = cache.map(|_| tr.span(Layer::Identity, || identity_form(graph.cdag())));
    if let (Some(cache), Some(ident)) = (cache, &ident) {
        tr.cache_requests += 1;
        let hit = tr.span(Layer::Lookup, || {
            cache.lookup_identity(ident, &scheduler, &machine, need_moves)
        });
        if let Some(hit) = hit {
            tr.identity_hits += 1;
            return ok(
                id,
                hit.cost,
                hit.makespan,
                hit.comm_cost,
                hit.schedule,
                true,
            );
        }
    }

    let form = cache
        .map(|_| {
            tr.canonical_calls += 1;
            tr.span(Layer::Canonical, || {
                canonical_form_with_budget(graph.cdag(), DEFAULT_SEARCH_BUDGET)
            })
        })
        .filter(CanonicalForm::is_exact);
    if form.is_some() {
        tr.canonical_exact += 1;
    }
    if let (Some(cache), Some(form)) = (cache, &form) {
        let hit = tr.span(Layer::Lookup, || {
            cache.lookup(form, &scheduler, &machine, need_moves)
        });
        if let Some(hit) = hit {
            tr.canonical_hits += 1;
            tr.transported_moves += hit.schedule.as_ref().map_or(0, |s| s.len() as u64);
            return ok(
                id,
                hit.cost,
                hit.makespan,
                hit.comm_cost,
                hit.schedule,
                true,
            );
        }
    }
    if let Some(cache) = cache {
        cache.record_miss();
    }

    let Some(s) = resolved else {
        let valid: Vec<&str> = registry().iter().map(|s| s.name()).collect();
        return Response::rejected(
            id,
            RejectKind::UnknownScheduler,
            format!(
                "unknown scheduler '{scheduler}' (valid: {})",
                valid.join(", ")
            ),
        );
    };
    let solved = execute_split(tr, s, &graph, &machine, cost_only);
    if let Some(samples) = tr.on.then(|| tr.last(Layer::Solve)) {
        tr.solve_by
            .entry(scheduler.clone())
            .or_default()
            .push(samples);
    }
    match solved {
        Ok((cost, makespan, comm, schedule)) => {
            if let Some(cache) = cache {
                let ident = ident.as_ref().expect("identity form accompanies cache");
                tr.span(Layer::Insert, || {
                    cache.insert_identity(
                        ident,
                        &scheduler,
                        &machine,
                        cost,
                        makespan,
                        comm,
                        schedule.as_ref(),
                    );
                    if let Some(form) = &form {
                        cache.insert(
                            form,
                            &scheduler,
                            &machine,
                            cost,
                            makespan,
                            comm,
                            schedule.as_ref(),
                        );
                    }
                });
            }
            ok(id, cost, makespan, comm, schedule, false)
        }
        Err(ScheduleError::Unsupported) => Response::rejected(
            id,
            RejectKind::Unsupported,
            format!("scheduler '{scheduler}' does not support {}", graph.name()),
        ),
        Err(ScheduleError::InfeasibleBudget { min_feasible }) => Response {
            id,
            outcome: Outcome::Rejected {
                kind: RejectKind::Infeasible,
                message: format!("budget {budget} infeasible for '{scheduler}'"),
                min_feasible,
            },
        },
        Err(e) => Response::rejected(id, RejectKind::ValidationFailed, e.to_string()),
    }
}

type Solved = (Weight, Option<Weight>, Option<Weight>, Option<Schedule>);

/// `api::execute_with`, with the solve and the replay as separate spans.
fn execute_split(
    tr: &mut Tracer,
    s: &dyn Scheduler,
    g: &AnyGraph,
    machine: &MachineSpec,
    cost_only: bool,
) -> Result<Solved, ScheduleError> {
    if let Some(budget) = machine.uniprocessor_budget() {
        if cost_only {
            let cost = tr.span(Layer::Solve, || s.min_cost(g, budget))?;
            return Ok((cost, None, None, None));
        }
        let schedule = tr.span(Layer::Solve, || s.schedule(g, budget))?;
        tr.moves_emitted += schedule.len() as u64;
        let stats = tr
            .span(Layer::Validate, || {
                validate_schedule(g.cdag(), budget, &schedule)
            })
            .map_err(ScheduleError::ValidationFailed)?;
        tr.validated_moves += schedule.len() as u64;
        return Ok((stats.cost, None, None, Some(schedule)));
    }
    if !s.supports_machine(g, machine) {
        return Err(ScheduleError::Unsupported);
    }
    let multi = tr.span(Layer::Solve, || s.schedule_multi(g, machine))?;
    tr.moves_emitted += multi.len() as u64;
    let stats = tr
        .span(Layer::Validate, || {
            validate_multi_schedule(g.cdag(), machine, &multi)
        })
        .map_err(ScheduleError::MultiValidationFailed)?;
    tr.validated_moves += multi.len() as u64;
    Ok((
        stats.total_cost(),
        Some(stats.makespan),
        Some(stats.comm_cost),
        None,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{ColdTrace, RepeatTrace, PER_GRAPH};
    use pebblyn::service::wire::{self, Frame};

    /// The replica answers byte-for-byte like `Service::handle`: misses,
    /// identity hits and canonical hits of one conv and one conformance
    /// graph from the repeat pool (sent twice), then cold requests.
    #[test]
    fn replica_matches_the_service() {
        let repeat = RepeatTrace::new(5);
        let mut cold = ColdTrace::new(5);
        let pool: Vec<&[u8]> = [0, 3]
            .iter()
            .flat_map(|g| &repeat.pool[g * PER_GRAPH..(g + 1) * PER_GRAPH])
            .map(|f| f.frame.as_slice())
            .collect();
        let cold: Vec<Vec<u8>> = (0..60).map(|_| cold.next_request().frame).collect();
        let frames = pool
            .iter()
            .chain(&pool)
            .copied()
            .chain(cold.iter().map(Vec::as_slice));
        let service = Service::with_default_config();
        let cache = ScheduleCache::new(16);
        let mut tr = Tracer::new(true);
        for (i, f) in frames.enumerate() {
            let payload = wire::read_frame(&mut &f[..]).unwrap().unwrap();
            let Ok(Frame::Request(req)) = wire::decode_payload(&payload) else {
                panic!("frame {i} is not a request")
            };
            let want = wire::encode_response(&service.handle(req));
            assert_eq!(answer_frame(&cache, &mut tr, f), want, "frame {i}");
        }
        assert!(
            tr.identity_hits > 0 && tr.canonical_hits > 0,
            "both cache levels answered"
        );
    }
}
