//! The daemon-side request handler: cache in front, engine behind.
//!
//! [`Service::handle`] is the single synchronous entry point shared by
//! every transport (stdio framing, unix socket, an in-process
//! [`Server`](crate::Server)): decode-free typed [`Request`] in, typed
//! [`Response`] out.  The handler builds the graph and consults the
//! [`ScheduleCache`] in two steps — the `O(V + E)` identity form first
//! (byte-identical repeats, the dominant pattern, skip canonicalization
//! entirely), the canonical form only on identity miss — and only on a
//! full miss pays for a real solve through
//! `pebblyn_schedulers::api::execute`, the same executor the CLI and the
//! sweep engine use.  Requests whose scheduler is unknown or does not
//! support the graph bypass the cache: the cache must never answer where
//! the executor would reject.

use crate::cache::ScheduleCache;
use crate::canon::{canonical_form, identity_form, CanonicalForm};
use crate::wire::MAX_ITEMS;
use pebblyn_core::{Cdag, Schedule, ScheduleRequest, Weight};
use pebblyn_graphs::{AnyGraph, WeightScheme, Workload};
use pebblyn_schedulers::api;
use pebblyn_schedulers::{ExecuteError, ScheduleError};
use pebblyn_telemetry::{self as telemetry, Counter, Gauge};
use std::time::Instant;

/// The graph payload of a service request: either explicit structure or
/// the parameters of a named workload family (cheaper on the wire, and
/// the form under which typed schedulers like `dwt-opt` apply).
#[derive(Debug, Clone)]
pub enum GraphSpec {
    /// An explicit CDAG.
    Custom(Cdag),
    /// A workload family instance to build server-side.
    Workload {
        /// Which family and size.
        workload: Workload,
        /// Node-weight configuration.
        scheme: WeightScheme,
    },
}

impl GraphSpec {
    /// Build the workload-erased graph, consuming the spec: explicit
    /// CDAGs move in without a copy (the handler owns its request, and
    /// graph cloning would otherwise dominate a cache hit's latency).  A
    /// workload spec is sized before anything is allocated: more nodes
    /// than a custom graph's frame may carry ([`MAX_ITEMS`]), or a count
    /// that overflows, is an error.
    fn build(self) -> Result<AnyGraph, String> {
        match self {
            GraphSpec::Custom(cdag) => Ok(AnyGraph::custom("wire-custom", cdag)),
            GraphSpec::Workload { workload, scheme } => match workload.node_count() {
                Some(nodes) if nodes > MAX_ITEMS as usize => Err(format!(
                    "{workload} has {nodes} nodes, over the cap of {MAX_ITEMS}"
                )),
                // An overflowing count fails the family's own checked build.
                _ => AnyGraph::build(workload, scheme).map_err(|e| e.to_string()),
            },
        }
    }
}

/// One service request: a [`ScheduleRequest`] over a [`GraphSpec`], plus
/// the wire-level id used to pair responses on a pipelined connection and
/// a per-request cache opt-out.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The scheduling question.
    pub ask: ScheduleRequest<GraphSpec>,
    /// Skip the cache for this request (forces a fresh solve and does not
    /// insert the answer).
    pub no_cache: bool,
}

/// Why a request was not answered with a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectKind {
    /// The request named a scheduler the registry does not know.
    UnknownScheduler,
    /// The scheduler does not apply to this graph family.
    Unsupported,
    /// The budget is below what this algorithm (or any) needs.
    Infeasible,
    /// The scheduler produced a schedule that failed replay — a server
    /// bug surfaced honestly rather than silently.
    ValidationFailed,
    /// The server's bounded queue was full (load shed).
    Overloaded,
    /// The request could not be decoded or the graph failed to build.
    BadRequest,
}

/// The outcome carried by a [`Response`].
#[derive(Debug, Clone)]
pub enum Outcome {
    /// A scheduled answer.
    Ok {
        /// Replay-validated cost in bits.
        cost: Weight,
        /// The moves (absent for cost-only requests and for
        /// multiprocessor answers, whose move streams are not
        /// transported over the wire yet).
        schedule: Option<Schedule>,
        /// Whether the answer came from the cache.
        cache_hit: bool,
        /// Multiprocessor makespan (None for uniprocessor answers).
        makespan: Option<Weight>,
        /// Multiprocessor communication cost (None for uniprocessor).
        comm_cost: Option<Weight>,
    },
    /// A typed rejection.
    Rejected {
        /// The category, mirrored to a wire status code.
        kind: RejectKind,
        /// Human-readable detail.
        message: String,
        /// For [`RejectKind::Infeasible`]: the game-level minimum
        /// feasible budget when known.
        min_feasible: Option<Weight>,
    },
}

/// One service response, paired to its request by `id`.
#[derive(Debug, Clone)]
pub struct Response {
    /// The request's correlation id.
    pub id: u64,
    /// What happened.
    pub outcome: Outcome,
}

impl Response {
    /// Shorthand for a rejection without a feasibility hint.
    pub fn rejected(id: u64, kind: RejectKind, message: impl Into<String>) -> Self {
        Response {
            id,
            outcome: Outcome::Rejected {
                kind,
                message: message.into(),
                min_feasible: None,
            },
        }
    }

    /// The load-shed response the server emits when its queue is full.
    pub fn overloaded(id: u64) -> Self {
        Response::rejected(id, RejectKind::Overloaded, "server queue full")
    }
}

/// Service knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Enable the canonicalizing schedule cache.
    pub cache: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { cache: true }
    }
}

/// Lock domains per cache index.
const CACHE_SHARDS: usize = 16;

/// The request handler: a cache plus the registry executor.
pub struct Service {
    cache: Option<ScheduleCache>,
}

impl Service {
    /// Build a service from config.
    pub fn new(cfg: &ServiceConfig) -> Self {
        Service {
            cache: cfg.cache.then(|| ScheduleCache::new(CACHE_SHARDS)),
        }
    }

    /// A service with default config (cache on).
    pub fn with_default_config() -> Self {
        Service::new(&ServiceConfig::default())
    }

    /// The cache, when enabled (`pebblyn serve` reports its stats).
    pub fn cache(&self) -> Option<&ScheduleCache> {
        self.cache.as_ref()
    }

    /// Answer one request.  Takes the request by value — it arrives
    /// owned through every transport, and ownership lets a custom graph
    /// move into the handler instead of being deep-cloned on the hot
    /// path.  Never panics on malformed input; every failure maps to a
    /// typed [`Outcome::Rejected`].
    pub fn handle(&self, req: Request) -> Response {
        let _span = telemetry::span("service_request");
        telemetry::incr(Counter::ServiceRequests);
        let started = Instant::now();
        let resp = self.answer(req);
        let elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        telemetry::gauge_max(Gauge::ServiceLatencyPeakNs, elapsed_ns);
        resp
    }

    fn answer(&self, req: Request) -> Response {
        let Request { id, ask, no_cache } = req;
        let machine = ask.machine().clone();
        let budget = ask.budget();
        let need_moves = !ask.is_cost_only();
        let cost_only = ask.is_cost_only();
        let scheduler = ask.scheduler().to_owned();
        let graph = match ask.into_graph().build() {
            Ok(g) => g,
            Err(msg) => return Response::rejected(id, RejectKind::BadRequest, msg),
        };
        let exec_req = ScheduleRequest::new(&graph, machine.clone(), scheduler.as_str())
            .with_cost_only(cost_only);

        let cache = match (&self.cache, no_cache) {
            (Some(c), false) => Some(c),
            _ => None,
        };
        // The cache only participates when a direct solve would too:
        // answering an (unknown scheduler, unsupported family) request
        // from an entry another graph spec populated would diverge from
        // the executor's typed rejection.  Multiprocessor full-schedule
        // requests always miss: the cache stores single-processor move
        // streams only, so multi answers are cached cost-level
        // (cost + makespan + comm) and re-solved when moves are needed.
        let cache = cache.filter(|_| {
            api::by_name(&scheduler).is_some_and(|s| s.supports_machine(&graph, &machine))
        });

        // Level 1: identity form — one serialization pass, no transport.
        let ident = cache.map(|_| identity_form(graph.cdag()));
        if let (Some(cache), Some(ident)) = (cache, &ident) {
            if let Some(hit) = cache.lookup_identity(ident, &scheduler, &machine, need_moves) {
                telemetry::incr(Counter::ServiceCacheHits);
                return Response {
                    id,
                    outcome: Outcome::Ok {
                        cost: hit.cost,
                        schedule: hit.schedule,
                        cache_hit: true,
                        makespan: hit.makespan,
                        comm_cost: hit.comm_cost,
                    },
                };
            }
        }

        // Level 2: canonical form, for relabeled isomorphs.  Inexact
        // forms are dropped — they can only match byte-identical
        // instances, which level 1 already ruled out.
        let form = cache
            .map(|_| canonical_form(graph.cdag()))
            .filter(CanonicalForm::is_exact);
        if let (Some(cache), Some(form)) = (cache, &form) {
            if let Some(hit) = cache.lookup(form, &scheduler, &machine, need_moves) {
                telemetry::incr(Counter::ServiceCacheHits);
                return Response {
                    id,
                    outcome: Outcome::Ok {
                        cost: hit.cost,
                        schedule: hit.schedule,
                        cache_hit: true,
                        makespan: hit.makespan,
                        comm_cost: hit.comm_cost,
                    },
                };
            }
        }
        if let Some(cache) = cache {
            cache.record_miss();
            telemetry::incr(Counter::ServiceCacheMisses);
        }

        match api::execute(&exec_req) {
            Ok(answer) => {
                if let Some(cache) = cache {
                    let ident = ident.as_ref().expect("identity form accompanies cache");
                    cache.insert_identity(
                        ident,
                        &scheduler,
                        &machine,
                        answer.cost(),
                        answer.makespan(),
                        answer.comm_cost(),
                        answer.schedule(),
                    );
                    if let Some(form) = &form {
                        cache.insert(
                            form,
                            &scheduler,
                            &machine,
                            answer.cost(),
                            answer.makespan(),
                            answer.comm_cost(),
                            answer.schedule(),
                        );
                    }
                }
                Response {
                    id,
                    outcome: Outcome::Ok {
                        cost: answer.cost(),
                        makespan: answer.makespan(),
                        comm_cost: answer.comm_cost(),
                        schedule: answer.into_schedule(),
                        cache_hit: false,
                    },
                }
            }
            Err(ExecuteError::UnknownScheduler { requested, valid }) => Response::rejected(
                id,
                RejectKind::UnknownScheduler,
                format!(
                    "unknown scheduler '{requested}' (valid: {})",
                    valid.join(", ")
                ),
            ),
            Err(ExecuteError::Schedule(ScheduleError::Unsupported)) => Response::rejected(
                id,
                RejectKind::Unsupported,
                format!("scheduler '{scheduler}' does not support {}", graph.name()),
            ),
            Err(ExecuteError::Schedule(ScheduleError::InfeasibleBudget { min_feasible })) => {
                Response {
                    id,
                    outcome: Outcome::Rejected {
                        kind: RejectKind::Infeasible,
                        message: format!("budget {budget} infeasible for '{scheduler}'"),
                        min_feasible,
                    },
                }
            }
            Err(ExecuteError::Schedule(
                e @ (ScheduleError::ValidationFailed(_) | ScheduleError::MultiValidationFailed(_)),
            )) => Response::rejected(id, RejectKind::ValidationFailed, e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblyn_core::{min_feasible_budget, validate_schedule, MachineSpec};

    fn workload_request(id: u64, budget: Weight, scheduler: &str) -> Request {
        Request {
            id,
            ask: ScheduleRequest::new(
                GraphSpec::Workload {
                    workload: Workload::Dwt { n: 16, d: 2 },
                    scheme: WeightScheme::Equal(16),
                },
                budget,
                scheduler,
            ),
            no_cache: false,
        }
    }

    #[test]
    fn miss_then_hit_agree_and_validate() {
        let svc = Service::with_default_config();
        let req = workload_request(1, 16 * 16, "dwt-opt");

        let cold = svc.handle(req.clone());
        let Outcome::Ok {
            cost: cold_cost,
            schedule: Some(cold_sched),
            cache_hit: false,
            ..
        } = cold.outcome
        else {
            panic!("expected cold full answer, got {:?}", cold.outcome)
        };

        let warm = svc.handle(Request { id: 2, ..req });
        let Outcome::Ok {
            cost: warm_cost,
            schedule: Some(warm_sched),
            cache_hit: true,
            ..
        } = warm.outcome
        else {
            panic!("expected warm cached answer, got {:?}", warm.outcome)
        };
        assert_eq!(warm.id, 2);
        assert_eq!(cold_cost, warm_cost);

        // The transported schedule replays to the same cost on the
        // requester's graph.
        let g = AnyGraph::build(Workload::Dwt { n: 16, d: 2 }, WeightScheme::Equal(16)).unwrap();
        let stats = validate_schedule(g.cdag(), 16 * 16, &warm_sched).unwrap();
        assert_eq!(stats.cost, cold_cost);
        assert_eq!(cold_sched.moves(), warm_sched.moves());
        assert_eq!(svc.cache().unwrap().stats().hits(), 1);
        assert_eq!(svc.cache().unwrap().stats().misses(), 1);
    }

    #[test]
    fn no_cache_requests_bypass_and_do_not_populate() {
        let svc = Service::with_default_config();
        let mut req = workload_request(1, 16 * 16, "dwt-opt");
        req.no_cache = true;
        for _ in 0..2 {
            let resp = svc.handle(req.clone());
            let Outcome::Ok { cache_hit, .. } = resp.outcome else {
                panic!("expected ok")
            };
            assert!(!cache_hit);
        }
        assert_eq!(svc.cache().unwrap().stats().hits(), 0);
        assert_eq!(svc.cache().unwrap().stats().entries(), 0);
    }

    /// Multiprocessor requests flow through the same handler: cost-only
    /// answers carry makespan and communication cost, cache cost-level
    /// entries reproduce them on a warm hit, and full-schedule multi
    /// requests re-solve (the cache stores uniprocessor move streams
    /// only).
    #[test]
    fn multi_requests_carry_makespan_and_cache_cost_level() {
        let svc = Service::with_default_config();
        let multi_req = |id| Request {
            id,
            ask: ScheduleRequest::new(
                GraphSpec::Workload {
                    workload: Workload::Dwt { n: 16, d: 2 },
                    scheme: WeightScheme::Equal(16),
                },
                MachineSpec::symmetric(2, 16 * 16),
                "partition-belady",
            )
            .with_cost_only(true),
            no_cache: false,
        };

        let cold = svc.handle(multi_req(1));
        let Outcome::Ok {
            cost: cold_cost,
            schedule: None,
            cache_hit: false,
            makespan: Some(cold_span),
            comm_cost: Some(_),
        } = cold.outcome
        else {
            panic!("expected cold multi cost answer, got {:?}", cold.outcome)
        };

        let warm = svc.handle(multi_req(2));
        let Outcome::Ok {
            cost: warm_cost,
            cache_hit: true,
            makespan: Some(warm_span),
            ..
        } = warm.outcome
        else {
            panic!("expected warm multi hit, got {:?}", warm.outcome)
        };
        assert_eq!((cold_cost, cold_span), (warm_cost, warm_span));

        // Same graph, uniprocessor machine: a distinct cache key.
        let uni = svc.handle(workload_request(3, 16 * 16, "partition-belady"));
        let Outcome::Ok {
            cache_hit: false,
            makespan: None,
            comm_cost: None,
            ..
        } = uni.outcome
        else {
            panic!("expected fresh uniprocessor answer, got {:?}", uni.outcome)
        };
    }

    #[test]
    fn rejections_are_typed() {
        let svc = Service::with_default_config();

        let unknown = Request {
            ask: ScheduleRequest::new(
                GraphSpec::Workload {
                    workload: Workload::Dwt { n: 16, d: 2 },
                    scheme: WeightScheme::Equal(16),
                },
                256,
                "nonsense",
            ),
            ..workload_request(7, 256, "naive")
        };
        let resp = svc.handle(unknown);
        let Outcome::Rejected { kind, message, .. } = resp.outcome else {
            panic!("expected rejection")
        };
        assert_eq!(kind, RejectKind::UnknownScheduler);
        assert!(message.contains("dwt-opt"), "lists valid names: {message}");

        // Bad workload parameters -> BadRequest, not a panic.
        let bad = Request {
            id: 8,
            ask: ScheduleRequest::new(
                GraphSpec::Workload {
                    workload: Workload::Dwt { n: 7, d: 3 },
                    scheme: WeightScheme::Equal(16),
                },
                256,
                "naive",
            ),
            no_cache: false,
        };
        let Outcome::Rejected { kind, .. } = svc.handle(bad).outcome else {
            panic!("expected rejection")
        };
        assert_eq!(kind, RejectKind::BadRequest);

        // Weights whose sum would wrap a u64 -> BadRequest at graph build.
        let heavy = Request {
            id: 10,
            ask: ScheduleRequest::new(
                GraphSpec::Workload {
                    workload: Workload::Dwt { n: 16, d: 2 },
                    scheme: WeightScheme::Equal(1 << 62),
                },
                u64::MAX,
                "naive",
            ),
            no_cache: false,
        };
        let Outcome::Rejected { kind, message, .. } = svc.handle(heavy).outcome else {
            panic!("expected rejection")
        };
        assert_eq!(kind, RejectKind::BadRequest);
        assert!(message.contains("2^64"), "names the overflow: {message}");

        // Infeasible budget carries the hint when known.
        let tight = workload_request(9, 1, "dwt-opt");
        let Outcome::Rejected { kind, .. } = svc.handle(tight).outcome else {
            panic!("expected rejection")
        };
        assert_eq!(kind, RejectKind::Infeasible);
    }

    /// A replay that overflows a 64-bit sum is a typed validation failure,
    /// not an infeasible budget: at 2^58 bits a node, comm-list's only
    /// candidate for `DWT(16, 2)` on two processors overflows the replayed
    /// clocks at a budget the game admits.
    #[test]
    fn replay_overflow_is_a_validation_failure() {
        let svc = Service::with_default_config();
        let workload = Workload::Dwt { n: 16, d: 2 };
        let scheme = WeightScheme::Equal(1 << 58);
        let g = AnyGraph::build(workload, scheme).unwrap();
        let machine = MachineSpec::symmetric(2, min_feasible_budget(g.cdag()));
        let req = Request {
            id: 11,
            ask: ScheduleRequest::new(
                GraphSpec::Workload { workload, scheme },
                machine,
                "comm-list",
            ),
            no_cache: false,
        };
        let Outcome::Rejected { kind, message, .. } = svc.handle(req).outcome else {
            panic!("expected rejection")
        };
        assert_eq!(kind, RejectKind::ValidationFailed, "{message}");
    }
}
