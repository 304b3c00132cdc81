//! The serve workloads: one single-threaded client on one connection to
//! `pebblyn serve --socket … --workers 2`, closed loop, one request in
//! flight.  Latency runs from writing a request frame's first byte to
//! reading its response frame's last byte.

use crate::daemon::Daemon;
use crate::gen::{build_graph, ColdTrace, Framed, RepeatTrace, Variant, PER_GRAPH};
use crate::layers::{self, LayerValues};
use crate::pipeline::{answer_frame, Tracer};
use crate::stats::{geomean, median, percentile, uniprocessor_makespan, work_bound};
use crate::{Args, Report};
use pebblyn::prelude::*;
use pebblyn::service::wire::{self, Frame};
use pebblyn::service::ScheduleCache;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Daemon set-ups per run; `setup_s` is their median.
const REPEAT_SETUPS: usize = 5;
const COLD_SETUPS: usize = 21;
/// Fewest timed requests in a run: twice what a p99 with 10 samples
/// beyond it needs.  `peak_rss_mb` is read when this many have been
/// answered, and `io_gap`/`makespan_gap` on serve-cold cover exactly
/// these, so the three do not depend on how fast the run went.
const MIN_REQUESTS: usize = 2000;
/// Timed requests in a traced serve-repeat run: one in four is a relabel,
/// so this gives the canonical form's p99 its thousand samples.
const TRACED_REPEAT_REQUESTS: usize = 4400;

fn socket_path(args: &Args) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_run");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir.join(format!("{}-{}.sock", args.workload, std::process::id())))
}

fn io<T>(what: &str, r: std::io::Result<T>) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// Decode a response payload into its `Outcome`.
fn outcome(payload: &[u8]) -> Result<Outcome, String> {
    match wire::decode_payload(payload) {
        Ok(Frame::Response(r)) => Ok(r.outcome),
        other => Err(format!("not a response frame: {other:?}")),
    }
}

/// End-to-end latency, throughput and RSS over a timed loop.
#[derive(Default)]
struct Timed {
    latencies: Vec<Duration>,
    peak_rss_mb: f64,
}

impl Timed {
    fn record(&mut self, daemon: &Daemon, dt: Duration) -> Result<(), String> {
        self.latencies.push(dt);
        if self.latencies.len() == MIN_REQUESTS {
            self.peak_rss_mb = io("read daemon VmHWM", daemon.peak_rss_mb())?;
        }
        Ok(())
    }

    fn done(&self, start: Instant, window: Duration, min_requests: usize) -> bool {
        self.latencies.len() >= min_requests && start.elapsed() >= window
    }

    fn ms(&self) -> Vec<f64> {
        self.latencies
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect()
    }

    fn report(&self, report: &mut Report) -> Result<(), String> {
        let ms = self.ms();
        let p50 = percentile(&ms, 0.5)?;
        let p99 = percentile(&ms, 0.99)?;
        eprintln!(
            "perfbench: latency p50 {:.4} ms, p99 {:.4} ms over {} requests",
            p50.value, p99.value, p99.samples
        );
        report.metric("latency_p50_ms", p50.value, "ms");
        report.metric("latency_p99_ms", p99.value, "ms");
        let busy: f64 = self.latencies.iter().map(Duration::as_secs_f64).sum();
        report.metric("throughput_rps", ms.len() as f64 / busy, "req/s");
        Ok(())
    }
}

// ------------------------------------------------------------ serve-repeat

/// Expected answers per unique graph, from the in-process executor.
struct Reference {
    cost: Weight,
    moves: Schedule,
}

fn repeat_references(trace: &RepeatTrace) -> Result<Vec<Reference>, String> {
    trace
        .graphs
        .iter()
        .enumerate()
        .map(|(gi, g)| {
            let req = &trace.pool[gi * PER_GRAPH].request;
            let any = AnyGraph::custom("reference", g.clone());
            let answer = api::execute(&ScheduleRequest::new(
                &any,
                req.ask.machine().clone(),
                req.ask.scheduler(),
            ))
            .map_err(|e| format!("reference solve of graph {gi}: {e}"))?;
            Ok(Reference {
                cost: answer.cost(),
                moves: answer.into_schedule().expect("full request returns moves"),
            })
        })
        .collect()
}

/// Check one serve-repeat response for pool slot `slot`: answered, at
/// the cold answer's cost, moves that replay to that cost on the
/// requester's own graph, and byte-identical moves for identity repeats.
fn check_repeat(
    trace: &RepeatTrace,
    refs: &[Reference],
    slot: usize,
    payload: &[u8],
) -> Result<(), String> {
    let (gi, k) = (slot / PER_GRAPH, slot % PER_GRAPH);
    let Outcome::Ok { cost, schedule, .. } = outcome(payload)? else {
        return Err(format!("slot {slot} rejected"));
    };
    if cost != refs[gi].cost {
        return Err(format!(
            "slot {slot}: cost {cost} != cold answer {}",
            refs[gi].cost
        ));
    }
    let req = &trace.pool[slot].request;
    match (RepeatTrace::variant(k), schedule) {
        (Variant::CostOnly, None) => Ok(()),
        (Variant::CostOnly, Some(_)) => Err(format!("slot {slot}: cost-only answer carried moves")),
        (_, None) => Err(format!("slot {slot}: full answer without moves")),
        (variant, Some(s)) => {
            let GraphSpec::Custom(g) = req.ask.graph() else {
                unreachable!("serve-repeat sends custom graphs")
            };
            let replayed = validate_schedule(g, req.ask.budget(), &s)
                .map_err(|e| format!("slot {slot}: moves do not replay: {e}"))?;
            if replayed.cost != cost {
                return Err(format!(
                    "slot {slot}: replayed cost {} != claimed {cost}",
                    replayed.cost
                ));
            }
            if variant == Variant::Full && s.moves() != refs[gi].moves.moves() {
                return Err(format!(
                    "slot {slot}: repeat moves differ from the cold answer"
                ));
            }
            Ok(())
        }
    }
}

/// Spawn the daemon and send every pool frame once: the warm-up, which
/// holds the workload's only misses.  Returns the daemon, the warm-up
/// responses and the time from spawn to the last warm-up response.
fn repeat_setup(
    args: &Args,
    socket: &Path,
    trace: &RepeatTrace,
) -> Result<(Daemon, Vec<Vec<u8>>, Duration), String> {
    let t0 = Instant::now();
    let (mut daemon, _) = io("start daemon", Daemon::start(&args.daemon, socket))?;
    let mut warm = Vec::with_capacity(trace.pool.len());
    for f in &trace.pool {
        warm.push(io("warm-up request", daemon.round_trip(&f.frame))?.0);
    }
    Ok((daemon, warm, t0.elapsed()))
}

/// The timed loop over pool slots.  Every response to a slot must be
/// byte-identical to the slot's first timed response (`steady`).
struct RepeatLoop {
    timed: Timed,
    order: Vec<usize>,
    steady: Vec<Option<Vec<u8>>>,
    occurrences: Vec<u64>,
    diverged: u64,
}

/// Runs for the window and at least `min_requests` requests.
fn repeat_loop(
    args: &Args,
    trace: &RepeatTrace,
    daemon: &mut Daemon,
    min_requests: usize,
) -> Result<RepeatLoop, String> {
    let mut l = RepeatLoop {
        timed: Timed::default(),
        order: Vec::new(),
        steady: vec![None; trace.pool.len()],
        occurrences: vec![0; trace.pool.len()],
        diverged: 0,
    };
    let mut seq = RepeatTrace::sequence(args.seed);
    let start = Instant::now();
    while !l.timed.done(start, args.seconds, min_requests) {
        let slot = seq.next().expect("endless sequence");
        let (payload, dt) = io("timed request", daemon.round_trip(&trace.pool[slot].frame))?;
        l.timed.record(daemon, dt)?;
        l.order.push(slot);
        l.occurrences[slot] += 1;
        match &l.steady[slot] {
            None => l.steady[slot] = Some(payload),
            Some(first) if *first != payload => l.diverged += 1,
            Some(_) => {}
        }
    }
    Ok(l)
}

/// serve-repeat: a fixed pool of unique graphs resent as byte-identical
/// repeats, relabeled isomorphs and cost-only probes.
pub fn repeat(args: &Args) -> Result<Report, String> {
    let socket = socket_path(args)?;
    let trace = RepeatTrace::new(args.seed);
    let mut report = Report::default();
    if args.trace {
        let (mut daemon, warm, _) = repeat_setup(args, &socket, &trace)?;
        let l = repeat_loop(args, &trace, &mut daemon, TRACED_REPEAT_REQUESTS)?;
        io("daemon shutdown", daemon.shutdown())?;
        // The daemon's response to each request, in order.
        let expected: Vec<&[u8]> = warm
            .iter()
            .map(Vec::as_slice)
            .chain(
                l.order
                    .iter()
                    .map(|&s| l.steady[s].as_deref().expect("seen slot")),
            )
            .collect();
        let frames: Vec<&[u8]> = (0..trace.pool.len())
            .chain(l.order.iter().copied())
            .map(|s| trace.pool[s].frame.as_slice())
            .collect();
        report.attempted = frames.len() as u64;
        report.failed = l.diverged;
        traced_replay(&mut report, &frames, &expected, &l.timed, warm.len())?;
        return Ok(report);
    }

    let mut setups = Vec::new();
    let mut first_warm: Option<Vec<Vec<u8>>> = None;
    let mut daemon = None;
    for i in 0..REPEAT_SETUPS {
        let (d, warm, t) = repeat_setup(args, &socket, &trace)?;
        setups.push(t.as_secs_f64());
        if first_warm.as_ref().is_some_and(|w| *w != warm) {
            eprintln!("perfbench: warm-up answers differ between daemon starts");
            report.check_failed = true;
        }
        first_warm.get_or_insert(warm);
        if i + 1 < REPEAT_SETUPS {
            io("daemon shutdown", d.shutdown())?;
        } else {
            daemon = Some(d);
        }
    }
    let mut daemon = daemon.expect("at least one set-up");
    let warm = first_warm.expect("at least one set-up");
    let l = repeat_loop(args, &trace, &mut daemon, MIN_REQUESTS)?;
    io("daemon shutdown", daemon.shutdown())?;

    // Checks: warm-up (cold) answers first, then every distinct timed
    // response, which stands for all of its slot's occurrences.
    let refs = repeat_references(&trace)?;
    report.attempted = (warm.len() + l.order.len()) as u64;
    report.failed = l.diverged;
    for (slot, payload) in warm.iter().enumerate() {
        if let Err(e) = check_repeat(&trace, &refs, slot, payload) {
            eprintln!("perfbench: warm-up {e}");
            report.failed += 1;
        }
    }
    // A timed miss breaks the workload's premise, so it fails the request.
    for (slot, steady) in l.steady.iter().enumerate() {
        if let Some(payload) = steady {
            let checked =
                check_repeat(&trace, &refs, slot, payload).and_then(|()| match outcome(payload)? {
                    Outcome::Ok {
                        cache_hit: true, ..
                    } => Ok(()),
                    _ => Err(format!("slot {slot} missed the cache after warm-up")),
                });
            if let Err(e) = checked {
                eprintln!("perfbench: {e}");
                report.failed += l.occurrences[slot];
            }
        }
    }

    report.metric("setup_s", median(&setups), "s");
    l.timed.report(&mut report)?;
    let io_gaps: Vec<f64> = trace
        .graphs
        .iter()
        .zip(&refs)
        .map(|(g, r)| r.cost as f64 / algorithmic_lower_bound(g) as f64)
        .collect();
    let span_gaps: Vec<f64> = trace
        .graphs
        .iter()
        .zip(&refs)
        .map(|(g, r)| uniprocessor_makespan(g, r.cost) / work_bound(g, 1))
        .collect();
    report.metric("io_gap", geomean(&io_gaps), "ratio");
    report.metric("makespan_gap", geomean(&span_gaps), "ratio");
    report.metric("peak_rss_mb", l.timed.peak_rss_mb, "MiB");
    Ok(report)
}

// -------------------------------------------------------------- serve-cold

/// Frames generated ahead of the timed loop at a time.
const COLD_CHUNK: usize = 1024;

/// serve-cold: every request unique in (graph, machine, scheduler).
pub fn cold(args: &Args) -> Result<Report, String> {
    let socket = socket_path(args)?;
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut daemon = None;
    let setups_wanted = if args.trace { 1 } else { COLD_SETUPS };
    for i in 0..setups_wanted {
        let (d, ready) = io("start daemon", Daemon::start(&args.daemon, &socket))?;
        setups.push(ready.as_secs_f64());
        if i + 1 < setups_wanted {
            io("daemon shutdown", d.shutdown())?;
        } else {
            daemon = Some(d);
        }
    }
    let mut daemon = daemon.expect("at least one set-up");

    let mut gen = ColdTrace::new(args.seed);
    let mut sent: Vec<Framed> = Vec::new();
    let mut responses: Vec<Vec<u8>> = Vec::new();
    let mut timed = Timed::default();
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    while !timed.done(start + paused, args.seconds, MIN_REQUESTS) {
        if responses.len() == sent.len() {
            // Generation is client work: keep it out of the window.
            let t = Instant::now();
            sent.extend((0..COLD_CHUNK).map(|_| gen.next_request()));
            paused += t.elapsed();
        }
        let (payload, dt) = io(
            "timed request",
            daemon.round_trip(&sent[responses.len()].frame),
        )?;
        timed.record(&daemon, dt)?;
        responses.push(payload);
    }
    io("daemon shutdown", daemon.shutdown())?;
    sent.truncate(responses.len());
    report.attempted = sent.len() as u64;

    if args.trace {
        let frames: Vec<&[u8]> = sent.iter().map(|f| f.frame.as_slice()).collect();
        let expected: Vec<&[u8]> = responses.iter().map(Vec::as_slice).collect();
        traced_replay(&mut report, &frames, &expected, &timed, 0)?;
        return Ok(report);
    }

    let mut io_gaps = Vec::new();
    let mut span_gaps = Vec::new();
    for (i, (f, payload)) in sent.iter().zip(&responses).enumerate() {
        match check_cold(f, payload) {
            Ok((cost, makespan, g, procs)) if i < MIN_REQUESTS => {
                io_gaps.push(cost as f64 / algorithmic_lower_bound(g.cdag()) as f64);
                if let Some(m) = makespan {
                    span_gaps.push(m as f64 / work_bound(g.cdag(), procs));
                }
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("perfbench: request {i}: {e}");
                report.failed += 1;
            }
        }
    }
    if io_gaps.is_empty() || span_gaps.is_empty() {
        return Err("no answers to take io_gap/makespan_gap over".into());
    }
    report.metric("setup_s", median(&setups), "s");
    timed.report(&mut report)?;
    report.metric("io_gap", geomean(&io_gaps), "ratio");
    report.metric("makespan_gap", geomean(&span_gaps), "ratio");
    report.metric("peak_rss_mb", timed.peak_rss_mb, "MiB");
    Ok(report)
}

/// Check one serve-cold answer against the in-process executor on the
/// requester's own graph: never from the cache, same cost, makespan and
/// communication, and returned moves that replay to the claimed cost.
/// Returns the cost, the makespan, the graph and the processor count.
fn check_cold(
    f: &Framed,
    payload: &[u8],
) -> Result<(Weight, Option<Weight>, AnyGraph, usize), String> {
    let Outcome::Ok {
        cost,
        schedule,
        cache_hit,
        makespan,
        comm_cost,
    } = outcome(payload)?
    else {
        return Err(format!("rejected: {:?}", outcome(payload)));
    };
    if cache_hit {
        return Err("answered from the cache".into());
    }
    let ask = &f.request.ask;
    let g = build_graph(ask.graph());
    let reference = api::execute(
        &ScheduleRequest::new(&g, ask.machine().clone(), ask.scheduler())
            .with_cost_only(ask.is_cost_only()),
    )
    .map_err(|e| format!("reference solve failed: {e}"))?;
    if (cost, makespan, comm_cost)
        != (
            reference.cost(),
            reference.makespan(),
            reference.comm_cost(),
        )
    {
        return Err(format!(
            "answer ({cost}, {makespan:?}, {comm_cost:?}) != executor ({}, {:?}, {:?})",
            reference.cost(),
            reference.makespan(),
            reference.comm_cost()
        ));
    }
    match (schedule, reference.schedule()) {
        (None, None) => {}
        (Some(s), Some(r)) => {
            let replayed = validate_schedule(g.cdag(), ask.budget(), &s)
                .map_err(|e| format!("moves do not replay: {e}"))?;
            if replayed.cost != cost || s.moves() != r.moves() {
                return Err(format!(
                    "moves replay to {} (claimed {cost}) or differ from the executor's",
                    replayed.cost
                ));
            }
        }
        (s, r) => {
            return Err(format!(
                "moves present {} but executor's present {}",
                s.is_some(),
                r.is_some()
            ))
        }
    }
    Ok((cost, makespan, g, ask.machine().num_procs()))
}

// ------------------------------------------------------------ traced runs

/// Answer `frame` in-process and return the payload and the wall time.
fn timed_answer(cache: &ScheduleCache, tr: &mut Tracer, frame: &[u8]) -> (Vec<u8>, Duration) {
    let t0 = Instant::now();
    let payload = std::hint::black_box(answer_frame(cache, tr, frame));
    (payload, t0.elapsed())
}

/// Count the daemon's rejections in `expected` as failures, replay
/// `frames` in-process through an untraced and a traced pipeline (each
/// with its own cache), check the traced responses against the daemon's
/// (the drift guard), and report per-layer metrics.  The two pipelines
/// take turns request by request, alternating which goes first, so host
/// speed drifts and warm caches fall on both alike in
/// `trace.overhead_share`.  The first `skip` requests (warm-up) are
/// replayed but left out of the daemon overhead figure, whose end-to-end
/// side (`timed`) covers only the timed requests.
fn traced_replay(
    report: &mut Report,
    frames: &[&[u8]],
    expected: &[&[u8]],
    timed: &Timed,
    skip: usize,
) -> Result<(), String> {
    report.failed += expected
        .iter()
        .filter(|p| !matches!(outcome(p), Ok(Outcome::Ok { .. })))
        .count() as u64;
    let (plain_cache, cache) = (ScheduleCache::new(16), ScheduleCache::new(16));
    let (mut plain, mut tr) = (Tracer::new(false), Tracer::new(true));
    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    let mut drift = 0;
    for (i, (f, want)) in frames.iter().zip(expected).enumerate() {
        let first_plain = i % 2 == 0;
        if first_plain {
            untraced += timed_answer(&plain_cache, &mut plain, f).1;
        }
        let (got, dt) = timed_answer(&cache, &mut tr, f);
        traced += dt;
        if !first_plain {
            untraced += timed_answer(&plain_cache, &mut plain, f).1;
        }
        if got != *want {
            if drift == 0 {
                eprintln!("perfbench: drift guard: request {i} differs from the daemon's response");
            }
            drift += 1;
        }
    }
    let (untraced_s, traced_s) = (untraced.as_secs_f64(), traced.as_secs_f64());
    eprintln!(
        "perfbench: drift guard: {drift} of {} responses differ; traced {traced_s:.3} s vs untraced {untraced_s:.3} s",
        frames.len()
    );
    if drift > 0 {
        report.check_failed = true;
    }

    let mut values = LayerValues::default();
    layers::from_tracer(&tr, cache.stats().entries(), &mut values);
    let layer_sum_us: Vec<f64> = tr.per_request[skip..]
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    let e2e_us: Vec<f64> = timed.ms().iter().map(|ms| ms * 1e3).collect();
    let overhead = percentile(&e2e_us, 0.5)?.value - percentile(&layer_sum_us, 0.5)?.value;
    values.set("daemon.overhead_us_p50", overhead);
    values.set("trace.overhead_share", (traced_s - untraced_s) / untraced_s);
    values.into_report(report);
    Ok(())
}
