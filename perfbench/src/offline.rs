//! offline-batch: the work behind `pebblyn exact` and `pebblyn stream`,
//! called in-process.  One pass certifies the committed exact instances
//! and schedules plus replays three 1M-node graphs with both streaming
//! schedulers at the Prop 2.3 minimum budget.

use crate::daemon::peak_rss_mb;
use crate::layers::LayerValues;
use crate::stats::{geomean, median, uniprocessor_makespan, upper_quartile, work_bound};
use crate::{Args, Report};
use pebblyn::graphs::testgraphs::fft_butterfly;
use pebblyn::prelude::*;
use pebblyn::synth::{dwt_giga, layered_random_giga, mvm_giga};
use pebblyn_bench::{diamond_chain, reconvergent_mesh16};
use std::time::Instant;

/// Instance builds per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// The committed optima the exact answers must reproduce.
const COMMITTED: &str = "results/bench_exact.json";
/// The streaming schedulers.
const STREAMERS: [&str; 2] = ["topo-window", "slab-partition"];

/// One exact-certification instance.
struct ExactCase {
    name: &'static str,
    graph: Cdag,
    budget: Weight,
    optimum: Weight,
}

/// Everything a pass runs on.
struct Instances {
    exact: Vec<ExactCase>,
    /// (name, graph, Prop 2.3 minimum budget).
    giga: Vec<(&'static str, AnyGraph, Weight)>,
}

/// The optimum `results/bench_exact.json` records for `bench`.
fn committed_optimum(text: &str, bench: &str) -> Result<Weight, String> {
    let at = text
        .find(&format!(r#""bench": "{bench}""#))
        .ok_or_else(|| format!("{COMMITTED} has no bench {bench}"))?;
    let rest = &text[at..];
    let key = r#""optimal_cost": "#;
    let from = rest
        .find(key)
        .ok_or_else(|| format!("{COMMITTED}: no optimal_cost for {bench}"))?
        + key.len();
    let digits: String = rest[from..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .map_err(|e| format!("{COMMITTED}: optimal_cost for {bench}: {e}"))
}

/// Build every instance, appending each 1M-node graph's build time (µs)
/// to `giga_build_us`.  The exact instances take microseconds to build
/// and are left out of it.
fn build(seed: u64, committed: &str, giga_build_us: &mut Vec<f64>) -> Result<Instances, String> {
    let mut timed = |make: &dyn Fn() -> Cdag| {
        let t = Instant::now();
        let g = make();
        giga_build_us.push(t.elapsed().as_secs_f64() * 1e6);
        g
    };
    let dwt = DwtGraph::new(8, 2, WeightScheme::Equal(4))
        .expect("valid DWT")
        .cdag()
        .clone();
    let tree = tree::full_kary(2, 3, WeightScheme::Equal(2)).expect("valid tree");
    let fft = fft_butterfly(2, WeightScheme::Equal(2)).expect("valid butterfly");
    let mesh = reconvergent_mesh16();
    let diamond = diamond_chain(18);
    // The `bench_exact` instances at their committed budgets: the Prop 2.3
    // minimum plus a margin, and budget 3 for the diamond chain.
    let exact = [
        ("dwt8x2_minb", dwt, 0),
        ("kary2x3_minb+2", tree, 2),
        ("fft4_minb+4", fft, 4),
        ("mesh16_minb", mesh, 0),
    ]
    .into_iter()
    .map(|(name, graph, extra)| (name, min_feasible_budget(&graph) + extra, graph))
    .chain([("diamond72", 3, diamond)])
    .map(|(name, budget, graph)| {
        Ok(ExactCase {
            name,
            optimum: committed_optimum(committed, name)?,
            graph,
            budget,
        })
    })
    .collect::<Result<Vec<_>, String>>()?;
    // The `pebblyn stream --nodes 1000000` shapes.
    let giga = [
        ("dwt_giga", timed(&|| dwt_giga(1 << 18, 18))),
        ("mvm_giga", timed(&|| mvm_giga(999, 1000))),
        (
            "layered_random_giga",
            timed(&|| layered_random_giga(1000, 1000, 3, seed)),
        ),
    ]
    .into_iter()
    .map(|(name, cdag)| {
        let budget = min_feasible_budget(&cdag);
        (name, AnyGraph::custom(name, cdag), budget)
    })
    .collect();
    Ok(Instances { exact, giga })
}

/// One job's outcome: its cost, plus the search counters for exact jobs
/// and (schedule ns, replay ns, moves) for streaming ones.
enum Done {
    Exact(Solution),
    Stream {
        schedule_ns: u64,
        replay_ns: u64,
        moves: u64,
    },
}

/// Run job `j` of a pass (exact instances first, then every giga graph
/// under each streamer) and check its answer.
fn run_job(inst: &Instances, j: usize) -> Result<(Weight, Done), String> {
    if let Some(case) = inst.exact.get(j) {
        let sol = ExactSolver::default()
            .solve(&case.graph, case.budget)
            .map_err(|e| format!("{}: {e}", case.name))?;
        if sol.cost != Some(case.optimum) {
            return Err(format!(
                "{}: optimum {:?} != committed {}",
                case.name, sol.cost, case.optimum
            ));
        }
        return Ok((case.optimum, Done::Exact(sol)));
    }
    let k = j - inst.exact.len();
    let (name, g, budget) = &inst.giga[k / STREAMERS.len()];
    let streamer = STREAMERS[k % STREAMERS.len()];
    let s = api::by_name(streamer).expect("registered streamer");
    let t0 = Instant::now();
    let schedule = s
        .schedule(g, *budget)
        .map_err(|e| format!("{streamer} on {name}: {e}"))?;
    let t1 = Instant::now();
    let stats = validate_schedule(g.cdag(), *budget, &schedule)
        .map_err(|e| format!("{streamer} on {name}: replay failed: {e}"))?;
    let t2 = Instant::now();
    let lb = algorithmic_lower_bound(g.cdag());
    if stats.cost < lb {
        return Err(format!(
            "{streamer} on {name}: cost {} below the Prop 2.4 bound {lb}",
            stats.cost
        ));
    }
    Ok((
        stats.cost,
        Done::Stream {
            schedule_ns: (t1 - t0).as_nanos() as u64,
            replay_ns: (t2 - t1).as_nanos() as u64,
            moves: schedule.len() as u64,
        },
    ))
}

fn job_graph(inst: &Instances, j: usize) -> &Cdag {
    match inst.exact.get(j) {
        Some(case) => &case.graph,
        None => inst.giga[(j - inst.exact.len()) / STREAMERS.len()].1.cdag(),
    }
}

fn job_count(inst: &Instances) -> usize {
    inst.exact.len() + inst.giga.len() * STREAMERS.len()
}

/// offline-batch.
pub fn batch(args: &Args) -> Result<Report, String> {
    let committed =
        std::fs::read_to_string(COMMITTED).map_err(|e| format!("read {COMMITTED}: {e}"))?;
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut giga_build_us = Vec::new();
    let mut inst = None;
    for _ in 0..SETUPS {
        drop(inst.take()); // free the previous build first
        let t0 = Instant::now();
        inst = Some(build(args.seed, &committed, &mut giga_build_us)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let inst = inst.expect("at least one set-up");
    let jobs = job_count(&inst);

    if args.trace {
        return traced(&inst, &giga_build_us, report);
    }

    // Passes until the window closes, at least three so the medians over
    // passes have a middle.
    let mut pass_ms = Vec::new();
    let mut costs: Vec<Option<Weight>> = vec![None; jobs];
    let mut verdict = Vec::new();
    let mut stream = Vec::new();
    let start = Instant::now();
    let mut passes = 0;
    while passes < 3 || start.elapsed() < args.seconds {
        let (mut v, mut s) = (0.0, 0.0);
        for (j, known) in costs.iter_mut().enumerate() {
            let t0 = Instant::now();
            let result = run_job(&inst, j);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            report.attempted += 1;
            match result {
                Ok((cost, _)) if known.is_none_or(|c| c == cost) => *known = Some(cost),
                Ok((cost, _)) => {
                    eprintln!("perfbench: job {j}: cost {cost} changed between passes");
                    report.failed += 1;
                }
                Err(e) => {
                    eprintln!("perfbench: job {j}: {e}");
                    report.failed += 1;
                }
            }
            if j < inst.exact.len() {
                v += ms / 1e3;
            } else {
                s += ms / 1e3;
            }
        }
        verdict.push(v);
        stream.push(s);
        pass_ms.push((v + s) * 1e3);
        passes += 1;
    }
    eprintln!(
        "perfbench: {passes} passes; medians: verdict_s {:.4}, stream_s {:.4}, pass {:.4} ms",
        median(&verdict),
        median(&stream),
        median(&pass_ms),
    );
    let costs: Vec<Weight> = costs.into_iter().flatten().collect();
    if costs.len() != jobs {
        return Err("a job never produced an answer".into());
    }
    let io_gaps: Vec<f64> = (0..jobs)
        .map(|j| costs[j] as f64 / algorithmic_lower_bound(job_graph(&inst, j)) as f64)
        .collect();
    let span_gaps: Vec<f64> = (0..jobs)
        .map(|j| {
            let g = job_graph(&inst, j);
            uniprocessor_makespan(g, costs[j]) / work_bound(g, 1)
        })
        .collect();
    report.metric("setup_s", median(&setups), "s");
    // The latency of a batch is one pass over its jobs.  A run holds about
    // fifteen passes, too few to support a p99 (or any percentile with ten
    // samples beyond it): the upper quartile of the pass times stands in.
    report.metric("latency_p50_ms", median(&pass_ms), "ms");
    report.metric("latency_p99_ms", upper_quartile(&pass_ms), "ms");
    let busy_s = pass_ms.iter().sum::<f64>() / 1e3;
    report.metric("throughput_rps", (jobs * passes) as f64 / busy_s, "req/s");
    report.metric("io_gap", geomean(&io_gaps), "ratio");
    report.metric("makespan_gap", geomean(&span_gaps), "ratio");
    let rss = peak_rss_mb("/proc/self/status").map_err(|e| format!("read own VmHWM: {e}"))?;
    report.metric("peak_rss_mb", rss, "MiB");
    Ok(report)
}

/// The traced offline run: one pass over the jobs, reading the search
/// counters and the per-job timers that every untraced pass takes too.
fn traced(inst: &Instances, giga_build_us: &[f64], mut report: Report) -> Result<Report, String> {
    let mut values = LayerValues::default();
    let (mut expanded, mut generated, mut peak, mut re, mut sym) = (0, 0, 0, 0, 0);
    let mut exact_ns = 0u64;
    let mut stream_ns = [0u64; STREAMERS.len()];
    let mut stream_edges = [0u64; STREAMERS.len()];
    let (mut replay_ns, mut moves) = (0u64, 0u64);
    for j in 0..job_count(inst) {
        report.attempted += 1;
        let t = Instant::now();
        let done = match run_job(inst, j) {
            Ok((_, done)) => done,
            Err(e) => {
                eprintln!("perfbench: job {j}: {e}");
                report.failed += 1;
                continue;
            }
        };
        let ns = t.elapsed().as_nanos() as u64;
        match done {
            Done::Exact(sol) => {
                exact_ns += ns;
                let st = sol.stats;
                expanded += st.expanded;
                generated += st.generated;
                peak = peak.max(st.peak_open);
                re += st.re_expanded;
                sym += st.symmetry_pruned;
            }
            Done::Stream {
                schedule_ns,
                replay_ns: r,
                moves: m,
            } => {
                let k = (j - inst.exact.len()) % STREAMERS.len();
                stream_ns[k] += schedule_ns;
                stream_edges[k] += job_graph(inst, j).edge_count() as u64;
                replay_ns += r;
                moves += m;
            }
        }
    }

    values.set_percentile("graphs.build_us_p50", giga_build_us, 0.5);
    values.set("validate.calls", (inst.giga.len() * STREAMERS.len()) as f64);
    values.set(
        "validate.stream_ns_per_move",
        replay_ns as f64 / moves.max(1) as f64,
    );
    values.set("exact.states_expanded", expanded as f64);
    values.set("exact.generated", generated as f64);
    values.set(
        "exact.expansions_per_s",
        expanded as f64 / (exact_ns as f64 / 1e9),
    );
    values.set("exact.open_list_peak", peak as f64);
    values.set("exact.re_expansions", re as f64);
    values.set("exact.symmetry_pruned", sym as f64);
    for (k, name) in STREAMERS.iter().enumerate() {
        values.set(
            &format!("streaming.{name}.ns_per_edge"),
            stream_ns[k] as f64 / stream_edges[k].max(1) as f64,
        );
    }
    values.set("streaming.moves", moves as f64);
    // The traced pass takes no timer the untraced passes do not.
    values.set("trace.overhead_share", 0.0);
    values.into_report(&mut report);
    Ok(report)
}
