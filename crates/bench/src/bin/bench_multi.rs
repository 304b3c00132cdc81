//! Multiprocessor scheduler sweep: `results/bench_multi.json`.
//!
//! For each workload family (DWT, MVM, layered-random) and each
//! multiprocessor scheduler (`partition-belady`, `comm-list`), play the
//! p-processor WRBPG at p ∈ {1, 2, 4, 8} with a fixed per-processor
//! budget and record the two axes the multiprocessor game trades
//! between: **makespan** (the parallel finishing time under per-processor
//! clocks) and **total I/O** (slow-memory traffic plus communication).
//! The headline structure the artifact documents: partition-belady's
//! (makespan, total-I/O) pair never worsens as processors are added (it
//! is best-of-q by construction), and at p = 1 both schedulers reproduce
//! the single-processor greedy-Belady answer exactly — zero
//! communication, makespan equal to the serial busy time.
//!
//! Wall times are single-host medians of five passes; only ratios are
//! portable.
//!
//! ```sh
//! cargo run --release -p pebblyn-bench --bin bench_multi
//! ```

use pebblyn::prelude::*;
use pebblyn::schedulers::multi;
use pebblyn_bench::results_dir;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::time::Instant;

/// Processor-count ladder.
const PROCS: &[usize] = &[1, 2, 4, 8];
/// Timed passes per point; the median is reported.
const PASSES: usize = 5;
/// Layered-random generator seed — fixed so the artifact is reproducible.
const SEED: u64 = 7;

fn build(family: &str) -> Cdag {
    match family {
        "dwt" => DwtGraph::new(256, 8, WeightScheme::Equal(16))
            .expect("admissible DWT shape")
            .cdag()
            .clone(),
        "mvm" => MvmGraph::new(96, 120, WeightScheme::DoubleAccumulator(16))
            .expect("admissible MVM shape")
            .cdag()
            .clone(),
        "layered" => {
            let mut rng = ChaCha8Rng::seed_from_u64(SEED);
            pebblyn::graphs::testgraphs::random_layered_dag(24, 48, 4..=16, &mut rng)
                .expect("admissible layered shape")
        }
        other => unreachable!("unknown family {other}"),
    }
}

struct Point {
    family: &'static str,
    scheduler: &'static str,
    procs: usize,
    proc_budget: Weight,
    io_cost: Weight,
    comm_cost: Weight,
    makespan: Weight,
    moves: u64,
    comm_moves: u64,
    procs_used: usize,
    wall_ms: f64,
}

fn main() {
    type MultiFn = fn(&Cdag, &MachineSpec) -> Result<(MultiSchedule, MultiStats), ScheduleError>;
    let schedulers: [(&str, MultiFn); 2] = [
        ("partition-belady", multi::partition_schedule_with_stats),
        ("comm-list", multi::comm_list_schedule_with_stats),
    ];

    let mut points: Vec<Point> = Vec::new();
    for family in ["dwt", "mvm", "layered"] {
        let cdag = build(family);
        let lb = algorithmic_lower_bound(&cdag);
        // Tight but feasible per-processor memory: the Prop. 2.3 minimum
        // plus one word of slack, so eviction pressure is real at every p
        // and identical across the ladder.
        let budget = min_feasible_budget(&cdag) + 16;
        for (name, run) in schedulers {
            let mut prev: Option<(Weight, Weight)> = None;
            for &p in PROCS {
                let spec = MachineSpec::symmetric(p, budget);
                let mut pass_ms = Vec::with_capacity(PASSES);
                let mut result = None;
                for _ in 0..PASSES {
                    let t = Instant::now();
                    let r = run(&cdag, &spec).expect("budget above the Prop. 2.3 minimum");
                    pass_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    result = Some(r);
                }
                pass_ms.sort_by(f64::total_cmp);
                let (schedule, stats) = result.expect("at least one pass ran");
                let replay = validate_multi_schedule(&cdag, &spec, &schedule)
                    .expect("multiprocessor schedules replay cleanly");
                assert_eq!(replay.total_cost(), stats.total_cost());
                assert!(stats.io_cost >= lb, "I/O below the Prop. 2.4 bound");
                if p == 1 {
                    assert_eq!(stats.comm_moves, 0, "p=1 must not communicate");
                }
                if name == "partition-belady" {
                    // Best-of-q construction: adding processors never hurts.
                    let key = (stats.makespan, stats.total_cost());
                    if let Some(prev) = prev {
                        assert!(key <= prev, "{family}: partition-belady worsened at p={p}");
                    }
                    prev = Some(key);
                }
                println!(
                    "{family:>7}  {name:<17}  p={p}  makespan {:>8}  io {:>8}  comm {:>6}  ({:>6.2} ms)",
                    stats.makespan,
                    stats.total_cost(),
                    stats.comm_cost,
                    pass_ms[PASSES / 2],
                );
                points.push(Point {
                    family,
                    scheduler: name,
                    procs: p,
                    proc_budget: budget,
                    io_cost: stats.io_cost,
                    comm_cost: stats.comm_cost,
                    makespan: stats.makespan,
                    moves: stats.moves,
                    comm_moves: stats.comm_moves,
                    procs_used: stats.procs_used(),
                    wall_ms: pass_ms[PASSES / 2],
                });
            }
        }
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"pebblyn/bench_multi/v1\",");
    let _ = writeln!(
        json,
        "  \"description\": \"Multiprocessor WRBPG sweep: partition-belady and comm-list on \
         DWT(256,8)/MVM(96,120)/layered-random(24x48, seed 7) machines of p in {{1,2,4,8}} \
         identical processors at a fixed per-processor budget (Prop. 2.3 minimum + one \
         16-bit word) and the default communication price 2. total_io_bits = slow-memory \
         loads + stores + communication; makespan_bits is the parallel finishing time under \
         per-processor clocks (weights double as durations); at p=1 both schedulers equal \
         single-processor greedy-Belady with zero communication, and partition-belady's \
         (makespan, total_io) is non-worsening in p by construction. wall_ms is a \
         single-host median of five passes; only ratios are portable.\","
    );
    let _ = writeln!(
        json,
        "  \"command\": \"cargo run --release -p pebblyn-bench --bin bench_multi\","
    );
    let _ = writeln!(json, "  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"family\": \"{}\",", p.family);
        let _ = writeln!(json, "      \"scheduler\": \"{}\",", p.scheduler);
        let _ = writeln!(json, "      \"procs\": {},", p.procs);
        let _ = writeln!(json, "      \"proc_budget_bits\": {},", p.proc_budget);
        let _ = writeln!(
            json,
            "      \"total_io_bits\": {},",
            p.io_cost + p.comm_cost
        );
        let _ = writeln!(json, "      \"slow_io_bits\": {},", p.io_cost);
        let _ = writeln!(json, "      \"comm_bits\": {},", p.comm_cost);
        let _ = writeln!(json, "      \"makespan_bits\": {},", p.makespan);
        let _ = writeln!(json, "      \"moves\": {},", p.moves);
        let _ = writeln!(json, "      \"comm_moves\": {},", p.comm_moves);
        let _ = writeln!(json, "      \"procs_used\": {},", p.procs_used);
        let _ = writeln!(json, "      \"wall_ms\": {:.3}", p.wall_ms);
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    let path = results_dir().join("bench_multi.json");
    std::fs::write(&path, &json).expect("write bench_multi.json");
    println!("\nwrote {}", path.display());
}
