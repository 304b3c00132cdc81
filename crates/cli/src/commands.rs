//! Command implementations.
//!
//! Every command builds the shared workload-erased
//! [`AnyGraph`] and routes scheduling through the typed request API
//! ([`ScheduleRequest`] → `pebblyn-schedulers::api::execute_with`) — the
//! same single entry point the engine's sweep evaluator and the
//! `pebblyn serve` daemon use.  The `sweep` and `min-memory` commands
//! are thin declarations over the `pebblyn-engine` plans.
//!
//! Report lines go to one writer handed to [`run`], and a failed write
//! comes back as [`CliError::Io`] rather than a panic, so a reader that
//! hangs up early (`pebblyn schedule ... --emit | head -1`) ends the run
//! cleanly.

use crate::args::{Command, StreamFamily};
use crate::error::CliError;
use pebblyn::prelude::*;
use pebblyn::service::{serve_stream, serve_unix};
use std::io::Write;

/// `writeln!` to the report writer, propagating a failed write.
macro_rules! say {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).map_err(stdout_error)?
    };
}

/// A failed report write, as the typed error `main` reports (or, for a
/// closed pipe, ends quietly on).
fn stdout_error(source: std::io::Error) -> CliError {
    CliError::Io {
        path: "<stdout>".into(),
        source,
    }
}

/// The trait object a `--scheduler` registry name denotes.  The parser
/// already validated the name, so a miss here is unreachable in the
/// binary; it still degrades to the same usage error rather than a panic
/// for library callers handing in a raw [`Command`].
fn resolve(name: &str) -> Result<&'static dyn Scheduler, CliError> {
    api::by_name(name).ok_or_else(|| {
        let valid: Vec<&str> = api::registry().iter().map(|s| s.name()).collect();
        CliError::Usage(format!(
            "unknown --scheduler {name}; valid names: {}",
            valid.join(", ")
        ))
    })
}

/// Resolve and check applicability, with the workload-specific hint.
fn ensure_supported(g: &AnyGraph, name: &str) -> Result<&'static dyn Scheduler, CliError> {
    let sched = resolve(name)?;
    if sched.supports(g) {
        return Ok(sched);
    }
    Err(CliError::Unsupported(match sched.name() {
        "dwt-opt" => "the optimal DP is DWT-specific; pick the workload's scheduler",
        "mvm-tiling" => "tiling is MVM-specific; pick the workload's scheduler",
        "conv-stream" => "streaming is Conv-specific; pick the workload's scheduler",
        "banded-stream" => "banded streaming is BandedMVM-specific; pick the workload's scheduler",
        "kary" => "the k-ary DP needs an in-tree CDAG; pick the workload's scheduler",
        _ => "scheduler does not support this workload",
    }))
}

/// The human-readable name the reports print for a registry name.
fn display_name(name: &str) -> &'static str {
    match name {
        "dwt-opt" => "optimal DP (Algorithm 1)",
        "kary" => "k-ary tree DP",
        "layer-by-layer" => "layer-by-layer baseline",
        "naive" => "naive topological",
        "mvm-tiling" => "tiling (Section 4.3)",
        "conv-stream" => "sliding-window streaming",
        "banded-stream" => "banded streaming",
        "greedy-belady" => "Belady-eviction greedy",
        "topo-window" => "streaming window (Belady eviction)",
        "slab-partition" => "streaming slab partitioner",
        "partition-belady" => "level-partitioned Belady (best of q <= p)",
        "comm-list" => "communication-aware list scheduler",
        _ => "scheduler",
    }
}

/// Build one synthetic giant CDAG of roughly `nodes` nodes (see
/// `pebblyn_synth::giga`); structured families round down to their
/// nearest admissible shape, never up, so `--nodes` is an upper bound
/// on the structured part of the graph size.
fn build_stream_graph(
    family: StreamFamily,
    nodes: usize,
    seed: u64,
    fan_in: usize,
) -> pebblyn::core::Cdag {
    use pebblyn::synth::{dwt_giga, layered_random_giga, mvm_giga};
    match family {
        StreamFamily::Dwt => {
            // Full-depth pyramid: 3·inputs − 2 nodes for power-of-two inputs.
            let target = nodes.div_ceil(3).max(4);
            let inputs = if target.is_power_of_two() {
                target
            } else {
                target.next_power_of_two() / 2
            };
            dwt_giga(inputs, inputs.trailing_zeros() as usize)
        }
        StreamFamily::Mvm => {
            // cols·(rows + 1) nodes: a near-square accumulation grid.
            let cols = (nodes as f64).sqrt() as usize;
            let cols = cols.max(2);
            let rows = (nodes / cols).saturating_sub(1).max(1);
            mvm_giga(rows, cols)
        }
        StreamFamily::Layered => {
            let width = ((nodes as f64).sqrt() as usize).max(fan_in).max(2);
            let layers = (nodes / width).max(2);
            layered_random_giga(layers, width, fan_in, seed)
        }
    }
}

/// One line describing the machine for report headers, e.g.
/// `4 processors x 160 bits` or `processors of 192, 64 bits`.
fn machine_summary(machine: &MachineSpec) -> String {
    let budgets: Vec<Weight> = machine.procs().iter().map(|p| p.budget()).collect();
    if budgets.windows(2).all(|w| w[0] == w[1]) {
        format!("{} processors x {} bits", machine.num_procs(), budgets[0])
    } else {
        let list: Vec<String> = budgets.iter().map(Weight::to_string).collect();
        format!("processors of {} bits", list.join(", "))
    }
}

/// `pebblyn schedule --procs P ...`: run the multiprocessor game and
/// report total I/O, makespan and communication alongside the
/// single-processor metrics.
fn schedule_multi(
    g: &AnyGraph,
    sched: &'static dyn Scheduler,
    scheduler: &'static str,
    machine: &MachineSpec,
    emit: bool,
    out_file: Option<String>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    if out_file.is_some() {
        return Err(CliError::Usage(
            "--out writes the single-processor M1..M4 text format and does not \
             apply to multiprocessor schedules"
                .into(),
        ));
    }
    if !sched.supports_machine(g, machine) {
        return Err(CliError::Unsupported(
            "this scheduler plays the single-processor game only; use \
             partition-belady or comm-list with --procs > 1",
        ));
    }
    let cdag = g.cdag();
    say!(
        out,
        "{} on {}, comm price {}",
        g.name(),
        machine_summary(machine),
        machine.comm_price()
    );
    let req = ScheduleRequest::new(g, machine.clone(), scheduler);
    let resp = api::execute_with(sched, &req).map_err(|e| match e {
        ScheduleError::InfeasibleBudget { min_feasible } => CliError::Infeasible {
            scheduler: display_name(scheduler),
            budget: machine.max_proc_budget(),
            min_feasible: min_feasible.or(Some(min_feasible_budget(cdag))),
        },
        e => CliError::from_schedule_error(e, display_name(scheduler), machine.max_proc_budget()),
    })?;
    let multi = resp
        .into_multi_schedule()
        .expect("full multiprocessor request returns moves");
    // Replay for the report's stats; the executor already validated.
    let stats = validate_multi_schedule(cdag, machine, &multi)?;
    say!(out, "scheduler:   {}", display_name(scheduler));
    say!(
        out,
        "moves:       {} ({} communications)",
        stats.moves,
        stats.comm_moves
    );
    say!(
        out,
        "total I/O:   {} bits (lower bound {}, comm {} of it)",
        stats.total_cost(),
        algorithmic_lower_bound(cdag),
        stats.comm_cost
    );
    say!(out, "makespan:    {} bit-times", stats.makespan);
    say!(
        out,
        "busy procs:  {} of {}, peak red {:?}",
        stats.procs_used(),
        machine.num_procs(),
        stats.peak_red
    );
    if emit {
        say!(out, "\n{multi}");
    }
    Ok(())
}

/// `pebblyn sweep --procs P ...`: cost and makespan vs the per-processor
/// budget over the same log lattice the single-processor sweep uses.
fn sweep_multi(
    g: &AnyGraph,
    sched: &'static dyn Scheduler,
    scheduler: &'static str,
    budgets: Vec<Weight>,
    procs: usize,
    comm_price: Weight,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    say!(out, "budget_bits,cost_bits,makespan_bits,comm_bits");
    for b in budgets {
        let machine = MachineSpec::symmetric(procs, b).with_comm_price(comm_price);
        if !sched.supports_machine(g, &machine) {
            return Err(CliError::Unsupported(
                "this scheduler plays the single-processor game only; use \
                 partition-belady or comm-list with --procs > 1",
            ));
        }
        let req = ScheduleRequest::new(g, machine, scheduler).with_cost_only(true);
        match api::execute_with(sched, &req) {
            Ok(resp) => say!(
                out,
                "{b},{},{},{}",
                resp.cost(),
                resp.makespan()
                    .expect("multiprocessor answers carry makespan"),
                resp.comm_cost()
                    .expect("multiprocessor answers carry comm cost"),
            ),
            Err(ScheduleError::InfeasibleBudget { .. }) => say!(out, "{b},inf,inf,inf"),
            Err(e) => return Err(CliError::from_schedule_error(e, display_name(scheduler), b)),
        }
    }
    Ok(())
}

/// Execute a parsed command, writing its report to `out`.
///
/// The stdio `serve` transport writes its frames to its own stdout
/// handle, so pass an unlocked handle here, never a held lock.
pub fn run(cmd: Command, out: &mut dyn Write) -> Result<(), CliError> {
    match cmd {
        Command::Schedule {
            workload,
            scheme,
            scheduler,
            machine,
            emit,
            optimize,
            out: out_file,
        } => {
            let g = AnyGraph::build(workload, scheme)?;
            let sched = ensure_supported(&g, scheduler)?;
            let cdag = g.cdag();
            let Some(budget) = machine.uniprocessor_budget() else {
                return schedule_multi(&g, sched, scheduler, &machine, emit, out_file, out);
            };
            say!(out, "{} under {scheme}, budget {budget} bits", g.name());
            let req = ScheduleRequest::new(&g, budget, scheduler);
            let mut schedule = match api::execute_with(sched, &req) {
                Ok(resp) => resp.into_schedule().expect("full request returns moves"),
                Err(ScheduleError::InfeasibleBudget { min_feasible }) => {
                    return Err(CliError::Infeasible {
                        scheduler: display_name(scheduler),
                        budget,
                        // Always offer the Prop. 2.3 minimum, as this
                        // command historically did.
                        min_feasible: min_feasible.or(Some(min_feasible_budget(cdag))),
                    });
                }
                Err(e) => {
                    return Err(CliError::from_schedule_error(
                        e,
                        display_name(scheduler),
                        budget,
                    ))
                }
            };
            if optimize {
                let (optimized, pstats) = peephole(cdag, &schedule);
                say!(out, "peephole:    removed {} moves", pstats.removed());
                schedule = optimized;
            }
            let stats = validate_schedule(cdag, budget, &schedule)?;
            say!(out, "scheduler:   {}", display_name(scheduler));
            say!(out, "moves:       {}", stats.moves);
            say!(
                out,
                "cost:        {} bits (lower bound {})",
                stats.cost,
                algorithmic_lower_bound(cdag)
            );
            say!(out, "peak red:    {} bits", stats.peak_red_weight);
            if emit {
                say!(out, "\n{schedule}");
            }
            if let Some(path) = out_file {
                std::fs::write(&path, pebblyn::core::io::to_text(&schedule)).map_err(|source| {
                    CliError::Io {
                        path: path.clone(),
                        source,
                    }
                })?;
                say!(out, "schedule written to {path}");
            }
            Ok(())
        }
        Command::Stream {
            family,
            nodes,
            seed,
            fan_in,
            scheduler,
            budget,
        } => {
            use std::time::Instant;
            let t0 = Instant::now();
            let cdag = build_stream_graph(family, nodes, seed, fan_in);
            let (n, e) = (cdag.len(), cdag.edge_count());
            let built = t0.elapsed();
            let g = AnyGraph::custom(format!("{}-giga", family.name()), cdag);
            let cdag = g.cdag();
            say!(
                out,
                "{}: {n} nodes / {e} edges (built in {:.2}s), budget {budget} bits",
                g.name(),
                built.as_secs_f64()
            );
            let sched = ensure_supported(&g, scheduler)?;
            let t1 = Instant::now();
            let schedule = sched
                .schedule(&g, budget)
                .map_err(|e| CliError::from_schedule_error(e, display_name(scheduler), budget))?;
            let scheduled = t1.elapsed();
            let stats = validate_schedule(cdag, budget, &schedule)?;
            let lb = algorithmic_lower_bound(cdag);
            say!(out, "scheduler:   {}", display_name(scheduler));
            say!(
                out,
                "cost:        {} bits (lower bound {lb}, gap {:.4}x)",
                stats.cost,
                stats.cost as f64 / lb as f64
            );
            say!(
                out,
                "peak red:    {} of {budget} bits · {} moves",
                stats.peak_red_weight,
                stats.moves
            );
            say!(
                out,
                "scheduled in {:.2}s ({:.0} ns/edge, single pass)",
                scheduled.as_secs_f64(),
                scheduled.as_secs_f64() * 1e9 / e as f64
            );
            Ok(())
        }
        Command::MinMemory {
            workload,
            scheme,
            scheduler,
        } => {
            let g = AnyGraph::build(workload, scheme)?;
            let name = g.name();
            let res = MinMemoryPlan::new("cli min-memory")
                .to_lower_bound(Series::scheduler(resolve(scheduler)?))
                .workload(g)
                .run();
            let bits = res.rows[0].min_bits.ok_or(CliError::Target(
                "scheduler never reaches the algorithmic lower bound",
            ))?;
            let word = scheme.word_bits();
            say!(out, "{name} under {scheme}, {}", display_name(scheduler));
            say!(
                out,
                "minimum fast memory: {} words = {bits} bits",
                bits / word
            );
            say!(out, "power-of-two:        {} bits", round_pow2(bits));
            Ok(())
        }
        Command::Sweep {
            workload,
            scheme,
            scheduler,
            points,
            procs,
            comm_price,
        } => {
            let g = AnyGraph::build(workload, scheme)?;
            let sched = ensure_supported(&g, scheduler)?;
            let lattice = BudgetSpec::LogLattice {
                points,
                word: scheme.word_bits(),
            };
            if procs > 1 {
                let budgets = lattice.budgets(&g);
                return sweep_multi(&g, sched, scheduler, budgets, procs, comm_price, out);
            }
            let res = SweepPlan::new("cli sweep", lattice)
                .workload(g)
                .series(Series::scheduler(sched))
                .run();
            say!(out, "budget_bits,cost_bits");
            for row in &res.rows {
                match row.cost {
                    Some(c) => say!(out, "{},{c}", row.budget),
                    None => say!(out, "{},inf", row.budget),
                }
            }
            Ok(())
        }
        Command::Exact {
            workload,
            scheme,
            budget,
            max_states,
        } => {
            let g = AnyGraph::build(workload, scheme)?;
            let cdag = g.cdag();
            let solver = ExactSolver::with_max_states(max_states);
            say!(out, "{} under {scheme}, budget {budget} bits", g.name());
            say!(
                out,
                "solver:      A* · landmark-pdb bound · dominance · macro moves · twin + WL \
                 symmetry"
            );
            let sol = solver.solve(cdag, budget)?;
            let st = sol.stats;
            let Some(cost) = sol.cost else {
                return Err(CliError::Infeasible {
                    scheduler: "exact A*",
                    budget,
                    min_feasible: Some(min_feasible_budget(cdag)),
                });
            };
            say!(
                out,
                "optimum:     {cost} bits (lower bound {}, root bound {})",
                algorithmic_lower_bound(cdag),
                st.root_bound
            );
            say!(
                out,
                "expanded:    {} states ({} generated, {} re-expansions)",
                st.expanded,
                st.generated,
                st.re_expanded
            );
            say!(
                out,
                "pruned:      {} dominated · {} re-reached · {} orbit-merged \
                 ({} dominance entries)",
                st.dominated,
                st.deduped,
                st.symmetry_pruned,
                st.dominance_entries
            );
            say!(
                out,
                "frontier:    {} open at exit · peak {} ({}-word state masks)",
                st.frontier_left,
                st.peak_open,
                st.mask_words
            );
            Ok(())
        }
        Command::Synth { bits, word } => {
            let m = SramConfig {
                capacity_bits: bits,
                word_bits: word,
            }
            .synthesize(&Process::default());
            say!(
                out,
                "capacity:    {} bits ({} words)",
                m.capacity_bits,
                m.words()
            );
            say!(
                out,
                "array:       {} rows x {} cols (mux {})",
                m.rows,
                m.cols,
                m.mux
            );
            say!(out, "area:        {:.0} λ²", m.area_l2);
            say!(out, "leakage:     {:.2} mW", m.leakage_mw);
            say!(out, "read power:  {:.2} mW", m.read_power_mw);
            say!(out, "write power: {:.2} mW", m.write_power_mw);
            say!(out, "read perf:   {:.1} GB/s", m.read_gbps);
            say!(out, "write perf:  {:.1} GB/s", m.write_gbps);
            Ok(())
        }
        Command::Dot { workload, scheme } => {
            let g = AnyGraph::build(workload, scheme)?;
            write!(out, "{}", g.cdag().to_dot()).map_err(stdout_error)?;
            Ok(())
        }
        Command::Trace {
            workload,
            scheme,
            scheduler,
            budget,
        } => {
            use pebblyn::core::render_sparkline;
            let g = AnyGraph::build(workload, scheme)?;
            let sched = ensure_supported(&g, scheduler)?;
            let cdag = g.cdag();
            let req = ScheduleRequest::new(&g, budget, scheduler);
            let schedule = api::execute_with(sched, &req)
                .map_err(|e| CliError::from_schedule_error(e, display_name(scheduler), budget))?
                .into_schedule()
                .expect("full request returns moves");
            let trace = occupancy_trace(cdag, &schedule)?;
            let s = summarize(&trace);
            say!(
                out,
                "{} under {scheme}, {}",
                g.name(),
                display_name(scheduler)
            );
            say!(
                out,
                "occupancy over {} moves (budget {budget} bits):",
                trace.len()
            );
            say!(out, "  {}", render_sparkline(&trace, 72));
            say!(
                out,
                "peak {} bits | mean {:.0} bits | {:.0}% of moves within 90% of peak",
                s.peak,
                s.mean,
                100.0 * s.time_at_peak
            );
            Ok(())
        }
        Command::Serve {
            socket,
            queue_depth,
            workers,
            cache,
        } => {
            let service = std::sync::Arc::new(Service::new(&ServiceConfig {
                cache,
                ..ServiceConfig::default()
            }));
            let server = Server::start(
                std::sync::Arc::clone(&service),
                &ServerConfig {
                    queue_depth,
                    workers,
                },
            );
            match socket {
                Some(path) => {
                    eprintln!("pebblyn serve: listening on {path}");
                    serve_unix(&server, std::path::Path::new(&path)).map_err(|source| {
                        CliError::Io {
                            path: path.clone(),
                            source,
                        }
                    })?;
                }
                None => {
                    // Stdio transport: one framed conversation, then exit.
                    let stdin = std::io::stdin();
                    let mut stdout = std::io::stdout();
                    serve_stream(&server, stdin, &mut stdout).map_err(|source| CliError::Io {
                        path: "<stdio>".into(),
                        source,
                    })?;
                }
            }
            server.shutdown();
            if let Some(cache) = service.cache() {
                let st = cache.stats();
                eprintln!(
                    "pebblyn serve: {} hits / {} misses over {} cached entries",
                    st.hits(),
                    st.misses(),
                    st.entries()
                );
            }
            Ok(())
        }
        Command::TelemetryReport { path } => {
            let text = std::fs::read_to_string(&path).map_err(|source| CliError::Io {
                path: path.clone(),
                source,
            })?;
            let records =
                pebblyn::telemetry::schema::validate_jsonl(&text).map_err(CliError::Telemetry)?;
            write!(out, "{}", pebblyn::telemetry::schema::report(&records))
                .map_err(stdout_error)?;
            Ok(())
        }
    }
}
