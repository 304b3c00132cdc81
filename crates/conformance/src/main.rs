//! The `conformance` binary: fuzz the scheduler registry (exact regime),
//! the streaming schedulers (`--streaming`) or the multiprocessor ones
//! (`--multi`), or certify the harness itself in mutation-smoke mode.
//!
//! ```text
//! cargo run --release -p pebblyn-conformance -- --seed 3 --cases 2000
//! cargo run --release -p pebblyn-conformance -- --mutation-smoke
//! ```
//!
//! Exit codes: `0` clean, `1` violations found (or a mutant escaped),
//! `2` usage error.

use pebblyn_conformance::{
    multi_schedulers, mutation_smoke, run_regime, streaming_schedulers, Config, Regime,
    DEFAULT_PROCS,
};
use pebblyn_schedulers::registry;
use pebblyn_telemetry as telemetry;
use std::process::ExitCode;

const USAGE: &str = "\
USAGE: conformance [OPTIONS]

Differential conformance fuzzing for the pebblyn scheduler stack.

OPTIONS:
  --seed <N>          master seed (default 3); every case replays from
                      (seed, index) alone
  --cases <K>         number of cases (default 1000); in mutation-smoke
                      mode, the per-mutant hunting budget (default 64)
  --mutation-smoke    inject known-bad schedulers and verify the oracle
                      catches every one (certifies the harness itself)
  --streaming         run the STREAMING regime instead: the same oracle
                      on the streaming schedulers with the exact
                      cross-check off (Prop. 2.3 feasibility, replay-cost
                      identity, metamorphic relations, Prop. 2.4 bound gap
                      recorded)
  --multi             run the MULTI regime instead: certify the
                      multiprocessor schedulers (replay, per-processor
                      budgets, I/O and makespan floors, p=1 byte-identity
                      to greedy-belady, monotonicity in p, work
                      conservation)
  --procs <LIST>      comma-separated processor counts for --multi
                      (default 1,2,4)
  --max-states <N>    exact-solver state cap per probe (default 2000000)
  --failure-out <F>   also write failing shrunk cases to this file
  --telemetry <F>     record run counters to this JSONL file (schema
                      pebblyn-telemetry/v1) and cross-check the report's
                      exact-state total against the solver's own counter
  --help              print this help
";

struct Args {
    seed: u64,
    cases: Option<u64>,
    mutation_smoke: bool,
    streaming: bool,
    multi: bool,
    procs: Vec<usize>,
    max_states: usize,
    failure_out: Option<String>,
    telemetry: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 3,
        cases: None,
        mutation_smoke: false,
        streaming: false,
        multi: false,
        procs: DEFAULT_PROCS.to_vec(),
        max_states: 2_000_000,
        failure_out: None,
        telemetry: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--cases" => {
                args.cases = Some(
                    value("--cases")?
                        .parse()
                        .map_err(|e| format!("bad --cases: {e}"))?,
                );
            }
            "--max-states" => {
                args.max_states = value("--max-states")?
                    .parse()
                    .map_err(|e| format!("bad --max-states: {e}"))?;
            }
            "--failure-out" => args.failure_out = Some(value("--failure-out")?),
            "--telemetry" => args.telemetry = Some(value("--telemetry")?),
            "--mutation-smoke" => args.mutation_smoke = true,
            "--streaming" => args.streaming = true,
            "--multi" => args.multi = true,
            "--procs" => {
                let v = value("--procs")?;
                args.procs = v
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|&p| p >= 1)
                            .ok_or_else(|| {
                                format!("bad --procs: {v:?} (comma-separated counts >= 1)")
                            })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if args.procs.is_empty() {
                    return Err("bad --procs: empty list".to_string());
                }
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut cfg = Config {
        seed: args.seed,
        cases: args
            .cases
            .unwrap_or(if args.mutation_smoke { 64 } else { 1000 }),
        ..Config::default()
    };
    cfg.oracle = cfg.oracle.with_max_states(args.max_states);

    if let Some(path) = &args.telemetry {
        telemetry::enable();
        match telemetry::JsonlSink::create(path) {
            Ok(sink) => telemetry::install_sink(Box::new(sink)),
            Err(e) => {
                eprintln!("error: cannot open telemetry file {path}: {e}\n");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    if (args.mutation_smoke as u8) + (args.streaming as u8) + (args.multi as u8) > 1 {
        eprintln!("error: --mutation-smoke, --streaming and --multi are mutually exclusive\n");
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    if args.mutation_smoke {
        return smoke(&cfg);
    }

    // Each regime: its scheduler set, its header, the flags that
    // reproduce it, and its telemetry run name.
    let exact = !args.streaming && !args.multi;
    let streaming = streaming_schedulers();
    let multi = multi_schedulers();
    let procs = args
        .procs
        .iter()
        .map(|p| p.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let (regime, flags, run_name) = if args.streaming {
        cfg.oracle = cfg.oracle.with_exhaustive_max_nodes(0);
        println!(
            "conformance (STREAMING regime): seed {} · {} cases · invariant-only, bound gap recorded",
            cfg.seed, cfg.cases
        );
        (
            Regime::Oracle(&streaming),
            "--streaming ".to_string(),
            "conformance-streaming",
        )
    } else if args.multi {
        println!(
            "conformance (MULTI regime): seed {} · {} cases · procs {{{procs}}}",
            cfg.seed, cfg.cases
        );
        (
            Regime::Multi(&multi, &args.procs),
            format!("--multi --procs {procs} "),
            "conformance-multi",
        )
    } else {
        println!(
            "conformance: seed {} · {} cases · exact state cap {}",
            cfg.seed,
            cfg.cases,
            cfg.oracle.max_states()
        );
        (Regime::Oracle(registry()), String::new(), "conformance")
    };

    let report = run_regime(&cfg, regime);
    if args.streaming {
        println!(
            "checked {} cases / {} probes ({} feasible) · Prop. 2.4 gap: worst {:.4}x · mean {:.4}x",
            report.cases, report.probes, report.feasible_probes, report.worst_gap, report.mean_gap
        );
    } else if args.multi {
        println!(
            "checked {} cases / {} probes · {} communication moves observed",
            report.cases, report.probes, report.comm_moves
        );
    } else {
        println!(
            "checked {} cases / {} budget probes · {} exact-certified · {} exact-skipped (state cap) · {} states expanded",
            report.cases, report.budgets, report.exact_certified, report.exact_skipped, report.exact_states
        );
    }

    if args.telemetry.is_some() {
        if exact && report.is_clean() {
            // On a clean exact-regime run (no shrinking re-runs to skew the
            // counter) the report's exact-state total and the solver's own
            // telemetry counter account for the same solves; CI pins this
            // invariant.
            let counted = telemetry::counter(telemetry::Counter::StatesExpanded);
            if counted != report.exact_states as u64 {
                println!(
                    "TELEMETRY MISMATCH: report counted {} exact states but the solver's \
                     telemetry counter reads {counted}",
                    report.exact_states
                );
                telemetry::flush_run(run_name);
                return ExitCode::FAILURE;
            }
            println!("telemetry: states_expanded counter matches the report ({counted})");
        }
        telemetry::flush_run(run_name);
    }
    if report.is_clean() {
        println!("OK: zero violations");
        return ExitCode::SUCCESS;
    }

    let mut body = String::new();
    for f in &report.failures {
        body.push_str(&f.to_string());
        body.push('\n');
    }
    println!("{} FAILING CASE(S):\n{body}", report.failures.len());
    println!(
        "reproduce with: cargo run --release -p pebblyn-conformance -- {flags}--seed {} --cases {}",
        cfg.seed, cfg.cases
    );
    if let Some(path) = &args.failure_out {
        if let Err(e) = std::fs::write(path, &body) {
            eprintln!("warning: could not write {path}: {e}");
        } else {
            println!("failing shrunk cases written to {path}");
        }
    }
    ExitCode::FAILURE
}

fn smoke(cfg: &Config) -> ExitCode {
    println!(
        "mutation smoke: seed {} · up to {} cases per mutant",
        cfg.seed, cfg.cases
    );
    let reports = mutation_smoke(cfg);
    let mut escaped = 0usize;
    for (name, r) in &reports {
        if let Some(ex) = r.failures.first() {
            println!(
                "CAUGHT {name} after {} case(s); shrunk to {} nodes at budget {}",
                r.cases,
                ex.shrunk.graph.len(),
                ex.shrunk.budget
            );
            println!("  {}", ex.shrunk_detail);
        } else {
            escaped += 1;
            println!(
                "ESCAPED {name} — survived {} cases undetected (the net has a hole)",
                r.cases
            );
        }
    }
    telemetry::flush_run("mutation-smoke");
    if escaped == 0 {
        println!("OK: all {} injected mutants caught", reports.len());
        ExitCode::SUCCESS
    } else {
        println!("{escaped} mutant(s) escaped");
        ExitCode::FAILURE
    }
}
