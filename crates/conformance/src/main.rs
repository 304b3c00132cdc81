//! The `conformance` binary: fuzz the scheduler registry, or certify the
//! harness itself in mutation-smoke mode.
//!
//! ```text
//! cargo run --release -p pebblyn-conformance -- --seed 3 --cases 2000
//! cargo run --release -p pebblyn-conformance -- --mutation-smoke
//! ```
//!
//! Exit codes: `0` clean, `1` violations found (or a mutant escaped),
//! `2` usage error.

use pebblyn_conformance::{mutation_smoke, run, run_multi, run_streaming, Config, DEFAULT_PROCS};
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
  --streaming         run the STREAMING regime instead: certify the
                      streaming schedulers by invariants alone (Prop. 2.3
                      feasibility, replay-cost identity, Prop. 2.4 bound
                      gap recorded) — no exact cross-check
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
    if args.streaming {
        return streaming(&cfg, args.telemetry.is_some(), args.failure_out.as_deref());
    }
    if args.multi {
        return multi(
            &cfg,
            &args.procs,
            args.telemetry.is_some(),
            args.failure_out.as_deref(),
        );
    }

    println!(
        "conformance: seed {} · {} cases · exact state cap {}",
        cfg.seed,
        cfg.cases,
        cfg.oracle.max_states()
    );
    let report = run(&cfg);
    println!(
        "checked {} cases / {} budget probes · {} exact-certified · {} exact-skipped (state cap) · {} states expanded",
        report.cases, report.budgets, report.exact_certified, report.exact_skipped, report.exact_states
    );

    if report.is_clean() {
        if args.telemetry.is_some() {
            // On a clean run (no shrinking re-runs to skew the counter) the
            // report's exact-state total and the solver's own telemetry
            // counter account for the same solves; CI pins this invariant.
            let counted = telemetry::counter(telemetry::Counter::StatesExpanded);
            if counted != report.exact_states as u64 {
                println!(
                    "TELEMETRY MISMATCH: report counted {} exact states but the solver's \
                     telemetry counter reads {counted}",
                    report.exact_states
                );
                telemetry::flush_run("conformance");
                return ExitCode::FAILURE;
            }
            println!("telemetry: states_expanded counter matches the report ({counted})");
            telemetry::flush_run("conformance");
        }
        println!("OK: zero violations");
        return ExitCode::SUCCESS;
    }
    if args.telemetry.is_some() {
        telemetry::flush_run("conformance");
    }

    let mut body = String::new();
    for f in &report.failures {
        body.push_str(&f.to_string());
        body.push('\n');
    }
    println!("{} FAILING CASE(S):\n{body}", report.failures.len());
    println!(
        "reproduce any case with: cargo run --release -p pebblyn-conformance -- --seed {} --cases {}",
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

fn streaming(cfg: &Config, telemetry_on: bool, failure_out: Option<&str>) -> ExitCode {
    println!(
        "conformance (STREAMING regime): seed {} · {} cases · invariant-only, bound gap recorded",
        cfg.seed, cfg.cases
    );
    let report = run_streaming(cfg);
    println!(
        "checked {} cases / {} probes ({} feasible) · Prop. 2.4 gap: worst {:.4}x · mean {:.4}x",
        report.cases, report.probes, report.feasible_probes, report.worst_gap, report.mean_gap
    );
    if telemetry_on {
        telemetry::flush_run("conformance-streaming");
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
        "reproduce with: cargo run --release -p pebblyn-conformance -- --streaming --seed {} --cases {}",
        cfg.seed, cfg.cases
    );
    if let Some(path) = failure_out {
        if let Err(e) = std::fs::write(path, &body) {
            eprintln!("warning: could not write {path}: {e}");
        } else {
            println!("failing shrunk cases written to {path}");
        }
    }
    ExitCode::FAILURE
}

fn multi(cfg: &Config, procs: &[usize], telemetry_on: bool, failure_out: Option<&str>) -> ExitCode {
    let procs_label = procs
        .iter()
        .map(|p| p.to_string())
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "conformance (MULTI regime): seed {} · {} cases · procs {{{procs_label}}}",
        cfg.seed, cfg.cases
    );
    let report = run_multi(cfg, procs);
    println!(
        "checked {} cases / {} probes · {} communication moves observed",
        report.cases, report.probes, report.comm_moves
    );
    if telemetry_on {
        telemetry::flush_run("conformance-multi");
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
        "reproduce with: cargo run --release -p pebblyn-conformance -- --multi --seed {} --cases {} --procs {procs_label}",
        cfg.seed, cfg.cases
    );
    if let Some(path) = failure_out {
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
    for r in &reports {
        if r.caught {
            let ex = r.example.as_ref().expect("caught implies example");
            println!(
                "CAUGHT {} after {} case(s); shrunk to {} nodes at budget {}",
                r.name,
                r.cases_tried,
                ex.shrunk.graph.len(),
                ex.shrunk.budget
            );
            println!("  {}", ex.shrunk_detail);
        } else {
            escaped += 1;
            println!(
                "ESCAPED {} — survived {} cases undetected (the net has a hole)",
                r.name, r.cases_tried
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
