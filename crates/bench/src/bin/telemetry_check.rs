//! CI validator for telemetry JSONL artifacts.
//!
//! ```sh
//! telemetry_check <file.jsonl> [--runs N] [--nonzero COUNTER]...
//!                 [--nonzero-gauge GAUGE]...
//! ```
//!
//! Parses every line against the `pebblyn-telemetry/v1` schema and applies
//! the requested assertions over the *sum* of each counter across runs
//! (gauges are high-water marks, so `--nonzero-gauge` checks the *max*
//! across runs instead).
//! Exit 0 when everything holds, 1 with a diagnostic otherwise, 2 on bad
//! invocation.

use pebblyn::telemetry::schema;
use std::process::ExitCode;

struct Checks {
    path: String,
    runs: Option<usize>,
    nonzero: Vec<String>,
    nonzero_gauge: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Checks, String> {
    let mut checks = Checks {
        path: String::new(),
        runs: None,
        nonzero: Vec::new(),
        nonzero_gauge: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--runs" => {
                checks.runs = Some(
                    value("--runs")?
                        .parse()
                        .map_err(|e| format!("bad --runs: {e}"))?,
                )
            }
            "--nonzero" => checks.nonzero.push(value("--nonzero")?),
            "--nonzero-gauge" => checks.nonzero_gauge.push(value("--nonzero-gauge")?),
            other if checks.path.is_empty() && !other.starts_with("--") => {
                checks.path = other.to_string();
            }
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    if checks.path.is_empty() {
        return Err("usage: telemetry_check <file.jsonl> [--runs N] \
                    [--nonzero COUNTER]... [--nonzero-gauge GAUGE]..."
            .into());
    }
    Ok(checks)
}

fn check(checks: &Checks) -> Result<(), String> {
    let text = std::fs::read_to_string(&checks.path)
        .map_err(|e| format!("cannot read {}: {e}", checks.path))?;
    let records = schema::validate_jsonl(&text)?;
    if records.is_empty() {
        return Err("no runs recorded".into());
    }
    if let Some(n) = checks.runs {
        if records.len() != n {
            return Err(format!("expected {n} run(s), found {}", records.len()));
        }
    }
    let total = |name: &str| -> u64 {
        records
            .iter()
            .map(|r| r.counters.get(name).copied().unwrap_or(0))
            .sum()
    };
    for name in &checks.nonzero {
        if total(name) == 0 {
            return Err(format!("counter {name} is zero across all runs"));
        }
    }
    for name in &checks.nonzero_gauge {
        let peak = records
            .iter()
            .map(|r| r.gauges.get(name).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        if peak == 0 {
            return Err(format!("gauge {name} is zero across all runs"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let checks = match parse_args(&argv) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    match check(&checks) {
        Ok(()) => {
            println!("OK: {} is schema-valid", checks.path);
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("FAIL: {}: {msg}", checks.path);
            ExitCode::FAILURE
        }
    }
}
