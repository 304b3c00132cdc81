//! `pebblyn` — command-line driver for the WRBPG toolkit.
//!
//! ```text
//! pebblyn schedule  --workload dwt --n 256 --d 8 --weights equal --budget 10w
//! pebblyn min-memory --workload mvm --m 96 --cols 120 --weights da
//! pebblyn sweep     --workload dwt --n 256 --d 8 --points 20
//! pebblyn exact     --workload dwt --n 8 --d 3 --budget 7w --telemetry run.jsonl
//! pebblyn serve     --socket /tmp/pebblyn.sock --queue-depth 64
//! pebblyn telemetry-report run.jsonl
//! pebblyn synth     --bits 2048
//! pebblyn dot       --workload dwt --n 8 --d 3
//! ```

use pebblyn::telemetry;
use pebblyn_cli::{args, commands, CliError};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = args::parse_invocation(&argv).and_then(|inv| {
        if let Some(path) = &inv.telemetry {
            telemetry::enable();
            let sink = telemetry::JsonlSink::create(path).map_err(|source| CliError::Io {
                path: path.clone(),
                source,
            })?;
            telemetry::install_sink(Box::new(sink));
        }
        let label = inv.command.name();
        let out = commands::run(inv.command, &mut std::io::stdout());
        // Flush even on a runtime error: a partial run's counters are
        // exactly what post-mortems want. No-op when telemetry is off.
        telemetry::flush_run(label);
        out
    });
    if let Err(e) = result {
        // The reader hung up (`pebblyn ... | head -1`): it has all it
        // asked for, so this is a normal end, not an error.
        if e.is_broken_pipe() {
            return;
        }
        if matches!(e, CliError::Usage(_)) {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::USAGE);
        } else {
            eprintln!("error: {e}");
        }
        std::process::exit(e.exit_code());
    }
}
