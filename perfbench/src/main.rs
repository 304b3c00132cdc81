//! pebblyn's benchmark: the daemon under repeat and cold traffic, and the
//! offline exact/streaming batch.  See `perfbench/README.md`.
//!
//! ```sh
//! perfbench --workload <serve-repeat|serve-cold|offline-batch> --seed N \
//!           --seconds S --trace <0|1> --daemon <path to pebblyn>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`, with
//! the end-to-end metrics when `--trace 0` and the per-layer metrics when
//! `--trace 1`.

mod daemon;
mod gen;
mod layers;
mod offline;
mod pipeline;
mod serve;
mod stats;

use std::path::PathBuf;
use std::time::Duration;

/// What one run hands back to `main` for printing.
#[derive(Default)]
pub struct Report {
    /// Requests or jobs attempted.
    pub attempted: u64,
    /// Attempts that were rejected, wrong, unreplayable or timed out.
    pub failed: u64,
    /// A check beyond the per-attempt ones (e.g. the drift guard) failed.
    pub check_failed: bool,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Record one metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            !self.check_failed && self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Parsed command line.
pub struct Args {
    /// Which workload.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: Duration,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// The `pebblyn` binary to serve with.
    pub daemon: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut daemon = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("bad {flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(Duration::from_secs(num()?.max(1))),
            "--trace" => trace = Some(num()? != 0),
            "--daemon" => daemon = Some(PathBuf::from(value)),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        daemon: daemon.ok_or("--daemon is required")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|msg| {
        eprintln!("perfbench: {msg}");
        std::process::exit(2);
    });
    let result = match args.workload.as_str() {
        "serve-repeat" => serve::repeat(&args),
        "serve-cold" => serve::cold(&args),
        "offline-batch" => offline::batch(&args),
        other => Err(format!(
            "unknown workload {other:?} (serve-repeat, serve-cold, offline-batch)"
        )),
    };
    match result {
        Ok(report) => println!("{}", report.json()),
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(1);
        }
    }
}
