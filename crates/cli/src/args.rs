//! Hand-rolled argument parsing (no external CLI dependency).
//!
//! Workload parameters parse straight into the shared
//! [`Workload`] record from `pebblyn-graphs`; every parse failure is a
//! [`CliError::Usage`] (exit code 2, usage text printed).  [`USAGE`] is
//! the one list of options: any `--option` it does not document is a
//! usage error.

use crate::error::CliError;
use pebblyn::prelude::*;

/// CLI usage text.
pub const USAGE: &str = "\
pebblyn — Weighted Red-Blue Pebble Game toolkit

USAGE:
  pebblyn <COMMAND> [OPTIONS]

COMMANDS:
  schedule     generate and validate a schedule for a workload
  stream       schedule a synthetic giant CDAG (up to millions of nodes)
               with the O(E) streaming schedulers
  min-memory   compute the minimum fast memory size (Definition 2.6)
  sweep        print cost vs fast-memory-size series for a workload
  exact        solve a workload optimally (bound-guided A* search)
  synth        synthesize an SRAM macro for a capacity
  trace        render a schedule's fast-memory occupancy over time
  dot          print the workload CDAG in Graphviz DOT format
  serve        run the scheduling daemon (wire protocol over stdio or
               a unix socket, canonicalizing schedule cache)
  telemetry-report <FILE>
               summarize a telemetry JSONL file written by --telemetry

WORKLOAD OPTIONS (schedule, min-memory, sweep, exact, dot):
  --workload dwt|mvm|conv|dwt2d|banded
                           (required)
  --n <N>                  DWT/Conv inputs, 2-D image side, or banded
                           dimension [default 256 / 16 / 64]
  --d <D>                  DWT levels [default max for n]
  --k <K>                  Conv filter taps [default 8]
  --levels <L>             2-D DWT levels [default 2]
  --m <M> --cols <N>       MVM rows/columns [default 96x120]
  --bandwidth <B>          banded MVM half-bandwidth [default 4]
  --weights equal|da       weight configuration [default equal]
  --word <BITS>            word size in bits [default 16]
  --scheduler <NAME>       a registry name: dwt-opt|kary|mvm-tiling|
                           conv-stream|banded-stream|layer-by-layer|
                           greedy-belady|topo-window|slab-partition|
                           naive (aliases: opt, lbl, tiling, stream,
                           banded, belady, window, slab)
                           [default: per-workload]

STREAM OPTIONS:
  --family dwt|mvm|layered synthetic giant-CDAG family [default layered]
  --nodes <N>              approximate node count [default 1000000]
  --seed <S>               layered-random seed [default 7]
  --fan-in <F>             layered-random max fan-in [default 3]
  --scheduler <NAME>       topo-window (default) or slab-partition;
                           any registry name is accepted
  --budget <BITS|Nw>       fast memory budget (required)

SERVE OPTIONS:
  --socket <PATH>          listen on a unix socket instead of stdio
  --queue-depth <N>        bounded request queue; overflow sheds [64]
  --workers <N>            worker threads [default: machine-sized]
  --no-cache               disable the canonicalizing schedule cache

EXACT OPTIONS:
  --max-states <N>         expanded-state cap [default 5000000]

OTHER OPTIONS:
  --budget <BITS|Nw>       fast memory budget, bits or words (e.g. 99w)
  --procs <P>              (schedule, sweep) play the multiprocessor game
                           on P identical processors of --budget bits each
                           [default 1: the classic single-processor game]
  --proc-budgets a,b,...   (schedule) per-processor budgets, bits or words;
                           replaces --budget, length must match --procs
                           when both are given
  --comm-price <W>         red-to-red communication price multiplier
                           [default 2: priced like a store + a load]
  --points <K>             sweep points [default 20]
  --bits <BITS>            synth capacity in bits
  --emit                   print the full move sequence (schedule)
  --optimize               run the peephole passes before reporting
  --out <FILE>             write the schedule in the M1..M4 text format
  --telemetry <FILE>       (any command) record run counters and phase
                           timers to FILE as schema-versioned JSONL;
                           inspect with telemetry-report
";

/// Map a `--scheduler` value — a registry name or one of the historical
/// CLI aliases — to its canonical registry name, validated against the
/// live scheduler registry at parse time.  An unknown name is a
/// [`CliError::Usage`] (exit 2) that lists every valid registry name, so
/// the driver's error is actionable without reading the docs.
pub fn resolve_scheduler(input: &str) -> Result<&'static str, CliError> {
    let name = match input {
        "opt" | "optimal" => "dwt-opt",
        "lbl" => "layer-by-layer",
        "tiling" => "mvm-tiling",
        "stream" => "conv-stream",
        "banded" => "banded-stream",
        "belady" => "greedy-belady",
        "window" => "topo-window",
        "slab" => "slab-partition",
        other => other,
    };
    match api::by_name(name) {
        Some(s) => Ok(s.name()),
        None => {
            let valid: Vec<&str> = api::registry().iter().map(|s| s.name()).collect();
            Err(usage(format!(
                "unknown --scheduler {input}; valid names: {}",
                valid.join(", ")
            )))
        }
    }
}

/// Synthetic giant-CDAG family for `pebblyn stream` (see
/// `pebblyn_synth::giga`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamFamily {
    /// Full-depth 1-D DWT pyramid (`dwt_giga`).
    Dwt,
    /// Matrix-vector partial-accumulation grid (`mvm_giga`).
    Mvm,
    /// Seeded layered-random DAG (`layered_random_giga`).
    Layered,
}

impl StreamFamily {
    /// The `--family` spelling.
    pub fn name(self) -> &'static str {
        match self {
            StreamFamily::Dwt => "dwt",
            StreamFamily::Mvm => "mvm",
            StreamFamily::Layered => "layered",
        }
    }
}

/// A parsed command.
#[derive(Debug, Clone)]
#[allow(missing_docs)]
pub enum Command {
    /// Generate, validate and report one schedule.
    Schedule {
        workload: Workload,
        scheme: WeightScheme,
        scheduler: &'static str,
        machine: MachineSpec,
        emit: bool,
        optimize: bool,
        out: Option<String>,
    },
    /// Schedule a synthetic giant CDAG with the streaming schedulers.
    Stream {
        family: StreamFamily,
        nodes: usize,
        seed: u64,
        fan_in: usize,
        scheduler: &'static str,
        budget: Weight,
    },
    /// Compute the minimum fast memory size (Definition 2.6).
    MinMemory {
        workload: Workload,
        scheme: WeightScheme,
        scheduler: &'static str,
    },
    /// Print a cost vs budget series as CSV.
    Sweep {
        workload: Workload,
        scheme: WeightScheme,
        scheduler: &'static str,
        points: usize,
        procs: usize,
        comm_price: Weight,
    },
    /// Solve the workload optimally with the bound-guided A* search.
    Exact {
        workload: Workload,
        scheme: WeightScheme,
        budget: Weight,
        max_states: usize,
    },
    /// Synthesize an SRAM macro.
    Synth { bits: u64, word: u64 },
    /// Print the CDAG in Graphviz DOT format.
    Dot {
        workload: Workload,
        scheme: WeightScheme,
    },
    /// Render the occupancy trace of a schedule.
    Trace {
        workload: Workload,
        scheme: WeightScheme,
        scheduler: &'static str,
        budget: Weight,
    },
    /// Run the scheduling daemon.
    Serve {
        socket: Option<String>,
        queue_depth: usize,
        workers: usize,
        cache: bool,
    },
    /// Summarize a telemetry JSONL file.
    TelemetryReport { path: String },
}

impl Command {
    /// The subcommand name, used as the telemetry run label.
    pub fn name(&self) -> &'static str {
        match self {
            Command::Schedule { .. } => "schedule",
            Command::Stream { .. } => "stream",
            Command::MinMemory { .. } => "min-memory",
            Command::Sweep { .. } => "sweep",
            Command::Exact { .. } => "exact",
            Command::Synth { .. } => "synth",
            Command::Dot { .. } => "dot",
            Command::Trace { .. } => "trace",
            Command::Serve { .. } => "serve",
            Command::TelemetryReport { .. } => "telemetry-report",
        }
    }
}

/// A parsed invocation: the global options plus the command.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// `--telemetry <FILE>`: record run counters to this JSONL file.
    pub telemetry: Option<String>,
    /// The subcommand.
    pub command: Command,
}

/// Parse `argv` into an [`Invocation`] (global flags + command).
pub fn parse_invocation(argv: &[String]) -> Result<Invocation, CliError> {
    let telemetry = argv
        .iter()
        .position(|a| a == "--telemetry")
        .map(|i| {
            argv.get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .cloned()
                .ok_or_else(|| usage("missing value for --telemetry"))
        })
        .transpose()?;
    Ok(Invocation {
        telemetry,
        command: parse(argv)?,
    })
}

struct Opts<'a> {
    argv: &'a [String],
}

/// Whether [`USAGE`] documents the option `arg` (a `--name` token).
fn known_option(arg: &str) -> bool {
    arg.starts_with("--")
        && USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .any(|token| token == arg)
}

impl<'a> Opts<'a> {
    /// Reject the first `--option` that [`USAGE`] does not document, so a
    /// typo or a retired flag is a usage error rather than silently
    /// ignored.  A documented option that does not apply to the command
    /// stays ignored (see the `procs` closure in [`parse`]).
    fn reject_unknown(&self) -> Result<(), CliError> {
        match self
            .argv
            .iter()
            .find(|a| a.starts_with("--") && !known_option(a))
        {
            Some(a) => Err(usage(format!("unknown option {a}"))),
            None => Ok(()),
        }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.argv
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.argv.get(i + 1))
            .map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.argv.iter().any(|a| a == key)
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| CliError::Usage(format!("invalid {key}: {s}"))),
        }
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Parse `argv` into a [`Command`].
pub fn parse(argv: &[String]) -> Result<Command, CliError> {
    let cmd = argv
        .first()
        .ok_or_else(|| usage("missing command"))?
        .as_str();
    let opts = Opts { argv: &argv[1..] };
    opts.reject_unknown()?;

    let word: u64 = opts.parse_num("--word", 16)?;
    if word == 0 {
        return Err(usage("--word must be positive"));
    }
    let scheme = match opts.get("--weights").unwrap_or("equal") {
        "equal" => WeightScheme::Equal(word),
        "da" | "double-accumulator" => WeightScheme::DoubleAccumulator(word),
        other => return Err(usage(format!("unknown --weights {other} (equal|da)"))),
    };

    let workload = || -> Result<Workload, CliError> {
        match opts
            .get("--workload")
            .ok_or_else(|| usage("missing --workload"))?
        {
            "dwt" => {
                let n: usize = opts.parse_num("--n", 256)?;
                let d = match opts.get("--d") {
                    Some(s) => s.parse().map_err(|_| usage(format!("invalid --d: {s}")))?,
                    None => DwtGraph::max_level(n)
                        .ok_or_else(|| usage(format!("no admissible level for n = {n}")))?,
                };
                Ok(Workload::Dwt { n, d })
            }
            "mvm" => Ok(Workload::Mvm {
                m: opts.parse_num("--m", 96)?,
                n: opts.parse_num("--cols", 120)?,
            }),
            "conv" => Ok(Workload::Conv {
                n: opts.parse_num("--n", 256)?,
                k: opts.parse_num("--k", 8)?,
            }),
            "dwt2d" => Ok(Workload::Dwt2d {
                n: opts.parse_num("--n", 16)?,
                levels: opts.parse_num("--levels", 2)?,
            }),
            "banded" => Ok(Workload::Banded {
                n: opts.parse_num("--n", 64)?,
                bandwidth: opts.parse_num("--bandwidth", 4)?,
            }),
            other => Err(usage(format!(
                "unknown --workload {other} (dwt|mvm|conv|dwt2d|banded)"
            ))),
        }
    };

    let scheduler = |w: &Workload| -> Result<&'static str, CliError> {
        let default = match w {
            Workload::Dwt { .. } => "dwt-opt",
            Workload::Mvm { .. } => "mvm-tiling",
            Workload::Conv { .. } => "conv-stream",
            Workload::Dwt2d { .. } => "greedy-belady",
            Workload::Banded { .. } => "banded-stream",
        };
        resolve_scheduler(opts.get("--scheduler").unwrap_or(default))
    };

    // Bits with an optional `w` (words) suffix, e.g. `99w` = 99 · word.
    let bits = |key: &str, s: &str| -> Result<Weight, CliError> {
        if let Some(words) = s.strip_suffix('w') {
            words
                .parse::<Weight>()
                .map(|w| w * word)
                .map_err(|_| usage(format!("invalid {key}: {s}")))
        } else {
            s.parse().map_err(|_| usage(format!("invalid {key}: {s}")))
        }
    };

    let budget = || -> Result<Weight, CliError> {
        let s = opts
            .get("--budget")
            .ok_or_else(|| usage("missing --budget"))?;
        bits("--budget", s)
    };

    // `--procs` with a zero guard; commands that cannot go multiprocessor
    // simply never call this (an unused `--procs` is ignored like any
    // other inapplicable flag).
    let procs = || -> Result<usize, CliError> {
        let p: usize = opts.parse_num("--procs", 1)?;
        if p == 0 {
            return Err(usage("--procs must be at least 1"));
        }
        Ok(p)
    };

    // The full machine: `--procs N` identical copies of `--budget`, or
    // explicit heterogeneous `--proc-budgets a,b,...`, with `--comm-price`
    // on top.  Inconsistent combinations are usage errors, not silent
    // precedence rules.
    let machine = || -> Result<MachineSpec, CliError> {
        let comm_price: Weight = opts.parse_num("--comm-price", DEFAULT_COMM_PRICE)?;
        let spec = match opts.get("--proc-budgets") {
            Some(list) => {
                let budgets = list
                    .split(',')
                    .map(|s| bits("--proc-budgets", s.trim()).map(ProcBudget::new))
                    .collect::<Result<Vec<_>, _>>()?;
                if budgets.is_empty() {
                    return Err(usage("--proc-budgets needs at least one budget"));
                }
                if let Some(p) = opts.get("--procs") {
                    let p: usize = p
                        .parse()
                        .map_err(|_| usage(format!("invalid --procs: {p}")))?;
                    if p != budgets.len() {
                        return Err(usage(format!(
                            "--procs {p} does not match the {} budgets in --proc-budgets",
                            budgets.len()
                        )));
                    }
                }
                if opts.get("--budget").is_some() {
                    return Err(usage(
                        "--budget conflicts with --proc-budgets (budgets are per-processor)",
                    ));
                }
                MachineSpec::new(budgets)
            }
            None => MachineSpec::symmetric(procs()?, budget()?),
        };
        Ok(spec.with_comm_price(comm_price))
    };

    match cmd {
        "schedule" => {
            let w = workload()?;
            Ok(Command::Schedule {
                workload: w,
                scheme,
                scheduler: scheduler(&w)?,
                machine: machine()?,
                emit: opts.flag("--emit"),
                optimize: opts.flag("--optimize"),
                out: opts.get("--out").map(String::from),
            })
        }
        "stream" => {
            let family = match opts.get("--family").unwrap_or("layered") {
                "dwt" => StreamFamily::Dwt,
                "mvm" => StreamFamily::Mvm,
                "layered" => StreamFamily::Layered,
                other => return Err(usage(format!("unknown --family {other} (dwt|mvm|layered)"))),
            };
            let nodes: usize = opts.parse_num("--nodes", 1_000_000)?;
            if nodes < 16 {
                return Err(usage("--nodes must be at least 16"));
            }
            let fan_in: usize = opts.parse_num("--fan-in", 3)?;
            if fan_in == 0 {
                return Err(usage("--fan-in must be positive"));
            }
            Ok(Command::Stream {
                family,
                nodes,
                seed: opts.parse_num("--seed", 7)?,
                fan_in,
                scheduler: resolve_scheduler(opts.get("--scheduler").unwrap_or("topo-window"))?,
                budget: budget()?,
            })
        }
        "min-memory" => {
            let w = workload()?;
            Ok(Command::MinMemory {
                workload: w,
                scheme,
                scheduler: scheduler(&w)?,
            })
        }
        "sweep" => {
            if opts.get("--proc-budgets").is_some() {
                return Err(usage(
                    "--proc-budgets applies to schedule only; sweep varies the \
                     per-processor budget itself (use --procs)",
                ));
            }
            let w = workload()?;
            Ok(Command::Sweep {
                workload: w,
                scheme,
                scheduler: scheduler(&w)?,
                points: opts.parse_num("--points", 20)?,
                procs: procs()?,
                comm_price: opts.parse_num("--comm-price", DEFAULT_COMM_PRICE)?,
            })
        }
        "exact" => Ok(Command::Exact {
            workload: workload()?,
            scheme,
            budget: budget()?,
            max_states: opts.parse_num("--max-states", 5_000_000)?,
        }),
        "synth" => Ok(Command::Synth {
            bits: opts
                .get("--bits")
                .ok_or_else(|| usage("missing --bits"))?
                .parse()
                .map_err(|_| usage("invalid --bits"))?,
            word,
        }),
        "dot" => Ok(Command::Dot {
            workload: workload()?,
            scheme,
        }),
        "trace" => {
            let w = workload()?;
            Ok(Command::Trace {
                workload: w,
                scheme,
                scheduler: scheduler(&w)?,
                budget: budget()?,
            })
        }
        "serve" => {
            let queue_depth: usize = opts.parse_num("--queue-depth", 64)?;
            if queue_depth == 0 {
                return Err(usage("--queue-depth must be positive"));
            }
            Ok(Command::Serve {
                socket: opts.get("--socket").map(String::from),
                queue_depth,
                workers: opts.parse_num("--workers", 0)?,
                cache: !opts.flag("--no-cache"),
            })
        }
        "telemetry-report" => {
            let path = argv
                .get(1)
                .filter(|s| !s.starts_with("--"))
                .cloned()
                .ok_or_else(|| usage("telemetry-report requires a JSONL file argument"))?;
            Ok(Command::TelemetryReport { path })
        }
        "-h" | "--help" | "help" => Err(usage("help requested")),
        other => Err(usage(format!("unknown command: {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_schedule_with_word_budget() {
        let c = parse(&argv(
            "schedule --workload dwt --n 256 --d 8 --weights equal --budget 10w",
        ))
        .unwrap();
        match c {
            Command::Schedule {
                workload: Workload::Dwt { n: 256, d: 8 },
                machine,
                scheduler: "dwt-opt",
                emit: false,
                optimize: false,
                ..
            } => assert_eq!(machine, MachineSpec::uniprocessor(160)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multiprocessor_flags_build_the_machine() {
        // --procs with a shared --budget: symmetric machine.
        let c = parse(&argv(
            "schedule --workload dwt --n 16 --d 2 --budget 10w --procs 4 --comm-price 3",
        ))
        .unwrap();
        match c {
            Command::Schedule { machine, .. } => {
                assert_eq!(machine, MachineSpec::symmetric(4, 160).with_comm_price(3));
            }
            other => panic!("unexpected {other:?}"),
        }

        // --proc-budgets: heterogeneous, word suffixes allowed, default
        // communication price.
        let c = parse(&argv(
            "schedule --workload dwt --n 16 --d 2 --proc-budgets 12w,64",
        ))
        .unwrap();
        match c {
            Command::Schedule { machine, .. } => {
                assert_eq!(machine.num_procs(), 2);
                assert_eq!((machine.proc_budget(0), machine.proc_budget(1)), (192, 64));
                assert_eq!(machine.comm_price(), DEFAULT_COMM_PRICE);
            }
            other => panic!("unexpected {other:?}"),
        }

        // Sweep accepts --procs / --comm-price.
        match parse(&argv("sweep --workload dwt --n 16 --d 2 --procs 2")).unwrap() {
            Command::Sweep {
                procs: 2,
                comm_price: DEFAULT_COMM_PRICE,
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn inconsistent_multiprocessor_flags_are_usage_errors() {
        for bad in [
            // Zero processors.
            "schedule --workload dwt --n 16 --d 2 --budget 10w --procs 0",
            "sweep --workload dwt --n 16 --d 2 --procs 0",
            // Count disagrees with the explicit budget list.
            "schedule --workload dwt --n 16 --d 2 --procs 3 --proc-budgets 64,64",
            // Scalar and per-processor budgets both given.
            "schedule --workload dwt --n 16 --d 2 --budget 64 --proc-budgets 64,64",
            // Unparseable list entry.
            "schedule --workload dwt --n 16 --d 2 --proc-budgets 64,nope",
            // Sweep generates its own budgets; a fixed list is a mistake.
            "sweep --workload dwt --n 16 --d 2 --proc-budgets 64,64",
        ] {
            let err = parse(&argv(bad)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad}: {err}");
        }
    }

    #[test]
    fn default_d_is_max_level() {
        let c = parse(&argv("dot --workload dwt --n 96")).unwrap();
        match c {
            Command::Dot {
                workload: Workload::Dwt { n: 96, d: 5 },
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mvm_defaults() {
        let c = parse(&argv("min-memory --workload mvm --weights da")).unwrap();
        match c {
            Command::MinMemory {
                workload: Workload::Mvm { m: 96, n: 120 },
                scheduler: "mvm-tiling",
                scheme: WeightScheme::DoubleAccumulator(16),
            } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn banded_defaults_to_streaming() {
        let c = parse(&argv(
            "schedule --workload banded --n 32 --bandwidth 3 --budget 40w",
        ))
        .unwrap();
        match c {
            Command::Schedule {
                workload:
                    Workload::Banded {
                        n: 32,
                        bandwidth: 3,
                    },
                scheduler: "banded-stream",
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scheduler_aliases_resolve_to_registry_names() {
        for (alias, name) in [
            ("opt", "dwt-opt"),
            ("optimal", "dwt-opt"),
            ("lbl", "layer-by-layer"),
            ("tiling", "mvm-tiling"),
            ("stream", "conv-stream"),
            ("banded", "banded-stream"),
            ("belady", "greedy-belady"),
            // Registry names pass through untouched.
            ("naive", "naive"),
            ("kary", "kary"),
            ("greedy-belady", "greedy-belady"),
        ] {
            assert_eq!(resolve_scheduler(alias).unwrap(), name, "{alias}");
        }
    }

    #[test]
    fn unknown_scheduler_is_a_usage_error_listing_valid_names() {
        let err = resolve_scheduler("warp-drive").unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let msg = err.to_string();
        for name in api::registry().iter().map(|s| s.name()) {
            assert!(msg.contains(name), "{msg} must list {name}");
        }
        // End-to-end: the schedule command surfaces the same error.
        let err = parse(&argv(
            "schedule --workload dwt --n 8 --d 3 --budget 200 --scheduler warp-drive",
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("valid names"));
    }

    #[test]
    fn stream_parses_with_defaults_and_aliases() {
        match parse(&argv("stream --budget 64w")).unwrap() {
            Command::Stream {
                family: StreamFamily::Layered,
                nodes: 1_000_000,
                seed: 7,
                fan_in: 3,
                scheduler: "topo-window",
                budget: 1024,
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv(
            "stream --family dwt --nodes 100000 --scheduler slab --budget 4096",
        ))
        .unwrap()
        {
            Command::Stream {
                family: StreamFamily::Dwt,
                nodes: 100_000,
                scheduler: "slab-partition",
                budget: 4096,
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(resolve_scheduler("window").unwrap(), "topo-window");
        assert!(parse(&argv("stream --family fft --budget 64w")).is_err());
        assert!(parse(&argv("stream --nodes 4 --budget 64w")).is_err());
        assert!(parse(&argv("stream --fan-in 0 --budget 64w")).is_err());
        assert!(parse(&argv("stream")).is_err()); // budget is required
    }

    #[test]
    fn serve_parses_with_defaults_and_flags() {
        match parse(&argv("serve")).unwrap() {
            Command::Serve {
                socket: None,
                queue_depth: 64,
                workers: 0,
                cache: true,
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv(
            "serve --socket /tmp/p.sock --queue-depth 8 --workers 2 --no-cache",
        ))
        .unwrap()
        {
            Command::Serve {
                socket: Some(s),
                queue_depth: 8,
                workers: 2,
                cache: false,
            } => assert_eq!(s, "/tmp/p.sock"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            parse(&argv("serve --queue-depth 0"))
                .unwrap_err()
                .exit_code(),
            2
        );
    }

    #[test]
    fn rejects_unknown_bits() {
        assert!(parse(&argv("schedule --workload dwt --budget nope")).is_err());
        assert!(parse(&argv("schedule --workload fft --budget 10w")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn only_options_usage_documents_are_accepted() {
        for known in ["--workload", "--n", "--cols", "--max-states", "--telemetry"] {
            assert!(known_option(known), "{known}");
        }
        for unknown in [
            "--max-state",
            "--heuristic",
            "--no-symmetry",
            "--",
            "workload",
        ] {
            assert!(!known_option(unknown), "{unknown}");
        }
        let err = parse(&argv(
            "exact --workload dwt --n 4 --budget 112 --bogus-flag",
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert_eq!(err.to_string(), "unknown option --bogus-flag");
        // Documented but inapplicable: ignored, as before.
        assert!(parse(&argv("exact --workload dwt --n 4 --budget 112 --points 5")).is_ok());
    }

    #[test]
    fn parse_failures_are_usage_errors() {
        for bad in [
            "frobnicate",
            "help",
            "schedule --workload dwt --budget nope",
        ] {
            let err = parse(&argv(bad)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad}");
        }
    }
}
