//! Typed CLI errors with stable exit codes.
//!
//! Every failure the driver can hit is one [`CliError`] variant; the
//! binary maps it to a process exit code through [`CliError::exit_code`]
//! (2 for invocation errors, which also print the usage text; 1 for
//! everything else).  Keeping the mapping here — instead of scattering
//! `Result<_, String>` through the commands — makes exit behavior unit
//! testable without spawning the binary.

use pebblyn::core::ValidityError;
use pebblyn::graphs::ParamError;
use pebblyn::prelude::Weight;
use std::fmt;

/// Anything the CLI can fail with.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation (unknown command, malformed flag, or `--help`).
    /// The driver prints the usage text and exits 2.
    Usage(String),
    /// The workload parameters do not name a constructible graph.
    Graph(ParamError),
    /// A generated schedule (uniprocessor or multiprocessor) failed
    /// validation — a scheduler bug.
    Validity(ValidityError),
    /// The scheduler cannot fit the workload within the budget.
    Infeasible {
        /// Human-readable scheduler name.
        scheduler: &'static str,
        /// The requested budget in bits.
        budget: Weight,
        /// The smallest feasible budget, when the command computed it.
        min_feasible: Option<Weight>,
    },
    /// The scheduler does not apply to the workload family.
    Unsupported(&'static str),
    /// A minimum-memory search never reached its target.
    Target(&'static str),
    /// The exact search failed: expanded-state cap hit, or the graph is
    /// wider than the widest supported state mask.
    Search(pebblyn::prelude::ExactError),
    /// A telemetry JSONL file failed schema validation.
    Telemetry(String),
    /// Reading or writing a file, or writing the report to stdout, failed.
    Io {
        /// Destination path.
        path: String,
        /// Underlying error.
        source: std::io::Error,
    },
}

impl CliError {
    /// The process exit code for this error: 2 for usage errors
    /// (accompanied by the usage text), 1 otherwise.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            _ => 1,
        }
    }

    /// `true` for a write that failed because the reader closed the pipe.
    pub fn is_broken_pipe(&self) -> bool {
        matches!(self, CliError::Io { source, .. } if source.kind() == std::io::ErrorKind::BrokenPipe)
    }

    /// Map a typed [`ScheduleError`] to the CLI surface: `Unsupported` and
    /// `InfeasibleBudget` stay runtime errors (exit 1) with the CLI's
    /// established messages; `ValidationFailed` surfaces as the scheduler
    /// bug it is.
    pub fn from_schedule_error(
        e: pebblyn::prelude::ScheduleError,
        scheduler: &'static str,
        budget: Weight,
    ) -> Self {
        use pebblyn::prelude::ScheduleError;
        match e {
            ScheduleError::Unsupported => {
                CliError::Unsupported("scheduler does not support this workload")
            }
            ScheduleError::InfeasibleBudget { min_feasible } => CliError::Infeasible {
                scheduler,
                budget,
                min_feasible,
            },
            ScheduleError::ValidationFailed(v) | ScheduleError::MultiValidationFailed(v) => {
                CliError::Validity(v)
            }
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Unsupported(m) | CliError::Target(m) => write!(f, "{m}"),
            CliError::Graph(e) => write!(f, "{e}"),
            CliError::Validity(e) => write!(f, "generated schedule failed validation: {e}"),
            CliError::Infeasible {
                scheduler,
                budget,
                min_feasible: Some(m),
            } => write!(
                f,
                "no {scheduler} schedule exists at {budget} bits (minimum feasible: {m})"
            ),
            CliError::Infeasible {
                scheduler,
                budget,
                min_feasible: None,
            } => write!(f, "no {scheduler} schedule at {budget} bits"),
            CliError::Io { path, source } => write!(f, "{path}: {source}"),
            CliError::Search(e @ pebblyn::prelude::ExactError::StateLimit(_)) => {
                write!(f, "{e}; raise --max-states to keep searching")
            }
            CliError::Search(e) => write!(f, "{e}"),
            CliError::Telemetry(m) => write!(f, "telemetry file invalid: {m}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Graph(e) => Some(e),
            CliError::Validity(e) => Some(e),
            CliError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<pebblyn::prelude::ExactError> for CliError {
    fn from(e: pebblyn::prelude::ExactError) -> Self {
        CliError::Search(e)
    }
}

impl From<pebblyn::prelude::StateLimitExceeded> for CliError {
    fn from(e: pebblyn::prelude::StateLimitExceeded) -> Self {
        CliError::Search(e.into())
    }
}

impl From<ParamError> for CliError {
    fn from(e: ParamError) -> Self {
        CliError::Graph(e)
    }
}

impl From<ValidityError> for CliError {
    fn from(e: ValidityError) -> Self {
        CliError::Validity(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_errors_exit_2_everything_else_1() {
        assert_eq!(CliError::Usage("missing command".into()).exit_code(), 2);
        assert_eq!(CliError::Target("never reaches").exit_code(), 1);
        assert_eq!(
            CliError::Infeasible {
                scheduler: "x",
                budget: 1,
                min_feasible: None
            }
            .exit_code(),
            1
        );
        assert_eq!(
            CliError::Io {
                path: "p".into(),
                source: std::io::Error::other("boom"),
            }
            .exit_code(),
            1
        );
    }

    #[test]
    fn infeasible_messages_match_the_original_cli() {
        let with_min = CliError::Infeasible {
            scheduler: "optimal DP (Algorithm 1)",
            budget: 16,
            min_feasible: Some(48),
        };
        assert_eq!(
            with_min.to_string(),
            "no optimal DP (Algorithm 1) schedule exists at 16 bits (minimum feasible: 48)"
        );
        let without = CliError::Infeasible {
            scheduler: "naive topological",
            budget: 16,
            min_feasible: None,
        };
        assert_eq!(
            without.to_string(),
            "no naive topological schedule at 16 bits"
        );
    }

    #[test]
    fn validation_failures_are_prefixed() {
        let g = pebblyn::graphs::testgraphs::diamond(pebblyn::prelude::WeightScheme::Equal(8));
        let bad = pebblyn::prelude::Schedule::from_moves(vec![pebblyn::prelude::Move::Compute(
            pebblyn::prelude::NodeId(3),
        )]);
        let err = pebblyn::prelude::validate_schedule(&g, 1024, &bad).unwrap_err();
        let cli: CliError = err.into();
        assert!(cli
            .to_string()
            .starts_with("generated schedule failed validation: "));
    }
}
