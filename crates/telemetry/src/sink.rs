//! Pluggable telemetry sinks.
//!
//! A [`Sink`] receives [`Event`]s from [`crate::flush_run`].  Three
//! implementations cover the common cases: [`JsonlSink`] appends
//! schema-versioned JSON lines to a file, [`InMemorySink`] buffers events
//! for test assertions, and [`SummarySink`] prints a human-readable table
//! to stderr (stderr so that byte-compared stdout goldens stay clean).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::schema;
use crate::Snapshot;

/// One telemetry emission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Totals for one labelled run (a CLI invocation, a bench panel, ...).
    Run {
        /// Caller-chosen run label.
        label: String,
        /// Counter/gauge/span totals at flush time.
        snapshot: Snapshot,
    },
}

/// Receiver of telemetry events.  Implementations must tolerate being
/// flushed multiple times and receiving zero events.
pub trait Sink: Send {
    /// Record one event.
    fn record(&mut self, event: &Event);
    /// Persist anything buffered (default: nothing to do).
    fn flush(&mut self) {}
}

/// Buffers events in memory behind an `Arc<Mutex<..>>` so tests can hold a
/// handle while the sink itself is installed into the global registry.
#[derive(Debug, Default)]
pub struct InMemorySink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl InMemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared handle onto the event buffer; clones observe all events
    /// recorded after the sink was installed.
    pub fn handle(&self) -> Arc<Mutex<Vec<Event>>> {
        Arc::clone(&self.events)
    }
}

impl Sink for InMemorySink {
    fn record(&mut self, event: &Event) {
        self.events
            .lock()
            .expect("in-memory sink poisoned")
            .push(event.clone());
    }
}

/// Appends one schema-versioned JSON object per event to a file.
/// The line format is defined in [`crate::schema`].
#[derive(Debug)]
pub struct JsonlSink {
    writer: BufWriter<File>,
}

impl JsonlSink {
    /// Create (truncating) the JSONL file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(JsonlSink {
            writer: BufWriter::new(File::create(path)?),
        })
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, event: &Event) {
        let Event::Run { label, snapshot } = event;
        // Ignore write errors at record time; flush surfaces them loudly.
        let _ = writeln!(self.writer, "{}", schema::run_to_json(label, snapshot));
    }

    fn flush(&mut self) {
        if let Err(e) = self.writer.flush() {
            eprintln!("telemetry: failed to flush JSONL sink: {e}");
        }
    }
}

/// Prints a human-readable per-run summary to stderr when the run is
/// flushed.  Zero-valued counters and gauges are omitted.
#[derive(Debug, Default)]
pub struct SummarySink;

impl SummarySink {
    /// A summary sink.
    pub fn new() -> Self {
        SummarySink
    }
}

impl Sink for SummarySink {
    fn record(&mut self, event: &Event) {
        let Event::Run { label, snapshot } = event;
        eprintln!("telemetry summary [{label}]");
        for &(name, v) in &snapshot.counters {
            if v != 0 {
                eprintln!("  {name:<24} {v}");
            }
        }
        for &(name, v) in &snapshot.gauges {
            if v != 0 {
                eprintln!("  {name:<24} {v}");
            }
        }
        for &(name, ns) in &snapshot.spans_ns {
            eprintln!("  span {name:<19} {:.3} ms", ns as f64 / 1e6);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_event() -> Event {
        Event::Run {
            label: "t".into(),
            snapshot: Snapshot {
                counters: vec![("states_expanded", 5), ("moves_emitted", 0)],
                gauges: vec![("open_list_peak", 3)],
                spans_ns: vec![("solve", 1_500_000)],
            },
        }
    }

    #[test]
    fn in_memory_sink_shares_buffer() {
        let mut sink = InMemorySink::new();
        let handle = sink.handle();
        sink.record(&sample_event());
        assert_eq!(handle.lock().unwrap().len(), 1);
    }

    #[test]
    fn jsonl_sink_writes_valid_lines() {
        let dir = std::env::temp_dir().join("pebblyn-telemetry-sink-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.jsonl");
        let mut sink = JsonlSink::create(&path).unwrap();
        sink.record(&sample_event());
        sink.record(&sample_event());
        sink.flush();
        drop(sink);
        let text = std::fs::read_to_string(&path).unwrap();
        let runs = schema::validate_jsonl(&text).expect("lines validate");
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].label, "t");
        assert_eq!(runs[0].counters.get("states_expanded"), Some(&5));
        std::fs::remove_dir_all(&dir).ok();
    }
}
