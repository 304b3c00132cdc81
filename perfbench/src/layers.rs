//! The per-layer metrics every traced run reports, and their derivation
//! from a [`Tracer`].  A layer a workload never calls reports 0.

use crate::pipeline::{Layer, Tracer};
use crate::stats::percentile;
use crate::Report;
use std::collections::BTreeMap;

/// Schedulers in the serve mix, each with its own solve-time metric.
pub const SERVE_SCHEDULERS: [&str; 8] = [
    "greedy-belady",
    "dwt-opt",
    "mvm-tiling",
    "conv-stream",
    "banded-stream",
    "layer-by-layer",
    "partition-belady",
    "comm-list",
];

/// Every per-layer metric name with its unit, in output order.
pub fn names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("wire.decode_us_p50", "us"),
        ("wire.encode_us_p50", "us"),
        ("wire.encode_us_p99", "us"),
        ("wire.request_bytes_mean", "bytes"),
        ("wire.response_bytes_mean", "bytes"),
        ("graphs.build_us_p50", "us"),
        ("canon.identity_us_p50", "us"),
        ("canon.canonical_calls", "count"),
        ("canon.canonical_us_p50", "us"),
        ("canon.canonical_us_p99", "us"),
        ("canon.exact_share", "ratio"),
        ("canon.useful_share", "ratio"),
        ("cache.identity_hit_share", "ratio"),
        ("cache.canonical_hit_share", "ratio"),
        ("cache.lookup_us_p50", "us"),
        ("cache.lookup_us_p99", "us"),
        ("cache.transported_moves", "count"),
        ("cache.insert_us_p50", "us"),
        ("cache.entries", "count"),
        ("schedulers.solve_calls", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for s in SERVE_SCHEDULERS {
        v.push((format!("schedulers.{s}.solve_us_p50"), "us"));
    }
    v.extend(
        [
            ("schedulers.solve_us_p99", "us"),
            ("schedulers.moves_emitted", "count"),
            ("validate.calls", "count"),
            ("validate.ns_per_move", "ns/move"),
            ("validate.stream_ns_per_move", "ns/move"),
            ("exact.states_expanded", "count"),
            ("exact.generated", "count"),
            ("exact.expansions_per_s", "states/s"),
            ("exact.open_list_peak", "count"),
            ("exact.re_expansions", "count"),
            ("exact.symmetry_pruned", "count"),
            ("streaming.topo-window.ns_per_edge", "ns/edge"),
            ("streaming.slab-partition.ns_per_edge", "ns/edge"),
            ("streaming.moves", "count"),
            ("daemon.overhead_us_p50", "us"),
            ("trace.overhead_share", "ratio"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    v
}

/// Measured per-layer values, keyed by metric name.
#[derive(Default)]
pub struct LayerValues(BTreeMap<String, f64>);

impl LayerValues {
    /// Record `name` (which must be one of [`names`]).
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            names().iter().any(|(n, _)| n == name),
            "unlisted per-layer metric {name}"
        );
        self.0.insert(name.to_string(), value);
    }

    /// Record a percentile of `samples`, or 0 (with a note) when the
    /// sample cannot support it.
    pub fn set_percentile(&mut self, name: &str, samples: &[f64], q: f64) {
        match percentile(samples, q) {
            Ok(p) => self.set(name, p.value),
            Err(why) => {
                eprintln!("perfbench: {name} not reported: {why}");
                self.set(name, 0.0);
            }
        }
    }

    /// Emit every per-layer metric into `report`, 0 for layers not run.
    pub fn into_report(self, report: &mut Report) {
        for (name, unit) in names() {
            let value = self.0.get(&name).copied().unwrap_or(0.0);
            report.metric(name, value, unit);
        }
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The serve-path layers from a traced pipeline pass.
pub fn from_tracer(tr: &Tracer, cache_entries: u64, out: &mut LayerValues) {
    out.set_percentile("wire.decode_us_p50", &tr.us(Layer::Decode), 0.5);
    out.set_percentile("wire.encode_us_p50", &tr.us(Layer::Encode), 0.5);
    out.set_percentile("wire.encode_us_p99", &tr.us(Layer::Encode), 0.99);
    out.set(
        "wire.request_bytes_mean",
        tr.request_bytes as f64 / tr.requests.max(1) as f64,
    );
    out.set(
        "wire.response_bytes_mean",
        tr.response_bytes as f64 / tr.requests.max(1) as f64,
    );
    out.set_percentile("graphs.build_us_p50", &tr.us(Layer::Build), 0.5);
    out.set_percentile("canon.identity_us_p50", &tr.us(Layer::Identity), 0.5);
    out.set("canon.canonical_calls", tr.canonical_calls as f64);
    out.set_percentile("canon.canonical_us_p50", &tr.us(Layer::Canonical), 0.5);
    out.set_percentile("canon.canonical_us_p99", &tr.us(Layer::Canonical), 0.99);
    out.set(
        "canon.exact_share",
        share(tr.canonical_exact, tr.canonical_calls),
    );
    out.set(
        "canon.useful_share",
        share(tr.canonical_hits, tr.canonical_calls),
    );
    out.set(
        "cache.identity_hit_share",
        share(tr.identity_hits, tr.cache_requests),
    );
    out.set(
        "cache.canonical_hit_share",
        share(tr.canonical_hits, tr.cache_requests),
    );
    out.set_percentile("cache.lookup_us_p50", &tr.us(Layer::Lookup), 0.5);
    out.set_percentile("cache.lookup_us_p99", &tr.us(Layer::Lookup), 0.99);
    out.set("cache.transported_moves", tr.transported_moves as f64);
    out.set_percentile("cache.insert_us_p50", &tr.us(Layer::Insert), 0.5);
    out.set("cache.entries", cache_entries as f64);
    out.set(
        "schedulers.solve_calls",
        tr.spans[Layer::Solve as usize].len() as f64,
    );
    for (name, ns) in &tr.solve_by {
        let us: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
        out.set_percentile(&format!("schedulers.{name}.solve_us_p50"), &us, 0.5);
    }
    out.set_percentile("schedulers.solve_us_p99", &tr.us(Layer::Solve), 0.99);
    out.set("schedulers.moves_emitted", tr.moves_emitted as f64);
    out.set(
        "validate.calls",
        tr.spans[Layer::Validate as usize].len() as f64,
    );
    out.set(
        "validate.ns_per_move",
        tr.total_ns(Layer::Validate) as f64 / tr.validated_moves.max(1) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units reported here are the ones `BENCHMARK.json`
    /// declares, and no others.
    #[test]
    fn per_layer_names_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let per_layer = &json[json.find(r#""per_layer""#).expect("per_layer list")..];
        let declared = per_layer.matches(r#""name": ""#).count();
        assert_eq!(declared, names().len());
        for (name, unit) in names() {
            let entry = format!(
                r#""name": "{name}",
      "unit": "{unit}""#
            );
            assert!(per_layer.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
