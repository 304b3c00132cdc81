//! Golden-snapshot guards for the headline artifacts.
//!
//! The CSVs committed under `results/` are the paper's tables — quietly
//! drifting generators (a changed DP, a reordered row, a reformatted
//! float) must fail loudly, not silently rewrite history.  Each test
//! reruns the generating binary with `PEBBLYN_RESULTS` pointed at a temp
//! directory and byte-compares the fresh CSV against the committed one.
//!
//! If a change is *intentional*, regenerate and commit:
//!
//! ```sh
//! cargo run --release -p pebblyn-bench --bin table1
//! cargo run --release -p pebblyn-bench --bin fig7
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

/// Run `bin` with results redirected into a fresh temp dir; return the dir.
fn regen_into_temp(bin: &str, tag: &str) -> PathBuf {
    regen_into_temp_with(bin, tag, &[])
}

/// As [`regen_into_temp`], passing `args` through to the generator.
fn regen_into_temp_with(bin: &str, tag: &str, args: &[&str]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pebblyn-golden-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp results dir");
    let out = Command::new(bin)
        .args(args)
        .env("PEBBLYN_RESULTS", &dir)
        .output()
        .expect("generator binary runs");
    assert!(
        out.status.success(),
        "{bin} exited nonzero:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    dir
}

fn committed(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name)
}

fn assert_matches_golden(fresh_dir: &Path, name: &str) {
    let fresh = std::fs::read(fresh_dir.join(name))
        .unwrap_or_else(|e| panic!("generator did not produce {name}: {e}"));
    let golden = std::fs::read(committed(name))
        .unwrap_or_else(|e| panic!("missing committed golden results/{name}: {e}"));
    assert!(
        fresh == golden,
        "results/{name} no longer matches its generator (byte diff).\n\
         If the change is intentional, regenerate and commit it.\n\
         --- committed ---\n{}\n--- regenerated ---\n{}",
        String::from_utf8_lossy(&golden),
        String::from_utf8_lossy(&fresh)
    );
}

#[test]
fn table1_minimum_fast_memory_is_reproducible() {
    let dir = regen_into_temp(env!("CARGO_BIN_EXE_table1"), "table1");
    assert_matches_golden(&dir, "table_1_minimum_fast_memory.csv");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every fig5 artifact, each byte-stable by design.
const FIG5_STABLE: &[&str] = &[
    "fig5_sweep.json",
    "fig_5a_equal_dwt_256_8_.csv",
    "fig_5b_da_dwt_256_8_.csv",
    "fig_5c_equal_mvm_96_120_.csv",
    "fig_5d_da_mvm_96_120_.csv",
];

#[test]
fn fig5_sweep_json_and_csvs_are_reproducible() {
    let dir = regen_into_temp(env!("CARGO_BIN_EXE_fig5"), "fig5");
    for name in FIG5_STABLE {
        assert_matches_golden(&dir, name);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Telemetry must be observationally free: running the same generator with
/// `--telemetry` (counters on, JSONL + stderr summary sinks installed)
/// leaves every golden artifact byte-identical.  Only the side-channel
/// JSONL file differs from a telemetry-off run.
#[test]
fn fig5_outputs_are_byte_identical_with_telemetry_on() {
    let jsonl = std::env::temp_dir().join(format!("pebblyn-fig5-telemetry-{}", std::process::id()));
    let jsonl_str = jsonl.to_str().expect("utf-8 temp path");
    let dir = regen_into_temp_with(
        env!("CARGO_BIN_EXE_fig5"),
        "fig5-telemetry",
        &["--telemetry", jsonl_str],
    );
    for name in FIG5_STABLE {
        assert_matches_golden(&dir, name);
    }
    let side_channel = std::fs::read_to_string(&jsonl).expect("telemetry JSONL written");
    assert!(
        side_channel.contains("\"schema\":\"pebblyn-telemetry/v1\""),
        "telemetry record missing schema marker: {side_channel}"
    );
    std::fs::remove_file(&jsonl).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// `bench_streaming.json` carries wall-clock medians, so it cannot be
/// byte-golden like the CSVs; instead the committed artifact must satisfy
/// the same structural validator the generator self-checks with: schema
/// tag, well-typed points, `cost_bits >= lower_bound_bits` with an honest
/// `bound_gap`, and each scheduler's worst-family ns/edge envelope within
/// the near-linearity drift bar.
#[test]
fn bench_streaming_artifact_satisfies_its_validator() {
    let text = std::fs::read_to_string(committed("bench_streaming.json"))
        .expect("missing committed results/bench_streaming.json");
    pebblyn_bench::validate_bench_streaming(&text)
        .expect("committed bench_streaming.json fails its structural validator");
}

#[test]
fn fig7_reduction_csvs_are_reproducible() {
    let dir = regen_into_temp(env!("CARGO_BIN_EXE_fig7"), "fig7");
    assert_matches_golden(&dir, "fig_7_reductions.csv");
    assert_matches_golden(&dir, "fig_7_synthesized_memories.csv");
    std::fs::remove_dir_all(&dir).ok();
}
