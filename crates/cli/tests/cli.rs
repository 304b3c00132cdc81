//! End-to-end CLI tests driving the real binary.

use std::process::Command;

fn pebblyn(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pebblyn"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Like [`pebblyn`] but surfaces the exact exit code for error-path tests.
fn pebblyn_code(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pebblyn"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn schedule_dwt_reports_table1_row() {
    let (ok, stdout, _) = pebblyn(&[
        "schedule",
        "--workload",
        "dwt",
        "--n",
        "256",
        "--d",
        "8",
        "--budget",
        "10w",
    ]);
    assert!(ok);
    assert!(stdout.contains("cost:        8192 bits (lower bound 8192)"));
    assert!(stdout.contains("peak red:    160 bits"));
}

/// A reader that hangs up after one line (`| head -1`) ends the run
/// with status 0 and a quiet stderr, not a print panic (exit 101).
#[test]
fn closed_stdout_pipe_exits_cleanly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let mut child = Command::new(env!("CARGO_BIN_EXE_pebblyn"))
        .args([
            "schedule",
            "--workload",
            "mvm",
            "--m",
            "96",
            "--cols",
            "120",
            "--budget",
            "99w",
            "--emit",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first report line");
    assert!(first.starts_with("MVM"), "{first}");
    // The reader is dropped here: the pipe's read end is closed while the
    // binary still has most of the schedule left to write.
    let out = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn schedule_conv_stream() {
    let (ok, stdout, _) = pebblyn(&[
        "schedule",
        "--workload",
        "conv",
        "--n",
        "64",
        "--k",
        "8",
        "--budget",
        "12w",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("sliding-window streaming"));
    assert!(stdout.contains("lower bound"));
}

#[test]
fn min_memory_matches_paper() {
    let (ok, stdout, _) = pebblyn(&["min-memory", "--workload", "mvm", "--weights", "da"]);
    assert!(ok);
    assert!(stdout.contains("126 words"), "{stdout}");
    assert!(stdout.contains("2048 bits"));
}

#[test]
fn sweep_emits_csv() {
    let (ok, stdout, _) = pebblyn(&[
        "sweep",
        "--workload",
        "dwt",
        "--n",
        "16",
        "--d",
        "4",
        "--points",
        "5",
    ]);
    assert!(ok);
    assert!(stdout.starts_with("budget_bits,cost_bits"));
    assert_eq!(stdout.lines().count(), 6);
}

#[test]
fn schedule_out_round_trips() {
    let dir = std::env::temp_dir().join(format!("pebblyn-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sched.txt");
    let (ok, _, _) = pebblyn(&[
        "schedule",
        "--workload",
        "dwt",
        "--n",
        "8",
        "--d",
        "3",
        "--budget",
        "200",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(ok);
    let text = std::fs::read_to_string(&path).unwrap();
    let parsed = pebblyn::core::io::from_text(&text).unwrap();
    assert!(parsed.len() > 10);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn optimize_flag_runs_peephole() {
    let (ok, stdout, _) = pebblyn(&[
        "schedule",
        "--workload",
        "dwt",
        "--n",
        "8",
        "--d",
        "3",
        "--budget",
        "200",
        "--optimize",
    ]);
    assert!(ok);
    assert!(stdout.contains("peephole:"));
}

#[test]
fn dot_output_is_graphviz() {
    let (ok, stdout, _) = pebblyn(&["dot", "--workload", "conv", "--n", "6", "--k", "3"]);
    assert!(ok);
    assert!(stdout.starts_with("digraph"));
    assert!(stdout.contains("->"));
}

#[test]
fn infeasible_budget_is_a_clean_error() {
    let (ok, _, stderr) = pebblyn(&[
        "schedule",
        "--workload",
        "dwt",
        "--n",
        "8",
        "--d",
        "3",
        "--budget",
        "1",
    ]);
    assert!(!ok);
    assert!(stderr.contains("minimum feasible"));
}

#[test]
fn unknown_args_show_usage() {
    let (ok, _, stderr) = pebblyn(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("USAGE"));
}

#[test]
fn trace_renders_sparkline() {
    let (ok, stdout, _) = pebblyn(&[
        "trace",
        "--workload",
        "dwt",
        "--n",
        "16",
        "--d",
        "4",
        "--budget",
        "7w",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("peak 96 bits"));
    assert!(stdout.contains('█'));
}

#[test]
fn dwt2d_belady_schedules() {
    let (ok, stdout, _) = pebblyn(&[
        "schedule",
        "--workload",
        "dwt2d",
        "--n",
        "8",
        "--levels",
        "2",
        "--budget",
        "50w",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("Belady-eviction greedy"));
    assert!(stdout.contains("lower bound"));
}

#[test]
fn banded_workload_streams() {
    let (ok, stdout, _) = pebblyn(&[
        "schedule",
        "--workload",
        "banded",
        "--n",
        "24",
        "--bandwidth",
        "3",
        "--budget",
        "40w",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("banded streaming"));
    assert!(stdout.contains("lower bound"));
}

#[test]
fn exit_codes_distinguish_usage_from_runtime_errors() {
    let usage = Command::new(env!("CARGO_BIN_EXE_pebblyn"))
        .arg("frobnicate")
        .output()
        .expect("binary runs");
    assert_eq!(usage.status.code(), Some(2));

    let runtime = Command::new(env!("CARGO_BIN_EXE_pebblyn"))
        .args([
            "schedule",
            "--workload",
            "dwt",
            "--n",
            "8",
            "--d",
            "3",
            "--budget",
            "1",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(runtime.status.code(), Some(1));
}

#[test]
fn malformed_args_exit_2_with_usage() {
    // Every flavor of malformed invocation is a `CliError::Usage`: exit
    // code 2, the offending detail on stderr, and the usage text printed.
    let cases: [&[&str]; 6] = [
        &[], // no command at all
        &[
            "schedule",
            "--workload",
            "dwt",
            "--n",
            "eight",
            "--budget",
            "1",
        ], // non-numeric --n
        &[
            "schedule",
            "--workload",
            "dwt",
            "--n",
            "8",
            "--d",
            "3",
            "--budget",
            "12q",
        ], // bad budget suffix
        &["schedule", "--n", "8", "--budget", "100"], // missing --workload
        &["schedule", "--workload", "teapot", "--budget", "100"], // unknown workload
        &["synth"], // missing --bits
    ];
    for args in cases {
        let (code, stderr) = pebblyn_code(args);
        assert_eq!(code, Some(2), "{args:?} should be a usage error: {stderr}");
        assert!(
            stderr.contains("USAGE"),
            "{args:?} must print usage: {stderr}"
        );
    }
}

#[test]
fn runtime_errors_exit_1_without_usage() {
    // Infeasible budget: a well-formed invocation that fails at run time
    // must exit 1 and must NOT dump the usage text over the real message.
    let (code, stderr) = pebblyn_code(&[
        "schedule",
        "--workload",
        "dwt",
        "--n",
        "8",
        "--d",
        "3",
        "--budget",
        "1",
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("minimum feasible"), "{stderr}");
    assert!(
        !stderr.contains("USAGE"),
        "runtime error drowned in usage text: {stderr}"
    );

    // Unwritable --out path: an I/O failure is also a runtime error.
    let (code, stderr) = pebblyn_code(&[
        "schedule",
        "--workload",
        "dwt",
        "--n",
        "8",
        "--d",
        "3",
        "--budget",
        "200",
        "--out",
        "/nonexistent-dir/sub/sched.txt",
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(!stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn unknown_scheduler_exits_2_listing_valid_names() {
    // Satellite of the service PR: a typo'd scheduler name is an
    // *invocation* error (exit 2 + usage), not a runtime failure, and the
    // message lists every registry name so the fix is copy-pasteable.
    let (code, stderr) = pebblyn_code(&[
        "schedule",
        "--workload",
        "dwt",
        "--n",
        "8",
        "--d",
        "3",
        "--budget",
        "200",
        "--scheduler",
        "warp-drive",
    ]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("valid names"), "{stderr}");
    for name in ["dwt-opt", "mvm-tiling", "greedy-belady", "naive"] {
        assert!(stderr.contains(name), "must list {name}: {stderr}");
    }
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn registry_names_are_accepted_directly() {
    let (ok, stdout, _) = pebblyn(&[
        "schedule",
        "--workload",
        "dwt",
        "--n",
        "8",
        "--d",
        "3",
        "--budget",
        "200",
        "--scheduler",
        "dwt-opt",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("optimal DP (Algorithm 1)"), "{stdout}");
}

#[test]
fn serve_answers_framed_requests_over_stdio() {
    use pebblyn::prelude::{ScheduleRequest, WeightScheme, Workload};
    use pebblyn::service::wire::{self, Frame};
    use pebblyn::service::{GraphSpec, Outcome, Request};
    use std::io::{Read, Write};
    use std::process::Stdio;

    let request = |id| Request {
        id,
        ask: ScheduleRequest::new(
            GraphSpec::Workload {
                workload: Workload::Dwt { n: 16, d: 2 },
                scheme: WeightScheme::Equal(16),
            },
            256,
            "dwt-opt",
        ),
        no_cache: false,
    };
    let mut input = Vec::new();
    wire::write_frame(&mut input, &wire::encode_request(&request(1))).unwrap();
    wire::write_frame(&mut input, &wire::encode_request(&request(2))).unwrap();
    wire::write_frame(&mut input, &wire::encode_shutdown()).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_pebblyn"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon starts");
    child.stdin.take().unwrap().write_all(&input).unwrap();
    let mut output = Vec::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_end(&mut output)
        .unwrap();
    assert!(child.wait().unwrap().success());

    let mut r = &output[..];
    let mut frames = Vec::new();
    while let Some(payload) = wire::read_frame(&mut r).unwrap() {
        frames.push(wire::decode_payload(&payload).unwrap());
    }
    assert_eq!(frames.len(), 3, "two answers + shutdown ack");
    let costs: Vec<_> = frames[..2]
        .iter()
        .map(|f| {
            let Frame::Response(resp) = f else {
                panic!("expected response, got {f:?}")
            };
            let Outcome::Ok { cost, .. } = &resp.outcome else {
                panic!("expected ok outcome: {resp:?}")
            };
            *cost
        })
        .collect();
    assert_eq!(costs[0], costs[1], "cache hit must not change the answer");
    assert!(matches!(frames[2], Frame::Shutdown));
}

#[test]
fn mismatched_scheduler_is_rejected() {
    let (ok, _, stderr) = pebblyn(&[
        "schedule",
        "--workload",
        "mvm",
        "--scheduler",
        "opt",
        "--budget",
        "100w",
    ]);
    assert!(!ok);
    assert!(stderr.contains("DWT-specific"), "{stderr}");
}

#[test]
fn exact_solves_small_dwt_optimally() {
    let (ok, stdout, _) = pebblyn(&[
        "exact",
        "--workload",
        "dwt",
        "--n",
        "8",
        "--d",
        "3",
        "--budget",
        "200",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("optimum:     256 bits"), "{stdout}");
    assert!(stdout.contains("expanded:"), "{stdout}");
    assert!(stdout.contains("re-expansions"), "{stdout}");
    assert!(stdout.contains("landmark-pdb bound"), "{stdout}");
    assert!(stdout.contains("WL symmetry"), "{stdout}");
    // The serial search has no partial expansion, batches or steals, so
    // the report must not claim them.
    for retired in ["partial expansion", "batches", "steals"] {
        assert!(!stdout.contains(retired), "{stdout}");
    }
}

#[test]
fn exact_rejects_too_wide_graphs_with_exit_1_naming_the_limit() {
    // DWT(256, 8) is a 766-node CDAG — far past the 256-node Words<4>
    // ceiling.  A well-formed invocation that the solver cannot represent
    // is a *runtime* error (exit 1, no usage text), and the message must
    // name the limit so the failure is actionable.
    let (code, stderr) = pebblyn_code(&[
        "exact",
        "--workload",
        "dwt",
        "--n",
        "256",
        "--d",
        "8",
        "--budget",
        "10w",
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("766 nodes"), "{stderr}");
    assert!(stderr.contains("at most 256"), "{stderr}");
    assert!(!stderr.contains("USAGE"), "{stderr}");
}

/// A small exact invocation the option tests extend.
const EXACT_DWT4: [&str; 9] = [
    "exact",
    "--workload",
    "dwt",
    "--n",
    "4",
    "--d",
    "2",
    "--budget",
    "112",
];

#[test]
fn unknown_options_are_usage_errors() {
    // A typo must not fall back to a default: `--max-state 1` would
    // otherwise run a full solve instead of hitting the cap.
    for extra in [&["--bogus-flag"][..], &["--max-state", "1"]] {
        let mut argv = EXACT_DWT4.to_vec();
        argv.extend(extra);
        let (code, stderr) = pebblyn_code(&argv);
        assert_eq!(code, Some(2), "{extra:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown option {}", extra[0])),
            "{extra:?}: {stderr}"
        );
        assert!(stderr.contains("USAGE"), "{extra:?}: {stderr}");
    }
}

/// The exact solver runs one configuration, so its former ablation flags
/// are unknown options: each `extra` must exit 2 naming its first option
/// and printing the usage text, while the bare invocation keeps its
/// optimum.
fn assert_retired_exact_flags(extras: &[&[&str]]) {
    for extra in extras {
        let mut argv = EXACT_DWT4.to_vec();
        argv.extend(*extra);
        let (code, stderr) = pebblyn_code(&argv);
        assert_eq!(code, Some(2), "{extra:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown option {}", extra[0])),
            "{extra:?}: {stderr}"
        );
        assert!(stderr.contains("USAGE"), "{extra:?}: {stderr}");
    }
    let (ok, stdout, stderr) = pebblyn(&EXACT_DWT4);
    assert!(ok, "{stdout}{stderr}");
    assert!(stdout.contains("optimum:     128 bits"), "{stdout}");
}

#[test]
fn exact_ablation_flags_change_the_report_not_the_optimum() {
    assert_retired_exact_flags(&[
        &["--heuristic", "none"],
        &["--no-dominance"],
        &["--no-tighten"],
        &["--heuristic", "none", "--no-dominance", "--no-tighten"],
    ]);
}

#[test]
fn exact_no_symmetry_flag_reports_but_keeps_the_optimum() {
    assert_retired_exact_flags(&[&["--no-symmetry"]]);
}

#[test]
fn exact_new_lever_ablations_keep_the_optimum() {
    assert_retired_exact_flags(&[
        &["--no-partial-expansion"],
        &["--wl-symmetry", "off"],
        &["--heuristic", "forced-reload"],
        &["--heuristic", "landmark-pdb", "--no-partial-expansion"],
    ]);
}

#[test]
fn exact_wl_symmetry_conflicts_are_usage_errors() {
    // The former conflict and bad-value cases fail on the first retired
    // option now, before any value is read.
    assert_retired_exact_flags(&[
        &["--wl-symmetry", "on", "--no-symmetry"],
        &["--wl-symmetry", "maybe"],
        &["--no-symmetry", "--wl-symmetry", "off"],
    ]);
}

#[test]
fn known_options_that_do_not_apply_are_ignored() {
    let mut argv = EXACT_DWT4.to_vec();
    argv.extend(["--points", "5"]);
    let (ok, stdout, stderr) = pebblyn(&argv);
    assert!(ok, "{stdout}{stderr}");
    assert!(stdout.contains("optimum:     128 bits"), "{stdout}");
}

#[test]
fn exact_bad_flags_are_usage_errors() {
    // Malformed invocations exit 2 with the usage text; well-formed ones
    // that fail at run time exit 1 without it.
    let bad: [&[&str]; 3] = [
        &[
            "exact",
            "--workload",
            "dwt",
            "--n",
            "8",
            "--d",
            "3",
            "--budget",
            "200",
            "--max-states",
            "-1",
        ],
        &["exact", "--workload", "dwt", "--n", "8", "--d", "3"], // missing --budget
        &[
            "exact",
            "--workload",
            "dwt",
            "--n",
            "8",
            "--d",
            "3",
            "--budget",
            "200",
            "--max-states",
            "many",
        ],
    ];
    for args in bad {
        let (code, stderr) = pebblyn_code(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("USAGE"), "{args:?}: {stderr}");
    }

    // Hitting the state cap is a runtime error, not a usage error.
    let (code, stderr) = pebblyn_code(&[
        "exact",
        "--workload",
        "dwt",
        "--n",
        "8",
        "--d",
        "3",
        "--budget",
        "200",
        "--max-states",
        "1",
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("state cap"), "{stderr}");
    assert!(!stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn synth_prints_macro() {
    let (ok, stdout, _) = pebblyn(&["synth", "--bits", "256"]);
    assert!(ok);
    assert!(stdout.contains("area:"));
    assert!(stdout.contains("leakage:"));
}

#[test]
fn schedule_multiprocessor_reports_makespan() {
    let (ok, stdout, stderr) = pebblyn(&[
        "schedule",
        "--workload",
        "dwt",
        "--n",
        "16",
        "--d",
        "2",
        "--budget",
        "10w",
        "--procs",
        "2",
        "--scheduler",
        "partition-belady",
    ]);
    assert!(ok, "{stdout}{stderr}");
    assert!(stdout.contains("2 processors x 160 bits"), "{stdout}");
    assert!(stdout.contains("makespan:"), "{stdout}");
    assert!(stdout.contains("total I/O:"), "{stdout}");
}

#[test]
fn sweep_multiprocessor_emits_makespan_column() {
    let (ok, stdout, stderr) = pebblyn(&[
        "sweep",
        "--workload",
        "dwt",
        "--n",
        "16",
        "--d",
        "2",
        "--points",
        "4",
        "--procs",
        "2",
        "--scheduler",
        "comm-list",
    ]);
    assert!(ok, "{stdout}{stderr}");
    let mut lines = stdout.lines();
    assert_eq!(
        lines.next(),
        Some("budget_bits,cost_bits,makespan_bits,comm_bits")
    );
    assert!(lines.clone().count() >= 1, "{stdout}");
    for line in lines {
        assert_eq!(line.split(',').count(), 4, "{line}");
    }
}

#[test]
fn multiprocessor_flag_misuse_exits_2() {
    let (code, stderr) = pebblyn_code(&[
        "schedule",
        "--workload",
        "dwt",
        "--n",
        "16",
        "--d",
        "2",
        "--budget",
        "10w",
        "--procs",
        "3",
        "--proc-budgets",
        "64,64",
    ]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--proc-budgets"), "{stderr}");

    let (code, stderr) = pebblyn_code(&[
        "schedule",
        "--workload",
        "dwt",
        "--n",
        "16",
        "--d",
        "2",
        "--budget",
        "10w",
        "--procs",
        "2",
        "--scheduler",
        "dwt-opt",
    ]);
    assert_eq!(code, Some(1), "single-processor-only scheduler: {stderr}");
    assert!(stderr.contains("single-processor"), "{stderr}");
}
