//! End-to-end tests of the `experiments` binary: CLI parsing (hex seeds,
//! named errors, duplicate warnings, user-ordered selection), experiment
//! isolation under injected faults, and the partial `--json` report.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn experiments() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

fn run(args: &[&str]) -> Output {
    experiments().args(args).output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A scratch path inside the target directory (kept out of the source tree).
fn scratch(name: &str) -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_BIN_EXE_experiments"));
    p.pop();
    p.push(name);
    p
}

/// Whether a real JSON parser is available to cross-check the hand-rolled
/// emitters; the checks degrade to a skip note where the container lacks
/// python3.
fn python3_available() -> bool {
    Command::new("python3")
        .arg("--version")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

/// Pipes `payload` through a python3 one-liner that must accept it.
fn assert_python_accepts(program: &str, payload: &str, what: &str) {
    use std::io::Write as _;
    if !python3_available() {
        eprintln!("note: python3 unavailable, skipping real-parser check for {what}");
        return;
    }
    let mut child = Command::new("python3")
        .args(["-c", program])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("python3 spawns");
    child.stdin.as_mut().unwrap().write_all(payload.as_bytes()).expect("payload piped");
    let out = child.wait_with_output().expect("python3 exits");
    assert!(
        out.status.success(),
        "{what} rejected by a real JSON parser: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Cheap well-formedness check for the hand-rolled JSON.
fn assert_balanced(s: &str) {
    for (open, close) in [('{', '}'), ('[', ']')] {
        assert_eq!(
            s.chars().filter(|&c| c == open).count(),
            s.chars().filter(|&c| c == close).count(),
            "unbalanced {open}{close} in report:\n{s}"
        );
    }
}

/// Every registered experiment, in registry order.
const ALL_EXPERIMENTS: [&str; 16] = [
    "fig2", "table1", "fig4", "fig5", "fig6", "table2", "fig7", "fig8", "fig9", "table3", "apps",
    "mitigations", "baselines", "capacity", "backend_sweep", "sensitivity",
];

#[test]
fn hex_and_decimal_seeds_agree() {
    let hex = run(&["--quick", "--seed", "0xB5C09E01", "--threads", "2", "table1"]);
    let dec = run(&["--quick", "--seed", "3049299457", "--threads", "2", "table1"]);
    assert!(hex.status.success(), "hex seed run failed: {}", stderr(&hex));
    assert!(dec.status.success());
    // Wall-clock lines differ between any two runs; everything else is
    // deterministic and must match.
    let strip = |out: &Output| {
        stdout(out).lines().filter(|l| !l.contains("finished in")).collect::<Vec<_>>().join("\n")
    };
    assert_eq!(strip(&hex), strip(&dec), "0xB5C09E01 and 3049299457 must be the same seed");
}

#[test]
fn bad_flag_values_name_the_flag_before_usage() {
    let out = run(&["--seed", "xyz", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("error: invalid value 'xyz' for --seed"), "stderr: {err}");
    assert!(err.contains("usage:"), "usage follows the error: {err}");
    let error_at = err.find("error:").unwrap();
    let usage_at = err.find("usage:").unwrap();
    assert!(error_at < usage_at, "the specific error precedes the usage text");

    let out = run(&["--threads", "two", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("invalid value 'two' for --threads"), "{}", stderr(&out));

    let out = run(&["table1", "--seed"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--seed requires a value"), "{}", stderr(&out));

    let out = run(&["nonesuch"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown experiment 'nonesuch'"), "{}", stderr(&out));

    let out = run(&["--frobnicate", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown flag '--frobnicate'"), "{}", stderr(&out));
}

#[test]
fn bad_bpu_value_names_the_flag_before_usage() {
    let out = run(&["--bpu", "neural", "table2"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains("error: invalid value 'neural' for --bpu: unknown backend 'neural'"),
        "stderr: {err}"
    );
    assert!(err.contains("expected hybrid, tage, or perceptron"), "stderr: {err}");
    assert!(err.find("error:").unwrap() < err.find("usage:").unwrap(), "error precedes usage");

    let out = run(&["table2", "--bpu"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--bpu requires a value"), "{}", stderr(&out));
}

#[test]
fn json_entries_record_the_backend_that_ran() {
    let json = scratch("cli_backend_report.json");
    let json_str = json.to_str().unwrap();
    let out = run(&[
        "--quick",
        "--threads",
        "2",
        "--bpu",
        "tage",
        "--json",
        json_str,
        "backend_sweep",
        "table1",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    // Experiments with a fixed backend ignore --bpu, and the harness says
    // so up front.
    assert!(
        stderr(&out).contains(
            "note: --bpu tage does not apply to experiments with a fixed backend: \
             backend_sweep (all), table1 (hybrid)"
        ),
        "stderr: {}",
        stderr(&out)
    );
    let report = std::fs::read_to_string(&json).expect("report written");
    std::fs::remove_file(&json).ok();
    assert_balanced(&report);
    let entry_of = |name: &str| {
        report
            .split("\"name\": ")
            .find(|chunk| chunk.starts_with(&format!("\"{name}\"")))
            .unwrap_or_else(|| panic!("entry for {name} in report:\n{report}"))
            .to_owned()
    };
    let sweep = entry_of("backend_sweep");
    assert!(sweep.contains("\"backend\": \"all\""), "the sweep runs every backend: {sweep}");
    // The sweep populates an error-rate and capacity metric per backend.
    for backend in ["hybrid", "tage", "perceptron"] {
        assert!(
            sweep.contains(&format!("\"backend_sweep/{backend}/isolated_error_pct\"")),
            "error metric for {backend}: {sweep}"
        );
        assert!(
            sweep.contains(&format!("\"backend_sweep/{backend}/capacity_bits_per_mcycle\"")),
            "capacity metric for {backend}: {sweep}"
        );
    }
    let table1 = entry_of("table1");
    assert!(
        table1.contains("\"backend\": \"hybrid\""),
        "backend-agnostic entry records the hybrid: {table1}"
    );
}

#[test]
fn inject_fault_rejects_invalid_targets() {
    let out = run(&["--quick", "--inject-fault", "fig99", "fig2"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown experiment 'fig99'"), "stderr: {err}");

    let out = run(&["--quick", "--inject-fault", "table2:0", "table2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown experiment 'table2:0'"), "{}", stderr(&out));
}

#[test]
fn selection_is_user_ordered_and_duplicates_warn() {
    let out = run(&["--quick", "table1", "fig2", "table1"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("warning: duplicate selection 'table1' ignored"),
        "stderr: {}",
        stderr(&out)
    );
    let text = stdout(&out);
    let table1_at = text.find("table1: FSM transition").expect("table1 header");
    let fig2_at = text.find("fig2: 2-level predictor").expect("fig2 header");
    assert!(table1_at < fig2_at, "experiments run in the order given, not registry order");
    assert_eq!(text.matches("table1: FSM transition").count(), 1, "duplicate runs once");
}

#[test]
fn injected_fault_isolates_the_experiment_and_writes_a_partial_report() {
    let json = scratch("cli_fault_report.json");
    let json_str = json.to_str().unwrap();
    let out = run(&[
        "--quick",
        "--threads",
        "2",
        "--json",
        json_str,
        "--inject-fault",
        "table2",
        "table2",
        "table1",
    ]);
    // A failed experiment means a nonzero exit, but the run continues...
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("[table2 FAILED"), "failure is announced: {text}");
    assert!(text.contains("[table1 finished"), "later experiments still run: {text}");
    let err = stderr(&out);
    assert!(err.contains("injected fault"), "failure cause is reported: {err}");
    assert!(err.contains("trial 0"), "failing trial index is reported: {err}");

    // ...and the partial report is written and well-formed.
    let report = std::fs::read_to_string(&json).expect("partial report written");
    std::fs::remove_file(&json).ok();
    assert_balanced(&report);
    assert!(report.contains("\"failed\": [\"table2\"]"), "report: {report}");
    assert!(report.contains("\"status\": \"failed\""), "report: {report}");
    assert!(report.contains("injected fault"), "report carries the cause: {report}");
    assert!(report.contains("\"name\": \"table1\""), "completed experiment present: {report}");
    assert!(report.contains("\"status\": \"ok\""), "completed experiment ok: {report}");
    // table1's metrics must not be polluted by table2's pre-panic metrics:
    // split per entry and check metric keys stay with their experiment.
    let table1_entry = report.split("\"name\": \"table1\"").nth(1).expect("table1 entry");
    assert!(!table1_entry.contains("table2/"), "no metric leak across experiments: {report}");

    // Every experiment runs on the trial runner, so every one takes a fault.
    let out = run(&["--quick", "--threads", "2", "--inject-fault", "fig8", "fig8", "fig9"]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("[fig8 FAILED"), "failure is announced: {text}");
    assert!(text.contains("[fig9 finished"), "the next experiment still runs: {text}");
    let err = stderr(&out);
    assert!(err.contains("trial 0 (seed 0x"), "failing trial index and seed are reported: {err}");
}

#[test]
fn json_report_survives_a_real_parser() {
    let json = scratch("cli_parser_report.json");
    let out = run(&["--quick", "--threads", "2", "--json", json.to_str().unwrap(), "table1", "fig2"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let report = std::fs::read_to_string(&json).expect("report written");
    std::fs::remove_file(&json).ok();
    assert_balanced(&report);
    // The hand-rolled emitter must satisfy an actual parser, not just our
    // own balance heuristics.
    assert_python_accepts("import json,sys; json.load(sys.stdin)", &report, "--json report");
}

#[test]
fn trace_is_deterministic_and_thread_count_invariant() {
    let capture = |name: &str, threads: &str| {
        let path = scratch(name);
        let out = experiments()
            .args(["--quick", "--seed", "0xB5C09E01", "--threads", threads])
            .args(["--trace", path.to_str().unwrap(), "all"])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "stderr: {}", stderr(&out));
        let s = std::fs::read_to_string(&path).expect("trace written");
        std::fs::remove_file(&path).ok();
        s
    };
    // Two runs of one seed, in separate processes and at different thread
    // counts, must write the same bytes.
    let a = capture("cli_trace_a.jsonl", "1");
    let b = capture("cli_trace_b.jsonl", "4");
    assert_eq!(a, b, "same-seed traces must be byte-identical at every thread count");

    let field = |line: &str, name: &str| -> Option<u64> {
        line.split(&format!("\"{name}\":")).nth(1).map(|rest| {
            rest.chars().take_while(char::is_ascii_digit).collect::<String>().parse().unwrap()
        })
    };
    let mut seen = 0;
    for name in ALL_EXPERIMENTS {
        let tag = format!("\"experiment\":\"{name}\"");
        let lines: Vec<&str> = a.lines().filter(|l| l.contains(&tag)).collect();
        assert!(!lines.is_empty(), "{name} runs on the trial runner, so the trace has events");
        seen += lines.len();
        // Each experiment's lines are in (trial, seq) order: a stable sort
        // on that key must be the identity permutation.
        let keys: Vec<(u64, u64)> = lines
            .iter()
            .map(|l| {
                // trial_begin/trial_end carry no seq: they bracket the trial's
                // events, so they key below/above any event sequence number.
                let seq = match field(l, "seq") {
                    Some(s) => s,
                    None if l.contains("\"type\":\"trial_begin\"") => 0,
                    None => u64::MAX,
                };
                (field(l, "trial").expect("every line is trial-stamped"), seq)
            })
            .collect();
        let mut sorted = keys.clone();
        sorted.sort(); // stable
        assert_eq!(keys, sorted, "{name}: trace lines arrive sorted by (trial, seq)");
        // Every trial opened is closed, with an accurate retained-event count.
        for line in &lines {
            if line.contains("\"type\":\"trial_end\"") {
                let trial = field(line, "trial").unwrap();
                let events = field(line, "events").unwrap();
                let observed = lines
                    .iter()
                    .filter(|l| l.contains("\"seq\":") && field(l, "trial") == Some(trial))
                    .count() as u64;
                assert_eq!(events, observed, "{name}: trial {trial} event count");
            }
        }
    }
    assert_eq!(seen, a.lines().count(), "every line names an experiment");
    // Each line is a complete JSON object by a real parser's standards.
    assert_python_accepts(
        "import json,sys; [json.loads(l) for l in sys.stdin if l.strip()]",
        &a,
        "--trace JSONL",
    );
}

#[test]
fn metrics_flag_aggregates_traces_into_the_report() {
    let json = scratch("cli_metrics_report.json");
    let out = run(&[
        "--quick",
        "--threads",
        "2",
        "--metrics",
        "--json",
        json.to_str().unwrap(),
        "fig4",
        // fig4 times no branch; fig7's timed branches fill the latency
        // histogram.
        "fig7",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("trace metrics"), "summary printed: {}", stdout(&out));
    let report = std::fs::read_to_string(&json).expect("report written");
    std::fs::remove_file(&json).ok();
    assert_balanced(&report);
    for key in
        ["trace/branches", "trace/spans/randomize", "trace/branch_latency_p50", "trace/branch_latency_mean"]
    {
        assert!(report.contains(&format!("\"{key}\"")), "{key} in report:\n{report}");
    }
}

#[test]
fn fault_free_runs_are_unaffected_by_fault_plumbing() {
    let json_a = scratch("cli_nofault_a.json");
    let json_b = scratch("cli_nofault_b.json");
    let base = [
        "--quick", "--seed", "0xB5C09E01", "table2", "fig2", "table1", "fig5", "fig6", "fig8",
        "fig9", "apps", "mitigations", "baselines",
    ];
    let a = experiments().args(base).args(["--threads", "1", "--json", json_a.to_str().unwrap()]).output().unwrap();
    let b = experiments().args(base).args(["--threads", "8", "--json", json_b.to_str().unwrap()]).output().unwrap();
    assert!(a.status.success() && b.status.success());
    let strip = |p: &PathBuf| {
        let s = std::fs::read_to_string(p).unwrap();
        std::fs::remove_file(p).ok();
        // Only wall-clock, the rate derived from it and the echoed thread
        // count may differ.
        s.lines()
            .filter(|l| {
                !l.contains("wall_seconds")
                    && !l.contains("ns_per_sim_branch")
                    && !l.contains("\"threads\"")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&json_a), strip(&json_b), "metrics identical across thread counts");
}

/// The `sim_branches` of each `--json` entry counts foreground and noise
/// branches on every core the experiment built, whichever worker ran them:
/// it is the same at 1 and 4 threads, and `ns_per_sim_branch` sits next to
/// it.
#[test]
fn sim_branches_are_counted_and_thread_count_invariant() {
    let ledger = |threads: &str| {
        let json = scratch(&format!("cli_ledger_{threads}.json"));
        let out = run(&["--quick", "--threads", threads, "--json", json.to_str().unwrap(), "table2", "fig7"]);
        assert!(out.status.success(), "{}", stderr(&out));
        let report = std::fs::read_to_string(&json).unwrap();
        std::fs::remove_file(&json).ok();
        let field = |line: &str, key: &str| {
            line.trim().strip_prefix(&format!("\"{key}\": "))?.strip_suffix(',').map(str::to_owned)
        };
        let counts: Vec<u64> =
            report.lines().filter_map(|l| field(l, "sim_branches")).map(|v| v.parse().unwrap()).collect();
        let rates: Vec<f64> =
            report.lines().filter_map(|l| field(l, "ns_per_sim_branch")).map(|v| v.parse().unwrap()).collect();
        assert_eq!((counts.len(), rates.len()), (2, 2), "one of each per entry:\n{report}");
        assert!(counts.iter().all(|&n| n > 0) && rates.iter().all(|&r| r > 0.0), "{report}");
        counts
    };
    let one = ledger("1");
    // fig7 times 5 000 samples in each of 4 cases, two branches each; it
    // runs no noise.
    assert_eq!(one[1], 40_000);
    assert_eq!(ledger("4"), one);
}

/// The pinned quick-scale metrics (`golden/quick_metrics.json`).
fn golden() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join("quick_metrics.json")
}

#[test]
fn check_passes_against_the_golden_file_and_fails_on_any_difference() {
    let args = ["--quick", "--threads", "2", "--check"];
    let golden = golden();
    let covert = ["table2", "table3", "capacity", "backend_sweep"];
    let out = run(&[&args[..], &[golden.to_str().unwrap()], &covert[..]].concat());
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("[check: metrics match"), "{}", stdout(&out));
    // The TAGE and perceptron substrates have their own pins.
    for backend in ["tage", "perceptron"] {
        let pins = golden.with_file_name(format!("quick_metrics_{backend}.json"));
        let substrate = ["--quick", "--threads", "1", "--bpu", backend, "--check"];
        let selection = [pins.to_str().unwrap(), "table2", "capacity"];
        let out = run(&[&substrate[..], &selection[..]].concat());
        assert!(out.status.success(), "{backend}: stderr: {}", stderr(&out));
    }
    let selection = ["mitigations", "apps", "baselines"];
    let out = run(&[&args[..], &[golden.to_str().unwrap()], &selection[..]].concat());
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let selection =
        ["fig2", "table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "sensitivity"];
    let out = run(&[&args[..], &[golden.to_str().unwrap()], &selection[..]].concat());
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // Alter one pinned metric: the same run must now fail, naming it.
    let text = std::fs::read_to_string(&golden).expect("golden file readable");
    let key = "\"table3/SGX isolated/all1_error_pct\": ";
    let at = text.find(key).expect("golden file pins table3") + key.len();
    let end = at + text[at..].find([',', '\n']).unwrap();
    let altered = format!("{}12.5{}", &text[..at], &text[end..]);
    let path = scratch("cli_check_altered.json");
    std::fs::write(&path, altered).unwrap();
    let out = run(&[&args[..], &[path.to_str().unwrap(), "table2", "table3"]].concat());
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("check: table3: table3/SGX isolated/all1_error_pct: got "), "{err}");
    assert!(err.contains("want 12.5"), "{err}");
    assert_eq!(err.matches("check: ").count(), 1, "only the altered metric differs: {err}");

    // An entry naming no experiment (one renamed or dropped since the file
    // was pinned) fails the check even though it is outside the selection.
    let extra = text.replacen('{', "{\n  \"fig99\": {\n    \"fig99/x\": 1\n  },", 1);
    let path = scratch("cli_check_extra.json");
    std::fs::write(&path, extra).unwrap();
    let out = run(&[&args[..], &[path.to_str().unwrap(), "table2", "table3"]].concat());
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("check: fig99: expected, but no experiment has this name"), "{err}");
    assert_eq!(err.matches("check: ").count(), 1, "only the stray entry differs: {err}");
}

#[test]
fn check_rejects_an_unreadable_file_before_running() {
    let out = run(&["--quick", "--check", "/nonexistent-dir/golden.json", "fig4"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("error: --check /nonexistent-dir/golden.json"), "{err}");
    assert!(!stdout(&out).contains("fig4:"), "no experiment ran: {}", stdout(&out));
}
