//! BranchScope experiment harness: regenerates every table and figure of
//! the paper's evaluation against the simulated substrate.
//!
//! ```text
//! experiments [--quick] [--seed N] [--threads N] [--json PATH]
//!             [--trace PATH] [--metrics]
//!             [--bpu hybrid|tage|perceptron]
//!             [--inject-fault NAME] [--check FILE] <experiment>...
//! experiments all            # everything, paper-scale (minutes)
//! experiments --quick all    # everything, reduced scale (seconds)
//! ```
//!
//! Selected experiments run in the order given on the command line;
//! selecting one twice warns and runs it once. `--seed` accepts decimal or
//! `0x`-prefixed hex.
//!
//! Every experiment runs its machines as trials of one runner,
//! `common::trials`, and prints only after they return. `--threads N`
//! bounds its worker threads (default: all cores). Results are
//! thread-count-invariant — every trial's seed is derived from the base
//! seed and trial index, never from a worker (see `bscope-harness`) — so
//! `--threads` only changes wall-clock.
//!
//! `--json PATH` writes a machine-readable report: per-experiment
//! wall-clock seconds, simulated branches (foreground plus noise, as
//! `sim_branches`, with `ns_per_sim_branch` = wall-clock / branches),
//! status, the predictor backend the experiment ran on, and the headline
//! metrics each experiment records. Only the metrics are pinned by
//! `--check`.
//!
//! `--trace PATH` captures structured per-trial traces and writes them as
//! JSONL (one event per line, each stamped with experiment, trial index
//! and per-trial sequence number; `trial_begin` lines carry the replay
//! seed). Traces are
//! deterministic: the same seed yields byte-identical output at any
//! `--threads` value. `--metrics` aggregates the same event stream into
//! per-experiment counters and latency histograms, adds them to the
//! `--json` report as `trace/...` metrics, and prints a short summary.
//! Both flags are observers — enabling them changes no experiment result.
//!
//! `--bpu hybrid|tage|perceptron` selects the direction-predictor
//! substrate for `table2` and `capacity`. `backend_sweep` always runs all
//! three backends. The remaining experiments model mechanisms specific to
//! the paper's hybrid PHT (1-level mode, state machines, timing) and always
//! run on the hybrid. Report entries name the backend that ran (`"all"`
//! for the sweep).
//!
//! Experiments are isolated from each other: a panic or typed error in one
//! is caught, reported as a `"failed"` entry in the report, and the
//! remaining experiments still run. The exit code is `0` when everything
//! succeeded, `1` when any experiment failed (or the report could not be
//! written, or `--check` found a difference), and `2` for usage errors.
//!
//! `--check FILE` verifies a run against pinned results: FILE maps
//! experiment names to their expected metrics (the golden format,
//! `{"fig4": {"fig4/stable_fraction": 0.8}, ...}`, as in
//! `golden/quick_metrics.json`), laid out as the re-pin recipe writes it,
//! `json.dumps(pins, indent=2) + "\n"`: one key per line, no `"` or `\`
//! in a key. Every experiment that ran must have an
//! entry with exactly its metrics, and every entry must name an existing
//! experiment; each difference is printed and the exit code is `1`.
//!
//! `--inject-fault NAME` deterministically panics trial 0 of the
//! experiment `NAME` — an end-to-end test of the failure path.

mod apps;
mod backend_sweep;
mod capacity;
mod claim;
mod common;
mod covert_cell;
mod fig2;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod json;
mod mitigation_table;
mod related;
mod sensitivity;
mod table1;
mod table2;
mod table3;

use bscope_core::BscopeError;
use bscope_harness::FaultPlan;
use bscope_uarch::SimCore;
use common::{Record, Scale};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One registered experiment.
struct Experiment {
    name: &'static str,
    desc: &'static str,
    run: fn(&Scale) -> Result<(), BscopeError>,
    /// The backend the experiment always runs on and reports, whatever
    /// `--bpu` says: `"hybrid"` for the experiments that model the
    /// paper's hybrid PHT, `"all"` for the sweep across every backend.
    /// `None` when it runs on `Scale::backend`.
    backend: Option<&'static str>,
}

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig2",
        desc: "2-level predictor learning curve (Fig. 2)",
        run: fig2::run,
        backend: Some("hybrid"),
    },
    Experiment {
        name: "table1",
        desc: "FSM transition / observation table (Table 1)",
        run: table1::run,
        backend: Some("hybrid"),
    },
    Experiment {
        name: "fig4",
        desc: "randomization-block stability & state distribution (Fig. 4)",
        run: fig4::run,
        backend: Some("hybrid"),
    },
    Experiment {
        name: "fig5",
        desc: "PHT granularity, size discovery and alignment (Fig. 5)",
        run: fig5::run,
        backend: Some("hybrid"),
    },
    Experiment {
        name: "fig6",
        desc: "covert-channel decoding demonstration (Fig. 6)",
        run: fig6::run,
        backend: Some("hybrid"),
    },
    Experiment {
        name: "table2",
        desc: "covert-channel error rates, 3 CPUs x 2 noise settings (Table 2)",
        run: table2::run,
        backend: None,
    },
    Experiment {
        name: "fig7",
        desc: "branch latency distributions, hit vs miss (Fig. 7)",
        run: fig7::run,
        backend: Some("hybrid"),
    },
    Experiment {
        name: "fig8",
        desc: "timing-detection error vs number of measurements (Fig. 8)",
        run: fig8::run,
        backend: Some("hybrid"),
    },
    Experiment {
        name: "fig9",
        desc: "probe latency by PHT state (Fig. 9)",
        run: fig9::run,
        backend: Some("hybrid"),
    },
    Experiment {
        name: "table3",
        desc: "SGX covert-channel error rates (Table 3)",
        run: table3::run,
        backend: Some("hybrid"),
    },
    Experiment {
        name: "apps",
        desc: "attack applications: Montgomery, libjpeg, ASLR (Sec. 9.2)",
        run: apps::run,
        backend: Some("hybrid"),
    },
    Experiment {
        name: "mitigations",
        desc: "attack error under each defense (Sec. 10)",
        run: mitigation_table::run,
        backend: Some("hybrid"),
    },
    Experiment {
        name: "baselines",
        desc: "BranchScope vs BTB-based attacks (Sec. 11)",
        run: related::run,
        backend: Some("hybrid"),
    },
    Experiment {
        name: "capacity",
        desc: "EXTENSION: channel capacity vs noise and repetition coding",
        run: capacity::run,
        backend: None,
    },
    Experiment {
        name: "backend_sweep",
        desc: "EXTENSION: attack error & capacity across predictor backends",
        run: backend_sweep::run,
        backend: Some("all"),
    },
    Experiment {
        name: "sensitivity",
        desc: "EXTENSION: error rate vs PHT size",
        run: sensitivity::run,
        backend: Some("hybrid"),
    },
];

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--quick] [--seed N] [--threads N] [--json PATH] \
         [--trace PATH] [--metrics] [--bpu hybrid|tage|perceptron] \
         [--inject-fault NAME] [--check FILE] <experiment>|all ..."
    );
    eprintln!("experiments:");
    for e in EXPERIMENTS {
        eprintln!("  {:<12} {}", e.name, e.desc);
    }
    std::process::exit(2);
}

/// Usage error: name what was wrong before printing the usage text, so a
/// bad invocation says *which* flag or value failed, not just how to call
/// the binary.
fn fail_usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    usage()
}

/// The value of `flag`, or a usage error naming the flag.
fn flag_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    match args.get(*i) {
        Some(v) => v,
        None => fail_usage(&format!("{flag} requires a value")),
    }
}

/// Parses an unsigned integer, accepting decimal and `0x`-prefixed hex
/// (seeds are naturally written in hex — `--seed 0xB5C09E01`). A failure
/// names the flag and the offending value.
fn parse_u64(flag: &str, value: &str) -> u64 {
    let (digits, radix) = match value.strip_prefix("0x").or_else(|| value.strip_prefix("0X")) {
        Some(hex) => (hex, 16),
        None => (value, 10),
    };
    u64::from_str_radix(digits, radix)
        .unwrap_or_else(|e| fail_usage(&format!("invalid value '{value}' for {flag}: {e}")))
}

/// Parses `--inject-fault NAME` into the name of the experiment whose
/// trial 0 panics.
fn parse_fault(name: &str) -> &'static str {
    match EXPERIMENTS.iter().find(|e| e.name == name) {
        Some(e) => e.name,
        None => fail_usage(&format!(
            "invalid value '{name}' for --inject-fault: unknown experiment '{name}'"
        )),
    }
}

fn main() {
    let mut scale = Scale::full();
    let mut selected: Vec<&Experiment> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut want_metrics = false;
    let mut fault_target: Option<&'static str> = None;
    let mut check: Option<(String, json::Golden)> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => scale.quick = true,
            "--seed" => scale.seed = parse_u64("--seed", flag_value(&args, &mut i, "--seed")),
            "--threads" => {
                scale.threads =
                    parse_u64("--threads", flag_value(&args, &mut i, "--threads")) as usize;
            }
            "--json" => json_path = Some(flag_value(&args, &mut i, "--json").to_owned()),
            "--trace" => trace_path = Some(flag_value(&args, &mut i, "--trace").to_owned()),
            "--metrics" => want_metrics = true,
            "--bpu" => {
                let value = flag_value(&args, &mut i, "--bpu");
                scale.backend = value
                    .parse()
                    .unwrap_or_else(|e| fail_usage(&format!("invalid value '{value}' for --bpu: {e}")));
            }
            "--inject-fault" => {
                fault_target = Some(parse_fault(flag_value(&args, &mut i, "--inject-fault")));
            }
            "--check" => {
                let path = flag_value(&args, &mut i, "--check");
                // Read up front, so a bad file fails before the run.
                let golden = std::fs::read_to_string(path)
                    .map_err(|e| e.to_string())
                    .and_then(|text| json::parse_golden(&text));
                match golden {
                    Ok(golden) => check = Some((path.to_owned(), golden)),
                    Err(e) => {
                        eprintln!("error: --check {path}: {e}");
                        std::process::exit(1);
                    }
                }
            }
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => fail_usage(&format!("unknown flag '{flag}'")),
            // Experiments run in the order selected here, not registry
            // order; duplicates warn and run once.
            "all" => {
                let mut added = false;
                for e in EXPERIMENTS {
                    if !selected.iter().any(|s| std::ptr::eq(*s, e)) {
                        selected.push(e);
                        added = true;
                    }
                }
                if !added {
                    eprintln!("warning: duplicate selection 'all' ignored");
                }
            }
            name => match EXPERIMENTS.iter().find(|e| e.name == name) {
                Some(e) if selected.iter().any(|s| std::ptr::eq(*s, e)) => {
                    eprintln!("warning: duplicate selection '{name}' ignored");
                }
                Some(e) => selected.push(e),
                None => fail_usage(&format!("unknown experiment '{name}'")),
            },
        }
        i += 1;
    }
    if selected.is_empty() {
        fail_usage("no experiments selected");
    }
    scale.trace = trace_path.is_some() || want_metrics;
    if let Some(target) = fault_target {
        if !selected.iter().any(|e| e.name == target) {
            eprintln!("warning: --inject-fault target '{target}' is not among the selected experiments");
        }
    }
    if scale.backend != bscope_bpu::BackendKind::Hybrid {
        let fixed: Vec<String> = selected
            .iter()
            .filter_map(|e| e.backend.map(|backend| format!("{} ({backend})", e.name)))
            .collect();
        if !fixed.is_empty() {
            eprintln!(
                "note: --bpu {} does not apply to experiments with a fixed backend: {}",
                scale.backend,
                fixed.join(", ")
            );
        }
    }

    let mut report = json::Report::new(&scale);
    // JSONL trace lines accumulate across experiments and are written
    // atomically once at the end (a watcher never sees a partial file).
    let mut trace_lines = String::new();
    for exp in &selected {
        println!("==============================================================");
        println!("{}: {}", exp.name, exp.desc);
        println!("==============================================================");
        // Each experiment records into its own scale's record, so metrics
        // recorded before a mid-experiment failure belong to *its* report
        // entry and cannot leak into the next experiment's.
        let fault = (fault_target == Some(exp.name)).then_some(FaultPlan { panic_on_index: 0 });
        let exp_scale = Scale { fault, record: Default::default(), ..scale };
        // Every core an experiment builds is dropped by the time it
        // returns, on whichever thread ran it, so the difference is its
        // simulated branches.
        let sim_before = SimCore::dropped_sim_branches();
        let started = std::time::Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| (exp.run)(&exp_scale)));
        let elapsed = started.elapsed();
        let sim_branches = SimCore::dropped_sim_branches() - sim_before;
        // Traces are empty unless --trace/--metrics; their aggregates go on
        // this experiment's report entry.
        let Record { mut metrics, traces } = exp_scale.take_record();
        if !traces.is_empty() {
            if want_metrics {
                let mut agg = bscope_trace::MetricsRegistry::default();
                for (_, _, capture) in &traces {
                    agg.merge(&capture.metrics);
                }
                println!("trace metrics ({} trials):", traces.len());
                for (k, v) in agg.summary() {
                    println!("  {k:<28} {v}");
                    metrics.push((format!("trace/{k}"), v));
                }
            }
            if trace_path.is_some() {
                for (idx, seed, capture) in &traces {
                    trace_lines.push_str(&bscope_trace::jsonl::trial_begin_line(exp.name, *idx, *seed));
                    for e in &capture.events {
                        trace_lines.push_str(&bscope_trace::jsonl::event_line(exp.name, *idx, e));
                    }
                    trace_lines.push_str(&bscope_trace::jsonl::trial_end_line(
                        exp.name,
                        *idx,
                        capture.events.len(),
                        capture.dropped,
                    ));
                }
            }
        }
        let error = match outcome {
            Ok(Ok(())) => None,
            Ok(Err(e)) => Some(e.to_string()),
            Err(payload) => Some(bscope_harness::panic_message(&*payload)),
        };
        match &error {
            None => println!("[{} finished in {elapsed:.1?}]\n", exp.name),
            Some(msg) => {
                eprintln!("error: experiment '{}' failed: {msg}", exp.name);
                println!("[{} FAILED after {elapsed:.1?}]\n", exp.name);
            }
        }
        // The report entry records the backend that actually ran.
        let backend = exp.backend.unwrap_or(scale.backend.name());
        report.record(exp.name, backend, elapsed.as_secs_f64(), sim_branches, metrics, error);
    }

    let any_failed = report.has_failures();
    // The report is written even after failures: a partial report with
    // `"status": "failed"` entries beats losing the completed experiments.
    if let Some(path) = json_path {
        match report.write_to(&path) {
            Ok(()) => println!("[wrote {path}]"),
            Err(e) => {
                eprintln!("error: failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = trace_path {
        match json::write_atomic(&path, &trace_lines) {
            Ok(()) => println!("[wrote {path}]"),
            Err(e) => {
                eprintln!("error: failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    let mut mismatched = false;
    if let Some((path, golden)) = check {
        let registry: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        let diffs = report.check(&golden, &registry);
        for d in &diffs {
            eprintln!("check: {d}");
        }
        mismatched = !diffs.is_empty();
        if mismatched {
            eprintln!("error: {} metric difference(s) against {path}", diffs.len());
        } else {
            println!("[check: metrics match {path}]");
        }
    }
    if any_failed {
        eprintln!("error: one or more experiments failed (see report entries above)");
    }
    if any_failed || mismatched {
        std::process::exit(1);
    }
}
