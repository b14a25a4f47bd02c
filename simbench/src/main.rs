//! `simbench`: runs one workload for a fixed time and prints every metric
//! by name and unit, ending with one JSON line.
//!
//! ```text
//! simbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! measures the per-layer metrics: tracing overhead, exact counts from each
//! trial's tracer, and the layer ladder. Exit status is 0 only when every
//! output check passed.

use bscope_simbench::host::{peak_rss_mb, HostInfo};
use bscope_simbench::ladder::{run_ladder, Metric};
use bscope_simbench::pass::{branch_stream, run_pass, Pass, Tracing};
use bscope_simbench::reference::{self, Reference};
use bscope_simbench::stats::{median, quantile, tail};
use bscope_simbench::workload::{Check, Observed, Plan, SimCounts, TrialOutput, Workload};
use bscope_trace::MetricsRegistry;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: simbench --workload fig4_blocks|covert_table2|defense_backends|timing_channel \
[--seed N] [--seconds N] [--trace 0|1]";
/// Set-ups per timed batch, so each batch is well above timer resolution.
const SETUP_BATCH: usize = 50;
/// Passes measured at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Branch events kept from the replay trial for the ladder.
const STREAM_CAP: usize = 100_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.strip_prefix("0x")
                .map_or_else(|| v.parse(), |hex| u64::from_str_radix(hex, 16))
                .map_err(|e| format!("invalid value {v:?} for {flag}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = number(&value)?,
            "--seconds" => {
                seconds = number(&value)?;
                if !(1..=3600).contains(&seconds) {
                    return Err(format!("--seconds must be 1..=3600, got {seconds}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Checks every trial against its first complete run and, once every trial
/// has run, the whole set against the paper shapes; counts attempted and
/// failed trials.
struct Verifier<'a> {
    plan: &'a Plan,
    reference: Vec<Option<TrialOutput>>,
    checks: Option<Vec<Check>>,
    attempted: usize,
    failed: usize,
}

impl<'a> Verifier<'a> {
    fn new(plan: &'a Plan) -> Self {
        Verifier {
            plan,
            reference: vec![None; plan.trials.len()],
            checks: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// A trial fails when it panicked, its output is malformed, or it
    /// differs from the first run of the same trial (the simulation is
    /// deterministic, so any difference is a bug).
    fn verify(&mut self, pass: &Pass) {
        for (i, record) in pass.records.iter().enumerate() {
            let idx = pass.start + i;
            self.attempted += 1;
            let ok = record.output.as_ref().is_some_and(|out| {
                self.plan.trial_ok(idx, out)
                    && self.reference[idx].get_or_insert_with(|| out.clone()) == out
            });
            if !ok {
                self.failed += 1;
            }
        }
        if self.checks.is_none() {
            self.checks = self.outputs().map(|outs| self.plan.checks(&outs));
        }
    }

    /// Every trial's first output, once each trial has run.
    fn outputs(&self) -> Option<Vec<TrialOutput>> {
        self.reference.iter().cloned().collect()
    }

    fn shapes_ok(&self) -> bool {
        self.checks
            .as_ref()
            .is_some_and(|checks| checks.iter().all(|c| c.ok))
    }

    /// Failed trials: all of them when the paper-shape checks failed.
    fn failed(&self) -> usize {
        if self.shapes_ok() {
            self.failed
        } else {
            self.attempted
        }
    }
}

/// Runs passes for `budget` (at least [`MIN_PASSES`]), verifying each and
/// calling `between` after each.
fn measure(
    plan: &Plan,
    threads: usize,
    tracing: Tracing,
    budget: Duration,
    verifier: &mut Verifier,
    mut between: impl FnMut(),
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let pass = run_pass(plan, passes.len(), threads, tracing);
        verifier.verify(&pass);
        passes.push(pass);
        between();
        let mean = start.elapsed() / passes.len() as u32;
        if passes.len() >= MIN_PASSES.max(plan.slots) && start.elapsed() + mean > budget {
            return passes;
        }
    }
}

fn median_wall_s(passes: &[Pass]) -> f64 {
    median(
        &passes
            .iter()
            .map(|p| p.wall_ns as f64 / 1e9)
            .collect::<Vec<_>>(),
    )
}

struct Report {
    metrics: Vec<Metric>,
    lines: Vec<String>,
}

impl Report {
    /// Prints a figure without reporting it in the JSON line.
    fn info(&mut self, name: &str, value: f64, unit: &str, note: String) {
        self.lines
            .push(format!("{name:<36} {:>14} {unit:<12} {note}", human(value)));
    }

    /// Prints a metric and reports it in the JSON line.
    fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.info(name, value, unit, note);
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }
}

/// End-to-end metrics, tracing off. Every host time is stated at the
/// reference speed (see [`reference`](bscope_simbench::reference)): the
/// reference is timed before the first pass and after every pass, a pass is
/// scaled by the mean of the two reference times around it, and a set-up
/// batch by the one just before it. `set_up` repeats the run's set-up; it is
/// timed in batches between passes, so set-up samples span the whole run
/// just as the passes do.
fn end_to_end(
    plan: &Plan,
    threads: usize,
    budget: Duration,
    (set_up, first_setup_s): (impl Fn(), f64),
    v: &mut Verifier,
    r: &mut Report,
) {
    let reference = Reference::new(threads);
    let mut refs = vec![reference.time()];
    let mut setups = Vec::new();
    let passes = measure(plan, threads, Tracing::Off, budget, v, || {
        refs.push(reference.time());
        let start = Instant::now();
        for _ in 0..SETUP_BATCH {
            set_up();
        }
        setups.push(start.elapsed().as_secs_f64() / SETUP_BATCH as f64);
    });
    let pass_scale: Vec<f64> = refs
        .windows(2)
        .map(|w| reference::NOMINAL_S / ((w[0] + w[1]) / 2.0))
        .collect();
    let raw_walls: Vec<f64> = passes.iter().map(|p| p.wall_ns as f64 / 1e9).collect();
    let walls: Vec<f64> = raw_walls
        .iter()
        .zip(&pass_scale)
        .map(|(w, s)| w * s)
        .collect();
    let per_branch: Vec<f64> = passes
        .iter()
        .zip(&walls)
        .map(|(p, w)| w * 1e9 / p.counts().simulated() as f64)
        .collect();
    let setups: Vec<f64> = setups
        .iter()
        .zip(&refs[1..])
        .map(|(s, r)| s * reference::NOMINAL_S / r)
        .collect();
    let trial_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.records)
        .filter(|t| t.output.is_some())
        .map(|t| t.host_ns as f64 / 1e6)
        .collect();
    let spread = |v: &[f64]| {
        format!(
            "median of {}; p10 {:.4e}, min {:.4e}, max {:.4e}",
            v.len(),
            quantile(v, 0.1),
            quantile(v, 0.0),
            quantile(v, 1.0)
        )
    };
    r.metric(
        "wall_s",
        median(&walls),
        "s",
        format!("{} trials per pass; {}", plan.slot(0).len(), spread(&walls)),
    );
    let sim = passes[0].counts().simulated();
    r.metric(
        "ns_per_sim_branch",
        median(&per_branch),
        "ns",
        format!(
            "wall-clock; {sim} simulated branches in pass 0, {threads} thread(s); {}",
            spread(&per_branch)
        ),
    );
    r.info(
        "wall_s_measured",
        median(&raw_walls),
        "s",
        format!("as measured, not scaled; {}", spread(&raw_walls)),
    );
    let speeds: Vec<f64> = refs.iter().map(|t| reference::NOMINAL_S / t).collect();
    r.info(
        "host_speed",
        median(&speeds),
        "ratio",
        format!("reference speed over nominal; {}", spread(&speeds)),
    );
    // Trial latency percentiles follow every interference burst, so they are
    // printed for reading, as measured, but carry no bound in BENCHMARK.json.
    r.info(
        "trial_ms_p50",
        median(&trial_ms),
        "ms",
        format!("over {} trials; printed only", trial_ms.len()),
    );
    let (p, tail_ms) =
        tail(&trial_ms).unwrap_or((100.0, trial_ms.iter().copied().fold(0.0, f64::max)));
    r.info(
        "trial_ms_tail",
        tail_ms,
        "ms",
        format!("p{p:.2} of {} trials; printed only", trial_ms.len()),
    );
    r.metric(
        "setup_s",
        median(&setups),
        "s",
        format!(
            "batches of {SETUP_BATCH} between passes; {}; first, from process start: {first_setup_s:.4e}",
            spread(&setups)
        ),
    );
    r.metric(
        "peak_rss_mb",
        peak_rss_mb().unwrap_or(f64::NAN),
        "MiB",
        "VmHWM of the process".to_owned(),
    );
}

/// Per-layer metrics: untraced passes, traced passes, then the ladder.
fn per_layer(plan: &Plan, threads: usize, budget: Duration, v: &mut Verifier, r: &mut Report) {
    let untraced = measure(plan, threads, Tracing::Off, budget.mul_f64(0.35), v, || ());
    let traced = measure(
        plan,
        threads,
        Tracing::On {
            stream_cap: STREAM_CAP,
        },
        budget.mul_f64(0.35),
        v,
        || (),
    );

    // Exact counts over the first traced pass of each slot: every trial once.
    let mut counts = SimCounts::default();
    let mut trace = MetricsRegistry::default();
    for pass in &traced[..plan.slots] {
        counts.add(&pass.counts());
        trace.merge(&pass.trace_metrics());
    }
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let every_trial = format!("every trial once ({} trials)", plan.trials.len());
    r.metric(
        "bpu.branches",
        counts.bpu.branches as f64,
        "count",
        format!("predictor stats(), {every_trial}"),
    );
    r.metric(
        "bpu.mispredict_ratio",
        ratio(counts.bpu.mispredictions, counts.bpu.branches),
        "ratio",
        String::new(),
    );
    r.metric(
        "bpu.two_level_ratio",
        ratio(counts.bpu.gshare_used, counts.bpu.branches),
        "ratio",
        String::new(),
    );

    // The tracer's counts must agree with the untraced accounting.
    let noise = trace.counter("noise_branches");
    let agree = noise == counts.noise && trace.counter("branches") == counts.foreground;
    if !agree {
        v.failed += plan.trials.len();
    }
    r.metric(
        "uarch.noise_branches",
        noise as f64,
        "count",
        format!("tracer; equals PerfCounters/stats accounting: {agree}"),
    );
    r.metric(
        "uarch.noise_share",
        ratio(noise, counts.simulated()),
        "ratio",
        String::new(),
    );
    r.metric(
        "uarch.btb_hit_ratio",
        ratio(trace.counter("btb_hits"), trace.counter("branches")),
        "ratio",
        String::new(),
    );

    let first = &traced[0];
    let capture = first.records[plan.replay_trial - first.start]
        .capture
        .as_ref()
        .expect("traced passes capture");
    let stream = branch_stream(capture);
    let ladder = run_ladder(plan, &stream, plan.base_seed);
    let machine = plan.replay_machine();
    let bpu_ns = ladder.value(&format!("bpu.execute_ns.{}", machine.backend.name()));
    let uarch_ns = ladder.value("uarch.execute_branch_ns");
    let os_ns = ladder.value("os.branch_at_abs_ns");
    r.lines.push(format!(
        "ladder: trial {}'s machine; bpu/uarch/os replay its first {} branches",
        plan.replay_trial,
        stream.len()
    ));
    for (m, distribution) in &ladder.metrics {
        r.metric(&m.name, m.value, m.unit, distribution.clone());
        if m.name == "uarch.execute_branch_ns" {
            r.metric(
                "uarch.self_ns",
                uarch_ns - bpu_ns,
                "ns",
                format!("minus bpu.execute_ns.{}", machine.backend.name()),
            );
        } else if m.name == "os.branch_at_abs_ns" {
            r.metric(
                "os.self_ns",
                os_ns - uarch_ns,
                "ns",
                "minus uarch.execute_branch_ns".to_owned(),
            );
        }
    }

    let bits: usize = plan.trials.iter().map(|t| t.bits()).sum();
    let (sim, bits, errors, source) = if bits > 0 {
        let errors = v
            .outputs()
            .iter()
            .flatten()
            .map(|o| match o.observed {
                Observed::Bits { errors, .. } => errors,
                _ => 0,
            })
            .sum();
        (counts.simulated(), bits, errors, "the workload's trials")
    } else {
        (
            ladder.round_counts.simulated(),
            ladder.round_bits,
            ladder.round_errors,
            "the ladder's covert round",
        )
    };
    r.metric(
        "core.sim_branches_per_bit",
        sim as f64 / bits as f64,
        "branches/bit",
        format!("from {source}"),
    );
    r.metric(
        "core.bit_error_ratio",
        errors as f64 / bits as f64,
        "ratio",
        format!("{errors} of {bits} bits, {source}"),
    );

    let overhead: Vec<f64> = untraced
        .iter()
        .map(|p| (p.wall_ns as f64 - p.trial_ns_total() as f64 / threads as f64) / 1e6)
        .collect();
    let efficiency: Vec<f64> = untraced
        .iter()
        .map(|p| p.trial_ns_total() as f64 / (threads as f64 * p.wall_ns as f64))
        .collect();
    r.metric(
        "harness.overhead_ms",
        median(&overhead),
        "ms",
        format!("runner span minus trial spans / {threads} thread(s)"),
    );
    r.metric(
        "harness.parallel_efficiency",
        median(&efficiency),
        "ratio",
        String::new(),
    );
    let (off, on) = (median_wall_s(&untraced), median_wall_s(&traced));
    r.metric(
        "trace.overhead_pct",
        100.0 * (on / off - 1.0),
        "%",
        format!(
            "traced {on:.4} s vs untraced {off:.4} s per pass ({} vs {} passes)",
            traced.len(),
            untraced.len()
        ),
    );
    r.lines.push("trial spans (traced passes):".to_owned());
    r.lines.extend(span_table(plan, &traced));
}

/// Spans the benchmark recorded around its calls into each crate, kept in
/// memory during the traced passes and summarised here: the harness trial,
/// the `bscope-os` system build inside it, and the task call (the trial's
/// self time is what the two children leave).
fn span_table(plan: &Plan, passes: &[Pass]) -> Vec<String> {
    let mut spans: Vec<(&str, Vec<f64>)> = vec![
        ("harness.trial", vec![]),
        ("os.system_build", vec![]),
        ("task", vec![]),
    ];
    for record in passes
        .iter()
        .flat_map(|p| &p.records)
        .filter(|r| r.output.is_some())
    {
        spans[0].1.push(record.host_ns as f64 / 1e3);
        spans[1].1.push(record.setup_ns as f64 / 1e3);
        spans[2]
            .1
            .push((record.host_ns - record.setup_ns) as f64 / 1e3);
    }
    let task = match plan.workload {
        Workload::Fig4Blocks => "core.characterize_block",
        Workload::CovertTable2 => "core.CovertChannel::transmit",
        Workload::DefenseBackends => "core.BranchScope::read_bit (x bits)",
        Workload::TimingChannel => "core.timing_probe calls",
    };
    spans
        .into_iter()
        .map(|(name, us)| {
            let name = if name == "task" { task } else { name };
            format!(
                "  {name:<36} {:>5} spans, total {:>10.1} ms, median {:>10.1} us",
                us.len(),
                us.iter().sum::<f64>() / 1e3,
                median(&us)
            )
        })
        .collect()
}

/// A value with four decimals, or four significant digits when small.
fn human(value: f64) -> String {
    if value != 0.0 && value.abs() < 0.01 {
        format!("{value:.3e}")
    } else {
        format!("{value:.4}")
    }
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_owned()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Set-up: input generation, config validation and decode dictionaries.
    // The first is timed from process start; end-to-end runs repeat it
    // between passes for `setup_s`.
    let plan = match args.workload.plan(args.seed) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("error: invalid configuration: {e}");
            return ExitCode::from(2);
        }
    };
    let first_setup_s = process_start.elapsed().as_secs_f64();
    let set_up = || {
        std::hint::black_box(args.workload.plan(args.seed).expect("validated above"));
    };

    let host = HostInfo::collect();
    let threads = args.workload.threads();
    println!(
        "simbench {} (seed {}, {} s, trace {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: {} cores available, {threads} thread(s) used; commit {}; {}",
        host.cores, host.commit, host.rustc
    );
    println!(
        "closed loop: each worker starts its next trial when the previous one ends; {} trials per pass, {} trials in all",
        plan.slot(0).len(),
        plan.trials.len()
    );

    let budget = Duration::from_secs(args.seconds);
    let mut verifier = Verifier::new(&plan);
    let mut report = Report {
        metrics: Vec::new(),
        lines: Vec::new(),
    };
    if args.trace {
        per_layer(&plan, threads, budget, &mut verifier, &mut report);
    } else {
        end_to_end(
            &plan,
            threads,
            budget,
            (set_up, first_setup_s),
            &mut verifier,
            &mut report,
        );
    }

    if let Some(outs) = verifier.outputs() {
        println!("simulated results (identical in every run of each trial):");
        for line in plan.describe(&outs) {
            println!("  {line}");
        }
        match plan.paper_gap(&outs) {
            Some((gap, unit)) => println!(
                "{:<36} {gap:>14.4} {unit:<12} against the paper",
                "paper_gap"
            ),
            None => println!(
                "{:<36} {:>14} {:<12} no paper reference: unvalidated",
                "paper_gap", "-", ""
            ),
        }
    }
    for check in verifier.checks.iter().flatten() {
        println!(
            "check {:<52} {}",
            check.name,
            if check.ok { "ok" } else { "FAILED" }
        );
    }
    let failed = verifier.failed();
    let failed_frac = failed as f64 / verifier.attempted.max(1) as f64;
    println!(
        "{:<36} {failed_frac:>14.4} {:<12} {failed} of {} trials",
        "failed_frac", "ratio", verifier.attempted
    );
    for line in &report.lines {
        println!("{line}");
    }
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    let correct = failed == 0 && verifier.shapes_ok() && finite;
    println!(
        "{}",
        json_line(correct, verifier.attempted, failed, &report.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
