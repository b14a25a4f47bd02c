//! Exactness of the benchmark's simulated outputs: what a speed-only change
//! must leave bit-identical. Plans are shrunk so the tests run in seconds;
//! every trial kind of every workload is still exercised.

use bscope_simbench::pass::{branch_stream, run_pass, Tracing};
use bscope_simbench::workload::{Plan, Task, Workload};

/// The workload's plan with fewer, shorter trials.
fn small_plan(workload: Workload) -> Plan {
    let mut plan = workload.plan(7).expect("preset configurations are valid");
    if workload == Workload::Fig4Blocks {
        plan.trials.truncate(2);
        plan.slots = 1;
        plan.stability.reps = 2;
    }
    for spec in &mut plan.trials {
        match &mut spec.task {
            Task::Covert { bits } => bits.truncate(40),
            Task::Secret { bits } => bits.truncate(16),
            Task::Calibrate { samples } => *samples = 100,
            Task::Detect { trials, .. } => *trials = 20,
            Task::ProbeLatency { reps, .. } => *reps = 100,
            Task::Block { .. } => {}
        }
    }
    plan
}

#[test]
fn traced_and_untraced_runs_agree_exactly() {
    for workload in Workload::ALL {
        let plan = small_plan(workload);
        let untraced = run_pass(&plan, 0, 1, Tracing::Off);
        let traced = run_pass(&plan, 0, 1, Tracing::On { stream_cap: 500 });
        let outputs = untraced.outputs().expect("no trial panics");
        assert_eq!(
            traced.outputs().expect("no trial panics"),
            outputs,
            "{}",
            workload.name()
        );

        // The tracer's exact counts agree with the untraced accounting
        // (PerfCounters for the foreground, predictor stats for noise).
        let counts = untraced.counts();
        let metrics = traced.trace_metrics();
        assert_eq!(
            metrics.counter("branches"),
            counts.foreground,
            "{}",
            workload.name()
        );
        assert_eq!(
            metrics.counter("noise_branches"),
            counts.noise,
            "{}",
            workload.name()
        );
        assert_eq!(
            counts.noise > 0,
            plan.trials[0].machine.noise.is_some(),
            "{}",
            workload.name()
        );

        let capture = traced.records[plan.replay_trial]
            .capture
            .as_ref()
            .expect("traced");
        let replayed = outputs[plan.replay_trial].counts.foreground as usize;
        assert_eq!(
            branch_stream(capture).len(),
            500.min(replayed),
            "{}",
            workload.name()
        );
        assert!(untraced.records.iter().all(|r| r.capture.is_none()));
    }
}

#[test]
fn covert_table2_is_identical_at_one_and_two_threads() {
    let plan = small_plan(Workload::CovertTable2);
    let one = run_pass(&plan, 0, 1, Tracing::Off);
    let two = run_pass(&plan, 0, 2, Tracing::Off);
    assert_eq!(
        one.outputs().expect("no trial panics"),
        two.outputs().expect("no trial panics")
    );
    assert_eq!(one.counts(), two.counts());
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    for workload in Workload::ALL {
        let render = |seed| format!("{:?}", workload.plan(seed).expect("valid").trials);
        assert_eq!(render(3), render(3), "{}", workload.name());
    }
    // Workloads with random inputs draw different ones for another seed.
    for workload in [
        Workload::Fig4Blocks,
        Workload::CovertTable2,
        Workload::DefenseBackends,
    ] {
        let render = |seed| format!("{:?}", workload.plan(seed).expect("valid").trials);
        assert_ne!(render(3), render(4), "{}", workload.name());
    }
}
