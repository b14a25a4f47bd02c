//! Trial-runner overhead: `bscope_harness::run_trials_with` against a raw
//! sequential loop over the same per-trial work, at several trial costs.
//!
//! The interesting question is where the runner's fixed cost (thread
//! spawn, slot collection) stops mattering: for trials in the microsecond
//! range and up — every real experiment trial is milliseconds — the
//! overhead is noise and the multi-thread configurations show the actual
//! speedup headroom.
//!
//! The `tracing_overhead` group guards the zero-cost-when-disabled claim
//! of `bscope-trace`: a traced run with a disabled tracer must match the
//! untraced runner on simulator-driving trials, with the enabled ring
//! alongside to show what turning tracing on actually costs.

use bscope_harness::{run_trials_traced, run_trials_with, splitmix64, trial_seed, RunOptions};
use bscope_uarch::SimCore;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

/// Simulated per-trial work: `rounds` SplitMix64 iterations (~1 ns each).
fn work(seed: u64, rounds: u64) -> u64 {
    let mut acc = seed;
    for _ in 0..rounds {
        acc = splitmix64(acc);
    }
    acc
}

fn runner_vs_sequential(c: &mut Criterion) {
    const TRIALS: usize = 256;
    for rounds in [100u64, 10_000, 1_000_000] {
        let mut group = c.benchmark_group(format!("run_trials_with/{rounds}_rounds_per_trial"));
        group.throughput(Throughput::Elements(TRIALS as u64));
        group.sample_size(10);
        group.bench_function("raw_sequential_loop", |b| {
            b.iter(|| {
                let out: Vec<u64> = (0..TRIALS)
                    .map(|idx| work(trial_seed(7, idx as u64), rounds))
                    .collect();
                black_box(out)
            })
        });
        for threads in [1usize, 2, 8] {
            group.bench_with_input(
                BenchmarkId::new("run_trials_with", threads),
                &threads,
                |b, &threads| {
                    let opts = RunOptions { threads, ..RunOptions::default() };
                    b.iter(|| {
                        black_box(
                            run_trials_with(TRIALS, 7, &opts, |_idx, seed| work(seed, rounds))
                                .expect_complete(),
                        )
                    })
                },
            );
        }
        group.finish();
    }
}

/// One simulator-driving trial: the hot path every real experiment spends
/// its time in, so the tracer hooks sit exactly where they do in practice.
fn sim_trial(seed: u64, tracer: &mut bscope_uarch::Tracer) -> u64 {
    let mut core = SimCore::new(bscope_bpu::MicroarchProfile::skylake(), seed);
    core.set_tracer(std::mem::take(tracer));
    let mut acc = 0u64;
    for i in 0..512u64 {
        let addr = 0x30_0000 + (i % 64) * 2;
        let taken = bscope_bpu::Outcome::from_bool(splitmix64(seed ^ i) & 1 == 1);
        acc = acc.wrapping_add(core.execute_branch(addr, taken).latency);
    }
    *tracer = core.take_tracer();
    acc
}

fn tracing_overhead(c: &mut Criterion) {
    const TRIALS: usize = 64;
    let opts = RunOptions { threads: 1, ..RunOptions::default() };
    let mut group = c.benchmark_group("tracing_overhead/512_branches_per_trial");
    group.throughput(Throughput::Elements(TRIALS as u64));
    group.sample_size(20);
    group.bench_function("untraced_runner", |b| {
        b.iter(|| {
            black_box(
                run_trials_with(TRIALS, 7, &opts, |_idx, seed| {
                    sim_trial(seed, &mut bscope_uarch::Tracer::disabled())
                })
                .expect_complete(),
            )
        })
    });
    group.bench_function("traced_runner_disabled", |b| {
        b.iter(|| {
            black_box(run_trials_traced(TRIALS, 7, &opts, None, |_idx, seed, tracer| {
                sim_trial(seed, tracer)
            }))
        })
    });
    group.bench_function("traced_runner_ring1024", |b| {
        b.iter(|| {
            black_box(run_trials_traced(TRIALS, 7, &opts, Some(1024), |_idx, seed, tracer| {
                sim_trial(seed, tracer)
            }))
        })
    });
    group.finish();
}

criterion_group!(benches, runner_vs_sequential, tracing_overhead);
criterion_main!(benches);
