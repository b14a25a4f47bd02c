//! The per-layer ladder: replays a workload's recorded branch stream
//! through each layer's entry point, on the workload's own machine
//! configuration, and times one layer call at a time with the repeat timer.
//!
//! Layers, bottom to top: `PredictorBackend::execute` (bpu),
//! `SimCore::execute_branch_in` (uarch), `CpuView::branch_at_abs` (os),
//! block / probe / read-bit / latency-sample calls (core), and a read-bit
//! round under each §10.2 defense (mitigations).

use crate::timer::{time_repeated, Timing};
use crate::workload::{read_secret, Defense, Machine, Plan, Rig, SimCounts};
use bscope_bpu::{BackendKind, Outcome};
use bscope_core::covert::CovertChannel;
use bscope_core::stability::StabilityConfig;
use bscope_core::timing_probe::collect_latency_samples;
use bscope_core::{probe_with_counters, ProbeKind, RandomizationBlock};
use bscope_os::Pid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Timed repeats of every ladder step.
pub const REPEATS: usize = 7;
/// Bits per timed covert round.
const READ_BITS: usize = 300;
/// Bits per timed round under each defense.
const DEFENSE_READ_BITS: usize = 200;
/// Probe pairs per timed probe step.
const PROBES: usize = 1_000;
/// Labelled latency samples per class per timed step.
const LATENCY_SAMPLES: usize = 500;
/// Base of the randomization-block region `bscope_core` uses by default.
const BLOCK_REGION: u64 = 0x70_0000;

/// One per-layer metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The ladder's metrics, each with its min / median / max over the repeats,
/// and the exact counts of its untimed covert round.
#[derive(Debug, Clone)]
pub struct Ladder {
    /// Per-layer metrics (the median repeat) and their distributions.
    pub metrics: Vec<(Metric, String)>,
    /// Counts of an untimed covert round on the ladder machine.
    pub round_counts: SimCounts,
    /// Bits read wrongly in that round.
    pub round_errors: usize,
    /// Bits sent in that round.
    pub round_bits: usize,
}

impl Ladder {
    fn push(&mut self, name: impl Into<String>, t: Timing, scale: f64, unit: &'static str) {
        let metric = Metric {
            name: name.into(),
            value: t.median_ns / scale,
            unit,
        };
        self.metrics.push((metric, t.describe(scale, unit)));
    }

    /// The median of a metric pushed earlier.
    ///
    /// # Panics
    ///
    /// Panics if no metric of that name was pushed.
    #[must_use]
    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|(m, _)| m.value)
            .expect("ladder metric pushed")
    }
}

/// Runs the ladder for `plan` over `stream`, the replay trial's foreground
/// branches `(ctx, addr, taken)`, on the replay trial's machine.
///
/// # Panics
///
/// Panics if `stream` is empty.
#[must_use]
pub fn run_ladder(plan: &Plan, stream: &[(u32, u64, bool)], seed: u64) -> Ladder {
    assert!(
        !stream.is_empty(),
        "the ladder needs a recorded branch stream"
    );
    let machine = plan.replay_machine();
    let partner = plan.trials[plan.replay_trial].partner();
    let n = stream.len() as u64;
    let mut ladder = Ladder {
        metrics: Vec::new(),
        round_counts: SimCounts::default(),
        round_errors: 0,
        round_bits: 0,
    };

    // bpu: the bare predictor, every backend, same stream.
    for kind in BackendKind::ALL {
        let t = time_repeated(
            REPEATS,
            n,
            || kind.build(machine.profile.clone()),
            |bpu| {
                for &(_, addr, taken) in stream {
                    black_box(bpu.execute(addr, Outcome::from_bool(taken), None));
                }
            },
        );
        ladder.push(format!("bpu.execute_ns.{}", kind.name()), t, 1.0, "ns");
    }

    // uarch: the workload's core (noise, policy, fuzz installed).
    let t = time_repeated(
        REPEATS,
        n,
        || machine.build(seed, partner),
        |rig| {
            let core = rig.sys.core_mut();
            for &(ctx, addr, taken) in stream {
                black_box(core.execute_branch_in(ctx, addr, Outcome::from_bool(taken), None));
            }
        },
    );
    ladder.push("uarch.execute_branch_ns", t, 1.0, "ns");

    // os: the same stream through each process's CpuView.
    let t = time_repeated(
        REPEATS,
        n,
        || machine.build(seed, partner),
        |rig| {
            for &(ctx, addr, taken) in stream {
                black_box(
                    rig.sys
                        .cpu(Pid(ctx))
                        .branch_at_abs(addr, Outcome::from_bool(taken)),
                );
            }
        },
    );
    ladder.push("os.branch_at_abs_ns", t, 1.0, "ns");
    let t = time_repeated(REPEATS * 8, 1, || (), |()| machine.build(seed, partner));
    ladder.push("os.system_setup_us", t, 1e3, "us");

    // core: the Fig. 4 block, the probe pair, a covert round, latency samples.
    let block_len = machine.profile.pht_size * 10;
    let t = time_repeated(
        REPEATS,
        1,
        || (),
        |()| RandomizationBlock::generate(seed, block_len, BLOCK_REGION),
    );
    ladder.push("core.block_generate_ms", t, 1e6, "ms");
    let t = time_repeated(
        REPEATS,
        1,
        || {
            (
                machine.build(seed, None),
                RandomizationBlock::generate(seed, block_len, BLOCK_REGION),
            )
        },
        |(rig, block)| block.execute(&mut rig.sys.cpu(rig.spy)),
    );
    ladder.push("core.block_execute_ms", t, 1e6, "ms");
    let probe_addr = StabilityConfig::default().probe_addr;
    let t = time_repeated(
        REPEATS,
        PROBES as u64,
        || machine.build(seed, None),
        |rig| {
            for _ in 0..PROBES {
                black_box(probe_with_counters(
                    &mut rig.sys.cpu(rig.spy),
                    probe_addr,
                    ProbeKind::TakenTaken,
                ));
            }
        },
    );
    ladder.push("core.probe_us", t, 1e3, "us");

    let mut rng = StdRng::seed_from_u64(seed);
    let message: Vec<bool> = (0..READ_BITS).map(|_| rng.gen()).collect();
    let covert_round = |rig: &mut Rig| {
        let sender = rig.partner.expect("covert rounds spawn a sender");
        let mut channel =
            CovertChannel::new(machine.attack_config()).expect("validated in the plan");
        channel
            .transmit(&mut rig.sys, sender, rig.spy, &message)
            .errors
    };
    let t = time_repeated(
        REPEATS,
        READ_BITS as u64,
        || machine.build(seed, Some("trojan")),
        covert_round,
    );
    ladder.push("core.read_bit_us", t, 1e3, "us");
    let mut rig = machine.build(seed, Some("trojan"));
    ladder.round_errors = covert_round(&mut rig);
    ladder.round_counts = SimCounts::of(&rig.sys, machine.noise.is_some());
    ladder.round_bits = READ_BITS;

    let t = time_repeated(
        REPEATS,
        2 * LATENCY_SAMPLES as u64,
        || machine.build(seed, None),
        |rig| {
            let warm_hits =
                collect_latency_samples(&mut rig.sys, rig.spy, LATENCY_SAMPLES, false, false);
            let cold_misses =
                collect_latency_samples(&mut rig.sys, rig.spy, LATENCY_SAMPLES, true, true);
            (warm_hits, cold_misses)
        },
    );
    ladder.push("core.latency_sample_ns", t, 1.0, "ns");

    // mitigations: a read-bit round under each defense on the hybrid.
    let secret: Vec<bool> = (0..DEFENSE_READ_BITS).map(|_| rng.gen()).collect();
    for defense in Defense::ALL {
        let defended = Machine {
            profile: machine.profile.clone(),
            backend: BackendKind::Hybrid,
            noise: None,
            defense,
        };
        let t = time_repeated(
            REPEATS,
            DEFENSE_READ_BITS as u64,
            || defended.build(seed, Some("victim")),
            |rig| {
                let victim = rig.partner.expect("defense rounds spawn a victim");
                read_secret(&mut rig.sys, rig.spy, victim, &defended, &secret)
            },
        );
        ladder.push(
            format!("mitigations.read_bit_us.{}", defense.name()),
            t,
            1e3,
            "us",
        );
    }
    ladder
}
