//! The four workloads: inputs generated from the seed, one trial of each,
//! and output checks taken from the shapes the paper reports.
//!
//! Every trial is a call into the repository's public library surface, the
//! same calls the experiments make: `characterize_block` (Fig. 4),
//! `CovertChannel::transmit` (Table 2), `BranchScope::read_bit` under a
//! backend or defense (§10.2), and the §8 timing-channel functions.

use bscope_bpu::{BackendKind, MicroarchProfile, PhtState, PredictionStats};
use bscope_core::covert::CovertChannel;
use bscope_core::stability::{
    characterize_block, BlockStability, StabilityConfig, StateDistribution,
};
use bscope_core::timing_probe::{detection_error_rate, probe_latency_by_state, ProbeLatencyStats};
use bscope_core::{AttackConfig, BranchScope, ProbeKind, TimingDetector};
use bscope_harness::{resolve_threads, splitmix64};
use bscope_mitigations::{
    IfConvertedVictim, MeasurementFuzz, NoPredictPolicy, PartitionedBpuPolicy, RandomizedPhtPolicy,
    StochasticFsmPolicy,
};
use bscope_os::{AslrPolicy, Pid, System, Workload as VictimProgram};
use bscope_uarch::{BpuPolicy, ContextId, NoiseConfig, Tracer, NOISE_CTX};
use bscope_victims::{SecretBranchVictim, VICTIM_BRANCH_OFFSET};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Fig. 4: blocks characterised per run, split over [`FIG4_SLOTS`] passes.
pub const FIG4_BLOCKS: usize = 24;
/// Fig. 4: passes that together cover every block once, so a pass stays
/// short enough to repeat many times in a run.
pub const FIG4_SLOTS: usize = 6;
/// Fig. 4: repetitions of each block per probing variant.
pub const FIG4_REPS: usize = 8;
/// Table 2: bits transmitted per cell (18 cells per pass).
pub const COVERT_BITS: usize = 2_000;
/// §10.2: secret bits read per backend or defense cell.
pub const DEFENSE_BITS: usize = 500;
/// §8: labelled samples per class for `TimingDetector::calibrate`.
pub const CALIBRATION_SAMPLES: usize = 2_000;
/// Fig. 8: detection trials per k value.
pub const DETECTION_TRIALS: usize = 1_000;
/// Fig. 8's k values: 1, 3, …, 19 averaged measurements.
pub const DETECTION_KS: [usize; 10] = [1, 3, 5, 7, 9, 11, 13, 15, 17, 19];
/// Fig. 9: probe pairs per starting state.
pub const PROBE_REPS: usize = 2_000;

/// Table 2 of the paper, in percent, in cell order: Skylake, Haswell,
/// Sandy Bridge × {isolated, with noise} × {all 0, all 1, random}.
pub const PAPER_TABLE2: [[f64; 3]; 6] = [
    [0.46, 0.51, 0.63],
    [0.64, 0.63, 0.74],
    [0.16, 0.27, 0.46],
    [0.37, 0.29, 0.67],
    [0.68, 1.76, 2.44],
    [1.76, 4.88, 3.38],
];
/// Fig. 4: share of randomization blocks with a stable dominant pattern.
pub const PAPER_STABLE_FRACTION: f64 = 0.83;
/// Fig. 8 at k = 1, in percent: first (cold) and second (warm) measurement.
pub const PAPER_FIG8_K1: (f64, f64) = (25.0, 10.0);

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 4 block-stability characterisation on Haswell with noise.
    Fig4Blocks,
    /// Table 2 covert channel: 3 machines × 2 noise settings × 3 payloads.
    CovertTable2,
    /// Covert read on TAGE and perceptron, and on the hybrid under each
    /// §10.2 defense, noise off.
    DefenseBackends,
    /// §8 timing channel on Skylake: calibration, Fig. 8 and Fig. 9.
    TimingChannel,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig4Blocks,
        Workload::CovertTable2,
        Workload::DefenseBackends,
        Workload::TimingChannel,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig4Blocks => "fig4_blocks",
            Workload::CovertTable2 => "covert_table2",
            Workload::DefenseBackends => "defense_backends",
            Workload::TimingChannel => "timing_channel",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads: `covert_table2` fans out at the host's core count,
    /// every other workload runs on one thread.
    #[must_use]
    pub fn threads(self) -> usize {
        match self {
            Workload::CovertTable2 => resolve_threads(0),
            _ => 1,
        }
    }

    /// Generates the workload's inputs from `seed` and validates every
    /// configuration and decode dictionary the trials will use. This is the
    /// benchmark's set-up, timed as `setup_s`.
    ///
    /// # Errors
    ///
    /// Returns the first configuration error, rendered as text.
    pub fn plan(self, seed: u64) -> Result<Plan, String> {
        let base_seed = splitmix64(seed ^ splitmix64(self as u64 + 1));
        let mut rng = StdRng::seed_from_u64(base_seed);
        let mut stability = StabilityConfig::default();
        let mut slots = 1;
        let (trials, replay_trial) = match self {
            Workload::Fig4Blocks => {
                stability = StabilityConfig {
                    blocks: FIG4_BLOCKS,
                    reps: FIG4_REPS,
                    updates_per_entry: 10,
                    ..StabilityConfig::default()
                };
                slots = FIG4_SLOTS;
                let machine = Machine::new(MicroarchProfile::haswell(), BackendKind::Hybrid)
                    .with_noise(NoiseConfig::isolated_core());
                let trials = (0..FIG4_BLOCKS)
                    .map(|_| TrialSpec {
                        machine: machine.clone(),
                        task: Task::Block {
                            block_seed: rng.gen(),
                        },
                    })
                    .collect();
                (trials, 0)
            }
            Workload::CovertTable2 => {
                let mut trials = Vec::with_capacity(18);
                for profile in MicroarchProfile::paper_machines() {
                    for noise in [NoiseConfig::isolated_core(), NoiseConfig::system_activity()] {
                        for payload in 0..3 {
                            let bits = (0..COVERT_BITS)
                                .map(|_| match payload {
                                    0 => false,
                                    1 => true,
                                    _ => rng.gen(),
                                })
                                .collect();
                            let machine = Machine::new(profile.clone(), BackendKind::Hybrid)
                                .with_noise(noise.clone());
                            trials.push(TrialSpec {
                                machine,
                                task: Task::Covert { bits },
                            });
                        }
                    }
                }
                // Skylake with noise, random payload: the noisy covert path.
                (trials, 5)
            }
            Workload::DefenseBackends => {
                let skylake = MicroarchProfile::skylake();
                let mut machines: Vec<Machine> = [
                    BackendKind::Hybrid,
                    BackendKind::Tage,
                    BackendKind::Perceptron,
                ]
                .into_iter()
                .map(|backend| Machine::new(skylake.clone(), backend))
                .collect();
                machines.extend(Defense::ALL.into_iter().map(|defense| Machine {
                    defense,
                    ..Machine::new(skylake.clone(), BackendKind::Hybrid)
                }));
                let trials = machines
                    .into_iter()
                    .map(|machine| {
                        let bits = (0..DEFENSE_BITS).map(|_| rng.gen()).collect();
                        TrialSpec {
                            machine,
                            task: Task::Secret { bits },
                        }
                    })
                    .collect();
                // The randomized-PHT trial: a policy on every branch.
                (trials, 3)
            }
            Workload::TimingChannel => {
                let machine = Machine::new(MicroarchProfile::skylake(), BackendKind::Hybrid);
                let mut tasks = vec![Task::Calibrate {
                    samples: CALIBRATION_SAMPLES,
                }];
                tasks.extend(DETECTION_KS.map(|k| Task::Detect {
                    k,
                    trials: DETECTION_TRIALS,
                }));
                tasks.extend(
                    [
                        PhtState::StronglyNotTaken,
                        PhtState::WeaklyNotTaken,
                        PhtState::WeaklyTaken,
                        PhtState::StronglyTaken,
                    ]
                    .map(|state| Task::ProbeLatency {
                        state,
                        reps: PROBE_REPS,
                    }),
                );
                let trials = tasks
                    .into_iter()
                    .map(|task| TrialSpec {
                        machine: machine.clone(),
                        task,
                    })
                    .collect();
                // k = 1: the Fig. 8 point the paper quotes.
                (trials, 1)
            }
        };
        let plan = Plan {
            workload: self,
            base_seed,
            trials,
            slots,
            stability,
            replay_trial,
        };
        plan.validate()?;
        Ok(plan)
    }
}

/// A §10.2 defense installed on the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defense {
    /// The unmitigated machine.
    None,
    /// Per-process PHT index randomization, keyed once.
    RandomizedPht,
    /// The BPU split into four per-context partitions.
    Partitioned,
    /// The victim's secret branch bypasses prediction.
    NoPredict,
    /// Noisy performance counters and timers (`MeasurementFuzz::strong`).
    NoisyMeasurements,
    /// Half of all FSM updates skipped at random.
    StochasticFsm,
    /// The victim compiled branch-free (§10.1).
    IfConversion,
}

impl Defense {
    /// The defenses of the `mitigations` experiment, one setting each.
    pub const ALL: [Defense; 6] = [
        Defense::RandomizedPht,
        Defense::Partitioned,
        Defense::NoPredict,
        Defense::NoisyMeasurements,
        Defense::StochasticFsm,
        Defense::IfConversion,
    ];

    /// Metric-name suffix.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Defense::None => "none",
            Defense::RandomizedPht => "randomized_pht",
            Defense::Partitioned => "partitioned",
            Defense::NoPredict => "no_predict",
            Defense::NoisyMeasurements => "noisy_measurements",
            Defense::StochasticFsm => "stochastic_fsm",
            Defense::IfConversion => "if_conversion",
        }
    }

    /// The hardware policy this defense installs, as `bscope-mitigations`
    /// evaluates it: `victim` is protected or keyed, `target` is its secret
    /// branch.
    #[must_use]
    pub fn policy(
        self,
        pht_size: usize,
        victim: ContextId,
        spy: ContextId,
        target: u64,
        seed: u64,
    ) -> Option<Box<dyn BpuPolicy>> {
        match self {
            Defense::None | Defense::NoisyMeasurements | Defense::IfConversion => None,
            Defense::RandomizedPht => {
                let mut policy = RandomizedPhtPolicy::new(seed ^ 0xDEFE_17CE);
                for ctx in [victim, spy, NOISE_CTX] {
                    let _ = policy.key_of(ctx);
                }
                Some(Box::new(policy))
            }
            Defense::Partitioned => Some(Box::new(PartitionedBpuPolicy::new(pht_size as u64, 4))),
            Defense::NoPredict => Some(Box::new(
                NoPredictPolicy::new().with_protected(victim, target),
            )),
            Defense::StochasticFsm => Some(Box::new(StochasticFsmPolicy::new(0.5, seed ^ 0x570C))),
        }
    }

    /// The measurement fuzzing this defense installs.
    #[must_use]
    pub fn fuzz(self) -> Option<MeasurementFuzz> {
        (self == Defense::NoisyMeasurements).then(MeasurementFuzz::strong)
    }
}

/// One simulated machine configuration.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Microarchitecture.
    pub profile: MicroarchProfile,
    /// Direction-predictor substrate.
    pub backend: BackendKind,
    /// Background (SMT sibling) noise, if any.
    pub noise: Option<NoiseConfig>,
    /// Installed defense.
    pub defense: Defense,
}

/// A built machine: the system, the spy (receiver) and, for two-party
/// tasks, the partner process (covert sender or victim).
#[derive(Debug)]
pub struct Rig {
    /// The simulated system.
    pub sys: System,
    /// The attacker process.
    pub spy: Pid,
    /// The covert sender or victim, spawned before the spy.
    pub partner: Option<Pid>,
}

impl Machine {
    fn new(profile: MicroarchProfile, backend: BackendKind) -> Self {
        Machine {
            profile,
            backend,
            noise: None,
            defense: Defense::None,
        }
    }

    fn with_noise(self, noise: NoiseConfig) -> Self {
        Machine {
            noise: Some(noise),
            ..self
        }
    }

    /// The attack configuration for this machine's profile and backend.
    #[must_use]
    pub fn attack_config(&self) -> AttackConfig {
        AttackConfig::for_backend(&self.profile, self.backend)
    }

    /// Builds the system, spawns `partner` (if named) and then the spy, and
    /// installs noise and the defense. The spawn order matches the
    /// experiments', so contexts are numbered the same way.
    ///
    /// # Panics
    ///
    /// Panics on a configuration [`Plan::plan`](Workload::plan) did not
    /// validate.
    #[must_use]
    pub fn build(&self, seed: u64, partner: Option<&str>) -> Rig {
        let mut sys = System::with_backend(self.profile.clone(), self.backend, seed);
        sys.set_noise(self.noise.clone())
            .expect("noise validated in the plan");
        let partner = partner.map(|name| sys.spawn(name, AslrPolicy::Disabled));
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        if let Some(victim) = partner {
            let target = sys.process(victim).vaddr_of(VICTIM_BRANCH_OFFSET);
            let (victim_ctx, spy_ctx) = (sys.process(victim).ctx(), sys.process(spy).ctx());
            if let Some(policy) =
                self.defense
                    .policy(self.profile.pht_size, victim_ctx, spy_ctx, target, seed)
            {
                sys.set_policy(policy);
            }
            sys.set_measurement_fuzz(self.defense.fuzz())
                .expect("fuzz validated in the plan");
        }
        Rig { sys, spy, partner }
    }
}

/// What one trial does.
#[derive(Debug, Clone)]
pub enum Task {
    /// `characterize_block` on the block generated from `block_seed`.
    Block {
        /// Seed of the randomization block.
        block_seed: u64,
    },
    /// `CovertChannel::transmit` of `bits` from sender to spy.
    Covert {
        /// The message.
        bits: Vec<bool>,
    },
    /// The spy reads a victim's secret branch stream with `read_bit`.
    Secret {
        /// The victim's secret.
        bits: Vec<bool>,
    },
    /// `TimingDetector::calibrate`.
    Calibrate {
        /// Samples per class.
        samples: usize,
    },
    /// `detection_error_rate` at `k`, cold then warm (one Fig. 8 row).
    Detect {
        /// Averaged measurements.
        k: usize,
        /// Trials per measurement condition.
        trials: usize,
    },
    /// `probe_latency_by_state` with a TT probe (one Fig. 9 bar group).
    ProbeLatency {
        /// Starting PHT state.
        state: PhtState,
        /// Probe pairs.
        reps: usize,
    },
}

/// One trial's inputs.
#[derive(Debug, Clone)]
pub struct TrialSpec {
    /// The machine the trial runs on.
    pub machine: Machine,
    /// What the trial does.
    pub task: Task,
}

impl TrialSpec {
    /// The partner process the task needs, if any.
    #[must_use]
    pub fn partner(&self) -> Option<&'static str> {
        match self.task {
            Task::Covert { .. } => Some("trojan"),
            Task::Secret { .. } => Some("victim"),
            _ => None,
        }
    }

    /// Bits the task transmits or reads (zero for non-channel tasks).
    #[must_use]
    pub fn bits(&self) -> usize {
        match &self.task {
            Task::Covert { bits } | Task::Secret { bits } => bits.len(),
            _ => 0,
        }
    }
}

/// A trial's simulated result.
#[derive(Debug, Clone, PartialEq)]
pub enum Observed {
    /// One Fig. 4a point.
    Block(BlockStability),
    /// Bits read wrongly out of bits sent.
    Bits {
        /// Wrongly received bits.
        errors: usize,
        /// Bits sent.
        bits: usize,
    },
    /// Calibrated decision threshold in cycles.
    Threshold(f64),
    /// Fig. 8 error rates at one k.
    Detection {
        /// First (cold) measurement.
        cold: f64,
        /// Second (warm) measurement.
        warm: f64,
    },
    /// One Fig. 9 bar group.
    ProbeLatency(ProbeLatencyStats),
}

/// Exact simulated-work counts of one trial.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    /// Branches retired by the trial's processes (their `PerfCounters`).
    pub foreground: u64,
    /// Background-noise branches executed on the shared predictor.
    pub noise: u64,
    /// The predictor backend's `stats()` at the end of the trial.
    pub bpu: PredictionStats,
}

impl SimCounts {
    /// Reads the counts off a finished trial's system. `noisy` says whether
    /// background noise was configured: with noise on no workload installs
    /// a policy, so every foreground branch reached the predictor and the
    /// predictor's surplus over the foreground count is exactly the noise.
    ///
    /// # Panics
    ///
    /// Panics if the predictor saw fewer branches than a noisy trial's
    /// foreground retired, which would break that accounting.
    #[must_use]
    pub fn of(sys: &System, noisy: bool) -> Self {
        let core = sys.core();
        let foreground = (0..sys.process_count())
            .map(|ctx| core.counters(ctx as ContextId).branches_retired)
            .sum();
        let bpu = core.bpu().stats();
        let noise = if noisy {
            bpu.branches
                .checked_sub(foreground)
                .expect("noisy trials run every branch through the predictor")
        } else {
            0
        };
        SimCounts {
            foreground,
            noise,
            bpu,
        }
    }

    /// Simulated branches: foreground plus background noise.
    #[must_use]
    pub fn simulated(&self) -> u64 {
        self.foreground + self.noise
    }

    /// Adds another trial's counts.
    pub fn add(&mut self, other: &SimCounts) {
        self.foreground += other.foreground;
        self.noise += other.noise;
        self.bpu.branches += other.bpu.branches;
        self.bpu.mispredictions += other.bpu.mispredictions;
        self.bpu.bimodal_used += other.bpu.bimodal_used;
        self.bpu.gshare_used += other.bpu.gshare_used;
    }
}

/// A trial's simulated result and counts: everything that must repeat bit
/// for bit across runs, thread counts and tracing.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutput {
    /// The simulated result.
    pub observed: Observed,
    /// Exact work counts.
    pub counts: SimCounts,
}

/// Runs one trial with trial seed `seed`, lending `tracer` to the trial's
/// core for its duration. Returns the output and the host nanoseconds spent
/// building the system (`System::with_backend`, noise, `spawn`, defense).
///
/// # Panics
///
/// Panics if a library call the plan validated fails anyway; the harness
/// records that as a failed trial.
pub fn run_trial(
    spec: &TrialSpec,
    stability: &StabilityConfig,
    seed: u64,
    tracer: &mut Tracer,
) -> (TrialOutput, u64) {
    let start = Instant::now();
    let Rig {
        mut sys,
        spy,
        partner,
    } = spec.machine.build(seed, spec.partner());
    let setup_ns = start.elapsed().as_nanos() as u64;
    sys.core_mut().set_tracer(std::mem::take(tracer));
    let observed = match &spec.task {
        Task::Block { block_seed } => {
            Observed::Block(characterize_block(&mut sys, spy, stability, *block_seed))
        }
        Task::Covert { bits } => {
            let sender = partner.expect("covert tasks spawn a sender");
            let mut channel = CovertChannel::new(spec.machine.attack_config())
                .expect("decode dictionary validated in the plan");
            let result = channel.transmit(&mut sys, sender, spy, bits);
            Observed::Bits {
                errors: result.errors,
                bits: bits.len(),
            }
        }
        Task::Secret { bits } => {
            let victim = partner.expect("secret tasks spawn a victim");
            let errors = read_secret(&mut sys, spy, victim, &spec.machine, bits);
            Observed::Bits {
                errors,
                bits: bits.len(),
            }
        }
        Task::Calibrate { samples } => Observed::Threshold(
            TimingDetector::calibrate(&mut sys, spy, *samples)
                .expect("Fig. 7 latencies are separable")
                .threshold(),
        ),
        Task::Detect { k, trials } => {
            let cold = detection_error_rate(&mut sys, spy, *k, *trials, true);
            let warm = detection_error_rate(&mut sys, spy, *k, *trials, false);
            Observed::Detection { cold, warm }
        }
        Task::ProbeLatency { state, reps } => Observed::ProbeLatency(probe_latency_by_state(
            &mut sys,
            spy,
            *state,
            ProbeKind::TakenTaken,
            *reps,
        )),
    };
    *tracer = sys.core_mut().take_tracer();
    let counts = SimCounts::of(&sys, spec.machine.noise.is_some());
    (TrialOutput { observed, counts }, setup_ns)
}

/// The spy reads `bits` from a victim's secret branch, one `read_bit`
/// round per bit, as `bscope_mitigations::evaluate_backend` does. Returns
/// the number of wrongly read bits.
pub fn read_secret(
    sys: &mut System,
    spy: Pid,
    victim: Pid,
    machine: &Machine,
    bits: &[bool],
) -> usize {
    let target = sys.process(victim).vaddr_of(VICTIM_BRANCH_OFFSET);
    let mut attack =
        BranchScope::new(machine.attack_config()).expect("decode dictionary validated in the plan");
    let mut program: Box<dyn VictimProgram> = if machine.defense == Defense::IfConversion {
        Box::new(IfConvertedVictim::new(bits.to_vec()))
    } else {
        Box::new(SecretBranchVictim::new(bits.to_vec()))
    };
    bits.iter()
        .filter(|&&bit| {
            let read = attack.read_bit(sys, spy, target, |sys| {
                program.step(&mut sys.cpu(victim));
            });
            SecretBranchVictim::bit_from_outcome(read) != bit
        })
        .count()
}

/// One named output check and whether it held.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked, in the paper's terms.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
}

/// A workload's generated inputs. The trials split into `slots` equal
/// slices; pass `p` runs slice `p % slots`, the fixed work of one pass.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Harness base seed; trial `i` runs with `trial_seed(base_seed, i)`.
    pub base_seed: u64,
    /// Every trial, in order.
    pub trials: Vec<TrialSpec>,
    /// Passes needed to run every trial once.
    pub slots: usize,
    /// Fig. 4 characterisation settings (unused by other workloads).
    pub stability: StabilityConfig,
    /// The trial whose branch stream the per-layer ladder replays; it lies
    /// in the slot of pass 0.
    pub replay_trial: usize,
}

impl Plan {
    /// Validates every machine profile, noise and fuzz configuration, and
    /// builds every decode dictionary the trials will use.
    fn validate(&self) -> Result<(), String> {
        for spec in &self.trials {
            let m = &spec.machine;
            m.profile.validate()?;
            if let Some(noise) = &m.noise {
                noise.validate().map_err(|e| e.to_string())?;
            }
            if let Some(fuzz) = m.defense.fuzz() {
                fuzz.validate().map_err(|e| e.to_string())?;
            }
            BranchScope::new(m.attack_config()).map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// The trial indices pass number `pass` runs.
    #[must_use]
    pub fn slot(&self, pass: usize) -> std::ops::Range<usize> {
        let len = self.trials.len() / self.slots;
        let start = (pass % self.slots) * len;
        start..start + len
    }

    /// The machine the per-layer ladder replays on: the replay trial's.
    #[must_use]
    pub fn replay_machine(&self) -> &Machine {
        &self.trials[self.replay_trial].machine
    }

    /// Whether one trial's output is well formed on its own.
    #[must_use]
    pub fn trial_ok(&self, idx: usize, out: &TrialOutput) -> bool {
        let unit = |x: f64| (0.0..=1.0).contains(&x);
        let shape = match (&self.trials[idx].task, &out.observed) {
            (Task::Block { .. }, Observed::Block(b)) => {
                unit(b.tt_frequency) && unit(b.nn_frequency)
            }
            (Task::Covert { bits } | Task::Secret { bits }, Observed::Bits { errors, bits: n }) => {
                *n == bits.len() && errors <= n
            }
            (Task::Calibrate { .. }, Observed::Threshold(t)) => t.is_finite() && *t > 0.0,
            (Task::Detect { .. }, Observed::Detection { cold, warm }) => unit(*cold) && unit(*warm),
            (Task::ProbeLatency { state, .. }, Observed::ProbeLatency(s)) => s.state == *state,
            _ => false,
        };
        shape && out.counts.foreground > 0
    }

    /// The paper-shape checks over every trial's output (in trial order).
    #[must_use]
    pub fn checks(&self, outs: &[TrialOutput]) -> Vec<Check> {
        match self.workload {
            Workload::Fig4Blocks => {
                let f = stable_fraction(outs);
                vec![Check {
                    name: "Fig. 4: stable fraction in [0.5, 1.0]",
                    ok: (0.5..=1.0).contains(&f),
                }]
            }
            Workload::CovertTable2 => {
                let rows = table2_rows(outs);
                let avg = |r: usize| rows[r].iter().sum::<f64>() / 3.0;
                let (sl, hw, sb) = ((avg(0), avg(1)), (avg(2), avg(3)), (avg(4), avg(5)));
                vec![
                    Check {
                        name: "Table 2: SL and HSW below 1%",
                        ok: [sl.0, sl.1, hw.0, hw.1].iter().all(|&e| e < 1.0),
                    },
                    Check {
                        name: "Table 2: SB the worst machine",
                        ok: sb.0 > sl.0.max(hw.0) && sb.1 > sl.1.max(hw.1),
                    },
                    Check {
                        name: "Table 2: isolated <= noisy on every machine",
                        ok: sl.0 <= sl.1 && hw.0 <= hw.1 && sb.0 <= sb.1,
                    },
                ]
            }
            Workload::DefenseBackends => {
                let rate = |i: usize| error_rate(&outs[i]);
                vec![
                    Check {
                        name: "§10.2: undefended hybrid survives (error < 5%)",
                        ok: rate(0) < 0.05,
                    },
                    Check {
                        name: "§10.2: perceptron at chance (error > 25%)",
                        ok: rate(2) > 0.25,
                    },
                ]
            }
            Workload::TimingChannel => {
                let warm: Vec<f64> = fig8(outs).iter().map(|&(_, _, w)| w).collect();
                vec![Check {
                    name: "Fig. 8: warm error falls with k",
                    ok: warm[0] > warm[1] && warm[2..].iter().all(|&w| w <= warm[1]),
                }]
            }
        }
    }

    /// Simulated result against the paper, with its unit; `None` where the
    /// paper gives no reference (the model is then unvalidated).
    #[must_use]
    pub fn paper_gap(&self, outs: &[TrialOutput]) -> Option<(f64, &'static str)> {
        match self.workload {
            Workload::Fig4Blocks => Some((
                (stable_fraction(outs) - PAPER_STABLE_FRACTION).abs(),
                "fraction",
            )),
            Workload::CovertTable2 => {
                let rows = table2_rows(outs);
                let gap: f64 = rows
                    .iter()
                    .zip(&PAPER_TABLE2)
                    .flat_map(|(ours, paper)| ours.iter().zip(paper).map(|(o, p)| (o - p).abs()))
                    .sum();
                Some((gap / 18.0, "pp"))
            }
            Workload::DefenseBackends => None,
            Workload::TimingChannel => {
                let (_, cold, warm) = fig8(outs)[0];
                let (paper_cold, paper_warm) = PAPER_FIG8_K1;
                Some((
                    ((100.0 * cold - paper_cold).abs() + (100.0 * warm - paper_warm).abs()) / 2.0,
                    "pp",
                ))
            }
        }
    }

    /// Human-readable simulated results of every trial.
    #[must_use]
    pub fn describe(&self, outs: &[TrialOutput]) -> Vec<String> {
        match self.workload {
            Workload::Fig4Blocks => {
                let d = StateDistribution::from_blocks(&blocks(outs));
                vec![format!(
                    "stable fraction {:.3} over {} blocks x {} reps (ST {} WT {} WN {} SN {} dirty {} unknown {})",
                    d.stable_fraction(),
                    d.total(),
                    self.stability.reps,
                    d.st,
                    d.wt,
                    d.wn,
                    d.sn,
                    d.dirty,
                    d.unknown
                )]
            }
            Workload::CovertTable2 => {
                let labels = [
                    "SL isolated",
                    "SL noise",
                    "HSW isolated",
                    "HSW noise",
                    "SB isolated",
                    "SB noise",
                ];
                table2_rows(outs)
                    .iter()
                    .zip(labels)
                    .map(|(r, l)| {
                        format!(
                            "{l:<13} all0 {:.3}%  all1 {:.3}%  random {:.3}%",
                            r[0], r[1], r[2]
                        )
                    })
                    .collect()
            }
            Workload::DefenseBackends => outs
                .iter()
                .zip(&self.trials)
                .map(|(o, t)| {
                    format!(
                        "{:<10} {:<18} error {:.2}%",
                        t.machine.backend.name(),
                        t.machine.defense.name(),
                        100.0 * error_rate(o)
                    )
                })
                .collect(),
            Workload::TimingChannel => fig8(outs)
                .iter()
                .map(|(k, c, w)| format!("k={k:<2} cold {:.1}%  warm {:.1}%", 100.0 * c, 100.0 * w))
                .collect(),
        }
    }
}

fn error_rate(out: &TrialOutput) -> f64 {
    match out.observed {
        Observed::Bits { errors, bits } if bits > 0 => errors as f64 / bits as f64,
        _ => f64::NAN,
    }
}

fn blocks(outs: &[TrialOutput]) -> Vec<BlockStability> {
    outs.iter()
        .filter_map(|o| match o.observed {
            Observed::Block(b) => Some(b),
            _ => None,
        })
        .collect()
}

fn stable_fraction(outs: &[TrialOutput]) -> f64 {
    StateDistribution::from_blocks(&blocks(outs)).stable_fraction()
}

/// Table 2 error rates in percent, six rows of three payloads.
fn table2_rows(outs: &[TrialOutput]) -> Vec<[f64; 3]> {
    outs.chunks_exact(3)
        .map(|row| [0, 1, 2].map(|p| 100.0 * error_rate(&row[p])))
        .collect()
}

/// Fig. 8 rows `(k, cold, warm)` in k order.
fn fig8(outs: &[TrialOutput]) -> Vec<(usize, f64, f64)> {
    outs.iter()
        .filter_map(|o| match o.observed {
            Observed::Detection { cold, warm } => Some((cold, warm)),
            _ => None,
        })
        .zip(DETECTION_KS)
        .map(|((cold, warm), k)| (k, cold, warm))
        .collect()
}
