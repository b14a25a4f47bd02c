//! The simulated core.

use crate::counters::PerfCounters;
use crate::event::BranchEvent;
use crate::icache::InstructionCache;
use crate::noise::NoiseConfig;
use crate::policy::{BpuPolicy, MeasurementFuzz, NoPolicy};
use crate::timing::TimingModel;
use bscope_bpu::{
    BackendKind, MicroarchProfile, Outcome, Prediction, PredictorBackend, PredictorKind, VirtAddr,
};
use bscope_trace::{Span, TraceEvent, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Identifier of a hardware context (logical CPU / process) on the core.
///
/// Performance counters are kept per context, as on real hardware; the
/// predictor structures are shared by all contexts, which is the entire
/// premise of the attack.
pub type ContextId = u32;

/// Context id of the background-noise (SMT sibling) activity.
pub const NOISE_CTX: ContextId = ContextId::MAX;

/// A simulated physical core: one shared branch prediction unit, a cycle
/// clock, an instruction cache, per-context performance counters and an
/// optional background-noise context (the SMT sibling).
///
/// All stochastic behaviour (latency jitter, noise) flows from the seed
/// passed to [`SimCore::new`], so every experiment is reproducible.
///
/// # Example
///
/// ```
/// use bscope_bpu::{MicroarchProfile, Outcome};
/// use bscope_uarch::SimCore;
///
/// let mut core = SimCore::new(MicroarchProfile::haswell(), 1);
/// let before = core.counters(0);
/// core.execute_branch(0x40_0000, Outcome::Taken);
/// let delta = core.counters(0).since(&before);
/// assert_eq!(delta.branches_retired, 1);
/// ```
#[derive(Debug)]
pub struct SimCore {
    bpu: PredictorBackend,
    timing: TimingModel,
    icache: InstructionCache,
    counters: Vec<PerfCounters>,
    tsc: u64,
    last_noise_tsc: u64,
    rng: StdRng,
    noise: Option<NoiseParams>,
    policy: Box<dyn BpuPolicy>,
    fuzz: Option<MeasurementFuzz>,
    /// Structured-event tracer; disabled (and free) by default.
    tracer: Tracer,
}

/// Validated, `Copy` image of a [`NoiseConfig`], cached so the per-branch
/// noise checks in [`SimCore::execute_branch_in`] stay allocation-free
/// (`NoiseConfig` holds a `Range`, which is not `Copy`).
#[derive(Debug, Clone, Copy)]
struct NoiseParams {
    branches_per_kcycle: f64,
    addr_lo: u64,
    addr_hi: u64,
    taken_bias: f64,
}

impl From<&NoiseConfig> for NoiseParams {
    fn from(cfg: &NoiseConfig) -> Self {
        NoiseParams {
            branches_per_kcycle: cfg.branches_per_kcycle,
            addr_lo: cfg.addr_range.start,
            addr_hi: cfg.addr_range.end,
            taken_bias: cfg.taken_bias,
        }
    }
}

impl SimCore {
    /// Creates a core for the given microarchitecture with the paper's
    /// hybrid predictor, all randomness derived from `seed`.
    #[must_use]
    pub fn new(profile: MicroarchProfile, seed: u64) -> Self {
        SimCore::with_backend(BackendKind::Hybrid.build(profile), seed)
    }

    /// Creates a core running on an explicit predictor backend (see
    /// [`bscope_bpu::BackendKind`]); [`SimCore::new`] is the hybrid special
    /// case. Timing parameters come from the backend's effective profile.
    #[must_use]
    pub fn with_backend(backend: PredictorBackend, seed: u64) -> Self {
        let timing = TimingModel::new(backend.profile().timing);
        SimCore {
            bpu: backend,
            timing,
            icache: InstructionCache::l1i_default(),
            counters: vec![PerfCounters::new(); 2],
            tsc: 0,
            last_noise_tsc: 0,
            rng: StdRng::seed_from_u64(seed),
            noise: None,
            policy: Box::new(NoPolicy),
            fuzz: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a hardware mitigation policy (see [`BpuPolicy`]); the
    /// default is the unmitigated machine.
    pub fn set_policy(&mut self, policy: Box<dyn BpuPolicy>) {
        self.policy = policy;
    }

    /// Installs measurement-channel fuzzing (noisy counters/timers, §10.2),
    /// or removes it with `None`.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`](crate::ConfigError) from [`MeasurementFuzz::validate`],
    /// leaving the previous fuzz configuration in place.
    pub fn set_measurement_fuzz(
        &mut self,
        fuzz: Option<MeasurementFuzz>,
    ) -> Result<(), crate::ConfigError> {
        if let Some(f) = &fuzz {
            f.validate()?;
        }
        self.fuzz = fuzz;
        Ok(())
    }

    /// Enables background (SMT sibling) noise; pass `None` to disable.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`](crate::ConfigError) from [`NoiseConfig::validate`], leaving
    /// the previous noise configuration in place.
    pub fn set_noise(&mut self, noise: Option<NoiseConfig>) -> Result<(), crate::ConfigError> {
        if let Some(cfg) = &noise {
            cfg.validate()?;
        }
        self.noise = noise.as_ref().map(NoiseParams::from);
        Ok(())
    }

    /// Builder-style variant of [`SimCore::set_noise`].
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`](crate::ConfigError) from [`NoiseConfig::validate`].
    pub fn with_noise(mut self, noise: NoiseConfig) -> Result<Self, crate::ConfigError> {
        self.set_noise(Some(noise))?;
        Ok(self)
    }

    /// Installs a structured-event tracer (see [`bscope_trace`]). The
    /// default tracer is disabled and costs one branch per emit site;
    /// installing a sink-backed tracer records every retired branch, BTB
    /// install, noise burst and attack-stage span.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Removes and returns the tracer (leaving a disabled one), so a
    /// caller that lent the core a live tracer can drain its capture.
    #[must_use]
    pub fn take_tracer(&mut self) -> Tracer {
        std::mem::take(&mut self.tracer)
    }

    /// Emits a [`Span`] begin marker stamped with the current simulated
    /// time. Free when the tracer is disabled.
    pub fn trace_span_begin(&mut self, span: Span) {
        let tsc = self.tsc;
        self.tracer.emit_with(|| TraceEvent::SpanBegin { span, tsc });
    }

    /// Emits a [`Span`] end marker stamped with the current simulated
    /// time. Free when the tracer is disabled.
    pub fn trace_span_end(&mut self, span: Span) {
        let tsc = self.tsc;
        self.tracer.emit_with(|| TraceEvent::SpanEnd { span, tsc });
    }

    /// The microarchitecture profile of this core.
    #[must_use]
    pub fn profile(&self) -> &MicroarchProfile {
        self.bpu.profile()
    }

    /// Read access to the shared branch prediction unit.
    #[must_use]
    pub fn bpu(&self) -> &PredictorBackend {
        &self.bpu
    }

    /// Exclusive access to the shared branch prediction unit (mitigations,
    /// reverse-engineering tooling and tests use this).
    #[must_use]
    pub fn bpu_mut(&mut self) -> &mut PredictorBackend {
        &mut self.bpu
    }

    /// Exclusive access to the instruction cache.
    #[must_use]
    pub fn icache_mut(&mut self) -> &mut InstructionCache {
        &mut self.icache
    }

    /// Current value of the timestamp counter (`rdtscp`, §8). Reading it is
    /// free in the model; measurement overhead is folded into branch
    /// latencies, as in the paper's measurements.
    #[must_use]
    pub fn rdtscp(&self) -> u64 {
        self.tsc
    }

    /// Performance counters of context `ctx` (zero-extended for contexts
    /// that have not executed yet).
    #[must_use]
    pub fn counters(&self, ctx: ContextId) -> PerfCounters {
        self.counters.get(ctx as usize).copied().unwrap_or_default()
    }

    /// Advances the cycle clock without executing branches (models `nop`
    /// padding, `usleep`, or victim non-branch work). Background activity
    /// keeps running during the elapsed time — the spy's wait for the
    /// victim is exactly when the shared BPU is most exposed to noise.
    pub fn advance_cycles(&mut self, cycles: u64) {
        self.tsc += cycles;
        self.inject_pending_noise();
    }

    /// Executes one conditional branch in context 0 with the fall-through
    /// target convention. The common single-context entry point.
    pub fn execute_branch(&mut self, addr: VirtAddr, outcome: Outcome) -> BranchEvent {
        self.execute_branch_in(0, addr, outcome, None)
    }

    /// Executes one conditional branch in an explicit context.
    ///
    /// Injects pending background noise first (if configured), then runs
    /// the branch through the shared BPU, charges its latency on the cycle
    /// clock and records it in `ctx`'s performance counters.
    pub fn execute_branch_in(
        &mut self,
        ctx: ContextId,
        addr: VirtAddr,
        outcome: Outcome,
        target: Option<VirtAddr>,
    ) -> BranchEvent {
        self.inject_pending_noise();
        let cold = !self.icache.touch(addr);
        // Set when the BPU commit path ran for a taken branch (the only
        // case that installs a BTB entry); feeds the trace event below.
        let mut btb_install: Option<(VirtAddr, VirtAddr)> = None;
        let (prediction, mispredicted) = if self.policy.bypass_prediction(ctx, addr) {
            // §10.2 "removing prediction for sensitive branches": static
            // not-taken prediction, no BPU state touched.
            let prediction = Prediction {
                direction: Outcome::NotTaken,
                used: PredictorKind::Bimodal,
                bimodal: Outcome::NotTaken,
                gshare: Outcome::NotTaken,
                btb_hit: false,
                target: None,
            };
            (prediction, outcome.is_taken())
        } else {
            let indexed = self.policy.index_addr(ctx, addr);
            if self.policy.suppress_update(ctx, addr) {
                // Stochastic-FSM defense: predict normally, skip the state
                // transition for this dynamic branch.
                let prediction = self.bpu.predict(indexed);
                (prediction, prediction.direction != outcome)
            } else {
                let (prediction, correct) = self.bpu.execute(indexed, outcome, target);
                if outcome.is_taken() {
                    btb_install = Some((indexed, target.unwrap_or(indexed + 2)));
                }
                (prediction, !correct)
            }
        };
        self.policy.on_branch(self.tsc);
        // `latency` is what an rdtscp pair around this branch would report
        // (Fig. 7); the core clock advances by the much smaller throughput
        // cost of straight-line execution.
        let taken_btb_miss = outcome.is_taken() && !prediction.btb_hit;
        let mut latency = self.timing.sample(&mut self.rng, mispredicted, cold, taken_btb_miss);
        self.tsc += self.timing.advance(mispredicted, cold, taken_btb_miss);
        let mut recorded_miss = mispredicted;
        if let Some(fuzz) = self.fuzz {
            latency = fuzz.fuzz_latency(&mut self.rng, latency);
            recorded_miss = fuzz.fuzz_miss(&mut self.rng, mispredicted);
        }
        let slot = ctx as usize;
        if slot >= self.counters.len() {
            self.counters.resize(slot + 1, PerfCounters::new());
        }
        self.counters[slot].record_branch(recorded_miss, latency);
        if self.tracer.is_enabled() {
            self.tracer.emit_with(|| TraceEvent::Branch {
                ctx,
                addr,
                taken: outcome.is_taken(),
                predicted_taken: prediction.direction.is_taken(),
                mispredicted: recorded_miss,
                two_level: prediction.used == PredictorKind::Gshare,
                btb_hit: prediction.btb_hit,
                latency,
            });
            if let Some((addr, target)) = btb_install {
                self.tracer.emit_with(|| TraceEvent::BtbInstall { addr, target });
            }
        }
        BranchEvent { addr, outcome, prediction, mispredicted: recorded_miss, latency, cold }
    }

    /// Injects `n` background branches immediately (regardless of the
    /// configured rate). Returns how many were injected.
    ///
    /// Background branches share the BPU but are executed by the sibling
    /// hardware thread: they appear in no foreground context's counters and
    /// their latency does not advance the foreground clock.
    pub fn inject_noise_burst(&mut self, n: usize) -> usize {
        let Some(cfg) = self.noise else { return 0 };
        for _ in 0..n {
            let addr = self.rng.gen_range(cfg.addr_lo..cfg.addr_hi);
            let outcome = Outcome::from_bool(self.rng.gen_bool(cfg.taken_bias));
            let indexed = self.policy.index_addr(NOISE_CTX, addr);
            self.bpu.execute(indexed, outcome, None);
        }
        if n > 0 {
            let injected = u32::try_from(n).unwrap_or(u32::MAX);
            self.tracer.emit_with(|| TraceEvent::NoiseBurst { injected });
        }
        n
    }

    fn inject_pending_noise(&mut self) {
        let Some(cfg) = self.noise else {
            self.last_noise_tsc = self.tsc;
            return;
        };
        let elapsed = self.tsc - self.last_noise_tsc;
        self.last_noise_tsc = self.tsc;
        if elapsed == 0 {
            return;
        }
        let lambda = cfg.branches_per_kcycle * elapsed as f64 / 1_000.0;
        let n = poisson(&mut self.rng, lambda);
        if n > 0 {
            self.inject_noise_burst(n);
        }
    }
}

/// Poisson sampler: Knuth's method for small rates, a Gaussian
/// approximation for large ones (where Knuth's product underflows).
fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 64.0 {
        let n = lambda + lambda.sqrt() * crate::timing::gaussian(rng);
        return n.max(0.0).round() as usize;
    }
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen_range(0.0f64..1.0);
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // Defensive cap; unreachable for sane lambda.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bscope_bpu::PhtState;
    use bscope_trace::TracedEvent;

    fn core() -> SimCore {
        SimCore::new(MicroarchProfile::haswell(), 99)
    }

    #[test]
    fn counters_are_per_context() {
        let mut c = core();
        c.execute_branch_in(0, 0x1000, Outcome::Taken, None);
        c.execute_branch_in(1, 0x2000, Outcome::Taken, None);
        c.execute_branch_in(1, 0x2000, Outcome::Taken, None);
        assert_eq!(c.counters(0).branches_retired, 1);
        assert_eq!(c.counters(1).branches_retired, 2);
        assert_eq!(c.counters(7).branches_retired, 0);
    }

    #[test]
    fn tsc_advances_with_execution() {
        let mut c = core();
        let t0 = c.rdtscp();
        c.execute_branch(0x1000, Outcome::Taken);
        assert!(c.rdtscp() > t0);
        let t1 = c.rdtscp();
        c.advance_cycles(500);
        assert_eq!(c.rdtscp(), t1 + 500);
    }

    #[test]
    fn shared_bpu_couples_contexts() {
        // Context 1 trains a branch; context 0 observes the trained state at
        // an aliasing address — the attack's collision premise.
        let mut c = core();
        for _ in 0..3 {
            c.execute_branch_in(1, 0x30_0000, Outcome::Taken, None);
        }
        let pht_size = c.profile().pht_size as u64;
        assert_eq!(c.bpu().pht_state(0x30_0000 + pht_size), PhtState::StronglyTaken);
    }

    #[test]
    fn noise_perturbs_bpu_but_not_counters() {
        let mut c = core().with_noise(NoiseConfig::heavy()).unwrap();
        let before_btb = c.bpu().btb().occupancy();
        for i in 0..200 {
            c.execute_branch(0x5000 + i * 7, Outcome::NotTaken);
        }
        assert!(
            c.bpu().btb().occupancy() > before_btb,
            "noise must install BTB entries"
        );
        // Foreground executed 200 branches; noise must not inflate that.
        assert_eq!(c.counters(0).branches_retired, 200);
    }

    #[test]
    fn noise_burst_requires_configuration() {
        let mut c = core();
        assert_eq!(c.inject_noise_burst(10), 0, "no noise configured");
        c.set_noise(Some(NoiseConfig::system_activity())).unwrap();
        assert_eq!(c.inject_noise_burst(10), 10);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut c = SimCore::new(MicroarchProfile::skylake(), seed)
                .with_noise(NoiseConfig::system_activity())
                .unwrap();
            (0..100)
                .map(|i| c.execute_branch(0x9000 + i * 3, Outcome::from_bool(i % 3 == 0)).latency)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds should differ somewhere");
    }

    #[test]
    fn first_execution_is_cold() {
        let mut c = core();
        assert!(c.execute_branch(0x8000, Outcome::Taken).cold);
        assert!(!c.execute_branch(0x8000, Outcome::Taken).cold);
    }

    #[test]
    fn misprediction_reported_and_counted() {
        let mut c = core();
        // Train strongly taken, then surprise with not-taken.
        for _ in 0..3 {
            c.execute_branch(0x700, Outcome::Taken);
        }
        let before = c.counters(0);
        let ev = c.execute_branch(0x700, Outcome::NotTaken);
        assert!(ev.mispredicted);
        assert_eq!(c.counters(0).since(&before).branch_misses, 1);
    }

    /// Emitting trace events must not perturb simulation state: a traced
    /// core and an untraced one produce bit-identical branch streams, and
    /// the capture records what actually happened.
    #[test]
    fn tracing_is_an_observer_not_a_participant() {
        let run = |traced: bool| {
            let mut c = SimCore::new(MicroarchProfile::skylake(), 7)
                .with_noise(NoiseConfig::system_activity())
                .unwrap();
            if traced {
                c.set_tracer(Tracer::ring(4096));
            }
            c.trace_span_begin(Span::Prime);
            let events: Vec<u64> = (0..300)
                .map(|i| c.execute_branch(0x9000 + i * 3, Outcome::from_bool(i % 3 == 0)).latency)
                .collect();
            c.trace_span_end(Span::Prime);
            (events, c.rdtscp(), c.take_tracer().drain())
        };
        let (lat_on, tsc_on, capture) = run(true);
        let (lat_off, tsc_off, empty) = run(false);
        assert_eq!(lat_on, lat_off, "tracing changed branch latencies");
        assert_eq!(tsc_on, tsc_off, "tracing changed the clock");
        assert!(empty.events.is_empty() && empty.metrics.is_empty());

        assert_eq!(capture.metrics.counter("branches"), 300);
        assert_eq!(capture.metrics.counter("spans/prime"), 1);
        assert_eq!(capture.metrics.counter("btb_installs"), 100, "every third branch is taken");
        assert!(capture.metrics.counter("noise_branches") > 0, "noise bursts are traced");
        assert_eq!(capture.metrics.histogram("branch_latency").unwrap().count(), 300);
        // Span markers carry the simulated clock, never wall-clock.
        match (capture.events.first(), capture.events.last()) {
            (
                Some(TracedEvent { event: TraceEvent::SpanBegin { span: Span::Prime, tsc: t0 }, .. }),
                Some(TracedEvent { event: TraceEvent::SpanEnd { span: Span::Prime, tsc: t1 }, .. }),
            ) => assert!(t1 > t0 && *t1 == tsc_on, "span stamps follow the sim clock"),
            other => panic!("span markers must bracket the capture, got {other:?}"),
        }
    }

    #[test]
    fn traced_branch_events_describe_the_prediction() {
        let mut c = core();
        c.set_tracer(Tracer::ring(64));
        for _ in 0..3 {
            c.execute_branch(0x700, Outcome::Taken);
        }
        let ev = c.execute_branch(0x700, Outcome::NotTaken);
        assert!(ev.mispredicted);
        let capture = c.take_tracer().drain();
        let branches: Vec<&TracedEvent> = capture
            .events
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::Branch { .. }))
            .collect();
        assert_eq!(branches.len(), 4);
        match branches[3].event {
            TraceEvent::Branch { taken, predicted_taken, mispredicted, latency, .. } => {
                assert!(!taken && predicted_taken && mispredicted);
                assert_eq!(latency, ev.latency);
            }
            _ => unreachable!(),
        }
        // The three taken branches each installed their BTB entry.
        assert_eq!(capture.metrics.counter("btb_installs"), 3);
    }

    #[test]
    fn poisson_mean_is_close() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let total: usize = (0..n).map(|_| poisson(&mut rng, 2.5)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 2.5).abs() < 0.1, "poisson mean {mean}");
    }
}
