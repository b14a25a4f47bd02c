//! The simulated core.

use crate::counters::PerfCounters;
use crate::event::BranchEvent;
use crate::icache::InstructionCache;
use crate::noise::NoiseConfig;
use crate::policy::{BpuPolicy, MeasurementFuzz, Route};
use crate::timing;
use bscope_bpu::{BackendKind, MicroarchProfile, Outcome, Prediction, PredictorBackend, VirtAddr};
use bscope_harness::splitmix64;
use bscope_trace::{Span, TraceEvent, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of a hardware context (logical CPU / process) on the core.
///
/// Performance counters are kept per context, as on real hardware; the
/// predictor structures are shared by all contexts, which is the entire
/// premise of the attack.
pub type ContextId = u32;

/// Context id of the background-noise (SMT sibling) activity.
pub const NOISE_CTX: ContextId = ContextId::MAX;

/// Seed tag of the background-noise stream.
const NOISE_STREAM: u64 = 0x4E01_5E00_D1A7_0003;

/// Simulated branches of every core dropped so far in this process (see
/// [`SimCore::dropped_sim_branches`]).
static DROPPED_SIM_BRANCHES: AtomicU64 = AtomicU64::new(0);

/// The static prediction of a branch that bypasses the predictor.
const STATIC_NOT_TAKEN: Prediction =
    Prediction { direction: Outcome::NotTaken, two_level: false, btb_hit: false };

/// A simulated physical core: one shared branch prediction unit, a cycle
/// clock, an instruction cache, per-context performance counters and an
/// optional background-noise context (the SMT sibling).
///
/// The seed passed to [`SimCore::new`] feeds three independent streams, so
/// the core pays only for what some caller observes:
///
/// * **noise** — arrival gaps, addresses and outcomes of background
///   branches come from their own generator, seeded from the core seed;
/// * **latency** — the jitter and spike of a timed branch are a pure
///   function of (seed, foreground-branch index), computed only when the
///   branch is timed;
/// * **fuzz** — measurement fuzzing's counter flip and timing jitter are a
///   pure function of the same key.
///
/// Timing one more branch therefore moves no other branch's latency, no
/// noise arrival and no predictor state, and every experiment is
/// reproducible from its seed.
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
/// let (_, latency) = core.execute_timed_branch_in(0, 0x40_0000, Outcome::Taken);
/// let after = core.counters(0);
/// assert_eq!(after.branches_retired - before.branches_retired, 2);
/// assert!(latency > 50);
/// ```
#[derive(Debug)]
pub struct SimCore {
    bpu: PredictorBackend,
    icache: InstructionCache,
    counters: Vec<PerfCounters>,
    tsc: u64,
    /// Keys the latency and fuzz draws.
    seed: u64,
    /// Foreground branches retired so far: the index that keys the next
    /// foreground branch's latency and fuzz draws.
    branches: u64,
    /// Background-noise branches executed so far.
    noise_branches: u64,
    noise: Option<NoiseConfig>,
    noise_rng: StdRng,
    /// Exact (fractional) cycle of the next noise arrival.
    noise_arrival: f64,
    /// First integral cycle at or after `noise_arrival`; `u64::MAX` when
    /// no arrival is scheduled. A branch with no noise due costs one
    /// compare against it.
    next_noise_at: u64,
    /// `None` is the unmitigated machine: no policy call at all.
    policy: Option<Box<dyn BpuPolicy>>,
    fuzz: Option<MeasurementFuzz>,
    /// Structured-event tracer; disabled (and free) by default.
    tracer: Tracer,
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
    /// case.
    #[must_use]
    pub fn with_backend(backend: PredictorBackend, seed: u64) -> Self {
        SimCore {
            bpu: backend,
            icache: InstructionCache::l1i_default(),
            counters: vec![PerfCounters::new(); 2],
            tsc: 0,
            seed,
            branches: 0,
            noise_branches: 0,
            noise: None,
            noise_rng: StdRng::seed_from_u64(splitmix64(seed ^ NOISE_STREAM)),
            noise_arrival: f64::INFINITY,
            next_noise_at: u64::MAX,
            policy: None,
            fuzz: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a hardware mitigation policy (see [`BpuPolicy`]); the
    /// default is the unmitigated machine.
    pub fn set_policy(&mut self, policy: Box<dyn BpuPolicy>) {
        self.policy = Some(policy);
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
    /// Re-arms the arrival schedule from the current cycle: the first
    /// arrival under the new configuration is one exponential gap from
    /// now. A rate of zero, like `None`, schedules no arrival.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`](crate::ConfigError) from [`NoiseConfig::validate`], leaving
    /// the previous noise configuration in place.
    pub fn set_noise(&mut self, noise: Option<NoiseConfig>) -> Result<(), crate::ConfigError> {
        if let Some(cfg) = &noise {
            cfg.validate()?;
        }
        self.noise = noise;
        self.noise_arrival = self.tsc as f64;
        self.schedule_next_noise();
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
    /// free in the model; measurement overhead is folded into timed
    /// branch latencies, as in the paper's measurements.
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

    /// `ctx`'s performance counters, allocated on its first branch.
    fn counters_mut(&mut self, ctx: ContextId) -> &mut PerfCounters {
        let slot = ctx as usize;
        if slot >= self.counters.len() {
            self.counters.resize(slot + 1, PerfCounters::new());
        }
        &mut self.counters[slot]
    }

    /// Simulated branches this core has executed: every foreground branch
    /// of every context plus every background-noise branch, whatever route
    /// the policy gave it. Always counted; needs no tracer.
    #[must_use]
    pub fn sim_branches(&self) -> u64 {
        self.branches + self.noise_branches
    }

    /// The sum of [`SimCore::sim_branches`] over every core dropped so far
    /// in this process. A caller that reads it before and after a piece of
    /// work whose cores are all dropped by its end gets that work's
    /// simulated branches, whichever threads ran them.
    #[must_use]
    pub fn dropped_sim_branches() -> u64 {
        DROPPED_SIM_BRANCHES.load(Ordering::Relaxed)
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
    /// Injects the background noise due by now first (if configured), then
    /// routes the branch through the installed policy (if any) into the
    /// shared BPU, advances the cycle clock by its throughput cost and
    /// records it in `ctx`'s performance counters. Samples no latency:
    /// nobody timed this branch.
    pub fn execute_branch_in(
        &mut self,
        ctx: ContextId,
        addr: VirtAddr,
        outcome: Outcome,
        target: Option<VirtAddr>,
    ) -> BranchEvent {
        self.retire::<false>(ctx, addr, outcome, target).0
    }

    /// Executes one conditional branch exactly as
    /// [`SimCore::execute_branch_in`] does (fall-through target), bracketed
    /// by an `rdtscp` pair: also returns the latency that pair reads
    /// (Fig. 7). Timing changes nothing else — the predictor, the clock,
    /// the counters and the noise schedule evolve as for an untimed branch.
    pub fn execute_timed_branch_in(
        &mut self,
        ctx: ContextId,
        addr: VirtAddr,
        outcome: Outcome,
    ) -> (BranchEvent, u64) {
        let (event, latency) = self.retire::<true>(ctx, addr, outcome, None);
        (event, latency.unwrap_or_default())
    }

    /// Executes a straight-line block of conditional branches in `ctx`:
    /// branch `i` sits at `base + branches[i].0` and resolves to
    /// `branches[i].1`, with the fall-through target. The predictor, the
    /// clock, the counters and the noise schedule end exactly as after one
    /// [`SimCore::execute_branch_in`] per branch; no [`BranchEvent`] is
    /// returned, since nothing observes a branch of the block (stage 1 of
    /// the attack, §5.2).
    ///
    /// With no tracer, [`BpuPolicy`] or [`MeasurementFuzz`] installed, the
    /// block takes a fast path. It samples no latency and builds no event.
    /// It keeps the one-compare noise check before each branch, so noise
    /// arrives on the same branches, and it updates the counters once per
    /// block. Otherwise it is the per-branch loop, so a trace and every
    /// defense see each branch exactly as before.
    pub fn execute_block(&mut self, ctx: ContextId, base: VirtAddr, branches: &[(u32, Outcome)]) {
        if self.tracer.is_enabled() || self.policy.is_some() || self.fuzz.is_some() {
            for &(offset, outcome) in branches {
                self.retire::<false>(ctx, base + u64::from(offset), outcome, None);
            }
            return;
        }
        let mut misses = 0;
        for &(offset, outcome) in branches {
            self.inject_pending_noise();
            let addr = base + u64::from(offset);
            let cold = !self.icache.touch(addr);
            let (prediction, correct) = self.bpu.execute(addr, outcome, None);
            let taken_btb_miss = outcome.is_taken() && !prediction.btb_hit;
            self.tsc += timing::advance(!correct, cold, taken_btb_miss);
            misses += u64::from(!correct);
        }
        let retired = branches.len() as u64;
        self.branches += retired;
        let counters = self.counters_mut(ctx);
        counters.branches_retired += retired;
        counters.branch_misses += misses;
    }

    /// One foreground branch; `TIMED` selects whether its latency is
    /// sampled (`Some`) or not (`None`).
    #[inline(always)]
    fn retire<const TIMED: bool>(
        &mut self,
        ctx: ContextId,
        addr: VirtAddr,
        outcome: Outcome,
        target: Option<VirtAddr>,
    ) -> (BranchEvent, Option<u64>) {
        self.inject_pending_noise();
        let index = self.branches;
        self.branches += 1;
        let cold = !self.icache.touch(addr);
        let route = match &mut self.policy {
            None => Route::Predict(addr),
            Some(policy) => policy.route(ctx, addr, self.tsc),
        };
        // Set when the BPU commit path ran for a taken branch (the only
        // case that installs a BTB entry); feeds the trace event below.
        let mut btb_install: Option<(VirtAddr, VirtAddr)> = None;
        let (prediction, mispredicted) = match route {
            Route::Predict(indexed) => {
                let (prediction, correct) = self.bpu.execute(indexed, outcome, target);
                if outcome.is_taken() {
                    btb_install = Some((indexed, target.unwrap_or(indexed + 2)));
                }
                (prediction, !correct)
            }
            Route::PredictNoUpdate(indexed) => {
                let prediction = self.bpu.predict(indexed);
                (prediction, prediction.direction != outcome)
            }
            Route::Bypass => (STATIC_NOT_TAKEN, outcome.is_taken()),
        };
        // The latency is what an rdtscp pair around this branch would
        // report (Fig. 7); the core clock advances by the much smaller
        // throughput cost of straight-line execution.
        let taken_btb_miss = outcome.is_taken() && !prediction.btb_hit;
        let mut latency =
            TIMED.then(|| timing::sample(self.seed, index, mispredicted, cold, taken_btb_miss));
        self.tsc += timing::advance(mispredicted, cold, taken_btb_miss);
        let mut recorded_miss = mispredicted;
        if let Some(fuzz) = self.fuzz {
            recorded_miss = fuzz.fuzz_miss(self.seed, index, mispredicted);
            latency = latency.map(|l| fuzz.fuzz_latency(self.seed, index, l));
        }
        self.counters_mut(ctx).record_branch(recorded_miss);
        if self.tracer.is_enabled() {
            self.tracer.emit_with(|| TraceEvent::Branch {
                ctx,
                addr,
                taken: outcome.is_taken(),
                predicted_taken: prediction.direction.is_taken(),
                mispredicted: recorded_miss,
                two_level: prediction.two_level,
                btb_hit: prediction.btb_hit,
                latency,
            });
            if let Some((addr, target)) = btb_install {
                self.tracer.emit_with(|| TraceEvent::BtbInstall { addr, target });
            }
        }
        (BranchEvent { addr, outcome, prediction, mispredicted: recorded_miss, cold }, latency)
    }

    /// Injects one background branch for every arrival at or before the
    /// current cycle.
    #[inline(always)]
    fn inject_pending_noise(&mut self) {
        if self.tsc >= self.next_noise_at {
            self.inject_due_noise();
        }
    }

    #[cold]
    #[inline(never)]
    fn inject_due_noise(&mut self) {
        let mut injected = 0u32;
        while self.tsc >= self.next_noise_at {
            self.execute_noise_branch();
            injected = injected.saturating_add(1);
            self.schedule_next_noise();
        }
        self.tracer.emit_with(|| TraceEvent::NoiseBurst { injected });
    }

    /// Moves the next arrival one exponential gap past the current one, or
    /// unschedules noise when it is off or its rate is zero.
    fn schedule_next_noise(&mut self) {
        let mean_gap =
            self.noise.as_ref().map_or(f64::INFINITY, |cfg| 1_000.0 / cfg.branches_per_kcycle);
        if !mean_gap.is_finite() {
            self.noise_arrival = f64::INFINITY;
            self.next_noise_at = u64::MAX;
            return;
        }
        let u: f64 = self.noise_rng.gen_range(0.0..1.0);
        self.noise_arrival += mean_gap * -(1.0 - u).ln();
        // Arrivals are continuous; one at time t is due once tsc >= t,
        // that is once tsc >= ceil(t).
        self.next_noise_at = self.noise_arrival.ceil() as u64;
    }

    /// One background branch, drawn from the noise stream and routed like
    /// every other BPU access. The sibling hardware thread executes it, so
    /// it appears in no foreground context's counters and does not advance
    /// the foreground clock.
    fn execute_noise_branch(&mut self) {
        let Some(cfg) = &self.noise else { return };
        self.noise_branches += 1;
        let addr = self.noise_rng.gen_range(cfg.addr_range.clone());
        let outcome = Outcome::from_bool(self.noise_rng.gen_bool(cfg.taken_bias));
        let route = match &mut self.policy {
            None => Route::Predict(addr),
            Some(policy) => policy.route(NOISE_CTX, addr, self.tsc),
        };
        // Nothing to commit for the other routes, and the sibling's own
        // prediction is observable to no one.
        if let Route::Predict(indexed) = route {
            self.bpu.execute(indexed, outcome, None);
        }
    }
}

impl Drop for SimCore {
    fn drop(&mut self) {
        DROPPED_SIM_BRANCHES.fetch_add(self.sim_branches(), Ordering::Relaxed);
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
        for i in 0..200 {
            c.execute_branch(0x5000 + i * 7, Outcome::NotTaken);
        }
        assert!(c.bpu().stats().branches > 200, "noise branches must reach the predictor");
        // Foreground executed 200 branches; noise must not inflate that.
        assert_eq!(c.counters(0).branches_retired, 200);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut c = SimCore::new(MicroarchProfile::skylake(), seed)
                .with_noise(NoiseConfig::system_activity())
                .unwrap();
            (0..100)
                .map(|i| {
                    c.execute_timed_branch_in(0, 0x9000 + i * 3, Outcome::from_bool(i % 3 == 0)).1
                })
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
        assert_eq!(c.counters(0).branch_misses - before.branch_misses, 1);
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
            // Every fifth branch is timed; the rest run plain.
            let latencies: Vec<u64> = (0..300)
                .filter_map(|i| {
                    let (addr, outcome) = (0x9000 + i * 3, Outcome::from_bool(i % 3 == 0));
                    if i % 5 == 0 {
                        Some(c.execute_timed_branch_in(0, addr, outcome).1)
                    } else {
                        c.execute_branch(addr, outcome);
                        None
                    }
                })
                .collect();
            c.trace_span_end(Span::Prime);
            (latencies, c.rdtscp(), c.take_tracer().drain())
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
        assert!(
            capture.metrics.summary().contains(&("branch_latency_count".to_owned(), 60.0)),
            "only the timed branches have a latency"
        );
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
        let (ev, timed) = c.execute_timed_branch_in(0, 0x700, Outcome::NotTaken);
        assert!(ev.mispredicted);
        let capture = c.take_tracer().drain();
        let branches: Vec<&TracedEvent> = capture
            .events
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::Branch { .. }))
            .collect();
        assert_eq!(branches.len(), 4);
        match (branches[0].event, branches[3].event) {
            (
                TraceEvent::Branch { latency: plain, .. },
                TraceEvent::Branch { taken, predicted_taken, mispredicted, latency, .. },
            ) => {
                assert!(!taken && predicted_taken && mispredicted);
                assert_eq!(plain, None, "an untimed branch has no latency");
                assert_eq!(latency, Some(timed));
            }
            _ => unreachable!(),
        }
        // The three taken branches each installed their BTB entry.
        assert_eq!(capture.metrics.counter("btb_installs"), 3);
    }

    /// `execute_block` is the per-branch loop. Two blocks, one per
    /// context, under heavy noise: with a ring tracer the capture is the
    /// same; without one (the fast path) the clock, the counters, the
    /// noise, the predictor and the next timed branch's latency are.
    #[test]
    fn execute_block_matches_the_per_branch_loop() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut offset = 0u32;
        let block: Vec<(u32, Outcome)> = (0..5_000)
            .map(|_| {
                let branch = (offset, Outcome::from_bool(rng.gen_bool(0.5)));
                offset += 2 + u32::from(rng.gen_bool(0.5));
                branch
            })
            .collect();
        let run = |traced: bool, as_block: bool| {
            let mut c = core().with_noise(NoiseConfig::heavy()).unwrap();
            if traced {
                c.set_tracer(Tracer::ring(1 << 16));
            }
            for ctx in [0, 1] {
                if as_block {
                    c.execute_block(ctx, 0x70_0000, &block);
                } else {
                    for &(offset, outcome) in &block {
                        c.execute_branch_in(ctx, 0x70_0000 + u64::from(offset), outcome, None);
                    }
                }
            }
            let latency = c.execute_timed_branch_in(0, 0x9000, Outcome::Taken).1;
            let pht: Vec<PhtState> =
                (0..c.profile().pht_size as u64).map(|i| c.bpu().pht_state(i)).collect();
            let state = (c.rdtscp(), [c.counters(0), c.counters(1)], c.bpu().stats(), latency, pht);
            (state, c.sim_branches(), c.take_tracer().drain())
        };
        let (loop_state, loop_sim, loop_capture) = run(true, false);
        let (block_state, block_sim, block_capture) = run(true, true);
        assert_eq!(block_capture, loop_capture, "traced block differs from the loop");
        assert_eq!(block_capture.metrics.counter("branches"), 10_001);
        assert!(block_capture.metrics.counter("noise_branches") > 0, "the noise ran");
        assert_eq!((&block_state, block_sim), (&loop_state, loop_sim));
        let (fast_state, fast_sim, _) = run(false, true);
        assert_eq!(fast_state, loop_state, "fast path differs from the loop");
        assert_eq!(fast_sim, loop_sim);
        assert_eq!(
            loop_sim,
            10_001 + block_capture.metrics.counter("noise_branches"),
            "sim_branches counts foreground and noise"
        );
    }

    #[test]
    fn noise_arrivals_keep_the_configured_rate() {
        let mut c = core().with_noise(NoiseConfig::system_activity()).unwrap();
        let before = c.bpu().stats().branches;
        c.advance_cycles(1_000_000);
        let injected = c.bpu().stats().branches - before;
        // 8 per kcycle over 1M cycles: mean 8000, sd ~89.
        assert!((7_600..8_400).contains(&injected), "injected {injected}");
    }

    #[test]
    fn set_noise_rearms_from_now_and_rate_zero_never_fires() {
        let mut c = core();
        c.advance_cycles(1_000_000);
        let quiet = NoiseConfig { branches_per_kcycle: 0.0, ..NoiseConfig::heavy() };
        c.set_noise(Some(quiet)).unwrap();
        let before = c.bpu().stats().branches;
        c.advance_cycles(100_000);
        assert_eq!(c.bpu().stats().branches, before, "rate zero never fires");
        // Arming at tsc = 1.1M must not replay the elapsed time as a burst.
        c.set_noise(Some(NoiseConfig::heavy())).unwrap();
        let before = c.bpu().stats().branches;
        c.advance_cycles(1);
        assert!(c.bpu().stats().branches - before < 5, "no backlog from before arming");
    }

    /// One branch of a random stream: (context, address, taken, timed).
    type Step = (bool, u64, bool, bool);

    /// A core's state after a stream: tsc, both contexts' counters, noise
    /// branches injected, predictor stats and every PHT entry.
    type EndState = (u64, [PerfCounters; 2], u64, bscope_bpu::PredictionStats, Vec<PhtState>);

    /// Runs `stream` with heavy noise and strong fuzz on a fresh core,
    /// timing the steps `timed` selects. Returns the timed latencies by
    /// stream position and the end state.
    fn run_stream(
        seed: u64,
        stream: &[Step],
        timed: impl Fn(usize, &Step) -> bool,
    ) -> (Vec<(usize, u64)>, EndState) {
        let mut c = SimCore::new(MicroarchProfile::haswell(), seed)
            .with_noise(NoiseConfig::heavy())
            .unwrap();
        c.set_measurement_fuzz(Some(MeasurementFuzz::strong())).unwrap();
        let mut latencies = Vec::new();
        for (i, step) in stream.iter().enumerate() {
            let &(ctx, addr, taken, _) = step;
            let (ctx, addr) = (u32::from(ctx), 0x40_0000 + addr);
            let outcome = Outcome::from_bool(taken);
            if timed(i, step) {
                latencies.push((i, c.execute_timed_branch_in(ctx, addr, outcome).1));
            } else {
                c.execute_branch_in(ctx, addr, outcome, None);
            }
        }
        let counters = [c.counters(0), c.counters(1)];
        let foreground = counters[0].branches_retired + counters[1].branches_retired;
        let stats = c.bpu().stats();
        let pht = (0..c.profile().pht_size as u64).map(|i| c.bpu().pht_state(i)).collect();
        (latencies, (c.rdtscp(), counters, stats.branches - foreground, stats, pht))
    }

    use proptest::collection::vec;
    use proptest::prelude::{any, ProptestConfig};

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Timing is an observer: timing a random subset of branches leaves
        /// the predictor, the clock, the counters and the noise schedule
        /// exactly as timing none does, and each timed latency equals the
        /// one the same branch reports when every branch is timed.
        #[test]
        fn timing_a_branch_changes_nothing_else(
            seed in any::<u64>(),
            stream in vec((any::<bool>(), 0u64..4096, any::<bool>(), 0u8..4), 100..400),
        ) {
            // A quarter of the branches are timed in the subset run.
            let stream: Vec<Step> =
                stream.into_iter().map(|(ctx, addr, taken, t)| (ctx, addr, taken, t == 0)).collect();
            let (some, some_state) = run_stream(seed, &stream, |_, s| s.3);
            let (none, none_state) = run_stream(seed, &stream, |_, _| false);
            let (all, all_state) = run_stream(seed, &stream, |_, _| true);
            proptest::prop_assert!(none.is_empty());
            proptest::prop_assert_eq!(&some_state, &none_state);
            proptest::prop_assert_eq!(&all_state, &none_state);
            proptest::prop_assert!(none_state.2 > 0, "the noise ran");
            for (i, latency) in some {
                proptest::prop_assert_eq!(latency, all[i].1, "branch {} lazily vs eagerly", i);
            }
        }
    }
}
