//! Predictor backends: the three directional-predictor substrates in this
//! crate (hybrid, TAGE, perceptron) behind one sealed enum.
//!
//! The paper attacks a bimodal+gshare hybrid but notes modern CPUs use
//! "complex hybrid predictors with unknown organization" (§1), and
//! follow-on work shows directional-predictor leakage generalises beyond
//! that organisation. [`PredictorBackend`] is the surface the rest of the
//! stack (core, OS, attack, mitigations, experiments) relies on — predict,
//! commit, history and BTB access, PHT-entry inspection for probe decoding,
//! and the geometry/profile queries the attacker's priming code sizes
//! itself with — so every layer above `bscope-bpu` runs unchanged on any
//! substrate.
//!
//! Dispatch is static: every method is one `match` over the three variants,
//! which keeps the hot `execute` path monomorphic and the core/system types
//! free of generic parameters. The enum is what
//! [`SimCore`](../../uarch) stores.
//!
//! TAGE and the perceptron have no BTB, chooser, or statistics of their
//! own; a shared `BackendCommon` supplies the BTB/GHR/stats plumbing so
//! both expose the same front-end surface the hybrid does. Their wrappers
//! implement only what differs per substrate: `predict`, `update`,
//! `pht_state` and `set_pht_state`.

use crate::btb::BranchTargetBuffer;
use crate::counter::{CounterKind, Outcome, PhtState};
use crate::ghr::GlobalHistoryRegister;
use crate::hybrid::{HybridPredictor, Prediction, PredictorKind};
use crate::perceptron::PerceptronPredictor;
use crate::profile::MicroarchProfile;
use crate::stats::PredictionStats;
use crate::tage::TagePredictor;
use crate::VirtAddr;
use std::fmt;
use std::str::FromStr;

/// Deterministic seed for the TAGE allocation LFSR. Allocation randomness
/// is microarchitectural state, not experiment randomness: it is fixed so
/// two cores built from the same profile start bit-identical, exactly like
/// the hybrid's power-on state.
const TAGE_ALLOC_SEED: u64 = 0x7A6E_5EED;

/// Tagged components of the TAGE backend (history lengths 4, 8, 16, 32).
const TAGE_COMPONENTS: usize = 4;

/// Front-end plumbing every backend needs but the bare TAGE / perceptron
/// models lack: the effective profile, the global history register, the
/// branch target buffer, and prediction statistics.
///
/// The BTB plays the same role as in the hybrid: presence drives the
/// "recently seen taken" signal, taken branches install entries with the
/// `addr + 2` fall-through convention, and BTB-alias eviction (the
/// attacker's stage-1 trick) works identically.
#[derive(Debug, Clone)]
struct BackendCommon {
    profile: MicroarchProfile,
    ghr: GlobalHistoryRegister,
    btb: BranchTargetBuffer,
    stats: PredictionStats,
}

impl BackendCommon {
    /// Builds the shared plumbing for an (already normalised) profile.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`MicroarchProfile::validate`].
    fn new(profile: MicroarchProfile) -> Self {
        profile.validate().expect("invalid microarchitecture profile");
        BackendCommon {
            ghr: GlobalHistoryRegister::new(profile.ghr_bits),
            btb: BranchTargetBuffer::new(profile.btb_size),
            stats: PredictionStats::new(),
            profile,
        }
    }

    /// BTB lookup for the predict path: `(btb_hit, predicted_target)`.
    fn lookup(&self, addr: VirtAddr, direction: Outcome) -> (bool, Option<VirtAddr>) {
        let target = self.btb.lookup(addr);
        (target.is_some(), if direction.is_taken() { target } else { None })
    }

    /// Commit-path bookkeeping shared by all non-hybrid backends: shifts
    /// the outcome into the GHR, installs the BTB entry for taken branches
    /// (fall-through convention `addr + 2`), and records statistics.
    fn commit(
        &mut self,
        addr: VirtAddr,
        outcome: Outcome,
        target: Option<VirtAddr>,
        prediction: &Prediction,
    ) {
        self.ghr.push(outcome);
        if outcome.is_taken() {
            self.btb.insert(addr, target.unwrap_or(addr + 2));
        }
        self.stats
            .record(prediction.used == PredictorKind::Gshare, prediction.direction != outcome);
    }
}

/// TAGE base-table counter (0–3) to the equivalent PHT FSM state.
fn base_counter_state(counter: u8) -> PhtState {
    match counter {
        0 => PhtState::StronglyNotTaken,
        1 => PhtState::WeaklyNotTaken,
        2 => PhtState::WeaklyTaken,
        _ => PhtState::StronglyTaken,
    }
}

/// Inverse of [`base_counter_state`].
fn state_base_counter(state: PhtState) -> u8 {
    match state {
        PhtState::StronglyNotTaken => 0,
        PhtState::WeaklyNotTaken => 1,
        PhtState::WeaklyTaken => 2,
        PhtState::StronglyTaken => 3,
    }
}

/// A [`TagePredictor`] dressed as a full predictor backend.
///
/// The base table is sized like the profile's PHT and indexed purely by
/// address, so it *is* a bimodal PHT of 2-bit counters — which is why the
/// effective profile reports [`CounterKind::TwoBit`] regardless of the
/// machine's native flavour, and why [`pht_state`](Self::pht_state)
/// maps base counters straight onto the four FSM states. The attack
/// surface survives: under the attacker's scrambled histories, tagged
/// entries are allocated in contexts that never recur, so probes fall back
/// to the address-indexed base table (see the `tage` module doc and its
/// `branchscope_fsm_reasoning_holds_on_the_base_table` test).
///
/// Prediction mapping: the base-table direction reports as the `bimodal`
/// component; the final TAGE direction as `gshare`; `used` is `Gshare`
/// exactly when a tagged (history-indexed) component provided the
/// prediction.
#[derive(Debug, Clone)]
pub struct TageBackend {
    common: BackendCommon,
    tage: TagePredictor,
}

impl TageBackend {
    /// Builds a TAGE backend for a machine profile. The stored profile is
    /// normalised: 2-bit counters (the base-table flavour) and a 64-bit
    /// GHR (room for the longest tagged history).
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`MicroarchProfile::validate`].
    #[must_use]
    pub fn new(profile: MicroarchProfile) -> Self {
        let mut effective = profile;
        effective.counter_kind = CounterKind::TwoBit;
        effective.ghr_bits = 64;
        let tage = TagePredictor::new(effective.pht_size, TAGE_COMPONENTS, TAGE_ALLOC_SEED);
        TageBackend { common: BackendCommon::new(effective), tage }
    }

    /// Predicts the branch at `addr` from the current global history.
    #[must_use]
    pub fn predict(&self, addr: VirtAddr) -> Prediction {
        let tage = self.tage.predict(addr, &self.common.ghr);
        let base = Outcome::from_bool(self.tage.base_counter(addr) >= 2);
        let (btb_hit, target) = self.common.lookup(addr, tage.direction);
        Prediction {
            direction: tage.direction,
            used: if tage.provider.is_some() { PredictorKind::Gshare } else { PredictorKind::Bimodal },
            bimodal: base,
            gshare: tage.direction,
            btb_hit,
            target,
        }
    }

    /// Trains TAGE on the resolved outcome, then commits the shared
    /// front-end state.
    pub fn update(
        &mut self,
        addr: VirtAddr,
        outcome: Outcome,
        target: Option<VirtAddr>,
        prediction: &Prediction,
    ) {
        self.tage.train(addr, &self.common.ghr, outcome);
        self.common.commit(addr, outcome, target, prediction);
    }

    /// The base-table counter for `addr` as a PHT FSM state.
    #[must_use]
    pub fn pht_state(&self, addr: VirtAddr) -> PhtState {
        base_counter_state(self.tage.base_counter(addr))
    }

    /// Forces the base-table counter for `addr` to `state`.
    pub fn set_pht_state(&mut self, addr: VirtAddr, state: PhtState) {
        self.tage.set_base_counter(addr, state_base_counter(state));
    }
}

/// A [`PerceptronPredictor`] dressed as a full predictor backend.
///
/// There is no saturating counter here — the per-entry state is a weight
/// vector dotted with the history — which is exactly the ablation the
/// backend exists for: BranchScope's prime (saturate an FSM) → victim (one
/// transition) → probe (read it back) strategy presumes small per-address
/// FSM state, and on this substrate a single victim execution nudges one
/// weight by ±1, far below the decision threshold. The expected headline
/// is attack error collapsing toward coin-flipping (see the
/// `backend_sweep` experiment).
///
/// [`pht_state`](Self::pht_state) synthesises a state from
/// the entry's history-independent *bias* weight (`≤ −2` ⇒ SN, `−1` ⇒ WN,
/// `0..=1` ⇒ WT, `≥ 2` ⇒ ST — zero predicts taken, matching the
/// perceptron's `y ≥ 0` rule); `set_pht_state` writes the representative
/// bias and zeroes the history weights. This is a best-effort view for
/// ground-truth instrumentation, not a claim the attack can decode it.
///
/// Prediction mapping: the perceptron is history-driven, so its direction
/// reports as both components with `used = Gshare`.
#[derive(Debug, Clone)]
pub struct PerceptronBackend {
    common: BackendCommon,
    perceptron: PerceptronPredictor,
}

impl PerceptronBackend {
    /// Builds a perceptron backend for a machine profile (one perceptron
    /// per PHT entry, history length = the profile's GHR width). The
    /// stored profile normalises the counter kind to
    /// [`CounterKind::TwoBit`] so decode dictionaries stay constructible.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`MicroarchProfile::validate`].
    #[must_use]
    pub fn new(profile: MicroarchProfile) -> Self {
        let mut effective = profile;
        effective.counter_kind = CounterKind::TwoBit;
        let perceptron = PerceptronPredictor::new(effective.pht_size, effective.ghr_bits);
        PerceptronBackend { common: BackendCommon::new(effective), perceptron }
    }

    /// Predicts the branch at `addr` from the current global history.
    #[must_use]
    pub fn predict(&self, addr: VirtAddr) -> Prediction {
        let direction = self.perceptron.predict(addr, &self.common.ghr);
        let (btb_hit, target) = self.common.lookup(addr, direction);
        Prediction {
            direction,
            used: PredictorKind::Gshare,
            bimodal: direction,
            gshare: direction,
            btb_hit,
            target,
        }
    }

    /// Trains the perceptron on the resolved outcome, then commits the
    /// shared front-end state.
    pub fn update(
        &mut self,
        addr: VirtAddr,
        outcome: Outcome,
        target: Option<VirtAddr>,
        prediction: &Prediction,
    ) {
        self.perceptron.train(addr, &self.common.ghr, outcome);
        self.common.commit(addr, outcome, target, prediction);
    }

    /// The state synthesised from the entry's bias weight (see the type
    /// docs).
    #[must_use]
    pub fn pht_state(&self, addr: VirtAddr) -> PhtState {
        match self.perceptron.bias(addr) {
            b if b <= -2 => PhtState::StronglyNotTaken,
            -1 => PhtState::WeaklyNotTaken,
            0 | 1 => PhtState::WeaklyTaken,
            _ => PhtState::StronglyTaken,
        }
    }

    /// Writes the representative bias for `state` and zeroes the history
    /// weights.
    pub fn set_pht_state(&mut self, addr: VirtAddr, state: PhtState) {
        let bias = match state {
            PhtState::StronglyNotTaken => -2,
            PhtState::WeaklyNotTaken => -1,
            PhtState::WeaklyTaken => 0,
            PhtState::StronglyTaken => 2,
        };
        self.perceptron.set_entry(addr, bias);
    }
}

/// Which predictor substrate to build — the user-facing backend selector
/// (`--bpu hybrid|tage|perceptron` in the experiments CLI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The paper's bimodal+gshare hybrid (Figure 1) — the default.
    #[default]
    Hybrid,
    /// TAGE: base bimodal table + tagged geometric-history tables.
    Tage,
    /// Perceptron: per-entry weight vectors over global history.
    Perceptron,
}

impl BackendKind {
    /// Every backend, in CLI/reporting order.
    pub const ALL: [BackendKind; 3] =
        [BackendKind::Hybrid, BackendKind::Tage, BackendKind::Perceptron];

    /// The canonical lower-case name (also the `--bpu` spelling).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Hybrid => "hybrid",
            BackendKind::Tage => "tage",
            BackendKind::Perceptron => "perceptron",
        }
    }

    /// Builds the backend for a machine profile.
    ///
    /// The hybrid uses the profile verbatim. TAGE and the perceptron store
    /// a *normalised* effective profile — most importantly
    /// `counter_kind = TwoBit`, since the TAGE base table is a 2-bit
    /// counter table and the perceptron's synthesised state view follows
    /// the same four-state FSM — so attacker code that sizes itself from
    /// `profile()` (priming, decode dictionaries) keeps working.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`MicroarchProfile::validate`].
    #[must_use]
    pub fn build(self, profile: MicroarchProfile) -> PredictorBackend {
        match self {
            BackendKind::Hybrid => PredictorBackend::Hybrid(HybridPredictor::new(profile)),
            BackendKind::Tage => PredictorBackend::Tage(TageBackend::new(profile)),
            BackendKind::Perceptron => {
                PredictorBackend::Perceptron(PerceptronBackend::new(profile))
            }
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "hybrid" => Ok(BackendKind::Hybrid),
            "tage" => Ok(BackendKind::Tage),
            "perceptron" => Ok(BackendKind::Perceptron),
            other => Err(format!(
                "unknown backend '{other}' (expected hybrid, tage, or perceptron)"
            )),
        }
    }
}

/// The predictor substrate a simulated core runs on: one of the three
/// concrete backends behind static (match) dispatch.
#[derive(Debug, Clone)]
pub enum PredictorBackend {
    /// The paper's bimodal+gshare hybrid predictor.
    Hybrid(HybridPredictor),
    /// TAGE with the shared BTB/GHR/stats plumbing.
    Tage(TageBackend),
    /// Perceptron with the shared BTB/GHR/stats plumbing.
    Perceptron(PerceptronBackend),
}

/// Delegates a per-substrate method to whichever backend is active.
macro_rules! dispatch {
    ($self:expr, $bpu:ident => $body:expr) => {
        match $self {
            PredictorBackend::Hybrid($bpu) => $body,
            PredictorBackend::Tage($bpu) => $body,
            PredictorBackend::Perceptron($bpu) => $body,
        }
    };
}

/// Reaches a front-end structure: the hybrid's own, or the `BackendCommon`
/// TAGE and the perceptron share.
macro_rules! front_end {
    ($self:expr, $hybrid:ident => $h:expr, $common:ident => $c:expr) => {
        match $self {
            PredictorBackend::Hybrid($hybrid) => $h,
            PredictorBackend::Tage(TageBackend { common: $common, .. })
            | PredictorBackend::Perceptron(PerceptronBackend { common: $common, .. }) => $c,
        }
    };
}

impl PredictorBackend {
    /// Which substrate this is.
    #[must_use]
    pub fn kind(&self) -> BackendKind {
        match self {
            PredictorBackend::Hybrid(_) => BackendKind::Hybrid,
            PredictorBackend::Tage(_) => BackendKind::Tage,
            PredictorBackend::Perceptron(_) => BackendKind::Perceptron,
        }
    }

    /// The hybrid predictor, if that is the active backend. Hybrid-only
    /// structures (the selector table, the separate gshare PHT) are reached
    /// through here; everything else is on the common surface.
    #[must_use]
    pub fn as_hybrid(&self) -> Option<&HybridPredictor> {
        match self {
            PredictorBackend::Hybrid(h) => Some(h),
            _ => None,
        }
    }

    /// Exclusive access to the hybrid predictor, if active.
    #[must_use]
    pub fn as_hybrid_mut(&mut self) -> Option<&mut HybridPredictor> {
        match self {
            PredictorBackend::Hybrid(h) => Some(h),
            _ => None,
        }
    }

    /// The *effective* microarchitecture profile: table sizes and counter
    /// flavour as the attacker's priming/decoding code should size itself,
    /// which for non-hybrid backends means a normalised counter kind (see
    /// [`BackendKind::build`]).
    #[must_use]
    pub fn profile(&self) -> &MicroarchProfile {
        front_end!(self, h => h.profile(), c => &c.profile)
    }

    /// Produces the front-end prediction for the branch at `addr`.
    #[must_use]
    pub fn predict(&self, addr: VirtAddr) -> Prediction {
        dispatch!(self, bpu => bpu.predict(addr))
    }

    /// Commits a resolved branch. `prediction` must be the value returned
    /// by [`predict`](Self::predict) for this same dynamic branch.
    pub fn update(
        &mut self,
        addr: VirtAddr,
        outcome: Outcome,
        target: Option<VirtAddr>,
        prediction: &Prediction,
    ) {
        dispatch!(self, bpu => bpu.update(addr, outcome, target, prediction));
    }

    /// Predicts and immediately commits one dynamic branch, returning the
    /// prediction and whether it was correct (the simulation fast path).
    pub fn execute(
        &mut self,
        addr: VirtAddr,
        outcome: Outcome,
        target: Option<VirtAddr>,
    ) -> (Prediction, bool) {
        if let PredictorBackend::Hybrid(h) = self {
            return h.execute(addr, outcome, target);
        }
        let prediction = self.predict(addr);
        self.update(addr, outcome, target, &prediction);
        (prediction, prediction.direction == outcome)
    }

    /// Architectural state of the address-indexed PHT entry for `addr` —
    /// the state BranchScope primes and probes. For the hybrid this is the
    /// bimodal PHT entry; for TAGE the base-table counter; the perceptron
    /// synthesises a state from its bias weight (see [`PerceptronBackend`]).
    #[must_use]
    pub fn pht_state(&self, addr: VirtAddr) -> PhtState {
        match self {
            PredictorBackend::Hybrid(h) => h.bimodal_state(addr),
            PredictorBackend::Tage(t) => t.pht_state(addr),
            PredictorBackend::Perceptron(p) => p.pht_state(addr),
        }
    }

    /// Forces the address-indexed PHT entry for `addr` into `state`
    /// (ground-truth hook for experiments and tests).
    pub fn set_pht_state(&mut self, addr: VirtAddr, state: PhtState) {
        match self {
            PredictorBackend::Hybrid(h) => h.bimodal_mut().set_state(addr, state),
            PredictorBackend::Tage(t) => t.set_pht_state(addr, state),
            PredictorBackend::Perceptron(p) => p.set_pht_state(addr, state),
        }
    }

    /// Read access to the global history register.
    #[must_use]
    pub fn ghr(&self) -> &GlobalHistoryRegister {
        front_end!(self, h => h.ghr(), c => &c.ghr)
    }

    /// Exclusive access to the global history register.
    #[must_use]
    pub fn ghr_mut(&mut self) -> &mut GlobalHistoryRegister {
        front_end!(self, h => h.ghr_mut(), c => &mut c.ghr)
    }

    /// Read access to the branch target buffer.
    #[must_use]
    pub fn btb(&self) -> &BranchTargetBuffer {
        front_end!(self, h => h.btb(), c => &c.btb)
    }

    /// Exclusive access to the branch target buffer.
    #[must_use]
    pub fn btb_mut(&mut self) -> &mut BranchTargetBuffer {
        front_end!(self, h => h.btb_mut(), c => &mut c.btb)
    }

    /// Cumulative prediction statistics.
    #[must_use]
    pub fn stats(&self) -> PredictionStats {
        front_end!(self, h => h.stats(), c => c.stats)
    }

    /// Resets the statistics counters (predictor state is untouched).
    pub fn reset_stats(&mut self) {
        front_end!(self, h => h.reset_stats(), c => c.stats.reset());
    }

    /// Resets all predictor state to power-on defaults. TAGE and the
    /// perceptron are rebuilt from their (already normalised) profile.
    pub fn reset(&mut self) {
        match self {
            PredictorBackend::Hybrid(h) => h.reset(),
            _ => *self = self.kind().build(self.profile().clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Microarch;

    fn small_profile() -> MicroarchProfile {
        MicroarchProfile {
            arch: Microarch::Custom,
            pht_size: 1_024,
            counter_kind: CounterKind::SkylakeAsymmetric,
            ghr_bits: 10,
            selector_size: 256,
            btb_size: 256,
            timing: Default::default(),
        }
    }

    #[test]
    fn kind_round_trips_through_build_and_parse() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.build(small_profile()).kind(), kind);
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        let err = "btb".parse::<BackendKind>().unwrap_err();
        assert!(err.contains("unknown backend 'btb'"), "{err}");
        assert!(err.contains("hybrid, tage, or perceptron"), "{err}");
        assert_eq!(BackendKind::default(), BackendKind::Hybrid);
    }

    #[test]
    fn hybrid_backend_keeps_the_profile_verbatim() {
        let backend = BackendKind::Hybrid.build(small_profile());
        assert_eq!(*backend.profile(), small_profile());
        assert!(backend.as_hybrid().is_some());
    }

    #[test]
    fn non_hybrid_backends_normalise_the_counter_kind() {
        for kind in [BackendKind::Tage, BackendKind::Perceptron] {
            let backend = kind.build(small_profile());
            assert_eq!(backend.profile().counter_kind, CounterKind::TwoBit, "{kind}");
            assert_eq!(backend.profile().pht_size, 1_024, "{kind}: geometry preserved");
            assert_eq!(backend.profile().btb_size, 256, "{kind}: geometry preserved");
            assert!(backend.as_hybrid().is_none(), "{kind}");
        }
    }

    #[test]
    fn every_backend_honours_the_front_end_contract() {
        for kind in BackendKind::ALL {
            let mut backend = kind.build(small_profile());
            // New branches miss the BTB; taken branches install an entry
            // with the fall-through convention.
            assert!(!backend.predict(0x5000).btb_hit, "{kind}");
            backend.execute(0x5000, Outcome::Taken, None);
            assert_eq!(backend.btb().lookup(0x5000), Some(0x5002), "{kind}");
            assert!(backend.predict(0x5000).btb_hit, "{kind}");
            // Not-taken branches do not install BTB entries.
            backend.execute(0x6000, Outcome::NotTaken, None);
            assert!(!backend.btb().contains(0x6000), "{kind}");
            // The GHR shifts on every commit; stats accumulate and reset.
            assert!(backend.ghr().value() != 0 || backend.stats().branches == 2, "{kind}");
            assert_eq!(backend.stats().branches, 2, "{kind}");
            backend.reset_stats();
            assert_eq!(backend.stats().branches, 0, "{kind}");
            // Reset restores power-on state and keeps the effective profile.
            backend.set_pht_state(0x5000, PhtState::StronglyNotTaken);
            backend.reset();
            let fresh = kind.build(small_profile());
            assert_eq!(backend.btb().occupancy(), 0, "{kind}");
            assert_eq!(backend.ghr().value(), 0, "{kind}");
            assert_eq!(backend.profile(), fresh.profile(), "{kind}");
            assert_eq!(backend.pht_state(0x5000), fresh.pht_state(0x5000), "{kind}");
        }
    }

    #[test]
    fn pht_state_round_trips_on_every_backend() {
        for kind in BackendKind::ALL {
            let mut backend = kind.build(small_profile());
            for state in [
                PhtState::StronglyNotTaken,
                PhtState::WeaklyNotTaken,
                PhtState::WeaklyTaken,
                PhtState::StronglyTaken,
            ] {
                backend.set_pht_state(0x6d, state);
                assert_eq!(backend.pht_state(0x6d), state, "{kind}");
            }
        }
    }

    #[test]
    fn saturation_primes_every_backend_to_a_strong_state() {
        // The attack's stage-1 saturation loop (max_level executions in one
        // direction) must leave every backend's address-indexed state
        // strongly biased — this is what TargetedPrime relies on.
        for kind in BackendKind::ALL {
            let mut backend = kind.build(small_profile());
            let steps = crate::Counter::new(backend.profile().counter_kind).max_level();
            for _ in 0..steps {
                backend.execute(0x6d, Outcome::NotTaken, None);
            }
            assert_eq!(backend.pht_state(0x6d), PhtState::StronglyNotTaken, "{kind}");
        }
    }

    #[test]
    fn tage_backend_probe_sequence_shows_the_mh_signature() {
        // End-to-end FSM reasoning on the backend surface (the module-level
        // argument from `tage.rs`, here through the enum): prime SN, one
        // taken victim execution, then two taken probes observe miss, hit.
        let mut backend = BackendKind::Tage.build(small_profile());
        for _ in 0..3 {
            backend.execute(0x6d, Outcome::NotTaken, None);
        }
        assert_eq!(backend.pht_state(0x6d), PhtState::StronglyNotTaken);
        backend.execute(0x6d, Outcome::Taken, None); // victim
        let (_, first_correct) = backend.execute(0x6d, Outcome::Taken, None);
        let (_, second_correct) = backend.execute(0x6d, Outcome::Taken, None);
        assert!(!first_correct && second_correct, "MH probe signature");
    }

    #[test]
    fn perceptron_backend_barely_reacts_to_a_single_victim_execution() {
        // The ablation headline: after a strong not-taken prime, ONE taken
        // execution cannot flip the perceptron's output, so the probe
        // pattern is the same whether the victim ran taken or not-taken —
        // the attack reads nothing.
        let run = |victim: Outcome| {
            let mut backend = BackendKind::Perceptron.build(small_profile());
            for _ in 0..8 {
                backend.execute(0x6d, Outcome::NotTaken, None);
            }
            backend.execute(0x6d, victim, None);
            let (first, _) = backend.execute(0x6d, Outcome::Taken, None);
            let (second, _) = backend.execute(0x6d, Outcome::Taken, None);
            (first.direction, second.direction)
        };
        assert_eq!(run(Outcome::Taken), run(Outcome::NotTaken), "probes cannot distinguish");
    }
}
