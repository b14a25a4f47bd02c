//! The branch prediction unit's front end, built once over three
//! direction-predictor substrates (hybrid, TAGE, perceptron).
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
//! The front end is what BranchScope depends on most, and every substrate
//! shares it: the effective profile, the global history register, the
//! branch target buffer and the prediction statistics. A BTB miss sends a
//! branch to the 1-level PHT (§5.1); taken branches install BTB entries
//! with the `addr + 2` fall-through convention, so BTB-alias eviction (the
//! attacker's stage-1 trick) works the same on every substrate; every
//! branch shifts the GHR. Only the direction prediction differs, and a
//! private enum dispatches it statically with one `match` per method,
//! which keeps the hot `execute` path monomorphic and the core/system types
//! free of generic parameters. [`PredictorBackend`] is what
//! [`SimCore`](../../uarch) stores.

use crate::btb::BranchTargetBuffer;
use crate::counter::{CounterKind, Outcome, PhtState};
use crate::ghr::GlobalHistoryRegister;
use crate::hybrid::Hybrid;
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

/// Everything the front end produced for one branch prediction, the same
/// record on every substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Final predicted direction.
    pub direction: Outcome,
    /// Whether a history-indexed component provided the direction: the
    /// hybrid's gshare side, a confident tagged TAGE component, or the
    /// perceptron (always). `false` means the address-indexed PHT the
    /// attack primes and probes provided it.
    pub two_level: bool,
    /// Whether the branch hit in the BTB (i.e. was recently seen taken).
    pub btb_hit: bool,
}

/// Which predictor substrate to build — the user-facing backend selector
/// (`--bpu hybrid|tage|perceptron` in the experiments CLI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The paper's bimodal+gshare hybrid (Figure 1), which `--bpu` and
    /// `SimCore::new` default to.
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

    /// The profile this backend actually runs for a machine `profile`.
    ///
    /// The hybrid uses the profile verbatim. TAGE and the perceptron
    /// normalise it: `counter_kind = TwoBit`, since the TAGE base table is
    /// a 2-bit counter table and the perceptron's synthesised state view
    /// follows the same four-state FSM, and for TAGE a 64-bit GHR (room for
    /// the longest tagged history).
    #[must_use]
    pub fn effective_profile(self, mut profile: MicroarchProfile) -> MicroarchProfile {
        if self != BackendKind::Hybrid {
            profile.counter_kind = CounterKind::TwoBit;
        }
        if self == BackendKind::Tage {
            profile.ghr_bits = 64;
        }
        profile
    }

    /// Builds the backend for a machine profile.
    ///
    /// The backend stores its [`effective_profile`](Self::effective_profile),
    /// so attacker code that sizes itself from [`PredictorBackend::profile`]
    /// (priming, decode dictionaries) keeps working.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`MicroarchProfile::validate`].
    #[must_use]
    pub fn build(self, profile: MicroarchProfile) -> PredictorBackend {
        let profile = self.effective_profile(profile);
        profile.validate().expect("invalid microarchitecture profile");
        let direction = match self {
            BackendKind::Hybrid => Direction::Hybrid(Hybrid::new(&profile)),
            BackendKind::Tage => {
                Direction::Tage(TagePredictor::new(profile.pht_size, TAGE_ALLOC_SEED))
            }
            BackendKind::Perceptron => {
                Direction::Perceptron(PerceptronPredictor::new(profile.pht_size, profile.ghr_bits))
            }
        };
        PredictorBackend {
            ghr: GlobalHistoryRegister::new(profile.ghr_bits),
            btb: BranchTargetBuffer::new(profile.btb_size),
            stats: PredictionStats::new(),
            direction,
            profile,
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

/// The direction predictor behind the shared front end.
#[derive(Debug, Clone)]
enum Direction {
    /// The paper's bimodal+gshare hybrid.
    Hybrid(Hybrid),
    /// TAGE. Its base table is sized like the profile's PHT and indexed
    /// purely by address, so it *is* a bimodal PHT of 2-bit counters. Under
    /// the attacker's scrambled histories, tagged entries are allocated in
    /// contexts that never recur, so probes fall back to that base table
    /// (see the `tage` module doc).
    Tage(TagePredictor),
    /// Perceptron. There is no saturating counter here — the per-entry
    /// state is a weight vector dotted with the history — which is exactly
    /// the ablation this substrate exists for: a single victim execution
    /// nudges one weight by ±1, far below the decision threshold, so the
    /// attack error collapses toward coin-flipping (see the
    /// `backend_sweep` experiment).
    Perceptron(PerceptronPredictor),
}

/// The branch prediction unit a simulated core runs on: the shared front
/// end (profile, GHR, BTB, statistics) over one direction predictor.
#[derive(Debug, Clone)]
pub struct PredictorBackend {
    profile: MicroarchProfile,
    ghr: GlobalHistoryRegister,
    btb: BranchTargetBuffer,
    stats: PredictionStats,
    direction: Direction,
}

impl PredictorBackend {
    /// Which substrate this is.
    #[must_use]
    pub fn kind(&self) -> BackendKind {
        match self.direction {
            Direction::Hybrid(_) => BackendKind::Hybrid,
            Direction::Tage(_) => BackendKind::Tage,
            Direction::Perceptron(_) => BackendKind::Perceptron,
        }
    }

    /// The *effective* microarchitecture profile: table sizes and counter
    /// flavour as the attacker's priming/decoding code should size itself,
    /// which for non-hybrid backends means a normalised counter kind (see
    /// [`BackendKind::build`]).
    #[must_use]
    pub fn profile(&self) -> &MicroarchProfile {
        &self.profile
    }

    /// Produces the front-end prediction for the branch at `addr` without
    /// committing it: one BTB lookup, then the direction predictor under the
    /// current history.
    #[inline]
    #[must_use]
    pub fn predict(&self, addr: VirtAddr) -> Prediction {
        let btb_hit = self.btb.contains(addr);
        let (direction, two_level) = match &self.direction {
            Direction::Hybrid(h) => {
                let lookup = h.predict(addr, &self.ghr, btb_hit);
                (lookup.direction(), lookup.use_gshare)
            }
            Direction::Tage(t) => {
                let lookup = t.lookup(addr, &self.ghr);
                (lookup.direction, lookup.provider.is_some())
            }
            Direction::Perceptron(p) => (Outcome::from_bool(p.output(addr, &self.ghr) >= 0), true),
        };
        Prediction { direction, two_level, btb_hit }
    }

    /// Predicts and commits one dynamic branch, returning the prediction and
    /// whether it was correct — the only commit path. The direction
    /// predictor looks the branch up once and trains from that lookup under
    /// the history that produced it; then the outcome shifts into the GHR,
    /// a taken branch installs its BTB entry and the statistics record the
    /// branch.
    ///
    /// `target` is the branch target to install when taken; `None` uses
    /// the fall-through convention `addr + 2` (a two-byte conditional jump,
    /// as in the paper's Listing 2 disassembly).
    pub fn execute(
        &mut self,
        addr: VirtAddr,
        outcome: Outcome,
        target: Option<VirtAddr>,
    ) -> (Prediction, bool) {
        let btb_hit = self.btb.contains(addr);
        let (direction, two_level) = match &mut self.direction {
            Direction::Hybrid(h) => {
                let lookup = h.predict(addr, &self.ghr, btb_hit);
                h.train(addr, &self.ghr, outcome, &lookup, btb_hit);
                (lookup.direction(), lookup.use_gshare)
            }
            Direction::Tage(t) => {
                let lookup = t.lookup(addr, &self.ghr);
                t.train(&lookup, outcome);
                (lookup.direction, lookup.provider.is_some())
            }
            Direction::Perceptron(p) => {
                let y = p.output(addr, &self.ghr);
                p.train(addr, &self.ghr, y, outcome);
                (Outcome::from_bool(y >= 0), true)
            }
        };
        self.ghr.push(outcome);
        if outcome.is_taken() {
            // An install that allocates the entry for a new branch restarts
            // the hybrid's chooser for it. Nothing has written the BTB since
            // the lookup above, so its miss is the allocation test.
            if let Direction::Hybrid(h) = &mut self.direction {
                if !btb_hit {
                    h.restart_chooser(addr);
                }
            }
            self.btb.insert(addr, target.unwrap_or(addr + 2));
        }
        self.stats.record(two_level, direction != outcome);
        (Prediction { direction, two_level, btb_hit }, direction == outcome)
    }

    /// Makes `addr` a new branch to the front end: evicts its BTB entry and
    /// restarts its chooser on the hybrid — the state a fresh prime stage
    /// leaves behind.
    pub fn forget_branch(&mut self, addr: VirtAddr) {
        self.btb.evict(addr);
        if let Direction::Hybrid(h) = &mut self.direction {
            h.restart_chooser(addr);
        }
    }

    /// Architectural state of the address-indexed PHT entry for `addr` —
    /// the state BranchScope primes and probes. For the hybrid this is the
    /// bimodal PHT entry and for TAGE the base-table entry. The
    /// perceptron synthesises a state from the entry's history-independent
    /// *bias* weight (`≤ −2` ⇒ SN, `−1` ⇒ WN, `0..=1` ⇒ WT, `≥ 2` ⇒ ST —
    /// zero predicts taken, matching its `y ≥ 0` rule): a best-effort view
    /// for ground-truth instrumentation, not a claim the attack can decode
    /// it.
    #[must_use]
    pub fn pht_state(&self, addr: VirtAddr) -> PhtState {
        match &self.direction {
            Direction::Hybrid(h) => h.pht_state(addr),
            Direction::Tage(t) => t.pht_state(addr),
            Direction::Perceptron(p) => match p.bias(addr) {
                b if b <= -2 => PhtState::StronglyNotTaken,
                -1 => PhtState::WeaklyNotTaken,
                0 | 1 => PhtState::WeaklyTaken,
                _ => PhtState::StronglyTaken,
            },
        }
    }

    /// Forces the address-indexed PHT entry for `addr` into `state`
    /// (ground-truth hook for experiments and tests). The perceptron gets
    /// the representative bias for `state` and zeroed history weights.
    pub fn set_pht_state(&mut self, addr: VirtAddr, state: PhtState) {
        match &mut self.direction {
            Direction::Hybrid(h) => h.set_pht_state(addr, state),
            Direction::Tage(t) => t.set_pht_state(addr, state),
            Direction::Perceptron(p) => p.set_entry(
                addr,
                match state {
                    PhtState::StronglyNotTaken => -2,
                    PhtState::WeaklyNotTaken => -1,
                    PhtState::WeaklyTaken => 0,
                    PhtState::StronglyTaken => 2,
                },
            ),
        }
    }

    /// Read access to the global history register.
    #[must_use]
    pub fn ghr(&self) -> &GlobalHistoryRegister {
        &self.ghr
    }

    /// Read access to the branch target buffer.
    #[must_use]
    pub fn btb(&self) -> &BranchTargetBuffer {
        &self.btb
    }

    /// Exclusive access to the branch target buffer.
    #[must_use]
    pub fn btb_mut(&mut self) -> &mut BranchTargetBuffer {
        &mut self.btb
    }

    /// Cumulative prediction statistics.
    #[must_use]
    pub fn stats(&self) -> PredictionStats {
        self.stats
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
    }

    #[test]
    fn hybrid_backend_keeps_the_profile_verbatim() {
        let backend = BackendKind::Hybrid.build(small_profile());
        assert_eq!(*backend.profile(), small_profile());
    }

    #[test]
    fn non_hybrid_backends_normalise_the_counter_kind() {
        for kind in [BackendKind::Tage, BackendKind::Perceptron] {
            let backend = kind.build(small_profile());
            assert_eq!(backend.profile().counter_kind, CounterKind::TwoBit, "{kind}");
            assert_eq!(backend.profile().pht_size, 1_024, "{kind}: geometry preserved");
            assert_eq!(backend.profile().btb_size, 256, "{kind}: geometry preserved");
        }
        assert_eq!(BackendKind::Tage.build(small_profile()).ghr().len(), 64);
        assert_eq!(BackendKind::Perceptron.build(small_profile()).ghr().len(), 10);
    }

    #[test]
    #[should_panic(expected = "invalid microarchitecture profile")]
    fn build_rejects_an_invalid_profile() {
        let _ = BackendKind::Tage.build(MicroarchProfile { pht_size: 1_000, ..small_profile() });
    }

    #[test]
    fn every_backend_honours_the_front_end_contract() {
        for kind in BackendKind::ALL {
            let mut backend = kind.build(small_profile());
            // New branches miss the BTB; taken branches install an entry
            // with the given target, or the fall-through convention.
            assert!(!backend.predict(0x5000).btb_hit, "{kind}");
            backend.execute(0x5000, Outcome::Taken, None);
            assert_eq!(backend.btb().lookup(0x5000), Some(0x5002), "{kind}");
            assert!(backend.predict(0x5000).btb_hit, "{kind}");
            backend.execute(0x5000, Outcome::Taken, Some(0x6000));
            assert_eq!(backend.btb().lookup(0x5000), Some(0x6000), "{kind}");
            backend.forget_branch(0x5000);
            assert!(!backend.predict(0x5000).btb_hit, "{kind}");
            // Not-taken branches do not install BTB entries.
            backend.execute(0x6000, Outcome::NotTaken, None);
            assert!(!backend.btb().contains(0x6000), "{kind}");
            // The GHR shifts on every commit; stats accumulate.
            assert_eq!(backend.ghr().value() & 0b111, 0b110, "{kind}");
            assert_eq!(backend.stats().branches, 3, "{kind}");
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

    /// Drives the irregular repeating pattern of Fig. 2 through `addr`
    /// until the hybrid predicts it perfectly from gshare.
    fn learn_irregular_pattern(backend: &mut PredictorBackend, addr: VirtAddr) {
        let pattern = [true, false, false, true, true, true, false, true, false, false];
        for _ in 0..12 {
            for &bit in &pattern {
                backend.execute(addr, Outcome::from_bool(bit), None);
            }
        }
        let before = backend.stats();
        for &bit in pattern.iter().cycle().take(30) {
            backend.execute(addr, Outcome::from_bool(bit), None);
        }
        let after = backend.stats();
        let (misses, gshare) =
            (after.mispredictions - before.mispredictions, after.gshare_used - before.gshare_used);
        assert_eq!(misses, 0, "pattern fully learned: {after}");
        assert_eq!(gshare, 30, "the chooser migrated to gshare: {after}");
    }

    #[test]
    fn hybrid_new_branches_use_the_bimodal_pht() {
        let mut backend = BackendKind::Hybrid.build(small_profile());
        assert!(!backend.predict(0x5000).two_level);
        // §5.1: "the 1-level predictor will converge to the strongly taken
        // state after 2-3 executions".
        for _ in 0..3 {
            backend.execute(0x100, Outcome::Taken, None);
        }
        assert_eq!(backend.pht_state(0x100), PhtState::StronglyTaken);
        let (p, correct) = backend.execute(0x100, Outcome::Taken, None);
        assert!(correct && !p.two_level);
    }

    #[test]
    fn hybrid_pht_collides_across_addresses() {
        // Same-index addresses collide in the bimodal PHT — the attack's
        // core collision primitive (paper §4); neighbours stay independent.
        let mut backend = BackendKind::Hybrid.build(small_profile());
        let victim = 0x30_0000u64;
        for _ in 0..3 {
            backend.execute(victim, Outcome::Taken, None);
        }
        assert_eq!(backend.pht_state(victim + 1_024), PhtState::StronglyTaken);
        assert_eq!(backend.pht_state(victim + 1), PhtState::WeaklyNotTaken);
    }

    #[test]
    fn hybrid_btb_reallocation_restarts_the_chooser() {
        let mut backend = BackendKind::Hybrid.build(small_profile());
        learn_irregular_pattern(&mut backend, 0x700);
        // An aliasing branch (same BTB set, different tag) takes the slot…
        backend.execute(0x700 + 256, Outcome::Taken, None);
        // …so when the original branch is seen taken again it is a *new*
        // branch to the BPU and its chooser restarts bimodal.
        backend.execute(0x700, Outcome::Taken, None);
        let p = backend.predict(0x700);
        assert!(p.btb_hit && !p.two_level);
    }

    #[test]
    fn hybrid_forget_branch_restarts_the_chooser() {
        let mut backend = BackendKind::Hybrid.build(small_profile());
        learn_irregular_pattern(&mut backend, 0x700);
        backend.forget_branch(0x700);
        assert!(!backend.btb().contains(0x700));
        // Reinstall the entry without the allocation path: the chooser
        // stays where forget_branch left it.
        backend.btb_mut().insert(0x700, 0x702);
        let p = backend.predict(0x700);
        assert!(p.btb_hit && !p.two_level);
    }

    #[test]
    fn two_level_names_the_history_indexed_provider() {
        // The hybrid: the bimodal PHT answers a new branch; gshare once the
        // chooser has migrated for a learned irregular pattern.
        let mut hybrid = BackendKind::Hybrid.build(small_profile());
        assert!(!hybrid.predict(0x700).two_level);
        learn_irregular_pattern(&mut hybrid, 0x700);
        assert!(hybrid.predict(0x700).two_level);
        // TAGE: the base table provides while no tagged entry is confident,
        // a tagged component once it has learned an alternation.
        let mut tage = BackendKind::Tage.build(small_profile());
        for outcome in [Outcome::NotTaken, Outcome::NotTaken, Outcome::Taken] {
            assert!(!tage.predict(0x6d).two_level);
            let (p, _) = tage.execute(0x6d, outcome, None);
            assert!(!p.two_level);
        }
        for i in 0..64 {
            tage.execute(0x6d, Outcome::from_bool(i % 2 == 0), None);
        }
        assert!(tage.predict(0x6d).two_level);
        // The perceptron's output always reads the history weights.
        let mut perceptron = BackendKind::Perceptron.build(small_profile());
        for outcome in [Outcome::Taken, Outcome::NotTaken, Outcome::Taken] {
            assert!(perceptron.predict(0x6d).two_level);
            let (p, _) = perceptron.execute(0x6d, outcome, None);
            assert!(p.two_level);
        }
        assert_eq!(perceptron.stats().gshare_used, 3);
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
