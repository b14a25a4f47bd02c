//! Stage-3 probing: two spy branches observed through performance counters.

use bscope_bpu::{Outcome, VirtAddr};
use bscope_os::CpuView;
use std::fmt;

/// The direction both probing branches execute with.
///
/// The paper probes either with two taken branches (`TT`) or two not-taken
/// branches (`NN`); the useful direction is the one *opposite* to the primed
/// state (probing in the primed direction observes `HH` regardless of the
/// victim, Table 1 rows 1/3/6/8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeKind {
    /// Two taken probe branches (`TT`).
    TakenTaken,
    /// Two not-taken probe branches (`NN`).
    NotTakenNotTaken,
}

impl ProbeKind {
    /// The outcome each probe branch executes with.
    #[must_use]
    pub fn outcome(self) -> Outcome {
        match self {
            ProbeKind::TakenTaken => Outcome::Taken,
            ProbeKind::NotTakenNotTaken => Outcome::NotTaken,
        }
    }

    /// The probe kind executing with `outcome`.
    #[must_use]
    pub fn from_outcome(outcome: Outcome) -> Self {
        match outcome {
            Outcome::Taken => ProbeKind::TakenTaken,
            Outcome::NotTaken => ProbeKind::NotTakenNotTaken,
        }
    }

    /// The paper's two-letter mnemonic: `TT` or `NN`.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            ProbeKind::TakenTaken => "TT",
            ProbeKind::NotTakenNotTaken => "NN",
        }
    }
}

impl fmt::Display for ProbeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Prediction observations of the two probing branches, in the paper's
/// notation: `H` = correct prediction (hit), `M` = misprediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProbePattern {
    /// Both probes predicted correctly.
    HH,
    /// First correct, second mispredicted.
    HM,
    /// First mispredicted, second correct.
    MH,
    /// Both probes mispredicted.
    MM,
}

impl ProbePattern {
    /// All four patterns.
    pub const ALL: [ProbePattern; 4] =
        [ProbePattern::HH, ProbePattern::HM, ProbePattern::MH, ProbePattern::MM];

    /// Builds a pattern from the two per-probe hit flags.
    #[must_use]
    pub fn from_hits(first_hit: bool, second_hit: bool) -> Self {
        match (first_hit, second_hit) {
            (true, true) => ProbePattern::HH,
            (true, false) => ProbePattern::HM,
            (false, true) => ProbePattern::MH,
            (false, false) => ProbePattern::MM,
        }
    }

    /// Whether the first probe predicted correctly.
    #[must_use]
    pub fn first_hit(self) -> bool {
        matches!(self, ProbePattern::HH | ProbePattern::HM)
    }

    /// Whether the second probe predicted correctly.
    ///
    /// Per §8, the second observation alone suffices to decode the victim's
    /// direction for a well-chosen prime state, which is what makes the
    /// timing variant practical despite noisy first (cold) measurements.
    #[must_use]
    pub fn second_hit(self) -> bool {
        matches!(self, ProbePattern::HH | ProbePattern::MH)
    }

    /// Number of mispredictions in the pattern (0–2).
    #[must_use]
    pub fn mispredictions(self) -> u32 {
        u32::from(!self.first_hit()) + u32::from(!self.second_hit())
    }
}

impl fmt::Display for ProbePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ProbePattern::HH => "HH",
            ProbePattern::HM => "HM",
            ProbePattern::MH => "MH",
            ProbePattern::MM => "MM",
        })
    }
}

/// Executes the two probing branches at `addr` and reads their prediction
/// outcomes from the branch-misprediction performance counter, exactly as
/// the paper's `spy_function()` (Listing 3) does: read counter → branch →
/// read counter → store delta, twice.
pub fn probe_with_counters(cpu: &mut CpuView<'_>, addr: VirtAddr, kind: ProbeKind) -> ProbePattern {
    let mut hits = [false; 2];
    for hit in &mut hits {
        *hit = probe_once(cpu, addr, kind);
    }
    ProbePattern::from_hits(hits[0], hits[1])
}

/// Executes a single probing branch at `addr` and reports whether it was
/// predicted correctly (one counter-delta observation).
///
/// [`probe_with_counters`] runs the two probes back to back, which is all
/// the hybrid needs; on history-indexed backends the attacker re-scrambles
/// the global history *between* the two observations (see
/// `BranchScope::observe_bit`), so the stages are also available singly.
pub fn probe_once(cpu: &mut CpuView<'_>, addr: VirtAddr, kind: ProbeKind) -> bool {
    let before = cpu.counters().branch_misses;
    cpu.branch_at_abs(addr, kind.outcome());
    let after = cpu.counters().branch_misses;
    after == before
}

#[cfg(test)]
mod tests {
    use super::*;
    use bscope_bpu::{MicroarchProfile, PhtState};
    use bscope_os::{AslrPolicy, System};

    #[test]
    fn pattern_round_trips() {
        assert_eq!(ProbePattern::from_hits(true, true), ProbePattern::HH);
        assert_eq!(ProbePattern::from_hits(false, true), ProbePattern::MH);
        assert!(ProbePattern::MH.second_hit());
        assert!(!ProbePattern::MH.first_hit());
        assert_eq!(ProbePattern::MM.mispredictions(), 2);
        assert_eq!(ProbePattern::HH.mispredictions(), 0);
        assert_eq!(ProbePattern::HM.to_string(), "HM");
    }

    #[test]
    fn probe_kind_round_trips() {
        assert_eq!(ProbeKind::from_outcome(Outcome::Taken), ProbeKind::TakenTaken);
        assert_eq!(ProbeKind::NotTakenNotTaken.outcome(), Outcome::NotTaken);
        assert_eq!(ProbeKind::TakenTaken.to_string(), "TT");
    }

    /// Reproduces Table 1 row 7 end-to-end through the counter channel:
    /// entry in SN probed with TT observes MM.
    #[test]
    fn counter_probe_observes_table1_row() {
        let mut sys = System::new(MicroarchProfile::haswell(), 1);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let addr = sys.process(spy).vaddr_of(0x100);
        sys.core_mut().bpu_mut().set_pht_state(addr, PhtState::StronglyNotTaken);
        let pattern = probe_with_counters(&mut sys.cpu(spy), addr, ProbeKind::TakenTaken);
        assert_eq!(pattern, ProbePattern::MM);
    }

    /// Entry in WN probed with TT observes MH (Table 1 row 5 after-target
    /// state).
    #[test]
    fn counter_probe_distinguishes_weak_state() {
        let mut sys = System::new(MicroarchProfile::haswell(), 2);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let addr = sys.process(spy).vaddr_of(0x100);
        sys.core_mut().bpu_mut().set_pht_state(addr, PhtState::WeaklyNotTaken);
        let pattern = probe_with_counters(&mut sys.cpu(spy), addr, ProbeKind::TakenTaken);
        assert_eq!(pattern, ProbePattern::MH);
    }
}
