//! Branch outcomes, architectural PHT states and saturating-counter FSMs.
//!
//! The paper's Figure 3 shows the textbook two-bit saturating counter with
//! four states (SN, WN, WT, ST). The Skylake microarchitecture additionally
//! exhibits the peculiarity documented in Table 1, footnote 1: probing a
//! weakly-taken entry with two not-taken branches observes `MM` instead of
//! the textbook `MH`, which makes the ST and WT states indistinguishable.
//! We model that with an asymmetric five-state counter whose taken side has
//! one extra state ([`CounterKind::SkylakeAsymmetric`]).

use std::fmt;

/// The direction a conditional branch resolved to (or is predicted to).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The branch was (or is predicted) not taken: fall through.
    NotTaken,
    /// The branch was (or is predicted) taken: jump to the target.
    Taken,
}

impl Outcome {
    /// Returns `true` for [`Outcome::Taken`].
    ///
    /// ```
    /// use bscope_bpu::Outcome;
    /// assert!(Outcome::Taken.is_taken());
    /// assert!(!Outcome::NotTaken.is_taken());
    /// ```
    #[must_use]
    pub fn is_taken(self) -> bool {
        matches!(self, Outcome::Taken)
    }

    /// Converts a boolean condition into an outcome (`true` → taken).
    ///
    /// ```
    /// use bscope_bpu::Outcome;
    /// assert_eq!(Outcome::from_bool(true), Outcome::Taken);
    /// ```
    #[must_use]
    pub fn from_bool(taken: bool) -> Self {
        if taken {
            Outcome::Taken
        } else {
            Outcome::NotTaken
        }
    }

    /// Returns the opposite direction.
    ///
    /// ```
    /// use bscope_bpu::Outcome;
    /// assert_eq!(Outcome::Taken.flipped(), Outcome::NotTaken);
    /// ```
    #[must_use]
    pub fn flipped(self) -> Self {
        match self {
            Outcome::Taken => Outcome::NotTaken,
            Outcome::NotTaken => Outcome::Taken,
        }
    }

    /// Single-letter mnemonic used throughout the paper: `T` / `N`.
    #[must_use]
    pub fn letter(self) -> char {
        match self {
            Outcome::Taken => 'T',
            Outcome::NotTaken => 'N',
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Outcome::Taken => "taken",
            Outcome::NotTaken => "not-taken",
        })
    }
}

/// Architectural state of one PHT entry as observable by the attack.
///
/// These are the four states of the paper's Figure 3 FSM. On Skylake the
/// underlying counter has five internal states, but only these four are
/// architecturally meaningful (and ST/WT are indistinguishable there).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhtState {
    /// Strongly not-taken (`SN`).
    StronglyNotTaken,
    /// Weakly not-taken (`WN`).
    WeaklyNotTaken,
    /// Weakly taken (`WT`).
    WeaklyTaken,
    /// Strongly taken (`ST`).
    StronglyTaken,
}

impl PhtState {
    /// All four states in increasing taken-ness order.
    pub const ALL: [PhtState; 4] = [
        PhtState::StronglyNotTaken,
        PhtState::WeaklyNotTaken,
        PhtState::WeaklyTaken,
        PhtState::StronglyTaken,
    ];

    /// Direction this state predicts.
    ///
    /// ```
    /// use bscope_bpu::{Outcome, PhtState};
    /// assert_eq!(PhtState::WeaklyTaken.predicted(), Outcome::Taken);
    /// assert_eq!(PhtState::StronglyNotTaken.predicted(), Outcome::NotTaken);
    /// ```
    #[must_use]
    pub fn predicted(self) -> Outcome {
        match self {
            PhtState::StronglyNotTaken | PhtState::WeaklyNotTaken => Outcome::NotTaken,
            PhtState::WeaklyTaken | PhtState::StronglyTaken => Outcome::Taken,
        }
    }

    /// Whether this is one of the two strong (saturated) states.
    #[must_use]
    pub fn is_strong(self) -> bool {
        matches!(self, PhtState::StronglyNotTaken | PhtState::StronglyTaken)
    }

    /// The paper's two-letter mnemonic: `SN`, `WN`, `WT`, `ST`.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            PhtState::StronglyNotTaken => "SN",
            PhtState::WeaklyNotTaken => "WN",
            PhtState::WeaklyTaken => "WT",
            PhtState::StronglyTaken => "ST",
        }
    }
}

impl fmt::Display for PhtState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Which saturating-counter flavour a PHT uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// The textbook two-bit counter of Figure 3 (Sandy Bridge, Haswell).
    TwoBit,
    /// Skylake's asymmetric counter: the taken side has an extra internal
    /// state, so leaving `WT` toward not-taken takes two mispredictions.
    /// This reproduces Table 1 footnote 1 (`MM` instead of `MH` when probing
    /// a WT entry with two not-taken branches) and makes ST/WT
    /// architecturally indistinguishable, exactly as the paper reports.
    SkylakeAsymmetric,
}

impl CounterKind {
    /// A fresh counter of this kind in the given architectural state.
    #[must_use]
    pub fn counter_in(self, state: PhtState) -> Counter {
        let mut c = Counter::new(self);
        c.set_state(state);
        c
    }
}

/// One directional-prediction finite state machine (one PHT entry).
///
/// Internally a small saturating counter; the raw level range depends on the
/// [`CounterKind`]. Values at or above the kind's taken threshold predict
/// taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    kind: CounterKind,
    level: u8,
}

impl Counter {
    /// Creates a counter in the weakly not-taken state.
    ///
    /// ```
    /// use bscope_bpu::{Counter, CounterKind, PhtState};
    /// let c = Counter::new(CounterKind::TwoBit);
    /// assert_eq!(c.state(), PhtState::WeaklyNotTaken);
    /// ```
    #[must_use]
    pub fn new(kind: CounterKind) -> Self {
        Counter { kind, level: 1 }
    }

    /// Maximum internal level for this counter kind.
    #[must_use]
    pub fn max_level(self) -> u8 {
        match self.kind {
            CounterKind::TwoBit => 3,
            CounterKind::SkylakeAsymmetric => 4,
        }
    }

    /// Raw internal level (exposed for tests and reverse-engineering tools).
    #[must_use]
    pub fn level(self) -> u8 {
        self.level
    }

    /// Direction predicted by the current state.
    #[must_use]
    pub fn predict(self) -> Outcome {
        if self.level >= 2 {
            Outcome::Taken
        } else {
            Outcome::NotTaken
        }
    }

    /// Advances the FSM with the resolved branch outcome.
    pub fn update(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Taken => {
                if self.level < self.max_level() {
                    self.level += 1;
                }
            }
            Outcome::NotTaken => {
                self.level = self.level.saturating_sub(1);
            }
        }
    }

    /// Architectural state of the entry.
    ///
    /// For the Skylake counter both internal weak-taken levels map to
    /// [`PhtState::WeaklyTaken`]; only probing behaviour distinguishes them,
    /// and — per the paper — even probing cannot distinguish WT from ST.
    #[must_use]
    pub fn state(self) -> PhtState {
        match self.kind {
            CounterKind::TwoBit => match self.level {
                0 => PhtState::StronglyNotTaken,
                1 => PhtState::WeaklyNotTaken,
                2 => PhtState::WeaklyTaken,
                _ => PhtState::StronglyTaken,
            },
            CounterKind::SkylakeAsymmetric => match self.level {
                0 => PhtState::StronglyNotTaken,
                1 => PhtState::WeaklyNotTaken,
                2 | 3 => PhtState::WeaklyTaken,
                _ => PhtState::StronglyTaken,
            },
        }
    }

    /// Forces the entry into an architectural state.
    ///
    /// Used by priming code and by the mitigation models. For the Skylake
    /// counter, `WeaklyTaken` selects the *upper* weak-taken level — the one
    /// reached from ST by a single not-taken outcome, which is the state the
    /// attack actually encounters after the target stage.
    pub fn set_state(&mut self, state: PhtState) {
        self.level = match (self.kind, state) {
            (_, PhtState::StronglyNotTaken) => 0,
            (_, PhtState::WeaklyNotTaken) => 1,
            (CounterKind::TwoBit, PhtState::WeaklyTaken) => 2,
            (CounterKind::TwoBit, PhtState::StronglyTaken) => 3,
            (CounterKind::SkylakeAsymmetric, PhtState::WeaklyTaken) => 3,
            (CounterKind::SkylakeAsymmetric, PhtState::StronglyTaken) => 4,
        };
    }

    /// Predicts, then updates, returning whether the prediction was correct.
    ///
    /// This is the exact sequence a hardware PHT entry performs per branch
    /// and the primitive the attack's probe step observes.
    pub fn access(&mut self, outcome: Outcome) -> bool {
        let predicted = self.predict();
        self.update(outcome);
        predicted == outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn two_bit_counter_follows_figure_3() {
        let mut c = Counter::new(CounterKind::TwoBit);
        c.set_state(PhtState::StronglyNotTaken);
        // SN -T-> WN -T-> WT -T-> ST -T-> ST (saturates)
        c.update(Outcome::Taken);
        assert_eq!(c.state(), PhtState::WeaklyNotTaken);
        c.update(Outcome::Taken);
        assert_eq!(c.state(), PhtState::WeaklyTaken);
        c.update(Outcome::Taken);
        assert_eq!(c.state(), PhtState::StronglyTaken);
        c.update(Outcome::Taken);
        assert_eq!(c.state(), PhtState::StronglyTaken);
        // ST -N-> WT -N-> WN -N-> SN -N-> SN (saturates)
        c.update(Outcome::NotTaken);
        assert_eq!(c.state(), PhtState::WeaklyTaken);
        c.update(Outcome::NotTaken);
        assert_eq!(c.state(), PhtState::WeaklyNotTaken);
        c.update(Outcome::NotTaken);
        assert_eq!(c.state(), PhtState::StronglyNotTaken);
        c.update(Outcome::NotTaken);
        assert_eq!(c.state(), PhtState::StronglyNotTaken);
    }

    /// `update` against the FSM written out as a table: every level of
    /// both counter kinds under both outcomes, saturation at zero and at
    /// the top level included.
    #[test]
    fn update_matches_the_transition_table() {
        // (kind, next level after taken, next level after not-taken), each
        // indexed by the current level.
        let tables: [(CounterKind, &[u8], &[u8]); 2] = [
            (CounterKind::TwoBit, &[1, 2, 3, 3], &[0, 0, 1, 2]),
            (CounterKind::SkylakeAsymmetric, &[1, 2, 3, 4, 4], &[0, 0, 1, 2, 3]),
        ];
        for (kind, taken, not_taken) in tables {
            assert_eq!(taken.len(), usize::from(Counter::new(kind).max_level()) + 1);
            for (level, (&up, &down)) in (0u8..).zip(taken.iter().zip(not_taken)) {
                for (outcome, want) in [(Outcome::Taken, up), (Outcome::NotTaken, down)] {
                    let mut c = Counter { kind, level };
                    c.update(outcome);
                    assert_eq!(c.level(), want, "{kind:?} level {level}, {outcome}");
                }
            }
        }
    }

    #[test]
    fn weak_states_predict_their_side() {
        for kind in [CounterKind::TwoBit, CounterKind::SkylakeAsymmetric] {
            for state in PhtState::ALL {
                let c = kind.counter_in(state);
                assert_eq!(c.predict(), state.predicted(), "{kind:?} {state}");
            }
        }
    }

    /// Table 1, row "TTT | ST | N | WT | NN": Haswell/Sandy Bridge observe
    /// MH, Skylake observes MM (footnote 1).
    #[test]
    fn skylake_wt_probed_nn_gives_two_mispredictions() {
        // Prime strongly taken, then one not-taken target stage.
        let mut sky = CounterKind::SkylakeAsymmetric.counter_in(PhtState::StronglyTaken);
        sky.update(Outcome::NotTaken);
        assert_eq!(sky.state(), PhtState::WeaklyTaken);
        let first_correct = sky.access(Outcome::NotTaken);
        let second_correct = sky.access(Outcome::NotTaken);
        assert!(!first_correct, "first probe must mispredict on Skylake");
        assert!(!second_correct, "second probe must mispredict on Skylake");

        let mut hsw = CounterKind::TwoBit.counter_in(PhtState::StronglyTaken);
        hsw.update(Outcome::NotTaken);
        let first_correct = hsw.access(Outcome::NotTaken);
        let second_correct = hsw.access(Outcome::NotTaken);
        assert!(!first_correct, "first probe must mispredict on Haswell");
        assert!(second_correct, "second probe must hit on Haswell");
    }

    /// On Skylake, ST and WT produce identical probe observations, which the
    /// paper reports as the two states being indistinguishable.
    #[test]
    fn skylake_st_and_wt_indistinguishable() {
        for probe in [Outcome::Taken, Outcome::NotTaken] {
            let mut from_st = CounterKind::SkylakeAsymmetric.counter_in(PhtState::StronglyTaken);
            let mut from_wt = CounterKind::SkylakeAsymmetric.counter_in(PhtState::WeaklyTaken);
            let st_obs = (from_st.access(probe), from_st.access(probe));
            let wt_obs = (from_wt.access(probe), from_wt.access(probe));
            assert_eq!(st_obs, wt_obs, "probe {probe}");
        }
    }

    #[test]
    fn outcome_helpers_round_trip() {
        assert_eq!(Outcome::from_bool(true), Outcome::Taken);
        assert_eq!(Outcome::from_bool(false), Outcome::NotTaken);
        assert_eq!(Outcome::Taken.flipped().flipped(), Outcome::Taken);
        assert_eq!(Outcome::Taken.letter(), 'T');
        assert_eq!(Outcome::NotTaken.letter(), 'N');
        assert_eq!(Outcome::Taken.to_string(), "taken");
    }

    #[test]
    fn set_state_round_trips_architectural_state() {
        for kind in [CounterKind::TwoBit, CounterKind::SkylakeAsymmetric] {
            for state in PhtState::ALL {
                assert_eq!(kind.counter_in(state).state(), state);
            }
        }
    }

    #[test]
    fn display_mnemonics() {
        assert_eq!(PhtState::StronglyTaken.to_string(), "ST");
        assert_eq!(PhtState::WeaklyNotTaken.to_string(), "WN");
    }

    proptest! {
        /// The counter level never leaves its legal range whatever the
        /// outcome sequence.
        #[test]
        fn counter_level_stays_in_range(
            kind_sky in any::<bool>(),
            outcomes in proptest::collection::vec(any::<bool>(), 0..256),
        ) {
            let kind = if kind_sky { CounterKind::SkylakeAsymmetric } else { CounterKind::TwoBit };
            let mut c = Counter::new(kind);
            for o in outcomes {
                c.update(Outcome::from_bool(o));
                prop_assert!(c.level() <= c.max_level());
            }
        }

        /// Saturation: enough identical outcomes always reach the matching
        /// strong state, from any starting state.
        #[test]
        fn saturation_reaches_strong_state(
            kind_sky in any::<bool>(),
            start in 0usize..4,
            taken in any::<bool>(),
        ) {
            let kind = if kind_sky { CounterKind::SkylakeAsymmetric } else { CounterKind::TwoBit };
            let mut c = kind.counter_in(PhtState::ALL[start]);
            let outcome = Outcome::from_bool(taken);
            for _ in 0..5 {
                c.update(outcome);
            }
            let want = if taken { PhtState::StronglyTaken } else { PhtState::StronglyNotTaken };
            prop_assert_eq!(c.state(), want);
        }

        /// A strong state survives exactly one opposite outcome and still
        /// predicts its side — the hysteresis the attack's prime step relies
        /// on.
        #[test]
        fn strong_state_survives_one_flip(kind_sky in any::<bool>(), taken in any::<bool>()) {
            let kind = if kind_sky { CounterKind::SkylakeAsymmetric } else { CounterKind::TwoBit };
            let strong = if taken { PhtState::StronglyTaken } else { PhtState::StronglyNotTaken };
            let mut c = kind.counter_in(strong);
            let flip = Outcome::from_bool(!taken);
            c.update(flip);
            prop_assert_eq!(c.predict(), Outcome::from_bool(taken));
        }
    }
}
