//! FSM dictionaries: Table 1, direction decoding and PHT state decoding.

use crate::error::AttackError;
use crate::probe::{ProbeKind, ProbePattern};
use bscope_bpu::{Counter, CounterKind, Outcome, PhtState};
use std::fmt;

/// Simulates one probe pair on a counter, returning the observed pattern
/// and leaving the counter in its post-probe state.
pub(crate) fn run_probe(counter: &mut Counter, probe: ProbeKind) -> ProbePattern {
    let first = counter.access(probe.outcome());
    let second = counter.access(probe.outcome());
    ProbePattern::from_hits(first, second)
}

/// One row of the paper's Table 1: a prime / target / probe experiment on a
/// single PHT entry and the resulting observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table1Row {
    /// Direction the three prime branches execute with.
    pub prime: Outcome,
    /// FSM state after the prime stage.
    pub state_after_prime: PhtState,
    /// Direction of the single target-stage branch (the victim's).
    pub target: Outcome,
    /// FSM state after the target stage.
    pub state_after_target: PhtState,
    /// Probe direction pair.
    pub probe: ProbeKind,
    /// Observed prediction pattern of the two probing branches.
    pub observation: ProbePattern,
}

impl fmt::Display for Table1Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = self.prime.letter();
        let t = self.target.letter();
        write!(
            f,
            "{p}{p}{p} | {:>2} | {t} | {:>2} | {}{} | {}",
            self.state_after_prime,
            self.state_after_target,
            self.probe.outcome().letter(),
            self.probe.outcome().letter(),
            self.observation,
        )
    }
}

/// Computes one Table 1 row by driving a fresh counter FSM through the
/// paper's three stages: three prime executions, one target execution, two
/// probe executions.
#[must_use]
pub fn fsm_transition_row(
    kind: CounterKind,
    prime: Outcome,
    target: Outcome,
    probe: ProbeKind,
) -> Table1Row {
    let mut c = Counter::new(kind);
    for _ in 0..3 {
        c.update(prime);
    }
    let state_after_prime = c.state();
    c.update(target);
    let state_after_target = c.state();
    let observation = run_probe(&mut c, probe);
    Table1Row { prime, state_after_prime, target, state_after_target, probe, observation }
}

/// All eight rows of Table 1 in the paper's order (prime TTT first, probe
/// TT before NN within each target direction).
#[must_use]
pub fn table1(kind: CounterKind) -> Vec<Table1Row> {
    let mut rows = Vec::with_capacity(8);
    for prime in [Outcome::Taken, Outcome::NotTaken] {
        for target in [Outcome::Taken, Outcome::NotTaken] {
            for probe in [ProbeKind::TakenTaken, ProbeKind::NotTakenNotTaken] {
                rows.push(fsm_transition_row(kind, prime, target, probe));
            }
        }
    }
    rows
}

/// The spy's decoding dictionary: maps an observed probe pattern to the
/// victim's branch direction, for a given primed state and probe kind.
///
/// The two *expected* patterns come from simulating the FSM (Table 1); the
/// two remaining patterns — "rarely observed misprediction patterns" the
/// paper adds "in order to include all four possible combinations" (§7,
/// Fig. 6) — are assigned by the observation position that actually
/// discriminates the two expected patterns. For the canonical SN-primed,
/// TT-probed configuration this yields the familiar dictionary
/// `MM, HM → not-taken; MH, HH → taken`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectionDict {
    primed: PhtState,
    probe: ProbeKind,
    expected_taken: ProbePattern,
    expected_not_taken: ProbePattern,
    map: [Outcome; 4],
}

impl DirectionDict {
    /// Builds the dictionary for an entry primed to `primed` and probed
    /// with `probe` on a counter of the given kind.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::AmbiguousConfiguration`] when both victim
    /// directions produce the same observation — probing in the primed
    /// direction always does, and on Skylake so does priming ST and probing
    /// NN (the ST/WT indistinguishability of Table 1, footnote 1).
    pub fn build(
        kind: CounterKind,
        primed: PhtState,
        probe: ProbeKind,
    ) -> Result<Self, AttackError> {
        let pattern_after = |victim: Outcome| {
            let mut c = kind.counter_in(primed);
            c.update(victim);
            run_probe(&mut c, probe)
        };
        let expected_taken = pattern_after(Outcome::Taken);
        let expected_not_taken = pattern_after(Outcome::NotTaken);
        if expected_taken == expected_not_taken {
            return Err(AttackError::AmbiguousConfiguration { primed, probe: probe.outcome() });
        }
        // Pick the discriminating observation position; prefer the second,
        // which §8 shows is also the reliable one for timing measurements.
        let use_second = expected_taken.second_hit() != expected_not_taken.second_hit();
        let classify = |p: ProbePattern| {
            let flag = if use_second { p.second_hit() } else { p.first_hit() };
            let taken_flag =
                if use_second { expected_taken.second_hit() } else { expected_taken.first_hit() };
            if flag == taken_flag {
                Outcome::Taken
            } else {
                Outcome::NotTaken
            }
        };
        let mut map = [Outcome::Taken; 4];
        for (i, p) in ProbePattern::ALL.into_iter().enumerate() {
            map[i] = classify(p);
        }
        Ok(DirectionDict { primed, probe, expected_taken, expected_not_taken, map })
    }

    /// State the attack primes the entry into.
    #[must_use]
    pub fn primed(&self) -> PhtState {
        self.primed
    }

    /// Probe kind this dictionary decodes.
    #[must_use]
    pub fn probe(&self) -> ProbeKind {
        self.probe
    }

    /// The pattern expected when the victim's branch was `victim`.
    #[must_use]
    pub fn expected(&self, victim: Outcome) -> ProbePattern {
        match victim {
            Outcome::Taken => self.expected_taken,
            Outcome::NotTaken => self.expected_not_taken,
        }
    }

    /// Decodes an observed pattern into the inferred victim direction.
    #[must_use]
    pub fn decode(&self, pattern: ProbePattern) -> Outcome {
        let idx = ProbePattern::ALL.iter().position(|&p| p == pattern).expect("pattern in ALL");
        self.map[idx]
    }
}

/// A PHT state as decoded from the two probing variants (§6.2, Fig. 4b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodedState {
    /// The observations match a specific FSM state.
    Known(PhtState),
    /// Both probing variants predicted perfectly (`HH`/`HH`): the
    /// randomization had no effect and the 2-level predictor is covering
    /// this branch — the paper's "dirty" case.
    Dirty,
    /// Observations match no state and are not the dirty signature —
    /// unstable/noisy measurements the paper drops from its statistics.
    Unknown,
}

impl fmt::Display for DecodedState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodedState::Known(s) => write!(f, "{s}"),
            DecodedState::Dirty => f.write_str("dirty"),
            DecodedState::Unknown => f.write_str("unknown"),
        }
    }
}

/// Decodes a PHT entry state from the dominant patterns of the TT-probing
/// and NN-probing experiment variants (the paper's "dictionary that
/// translates the prediction outcomes of the probing code to the PHT
/// state", §6.3).
///
/// On Skylake, `StronglyTaken` and `WeaklyTaken` produce identical
/// signatures; the shared signature decodes as `StronglyTaken` by
/// convention.
#[must_use]
pub fn decode_state(kind: CounterKind, tt: ProbePattern, nn: ProbePattern) -> DecodedState {
    if tt == ProbePattern::HH && nn == ProbePattern::HH {
        return DecodedState::Dirty;
    }
    // Match against each state's simulated signature, strongest first so
    // the merged Skylake taken states decode as ST.
    for state in [
        PhtState::StronglyTaken,
        PhtState::WeaklyTaken,
        PhtState::WeaklyNotTaken,
        PhtState::StronglyNotTaken,
    ] {
        let sig_tt = run_probe(&mut kind.counter_in(state), ProbeKind::TakenTaken);
        let sig_nn = run_probe(&mut kind.counter_in(state), ProbeKind::NotTakenNotTaken);
        if (tt, nn) == (sig_tt, sig_nn) {
            return DecodedState::Known(state);
        }
    }
    DecodedState::Unknown
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact contents of the paper's Table 1 for the textbook counter
    /// (Haswell / Sandy Bridge column).
    #[test]
    fn table1_matches_paper_two_bit() {
        use Outcome::{NotTaken as N, Taken as T};
        use ProbePattern as P;
        let rows = table1(CounterKind::TwoBit);
        let want: [(Outcome, PhtState, Outcome, PhtState, ProbeKind, ProbePattern); 8] = [
            (T, PhtState::StronglyTaken, T, PhtState::StronglyTaken, ProbeKind::TakenTaken, P::HH),
            (T, PhtState::StronglyTaken, T, PhtState::StronglyTaken, ProbeKind::NotTakenNotTaken, P::MM),
            (T, PhtState::StronglyTaken, N, PhtState::WeaklyTaken, ProbeKind::TakenTaken, P::HH),
            (T, PhtState::StronglyTaken, N, PhtState::WeaklyTaken, ProbeKind::NotTakenNotTaken, P::MH),
            (N, PhtState::StronglyNotTaken, T, PhtState::WeaklyNotTaken, ProbeKind::TakenTaken, P::MH),
            (N, PhtState::StronglyNotTaken, T, PhtState::WeaklyNotTaken, ProbeKind::NotTakenNotTaken, P::HH),
            (N, PhtState::StronglyNotTaken, N, PhtState::StronglyNotTaken, ProbeKind::TakenTaken, P::MM),
            (N, PhtState::StronglyNotTaken, N, PhtState::StronglyNotTaken, ProbeKind::NotTakenNotTaken, P::HH),
        ];
        assert_eq!(rows.len(), 8);
        for (row, (prime, sp, target, st, probe, obs)) in rows.iter().zip(want) {
            assert_eq!(row.prime, prime);
            assert_eq!(row.state_after_prime, sp, "{row}");
            assert_eq!(row.target, target);
            assert_eq!(row.state_after_target, st, "{row}");
            assert_eq!(row.probe, probe);
            assert_eq!(row.observation, obs, "{row}");
        }
    }

    /// Footnote 1: on Skylake the `TTT | ST | N | WT | NN` row observes MM
    /// instead of MH; all other rows match the textbook column.
    #[test]
    fn table1_skylake_footnote() {
        let two_bit = table1(CounterKind::TwoBit);
        let skylake = table1(CounterKind::SkylakeAsymmetric);
        for (a, b) in two_bit.iter().zip(&skylake) {
            let is_footnote_row = a.prime == Outcome::Taken
                && a.target == Outcome::NotTaken
                && a.probe == ProbeKind::NotTakenNotTaken;
            if is_footnote_row {
                assert_eq!(a.observation, ProbePattern::MH, "Haswell/SB observe MH");
                assert_eq!(b.observation, ProbePattern::MM, "Skylake observes MM");
            } else {
                assert_eq!(a.observation, b.observation, "row {a} differs");
            }
        }
    }

    #[test]
    fn canonical_dictionary_matches_figure_6() {
        // SN-primed, TT-probed: victim taken → MH, not-taken → MM; the
        // extended dictionary groups by the second observation:
        // {MH, HH} → taken, {MM, HM} → not-taken.
        let d =
            DirectionDict::build(CounterKind::TwoBit, PhtState::StronglyNotTaken, ProbeKind::TakenTaken)
                .unwrap();
        assert_eq!(d.expected(Outcome::Taken), ProbePattern::MH);
        assert_eq!(d.expected(Outcome::NotTaken), ProbePattern::MM);
        assert_eq!(d.decode(ProbePattern::MH), Outcome::Taken);
        assert_eq!(d.decode(ProbePattern::HH), Outcome::Taken);
        assert_eq!(d.decode(ProbePattern::MM), Outcome::NotTaken);
        assert_eq!(d.decode(ProbePattern::HM), Outcome::NotTaken);
    }

    #[test]
    fn st_primed_nn_probe_works_on_two_bit_only() {
        // Haswell / Sandy Bridge: prime ST, probe NN distinguishes (MM vs
        // MH). Skylake: ambiguous (footnote 1) — build must refuse.
        let ok = DirectionDict::build(
            CounterKind::TwoBit,
            PhtState::StronglyTaken,
            ProbeKind::NotTakenNotTaken,
        )
        .unwrap();
        assert_eq!(ok.expected(Outcome::Taken), ProbePattern::MM);
        assert_eq!(ok.expected(Outcome::NotTaken), ProbePattern::MH);
        let err = DirectionDict::build(
            CounterKind::SkylakeAsymmetric,
            PhtState::StronglyTaken,
            ProbeKind::NotTakenNotTaken,
        );
        assert!(matches!(err, Err(AttackError::AmbiguousConfiguration { .. })));
    }

    #[test]
    fn probing_in_primed_direction_is_always_ambiguous() {
        for kind in [CounterKind::TwoBit, CounterKind::SkylakeAsymmetric] {
            assert!(DirectionDict::build(kind, PhtState::StronglyTaken, ProbeKind::TakenTaken)
                .is_err());
            assert!(DirectionDict::build(
                kind,
                PhtState::StronglyNotTaken,
                ProbeKind::NotTakenNotTaken
            )
            .is_err());
        }
    }

    #[test]
    fn skylake_canonical_dictionary_still_works() {
        // The paper's workaround: "the attacker can always pick a PHT
        // randomization code that places the target PHT entry into a state
        // without such ambiguity" — SN priming with TT probing.
        let d = DirectionDict::build(
            CounterKind::SkylakeAsymmetric,
            PhtState::StronglyNotTaken,
            ProbeKind::TakenTaken,
        )
        .unwrap();
        assert_eq!(d.decode(d.expected(Outcome::Taken)), Outcome::Taken);
        assert_eq!(d.decode(d.expected(Outcome::NotTaken)), Outcome::NotTaken);
    }

    #[test]
    fn state_decoding_identifies_all_two_bit_states() {
        use ProbePattern as P;
        let k = CounterKind::TwoBit;
        assert_eq!(decode_state(k, P::HH, P::MM), DecodedState::Known(PhtState::StronglyTaken));
        assert_eq!(decode_state(k, P::HH, P::MH), DecodedState::Known(PhtState::WeaklyTaken));
        assert_eq!(decode_state(k, P::MH, P::HH), DecodedState::Known(PhtState::WeaklyNotTaken));
        assert_eq!(decode_state(k, P::MM, P::HH), DecodedState::Known(PhtState::StronglyNotTaken));
        assert_eq!(decode_state(k, P::HH, P::HH), DecodedState::Dirty);
        assert_eq!(decode_state(k, P::HM, P::HM), DecodedState::Unknown);
    }

    #[test]
    fn skylake_taken_states_merge_to_st() {
        // ST and WT share a signature on Skylake; the decoder reports ST.
        let k = CounterKind::SkylakeAsymmetric;
        assert_eq!(
            decode_state(k, ProbePattern::HH, ProbePattern::MM),
            DecodedState::Known(PhtState::StronglyTaken)
        );
        // And no observation pair decodes to WT.
        for tt in ProbePattern::ALL {
            for nn in ProbePattern::ALL {
                assert_ne!(
                    decode_state(k, tt, nn),
                    DecodedState::Known(PhtState::WeaklyTaken),
                    "({tt},{nn})"
                );
            }
        }
    }

    #[test]
    fn row_display_matches_paper_layout() {
        let row = fsm_transition_row(
            CounterKind::TwoBit,
            Outcome::Taken,
            Outcome::NotTaken,
            ProbeKind::NotTakenNotTaken,
        );
        assert_eq!(row.to_string(), "TTT | ST | N | WT | NN | MH");
    }

    #[test]
    fn decoded_state_displays() {
        assert_eq!(DecodedState::Known(PhtState::StronglyTaken).to_string(), "ST");
        assert_eq!(DecodedState::Dirty.to_string(), "dirty");
        assert_eq!(DecodedState::Unknown.to_string(), "unknown");
    }
}
