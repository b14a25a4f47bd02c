//! BranchScope vs. BTB-based baselines, with and without a BTB defense.

use crate::btb_timing::{BtbSignal, BtbTimingAttack};
use bscope_bpu::{MicroarchProfile, Outcome};
use bscope_core::{AttackConfig, BranchScope, Confusion};
use bscope_os::{AslrPolicy, Pid, System};
use bscope_uarch::Tracer;
use bscope_victims::VICTIM_BRANCH_OFFSET;
use std::fmt;

/// One attack of the comparison: BranchScope, or a prior attack reading
/// the BTB ([`BtbTimingAttack`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attack {
    /// BranchScope, reading the directional PHT.
    BranchScope,
    /// A BTB-timing baseline reading the given signal.
    Btb(BtbSignal),
}

impl Attack {
    /// Every attack with its name and the predictor structure it reads, in
    /// the comparison's row order.
    pub const ALL: [(Attack, &'static str, &'static str); 3] = [
        (Attack::BranchScope, "BranchScope", "directional PHT"),
        (Attack::Btb(BtbSignal::Shadowing), "branch shadowing", "BTB presence"),
        (Attack::Btb(BtbSignal::Eviction), "BTB eviction", "BTB eviction"),
    ];

    /// Reads every bit of `secret` on a fresh machine seeded with `seed`,
    /// with `tracer` on its core, and scores the reads against it.
    /// Each read triggers the victim's secret branch once per round, between
    /// two BTB flushes when `flush_btb` is set (the OS defense deployed
    /// against the prior BTB attacks). A fresh machine per attack keeps one
    /// attack's residue out of another's calibration.
    ///
    /// # Panics
    ///
    /// Panics if `secret` is empty: there would be nothing to score.
    #[must_use]
    pub fn score(
        self,
        profile: &MicroarchProfile,
        secret: &[Outcome],
        flush_btb: bool,
        seed: u64,
        tracer: &mut Tracer,
    ) -> Confusion {
        assert!(!secret.is_empty(), "comparing attacks needs at least one secret bit");
        let mut sys = System::new(profile.clone(), seed);
        let victim = sys.spawn("victim", AslrPolicy::Disabled);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let target = sys.process(victim).vaddr_of(VICTIM_BRANCH_OFFSET);
        sys.with_tracer(tracer, |sys| match self {
            Attack::BranchScope => {
                let mut bscope =
                    BranchScope::new(AttackConfig::for_profile(profile)).expect("valid config");
                score(sys, victim, secret, flush_btb, |sys, trigger| {
                    bscope.read_bit(sys, spy, target, trigger)
                })
            }
            Attack::Btb(signal) => {
                let rounds = if signal == BtbSignal::Shadowing { 81 } else { 41 };
                let mut attack = BtbTimingAttack::new(signal, target);
                attack.calibrate(sys, spy, 60);
                score(sys, victim, secret, flush_btb, |sys, trigger| {
                    attack.read_bit(sys, spy, rounds, trigger)
                })
            }
        })
    }
}

/// One attack's reads with and without the BTB defense.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Attack name.
    pub attack: &'static str,
    /// Which predictor structure the attack reads.
    pub channel: &'static str,
    /// Secret × read bits on the unprotected machine.
    pub unprotected: Confusion,
    /// Secret × read bits with the BTB flushed on every context switch (a
    /// representative defense against the prior BTB attacks).
    pub btb_defended: Confusion,
}

impl ComparisonRow {
    /// The rows of the full comparison (paper §11, and §1's claim that
    /// "BranchScope is not affected by defenses against BTB-based
    /// attacks") from [`Attack::score`] tables in [`Attack::ALL`] order,
    /// each attack unprotected and then BTB-defended.
    #[must_use]
    pub fn from_scores(scores: &[Confusion]) -> Vec<Self> {
        let rows = Attack::ALL.iter().zip(scores.chunks(2)).map(|(&(_, attack, channel), s)| {
            ComparisonRow { attack, channel, unprotected: s[0], btb_defended: s[1] }
        });
        rows.collect()
    }
}

impl fmt::Display for ComparisonRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<18} ({:<22}) unprotected {:>5.1}%   BTB-defended {:>5.1}%",
            self.attack,
            self.channel,
            100.0 * self.unprotected.accuracy(),
            100.0 * self.btb_defended.accuracy(),
        )
    }
}

/// Reads every bit of `secret` with one attack's `read_bit` and scores
/// the reads. The trigger handed to `read_bit` is the victim's secret
/// branch, between two BTB flushes when `flush_btb` is set.
fn score(
    sys: &mut System,
    victim: Pid,
    secret: &[Outcome],
    flush_btb: bool,
    mut read_bit: impl FnMut(&mut System, &mut dyn FnMut(&mut System)) -> Outcome,
) -> Confusion {
    secret
        .iter()
        .map(|&s| {
            let mut trigger = |sys: &mut System| {
                if flush_btb {
                    sys.core_mut().bpu_mut().btb_mut().clear();
                }
                sys.cpu(victim).branch_at(VICTIM_BRANCH_OFFSET, s);
                if flush_btb {
                    sys.core_mut().bpu_mut().btb_mut().clear();
                }
            };
            (s.is_taken(), read_bit(sys, &mut trigger).is_taken())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every attack's reads of one random `bits`-bit secret on Haswell,
    /// unprotected and then BTB-defended, as rows.
    fn compare(bits: usize, seed: u64) -> Vec<ComparisonRow> {
        let mut rng = StdRng::seed_from_u64(seed);
        let secret: Vec<Outcome> = (0..bits).map(|_| Outcome::from_bool(rng.gen())).collect();
        let scores: Vec<Confusion> = (0..6)
            .map(|i| {
                let seed = seed ^ [1, 2][i % 2] ^ [0, 0x10, 0x20][i / 2];
                let (attack, haswell) = (Attack::ALL[i / 2].0, MicroarchProfile::haswell());
                attack.score(&haswell, &secret, i % 2 == 1, seed, &mut Tracer::disabled())
            })
            .collect();
        ComparisonRow::from_scores(&scores)
    }

    #[test]
    fn branchscope_survives_btb_defense_baselines_die() {
        let cmp = compare(120, 0xC0DE);
        let by_name = |name: &str| cmp.iter().find(|r| r.attack == name).unwrap();

        let bscope = by_name("BranchScope");
        assert!(bscope.unprotected.accuracy() > 0.95, "{bscope}");
        assert!(bscope.btb_defended.accuracy() > 0.95, "BranchScope must survive: {bscope}");

        for name in ["branch shadowing", "BTB eviction"] {
            let row = by_name(name);
            assert!(row.unprotected.accuracy() > 0.85, "{row}");
            assert!(row.btb_defended.accuracy() < 0.70, "defense must kill {row}");
            assert!(!row.btb_defended.leaks(), "defense must kill {row}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one secret bit")]
    fn comparing_zero_bits_panics() {
        let haswell = MicroarchProfile::haswell();
        let _ = Attack::BranchScope.score(&haswell, &[], false, 1, &mut Tracer::disabled());
    }

    #[test]
    fn comparison_renders() {
        let rows = compare(20, 1);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].to_string().contains("BranchScope"));
    }
}
