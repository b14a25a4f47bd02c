//! BranchScope vs. BTB-based baselines, with and without a BTB defense.

use crate::btb_timing::{BtbSignal, BtbTimingAttack};
use bscope_bpu::{MicroarchProfile, Outcome};
use bscope_core::{AttackConfig, BranchScope};
use bscope_os::{AslrPolicy, Pid, System};
use bscope_victims::VICTIM_BRANCH_OFFSET;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// One attack's accuracy with and without the BTB defense.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Attack name.
    pub attack: &'static str,
    /// Which predictor structure the attack reads.
    pub channel: &'static str,
    /// Bit-recovery accuracy on the unprotected machine.
    pub accuracy_unprotected: f64,
    /// Bit-recovery accuracy with the BTB flushed on every context switch
    /// (a representative defense against the prior BTB attacks).
    pub accuracy_btb_defended: f64,
}

impl ComparisonRow {
    /// Whether the defense reduced this attack to guessing.
    #[must_use]
    pub fn defense_kills_attack(&self) -> bool {
        self.accuracy_btb_defended < 0.65 && self.accuracy_unprotected > 0.85
    }
}

impl fmt::Display for ComparisonRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<18} ({:<22}) unprotected {:>5.1}%   BTB-defended {:>5.1}%",
            self.attack,
            self.channel,
            100.0 * self.accuracy_unprotected,
            100.0 * self.accuracy_btb_defended,
        )
    }
}

/// The full comparison (paper §11 + the §1 claim that "BranchScope is not
/// affected by defenses against BTB-based attacks").
#[derive(Debug, Clone, PartialEq)]
pub struct AttackComparison {
    /// One row per attack.
    pub rows: Vec<ComparisonRow>,
}

impl fmt::Display for AttackComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in &self.rows {
            writeln!(f, "{row}")?;
        }
        Ok(())
    }
}

/// Reads every bit of `secret` with one attack's `read_bit` and returns
/// the fraction read correctly. The trigger handed to `read_bit` is the
/// victim's secret branch, between two BTB flushes when `flush_btb` is set.
fn accuracy(
    sys: &mut System,
    victim: Pid,
    secret: &[Outcome],
    flush_btb: bool,
    mut read_bit: impl FnMut(&mut System, &mut dyn FnMut(&mut System)) -> Outcome,
) -> f64 {
    let correct = secret
        .iter()
        .filter(|&&s| {
            let mut trigger = |sys: &mut System| {
                if flush_btb {
                    sys.core_mut().bpu_mut().btb_mut().clear();
                }
                sys.cpu(victim).branch_at(VICTIM_BRANCH_OFFSET, s);
                if flush_btb {
                    sys.core_mut().bpu_mut().btb_mut().clear();
                }
            };
            read_bit(sys, &mut trigger) == s
        })
        .count();
    correct as f64 / secret.len() as f64
}

/// Runs BranchScope, branch shadowing and the BTB eviction attack against
/// the same secret-branch victim, first on the unprotected machine and then
/// with the OS flushing the BTB at every victim↔spy switch (the defense
/// deployed against the prior BTB attacks — cache-style protection the
/// paper notes is applicable to the BTB but not to the directional
/// predictor).
#[must_use]
pub fn compare_attacks(profile: &MicroarchProfile, bits: usize, seed: u64) -> AttackComparison {
    let mut rows = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let secret: Vec<Outcome> = (0..bits).map(|_| Outcome::from_bool(rng.gen())).collect();

    // Each attack measures on a fresh machine so residue from one attack
    // cannot contaminate another's calibration.
    let fresh = |seed: u64| -> (System, Pid, Pid, u64) {
        let mut sys = System::new(profile.clone(), seed);
        let victim = sys.spawn("victim", AslrPolicy::Disabled);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let target = sys.process(victim).vaddr_of(VICTIM_BRANCH_OFFSET);
        (sys, victim, spy, target)
    };

    let run = |flush_btb: bool, seed: u64| -> (f64, f64, f64) {
        let (mut sys, victim, spy, target) = fresh(seed);
        let mut bscope =
            BranchScope::new(AttackConfig::for_profile(profile)).expect("valid config");
        let bscope_acc = accuracy(&mut sys, victim, &secret, flush_btb, |sys, trigger| {
            bscope.read_bit(sys, spy, target, trigger)
        });

        let btb = |signal, salt, rounds| {
            let (mut sys, victim, spy, target) = fresh(seed ^ salt);
            let mut attack = BtbTimingAttack::new(signal, target);
            attack.calibrate(&mut sys, spy, 60);
            accuracy(&mut sys, victim, &secret, flush_btb, |sys, trigger| {
                attack.read_bit(sys, spy, rounds, trigger)
            })
        };
        (bscope_acc, btb(BtbSignal::Shadowing, 0x10, 81), btb(BtbSignal::Eviction, 0x20, 41))
    };

    let (bs_open, sh_open, ev_open) = run(false, seed ^ 1);
    let (bs_def, sh_def, ev_def) = run(true, seed ^ 2);

    rows.push(ComparisonRow {
        attack: "BranchScope",
        channel: "directional PHT",
        accuracy_unprotected: bs_open,
        accuracy_btb_defended: bs_def,
    });
    rows.push(ComparisonRow {
        attack: "branch shadowing",
        channel: "BTB presence",
        accuracy_unprotected: sh_open,
        accuracy_btb_defended: sh_def,
    });
    rows.push(ComparisonRow {
        attack: "BTB eviction",
        channel: "BTB eviction",
        accuracy_unprotected: ev_open,
        accuracy_btb_defended: ev_def,
    });
    AttackComparison { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branchscope_survives_btb_defense_baselines_die() {
        let cmp = compare_attacks(&MicroarchProfile::haswell(), 120, 0xC0DE);
        let by_name = |name: &str| cmp.rows.iter().find(|r| r.attack == name).unwrap();

        let bscope = by_name("BranchScope");
        assert!(bscope.accuracy_unprotected > 0.95, "{bscope}");
        assert!(bscope.accuracy_btb_defended > 0.95, "BranchScope must survive: {bscope}");

        for name in ["branch shadowing", "BTB eviction"] {
            let row = by_name(name);
            assert!(row.accuracy_unprotected > 0.85, "{row}");
            assert!(row.accuracy_btb_defended < 0.70, "defense must kill {row}");
        }
    }

    #[test]
    fn comparison_renders() {
        let cmp = compare_attacks(&MicroarchProfile::haswell(), 20, 1);
        let text = cmp.to_string();
        assert!(text.contains("BranchScope"));
        assert!(text.lines().count() >= 3);
    }
}
