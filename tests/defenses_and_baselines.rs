//! Integration tests for §10 defenses and §11 baseline comparisons through
//! the façade crate.

use branchscope::attack::Confusion;
use branchscope::baselines::{Attack, ComparisonRow};
use branchscope::bpu::{MicroarchProfile, Outcome};
use branchscope::mitigations::{evaluate, EvalReport, Mitigation};
use branchscope::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn eval(m: Mitigation) -> EvalReport {
    evaluate(&m, &MicroarchProfile::skylake(), 300, 0xD00D, &mut Tracer::disabled())
}

/// Asserts that the spy's reads carry no detectable information.
fn assert_blocks(report: &EvalReport) {
    let c = &report.confusion;
    assert!(!c.leaks(), "{report} (G {:.1}, {:?})", c.g_statistic(), c.counts);
}

#[test]
fn every_hardware_defense_defeats_the_attack() {
    assert!(eval(Mitigation::None).confusion.leaks(), "baseline must work");
    for m in [
        Mitigation::RandomizedPht { rekey_interval: None },
        Mitigation::RandomizedPht { rekey_interval: Some(5_000) },
        Mitigation::PartitionedBpu { partitions: 2 },
        Mitigation::PartitionedBpu { partitions: 8 },
        Mitigation::NoPredictSensitive,
    ] {
        assert_blocks(&eval(m));
    }
}

#[test]
fn software_defense_and_fuzzing_degrade_the_attack() {
    assert_blocks(&eval(Mitigation::IfConversion));
    let fuzz = eval(Mitigation::NoisyMeasurements);
    assert!(fuzz.confusion.error_rate() > 0.15, "{fuzz}");
}

#[test]
fn defenses_hold_on_every_paper_machine() {
    for profile in MicroarchProfile::paper_machines() {
        let tracer = &mut Tracer::disabled();
        let baseline = evaluate(&Mitigation::None, &profile, 200, 0xF00, tracer);
        let randomized = Mitigation::RandomizedPht { rekey_interval: None };
        let defended = evaluate(&randomized, &profile, 200, 0xF00, tracer);
        assert!(baseline.confusion.error_rate() < 0.05, "{}: baseline {}", profile.arch, baseline);
        assert_blocks(&defended);
    }
}

#[test]
fn branchscope_beats_btb_defenses_that_stop_prior_attacks() {
    let mut rng = StdRng::seed_from_u64(0xFACE);
    let secret: Vec<Outcome> = (0..100).map(|_| Outcome::from_bool(rng.gen())).collect();
    // Each attack unprotected, then with the BTB flushed around the victim.
    let scores: Vec<Confusion> = (0..6)
        .map(|i| {
            let seed = 0xFACE ^ [1, 2][i % 2] ^ [0, 0x10, 0x20][i / 2];
            let (attack, haswell) = (Attack::ALL[i / 2].0, MicroarchProfile::haswell());
            attack.score(&haswell, &secret, i % 2 == 1, seed, &mut Tracer::disabled())
        })
        .collect();
    let cmp = ComparisonRow::from_scores(&scores);
    let bscope = cmp.iter().find(|r| r.attack == "BranchScope").unwrap();
    assert!(bscope.unprotected.accuracy() > 0.95);
    assert!(bscope.btb_defended.accuracy() > 0.95, "BranchScope unaffected by BTB flushing");
    let shadow = cmp.iter().find(|r| r.attack == "branch shadowing").unwrap();
    let evict = cmp.iter().find(|r| r.attack == "BTB eviction").unwrap();
    for row in [shadow, evict] {
        assert!(row.unprotected.accuracy() > 0.8, "{row}");
        assert!(row.btb_defended.accuracy() < 0.7, "{row}");
        assert!(!row.btb_defended.leaks(), "{row} (G {:.1})", row.btb_defended.g_statistic());
    }
}
