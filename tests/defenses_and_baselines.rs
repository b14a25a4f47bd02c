//! Integration tests for §10 defenses and §11 baseline comparisons through
//! the façade crate.

use branchscope::baselines::compare_attacks;
use branchscope::bpu::MicroarchProfile;
use branchscope::mitigations::{evaluate, EvalReport, MeasurementFuzz, Mitigation};
use branchscope::trace::Tracer;

fn eval(m: Mitigation) -> EvalReport {
    evaluate(&m, &MicroarchProfile::skylake(), 300, 0xD00D, &mut Tracer::disabled())
}

#[test]
fn every_hardware_defense_defeats_the_attack() {
    assert!(!eval(Mitigation::None).defeated(), "baseline must work");
    for m in [
        Mitigation::RandomizedPht { rekey_interval: None },
        Mitigation::RandomizedPht { rekey_interval: Some(5_000) },
        Mitigation::PartitionedBpu { partitions: 2 },
        Mitigation::PartitionedBpu { partitions: 8 },
        Mitigation::NoPredictSensitive,
    ] {
        let report = eval(m);
        assert!(report.defeated(), "{report}");
    }
}

#[test]
fn software_defense_and_fuzzing_degrade_the_attack() {
    let ifconv = eval(Mitigation::IfConversion);
    assert!(ifconv.defeated(), "{ifconv}");
    let fuzz = eval(Mitigation::NoisyMeasurements(MeasurementFuzz::strong()));
    assert!(fuzz.error_rate > 0.15, "{fuzz}");
}

#[test]
fn defenses_hold_on_every_paper_machine() {
    for profile in MicroarchProfile::paper_machines() {
        let tracer = &mut Tracer::disabled();
        let baseline = evaluate(&Mitigation::None, &profile, 200, 0xF00, tracer);
        let randomized = Mitigation::RandomizedPht { rekey_interval: None };
        let defended = evaluate(&randomized, &profile, 200, 0xF00, tracer);
        assert!(baseline.error_rate < 0.05, "{}: baseline {}", profile.arch, baseline);
        assert!(defended.defeated(), "{}: {}", profile.arch, defended);
    }
}

#[test]
fn branchscope_beats_btb_defenses_that_stop_prior_attacks() {
    let cmp = compare_attacks(&MicroarchProfile::haswell(), 100, 0xFACE);
    let bscope = cmp.rows.iter().find(|r| r.attack == "BranchScope").unwrap();
    assert!(bscope.accuracy_unprotected > 0.95);
    assert!(bscope.accuracy_btb_defended > 0.95, "BranchScope unaffected by BTB flushing");
    let shadow = cmp.rows.iter().find(|r| r.attack == "branch shadowing").unwrap();
    let evict = cmp.rows.iter().find(|r| r.attack == "BTB eviction").unwrap();
    for row in [shadow, evict] {
        assert!(row.accuracy_unprotected > 0.8, "{row}");
        assert!(row.accuracy_btb_defended < 0.7, "{row}");
        assert!(row.defense_kills_attack(), "{row}");
    }
}
