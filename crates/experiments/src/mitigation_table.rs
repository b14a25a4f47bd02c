//! §10 ablation: attack error rate under each proposed defense.

use crate::common::{metric, Scale};
use bscope_bpu::MicroarchProfile;
use bscope_core::BscopeError;
use bscope_mitigations::{benign_overhead, evaluate, MeasurementFuzz, Mitigation};

pub fn run(scale: &Scale) -> Result<(), BscopeError> {
    let bits = scale.n(3_000, 400);
    let profile = MicroarchProfile::skylake();
    println!("spy reading a victim's secret branch stream, {bits} bits, Skylake profile");
    println!("(error ~0% = attack works; ~50% = spy learns nothing)\n");
    let mitigations = [
        Mitigation::None,
        Mitigation::RandomizedPht { rekey_interval: None },
        Mitigation::RandomizedPht { rekey_interval: Some(10_000) },
        Mitigation::PartitionedBpu { partitions: 2 },
        Mitigation::PartitionedBpu { partitions: 4 },
        Mitigation::NoPredictSensitive,
        Mitigation::NoisyMeasurements(MeasurementFuzz::strong()),
        Mitigation::StochasticFsm { skip_probability: 0.5 },
        Mitigation::IfConversion,
    ];
    for m in mitigations {
        let report = evaluate(&m, &profile, bits, scale.seed);
        let overhead = benign_overhead(&m, &profile, scale.seed);
        println!("  {report}   [benign mispredict rate {:>5.2}%]", 100.0 * overhead);
        metric(format!("mitigations/{m}/error_pct"), 100.0 * report.error_rate);
        metric(format!("mitigations/{m}/benign_mispredict_pct"), 100.0 * overhead);
    }
    println!("\npaper (Sec. 10): all of these block the side channel; software-only schemes");
    println!("(if-conversion) and measurement fuzzing still leave covert channels possible.");
    Ok(())
}
