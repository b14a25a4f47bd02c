//! §10 ablation: attack error rate under each proposed defense.

use crate::common::{trials, Scale};
use bscope_bpu::MicroarchProfile;
use bscope_core::BscopeError;
use bscope_mitigations::{benign_overhead, evaluate, EvalReport, MeasurementFuzz, Mitigation};

pub fn run(scale: &Scale) -> Result<(), BscopeError> {
    let bits = scale.n(3_000, 400);
    let profile = MicroarchProfile::skylake();
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
    // One trial per defense reads the secret (error rates), then one per
    // defense runs the benign loop (misprediction rates).
    let n = mitigations.len();
    let rates = trials(scale, 2 * n, 0x10DEF, |idx, seed, tracer| {
        let m = &mitigations[idx % n];
        if idx < n {
            evaluate(m, &profile, bits, seed, tracer).error_rate
        } else {
            benign_overhead(m, &profile, seed, tracer)
        }
    });
    let (errors, overheads) = rates.split_at(n);

    println!("spy reading a victim's secret branch stream, {bits} bits, Skylake profile");
    println!("(error ~0% = attack works; ~50% = spy learns nothing)\n");
    for ((m, &error_rate), &overhead) in mitigations.into_iter().zip(errors).zip(overheads) {
        scale.metric(format!("mitigations/{m}/error_pct"), 100.0 * error_rate);
        scale.metric(format!("mitigations/{m}/benign_mispredict_pct"), 100.0 * overhead);
        let report = EvalReport { mitigation: m, bits, error_rate };
        println!("  {report}   [benign mispredict rate {:>5.2}%]", 100.0 * overhead);
    }
    println!("\npaper (Sec. 10): all of these block the side channel; software-only schemes");
    println!("(if-conversion) and measurement fuzzing still leave covert channels possible.");
    Ok(())
}
