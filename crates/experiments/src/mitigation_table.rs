//! §10 ablation: attack error rate under each proposed defense.

use crate::claim::Claim;
use crate::common::{trials, Scale};
use bscope_bpu::MicroarchProfile;
use bscope_core::BscopeError;
use bscope_mitigations::{benign_overhead, evaluate, EvalReport, Mitigation};

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
        Mitigation::NoisyMeasurements,
        Mitigation::StochasticFsm,
        Mitigation::IfConversion,
    ];
    // One trial per defense reads the secret, then one per defense runs the
    // benign loop (its misprediction rate).
    let n = mitigations.len();
    let results = trials(scale, 2 * n, 0x10DEF, |idx, seed, tracer| {
        let m = &mitigations[idx % n];
        if idx < n {
            (Some(evaluate(m, &profile, bits, seed, tracer)), 0.0)
        } else {
            (None, benign_overhead(m, &profile, seed, tracer))
        }
    });
    let (reads, benign) = results.split_at(n);
    let reports: Vec<&EvalReport> = reads.iter().flat_map(|(report, _)| report).collect();

    println!("spy reading a victim's secret branch stream, {bits} bits, Skylake profile");
    println!("(error ~0% = attack works; no detectable leak = spy learns nothing)\n");
    for (report, (_, overhead)) in reports.iter().zip(benign) {
        let (m, c) = (&report.mitigation, &report.confusion);
        scale.metric(format!("mitigations/{m}/error_pct"), 100.0 * c.error_rate());
        scale.metric(format!("mitigations/{m}/benign_mispredict_pct"), 100.0 * overhead);
        scale.metric(format!("mitigations/{m}/leak_bits_per_read"), c.mutual_information());
        println!("  {report}   [benign mispredict rate {:>5.2}%]", 100.0 * overhead);
    }
    println!("\npaper (Sec. 10): all of these block the side channel; software-only schemes");
    println!("(if-conversion) and measurement fuzzing still leave covert channels possible.");
    println!("\nclaims:");
    for report in &reports {
        let (m, c) = (&report.mitigation, &report.confusion);
        let claim = if *m == Mitigation::None {
            Claim::leak("the undefended spy reads the secret", c)
        } else {
            Claim::no_leak(format!("{m} blocks the side channel"), c)
        };
        scale.claim(&format!("mitigations/{m}"), &claim);
    }
    Ok(())
}
