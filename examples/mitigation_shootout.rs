//! Evaluate every §10 defense against the live attack.
//!
//! ```text
//! cargo run --release --example mitigation_shootout
//! ```

use branchscope::bpu::MicroarchProfile;
use branchscope::mitigations::{evaluate, Mitigation};
use branchscope::trace::Tracer;

fn main() {
    let profile = MicroarchProfile::skylake();
    let bits = 1_500;
    println!("BranchScope reading {bits} victim bits under each defense:\n");
    for mitigation in [
        Mitigation::None,
        Mitigation::RandomizedPht { rekey_interval: None },
        Mitigation::RandomizedPht { rekey_interval: Some(10_000) },
        Mitigation::PartitionedBpu { partitions: 2 },
        Mitigation::NoPredictSensitive,
        Mitigation::NoisyMeasurements,
        Mitigation::StochasticFsm,
        Mitigation::IfConversion,
    ] {
        println!("  {}", evaluate(&mitigation, &profile, bits, 0xD1FE, &mut Tracer::disabled()));
    }
    println!("\n~0% error = channel wide open; a leak is reads that depend on the secret");
    println!("(G-test, p < 0.001), whatever their error rate.");
}
