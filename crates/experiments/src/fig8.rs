//! Figure 8: branch-event detection error rate as a function of the number
//! of averaged rdtscp measurements, for the first (cold) and second (warm)
//! executions.

use crate::common::{bar, metric, Scale};
use bscope_bpu::MicroarchProfile;
use bscope_core::timing_probe::detection_error_rate;
use bscope_core::BscopeError;
use bscope_os::{AslrPolicy, System};

pub fn run(scale: &Scale) -> Result<(), BscopeError> {
    let profile = MicroarchProfile::skylake();
    let trials = scale.n(2_000, 300);
    println!("error distinguishing predicted from mispredicted branches by timing,");
    println!("as a function of the number of averaged measurements ({trials} trials/point)\n");
    println!("{:>3}  {:<34} {:<34}", "k", "1st measurement (cold)", "2nd measurement (warm)");
    let mut first_k1 = 0.0;
    let mut second_k1 = 0.0;
    let mut second_k9 = 0.0;
    for k in (1..=19).step_by(2) {
        let mut sys = System::new(profile.clone(), scale.seed ^ k as u64);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let cold = detection_error_rate(&mut sys, spy, k, trials, true);
        let warm = detection_error_rate(&mut sys, spy, k, trials, false);
        metric(format!("fig8/cold_error_pct_k{k}"), 100.0 * cold);
        metric(format!("fig8/warm_error_pct_k{k}"), 100.0 * warm);
        if k == 1 {
            first_k1 = cold;
            second_k1 = warm;
        }
        if k == 9 {
            second_k9 = warm;
        }
        println!(
            "{k:>3}  {:>6.1}% {}  {:>6.1}% {}",
            100.0 * cold,
            bar(cold, 0.35, 22),
            100.0 * warm,
            bar(warm, 0.35, 22),
        );
    }
    println!("\npaper: 1st measurement 20-30% error; 2nd ~10% at k=1, approaching 0 by k~10.");
    println!(
        "ours : 1st at k=1: {:.1}%; 2nd at k=1: {:.1}%; 2nd at k=9: {:.2}%.",
        100.0 * first_k1,
        100.0 * second_k1,
        100.0 * second_k9
    );
    Ok(())
}
