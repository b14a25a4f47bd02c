//! Figure 8: branch-event detection error rate as a function of the number
//! of averaged rdtscp measurements, for the first (cold) and second (warm)
//! executions.

use crate::common::{bar, trials, Scale};
use bscope_bpu::MicroarchProfile;
use bscope_core::timing_probe::detection_error_rate;
use bscope_core::BscopeError;
use bscope_os::{AslrPolicy, System};

pub fn run(scale: &Scale) -> Result<(), BscopeError> {
    let profile = MicroarchProfile::skylake();
    let n = scale.n(2_000, 300);
    let ks: Vec<usize> = (1..=19).step_by(2).collect();
    // One trial per k; its cold and warm passes share one machine.
    let errors = trials(scale, ks.len(), 0xF168, |idx, seed, tracer| {
        let mut sys = System::new(profile.clone(), seed);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        sys.with_tracer(tracer, |sys| {
            let cold = detection_error_rate(sys, spy, ks[idx], n, true);
            let warm = detection_error_rate(sys, spy, ks[idx], n, false);
            (cold, warm)
        })
    });

    println!("error distinguishing predicted from mispredicted branches by timing,");
    println!("as a function of the number of averaged measurements ({n} trials/point)\n");
    println!("{:>3}  {:<34} {:<34}", "k", "1st measurement (cold)", "2nd measurement (warm)");
    for (k, &(cold, warm)) in ks.iter().zip(&errors) {
        scale.metric(format!("fig8/cold_error_pct_k{k}"), 100.0 * cold);
        scale.metric(format!("fig8/warm_error_pct_k{k}"), 100.0 * warm);
        println!(
            "{k:>3}  {:>6.1}% {}  {:>6.1}% {}",
            100.0 * cold,
            bar(cold, 0.35, 22),
            100.0 * warm,
            bar(warm, 0.35, 22),
        );
    }
    // ks[0] is k = 1 and ks[4] is k = 9.
    println!("\npaper: 1st measurement 20-30% error; 2nd ~10% at k=1, approaching 0 by k~10.");
    println!(
        "ours : 1st at k=1: {:.1}%; 2nd at k=1: {:.1}%; 2nd at k=9: {:.2}%.",
        100.0 * errors[0].0,
        100.0 * errors[0].1,
        100.0 * errors[4].1
    );
    Ok(())
}
