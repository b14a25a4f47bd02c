//! Figure 2: mispredictions per iteration while the 2-level predictor
//! learns a repeating 10-bit random pattern.

use crate::common::{bar, metric, Scale};
use bscope_bpu::{MicroarchProfile, Outcome};
use bscope_core::BscopeError;
use bscope_os::{AslrPolicy, System};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PATTERN_BITS: usize = 10;
const ITERATIONS: usize = 20;

fn learning_curve(profile: &MicroarchProfile, runs: usize, seed: u64) -> Vec<f64> {
    let mut totals = [0.0f64; ITERATIONS];
    let mut rng = StdRng::seed_from_u64(seed);
    for run in 0..runs {
        // "We initialize an array of 10 bits to a randomly selected state."
        let pattern: Vec<Outcome> =
            (0..PATTERN_BITS).map(|_| Outcome::from_bool(rng.gen())).collect();
        let mut sys = System::new(profile.clone(), seed ^ run as u64);
        let pid = sys.spawn("bench", AslrPolicy::Disabled);
        // "We execute a single branch instruction conditional on the array
        // bits, once for each bit … repeat the series 20 times … and record
        // the total number of incorrect predictions per iteration."
        for total in &mut totals {
            let before = sys.cpu(pid).counters().branch_misses;
            for &outcome in &pattern {
                sys.cpu(pid).branch_at(0x6d, outcome);
            }
            let misses = sys.cpu(pid).counters().branch_misses - before;
            *total += misses as f64;
        }
    }
    totals.iter().map(|t| t / runs as f64).collect()
}

pub fn run(scale: &Scale) -> Result<(), BscopeError> {
    let runs = scale.n(400, 50);
    let machines = [
        ("i5-6200U (Skylake)", "Skylake", MicroarchProfile::skylake()),
        ("i7-2600 (Sandy Bridge)", "Sandy Bridge", MicroarchProfile::sandy_bridge()),
    ];
    let curves: Vec<(&str, Vec<f64>)> = machines
        .iter()
        .map(|(name, _, p)| (*name, learning_curve(p, runs, scale.seed)))
        .collect();

    println!("avg mispredictions per 10-branch iteration ({runs} runs)\n");
    println!("{:>4}  {:<28} {:<28}", "iter", curves[0].0, curves[1].0);
    for i in 0..ITERATIONS {
        println!(
            "{:>4}  {:>5.2} {}  {:>5.2} {}",
            i + 1,
            curves[0].1[i],
            bar(curves[0].1[i], 5.0, 20),
            curves[1].1[i],
            bar(curves[1].1[i], 5.0, 20),
        );
    }
    // Iterations until the average first drops below 0.5; `None` is "never".
    let learned = |c: &[f64]| c.iter().position(|&m| m < 0.5).map(|i| i + 1);
    let converged = |c: &[f64]| learned(c).map_or("never".into(), |i| i.to_string());
    for ((_, short, _), (_, curve)) in machines.iter().zip(&curves) {
        metric(format!("fig2/{short}/iter1_mispredictions"), curve[0]);
        metric(format!("fig2/{short}/iterations_to_learn"), learned(curve).map_or(f64::NAN, |i| i as f64));
    }
    println!("\npaper: ~5 mispredictions in iteration 1, accuracy ~100% after 5-7 repetitions,");
    println!("       Skylake learning slightly faster.");
    println!(
        "ours : iteration-1 mispredictions {:.2} / {:.2}; first iteration below 0.5 avg: {} / {}",
        curves[0].1[0],
        curves[1].1[0],
        converged(&curves[0].1),
        converged(&curves[1].1),
    );
    Ok(())
}
