//! Figure 2: mispredictions per iteration while the 2-level predictor
//! learns a repeating 10-bit random pattern.

use crate::claim::Claim;
use crate::common::{bar, trials, Scale};
use bscope_bpu::{MicroarchProfile, Outcome};
use bscope_core::BscopeError;
use bscope_harness::splitmix64;
use bscope_os::{AslrPolicy, System};
use bscope_uarch::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PATTERN_BITS: usize = 10;
const ITERATIONS: usize = 20;

/// Mispredictions per iteration of one run: a fresh machine seeded with
/// `seed` learns a pattern drawn from `splitmix64(seed)`.
fn learning_run(profile: &MicroarchProfile, seed: u64, tracer: &mut Tracer) -> [u64; ITERATIONS] {
    // "We initialize an array of 10 bits to a randomly selected state."
    let mut rng = StdRng::seed_from_u64(splitmix64(seed));
    let pattern: Vec<Outcome> = (0..PATTERN_BITS).map(|_| Outcome::from_bool(rng.gen())).collect();
    let mut sys = System::new(profile.clone(), seed);
    let pid = sys.spawn("bench", AslrPolicy::Disabled);
    // "We execute a single branch instruction conditional on the array
    // bits, once for each bit … repeat the series 20 times … and record
    // the total number of incorrect predictions per iteration."
    let mut misses = [0; ITERATIONS];
    sys.with_tracer(tracer, |sys| {
        for slot in &mut misses {
            let before = sys.cpu(pid).counters().branch_misses;
            for &outcome in &pattern {
                sys.cpu(pid).branch_at(0x6d, outcome);
            }
            *slot = sys.cpu(pid).counters().branch_misses - before;
        }
    });
    misses
}

pub fn run(scale: &Scale) -> Result<(), BscopeError> {
    let runs = scale.n(400, 50);
    let machines = [
        ("i5-6200U (Skylake)", "Skylake", MicroarchProfile::skylake()),
        ("i7-2600 (Sandy Bridge)", "Sandy Bridge", MicroarchProfile::sandy_bridge()),
    ];
    // One trial per machine × run, machine-major.
    let per_run = trials(scale, machines.len() * runs, 0xF162, |idx, seed, tracer| {
        learning_run(&machines[idx / runs].2, seed, tracer)
    });
    let curves: Vec<Vec<f64>> = per_run
        .chunks(runs)
        .map(|machine_runs| {
            (0..ITERATIONS)
                .map(|i| machine_runs.iter().map(|m| m[i] as f64).sum::<f64>() / runs as f64)
                .collect()
        })
        .collect();

    println!("avg mispredictions per 10-branch iteration ({runs} runs)\n");
    println!("{:>4}  {:<28} {:<28}", "iter", machines[0].0, machines[1].0);
    for (i, (&a, &b)) in curves[0].iter().zip(&curves[1]).enumerate() {
        println!("{:>4}  {a:>5.2} {}  {b:>5.2} {}", i + 1, bar(a, 5.0, 20), bar(b, 5.0, 20));
    }
    // Iterations until the average first drops below 0.5; `None` is "never".
    let learned = |c: &[f64]| c.iter().position(|&m| m < 0.5).map(|i| i + 1);
    let converged = |c: &[f64]| learned(c).map_or("never".into(), |i| i.to_string());
    for ((_, short, _), curve) in machines.iter().zip(&curves) {
        scale.metric(format!("fig2/{short}/iter1_mispredictions"), curve[0]);
        let iterations = learned(curve).map_or(f64::NAN, |i| i as f64);
        scale.metric(format!("fig2/{short}/iterations_to_learn"), iterations);
    }
    println!("\npaper: ~5 mispredictions in iteration 1, accuracy ~100% after 5-7 repetitions.");
    println!(
        "ours : iteration-1 mispredictions {:.2} / {:.2}; first iteration below 0.5 avg: {} / {}",
        curves[0][0],
        curves[1][0],
        converged(&curves[0]),
        converged(&curves[1]),
    );
    // Mispredictions over all runs and iterations, of every branch run.
    let branches = (runs * ITERATIONS * PATTERN_BITS) as u64;
    let wrong = |machine: &[[u64; ITERATIONS]]| (machine.iter().flatten().sum(), branches);
    let (skylake, sandy_bridge) = (wrong(&per_run[..runs]), wrong(&per_run[runs..]));
    let sentence = format!(
        "Skylake learns slightly faster ({} vs {} mispredictions)",
        skylake.0, sandy_bridge.0
    );
    println!("\nclaims:");
    scale.claim("fig2/Skylake learns faster", &Claim::below(sentence, skylake, sandy_bridge));
    Ok(())
}
