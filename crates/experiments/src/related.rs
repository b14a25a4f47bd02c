//! §11 comparison: BranchScope vs the prior BTB-based attacks.

use crate::common::{trials, Scale};
use bscope_baselines::{Attack, AttackComparison};
use bscope_bpu::{MicroarchProfile, Outcome};
use bscope_core::BscopeError;
use bscope_harness::splitmix64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub fn run(scale: &Scale) -> Result<(), BscopeError> {
    let bits = scale.n(200, 40);
    let profile = MicroarchProfile::haswell();
    // Every attack reads the same secret, drawn once from the base seed.
    let mut rng = StdRng::seed_from_u64(splitmix64(scale.seed ^ 0x11B7C));
    let secret: Vec<Outcome> = (0..bits).map(|_| Outcome::from_bool(rng.gen())).collect();
    // One trial per attack × setting: unprotected, then with the OS flushing
    // the BTB on every context switch.
    let cmp = AttackComparison::from_accuracies(&trials(scale, 6, 0x11B7B, |i, seed, tracer| {
        Attack::ALL[i / 2].0.accuracy(&profile, &secret, i % 2 == 1, seed, tracer)
    }));

    println!("bit-recovery accuracy against the same secret-branch victim ({bits} bits),");
    println!("with and without the OS flushing the BTB on context switches\n");
    print!("{cmp}");
    for row in &cmp.rows {
        let attack = row.attack;
        scale.metric(format!("baselines/{attack}/accuracy_unprotected"), row.accuracy_unprotected);
        scale.metric(format!("baselines/{attack}/accuracy_btb_defended"), row.accuracy_btb_defended);
    }
    println!("\npaper claim (Sec. 1): existing BTB protections are cache-style defenses; they");
    println!("stop the BTB attacks but BranchScope reads the directional PHT and survives.");
    let bscope = &cmp.rows[0];
    println!(
        "reproduced: BranchScope keeps {:.1}% accuracy under the BTB defense.",
        100.0 * bscope.accuracy_btb_defended
    );
    println!("\nshape checks:");
    for row in &cmp.rows[1..] {
        println!("  BTB defense reduces {} to guessing: {}", row.attack, row.defense_kills_attack());
    }
    Ok(())
}
