//! §11 comparison: BranchScope vs the prior BTB-based attacks.

use crate::claim::Claim;
use crate::common::{trials, Scale};
use bscope_baselines::{Attack, ComparisonRow};
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
    let rows = ComparisonRow::from_scores(&trials(scale, 6, 0x11B7B, |i, seed, tracer| {
        Attack::ALL[i / 2].0.score(&profile, &secret, i % 2 == 1, seed, tracer)
    }));

    println!("bit-recovery accuracy against the same secret-branch victim ({bits} bits),");
    println!("with and without the OS flushing the BTB on context switches\n");
    for row in &rows {
        println!("{row}");
        let attack = row.attack;
        let settings = [("unprotected", &row.unprotected), ("btb_defended", &row.btb_defended)];
        for (setting, table) in settings {
            scale.metric(format!("baselines/{attack}/accuracy_{setting}"), table.accuracy());
            let mi = table.mutual_information();
            scale.metric(format!("baselines/{attack}/{setting}/leak_bits_per_read"), mi);
        }
    }
    println!("\npaper claim (Sec. 1): existing BTB protections are cache-style defenses; they");
    println!("stop the BTB attacks but BranchScope reads the directional PHT and survives.");
    println!("\nclaims:");
    let sentence = "BranchScope still reads the secret under the BTB defense";
    scale.claim("baselines/BranchScope survives", &Claim::leak(sentence, &rows[0].btb_defended));
    for row in &rows[1..] {
        let sentence = format!("the BTB defense reduces {} to guessing", row.attack);
        let claim = Claim::no_leak(sentence, &row.btb_defended);
        scale.claim(&format!("baselines/{} stopped", row.attack), &claim);
    }
    Ok(())
}
