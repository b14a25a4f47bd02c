//! §11 comparison: BranchScope vs the prior BTB-based attacks.

use crate::common::{metric, Scale};
use bscope_baselines::compare_attacks;
use bscope_bpu::MicroarchProfile;
use bscope_core::BscopeError;

pub fn run(scale: &Scale) -> Result<(), BscopeError> {
    let bits = scale.n(200, 40);
    println!("bit-recovery accuracy against the same secret-branch victim ({bits} bits),");
    println!("with and without the OS flushing the BTB on context switches\n");
    let cmp = compare_attacks(&MicroarchProfile::haswell(), bits, scale.seed);
    print!("{cmp}");
    for row in &cmp.rows {
        let attack = row.attack;
        metric(format!("baselines/{attack}/accuracy_unprotected"), row.accuracy_unprotected);
        metric(format!("baselines/{attack}/accuracy_btb_defended"), row.accuracy_btb_defended);
    }
    println!("\npaper claim (Sec. 1): existing BTB protections are cache-style defenses; they");
    println!("stop the BTB attacks but BranchScope reads the directional PHT and survives.");
    let bscope = &cmp.rows[0];
    println!(
        "reproduced: BranchScope keeps {:.1}% accuracy under the BTB defense.",
        100.0 * bscope.accuracy_btb_defended
    );
    Ok(())
}
