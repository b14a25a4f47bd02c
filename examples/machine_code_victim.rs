//! End-to-end attack against a victim expressed as *machine code*: the
//! paper's Listing 2 assembled with byte-accurate layout (the secret `je`
//! at offset 0x6d), stepped once per attack round as the slowed-down
//! victim, read by BranchScope.
//!
//! ```text
//! cargo run --release --example machine_code_victim
//! ```

use branchscope::attack::{AttackConfig, BranchScope};
use branchscope::bpu::MicroarchProfile;
use branchscope::isa::{programs, Interpreter};
use branchscope::os::{AslrPolicy, System, Workload};

fn main() {
    let secret = [true, false, true, true, false, false, true, false];
    let program = programs::secret_branch_victim(&secret);
    println!(
        "assembled Listing 2: {} instructions, {} code bytes, conditional branches at {:?}",
        program.len(),
        program.code_bytes(),
        program
            .conditional_branch_offsets()
            .iter()
            .map(|o| format!("{o:#x}"))
            .collect::<Vec<_>>(),
    );

    let profile = MicroarchProfile::skylake();
    let mut sys = System::new(profile.clone(), 0x15A);
    let victim = sys.spawn("victim", AslrPolicy::Disabled);
    let spy = sys.spawn("spy", AslrPolicy::Disabled);
    let target = sys.process(victim).vaddr_of(programs::LISTING2_BRANCH_OFFSET);

    let mut interp = Interpreter::new(program);
    let mut attack = BranchScope::new(AttackConfig::for_profile(&profile)).unwrap();

    let mut recovered = Vec::new();
    for _ in 0..secret.len() {
        // Each trigger advances the victim by one conditional branch; the
        // loop's own back-edge branch sits at a different offset, so the
        // spy skips it by stepping twice per secret bit.
        let outcome = attack.read_bit(&mut sys, spy, target, |sys| {
            let mut cpu = sys.cpu(victim);
            interp.step(&mut cpu); // the secret je at 0x6d
            interp.step(&mut cpu); // the loop back-edge
        });
        // je is taken when the tested value is zero.
        recovered.push(!outcome.is_taken());
    }

    println!("secret   : {secret:?}");
    println!("recovered: {recovered:?}");
    let errors = secret.iter().zip(&recovered).filter(|(a, b)| a != b).count();
    println!("{errors} bit errors");
    assert_eq!(errors, 0);
}
