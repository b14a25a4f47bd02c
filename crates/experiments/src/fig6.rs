//! Figure 6: demonstration of covert-channel decoding with the spy's
//! pattern dictionary.

use crate::common::{trials, Scale};
use bscope_bpu::{MicroarchProfile, Outcome};
use bscope_core::{AttackConfig, BranchScope, BscopeError, Confusion, ProbePattern};
use bscope_harness::splitmix64;
use bscope_os::{AslrPolicy, System};
use bscope_uarch::NoiseConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub fn run(scale: &Scale) -> Result<(), BscopeError> {
    let profile = MicroarchProfile::skylake();
    // Heavier-than-usual noise so the short demo plausibly shows an
    // erroneously received bit, as the paper's figure does.
    let noise = NoiseConfig { branches_per_kcycle: 30.0, ..NoiseConfig::system_activity() };
    // One trial: 32 bits over one channel, the message drawn from
    // `splitmix64(seed)`.
    let (original, patterns, attack) = trials(scale, 1, 0xF166, |_, seed, tracer| {
        let mut sys = System::new(profile.clone(), seed).with_noise(noise.clone())?;
        let sender = sys.spawn("trojan", AslrPolicy::Disabled);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let target = sys.process(sender).vaddr_of(0x6d);
        let mut attack = BranchScope::new(AttackConfig::for_profile(&profile))?;
        let mut rng = StdRng::seed_from_u64(splitmix64(seed));
        let original: Vec<bool> = (0..32).map(|_| rng.gen()).collect();
        let mut patterns: Vec<ProbePattern> = Vec::new();
        sys.with_tracer(tracer, |sys| {
            for &bit in &original {
                patterns.push(attack.observe_bit(sys, spy, target, |sys| {
                    sys.cpu(sender).branch_at(0x6d, Outcome::from_bool(bit));
                }));
            }
        });
        Ok::<_, BscopeError>((original, patterns, attack))
    })
    .remove(0)?;
    let decoded: Vec<bool> =
        patterns.iter().map(|&p| attack.dict().decode(p).is_taken()).collect();

    let dict = attack.dict();
    println!("spy dictionary (primed {}, probing {}):", dict.primed(), dict.probe());
    for p in ProbePattern::ALL {
        println!("    {p} -> {}", u8::from(dict.decode(p).is_taken()));
    }
    println!();
    let row = |label: &str, cells: Vec<String>| {
        println!("{label:<14} {}", cells.join(" "));
    };
    row("original", original.iter().map(|&b| format!(" {}", u8::from(b))).collect());
    row("spy measures", patterns.iter().map(|p| format!("{p}")).collect());
    row("decoded", decoded.iter().map(|&b| format!(" {}", u8::from(b))).collect());
    row(
        "",
        original
            .iter()
            .zip(&decoded)
            .map(|(a, b)| if a == b { "  ".to_owned() } else { " ^".to_owned() })
            .collect(),
    );
    let score: Confusion = original.iter().copied().zip(decoded.iter().copied()).collect();
    let errors = score.errors();
    scale.metric("fig6/erroneous_bits", errors as f64);
    println!(
        "\nerroneous bits under elevated noise: paper's figure 1 / ours {errors} of {}",
        original.len()
    );
    Ok(())
}
