//! Extension (beyond the paper): error-rate sensitivity to the PHT size —
//! the mechanistic version of the paper's §7 explanation that Sandy
//! Bridge's higher error rates come from its smaller predictor tables.

use crate::common::{metric, Scale};
use bscope_bpu::{CounterKind, Microarch, MicroarchProfile};
use bscope_core::covert::CovertChannel;
use bscope_core::{AttackConfig, BscopeError};
use bscope_os::{AslrPolicy, System};
use bscope_uarch::NoiseConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn profile_with_pht(pht_size: usize) -> MicroarchProfile {
    MicroarchProfile {
        arch: Microarch::Custom,
        pht_size,
        counter_kind: CounterKind::TwoBit,
        ghr_bits: 14,
        selector_size: (pht_size / 4).max(256),
        btb_size: (pht_size / 4).max(256),
        timing: Default::default(),
    }
}

pub fn run(scale: &Scale) -> Result<(), BscopeError> {
    let bits = scale.n(6_000, 800);
    let mut rng = StdRng::seed_from_u64(scale.seed ^ 0x5E5);
    let message: Vec<bool> = (0..bits).map(|_| rng.gen()).collect();

    println!("covert-channel error vs PHT size ({bits} bits, system noise)\n");
    println!("{:>10} {:>10}", "PHT size", "error");
    for log2 in 10..=16 {
        let pht_size = 1usize << log2;
        let profile = profile_with_pht(pht_size);
        let mut sys = System::new(profile.clone(), scale.seed ^ log2 as u64)
            .with_noise(NoiseConfig::system_activity())?;
        let sender = sys.spawn("trojan", AslrPolicy::Disabled);
        let receiver = sys.spawn("spy", AslrPolicy::Disabled);
        let mut channel = CovertChannel::new(AttackConfig::for_profile(&profile))?;
        let result = channel.transmit(&mut sys, sender, receiver, &message);
        metric(format!("sensitivity/pht_{pht_size}/error_pct"), 100.0 * result.error_rate);
        println!("{pht_size:>10} {:>9.3}%", 100.0 * result.error_rate);
    }
    println!("\nbigger tables dilute the background noise across more entries, so the");
    println!("probability that an unrelated branch lands on the attacked entry — and with");
    println!("it the channel's error rate — falls roughly inversely with the PHT size.");
    println!("This is the paper's Sandy Bridge (4K) vs Skylake/Haswell (16K) gap, swept.");
    Ok(())
}
