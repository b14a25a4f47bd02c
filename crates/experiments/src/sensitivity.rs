//! Extension (beyond the paper): error-rate sensitivity to the PHT size —
//! the mechanistic version of the paper's §7 explanation that Sandy
//! Bridge's higher error rates come from its smaller predictor tables.

use crate::common::{metric, Scale};
use crate::covert_cell::{covert_cell, CovertCell, Payload};
use bscope_bpu::{BackendKind, CounterKind, Microarch, MicroarchProfile};
use bscope_core::BscopeError;
use bscope_uarch::{NoiseConfig, Tracer};
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
    let noise = NoiseConfig::system_activity();
    let shared = Payload::Given(&message);

    println!("covert-channel error vs PHT size ({bits} bits, system noise)\n");
    println!("{:>10} {:>10}", "PHT size", "error");
    for log2 in 10..=16 {
        let pht_size = 1usize << log2;
        let profile = profile_with_pht(pht_size);
        let cell = CovertCell::new(&profile, BackendKind::Hybrid, Some(&noise), shared, bits);
        cell.validate()?;
        let result = covert_cell(&cell, scale.seed ^ log2 as u64, &mut Tracer::disabled());
        metric(format!("sensitivity/pht_{pht_size}/error_pct"), 100.0 * result.error_rate);
        println!("{pht_size:>10} {:>9.3}%", 100.0 * result.error_rate);
    }
    println!("\nbigger tables dilute the background noise across more entries, so the");
    println!("probability that an unrelated branch lands on the attacked entry — and with");
    println!("it the channel's error rate — falls roughly inversely with the PHT size.");
    println!("This is the paper's Sandy Bridge (4K) vs Skylake/Haswell (16K) gap, swept.");
    Ok(())
}
