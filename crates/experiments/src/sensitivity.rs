//! Extension (beyond the paper): error-rate sensitivity to the PHT size —
//! the mechanistic version of the paper's §7 explanation that Sandy
//! Bridge's higher error rates come from its smaller predictor tables.

use crate::common::Scale;
use crate::covert_cell::{covert_cells, CovertCell, Payload};
use bscope_bpu::{BackendKind, CounterKind, Microarch, MicroarchProfile};
use bscope_core::BscopeError;
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
    }
}

/// `(pht_size, error_rate)` for PHT sizes 1K to 64K under system noise,
/// each the mean over `runs` transmissions of the same message.
pub fn compute(scale: &Scale, bits: usize, runs: usize) -> Result<Vec<(usize, f64)>, BscopeError> {
    let profiles: Vec<MicroarchProfile> =
        (10..=16).map(|log2| profile_with_pht(1 << log2)).collect();
    let mut rng = StdRng::seed_from_u64(scale.seed ^ 0x5E5);
    let message: Vec<bool> = (0..bits).map(|_| rng.gen()).collect();
    let noise = NoiseConfig::system_activity();
    let shared = Payload::Given(&message);
    let cells: Vec<CovertCell> = profiles
        .iter()
        .map(|profile| CovertCell::new(profile, BackendKind::Hybrid, Some(&noise), shared, bits))
        .collect();
    let per_cell = covert_cells(scale, 0x5E4, &cells, runs)?;
    Ok(profiles
        .iter()
        .zip(per_cell)
        .map(|(p, cell)| (p.pht_size, cell.iter().map(|r| r.error_rate).sum::<f64>() / runs as f64))
        .collect())
}

pub fn run(scale: &Scale) -> Result<(), BscopeError> {
    let bits = scale.n(6_000, 800);
    let runs = scale.n(5, 2);
    println!(
        "covert-channel error vs PHT size ({bits} bits, system noise, {runs} runs per size)\n"
    );
    println!("{:>10} {:>10}", "PHT size", "error");
    let sweep = compute(scale, bits, runs)?;
    for &(pht_size, error_rate) in &sweep {
        scale.metric(format!("sensitivity/pht_{pht_size}/error_pct"), 100.0 * error_rate);
        println!("{pht_size:>10} {:>9.3}%", 100.0 * error_rate);
    }
    println!("\nbigger tables dilute the background noise across more entries, so an");
    println!("unrelated branch lands on the attacked entry less often. This is the paper's");
    println!("Sandy Bridge (4K) vs Skylake/Haswell (16K) gap, swept.");

    println!("\nshape checks:");
    // The sweep runs 1K, 2K, 4K, ... in order.
    let (e1k, e4k, e16k) = (sweep[0].1, sweep[2].1, sweep[4].1);
    println!("  error at 1K > 4K > 16K: {}", e1k > e4k && e4k > e16k);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::assert_thread_count_invariant;

    #[test]
    fn sweep_is_thread_count_invariant() {
        assert_thread_count_invariant(|scale| {
            compute(scale, 100, 2).expect("valid preset configs")
        });
    }
}
