//! Extension (beyond the paper): error-rate sensitivity to the PHT size —
//! the mechanistic version of the paper's §7 explanation that Sandy
//! Bridge's higher error rates come from its smaller predictor tables.

use crate::claim::Claim;
use crate::common::Scale;
use crate::covert_cell::{covert_cells, CovertCell, Payload};
use bscope_bpu::{BackendKind, CounterKind, Microarch, MicroarchProfile};
use bscope_core::{BscopeError, Confusion};
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

/// `(pht_size, error_rate, pooled)` for PHT sizes 1K to 64K under system
/// noise: the mean over `runs` transmissions of the same message, and
/// their bits pooled.
pub fn compute(
    scale: &Scale,
    bits: usize,
    runs: usize,
) -> Result<Vec<(usize, f64, Confusion)>, BscopeError> {
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
        .map(|(p, cell)| {
            let rates = cell.iter().map(|r| r.confusion.error_rate());
            let error_rate = rates.sum::<f64>() / runs as f64;
            (p.pht_size, error_rate, cell.iter().map(|r| r.confusion).sum())
        })
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
    for &(pht_size, error_rate, _) in &sweep {
        scale.metric(format!("sensitivity/pht_{pht_size}/error_pct"), 100.0 * error_rate);
        println!("{pht_size:>10} {:>9.3}%", 100.0 * error_rate);
    }
    println!("\nbigger tables dilute the background noise across more entries, so an");
    println!("unrelated branch lands on the attacked entry less often. This is the paper's");
    println!("Sandy Bridge (4K) vs Skylake/Haswell (16K) gap, swept.");

    println!("\nclaims:");
    // The sweep runs 1K, 2K, 4K, ... in order.
    let wrong = |i: usize| (sweep[i].2.errors(), sweep[i].2.total());
    for (smaller, larger) in [(0, 2), (2, 4)] {
        let (small, large) = (sweep[smaller].0 >> 10, sweep[larger].0 >> 10);
        let sentence = format!("a {large}K-entry PHT errs less than a {small}K-entry one");
        let claim = Claim::below(sentence, wrong(larger), wrong(smaller));
        scale.claim(&format!("sensitivity/{large}K below {small}K"), &claim);
    }
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
