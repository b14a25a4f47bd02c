//! Table 3: covert channel with the trojan (sender) inside an SGX enclave.

use crate::common::Scale;
use crate::covert_cell::{covert_cells, CovertCell, Payload, Sender};
use bscope_bpu::{BackendKind, MicroarchProfile};
use bscope_core::BscopeError;
use bscope_uarch::NoiseConfig;

/// Computes both table rows (error rates in percent): all
/// `2 settings x 3 payloads x runs` transmissions run as independent
/// trials of [`covert_cells`].
pub fn compute(scale: &Scale, bits: usize, runs: usize) -> Result<Vec<[f64; 3]>, BscopeError> {
    let profile = MicroarchProfile::skylake();
    // The attacker-controlled OS single-steps the enclave; in the isolated
    // setting it also prevents any other activity.
    let settings: [Option<NoiseConfig>; 2] = [Some(NoiseConfig::system_activity()), None];
    let payloads = [Payload::AllZero, Payload::AllOne, Payload::Random { salt: 0x561 }];
    let cells: Vec<CovertCell> = settings
        .iter()
        .flat_map(|noise| {
            payloads.map(|payload| CovertCell {
                sender: Sender::Enclave,
                ..CovertCell::new(&profile, BackendKind::Hybrid, noise.as_ref(), payload, bits)
            })
        })
        .collect();
    let per_cell = covert_cells(scale, 0x560, &cells, runs)?;

    Ok(per_cell
        .chunks_exact(payloads.len())
        .map(|row| {
            std::array::from_fn(|payload| {
                100.0 * row[payload].iter().map(|r| r.error_rate).sum::<f64>() / runs as f64
            })
        })
        .collect())
}

pub fn run(scale: &Scale) -> Result<(), BscopeError> {
    let bits = scale.n(20_000, 1_000);
    let runs = scale.n(10, 2);
    println!("Skylake, sender inside an SGX enclave single-stepped by a malicious OS;");
    println!("{bits} bits per run, {runs} runs per cell\n");

    println!("{:<26} {:>8} {:>8} {:>8}", "", "All 0", "All 1", "Random");
    let rows = compute(scale, bits, runs)?;
    for (label, row) in ["SGX with noise", "SGX isolated"].iter().zip(&rows) {
        println!("{label:<26} {:>7.3}% {:>7.3}% {:>7.3}%", row[0], row[1], row[2]);
        for (payload, err) in ["all0", "all1", "random"].iter().zip(row) {
            scale.metric(format!("table3/{label}/{payload}_error_pct"), *err);
        }
    }
    println!("\n{:<26} {:>8} {:>8} {:>8}", "paper:", "All 0", "All 1", "Random");
    println!("{:<26} {:>7.3}% {:>7.3}% {:>7.3}%", "SGX with noise (paper)", 0.008, 0.53, 0.73);
    println!("{:<26} {:>7.3}% {:>7.3}% {:>7.3}%", "SGX isolated (paper)", 0.003, 0.153, 0.51);

    let avg = |r: &[f64; 3]| (r[0] + r[1] + r[2]) / 3.0;
    println!("\nshape checks:");
    println!(
        "  OS-controlled noise suppression improves the channel: {}",
        avg(&rows[1]) <= avg(&rows[0])
    );
    println!("  isolated SGX error near zero: {}", avg(&rows[1]) < 0.1);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::assert_thread_count_invariant;

    #[test]
    fn table_is_thread_count_invariant() {
        assert_thread_count_invariant(|scale| compute(scale, 200, 2).expect("valid preset configs"));
    }
}
