//! Table 3: covert channel with the trojan (sender) inside an SGX enclave.

use crate::claim::Claim;
use crate::common::Scale;
use crate::covert_cell::{covert_cells, payload_row, CovertCell, Payload, Sender};
use bscope_bpu::{BackendKind, MicroarchProfile};
use bscope_core::{BscopeError, Confusion};
use bscope_uarch::NoiseConfig;

/// Computes both table rows, each the mean error of every payload (percent)
/// and the row's pooled bits: all `2 settings x 3 payloads x runs`
/// transmissions run as independent trials of [`covert_cells`].
pub fn compute(
    scale: &Scale,
    bits: usize,
    runs: usize,
) -> Result<Vec<([f64; 3], Confusion)>, BscopeError> {
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

    Ok(per_cell.chunks_exact(payloads.len()).map(payload_row).collect())
}

pub fn run(scale: &Scale) -> Result<(), BscopeError> {
    let bits = scale.n(20_000, 1_000);
    let runs = scale.n(10, 2);
    println!("Skylake, sender inside an SGX enclave single-stepped by a malicious OS;");
    println!("{bits} bits per run, {runs} runs per cell\n");

    println!("{:<26} {:>8} {:>8} {:>8}", "", "All 0", "All 1", "Random");
    let rows = compute(scale, bits, runs)?;
    for (label, (row, _)) in ["SGX with noise", "SGX isolated"].iter().zip(&rows) {
        println!("{label:<26} {:>7.3}% {:>7.3}% {:>7.3}%", row[0], row[1], row[2]);
        for (payload, err) in ["all0", "all1", "random"].iter().zip(row) {
            scale.metric(format!("table3/{label}/{payload}_error_pct"), *err);
        }
    }
    println!("\n{:<26} {:>8} {:>8} {:>8}", "paper:", "All 0", "All 1", "Random");
    println!("{:<26} {:>7.3}% {:>7.3}% {:>7.3}%", "SGX with noise (paper)", 0.008, 0.53, 0.73);
    println!("{:<26} {:>7.3}% {:>7.3}% {:>7.3}%", "SGX isolated (paper)", 0.003, 0.153, 0.51);

    let wrong = |row: usize| (rows[row].1.errors(), rows[row].1.total());
    println!("\nclaims:");
    let sentence = "OS-controlled noise suppression improves the channel";
    scale.claim("table3/isolated below noisy", &Claim::below(sentence, wrong(1), wrong(0)));
    let sentence = "isolated SGX errs on below 0.1% of bits";
    scale.claim("table3/isolated below 0.1%", &Claim::below_bound(sentence, wrong(1), 0.001));
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
