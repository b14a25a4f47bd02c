//! Table 2: covert-channel error rates on three CPUs, isolated vs noisy.

use crate::claim::Claim;
use crate::common::Scale;
use crate::covert_cell::{covert_cells, payload_row, CovertCell, Payload};
use bscope_bpu::MicroarchProfile;
use bscope_core::{BscopeError, Confusion};
use bscope_uarch::NoiseConfig;

const PAYLOADS: [Payload<'static>; 3] =
    [Payload::AllZero, Payload::AllOne, Payload::Random { salt: 0x7AB1E2 }];

/// A row's label, mean error of each payload (percent) and pooled bits.
pub type Row = (String, [f64; 3], Confusion);

/// Computes the full table: six machine/noise [`Row`]s. All `6 rows x 3
/// payloads x runs` transmissions are independent trials of
/// [`covert_cells`]; the result is identical for every thread count.
pub fn compute(scale: &Scale, bits: usize, runs: usize) -> Result<Vec<Row>, BscopeError> {
    let machines = MicroarchProfile::paper_machines();
    let settings =
        [("isolated", NoiseConfig::isolated_core()), ("with noise", NoiseConfig::system_activity())];
    // Cell order fixes trial indices (and so per-trial seeds): changing it
    // intentionally changes results, like any other seed-schedule change.
    let rows: Vec<(&MicroarchProfile, &(&str, NoiseConfig))> =
        machines.iter().flat_map(|m| settings.iter().map(move |s| (m, s))).collect();
    let cells: Vec<CovertCell> = rows
        .iter()
        .flat_map(|&(profile, (_, noise))| {
            PAYLOADS
                .map(|payload| CovertCell::new(profile, scale.backend, Some(noise), payload, bits))
        })
        .collect();
    let per_cell = covert_cells(scale, 0x7AB2E2, &cells, runs)?;

    Ok(rows
        .iter()
        .zip(per_cell.chunks_exact(PAYLOADS.len()))
        .map(|((profile, (setting, _)), row)| {
            let (errors, pooled) = payload_row(row);
            (format!("{} {setting}", profile.arch), errors, pooled)
        })
        .collect())
}

pub fn run(scale: &Scale) -> Result<(), BscopeError> {
    let bits = scale.n(20_000, 1_000);
    let runs = scale.n(10, 2);
    println!("average error rate transmitting {bits} bits per run, {runs} runs per cell");
    println!("predictor backend: {}\n", scale.backend);
    println!("{:<26} {:>8} {:>8} {:>8}", "", "All 0", "All 1", "Random");

    // Paper's Table 2 for side-by-side comparison.
    let paper: &[(&str, [f64; 3])] = &[
        ("SL isolated (paper)", [0.46, 0.51, 0.63]),
        ("SL with noise (paper)", [0.64, 0.63, 0.74]),
        ("Haswell isolated (paper)", [0.16, 0.27, 0.46]),
        ("Haswell noise (paper)", [0.37, 0.29, 0.67]),
        ("SB isolated (paper)", [0.68, 1.76, 2.44]),
        ("SB with noise (paper)", [1.76, 4.88, 3.38]),
    ];

    let ours = compute(scale, bits, runs)?;

    for (label, row, _) in &ours {
        println!("{:<26} {:>7.3}% {:>7.3}% {:>7.3}%", label, row[0], row[1], row[2]);
        for (payload, err) in ["all0", "all1", "random"].iter().zip(row) {
            scale.metric(format!("table2/{label}/{payload}_error_pct"), *err);
        }
    }
    println!();
    for (label, row) in paper {
        println!("{:<26} {:>7.2}% {:>7.2}% {:>7.2}%", label, row[0], row[1], row[2]);
    }

    println!("\nclaims:");
    let wrong = |row: usize| (ours[row].2.errors(), ours[row].2.total());
    for (machine, noisy) in [("Skylake", 1), ("Haswell", 3)] {
        let sentence = format!("{machine} with noise errs on below 1% of bits");
        let claim = Claim::below_bound(sentence, wrong(noisy), 0.01);
        scale.claim(&format!("table2/{machine} with noise below 1%"), &claim);
    }
    for (machine, noisy) in [("Skylake", 1), ("Haswell", 3)] {
        let sentence = format!("Sandy Bridge with noise errs more than {machine} with noise");
        let claim = Claim::below(sentence, wrong(noisy), wrong(5));
        scale.claim(&format!("table2/Sandy Bridge noisier than {machine}"), &claim);
    }
    for (machine, isolated) in [("Skylake", 0), ("Haswell", 2), ("Sandy Bridge", 4)] {
        let sentence = format!("{machine} isolated errs less than with noise");
        let claim = Claim::below(sentence, wrong(isolated), wrong(isolated + 1));
        scale.claim(&format!("table2/{machine} isolated below noisy"), &claim);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::assert_thread_count_invariant;

    /// The tentpole property on the real experiment: the table is
    /// bit-identical no matter how many workers computed it.
    #[test]
    fn table_is_thread_count_invariant() {
        assert_thread_count_invariant(|scale| compute(scale, 200, 2).expect("valid preset configs"));
    }

    /// Regression pin of one quick-scale cell (Skylake isolated / random
    /// payload): fails if the seed schedule, RNG, or simulator behaviour
    /// drifts. Update deliberately when any of those changes.
    #[test]
    fn quick_scale_cell_is_pinned() {
        let rows = compute(&Scale::quick(), 1_000, 2).expect("valid preset configs");
        let (label, row, _) = &rows[0];
        assert_eq!(label, "Skylake isolated");
        // Pinned value; update deliberately when the seed schedule, the
        // simulator, or the PRNG stream changes.
        let expected = 0.15;
        assert_eq!(row[2], expected, "Skylake isolated / random payload drifted");
    }
}
