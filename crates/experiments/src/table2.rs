//! Table 2: covert-channel error rates on three CPUs, isolated vs noisy.

use crate::common::Scale;
use crate::covert_cell::{covert_cells, CovertCell, Payload};
use bscope_bpu::MicroarchProfile;
use bscope_core::BscopeError;
use bscope_uarch::NoiseConfig;

const PAYLOADS: [Payload<'static>; 3] =
    [Payload::AllZero, Payload::AllOne, Payload::Random { salt: 0x7AB1E2 }];

/// Computes the full table: six machine/noise rows of three payload error
/// rates (in percent). All `6 rows x 3 payloads x runs` transmissions are
/// independent trials of [`covert_cells`]; the result is identical for
/// every thread count.
pub fn compute(scale: &Scale, bits: usize, runs: usize) -> Result<Vec<(String, [f64; 3])>, BscopeError> {
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
            let errors = std::array::from_fn(|payload| {
                100.0 * row[payload].iter().map(|r| r.error_rate).sum::<f64>() / runs as f64
            });
            (format!("{} {setting}", profile.arch), errors)
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

    for (label, row) in &ours {
        println!("{:<26} {:>7.3}% {:>7.3}% {:>7.3}%", label, row[0], row[1], row[2]);
        for (payload, err) in ["all0", "all1", "random"].iter().zip(row) {
            scale.metric(format!("table2/{label}/{payload}_error_pct"), *err);
        }
    }
    println!();
    for (label, row) in paper {
        println!("{:<26} {:>7.2}% {:>7.2}% {:>7.2}%", label, row[0], row[1], row[2]);
    }

    println!("\nshape checks:");
    let avg = |r: &[f64; 3]| (r[0] + r[1] + r[2]) / 3.0;
    let sl = (avg(&ours[0].1), avg(&ours[1].1));
    let hw = (avg(&ours[2].1), avg(&ours[3].1));
    let sb = (avg(&ours[4].1), avg(&ours[5].1));
    println!("  error rates below 1% on Skylake/Haswell: {}", sl.1 < 1.0 && hw.1 < 1.0);
    println!("  Sandy Bridge worse than Skylake & Haswell: {}", sb.1 > sl.1 && sb.1 > hw.1);
    println!(
        "  isolated <= noisy on every machine: {}",
        sl.0 <= sl.1 && hw.0 <= hw.1 && sb.0 <= sb.1
    );
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
        let (label, row) = &rows[0];
        assert_eq!(label, "Skylake isolated");
        // Pinned value; update deliberately when the seed schedule, the
        // simulator, or the PRNG stream changes.
        let expected = 0.15;
        assert_eq!(row[2], expected, "Skylake isolated / random payload drifted");
    }
}
