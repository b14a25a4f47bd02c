//! Figure 5: PHT probing over address ranges — indexing granularity (a),
//! Hamming-distance size discovery (b), and aligned repetition (c).

use crate::common::{trials, Scale};
use bscope_bpu::MicroarchProfile;
use bscope_core::reverse::{
    candidate_windows, discover_pht_size, scan_states, GranularityReport,
};
use bscope_core::RandomizationBlock;
use bscope_core::BscopeError;
use bscope_harness::splitmix64;
use bscope_os::{AslrPolicy, System};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub fn run(scale: &Scale) -> Result<(), BscopeError> {
    let profile = MicroarchProfile::skylake();
    let pht_size = profile.pht_size;
    let count = 4 * pht_size;
    let windows = candidate_windows(count, pht_size, scale.n(50, 12));
    // One trial: the whole figure probes one machine. The block and the
    // window sampling draw from `splitmix64(seed)`.
    let (states, full, discovery) = trials(scale, 1, 0xF165, |_, seed, tracer| {
        let mut sys = System::new(profile.clone(), seed);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let mut rng = StdRng::seed_from_u64(splitmix64(seed));
        // A dense block so (nearly) every entry's post-block state is
        // start-independent; generated once and replayed, per §6.3.
        let block = RandomizationBlock::generate(rng.gen(), pht_size * 14, 0x70_0000);
        let (states, full) = sys.with_tracer(tracer, |sys| {
            // (a) granularity: 0x300000..0x30010f, as in the paper; (b) 2^16
            // contiguous addresses for the Hamming-ratio windows.
            (
                scan_states(sys, spy, &block, 0x30_0000, 0x110),
                scan_states(sys, spy, &block, 0x30_0000, count),
            )
        });
        let discovery = discover_pht_size(&full, &windows, 100, &mut rng);
        (states, full, discovery)
    })
    .remove(0);

    let report = GranularityReport::from_states(&states);
    println!("(a) states for addresses 0x300000..0x30010f");
    println!("    (T=ST t=WT n=WN N=SN d=dirty ?=unknown, one char per byte address):");
    let glyph = |s: &bscope_core::DecodedState| match s {
        bscope_core::DecodedState::Known(bscope_bpu::PhtState::StronglyTaken) => 'T',
        bscope_core::DecodedState::Known(bscope_bpu::PhtState::WeaklyTaken) => 't',
        bscope_core::DecodedState::Known(bscope_bpu::PhtState::WeaklyNotTaken) => 'n',
        bscope_core::DecodedState::Known(bscope_bpu::PhtState::StronglyNotTaken) => 'N',
        bscope_core::DecodedState::Dirty => 'd',
        bscope_core::DecodedState::Unknown => '?',
    };
    for chunk in states.chunks(64) {
        println!("    {}", chunk.iter().map(glyph).collect::<String>());
    }
    scale.metric("fig5/differing_fraction", report.differing_fraction());
    println!(
        "    adjacent addresses differ in {:.0}% of pairs -> byte-granular indexing\n",
        100.0 * report.differing_fraction()
    );

    println!("(b) Hamming-distance ratio H(w)/w over candidate windows:");
    for &(w, r) in discovery
        .ratios
        .iter()
        .filter(|(w, _)| w.is_power_of_two() || (*w as i64 - pht_size as i64).unsigned_abs() <= 3)
    {
        let marker = if w == discovery.inferred_size { "   <== minimum" } else { "" };
        println!("    w = {w:>6}: {r:.4}{marker}");
    }
    scale.metric("fig5/inferred_pht_size", discovery.inferred_size as f64);
    println!(
        "\npaper: minimum at window 2^14 => PHT size 16 384 entries.\nours : inferred size {} entries.\n",
        discovery.inferred_size
    );

    // (c) aligned rows, one PHT apart.
    println!("(c) first 48 states of each PHT-aligned row (rows should match):");
    for wrap in 0..(count / pht_size) {
        let row = &full[wrap * pht_size..wrap * pht_size + 48];
        println!(
            "    0x{:06x}..: {}",
            0x30_0000u64 + (wrap * pht_size) as u64,
            row.iter().map(glyph).collect::<String>()
        );
    }
    let periodic = (0..pht_size)
        .filter(|&i| (1..count / pht_size).all(|w| full[i] == full[w * pht_size + i]))
        .count();
    println!(
        "    {:.1}% of entries identical across all {} rows.",
        100.0 * periodic as f64 / pht_size as f64,
        count / pht_size
    );
    Ok(())
}
