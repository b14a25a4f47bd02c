//! Figure 9: probe-pair latency (first and second measurement) as a
//! function of the PHT entry's starting state, for both probe directions.

use crate::common::{metric, Scale};
use bscope_bpu::{MicroarchProfile, PhtState};
use bscope_core::timing_probe::probe_latency_by_state;
use bscope_core::{BscopeError, ProbeKind};
use bscope_os::{AslrPolicy, System};

pub fn run(scale: &Scale) -> Result<(), BscopeError> {
    let profile = MicroarchProfile::haswell();
    let reps = scale.n(5_000, 500);
    for (title, kind) in [
        ("probe with two NOT-TAKEN branches", ProbeKind::NotTakenNotTaken),
        ("probe with two TAKEN branches", ProbeKind::TakenTaken),
    ] {
        println!("{title} ({reps} repetitions per state)");
        println!(
            "{:<10} {:>14} {:>14}   expected pattern",
            "state", "1st (cycles)", "2nd (cycles)"
        );
        for state in [
            PhtState::StronglyTaken,
            PhtState::WeaklyTaken,
            PhtState::WeaklyNotTaken,
            PhtState::StronglyNotTaken,
        ] {
            let mut sys = System::new(profile.clone(), scale.seed);
            let spy = sys.spawn("spy", AslrPolicy::Disabled);
            let stats = probe_latency_by_state(&mut sys, spy, state, kind, reps);
            let pin = |what: &str, value| {
                metric(format!("fig9/{kind}/{}/{what}_mean_cycles", state.mnemonic()), value);
            };
            pin("first", stats.first_mean);
            pin("second", stats.second_mean);
            println!(
                "{:<10} {:>7.1} ±{:>4.1} {:>7.1} ±{:>4.1}   {}({})",
                state.mnemonic(),
                stats.first_mean,
                stats.first_std,
                stats.second_mean,
                stats.second_std,
                state.mnemonic(),
                stats.expected,
            );
        }
        println!();
    }
    println!("paper: the four states are reliably distinguishable from the probe timings,");
    println!("       e.g. probing NN: ST(MM), WT(MH), WN(HH), SN(HH); probing TT mirrors it.");
    Ok(())
}
