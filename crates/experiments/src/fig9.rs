//! Figure 9: probe-pair latency (first and second measurement) as a
//! function of the PHT entry's starting state, for both probe directions.

use crate::common::{trials, Scale};
use bscope_bpu::{MicroarchProfile, PhtState};
use bscope_core::timing_probe::probe_latency_by_state;
use bscope_core::{BscopeError, ProbeKind};
use bscope_os::{AslrPolicy, System};

pub fn run(scale: &Scale) -> Result<(), BscopeError> {
    let profile = MicroarchProfile::haswell();
    let reps = scale.n(5_000, 500);
    let mut states = PhtState::ALL; // printed from ST down to SN
    states.reverse();
    let kinds = [
        ("probe with two NOT-TAKEN branches", ProbeKind::NotTakenNotTaken),
        ("probe with two TAKEN branches", ProbeKind::TakenTaken),
    ];
    // One trial per probe kind × starting state, kind-major.
    let stats = trials(scale, kinds.len() * states.len(), 0xF169, |idx, seed, tracer| {
        let mut sys = System::new(profile.clone(), seed);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let (kind, state) = (kinds[idx / states.len()].1, states[idx % states.len()]);
        sys.with_tracer(tracer, |sys| probe_latency_by_state(sys, spy, state, kind, reps))
    });

    for ((title, kind), stats) in kinds.iter().zip(stats.chunks(states.len())) {
        println!("{title} ({reps} repetitions per state)");
        println!(
            "{:<10} {:>14} {:>14}   expected pattern",
            "state", "1st (cycles)", "2nd (cycles)"
        );
        for (state, stats) in states.iter().zip(stats) {
            let pin = |what: &str, value| {
                scale.metric(format!("fig9/{kind}/{}/{what}_mean_cycles", state.mnemonic()), value);
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
