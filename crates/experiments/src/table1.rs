//! Table 1: FSM transitions for a single PHT entry, derived from the FSM
//! model *and* verified empirically through the attack's own probe channel.

use crate::common::{trials, Scale};
use bscope_bpu::{CounterKind, MicroarchProfile, PhtState};
use bscope_core::{
    fsm_transition_row, probe_with_counters, table1, BscopeError, ProbeKind, ProbePattern,
    Table1Row,
};
use bscope_os::{AslrPolicy, System};
use bscope_uarch::Tracer;

/// Empirically reproduces one Table 1 row on a fresh machine using only
/// attacker-visible operations: execute the prime branches, the target
/// branch, then the two probe branches with the misprediction counter.
fn empirical_observation(
    profile: &MicroarchProfile,
    row: &Table1Row,
    seed: u64,
    tracer: &mut Tracer,
) -> ProbePattern {
    let mut sys = System::new(profile.clone(), seed);
    let pid = sys.spawn("probe", AslrPolicy::Disabled);
    let addr = sys.process(pid).vaddr_of(0x6d);
    // Fresh entries start weakly not-taken; force the paper's "no previous
    // history" starting point explicitly for exactness.
    sys.core_mut().bpu_mut().set_pht_state(addr, PhtState::WeaklyNotTaken);
    sys.with_tracer(tracer, |sys| {
        for _ in 0..3 {
            sys.cpu(pid).branch_at_abs(addr, row.prime);
        }
        sys.cpu(pid).branch_at_abs(addr, row.target);
        probe_with_counters(&mut sys.cpu(pid), addr, row.probe)
    })
}

pub fn run(scale: &Scale) -> Result<(), BscopeError> {
    let machines = [
        ("Haswell / Sandy Bridge (2-bit counter)", "2-bit", MicroarchProfile::haswell()),
        ("Skylake (asymmetric counter)", "asymmetric", MicroarchProfile::skylake()),
    ];
    // One trial per machine × row of its eight-row table, machine-major.
    let measured = trials(scale, 2 * 8, 0x7AB1, |idx, seed, tracer| {
        let profile = &machines[idx / 8].2;
        empirical_observation(profile, &table1(profile.counter_kind)[idx % 8], seed, tracer)
    });
    for ((label, counter, profile), measured) in machines.iter().zip(measured.chunks(8)) {
        println!("{label}");
        println!("Prime | after | Target | after | Probe | model | measured");
        let mut matching = 0;
        for (row, &measured) in table1(profile.counter_kind).iter().zip(measured) {
            let matches = measured == row.observation;
            matching += usize::from(matches);
            let marker = if matches { "" } else { "  <-- MISMATCH" };
            let p = row.prime.letter();
            let t = row.target.letter();
            println!(
                "{p}{p}{p}   |  {:>2}   |   {t}    |  {:>2}   |  {}   |  {}   |  {}{marker}",
                row.state_after_prime,
                row.state_after_target,
                row.probe,
                row.observation,
                measured,
            );
        }
        scale.metric(format!("table1/{counter}/rows_matching_model"), matching as f64);
        println!();
    }

    // The footnote: the one row that differs between the two counters.
    let hsw = fsm_transition_row(
        CounterKind::TwoBit,
        bscope_bpu::Outcome::Taken,
        bscope_bpu::Outcome::NotTaken,
        ProbeKind::NotTakenNotTaken,
    );
    let sky = fsm_transition_row(
        CounterKind::SkylakeAsymmetric,
        bscope_bpu::Outcome::Taken,
        bscope_bpu::Outcome::NotTaken,
        ProbeKind::NotTakenNotTaken,
    );
    println!(
        "footnote 1: TTT|ST|N|WT|NN observes {} on Haswell/Sandy Bridge and {} on Skylake,",
        hsw.observation, sky.observation
    );
    println!("making ST and WT indistinguishable on Skylake — as the paper reports.");
    Ok(())
}
