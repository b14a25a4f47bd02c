//! Figure 7: measured latency of a single branch, correctly vs incorrectly
//! predicted, for both actual directions.

use crate::common::{mean, percentile, trials, Scale};
use bscope_bpu::{MicroarchProfile, Outcome, PhtState};
use bscope_core::BscopeError;
use bscope_os::{AslrPolicy, System};
use bscope_uarch::Tracer;

/// Times one branch whose prediction outcome is controlled exactly: the
/// entry is trained so its prediction agrees (hit) or disagrees (miss) with
/// the executed direction, and the instruction is warmed in the i-cache
/// first ("we executed each branch instance two times, but only recorded
/// the latency during the second execution").
fn samples(
    profile: &MicroarchProfile,
    executed: Outcome,
    mispredict: bool,
    n: usize,
    seed: u64,
    tracer: &mut Tracer,
) -> Vec<u64> {
    let mut sys = System::new(profile.clone(), seed);
    let pid = sys.spawn("bench", AslrPolicy::Disabled);
    sys.with_tracer(tracer, |sys| {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let addr = 0x100_0000 + sys.cpu(pid).counters().branches_retired * 7;
            let predicted = if mispredict { executed.flipped() } else { executed };
            let state = match predicted {
                Outcome::Taken => PhtState::StronglyTaken,
                Outcome::NotTaken => PhtState::StronglyNotTaken,
            };
            // Warm the i-cache with a first (untimed) execution, then force
            // the desired prediction and time the second execution.
            sys.cpu(pid).branch_at_abs(addr, predicted);
            sys.core_mut().bpu_mut().set_pht_state(addr, state);
            out.push(sys.cpu(pid).timed_branch_at_abs(addr, executed));
        }
        out
    })
}

pub fn run(scale: &Scale) -> Result<(), BscopeError> {
    let profile = MicroarchProfile::skylake();
    let n = scale.n(100_000, 5_000);
    println!("latency (cycles) of a single warmed branch, {n} samples per case\n");
    println!(
        "{:<26} {:>8} {:>6} {:>6} {:>6} {:>6}",
        "case", "mean", "p5", "p50", "p95", "p99"
    );
    let cases = [
        ("(a) not-taken, hit", Outcome::NotTaken, false),
        ("(a) not-taken, miss", Outcome::NotTaken, true),
        ("(b) taken, hit", Outcome::Taken, false),
        ("(b) taken, miss", Outcome::Taken, true),
    ];
    // One trial per case, each on its own machine.
    let per_case = trials(scale, cases.len(), 0xF167, |idx, seed, tracer| {
        let (_, executed, mispredict) = cases[idx];
        samples(&profile, executed, mispredict, n, seed, tracer)
    });
    let mut means = std::collections::HashMap::new();
    for ((label, _, _), mut v) in cases.into_iter().zip(per_case) {
        v.sort_unstable();
        let m = mean(&v);
        scale.metric(format!("fig7/{label}/mean_cycles"), m);
        means.insert(label, m);
        println!(
            "{label:<26} {m:>8.1} {:>6} {:>6} {:>6} {:>6}",
            percentile(&v, 5.0),
            percentile(&v, 50.0),
            percentile(&v, 95.0),
            percentile(&v, 99.0),
        );
    }
    println!("\npaper: a misprediction has a clearly visible latency penalty regardless of the");
    println!("       actual direction (avg miss well above avg hit, points up to ~200 cycles).");
    println!(
        "ours : miss-hit separation {:.1} cycles (not-taken), {:.1} cycles (taken).",
        means["(a) not-taken, miss"] - means["(a) not-taken, hit"],
        means["(b) taken, miss"] - means["(b) taken, hit"],
    );
    Ok(())
}
