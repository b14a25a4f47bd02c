//! §9.2 attack applications: Montgomery-ladder key recovery, libjpeg IDCT
//! complexity recovery, and ASLR derandomization.

use crate::common::{trials, Scale};
use bscope_bpu::{MicroarchProfile, Outcome};
use bscope_core::{AttackConfig, BranchScope, BscopeError};
use bscope_harness::splitmix64;
use bscope_os::{AslrPolicy, System, Workload};
use bscope_uarch::{NoiseConfig, Tracer};
use bscope_victims::{
    recover_bits_from_trace, AslrVictim, CoefficientBlock, IdctVictim, MontgomeryLadder,
    SlidingWindowExp, VICTIM_BRANCH_OFFSET,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What one application's trial prints, and the metrics it records.
type AppReport = Result<(Vec<String>, Vec<(&'static str, f64)>), BscopeError>;

fn montgomery(_: &Scale, seed: u64, tracer: &mut Tracer) -> AppReport {
    let mut out = vec!["--- Montgomery ladder key recovery ---".to_owned()];
    let profile = MicroarchProfile::skylake();
    let mut sys = System::new(profile.clone(), seed).with_noise(NoiseConfig::isolated_core())?;
    let victim = sys.spawn("openssl-victim", AslrPolicy::Disabled);
    let spy = sys.spawn("spy", AslrPolicy::Disabled);
    let target = sys.process(victim).vaddr_of(VICTIM_BRANCH_OFFSET);

    let mut rng = StdRng::seed_from_u64(splitmix64(seed));
    let key: u64 = rng.gen::<u64>() | (1 << 63); // full 64-bit key
    let modulus = 0xFFFF_FFFF_FFC5; // a large prime-ish modulus
    let mut ladder = MontgomeryLadder::new(0x10001, key, modulus);
    let key_bits = ladder.key_bits();

    let mut attack = BranchScope::new(AttackConfig::for_profile(&profile))?;
    let reads = sys.with_tracer(tracer, |sys| {
        attack.read_bits(sys, spy, target, key_bits, |sys, _| {
            let mut cpu = sys.cpu(victim);
            ladder.step(&mut cpu);
        })
    });
    let recovered = MontgomeryLadder::key_from_outcomes(&reads);
    let wrong = (recovered ^ key).count_ones();
    out.push(format!("  secret key   : {key:#018x}"));
    out.push(format!("  recovered key: {recovered:#018x}"));
    out.push(format!(
        "  {}/{} key bits correct ({} wrong); victim computed {:#x}",
        key_bits - wrong as usize,
        key_bits,
        wrong,
        ladder.result().expect("ladder finished"),
    ));
    Ok((out, vec![("apps/montgomery/wrong_key_bits", f64::from(wrong))]))
}

fn jpeg(scale: &Scale, seed: u64, tracer: &mut Tracer) -> AppReport {
    let mut out = vec!["\n--- libjpeg IDCT zero-skip complexity recovery ---".to_owned()];
    let profile = MicroarchProfile::skylake();
    let mut sys = System::new(profile.clone(), seed);
    let victim = sys.spawn("libjpeg-victim", AslrPolicy::Disabled);
    let spy = sys.spawn("spy", AslrPolicy::Disabled);
    let target = sys.process(victim).vaddr_of(bscope_victims::IDCT_BRANCH_OFFSET);

    // A tiny "image": a row of blocks with increasing AC complexity.
    let mut rng = StdRng::seed_from_u64(splitmix64(seed));
    let n_blocks = scale.n(12, 6);
    let blocks: Vec<CoefficientBlock> = (0..n_blocks)
        .map(|i| {
            let mut coeffs = [[0i16; 8]; 8];
            coeffs[0][0] = 100;
            // Block i has AC energy in i random columns.
            for _ in 0..i {
                let c = rng.gen_range(0..8usize);
                let r = rng.gen_range(1..8usize);
                coeffs[r][c] = rng.gen_range(1..32i16);
            }
            CoefficientBlock::new(coeffs)
        })
        .collect();
    let mut victim_prog = IdctVictim::new(blocks);
    let truths: Vec<[bool; 8]> = (0..n_blocks).map(|b| victim_prog.ground_truth(b)).collect();

    let mut attack = BranchScope::new(AttackConfig::for_profile(&profile))?;
    let mut correct = 0usize;
    let fmt = |p: &[bool; 8]| p.iter().map(|&b| if b { '1' } else { '0' }).collect::<String>();
    out.push("  per-column AC-free pattern (1 = shortcut taken), recovered vs truth:".into());
    sys.with_tracer(tracer, |sys| {
        for truth in &truths {
            let mut recovered = [false; 8];
            for slot in recovered.iter_mut() {
                let outcome = attack.read_bit(sys, spy, target, |sys| {
                    let mut cpu = sys.cpu(victim);
                    victim_prog.step(&mut cpu);
                });
                *slot = outcome.is_taken();
            }
            correct += truth.iter().zip(&recovered).filter(|(a, b)| a == b).count();
            out.push(format!("    recovered {}   truth {}", fmt(&recovered), fmt(truth)));
        }
    });
    out.push(format!(
        "  {}/{} column flags recovered correctly — leaks which coefficients are non-zero,",
        correct,
        truths.len() * 8
    ));
    out.push("  i.e. the relative complexity of each pixel block (paper Sec. 9.2).".into());
    Ok((out, vec![("apps/jpeg/column_flags_correct", correct as f64)]))
}

fn aslr(scale: &Scale, seed: u64, tracer: &mut Tracer) -> AppReport {
    let mut out = vec!["\n--- ASLR derandomization via branch collisions ---".to_owned()];
    let profile = MicroarchProfile::skylake();
    let pht_size = profile.pht_size as u64;
    let mut sys = System::new(profile.clone(), seed);
    let victim = sys.spawn("aslr-victim", AslrPolicy::Randomized);
    let spy = sys.spawn("spy", AslrPolicy::Disabled);
    let true_base = sys.process(victim).code_base();
    let victim_addr = sys.process(victim).vaddr_of(VICTIM_BRANCH_OFFSET);
    let mut victim_prog = AslrVictim::new(Outcome::Taken);
    let mut attack = BranchScope::new(AttackConfig::for_profile(&profile))?;
    // The victim's taken branch leaves a BTB entry at its exact address;
    // phase 2 probes each candidate via the fetch-redirect timing of a
    // colliding spy branch, averaging k measurements to beat the ~14-cycle
    // signal's jitter (cf. the BTB-based ASLR attacks the paper builds on).
    let k = scale.n(45, 15);

    let candidates = sys.with_tracer(tracer, |sys| {
        // Phase 1: find the PHT congruence class of the victim's hot branch
        // by priming candidate entries SN and checking which one the
        // victim's taken branch disturbs (pure BranchScope collision
        // detection).
        let mut found_class = None;
        for class in 0..pht_size {
            // Candidate address in the spy's reach with this PHT index.
            let candidate = 0x7000_0000u64 + class;
            let read = attack.read_bit(sys, spy, candidate, |sys| {
                let mut cpu = sys.cpu(victim);
                victim_prog.step(&mut cpu);
            });
            if read == Outcome::Taken {
                found_class = Some(candidate & (pht_size - 1));
                break;
            }
        }
        let class = found_class.expect("collision class must exist");
        out.push(format!(
            "  phase 1: victim branch PHT index = {class:#x} (truth {:#x})",
            victim_addr & (pht_size - 1)
        ));

        // Phase 2: candidate bases are page-aligned and must satisfy
        // (base + offset) mod PHT == class; disambiguate the survivors via
        // BTB presence at the exact address (cf. the BTB ASLR attacks of
        // Sec. 9.2).
        let span = 1u64 << 28;
        let mut candidates: Vec<u64> = (0..span / 4096)
            .map(|k| 0x40_0000 + k * 4096)
            .filter(|base| (base + VICTIM_BRANCH_OFFSET) & (pht_size - 1) == class)
            .collect();
        out.push(format!(
            "  phase 2: {} page-aligned candidates remain after PHT filtering",
            candidates.len()
        ));
        candidates.retain(|&base| {
            let addr = base + VICTIM_BRANCH_OFFSET;
            let mut total = 0u64;
            for _ in 0..k {
                {
                    let mut cpu = sys.cpu(victim);
                    victim_prog.step(&mut cpu); // keep the victim's BTB entry warm
                }
                total += sys.cpu(spy).timed_branch_at_abs(addr, Outcome::Taken);
                // Evict what the probe installed so the next measurement
                // sees only the victim's entry (if any).
                sys.core_mut().bpu_mut().btb_mut().evict(addr);
            }
            (total as f64 / k as f64) < 92.0
        });
        candidates
    });
    out.push(format!(
        "  phase 2: {} candidate(s) after the BTB-presence pass (true base {true_base:#x})",
        candidates.len()
    ));
    let survives = candidates.contains(&true_base);
    out.push(if survives {
        format!(
            "  true base survives -> ASLR entropy reduced from {} pages to {}",
            1u64 << 16,
            candidates.len()
        )
    } else {
        "  (true base filtered out this run — timing noise; rerun with more passes)".into()
    });
    let metrics = vec![
        ("apps/aslr/candidates_left", candidates.len() as f64),
        ("apps/aslr/true_base_survives", f64::from(u8::from(survives))),
    ];
    Ok((out, metrics))
}

fn sliding_window(_: &Scale, seed: u64, tracer: &mut Tracer) -> AppReport {
    let mut out = vec!["\n--- sliding-window exponentiation: partial key recovery ---".to_owned()];
    let profile = MicroarchProfile::skylake();
    let mut sys = System::new(profile.clone(), seed);
    let victim = sys.spawn("libgcrypt-victim", AslrPolicy::Disabled);
    let spy = sys.spawn("spy", AslrPolicy::Disabled);
    let target = sys.process(victim).vaddr_of(VICTIM_BRANCH_OFFSET);

    let mut rng = StdRng::seed_from_u64(splitmix64(seed));
    let key: u64 = rng.gen::<u64>() | (1 << 63);
    let window = 4;
    let mut exp = SlidingWindowExp::new(0x1_0001, key, 0xFFFF_FFFF_FFC5, window);

    // The spy reads the square/multiply schedule one branch at a time.
    let mut attack = BranchScope::new(AttackConfig::for_profile(&profile))?;
    let mut observed = Vec::new();
    sys.with_tracer(tracer, |sys| {
        while exp.result().is_none() {
            let read = attack.read_bit(sys, spy, target, |sys| {
                let mut cpu = sys.cpu(victim);
                exp.step(&mut cpu);
            });
            observed.push(read);
        }
    });
    let known = recover_bits_from_trace(&observed, 64, window);
    let recovered = known.iter().filter(|b| b.is_some()).count();
    let correct = known
        .iter()
        .enumerate()
        .filter(|(i, b)| matches!(b, Some(v) if *v == ((key >> (63 - i)) & 1 == 1)))
        .count();
    out.push(format!("  secret key: {key:#018x} (window size {window})"));
    out.push(format!(
        "  square/multiply schedule of {} observations -> {recovered}/64 key bits recovered,",
        observed.len()
    ));
    out.push(format!(
        "  {correct}/{recovered} of them correct — \"limited information can still be\"",
    ));
    out.push("  \"recovered\" from windowed implementations (paper Sec. 9.2, citing [6]).".into());
    let metrics = vec![
        ("apps/sliding_window/bits_recovered", recovered as f64),
        ("apps/sliding_window/bits_correct", correct as f64),
    ];
    Ok((out, metrics))
}

pub fn run(scale: &Scale) -> Result<(), BscopeError> {
    // One trial per application, each on its own machine.
    // Each on a fresh machine seeded with the trial seed; secrets draw from
    // `splitmix64(seed)`.
    let apps: [fn(&Scale, u64, &mut Tracer) -> AppReport; 4] =
        [montgomery, jpeg, sliding_window, aslr];
    for report in trials(scale, 4, 0xA995, |i, seed, tracer| apps[i](scale, seed, tracer)) {
        let (lines, metrics) = report?;
        lines.iter().for_each(|line| println!("{line}"));
        metrics.into_iter().for_each(|(name, value)| scale.metric(name, value));
    }
    Ok(())
}
