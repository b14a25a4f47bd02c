//! PHT reverse engineering (paper §6.3, Fig. 5).
//!
//! By decoding the PHT state behind a range of virtual addresses the
//! attacker learns the organisation of the table itself: the indexing
//! granularity (adjacent byte addresses land in different entries, Fig. 5a)
//! and — via the Hamming-distance window analysis of Eqs. 1–4 — the table
//! size (the window at which the state vector repeats, 2^14 on the paper's
//! machine, Fig. 5b/c).

use crate::decode::{decode_state, DecodedState};
use crate::probe::{probe_with_counters, ProbeKind};
use crate::randomize::RandomizationBlock;
use bscope_bpu::{Outcome, VirtAddr};
use bscope_os::{Pid, System};
use rand::Rng;

/// Decodes the PHT states behind `count` consecutive virtual addresses
/// starting at `start`, using the paper's procedure: execute the (fixed)
/// randomization block, place-and-execute a branch at each address, then
/// probe each address and translate the two probing variants' patterns
/// into states.
///
/// Because the block's outcomes are fixed, re-executing it re-establishes
/// the same PHT image, so the TT and NN probing passes observe the same
/// underlying states. Ranges wider than the PHT are processed one
/// table-wrap at a time (re-randomizing before each wrap) so that aliasing
/// addresses are probed against a freshly restored image — physically, the
/// repetition across wraps *is* the signal Fig. 5c visualises.
pub fn scan_states(
    sys: &mut System,
    spy: Pid,
    block: &RandomizationBlock,
    start: VirtAddr,
    count: usize,
) -> Vec<DecodedState> {
    let pht_size = sys.core().profile().pht_size;
    let counter_kind = sys.core().profile().counter_kind;
    let mut tt = Vec::with_capacity(count);
    let mut nn = Vec::with_capacity(count);
    for (kind, out) in
        [(ProbeKind::TakenTaken, &mut tt), (ProbeKind::NotTakenNotTaken, &mut nn)]
    {
        let mut done = 0usize;
        while done < count {
            let chunk = (count - done).min(pht_size);
            let base = start + done as u64;
            block.execute(&mut sys.cpu(spy));
            // Place-and-execute one branch per address (§6.3 step 2). The
            // direction is a fixed function of the address so both probing
            // passes replay identical executions.
            for i in 0..chunk {
                let addr = base + i as u64;
                let outcome = Outcome::from_bool(addr.wrapping_mul(0x9e37_79b9) & 4 != 0);
                sys.cpu(spy).branch_at_abs(addr, outcome);
            }
            for i in 0..chunk {
                out.push(probe_with_counters(&mut sys.cpu(spy), base + i as u64, kind));
            }
            done += chunk;
        }
    }
    tt.into_iter().zip(nn).map(|(t, n)| decode_state(counter_kind, t, n)).collect()
}

/// Mean Hamming distance between sampled subvector pairs of window size
/// `w`, divided by `w` (the paper's H(w)/w ratio, Eqs. 2–3). At most
/// `max_pairs` random pairs are evaluated ("instead of trying all possible
/// permutations, we computed Hamming distances of 100 random permutations
/// for each window size").
///
/// # Panics
///
/// Panics if `w` is zero or the vector holds fewer than two windows.
fn hamming_ratio<R: Rng + ?Sized>(
    states: &[DecodedState],
    w: usize,
    max_pairs: usize,
    rng: &mut R,
) -> f64 {
    assert!(w > 0, "window size must be positive");
    let windows = states.len() / w;
    assert!(windows >= 2, "need at least two windows of size {w} in {} states", states.len());
    let total_pairs = windows * (windows - 1) / 2;
    let mut sum = 0usize;
    let mut pairs = 0usize;
    if total_pairs <= max_pairs {
        for a in 0..windows {
            for b in a + 1..windows {
                sum += hamming(&states[a * w..(a + 1) * w], &states[b * w..(b + 1) * w]);
                pairs += 1;
            }
        }
    } else {
        while pairs < max_pairs {
            let a = rng.gen_range(0..windows);
            let b = rng.gen_range(0..windows);
            if a == b {
                continue;
            }
            sum += hamming(&states[a * w..(a + 1) * w], &states[b * w..(b + 1) * w]);
            pairs += 1;
        }
    }
    sum as f64 / (pairs as f64 * w as f64)
}

fn hamming(a: &[DecodedState], b: &[DecodedState]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// Result of the PHT-size discovery (Eq. 4 and Fig. 5b).
#[derive(Debug, Clone, PartialEq)]
pub struct PhtSizeDiscovery {
    /// `(window, H(w)/w)` for every evaluated window, in evaluation order.
    pub ratios: Vec<(usize, f64)>,
    /// The window minimising the ratio — the inferred PHT size. Ties go to
    /// the smallest window, as Eq. 4 specifies.
    pub inferred_size: usize,
}

/// Evaluates the Hamming ratio for every window in `windows` and returns
/// the minimiser (the paper's Size_PHT = argmin_w H(w)/w).
///
/// # Panics
///
/// Panics if `windows` is empty or any window does not fit twice into the
/// state vector.
pub fn discover_pht_size<R: Rng + ?Sized>(
    states: &[DecodedState],
    windows: &[usize],
    max_pairs: usize,
    rng: &mut R,
) -> PhtSizeDiscovery {
    assert!(!windows.is_empty(), "need at least one candidate window");
    let ratios: Vec<(usize, f64)> =
        windows.iter().map(|&w| (w, hamming_ratio(states, w, max_pairs, rng))).collect();
    let inferred_size = ratios
        .iter()
        .fold((usize::MAX, f64::INFINITY), |best, &(w, r)| {
            if r < best.1 || (r == best.1 && w < best.0) {
                (w, r)
            } else {
                best
            }
        })
        .0;
    PhtSizeDiscovery { ratios, inferred_size }
}

/// Candidate windows for a two-phase size search over a vector of `len`
/// states: every power of two that fits twice, plus a dense band of
/// `±dense_halfwidth` around `focus` (the paper's Fig. 5b zooms into
/// 16 300–16 450 around the true size).
#[must_use]
pub fn candidate_windows(len: usize, focus: usize, dense_halfwidth: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut w = 2;
    while w * 2 <= len {
        out.push(w);
        w *= 2;
    }
    let lo = focus.saturating_sub(dense_halfwidth).max(2);
    let hi = (focus + dense_halfwidth).min(len / 2);
    for w in lo..=hi {
        if !out.contains(&w) {
            out.push(w);
        }
    }
    out
}

/// Summary of a Fig. 5a-style granularity scan: how often adjacent
/// addresses decode to different states.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GranularityReport {
    /// Number of adjacent address pairs examined.
    pub pairs: usize,
    /// Pairs whose decoded states differ.
    pub differing: usize,
}

impl GranularityReport {
    /// Builds the report from a scanned state vector.
    #[must_use]
    pub fn from_states(states: &[DecodedState]) -> Self {
        let differing = states.windows(2).filter(|w| w[0] != w[1]).count();
        GranularityReport { pairs: states.len().saturating_sub(1), differing }
    }

    /// Fraction of adjacent pairs in different states. A value well above
    /// zero demonstrates byte-granular indexing (cache-line-granular
    /// indexing would pin this near zero within 64-byte runs).
    #[must_use]
    pub fn differing_fraction(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            self.differing as f64 / self.pairs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bscope_bpu::{CounterKind, Microarch, MicroarchProfile, PhtState};
    use bscope_os::AslrPolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A small machine so scans stay fast in debug builds.
    fn small_profile() -> MicroarchProfile {
        MicroarchProfile {
            arch: Microarch::Custom,
            pht_size: 1_024,
            counter_kind: CounterKind::TwoBit,
            ghr_bits: 10,
            selector_size: 256,
            btb_size: 256,
        }
    }

    fn setup() -> (System, Pid) {
        let mut sys = System::new(small_profile(), 55);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        (sys, spy)
    }

    #[test]
    fn scan_decodes_mostly_known_states_with_byte_granularity() {
        let (mut sys, spy) = setup();
        let block = RandomizationBlock::generate(5, 14 * 1_024, 0x70_0000);
        let states = scan_states(&mut sys, spy, &block, 0x30_0000, 0x110);
        assert_eq!(states.len(), 0x110);
        let known = states.iter().filter(|s| matches!(s, DecodedState::Known(_))).count();
        assert!(known * 10 >= states.len() * 8, "≥80% known states, got {known}/{}", states.len());
        let report = GranularityReport::from_states(&states);
        assert!(
            report.differing_fraction() > 0.3,
            "adjacent addresses must frequently differ (got {:.3})",
            report.differing_fraction()
        );
    }

    #[test]
    fn scan_repeats_with_pht_period() {
        let (mut sys, spy) = setup();
        let block = RandomizationBlock::generate(6, 14 * 1_024, 0x70_0000);
        let n = 4 * 1_024;
        let states = scan_states(&mut sys, spy, &block, 0x30_0000, n);
        // Fig. 5c: rows one PHT apart are identical (no noise configured).
        let matches = (0..1_024)
            .filter(|&i| {
                states[i] == states[i + 1_024]
                    && states[i] == states[i + 2 * 1_024]
                    && states[i] == states[i + 3 * 1_024]
            })
            .count();
        assert!(matches * 10 >= 1_024 * 9, "≥90% periodic entries, got {matches}/1024");
    }

    #[test]
    fn hamming_discovery_finds_the_pht_size() {
        let (mut sys, spy) = setup();
        let block = RandomizationBlock::generate(7, 14 * 1_024, 0x70_0000);
        let states = scan_states(&mut sys, spy, &block, 0x30_0000, 4 * 1_024);
        let windows = candidate_windows(states.len(), 1_024, 40);
        let mut rng = StdRng::seed_from_u64(1);
        let discovery = discover_pht_size(&states, &windows, 100, &mut rng);
        assert_eq!(discovery.inferred_size, 1_024, "ratios: {:?}", &discovery.ratios[..8]);
    }

    #[test]
    fn hamming_ratio_zero_for_perfectly_periodic_vector() {
        let period: Vec<DecodedState> = (0..64)
            .map(|i| DecodedState::Known(PhtState::ALL[i % 4]))
            .collect();
        let mut v = Vec::new();
        for _ in 0..4 {
            v.extend_from_slice(&period);
        }
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(hamming_ratio(&v, 64, 100, &mut rng), 0.0);
        assert!(hamming_ratio(&v, 63, 100, &mut rng) > 0.2, "misaligned window is noisy");
    }

    #[test]
    fn candidate_windows_contain_powers_and_band() {
        let ws = candidate_windows(65_536, 16_384, 50);
        assert!(ws.contains(&2) && ws.contains(&16_384) && ws.contains(&16_383));
        assert!(ws.iter().all(|&w| (2..=32_768).contains(&w)));
    }

    #[test]
    fn granularity_report_counts() {
        use DecodedState::Known;
        let states = [
            Known(PhtState::StronglyTaken),
            Known(PhtState::StronglyTaken),
            Known(PhtState::StronglyNotTaken),
            DecodedState::Dirty,
        ];
        let r = GranularityReport::from_states(&states);
        assert_eq!(r.pairs, 3);
        assert_eq!(r.differing, 2);
    }

    #[test]
    #[should_panic(expected = "at least two windows")]
    fn hamming_rejects_oversized_window() {
        let v = vec![DecodedState::Dirty; 10];
        let mut rng = StdRng::seed_from_u64(3);
        let _ = hamming_ratio(&v, 6, 10, &mut rng);
    }
}
