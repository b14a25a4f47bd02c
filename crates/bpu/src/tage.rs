//! A TAGE-style predictor (Seznec & Michaud) — a first-class predictor
//! backend (wrapped by [`TageBackend`](crate::TageBackend)).
//!
//! The paper attacks a bimodal+gshare hybrid, but notes modern predictors
//! are "complex hybrid predictors with unknown organization" (§1). TAGE is
//! the canonical modern design: a base bimodal table plus several *tagged*
//! tables indexed with geometrically growing history lengths; the longest
//! matching tagged entry provides the prediction and new branches fall back
//! to the base table.
//!
//! That fallback is exactly the property BranchScope exploits in the
//! hybrid: a branch the tagged tables have never seen is predicted by a
//! simply-indexed per-address counter. Two mechanisms make the fallback
//! reachable to an attacker in practice:
//!
//! 1. **Weak entries do not provide** (Seznec's *use-alt-on-na*): a
//!    newly-allocated tagged entry starts at one of the two centre counter
//!    values, and a weak provider is skipped in favour of the alternate
//!    prediction — ultimately the base table. A freshly primed base
//!    counter therefore keeps answering probes even after the attack's
//!    own branches allocate tagged entries for the target.
//! 2. **The tagged index hash is XOR-linear in the PC**, so a spy can
//!    compute (offline, the paper's §6.2 "one-time effort" collision
//!    search extended to the tagged tables) an *alias family* of
//!    addresses that collide with the target's slot in every tagged
//!    component while missing its base-table slot — bursts of alias
//!    branches evict stale confident tagged entries that would otherwise
//!    shadow the base table.
//!
//! The tests in this module (and the `ablation_substrate_throughput`
//! bench) document that the attack's prime/probe FSM reasoning carries
//! over to a TAGE base table, which is why hiding behind "a more complex
//! predictor" is not by itself a defense.
//! The full simulated stack can run on this substrate — build cores with
//! [`BackendKind::Tage`](crate::BackendKind) or pass `--bpu tage` to the
//! experiments binary (the `backend_sweep` experiment measures the live
//! attack against it).

use crate::counter::Outcome;
use crate::ghr::GlobalHistoryRegister;
use crate::VirtAddr;

/// One entry of a tagged TAGE component.
#[derive(Debug, Clone, Copy, Default)]
struct TageEntry {
    tag: u16,
    /// Signed 3-bit prediction counter: ≥0 predicts taken.
    ctr: i8,
    /// 2-bit usefulness counter guarding replacement.
    useful: u8,
}

/// One tagged component table.
#[derive(Debug, Clone)]
struct TageTable {
    entries: Vec<TageEntry>,
    history_len: u32,
    mask: u64,
}

impl TageTable {
    fn fold_history(&self, ghr: &GlobalHistoryRegister) -> u64 {
        // Fold the most recent `history_len` bits into the index width.
        let hist = ghr.value() & if self.history_len >= 64 { u64::MAX } else { (1 << self.history_len) - 1 };
        let width = self.mask.count_ones().max(1);
        let mut folded = 0u64;
        let mut rest = hist;
        while rest != 0 {
            folded ^= rest & self.mask;
            rest >>= width;
        }
        folded
    }

    fn index(&self, pc: VirtAddr, ghr: &GlobalHistoryRegister) -> usize {
        ((pc ^ (pc >> 7) ^ self.fold_history(ghr)) & self.mask) as usize
    }

    fn tag(&self, pc: VirtAddr, ghr: &GlobalHistoryRegister) -> u16 {
        // A different hash than the index so aliasing sets have distinct tags.
        (((pc >> 3) ^ pc ^ self.fold_history(ghr).rotate_left(5)) & 0x3ff) as u16
    }
}

/// Result of a TAGE lookup (exposed for tests and analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagePrediction {
    /// Predicted direction.
    pub direction: Outcome,
    /// Index of the providing tagged table (`None` = base bimodal table).
    pub provider: Option<usize>,
}

/// A TAGE predictor with a bimodal base table and `N` tagged components
/// over geometrically increasing history lengths.
///
/// ```
/// use bscope_bpu::{GlobalHistoryRegister, Outcome, TagePredictor};
///
/// let mut ghr = GlobalHistoryRegister::new(64);
/// let mut tage = TagePredictor::new(1_024, 4, 42);
/// for _ in 0..8 {
///     tage.execute(0x40_0000, &mut ghr, Outcome::Taken);
/// }
/// assert_eq!(tage.predict(0x40_0000, &ghr).direction, Outcome::Taken);
/// ```
#[derive(Debug, Clone)]
pub struct TagePredictor {
    /// Base table: 2-bit counters indexed by address (the BranchScope
    /// target surface).
    base: Vec<u8>,
    base_mask: u64,
    tables: Vec<TageTable>,
    /// Simple LFSR state for allocation randomisation.
    lfsr: u64,
}

impl TagePredictor {
    /// Builds a TAGE predictor: a `base_size`-entry base table and
    /// `components` tagged tables of the same size with history lengths
    /// 4, 8, 16, … (geometric, ratio 2).
    ///
    /// # Panics
    ///
    /// Panics if `base_size` is not a power of two or `components == 0`.
    #[must_use]
    pub fn new(base_size: usize, components: usize, seed: u64) -> Self {
        assert!(base_size.is_power_of_two(), "base size must be a power of two");
        assert!(components > 0, "need at least one tagged component");
        let tables = (0..components)
            .map(|i| TageTable {
                entries: vec![TageEntry::default(); base_size],
                history_len: 4 << i,
                mask: (base_size - 1) as u64,
            })
            .collect();
        TagePredictor {
            base: vec![1; base_size], // weakly not-taken
            base_mask: (base_size - 1) as u64,
            tables,
            lfsr: seed | 1,
        }
    }

    /// Number of tagged components.
    #[must_use]
    pub fn components(&self) -> usize {
        self.tables.len()
    }

    /// Base-table index for `pc` — address-only, byte-granular, exactly
    /// like the hybrid's bimodal PHT.
    #[must_use]
    pub fn base_index(&self, pc: VirtAddr) -> usize {
        (pc & self.base_mask) as usize
    }

    /// Raw base-table counter (0–3) for `pc`.
    #[must_use]
    pub fn base_counter(&self, pc: VirtAddr) -> u8 {
        self.base[self.base_index(pc)]
    }

    /// Forces the base-table counter for `pc` (clamped to 0–3) — the
    /// ground-truth hook backing
    /// [`PredictorBackend::set_pht_state`](crate::PredictorBackend::set_pht_state).
    pub fn set_base_counter(&mut self, pc: VirtAddr, counter: u8) {
        let idx = self.base_index(pc);
        self.base[idx] = counter.min(3);
    }

    /// Whether a tagged counter is *weak* (newly allocated or untrained):
    /// the two centre values of the signed 3-bit counter, which is exactly
    /// where [`TagePredictor::train`]'s allocation places new entries.
    fn is_weak(ctr: i8) -> bool {
        ctr == 0 || ctr == -1
    }

    /// Longest tagged component whose entry matches `pc` under `ghr`,
    /// regardless of confidence (the raw *hit*, trained on every commit).
    fn hit(&self, pc: VirtAddr, ghr: &GlobalHistoryRegister) -> Option<usize> {
        (0..self.tables.len()).rev().find(|&i| {
            let t = &self.tables[i];
            t.entries[t.index(pc, ghr)].tag == t.tag(pc, ghr)
        })
    }

    /// Looks up the prediction for `pc` under history `ghr`.
    ///
    /// Weak (newly-allocated) tagged entries do not provide: real TAGE
    /// consults the alternate prediction when the longest match has low
    /// confidence (Seznec's *use-alt-on-na* policy), so the walk skips weak
    /// matches down to the first confident component, falling back to the
    /// bimodal base table. A tagged entry must survive long enough to train
    /// to confidence before it takes over from the base — the property the
    /// BranchScope attacker leans on (see the module doc).
    #[must_use]
    pub fn predict(&self, pc: VirtAddr, ghr: &GlobalHistoryRegister) -> TagePrediction {
        for i in (0..self.tables.len()).rev() {
            let t = &self.tables[i];
            let e = t.entries[t.index(pc, ghr)];
            if e.tag == t.tag(pc, ghr) && !Self::is_weak(e.ctr) {
                return TagePrediction {
                    direction: Outcome::from_bool(e.ctr >= 0),
                    provider: Some(i),
                };
            }
        }
        TagePrediction {
            direction: Outcome::from_bool(self.base[self.base_index(pc)] >= 2),
            provider: None,
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64
        self.lfsr ^= self.lfsr << 13;
        self.lfsr ^= self.lfsr >> 7;
        self.lfsr ^= self.lfsr << 17;
        self.lfsr
    }

    /// Commits one resolved branch: trains the longest matching tagged
    /// entry (and the base table when that entry was weak and the alternate
    /// provided — see [`TagePredictor::predict`]) and allocates a
    /// longer-history entry on an effective misprediction.
    pub fn train(&mut self, pc: VirtAddr, ghr: &GlobalHistoryRegister, outcome: Outcome) {
        let correct = self.predict(pc, ghr).direction == outcome;
        let hit = self.hit(pc, ghr);
        let mut train_base = hit.is_none();
        if let Some(i) = hit {
            let idx = self.tables[i].index(pc, ghr);
            let e = &mut self.tables[i].entries[idx];
            // The alternate (here: the base) supplied the prediction while
            // this entry was weak, so the base keeps training too — the
            // entry only takes the branch over once it reaches confidence.
            train_base = Self::is_weak(e.ctr);
            let own_correct = Outcome::from_bool(e.ctr >= 0) == outcome;
            e.ctr = (e.ctr + if outcome.is_taken() { 1 } else { -1 }).clamp(-4, 3);
            if own_correct {
                e.useful = (e.useful + 1).min(3);
            } else {
                e.useful = e.useful.saturating_sub(1);
            }
        }
        if train_base {
            let idx = self.base_index(pc);
            let c = &mut self.base[idx];
            *c = if outcome.is_taken() { (*c + 1).min(3) } else { c.saturating_sub(1) };
        }
        // On a misprediction, try to allocate an entry in a longer-history
        // component (classic TAGE allocation with usefulness guard). New
        // entries start weak, so they shadow nothing until trained.
        if !correct {
            let start = hit.map_or(0, |i| i + 1);
            if start < self.tables.len() {
                let pick = start + (self.next_rand() as usize) % (self.tables.len() - start);
                let (idx, tag) = {
                    let t = &self.tables[pick];
                    (t.index(pc, ghr), t.tag(pc, ghr))
                };
                let e = &mut self.tables[pick].entries[idx];
                if e.useful == 0 {
                    *e = TageEntry { tag, ctr: if outcome.is_taken() { 0 } else { -1 }, useful: 0 };
                } else {
                    e.useful -= 1;
                }
            }
        }
    }

    /// Predict, train and shift the outcome into the history — one dynamic
    /// branch. Returns whether the prediction was correct.
    pub fn execute(
        &mut self,
        pc: VirtAddr,
        ghr: &mut GlobalHistoryRegister,
        outcome: Outcome,
    ) -> bool {
        let prediction = self.predict(pc, ghr);
        self.train(pc, ghr, outcome);
        ghr.push(outcome);
        prediction.direction == outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> (TagePredictor, GlobalHistoryRegister) {
        (TagePredictor::new(1_024, 4, 99), GlobalHistoryRegister::new(64))
    }

    #[test]
    fn new_branches_use_the_base_table() {
        let (tage, ghr) = fresh();
        assert_eq!(tage.predict(0x40_006d, &ghr).provider, None, "cold branch → base table");
    }

    #[test]
    fn biased_branch_converges() {
        let (mut tage, mut ghr) = fresh();
        for _ in 0..6 {
            tage.execute(0x123, &mut ghr, Outcome::Taken);
        }
        assert_eq!(tage.predict(0x123, &ghr).direction, Outcome::Taken);
    }

    #[test]
    fn learns_alternation_beyond_the_base_table() {
        let (mut tage, mut ghr) = fresh();
        let mut outcome = Outcome::Taken;
        for _ in 0..600 {
            tage.execute(0x55, &mut ghr, outcome);
            outcome = outcome.flipped();
        }
        let mut correct = 0;
        for _ in 0..100 {
            if tage.execute(0x55, &mut ghr, outcome) {
                correct += 1;
            }
            outcome = outcome.flipped();
        }
        assert!(correct >= 90, "tagged tables should master T/N alternation: {correct}/100");
    }

    /// The BranchScope premise survives TAGE: for a branch the tagged
    /// tables have never seen (fresh tags), the base table — indexed purely
    /// by address — behaves exactly like the hybrid's bimodal PHT, so the
    /// paper's prime (saturate) → victim (one update) → probe (two reads)
    /// reasoning still applies.
    #[test]
    fn branchscope_fsm_reasoning_holds_on_the_base_table() {
        let (mut tage, mut ghr) = fresh();
        let addr = 0x30_0000u64;
        // The attacker scrambles the global history between every step, so
        // any tagged entry a misprediction allocates is allocated under a
        // history context that never recurs — the probes always fall back
        // to the address-indexed base table.
        let scramble = |tage: &mut TagePredictor, ghr: &mut GlobalHistoryRegister, k: u64| {
            for i in 0..24u64 {
                tage.execute(0x7a_0000 + k * 131 + i * 3, ghr, Outcome::from_bool((k + i).is_multiple_of(3)));
            }
        };
        // Prime: drive the base counter to strongly not-taken.
        for k in 0..3 {
            scramble(&mut tage, &mut ghr, k);
            tage.train(addr, &ghr, Outcome::NotTaken);
        }
        assert_eq!(tage.base_counter(addr), 0, "SN");
        // Victim: one taken execution (under yet another history).
        scramble(&mut tage, &mut ghr, 10);
        tage.train(addr, &ghr, Outcome::Taken);
        assert_eq!(tage.base_counter(addr), 1, "WN — the victim's direction is encoded");
        // Probe: two taken reads observe M then H — Table 1's MH row.
        scramble(&mut tage, &mut ghr, 20);
        let first = tage.predict(addr, &ghr).provider.is_none()
            && tage.predict(addr, &ghr).direction == Outcome::Taken;
        tage.train(addr, &ghr, Outcome::Taken);
        scramble(&mut tage, &mut ghr, 30);
        let second = tage.predict(addr, &ghr).provider.is_none()
            && tage.predict(addr, &ghr).direction == Outcome::Taken;
        assert!(!first && second, "MH signature survives on the TAGE base table");
    }

    #[test]
    fn cross_address_collision_in_base_table() {
        // Same-index addresses collide in the base table — the attack's
        // collision primitive carries over. (The first misprediction also
        // allocates a tagged entry, which diverts *same-history* training,
        // so saturate under changing histories as a real program would.)
        let (mut tage, mut ghr) = fresh();
        for _ in 0..6 {
            tage.train(0x777, &ghr, Outcome::Taken);
            ghr.push(Outcome::Taken);
        }
        assert!(tage.base_counter(0x777 + 1_024) >= 2, "alias sees a taken-leaning counter");
        let mut fresh_hist = GlobalHistoryRegister::new(64);
        fresh_hist.scramble(&mut rand::rngs::mock::StepRng::new(0x9e3779b97f4a7c15, 0x517c_c1b7_2722_0a95));
        // Under an unrelated history, the alias reads the base table.
        let p = tage.predict(0x777 + 1_024, &fresh_hist);
        if p.provider.is_none() {
            assert_eq!(p.direction, Outcome::Taken);
        }
    }

    #[test]
    fn allocation_respects_usefulness() {
        let (mut tage, mut ghr) = fresh();
        // Repeated mispredictions allocate tagged entries eventually.
        let mut outcome = Outcome::Taken;
        for _ in 0..64 {
            tage.execute(0x99, &mut ghr, outcome);
            outcome = outcome.flipped();
        }
        let provided = tage.predict(0x99, &ghr).provider;
        assert!(provided.is_some(), "an unpredictable branch must get a tagged entry");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_geometry() {
        let _ = TagePredictor::new(1_000, 4, 1);
    }
}
