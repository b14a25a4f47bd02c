//! A TAGE-style predictor (Seznec & Michaud) — one of the direction
//! predictors behind [`PredictorBackend`](crate::PredictorBackend).
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
//! simply-indexed per-address counter. Here the base table is literally
//! the hybrid's bimodal PHT: a [`PatternHistoryTable`] of 2-bit counters,
//! indexed by `pc` modulo its size, starting weakly not-taken. Two
//! mechanisms make the fallback reachable to an attacker in practice:
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
//! The tests in this module document that the attack's prime/probe FSM
//! reasoning carries over to a TAGE base table, which is why hiding behind
//! "a more complex predictor" is not by itself a defense.
//! The full simulated stack can run on this substrate — build cores with
//! [`BackendKind::Tage`](crate::BackendKind) or pass `--bpu tage` to the
//! experiments binary (the `backend_sweep` experiment measures the live
//! attack against it).
//!
//! Each branch is looked up once. [`TagePredictor::lookup`] folds every
//! component's history once and records each component's index and tag,
//! the raw hit, the confident provider and the predicted direction;
//! [`PredictorBackend::execute`](crate::PredictorBackend::execute), the
//! only commit path, builds the prediction from that lookup and hands it to
//! [`TagePredictor::train`].

use crate::counter::{CounterKind, Outcome, PhtState};
use crate::ghr::GlobalHistoryRegister;
use crate::pht::PatternHistoryTable;
use crate::VirtAddr;

/// Tagged components (history lengths 4, 8, 16, 32).
const COMPONENTS: usize = 4;

/// One entry of a tagged TAGE component.
#[derive(Debug, Clone, Copy, Default)]
struct TageEntry {
    tag: u16,
    /// Signed 3-bit prediction counter: ≥0 predicts taken.
    ctr: i8,
    /// 2-bit usefulness counter guarding replacement.
    useful: u8,
}

/// Everything one branch's prediction and commit need, read once from the
/// tables by [`TagePredictor::lookup`] and reused by
/// [`TagePredictor::train`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct TageLookup {
    /// The branch's entry index in each tagged component.
    index: [usize; COMPONENTS],
    /// The branch's tag in each tagged component.
    tag: [u16; COMPONENTS],
    /// Longest component whose entry matches the tag, whatever its
    /// confidence (the raw *hit*, trained on every commit).
    hit: Option<usize>,
    /// Base-table index of the branch.
    base_index: usize,
    /// Predicted direction.
    pub(crate) direction: Outcome,
    /// Longest *confident* matching component, which provided `direction`
    /// (`None` = the base table provided it).
    pub(crate) provider: Option<usize>,
}

/// A TAGE predictor with a bimodal base table and four tagged components
/// over geometrically increasing history lengths.
#[derive(Debug, Clone)]
pub(crate) struct TagePredictor {
    /// Base table: the address-indexed PHT of 2-bit counters (the
    /// BranchScope target surface).
    base: PatternHistoryTable,
    /// Tagged components, each as large as the base table; component `i`
    /// hashes the last `4 << i` history bits.
    tables: [Vec<TageEntry>; COMPONENTS],
    /// Index mask of a tagged component.
    mask: u64,
    /// Index width in bits: the stride at which history is folded.
    width: u32,
    /// Simple LFSR state for allocation randomisation.
    lfsr: u64,
}

impl TagePredictor {
    /// Builds a TAGE predictor: a `base_size`-entry base table and four
    /// tagged tables of the same size with history lengths 4, 8, 16, 32.
    ///
    /// # Panics
    ///
    /// Panics if `base_size` is not a power of two.
    #[must_use]
    pub(crate) fn new(base_size: usize, seed: u64) -> Self {
        let base = PatternHistoryTable::new(base_size, CounterKind::TwoBit);
        let mask = (base_size - 1) as u64;
        TagePredictor {
            base,
            tables: std::array::from_fn(|_| vec![TageEntry::default(); base_size]),
            mask,
            width: mask.count_ones().max(1),
            lfsr: seed | 1,
        }
    }

    /// Architectural state of the base-table entry for `pc`.
    #[must_use]
    pub(crate) fn pht_state(&self, pc: VirtAddr) -> PhtState {
        self.base.state(self.base.index_of(pc))
    }

    /// Forces the base-table entry for `pc` into `state`.
    pub(crate) fn set_pht_state(&mut self, pc: VirtAddr, state: PhtState) {
        let idx = self.base.index_of(pc);
        self.base.set_state(idx, state);
    }

    /// Whether a tagged counter is *weak* (newly allocated or untrained):
    /// the two centre values of the signed 3-bit counter, which is exactly
    /// where [`TagePredictor::train`]'s allocation places new entries.
    fn is_weak(ctr: i8) -> bool {
        ctr == 0 || ctr == -1
    }

    /// Looks up `pc` under history `ghr`: folds each component's history
    /// once, then finds the raw hit, the provider and the prediction.
    ///
    /// Weak (newly-allocated) tagged entries do not provide: real TAGE
    /// consults the alternate prediction when the longest match has low
    /// confidence (Seznec's *use-alt-on-na* policy), so the walk skips weak
    /// matches down to the first confident component, falling back to the
    /// bimodal base table. A tagged entry must survive long enough to train
    /// to confidence before it takes over from the base — the property the
    /// BranchScope attacker leans on (see the module doc).
    #[must_use]
    pub(crate) fn lookup(&self, pc: VirtAddr, ghr: &GlobalHistoryRegister) -> TageLookup {
        let history = ghr.value();
        let base_index = self.base.index_of(pc);
        let mut lookup = TageLookup {
            index: [0; COMPONENTS],
            tag: [0; COMPONENTS],
            hit: None,
            base_index,
            direction: self.base.predict(base_index),
            provider: None,
        };
        for i in (0..COMPONENTS).rev() {
            // Fold the most recent `4 << i` bits into the index width.
            let mut rest = history & ((1 << (4 << i)) - 1);
            let mut folded = 0;
            while rest != 0 {
                folded ^= rest & self.mask;
                rest >>= self.width;
            }
            let index = ((pc ^ (pc >> 7) ^ folded) & self.mask) as usize;
            // A different hash than the index so aliasing sets have
            // distinct tags.
            let tag = (((pc >> 3) ^ pc ^ folded.rotate_left(5)) & 0x3ff) as u16;
            lookup.index[i] = index;
            lookup.tag[i] = tag;
            let e = self.tables[i][index];
            if e.tag == tag {
                lookup.hit = lookup.hit.or(Some(i));
                if lookup.provider.is_none() && !Self::is_weak(e.ctr) {
                    lookup.provider = Some(i);
                    lookup.direction = Outcome::from_bool(e.ctr >= 0);
                }
            }
        }
        lookup
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64
        self.lfsr ^= self.lfsr << 13;
        self.lfsr ^= self.lfsr >> 7;
        self.lfsr ^= self.lfsr << 17;
        self.lfsr
    }

    /// Commits one resolved branch from its [`lookup`](Self::lookup) under
    /// the same history: trains the longest matching tagged entry (and the
    /// base table when that entry was weak and the alternate provided) and
    /// allocates a longer-history entry on an effective misprediction.
    pub(crate) fn train(&mut self, lookup: &TageLookup, outcome: Outcome) {
        let mut train_base = lookup.hit.is_none();
        if let Some(i) = lookup.hit {
            let e = &mut self.tables[i][lookup.index[i]];
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
            self.base.update(lookup.base_index, outcome);
        }
        // On a misprediction, try to allocate an entry in a longer-history
        // component (classic TAGE allocation with usefulness guard). New
        // entries start weak, so they shadow nothing until trained.
        let start = lookup.hit.map_or(0, |i| i + 1);
        if lookup.direction != outcome && start < COMPONENTS {
            let pick = start + (self.next_rand() as usize) % (COMPONENTS - start);
            let e = &mut self.tables[pick][lookup.index[pick]];
            if e.useful == 0 {
                *e = TageEntry {
                    tag: lookup.tag[pick],
                    ctr: if outcome.is_taken() { 0 } else { -1 },
                    useful: 0,
                };
            } else {
                e.useful -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> (TagePredictor, GlobalHistoryRegister) {
        (TagePredictor::new(1_024, 99), GlobalHistoryRegister::new(64))
    }

    /// Looks up and trains one resolved branch under `ghr`, leaving the
    /// history as it is. Returns whether the prediction was correct.
    fn train(
        tage: &mut TagePredictor,
        ghr: &GlobalHistoryRegister,
        pc: VirtAddr,
        outcome: Outcome,
    ) -> bool {
        let lookup = tage.lookup(pc, ghr);
        tage.train(&lookup, outcome);
        lookup.direction == outcome
    }

    /// One dynamic branch: look up, train, shift the outcome into the
    /// history. Returns whether the prediction was correct.
    fn step(
        tage: &mut TagePredictor,
        ghr: &mut GlobalHistoryRegister,
        pc: VirtAddr,
        outcome: Outcome,
    ) -> bool {
        let correct = train(tage, ghr, pc, outcome);
        ghr.push(outcome);
        correct
    }

    #[test]
    fn new_branches_use_the_base_table() {
        let (tage, ghr) = fresh();
        assert_eq!(tage.lookup(0x40_006d, &ghr).provider, None, "cold branch → base table");
    }

    #[test]
    fn biased_branch_converges() {
        let (mut tage, mut ghr) = fresh();
        for _ in 0..6 {
            step(&mut tage, &mut ghr, 0x123, Outcome::Taken);
        }
        assert_eq!(tage.lookup(0x123, &ghr).direction, Outcome::Taken);
    }

    #[test]
    fn learns_alternation_beyond_the_base_table() {
        let (mut tage, mut ghr) = fresh();
        let mut outcome = Outcome::Taken;
        for _ in 0..600 {
            step(&mut tage, &mut ghr, 0x55, outcome);
            outcome = outcome.flipped();
        }
        let mut correct = 0;
        for _ in 0..100 {
            if step(&mut tage, &mut ghr, 0x55, outcome) {
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
                let outcome = Outcome::from_bool((k + i).is_multiple_of(3));
                step(tage, ghr, 0x7a_0000 + k * 131 + i * 3, outcome);
            }
        };
        // Prime: drive the base counter to strongly not-taken.
        for k in 0..3 {
            scramble(&mut tage, &mut ghr, k);
            train(&mut tage, &ghr, addr, Outcome::NotTaken);
        }
        assert_eq!(tage.pht_state(addr), PhtState::StronglyNotTaken);
        // Victim: one taken execution (under yet another history).
        scramble(&mut tage, &mut ghr, 10);
        train(&mut tage, &ghr, addr, Outcome::Taken);
        assert_eq!(tage.pht_state(addr), PhtState::WeaklyNotTaken, "the victim's direction is encoded");
        // Probe: two taken reads observe M then H — Table 1's MH row.
        scramble(&mut tage, &mut ghr, 20);
        let first = tage.lookup(addr, &ghr).provider.is_none()
            && tage.lookup(addr, &ghr).direction == Outcome::Taken;
        train(&mut tage, &ghr, addr, Outcome::Taken);
        scramble(&mut tage, &mut ghr, 30);
        let second = tage.lookup(addr, &ghr).provider.is_none()
            && tage.lookup(addr, &ghr).direction == Outcome::Taken;
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
            train(&mut tage, &ghr, 0x777, Outcome::Taken);
            ghr.push(Outcome::Taken);
        }
        assert_eq!(
            tage.pht_state(0x777 + 1_024).predicted(),
            Outcome::Taken,
            "alias sees a taken-leaning counter"
        );
        let mut fresh_hist = GlobalHistoryRegister::new(64);
        let unrelated = 0x9e37_79b9_7f4a_7c15u64;
        for bit in (0..64).rev() {
            fresh_hist.push(Outcome::from_bool(unrelated >> bit & 1 == 1));
        }
        assert_eq!(fresh_hist.value(), unrelated);
        // Under an unrelated history, the alias reads the base table.
        let p = tage.lookup(0x777 + 1_024, &fresh_hist);
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
            step(&mut tage, &mut ghr, 0x99, outcome);
            outcome = outcome.flipped();
        }
        let provided = tage.lookup(0x99, &ghr).provider;
        assert!(provided.is_some(), "an unpredictable branch must get a tagged entry");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_geometry() {
        let _ = TagePredictor::new(1_000, 1);
    }
}
