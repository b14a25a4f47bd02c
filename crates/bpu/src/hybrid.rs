//! The paper's direction predictor — Figure 1 without the front end.
//!
//! [`PredictorBackend`](crate::PredictorBackend) owns the BTB, GHR and
//! statistics; this module holds only what is specific to the hybrid: the
//! 1-level (bimodal) PHT indexed by the branch address (Smith, 1981), the
//! 2-level (gshare) PHT indexed by the address XORed with the global
//! history (McFarling, 1993), and the selector table arbitrating between
//! them.
//!
//! Because the bimodal index is a pure function of the branch address,
//! cross-process collisions there are trivial to establish — the property
//! BranchScope exploits once it has forced the BPU into 1-level mode. The
//! gshare index depends on the GHR, so the same static branch occupies a
//! different entry for every history context, which is why it converges
//! slowly on new branches (§5.1) and resists attacker collisions.

use crate::counter::{Outcome, PhtState};
use crate::ghr::GlobalHistoryRegister;
use crate::pht::PatternHistoryTable;
use crate::profile::MicroarchProfile;
use crate::selector::SelectorTable;
use crate::VirtAddr;

/// What the hybrid's components answer for one branch, read by
/// [`Hybrid::predict`] and handed back to [`Hybrid::train`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct HybridLookup {
    /// What the bimodal PHT predicts.
    bimodal: Outcome,
    /// What the gshare PHT predicts under the current history.
    gshare: Outcome,
    /// Whether the selector chose gshare.
    pub(crate) use_gshare: bool,
}

impl HybridLookup {
    /// The chosen component's direction.
    #[inline]
    pub(crate) fn direction(&self) -> Outcome {
        if self.use_gshare {
            self.gshare
        } else {
            self.bimodal
        }
    }
}

/// Bimodal + gshare PHTs and the selector table.
///
/// # Selection logic
///
/// The paper's §5.1 experiments establish that *branches with no accumulated
/// history are predicted by the 1-level predictor*, with the 2-level
/// predictor taking over only after several repetitions of a learnable
/// pattern. The BTB is the presence signal: a branch that misses in the BTB
/// is predicted by the bimodal PHT alone; a branch that hits is arbitrated
/// by the selector, which restarts strongly bimodal whenever the branch's
/// BTB entry is allocated and migrates per branch as gshare proves more
/// accurate.
#[derive(Debug, Clone)]
pub(crate) struct Hybrid {
    bimodal: PatternHistoryTable,
    gshare: PatternHistoryTable,
    selector: SelectorTable,
}

impl Hybrid {
    /// Power-on state for a validated profile.
    pub(crate) fn new(profile: &MicroarchProfile) -> Self {
        Hybrid {
            bimodal: PatternHistoryTable::new(profile.pht_size, profile.counter_kind),
            gshare: PatternHistoryTable::new(profile.pht_size, profile.counter_kind),
            selector: SelectorTable::new(profile.selector_size),
        }
    }

    /// Both components' answers for the branch at `addr` and the choice
    /// between them; the selector is consulted only for BTB-resident
    /// branches.
    #[inline]
    pub(crate) fn predict(
        &self,
        addr: VirtAddr,
        ghr: &GlobalHistoryRegister,
        btb_hit: bool,
    ) -> HybridLookup {
        HybridLookup {
            bimodal: self.bimodal.predict(self.bimodal.index_of(addr)),
            gshare: self.gshare.predict(self.gshare.index_of(addr ^ ghr.value())),
            use_gshare: btb_hit && self.selector.prefers_gshare(addr),
        }
    }

    /// Trains both PHTs (gshare under the history that produced `lookup`)
    /// and, for BTB-resident branches, the selector. The selector observes
    /// component accuracy only for branches it actually arbitrates; this
    /// keeps single-shot spy branches from perturbing chooser state,
    /// matching the paper's "new branch ⇒ 1-level" behaviour.
    #[inline]
    pub(crate) fn train(
        &mut self,
        addr: VirtAddr,
        ghr: &GlobalHistoryRegister,
        outcome: Outcome,
        lookup: &HybridLookup,
        btb_hit: bool,
    ) {
        let b = self.bimodal.index_of(addr);
        self.bimodal.update(b, outcome);
        let g = self.gshare.index_of(addr ^ ghr.value());
        self.gshare.update(g, outcome);
        if btb_hit {
            self.selector.train(addr, lookup.bimodal == outcome, lookup.gshare == outcome);
        }
    }

    /// Restarts the chooser for `addr` strongly bimodal. Selection state is
    /// allocated per branch together with its BTB entry, so a branch whose
    /// entry was evicted re-enters the BPU as a new branch, chooser
    /// included — what makes §5.1's 1-level behaviour hold *stably*.
    pub(crate) fn restart_chooser(&mut self, addr: VirtAddr) {
        self.selector.restart(addr);
    }

    /// Architectural state of the bimodal PHT entry for `addr`.
    pub(crate) fn pht_state(&self, addr: VirtAddr) -> PhtState {
        self.bimodal.state(self.bimodal.index_of(addr))
    }

    /// Forces the bimodal PHT entry for `addr` into `state`.
    pub(crate) fn set_pht_state(&mut self, addr: VirtAddr, state: PhtState) {
        let b = self.bimodal.index_of(addr);
        self.bimodal.set_state(b, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::CounterKind;
    use crate::Microarch;

    fn small() -> Hybrid {
        Hybrid::new(&MicroarchProfile {
            arch: Microarch::Custom,
            pht_size: 1_024,
            counter_kind: CounterKind::TwoBit,
            ghr_bits: 10,
            selector_size: 256,
            btb_size: 256,
        })
    }

    /// One dynamic branch with the given BTB presence: predict, train,
    /// shift the history. Returns `(bimodal_correct, gshare_correct)`.
    fn step(
        h: &mut Hybrid,
        ghr: &mut GlobalHistoryRegister,
        addr: VirtAddr,
        outcome: Outcome,
        btb_hit: bool,
    ) -> (bool, bool) {
        let lookup = h.predict(addr, ghr, btb_hit);
        h.train(addr, ghr, outcome, &lookup, btb_hit);
        ghr.push(outcome);
        (lookup.bimodal == outcome, lookup.gshare == outcome)
    }

    #[test]
    fn gshare_learns_alternation_the_bimodal_pht_cannot() {
        // A strict T,N,T,N... pattern is unlearnable by a bimodal counter
        // but trivially learnable by gshare once per-context counters warm
        // up — the premise of the paper's Fig. 2 experiment.
        let (mut h, mut ghr) = (small(), GlobalHistoryRegister::new(8));
        let mut outcome = Outcome::Taken;
        for _ in 0..32 {
            step(&mut h, &mut ghr, 0x1234, outcome, false);
            outcome = outcome.flipped();
        }
        let mut bimodal_hits = 0;
        for _ in 0..32 {
            let (bimodal, gshare) = step(&mut h, &mut ghr, 0x1234, outcome, false);
            assert!(gshare, "gshare predicts every alternation");
            bimodal_hits += usize::from(bimodal);
            outcome = outcome.flipped();
        }
        assert!(bimodal_hits <= 16, "bimodal is at best a coin flip: {bimodal_hits}/32");
    }

    #[test]
    fn gshare_trains_only_the_current_history_context() {
        let (mut h, mut ghr) = (small(), GlobalHistoryRegister::new(6));
        let trained = h.gshare.index_of(10 ^ ghr.value());
        step(&mut h, &mut ghr, 10, Outcome::Taken, false);
        assert_eq!(h.gshare.state(trained), PhtState::WeaklyTaken);
        let other = h.gshare.index_of(10 ^ ghr.value());
        assert_ne!(trained, other);
        assert_eq!(h.gshare.state(other), PhtState::WeaklyNotTaken);
    }

    #[test]
    fn selector_moves_only_for_btb_resident_branches() {
        // An alternating branch: gshare wins every disagreement once warm.
        let run = |btb_hit: bool| {
            let (mut h, mut ghr) = (small(), GlobalHistoryRegister::new(8));
            let mut outcome = Outcome::Taken;
            for _ in 0..64 {
                step(&mut h, &mut ghr, 0x300, outcome, btb_hit);
                outcome = outcome.flipped();
            }
            h.predict(0x300, &ghr, true).use_gshare
        };
        assert!(!run(false), "BTB misses never train the chooser");
        assert!(run(true), "resident branches migrate");
    }

    #[test]
    fn restart_chooser_and_set_pht_state_override_training() {
        let (mut h, mut ghr) = (small(), GlobalHistoryRegister::new(8));
        let mut outcome = Outcome::Taken;
        for _ in 0..64 {
            step(&mut h, &mut ghr, 0x300, outcome, true);
            outcome = outcome.flipped();
        }
        h.restart_chooser(0x300);
        assert!(!h.predict(0x300, &ghr, true).use_gshare);
        h.set_pht_state(0x300 + 1_024, PhtState::StronglyTaken);
        assert_eq!(h.pht_state(0x300), PhtState::StronglyTaken, "aliases share an entry");
        assert_eq!(h.predict(0x300, &ghr, false).bimodal, Outcome::Taken);
    }
}
