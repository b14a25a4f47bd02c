//! Prior BTB-based branch predictor attacks (paper §11), used as baselines.
//!
//! The attacks preceding BranchScope all exploit the *branch target buffer*:
//! because the BTB installs an entry only when a branch is taken, the
//! presence or absence of an entry leaks the branch's direction, and
//! presence is observable through the front-end fetch-redirect bubble a
//! taken branch suffers on a BTB miss.
//!
//! * [`BtbTimingAttack`] — both prior attacks as one type. Each round the
//!   spy installs its own entry in the victim's BTB set, lets the victim
//!   run, and times one branch; the [`BtbSignal`] picks which. With
//!   [`BtbSignal::Shadowing`] (Lee et al. branch shadowing) the spy's
//!   shadow branch at the victim's address observes whether the victim's
//!   branch left a BTB entry. With [`BtbSignal::Eviction`] (Aciiçmez-style)
//!   the spy detects whether the victim's taken branch evicted its own
//!   entry. One calibration and one majority vote serve both;
//! * [`Attack::score`] — one [`Attack`] (BranchScope or either baseline)
//!   against the secret-branch victim on its own machine, with or without a
//!   BTB-flush defense, scored as a `bscope_core::Confusion` of secret ×
//!   read bits; [`ComparisonRow::from_scores`] pairs each attack's two
//!   settings into a row, reproducing the paper's claim that *BranchScope
//!   is not affected by defenses against BTB-based attacks*.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod btb_timing;
mod compare;

pub use btb_timing::{BtbSignal, BtbTimingAttack};
pub use compare::{Attack, ComparisonRow};
