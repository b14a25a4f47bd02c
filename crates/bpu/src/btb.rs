//! The branch target buffer (BTB).

use crate::VirtAddr;

/// One BTB entry: the tag of the owning branch and its last taken target.
#[derive(Debug, Clone, Copy)]
struct BtbEntry {
    /// Address tag distinguishing aliasing branches.
    tag: u64,
    /// Last recorded target address of the branch.
    target: VirtAddr,
}

/// A direct-mapped branch target buffer.
///
/// "A simple direct mapped cache of addresses that stores the last target
/// address of a branch that maps to each BTB entry" (paper §2). Per the
/// paper, the target "is updated only when the branch is taken" (§1), so a
/// BTB hit also tells the front end that this branch has recently been seen
/// taken — the presence signal the [`PredictorBackend`](crate::PredictorBackend)
/// uses to decide between 1-level and combined prediction (paper §5.1).
///
/// ```
/// use bscope_bpu::BranchTargetBuffer;
///
/// let mut btb = BranchTargetBuffer::new(1024);
/// btb.insert(0x40_0000, 0x40_0040);
/// assert_eq!(btb.lookup(0x40_0000), Some(0x40_0040));
/// assert_eq!(btb.lookup(0x41_0000), None);
/// ```
#[derive(Debug, Clone)]
pub struct BranchTargetBuffer {
    entries: Vec<Option<BtbEntry>>,
    mask: u64,
}

impl BranchTargetBuffer {
    /// Creates an empty BTB of `size` sets.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or not a power of two.
    #[must_use]
    pub fn new(size: usize) -> Self {
        assert!(size.is_power_of_two(), "BTB size must be a power of two, got {size}");
        BranchTargetBuffer { entries: vec![None; size], mask: (size - 1) as u64 }
    }

    fn index_of(&self, addr: VirtAddr) -> usize {
        (addr & self.mask) as usize
    }

    fn tag_of(&self, addr: VirtAddr) -> u64 {
        addr >> self.mask.count_ones()
    }

    /// Looks up the target for the branch at `addr`; `None` on a miss
    /// (empty set or tag mismatch).
    #[must_use]
    pub fn lookup(&self, addr: VirtAddr) -> Option<VirtAddr> {
        let entry = self.entries[self.index_of(addr)]?;
        (entry.tag == self.tag_of(addr)).then_some(entry.target)
    }

    /// Whether the branch at `addr` currently hits in the BTB.
    #[must_use]
    pub fn contains(&self, addr: VirtAddr) -> bool {
        self.lookup(addr).is_some()
    }

    /// Installs (or replaces) the entry for a taken branch, evicting any
    /// aliasing branch that occupied the set.
    pub fn insert(&mut self, addr: VirtAddr, target: VirtAddr) {
        let idx = self.index_of(addr);
        self.entries[idx] = Some(BtbEntry { tag: self.tag_of(addr), target });
    }

    /// Removes the entry for `addr` if present (tag must match).
    pub fn evict(&mut self, addr: VirtAddr) {
        if self.contains(addr) {
            let idx = self.index_of(addr);
            self.entries[idx] = None;
        }
    }

    /// Empties the whole BTB.
    pub fn clear(&mut self) {
        self.entries.fill(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn miss_on_empty() {
        let btb = BranchTargetBuffer::new(64);
        assert_eq!(btb.lookup(0x1000), None);
        assert!(!btb.contains(0x1000));
    }

    #[test]
    fn aliasing_branch_evicts() {
        let mut btb = BranchTargetBuffer::new(64);
        btb.insert(0x10, 0xAAAA);
        assert_eq!(btb.lookup(0x10), Some(0xAAAA));
        // 0x10 + 64 maps to the same set with a different tag.
        btb.insert(0x10 + 64, 0xBBBB);
        assert_eq!(btb.lookup(0x10), None, "victim entry evicted");
        assert_eq!(btb.lookup(0x10 + 64), Some(0xBBBB));
    }

    #[test]
    fn tag_mismatch_is_a_miss_without_eviction() {
        let mut btb = BranchTargetBuffer::new(64);
        btb.insert(0x10, 0xAAAA);
        assert_eq!(btb.lookup(0x10 + 64), None);
        assert_eq!(btb.lookup(0x10), Some(0xAAAA), "entry still present");
    }

    #[test]
    fn evict_requires_matching_tag() {
        let mut btb = BranchTargetBuffer::new(64);
        btb.insert(0x10, 0xAAAA);
        btb.evict(0x10 + 64);
        assert_eq!(btb.lookup(0x10), Some(0xAAAA), "an alias evicts nothing");
        btb.evict(0x10);
        assert!(!btb.contains(0x10));
    }

    #[test]
    fn clear_empties_every_set() {
        let mut btb = BranchTargetBuffer::new(64);
        btb.insert(1, 2);
        btb.insert(2, 3);
        assert!(btb.contains(1) && btb.contains(2));
        btb.clear();
        assert!(!btb.contains(1) && !btb.contains(2));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = BranchTargetBuffer::new(100);
    }

    /// lookup after insert returns the inserted target for the same
    /// address.
    #[test]
    fn insert_then_lookup() {
        for case in 0..64 {
            let mut rng = StdRng::seed_from_u64(case);
            let (addr, target) = (rng.gen(), rng.gen());
            let mut btb = BranchTargetBuffer::new(1024);
            btb.insert(addr, target);
            assert_eq!(btb.lookup(addr), Some(target), "case {case} (seed {case}): {addr:#x}");
        }
    }

    /// Filling with more branches than sets bounds occupancy by size —
    /// the eviction pressure the randomization block relies on.
    #[test]
    fn occupancy_bounded() {
        for case in 0..64 {
            let mut rng = StdRng::seed_from_u64(case);
            let addrs: Vec<u64> = (0..rng.gen_range(0..3000)).map(|_| rng.gen()).collect();
            let mut btb = BranchTargetBuffer::new(256);
            for &a in &addrs {
                btb.insert(a, a.wrapping_add(4));
            }
            let mut present: Vec<u64> = addrs.into_iter().filter(|&a| btb.contains(a)).collect();
            present.sort_unstable();
            present.dedup();
            assert!(present.len() <= 256, "case {case} (seed {case}): {} present", present.len());
        }
    }
}
