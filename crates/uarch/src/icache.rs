//! A direct-mapped instruction cache model.

use bscope_bpu::VirtAddr;

/// Direct-mapped instruction cache tracking which code lines are resident.
///
/// Only *presence* matters for the reproduction: the paper's timing attack
/// (§8) executes "each branch instance two times, but only record\[s\] the
/// latency during the second execution, after the instruction has been
/// placed in the cache". The first touch of a line is reported cold; the
/// core feeds that into the [`timing`](crate::timing) model.
///
/// Each set holds the number (`addr >> 6`) of its resident line, or
/// `u64::MAX` when nothing is resident. A line number is below 2^58, so it
/// never equals the empty marker. Storing the whole line number instead
/// of a tag makes a touch one compare and one store, and a set one word.
#[derive(Debug, Clone)]
pub struct InstructionCache {
    lines: Vec<u64>,
    index_mask: u64,
}

/// The value of a set with no resident line.
const EMPTY: u64 = u64::MAX;

impl InstructionCache {
    /// Cache line size in bytes (x86: 64).
    pub const LINE_BYTES: u64 = 64;

    /// Creates a cache of `lines` lines of 64 bytes.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero or not a power of two.
    #[must_use]
    pub fn new(lines: usize) -> Self {
        assert!(lines.is_power_of_two(), "line count must be a power of two, got {lines}");
        InstructionCache { lines: vec![EMPTY; lines], index_mask: (lines - 1) as u64 }
    }

    /// A 512-line (32 KiB) L1i, the geometry of all three paper machines.
    #[must_use]
    pub fn l1i_default() -> Self {
        InstructionCache::new(512)
    }

    /// Accesses the line containing `addr`, filling it on a miss.
    /// Returns `true` on a hit (the line was already resident).
    pub fn touch(&mut self, addr: VirtAddr) -> bool {
        let line = addr / Self::LINE_BYTES;
        let set = &mut self.lines[(line & self.index_mask) as usize];
        let hit = *set == line;
        *set = line;
        hit
    }

    /// Flushes the whole cache (e.g. on a simulated context switch with a
    /// hostile OS, §9.2).
    pub fn flush(&mut self) {
        self.lines.fill(EMPTY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_second_hits() {
        let mut ic = InstructionCache::new(64);
        assert!(!ic.touch(0x1000));
        assert!(ic.touch(0x1000));
        assert!(ic.touch(0x1001), "same line");
    }

    #[test]
    fn distinct_lines_are_independent() {
        let mut ic = InstructionCache::new(64);
        ic.touch(0);
        assert!(!ic.touch(64), "next line is cold");
    }

    #[test]
    fn aliasing_lines_evict() {
        let mut ic = InstructionCache::new(64);
        ic.touch(0);
        // 64 lines of 64 B: addresses 64*64 bytes apart alias.
        ic.touch(64 * 64);
        assert!(!ic.touch(0), "original line evicted by alias");
    }

    #[test]
    fn flush_empties_cache() {
        let mut ic = InstructionCache::new(64);
        ic.touch(0x2000);
        ic.flush();
        assert!(!ic.touch(0x2000));
    }

    #[test]
    fn last_line_of_the_address_space_is_cold_then_hot() {
        // The largest line number, 2^58 - 1, must not read as the empty
        // marker (`u64::MAX`).
        let mut ic = InstructionCache::new(64);
        assert!(!ic.touch(u64::MAX));
        assert!(ic.touch(u64::MAX));
        assert!(ic.touch(u64::MAX - 63), "same line");
        ic.flush();
        assert!(!ic.touch(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = InstructionCache::new(100);
    }
}
