//! A fixed reference computation, timed beside the workload, that turns
//! host times into reference-speed times.
//!
//! Other tenants of a shared host change how fast it runs: on the 2-vCPU
//! host of the baseline, the same pass ran up to a third slower for minutes
//! at a time, and no single run can average that out. The slowdown hits any
//! computation of the same kind alike, so the benchmark times a small
//! branch-predictor step of its own between passes. Dividing a pass's time
//! by the reference times on either side of it and multiplying by
//! [`NOMINAL_S`] gives the pass's time at the reference speed: what it takes
//! on the baseline host at the kernel's nominal time. The kernel is the
//! benchmark's own code, so no change to the simulator moves it.

use std::hint::black_box;
use std::time::Instant;

/// Predictor steps in one reference run.
pub const STEPS: u64 = 6_000_000;

/// Wall seconds of one reference run on the baseline host (2-vCPU Intel
/// Xeon at 2.1 GHz, release build; it measured 0.022–0.029 s there as the
/// host's load changed): the speed that reference-speed times are stated at.
pub const NOMINAL_S: f64 = 0.025;

/// A gshare-style step over a pseudo-random branch stream: a 16K-entry
/// table of 2-bit counters indexed by address and global history, and a
/// 4K-entry target buffer. The same kind of work as a simulated branch,
/// with data-dependent host branches. Returns a checksum of the run.
#[must_use]
pub fn run(steps: u64) -> u64 {
    let mut pht = vec![1u8; 1 << 14];
    let mut btb = vec![0u64; 1 << 12];
    let (mut state, mut ghr, mut sum) = (0x9E37_79B9_7F4A_7C15u64, 0u64, 0u64);
    for _ in 0..steps {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        // A few hundred hot branch addresses, mostly taken.
        let addr = 0x40_0000 + ((state >> 32) & 0x3FF) * 4;
        let taken = state & 7 != 0;
        let idx = ((addr >> 2 ^ ghr) & 0x3FFF) as usize;
        let counter = pht[idx];
        if (counter >= 2) != taken {
            sum = sum.wrapping_mul(31).wrapping_add(idx as u64);
        }
        pht[idx] = if taken {
            (counter + 1).min(3)
        } else {
            counter.saturating_sub(1)
        };
        ghr = (ghr << 1 | u64::from(taken)) & 0xFFFF;
        let slot = ((addr >> 2) & 0xFFF) as usize;
        if btb[slot] != addr {
            btb[slot] = addr;
            sum += 1;
        }
    }
    sum ^ pht.iter().map(|&c| u64::from(c)).sum::<u64>()
}

/// Times reference runs on as many threads as the workload uses, so the
/// reference meets the host as the passes do.
#[derive(Debug)]
pub struct Reference {
    threads: usize,
    checksum: u64,
}

impl Reference {
    /// A reference for `threads` workers; makes one untimed warm-up run.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Reference {
            threads: threads.max(1),
            checksum: run(black_box(STEPS)),
        }
    }

    /// Wall seconds of one reference run on every thread at once.
    ///
    /// # Panics
    ///
    /// Panics if a run's checksum differs from the warm-up's: the kernel is
    /// deterministic, so that would mean it did not do its fixed work.
    #[must_use]
    pub fn time(&self) -> f64 {
        let start = Instant::now();
        let sums: Vec<u64> = std::thread::scope(|s| {
            let workers: Vec<_> = (1..self.threads)
                .map(|_| s.spawn(|| run(black_box(STEPS))))
                .collect();
            let mut sums = vec![run(black_box(STEPS))];
            sums.extend(
                workers
                    .into_iter()
                    .map(|w| w.join().expect("reference run")),
            );
            sums
        });
        let seconds = start.elapsed().as_secs_f64();
        assert!(
            sums.iter().all(|&s| s == self.checksum),
            "reference checksum changed"
        );
        seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_deterministic_and_sized_by_steps() {
        assert_eq!(run(10_000), run(10_000));
        assert_ne!(run(10_000), run(20_000));
        let reference = Reference::new(2);
        assert!(reference.time() > 0.0);
    }
}
