//! A sentence of the paper checked against our counts by a G-test at
//! [`Confusion::G_CRITICAL`] (p < 0.001): it "holds" only when the sample
//! shows it, and is "not resolved" when the sample is too small to tell.

use bscope_core::Confusion;
use std::f64::consts::LN_2;
use std::fmt;

/// The smallest leak, in bits per read, that a no-leak claim must be able
/// to see before it holds: `2 · n · ln 2 · 0.05 > 10.83` needs n ≥ 157.
const MIN_LEAK_BITS: f64 = 0.05;

/// What the counts say about a claim; the discriminant is the value
/// recorded under `claims/...`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Holds = 1,
    NotResolved = 0,
    Contradicted = -1,
}

/// A checked sentence.
#[derive(Clone, Debug, PartialEq)]
pub struct Claim {
    pub sentence: String,
    pub verdict: Verdict,
    /// Reads, or trials summed over both sides of an ordering.
    pub n: u64,
    /// The G statistic the verdict came from.
    pub g: f64,
}

impl Claim {
    /// "The reads in `table` carry nothing about what was sent": holds when
    /// the table does not leak and a leak of [`MIN_LEAK_BITS`] would have
    /// shown, and is contradicted when the table leaks.
    pub fn no_leak(sentence: impl Into<String>, table: &Confusion) -> Self {
        let (n, g) = (table.total(), table.g_statistic());
        let min_reads = (Confusion::G_CRITICAL / (2.0 * LN_2 * MIN_LEAK_BITS)).ceil() as u64;
        let verdict = match (table.leaks(), n >= min_reads) {
            (true, _) => Verdict::Contradicted,
            (false, true) => Verdict::Holds,
            (false, false) => Verdict::NotResolved,
        };
        Claim { sentence: sentence.into(), verdict, n, g }
    }

    /// "The reads in `table` carry the secret": the no-leak test reversed.
    pub fn leak(sentence: impl Into<String>, table: &Confusion) -> Self {
        let claim = Claim::no_leak(sentence, table);
        let verdict = match claim.verdict {
            Verdict::Holds => Verdict::Contradicted,
            Verdict::Contradicted => Verdict::Holds,
            Verdict::NotResolved => Verdict::NotResolved,
        };
        Claim { verdict, ..claim }
    }

    /// "Side A is wrong less often than side B", from each side's
    /// `(wrong, total)`: a G-test on the sides × (wrong, right) table.
    pub fn below(sentence: impl Into<String>, a: (u64, u64), b: (u64, u64)) -> Self {
        let table = Confusion { counts: [[a.0, a.1 - a.0], [b.0, b.1 - b.0]] };
        let agrees = (a.0 as f64 / a.1 as f64) < b.0 as f64 / b.1 as f64;
        Claim::ordered(sentence.into(), table.total(), table.g_statistic(), agrees)
    }

    /// "Side A is wrong in less than `bound` of its `(wrong, total)`
    /// trials": the G-test of its (wrong, right) counts against the counts
    /// `bound` expects.
    pub fn below_bound(
        sentence: impl Into<String>,
        (wrong, total): (u64, u64),
        bound: f64,
    ) -> Self {
        let expected = [bound, 1.0 - bound].map(|p| p * total as f64);
        let g = [wrong, total - wrong]
            .into_iter()
            .zip(expected)
            .filter(|&(o, _)| o > 0)
            .map(|(o, e)| 2.0 * o as f64 * (o as f64 / e).ln())
            .sum();
        Claim::ordered(sentence.into(), total, g, (wrong as f64) < expected[0])
    }

    /// Holds or is contradicted when `g` is significant, as the observed
    /// order agrees with the claim or not; otherwise not resolved.
    fn ordered(sentence: String, n: u64, g: f64, agrees: bool) -> Self {
        let verdict = match (g > Confusion::G_CRITICAL, agrees) {
            (false, _) => Verdict::NotResolved,
            (true, true) => Verdict::Holds,
            (true, false) => Verdict::Contradicted,
        };
        Claim { sentence, verdict, n, g }
    }
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = match self.verdict {
            Verdict::Holds => "holds",
            Verdict::NotResolved => "not resolved",
            Verdict::Contradicted => "contradicted",
        };
        write!(f, "{verdict} at n = {}: {} (G = {:.1})", self.n, self.sentence, self.g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(counts: [[u64; 2]; 2]) -> Confusion {
        Confusion { counts }
    }

    #[test]
    fn a_no_leak_claim_needs_157_reads_to_hold() {
        // A constant decoder shows no leak; 156 reads cannot yet rule out
        // 0.05 bits per read, 157 can.
        let few = Claim::no_leak("blocks", &table([[0, 78], [0, 78]]));
        assert_eq!((few.verdict, few.n), (Verdict::NotResolved, 156));
        let enough = Claim::no_leak("blocks", &table([[0, 78], [0, 79]]));
        assert_eq!((enough.verdict, enough.n), (Verdict::Holds, 157));
        // Partitioned (4) at quick scale: the reads leak.
        let leaky = Claim::no_leak("blocks", &table([[0, 205], [93, 102]]));
        assert_eq!(leaky.verdict, Verdict::Contradicted);
        assert!(leaky.g > Confusion::G_CRITICAL);
    }

    #[test]
    fn a_leak_claim_reverses_the_no_leak_test() {
        let read = table([[200, 0], [0, 200]]);
        assert_eq!(Claim::leak("reads", &read).verdict, Verdict::Holds);
        let blind = table([[0, 100], [0, 100]]);
        assert_eq!(Claim::leak("reads", &blind).verdict, Verdict::Contradicted);
        let small = table([[3, 2], [2, 3]]);
        assert_eq!(Claim::leak("reads", &small).verdict, Verdict::NotResolved);
    }

    #[test]
    fn orderings_need_a_significant_difference() {
        let holds = Claim::below("a below b", (10, 1_000), (60, 1_000));
        assert_eq!((holds.verdict, holds.n), (Verdict::Holds, 2_000));
        let reversed = Claim::below("b below a", (60, 1_000), (10, 1_000));
        assert_eq!(reversed.verdict, Verdict::Contradicted);
        assert!((reversed.g - holds.g).abs() < 1e-9);
        // fig2 at quick scale: 616 against 597 mispredictions of 10 000.
        let close = Claim::below("a below b", (616, 10_000), (597, 10_000));
        assert_eq!(close.verdict, Verdict::NotResolved);
    }

    #[test]
    fn bounds_are_tested_against_the_counts_they_expect() {
        // No error in 6 000 reads rules out a 0.1% error rate; none in 600
        // does not.
        assert_eq!(Claim::below_bound("", (0, 6_000), 0.001).verdict, Verdict::Holds);
        assert_eq!(Claim::below_bound("", (0, 600), 0.001).verdict, Verdict::NotResolved);
        assert_eq!(Claim::below_bound("", (90, 6_000), 0.01).verdict, Verdict::Contradicted);
    }

    #[test]
    fn claims_print_one_line() {
        let claim = Claim::no_leak("the defense blocks the channel", &table([[0, 20], [0, 20]]));
        assert_eq!(
            claim.to_string(),
            "not resolved at n = 40: the defense blocks the channel (G = 0.0)"
        );
    }
}
