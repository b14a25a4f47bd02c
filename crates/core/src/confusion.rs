//! The one scorer of a binary channel: a 2×2 table of sent × decoded bits.

use std::f64::consts::LN_2;

/// A 2×2 table of counts, `counts[row][column]`. As a channel's score, rows
/// are the sent bit and columns the decoded bit, so the diagonal holds the
/// bits read correctly; collect it from `(sent, decoded)` pairs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    /// `counts[sent][decoded]`, each bit indexed as `usize::from(bit)`.
    pub counts: [[u64; 2]; 2],
}

impl Confusion {
    /// The χ² critical value at one degree of freedom and p < 0.001.
    pub const G_CRITICAL: f64 = 10.83;

    /// Number of scored bits.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Bits decoded wrongly (the off-diagonal).
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.counts[0][1] + self.counts[1][0]
    }

    /// `errors / total`.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        self.errors() as f64 / self.total() as f64
    }

    /// `(total - errors) / total`.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        (self.total() - self.errors()) as f64 / self.total() as f64
    }

    /// Mutual information between rows and columns in bits per read: 1 for
    /// a decoder that is always right (or always wrong), 0 for one whose
    /// output does not depend on what was sent.
    #[must_use]
    pub fn mutual_information(&self) -> f64 {
        let [[a, b], [c, d]] = self.counts.map(|row| row.map(|k| k as f64));
        let n = a + b + c + d;
        let term = |o: f64, row: f64, column: f64| {
            if o > 0.0 { o / n * (o * n / (row * column)).log2() } else { 0.0 }
        };
        let mi = term(a, a + b, a + c) + term(b, a + b, b + d)
            + term(c, c + d, a + c) + term(d, c + d, b + d);
        // Rounding can leave an independent table a hair below zero.
        mi.max(0.0)
    }

    /// The G-test statistic of independence, `2 · n · ln 2 · MI`.
    #[must_use]
    pub fn g_statistic(&self) -> f64 {
        2.0 * self.total() as f64 * LN_2 * self.mutual_information()
    }

    /// Whether the columns depend on the rows at p < 0.001.
    #[must_use]
    pub fn leaks(&self) -> bool {
        self.g_statistic() > Self::G_CRITICAL
    }
}

impl FromIterator<(bool, bool)> for Confusion {
    fn from_iter<I: IntoIterator<Item = (bool, bool)>>(pairs: I) -> Self {
        let mut table = Confusion::default();
        for (sent, decoded) in pairs {
            table.counts[usize::from(sent)][usize::from(decoded)] += 1;
        }
        table
    }
}

impl std::iter::Sum for Confusion {
    fn sum<I: Iterator<Item = Confusion>>(tables: I) -> Self {
        let mut total = Confusion::default();
        for table in tables {
            let cells = total.counts.iter_mut().flatten().zip(table.counts.iter().flatten());
            for (cell, count) in cells {
                *cell += count;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(counts: [[u64; 2]; 2]) -> Confusion {
        Confusion { counts }
    }

    #[test]
    fn identity_table_carries_one_bit_per_read() {
        let identity = table([[500, 0], [0, 500]]);
        assert_eq!(identity.mutual_information(), 1.0);
        assert_eq!(identity.error_rate(), 0.0);
        assert_eq!(identity.accuracy(), 1.0);
        assert!(identity.leaks());
    }

    #[test]
    fn constant_decoder_carries_nothing() {
        // The spy decodes 1 whatever was sent: half wrong, zero information.
        let constant = table([[0, 480], [0, 520]]);
        assert_eq!(constant.mutual_information(), 0.0);
        assert_eq!(constant.g_statistic(), 0.0);
        assert_eq!(constant.errors(), 480);
        assert!(!constant.leaks());
    }

    #[test]
    fn inverting_the_decoder_keeps_the_information() {
        let read = table([[968, 531], [511, 990]]);
        let inverted = table([[531, 968], [990, 511]]);
        assert!((read.mutual_information() - inverted.mutual_information()).abs() < 1e-12);
        assert_eq!(read.errors() + inverted.errors(), read.total());
        assert!(read.leaks() && inverted.leaks());
    }

    #[test]
    fn g_statistic_is_scaled_mutual_information() {
        for counts in [[[0, 1517], [698, 785]], [[558, 900], [160, 1382]], [[3, 1], [2, 4]]] {
            let t = table(counts);
            let n = t.total() as f64;
            assert_eq!(t.g_statistic(), 2.0 * n * LN_2 * t.mutual_information());
        }
        // Partitioned (4) at full scale: about 0.29 bits per read.
        let partitioned = table([[0, 1517], [698, 785]]);
        assert!((partitioned.mutual_information() - 0.29).abs() < 0.01);
        assert!(partitioned.g_statistic() > 1_000.0);
    }

    #[test]
    fn tables_collect_and_add() {
        let sent = [false, true, true, false, true];
        let decoded = [false, true, false, true, true];
        let t: Confusion = sent.into_iter().zip(decoded).collect();
        assert_eq!(t, table([[1, 1], [1, 2]]));
        assert_eq!(t.errors(), 2);
        assert_eq!([t, t].into_iter().sum::<Confusion>(), table([[2, 2], [2, 4]]));
        assert!(Confusion::default().error_rate().is_nan());
        assert_eq!(Confusion::default().mutual_information(), 0.0);
    }
}
