//! Background (SMT sibling / system) activity configuration.

use crate::config::ConfigError;
use std::ops::Range;

/// Configuration of background branch activity sharing the core's BPU.
///
/// Models the two measurement environments of Tables 2 and 3. Background
/// activity is **time-based**: the sibling context executes unrelated
/// conditional branches at a mean rate per 1 000 cycles of wall-clock,
/// regardless of what the foreground thread is doing. Arrivals form a
/// Poisson process: the gaps between them are exponentially distributed,
/// and the core schedules the next arrival rather than drawing a count on
/// every branch. The exposure that
/// matters to the attack is therefore proportional to *elapsed time* — the
/// randomization block, the spy's `usleep` while waiting for the victim
/// (Listing 3), and the probe itself — exactly as on real SMT hardware.
///
/// Background branches perturb the shared PHT/BTB/GHR but not the
/// foreground thread's performance counters, which are per-logical-CPU.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseConfig {
    /// Mean background branches per 1 000 cycles; the gaps between
    /// arrivals are exponential with mean `1000 / branches_per_kcycle`
    /// cycles. Zero disables the timed arrivals.
    pub branches_per_kcycle: f64,
    /// Virtual address range the background branches are drawn from.
    pub addr_range: Range<u64>,
    /// Probability that a background branch is taken.
    pub taken_bias: f64,
}

impl NoiseConfig {
    /// An ordinary multi-tasking system with the sibling hardware thread
    /// lightly loaded — the "with noise" rows of Table 2.
    #[must_use]
    pub fn system_activity() -> Self {
        NoiseConfig {
            branches_per_kcycle: 8.0,
            addr_range: 0x7f00_0000_0000..0x7f00_0010_0000,
            taken_bias: 0.55,
        }
    }

    /// An isolated physical core: no other user processes, only residual
    /// kernel activity (timer ticks, IPIs) — the "isolated" rows of
    /// Table 2, which still show a small non-zero error rate.
    #[must_use]
    pub fn isolated_core() -> Self {
        NoiseConfig { branches_per_kcycle: 3.0, ..NoiseConfig::system_activity() }
    }

    /// Heavy interference (stress test; beyond the paper's settings).
    #[must_use]
    pub fn heavy() -> Self {
        NoiseConfig { branches_per_kcycle: 40.0, ..NoiseConfig::system_activity() }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ConfigError`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.branches_per_kcycle.is_finite() || self.branches_per_kcycle < 0.0 {
            return Err(ConfigError::OutOfRange {
                config: "NoiseConfig",
                field: "branches_per_kcycle",
                value: self.branches_per_kcycle,
                constraint: "finite and >= 0",
            });
        }
        if self.addr_range.is_empty() {
            return Err(ConfigError::EmptyAddrRange { config: "NoiseConfig", field: "addr_range" });
        }
        if !(0.0..=1.0).contains(&self.taken_bias) {
            return Err(ConfigError::OutOfRange {
                config: "NoiseConfig",
                field: "taken_bias",
                value: self.taken_bias,
                constraint: "within [0, 1]",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate_and_order_sensibly() {
        for cfg in [NoiseConfig::system_activity(), NoiseConfig::isolated_core(), NoiseConfig::heavy()]
        {
            cfg.validate().unwrap();
        }
        assert!(
            NoiseConfig::isolated_core().branches_per_kcycle
                < NoiseConfig::system_activity().branches_per_kcycle
        );
        assert!(
            NoiseConfig::system_activity().branches_per_kcycle
                < NoiseConfig::heavy().branches_per_kcycle
        );
    }

    #[test]
    fn validate_rejects_bad_fields_with_typed_errors() {
        let mut c = NoiseConfig::system_activity();
        c.branches_per_kcycle = -1.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::OutOfRange { field: "branches_per_kcycle", .. })
        ));

        let mut c = NoiseConfig::system_activity();
        c.addr_range = 5..5;
        assert!(matches!(c.validate(), Err(ConfigError::EmptyAddrRange { .. })));

        let mut c = NoiseConfig::system_activity();
        c.taken_bias = 1.5;
        let err = c.validate().unwrap_err();
        assert!(matches!(err, ConfigError::OutOfRange { field: "taken_bias", .. }));
        assert!(err.to_string().contains("taken_bias"), "message names the field: {err}");
    }
}
