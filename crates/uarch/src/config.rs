//! Typed configuration errors for the simulated-core layer.
//!
//! [`NoiseConfig::validate`](crate::NoiseConfig::validate) and
//! [`MeasurementFuzz::validate`](crate::MeasurementFuzz::validate) report
//! an invalid configuration as a [`ConfigError`], and the core's setters
//! return it and keep the configuration they had. The whole stack
//! (`bscope-os`, `bscope-core`, the experiments binary) propagates it as a
//! typed, attributable failure.

use std::error::Error;
use std::fmt;

/// A simulated-system configuration parameter outside its documented range.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A numeric field violated its constraint.
    OutOfRange {
        /// Configuration struct the field belongs to (e.g. `NoiseConfig`).
        config: &'static str,
        /// Field name.
        field: &'static str,
        /// The offending value.
        value: f64,
        /// Human-readable constraint (e.g. `"within [0, 1]"`).
        constraint: &'static str,
    },
    /// An address range was empty.
    EmptyAddrRange {
        /// Configuration struct the range belongs to.
        config: &'static str,
        /// Field name.
        field: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::OutOfRange { config, field, value, constraint } => {
                write!(f, "{config}.{field} = {value} must be {constraint}")
            }
            ConfigError::EmptyAddrRange { config, field } => {
                write!(f, "{config}.{field} must be a non-empty address range")
            }
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offending_field() {
        let e = ConfigError::OutOfRange {
            config: "NoiseConfig",
            field: "taken_bias",
            value: 1.5,
            constraint: "within [0, 1]",
        };
        assert_eq!(e.to_string(), "NoiseConfig.taken_bias = 1.5 must be within [0, 1]");
        let e = ConfigError::EmptyAddrRange { config: "NoiseConfig", field: "addr_range" };
        assert!(e.to_string().contains("addr_range"));
    }
}
