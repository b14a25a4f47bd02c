//! Typed errors for the attack stack.
//!
//! [`AttackError`] covers failures of the BranchScope primitive itself;
//! [`BscopeError`] is the workspace-wide hierarchy that experiment-level
//! code propagates, folding in the configuration errors of the simulated
//! substrate ([`ConfigError`] from `bscope-uarch`). Everything converts
//! upward with `?` via the `From` impls below.

use bscope_bpu::{Outcome, PhtState};
pub use bscope_uarch::ConfigError;
use std::error::Error;
use std::fmt;

/// Errors from configuring or running the BranchScope attack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackError {
    /// The chosen prime-state / probe-direction combination cannot
    /// distinguish a taken from a not-taken victim branch on this counter
    /// (e.g. priming ST and probing taken-taken always observes `HH`, and
    /// on Skylake priming ST and probing not-taken observes `MM` for both
    /// directions — the ST/WT ambiguity of Table 1, footnote 1).
    AmbiguousConfiguration {
        /// State the entry is primed to.
        primed: PhtState,
        /// Probe direction that fails to discriminate.
        probe: Outcome,
    },
    /// A parameter was out of its documented range.
    InvalidParameter(String),
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::AmbiguousConfiguration { primed, probe } => write!(
                f,
                "priming {primed} and probing with {probe} branches cannot distinguish the victim direction"
            ),
            AttackError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl Error for AttackError {}

/// Workspace-wide error hierarchy: everything a BranchScope experiment can
/// fail with, short of a panic.
///
/// Each variant wraps the typed error of the layer it came from, so
/// callers can match on the failure class while `Display` keeps the
/// layer's own message.
#[derive(Debug, Clone, PartialEq)]
pub enum BscopeError {
    /// The attack primitive was misconfigured ([`AttackError`]).
    Attack(AttackError),
    /// The simulated system was configured outside its documented ranges
    /// ([`ConfigError`], e.g. an invalid [`bscope_uarch::NoiseConfig`]).
    Config(ConfigError),
}

impl fmt::Display for BscopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BscopeError::Attack(e) => write!(f, "attack error: {e}"),
            BscopeError::Config(e) => write!(f, "configuration error: {e}"),
        }
    }
}

impl Error for BscopeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BscopeError::Attack(e) => Some(e),
            BscopeError::Config(e) => Some(e),
        }
    }
}

impl From<AttackError> for BscopeError {
    fn from(e: AttackError) -> Self {
        BscopeError::Attack(e)
    }
}

impl From<ConfigError> for BscopeError {
    fn from(e: ConfigError) -> Self {
        BscopeError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = AttackError::AmbiguousConfiguration {
            primed: PhtState::StronglyTaken,
            probe: Outcome::Taken,
        };
        assert!(e.to_string().contains("ST"));
        let e = AttackError::InvalidParameter("k must be positive".into());
        assert!(e.to_string().contains("k must be positive"));
    }

    #[test]
    fn hierarchy_converts_and_sources() {
        let attack = AttackError::InvalidParameter("bad k".into());
        let e: BscopeError = attack.clone().into();
        assert_eq!(e, BscopeError::Attack(attack));
        assert!(e.to_string().contains("bad k"));
        assert!(e.source().is_some(), "wrapped error is exposed as the source");

        let cfg = bscope_uarch::NoiseConfig { taken_bias: 2.0, ..bscope_uarch::NoiseConfig::system_activity() }
            .validate()
            .unwrap_err();
        let e: BscopeError = cfg.into();
        assert!(matches!(e, BscopeError::Config(ConfigError::OutOfRange { .. })));
        assert!(e.to_string().contains("taken_bias"));
    }
}
