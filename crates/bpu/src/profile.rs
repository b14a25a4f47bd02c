//! Microarchitecture profiles for the three CPUs evaluated in the paper.

use crate::counter::CounterKind;
use std::fmt;

/// The microarchitecture families the paper evaluates (§5, Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Microarch {
    /// Intel Sandy Bridge (i7-2600).
    SandyBridge,
    /// Intel Haswell (i7-4800MQ).
    Haswell,
    /// Intel Skylake (i5-6200U).
    Skylake,
    /// A user-defined configuration.
    Custom,
}

impl fmt::Display for Microarch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Microarch::SandyBridge => "Sandy Bridge",
            Microarch::Haswell => "Haswell",
            Microarch::Skylake => "Skylake",
            Microarch::Custom => "custom",
        })
    }
}

/// Full configuration of a simulated branch prediction unit.
///
/// The concrete geometries of Intel BPUs are undocumented; the paper only
/// reverse-engineers what the attack needs (a 2^14-entry PHT with byte-
/// granular modulo indexing on its Skylake machine, larger predictor tables
/// on Skylake/Haswell than Sandy Bridge explaining their lower error rates,
/// and the Skylake counter quirk). The profiles below encode exactly those
/// findings and otherwise use representative sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroarchProfile {
    /// Which family this profile models.
    pub arch: Microarch,
    /// Entries in each component PHT (power of two).
    pub pht_size: usize,
    /// Saturating-counter flavour used by the PHTs.
    pub counter_kind: CounterKind,
    /// Global history register length in bits.
    pub ghr_bits: u32,
    /// Selector (chooser) table entries (power of two).
    pub selector_size: usize,
    /// BTB sets (power of two).
    pub btb_size: usize,
}

impl MicroarchProfile {
    /// Skylake (i5-6200U): 2^14-entry PHT (Fig. 5b), asymmetric counter
    /// (Table 1 footnote), slightly faster pattern learning than the older
    /// parts (Fig. 2) — modelled with a shorter effective history that
    /// warms up in fewer pattern repetitions.
    #[must_use]
    pub fn skylake() -> Self {
        MicroarchProfile {
            arch: Microarch::Skylake,
            pht_size: 16_384,
            counter_kind: CounterKind::SkylakeAsymmetric,
            ghr_bits: 12,
            selector_size: 4_096,
            btb_size: 4_096,
        }
    }

    /// Haswell (i7-4800MQ): textbook counter, large tables — error rates on
    /// par with Skylake in Table 2.
    #[must_use]
    pub fn haswell() -> Self {
        MicroarchProfile {
            arch: Microarch::Haswell,
            pht_size: 16_384,
            counter_kind: CounterKind::TwoBit,
            ghr_bits: 14,
            selector_size: 4_096,
            btb_size: 4_096,
        }
    }

    /// Sandy Bridge (i7-2600): textbook counter with smaller predictor
    /// tables — the paper attributes its markedly higher Table 2 error rates
    /// to the smaller tables of the older design (§7).
    #[must_use]
    pub fn sandy_bridge() -> Self {
        MicroarchProfile {
            arch: Microarch::SandyBridge,
            pht_size: 4_096,
            counter_kind: CounterKind::TwoBit,
            ghr_bits: 14,
            selector_size: 1_024,
            btb_size: 2_048,
        }
    }

    /// The three paper-evaluated profiles, in paper order (Table 2 lists
    /// Skylake, Haswell, Sandy Bridge).
    #[must_use]
    pub fn paper_machines() -> [MicroarchProfile; 3] {
        [Self::skylake(), Self::haswell(), Self::sandy_bridge()]
    }

    /// Validates internal consistency (power-of-two tables, sane GHR).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.pht_size.is_power_of_two() {
            return Err(format!("pht_size {} is not a power of two", self.pht_size));
        }
        if !self.selector_size.is_power_of_two() {
            return Err(format!("selector_size {} is not a power of two", self.selector_size));
        }
        if !self.btb_size.is_power_of_two() {
            return Err(format!("btb_size {} is not a power of two", self.btb_size));
        }
        if !(1..=64).contains(&self.ghr_bits) {
            return Err(format!("ghr_bits {} out of range 1..=64", self.ghr_bits));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profiles_validate() {
        for p in MicroarchProfile::paper_machines() {
            p.validate().unwrap();
        }
    }

    #[test]
    fn skylake_uses_asymmetric_counter() {
        assert_eq!(MicroarchProfile::skylake().counter_kind, CounterKind::SkylakeAsymmetric);
        assert_eq!(MicroarchProfile::haswell().counter_kind, CounterKind::TwoBit);
        assert_eq!(MicroarchProfile::sandy_bridge().counter_kind, CounterKind::TwoBit);
    }

    #[test]
    fn skylake_pht_matches_reverse_engineered_size() {
        // Fig. 5b: Hamming minimum at window 2^14 ⇒ 16 384 entries.
        assert_eq!(MicroarchProfile::skylake().pht_size, 16_384);
    }

    #[test]
    fn sandy_bridge_tables_are_smaller() {
        let sb = MicroarchProfile::sandy_bridge();
        let sl = MicroarchProfile::skylake();
        assert!(sb.pht_size < sl.pht_size);
        assert!(sb.btb_size < sl.btb_size);
    }

    #[test]
    fn validate_catches_bad_geometry() {
        let mut p = MicroarchProfile::skylake();
        p.pht_size = 1000;
        assert!(p.validate().is_err());
        let mut p = MicroarchProfile::skylake();
        p.ghr_bits = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn display_names() {
        assert_eq!(Microarch::SandyBridge.to_string(), "Sandy Bridge");
        assert_eq!(Microarch::Skylake.to_string(), "Skylake");
    }
}
