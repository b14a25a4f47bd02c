//! Covert channel over the directional branch predictor (paper §7, §9.2).
//!
//! The sender (trojan) encodes each bit as the direction of a conditional
//! branch at a known code offset; the receiver runs BranchScope rounds
//! against the colliding PHT entry and decodes the directions. Both the
//! ordinary cross-process channel (Table 2) and the enclave-to-outside
//! channel (Table 3) are provided.

use crate::attack::{AttackConfig, BranchScope};
use crate::confusion::Confusion;
use crate::error::AttackError;
use bscope_bpu::Outcome;
use bscope_os::{CpuView, Enclave, Pid, System, Workload};

/// Code offset (within the sender binary) of the transmitting branch —
/// the `0x6d` of the paper's Listing 2 disassembly.
pub const SENDER_BRANCH_OFFSET: u64 = 0x6d;

/// Outcome of a covert-channel transmission.
#[derive(Debug, Clone, PartialEq)]
pub struct TransmitResult {
    /// Bits recovered by the receiver (same length as the sent message).
    pub received: Vec<bool>,
    /// Number of positions where the received bit differs from the sent bit.
    pub errors: usize,
    /// `errors / sent`.
    pub error_rate: f64,
    /// Cycles elapsed on the shared core during the transmission.
    pub cycles: u64,
    /// Sent × received counts, from which `errors` and `error_rate` come.
    pub confusion: Confusion,
}

impl TransmitResult {
    /// Scores `received` against `sent`.
    ///
    /// # Panics
    ///
    /// Panics if `sent` is empty: with no bits sent there is no error rate,
    /// and 0.0 would report a working channel.
    fn new(sent: &[bool], received: Vec<bool>, cycles: u64) -> Self {
        assert!(!sent.is_empty(), "a transmission needs at least one bit");
        let confusion: Confusion = sent.iter().copied().zip(received.iter().copied()).collect();
        let (errors, error_rate) = (confusion.errors() as usize, confusion.error_rate());
        TransmitResult { received, errors, error_rate, cycles, confusion }
    }

    /// Channel capacity in bits per million cycles (throughput measure).
    #[must_use]
    pub fn bits_per_mcycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.received.len() as f64 * 1e6 / self.cycles as f64
        }
    }
}

/// A cross-process covert channel: sender and receiver are ordinary
/// co-resident processes.
#[derive(Debug)]
pub struct CovertChannel {
    attack: BranchScope,
}

impl CovertChannel {
    /// Builds the channel for the attack configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`AttackError::AmbiguousConfiguration`] from the decoder.
    pub fn new(config: AttackConfig) -> Result<Self, AttackError> {
        Ok(CovertChannel { attack: BranchScope::new(config)? })
    }

    /// Transmits `bits` from `sender` to `receiver`, bit `true` encoded as
    /// a taken branch.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty: a transmission of nothing has no error
    /// rate.
    pub fn transmit(
        &mut self,
        sys: &mut System,
        sender: Pid,
        receiver: Pid,
        bits: &[bool],
    ) -> TransmitResult {
        self.transmit_with_redundancy(sys, sender, receiver, bits, 1)
    }

    /// Transmits with `n`-fold repetition coding: the sender repeats every
    /// payload bit `n` times and the receiver majority-votes. Trades
    /// throughput for reliability — the standard way to push the §7
    /// channel's residual error rate to effectively zero on a noisy core.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or even (majority voting needs an odd count),
    /// or if `bits` is empty.
    pub fn transmit_with_redundancy(
        &mut self,
        sys: &mut System,
        sender: Pid,
        receiver: Pid,
        bits: &[bool],
        n: usize,
    ) -> TransmitResult {
        assert!(n % 2 == 1, "redundancy must be odd, got {n}");
        let target = sys.process(sender).vaddr_of(SENDER_BRANCH_OFFSET);
        let start = sys.core().rdtscp();
        let mut decoded = Vec::with_capacity(bits.len());
        for &bit in bits {
            let mut votes = 0;
            for _ in 0..n {
                let outcome = self.attack.read_bit(sys, receiver, target, |sys| {
                    sys.cpu(sender).branch_at(SENDER_BRANCH_OFFSET, Outcome::from_bool(bit));
                });
                votes += usize::from(outcome.is_taken());
            }
            decoded.push(votes * 2 > n);
        }
        TransmitResult::new(bits, decoded, sys.core().rdtscp() - start)
    }

    /// Receives from inside an SGX enclave (§9.2): the enclave runs an
    /// [`EnclaveSender`] workload; the attacker-controlled OS single-steps
    /// it ([`Enclave::single_step`]) as each round's stage 2.
    ///
    /// Returns only what the receiver actually learns ([`ReceivedBits`]);
    /// score it against the ground-truth secret with
    /// [`ReceivedBits::score`] in benchmarks.
    pub fn receive_from_enclave(
        &mut self,
        sys: &mut System,
        enclave: &mut Enclave<EnclaveSender>,
        receiver: Pid,
        n_bits: usize,
    ) -> ReceivedBits {
        let target = sys.process(enclave.pid()).vaddr_of(SENDER_BRANCH_OFFSET);
        let start = sys.core().rdtscp();
        let mut bits = Vec::with_capacity(n_bits);
        for _ in 0..n_bits {
            if enclave.finished() {
                break;
            }
            let outcome = self.attack.read_bit(sys, receiver, target, |sys| {
                enclave.single_step(sys);
            });
            bits.push(outcome.is_taken());
        }
        ReceivedBits { bits, cycles: sys.core().rdtscp() - start }
    }
}

/// Bits recovered by a receiver that does not know the ground truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceivedBits {
    /// The recovered bit stream.
    pub bits: Vec<bool>,
    /// Cycles elapsed during reception.
    pub cycles: u64,
}

impl ReceivedBits {
    /// Scores the reception against the ground-truth secret (benchmark
    /// bookkeeping, not something the attacker can do).
    ///
    /// # Panics
    ///
    /// Panics if no bits were received.
    #[must_use]
    pub fn score(&self, sent: &[bool]) -> TransmitResult {
        TransmitResult::new(&sent[..self.bits.len()], self.bits.clone(), self.cycles)
    }
}

/// Enclave-resident covert-channel sender: one branch per bit, stepped by
/// the malicious OS.
#[derive(Debug, Clone)]
pub struct EnclaveSender {
    bits: Vec<bool>,
    next: usize,
}

impl EnclaveSender {
    /// Sender transmitting `bits`.
    #[must_use]
    pub fn new(bits: Vec<bool>) -> Self {
        EnclaveSender { bits, next: 0 }
    }
}

impl Workload for EnclaveSender {
    fn step(&mut self, cpu: &mut CpuView<'_>) -> bool {
        if self.next >= self.bits.len() {
            return false;
        }
        cpu.branch_at(SENDER_BRANCH_OFFSET, Outcome::from_bool(self.bits[self.next]));
        self.next += 1;
        self.next < self.bits.len()
    }
}

/// Serialises a payload into channel bits, most-significant bit first.
///
/// ```
/// use bscope_core::covert::{bits_to_bytes, bytes_to_bits};
///
/// let bits = bytes_to_bits(b"ok");
/// assert_eq!(bits.len(), 16);
/// assert_eq!(&bits_to_bytes(&bits)[..], b"ok");
/// ```
#[must_use]
pub fn bytes_to_bits(payload: &[u8]) -> Vec<bool> {
    payload.iter().flat_map(|&b| (0..8).rev().map(move |i| (b >> i) & 1 == 1)).collect()
}

/// Reassembles channel bits into bytes (inverse of [`bytes_to_bits`]);
/// trailing bits that do not fill a byte are dropped.
#[must_use]
pub fn bits_to_bytes(bits: &[bool]) -> Vec<u8> {
    bits.chunks_exact(8)
        .map(|chunk| chunk.iter().fold(0u8, |byte, &bit| (byte << 1) | u8::from(bit)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bscope_bpu::MicroarchProfile;
    use bscope_os::AslrPolicy;
    use bscope_uarch::NoiseConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn channel_for(profile: &MicroarchProfile) -> CovertChannel {
        CovertChannel::new(AttackConfig::for_profile(profile)).unwrap()
    }

    #[test]
    fn noiseless_channel_is_error_free() {
        for profile in MicroarchProfile::paper_machines() {
            let mut sys = System::new(profile.clone(), 77);
            let sender = sys.spawn("trojan", AslrPolicy::Disabled);
            let receiver = sys.spawn("spy", AslrPolicy::Disabled);
            let mut rng = StdRng::seed_from_u64(8);
            let bits: Vec<bool> = (0..500).map(|_| rng.gen()).collect();
            let res = channel_for(&profile).transmit(&mut sys, sender, receiver, &bits);
            assert_eq!(res.errors, 0, "{}: {} errors", profile.arch, res.errors);
            assert_eq!(res.received, bits);
            assert!(res.cycles > 0);
        }
    }

    #[test]
    fn noisy_channel_has_low_error_rate() {
        let profile = MicroarchProfile::skylake();
        let mut sys = System::new(profile.clone(), 78).with_noise(NoiseConfig::system_activity()).unwrap();
        let sender = sys.spawn("trojan", AslrPolicy::Disabled);
        let receiver = sys.spawn("spy", AslrPolicy::Disabled);
        let mut rng = StdRng::seed_from_u64(9);
        let bits: Vec<bool> = (0..2_000).map(|_| rng.gen()).collect();
        let res = channel_for(&profile).transmit(&mut sys, sender, receiver, &bits);
        assert!(res.error_rate < 0.05, "error rate {:.4}", res.error_rate);
    }

    #[test]
    fn payload_round_trips_over_the_channel() {
        let profile = MicroarchProfile::haswell();
        let mut sys = System::new(profile.clone(), 79);
        let sender = sys.spawn("trojan", AslrPolicy::Disabled);
        let receiver = sys.spawn("spy", AslrPolicy::Disabled);
        let bits = bytes_to_bits(b"branchscope");
        let res = channel_for(&profile).transmit(&mut sys, sender, receiver, &bits);
        assert_eq!(&bits_to_bytes(&res.received)[..], b"branchscope");
    }

    #[test]
    fn enclave_sender_reaches_outside_receiver() {
        let profile = MicroarchProfile::skylake();
        let mut sys = System::new(profile.clone(), 80);
        let receiver = sys.spawn("spy", AslrPolicy::Disabled);
        let mut rng = StdRng::seed_from_u64(10);
        let secret: Vec<bool> = (0..300).map(|_| rng.gen()).collect();
        let mut enclave = Enclave::launch(&mut sys, "trojan-enclave", EnclaveSender::new(secret.clone()));
        let received =
            channel_for(&profile).receive_from_enclave(&mut sys, &mut enclave, receiver, secret.len());
        assert_eq!(received.bits.len(), secret.len());
        let res = received.score(&secret);
        assert_eq!(res.errors, 0, "noiseless SGX channel must be exact");
    }

    #[test]
    fn redundancy_coding_eliminates_residual_errors() {
        let profile = MicroarchProfile::sandy_bridge(); // the noisiest machine
        let mut sys = System::new(profile.clone(), 81).with_noise(NoiseConfig::heavy()).unwrap();
        let sender = sys.spawn("trojan", AslrPolicy::Disabled);
        let receiver = sys.spawn("spy", AslrPolicy::Disabled);
        let mut rng = StdRng::seed_from_u64(11);
        let bits: Vec<bool> = (0..400).map(|_| rng.gen()).collect();
        let mut channel = channel_for(&profile);
        let raw = channel.transmit(&mut sys, sender, receiver, &bits);
        let coded = channel.transmit_with_redundancy(&mut sys, sender, receiver, &bits, 5);
        assert!(
            coded.error_rate < raw.error_rate || coded.errors == 0,
            "5x repetition must improve on raw ({:.3} vs {:.3})",
            coded.error_rate,
            raw.error_rate
        );
        assert!(coded.error_rate < 0.03, "coded error {:.4}", coded.error_rate);
        assert!(
            coded.bits_per_mcycle() < raw.bits_per_mcycle(),
            "reliability costs throughput"
        );
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_redundancy_rejected() {
        let profile = MicroarchProfile::skylake();
        let mut sys = System::new(profile.clone(), 82);
        let sender = sys.spawn("trojan", AslrPolicy::Disabled);
        let receiver = sys.spawn("spy", AslrPolicy::Disabled);
        let _ = channel_for(&profile).transmit_with_redundancy(
            &mut sys,
            sender,
            receiver,
            &[true],
            2,
        );
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_bit_transmission_rejected() {
        let profile = MicroarchProfile::skylake();
        let mut sys = System::new(profile.clone(), 83);
        let sender = sys.spawn("trojan", AslrPolicy::Disabled);
        let receiver = sys.spawn("spy", AslrPolicy::Disabled);
        let _ = channel_for(&profile).transmit(&mut sys, sender, receiver, &[]);
    }

    #[test]
    fn bit_byte_round_trip() {
        let data = b"\x00\xff\x5a";
        assert_eq!(&bits_to_bytes(&bytes_to_bits(data))[..], data);
        // Trailing partial byte dropped.
        let mut bits = bytes_to_bits(b"a");
        bits.push(true);
        assert_eq!(&bits_to_bytes(&bits)[..], b"a");
    }

    #[test]
    fn transmit_result_metrics() {
        let res = TransmitResult::new(&[true, false, true], vec![true, true, true], 3_000_000);
        assert_eq!(res.errors, 1);
        assert_eq!(res.confusion.counts, [[0, 1], [0, 2]]);
        assert!((res.error_rate - 1.0 / 3.0).abs() < 1e-12);
        assert!((res.bits_per_mcycle() - 1.0).abs() < 1e-12);
    }
}
