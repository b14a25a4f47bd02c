//! The one covert-channel runner behind table2, table3, capacity,
//! backend_sweep and sensitivity. [`covert_cells`] fans an experiment's
//! cells out as trials; each trial builds a machine, starts the sender and
//! the receiver, derives the message, transmits it (prime → trojan → probe
//! per bit) and scores what the receiver decoded.

use crate::common::{trials, Scale};
use bscope_bpu::{BackendKind, MicroarchProfile};
use bscope_core::covert::{CovertChannel, EnclaveSender, TransmitResult};
use bscope_core::{AttackConfig, AttackError, BscopeError};
use bscope_harness::splitmix64;
use bscope_os::{AslrPolicy, Enclave, System};
use bscope_uarch::{NoiseConfig, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Where the trojan runs: in an ordinary co-resident process (§7, Table 2)
/// or in an SGX enclave that the OS single-steps (§9.2, Table 3).
pub enum Sender {
    Process,
    Enclave,
}

/// The message a cell transmits.
#[derive(Clone, Copy)]
pub enum Payload<'a> {
    AllZero,
    AllOne,
    /// Uniform bits drawn from `StdRng::seed_from_u64(splitmix64(seed ^ salt))`
    /// for the trial `seed`, so every trial sends its own message.
    Random { salt: u64 },
    /// The first `bits` bits of a message shared by every trial.
    Given(&'a [bool]),
}

/// One cell of a covert-channel experiment; [`covert_cells`] runs its
/// trials.
pub struct CovertCell<'a> {
    pub profile: &'a MicroarchProfile,
    pub backend: BackendKind,
    /// Background noise on the shared core; `None` runs it quiet.
    pub noise: Option<&'a NoiseConfig>,
    pub sender: Sender,
    pub payload: Payload<'a>,
    /// Payload bits per transmission.
    pub bits: usize,
    /// Times a process sender repeats each bit for the receiver to
    /// majority-vote (odd; 1 sends the payload raw).
    pub redundancy: usize,
}

impl<'a> CovertCell<'a> {
    /// A raw transmission from a process sender.
    pub fn new(
        profile: &'a MicroarchProfile,
        backend: BackendKind,
        noise: Option<&'a NoiseConfig>,
        payload: Payload<'a>,
        bits: usize,
    ) -> Self {
        let sender = Sender::Process;
        CovertCell { profile, backend, noise, sender, payload, bits, redundancy: 1 }
    }

    /// Checks the bit count, the redundancy and the channel and noise
    /// configuration, so an experiment fails with a typed error before its
    /// fan-out instead of panicking in a worker thread.
    fn validate(&self) -> Result<(), BscopeError> {
        let (bits, n) = (self.bits, self.redundancy);
        if bits == 0 || n % 2 == 0 {
            let msg = format!("bits must be positive and redundancy odd, got {bits} and {n}");
            return Err(AttackError::InvalidParameter(msg).into());
        }
        CovertChannel::new(AttackConfig::for_backend(self.profile, self.backend))?;
        if let Some(noise) = self.noise {
            noise.validate()?;
        }
        Ok(())
    }
}

/// The score of one transmission.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunSummary {
    /// Wrong bits over sent bits.
    pub error_rate: f64,
    /// Payload bits per million cycles of the shared core.
    pub bits_per_mcycle: f64,
}

/// Validates every cell, then runs `runs` transmissions of each as
/// `cells.len() × runs` trials of [`trials`] with seeds from
/// `scale.seed ^ salt`. Trial `i` is run `i % runs` of cell `i / runs`, so
/// the cell order fixes every trial's seed. Returns each cell's runs in
/// order.
pub fn covert_cells(
    scale: &Scale,
    salt: u64,
    cells: &[CovertCell<'_>],
    runs: usize,
) -> Result<Vec<Vec<RunSummary>>, BscopeError> {
    cells.iter().try_for_each(CovertCell::validate)?;
    let mut per_trial = trials(scale, cells.len() * runs, salt, |idx, seed, tracer| {
        let result = covert_cell(&cells[idx / runs], seed, tracer);
        RunSummary { error_rate: result.error_rate, bits_per_mcycle: result.bits_per_mcycle() }
    })
    .into_iter();
    Ok(cells.iter().map(|_| per_trial.by_ref().take(runs).collect()).collect())
}

/// Runs one transmission of `cell` on a fresh machine. Every random choice
/// (machine, noise, random payload) derives from `seed`, and the core
/// carries `tracer` while it transmits.
///
/// # Panics
///
/// Panics if `cell` does not pass [`CovertCell::validate`].
fn covert_cell(cell: &CovertCell<'_>, seed: u64, tracer: &mut Tracer) -> TransmitResult {
    let mut sys = System::with_backend(cell.profile.clone(), cell.backend, seed);
    sys.set_noise(cell.noise.cloned()).expect("noise config validated before fan-out");
    let mut channel = CovertChannel::new(AttackConfig::for_backend(cell.profile, cell.backend))
        .expect("channel validated before fan-out");
    let message: Vec<bool> = match cell.payload {
        Payload::AllZero => vec![false; cell.bits],
        Payload::AllOne => vec![true; cell.bits],
        Payload::Random { salt } => {
            let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ salt));
            (0..cell.bits).map(|_| rng.gen()).collect()
        }
        Payload::Given(message) => message[..cell.bits].to_vec(),
    };
    match cell.sender {
        Sender::Process => {
            let sender = sys.spawn("trojan", AslrPolicy::Disabled);
            let receiver = sys.spawn("spy", AslrPolicy::Disabled);
            sys.with_tracer(tracer, |sys| {
                channel.transmit_with_redundancy(sys, sender, receiver, &message, cell.redundancy)
            })
        }
        Sender::Enclave => {
            let receiver = sys.spawn("spy", AslrPolicy::Disabled);
            let mut enclave =
                Enclave::launch(&mut sys, "trojan-enclave", EnclaveSender::new(message.clone()));
            let received = sys.with_tracer(tracer, |sys| {
                channel.receive_from_enclave(sys, &mut enclave, receiver, message.len())
            });
            received.score(&message)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_cells_fail_before_the_fan_out() {
        let profile = MicroarchProfile::skylake();
        let raw = CovertCell::new(&profile, BackendKind::Hybrid, None, Payload::AllOne, 8);
        assert!(covert_cells(&Scale::quick(), 0, &[raw], 1).is_ok());
        for (bits, redundancy) in [(8, 2), (8, 0), (0, 1)] {
            let cell = CovertCell {
                bits,
                redundancy,
                ..CovertCell::new(&profile, BackendKind::Hybrid, None, Payload::AllOne, 8)
            };
            let err = covert_cells(&Scale::quick(), 0, &[cell], 1).unwrap_err();
            assert!(matches!(err, BscopeError::Attack(AttackError::InvalidParameter(_))), "{err}");
        }
    }
}
