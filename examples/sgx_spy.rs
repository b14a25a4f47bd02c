//! BranchScope against an SGX enclave (paper §9, Table 3): enclave memory
//! is inaccessible, but the enclave shares the core's BPU, and the
//! malicious OS single-steps it with APIC-style interrupts while
//! suppressing all other activity.
//!
//! ```text
//! cargo run --release --example sgx_spy
//! ```

use branchscope::attack::covert::{bits_to_bytes, bytes_to_bits, CovertChannel, EnclaveSender};
use branchscope::attack::AttackConfig;
use branchscope::bpu::MicroarchProfile;
use branchscope::os::{AslrPolicy, Enclave, System};
use branchscope::uarch::NoiseConfig;

fn main() {
    let profile = MicroarchProfile::skylake();
    let mut sys = System::new(profile.clone(), 99).with_noise(NoiseConfig::system_activity()).expect("valid noise preset");
    let receiver = sys.spawn("spy", AslrPolicy::Disabled);

    // The enclave holds a secret the rest of the system cannot read…
    let secret_bytes = b"enclave secret";
    let secret_bits = bytes_to_bits(secret_bytes);
    let mut enclave =
        Enclave::launch(&mut sys, "sealed-enclave", EnclaveSender::new(secret_bits.clone()));
    assert!(enclave.read_memory(0x1000).is_err(), "SGX blocks direct reads");

    // …but the attacker controls the OS: it suppresses noise and
    // single-steps the enclave between BranchScope rounds.
    sys.set_noise(None).expect("disabling noise is always valid");

    let mut channel = CovertChannel::new(AttackConfig::for_profile(&profile))
        .expect("canonical configuration is valid");
    let received = channel.receive_from_enclave(&mut sys, &mut enclave, receiver, secret_bits.len());

    let leaked = bits_to_bytes(&received.bits);
    println!("leaked from enclave: {:?}", String::from_utf8_lossy(&leaked));
    let score = received.score(&secret_bits);
    println!(
        "{} / {} bits correct ({:.3}% error)",
        secret_bits.len() - score.errors,
        secret_bits.len(),
        100.0 * score.error_rate
    );
}
