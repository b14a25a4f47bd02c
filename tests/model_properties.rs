//! Cross-crate property tests on whole-model invariants.

use branchscope::attack::{AttackConfig, BranchScope, DirectionDict, ProbeKind};
use branchscope::bpu::{
    BackendKind, CounterKind, MicroarchProfile, Outcome, PhtState, Prediction, PredictionStats,
    PredictorBackend,
};
use branchscope::mitigations::{
    NoPredictPolicy, PartitionedBpuPolicy, RandomizedPhtPolicy, StochasticFsmPolicy,
};
use branchscope::os::{AslrPolicy, System};
use branchscope::uarch::{
    timing, BpuPolicy, BranchEvent, MeasurementFuzz, NoiseConfig, PerfCounters, Route, SimCore,
    NOISE_CTX,
};
use bscope_harness::splitmix64;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Figure 1 front end written out straight-line over flat arrays: the
/// bimodal and gshare PHTs, a `0..=7` chooser with threshold 4, a
/// direct-mapped BTB of `(tag, target)` and a masked GHR. It shares no code
/// with `bscope-bpu`, so lockstep agreement checks the backend's selection
/// logic, chooser training and restart, and BTB/GHR commit order.
struct RefHybrid {
    max_level: u8,
    bimodal: Vec<u8>,
    gshare: Vec<u8>,
    chooser: Vec<u8>,
    btb: Vec<Option<(u64, u64)>>,
    ghr: u64,
    ghr_mask: u64,
}

/// One dynamic branch as the reference model saw it.
#[derive(Debug, PartialEq)]
struct RefPrediction {
    taken: bool,
    btb_hit: bool,
    used_gshare: bool,
}

impl RefHybrid {
    fn new(p: &MicroarchProfile) -> Self {
        RefHybrid {
            max_level: if p.counter_kind == CounterKind::SkylakeAsymmetric { 4 } else { 3 },
            bimodal: vec![1; p.pht_size],
            gshare: vec![1; p.pht_size],
            chooser: vec![0; p.selector_size],
            btb: vec![None; p.btb_size],
            ghr: 0,
            ghr_mask: (1 << p.ghr_bits) - 1,
        }
    }

    fn execute(&mut self, addr: u64, taken: bool) -> RefPrediction {
        let b = (addr % self.bimodal.len() as u64) as usize;
        let g = ((addr ^ self.ghr) % self.gshare.len() as u64) as usize;
        let c = (addr % self.chooser.len() as u64) as usize;
        let (set, tag) = self.set_and_tag(addr);
        let bimodal = self.bimodal[b] >= 2;
        let gshare = self.gshare[g] >= 2;
        let btb_hit = self.btb_target(addr).is_some();
        let used_gshare = btb_hit && self.chooser[c] >= 4;
        let direction = if used_gshare { gshare } else { bimodal };
        let step = |level: &mut u8, max: u8| {
            *level = if taken { (*level + 1).min(max) } else { level.saturating_sub(1) };
        };
        step(&mut self.bimodal[b], self.max_level);
        step(&mut self.gshare[g], self.max_level);
        // Only BTB-resident branches train the chooser, and only when the
        // components disagree.
        if btb_hit && bimodal != gshare {
            let level = &mut self.chooser[c];
            *level = if gshare == taken { (*level + 1).min(7) } else { level.saturating_sub(1) };
        }
        self.ghr = ((self.ghr << 1) | u64::from(taken)) & self.ghr_mask;
        if taken {
            // A taken branch that missed allocates its BTB entry and
            // restarts its chooser strongly bimodal.
            if !btb_hit {
                self.chooser[c] = 0;
            }
            self.btb[set] = Some((tag, addr + 2));
        }
        RefPrediction { taken: direction, btb_hit, used_gshare }
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let n = self.btb.len() as u64;
        ((addr % n) as usize, addr / n)
    }

    /// The target the BTB holds for `addr`, `None` on a miss.
    fn btb_target(&self, addr: u64) -> Option<u64> {
        let (set, tag) = self.set_and_tag(addr);
        self.btb[set].filter(|&(t, _)| t == tag).map(|(_, target)| target)
    }

    fn pht_state(&self, index: usize) -> PhtState {
        match (self.bimodal[index], self.max_level) {
            (0, _) => PhtState::StronglyNotTaken,
            (1, _) => PhtState::WeaklyNotTaken,
            (2, _) | (3, 4) => PhtState::WeaklyTaken,
            _ => PhtState::StronglyTaken,
        }
    }
}

/// The front end the TAGE and perceptron substrates share, written out
/// straight-line: a direct-mapped BTB of `(tag, target)`, a masked GHR and
/// the prediction counts. [`RefTage`] and [`RefPerceptron`] run over it.
struct RefFrontEnd {
    btb: Vec<Option<(u64, u64)>>,
    ghr: u64,
    ghr_mask: u64,
    stats: PredictionStats,
}

impl RefFrontEnd {
    fn new(btb_size: usize, ghr_bits: u32) -> Self {
        RefFrontEnd {
            btb: vec![None; btb_size],
            ghr: 0,
            ghr_mask: u64::MAX >> (64 - ghr_bits),
            stats: PredictionStats::default(),
        }
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let n = self.btb.len() as u64;
        ((addr % n) as usize, addr / n)
    }

    fn target(&self, addr: u64) -> Option<u64> {
        let (set, tag) = self.set_and_tag(addr);
        self.btb[set].filter(|&(t, _)| t == tag).map(|(_, target)| target)
    }

    /// The front end's view of a direction predictor's answer: its
    /// `direction`, and whether a history-indexed component provided it.
    fn prediction(&self, addr: u64, two_level: bool, direction: bool) -> Prediction {
        Prediction {
            direction: Outcome::from_bool(direction),
            two_level,
            btb_hit: self.target(addr).is_some(),
        }
    }

    /// What follows the direction predictor's training: shift the GHR,
    /// install a taken branch with the `addr + 2` fall-through target, count.
    fn commit(&mut self, addr: u64, taken: bool, prediction: &Prediction) {
        self.ghr = ((self.ghr << 1) | u64::from(taken)) & self.ghr_mask;
        if taken {
            let (set, tag) = self.set_and_tag(addr);
            self.btb[set] = Some((tag, addr + 2));
        }
        let s = &mut self.stats;
        s.branches += 1;
        s.mispredictions += u64::from(prediction.direction.is_taken() != taken);
        if prediction.two_level {
            s.gshare_used += 1;
        } else {
            s.bimodal_used += 1;
        }
    }

    fn forget(&mut self, addr: u64) {
        if self.target(addr).is_some() {
            let (set, _) = self.set_and_tag(addr);
            self.btb[set] = None;
        }
    }
}

/// The four PHT states, indexed by 2-bit counter level.
const PHT_STATES: [PhtState; 4] = [
    PhtState::StronglyNotTaken,
    PhtState::WeaklyNotTaken,
    PhtState::WeaklyTaken,
    PhtState::StronglyTaken,
];

/// 2-bit counter level of a PHT state (`0` = SN … `3` = ST).
fn two_bit_level(state: PhtState) -> u8 {
    PHT_STATES.iter().position(|&s| s == state).expect("every state is listed") as u8
}

/// The TAGE substrate written out per call over flat arrays: every query
/// folds the history again, `train` predicts again before it trains, and
/// the allocation xorshift starts from the backend's fixed seed. A base
/// table of 2-bit counters (`0..=3`, starting weakly not-taken) and four
/// tagged components of `(tag, ctr, useful)` over histories 4, 8, 16 and
/// 32, each as large as the base. It shares no code with `bscope-bpu`, so
/// lockstep agreement checks the backend's one-lookup commit.
struct RefTage {
    front: RefFrontEnd,
    base: Vec<u8>,
    tagged: Vec<Vec<(u16, i8, u8)>>,
    lfsr: u64,
}

impl RefTage {
    fn new(p: &MicroarchProfile) -> Self {
        RefTage {
            front: RefFrontEnd::new(p.btb_size, 64),
            base: vec![1; p.pht_size],
            tagged: vec![vec![(0, 0, 0); p.pht_size]; 4],
            lfsr: 0x7A6E_5EED | 1,
        }
    }

    fn mask(&self) -> u64 {
        self.base.len() as u64 - 1
    }

    /// The last `4 << component` history bits, XOR-folded to index width.
    fn fold(&self, component: usize) -> u64 {
        let mask = self.mask();
        let mut rest = self.front.ghr & ((1u64 << (4 << component)) - 1);
        let mut folded = 0;
        while rest != 0 {
            folded ^= rest & mask;
            rest >>= mask.count_ones();
        }
        folded
    }

    fn index(&self, component: usize, pc: u64) -> usize {
        ((pc ^ (pc >> 7) ^ self.fold(component)) & self.mask()) as usize
    }

    fn tag(&self, component: usize, pc: u64) -> u16 {
        (((pc >> 3) ^ pc ^ self.fold(component).rotate_left(5)) & 0x3ff) as u16
    }

    fn weak(ctr: i8) -> bool {
        ctr == 0 || ctr == -1
    }

    /// The longest confident tagged match provides; the base otherwise.
    fn predict(&self, pc: u64) -> (bool, Option<usize>) {
        for c in (0..4).rev() {
            let (tag, ctr, _) = self.tagged[c][self.index(c, pc)];
            if tag == self.tag(c, pc) && !Self::weak(ctr) {
                return (ctr >= 0, Some(c));
            }
        }
        (self.base[(pc & self.mask()) as usize] >= 2, None)
    }

    fn train(&mut self, pc: u64, taken: bool) {
        let correct = self.predict(pc).0 == taken;
        let hit = (0..4).rev().find(|&c| self.tagged[c][self.index(c, pc)].0 == self.tag(c, pc));
        let mut train_base = hit.is_none();
        if let Some(c) = hit {
            let i = self.index(c, pc);
            let (_, ctr, useful) = &mut self.tagged[c][i];
            train_base = Self::weak(*ctr);
            let own_correct = (*ctr >= 0) == taken;
            *ctr = (*ctr + if taken { 1 } else { -1 }).clamp(-4, 3);
            *useful = if own_correct { (*useful + 1).min(3) } else { useful.saturating_sub(1) };
        }
        if train_base {
            let b = (pc & self.mask()) as usize;
            let level = &mut self.base[b];
            *level = if taken { (*level + 1).min(3) } else { level.saturating_sub(1) };
        }
        let start = hit.map_or(0, |c| c + 1);
        if !correct && start < 4 {
            self.lfsr ^= self.lfsr << 13;
            self.lfsr ^= self.lfsr >> 7;
            self.lfsr ^= self.lfsr << 17;
            let pick = start + (self.lfsr as usize) % (4 - start);
            let (i, tag) = (self.index(pick, pc), self.tag(pick, pc));
            let entry = &mut self.tagged[pick][i];
            if entry.2 == 0 {
                *entry = (tag, if taken { 0 } else { -1 }, 0);
            } else {
                entry.2 -= 1;
            }
        }
    }
}

/// The perceptron substrate written out per call: one separately allocated
/// weight row per entry (`[bias, w_1 … w_h]` over the profile's `h` GHR
/// bits), and `train` computes the dot product again before it trains.
struct RefPerceptron {
    front: RefFrontEnd,
    weights: Vec<Vec<i16>>,
    threshold: i32,
}

impl RefPerceptron {
    fn new(p: &MicroarchProfile) -> Self {
        RefPerceptron {
            front: RefFrontEnd::new(p.btb_size, p.ghr_bits),
            weights: vec![vec![0; p.ghr_bits as usize + 1]; p.pht_size],
            threshold: (1.93 * f64::from(p.ghr_bits) + 14.0) as i32,
        }
    }

    fn row(&self, addr: u64) -> usize {
        (addr % self.weights.len() as u64) as usize
    }

    fn output(&self, addr: u64) -> i32 {
        let w = &self.weights[self.row(addr)];
        let mut y = i32::from(w[0]);
        for (bit, &weight) in w[1..].iter().enumerate() {
            let x = if (self.front.ghr >> bit) & 1 == 1 { 1 } else { -1 };
            y += i32::from(weight) * x;
        }
        y
    }

    fn train(&mut self, addr: u64, taken: bool) {
        let y = self.output(addr);
        if (y >= 0) != taken || y.abs() <= self.threshold {
            let t: i16 = if taken { 1 } else { -1 };
            let (row, ghr) = (self.row(addr), self.front.ghr);
            let w = &mut self.weights[row];
            w[0] = w[0].saturating_add(t).clamp(-128, 127);
            for (bit, weight) in w[1..].iter_mut().enumerate() {
                let x = if (ghr >> bit) & 1 == 1 { 1 } else { -1 };
                *weight = weight.saturating_add(t * x).clamp(-128, 127);
            }
        }
    }
}

/// A reference substrate stepped against its `bscope-bpu` backend.
trait RefSubstrate {
    fn front(&mut self) -> &mut RefFrontEnd;
    /// Predicts, trains and commits one branch.
    fn execute(&mut self, addr: u64, taken: bool) -> Prediction;
    fn pht_state(&self, addr: u64) -> PhtState;
    fn set_pht_state(&mut self, addr: u64, state: PhtState);
}

impl RefSubstrate for RefTage {
    fn front(&mut self) -> &mut RefFrontEnd {
        &mut self.front
    }

    fn execute(&mut self, addr: u64, taken: bool) -> Prediction {
        let (direction, provider) = self.predict(addr);
        let prediction = self.front.prediction(addr, provider.is_some(), direction);
        self.train(addr, taken);
        self.front.commit(addr, taken, &prediction);
        prediction
    }

    fn pht_state(&self, addr: u64) -> PhtState {
        PHT_STATES[self.base[(addr & self.mask()) as usize] as usize]
    }

    fn set_pht_state(&mut self, addr: u64, state: PhtState) {
        let b = (addr & self.mask()) as usize;
        self.base[b] = two_bit_level(state);
    }
}

impl RefSubstrate for RefPerceptron {
    fn front(&mut self) -> &mut RefFrontEnd {
        &mut self.front
    }

    fn execute(&mut self, addr: u64, taken: bool) -> Prediction {
        let direction = self.output(addr) >= 0;
        let prediction = self.front.prediction(addr, true, direction);
        self.train(addr, taken);
        self.front.commit(addr, taken, &prediction);
        prediction
    }

    fn pht_state(&self, addr: u64) -> PhtState {
        match self.weights[self.row(addr)][0] {
            b if b <= -2 => PhtState::StronglyNotTaken,
            -1 => PhtState::WeaklyNotTaken,
            0 | 1 => PhtState::WeaklyTaken,
            _ => PhtState::StronglyTaken,
        }
    }

    fn set_pht_state(&mut self, addr: u64, state: PhtState) {
        let row = self.row(addr);
        let w = &mut self.weights[row];
        w.fill(0);
        w[0] = [-2, -1, 0, 2][two_bit_level(state) as usize];
    }
}

/// Steps `kind`'s backend and `model` branch by branch on a stream seeded
/// with `seed`: a loop body of eight branches, each repeating its own
/// outcome pattern (period 2-7) with a rare flip, plus taken or not-taken
/// executions of PHT aliases of the loop branches, forced PHT states and
/// forgotten branches in between. Every prediction and its correctness
/// must agree, then every PHT entry, the GHR and the statistics. Returns
/// how many predictions a history-indexed component provided.
fn substrate_lockstep<M: RefSubstrate>(
    kind: BackendKind,
    profile: &MicroarchProfile,
    mut model: M,
    seed: u64,
) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut backend = kind.build(profile.clone());
    let what = format!("{:?}/{kind}", profile.arch);
    let branches: Vec<(u64, u64, u64)> = (0..8u64)
        .map(|i| (pool_addr(i), rng.gen_range(2..8), rng.gen::<u64>()))
        .collect();
    let pht = profile.pht_size as u64;
    for iter in 0..300u64 {
        for &(addr, period, pattern) in &branches {
            let taken = ((pattern >> (iter % period)) & 1 == 1) ^ rng.gen_bool(0.02);
            let loop_branch = branches[rng.gen_range(0..branches.len())].0;
            let roll = rng.gen_range(0..100);
            let alias =
                (roll <= 5).then(|| (loop_branch + pht * rng.gen_range(1..4), rng.gen_bool(0.5)));
            for (addr, taken) in std::iter::once((addr, taken)).chain(alias) {
                let want = model.execute(addr, taken);
                let (got, correct) = backend.execute(addr, Outcome::from_bool(taken), None);
                assert_eq!(got, want, "{what}: iteration {iter} at {addr:#x}");
                assert_eq!(correct, want.direction.is_taken() == taken, "{what}");
            }
            match roll {
                6 | 7 => {
                    let state = PHT_STATES[rng.gen_range(0..4)];
                    model.set_pht_state(loop_branch, state);
                    backend.set_pht_state(loop_branch, state);
                }
                8 => {
                    model.front().forget(loop_branch);
                    backend.forget_branch(loop_branch);
                }
                _ => {}
            }
        }
    }
    for index in 0..pht {
        assert_eq!(backend.pht_state(index), model.pht_state(index), "{what}: entry {index}");
    }
    assert_eq!(backend.ghr().value(), model.front().ghr, "{what}");
    assert_eq!(backend.stats(), model.front().stats, "{what}");
    backend.stats().gshare_used
}

/// The 32 KiB direct-mapped L1i written out straight-line: a tag per set
/// (`None` when empty) and the index/tag split of the line number. It
/// shares no code with `bscope-uarch`'s `InstructionCache`, so lockstep
/// agreement checks every cold touch across evictions and flushes.
struct RefICache {
    tags: Vec<Option<u64>>,
}

impl RefICache {
    const LINE_BYTES: u64 = 64;
    const LINES: u64 = 512;

    fn new() -> Self {
        RefICache { tags: vec![None; Self::LINES as usize] }
    }

    /// Whether `addr`'s line was resident; it is afterwards.
    fn touch(&mut self, addr: u64) -> bool {
        let line = addr / Self::LINE_BYTES;
        let (index, tag) = ((line % Self::LINES) as usize, line / Self::LINES);
        let hit = self.tags[index] == Some(tag);
        self.tags[index] = Some(tag);
        hit
    }

    fn flush(&mut self) {
        self.tags.fill(None);
    }
}

/// Seed tag of the core's noise stream: noise draws from
/// `StdRng::seed_from_u64(splitmix64(seed ^ NOISE_STREAM))`.
const NOISE_STREAM: u64 = 0x4E01_5E00_D1A7_0003;

/// Cycles one branch advances the core clock: the throughput cost plus a
/// stall for each of misprediction, cold i-cache and taken BTB miss.
/// Written out here rather than imported, so the lockstep checks the
/// core's values.
const THROUGHPUT_CYCLES: u64 = 2;
const MISPREDICT_STALL: u64 = 18;
const COLD_STALL: u64 = 30;
const BTB_MISS_TAKEN_STALL: u64 = 8;

/// `SimCore` written out straight-line over a [`PredictorBackend`] (which
/// [`RefHybrid`] checks): it samples every branch's latency eagerly,
/// checks for due noise arrivals inline on every branch by comparing
/// fractional arrival times, and routes every BPU access through the
/// policy inline. Lockstep agreement with the lazy, scheduled core checks
/// the index keying of the latency and fuzz draws, the noise schedule and
/// its re-arming, and where the policy call sits.
struct RefCore {
    bpu: PredictorBackend,
    icache: RefICache,
    policy: Option<Box<dyn BpuPolicy>>,
    fuzz: Option<MeasurementFuzz>,
    noise: Option<NoiseConfig>,
    noise_rng: StdRng,
    next_arrival: f64,
    seed: u64,
    /// Foreground branches so far.
    n: u64,
    /// Background-noise branches so far.
    noise_branches: u64,
    tsc: u64,
    counters: [PerfCounters; 2],
}

impl RefCore {
    fn new(bpu: PredictorBackend, seed: u64) -> Self {
        RefCore {
            bpu,
            icache: RefICache::new(),
            policy: None,
            fuzz: None,
            noise: None,
            noise_rng: StdRng::seed_from_u64(splitmix64(seed ^ NOISE_STREAM)),
            next_arrival: f64::INFINITY,
            seed,
            n: 0,
            noise_branches: 0,
            tsc: 0,
            counters: [PerfCounters::new(); 2],
        }
    }

    fn set_noise(&mut self, noise: Option<NoiseConfig>) {
        self.noise = noise;
        self.next_arrival = self.tsc as f64;
        self.draw_gap();
    }

    fn draw_gap(&mut self) {
        match &self.noise {
            Some(cfg) if cfg.branches_per_kcycle > 0.0 => {
                let u: f64 = self.noise_rng.gen_range(0.0..1.0);
                self.next_arrival += (1_000.0 / cfg.branches_per_kcycle) * -(1.0 - u).ln();
            }
            _ => self.next_arrival = f64::INFINITY,
        }
    }

    fn route(&mut self, ctx: u32, addr: u64) -> Route {
        match &mut self.policy {
            Some(policy) => policy.route(ctx, addr, self.tsc),
            None => Route::Predict(addr),
        }
    }

    fn inject_due_noise(&mut self) {
        while self.next_arrival <= self.tsc as f64 {
            let cfg = self.noise.clone().expect("an arrival is scheduled only with noise on");
            let addr = self.noise_rng.gen_range(cfg.addr_range.clone());
            let outcome = Outcome::from_bool(self.noise_rng.gen_bool(cfg.taken_bias));
            self.noise_branches += 1;
            if let Route::Predict(indexed) = self.route(NOISE_CTX, addr) {
                self.bpu.execute(indexed, outcome, None);
            }
            self.draw_gap();
        }
    }

    fn advance_cycles(&mut self, cycles: u64) {
        self.tsc += cycles;
        self.inject_due_noise();
    }

    /// One foreground branch and the latency it would measure if timed.
    fn branch(&mut self, ctx: u32, addr: u64, outcome: Outcome) -> (BranchEvent, u64) {
        self.inject_due_noise();
        let index = self.n;
        self.n += 1;
        let cold = !self.icache.touch(addr);
        let (prediction, mispredicted) = match self.route(ctx, addr) {
            Route::Predict(indexed) => {
                let (prediction, correct) = self.bpu.execute(indexed, outcome, None);
                (prediction, !correct)
            }
            Route::PredictNoUpdate(indexed) => {
                let prediction = self.bpu.predict(indexed);
                (prediction, prediction.direction != outcome)
            }
            Route::Bypass => {
                let prediction =
                    Prediction { direction: Outcome::NotTaken, two_level: false, btb_hit: false };
                (prediction, outcome.is_taken())
            }
        };
        let taken_btb_miss = outcome.is_taken() && !prediction.btb_hit;
        let mut latency = timing::sample(self.seed, index, mispredicted, cold, taken_btb_miss);
        self.tsc += THROUGHPUT_CYCLES;
        for (stalled, stall) in [
            (mispredicted, MISPREDICT_STALL),
            (cold, COLD_STALL),
            (taken_btb_miss, BTB_MISS_TAKEN_STALL),
        ] {
            self.tsc += if stalled { stall } else { 0 };
        }
        let mut recorded = mispredicted;
        if let Some(fuzz) = self.fuzz {
            recorded = fuzz.fuzz_miss(self.seed, index, mispredicted);
            latency = fuzz.fuzz_latency(self.seed, index, latency);
        }
        self.counters[ctx as usize].record_branch(recorded);
        (BranchEvent { addr, outcome, prediction, mispredicted: recorded, cold }, latency)
    }
}

/// The defenses the lockstep covers: none, each §10.2 hardware policy and
/// measurement fuzzing.
const DEFENSES: [&str; 7] =
    ["none", "randomized", "randomized+rekey", "partitioned", "no-predict", "stochastic", "fuzz"];

/// Branch address of pool slot `slot`: a small pool, so branches collide
/// in the PHT and the BTB.
fn pool_addr(slot: u64) -> u64 {
    0x40_0000 + slot * 0x1f3
}

/// A straight-line run of 1-64 branches for step `step` of a stream
/// seeded with `seed`, as `SimCore::execute_block` takes it: offsets from
/// the run's base rising by 2 or 3 bytes, random outcomes.
fn block_run(seed: u64, step: usize) -> Vec<(u32, Outcome)> {
    let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ step as u64));
    let mut offset = 0u32;
    (0..rng.gen_range(1..=64))
        .map(|_| {
            let branch = (offset, Outcome::from_bool(rng.gen_bool(0.5)));
            offset += rng.gen_range(2..=3);
            branch
        })
        .collect()
}

/// A fresh instance of `defense` (every call builds an identical one).
fn defense(
    name: &str,
    seed: u64,
    pht_size: usize,
) -> (Option<Box<dyn BpuPolicy>>, Option<MeasurementFuzz>) {
    let keyed = |mut p: RandomizedPhtPolicy| {
        for ctx in [0, 1, NOISE_CTX] {
            let _ = p.key_of(ctx);
        }
        p
    };
    let policy: Option<Box<dyn BpuPolicy>> = match name {
        "randomized" => Some(Box::new(keyed(RandomizedPhtPolicy::new(seed)))),
        "randomized+rekey" => {
            Some(Box::new(keyed(RandomizedPhtPolicy::new(seed).with_rekey_interval(37))))
        }
        "partitioned" => Some(Box::new(PartitionedBpuPolicy::new(pht_size as u64, 4))),
        "no-predict" => Some(Box::new(
            NoPredictPolicy::new().with_protected(0, pool_addr(0)).with_protected(1, pool_addr(1)),
        )),
        "stochastic" => Some(Box::new(StochasticFsmPolicy::new(0.3, seed))),
        _ => None,
    };
    (policy, (name == "fuzz").then(MeasurementFuzz::strong))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The whole machine is deterministic: identical seeds and identical
    /// branch traces produce identical predictions, counters and clocks.
    #[test]
    fn simulation_is_deterministic(
        seed in any::<u64>(),
        trace in proptest::collection::vec((0u64..4096, any::<bool>()), 1..200),
    ) {
        let run = || {
            let mut sys = System::new(MicroarchProfile::skylake(), seed);
            let pid = sys.spawn("p", AslrPolicy::Disabled);
            for &(off, taken) in &trace {
                sys.cpu(pid).branch_at(off, Outcome::from_bool(taken));
            }
            (sys.cpu(pid).counters(), sys.cpu(pid).rdtscp())
        };
        prop_assert_eq!(run(), run());
    }

    /// Two hybrid predictors fed the same dynamic stream stay in lockstep —
    /// prediction is a pure function of architectural history.
    #[test]
    fn hybrid_predictors_stay_in_lockstep(
        trace in proptest::collection::vec((0u64..2048, any::<bool>()), 1..300),
    ) {
        let mut a = BackendKind::Hybrid.build(MicroarchProfile::haswell());
        let mut b = BackendKind::Hybrid.build(MicroarchProfile::haswell());
        for &(addr, taken) in &trace {
            let (pa, _) = a.execute(addr, Outcome::from_bool(taken), None);
            let (pb, _) = b.execute(addr, Outcome::from_bool(taken), None);
            prop_assert_eq!(pa, pb);
        }
    }

    /// The hybrid backend agrees branch by branch with [`RefHybrid`] on
    /// every paper machine: direction, BTB hit, component used, correctness
    /// and the branch's BTB target after the commit, then every bimodal PHT
    /// entry and the GHR at the end.
    ///
    /// Random addresses almost never hit the BTB or migrate a chooser, so
    /// the stream is a loop body of six branches, each repeating its own
    /// outcome pattern (period 2-6, never constant) with a rare flip, plus
    /// occasional taken executions of two BTB aliases of the first branch,
    /// which evict its entry and so restart its chooser.
    #[test]
    fn hybrid_backend_matches_reference_model(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for profile in MicroarchProfile::paper_machines() {
            let mut backend = BackendKind::Hybrid.build(profile.clone());
            let mut model = RefHybrid::new(&profile);
            // (address, period, pattern): bit 0 taken and bit 1 not taken,
            // so no pattern is constant.
            let branches: Vec<(u64, u64, u64)> = (0..6u64)
                .map(|i| (0x40_0000 + i * 0x1f3, rng.gen_range(2..7), (rng.gen::<u64>() | 1) & !2))
                .collect();
            let first = branches[0].0;
            let aliases = [first + profile.btb_size as u64, first + 2 * profile.btb_size as u64];
            let mut stream = Vec::new();
            for iter in 0..400u64 {
                for &(addr, period, pattern) in &branches {
                    let taken = (pattern >> (iter % period)) & 1 == 1;
                    stream.push((addr, taken ^ rng.gen_bool(0.01)));
                }
                if rng.gen_bool(0.05) {
                    stream.push((aliases[rng.gen_range(0..2)], true));
                }
            }
            for (addr, taken) in stream {
                let want = model.execute(addr, taken);
                let (got, correct) = backend.execute(addr, Outcome::from_bool(taken), None);
                let got_view = RefPrediction {
                    taken: got.direction.is_taken(),
                    btb_hit: got.btb_hit,
                    used_gshare: got.two_level,
                };
                prop_assert_eq!(&got_view, &want, "{:?} at {:#x}", profile.arch, addr);
                prop_assert_eq!(correct, want.taken == taken);
                prop_assert_eq!(backend.btb().lookup(addr), model.btb_target(addr));
            }
            let arch = profile.arch;
            prop_assert!(backend.stats().gshare_used > 0, "{:?}: chooser never migrated", arch);
            for index in 0..profile.pht_size {
                prop_assert_eq!(backend.pht_state(index as u64), model.pht_state(index));
            }
            prop_assert_eq!(backend.ghr().value(), model.ghr);
        }
    }

    /// The TAGE backend agrees branch by branch with [`RefTage`] on every
    /// paper machine, and the stream reaches confident tagged providers.
    #[test]
    fn tage_backend_matches_reference_model(seed in any::<u64>()) {
        for profile in MicroarchProfile::paper_machines() {
            let model = RefTage::new(&profile);
            let tagged = substrate_lockstep(BackendKind::Tage, &profile, model, seed);
            prop_assert!(tagged > 0, "{:?}: no tagged component ever provided", profile.arch);
        }
    }

    /// The perceptron backend agrees branch by branch with
    /// [`RefPerceptron`] on every paper machine.
    #[test]
    fn perceptron_backend_matches_reference_model(seed in any::<u64>()) {
        for profile in MicroarchProfile::paper_machines() {
            let model = RefPerceptron::new(&profile);
            substrate_lockstep(BackendKind::Perceptron, &profile, model, seed);
        }
    }

    /// Priming is idempotent at the architectural level: after a prime, the
    /// target entry is in the configured strong state regardless of any
    /// prior branch history.
    #[test]
    fn prime_always_lands_in_the_configured_state(
        history in proptest::collection::vec((0u64..65_536, any::<bool>()), 0..300),
        prime_taken in any::<bool>(),
    ) {
        let profile = MicroarchProfile::skylake();
        let mut sys = System::new(profile.clone(), 7);
        let victim = sys.spawn("victim", AslrPolicy::Disabled);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let target = sys.process(victim).vaddr_of(0x6d);
        // Arbitrary victim activity first.
        for &(off, taken) in &history {
            sys.cpu(victim).branch_at(off, Outcome::from_bool(taken));
        }
        let state = if prime_taken { PhtState::StronglyTaken } else { PhtState::StronglyNotTaken };
        let mut prime = branchscope::attack::TargetedPrime::new(target, state);
        prime.prime(&mut sys.cpu(spy));
        prop_assert_eq!(sys.core().bpu().pht_state(target), state);
        // The victim's own BTB entry is always evicted; a *taken* prime then
        // installs the spy's entry at the same address (same tag), so only
        // the not-taken prime leaves the slot empty.
        prop_assert_eq!(sys.core().bpu().btb().contains(target), prime_taken);
    }

    /// For every usable (counter, primed-state, probe) configuration, the
    /// dictionary decodes its own expected patterns back to the victim
    /// direction that produced them.
    #[test]
    fn dictionaries_are_self_consistent(kind_sky in any::<bool>(), primed_taken in any::<bool>()) {
        let kind = if kind_sky { CounterKind::SkylakeAsymmetric } else { CounterKind::TwoBit };
        let primed = if primed_taken { PhtState::StronglyTaken } else { PhtState::StronglyNotTaken };
        for probe in [ProbeKind::TakenTaken, ProbeKind::NotTakenNotTaken] {
            if let Ok(dict) = DirectionDict::build(kind, primed, probe) {
                for victim in [Outcome::Taken, Outcome::NotTaken] {
                    prop_assert_eq!(dict.decode(dict.expected(victim)), victim);
                }
            }
        }
    }

    /// A single noiseless attack round reads the victim's direction
    /// correctly from any prior machine state the victim may have created.
    #[test]
    fn one_round_is_correct_from_arbitrary_machine_state(
        warmup in proptest::collection::vec((0u64..32_768, any::<bool>()), 0..200),
        secret in any::<bool>(),
    ) {
        let profile = MicroarchProfile::haswell();
        let mut sys = System::new(profile.clone(), 11);
        let victim = sys.spawn("victim", AslrPolicy::Disabled);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let target = sys.process(victim).vaddr_of(0x6d);
        for &(off, taken) in &warmup {
            sys.cpu(victim).branch_at(off, Outcome::from_bool(taken));
        }
        let mut attack = BranchScope::new(AttackConfig::for_profile(&profile)).unwrap();
        let read = attack.read_bit(&mut sys, spy, target, |sys| {
            sys.cpu(victim).branch_at(0x6d, Outcome::from_bool(secret));
        });
        prop_assert_eq!(read, Outcome::from_bool(secret));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `SimCore` agrees step by step with [`RefCore`] on random streams of
    /// timed and plain branches and straight-line blocks
    /// (`SimCore::execute_block`, replayed branch by branch by the
    /// reference) from two contexts, clock advances, noise
    /// re-configurations, i-cache flushes and timed branches at i-cache set
    /// aliases of the pool, on every backend, under every defense, with
    /// noise on and off: every branch event (so every cold touch), every
    /// timed latency, then the counters, the clock, the simulated-branch
    /// count, every PHT entry, the GHR and the predictor statistics.
    #[test]
    fn sim_core_matches_reference_core(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..18, any::<bool>(), 0u64..48, any::<bool>()), 50..250),
    ) {
        let profile = MicroarchProfile::paper_machines()[(seed % 3) as usize].clone();
        for backend in BackendKind::ALL {
            for name in DEFENSES {
                for noisy in [false, true] {
                    let mut core = SimCore::with_backend(backend.build(profile.clone()), seed);
                    let mut reference = RefCore::new(backend.build(profile.clone()), seed);
                    let (policy, fuzz) = defense(name, seed, profile.pht_size);
                    if let Some(policy) = policy {
                        core.set_policy(policy);
                    }
                    core.set_measurement_fuzz(fuzz).unwrap();
                    (reference.policy, reference.fuzz) = defense(name, seed, profile.pht_size);
                    if noisy {
                        core.set_noise(Some(NoiseConfig::heavy())).unwrap();
                        reference.set_noise(Some(NoiseConfig::heavy()));
                    }
                    let what = format!("{:?}/{backend}/{name}/noise {noisy}", profile.arch);
                    for (step, &(kind, ctx, slot, taken)) in ops.iter().enumerate() {
                        let (ctx, addr, outcome) = (u32::from(ctx), pool_addr(slot), Outcome::from_bool(taken));
                        match kind {
                            0 => {
                                core.advance_cycles(slot * 41);
                                reference.advance_cycles(slot * 41);
                            }
                            1 if noisy => {
                                let cfg = [None, Some(NoiseConfig::isolated_core()), Some(NoiseConfig::heavy())]
                                    [(slot % 3) as usize]
                                    .clone();
                                core.set_noise(cfg.clone()).unwrap();
                                reference.set_noise(cfg);
                            }
                            2..=4 => {
                                let got = core.execute_timed_branch_in(ctx, addr, outcome);
                                prop_assert_eq!(got, reference.branch(ctx, addr, outcome), "{} step {}", what, step);
                            }
                            5 => {
                                core.icache_mut().flush();
                                reference.icache.flush();
                            }
                            6 => {
                                // One L1i size above a pool address: the
                                // same set, another line, so it evicts.
                                let alias = addr + RefICache::LINES * RefICache::LINE_BYTES;
                                let got = core.execute_timed_branch_in(ctx, alias, outcome);
                                prop_assert_eq!(got, reference.branch(ctx, alias, outcome), "{} step {}", what, step);
                            }
                            16 | 17 => {
                                let run = block_run(seed, step);
                                core.execute_block(ctx, addr, &run);
                                for (offset, outcome) in run {
                                    reference.branch(ctx, addr + u64::from(offset), outcome);
                                }
                            }
                            _ => {
                                let got = core.execute_branch_in(ctx, addr, outcome, None);
                                prop_assert_eq!(got, reference.branch(ctx, addr, outcome).0, "{} step {}", what, step);
                            }
                        }
                    }
                    prop_assert_eq!(core.rdtscp(), reference.tsc, "{}", what);
                    prop_assert_eq!(core.sim_branches(), reference.n + reference.noise_branches, "{}", what);
                    prop_assert_eq!([core.counters(0), core.counters(1)], reference.counters, "{}", what);
                    prop_assert_eq!(core.bpu().stats(), reference.bpu.stats(), "{}", what);
                    prop_assert_eq!(core.bpu().ghr().value(), reference.bpu.ghr().value(), "{}", what);
                    for index in 0..profile.pht_size as u64 {
                        prop_assert_eq!(core.bpu().pht_state(index), reference.bpu.pht_state(index), "{} entry {}", what, index);
                    }
                }
            }
        }
    }
}
