//! What one round of a workload produces, and the statistics over rounds.

use crate::trace::Tracer;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Duration;

/// A workload, in the three phases the benchmark times separately. Each
/// phase makes only public calls into the udma crates.
pub trait Workload {
    /// Everything one round builds and runs.
    type World;
    /// Builds the world from the seed: the set-up phase.
    fn setup(&self, seed: u64, tr: &mut Tracer) -> Result<Self::World, String>;
    /// Advances the simulation to its end: the run phase.
    fn run(&self, w: &mut Self::World, tr: &mut Tracer) -> Result<(), String>;
    /// Checks the outputs and reads every counter: the verify phase. The
    /// returned round carries no host times; the caller fills them in.
    fn verify(&self, w: Self::World, tr: &mut Tracer) -> Result<Round, String>;
    /// The kind of host work the verify phase mostly does, which picks the
    /// reference loop its time is scaled by.
    fn verify_work(&self) -> HostWork {
        HostWork::Maps
    }
}

/// Two kinds of host work, which a shared host slows down differently.
/// Over seven 8 s runs on the host this was written on, the map-traffic
/// loop's time ranged over 0.98–1.78 ms while the CRC loop's stayed
/// within 10%.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostWork {
    /// Ordered-map, hash-map and allocation traffic: [`reference_loop`].
    Maps,
    /// Byte-at-a-time arithmetic over cache-resident data:
    /// [`reference_crc_loop`].
    Crc,
}

/// One round: a fresh set-up of the workload's world, the timed run, and
/// the output checks. Every simulated number is deterministic in the
/// seed, so every round of one invocation must report the same `sim`,
/// `counters` and `fingerprint`.
#[derive(Debug, Default)]
pub struct Round {
    /// Host time to build the world (machines or cluster, spawn, grant,
    /// pin, post).
    pub setup: Duration,
    /// Host time of the run phase: the public calls that advance the
    /// simulation.
    pub run: Duration,
    /// Host time of the output checks.
    pub verify: Duration,
    /// Host time of the reference loop around this round's run phase.
    pub reference: Duration,
    /// Host time of the CRC reference loop around this round's run phase.
    pub reference_crc: Duration,
    /// Operations (initiations or transfers) that completed.
    pub completed: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Simulated end-to-end metrics.
    pub sim: BTreeMap<&'static str, f64>,
    /// Per-layer counters read from the crates' stats accessors.
    pub counters: BTreeMap<&'static str, f64>,
    /// Per-layer host-time metrics derived from span totals.
    pub host: BTreeMap<&'static str, f64>,
    /// A hash over every simulated outcome of the round (memory, digests,
    /// per-transfer states and times).
    pub fingerprint: u64,
}

impl Round {
    /// The first simulated value that differs from `other`, by name.
    pub fn first_divergence(&self, other: &Round) -> Option<String> {
        for (label, a, b) in
            [("sim", &self.sim, &other.sim), ("counter", &self.counters, &other.counters)]
        {
            for (k, va) in a {
                match b.get(k) {
                    Some(vb) if vb.to_bits() == va.to_bits() => {}
                    Some(vb) => return Some(format!("{label} {k}: {va} != {vb}")),
                    None => return Some(format!("{label} {k}: missing in one round")),
                }
            }
            if a.len() != b.len() {
                return Some(format!("{label} sets differ in size"));
            }
        }
        if self.completed != other.completed || self.attempted != other.attempted {
            return Some("completed/attempted counts".to_string());
        }
        if self.fingerprint != other.fingerprint {
            return Some(format!(
                "fingerprint: {:#018x} != {:#018x}",
                self.fingerprint, other.fingerprint
            ));
        }
        None
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of a non-empty sample.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// The round fingerprint: a word-at-a-time multiplicative hash, cheap
/// enough that hashing every outcome adds little to the verify phase.
#[derive(Clone, Copy, Default)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    pub fn u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }

    pub fn bytes(&mut self, data: &[u8]) {
        for chunk in data.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.u64(u64::from_le_bytes(word));
        }
    }
}

/// SplitMix64: the benchmark's input generator, seeded from `--seed`.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Ratio that reads 0 instead of NaN when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The reference loops' time on an uncontended core of the host the
/// benchmark was written on (Intel Xeon, 2 vCPUs): the unit in which the
/// scaled host times count seconds. Both loops are sized to it.
pub const REFERENCE_NOMINAL: Duration = Duration::from_millis(1);

/// A fixed piece of host work that calls none of the simulator's code:
/// ordered-map, hash-map and small-vector traffic like the simulator's.
/// Timed just before and after every round's run phase, it measures how
/// fast the host core is running. On the shared host this was written
/// on, that speed drifted by up to 2x for minutes at a time.
pub fn reference_loop() -> Duration {
    let t0 = thread_cpu_time();
    let mut ordered = BTreeMap::new();
    let mut hashed: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 0x1234_5678_9abc_def0u64;
    let mut acc = 0u64;
    for i in 0..12_000u64 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        ordered.insert(x >> 40, i);
        hashed.insert(x >> 44, vec![i; 4]);
        if let Some((_, v)) = ordered.pop_first() {
            acc ^= v;
        }
        acc = acc.wrapping_add(hashed.get(&(x >> 45)).map_or(0, |v| v[0]));
    }
    std::hint::black_box(acc);
    thread_cpu_time() - t0
}

/// A second fixed piece of host work, also calling none of the
/// simulator's code: bitwise CRC-32 over a 4 KiB buffer that stays in the
/// L1 cache, the kind of work `ClusterSim::digest` does over node memory.
/// A shared core slows it far less than it slows [`reference_loop`], so
/// phases made mostly of such work are scaled by this loop instead.
pub fn reference_crc_loop() -> Duration {
    let t0 = thread_cpu_time();
    let mut buf = [0u8; 4096];
    let mut x = 0x1234_5678u32;
    for b in buf.iter_mut() {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        *b = (x >> 24) as u8;
    }
    let mut acc = 0u32;
    for _ in 0..80 {
        let mut crc = !0u32;
        for &byte in std::hint::black_box(&buf) {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let lsb = crc & 1;
                crc >>= 1;
                if lsb != 0 {
                    crc ^= 0xEDB8_8320;
                }
            }
        }
        acc ^= !crc;
    }
    std::hint::black_box(acc);
    thread_cpu_time() - t0
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has run. Unlike wall time it leaves out
/// time the hypervisor gave the virtual CPU to someone else (steal time,
/// with the kernel's paravirt time accounting), which on a shared host
/// stretched single rounds by 2x and more.
pub fn thread_cpu_time() -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux); `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU time is not negative"),
        u32::try_from(ts.tv_nsec).expect("nanoseconds fit in u32"),
    )
}
