//! `udma-testkit` — the in-tree deterministic test and bench kit.
//!
//! The workspace builds with **zero crates.io dependencies** so that
//! `cargo build --offline && cargo test --offline` works on an
//! air-gapped machine. Everything the suites used to pull from `rand`,
//! `proptest` and `criterion` lives here instead, stripped down to the
//! exact surface this repository needs:
//!
//! - [`rng`]: a seedable xoshiro256** PRNG (SplitMix64-expanded seed)
//!   with `gen_range`/`gen_bool`/`gen_f64`, for the randomized
//!   schedulers and attack searches.
//! - [`prop`]: a minimal property-testing harness — strategies for
//!   integers, ranges, one-of, tuples and vectors, a fixed case count,
//!   greedy integer/vector shrinking, and a printed seed that replays a
//!   failure via `UDMA_PROP_SEED`.
//! - [`sched`]: a bounded interleaving explorer — exhaustive merge-order
//!   enumeration up to a schedule budget, then a seeded-random tail —
//!   backing the E3–E6 race and attack explorations.
//! - [`bench`]: a warmup+iterations wall-clock timer with
//!   median/p10/p90 JSON output, so the bench targets are plain
//!   harness-free binaries that emit `BENCH_*.json`-shaped records.
//! - [`crc32_bitwise`]: the bit-at-a-time CRC-32, the reference the
//!   table-driven checksum and the cluster memory digests are pinned to.
//!
//! Determinism is the design rule throughout: every random decision
//! flows from an explicit `u64` seed, and every failure report prints
//! the seed that reproduces it.

#![forbid(unsafe_code)]

pub mod bench;
pub mod prop;
pub mod rng;
pub mod sched;

pub use rng::TestRng;

/// CRC-32/ISO-HDLC (reflected polynomial `0xEDB8_8320`, init and xorout
/// `0xFFFF_FFFF`), one bit at a time: the slow, obviously correct
/// reference that tests compare the table-driven `udma_nic::crc32` to.
pub fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let lsb = crc & 1;
            crc >>= 1;
            if lsb != 0 {
                crc ^= 0xEDB8_8320;
            }
        }
    }
    !crc
}
