//! Measures the three facts the benchmark's README records about the
//! simulator as it stands, so they can be re-checked on any commit:
//!
//! 1. `ClusterSim` does not share a node's link between its concurrent
//!    transfers: four 256 KiB transfers posted together from one node
//!    finish when one alone does.
//! 2. Table 1 error: each row's simulated µs per initiation against the
//!    paper's (`measure_initiation` at 1000 initiations).
//! 3. `ClusterSim::digest` host cost against `ClusterSim::run` on a
//!    64-node cluster of 8 MiB nodes.
//!
//! Run: `cargo run --release --offline --manifest-path perfbench/Cargo.toml --bin facts`

use std::time::Instant;
use udma::{measure_initiation, ClusterConfig, ClusterSim, DmaMethod};
use udma_bus::SimTime;
use udma_mem::{Perms, VirtAddr, PAGE_SIZE};

const ASID: u32 = 3;
const VA: u64 = 16 * PAGE_SIZE;
const LEN: u64 = 256 * 1024;

fn finish_times(concurrent: u64) -> Vec<f64> {
    let mut cfg = ClusterConfig::new(2);
    cfg.pin_on_post = true;
    cfg.node_bytes = 8 << 20;
    let mut sim = ClusterSim::new(cfg);
    let pages = concurrent * LEN / PAGE_SIZE;
    sim.grant(1, ASID, VirtAddr::new(VA), pages, Perms::READ_WRITE).expect("grant");
    let ids: Vec<_> = (0..concurrent)
        .map(|i| sim.post(0, 1, ASID, VirtAddr::new(VA + i * LEN), LEN, SimTime::ZERO))
        .collect();
    sim.run();
    ids.iter().map(|id| sim.xfer(*id).finished.expect("completes").as_us() / 1e3).collect()
}

fn main() {
    println!("1. link sharing: one 256 KiB transfer finishes at {:?} ms", finish_times(1));
    println!("   four posted together from one node finish at {:?} ms", finish_times(4));

    println!("2. Table 1 at 1000 initiations:");
    for method in DmaMethod::TABLE1 {
        let c = measure_initiation(method, 1000);
        let paper = c.paper_us.expect("Table 1 row");
        println!(
            "   {:<28} {:>8.3} us  paper {:>6.2} us  error {:>5.2}%",
            method.to_string(),
            c.mean.as_us(),
            paper,
            (c.vs_paper().expect("Table 1 row") - 1.0).abs() * 100.0
        );
    }

    let mut cfg = ClusterConfig::new(64);
    cfg.node_bytes = 8 << 20;
    cfg.pin_on_post = true;
    let mut sim = ClusterSim::new(cfg);
    for node in 0..64u32 {
        sim.grant(node, ASID, VirtAddr::new(VA), 64, Perms::READ_WRITE).expect("grant");
    }
    for k in 0..2048u64 {
        let src = (k % 64) as u32;
        let dst = ((k * 7 + 1 + k / 64) % 64) as u32;
        let dst = if dst == src { (dst + 1) % 64 } else { dst };
        let va = VirtAddr::new(VA + (k / 64 % 64) * PAGE_SIZE);
        sim.post(src, dst, ASID, va, PAGE_SIZE, SimTime::from_us(k * 40));
    }
    let t = Instant::now();
    let report = sim.run();
    let run_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let digest = sim.digest();
    let digest_s = t.elapsed().as_secs_f64();
    println!(
        "3. 64 x 8 MiB nodes, {} events: ClusterSim::run {run_s:.3} s, ClusterSim::digest {digest_s:.3} s ({} node CRCs)",
        report.events,
        digest.nodes.len()
    );
}
