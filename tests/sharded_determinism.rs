//! Differential determinism: the sharded parallel runner must replay
//! the sequential oracle's history *exactly* — final memories, IOTLB
//! and fault-service counters, link counters, per-transfer completion
//! times and (when recorded) the merged event log — at every shard
//! count, on every workload shape the cluster experiments use.
//!
//! Each scenario runs at a pinned seed; on divergence the failure
//! message names the scenario, the seed and the first diverging sim
//! event so the run can be replayed and bisected.
//!
//! Two golden checks close the gap differential runs leave open: a
//! change that moves every backend alike. They pin a full cluster digest
//! and a Machine-world remote run to hashes recorded earlier, so any
//! moved simulated result fails here.

use udma::{
    ClusterConfig, ClusterDigest, ClusterSim, DmaMethod, Machine, MachineConfig, ProcessSpec,
    VirtDmaSetup,
};
use udma_bus::sim::RunnerKind;
use udma_bus::SimTime;
use udma_cpu::ProgramBuilder;
use udma_iommu::{Asid, IotlbConfig};
use udma_mem::{Perms, PhysAddr, VirtAddr, PAGE_SIZE};
use udma_nic::{CrashPlan, FaultPlan, TransferRecord, XferState};
use udma_testkit::crc32_bitwise;
use udma_testkit::rng::TestRng;

const ASID: Asid = 3;
const BASE: u64 = 64 * PAGE_SIZE;
const REGION_PAGES: u64 = 12;
const NODES: u32 = 12;

/// The three workload shapes of the cluster experiments.
#[derive(Clone, Copy, Debug)]
enum Scenario {
    /// E13 shape: demand-faulting destinations, partially pinned, some
    /// pages swapped out so the swap-in fault path fires.
    ColdDemand,
    /// E14 shape: pin-on-post (no destination faults) under seeded
    /// chaos frame loss, exercising go-back-N and the retry budget.
    ChaosLoss,
    /// E15 shape: cold destinations with range announcements, buying
    /// one NACK per range instead of one per page.
    ColdAnnounced,
}

/// Builds the scenario's cluster on a given backend. Every decision
/// (destinations, lengths, launch times, swap-outs) comes from a
/// `TestRng` stream seeded identically for every backend, so the only
/// variable across calls is the runner under test.
fn build(scenario: Scenario, seed: u64, shards: usize, runner: RunnerKind) -> ClusterSim {
    let mut cfg = ClusterConfig::new(NODES);
    cfg.shards = shards;
    cfg.runner = runner;
    cfg.record_log = true;
    // The workload touches 12 pages per node; a small RAM keeps the
    // digest's full-memory CRC cheap across the 45 runs this suite does.
    cfg.node_bytes = 1 << 18;
    match scenario {
        Scenario::ColdDemand => {}
        Scenario::ChaosLoss => {
            cfg.pin_on_post = true;
            cfg.chaos = Some(FaultPlan::lossless(seed).with_drop(0.15));
        }
        Scenario::ColdAnnounced => cfg.announce = true,
    }
    let mut sim = ClusterSim::new(cfg);
    let mut rng = TestRng::seed_from_u64(seed);
    for node in 0..NODES {
        sim.grant(node, ASID, VirtAddr::new(BASE), REGION_PAGES, Perms::READ_WRITE)
            .expect("fresh region");
        if matches!(scenario, Scenario::ColdDemand) {
            // Pin a random warm prefix; swap one unpinned page back out
            // so some chunks hit the swap-in (not just map-in) path.
            let warm = rng.next_u64() % (REGION_PAGES / 2);
            if warm > 0 {
                sim.pin(node, ASID, VirtAddr::new(BASE), warm * PAGE_SIZE).expect("pinnable");
            }
            let cold = warm + rng.next_u64() % (REGION_PAGES - warm);
            sim.swap_out(node, ASID, VirtAddr::new(BASE + cold * PAGE_SIZE).page())
                .expect("unpinned page swaps out");
        }
    }
    for src in 0..NODES {
        for _ in 0..2 {
            let dst = (src + 1 + (rng.next_u64() % u64::from(NODES - 1)) as u32) % NODES;
            // Arbitrary (non-page-aligned, overlapping) destination
            // ranges inside the region: overlaps make the final memory
            // image sensitive to event order, which is the point.
            let max_len = 3 * PAGE_SIZE;
            let off = rng.next_u64() % (REGION_PAGES * PAGE_SIZE - max_len);
            let len = 1 + rng.next_u64() % max_len;
            let at = SimTime::from_us(rng.next_u64() % 40);
            sim.post(src, dst, ASID, VirtAddr::new(BASE + off), len, at);
        }
    }
    sim
}

/// Runs the scenario on the oracle and on the parallel runner at 1, 2,
/// 4 and 8 shards, requiring digest identity every time.
fn differential(scenario: Scenario, seed: u64) {
    let mut oracle = build(scenario, seed, 1, RunnerKind::Sequential);
    oracle.run();
    let expect = oracle.digest();
    assert!(
        expect.xfers.iter().any(|x| x.state == XferState::Complete),
        "{scenario:?} seed {seed:#x}: oracle completed nothing — workload is vacuous"
    );
    for shards in [1usize, 2, 4, 8] {
        let mut sim = build(scenario, seed, shards, RunnerKind::Parallel);
        sim.run();
        let got = sim.digest();
        if let Some(diff) = expect.diff(&got) {
            panic!(
                "{scenario:?} seed {seed:#x}: parallel {shards}-shard run diverged from the \
                 sequential oracle\n{diff}"
            );
        }
    }
}

#[test]
fn cold_demand_matches_oracle_at_every_shard_count() {
    for seed in [0xD13, 0xD1301, 0xD1302] {
        differential(Scenario::ColdDemand, seed);
    }
}

#[test]
fn chaos_loss_matches_oracle_at_every_shard_count() {
    for seed in [0xD14, 0xD1401, 0xD1402] {
        differential(Scenario::ChaosLoss, seed);
    }
}

#[test]
fn cold_announced_matches_oracle_at_every_shard_count() {
    for seed in [0xD15, 0xD1501, 0xD1502] {
        differential(Scenario::ColdAnnounced, seed);
    }
}

/// E19 shape: the announced-cold workload with the node fault domain
/// fully lit — a crash-and-reboot (incarnation fence + ledger replay),
/// an NI-engine hang, a fault-service stall and a permanent crash, all
/// in the same run. Seeded plans are part of the workload, so the
/// digest identity across shard counts covers every crash-driven path:
/// leases, fences, probes, Hello broadcasts and grant replay.
fn build_crashy(seed: u64, shards: usize, runner: RunnerKind) -> ClusterSim {
    populate_crashy(seed, crashy_config(shards, runner))
}

fn crashy_config(shards: usize, runner: RunnerKind) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(NODES);
    cfg.shards = shards;
    cfg.runner = runner;
    cfg.record_log = true;
    cfg.node_bytes = 1 << 18;
    cfg.announce = true;
    // Tight lease so detection, fail-fast and probing all happen inside
    // the workload's own time span.
    cfg.health.lease = SimTime::from_us(150);
    cfg
}

/// The E19 workload and crash plans on a cluster built from `cfg`.
fn populate_crashy(seed: u64, cfg: ClusterConfig) -> ClusterSim {
    let mut sim = ClusterSim::new(cfg);
    let mut rng = TestRng::seed_from_u64(seed);
    for node in 0..NODES {
        sim.grant(node, ASID, VirtAddr::new(BASE), REGION_PAGES, Perms::READ_WRITE)
            .expect("fresh region");
    }
    for src in 0..NODES {
        for _ in 0..2 {
            let dst = (src + 1 + (rng.next_u64() % u64::from(NODES - 1)) as u32) % NODES;
            let max_len = 3 * PAGE_SIZE;
            let off = rng.next_u64() % (REGION_PAGES * PAGE_SIZE - max_len);
            let len = 1 + rng.next_u64() % max_len;
            let at = SimTime::from_us(rng.next_u64() % 40);
            sim.post(src, dst, ASID, VirtAddr::new(BASE + off), len, at);
        }
    }
    // One plan of each kind, on seeded victims and times.
    let mut victim = |salt: u64| (rng.next_u64().wrapping_add(salt) % u64::from(NODES)) as u32;
    let plans = [
        CrashPlan::crash(victim(1), SimTime::from_us(30), SimTime::from_us(250)),
        CrashPlan::hang(victim(2), SimTime::from_us(15), SimTime::from_us(90)),
        CrashPlan::stall(victim(3), SimTime::from_us(10), SimTime::from_us(120)),
        CrashPlan::crash_forever(victim(4), SimTime::from_us(60)),
    ];
    for plan in plans {
        sim.inject_crash(plan);
    }
    sim
}

#[test]
fn crash_churn_matches_oracle_at_every_shard_count() {
    for seed in [0xD19, 0xD1901, 0xD1902] {
        let mut oracle = build_crashy(seed, 1, RunnerKind::Sequential);
        oracle.run();
        let expect = oracle.digest();
        assert!(
            expect.nodes.iter().any(|n| n.crash.crashes > 0),
            "seed {seed:#x}: no crash landed — the plan is vacuous"
        );
        assert!(
            expect.nodes.iter().any(|n| n.health.misses > 0),
            "seed {seed:#x}: no lease ever missed — the detector never engaged"
        );
        for shards in [1usize, 2, 4, 8] {
            let mut sim = build_crashy(seed, shards, RunnerKind::Parallel);
            sim.run();
            if let Some(diff) = expect.diff(&sim.digest()) {
                panic!(
                    "seed {seed:#x}: crash-churn parallel {shards}-shard run diverged from the \
                     sequential oracle\n{diff}"
                );
            }
        }
    }
}

/// The digest really carries what the differential check claims it
/// does: perturbing the workload perturbs the digest.
#[test]
fn digest_is_sensitive_to_the_workload() {
    let mut a = build(Scenario::ColdDemand, 0xD13, 1, RunnerKind::Sequential);
    a.run();
    let mut b = build(Scenario::ColdDemand, 0xD13 + 1, 1, RunnerKind::Sequential);
    b.run();
    assert!(
        a.digest().diff(&b.digest()).is_some(),
        "two different seeds produced identical digests — the digest is too coarse to trust"
    );
}

/// Completion times, not just end states, are part of the contract:
/// the digest distinguishes runs whose transfers finish at different
/// sim times even when everything completes either way.
#[test]
fn digest_carries_completion_times() {
    let run = |pin: bool| {
        let mut cfg = ClusterConfig::new(2);
        cfg.pin_on_post = pin;
        cfg.record_log = false;
        let mut sim = ClusterSim::new(cfg);
        sim.grant(1, ASID, VirtAddr::new(BASE), 4, Perms::READ_WRITE).unwrap();
        sim.post(0, 1, ASID, VirtAddr::new(BASE), 4 * PAGE_SIZE, SimTime::ZERO);
        sim.run();
        sim.digest()
    };
    let (pinned, faulting) = (run(true), run(false));
    assert_eq!(pinned.xfers[0].state, XferState::Complete);
    assert_eq!(faulting.xfers[0].state, XferState::Complete);
    assert!(
        faulting.xfers[0].finished.expect("complete") > pinned.xfers[0].finished.expect("complete"),
        "fault round trips must show up in completion times"
    );
}

/// The crash-churn workload with seeded link loss on top, run to the
/// end: node memory holds written frames next to never-touched ones, and
/// the crash victim rebooted into zeroed memory.
fn chaotic_crash_churn(
    seed: u64,
    shards: usize,
    runner: RunnerKind,
    record_log: bool,
) -> ClusterSim {
    let mut cfg = crashy_config(shards, runner);
    cfg.chaos = Some(FaultPlan::lossless(seed).with_drop(0.1));
    cfg.record_log = record_log;
    let mut sim = populate_crashy(seed, cfg);
    sim.run();
    sim
}

/// Every node's memory digest is the plain CRC-32 of its flat image,
/// absent frames read as zeros: the value the digest has always had,
/// however it is computed.
#[test]
fn memory_digest_is_the_crc_of_the_flat_image() {
    let seed = 0xD19;
    let sim = chaotic_crash_churn(seed, 1, RunnerKind::Sequential, false);
    let digest = sim.digest();
    assert!(
        digest.nodes.iter().any(|n| n.crash.reboots > 0),
        "seed {seed:#x}: no node rebooted into fresh memory"
    );
    let (mut written, mut zero) = (0, 0);
    for n in &digest.nodes {
        let mut image = vec![0u8; sim.config().node_bytes as usize];
        sim.read_mem(n.node, PhysAddr::new(0), &mut image).expect("whole node is installed");
        assert_eq!(n.mem_crc, crc32_bitwise(&image), "node {} memory digest", n.node);
        for page in image.chunks(PAGE_SIZE as usize) {
            if page.iter().all(|&b| b == 0) {
                zero += 1;
            } else {
                written += 1;
            }
        }
    }
    assert!(written > 0 && zero > 0, "{written} written and {zero} zero pages: vacuous image");
}

/// Recording the event log only observes: the run with the log on has
/// the same memories, transfers, events, rounds and counters as the run
/// with it off, and the unrecorded log stays empty.
#[test]
fn recording_the_log_changes_nothing_else() {
    let seed = 0xD1903;
    for (shards, runner) in [(1, RunnerKind::Sequential), (4, RunnerKind::Parallel)] {
        let on = chaotic_crash_churn(seed, shards, runner, true).digest();
        let off = chaotic_crash_churn(seed, shards, runner, false).digest();
        assert!(!on.log.is_empty(), "{shards} shards: recorded log is empty");
        assert!(off.log.is_empty(), "{shards} shards: log recorded while off");
        let on = ClusterDigest { log: Vec::new(), ..on };
        if let Some(diff) = on.diff(&off) {
            panic!("{shards} shards: recording the log changed the run\n{diff}");
        }
    }
}

/// FNV-1a over a rendering: a stable 64-bit fingerprint for the golden
/// checks below.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
}

/// Every fault path of the cluster world in one small seeded run: a
/// chaos link that drops, duplicates, reorders and corrupts frames, a
/// crash and reboot, demand-paged and pinned destination slots with
/// range announcements, and the event log on.
fn golden_cluster() -> ClusterSim {
    const GOLDEN_NODES: u32 = 6;
    let mut cfg = ClusterConfig::new(GOLDEN_NODES);
    cfg.record_log = true;
    cfg.node_bytes = 1 << 18;
    cfg.announce = true;
    cfg.health.down_after = 6;
    cfg.chaos = Some(
        FaultPlan::lossless(0x601D)
            .with_drop(0.06)
            .with_duplicate(0.05)
            .with_reorder(0.05)
            .with_corrupt(0.04),
    );
    let mut sim = ClusterSim::new(cfg);
    let mut rng = TestRng::seed_from_u64(0x601D);
    for node in 0..GOLDEN_NODES {
        sim.grant(node, ASID, VirtAddr::new(BASE), REGION_PAGES, Perms::READ_WRITE)
            .expect("fresh region");
        // The low half of every region is pinned, the high half demand-faults.
        sim.pin(node, ASID, VirtAddr::new(BASE), REGION_PAGES / 2 * PAGE_SIZE).expect("pinnable");
    }
    for src in 0..GOLDEN_NODES {
        for _ in 0..3 {
            let dst =
                (src + 1 + (rng.next_u64() % u64::from(GOLDEN_NODES - 1)) as u32) % GOLDEN_NODES;
            let max_len = 3 * PAGE_SIZE;
            let off = rng.next_u64() % (REGION_PAGES * PAGE_SIZE - max_len);
            let len = 1 + rng.next_u64() % max_len;
            let at = SimTime::from_us(rng.next_u64() % 60);
            sim.post(src, dst, ASID, VirtAddr::new(BASE + off), len, at);
        }
    }
    sim.inject_crash(CrashPlan::crash(2, SimTime::from_us(40), SimTime::from_us(200)));
    sim.run();
    sim
}

/// The full cluster digest — memories, counters, transfer outcomes,
/// event totals and the event log — equals the value recorded before
/// the payload path was made copy-free. Any change to the simulator
/// that moves a simulated result, however slightly, breaks this.
#[test]
fn cluster_digest_matches_the_recorded_golden() {
    let digest = golden_cluster().digest();
    assert!(digest.nodes.iter().any(|n| n.crash.reboots > 0), "no reboot: vacuous plan");
    assert!(digest.nodes.iter().any(|n| n.nacks_raised > 0), "no demand fault: vacuous");
    let link = digest.nodes.iter().fold((0, 0, 0), |acc, n| {
        (acc.0 + n.link.crc_dropped, acc.1 + n.link.dup_ignored, acc.2 + n.link.ooo_discarded)
    });
    assert!(link.0 > 0 && link.1 > 0 && link.2 > 0, "chaos mix did not bite: {link:?}");
    let rendered = format!("{digest:?}");
    assert_eq!(
        (digest.events, digest.log.len(), fnv64(rendered.as_bytes())),
        GOLDEN_CLUSTER,
        "cluster digest moved"
    );
}

/// `(events, log lines, FNV-1a of the digest's Debug rendering)`.
const GOLDEN_CLUSTER: (u64, usize, u64) = (204, 204, 13_751_350_505_343_661_936);

/// A Machine-world remote run through the DMA mover over a chaos link:
/// three transfers of different sizes and alignments. Returns the
/// mover's records, the destination bytes, and a rendering of the
/// transfers' and the link's counters.
fn golden_machine() -> (Vec<TransferRecord>, Vec<u8>, String) {
    const PAGES: u64 = 6;
    const NODE: u32 = 0;
    const REMOTE_ASID: u32 = 7;
    const REMOTE_VA: u64 = 32 * PAGE_SIZE;
    let chaos = FaultPlan::lossless(0x601E)
        .with_drop(0.1)
        .with_duplicate(0.05)
        .with_reorder(0.05)
        .with_corrupt(0.05);
    let mut m = Machine::new(MachineConfig {
        virt_dma: Some(VirtDmaSetup::pin_on_post(IotlbConfig::default())),
        remote_nodes: 1,
        link_chaos: Some(chaos),
        ..MachineConfig::new(DmaMethod::Kernel)
    });
    let pid =
        m.spawn(&ProcessSpec::two_buffers_of(PAGES), |_| ProgramBuilder::new().halt().build());
    m.grant_remote_buffer(NODE, REMOTE_ASID, VirtAddr::new(REMOTE_VA), PAGES, Perms::READ_WRITE);
    let src_frame = m.env(pid).buffer(0).first_frame;
    let data: Vec<u8> = (0..PAGES * PAGE_SIZE).map(|i| (i.wrapping_mul(37) % 251) as u8).collect();
    m.memory().borrow_mut().write_bytes(src_frame.base(), &data).unwrap();
    let src = m.env(pid).buffer(0).va;
    let mut virt = Vec::new();
    for (src_off, dst_off, size) in [
        (0, 0, 3 * PAGE_SIZE),
        (0x123, PAGE_SIZE * 3 + 0x77, 5000),
        (2 * PAGE_SIZE + 8, 0x10, 1500),
    ] {
        let id = m
            .post_virt_remote(
                pid,
                src + src_off,
                NODE,
                REMOTE_ASID,
                VirtAddr::new(REMOTE_VA + dst_off),
                size,
            )
            .expect("posts");
        m.run_virt(id, 64);
        virt.push(m.virt_xfer(id));
    }
    let cluster = m.cluster().expect("remote nodes");
    let cl = cluster.borrow();
    let mut bytes = vec![0u8; (PAGES * PAGE_SIZE) as usize];
    for p in 0..PAGES {
        let frame = cl
            .node_iommu(NODE)
            .and_then(|i| i.table(REMOTE_ASID))
            .and_then(|t| t.entry(VirtAddr::new(REMOTE_VA + p * PAGE_SIZE).page()))
            .map(|e| e.frame.base())
            .expect("pinned grant");
        let s = (p * PAGE_SIZE) as usize;
        cl.read(NODE, frame, &mut bytes[s..s + PAGE_SIZE as usize]).unwrap();
    }
    let counters = format!("{virt:?} {:?} {:?}", m.link_chaos_stats(), m.node_link_stats(NODE));
    (m.transfers(), bytes, counters)
}

/// The Machine world's remote records and destination bytes equal the
/// values recorded before the payload path was made copy-free.
#[test]
fn machine_remote_run_matches_the_recorded_golden() {
    let (records, bytes, counters) = golden_machine();
    assert!(records.iter().any(|r| r.remote_node.is_some()), "no remote deposit");
    assert!(bytes.iter().any(|&b| b != 0), "nothing landed");
    let rendered = format!("{records:?}");
    assert_eq!(
        (records.len(), fnv64(rendered.as_bytes()), fnv64(&bytes), fnv64(counters.as_bytes())),
        GOLDEN_MACHINE,
        "machine remote run moved"
    );
}

/// `(records, FNV-1a of their Debug rendering, FNV-1a of the bytes,
/// FNV-1a of the counters' rendering)`.
const GOLDEN_MACHINE: (usize, u64, u64, u64) =
    (5, 2_803_840_823_398_043_913, 14_339_108_168_823_442_104, 14_450_873_212_203_472_175);
