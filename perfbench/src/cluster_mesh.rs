//! `cluster_mesh`: all-to-all virtual-address RDMA on a 64-node
//! `ClusterSim`, sequential runner.
//!
//! Transfers of 1, 2, 8 or 32 pages (a seeded mix) go from random sources
//! to random destinations over links that drop 5% of frames. Half the
//! destination slots are demand-faulting, half are pinned. The loop is
//! open in simulated time: post `k` is due at `k × SPACING` whatever the
//! cluster is doing, and latency counts from that due time.
//!
//! Two seeded crash plans run too: two nodes crash early and reboot
//! under a new incarnation, replaying their grants. Injecting a plan arms
//! the fault domain, so every launch also runs an ACK lease and every
//! frame carries incarnation stamps. A victim carries no traffic until
//! after its reboot, so the crashes themselves abort nothing.

use crate::layers::{self, Counters};
use crate::round::{percentile, ratio, Fingerprint, HostWork, Round, SplitMix, Workload};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use udma::{ClusterConfig, ClusterSim, XferDigest};
use udma_bus::sim::RunReport;
use udma_bus::SimTime;
use udma_mem::{Perms, PhysAddr, VirtAddr, PAGE_SIZE};
use udma_nic::{CrashPlan, FaultPlan, XferId, XferState};

const NODES: u32 = 64;
const XFERS: u32 = 2048;
/// Gap between successive due times.
const SPACING: SimTime = SimTime::from_ns(40_000);
const DROP: f64 = 0.05;
const ASID: u32 = 5;
const DST_VA: u64 = 16 * PAGE_SIZE;
/// Receive memory per node, in pages.
const NODE_PAGES: u64 = 384;
/// Crash-and-reboot victims.
const CRASHES: u32 = 2;
/// A crash victim is down from `at` for this long.
const REBOOT_AFTER: SimTime = SimTime::from_ns(500_000);
/// Consecutive missed ACK leases before a peer is declared `Down`. The
/// default (3) declares live peers dead now and then under 5% frame
/// loss, which aborts their transfers; 6 tolerates the loss.
const DOWN_AFTER: u32 = 6;

/// One planned transfer.
#[derive(Clone, Copy)]
struct Post {
    src: u32,
    dst: u32,
    slot_page: u64,
    pages: u64,
    pinned: bool,
    at: SimTime,
}

struct Plan {
    posts: Vec<Post>,
    crashes: Vec<CrashPlan>,
}

/// The size mix, in pages, with each size's share in percent. Every
/// round posts these shares exactly, in a seeded order.
const MIX: [(u64, u32); 4] = [(1, 40), (2, 30), (8, 20), (32, 10)];

fn sizes(rng: &mut SplitMix) -> Vec<u64> {
    let mut out: Vec<u64> = MIX
        .iter()
        .flat_map(|&(pages, pct)| std::iter::repeat_n(pages, (XFERS * pct / 100) as usize))
        .collect();
    out.resize(XFERS as usize, 1);
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i as u64 + 1) as usize);
    }
    out
}

fn plan(seed: u64) -> Plan {
    let mut rng = SplitMix(seed ^ 0xC1_05_7E_12);
    let mut victims: Vec<u32> = Vec::new();
    while victims.len() < CRASHES as usize {
        let v = rng.below(u64::from(NODES)) as u32;
        if !victims.contains(&v) {
            victims.push(v);
        }
    }
    let mut crashes = Vec::new();
    // Quiet until: a crash victim carries no traffic before it is back.
    let mut quiet_until = vec![SimTime::ZERO; NODES as usize];
    for &v in &victims {
        let at = SimTime::from_us(100 + rng.below(400));
        crashes.push(CrashPlan::crash(v, at, REBOOT_AFTER));
        quiet_until[v as usize] = at + REBOOT_AFTER + SimTime::from_us(200);
    }
    let sizes = sizes(&mut rng);
    let mut next_page = vec![0u64; NODES as usize];
    let mut posts = Vec::with_capacity(XFERS as usize);
    for (k, &pages) in sizes.iter().enumerate() {
        let at = SimTime::from_ps(SPACING.as_ps() * k as u64);
        let (src, dst) = loop {
            let src = rng.below(u64::from(NODES)) as u32;
            let dst = rng.below(u64::from(NODES)) as u32;
            let quiet = |n: u32| at < quiet_until[n as usize];
            if src != dst
                && !quiet(src)
                && !quiet(dst)
                && next_page[dst as usize] + pages <= NODE_PAGES
            {
                break (src, dst);
            }
        };
        let slot_page = next_page[dst as usize];
        next_page[dst as usize] += pages;
        posts.push(Post { src, dst, slot_page, pages, pinned: k % 2 == 0, at });
    }
    Plan { posts, crashes }
}

fn build(seed: u64, p: &Plan, tr: &mut Tracer) -> Result<(ClusterSim, Vec<XferId>), String> {
    let mut cfg = ClusterConfig::new(NODES);
    cfg.node_bytes = (NODE_PAGES + DST_VA / PAGE_SIZE) * PAGE_SIZE;
    cfg.chaos = Some(FaultPlan::lossless(seed ^ 0xD0_0D).with_drop(DROP));
    cfg.health.down_after = DOWN_AFTER;
    let mut sim = tr.span("ClusterSim::new", 0, || ClusterSim::new(cfg));
    let open = tr.begin("ClusterSim::grant+pin", 0);
    for node in 0..NODES {
        sim.grant(node, ASID, VirtAddr::new(DST_VA), NODE_PAGES, Perms::READ_WRITE)
            .map_err(|e| format!("grant on node {node}: {e:?}"))?;
    }
    for post in p.posts.iter().filter(|post| post.pinned) {
        let va = VirtAddr::new(DST_VA + post.slot_page * PAGE_SIZE);
        sim.pin(post.dst, ASID, va, post.pages * PAGE_SIZE)
            .map_err(|e| format!("pin on node {}: {e:?}", post.dst))?;
    }
    tr.end(open);
    let open = tr.begin("ClusterSim::post", 0);
    let ids = p
        .posts
        .iter()
        .map(|post| {
            let va = VirtAddr::new(DST_VA + post.slot_page * PAGE_SIZE);
            sim.post(post.src, post.dst, ASID, va, post.pages * PAGE_SIZE, post.at)
        })
        .collect();
    tr.end(open);
    tr.span("ClusterSim::inject_crash", 0, || {
        for c in &p.crashes {
            sim.inject_crash(*c);
        }
    });
    Ok((sim, ids))
}

/// The open all-to-all loop on the cluster.
pub struct ClusterMesh;

/// One round's cluster, its plan, and the posted transfer ids.
pub struct World {
    plan: Plan,
    sim: ClusterSim,
    ids: Vec<XferId>,
    report: RunReport,
}

impl Workload for ClusterMesh {
    type World = World;

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Result<World, String> {
        let plan = plan(seed);
        let (sim, ids) = build(seed, &plan, tr)?;
        Ok(World { plan, sim, ids, report: RunReport::default() })
    }

    fn run(&self, w: &mut World, tr: &mut Tracer) -> Result<(), String> {
        w.report = tr.span("ClusterSim::run", 0, || w.sim.run());
        Ok(())
    }

    fn verify(&self, w: World, tr: &mut Tracer) -> Result<Round, String> {
        let World { plan: p, sim, ids, report } = w;
        let mut r = Round::default();
        let d = tr.span("ClusterSim::digest", 0, || sim.digest());
        let mut fp = Fingerprint::default();
        let mut c = Counters::new();
        for n in &d.nodes {
            fp.u64(u64::from(n.mem_crc));
            layers::add_iotlb(&mut c, &n.iotlb);
            layers::add_fault_service(&mut c, &n.faults);
            layers::add(&mut c, "nic.link.crc_dropped", n.link.crc_dropped as f64);
            layers::add(&mut c, "nic.link.dup_ignored", n.link.dup_ignored as f64);
            layers::add(&mut c, "nic.link.ooo_discarded", n.link.ooo_discarded as f64);
            layers::add(&mut c, "nic.health.misses", n.health.misses as f64);
            layers::add(&mut c, "nic.health.downs", n.health.downs as f64);
            layers::add(&mut c, "nic.health.probes", n.health.probes as f64);
            layers::add(&mut c, "nic.health.fail_fast", n.health.fail_fast as f64);
            layers::add(&mut c, "nic.crash.reboots", n.crash.reboots as f64);
            layers::add(&mut c, "nic.crash.fenced", n.crash.fenced as f64);
            layers::add(&mut c, "nic.crash.regrants", n.crash.regrants as f64);
        }
        let crashed: Vec<bool> = d.nodes.iter().map(|n| n.crash.crashes > 0).collect();

        let by_id: BTreeMap<(u32, u32), &XferDigest> =
            d.xfers.iter().map(|x| ((x.id.node, x.id.index), x)).collect();
        let mut latencies = Vec::new();
        let (mut moved, mut wire, mut stall, mut last) = (0u64, 0u64, SimTime::ZERO, SimTime::ZERO);
        let mut node_wire = vec![0u64; NODES as usize];
        // Bytes of transfers into nodes that kept their RAM: as the
        // senders counted them, and as the payload check found them.
        let (mut counted, mut found) = (0u64, 0u64);
        for (post, id) in p.posts.iter().zip(&ids) {
            let x = by_id.get(&(id.node, id.index)).ok_or_else(|| format!("{id} missing"))?;
            r.attempted += 1;
            fp.u64(x.counters.moved);
            fp.u64(x.finished.map_or(0, SimTime::as_ps));
            fp.u64(x.counters.wire_bytes);
            moved += x.counters.moved;
            wire += x.counters.wire_bytes;
            node_wire[post.src as usize] += x.counters.wire_bytes;
            stall += x.counters.stall;
            layers::add(&mut c, "nic.link.retransmits", x.counters.retransmits as f64);
            layers::add(&mut c, "nic.virt.nacks", x.counters.nacks as f64);
            let len = post.pages * PAGE_SIZE;
            match x.state {
                XferState::Complete => {
                    r.completed += 1;
                    let finished = x.finished.ok_or("complete transfer without a finish time")?;
                    last = last.max(finished);
                    latencies.push((finished - x.posted_at).as_us());
                }
                XferState::NodeDown | XferState::LinkFailed => {}
                other => return Err(format!("{id} ended {other:?}")),
            }
            // A rebooted node lost its RAM. Elsewhere the slot must hold
            // exactly the payload's in-order prefix of `moved` bytes: all
            // of it when complete. The node's one grant takes contiguous
            // frames from frame 1 (frame 0 is reserved).
            if crashed[post.dst as usize] {
                continue;
            }
            let mut got = vec![0u8; len as usize];
            let pa = PhysAddr::new((1 + post.slot_page) * PAGE_SIZE);
            sim.read_mem(post.dst, pa, &mut got).map_err(|e| format!("{id}: {e:?}"))?;
            let want = ClusterSim::expected_payload(*id, len);
            let prefix = got.iter().zip(&want).take_while(|(a, b)| a == b).count() as u64;
            let expect = if x.state == XferState::Complete { len } else { x.counters.moved };
            if prefix != expect {
                return Err(format!(
                    "payload check: {id} ({:?}) holds a {prefix}-byte prefix, expected {expect}",
                    x.state
                ));
            }
            counted += x.counters.moved;
            found += prefix;
        }
        if counted != found {
            return Err(format!(
                "reconciliation: senders' moved bytes {counted} != bytes the payload check \
                 found {found}"
            ));
        }
        if latencies.len() < 1000 {
            return Err(format!("only {} completions, need 1000", latencies.len()));
        }

        fp.u64(d.events);
        fp.u64(d.rounds);
        let makespan = last.as_us();
        r.sim.insert("sim_xfer_p50_us", percentile(&mut latencies, 50.0));
        r.sim.insert("sim_xfer_p99_us", percentile(&mut latencies, 99.0));
        r.sim.insert("sim_goodput_mbs", moved as f64 / makespan);
        layers::add(&mut c, "bus.sim.events", report.events as f64);
        layers::add(&mut c, "bus.sim.rounds", report.rounds as f64);
        layers::add(&mut c, "bus.sim.events_per_xfer", report.events as f64 / f64::from(XFERS));
        layers::add(&mut c, "nic.link.wire_bytes", wire as f64);
        layers::add(&mut c, "nic.link.wire_efficiency", moved as f64 / wire as f64);
        layers::add(&mut c, "nic.link.stall_us", stall.as_us());
        // Link rate in bytes per µs.
        let rate = sim.config().link.bits_per_second() as f64 / 8e6;
        let peak_wire = node_wire.iter().copied().max().unwrap_or(0);
        layers::add(&mut c, "nic.link.peak_util", peak_wire as f64 / (makespan * rate));
        layers::finish(&mut c);
        r.counters = c;
        r.fingerprint = fp.0;

        let run_ns = tr.total("ClusterSim::run").as_nanos() as f64;
        r.host.insert("bus.sim.host_ns_per_event", ratio(run_ns, report.events as f64));
        r.host.insert("mem.digest_host_s", tr.total("ClusterSim::digest").as_secs_f64());
        r.host.insert("os.grant_host_s", tr.total("ClusterSim::grant+pin").as_secs_f64());
        Ok(r)
    }

    /// Most of the verify phase is `ClusterSim::digest`'s bitwise CRC over
    /// all node memory (about 0.5 s of 0.56 s).
    fn verify_work(&self) -> HostWork {
        HostWork::Crc
    }
}
