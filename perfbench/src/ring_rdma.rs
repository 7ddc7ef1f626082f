//! `ring_rdma`: the cross-layer scenario in the `Machine` world — ring
//! doorbell → virtual-address translation → remote VA-RDMA over a lossy
//! link → ack.
//!
//! One key-based machine with demand-paged virtual-address DMA, four
//! remote nodes and a link that drops 5% of frames. The loop is closed:
//! 16 `RemoteVirt` descriptors go into the ring through
//! `Machine::post_ring`, one `Machine::ring_doorbell` launches them, and
//! every launch is driven to a terminal state before the next batch is
//! posted. The source (60 pages) and the per-node destinations are
//! larger than the 32-entry IOTLBs, so translation misses recur; every
//! destination page is fresh, so each one faults on first touch and takes
//! the NACK → remote fault-service path.

use crate::layers::{self, Counters};
use crate::round::{percentile, ratio, Fingerprint, Round, SplitMix, Workload};
use crate::trace::Tracer;
use udma::{BufferSpec, DmaMethod, Machine, MachineConfig, ProcessSpec, VirtDmaSetup};
use udma_bus::SimTime;
use udma_cpu::{Pid, ProgramBuilder};
use udma_iommu::IotlbConfig;
use udma_mem::{Access, Perms, VirtAddr, PAGE_SIZE};
use udma_nic::{DescDst, DmaDescriptor, FaultPlan, RingConfig, RingLaunch, VirtState, DESC_BYTES};

const NODES: u32 = 4;
const SRC_PAGES: u64 = 60;
const BATCH: u64 = 16;
const BATCHES: u64 = 64;
/// Largest transfer, in pages.
const MAX_PAGES: u64 = 2;
/// Destination pages each node exposes: room for every transfer of a
/// round to land on fresh pages.
const DST_PAGES: u64 = BATCH * BATCHES * MAX_PAGES / NODES as u64;
const REMOTE_ASID: u32 = 9;
const REMOTE_VA: u64 = 64 * PAGE_SIZE;
const DROP: f64 = 0.05;
/// Resume rounds one transfer may take before the run counts as stuck.
const MAX_DRIVE: u32 = 10_000;

/// One planned transfer.
#[derive(Clone, Copy)]
struct Xfer {
    src_page: u64,
    node: u32,
    dst_page: u64,
    len: u64,
}

fn plan(seed: u64) -> Vec<Xfer> {
    let mut rng = SplitMix(seed ^ 0x41D3_A000);
    let mut next = [0u64; NODES as usize];
    (0..BATCH * BATCHES)
        .map(|_| {
            // Half a page to two pages, in 8-byte steps.
            let len =
                PAGE_SIZE / 2 + 8 * rng.below((MAX_PAGES * PAGE_SIZE - PAGE_SIZE / 2) / 8 + 1);
            let pages = len.div_ceil(PAGE_SIZE);
            let node = rng.below(u64::from(NODES)) as u32;
            let dst_page = next[node as usize];
            next[node as usize] += pages;
            Xfer { src_page: rng.below(SRC_PAGES - pages + 1), node, dst_page, len }
        })
        .collect()
}

fn source_bytes(seed: u64) -> Vec<u8> {
    let mut rng = SplitMix(seed ^ 0x5EED_50C0);
    (0..SRC_PAGES * PAGE_SIZE / 8).flat_map(|_| rng.next().to_le_bytes()).collect()
}

/// One round's machine, its inputs, and the launched transfer ids.
pub struct World {
    m: Machine,
    pid: Pid,
    src_va: VirtAddr,
    xfers: Vec<Xfer>,
    source: Vec<u8>,
    ids: Vec<usize>,
}

/// The ring → remote VA-RDMA loop.
pub struct RingRdma;

/// Drives transfer `id` to a terminal state: the OS services local and
/// remote faults, and `run_virt` resumes the engine when none is queued —
/// the same sequence `Machine::run_virt` performs, split so that each
/// layer's call is its own span.
fn drive(m: &mut Machine, id: usize, tr: &mut Tracer) -> Result<(), String> {
    for _ in 0..MAX_DRIVE {
        let t = m.virt_xfer(id).ok_or_else(|| format!("transfer {id} vanished"))?;
        if t.is_terminal() {
            return Ok(());
        }
        let op = id as u64;
        if tr.span("Machine::service_va_faults", op, || m.service_va_faults()) == 0
            && tr.span("Machine::service_remote_faults", op, || m.service_remote_faults()) == 0
        {
            tr.span("Machine::run_virt", op, || m.run_virt(id, 1));
        }
    }
    Err(format!("transfer {id} not terminal after {MAX_DRIVE} resume rounds"))
}

impl Workload for RingRdma {
    type World = World;

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Result<World, String> {
        let xfers = plan(seed);
        let source = source_bytes(seed);
        let mut m = tr.span("Machine::new", 0, || {
            Machine::new(MachineConfig {
                virt_dma: Some(VirtDmaSetup::demand(IotlbConfig::default())),
                remote_nodes: NODES,
                remote_node_bytes: 2 * DST_PAGES * PAGE_SIZE + REMOTE_VA,
                link_chaos: Some(FaultPlan::lossless(seed ^ 0x11_4C).with_drop(DROP)),
                ..MachineConfig::new(DmaMethod::KeyBased)
            })
        });
        tr.span("Machine::enable_desc_rings", 0, || m.enable_desc_rings(RingConfig::default()));
        let spec = ProcessSpec {
            buffers: vec![BufferSpec::rw(SRC_PAGES), BufferSpec::rw(1)],
            ..Default::default()
        };
        let pid = tr
            .span("Machine::spawn", 0, || m.spawn(&spec, |_| ProgramBuilder::new().halt().build()));
        if !tr.span("Machine::register_ring", 0, || m.register_ring(pid, 1, PAGE_SIZE / DESC_BYTES))
        {
            return Err("the kernel refused a ring window inside the process's own buffer".into());
        }
        let src = *m.env(pid).buffer(0);
        m.memory()
            .borrow_mut()
            .write_bytes(src.first_frame.base(), &source)
            .map_err(|e| format!("writing the source buffer: {e:?}"))?;
        for node in 0..NODES {
            tr.span("Machine::grant_remote_buffer", u64::from(node), || {
                m.grant_remote_buffer(
                    node,
                    REMOTE_ASID,
                    VirtAddr::new(REMOTE_VA),
                    DST_PAGES,
                    Perms::READ_WRITE,
                )
            });
        }
        Ok(World { m, pid, src_va: src.va, xfers, source, ids: Vec::new() })
    }

    fn run(&self, w: &mut World, tr: &mut Tracer) -> Result<(), String> {
        let World { m, pid, src_va, xfers, ids, .. } = w;
        for (b, batch) in xfers.chunks(BATCH as usize).enumerate() {
            for x in batch {
                let desc = DmaDescriptor::new(
                    *src_va + x.src_page * PAGE_SIZE,
                    DescDst::RemoteVirt {
                        node: x.node,
                        asid: REMOTE_ASID,
                        va: VirtAddr::new(REMOTE_VA + x.dst_page * PAGE_SIZE),
                    },
                    x.len,
                );
                tr.span("Machine::post_ring", b as u64, || m.post_ring(*pid, &desc))
                    .map_err(|e| format!("post_ring refused a descriptor: {e:?}"))?;
            }
            let launches = tr.span("Machine::ring_doorbell", b as u64, || m.ring_doorbell(*pid));
            if launches.len() != batch.len() {
                return Err(format!("doorbell {b} launched {} of {}", launches.len(), batch.len()));
            }
            for l in launches {
                match l {
                    RingLaunch::Virt(id) => {
                        drive(m, id, tr)?;
                        ids.push(id);
                    }
                    other => return Err(format!("doorbell {b}: descriptor became {other:?}")),
                }
            }
        }
        Ok(())
    }

    fn verify(&self, w: World, tr: &mut Tracer) -> Result<Round, String> {
        let World { m, xfers, source, ids, .. } = w;
        let mut r = Round::default();
        let mut c = Counters::new();
        layers::add_machine(&mut c, &m);
        for node in 0..NODES {
            let l = m.node_link_stats(node);
            layers::add(&mut c, "nic.link.retransmits", l.retransmits as f64);
            layers::add(&mut c, "nic.link.crc_dropped", l.crc_dropped as f64);
            layers::add(&mut c, "nic.link.dup_ignored", l.dup_ignored as f64);
            layers::add(&mut c, "nic.link.ooo_discarded", l.ooo_discarded as f64);
            layers::add_fault_service(&mut c, &m.remote_fault_service(node).stats());
        }
        let h = m.node_health_stats();
        layers::add(&mut c, "nic.health.misses", h.misses as f64);
        layers::add(&mut c, "nic.health.downs", h.downs as f64);
        layers::add(&mut c, "nic.health.probes", h.probes as f64);
        layers::add(&mut c, "nic.health.fail_fast", h.fail_fast as f64);

        let cluster = m.cluster().expect("remote nodes configured");
        let cl = cluster.borrow();
        let mut fp = Fingerprint::default();
        let mut latencies = Vec::new();
        let (mut moved, mut stall, mut busy) = (0u64, SimTime::ZERO, SimTime::ZERO);
        let mut got = vec![0u8; PAGE_SIZE as usize];
        for (x, &id) in xfers.iter().zip(&ids) {
            let t = m.virt_xfer(id).ok_or("launched transfer missing")?;
            let finished = t.finished.ok_or_else(|| format!("transfer {id} has no finish time"))?;
            r.attempted += 1;
            fp.u64(t.moved);
            fp.u64(finished.as_ps());
            fp.u64(u64::from(t.nacks));
            fp.u64(u64::from(t.retransmits));
            moved += t.moved;
            stall += t.link_stall;
            // The loop is closed: the transfers' simulated durations add up
            // to the time the loop took.
            busy += finished - t.started;
            if t.state == VirtState::Complete {
                r.completed += 1;
                latencies.push((finished - t.started).as_us());
                if t.moved != x.len {
                    return Err(format!("transfer {id} complete but moved {}", t.moved));
                }
            }
            // Whatever the outcome, the bytes reported moved are a prefix (of
            // whole pages, unless complete) that must hold exactly the
            // source's bytes.
            for p in 0..t.moved.div_ceil(PAGE_SIZE) {
                let n = (t.moved - p * PAGE_SIZE).min(PAGE_SIZE) as usize;
                let va = VirtAddr::new(REMOTE_VA + (x.dst_page + p) * PAGE_SIZE);
                let pa = cl
                    .node_iommu(x.node)
                    .and_then(|iommu| iommu.table(REMOTE_ASID))
                    .and_then(|t| t.translate(va, Access::Read).ok())
                    .ok_or_else(|| format!("transfer {id}: destination page {p} unmapped"))?;
                cl.read(x.node, pa, &mut got[..n]).map_err(|e| format!("{e:?}"))?;
                let off = ((x.src_page + p) * PAGE_SIZE) as usize;
                if got[..n] != source[off..off + n] {
                    return Err(format!(
                        "payload check: transfer {id} page {p} on node {} differs from its source",
                        x.node
                    ));
                }
                fp.bytes(&got[..n.min(64)]);
            }
        }
        drop(cl);
        let posted = c["nic.virt.posted"];
        if c["nic.ring.launched"] != posted {
            return Err(format!(
                "reconciliation: nic.ring.launched {} != nic.virt.posted {posted}",
                c["nic.ring.launched"]
            ));
        }
        if latencies.len() < 1000 {
            return Err(format!("only {} completions, need 1000", latencies.len()));
        }
        r.sim.insert("sim_xfer_p50_us", percentile(&mut latencies, 50.0));
        r.sim.insert("sim_xfer_p99_us", percentile(&mut latencies, 99.0));
        r.sim.insert("sim_goodput_mbs", moved as f64 / busy.as_us());
        layers::add(&mut c, "nic.link.stall_us", stall.as_us());
        layers::finish(&mut c);
        r.counters = c;
        r.fingerprint = fp.0;

        let mean_ns = |name: &str, calls: f64| ratio(tr.total(name).as_nanos() as f64, calls);
        let doorbells = BATCHES as f64;
        r.host.insert("nic.ring.post_host_ns", mean_ns("Machine::post_ring", xfers.len() as f64));
        r.host.insert("nic.ring.doorbell_host_ns", mean_ns("Machine::ring_doorbell", doorbells));
        r.host.insert("os.grant_host_s", tr.total("Machine::grant_remote_buffer").as_secs_f64());
        r.host.insert(
            "os.fault.host_ns",
            (tr.total("Machine::service_va_faults") + tr.total("Machine::service_remote_faults"))
                .as_nanos() as f64,
        );
        r.host.insert("nic.virt.resume_host_ns", tr.total("Machine::run_virt").as_nanos() as f64);
        Ok(r)
    }
}
