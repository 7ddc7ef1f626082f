//! The metric catalogue, and per-layer counters read from a `Machine`'s
//! public stats accessors.

use crate::round::ratio;
use std::collections::BTreeMap;
use udma::Machine;

/// End-to-end metrics: every workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_ops_per_host_s", "1/s"),
    ("setup_s", "s"),
    ("verify_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_init_us.kernel", "us"),
    ("sim_init_us.ext_shadow", "us"),
    ("sim_init_us.rep5", "us"),
    ("sim_init_us.key", "us"),
    ("sim_init_us.ring16", "us"),
    ("table1_max_err_pct", "%"),
    ("sim_xfer_p50_us", "us"),
    ("sim_xfer_p99_us", "us"),
    ("sim_goodput_mbs", "MB/s"),
];

/// Per-layer metrics, named `<crate layer>.<counter>`. A layer a workload
/// bypasses reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cpu.instructions", "count"),
    ("cpu.syscalls", "count"),
    ("cpu.context_switches", "count"),
    ("cpu.host_ns_per_instr", "ns"),
    ("mem.tlb.misses", "count"),
    ("mem.tlb.hit_ratio", "ratio"),
    ("mem.digest_host_s", "s"),
    ("bus.device_reads", "count"),
    ("bus.device_writes", "count"),
    ("bus.ram_reads", "count"),
    ("bus.ram_writes", "count"),
    ("bus.device_busy_us", "us"),
    ("bus.dcache.miss_ratio", "ratio"),
    ("bus.sim.events", "count"),
    ("bus.sim.rounds", "count"),
    ("bus.sim.events_per_xfer", "ratio"),
    ("bus.sim.host_ns_per_event", "ns"),
    ("iommu.iotlb.hits", "count"),
    ("iommu.iotlb.misses", "count"),
    ("iommu.iotlb.hit_ratio", "ratio"),
    ("iommu.iotlb.evictions", "count"),
    ("iommu.shootdowns", "count"),
    ("iommu.prefetch_fills", "count"),
    ("os.kernel.dma_syscalls", "count"),
    ("os.kernel.failed_syscalls", "count"),
    ("os.fault.serviced", "count"),
    ("os.fault.swapped_in", "count"),
    ("os.fault.range_prefilled", "count"),
    ("os.fault.unresolvable", "count"),
    ("os.fault.busy_us", "us"),
    ("os.fault.host_ns", "ns"),
    ("os.grant_host_s", "s"),
    ("nic.engine.started", "count"),
    ("nic.engine.rejects", "count"),
    ("nic.engine.key_mismatches", "count"),
    ("nic.engine.sequence_resets", "count"),
    ("nic.ring.doorbells", "count"),
    ("nic.ring.fetched", "count"),
    ("nic.ring.launched", "count"),
    ("nic.ring.rejected", "count"),
    ("nic.ring.desc_per_doorbell", "ratio"),
    ("nic.ring.post_host_ns", "ns"),
    ("nic.ring.doorbell_host_ns", "ns"),
    ("nic.virt.posted", "count"),
    ("nic.virt.chunks", "count"),
    ("nic.virt.table1_chunks", "count"),
    ("nic.virt.faults", "count"),
    ("nic.virt.retries", "count"),
    ("nic.virt.nacks", "count"),
    ("nic.virt.remote_faults", "count"),
    ("nic.virt.link_timeouts", "count"),
    ("nic.virt.link_failed", "count"),
    ("nic.virt.node_down", "count"),
    ("nic.virt.resume_host_ns", "ns"),
    ("nic.link.retransmits", "count"),
    ("nic.link.wire_bytes", "B"),
    ("nic.link.wire_efficiency", "ratio"),
    ("nic.link.stall_us", "us"),
    ("nic.link.crc_dropped", "count"),
    ("nic.link.dup_ignored", "count"),
    ("nic.link.ooo_discarded", "count"),
    ("nic.link.peak_util", "ratio"),
    ("nic.health.misses", "count"),
    ("nic.health.downs", "count"),
    ("nic.health.probes", "count"),
    ("nic.health.fail_fast", "count"),
    ("nic.crash.reboots", "count"),
    ("nic.crash.fenced", "count"),
    ("nic.crash.regrants", "count"),
    ("core.build_host_s", "s"),
    ("core.run_host_s", "s"),
    ("trace.overhead_ms", "ms"),
];

pub type Counters = BTreeMap<&'static str, f64>;

pub fn add(c: &mut Counters, name: &'static str, v: f64) {
    *c.entry(name).or_default() += v;
}

/// Adds one machine's cpu, mem, bus, os, nic-engine, ring, virt and
/// iommu counters to `c`. Ratios are derived afterwards by [`finish`].
pub fn add_machine(c: &mut Counters, m: &Machine) {
    let ex = m.executor().stats();
    add(c, "cpu.instructions", ex.instructions as f64);
    add(c, "cpu.syscalls", ex.syscalls as f64);
    add(c, "cpu.context_switches", ex.context_switches as f64);
    let tlb = m.executor().tlb_stats();
    add(c, "mem.tlb.misses", tlb.misses as f64);
    add(c, "mem.tlb.hits", tlb.hits as f64);
    let dc = m.executor().dcache_stats();
    add(c, "bus.dcache.hits", dc.hits as f64);
    add(c, "bus.dcache.misses", dc.misses as f64);
    let bus = m.bus().stats();
    add(c, "bus.device_reads", bus.device_reads as f64);
    add(c, "bus.device_writes", bus.device_writes as f64);
    add(c, "bus.ram_reads", bus.ram_reads as f64);
    add(c, "bus.ram_writes", bus.ram_writes as f64);
    add(c, "bus.device_busy_us", bus.device_busy.as_us());
    let k = m.kernel().stats();
    add(c, "os.kernel.dma_syscalls", k.dma_syscalls as f64);
    add(c, "os.kernel.failed_syscalls", k.failed_syscalls as f64);
    let f = m.fault_service().stats();
    add_fault_service(c, &f);
    let core = m.engine().core();
    let e = core.stats();
    add(c, "nic.engine.started", e.started as f64);
    add(c, "nic.engine.rejects", e.rejects.values().sum::<u64>() as f64);
    add(c, "nic.engine.key_mismatches", e.key_mismatches as f64);
    add(c, "nic.engine.sequence_resets", e.sequence_resets as f64);
    let r = core.ring_stats();
    add(c, "nic.ring.doorbells", r.doorbells as f64);
    add(c, "nic.ring.fetched", r.fetched as f64);
    add(c, "nic.ring.launched", r.launched as f64);
    add(c, "nic.ring.rejected", r.rejected as f64);
    let v = core.virt_stats();
    add(c, "nic.virt.posted", v.posted as f64);
    add(c, "nic.virt.chunks", v.chunks as f64);
    add(c, "nic.virt.faults", v.faults as f64);
    add(c, "nic.virt.retries", v.retries as f64);
    add(c, "nic.virt.nacks", v.nacks as f64);
    add(c, "nic.virt.remote_faults", v.remote_faults as f64);
    add(c, "nic.virt.link_timeouts", v.link_timeouts as f64);
    add(c, "nic.virt.link_failed", v.link_failed as f64);
    add(c, "nic.virt.node_down", v.node_down as f64);
    if let Some(iommu) = core.iommu() {
        add_iotlb(c, &iommu.stats());
    }
}

pub fn add_iotlb(c: &mut Counters, s: &udma_iommu::IotlbStats) {
    add(c, "iommu.iotlb.hits", s.tlb.hits as f64);
    add(c, "iommu.iotlb.misses", s.tlb.misses as f64);
    add(c, "iommu.iotlb.evictions", s.tlb.evictions as f64);
    add(c, "iommu.shootdowns", s.shootdowns as f64);
    add(c, "iommu.prefetch_fills", s.prefetch_fills as f64);
}

pub fn add_fault_service(c: &mut Counters, f: &udma_os::FaultServiceStats) {
    add(c, "os.fault.serviced", f.serviced as f64);
    add(c, "os.fault.swapped_in", f.swapped_in as f64);
    add(c, "os.fault.range_prefilled", f.range_prefilled as f64);
    add(c, "os.fault.unresolvable", f.unresolvable as f64);
    add(c, "os.fault.busy_us", f.busy.as_us());
}

/// Derives the ratio metrics from the raw sums, and drops the helper
/// sums that are not in the catalogue.
pub fn finish(c: &mut Counters) {
    let get = |c: &Counters, k: &str| c.get(k).copied().unwrap_or(0.0);
    let tlb_hits = get(c, "mem.tlb.hits");
    let tlb_misses = get(c, "mem.tlb.misses");
    c.insert("mem.tlb.hit_ratio", ratio(tlb_hits, tlb_hits + tlb_misses));
    let dc_hits = get(c, "bus.dcache.hits");
    let dc_misses = get(c, "bus.dcache.misses");
    c.insert("bus.dcache.miss_ratio", ratio(dc_misses, dc_hits + dc_misses));
    let io_hits = get(c, "iommu.iotlb.hits");
    let io_misses = get(c, "iommu.iotlb.misses");
    c.insert("iommu.iotlb.hit_ratio", ratio(io_hits, io_hits + io_misses));
    let launched = get(c, "nic.ring.launched");
    let doorbells = get(c, "nic.ring.doorbells");
    c.insert("nic.ring.desc_per_doorbell", ratio(launched, doorbells));
    c.retain(|k, _| PER_LAYER.iter().any(|(name, _)| name == k));
}
