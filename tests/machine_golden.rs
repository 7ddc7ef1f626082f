//! Golden digests of the CPU → write buffer → bus → NI path.
//!
//! Every initiation method runs the same two-process workload under a
//! round-robin and a seeded random-preemption scheduler. The workload
//! overflows the write buffer, collapses same-address stores, forwards
//! loads from pending stores, and initiates DMAs of three sizes, so
//! context switches, barriers and the ready list all take part. One
//! FNV-1a digest folds in the machine time, the executor and bus
//! counters, the full bus trace, every transfer record, and each
//! process's registers, counters and state.
//!
//! The constants pin the simulated behaviour exactly: a host-side
//! optimisation of any layer must leave them unchanged. A change that
//! alters simulated behaviour on purpose must re-record them and say why.

use udma::{emit_dma, DmaMethod, DmaRequest, Machine, MachineConfig, ProcessSpec};
use udma_cpu::{
    Operand, Pid, ProgramBuilder, RandomPreempt, Reg, RoundRobin, RunToCompletion, Scheduler,
};
use udma_mem::PhysAddr;
use udma_nic::{FaultPlan, ReliabilityConfig, RetryPolicy};

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }
}

/// Three collapsing same-address store pairs, each followed by a
/// forwarded load (four instructions apiece, so under a quantum of 3 at
/// least one group runs inside a single slice), eight distinct RAM
/// stores (more than the default 4-entry buffer holds), then three DMAs
/// whose status words are stored back to RAM without a barrier.
fn spawn_worker(m: &mut Machine, spec: &ProcessSpec, salt: u64) -> Pid {
    m.spawn(spec, |env| {
        let src = env.buffer(0).va.as_u64();
        let dst = env.buffer(1).va.as_u64();
        let mut b = ProgramBuilder::new();
        for g in 0..3u64 {
            let a = src + 0x200 + 8 * g;
            b = b.store(a, salt + g).store(a, salt + g + 1).load(Reg::R4, a).compute(1);
        }
        for i in 0..8u64 {
            b = b.store(src + 0x40 + 8 * i, salt * 0x100 + i);
        }
        let mut uniq = 0;
        for (k, (off, size)) in [(0x40u64, 8u64), (0x100, 64), (0x800, 256)].into_iter().enumerate()
        {
            let req = DmaRequest::new(env.addr_in(0, off), env.addr_in(1, off), size);
            b = emit_dma(env, b, &req, &mut uniq);
            b = b.store(Operand::Imm(src + 0xF00 + 8 * k as u64), Operand::Reg(Reg::R0));
        }
        b.compute(40).load(Reg::R5, dst + 0x40).load(Reg::R6, src + 0xF00).halt().build()
    })
}

fn fold_machine(h: &mut Fnv, m: &Machine, pids: &[Pid]) {
    h.u64(m.time().as_ps());
    let ex = m.executor().stats();
    for v in [ex.instructions, ex.context_switches, ex.syscalls, ex.pal_calls, ex.faults] {
        h.u64(v);
    }
    let wb = m.executor().write_buffer();
    h.u64(wb.collapsed_count());
    h.u64(wb.serviced_count());
    let bus = m.bus().stats();
    for v in [bus.device_reads, bus.device_writes, bus.ram_reads, bus.ram_writes] {
        h.u64(v);
    }
    h.u64(bus.device_busy.as_ps());
    let trace = m.bus().trace();
    h.u64(trace.events().len() as u64);
    h.u64(trace.dropped());
    for e in trace.events() {
        h.u64(e.time.as_ps());
        h.debug(&e.op);
        h.u64(e.paddr.as_u64());
        h.u64(e.data);
        h.u64(u64::from(e.tag));
    }
    let transfers = m.transfers();
    h.u64(transfers.len() as u64);
    for r in &transfers {
        h.u64(r.src.as_u64());
        h.u64(r.dst.as_u64());
        h.debug(&r.remote_node);
        h.u64(r.size);
        h.u64(r.started.as_ps());
        h.u64(r.finished.as_ps());
        h.debug(&r.initiator);
    }
    for &pid in pids {
        let p = m.executor().process(pid);
        h.u64(p.pc as u64);
        h.u64(p.instret);
        h.u64(p.user_time.as_ps());
        h.u64(p.kernel_time.as_ps());
        for r in 0..Reg::COUNT {
            h.u64(p.reg(Reg::new(r as u8)));
        }
        h.debug(&p.state());
    }
}

/// Step budget per run. The pairwise retry loop can livelock under a
/// fixed round-robin phase; that run is pinned at the budget like any
/// other.
const MAX_STEPS: u64 = 20_000;

fn run_local(method: DmaMethod, sched: &mut dyn Scheduler) -> (Machine, u64) {
    let mut m = Machine::with_method(method);
    m.bus_mut().trace_mut().enable();
    let mut spec = ProcessSpec::two_buffers();
    if method == DmaMethod::Shrimp1 {
        spec.mapped_out = vec![(0, 1)];
    }
    let pids = [spawn_worker(&mut m, &spec, 1), spawn_worker(&mut m, &spec, 2)];
    let out = m.run_with(sched, MAX_STEPS);
    let mut h = Fnv::new();
    h.u64(out.steps);
    h.u64(u64::from(out.finished));
    fold_machine(&mut h, &m, &pids);
    (m, h.0)
}

/// The three schedules every method runs under: round-robin with a
/// 3-instruction quantum, seeded random preemption, and run to
/// completion (long enough slices for the write buffer to overflow).
fn schedulers() -> [Box<dyn Scheduler>; 3] {
    [
        Box::new(RoundRobin::new(3)),
        Box::new(RandomPreempt::new(0x601D, 0.3)),
        Box::new(RunToCompletion),
    ]
}

/// Methods in [`DmaMethod::ALL`] order plus the two unpatched kernels,
/// with the digest under each of [`schedulers`].
const LOCAL: [(DmaMethod, [u64; 3]); 13] = [
    (DmaMethod::Kernel, [0x0aa7a65c3fb8dad2, 0xaffa926a791ee6d9, 0x9a0e9e1cabbccd26]),
    (DmaMethod::Shrimp1, [0xc6eac392ab5b82f3, 0x2c0b1f8af09fc8d9, 0x65dcb88e5517ed9c]),
    (
        DmaMethod::Shrimp2 { patched_kernel: true },
        [0x0574374d8d951240, 0x9bd7d6ed2db79f90, 0x51249073f1f799b7],
    ),
    (
        DmaMethod::Flash { patched_kernel: true },
        [0x1d36ceb3565b32a8, 0x9d28320ee841cbb8, 0xcdb6328057dae8b4],
    ),
    (DmaMethod::Pal, [0x7f26dd7ca232fc16, 0x014b7f310a9d9320, 0x0ce4ad1e6c6eb35a]),
    (DmaMethod::KeyBased, [0xb91ce9f78e3cb4f2, 0x85c9fd93bcfd2666, 0x11e542252ff18521]),
    (DmaMethod::ExtShadow, [0xcdfe17becff95d3c, 0x617f1b01f9da7db4, 0x837cd8ca2954cbe7]),
    (DmaMethod::ExtShadowPairwise, [0xa6b757a3e131fe89, 0x97ae12292b7a9bbb, 0x79dba9f5ce842d99]),
    (DmaMethod::Repeated3, [0xe71b9d447a301383, 0x63a6760b90ece787, 0x95bf36c95ffac236]),
    (DmaMethod::Repeated4, [0x26cbe58a7e8f9393, 0x4692684f6ebc97f0, 0x75f1fca3072d2a94]),
    (DmaMethod::Repeated5, [0xe4d2262545d57446, 0xa563fe73ecacfbe5, 0x768d1f5820dc4c6b]),
    (
        DmaMethod::Shrimp2 { patched_kernel: false },
        [0x19c4805c19e36efc, 0x4491a63db25afc5d, 0x4b798daf6bbb45fc],
    ),
    (
        DmaMethod::Flash { patched_kernel: false },
        [0x19c4805c19e36efc, 0x4491a63db25afc5d, 0x4b798daf6bbb45fc],
    ),
];

#[test]
fn every_method_matches_its_golden_digest() {
    let mut mismatches = Vec::new();
    for (method, want) in LOCAL {
        let got = schedulers().map(|mut s| run_local(method, s.as_mut()).1);
        if got != want {
            let hex: Vec<String> = got.iter().map(|d| format!("{d:#018x}")).collect();
            mismatches.push(format!("({method:?}, [{}]),", hex.join(", ")));
        }
    }
    assert!(mismatches.is_empty(), "digests moved:\n{}", mismatches.join("\n"));
}

#[test]
fn the_workload_exercises_every_layer() {
    // The digests are only worth pinning if the workload reaches the NI
    // and the write buffer's hazards: every method starts a transfer and
    // collapses and forwards stores under every schedule, and the
    // preemptive schedules really switch.
    for (method, _) in LOCAL {
        let mut transfers = 0;
        for (i, mut sched) in schedulers().into_iter().enumerate() {
            let (m, _) = run_local(method, sched.as_mut());
            let wb = m.executor().write_buffer();
            transfers += m.transfers().len();
            assert!(wb.collapsed_count() > 0, "{method:?}/{i}: nothing collapsed");
            assert!(wb.serviced_count() > 0, "{method:?}/{i}: nothing forwarded");
            if i < 2 {
                assert!(m.executor().stats().context_switches > 2, "{method:?}/{i}");
            }
        }
        assert!(transfers > 0, "{method:?}: no transfer started");
    }
}

/// SHRIMP-1 mapped out to a remote node over a lossy link: page-sized
/// deposits through the go-back-N layer, some cut short to a prefix.
fn run_remote(sched: &mut dyn Scheduler) -> u64 {
    let config = MachineConfig {
        remote_nodes: 2,
        link_chaos: Some(FaultPlan::lossless(0xD1CE).with_drop(0.3).with_corrupt(0.05)),
        ..MachineConfig::new(DmaMethod::Shrimp1)
    };
    let mut m = Machine::new(MachineConfig {
        reliability: ReliabilityConfig {
            retry: RetryPolicy { max_retries: 1, ..config.reliability.retry },
            ..config.reliability
        },
        ..config
    });
    m.bus_mut().trace_mut().enable();
    let mut pids = Vec::new();
    for node in 0..2u32 {
        let spec = ProcessSpec {
            buffers: vec![udma::BufferSpec::rw(2)],
            mapped_out_remote: vec![(0, node, 0x4000)],
            ..Default::default()
        };
        pids.push(m.spawn(&spec, |env| {
            let mut b = ProgramBuilder::new();
            for (k, (page, off, size)) in
                [(0u64, 0u64, 4096u64), (1, 0x100, 1000), (0, 0x800, 2048)].into_iter().enumerate()
            {
                let s = env.shadow_of(env.addr_in(0, page * 4096 + off)).as_u64();
                b = b.store(s, size).load(Reg::R0, s).add(
                    Reg::new(8 + k as u8),
                    Reg::R0,
                    Reg::new(8 + k as u8),
                );
            }
            b.halt().build()
        }));
    }
    for (i, &pid) in pids.iter().enumerate() {
        let frame = m.env(pid).buffer(0).first_frame;
        let bytes: Vec<u8> = (0..8192u64).map(|j| (j * 13 + i as u64 * 101) as u8).collect();
        m.memory().borrow_mut().write_bytes(frame.base(), &bytes).unwrap();
    }
    let out = m.run_with(sched, MAX_STEPS);
    assert!(out.finished, "remote run hit the step limit");
    // The retry budget of one cuts some deposits short: the run covers
    // whole, partial and empty prefixes.
    let delivered: u64 = m.transfers().iter().map(|r| r.size).sum();
    assert!(delivered > 0 && delivered < 2 * (4096 + 1000 + 2048), "delivered {delivered}");
    let mut h = Fnv::new();
    fold_machine(&mut h, &m, &pids);
    h.debug(&m.link_chaos_stats());
    let cluster = m.cluster().expect("remote nodes configured");
    let cluster = cluster.borrow();
    let mut page = vec![0u8; 8192];
    for node in 0..2 {
        cluster.read(node, PhysAddr::new(0x4000), &mut page).unwrap();
        h.bytes(&page);
        h.debug(&cluster.link_stats(node));
    }
    h.0
}

/// The remote run's digest under each of [`schedulers`].
const REMOTE: [u64; 3] = [0x714c056ea96d69fb, 0xd98ca4e2a1e73a8d, 0x90dbad5090f192bd];

#[test]
fn remote_deposits_match_their_golden_digest() {
    let got = schedulers().map(|mut s| run_remote(s.as_mut()));
    assert_eq!(got, REMOTE, "digests moved: {got:#018x?}");
}
