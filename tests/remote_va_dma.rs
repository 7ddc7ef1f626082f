//! End-to-end *remote* virtual-address DMA: receive-side translation,
//! the cross-link NACK/retry fault protocol, the protection property
//! against a straight-line oracle, exhaustive interleaving coverage of
//! {sender retry, remote fault service, remote swap-out}, and the
//! receive-side translation pipeline (announced ranges, one-NACK cold
//! start, prefetch vs shootdown).

use udma::{DmaMethod, Machine, MachineConfig, ProcessSpec, VirtDmaSetup};
use udma_cpu::ProgramBuilder;
use udma_mem::{Perms, PhysAddr, VirtAddr, PAGE_SIZE};
use udma_nic::{Initiator, PrefetchConfig, VirtState, DMA_FAILURE};
use udma_testkit::sched::{explore, Budget};
use udma_testkit::{prop_assert, prop_assert_eq, props};

const NODE: u32 = 0;
const REMOTE_ASID: u32 = 7;
const REMOTE_VA: u64 = 32 * PAGE_SIZE;
const NODE_BYTES: u64 = 1 << 20;

/// A VA neither side maps.
const WILD_VA: u64 = 0x5000_0000;

fn remote_machine() -> Machine {
    remote_machine_with(PrefetchConfig::default())
}

fn remote_machine_with(prefetch: PrefetchConfig) -> Machine {
    let mut setup = VirtDmaSetup::default();
    setup.virt.prefetch = prefetch;
    Machine::new(MachineConfig {
        virt_dma: Some(setup),
        remote_nodes: 1,
        remote_node_bytes: NODE_BYTES,
        ..MachineConfig::new(DmaMethod::Kernel)
    })
}

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 13 + 5) as u8).collect()
}

#[test]
fn remote_demand_transfer_completes_with_one_nack_per_page() {
    let mut m = remote_machine();
    let pid = m.spawn(&ProcessSpec::two_buffers_of(2), |_| ProgramBuilder::new().halt().build());
    let buf =
        m.grant_remote_buffer(NODE, REMOTE_ASID, VirtAddr::new(REMOTE_VA), 2, Perms::READ_WRITE);
    let src = m.env(pid).buffer(0).va;
    let src_frame = m.env(pid).buffer(0).first_frame;
    let data = payload(2 * PAGE_SIZE as usize);
    m.memory().borrow_mut().write_bytes(src_frame.base(), &data).unwrap();

    let id = m
        .post_virt_remote(pid, src, NODE, REMOTE_ASID, VirtAddr::new(REMOTE_VA), data.len() as u64)
        .unwrap();
    assert_eq!(m.run_virt(id, 64), VirtState::Complete);

    let t = m.virt_xfer(id).unwrap();
    assert_eq!(t.nacks, 2, "one NACK per cold remote page");
    // Each NACK costs a full link round trip on the sender's clock.
    let rtt =
        m.engine().core().mover().link().latency() + m.engine().core().mover().link().latency();
    assert_eq!(t.nack_stall, rtt + rtt);
    assert_eq!(m.remote_fault_service(NODE).stats().mapped, 2);

    let cluster = m.cluster().unwrap();
    let mut got = vec![0u8; data.len()];
    cluster.borrow().read(NODE, buf.first_frame.base(), &mut got).unwrap();
    assert_eq!(got, data, "remote deposit mismatch");
}

/// A whole-page remote deposit leaves the sender's frame and the
/// remote node's frame sharing one page of bytes, and a later store to
/// the source takes the sender's frame back without reaching the
/// remote copy.
#[test]
fn whole_page_remote_deposit_shares_the_frame_until_a_store() {
    let mut m = remote_machine();
    let pid = m.spawn(&ProcessSpec::two_buffers_of(1), |_| ProgramBuilder::new().halt().build());
    let buf =
        m.grant_remote_buffer(NODE, REMOTE_ASID, VirtAddr::new(REMOTE_VA), 1, Perms::READ_WRITE);
    let src = m.env(pid).buffer(0).va;
    let src_frame = m.env(pid).buffer(0).first_frame;
    let data = payload(PAGE_SIZE as usize);
    let mem = m.memory();
    mem.borrow_mut().write_bytes(src_frame.base(), &data).unwrap();
    let id = m
        .post_virt_remote(pid, src, NODE, REMOTE_ASID, VirtAddr::new(REMOTE_VA), PAGE_SIZE)
        .unwrap();
    assert_eq!(m.run_virt(id, 64), VirtState::Complete);

    let cluster = m.cluster().unwrap();
    {
        let (local, cl) = (mem.borrow(), cluster.borrow());
        let remote = cl.node_memory(NODE).unwrap().resident_frame(buf.first_frame);
        let local = local.resident_frame(src_frame).unwrap();
        assert_eq!(remote.expect("deposited").as_ptr(), local.as_ptr(), "page was copied");
    }
    mem.borrow_mut().write_u64(src_frame.base(), u64::MAX).unwrap();
    let mut got = vec![0u8; data.len()];
    cluster.borrow().read(NODE, buf.first_frame.base(), &mut got).unwrap();
    assert_eq!(got, data, "a store to the source reached the remote copy");
    assert_eq!(mem.borrow().read_u64(src_frame.base()).unwrap(), u64::MAX);
}

/// Tentpole acceptance (remote half): with the translation pipeline on,
/// the sender announces the destination range at post time, so the
/// first receive-side fault hands the node's OS the *whole* range — a
/// contiguous cold remote buffer costs exactly one NACK round trip
/// instead of one per page.
#[test]
fn announced_cold_range_costs_exactly_one_nack_round_trip() {
    const PAGES: u64 = 4;
    let run = |prefetch: PrefetchConfig| {
        let mut m = remote_machine_with(prefetch);
        let pid =
            m.spawn(&ProcessSpec::two_buffers_of(PAGES), |_| ProgramBuilder::new().halt().build());
        let buf = m.grant_remote_buffer(
            NODE,
            REMOTE_ASID,
            VirtAddr::new(REMOTE_VA),
            PAGES,
            Perms::READ_WRITE,
        );
        let src = m.env(pid).buffer(0).va;
        let src_frame = m.env(pid).buffer(0).first_frame;
        let data = payload((PAGES * PAGE_SIZE) as usize);
        m.memory().borrow_mut().write_bytes(src_frame.base(), &data).unwrap();
        // Warm the local source so every fault is receive-side.
        for p in 0..PAGES {
            let warm = m.post_virt(pid, src + p * PAGE_SIZE, src + p * PAGE_SIZE, 8).unwrap();
            assert_eq!(m.run_virt(warm, 16), VirtState::Complete);
        }
        let id = m
            .post_virt_remote(
                pid,
                src,
                NODE,
                REMOTE_ASID,
                VirtAddr::new(REMOTE_VA),
                data.len() as u64,
            )
            .unwrap();
        assert_eq!(m.run_virt(id, 64), VirtState::Complete);
        let cluster = m.cluster().unwrap();
        let mut got = vec![0u8; data.len()];
        cluster.borrow().read(NODE, buf.first_frame.base(), &mut got).unwrap();
        assert_eq!(got, data, "remote deposit mismatch");
        (m.virt_xfer(id).unwrap(), m.remote_fault_service(NODE).stats())
    };

    let (demand, demand_os) = run(PrefetchConfig::default());
    let (piped, piped_os) = run(PrefetchConfig::depth(4));
    assert_eq!(u64::from(demand.nacks), PAGES, "demand path NACKs once per cold page");
    assert_eq!(piped.nacks, 1, "announced range collapses to a single NACK");
    // One round trip on the wire instead of four.
    assert_eq!(piped.nack_stall.as_ps() * PAGES, demand.nack_stall.as_ps());
    // The single service installed the remaining pages in one entry.
    assert_eq!(demand_os.mapped, PAGES);
    assert_eq!(piped_os.mapped, 1);
    assert_eq!(piped_os.range_prefilled, PAGES - 1);
    // Strictly faster end to end.
    let done = |t: udma_nic::VirtTransfer| t.finished.unwrap() - t.started;
    assert!(done(piped) < done(demand));
}

props! {
    config(cases = 48);

    /// Acceptance property: whatever mix of mapped, boundary-straddling
    /// and wild addresses is posted at a remote node, the deposit equals
    /// a straight-line oracle copy that stops at the first faulting page
    /// boundary — no byte ever lands in a frame the destination ASID
    /// does not map, and no byte ever lands past that boundary.
    fn remote_transfers_match_the_straight_line_oracle(
        src_pick in 0u32..4,
        dst_pick in 0u32..4,
        off_words in 0u64..64,
        size_words in 1u64..2048,
    ) {
        let mut m = remote_machine();
        let pid = m.spawn(&ProcessSpec::two_buffers_of(3), |_| {
            ProgramBuilder::new().halt().build()
        });
        let buf = m.grant_remote_buffer(
            NODE, REMOTE_ASID, VirtAddr::new(REMOTE_VA), 2, Perms::READ_WRITE,
        );
        let off = off_words * 8;
        let size = size_words * 8;
        // Seed the whole local source buffer so every picked range has
        // known bytes behind it.
        let src_base = m.env(pid).buffer(0).va;
        let src_frame = m.env(pid).buffer(0).first_frame;
        let fill = payload(3 * PAGE_SIZE as usize);
        m.memory().borrow_mut().write_bytes(src_frame.base(), &fill).unwrap();

        // Mostly-mapped sources (off + size ≤ 512 + 16 KiB < 3 pages);
        // one wild pick exercises the local-fault-first path.
        let src = if src_pick == 3 { VirtAddr::new(WILD_VA) } else { src_base + off };
        let dst = match dst_pick {
            // Fully inside the grant, page-straddling, past-the-end, wild.
            0 => VirtAddr::new(REMOTE_VA + off),
            1 => VirtAddr::new(REMOTE_VA + PAGE_SIZE - 256 + off),
            2 => VirtAddr::new(REMOTE_VA + PAGE_SIZE + off),
            _ => VirtAddr::new(WILD_VA + off),
        };

        let id = m.post_virt_remote(pid, src, NODE, REMOTE_ASID, dst, size).unwrap();
        let state = m.run_virt(id, 128);
        prop_assert!(
            matches!(state, VirtState::Complete | VirtState::Failed(_)),
            "transfer not driven to a terminal state: {state:?}"
        );

        // Straight-line oracle: bytes copy one by one until either side
        // hits an unmapped page; nothing at or past that point moves.
        let src_limit = if src_pick == 3 { 0 } else { size };
        let grant_end = REMOTE_VA + 2 * PAGE_SIZE;
        let dst_limit = if dst_pick == 3 {
            0
        } else {
            grant_end.saturating_sub(dst.as_u64()).min(size)
        };
        let deposited = src_limit.min(dst_limit);
        let mut oracle = vec![0u8; NODE_BYTES as usize];
        let gbase = buf.first_frame.base().as_u64();
        for i in 0..deposited {
            let dva = dst.as_u64() + i;
            let frame_off = gbase + (dva - REMOTE_VA - (dva - REMOTE_VA) % PAGE_SIZE)
                + dva % PAGE_SIZE;
            oracle[frame_off as usize] = fill[(src.as_u64() + i - src_base.as_u64()) as usize];
        }

        let t = m.virt_xfer(id).unwrap();
        prop_assert_eq!(t.moved, deposited, "moved bytes disagree with the oracle");
        prop_assert_eq!(
            state == VirtState::Complete,
            deposited == size,
            "completion status disagrees with the oracle"
        );
        if state != VirtState::Complete {
            let now = m.time();
            prop_assert_eq!(m.engine().core_mut().virt_status(id, now), DMA_FAILURE);
        }

        // The node's entire memory, byte for byte: equality with the
        // oracle rules out deposits into unmapped frames *and* deposits
        // past the faulting boundary in one shot.
        let cluster = m.cluster().unwrap();
        let mut node_mem = vec![0u8; NODE_BYTES as usize];
        cluster.borrow().read(NODE, PhysAddr::new(0), &mut node_mem).unwrap();
        prop_assert!(node_mem == oracle, "node memory deviates from the oracle copy");
    }
}

/// Satellite 2 — exhaustive interleaving of {sender retry, remote fault
/// service, remote swap-out} over a two-page remote transfer: every
/// schedule must converge to completion (no lost completion) with each
/// destination byte written exactly once (no double deposit).
#[test]
fn every_retry_service_swap_interleaving_converges_exactly_once() {
    let data = payload(2 * PAGE_SIZE as usize);
    // Thread 0: two spontaneous sender retries (below the budget of 3).
    // Thread 1: two remote fault-service drains.
    // Thread 2: one swap-out attempt on the transfer's second page.
    let lens = [2usize, 2, 1];
    let exploration = explore(&lens, Budget::new(2_000, 0xE13), |schedule| {
        let mut m = remote_machine();
        let pid =
            m.spawn(&ProcessSpec::two_buffers_of(2), |_| ProgramBuilder::new().halt().build());
        m.grant_remote_buffer(NODE, REMOTE_ASID, VirtAddr::new(REMOTE_VA), 2, Perms::READ_WRITE);
        let src = m.env(pid).buffer(0).va;
        let src_frame = m.env(pid).buffer(0).first_frame;
        m.memory().borrow_mut().write_bytes(src_frame.base(), &data).unwrap();
        // Warm the *local* source translations so only the receive side
        // faults under the schedule: the retry budget resets on byte
        // progress, and a cold local page would burn one fruitless
        // resume per side.
        for p in 0..2 {
            let warm = m.post_virt(pid, src + p * PAGE_SIZE, src + p * PAGE_SIZE, 8).unwrap();
            assert_eq!(m.run_virt(warm, 16), VirtState::Complete);
        }
        let id = m
            .post_virt_remote(
                pid,
                src,
                NODE,
                REMOTE_ASID,
                VirtAddr::new(REMOTE_VA),
                data.len() as u64,
            )
            .unwrap();

        for &actor in schedule {
            match actor {
                0 => {
                    let now = m.time();
                    m.engine().core_mut().resume_virt(id, now);
                }
                1 => {
                    m.service_remote_faults();
                }
                _ => {
                    // May be refused once the page is pinned; a success
                    // forces a swap-in on the next service. Both legal.
                    let _ =
                        m.swap_out_remote(NODE, REMOTE_ASID, VirtAddr::new(REMOTE_VA + PAGE_SIZE));
                }
            }
        }

        // However the actions interleaved, the OS-driven drain finishes
        // the transfer: a lost completion would stick at Faulted here.
        let state = m.run_virt(id, 64);
        if state != VirtState::Complete {
            return Some(format!("lost completion: terminal state {state:?}"));
        }

        // Exactly-once deposit: the mover's chunk log must tile the
        // destination without overlap, and the bytes must match.
        let mut chunks: Vec<(u64, u64)> = m
            .transfers()
            .iter()
            .filter(|r| {
                matches!(r.initiator, Initiator::VirtDma { .. }) && r.remote_node == Some(NODE)
            })
            .map(|r| (r.dst.as_u64(), r.size))
            .collect();
        chunks.sort_unstable();
        let total: u64 = chunks.iter().map(|&(_, s)| s).sum();
        if total != data.len() as u64 {
            return Some(format!("deposited {total} bytes for a {}-byte transfer", data.len()));
        }
        for w in chunks.windows(2) {
            if w[0].0 + w[0].1 > w[1].0 {
                return Some(format!("overlapping deposits at {:#x}", w[1].0));
            }
        }

        // Read back through the node's final translations (a swap-in may
        // have moved a page to a fresh frame).
        let cluster = m.cluster().unwrap();
        let cl = cluster.borrow();
        for p in 0..2u64 {
            let va = VirtAddr::new(REMOTE_VA + p * PAGE_SIZE);
            let Some(entry) = cl
                .node_iommu(NODE)
                .and_then(|i| i.table(REMOTE_ASID))
                .and_then(|t| t.entry(va.page()))
            else {
                return Some(format!("page {p} lost its I/O translation"));
            };
            let mut got = vec![0u8; PAGE_SIZE as usize];
            cl.read(NODE, entry.frame.base(), &mut got).unwrap();
            let lo = (p * PAGE_SIZE) as usize;
            if got != data[lo..lo + PAGE_SIZE as usize] {
                return Some(format!("page {p} bytes corrupted"));
            }
        }
        None
    });
    assert!(exploration.exhaustive, "30-schedule space must be enumerated exhaustively");
    assert_eq!(exploration.schedules, 30);
    assert!(
        exploration.findings.is_empty(),
        "violation under schedule {:?}: {}",
        exploration.findings[0].0,
        exploration.findings[0].1
    );
}

/// Satellite — the prefetch/shootdown race: a swap-out landing between
/// the receive-side prewalk and the chunk that uses its entry must
/// invalidate the prefetched IOTLB line, so the chunk NACKs and is
/// re-serviced instead of silently depositing into the stale frame.
/// Every interleaving of {sender resume, remote fault service,
/// unpin-then-swap-out of page 1} must converge with each byte readable
/// through the node's *final* translations — a stale-frame write would
/// leave page 1 without a translation or with the wrong bytes behind it.
#[test]
fn shootdown_between_prewalk_and_use_faults_instead_of_writing_stale_frames() {
    let data = payload(2 * PAGE_SIZE as usize);
    // Thread 0: two sender resumes (below the retry budget of 3).
    // Thread 1: two service drains. Thread 2: unpin page 1 (the OS
    // pinned it on install), then swap it out — the shootdown racing
    // the prefetched IOTLB entry.
    let lens = [2usize, 2, 2];
    let exploration = explore(&lens, Budget::new(2_000, 0xE15), |schedule| {
        let mut m = remote_machine_with(PrefetchConfig::depth(4));
        let pid =
            m.spawn(&ProcessSpec::two_buffers_of(2), |_| ProgramBuilder::new().halt().build());
        m.grant_remote_buffer(NODE, REMOTE_ASID, VirtAddr::new(REMOTE_VA), 2, Perms::READ_WRITE);
        let src = m.env(pid).buffer(0).va;
        let src_frame = m.env(pid).buffer(0).first_frame;
        m.memory().borrow_mut().write_bytes(src_frame.base(), &data).unwrap();
        for p in 0..2 {
            let warm = m.post_virt(pid, src + p * PAGE_SIZE, src + p * PAGE_SIZE, 8).unwrap();
            assert_eq!(m.run_virt(warm, 16), VirtState::Complete);
        }
        let id = m
            .post_virt_remote(
                pid,
                src,
                NODE,
                REMOTE_ASID,
                VirtAddr::new(REMOTE_VA),
                data.len() as u64,
            )
            .unwrap();

        let page1 = VirtAddr::new(REMOTE_VA + PAGE_SIZE);
        let mut unpinned = false;
        // A swap-out that lands *before* page 1's bytes are down races
        // the prefetched translation: the deposit must re-fault.
        let mut swapped_mid_transfer = false;
        for &actor in schedule {
            match actor {
                0 => {
                    let now = m.time();
                    m.engine().core_mut().resume_virt(id, now);
                }
                1 => {
                    m.service_remote_faults();
                }
                _ if !unpinned => {
                    // The range service pins what it installs; release
                    // page 1 so the swapper is allowed to race.
                    unpinned = true;
                    let cluster = m.cluster().unwrap();
                    let mut cl = cluster.borrow_mut();
                    let _ = cl.node_iommu_mut(NODE).unwrap().set_pinned(
                        REMOTE_ASID,
                        page1.page(),
                        false,
                    );
                }
                _ => {
                    let before = m.virt_xfer(id).unwrap().moved;
                    if m.swap_out_remote(NODE, REMOTE_ASID, page1).is_ok() && before < 2 * PAGE_SIZE
                    {
                        swapped_mid_transfer = true;
                    }
                }
            }
        }

        let state = m.run_virt(id, 64);
        if state != VirtState::Complete {
            return Some(format!("lost completion: terminal state {state:?}"));
        }

        // If the shootdown preceded the deposit, the prefetched IOTLB
        // entry must NOT have been used: the chunk re-faulted and the
        // node's OS paid a swap-in. A stale-entry write would complete
        // without one, with the ledger still claiming the page is out.
        if swapped_mid_transfer && m.remote_fault_service(NODE).stats().swapped_in == 0 {
            return Some("deposit went through a shot-down prefetched entry".into());
        }

        // Each destination byte must be readable through the node's
        // final translations; page 1's may be legitimately gone only if
        // the swap landed *after* its bytes were already delivered.
        let cluster = m.cluster().unwrap();
        let cl = cluster.borrow();
        for p in 0..2u64 {
            let va = VirtAddr::new(REMOTE_VA + p * PAGE_SIZE);
            let entry = cl
                .node_iommu(NODE)
                .and_then(|i| i.table(REMOTE_ASID))
                .and_then(|t| t.entry(va.page()));
            let Some(entry) = entry else {
                if p == 1 && !swapped_mid_transfer {
                    continue; // clean post-completion shootdown
                }
                return Some(format!("page {p} lost its I/O translation"));
            };
            let mut got = vec![0u8; PAGE_SIZE as usize];
            cl.read(NODE, entry.frame.base(), &mut got).unwrap();
            let lo = (p * PAGE_SIZE) as usize;
            if got != data[lo..lo + PAGE_SIZE as usize] {
                return Some(format!("page {p} bytes lost to a stale frame"));
            }
        }
        None
    });
    assert!(exploration.exhaustive, "schedule space must be enumerated exhaustively");
    assert!(exploration.schedules > 1);
    assert!(
        exploration.findings.is_empty(),
        "violation under schedule {:?}: {}",
        exploration.findings[0].0,
        exploration.findings[0].1
    );
}
