//! Property tests for the write buffer: whatever the policy, memory
//! semantics are preserved.

use udma_testkit::prop::{any, vec, Strategy};
use udma_testkit::{prop_assert, prop_assert_eq, props};

use udma_bus::{PendingStore, WriteBuffer, WriteBufferPolicy};
use udma_mem::PhysAddr;

#[derive(Clone, Copy, Debug)]
struct Op {
    addr: u64,
    data: u64,
    is_store: bool,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    vec(
        (0u64..8, any::<u64>(), any::<bool>()).prop_map(|(a, data, is_store)| Op {
            addr: a * 8,
            data,
            is_store,
        }),
        0..64,
    )
}

fn policies() -> impl Strategy<Value = WriteBufferPolicy> {
    (any::<bool>(), any::<bool>(), 0usize..8).prop_map(|(collapse, service, capacity)| {
        WriteBufferPolicy { collapse_stores: collapse, service_loads: service, capacity }
    })
}

/// Pops every pending store, oldest first (what a barrier retires).
fn drain(wb: &mut WriteBuffer) -> Vec<PendingStore> {
    std::iter::from_fn(|| wb.pop_oldest()).collect()
}

/// A reference "memory": replay stores in program order.
fn reference_memory(ops: &[Op]) -> std::collections::HashMap<u64, u64> {
    let mut mem = std::collections::HashMap::new();
    for op in ops {
        if op.is_store {
            mem.insert(op.addr, op.data);
        }
    }
    mem
}

/// One step of a CPU's traffic through the buffer.
#[derive(Clone, Copy, Debug)]
enum Step {
    Store { addr: u64, data: u64, tag: u32 },
    Load { addr: u64 },
    Barrier,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    vec(
        (0u8..8, 0u64..6, any::<u64>(), 0u32..3).prop_map(|(kind, a, data, tag)| match kind {
            0..=4 => Step::Store { addr: a * 8, data, tag },
            5 | 6 => Step::Load { addr: a * 8 },
            _ => Step::Barrier,
        }),
        0..96,
    )
}

/// The write buffer's contract as a plain queue: a disabled buffer
/// retires every store at once; a collapsing buffer merges a store into
/// the newest pending one at the same address, in place; otherwise a
/// full buffer retires its oldest entry to make room. Loads forward the
/// newest matching pending store.
struct QueueModel {
    policy: WriteBufferPolicy,
    queue: Vec<PendingStore>,
    collapsed: u64,
    serviced: u64,
}

impl QueueModel {
    fn push(&mut self, store: PendingStore, retired: &mut Vec<PendingStore>) {
        if self.policy.capacity == 0 {
            retired.push(store);
            return;
        }
        if self.policy.collapse_stores {
            if let Some(p) = self.queue.iter_mut().rev().find(|p| p.paddr == store.paddr) {
                *p = store;
                self.collapsed += 1;
                return;
            }
        }
        if self.queue.len() == self.policy.capacity {
            retired.push(self.queue.remove(0));
        }
        self.queue.push(store);
    }

    fn load(&mut self, paddr: PhysAddr) -> Option<u64> {
        if !self.policy.service_loads {
            return None;
        }
        let hit = self.queue.iter().rev().find(|p| p.paddr == paddr).map(|p| p.data);
        self.serviced += u64::from(hit.is_some());
        hit
    }
}

props! {
    /// The buffer retires exactly the stores the queue model retires, in
    /// the same order and with the same data and tags, whether they leave
    /// one at a time from `push` or all at once at a barrier; forwarding
    /// and the collapse/service counters agree too. Policies cover
    /// capacity 0 (pass-through), collapse and forwarding on and off.
    fn retirement_matches_a_queue_model(steps in steps(), policy in policies()) {
        let mut wb = WriteBuffer::new(policy);
        let mut model = QueueModel { policy, queue: Vec::new(), collapsed: 0, serviced: 0 };
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for &step in &steps {
            match step {
                Step::Store { addr, data, tag } => {
                    let store = PendingStore { paddr: PhysAddr::new(addr), data, tag };
                    got.extend(wb.push(store));
                    model.push(store, &mut want);
                }
                Step::Load { addr } => {
                    let pa = PhysAddr::new(addr);
                    prop_assert_eq!(wb.service_load(pa), model.load(pa));
                }
                Step::Barrier => {
                    got.extend(drain(&mut wb));
                    want.append(&mut model.queue);
                }
            }
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(wb.len(), model.queue.len());
            prop_assert!(wb.len() <= policy.capacity);
        }
        prop_assert_eq!(wb.collapsed_count(), model.collapsed);
        prop_assert_eq!(wb.serviced_count(), model.serviced);
    }

    /// Single-processor consistency: after draining, the combination of
    /// retired stores (in retirement order) equals the reference memory,
    /// regardless of policy. Collapsing may *remove* intermediate values
    /// but never reorders same-address stores or loses the final value.
    fn drain_preserves_final_memory_state(ops in ops(), policy in policies()) {
        let mut wb = WriteBuffer::new(policy);
        let mut retired: Vec<PendingStore> = Vec::new();
        for op in &ops {
            if op.is_store {
                retired.extend(wb.push(PendingStore {
                    paddr: PhysAddr::new(op.addr),
                    data: op.data,
                    tag: 0,
                }));
            } else {
                // Loads may be serviced; they must then return the value
                // a serial execution would see (checked below).
                let _ = wb.service_load(PhysAddr::new(op.addr));
            }
        }
        retired.extend(drain(&mut wb));

        let mut replayed = std::collections::HashMap::new();
        for st in &retired {
            replayed.insert(st.paddr.as_u64(), st.data);
        }
        prop_assert_eq!(replayed, reference_memory(&ops));
        prop_assert!(wb.is_empty());
    }

    /// Store-to-load forwarding always returns the program-order value of
    /// the most recent store to that address, when it forwards at all.
    fn forwarding_returns_program_order_value(ops in ops()) {
        let policy = WriteBufferPolicy { capacity: 64, ..WriteBufferPolicy::default() };
        let mut wb = WriteBuffer::new(policy);
        let mut last_store: std::collections::HashMap<u64, u64> = Default::default();
        for op in &ops {
            if op.is_store {
                let retired = wb.push(PendingStore {
                    paddr: PhysAddr::new(op.addr),
                    data: op.data,
                    tag: 0,
                });
                prop_assert!(retired.is_none(), "capacity 64 never overflows here");
                last_store.insert(op.addr, op.data);
            } else if let Some(v) = wb.service_load(PhysAddr::new(op.addr)) {
                prop_assert_eq!(Some(&v), last_store.get(&op.addr));
            }
        }
    }

    /// FIFO order among distinct addresses survives any collapse pattern.
    fn distinct_addresses_retire_in_issue_order(
        addrs in vec(0u64..32, 1..24),
    ) {
        let mut wb = WriteBuffer::new(WriteBufferPolicy {
            capacity: 64,
            ..WriteBufferPolicy::default()
        });
        for (i, &a) in addrs.iter().enumerate() {
            wb.push(PendingStore { paddr: PhysAddr::new(a * 8), data: i as u64, tag: 0 });
        }
        let drained = drain(&mut wb);
        // First-occurrence order of addresses must be preserved.
        let mut seen = Vec::new();
        for &a in &addrs {
            if !seen.contains(&(a * 8)) {
                seen.push(a * 8);
            }
        }
        let drained_addrs: Vec<u64> = drained.iter().map(|s| s.paddr.as_u64()).collect();
        prop_assert_eq!(drained_addrs, seen);
    }
}
