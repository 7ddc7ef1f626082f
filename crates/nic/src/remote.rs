//! Remote workstation memory: the "NOW" half of the story.
//!
//! The paper's interfaces (SHRIMP, Telegraphos) move data *between
//! workstations*: SHRIMP-1's mapped-out pages live on another node.
//! [`Cluster`] models the receive side of such a network — per-node
//! physical memories the DMA engine can deposit into over the link.
//! Only the data path is modelled (deposits appear after the wire time);
//! remote nodes do not initiate traffic of their own.
//!
//! With [`Cluster::enable_virt`] each node additionally owns a
//! receive-side [`Iommu`] (I/O page table + IOTLB, reused wholesale from
//! `udma-iommu`) and a NACK queue, which is what the Psistakis follow-on
//! theses add to Telegraphos: incoming packets name **virtual** addresses
//! in a destination address space, the receiving NI translates them, and
//! a translation failure NACKs the packet back to the sender instead of
//! depositing anywhere.

use crate::crash::CrashStats;
use crate::faulty::DeliveryOutcome;
use crate::virt::PendingFault;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;
use udma_iommu::{Asid, IoFault, Iommu, IotlbConfig};
use udma_mem::{Access, MemFault, PhysAddr, PhysFrame, PhysMemory, VirtAddr, VirtPage};

/// A handle to the cluster's remote memories, shared between the engine
/// and the experiment code that inspects arrivals.
pub type SharedCluster = Rc<RefCell<Cluster>>;

/// Why a cluster access failed. Unlike a bare [`MemFault`], this keeps
/// "the node does not exist" distinct from "the node exists but the
/// address is bad", and names the node either way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemoteError {
    /// The cluster has no node with this index.
    NoSuchNode {
        /// The requested node index.
        node: u32,
    },
    /// The node exists, but the access faulted in its memory (out of
    /// range, misaligned, …).
    Mem {
        /// The node the access was addressed to.
        node: u32,
        /// The underlying memory fault on that node.
        fault: MemFault,
    },
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoteError::NoSuchNode { node } => write!(f, "no such cluster node {node}"),
            RemoteError::Mem { node, fault } => write!(f, "node {node}: {fault}"),
        }
    }
}

impl std::error::Error for RemoteError {}

/// What a node's receive-side delivery engine saw cross the (possibly
/// lossy) link: the counters the go-back-N layer reports per deposit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeLinkStats {
    /// Reliable deliveries addressed to this node.
    pub deliveries: u64,
    /// Bytes accepted in order (the deposited payload).
    pub bytes_accepted: u64,
    /// Data frames retransmitted to this node.
    pub retransmits: u64,
    /// Frames discarded for a bad CRC — none of these were ever acked.
    pub crc_dropped: u64,
    /// Duplicate frames ignored (cumulative ACK already covered them).
    pub dup_ignored: u64,
    /// Out-of-order frames a go-back-N receiver discards.
    pub ooo_discarded: u64,
}

/// A multi-page `RemoteVirt` transfer's destination range, as announced
/// in its first frame. The receive side uses it two ways: its IOMMU
/// prewalks ahead of the arriving deposits, and — when a page does
/// fault — the node's OS can service the *entire remaining range* in
/// one go, so a cold contiguous buffer costs one NACK round trip
/// instead of one per page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DstAnnouncement {
    /// Destination address space on the node.
    pub asid: Asid,
    /// Start of the announced destination range.
    pub va: VirtAddr,
    /// Length of the announced range in bytes.
    pub len: u64,
}

/// One remote workstation: its memory, and — when virtual-address RDMA
/// is enabled — its receive-side translation unit and NACK queue.
#[derive(Clone, Debug)]
struct RemoteNode {
    mem: PhysMemory,
    /// Receive-side IOMMU (present once [`Cluster::enable_virt`] ran).
    iommu: Option<Iommu>,
    /// Faults this node NACKed back to the sender, tagged with the
    /// sender's transfer id so the retry finds its transfer. The remote
    /// node's OS drains this, exactly as the local OS drains the
    /// engine's own fault queue.
    nacks: VecDeque<PendingFault>,
    /// NACKs ever raised (monotonic; the queue length only reports
    /// pending ones).
    nacks_raised: u64,
    /// Receive-side view of the lossy link (all zero on an ideal wire).
    link_stats: NodeLinkStats,
    /// Announced destination ranges of in-flight transfers, keyed by the
    /// sender's transfer id.
    announced: BTreeMap<usize, DstAnnouncement>,
    /// Whether the node is powered and running (false between a crash
    /// and its reboot).
    up: bool,
    /// Whether the node's NI engine is hung (frames dropped, state kept).
    hung: bool,
    /// Incarnation epoch, bumped by every reboot. Stale pre-crash state
    /// is fenced against this.
    inc: u64,
    /// Failure accounting.
    crash: CrashStats,
}

/// The remote nodes reachable over the machine's link.
#[derive(Clone, Debug)]
pub struct Cluster {
    nodes: Vec<RemoteNode>,
    /// Per-node RAM size, kept so a reboot can rebuild a node's memory.
    bytes_per_node: u64,
    /// IOTLB geometry handed to [`enable_virt`](Self::enable_virt), kept
    /// so a reboot can rebuild a node's IOMMU.
    iotlb: Option<IotlbConfig>,
}

impl Cluster {
    /// Creates `count` remote nodes with `bytes_per_node` of memory each.
    pub fn new(count: u32, bytes_per_node: u64) -> Self {
        Cluster {
            nodes: (0..count)
                .map(|_| RemoteNode {
                    mem: PhysMemory::new(bytes_per_node),
                    iommu: None,
                    nacks: VecDeque::new(),
                    nacks_raised: 0,
                    link_stats: NodeLinkStats::default(),
                    announced: BTreeMap::new(),
                    up: true,
                    hung: false,
                    inc: 0,
                    crash: CrashStats::default(),
                })
                .collect(),
            bytes_per_node,
            iotlb: None,
        }
    }

    /// Wraps the cluster for sharing.
    pub fn shared(self) -> SharedCluster {
        Rc::new(RefCell::new(self))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `node` exists.
    pub fn has_node(&self, node: u32) -> bool {
        (node as usize) < self.nodes.len()
    }

    fn node(&self, node: u32) -> Result<&RemoteNode, RemoteError> {
        self.nodes.get(node as usize).ok_or(RemoteError::NoSuchNode { node })
    }

    fn node_mut(&mut self, node: u32) -> Result<&mut RemoteNode, RemoteError> {
        self.nodes.get_mut(node as usize).ok_or(RemoteError::NoSuchNode { node })
    }

    /// Writes `data` into `node`'s memory at `addr` (the engine's deposit
    /// path).
    ///
    /// # Errors
    ///
    /// [`RemoteError::NoSuchNode`] if the node does not exist,
    /// [`RemoteError::Mem`] if the range is outside its memory.
    pub fn deposit(&mut self, node: u32, addr: PhysAddr, data: &[u8]) -> Result<(), RemoteError> {
        self.node_mut(node)?
            .mem
            .write_bytes(addr, data)
            .map_err(|fault| RemoteError::Mem { node, fault })
    }

    /// Copies `len` bytes at `src` in `from` (the sender's memory)
    /// straight into `node`'s memory at `addr`: the engine's deposit
    /// path when the bytes need no staging, with no intermediate buffer.
    /// Whole aligned pages are shared with `from`, not copied
    /// ([`PhysMemory::copy_from`]).
    ///
    /// # Errors
    ///
    /// As for [`deposit`](Self::deposit); a source range outside `from`
    /// also reports as [`RemoteError::Mem`] with that range's fault.
    pub fn deposit_from(
        &mut self,
        node: u32,
        addr: PhysAddr,
        from: &mut PhysMemory,
        src: PhysAddr,
        len: u64,
    ) -> Result<(), RemoteError> {
        self.node_mut(node)?
            .mem
            .copy_from(addr, from, src, len)
            .map_err(|fault| RemoteError::Mem { node, fault })
    }

    /// `node`'s memory (test inspection: which frames a deposit left
    /// resident, and whether it shares them).
    pub fn node_memory(&self, node: u32) -> Option<&PhysMemory> {
        self.nodes.get(node as usize).map(|n| &n.mem)
    }

    /// Reads from `node`'s memory (experiment inspection: "did the
    /// message arrive?").
    ///
    /// # Errors
    ///
    /// As for [`deposit`](Self::deposit).
    pub fn read(&self, node: u32, addr: PhysAddr, buf: &mut [u8]) -> Result<(), RemoteError> {
        self.node(node)?.mem.read_bytes(addr, buf).map_err(|fault| RemoteError::Mem { node, fault })
    }

    /// Reads one word from a node's memory.
    ///
    /// # Errors
    ///
    /// As for [`read`](Self::read), plus misalignment.
    pub fn read_u64(&self, node: u32, addr: PhysAddr) -> Result<u64, RemoteError> {
        self.node(node)?.mem.read_u64(addr).map_err(|fault| RemoteError::Mem { node, fault })
    }

    // ---- virtual-address RDMA (receive side) ------------------------

    /// Equips every node with a receive-side IOMMU so incoming transfers
    /// can name virtual addresses in the node's address spaces
    /// (idempotent per node: existing IOMMUs are kept).
    pub fn enable_virt(&mut self, iotlb: IotlbConfig) {
        self.iotlb = Some(iotlb);
        for n in &mut self.nodes {
            if n.iommu.is_none() {
                n.iommu = Some(Iommu::new(iotlb));
            }
        }
    }

    /// Whether the nodes have receive-side IOMMUs.
    pub fn virt_enabled(&self) -> bool {
        self.nodes.iter().all(|n| n.iommu.is_some()) && !self.nodes.is_empty()
    }

    /// A node's receive-side IOMMU.
    pub fn node_iommu(&self, node: u32) -> Option<&Iommu> {
        self.nodes.get(node as usize).and_then(|n| n.iommu.as_ref())
    }

    /// Mutable receive-side IOMMU of a node (the node's OS maps/unmaps
    /// and pins through this).
    pub fn node_iommu_mut(&mut self, node: u32) -> Option<&mut Iommu> {
        self.nodes.get_mut(node as usize).and_then(|n| n.iommu.as_mut())
    }

    /// Translates an incoming deposit's destination on `node`'s
    /// receive-side IOMMU. This is the per-chunk step of every
    /// virtual-address *remote* transfer, and the walk count it adds to
    /// the node's IOTLB stats is the receive-side walk cost the sender's
    /// clock is charged with.
    ///
    /// # Errors
    ///
    /// The [`IoFault`] that the node NACKs back over the link.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist or [`Cluster::enable_virt`]
    /// never ran — the engine validates both at post time.
    pub fn translate(
        &mut self,
        node: u32,
        asid: Asid,
        va: VirtAddr,
        access: Access,
    ) -> Result<PhysAddr, IoFault> {
        self.nodes[node as usize]
            .iommu
            .as_mut()
            .expect("remote translate requires enable_virt")
            .translate(asid, va, access)
    }

    /// Queues a NACKed fault on `node` for its OS fault service. Tests
    /// may push the same fault twice to model a duplicated NACK.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn push_fault(&mut self, node: u32, pending: PendingFault) {
        let n = &mut self.nodes[node as usize];
        n.nacks_raised += 1;
        n.nacks.push_back(pending);
    }

    /// Dequeues the oldest NACKed fault of `node` (the node's OS fault
    /// service polls this). Tests may pop-and-discard to model a NACK
    /// lost on the wire.
    pub fn pop_fault(&mut self, node: u32) -> Option<PendingFault> {
        self.nodes.get_mut(node as usize).and_then(|n| n.nacks.pop_front())
    }

    /// Pending NACKed faults on `node`.
    pub fn fault_backlog(&self, node: u32) -> usize {
        self.nodes.get(node as usize).map_or(0, |n| n.nacks.len())
    }

    /// NACKs ever raised by `node` (including serviced ones).
    pub fn faults_raised(&self, node: u32) -> u64 {
        self.nodes.get(node as usize).map_or(0, |n| n.nacks_raised)
    }

    /// Peeks at `node`'s receive-side IOTLB for the frame backing
    /// `(asid, page)` — the coalescer's lookahead, which never counts a
    /// miss (see [`udma_iommu::Iommu::probe`]).
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist or [`Cluster::enable_virt`]
    /// never ran.
    pub fn probe(
        &mut self,
        node: u32,
        asid: Asid,
        page: VirtPage,
        access: Access,
    ) -> Option<PhysFrame> {
        self.nodes[node as usize]
            .iommu
            .as_mut()
            .expect("remote probe requires enable_virt")
            .probe(asid, page, access)
    }

    /// Records a transfer's announced destination range on `node`
    /// (carried by the transfer's first frame). Overwrites any earlier
    /// announcement of the same sender transfer id.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist — the engine validates the
    /// node at post time.
    pub fn announce(&mut self, node: u32, xfer: usize, ann: DstAnnouncement) {
        self.nodes[node as usize].announced.insert(xfer, ann);
    }

    /// The announced destination range of sender transfer `xfer` on
    /// `node`, if one is in flight.
    pub fn announcement(&self, node: u32, xfer: usize) -> Option<DstAnnouncement> {
        self.nodes.get(node as usize).and_then(|n| n.announced.get(&xfer).copied())
    }

    /// Drops a transfer's announcement (transfer reached a terminal
    /// state, or the sender never announced).
    pub fn retire_announcement(&mut self, node: u32, xfer: usize) {
        if let Some(n) = self.nodes.get_mut(node as usize) {
            n.announced.remove(&xfer);
        }
    }

    /// Prewalks `node`'s receive-side IOMMU over `[va, va + len)` —
    /// the receive-side half of the translation pipeline. Best-effort
    /// like [`udma_iommu::Iommu::prewalk_range`]: stops at the first
    /// unresolvable page without raising a NACK. Returns the number of
    /// walks performed so the sender's clock can charge them at the
    /// amortized batch rate.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist or [`Cluster::enable_virt`]
    /// never ran.
    pub fn prewalk(
        &mut self,
        node: u32,
        asid: Asid,
        va: VirtAddr,
        len: u64,
        access: Access,
    ) -> u64 {
        self.nodes[node as usize]
            .iommu
            .as_mut()
            .expect("remote prewalk requires enable_virt")
            .prewalk_range(asid, va, len, access)
    }

    /// Folds one reliable delivery's outcome into `node`'s receive-side
    /// link counters (the mover calls this per deposit over a chaos
    /// link).
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist — the mover deposits only to
    /// validated nodes.
    pub fn note_delivery(&mut self, node: u32, outcome: &DeliveryOutcome) {
        let s = &mut self.nodes[node as usize].link_stats;
        s.deliveries += 1;
        s.bytes_accepted += outcome.delivered;
        s.retransmits += outcome.retransmits as u64;
        s.crc_dropped += outcome.crc_dropped as u64;
        s.dup_ignored += outcome.dup_ignored as u64;
        s.ooo_discarded += outcome.ooo_discarded as u64;
    }

    /// Receive-side link counters of `node` (all zero on an ideal wire
    /// or a missing node).
    pub fn link_stats(&self, node: u32) -> NodeLinkStats {
        self.nodes.get(node as usize).map_or(NodeLinkStats::default(), |n| n.link_stats)
    }

    // ---- node fault domain ------------------------------------------

    /// Whether `node` is powered, running, and answering frames (false
    /// while crashed *or* NI-hung; false for a missing node).
    pub fn node_responsive(&self, node: u32) -> bool {
        self.nodes.get(node as usize).is_some_and(|n| n.up && !n.hung)
    }

    /// Whether `node` is powered at all (an NI-hung node is up but not
    /// responsive).
    pub fn node_up(&self, node: u32) -> bool {
        self.nodes.get(node as usize).is_some_and(|n| n.up)
    }

    /// `node`'s current incarnation epoch (0 until its first reboot).
    pub fn node_incarnation(&self, node: u32) -> u64 {
        self.nodes.get(node as usize).map_or(0, |n| n.inc)
    }

    /// `node`'s failure accounting.
    pub fn crash_stats(&self, node: u32) -> CrashStats {
        self.nodes.get(node as usize).map_or(CrashStats::default(), |n| n.crash)
    }

    /// Crashes `node`: it goes silent immediately and its queued NACK
    /// backlog — pre-crash faults the OS never got to — is fenced, not
    /// serviced. Memory and IOMMU contents formally die here too; they
    /// are rebuilt (empty) at [`reboot_node`](Self::reboot_node).
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn crash_node(&mut self, node: u32) {
        let n = &mut self.nodes[node as usize];
        n.up = false;
        n.hung = false;
        n.crash.crashes += 1;
        n.crash.fenced_faults += n.nacks.len() as u64;
        n.nacks.clear();
        n.announced.clear();
    }

    /// Reboots a crashed `node` under a new incarnation epoch: fresh
    /// (zeroed) memory, a fresh receive-side IOMMU with no contexts,
    /// mappings or IOTLB entries, and no announced ranges. Returns the
    /// new epoch. The caller (the node's OS) re-exposes and re-pins
    /// from its persistent grant records afterward.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist or is not crashed.
    pub fn reboot_node(&mut self, node: u32) -> u64 {
        let iotlb = self.iotlb;
        let bytes = self.bytes_per_node;
        let n = &mut self.nodes[node as usize];
        assert!(!n.up, "reboot of a node that never crashed");
        n.up = true;
        n.inc += 1;
        n.crash.reboots += 1;
        n.mem = PhysMemory::new(bytes);
        n.iommu = iotlb.map(Iommu::new);
        n.nacks.clear();
        n.announced.clear();
        n.inc
    }

    /// Hangs `node`'s NI engine: frames to it vanish, but all state
    /// survives and the incarnation does not change.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn hang_node(&mut self, node: u32) {
        let n = &mut self.nodes[node as usize];
        n.hung = true;
        n.crash.hangs += 1;
    }

    /// Ends an NI-engine hang; paused transfers may resume where they
    /// stopped, since nothing was lost.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn unhang_node(&mut self, node: u32) {
        self.nodes[node as usize].hung = false;
    }

    /// Counts a frame the sender fired into a crashed or hung node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn note_dropped(&mut self, node: u32) {
        self.nodes[node as usize].crash.dropped_down += 1;
    }

    /// Books one grant record replayed (re-exposed) during a reboot.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn note_regrant(&mut self, node: u32) {
        self.nodes[node as usize].crash.regrants += 1;
    }

    /// Books one pin record replayed (re-pinned) during a reboot.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn note_repin(&mut self, node: u32) {
        self.nodes[node as usize].crash.repins += 1;
    }
}

/// Where a transfer's bytes land: locally or on a cluster node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Destination {
    /// This workstation's own memory.
    Local(PhysAddr),
    /// A remote node's memory, by physical address (SHRIMP-1 style:
    /// the sender proved the mapping at map-out time).
    Remote {
        /// Node index within the cluster.
        node: u32,
        /// Physical address on that node.
        addr: PhysAddr,
    },
    /// A remote node's memory, by **virtual** address in one of the
    /// node's address spaces — the receiving NI translates (and may
    /// NACK a page fault back).
    RemoteVirt {
        /// Node index within the cluster.
        node: u32,
        /// Destination address space on that node.
        asid: Asid,
        /// Virtual address within that address space.
        va: VirtAddr,
    },
}

impl std::fmt::Display for Destination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Destination::Local(pa) => write!(f, "{pa}"),
            Destination::Remote { node, addr } => write!(f, "node{node}:{addr}"),
            Destination::RemoteVirt { node, asid, va } => {
                write!(f, "node{node}:as{asid}:{va}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udma_iommu::IoFaultKind;
    use udma_mem::{Perms, PhysFrame, VirtPage, PAGE_SIZE};

    #[test]
    fn deposit_and_read_back() {
        let mut c = Cluster::new(2, 1 << 16);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        c.deposit(1, PhysAddr::new(0x100), b"hello node").unwrap();
        let mut buf = [0u8; 10];
        c.read(1, PhysAddr::new(0x100), &mut buf).unwrap();
        assert_eq!(&buf, b"hello node");
        // Node 0 untouched.
        c.read(0, PhysAddr::new(0x100), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 10]);
    }

    /// Pins the error shape: a nonexistent node and an out-of-range
    /// address are *distinct* failures, and both carry the node index.
    #[test]
    fn missing_node_and_bad_offset_are_distinct_errors() {
        let mut c = Cluster::new(1, 1 << 13);
        assert!(!c.has_node(1));
        // No such node: NoSuchNode, carrying the node id.
        assert_eq!(c.deposit(1, PhysAddr::new(0), b"x"), Err(RemoteError::NoSuchNode { node: 1 }));
        let mut b = [0u8; 1];
        assert_eq!(c.read(9, PhysAddr::new(0), &mut b), Err(RemoteError::NoSuchNode { node: 9 }));
        assert_eq!(c.read_u64(7, PhysAddr::new(0)), Err(RemoteError::NoSuchNode { node: 7 }));
        // Existing node, bad offset: Mem with the node's own BusError.
        let off = PhysAddr::new(1 << 13);
        assert_eq!(
            c.deposit(0, off, b"x"),
            Err(RemoteError::Mem { node: 0, fault: MemFault::BusError { pa: off } })
        );
        assert!(matches!(c.read(0, off, &mut b), Err(RemoteError::Mem { node: 0, .. })));
        // Display keeps them tellable-apart too.
        assert!(RemoteError::NoSuchNode { node: 1 }.to_string().contains("no such"));
        assert!(c.deposit(0, off, b"x").unwrap_err().to_string().contains("node 0"));
    }

    #[test]
    fn enable_virt_gives_every_node_an_iommu() {
        let mut c = Cluster::new(2, 1 << 16);
        assert!(!c.virt_enabled());
        assert!(c.node_iommu(0).is_none());
        c.enable_virt(IotlbConfig::default());
        assert!(c.virt_enabled());
        assert!(c.node_iommu(0).is_some());
        assert!(c.node_iommu(1).is_some());
        assert!(c.node_iommu(2).is_none());
    }

    #[test]
    fn remote_translate_faults_until_mapped() {
        let mut c = Cluster::new(1, 1 << 16);
        c.enable_virt(IotlbConfig::default());
        let iommu = c.node_iommu_mut(0).unwrap();
        iommu.create_context(7);
        let va = VirtAddr::new(2 * PAGE_SIZE + 0x40);
        let f = c.translate(0, 7, va, Access::Write).unwrap_err();
        assert_eq!(f.kind, IoFaultKind::Unmapped);
        assert_eq!(f.asid, 7);
        c.node_iommu_mut(0)
            .unwrap()
            .map(7, VirtPage::new(2), PhysFrame::new(3), Perms::READ_WRITE, true)
            .unwrap();
        let pa = c.translate(0, 7, va, Access::Write).unwrap();
        assert_eq!(pa, PhysFrame::new(3).base() + 0x40);
    }

    #[test]
    fn nack_queue_is_fifo_and_counts() {
        let mut c = Cluster::new(1, 1 << 16);
        let f = |va: u64| PendingFault {
            xfer: 3,
            fault: IoFault {
                asid: 7,
                va: VirtAddr::new(va),
                access: Access::Write,
                kind: IoFaultKind::Unmapped,
            },
        };
        assert_eq!(c.fault_backlog(0), 0);
        c.push_fault(0, f(0x1000));
        c.push_fault(0, f(0x2000));
        assert_eq!(c.fault_backlog(0), 2);
        assert_eq!(c.faults_raised(0), 2);
        assert_eq!(c.pop_fault(0).unwrap().fault.va, VirtAddr::new(0x1000));
        assert_eq!(c.pop_fault(0).unwrap().fault.va, VirtAddr::new(0x2000));
        assert!(c.pop_fault(0).is_none());
        // Draining does not reset the raised counter; bad node is calm.
        assert_eq!(c.faults_raised(0), 2);
        assert_eq!(c.fault_backlog(9), 0);
        assert!(c.pop_fault(9).is_none());
    }

    #[test]
    fn crash_fences_the_backlog_and_reboot_bumps_the_incarnation() {
        let mut c = Cluster::new(2, 1 << 16);
        c.enable_virt(IotlbConfig::default());
        c.node_iommu_mut(1).unwrap().create_context(7);
        c.node_iommu_mut(1)
            .unwrap()
            .map(7, VirtPage::new(2), PhysFrame::new(3), Perms::READ_WRITE, true)
            .unwrap();
        c.deposit(1, PhysFrame::new(3).base(), b"pre-crash bytes").unwrap();
        c.push_fault(
            1,
            PendingFault {
                xfer: 0,
                fault: IoFault {
                    asid: 7,
                    va: VirtAddr::new(5 * PAGE_SIZE),
                    access: Access::Write,
                    kind: IoFaultKind::Unmapped,
                },
            },
        );
        assert!(c.node_responsive(1));
        c.crash_node(1);
        assert!(!c.node_responsive(1) && !c.node_up(1));
        // The queued pre-crash NACK is fenced, never serviced.
        assert!(c.pop_fault(1).is_none());
        assert_eq!(c.crash_stats(1).fenced_faults, 1);
        assert_eq!(c.reboot_node(1), 1, "first reboot is incarnation 1");
        assert!(c.node_responsive(1));
        assert_eq!(c.node_incarnation(1), 1);
        // Volatile state died: memory zeroed, IOMMU contexts gone.
        let mut buf = [0u8; 15];
        c.read(1, PhysFrame::new(3).base(), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 15], "pre-crash memory does not survive a reboot");
        assert!(!c.node_iommu(1).unwrap().has_context(7));
        // A hang is survivable: state intact, same incarnation.
        c.hang_node(0);
        assert!(c.node_up(0) && !c.node_responsive(0));
        c.unhang_node(0);
        assert!(c.node_responsive(0));
        assert_eq!(c.node_incarnation(0), 0);
        assert_eq!(c.crash_stats(0).hangs, 1);
    }

    #[test]
    fn destination_display() {
        assert_eq!(Destination::Local(PhysAddr::new(0x40)).to_string(), "0x40");
        assert_eq!(
            Destination::Remote { node: 2, addr: PhysAddr::new(0x80) }.to_string(),
            "node2:0x80"
        );
        assert_eq!(
            Destination::RemoteVirt { node: 1, asid: 7, va: VirtAddr::new(0x2000) }.to_string(),
            "node1:as7:0x2000"
        );
    }
}
