//! Physical memory and frame allocation.

use crate::{MemFault, PhysAddr, PhysFrame, PAGE_SHIFT, PAGE_SIZE};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Hashes a frame number with one multiply by a 64-bit odd constant
/// (Fibonacci hashing). Frame numbers are small integers no adversary
/// chooses, so SipHash's flood resistance buys nothing here. `finish`
/// rotates the well-mixed high product bits down into the low bits the
/// table indexes by, so strided frame numbers spread too.
#[derive(Clone, Copy, Debug, Default)]
struct FrameHasher(u64);

const FRAME_HASH_K: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for FrameHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FRAME_HASH_K);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(FRAME_HASH_K);
    }
}

type FrameMap = HashMap<u64, Frame, BuildHasherDefault<FrameHasher>>;

/// One page of bytes that several holders may reference at once: a
/// frame several memories share, or a page of a transfer's payload that
/// a deposit installs by reference (see [`PhysMemory::write_page`]).
pub type SharedPage = Arc<Box<[u8]>>;

/// A resident frame: owned by this memory, or shared with other holders
/// of the same page. Reads see the bytes either way. The first write to
/// a shared frame takes it back ([`Frame::unshare`]); writes to an owned
/// frame touch no reference count.
#[derive(Clone, Debug)]
enum Frame {
    Owned(Box<[u8]>),
    Shared(SharedPage),
}

impl Frame {
    fn bytes(&self) -> &[u8] {
        match self {
            Frame::Owned(bytes) => bytes,
            Frame::Shared(page) => page,
        }
    }

    fn bytes_mut(&mut self) -> &mut [u8] {
        match self {
            Frame::Owned(bytes) => bytes,
            Frame::Shared(_) => self.unshare(),
        }
    }

    /// Makes a shared frame owned again: without a copy when this was
    /// the last reference, by copying the page otherwise.
    #[cold]
    #[inline(never)]
    fn unshare(&mut self) -> &mut [u8] {
        if let Frame::Shared(page) = std::mem::replace(self, Frame::Owned(Box::default())) {
            *self = Frame::Owned(Arc::try_unwrap(page).unwrap_or_else(|page| (*page).clone()));
        }
        match self {
            Frame::Owned(bytes) => bytes,
            Frame::Shared(_) => unreachable!("just taken back"),
        }
    }

    /// A reference to this frame's page. An owned frame moves its bytes
    /// into the shared page it becomes, so sharing never copies them.
    fn share(&mut self) -> SharedPage {
        if let Frame::Owned(bytes) = self {
            *self = Frame::Shared(Arc::new(std::mem::take(bytes)));
        }
        match self {
            Frame::Shared(page) => Arc::clone(page),
            Frame::Owned(_) => unreachable!("just shared"),
        }
    }
}

/// What a write puts in the bytes it covers.
#[derive(Clone, Copy)]
enum Src<'a> {
    Bytes(&'a [u8]),
    Fill(u8),
}

impl Src<'_> {
    fn write_to(self, to: &mut [u8]) {
        match self {
            Src::Bytes(from) => to.copy_from_slice(from),
            Src::Fill(byte) => to.fill(byte),
        }
    }
}

/// Byte-addressable physical memory, stored sparsely one frame at a time.
///
/// A frame is materialised on its first write, so a machine with a
/// multi-gigabyte physical address space costs only what it actually
/// uses. A write that covers a whole absent frame builds the frame from
/// the written bytes directly; any other first write starts from a
/// zero-filled frame. Either way the frame then holds exactly what a
/// zeroed frame would after that write. All multi-byte accesses are
/// little-endian, like the Alpha.
///
/// A frame may also be shared, by reference, with other memories or
/// with a transfer's payload: [`write_page`](Self::write_page) installs
/// a whole page that way, and [`copy_from`](Self::copy_from) shares a
/// whole aligned source page instead of copying it into a frame that
/// is not resident yet. The first write to a shared frame takes it
/// back, with no copy when no other holder is left, so a write never
/// shows through in another holder.
///
/// ```
/// use udma_mem::{PhysMemory, PhysAddr};
///
/// # fn main() -> Result<(), udma_mem::MemFault> {
/// let mut mem = PhysMemory::new(1 << 20);
/// mem.write_u64(PhysAddr::new(0x100), 42)?;
/// assert_eq!(mem.read_u64(PhysAddr::new(0x100))?, 42);
/// // Untouched memory reads as zero.
/// assert_eq!(mem.read_u64(PhysAddr::new(0x8000))?, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct PhysMemory {
    frames: FrameMap,
    size: u64,
    /// When `Some((line_bytes, set))`, every write marks the cache lines
    /// it covers. Coherence tests and the writeback accounting use this
    /// to ask "which lines changed since the last sync" at line grain.
    dirty: Option<(u64, BTreeSet<u64>)>,
}

impl PhysMemory {
    /// Creates a physical memory of `size` bytes (rounded up to whole
    /// pages). Accesses at or beyond `size` raise [`MemFault::BusError`].
    pub fn new(size: u64) -> Self {
        let size = size.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        PhysMemory { frames: FrameMap::default(), size, dirty: None }
    }

    /// Starts tracking writes at `line_bytes` granularity. Any lines
    /// already recorded at a different granularity are discarded.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is zero or not a power of two.
    pub fn track_lines(&mut self, line_bytes: u64) {
        assert!(line_bytes.is_power_of_two(), "dirty-line granularity must be a power of two");
        self.dirty = Some((line_bytes, BTreeSet::new()));
    }

    /// The line-base addresses written since tracking started (or since
    /// the last [`clear_dirty_lines`](Self::clear_dirty_lines)), in
    /// ascending order. Empty when tracking is off.
    pub fn dirty_lines(&self) -> Vec<u64> {
        match &self.dirty {
            Some((_, set)) => set.iter().copied().collect(),
            None => Vec::new(),
        }
    }

    /// Forgets all recorded dirty lines (tracking stays on).
    pub fn clear_dirty_lines(&mut self) {
        if let Some((_, set)) = &mut self.dirty {
            set.clear();
        }
    }

    fn mark_dirty(&mut self, pa: u64, len: u64) {
        if len == 0 {
            return;
        }
        if let Some((line_bytes, set)) = &mut self.dirty {
            let mut base = pa & !(*line_bytes - 1);
            let end = pa + len;
            while base < end {
                set.insert(base);
                base += *line_bytes;
            }
        }
    }

    /// Total installed bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Number of frames actually materialised so far.
    pub fn resident_frames(&self) -> usize {
        self.frames.len()
    }

    /// The bytes of `frame` if it has been materialised, `None` if it
    /// was never written (it reads as zeros) or lies outside memory.
    pub fn resident_frame(&self, frame: PhysFrame) -> Option<&[u8]> {
        self.frames.get(&frame.number()).map(Frame::bytes)
    }

    fn check(&self, pa: PhysAddr, len: u64) -> Result<(), MemFault> {
        let end = pa.checked_add(len).ok_or(MemFault::BusError { pa })?;
        if end.as_u64() > self.size || len == 0 && pa.as_u64() >= self.size {
            return Err(MemFault::BusError { pa });
        }
        Ok(())
    }

    fn frame_mut(&mut self, frame: u64) -> &mut [u8] {
        let zeros = || Frame::Owned(vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
        self.frames.entry(frame).or_insert_with(zeros).bytes_mut()
    }

    /// Reads `buf.len()` bytes starting at `pa`, crossing frame boundaries
    /// as needed.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] if any byte of the range is outside installed
    /// memory.
    pub fn read_bytes(&self, pa: PhysAddr, buf: &mut [u8]) -> Result<(), MemFault> {
        self.check(pa, buf.len() as u64)?;
        let mut addr = pa.as_u64();
        let mut done = 0usize;
        while done < buf.len() {
            let frame = addr >> PAGE_SHIFT;
            let off = (addr & (PAGE_SIZE - 1)) as usize;
            let chunk = ((PAGE_SIZE as usize) - off).min(buf.len() - done);
            match self.frames.get(&frame) {
                Some(data) => {
                    buf[done..done + chunk].copy_from_slice(&data.bytes()[off..off + chunk]);
                }
                None => buf[done..done + chunk].fill(0),
            }
            done += chunk;
            addr += chunk as u64;
        }
        Ok(())
    }

    /// Writes `buf` starting at `pa`, crossing frame boundaries as needed.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] if any byte of the range is outside installed
    /// memory.
    pub fn write_bytes(&mut self, pa: PhysAddr, buf: &[u8]) -> Result<(), MemFault> {
        self.check(pa, buf.len() as u64)?;
        self.mark_dirty(pa.as_u64(), buf.len() as u64);
        let mut addr = pa.as_u64();
        let mut done = 0usize;
        while done < buf.len() {
            let chunk = (room_after(addr) as usize).min(buf.len() - done);
            self.write_in_frame(addr, Src::Bytes(&buf[done..done + chunk]), chunk);
            done += chunk;
            addr += chunk as u64;
        }
        Ok(())
    }

    /// Installs `page` as the whole frame at `pa`, by reference: this
    /// memory and every other holder of `page` then share its bytes
    /// until one of them writes. Reads and dirty lines are as for a
    /// [`write_bytes`](Self::write_bytes) of the page's bytes.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] if the frame is outside installed memory.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is not page-aligned or `page` is not one page long.
    pub fn write_page(&mut self, pa: PhysAddr, page: &SharedPage) -> Result<(), MemFault> {
        assert!(pa.is_aligned_to(PAGE_SIZE), "write_page at unaligned {pa}");
        assert_eq!(page.len() as u64, PAGE_SIZE, "write_page of a partial page");
        self.check(pa, PAGE_SIZE)?;
        self.mark_dirty(pa.as_u64(), PAGE_SIZE);
        self.frames.insert(pa.as_u64() >> PAGE_SHIFT, Frame::Shared(Arc::clone(page)));
        Ok(())
    }

    /// Reads a naturally aligned little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`MemFault::Misaligned`] if `pa` is not 8-byte aligned;
    /// [`MemFault::BusError`] if outside installed memory.
    pub fn read_u64(&self, pa: PhysAddr) -> Result<u64, MemFault> {
        if !pa.is_aligned_to(8) {
            return Err(MemFault::Misaligned { addr: pa.as_u64(), size: 8 });
        }
        let mut b = [0u8; 8];
        self.read_bytes(pa, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a naturally aligned little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`MemFault::Misaligned`] if `pa` is not 8-byte aligned;
    /// [`MemFault::BusError`] if outside installed memory.
    pub fn write_u64(&mut self, pa: PhysAddr, value: u64) -> Result<(), MemFault> {
        if !pa.is_aligned_to(8) {
            return Err(MemFault::Misaligned { addr: pa.as_u64(), size: 8 });
        }
        self.write_bytes(pa, &value.to_le_bytes())
    }

    /// Copies `len` bytes from `src` to `dst` within physical memory, as
    /// the DMA data mover does. Handles overlapping ranges like
    /// `memmove`. Bytes move frame to frame with no intermediate buffer,
    /// and destination frames materialise exactly as
    /// [`write_bytes`](Self::write_bytes) would materialise them.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] if either range is outside installed memory.
    pub fn copy(&mut self, src: PhysAddr, dst: PhysAddr, len: u64) -> Result<(), MemFault> {
        self.check(src, len)?;
        self.check(dst, len)?;
        self.mark_dirty(dst.as_u64(), len);
        let (src, dst) = (src.as_u64(), dst.as_u64());
        // memmove: when the destination starts above an overlapping
        // source, walk from the end so no source byte is overwritten
        // before it is read. Each step stays inside one source and one
        // destination frame.
        let backward = dst > src && dst - src < len;
        let mut left = len;
        while left > 0 {
            let (s, d, n) = if backward {
                let n = left.min(room_before(src + left)).min(room_before(dst + left));
                (src + left - n, dst + left - n, n)
            } else {
                let done = len - left;
                let n = left.min(room_after(src + done)).min(room_after(dst + done));
                (src + done, dst + done, n)
            };
            self.copy_in_frames(s, d, n as usize);
            left -= n;
        }
        Ok(())
    }

    /// Copies `len` bytes from `src` in `other` to `dst` in this memory
    /// (a deposit from one machine's memory into another's), frame to
    /// frame with no intermediate buffer. Destination frames materialise
    /// exactly as [`write_bytes`](Self::write_bytes) would materialise
    /// them. A whole aligned page whose source frame is resident is
    /// shared between the two memories, not copied, when the destination
    /// frame is not resident yet. A resident destination frame is
    /// overwritten in place, so a destination that receives again and
    /// again costs one copy per deposit, as it would without sharing.
    /// Sharing is the only change to `other`, whose bytes stay as they
    /// were.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] if the source range is outside `other` or
    /// the destination range is outside this memory; nothing is written.
    pub fn copy_from(
        &mut self,
        dst: PhysAddr,
        other: &mut PhysMemory,
        src: PhysAddr,
        len: u64,
    ) -> Result<(), MemFault> {
        other.check(src, len)?;
        self.check(dst, len)?;
        self.mark_dirty(dst.as_u64(), len);
        let (src, dst) = (src.as_u64(), dst.as_u64());
        let mut done = 0;
        while done < len {
            let (s, d) = (src + done, dst + done);
            let n = (len - done).min(room_after(s)).min(room_after(d));
            match other.frames.get_mut(&(s >> PAGE_SHIFT)) {
                Some(from) if n == PAGE_SIZE && !self.frames.contains_key(&(d >> PAGE_SHIFT)) => {
                    self.frames.insert(d >> PAGE_SHIFT, Frame::Shared(from.share()));
                }
                Some(from) => {
                    let from = &from.bytes()[offset(s)..][..n as usize];
                    self.write_in_frame(d, Src::Bytes(from), n as usize);
                }
                None => self.write_in_frame(d, Src::Fill(0), n as usize),
            }
            done += n;
        }
        Ok(())
    }

    /// Copies `n` bytes from `src` to `dst`, both ranges inside a single
    /// frame each (possibly the same frame, possibly overlapping).
    fn copy_in_frames(&mut self, src: u64, dst: u64, n: usize) {
        let (sf, df) = (src >> PAGE_SHIFT, dst >> PAGE_SHIFT);
        let (so, dof) = (offset(src), offset(dst));
        if sf == df {
            let frame = self.frame_mut(df);
            frame.copy_within(so..so + n, dof);
        } else if self.frames.contains_key(&df) {
            match self.frames.get_disjoint_mut([&sf, &df]) {
                [Some(from), Some(to)] => {
                    to.bytes_mut()[dof..dof + n].copy_from_slice(&from.bytes()[so..so + n]);
                }
                [None, Some(to)] => to.bytes_mut()[dof..dof + n].fill(0),
                _ => unreachable!("destination frame checked present"),
            }
        } else {
            // Borrow the source only while building the new frame, then
            // insert it: an absent destination cannot alias the source.
            let from = match self.frames.get(&sf) {
                Some(f) => Src::Bytes(&f.bytes()[so..so + n]),
                None => Src::Fill(0),
            };
            let frame = new_frame(dof, from, n);
            self.frames.insert(df, frame);
        }
    }

    /// Writes `n` bytes of `from` at `dst`, inside one frame,
    /// materialising it if needed and taking it back if it is shared.
    /// Every write to memory lands through here or through
    /// [`copy_in_frames`](Self::copy_in_frames), which materialises
    /// frames the same way, or installs a whole shared page.
    fn write_in_frame(&mut self, dst: u64, from: Src<'_>, n: usize) {
        let off = offset(dst);
        match self.frames.entry(dst >> PAGE_SHIFT) {
            Entry::Occupied(frame) => {
                from.write_to(&mut frame.into_mut().bytes_mut()[off..off + n]);
            }
            Entry::Vacant(slot) => {
                slot.insert(new_frame(off, from, n));
            }
        }
    }

    /// Fills `len` bytes at `pa` with `byte`, frame by frame.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] if the range is outside installed memory.
    pub fn fill(&mut self, pa: PhysAddr, len: u64, byte: u8) -> Result<(), MemFault> {
        self.check(pa, len)?;
        self.mark_dirty(pa.as_u64(), len);
        let mut addr = pa.as_u64();
        let end = addr + len;
        while addr < end {
            let chunk = room_after(addr).min(end - addr);
            self.write_in_frame(addr, Src::Fill(byte), chunk as usize);
            addr += chunk;
        }
        Ok(())
    }
}

/// Offset of `pa` within its frame.
fn offset(pa: u64) -> usize {
    (pa & (PAGE_SIZE - 1)) as usize
}

/// Bytes from `pa` to the end of its frame.
fn room_after(pa: u64) -> u64 {
    PAGE_SIZE - offset(pa) as u64
}

/// Bytes from the start of the frame holding `end - 1` up to `end`.
fn room_before(end: u64) -> u64 {
    ((end - 1) & (PAGE_SIZE - 1)) + 1
}

/// A frame materialised by its first write: `n` bytes of `from` at
/// `off`, zero elsewhere. A whole-frame write is built from its bytes
/// directly, with no zero-fill first.
fn new_frame(off: usize, from: Src<'_>, n: usize) -> Frame {
    Frame::Owned(match from {
        Src::Bytes(from) if n == PAGE_SIZE as usize => from.into(),
        _ => {
            let mut frame = vec![0u8; PAGE_SIZE as usize].into_boxed_slice();
            from.write_to(&mut frame[off..off + n]);
            frame
        }
    })
}

/// A bump-plus-free-list allocator of physical page frames.
///
/// The model kernel uses this to back user mappings and shadow windows.
#[derive(Clone, Debug)]
pub struct FrameAllocator {
    next: u64,
    limit: u64,
    free: Vec<PhysFrame>,
}

impl FrameAllocator {
    /// Creates an allocator over `[0, size)` bytes of physical memory.
    pub fn new(size: u64) -> Self {
        FrameAllocator { next: 0, limit: size >> PAGE_SHIFT, free: Vec::new() }
    }

    /// Creates an allocator over frames `[base_frame, base_frame + count)`.
    pub fn with_range(base_frame: u64, count: u64) -> Self {
        FrameAllocator { next: base_frame, limit: base_frame + count, free: Vec::new() }
    }

    /// Allocates a frame, reusing freed frames first. Returns `None` when
    /// physical memory is exhausted.
    pub fn alloc(&mut self) -> Option<PhysFrame> {
        if let Some(f) = self.free.pop() {
            return Some(f);
        }
        if self.next < self.limit {
            let f = PhysFrame::new(self.next);
            self.next += 1;
            Some(f)
        } else {
            None
        }
    }

    /// Returns a frame to the allocator.
    pub fn free(&mut self, frame: PhysFrame) {
        debug_assert!(frame.number() < self.limit);
        self.free.push(frame);
    }

    /// Number of frames still available.
    pub fn available(&self) -> u64 {
        (self.limit - self.next) + self.free.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_on_first_touch() {
        let mem = PhysMemory::new(1 << 20);
        let mut buf = [0xFFu8; 16];
        mem.read_bytes(PhysAddr::new(0x4000), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(mem.resident_frames(), 0);
    }

    #[test]
    fn read_write_round_trip_across_frame_boundary() {
        let mut mem = PhysMemory::new(1 << 20);
        let pa = PhysAddr::new(PAGE_SIZE - 4);
        let data: Vec<u8> = (0..32).collect();
        mem.write_bytes(pa, &data).unwrap();
        let mut back = vec![0u8; 32];
        mem.read_bytes(pa, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(mem.resident_frames(), 2);
        let first = mem.resident_frame(PhysFrame::new(0)).expect("written frame is resident");
        assert_eq!(first[PAGE_SIZE as usize - 4..], data[..4]);
        assert!(mem.resident_frame(PhysFrame::new(2)).is_none());
    }

    #[test]
    fn whole_frame_writes_materialise_the_written_bytes() {
        let mut mem = PhysMemory::new(4 * PAGE_SIZE);
        mem.track_lines(64);
        let page: Vec<u8> = (0..PAGE_SIZE).map(|i| (i * 7 + 1) as u8).collect();
        mem.write_bytes(PhysFrame::new(2).base(), &page).unwrap();
        assert_eq!(mem.resident_frames(), 1);
        assert_eq!(mem.resident_frame(PhysFrame::new(2)), Some(&page[..]));
        assert_eq!(mem.dirty_lines().len() as u64, PAGE_SIZE / 64);
        // Over a present frame, the whole frame is replaced in place.
        mem.write_u64(PhysFrame::new(1).base() + 8, 5).unwrap();
        let twice: Vec<u8> = page.iter().chain(&page).map(|b| b ^ 0xFF).collect();
        mem.write_bytes(PhysFrame::new(1).base(), &twice).unwrap();
        assert_eq!(mem.resident_frames(), 2);
        assert_eq!(mem.resident_frame(PhysFrame::new(1)), Some(&twice[..PAGE_SIZE as usize]));
        assert_eq!(mem.resident_frame(PhysFrame::new(2)), Some(&twice[PAGE_SIZE as usize..]));
    }

    #[test]
    fn a_shared_frame_is_copied_on_write_only_while_another_holder_is_left() {
        let frame = |n: u64| PhysFrame::new(n);
        let page: SharedPage = Arc::new(vec![7u8; PAGE_SIZE as usize].into_boxed_slice());
        let mut a = PhysMemory::new(4 * PAGE_SIZE);
        a.track_lines(64);
        a.write_page(frame(1).base(), &page).unwrap();
        assert_eq!(a.resident_frame(frame(1)).unwrap().as_ptr(), page.as_ptr());
        assert_eq!(a.dirty_lines().len() as u64, PAGE_SIZE / 64);
        // `page` is still held here, so the write copies the frame.
        a.write_u64(frame(1).base(), 1).unwrap();
        assert_ne!(a.resident_frame(frame(1)).unwrap().as_ptr(), page.as_ptr());
        assert_eq!(page[..8], [7; 8]);
        assert_eq!(a.read_u64(frame(1).base()).unwrap(), 1);

        // A whole-page copy within one memory copies the bytes; a
        // whole-page deposit into another memory's absent frame shares
        // them, and one into a resident frame overwrites it in place.
        let owned = a.resident_frame(frame(1)).unwrap().as_ptr();
        a.copy(frame(1).base(), frame(3).base(), PAGE_SIZE).unwrap();
        assert_ne!(a.resident_frame(frame(3)).unwrap().as_ptr(), owned);
        let mut b = PhysMemory::new(4 * PAGE_SIZE);
        b.write_u64(frame(3).base(), 9).unwrap();
        let kept = b.resident_frame(frame(3)).unwrap().as_ptr();
        b.copy_from(frame(2).base(), &mut a, frame(1).base(), PAGE_SIZE).unwrap();
        b.copy_from(frame(3).base(), &mut a, frame(1).base(), PAGE_SIZE).unwrap();
        assert_eq!(a.resident_frame(frame(1)).unwrap().as_ptr(), owned, "sharing moved the bytes");
        assert_eq!(b.resident_frame(frame(2)).unwrap().as_ptr(), owned);
        assert_eq!(b.resident_frame(frame(3)).unwrap().as_ptr(), kept);
        assert_eq!(b.read_u64(frame(3).base()).unwrap(), 1);
        // Once the other holders are gone, the last one writes in place.
        drop(a);
        b.write_u64(frame(2).base() + 8, 3).unwrap();
        assert_eq!(b.resident_frame(frame(2)).unwrap().as_ptr(), owned);
        assert_eq!(b.read_u64(frame(2).base()).unwrap(), 1);
        assert_eq!(b.read_u64(frame(2).base() + 8).unwrap(), 3);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn write_page_needs_an_aligned_frame() {
        let page: SharedPage = Arc::new(vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
        let _ = PhysMemory::new(4 * PAGE_SIZE).write_page(PhysAddr::new(8), &page);
    }

    #[test]
    fn a_huge_memory_stays_sparse() {
        let size = 1u64 << 43;
        let mut mem = PhysMemory::new(size);
        let top = PhysAddr::new(size - PAGE_SIZE);
        for (i, pa) in [PhysAddr::new(0), PhysAddr::new(size / 2 + 3), top].into_iter().enumerate()
        {
            mem.write_u64(PhysAddr::new(pa.as_u64() & !7), i as u64 + 1).unwrap();
        }
        mem.write_bytes(top, &[0xAB; PAGE_SIZE as usize]).unwrap();
        assert_eq!(mem.resident_frames(), 3);
        assert_eq!(mem.read_u64(PhysAddr::new(size / 2)).unwrap(), 2);
        assert_eq!(mem.read_u64(top).unwrap(), u64::from_le_bytes([0xAB; 8]));
    }

    #[test]
    fn u64_alignment_enforced() {
        let mut mem = PhysMemory::new(1 << 20);
        assert_eq!(
            mem.write_u64(PhysAddr::new(0x101), 1),
            Err(MemFault::Misaligned { addr: 0x101, size: 8 })
        );
        assert_eq!(
            mem.read_u64(PhysAddr::new(0x104)),
            Err(MemFault::Misaligned { addr: 0x104, size: 8 })
        );
    }

    #[test]
    fn u64_little_endian() {
        let mut mem = PhysMemory::new(1 << 20);
        mem.write_u64(PhysAddr::new(0x200), 0x0102_0304_0506_0708).unwrap();
        let mut b = [0u8; 8];
        mem.read_bytes(PhysAddr::new(0x200), &mut b).unwrap();
        assert_eq!(b, [8, 7, 6, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn out_of_range_is_bus_error() {
        let mut mem = PhysMemory::new(PAGE_SIZE);
        let pa = PhysAddr::new(PAGE_SIZE);
        assert!(matches!(mem.read_u64(pa), Err(MemFault::BusError { .. })));
        let pa = PhysAddr::new(PAGE_SIZE - 4);
        assert!(matches!(mem.write_bytes(pa, &[0u8; 8]), Err(MemFault::BusError { .. })));
    }

    #[test]
    fn overflowing_range_is_bus_error() {
        let mem = PhysMemory::new(PAGE_SIZE);
        let mut buf = [0u8; 4];
        assert!(matches!(
            mem.read_bytes(PhysAddr::new(u64::MAX - 1), &mut buf),
            Err(MemFault::BusError { .. })
        ));
    }

    #[test]
    fn copy_moves_data() {
        let mut mem = PhysMemory::new(1 << 20);
        let data: Vec<u8> = (0..100).collect();
        mem.write_bytes(PhysAddr::new(0x1000), &data).unwrap();
        mem.copy(PhysAddr::new(0x1000), PhysAddr::new(0x9000), 100).unwrap();
        let mut back = vec![0u8; 100];
        mem.read_bytes(PhysAddr::new(0x9000), &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn copy_overlapping_is_memmove() {
        let mut mem = PhysMemory::new(1 << 20);
        let data: Vec<u8> = (0..64).collect();
        mem.write_bytes(PhysAddr::new(0x1000), &data).unwrap();
        mem.copy(PhysAddr::new(0x1000), PhysAddr::new(0x1010), 64).unwrap();
        let mut back = vec![0u8; 64];
        mem.read_bytes(PhysAddr::new(0x1010), &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn fill_sets_bytes() {
        let mut mem = PhysMemory::new(1 << 20);
        mem.fill(PhysAddr::new(0x2000), 16, 0xAB).unwrap();
        let mut b = [0u8; 16];
        mem.read_bytes(PhysAddr::new(0x2000), &mut b).unwrap();
        assert_eq!(b, [0xAB; 16]);
    }

    #[test]
    fn size_rounds_up_to_pages() {
        let mem = PhysMemory::new(1);
        assert_eq!(mem.size(), PAGE_SIZE);
    }

    #[test]
    fn allocator_unique_frames_and_reuse() {
        let mut a = FrameAllocator::new(4 * PAGE_SIZE);
        let f0 = a.alloc().unwrap();
        let f1 = a.alloc().unwrap();
        assert_ne!(f0, f1);
        assert_eq!(a.available(), 2);
        a.free(f0);
        assert_eq!(a.available(), 3);
        assert_eq!(a.alloc().unwrap(), f0);
        let _ = a.alloc().unwrap();
        let _ = a.alloc().unwrap();
        assert_eq!(a.alloc(), None);
    }

    #[test]
    fn dirty_line_tracking_marks_written_lines() {
        let mut mem = PhysMemory::new(1 << 20);
        assert!(mem.dirty_lines().is_empty(), "tracking off by default");
        mem.track_lines(32);
        mem.write_u64(PhysAddr::new(0x108), 1).unwrap();
        assert_eq!(mem.dirty_lines(), vec![0x100]);
        // A write spanning two lines marks both; copy/fill funnel
        // through write_bytes and are tracked too.
        mem.write_bytes(PhysAddr::new(0x13C), &[1u8; 8]).unwrap();
        assert_eq!(mem.dirty_lines(), vec![0x100, 0x120, 0x140]);
        mem.clear_dirty_lines();
        assert!(mem.dirty_lines().is_empty());
        mem.fill(PhysAddr::new(0x200), 64, 0xEE).unwrap();
        assert_eq!(mem.dirty_lines(), vec![0x200, 0x220]);
        mem.copy(PhysAddr::new(0x200), PhysAddr::new(0x400), 32).unwrap();
        assert_eq!(mem.dirty_lines(), vec![0x200, 0x220, 0x400]);
        // Reads never mark.
        let mut b = [0u8; 8];
        mem.read_bytes(PhysAddr::new(0x800), &mut b).unwrap();
        assert_eq!(mem.dirty_lines(), vec![0x200, 0x220, 0x400]);
    }

    #[test]
    fn failed_write_marks_nothing() {
        let mut mem = PhysMemory::new(PAGE_SIZE);
        mem.track_lines(32);
        assert!(mem.write_bytes(PhysAddr::new(PAGE_SIZE - 4), &[0u8; 8]).is_err());
        assert!(mem.dirty_lines().is_empty());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_tracking_granularity_panics() {
        let mut mem = PhysMemory::new(PAGE_SIZE);
        mem.track_lines(24);
    }

    #[test]
    fn allocator_with_range() {
        let mut a = FrameAllocator::with_range(100, 2);
        assert_eq!(a.alloc().unwrap().number(), 100);
        assert_eq!(a.alloc().unwrap().number(), 101);
        assert_eq!(a.alloc(), None);
    }
}
