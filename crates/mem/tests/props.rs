//! Property-based tests for the memory substrate.

use std::collections::BTreeSet;
use std::sync::Arc;
use udma_testkit::prop::{any, vec, CaseResult};
use udma_testkit::rng::TestRng;
use udma_testkit::{prop_assert, prop_assert_eq, props};

use udma_mem::{
    Access, FrameAllocator, MemFault, PageTable, Perms, PhysAddr, PhysFrame, PhysMemory,
    ShadowLayout, SharedPage, VirtAddr, VirtPage, PAGE_SIZE,
};

/// A flat reference model of [`PhysMemory`]: every byte, the frames a
/// write has touched, and the dirty lines a write has marked.
struct FlatMemory {
    bytes: Vec<u8>,
    resident: BTreeSet<u64>,
    line: u64,
    dirty: BTreeSet<u64>,
}

impl FlatMemory {
    fn write(&mut self, pa: u64, data: &[u8]) -> bool {
        let end = pa + data.len() as u64;
        if end > self.bytes.len() as u64 {
            return false;
        }
        self.bytes[pa as usize..end as usize].copy_from_slice(data);
        if !data.is_empty() {
            self.resident.extend(pa / PAGE_SIZE..=(end - 1) / PAGE_SIZE);
            self.dirty.extend((pa / self.line..=(end - 1) / self.line).map(|l| l * self.line));
        }
        true
    }

    /// `memmove` semantics: snapshot the source, then write it.
    fn copy(&mut self, src: u64, dst: u64, len: u64) -> bool {
        if src + len > self.bytes.len() as u64 {
            return false;
        }
        let data = self.bytes[src as usize..(src + len) as usize].to_vec();
        self.write(dst, &data)
    }

    fn new(frames: u64, line: u64) -> Self {
        FlatMemory {
            bytes: vec![0; (frames * PAGE_SIZE) as usize],
            resident: BTreeSet::new(),
            line,
            dirty: BTreeSet::new(),
        }
    }
}

/// `mem` holds the model's bytes, exactly the model's resident frames
/// (with the model's contents), and the model's dirty lines.
fn matches_model(mem: &PhysMemory, model: &FlatMemory) -> CaseResult {
    let mut image = vec![0u8; model.bytes.len()];
    mem.read_bytes(PhysAddr::new(0), &mut image).unwrap();
    prop_assert!(image == model.bytes, "flat images differ");
    prop_assert_eq!(mem.resident_frames(), model.resident.len());
    for f in 0..model.bytes.len() as u64 / PAGE_SIZE {
        let want = &model.bytes[(f * PAGE_SIZE) as usize..((f + 1) * PAGE_SIZE) as usize];
        match mem.resident_frame(PhysFrame::new(f)) {
            Some(got) => {
                prop_assert!(model.resident.contains(&f), "frame {f} resident but never written");
                prop_assert!(got == want, "frame {f} contents differ");
            }
            None => prop_assert!(!model.resident.contains(&f), "written frame {f} absent"),
        }
    }
    prop_assert_eq!(mem.dirty_lines(), model.dirty.iter().copied().collect::<Vec<_>>());
    Ok(())
}

/// A random `copy` case over `frames` frames: forward or backward
/// overlap, inside one frame, straddling frame boundaries, several
/// pages, or touching a frame no write has materialised yet. Some
/// ranges run past the end on purpose.
fn copy_case(rng: &mut TestRng, frames: u64, resident: &BTreeSet<u64>) -> (u64, u64, u64) {
    let size = frames * PAGE_SIZE;
    let any_len = |rng: &mut TestRng| rng.gen_range(1..2 * PAGE_SIZE);
    match rng.gen_index(6) {
        // Destination below an overlapping source.
        0 => {
            let len = any_len(rng);
            let src = rng.gen_range(1..size);
            (src, src - rng.gen_range(1..len.min(src) + 1), len)
        }
        // Destination at or above an overlapping source.
        1 => {
            let len = any_len(rng);
            let src = rng.gen_range(0..size);
            (src, src + rng.gen_range(1..len + 1) - 1, len)
        }
        // Both ranges in one frame.
        2 => {
            let base = rng.gen_range(0..frames) * PAGE_SIZE;
            let (a, b) = (rng.gen_range(0..PAGE_SIZE), rng.gen_range(0..PAGE_SIZE));
            let len = rng.gen_range(1..PAGE_SIZE - a.max(b) + 1);
            (base + a, base + b, len)
        }
        // Both ranges straddle a frame boundary, at different offsets.
        3 => {
            let (sf, df) = (rng.gen_range(1..frames), rng.gen_range(1..frames));
            let (a, b) = (rng.gen_range(1..PAGE_SIZE), rng.gen_range(1..PAGE_SIZE));
            let len = a.max(b) + rng.gen_range(1..PAGE_SIZE);
            (sf * PAGE_SIZE - a, df * PAGE_SIZE - b, len)
        }
        // Several pages.
        4 => {
            let len = rng.gen_range(1..frames / 2) * PAGE_SIZE + rng.gen_range(0..PAGE_SIZE);
            (rng.gen_range(0..size), rng.gen_range(0..size), len)
        }
        // A never-written source or destination frame, when one is left.
        _ => {
            let absent: Vec<u64> = (0..frames).filter(|f| !resident.contains(f)).collect();
            let pick = |rng: &mut TestRng| match absent.len() {
                0 => rng.gen_range(0..size),
                n => absent[rng.gen_index(n)] * PAGE_SIZE + rng.gen_range(0..PAGE_SIZE),
            };
            let len = any_len(rng);
            if rng.gen_bool(0.5) {
                (pick(rng), rng.gen_range(0..size), len)
            } else {
                (rng.gen_range(0..size), pick(rng), len)
            }
        }
    }
}

props! {
    /// shadow ∘ decode is the identity on (paddr, ctx) for every layout.
    fn shadow_round_trip(
        shadow_bit in 20u32..60,
        ctx_bits in 0u32..3,
        pa_raw in 0u64..(1 << 19),
        ctx in 0u32..8,
    ) {
        let ctx_shift = shadow_bit - ctx_bits;
        let layout = ShadowLayout::new(shadow_bit, ctx_shift, ctx_bits);
        let pa = PhysAddr::new(pa_raw);
        if pa_raw >= layout.plain_limit() {
            prop_assert!(layout.shadow_paddr_ctx(pa, ctx.min(layout.num_contexts() - 1)).is_none());
        } else if ctx < layout.num_contexts() {
            let s = layout.shadow_paddr_ctx(pa, ctx).unwrap();
            prop_assert!(layout.is_shadow(s));
            prop_assert_eq!(layout.decode(s), Some((pa, ctx)));
        } else {
            prop_assert!(layout.shadow_paddr_ctx(pa, ctx).is_none());
        }
    }

    /// Distinct (paddr, ctx) pairs produce distinct shadow addresses.
    fn shadow_is_injective(
        a in 0u64..(1 << 16),
        b in 0u64..(1 << 16),
        ca in 0u32..4,
        cb in 0u32..4,
    ) {
        let layout = ShadowLayout::default();
        let sa = layout.shadow_paddr_ctx(PhysAddr::new(a * 8), ca).unwrap();
        let sb = layout.shadow_paddr_ctx(PhysAddr::new(b * 8), cb).unwrap();
        prop_assert_eq!(sa == sb, a == b && ca == cb);
    }

    /// What you write is what you read back, for arbitrary ranges that may
    /// cross frame boundaries.
    fn phys_memory_write_read_round_trip(
        start in 0u64..(4 * PAGE_SIZE),
        data in vec(any::<u8>(), 1..512),
    ) {
        let mut mem = PhysMemory::new(8 * PAGE_SIZE);
        let pa = PhysAddr::new(start);
        mem.write_bytes(pa, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        mem.read_bytes(pa, &mut back).unwrap();
        prop_assert_eq!(back, data);
    }

    /// Writes to one range never disturb a disjoint range.
    fn phys_memory_writes_are_local(
        a_start in 0u64..PAGE_SIZE,
        a_data in vec(any::<u8>(), 1..128),
        b_off in 0u64..PAGE_SIZE,
        b_data in vec(any::<u8>(), 1..128),
    ) {
        let mut mem = PhysMemory::new(16 * PAGE_SIZE);
        let a = PhysAddr::new(a_start);
        // Place b in a region guaranteed disjoint from a.
        let b = PhysAddr::new(8 * PAGE_SIZE + b_off);
        mem.write_bytes(a, &a_data).unwrap();
        mem.write_bytes(b, &b_data).unwrap();
        let mut back = vec![0u8; a_data.len()];
        mem.read_bytes(a, &mut back).unwrap();
        prop_assert_eq!(back, a_data);
    }

    /// Differential check against a flat image: random writes that cover
    /// whole frames (absent or present), straddle frames or touch part
    /// of one, aligned `u64` stores, in-memory copies (see [`copy_case`]),
    /// failing writes and copies past the end and reads all leave the
    /// same bytes, the same resident frames and the same dirty lines as
    /// the model.
    fn phys_memory_matches_a_flat_image(
        seed in any::<u64>(),
        ops in 1usize..48,
        line_shift in 5u32..8,
    ) {
        const FRAMES: u64 = 6;
        let size = FRAMES * PAGE_SIZE;
        let line = 1u64 << line_shift;
        let mut mem = PhysMemory::new(size);
        mem.track_lines(line);
        let mut model = FlatMemory::new(FRAMES, line);
        let mut rng = TestRng::seed_from_u64(seed);
        for _ in 0..ops {
            let frame = rng.gen_range(0..FRAMES);
            let (pa, len) = match rng.gen_index(8) {
                // Whole frames, one to three of them.
                0 => (frame * PAGE_SIZE, rng.gen_range(1..4) * PAGE_SIZE),
                // A partial head, a whole frame, a partial tail.
                1 => {
                    let head = rng.gen_range(1..PAGE_SIZE);
                    (frame * PAGE_SIZE + head, PAGE_SIZE - head + PAGE_SIZE + rng.gen_range(1..PAGE_SIZE))
                }
                // Part of one frame, or a short run across a boundary.
                2 => (rng.gen_range(0..size), rng.gen_range(1..2 * PAGE_SIZE)),
                3 => {
                    let pa = rng.gen_range(0..size / 8) * 8;
                    let value = rng.next_u64();
                    mem.write_u64(PhysAddr::new(pa), value).unwrap();
                    model.write(pa, &value.to_le_bytes());
                    continue;
                }
                4 => {
                    let pa = rng.gen_range(0..size);
                    let mut got = vec![0u8; rng.gen_range(1..size - pa + 1) as usize];
                    mem.read_bytes(PhysAddr::new(pa), &mut got).unwrap();
                    prop_assert_eq!(&got[..], &model.bytes[pa as usize..pa as usize + got.len()]);
                    continue;
                }
                5 | 6 => {
                    let (src, dst, len) = copy_case(&mut rng, FRAMES, &model.resident);
                    let ok = model.copy(src, dst, len);
                    let got = mem.copy(PhysAddr::new(src), PhysAddr::new(dst), len);
                    prop_assert_eq!(got.is_ok(), ok, "copy {src:#x} -> {dst:#x}, {len} bytes");
                    continue;
                }
                _ => {
                    mem.clear_dirty_lines();
                    model.dirty.clear();
                    continue;
                }
            };
            let salt = rng.next_u64() as u8;
            let data: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31) ^ salt).collect();
            let ok = model.write(pa, &data);
            prop_assert_eq!(mem.write_bytes(PhysAddr::new(pa), &data).is_ok(), ok);
        }
        matches_model(&mem, &model)?;
    }

    /// `copy_from` between two memories of different sizes, in both
    /// directions, against two flat models: each deposit lands exactly
    /// as a write of the source bytes would, the source memory is never
    /// touched, and a range past either end fails and changes nothing.
    fn copy_from_matches_two_flat_images(
        seed in any::<u64>(),
        ops in 1usize..32,
        line_shift in 5u32..8,
    ) {
        const FRAMES: [u64; 2] = [4, 7];
        let line = 1u64 << line_shift;
        let mut mems = FRAMES.map(|f| PhysMemory::new(f * PAGE_SIZE));
        let mut models = FRAMES.map(|f| FlatMemory::new(f, line));
        for mem in &mut mems {
            mem.track_lines(line);
        }
        let mut rng = TestRng::seed_from_u64(seed);
        for _ in 0..ops {
            let to = rng.gen_index(2);
            let from = 1 - to;
            if rng.gen_index(3) == 0 {
                // Seed some source bytes, part of a frame or several.
                let pa = rng.gen_range(0..FRAMES[from] * PAGE_SIZE);
                let len = rng.gen_range(1..FRAMES[from] * PAGE_SIZE - pa + 1);
                let data: Vec<u8> = (0..len).map(|i| (i as u8) ^ (pa as u8)).collect();
                prop_assert!(models[from].write(pa, &data));
                mems[from].write_bytes(PhysAddr::new(pa), &data).unwrap();
                continue;
            }
            // Draw the ranges over the larger memory so some run past the
            // end of the smaller one.
            let (src, dst, len) = copy_case(&mut rng, FRAMES[1], &models[from].resident);
            let src_size = models[from].bytes.len() as u64;
            let ok = src + len <= src_size && {
                let data = models[from].bytes[src as usize..(src + len) as usize].to_vec();
                models[to].write(dst, &data)
            };
            let [a, b] = &mut mems;
            let (dst_mem, src_mem) = if to == 0 { (a, b) } else { (b, a) };
            let got = dst_mem.copy_from(PhysAddr::new(dst), src_mem, PhysAddr::new(src), len);
            prop_assert_eq!(got.is_ok(), ok, "copy_from {src:#x} -> {dst:#x}, {len} bytes");
        }
        for (mem, model) in mems.iter().zip(&models) {
            matches_model(mem, model)?;
        }
    }

    /// Copy-on-write isolation: three memories share pages through
    /// `write_page` and whole-page `copy_from` deposits, and take random
    /// writes, fills and copies (into and out of shared frames) in
    /// between.
    /// Each memory must match its own flat model, and every page handed
    /// to `write_page` must still hold what it was built with: a write
    /// to a shared frame never shows through in another holder.
    fn shared_frames_never_leak_writes(
        seed in any::<u64>(),
        ops in 1usize..64,
    ) {
        const FRAMES: u64 = 4;
        const LINE: u64 = 64;
        let size = FRAMES * PAGE_SIZE;
        let mut mems = [(); 3].map(|_| PhysMemory::new(size));
        let mut models = [(); 3].map(|_| FlatMemory::new(FRAMES, LINE));
        for mem in &mut mems {
            mem.track_lines(LINE);
        }
        let mut pages: Vec<(SharedPage, Vec<u8>)> = Vec::new();
        let mut rng = TestRng::seed_from_u64(seed);
        for _ in 0..ops {
            let i = rng.gen_index(3);
            let frame = rng.gen_range(0..FRAMES) * PAGE_SIZE;
            match rng.gen_index(7) {
                // Install a page by reference: a fresh one, or one
                // already installed somewhere.
                0 => {
                    let page = match pages.len() {
                        n if n > 0 && rng.gen_bool(0.5) => Arc::clone(&pages[rng.gen_index(n)].0),
                        _ => {
                            let salt = rng.next_u64() as u8;
                            let bytes: Vec<u8> =
                                (0..PAGE_SIZE).map(|b| (b as u8).wrapping_mul(13) ^ salt).collect();
                            let page: SharedPage = Arc::new(bytes.clone().into_boxed_slice());
                            pages.push((Arc::clone(&page), bytes));
                            page
                        }
                    };
                    prop_assert!(models[i].write(frame, &page));
                    mems[i].write_page(PhysAddr::new(frame), &page).unwrap();
                }
                // A deposit from another memory: whole aligned pages
                // (shared into an absent destination frame) or any range
                // (copied).
                1 | 2 => {
                    let j = (i + 1 + rng.gen_index(2)) % 3;
                    let (src, dst, len) = if rng.gen_bool(0.7) {
                        let pages = rng.gen_range(1..3);
                        let pick = |rng: &mut TestRng| rng.gen_range(0..FRAMES - pages + 1) * PAGE_SIZE;
                        (pick(&mut rng), pick(&mut rng), pages * PAGE_SIZE)
                    } else {
                        copy_case(&mut rng, FRAMES, &models[j].resident)
                    };
                    let ok = src + len <= size && {
                        let data = models[j].bytes[src as usize..(src + len) as usize].to_vec();
                        models[i].write(dst, &data)
                    };
                    let [to, from] = mems.get_disjoint_mut([i, j]).unwrap();
                    let got = to.copy_from(PhysAddr::new(dst), from, PhysAddr::new(src), len);
                    prop_assert_eq!(got.is_ok(), ok, "copy_from {src:#x} -> {dst:#x}, {len} bytes");
                }
                // A copy within one memory: whole aligned pages or any range.
                3 => {
                    let (src, dst, len) = if rng.gen_bool(0.6) {
                        let to = rng.gen_range(0..FRAMES) * PAGE_SIZE;
                        (frame, to, PAGE_SIZE)
                    } else {
                        copy_case(&mut rng, FRAMES, &models[i].resident)
                    };
                    let ok = models[i].copy(src, dst, len);
                    let got = mems[i].copy(PhysAddr::new(src), PhysAddr::new(dst), len);
                    prop_assert_eq!(got.is_ok(), ok, "copy {src:#x} -> {dst:#x}, {len} bytes");
                }
                // A write, a fill or a store anywhere.
                4 => {
                    let pa = rng.gen_range(0..size);
                    let len = rng.gen_range(1..size - pa + 1).min(2 * PAGE_SIZE);
                    let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                    prop_assert!(models[i].write(pa, &data));
                    mems[i].write_bytes(PhysAddr::new(pa), &data).unwrap();
                }
                5 => {
                    let pa = rng.gen_range(0..size);
                    let len = rng.gen_range(1..size - pa + 1);
                    let byte = rng.next_u64() as u8;
                    prop_assert!(models[i].write(pa, &vec![byte; len as usize]));
                    mems[i].fill(PhysAddr::new(pa), len, byte).unwrap();
                }
                _ => {
                    let pa = rng.gen_range(0..size / 8) * 8;
                    let value = rng.next_u64();
                    prop_assert!(models[i].write(pa, &value.to_le_bytes()));
                    mems[i].write_u64(PhysAddr::new(pa), value).unwrap();
                }
            }
        }
        for (mem, model) in mems.iter().zip(&models) {
            matches_model(mem, model)?;
        }
        for (page, built) in &pages {
            prop_assert!(page[..] == built[..], "a write reached a page held outside");
        }
    }

    /// Translation preserves the page offset and respects permissions.
    fn page_table_translate_properties(
        page in 0u64..64,
        offset in 0u64..PAGE_SIZE,
        readable in any::<bool>(),
        writable in any::<bool>(),
    ) {
        let mut pt = PageTable::new();
        let mut perms = Perms::NONE;
        if readable { perms |= Perms::READ; }
        if writable { perms |= Perms::WRITE; }
        let mut alloc = FrameAllocator::with_range(1000, 4096);
        let frame = alloc.alloc().unwrap();
        pt.map(VirtPage::new(page), frame, perms).unwrap();

        let va = VirtAddr::new(page * PAGE_SIZE + offset);
        for (access, allowed) in [(Access::Read, readable), (Access::Write, writable)] {
            match pt.translate(va, access) {
                Ok(pa) => {
                    prop_assert!(allowed);
                    prop_assert_eq!(pa.page_offset(), offset);
                    prop_assert_eq!(pa.page(), frame);
                }
                Err(MemFault::Protection { .. }) => prop_assert!(!allowed),
                Err(other) => prop_assert!(false, "unexpected fault {other:?}"),
            }
        }
    }

    /// Evictions are exactly the fills that exceeded capacity: after
    /// touching `pages` distinct pages through a cold TLB of `cap`
    /// entries, `evictions == misses - len` and the TLB never overfills.
    fn tlb_evictions_account_for_capacity(
        cap in 1usize..8,
        pages in 1u64..32,
    ) {
        let mut pt = PageTable::new();
        let mut alloc = FrameAllocator::with_range(1, 4096);
        for p in 0..pages {
            pt.map(VirtPage::new(p), alloc.alloc().unwrap(), Perms::READ).unwrap();
        }
        let mut tlb = udma_mem::Tlb::new(cap);
        for p in 0..pages {
            tlb.translate(&pt, VirtPage::new(p).base(), Access::Read).unwrap();
        }
        let stats = tlb.stats();
        prop_assert_eq!(stats.misses, pages);
        prop_assert!(tlb.len() <= cap);
        prop_assert_eq!(stats.evictions, pages.saturating_sub(cap as u64));
        prop_assert_eq!(stats.evictions, stats.misses - tlb.len() as u64);
    }

    /// The frame allocator never hands out the same frame twice while it
    /// is live, and never exceeds its range.
    fn allocator_uniqueness(count in 1u64..128, take in 1usize..200) {
        let mut alloc = FrameAllocator::with_range(0, count);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..take {
            match alloc.alloc() {
                Some(f) => {
                    prop_assert!(f.number() < count);
                    prop_assert!(seen.insert(f), "frame {f} handed out twice");
                }
                None => {
                    prop_assert!(seen.len() as u64 == count);
                    break;
                }
            }
        }
    }
}

/// Regression pinned from the retired proptest suite's saved failure
/// (`props.proptest-regressions`): the boundary where `pa_raw` equals
/// `plain_limit` exactly, with the narrowest shadow bit.
#[test]
fn shadow_round_trip_regression_at_plain_limit() {
    let (shadow_bit, ctx_bits, pa_raw, ctx) = (20u32, 2u32, 262_144u64, 0u32);
    let layout = ShadowLayout::new(shadow_bit, shadow_bit - ctx_bits, ctx_bits);
    let pa = PhysAddr::new(pa_raw);
    assert!(pa_raw >= layout.plain_limit(), "the saved case sits on the plain-limit boundary");
    assert!(layout.shadow_paddr_ctx(pa, ctx.min(layout.num_contexts() - 1)).is_none());
}
