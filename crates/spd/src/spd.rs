//! The SPD array simulator: caches, marking, pointer-following, paging.

use std::collections::HashMap;

use serde::Serialize;

use crate::block::{Block, BlockId};
use crate::timing::{BlockAddr, CostModel, Geometry};

/// How multiple search processors cooperate (§6).
///
/// - `Simd`: "all SPs work on the same track on their surface (a
///   cylinder) … the associative search operation and the pointer
///   transfer can be performed simultaneously in all SPs": one cylinder
///   load caches every SP's track at once, and pointers between SPs of
///   the cached cylinder resolve immediately via global block numbers.
/// - `Mimd`: SPs work independently; a pointer into another SP's track is
///   deferred like any cross-cylinder pointer.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum SpMode {
    /// Lock-step cylinder-at-a-time operation.
    Simd,
    /// Independent per-SP operation.
    Mimd,
}

/// Operation counters and the tick clock.
#[derive(Clone, Copy, Default, Debug, Serialize)]
pub struct SpdStats {
    /// Head seeks performed.
    pub seeks: u64,
    /// Track loads into SP caches (SIMD cylinder loads count one per SP).
    pub track_loads: u64,
    /// Associative mark passes.
    pub mark_ops: u64,
    /// Pointers examined during follow operations.
    pub pointer_follows: u64,
    /// Pointers *not* followed because their stored weight exceeded the
    /// request threshold (the §5 weight filter).
    pub weight_skips: u64,
    /// Pointers that left the cached locus and were deferred.
    pub deferred_pointers: u64,
    /// Blocks transferred out to a processor.
    pub blocks_output: u64,
    /// Words transferred out.
    pub words_output: u64,
    /// Pointer-weight updates written.
    pub weight_updates: u64,
    /// Total simulated time.
    pub ticks: u64,
}

/// A semantic-page request: the subgraph within `distance` pointer hops
/// of `roots`, following pointers named `name` (or all), skipping
/// pointers whose stored weight exceeds `weight_max`.
#[derive(Clone, Debug)]
pub struct PageRequest {
    /// Starting blocks.
    pub roots: Vec<BlockId>,
    /// Hamming distance (pointer hops) to page in.
    pub distance: u32,
    /// Follow only pointers with this name, if set.
    pub name: Option<u32>,
    /// Skip pointers heavier than this, if set.
    pub weight_max: Option<u32>,
}

/// The result of a semantic-page request.
#[derive(Clone, Debug)]
pub struct PageResult {
    /// Blocks paged in (the semantic page), in visit order.
    pub blocks: Vec<BlockId>,
    /// Ticks this request cost.
    pub ticks: u64,
}

#[derive(Clone, Copy, Debug)]
struct SpState {
    head_cylinder: u32,
    cached_cylinder: Option<u32>,
}

/// The full SPD array: blocks placed across (cylinder, SP, slot), per-SP
/// track caches, mark bits, and the tick clock.
#[derive(Debug)]
pub struct SpdArray {
    geometry: Geometry,
    cost: CostModel,
    mode: SpMode,
    blocks: Vec<Block>,
    addrs: Vec<BlockAddr>,
    sps: Vec<SpState>,
    marks: Vec<bool>,
    clock: u64,
    stats: SpdStats,
}

impl SpdArray {
    /// An empty array.
    pub fn new(geometry: Geometry, cost: CostModel, mode: SpMode) -> SpdArray {
        SpdArray {
            geometry,
            cost,
            mode,
            blocks: Vec::new(),
            addrs: Vec::new(),
            sps: vec![
                SpState {
                    head_cylinder: 0,
                    cached_cylinder: None,
                };
                geometry.n_sps as usize
            ],
            marks: Vec::new(),
            clock: 0,
            stats: SpdStats::default(),
        }
    }

    /// Place the next block (round-robin across slots, SPs, cylinders).
    ///
    /// # Panics
    /// Panics if the geometry's capacity is exceeded.
    pub fn add_block(&mut self, block: Block) -> BlockId {
        let i = self.blocks.len() as u32;
        assert!(
            i < self.geometry.capacity(),
            "SPD capacity {} exceeded",
            self.geometry.capacity()
        );
        let addr = self.geometry.addr_of_index(i);
        self.blocks.push(block);
        self.addrs.push(addr);
        self.marks.push(false);
        BlockId(i)
    }

    /// Replace a block's contents wholesale. This models *offline*
    /// database (re)construction and charges no simulated time; online
    /// updates go through [`update_pointer_weight`](Self::update_pointer_weight).
    pub fn replace_block(&mut self, id: BlockId, block: Block) {
        self.blocks[id.index()] = block;
    }

    /// Append a pointer to a block during offline construction (no
    /// simulated cost). Returns the pointer's index within the block.
    pub fn add_pointer(&mut self, id: BlockId, name: u32, target: BlockId, weight: u32) -> usize {
        self.blocks[id.index()].push_pointer(name, target, weight)
    }

    /// The block store (read-only).
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Where a block lives.
    pub fn addr(&self, id: BlockId) -> BlockAddr {
        self.addrs[id.index()]
    }

    /// Number of blocks stored.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The operating mode.
    pub fn mode(&self) -> SpMode {
        self.mode
    }

    /// Current simulated time.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Counters so far.
    pub fn stats(&self) -> SpdStats {
        self.stats
    }

    /// Reset counters and clock (placement and cache state persist).
    pub fn reset_stats(&mut self) {
        self.stats = SpdStats::default();
        self.clock = 0;
    }

    fn charge(&mut self, ticks: u64) {
        self.clock += ticks;
        self.stats.ticks += ticks;
    }

    /// Whether `id`'s track is in its SP's cache.
    pub fn is_cached(&self, id: BlockId) -> bool {
        let addr = self.addrs[id.index()];
        self.sps[addr.sp as usize].cached_cylinder == Some(addr.cylinder)
    }

    /// Whether a pointer from `from` to `to` resolves inside the current
    /// cache without deferral, per the operating mode.
    fn locally_visible(&self, from: BlockId, to: BlockId) -> bool {
        if !self.is_cached(to) {
            return false;
        }
        match self.mode {
            SpMode::Simd => true,
            // MIMD SPs cannot talk to each other mid-operation.
            SpMode::Mimd => self.addrs[from.index()].sp == self.addrs[to.index()].sp,
        }
    }

    fn evict_marks(&mut self, sp: u32, cylinder: u32) {
        for (i, addr) in self.addrs.iter().enumerate() {
            if addr.sp == sp && addr.cylinder == cylinder {
                self.marks[i] = false;
            }
        }
    }

    /// SIMD: move every head to `cylinder` and cache the whole cylinder.
    /// The SPs work in parallel, so the charged time is the *maximum*
    /// seek plus one rotation.
    pub fn load_cylinder(&mut self, cylinder: u32) {
        assert!(cylinder < self.geometry.n_cylinders, "no such cylinder");
        let mut max_seek = 0u64;
        for sp in 0..self.geometry.n_sps {
            let st = self.sps[sp as usize];
            if st.cached_cylinder == Some(cylinder) {
                continue;
            }
            let dist = st.head_cylinder.abs_diff(cylinder) as u64;
            max_seek = max_seek.max(self.cost.seek_settle + dist * self.cost.seek_per_cylinder);
            if let Some(old) = st.cached_cylinder {
                self.evict_marks(sp, old);
            }
            self.sps[sp as usize].head_cylinder = cylinder;
            self.sps[sp as usize].cached_cylinder = Some(cylinder);
            self.stats.track_loads += 1;
            self.stats.seeks += u64::from(dist > 0);
        }
        if max_seek > 0 {
            self.charge(max_seek + self.cost.track_load);
        }
    }

    /// MIMD: one SP seeks to `cylinder` and caches its track there.
    pub fn load_track(&mut self, sp: u32, cylinder: u32) {
        assert!(sp < self.geometry.n_sps, "no such SP");
        assert!(cylinder < self.geometry.n_cylinders, "no such cylinder");
        let st = self.sps[sp as usize];
        if st.cached_cylinder == Some(cylinder) {
            return;
        }
        let dist = st.head_cylinder.abs_diff(cylinder) as u64;
        if let Some(old) = st.cached_cylinder {
            self.evict_marks(sp, old);
        }
        self.sps[sp as usize].head_cylinder = cylinder;
        self.sps[sp as usize].cached_cylinder = Some(cylinder);
        self.stats.track_loads += 1;
        self.stats.seeks += u64::from(dist > 0);
        self.charge(
            self.cost.seek_settle + dist * self.cost.seek_per_cylinder + self.cost.track_load,
        );
    }

    /// Operation (1): associatively mark cached blocks by id. Uncached
    /// ids are ignored. Returns how many were marked.
    pub fn mark(&mut self, ids: &[BlockId]) -> usize {
        let mut marked = 0;
        for &id in ids {
            if self.is_cached(id) && !self.marks[id.index()] {
                self.marks[id.index()] = true;
                marked += 1;
            }
        }
        self.stats.mark_ops += ids.len() as u64;
        self.charge(self.cost.associative_op * ids.len() as u64);
        marked
    }

    /// Whether a block is currently marked.
    pub fn is_marked(&self, id: BlockId) -> bool {
        self.marks[id.index()]
    }

    /// Clear every mark bit (cache contents persist).
    pub fn clear_marks(&mut self) {
        for m in &mut self.marks {
            *m = false;
        }
    }

    /// Operation (3): update the stored weight of one pointer of a cached
    /// block. This and the page's output at the end of
    /// [`semantic_page`](Self::semantic_page) are all of operation (3)
    /// the simulator models: inserting and deleting clause blocks is the
    /// live store's write path
    /// ([`MvccClauseStore`](crate::mvcc::MvccClauseStore)'s assert,
    /// retract and commit).
    ///
    /// # Panics
    /// Panics if the block's track is not cached or the pointer index is
    /// out of range.
    pub fn update_pointer_weight(&mut self, id: BlockId, ptr_index: usize, weight: u32) {
        assert!(self.is_cached(id), "update requires the block in cache");
        self.blocks[id.index()].pointers[ptr_index].weight = weight;
        self.stats.weight_updates += 1;
        self.charge(self.cost.word_update);
    }

    /// The full semantic-page operation: repeatedly loading loci
    /// (cylinders in SIMD mode, single tracks in MIMD mode), marking,
    /// and following pointers, until the subgraph within the requested
    /// Hamming distance is assembled.
    pub fn semantic_page(&mut self, req: &PageRequest) -> PageResult {
        let start_ticks = self.clock;
        // remaining-distance budget per block, both for the work queue and
        // for the visited set (a block may be revisited with a larger
        // budget and then expand further).
        let mut visited: HashMap<BlockId, u32> = HashMap::new();
        let mut order: Vec<BlockId> = Vec::new();
        let mut pending: HashMap<BlockId, u32> = HashMap::new();
        for &r in &req.roots {
            let e = pending.entry(r).or_insert(req.distance);
            *e = (*e).max(req.distance);
        }

        while !pending.is_empty() {
            // Pick the locus with the most pending blocks.
            let mut counts: HashMap<(u32, u32), usize> = HashMap::new();
            for (&b, _) in pending.iter() {
                let a = self.addrs[b.index()];
                let locus = match self.mode {
                    SpMode::Simd => (a.cylinder, 0),
                    SpMode::Mimd => (a.cylinder, a.sp),
                };
                *counts.entry(locus).or_default() += 1;
            }
            let (&(cyl, sp), _) = counts
                .iter()
                .max_by_key(|(locus, n)| (**n, std::cmp::Reverse(locus.0), locus.1))
                .expect("pending non-empty");
            match self.mode {
                SpMode::Simd => self.load_cylinder(cyl),
                SpMode::Mimd => self.load_track(sp, cyl),
            }

            // Move the locally-resident pending blocks into a work queue.
            let local: Vec<(BlockId, u32)> = pending
                .iter()
                .filter(|(b, _)| {
                    self.is_cached(**b)
                        && match self.mode {
                            SpMode::Simd => self.addrs[b.index()].cylinder == cyl,
                            SpMode::Mimd => {
                                let a = self.addrs[b.index()];
                                a.cylinder == cyl && a.sp == sp
                            }
                        }
                })
                .map(|(&b, &d)| (b, d))
                .collect();
            for (b, _) in &local {
                pending.remove(b);
            }
            let ids: Vec<BlockId> = local.iter().map(|(b, _)| *b).collect();
            self.mark(&ids);

            // Saturate within the cache.
            let mut queue = local;
            while let Some((b, rem)) = queue.pop() {
                match visited.get(&b) {
                    Some(&seen) if seen >= rem => continue,
                    Some(_) => {
                        visited.insert(b, rem);
                    }
                    None => {
                        visited.insert(b, rem);
                        order.push(b);
                    }
                }
                if rem == 0 {
                    continue;
                }
                let ptrs: Vec<crate::block::NamedPointer> = self.blocks[b.index()]
                    .pointers_named(req.name)
                    .copied()
                    .collect();
                for p in ptrs {
                    self.stats.pointer_follows += 1;
                    self.charge(self.cost.pointer_follow);
                    if req.weight_max.is_some_and(|wm| p.weight > wm) {
                        self.stats.weight_skips += 1;
                        continue;
                    }
                    let nrem = rem - 1;
                    if self.locally_visible(b, p.target) {
                        self.mark(&[p.target]);
                        queue.push((p.target, nrem));
                    } else {
                        // Defer: "pointer transfer is handled by saving the
                        // pointer until the other cylinder is loaded".
                        self.stats.deferred_pointers += 1;
                        let already = visited.get(&p.target).copied().unwrap_or(0);
                        if visited.contains_key(&p.target) && already >= nrem {
                            continue;
                        }
                        let e = pending.entry(p.target).or_insert(nrem);
                        *e = (*e).max(nrem);
                    }
                }
            }
        }

        // Ship the page to the requesting processor: operation (3)'s
        // output, charged per word transferred.
        let mut words = 0u64;
        for b in &order {
            words += self.blocks[b.index()].size_words() as u64;
        }
        self.stats.blocks_output += order.len() as u64;
        self.stats.words_output += words;
        self.charge(self.cost.word_transfer * words);

        PageResult {
            blocks: order,
            ticks: self.clock - start_ticks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny array: 2 SPs, 4 cylinders, 2 blocks per track.
    fn tiny(mode: SpMode) -> SpdArray {
        SpdArray::new(
            Geometry {
                n_sps: 2,
                n_cylinders: 4,
                blocks_per_track: 2,
            },
            CostModel::default(),
            mode,
        )
    }

    /// Build a linear chain b0 → b1 → … → b(n-1) with pointer weights w.
    fn chain(spd: &mut SpdArray, n: u32, weight: u32) -> Vec<BlockId> {
        let ids: Vec<BlockId> = (0..n).map(|_| spd.add_block(Block::new(4))).collect();
        for i in 0..(n - 1) as usize {
            let target = ids[i + 1];
            let src = ids[i];
            let mut b = spd.block(src).clone();
            b.push_pointer(0, target, weight);
            spd.blocks[src.index()] = b;
        }
        ids
    }

    #[test]
    fn placement_round_robin() {
        let mut spd = tiny(SpMode::Simd);
        let ids: Vec<BlockId> = (0..6).map(|_| spd.add_block(Block::new(1))).collect();
        // 2 blocks/track, 2 SPs → cylinder 0 holds ids 0..4.
        assert_eq!(spd.addr(ids[0]).cylinder, 0);
        assert_eq!(spd.addr(ids[0]).sp, 0);
        assert_eq!(spd.addr(ids[2]).sp, 1);
        assert_eq!(spd.addr(ids[4]).cylinder, 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn overfull_placement_panics() {
        let mut spd = tiny(SpMode::Simd);
        for _ in 0..17 {
            spd.add_block(Block::new(1));
        }
    }

    #[test]
    fn simd_cylinder_load_caches_all_sps() {
        let mut spd = tiny(SpMode::Simd);
        let ids: Vec<BlockId> = (0..4).map(|_| spd.add_block(Block::new(1))).collect();
        assert!(!spd.is_cached(ids[0]));
        spd.load_cylinder(0);
        for &b in &ids {
            assert!(spd.is_cached(b));
        }
        // Both SP tracks loaded but time charged once (parallel).
        assert_eq!(spd.stats().track_loads, 2);
    }

    #[test]
    fn mimd_track_load_caches_one_sp() {
        let mut spd = tiny(SpMode::Mimd);
        let ids: Vec<BlockId> = (0..4).map(|_| spd.add_block(Block::new(1))).collect();
        spd.load_track(0, 0);
        assert!(spd.is_cached(ids[0])); // sp 0
        assert!(!spd.is_cached(ids[2])); // sp 1
    }

    #[test]
    fn seek_cost_scales_with_distance() {
        let mut spd = tiny(SpMode::Mimd);
        for _ in 0..16 {
            spd.add_block(Block::new(1));
        }
        spd.load_track(0, 0);
        let t0 = spd.clock();
        spd.load_track(0, 3);
        let far = spd.clock() - t0;
        let t1 = spd.clock();
        spd.load_track(0, 2);
        let near = spd.clock() - t1;
        assert!(far > near, "3-cylinder seek must cost more than 1");
    }

    #[test]
    fn reloading_cached_cylinder_is_free() {
        let mut spd = tiny(SpMode::Simd);
        spd.add_block(Block::new(1));
        spd.load_cylinder(0);
        let t = spd.clock();
        spd.load_cylinder(0);
        assert_eq!(spd.clock(), t);
    }

    #[test]
    fn mark_only_touches_cached_blocks() {
        let mut spd = tiny(SpMode::Simd);
        let ids: Vec<BlockId> = (0..6).map(|_| spd.add_block(Block::new(1))).collect();
        spd.load_cylinder(0);
        let n = spd.mark(&[ids[0], ids[4]]); // ids[4] is cylinder 1: uncached
        assert_eq!(n, 1);
        assert!(spd.is_marked(ids[0]));
        assert!(!spd.is_marked(ids[4]));
    }

    #[test]
    fn eviction_clears_marks() {
        let mut spd = tiny(SpMode::Simd);
        let ids: Vec<BlockId> = (0..6).map(|_| spd.add_block(Block::new(1))).collect();
        spd.load_cylinder(0);
        spd.mark(&[ids[0]]);
        spd.load_cylinder(1);
        assert!(!spd.is_marked(ids[0]));
    }

    #[test]
    fn semantic_page_covers_distance() {
        let mut spd = tiny(SpMode::Simd);
        let ids = chain(&mut spd, 6, 0);
        let r = spd.semantic_page(&PageRequest {
            roots: vec![ids[0]],
            distance: 3,
            name: None,
            weight_max: None,
        });
        // b0..b3 inclusive (3 hops).
        assert_eq!(r.blocks.len(), 4);
        assert!(r.blocks.contains(&ids[3]));
        assert!(!r.blocks.contains(&ids[4]));
    }

    #[test]
    fn semantic_page_crosses_cylinders() {
        let mut spd = tiny(SpMode::Simd);
        // 6 blocks: chain crosses from cylinder 0 (ids 0..4) to 1.
        let ids = chain(&mut spd, 6, 0);
        let r = spd.semantic_page(&PageRequest {
            roots: vec![ids[0]],
            distance: 5,
            name: None,
            weight_max: None,
        });
        assert_eq!(r.blocks.len(), 6);
        assert!(spd.stats().deferred_pointers > 0);
        assert!(spd.stats().track_loads >= 3);
    }

    #[test]
    fn weight_filter_prunes_heavy_pointers() {
        let mut spd = tiny(SpMode::Simd);
        let ids = chain(&mut spd, 4, 100);
        let r = spd.semantic_page(&PageRequest {
            roots: vec![ids[0]],
            distance: 3,
            name: None,
            weight_max: Some(50),
        });
        assert_eq!(r.blocks.len(), 1, "all pointers too heavy to follow");
        assert_eq!(spd.stats().weight_skips, 1);
    }

    #[test]
    fn name_filter_restricts_follows() {
        let mut spd = tiny(SpMode::Simd);
        let a = spd.add_block(Block::new(1));
        let b = spd.add_block(Block::new(1));
        let c = spd.add_block(Block::new(1));
        let mut blk = spd.block(a).clone();
        blk.push_pointer(7, b, 0);
        blk.push_pointer(9, c, 0);
        spd.blocks[a.index()] = blk;
        let r = spd.semantic_page(&PageRequest {
            roots: vec![a],
            distance: 1,
            name: Some(7),
            weight_max: None,
        });
        assert!(r.blocks.contains(&b));
        assert!(!r.blocks.contains(&c));
    }

    #[test]
    fn mimd_defers_cross_sp_pointers_simd_does_not() {
        // Block 0 (sp 0) points to block 2 (sp 1), same cylinder.
        let build = |mode| {
            let mut spd = tiny(mode);
            let a = spd.add_block(Block::new(1)); // cyl 0 sp 0
            let _b = spd.add_block(Block::new(1)); // cyl 0 sp 0
            let c = spd.add_block(Block::new(1)); // cyl 0 sp 1
            let mut blk = spd.block(a).clone();
            blk.push_pointer(0, c, 0);
            spd.blocks[a.index()] = blk;
            let r = spd.semantic_page(&PageRequest {
                roots: vec![a],
                distance: 1,
                name: None,
                weight_max: None,
            });
            (
                r.blocks.len(),
                spd.stats().deferred_pointers,
                spd.stats().track_loads,
            )
        };
        let (simd_blocks, simd_deferred, simd_loads) = build(SpMode::Simd);
        let (mimd_blocks, mimd_deferred, mimd_loads) = build(SpMode::Mimd);
        assert_eq!(simd_blocks, 2);
        assert_eq!(mimd_blocks, 2);
        assert_eq!(simd_deferred, 0, "SIMD resolves cross-SP in-cylinder");
        assert!(mimd_deferred > 0, "MIMD must defer cross-SP pointers");
        assert!(mimd_loads > 1, "MIMD needs a second track load");
        assert_eq!(simd_loads, 2, "one cylinder load = both SP tracks");
    }

    #[test]
    fn update_pointer_weight_persists() {
        let mut spd = tiny(SpMode::Simd);
        let ids = chain(&mut spd, 2, 5);
        spd.load_cylinder(0);
        spd.update_pointer_weight(ids[0], 0, 42);
        assert_eq!(spd.block(ids[0]).pointers[0].weight, 42);
        assert_eq!(spd.stats().weight_updates, 1);
    }

    #[test]
    fn page_ticks_reported_per_request() {
        let mut spd = tiny(SpMode::Simd);
        let ids = chain(&mut spd, 4, 0);
        let r1 = spd.semantic_page(&PageRequest {
            roots: vec![ids[0]],
            distance: 1,
            name: None,
            weight_max: None,
        });
        let r2 = spd.semantic_page(&PageRequest {
            roots: vec![ids[0]],
            distance: 1,
            name: None,
            weight_max: None,
        });
        assert!(r1.ticks > 0);
        // Second identical request hits the cache: strictly cheaper.
        assert!(r2.ticks < r1.ticks, "{} !< {}", r2.ticks, r1.ticks);
    }
}
