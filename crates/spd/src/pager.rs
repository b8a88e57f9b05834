//! Replaying clause-access traces against the SPD.
//!
//! "Rather than organizing data in fixed size pages, data is semantically
//! organized in terms of a graph, and a page is a subgraph defined by the
//! state of the process at run time" (§6). The [`Pager`] keeps the
//! processor's local memory — the set of resident blocks — and, on a miss,
//! asks the SPD for the semantic page around the missed clause. The page
//! *distance* controls how much of the neighborhood is prefetched; the
//! *weight filter* skips neighborhoods the current weights make
//! unpromising.

use std::collections::HashSet;

use blog_logic::ClauseId;
use serde::Serialize;

use crate::block::BlockId;
use crate::bridge::DbLayout;
use crate::policy::{PolicyKind, ReplacementPolicy};
use crate::spd::{PageRequest, SpdArray};

/// Paging statistics for one replayed trace.
#[derive(Clone, Copy, Default, Debug, Serialize)]
pub struct PagerStats {
    /// Clause accesses replayed.
    pub accesses: u64,
    /// Accesses served from local memory.
    pub hits: u64,
    /// Accesses that required a semantic page.
    pub faults: u64,
    /// Blocks brought in by paging.
    pub blocks_paged: u64,
    /// SPD ticks spent on faults.
    pub fault_ticks: u64,
}

impl PagerStats {
    /// Hit rate in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        self.hits as f64 / self.accesses as f64
    }
}

/// Local-memory manager over an SPD-resident clause database.
///
/// Local memory is either *unbounded* (the default: every paged-in block
/// stays resident) or governed by a [`ReplacementPolicy`] installed with
/// [`bound`](Self::bound) — FIFO to reproduce the pager's historical
/// behavior, or any [`PolicyKind`] the paged clause store supports.
pub struct Pager<'a> {
    spd: &'a mut SpdArray,
    layout: &'a DbLayout,
    /// Residency when unbounded (`policy.is_none()`).
    resident: HashSet<BlockId>,
    /// Semantic page distance requested on a miss.
    pub distance: u32,
    /// Optional weight ceiling for prefetch pointer-following.
    pub weight_max: Option<u32>,
    /// Replacement policy bounding local memory (`None` = unbounded).
    policy: Option<Box<dyn ReplacementPolicy<BlockId>>>,
    stats: PagerStats,
}

impl<'a> Pager<'a> {
    /// A pager with unbounded local memory.
    pub fn new(spd: &'a mut SpdArray, layout: &'a DbLayout, distance: u32) -> Pager<'a> {
        Pager {
            spd,
            layout,
            resident: HashSet::new(),
            distance,
            weight_max: None,
            policy: None,
            stats: PagerStats::default(),
        }
    }

    /// Bound local memory to `capacity` blocks evicted by `policy`.
    /// Blocks already resident — whether unbounded or under a previous
    /// bound — carry over (in arbitrary admission order) up to the new
    /// capacity; the rest are dropped.
    pub fn bound(&mut self, policy: PolicyKind, capacity: usize) {
        let carried: Vec<BlockId> = match &self.policy {
            Some(old) => old.resident_keys(),
            None => self.resident.iter().copied().collect(),
        };
        let mut p = policy.build(capacity);
        for b in carried.into_iter().take(capacity) {
            p.admit(b);
        }
        self.resident.clear();
        self.policy = Some(p);
    }

    /// Statistics so far.
    pub fn stats(&self) -> PagerStats {
        self.stats
    }

    /// Blocks currently resident.
    pub fn resident_len(&self) -> usize {
        match &self.policy {
            Some(p) => p.len(),
            None => self.resident.len(),
        }
    }

    /// Whether a clause is resident.
    pub fn is_resident(&self, cid: ClauseId) -> bool {
        let block = self.layout.block_of(cid);
        match &self.policy {
            Some(p) => p.contains(&block),
            None => self.resident.contains(&block),
        }
    }

    /// Admit a paged-in block, evicting under the policy if bounded.
    fn admit(&mut self, block: BlockId) {
        match &mut self.policy {
            Some(p) => {
                if !p.contains(&block) {
                    p.evict_candidate();
                    p.admit(block);
                }
            }
            None => {
                self.resident.insert(block);
            }
        }
    }

    /// Touch one clause: count a hit, or fault its semantic page in.
    pub fn touch(&mut self, cid: ClauseId) -> bool {
        self.stats.accesses += 1;
        let block = self.layout.block_of(cid);
        let hit = match &mut self.policy {
            Some(p) => p.touch(block),
            None => self.resident.contains(&block),
        };
        if hit {
            self.stats.hits += 1;
            return true;
        }
        self.stats.faults += 1;
        let page = self.spd.semantic_page(&PageRequest {
            roots: vec![block],
            distance: self.distance,
            name: None,
            weight_max: self.weight_max,
        });
        self.stats.fault_ticks += page.ticks;
        self.stats.blocks_paged += page.blocks.len() as u64;
        // The demanded block is admitted first: policies that route
        // admissions on the preceding touch-miss (2Q's ghost promotion)
        // must see it before any prefetched neighbor.
        self.admit(block);
        for b in page.blocks {
            if b != block {
                self.admit(b);
            }
        }
        false
    }

    /// Replay a whole clause-access trace; returns the stats.
    pub fn replay(&mut self, trace: &[ClauseId]) -> PagerStats {
        for &cid in trace {
            self.touch(cid);
        }
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::build_spd_from_db;
    use crate::spd::SpMode;
    use crate::timing::{CostModel, Geometry};
    use blog_core::weight::{WeightParams, WeightStore};
    use blog_logic::parse_program;

    const FAMILY: &str = "
        gf(X,Z) :- f(X,Y), f(Y,Z).
        gf(X,Z) :- f(X,Y), m(Y,Z).
        f(curt,elain). f(sam,larry). f(dan,pat). f(larry,den).
        f(pat,john). f(larry,doug).
        m(elain,john). m(marian,elain). m(peg,den). m(peg,doug).
    ";

    fn setup() -> (SpdArray, DbLayout) {
        let p = parse_program(FAMILY).unwrap();
        let weights = WeightStore::new(WeightParams::default());
        build_spd_from_db(
            &p.db,
            &weights,
            Geometry {
                n_sps: 2,
                n_cylinders: 8,
                blocks_per_track: 2,
            },
            CostModel::default(),
            SpMode::Simd,
        )
    }

    #[test]
    fn first_touch_faults_second_hits() {
        let (mut spd, layout) = setup();
        let mut pager = Pager::new(&mut spd, &layout, 0);
        assert!(!pager.touch(ClauseId(3)));
        assert!(pager.touch(ClauseId(3)));
        let s = pager.stats();
        assert_eq!(s.faults, 1);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn larger_distance_prefetches_neighbors() {
        let (mut spd, layout) = setup();
        // Touch rule 0 with distance 1: its 6 f-fact candidates ride in,
        // so touching any f-fact afterwards hits.
        let mut pager = Pager::new(&mut spd, &layout, 1);
        pager.touch(ClauseId(0));
        assert!(pager.is_resident(ClauseId(3)), "f(sam,larry) prefetched");
        assert!(pager.touch(ClauseId(3)));
        assert_eq!(pager.stats().faults, 1);
    }

    #[test]
    fn distance_zero_pages_single_blocks() {
        let (mut spd, layout) = setup();
        let mut pager = Pager::new(&mut spd, &layout, 0);
        pager.touch(ClauseId(0));
        assert_eq!(pager.resident_len(), 1);
    }

    #[test]
    fn capacity_evicts_fifo() {
        let (mut spd, layout) = setup();
        let mut pager = Pager::new(&mut spd, &layout, 0);
        pager.bound(PolicyKind::Fifo, 2);
        pager.touch(ClauseId(0));
        pager.touch(ClauseId(1));
        pager.touch(ClauseId(2)); // evicts clause 0's block
        assert!(!pager.is_resident(ClauseId(0)));
        assert!(!pager.touch(ClauseId(0)), "evicted block must re-fault");
    }

    #[test]
    fn bounded_lru_keeps_the_rereferenced_block() {
        let (mut spd, layout) = setup();
        let mut pager = Pager::new(&mut spd, &layout, 0);
        pager.bound(PolicyKind::Lru, 2);
        pager.touch(ClauseId(0));
        pager.touch(ClauseId(1));
        pager.touch(ClauseId(0)); // refresh 0: LRU victim is now 1
        pager.touch(ClauseId(2));
        assert!(pager.is_resident(ClauseId(0)), "re-referenced block kept");
        assert!(!pager.is_resident(ClauseId(1)), "stale block evicted");
        assert_eq!(pager.resident_len(), 2);
    }

    #[test]
    fn bound_carries_existing_residents_over() {
        let (mut spd, layout) = setup();
        let mut pager = Pager::new(&mut spd, &layout, 0);
        pager.touch(ClauseId(0));
        pager.touch(ClauseId(2));
        pager.bound(PolicyKind::Lru, 2);
        assert_eq!(pager.resident_len(), 2);
        assert!(pager.touch(ClauseId(0)), "carried-over block still hits");
        // Re-bounding under a different policy also carries residency.
        pager.bound(PolicyKind::Fifo, 4);
        assert_eq!(pager.resident_len(), 2);
        assert!(pager.touch(ClauseId(2)), "re-bound kept the resident block");
    }

    #[test]
    fn bounded_prefetch_respects_capacity() {
        let (mut spd, layout) = setup();
        // Distance 1 from rule 0 pages in 7 blocks; a 3-block bound must
        // hold residency at 3 whatever the policy.
        for policy in PolicyKind::ALL {
            let mut pager = Pager::new(&mut spd, &layout, 1);
            pager.bound(policy, 3);
            pager.touch(ClauseId(0));
            // A 7-block page through a 3-block bound: residency stays
            // bounded (which blocks survive is the policy's business).
            assert_eq!(pager.resident_len(), 3, "{policy}");
        }
    }

    #[test]
    fn replay_accumulates() {
        let (mut spd, layout) = setup();
        let mut pager = Pager::new(&mut spd, &layout, 1);
        let trace = vec![
            ClauseId(0),
            ClauseId(3),
            ClauseId(5),
            ClauseId(0),
            ClauseId(3),
        ];
        let s = pager.replay(&trace);
        assert_eq!(s.accesses, 5);
        assert!(s.hit_rate() > 0.5, "hit rate {}", s.hit_rate());
    }

    #[test]
    fn weight_filter_limits_prefetch() {
        let (mut spd, layout) = setup();
        // Unknown weights are N+1 = 4352; a ceiling below that stops all
        // prefetching through pointers.
        let mut filtered = Pager::new(&mut spd, &layout, 1);
        filtered.weight_max = Some(100);
        filtered.touch(ClauseId(0));
        assert_eq!(filtered.resident_len(), 1, "no neighbor prefetched");
    }
}
