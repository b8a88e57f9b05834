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
/// Local memory is unbounded: every paged-in block stays resident, so a
/// replay measures what the page distance and weight filter prefetch,
/// never what an eviction policy throws away (that is the live
/// [`TrackCache`](crate::cache::TrackCache)'s business).
pub struct Pager<'a> {
    spd: &'a mut SpdArray,
    layout: &'a DbLayout,
    /// Resident blocks.
    resident: HashSet<BlockId>,
    /// Semantic page distance requested on a miss.
    pub distance: u32,
    /// Optional weight ceiling for prefetch pointer-following.
    pub weight_max: Option<u32>,
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
            stats: PagerStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> PagerStats {
        self.stats
    }

    /// Blocks currently resident.
    pub fn resident_len(&self) -> usize {
        self.resident.len()
    }

    /// Whether a clause is resident.
    pub fn is_resident(&self, cid: ClauseId) -> bool {
        self.resident.contains(&self.layout.block_of(cid))
    }

    /// Touch one clause: count a hit, or fault its semantic page in.
    pub fn touch(&mut self, cid: ClauseId) -> bool {
        self.stats.accesses += 1;
        let block = self.layout.block_of(cid);
        if self.resident.contains(&block) {
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
        // The page includes its root, the demanded block.
        self.resident.extend(page.blocks);
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
