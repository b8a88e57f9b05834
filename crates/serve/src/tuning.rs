//! Calibrated store sizing for multi-tenant serving.
//!
//! The benchmark's stores (every workload starts from
//! [`churn_store_config`]; `serve_mix` keeps the working-set cache), the
//! `serve_demo` and `trace_dump` examples and `tests/alloc_expand.rs`
//! all run the same regime; keeping the recipe in one place keeps them
//! running the same thing.

use blog_spd::{Geometry, PagedStoreConfig, PolicyKind};

/// The store configuration of the multi-tenant serving regime for a
/// database of `db_len` clauses: 4-block tracks over 4 SPs,
/// scan-resistant 2Q, and a cache sized at 3/5 of the database's tracks
/// — enough for every pool's *current* tenant working set to stay
/// resident at once, but not for the whole tenant population. That gap
/// is the point: in this regime the scheduler's session-affinity
/// routing, not the replacement policy, decides which sessions run warm.
pub fn working_set_store_config(db_len: usize) -> PagedStoreConfig {
    let blocks_per_track = 4usize;
    let tracks_total = db_len.div_ceil(blocks_per_track);
    PagedStoreConfig {
        geometry: Geometry {
            n_sps: 4,
            n_cylinders: (tracks_total / 4 + 1) as u32,
            blocks_per_track: blocks_per_track as u32,
        },
        capacity_tracks: (tracks_total * 3 / 5).max(2),
        policy: PolicyKind::TwoQ,
        ..PagedStoreConfig::default()
    }
}

/// [`working_set_store_config`]'s store sized for *churn*: geometry
/// headroom for `headroom` clauses asserted beyond the seed database
/// (asserts allocate fresh
/// blocks; a store sized exactly to the seed rejects the first assert
/// with `CapacityExhausted`), while the cache stays sized to the **seed**
/// working set — churn should contend for the same cache the read-only
/// regime was tuned for, not get a bigger one for free.
pub fn churn_store_config(db_len: usize, headroom: usize) -> PagedStoreConfig {
    let mut cfg = working_set_store_config(db_len + headroom);
    let seed_tracks = db_len.div_ceil(cfg.geometry.blocks_per_track as usize);
    cfg.capacity_tracks = (seed_tracks * 3 / 5).max(2);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_always_holds_the_database() {
        for db_len in [1usize, 7, 16, 100, 513, 4097] {
            let cfg = working_set_store_config(db_len);
            assert!(
                cfg.geometry.capacity() as usize >= db_len,
                "db_len {db_len}: capacity {}",
                cfg.geometry.capacity()
            );
            assert!(cfg.capacity_tracks >= 2);
            // The cache never holds the whole database once it spans
            // enough tracks to matter.
            let tracks_total = db_len.div_ceil(4);
            if tracks_total >= 5 {
                assert!(cfg.capacity_tracks < tracks_total, "db_len {db_len}");
            }
        }
    }

    #[test]
    fn churn_geometry_holds_seed_plus_headroom() {
        for (db_len, headroom) in [(16usize, 8usize), (100, 40), (513, 0), (7, 100)] {
            let cfg = churn_store_config(db_len, headroom);
            assert!(
                cfg.geometry.capacity() as usize >= db_len + headroom,
                "db_len {db_len} + headroom {headroom}: capacity {}",
                cfg.geometry.capacity()
            );
            // The cache is sized to the seed, matching the read-only
            // regime for the same database.
            assert_eq!(
                cfg.capacity_tracks,
                working_set_store_config(db_len).capacity_tracks,
                "db_len {db_len}"
            );
        }
    }
}
