//! The track cache's lock-free hit path: a resident hit takes no lock and
//! waits in a per-thread batch, and the batch keeps every counter exact
//! once it is applied.
//!
//! - one thread making `n` resident hits takes at most `⌈n/64⌉ + 1` lock
//!   acquisitions, flush included, and the applied hits refresh the
//!   policy's recency order;
//! - a batched hit applied after another thread evicted its track counts
//!   as the caller's hit and does not re-admit the track (interleaving
//!   forced with barriers);
//! - hit threads racing a thread that forces evictions leave the global
//!   and per-pool counters balanced, residency within capacity, and no
//!   admission that some touch did not count as its miss;
//! - two caches on one thread never mix their batches;
//! - with a fault plan, every touch takes the lock, as before.

use blog_spd::{CostModel, FaultPlan, Geometry, PolicyKind, TrackCache, TrackId};

/// Eight tracks, one block each.
const GEOMETRY: Geometry = Geometry {
    n_sps: 2,
    n_cylinders: 4,
    blocks_per_track: 1,
};

fn cache(policy: PolicyKind, capacity: usize) -> TrackCache {
    TrackCache::new(policy, capacity, GEOMETRY, CostModel::default())
}

fn track(i: u32) -> TrackId {
    TrackId {
        sp: i % GEOMETRY.n_sps,
        cylinder: i / GEOMETRY.n_sps,
    }
}

fn acquisitions(cache: &TrackCache) -> u64 {
    cache.lock_stats().0
}

#[test]
fn resident_hits_take_one_lock_per_batch() {
    for n in [1u64, 63, 64, 65, 1_000] {
        let cache = cache(PolicyKind::Lru, 2);
        assert!(!cache.try_touch(track(0), Some(0)).unwrap().hit);
        assert!(!cache.try_touch(track(1), Some(0)).unwrap().hit);
        let before = acquisitions(&cache);
        for _ in 0..n {
            assert!(cache.try_touch(track(0), Some(0)).unwrap().hit);
        }
        cache.flush();
        let taken = acquisitions(&cache) - before;
        assert!(taken <= n.div_ceil(64) + 1, "{n} hits took {taken} locks");
        let s = cache.stats();
        assert_eq!((s.accesses, s.hits, s.misses), (n + 2, n, 2), "{n} hits");
        assert_eq!(cache.pool_stats(0).hits, n);
        // The batched hits reached the policy: they made track 0 the most
        // recently used, so the next miss evicts track 1 and keeps 0.
        assert!(!cache.try_touch(track(2), None).unwrap().hit);
        assert!(
            cache.try_touch(track(0), None).unwrap().hit,
            "{n} hits: track 0 kept"
        );
        assert!(
            !cache.try_touch(track(1), None).unwrap().hit,
            "{n} hits: track 1 evicted"
        );
    }
}

#[test]
fn stats_reads_include_the_readers_own_batched_hits() {
    let cache = cache(PolicyKind::TwoQ, 2);
    cache.try_touch(track(0), None).unwrap();
    cache.try_touch(track(0), None).unwrap();
    assert_eq!(cache.stats().hits, 1, "stats() flushes first");
    cache.try_touch(track(0), Some(3)).unwrap();
    assert_eq!(cache.pool_stats(3).hits, 1, "pool_stats() flushes first");
    assert_eq!(cache.resident_tracks(), 1);
}

#[test]
fn a_hit_applied_after_its_track_was_evicted_does_not_readmit_it() {
    use std::sync::Barrier;
    let cache = cache(PolicyKind::Lru, 2);
    cache.try_touch(track(0), None).unwrap();
    cache.try_touch(track(1), None).unwrap();
    let (hit_seen, evicted) = (Barrier::new(2), Barrier::new(2));
    std::thread::scope(|scope| {
        scope.spawn(|| {
            assert!(cache.try_touch(track(0), Some(0)).unwrap().hit);
            hit_seen.wait();
            evicted.wait();
            cache.flush();
        });
        scope.spawn(|| {
            hit_seen.wait();
            // Two misses push tracks 0 and 1 out of the 2-track cache
            // while the first thread still holds its hit on track 0.
            cache.try_touch(track(2), Some(1)).unwrap();
            cache.try_touch(track(3), Some(1)).unwrap();
            evicted.wait();
        });
    });
    let s = cache.stats();
    assert_eq!((s.accesses, s.hits, s.misses, s.evictions), (5, 1, 4, 2));
    assert_eq!(cache.pool_stats(0).hits, 1, "the hit the caller saw counts");
    assert_eq!(cache.resident_tracks(), 2);
    assert!(
        !cache.try_touch(track(0), None).unwrap().hit,
        "track 0 stayed out"
    );
}

#[test]
fn hits_racing_evictions_keep_every_counter_exact() {
    for policy in PolicyKind::ALL {
        let cache = cache(policy, 2);
        let rounds = 20_000;
        std::thread::scope(|scope| {
            let cache = &cache;
            // Two hit threads keep touching tracks 0 and 1...
            for pool in 0..2 {
                scope.spawn(move || {
                    for i in 0..rounds {
                        cache.try_touch(track(i % 2), Some(pool)).unwrap();
                    }
                    cache.flush();
                });
            }
            // ...while a third streams the other six through the cache,
            // evicting the tracks the hit threads see resident.
            scope.spawn(move || {
                for i in 0..rounds / 4 {
                    cache.try_touch(track(2 + i % 6), Some(2)).unwrap();
                }
                cache.flush();
            });
        });
        let s = cache.stats();
        let expected = 2 * rounds as u64 + rounds as u64 / 4;
        assert_eq!(s.accesses, expected, "{policy}");
        assert_eq!(s.accesses, s.hits + s.misses, "{policy}");
        let pools: Vec<_> = (0..3).map(|p| cache.pool_stats(p)).collect();
        let sum = |f: fn(&blog_spd::PoolTouchStats) -> u64| pools.iter().map(f).sum::<u64>();
        assert_eq!(sum(|p| p.accesses), s.accesses, "{policy}");
        assert_eq!(sum(|p| p.hits), s.hits, "{policy}");
        assert_eq!(sum(|p| p.misses), s.misses, "{policy}");
        assert_eq!(sum(|p| p.fault_ticks), s.fault_ticks, "{policy}");
        assert!(cache.resident_tracks() <= 2, "{policy}");
        // Every resident track is some counted miss that no counted
        // eviction has taken back.
        assert_eq!(
            s.misses,
            cache.resident_tracks() as u64 + s.evictions,
            "{policy}"
        );
    }
}

#[test]
fn two_caches_on_one_thread_keep_their_hits_apart() {
    let (a, b) = (cache(PolicyKind::Lru, 2), cache(PolicyKind::Lru, 2));
    a.try_touch(track(0), Some(0)).unwrap();
    b.try_touch(track(0), Some(0)).unwrap();
    for _ in 0..10 {
        // `a`'s hits are pending on this thread, so `b`'s lock.
        a.try_touch(track(0), Some(0)).unwrap();
        b.try_touch(track(0), Some(0)).unwrap();
    }
    assert_eq!(a.stats().hits, 10);
    assert_eq!(b.stats().hits, 10);
    assert_eq!(
        b.lock_stats().0,
        11 + 1,
        "every touch of b locked, plus the read"
    );

    // A dropped cache's pending hits leave with it: the next cache on the
    // thread batches again.
    let c = cache(PolicyKind::Lru, 2);
    c.try_touch(track(1), None).unwrap();
    c.try_touch(track(1), None).unwrap();
    drop(c);
    let d = cache(PolicyKind::Lru, 2);
    d.try_touch(track(1), None).unwrap();
    for _ in 0..10 {
        d.try_touch(track(1), None).unwrap();
    }
    assert_eq!(d.lock_stats().0, 1, "one miss; ten batched hits");
}

#[test]
fn a_fault_plan_keeps_every_touch_on_the_locked_path() {
    let cache = cache(PolicyKind::Lru, 2).with_faults(Some(FaultPlan::transient(7, 0.0)));
    for _ in 0..10 {
        cache.try_touch(track(0), None).unwrap();
    }
    assert_eq!(cache.lock_stats().0, 10);
    assert_eq!(cache.stats().hits, 9);
}
