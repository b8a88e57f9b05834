//! # blog-spd — the Semantic Paging Disk (SPD) simulator
//!
//! Section 6 of the B-LOG paper stores the clause/fact graph on "semantic
//! paging disks": moving-head disks whose per-track search processors
//! (SPs) can, against a track cached in RAM,
//!
//! 1. *search the data in a block associatively and mark the blocks*,
//! 2. *follow all pointers, or only pointers with specified names, from
//!    marked blocks to other blocks and mark them* — applied `N` times
//!    this pages in the subgraph within Hamming distance `N`, and
//! 3. *output, replace, insert and delete words in a marked block*.
//!
//! That hardware never existed, so this crate simulates it at the level
//! the paper argues about: operation counts and a tick-based cost model
//! (seeks, track loads into cache, associative operations, pointer
//! follows, word transfers). Multiple SPs run in **MIMD** mode (each on
//! its own track, cross-track pointers deferred) or **SIMD** mode (all
//! SPs on one cylinder, global block numbers resolved between SPs
//! immediately, as described in the paper). Operation 3 is modelled only
//! as the pointer-weight rewrite ([`SpdArray::update_pointer_weight`])
//! and the page's output; inserting and deleting clause blocks is
//! [`MvccClauseStore`]'s write path (assert, retract, commit), the one
//! model of block edits.
//!
//! The [`bridge`] module lays a [`ClauseDb`](blog_logic::ClauseDb) out as
//! SPD blocks — one block per Horn clause, one *named weighted pointer*
//! per figure-4 candidate arc — and [`pager`] replays clause-access
//! traces against the disk, measuring hit rates and I/O time as the
//! semantic page distance and the weight-filter threshold vary (the
//! paper's "we can decide whether we wish to retrieve another block by
//! examining these weights, before we access the block").
//!
//! Beyond the trace-replay simulator, [`mvcc`] turns the layout into the
//! *live storage backend*: [`MvccClauseStore`] owns the clauses, and a
//! [`Snapshot`] of it implements
//! [`ClauseSource`](blog_logic::ClauseSource) over a track [`cache`]
//! whose replacement algorithm is a [`policy`] seam — exact [`lru`] or
//! scan-resistant 2Q, selected by [`PolicyKind`] — so
//! the `blog-core` best-first engine resolves clauses through the cache
//! and the paging statistics reflect the search's real access stream
//! rather than a canned trace. A database that is only searched is a
//! store that stays at epoch 0. [`paged`] holds the configuration and
//! counter types the store and the cache share.

pub mod bitidx;
pub mod block;
pub mod bridge;
pub mod cache;
pub mod fault;
mod idhash;
pub mod lru;
pub mod mvcc;
pub mod paged;
pub mod pager;
pub mod policy;
pub mod spd;
pub mod timing;

pub use bitidx::{ClauseIndex, IndexCounters, IndexPolicy, IndexedCandidates};
pub use block::{Block, BlockId, NamedPointer};
pub use bridge::{build_spd_from_db, DbLayout};
pub use cache::TrackCache;
pub use fault::{FaultKind, FaultPlan, FaultScope, FaultSite};
pub use lru::{LruSet, Touch};
pub use mvcc::{CommitMode, MvccClauseStore, MvccError, MvccStats, Snapshot, WriteTxn};
pub use paged::{PagedStoreConfig, PagedStoreStats, PoolTouchStats, TouchOutcome, TrackId};
pub use pager::{Pager, PagerStats};
pub use policy::{Lru, PolicyKind, ReplacementPolicy, TwoQ};
pub use spd::{PageRequest, PageResult, SpMode, SpdArray, SpdStats};
pub use timing::{CostModel, Geometry};
