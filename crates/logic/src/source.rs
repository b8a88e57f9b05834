//! The clause-resolution abstraction every engine searches through.
//!
//! The paper's machine does not hold the whole program in processor
//! memory: clauses live on Semantic Paging Disks and are faulted in as the
//! search touches them (§6). [`ClauseSource`] is the software seam for
//! that: [`try_expand_via`](crate::node::try_expand_via) resolves goals
//! through this trait, so the same engine runs against the in-memory
//! [`ClauseDb`] or against the paged store (a `Snapshot` of `blog-spd`'s
//! `MvccClauseStore`) that counts cache hits, misses, and evictions as
//! the search streams over it.
//!
//! Every access has one spelling and it is fallible: a store fault is a
//! [`StoreError`] value the caller classifies, never a panic.
//!
//! Implementations must be *semantically transparent*: the clauses and
//! candidate lists returned must be identical to the backing database's,
//! whatever bookkeeping happens underneath. The property tests in
//! `blog-spd` assert exactly that.

use std::borrow::Cow;
use std::fmt;

use crate::bindings::BindingLookup;
use crate::clause::{Clause, ClauseId};
use crate::store::ClauseDb;
use crate::term::Term;

/// How a storage fault should be treated by whoever observes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreErrorKind {
    /// The access failed this time but may succeed if reissued — a
    /// dropped page read, a timed-out seek. Retryable.
    Transient,
    /// The underlying medium is damaged at this address: every retry
    /// will fail the same way. Not retryable.
    Permanent,
}

/// A typed storage failure surfaced by a fallible [`ClauseSource`].
///
/// Fault-free backends never construct one; the paged store in
/// `blog-spd` returns them when a configured fault plan fires (or a
/// clause id is not held by the pinned epoch), and the
/// serving layer decides between retrying ([`StoreErrorKind::Transient`])
/// and failing the request ([`StoreErrorKind::Permanent`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreError {
    /// Retryability class of the failure.
    pub kind: StoreErrorKind,
    /// Human-readable site description (e.g. `"transient read fault at
    /// track 12"`), for logs and `Outcome::Failed` payloads.
    pub detail: String,
}

impl StoreError {
    /// A retryable fault at the described site.
    pub fn transient(detail: impl Into<String>) -> Self {
        StoreError {
            kind: StoreErrorKind::Transient,
            detail: detail.into(),
        }
    }

    /// A non-retryable fault at the described site.
    pub fn permanent(detail: impl Into<String>) -> Self {
        StoreError {
            kind: StoreErrorKind::Permanent,
            detail: detail.into(),
        }
    }

    /// Whether a retry of the failed access could succeed.
    pub fn is_transient(&self) -> bool {
        self.kind == StoreErrorKind::Transient
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            StoreErrorKind::Transient => write!(f, "transient store fault: {}", self.detail),
            StoreErrorKind::Permanent => write!(f, "permanent store fault: {}", self.detail),
        }
    }
}

impl std::error::Error for StoreError {}

/// Backend-agnostic access counters a [`ClauseSource`] may expose.
///
/// Cache-backed sources (the paged clause store, with any of its
/// replacement policies) report their clause-fetch behavior here so
/// experiment harnesses can read hit rates through the trait without
/// knowing the backend type. Plain in-memory sources report nothing.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct SourceStats {
    /// Clause fetches routed through the source.
    pub accesses: u64,
    /// Fetches served without touching the backing store.
    pub hits: u64,
    /// Fetches that had to fault data in.
    pub misses: u64,
    /// Cached units evicted to make room.
    pub evictions: u64,
}

impl SourceStats {
    /// Hit rate in `[0, 1]` (zero when nothing was accessed).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        self.hits as f64 / self.accesses as f64
    }
}

/// A source of clauses and figure-4 candidate lists.
///
/// Methods take `&self`: backends that track access statistics (page
/// caches, tracers) use interior mutability, which keeps every search
/// engine oblivious to the bookkeeping. The `Sync` bound makes that
/// contract honest — a source must be shareable across threads, because
/// the OR-parallel engine's workers and the query server's pools all
/// resolve through **one** store at once (interior mutability therefore
/// means a lock, atomics or per-thread state, never a shared `Cell`).
pub trait ClauseSource: Sync {
    /// Fetch a clause block. For paged backends this is *the* accounted
    /// access: one call is one block touch. Fault-free backends
    /// (everything except a store with an active fault plan, or a
    /// snapshot asked for an id its epoch does not hold) always return
    /// `Ok`.
    fn try_fetch_clause(&self, id: ClauseId) -> Result<&Clause, StoreError>;

    /// Candidate resolvers for a goal, in program order. [`ClauseDb`]
    /// returns the figure-4 predicate list as stored; an indexed backend
    /// (the paged store under `IndexPolicy::FirstArg`) may drop clauses
    /// whose head cannot match the goal's first argument, dereferenced
    /// through `bindings` — any binding representation, so the same
    /// backend serves cloned-store and frame-chain searches. Fault-free
    /// backends always return `Ok`; backends whose index consults storage
    /// may surface a [`StoreError`] under an active fault plan.
    fn try_candidate_clauses<'a>(
        &'a self,
        goal: &Term,
        bindings: &dyn BindingLookup,
    ) -> Result<Cow<'a, [ClauseId]>, StoreError>;

    /// Number of clause blocks in the source.
    fn clause_count(&self) -> usize;

    /// Short description of the backend serving fetches, for experiment
    /// tables — e.g. `"clause-db"` or `"paged/2q"`.
    fn backend_name(&self) -> String {
        "clause-db".to_string()
    }

    /// Access counters, for backends that meter fetches (`None` for
    /// plain in-memory sources).
    fn source_stats(&self) -> Option<SourceStats> {
        None
    }

    /// Apply whatever access bookkeeping the calling thread has deferred
    /// (the paged store batches resident hits per thread). A thread that
    /// searched through a shared source calls this when it stops, so the
    /// source's counters include its accesses; a no-op for sources that
    /// defer nothing.
    fn flush_deferred(&self) {}
}

impl ClauseSource for ClauseDb {
    #[inline]
    fn try_fetch_clause(&self, id: ClauseId) -> Result<&Clause, StoreError> {
        Ok(self.clause(id))
    }

    #[inline]
    fn try_candidate_clauses<'a>(
        &'a self,
        goal: &Term,
        _bindings: &dyn BindingLookup,
    ) -> Result<Cow<'a, [ClauseId]>, StoreError> {
        Ok(Cow::Borrowed(self.candidates_for(goal)))
    }

    #[inline]
    fn clause_count(&self) -> usize {
        self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindings::Bindings;
    use crate::parser::parse_program;

    #[test]
    fn clause_db_is_a_transparent_source() {
        let p = parse_program("p(a). p(b). q(X) :- p(X).").unwrap();
        let db = &p.db;
        assert_eq!(db.clause_count(), db.len());
        for i in 0..db.len() {
            let id = ClauseId(i as u32);
            assert_eq!(db.try_fetch_clause(id).unwrap().head, db.clause(id).head);
        }
        let q_goal = p.db.clause(ClauseId(2)).body[0].clone();
        let b = Bindings::new();
        assert_eq!(
            db.try_candidate_clauses(&q_goal, &b).unwrap().as_ref(),
            db.candidates_for(&q_goal)
        );
    }

    #[test]
    fn in_memory_source_reports_no_stats() {
        let p = parse_program("p(a).").unwrap();
        assert_eq!(p.db.backend_name(), "clause-db");
        assert_eq!(p.db.source_stats(), None);
    }

    #[test]
    fn fallible_surface_is_ok_on_fault_free_sources() {
        let p = parse_program("p(a). p(b). q(X) :- p(X).").unwrap();
        let db = &p.db;
        let b = Bindings::new();
        let q_goal = p.db.clause(ClauseId(2)).body[0].clone();
        assert_eq!(
            db.try_fetch_clause(ClauseId(0)).unwrap().head,
            db.clause(ClauseId(0)).head
        );
        assert_eq!(
            db.try_candidate_clauses(&q_goal, &b).unwrap().as_ref(),
            db.candidates_for(&q_goal)
        );
    }

    #[test]
    fn store_error_classification_and_display() {
        let t = StoreError::transient("read fault at track 3");
        let p = StoreError::permanent("track 7 damaged");
        assert!(t.is_transient());
        assert!(!p.is_transient());
        assert_eq!(
            t.to_string(),
            "transient store fault: read fault at track 3"
        );
        assert_eq!(p.to_string(), "permanent store fault: track 7 damaged");
        assert_eq!(t.kind, StoreErrorKind::Transient);
        assert_eq!(p.kind, StoreErrorKind::Permanent);
    }

    #[test]
    fn source_stats_hit_rate() {
        let s = SourceStats {
            accesses: 8,
            hits: 6,
            misses: 2,
            evictions: 1,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(SourceStats::default().hit_rate(), 0.0);
    }
}
