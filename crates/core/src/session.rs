//! Sessions: strong local updates, weak global merge.
//!
//! "A session is defined as a succession of queries during which no
//! permanent updating of weights is done in the global database … At the
//! end of the session the global database will be updated in a
//! 'conservative' way, e.g., no infinities will override previous
//! non-infinite weights, while other weights will be modified in the
//! direction indicated by the results of the session. … Averaging of
//! modifications over different sessions is thus achieved" (§5).

use std::collections::HashMap;

use blog_logic::{ClauseDb, PointerKey, Query};
use serde::Serialize;

use crate::engine::{best_first, BestFirstConfig, BlogResult};
use crate::weight::{Weight, WeightParams, WeightState, WeightStore, WeightView};

/// How a finished session is folded into the global database.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum MergePolicy {
    /// The paper's policy: infinities never override known finite global
    /// weights; finite weights move a fraction `num/den` of the way from
    /// the global value toward the session value.
    Conservative {
        /// Step numerator.
        num: u32,
        /// Step denominator (`num <= den`).
        den: u32,
    },
    /// Ablation: the session result simply replaces the global entry.
    Overwrite,
    /// Ablation: the session is thrown away (global never learns).
    Discard,
}

impl MergePolicy {
    /// The paper-faithful default: half-step averaging.
    pub fn conservative_half() -> MergePolicy {
        MergePolicy::Conservative { num: 1, den: 2 }
    }
}

/// What a merge did (for the T3 experiment's bookkeeping).
#[derive(Clone, Copy, Default, Debug, Serialize)]
pub struct MergeReport {
    /// Finite weights stepped toward the session value.
    pub stepped: usize,
    /// Session infinities that were *not* applied because the global entry
    /// held a known finite weight.
    pub infinities_blocked: usize,
    /// Session infinities applied (global entry was untouched).
    pub infinities_set: usize,
    /// Global infinities cleared by session success evidence.
    pub infinities_cleared: usize,
}

/// One session: the local overlay of strongly-updated weights.
#[derive(Default, Debug)]
pub struct Session {
    /// The session-local weight overlay.
    pub local: HashMap<PointerKey, WeightState>,
    /// Queries run so far in this session.
    pub queries_run: usize,
}

/// Owns the global weight database and runs queries inside sessions.
#[derive(Debug)]
pub struct SessionManager {
    global: WeightStore,
}

impl SessionManager {
    /// A manager with an empty global database.
    pub fn new(params: WeightParams) -> SessionManager {
        SessionManager {
            global: WeightStore::new(params),
        }
    }

    /// Wrap an existing global database.
    pub fn with_store(global: WeightStore) -> SessionManager {
        SessionManager { global }
    }

    /// The global database (read-only).
    pub fn global(&self) -> &WeightStore {
        &self.global
    }

    /// The coding parameters.
    pub fn params(&self) -> WeightParams {
        self.global.params()
    }

    /// Start a session. The overlay starts empty: the session initially
    /// sees exactly the global weights.
    pub fn begin_session(&self) -> Session {
        Session::default()
    }

    /// Run one query inside `session`, strongly updating the overlay.
    pub fn query(
        &self,
        session: &mut Session,
        db: &ClauseDb,
        query: &Query,
        config: &BestFirstConfig,
    ) -> BlogResult {
        session.queries_run += 1;
        let mut view = WeightView::new(&mut session.local, &self.global);
        best_first(db, query, &mut view, config)
    }

    /// End a session, folding its overlay into the global database.
    pub fn end_session(&mut self, session: Session, policy: MergePolicy) -> MergeReport {
        let params = self.global.params();
        let mut report = MergeReport::default();
        if matches!(policy, MergePolicy::Discard) {
            return report;
        }
        for (key, local_state) in session.local {
            let global_state = self.global.get(key);
            match policy {
                MergePolicy::Overwrite => {
                    self.global.set(key, local_state);
                    report.stepped += 1;
                }
                MergePolicy::Conservative { num, den } => {
                    merge_conservative(
                        &mut self.global,
                        params,
                        key,
                        local_state,
                        global_state,
                        num,
                        den,
                        &mut report,
                    );
                }
                MergePolicy::Discard => unreachable!("handled above"),
            }
        }
        report
    }
}

#[allow(clippy::too_many_arguments)]
fn merge_conservative(
    global: &mut WeightStore,
    params: WeightParams,
    key: PointerKey,
    local_state: WeightState,
    global_state: WeightState,
    num: u32,
    den: u32,
    report: &mut MergeReport,
) {
    debug_assert!(den > 0 && num <= den, "merge step must be a fraction <= 1");
    match (local_state, global_state) {
        (WeightState::Unknown, _) => {}
        (WeightState::Infinite, WeightState::Known(_)) => {
            // "no infinities will override previous non-infinite weights"
            report.infinities_blocked += 1;
        }
        (WeightState::Infinite, WeightState::Infinite) => {}
        (WeightState::Infinite, WeightState::Unknown) => {
            global.set(key, WeightState::Infinite);
            report.infinities_set += 1;
        }
        (WeightState::Known(w), g) => {
            if g == WeightState::Infinite {
                // Success through a globally-infinite arc is decisive
                // evidence the infinity was wrong; adopt the new weight.
                global.set(key, WeightState::Known(w));
                report.infinities_cleared += 1;
                return;
            }
            // Step from the global effective value toward the session's.
            let from = g.effective(params).0 as i64;
            let to = w.0 as i64;
            let stepped = from + (to - from) * num as i64 / den as i64;
            global.set(key, WeightState::Known(Weight(stepped.max(0) as u32)));
            report.stepped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blog_logic::{Caller, ClauseId};

    fn key(t: u32) -> PointerKey {
        PointerKey {
            caller: Caller::Query,
            goal_idx: 0,
            target: ClauseId(t),
        }
    }

    fn manager() -> SessionManager {
        SessionManager::new(WeightParams::default())
    }

    #[test]
    fn infinity_does_not_override_known_global() {
        let mut mgr = manager();
        // Global knows key(0) finitely.
        let mut seed = mgr.begin_session();
        seed.local.insert(key(0), WeightState::Known(Weight::ONE));
        mgr.end_session(seed, MergePolicy::Overwrite);

        let mut s = mgr.begin_session();
        s.local.insert(key(0), WeightState::Infinite);
        let report = mgr.end_session(s, MergePolicy::conservative_half());
        assert_eq!(report.infinities_blocked, 1);
        assert_eq!(mgr.global().get(key(0)), WeightState::Known(Weight::ONE));
    }

    #[test]
    fn infinity_applies_over_unknown_global() {
        let mut mgr = manager();
        let mut s = mgr.begin_session();
        s.local.insert(key(1), WeightState::Infinite);
        let report = mgr.end_session(s, MergePolicy::conservative_half());
        assert_eq!(report.infinities_set, 1);
        assert_eq!(mgr.global().get(key(1)), WeightState::Infinite);
    }

    #[test]
    fn known_steps_halfway_from_unknown_baseline() {
        let mut mgr = manager();
        let params = mgr.params();
        let mut s = mgr.begin_session();
        s.local.insert(key(2), WeightState::Known(Weight::ZERO));
        mgr.end_session(s, MergePolicy::conservative_half());
        // From the unknown baseline (N+1) halfway toward 0.
        let expect = params.unknown_weight().0 / 2;
        match mgr.global().get(key(2)) {
            WeightState::Known(w) => assert_eq!(w.0, expect),
            other => panic!("expected Known, got {other:?}"),
        }
    }

    #[test]
    fn repeated_sessions_converge_geometrically() {
        let mut mgr = manager();
        let target = Weight::from_bits_int(2);
        for _ in 0..12 {
            let mut s = mgr.begin_session();
            s.local.insert(key(3), WeightState::Known(target));
            mgr.end_session(s, MergePolicy::conservative_half());
        }
        match mgr.global().get(key(3)) {
            WeightState::Known(w) => {
                let err = (w.0 as i64 - target.0 as i64).abs();
                assert!(err <= 4, "weight {w:?} far from target {target:?}");
            }
            other => panic!("expected Known, got {other:?}"),
        }
    }

    #[test]
    fn success_evidence_clears_global_infinity() {
        let mut mgr = manager();
        let mut s0 = mgr.begin_session();
        s0.local.insert(key(4), WeightState::Infinite);
        mgr.end_session(s0, MergePolicy::conservative_half());

        let mut s1 = mgr.begin_session();
        s1.local.insert(key(4), WeightState::Known(Weight::ONE));
        let report = mgr.end_session(s1, MergePolicy::conservative_half());
        assert_eq!(report.infinities_cleared, 1);
        assert_eq!(mgr.global().get(key(4)), WeightState::Known(Weight::ONE));
    }

    #[test]
    fn discard_changes_nothing() {
        let mut mgr = manager();
        let mut s = mgr.begin_session();
        s.local.insert(key(5), WeightState::Known(Weight::ONE));
        s.local.insert(key(6), WeightState::Infinite);
        let report = mgr.end_session(s, MergePolicy::Discard);
        assert_eq!(report.stepped + report.infinities_set, 0);
        assert!(mgr.global().is_empty());
    }

    #[test]
    fn overwrite_adopts_session_values_verbatim() {
        let mut mgr = manager();
        let mut s = mgr.begin_session();
        s.local.insert(key(7), WeightState::Known(Weight::ONE));
        s.local.insert(key(8), WeightState::Infinite);
        mgr.end_session(s, MergePolicy::Overwrite);
        assert_eq!(mgr.global().get(key(7)), WeightState::Known(Weight::ONE));
        assert_eq!(mgr.global().get(key(8)), WeightState::Infinite);
    }

    #[test]
    fn query_runs_update_overlay_not_global() {
        let mgr = manager();
        let p = blog_logic::parse_program(
            "
            p(X) :- a(X).
            a(1).
            ?- p(X).
        ",
        )
        .unwrap();
        let mut s = mgr.begin_session();
        let r = mgr.query(&mut s, &p.db, &p.queries[0], &BestFirstConfig::default());
        assert_eq!(r.solutions.len(), 1);
        assert!(!s.local.is_empty(), "success should have learned weights");
        assert!(
            mgr.global().is_empty(),
            "global must be untouched mid-session"
        );
        assert_eq!(s.queries_run, 1);
    }

    #[test]
    fn new_session_starts_from_global_initial_condition() {
        let mut mgr = manager();
        let p = blog_logic::parse_program(
            "
            gf(X,Z) :- f(X,Y), f(Y,Z).
            gf(X,Z) :- f(X,Y), m(Y,Z).
            f(sam,larry). f(larry,den).
            m(peg,den).
            ?- gf(sam,G).
        ",
        )
        .unwrap();
        let cfg = BestFirstConfig::default();
        // Session 1 learns; merge conservatively.
        let mut s1 = mgr.begin_session();
        let cold = mgr.query(&mut s1, &p.db, &p.queries[0], &cfg);
        mgr.end_session(s1, MergePolicy::conservative_half());
        // Session 2 starts fresh but benefits from the merged weights.
        let mut s2 = mgr.begin_session();
        let warm = mgr.query(&mut s2, &p.db, &p.queries[0], &cfg);
        assert!(warm.stats.nodes_expanded <= cold.stats.nodes_expanded);
    }
}
