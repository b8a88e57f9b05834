//! Churn workloads: seeded assert/retract streams over a tenant mix.
//!
//! The serving story so far treats the clause base as frozen; the MVCC
//! write path makes it *live*. This module generates the update half of
//! that workload: a deterministic stream of [`ChurnUpdate`]s against the
//! merged [`tenant_mix_program`](crate::tenant_mix_program) database —
//! each one either **asserts** a fresh `t<k>_f/2` fact (with a
//! brand-new child constant, so the update lane's symbol interning is
//! genuinely exercised) or **retracts** a currently-live fact of the
//! same tenant.
//!
//! The generator tracks clause-id allocation the same way the store
//! does (dense ids, never reused, one per asserted clause), so every
//! retract in the stream targets a clause that is provably alive when
//! the updates are applied *in order* by a single update lane. That
//! makes the stream replayable against both the real
//! `MvccClauseStore` and a brute-force oracle, which is exactly what
//! the churn test suites diff.

use blog_logic::{ClauseDb, ClauseId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::family::FamilyMeta;

/// Parameters for [`churn_updates`].
#[derive(Clone, Copy, Debug)]
pub struct ChurnSpec {
    /// Number of update transactions to generate.
    pub n_updates: usize,
    /// Ops per update (each update commits as one atomic transaction).
    pub ops_per_update: usize,
    /// Probability an op is an assert (the rest are retracts; a tenant
    /// with no live facts left always asserts).
    pub assert_share: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ChurnSpec {
    fn default() -> Self {
        ChurnSpec {
            n_updates: 16,
            ops_per_update: 2,
            assert_share: 0.6,
            seed: 1,
        }
    }
}

/// One mutation in a churn stream.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ChurnOp {
    /// Assert this clause text (always a single fact, ending in `.`).
    Assert {
        /// Fact source text, e.g. `"t1_f(p2_3,fresh7)."`.
        text: String,
    },
    /// Retract this clause (alive at this point of the stream).
    Retract {
        /// The clause to retract.
        id: ClauseId,
    },
}

/// One update transaction: a tenant's batch of ops.
#[derive(Clone, Debug)]
pub struct ChurnUpdate {
    /// The tenant whose working set this update touches.
    pub tenant: usize,
    /// The ops, applied in order inside one transaction.
    pub ops: Vec<ChurnOp>,
}

/// Generate a deterministic churn stream against the merged tenant-mix
/// database `db` (`metas` as returned by
/// [`tenant_mix_program`](crate::tenant_mix_program)).
///
/// Asserts attach a fresh child (constants `fresh0`, `fresh1`, … — new
/// symbols by construction) to a random person that already has
/// children-with-children, so every assert adds at least one new
/// `t<k>_gf` answer once committed. Retracts target a uniformly random
/// *live* `t<k>_f/2` fact of the update's tenant — seed facts and
/// earlier churn asserts alike.
///
/// # Panics
/// Panics if `db` contains none of the expected `t<k>_f` predicates.
pub fn churn_updates(db: &ClauseDb, metas: &[FamilyMeta], spec: &ChurnSpec) -> Vec<ChurnUpdate> {
    assert!(!metas.is_empty(), "need at least one tenant");
    assert!(spec.ops_per_update >= 1, "updates need at least one op");
    let n_tenants = metas.len();

    // Live f/2 facts per tenant, tracked exactly as the store allocates
    // ids: dense, never reused.
    let mut alive: Vec<Vec<(ClauseId, String, String)>> = vec![Vec::new(); n_tenants];
    for (t, tenant_alive) in alive.iter_mut().enumerate() {
        let pred = db
            .sym(&format!("t{t}_f"))
            .unwrap_or_else(|| panic!("db has no t{t}_f predicate — not a tenant mix?"));
        for &cid in db.resolvers((pred, 2)) {
            if db.clause(cid).body.is_empty() {
                tenant_alive.push((cid, String::new(), String::new()));
            }
        }
        assert!(!tenant_alive.is_empty(), "tenant {t} has no f/2 facts");
    }

    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut next_id = db.len() as u32;
    let mut fresh = 0usize;
    let mut out = Vec::with_capacity(spec.n_updates);
    for _ in 0..spec.n_updates {
        let tenant = rng.gen_range(0..n_tenants);
        let mut ops = Vec::with_capacity(spec.ops_per_update);
        for _ in 0..spec.ops_per_update {
            let must_assert = alive[tenant].is_empty();
            if must_assert || rng.gen::<f64>() < spec.assert_share {
                // New children go under persons that already have
                // grandchildren, so the tenant's gf queries see the
                // churn: pick a *child* of a random grandparent-capable
                // generation person.
                let persons = &metas[tenant].persons;
                let gen = rng.gen_range(1..persons.len().saturating_sub(1).max(2));
                let pool = &persons[gen.min(persons.len() - 1)];
                let parent = &pool[rng.gen_range(0..pool.len())];
                let child = format!("fresh{fresh}");
                fresh += 1;
                let text = format!("t{tenant}_f({parent},{child}).");
                ops.push(ChurnOp::Assert { text });
                alive[tenant].push((ClauseId(next_id), parent.clone(), child));
                next_id += 1;
            } else {
                let i = rng.gen_range(0..alive[tenant].len());
                let (id, _, _) = alive[tenant].swap_remove(i);
                ops.push(ChurnOp::Retract { id });
            }
        }
        out.push(ChurnUpdate { tenant, ops });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sessions::{tenant_mix_program, TenantMix};
    use std::collections::HashSet;

    fn mix() -> TenantMix {
        TenantMix {
            n_tenants: 2,
            queries_per_tenant: 4,
            ..TenantMix::default()
        }
    }

    #[test]
    fn deterministic_per_seed_and_seed_sensitive() {
        let (p, metas) = tenant_mix_program(&mix());
        let spec = ChurnSpec::default();
        let a = churn_updates(&p.db, &metas, &spec);
        let b = churn_updates(&p.db, &metas, &spec);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = churn_updates(&p.db, &metas, &ChurnSpec { seed: 9, ..spec });
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn retracts_always_target_live_clauses() {
        let (p, metas) = tenant_mix_program(&mix());
        let spec = ChurnSpec {
            n_updates: 64,
            ops_per_update: 3,
            assert_share: 0.3,
            seed: 5,
        };
        // Replay the stream against a model of dense id allocation.
        let mut live: HashSet<u32> = (0..p.db.len() as u32).collect();
        let mut next = p.db.len() as u32;
        let mut retracts = 0;
        for u in churn_updates(&p.db, &metas, &spec) {
            for op in &u.ops {
                match op {
                    ChurnOp::Assert { text } => {
                        assert!(text.starts_with(&format!("t{}_f(", u.tenant)), "{text}");
                        live.insert(next);
                        next += 1;
                    }
                    ChurnOp::Retract { id } => {
                        assert!(live.remove(&id.0), "retract of dead clause {id:?}");
                        retracts += 1;
                    }
                }
            }
        }
        assert!(retracts > 0, "assert_share 0.3 must produce retracts");
    }

    #[test]
    fn asserted_constants_are_new_symbols() {
        let (p, metas) = tenant_mix_program(&mix());
        let updates = churn_updates(&p.db, &metas, &ChurnSpec::default());
        let mut symbols = p.db.symbols().clone();
        let before = symbols.len();
        let mut asserts = 0;
        for u in &updates {
            for op in &u.ops {
                if let ChurnOp::Assert { text } = op {
                    let clauses = blog_logic::parse_clauses_interning(&mut symbols, text).unwrap();
                    assert_eq!(clauses.len(), 1);
                    asserts += 1;
                }
            }
        }
        assert!(asserts > 0);
        assert!(
            symbols.len() > before,
            "fresh child constants must extend the symbol table"
        );
    }
}
