//! Session workloads: sequences of similar queries.
//!
//! "Especially where a user tries a second and third query that is
//! similar to the first one with some minor changes, later searches
//! should become more efficient" (§5). A [`SessionSpec`] produces exactly
//! that shape: a random walk over query subjects where each step repeats
//! the previous subject with probability `1 - drift` and jumps to a fresh
//! one with probability `drift`.
//!
//! [`TenantMix`] lifts the same shape to a *population*: many tenants,
//! each running its own drifting §5 session over its own **disjoint**
//! clause working set (per-tenant predicate namespaces — see
//! [`family_source`]), with query texts
//! emitted in burst-interleaved arrival order. This is the offered load
//! a multi-session query server schedules; whether the server's routing
//! keeps each tenant's warm tracks warm is what the serve crate's
//! `tenant_mix_warm_requests_hit_at_least_as_often_as_cold_ones` test
//! checks.

use blog_logic::{parse_program, parse_query, ClauseDb, Program, Query};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::family::{family_source, FamilyMeta, FamilyParams};

/// Parameters for [`session_queries`].
#[derive(Clone, Debug)]
pub struct SessionSpec {
    /// Number of queries in the session.
    pub n_queries: usize,
    /// Probability that a query switches to a new random subject
    /// (0 = the same query repeated, 1 = unrelated queries every time).
    pub drift: f64,
    /// The queried predicate (`gf` for grandfather queries, `ggf` for the
    /// deep-rule great-grandfather queries).
    pub predicate: &'static str,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SessionSpec {
    fn default() -> Self {
        SessionSpec {
            n_queries: 16,
            drift: 0.2,
            predicate: "gf",
            seed: 1,
        }
    }
}

/// Generate a session of `gf(<subject>, G)` queries over `subjects`
/// (typically [`FamilyMeta::grandparents`](crate::family::FamilyMeta::grandparents)).
///
/// Returns the parsed queries plus the index of the subject used by each
/// (so experiments can correlate cost with repetition).
pub fn session_queries(
    db: &mut ClauseDb,
    subjects: &[&str],
    spec: &SessionSpec,
) -> (Vec<Query>, Vec<usize>) {
    assert!(!subjects.is_empty(), "need at least one query subject");
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut queries = Vec::with_capacity(spec.n_queries);
    let mut subject_trace = Vec::with_capacity(spec.n_queries);
    let mut current = rng.gen_range(0..subjects.len());
    for _ in 0..spec.n_queries {
        if rng.gen::<f64>() < spec.drift {
            current = rng.gen_range(0..subjects.len());
        }
        let text = format!("{}({}, G)", spec.predicate, subjects[current]);
        let q = parse_query(db, &text).expect("generated session query parses");
        queries.push(q);
        subject_trace.push(current);
    }
    (queries, subject_trace)
}

/// Parameters for the multi-tenant traffic generator.
///
/// Each of `n_tenants` tenants owns a private family tree (predicates
/// `t<k>_gf`, `t<k>_f`, … — disjoint working sets by construction) and
/// runs a drifting [`SessionSpec`]-style walk over its own query
/// subjects. Queries are *mixed-predicate*: with `deep_share > 0` (and
/// `family.deep_rules` on) a step asks the five-arc-deep `t<k>_ggf`
/// instead of `t<k>_gf`, so a tenant's stream is not one predicate
/// repeated but a mix over one working set — the "similar query with
/// some minor changes" of §5.
#[derive(Clone, Debug)]
pub struct TenantMix {
    /// Number of tenants (disjoint working sets).
    pub n_tenants: usize,
    /// Shape of each tenant's family tree (the tenant index is folded
    /// into the seed, so trees differ in mother placement).
    pub family: FamilyParams,
    /// Queries each tenant issues over the whole run.
    pub queries_per_tenant: usize,
    /// Probability a step jumps to a fresh subject (see [`SessionSpec`]).
    pub drift: f64,
    /// Fraction of steps that ask the deep `ggf` predicate (requires
    /// `family.deep_rules`; clamped to 0 otherwise).
    pub deep_share: f64,
    /// Consecutive queries one tenant contributes before the arrival
    /// stream moves to the next tenant — the "second and third query"
    /// burst. Arrival order round-robins bursts across tenants until
    /// every stream is drained.
    pub burst: usize,
    /// Zipf skew over tenants. `None` (the default) keeps the classic
    /// round-robin burst interleave where every tenant issues exactly
    /// `queries_per_tenant` queries. `Some(s)` draws each burst's tenant
    /// from a Zipf distribution over tenant rank (`P(t) ∝ 1/(t+1)^s`):
    /// tenant 0 is the hot tenant issuing most of the traffic, the tail
    /// tenants stay cold — the repeated-query-heavy population an answer
    /// cache feeds on. The total request count is unchanged
    /// (`n_tenants × queries_per_tenant`); only its split across tenants
    /// skews.
    pub zipf_s: Option<f64>,
    /// RNG seed for subject walks and predicate choice.
    pub seed: u64,
}

impl Default for TenantMix {
    fn default() -> Self {
        TenantMix {
            n_tenants: 4,
            family: FamilyParams {
                generations: 3,
                branching: 3,
                ..FamilyParams::default()
            },
            queries_per_tenant: 16,
            drift: 0.25,
            deep_share: 0.0,
            burst: 3,
            zipf_s: None,
            seed: 1,
        }
    }
}

/// One generated request: which tenant asked, and the query text to be
/// parsed against the merged program's database (e.g. `t2_gf(p1_3, G)`).
#[derive(Clone, Debug)]
pub struct TenantRequest {
    /// Tenant index in `0..n_tenants`.
    pub tenant: usize,
    /// Query text (parse with
    /// [`parse_query_shared`](blog_logic::parse_query_shared)).
    pub text: String,
    /// Subject index within the tenant's subject pool (for correlating
    /// cost with repetition, as [`session_queries`] does).
    pub subject: usize,
    /// Whether this step asked the deep `ggf` predicate.
    pub deep: bool,
}

/// Build the merged multi-tenant program: every tenant's prefixed family
/// clauses concatenated into **one** clause database (one paged store),
/// plus each tenant's [`FamilyMeta`] for subject pools.
pub fn tenant_mix_program(mix: &TenantMix) -> (Program, Vec<FamilyMeta>) {
    assert!(mix.n_tenants >= 1, "need at least one tenant");
    assert!(
        mix.family.generations >= 2,
        "tenants need grandparents to query"
    );
    let mut src = String::new();
    let mut metas = Vec::with_capacity(mix.n_tenants);
    for t in 0..mix.n_tenants {
        let params = FamilyParams {
            seed: mix.family.seed.wrapping_add(t as u64),
            ..mix.family
        };
        let (tenant_src, meta) = family_source(&params, &format!("t{t}_"));
        src.push_str(&tenant_src);
        metas.push(meta);
    }
    let program = parse_program(&src).expect("generated tenant mix parses");
    (program, metas)
}

/// One tenant's drifting subject walk, generated a query at a time (so
/// Zipf arrival schedules can draw on one tenant far past
/// `queries_per_tenant` without pregenerating everything).
struct TenantWalker<'a> {
    tenant: usize,
    rng: SmallRng,
    subjects: Vec<&'a str>,
    deep_subjects: Vec<&'a str>,
    drift: f64,
    deep_share: f64,
    current: usize,
}

impl<'a> TenantWalker<'a> {
    fn new(mix: &TenantMix, t: usize, meta: &'a FamilyMeta, deep_share: f64) -> TenantWalker<'a> {
        let mut rng = SmallRng::seed_from_u64(mix.seed.wrapping_add(0x9E37 * t as u64));
        let subjects = meta.grandparents();
        assert!(!subjects.is_empty());
        let current = rng.gen_range(0..subjects.len());
        TenantWalker {
            tenant: t,
            rng,
            subjects,
            deep_subjects: meta.great_grandparents(),
            drift: mix.drift,
            deep_share,
            current,
        }
    }

    fn next(&mut self) -> TenantRequest {
        if self.rng.gen::<f64>() < self.drift {
            self.current = self.rng.gen_range(0..self.subjects.len());
        }
        let deep = !self.deep_subjects.is_empty() && self.rng.gen::<f64>() < self.deep_share;
        let t = self.tenant;
        let (pred, subject_idx, subject) = if deep {
            // Great-grandparents are a prefix of the grandparent pool,
            // so the walk index folds onto it.
            let i = self.current % self.deep_subjects.len();
            ("ggf", i, self.deep_subjects[i])
        } else {
            ("gf", self.current, self.subjects[self.current])
        };
        TenantRequest {
            tenant: t,
            text: format!("t{t}_{pred}({subject}, G)"),
            subject: subject_idx,
            deep,
        }
    }
}

/// Generate the burst-interleaved arrival stream for `mix`.
///
/// Each tenant's subject walk is independent and deterministic in
/// `mix.seed`. With [`zipf_s`](TenantMix::zipf_s) unset, the returned
/// order is the *offered* order a server admits requests in: `burst`
/// queries from tenant 0, `burst` from tenant 1, …, wrapping until all
/// `n_tenants × queries_per_tenant` are emitted. With `zipf_s: Some(s)`,
/// each burst's tenant is instead drawn Zipf-distributed over tenant
/// rank — tenant 0 hot, the tail cold — and per-tenant counts float
/// while the total stays `n_tenants × queries_per_tenant`.
pub fn tenant_mix_requests(mix: &TenantMix, metas: &[FamilyMeta]) -> Vec<TenantRequest> {
    assert_eq!(metas.len(), mix.n_tenants, "one meta per tenant");
    assert!(mix.burst >= 1, "burst must be at least 1");
    let deep_share = if mix.family.deep_rules {
        mix.deep_share
    } else {
        0.0
    };
    let mut walkers: Vec<TenantWalker<'_>> = metas
        .iter()
        .enumerate()
        .map(|(t, meta)| TenantWalker::new(mix, t, meta, deep_share))
        .collect();
    let total = mix.n_tenants * mix.queries_per_tenant;
    let mut out = Vec::with_capacity(total);
    match mix.zipf_s {
        None => {
            // Classic round-robin bursts, each tenant capped at its
            // stream length.
            let mut remaining: Vec<usize> = vec![mix.queries_per_tenant; mix.n_tenants];
            while out.len() < total {
                for (walker, left) in walkers.iter_mut().zip(remaining.iter_mut()) {
                    let take = mix.burst.min(*left);
                    for _ in 0..take {
                        out.push(walker.next());
                    }
                    *left -= take;
                }
            }
        }
        Some(s) => {
            assert!(s > 0.0, "zipf_s must be positive");
            // Cumulative Zipf weights over tenant rank; a dedicated RNG
            // keeps the arrival schedule independent of the walks.
            let mut cum = Vec::with_capacity(mix.n_tenants);
            let mut sum = 0.0;
            for t in 0..mix.n_tenants {
                sum += 1.0 / ((t + 1) as f64).powf(s);
                cum.push(sum);
            }
            let mut arrivals = SmallRng::seed_from_u64(mix.seed.wrapping_add(0x51_7C_C1));
            while out.len() < total {
                let u: f64 = arrivals.gen::<f64>() * sum;
                let t = cum.partition_point(|&c| c < u).min(mix.n_tenants - 1);
                for _ in 0..mix.burst.min(total - out.len()) {
                    out.push(walkers[t].next());
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::family_program;

    fn db_and_subjects() -> (blog_logic::Program, Vec<String>) {
        let (p, meta) = family_program(&FamilyParams {
            generations: 3,
            branching: 2,
            ..FamilyParams::default()
        });
        let subjects: Vec<String> = meta.grandparents().iter().map(|s| s.to_string()).collect();
        (p, subjects)
    }

    #[test]
    fn zero_drift_repeats_one_subject() {
        let (mut p, subjects) = db_and_subjects();
        let refs: Vec<&str> = subjects.iter().map(String::as_str).collect();
        let spec = SessionSpec {
            n_queries: 8,
            drift: 0.0,
            seed: 5,
            ..SessionSpec::default()
        };
        let (queries, trace) = session_queries(&mut p.db, &refs, &spec);
        assert_eq!(queries.len(), 8);
        assert!(trace.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn full_drift_changes_subjects() {
        let (mut p, subjects) = db_and_subjects();
        let refs: Vec<&str> = subjects.iter().map(String::as_str).collect();
        let spec = SessionSpec {
            n_queries: 32,
            drift: 1.0,
            seed: 5,
            ..SessionSpec::default()
        };
        let (_, trace) = session_queries(&mut p.db, &refs, &spec);
        // With 3 subjects and 32 fully-random draws, at least one switch.
        assert!(trace.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn queries_are_runnable() {
        let (mut p, subjects) = db_and_subjects();
        let refs: Vec<&str> = subjects.iter().map(String::as_str).collect();
        let (queries, _) = session_queries(&mut p.db, &refs, &SessionSpec::default());
        for q in &queries {
            let r = blog_logic::dfs_all(&p.db, q, &blog_logic::SolveConfig::all());
            // Grandparent subjects always have at least one grandchild.
            assert!(r.stats.nodes_expanded > 0);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (mut p, subjects) = db_and_subjects();
        let refs: Vec<&str> = subjects.iter().map(String::as_str).collect();
        let spec = SessionSpec::default();
        let (_, t1) = session_queries(&mut p.db, &refs, &spec);
        let (_, t2) = session_queries(&mut p.db, &refs, &spec);
        assert_eq!(t1, t2);
    }

    #[test]
    fn tenant_mix_requests_are_runnable_and_tenant_local() {
        let mix = TenantMix {
            n_tenants: 3,
            queries_per_tenant: 6,
            ..TenantMix::default()
        };
        let (p, metas) = tenant_mix_program(&mix);
        let requests = tenant_mix_requests(&mix, &metas);
        assert_eq!(requests.len(), 3 * 6);
        for r in &requests {
            let q = blog_logic::parse_query_shared(&p.db, &r.text)
                .unwrap_or_else(|e| panic!("{}: {e}", r.text));
            let res = blog_logic::dfs_all(&p.db, &q, &blog_logic::SolveConfig::all());
            assert!(
                !res.solutions.is_empty(),
                "grandparent subjects always answer: {}",
                r.text
            );
        }
    }

    #[test]
    fn tenant_mix_interleaves_in_bursts() {
        let mix = TenantMix {
            n_tenants: 2,
            queries_per_tenant: 4,
            burst: 2,
            ..TenantMix::default()
        };
        let (_, metas) = tenant_mix_program(&mix);
        let requests = tenant_mix_requests(&mix, &metas);
        let tenants: Vec<usize> = requests.iter().map(|r| r.tenant).collect();
        assert_eq!(tenants, vec![0, 0, 1, 1, 0, 0, 1, 1]);
    }

    #[test]
    fn tenant_mix_working_sets_are_disjoint() {
        let mix = TenantMix {
            n_tenants: 2,
            ..TenantMix::default()
        };
        let (p, _) = tenant_mix_program(&mix);
        // No predicate is defined by clauses of two tenants: every
        // resolver list stays within one tenant's prefix.
        for pred in p.db.predicates() {
            let name = p.db.symbols().name(pred.0).to_string();
            let prefix: String = name.chars().take_while(|c| *c != '_').collect();
            for &cid in p.db.resolvers(pred) {
                let head = &p.db.clause(cid).head;
                let head_name = match head {
                    blog_logic::Term::Struct(f, _) => p.db.symbols().name(*f),
                    blog_logic::Term::Atom(f) => p.db.symbols().name(*f),
                    _ => unreachable!("heads are callable"),
                };
                assert!(
                    head_name.starts_with(&prefix),
                    "{head_name} resolved under {name}"
                );
            }
        }
    }

    #[test]
    fn tenant_mix_mixed_predicates_appear_with_deep_rules() {
        let mix = TenantMix {
            n_tenants: 2,
            queries_per_tenant: 24,
            family: FamilyParams {
                generations: 3,
                branching: 2,
                deep_rules: true,
                ..FamilyParams::default()
            },
            deep_share: 0.5,
            ..TenantMix::default()
        };
        let (p, metas) = tenant_mix_program(&mix);
        let requests = tenant_mix_requests(&mix, &metas);
        let deep = requests.iter().filter(|r| r.deep).count();
        assert!(deep > 0 && deep < requests.len(), "a real mix: {deep}");
        for r in requests.iter().filter(|r| r.deep) {
            assert!(r.text.contains("_ggf("), "{}", r.text);
            assert!(blog_logic::parse_query_shared(&p.db, &r.text).is_ok());
        }
    }

    #[test]
    fn zipf_arrivals_skew_toward_the_hot_tenant() {
        let mix = TenantMix {
            n_tenants: 6,
            queries_per_tenant: 32,
            zipf_s: Some(1.5),
            ..TenantMix::default()
        };
        let (p, metas) = tenant_mix_program(&mix);
        let requests = tenant_mix_requests(&mix, &metas);
        // Total offered load is unchanged; only its split skews.
        assert_eq!(requests.len(), 6 * 32);
        let mut counts = vec![0usize; 6];
        for r in &requests {
            counts[r.tenant] += 1;
        }
        assert!(
            counts[0] > requests.len() / 3,
            "tenant 0 is hot: {counts:?}"
        );
        assert!(
            counts[0] > 3 * counts[5].max(1),
            "the tail is cold: {counts:?}"
        );
        // Still runnable against the merged program.
        for r in requests.iter().take(10) {
            assert!(blog_logic::parse_query_shared(&p.db, &r.text).is_ok());
        }
        // And deterministic per seed.
        let again = tenant_mix_requests(&mix, &metas);
        assert_eq!(
            requests.iter().map(|r| &r.text).collect::<Vec<_>>(),
            again.iter().map(|r| &r.text).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zipf_none_keeps_the_classic_interleave() {
        // The None path must stay byte-identical to the legacy
        // round-robin generator: the serve crate's tenant-mix tests,
        // the affinity test among them, draw their streams from it.
        let legacy = TenantMix {
            n_tenants: 2,
            queries_per_tenant: 4,
            burst: 2,
            ..TenantMix::default()
        };
        let (_, metas) = tenant_mix_program(&legacy);
        let requests = tenant_mix_requests(&legacy, &metas);
        let tenants: Vec<usize> = requests.iter().map(|r| r.tenant).collect();
        assert_eq!(tenants, vec![0, 0, 1, 1, 0, 0, 1, 1]);
    }

    #[test]
    fn tenant_mix_deterministic_and_seed_sensitive() {
        let mix = TenantMix::default();
        let (_, metas) = tenant_mix_program(&mix);
        let a = tenant_mix_requests(&mix, &metas);
        let b = tenant_mix_requests(&mix, &metas);
        assert_eq!(
            a.iter().map(|r| &r.text).collect::<Vec<_>>(),
            b.iter().map(|r| &r.text).collect::<Vec<_>>()
        );
        let other = TenantMix {
            seed: 99,
            ..TenantMix::default()
        };
        let c = tenant_mix_requests(&other, &metas);
        assert_ne!(
            a.iter().map(|r| &r.text).collect::<Vec<_>>(),
            c.iter().map(|r| &r.text).collect::<Vec<_>>()
        );
    }
}
