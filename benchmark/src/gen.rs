//! Input generation: the four workloads' clause bases, request streams,
//! commit streams and server configurations.
//!
//! The clause bases are fixtures (fixed generator seeds): `--seed` draws
//! the *traffic* — which subject each tenant asks about, the order the
//! query variants arrive in, the arrival gaps, what each commit asserts
//! or retracts. Streams are stratified (every variant or tenant appears
//! equally often, in seeded order) so that two seeds do the same amount
//! of work in a different order and the end-to-end numbers of two seeds
//! are comparable.

use std::fmt::Write as _;

use blog_logic::{clause_to_source, ClauseId, Program};
use blog_parallel::FrontierPolicy;
use blog_serve::tuning::{churn_store_config, working_set_store_config};
use blog_serve::{CacheConfig, CacheMode, ExecMode, ServeConfig, UpdateOp};
use blog_spd::PagedStoreConfig;
use blog_workloads::{
    churn_updates, dag_reach_program, family_source, mapcolor_program, queens_program,
    tenant_mix_requests, ChurnOp, ChurnSpec, DagParams, FamilyMeta, FamilyParams, MapColorParams,
    QueensParams, TenantMix,
};

use crate::rng::Rng;

/// Requests per closed-loop wave (submitted back to back, then awaited).
pub const WAVE: usize = 256;

/// The four workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    ServeMix,
    SearchSeq,
    SearchPar,
    PagedChurn,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ServeMix,
        Kind::SearchSeq,
        Kind::SearchPar,
        Kind::PagedChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeMix => "serve_mix",
            Kind::SearchSeq => "search_seq",
            Kind::SearchPar => "search_par",
            Kind::PagedChurn => "paged_churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Trial sizes of one workload. Request counts are fixed (never a time
/// budget), so counts, memory and the work per trial repeat.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Closed-loop waves of [`WAVE`] requests in the `sat` phase.
    pub sat_waves: usize,
    /// Waves timed together as one block (about 0.1–0.3 s of work):
    /// `req_per_s` and `cpu_us_per_req` are read off the median block.
    pub block_waves: usize,
    /// Requests in the `open` phase.
    pub open_requests: usize,
    /// Arrival rate of the `open` phase, req/s: about a quarter of the
    /// `sat` throughput measured once at the commit that added the
    /// benchmark, then frozen — never adapted to the code under test. (At
    /// 40 % the slow machine state came close enough to saturation for
    /// queueing delay to swamp the metric.)
    pub open_rate: f64,
    /// The four fixed rates of the traced run's `serve.sustained_rps_slo`
    /// sweep (20/40/60/80 % of that same frozen `sat` throughput).
    pub slo_rates: [f64; 4],
    /// The sweep's latency limit on p99 sojourn, µs: ten times the
    /// `service_p99_us` measured at that commit, frozen likewise.
    pub slo_limit_us: f64,
}

impl Sizes {
    /// The sizes of `kind`; `quick` shrinks them for the smoke run.
    pub fn of(kind: Kind, quick: bool) -> Sizes {
        let mut s = match kind {
            Kind::ServeMix => Sizes {
                sat_waves: 64,
                block_waves: 16,
                open_requests: 4_096,
                open_rate: 14_000.0,
                slo_rates: [14_000.0, 28_000.0, 42_000.0, 56_000.0],
                slo_limit_us: 400.0,
            },
            Kind::SearchSeq => Sizes {
                sat_waves: 4,
                block_waves: 1,
                open_requests: 384,
                open_rate: 400.0,
                slo_rates: [300.0, 600.0, 900.0, 1_200.0],
                slo_limit_us: 22_000.0,
            },
            Kind::SearchPar => Sizes {
                sat_waves: 4,
                block_waves: 1,
                open_requests: 192,
                open_rate: 190.0,
                slo_rates: [140.0, 285.0, 430.0, 570.0],
                slo_limit_us: 45_000.0,
            },
            Kind::PagedChurn => Sizes {
                sat_waves: 16,
                block_waves: 4,
                open_requests: 1_536,
                open_rate: 1_600.0,
                slo_rates: [1_300.0, 2_600.0, 3_900.0, 5_200.0],
                slo_limit_us: 2_250.0,
            },
        };
        if quick {
            s.sat_waves = (s.sat_waves / 4).max(2);
            s.block_waves = s.block_waves.min(s.sat_waves);
            s.open_requests = (s.open_requests / 2).max(WAVE / 2);
        }
        s
    }
}

/// One distinct query of a workload's pool.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    pub text: String,
    /// Reported tenant (and the default session).
    pub tenant: u32,
    /// Oracle partition: the clauses this query can reach. Solutions
    /// depend on no clause outside it, so the oracle rebuilds only this
    /// partition at the response's epoch.
    pub part: u32,
}

/// One request of a stream: which query, under which session.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Req {
    pub query: u32,
    pub session: u64,
}

/// One transaction of the commit stream.
#[derive(Clone, Debug)]
pub struct CommitSpec {
    /// The oracle partition every op of this transaction touches.
    pub part: u32,
    pub ops: Vec<UpdateOp>,
}

/// When the `sat` phase commits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CommitPlan {
    /// The driver commits after each wave, pools idle: the commit stream
    /// split evenly over the waves.
    BetweenWaves,
    /// A writer thread commits one transaction per `per` submitted
    /// requests while the pools serve them.
    Concurrent { per: usize },
}

/// How the paged store's track cache is sized against the clause base.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Residency {
    /// The T9/T12 working-set regime: 3/5 of the seed base's tracks.
    WorkingSet,
    /// Every track fits: the store is pure hit path.
    All,
    /// This percentage of the tracks: working set far above the cache.
    Percent(usize),
}

/// Everything a trial needs, generated from `(kind, seed)`.
pub struct Workload {
    pub sizes: Sizes,
    /// Program text of the clause base, one clause per line, in clause-id
    /// order.
    pub program_text: String,
    /// Oracle partition of every seed clause, by clause id.
    pub clause_parts: Vec<u32>,
    pub n_parts: u32,
    pub residency: Residency,
    /// Blocks of geometry headroom for the commit stream's asserts.
    pub headroom: usize,
    pub serve: ServeConfig,
    pub queries: Vec<QuerySpec>,
    pub sat: Vec<Req>,
    pub open: Vec<Req>,
    /// Seconds from the phase start at which each `open` request is due.
    pub open_due_s: Vec<f64>,
    pub plan: CommitPlan,
    /// The transactions of `sat`, in commit order.
    pub commits: Vec<CommitSpec>,
}

impl Workload {
    /// Generate the workload for `seed`. The same seed gives the same
    /// bytes; see the tests.
    pub fn generate(kind: Kind, seed: u64, quick: bool) -> Workload {
        let sizes = Sizes::of(kind, quick);
        match kind {
            Kind::ServeMix => serve_mix(seed, sizes),
            Kind::SearchSeq | Kind::SearchPar => search(kind, seed, sizes),
            Kind::PagedChurn => paged_churn(seed, sizes),
        }
    }

    /// The paged-store configuration for a parsed base of `db_len`
    /// clauses.
    pub fn store_config(&self, db_len: usize) -> PagedStoreConfig {
        let mut cfg = churn_store_config(db_len, self.headroom);
        let g = cfg.geometry;
        let all_tracks = (g.n_sps * g.n_cylinders) as usize;
        let seed_tracks = db_len.div_ceil(g.blocks_per_track as usize);
        cfg.capacity_tracks = match self.residency {
            Residency::WorkingSet => working_set_store_config(db_len).capacity_tracks,
            Residency::All => all_tracks,
            Residency::Percent(p) => (seed_tracks * p / 100).max(2),
        };
        cfg
    }
}

/// `n` single-op transactions on partition `part` that only ever touch
/// facts of their own: each asserts a fresh fact (`fact(rng, serial)`) or
/// retracts one asserted earlier, keeping at most `cap` alive — the shape
/// of T12's churn writer. `db_len` is the seed base's clause count: asserts
/// are given the ids after it, in order.
fn own_fact_churn(
    seed: u64,
    n: usize,
    db_len: u32,
    cap: usize,
    part: u32,
    fact: impl Fn(&mut Rng, u32) -> String,
) -> Vec<CommitSpec> {
    let mut rng = Rng::new(seed, 2);
    let mut own: Vec<ClauseId> = Vec::new();
    let mut asserted = 0u32;
    (0..n)
        .map(|_| {
            let op = if own.len() < cap && (own.is_empty() || rng.unit() < 0.5) {
                own.push(ClauseId(db_len + asserted));
                asserted += 1;
                UpdateOp::Assert {
                    text: fact(&mut rng, asserted),
                }
            } else {
                UpdateOp::Retract {
                    id: own.swap_remove(rng.below(own.len())),
                }
            };
            CommitSpec {
                part,
                ops: vec![op],
            }
        })
        .collect()
}

/// Seeded Poisson schedule: `n` due times (seconds from phase start) at
/// `rate` arrivals per second.
pub fn poisson_schedule(rng: &mut Rng, n: usize, rate: f64) -> Vec<f64> {
    let mut at = 0.0;
    (0..n)
        .map(|_| {
            at += rng.exp(1.0 / rate);
            at
        })
        .collect()
}

// ---------------------------------------------------------------------
// serve_mix and paged_churn: multi-tenant family bases
// ---------------------------------------------------------------------

/// The tenants' family bases, concatenated in tenant order exactly as
/// `blog_workloads::tenant_mix_program` lays them out (so the generators
/// that assume its clause ids — `churn_updates` — apply).
fn tenant_base(n_tenants: usize, family: FamilyParams) -> (String, Vec<u32>, Vec<FamilyMeta>) {
    let mut text = String::new();
    let mut parts = Vec::new();
    let mut metas = Vec::with_capacity(n_tenants);
    for t in 0..n_tenants {
        let params = FamilyParams {
            seed: family.seed.wrapping_add(t as u64),
            ..family
        };
        let (src, meta) = family_source(&params, &format!("t{t}_"));
        parts.extend(std::iter::repeat_n(t as u32, src.lines().count()));
        text.push_str(&src);
        metas.push(meta);
    }
    (text, parts, metas)
}

fn serve_mix(seed: u64, sizes: Sizes) -> Workload {
    const TENANTS: usize = 32;
    let n_sat = sizes.sat_waves * WAVE;
    let total = n_sat + sizes.open_requests;
    let mix = TenantMix {
        n_tenants: TENANTS,
        family: FamilyParams {
            generations: 4,
            branching: 3,
            deep_rules: true,
            ..FamilyParams::default()
        },
        queries_per_tenant: total.div_ceil(TENANTS),
        drift: 0.15,
        deep_share: 0.2,
        burst: 1,
        zipf_s: Some(1.2),
        seed,
    };
    let (program_text, clause_parts, metas) = tenant_base(TENANTS, mix.family);
    let arrivals = tenant_mix_requests(&mix, &metas);

    // The pool is every (tenant, predicate, subject) the walks can ask,
    // in a fixed order, so a query's index does not depend on the seed.
    let mut queries = Vec::new();
    let mut index = std::collections::HashMap::new();
    for (t, meta) in metas.iter().enumerate() {
        let pools = [
            ("gf", meta.grandparents()),
            ("ggf", meta.great_grandparents()),
        ];
        for (pred, subjects) in pools {
            for s in subjects {
                let text = format!("t{t}_{pred}({s}, G)");
                index.insert(text.clone(), queries.len() as u32);
                queries.push(QuerySpec {
                    text,
                    tenant: t as u32,
                    part: t as u32,
                });
            }
        }
    }
    let stream: Vec<Req> = arrivals
        .iter()
        .take(total)
        .map(|r| Req {
            query: index[&r.text],
            session: r.tenant as u64,
        })
        .collect();
    let (sat, open) = stream.split_at(n_sat);

    // One commit per wave on the coldest tenant (the Zipf tail): it
    // asserts a fresh child fact or retracts one of its own, as T12's
    // churn writer does, so precise invalidation drops only that
    // tenant's cached answers.
    let cold = TENANTS - 1;
    let commits = own_fact_churn(
        seed,
        sizes.sat_waves,
        clause_parts.len() as u32,
        4,
        cold as u32,
        |rng, n| format!("t{cold}_f(p1_{}, w0f{n}).", rng.below(3)),
    );

    let mut arr = Rng::new(seed, 3);
    Workload {
        sizes,
        program_text,
        clause_parts,
        n_parts: TENANTS as u32,
        residency: Residency::WorkingSet,
        headroom: sizes.sat_waves + 64,
        serve: ServeConfig {
            n_pools: 1,
            cache: CacheConfig {
                mode: CacheMode::Precise,
                budget_bytes: Some(32 << 20),
                ..CacheConfig::default()
            },
            ..ServeConfig::default()
        },
        queries,
        sat: sat.to_vec(),
        open: open.to_vec(),
        open_due_s: poisson_schedule(&mut arr, sizes.open_requests, sizes.open_rate),
        plan: CommitPlan::BetweenWaves,
        commits,
    }
}

fn paged_churn(seed: u64, sizes: Sizes) -> Workload {
    const TENANTS: usize = 256;
    const PER: usize = 16;
    let family = FamilyParams {
        generations: 4,
        branching: 3,
        ..FamilyParams::default()
    };
    let (program_text, clause_parts, metas) = tenant_base(TENANTS, family);

    let mut queries = Vec::new();
    let mut first_of_tenant = Vec::with_capacity(TENANTS);
    for (t, meta) in metas.iter().enumerate() {
        first_of_tenant.push(queries.len() as u32);
        for s in meta.grandparents() {
            queries.push(QuerySpec {
                text: format!("t{t}_gf({s}, G)"),
                tenant: t as u32,
                part: t as u32,
            });
        }
    }
    // Uniform tenants, drift 1.0: rounds of every tenant once in seeded
    // order, each asking about a fresh random subject.
    let mut rng = Rng::new(seed, 1);
    let mut stream = |n: usize| -> Vec<Req> {
        let mut out = Vec::with_capacity(n);
        let mut round: Vec<usize> = (0..TENANTS).collect();
        while out.len() < n {
            rng.shuffle(&mut round);
            for &t in round.iter().take(n - out.len()) {
                let subjects = metas[t].grandparents().len();
                out.push(Req {
                    query: first_of_tenant[t] + rng.below(subjects) as u32,
                    session: t as u64,
                });
            }
        }
        out
    };
    let n_sat = sizes.sat_waves * WAVE;
    let sat = stream(n_sat);
    let open = stream(sizes.open_requests);

    // `churn_updates` wants the parsed base only to find each tenant's
    // `f/2` facts.
    let program = blog_logic::parse_program(&program_text).expect("generated base parses");
    let spec = ChurnSpec {
        n_updates: n_sat / PER,
        ops_per_update: 2,
        seed,
        ..ChurnSpec::default()
    };
    let commits: Vec<CommitSpec> = churn_updates(&program.db, &metas, &spec)
        .into_iter()
        .map(|u| CommitSpec {
            part: u.tenant as u32,
            ops: u
                .ops
                .into_iter()
                .map(|op| match op {
                    ChurnOp::Assert { text } => UpdateOp::Assert { text },
                    ChurnOp::Retract { id } => UpdateOp::Retract { id },
                })
                .collect(),
        })
        .collect();

    let mut arr = Rng::new(seed, 3);
    Workload {
        sizes,
        program_text,
        clause_parts,
        n_parts: TENANTS as u32,
        residency: Residency::Percent(10),
        headroom: 2 * commits.len() + 64,
        serve: ServeConfig {
            n_pools: 1,
            ..ServeConfig::default()
        },
        queries,
        sat,
        open,
        open_due_s: poisson_schedule(&mut arr, sizes.open_requests, sizes.open_rate),
        plan: CommitPlan::Concurrent { per: PER },
        commits,
    }
}

// ---------------------------------------------------------------------
// search_seq and search_par: one base of four search problems
// ---------------------------------------------------------------------

/// Facts of the predicate the search workloads' commits churn. No query
/// reads it: it gives the store something to index, page and version.
const FILLER_FACTS: usize = 8192;

/// Render `program`'s clauses one per line, renaming predicates.
fn render(program: &Program, rename: &[(&str, &str)], out: &mut String) -> usize {
    for clause in program.db.clauses() {
        let mut line = clause_to_source(program.db.symbols(), clause);
        for (from, to) in rename {
            line = line.replace(from, to);
        }
        out.push_str(&line);
        out.push('\n');
    }
    program.db.len()
}

fn search(kind: Kind, seed: u64, sizes: Sizes) -> Workload {
    let mut program_text = String::new();
    let mut n = 0;
    n += render(
        &queens_program(&QueensParams { n: 5 }).0,
        &[],
        &mut program_text,
    );
    let colours = MapColorParams {
        rows: 3,
        cols: 3,
        colors: 3,
    };
    n += render(&mapcolor_program(&colours).0, &[], &mut program_text);
    let dag = DagParams {
        layers: 6,
        width: 4,
        density: 0.5,
        seed: 1,
    };
    n += render(&dag_reach_program(&dag).0, &[], &mut program_text);
    let deep = DagParams {
        layers: 20,
        width: 2,
        density: 0.5,
        seed: 2,
    };
    let renamed = [("path(", "dpath("), ("edge(", "dedge(")];
    n += render(&dag_reach_program(&deep).0, &renamed, &mut program_text);
    let mut clause_parts = vec![0u32; n];
    for i in 0..FILLER_FACTS {
        writeln!(program_text, "filler(k{}, v{i}).", i % 512).expect("write to string");
    }
    clause_parts.extend(std::iter::repeat_n(1, FILLER_FACTS));

    // Four query classes in equal shares; the variants of a class are
    // its seeded partial bindings.
    let mut classes: Vec<Vec<String>> = vec![Vec::new(); 4];
    let vars = ["A", "B", "C", "D", "E"];
    for pos in 0..5 {
        for val in 1..=5 {
            let mut args: Vec<String> = vars.iter().map(|v| v.to_string()).collect();
            args[pos] = val.to_string();
            classes[0].push(format!("q({})", args.join(",")));
        }
    }
    for region in 0..9 {
        for colour in ["red", "green", "blue"] {
            let mut args: Vec<String> = (0..9).map(|r| format!("R{r}")).collect();
            args[region] = colour.to_string();
            classes[1].push(format!("mc({})", args.join(",")));
        }
    }
    for layer in 1..=4 {
        for i in 0..4 {
            classes[2].push(format!("path(n{layer}_{i}, X)"));
            classes[2].push(format!("path(n{layer}_{i}, snk)"));
        }
    }
    for layer in 9..=16 {
        for i in 0..2 {
            classes[3].push(format!("dpath(n{layer}_{i}, X)"));
            classes[3].push(format!("dpath(n{layer}_{i}, snk)"));
        }
    }
    let mut queries = Vec::new();
    let mut class_first = Vec::new();
    for (c, variants) in classes.iter().enumerate() {
        class_first.push(queries.len() as u32);
        for text in variants {
            queries.push(QuerySpec {
                text: text.clone(),
                tenant: c as u32,
                part: 0,
            });
        }
    }

    // Every wave holds each class WAVE/4 times; a class walks a seeded
    // permutation of its variants, reshuffled when exhausted.
    let mut rng = Rng::new(seed, 1);
    let mut decks: Vec<Vec<u32>> = classes
        .iter()
        .enumerate()
        .map(|(c, v)| (0..v.len() as u32).map(|i| class_first[c] + i).collect())
        .collect();
    let mut cursor = [usize::MAX; 4];
    let mut stream = |n: usize| -> Vec<Req> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let take = WAVE.min(n - out.len());
            let mut wave: Vec<Req> = (0..take)
                .map(|i| {
                    let c = i % 4;
                    if cursor[c] >= decks[c].len() {
                        rng.shuffle(&mut decks[c]);
                        cursor[c] = 0;
                    }
                    let query = decks[c][cursor[c]];
                    cursor[c] += 1;
                    Req {
                        query,
                        session: c as u64,
                    }
                })
                .collect();
            rng.shuffle(&mut wave);
            out.extend(wave);
        }
        out
    };
    let sat = stream(sizes.sat_waves * WAVE);
    let open = stream(sizes.open_requests);

    // Four commits after each wave: a trial has only four waves, and the
    // median of four commit latencies is no measurement.
    let n_commits = 4 * sizes.sat_waves;
    let commits = own_fact_churn(
        seed,
        n_commits,
        clause_parts.len() as u32,
        8,
        1,
        |rng, n| format!("filler(k{}, w{n}).", rng.below(512)),
    );

    let exec = match kind {
        Kind::SearchPar => ExecMode::OrParallel {
            n_workers: 2,
            policy: FrontierPolicy::Sharded { d: 512 },
        },
        _ => ExecMode::Sequential,
    };
    let mut arr = Rng::new(seed, 3);
    Workload {
        sizes,
        program_text,
        clause_parts,
        n_parts: 2,
        residency: Residency::All,
        headroom: n_commits + 64,
        serve: ServeConfig {
            n_pools: 1,
            exec,
            ..ServeConfig::default()
        },
        queries,
        sat,
        open,
        open_due_s: poisson_schedule(&mut arr, sizes.open_requests, sizes.open_rate),
        plan: CommitPlan::BetweenWaves,
        commits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything `--seed` decides, as bytes.
    fn fingerprint(w: &Workload) -> String {
        let mut s = String::new();
        for r in w.sat.iter().chain(&w.open) {
            write!(s, "{}:{} ", r.query, r.session).unwrap();
        }
        for d in &w.open_due_s {
            write!(s, "{:016x} ", d.to_bits()).unwrap();
        }
        for c in &w.commits {
            write!(s, "{}:{:?} ", c.part, c.ops).unwrap();
        }
        s
    }

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        for kind in Kind::ALL {
            let a = Workload::generate(kind, 5, true);
            let b = Workload::generate(kind, 5, true);
            let c = Workload::generate(kind, 6, true);
            assert_eq!(fingerprint(&a), fingerprint(&b), "{}", kind.name());
            assert_ne!(fingerprint(&a), fingerprint(&c), "{}", kind.name());
            // The base is a fixture: the seed draws traffic only.
            assert_eq!(a.program_text, c.program_text, "{}", kind.name());
            assert_eq!(a.sat.len(), a.sizes.sat_waves * WAVE);
            assert_eq!(a.open.len(), a.open_due_s.len());
        }
    }

    #[test]
    fn poisson_schedule_repeats_and_has_the_asked_rate() {
        let a = poisson_schedule(&mut Rng::new(9, 3), 4000, 1000.0);
        let b = poisson_schedule(&mut Rng::new(9, 3), 4000, 1000.0);
        let c = poisson_schedule(&mut Rng::new(10, 3), 4000, 1000.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "due times ascend");
        let rate = a.len() as f64 / a.last().unwrap();
        assert!((rate - 1000.0).abs() < 60.0, "rate {rate}");
    }

    #[test]
    fn search_workloads_share_base_and_requests() {
        let seq = Workload::generate(Kind::SearchSeq, 3, true);
        let par = Workload::generate(Kind::SearchPar, 3, true);
        assert_eq!(seq.program_text, par.program_text);
        assert_eq!(seq.sat, par.sat);
        assert_eq!((seq.serve.n_pools, par.serve.n_pools), (1, 1));
    }

    #[test]
    fn every_wave_of_search_holds_the_classes_in_equal_shares() {
        let w = Workload::generate(Kind::SearchSeq, 1, true);
        for wave in w.sat.chunks(WAVE) {
            let mut per_class = [0usize; 4];
            for r in wave {
                per_class[w.queries[r.query as usize].tenant as usize] += 1;
            }
            assert_eq!(per_class, [WAVE / 4; 4]);
        }
    }

    #[test]
    fn bases_parse_and_partitions_cover_every_clause() {
        for kind in [Kind::ServeMix, Kind::SearchSeq, Kind::PagedChurn] {
            let w = Workload::generate(kind, 1, true);
            let p = blog_logic::parse_program(&w.program_text).unwrap();
            assert_eq!(p.db.len(), w.clause_parts.len(), "{}", kind.name());
            assert_eq!(p.db.len(), w.program_text.lines().count());
            assert!(w.clause_parts.iter().all(|&part| part < w.n_parts));
            for q in &w.queries {
                blog_logic::parse_query_shared(&p.db, &q.text)
                    .unwrap_or_else(|e| panic!("{}: {e}", q.text));
            }
            let cfg = w.store_config(p.db.len());
            assert!(cfg.geometry.capacity() as usize >= p.db.len() + w.headroom);
        }
    }
}
