//! Scaled-up figure-1 genealogies.
//!
//! A `b`-ary family tree of `g` generations of persons, with `f/2`
//! (father-of) facts along the tree edges, a configurable density of
//! `m/2` (mother-of) facts, and the paper's two `gf/2` rules. The second
//! rule (`gf(X,Z) :- f(X,Y), m(Y,Z)`) succeeds only when a mother is
//! herself a tree person with a father — exactly the failure branch the
//! paper's figure 3 walks into.

use std::fmt::Write as _;

use blog_logic::{parse_program, Program};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters for [`family_program`].
#[derive(Clone, Copy, Debug)]
pub struct FamilyParams {
    /// Generations below the root (the paper's example is effectively 2).
    pub generations: u32,
    /// Children per person.
    pub branching: u32,
    /// Fraction of children that also get an `m/2` fact whose mother is a
    /// *tree* person (making the `m`-rule succeed there).
    pub tree_mother_density: f64,
    /// Fraction of children that get an `m/2` fact with an *external*
    /// mother (no father — a guaranteed dead end for the `m`-rule).
    pub external_mother_density: f64,
    /// Also emit the two-level `ggf/2` (great-grandfather) rules, built
    /// on `gf/2`. Their OR-trees are five arcs deep with compounded
    /// failure branches — the regime where session learning pays most.
    pub deep_rules: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FamilyParams {
    fn default() -> Self {
        FamilyParams {
            generations: 4,
            branching: 3,
            tree_mother_density: 0.2,
            external_mother_density: 0.4,
            deep_rules: false,
            seed: 1,
        }
    }
}

/// Metadata about a generated family.
#[derive(Clone, Debug)]
pub struct FamilyMeta {
    /// Person names per generation (`persons[g]` is generation `g`).
    pub persons: Vec<Vec<String>>,
    /// Total `f/2` facts.
    pub f_facts: usize,
    /// Total `m/2` facts.
    pub m_facts: usize,
}

impl FamilyMeta {
    /// The root person's name.
    pub fn root(&self) -> &str {
        &self.persons[0][0]
    }

    /// All persons that have grandchildren (useful query subjects).
    pub fn grandparents(&self) -> Vec<&str> {
        self.persons[..self.persons.len().saturating_sub(2)]
            .iter()
            .flatten()
            .map(String::as_str)
            .collect()
    }

    /// All persons that have great-grandchildren (subjects for the
    /// `deep_rules` `ggf/2` queries).
    pub fn great_grandparents(&self) -> Vec<&str> {
        self.persons[..self.persons.len().saturating_sub(3)]
            .iter()
            .flatten()
            .map(String::as_str)
            .collect()
    }
}

/// Generate a family program. The emitted program carries one query,
/// `?- gf(<root>, G)`.
pub fn family_program(params: &FamilyParams) -> (Program, FamilyMeta) {
    let (mut src, meta) = family_source(params, "");
    writeln!(src, "?- gf({}, G).", meta.root()).expect("write to string");
    let program = parse_program(&src).expect("generated family program parses");
    (program, meta)
}

/// The clause text of a family (no query), with every predicate name
/// prefixed by `prefix` — `family_source(p, "t3_")` emits `t3_gf/2`,
/// `t3_f/2`, `t3_m/2` (and `t3_ggf/2` under `deep_rules`).
///
/// Prefixing the *predicates* is what gives multi-tenant workloads
/// disjoint working sets: concatenating differently-prefixed families
/// into one program yields one clause database in which no candidate
/// (figure-4 pointer) list ever crosses a tenant boundary, so each
/// tenant's queries touch only that tenant's clause blocks — and
/// therefore that tenant's SPD tracks. Person constants are deliberately
/// *shared* across prefixes (they are plain atoms; sharing keeps the
/// symbol table small and changes no semantics).
pub fn family_source(params: &FamilyParams, prefix: &str) -> (String, FamilyMeta) {
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut src = String::new();
    // The paper's two rules, verbatim shape.
    writeln!(src, "{prefix}gf(X,Z) :- {prefix}f(X,Y), {prefix}f(Y,Z).").expect("write");
    writeln!(src, "{prefix}gf(X,Z) :- {prefix}f(X,Y), {prefix}m(Y,Z).").expect("write");
    if params.deep_rules {
        writeln!(src, "{prefix}ggf(X,Z) :- {prefix}gf(X,Y), {prefix}f(Y,Z).").expect("write");
        writeln!(src, "{prefix}ggf(X,Z) :- {prefix}gf(X,Y), {prefix}m(Y,Z).").expect("write");
    }

    let mut persons: Vec<Vec<String>> = vec![vec!["p0_0".to_owned()]];
    let mut f_facts = 0usize;
    let mut m_facts = 0usize;
    let mut external_counter = 0usize;

    for g in 1..=params.generations {
        let parents = persons[(g - 1) as usize].clone();
        let mut level = Vec::new();
        for parent in &parents {
            for c in 0..params.branching {
                let child = format!("p{}_{}", g, level.len());
                let _ = c;
                writeln!(src, "{prefix}f({parent},{child}).").expect("write to string");
                f_facts += 1;
                // Mother facts.
                let roll: f64 = rng.gen();
                if roll < params.tree_mother_density && g >= 2 {
                    // Mother is a tree person of the parent's generation
                    // (she has a father, so the m-rule can succeed).
                    let pool = &persons[(g - 1) as usize];
                    let mother = &pool[rng.gen_range(0..pool.len())];
                    writeln!(src, "{prefix}m({mother},{child}).").expect("write to string");
                    m_facts += 1;
                } else if roll < params.tree_mother_density + params.external_mother_density {
                    let mother = format!("ext{external_counter}");
                    external_counter += 1;
                    writeln!(src, "{prefix}m({mother},{child}).").expect("write to string");
                    m_facts += 1;
                }
                level.push(child);
            }
        }
        persons.push(level);
    }

    (
        src,
        FamilyMeta {
            persons,
            f_facts,
            m_facts,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use blog_logic::{dfs_all, SolveConfig};

    #[test]
    fn generated_family_has_expected_tree_size() {
        let params = FamilyParams {
            generations: 3,
            branching: 2,
            ..FamilyParams::default()
        };
        let (_, meta) = family_program(&params);
        // 2 + 4 + 8 children.
        assert_eq!(meta.f_facts, 2 + 4 + 8);
        assert_eq!(meta.persons[3].len(), 8);
    }

    #[test]
    fn root_query_finds_all_grandchildren() {
        let params = FamilyParams {
            generations: 3,
            branching: 2,
            tree_mother_density: 0.0,
            external_mother_density: 0.0,
            seed: 7,
            ..FamilyParams::default()
        };
        let (p, _) = family_program(&params);
        let r = dfs_all(&p.db, &p.queries[0], &SolveConfig::all());
        // Root has branching^2 grandchildren, each reachable only via the
        // f-f rule.
        assert_eq!(r.solutions.len(), 4);
    }

    #[test]
    fn tree_mothers_add_extra_solutions() {
        let params = FamilyParams {
            generations: 3,
            branching: 3,
            tree_mother_density: 1.0,
            external_mother_density: 0.0,
            seed: 3,
            ..FamilyParams::default()
        };
        let (p, _) = family_program(&params);
        let r = dfs_all(&p.db, &p.queries[0], &SolveConfig::all());
        // f-f rule alone gives 9; m-rule adds more (mothers are gen-1
        // persons whose father might be the root).
        assert!(r.solutions.len() >= 9, "got {}", r.solutions.len());
    }

    #[test]
    fn prefixed_source_isolates_predicates() {
        let params = FamilyParams {
            generations: 3,
            branching: 2,
            seed: 7,
            ..FamilyParams::default()
        };
        let (a, meta_a) = family_source(&params, "t0_");
        let (b, meta_b) = family_source(&params, "t1_");
        // Same tree shape, disjoint predicate namespaces.
        assert_eq!(meta_a.f_facts, meta_b.f_facts);
        let merged = blog_logic::parse_program(&format!("{a}{b}")).unwrap();
        let t0_gf = merged.db.sym("t0_gf").unwrap();
        let t1_gf = merged.db.sym("t1_gf").unwrap();
        assert_eq!(merged.db.resolvers((t0_gf, 2)).len(), 2);
        assert_eq!(merged.db.resolvers((t1_gf, 2)).len(), 2);
        // A t0 query resolves exclusively through t0 clauses.
        let mut db = merged.db.clone();
        let q = blog_logic::parse_query(&mut db, &format!("t0_gf({}, G)", meta_a.root())).unwrap();
        let r = dfs_all(&db, &q, &SolveConfig::all());
        assert_eq!(r.solutions.len(), 4, "branching^2 grandchildren");
        let _ = t1_gf;
    }

    #[test]
    fn empty_prefix_matches_family_program() {
        let params = FamilyParams {
            generations: 3,
            branching: 2,
            seed: 11,
            ..FamilyParams::default()
        };
        let (src, meta) = family_source(&params, "");
        let (p, meta2) = family_program(&params);
        assert_eq!(meta.f_facts, meta2.f_facts);
        assert_eq!(meta.m_facts, meta2.m_facts);
        // family_program = family_source + the root query.
        let parsed = blog_logic::parse_program(&src).unwrap();
        assert_eq!(parsed.db.len(), p.db.len());
    }

    #[test]
    fn determinism_per_seed() {
        let params = FamilyParams::default();
        let (a, _) = family_program(&params);
        let (b, _) = family_program(&params);
        assert_eq!(a.db.len(), b.db.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = family_program(&FamilyParams {
            seed: 1,
            ..FamilyParams::default()
        });
        let b = family_program(&FamilyParams {
            seed: 2,
            ..FamilyParams::default()
        });
        // Mother placement is random, so fact counts should differ
        // (overwhelmingly likely with default densities).
        assert_ne!((a.1.m_facts, a.0.db.len()), (b.1.m_facts, b.0.db.len()));
    }

    #[test]
    fn deep_rules_answer_great_grandchildren() {
        let params = FamilyParams {
            generations: 3,
            branching: 2,
            tree_mother_density: 0.0,
            external_mother_density: 0.0,
            deep_rules: true,
            seed: 7,
        };
        let (mut p, meta) = family_program(&params);
        let root = meta.root().to_string();
        let q = blog_logic::parse_query(&mut p.db, &format!("ggf({root}, G)")).unwrap();
        let r = dfs_all(&p.db, &q, &SolveConfig::all());
        // branching^3 great-grandchildren, only via the f-f-f chain.
        assert_eq!(r.solutions.len(), 8);
        // Proofs are five arcs deep (ggf → gf → f, f → fact × 3).
        assert!(
            r.solutions.iter().all(|s| s.depth == 5),
            "{:?}",
            r.solutions.iter().map(|s| s.depth).collect::<Vec<_>>()
        );
    }

    #[test]
    fn great_grandparents_listing() {
        let (_, meta) = family_program(&FamilyParams {
            generations: 4,
            branching: 2,
            deep_rules: true,
            ..FamilyParams::default()
        });
        // Generations 0 and 1 have great-grandchildren in a 4-gen tree.
        assert_eq!(meta.great_grandparents().len(), 1 + 2);
    }

    #[test]
    fn grandparents_listing_excludes_last_two_generations() {
        let (_, meta) = family_program(&FamilyParams {
            generations: 3,
            branching: 2,
            ..FamilyParams::default()
        });
        // Generations 0 and 1 have grandchildren; 2 and 3 do not.
        assert_eq!(meta.grandparents().len(), 1 + 2);
    }
}
