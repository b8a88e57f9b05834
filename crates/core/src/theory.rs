//! The section-4 theoretical weight model.
//!
//! "Let p(k) be the (unnormalized) probability that arc k is in a
//! successful solution … the probability of each chain representing a
//! successful solution must be equal to 1/(the number of successful
//! solutions) \[and\] the probability of each chain representing an
//! unsuccessful search must be 0. … If N is the number of both complete
//! solutions and unsuccessful solutions, and M arcs are used in them, we
//! have N equations in M unknowns to solve" (§4).
//!
//! This module enumerates the complete OR-tree of a query, builds exactly
//! those equations over the arc weights, and solves them by Kaczmarz
//! projection (with a non-negativity clamp). Pathological instances — a
//! failure chain all of whose arcs also serve successful solutions — are
//! detected and reported, matching the paper's observation that "patho-
//! logical cases exist where no solution is possible".
//!
//! Arc identity: the paper's requirement 1 makes duplicated search arcs
//! share one probability (its figure-3 example shares the arc to
//! `(sam)-f->(larry)` between the two rule branches). [`ArcIdentity::
//! SharedGoal`] implements that by keying on (goal predicate, resolving
//! clause); [`ArcIdentity::PointerExact`] keys on the figure-4 pointer,
//! matching what the machine actually stores.

use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;

use blog_logic::{
    walk_breadth_first, ClauseDb, ClauseId, PointerKey, Query, SolveConfig, Sym, WalkVisit,
};
use serde::Serialize;

/// How arcs are identified when building the equation system.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum ArcIdentity {
    /// One unknown per figure-4 pointer (caller, goal index, target).
    PointerExact,
    /// One unknown per (goal predicate, target clause): duplicated search
    /// arcs share a probability, as the paper's requirement 1 demands.
    SharedGoal,
}

/// An arc in the theoretical model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum ArcKey {
    /// Exact figure-4 pointer.
    Exact(PointerKey),
    /// Shared (goal predicate, target clause) identity.
    Shared {
        /// Goal predicate functor.
        pred: Sym,
        /// Goal predicate arity.
        arity: u32,
        /// Resolving clause.
        target: ClauseId,
    },
}

/// One complete root-to-leaf chain.
#[derive(Clone, Debug)]
pub struct TheoryChain {
    /// Arcs root → leaf.
    pub arcs: Vec<ArcKey>,
    /// Whether the chain ended in a solution.
    pub success: bool,
}

/// The fully-enumerated OR-tree, as chains.
#[derive(Clone, Debug, Default)]
pub struct EnumeratedChains {
    /// All complete chains (solutions and failures).
    pub chains: Vec<TheoryChain>,
    /// Number of successful chains.
    pub n_solutions: usize,
    /// Number of failing chains.
    pub n_failures: usize,
    /// True if limits stopped the enumeration early (results are then a
    /// lower bound, not the complete tree).
    pub truncated: bool,
}

impl EnumeratedChains {
    /// Distinct arcs across all chains.
    pub fn arc_set(&self) -> HashSet<ArcKey> {
        self.chains
            .iter()
            .flat_map(|c| c.arcs.iter().copied())
            .collect()
    }
}

/// Enumerate every complete chain of the query's OR-tree: a visitor of
/// [`walk_breadth_first`], bounded by `limits` under its limit rule. A
/// depth cutoff or the node budget sets `truncated`; cut-off chains are
/// neither successes nor failures.
pub fn enumerate_chains(
    db: &ClauseDb,
    query: &Query,
    limits: &SolveConfig,
    identity: ArcIdentity,
) -> EnumeratedChains {
    let mut out = EnumeratedChains::default();
    let walk = walk_breadth_first(db, query, limits, Vec::new(), |node, arcs, visit| {
        match visit {
            WalkVisit::Solution => {
                out.n_solutions += 1;
                out.chains.push(TheoryChain {
                    arcs,
                    success: true,
                });
            }
            WalkVisit::Cutoff => {}
            WalkVisit::Expanded { children: [], .. } => {
                out.n_failures += 1;
                out.chains.push(TheoryChain {
                    arcs,
                    success: false,
                });
            }
            WalkVisit::Expanded {
                children,
                child_tags,
                ..
            } => {
                // The goal just resolved, for the shared identity.
                let goal_pred = node
                    .first_goal()
                    .and_then(|g| node.walk_cow(&g.term).functor());
                child_tags.extend(children.iter().map(|child| {
                    let key = match identity {
                        ArcIdentity::PointerExact => ArcKey::Exact(child.arc),
                        ArcIdentity::SharedGoal => {
                            let (pred, arity) = goal_pred.expect("expandable goal has a functor");
                            ArcKey::Shared {
                                pred,
                                arity,
                                target: child.arc.target,
                            }
                        }
                    };
                    let mut child_arcs = arcs.clone();
                    child_arcs.push(key);
                    child_arcs
                }));
            }
        }
        ControlFlow::Continue(())
    });
    let stats = walk.expect("the in-memory ClauseDb never faults");
    out.truncated = stats.depth_cutoff || stats.truncated;
    out
}

/// A solved theoretical weight assignment.
#[derive(Clone, Debug, Default)]
pub struct TheoreticalWeights {
    /// Finite weights (in bits) for arcs serving successful solutions.
    pub finite: HashMap<ArcKey, f64>,
    /// Arcs assigned infinite weight (appear only in failing chains).
    pub infinite: HashSet<ArcKey>,
    /// True if some failure chain has no arc that can be made infinite —
    /// the paper's pathological case.
    pub pathological: bool,
    /// Largest |chain bound − N| over success chains after solving.
    pub max_residual: f64,
    /// The target bound `N` used (in bits).
    pub target_bits: f64,
}

impl TheoreticalWeights {
    /// The unnormalized probability `2^-w` of an arc (0 for infinite,
    /// 1 for arcs the model never constrained).
    pub fn probability(&self, arc: ArcKey) -> f64 {
        if self.infinite.contains(&arc) {
            return 0.0;
        }
        match self.finite.get(&arc) {
            Some(w) => 2f64.powf(-w),
            None => 1.0,
        }
    }

    /// Product of arc probabilities along a chain.
    pub fn chain_probability(&self, chain: &TheoryChain) -> f64 {
        chain.arcs.iter().map(|&a| self.probability(a)).product()
    }
}

/// The `N` (in bits) that makes every solution chain's probability equal
/// `1/n_solutions`, per the paper's requirement 2.
pub fn target_bits_for(n_solutions: usize) -> f64 {
    (n_solutions.max(1) as f64).log2()
}

/// Solve the section-4 linear system by Kaczmarz projection.
///
/// Every success chain contributes the equation `Σ w(arc) = N`; arcs that
/// appear only in failing chains become infinite; every failing chain must
/// contain at least one infinite arc or the instance is pathological.
pub fn solve_weights(
    chains: &EnumeratedChains,
    target_bits: f64,
    iterations: usize,
) -> TheoreticalWeights {
    let mut result = TheoreticalWeights {
        target_bits,
        ..Default::default()
    };

    // Arcs that serve at least one successful chain must stay finite.
    let success_arcs: HashSet<ArcKey> = chains
        .chains
        .iter()
        .filter(|c| c.success)
        .flat_map(|c| c.arcs.iter().copied())
        .collect();

    for chain in chains.chains.iter().filter(|c| !c.success) {
        let killable: Vec<ArcKey> = chain
            .arcs
            .iter()
            .copied()
            .filter(|a| !success_arcs.contains(a))
            .collect();
        if killable.is_empty() {
            // Every arc of this failing chain also serves a success: no
            // consistent assignment exists.
            result.pathological = true;
        } else {
            result.infinite.extend(killable);
        }
    }

    // Kaczmarz over the success equations, clamped non-negative.
    for &arc in &success_arcs {
        result.finite.insert(arc, 0.0);
    }
    let success_chains: Vec<&TheoryChain> = chains.chains.iter().filter(|c| c.success).collect();
    for _ in 0..iterations {
        for chain in &success_chains {
            if chain.arcs.is_empty() {
                continue;
            }
            let sum: f64 = chain
                .arcs
                .iter()
                .map(|a| result.finite.get(a).copied().unwrap_or(0.0))
                .sum();
            let delta = (target_bits - sum) / chain.arcs.len() as f64;
            for a in &chain.arcs {
                let w = result.finite.get_mut(a).expect("success arc seeded");
                *w = (*w + delta).max(0.0);
            }
        }
    }

    // Residual check.
    result.max_residual = success_chains
        .iter()
        .map(|chain| {
            let sum: f64 = chain
                .arcs
                .iter()
                .map(|a| result.finite.get(a).copied().unwrap_or(0.0))
                .sum();
            (sum - target_bits).abs()
        })
        .fold(0.0, f64::max);
    result
}

/// Check that an arbitrary assignment satisfies the section-4 constraints
/// on `chains`; returns the maximum residual over success chains and
/// whether every failing chain carries an infinite arc.
pub fn validate_assignment(
    chains: &EnumeratedChains,
    finite: &HashMap<ArcKey, f64>,
    infinite: &HashSet<ArcKey>,
    target_bits: f64,
) -> (f64, bool) {
    let mut max_residual: f64 = 0.0;
    let mut all_failures_dead = true;
    for chain in &chains.chains {
        if chain.success {
            let sum: f64 = chain
                .arcs
                .iter()
                .map(|a| finite.get(a).copied().unwrap_or(0.0))
                .sum();
            max_residual = max_residual.max((sum - target_bits).abs());
            // A success chain through an "infinite" arc is inconsistent.
            if chain.arcs.iter().any(|a| infinite.contains(a)) {
                all_failures_dead = false;
            }
        } else if !chain.arcs.iter().any(|a| infinite.contains(a)) {
            all_failures_dead = false;
        }
    }
    (max_residual, all_failures_dead)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blog_logic::parse_program;

    const FAMILY: &str = "
        gf(X,Z) :- f(X,Y), f(Y,Z).
        gf(X,Z) :- f(X,Y), m(Y,Z).
        f(curt,elain). f(sam,larry). f(dan,pat). f(larry,den).
        f(pat,john). f(larry,doug).
        m(elain,john). m(marian,elain). m(peg,den). m(peg,doug).
        ?- gf(sam,G).
    ";

    fn family_chains(identity: ArcIdentity) -> EnumeratedChains {
        let p = parse_program(FAMILY).unwrap();
        enumerate_chains(&p.db, &p.queries[0], &SolveConfig::all(), identity)
    }

    #[test]
    fn family_tree_has_two_solutions_one_failure() {
        let c = family_chains(ArcIdentity::SharedGoal);
        assert_eq!(c.n_solutions, 2);
        assert_eq!(c.n_failures, 1);
        assert!(!c.truncated);
        // Solution chains have 3 arcs (rule, f-fact, f-fact); the failure
        // chain stops after 2 (rule, f-fact) when m(larry,G) finds nothing.
        for chain in &c.chains {
            assert_eq!(chain.arcs.len(), if chain.success { 3 } else { 2 });
        }
    }

    #[test]
    fn shared_identity_merges_the_duplicated_arc() {
        // Figure 3 duplicates the (sam)-f->(larry) arc between the two
        // rule branches; with SharedGoal identity it is one unknown.
        let shared = family_chains(ArcIdentity::SharedGoal).arc_set();
        let exact = family_chains(ArcIdentity::PointerExact).arc_set();
        assert_eq!(exact.len(), shared.len() + 1);
    }

    #[test]
    fn solver_meets_paper_requirements_on_family() {
        let chains = family_chains(ArcIdentity::SharedGoal);
        let n = target_bits_for(chains.n_solutions); // log2(2) = 1 bit
        assert!((n - 1.0).abs() < 1e-12);
        let w = solve_weights(&chains, n, 200);
        assert!(!w.pathological);
        assert!(w.max_residual < 1e-9, "residual {}", w.max_residual);
        // Requirement 2: each success chain has probability 1/2.
        for chain in chains.chains.iter().filter(|c| c.success) {
            let p = w.chain_probability(chain);
            assert!((p - 0.5).abs() < 1e-6, "chain probability {p}");
        }
        // Requirement 3: the failing chain has probability 0.
        for chain in chains.chains.iter().filter(|c| !c.success) {
            assert_eq!(w.chain_probability(chain), 0.0);
        }
    }

    #[test]
    fn papers_inspection_assignment_validates() {
        // §4: "The arcs above (sam)-f->(Y)-f->(G) and both instances of
        // (sam)-f->(larry) have probability 1, those above (larry)-f->(den)
        // and (larry)-f->(doug) have probability 1/2 and that above
        // (sam)-f->(Y)-m->(G) has probability 0."
        let p = parse_program(FAMILY).unwrap();
        let chains = enumerate_chains(
            &p.db,
            &p.queries[0],
            &SolveConfig::all(),
            ArcIdentity::SharedGoal,
        );
        // Reconstruct the paper's weights keyed on our arc identities:
        // weight 0 (prob 1) for rule-1 and f(sam,larry); weight 1 (prob
        // 1/2) for f(larry,den)/f(larry,doug); infinite for rule 2.
        let mut finite = HashMap::new();
        let mut infinite = HashSet::new();
        for chain in &chains.chains {
            if chain.success {
                // arcs: [rule1, f(sam,larry), f(larry,X)]
                finite.insert(chain.arcs[0], 0.0);
                finite.insert(chain.arcs[1], 0.0);
                finite.insert(chain.arcs[2], 1.0);
            } else {
                // arcs: [rule2, f(sam,larry)] — rule2 goes infinite.
                infinite.insert(chain.arcs[0]);
            }
        }
        let (residual, failures_dead) = validate_assignment(&chains, &finite, &infinite, 1.0);
        assert!(residual < 1e-12);
        assert!(failures_dead);
    }

    #[test]
    fn pathological_case_detected() {
        // p :- q. with q both succeeding (q.) and... build the paper's
        // pathology: an unsuccessful query whose only arc also serves a
        // success. Query ?- p, p2 where p succeeds via arc A and p2 fails:
        // chain [A] serves success in another query — within a single
        // query: ?- q, r. with q. succeeding and r undefined: failure
        // chain = [arc q], which also appears in no success chain here, so
        // that's not pathological. Construct instead: p :- a. p :- a, bad.
        // Solutions via [p1, a]; failure via [p2, a]: killable = {p2} so
        // fine. True pathology needs the *same* arcs: q twice:
        // ?- a, bad_or_ok. Use: s :- a, t. t. (success [s-arc, a-arc,
        // t-arc]) and ?- a, u. — single query model: s1 :- a. s2 :- a.
        // Both s1 chain succeed... Simplest: query ?- a, a_fail where the
        // failure chain's arcs are a subset of a success chain's arcs:
        //   ok :- e.  e.
        //   ?- e, missing.   (fails after following arc e)
        //   vs ?- e.         (succeeds via arc e)
        // Within ONE enumeration, pathology needs a failing chain fully
        // covered by success arcs. Use two clauses with a common prefix:
        //   top :- e.            (success: arcs [top1, e])
        //   top :- e.            (success: arcs [top2, e])
        //   plus a failing chain [e] alone cannot arise. So instead make
        // the failure chain share *all* arcs via SharedGoal identity:
        //   win :- e.  lose :- e, nope.
        //   ?- q(X) with q->win / q->lose both via pred-shared arcs? Keep
        // it direct: ?- e, e, nope after e succeeds twice: failure chain
        // arcs = {shared e-arc} ⊂ success arcs of query ?- e, e? Different
        // queries don't mix. Final approach: a single query whose failure
        // chain shares its one arc with a success chain:
        //   p :- e.        % clause 0
        //   p :- e, nope.  % clause 1  (nope undefined)
        //   e.             % clause 2
        //   ?- p.
        // SharedGoal identity: arc (p→clause0), (p→clause1), (e→clause2).
        // Failure chain [p→c1, e→c2]: killable = {p→c1} → NOT pathological.
        // To kill killability, make clause 1 also succeed some other way:
        //   p :- e, maybe(X). maybe(yes). and query ?- p, with a second
        // failing route through the SAME arcs only. This is genuinely hard
        // to produce with distinct targets — which is the point of the
        // paper's remark; emulate it directly on a hand-built chain set.
        let a = ArcKey::Shared {
            pred: blog_logic::Sym(0),
            arity: 0,
            target: blog_logic::ClauseId(0),
        };
        let chains = EnumeratedChains {
            chains: vec![
                TheoryChain {
                    arcs: vec![a],
                    success: true,
                },
                TheoryChain {
                    arcs: vec![a],
                    success: false,
                },
            ],
            n_solutions: 1,
            n_failures: 1,
            truncated: false,
        };
        let w = solve_weights(&chains, target_bits_for(1), 50);
        assert!(w.pathological);
    }

    #[test]
    fn truncation_is_reported() {
        let p = parse_program(
            "
            edge(a,b). edge(b,a).
            path(X,Y) :- edge(X,Y).
            path(X,Z) :- edge(X,Y), path(Y,Z).
            ?- path(a,b).
        ",
        )
        .unwrap();
        let limits = SolveConfig::all().with_max_depth(6);
        let c = enumerate_chains(&p.db, &p.queries[0], &limits, ArcIdentity::SharedGoal);
        assert!(c.truncated);
    }

    #[test]
    fn single_solution_target_is_zero_bits() {
        assert_eq!(target_bits_for(1), 0.0);
        assert_eq!(target_bits_for(4), 2.0);
    }

    #[test]
    fn probabilities_multiply_along_chains() {
        let chains = family_chains(ArcIdentity::SharedGoal);
        let w = solve_weights(&chains, 1.0, 200);
        let total: f64 = chains
            .chains
            .iter()
            .filter(|c| c.success)
            .map(|c| w.chain_probability(c))
            .sum();
        assert!((total - 1.0).abs() < 1e-6, "success probabilities sum to 1");
    }
}
