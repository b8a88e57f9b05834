//! Baseline SLD search strategies.
//!
//! These are the comparators the paper positions B-LOG against in section
//! 3: Prolog's **depth-first** search ("useful in single processor
//! implementations, \[but\] does not lend itself easily to parallel
//! processing"), **breadth-first** search ("tends to work near the root of
//! the tree, doing extra work before a solution is found"), and — as the
//! standard completeness fix for depth-first — iterative deepening.
//!
//! The depth-first engine uses the classic trail/backtracking discipline.
//! Breadth-first search is one visitor of [`walk_breadth_first`], the
//! FIFO walk over any [`ClauseSource`] that also builds the paper-side
//! trees: `blog-core`'s figure-3 OR-tree and §4 chain enumeration, and
//! `blog-machine`'s §6 workload. All count work with the same
//! [`SearchStats`] so results are directly comparable with the
//! best-first engine in `blog-core`.

use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;

use crate::bindings::{Bindings, Trail};
use crate::goals::GoalStack;
use crate::node::{
    goal_idx, try_expand_via, Caller, ExpandBuffers, ExpandStats, Expansion, Goal, SearchNode,
    StateRepr,
};
use crate::parser::Query;
use crate::pretty::term_to_string;
use crate::source::{ClauseSource, StoreError};
use crate::store::ClauseDb;
use crate::term::{Term, VarId};
use crate::unify::{unify_head, GoalKeys};

/// A cooperative cancellation flag shared between a search and whoever
/// may need to stop it mid-flight (a request's deadline, a user hitting
/// Ctrl-C, a server shedding load).
///
/// Cloning is cheap (`Arc`); every clone observes the same flag and the
/// same deadline. A token is cancelled once any clone calls
/// [`cancel`](Self::cancel) or, for a token made by
/// [`until`](Self::until), once its deadline has passed; only such a
/// token reads the clock. Engines that accept a token check it once per
/// node expansion — the same cadence at which OR-parallel workers observe
/// their exchange's stop flag — and report the cut as
/// [`SearchStats::truncated`], exactly like an exhausted node budget.
/// Cancellation is one-way: there is no `reset`, so a token describes a
/// single request's lifetime.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh, un-cancelled token with no deadline.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A fresh token that cancels itself at `at`.
    pub fn until(at: Instant) -> CancelToken {
        CancelToken {
            flag: Arc::default(),
            deadline: Some(at),
        }
    }

    /// Trip the flag. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether [`cancel`](Self::cancel) has been called on any clone, or
    /// the token's deadline has passed.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire) || self.deadline.is_some_and(|at| Instant::now() >= at)
    }
}

/// Limits and switches shared by all engines.
#[derive(Clone, Debug)]
pub struct SolveConfig {
    /// Stop after this many solutions (`None` = enumerate all).
    pub max_solutions: Option<usize>,
    /// Do not expand nodes at this chain length (`None` = unlimited).
    /// Needed for completeness on left-recursive programs.
    pub max_depth: Option<u32>,
    /// Abort the search after expanding this many nodes.
    pub max_nodes: Option<u64>,
    /// Search-state representation for the sprouting (frontier-based)
    /// engines: structure-sharing frames by default, copy-per-child as
    /// the measurable baseline. The trail-based depth-first engine never
    /// sprouts and ignores this.
    pub state_repr: StateRepr,
    /// Span context of the request this solve belongs to (`None` — the
    /// default — means untraced: every instrumentation site downstream
    /// is a branch on `None`). Engines and executors parent their spans
    /// and events (worker spans, frontier counter events) under it.
    pub trace: Option<blog_obs::SpanCtx>,
}

impl Default for SolveConfig {
    fn default() -> Self {
        SolveConfig {
            max_solutions: None,
            max_depth: None,
            max_nodes: Some(10_000_000),
            state_repr: StateRepr::default(),
            trace: None,
        }
    }
}

impl SolveConfig {
    /// Enumerate every solution, no depth limit.
    pub fn all() -> Self {
        Self::default()
    }

    /// Stop at the first solution.
    pub fn first() -> Self {
        SolveConfig {
            max_solutions: Some(1),
            ..Self::default()
        }
    }

    /// Set a depth limit.
    pub fn with_max_depth(mut self, d: u32) -> Self {
        self.max_depth = Some(d);
        self
    }

    /// Set a node budget.
    pub fn with_max_nodes(mut self, n: u64) -> Self {
        self.max_nodes = Some(n);
        self
    }

    /// Set the search-state representation.
    pub fn with_state_repr(mut self, repr: StateRepr) -> Self {
        self.state_repr = repr;
        self
    }

    /// Attach the request's span context (see [`SolveConfig::trace`]).
    pub fn with_trace(mut self, trace: Option<blog_obs::SpanCtx>) -> Self {
        self.trace = trace;
        self
    }
}

/// Work counters, comparable across every engine in the workspace.
#[derive(Clone, Copy, Default, Debug, Serialize)]
pub struct SearchStats {
    /// OR-tree nodes whose first goal was resolved.
    pub nodes_expanded: u64,
    /// Head unifications attempted.
    pub unify_attempts: u64,
    /// Head unifications that succeeded.
    pub unify_successes: u64,
    /// Solutions recorded.
    pub solutions: u64,
    /// Failure leaves reached (a node with goals left but no children).
    pub failures: u64,
    /// Largest frontier (breadth-first/best-first) or choice-point stack
    /// (depth-first) observed.
    pub max_frontier: usize,
    /// Whether the depth limit cut off at least one chain.
    pub depth_cutoff: bool,
    /// Whether the node budget aborted the search.
    pub truncated: bool,
    /// Bytes of search state physically copied sprouting children (the
    /// §6 copying cost; see
    /// [`ExpandStats::bytes_copied`](crate::node::ExpandStats)). Zero for
    /// the trail-based depth-first engine, which never sprouts.
    pub bytes_copied: u64,
}

impl SearchStats {
    /// Fold another engine's counters into this one (used by iterative
    /// deepening and by the parallel executor's per-worker merge).
    pub fn merge(&mut self, other: &SearchStats) {
        self.nodes_expanded += other.nodes_expanded;
        self.unify_attempts += other.unify_attempts;
        self.unify_successes += other.unify_successes;
        self.solutions += other.solutions;
        self.failures += other.failures;
        self.max_frontier = self.max_frontier.max(other.max_frontier);
        self.depth_cutoff |= other.depth_cutoff;
        self.truncated |= other.truncated;
        self.bytes_copied += other.bytes_copied;
    }
}

/// One solution: the query variables fully resolved.
#[derive(Clone, Debug)]
pub struct Solution {
    /// Source names of the query variables (shared across solutions).
    pub var_names: Arc<Vec<String>>,
    /// Resolved term for each query variable, by [`VarId`] index.
    pub terms: Vec<Term>,
    /// Chain length (arcs from the root) at which this solution closed.
    pub depth: u32,
}

impl Solution {
    /// Resolved binding of the query variable with source name `name`,
    /// rendered as text.
    pub fn binding_text(&self, db: &ClauseDb, name: &str) -> Option<String> {
        let idx = self.var_names.iter().position(|n| n == name)?;
        Some(term_to_string(db, &self.terms[idx]))
    }

    /// Render the whole solution as `X = …, Y = …`.
    pub fn to_text(&self, db: &ClauseDb) -> String {
        self.to_text_syms(db.symbols())
    }

    /// [`Solution::to_text`] addressed by symbol table, for callers that
    /// hold an epoch-pinned snapshot rather than a whole database.
    pub fn to_text_syms(&self, symbols: &crate::symbol::SymbolTable) -> String {
        if self.var_names.is_empty() {
            return "true".to_owned();
        }
        self.var_names
            .iter()
            .zip(self.terms.iter())
            .map(|(n, t)| format!("{} = {}", n, crate::pretty::term_to_string_syms(symbols, t)))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// The outcome of a search.
#[derive(Clone, Debug)]
pub struct SolveResult {
    /// Solutions in the order the strategy discovered them.
    pub solutions: Vec<Solution>,
    /// Work counters.
    pub stats: SearchStats,
}

impl SolveResult {
    /// Convenience: solutions rendered via [`Solution::to_text`].
    pub fn solution_texts(&self, db: &ClauseDb) -> Vec<String> {
        self.solutions.iter().map(|s| s.to_text(db)).collect()
    }
}

// ---------------------------------------------------------------------
// Depth-first (trail-based backtracking — the Prolog baseline)
// ---------------------------------------------------------------------

struct DfsEngine<'a> {
    db: &'a ClauseDb,
    config: &'a SolveConfig,
    bindings: Bindings,
    trail: Trail,
    next_var: u32,
    stats: SearchStats,
    solutions: Vec<Solution>,
    var_names: Arc<Vec<String>>,
    n_query_vars: u32,
    cp_depth: usize,
    /// Argument-key buffers not in use by a live choice point: each one
    /// borrows a buffer for its candidate loop and gives it back, so the
    /// pool grows to the deepest recursion and no further.
    key_pool: Vec<GoalKeys>,
}

impl<'a> DfsEngine<'a> {
    fn record_solution(&mut self, depth: u32) -> ControlFlow<()> {
        let flow = push_solution(&mut self.solutions, self.config.max_solutions, || {
            Solution {
                var_names: Arc::clone(&self.var_names),
                terms: (0..self.n_query_vars)
                    .map(|i| self.bindings.resolve(&Term::Var(VarId(i))))
                    .collect(),
                depth,
            }
        });
        self.stats.solutions = self.solutions.len() as u64;
        flow
    }

    fn dfs(&mut self, goals: &GoalStack, depth: u32) -> ControlFlow<()> {
        let (goal, rest) = match goals.first() {
            None => return self.record_solution(depth),
            Some(g) => (g.clone(), goals.rest()),
        };
        if let Some(limit) = self.config.max_depth {
            if depth >= limit {
                self.stats.depth_cutoff = true;
                return ControlFlow::Continue(());
            }
        }
        if let Some(budget) = self.config.max_nodes {
            if self.stats.nodes_expanded >= budget {
                self.stats.truncated = true;
                return ControlFlow::Break(());
            }
        }
        self.stats.nodes_expanded += 1;
        self.cp_depth += 1;
        self.stats.max_frontier = self.stats.max_frontier.max(self.cp_depth);

        // `walk_cow` borrows from `goal` (owned above) when the walk goes
        // nowhere, so the store is only copied into when a dereference
        // actually moved — the hot already-resolved path clones nothing.
        let goal_term = self.bindings.walk_cow(&goal.term);
        let db = self.db;
        let candidates = db.candidates_for(&goal_term);
        // As in `try_expand_via`: keys only when there is a choice.
        let keys = (candidates.len() >= 2).then(|| {
            let mut keys = self.key_pool.pop().unwrap_or_default();
            keys.fill(&goal_term, &self.bindings);
            keys
        });
        let mut any_child = false;
        for &cid in candidates {
            self.stats.unify_attempts += 1;
            let clause = db.clause(cid);
            if keys.as_ref().is_some_and(|k| !k.admits(&clause.head)) {
                continue;
            }
            let base = self.next_var;
            let mark = self.trail.mark();
            self.bindings.ensure((base + clause.n_vars) as usize);
            if unify_head(
                &mut self.bindings,
                &mut self.trail,
                &goal_term,
                &clause.head,
                base,
                false,
            ) {
                self.stats.unify_successes += 1;
                any_child = true;
                self.next_var = base + clause.n_vars;
                let mut child_goals = rest.clone();
                for (i, b) in clause.body.iter().enumerate().rev() {
                    child_goals = child_goals.push(Goal {
                        term: b.offset_vars(base),
                        caller: Caller::Clause(cid),
                        goal_idx: goal_idx(i),
                    });
                }
                let flow = self.dfs(&child_goals, depth + 1);
                self.next_var = base;
                self.bindings.undo_to(&mut self.trail, mark);
                if flow.is_break() {
                    self.cp_depth -= 1;
                    self.key_pool.extend(keys);
                    return ControlFlow::Break(());
                }
            } else {
                self.bindings.undo_to(&mut self.trail, mark);
            }
        }
        if !any_child {
            self.stats.failures += 1;
        }
        self.cp_depth -= 1;
        self.key_pool.extend(keys);
        ControlFlow::Continue(())
    }
}

/// Run Prolog-style depth-first SLD resolution.
pub fn dfs_all(db: &ClauseDb, query: &Query, config: &SolveConfig) -> SolveResult {
    let root = SearchNode::root(&query.goals);
    let mut engine = DfsEngine {
        db,
        config,
        bindings: Bindings::with_capacity(root.next_var as usize),
        trail: Trail::new(),
        next_var: root.next_var,
        stats: SearchStats::default(),
        solutions: Vec::new(),
        var_names: Arc::new(query.var_names.clone()),
        n_query_vars: query.var_names.len() as u32,
        cp_depth: 0,
        key_pool: Vec::new(),
    };
    let goals = root.goal_stack();
    let _ = engine.dfs(&goals, 0);
    SolveResult {
        solutions: engine.solutions,
        stats: engine.stats,
    }
}

// ---------------------------------------------------------------------
// Breadth-first: the one OR-tree walk
// ---------------------------------------------------------------------

/// What [`walk_breadth_first`] found at one node it took off its queue.
#[derive(Debug)]
pub enum WalkVisit<'a, T> {
    /// The goal list is empty: a solution leaf.
    Solution,
    /// The node sits at `max_depth` and was not expanded.
    Cutoff,
    /// The node was expanded: `children` (empty for a failure leaf) in
    /// clause order, and the work the expansion did. The visitor pushes
    /// one tag per child onto `child_tags`, in the same order; each child
    /// is queued with its tag.
    Expanded {
        /// The node's children.
        children: &'a [Expansion],
        /// Unification attempts, successes and bytes copied by this
        /// expansion alone.
        stats: ExpandStats,
        /// Where the visitor puts the children's tags.
        child_tags: &'a mut Vec<T>,
    },
}

/// Walk the OR-tree of `query` breadth-first through `source`, showing
/// every node taken off the FIFO queue to `visit` together with the tag
/// it was queued with (`root_tag` for the root). This is the one walk
/// behind [`bfs_all`] and the paper-side analyses that need "the final
/// form of the tree" (§3): the figure-3 OR-tree, the §4 chain equations
/// and the §6 machine workload.
///
/// The limit rule:
/// - a solution is always reported;
/// - a node at `max_depth` is reported as a cutoff leaf (setting
///   [`SearchStats::depth_cutoff`]) and the walk goes on;
/// - once `max_nodes` nodes have been expanded, the next node that needs
///   expanding ends the walk with [`SearchStats::truncated`] set, and the
///   nodes still queued are never visited.
///
/// A visitor returning `Break` ends the walk at once. `max_solutions` is
/// the visitor's business, so [`SearchStats::solutions`] is left at zero.
/// One set of [`ExpandBuffers`] serves every expansion; a store fault
/// ends the walk with the `Err`.
pub fn walk_breadth_first<S, T, V>(
    source: &S,
    query: &Query,
    limits: &SolveConfig,
    root_tag: T,
    mut visit: V,
) -> Result<SearchStats, StoreError>
where
    S: ClauseSource + ?Sized,
    V: FnMut(&SearchNode, T, WalkVisit<'_, T>) -> ControlFlow<()>,
{
    let mut stats = SearchStats::default();
    let mut bufs = ExpandBuffers::default();
    let mut tags = Vec::new();
    let mut queue = VecDeque::new();
    queue.push_back((
        SearchNode::root_with(&query.goals, limits.state_repr),
        root_tag,
    ));

    while let Some((node, tag)) = queue.pop_front() {
        let flow = if node.is_solution() {
            visit(&node, tag, WalkVisit::Solution)
        } else if limits.max_depth.is_some_and(|d| node.depth >= d) {
            stats.depth_cutoff = true;
            visit(&node, tag, WalkVisit::Cutoff)
        } else if limits.max_nodes.is_some_and(|n| stats.nodes_expanded >= n) {
            stats.truncated = true;
            break;
        } else {
            stats.nodes_expanded += 1;
            let mut est = ExpandStats::default();
            try_expand_via(source, &node, &mut est, &mut bufs)?;
            stats.unify_attempts += est.unify_attempts;
            stats.unify_successes += est.unify_successes;
            stats.bytes_copied += est.bytes_copied;
            if bufs.children.is_empty() {
                stats.failures += 1;
            }
            let flow = visit(
                &node,
                tag,
                WalkVisit::Expanded {
                    children: &bufs.children,
                    stats: est,
                    child_tags: &mut tags,
                },
            );
            assert_eq!(tags.len(), bufs.children.len(), "one tag per child");
            queue.extend(bufs.children.drain(..).map(|c| c.node).zip(tags.drain(..)));
            stats.max_frontier = stats.max_frontier.max(queue.len());
            flow
        };
        if flow.is_break() {
            break;
        }
    }
    Ok(stats)
}

/// Record `make()` unless `max_solutions` is already met, and say whether
/// the search should stop: `Break` once the cap is reached. A cap of 0
/// records nothing, so a result's length never exceeds its cap.
pub fn push_solution(
    solutions: &mut Vec<Solution>,
    max_solutions: Option<usize>,
    make: impl FnOnce() -> Solution,
) -> ControlFlow<()> {
    let full = |n: usize| max_solutions.is_some_and(|m| n >= m);
    if !full(solutions.len()) {
        solutions.push(make());
    }
    if full(solutions.len()) {
        ControlFlow::Break(())
    } else {
        ControlFlow::Continue(())
    }
}

/// Run breadth-first search over the OR-tree (FIFO frontier): the
/// [`walk_breadth_first`] that records each solution it meets.
pub fn bfs_all(db: &ClauseDb, query: &Query, config: &SolveConfig) -> SolveResult {
    let var_names = Arc::new(query.var_names.clone());
    let n_query_vars = query.var_names.len() as u32;
    let mut solutions = Vec::new();
    let walk = walk_breadth_first(db, query, config, (), |node, (), visit| match visit {
        WalkVisit::Solution => push_solution(&mut solutions, config.max_solutions, || Solution {
            var_names: Arc::clone(&var_names),
            terms: (0..n_query_vars).map(|i| node.resolve_var(i)).collect(),
            depth: node.depth,
        }),
        WalkVisit::Cutoff => ControlFlow::Continue(()),
        WalkVisit::Expanded {
            children,
            child_tags,
            ..
        } => {
            child_tags.resize(children.len(), ());
            ControlFlow::Continue(())
        }
    });
    let mut stats = walk.expect("the in-memory ClauseDb never faults");
    stats.solutions = solutions.len() as u64;
    SolveResult { solutions, stats }
}

// ---------------------------------------------------------------------
// Iterative deepening
// ---------------------------------------------------------------------

/// Iterative-deepening depth-first search: run [`dfs_all`] with depth
/// limits `start, start+step, …` until no chain is cut off (complete
/// enumeration) or, when `config.max_solutions` is set, enough solutions
/// appear. Stats are accumulated over every iteration, which is the honest
/// cost of the strategy.
pub fn iterative_deepening(
    db: &ClauseDb,
    query: &Query,
    config: &SolveConfig,
    start: u32,
    step: u32,
) -> SolveResult {
    assert!(step > 0, "iterative deepening needs a positive step");
    let mut total = SearchStats::default();
    let mut limit = start;
    loop {
        let iter_config = SolveConfig {
            max_depth: Some(limit),
            ..config.clone()
        };
        let result = dfs_all(db, query, &iter_config);
        total.merge(&result.stats);
        let enough = config
            .max_solutions
            .is_some_and(|m| result.solutions.len() >= m);
        if enough || !result.stats.depth_cutoff || result.stats.truncated {
            // Report the final iteration's solutions with cumulative work,
            // and only flag a cutoff if the *final* pass was cut off.
            total.solutions = result.stats.solutions;
            total.depth_cutoff = result.stats.depth_cutoff;
            return SolveResult {
                solutions: result.solutions,
                stats: total,
            };
        }
        limit += step;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    const FAMILY: &str = "
        gf(X,Z) :- f(X,Y), f(Y,Z).
        gf(X,Z) :- f(X,Y), m(Y,Z).
        f(curt,elain). f(sam,larry). f(dan,pat). f(larry,den).
        f(pat,john). f(larry,doug).
        m(elain,john). m(marian,elain). m(peg,den). m(peg,doug).
        ?- gf(sam,G).
    ";

    #[test]
    fn a_token_past_its_deadline_is_cancelled_without_a_cancel_call() {
        let now = Instant::now();
        let passed = CancelToken::until(now);
        assert!(passed.is_cancelled());
        assert!(passed.clone().is_cancelled(), "clones share the deadline");
        let far = CancelToken::until(now + std::time::Duration::from_secs(3600));
        assert!(!far.is_cancelled());
        let clone = far.clone();
        far.cancel();
        assert!(clone.is_cancelled(), "cancel still trips every clone");
    }

    #[test]
    fn a_token_without_a_deadline_stays_live_until_cancelled() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        assert!(!clone.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled());
        assert!(clone.is_cancelled());
    }

    #[test]
    fn dfs_finds_both_grandchildren_in_order() {
        let p = parse_program(FAMILY).unwrap();
        let r = dfs_all(&p.db, &p.queries[0], &SolveConfig::all());
        let names: Vec<_> = r
            .solutions
            .iter()
            .map(|s| s.binding_text(&p.db, "G").unwrap())
            .collect();
        // Prolog order: den before doug (clause order of the f facts).
        assert_eq!(names, vec!["den", "doug"]);
        assert_eq!(r.stats.solutions, 2);
    }

    #[test]
    fn dfs_first_solution_stops_early() {
        let p = parse_program(FAMILY).unwrap();
        let all = dfs_all(&p.db, &p.queries[0], &SolveConfig::all());
        let first = dfs_all(&p.db, &p.queries[0], &SolveConfig::first());
        assert_eq!(first.solutions.len(), 1);
        assert!(first.stats.nodes_expanded < all.stats.nodes_expanded);
    }

    #[test]
    fn bfs_finds_the_same_solution_set() {
        let p = parse_program(FAMILY).unwrap();
        let d = dfs_all(&p.db, &p.queries[0], &SolveConfig::all());
        let b = bfs_all(&p.db, &p.queries[0], &SolveConfig::all());
        let mut dn: Vec<_> = d
            .solutions
            .iter()
            .map(|s| s.binding_text(&p.db, "G").unwrap())
            .collect();
        let mut bn: Vec<_> = b
            .solutions
            .iter()
            .map(|s| s.binding_text(&p.db, "G").unwrap())
            .collect();
        dn.sort();
        bn.sort();
        assert_eq!(dn, bn);
    }

    #[test]
    fn solutions_record_depth() {
        let p = parse_program(FAMILY).unwrap();
        let r = dfs_all(&p.db, &p.queries[0], &SolveConfig::all());
        // gf -> f(sam,Y) -> f(larry,G): three resolution arcs.
        assert!(r.solutions.iter().all(|s| s.depth == 3));
    }

    #[test]
    fn depth_limit_cuts_left_recursion() {
        // path/2 over a cyclic graph loops forever under plain DFS;
        // the depth limit keeps it finite and flags the cutoff.
        let p = parse_program(
            "
            edge(a,b). edge(b,a).
            path(X,Y) :- edge(X,Y).
            path(X,Z) :- edge(X,Y), path(Y,Z).
            ?- path(a,b).
        ",
        )
        .unwrap();
        let cfg = SolveConfig::all().with_max_depth(10);
        let r = dfs_all(&p.db, &p.queries[0], &cfg);
        assert!(r.stats.depth_cutoff);
        assert!(r.stats.solutions > 0);
    }

    #[test]
    fn node_budget_truncates() {
        let p = parse_program(
            "
            edge(a,b). edge(b,a).
            path(X,Y) :- edge(X,Y).
            path(X,Z) :- edge(X,Y), path(Y,Z).
            ?- path(a,b).
        ",
        )
        .unwrap();
        let cfg = SolveConfig {
            max_nodes: Some(50),
            ..SolveConfig::all()
        };
        let r = dfs_all(&p.db, &p.queries[0], &cfg);
        assert!(r.stats.truncated);
        assert!(r.stats.nodes_expanded <= 51);
    }

    #[test]
    fn bfs_finds_shallowest_solution_first() {
        let p = parse_program(
            "
            p(deep) :- q, q, q, r.
            p(shallow).
            q.
            r.
            ?- p(X).
        ",
        )
        .unwrap();
        let r = bfs_all(&p.db, &p.queries[0], &SolveConfig::first());
        assert_eq!(r.solutions[0].binding_text(&p.db, "X").unwrap(), "shallow");
        // DFS would have committed to the first clause and found 'deep'.
        let d = dfs_all(&p.db, &p.queries[0], &SolveConfig::first());
        assert_eq!(d.solutions[0].binding_text(&p.db, "X").unwrap(), "deep");
    }

    #[test]
    fn iterative_deepening_is_complete_on_cyclic_graph() {
        let p = parse_program(
            "
            edge(a,b). edge(b,c). edge(c,a).
            path(X,Y) :- edge(X,Y).
            path(X,Z) :- edge(X,Y), path(Y,Z).
            ?- path(a,c).
        ",
        )
        .unwrap();
        let cfg = SolveConfig {
            max_solutions: Some(1),
            max_nodes: Some(100_000),
            ..SolveConfig::all()
        };
        let r = iterative_deepening(&p.db, &p.queries[0], &cfg, 1, 1);
        assert_eq!(r.solutions.len(), 1);
    }

    #[test]
    fn ground_query_yields_true() {
        let p = parse_program("f(a,b). ?- f(a,b).").unwrap();
        let r = dfs_all(&p.db, &p.queries[0], &SolveConfig::all());
        assert_eq!(r.solutions.len(), 1);
        assert_eq!(r.solutions[0].to_text(&p.db), "true");
    }

    #[test]
    fn failing_query_counts_failures() {
        let p = parse_program("f(a,b). ?- f(b,a).").unwrap();
        let r = dfs_all(&p.db, &p.queries[0], &SolveConfig::all());
        assert!(r.solutions.is_empty());
        assert_eq!(r.stats.failures, 1);
    }

    #[test]
    fn conjunction_binds_across_goals() {
        let p = parse_program("f(a,b). g(b,c). ?- f(a,X), g(X,Y).").unwrap();
        let r = dfs_all(&p.db, &p.queries[0], &SolveConfig::all());
        assert_eq!(r.solutions.len(), 1);
        assert_eq!(r.solutions[0].to_text(&p.db), "X = b, Y = c");
    }

    #[test]
    fn stats_match_between_engines_on_finite_tree() {
        // On a finite tree with no pruning, DFS and BFS expand the same
        // number of nodes (the whole tree) when enumerating everything.
        let p = parse_program(FAMILY).unwrap();
        let d = dfs_all(&p.db, &p.queries[0], &SolveConfig::all());
        let b = bfs_all(&p.db, &p.queries[0], &SolveConfig::all());
        assert_eq!(d.stats.nodes_expanded, b.stats.nodes_expanded);
        assert_eq!(d.stats.unify_attempts, b.stats.unify_attempts);
    }
}
