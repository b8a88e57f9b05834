//! The machine's workload: explicit weighted OR-trees.
//!
//! The DES schedules *chains over a tree*, so its workload format is the
//! final form of a search tree (§3: "referring to the final form of the
//! tree, at any time there is an imaginary line or 'wave front' cutting
//! across the tree"). Trees come from two places: synthetically planted
//! instances with controlled shape, and traces of real searches run by
//! the `blog-core` engine over actual logic programs.

use std::ops::ControlFlow;

use blog_core::util::SplitMix64;
use blog_core::weight::WeightView;
use blog_logic::{walk_breadth_first, ClauseSource, Query, SolveConfig, StoreError, WalkVisit};
use serde::Serialize;

/// Role of a tree node.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum NodeKind {
    /// Expandable node with children.
    Internal,
    /// Solution leaf.
    Solution,
    /// Failure leaf.
    Failure,
}

/// One node of the workload tree.
#[derive(Clone, Debug)]
pub struct TreeNode {
    /// Role.
    pub kind: NodeKind,
    /// Compute cycles its expansion costs on a processor.
    pub work: u64,
    /// Children as `(node index, arc weight)`.
    pub children: Vec<(u32, u64)>,
}

/// An explicit weighted OR-tree; node 0 is the root.
#[derive(Clone, Debug, Default)]
pub struct TreeSpec {
    /// Nodes in construction order.
    pub nodes: Vec<TreeNode>,
}

impl TreeSpec {
    /// The root node index.
    pub const ROOT: u32 = 0;

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of solution leaves.
    pub fn n_solutions(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Solution)
            .count()
    }

    /// Total compute work across all nodes (a serial lower bound on
    /// makespan, up to scheduling overheads).
    pub fn total_work(&self) -> u64 {
        self.nodes.iter().map(|n| n.work).sum()
    }

    /// Maximum depth (arcs from root).
    pub fn depth(&self) -> u32 {
        // Iterative DFS carrying depths.
        let mut best = 0;
        let mut stack = vec![(Self::ROOT, 0u32)];
        while let Some((n, d)) = stack.pop() {
            best = best.max(d);
            for &(c, _) in &self.nodes[n as usize].children {
                stack.push((c, d + 1));
            }
        }
        best
    }

    /// Validate structural invariants: children indices in range, leaves
    /// childless, internals with at least one child, acyclic by
    /// construction-order (children indices strictly greater than their
    /// parent's).
    pub fn validate(&self) -> Result<(), String> {
        for (i, n) in self.nodes.iter().enumerate() {
            match n.kind {
                NodeKind::Internal => {
                    if n.children.is_empty() {
                        return Err(format!("internal node {i} has no children"));
                    }
                }
                NodeKind::Solution | NodeKind::Failure => {
                    if !n.children.is_empty() {
                        return Err(format!("leaf node {i} has children"));
                    }
                }
            }
            for &(c, _) in &n.children {
                if c as usize >= self.nodes.len() {
                    return Err(format!("node {i} child {c} out of range"));
                }
                if c as usize <= i {
                    return Err(format!("node {i} child {c} breaks topological order"));
                }
            }
        }
        Ok(())
    }
}

/// Arc-weight model for planted trees.
#[derive(Clone, Copy, Debug, Serialize)]
pub enum WeightModel {
    /// Every arc has the same weight (the untrained, unknown-weight
    /// machine: best-first degenerates toward breadth-first).
    Uniform(u64),
    /// Arcs on planted solution paths are cheap, others expensive (a
    /// machine whose weights have converged; best-first walks straight
    /// to the solutions).
    Trained {
        /// Weight of solution-path arcs.
        on_path: u64,
        /// Weight of off-path arcs.
        off_path: u64,
    },
    /// Uniformly random weights in `lo..=hi` (a partially-trained machine
    /// where bounds genuinely differ between chains — the regime in which
    /// the D-threshold arbitration matters).
    Random {
        /// Minimum arc weight.
        lo: u64,
        /// Maximum arc weight.
        hi: u64,
    },
}

/// Parameters for [`planted_tree`].
#[derive(Clone, Copy, Debug, Serialize)]
pub struct PlantedTreeParams {
    /// Tree depth (solution paths have this many arcs).
    pub depth: u32,
    /// Children per internal node.
    pub branching: u32,
    /// Number of root-to-leaf solution paths to plant.
    pub n_solution_paths: u32,
    /// Arc-weight model.
    pub weights: WeightModel,
    /// Expansion work per node: uniform in `work_min..=work_max`.
    pub work_min: u64,
    /// See `work_min`.
    pub work_max: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PlantedTreeParams {
    fn default() -> Self {
        PlantedTreeParams {
            depth: 8,
            branching: 3,
            n_solution_paths: 4,
            weights: WeightModel::Uniform(1),
            work_min: 80,
            work_max: 120,
            seed: 1,
        }
    }
}

/// Generate a planted OR-tree: a complete `branching`-ary tree of
/// `depth` levels whose leaves are failures, except along
/// `n_solution_paths` randomly-drawn root-to-leaf paths whose leaves are
/// solutions.
pub fn planted_tree(params: &PlantedTreeParams) -> TreeSpec {
    assert!(params.depth >= 1 && params.branching >= 1);
    assert!(params.work_min <= params.work_max);
    let mut rng = SplitMix64::new(params.seed);
    let mut tree = TreeSpec::default();

    // Draw the solution paths as child-index sequences.
    let mut paths: Vec<Vec<u32>> = Vec::new();
    for _ in 0..params.n_solution_paths {
        let path: Vec<u32> = (0..params.depth)
            .map(|_| rng.below(params.branching as usize) as u32)
            .collect();
        if !paths.contains(&path) {
            paths.push(path);
        }
    }

    let work = |rng: &mut SplitMix64| {
        params.work_min + rng.next_u64() % (params.work_max - params.work_min + 1)
    };

    // Build breadth-first. Each queue entry: (node index, depth, the set
    // of planted paths passing through it).
    tree.nodes.push(TreeNode {
        kind: NodeKind::Internal,
        work: work(&mut rng),
        children: Vec::new(),
    });
    let mut queue: Vec<(u32, u32, Vec<usize>)> = vec![(0, 0, (0..paths.len()).collect())];
    let mut head = 0;
    while head < queue.len() {
        let (idx, depth, through) = queue[head].clone();
        head += 1;
        for c in 0..params.branching {
            let child_through: Vec<usize> = through
                .iter()
                .copied()
                .filter(|&p| paths[p][depth as usize] == c)
                .collect();
            let at_leaf = depth + 1 == params.depth;
            let kind = if at_leaf {
                if child_through.is_empty() {
                    NodeKind::Failure
                } else {
                    NodeKind::Solution
                }
            } else {
                NodeKind::Internal
            };
            let on_path = !child_through.is_empty();
            let weight = match params.weights {
                WeightModel::Uniform(w) => w,
                WeightModel::Trained {
                    on_path: wp,
                    off_path: wo,
                } => {
                    if on_path {
                        wp
                    } else {
                        wo
                    }
                }
                WeightModel::Random { lo, hi } => {
                    debug_assert!(lo <= hi);
                    lo + rng.next_u64() % (hi - lo + 1)
                }
            };
            let child_idx = tree.nodes.len() as u32;
            tree.nodes.push(TreeNode {
                kind,
                work: work(&mut rng),
                children: Vec::new(),
            });
            tree.nodes[idx as usize].children.push((child_idx, weight));
            if kind == NodeKind::Internal {
                queue.push((child_idx, depth + 1, child_through));
            }
        }
    }
    debug_assert!(tree.validate().is_ok());
    tree
}

/// Trace a real logic query into a [`TreeSpec`]: the complete OR-tree of
/// the query, walked through `source` by [`walk_breadth_first`], with arc
/// weights read through `view` and per-node work set to
/// `work_base + work_per_attempt * unify_attempts`.
///
/// The source may be the in-memory [`ClauseDb`](blog_logic::ClauseDb) or
/// a snapshot of the paged store, whose index and faults then shape the
/// trace; a store fault is returned as the `Err`.
///
/// Enumeration is bounded by `limits` under the walk's limit rule:
/// cut-off nodes, and the nodes still queued when the node budget ends
/// the walk, become failures (the machine then simply has less tree to
/// search).
pub fn tree_from_search<S: ClauseSource + ?Sized>(
    source: &S,
    query: &Query,
    view: &WeightView<'_>,
    limits: &SolveConfig,
    work_base: u64,
    work_per_attempt: u64,
) -> Result<TreeSpec, StoreError> {
    // A node stays a failure leaf unless its visit says otherwise.
    let leaf = TreeNode {
        kind: NodeKind::Failure,
        work: work_base,
        children: Vec::new(),
    };
    let mut nodes = vec![leaf.clone()];
    walk_breadth_first(source, query, limits, 0, |_, idx: u32, visit| {
        let idx = idx as usize;
        match visit {
            WalkVisit::Solution => nodes[idx].kind = NodeKind::Solution,
            WalkVisit::Cutoff => {}
            WalkVisit::Expanded {
                children,
                stats,
                child_tags,
            } => {
                nodes[idx].work = work_base + work_per_attempt * stats.unify_attempts;
                for child in children {
                    let child_idx = nodes.len() as u32;
                    let w = view.effective_weight(child.arc).0 as u64;
                    child_tags.push(child_idx);
                    nodes[idx].children.push((child_idx, w));
                    nodes[idx].kind = NodeKind::Internal;
                    nodes.push(leaf.clone());
                }
            }
        }
        ControlFlow::Continue(())
    })?;
    let tree = TreeSpec { nodes };
    debug_assert!(tree.validate().is_ok());
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blog_core::weight::{WeightParams, WeightStore};
    use blog_logic::parse_program;
    use std::collections::HashMap;

    #[test]
    fn planted_tree_shape() {
        let t = planted_tree(&PlantedTreeParams {
            depth: 3,
            branching: 2,
            n_solution_paths: 2,
            ..PlantedTreeParams::default()
        });
        // Complete binary tree of depth 3: 1+2+4+8 = 15 nodes.
        assert_eq!(t.len(), 15);
        assert!(t.n_solutions() >= 1 && t.n_solutions() <= 2);
        assert_eq!(t.depth(), 3);
        t.validate().unwrap();
    }

    #[test]
    fn planted_solutions_only_at_leaves() {
        let t = planted_tree(&PlantedTreeParams::default());
        for n in &t.nodes {
            if n.kind == NodeKind::Solution {
                assert!(n.children.is_empty());
            }
        }
    }

    #[test]
    fn trained_weights_mark_solution_paths() {
        let t = planted_tree(&PlantedTreeParams {
            depth: 4,
            branching: 2,
            n_solution_paths: 1,
            weights: WeightModel::Trained {
                on_path: 0,
                off_path: 10,
            },
            seed: 3,
            ..PlantedTreeParams::default()
        });
        // Walking zero-weight arcs from the root must reach a solution.
        let mut cur = 0u32;
        loop {
            let node = &t.nodes[cur as usize];
            if node.kind == NodeKind::Solution {
                break;
            }
            assert_ne!(node.kind, NodeKind::Failure, "zero path hit a failure");
            let next = node
                .children
                .iter()
                .find(|(_, w)| *w == 0)
                .expect("an on-path child exists");
            cur = next.0;
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = PlantedTreeParams::default();
        let a = planted_tree(&p);
        let b = planted_tree(&p);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.total_work(), b.total_work());
    }

    #[test]
    fn traced_family_tree_matches_known_shape() {
        let p = parse_program(
            "
            gf(X,Z) :- f(X,Y), f(Y,Z).
            gf(X,Z) :- f(X,Y), m(Y,Z).
            f(curt,elain). f(sam,larry). f(dan,pat). f(larry,den).
            f(pat,john). f(larry,doug).
            m(elain,john). m(marian,elain). m(peg,den). m(peg,doug).
            ?- gf(sam,G).
        ",
        )
        .unwrap();
        let store = WeightStore::new(WeightParams::default());
        let mut local = HashMap::new();
        let view = WeightView::new(&mut local, &store);
        let t = tree_from_search(&p.db, &p.queries[0], &view, &SolveConfig::all(), 10, 1).unwrap();
        // Same 7-node shape as the figure-3 OR-tree.
        assert_eq!(t.len(), 7);
        assert_eq!(t.n_solutions(), 2);
        t.validate().unwrap();
        // Work accounts for unification attempts: the root tried 2 rules.
        assert_eq!(t.nodes[0].work, 10 + 2);
    }

    #[test]
    fn validate_rejects_bad_trees() {
        let mut t = TreeSpec::default();
        t.nodes.push(TreeNode {
            kind: NodeKind::Internal,
            work: 1,
            children: vec![],
        });
        assert!(t.validate().is_err(), "childless internal");
        t.nodes[0].kind = NodeKind::Solution;
        t.nodes[0].children.push((0, 1));
        assert!(t.validate().is_err(), "leaf with children");
    }
}
