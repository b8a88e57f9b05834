//! Explicit OR-tree construction — the paper's figure 3, as a data
//! structure.
//!
//! The engines never materialize the whole tree; this module does, for
//! inspection, testing (the F3 experiment checks the family tree's exact
//! shape) and visualization (`to_dot`). It is one visitor of
//! [`walk_breadth_first`], the walk behind breadth-first search, the §4
//! chain enumeration and the machine's traced workloads.

use std::ops::ControlFlow;

use blog_logic::pretty::term_to_string;
use blog_logic::{
    walk_breadth_first, ClauseDb, PointerKey, Query, SearchNode, SolveConfig, WalkVisit,
};
use serde::Serialize;

/// The role of a node in the OR-tree.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum NodeKind {
    /// Has children (at least one candidate resolved).
    Internal,
    /// Empty goal list: a solution leaf.
    Solution,
    /// Goals remained but nothing resolved the first one.
    Failure,
    /// The depth/node limit stopped expansion here.
    Cutoff,
}

/// One node of the explicit OR-tree.
#[derive(Clone, Debug)]
pub struct OrNode {
    /// Parent index (`None` for the root).
    pub parent: Option<usize>,
    /// The arc (figure-4 pointer) from the parent (`None` for the root).
    pub arc: Option<PointerKey>,
    /// Role of the node.
    pub kind: NodeKind,
    /// Arcs from the root.
    pub depth: u32,
    /// The goal this node is about to search for, rendered (the "bottom
    /// half" of the paper's figure-3 nodes); `None` for solutions.
    pub goal_text: Option<String>,
    /// Child node indices.
    pub children: Vec<usize>,
}

/// The materialized OR-tree of a query.
#[derive(Clone, Debug)]
pub struct OrTree {
    /// Nodes; index 0 is the root.
    pub nodes: Vec<OrNode>,
    /// True if limits stopped the construction early.
    pub truncated: bool,
}

/// Shape summary used by the F3 test and the experiments harness.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug, Serialize)]
pub struct TreeShape {
    /// Total nodes.
    pub nodes: usize,
    /// Internal nodes.
    pub internal: usize,
    /// Solution leaves.
    pub solutions: usize,
    /// Failure leaves.
    pub failures: usize,
    /// Cutoff leaves.
    pub cutoffs: usize,
    /// Maximum depth (arcs).
    pub depth: u32,
}

impl OrTree {
    /// Shape summary.
    pub fn shape(&self) -> TreeShape {
        let mut s = TreeShape {
            nodes: self.nodes.len(),
            ..TreeShape::default()
        };
        for n in &self.nodes {
            s.depth = s.depth.max(n.depth);
            match n.kind {
                NodeKind::Internal => s.internal += 1,
                NodeKind::Solution => s.solutions += 1,
                NodeKind::Failure => s.failures += 1,
                NodeKind::Cutoff => s.cutoffs += 1,
            }
        }
        s
    }

    /// Render as Graphviz dot (solutions doubled circles, failures boxed).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph ortree {\n  node [fontname=\"monospace\"];\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let label = n.goal_text.clone().unwrap_or_else(|| "⊤".to_owned());
            let shape = match n.kind {
                NodeKind::Internal => "ellipse",
                NodeKind::Solution => "doublecircle",
                NodeKind::Failure => "box",
                NodeKind::Cutoff => "diamond",
            };
            out.push_str(&format!(
                "  n{i} [label=\"{}\", shape={shape}];\n",
                label.replace('"', "'")
            ));
            if let Some(p) = n.parent {
                out.push_str(&format!("  n{p} -> n{i};\n"));
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Build the explicit OR-tree for `query` under `limits`: a visitor of
/// [`walk_breadth_first`], whose limit rule it inherits. Nodes at
/// `max_depth` become `Cutoff` leaves; when the node budget ends the walk,
/// every node still queued stays a `Cutoff` leaf too, whatever it would
/// have turned out to be.
pub fn build_ortree(db: &ClauseDb, query: &Query, limits: &SolveConfig) -> OrTree {
    // A node stays a cutoff leaf unless its visit says otherwise.
    let mut nodes = vec![OrNode {
        parent: None,
        arc: None,
        kind: NodeKind::Cutoff,
        depth: 0,
        goal_text: query.goals.first().map(|g| term_to_string(db, g)),
        children: Vec::new(),
    }];
    let walk = walk_breadth_first(db, query, limits, 0, |_, idx: usize, visit| {
        nodes[idx].kind = match visit {
            WalkVisit::Solution => NodeKind::Solution,
            WalkVisit::Cutoff => NodeKind::Cutoff,
            WalkVisit::Expanded { children: [], .. } => NodeKind::Failure,
            WalkVisit::Expanded {
                children,
                child_tags,
                ..
            } => {
                for child in children {
                    let child_idx = nodes.len();
                    child_tags.push(child_idx);
                    nodes[idx].children.push(child_idx);
                    nodes.push(OrNode {
                        parent: Some(idx),
                        arc: Some(child.arc),
                        kind: NodeKind::Cutoff,
                        depth: child.node.depth,
                        goal_text: goal_text(db, &child.node),
                        children: Vec::new(),
                    });
                }
                NodeKind::Internal
            }
        };
        ControlFlow::Continue(())
    });
    let stats = walk.expect("the in-memory ClauseDb never faults");
    OrTree {
        nodes,
        truncated: stats.depth_cutoff || stats.truncated,
    }
}

fn goal_text(db: &ClauseDb, node: &SearchNode) -> Option<String> {
    node.first_goal()
        .map(|g| term_to_string(db, &node.resolve(&g.term)))
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

    #[test]
    fn figure_3_tree_shape() {
        let p = parse_program(FAMILY).unwrap();
        let t = build_ortree(&p.db, &p.queries[0], &SolveConfig::all());
        let s = t.shape();
        // Figure 3: root, two rule branches, the duplicated (sam)-f->
        // (larry) node on each, two solutions under the left, and the
        // failing m-search on the right: 7 nodes in our node model.
        assert_eq!(
            s,
            TreeShape {
                nodes: 7,
                internal: 4,
                solutions: 2,
                failures: 1,
                cutoffs: 0,
                depth: 3,
            }
        );
        assert!(!t.truncated);
    }

    #[test]
    fn root_goal_text_is_the_query() {
        let p = parse_program(FAMILY).unwrap();
        let t = build_ortree(&p.db, &p.queries[0], &SolveConfig::all());
        assert_eq!(t.nodes[0].goal_text.as_deref(), Some("gf(sam,_G0)"));
    }

    #[test]
    fn duplicated_search_appears_in_both_branches() {
        // Both rule branches next search f(sam,Y) and reach f(sam,larry):
        // the goal text "f(larry,…)" appears under the left branch and
        // "m(larry,…)" under the right.
        let p = parse_program(FAMILY).unwrap();
        let t = build_ortree(&p.db, &p.queries[0], &SolveConfig::all());
        let texts: Vec<_> = t
            .nodes
            .iter()
            .filter_map(|n| n.goal_text.as_deref())
            .collect();
        assert!(texts.iter().any(|t| t.starts_with("f(larry,")), "{texts:?}");
        assert!(texts.iter().any(|t| t.starts_with("m(larry,")), "{texts:?}");
    }

    #[test]
    fn children_indices_are_consistent() {
        let p = parse_program(FAMILY).unwrap();
        let t = build_ortree(&p.db, &p.queries[0], &SolveConfig::all());
        for (i, n) in t.nodes.iter().enumerate() {
            for &c in &n.children {
                assert_eq!(t.nodes[c].parent, Some(i));
            }
        }
    }

    #[test]
    fn depth_limit_produces_cutoffs() {
        let p = parse_program(FAMILY).unwrap();
        let t = build_ortree(&p.db, &p.queries[0], &SolveConfig::all().with_max_depth(2));
        assert!(t.truncated);
        assert!(t.shape().cutoffs > 0);
    }

    #[test]
    fn dot_export_mentions_every_node() {
        let p = parse_program(FAMILY).unwrap();
        let t = build_ortree(&p.db, &p.queries[0], &SolveConfig::all());
        let dot = t.to_dot();
        for i in 0..t.nodes.len() {
            assert!(dot.contains(&format!("n{i} ")));
        }
        assert!(dot.contains("doublecircle"));
        assert!(dot.contains("box"));
    }
}
