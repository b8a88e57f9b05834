//! Persistent goal stacks — `Arc`-shared cons lists of pending goals.
//!
//! The second half of the paper's §6 sprouting cost: rebuilding the goal
//! `Vec` for every child copies the whole continuation. A [`GoalStack`] is
//! an immutable cons list, so [`try_expand_via`](crate::node::try_expand_via)
//! pushes a clause's renamed body goals in front of the *shared* tail —
//! every child of a node (and every node of a chain) aliases the same
//! continuation cells, and sprouting copies only the new body goals.
//!
//! The depth-first engine uses the same type for its backtracking goal
//! list (it was a private cons list before; now the representation is
//! shared by every engine in the workspace).

use std::sync::Arc;

use crate::node::Goal;

/// An immutable, `Arc`-shared stack of pending goals (leftmost goal on
/// top, Prolog selection order).
#[derive(Clone, Debug, Default)]
pub struct GoalStack(Option<Arc<GoalNode>>);

#[derive(Debug)]
struct GoalNode {
    goal: Goal,
    /// Goals in this stack, memoized so [`GoalStack::len`] is O(1).
    len: u32,
    rest: GoalStack,
}

impl Drop for GoalStack {
    /// Iterative unlink: the derived drop would recurse once per cons
    /// cell, and an unshared chain can be hundreds of thousands of goals
    /// long on recursive programs — deep enough to overflow the thread
    /// stack. Walk the uniquely-owned prefix instead; the first shared
    /// cell (another stack still aliases the tail) just loses a refcount.
    fn drop(&mut self) {
        let mut cur = self.0.take();
        while let Some(node) = cur {
            match Arc::try_unwrap(node) {
                Ok(mut n) => cur = n.rest.0.take(),
                Err(_) => break,
            }
        }
    }
}

impl GoalStack {
    /// The empty stack.
    pub fn nil() -> GoalStack {
        GoalStack(None)
    }

    /// Build a stack from a slice, first element on top.
    pub fn from_slice(goals: &[Goal]) -> GoalStack {
        let mut stack = GoalStack::nil();
        for g in goals.iter().rev() {
            stack = stack.push(g.clone());
        }
        stack
    }

    /// A new stack with `goal` on top; `self` is shared, not copied.
    pub fn push(&self, goal: Goal) -> GoalStack {
        GoalStack(Some(Arc::new(GoalNode {
            goal,
            len: self.len() as u32 + 1,
            rest: self.clone(),
        })))
    }

    /// The top (leftmost) goal.
    pub fn first(&self) -> Option<&Goal> {
        self.0.as_ref().map(|n| &n.goal)
    }

    /// The stack below the top goal (empty on an empty stack).
    pub fn rest(&self) -> GoalStack {
        match &self.0 {
            Some(n) => n.rest.clone(),
            None => GoalStack::nil(),
        }
    }

    /// Number of goals.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |n| n.len as usize)
    }

    /// Whether no goals remain — a solution leaf.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// Whether `self` and `other` share their top cons cell (used by tests
    /// to assert continuations are aliased, not copied).
    pub fn ptr_eq(&self, other: &GoalStack) -> bool {
        match (&self.0, &other.0) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// Iterate top-to-bottom.
    pub fn iter(&self) -> GoalIter<'_> {
        GoalIter(&self.0)
    }

    /// Size of one cons cell, for the bytes-copied-per-sprout accounting
    /// (the cell struct itself is private).
    pub const fn cons_cell_bytes() -> usize {
        std::mem::size_of::<GoalNode>()
    }
}

/// Iterator over a [`GoalStack`], top (leftmost goal) first.
pub struct GoalIter<'a>(&'a Option<Arc<GoalNode>>);

impl<'a> Iterator for GoalIter<'a> {
    type Item = &'a Goal;

    fn next(&mut self) -> Option<&'a Goal> {
        let node = self.0.as_ref()?;
        self.0 = &node.rest.0;
        Some(&node.goal)
    }
}

impl<'a> IntoIterator for &'a GoalStack {
    type Item = &'a Goal;
    type IntoIter = GoalIter<'a>;

    fn into_iter(self) -> GoalIter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Caller;
    use crate::symbol::Sym;
    use crate::term::Term;

    fn goal(i: u16) -> Goal {
        Goal {
            term: Term::Atom(Sym(i.into())),
            caller: Caller::Query,
            goal_idx: i,
        }
    }

    #[test]
    fn from_slice_keeps_order() {
        let s = GoalStack::from_slice(&[goal(0), goal(1), goal(2)]);
        assert_eq!(s.len(), 3);
        let idxs: Vec<u16> = s.iter().map(|g| g.goal_idx).collect();
        assert_eq!(idxs, vec![0, 1, 2]);
        assert_eq!(s.first().unwrap().goal_idx, 0);
    }

    #[test]
    fn push_shares_the_tail() {
        let tail = GoalStack::from_slice(&[goal(5)]);
        let a = tail.push(goal(1));
        let b = tail.push(goal(2));
        assert!(a.rest().ptr_eq(&tail));
        assert!(b.rest().ptr_eq(&tail));
        assert_eq!(a.len(), 2);
        assert_eq!(tail.len(), 1, "pushing does not mutate the tail");
    }

    #[test]
    fn deep_unshared_stack_drops_without_overflow() {
        // 400k cells would blow the stack under a naive recursive drop.
        let mut s = GoalStack::nil();
        for i in (0..100).cycle().take(400_000) {
            s = s.push(goal(i));
        }
        assert_eq!(s.len(), 400_000);
        drop(s);
    }

    #[test]
    fn shared_tail_survives_a_sibling_drop() {
        let tail = GoalStack::from_slice(&[goal(1), goal(2)]);
        let a = tail.push(goal(0));
        let b = tail.push(goal(9));
        drop(a);
        assert_eq!(b.len(), 3);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail.first().unwrap().goal_idx, 1);
    }

    #[test]
    fn empty_stack_is_a_solution() {
        let s = GoalStack::nil();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.first().is_none());
        assert!(s.rest().is_empty());
        assert!(s.ptr_eq(&GoalStack::default()));
    }
}
