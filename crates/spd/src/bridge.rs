//! Laying a clause database out on the SPD array.
//!
//! One block per Horn clause ("blocks representing each Horn clause"),
//! one named weighted pointer per figure-4 candidate arc: pointer name =
//! body-goal index, pointer target = resolving clause's block, pointer
//! weight = the B-LOG weight of that arc. "These blocks are much like
//! inverted files kept for each rule" (§5).

use blog_core::weight::{WeightStore, WeightView};
use blog_logic::{Caller, ClauseDb, ClauseId, PointerKey};

use crate::block::{Block, BlockId};
use crate::spd::{SpMode, SpdArray};
use crate::timing::{CostModel, Geometry};

/// The mapping between clause ids and block ids (the identity map by
/// construction, kept explicit so callers never rely on that accident).
#[derive(Clone, Debug)]
pub struct DbLayout {
    blocks: Vec<BlockId>,
}

impl DbLayout {
    /// Block storing clause `cid`.
    pub fn block_of(&self, cid: ClauseId) -> BlockId {
        self.blocks[cid.index()]
    }

    /// Number of clause blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the layout is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// Estimate a clause's payload in words: one word per symbol/variable
/// occurrence in head and body (the "data (possibly ASCII characters)").
fn clause_payload_words(db: &ClauseDb, cid: ClauseId) -> u32 {
    let c = db.clause(cid);
    let mut words = c.head.size();
    for g in &c.body {
        words += g.size();
    }
    words as u32
}

/// Build an SPD array holding `db`, with pointer weights drawn from
/// `weights` (pointers never touched by a search carry the unknown
/// weight, exactly like the in-memory store).
///
/// The geometry must have capacity for one block per clause.
pub fn build_spd_from_db(
    db: &ClauseDb,
    weights: &WeightStore,
    geometry: Geometry,
    cost: CostModel,
    mode: SpMode,
) -> (SpdArray, DbLayout) {
    assert!(
        db.pointers_built(),
        "ClauseDb::build_pointers must run before SPD layout"
    );
    assert!(
        geometry.capacity() as usize >= db.len(),
        "SPD geometry too small: capacity {} < {} clauses",
        geometry.capacity(),
        db.len()
    );
    let mut spd = SpdArray::new(geometry, cost, mode);
    let mut blocks = Vec::with_capacity(db.len());
    // First pass: create the blocks so ids exist for pointers.
    for i in 0..db.len() {
        let cid = ClauseId(i as u32);
        let id = spd.add_block(Block::new(clause_payload_words(db, cid)));
        blocks.push(id);
    }
    // Second pass: fill in the weighted pointers.
    let mut dummy_local = std::collections::HashMap::new();
    let view = WeightView::new(&mut dummy_local, weights);
    for i in 0..db.len() {
        let cid = ClauseId(i as u32);
        let clause = db.clause(cid);
        let mut block = spd.block(blocks[i]).clone();
        for goal_idx in 0..clause.body.len() {
            for &target in db.pointer_list(cid, goal_idx) {
                let key = PointerKey {
                    caller: Caller::Clause(cid),
                    goal_idx: blog_logic::node::goal_idx(goal_idx),
                    target,
                };
                let w = view.effective_weight(key);
                block.push_pointer(goal_idx as u32, blocks[target.index()], w.0);
            }
        }
        spd.replace_block(blocks[i], block);
    }
    (spd, DbLayout { blocks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blog_core::weight::WeightParams;
    use blog_logic::parse_program;

    const FAMILY: &str = "
        gf(X,Z) :- f(X,Y), f(Y,Z).
        gf(X,Z) :- f(X,Y), m(Y,Z).
        f(curt,elain). f(sam,larry). f(dan,pat). f(larry,den).
        f(pat,john). f(larry,doug).
        m(elain,john). m(marian,elain). m(peg,den). m(peg,doug).
        ?- gf(sam,G).
    ";

    fn build() -> (SpdArray, DbLayout, blog_logic::Program) {
        let p = parse_program(FAMILY).unwrap();
        let weights = WeightStore::new(WeightParams::default());
        let (spd, layout) = build_spd_from_db(
            &p.db,
            &weights,
            Geometry {
                n_sps: 2,
                n_cylinders: 8,
                blocks_per_track: 2,
            },
            CostModel::default(),
            SpMode::Simd,
        );
        (spd, layout, p)
    }

    #[test]
    fn one_block_per_clause() {
        let (spd, layout, p) = build();
        assert_eq!(spd.len(), p.db.len());
        assert_eq!(layout.len(), p.db.len());
    }

    #[test]
    fn rule_blocks_carry_candidate_pointers() {
        let (spd, layout, p) = build();
        // Rule 0 (gf via f,f): goal 0 has 6 f-candidates, goal 1 too.
        let b = spd.block(layout.block_of(blog_logic::ClauseId(0)));
        assert_eq!(b.pointers_named(Some(0)).count(), 6);
        assert_eq!(b.pointers_named(Some(1)).count(), 6);
        // Facts have no pointers.
        let fact = spd.block(layout.block_of(blog_logic::ClauseId(4)));
        assert!(fact.pointers.is_empty());
        let _ = p;
    }

    #[test]
    fn fresh_weights_are_the_unknown_coding() {
        let (spd, layout, _) = build();
        let params = WeightParams::default();
        let b = spd.block(layout.block_of(blog_logic::ClauseId(0)));
        for ptr in &b.pointers {
            assert_eq!(ptr.weight, params.unknown_weight().0);
        }
    }

    #[test]
    fn paging_a_rule_pulls_its_candidates() {
        let (mut spd, layout, _) = build();
        let rule0 = layout.block_of(blog_logic::ClauseId(0));
        let page = spd.semantic_page(&crate::spd::PageRequest {
            roots: vec![rule0],
            distance: 1,
            name: None,
            weight_max: None,
        });
        // Rule 0 itself plus its 6 distinct f-fact targets.
        assert_eq!(page.blocks.len(), 7);
    }
}
