//! A tour of the Semantic Paging Disk.
//!
//! Lays a generated family database out on a simulated SPD array, then
//! shows the §6 behaviours: semantic pages of growing Hamming distance,
//! the SIMD/MIMD difference on cross-SP pointers, and the §5 weight
//! filter ("we can decide whether we wish to retrieve another block by
//! examining these weights, before we access the block").
//!
//! ```text
//! cargo run --example spd_tour
//! ```

use b_log::core::weight::{WeightParams, WeightStore};
use b_log::logic::ClauseId;
use b_log::spd::{build_spd_from_db, CostModel, Geometry, PageRequest, SpMode};
use b_log::workloads::{family_program, FamilyParams};

fn main() {
    let (program, meta) = family_program(&FamilyParams {
        generations: 4,
        branching: 3,
        tree_mother_density: 0.2,
        external_mother_density: 0.3,
        seed: 5,
        ..FamilyParams::default()
    });
    println!(
        "Family database: {} clauses ({} f-facts, {} m-facts)\n",
        program.db.len(),
        meta.f_facts,
        meta.m_facts
    );
    let weights = WeightStore::new(WeightParams::default());
    let geometry = Geometry {
        n_sps: 4,
        n_cylinders: 16,
        blocks_per_track: 4,
    };

    println!("== Semantic pages of growing Hamming distance (SIMD) ==");
    println!(
        "{:>9} {:>8} {:>10} {:>10} {:>8}",
        "distance", "blocks", "ticks", "loads", "deferred"
    );
    for distance in 0..=3 {
        let (mut spd, layout) = build_spd_from_db(
            &program.db,
            &weights,
            geometry,
            CostModel::default(),
            SpMode::Simd,
        );
        let page = spd.semantic_page(&PageRequest {
            roots: vec![layout.block_of(ClauseId(0))],
            distance,
            name: None,
            weight_max: None,
        });
        let s = spd.stats();
        println!(
            "{:>9} {:>8} {:>10} {:>10} {:>8}",
            distance,
            page.blocks.len(),
            page.ticks,
            s.track_loads,
            s.deferred_pointers
        );
    }

    println!("\n== SIMD vs MIMD search processors, distance 2 ==");
    for mode in [SpMode::Simd, SpMode::Mimd] {
        let (mut spd, layout) =
            build_spd_from_db(&program.db, &weights, geometry, CostModel::default(), mode);
        let page = spd.semantic_page(&PageRequest {
            roots: vec![layout.block_of(ClauseId(0))],
            distance: 2,
            name: None,
            weight_max: None,
        });
        let s = spd.stats();
        println!(
            "  {mode:?}: {} blocks in {} ticks ({} track loads, {} deferred pointers)",
            page.blocks.len(),
            page.ticks,
            s.track_loads,
            s.deferred_pointers
        );
    }

    println!("\n== The weight filter ==");
    // Mark every pointer of clause 0's block heavy except the first, then
    // page with a ceiling: only the light pointer is followed.
    let (mut spd, layout) = build_spd_from_db(
        &program.db,
        &weights,
        geometry,
        CostModel::default(),
        SpMode::Simd,
    );
    let root = layout.block_of(ClauseId(0));
    let n_ptrs = spd.block(root).pointers.len();
    spd.load_cylinder(spd.addr(root).cylinder);
    for i in 1..n_ptrs {
        spd.update_pointer_weight(root, i, 1_000_000);
    }
    spd.update_pointer_weight(root, 0, 1);
    spd.reset_stats();
    let page = spd.semantic_page(&PageRequest {
        roots: vec![root],
        distance: 1,
        name: None,
        weight_max: Some(100),
    });
    println!(
        "  {} of {} pointers followed under the weight ceiling → {} blocks \
         paged, {} pointer fetches avoided",
        n_ptrs - spd.stats().weight_skips as usize,
        n_ptrs,
        page.blocks.len(),
        spd.stats().weight_skips
    );
}
