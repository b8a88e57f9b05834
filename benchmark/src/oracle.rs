//! The correctness check: every response — answer-cache hits included —
//! is compared with a sequential `best_first_with` over an in-memory
//! `ClauseDb` rebuilt at the response's epoch from the seed clauses plus
//! the commit log (the T10 replay scheme).
//!
//! Rebuilding a 50 k-clause base per epoch would cost more than the
//! benchmark, so the oracle works per *partition*: a set of clauses closed
//! under predicate reachability (one tenant's family, or the search
//! problems). A query's solution set depends on no clause outside its
//! partition, and every commit names the one partition it touches, so the
//! partition at the response's epoch is exactly what the query could see.
//! Results are memoised by partition *content* (a running hash over the
//! applied commits), so repeated trials of one seed pay once.

use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::time::Instant;

use blog_core::engine::{best_first_with, BestFirstConfig};
use blog_core::weight::{WeightParams, WeightStore, WeightView};
use blog_logic::{parse_program, parse_query_shared, ClauseDb};

use crate::gen::Workload;

/// One response, reduced to what the check needs (the solution texts of a
/// whole run would dominate `peak_rss_mb`).
#[derive(Clone, Copy, Debug)]
pub struct Digest {
    pub query: u32,
    pub epoch: u64,
    /// [`hash_solutions`] of the sorted solution texts.
    pub hash: u64,
}

/// One committed transaction, as the server acknowledged it.
#[derive(Clone, Debug)]
pub struct CommitRecord {
    pub epoch: u64,
    pub part: u32,
    pub asserted: Vec<(u32, String)>,
    pub retracted: Vec<u32>,
}

/// Order-sensitive hash of a (sorted) solution list.
pub fn hash_solutions(solutions: &[String]) -> u64 {
    let mut h = DefaultHasher::new();
    solutions.hash(&mut h);
    h.finish()
}

#[derive(Default, Debug, Clone, Copy)]
pub struct Verdict {
    pub checked: u64,
    pub mismatched: u64,
    pub unchecked: u64,
}

pub struct Oracle {
    /// Seed clauses of each partition: clause id → source text.
    seed: Vec<BTreeMap<u32, String>>,
    /// `(partition, content hash, query) → expected solution hash`.
    memo: HashMap<(u32, u64, u32), u64>,
    weights: WeightStore,
}

impl Oracle {
    pub fn new(w: &Workload) -> Oracle {
        let mut seed = vec![BTreeMap::new(); w.n_parts as usize];
        for (id, line) in w.program_text.lines().enumerate() {
            seed[w.clause_parts[id] as usize].insert(id as u32, line.to_owned());
        }
        Oracle {
            seed,
            memo: HashMap::new(),
            weights: WeightStore::new(WeightParams::default()),
        }
    }

    /// Check one trial's responses against its commit log. Responses left
    /// when `deadline` passes are counted as unchecked, not as correct.
    pub fn check(
        &mut self,
        w: &Workload,
        digests: &[Digest],
        commits: &[CommitRecord],
        deadline: Instant,
    ) -> Verdict {
        let n_parts = self.seed.len();
        let mut by_part: Vec<Vec<Digest>> = vec![Vec::new(); n_parts];
        for d in digests {
            by_part[w.queries[d.query as usize].part as usize].push(*d);
        }
        let mut log: Vec<Vec<&CommitRecord>> = vec![Vec::new(); n_parts];
        for c in commits {
            log[c.part as usize].push(c);
        }
        let mut verdict = Verdict::default();
        for (part, mut ds) in by_part.into_iter().enumerate() {
            if ds.is_empty() {
                continue;
            }
            ds.sort_by_key(|d| d.epoch);
            log[part].sort_by_key(|c| c.epoch);
            // Most partitions see no commit: copy the seed only on the first.
            let mut alive = Cow::Borrowed(&self.seed[part]);
            let mut content = part as u64;
            let mut next = 0;
            let mut db: Option<ClauseDb> = None;
            for (i, d) in ds.iter().enumerate() {
                if Instant::now() > deadline {
                    verdict.unchecked += (ds.len() - i) as u64;
                    break;
                }
                while next < log[part].len() && log[part][next].epoch <= d.epoch {
                    let c = log[part][next];
                    for (id, text) in &c.asserted {
                        alive.to_mut().insert(*id, text.clone());
                    }
                    for id in &c.retracted {
                        alive.to_mut().remove(id);
                    }
                    let mut h = DefaultHasher::new();
                    (content, &c.asserted, &c.retracted).hash(&mut h);
                    content = h.finish();
                    db = None;
                    next += 1;
                }
                let key = (part as u32, content, d.query);
                let expected = match self.memo.get(&key) {
                    Some(&h) => h,
                    None => {
                        let db = db.get_or_insert_with(|| {
                            let src: String =
                                alive.values().flat_map(|t| [t.as_str(), "\n"]).collect();
                            parse_program(&src).expect("oracle partition parses").db
                        });
                        let text = &w.queries[d.query as usize].text;
                        let h = hash_solutions(&sequential_solutions(db, &self.weights, text));
                        self.memo.insert(key, h);
                        h
                    }
                };
                verdict.checked += 1;
                if expected != d.hash {
                    verdict.mismatched += 1;
                    eprintln!(
                        "ORACLE MISMATCH: {} at epoch {} (partition {part}) differs from the sequential answer",
                        w.queries[d.query as usize].text, d.epoch
                    );
                }
            }
        }
        verdict
    }
}

/// Sorted solution texts of `text` over `db`, by the sequential engine.
pub fn sequential_solutions(db: &ClauseDb, weights: &WeightStore, text: &str) -> Vec<String> {
    let query = parse_query_shared(db, text).expect("oracle query parses");
    let mut overlay = HashMap::new();
    let mut view = WeightView::new(&mut overlay, weights);
    let cfg = BestFirstConfig {
        learn: false,
        ..BestFirstConfig::default()
    };
    let r = best_first_with(db, &query, &mut view, &cfg);
    let mut texts: Vec<String> = r.solutions.iter().map(|s| s.solution.to_text(db)).collect();
    texts.sort();
    texts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Kind;
    use std::time::Duration;

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    /// The honest digest of query `q` over the whole seed base.
    fn honest(w: &Workload, q: u32) -> u64 {
        let db = parse_program(&w.program_text).unwrap().db;
        let weights = WeightStore::new(WeightParams::default());
        hash_solutions(&sequential_solutions(
            &db,
            &weights,
            &w.queries[q as usize].text,
        ))
    }

    #[test]
    fn partition_answer_equals_whole_base_answer() {
        let w = Workload::generate(Kind::ServeMix, 1, true);
        let mut oracle = Oracle::new(&w);
        let digests: Vec<Digest> = [0u32, 5, 40, 100]
            .iter()
            .map(|&q| Digest {
                query: q,
                epoch: 0,
                hash: honest(&w, q),
            })
            .collect();
        let v = oracle.check(&w, &digests, &[], far());
        assert_eq!((v.checked, v.mismatched, v.unchecked), (4, 0, 0));
    }

    #[test]
    fn a_wrong_answer_and_a_stale_epoch_are_caught() {
        let w = Workload::generate(Kind::ServeMix, 1, true);
        let mut oracle = Oracle::new(&w);
        let q = 0u32; // t0_gf(p0_0, G)
        let before = honest(&w, q);
        let wrong = Digest {
            query: q,
            epoch: 0,
            hash: before ^ 1,
        };
        assert_eq!(oracle.check(&w, &[wrong], &[], far()).mismatched, 1);

        // A commit gives p0_0 a new grandchild at epoch 1: the old answer
        // is right at epoch 0 and wrong from epoch 1 on.
        let commit = CommitRecord {
            epoch: 1,
            part: 0,
            asserted: vec![(1_000_000, "t0_f(p1_0, newkid).".into())],
            retracted: vec![],
        };
        let at = |epoch| Digest {
            query: q,
            epoch,
            hash: before,
        };
        let v = oracle.check(&w, &[at(0), at(1)], std::slice::from_ref(&commit), far());
        assert_eq!((v.checked, v.mismatched), (2, 1));
        // ...and a commit to another partition changes nothing here.
        let elsewhere = CommitRecord { part: 3, ..commit };
        let v = oracle.check(&w, &[at(0), at(1)], &[elsewhere], far());
        assert_eq!((v.checked, v.mismatched), (2, 0));
    }

    #[test]
    fn past_the_deadline_responses_count_as_unchecked() {
        let w = Workload::generate(Kind::SearchSeq, 1, true);
        let mut oracle = Oracle::new(&w);
        let d = Digest {
            query: 0,
            epoch: 0,
            hash: 0,
        };
        let v = oracle.check(&w, &[d, d], &[], Instant::now() - Duration::from_secs(1));
        assert_eq!((v.checked, v.unchecked), (0, 2));
    }
}
