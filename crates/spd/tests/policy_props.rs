//! Property tests for the replacement policies: every implementation is
//! checked against the [`ReplacementPolicy`] contract and against a
//! brute-force reference model on arbitrary small traces.
//!
//! The reference models are deliberately naive — flat `Vec`s, linear
//! scans, the textbook statement of each algorithm — so a bookkeeping
//! bug in the real implementations' intrusive lists or ghost windows
//! cannot hide in shared code.
//!
//! Case counts honor the `PROPTEST_CASES` environment variable (the CI
//! profile sets a reduced count; see `.github/workflows/ci.yml`).

use std::collections::{BTreeSet, VecDeque};

use blog_spd::{PolicyKind, ReplacementPolicy, Touch, TwoQ};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Brute-force reference models
// ---------------------------------------------------------------------------

/// What one reference-model step observed: `(hit, evicted)`.
type Step = (bool, Option<u32>);

trait Model {
    fn access(&mut self, key: u32) -> Step;
    fn resident(&self) -> Vec<u32>;

    /// Admit `key` without touching it first (a prefetch, which the
    /// trait allows): nothing happens if it is resident; otherwise
    /// returns the victim that made room. For LRU an admission is
    /// exactly an access's miss path.
    fn prefetch(&mut self, key: u32) -> Option<u32> {
        if self.resident().contains(&key) {
            return None;
        }
        self.access(key).1
    }
}

/// LRU as a flat vector, front = most recently used.
struct LruModel {
    cap: usize,
    order: Vec<u32>,
}

impl LruModel {
    fn new(cap: usize) -> Self {
        LruModel {
            cap,
            order: Vec::new(),
        }
    }
}

impl Model for LruModel {
    fn access(&mut self, key: u32) -> Step {
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            self.order.remove(pos);
            self.order.insert(0, key);
            return (true, None);
        }
        let evicted = if self.order.len() == self.cap {
            self.order.pop()
        } else {
            None
        };
        self.order.insert(0, key);
        (false, evicted)
    }

    fn resident(&self) -> Vec<u32> {
        self.order.clone()
    }
}

/// 2Q stated directly from the algorithm: two resident queues (A1in
/// FIFO, Am LRU) plus a bounded ghost queue, with the same tuning the
/// real policy uses (`kin = max(1, cap/4)`, `kout = cap`). Ghost
/// membership is resolved at miss time, before eviction can slide the
/// window.
struct TwoQModel {
    cap: usize,
    kin: usize,
    kout: usize,
    /// Front = newest admission.
    a1in: Vec<u32>,
    /// Front = most recently used.
    am: Vec<u32>,
    /// Front = newest ghost.
    ghosts: VecDeque<u32>,
}

impl TwoQModel {
    fn new(cap: usize) -> Self {
        TwoQModel {
            cap,
            kin: (cap / 4).max(1),
            kout: cap,
            a1in: Vec::new(),
            am: Vec::new(),
            ghosts: VecDeque::new(),
        }
    }

    fn remember_ghost(&mut self, key: u32) {
        self.ghosts.push_front(key);
        while self.ghosts.len() > self.kout {
            self.ghosts.pop_back();
        }
    }

    /// Make room for one admission if the resident queues are full.
    fn evict_if_full(&mut self) -> Option<u32> {
        if self.a1in.len() + self.am.len() < self.cap {
            return None;
        }
        if !self.a1in.is_empty() && (self.a1in.len() > self.kin || self.am.is_empty()) {
            let victim = self.a1in.pop().expect("nonempty A1in");
            self.remember_ghost(victim);
            Some(victim)
        } else {
            self.am.pop()
        }
    }

    fn forget_ghost(&mut self, key: u32) -> bool {
        match self.ghosts.iter().position(|&k| k == key) {
            Some(pos) => {
                self.ghosts.remove(pos);
                true
            }
            None => false,
        }
    }
}

impl Model for TwoQModel {
    fn access(&mut self, key: u32) -> Step {
        if let Some(pos) = self.am.iter().position(|&k| k == key) {
            self.am.remove(pos);
            self.am.insert(0, key);
            return (true, None);
        }
        if self.a1in.contains(&key) {
            return (true, None);
        }
        let ghosted = self.forget_ghost(key);
        let evicted = self.evict_if_full();
        if ghosted {
            self.am.insert(0, key);
        } else {
            self.a1in.insert(0, key);
        }
        (false, evicted)
    }

    fn resident(&self) -> Vec<u32> {
        self.a1in.iter().chain(self.am.iter()).copied().collect()
    }

    /// A prefetched key is a first touch: it lands in A1in whether or
    /// not it is ghosted, and its ghost goes only *after* the eviction
    /// (which may slide the window past it), as in the real policy.
    fn prefetch(&mut self, key: u32) -> Option<u32> {
        if self.am.contains(&key) || self.a1in.contains(&key) {
            return None;
        }
        let evicted = self.evict_if_full();
        self.forget_ghost(key);
        self.a1in.insert(0, key);
        evicted
    }
}

fn model_for(kind: PolicyKind, cap: usize) -> Box<dyn Model> {
    match kind {
        PolicyKind::Lru => Box::new(LruModel::new(cap)),
        PolicyKind::TwoQ => Box::new(TwoQModel::new(cap)),
    }
}

// ---------------------------------------------------------------------------
// Contract properties (all policies)
// ---------------------------------------------------------------------------

fn trace_strategy() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..12, 1..120)
}

/// One step of a replayed trace.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// [`ReplacementPolicy::access`].
    Access(u32),
    /// An admission that skips `touch` (a prefetch): `evict_candidate`
    /// then `admit`, if the key is not resident.
    Prefetch(u32),
}

/// Short traces of accesses over twelve keys at capacity ≤ 6.
fn short_traces() -> impl Strategy<Value = (usize, Vec<Op>)> {
    (1usize..=6, trace_strategy())
        .prop_map(|(cap, trace)| (cap, trace.into_iter().map(Op::Access).collect()))
}

/// Ghost churn: long traces over twice as many keys as the capacity, a
/// quarter of them prefetches. The ghost window is as long as the
/// capacity, so a key that is not resident is often a ghost, and 2Q
/// forgets ghosts out of the middle of its window all the time: stale
/// entries reach the queue's front and pile up until it is compacted.
fn ghost_churn() -> impl Strategy<Value = (usize, Vec<Op>)> {
    (1usize..=24).prop_flat_map(|cap| {
        let op = (0u32..2 * cap as u32, 0u32..4).prop_map(|(key, pick)| {
            if pick == 0 {
                Op::Prefetch(key)
            } else {
                Op::Access(key)
            }
        });
        (Just(cap), proptest::collection::vec(op, 1..2001))
    })
}

/// Replay `ops` through `real` and `model` side by side, requiring the
/// same hits, victims and resident sets after every step, and `check`
/// of the real policy after every step.
fn replay<P: ReplacementPolicy<u32> + ?Sized>(
    kind: PolicyKind,
    real: &mut P,
    model: &mut dyn Model,
    ops: &[Op],
    check: impl Fn(&P) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    for (i, &op) in ops.iter().enumerate() {
        let ((model_hit, model_evicted), (real_hit, real_evicted)) = match op {
            Op::Access(k) => {
                let real_step = match real.access(k) {
                    Touch::Hit => (true, None),
                    Touch::Miss { evicted } => (false, evicted),
                };
                (model.access(k), real_step)
            }
            Op::Prefetch(k) => {
                let resident = real.contains(&k);
                let real_step = if resident {
                    (true, None)
                } else {
                    let evicted = real.evict_candidate();
                    real.admit(k);
                    (false, evicted)
                };
                ((resident, model.prefetch(k)), real_step)
            }
        };
        prop_assert_eq!(real_hit, model_hit, "{} step {} {:?}: hit", kind, i, op);
        prop_assert_eq!(
            real_evicted,
            model_evicted,
            "{} step {} {:?}: eviction",
            kind,
            i,
            op
        );
        let real_set: BTreeSet<u32> = real.resident_keys().into_iter().collect();
        let model_set: BTreeSet<u32> = model.resident().into_iter().collect();
        prop_assert_eq!(
            real_set,
            model_set,
            "{} step {} {:?}: residency",
            kind,
            i,
            op
        );
        check(real)?;
    }
    Ok(())
}

proptest! {
    /// Resident set is bounded by capacity after every access, the
    /// just-accessed key is always resident, and `resident_keys` agrees
    /// with `len` and `contains`.
    #[test]
    fn resident_set_never_exceeds_capacity(
        cap in 1usize..=6,
        trace in trace_strategy(),
    ) {
        for kind in PolicyKind::ALL {
            let mut p = kind.build::<u32>(cap);
            for &k in &trace {
                p.access(k);
                prop_assert!(p.len() <= cap, "{kind}: {} > {cap}", p.len());
                prop_assert!(p.contains(&k), "{kind}: accessed key not resident");
                let keys = p.resident_keys();
                prop_assert_eq!(keys.len(), p.len(), "{kind}: resident_keys/len");
                for key in &keys {
                    prop_assert!(p.contains(key), "{kind}: listed key not contained");
                }
            }
        }
    }

    /// Driving the split primitives by hand: an eviction candidate is
    /// only ever produced at capacity, was resident immediately before
    /// the call, and is gone immediately after.
    #[test]
    fn eviction_only_returns_resident_pages(
        cap in 1usize..=6,
        trace in trace_strategy(),
    ) {
        for kind in PolicyKind::ALL {
            let mut p = kind.build::<u32>(cap);
            for &k in &trace {
                let before: BTreeSet<u32> = p.resident_keys().into_iter().collect();
                if p.touch(k) {
                    prop_assert!(before.contains(&k), "{kind}: hit on non-resident key");
                    continue;
                }
                prop_assert!(!before.contains(&k), "{kind}: miss on resident key");
                let was_full = before.len() == cap;
                match p.evict_candidate() {
                    Some(victim) => {
                        prop_assert!(was_full, "{kind}: eviction below capacity");
                        prop_assert!(
                            before.contains(&victim),
                            "{kind}: evicted non-resident {victim}"
                        );
                        prop_assert!(
                            !p.contains(&victim),
                            "{kind}: victim {victim} still resident"
                        );
                    }
                    None => prop_assert!(!was_full, "{kind}: full set refused to evict"),
                }
                p.admit(k);
                prop_assert!(p.contains(&k), "{kind}: admitted key absent");
            }
        }
    }

    /// LRU keeps its stack property on arbitrary traces: every hit at
    /// capacity `k` is a hit at capacity `k + 1`. (2Q is deliberately
    /// not a stack algorithm, so this is LRU-only.)
    #[test]
    fn lru_stack_property_on_arbitrary_traces(
        cap in 1usize..=5,
        trace in trace_strategy(),
    ) {
        let hits_at = |c: usize| -> Vec<bool> {
            let mut p = PolicyKind::Lru.build::<u32>(c);
            trace.iter().map(|&k| p.access(k).is_hit()).collect()
        };
        let small = hits_at(cap);
        let large = hits_at(cap + 1);
        for (i, (s, l)) in small.iter().zip(&large).enumerate() {
            prop_assert!(!s || *l, "access {i}: hit at {cap}, miss at {}", cap + 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Refinement equivalence: each policy produces exactly the hit/miss
    /// sequence, eviction sequence, and resident sets of its brute-force
    /// reference model — on short access traces and under ghost churn
    /// with prefetches mixed in. 2Q's ghost queue, stale entries
    /// included, never holds more than `2·kout + 1` entries.
    #[test]
    fn policies_match_reference_models(
        case in prop_oneof![short_traces(), ghost_churn()],
    ) {
        let (cap, ops) = case;
        for kind in PolicyKind::ALL {
            let mut model = model_for(kind, cap);
            if kind == PolicyKind::TwoQ {
                let kout = cap;
                replay(kind, &mut TwoQ::new(cap), &mut *model, &ops, |p| {
                    prop_assert!(
                        p.ghost_queue_len() <= 2 * kout + 1,
                        "ghost queue {} > 2·{kout} + 1",
                        p.ghost_queue_len()
                    );
                    Ok(())
                })?;
            } else {
                replay(kind, &mut *kind.build::<u32>(cap), &mut *model, &ops, |_| Ok(()))?;
            }
        }
    }
}
