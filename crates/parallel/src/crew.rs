//! Long-lived helper threads for OR-parallel searches.
//!
//! A [`Crew`] of `k` helpers runs one job at a time on up to `k + 1`
//! threads: the caller of `Crew::run` is worker 0 and the helpers are
//! workers `1..=k`. Worker 0 starts alone ("initially, one processor is
//! given the initial query", §6) and calls the helpers in only when its
//! part decides the job is worth sharing; a job it finishes alone costs
//! the crew nothing, and one it shares costs one wakeup instead of `k`
//! thread spawns. The helpers are spawned at the crew's first call, so a
//! crew whose jobs all end alone never starts a thread. Between jobs the
//! helpers park on a condvar. They live in a [`std::thread::Scope`] and
//! exit when the crew is dropped; the scope joins them.
//!
//! A job is an `Arc`'d closure over whatever it needs, which is how a
//! request's snapshot and query reach threads that outlive the request.
//! A panic inside a job is caught on the thread where it happened; the
//! helper survives it and `Crew::run` re-raises it on the caller once
//! every helper has let go of the job.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Once};
use std::thread::Scope;

use parking_lot::{Condvar, Mutex};

/// One job, called once per worker with the worker's index and a call:
/// worker 0's call brings the helpers into the job (the first time; later
/// calls do nothing), a helper's call does nothing.
pub(crate) type Job<'a> = Arc<dyn Fn(usize, &dyn Fn()) + Send + Sync + 'a>;

struct Slot<'a> {
    /// The current job; `None` between jobs, and once the caller is done
    /// with it (a helper that wakes late then skips it).
    job: Option<Job<'a>>,
    /// Bumped per posted job, so a helper runs each job at most once.
    generation: u64,
    /// Helpers inside the current job.
    busy: usize,
    /// The first panic a helper caught in the current job.
    panic: Option<Box<dyn Any + Send>>,
    closed: bool,
}

struct Inner<'a> {
    slot: Mutex<Slot<'a>>,
    /// Helpers wait here for a job (or for the crew to close).
    posted: Condvar,
    /// The caller waits here for `busy` to reach zero.
    finished: Condvar,
}

/// A fixed set of parked helper threads; see the module docs.
pub struct Crew<'a> {
    inner: Arc<Inner<'a>>,
    helpers: usize,
    /// Spawns helper `worker` into the crew's scope.
    spawn: Box<dyn Fn(usize) + Send + Sync + 'a>,
    /// Completed once the helpers are spawned.
    spawned: Once,
}

impl<'a> Crew<'a> {
    /// A crew of `helpers` threads in `scope`, spawned at the first
    /// call. They park until a job is run and exit when the crew is
    /// dropped.
    pub fn start<'env>(scope: &'a Scope<'a, 'env>, helpers: usize) -> Crew<'a> {
        let inner = Arc::new(Inner {
            slot: Mutex::new(Slot {
                job: None,
                generation: 0,
                busy: 0,
                panic: None,
                closed: false,
            }),
            posted: Condvar::new(),
            finished: Condvar::new(),
        });
        let spawn = {
            let inner = Arc::clone(&inner);
            Box::new(move |worker| {
                let inner = Arc::clone(&inner);
                scope.spawn(move || helper(&inner, worker));
            })
        };
        Crew {
            inner,
            helpers,
            spawn,
            spawned: Once::new(),
        }
    }

    /// Workers per job: the helpers plus the caller.
    pub(crate) fn workers(&self) -> usize {
        self.helpers + 1
    }

    /// Jobs whose worker 0 called the helpers in.
    #[cfg(test)]
    pub(crate) fn calls(&self) -> u64 {
        self.inner.slot.lock().generation
    }

    /// Helper threads spawned so far.
    #[cfg(test)]
    pub(crate) fn spawned(&self) -> usize {
        if self.spawned.is_completed() {
            self.helpers
        } else {
            0
        }
    }

    /// Run `job(0, call)` on the calling thread; once `call` is called,
    /// offer `job(w, _)`, `w` in `1..=helpers`, to the helpers. Returns
    /// once the caller's part is done and no helper is still inside the
    /// job; a helper that had not picked the job up by then never runs
    /// it, so a job must treat its helper parts as optional. Re-raises the
    /// first panic of any part.
    pub(crate) fn run(&self, job: Job<'a>) {
        let inner = &*self.inner;
        let called = Cell::new(false);
        let call = || {
            if !called.replace(true) {
                self.spawned
                    .call_once(|| (1..=self.helpers).for_each(&self.spawn));
                let mut slot = inner.slot.lock();
                slot.job = Some(Arc::clone(&job));
                slot.generation += 1;
                inner.posted.notify_all();
            }
        };
        let mine = catch_unwind(AssertUnwindSafe(|| job(0, &call)));
        drop(job);
        // Helpers that were never called are still parked: nothing to
        // take back and nobody to wait for.
        let theirs = called.get().then(|| {
            let mut slot = inner.slot.lock();
            slot.job = None;
            while slot.busy > 0 {
                inner.finished.wait(&mut slot);
            }
            slot.panic.take()
        });
        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        if let Some(payload) = theirs.flatten() {
            resume_unwind(payload);
        }
    }
}

impl Drop for Crew<'_> {
    fn drop(&mut self) {
        self.inner.slot.lock().closed = true;
        self.inner.posted.notify_all();
    }
}

fn helper(inner: &Inner<'_>, worker: usize) {
    let mut seen = 0;
    loop {
        let job = {
            let mut slot = inner.slot.lock();
            loop {
                if slot.closed {
                    return;
                }
                if slot.generation != seen {
                    seen = slot.generation;
                    if let Some(job) = slot.job.clone() {
                        slot.busy += 1;
                        break job;
                    }
                }
                inner.posted.wait(&mut slot);
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| job(worker, &|| {})));
        // Let go of the job (and what it owns) before reporting done.
        drop(job);
        let mut slot = inner.slot.lock();
        if let Err(payload) = outcome {
            slot.panic.get_or_insert(payload);
        }
        slot.busy -= 1;
        if slot.busy == 0 {
            inner.finished.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn a_helper_panic_reaches_the_caller_and_the_helper_survives() {
        let ran = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let crew = Crew::start(s, 1);
            let ran = &ran;
            let boom = catch_unwind(AssertUnwindSafe(|| {
                crew.run(Arc::new(move |w, call| {
                    if w == 0 {
                        call();
                        // Wait for the helper, so it does run.
                        while ran.load(Ordering::SeqCst) == 0 {
                            std::thread::yield_now();
                        }
                    } else {
                        ran.fetch_add(1, Ordering::SeqCst);
                        panic!("helper fault");
                    }
                }))
            }));
            let payload = boom.expect_err("the helper's panic is re-raised");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper fault"));
            // The same helper takes the next job.
            crew.run(Arc::new(move |w, call| {
                if w == 0 {
                    call();
                    while ran.load(Ordering::SeqCst) < 2 {
                        std::thread::yield_now();
                    }
                } else {
                    ran.fetch_add(1, Ordering::SeqCst);
                }
            }));
        });
        assert_eq!(ran.into_inner(), 2);
    }

    #[test]
    fn an_uncalled_crew_stays_parked_and_the_next_job_reuses_its_helper() {
        // (job tag, thread) of every helper part that ran.
        let ran: Mutex<Vec<(usize, std::thread::ThreadId)>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            let crew = Crew::start(s, 1);
            let ran = &ran;
            // Job `tag`, whose worker 0 calls the helper in and waits for
            // its part, or never calls.
            let job = |tag: usize, calls: bool| -> Job<'_> {
                Arc::new(move |w, call| {
                    if w == 0 {
                        if calls {
                            call();
                            // Hold the job until the helper has run it.
                            while ran.lock().iter().all(|&(t, _)| t != tag) {
                                std::thread::yield_now();
                            }
                        }
                    } else {
                        ran.lock().push((tag, std::thread::current().id()));
                    }
                })
            };
            assert_eq!(crew.spawned(), 0, "no thread before the first call");
            crew.run(job(1, true));
            assert_eq!(crew.spawned(), 1);
            // Not called: the helper never sees the job. `run` returns
            // without waiting, and nothing was posted.
            crew.run(job(2, false));
            assert_eq!(crew.calls(), 1, "nothing posted");
            crew.run(job(3, true));
        });
        let ran = ran.into_inner();
        let tags: Vec<usize> = ran.iter().map(|&(t, _)| t).collect();
        assert_eq!(tags, [1, 3], "the uncalled job never reached the helper");
        assert_eq!(ran[0].1, ran[1].1, "one parked helper thread ran both");
        assert_ne!(ran[0].1, std::thread::current().id());
    }

    #[test]
    fn a_crew_without_helpers_runs_the_search_inline() {
        use crate::orparallel::{par_best_first_on, ParallelConfig};
        use blog_core::engine::{best_first_deferred, BestFirstConfig};
        use blog_core::weight::{WeightParams, WeightStore};

        let (p, _) = blog_workloads::queens_program(&blog_workloads::QueensParams { n: 5 });
        let weights = WeightStore::new(WeightParams::default());
        let (seq, _) = best_first_deferred(
            &p.db,
            &p.queries[0],
            &weights,
            &BestFirstConfig {
                learn: false,
                ..BestFirstConfig::default()
            },
        );
        let config = ParallelConfig {
            n_workers: 1,
            learn: false,
            ..ParallelConfig::default()
        };
        std::thread::scope(|s| {
            let crew = Crew::start(s, 0);
            let query = Arc::new(p.queries[0].clone());
            let r = par_best_first_on(&crew, Arc::new(p.db.clone()), query, &weights, &config);
            assert_eq!(crew.spawned(), 0, "no thread");
            assert_eq!(crew.calls(), 0, "nothing posted");
            let key = |s: &blog_core::engine::BoundedSolution| (s.solution.to_text(&p.db), s.bound);
            assert_eq!(
                r.solutions.iter().map(key).collect::<Vec<_>>(),
                seq.solutions.iter().map(key).collect::<Vec<_>>()
            );
            assert_eq!(r.stats.nodes_expanded, seq.stats.nodes_expanded);
            assert_eq!(r.stats.unify_attempts, seq.stats.unify_attempts);
            assert_eq!(r.per_worker_expanded, [seq.stats.nodes_expanded]);
        });
    }
}
