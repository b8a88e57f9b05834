//! Long-lived helper threads for OR-parallel searches.
//!
//! A [`Crew`] of `k` helpers runs one job at a time on `k + 1` threads:
//! the caller of `Crew::run` is worker 0 and the helpers are workers
//! `1..=k`. Between jobs the helpers park on a condvar, so a served
//! request costs a wakeup instead of `k` thread spawns. Helpers live in a
//! [`std::thread::Scope`] and exit when the crew is dropped; the scope
//! joins them.
//!
//! A job is an `Arc`'d closure over whatever it needs, which is how a
//! request's snapshot and query reach threads that outlive the request.
//! A panic inside a job is caught on the thread where it happened; the
//! helper survives it and `Crew::run` re-raises it on the caller once
//! every helper has let go of the job.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::Scope;

use parking_lot::{Condvar, Mutex};

/// One job, called once per worker with the worker's index.
pub(crate) type Job<'a> = Arc<dyn Fn(usize) + Send + Sync + 'a>;

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
}

impl<'a> Crew<'a> {
    /// Start `helpers` threads in `scope`. They park until a job is run
    /// and exit when the crew is dropped.
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
        for worker in 1..=helpers {
            let inner = Arc::clone(&inner);
            scope.spawn(move || helper(&inner, worker));
        }
        Crew { inner, helpers }
    }

    /// Workers per job: the helpers plus the caller.
    pub(crate) fn workers(&self) -> usize {
        self.helpers + 1
    }

    /// Run `job(0)` on the calling thread and offer `job(w)`, `w` in
    /// `1..=helpers`, to the helpers. Returns once the caller's part is
    /// done and no helper is still inside the job; a helper that had not
    /// picked the job up by then never runs it, so a job must treat its
    /// helper parts as optional. Re-raises the first panic of any part.
    pub(crate) fn run(&self, job: Job<'a>) {
        let inner = &*self.inner;
        {
            let mut slot = inner.slot.lock();
            slot.job = Some(Arc::clone(&job));
            slot.generation += 1;
            inner.posted.notify_all();
        }
        let mine = catch_unwind(AssertUnwindSafe(|| job(0)));
        drop(job);
        let theirs = {
            let mut slot = inner.slot.lock();
            slot.job = None;
            while slot.busy > 0 {
                inner.finished.wait(&mut slot);
            }
            slot.panic.take()
        };
        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        if let Some(payload) = theirs {
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
        let outcome = catch_unwind(AssertUnwindSafe(|| job(worker)));
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
                crew.run(Arc::new(move |w| {
                    if w == 0 {
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
            crew.run(Arc::new(move |w| {
                if w == 0 {
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
}
