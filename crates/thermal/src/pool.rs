//! A minimal persistent fork-join pool, shared by the solver's parallel
//! sweeps and (as [`temu_thermal::WorkerPool`](crate::WorkerPool)) by batch
//! runners higher in the stack.
//!
//! The colored Gauss–Seidel sweep dispatches one tiny job per color per
//! sweep iteration — thousands of joins per simulated window — so spawning
//! OS threads per join (`std::thread::scope`) is far too expensive. This
//! pool keeps its workers parked on a condvar and broadcasts a borrowed
//! closure to all of them; `run` returns only after every worker finished,
//! which is what makes handing out a non-`'static` closure sound.
//!
//! The solver uses a process-wide singleton shared by every `ThermalModel`
//! (models are `Clone` and must stay cheap to clone); a dispatch mutex
//! serializes concurrent `run` calls from different models. Independent
//! consumers (the framework's scenario campaigns) build their *own*
//! [`Pool`] with [`Pool::new`] instead of sharing the solver's — a job on
//! one pool may itself dispatch sweeps onto the global pool without
//! deadlocking on the dispatch mutex.

use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Registry handles for the pool's two wait states, resolved once: the
/// dispatch-mutex queue (callers serialized behind another model's job)
/// and the caller-side join wait for helper lanes. Both are per-`run`
/// (thousands per simulated window), so recording is gated on
/// `temu_obs::enabled()` and costs two `Instant` reads when on.
struct PoolObs {
    queue_wait_ns: Arc<temu_obs::Histogram>,
    join_wait_ns: Arc<temu_obs::Histogram>,
}

fn pool_obs() -> &'static PoolObs {
    static OBS: OnceLock<PoolObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let scope = temu_obs::global().scope("thermal.pool");
        PoolObs {
            queue_wait_ns: scope.histogram("queue_wait_ns"),
            join_wait_ns: scope.histogram("join_wait_ns"),
        }
    })
}

/// Type-erased borrowed job: `(worker index, worker count)`. The lifetime
/// of the pointee is erased; `run` guarantees it outlives every use.
struct Job(*const (dyn Fn(usize, usize) + Sync + 'static));

// SAFETY: the pointee is `Sync` and `run` keeps the referent alive (and the
// caller blocked) until every worker has dropped its use of the pointer.
unsafe impl Send for Job {}

struct Shared {
    state: Mutex<State>,
    start: Condvar,
    done: Condvar,
    n_workers: usize,
    /// The first payload of a helper's panicking job; `run` re-raises it
    /// on the caller instead of silently returning partial results.
    panicked: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

struct State {
    /// Bumped per dispatched job so parked workers can tell "new job" from
    /// a spurious wake.
    seq: u64,
    job: Option<Job>,
    /// Workers still running the current job.
    remaining: usize,
    shutdown: bool,
}

/// A persistent fork-join worker pool.
///
/// `run` broadcasts a borrowed closure to `n_workers` lanes (index 0 runs on
/// the calling thread, the rest on parked worker threads) and returns when
/// every lane finished. Dropping the pool shuts its workers down.
pub struct Pool {
    shared: Arc<Shared>,
    /// Worker threads plus the calling thread.
    n_workers: usize,
    /// Serializes `run` calls from different callers.
    dispatch: Mutex<()>,
}

impl Pool {
    /// Builds a dedicated pool with `n_workers` lanes (clamped to at least
    /// one — the calling thread always participates). `n_workers - 1` OS
    /// threads are spawned and parked until jobs arrive.
    pub fn new(n_workers: usize) -> Pool {
        let n_workers = n_workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State { seq: 0, job: None, remaining: 0, shutdown: false }),
            start: Condvar::new(),
            done: Condvar::new(),
            n_workers,
            panicked: Mutex::new(None),
        });
        for index in 1..n_workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("temu-pool-{index}"))
                .spawn(move || worker_loop(&shared, index))
                .expect("spawn pool worker");
        }
        Pool { shared, n_workers, dispatch: Mutex::new(()) }
    }

    /// Worker lanes a job is split into (worker threads + caller).
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Runs `f(worker, n_workers)` once for every worker index in
    /// `0..n_workers`, returning after all calls completed. Index 0 runs on
    /// the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `f` panicked on any lane. A caller-lane panic is resumed
    /// only after every helper finished (the borrowed closure must not be
    /// freed while helpers still hold its pointer); a helper-lane panic is
    /// re-raised here with its original payload instead of deadlocking the
    /// join.
    pub fn run(&self, f: &(dyn Fn(usize, usize) + Sync)) {
        let t_queue = temu_obs::enabled().then(Instant::now);
        let _serialized = self.dispatch.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(t) = t_queue {
            pool_obs().queue_wait_ns.record_duration(t.elapsed());
        }
        let helpers = self.n_workers - 1;
        if helpers > 0 {
            // SAFETY: lifetime erasure only — `run` does not return until
            // every worker finished with the pointer.
            let ptr: *const (dyn Fn(usize, usize) + Sync + 'static) =
                unsafe { std::mem::transmute(f as *const (dyn Fn(usize, usize) + Sync)) };
            let mut st = self.shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            st.seq += 1;
            st.job = Some(Job(ptr));
            st.remaining = helpers;
            drop(st);
            self.shared.start.notify_all();
        }
        let caller = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(0, self.n_workers)));
        if helpers > 0 {
            let t_join = temu_obs::enabled().then(Instant::now);
            let mut st = self.shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            while st.remaining > 0 {
                st = self.shared.done.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            st.job = None;
            drop(st);
            if let Some(t) = t_join {
                pool_obs().join_wait_ns.record_duration(t.elapsed());
            }
        }
        // Taken before either panic resumes, so a helper's panic never
        // leaks into the pool's next job.
        let helper = self.shared.panicked.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take();
        if let Some(payload) = caller.err().or(helper) {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        st.shutdown = true;
        drop(st);
        self.shared.start.notify_all();
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut last_seq = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if st.shutdown {
                    return;
                }
                if st.seq != last_seq {
                    last_seq = st.seq;
                    break st.job.as_ref().map(|j| j.0);
                }
                st = shared.start.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        if let Some(ptr) = job {
            // SAFETY: `run` blocks until `remaining` hits zero, so the
            // borrowed closure outlives this call.
            let f = unsafe { &*ptr };
            // The decrement must happen even if the job panics — a skipped
            // decrement would deadlock every future join.
            if let Err(payload) =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(index, shared.n_workers)))
            {
                let mut first = shared.panicked.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                first.get_or_insert(payload);
            }
            let mut st = shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            st.remaining -= 1;
            if st.remaining == 0 {
                shared.done.notify_one();
            }
        }
    }
}

/// The process-wide pool, created on first use with one worker per
/// available CPU (capped at 16 — sweep jobs are memory-bound and stop
/// scaling well before that). `TEMU_THERMAL_THREADS` overrides the count
/// (clamped to 1..=64): tune-down on shared hosts, force-up for testing
/// the parallel paths on small machines.
pub(crate) fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(default_workers("TEMU_THERMAL_THREADS")))
}

/// Worker count from an environment override (clamped to 1..=64), falling
/// back to the available parallelism capped at 16 — sweep jobs are
/// memory-bound and stop scaling well before that.
///
/// This is the one resolution rule for every `TEMU_*_THREADS` variable in
/// the workspace (`TEMU_THERMAL_THREADS` for the solver's sweep pool,
/// `TEMU_CAMPAIGN_THREADS` for the framework's batch runner), so both
/// accept identical syntax and clamp/fall back the same way: a value that
/// fails to parse as an unsigned integer is ignored, not an error.
pub fn default_workers(env_var: &str) -> usize {
    workers_from(std::env::var(env_var).ok().as_deref())
}

/// The pure resolution rule behind [`default_workers`] (separated so tests
/// never have to mutate the process environment, which would race with
/// concurrent `getenv` calls from sibling tests).
fn workers_from(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.parse::<usize>().ok())
        .map(|v| v.clamp(1, 64))
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()).min(16))
}

/// A sense-reversing spin barrier for synchronization points *inside* one
/// pool job (color boundaries and sweep boundaries of the implicit solve).
/// Spinning is appropriate there: the wait is sub-microsecond and every
/// participant is a dedicated pool worker already scheduled on its own
/// core; parking on a condvar would cost more than the whole sweep.
///
/// The barrier has no poisoning: a lane that panics between two `wait`s
/// would leave its peers spinning. Kernels that use it must keep their
/// per-cell bodies panic-free (indexing is bounds-proven by construction
/// and `debug_assert`ed in `UnsafeSlice`); jobs without internal barriers
/// are fully panic-safe via the pool's catch-and-rethrow.
pub(crate) struct SpinBarrier {
    count: std::sync::atomic::AtomicUsize,
    generation: std::sync::atomic::AtomicUsize,
    n: usize,
}

impl SpinBarrier {
    pub fn new(n: usize) -> SpinBarrier {
        SpinBarrier {
            count: std::sync::atomic::AtomicUsize::new(0),
            generation: std::sync::atomic::AtomicUsize::new(0),
            n,
        }
    }

    /// Blocks until all `n` participants have called `wait`.
    ///
    /// Spins briefly, then yields: when workers outnumber cores (forced
    /// parallelism on a small host) a pure spin would burn a full
    /// scheduling quantum waiting for a descheduled peer.
    pub fn wait(&self) {
        use std::sync::atomic::Ordering;
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins += 1;
                if spins < 1 << 10 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// A `&mut [T]` that several workers may write through, at indices the
/// caller guarantees are disjoint per worker.
pub(crate) struct UnsafeSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send + Sync> Sync for UnsafeSlice<'_, T> {}
unsafe impl<T: Send + Sync> Send for UnsafeSlice<'_, T> {}

impl<'a, T> UnsafeSlice<'a, T> {
    pub fn new(slice: &'a mut [T]) -> UnsafeSlice<'a, T> {
        UnsafeSlice { ptr: slice.as_mut_ptr(), len: slice.len(), _marker: std::marker::PhantomData }
    }

    /// Writes `slice[i] = v`.
    ///
    /// # Safety
    ///
    /// No other thread may concurrently read or write index `i`.
    #[inline]
    pub unsafe fn write(&self, i: usize, v: T) {
        debug_assert!(i < self.len);
        unsafe { *self.ptr.add(i) = v };
    }

    /// Reads `slice[i]`.
    ///
    /// # Safety
    ///
    /// No other thread may concurrently write index `i`.
    #[inline]
    pub unsafe fn read(&self, i: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(i < self.len);
        unsafe { *self.ptr.add(i) }
    }
}

/// Splits `0..len` into `n_workers` near-equal contiguous chunks and returns
/// worker `w`'s half-open range.
#[inline]
pub(crate) fn chunk(len: usize, w: usize, n_workers: usize) -> std::ops::Range<usize> {
    let per = len.div_ceil(n_workers);
    let start = (w * per).min(len);
    let end = ((w + 1) * per).min(len);
    start..end
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_covers_every_worker_once() {
        let pool = global();
        let hits = AtomicUsize::new(0);
        pool.run(&|w, n| {
            assert!(w < n);
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), pool.n_workers());
    }

    #[test]
    fn parallel_sum_matches_serial() {
        let pool = global();
        let data: Vec<u64> = (0..100_000).collect();
        let mut out = vec![0u64; pool.n_workers()];
        let out_slice = UnsafeSlice::new(&mut out);
        pool.run(&|w, n| {
            let r = chunk(data.len(), w, n);
            let local: u64 = data[r].iter().sum();
            // SAFETY: one writer per worker slot.
            unsafe { out_slice.write(w, local) };
        });
        assert_eq!(out.iter().sum::<u64>(), (0..100_000u64).sum());
    }

    #[test]
    fn repeated_dispatch_is_stable() {
        let pool = global();
        for round in 0..500u64 {
            let acc = AtomicUsize::new(0);
            pool.run(&|w, _| {
                acc.fetch_add(w + round as usize, Ordering::Relaxed);
            });
            let n = pool.n_workers();
            assert_eq!(acc.load(Ordering::Relaxed), n * (n - 1) / 2 + n * round as usize);
        }
    }

    #[test]
    fn caller_lane_panic_propagates_and_pool_survives() {
        let pool = global();
        let result = std::panic::catch_unwind(|| {
            pool.run(&|w, _| {
                if w == 0 {
                    panic!("deliberate test panic");
                }
            });
        });
        assert!(result.is_err(), "caller-lane panic must propagate");
        // The pool is still serviceable afterwards.
        let hits = AtomicUsize::new(0);
        pool.run(&|_, _| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), pool.n_workers());
    }

    #[test]
    fn helper_lane_panic_propagates_with_its_payload() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(&|w, _| {
                if w == 1 {
                    panic!("deliberate helper panic");
                }
            });
        }));
        let payload = result.expect_err("helper-lane panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"deliberate helper panic"));
    }

    #[test]
    fn spin_barrier_orders_phases() {
        let pool = global();
        let n = pool.n_workers();
        let barrier = SpinBarrier::new(n);
        let mut phase1 = vec![0usize; n];
        let mut phase2 = vec![0usize; n];
        let p1 = UnsafeSlice::new(&mut phase1);
        let p2 = UnsafeSlice::new(&mut phase2);
        pool.run(&|w, nw| {
            // SAFETY: one slot per worker in each phase.
            unsafe { p1.write(w, w + 1) };
            barrier.wait();
            // After the barrier every phase-1 write is visible.
            let sum: usize = (0..nw).map(|i| unsafe { p1.read(i) }).sum();
            unsafe { p2.write(w, sum) };
        });
        let expect: usize = (1..=n).sum();
        assert!(phase2.iter().all(|&s| s == expect));
    }

    #[test]
    fn dedicated_pool_is_independent_of_the_global_one() {
        // A job running on a dedicated pool may itself dispatch onto the
        // global pool (the campaign-runs-parallel-solvers nesting) without
        // deadlocking on either dispatch mutex.
        let dedicated = Pool::new(2);
        let total = AtomicUsize::new(0);
        dedicated.run(&|_, _| {
            let inner = AtomicUsize::new(0);
            global().run(&|_, _| {
                inner.fetch_add(1, Ordering::SeqCst);
            });
            total.fetch_add(inner.load(Ordering::SeqCst), Ordering::SeqCst);
        });
        assert_eq!(total.load(Ordering::SeqCst), 2 * global().n_workers());
        drop(dedicated); // workers shut down without hanging the test
    }

    #[test]
    fn default_workers_parses_clamps_and_falls_back() {
        let fallback = workers_from(None);
        assert!((1..=16).contains(&fallback), "availability-derived default, capped at 16");
        assert_eq!(workers_from(Some("3")), 3);
        assert_eq!(workers_from(Some("0")), 1, "clamped up");
        assert_eq!(workers_from(Some("1000")), 64, "clamped down");
        assert_eq!(workers_from(Some("not-a-number")), fallback, "garbage is ignored, not fatal");
        assert_eq!(default_workers("TEMU_TEST_WORKERS_SURELY_UNSET"), fallback);
    }

    #[test]
    fn chunks_partition_exactly() {
        for len in [0usize, 1, 7, 100, 1001] {
            for n in 1..9 {
                let mut covered = 0;
                for w in 0..n {
                    covered += chunk(len, w, n).len();
                }
                assert_eq!(covered, len, "len {len} workers {n}");
            }
        }
    }
}
