//! Intra-job data parallelism for the strided tensor kernels.
//!
//! The engine's worker pool parallelises *across* jobs; this module
//! parallelises *inside* one job's hot sweeps (gate-column sweeps,
//! conjugation row/column sweeps, blocked matmul row ranges) by chunking
//! an index range over scoped `std::thread`s — no external dependencies.
//!
//! Design constraints, in order:
//!
//! 1. **Bitwise determinism.** A sweep chunk computes each output element
//!    completely (its floating-point accumulation order never spans a
//!    chunk boundary), so results are identical for every thread count,
//!    including 1. Scheduling only decides *where* an element is
//!    computed, never *how*.
//! 2. **Serial by default.** The thread count comes from
//!    [`set_kernel_threads`] (the `--kernel-threads` CLI knob) or the
//!    `NQPV_KERNEL_THREADS` environment variable, and defaults to 1.
//!    Small sweeps stay serial regardless — below
//!    [`parallel_threshold`] elements of work, spawning costs more than
//!    it saves.
//! 3. **Cooperative cancellation.** When the engine arms a job deadline
//!    ([`with_job_deadline`]), chunk boundaries observe it even in the
//!    middle of one giant sweep; expiry unwinds with a [`KernelTimeout`]
//!    payload that the engine's panic shield converts into a structured
//!    timeout verdict.
//! 4. **One body, two instruction sets.** The dense chunk bodies (the
//!    strided gate sweep and the blocked matmul row update) are
//!    `#[inline(always)]` functions instantiated twice: as the target
//!    compiles them, and inside an `avx512f` `#[target_feature]` wrapper.
//!    The host's instance is detected once per process. Both instances
//!    run the same source, with no fused multiply-add (neither the
//!    instruction nor the `f64` method) and no reassociation, so every
//!    output element sums the same IEEE products in the same order and
//!    the wide instance only widens the lanes: results are bitwise those
//!    of the baseline.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Hard ceiling on the kernel thread count: beyond this, scoped-thread
/// spawn overhead dwarfs any sweep this crate runs.
pub const MAX_KERNEL_THREADS: usize = 256;

/// Default serial/parallel cut-over, in sweep work elements (an element
/// ≈ one complex multiply-accumulate). `2^15` keeps every sub-7-qubit
/// instance — where sweeps finish in microseconds — on the serial path.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 1 << 15;

/// Work elements between cooperative deadline checks on the serial path
/// (a dense 256-wide gate sweep covers them in ~0.35 ms as baseline code
/// and ~0.13 ms as the AVX-512 instance on a 2-core Xeon), so
/// `--job-timeout` interrupts a giant sweep promptly without measurable
/// overhead.
const DEADLINE_CHECK_WORK: usize = 1 << 18;

/// Sentinel meaning "not yet resolved from the environment".
const THREADS_UNSET: usize = 0;

static KERNEL_THREADS: AtomicUsize = AtomicUsize::new(THREADS_UNSET);
static PARALLEL_THRESHOLD: AtomicUsize = AtomicUsize::new(DEFAULT_PARALLEL_THRESHOLD);

/// The effective kernel thread count: the last [`set_kernel_threads`]
/// value, else `NQPV_KERNEL_THREADS`, else 1 (serial).
pub fn kernel_threads() -> usize {
    let v = KERNEL_THREADS.load(Ordering::Relaxed);
    if v != THREADS_UNSET {
        return v;
    }
    let resolved = std::env::var("NQPV_KERNEL_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .map(|n| n.clamp(1, MAX_KERNEL_THREADS))
        .unwrap_or(1);
    // Racing first calls resolve the same env value; last store wins.
    KERNEL_THREADS.store(resolved, Ordering::Relaxed);
    resolved
}

/// Sets the process-wide kernel thread count (clamped to
/// `1..=`[`MAX_KERNEL_THREADS`]). `0` restores the serial default.
/// Results are bitwise identical for every value — this knob trades
/// wall-clock for cores, nothing else.
pub fn set_kernel_threads(n: usize) {
    KERNEL_THREADS.store(n.clamp(1, MAX_KERNEL_THREADS), Ordering::Relaxed);
}

/// The current serial/parallel cut-over in work elements.
pub fn parallel_threshold() -> usize {
    PARALLEL_THRESHOLD.load(Ordering::Relaxed)
}

/// Overrides the serial/parallel cut-over. Tests and benchmarks use this
/// to force small sweeps through the threaded path; production code
/// should leave the default.
pub fn set_parallel_threshold(work: usize) {
    PARALLEL_THRESHOLD.store(work.max(1), Ordering::Relaxed);
}

/// The instruction-set instance a dense kernel chunk runs as: the body
/// as the target compiles it (SSE2 on a plain x86-64 build), or the same
/// body compiled with `avx512f` enabled. Only [`Isa::BASELINE`] and
/// [`Isa::host`] make one, so an `Isa` never names an instance the host
/// cannot run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Isa {
    avx512: bool,
}

impl Isa {
    /// The body as the target compiles it.
    pub(crate) const BASELINE: Isa = Isa { avx512: false };

    /// The widest instance this host runs, detected once per process.
    pub(crate) fn host() -> Isa {
        static HOST: OnceLock<Isa> = OnceLock::new();
        *HOST.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if std::is_x86_feature_detected!("avx512f") {
                return Isa { avx512: true };
            }
            Isa::BASELINE
        })
    }

    /// `true` for the `avx512f` instance, which only such a host gets
    /// (never off x86-64).
    pub(crate) fn avx512(self) -> bool {
        self.avx512
    }
}

/// Panic payload thrown when a kernel sweep observes an expired job
/// deadline. The engine's per-job panic shield downcasts to this and
/// reports a cooperative timeout instead of a worker panic.
#[derive(Debug)]
pub struct KernelTimeout;

thread_local! {
    static JOB_DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Arms a cooperative deadline for every kernel sweep `f` runs (on this
/// thread and the sweep threads it spawns). On expiry the sweep unwinds
/// with a [`KernelTimeout`] payload. Nesting restores the previous
/// deadline on exit, panic included.
pub fn with_job_deadline<R>(deadline: Option<Instant>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Instant>);
    impl Drop for Restore {
        fn drop(&mut self) {
            JOB_DEADLINE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(JOB_DEADLINE.with(|c| c.replace(deadline)));
    f()
}

fn job_deadline() -> Option<Instant> {
    JOB_DEADLINE.with(|c| c.get())
}

/// Runs `task` over disjoint chunks of `0..items`: serially below
/// [`parallel_threshold`] elements of work (`work_per_item` estimates the
/// FLOP-ish cost of one item), otherwise work-stealing fixed-size chunks
/// off a shared atomic cursor with up to [`kernel_threads`] scoped
/// threads. Giant sweeps observe the job deadline between chunks. This
/// is the one entry point every chunked kernel sweep goes through.
///
/// Contract for `task`: chunks must be independent — each item's writes
/// must target locations no other item touches, and each output value
/// must be computed entirely within the chunk that owns its item (so
/// accumulation order cannot depend on the chunking).
pub fn sweep(items: usize, work_per_item: usize, task: impl Fn(Range<usize>) + Sync) {
    if items == 0 {
        return;
    }
    let threads = kernel_threads().min(items);
    let total = items.saturating_mul(work_per_item.max(1));
    // Only giant sweeps observe the job deadline mid-sweep: small
    // ones finish in microseconds anyway, and letting them trip the
    // deadline first would pre-empt the statement-boundary timeout
    // report (which carries the partial trajectory).
    let deadline = if total >= DEADLINE_CHECK_WORK {
        job_deadline()
    } else {
        None
    };
    if threads <= 1 || total < parallel_threshold() {
        run_serial(items, work_per_item, deadline, &task);
        return;
    }
    // ~4 chunks per worker balance load without cursor contention.
    let chunk = items.div_ceil(threads * 4).max(1);
    let cursor = AtomicUsize::new(0);
    let expired = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                if let Some(dl) = deadline {
                    if Instant::now() >= dl {
                        expired.store(true, Ordering::Relaxed);
                    }
                }
                if expired.load(Ordering::Relaxed) {
                    break;
                }
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= items {
                    break;
                }
                task(start..items.min(start + chunk));
            });
        }
    });
    if expired.load(Ordering::Relaxed) {
        // Unwind on the parent thread so the payload reaches the
        // engine's catch_unwind intact (scoped-thread panics do not
        // carry payloads across the scope boundary reliably).
        std::panic::panic_any(KernelTimeout);
    }
}

/// Serial execution with periodic deadline checks. Without a deadline
/// this is a single `task(0..items)` call — zero overhead.
fn run_serial(
    items: usize,
    work_per_item: usize,
    deadline: Option<Instant>,
    task: &(dyn Fn(Range<usize>) + Sync),
) {
    let Some(dl) = deadline else {
        task(0..items);
        return;
    };
    let per = (DEADLINE_CHECK_WORK / work_per_item.max(1)).max(1);
    let mut start = 0;
    while start < items {
        if Instant::now() >= dl {
            std::panic::panic_any(KernelTimeout);
        }
        let end = items.min(start + per);
        task(start..end);
        start = end;
    }
}

/// A raw shared-mutable view of a slice for sweep chunks whose write
/// index sets are provably disjoint (interleaved strided columns, rows).
/// Safe Rust cannot express "aliased `&mut` with disjoint writes", so
/// sweep call sites capture one of these and go through raw-pointer
/// element access inside the kernel.
pub struct SharedMut<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: the pointer is only dereferenced inside `sweep` tasks, whose
// contract (disjoint per-item writes, chunk-complete computation)
// excludes data races by construction.
unsafe impl<T: Send> Send for SharedMut<T> {}
unsafe impl<T: Send> Sync for SharedMut<T> {}

impl<T> SharedMut<T> {
    /// Wraps a uniquely borrowed slice. The borrow's lifetime outlives
    /// every scoped sweep thread, so the pointer stays valid for the
    /// whole sweep.
    pub fn new(slice: &mut [T]) -> SharedMut<T> {
        SharedMut {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// The underlying element pointer.
    pub fn ptr(&self) -> *mut T {
        self.ptr
    }

    /// Length of the wrapped slice, for bounds assertions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the wrapped slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Helpers for the crate's cross-instance and cross-thread tests.
#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::complex::{c, Complex};
    use std::sync::Mutex;

    /// Serialises tests that mutate the process-global kernel knobs.
    pub(crate) static GLOBAL_KNOBS: Mutex<()> = Mutex::new(());

    /// Every instruction-set instance this host runs, baseline first.
    /// Prints the list once per test process, so a test log shows which
    /// instances ran.
    fn host_instances() -> Vec<Isa> {
        static PRINTED: std::sync::Once = std::sync::Once::new();
        let mut isas = vec![Isa::BASELINE];
        if Isa::host() != Isa::BASELINE {
            isas.push(Isa::host());
        }
        PRINTED.call_once(|| println!("instruction-set instances: {isas:?}"));
        isas
    }

    /// Runs `f` at `threads` kernel threads, with a threshold of 1 so
    /// even tiny sweeps take the threaded path.
    fn at_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        let _guard = GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
        let old = parallel_threshold();
        set_parallel_threshold(1);
        set_kernel_threads(threads);
        let r = f();
        set_kernel_threads(1);
        set_parallel_threshold(old);
        r
    }

    /// Runs `f` as every host instance at kernel threads 1 and 4 and
    /// checks each result against the baseline at one thread with
    /// [`assert_same_bits`].
    pub(crate) fn assert_every_instance_agrees(what: &str, f: impl Fn(Isa) -> Vec<Complex>) {
        let want = at_threads(1, || f(Isa::BASELINE));
        for isa in host_instances() {
            for threads in [1, 4] {
                if (isa, threads) == (Isa::BASELINE, 1) {
                    continue;
                }
                let got = at_threads(threads, || f(isa));
                assert_same_bits(&want, &got, &format!("{what}, {isa:?}, {threads} threads"));
            }
        }
    }

    /// Runs `f` as every host instance at kernel threads 1 and 4 and
    /// checks each result against the reference `want` with
    /// [`assert_same_bits`].
    pub(crate) fn assert_every_instance_gives(
        what: &str,
        want: &[Complex],
        f: impl Fn(Isa) -> Vec<Complex>,
    ) {
        for isa in host_instances() {
            for threads in [1, 4] {
                let got = at_threads(threads, || f(isa));
                assert_same_bits(want, &got, &format!("{what}, {isa:?}, {threads} threads"));
            }
        }
    }

    /// Bit equality of every component, except that where either side
    /// holds a NaN only the NaN position is compared (instruction sets
    /// may propagate different NaN payloads).
    pub(crate) fn assert_same_bits(want: &[Complex], got: &[Complex], what: &str) {
        assert_eq!(want.len(), got.len(), "{what}: length");
        for (t, (w, g)) in want.iter().zip(got).enumerate() {
            for (x, y) in [(w.re, g.re), (w.im, g.im)] {
                let same = if x.is_nan() || y.is_nan() {
                    x.is_nan() && y.is_nan()
                } else {
                    x.to_bits() == y.to_bits()
                };
                assert!(same, "{what}: element {t} is {g:?}, expected {w:?}");
            }
        }
    }

    /// A seeded splitmix64 stream for test inputs.
    pub(crate) struct TestRng(u64);

    impl TestRng {
        pub(crate) fn new(seed: u64) -> TestRng {
            TestRng(seed)
        }

        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[-1, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
        }

        /// `len` complex entries in `[-1, 1)²`.
        pub(crate) fn complexes(&mut self, len: usize) -> Vec<Complex> {
            (0..len).map(|_| c(self.unit(), self.unit())).collect()
        }

        /// `k` distinct qubits of `0..n` in random (unsorted) order.
        pub(crate) fn positions(&mut self, k: usize, n: usize) -> Vec<usize> {
            let mut qubits: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                qubits.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
            }
            qubits.truncate(k);
            qubits
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::GLOBAL_KNOBS;
    use super::*;
    use std::time::Duration;

    #[test]
    fn serial_sweep_covers_range_once() {
        let mut hits = vec![0u8; 100];
        let cells = SharedMut::new(&mut hits);
        sweep(100, 1, |r| {
            for i in r {
                unsafe { *cells.ptr().add(i) += 1 };
            }
        });
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn threaded_sweep_covers_range_exactly_once() {
        let _guard = GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
        let old_thr = parallel_threshold();
        set_parallel_threshold(1);
        set_kernel_threads(7);
        let mut hits = vec![0u8; 10_000];
        let cells = SharedMut::new(&mut hits);
        sweep(10_000, 64, |r| {
            for i in r {
                unsafe { *cells.ptr().add(i) += 1 };
            }
        });
        set_kernel_threads(1);
        set_parallel_threshold(old_thr);
        assert!(hits.iter().all(|&h| h == 1), "every item exactly once");
    }

    #[test]
    fn small_work_stays_serial_even_with_many_threads() {
        let _guard = GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
        set_kernel_threads(8);
        let calls = AtomicUsize::new(0);
        // 64 items × 1 work < threshold ⇒ one serial chunk.
        sweep(64, 1, |r| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(r, 0..64);
        });
        set_kernel_threads(1);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn expired_deadline_unwinds_with_kernel_timeout() {
        let _guard = GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
        for threads in [1usize, 4] {
            let old_thr = parallel_threshold();
            set_parallel_threshold(1);
            set_kernel_threads(threads);
            let caught = std::panic::catch_unwind(|| {
                with_job_deadline(Some(Instant::now() - Duration::from_secs(1)), || {
                    sweep(1 << 20, 1 << 10, |_r| {});
                })
            });
            set_kernel_threads(1);
            set_parallel_threshold(old_thr);
            let payload = caught.expect_err("expired deadline must unwind");
            assert!(
                payload.downcast_ref::<KernelTimeout>().is_some(),
                "payload must be KernelTimeout ({threads} threads)"
            );
        }
        // The thread-local is restored after unwinding.
        assert!(job_deadline().is_none());
    }

    #[test]
    fn unarmed_deadline_never_fires() {
        with_job_deadline(None, || {
            sweep(1024, 1024, |_r| {});
        });
        // Nested scopes restore the outer deadline.
        let far = Instant::now() + Duration::from_secs(3600);
        with_job_deadline(Some(far), || {
            assert_eq!(job_deadline(), Some(far));
            with_job_deadline(None, || assert_eq!(job_deadline(), None));
            assert_eq!(job_deadline(), Some(far));
        });
    }

    #[test]
    fn kernel_thread_knob_clamps() {
        let _guard = GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
        set_kernel_threads(100_000);
        assert_eq!(kernel_threads(), MAX_KERNEL_THREADS);
        set_kernel_threads(0);
        assert_eq!(kernel_threads(), 1);
        set_kernel_threads(1);
    }
}
