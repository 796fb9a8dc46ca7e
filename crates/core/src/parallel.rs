//! First-party parallel fan-out for the embarrassingly parallel layers of
//! the characterization flow: surface generation cells, Monte Carlo
//! samples, PVT corners, and batch contour tracing.
//!
//! Every sweep driver goes through one executor, [`run_groups`]: it cuts
//! the job list into lane groups (one lockstep batch each) and fans the
//! groups over [`run_indexed`], so lanes and threads compose instead of
//! excluding each other.
//!
//! A work-stealing thread pool crate (rayon) would be the natural choice,
//! but this project must build in fully offline environments, so the
//! fan-out is implemented directly on `std::thread::scope`. The shape is
//! the same as a `par_iter().map().collect()`: a shared atomic cursor
//! hands out indices, each worker runs the job closure, and results are
//! merged back **in index order**, which makes parallel runs bitwise
//! identical to serial runs for independent jobs. Errors are deterministic
//! too: the error with the lowest job index wins, exactly as in a serial
//! left-to-right loop.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use shc_spice::batch::{BatchPolicy, DEFAULT_LANES};

/// Thread-count policy for parallel sweeps.
///
/// The default is [`Parallelism::Serial`]: no worker threads unless a
/// caller opts in. Sweep results never depend on the policy, only their
/// wall time does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Run all jobs on the calling thread; no worker threads are spawned.
    #[default]
    Serial,
    /// One worker per available CPU (`std::thread::available_parallelism`).
    Auto,
    /// Exactly this many worker threads; `0` and `1` behave like `Serial`.
    Threads(usize),
}

impl Parallelism {
    /// Maps a user-facing `--threads N` argument: `0` means [`Auto`]
    /// (use all CPUs), `1` means [`Serial`], anything else is an explicit
    /// thread count.
    ///
    /// [`Auto`]: Parallelism::Auto
    /// [`Serial`]: Parallelism::Serial
    pub fn from_thread_arg(n: usize) -> Self {
        match n {
            0 => Parallelism::Auto,
            1 => Parallelism::Serial,
            n => Parallelism::Threads(n),
        }
    }

    /// The number of worker threads this policy resolves to on this host.
    pub fn thread_count(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Parallelism::Threads(n) => n.max(1),
        }
    }
}

/// Lane-group width for `jobs` jobs: `min(DEFAULT_LANES, ⌈jobs / threads⌉)`
/// when `batch` may batch, so every thread gets work before any group
/// widens, and 1 when it may not (each job then completes before the next
/// starts, which keeps the scalar order of fault draws).
fn group_width(parallelism: Parallelism, batch: BatchPolicy, jobs: usize) -> usize {
    if !batch.may_batch() {
        return 1;
    }
    jobs.div_ceil(parallelism.thread_count())
        .clamp(1, DEFAULT_LANES)
}

/// The sweep executor: cuts `jobs` into consecutive lane groups (width
/// from the thread count and `batch`, see above), fans the groups over
/// [`run_indexed`], and concatenates their outputs in job order. `group`
/// receives one group's jobs by value and returns one output per job;
/// it runs inside one [`shc_prof::Phase::Sweep`] frame.
///
/// Each job's output must not depend on which jobs share its group —
/// the batched engine is bitwise identical per lane — so the result is
/// the same for every `parallelism` and `batch`.
///
/// # Errors
///
/// The error of the lowest-index failing group, as in [`run_indexed`].
pub fn run_groups<J, T, E, F>(
    parallelism: Parallelism,
    batch: BatchPolicy,
    jobs: Vec<J>,
    group: F,
) -> std::result::Result<Vec<T>, E>
where
    J: Send,
    T: Send,
    E: Send,
    F: Fn(Vec<J>) -> std::result::Result<Vec<T>, E> + Sync,
{
    let width = group_width(parallelism, batch, jobs.len());
    let mut rest = jobs.into_iter();
    let mut groups = Vec::new();
    loop {
        let next: Vec<J> = rest.by_ref().take(width).collect();
        if next.is_empty() {
            break;
        }
        groups.push(Mutex::new(next));
    }
    // Each group index is claimed exactly once, so every lock is
    // uncontended; the mutex only moves the owned jobs to a worker.
    let outputs = run_indexed(parallelism, groups.len(), |g| {
        let _frame = shc_prof::enter(shc_prof::Phase::Sweep);
        let jobs = groups.get(g).map_or_else(Vec::new, |slot| {
            std::mem::take(&mut *slot.lock().unwrap_or_else(PoisonError::into_inner))
        });
        group(jobs)
    })?;
    Ok(outputs.into_iter().flatten().collect())
}

/// Runs `count` independent fallible jobs, returning their results in job
/// order.
///
/// Serial policies run a plain left-to-right loop with early exit on the
/// first error. Parallel policies fan the indices out over worker threads
/// and merge by index, so for jobs with no shared mutable state the
/// returned `Vec` is bitwise identical to the serial one. On failure the
/// error with the *lowest* index is returned (matching the serial early
/// exit) and in-flight workers stop claiming further jobs.
///
/// # Errors
///
/// Propagates the first (lowest-index) job error.
///
/// # Panics
///
/// Panics propagate from job closures when the scope joins.
pub fn run_indexed<T, E, F>(
    parallelism: Parallelism,
    count: usize,
    job: F,
) -> std::result::Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> std::result::Result<T, E> + Sync,
{
    let threads = parallelism.thread_count().min(count).max(1);
    if threads <= 1 {
        return (0..count).map(job).collect();
    }

    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let slots: Mutex<Vec<Option<std::result::Result<T, E>>>> = Mutex::new({
        let mut v = Vec::new();
        v.resize_with(count, || None);
        v
    });
    // Telemetry follows the work: capture the caller's collector (if any)
    // and install it on every worker so counters, spans, and journal
    // events from parallel jobs land in the same collector as serial runs.
    // The fault injector rides along the same way, so an injection plan
    // covers fanned-out jobs too (each site's cursor stream is shared).
    let collector = shc_obs::current();
    let injector = shc_fault::current();
    let profiler = shc_prof::current();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let _telemetry = collector.as_ref().map(shc_obs::install_scoped);
                let _faults = injector.as_ref().map(shc_fault::install_scoped);
                let _profile = profiler.as_ref().map(shc_prof::install_scoped);
                let mut local: Vec<(usize, std::result::Result<T, E>)> = Vec::new();
                loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    let result = job(i);
                    if result.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    local.push((i, result));
                }
                // Poisoning means a sibling worker panicked; the scope
                // re-raises that panic when it joins, so the data is moot.
                let mut slots = slots.lock().unwrap_or_else(PoisonError::into_inner);
                for (i, r) in local {
                    slots[i] = Some(r);
                }
            });
        }
    });

    // The scope joined every worker without a panic, so nothing poisoned
    // the results. Indices are claimed monotonically, so a never-run slot
    // can only lie above the lowest-index error: `flatten` skips those
    // slots and the collect stops at that error before reaching them.
    slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_elementwise() {
        let serial: Vec<u64> =
            run_indexed(Parallelism::Serial, 100, |i| Ok::<u64, ()>((i as u64) * 3)).unwrap();
        let parallel = run_indexed(Parallelism::Threads(4), 100, |i| {
            Ok::<u64, ()>((i as u64) * 3)
        })
        .unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn lowest_index_error_wins() {
        let result = run_indexed(Parallelism::Threads(4), 64, |i| {
            if i % 7 == 3 {
                Err(i)
            } else {
                Ok(i)
            }
        });
        assert_eq!(result.unwrap_err(), 3);
    }

    #[test]
    fn zero_jobs_is_fine() {
        let out: Vec<u8> = run_indexed(Parallelism::Auto, 0, |_| Ok::<u8, ()>(0)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn thread_arg_mapping() {
        assert_eq!(Parallelism::from_thread_arg(0), Parallelism::Auto);
        assert_eq!(Parallelism::from_thread_arg(1), Parallelism::Serial);
        assert_eq!(Parallelism::from_thread_arg(8), Parallelism::Threads(8));
        assert_eq!(Parallelism::Serial.thread_count(), 1);
        assert_eq!(Parallelism::Threads(0).thread_count(), 1);
        assert_eq!(Parallelism::Threads(2).thread_count(), 2);
        assert!(Parallelism::Auto.thread_count() >= 1);
    }

    /// Runs `jobs` identity jobs and returns, per job, `(job, size of the
    /// group it ran in)`.
    fn grouped(parallelism: Parallelism, batch: BatchPolicy, jobs: usize) -> Vec<(usize, usize)> {
        run_groups(parallelism, batch, (0..jobs).collect(), |group| {
            let width = group.len();
            Ok::<_, ()>(group.into_iter().map(|j| (j, width)).collect())
        })
        .unwrap()
    }

    fn group_sizes(out: &[(usize, usize)]) -> Vec<usize> {
        let mut sizes = Vec::new();
        let mut j = 0;
        while j < out.len() {
            sizes.push(out[j].1);
            j += out[j].1;
        }
        sizes
    }

    #[test]
    fn groups_split_unevenly_and_merge_in_job_order() {
        // 10 jobs on 3 threads: width ⌈10/3⌉ = 4, last group short.
        let out = grouped(Parallelism::Threads(3), BatchPolicy::Batched, 10);
        assert_eq!(
            out.iter().map(|p| p.0).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        assert_eq!(group_sizes(&out), [4, 4, 2]);
        // Fewer jobs than threads: one job per group.
        let out = grouped(Parallelism::Threads(8), BatchPolicy::Batched, 3);
        assert_eq!(out, [(0, 1), (1, 1), (2, 1)]);
        // Serial runs cut full DEFAULT_LANES groups.
        let out = grouped(Parallelism::Serial, BatchPolicy::Auto, 40);
        assert_eq!(group_sizes(&out), [DEFAULT_LANES, DEFAULT_LANES, 8]);
        // Many jobs on few threads: the width caps at DEFAULT_LANES.
        let out = grouped(Parallelism::Threads(2), BatchPolicy::Auto, 100);
        assert!(group_sizes(&out).iter().all(|&w| w <= DEFAULT_LANES));
        assert!(grouped(Parallelism::Threads(3), BatchPolicy::Auto, 0).is_empty());
    }

    #[test]
    fn groups_are_single_jobs_when_the_policy_cannot_batch() {
        for parallelism in [Parallelism::Serial, Parallelism::Threads(3)] {
            let out = grouped(parallelism, BatchPolicy::Scalar, 7);
            assert_eq!(group_sizes(&out), [1; 7]);
        }
        let injector = shc_fault::Injector::new(shc_fault::FaultPlan::default());
        let _faults = shc_fault::install_scoped(&injector);
        assert_eq!(
            group_sizes(&grouped(Parallelism::Serial, BatchPolicy::Auto, 5)),
            [1; 5]
        );
        assert_eq!(
            group_sizes(&grouped(Parallelism::Serial, BatchPolicy::Batched, 5)),
            [5]
        );
    }

    #[test]
    fn lowest_index_error_wins_across_group_boundaries() {
        // Width 7 on 3 threads: groups [0, 7), [7, 14), [14, 20). Failing
        // jobs sit in the second and third groups; the second one's wins.
        for parallelism in [Parallelism::Serial, Parallelism::Threads(3)] {
            let result = run_groups(
                parallelism,
                BatchPolicy::Batched,
                (0..20).collect(),
                |group| {
                    group
                        .into_iter()
                        .map(|j: usize| if j == 9 || j == 15 { Err(j) } else { Ok(j) })
                        .collect::<Result<Vec<_>, _>>()
                },
            );
            assert_eq!(result.unwrap_err(), 9, "{parallelism:?}");
        }
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let out = run_indexed(Parallelism::Threads(16), 3, Ok::<usize, ()>).unwrap();
        assert_eq!(out, vec![0, 1, 2]);
    }
}
