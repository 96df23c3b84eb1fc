//! The crate's one fan-out: a scoped, bounded task pool.
//!
//! Sharded builds, dirty-shard rebuilds, the two child builds of a split,
//! the write step of a checkpoint, recovery's per-shard replay and
//! retraining and the seeding of a fresh directory are all "run these `n`
//! independent tasks and give me the results in order". They
//! share [`run_tasks`]: at most one worker per hardware thread — a store
//! with thousands of shards asks the OS for no more threads than one with
//! two — and a worker that finishes early takes the next task instead of
//! waiting for a wave to end. A task builds its shard's layer on its own
//! thread, so a wave runs at most [`worker_count`] threads. Nothing
//! outlives the call: no persistent thread, no channel, no setting.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Workers [`run_tasks`] uses for `tasks` tasks: the machine's parallelism,
/// capped by the number of tasks. The calling thread is one of them.
pub(crate) fn worker_count(tasks: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(tasks)
}

/// Run `task(0) .. task(n - 1)` on [`worker_count`]`(n)` scoped workers and
/// return the results in index order. Workers take indices from a shared
/// cursor, lowest first, so tasks *start* in index order (callers order
/// them by urgency) and no worker idles while a task is unclaimed. The
/// calling thread is worker 0: one worker — a single task, a single core —
/// spawns nothing. A panicking task does not stop the others; its panic is
/// re-raised once every worker has been joined.
pub(crate) fn run_tasks<T: Send>(n: usize, task: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let cursor = AtomicUsize::new(0);
    let drain = || {
        let mut done = Vec::new();
        loop {
            // lint: ordering(Relaxed) the cursor only hands out indices; task inputs and results are ordered by the scope's spawn and join
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, task(i)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..worker_count(n)).map(|_| scope.spawn(drain)).collect();
        let mut done = drain();
        for helper in helpers {
            match helper.join() {
                Ok(theirs) => done.extend(theirs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    debug_assert_eq!(done.len(), n);
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Tasks under Miri are few and small; natively enough to keep every
    /// worker busy for many rounds.
    const TASKS: usize = if cfg!(miri) { 8 } else { 300 };

    #[test]
    fn results_come_back_in_index_order_and_in_flight_tasks_stay_bounded() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let in_flight = AtomicUsize::new(0);
        let high_water = AtomicUsize::new(0);
        let squares = run_tasks(TASKS, |i| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            high_water.fetch_max(now, Ordering::SeqCst);
            // Give the other workers a chance to overlap with this task.
            std::thread::yield_now();
            in_flight.fetch_sub(1, Ordering::SeqCst);
            i * i
        });
        assert_eq!(squares, (0..TASKS).map(|i| i * i).collect::<Vec<_>>());
        let peak = high_water.load(Ordering::SeqCst);
        assert!(
            (1..=cores).contains(&peak),
            "{peak} tasks in flight on {cores} cores"
        );
        assert_eq!(worker_count(TASKS), cores.min(TASKS));
        assert_eq!(worker_count(0), 0);
    }

    #[test]
    fn zero_and_one_task_run_on_the_calling_thread() {
        let caller = std::thread::current().id();
        assert_eq!(
            run_tasks(0, |_| -> u8 { unreachable!("no task to run") }),
            []
        );
        let ran_on = run_tasks(1, |i| (i, std::thread::current().id()));
        assert_eq!(ran_on, [(0, caller)]);
    }

    #[test]
    fn a_panicking_task_is_re_raised_after_the_others_have_run() {
        let ran = (0..TASKS)
            .map(|_| AtomicBool::new(false))
            .collect::<Vec<_>>();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_tasks(TASKS, |i| {
                ran[i].store(true, Ordering::SeqCst);
                assert_ne!(i, 3, "task 3 fails");
            })
        }));
        let message = outcome.expect_err("the panic must reach the caller");
        let text = message.downcast_ref::<String>().expect("an assert message");
        assert!(text.contains("task 3 fails"), "{text}");
        let survivors = ran.iter().filter(|r| r.load(Ordering::SeqCst)).count();
        let cores = worker_count(TASKS);
        // The worker that ran task 3 is gone; with others left every task
        // still ran, alone it stops at the panic.
        assert_eq!(survivors, if cores > 1 { TASKS } else { 4 });
    }
}
