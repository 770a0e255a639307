//! A bounded work-stealing executor for independent tasks: scenario
//! cells, check programs, fleet replication groups.
//!
//! Each worker owns a deque seeded with a round-robin share of the
//! (static) task set; it pops its own back and, when empty, steals
//! from the front of a sibling. Because no task spawns further tasks,
//! "every queue is empty" means "done" — there is no need for the
//! termination-detection machinery of a general-purpose pool. Results
//! land in per-task slots keyed by submission index, so the output
//! order is independent of the interleaving and a parallel run can be
//! compared byte-for-byte against a sequential one.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Run `f` over `items` on `jobs` worker threads, preserving input
/// order in the result. `jobs == 1` runs inline on the caller's thread
/// (no pool, no locking) — the reference sequential path.
pub fn run_indexed<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.max(1);
    if jobs == 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }

    let n = items.len();
    let workers = jobs.min(n);
    // Round-robin deal, so early (often slower, lower-numbered) cells
    // spread across workers instead of clumping on worker 0.
    let queues: Vec<Mutex<VecDeque<(usize, &T)>>> = (0..workers)
        .map(|w| Mutex::new(items.iter().enumerate().skip(w).step_by(workers).collect()))
        .collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for me in 0..workers {
            let queues = &queues;
            let slots = &slots;
            let f = &f;
            scope.spawn(move || loop {
                // Own back first (LIFO keeps the deal's locality),
                // then steal a victim's front (FIFO minimises contention).
                // The own-queue pop must be its own statement: chaining
                // `.or_else(...)` onto the lock temporary keeps the own
                // guard alive across the steal, and workers that hold
                // their own lock while probing the next one deadlock in
                // a ring once every queue drains at the end of a run.
                let own = queues[me].lock().unwrap().pop_back();
                let task = own.or_else(|| {
                    (1..workers)
                        .map(|d| (me + d) % workers)
                        .find_map(|v| queues[v].lock().unwrap().pop_front())
                });
                match task {
                    Some((i, item)) => {
                        let r = f(item);
                        *slots[i].lock().unwrap() = Some(r);
                    }
                    // Static task set: all queues drained ⇒ finished.
                    None => break,
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("executor: unfilled slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order_at_any_width() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8, 200] {
            assert_eq!(run_indexed(items.clone(), jobs, |x| x * x), expect);
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let hits = AtomicUsize::new(0);
        let out = run_indexed((0..50).collect::<Vec<i32>>(), 4, |x| {
            hits.fetch_add(1, Ordering::Relaxed);
            *x
        });
        assert_eq!(out.len(), 50);
        assert_eq!(hits.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn empty_and_singleton_inputs_are_fine() {
        assert_eq!(run_indexed(Vec::<u8>::new(), 4, |x| *x), Vec::<u8>::new());
        assert_eq!(run_indexed(vec![7u8], 4, |x| *x), vec![7]);
    }
}
