//! Scoped worker pool for sweep evaluation.
//!
//! The paper's figures are embarrassingly parallel — every sweep point is
//! an independent `(graph, budget, scheduler)` evaluation — so a simple
//! work-stealing-free pool (shared atomic cursor over an indexed slice)
//! gets within noise of rayon for these workloads without any external
//! dependency.
//!
//! Thread count resolution, first match wins:
//!
//! 1. `RAYON_NUM_THREADS` (the convention sweep scripts already use),
//! 2. `PEBBLYN_THREADS`,
//! 3. [`std::thread::available_parallelism`].
//!
//! Results are always returned in input order, so parallel and serial
//! runs are byte-identical downstream.

use pebblyn_telemetry as telemetry;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Resolved worker count for `n_items` work items (at least 1).
pub fn thread_count(n_items: usize) -> usize {
    let configured = std::env::var("RAYON_NUM_THREADS")
        .or_else(|_| std::env::var("PEBBLYN_THREADS"))
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0);
    let n = configured.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    });
    n.min(n_items.max(1))
}

/// Order-preserving parallel map: `out[i] = f(&items[i])`.
///
/// Runs inline (no threads spawned) when the pool resolves to one worker,
/// which makes `RAYON_NUM_THREADS=1` a true serial baseline.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    telemetry::incr(telemetry::Counter::ParRounds);
    telemetry::add(telemetry::Counter::ParTasks, items.len() as u64);
    telemetry::gauge_max(telemetry::Gauge::QueueDepthPeak, items.len() as u64);
    let threads = thread_count(items.len());
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                if tx.send((i, f(item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for (i, r) in rx {
            results[i] = Some(r);
        }
        results
            .into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..500).collect();
        let out = par_map(&items, |&x| x * 3);
        assert_eq!(out, (0..500).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(par_map(&[] as &[u8], |&x| x), Vec::<u8>::new());
        assert_eq!(par_map(&[7u8], |&x| x + 1), vec![8]);
    }

    #[test]
    fn thread_count_is_positive_and_bounded() {
        assert_eq!(thread_count(0), 1);
        assert_eq!(thread_count(1), 1);
        assert!(thread_count(64) >= 1);
    }
}
