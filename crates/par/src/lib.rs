//! A deterministic work-stealing executor for the pipeline's fan-out
//! stages.
//!
//! Every parallel stage in this workspace — the homograph and semantic
//! scans, lenient zone ingest, the crawl surveys, the report generators —
//! shares one scheduling discipline: the input is split into fixed chunks,
//! the chunks go into a shared queue, and each worker thread repeatedly
//! *steals* the next unclaimed chunk (an atomic cursor bump) until the
//! queue drains. Fast workers therefore absorb the slow chunks instead of
//! idling behind a static partition, which is what makes the pipeline
//! scale with cores on skewed workloads (ZDNS-style self-scheduling).
//!
//! # Determinism contract
//!
//! Results are returned **in input order** regardless of which worker
//! processed which chunk and in what order: each chunk's output is slotted
//! by chunk index and reassembled after the scope joins. As long as the
//! per-item closure is a pure function of its item (plus commutative
//! side effects such as telemetry counters), the output is byte-identical
//! for every thread count, including `threads == 1`, which runs inline
//! without spawning. The proptests in `idnre-bench` hold every pipeline
//! stage to this contract across 1/2/8 threads.
//!
//! # Examples
//!
//! ```
//! let squares = idnre_par::par_map(&[1u64, 2, 3, 4], 2, |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Hard cap on worker threads, matching the pipeline-wide clamp.
pub const MAX_THREADS: usize = 64;

/// Chunks-per-worker granularity: enough chunks that stealing evens out
/// skew, few enough that queue traffic stays negligible.
const CHUNKS_PER_THREAD: usize = 4;

/// The number of workers to use when the caller has no preference:
/// the machine's available parallelism, clamped to [`MAX_THREADS`].
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, MAX_THREADS)
}

/// The chunk size that splits `len` items into roughly
/// `threads × CHUNKS_PER_THREAD` steal units (at least 1).
pub fn chunk_size(len: usize, threads: usize) -> usize {
    let threads = threads.clamp(1, MAX_THREADS);
    len.div_ceil(threads * CHUNKS_PER_THREAD).max(1)
}

/// Maps `f` over `items` on `threads` workers, returning results in input
/// order. `threads <= 1` (or a short input) runs inline on the caller's
/// thread. See the module docs for the determinism contract.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let per_chunk = par_chunks(
        items,
        threads,
        chunk_size(items.len(), threads),
        |_, chunk| chunk.iter().map(&f).collect::<Vec<R>>(),
    );
    per_chunk.into_iter().flatten().collect()
}

/// Runs `f(chunk_index, chunk)` over `items` split into `size`-item
/// chunks, pulling chunks from a shared work queue on `threads` workers.
/// The returned vector holds one result per chunk, **in chunk order** —
/// scheduling never leaks into the output.
pub fn par_chunks<T, R, F>(items: &[T], threads: usize, size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let size = size.max(1);
    let n_chunks = items.len().div_ceil(size);
    let threads = threads.clamp(1, MAX_THREADS).min(n_chunks.max(1));
    if threads <= 1 {
        return items
            .chunks(size)
            .enumerate()
            .map(|(i, chunk)| f(i, chunk))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n_chunks));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n_chunks {
                    break;
                }
                let start = i * size;
                let end = (start + size).min(items.len());
                let result = f(i, &items[start..end]);
                slots
                    .lock()
                    .expect("result slot poisoned")
                    .push((i, result));
            });
        }
    });
    let mut per_chunk = slots.into_inner().expect("result slot poisoned");
    per_chunk.sort_unstable_by_key(|&(i, _)| i);
    per_chunk.into_iter().map(|(_, r)| r).collect()
}

/// Runs `a` and `b` and returns both results: `b` on a second thread when
/// `threads > 1`, both on the caller's thread otherwise.
pub fn join<RA, RB, A, B>(threads: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    if threads <= 1 {
        let ra = a();
        return (ra, b());
    }
    std::thread::scope(|scope| {
        let b = scope.spawn(b);
        let ra = a();
        let rb = b
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (ra, rb)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn join_returns_both_results_at_any_thread_count() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [0, 1, 2, 8] {
            let (sum, max) = join(
                threads,
                || items.iter().sum::<u64>(),
                || items.iter().copied().max(),
            );
            assert_eq!((sum, max), (4950, Some(99)), "{threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "second")]
    fn join_propagates_a_panic_of_the_second_closure() {
        join(2, || 1, || -> u32 { panic!("second") });
    }

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 3, 8, 64] {
            let doubled = par_map(&items, threads, |&x| x * 2);
            assert_eq!(doubled.len(), items.len());
            assert!(doubled.iter().enumerate().all(|(i, &v)| v == i as u64 * 2));
        }
    }

    #[test]
    fn output_is_identical_across_thread_counts() {
        let items: Vec<u64> = (0..777).collect();
        let serial = par_map(&items, 1, |&x| x.wrapping_mul(0x9e37_79b9));
        for threads in [2, 4, 8] {
            assert_eq!(
                serial,
                par_map(&items, threads, |&x| x.wrapping_mul(0x9e37_79b9))
            );
        }
    }

    #[test]
    fn chunks_arrive_in_chunk_order() {
        let items: Vec<u32> = (0..103).collect();
        let sums = par_chunks(&items, 4, 10, |i, chunk| {
            (i, chunk.iter().copied().sum::<u32>())
        });
        assert_eq!(sums.len(), 11);
        assert!(sums.iter().enumerate().all(|(k, &(i, _))| k == i));
        let total: u32 = sums.iter().map(|&(_, s)| s).sum();
        assert_eq!(total, items.iter().sum::<u32>());
    }

    #[test]
    fn every_item_visited_exactly_once() {
        let items: Vec<usize> = (0..5000).collect();
        let visits = AtomicU64::new(0);
        let _ = par_map(&items, 8, |_| visits.fetch_add(1, Ordering::Relaxed));
        assert_eq!(visits.into_inner(), 5000);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(&empty, 8, |&x| x).is_empty());
        assert_eq!(par_map(&[7u8], 8, |&x| x + 1), vec![8]);
    }

    #[test]
    fn skewed_work_is_stolen_not_partitioned() {
        // One pathological item 100x slower than the rest; with chunk
        // stealing the wall time stays near the single slow item rather
        // than serializing behind a static partition. We only assert
        // correctness here (timing is for the bench harness), but the
        // chunk count guarantees the slow chunk is a steal unit.
        let items: Vec<u64> = (0..256).collect();
        let out = par_map(&items, 8, |&x| {
            if x == 0 {
                (0..10_000u64).fold(x, |a, b| a.wrapping_add(b))
            } else {
                x
            }
        });
        assert_eq!(out[1..], items[1..]);
    }

    #[test]
    fn default_threads_is_sane() {
        let n = default_threads();
        assert!((1..=MAX_THREADS).contains(&n));
    }

    #[test]
    fn chunk_size_scales() {
        assert_eq!(chunk_size(0, 8), 1);
        assert_eq!(chunk_size(1, 8), 1);
        assert!(chunk_size(100_000, 8) >= 100_000 / (8 * CHUNKS_PER_THREAD));
    }
}
