//! `cm-par`: the workspace's deterministic parallel substrate.
//!
//! Every expensive stage of the pipeline (Apriori support counting, LF
//! application, label-model EM, graph construction, gradient
//! accumulation, forward passes) funnels through the four primitives
//! in this crate instead of hand-rolled `std::thread::scope` blocks; the
//! `xtask lint` gate bans raw threading in every other library crate.
//!
//! ## Determinism contract
//!
//! Probabilistic-label pipelines are sensitive to floating-point reduction
//! order, so parallel results here are **bit-for-bit identical** to the
//! serial (`threads = 1`) results, and independent of the thread count:
//!
//! - Work is split into contiguous chunks whose boundaries depend only on
//!   the item count and the caller's `min_chunk` — never on the number of
//!   threads. `threads = 1` and `threads = 8` produce the same chunks.
//! - Chunk results are merged **in chunk index order**, never in
//!   first-finished order, so a chunked float fold performs the same
//!   additions in the same sequence regardless of scheduling.
//! - The serial fallback executes the same chunk plan inline, so switching
//!   thread counts never changes a single arithmetic operation, only which
//!   thread performs it.
//!
//! ## Panic propagation
//!
//! A panicking closure never aborts the process: the panic is captured,
//! every worker is joined, and the first payload is surfaced to the caller
//! as a [`ParError`] (convertible to the workspace `CmError`, kind
//! `panic`). The substrate holds no poisoned state — the next call works,
//! which the property tests in `tests/` pin.
//!
//! ## Configuration
//!
//! [`ParConfig::from_env`] reads `CM_THREADS` (falling back to the
//! machine's available parallelism). Library operations take a
//! `&ParConfig` instead (the `par-from-env` lint holds them to it), and a
//! binary reads the variable once, at its edge. Every thread count is clamped to `1..=8` when the config
//! is built, before any worker starts. `threads = 1` runs everything
//! inline on the caller's thread.

use std::any::Any;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Upper bound on chunks per operation. Fixed (never thread-derived) so the
/// chunk plan — and therefore every chunked float fold — is identical at
/// any thread count.
const MAX_CHUNKS: usize = 64;

/// Hard cap on worker threads: every [`ParConfig`] constructor clamps to
/// it, so no configuration can ask for more workers than this.
const MAX_THREADS: usize = 8;

/// Environment variable overriding the worker count.
pub const THREADS_ENV: &str = "CM_THREADS";

/// Worker-pool configuration for one parallel operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParConfig {
    threads: usize,
    min_chunk: usize,
}

impl ParConfig {
    /// Configuration from the environment: `CM_THREADS` if set and valid,
    /// otherwise the machine's available parallelism, clamped like
    /// [`ParConfig::threads`].
    pub fn from_env() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
            });
        Self::threads(threads)
    }

    /// Explicit worker count, clamped to `1..=8`.
    pub fn threads(threads: usize) -> Self {
        Self { threads: threads.clamp(1, MAX_THREADS), min_chunk: 1 }
    }

    /// Serial execution on the caller's thread.
    pub fn serial() -> Self {
        Self::threads(1)
    }

    /// Sets the minimum items per chunk (`0` is treated as `1`). Chunk
    /// boundaries depend only on this and the item count, so callers that
    /// need bit-stable folds must pass the same value at every thread
    /// count (each kernel hard-codes it per call site).
    pub fn with_min_chunk(mut self, min_chunk: usize) -> Self {
        self.min_chunk = min_chunk.max(1);
        self
    }

    /// Configured worker count.
    pub fn n_threads(&self) -> usize {
        self.threads
    }

    /// Configured minimum chunk size.
    pub fn min_chunk(&self) -> usize {
        self.min_chunk
    }

    /// Chunks the plan splits `n_items` into: at most one per-chunk scratch
    /// buffer is alive per chunk, so this bounds a parallel call's scratch
    /// at any thread count.
    pub fn n_chunks(&self, n_items: usize) -> usize {
        self.plan(n_items).1
    }

    /// The thread-count-independent chunk plan for `n` items: chunk size
    /// and chunk count.
    fn plan(&self, n: usize) -> (usize, usize) {
        let size = self.min_chunk.max(n.div_ceil(MAX_CHUNKS)).max(1);
        (size, n.div_ceil(size))
    }
}

/// A captured worker panic (the only error this crate produces; argument
/// misuse is a programming bug and asserts instead).
pub struct ParError {
    message: String,
    payload: Option<Box<dyn Any + Send + 'static>>,
}

impl ParError {
    fn from_payload(payload: Box<dyn Any + Send + 'static>) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "worker panicked with a non-string payload".to_owned()
        };
        Self { message, payload: Some(payload) }
    }

    /// Human-readable panic message.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Re-raises the original panic on the calling thread. Wrappers with
    /// infallible signatures (e.g. `LabelMatrix::apply_with`) use this so a worker
    /// panic behaves exactly like the serial code panicking in place.
    pub fn resume(self) -> ! {
        match self.payload {
            Some(p) => std::panic::resume_unwind(p),
            None => std::panic::resume_unwind(Box::new(self.message)),
        }
    }
}

impl fmt::Debug for ParError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ParError {{ message: {:?} }}", self.message)
    }
}

impl fmt::Display for ParError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parallel worker panicked: {}", self.message)
    }
}

impl std::error::Error for ParError {}

/// Result of a parallel operation.
pub type ParResult<T> = Result<T, ParError>;

/// Maps contiguous index ranges (the deterministic chunk plan for
/// `n_items`) through `f` and returns the per-chunk results **in chunk
/// order**. The workhorse under every other primitive.
pub fn par_map_chunks<R, F>(config: &ParConfig, n_items: usize, f: F) -> ParResult<Vec<R>>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    if n_items == 0 {
        return Ok(Vec::new());
    }
    let (chunk_size, n_chunks) = config.plan(n_items);
    let n_workers = config.threads.min(n_chunks);
    let chunk_range = |c: usize| c * chunk_size..((c + 1) * chunk_size).min(n_items);
    if n_workers <= 1 {
        // Same chunk plan, executed inline in chunk order.
        return catch_unwind(AssertUnwindSafe(|| {
            (0..n_chunks).map(|c| f(chunk_range(c))).collect()
        }))
        .map_err(ParError::from_payload);
    }
    let mut merged: Vec<(usize, R)> = Vec::with_capacity(n_chunks);
    let mut first_panic: Option<ParError> = None;
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..n_workers)
            .map(|w| {
                scope.spawn(move || {
                    // Static round-robin chunk assignment; results carry
                    // their chunk index so merge order never depends on
                    // scheduling.
                    let mut out = Vec::new();
                    let mut c = w;
                    while c < n_chunks {
                        out.push((c, f(chunk_range(c))));
                        c += n_workers;
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(part) => merged.extend(part),
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(ParError::from_payload(payload));
                    }
                }
            }
        }
    });
    if let Some(e) = first_panic {
        return Err(e);
    }
    merged.sort_unstable_by_key(|&(c, _)| c);
    Ok(merged.into_iter().map(|(_, r)| r).collect())
}

/// Maps every index in `0..n_items` through `f`; results are returned in
/// index order. Purely elementwise, so the output is identical to the
/// sequential map at any thread count and chunk size.
pub fn par_map<R, F>(config: &ParConfig, n_items: usize, f: F) -> ParResult<Vec<R>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let chunks = par_map_chunks(config, n_items, |range| range.map(&f).collect::<Vec<R>>())?;
    let mut out = Vec::with_capacity(n_items);
    for chunk in chunks {
        out.extend(chunk);
    }
    Ok(out)
}

/// Maps each chunk of the deterministic plan to a partial accumulator and
/// folds the partials **in chunk index order** (left to right). Returns
/// `None` only when `n_items == 0`. Because the chunk plan and the fold
/// order are both thread-count-independent, floating-point reductions
/// through this function are bit-stable across `CM_THREADS` settings.
pub fn par_map_reduce<A, M, F>(
    config: &ParConfig,
    n_items: usize,
    map: M,
    mut fold: F,
) -> ParResult<Option<A>>
where
    A: Send,
    M: Fn(Range<usize>) -> A + Sync,
    F: FnMut(A, A) -> A,
{
    let partials = par_map_chunks(config, n_items, map)?;
    let mut acc: Option<A> = None;
    for part in partials {
        acc = Some(match acc {
            Some(a) => fold(a, part),
            None => part,
        });
    }
    Ok(acc)
}

/// Splits `data` into chunks of whole `unit`-element records (rows) along
/// the deterministic plan and hands each chunk to `f` together with the
/// index of its first record. Chunks are disjoint `&mut` views, so writes
/// race-free by construction and the result is identical at any thread
/// count.
///
/// # Panics
/// Panics if `unit == 0` or `data.len()` is not a multiple of `unit`
/// (programming bugs, not data errors).
pub fn par_chunks_mut<T, F>(config: &ParConfig, data: &mut [T], unit: usize, f: F) -> ParResult<()>
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(unit > 0, "record unit must be positive");
    assert_eq!(data.len() % unit, 0, "data length {} is not a multiple of {unit}", data.len());
    let n_records = data.len() / unit;
    if n_records == 0 {
        return Ok(());
    }
    let (chunk_size, n_chunks) = config.plan(n_records);
    let n_workers = config.threads.min(n_chunks);
    if n_workers <= 1 {
        return catch_unwind(AssertUnwindSafe(|| {
            for (c, chunk) in data.chunks_mut(chunk_size * unit).enumerate() {
                f(c * chunk_size, chunk);
            }
        }))
        .map_err(ParError::from_payload);
    }
    // Round-robin the chunk slices across workers.
    let mut buckets: Vec<Vec<(usize, &mut [T])>> = (0..n_workers).map(|_| Vec::new()).collect();
    for (c, chunk) in data.chunks_mut(chunk_size * unit).enumerate() {
        buckets[c % n_workers].push((c * chunk_size, chunk));
    }
    let mut first_panic: Option<ParError> = None;
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                scope.spawn(move || {
                    for (start, chunk) in bucket {
                        f(start, chunk);
                    }
                })
            })
            .collect();
        for handle in handles {
            if let Err(payload) = handle.join() {
                if first_panic.is_none() {
                    first_panic = Some(ParError::from_payload(payload));
                }
            }
        }
    });
    match first_panic {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_thread_count_independent() {
        for n in [0usize, 1, 7, 64, 65, 1000, 1_000_000] {
            let a = ParConfig::threads(1).with_min_chunk(16).plan(n);
            let b = ParConfig::threads(8).with_min_chunk(16).plan(n);
            assert_eq!(a, b, "plan for n = {n}");
        }
    }

    #[test]
    fn n_chunks_counts_the_chunks_a_call_runs() {
        for n in [1usize, 7, 64, 65, 1000] {
            for threads in [1usize, 3] {
                let cfg = ParConfig::threads(threads).with_min_chunk(16);
                let ran = par_map_chunks(&cfg, n, |_| ()).unwrap().len();
                assert_eq!(cfg.n_chunks(n), ran, "n = {n}, threads = {threads}");
            }
        }
    }

    #[test]
    fn thread_counts_clamp_to_the_cap() {
        // Config-only: builds configurations, starts no worker.
        assert_eq!(ParConfig::threads(1_000).n_threads(), MAX_THREADS);
        assert_eq!(ParConfig::threads(usize::MAX).n_threads(), MAX_THREADS);
        assert_eq!(ParConfig::threads(MAX_THREADS).n_threads(), MAX_THREADS);
        assert_eq!(ParConfig::threads(3).n_threads(), 3);
        assert_eq!(ParConfig::threads(0).n_threads(), 1);
    }

    #[test]
    fn plan_respects_min_chunk_and_cap() {
        let cfg = ParConfig::threads(4).with_min_chunk(10);
        let (size, chunks) = cfg.plan(25);
        assert_eq!(size, 10);
        assert_eq!(chunks, 3);
        // Large inputs are capped at MAX_CHUNKS chunks.
        let (size, chunks) = ParConfig::threads(4).plan(1_000_000);
        assert_eq!(chunks, MAX_CHUNKS);
        assert_eq!(size, 1_000_000_usize.div_ceil(MAX_CHUNKS));
    }

    #[test]
    fn par_map_matches_sequential() {
        let cfg = ParConfig::threads(4).with_min_chunk(3);
        let got = par_map(&cfg, 100, |i| i * i).into_iter().flatten().collect::<Vec<_>>();
        let want: Vec<usize> = (0..100).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn par_map_chunks_preserves_chunk_order() {
        let cfg = ParConfig::threads(4).with_min_chunk(4);
        let chunks =
            par_map_chunks(&cfg, 10, |r| r.start).into_iter().flatten().collect::<Vec<_>>();
        assert_eq!(chunks, vec![0, 4, 8]);
    }

    #[test]
    fn par_map_reduce_is_bit_stable_across_thread_counts() {
        // A float sum whose result depends on grouping: identical plans and
        // in-order folds must give bit-identical totals.
        let value = |i: usize| 1.0f64 / (i as f64 + 1.0);
        let sum = |threads: usize| {
            let cfg = ParConfig::threads(threads).with_min_chunk(7);
            par_map_reduce(&cfg, 10_001, |r| r.map(value).sum::<f64>(), |a, b| a + b)
        };
        let s1 = sum(1).into_iter().flatten().next();
        let s4 = sum(4).into_iter().flatten().next();
        let s8 = sum(8).into_iter().flatten().next();
        assert_eq!(s1.map(f64::to_bits), s4.map(f64::to_bits));
        assert_eq!(s4.map(f64::to_bits), s8.map(f64::to_bits));
    }

    #[test]
    fn par_chunks_mut_fills_every_record() {
        let cfg = ParConfig::threads(3).with_min_chunk(2);
        let mut data = vec![0usize; 14 * 3];
        let r = par_chunks_mut(&cfg, &mut data, 3, |start, chunk| {
            for (k, rec) in chunk.chunks_exact_mut(3).enumerate() {
                rec.fill(start + k);
            }
        });
        assert!(r.is_ok());
        let want: Vec<usize> = (0..14).flat_map(|i| [i, i, i]).collect();
        assert_eq!(data, want);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let cfg = ParConfig::threads(4);
        assert!(par_map(&cfg, 0, |i| i).into_iter().next().is_some_and(|v| v.is_empty()));
        let folded = par_map_reduce(&cfg, 0, |r| r.len(), |a, b| a + b);
        assert!(matches!(folded, Ok(None)));
        let mut empty: Vec<u8> = Vec::new();
        assert!(par_chunks_mut(&cfg, &mut empty, 4, |_, _| {}).is_ok());
    }

    #[test]
    fn panic_surfaces_as_error_serial_and_parallel() {
        for threads in [1usize, 4] {
            let cfg = ParConfig::threads(threads).with_min_chunk(2);
            let r = par_map(&cfg, 32, |i| {
                assert!(i != 17, "seeded failure at 17");
                i
            });
            let e = match r {
                Err(e) => e,
                Ok(_) => unreachable!("index 17 must panic"),
            };
            assert!(e.message().contains("seeded failure"), "message: {}", e.message());
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn chunks_mut_rejects_ragged_data() {
        let mut data = vec![0u8; 7];
        let _ = par_chunks_mut(&ParConfig::serial(), &mut data, 3, |_, _| {});
    }
}
