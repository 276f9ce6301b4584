//! Seeded property-test loops for the parallel substrate (the hermetic
//! stand-in for proptest): random lengths, chunk sizes, and thread counts
//! against sequential oracles, plus panic-robustness and env-override
//! behaviour.

use std::sync::Mutex;

use cm_par::{par_chunks_mut, par_map, par_map_chunks, par_map_reduce, ParConfig, THREADS_ENV};

/// splitmix64 — tiny in-tree generator so this crate stays dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

#[test]
fn par_map_equals_sequential_map_over_random_shapes() {
    let mut rng = Rng(0xC0FFEE);
    for _ in 0..60 {
        let n = rng.below(5_000) as usize;
        let min_chunk = rng.below(512) as usize + 1;
        let threads = rng.below(8) as usize + 1;
        let salt = rng.next();
        let cfg = ParConfig::threads(threads).with_min_chunk(min_chunk);
        let f = |i: usize| (i as u64).wrapping_mul(salt).rotate_left(11);
        let got = par_map(&cfg, n, f).unwrap();
        let want: Vec<u64> = (0..n).map(f).collect();
        assert_eq!(got, want, "n = {n}, min_chunk = {min_chunk}, threads = {threads}");
    }
}

#[test]
fn float_reductions_are_bit_stable_over_random_shapes() {
    let mut rng = Rng(0xBEEF);
    for _ in 0..40 {
        let n = rng.below(20_000) as usize;
        let min_chunk = rng.below(700) as usize + 1;
        let salt = rng.next() | 1;
        let value = move |i: usize| {
            let x = (i as u64).wrapping_mul(salt) >> 11;
            x as f64 / (1u64 << 53) as f64 - 0.5
        };
        let sum = |threads: usize| {
            let cfg = ParConfig::threads(threads).with_min_chunk(min_chunk);
            par_map_reduce(&cfg, n, |r| r.map(value).sum::<f64>(), |a, b| a + b).unwrap()
        };
        let s1 = sum(1).map(f64::to_bits);
        for threads in [2usize, 3, 5, 8] {
            assert_eq!(
                sum(threads).map(f64::to_bits),
                s1,
                "n = {n}, min_chunk = {min_chunk}, threads = {threads}"
            );
        }
    }
}

#[test]
fn chunk_results_arrive_in_index_order() {
    let mut rng = Rng(0xFACADE);
    for _ in 0..40 {
        let n = rng.below(4_000) as usize;
        let min_chunk = rng.below(200) as usize + 1;
        let threads = rng.below(8) as usize + 1;
        let cfg = ParConfig::threads(threads).with_min_chunk(min_chunk);
        let starts = par_map_chunks(&cfg, n, |r| (r.start, r.end)).unwrap();
        // Chunks tile 0..n in order with no gaps.
        let mut expect_start = 0usize;
        for &(start, end) in &starts {
            assert_eq!(start, expect_start);
            assert!(end > start);
            expect_start = end;
        }
        assert_eq!(expect_start, n);
    }
}

#[test]
fn chunks_mut_equals_sequential_fill_over_random_shapes() {
    let mut rng = Rng(0xA11CE);
    for _ in 0..40 {
        let records = rng.below(3_000) as usize;
        let unit = rng.below(7) as usize + 1;
        let threads = rng.below(8) as usize + 1;
        let min_chunk = rng.below(300) as usize + 1;
        let salt = rng.next();
        let cfg = ParConfig::threads(threads).with_min_chunk(min_chunk);
        let mut got = vec![0u64; records * unit];
        par_chunks_mut(&cfg, &mut got, unit, |start, chunk| {
            for (k, rec) in chunk.chunks_exact_mut(unit).enumerate() {
                let row = start + k;
                for (j, cell) in rec.iter_mut().enumerate() {
                    *cell = (row as u64).wrapping_mul(salt) ^ j as u64;
                }
            }
        })
        .unwrap();
        let mut want = vec![0u64; records * unit];
        for row in 0..records {
            for j in 0..unit {
                want[row * unit + j] = (row as u64).wrapping_mul(salt) ^ j as u64;
            }
        }
        assert_eq!(got, want, "records = {records}, unit = {unit}, threads = {threads}");
    }
}

#[test]
fn panicking_closure_errors_and_substrate_survives_for_reuse() {
    for threads in [1usize, 2, 4, 8] {
        let cfg = ParConfig::threads(threads).with_min_chunk(8);
        let err = par_map(&cfg, 256, |i| {
            assert!(i != 97, "boom at 97");
            i
        })
        .unwrap_err();
        assert!(err.message().contains("boom at 97"), "got: {}", err.message());

        // The caller thread is alive (no abort) and the next operation on
        // the same configuration succeeds: nothing is poisoned.
        let ok = par_map(&cfg, 256, |i| i + 1).unwrap();
        assert_eq!(ok.len(), 256);
        assert_eq!(ok[97], 98);

        // Errors also convert to the std error vocabulary.
        let dyn_err: Box<dyn std::error::Error> =
            Box::new(par_map(&cfg, 4, |_| -> usize { panic!("typed payload") }).unwrap_err());
        assert!(dyn_err.to_string().contains("typed payload"));
    }
}

#[test]
fn chunks_mut_panic_is_reported_not_aborted() {
    let cfg = ParConfig::threads(4).with_min_chunk(1);
    let mut data = vec![0u8; 64];
    let err = par_chunks_mut(&cfg, &mut data, 1, |start, _| {
        assert!(start != 32, "bad record 32");
    })
    .unwrap_err();
    assert!(err.message().contains("bad record 32"));
    // And a follow-up call over the same buffer still works.
    par_chunks_mut(&cfg, &mut data, 1, |start, chunk| chunk.fill(start as u8)).unwrap();
    assert_eq!(data[63], 63);
}

/// Serializes the env-mutating tests below (tests in one binary run on
/// parallel threads).
static ENV_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn cm_threads_env_override_is_respected() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let saved = std::env::var(THREADS_ENV).ok();
    for (raw, want) in [("1", 1usize), ("4", 4), ("0", 1), ("999", 8), (" 2 ", 2)] {
        std::env::set_var(THREADS_ENV, raw);
        assert_eq!(ParConfig::from_env().n_threads(), want, "CM_THREADS = {raw:?}");
    }
    std::env::set_var(THREADS_ENV, "not-a-number");
    assert!(ParConfig::from_env().n_threads() >= 1);
    match saved {
        Some(v) => std::env::set_var(THREADS_ENV, v),
        None => std::env::remove_var(THREADS_ENV),
    }
}
