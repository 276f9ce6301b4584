//! [`StableSum`]: an exact, associatively mergeable `f64` accumulator.
//!
//! Floating-point addition is not associative, so a sum computed over a
//! stream of segments and merged segment-by-segment is normally *not*
//! bit-identical to the same sum computed over the resident whole. The
//! sharded curation layer (`cm-shard`) promises exactly that identity, so
//! every float reduction that crosses a segment boundary runs through this
//! type instead of a bare `f64`.
//!
//! `StableSum` is a fixed-point superaccumulator: each finite `f64` is
//! split into its integer mantissa and exponent and added into a bank of
//! 32-bit-spaced `i128` limbs spanning the entire finite exponent range
//! (including subnormals). Integer limb addition is exact, commutative,
//! and associative, so:
//!
//! - accumulation order never changes the result;
//! - [`StableSum::merge`] of per-segment partials equals accumulating the
//!   concatenated stream, bit for bit, for **any** partition;
//! - [`StableSum::value`] renders the exact total to the nearest `f64`
//!   (round half to even), the same answer an infinitely precise sum
//!   would round to.
//!
//! [`StableSum::add_weighted`] adds `count` copies of a value as one
//! integer deposit, bit-identical to `count` calls of [`StableSum::add`];
//! the folded label model uses it to weigh a vote pattern by its rows.
//!
//! Non-finite inputs make the accumulator sticky: the rendered value
//! follows IEEE addition over the non-finite inputs alone (`+∞` stays
//! `+∞`, opposing infinities or any NaN yield NaN), matching what a
//! sequential `f64` sum converges to once an infinity or NaN enters it.

/// Number of `i128` limbs. Limb `k` holds a signed integer scaled by
/// `2^(32k - 1074)`; positions 0..=2045 receive direct mantissa deposits
/// (the full finite `f64` range) and the upper limbs absorb carries.
const LIMBS: usize = 70;

/// Bits per limb position step.
const LIMB_BITS: u32 = 32;

/// Unnormalized deposits allowed before a carry-propagation pass. Each
/// deposit adds at most `2^85` in magnitude to one limb, so `2^38`
/// deposits keep every limb below `2^(85 + 38) = 2^123`, and merging two
/// saturated accumulators stays below `2^124` — comfortably inside
/// `i128`. A weighted deposit of `count < 2^32` counts as `count`
/// deposits; it can overshoot the budget by under `2^32` before the
/// carry pass it triggers, still below `2^124`.
const MAX_PENDING: u64 = 1 << 38;

/// An exact `f64` accumulator with associative merge. See the module
/// docs; construct with [`StableSum::new`], feed with [`StableSum::add`],
/// combine partials with [`StableSum::merge`], and render with
/// [`StableSum::value`].
#[derive(Debug, Clone)]
pub struct StableSum {
    limbs: Vec<i128>,
    pending: u64,
    /// IEEE running sum of the non-finite inputs; meaningful only when
    /// `has_special` is set.
    special: f64,
    has_special: bool,
}

impl Default for StableSum {
    fn default() -> Self {
        Self::new()
    }
}

impl StableSum {
    /// An empty accumulator (renders `0.0`).
    pub fn new() -> Self {
        Self { limbs: vec![0; LIMBS], pending: 0, special: 0.0, has_special: false }
    }

    /// An accumulator holding the values of `iter`.
    pub fn of(iter: impl IntoIterator<Item = f64>) -> Self {
        let mut s = Self::new();
        for x in iter {
            s.add(x);
        }
        s
    }

    /// Adds one value. Exact for every finite input; non-finite inputs
    /// switch the accumulator to sticky IEEE semantics.
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() {
            self.special = if self.has_special { self.special + x } else { x };
            self.has_special = true;
            return;
        }
        if x == 0.0 {
            return;
        }
        let (neg, mantissa, limb, shift) = split(x);
        let deposit = (mantissa as i128) << shift;
        self.limbs[limb] += if neg { -deposit } else { deposit };
        self.pending += 1;
        if self.pending >= MAX_PENDING {
            self.carry_propagate();
        }
    }

    /// Adds `count` copies of one value in a single step, bit-identical
    /// to `count` calls of [`StableSum::add`]: the mantissa times the count
    /// is still an exact integer deposit into one limb (below `2^117`), and
    /// the carry budget is charged `count` deposits. Repeating a non-finite
    /// value settles after two IEEE additions, so at most two are replayed.
    pub fn add_weighted(&mut self, x: f64, count: u32) {
        if count == 0 {
            return;
        }
        if !x.is_finite() {
            for _ in 0..count.min(2) {
                self.add(x);
            }
            return;
        }
        if x == 0.0 {
            return;
        }
        let (neg, mantissa, limb, shift) = split(x);
        let deposit = (i128::from(mantissa) * i128::from(count)) << shift;
        self.limbs[limb] += if neg { -deposit } else { deposit };
        self.pending += u64::from(count);
        if self.pending >= MAX_PENDING {
            self.carry_propagate();
        }
    }

    /// Folds another accumulator into this one: exact limb-wise integer
    /// addition, so `merge` is associative and commutative and merging
    /// per-segment partials reproduces the whole-stream accumulation bit
    /// for bit.
    pub fn merge(&mut self, other: &StableSum) {
        if other.has_special {
            self.special =
                if self.has_special { self.special + other.special } else { other.special };
            self.has_special = true;
        }
        for (a, b) in self.limbs.iter_mut().zip(&other.limbs) {
            *a += *b;
        }
        self.pending = self.pending.saturating_add(other.pending);
        if self.pending >= MAX_PENDING {
            self.carry_propagate();
        }
    }

    /// Renders the exact total, correctly rounded to the nearest `f64`
    /// (ties to even). Totals beyond the finite range overflow to
    /// infinity; a sticky non-finite state renders its IEEE combination.
    pub fn value(&self) -> f64 {
        if self.has_special {
            return self.special;
        }
        let mut limbs = [0i128; LIMBS];
        limbs.copy_from_slice(&self.limbs);
        propagate(&mut limbs);
        let mut negative = false;
        if limbs[LIMBS - 1] < 0 {
            negative = true;
            for l in limbs.iter_mut() {
                *l = -*l;
            }
            propagate(&mut limbs);
        }
        let Some(top) = limbs.iter().rposition(|&l| l != 0) else {
            return 0.0;
        };
        debug_assert!(limbs[top] > 0 && limbs[top] < (1i128 << LIMB_BITS), "unnormalized limb");
        // A 128-bit window over the top (up to) four limbs holds the
        // mantissa, guard, and most of the sticky information.
        let low = top.saturating_sub(3);
        let mut window: u128 = 0;
        for k in (low..=top).rev() {
            window = (window << LIMB_BITS) | self_low_bits(limbs[k]);
        }
        let sticky_below = limbs[..low].iter().any(|&l| l != 0);
        let window_msb = (127 - window.leading_zeros()) as usize;
        let msb_position = low * LIMB_BITS as usize + window_msb;
        let exponent = msb_position as i64 - 1074;
        // Normal results keep 53 significant bits; subnormal results keep
        // however many bits sit at or above position 0 (all of them — the
        // window always reaches position 0 in that regime, so the render
        // is exact).
        let keep = if exponent >= -1022 { 53 } else { (exponent + 1075) as usize };
        let shift = window_msb + 1 - keep;
        let mut mantissa = (window >> shift) as u64;
        let round_bit = shift > 0 && (window >> (shift - 1)) & 1 == 1;
        let sticky = sticky_below || (shift > 1 && window & ((1u128 << (shift - 1)) - 1) != 0);
        if round_bit && (sticky || mantissa & 1 == 1) {
            mantissa += 1;
        }
        let magnitude = if keep < 53 {
            // Subnormal scale: value = mantissa * 2^-1074, and the bit
            // pattern of a subnormal (or of 2^-1022 exactly, when the
            // mantissa reaches 2^52) *is* the mantissa.
            f64::from_bits(mantissa)
        } else {
            let mut exponent = exponent;
            if mantissa >> 53 != 0 {
                mantissa >>= 1;
                exponent += 1;
            }
            if exponent > 1023 {
                f64::INFINITY
            } else {
                let biased = (exponent + 1023) as u64;
                f64::from_bits((biased << 52) | (mantissa & ((1u64 << 52) - 1)))
            }
        };
        if negative {
            -magnitude
        } else {
            magnitude
        }
    }
}

/// Splits a finite nonzero `x` into `(negative, mantissa, limb, shift)`
/// with `|x| = mantissa * 2^(32 * limb + shift - 1074)`.
fn split(x: f64) -> (bool, u64, usize, usize) {
    let bits = x.to_bits();
    let neg = (bits >> 63) != 0;
    let biased = ((bits >> 52) & 0x7FF) as i32;
    let frac = bits & ((1u64 << 52) - 1);
    // x = mantissa * 2^(position - 1074), position in 0..=2045.
    let (mantissa, position) =
        if biased == 0 { (frac, 0) } else { (frac | (1 << 52), biased as usize - 1) };
    (neg, mantissa, position / LIMB_BITS as usize, position % LIMB_BITS as usize)
}

/// The low 32 bits of a normalized (non-negative, `< 2^32`) limb.
fn self_low_bits(limb: i128) -> u128 {
    debug_assert!((0..(1i128 << LIMB_BITS)).contains(&limb));
    limb as u128
}

/// Carry-propagates so every limb below the top lands in `[0, 2^32)`;
/// the top limb keeps the (signed) overflow and thereby the sign of the
/// whole number.
fn propagate(limbs: &mut [i128]) {
    for k in 0..limbs.len() - 1 {
        let carry = limbs[k] >> LIMB_BITS;
        limbs[k] -= carry << LIMB_BITS;
        limbs[k + 1] += carry;
    }
}

impl StableSum {
    fn carry_propagate(&mut self) {
        propagate(&mut self.limbs);
        self.pending = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, StdRng};

    fn random_values(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let magnitude = rng.gen_range(-300.0..300.0);
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                sign * rng.gen_range(0.5..2.0) * 10f64.powf(magnitude / 10.0)
            })
            .collect()
    }

    #[test]
    fn exact_on_representable_integers() {
        let mut s = StableSum::new();
        for x in [1.0, 2.0, 3.0, -4.0, 1048576.0] {
            s.add(x);
        }
        assert_eq!(s.value(), 1048578.0);
    }

    #[test]
    fn cancellation_is_exact() {
        // 1e16 + 1 - 1e16 loses the 1 in plain f64 arithmetic.
        assert_eq!((1e16 + 1.0) - 1e16, 0.0);
        let s = StableSum::of([1e16, 1.0, -1e16]);
        assert_eq!(s.value(), 1.0);
        let s = StableSum::of([1e300, 2.5, -1e300, 1e-300, -1e-300]);
        assert_eq!(s.value(), 2.5);
    }

    #[test]
    fn permutation_invariant() {
        let values = random_values(7, 500);
        let forward = StableSum::of(values.iter().copied());
        let backward = StableSum::of(values.iter().rev().copied());
        let mut shuffled = values.clone();
        let mut rng = StdRng::seed_from_u64(9);
        use crate::rng::SliceRandom;
        shuffled.shuffle(&mut rng);
        let shuffled = StableSum::of(shuffled);
        assert_eq!(forward.value().to_bits(), backward.value().to_bits());
        assert_eq!(forward.value().to_bits(), shuffled.value().to_bits());
    }

    #[test]
    fn merge_of_any_split_matches_whole() {
        let values = random_values(11, 400);
        let whole = StableSum::of(values.iter().copied());
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..25 {
            let mut cuts: Vec<usize> = (0..4).map(|_| rng.gen_range(0..values.len())).collect();
            cuts.push(0);
            cuts.push(values.len());
            cuts.sort_unstable();
            let mut merged = StableSum::new();
            for pair in cuts.windows(2) {
                let part = StableSum::of(values[pair[0]..pair[1]].iter().copied());
                merged.merge(&part);
            }
            assert_eq!(merged.value().to_bits(), whole.value().to_bits());
        }
    }

    #[test]
    fn rounds_half_to_even() {
        // 1 + 2^-53 sits exactly between 1.0 and the next float: ties to
        // the even mantissa, i.e. 1.0.
        let s = StableSum::of([1.0, 2f64.powi(-53)]);
        assert_eq!(s.value(), 1.0);
        // Any sticky bit below the guard breaks the tie upward.
        let s = StableSum::of([1.0, 2f64.powi(-53), 2f64.powi(-105)]);
        assert_eq!(s.value(), 1.0 + 2f64.powi(-52));
        // 1 + 3 * 2^-54 rounds to the nearest (upper) neighbour.
        let s = StableSum::of([1.0, 2f64.powi(-54), 2f64.powi(-54), 2f64.powi(-54)]);
        assert_eq!(s.value(), 1.0 + 2f64.powi(-52));
    }

    #[test]
    fn subnormal_and_overflow_ranges() {
        let tiny = f64::from_bits(1); // smallest subnormal, 2^-1074
        let s = StableSum::of([tiny, tiny, tiny]);
        assert_eq!(s.value(), 3.0 * tiny);
        let s = StableSum::of(vec![tiny; 4096]);
        assert_eq!(s.value(), 4096.0 * tiny);
        // Crossing from subnormal into normal territory.
        let s = StableSum::of([f64::MIN_POSITIVE, -tiny]);
        assert_eq!(s.value(), f64::MIN_POSITIVE - tiny);
        // Exceeding f64::MAX overflows to infinity, like the IEEE sum.
        let s = StableSum::of([f64::MAX, f64::MAX]);
        assert_eq!(s.value(), f64::INFINITY);
        let s = StableSum::of([f64::MAX, f64::MAX, -f64::MAX]);
        assert_eq!(s.value(), f64::MAX);
    }

    #[test]
    fn non_finite_inputs_are_sticky() {
        let s = StableSum::of([1.0, f64::INFINITY, 2.0]);
        assert_eq!(s.value(), f64::INFINITY);
        let s = StableSum::of([f64::INFINITY, f64::NEG_INFINITY]);
        assert!(s.value().is_nan());
        let s = StableSum::of([f64::NAN, 1.0]);
        assert!(s.value().is_nan());
        let mut a = StableSum::of([1.0]);
        let b = StableSum::of([f64::NEG_INFINITY]);
        a.merge(&b);
        assert_eq!(a.value(), f64::NEG_INFINITY);
    }

    #[test]
    fn matches_naive_sum_on_exact_cases() {
        // Sums of same-sign values with small dynamic range stay exact in
        // plain f64 arithmetic only by luck; verify against an exact
        // integer-scaled reference instead.
        let values: Vec<f64> = (1..=1000).map(|i| i as f64 * 0.25).collect();
        let s = StableSum::of(values.iter().copied());
        assert_eq!(s.value(), (1000 * 1001 / 2) as f64 * 0.25);
    }

    /// A finite `f64` drawn over the whole bit space: every exponent,
    /// both signs, subnormals included.
    fn random_finite(rng: &mut StdRng) -> f64 {
        loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                return x;
            }
        }
    }

    /// `count` copies of `x`, added one power of two at a time: `x * 2^k`
    /// is exact whenever it stays finite, so this is the same exact total
    /// as `count` plain adds, reachable for counts near `u32::MAX`.
    fn add_by_doubling(s: &mut StableSum, x: f64, count: u32) {
        for k in 0..32 {
            if count >> k & 1 == 1 {
                s.add(x * 2f64.powi(k));
            }
        }
    }

    #[test]
    fn add_weighted_equals_repeated_add() {
        let mut rng = StdRng::seed_from_u64(21);
        let tiny = f64::from_bits(1);
        let mut values: Vec<f64> = (0..200).map(|_| random_finite(&mut rng)).collect();
        values.extend([tiny, -tiny, f64::MIN_POSITIVE, -f64::MAX, f64::MAX, 0.0, -0.0, 1.0]);
        for &x in &values {
            for count in [0u32, 1, 2, 3, 7, 64, 257] {
                let mut repeated = StableSum::new();
                for _ in 0..count {
                    repeated.add(x);
                }
                let mut weighted = StableSum::new();
                weighted.add_weighted(x, count);
                assert_eq!(
                    weighted.value().to_bits(),
                    repeated.value().to_bits(),
                    "{x:e} x {count}"
                );
            }
        }
        // Interleaved with plain adds, in one accumulator.
        let mut repeated = StableSum::new();
        let mut weighted = StableSum::new();
        for &x in &values {
            let count = rng.gen_range(0u32..40);
            for _ in 0..count {
                repeated.add(x);
            }
            weighted.add_weighted(x, count);
            repeated.add(x / 3.0);
            weighted.add(x / 3.0);
        }
        assert_eq!(weighted.value().to_bits(), repeated.value().to_bits());
    }

    #[test]
    fn add_weighted_handles_counts_up_to_u32_max() {
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..300 {
            // Keep x * 2^31 finite so the doubling reference stays exact.
            let x = loop {
                let x = random_finite(&mut rng);
                if (x * 2f64.powi(31)).is_finite() {
                    break x;
                }
            };
            for count in [u32::MAX, u32::MAX - 1, 1 << 31, rng.gen_range(1u32..=u32::MAX)] {
                let mut reference = StableSum::new();
                add_by_doubling(&mut reference, x, count);
                let mut weighted = StableSum::new();
                weighted.add_weighted(x, count);
                assert_eq!(
                    weighted.value().to_bits(),
                    reference.value().to_bits(),
                    "{x:e} x {count}"
                );
            }
        }
    }

    #[test]
    fn add_weighted_runs_cross_the_carry_budget() {
        // A full mantissa at the top of a limb (shift 31) times u32::MAX
        // deposits almost 2^116, so 2^11 of them would overflow an i128
        // limb: only charging the carry budget `count` deposits per call
        // keeps 5000 of them exact (debug builds trap on overflow). Each
        // maximal call is 2^32 deposits, so the run crosses the 2^38
        // budget dozens of times.
        let top = f64::from_bits((1024u64 << 52) | ((1u64 << 52) - 1));
        let mut rng = StdRng::seed_from_u64(23);
        let mut weighted = StableSum::new();
        let mut reference = StableSum::new();
        for i in 0..5000 {
            let (x, count) = match i % 4 {
                3 => (-top / 3.0, rng.gen_range(1u32..=u32::MAX)),
                _ => (top, u32::MAX),
            };
            weighted.add_weighted(x, count);
            add_by_doubling(&mut reference, x, count);
        }
        assert_eq!(weighted.value().to_bits(), reference.value().to_bits());
    }

    #[test]
    fn add_weighted_partials_merge_exactly() {
        let mut rng = StdRng::seed_from_u64(24);
        let terms: Vec<(f64, u32)> = (0..300)
            .map(|_| (random_finite(&mut rng) * 2f64.powi(-40), rng.gen_range(0u32..=u32::MAX)))
            .collect();
        let mut whole = StableSum::new();
        for &(x, c) in &terms {
            whole.add_weighted(x, c);
        }
        for cuts in [[1usize, 2], [100, 101], [37, 250]] {
            let mut merged = StableSum::new();
            for range in [0..cuts[0], cuts[0]..cuts[1], cuts[1]..terms.len()] {
                let mut part = StableSum::new();
                for &(x, c) in &terms[range] {
                    add_by_doubling(&mut part, x, c);
                }
                merged.merge(&part);
            }
            assert_eq!(merged.value().to_bits(), whole.value().to_bits(), "cuts {cuts:?}");
        }
    }

    #[test]
    fn add_weighted_non_finite_matches_repeated_add() {
        for x in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            for count in [0u32, 1, 2, 5, u32::MAX] {
                let mut repeated = StableSum::of([1.0]);
                for _ in 0..count.min(5) {
                    repeated.add(x);
                }
                let mut weighted = StableSum::of([1.0]);
                weighted.add_weighted(x, count);
                let (a, b) = (weighted.value(), repeated.value());
                assert!(a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()), "{x} x {count}");
            }
        }
        let mut s = StableSum::of([f64::INFINITY]);
        s.add_weighted(f64::NEG_INFINITY, 3);
        assert!(s.value().is_nan());
    }

    #[test]
    fn empty_renders_zero() {
        assert_eq!(StableSum::new().value(), 0.0);
        assert_eq!(StableSum::of([0.0, -0.0]).value(), 0.0);
    }
}
