//! Pairwise similarity over the common feature space (paper §4.4,
//! Algorithm 1).
//!
//! Algorithm 1 as printed accumulates a numeric *distance* (any norm of the
//! difference) and a categorical Jaccard *similarity* into one weight, with
//! the text noting "each feature's contribution is normalized in lines 5 and
//! 7, which we omit for simplicity." We provide both:
//!
//! - [`algorithm1_weight`] — the literal pseudocode, for fidelity and tests;
//! - [`normalized_similarity`] — the normalized form used by the propagation
//!   graph: each shared, present feature contributes a value in `[0, 1]`
//!   (numeric via a scaled RBF of the absolute difference, categorical via
//!   Jaccard, embeddings via shifted cosine), averaged over contributing
//!   features.

use cm_linalg::StableSum;

use crate::frozen::{Bitmap, FrozenColumn, FrozenTable};
use crate::table::FeatureTable;
use crate::value::FeatureKind;

/// Configuration for [`normalized_similarity`].
#[derive(Debug, Clone)]
pub struct SimilarityConfig {
    /// Per-numeric-feature scale: `sim = exp(-|a - b| / scale)`. Defaults to
    /// 1.0 per feature; fit from data with [`SimilarityConfig::fit_scales`].
    pub numeric_scales: Vec<(usize, f64)>,
    /// Columns to compare. Pairs with no shared present feature get weight 0.
    pub columns: Vec<usize>,
}

impl SimilarityConfig {
    /// Uses the given columns with unit numeric scales.
    pub fn uniform(columns: Vec<usize>) -> Self {
        Self { numeric_scales: Vec::new(), columns }
    }

    /// Fits per-column numeric scales to the mean absolute deviation of each
    /// numeric column in `table`, so one wide-ranged statistic (e.g. view
    /// counts) cannot dominate the weight — the normalization Algorithm 1
    /// alludes to.
    pub fn fit_scales(self, table: &FeatureTable) -> Self {
        self.fit_scales_frozen(&FrozenTable::freeze(table))
    }

    /// [`SimilarityConfig::fit_scales`] over an existing frozen view.
    ///
    /// Runs both passes through the mergeable [`ScaleAccumulator`] /
    /// [`DeviationAccumulator`] pair, so the resident fit is *defined* as
    /// the single-segment case of the segmented fit: the accumulators sum
    /// exactly (via [`StableSum`]), which makes the fitted scales
    /// independent of row order and of any segmentation of the table.
    pub fn fit_scales_frozen(mut self, frozen: &FrozenTable<'_>) -> Self {
        let mut acc = ScaleAccumulator::new(&self.columns);
        acc.observe(frozen);
        let mut dev = acc.finish_means();
        dev.observe(frozen);
        self.numeric_scales = dev.finish();
        self
    }

    fn scale_for(&self, col: usize) -> f64 {
        self.numeric_scales.iter().find(|(c, _)| *c == col).map_or(1.0, |(_, s)| *s)
    }
}

/// Phase-1 accumulator for [`SimilarityConfig::fit_scales`]: per-column
/// exact sums and presence counts over any number of table segments.
///
/// The accumulator is an explicit associative-merge type: feeding it the
/// segments of a table in any order — or merging independently built
/// per-segment accumulators in any grouping — yields bit-identical means,
/// because the underlying [`StableSum`]s are exact. Columns that are
/// out of range, non-numeric, or never present contribute no scale,
/// matching the resident fit.
#[derive(Debug, Clone)]
pub struct ScaleAccumulator {
    columns: Vec<usize>,
    sums: Vec<StableSum>,
    counts: Vec<u64>,
}

impl ScaleAccumulator {
    /// An empty accumulator over the configured column list (in config
    /// order; duplicates keep their own slots).
    pub fn new(columns: &[usize]) -> Self {
        Self {
            columns: columns.to_vec(),
            sums: columns.iter().map(|_| StableSum::new()).collect(),
            counts: vec![0; columns.len()],
        }
    }

    /// Accumulates one table segment. All segments must share a schema.
    pub fn observe(&mut self, frozen: &FrozenTable<'_>) {
        let schema = frozen.table().schema();
        for (slot, &col) in self.columns.iter().enumerate() {
            // Out-of-range columns are skipped here; `cm-check` validates
            // column lists against the schema before execution.
            if schema.def(col).map(|d| d.kind) != Some(FeatureKind::Numeric) {
                continue;
            }
            let FrozenColumn::Numeric { values, present } = frozen.col(col) else {
                continue;
            };
            for (r, &v) in values.iter().enumerate() {
                if present.get(r) {
                    self.sums[slot].add(v);
                    self.counts[slot] += 1;
                }
            }
        }
    }

    /// Folds another accumulator (built over the same column list) into
    /// this one. Exact, hence associative and commutative.
    ///
    /// # Panics
    /// Panics if the column lists differ.
    pub fn merge(&mut self, other: &ScaleAccumulator) {
        assert_eq!(self.columns, other.columns, "scale accumulators cover different columns");
        for (a, b) in self.sums.iter_mut().zip(&other.sums) {
            a.merge(b);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
    }

    /// Closes phase 1: renders each covered column's mean and returns the
    /// phase-2 deviation accumulator. Clone the result to fan phase 2 out
    /// over segments, then [`DeviationAccumulator::merge`] the clones.
    pub fn finish_means(self) -> DeviationAccumulator {
        let means = self
            .sums
            .iter()
            .zip(&self.counts)
            .map(|(s, &n)| if n == 0 { 0.0 } else { s.value() / n as f64 })
            .collect();
        DeviationAccumulator {
            columns: self.columns.clone(),
            means,
            counts: self.counts,
            devs: self.columns.iter().map(|_| StableSum::new()).collect(),
        }
    }
}

/// Phase-2 accumulator for [`SimilarityConfig::fit_scales`]: exact sums
/// of absolute deviations from the phase-1 means. Same merge contract as
/// [`ScaleAccumulator`].
#[derive(Debug, Clone)]
pub struct DeviationAccumulator {
    columns: Vec<usize>,
    means: Vec<f64>,
    counts: Vec<u64>,
    devs: Vec<StableSum>,
}

impl DeviationAccumulator {
    /// Accumulates one table segment.
    pub fn observe(&mut self, frozen: &FrozenTable<'_>) {
        let schema = frozen.table().schema();
        for (slot, &col) in self.columns.iter().enumerate() {
            if self.counts[slot] == 0 {
                continue;
            }
            if schema.def(col).map(|d| d.kind) != Some(FeatureKind::Numeric) {
                continue;
            }
            let FrozenColumn::Numeric { values, present } = frozen.col(col) else {
                continue;
            };
            let mean = self.means[slot];
            for (r, &v) in values.iter().enumerate() {
                if present.get(r) {
                    self.devs[slot].add((v - mean).abs());
                }
            }
        }
    }

    /// Folds another phase-2 accumulator (a clone of the same
    /// [`ScaleAccumulator::finish_means`] result) into this one.
    ///
    /// # Panics
    /// Panics if the column lists or means differ.
    pub fn merge(&mut self, other: &DeviationAccumulator) {
        assert_eq!(self.columns, other.columns, "deviation accumulators cover different columns");
        let same_means =
            self.means.iter().zip(&other.means).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same_means, "deviation accumulators carry different phase-1 means");
        for (a, b) in self.devs.iter_mut().zip(&other.devs) {
            a.merge(b);
        }
    }

    /// Renders the fitted `(column, scale)` pairs: MAD floored at `1e-9`,
    /// one entry per covered numeric column in config order.
    pub fn finish(self) -> Vec<(usize, f64)> {
        self.columns
            .iter()
            .zip(self.devs.iter().zip(&self.counts))
            .filter(|(_, (_, &n))| n > 0)
            .map(|(&col, (dev, &n))| (col, (dev.value() / n as f64).max(1e-9)))
            .collect()
    }
}

/// The literal Algorithm 1 weight: sum of `|a - b|` over shared numeric
/// features and Jaccard over shared categorical features. Embedding and
/// missing features are skipped (the paper's F is "the set of all features
/// instantiated by F_i, F_j").
pub fn algorithm1_weight(
    a: (&FeatureTable, usize),
    b: (&FeatureTable, usize),
    columns: &[usize],
) -> f64 {
    let (ta, ra) = a;
    let (tb, rb) = b;
    debug_assert_eq!(ta.schema().len(), tb.schema().len(), "schema mismatch");
    let mut w = 0.0;
    for &col in columns {
        let Some(def) = ta.schema().def(col) else {
            // Out-of-range columns are skipped; `cm-check` validates column
            // lists against the schema before execution.
            continue;
        };
        match def.kind {
            FeatureKind::Numeric => {
                if let (Some(x), Some(y)) = (ta.numeric(ra, col), tb.numeric(rb, col)) {
                    w += (x - y).abs();
                }
            }
            FeatureKind::Categorical => {
                if let (Some(x), Some(y)) = (ta.categorical(ra, col), tb.categorical(rb, col)) {
                    w += jaccard_ids(x, y);
                }
            }
            FeatureKind::Embedding { .. } => {}
        }
    }
    w
}

/// Normalized similarity in `[0, 1]`: the mean per-feature similarity over
/// features present in *both* rows. Returns 0.0 when no feature is shared.
pub fn normalized_similarity(
    a: (&FeatureTable, usize),
    b: (&FeatureTable, usize),
    config: &SimilarityConfig,
) -> f64 {
    let (ta, ra) = a;
    let (tb, rb) = b;
    debug_assert_eq!(ta.schema().len(), tb.schema().len(), "schema mismatch");
    let mut total = 0.0;
    let mut count = 0usize;
    for &col in &config.columns {
        let Some(def) = ta.schema().def(col) else {
            continue;
        };
        match def.kind {
            FeatureKind::Numeric => {
                if let (Some(x), Some(y)) = (ta.numeric(ra, col), tb.numeric(rb, col)) {
                    let scale = config.scale_for(col);
                    total += (-(x - y).abs() / scale).exp();
                    count += 1;
                }
            }
            FeatureKind::Categorical => {
                if let (Some(x), Some(y)) = (ta.categorical(ra, col), tb.categorical(rb, col)) {
                    total += jaccard_ids(x, y);
                    count += 1;
                }
            }
            FeatureKind::Embedding { .. } => {
                if let (Some(x), Some(y)) = (ta.embedding(ra, col), tb.embedding(rb, col)) {
                    total += 0.5 * (cosine(x, y) + 1.0);
                    count += 1;
                }
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Vocabulary bound under which a categorical column compiles to per-row
/// `u64` masks (Jaccard becomes three popcounts).
const CAT_MASK_BITS: u32 = 64;

/// Mask-column Jaccard by `(intersection, union)`: entry
/// `inter * 65 + union` is `inter as f64 / union as f64`, or 1.0 at union
/// 0 — the quotients [`jaccard_ids`] divides out, computed once.
static MASK_JACCARD: [f64; 65 * 65] = mask_jaccard_table();

const fn mask_jaccard_table() -> [f64; 65 * 65] {
    let mut table = [0.0; 65 * 65];
    let mut inter = 0;
    while inter <= 64 {
        let mut union = inter;
        while union <= 64 {
            table[inter * 65 + union] = if union == 0 { 1.0 } else { inter as f64 / union as f64 };
            union += 1;
        }
        inter += 1;
    }
    table
}

/// The signature bit of category id `id` in a slice column: its
/// multiplicative hash down to 6 bits. Rows whose signatures are disjoint
/// share no id.
fn slice_signature_bit(id: u32) -> u64 {
    1u64 << (u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
}

/// One column of a compiled [`PairKernel`] plan: resolved kind, borrowed
/// frozen storage, and any per-column precomputation.
enum ColKernel<'a> {
    Numeric {
        values: &'a [f64],
        scale: f64,
    },
    /// Small-vocabulary categorical column: each row's sorted id set packed
    /// into one `u64`. Intersection and union sizes come from popcounts —
    /// the same integers the sorted-slice merge produces — and index
    /// [`MASK_JACCARD`], which holds the same final division. The CSR ids
    /// stay borrowed for pairs against a segment whose column compiled to
    /// `CatSlice`.
    CatMask {
        masks: Vec<u64>,
        offsets: &'a [u32],
        ids: &'a [u32],
    },
    /// General categorical column: sorted-slice Jaccard over the CSR ids,
    /// behind one hashed signature word per row (see
    /// [`slice_signature_bit`]). Disjoint signatures mean an empty
    /// intersection, which needs no merge.
    CatSlice {
        offsets: &'a [u32],
        ids: &'a [u32],
        signatures: Vec<u64>,
    },
    Embedding {
        dim: usize,
        data: &'a [f32],
        norms: Vec<f64>,
    },
}

/// A fused pair-weight kernel: [`normalized_similarity`] compiled against a
/// [`FrozenTable`].
///
/// Compilation resolves, once per table instead of once per pair:
///
/// - the kind of every configured column (dropping out-of-range ones) and
///   the numeric scale, so the per-pair schema walk and the linear search
///   through `numeric_scales` disappear;
/// - direct borrows of the frozen column storage;
/// - one **presence word** per row — bit `c` set when plan column `c` is
///   present — so the per-pair presence test for all columns is a single
///   `AND`, the shared-feature count is its popcount, and absent columns
///   are never visited;
/// - per-row `u64` category masks for small vocabularies, per-row hashed
///   id signatures for the others, and per-row squared embedding norms.
///
/// [`PairKernel::score_batch`] is the one scoring path: it scores a row
/// against a batch of rows a plan column at a time, and
/// [`PairKernel::pair`] / [`PairKernel::pair_across`] are its
/// one-candidate case.
///
/// Bit-identity with the reference: every floating-point operation runs on
/// the same operands in the same order as [`normalized_similarity`]. Each
/// candidate's total starts at +0.0 and adds its shared columns in
/// ascending plan order, which is the reference's column order; a batch
/// only interleaves one candidate's sum with the others'. The integer set
/// sizes behind Jaccard and the shared-column count are order-free, the
/// mask table and the disjoint-signature shortcut yield the quotient
/// [`jaccard_ids`] would, and each hoisted embedding norm is accumulated
/// over the same values in the same index order as the reference's fused
/// cosine loop.
///
/// Plans wider than 64 columns fall back to per-column bitmap gating with
/// the same arithmetic.
pub struct PairKernel<'a> {
    plan: Vec<ColKernel<'a>>,
    /// Bit `c` of `presence[r]` — plan column `c` present in row `r`.
    /// Empty when the plan is wider than 64 columns.
    presence: Vec<u64>,
    /// Per-plan-column presence bitmaps, for the wide-plan fallback.
    present: Vec<&'a Bitmap>,
}

impl<'a> PairKernel<'a> {
    /// Compiles `config` against a frozen view.
    pub fn compile(frozen: &'a FrozenTable<'a>, config: &SimilarityConfig) -> Self {
        let n = frozen.len();
        let n_cols = frozen.n_cols();
        let mut plan = Vec::new();
        let mut present: Vec<&'a Bitmap> = Vec::new();
        for &col in config.columns.iter().filter(|&&col| col < n_cols) {
            match frozen.col(col) {
                FrozenColumn::Numeric { values, present: p } => {
                    plan.push(ColKernel::Numeric { values, scale: config.scale_for(col) });
                    present.push(p);
                }
                FrozenColumn::Categorical { offsets, ids, present: p } => {
                    let packed = |bit: fn(u32) -> u64| -> Vec<u64> {
                        (0..n)
                            .map(|r| {
                                ids[offsets[r] as usize..offsets[r + 1] as usize]
                                    .iter()
                                    .fold(0u64, |word, &id| word | bit(id))
                            })
                            .collect()
                    };
                    if ids.iter().all(|&id| id < CAT_MASK_BITS) {
                        let masks = packed(|id| 1u64 << id);
                        plan.push(ColKernel::CatMask { masks, offsets, ids });
                    } else {
                        let signatures = packed(slice_signature_bit);
                        plan.push(ColKernel::CatSlice { offsets, ids, signatures });
                    }
                    present.push(p);
                }
                FrozenColumn::Embedding { dim, data, present: p } => {
                    let dim = *dim;
                    let norms = (0..n)
                        .map(|r| {
                            let row = &data[r * dim..(r + 1) * dim];
                            let mut na = 0.0f64;
                            for &x in row {
                                na += f64::from(x) * f64::from(x);
                            }
                            na
                        })
                        .collect();
                    plan.push(ColKernel::Embedding { dim, data, norms });
                    present.push(p);
                }
            }
        }
        let presence = if plan.len() <= 64 {
            let mut words = vec![0u64; n];
            for (c, p) in present.iter().enumerate() {
                for (r, word) in words.iter_mut().enumerate() {
                    *word |= u64::from(p.get(r)) << c;
                }
            }
            words
        } else {
            Vec::new()
        };
        Self { plan, presence, present }
    }

    /// The pair weight between rows `i` and `j` of the frozen table —
    /// bit-identical to `normalized_similarity((t, i), (t, j), config)`.
    pub fn pair(&self, i: usize, j: usize) -> f64 {
        self.pair_across(i, self, j)
    }

    /// The pair weight between row `i` of this kernel's table and row `j`
    /// of `other`'s — bit-identical to
    /// `normalized_similarity((t, i), (u, j), config)`: the one-candidate
    /// case of [`PairKernel::score_batch`].
    pub fn pair_across(&self, i: usize, other: &PairKernel<'_>, j: usize) -> f64 {
        let mut out = [0.0];
        self.score_batch(i, other, &[j as u32], &mut out);
        out[0]
    }

    /// Scores row `i` of this kernel's table against rows `js` of
    /// `other`'s, writing `out[k]` for `js[k]` — each bit-identical to
    /// `normalized_similarity((t, i), (u, js[k]), config)`. `other` must be
    /// compiled from the same `config` over a table of the same schema, so
    /// the plans line up column for column; only a categorical column's
    /// mask-or-slice choice may differ between the two.
    ///
    /// The batch runs a plan column at a time over every candidate that
    /// shares it, so each column's kind is resolved once per batch rather
    /// than once per pair.
    ///
    /// # Panics
    /// Panics if `out` and `js` differ in length.
    pub fn score_batch(&self, i: usize, other: &PairKernel<'_>, js: &[u32], out: &mut [f64]) {
        assert_eq!(js.len(), out.len(), "one output slot per candidate");
        debug_assert_eq!(
            self.plan.len(),
            other.plan.len(),
            "kernels compiled from different plans"
        );
        out.fill(0.0);
        if self.presence.is_empty() {
            return self.score_batch_wide(i, other, js, out);
        }
        let here = self.presence[i];
        let reached = js.iter().fold(0u64, |acc, &j| acc | other.presence[j as usize]);
        let mut bits = here & reached;
        while bits != 0 {
            let c = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.add_column(c, i, other, js, out, |j| other.presence[j] >> c & 1 != 0);
        }
        for (total, &j) in out.iter_mut().zip(js) {
            let count = (here & other.presence[j as usize]).count_ones();
            *total = if count == 0 { 0.0 } else { *total / f64::from(count) };
        }
    }

    /// Per-column gated batch for plans wider than one presence word.
    fn score_batch_wide(&self, i: usize, other: &PairKernel<'_>, js: &[u32], out: &mut [f64]) {
        for (c, (p, q)) in self.present.iter().zip(&other.present).enumerate() {
            if p.get(i) {
                self.add_column(c, i, other, js, out, |j| q.get(j));
            }
        }
        for (total, &j) in out.iter_mut().zip(js) {
            let j = j as usize;
            let count = self
                .present
                .iter()
                .zip(&other.present)
                .filter(|(p, q)| p.get(i) && q.get(j))
                .count();
            *total = if count == 0 { 0.0 } else { *total / count as f64 };
        }
    }

    /// Adds plan column `c`'s contribution for row `i` here and each
    /// candidate `js[k]` of `other` that `shares(js[k])` to `out[k]`; row
    /// `i` must be present in the column. Forced inline so each call site
    /// keeps its own gate in the candidate loop.
    #[inline(always)]
    fn add_column(
        &self,
        c: usize,
        i: usize,
        other: &PairKernel<'_>,
        js: &[u32],
        out: &mut [f64],
        shares: impl Fn(usize) -> bool,
    ) {
        let candidates = out.iter_mut().zip(js).map(|(total, &j)| (total, j as usize));
        match (&self.plan[c], &other.plan[c]) {
            (ColKernel::Numeric { values: a, scale }, ColKernel::Numeric { values: b, .. }) => {
                let x = a[i];
                for (total, j) in candidates.filter(|&(_, j)| shares(j)) {
                    *total += (-(x - b[j]).abs() / scale).exp();
                }
            }
            (ColKernel::CatMask { masks: a, .. }, ColKernel::CatMask { masks: b, .. }) => {
                let ma = a[i];
                let na = ma.count_ones() as usize;
                for (total, j) in candidates.filter(|&(_, j)| shares(j)) {
                    let mb = b[j];
                    let inter = (ma & mb).count_ones() as usize;
                    let union = na + mb.count_ones() as usize - inter;
                    *total += MASK_JACCARD[inter * 65 + union];
                }
            }
            (
                ColKernel::CatSlice { signatures: sa, .. },
                ColKernel::CatSlice { signatures: sb, .. },
            ) => {
                let (ids_a, sig_a) = (self.plan[c].cat_ids(i), sa[i]);
                for (total, j) in candidates.filter(|&(_, j)| shares(j)) {
                    let ids_b = other.plan[c].cat_ids(j);
                    *total += if sig_a & sb[j] == 0 {
                        // No shared id: the merge would find `inter = 0`.
                        if ids_a.is_empty() && ids_b.is_empty() {
                            1.0
                        } else {
                            0.0
                        }
                    } else {
                        jaccard_ids(ids_a, ids_b)
                    };
                }
            }
            (
                ColKernel::Embedding { dim, data: a, norms: na },
                ColKernel::Embedding { data: b, norms: nb, .. },
            ) => {
                let x = &a[i * dim..(i + 1) * dim];
                for (total, j) in candidates.filter(|&(_, j)| shares(j)) {
                    let y = &b[j * dim..(j + 1) * dim];
                    *total += 0.5 * (cosine_prenorm(x, y, na[i], nb[j]) + 1.0);
                }
            }
            // Any other pairing is a categorical column that compiled to a
            // mask on one side and a slice on the other: the sorted-slice
            // Jaccard counts the same integers the masks would.
            (a, b) => {
                let ids_a = a.cat_ids(i);
                for (total, j) in candidates.filter(|&(_, j)| shares(j)) {
                    *total += jaccard_ids(ids_a, b.cat_ids(j));
                }
            }
        }
    }
}

impl ColKernel<'_> {
    /// Row `r`'s sorted category ids in a categorical column.
    ///
    /// # Panics
    /// Panics on a non-categorical column: two kernels over one schema and
    /// config never pair a categorical column with another kind.
    #[inline(always)]
    fn cat_ids(&self, r: usize) -> &[u32] {
        match self {
            ColKernel::CatMask { offsets, ids, .. } | ColKernel::CatSlice { offsets, ids, .. } => {
                &ids[offsets[r] as usize..offsets[r + 1] as usize]
            }
            _ => unreachable!("kernels compiled from different schemas"),
        }
    }
}

/// Jaccard similarity over two sorted id slices; both empty counts as 1.0.
pub fn jaccard_ids(a: &[u32], b: &[u32]) -> f64 {
    let (mut i, mut j, mut inter) = (0, 0, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// [`cosine`] with the squared norms hoisted out: `na` and `nb` must be the
/// row sums of squares accumulated in index order (see
/// [`PairKernel::compile`]). The dot product, the `na * nb` product, the
/// square root, and the clamp all see the same operands as [`cosine`], so
/// the result is bit-identical.
fn cosine_prenorm(a: &[f32], b: &[f32], na: f64, nb: f64) -> f64 {
    let mut dot = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        dot += f64::from(x) * f64::from(y);
    }
    let denom = (na * nb).sqrt();
    if denom < 1e-12 {
        0.0
    } else {
        (dot / denom).clamp(-1.0, 1.0)
    }
}

fn cosine(a: &[f32], b: &[f32]) -> f64 {
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        dot += f64::from(x) * f64::from(y);
        na += f64::from(x) * f64::from(x);
        nb += f64::from(y) * f64::from(y);
    }
    let denom = (na * nb).sqrt();
    if denom < 1e-12 {
        0.0
    } else {
        (dot / denom).clamp(-1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::schema::{FeatureDef, FeatureSchema, FeatureSet, ServingMode};
    use crate::value::{CatSet, FeatureValue};
    use crate::vocab::Vocabulary;

    fn table() -> FeatureTable {
        let schema = Arc::new(FeatureSchema::from_defs(vec![
            FeatureDef::numeric("n", FeatureSet::A, ServingMode::Servable),
            FeatureDef::categorical(
                "c",
                FeatureSet::C,
                ServingMode::Servable,
                Vocabulary::from_names(["a", "b", "c"]),
            ),
            FeatureDef::embedding("e", 2, FeatureSet::ModalitySpecific, ServingMode::Servable),
        ]));
        let mut t = FeatureTable::new(schema);
        // row 0 and 1: identical; row 2: different everywhere; row 3: mostly missing
        t.push_row(&[
            FeatureValue::Numeric(1.0),
            FeatureValue::Categorical(CatSet::from_ids(vec![0, 1])),
            FeatureValue::Embedding(vec![1.0, 0.0]),
        ]);
        t.push_row(&[
            FeatureValue::Numeric(1.0),
            FeatureValue::Categorical(CatSet::from_ids(vec![0, 1])),
            FeatureValue::Embedding(vec![1.0, 0.0]),
        ]);
        t.push_row(&[
            FeatureValue::Numeric(10.0),
            FeatureValue::Categorical(CatSet::single(2)),
            FeatureValue::Embedding(vec![-1.0, 0.0]),
        ]);
        t.push_row(&[FeatureValue::Missing, FeatureValue::Missing, FeatureValue::Missing]);
        t
    }

    #[test]
    fn paper_worked_example() {
        // Paper §4.4: F_t = (True, outdoor), F_i = (False, outdoor) gives
        // weight 1 (jaccard(True,False)=0 + jaccard(outdoor,outdoor)=1).
        let schema = Arc::new(FeatureSchema::from_defs(vec![
            FeatureDef::categorical(
                "profanity",
                FeatureSet::A,
                ServingMode::Servable,
                Vocabulary::from_names(["false", "true"]),
            ),
            FeatureDef::categorical(
                "setting",
                FeatureSet::A,
                ServingMode::Servable,
                Vocabulary::from_names(["outdoor", "indoor"]),
            ),
        ]));
        let mut t = FeatureTable::new(schema);
        t.push_row(&[
            FeatureValue::Categorical(CatSet::single(1)),
            FeatureValue::Categorical(CatSet::single(0)),
        ]);
        t.push_row(&[
            FeatureValue::Categorical(CatSet::single(0)),
            FeatureValue::Categorical(CatSet::single(0)),
        ]);
        let w = algorithm1_weight((&t, 0), (&t, 1), &[0, 1]);
        assert!((w - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identical_rows_have_max_normalized_similarity() {
        let t = table();
        let cfg = SimilarityConfig::uniform(vec![0, 1, 2]);
        let s = normalized_similarity((&t, 0), (&t, 1), &cfg);
        assert!((s - 1.0).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn dissimilar_rows_score_lower() {
        let t = table();
        let cfg = SimilarityConfig::uniform(vec![0, 1, 2]);
        let close = normalized_similarity((&t, 0), (&t, 1), &cfg);
        let far = normalized_similarity((&t, 0), (&t, 2), &cfg);
        assert!(far < close);
        assert!(far >= 0.0);
    }

    #[test]
    fn all_missing_pair_scores_zero() {
        let t = table();
        let cfg = SimilarityConfig::uniform(vec![0, 1, 2]);
        assert_eq!(normalized_similarity((&t, 0), (&t, 3), &cfg), 0.0);
    }

    #[test]
    fn similarity_is_symmetric() {
        let t = table();
        let cfg = SimilarityConfig::uniform(vec![0, 1, 2]);
        for i in 0..t.len() {
            for j in 0..t.len() {
                let ij = normalized_similarity((&t, i), (&t, j), &cfg);
                let ji = normalized_similarity((&t, j), (&t, i), &cfg);
                assert!((ij - ji).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn fitted_scales_tame_wide_numerics() {
        let t = table();
        let cfg = SimilarityConfig::uniform(vec![0]).fit_scales(&t);
        // With MAD-fitted scale, |1-10| should not drive similarity to ~0
        // as hard as with unit scale.
        let unit = SimilarityConfig::uniform(vec![0]);
        let s_fit = normalized_similarity((&t, 0), (&t, 2), &cfg);
        let s_unit = normalized_similarity((&t, 0), (&t, 2), &unit);
        assert!(s_fit > s_unit);
    }

    #[test]
    fn similarity_bounded_in_unit_interval() {
        let t = table();
        let cfg = SimilarityConfig::uniform(vec![0, 1, 2]).fit_scales(&t);
        for i in 0..t.len() {
            for j in 0..t.len() {
                let s = normalized_similarity((&t, i), (&t, j), &cfg);
                assert!((0.0..=1.0).contains(&s), "similarity {s} out of range");
            }
        }
    }

    #[test]
    fn pair_kernel_matches_reference_bitwise() {
        let t = table();
        // Column 9 is out of range: both paths must skip it.
        let cfg = SimilarityConfig::uniform(vec![0, 1, 2, 9]).fit_scales(&t);
        let frozen = FrozenTable::freeze(&t);
        let kernel = PairKernel::compile(&frozen, &cfg);
        for i in 0..t.len() {
            for j in 0..t.len() {
                let want = normalized_similarity((&t, i), (&t, j), &cfg);
                let got = kernel.pair(i, j);
                assert_eq!(got.to_bits(), want.to_bits(), "pair ({i}, {j})");
            }
        }
    }

    #[test]
    fn fit_scales_matches_materialized_reference() {
        let t = table();
        let cfg = SimilarityConfig::uniform(vec![0, 1, 2]).fit_scales(&t);
        let mut values = Vec::new();
        for r in 0..t.len() {
            if let Some(v) = t.numeric(r, 0) {
                values.push(v);
            }
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let mad = values.iter().map(|v| (v - mean).abs()).sum::<f64>() / values.len() as f64;
        assert_eq!(cfg.numeric_scales, vec![(0, mad.max(1e-9))]);
    }

    /// A 40-row numeric table with a pseudorandom value spread and a
    /// missing row every 7, for exercising the scale accumulators.
    fn wide_table() -> FeatureTable {
        let schema = Arc::new(FeatureSchema::from_defs(vec![
            FeatureDef::numeric("a", FeatureSet::A, ServingMode::Servable),
            FeatureDef::numeric("b", FeatureSet::A, ServingMode::Servable),
        ]));
        let mut t = FeatureTable::new(schema);
        for i in 0..40u32 {
            let v = f64::from(i).mul_add(1.37e3, -2.0e4) / 7.0;
            let row = if i % 7 == 3 {
                vec![FeatureValue::Missing, FeatureValue::Numeric(v * v)]
            } else {
                vec![FeatureValue::Numeric(v), FeatureValue::Numeric(1.0 / (v.abs() + 1.0))]
            };
            t.push_row(&row);
        }
        t
    }

    #[test]
    fn scale_accumulator_segmented_matches_resident() {
        let t = wide_table();
        let resident = SimilarityConfig::uniform(vec![0, 1]).fit_scales(&t);
        // Split at several boundaries, including degenerate ones.
        for cuts in [vec![0, 40], vec![0, 1, 40], vec![0, 13, 14, 40], vec![0, 20, 20, 40]] {
            let segments: Vec<FeatureTable> =
                cuts.windows(2).map(|w| t.gather(&(w[0]..w[1]).collect::<Vec<_>>())).collect();
            let mut acc = ScaleAccumulator::new(&[0, 1]);
            for seg in &segments {
                let mut part = ScaleAccumulator::new(&[0, 1]);
                part.observe(&FrozenTable::freeze(seg));
                acc.merge(&part);
            }
            let dev_base = acc.finish_means();
            let mut dev = dev_base.clone();
            for seg in &segments {
                let mut part = dev_base.clone();
                part.observe(&FrozenTable::freeze(seg));
                dev.merge(&part);
            }
            let scales = dev.finish();
            assert_eq!(scales.len(), resident.numeric_scales.len());
            for ((c1, s1), (c2, s2)) in scales.iter().zip(&resident.numeric_scales) {
                assert_eq!(c1, c2);
                assert_eq!(s1.to_bits(), s2.to_bits(), "cuts {cuts:?} col {c1}");
            }
        }
    }

    #[test]
    fn scale_accumulator_merge_is_order_free() {
        let t = wide_table();
        let first = t.gather(&(0..17).collect::<Vec<_>>());
        let second = t.gather(&(17..40).collect::<Vec<_>>());
        let observe = |seg: &FeatureTable| {
            let mut a = ScaleAccumulator::new(&[0, 1]);
            a.observe(&FrozenTable::freeze(seg));
            a
        };
        let (a, b) = (observe(&first), observe(&second));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.finish_means().finish(), ba.finish_means().finish());
    }

    #[test]
    fn scale_accumulator_skips_empty_and_foreign_columns() {
        let t = table();
        // Column 1 is categorical, 9 out of range, 3 fully missing-free?
        // No: column 0 numeric, rows 0..3 present except row 3.
        let mut acc = ScaleAccumulator::new(&[0, 1, 9]);
        acc.observe(&FrozenTable::freeze(&t));
        let scales = acc.finish_means().finish();
        assert_eq!(scales.len(), 1);
        assert_eq!(scales[0].0, 0);
        // An accumulator that saw nothing produces no scales.
        let empty = ScaleAccumulator::new(&[0, 1]);
        assert!(empty.finish_means().finish().is_empty());
    }

    #[test]
    fn mask_jaccard_table_holds_the_merge_quotients() {
        for union in 0..=64usize {
            for inter in 0..=union {
                let want = if union == 0 { 1.0 } else { inter as f64 / union as f64 };
                let got = MASK_JACCARD[inter * 65 + union];
                assert_eq!(got.to_bits(), want.to_bits(), "inter {inter}, union {union}");
            }
        }
    }

    #[test]
    fn colliding_slice_signatures_fall_back_to_the_merge() {
        // 65 ids in 64 signature bits: two of them must collide.
        let mut owner = [None; 64];
        let (a, b) = (0..=64u32)
            .find_map(|id| {
                let bit = slice_signature_bit(id).trailing_zeros() as usize;
                owner[bit].replace(id).map(|first| (first, id))
            })
            .expect("pigeonhole");
        let schema = Arc::new(FeatureSchema::from_defs(vec![FeatureDef::categorical(
            "wide",
            FeatureSet::C,
            ServingMode::Servable,
            Vocabulary::from_names((0..128).map(|i| format!("t{i}")).collect::<Vec<_>>()),
        )]));
        let mut t = FeatureTable::new(schema);
        for ids in [vec![a], vec![b], vec![a, 100], vec![b, 100]] {
            t.push_row(&[FeatureValue::Categorical(CatSet::from_ids(ids))]);
        }
        let cfg = SimilarityConfig::uniform(vec![0]);
        let frozen = FrozenTable::freeze(&t);
        let kernel = PairKernel::compile(&frozen, &cfg);
        let ColKernel::CatSlice { signatures, .. } = &kernel.plan[0] else {
            panic!("ids past 64 must compile to a slice column");
        };
        assert_ne!(signatures[0] & signatures[1], 0, "ids {a} and {b} share a signature bit");
        for i in 0..t.len() {
            for j in 0..t.len() {
                let want = normalized_similarity((&t, i), (&t, j), &cfg);
                assert_eq!(kernel.pair(i, j).to_bits(), want.to_bits(), "pair ({i}, {j})");
            }
        }
        assert_eq!(kernel.pair(0, 1), 0.0);
        assert_eq!(kernel.pair(2, 3), 1.0 / 3.0);
    }

    #[test]
    fn jaccard_ids_edge_cases() {
        assert_eq!(jaccard_ids(&[], &[]), 1.0);
        assert_eq!(jaccard_ids(&[1], &[]), 0.0);
        assert_eq!(jaccard_ids(&[1, 2], &[2, 3]), 1.0 / 3.0);
    }
}
