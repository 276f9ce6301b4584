//! Training-data curation (pipeline step B, §4): automatic LF mining,
//! optional label propagation, and the label model.
//!
//! The label model defaults to the dev-anchored variant: LF vote rates are
//! measured on the labeled old-modality corpus (§4.2's "use labeled data of
//! existing modalities as a development set") and posteriors on the
//! unlabeled pool follow from Bayes' rule. The EM generative model and
//! majority vote remain available for the ablation benches.
//!
//! Every driver runs one engine. `CurationSetup` holds what the labeled
//! corpus yields (LFs, dev votes, prior, propagation seed block);
//! `CurationEngine::append_segment` writes a segment's base-LF votes into
//! a reused buffer and interns each row's vote vector, keeping a 4-byte
//! pattern id per row; `CurationEngine::fold` joins the propagation
//! column to those patterns at labelling time; and
//! `CurationEngine::finish` fits and predicts once per distinct vote
//! vector, then gathers by pattern id. Resident curation is the
//! one-segment case of the streamed driver (`crate::stream`), and the
//! incremental curator (`crate::incremental`) appends one arrival batch
//! per tick to the same engine. Batch drivers build the propagation graph
//! with one k-NN sweep over `[seeds | dev | pool]` (`SeedBlock::propagation_lf`),
//! the pool lent whole or streamed; serving grows an online graph instead.

use std::borrow::Cow;
use std::time::Duration;

use cm_faults::{FaultSummary, Stopwatch};
use cm_featurespace::{CmResult, FeatureSchema, FeatureSet, FeatureTable, Label, ServingMode};
use cm_labelmodel::{
    majority_vote_patterns, AnchoredModel, BoundScoreLf, GenerativeConfig, GenerativeModel,
    LabelMatrix, LabelingFunction, LfRates, VotePatterns, VoteStats,
};
use cm_linalg::rng::SliceRandom;
use cm_linalg::rng::StdRng;
use cm_mining::{lfs_from_itemsets, mine_itemsets_with, MiningConfig};
use cm_orgsim::ModalityDataset;
use cm_par::ParConfig;
use cm_propagation::{
    propagate, tune_score_thresholds, GraphBuilder, PropagationConfig, SparseGraph,
};
use cm_shard::{
    build_graph_sharded, fit_scales_sharded, MemBudget, MemTracker, SegmentedCorpus, StreamSpec,
};

use crate::data::TaskData;
use crate::report::{DegradationReport, LfAbstainRates};

/// Which label model combines LF votes into probabilistic labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelModelKind {
    /// Dev-set-anchored class-conditional model (default; §4.2).
    Anchored,
    /// EM-fitted conditionally-independent generative model (Snorkel's).
    Em,
    /// Unweighted majority vote (ablation baseline).
    MajorityVote,
}

/// Configuration of the curation step.
#[derive(Debug, Clone)]
pub struct CurationConfig {
    /// Feature sets whose (shared) features feed LF mining.
    pub lf_sets: Vec<FeatureSet>,
    /// Whether nonservable features may feed LFs (§4.1: weak supervision is
    /// offline, so they may — unless ablating).
    pub include_nonservable: bool,
    /// Itemset-mining thresholds.
    pub mining: MiningConfig,
    /// Cap on mined positive LFs.
    pub max_positive_lfs: usize,
    /// Cap on mined negative LFs.
    pub max_negative_lfs: usize,
    /// Whether to add the label-propagation LF (§4.4).
    pub use_label_propagation: bool,
    /// k-NN degree of the propagation graph.
    pub prop_k: usize,
    /// Max old-modality seed vertices (all positives are always kept).
    pub prop_max_seeds: usize,
    /// Dev-set precision floor for the propagation LF's positive side.
    pub prop_min_precision: f64,
    /// Max fraction of dev positives the negative side may swallow.
    pub prop_max_leakage: f64,
    /// Label-model choice.
    pub label_model: LabelModelKind,
    /// EM settings (used when `label_model` is [`LabelModelKind::Em`]).
    pub generative: GenerativeConfig,
    /// Seed for splits and graph construction.
    pub seed: u64,
}

impl Default for CurationConfig {
    fn default() -> Self {
        Self {
            lf_sets: FeatureSet::SHARED.to_vec(),
            include_nonservable: true,
            mining: MiningConfig {
                min_precision: 0.55,
                min_neg_precision: 0.985,
                ..MiningConfig::default()
            },
            max_positive_lfs: 80,
            max_negative_lfs: 30,
            use_label_propagation: true,
            prop_k: 15,
            prop_max_seeds: 5000,
            prop_min_precision: 0.45,
            prop_max_leakage: 0.05,
            label_model: LabelModelKind::Anchored,
            generative: GenerativeConfig::default(),
            seed: 0,
        }
    }
}

/// Quality of the curated labels against the pool's hidden ground truth
/// (a diagnostic the paper measures with its labeled test sets, §6.7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WsQuality {
    /// Precision of hard-thresholded probabilistic labels on covered rows.
    pub precision: f64,
    /// Recall over all pool positives.
    pub recall: f64,
    /// F1 of the above.
    pub f1: f64,
    /// Fraction of pool rows labeled by at least one LF.
    pub coverage: f64,
}

/// Result of curation over the unlabeled pool.
pub struct CurationOutput {
    /// Probabilistic label per pool row.
    pub probabilistic_labels: Vec<f64>,
    /// Whether each pool row was covered by at least one LF.
    pub covered: Vec<bool>,
    /// Names of the LFs used.
    pub lf_names: Vec<String>,
    /// Label quality vs ground truth.
    pub ws_quality: WsQuality,
    /// Wall-clock of LF mining (or expert authoring time when provided).
    pub mining_time: Duration,
    /// Wall-clock of graph build + propagation, when used.
    pub propagation_time: Option<Duration>,
    /// Label-matrix conflict rate (Snorkel diagnostic).
    pub conflict: f64,
    /// Degradation telemetry: dropped LFs, abstain rates, service faults.
    /// Populated on every run; a clean run reports zero drops/trips.
    pub degradation: DegradationReport,
}

/// Runs curation with automatically mined LFs (§4.3 + §4.4).
pub fn curate(data: &TaskData, config: &CurationConfig) -> CurationOutput {
    let par = ParConfig::from_env();
    let mining_start = Stopwatch::start();
    let lfs = mine_text_lfs(data.world.schema(), &data.text, config, &par);
    curate_resident(data, config, lfs, mining_start.elapsed(), &par)
}

/// LF mining over the labeled corpus `text` (§4.3): the itemsets of the
/// configured LF columns, capped as the config says, turned into LFs.
pub(crate) fn mine_text_lfs(
    schema: &FeatureSchema,
    text: &ModalityDataset,
    config: &CurationConfig,
    par: &ParConfig,
) -> Vec<Box<dyn LabelingFunction>> {
    let columns = lf_columns(schema, config);
    let mined = mine_itemsets_with(&text.table, &text.labels, &columns, &config.mining, par);
    lfs_from_itemsets(&mined, config.max_positive_lfs, config.max_negative_lfs)
}

/// Runs curation with a caller-provided LF suite (e.g. the hand-written
/// expert LFs of §6.7.1). `authoring_time` is recorded as the mining time.
pub fn curate_with_lfs(
    data: &TaskData,
    config: &CurationConfig,
    lfs: Vec<Box<dyn LabelingFunction>>,
    authoring_time: Duration,
) -> CurationOutput {
    curate_resident(data, config, lfs, authoring_time, &ParConfig::from_env())
}

/// Resident curation: the whole pool is the engine's one segment.
fn curate_resident(
    data: &TaskData,
    config: &CurationConfig,
    lfs: Vec<Box<dyn LabelingFunction>>,
    mining_time: Duration,
    par: &ParConfig,
) -> CurationOutput {
    let mut setup = CurationSetup::new(&data.text, lfs, config, par);
    let start = Stopwatch::start();
    let prop = setup.propagation.take().and_then(|block| {
        let mut unbudgeted = MemTracker::new(MemBudget::bytes(usize::MAX));
        let pool = PoolRows::Resident(&data.pool.table);
        match block.propagation_lf(pool, usize::MAX, config, par, &mut unbudgeted) {
            Ok(lf) => lf,
            // Nothing is budgeted, and two lent heads always tile the corpus.
            Err(e) => unreachable!("resident propagation failed: {e}"),
        }
    });
    let propagation_time = config.use_label_propagation.then(|| start.elapsed());
    let mut engine = CurationEngine::new(setup, data.pool.len());
    engine.append_segment(0, &data.pool.table, &data.pool.labels, par);
    let faults = data.fault_summary.as_ref();
    engine.finish(prop.as_ref(), config, faults, mining_time, propagation_time, par)
}

/// What every curation driver (resident, streamed, incremental) builds
/// from the labeled corpus before it sees a pool row.
pub(crate) struct CurationSetup {
    /// The base LFs, mined or provided.
    pub lfs: Vec<Box<dyn LabelingFunction>>,
    /// Class prior: the labeled corpus's positive rate, clamped.
    pub prior: f64,
    /// Base-LF votes over the whole labeled corpus (§4.2's dev set).
    pub dev_matrix: LabelMatrix,
    /// The labeled corpus's ground truth, row-aligned with `dev_matrix`.
    pub dev_labels: Vec<Label>,
    /// The propagation seed block; `None` when propagation is off or the
    /// split leaves no seed vertex.
    pub propagation: Option<SeedBlock>,
}

impl CurationSetup {
    /// Builds the setup from the labeled corpus `text` and its LFs.
    pub fn new(
        text: &ModalityDataset,
        lfs: Vec<Box<dyn LabelingFunction>>,
        config: &CurationConfig,
        par: &ParConfig,
    ) -> Self {
        let prior = text.positive_rate().clamp(1e-4, 0.5);
        Self {
            dev_matrix: LabelMatrix::apply_with(&text.table, &lfs, par),
            dev_labels: text.labels.clone(),
            propagation: config
                .use_label_propagation
                .then(|| SeedBlock::new(text, prior, config))
                .flatten(),
            lfs,
            prior,
        }
    }
}

/// The labeled head of the propagation graph (§4.4): seed vertices from
/// the old modality, then a held-out dev slice for threshold tuning. Pool
/// rows follow as vertices `table.len()..`.
pub(crate) struct SeedBlock {
    /// `[seeds | dev]` feature rows, in vertex order.
    pub table: FeatureTable,
    /// Seed vertices `(vertex, label)`.
    pub seeds: Vec<(usize, f64)>,
    /// Dev-slice ground truth.
    pub dev_labels: Vec<Label>,
    /// Solver settings, starting unlabeled vertices at the class prior.
    pub prop_cfg: PropagationConfig,
}

impl SeedBlock {
    /// Splits the labeled corpus: a fifth as the dev slice, and as seeds
    /// every remaining positive plus negatives up to `prop_max_seeds`.
    /// Purely a function of `(labels, config.seed, config.prop_max_seeds)`.
    /// `None` when no seed vertex survives (propagation then has nothing
    /// to spread).
    fn new(text: &ModalityDataset, prior: f64, config: &CurationConfig) -> Option<Self> {
        let labels = &text.labels;
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5EED);
        let mut idx: Vec<usize> = (0..labels.len()).collect();
        idx.shuffle(&mut rng);
        let dev_len = (labels.len() / 5).max(1);
        let (dev_idx, rest) = idx.split_at(dev_len.min(idx.len()));
        let mut seed_idx: Vec<usize> =
            rest.iter().copied().filter(|&r| labels[r].is_positive()).collect();
        let mut neg_budget = config.prop_max_seeds.saturating_sub(seed_idx.len());
        for &r in rest {
            if neg_budget == 0 {
                break;
            }
            if !labels[r].is_positive() {
                seed_idx.push(r);
                neg_budget -= 1;
            }
        }
        if seed_idx.is_empty() {
            return None;
        }
        let mut table = text.table.gather(&seed_idx);
        table.extend_from(&text.table.gather(dev_idx));
        Some(Self {
            table,
            seeds: seed_idx.iter().enumerate().map(|(v, &r)| (v, labels[r].as_f64())).collect(),
            dev_labels: dev_idx.iter().map(|&r| labels[r]).collect(),
            prop_cfg: PropagationConfig { max_iters: 50, tol: 1e-4, prior },
        })
    }

    /// The propagation LF over `[seeds | dev | pool]`: a
    /// [`SegmentedCorpus`] of `segment_rows`-row segments with this block
    /// as its head and `pool` after it. The scales come from the segmented
    /// fit and the graph from the k-NN sweep, both charged to `tracker`,
    /// so a resident pool (lent whole) and a streamed one build the same
    /// graph.
    pub fn propagation_lf(
        &self,
        pool: PoolRows<'_>,
        segment_rows: usize,
        config: &CurationConfig,
        par: &ParConfig,
        tracker: &mut MemTracker,
    ) -> CmResult<Option<PropagationLf>> {
        let head_bytes = self.table.approx_bytes();
        tracker.charge(head_bytes, "propagation seed/dev tables")?;
        let mut corpus = SegmentedCorpus::new(segment_rows);
        corpus.push_head(&self.table);
        match pool {
            PoolRows::Resident(table) => corpus.push_head(table),
            PoolRows::Streamed(spec) => corpus.set_stream(spec),
        }
        let sim = fit_scales_sharded(&corpus, &sim_columns(self.table.schema(), config), tracker)?;
        let builder = GraphBuilder::approximate(config.prop_k, corpus.total_rows());
        let seed = config.seed ^ 0x6EA9;
        let graph = build_graph_sharded(&corpus, &builder, &sim, seed, par, tracker)?;
        let graph_bytes = graph.approx_bytes();
        tracker.charge(graph_bytes, "propagation graph")?;
        let lf = self.lf_from_graph(&graph, config);
        tracker.release(graph_bytes + head_bytes);
        Ok(lf)
    }

    /// Propagates the seed labels over `graph` (whose first vertices are
    /// this block's rows), tunes thresholds on the dev slice, and binds
    /// the remaining vertices' scores as the pool LF. `None` when no
    /// thresholds clear the configured precision floor.
    pub fn lf_from_graph(
        &self,
        graph: &SparseGraph,
        config: &CurationConfig,
    ) -> Option<PropagationLf> {
        let scores = propagate(graph, &self.seeds, &self.prop_cfg);
        let pool_start = self.seeds.len() + self.dev_labels.len();
        let dev_scores = &scores[self.seeds.len()..pool_start];
        let tuned = tune_score_thresholds(
            dev_scores,
            &self.dev_labels,
            config.prop_min_precision,
            config.prop_max_leakage,
        )?;
        let dev_votes: Vec<i8> = dev_scores
            .iter()
            .map(|&s| {
                if s >= tuned.positive {
                    1
                } else if s <= tuned.negative {
                    -1
                } else {
                    0
                }
            })
            .collect();
        Some(PropagationLf {
            rates: LfRates::estimate(&dev_votes, &self.dev_labels),
            pool_lf: BoundScoreLf::new(
                "label_propagation",
                scores[pool_start..].to_vec(),
                tuned.positive,
                tuned.negative,
            ),
            dev_votes,
        })
    }
}

/// Where the propagation corpus's pool rows come from.
pub(crate) enum PoolRows<'a> {
    /// A resident table, lent to the sweep whole.
    Resident(&'a FeatureTable),
    /// A generation stream, regenerated a segment at a time on every pass.
    Streamed(StreamSpec<'a>),
}

/// The label-propagation LF (§4.4), tuned on the seed block's dev slice.
pub(crate) struct PropagationLf {
    /// Thresholded propagation scores, bound to pool rows.
    pub pool_lf: BoundScoreLf,
    /// The LF's votes on the dev slice.
    pub dev_votes: Vec<i8>,
    /// Class-conditional rates estimated from those votes.
    pub rates: LfRates,
}

/// The curation engine every driver runs: the shared setup and one pool
/// sweep that writes each segment's base-LF votes into a reused segment
/// buffer, interns every row's vote vector into a [`VotePatterns`] table,
/// and keeps only the row's pattern id. Resident curation appends the
/// whole pool as one segment, streamed curation one segment at a time,
/// and serving one arrival batch per tick; votes are pure per-row values,
/// so all of them intern the same patterns in the same order.
///
/// The propagation column depends on the whole pool, so it joins at
/// labelling time: [`CurationEngine::fold`] maps each row's
/// `(base pattern, vote)` pair to a pattern of the full label matrix. The
/// model runs once per distinct pattern and [`PoolPatterns::gather`]
/// takes its outputs back to rows.
pub(crate) struct CurationEngine {
    setup: CurationSetup,
    /// The current segment's base-LF votes; one buffer reused across
    /// appends.
    segment: LabelMatrix,
    /// The distinct base-LF vote vectors of the pool with their row counts.
    patterns: VotePatterns,
    /// Each pool row's pattern id, in offset order.
    pattern_ids: Vec<u32>,
    pool_truth: Vec<Label>,
}

/// The pool's label matrix as vote patterns: the distinct vote vectors
/// with their row counts, and each row's pattern id.
pub(crate) struct PoolPatterns<'a> {
    pub patterns: Cow<'a, VotePatterns>,
    pub ids: Cow<'a, [u32]>,
}

impl PoolPatterns<'_> {
    /// Each row's label and coverage, gathered by pattern id from
    /// `per_pattern`.
    pub fn gather(&self, per_pattern: impl Fn(usize) -> (f64, bool)) -> (Vec<f64>, Vec<bool>) {
        self.ids.iter().map(|&p| per_pattern(p as usize)).unzip()
    }
}

impl CurationEngine {
    /// An engine over the setup's base LFs, with pattern ids preallocated
    /// for `n_pool` rows.
    pub fn new(setup: CurationSetup, n_pool: usize) -> Self {
        let lf_names = setup.lfs.iter().map(|l| l.name().to_owned()).collect();
        Self {
            patterns: VotePatterns::new(setup.lfs.len()),
            segment: LabelMatrix::with_row_capacity(0, lf_names),
            pattern_ids: Vec::with_capacity(n_pool),
            pool_truth: Vec::with_capacity(n_pool),
            setup,
        }
    }

    /// The setup the engine was built from.
    pub fn setup(&self) -> &CurationSetup {
        &self.setup
    }

    /// Resident bytes of the preallocated pattern ids: 4 per pool row.
    pub fn pool_bytes(&self) -> usize {
        self.pattern_ids.capacity() * std::mem::size_of::<u32>()
    }

    /// Resident bytes of the pattern table.
    pub fn pattern_bytes(&self) -> usize {
        self.patterns.approx_bytes()
    }

    /// Writes the base-LF votes of `table`'s rows into the segment buffer,
    /// replacing the last segment's.
    pub fn apply_segment(&mut self, table: &FeatureTable, par: &ParConfig) {
        self.segment.clear();
        self.segment.apply_append_with(table, &self.setup.lfs, par);
    }

    /// The most interning the buffered segment can grow the pattern table
    /// by: every row a new pattern, holding the segment's actual
    /// non-abstain votes.
    pub fn growth_bound(&self) -> usize {
        self.patterns.growth_bound(self.segment.n_rows(), self.segment.n_votes_cast())
    }

    /// Interns the buffered segment as pool rows `offset..`, whose ground
    /// truth is `labels`.
    ///
    /// # Panics
    /// Panics unless segments arrive in offset order.
    pub fn intern_segment(&mut self, offset: usize, labels: &[Label]) {
        assert_eq!(offset, self.pattern_ids.len(), "pool segments must arrive in order");
        for r in 0..self.segment.n_rows() {
            self.pattern_ids.push(self.patterns.observe(self.segment.row(r)) as u32);
        }
        self.pool_truth.extend_from_slice(labels);
    }

    /// Appends pool rows `offset..offset + table.len()`: applies the base
    /// LFs and interns the votes.
    pub fn append_segment(
        &mut self,
        offset: usize,
        table: &FeatureTable,
        labels: &[Label],
        par: &ParConfig,
    ) {
        self.apply_segment(table, par);
        self.intern_segment(offset, labels);
    }

    /// Appends pool rows `offset..offset + rows` whose base-LF votes are
    /// given, `rows` rows of one per LF row-major (a checkpoint's), through
    /// the same intern step; the segment buffer is left as it was.
    ///
    /// # Panics
    /// Panics unless `votes` holds `rows` rows of valid votes, or if the
    /// rows arrive out of offset order.
    pub fn append_votes(&mut self, offset: usize, rows: usize, votes: Vec<i8>, labels: &[Label]) {
        let names = self.segment.names().to_vec();
        let loaded = LabelMatrix::from_votes(rows, names.len(), votes, names);
        let buffer = std::mem::replace(&mut self.segment, loaded);
        self.intern_segment(offset, labels);
        self.segment = buffer;
    }

    /// Rows `rows`' base-LF votes, row-major, rebuilt from their patterns.
    pub fn base_votes(&self, rows: std::ops::Range<usize>) -> Vec<i8> {
        let mut votes = Vec::with_capacity(rows.len() * self.patterns.n_lfs());
        let mut dense = Vec::new();
        for &p in &self.pattern_ids[rows] {
            self.patterns.dense_into(p as usize, &mut dense);
            votes.extend_from_slice(&dense);
        }
        votes
    }

    /// The pool's label matrix as vote patterns: the interned base votes,
    /// joined when `column` is given by one more LF whose vote on pool row
    /// `r` is `column(r)`. The join walks the rows in order, mapping each
    /// `(base pattern, vote)` pair through a dense three-slot table, so
    /// only a pair's first row pays a lookup; pairs are numbered in order
    /// of first occurrence, as interning the full vote vectors would
    /// number them.
    pub fn fold(&self, column: Option<impl Fn(usize) -> i8>) -> PoolPatterns<'_> {
        let Some(column) = column else {
            return PoolPatterns {
                patterns: Cow::Borrowed(&self.patterns),
                ids: Cow::Borrowed(&self.pattern_ids),
            };
        };
        let mut patterns = VotePatterns::new(self.patterns.n_lfs() + 1);
        let mut slots = vec![u32::MAX; self.patterns.len() * 3];
        let mut dense = Vec::new();
        let ids = (self.pattern_ids.iter().enumerate())
            .map(|(r, &base)| {
                let vote = column(r);
                let slot = &mut slots[base as usize * 3 + (vote + 1) as usize];
                if *slot == u32::MAX {
                    self.patterns.dense_into(base as usize, &mut dense);
                    dense.push(vote);
                    *slot = patterns.observe(&dense) as u32;
                } else {
                    patterns.add_rows(*slot as usize, 1);
                }
                *slot
            })
            .collect();
        PoolPatterns { patterns: Cow::Owned(patterns), ids: Cow::Owned(ids) }
    }

    /// The most a joining [`CurationEngine::fold`] holds while it runs:
    /// its three slots per base pattern, a pattern id per row, and the
    /// joined table if every base pattern splits three ways with the new
    /// column voting.
    pub fn fold_bound(&self) -> usize {
        let base = &self.patterns;
        let joined = VotePatterns::new(base.n_lfs() + 1);
        (3 * base.len() + self.pattern_ids.len()) * std::mem::size_of::<u32>()
            + joined.approx_bytes()
            + joined.growth_bound(3 * base.len(), 3 * (base.n_cells() + base.len()))
    }

    /// The model-fitting tail: the propagation column `prop` folded in,
    /// abstain telemetry, degradation drops, label-model fit/predict, and
    /// the quality report, each computed once per distinct vote vector.
    /// Every count is an exact integer and every posterior a pure function
    /// of the vote vector, so the output equals the row-by-row computation
    /// bit for bit. Thread-count invariant (every parallel substrate it
    /// calls is).
    pub fn finish(
        self,
        prop: Option<&PropagationLf>,
        config: &CurationConfig,
        fault_summary: Option<&FaultSummary>,
        mining_time: Duration,
        propagation_time: Option<Duration>,
        par: &ParConfig,
    ) -> CurationOutput {
        let pool = self.fold(prop.map(|p| |r| p.pool_lf.vote_row(r).as_i8()));
        let CurationSetup { dev_matrix, dev_labels, prior, .. } = &self.setup;
        let prior = *prior;
        let mut lf_names = self.segment.names().to_vec();
        lf_names.extend(prop.map(|p| p.pool_lf.name().to_owned()));
        let n_rows = pool.ids.len();
        let n_lfs = pool.patterns.n_lfs();

        // Abstain-rate telemetry: dev rates over the evidence the LF weights
        // are estimated on (whole corpus for base LFs, the propagation dev
        // slice for the propagation LF), pool rates over the pool votes.
        let mut dev_abstain: Vec<f64> = (0..dev_matrix.n_lfs())
            .map(|c| {
                (0..dev_matrix.n_rows()).filter(|&r| dev_matrix.row(r)[c] == 0).count() as f64
                    / dev_matrix.n_rows().max(1) as f64
            })
            .collect();
        if let Some(votes) = prop.map(|p| &p.dev_votes) {
            dev_abstain
                .push(votes.iter().filter(|&&v| v == 0).count() as f64 / votes.len().max(1) as f64);
        }
        let pool_abstain: Vec<f64> = (pool.patterns.votes_per_lf().iter())
            .map(|&voting| (n_rows as u64 - voting) as f64 / n_rows.max(1) as f64)
            .collect();

        // Graceful degradation: a column that abstains on every dev row has no
        // rate evidence and is dropped in any run. A column that abstains on
        // every *pool* row casts no vote yet still shifts anchored posteriors
        // through its abstain likelihood; on clean runs that likelihood is
        // dev-calibrated and legitimately models modality shift, but on
        // fault-injected runs the abstention is caused by service loss the dev
        // calibration never saw — so those columns are dropped only when the
        // datasets came through a fault-injecting access layer.
        let fault_aware = fault_summary.is_some();
        let dropped_idx: Vec<usize> = (0..n_lfs)
            .filter(|&c| dev_abstain[c] >= 1.0 || (fault_aware && pool_abstain[c] >= 1.0))
            .collect();
        let dropped_lfs: Vec<String> = dropped_idx.iter().map(|&c| lf_names[c].clone()).collect();
        // Dropping columns projects the patterns, merging those that differ
        // only in dropped columns; `remap` takes a pool pattern id to its
        // active one.
        let (active, remap) = if dropped_idx.is_empty() {
            let identity = (0..pool.patterns.len() as u32).collect();
            (Cow::Borrowed(&*pool.patterns), identity)
        } else {
            let (active, remap) = pool.patterns.without_columns(&dropped_idx);
            (Cow::Owned(active), remap)
        };

        let pattern_labels = if active.n_lfs() == 0 {
            vec![prior; active.len()]
        } else {
            match config.label_model {
                LabelModelKind::Anchored => {
                    let mut rates =
                        AnchoredModel::fit(dev_matrix, dev_labels, Some(prior)).rates().to_vec();
                    if let Some(p) = prop {
                        rates.push(p.rates);
                    }
                    // Fitting is per-column independent, so dropping rate
                    // entries by index equals fitting on the reduced matrix.
                    let rates: Vec<LfRates> = rates
                        .into_iter()
                        .enumerate()
                        .filter(|&(c, _)| !dropped_idx.contains(&c))
                        .map(|(_, r)| r)
                        .collect();
                    AnchoredModel::from_rates(rates, prior).predict_patterns(&active)
                }
                LabelModelKind::Em => {
                    let gen_cfg =
                        GenerativeConfig { class_prior: Some(prior), ..config.generative.clone() };
                    GenerativeModel::fit_patterns(&active, &gen_cfg, None, par)
                        .predict_patterns(&active)
                }
                LabelModelKind::MajorityVote => majority_vote_patterns(&active),
            }
        };

        // Coverage is invariant to dropping all-abstain columns, so clean runs
        // see exactly the pre-degradation semantics.
        let (probabilistic_labels, covered) = pool.gather(|p| {
            let q = remap[p] as usize;
            (pattern_labels[q], active.covers(q))
        });

        let pool_coverage =
            covered.iter().filter(|&&c| c).count() as f64 / covered.len().max(1) as f64;
        let lf_abstain: Vec<LfAbstainRates> = lf_names
            .iter()
            .enumerate()
            .map(|(c, name)| LfAbstainRates {
                name: name.clone(),
                dev_abstain_rate: dev_abstain[c],
                pool_abstain_rate: pool_abstain[c],
                dropped: dropped_idx.contains(&c),
            })
            .collect();
        let degradation = DegradationReport {
            fault_seed: fault_summary.map_or(0, |s| s.seed),
            tripped_services: fault_summary.map_or_else(Vec::new, FaultSummary::tripped_services),
            dropped_lfs,
            pool_coverage,
            lf_abstain,
            faults: fault_summary.cloned(),
            serving: None,
        };

        let ws_quality = ws_quality(&probabilistic_labels, &covered, &self.pool_truth);
        CurationOutput {
            probabilistic_labels,
            covered,
            lf_names,
            ws_quality,
            mining_time,
            propagation_time,
            conflict: VoteStats::from_counts(active.vote_counts()).conflict,
            degradation,
        }
    }
}

/// The columns LFs may reference: shared features of the configured sets,
/// optionally filtered to servable ones.
pub(crate) fn lf_columns(schema: &FeatureSchema, config: &CurationConfig) -> Vec<usize> {
    schema
        .columns_in_sets(&config.lf_sets, false)
        .into_iter()
        .filter(|&c| {
            config.include_nonservable
                || schema.def(c).map(|d| d.serving) == Some(ServingMode::Servable)
        })
        .collect()
}

/// The columns the propagation graph compares: LF columns plus
/// modality-specific embeddings — "we use features specific to the new
/// modality to construct edges, including unstructured features such as
/// image embeddings".
pub(crate) fn sim_columns(schema: &FeatureSchema, config: &CurationConfig) -> Vec<usize> {
    let mut columns = lf_columns(schema, config);
    columns.extend(
        schema
            .defs()
            .iter()
            .enumerate()
            .filter(|(_, d)| {
                d.set == FeatureSet::ModalitySpecific
                    && matches!(d.kind, cm_featurespace::FeatureKind::Embedding { .. })
            })
            .map(|(i, _)| i),
    );
    columns
}

fn ws_quality(probs: &[f64], covered: &[bool], truth: &[Label]) -> WsQuality {
    let n_pos = truth.iter().filter(|l| l.is_positive()).count();
    let mut tp = 0usize;
    let mut fp = 0usize;
    for ((&q, &cov), label) in probs.iter().zip(covered).zip(truth) {
        if cov && q >= 0.5 {
            if label.is_positive() {
                tp += 1;
            } else {
                fp += 1;
            }
        }
    }
    let precision = if tp + fp > 0 { tp as f64 / (tp + fp) as f64 } else { 0.0 };
    let recall = if n_pos > 0 { tp as f64 / n_pos as f64 } else { 0.0 };
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    let coverage = covered.iter().filter(|&&c| c).count() as f64 / covered.len().max(1) as f64;
    WsQuality { precision, recall, f1, coverage }
}

#[cfg(test)]
mod tests {
    use cm_labelmodel::{majority_vote, NumericThresholdLf, ThresholdDirection, Vote};
    use cm_orgsim::{TaskConfig, TaskId};

    use super::*;

    /// Mined LFs plus two that exercise the degradation drops: one on an
    /// image-only feature (silent on every dev row, voting in the pool)
    /// and one on a text-only feature (voting on dev, silent on every
    /// pool row).
    fn degradation_lfs(d: &TaskData, cfg: &CurationConfig) -> Vec<Box<dyn LabelingFunction>> {
        let schema = d.world.schema();
        let mut lfs = mine_text_lfs(schema, &d.text, cfg, &ParConfig::serial());
        let img = schema.column("img_quality").unwrap();
        let values: Vec<f64> =
            (0..d.pool.len()).filter_map(|r| d.pool.table.numeric(r, img)).collect();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        lfs.push(Box::new(NumericThresholdLf::new(
            img,
            mean,
            ThresholdDirection::Above,
            Vote::Positive,
        )));
        let words = schema.column("word_count").unwrap();
        lfs.push(Box::new(NumericThresholdLf::new(
            words,
            f64::MIN,
            ThresholdDirection::Above,
            Vote::Negative,
        )));
        lfs
    }

    /// The setup and propagation LF the resident driver would build.
    fn setup_for(
        d: &TaskData,
        cfg: &CurationConfig,
        par: &ParConfig,
    ) -> (CurationSetup, Option<PropagationLf>) {
        let mut setup = CurationSetup::new(&d.text, degradation_lfs(d, cfg), cfg, par);
        let prop = setup.propagation.take().and_then(|block| {
            let mut unbudgeted = MemTracker::new(MemBudget::bytes(usize::MAX));
            let pool = PoolRows::Resident(&d.pool.table);
            block.propagation_lf(pool, usize::MAX, cfg, par, &mut unbudgeted).unwrap()
        });
        (setup, prop)
    }

    /// Asserts `got` equals the row-wise model tail `CurationEngine::finish`
    /// replaced, kept as its oracle: every output computed over the dense
    /// `[base | propagation]` pool matrix of the setup `setup_for` builds.
    fn assert_matches_rowwise(
        got: &CurationOutput,
        d: &TaskData,
        cfg: &CurationConfig,
        fault_summary: Option<&FaultSummary>,
        what: &str,
    ) {
        let par = ParConfig::serial();
        let (setup, prop) = setup_for(d, cfg, &par);
        // The base votes, then the propagation vote spliced onto each row.
        let base = LabelMatrix::apply_with(&d.pool.table, &setup.lfs, &par);
        let mut names = base.names().to_vec();
        names.extend(prop.as_ref().map(|p| p.pool_lf.name().to_owned()));
        let mut votes = Vec::with_capacity(d.pool.len() * names.len());
        for r in 0..base.n_rows() {
            votes.extend_from_slice(base.row(r));
            votes.extend(prop.as_ref().map(|p| p.pool_lf.vote_row(r).as_i8()));
        }
        let pool = LabelMatrix::from_votes(base.n_rows(), names.len(), votes, names);
        let (n_rows, n_lfs) = (pool.n_rows(), pool.n_lfs());
        let abstains =
            |m: &LabelMatrix, c: usize| (0..m.n_rows()).filter(|&r| m.row(r)[c] == 0).count();
        let rate = |count: usize, n: usize| count as f64 / n.max(1) as f64;

        let CurationSetup { dev_matrix, dev_labels, prior, .. } = setup;
        let mut dev_abstain: Vec<f64> = (0..dev_matrix.n_lfs())
            .map(|c| rate(abstains(&dev_matrix, c), dev_matrix.n_rows()))
            .collect();
        if let Some(votes) = prop.as_ref().map(|p| &p.dev_votes) {
            dev_abstain.push(rate(votes.iter().filter(|&&v| v == 0).count(), votes.len()));
        }
        let pool_abstain: Vec<f64> = (0..n_lfs).map(|c| rate(abstains(&pool, c), n_rows)).collect();
        let dropped: Vec<usize> = (0..n_lfs)
            .filter(|&c| {
                dev_abstain[c] >= 1.0 || (fault_summary.is_some() && pool_abstain[c] >= 1.0)
            })
            .collect();
        let active = pool.without_columns(&dropped);
        let covered: Vec<bool> =
            (0..n_rows).map(|r| active.row(r).iter().any(|&v| v != 0)).collect();
        let labels = if active.n_lfs() == 0 {
            vec![prior; n_rows]
        } else {
            match cfg.label_model {
                LabelModelKind::Anchored => {
                    let mut rates =
                        AnchoredModel::fit(&dev_matrix, &dev_labels, Some(prior)).rates().to_vec();
                    rates.extend(prop.as_ref().map(|p| p.rates));
                    let rates = (rates.into_iter().enumerate())
                        .filter_map(|(c, r)| (!dropped.contains(&c)).then_some(r))
                        .collect();
                    AnchoredModel::from_rates(rates, prior).predict(&active)
                }
                LabelModelKind::Em => {
                    let gen_cfg =
                        GenerativeConfig { class_prior: Some(prior), ..cfg.generative.clone() };
                    GenerativeModel::fit_with(&active, &gen_cfg, &par).predict_with(&active, &par)
                }
                LabelModelKind::MajorityVote => majority_vote(&active),
            }
        };

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.probabilistic_labels), bits(&labels), "{what}");
        assert_eq!(got.covered, covered, "{what}");
        assert_eq!(
            got.conflict.to_bits(),
            active.vote_stats_with(&par).conflict.to_bits(),
            "{what}"
        );
        assert_eq!(got.lf_names, pool.names(), "{what}");
        let g = &got.degradation;
        let dropped_lfs: Vec<String> = dropped.iter().map(|&c| pool.names()[c].clone()).collect();
        assert_eq!(g.dropped_lfs, dropped_lfs, "{what}");
        let coverage = rate(covered.iter().filter(|&&c| c).count(), n_rows);
        assert_eq!(g.pool_coverage.to_bits(), coverage.to_bits(), "{what}");
        assert_eq!(g.lf_abstain.len(), n_lfs, "{what}");
        for (c, a) in g.lf_abstain.iter().enumerate() {
            assert_eq!(a.name, pool.names()[c], "{what}");
            assert_eq!(a.dev_abstain_rate.to_bits(), dev_abstain[c].to_bits(), "{what}");
            assert_eq!(a.pool_abstain_rate.to_bits(), pool_abstain[c].to_bits(), "{what}");
            assert_eq!(a.dropped, dropped.contains(&c), "{what}");
        }
        let q = |w: &WsQuality| [w.precision, w.recall, w.f1, w.coverage].map(f64::to_bits);
        let want = ws_quality(&labels, &covered, &d.pool.labels);
        assert_eq!(q(&got.ws_quality), q(&want), "{what}");

        // The pool exercises both drops, dropping the dev-silent column
        // merges patterns, and the propagation column votes.
        let n = n_lfs - usize::from(prop.is_some());
        let (img, words) = (n - 2, n - 1);
        let voting = |c: usize| abstains(&pool, c) < n_rows;
        assert!(voting(img) && !voting(words), "{what}");
        assert!(prop.is_none() || voting(n), "{what}");
        let patterns = VotePatterns::of_segments(&[&pool]);
        assert!(patterns.without_columns(&[img]).0.len() < patterns.len(), "{what}");
        assert!(dropped.contains(&img), "{what}");
        assert_eq!(dropped.contains(&words), fault_summary.is_some(), "{what}");
    }

    #[test]
    fn pattern_engine_matches_the_rowwise_oracle() {
        let d = data();
        let par = ParConfig::serial();
        let faults = FaultSummary::default();
        let kinds = [LabelModelKind::Anchored, LabelModelKind::Em, LabelModelKind::MajorityVote];
        for (kind, propagation) in kinds.into_iter().flat_map(|k| [(k, false), (k, true)]) {
            let cfg = CurationConfig {
                use_label_propagation: propagation,
                label_model: kind,
                ..fast_config()
            };
            for fault_summary in [None, Some(&faults)] {
                let what = format!("{kind:?}, propagation {propagation}, {fault_summary:?}");
                // The engine, fed in two segments.
                let (setup, prop) = setup_for(&d, &cfg, &par);
                assert_eq!(prop.is_some(), propagation, "{what}");
                let mut engine = CurationEngine::new(setup, d.pool.len());
                let cut = d.pool.len() / 3;
                let (head, tail): (Vec<usize>, Vec<usize>) =
                    (0..d.pool.len()).partition(|&r| r < cut);
                for (offset, rows) in [(0, head), (cut, tail)] {
                    let labels: Vec<Label> = rows.iter().map(|&r| d.pool.labels[r]).collect();
                    engine.append_segment(offset, &d.pool.table.gather(&rows), &labels, &par);
                }
                let got =
                    engine.finish(prop.as_ref(), &cfg, fault_summary, Duration::ZERO, None, &par);
                assert_matches_rowwise(&got, &d, &cfg, fault_summary, &what);
            }
        }
    }

    #[test]
    fn charges_cover_an_all_distinct_segment_and_its_fold() {
        // Twelve base LFs whose votes spell each row's index in binary, so
        // every row is a new pattern on which every LF votes.
        let d = data();
        let par = ParConfig::serial();
        let n = d.pool.len().min(1 << 12);
        let lfs: Vec<Box<dyn LabelingFunction>> = (0..12)
            .map(|j| {
                let scores = (0..d.text.len().max(n)).map(|r| (r >> j & 1) as f64).collect();
                Box::new(BoundScoreLf::new(format!("bit{j}"), scores, 1.0, 0.0))
                    as Box<dyn LabelingFunction>
            })
            .collect();
        let cfg = CurationConfig { use_label_propagation: false, ..fast_config() };
        let setup = CurationSetup::new(&d.text, lfs, &cfg, &par);
        let mut engine = CurationEngine::new(setup, n);
        assert_eq!(engine.pool_bytes(), 4 * n);
        let rows: Vec<usize> = (0..n).collect();
        engine.apply_segment(&d.pool.table.gather(&rows), &par);
        let charged = engine.growth_bound();
        let before = engine.pattern_bytes();
        engine.intern_segment(0, &d.pool.labels[..n]);
        assert_eq!(engine.patterns.len(), n, "every row is a new pattern");
        // Distinct rows are the case the bound is priced at.
        assert_eq!(charged, engine.pattern_bytes() - before);

        // A column voting 1, -1, 0 in turn splits no pattern; the fold
        // holds its slots, the joined ids and the joined table.
        let bound = engine.fold_bound();
        let pool = engine.fold(Some(|r: usize| (r % 3) as i8 - 1));
        assert_eq!(pool.patterns.len(), n);
        let held = (3 * n + pool.ids.len()) * 4 + pool.patterns.approx_bytes();
        assert!(held <= bound, "held {held}, charged {bound}");
    }

    fn data() -> TaskData {
        TaskData::generate(TaskConfig::paper(TaskId::Ct2).scaled(0.04), 5, Some(64))
    }

    fn fast_config() -> CurationConfig {
        CurationConfig {
            prop_max_seeds: 400,
            mining: MiningConfig { min_recall: 0.05, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn curate_produces_useful_labels() {
        let d = data();
        let cfg = CurationConfig { use_label_propagation: false, ..fast_config() };
        let out = curate(&d, &cfg);
        assert_eq!(out.probabilistic_labels.len(), d.pool.len());
        assert!(!out.lf_names.is_empty(), "no LFs mined");
        assert!(out.ws_quality.precision > 0.5, "precision {:?}", out.ws_quality);
        assert!(out.ws_quality.recall > 0.2, "recall {:?}", out.ws_quality);
        assert!(out.ws_quality.coverage > 0.1);
        for p in &out.probabilistic_labels {
            assert!((0.0..=1.0).contains(p));
        }
    }

    #[test]
    fn propagation_adds_an_lf_and_recall() {
        let d = data();
        let without = curate(&d, &CurationConfig { use_label_propagation: false, ..fast_config() });
        let with = curate(&d, &fast_config());
        if with.lf_names.iter().any(|n| n == "label_propagation") {
            assert!(with.propagation_time.is_some());
            assert!(
                with.ws_quality.recall >= without.ws_quality.recall * 0.9,
                "LP should not collapse recall: {:?} vs {:?}",
                with.ws_quality,
                without.ws_quality
            );
        }
    }

    #[test]
    fn curate_with_provided_lfs_uses_them() {
        let d = data();
        let cfg = CurationConfig { use_label_propagation: false, ..fast_config() };
        let lfs = crate::expert::expert_lfs(d.world.schema()).unwrap();
        let n = lfs.len();
        let out = curate_with_lfs(&d, &cfg, lfs, Duration::from_secs(7 * 3600));
        assert_eq!(out.lf_names.len(), n);
        assert_eq!(out.mining_time, Duration::from_secs(7 * 3600));
    }

    #[test]
    fn covered_flags_match_labels() {
        let d = data();
        let out = curate(&d, &CurationConfig { use_label_propagation: false, ..fast_config() });
        assert_eq!(out.covered.len(), d.pool.len());
        let n_cov = out.covered.iter().filter(|&&c| c).count();
        assert!(n_cov > 0);
        assert!((out.ws_quality.coverage - n_cov as f64 / d.pool.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn anchored_beats_majority_vote_on_f1() {
        let d = data();
        let base = fast_config();
        let anchored = curate(&d, &CurationConfig { use_label_propagation: false, ..base.clone() });
        let mv = curate(
            &d,
            &CurationConfig {
                use_label_propagation: false,
                label_model: LabelModelKind::MajorityVote,
                ..base
            },
        );
        assert!(
            anchored.ws_quality.f1 >= mv.ws_quality.f1 * 0.9,
            "anchored {:?} vs majority {:?}",
            anchored.ws_quality,
            mv.ws_quality
        );
    }

    #[test]
    fn em_label_model_still_runs() {
        let d = data();
        let out = curate(
            &d,
            &CurationConfig {
                use_label_propagation: false,
                label_model: LabelModelKind::Em,
                ..fast_config()
            },
        );
        assert_eq!(out.probabilistic_labels.len(), d.pool.len());
    }
}
