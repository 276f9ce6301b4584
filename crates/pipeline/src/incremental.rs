//! Incremental curation: the batch pipeline of [`crate::curation`]
//! reorganized around *arrival batches* for the long-running serving loop
//! (ROADMAP item 2; the paper's deployment keeps curating as
//! organizational data arrives).
//!
//! The division of labor with `cm-serve`:
//!
//! - This module owns the *curation state machine*: LFs are mined once on
//!   the labeled text corpus, each arrival batch's votes append to the
//!   accumulated pool votes and vote patterns, the EM label model refits
//!   warm-started from the previous fit ([`cm_labelmodel::WarmStart`]),
//!   and the propagation graph grows by online anchor insertion
//!   ([`cm_propagation::OnlineGraph`]) instead of full rebuilds.
//! - `cm-serve` owns the *robustness envelope*: admission control,
//!   quality guards, quarantine, and checkpointing. The curator supports
//!   it with [`IncrementalCurator::preview_batch`] (guard inputs without
//!   state mutation) and [`IncrementalCurator::export_state`] /
//!   [`IncrementalCurator::restore`] (crash recovery).
//!
//! **Resume contract**: `restore(world, text, config, state)` rebuilds a
//! curator whose observable behavior — posteriors, coverage, and every
//! subsequent ingest — is bit-identical to the curator that exported the
//! state and never stopped. Everything derivable from the clean-path
//! inputs (mined LFs, dev split, similarity scales, seed vertices) is
//! recomputed deterministically; only the state that depends on the
//! faulty arrival history (pool rows, EM parameters, graph routing) rides
//! in [`IncrementalState`].
//!
//! The curator starts from the batch engine's `CurationSetup`
//! ([`crate::curation`]) — LF names, prior, and the propagation seed
//! block, whose table becomes the online graph's vertex table — and turns
//! its graph into the propagation LF through the same
//! `SeedBlock::lf_from_graph`. Two deliberate divergences from the
//! one-shot batch pipeline, both inherent to serving: similarity scales
//! are fitted on the labeled corpus only (the pool isn't known upfront),
//! and the label model is always the warm-startable EM model rather than
//! the dev-anchored one.
//!
//! **Cost model**: an ingest costs O(batch + patterns) plus the Jacobi
//! propagation solve. Each row's base-LF vote vector is interned once, on
//! arrival, into a [`VotePatterns`] table; a tick then folds every row's
//! `(base pattern, propagation vote)` pair through a dense three-slot
//! table into the label-matrix patterns, fits EM on those, and gathers
//! posteriors, coverage and abstain counts back to rows by pattern id.

use cm_featurespace::{CmError, CmResult, ErrorKind, FeatureTable, FrozenTable, SimilarityConfig};
use cm_labelmodel::{
    GenerativeConfig, GenerativeModel, LabelMatrix, LabelingFunction, VotePatterns, WarmStart,
};
use cm_mining::mine_lfs;
use cm_orgsim::{ModalityDataset, World};
use cm_par::ParConfig;
use cm_propagation::{OnlineGraph, OnlineGraphDelta, OnlineGraphState};

use crate::curation::{lf_columns, sim_columns, CurationConfig, CurationSetup, SeedBlock};

/// Configuration of the incremental curator.
#[derive(Debug, Clone)]
pub struct IncrementalConfig {
    /// The underlying curation settings (mining thresholds, propagation
    /// knobs, seeds). `label_model` is ignored: serving always uses the
    /// warm-startable EM model.
    pub curation: CurationConfig,
    /// EM iteration cap for warm-started refits (the first fit runs the
    /// full `curation.generative.max_iters`). Twenty keeps the warm chain
    /// within a few percent of the from-scratch posterior (see the
    /// `batch_cuts_only_perturb_em_within_tolerance` test).
    pub refit_max_iters: usize,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        Self { curation: CurationConfig::default(), refit_max_iters: 20 }
    }
}

/// Per-batch telemetry, computed over the batch's own rows. The serving
/// layer's quality guards consume these.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStats {
    /// Zero-based index of the ingested batch.
    pub batch_index: usize,
    /// Rows in this batch.
    pub rows: usize,
    /// Pool rows accumulated after the batch.
    pub total_rows: usize,
    /// Fraction of batch rows covered by at least one LF.
    pub coverage: f64,
    /// Fraction of abstain votes over the batch's label-matrix cells.
    pub abstain_rate: f64,
    /// Mean binary entropy of the batch rows' posteriors.
    pub mean_entropy: f64,
    /// EM iterations the refit ran.
    pub em_iterations: usize,
}

/// Guard inputs computed for a *candidate* batch without mutating any
/// state: votes from the mined LFs only (the propagation column is
/// unknown until ingest) and posterior entropy under the current model.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPreview {
    /// Fraction of batch rows covered by at least one mined LF.
    pub coverage: f64,
    /// Fraction of abstain votes over the batch's base-LF cells.
    pub abstain_rate: f64,
    /// Mean posterior entropy under the current model; `None` before the
    /// first fit.
    pub mean_entropy: Option<f64>,
}

/// The arrival-dependent state of an [`IncrementalCurator`] — everything
/// a checkpoint must persist to resume bit-identically. Serialized by
/// `cm-serve`'s snapshot module (the `checkpoint-drift` lint confines
/// field access to that module and to this crate).
#[derive(Debug, Clone)]
pub struct IncrementalState {
    /// Batches ingested so far.
    pub n_batches: usize,
    /// The accumulated pool: featurized arrival rows in ingest order.
    pub pool: ModalityDataset,
    /// Accumulated base-LF votes, row-major `pool.len() x n_base_lfs`.
    pub votes: Vec<i8>,
    /// EM parameters of the current model, if any batch has been fitted.
    pub em_warm: Option<WarmStart>,
    /// Iterations the last refit ran (restored for reporting parity).
    pub em_iterations: usize,
    /// Online propagation-graph routing state, when propagation is on.
    pub graph: Option<OnlineGraphState>,
}

/// Everything an [`IncrementalCurator`] accreted since its last durable
/// point: the payload of one checkpoint delta record, O(batch) where the
/// full [`IncrementalState`] is O(pool). The EM parameters ride whole in
/// every delta — they are a handful of floats and change entirely on each
/// refit, so there is nothing incremental about them.
#[derive(Debug, Clone)]
pub struct IncrementalDelta {
    /// Batches ingested after this delta (absolute, for replay checks).
    pub n_batches: usize,
    /// Pool rows appended since the last durable point.
    pub new_rows: ModalityDataset,
    /// Base-LF votes for the appended rows, row-major.
    pub new_votes: Vec<i8>,
    /// Full EM parameters after the latest refit.
    pub em_warm: Option<WarmStart>,
    /// Iterations the latest refit ran.
    pub em_iterations: usize,
    /// Growth of the online propagation graph, when propagation is on.
    pub graph: Option<OnlineGraphDelta>,
}

impl IncrementalState {
    /// Applies one exported delta in place: pure appends plus the EM
    /// parameter swap. Replaying a base state through every delta in
    /// export order reproduces [`IncrementalCurator::export_state`]'s
    /// output at the same point, bit-identically.
    ///
    /// # Errors
    /// Fails, leaving the state untouched, if the delta's votes per row
    /// differ from this state's, if its propagation-graph presence
    /// disagrees with this state's, or if the graph delta misaligns (see
    /// [`OnlineGraphState::apply_delta`]).
    pub fn apply_delta(&mut self, delta: &IncrementalDelta) -> CmResult<()> {
        const LOC: &str = "IncrementalState::apply_delta";
        let (rows, new_rows) = (self.pool.len(), delta.new_rows.len());
        let whole = |votes: usize, rows: usize| votes == 0 || votes.checked_rem(rows) == Some(0);
        let aligned = whole(self.votes.len(), rows)
            && whole(delta.new_votes.len(), new_rows)
            && (rows == 0
                || new_rows == 0
                || self.votes.len() / rows == delta.new_votes.len() / new_rows);
        if !aligned {
            return Err(CmError::new(
                ErrorKind::ShapeMismatch,
                LOC,
                format!(
                    "delta votes ({} over {new_rows} rows) do not match the base's width \
                     ({} over {rows} rows)",
                    delta.new_votes.len(),
                    self.votes.len()
                ),
            ));
        }
        match (&mut self.graph, &delta.graph) {
            (Some(g), Some(d)) => g.apply_delta(d)?,
            (None, None) => {}
            _ => {
                return Err(CmError::new(
                    ErrorKind::ShapeMismatch,
                    LOC,
                    "delta graph presence disagrees with the base state",
                ))
            }
        }
        self.n_batches = delta.n_batches;
        self.pool.table.extend_from(&delta.new_rows.table);
        self.pool.labels.extend_from_slice(&delta.new_rows.labels);
        self.pool.borderline.extend_from_slice(&delta.new_rows.borderline);
        self.votes.extend_from_slice(&delta.new_votes);
        self.em_warm = delta.em_warm.clone();
        self.em_iterations = delta.em_iterations;
        Ok(())
    }
}

struct PropScaffold {
    /// The batch pipeline's seed block. Every ingested pool row is
    /// appended to its table, which is the vertex table the online graph
    /// indexes into.
    block: SeedBlock,
    /// Similarity config fitted on the block's labeled rows.
    sim: SimilarityConfig,
    online: OnlineGraph,
}

/// The incremental curation state machine. See the module docs for the
/// serving contract.
pub struct IncrementalCurator {
    config: IncrementalConfig,
    lfs: Vec<Box<dyn LabelingFunction>>,
    lf_names: Vec<String>,
    prior: f64,
    prop: Option<PropScaffold>,
    pool: ModalityDataset,
    /// Base-LF votes over the pool, row-major `n_rows x n_base_lfs`.
    base_votes: Vec<i8>,
    /// Distinct base-LF vote vectors of the pool, with row counts.
    base_patterns: VotePatterns,
    /// Each pool row's pattern id in `base_patterns`.
    base_ids: Vec<u32>,
    warm: Option<WarmStart>,
    em_iterations: usize,
    posteriors: Vec<f64>,
    covered: Vec<bool>,
    n_batches: usize,
    /// Pool rows already covered by the last durable export (state or
    /// delta); the vote mark is `mark_rows * lfs.len()` by construction.
    mark_rows: usize,
}

impl IncrementalCurator {
    /// Sets up the curator's clean-path scaffolding: mines LFs on the
    /// labeled text corpus and builds the batch pipeline's
    /// `CurationSetup` from them; when propagation is enabled, fits
    /// similarity scales on the seed block's labeled rows and inserts them
    /// into the online graph.
    pub fn new(world: &World, text: &ModalityDataset, config: IncrementalConfig) -> Self {
        let columns = lf_columns(world.schema(), &config.curation);
        let mined = mine_lfs(
            &text.table,
            &text.labels,
            &columns,
            &config.curation.mining,
            config.curation.max_positive_lfs,
            config.curation.max_negative_lfs,
        );
        // Serving fits EM on pool votes alone and never reads the setup's
        // dev matrix; votes are thread-count invariant, so the small
        // labeled corpus is applied serially.
        let CurationSetup { lfs, mut lf_names, prior, propagation, .. } =
            CurationSetup::new(text, mined.lfs, &config.curation, &ParConfig::serial());
        let prop = propagation.map(|block| {
            let sim = SimilarityConfig::uniform(sim_columns(world.schema(), &config.curation))
                .fit_scales(&block.table);
            let mut online = OnlineGraph::new(config.curation.prop_k);
            online.insert_rows(&FrozenTable::freeze(&block.table), &sim);
            PropScaffold { block, sim, online }
        });
        if prop.is_some() {
            lf_names.push("label_propagation".to_owned());
        }

        let pool = ModalityDataset {
            modality: cm_featurespace::ModalityKind::Image,
            table: FeatureTable::new(world.schema().clone()),
            labels: Vec::new(),
            borderline: Vec::new(),
        };
        let base_patterns = VotePatterns::new(lfs.len());
        IncrementalCurator {
            config,
            lfs,
            lf_names,
            prior,
            prop,
            pool,
            base_votes: Vec::new(),
            base_patterns,
            base_ids: Vec::new(),
            warm: None,
            em_iterations: 0,
            posteriors: Vec::new(),
            covered: Vec::new(),
            n_batches: 0,
            mark_rows: 0,
        }
    }

    /// Batches ingested so far.
    pub fn n_batches(&self) -> usize {
        self.n_batches
    }

    /// Pool rows accumulated so far.
    pub fn n_rows(&self) -> usize {
        self.pool.len()
    }

    /// The accumulated pool dataset.
    pub fn pool(&self) -> &ModalityDataset {
        &self.pool
    }

    /// LF names, one per label-matrix column (propagation last, if on).
    pub fn lf_names(&self) -> &[String] {
        &self.lf_names
    }

    /// Current posteriors over the accumulated pool.
    pub fn posteriors(&self) -> &[f64] {
        &self.posteriors
    }

    /// Whether each accumulated pool row is covered by at least one LF.
    pub fn covered(&self) -> &[bool] {
        &self.covered
    }

    /// Class prior (clamped text positive rate) pinned in every fit.
    pub fn prior(&self) -> f64 {
        self.prior
    }

    /// Guard inputs for a candidate batch, without mutating any state.
    pub fn preview_batch(&self, batch: &ModalityDataset, par: &ParConfig) -> BatchPreview {
        let matrix = LabelMatrix::apply_with(&batch.table, &self.lfs, par);
        let n = matrix.n_rows();
        let n_lfs = matrix.n_lfs();
        let covered = (0..n).filter(|&r| matrix.row(r).iter().any(|&v| v != 0)).count();
        let abstains: usize =
            (0..n).map(|r| matrix.row(r).iter().filter(|&&v| v == 0).count()).sum();
        let mean_entropy = self.warm.as_ref().map(|_| {
            // Preview under the current model with the propagation column
            // abstaining (its votes are unknown until ingest).
            let model = self.current_model();
            let mut votes = Vec::with_capacity(n * self.lf_names.len());
            for r in 0..n {
                votes.extend_from_slice(matrix.row(r));
                if self.prop.is_some() {
                    votes.push(0);
                }
            }
            let full =
                LabelMatrix::from_votes(n, self.lf_names.len(), votes, self.lf_names.clone());
            mean_entropy(&model.predict_with(&full, par))
        });
        BatchPreview {
            coverage: covered as f64 / n.max(1) as f64,
            abstain_rate: abstains as f64 / (n * n_lfs).max(1) as f64,
            mean_entropy,
        }
    }

    /// Ingests one arrival batch: appends its rows and votes, grows the
    /// propagation graph, refits the label model (warm-started after the
    /// first batch) on the folded vote patterns, and refreshes the pool
    /// posteriors.
    ///
    /// # Panics
    /// Panics if the batch's schema disagrees with the world's.
    pub fn ingest_batch(&mut self, batch: &ModalityDataset, par: &ParConfig) -> BatchStats {
        let batch_rows = batch.len();
        self.pool.table.extend_from(&batch.table);
        self.pool.labels.extend_from_slice(&batch.labels);
        self.pool.borderline.extend_from_slice(&batch.borderline);
        let batch_matrix = LabelMatrix::apply_with(&batch.table, &self.lfs, par);
        for r in 0..batch_rows {
            self.push_base_row(batch_matrix.row(r));
        }
        if let Some(p) = &mut self.prop {
            p.block.table.extend_from(&batch.table);
            p.online.insert_rows(&FrozenTable::freeze(&p.block.table), &p.sim);
        }

        let folded = self.fold_patterns();
        let (patterns, ids) = self.patterns_view(&folded);
        let gen_cfg = GenerativeConfig {
            class_prior: Some(self.prior),
            max_iters: if self.warm.is_some() {
                self.config.refit_max_iters
            } else {
                self.config.curation.generative.max_iters
            },
            ..self.config.curation.generative.clone()
        };
        let model = GenerativeModel::fit_patterns(patterns, &gen_cfg, self.warm.as_ref(), par);
        let n = self.pool.len();
        let start = n - batch_rows;
        let abstains: usize = ids[start..].iter().map(|&p| patterns.abstains(p as usize)).sum();
        let n_lfs = patterns.n_lfs();
        let (posteriors, covered) = gather_outputs(&model, patterns, ids);
        self.posteriors = posteriors;
        self.covered = covered;
        self.warm = Some(model.warm_start());
        self.em_iterations = model.iterations();
        self.n_batches += 1;

        let covered_in_batch = self.covered[start..].iter().filter(|&&c| c).count();
        BatchStats {
            batch_index: self.n_batches - 1,
            rows: batch_rows,
            total_rows: n,
            coverage: covered_in_batch as f64 / batch_rows.max(1) as f64,
            abstain_rate: abstains as f64 / (batch_rows * n_lfs).max(1) as f64,
            mean_entropy: mean_entropy(&self.posteriors[start..]),
            em_iterations: self.em_iterations,
        }
    }

    /// Exports the arrival-dependent state for checkpointing and declares
    /// it durable: the next [`IncrementalCurator::export_delta`] reports
    /// only growth after this call. O(pool) — the delta-log base record.
    pub fn export_state(&mut self) -> IncrementalState {
        self.mark_rows = self.pool.len();
        IncrementalState {
            n_batches: self.n_batches,
            pool: self.pool.clone(),
            votes: self.base_votes.clone(),
            em_warm: self.warm.clone(),
            em_iterations: self.em_iterations,
            graph: self.prop.as_mut().map(|p| {
                p.online.mark_durable();
                p.online.snapshot()
            }),
        }
    }

    /// Exports everything ingested since the last durable point — cost
    /// proportional to the new batches, not the accumulated pool — and
    /// advances the durable mark. The delta-log append record.
    pub fn export_delta(&mut self) -> IncrementalDelta {
        let idx: Vec<usize> = (self.mark_rows..self.pool.len()).collect();
        let new_rows = self.pool.gather(&idx);
        let new_votes = self.base_votes[self.mark_rows * self.lfs.len()..].to_vec();
        self.mark_rows = self.pool.len();
        IncrementalDelta {
            n_batches: self.n_batches,
            new_rows,
            new_votes,
            em_warm: self.warm.clone(),
            em_iterations: self.em_iterations,
            graph: self.prop.as_mut().map(|p| p.online.export_delta()),
        }
    }

    /// Rebuilds a curator from a checkpointed state. `world`, `text`, and
    /// `config` must match the original run's; the clean-path scaffolding
    /// is re-derived from them and the arrival-dependent state is
    /// restored, after which behavior is bit-identical to the exporting
    /// curator's.
    ///
    /// `_par` is unused: checkpointed votes are taken verbatim, so nothing
    /// is re-applied. It stays for callers of the earlier signature.
    ///
    /// # Panics
    /// Panics if the state disagrees with the configuration: a graph
    /// snapshot with propagation disabled (or vice versa), or votes that
    /// are not one per mined LF for every pool row.
    pub fn restore(
        world: &World,
        text: &ModalityDataset,
        config: IncrementalConfig,
        state: IncrementalState,
        _par: &ParConfig,
    ) -> Self {
        let mut c = Self::new(world, text, config);
        assert_eq!(
            c.prop.is_some(),
            state.graph.is_some(),
            "checkpointed graph state disagrees with the propagation setting"
        );
        let n_base = c.lfs.len();
        assert_eq!(
            state.votes.len(),
            state.pool.len() * n_base,
            "checkpointed votes are not one per mined LF for every pool row"
        );
        c.pool = state.pool;
        for r in 0..c.pool.len() {
            c.push_base_row(&state.votes[r * n_base..(r + 1) * n_base]);
        }
        c.n_batches = state.n_batches;
        c.mark_rows = c.pool.len();
        c.warm = state.em_warm;
        c.em_iterations = state.em_iterations;
        if let (Some(p), Some(g)) = (&mut c.prop, state.graph) {
            p.block.table.extend_from(&c.pool.table);
            p.online = OnlineGraph::from_snapshot(c.config.curation.prop_k, g);
        }
        if c.warm.is_some() {
            let folded = c.fold_patterns();
            let (patterns, ids) = c.patterns_view(&folded);
            let (posteriors, covered) = gather_outputs(&c.current_model(), patterns, ids);
            c.posteriors = posteriors;
            c.covered = covered;
        }
        c
    }

    /// The model implied by the current warm-start parameters.
    ///
    /// # Panics
    /// Panics before the first fit.
    fn current_model(&self) -> GenerativeModel {
        // lint: allow(expect) — documented panic: callers gate on `warm.is_some()`
        let warm = self.warm.as_ref().expect("no model fitted yet");
        GenerativeModel::from_params(warm.accuracies.clone(), warm.class_prior, self.em_iterations)
    }

    /// Appends one pool row's base-LF votes and interns its pattern.
    fn push_base_row(&mut self, votes: &[i8]) {
        self.base_votes.extend_from_slice(votes);
        self.base_ids.push(self.base_patterns.observe(votes) as u32);
    }

    /// The pool label matrix as vote patterns. Without propagation that is
    /// the base-pattern table itself (`None`). With it, a freshly
    /// propagated-and-tuned column (all abstain when tuning clears no
    /// threshold) is folded in: `(base pattern, vote)` pairs map through
    /// a dense three-slot table, so only a pair's first row pays a lookup.
    /// Returns the patterns and each row's pattern id.
    fn fold_patterns(&self) -> Option<(VotePatterns, Vec<u32>)> {
        let p = self.prop.as_ref()?;
        let lf = p.block.lf_from_graph(&p.online.graph(), &self.config.curation);
        let mut patterns = VotePatterns::new(self.lfs.len() + 1);
        let mut slots = vec![u32::MAX; self.base_patterns.len() * 3];
        let mut ids = Vec::with_capacity(self.base_ids.len());
        let mut dense = Vec::new();
        for (r, &base) in self.base_ids.iter().enumerate() {
            let vote = lf.as_ref().map_or(0, |l| l.pool_lf.vote_row(r).as_i8());
            let slot = &mut slots[base as usize * 3 + (vote + 1) as usize];
            if *slot == u32::MAX {
                self.base_patterns.dense_into(base as usize, &mut dense);
                dense.push(vote);
                *slot = patterns.observe(&dense) as u32;
            } else {
                patterns.add_rows(*slot as usize, 1);
            }
            ids.push(*slot);
        }
        Some((patterns, ids))
    }

    /// The patterns and row ids [`IncrementalCurator::fold_patterns`]
    /// produced, or the base ones when it folded nothing in.
    fn patterns_view<'a>(
        &'a self,
        folded: &'a Option<(VotePatterns, Vec<u32>)>,
    ) -> (&'a VotePatterns, &'a [u32]) {
        match folded {
            Some((patterns, ids)) => (patterns, ids),
            None => (&self.base_patterns, &self.base_ids),
        }
    }
}

/// Row posteriors and coverage, gathered from per-pattern values.
fn gather_outputs(
    model: &GenerativeModel,
    patterns: &VotePatterns,
    ids: &[u32],
) -> (Vec<f64>, Vec<bool>) {
    let by_pattern = model.predict_patterns(patterns);
    let covers: Vec<bool> = (0..patterns.len()).map(|p| patterns.covers(p)).collect();
    (
        ids.iter().map(|&p| by_pattern[p as usize]).collect(),
        ids.iter().map(|&p| covers[p as usize]).collect(),
    )
}

/// Mean binary entropy (nats) of a posterior slice; `0.0` when empty.
pub fn mean_entropy(posteriors: &[f64]) -> f64 {
    if posteriors.is_empty() {
        return 0.0;
    }
    let sum: f64 = posteriors
        .iter()
        .map(|&q| {
            let q = q.clamp(1e-12, 1.0 - 1e-12);
            -(q * q.ln() + (1.0 - q) * (1.0 - q).ln())
        })
        .sum();
    sum / posteriors.len() as f64
}

#[cfg(test)]
mod tests {
    use cm_orgsim::{TaskConfig, TaskId, WorldConfig};

    use super::*;

    fn fixture() -> (World, ModalityDataset, ModalityDataset) {
        let task = TaskConfig::paper(TaskId::Ct2).scaled(0.02);
        let seed = 5u64;
        let world = World::build(WorldConfig::new(task.clone(), seed));
        let ds = seed ^ 0xD1CE;
        let text =
            world.generate(cm_featurespace::ModalityKind::Text, task.n_text_labeled, ds ^ 0x1);
        let pool =
            world.generate(cm_featurespace::ModalityKind::Image, task.n_image_unlabeled, ds ^ 0x2);
        (world, text, pool)
    }

    fn fast_config() -> IncrementalConfig {
        IncrementalConfig {
            curation: CurationConfig {
                prop_max_seeds: 400,
                mining: cm_mining::MiningConfig { min_recall: 0.05, ..Default::default() },
                ..Default::default()
            },
            refit_max_iters: 20,
        }
    }

    fn batches(pool: &ModalityDataset, size: usize) -> Vec<ModalityDataset> {
        let mut out = Vec::new();
        let mut start = 0;
        while start < pool.len() {
            let end = (start + size).min(pool.len());
            let idx: Vec<usize> = (start..end).collect();
            out.push(pool.gather(&idx));
            start = end;
        }
        out
    }

    #[test]
    fn incremental_ingest_produces_useful_labels() {
        let (world, text, pool) = fixture();
        let mut cur = IncrementalCurator::new(&world, &text, fast_config());
        let par = ParConfig::threads(2);
        for b in batches(&pool, 60) {
            let stats = cur.ingest_batch(&b, &par);
            assert_eq!(stats.total_rows, cur.n_rows());
            assert!(stats.coverage >= 0.0 && stats.coverage <= 1.0);
        }
        assert_eq!(cur.n_rows(), pool.len());
        assert_eq!(cur.posteriors().len(), pool.len());
        // Posterior quality against hidden ground truth, as in the batch
        // pipeline's diagnostics.
        let mut tp = 0usize;
        let mut fp = 0usize;
        for ((&q, &cov), label) in cur.posteriors().iter().zip(cur.covered()).zip(&pool.labels) {
            if cov && q >= 0.5 {
                if label.is_positive() {
                    tp += 1;
                } else {
                    fp += 1;
                }
            }
        }
        let precision = tp as f64 / (tp + fp).max(1) as f64;
        assert!(precision > 0.5, "precision {precision} (tp {tp}, fp {fp})");
    }

    #[test]
    fn batch_cuts_only_perturb_em_within_tolerance() {
        let (world, text, pool) = fixture();
        let par = ParConfig::threads(2);
        let mut one = IncrementalCurator::new(&world, &text, fast_config());
        let idx: Vec<usize> = (0..pool.len()).collect();
        one.ingest_batch(&pool.gather(&idx), &par);
        let mut many = IncrementalCurator::new(&world, &text, fast_config());
        for b in batches(&pool, 60) {
            many.ingest_batch(&b, &par);
        }
        // The graph is cut-invariant, so coverage is exact; only the EM
        // warm-start chain may drift, and it must stay small.
        assert_eq!(one.covered(), many.covered());
        let max_dq = one
            .posteriors()
            .iter()
            .zip(many.posteriors())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(max_dq < 0.05, "posterior drift {max_dq}");
    }

    #[test]
    fn export_restore_resumes_bit_identically() {
        let (world, text, pool) = fixture();
        let par = ParConfig::threads(2);
        let all = batches(&pool, 60);
        let mut whole = IncrementalCurator::new(&world, &text, fast_config());
        for b in &all {
            whole.ingest_batch(b, &par);
        }
        let mut first = IncrementalCurator::new(&world, &text, fast_config());
        for b in &all[..2] {
            first.ingest_batch(b, &par);
        }
        let state = first.export_state();
        let mut resumed = IncrementalCurator::restore(&world, &text, fast_config(), state, &par);
        assert_eq!(resumed.posteriors(), first.posteriors());
        let mut stats_resumed = Vec::new();
        let mut stats_first = Vec::new();
        for b in &all[2..] {
            stats_resumed.push(resumed.ingest_batch(b, &par));
            stats_first.push(first.ingest_batch(b, &par));
        }
        assert_eq!(stats_resumed, stats_first);
        assert_eq!(resumed.posteriors(), whole.posteriors());
        assert_eq!(resumed.covered(), whole.covered());
    }

    #[test]
    fn delta_replay_restores_bit_identically() {
        let (world, text, pool) = fixture();
        let par = ParConfig::threads(2);
        let all = batches(&pool, 60);
        // Live run: base export after batch 0, one delta per later batch.
        let mut live = IncrementalCurator::new(&world, &text, fast_config());
        live.ingest_batch(&all[0], &par);
        let mut replayed = live.export_state();
        let mut deltas = Vec::new();
        for b in &all[1..] {
            live.ingest_batch(b, &par);
            deltas.push(live.export_delta());
        }
        for d in &deltas {
            replayed.apply_delta(d).unwrap();
        }
        // The replayed state matches a fresh O(pool) export field-by-field
        // (the pool table has no equality; its votes and labels pin it).
        let full = live.export_state();
        assert_eq!(replayed.n_batches, full.n_batches);
        assert_eq!(replayed.votes, full.votes);
        assert_eq!(replayed.em_warm, full.em_warm);
        assert_eq!(replayed.em_iterations, full.em_iterations);
        assert_eq!(replayed.graph, full.graph);
        assert_eq!(replayed.pool.labels, full.pool.labels);
        assert_eq!(replayed.pool.borderline, full.pool.borderline);
        // A curator restored from the replayed state behaves identically.
        let resumed = IncrementalCurator::restore(&world, &text, fast_config(), replayed, &par);
        assert_eq!(resumed.posteriors(), live.posteriors());
        assert_eq!(resumed.covered(), live.covered());
    }

    #[test]
    fn export_delta_after_export_state_is_empty() {
        let (world, text, pool) = fixture();
        let par = ParConfig::threads(1);
        let all = batches(&pool, 60);
        let mut cur = IncrementalCurator::new(&world, &text, fast_config());
        cur.ingest_batch(&all[0], &par);
        let _ = cur.export_state();
        let idle = cur.export_delta();
        assert_eq!(idle.new_rows.len(), 0);
        assert!(idle.new_votes.is_empty());
        assert_eq!(idle.n_batches, 1);
        if let Some(g) = &idle.graph {
            assert!(g.new_edges.is_empty() && g.new_anchors.is_empty());
        }
    }

    #[test]
    fn preview_does_not_mutate_state() {
        let (world, text, pool) = fixture();
        let par = ParConfig::threads(1);
        let mut cur = IncrementalCurator::new(&world, &text, fast_config());
        let all = batches(&pool, 60);
        cur.ingest_batch(&all[0], &par);
        let before = cur.posteriors().to_vec();
        let preview = cur.preview_batch(&all[1], &par);
        assert!(preview.mean_entropy.is_some());
        assert_eq!(cur.posteriors(), &before[..]);
        assert_eq!(cur.n_batches(), 1);
        let stats = cur.ingest_batch(&all[1], &par);
        // Preview coverage is computed on the same base votes.
        assert!((preview.coverage - stats.coverage).abs() < 0.35);
    }

    #[test]
    fn warm_refits_run_fewer_iterations() {
        let (world, text, pool) = fixture();
        let par = ParConfig::threads(1);
        let cfg = fast_config();
        let full_iters = cfg.curation.generative.max_iters;
        let mut cur = IncrementalCurator::new(&world, &text, cfg);
        let all = batches(&pool, 60);
        let first = cur.ingest_batch(&all[0], &par);
        assert!(first.em_iterations <= full_iters);
        for b in &all[1..] {
            let stats = cur.ingest_batch(b, &par);
            assert!(stats.em_iterations <= 20, "refit ran {} iterations", stats.em_iterations);
        }
    }
}
