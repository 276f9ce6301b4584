//! Incremental curation: the batch pipeline of [`crate::curation`]
//! reorganized around *arrival batches* for the long-running serving loop
//! (ROADMAP item 2; the paper's deployment keeps curating as
//! organizational data arrives).
//!
//! The division of labor with `cm-serve`:
//!
//! - This module owns the *curation state machine*: LFs are mined once on
//!   the labeled text corpus, each arrival batch appends to the batch
//!   curation engine as one segment, the EM label model refits
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
//! The curator runs the batch pipeline's curation engine
//! ([`crate::curation`]): it builds the same `CurationSetup`, whose seed
//! block's table becomes the online graph's vertex table, appends each
//! batch with `CurationEngine::append_segment`, turns its graph into the
//! propagation LF through the same `SeedBlock::lf_from_graph`, joins that
//! column with `CurationEngine::fold`, and gathers by pattern id. Three
//! deliberate divergences from the one-shot batch pipeline, all inherent
//! to serving: similarity scales are fitted on the labeled corpus only
//! (the pool isn't known upfront), the label model is always the
//! warm-startable EM model rather than the dev-anchored one, and the graph
//! is the online one.
//!
//! **Cost model**: LF application, interning and the EM fit cost
//! O(batch + patterns) per ingest; what is pool-sized is the Jacobi
//! propagation solve and linear passes: the fold and the gathers. Each row's base-LF vote vector
//! is interned once, on arrival; a tick then folds every row's
//! `(base pattern, propagation vote)` pair through a dense three-slot
//! table into the label-matrix patterns, fits EM on those, and gathers
//! posteriors, coverage and abstain counts back to rows by pattern id.

use cm_featurespace::{CmError, CmResult, ErrorKind, FeatureTable, FrozenTable, SimilarityConfig};
use cm_labelmodel::{GenerativeConfig, GenerativeModel, LabelMatrix, WarmStart};
use cm_orgsim::{ModalityDataset, World};
use cm_par::ParConfig;
use cm_propagation::{OnlineGraph, OnlineGraphDelta, OnlineGraphState};

use crate::curation::{
    mine_text_lfs, sim_columns, CurationConfig, CurationEngine, CurationSetup, PoolPatterns,
    PropagationLf, SeedBlock,
};

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
    /// The batch curation engine; each ingested batch is one segment.
    engine: CurationEngine,
    prop: Option<PropScaffold>,
    pool: ModalityDataset,
    warm: Option<WarmStart>,
    em_iterations: usize,
    posteriors: Vec<f64>,
    covered: Vec<bool>,
    n_batches: usize,
    /// Pool rows already covered by the last durable export (state or
    /// delta).
    mark_rows: usize,
}

impl IncrementalCurator {
    /// Sets up the curator's clean-path scaffolding: mines LFs on the
    /// labeled text corpus and builds the batch pipeline's
    /// `CurationSetup` and engine from them; when propagation is enabled,
    /// fits similarity scales on the seed block's labeled rows and inserts
    /// them into the online graph. Reads `CM_THREADS` once, for mining
    /// and the setup's dev votes.
    pub fn new(world: &World, text: &ModalityDataset, config: IncrementalConfig) -> Self {
        let par = ParConfig::from_env();
        let lfs = mine_text_lfs(world.schema(), text, &config.curation, &par);
        let mut setup = CurationSetup::new(text, lfs, &config.curation, &par);
        let prop = setup.propagation.take().map(|block| {
            let sim = SimilarityConfig::uniform(sim_columns(world.schema(), &config.curation))
                .fit_scales(&block.table);
            let mut online = OnlineGraph::new(config.curation.prop_k);
            online.insert_rows(&FrozenTable::freeze(&block.table), &sim);
            PropScaffold { block, sim, online }
        });
        let pool = ModalityDataset {
            modality: cm_featurespace::ModalityKind::Image,
            table: FeatureTable::new(world.schema().clone()),
            labels: Vec::new(),
            borderline: Vec::new(),
        };
        IncrementalCurator {
            config,
            engine: CurationEngine::new(setup, 0),
            prop,
            pool,
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

    /// Current posteriors over the accumulated pool.
    pub fn posteriors(&self) -> &[f64] {
        &self.posteriors
    }

    /// Whether each accumulated pool row is covered by at least one LF.
    pub fn covered(&self) -> &[bool] {
        &self.covered
    }

    /// Guard inputs for a candidate batch, without mutating any state.
    pub fn preview_batch(&self, batch: &ModalityDataset, par: &ParConfig) -> BatchPreview {
        let matrix = LabelMatrix::apply_with(&batch.table, &self.engine.setup().lfs, par);
        let n = matrix.n_rows();
        let n_lfs = matrix.n_lfs();
        let covered = (0..n).filter(|&r| matrix.row(r).iter().any(|&v| v != 0)).count();
        let abstains: usize =
            (0..n).map(|r| matrix.row(r).iter().filter(|&&v| v == 0).count()).sum();
        let mean_entropy = self.warm.as_ref().map(|warm| {
            // Preview under the current model with the propagation column
            // abstaining (its votes are unknown until ingest). An abstain
            // adds nothing to a posterior, so the base LFs' parameters
            // give the same bits.
            let base = warm.accuracies[..n_lfs].to_vec();
            let model = GenerativeModel::from_params(base, warm.class_prior, self.em_iterations);
            mean_entropy(&model.predict_with(&matrix, par))
        });
        BatchPreview {
            coverage: covered as f64 / n.max(1) as f64,
            abstain_rate: abstains as f64 / (n * n_lfs).max(1) as f64,
            mean_entropy,
        }
    }

    /// Ingests one arrival batch: appends it to the engine as one segment,
    /// grows the propagation graph, refits the label model (warm-started
    /// after the first batch) on the folded vote patterns, and refreshes
    /// the pool posteriors.
    ///
    /// # Panics
    /// Panics if the batch's schema disagrees with the world's.
    pub fn ingest_batch(&mut self, batch: &ModalityDataset, par: &ParConfig) -> BatchStats {
        let batch_rows = batch.len();
        let start = self.pool.len();
        self.pool.table.extend_from(&batch.table);
        self.pool.labels.extend_from_slice(&batch.labels);
        self.pool.borderline.extend_from_slice(&batch.borderline);
        self.engine.append_segment(start, &batch.table, &batch.labels, par);
        if let Some(p) = &mut self.prop {
            p.block.table.extend_from(&batch.table);
            p.online.insert_rows(&FrozenTable::freeze(&p.block.table), &p.sim);
        }

        let pool = self.label_patterns();
        let gen_cfg = GenerativeConfig {
            class_prior: Some(self.engine.setup().prior),
            max_iters: if self.warm.is_some() {
                self.config.refit_max_iters
            } else {
                self.config.curation.generative.max_iters
            },
            ..self.config.curation.generative.clone()
        };
        let model =
            GenerativeModel::fit_patterns(&pool.patterns, &gen_cfg, self.warm.as_ref(), par);
        let abstains: usize =
            pool.ids[start..].iter().map(|&p| pool.patterns.abstains(p as usize)).sum();
        let n_lfs = pool.patterns.n_lfs();
        (self.posteriors, self.covered) = gather(&model, &pool);
        self.warm = Some(model.warm_start());
        self.em_iterations = model.iterations();
        self.n_batches += 1;

        let covered_in_batch = self.covered[start..].iter().filter(|&&c| c).count();
        BatchStats {
            batch_index: self.n_batches - 1,
            rows: batch_rows,
            total_rows: self.pool.len(),
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
            votes: self.engine.base_votes(0..self.pool.len()),
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
        let new_votes = self.engine.base_votes(self.mark_rows..self.pool.len());
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
    /// `_par` is unused: checkpointed votes are interned verbatim, so
    /// nothing is re-applied. It stays for callers of the earlier
    /// signature.
    ///
    /// # Panics
    /// Panics if the state disagrees with the configuration: a graph
    /// snapshot with propagation disabled (or vice versa), or votes that
    /// are not one valid vote per mined LF for every pool row.
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
        assert_eq!(
            state.votes.len(),
            state.pool.len() * c.engine.setup().lfs.len(),
            "checkpointed votes are not one per mined LF for every pool row"
        );
        c.pool = state.pool;
        c.engine.append_votes(0, c.pool.len(), state.votes, &c.pool.labels);
        c.n_batches = state.n_batches;
        c.mark_rows = c.pool.len();
        c.warm = state.em_warm;
        c.em_iterations = state.em_iterations;
        if let (Some(p), Some(g)) = (&mut c.prop, state.graph) {
            p.block.table.extend_from(&c.pool.table);
            p.online = OnlineGraph::from_snapshot(c.config.curation.prop_k, g);
        }
        if let Some(warm) = &c.warm {
            let model = GenerativeModel::from_params(
                warm.accuracies.clone(),
                warm.class_prior,
                c.em_iterations,
            );
            (c.posteriors, c.covered) = gather(&model, &c.label_patterns());
        }
        c
    }

    /// The pool's label matrix as vote patterns: the engine's, joined with
    /// propagation on by a freshly propagated-and-tuned column (all
    /// abstain when tuning clears no threshold).
    fn label_patterns(&self) -> PoolPatterns<'_> {
        let lf = (self.prop.as_ref())
            .map(|p| p.block.lf_from_graph(&p.online.graph(), &self.config.curation));
        self.engine.fold(lf.as_ref().map(|lf: &Option<PropagationLf>| {
            move |r| lf.as_ref().map_or(0, |l| l.pool_lf.vote_row(r).as_i8())
        }))
    }
}

/// Row posteriors and coverage under `model`, gathered by pattern id.
fn gather(model: &GenerativeModel, pool: &PoolPatterns<'_>) -> (Vec<f64>, Vec<bool>) {
    let by_pattern = model.predict_patterns(&pool.patterns);
    pool.gather(|p| (by_pattern[p], pool.patterns.covers(p)))
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
    use cm_labelmodel::VotePatterns;
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

    /// Every tick's fold and gather against the dense `[base | propagation]`
    /// pool matrix: EM fitted on its folded rows from the previous tick's
    /// parameters, posteriors predicted row by row.
    #[test]
    fn serve_ticks_match_a_dense_reference() {
        let (world, text, pool) = fixture();
        let par = ParConfig::serial();
        for propagation in [true, false] {
            let mut cfg = fast_config();
            cfg.curation.use_label_propagation = propagation;
            let (full, refit) = (cfg.curation.generative.max_iters, cfg.refit_max_iters);
            let mut cur = IncrementalCurator::new(&world, &text, cfg.clone());
            let (mut warm, mut column_voted) = (None::<WarmStart>, false);
            for b in batches(&pool, 60) {
                let start = cur.n_rows();
                let stats = cur.ingest_batch(&b, &par);
                let (setup, n) = (cur.engine.setup(), cur.n_rows());
                let base = LabelMatrix::apply_with(&cur.pool.table, &setup.lfs, &par);
                let prop = cur.prop.as_ref();
                let lf = prop.map(|p| p.block.lf_from_graph(&p.online.graph(), &cfg.curation));
                let mut votes = Vec::new();
                for r in 0..n {
                    votes.extend_from_slice(base.row(r));
                    votes.extend(
                        lf.as_ref()
                            .map(|lf| lf.as_ref().map_or(0, |l| l.pool_lf.vote_row(r).as_i8())),
                    );
                }
                let width = base.n_lfs() + usize::from(lf.is_some());
                let dense = LabelMatrix::from_votes(n, width, votes, vec![String::new(); width]);
                column_voted |= lf.is_some() && (0..n).any(|r| dense.row(r)[width - 1] != 0);
                let gen_cfg = GenerativeConfig {
                    class_prior: Some(setup.prior),
                    max_iters: if warm.is_some() { refit } else { full },
                    ..cfg.curation.generative.clone()
                };
                let patterns = VotePatterns::of_segments(&[&dense]);
                let model = GenerativeModel::fit_patterns(&patterns, &gen_cfg, warm.as_ref(), &par);

                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let want = model.predict_with(&dense, &par);
                assert_eq!(bits(cur.posteriors()), bits(&want), "tick {}", stats.batch_index);
                let covered: Vec<bool> =
                    (0..n).map(|r| dense.row(r).iter().any(|&v| v != 0)).collect();
                assert_eq!(cur.covered(), &covered[..]);
                let batch_covered = covered[start..].iter().filter(|&&c| c).count();
                let abstains: usize =
                    (start..n).map(|r| dense.row(r).iter().filter(|&&v| v == 0).count()).sum();
                let rate = |k: usize, of: usize| (k as f64 / of.max(1) as f64).to_bits();
                assert_eq!(
                    [stats.coverage.to_bits(), stats.abstain_rate.to_bits()],
                    [rate(batch_covered, n - start), rate(abstains, (n - start) * width)]
                );
                assert_eq!(stats.em_iterations, model.iterations());
                warm = Some(model.warm_start());
            }
            assert_eq!(column_voted, propagation, "the propagation column must vote");
        }
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
