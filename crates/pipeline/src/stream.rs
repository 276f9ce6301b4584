//! Sharded out-of-core curation driver.
//!
//! [`curate_streamed_with`] runs the full curation step — LF mining,
//! optional label propagation, LF application, and the label model —
//! without ever materializing the unlabeled pool: `orgsim` generation is
//! consumed in `CM_SHARD_ROWS`-sized segments under an explicit
//! `CM_MEM_BUDGET` ([`cm_shard::MemTracker`] fails a run rather than
//! exceed it), and every per-shard statistic merges deterministically in
//! shard-index order.
//!
//! The output is **bit-identical** to the resident driver
//! ([`crate::curation::curate`]) over [`crate::data::TaskData::generate`]
//! with the same `(task, seed, config)`, at any shard size and any
//! `CM_THREADS` — durations excepted. Both drivers run the one curation
//! engine of [`crate::curation`], and each stage's resident computation is
//! the single-segment case:
//!
//! - **mining** — the labeled text corpus is resident, so its catalog and
//!   item bitsets are built in one pass over it, exactly as the resident
//!   miner does;
//! - **propagation** — the seed block's one path
//!   (`SeedBlock::propagation_lf`): similarity scales from the exact
//!   `ScaleAccumulator` pair and the k-NN graph from the segment sweep,
//!   with the pool streamed instead of lent whole;
//! - **LF application** — votes are pure per-row, so each pool segment's
//!   base-LF vote vectors intern, in offset order, into one pattern
//!   table, the same table a whole-pool append builds; the propagation
//!   column joins those patterns at labelling time, as in every driver;
//! - **the label model** — fitted on the dev corpus (anchored) or on exact
//!   mergeable moments over the patterns (EM), and evaluated once per
//!   pattern, both thread- and segmentation-invariant.
//!
//! The labeled text corpus stays resident: it is the small old-modality
//! dev set every stage anchors to, orders of magnitude smaller than the
//! pools this driver exists for.

use cm_faults::Stopwatch;
use cm_featurespace::{CmResult, FrozenTable, ModalityKind};
use cm_mining::{lfs_from_itemsets, mine_from_bitsets, ItemCatalogBuilder};
use cm_orgsim::{TaskConfig, World, WorldConfig};
use cm_par::ParConfig;
use cm_shard::corpus::dataset_bytes;
use cm_shard::{for_each_pool_segment, MemTracker, ShardConfig, StreamSpec};

use crate::curation::{
    lf_columns, CurationConfig, CurationEngine, CurationOutput, CurationSetup, PoolRows,
};

/// Telemetry from a streamed curation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Pool segments streamed by the LF-application pass.
    pub segments: usize,
    /// Rows per segment the run was sharded at.
    pub segment_rows: usize,
    /// High-water mark of tracked resident bytes.
    pub peak_bytes: usize,
    /// Total pool rows curated.
    pub pool_rows: usize,
}

/// Wall-clock per-stage timing of a streamed run. Out-of-band telemetry
/// for the scale bench (locating where throughput goes as pools grow) —
/// never part of the bit-identity contract. The stages are disjoint.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamStageTiming {
    /// LF mining over the resident labeled corpus (catalog, bitsets,
    /// joins).
    pub mining: std::time::Duration,
    /// Sharded scale fit + graph build + propagation (zero when disabled).
    pub propagation: std::time::Duration,
    /// Pool segment generation: the pool sweep's time outside
    /// [`StreamStageTiming::lf_application`].
    pub generation: std::time::Duration,
    /// Applying the LFs to each pool segment and interning its vote
    /// vectors.
    pub lf_application: std::time::Duration,
    /// Label-model fit and output assembly.
    pub model: std::time::Duration,
}

/// A streamed curation result: the (resident-identical) curation output
/// plus sharding telemetry.
pub struct StreamedCuration {
    /// The curation output, bit-identical to the resident driver's.
    pub output: CurationOutput,
    /// Sharding and memory telemetry.
    pub stats: StreamStats,
    /// Per-stage wall-clock timing (out-of-band).
    pub timing: StreamStageTiming,
}

/// Runs sharded curation for `(task, seed)` under `shard`'s segment size
/// and memory budget. See the module docs for the equivalence contract.
///
/// # Errors
/// Returns [`cm_featurespace::ErrorKind::InvalidConfig`] when a stage
/// would have to hold more resident bytes than `shard.budget` allows.
pub fn curate_streamed_with(
    task: TaskConfig,
    seed: u64,
    config: &CurationConfig,
    shard: &ShardConfig,
    par: &ParConfig,
) -> CmResult<StreamedCuration> {
    let world = World::build(WorldConfig::new(task, seed));
    // The per-dataset seeds `TaskData::generate` derives; segment streams
    // with these seeds concatenate to its datasets bit for bit.
    let ds = seed ^ 0xD1CE;
    let n_text = world.config().task.n_text_labeled;
    let n_pool = world.config().task.n_image_unlabeled;
    let mut tracker = MemTracker::new(shard.budget);

    // The labeled text corpus stays resident; charge it for the duration.
    let text = world.generate(ModalityKind::Text, n_text, ds ^ 0x1);
    tracker.charge(dataset_bytes(&text), "labeled text corpus")?;

    // LF mining over the resident corpus, as `mine_itemsets_with` does it,
    // with the item bitsets charged before they are allocated.
    let mining_start = Stopwatch::start();
    let frozen = FrozenTable::freeze(&text.table);
    let columns = lf_columns(world.schema(), config);
    let mut catalog_builder =
        ItemCatalogBuilder::new(world.schema(), &columns, config.mining.numeric_bins);
    catalog_builder.observe(&frozen);
    let catalog = catalog_builder.finish();
    let bitset_bytes = catalog.bitset_bytes();
    tracker.charge(bitset_bytes, "item bitsets")?;
    let mut item_bits = catalog.empty_bitsets();
    catalog.fill(&frozen, 0, &mut item_bits);
    let mined = mine_from_bitsets(&catalog, &item_bits, &text.labels, &config.mining, par);
    drop(item_bits);
    tracker.release(bitset_bytes);
    let lfs = lfs_from_itemsets(&mined, config.max_positive_lfs, config.max_negative_lfs);
    let mut timing = StreamStageTiming { mining: mining_start.elapsed(), ..Default::default() };

    let mut setup = CurationSetup::new(&text, lfs, config, par);
    let start = Stopwatch::start();
    let prop = match setup.propagation.take() {
        Some(block) => {
            let spec = StreamSpec {
                world: &world,
                modality: ModalityKind::Image,
                rows: n_pool,
                seed: ds ^ 0x2,
            };
            let pool = PoolRows::Streamed(spec);
            block.propagation_lf(pool, shard.segment_rows, config, par, &mut tracker)?
        }
        None => None,
    };
    let propagation_time = config.use_label_propagation.then(|| start.elapsed());
    timing.propagation = propagation_time.unwrap_or_default();

    // The pool sweep: one engine append per segment, each segment dropped
    // as soon as its votes are interned, so peak memory is one segment,
    // its votes, the pattern ids and the pattern table. An append is
    // charged in two steps, each before its allocation: the segment's
    // votes, then the pattern table's growth if every row were a new
    // pattern, priced from the votes' actual non-abstain count. The votes
    // and what the table did not grow by are released after.
    let mut engine = CurationEngine::new(setup, n_pool);
    tracker.charge(engine.pool_bytes(), "pool pattern ids")?;
    let mut segments = 0usize;
    let sweep_start = Stopwatch::start();
    for_each_pool_segment(
        &world,
        ModalityKind::Image,
        n_pool,
        ds ^ 0x2,
        shard.segment_rows,
        &mut tracker,
        &mut |offset, seg, tracker| {
            segments += 1;
            let votes = seg.len() * engine.setup().lfs.len();
            tracker.charge(votes, "segment votes")?;
            let apply_start = Stopwatch::start();
            engine.apply_segment(&seg.table, par);
            let growth = engine.growth_bound();
            tracker.charge(growth, "pattern table growth")?;
            let table_bytes = engine.pattern_bytes();
            engine.intern_segment(offset, &seg.labels);
            timing.lf_application += apply_start.elapsed();
            tracker.release(votes + growth - (engine.pattern_bytes() - table_bytes));
            Ok(())
        },
    )?;
    timing.generation = sweep_start.elapsed().saturating_sub(timing.lf_application);

    // Labelling joins the propagation column to the patterns; that fold is
    // charged its worst case before it runs.
    let model_start = Stopwatch::start();
    let fold = if prop.is_some() { engine.fold_bound() } else { 0 };
    tracker.charge(fold, "propagation fold")?;
    let output = engine.finish(prop.as_ref(), config, None, timing.mining, propagation_time, par);
    tracker.release(fold);
    timing.model = model_start.elapsed();
    let stats = StreamStats {
        segments,
        segment_rows: shard.segment_rows,
        peak_bytes: tracker.peak(),
        pool_rows: n_pool,
    };
    Ok(StreamedCuration { output, stats, timing })
}
