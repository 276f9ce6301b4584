//! Microbenchmarks for every substrate on the pipeline's hot path:
//! feature generation, densification, itemset mining, label-model
//! fitting, graph construction, propagation, and model training.
//!
//! Uses a small in-tree timing harness (`harness = false`) so the
//! workspace builds with zero registry access. Each benchmark warms up,
//! then reports the median and minimum wall time over a fixed number of
//! samples. Filter by substring: `cargo bench --bench substrates -- mining`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cm_featurespace::{FeatureSet, ModalityKind, SimilarityConfig};
use cm_json::Json;
use cm_labelmodel::{AnchoredModel, GenerativeConfig, GenerativeModel, LabelMatrix};
use cm_mining::{mine_itemsets_with, MiningConfig};
use cm_models::{LogisticRegression, Mlp, MlpEpochConfig};
use cm_orgsim::{TaskConfig, TaskId, World, WorldConfig};
use cm_par::ParConfig;
use cm_pipeline::{curate, curate_streamed_with, CurationConfig, DenseView, TaskData};
use cm_propagation::{propagate, propagate_streaming, GraphBuilder, PropagationConfig};
use cm_shard::ShardConfig;

/// Minimal stand-in for a criterion benchmark group: warmup + sampled
/// median/min timings, with substring filtering from the command line.
struct Harness {
    filter: Option<String>,
    /// `CM_BENCH_SAMPLES` override: when set, every group runs exactly
    /// this many samples regardless of its configured size. The CI smoke
    /// sets it to 1 so the benchmarks compile-and-execute cheaply.
    sample_override: Option<usize>,
}

impl Harness {
    fn from_args() -> Self {
        // `cargo bench -- <substring>`; ignore harness-style flags.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        let sample_override = std::env::var("CM_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0);
        Self { filter, sample_override }
    }

    fn samples(&self, configured: usize) -> usize {
        self.sample_override.unwrap_or(configured)
    }

    fn group(&self, name: &'static str) -> Group<'_> {
        Group { harness: self, group: name, sample_size: self.samples(20) }
    }
}

struct Group<'a> {
    harness: &'a Harness,
    group: &'static str,
    sample_size: usize,
}

impl Group<'_> {
    fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = self.harness.samples(n);
        self
    }

    fn enabled(&self, name: &str) -> bool {
        let full = format!("{}/{}", self.group, name);
        self.harness.filter.as_deref().is_none_or(|f| full.contains(f))
    }

    /// Time `f` directly: one warmup call, then `sample_size` timed calls.
    fn bench_function<T>(&mut self, name: impl AsRef<str>, mut f: impl FnMut() -> T) -> &mut Self {
        self.bench_batched(name, || (), move |()| f())
    }

    /// Time `routine` on fresh input from `setup`; setup time is excluded.
    fn bench_batched<I, T>(
        &mut self,
        name: impl AsRef<str>,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> T,
    ) -> &mut Self {
        let name = name.as_ref();
        if !self.enabled(name) {
            return self;
        }
        black_box(routine(setup()));
        let mut samples: Vec<Duration> = (0..self.sample_size)
            .map(|_| {
                let input = setup();
                let start = Instant::now();
                black_box(routine(input));
                start.elapsed()
            })
            .collect();
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        let min = samples[0];
        println!(
            "{}/{:<32} median {:>12?}  min {:>12?}  ({} samples)",
            self.group,
            name,
            median,
            min,
            samples.len()
        );
        self
    }

    fn finish(&mut self) {}
}

fn world() -> World {
    World::build(WorldConfig::new(TaskConfig::paper(TaskId::Ct1).scaled(0.05), 7))
}

fn bench_feature_generation(c: &Harness) {
    let mut group = c.group("featuregen");
    group.sample_size(20);
    let w = world();
    group.bench_function("generate_1k_image_rows", || w.generate(ModalityKind::Image, 1000, 3));

    let data = w.generate(ModalityKind::Image, 2000, 4);
    let cols = w.schema().columns_in_sets(&FeatureSet::SHARED, true);
    group.bench_function("dense_fit_2k", || DenseView::fit(&[&data.table], cols.clone()).unwrap());
    let view = DenseView::fit(&[&data.table], cols).unwrap();
    group.bench_function("dense_encode_2k", || view.encode(&data.table));
    group.finish();
}

fn bench_mining(c: &Harness) {
    let mut group = c.group("mining");
    group.sample_size(20);
    let w = world();
    let data = w.generate(ModalityKind::Text, 5000, 5);
    let cols = w.schema().columns_in_sets(&FeatureSet::SHARED, false);
    let par = ParConfig::from_env();
    for order in [1usize, 2] {
        let cfg = MiningConfig { max_order: order, ..MiningConfig::default() };
        group.bench_function(format!("apriori_5k_order{order}"), || {
            mine_itemsets_with(&data.table, &data.labels, &cols, &cfg, &par)
        });
    }
    group.finish();
}

fn synthetic_matrix(n: usize, n_lfs: usize) -> (LabelMatrix, Vec<cm_featurespace::Label>) {
    use cm_featurespace::Label;
    let mut votes = Vec::with_capacity(n * n_lfs);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let pos = i % 20 == 0;
        labels.push(if pos { Label::Positive } else { Label::Negative });
        for j in 0..n_lfs {
            let fires = (i * 31 + j * 7) % 10 < 3;
            votes.push(if !fires {
                0
            } else if pos == (j % 2 == 0) {
                1
            } else {
                -1
            });
        }
    }
    let names = (0..n_lfs).map(|j| format!("lf{j}")).collect();
    (LabelMatrix::from_votes(n, n_lfs, votes, names), labels)
}

fn bench_label_model(c: &Harness) {
    let mut c = c.group("labelmodel");
    c.sample_size(20);
    let (m, labels) = synthetic_matrix(20_000, 40);
    let par = ParConfig::from_env();
    c.bench_function("anchored_fit_predict_20k_x40", || {
        let model = AnchoredModel::fit(&m, &labels, None);
        model.predict(&m)
    });
    c.bench_function("em_fit_20k_x40", || {
        let cfg = GenerativeConfig { max_iters: 20, ..GenerativeConfig::default() };
        GenerativeModel::fit_with(&m, &cfg, &par)
    });
    c.finish();
}

fn bench_propagation(c: &Harness) {
    let mut c = c.group("propagation");
    c.sample_size(10);
    let w = world();
    let mut combined = w.generate(ModalityKind::Text, 1500, 8).table;
    combined.extend_from(&w.generate(ModalityKind::Image, 1500, 9).table);
    let mut cols = w.schema().columns_in_sets(&FeatureSet::SHARED, false);
    cols.push(w.schema().column("img_embedding").unwrap());
    let sim = SimilarityConfig::uniform(cols).fit_scales(&combined);

    c.bench_function("knn_graph_3k_anchors", || {
        GraphBuilder::approximate(10, combined.len()).build(&combined, &sim, 1)
    });
    let graph = GraphBuilder::approximate(10, combined.len()).build(&combined, &sim, 1);
    let seeds: Vec<(usize, f64)> = (0..1000).map(|v| (v, (v % 20 == 0) as u8 as f64)).collect();
    let cfg = PropagationConfig::default();
    c.bench_function("jacobi_3k", || propagate(&graph, &seeds, &cfg));
    c.bench_function("gauss_seidel_3k", || propagate_streaming(&graph, &seeds, &cfg));
    c.finish();
}

fn bench_training(c: &Harness) {
    let mut c = c.group("training");
    c.sample_size(10);
    let w = world();
    let data = w.generate(ModalityKind::Image, 4000, 11);
    let cols = w.schema().columns_in_sets(&FeatureSet::SHARED, true);
    let view = DenseView::fit(&[&data.table], cols).unwrap();
    let x = view.encode(&data.table);
    let y = data.labels_f64();
    let par = ParConfig::from_env();

    c.bench_function("logistic_fit_4k", || {
        LogisticRegression::fit_with(
            &x,
            &y,
            None,
            &cm_models::logistic::LogisticConfig { epochs: 3, ..Default::default() },
            &par,
        )
    });
    c.bench_batched(
        "mlp_epoch_4k_h32",
        || Mlp::new(x.cols(), &[32], 0.01, 1),
        |mut mlp| {
            mlp.train_epoch_with(
                &x,
                &y,
                None,
                &MlpEpochConfig { batch_size: 128, l2: 1e-4, shuffle_seed: 0 },
                &par,
            )
        },
    );
    c.finish();
}

/// Serial-vs-parallel comparison of the `cm-par`-wired hot paths at
/// explicit thread counts (independent of `CM_THREADS`). On a single-core
/// host the t4 rows measure substrate overhead rather than speedup; see
/// `results/BENCH_par.json` for recorded context.
fn bench_par_substrate(c: &Harness) {
    let mut group = c.group("par");
    group.sample_size(10);

    // Apriori candidate-support counting (two chunked counting passes).
    let w = world();
    let data = w.generate(ModalityKind::Text, 8000, 5);
    let cols = w.schema().columns_in_sets(&FeatureSet::SHARED, false);
    let mine_cfg = MiningConfig::default();
    for threads in [1usize, 4] {
        let par = ParConfig::threads(threads);
        group.bench_function(format!("apriori_support_8k_t{threads}"), || {
            mine_itemsets_with(&data.table, &data.labels, &cols, &mine_cfg, &par)
        });
    }

    // Vote-matrix statistics over a 100k x 8 matrix (single fused pass).
    let (m, _) = synthetic_matrix(100_000, 8);
    for threads in [1usize, 4] {
        let par = ParConfig::threads(threads);
        group.bench_function(format!("vote_stats_100k_x8_t{threads}"), || m.vote_stats_with(&par));
    }

    group.finish();
}

/// The columnar hot-path kernels, benchmarked at an explicit single
/// thread so speedups are layout/fusion wins, not parallelism. The names
/// here are referenced by `results/BENCH_kernels.json`; the CI smoke runs
/// this group once with `CM_BENCH_SAMPLES=1`.
fn bench_kernels(c: &Harness) {
    let mut group = c.group("kernels");
    group.sample_size(10);
    let w = world();
    let par = ParConfig::threads(1);

    // Fused pair-weight kernel: mixed-modality 3k-row knn graph (same
    // workload as propagation/knn_graph_3k_anchors).
    let mut combined = w.generate(ModalityKind::Text, 1500, 8).table;
    combined.extend_from(&w.generate(ModalityKind::Image, 1500, 9).table);
    let mut cols = w.schema().columns_in_sets(&FeatureSet::SHARED, false);
    cols.push(w.schema().column("img_embedding").unwrap());
    let sim = SimilarityConfig::uniform(cols).fit_scales(&combined);
    group.bench_function("frozen_build_3k", || cm_featurespace::FrozenTable::freeze(&combined));
    group.bench_function("knn_graph_3k_anchors", || {
        GraphBuilder::approximate(10, combined.len()).build_with(&combined, &sim, 1, &par)
    });

    // Vertical bitset support counting (same workload as
    // mining/apriori_5k_order{1,2}).
    let data = w.generate(ModalityKind::Text, 5000, 5);
    let mine_cols = w.schema().columns_in_sets(&FeatureSet::SHARED, false);
    for order in [1usize, 2] {
        let cfg = MiningConfig { max_order: order, ..MiningConfig::default() };
        group.bench_function(format!("apriori_5k_order{order}"), || {
            mine_itemsets_with(&data.table, &data.labels, &mine_cols, &cfg, &par)
        });
    }

    group.finish();
}

fn bench_end_to_end_curation(c: &Harness) {
    let mut group = c.group("pipeline");
    group.sample_size(10);
    let data = TaskData::generate(TaskConfig::paper(TaskId::Ct1).scaled(0.02), 3, Some(64));
    let cfg = CurationConfig { prop_max_seeds: 500, ..CurationConfig::default() };
    group.bench_function("curate_ct1_tiny", || curate(&data, &cfg));
    group.finish();
}

/// Overhead of the resilient access layer (see `results/BENCH_faults.json`):
/// featurization routed through a *disabled* fault plan must cost <1% over
/// direct generation, and the degradation accounting in curation must not
/// move the end-to-end hot path.
fn bench_faults(c: &Harness) {
    use cm_faults::{AccessLayer, AccessPolicy, FaultPlan};
    let mut group = c.group("faults");
    group.sample_size(20);
    let w = world();
    group.bench_function("generate_2k_direct", || w.generate(ModalityKind::Image, 2000, 3));
    let disabled = FaultPlan::disabled();
    let descriptors = w.service_descriptors();
    group.bench_function("generate_2k_disabled_layer", || {
        let mut layer =
            AccessLayer::new(&disabled, AccessPolicy::default(), &descriptors, 3).unwrap();
        w.generate_via(ModalityKind::Image, 2000, 3, &mut layer, 0).unwrap()
    });
    let storm = FaultPlan::parse(
        "seed=7;topics=unavailable@0.5;keywords=transient(2)@0.6;page_quality=latency(300)@0.5;\
         user_reports=corrupt@0.4;kg_entities=stale",
    )
    .unwrap();
    group.bench_function("generate_2k_storm", || {
        let mut layer = AccessLayer::new(&storm, AccessPolicy::default(), &descriptors, 3).unwrap();
        w.generate_via(ModalityKind::Image, 2000, 3, &mut layer, 0).unwrap()
    });

    let task = TaskConfig::paper(TaskId::Ct1).scaled(0.02);
    let clean = TaskData::generate(task.clone(), 3, Some(64));
    let faulted =
        TaskData::generate_with_faults(task, 3, Some(64), &storm, AccessPolicy::default()).unwrap();
    let cfg = CurationConfig { prop_max_seeds: 500, ..CurationConfig::default() };
    group.bench_function("curate_clean", || curate(&clean, &cfg));
    group.bench_function("curate_under_storm", || curate(&faulted, &cfg));
    group.finish();
}

/// The process's peak resident set size in bytes (`VmHWM` in
/// `/proc/self/status`), or `None` where the OS does not report it.
fn vm_hwm_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    Some(kb.trim().trim_end_matches("kB").trim().parse::<usize>().ok()? * 1024)
}

/// Scale sweep for the sharded out-of-core curation driver: 10^4 -> 10^6
/// pool rows streamed through `curate_streamed_with` under the default
/// `CM_MEM_BUDGET`, recording rows/sec, peak tracked bytes and the OS's
/// peak resident set (`VmHWM`) into `results/BENCH_scale.json`. `VmHWM`
/// is a process-wide high-water mark: sizes run in ascending order, so
/// each row's value is the peak up to and including its size, and the
/// config records the mark the sweep started from. Each size is one
/// end-to-end timed run (these are full curations, not
/// microbenchmarks). `CM_SCALE_MAX_ROWS` caps the sweep for smoke runs;
/// `CM_SCALE_JSON` overrides the output path.
fn bench_scale(c: &Harness) {
    let group = c.group("scale");
    let hwm = |bytes: Option<usize>| bytes.map_or(Json::Null, |b| Json::Num(b as f64));
    let hwm_at_start = vm_hwm_bytes();
    let max_rows = std::env::var("CM_SCALE_MAX_ROWS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1_000_000);
    let config = CurationConfig { use_label_propagation: false, ..CurationConfig::default() };
    let shard = ShardConfig::default();
    let par = ParConfig::from_env();
    let mut rows: Vec<Json> = Vec::new();
    for n in [10_000usize, 100_000, 1_000_000] {
        let name = format!("curate_streamed_{n}");
        if n > max_rows || !group.enabled(&name) {
            continue;
        }
        let task = TaskConfig {
            n_text_labeled: 2000,
            n_image_unlabeled: n,
            n_image_test: 0,
            ..TaskConfig::paper(TaskId::Ct1)
        };
        let start = Instant::now();
        let streamed = curate_streamed_with(task, 3, &config, &shard, &par).unwrap();
        let elapsed = start.elapsed();
        let rows_per_sec = n as f64 / elapsed.as_secs_f64();
        let stages = streamed.timing;
        println!(
            "scale/{:<32} {:>12?}  {:>10.0} rows/s  peak {:>11} bytes  ({} segments)",
            name, elapsed, rows_per_sec, streamed.stats.peak_bytes, streamed.stats.segments
        );
        println!(
            "scale/{:<32} stages ms: mining {:.0} propagation {:.0} generation {:.0} \
             lf_apply {:.0} model {:.0}",
            name,
            stages.mining.as_secs_f64() * 1e3,
            stages.propagation.as_secs_f64() * 1e3,
            stages.generation.as_secs_f64() * 1e3,
            stages.lf_application.as_secs_f64() * 1e3,
            stages.model.as_secs_f64() * 1e3
        );
        assert_eq!(streamed.output.probabilistic_labels.len(), n);
        rows.push(Json::obj([
            ("rows", Json::Num(n as f64)),
            ("segments", Json::Num(streamed.stats.segments as f64)),
            ("segment_rows", Json::Num(streamed.stats.segment_rows as f64)),
            ("elapsed_ms", Json::Num(elapsed.as_secs_f64() * 1e3)),
            ("rows_per_sec", Json::Num(rows_per_sec)),
            ("peak_resident_bytes", Json::Num(streamed.stats.peak_bytes as f64)),
            ("vm_hwm_bytes", hwm(vm_hwm_bytes())),
            ("mining_ms", Json::Num(stages.mining.as_secs_f64() * 1e3)),
            ("propagation_ms", Json::Num(stages.propagation.as_secs_f64() * 1e3)),
            ("generation_ms", Json::Num(stages.generation.as_secs_f64() * 1e3)),
            ("lf_application_ms", Json::Num(stages.lf_application.as_secs_f64() * 1e3)),
            ("model_ms", Json::Num(stages.model.as_secs_f64() * 1e3)),
        ]));
    }
    if rows.is_empty() {
        return;
    }
    let report = Json::obj([
        ("bench", Json::Str("scale".to_owned())),
        ("source", Json::Str("cargo bench -p cm-bench --bench substrates -- scale".to_owned())),
        (
            "config",
            Json::obj([
                ("task", Json::Str("CT1 profile, n_text_labeled=2000, no test set".to_owned())),
                ("label_model", Json::Str("anchored".to_owned())),
                ("use_label_propagation", Json::Bool(false)),
                ("shard_rows", Json::Num(shard.segment_rows as f64)),
                ("mem_budget_bytes", Json::Num(shard.budget.limit() as f64)),
                ("vm_hwm_at_start_bytes", hwm(hwm_at_start)),
            ]),
        ),
        ("results", Json::Arr(rows)),
    ]);
    let path = std::env::var("CM_SCALE_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_scale.json").to_owned()
    });
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).unwrap();
    }
    std::fs::write(&path, report.to_string_pretty()).unwrap();
    println!("scale: wrote {path}");
}

/// End-to-end incremental serving benchmark over a 64-tick run: the
/// delta-log checkpoint, and no checkpointing at all. Records ingest
/// throughput, per-batch latency (simulated clock), the serving envelope,
/// the per-tick checkpoint cost curve — flat for the delta log (O(batch)
/// per tick) — and beside it the per-tick curation cost curve (previews,
/// ingests, label-model refits). Acceptance: final-tick
/// delta cost within 2x of the tick-4 cost, and wire-checkpointed wall
/// throughput >= 85% of the no-checkpoint path. Results go to
/// `results/BENCH_serve.json`; `CM_SERVE_JSON` overrides the output path.
fn bench_serve(c: &Harness) {
    use cm_serve::{run as serve_run, RunOutcome, ServeConfig};
    let group = c.group("serve");
    // 64 ticks of ~40-row batches; one arrival per tick, so ticks track
    // batches and the checkpoint curve gets 64 points.
    let total_rows = 64 * 40;
    let config_for = |checkpointed: bool| {
        let task = TaskConfig::paper(TaskId::Ct2).scaled(0.02);
        let mut config = ServeConfig::new(task, 11);
        config.total_rows = total_rows;
        config.batch_rows = 40;
        config.incremental.curation.prop_max_seeds = 400;
        config.incremental.curation.mining.min_recall = 0.05;
        if checkpointed {
            let path = std::env::temp_dir().join("cm_bench_serve_ckpt.bin");
            // A stale checkpoint would make the run resume (and measure
            // an empty service loop) instead of serving from scratch.
            let _ = std::fs::remove_file(&path);
            config.checkpoint_path = Some(path);
        }
        config
    };
    let par = ParConfig::from_env();
    let mut rows: Vec<Json> = Vec::new();
    let mut wall_by_name: Vec<(&str, f64)> = Vec::new();
    for (name, checkpointed) in
        [("serve_ct2_wire_checkpoint", true), ("serve_ct2_no_checkpoint", false)]
    {
        if !group.enabled(name) {
            continue;
        }
        let config = config_for(checkpointed);
        let start = Instant::now();
        let outcome = serve_run(&config, &par).unwrap();
        let elapsed = start.elapsed();
        let RunOutcome::Completed { report, timing } = outcome else {
            panic!("bench run crashed without crash injection");
        };
        let mut lat: Vec<u64> = report.latencies_ms.clone();
        lat.sort_unstable();
        let p50 = lat[lat.len() / 2];
        let max = *lat.last().unwrap();
        let mean = lat.iter().sum::<u64>() as f64 / lat.len() as f64;
        let wall_rows_per_sec = report.rows_ingested as f64 / elapsed.as_secs_f64();
        wall_by_name.push((name, wall_rows_per_sec));
        println!(
            "serve/{:<32} {:>12?}  {:>10.0} rows/s wall  {:>8.1} rows/s sim  \
             latency p50 {p50} max {max} sim-ms  envelope {:.2}% of curation",
            name,
            elapsed,
            wall_rows_per_sec,
            report.rows_per_sim_sec,
            timing.overhead_pct()
        );
        // The per-tick persistence curve: steady-state = delta appends.
        let ticks = &timing.checkpoint_ticks;
        let steady: Vec<f64> =
            ticks.iter().filter(|t| !t.wrote_base).map(|t| t.elapsed.as_secs_f64() * 1e3).collect();
        let (tick4_ms, final_ms) = match steady.as_slice() {
            [] => (0.0, 0.0),
            s => (s[3.min(s.len() - 1)], s[s.len() - 1]),
        };
        if checkpointed {
            println!(
                "serve/{:<32} checkpoint {} writes, {} bytes total; steady-state \
                 ms/tick: tick4 {tick4_ms:.3} final {final_ms:.3}",
                name,
                ticks.len(),
                timing.checkpoint_bytes
            );
        }
        let curation = &timing.curation_ticks;
        let curation_ms = |i: usize| curation[i].elapsed.as_secs_f64() * 1e3;
        let (curation_tick4_ms, curation_final_ms) = match curation.len() {
            0 => (0.0, 0.0),
            n => (curation_ms(3.min(n - 1)), curation_ms(n - 1)),
        };
        println!(
            "serve/{:<32} curation ms/tick: tick4 {curation_tick4_ms:.3} final \
             {curation_final_ms:.3}",
            name
        );
        let curation_curve: Vec<Json> = curation
            .iter()
            .map(|t| {
                Json::obj([
                    ("tick", Json::Num(t.tick as f64)),
                    ("ms", Json::Num(t.elapsed.as_secs_f64() * 1e3)),
                    ("pool_rows", Json::Num(t.pool_rows as f64)),
                ])
            })
            .collect();
        let curve: Vec<Json> = ticks
            .iter()
            .map(|t| {
                Json::obj([
                    ("tick", Json::Num(t.tick as f64)),
                    ("ms", Json::Num(t.elapsed.as_secs_f64() * 1e3)),
                    ("bytes_written", Json::Num(t.bytes_written as f64)),
                    ("wrote_base", Json::Bool(t.wrote_base)),
                ])
            })
            .collect();
        rows.push(Json::obj([
            ("name", Json::Str(name.to_owned())),
            ("checkpointed", Json::Bool(checkpointed)),
            ("rows_ingested", Json::Num(report.rows_ingested as f64)),
            ("batches", Json::Num(report.batches.len() as f64)),
            ("ticks", Json::Num(report.ticks as f64)),
            ("sim_ms", Json::Num(report.sim_ms as f64)),
            ("rows_per_sim_sec", Json::Num(report.rows_per_sim_sec)),
            ("wall_elapsed_ms", Json::Num(elapsed.as_secs_f64() * 1e3)),
            ("wall_rows_per_sec", Json::Num(wall_rows_per_sec)),
            ("latency_sim_ms_mean", Json::Num(mean)),
            ("latency_sim_ms_p50", Json::Num(p50 as f64)),
            ("latency_sim_ms_max", Json::Num(max as f64)),
            ("setup_ms", Json::Num(timing.setup.as_secs_f64() * 1e3)),
            ("generation_ms", Json::Num(timing.generation.as_secs_f64() * 1e3)),
            ("curation_ms", Json::Num(timing.curation.as_secs_f64() * 1e3)),
            ("checkpoint_ms", Json::Num(timing.checkpoint.as_secs_f64() * 1e3)),
            ("checkpoint_bytes", Json::Num(timing.checkpoint_bytes as f64)),
            ("checkpoint_steady_ms_tick4", Json::Num(tick4_ms)),
            ("checkpoint_steady_ms_final", Json::Num(final_ms)),
            ("checkpoint_ticks", Json::Arr(curve)),
            ("curation_ms_tick4", Json::Num(curation_tick4_ms)),
            ("curation_ms_final", Json::Num(curation_final_ms)),
            ("curation_ticks", Json::Arr(curation_curve)),
            ("envelope_ms", Json::Num(timing.envelope().as_secs_f64() * 1e3)),
            ("serving_overhead_pct_of_curation", Json::Num(timing.overhead_pct())),
        ]));
    }
    if rows.is_empty() {
        return;
    }
    let throughput_ratio = {
        let wall = |n: &str| wall_by_name.iter().find(|(name, _)| *name == n).map(|&(_, w)| w);
        match (wall("serve_ct2_wire_checkpoint"), wall("serve_ct2_no_checkpoint")) {
            (Some(wire), Some(none)) if none > 0.0 => Some(wire / none),
            _ => None,
        }
    };
    if let Some(r) = throughput_ratio {
        println!("serve/wire_vs_no_checkpoint_throughput   {:.1}%", 100.0 * r);
    }
    let report = Json::obj([
        ("bench", Json::Str("serve".to_owned())),
        ("source", Json::Str("cargo bench -p cm-bench --bench substrates -- serve".to_owned())),
        (
            "config",
            Json::obj([
                (
                    "task",
                    Json::Str(
                        "CT2 profile scaled 0.02, 2560 rows in 40-row batches (64 ticks), seed 11"
                            .to_owned(),
                    ),
                ),
                (
                    "acceptance",
                    Json::Str(
                        "steady-state checkpoint ms/tick flat (final within 2x of tick 4); \
                         wire-checkpointed wall throughput >= 85% of no-checkpoint"
                            .to_owned(),
                    ),
                ),
            ]),
        ),
        ("wire_throughput_vs_no_checkpoint", throughput_ratio.map_or(Json::Null, Json::Num)),
        ("results", Json::Arr(rows)),
    ]);
    let path = std::env::var("CM_SERVE_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_serve.json").to_owned()
    });
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).unwrap();
    }
    std::fs::write(&path, report.to_string_pretty()).unwrap();
    println!("serve: wrote {path}");
}

fn main() {
    let harness = Harness::from_args();
    bench_feature_generation(&harness);
    bench_mining(&harness);
    bench_label_model(&harness);
    bench_propagation(&harness);
    bench_training(&harness);
    bench_par_substrate(&harness);
    bench_kernels(&harness);
    bench_end_to_end_curation(&harness);
    bench_faults(&harness);
    bench_serve(&harness);
    bench_scale(&harness);
}
