//! Layer 2 driver: a thin front end over the `cm-check` validators,
//! mirroring the `lint` driver's shape.
//!
//! Modes:
//! - default — builds seed pipeline artifacts at a tiny scale, runs every
//!   artifact check over them, and validates every checked-in spec under
//!   `specs/`, rendering `path:line:col: rule: message` diagnostics;
//! - `--json` — the deterministic machine report (violations sorted by
//!   file, line, col) on stdout, same exit semantics, so CI can archive
//!   `results/validate_report.json` and gate on it;
//! - `--self-test` — replays the pinned positive/negative spec corpus in
//!   `crates/check/tests/corpus/`, enforcing that every rule has a pinned
//!   fixture;
//! - `--seeded-negatives` — corrupts each seed artifact the way a drifted
//!   config would and exits 0 only if every corruption is caught.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use cm_check::{
    check_fusion_plan, check_graph, check_lf_degeneracy, check_table, check_vote_matrix,
    report_json, validate_lint_spec_source, validate_spec_source, CheckRule, FusionKind,
    FusionPlan, Report, Violation,
};
use cm_featurespace::{
    CatSet, FeatureDef, FeatureSchema, FeatureSet, FeatureTable, FeatureValue, ServingMode,
    SimilarityConfig, Vocabulary,
};
use cm_labelmodel::LabelMatrix;
use cm_mining::{mine_lfs, MiningConfig};
use cm_models::ModelKind;
use cm_orgsim::{TaskConfig, TaskId};
use cm_pipeline::{DenseView, TaskData};
use cm_propagation::{GraphBuilder, ParConfig, SparseGraph};

/// Scale factor for the seed world: enough rows to exercise every check,
/// small enough that `validate` stays sub-second.
const SEED_SCALE: f64 = 0.02;
const SEED: u64 = 3;

fn seed_data() -> TaskData {
    TaskData::generate(TaskConfig::paper(TaskId::Ct1).scaled(SEED_SCALE), SEED, Some(64))
}

/// The embedding width `ModelKind` produces for a given input width —
/// the static fact the DeViSE projection chain is checked against.
fn embed_dim(kind: &ModelKind, input_dim: usize) -> usize {
    match kind {
        ModelKind::Logistic => input_dim,
        ModelKind::Mlp { hidden } => hidden.last().copied().unwrap_or(input_dim),
    }
}

/// Runs every validator over seed-built artifacts and returns the report.
pub fn validate_seed_artifacts() -> Report {
    let par = ParConfig::from_env();
    let mut report = Report::new();
    let data = seed_data();
    let schema = data.world.schema();

    // 1. Schema/table agreement for every dataset the pipeline touches.
    for (name, table) in [
        ("text.table", &data.text.table),
        ("pool.table", &data.pool.table),
        ("test.table", &data.test.table),
        ("labeled_image.table", &data.labeled_image.table),
    ] {
        report.extend(check_table(table, schema, name));
    }

    // 2. LF vote matrix vs the mined-LF registry.
    let lf_columns = data.shared_columns(&FeatureSet::SHARED);
    let mined =
        mine_lfs(&data.text.table, &data.text.labels, &lf_columns, &MiningConfig::default(), 20, 4);
    let registry: Vec<String> = mined.lfs.iter().map(|lf| lf.name().to_owned()).collect();
    // Shape + encoding on both matrices; degeneracy only on the dev
    // matrix the LFs were mined from (pool abstention is legitimate when
    // the pool's modality lacks the source feature).
    let dev_votes = LabelMatrix::apply_with(&data.text.table, &mined.lfs, &par);
    report.extend(check_vote_matrix(&dev_votes, &registry, data.text.len(), "dev.votes"));
    report.extend(check_lf_degeneracy(&dev_votes, "dev.votes"));
    let pool_votes = LabelMatrix::apply_with(&data.pool.table, &mined.lfs, &par);
    report.extend(check_vote_matrix(&pool_votes, &registry, data.pool.len(), "pool.votes"));

    // 3. Fusion dimension chains, derived statically from the dense view.
    match DenseView::fit(&[&data.text.table, &data.pool.table], lf_columns.clone()) {
        Ok(view) => {
            let width = view.encoder().layout().width();
            let early = FusionPlan {
                kind: FusionKind::Early,
                part_dims: vec![width, width],
                embedding_dims: None,
                projection: None,
            };
            report.extend(check_fusion_plan(&early, "fusion.early"));
            let kind = ModelKind::Mlp { hidden: vec![32, 16] };
            let emb = embed_dim(&kind, width);
            let devise = FusionPlan {
                kind: FusionKind::DeVise,
                part_dims: vec![width, width],
                embedding_dims: Some((emb, emb)),
                projection: Some((emb, emb)),
            };
            report.extend(check_fusion_plan(&devise, "fusion.devise"));
        }
        Err(e) => report.extend(vec![cm_check::Violation::new(
            CheckRule::FusionDimChain,
            "fusion.dense_view",
            format!("dense view failed to fit: {e}"),
        )]),
    }

    // 4. Propagation-graph well-formedness over a pool k-NN graph.
    let sim = SimilarityConfig::uniform(lf_columns).fit_scales(&data.pool.table);
    let graph = GraphBuilder::approximate(8, data.pool.table.len()).build_with(
        &data.pool.table,
        &sim,
        SEED,
        &par,
    );
    report.extend(check_graph(&graph, "pool.knn_graph"));

    report
}

/// One seeded corruption: a named artifact defect plus the rule that must
/// catch it.
struct Negative {
    name: &'static str,
    expect: CheckRule,
    violations: Vec<cm_check::Violation>,
}

fn tiny_schema() -> Arc<FeatureSchema> {
    Arc::new(FeatureSchema::from_defs(vec![
        FeatureDef::numeric("n", FeatureSet::A, ServingMode::Servable),
        FeatureDef::categorical(
            "c",
            FeatureSet::C,
            ServingMode::Servable,
            Vocabulary::from_names((0..4).map(|i| format!("v{i}"))),
        ),
    ]))
}

/// Builds each seeded-negative artifact and records what the validators
/// report for it.
fn seeded_negatives() -> Vec<Negative> {
    let mut out = Vec::new();

    // Schema/table column-count mismatch: a table built against a
    // narrower schema than the registry's.
    let narrow = Arc::new(FeatureSchema::from_defs(vec![FeatureDef::numeric(
        "n",
        FeatureSet::A,
        ServingMode::Servable,
    )]));
    let mut t = FeatureTable::new(narrow);
    t.push_row(&[FeatureValue::Numeric(1.0)]);
    out.push(Negative {
        name: "schema-column-count",
        expect: CheckRule::SchemaTableMismatch,
        violations: check_table(&t, &tiny_schema(), "negative.table"),
    });

    // Categorical id outside the vocabulary.
    let mut t = FeatureTable::new(tiny_schema());
    t.push_row(&[
        FeatureValue::Numeric(0.5),
        FeatureValue::Categorical(CatSet::from_ids(vec![99])),
    ]);
    out.push(Negative {
        name: "vocab-index-bound",
        expect: CheckRule::VocabIndexOutOfBounds,
        violations: check_table(&t, &tiny_schema(), "negative.table"),
    });

    // Constant LF: votes +1 on every row.
    let votes = LabelMatrix::from_votes(
        4,
        2,
        vec![1, 1, 1, -1, 1, 0, 1, 0],
        vec!["constant".to_owned(), "ok".to_owned()],
    );
    out.push(Negative {
        name: "constant-lf",
        expect: CheckRule::DegenerateLf,
        violations: check_lf_degeneracy(&votes, "negative.votes"),
    });

    // Vote matrix shaped for the wrong pool.
    out.push(Negative {
        name: "vote-row-count",
        expect: CheckRule::VoteMatrixShape,
        violations: check_vote_matrix(
            &votes,
            &["constant".to_owned(), "ok".to_owned()],
            99,
            "negative.votes",
        ),
    });

    // DeViSE projection with the wrong target width.
    let plan = FusionPlan {
        kind: FusionKind::DeVise,
        part_dims: vec![24, 24],
        embedding_dims: Some((16, 16)),
        projection: Some((16, 8)),
    };
    out.push(Negative {
        name: "devise-projection-dim",
        expect: CheckRule::FusionDimChain,
        violations: check_fusion_plan(&plan, "negative.devise"),
    });

    // Graph with a NaN edge weight.
    let g = SparseGraph::from_edges(3, &[(0, 1, f32::NAN), (1, 2, 0.5)]);
    out.push(Negative {
        name: "nan-edge-weight",
        expect: CheckRule::GraphNonFiniteWeight,
        violations: check_graph(&g, "negative.graph"),
    });

    out
}

/// Validates every checked-in spec under `specs/`, returning the file
/// count and all violations (each carrying the exact source span).
fn validate_specs(root: &Path) -> (usize, Vec<Violation>) {
    let dir = root.join("specs");
    let mut out = Vec::new();
    let mut files = Vec::new();
    match std::fs::read_dir(&dir) {
        Ok(entries) => {
            for e in entries.flatten() {
                let p = e.path();
                if p.extension().is_some_and(|x| x == "json") {
                    files.push(p);
                }
            }
        }
        Err(e) => {
            out.push(Violation::new(
                CheckRule::SpecSyntax,
                dir.display().to_string(),
                format!("specs directory unreadable: {e}"),
            ));
            return (0, out);
        }
    }
    files.sort();
    let n = files.len();
    for p in files {
        let rel = p.strip_prefix(root).unwrap_or(&p).display().to_string();
        match std::fs::read_to_string(&p) {
            Ok(source) => {
                // The lint-effects sanction spec has its own validator;
                // every other spec is an experiment spec.
                if p.file_stem().is_some_and(|s| s == "lint_effects") {
                    out.extend(validate_lint_spec_source(&source, &rel));
                } else {
                    out.extend(validate_spec_source(&source, &rel).1);
                }
            }
            Err(e) => {
                out.push(Violation::new(CheckRule::SpecSyntax, rel, format!("unreadable: {e}")))
            }
        }
    }
    (n, out)
}

/// Runs the gate over seed artifacts and every checked-in spec; human or
/// JSON reporting.
pub fn run(root: &Path, json: bool) -> ExitCode {
    let mut report = validate_seed_artifacts();
    let (n_specs, spec_violations) = validate_specs(root);
    report.extend(spec_violations);
    let mut violations = report.violations;
    violations.sort_by(Violation::sort_key_cmp);
    if json {
        println!("{}", report_json(&violations, n_specs).to_string_pretty());
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
    }
    if violations.is_empty() {
        eprintln!("validate: clean ({n_specs} spec(s) + seed artifacts)");
        ExitCode::SUCCESS
    } else {
        eprintln!("validate: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// Replays the pinned spec corpus (`crates/check/tests/corpus/`).
pub fn self_test(root: &Path) -> ExitCode {
    let dir = root.join("crates/check/tests/corpus");
    let outcome = cm_check::corpus::run_corpus(&dir);
    for e in &outcome.errors {
        eprintln!("validate self-test: {e}");
    }
    if outcome.passed() {
        eprintln!(
            "validate self-test: {} corpus files ({} positive, {} negative), {} expected \
             violations, {} rule(s) covered, all matched",
            outcome.files,
            outcome.positives,
            outcome.negatives,
            outcome.expected_violations,
            outcome.rules_covered.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("validate self-test: {} mismatch(es)", outcome.errors.len());
        ExitCode::FAILURE
    }
}

/// Runs the seeded-negatives gate self-test.
pub fn seeded_negatives_gate() -> ExitCode {
    let mut failures = 0;
    for neg in seeded_negatives() {
        let caught = neg.violations.iter().any(|v| v.rule == neg.expect);
        if caught {
            eprintln!("validate --seeded-negatives: {} caught [{}]", neg.name, neg.expect);
        } else {
            eprintln!(
                "validate --seeded-negatives: {} NOT caught (expected [{}], got {:?})",
                neg.name,
                neg.expect,
                neg.violations.iter().map(|v| v.rule).collect::<Vec<_>>()
            );
            failures += 1;
        }
    }
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_artifacts_are_clean() {
        let report = validate_seed_artifacts();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn every_seeded_negative_is_caught() {
        for neg in seeded_negatives() {
            assert!(
                neg.violations.iter().any(|v| v.rule == neg.expect),
                "{}: expected [{}], got {:?}",
                neg.name,
                neg.expect,
                neg.violations
            );
        }
    }
}
