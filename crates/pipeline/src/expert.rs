//! Hand-written "domain expert" labeling functions (§6.7.1).
//!
//! The paper compares automatically mined LFs against LFs a ground-truth
//! collection team hand-built over 7 hours spread across two weeks, and
//! finds the mined suite wins by 2.7 F1 points — a *14.3% precision
//! increase* and a *9.6% recall decrease*: the expert writes broad,
//! high-recall rules whose precision trails the miner's threshold-vetted
//! itemsets.
//!
//! Our expert analogue is written against the *semantics* of the generative
//! world (what a domain expert knows: which topic/keyword/object families
//! correlate with violations) but not its ground truth:
//!
//! - rules are **broad any-of matches** over the expert's known sensitive
//!   vocabulary — the head two-thirds of each indicative range (experts
//!   know the common behavioral modes, not the rare borderline ones);
//! - the expert does not know the new modality's aliased taxonomy
//!   (vocabulary drift), nor the exact numeric cut-points quantile
//!   discretization finds;
//! - several rules are multi-feature conjunctions (the paper notes the
//!   human suite is "more complex, multi-feature");
//! - the authoring cost is the paper's constant: 7 hours of expert time.

use std::time::Duration;

use cm_featurespace::{CmError, CmResult, ErrorKind, FeatureSchema};
use cm_labelmodel::{
    CategoricalContainsLf, ConjunctionLf, LabelingFunction, NumericThresholdLf, Predicate,
    ThresholdDirection, Vote,
};

/// The paper's reported expert authoring cost (7 hours, spread over days to
/// weeks).
pub const EXPERT_AUTHORING: Duration = Duration::from_secs(7 * 3600);

/// Builds the expert LF suite for a task schema.
///
/// # Errors
/// Returns [`ErrorKind::NotFound`] if the schema lacks any of the
/// standard-registry features the expert rules are written against.
pub fn expert_lfs(schema: &FeatureSchema) -> CmResult<Vec<Box<dyn LabelingFunction>>> {
    let col = |name: &str| {
        schema.column(name).ok_or_else(|| {
            CmError::new(
                ErrorKind::NotFound,
                "expert_lfs",
                format!("expert LFs need feature {name:?} in the schema"),
            )
        })
    };
    let topics = col("topics")?;
    let subtopics = col("subtopics")?;
    let entities = col("kg_entities")?;
    let keywords = col("keywords")?;
    let rule_flags = col("rule_flags")?;
    let objects = col("objects")?;
    let url_category = col("url_category")?;
    let page_topics = col("page_topics")?;
    let page_keywords = col("page_keywords")?;
    let user_reports = col("user_reports")?;
    let url_reputation = col("url_reputation")?;
    let page_quality = col("page_quality")?;

    // The expert's sensitive vocabulary: the head ~2/3 of each indicative
    // range (ids are interned indicative-first in the standard registry).
    let head = |n_ind: u32| -> Vec<u32> { (0..(n_ind * 2).div_ceil(3)).collect() };

    let mut lfs: Vec<Box<dyn LabelingFunction>> = Vec::new();
    // Broad topical rules — one per service the expert understands well.
    for (name, column, n_ind) in [
        ("topics", topics, 12u32),
        ("subtopics", subtopics, 18),
        ("kg_entities", entities, 24),
        ("keywords", keywords, 30),
        ("objects", objects, 15),
        ("url_category", url_category, 9),
        ("page_topics", page_topics, 12),
        ("page_keywords", page_keywords, 24),
    ] {
        let lf = CategoricalContainsLf::new(column, head(n_ind), false, Vote::Positive);
        lfs.push(Box::new(ExpertNamed { inner: lf, name: format!("expert_{name}_watchlist") }));
    }
    // Behavioral rules.
    lfs.push(Box::new(NumericThresholdLf::new(
        user_reports,
        9.0,
        ThresholdDirection::Above,
        Vote::Positive,
    )));
    lfs.push(Box::new(ConjunctionLf::new(
        "expert_flagged_and_reported",
        vec![
            Predicate::CatContains { column: rule_flags, id: 0 },
            Predicate::NumAbove { column: user_reports, threshold: 5.0 },
        ],
        Vote::Positive,
    )));
    lfs.push(Box::new(ConjunctionLf::new(
        "expert_lowrep_reported",
        vec![
            Predicate::NumBelow { column: url_reputation, threshold: 0.58 },
            Predicate::NumAbove { column: user_reports, threshold: 4.0 },
        ],
        Vote::Positive,
    )));
    // Negative rules: quiet authors, reputable URLs, clean pages.
    lfs.push(Box::new(ConjunctionLf::new(
        "expert_quiet_user",
        vec![
            Predicate::NumBelow { column: user_reports, threshold: 2.5 },
            Predicate::NumAbove { column: url_reputation, threshold: 0.72 },
        ],
        Vote::Negative,
    )));
    lfs.push(Box::new(ConjunctionLf::new(
        "expert_clean_page",
        vec![
            Predicate::NumAbove { column: page_quality, threshold: 0.70 },
            Predicate::NumBelow { column: user_reports, threshold: 3.5 },
        ],
        Vote::Negative,
    )));
    lfs.push(Box::new(NumericThresholdLf::new(
        url_reputation,
        0.88,
        ThresholdDirection::Above,
        Vote::Negative,
    )));
    Ok(lfs)
}

/// Wraps an LF with an expert-facing name.
struct ExpertNamed {
    inner: CategoricalContainsLf,
    name: String,
}

impl LabelingFunction for ExpertNamed {
    fn name(&self) -> &str {
        &self.name
    }

    fn vote(&self, table: &cm_featurespace::FeatureTable, row: usize) -> cm_labelmodel::Vote {
        self.inner.vote(table, row)
    }
}

#[cfg(test)]
mod tests {
    use cm_labelmodel::LabelMatrix;
    use cm_orgsim::{TaskConfig, TaskId, World, WorldConfig};

    use super::*;

    #[test]
    fn suite_has_both_polarities() {
        let world = World::build(WorldConfig::new(TaskConfig::paper(TaskId::Ct1).scaled(0.001), 1));
        let lfs = expert_lfs(world.schema()).unwrap();
        assert!(lfs.len() >= 12);
        assert!(lfs.iter().any(|l| l.name().contains("quiet")));
        assert!(lfs.iter().any(|l| l.name().contains("watchlist")));
    }

    #[test]
    fn expert_lfs_fire_more_on_positives() {
        let world = World::build(WorldConfig::new(TaskConfig::paper(TaskId::Ct2).scaled(0.01), 2));
        let data = world.generate(cm_featurespace::ModalityKind::Text, 4000, 3);
        let lfs = expert_lfs(world.schema()).unwrap();
        let m = LabelMatrix::apply_with(&data.table, &lfs, &cm_par::ParConfig::from_env());
        let (mut pos_hits, mut n_pos, mut neg_hits, mut n_neg) = (0usize, 0usize, 0usize, 0usize);
        for (r, label) in data.labels.iter().enumerate() {
            let hit = m.row(r).iter().any(|&v| v > 0);
            if label.is_positive() {
                n_pos += 1;
                pos_hits += usize::from(hit);
            } else {
                n_neg += 1;
                neg_hits += usize::from(hit);
            }
        }
        let pos_rate = pos_hits as f64 / n_pos.max(1) as f64;
        let neg_rate = neg_hits as f64 / n_neg.max(1) as f64;
        assert!(pos_rate > 0.7, "expert positive coverage of positives {pos_rate}");
        assert!(
            pos_rate > neg_rate * 1.5,
            "expert positive LFs: pos rate {pos_rate}, neg rate {neg_rate}"
        );
    }

    #[test]
    fn rejects_foreign_schema() {
        let err = expert_lfs(&FeatureSchema::new()).err().unwrap();
        assert_eq!(err.kind, cm_featurespace::ErrorKind::NotFound);
        assert!(err.message.contains("expert LFs need feature"));
    }
}
