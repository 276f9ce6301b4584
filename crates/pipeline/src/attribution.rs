//! Feature-set attribution (paper §7.1).
//!
//! "Methods for feature attribution would enable us to evaluate the
//! contribution of specific data modalities and resources on a per-service
//! basis." This module implements mask-based attribution: the contribution
//! of a feature set is the AUPRC the trained model loses when that set is
//! masked (marked missing) at evaluation time — a permutation-importance
//! analogue that needs no retraining, so it scales to many resources.

use cm_featurespace::{CmError, CmResult, ErrorKind, FeatureSet};
use cm_fusion::{concat_parts, ModalityData};
use cm_models::{train_model, ModelKind, TrainConfig};
use cm_par::ParConfig;

use crate::curation::CurationOutput;
use crate::data::{mask_disallowed_sets, DenseView, TaskData};
use crate::training::Scenario;

/// Attribution of one feature set.
#[derive(Debug, Clone, PartialEq)]
pub struct SetAttribution {
    /// The feature set.
    pub set: FeatureSet,
    /// AUPRC with every configured set available.
    pub full_auprc: f64,
    /// AUPRC with this set masked at evaluation time.
    pub masked_auprc: f64,
    /// `full - masked`: the set's marginal contribution.
    pub contribution: f64,
}

/// Computes mask-based attribution for each shared feature set used by a
/// cross-modal scenario.
///
/// Trains the scenario's early-fusion model once, then evaluates the test
/// set repeatedly with one feature set masked at a time.
///
/// # Errors
/// Returns [`ErrorKind::InvalidConfig`] if the scenario uses no shared sets,
/// has no modality, or (for weak labels) `curation` is missing.
pub fn feature_set_attribution(
    data: &TaskData,
    scenario: &Scenario,
    curation: Option<&CurationOutput>,
    model: &ModelKind,
    train: &TrainConfig,
    par: &ParConfig,
) -> CmResult<Vec<SetAttribution>> {
    if scenario.image_sets.is_empty() {
        return Err(CmError::new(
            ErrorKind::InvalidConfig,
            "feature_set_attribution",
            "scenario must use shared feature sets".to_owned(),
        ));
    }
    let schema = data.world.schema();
    let mut columns =
        schema.columns_in_sets(&scenario.image_sets, scenario.include_modality_specific);
    for &c in &schema.columns_in_sets(&scenario.text_sets, false) {
        if !columns.contains(&c) {
            columns.push(c);
        }
    }
    columns.sort_unstable();
    let view = DenseView::fit(&[&data.text.table, &data.pool.table], columns)?;

    // Train once, exactly as ScenarioRunner would for early fusion.
    let mut parts: Vec<ModalityData> = Vec::new();
    if !scenario.text_sets.is_empty() {
        let mut x = view.encode(&data.text.table);
        mask_disallowed_sets(&mut x, &view, schema, &allowed(scenario, true));
        parts.push(ModalityData::new(x, data.text.labels_f64()));
    }
    if scenario.image_labels.is_some() {
        let cur = curation.ok_or_else(|| {
            CmError::new(
                ErrorKind::InvalidConfig,
                "feature_set_attribution",
                "weak-label scenario requires curation output".to_owned(),
            )
        })?;
        let mut x = view.encode(&data.pool.table);
        mask_disallowed_sets(&mut x, &view, schema, &allowed(scenario, false));
        parts.push(ModalityData::new(x, cur.probabilistic_labels.clone()));
    }
    if parts.is_empty() {
        return Err(CmError::new(
            ErrorKind::InvalidConfig,
            "feature_set_attribution",
            "scenario has no modality".to_owned(),
        ));
    }
    let (x, y) = concat_parts(&parts);
    let fused = train_model(model, &x, &y, None, train, None, par);

    let truth: Vec<bool> = data.test.labels.iter().map(|l| l.is_positive()).collect();
    let full_x = {
        let mut x = view.encode(&data.test.table);
        mask_disallowed_sets(&mut x, &view, schema, &allowed(scenario, false));
        x
    };
    let full_auprc = cm_eval::auprc(&fused.predict_proba(&full_x, par), &truth);

    let mut out = Vec::new();
    for &set in &scenario.image_sets {
        let mut remaining = allowed(scenario, false);
        remaining.retain(|&s| s != set);
        let mut x = view.encode(&data.test.table);
        mask_disallowed_sets(&mut x, &view, schema, &remaining);
        let masked_auprc = cm_eval::auprc(&fused.predict_proba(&x, par), &truth);
        out.push(SetAttribution {
            set,
            full_auprc,
            masked_auprc,
            contribution: full_auprc - masked_auprc,
        });
    }
    out.sort_by(|a, b| b.contribution.total_cmp(&a.contribution));
    Ok(out)
}

fn allowed(scenario: &Scenario, text_side: bool) -> Vec<FeatureSet> {
    let mut sets = if text_side { scenario.text_sets.clone() } else { scenario.image_sets.clone() };
    if scenario.include_modality_specific {
        sets.push(FeatureSet::ModalitySpecific);
    }
    sets
}

#[cfg(test)]
mod tests {
    use cm_orgsim::{TaskConfig, TaskId};

    use super::*;
    use crate::curation::{curate, CurationConfig};

    #[test]
    fn attribution_covers_every_set_and_orders_by_contribution() {
        let data = TaskData::generate(TaskConfig::paper(TaskId::Ct2).scaled(0.03), 3, Some(64));
        let curation = curate(&data, &CurationConfig::default());
        let scenario = Scenario::cross_modal(&FeatureSet::SHARED);
        let attr = feature_set_attribution(
            &data,
            &scenario,
            Some(&curation),
            &ModelKind::Logistic,
            &TrainConfig { epochs: 8, ..TrainConfig::default() },
            &ParConfig::from_env(),
        )
        .unwrap();
        assert_eq!(attr.len(), 4);
        for w in attr.windows(2) {
            assert!(w[0].contribution >= w[1].contribution);
        }
        for a in &attr {
            assert_eq!(a.full_auprc, attr[0].full_auprc);
            assert!((a.contribution - (a.full_auprc - a.masked_auprc)).abs() < 1e-12);
        }
        // The strong sets (C/D carry most task signal in CT 2) should
        // contribute more than the weakest set.
        let by_set = |s: FeatureSet| attr.iter().find(|a| a.set == s).unwrap().contribution;
        let strongest = by_set(FeatureSet::C).max(by_set(FeatureSet::D));
        let weakest = by_set(FeatureSet::A).min(by_set(FeatureSet::B));
        assert!(
            strongest >= weakest,
            "set C/D ({strongest:.4}) should out-contribute A/B ({weakest:.4})"
        );
    }

    #[test]
    fn rejects_setless_scenarios() {
        let data = TaskData::generate(TaskConfig::paper(TaskId::Ct2).scaled(0.01), 5, Some(64));
        let mut scenario = Scenario::cross_modal(&FeatureSet::SHARED);
        scenario.image_sets.clear();
        let err = feature_set_attribution(
            &data,
            &scenario,
            None,
            &ModelKind::Logistic,
            &TrainConfig::default(),
            &ParConfig::from_env(),
        )
        .unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidConfig);
        assert!(err.message.contains("shared feature sets"));
    }
}
