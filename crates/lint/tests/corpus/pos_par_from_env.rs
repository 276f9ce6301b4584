//@ path: crates/models/src/trainer.rs
// Seeded positive: a library function reading CM_THREADS itself instead
// of taking a `&ParConfig` from its caller, on one line and split across
// lines.

pub fn fit(x: &Matrix) -> Model {
    let par = ParConfig::from_env();
    Model::fit_with(x, &par)
}

pub fn predict(m: &Model, x: &Matrix) -> Vec<f64> {
    m.predict_with(x, &cm_par::ParConfig::
        from_env())
}
