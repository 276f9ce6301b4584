//@ path: crates/pipeline/src/curation.rs
// Seeded negative: an explicit configuration, another type's `from_env`,
// a waived read at a pinned signature, and a read inside test code.

pub fn fit(x: &Matrix, par: &ParConfig) -> Model {
    Model::fit_with(x, &par.clone().with_min_chunk(64))
}

pub fn serial(x: &Matrix) -> Model {
    fit(x, &ParConfig::threads(1))
}

pub fn shard() -> CmResult<ShardConfig> {
    ShardConfig::from_env()
}

pub fn pinned(x: &Matrix) -> Model {
    // lint: allow(par-from-env) — a signature the benchmark calls
    fit(x, &ParConfig::from_env())
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_the_env() {
        let _ = super::fit(&Matrix::zeros(1, 1), &ParConfig::from_env());
    }
}
