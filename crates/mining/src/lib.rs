//! Automatic labeling-function generation via frequent itemset mining
//! (paper §4.3).
//!
//! Domain experts are scarce; the paper replaces them with an Apriori-style
//! miner over the labeled old-modality corpus: feature values that occur
//! disproportionately often in positive (resp. negative) examples become
//! labeling functions, subject to precision/recall thresholds evaluated on
//! the development set. Two of the paper's design choices are kept exactly:
//!
//! - **positives first** — candidates are counted over the positive
//!   examples alone before any pass over the (much larger, class-imbalanced)
//!   negatives;
//! - **single-feature conjunctions** — higher-order itemsets only combine
//!   values of the *same* feature, minimizing correlation between LFs.

pub mod apriori;
pub mod catalog;
pub mod discretize;
pub mod lfgen;
pub mod modelgen;
pub mod reference;

pub use apriori::{
    mine_from_bitsets, mine_itemsets_with, Item, ItemStats, ItemValue, MinedItemsets, MiningConfig,
};
pub use catalog::{ItemCatalog, ItemCatalogBuilder};
pub use discretize::Discretizer;
pub use lfgen::{lfs_from_itemsets, mine_lfs, MinedLfs, MiningReport};
pub use modelgen::{generate_stump_lfs, StumpConfig};
