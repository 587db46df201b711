//! End-to-end pipeline configuration.

use crate::schema::extraction::LooseSchemaConfig;

/// Configuration of the full BLAST pipeline (Fig. 4).
#[derive(Debug, Clone)]
pub struct BlastConfig {
    /// Phase 1: loose schema extraction (LMI/AC, α, LSH, glue, tokenizer —
    /// the tokenizer is shared with phase 2's Token Blocking).
    pub schema: LooseSchemaConfig,
    /// Apply Block Purging after blocking (the §4.1 workflow). The fraction
    /// is the maximum share of the collection's profiles a block may hold.
    pub purging: bool,
    /// Maximum profile fraction per block for purging (default 0.5).
    pub purge_fraction: f64,
    /// Apply Block Filtering after purging (the §4.1 workflow).
    pub filtering: bool,
    /// Block Filtering ratio: keep each profile in this fraction of its
    /// smallest blocks (default 0.8, "filter out the 20 % least significant
    /// blocks per profile").
    pub filter_ratio: f64,
    /// BLAST pruning constant c (θᵢ = Mᵢ/c; default 2).
    pub c: f64,
    /// BLAST pruning constant d (θᵢⱼ = (θᵢ+θⱼ)/d; default 2).
    pub d: f64,
    /// Multiply χ² by the aggregate entropy h(B_uv) (default true; false is
    /// the Fig. 8 "chi" ablation).
    pub use_entropy: bool,
}

impl Default for BlastConfig {
    fn default() -> Self {
        Self {
            schema: LooseSchemaConfig::default(),
            purging: true,
            purge_fraction: 0.5,
            filtering: true,
            filter_ratio: 0.8,
            c: 2.0,
            d: 2.0,
            use_entropy: true,
        }
    }
}

impl BlastConfig {
    /// The paper's default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Disables purging and filtering (raw token-blocking graph).
    pub fn without_block_cleaning(mut self) -> Self {
        self.purging = false;
        self.filtering = false;
        self
    }

    /// Sets the pruning constants.
    pub fn with_pruning_constants(mut self, c: f64, d: f64) -> Self {
        assert!(c > 0.0 && d > 0.0, "c and d must be positive");
        self.c = c;
        self.d = d;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = BlastConfig::default();
        assert_eq!(c.c, 2.0);
        assert_eq!(c.d, 2.0);
        assert!(c.use_entropy);
        assert!(c.purging);
        assert!(c.filtering);
        assert_eq!(c.filter_ratio, 0.8);
        assert_eq!(c.purge_fraction, 0.5);
        assert_eq!(c.schema.alpha, 0.9);
    }

    #[test]
    fn builders_compose() {
        let c = BlastConfig::new()
            .without_block_cleaning()
            .with_pruning_constants(3.0, 1.5);
        assert!(!c.purging && !c.filtering);
        assert_eq!(c.c, 3.0);
        assert_eq!(c.d, 1.5);
    }
}
