//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§4) on the synthetic stand-in benchmarks.
//!
//! Each `experiments::table*` / `experiments::fig*` function returns the
//! formatted experiment output; the `exp_*` binaries are thin wrappers and
//! `run_all` executes the whole suite. (The repo's own performance
//! benchmark is a separate package: see `benchmark/README.md`.)
//!
//! All experiments honour the `BLAST_SCALE` environment variable: entity
//! counts are multiplied by it. The default is 0.25, which finishes the
//! whole suite in a few minutes. `BLAST_SCALE=1.0` runs the full Table 2 sizes,
//! `BLAST_SCALE=0.05` is a quick smoke pass.

pub mod experiments;
pub mod methods;

/// The dataset scale factor from `BLAST_SCALE` (default 0.25; see the
/// crate docs).
pub fn scale() -> f64 {
    std::env::var("BLAST_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(0.25)
}

#[cfg(test)]
mod tests {
    #[test]
    fn scale_parses_env() {
        // Can't mutate the environment safely in parallel tests; just check
        // the default path.
        let s = super::scale();
        assert!(s > 0.0);
    }
}
