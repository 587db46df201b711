//! Phases 1–2 share one tokenized view (`TokenizedInput`). The pipeline
//! builds it once; the `ErInput` entry points of schema extraction and
//! Token Blocking each build their own. Both routes must give the same
//! partitioning, blocks and pairs, and the band-major LSH index the same
//! candidates as per-column signatures inserted one by one.

use blast::blocking::collection::BlockCollection;
use blast::blocking::filtering::BlockFiltering;
use blast::blocking::purging::BlockPurging;
use blast::blocking::TokenBlocking;
use blast::core::config::BlastConfig;
use blast::core::pipeline::BlastPipeline;
use blast::core::pruning::BlastPruning;
use blast::core::schema::attribute_profile::AttributeProfiles;
use blast::core::schema::candidates::CandidateSource;
use blast::core::schema::entropy::shannon_entropy;
use blast::core::schema::extraction::{LooseSchemaExtractor, LooseSchemaInfo};
use blast::core::weighting::ChiSquaredWeigher;
use blast::datagen::{
    clean_clean_preset, dirty_preset, generate_clean_clean, generate_dirty, CleanCleanPreset,
    DirtyPreset,
};
use blast::datamodel::entity::{AttributeId, SourceId};
use blast::datamodel::hash::FastMap;
use blast::datamodel::interner::Interner;
use blast::datamodel::{ErInput, Tokenizer};
use blast::graph::context::GraphSnapshot;
use blast::graph::retained::RetainedPairs;
use blast::lsh::{BandingIndex, MinHasher};

fn dbp() -> ErInput {
    generate_clean_clean(&clean_clean_preset(CleanCleanPreset::DbpScaled).scaled(0.03)).0
}

fn lsh_config() -> BlastConfig {
    let mut config = BlastConfig::default();
    config.schema.candidates = CandidateSource::lsh_default();
    config
}

/// `BlastPipeline::run` spelled out stage by stage through the `ErInput`
/// entry points, each of which tokenizes the input itself.
fn staged(
    config: &BlastConfig,
    input: &ErInput,
) -> (LooseSchemaInfo, BlockCollection, RetainedPairs) {
    let schema = LooseSchemaExtractor::new(config.schema.clone()).extract(input);
    let raw = TokenBlocking::with_tokenizer(config.schema.tokenizer.clone())
        .build_with(input, &schema.partitioning);
    let purged = BlockPurging::new()
        .max_profile_fraction(config.purge_fraction)
        .purge(&raw);
    let blocks = BlockFiltering::with_ratio(config.filter_ratio).filter(&purged);
    let entropies = schema.partitioning.block_entropies(&blocks);
    let graph = GraphSnapshot::build(&blocks).with_block_entropies(entropies);
    let pairs =
        BlastPruning::with_constants(config.c, config.d).prune(&graph, &ChiSquaredWeigher::new());
    (schema, blocks, pairs)
}

fn assert_same_schema(a: &LooseSchemaInfo, b: &LooseSchemaInfo) {
    assert_eq!(a.columns, b.columns);
    assert_eq!(a.candidate_pairs, b.candidate_pairs);
    assert_eq!(a.clusters, b.clusters);
    assert_eq!(
        a.partitioning.cluster_count(),
        b.partitioning.cluster_count()
    );
    assert_eq!(a.partitioning.sizes(), b.partitioning.sizes());
    let bits = |info: &LooseSchemaInfo| -> Vec<u64> {
        info.partitioning
            .entropies()
            .iter()
            .map(|h| h.to_bits())
            .collect()
    };
    assert_eq!(bits(a), bits(b), "aggregate entropies, bit for bit");
}

fn assert_same_blocks(a: &BlockCollection, b: &BlockCollection) {
    assert_eq!(a.len(), b.len(), "block count");
    for (i, (x, y)) in a.blocks().iter().zip(b.blocks()).enumerate() {
        assert_eq!(x.label, y.label, "block {i} label");
        assert_eq!(x.cluster, y.cluster, "block {i} ({}) cluster", x.label);
        assert_eq!(x.profiles, y.profiles, "block {i} ({}) members", x.label);
        assert_eq!(x.split, y.split, "block {i} ({}) split", x.label);
    }
    assert_eq!(a.aggregate_cardinality(), b.aggregate_cardinality());
}

fn assert_pipeline_matches_stages(config: &BlastConfig, input: &ErInput) {
    let outcome = BlastPipeline::new(config.clone()).run(input);
    let (schema, blocks, pairs) = staged(config, input);
    assert_same_schema(&outcome.schema, &schema);
    assert_same_blocks(&outcome.blocks, &blocks);
    assert_eq!(outcome.pairs.pairs(), pairs.pairs(), "retained pairs");
    assert!(!pairs.is_empty());

    let (built, built_schema) = BlastPipeline::new(config.clone()).build_blocks(input);
    assert_same_schema(&built_schema, &schema);
    assert_same_blocks(&built, &blocks);
}

#[test]
fn dbp_with_lsh_candidates_pipeline_equals_stages() {
    assert_pipeline_matches_stages(&lsh_config(), &dbp());
}

#[test]
fn dirty_census_pipeline_equals_stages() {
    let (input, _) = generate_dirty(&dirty_preset(DirtyPreset::Census).scaled(0.3));
    assert_pipeline_matches_stages(&BlastConfig::default(), &input);
}

/// The attribute profiles as they were built before the shared view:
/// tokenize and intern per value, one count map per attribute created when
/// its first value is met.
fn per_value_profiles(
    input: &ErInput,
    tokenizer: &Tokenizer,
) -> Vec<(SourceId, AttributeId, Vec<u32>, u64)> {
    let mut tokens = Interner::new();
    let mut per_attr: FastMap<(SourceId, AttributeId), FastMap<u32, u64>> = FastMap::default();
    for (_, source, profile) in input.iter_profiles() {
        for (attr, value) in &profile.values {
            let counts = per_attr.entry((source, *attr)).or_default();
            tokenizer.for_each_token(value, |tok| {
                *counts.entry(tokens.intern(tok).0).or_insert(0) += 1;
            });
        }
    }
    let mut keys: Vec<_> = per_attr.keys().copied().collect();
    keys.sort_unstable();
    keys.into_iter()
        .map(|key| {
            let counts = per_attr.remove(&key).expect("key from map");
            let entropy = shannon_entropy(counts.values().copied());
            let mut toks: Vec<u32> = counts.into_keys().collect();
            toks.sort_unstable();
            (key.0, key.1, toks, entropy.to_bits())
        })
        .collect()
}

/// Symbol ids, columns and entropy bits are those of per-value interning.
#[test]
fn profiles_from_the_view_equal_per_value_interning() {
    let (dirty, _) = generate_dirty(&dirty_preset(DirtyPreset::Cora).scaled(0.2));
    for input in [dbp(), dirty] {
        let tokenizer = Tokenizer::new();
        let profiles = AttributeProfiles::build(&input, &tokenizer);
        let got: Vec<_> = profiles
            .columns()
            .iter()
            .map(|c| (c.source, c.attribute, c.tokens.clone(), c.entropy.to_bits()))
            .collect();
        assert_eq!(got, per_value_profiles(&input, &tokenizer));
    }
}

/// The band-major index equals per-column `signature` + `insert`, for the
/// default banding and two threshold-derived ones.
#[test]
fn band_major_lsh_candidates_equal_per_column_signatures() {
    let profiles = AttributeProfiles::build(&dbp(), &Tokenizer::new());
    assert!(profiles.is_bipartite());
    let sources = [
        CandidateSource::lsh_default(),
        CandidateSource::lsh_with_threshold(150, 0.32, 7),
        CandidateSource::lsh_with_threshold(150, 0.8, 0xf16),
    ];
    for source in sources {
        let CandidateSource::Lsh { rows, bands, seed } = source else {
            unreachable!("LSH sources only")
        };
        let hasher = MinHasher::new(rows * bands, seed);
        let mut index = BandingIndex::new(bands, rows);
        for (i, col) in profiles.columns().iter().enumerate() {
            if !col.tokens.is_empty() {
                index.insert(i as u32, &hasher.signature(col.tokens.iter().copied()));
            }
        }
        let expected = index.candidate_pairs_bipartite(profiles.separator() as u32);
        assert!(!expected.is_empty());
        assert_eq!(
            source.pairs(&profiles),
            expected,
            "(r, b) = ({rows}, {bands})"
        );
    }
}
