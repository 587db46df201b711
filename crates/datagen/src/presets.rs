//! One preset per paper dataset (Table 2 and Table 7), with the schema
//! views and noise levels that give each benchmark its character. `dbp` is
//! scaled down: the original is 1.2M × 2.2M
//! profiles with 30k × 50k attributes; the preset keeps the structural
//! traits (heterogeneous pooled property space, partial mappability, high
//! nvp) at laptop scale.

use crate::clean_clean::CleanCleanSpec;
use crate::dirty::DirtySpec;
use crate::domain::Domain;
use crate::noise::NoiseModel;
use crate::schema_map::{FieldMapping, SourceSpec};

/// The clean-clean benchmarks of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CleanCleanPreset {
    /// ar1: DBLP ↔ ACM (bibliographic, fully mappable, clean).
    Ar1,
    /// ar2: DBLP ↔ Google Scholar (bibliographic, one noisy web source,
    /// very unbalanced sizes).
    Ar2,
    /// prd: Abt ↔ Buy (products, sparse values).
    Prd,
    /// mov: IMDB ↔ DBpedia (movies, partially mappable 4 vs 7 attributes,
    /// multi-valued actors).
    Mov,
    /// dbp: DBpedia 2007 ↔ 2009, scaled down (heterogeneous pooled
    /// properties, partially mappable).
    DbpScaled,
}

impl CleanCleanPreset {
    /// All five presets in the paper's order.
    pub const ALL: [CleanCleanPreset; 5] = [
        CleanCleanPreset::Ar1,
        CleanCleanPreset::Ar2,
        CleanCleanPreset::Prd,
        CleanCleanPreset::Mov,
        CleanCleanPreset::DbpScaled,
    ];

    /// The paper's label.
    pub fn label(&self) -> &'static str {
        match self {
            CleanCleanPreset::Ar1 => "ar1",
            CleanCleanPreset::Ar2 => "ar2",
            CleanCleanPreset::Prd => "prd",
            CleanCleanPreset::Mov => "mov",
            CleanCleanPreset::DbpScaled => "dbp",
        }
    }
}

/// Builds the spec of a clean-clean preset.
pub fn clean_clean_preset(preset: CleanCleanPreset) -> CleanCleanSpec {
    match preset {
        // DBLP 2.6k / ACM 2.3k, 4↔4 attributes, 2.2k matches, both curated.
        CleanCleanPreset::Ar1 => CleanCleanSpec {
            name: "ar1",
            domain: Domain::Bibliographic,
            shared: 2200,
            only1: 400,
            only2: 100,
            source1: SourceSpec {
                mappings: vec![
                    FieldMapping::Rename("title"),
                    FieldMapping::Rename("authors"),
                    FieldMapping::Rename("venue"),
                    FieldMapping::Rename("year"),
                ],
                noise: NoiseModel::light(),
            },
            source2: SourceSpec {
                mappings: vec![
                    FieldMapping::Rename("name"),
                    FieldMapping::Rename("writers"),
                    FieldMapping::Rename("booktitle"),
                    FieldMapping::Rename("date"),
                ],
                noise: NoiseModel::light(),
            },
            seed: 0xA41,
        },
        // DBLP 2.5k / Scholar 61k, 2.3k matches; Scholar is web-scraped.
        CleanCleanPreset::Ar2 => CleanCleanSpec {
            name: "ar2",
            domain: Domain::Bibliographic,
            shared: 2300,
            only1: 200,
            only2: 58_700,
            source1: SourceSpec {
                mappings: vec![
                    FieldMapping::Rename("title"),
                    FieldMapping::Rename("authors"),
                    FieldMapping::Rename("venue"),
                    FieldMapping::Rename("year"),
                ],
                noise: NoiseModel::light(),
            },
            source2: SourceSpec {
                mappings: vec![
                    FieldMapping::Rename("title"),
                    FieldMapping::Rename("author"),
                    FieldMapping::Rename("venue"),
                    FieldMapping::Rename("year"),
                ],
                noise: NoiseModel::heavy(),
            },
            seed: 0xA42,
        },
        // Abt 1.1k / Buy 1.1k, 1.1k matches; sparse name-value pairs.
        CleanCleanPreset::Prd => CleanCleanSpec {
            name: "prd",
            domain: Domain::Product,
            shared: 1080,
            only1: 20,
            only2: 15,
            source1: SourceSpec {
                mappings: vec![
                    FieldMapping::Rename("name"),
                    FieldMapping::Rename("description"),
                    FieldMapping::Rename("manufacturer"),
                    FieldMapping::Rename("price"),
                ],
                noise: NoiseModel {
                    value_missing: 0.38,
                    ..NoiseModel::medium()
                },
            },
            source2: SourceSpec {
                mappings: vec![
                    FieldMapping::Rename("title"),
                    FieldMapping::Rename("details"),
                    FieldMapping::Rename("brand"),
                    FieldMapping::Rename("cost"),
                ],
                noise: NoiseModel {
                    value_missing: 0.42,
                    ..NoiseModel::medium()
                },
            },
            seed: 0xA43,
        },
        // IMDB 28k (4 attrs) / DBpedia 23k (7 attrs), 23k matches,
        // partially mappable (actors/genre/country/writer only on one side,
        // name split on the other).
        CleanCleanPreset::Mov => CleanCleanSpec {
            name: "mov",
            domain: Domain::Movie,
            shared: 22_500,
            only1: 5_500,
            only2: 500,
            source1: SourceSpec {
                mappings: vec![
                    FieldMapping::Rename("title"),
                    FieldMapping::Rename("director"),
                    FieldMapping::Rename("starring"),
                    FieldMapping::Rename("year"),
                    FieldMapping::Drop,
                    FieldMapping::Drop,
                    FieldMapping::Drop,
                ],
                noise: NoiseModel::light(),
            },
            source2: SourceSpec {
                mappings: vec![
                    FieldMapping::Rename("label"),
                    FieldMapping::Rename("dbo_director"),
                    FieldMapping::Rename("dbo_starring"),
                    FieldMapping::Rename("dbo_year"),
                    FieldMapping::Rename("dbo_genre"),
                    FieldMapping::Rename("dbo_country"),
                    FieldMapping::Rename("dbo_writer"),
                ],
                noise: NoiseModel::medium(),
            },
            seed: 0xA44,
        },
        // DBpedia 2007 ↔ 2009, scaled: pooled heterogeneous properties,
        // ~25 % of nvp shared flavour via heavy noise + pool drift.
        CleanCleanPreset::DbpScaled => CleanCleanSpec {
            name: "dbp",
            domain: Domain::Encyclopedia,
            shared: 12_000,
            only1: 8_000,
            only2: 18_000,
            source1: SourceSpec {
                mappings: vec![
                    FieldMapping::Rename("rdfs_label"),
                    FieldMapping::Rename("abstract"),
                    FieldMapping::Pool {
                        prefix: "p07_",
                        variants: 1200,
                    },
                ],
                noise: NoiseModel::medium(),
            },
            source2: SourceSpec {
                mappings: vec![
                    FieldMapping::Rename("label"),
                    FieldMapping::Rename("dbo_abstract"),
                    FieldMapping::Pool {
                        prefix: "p09_",
                        variants: 1800,
                    },
                ],
                noise: NoiseModel::heavy(),
            },
            seed: 0xA45,
        },
    }
}

/// The dirty benchmarks of Table 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirtyPreset {
    /// census: 1k person records, 300 matching pairs, 5 attributes.
    Census,
    /// cora: 1k citation records, ~17k matches (huge duplicate clusters),
    /// 12 attributes.
    Cora,
    /// cddb: 10k album records, 600 matches, ~106 attributes (tracks).
    Cddb,
    /// census100k: census-style person records at 10⁵ profiles with a
    /// 100× vocabulary (the memory-diet smoke preset).
    Census100k,
    /// census1m: census-style person records at 10⁶ profiles with a
    /// 1000× vocabulary (the million-profile memory preset).
    Census1m,
}

impl DirtyPreset {
    /// The paper's three presets (Table 7) — the quality/benchmark matrix.
    pub const ALL: [DirtyPreset; 3] = [DirtyPreset::Census, DirtyPreset::Cora, DirtyPreset::Cddb];

    /// The synthetic scale-up presets of the memory benchmark (not part of
    /// [`DirtyPreset::ALL`]: generating them is minutes, not seconds).
    pub const SCALED: [DirtyPreset; 2] = [DirtyPreset::Census100k, DirtyPreset::Census1m];

    /// The paper's label.
    pub fn label(&self) -> &'static str {
        match self {
            DirtyPreset::Census => "census",
            DirtyPreset::Cora => "cora",
            DirtyPreset::Cddb => "cddb",
            DirtyPreset::Census100k => "census100k",
            DirtyPreset::Census1m => "census1m",
        }
    }
}

/// Builds the spec of a dirty preset.
pub fn dirty_preset(preset: DirtyPreset) -> DirtySpec {
    match preset {
        DirtyPreset::Census => DirtySpec {
            name: "census",
            domain: Domain::Person,
            entities: 700,
            profiles: 1000,
            source: SourceSpec {
                mappings: vec![
                    FieldMapping::Rename("first"),
                    FieldMapping::Rename("last"),
                    FieldMapping::Rename("street"),
                    FieldMapping::Rename("city"),
                    FieldMapping::Rename("zip"),
                ],
                noise: NoiseModel::medium(),
            },
            seed: 0xD01,
            vocab_scale: 1.0,
        },
        DirtyPreset::Cora => DirtySpec {
            name: "cora",
            domain: Domain::Reference,
            entities: 29,
            profiles: 1015,
            source: SourceSpec {
                mappings: Domain::Reference
                    .field_names()
                    .iter()
                    .map(|n| FieldMapping::Rename(n))
                    .collect(),
                noise: NoiseModel::heavy(),
            },
            seed: 0xD02,
            vocab_scale: 1.0,
        },
        DirtyPreset::Cddb => DirtySpec {
            name: "cddb",
            domain: Domain::Music,
            entities: 9_400,
            profiles: 10_000,
            source: SourceSpec {
                mappings: vec![
                    FieldMapping::Rename("artist"),
                    FieldMapping::Rename("dtitle"),
                    FieldMapping::Rename("genre"),
                    FieldMapping::Rename("year"),
                    FieldMapping::Indexed("track"),
                ],
                noise: NoiseModel::medium(),
            },
            seed: 0xD03,
            vocab_scale: 1.0,
        },
        DirtyPreset::Census100k => census_scaled("census100k", 100, 0xD05),
        DirtyPreset::Census1m => census_scaled("census1m", 1000, 0xD06),
    }
}

/// A census-shaped person dataset at `factor`× the paper's 1k-profile
/// scale, with the vocabulary pools grown by the same factor so token
/// selectivity (and hence block structure) stays realistic instead of
/// degenerating into a handful of giant posting lists.
fn census_scaled(name: &'static str, factor: usize, seed: u64) -> DirtySpec {
    DirtySpec {
        name,
        domain: Domain::Person,
        entities: 700 * factor,
        profiles: 1000 * factor,
        source: SourceSpec {
            mappings: vec![
                FieldMapping::Rename("first"),
                FieldMapping::Rename("last"),
                FieldMapping::Rename("street"),
                FieldMapping::Rename("city"),
                FieldMapping::Rename("zip"),
            ],
            noise: NoiseModel::medium(),
        },
        seed,
        vocab_scale: factor as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clean_clean::generate_clean_clean;
    use crate::dirty::generate_dirty;
    use blast_datamodel::input::ErInput;

    #[test]
    fn ar1_matches_table2_shape() {
        let (input, gt) = generate_clean_clean(&clean_clean_preset(CleanCleanPreset::Ar1));
        let ErInput::CleanClean { d1, d2 } = &input else {
            unreachable!()
        };
        assert_eq!(d1.len(), 2600);
        assert_eq!(d2.len(), 2300);
        assert_eq!(gt.len(), 2200);
        assert_eq!(d1.attribute_count(), 4);
        assert_eq!(d2.attribute_count(), 4);
        // nvp ≈ 4 per profile (Table 2: 10k / 9.2k).
        assert!(
            d1.nvp() > 9_000 && d1.nvp() <= 10_400,
            "nvp1 = {}",
            d1.nvp()
        );
    }

    #[test]
    fn prd_is_sparse() {
        let (input, gt) = generate_clean_clean(&clean_clean_preset(CleanCleanPreset::Prd));
        let ErInput::CleanClean { d1, d2 } = &input else {
            unreachable!()
        };
        assert_eq!(gt.len(), 1080);
        // Table 2: 2.6k / 2.3k nvp over 1.1k profiles ≈ 2.3 per profile.
        let per_profile = d1.nvp() as f64 / d1.len() as f64;
        assert!(
            (1.8..3.2).contains(&per_profile),
            "nvp/profile = {per_profile}"
        );
        assert!(d2.nvp() < d2.len() * 4);
    }

    #[test]
    fn dirty_presets_match_table7_shape() {
        let (input, gt) = generate_dirty(&dirty_preset(DirtyPreset::Census));
        assert_eq!(input.total_profiles(), 1000);
        assert_eq!(gt.len(), 300);

        let (input, gt) = generate_dirty(&dirty_preset(DirtyPreset::Cora).scaled(0.2));
        assert!(input.total_profiles() <= 210);
        assert!(gt.len() > 2_000, "cora-like duplication, got {}", gt.len());
    }

    #[test]
    fn cddb_has_track_attribute_explosion() {
        let (input, gt) = generate_dirty(&dirty_preset(DirtyPreset::Cddb).scaled(0.1));
        let ErInput::Dirty(d) = &input else {
            unreachable!()
        };
        assert!(
            d.attribute_count() > 40,
            "track columns should inflate |A|, got {}",
            d.attribute_count()
        );
        assert!(!gt.is_empty());
    }

    #[test]
    fn labels() {
        assert_eq!(CleanCleanPreset::Ar1.label(), "ar1");
        assert_eq!(DirtyPreset::Cddb.label(), "cddb");
        assert_eq!(CleanCleanPreset::ALL.len(), 5);
        assert_eq!(DirtyPreset::Census100k.label(), "census100k");
        assert!(!DirtyPreset::ALL.contains(&DirtyPreset::Census1m));
    }

    /// The scaled census presets must keep the paper preset's shape (same
    /// fields, same duplication ratio) while growing profiles and vocab
    /// together. Generating at a small scale factor keeps the test fast —
    /// `scaled` only shrinks entity counts, never the vocab multiplier.
    #[test]
    fn census_scaled_presets_keep_census_shape() {
        let spec = dirty_preset(DirtyPreset::Census100k);
        assert_eq!(spec.profiles, 100_000);
        assert_eq!(spec.entities, 70_000);
        assert_eq!(spec.vocab_scale, 100.0);
        let spec = dirty_preset(DirtyPreset::Census1m);
        assert_eq!(spec.profiles, 1_000_000);
        assert_eq!(spec.vocab_scale, 1000.0);

        let (input, gt) = generate_dirty(&dirty_preset(DirtyPreset::Census100k).scaled(0.01));
        let ErInput::Dirty(d) = &input else {
            unreachable!()
        };
        assert_eq!(d.len(), 1000);
        assert_eq!(d.attribute_count(), 5);
        assert!(gt.len() > 100, "census-like duplication, got {}", gt.len());
    }
}
