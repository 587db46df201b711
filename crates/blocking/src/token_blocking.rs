//! Token Blocking (§3.2): the most general schema-agnostic blocking.
//!
//! Every token appearing anywhere in the dataset is a blocking key; a block
//! gathers all profiles containing that token, regardless of the attribute.
//! With a [`KeyDisambiguator`] other than [`SingleCluster`], keys become
//! (attribute-cluster, token) pairs — the loosely schema-aware blocking of
//! BLAST, which splits e.g. the "Abram" block into a person-name block and
//! a street-name block (Fig. 2).
//!
//! The blocks are built from a [`TokenizedInput`] — the view loose schema
//! extraction reads too, so BLAST tokenizes once —
//! by [`TokenBlocking::build_tokenized`], an associated function: the view
//! already fixes τ, so no second tokenizer can enter. The [`ErInput`]
//! entry points tokenize with the configured tokenizer and call it. A
//! block's `"{token}#c{k}"` label is formatted only once its key is known
//! to imply a comparison.

use crate::block::{comparison_cardinality, Block};
use crate::collection::BlockCollection;
use crate::key::{ClusterId, KeyDisambiguator, SingleCluster};
use blast_datamodel::entity::ProfileId;
use blast_datamodel::hash::FastMap;
use blast_datamodel::input::ErInput;
use blast_datamodel::interner::Symbol;
use blast_datamodel::tokenized::TokenizedInput;
use blast_datamodel::tokenizer::Tokenizer;

/// Schema-agnostic Token Blocking with optional key disambiguation.
///
/// ```
/// use blast_blocking::token_blocking::TokenBlocking;
/// use blast_datamodel::{EntityCollection, ErInput};
/// use blast_datamodel::entity::SourceId;
///
/// let mut d = EntityCollection::new(SourceId(0));
/// d.push_pairs("p1", [("name", "John Abram")]);
/// d.push_pairs("p2", [("mail", "Abram st.")]);
/// let blocks = TokenBlocking::new().build(&ErInput::dirty(d));
/// // One shared token → one block ("abram") with both profiles.
/// assert_eq!(blocks.len(), 1);
/// assert_eq!(blocks.blocks()[0].len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TokenBlocking {
    tokenizer: Tokenizer,
}

impl TokenBlocking {
    /// Token Blocking with the default tokenizer (lowercased alphanumeric
    /// runs, no stop-word removal — the paper's configuration).
    pub fn new() -> Self {
        Self::default()
    }

    /// Token Blocking with a custom value transformation function.
    pub fn with_tokenizer(tokenizer: Tokenizer) -> Self {
        Self { tokenizer }
    }

    /// Plain schema-agnostic blocking (single glue cluster).
    pub fn build(&self, input: &ErInput) -> BlockCollection {
        self.build_with(input, &SingleCluster)
    }

    /// Blocking with keys disambiguated by `disambiguator` (loosely
    /// schema-aware blocking when the disambiguator is an attribute
    /// partitioning).
    pub fn build_with(
        &self,
        input: &ErInput,
        disambiguator: &impl KeyDisambiguator,
    ) -> BlockCollection {
        Self::build_tokenized(
            &TokenizedInput::build(input, &self.tokenizer),
            disambiguator,
        )
    }

    /// Blocking over an already tokenized input, keys disambiguated by
    /// `disambiguator`.
    pub fn build_tokenized(
        tokens: &TokenizedInput,
        disambiguator: &impl KeyDisambiguator,
    ) -> BlockCollection {
        let multi_cluster = disambiguator.cluster_count() > 1;
        // Per source, attribute id → cluster (`None`: excluded from
        // blocking), asked once per attribute rather than once per token.
        let mut cluster_of: [Vec<Option<ClusterId>>; 2] = [Vec::new(), Vec::new()];
        for &(source, attr) in tokens.attributes() {
            let slots = &mut cluster_of[source.0 as usize];
            if slots.len() <= attr.index() {
                slots.resize(attr.index() + 1, None);
            }
            slots[attr.index()] = disambiguator.cluster_of(source, attr);
        }
        // (cluster, token) → sorted posting list of global profile ids.
        // Profiles arrive in id order, so a key repeated within a profile
        // finds that profile already last on its list.
        let mut postings: FastMap<(ClusterId, Symbol), Vec<ProfileId>> = FastMap::default();
        for (pid, source, run) in tokens.iter_profiles() {
            let slots = &cluster_of[source.0 as usize];
            for &(attr, token) in run {
                let Some(cluster) = slots[attr.index()] else {
                    continue; // attribute excluded from blocking
                };
                let ids = postings.entry((cluster, token)).or_default();
                if ids.last() != Some(&pid) {
                    ids.push(pid);
                }
            }
        }

        // Only keys implying a comparison become blocks.
        let clean_clean = tokens.is_clean_clean();
        let separator = tokens.separator();
        let mut entries: Vec<((ClusterId, Symbol), Vec<ProfileId>)> = postings
            .into_iter()
            .filter(|(_, ids)| comparison_cardinality(ids, separator, clean_clean) > 0)
            .collect();

        // Canonical block order: (cluster, token string). Unlike token-id
        // (first-appearance) order, this is independent of the insertion
        // history, so an incrementally maintained index can reproduce the
        // exact same collection — block ids included — from any mutation
        // sequence (the batch-equivalence contract of `blast-incremental`).
        let interner = tokens.interner();
        entries.sort_unstable_by(|((ca, ta), _), ((cb, tb), _)| {
            ca.cmp(cb)
                .then_with(|| interner.resolve(*ta).cmp(interner.resolve(*tb)))
        });

        let blocks: Vec<Block> = entries
            .into_iter()
            .map(|((cluster, token), profiles)| {
                let label = if multi_cluster {
                    format!("{}#c{}", interner.resolve(token), cluster.0)
                } else {
                    interner.resolve(token).to_string()
                };
                Block::new(label, cluster, profiles, separator)
            })
            .collect();

        BlockCollection::new(
            blocks,
            clean_clean,
            separator,
            tokens.total_profiles() as u32,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_datamodel::collection::EntityCollection;
    use blast_datamodel::entity::SourceId;

    /// The four profiles of Figure 1a, as a dirty (single-collection) input.
    pub(crate) fn figure1_input() -> ErInput {
        let mut d = EntityCollection::new(SourceId(0));
        // p1
        d.push_pairs(
            "p1",
            [
                ("Name", "John Abram Jr"),
                ("profession", "car seller"),
                ("year", "1985"),
                ("Addr.", "Main street"),
            ],
        );
        // p2
        d.push_pairs(
            "p2",
            [
                ("FirstName", "Ellen"),
                ("SecondName", "Smith"),
                ("year", "85"),
                ("occupation", "retail"),
                ("mail", "Abram st. 30 NY"),
            ],
        );
        // p3
        d.push_pairs(
            "p3",
            [
                ("name1", "Jon Jr"),
                ("name2", "Abram"),
                ("birth year", "85"),
                ("job", "car retail"),
                ("Loc", "Main st."),
            ],
        );
        // p4
        d.push_pairs(
            "p4",
            [
                ("full name", "Ellen Smith"),
                ("b. date", "May 10 1985"),
                ("work info", "retailer"),
                ("loc", "Abram street NY"),
            ],
        );
        ErInput::dirty(d)
    }

    /// Figure 1b: Token Blocking on the Figure 1a profiles yields exactly
    /// the twelve blocks shown in the paper.
    #[test]
    fn figure1_blocks_match_paper() {
        let input = figure1_input();
        let blocks = TokenBlocking::new().build(&input);

        let expected: &[(&str, &[u32])] = &[
            ("ellen", &[1, 3]),
            ("smith", &[1, 3]),
            ("1985", &[0, 3]),
            ("car", &[0, 2]),
            ("ny", &[1, 3]),
            ("main", &[0, 2]),
            ("abram", &[0, 1, 2, 3]),
            ("street", &[0, 3]),
            ("jr", &[0, 2]),
            ("85", &[1, 2]),
            ("st", &[1, 2]),
            ("retail", &[1, 2]),
        ];
        assert_eq!(blocks.len(), expected.len(), "paper shows 12 blocks");
        for (label, profiles) in expected {
            let b = blocks
                .block_by_label(label)
                .unwrap_or_else(|| panic!("missing block {label}"));
            let got: Vec<u32> = b.profiles.iter().map(|p| p.0).collect();
            assert_eq!(&got, profiles, "block {label}");
        }
    }

    /// Block order must be a pure function of the block *set* (sorted by
    /// cluster, then label), never of the insertion history — the
    /// incremental index relies on reproducing it exactly.
    #[test]
    fn block_order_is_canonical() {
        let blocks = TokenBlocking::new().build(&figure1_input());
        let labels: Vec<&str> = blocks.blocks().iter().map(|b| &*b.label).collect();
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        assert_eq!(labels, sorted);
    }

    #[test]
    fn clean_clean_drops_one_sided_blocks() {
        let mut d1 = EntityCollection::new(SourceId(0));
        d1.push_pairs("a", [("name", "alpha shared")]);
        d1.push_pairs("b", [("name", "solo1 alpha")]);
        let mut d2 = EntityCollection::new(SourceId(1));
        d2.push_pairs("c", [("title", "shared beta")]);
        let input = ErInput::clean_clean(d1, d2);
        let blocks = TokenBlocking::new().build(&input);
        // "alpha" appears only in E1 → dropped; "shared" spans both → kept;
        // "beta"/"solo1" are singletons → dropped.
        assert_eq!(blocks.len(), 1);
        assert_eq!(&*blocks.blocks()[0].label, "shared");
        assert_eq!(blocks.aggregate_cardinality(), 1);
    }

    #[test]
    fn token_repeated_in_profile_counted_once() {
        let mut d = EntityCollection::new(SourceId(0));
        d.push_pairs("a", [("x", "rose rose rose"), ("y", "rose")]);
        d.push_pairs("b", [("x", "rose")]);
        let blocks = TokenBlocking::new().build(&ErInput::dirty(d));
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks.blocks()[0].len(), 2);
    }

    #[test]
    fn disambiguation_splits_blocks() {
        use blast_datamodel::entity::AttributeId;

        struct TwoClusters {
            name_attrs: Vec<(SourceId, AttributeId)>,
        }
        impl KeyDisambiguator for TwoClusters {
            fn cluster_of(&self, source: SourceId, attribute: AttributeId) -> Option<ClusterId> {
                if self.name_attrs.contains(&(source, attribute)) {
                    Some(ClusterId(1))
                } else {
                    Some(ClusterId::GLUE)
                }
            }
            fn cluster_count(&self) -> usize {
                2
            }
        }

        // Figure 2: clustering the name attributes separates "Abram" as a
        // person name from "Abram" as a street name.
        let input = figure1_input();
        let ErInput::Dirty(d) = &input else {
            unreachable!()
        };
        let name_attrs: Vec<_> = [
            "Name",
            "FirstName",
            "SecondName",
            "name1",
            "name2",
            "full name",
        ]
        .iter()
        .map(|n| (SourceId(0), d.attribute_id(n).unwrap()))
        .collect();
        let blocks = TokenBlocking::new().build_with(&input, &TwoClusters { name_attrs });

        let abram_name = blocks
            .block_by_label("abram#c1")
            .expect("name-cluster abram block");
        let abram_other = blocks
            .block_by_label("abram#c0")
            .expect("glue-cluster abram block");
        let name_ids: Vec<u32> = abram_name.profiles.iter().map(|p| p.0).collect();
        let other_ids: Vec<u32> = abram_other.profiles.iter().map(|p| p.0).collect();
        // p1 (Name) and p3 (name2) use Abram as a person name; p2 (mail) and
        // p4 (loc) as a street name — exactly Figure 2a.
        assert_eq!(name_ids, vec![0, 2]);
        assert_eq!(other_ids, vec![1, 3]);
    }

    mod properties {
        use super::*;
        use blast_datamodel::entity::ProfileId;
        use blast_datamodel::tokenizer::Tokenizer;
        use proptest::prelude::*;

        fn arb_dirty_input() -> impl Strategy<Value = ErInput> {
            let word = prop_oneof![
                Just("alpha"),
                Just("beta"),
                Just("gamma"),
                Just("delta"),
                Just("x1"),
            ];
            let value = proptest::collection::vec(word, 1..4).prop_map(|w| w.join(" "));
            let profile = proptest::collection::vec(value, 1..3);
            proptest::collection::vec(profile, 2..8).prop_map(|profiles| {
                let mut d = EntityCollection::new(SourceId(0));
                for (i, values) in profiles.iter().enumerate() {
                    d.push_pairs(
                        &format!("p{i}"),
                        values
                            .iter()
                            .enumerate()
                            .map(|(j, v)| (["a", "b", "c"][j % 3], v.as_str())),
                    );
                }
                ErInput::dirty(d)
            })
        }

        proptest! {
            /// Token Blocking's completeness guarantee: any two profiles
            /// sharing at least one token co-occur in at least one block.
            #[test]
            fn prop_shared_token_implies_co_occurrence(input in arb_dirty_input()) {
                use crate::index::ProfileBlockIndex;
                let blocks = TokenBlocking::new().build(&input);
                let index = ProfileBlockIndex::build(&blocks);
                let tokenizer = Tokenizer::new();
                let token_sets: Vec<std::collections::HashSet<String>> = input
                    .iter_profiles()
                    .map(|(_, _, p)| {
                        let mut set = std::collections::HashSet::new();
                        for (_, v) in &p.values {
                            tokenizer.for_each_token(v, |t| {
                                set.insert(t.to_string());
                            });
                        }
                        set
                    })
                    .collect();
                for a in 0..token_sets.len() {
                    for b in a + 1..token_sets.len() {
                        let share = !token_sets[a].is_disjoint(&token_sets[b]);
                        prop_assert_eq!(
                            share,
                            index.co_occur(a as u32, b as u32),
                            "profiles {} and {} share={} but co_occur disagrees", a, b, share
                        );
                    }
                }
            }

            /// Every block is keyed by a token every member actually has.
            #[test]
            fn prop_blocks_are_sound(input in arb_dirty_input()) {
                let blocks = TokenBlocking::new().build(&input);
                let tokenizer = Tokenizer::new();
                for block in blocks.blocks() {
                    for &ProfileId(p) in &block.profiles {
                        let profile = input.profile(ProfileId(p));
                        let mut found = false;
                        for (_, v) in &profile.values {
                            tokenizer.for_each_token(v, |t| {
                                if t == &*block.label {
                                    found = true;
                                }
                            });
                        }
                        prop_assert!(found, "profile {} lacks token {:?}", p, block.label);
                    }
                }
            }
        }
    }

    #[test]
    fn excluded_attributes_produce_no_keys() {
        struct ExcludeAll;
        impl KeyDisambiguator for ExcludeAll {
            fn cluster_of(
                &self,
                _: SourceId,
                _: blast_datamodel::entity::AttributeId,
            ) -> Option<ClusterId> {
                None
            }
            fn cluster_count(&self) -> usize {
                1
            }
        }
        let input = figure1_input();
        let blocks = TokenBlocking::new().build_with(&input, &ExcludeAll);
        assert!(blocks.is_empty());
    }
}
