//! Attribute profiles: the representation model of §2.1.
//!
//! Each attribute `aⱼ` is the tuple ⟨aⱼ, τ(V_aⱼ)⟩ — the set of tokens its
//! values produce under the value-transformation function τ. With the
//! binary-presence weighting of LMI, an attribute *is* its token set; token
//! ids come from one interner shared across both sources so sets are
//! directly comparable. The token *multiset* counts are also kept, because
//! the entropy extraction (§3.1.3) needs the value distribution.
//!
//! The profiles are read off a [`TokenizedInput`], the tokenized view that
//! Token Blocking reads too, so τ runs once per input; the token ids are
//! the view's symbols. [`AttributeProfiles::build`] is the one-line
//! wrapper that tokenizes an [`ErInput`] first.

use blast_datamodel::entity::{AttributeId, SourceId};
use blast_datamodel::hash::FastMap;
use blast_datamodel::input::ErInput;
use blast_datamodel::tokenized::TokenizedInput;
use blast_datamodel::tokenizer::Tokenizer;

use crate::schema::entropy::shannon_entropy;

/// One attribute's profile: its token set (sorted, distinct) and Shannon
/// entropy.
#[derive(Debug, Clone)]
pub struct AttributeColumn {
    /// The source collection the attribute belongs to.
    pub source: SourceId,
    /// The attribute id within its collection.
    pub attribute: AttributeId,
    /// Sorted distinct token ids of τ(V_a).
    pub tokens: Vec<u32>,
    /// Shannon entropy (log₂) of the attribute's token distribution.
    pub entropy: f64,
}

/// The attribute profiles of an ER input: all columns of source 0 first,
/// then all columns of source 1 (for dirty inputs there is a single source).
#[derive(Debug, Clone)]
pub struct AttributeProfiles {
    columns: Vec<AttributeColumn>,
    /// Index of the first column of source 1 (== `columns.len()` for dirty).
    separator: usize,
    distinct_tokens: usize,
}

impl AttributeProfiles {
    /// Builds the profiles by tokenizing every value of every profile.
    pub fn build(input: &ErInput, tokenizer: &Tokenizer) -> Self {
        Self::from_tokens(&TokenizedInput::build(input, tokenizer))
    }

    /// Builds the profiles from a tokenized input: one column per
    /// `(source, attribute)` carrying a value, in that order.
    pub fn from_tokens(tokens: &TokenizedInput) -> Self {
        let keys = tokens.attributes();
        let separator = keys.partition_point(|(s, _)| s.0 == 0);
        // Per source, attribute id → column index.
        let mut column_of: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
        for (col, (source, attr)) in keys.iter().enumerate() {
            let slots = &mut column_of[source.0 as usize];
            if slots.len() <= attr.index() {
                slots.resize(attr.index() + 1, u32::MAX);
            }
            slots[attr.index()] = col as u32;
        }
        // Column → token → multiplicity, filled in token-stream order.
        let mut counts: Vec<FastMap<u32, u64>> = vec![FastMap::default(); keys.len()];
        for (_, source, run) in tokens.iter_profiles() {
            let slots = &column_of[source.0 as usize];
            for &(attr, token) in run {
                let column = &mut counts[slots[attr.index()] as usize];
                *column.entry(token.0).or_insert(0) += 1;
            }
        }

        let columns = keys
            .iter()
            .zip(counts)
            .map(|(&(source, attribute), counts)| {
                let entropy = shannon_entropy(counts.values().copied());
                let mut toks: Vec<u32> = counts.into_keys().collect();
                toks.sort_unstable();
                AttributeColumn {
                    source,
                    attribute,
                    tokens: toks,
                    entropy,
                }
            })
            .collect();

        Self {
            columns,
            separator,
            distinct_tokens: tokens.interner().len(),
        }
    }

    /// All columns, source 0 first.
    #[inline]
    pub fn columns(&self) -> &[AttributeColumn] {
        &self.columns
    }

    /// Number of columns (|A_E1| + |A_E2|).
    #[inline]
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether there are no columns.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of the first source-1 column.
    #[inline]
    pub fn separator(&self) -> usize {
        self.separator
    }

    /// Whether the profiles span two sources.
    #[inline]
    pub fn is_bipartite(&self) -> bool {
        self.separator < self.columns.len() && self.separator > 0
    }

    /// Number of distinct tokens across all attributes (|T_A|).
    #[inline]
    pub fn distinct_tokens(&self) -> usize {
        self.distinct_tokens
    }

    /// Finds the column index of `(source, attribute)`.
    pub fn column_of(&self, source: SourceId, attribute: AttributeId) -> Option<usize> {
        self.columns
            .binary_search_by_key(&(source, attribute), |c| (c.source, c.attribute))
            .ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_datamodel::collection::EntityCollection;

    fn sample() -> ErInput {
        let mut d1 = EntityCollection::new(SourceId(0));
        d1.push_pairs("a1", [("name", "John Smith"), ("year", "1985")]);
        d1.push_pairs("a2", [("name", "Ellen Smith"), ("year", "1985")]);
        let mut d2 = EntityCollection::new(SourceId(1));
        d2.push_pairs("b1", [("full name", "John Smith")]);
        ErInput::clean_clean(d1, d2)
    }

    #[test]
    fn columns_split_by_source() {
        let profiles = AttributeProfiles::build(&sample(), &Tokenizer::new());
        assert_eq!(profiles.len(), 3); // name, year | full name
        assert_eq!(profiles.separator(), 2);
        assert!(profiles.is_bipartite());
        assert_eq!(profiles.columns()[2].source, SourceId(1));
    }

    #[test]
    fn token_sets_are_sorted_distinct() {
        let profiles = AttributeProfiles::build(&sample(), &Tokenizer::new());
        for col in profiles.columns() {
            assert!(col.tokens.windows(2).all(|w| w[0] < w[1]));
        }
        // name column has tokens {john, smith, ellen} (distinct although
        // smith occurs twice).
        let name_col = &profiles.columns()[0];
        assert_eq!(name_col.tokens.len(), 3);
    }

    #[test]
    fn entropy_reflects_distribution() {
        let profiles = AttributeProfiles::build(&sample(), &Tokenizer::new());
        // name: counts {john:1, smith:2, ellen:1} → H = 1.5 bits
        // year: counts {1985:2} → H = 0.
        let name_col = &profiles.columns()[0];
        let year_col = &profiles.columns()[1];
        assert!((name_col.entropy - 1.5).abs() < 1e-12);
        assert_eq!(year_col.entropy, 0.0);
        assert!(
            name_col.entropy > year_col.entropy,
            "names more informative than years"
        );
    }

    #[test]
    fn column_lookup() {
        let input = sample();
        let profiles = AttributeProfiles::build(&input, &Tokenizer::new());
        let blast_datamodel::input::ErInput::CleanClean { d1, d2 } = &input else {
            unreachable!()
        };
        let name = d1.attribute_id("name").unwrap();
        assert_eq!(profiles.column_of(SourceId(0), name), Some(0));
        let full = d2.attribute_id("full name").unwrap();
        assert_eq!(profiles.column_of(SourceId(1), full), Some(2));
    }

    #[test]
    fn dirty_input_single_source() {
        let mut d = EntityCollection::new(SourceId(0));
        d.push_pairs("p", [("x", "a b"), ("y", "c")]);
        let profiles = AttributeProfiles::build(&ErInput::dirty(d), &Tokenizer::new());
        assert_eq!(profiles.separator(), profiles.len());
        assert!(!profiles.is_bipartite());
        assert_eq!(profiles.distinct_tokens(), 3);
    }
}
