//! Standard Blocking (schema-based baseline, §4.1).
//!
//! Standard Blocking is Token Blocking restricted by a *schema alignment*:
//! tokens are disambiguated by the aligned attribute group they come from,
//! and attributes outside the alignment generate no keys. The paper observes
//! that on fully-mappable datasets BLAST with LMI achieves exactly the same
//! PC/PQ as Standard Blocking with a manual alignment — an integration test
//! pins that equivalence.

use crate::collection::BlockCollection;
use crate::key::{ClusterId, KeyDisambiguator};
use crate::token_blocking::TokenBlocking;
use blast_datamodel::collection::EntityCollection;
use blast_datamodel::entity::{AttributeId, SourceId};
use blast_datamodel::hash::FastMap;
use blast_datamodel::input::ErInput;
use blast_datamodel::tokenizer::Tokenizer;

/// A manual 1:1 (or n:m) alignment between attribute groups of two
/// collections.
#[derive(Debug, Clone, Default)]
pub struct SchemaAlignment {
    groups: FastMap<(SourceId, AttributeId), ClusterId>,
    n_groups: u32,
    include_unaligned: bool,
}

impl SchemaAlignment {
    /// Creates an empty alignment. Unaligned attributes are excluded from
    /// blocking (classic Standard Blocking semantics).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sends unaligned attributes to the glue cluster instead of excluding
    /// them.
    pub fn keep_unaligned(mut self) -> Self {
        self.include_unaligned = true;
        self
    }

    /// Aligns a set of attribute names (resolved against the collections
    /// they belong to) into one group. Names missing from their collection
    /// are ignored. Returns the group's cluster id.
    pub fn align<'a>(
        &mut self,
        members: impl IntoIterator<Item = (SourceId, &'a str)>,
        collections: &[&EntityCollection],
    ) -> ClusterId {
        self.n_groups += 1;
        let cluster = ClusterId(self.n_groups); // 0 is reserved for glue
        for (source, name) in members {
            let coll = collections
                .iter()
                .find(|c| c.source() == source)
                .expect("collection for source");
            if let Some(attr) = coll.attribute_id(name) {
                self.groups.insert((source, attr), cluster);
            }
        }
        cluster
    }
}

impl KeyDisambiguator for SchemaAlignment {
    fn cluster_of(&self, source: SourceId, attribute: AttributeId) -> Option<ClusterId> {
        match self.groups.get(&(source, attribute)) {
            Some(&c) => Some(c),
            None if self.include_unaligned => Some(ClusterId::GLUE),
            None => None,
        }
    }

    fn cluster_count(&self) -> usize {
        self.n_groups as usize + 1
    }
}

/// Schema-based Standard Blocking: token blocking over an explicit
/// alignment.
#[derive(Debug, Clone, Default)]
pub struct StandardBlocking {
    inner: TokenBlocking,
}

impl StandardBlocking {
    /// Standard Blocking with the default tokenizer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Standard Blocking with a custom tokenizer.
    pub fn with_tokenizer(tokenizer: Tokenizer) -> Self {
        Self {
            inner: TokenBlocking::with_tokenizer(tokenizer),
        }
    }

    /// Builds blocks keyed by (alignment group, token).
    pub fn build(&self, input: &ErInput, alignment: &SchemaAlignment) -> BlockCollection {
        self.inner.build_with(input, alignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bibliographic() -> (EntityCollection, EntityCollection) {
        let mut d1 = EntityCollection::new(SourceId(0));
        d1.push_pairs(
            "a1",
            [("title", "entity resolution survey"), ("venue", "vldb")],
        );
        let mut d2 = EntityCollection::new(SourceId(1));
        d2.push_pairs(
            "b1",
            [("paper", "entity resolution survey"), ("booktitle", "vldb")],
        );
        d2.push_pairs(
            "b2",
            [("paper", "survey of nothing"), ("booktitle", "icde")],
        );
        (d1, d2)
    }

    #[test]
    fn aligned_attributes_share_blocks() {
        let (d1, d2) = bibliographic();
        let mut alignment = SchemaAlignment::new();
        alignment.align(
            [(SourceId(0), "title"), (SourceId(1), "paper")],
            &[&d1, &d2],
        );
        alignment.align(
            [(SourceId(0), "venue"), (SourceId(1), "booktitle")],
            &[&d1, &d2],
        );
        let input = ErInput::clean_clean(d1, d2);
        let blocks = StandardBlocking::new().build(&input, &alignment);

        // "survey" co-occurs through the title/paper group; "vldb" through
        // venue/booktitle.
        assert!(blocks.block_by_label("survey#c1").is_some());
        assert!(blocks.block_by_label("vldb#c2").is_some());
    }

    #[test]
    fn cross_group_tokens_do_not_collide() {
        let mut d1 = EntityCollection::new(SourceId(0));
        d1.push_pairs("a1", [("title", "vldb proceedings")]);
        let mut d2 = EntityCollection::new(SourceId(1));
        d2.push_pairs("b1", [("booktitle", "vldb")]);
        let mut alignment = SchemaAlignment::new();
        alignment.align([(SourceId(0), "title")], &[&d1, &d2]);
        alignment.align([(SourceId(1), "booktitle")], &[&d1, &d2]);
        let input = ErInput::clean_clean(d1, d2);
        let blocks = StandardBlocking::new().build(&input, &alignment);
        // "vldb" sits in two different groups → no bilateral block survives.
        assert!(blocks.is_empty());
    }

    #[test]
    fn unaligned_excluded_by_default_kept_on_request() {
        let (d1, d2) = bibliographic();
        let mut alignment = SchemaAlignment::new();
        alignment.align(
            [(SourceId(0), "title"), (SourceId(1), "paper")],
            &[&d1, &d2],
        );
        let input = ErInput::clean_clean(d1.clone(), d2.clone());
        let blocks = StandardBlocking::new().build(&input, &alignment);
        // venue/booktitle tokens generate nothing.
        assert!(blocks.block_by_label("vldb#c0").is_none());

        let mut alignment = SchemaAlignment::new().keep_unaligned();
        alignment.align(
            [(SourceId(0), "title"), (SourceId(1), "paper")],
            &[&d1, &d2],
        );
        let input = ErInput::clean_clean(d1, d2);
        let blocks = StandardBlocking::new().build(&input, &alignment);
        assert!(blocks.block_by_label("vldb#c0").is_some());
    }
}
