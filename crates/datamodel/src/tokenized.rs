//! The tokenized view of an ER input, shared by BLAST's phases 1 and 2.
//!
//! Loose schema extraction (§3.1) reads every attribute's token multiset,
//! and Token Blocking (§3.2) reads every profile's token set: the same
//! token stream. [`TokenizedInput`] applies the value-transformation
//! function τ once and interns every token once, so both phases read
//! integers. Symbols are assigned in first-appearance order over
//! [`ErInput::iter_profiles`] (profiles in global id order, values in
//! profile order, tokens in value order), and each profile keeps its
//! tokens as one run of `(attribute, symbol)` entries in that same order.

use crate::entity::{AttributeId, ProfileId, SourceId};
use crate::input::ErInput;
use crate::interner::{Interner, Symbol};
use crate::tokenizer::Tokenizer;

/// An [`ErInput`] after τ: one shared token interner plus, per profile, the
/// run of `(attribute, token)` entries its values produce.
///
/// ```
/// use blast_datamodel::entity::{ProfileId, SourceId};
/// use blast_datamodel::tokenized::TokenizedInput;
/// use blast_datamodel::{EntityCollection, ErInput, Tokenizer};
///
/// let mut d = EntityCollection::new(SourceId(0));
/// d.push_pairs("p1", [("name", "John Abram"), ("mail", "Abram st.")]);
/// let view = TokenizedInput::build(&ErInput::dirty(d), &Tokenizer::new());
/// let run = view.tokens_of(ProfileId(0));
/// assert_eq!(run.len(), 4); // john abram | abram st
/// assert_eq!(run[1].1, run[2].1); // one symbol for both "abram"s
/// assert_eq!(view.interner().len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct TokenizedInput {
    interner: Interner,
    /// Profile `p`'s run is `entries[starts[p]..starts[p + 1]]`.
    starts: Vec<usize>,
    entries: Vec<(AttributeId, Symbol)>,
    /// Every `(source, attribute)` carrying at least one value (tokens or
    /// not), sorted.
    attributes: Vec<(SourceId, AttributeId)>,
    clean_clean: bool,
    separator: u32,
}

impl TokenizedInput {
    /// Tokenizes every value of `input` with `tokenizer`.
    pub fn build(input: &ErInput, tokenizer: &Tokenizer) -> Self {
        let mut interner = Interner::new();
        let mut starts = Vec::with_capacity(input.total_profiles() + 1);
        let mut entries = Vec::new();
        // Per source, which attribute ids carry a value.
        let mut present: [Vec<bool>; 2] = [Vec::new(), Vec::new()];
        starts.push(0);
        for (_, source, profile) in input.iter_profiles() {
            let seen = &mut present[source.0 as usize];
            for (attr, value) in &profile.values {
                if seen.len() <= attr.index() {
                    seen.resize(attr.index() + 1, false);
                }
                seen[attr.index()] = true;
                tokenizer.for_each_token(value, |tok| {
                    entries.push((*attr, interner.intern(tok)));
                });
            }
            starts.push(entries.len());
        }
        let attributes = present
            .iter()
            .enumerate()
            .flat_map(|(source, seen)| {
                seen.iter()
                    .enumerate()
                    .filter(|(_, &seen)| seen)
                    .map(move |(attr, _)| (SourceId(source as u8), Symbol(attr as u32)))
            })
            .collect();
        Self {
            interner,
            starts,
            entries,
            attributes,
            clean_clean: input.is_clean_clean(),
            separator: input.separator(),
        }
    }

    /// The token interner: symbol `s` is the `s`-th distinct token to
    /// appear.
    #[inline]
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Number of profiles (the input's `total_profiles`).
    #[inline]
    pub fn total_profiles(&self) -> usize {
        self.starts.len() - 1
    }

    /// Whether the input is clean-clean.
    #[inline]
    pub fn is_clean_clean(&self) -> bool {
        self.clean_clean
    }

    /// The input's separator ([`ErInput::separator`]).
    #[inline]
    pub fn separator(&self) -> u32 {
        self.separator
    }

    /// The source a global profile id belongs to.
    #[inline]
    fn source_of(&self, id: ProfileId) -> SourceId {
        SourceId(u8::from(self.clean_clean && id.0 >= self.separator))
    }

    /// Profile `id`'s `(attribute, token)` run, in value order.
    #[inline]
    pub fn tokens_of(&self, id: ProfileId) -> &[(AttributeId, Symbol)] {
        &self.entries[self.starts[id.index()]..self.starts[id.index() + 1]]
    }

    /// Iterates `(global id, source, token run)` over every profile, in the
    /// order of [`ErInput::iter_profiles`].
    pub fn iter_profiles(
        &self,
    ) -> impl Iterator<Item = (ProfileId, SourceId, &[(AttributeId, Symbol)])> {
        (0..self.total_profiles() as u32).map(move |p| {
            let id = ProfileId(p);
            (id, self.source_of(id), self.tokens_of(id))
        })
    }

    /// Every `(source, attribute)` with at least one value, sorted —
    /// including attributes whose values produced no token.
    #[inline]
    pub fn attributes(&self) -> &[(SourceId, AttributeId)] {
        &self.attributes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::EntityCollection;

    fn sample() -> ErInput {
        let mut d1 = EntityCollection::new(SourceId(0));
        d1.push_pairs("a1", [("name", "John Smith"), ("year", "---")]);
        d1.push_pairs("a2", [("name", "Ellen Smith")]);
        let mut d2 = EntityCollection::new(SourceId(1));
        d2.push_pairs("b1", [("full name", "John  Smith Jr")]);
        ErInput::clean_clean(d1, d2)
    }

    #[test]
    fn runs_follow_iter_profiles_and_value_order() {
        let input = sample();
        let tokenizer = Tokenizer::new();
        let view = TokenizedInput::build(&input, &tokenizer);
        assert_eq!(view.total_profiles(), 3);
        assert!(view.is_clean_clean());
        assert_eq!(view.separator(), 2);
        let mut interner = Interner::new();
        for ((id, source, profile), (vid, vsource, run)) in
            input.iter_profiles().zip(view.iter_profiles())
        {
            assert_eq!((id, source), (vid, vsource));
            let mut expected = Vec::new();
            for (attr, value) in &profile.values {
                tokenizer.for_each_token(value, |t| expected.push((*attr, interner.intern(t))));
            }
            assert_eq!(run, &expected[..], "profile {}", id.0);
        }
        assert_eq!(view.interner().len(), interner.len());
    }

    #[test]
    fn attributes_include_token_less_values() {
        let view = TokenizedInput::build(&sample(), &Tokenizer::new());
        // name, year ("---" yields no token) | full name.
        assert_eq!(
            view.attributes(),
            &[
                (SourceId(0), Symbol(0)),
                (SourceId(0), Symbol(1)),
                (SourceId(1), Symbol(0)),
            ]
        );
    }

    #[test]
    fn dirty_input_is_one_source() {
        let mut d = EntityCollection::new(SourceId(0));
        d.push_pairs("p", [("x", "a b")]);
        d.push_pairs("q", [("x", "b")]);
        let view = TokenizedInput::build(&ErInput::dirty(d), &Tokenizer::new());
        assert!(!view.is_clean_clean());
        assert_eq!(view.separator(), 2);
        assert_eq!(view.source_of(ProfileId(1)), SourceId(0));
        assert_eq!(view.tokens_of(ProfileId(1)), &[(Symbol(0), Symbol(1))]);
    }
}
