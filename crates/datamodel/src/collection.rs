//! Entity collections: sets of profiles sharing an attribute namespace.

use crate::entity::{AttributeId, EntityProfile, SourceId};
use crate::interner::Interner;

/// A set of entity profiles from one data source.
///
/// Attribute names are interned per collection: the same name in two
/// different collections denotes two different attributes (the paper's
/// attribute-match induction operates on the *pair* space `A_E1 × A_E2`).
#[derive(Debug, Clone)]
pub struct EntityCollection {
    source: SourceId,
    attributes: Interner,
    profiles: Vec<EntityProfile>,
}

impl EntityCollection {
    /// Creates an empty collection for `source`.
    pub fn new(source: SourceId) -> Self {
        Self {
            source,
            attributes: Interner::new(),
            profiles: Vec::new(),
        }
    }

    /// The source this collection came from.
    #[inline]
    pub fn source(&self) -> SourceId {
        self.source
    }

    /// Interns an attribute name, returning its id.
    pub fn attribute(&mut self, name: &str) -> AttributeId {
        self.attributes.intern(name)
    }

    /// Looks up an attribute id without creating it.
    pub fn attribute_id(&self, name: &str) -> Option<AttributeId> {
        self.attributes.get(name)
    }

    /// Resolves an attribute id back to its name.
    pub fn attribute_name(&self, id: AttributeId) -> &str {
        self.attributes.resolve(id)
    }

    /// Number of distinct attribute names (the paper's |A|).
    #[inline]
    pub fn attribute_count(&self) -> usize {
        self.attributes.len()
    }

    /// Iterates over all attribute ids.
    pub fn attribute_ids(&self) -> impl Iterator<Item = AttributeId> + '_ {
        self.attributes.iter().map(|(sym, _)| sym)
    }

    /// Adds a profile, returning its local index within this collection.
    pub fn push(&mut self, profile: EntityProfile) -> usize {
        self.profiles.push(profile);
        self.profiles.len() - 1
    }

    /// Number of profiles (the paper's |E|).
    #[inline]
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the collection is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// The profiles, in insertion order (local index = position).
    #[inline]
    pub fn profiles(&self) -> &[EntityProfile] {
        &self.profiles
    }

    /// Total number of name–value pairs across all profiles (the paper's
    /// `nvp` column of Table 2).
    pub fn nvp(&self) -> usize {
        self.profiles.iter().map(EntityProfile::nvp).sum()
    }

    /// Convenience builder: adds a profile from `(attribute name, value)`
    /// string pairs, interning the names.
    pub fn push_pairs<'a>(
        &mut self,
        external_id: &str,
        pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> usize {
        let mut profile = EntityProfile::new(external_id);
        for (name, value) in pairs {
            let attr = self.attribute(name);
            profile.push(attr, value);
        }
        self.push(profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EntityCollection {
        let mut c = EntityCollection::new(SourceId(0));
        c.push_pairs("p1", [("name", "John Abram Jr"), ("year", "1985")]);
        c.push_pairs("p2", [("name", "Ellen Smith"), ("mail", "Abram st. 30 NY")]);
        c
    }

    #[test]
    fn attribute_interning_shared_across_profiles() {
        let c = sample();
        assert_eq!(c.attribute_count(), 3); // name, year, mail
        assert_eq!(c.len(), 2);
        assert_eq!(c.nvp(), 4);
    }

    #[test]
    fn attribute_roundtrip() {
        let mut c = EntityCollection::new(SourceId(1));
        let a = c.attribute("title");
        assert_eq!(c.attribute_name(a), "title");
        assert_eq!(c.attribute_id("title"), Some(a));
        assert_eq!(c.attribute_id("missing"), None);
    }

    #[test]
    fn attribute_ids_enumerates_all() {
        let c = sample();
        assert_eq!(c.attribute_ids().count(), 3);
    }
}
