//! Product-category vocabulary.
//!
//! The paper restricts the 91 HG Data categories to the 38 hardware and
//! low-level hardware-management-software categories (`M = 38`). The exact
//! names below are taken from the t-SNE maps in Figures 8 and 9 of the paper
//! (including the paper's own spelling `mainframs`).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Index of a product category in a [`Vocabulary`] (a *word* in NLP terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ProductId(pub u16);

impl ProductId {
    /// The index as a `usize`, for direct table addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProductId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The 38 product categories used throughout the paper's evaluation,
/// in the order they are referenced by the built-in generator topics.
pub(crate) const STANDARD_CATEGORIES: [&str; 38] = [
    "asset_performance",
    "cloud_infrastructure",
    "collaboration",
    "commerce",
    "communication_tech",
    "electronics_PCs_SW",
    "contact_center",
    "data_archiving",
    "storage_HW",
    "DBMS",
    "disaster_recovery",
    "document_management",
    "financial_apps",
    "HR_human_management",
    "HW_other",
    "hypervisor",
    "IT_infrastructure",
    "mainframs",
    "media",
    "midrange",
    "mobile_tech",
    "network_HW",
    "network_SW",
    "OS",
    "platform_as_a_service",
    "printers",
    "product_lifecycle",
    "remote",
    "retail",
    "search_engine",
    "security_management",
    "server_HW",
    "server_SW",
    "system_security_services",
    "telephony",
    "virtualization_apps",
    "virtualization_platform",
    "virtualization_server",
];

/// A fixed, ordered set of product-category names with name → id lookup.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Vocabulary {
    names: Vec<String>,
    #[serde(skip)]
    index: HashMap<String, ProductId>,
}

impl Vocabulary {
    /// Builds a vocabulary from category names.
    ///
    /// # Panics
    /// Panics on duplicate names, empty input, or more than `u16::MAX`
    /// categories.
    pub fn new<S: Into<String>>(names: impl IntoIterator<Item = S>) -> Self {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        assert!(!names.is_empty(), "vocabulary cannot be empty");
        assert!(names.len() <= u16::MAX as usize, "too many categories");
        let mut index = HashMap::with_capacity(names.len());
        for (i, n) in names.iter().enumerate() {
            let prev = index.insert(n.clone(), ProductId(i as u16));
            assert!(prev.is_none(), "duplicate category name {n:?}");
        }
        Vocabulary { names, index }
    }

    /// The paper's 38-category hardware / low-level-software vocabulary.
    pub fn standard() -> Self {
        Self::new(STANDARD_CATEGORIES)
    }

    /// Number of categories (`M` in the paper; 38 for [`standard`](Self::standard)).
    #[inline]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the vocabulary has no categories (never constructible).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Name of a category.
    ///
    /// # Panics
    /// Panics on an out-of-range id.
    pub fn name(&self, id: ProductId) -> &str {
        &self.names[id.index()]
    }

    /// Looks up a category by name.
    pub fn id(&self, name: &str) -> Option<ProductId> {
        self.index.get(name).copied()
    }

    /// True when `id` addresses a category of this vocabulary.
    pub fn contains(&self, id: ProductId) -> bool {
        id.index() < self.names.len()
    }

    /// Iterates ids in order.
    pub fn ids(&self) -> impl Iterator<Item = ProductId> + '_ {
        (0..self.names.len()).map(|i| ProductId(i as u16))
    }

    /// Iterates `(id, name)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (ProductId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (ProductId(i as u16), n.as_str()))
    }

    /// Appends a new category (a mid-stream product launch), returning its id.
    ///
    /// Existing ids keep their meaning: growth is append-only, so any model
    /// trained against a prefix of this vocabulary can still address it.
    ///
    /// # Panics
    /// Panics on a duplicate name or when the vocabulary is already at
    /// `u16::MAX` categories.
    pub fn push(&mut self, name: impl Into<String>) -> ProductId {
        let name = name.into();
        assert!(
            !self.index.contains_key(&name),
            "duplicate category name {name:?}"
        );
        assert!(self.names.len() < u16::MAX as usize, "too many categories");
        let id = ProductId(self.names.len() as u16);
        self.index.insert(name.clone(), id);
        self.names.push(name);
        id
    }

    /// Rebuilds the name index (needed after `serde` deserialization, which
    /// skips the redundant map).
    pub fn rebuild_index(&mut self) {
        self.index = self
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), ProductId(i as u16)))
            .collect();
    }
}

impl PartialEq for Vocabulary {
    fn eq(&self, other: &Self) -> bool {
        self.names == other.names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_has_38_categories() {
        let v = Vocabulary::standard();
        assert_eq!(v.len(), 38);
        assert_eq!(v.name(ProductId(23)), "OS");
        assert_eq!(v.id("server_HW"), Some(ProductId(31)));
        assert_eq!(v.id("nonexistent"), None);
    }

    #[test]
    fn ids_and_names_roundtrip() {
        let v = Vocabulary::standard();
        for (id, name) in v.iter() {
            assert_eq!(v.id(name), Some(id));
            assert!(v.contains(id));
        }
        assert!(!v.contains(ProductId(38)));
    }

    #[test]
    #[should_panic(expected = "duplicate category name")]
    fn rejects_duplicates() {
        Vocabulary::new(["a", "b", "a"]);
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn rejects_empty() {
        Vocabulary::new(Vec::<String>::new());
    }

    #[test]
    fn custom_vocabulary() {
        let v = Vocabulary::new(["x", "y"]);
        assert_eq!(v.len(), 2);
        assert_eq!(
            v.ids().collect::<Vec<_>>(),
            vec![ProductId(0), ProductId(1)]
        );
    }

    #[test]
    fn push_grows_append_only() {
        let mut v = Vocabulary::standard();
        let id = v.push("quantum_accelerators");
        assert_eq!(id, ProductId(38));
        assert_eq!(v.len(), 39);
        assert_eq!(v.name(id), "quantum_accelerators");
        assert_eq!(v.id("quantum_accelerators"), Some(id));
        // Existing ids are untouched.
        assert_eq!(v.id("OS"), Some(ProductId(23)));
        assert!(v.contains(id));
    }

    #[test]
    #[should_panic(expected = "duplicate category name")]
    fn push_rejects_duplicates() {
        let mut v = Vocabulary::standard();
        v.push("OS");
    }

    #[test]
    fn rebuild_index_restores_lookup() {
        let mut v = Vocabulary::standard();
        v.index.clear();
        assert_eq!(v.id("OS"), None);
        v.rebuild_index();
        assert_eq!(v.id("OS"), Some(ProductId(23)));
    }

    #[test]
    fn standard_names_are_unique_and_nonempty() {
        let mut seen = std::collections::HashSet::new();
        for n in STANDARD_CATEGORIES {
            assert!(!n.is_empty());
            assert!(seen.insert(n), "duplicate {n}");
        }
    }
}
