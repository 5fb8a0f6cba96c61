//! Base documents and per-user document references.
//!
//! "A base document is the link to the actual content of the document...
//! A document reference points to the base document. Each user of the
//! document owns a separate document reference." Universal properties live
//! on the base and are seen by everyone; personal properties live on a
//! reference and are seen only by its owner.

use crate::bitprovider::BitProvider;
use crate::id::DocumentId;
use crate::property::PropertyList;
use std::sync::Arc;

/// The shared anchor of a document: its bit-provider plus universal
/// properties.
pub struct BaseDocument {
    /// The document's id.
    pub id: DocumentId,
    /// The bit-provider retrieving the actual content from its repository.
    pub provider: Arc<dyn BitProvider>,
    /// Universal properties, seen by all users with a reference.
    pub universal: PropertyList,
    /// Monotone counter bumped on every universal property mutation
    /// (attach, remove, modify, reorder). Caches holding a compiled view
    /// of the base half of the chain compare epochs to decide whether the
    /// view is still current without re-walking the property list.
    pub chain_epoch: u64,
}

impl BaseDocument {
    /// Creates a base document over `provider` with no properties.
    pub fn new(id: DocumentId, provider: Arc<dyn BitProvider>) -> Self {
        Self {
            id,
            provider,
            universal: PropertyList::new(),
            chain_epoch: 0,
        }
    }
}

/// One user's personalized view of a base document. The space files it
/// under its document and owner, so it carries neither.
#[derive(Default)]
pub struct DocumentReference {
    /// Personal properties, seen only by the owner.
    pub personal: PropertyList,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitprovider::MemoryProvider;
    use crate::content::PropertyValue;
    use crate::id::PropertyId;
    use crate::property::AttachedProperty;

    #[test]
    fn base_document_carries_provider_and_properties() {
        let provider = MemoryProvider::new("p", "content", 0);
        let mut base = BaseDocument::new(DocumentId(1), provider);
        assert!(base.universal.is_empty());
        base.universal.attach(
            PropertyId(1),
            AttachedProperty::Static {
                name: "versioned".into(),
                value: PropertyValue::Bool(true),
            },
        );
        assert_eq!(base.universal.len(), 1);
        assert!(base.provider.describe().starts_with("memory:"));
    }

    #[test]
    fn references_start_without_personal_properties() {
        assert!(DocumentReference::default().personal.is_empty());
    }
}
