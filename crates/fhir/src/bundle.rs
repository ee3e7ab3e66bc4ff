//! Bundles: the unit of data ingestion and export.

use serde::{Deserialize, Serialize};

use crate::resource::Resource;

/// How the entries of a bundle relate.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum BundleKind {
    /// All-or-nothing ingestion unit.
    Transaction,
    /// A loose collection (e.g. an export result).
    Collection,
}

/// A set of resources moved through the platform together.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Bundle {
    /// How the entries relate.
    pub kind: BundleKind,
    /// The contained resources.
    pub entries: Vec<Resource>,
}

impl Bundle {
    /// Creates a bundle.
    pub fn new(kind: BundleKind, entries: Vec<Resource>) -> Self {
        Bundle { kind, entries }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the bundle is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over entries.
    pub fn iter(&self) -> std::slice::Iter<'_, Resource> {
        self.entries.iter()
    }

    /// Serializes to the JSON wire format.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("bundle serialization cannot fail")
    }

    /// Parses a bundle from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error for malformed input —
    /// this is the first rejection point of the ingestion flow.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Serializes to bytes (the form the ingestion pipeline encrypts).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_json().into_bytes()
    }

    /// Parses a bundle from bytes.
    ///
    /// # Errors
    ///
    /// Returns an error for non-UTF-8 or malformed JSON input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, serde_json::Error> {
        serde_json::from_slice(bytes)
    }

    /// Ids of all patients referenced by the bundle (subjects + patient
    /// resources), deduplicated, in first-appearance order.
    pub fn patient_refs(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for r in &self.entries {
            let candidate = match r {
                Resource::Patient(p) => Some(p.id.clone()),
                _ => r.subject().map(str::to_owned),
            };
            if let Some(id) = candidate {
                if !seen.contains(&id) {
                    seen.push(id);
                }
            }
        }
        seen
    }
}

impl FromIterator<Resource> for Bundle {
    fn from_iter<I: IntoIterator<Item = Resource>>(iter: I) -> Self {
        Bundle::new(BundleKind::Collection, iter.into_iter().collect())
    }
}

impl Extend<Resource> for Bundle {
    fn extend<I: IntoIterator<Item = Resource>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Bundle {
    type Item = &'a Resource;
    type IntoIter = std::slice::Iter<'a, Resource>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

impl IntoIterator for Bundle {
    type Item = Resource;
    type IntoIter = std::vec::IntoIter<Resource>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::{Consent, Gender, Observation, Patient};
    use crate::types::{CodeableConcept, Quantity, SimDate};

    fn sample() -> Bundle {
        Bundle::new(
            BundleKind::Transaction,
            vec![
                Resource::Patient(
                    Patient::builder("p1")
                        .gender(Gender::Other)
                        .birth_year(1990)
                        .build(),
                ),
                Resource::Consent(Consent {
                    id: "c1".into(),
                    subject: "p1".into(),
                    study: "s".into(),
                    granted: true,
                }),
            ],
        )
    }

    /// A bundle exercising every JSON value kind the emitter writes:
    /// escapes, multi-byte UTF-8, whole and fractional floats, integers.
    fn pinned_fixture() -> Bundle {
        Bundle::new(
            BundleKind::Transaction,
            vec![
                Resource::Patient(
                    Patient::builder("p-\u{e9}1")
                        .name("Zo\u{eb} \"Q\"", "Ren\u{e9}e\\Ann\t")
                        .gender(Gender::Female)
                        .birth_year(1961)
                        .identifier("urn:mrn", "MRN\u{1}7\u{1f}")
                        .address("1 Main St\nApt 2", "S\u{e3}o Paulo", "SP", "01000-\u{20ac}")
                        .build(),
                ),
                Resource::Observation(Observation {
                    id: "o1".into(),
                    subject: "p-\u{e9}1".into(),
                    code: CodeableConcept::new("http://loinc.org", "4548-4", "HbA1c \u{1f9ea}"),
                    value: Quantity::new(6.5, "%"),
                    effective: SimDate(u32::MAX),
                }),
                Resource::Observation(Observation {
                    id: "o2".into(),
                    subject: "p-\u{e9}1".into(),
                    code: CodeableConcept::new("http://loinc.org", "2345-7", "Glucose\r"),
                    value: Quantity::new(-110.0, "mg/dL"),
                    effective: SimDate(0),
                }),
            ],
        )
    }

    #[test]
    fn pinned_json_bytes() {
        let json = pinned_fixture().to_json();
        assert_eq!(json, PINNED_JSON);
        assert_eq!(Bundle::from_json(&json).unwrap(), pinned_fixture());
    }

    /// `pinned_fixture()`'s bytes, fixed: stored bundles and the hashes
    /// anchored over them depend on the emitter never changing its output.
    const PINNED_JSON: &str = "{\"entries\":[{\"address\":{\"city\":\"São Paulo\",\
        \"line\":\"1 Main St\\nApt 2\",\"postal_code\":\"01000-€\",\"state\":\"SP\"},\
        \"birth_year\":1961,\"gender\":\"Female\",\"id\":\"p-é1\",\
        \"identifiers\":[{\"system\":\"urn:mrn\",\"value\":\"MRN\\u00017\\u001f\"}],\
        \"name\":{\"family\":\"Zoë \\\"Q\\\"\",\"given\":[\"Renée\\\\Ann\\t\"]},\
        \"phone\":null,\"resourceType\":\"Patient\"},{\"code\":{\"code\":\"4548-4\",\
        \"display\":\"HbA1c 🧪\",\"system\":\"http://loinc.org\"},\
        \"effective\":4294967295,\"id\":\"o1\",\"resourceType\":\"Observation\",\
        \"subject\":\"p-é1\",\"value\":{\"unit\":\"%\",\"value\":6.5}},\
        {\"code\":{\"code\":\"2345-7\",\"display\":\"Glucose\\r\",\
        \"system\":\"http://loinc.org\"},\"effective\":0,\"id\":\"o2\",\
        \"resourceType\":\"Observation\",\"subject\":\"p-é1\",\
        \"value\":{\"unit\":\"mg/dL\",\"value\":-110.0}}],\"kind\":\"Transaction\"}";

    #[test]
    fn json_round_trip() {
        let b = sample();
        assert_eq!(Bundle::from_json(&b.to_json()).unwrap(), b);
        assert_eq!(Bundle::from_bytes(&b.to_bytes()).unwrap(), b);
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(Bundle::from_json("{not json").is_err());
        assert!(Bundle::from_bytes(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn patient_refs_deduplicated() {
        let b = sample();
        assert_eq!(b.patient_refs(), vec!["p1".to_owned()]);
    }

    #[test]
    fn collect_and_extend() {
        let mut b: Bundle = sample().into_iter().collect();
        assert_eq!(b.kind, BundleKind::Collection);
        b.extend(sample());
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
    }
}
