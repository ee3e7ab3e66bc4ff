//! Interning for append-only logs: each distinct value is stored once and
//! every log entry holds an `Arc` to that copy, so a repeated name or
//! principal costs a pointer per entry rather than an allocation.

use std::collections::HashSet;
use std::hash::Hash;
use std::sync::Arc;

/// A set of shared values, one copy per distinct value.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use hc_common::intern::Interner;
///
/// let mut names: Interner<str> = Interner::default();
/// let a = names.intern("provenance", |s| s.into());
/// let b = names.intern("provenance", |s| s.into());
/// assert!(Arc::ptr_eq(&a, &b));
/// assert_eq!(names.len(), 1);
/// ```
#[derive(Debug)]
pub struct Interner<T: ?Sized>(HashSet<Arc<T>>);

impl<T: ?Sized> Default for Interner<T> {
    fn default() -> Self {
        Interner(HashSet::new())
    }
}

impl<T: ?Sized + Eq + Hash> Interner<T> {
    /// The shared copy equal to `value`; on first sight, `share` makes it
    /// from `value` and the set keeps it.
    pub fn intern(&mut self, value: &T, share: impl FnOnce(&T) -> Arc<T>) -> Arc<T> {
        if let Some(shared) = self.0.get(value) {
            return Arc::clone(shared);
        }
        let shared = share(value);
        self.0.insert(Arc::clone(&shared));
        shared
    }

    /// How many distinct values the set holds.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set holds no value yet.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_share_one_copy() {
        let mut set: Interner<(u8, String)> = Interner::default();
        let a = set.intern(&(1, "x".to_owned()), |v| Arc::new(v.clone()));
        let b = set.intern(&(1, "x".to_owned()), |v| Arc::new(v.clone()));
        let c = set.intern(&(2, "x".to_owned()), |v| Arc::new(v.clone()));
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn adopts_the_callers_copy_on_first_sight() {
        let mut set: Interner<str> = Interner::default();
        assert!(set.is_empty());
        let mine: Arc<str> = "channel".into();
        let shared = set.intern(&mine, |_| Arc::clone(&mine));
        assert!(Arc::ptr_eq(&mine, &shared));
    }
}
