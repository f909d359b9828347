//! Module-name interning: one dense [`ModuleId`] per distinct name.
//!
//! A task's module is its bitstream identity: tasks of one module share
//! a partial bitstream, so a PRR already holding it needs no
//! reconfiguration. Names are interned once, where they enter — the
//! workload generators, the trace parser, `sched`'s periodic task sets
//! and the pipeline's module pool — and every [`HwTask`](crate::HwTask)
//! carries the id, resolved against the [`ModuleTable`] its
//! [`Workload`](crate::Workload) owns. Simulators and schedulers compare
//! ids; reports turn an id back into its name only when they print.

use std::collections::HashMap;

/// Dense id of an interned module name (bitstream identity).
///
/// Tasks whose names intern to the same `ModuleId` share partial
/// bitstreams, so a PRR already holding the module needs no
/// reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModuleId(pub u32);

/// Bidirectional map between module names and dense [`ModuleId`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModuleTable {
    names: Vec<String>,
    ids: HashMap<String, ModuleId>,
}

impl ModuleTable {
    /// Empty table.
    pub fn new() -> Self {
        ModuleTable::default()
    }

    /// Id of `name`, interning it if unseen. Ids are dense:
    /// `0..self.len()`, in first-interned order.
    pub fn intern(&mut self, name: &str) -> ModuleId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = ModuleId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    /// Id of `name` if already interned.
    pub fn get(&self, name: &str) -> Option<ModuleId> {
        self.ids.get(name).copied()
    }

    /// Name behind `id`.
    pub fn name(&self, id: ModuleId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Number of distinct interned modules.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no module has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_dense_and_stable() {
        let mut t = ModuleTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        assert_eq!(t.intern("a"), a);
        assert_ne!(a, b);
        assert_eq!((a.0, b.0), (0, 1));
        assert_eq!(t.name(b), "b");
        assert_eq!(t.get("b"), Some(b));
        assert_eq!(t.get("c"), None);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    /// Names that share a prefix or differ only in trailing NULs are
    /// distinct modules.
    #[test]
    fn similar_names_never_alias() {
        let mut t = ModuleTable::new();
        let names = ["a", "a\0", "a\0\0", "abcdefg", "abcdefgh", "abcdefgz", ""];
        let ids: Vec<ModuleId> = names.iter().map(|n| t.intern(n)).collect();
        assert_eq!(t.len(), names.len());
        for (n, &id) in names.iter().zip(&ids) {
            assert_eq!(t.intern(n), id, "{n:?} re-interned differently");
            assert_eq!(t.get(n), Some(id));
            assert_eq!(t.name(id), *n);
        }
    }
}
