//! Proxy tracking (§3.1, Figure 7).
//!
//! A *proxy* is a task that dirties data or submits I/O on behalf of other
//! processes — the writeback thread and the journal task in ext4, the log
//! task in XFS, a garbage collector in a copy-on-write file system. While a
//! task is marked as a proxy, any work it produces is attributed to the
//! cause set it carries, not to the task itself.

use sim_core::{CauseSet, FastMap, Pid};

/// Tracks which tasks are currently acting as proxies and for whom.
#[derive(Debug, Default)]
pub struct ProxyRegistry {
    acting_for: FastMap<Pid, CauseSet>,
}

impl ProxyRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark `task` as acting on behalf of `causes`. Nested/batched work
    /// accumulates: marking an already-marked proxy unions the sets (a
    /// writeback pass covers many pages with different causes).
    pub fn mark(&mut self, task: Pid, causes: &CauseSet) {
        self.acting_for
            .entry(task)
            .or_insert_with(CauseSet::empty)
            .union_with(causes);
    }

    /// Clear `task`'s proxy state (it finished submitting delegated work).
    pub fn clear(&mut self, task: Pid) {
        self.acting_for.remove(&task);
    }

    /// Whether `task` is currently a proxy.
    pub fn is_proxy(&self, task: Pid) -> bool {
        self.acting_for.contains_key(&task)
    }

    /// Resolve the true causes of work performed by `task` right now:
    /// the carried cause set if `task` is a proxy, else `task` itself.
    pub fn resolve(&self, task: Pid) -> CauseSet {
        match self.acting_for.get(&task) {
            Some(causes) if !causes.is_empty() => causes.clone(),
            _ => CauseSet::of(task),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_proxy_resolves_to_itself() {
        let r = ProxyRegistry::new();
        assert_eq!(r.resolve(Pid(9)), CauseSet::of(Pid(9)));
        assert!(!r.is_proxy(Pid(9)));
    }

    #[test]
    fn proxy_resolves_to_carried_causes() {
        // Figure 7: P3 writes back a page dirtied by P1 and P2; its work is
        // attributed to {P1, P2}, not P3.
        let mut r = ProxyRegistry::new();
        let causes = CauseSet::from_pids([Pid(1), Pid(2)]);
        r.mark(Pid(3), &causes);
        assert!(r.is_proxy(Pid(3)));
        assert_eq!(r.resolve(Pid(3)), causes);
        // And further dirtying by P3 (journal, metadata) inherits the set.
        let journal_tag = r.resolve(Pid(3));
        assert!(journal_tag.contains(Pid(1)));
        assert!(journal_tag.contains(Pid(2)));
        assert!(!journal_tag.contains(Pid(3)));
    }

    #[test]
    fn marks_accumulate_and_clear() {
        let mut r = ProxyRegistry::new();
        r.mark(Pid(3), &CauseSet::of(Pid(1)));
        r.mark(Pid(3), &CauseSet::of(Pid(2)));
        assert_eq!(r.resolve(Pid(3)).len(), 2);
        r.clear(Pid(3));
        assert_eq!(r.resolve(Pid(3)), CauseSet::of(Pid(3)));
        assert!(r.acting_for.is_empty());
    }

    #[test]
    fn empty_carried_set_falls_back_to_self() {
        let mut r = ProxyRegistry::new();
        r.mark(Pid(4), &CauseSet::empty());
        assert_eq!(r.resolve(Pid(4)), CauseSet::of(Pid(4)));
    }
}
