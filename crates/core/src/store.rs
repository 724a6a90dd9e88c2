//! The block index on the dedicated-core side.
//!
//! Paper §III.B: "All data blocks are indexed in a metadata structure that
//! helps searching for particular blocks from data management services."
//!
//! The index is one ordered map keyed by `(iteration, variable, source,
//! seq)`: per-variable queries are range scans that come back already
//! ordered by writer rank (no filter + sort per query), point lookups are
//! O(log n), and an iteration's blocks can be split off wholesale when it
//! completes.

use std::collections::BTreeMap;
use std::ops::Bound;

use damaris_shm::Payload;
use damaris_xml::VarId;

/// One indexed block: who wrote which variable at which step.
#[derive(Debug, Clone)]
pub struct StoredBlock {
    /// Interned variable id.
    pub variable: VarId,
    /// Writing client id (0-based client index within the node, in both
    /// worlds).
    pub source: usize,
    /// Simulation time step.
    pub iteration: u64,
    /// The block's bytes: a zero-copy shared-segment view in the thread
    /// world, one owned copy out of the mapping in the process world.
    pub data: Payload,
}

/// `(iteration, variable, source, seq)` — `seq` distinguishes repeated
/// writes of the same variable by the same client within one iteration.
type BlockKey = (u64, u32, usize, u32);

/// Index of live blocks, ordered by `(iteration, variable, source)`.
///
/// Blocks hold [`Payload`]s, so removing an iteration releases its shared
/// memory once plugins drop their own references — this is the garbage
/// collection that keeps the segment from filling under steady state.
#[derive(Debug, Default)]
pub struct VariableStore {
    by_key: BTreeMap<BlockKey, StoredBlock>,
    /// Blocks per iteration (kept incrementally so completion checks are
    /// O(log iterations)).
    counts: BTreeMap<u64, usize>,
}

fn iter_range(iteration: u64) -> (Bound<BlockKey>, Bound<BlockKey>) {
    (
        Bound::Included((iteration, 0, 0, 0)),
        Bound::Included((iteration, u32::MAX, usize::MAX, u32::MAX)),
    )
}

fn var_range(iteration: u64, variable: VarId) -> (Bound<BlockKey>, Bound<BlockKey>) {
    (
        Bound::Included((iteration, variable.raw(), 0, 0)),
        Bound::Included((iteration, variable.raw(), usize::MAX, u32::MAX)),
    )
}

impl VariableStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index a block.
    pub fn insert(&mut self, block: StoredBlock) {
        let lo = (block.iteration, block.variable.raw(), block.source, 0);
        let hi = (
            block.iteration,
            block.variable.raw(),
            block.source,
            u32::MAX,
        );
        // Repeated writes of the same (iteration, variable, source) get
        // increasing seq numbers so none is silently replaced.
        let seq = self
            .by_key
            .range((Bound::Included(lo), Bound::Included(hi)))
            .next_back()
            .map(|(&(_, _, _, s), _)| s + 1)
            .unwrap_or(0);
        *self.counts.entry(block.iteration).or_insert(0) += 1;
        self.by_key.insert(
            (block.iteration, block.variable.raw(), block.source, seq),
            block,
        );
    }

    /// All blocks of an iteration (any variable, any source), ordered by
    /// `(variable, source)`.
    pub fn iteration_blocks(&self, iteration: u64) -> impl Iterator<Item = &StoredBlock> {
        self.by_key.range(iter_range(iteration)).map(|(_, b)| b)
    }

    /// Blocks of one variable at one iteration, ordered by source — a
    /// range scan of the ordered index, no per-query filtering or sorting.
    pub fn variable_blocks(&self, variable: VarId, iteration: u64) -> Vec<&StoredBlock> {
        self.by_key
            .range(var_range(iteration, variable))
            .map(|(_, b)| b)
            .collect()
    }

    /// Search a specific block (paper: "searching for particular blocks").
    pub fn find(&self, variable: VarId, iteration: u64, source: usize) -> Option<&StoredBlock> {
        let lo = (iteration, variable.raw(), source, 0);
        let hi = (iteration, variable.raw(), source, u32::MAX);
        self.by_key
            .range((Bound::Included(lo), Bound::Included(hi)))
            .map(|(_, b)| b)
            .next()
    }

    /// Number of blocks held for an iteration — O(log iterations).
    pub fn count(&self, iteration: u64) -> usize {
        self.counts.get(&iteration).copied().unwrap_or(0)
    }

    /// Total live blocks across iterations.
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }

    /// Iterations currently holding data, ascending.
    pub fn iterations(&self) -> Vec<u64> {
        self.counts.keys().copied().collect()
    }

    /// Drop an iteration's blocks, releasing their shared memory.
    /// Returns the removed blocks ordered by `(variable, source)`;
    /// callers may still hold clones.
    pub fn remove_iteration(&mut self, iteration: u64) -> Vec<StoredBlock> {
        if self.counts.remove(&iteration).is_none() {
            return Vec::new();
        }
        // Split the map at the iteration's bounds: everything below stays,
        // the iteration itself is returned, everything above is re-attached.
        let mut upper = self.by_key.split_off(&(iteration, 0, 0, 0));
        if let Some(next) = iteration.checked_add(1) {
            let mut rest = upper.split_off(&(next, 0, 0, 0));
            self.by_key.append(&mut rest);
        }
        upper.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use damaris_shm::SharedSegment;

    fn var(raw: u32) -> VarId {
        VarId::from_raw(raw)
    }

    fn block(seg: &SharedSegment, v: VarId, it: u64, src: usize, val: f64) -> StoredBlock {
        let mut b = seg.allocate(8).unwrap();
        b.write_pod(&[val]);
        StoredBlock {
            variable: v,
            source: src,
            iteration: it,
            data: b.freeze().into(),
        }
    }

    #[test]
    fn index_and_query() {
        let seg = SharedSegment::new(4096).unwrap();
        let mut store = VariableStore::new();
        let (u, v, w) = (var(0), var(1), var(2));
        store.insert(block(&seg, u, 0, 1, 1.0));
        store.insert(block(&seg, u, 0, 0, 2.0));
        store.insert(block(&seg, v, 0, 0, 3.0));
        store.insert(block(&seg, u, 1, 0, 4.0));

        assert_eq!(store.count(0), 3);
        assert_eq!(store.total(), 4);
        assert_eq!(store.iterations(), vec![0, 1]);

        let u0 = store.variable_blocks(u, 0);
        assert_eq!(u0.len(), 2);
        assert_eq!(u0[0].source, 0, "ordered by source");
        assert_eq!(u0[1].source, 1);

        let found = store.find(v, 0, 0).unwrap();
        assert_eq!(found.data.as_pod::<f64>()[0], 3.0);
        assert!(store.find(v, 0, 1).is_none());
        assert!(store.find(w, 0, 0).is_none());
    }

    #[test]
    fn repeated_writes_of_same_block_are_all_kept() {
        let seg = SharedSegment::new(4096).unwrap();
        let mut store = VariableStore::new();
        let u = var(0);
        store.insert(block(&seg, u, 0, 0, 1.0));
        store.insert(block(&seg, u, 0, 0, 2.0));
        assert_eq!(store.count(0), 2, "seq keeps duplicates distinct");
        assert_eq!(store.variable_blocks(u, 0).len(), 2);
    }

    #[test]
    fn remove_iteration_releases_memory() {
        let seg = SharedSegment::new(4096).unwrap();
        let mut store = VariableStore::new();
        let u = var(0);
        store.insert(block(&seg, u, 0, 0, 1.0));
        store.insert(block(&seg, u, 0, 1, 2.0));
        store.insert(block(&seg, u, 1, 0, 3.0));
        assert!(seg.used_bytes() > 0);
        let removed = store.remove_iteration(0);
        assert_eq!(removed.len(), 2);
        drop(removed);
        assert_eq!(store.total(), 1, "iteration 1 untouched");
        assert_eq!(store.count(1), 1);
        let removed = store.remove_iteration(1);
        assert_eq!(removed.len(), 1);
        drop(removed);
        assert_eq!(seg.used_bytes(), 0, "blocks freed after store GC");
        assert_eq!(store.total(), 0);
        assert!(store.remove_iteration(0).is_empty(), "idempotent");
    }

    #[test]
    fn last_iteration_boundary_is_safe() {
        let seg = SharedSegment::new(4096).unwrap();
        let mut store = VariableStore::new();
        store.insert(block(&seg, var(0), u64::MAX, 0, 1.0));
        assert_eq!(store.count(u64::MAX), 1);
        assert_eq!(store.remove_iteration(u64::MAX).len(), 1);
        assert_eq!(store.total(), 0);
    }

    #[test]
    fn removed_iteration_clones_pin_the_bytes() {
        let seg = SharedSegment::new(4096).unwrap();
        let mut store = VariableStore::new();
        let (u, v) = (var(0), var(1));
        store.insert(block(&seg, v, 3, 1, 4.0));
        store.insert(block(&seg, u, 3, 0, 3.0));
        let held: Vec<StoredBlock> = store.iteration_blocks(3).cloned().collect();
        assert_eq!(
            (held[0].variable, held[0].source),
            (u, 0),
            "range scan comes back (variable, source)-ordered"
        );
        assert_eq!((held[1].variable, held[1].source), (v, 1));

        // Removal empties the store, but a consumer's clones keep the
        // shared memory alive until the last reader drops them.
        let removed = store.remove_iteration(3);
        assert_eq!(removed.len(), 2);
        drop(removed);
        assert_eq!(store.total(), 0);
        assert!(seg.used_bytes() > 0, "held clones pin the bytes");
        assert_eq!(held[1].data.as_pod::<f64>()[0], 4.0);
        drop(held);
        assert_eq!(seg.used_bytes(), 0);
    }

    #[test]
    fn empty_queries_are_safe() {
        let store = VariableStore::new();
        assert_eq!(store.count(9), 0);
        assert!(store.variable_blocks(var(0), 9).is_empty());
        assert!(store.iterations().is_empty());
        assert_eq!(store.iteration_blocks(3).count(), 0);
    }
}
