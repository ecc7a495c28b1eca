//! Columnar tuple arenas with row-id deduplication — the storage layer
//! under the Datalog fixpoint engines (see `docs/storage.md`).
//!
//! A [`TupleStore`] keeps one relation as `arity` flat per-column
//! `Vec<Elem>` arenas addressed by dense `u32` row ids. Appending is
//! O(1) amortized and never moves existing rows, so a row id handed out
//! once stays valid for the lifetime of the store — the property the
//! semi-naive engine's delta ranges and incremental indexes rely on.
//!
//! Deduplication is an open-addressing hash table over row ids that
//! hashes the column values of a row in place: membership tests and
//! inserts never materialize a `Vec<Elem>` per tuple, which is what the
//! old `HashSet<Vec<Elem>>` representation paid on every derived fact.
//! The hash function is a pluggable step function (default FNV-1a) so
//! tests can force every tuple onto one hash chain and exercise the
//! collision path.
//!
//! Work done by stores is metered under `queries.store.*`:
//!
//! * `queries.store.rows` — rows appended across all stores;
//! * `queries.store.arena_bytes` — bytes those rows occupy in arenas;
//! * `queries.store.rehashes` — dedup-table growth events;
//! * `queries.store.probe_allocs` — heap allocations probe paths had to
//!   fall back to (zero in the steady-state join loop; see
//!   [`note_probe_alloc`]);
//! * `queries.store.tombstones` — rows logically deleted by
//!   [`TupleStore::remove`]/[`TupleStore::remove_row`];
//! * `queries.store.compactions` — arena rebuilds that reclaimed
//!   tombstoned rows ([`TupleStore::compact`]).

use crate::{Elem, Relation};
use std::collections::HashSet;

static OBS_ROWS: fmt_obs::Counter = fmt_obs::Counter::new("queries.store.rows");
static OBS_ARENA_BYTES: fmt_obs::Counter = fmt_obs::Counter::new("queries.store.arena_bytes");
static OBS_REHASHES: fmt_obs::Counter = fmt_obs::Counter::new("queries.store.rehashes");
static OBS_PROBE_ALLOCS: fmt_obs::Counter = fmt_obs::Counter::new("queries.store.probe_allocs");
static OBS_TOMBSTONES: fmt_obs::Counter = fmt_obs::Counter::new("queries.store.tombstones");
static OBS_COMPACTIONS: fmt_obs::Counter = fmt_obs::Counter::new("queries.store.compactions");

/// Records that a probe path had to heap-allocate (a key or scratch
/// buffer outgrew its stack backing). The columnar join kernel reports
/// this on `datalog.rule` spans; it stays zero for realistic arities.
#[inline]
pub fn note_probe_alloc() {
    OBS_PROBE_ALLOCS.add(1);
}

/// FNV-1a offset basis — the seed for [`fnv_step`] folds.
pub const FNV_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// One FNV-1a step over the four little-endian bytes of an element.
///
/// Deterministic (unlike the std hasher, which is seeded per process),
/// so stores, indexes, and shard assignments are reproducible run to
/// run.
#[inline]
#[must_use]
pub fn fnv_step(mut h: u64, e: Elem) -> u64 {
    for b in e.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A pluggable hash-step function: folds one column value into the
/// running hash of a tuple. The default is [`fnv_step`]; tests install
/// degenerate steps to force collisions through the verify paths.
pub type ElemHasher = fn(u64, Elem) -> u64;

/// Sentinel for an empty dedup slot.
const EMPTY: u32 = u32::MAX;

/// Columnar storage for one relation: per-column arenas addressed by
/// dense row ids, with a hash-based dedup set over those ids.
///
/// Rows are append-only; [`TupleStore::push_if_new`] either hands out
/// the next row id or reports the existing duplicate. Set semantics
/// live in [`PartialEq`]: two stores are equal when they hold the same
/// tuples, whatever the insertion order.
///
/// Deletion is *logical*: [`TupleStore::remove`] tombstones a row
/// without moving anything, so live row ids stay stable — the property
/// the incremental engine's row-id deltas rely on. A tombstoned row
/// keeps its dedup slot; re-inserting the same tuple *revives* the old
/// row id instead of appending. [`TupleStore::compact`] rebuilds the
/// arenas to reclaim tombstones (invalidating row ids, which is why it
/// is an explicit call, not a side effect).
#[derive(Debug, Clone)]
pub struct TupleStore {
    arity: usize,
    cols: Vec<Vec<Elem>>,
    len: u32,
    /// Open-addressing table of row ids ([`EMPTY`] = free), sized to a
    /// power of two and kept under ~70% load. Tombstoned rows keep
    /// their slot so re-insertion revives them.
    slots: Vec<u32>,
    /// Tombstone bitmap, indexed by `row / 64`; lazily grown, so
    /// stores that never delete pay one `dead_count == 0` check.
    dead: Vec<u64>,
    /// Number of tombstoned rows (`len` minus live rows).
    dead_count: u32,
    hasher: ElemHasher,
}

impl TupleStore {
    /// An empty store for tuples of the given arity.
    pub fn new(arity: usize) -> TupleStore {
        TupleStore::with_hasher(arity, fnv_step)
    }

    /// An empty store with a custom hash-step function (tests use a
    /// constant step to drive every tuple down one collision chain).
    pub fn with_hasher(arity: usize, hasher: ElemHasher) -> TupleStore {
        TupleStore {
            arity,
            cols: vec![Vec::new(); arity],
            len: 0,
            slots: Vec::new(),
            dead: Vec::new(),
            dead_count: 0,
            hasher,
        }
    }

    /// A store holding the rows of a sorted EDB [`Relation`] — the
    /// bridge from the immutable input structure into the columnar
    /// subsystem. Row ids follow the relation's lexicographic order.
    pub fn from_relation(rel: &Relation) -> TupleStore {
        let mut st = TupleStore::new(rel.arity());
        st.reserve(rel.len());
        for t in rel.iter() {
            st.push_if_new(t);
        }
        st
    }

    /// A store holding the given rows (duplicates collapse).
    pub fn from_rows<'a, I>(arity: usize, rows: I) -> TupleStore
    where
        I: IntoIterator<Item = &'a [Elem]>,
    {
        let mut st = TupleStore::new(arity);
        for t in rows {
            st.push_if_new(t);
        }
        st
    }

    /// The arity of the stored tuples.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of (distinct) *live* rows — tombstoned rows don't count.
    pub fn len(&self) -> usize {
        (self.len - self.dead_count) as usize
    }

    /// Number of arena rows — live *and* tombstoned — as the row-id
    /// type. Row ids range over `0..rows32()`; delta ranges and index
    /// maintenance work in this coordinate space.
    pub fn rows32(&self) -> u32 {
        self.len
    }

    /// Alias of [`TupleStore::rows32`], kept for the append-only
    /// callers (the batch engines never tombstone, so for them arena
    /// rows and live rows coincide).
    pub fn len32(&self) -> u32 {
        self.len
    }

    /// Number of tombstoned rows awaiting [`TupleStore::compact`].
    pub fn tombstones(&self) -> usize {
        self.dead_count as usize
    }

    /// `true` iff `row` has not been tombstoned.
    #[inline]
    pub fn is_live(&self, row: u32) -> bool {
        self.dead_count == 0
            || self
                .dead
                .get((row / 64) as usize)
                .is_none_or(|w| w & (1 << (row % 64)) == 0)
    }

    /// `true` if the store holds no live rows.
    pub fn is_empty(&self) -> bool {
        self.len == self.dead_count
    }

    /// Bytes occupied by the column arenas.
    pub fn arena_bytes(&self) -> usize {
        self.len as usize * self.arity * std::mem::size_of::<Elem>()
    }

    /// The value at `(row, col)`.
    ///
    /// # Panics
    /// Panics if `row` or `col` is out of range.
    #[inline]
    pub fn value(&self, row: u32, col: usize) -> Elem {
        self.cols[col][row as usize]
    }

    /// The full arena of one column, indexed by row id.
    pub fn col(&self, col: usize) -> &[Elem] {
        &self.cols[col]
    }

    /// Hash of the tuple `t` under this store's hash-step function.
    #[inline]
    pub fn tuple_hash(&self, t: &[Elem]) -> u64 {
        t.iter().fold(FNV_SEED, |h, &e| (self.hasher)(h, e))
    }

    /// Hash of a stored row, computed column-wise (no materialization).
    #[inline]
    pub fn row_hash(&self, row: u32) -> u64 {
        self.cols
            .iter()
            .fold(FNV_SEED, |h, c| (self.hasher)(h, c[row as usize]))
    }

    /// `true` iff the stored row equals `t`, compared column-wise.
    #[inline]
    fn row_eq(&self, row: u32, t: &[Elem]) -> bool {
        self.cols
            .iter()
            .zip(t.iter())
            .all(|(c, &v)| c[row as usize] == v)
    }

    /// The arena row holding `t`, live or tombstoned. At most one
    /// arena row ever holds a given tuple (re-insertion revives rather
    /// than duplicates), so the answer is unique.
    fn slot_of(&self, t: &[Elem]) -> Option<u32> {
        debug_assert_eq!(t.len(), self.arity);
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (self.tuple_hash(t) as usize) & mask;
        loop {
            match self.slots[i] {
                EMPTY => return None,
                id if self.row_eq(id, t) => return Some(id),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Membership test over the *live* rows: hashes `t`'s values
    /// directly and verifies every hash candidate against the arenas.
    /// No per-call allocation.
    pub fn contains(&self, t: &[Elem]) -> bool {
        self.slot_of(t).is_some_and(|id| self.is_live(id))
    }

    /// The row id of the live row equal to `t`, if any.
    pub fn find(&self, t: &[Elem]) -> Option<u32> {
        self.slot_of(t).filter(|&id| self.is_live(id))
    }

    /// Appends `t` unless an equal live row exists; returns the row id
    /// now holding `t`, or `None` on a duplicate. Re-inserting a
    /// tombstoned tuple *revives* its old row id (the returned id is
    /// then smaller than [`TupleStore::rows32`]` - 1`). O(1)
    /// amortized, no per-tuple heap allocation beyond arena growth.
    pub fn push_if_new(&mut self, t: &[Elem]) -> Option<u32> {
        debug_assert_eq!(t.len(), self.arity);
        if (self.len as usize + 1) * 10 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (self.tuple_hash(t) as usize) & mask;
        loop {
            match self.slots[i] {
                EMPTY => break,
                id if self.row_eq(id, t) => {
                    if self.is_live(id) {
                        return None;
                    }
                    self.dead[(id / 64) as usize] &= !(1 << (id % 64));
                    self.dead_count -= 1;
                    return Some(id);
                }
                _ => i = (i + 1) & mask,
            }
        }
        let id = self.len;
        self.slots[i] = id;
        for (c, &v) in self.cols.iter_mut().zip(t.iter()) {
            c.push(v);
        }
        self.len += 1;
        OBS_ROWS.incr();
        OBS_ARENA_BYTES.add((self.arity * std::mem::size_of::<Elem>()) as u64);
        Some(id)
    }

    /// Tombstones the live row equal to `t`; returns its row id, or
    /// `None` if no live row matches. The arenas don't move: other row
    /// ids stay valid, and the dedup slot is kept so a later
    /// [`TupleStore::push_if_new`] of the same tuple revives this row.
    pub fn remove(&mut self, t: &[Elem]) -> Option<u32> {
        let id = self.find(t)?;
        self.remove_row(id);
        Some(id)
    }

    /// Tombstones row `row` directly (the row-id-addressed twin of
    /// [`TupleStore::remove`]); returns `false` if it was already dead.
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    pub fn remove_row(&mut self, row: u32) -> bool {
        assert!(row < self.len, "row id out of range");
        if !self.is_live(row) {
            return false;
        }
        let word = (row / 64) as usize;
        if self.dead.len() <= word {
            self.dead.resize(word + 1, 0);
        }
        self.dead[word] |= 1 << (row % 64);
        self.dead_count += 1;
        OBS_TOMBSTONES.incr();
        true
    }

    /// Rebuilds the arenas with only the live rows (in row-id order)
    /// and rehashes the dedup table, reclaiming every tombstone.
    /// Returns the old-row → new-row mapping, with [`u32::MAX`] marking
    /// rows that were dead. **All previously handed-out row ids are
    /// invalidated**; callers owning derived row-id state (indexes,
    /// delta lists) must rebuild it.
    pub fn compact(&mut self) -> Vec<u32> {
        let mut remap = vec![u32::MAX; self.len as usize];
        if self.dead_count == 0 {
            for (old, slot) in remap.iter_mut().enumerate() {
                *slot = old as u32;
            }
            return remap;
        }
        OBS_COMPACTIONS.incr();
        let mut next: u32 = 0;
        for old in 0..self.len {
            if !self.is_live(old) {
                continue;
            }
            let new = next;
            next += 1;
            remap[old as usize] = new;
            if new != old {
                for c in &mut self.cols {
                    c[new as usize] = c[old as usize];
                }
            }
        }
        for c in &mut self.cols {
            c.truncate(next as usize);
        }
        self.len = next;
        self.dead.clear();
        self.dead_count = 0;
        let cap = (next as usize * 10 / 7 + 1).next_power_of_two().max(16);
        let mask = cap - 1;
        let mut slots = vec![EMPTY; cap];
        for id in 0..self.len {
            let mut i = (self.row_hash(id) as usize) & mask;
            while slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            slots[i] = id;
        }
        self.slots = slots;
        remap
    }

    /// Grows the dedup table 4× and reinserts every row id. Quadrupling
    /// (rather than doubling) keeps the total rehash work across a
    /// fixpoint run at ~1.33n row hashes instead of ~2n, at the cost of
    /// a transiently lower load factor — 4 bytes per empty slot.
    fn grow(&mut self) {
        self.rehash((self.slots.len() * 4).max(16));
    }

    /// Makes room for `rows` more rows, so appending them regrows
    /// neither the arenas nor the dedup table.
    fn reserve(&mut self, rows: usize) {
        for c in &mut self.cols {
            c.reserve(rows);
        }
        let cap = ((self.len as usize + rows + 1) * 10)
            .div_ceil(7)
            .next_power_of_two()
            .max(16);
        if cap > self.slots.len() {
            self.rehash(cap);
        }
    }

    /// Re-seats every row id in a fresh dedup table of `cap` slots.
    fn rehash(&mut self, cap: usize) {
        if !self.slots.is_empty() {
            OBS_REHASHES.incr();
        }
        let mask = cap - 1;
        let mut slots = vec![EMPTY; cap];
        for id in 0..self.len {
            let mut i = (self.row_hash(id) as usize) & mask;
            while slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            slots[i] = id;
        }
        self.slots = slots;
    }

    /// Copies row `row` into `buf` (cleared first). Lets callers reuse
    /// one scratch buffer instead of allocating per row.
    pub fn read_row_into(&self, row: u32, buf: &mut Vec<Elem>) {
        buf.clear();
        buf.extend(self.cols.iter().map(|c| c[row as usize]));
    }

    /// Iterates the *live* rows as materialized tuples, in row-id
    /// order (tombstoned rows are skipped). Meant for output
    /// consumers; the join kernel reads columns directly.
    pub fn iter(&self) -> TupleIter<'_> {
        TupleIter {
            store: self,
            next: 0,
        }
    }
}

/// Iterator over the (materialized) rows of a [`TupleStore`].
#[derive(Debug, Clone)]
pub struct TupleIter<'a> {
    store: &'a TupleStore,
    next: u32,
}

impl Iterator for TupleIter<'_> {
    type Item = Vec<Elem>;

    fn next(&mut self) -> Option<Vec<Elem>> {
        while self.next < self.store.len {
            let row = self.next;
            self.next += 1;
            if self.store.is_live(row) {
                return Some(self.store.cols.iter().map(|c| c[row as usize]).collect());
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = (self.store.len - self.next) as usize;
        let dead = self.store.dead_count as usize;
        (rest.saturating_sub(dead), Some(rest))
    }
}

impl<'a> IntoIterator for &'a TupleStore {
    type Item = Vec<Elem>;
    type IntoIter = TupleIter<'a>;

    fn into_iter(self) -> TupleIter<'a> {
        self.iter()
    }
}

/// Set equality over the live rows: same tuple sets, whatever the
/// insertion order or tombstone layout.
impl PartialEq for TupleStore {
    fn eq(&self, other: &TupleStore) -> bool {
        if self.len() != other.len() {
            return false;
        }
        if self.is_empty() {
            return true;
        }
        if self.arity != other.arity {
            return false;
        }
        let mut buf = Vec::with_capacity(self.arity);
        (0..self.len).filter(|&id| self.is_live(id)).all(|id| {
            self.read_row_into(id, &mut buf);
            other.contains(&buf)
        })
    }
}

impl Eq for TupleStore {}

/// Equality against the legacy `HashSet` representation, so the naive
/// and scan oracles (and pre-columnar tests) compare without
/// conversion.
impl PartialEq<HashSet<Vec<Elem>>> for TupleStore {
    fn eq(&self, other: &HashSet<Vec<Elem>>) -> bool {
        self.len() == other.len() && other.iter().all(|t| self.contains(t))
    }
}

impl PartialEq<TupleStore> for HashSet<Vec<Elem>> {
    fn eq(&self, other: &TupleStore) -> bool {
        other == self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hash step that ignores the element: every tuple collides.
    fn collide(h: u64, _e: Elem) -> u64 {
        h
    }

    #[test]
    fn push_dedups_and_hands_out_dense_ids() {
        let mut st = TupleStore::new(2);
        assert_eq!(st.push_if_new(&[1, 2]), Some(0));
        assert_eq!(st.push_if_new(&[3, 4]), Some(1));
        assert_eq!(st.push_if_new(&[1, 2]), None);
        assert_eq!(st.len(), 2);
        assert_eq!(st.value(0, 1), 2);
        assert_eq!(st.col(0), &[1, 3]);
        assert!(st.contains(&[3, 4]));
        assert!(!st.contains(&[4, 3]));
    }

    #[test]
    fn iteration_follows_row_ids() {
        let mut st = TupleStore::new(2);
        st.push_if_new(&[5, 6]);
        st.push_if_new(&[0, 1]);
        let rows: Vec<Vec<Elem>> = st.iter().collect();
        assert_eq!(rows, vec![vec![5, 6], vec![0, 1]]);
        let via_loop: Vec<Vec<Elem>> = (&st).into_iter().collect();
        assert_eq!(rows, via_loop);
    }

    #[test]
    fn nullary_store_holds_at_most_one_row() {
        let mut st = TupleStore::new(0);
        assert!(!st.contains(&[]));
        assert_eq!(st.push_if_new(&[]), Some(0));
        assert_eq!(st.push_if_new(&[]), None);
        assert!(st.contains(&[]));
        assert_eq!(st.len(), 1);
        assert_eq!(st.iter().collect::<Vec<_>>(), vec![Vec::<Elem>::new()]);
    }

    #[test]
    fn colliding_hasher_still_dedups_exactly() {
        // Every tuple hashes identically: correctness must come from
        // the verify-against-arenas path alone.
        let mut st = TupleStore::with_hasher(2, collide);
        for u in 0..40u32 {
            assert_eq!(st.push_if_new(&[u, u + 1]), Some(u));
            assert_eq!(st.push_if_new(&[u, u + 1]), None);
        }
        assert_eq!(st.len(), 40);
        for u in 0..40u32 {
            assert!(st.contains(&[u, u + 1]));
            assert!(!st.contains(&[u + 1, u]));
        }
    }

    #[test]
    fn growth_rehashes_preserve_membership() {
        let mut st = TupleStore::new(3);
        for u in 0..500u32 {
            st.push_if_new(&[u, u % 7, u % 3]);
        }
        assert_eq!(st.len(), 500);
        for u in 0..500u32 {
            assert!(st.contains(&[u, u % 7, u % 3]));
        }
        assert_eq!(st.arena_bytes(), 500 * 3 * 4);
    }

    #[test]
    fn set_equality_ignores_insertion_order() {
        let mut a = TupleStore::new(2);
        let mut b = TupleStore::new(2);
        a.push_if_new(&[1, 2]);
        a.push_if_new(&[3, 4]);
        b.push_if_new(&[3, 4]);
        b.push_if_new(&[1, 2]);
        assert_eq!(a, b);
        b.push_if_new(&[5, 6]);
        assert_ne!(a, b);

        let set: HashSet<Vec<Elem>> = [vec![1, 2], vec![3, 4]].into_iter().collect();
        assert_eq!(a, set);
        assert_eq!(set, a);
    }

    #[test]
    fn remove_tombstones_and_reinsert_revives_the_row_id() {
        let mut st = TupleStore::new(2);
        assert_eq!(st.push_if_new(&[1, 2]), Some(0));
        assert_eq!(st.push_if_new(&[3, 4]), Some(1));
        assert_eq!(st.remove(&[1, 2]), Some(0));
        assert_eq!(st.remove(&[1, 2]), None, "already dead");
        assert_eq!(st.remove(&[9, 9]), None, "never present");
        assert!(!st.contains(&[1, 2]));
        assert_eq!(st.find(&[1, 2]), None);
        assert!(!st.is_live(0));
        assert!(st.is_live(1));
        assert_eq!(st.len(), 1);
        assert_eq!(st.rows32(), 2);
        assert_eq!(st.tombstones(), 1);
        assert_eq!(st.iter().collect::<Vec<_>>(), vec![vec![3, 4]]);
        // Revival hands back the original row id, not a fresh one.
        assert_eq!(st.push_if_new(&[1, 2]), Some(0));
        assert_eq!(st.push_if_new(&[1, 2]), None);
        assert!(st.is_live(0));
        assert_eq!(st.tombstones(), 0);
        assert_eq!(st.find(&[1, 2]), Some(0));
    }

    #[test]
    fn remove_row_is_the_row_addressed_twin() {
        let mut st = TupleStore::new(1);
        st.push_if_new(&[7]);
        assert!(st.remove_row(0));
        assert!(!st.remove_row(0));
        assert!(!st.contains(&[7]));
    }

    #[test]
    fn compact_reclaims_tombstones_and_remaps() {
        let mut st = TupleStore::new(2);
        for u in 0..100u32 {
            st.push_if_new(&[u, u + 1]);
        }
        for u in (0..100u32).step_by(2) {
            st.remove(&[u, u + 1]);
        }
        let before: HashSet<Vec<Elem>> = st.iter().collect();
        let remap = st.compact();
        assert_eq!(st.len(), 50);
        assert_eq!(st.rows32(), 50);
        assert_eq!(st.tombstones(), 0);
        let after: HashSet<Vec<Elem>> = st.iter().collect();
        assert_eq!(before, after);
        for (old, &new) in remap.iter().enumerate() {
            if old % 2 == 0 {
                assert_eq!(new, u32::MAX, "dead rows map nowhere");
            } else {
                assert_eq!(st.value(new, 0), old as u32, "live rows keep values");
            }
        }
        for u in (1..100u32).step_by(2) {
            assert!(st.contains(&[u, u + 1]));
        }
        // Compacting a tombstone-free store is the identity.
        let id_map = st.compact();
        assert_eq!(id_map, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn set_equality_ignores_tombstone_layout() {
        let mut a = TupleStore::new(2);
        let mut b = TupleStore::new(2);
        a.push_if_new(&[1, 2]);
        a.push_if_new(&[3, 4]);
        a.remove(&[1, 2]);
        b.push_if_new(&[3, 4]);
        assert_eq!(a, b);
        let set: HashSet<Vec<Elem>> = [vec![3, 4]].into_iter().collect();
        assert_eq!(a, set);
        assert_eq!(set, a);
        a.push_if_new(&[1, 2]);
        assert_ne!(a, b);
    }

    #[test]
    fn colliding_hasher_removal_walks_the_chain() {
        let mut st = TupleStore::with_hasher(2, collide);
        for u in 0..20u32 {
            st.push_if_new(&[u, u]);
        }
        assert_eq!(st.remove(&[7, 7]), Some(7));
        assert!(!st.contains(&[7, 7]));
        for u in 0..20u32 {
            assert_eq!(st.contains(&[u, u]), u != 7);
        }
        let remap = st.compact();
        assert_eq!(remap[7], u32::MAX);
        assert_eq!(st.len(), 19);
        for u in 0..20u32 {
            assert_eq!(st.contains(&[u, u]), u != 7);
        }
    }

    #[test]
    fn relation_bridge_preserves_rows() {
        let s = crate::builders::grid(3, 3);
        let e = s.signature().relation("E").unwrap();
        let rel = s.rel(e);
        let st = TupleStore::from_relation(rel);
        assert_eq!(st.len(), rel.len());
        for t in rel.iter() {
            assert!(st.contains(t));
        }
        // Row ids follow lexicographic order of the sorted relation.
        assert_eq!(st.iter().next().unwrap().as_slice(), rel.row(0));
    }
}
