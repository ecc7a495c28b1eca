//! Shared tuple-index subsystem for the join engines.
//!
//! Both the Datalog fixpoint engine (`fmt-queries`) and the relational
//! algebra evaluator (`fmt-eval`) join relations by repeatedly asking
//! "which tuples have these values at these positions?". Answering that
//! by rescanning the full extent per partial binding is what made the
//! survey's fixpoint workloads slow; this module centralizes the fast
//! answers instead:
//!
//! * [`probe_prefix`] — binary-searches the sorted flat storage of an
//!   EDB [`Relation`] when the bound positions form a prefix (no build
//!   cost, reuses the sort that [`Relation`] maintains anyway);
//! * [`TupleIndex`] — a hash index over owned flat rows, keyed by an
//!   arbitrary subset of positions;
//! * [`ColumnIndex`] — the same keyed lookup over a [`TupleStore`]'s
//!   column arenas, yielding row ids instead of slices, maintained
//!   incrementally as the fixpoint loop appends.
//!
//! Both hash indexes key their buckets by a **hash of the keyed
//! columns** (`HashMap<u64, Vec<u32>>`), folding the projected values
//! directly into the hash — building and probing never materialize a
//! key `Vec<Elem>`. Hash collisions are resolved by verifying every
//! bucket candidate's keyed columns against the probe values, so a
//! degenerate hash function changes performance, never answers (the
//! collision tests below force exactly that).
//!
//! Every probe and scan is metered so `fmtk --stats` and the perf
//! regression tests can compare indexed and scan evaluation exactly.
//! The metric names live under `queries.index.*` because the query
//! engine is the primary customer, but the counters cover every user of
//! this module:
//!
//! * `queries.index.builds` / `queries.index.build_tuples` — index
//!   construction work;
//! * `queries.index.probe_ops` — probe operations issued;
//! * `queries.index.probes` — candidate tuples yielded by probes (the
//!   indexed engine's "tuple comparisons");
//! * `queries.index.scan_tuples` — tuples visited by full scans that an
//!   index-aware engine still had to do (unbound atoms, delta drivers).

use crate::store::{fnv_step, ElemHasher, TupleStore, FNV_SEED};
use crate::{Elem, Relation};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Passes an already-hashed `u64` key through unchanged. The index maps
/// are keyed by FNV folds of the keyed columns, so running those keys
/// through SipHash again on every probe is pure overhead on the join
/// engine's hottest path.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("index maps are keyed by u64 hashes only")
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// A bucket map keyed by a pre-computed hash (identity re-hash).
type BucketMap = HashMap<u64, Vec<u32>, BuildHasherDefault<PreHashed>>;

static OBS_BUILDS: fmt_obs::Counter = fmt_obs::Counter::new("queries.index.builds");
static OBS_BUILD_TUPLES: fmt_obs::Counter = fmt_obs::Counter::new("queries.index.build_tuples");
static OBS_PROBE_OPS: fmt_obs::Counter = fmt_obs::Counter::new("queries.index.probe_ops");
static OBS_PROBES: fmt_obs::Counter = fmt_obs::Counter::new("queries.index.probes");
static OBS_SCAN_TUPLES: fmt_obs::Counter = fmt_obs::Counter::new("queries.index.scan_tuples");

/// Records that an engine using the index layer fell back to visiting
/// `tuples` rows by full scan (no usable bound positions).
#[inline]
pub fn note_scan(tuples: u64) {
    OBS_SCAN_TUPLES.add(tuples);
}

/// Probes the sorted row storage of a [`Relation`] for all tuples whose
/// first `prefix.len()` components equal `prefix`, by binary search.
///
/// # Panics
/// Panics (in debug builds) if `prefix` is longer than the arity.
pub fn probe_prefix<'a>(rel: &'a Relation, prefix: &[Elem]) -> impl Iterator<Item = &'a [Elem]> {
    let range = rel.prefix_range(prefix);
    OBS_PROBE_OPS.incr();
    OBS_PROBES.add(range.len() as u64);
    rel.rows_in(range)
}

/// Folds the values at `key` positions of `tuple` into a hash.
#[inline]
fn key_hash(key: &[usize], tuple: &[Elem]) -> u64 {
    key.iter().fold(FNV_SEED, |h, &p| fnv_step(h, tuple[p]))
}

/// A hash index over a set of same-arity tuples, keyed by the values at
/// a fixed subset of positions.
///
/// The index owns flat copies of the indexed tuples, so it can outlive
/// (and be shared across threads independently of) the collection it
/// was built from — the property the parallel fixpoint rounds rely on.
/// Buckets are keyed by a hash of the projected columns; candidates are
/// verified against the flat row arena on probe, so neither insert nor
/// probe allocates a key vector.
#[derive(Debug, Clone)]
pub struct TupleIndex {
    arity: usize,
    key: Vec<usize>,
    rows: Vec<Elem>,
    /// Nullary rows occupy no arena space, so track their count.
    len: usize,
    map: BucketMap,
}

impl TupleIndex {
    /// Builds an index over `tuples`, keyed by the positions in `key`.
    ///
    /// # Panics
    /// Panics (in debug builds) if a key position is out of range or a
    /// tuple has the wrong arity.
    pub fn build<'a, I>(arity: usize, key: &[usize], tuples: I) -> TupleIndex
    where
        I: IntoIterator<Item = &'a [Elem]>,
    {
        debug_assert!(key.iter().all(|&p| p < arity) || arity == 0);
        let mut idx = TupleIndex {
            arity,
            key: key.to_vec(),
            rows: Vec::new(),
            len: 0,
            map: BucketMap::default(),
        };
        OBS_BUILDS.incr();
        for t in tuples {
            idx.insert(t);
        }
        idx
    }

    /// Adds one tuple (used to maintain IDB indexes incrementally as a
    /// fixpoint round merges its delta). Hashes the projected columns
    /// in place — no key allocation.
    pub fn insert(&mut self, tuple: &[Elem]) {
        debug_assert_eq!(tuple.len(), self.arity);
        let id = self.len as u32;
        self.len += 1;
        self.rows.extend_from_slice(tuple);
        let h = key_hash(&self.key, tuple);
        self.map.entry(h).or_default().push(id);
        OBS_BUILD_TUPLES.incr();
    }

    /// The key positions this index is built on.
    pub fn key(&self) -> &[usize] {
        &self.key
    }

    /// Number of indexed tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no tuples are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The flat row with the given id.
    #[inline]
    fn row(&self, id: u32) -> &[Elem] {
        &self.rows[id as usize * self.arity..(id as usize + 1) * self.arity]
    }

    /// All tuples whose key positions hold exactly `key_vals` (in the
    /// order of [`TupleIndex::key`]). Bucket candidates are verified
    /// column-by-column, so hash collisions cannot leak wrong tuples.
    pub fn probe<'a>(&'a self, key_vals: &'a [Elem]) -> impl Iterator<Item = &'a [Elem]> + 'a {
        debug_assert_eq!(key_vals.len(), self.key.len());
        OBS_PROBE_OPS.incr();
        let h = key_vals.iter().fold(FNV_SEED, |h, &v| fnv_step(h, v));
        let ids: &[u32] = self.map.get(&h).map_or(&[], Vec::as_slice);
        OBS_PROBES.add(ids.len() as u64);
        ids.iter().map(|&id| self.row(id)).filter(move |row| {
            self.key
                .iter()
                .zip(key_vals.iter())
                .all(|(&p, &v)| row[p] == v)
        })
    }
}

/// A keyed hash index over the rows of a [`TupleStore`].
///
/// Unlike [`TupleIndex`], a `ColumnIndex` owns no row data: it maps a
/// hash of the keyed columns to the row ids holding those values, and
/// verification reads the store's arenas directly. `extend` picks up
/// rows appended since the last call, which is exactly the shape of the
/// semi-naive merge step (indexes always cover `0..store.len()`).
#[derive(Debug, Clone)]
pub struct ColumnIndex {
    key: Vec<usize>,
    map: BucketMap,
    built_upto: u32,
    hasher: ElemHasher,
}

impl ColumnIndex {
    /// An empty index keyed by the given positions.
    pub fn new(key: &[usize]) -> ColumnIndex {
        ColumnIndex::with_hasher(key, fnv_step)
    }

    /// An empty index with a custom hash-step function (collision tests
    /// install a constant step to force the verify path).
    pub fn with_hasher(key: &[usize], hasher: ElemHasher) -> ColumnIndex {
        OBS_BUILDS.incr();
        ColumnIndex {
            key: key.to_vec(),
            map: BucketMap::default(),
            built_upto: 0,
            hasher,
        }
    }

    /// The key positions this index is built on.
    pub fn key(&self) -> &[usize] {
        &self.key
    }

    /// The row id one past the last indexed row.
    pub fn built_upto(&self) -> u32 {
        self.built_upto
    }

    /// Indexes every store row appended since the previous `extend`.
    ///
    /// # Panics
    /// Panics (in debug builds) if a key position is out of range for
    /// the store's arity.
    pub fn extend(&mut self, store: &TupleStore) {
        debug_assert!(self.key.iter().all(|&p| p < store.arity()) || store.arity() == 0);
        let upto = store.rows32();
        for id in self.built_upto..upto {
            let h = self
                .key
                .iter()
                .fold(FNV_SEED, |h, &p| (self.hasher)(h, store.value(id, p)));
            self.map.entry(h).or_default().push(id);
            OBS_BUILD_TUPLES.incr();
        }
        self.built_upto = upto;
    }

    /// Row ids of *live* rows in `store` whose keyed columns hold
    /// exactly `key_vals`. Candidates come from the hash bucket and
    /// are verified against the arenas, so collisions cannot leak
    /// wrong rows; tombstoned rows stay in the buckets until the store
    /// is compacted (and the index rebuilt), so liveness is checked
    /// here too.
    pub fn probe<'a>(&'a self, store: &'a TupleStore, key_vals: &'a [Elem]) -> Probe<'a> {
        debug_assert_eq!(key_vals.len(), self.key.len());
        OBS_PROBE_OPS.incr();
        let h = key_vals.iter().fold(FNV_SEED, |h, &v| (self.hasher)(h, v));
        let ids: &[u32] = self.map.get(&h).map_or(&[], Vec::as_slice);
        OBS_PROBES.add(ids.len() as u64);
        Probe {
            ids: ids.iter(),
            store,
            key: &self.key,
            key_vals,
        }
    }
}

/// The live matching row ids of one [`ColumnIndex::probe`]. The
/// candidate check sits in an inlined `next` rather than a `filter`
/// closure: the closure's body could be compiled into another codegen
/// unit than the caller's loop and then cost one call per candidate
/// (12% of the Datalog kernel's time on tc over a 512-node path).
#[derive(Debug)]
pub struct Probe<'a> {
    ids: std::slice::Iter<'a, u32>,
    store: &'a TupleStore,
    key: &'a [usize],
    key_vals: &'a [Elem],
}

impl Iterator for Probe<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        'candidates: for &id in self.ids.by_ref() {
            if !self.store.is_live(id) {
                continue;
            }
            for (&p, &v) in self.key.iter().zip(self.key_vals) {
                if self.store.value(id, p) != v {
                    continue 'candidates;
                }
            }
            return Some(id);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{builders, Signature};

    #[test]
    fn hash_index_probes_exact_matches() {
        let tuples: Vec<Vec<Elem>> = vec![vec![0, 1], vec![2, 1], vec![2, 3], vec![4, 1]];
        let idx = TupleIndex::build(2, &[1], tuples.iter().map(Vec::as_slice));
        assert_eq!(idx.len(), 4);
        let key = [1];
        let hits: Vec<&[Elem]> = idx.probe(&key).collect();
        assert_eq!(hits, vec![&[0, 1][..], &[2, 1], &[4, 1]]);
        assert_eq!(idx.probe(&[9]).count(), 0);
    }

    #[test]
    fn empty_key_yields_every_tuple() {
        let tuples: Vec<Vec<Elem>> = vec![vec![0, 1], vec![2, 3]];
        let idx = TupleIndex::build(2, &[], tuples.iter().map(Vec::as_slice));
        assert_eq!(idx.probe(&[]).count(), 2);
    }

    #[test]
    fn incremental_inserts_visible() {
        let mut idx = TupleIndex::build(2, &[0], std::iter::empty());
        assert!(idx.is_empty());
        idx.insert(&[5, 7]);
        idx.insert(&[5, 8]);
        let key = [5];
        let hits: Vec<&[Elem]> = idx.probe(&key).collect();
        assert_eq!(hits, vec![&[5, 7][..], &[5, 8]]);
    }

    #[test]
    fn nullary_tuples_supported() {
        let tuples: Vec<Vec<Elem>> = vec![vec![]];
        let idx = TupleIndex::build(0, &[], tuples.iter().map(Vec::as_slice));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.probe(&[]).count(), 1);
    }

    #[test]
    fn prefix_probe_matches_filter() {
        let s = builders::grid(4, 3);
        let e = Signature::graph().relation("E").unwrap();
        let rel = s.rel(e);
        for u in s.domain() {
            let probed: Vec<&[Elem]> = probe_prefix(rel, &[u]).collect();
            let scanned: Vec<&[Elem]> = rel.iter().filter(|t| t[0] == u).collect();
            assert_eq!(probed, scanned, "prefix [{u}]");
        }
        // Full-tuple prefix degenerates to membership.
        let first = rel.iter().next().unwrap().to_vec();
        assert_eq!(probe_prefix(rel, &first).count(), 1);
        // Empty prefix is the whole relation.
        assert_eq!(probe_prefix(rel, &[]).count(), rel.len());
    }

    #[test]
    fn column_index_probe_matches_scan() {
        let mut st = TupleStore::new(2);
        for t in [[0, 1], [2, 1], [2, 3], [4, 1]] {
            st.push_if_new(&t);
        }
        let mut idx = ColumnIndex::new(&[1]);
        idx.extend(&st);
        let hits: Vec<u32> = idx.probe(&st, &[1]).collect();
        assert_eq!(hits, vec![0, 1, 3]);
        assert_eq!(idx.probe(&st, &[9]).count(), 0);
        // Incremental extend picks up the appended rows only.
        st.push_if_new(&[6, 1]);
        idx.extend(&st);
        assert_eq!(idx.built_upto(), 5);
        let hits: Vec<u32> = idx.probe(&st, &[1]).collect();
        assert_eq!(hits, vec![0, 1, 3, 4]);
    }

    /// A hash step that ignores the value: every key collides.
    fn collide(h: u64, _e: Elem) -> u64 {
        h
    }

    #[test]
    fn column_index_survives_total_hash_collision() {
        // All keyed-column hashes are equal, so every probe walks one
        // bucket holding every row; verification against the arenas
        // must still return exactly the matching ids.
        let mut st = TupleStore::new(2);
        for u in 0..32u32 {
            st.push_if_new(&[u % 4, u]);
        }
        let mut idx = ColumnIndex::with_hasher(&[0], collide);
        idx.extend(&st);
        for k in 0..6u32 {
            let probed: Vec<u32> = idx.probe(&st, &[k]).collect();
            let scanned: Vec<u32> = (0..st.len32()).filter(|&id| st.value(id, 0) == k).collect();
            assert_eq!(probed, scanned, "key [{k}]");
        }
    }

    #[test]
    fn tuple_index_verifies_same_hash_different_keys() {
        // Distinct keyed values can share a bucket after hashing; the
        // probe must filter them out. Build a big index and check every
        // key against a scan to exercise whatever collisions occur.
        let tuples: Vec<Vec<Elem>> = (0..256u32).map(|u| vec![u % 16, u]).collect();
        let idx = TupleIndex::build(2, &[0], tuples.iter().map(Vec::as_slice));
        for k in 0..16u32 {
            let key = [k];
            let probed: Vec<&[Elem]> = idx.probe(&key).collect();
            let scanned: Vec<&[Elem]> = tuples
                .iter()
                .map(Vec::as_slice)
                .filter(|t| t[0] == k)
                .collect();
            assert_eq!(probed, scanned, "key [{k}]");
        }
    }
}
