//! Columnar accumulation tables.
//!
//! The DP kernel's working tables: where a hash-map table would store
//! `HashMap<Key, Count>`, a [`ColumnarTable`] is one dense row column of
//! packed 32-byte records — a `u128` key word (the four `u32` key fields:
//! start, end and the two tracked boundary extras), the low `u64` color-set
//! lane, and a `u64` count — plus a power-of-two open-addressing slot index
//! mapping key hashes to row ids. The high color-set lane (colors 64..128)
//! lives in a lazily materialized side column that the common `k <= 64`
//! workload never touches. Rows are append-only (counts accumulate in
//! place), so iteration is a linear scan over dense memory and
//! [`reset`](ColumnarTable::reset) retains every allocation for the next
//! tile and trial: the arena-reuse story of `sgc-core::kernel` is built
//! entirely on these two properties.
//!
//! The row index takes a key's home slot from the low bits of a
//! rotate-xor-multiply hash whose high half has been folded into its low
//! half. The fold is what makes it a hash table for the DP's keys: a
//! multiply carries bits upwards only, so the low bits of the raw product
//! never see the end vertex of a packed `start | end << 32` word, and the
//! thousands of rows that share a hub start vertex would chain on a handful
//! of slots. A unit test pins the mean probe distance on exactly that key
//! shape.
//!
//! [`EndpointGroups`], the `(start, end)` index of the path merge and the
//! semi steps, hashes nothing: path tables are sorted by start, so it
//! indexes one start's run of rows at a time by a dense per-vertex mark.
//!
//! Two layout details keep the hot loops memory-friendly:
//!
//! * every slot word carries a 16-bit *fingerprint* (the top bits of the
//!   row's hash, disjoint from its slot bits) next to the 32-bit row id, so
//!   a probe rejects non-matching slots without loading any row data — only
//!   a fingerprint match (rare for foreign keys) pays the full key +
//!   signature compare; the id width caps an index at 2^32 slots, which the
//!   growth paths assert;
//! * slot words are also tagged with a 16-bit *epoch*; `reset` just bumps
//!   the epoch, turning every stale slot invalid at once instead of
//!   memsetting a high-water slot table on every join.
//!
//! A table whose keys are distinct by construction — the seed edges of a
//! path build, a child slice's rows — skips the index altogether:
//! [`append`](ColumnarTable::append) pushes the row record and nothing
//! else. Such a table is only ever streamed, never probed, until its next
//! `reset`; debug builds enforce that.
//!
//! The same four-field shape serves every table the DP needs:
//!
//! | logical table           | f0      | f1    | f2     | f3     |
//! |-------------------------|---------|-------|--------|--------|
//! | path table              | start   | end   | extra0 | extra1 |
//! | unary projection        | vertex  | —     | —      | —      |
//! | binary projection       | u       | v     | —      | —      |
//! | scalar projection       | —       | —     | —      | —      |
//!
//! Unused fields hold [`NO_VERTEX`], so key equality stays a single
//! 128-bit compare.

use crate::signature::Signature;
use crate::table::{self, Count};
use sgc_graph::vertex::{VertexId, NO_VERTEX};

/// Number of `u32` key fields per row.
pub const KEY_FIELDS: usize = 4;

/// A row key: up to four vertex images ([`NO_VERTEX`] for unused fields).
pub type RowKey = [VertexId; KEY_FIELDS];

/// Initial slot-table size (power of two).
const MIN_SLOTS: usize = 16;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Packs the four `u32` key fields into one `u128` column word.
#[inline]
const fn pack_key(key: RowKey) -> u128 {
    (key[0] as u128)
        | ((key[1] as u128) << 32)
        | ((key[2] as u128) << 64)
        | ((key[3] as u128) << 96)
}

/// Unpacks a `u128` column word back into the four key fields.
#[inline]
const fn unpack_key(packed: u128) -> RowKey {
    [
        packed as u32,
        (packed >> 32) as u32,
        (packed >> 64) as u32,
        (packed >> 96) as u32,
    ]
}

/// The high key half when both extra fields are unused (`NO_VERTEX` twice).
const NO_EXTRAS: u64 = u64::MAX;

/// Folds the high half of a multiplicative hash into its low half. A
/// multiply only carries bits upwards, so the low bits of `x * SEED` never
/// see the high bits of `x` — for a packed `start | end << 32` word, the end
/// vertex. Slots are taken from the low bits, so without the fold every row
/// of one start vertex would share a handful of slots.
#[inline]
const fn fold(hash: u64) -> u64 {
    hash ^ (hash >> 32)
}

/// The slot-word tag of `hash` under `epoch`: `epoch << 48 | fingerprint <<
/// 32`, row/group id bits zero. The fingerprint is the hash's top 16 bits,
/// which [`fold`] leaves disjoint from the slot bits of any table below 2^16
/// slots (and mostly disjoint up to 2^32).
#[inline]
const fn slot_tag(epoch: u16, hash: u64) -> u64 {
    ((epoch as u64) << 48) | ((hash >> 48) << 32)
}

/// Largest slot table whose row (or group) ids still fit the 32 id bits of a
/// slot word: a table grows before it is 2/3 full, so its ids stay below its
/// slot count.
const MAX_SLOTS: u64 = 1 << 32;

/// Panics if a slot table of `slots` entries could hand out an id that does
/// not fit a slot word (ids past 2^32 would alias earlier rows).
fn assert_ids_fit(slots: usize) {
    assert!(
        slots as u64 <= MAX_SLOTS,
        "columnar table index is limited to 2^32 slots, asked for {slots}"
    );
}

/// FxHash-style mix of a packed row key and its signature words (rustc's
/// rotate-xor-multiply scheme), finished with
/// [`fold`]. Words that almost every row leaves at their idle value —
/// extras-free key halves and empty high signature lanes — are skipped: the
/// hash stays a pure function of the row's content (full key equality still
/// guards every probe match), and the multiply chain on the probe's critical
/// path halves for the common extras-free, `k <= 64` row.
#[inline]
fn hash_row(packed: u128, sig_lo: u64, sig_hi: u64) -> u64 {
    let mut state = 0u64;
    let mut mix = |word: u64| state = (state.rotate_left(5) ^ word).wrapping_mul(SEED);
    mix(packed as u64);
    let hi = (packed >> 64) as u64;
    if hi != NO_EXTRAS {
        mix(hi);
    }
    mix(sig_lo);
    if sig_hi != 0 {
        mix(sig_hi);
    }
    fold(state)
}

/// One dense row record: the packed key, the low signature lane and the
/// count, packed into 32 bytes so a probe's key compare and its count
/// accumulation touch the same cache line.
#[derive(Clone, Copy, Debug)]
struct Row {
    /// The four `u32` key fields, packed (see [`pack_key`]).
    key: u128,
    /// Low signature word (colors 0..64).
    sig_lo: u64,
    /// Accumulated count.
    count: Count,
}

/// A columnar accumulation table: a dense row column plus a hash index.
///
/// `add` sums duplicate keys in place; `append` adds a row the caller knows
/// is new without indexing it; `rows`/`row` iterate the dense columns in
/// insertion order; `reset` clears the rows while keeping every buffer's
/// capacity (and the slot table's size) for reuse.
///
/// The high signature lane (colors 64..128) lives in a side column that is
/// only consulted when some row actually uses it (`any_hi`): the common
/// `k <= 64` workload never reads it, keeping every probe inside the packed
/// 32-byte row records.
#[derive(Clone, Debug)]
pub struct ColumnarTable {
    /// Dense row records in insertion order.
    rows: Vec<Row>,
    /// High signature words, one per row; left empty (never allocated)
    /// until some row has a nonzero high word (`any_hi`).
    sig_hi: Vec<u64>,
    /// Whether any live row has a nonzero high signature word.
    any_hi: bool,
    /// Open-addressing index: slot → `epoch << 48 | fingerprint << 32 | row`.
    /// Power-of-two sized, linear probing. A slot is live only when its
    /// epoch tag equals [`ColumnarTable::epoch`].
    slots: Vec<u64>,
    /// Current slot epoch; bumped by `reset` to invalidate all slots at once.
    epoch: u16,
    /// Whether rows were [`append`](ColumnarTable::append)ed since the last
    /// `reset`: the slot index does not cover them, so the table may only
    /// be streamed until it is reset.
    appended: bool,
}

impl Default for ColumnarTable {
    fn default() -> Self {
        ColumnarTable {
            rows: Vec::new(),
            sig_hi: Vec::new(),
            any_hi: false,
            slots: Vec::new(),
            epoch: 1,
            appended: false,
        }
    }
}

impl ColumnarTable {
    /// Creates an empty table (no buffers allocated until the first `add`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct keys (rows).
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row `r`'s high signature word (zero unless some row uses colors
    /// 64..128 — the branch on the table-level flag keeps the side column
    /// untouched on narrow workloads).
    #[inline]
    fn hi(&self, r: usize) -> u64 {
        if self.any_hi {
            self.sig_hi[r]
        } else {
            0
        }
    }

    /// Adds `count` to the row for `(key, sig)`, appending a row if absent,
    /// so rows keep the order of their keys' first insertions. Zero counts
    /// are ignored (only non-zero entries are materialised).
    #[inline]
    pub fn add(&mut self, key: RowKey, sig: Signature, count: Count) {
        debug_assert!(!self.appended, "add to an appended table");
        if count == 0 {
            return;
        }
        // Grow at 2/3 load: longer probe chains cost less than blowing the
        // slot table out of L2 (probes walk consecutive slots, so extra
        // displacement rarely crosses a cache line).
        if self.rows.len() * 3 >= self.slots.len() * 2 {
            self.grow();
        }
        let packed = pack_key(key);
        let [sig_lo, sig_hi] = sig.words();
        let hash = hash_row(packed, sig_lo, sig_hi);
        let tag = slot_tag(self.epoch, hash);
        let mask = self.slots.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            let entry = self.slots[slot];
            if (entry >> 48) as u16 != self.epoch {
                // Stale or virgin slot: claim it for a fresh row.
                self.slots[slot] = tag | self.rows.len() as u64;
                self.push_row(packed, sig_lo, sig_hi, count);
                return;
            }
            if entry >> 32 == tag >> 32 {
                let r = entry as u32 as usize;
                let row = &mut self.rows[r];
                if row.key == packed && row.sig_lo == sig_lo {
                    let hi = if self.any_hi { self.sig_hi[r] } else { 0 };
                    if hi == sig_hi {
                        row.count += count;
                        return;
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Appends `(key, sig, count)` as a new row without touching the slot
    /// index — for a caller whose keys are distinct by construction, where
    /// [`add`](Self::add)'s probe could never find a match. Zero counts are
    /// ignored, as by `add`. Until the next [`reset`](Self::reset) the table
    /// may only be streamed (rows, endpoints, signatures, totals, an
    /// [`EndpointGroups`] build): `add` and `get` on it panic in debug
    /// builds, since the index does not know the appended rows.
    #[inline]
    pub fn append(&mut self, key: RowKey, sig: Signature, count: Count) {
        if count == 0 {
            return;
        }
        self.appended = true;
        let [sig_lo, sig_hi] = sig.words();
        self.push_row(pack_key(key), sig_lo, sig_hi, count);
    }

    /// Pushes a row record. The high signature column stays empty
    /// (untouched) until some row actually needs it.
    #[inline]
    fn push_row(&mut self, packed: u128, sig_lo: u64, sig_hi: u64, count: Count) {
        self.rows.push(Row {
            key: packed,
            sig_lo,
            count,
        });
        if self.any_hi {
            self.sig_hi.push(sig_hi);
        } else if sig_hi != 0 {
            self.sig_hi.resize(self.rows.len() - 1, 0);
            self.sig_hi.push(sig_hi);
            self.any_hi = true;
        }
    }

    /// The count stored for `(key, sig)`, zero if absent.
    pub fn get(&self, key: RowKey, sig: Signature) -> Count {
        debug_assert!(!self.appended, "probe of an appended table");
        if self.slots.is_empty() {
            return 0;
        }
        let packed = pack_key(key);
        let [sig_lo, sig_hi] = sig.words();
        let hash = hash_row(packed, sig_lo, sig_hi);
        let tag = slot_tag(self.epoch, hash);
        let mask = self.slots.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            let entry = self.slots[slot];
            if (entry >> 48) as u16 != self.epoch {
                return 0;
            }
            if entry >> 32 == tag >> 32 {
                let r = entry as u32 as usize;
                let row = &self.rows[r];
                if row.key == packed && row.sig_lo == sig_lo && self.hi(r) == sig_hi {
                    return row.count;
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Row `r` as `(key, signature, count)`.
    #[inline]
    pub fn row(&self, r: usize) -> (RowKey, Signature, Count) {
        let row = &self.rows[r];
        (
            unpack_key(row.key),
            Signature::from_words([row.sig_lo, self.hi(r)]),
            row.count,
        )
    }

    /// Row `r`'s signature alone — the first thing every merge filter
    /// checks, exposed separately so the filter does not have to
    /// materialize the whole row.
    #[inline]
    pub fn sig(&self, r: usize) -> Signature {
        Signature::from_words([self.rows[r].sig_lo, self.hi(r)])
    }

    /// Row `r`'s count alone (for merge paths that never need the key).
    #[inline]
    pub fn count(&self, r: usize) -> Count {
        self.rows[r].count
    }

    /// Row `r`'s two endpoint key fields (`f0`, `f1`) alone.
    #[inline]
    pub fn endpoints(&self, r: usize) -> (VertexId, VertexId) {
        let lo = self.rows[r].key as u64;
        (lo as u32, (lo >> 32) as u32)
    }

    /// Row `r`'s two extra key fields (`f2`, `f3`) alone.
    #[inline]
    pub fn extras(&self, r: usize) -> [VertexId; 2] {
        let hi = (self.rows[r].key >> 64) as u64;
        [hi as u32, (hi >> 32) as u32]
    }

    /// Iterates over all rows in insertion order.
    pub fn rows(&self) -> impl Iterator<Item = (RowKey, Signature, Count)> + '_ {
        (0..self.len()).map(|r| self.row(r))
    }

    /// The rows of a projection accumulator (`f0`, `f1` the boundary images)
    /// in the interchange format, in insertion order.
    pub fn projection_rows(&self) -> impl Iterator<Item = table::Row> + Clone + '_ {
        self.rows.iter().enumerate().map(|(r, row)| table::Row {
            u: row.key as u32,
            v: (row.key >> 32) as u32,
            sig: Signature::from_words([row.sig_lo, self.hi(r)]),
            count: row.count,
        })
    }

    /// Sum of all counts.
    pub fn total(&self) -> Count {
        self.rows.iter().map(|row| row.count).sum()
    }

    /// Clears all rows while retaining every buffer's capacity — the
    /// steady-state trial path allocates nothing. O(1): the slot table is
    /// invalidated by bumping the epoch, not by rewriting it (a real wipe
    /// happens only when the 16-bit epoch wraps).
    pub fn reset(&mut self) {
        self.rows.clear();
        self.sig_hi.clear();
        self.any_hi = false;
        self.appended = false;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.slots.fill(0);
            self.epoch = 1;
        }
    }

    /// Total allocated bytes across all columns and the slot index.
    pub fn capacity_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<Row>()
            + (self.sig_hi.capacity() + self.slots.capacity()) * std::mem::size_of::<u64>()
    }

    /// Doubles the slot table and re-indexes every row.
    #[cold]
    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(MIN_SLOTS);
        assert_ids_fit(new_len);
        self.slots.clear();
        self.slots.resize(new_len, 0);
        self.epoch = 1;
        let mask = new_len - 1;
        for r in 0..self.rows.len() {
            let hash = hash_row(self.rows[r].key, self.rows[r].sig_lo, self.hi(r));
            let tag = slot_tag(self.epoch, hash);
            let mut slot = (hash as usize) & mask;
            while (self.slots[slot] >> 48) as u16 == self.epoch {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = tag | r as u64;
        }
    }
}

/// An index of a start-sorted [`ColumnarTable`] by the `(f0, f1)` endpoint
/// pair of its rows — the join key of the cycle path merge and of a semi
/// step — loaded one start vertex's run of rows at a time.
///
/// Every path table the DP writes is sorted by start, and both readers probe
/// in start order (the merge streams its outer table, a semi step its
/// source), so the pair needs no hash: the start is the run, the end a dense
/// mark. The first probe of a new start finds the start's run and walks it
/// once, chaining the rows that share an end vertex through `next` and
/// marking each chain's first row in `marks` under a fresh generation (so
/// nothing is cleared between runs). A probe is then one load of
/// `marks[end]` and a walk of a chain that lists exactly the pair's rows, in
/// insertion order. The index holds row ids, not copies: the table must stay
/// as it was built until its last probe. A table not sorted by start cannot
/// be indexed this way, and its first probe panics.
#[derive(Clone, Debug, Default)]
pub struct EndpointGroups {
    /// Per end vertex: `generation << 32 | row`, the first row of its chain
    /// in the loaded run. Stale unless the generation is the current one.
    marks: Vec<u64>,
    /// Per row of the indexed table: the next row of its chain in the loaded
    /// run ([`NO_ROW`]: the chain's last).
    next: Vec<u32>,
    /// Generation of the loaded run.
    generation: u32,
    /// Start vertex of the loaded run ([`NO_VERTEX`]: none since `build`).
    start: VertexId,
    /// First row past the loaded run: where a later start's run is sought.
    cursor: usize,
    /// Rows of the indexed table.
    rows: usize,
    /// Whether the indexed table's rows are sorted by start.
    sorted: bool,
}

/// Chain terminator of [`EndpointGroups`]: no next row.
const NO_ROW: u32 = u32::MAX;

impl EndpointGroups {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches the index to `table`, reusing all buffers. One pass over the
    /// rows checks that they are sorted by start and sizes the end marks;
    /// the runs are indexed by the probes that need them.
    pub fn build(&mut self, table: &ColumnarTable) {
        // Row ids and the chain terminator share a `u32`.
        assert!(
            table.len() < NO_ROW as usize,
            "endpoint grouping is limited to 2^32 - 1 rows, got {}",
            table.len()
        );
        let (mut sorted, mut last_start, mut max_end) = (true, 0, 0);
        for row in &table.rows {
            let (start, end) = (row.key as u32, (row.key >> 32) as u32);
            sorted &= last_start <= start;
            last_start = start;
            max_end = max_end.max(end as usize);
        }
        if self.marks.len() <= max_end {
            self.marks.resize(max_end + 1, 0);
        }
        if self.next.len() < table.len() {
            self.next.resize(table.len(), NO_ROW);
        }
        self.advance_generation();
        self.start = NO_VERTEX;
        self.cursor = 0;
        self.rows = table.len();
        self.sorted = sorted;
    }

    /// The first row of `table` — the table this index was built over —
    /// whose `(f0, f1)` is `(start, end)`, if any; [`next`](Self::next)
    /// walks the rest in insertion order. Probes of ascending starts load
    /// each run of the table once.
    #[inline]
    pub fn first(
        &mut self,
        table: &ColumnarTable,
        start: VertexId,
        end: VertexId,
    ) -> Option<usize> {
        if start != self.start {
            self.load(table, start);
        }
        match self.marks.get(end as usize) {
            Some(&mark) if (mark >> 32) as u32 == self.generation => Some(mark as u32 as usize),
            _ => None,
        }
    }

    /// The row after `row` in its `(start, end)` chain, if any. `row` must
    /// come from the last start probed.
    #[inline]
    pub fn next(&self, row: usize) -> Option<usize> {
        let next = self.next[row];
        (next != NO_ROW).then_some(next as usize)
    }

    /// Whether some row of `table` has `(f0, f1)` equal to `(start, end)`:
    /// the probe of a semi-join against the indexed table.
    #[inline]
    pub fn contains(&mut self, table: &ColumnarTable, start: VertexId, end: VertexId) -> bool {
        self.first(table, start, end).is_some()
    }

    /// Indexes `start`'s run of `table`: finds it (scanning on from the last
    /// run when starts ascend, searching from the top otherwise) and chains
    /// its rows by end vertex, walking it backwards so every chain lists its
    /// rows in insertion order.
    #[inline(never)]
    fn load(&mut self, table: &ColumnarTable, start: VertexId) {
        assert!(
            self.sorted,
            "endpoint groups need a table sorted by start vertex"
        );
        assert_eq!(
            table.len(),
            self.rows,
            "probe of a table it was not built over"
        );
        let rows = &table.rows;
        let start_of = |row: &Row| row.key as u32;
        let lo = if start > self.start {
            let from = self.cursor;
            from + (rows[from..].iter())
                .take_while(|row| start_of(row) < start)
                .count()
        } else {
            rows.partition_point(|row| start_of(row) < start)
        };
        let hi = lo
            + (rows[lo..].iter())
                .take_while(|row| start_of(row) == start)
                .count();
        self.advance_generation();
        let tag = (self.generation as u64) << 32;
        for r in (lo..hi).rev() {
            let mark = &mut self.marks[(rows[r].key >> 32) as u32 as usize];
            self.next[r] = if (*mark >> 32) as u32 == self.generation {
                *mark as u32
            } else {
                NO_ROW
            };
            *mark = tag | r as u64;
        }
        self.start = start;
        self.cursor = hi;
    }

    /// Moves to a fresh generation, which stales every mark at once (a real
    /// wipe only when the 32-bit generation wraps).
    fn advance_generation(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.marks.fill(0);
            self.generation = 1;
        }
    }

    /// Total allocated bytes: the end marks and the chain lane.
    pub fn capacity_bytes(&self) -> usize {
        self.marks.capacity() * std::mem::size_of::<u64>()
            + self.next.capacity() * std::mem::size_of::<u32>()
    }
}

/// A path-table row key with no extras.
#[inline]
pub const fn path_key(start: VertexId, end: VertexId) -> RowKey {
    [start, end, NO_VERTEX, NO_VERTEX]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates_and_gets() {
        let mut t = ColumnarTable::new();
        let sig = Signature::pair(0, 1);
        t.add(path_key(3, 5), sig, 2);
        t.add(path_key(3, 5), sig, 5);
        t.add(path_key(3, 6), sig, 1);
        t.add(path_key(9, 9), sig, 0); // ignored
        assert_eq!(t.get(path_key(3, 5), sig), 7);
        assert_eq!(t.get(path_key(3, 6), sig), 1);
        assert_eq!(t.get(path_key(3, 7), sig), 0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.total(), 8);
    }

    #[test]
    fn signatures_distinguish_rows_across_words() {
        let mut t = ColumnarTable::new();
        // Same key, signatures differing only in the high word.
        let lo = Signature::pair(0, 63);
        let hi = Signature::pair(0, 64);
        t.add(path_key(1, 2), lo, 3);
        t.add(path_key(1, 2), hi, 4);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(path_key(1, 2), lo), 3);
        assert_eq!(t.get(path_key(1, 2), hi), 4);
    }

    #[test]
    fn reset_keeps_capacity() {
        let mut t = ColumnarTable::new();
        for i in 0..10_000u32 {
            t.add(
                path_key(i % 997, i % 1009),
                Signature::singleton((i % 90) as u8),
                1,
            );
        }
        let bytes = t.capacity_bytes();
        assert!(bytes > 0);
        t.reset();
        assert!(t.is_empty());
        assert_eq!(t.capacity_bytes(), bytes, "reset must not shed capacity");
        // Refilling with the same working set allocates nothing new.
        for i in 0..10_000u32 {
            t.add(
                path_key(i % 997, i % 1009),
                Signature::singleton((i % 90) as u8),
                1,
            );
        }
        assert_eq!(t.capacity_bytes(), bytes, "steady state must not grow");
    }

    #[test]
    fn reset_survives_epoch_wrap() {
        // 16-bit epoch: after 65536 resets the tag space wraps and the slot
        // table must be wiped for real. Drive past the wrap and check the
        // table still distinguishes fresh from stale rows.
        let mut t = ColumnarTable::new();
        let sig = Signature::singleton(1);
        for round in 0..70_000u32 {
            t.add(path_key(round % 13, 1), sig, 1);
            assert_eq!(t.get(path_key(round % 13, 1), sig), 1);
            assert_eq!(t.len(), 1, "stale slot resurrected at round {round}");
            t.reset();
            assert_eq!(t.get(path_key(round % 13, 1), sig), 0);
        }
    }

    /// The unhashed fill of distinct keys is the hashed fill minus the
    /// index: same rows, same order (the zero count skipped by both, the
    /// wide-lane row materializing the high column on both), same total.
    /// Probing it is a bug until `reset`.
    #[test]
    fn appending_distinct_rows_builds_what_adding_them_builds() {
        let rows = [
            (path_key(4, 9), Signature::pair(0, 1), 3),
            ([4, 10, 4, NO_VERTEX], Signature::pair(0, 2), 1),
            (path_key(4, 11), Signature::pair(0, 5), 0),
            (path_key(5, 9), Signature::pair(1, 70), 2),
            (path_key(5, 9), Signature::pair(1, 3), 7),
        ];
        let mut added = ColumnarTable::new();
        let mut appended = ColumnarTable::new();
        for (key, sig, count) in rows {
            added.add(key, sig, count);
            appended.append(key, sig, count);
        }
        assert_eq!(appended.len(), 4);
        assert!(appended.any_hi);
        assert_eq!(
            appended.rows().collect::<Vec<_>>(),
            added.rows().collect::<Vec<_>>()
        );
        assert_eq!(appended.total(), added.total());
        if cfg!(debug_assertions) {
            let mut probed = appended.clone();
            let add = std::panic::catch_unwind(move || probed.add(path_key(1, 2), rows[0].1, 1));
            assert!(add.is_err(), "add to an appended table must panic");
            let get = std::panic::catch_unwind(|| appended.get(rows[0].0, rows[0].1));
            assert!(get.is_err(), "get on an appended table must panic");
        }
        appended.reset();
        appended.add(path_key(1, 2), rows[0].1, 1);
        assert_eq!(appended.get(path_key(1, 2), rows[0].1), 1);
    }

    /// The joins write each table with plain `add`s in source order and rely
    /// on the rows coming back the same way: sorted by start, each distinct
    /// `(key, signature)` at its first insertion, with its counts summed.
    #[test]
    fn adds_keep_first_insertion_order() {
        use std::collections::hash_map::{Entry, HashMap};
        let mut t = ColumnarTable::new();
        let mut want: Vec<(RowKey, Signature, Count)> = Vec::new();
        let mut position: HashMap<(RowKey, Signature), usize> = HashMap::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..5_000u32 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let draw = (state >> 33) as u32;
            // Eight adds per start over three ends and two signatures (one
            // in the high lane), so pairs repeat, mostly not back to back.
            let start = i / 8;
            let key = path_key(start, start + 1 + draw % 3);
            let sig = Signature::pair(0, [5, 70][(draw / 3 % 2) as usize]);
            let count = Count::from(draw / 6 % 4 + 1);
            t.add(key, sig, count);
            match position.entry((key, sig)) {
                Entry::Occupied(at) => want[*at.get()].2 += count,
                Entry::Vacant(at) => {
                    at.insert(want.len());
                    want.push((key, sig, count));
                }
            }
        }
        assert!(want.len() < 5_000, "no pair was repeated");
        assert!(t.slots.len() >= MIN_SLOTS << 2, "the index grew only once");
        assert_eq!(t.rows().collect::<Vec<_>>(), want);
    }

    #[test]
    fn rows_round_trip() {
        let mut t = ColumnarTable::new();
        let k = [1, 2, 7, NO_VERTEX];
        let sig = Signature::empty().with(3).with(100);
        t.add(k, sig, 11);
        let rows: Vec<_> = t.rows().collect();
        assert_eq!(rows, vec![(k, sig, 11)]);
        assert_eq!(t.sig(0), sig);
    }

    #[test]
    fn growth_preserves_entries() {
        let mut t = ColumnarTable::new();
        for i in 0..5_000u32 {
            t.add(
                path_key(i, i + 1),
                Signature::singleton((i % 120) as u8),
                i as u64 + 1,
            );
        }
        for i in 0..5_000u32 {
            assert_eq!(
                t.get(path_key(i, i + 1), Signature::singleton((i % 120) as u8)),
                i as u64 + 1
            );
        }
    }

    /// Mean distance of a live row's slot from the home slot of its hash.
    fn mean_row_probe_distance(t: &ColumnarTable) -> f64 {
        let mask = t.slots.len() - 1;
        let total: usize = (0..t.slots.len())
            .filter(|&slot| (t.slots[slot] >> 48) as u16 == t.epoch)
            .map(|slot| {
                let r = t.slots[slot] as u32 as usize;
                let home = hash_row(t.rows[r].key, t.rows[r].sig_lo, t.hi(r)) as usize & mask;
                slot.wrapping_sub(home) & mask
            })
            .sum();
        total as f64 / t.len() as f64
    }

    /// The DP's own key shape — one hub start vertex, thousands of ends, a
    /// few signatures each — must spread over the slot table: uniform
    /// hashing at the row index's load factor (1/2 here) displaces a key by
    /// about half a slot on average. A multiplicative
    /// hash that takes its slot from the unfolded low bits never sees the end
    /// vertex there and chains all of them: mean distance in the thousands.
    #[test]
    fn one_start_many_ends_probe_in_constant_distance() {
        for extras in [false, true] {
            let mut t = ColumnarTable::new();
            for end in 0..4096u32 {
                for color in 0..8u8 {
                    let mut key = path_key(77, 1000 + end);
                    if extras {
                        key[2] = 1000 + end;
                    }
                    t.add(key, Signature::pair(9, color), 1);
                }
            }
            assert_eq!(t.len(), 4096 * 8);
            let rows = mean_row_probe_distance(&t);
            assert!(rows < 2.0, "extras {extras}: mean row probe {rows}");
        }
    }

    /// Slot words hold 32 id bits. A table of 2^32 slots grows at 2/3 load,
    /// so its largest row id is the last one that fits; one more doubling
    /// must panic instead of aliasing rows.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn ids_fit_exactly_up_to_the_largest_slot_table() {
        let max_rows_before_growth = |slots: u64| (slots * 2).div_ceil(3);
        assert!(max_rows_before_growth(MAX_SLOTS) - 1 <= u32::MAX as u64);
        assert!(max_rows_before_growth(MAX_SLOTS * 2) - 1 > u32::MAX as u64);
        assert_ids_fit(MAX_SLOTS as usize);
        let past = std::panic::catch_unwind(|| assert_ids_fit(MAX_SLOTS as usize * 2));
        assert!(past.is_err(), "2^33 slots must be refused");
    }

    /// The rows of `(start, end)`, as the chain from `first` lists them.
    fn chain(
        groups: &mut EndpointGroups,
        t: &ColumnarTable,
        start: VertexId,
        end: VertexId,
    ) -> Vec<usize> {
        let first = groups.first(t, start, end);
        std::iter::successors(first, |&r| groups.next(r)).collect()
    }

    #[test]
    fn endpoint_groups_find_all_rows() {
        let mut t = ColumnarTable::new();
        t.add(path_key(1, 2), Signature::singleton(0), 1);
        t.add(path_key(1, 2), Signature::singleton(1), 2);
        t.add(path_key(1, 3), Signature::singleton(2), 3);
        t.add([1, 2, 9, NO_VERTEX], Signature::singleton(3), 4);
        let mut groups = EndpointGroups::new();
        groups.build(&t);
        let rows = chain(&mut groups, &t, 1, 2);
        let counts: u64 = rows.iter().map(|&r| t.count(r)).sum();
        assert_eq!(counts, 7);
        // The chain lists rows of the pair, and through them each row's
        // signature and extras.
        assert!(rows.iter().all(|&r| t.endpoints(r) == (1, 2)));
        assert_eq!(t.sig(rows[2]), Signature::singleton(3));
        assert_eq!(t.extras(rows[2]), [9, NO_VERTEX]);
        assert_eq!(chain(&mut groups, &t, 1, 3).len(), 1);
        assert_eq!(chain(&mut groups, &t, 2, 1).len(), 0);
        // Back to an earlier start: the run is found again.
        assert!(groups.contains(&t, 1, 3));
        assert!(!groups.contains(&t, 2, 1));
    }

    #[test]
    fn endpoint_group_spans_are_contiguous_and_ordered() {
        // A chain must list its pair's rows in insertion order and the
        // chains must cover every row exactly once. Row `i` is the one whose
        // signature is `{i}`; starts ascend, as in a path table.
        let mut t = ColumnarTable::new();
        for i in 0..100u32 {
            t.add(path_key(i / 34, i % 2), Signature::singleton(i as u8), 1);
        }
        let mut groups = EndpointGroups::new();
        groups.build(&t);
        let mut seen = vec![false; t.len()];
        for a in 0..3u32 {
            for b in 0..2u32 {
                let rows: Vec<usize> = (chain(&mut groups, &t, a, b).into_iter())
                    .map(|r| t.sig(r).colors().next().unwrap() as usize)
                    .collect();
                assert!(rows.windows(2).all(|w| w[0] < w[1]), "insertion order");
                for r in rows {
                    assert_eq!(t.endpoints(r), (a, b), "row {r} in the wrong group");
                    assert!(!seen[r], "row listed twice");
                    seen[r] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "every row grouped");
    }

    #[test]
    fn endpoint_groups_rebuild_reuses_buffers() {
        let mut t = ColumnarTable::new();
        for i in 0..1000u32 {
            t.add(
                path_key(i / 33, i % 37),
                Signature::singleton((i % 64) as u8),
                1,
            );
        }
        let mut groups = EndpointGroups::new();
        groups.build(&t);
        let bytes = groups.capacity_bytes();
        groups.build(&t);
        assert_eq!(groups.capacity_bytes(), bytes);
        let total: u64 = (0..31u32)
            .flat_map(|a| (0..37u32).map(move |b| (a, b)))
            .map(|(a, b)| {
                let rows = chain(&mut groups, &t, a, b);
                rows.iter().map(|&r| t.count(r)).sum::<u64>()
            })
            .sum();
        assert_eq!(total, t.total());
        assert_eq!(groups.capacity_bytes(), bytes, "probes allocate nothing");
    }

    /// The index chains one start's run at a time: a table whose starts do
    /// not ascend has no runs, and is refused rather than misread.
    #[test]
    #[should_panic(expected = "sorted by start")]
    fn endpoint_groups_refuse_a_table_not_sorted_by_start() {
        let mut t = ColumnarTable::new();
        t.add(path_key(2, 1), Signature::singleton(0), 1);
        t.add(path_key(1, 2), Signature::singleton(1), 1);
        let mut groups = EndpointGroups::new();
        groups.build(&t);
        groups.contains(&t, 1, 2);
    }

    /// The 32-bit generation wraps after 2^32 runs: the marks are then wiped
    /// for real, and no mark of an earlier run resurfaces.
    #[test]
    fn endpoint_groups_survive_generation_wrap() {
        let mut t = ColumnarTable::new();
        t.add(path_key(1, 5), Signature::singleton(0), 1);
        t.add(path_key(2, 6), Signature::singleton(1), 1);
        let mut groups = EndpointGroups::new();
        groups.build(&t);
        groups.generation = u32::MAX - 3;
        for _ in 0..4 {
            for (start, end, other) in [(1, 5, 6), (2, 6, 5)] {
                assert_eq!(chain(&mut groups, &t, start, end).len(), 1);
                assert!(!groups.contains(&t, start, other), "stale mark at {start}");
            }
        }
        assert!(groups.generation < 16, "the generation wrapped");
    }
}
