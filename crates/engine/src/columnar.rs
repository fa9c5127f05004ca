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
//! Both indexes ([`ColumnarTable`]'s rows, [`EndpointGroups`]' groups) take
//! a key's home slot from the low bits of a rotate-xor-multiply hash whose
//! high half has been folded into its low half. The fold is what makes them
//! hash tables for the DP's keys: a multiply carries bits upwards only, so
//! the low bits of the raw product never see the end vertex of a packed
//! `start | end << 32` word, and the thousands of rows that share a hub
//! start vertex would chain on a handful of slots. A unit test pins the
//! mean probe distance on exactly that key shape.
//!
//! Three layout details keep the hot loops memory-friendly:
//!
//! * every slot word carries a 16-bit *fingerprint* (the top bits of the
//!   row's hash, disjoint from its slot bits) next to the 32-bit row id, so
//!   a probe rejects non-matching slots without loading any row data — only
//!   a fingerprint match (rare for foreign keys) pays the full key +
//!   signature compare; the id width caps an index at 2^32 slots, which the
//!   growth paths assert;
//! * slot words are also tagged with a 16-bit *epoch*; `reset` just bumps
//!   the epoch, turning every stale slot invalid at once instead of
//!   memsetting a high-water slot table on every join;
//! * insertion is software-pipelined: [`prepare`](ColumnarTable::prepare)
//!   hashes a row up front, [`prefetch`](ColumnarTable::prefetch) pulls its
//!   slot line, and [`AddPipeline`] keeps a fixed ring of prepared inserts
//!   in flight so the joins overlap each probe's cache misses with useful
//!   work instead of stalling on them one at a time.
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
use std::ops::Range;

/// Number of `u32` key fields per row.
pub const KEY_FIELDS: usize = 4;

/// A row key: up to four vertex images ([`NO_VERTEX`] for unused fields).
pub type RowKey = [VertexId; KEY_FIELDS];

/// Group sentinel: no entry (used by [`EndpointGroups`] scratch).
const EMPTY: u32 = u32::MAX;

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
/// `add` sums duplicate keys in place; `rows`/`row` iterate the dense
/// columns in insertion order; `reset` clears the rows while keeping every
/// buffer's capacity (and the slot table's size) for reuse.
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
}

impl Default for ColumnarTable {
    fn default() -> Self {
        ColumnarTable {
            rows: Vec::new(),
            sig_hi: Vec::new(),
            any_hi: false,
            slots: Vec::new(),
            epoch: 1,
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

    /// Adds `count` to the row for `(key, sig)`, appending a row if absent.
    /// Zero counts are ignored (only non-zero entries are materialised).
    #[inline]
    pub fn add(&mut self, key: RowKey, sig: Signature, count: Count) {
        self.add_prepared(Self::prepare(key, sig, count));
    }

    /// Packs and hashes an add without touching the table, so the slot line
    /// it will probe can be prefetched (see [`prefetch`](Self::prefetch))
    /// well before the probe itself runs.
    #[inline]
    pub fn prepare(key: RowKey, sig: Signature, count: Count) -> PreparedAdd {
        let packed = pack_key(key);
        let [sig_lo, sig_hi] = sig.words();
        PreparedAdd {
            packed,
            sig_lo,
            sig_hi,
            count,
            hash: hash_row(packed, sig_lo, sig_hi),
        }
    }

    /// Prefetches the slot cache line `p`'s probe will read first. Purely
    /// advisory: growth between the prefetch and the probe just wastes the
    /// hint.
    #[inline]
    pub fn prefetch(&self, p: &PreparedAdd) {
        #[cfg(target_arch = "x86_64")]
        if !self.slots.is_empty() {
            let slot = (p.hash as usize) & (self.slots.len() - 1);
            // SAFETY: `slot` is masked into bounds; prefetch has no effect
            // beyond the cache.
            unsafe {
                std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                    self.slots.as_ptr().add(slot) as *const i8,
                );
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = p;
    }

    /// Advisory second pipeline stage: probes (read-only, bounded) for the
    /// row `p` will land on and prefetches that row record. Runs after
    /// [`prefetch`](Self::prefetch) has had time to pull the slot line in,
    /// and before [`add_prepared`](Self::add_prepared) needs the row line.
    /// Wrong or missed predictions (pipelined adds not yet applied, growth
    /// in between) only waste the hint.
    #[inline]
    pub fn prefetch_candidate_row(&self, p: &PreparedAdd) {
        #[cfg(target_arch = "x86_64")]
        if !self.slots.is_empty() {
            let tag = slot_tag(self.epoch, p.hash);
            let mask = self.slots.len() - 1;
            let mut slot = (p.hash as usize) & mask;
            for _ in 0..4 {
                let entry = self.slots[slot];
                if (entry >> 48) as u16 != self.epoch {
                    return;
                }
                if entry >> 32 == tag >> 32 {
                    // SAFETY: slot entries index live rows; prefetch has no
                    // effect beyond the cache.
                    unsafe {
                        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                            self.rows.as_ptr().add(entry as u32 as usize) as *const i8,
                        );
                    }
                    return;
                }
                slot = (slot + 1) & mask;
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = p;
    }

    /// Applies a prepared add — [`add`](Self::add) with the pack and hash
    /// already done.
    #[inline]
    pub fn add_prepared(&mut self, p: PreparedAdd) {
        let PreparedAdd {
            packed,
            sig_lo,
            sig_hi,
            count,
            hash,
        } = p;
        if count == 0 {
            return;
        }
        // Grow at 2/3 load: longer probe chains cost less than blowing the
        // slot table out of L2 (probes walk consecutive slots, so extra
        // displacement rarely crosses a cache line).
        if self.rows.len() * 3 >= self.slots.len() * 2 {
            self.grow();
        }
        let tag = slot_tag(self.epoch, hash);
        let mask = self.slots.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            let entry = self.slots[slot];
            if (entry >> 48) as u16 != self.epoch {
                // Stale or virgin slot: claim it for a fresh row. The high
                // signature column stays empty (untouched) until some row
                // actually needs it.
                self.slots[slot] = tag | self.rows.len() as u64;
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

    /// The count stored for `(key, sig)`, zero if absent.
    pub fn get(&self, key: RowKey, sig: Signature) -> Count {
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

/// A packed-and-hashed pending add, produced by
/// [`ColumnarTable::prepare`] and consumed by
/// [`ColumnarTable::add_prepared`].
#[derive(Clone, Copy, Debug)]
pub struct PreparedAdd {
    /// Packed key (see [`pack_key`]).
    packed: u128,
    /// Low signature word.
    sig_lo: u64,
    /// High signature word.
    sig_hi: u64,
    /// Count to accumulate.
    count: Count,
    /// Precomputed row hash.
    hash: u64,
}

/// An idle pipeline entry (count 0, so applying it is a no-op).
const NO_ADD: PreparedAdd = PreparedAdd {
    packed: 0,
    sig_lo: 0,
    sig_hi: 0,
    count: 0,
    hash: 0,
};

/// Pipeline depth: far enough ahead that a prefetched slot line arrives
/// from L2/L3 before its probe runs, small enough to stay L1-resident.
const PIPELINE_DEPTH: usize = 16;

/// A fixed-depth software pipeline over table adds.
///
/// The probe of a hash add is two dependent cache misses (slot word, then
/// row record) that out-of-order execution cannot overlap across the
/// branchy probe loop. The pipeline makes the overlap explicit: each
/// [`push`](AddPipeline::push) hashes the new add and prefetches its slot
/// line, then applies the add that entered the 16-deep ring earlier —
/// by which point that line is resident. Adds drain in FIFO order, so the
/// table (rows, row order, counts) is exactly what the same sequence of
/// plain [`ColumnarTable::add`] calls would build.
#[derive(Debug)]
pub struct AddPipeline {
    /// Ring of pending adds.
    buf: [PreparedAdd; PIPELINE_DEPTH],
    /// Next write position.
    head: usize,
    /// Number of live entries (≤ [`PIPELINE_DEPTH`]).
    len: usize,
}

impl Default for AddPipeline {
    fn default() -> Self {
        AddPipeline {
            buf: [NO_ADD; PIPELINE_DEPTH],
            head: 0,
            len: 0,
        }
    }
}

impl AddPipeline {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues `(key, sig, count)` for `table`, applying the oldest pending
    /// add if the pipeline is full.
    #[inline]
    pub fn push(&mut self, table: &mut ColumnarTable, key: RowKey, sig: Signature, count: Count) {
        if count == 0 {
            return;
        }
        let p = ColumnarTable::prepare(key, sig, count);
        table.prefetch(&p);
        let old = std::mem::replace(&mut self.buf[self.head], p);
        self.head = (self.head + 1) % PIPELINE_DEPTH;
        // Second stage: the half-aged entry's slot line has arrived by now;
        // resolve its candidate row and prefetch that line too, so the
        // apply below never waits on either access. (Idle entries hold
        // `NO_ADD`, whose probe is harmless.)
        let mid = (self.head + PIPELINE_DEPTH / 2) % PIPELINE_DEPTH;
        table.prefetch_candidate_row(&self.buf[mid]);
        if self.len == PIPELINE_DEPTH {
            table.add_prepared(old);
        } else {
            self.len += 1;
        }
    }

    /// Applies every pending add in FIFO order, leaving the pipeline empty.
    /// Must run before the table is read — a pipeline is a window of adds
    /// the table has not seen yet.
    pub fn flush(&mut self, table: &mut ColumnarTable) {
        let mut i = (self.head + PIPELINE_DEPTH - self.len) % PIPELINE_DEPTH;
        for _ in 0..self.len {
            table.add_prepared(self.buf[i]);
            i = (i + 1) % PIPELINE_DEPTH;
        }
        self.len = 0;
    }
}

/// One permuted row payload of an [`EndpointGroups`] build: everything the
/// path merge needs about a grouped row, copied into group order so the
/// merge's span walks read dense, sequential records instead of chasing row
/// ids back into the source table.
#[derive(Clone, Copy, Debug, Default)]
pub struct GroupedRow {
    /// Low signature word.
    pub sig_lo: u64,
    /// High signature word.
    pub sig_hi: u64,
    /// Accumulated count.
    pub count: Count,
    /// The two extra key fields, packed (`f2 | f3 << 32`).
    extras: u64,
}

impl GroupedRow {
    /// The row's full signature.
    #[inline]
    pub fn sig(&self) -> Signature {
        Signature::from_words([self.sig_lo, self.sig_hi])
    }

    /// The row's two extra key fields.
    #[inline]
    pub fn extras(&self) -> [VertexId; 2] {
        [self.extras as u32, (self.extras >> 32) as u32]
    }
}

/// Rows of a [`ColumnarTable`] grouped by their `(f0, f1)` endpoint pair —
/// the access pattern of the cycle path-merge join. Built by counting sort
/// into one contiguous buffer (each group is a dense span, not a pointer
/// chain), so the merge's repeated group walks read sequential memory; all
/// scratch buffers are reusable across trials.
#[derive(Clone, Debug)]
pub struct EndpointGroups {
    /// Open-addressing index: slot → `epoch << 48 | fingerprint << 32 |
    /// group`, same tagging scheme as [`ColumnarTable::slots`].
    slots: Vec<u64>,
    /// Probe payloads parallel to `slots` (see [`SlotSpan`]).
    slot_spans: Vec<SlotSpan>,
    /// Slot claimed by each group in pass one (so pass three can write the
    /// span bounds into `slot_spans` without re-probing).
    group_slot: Vec<u32>,
    /// Current slot epoch.
    epoch: u16,
    /// Packed `(f1 << 32) | f0` key per group.
    group_keys: Vec<u64>,
    /// Scratch: group id of each row (pass one of the counting sort).
    group_of: Vec<u32>,
    /// Prefix offsets into `rows`: group `g` spans
    /// `rows[starts[g]..starts[g + 1]]`.
    starts: Vec<u32>,
    /// Row ids, contiguous per group.
    rows: Vec<u32>,
    /// Permuted row payloads, contiguous per group (parallel to `rows`).
    grouped: Vec<GroupedRow>,
    /// Low signature word per permuted row (parallel to `grouped`): the
    /// merge's signature filter scans this dense 8-byte lane and touches a
    /// full [`GroupedRow`] record only on the (rare) match.
    grouped_sigs: Vec<u64>,
    /// Scratch: per-group write cursors for the scatter pass.
    cursors: Vec<u32>,
}

impl Default for EndpointGroups {
    fn default() -> Self {
        EndpointGroups {
            slots: Vec::new(),
            slot_spans: Vec::new(),
            group_slot: Vec::new(),
            epoch: 1,
            group_keys: Vec::new(),
            group_of: Vec::new(),
            starts: Vec::new(),
            rows: Vec::new(),
            grouped: Vec::new(),
            grouped_sigs: Vec::new(),
            cursors: Vec::new(),
        }
    }
}

/// Per-slot probe payload of an [`EndpointGroups`] index: the group's
/// packed endpoint key and its span bounds, stored parallel to the slot
/// word. Everything a successful probe needs is indexed by the slot it
/// already computed, so a lookahead prefetch of the slot line can cover
/// the payload line too — no dependent walk through group-id arrays.
#[derive(Clone, Copy, Debug, Default)]
struct SlotSpan {
    /// Packed `(f1 << 32) | f0` endpoint key (claim-time).
    key: u64,
    /// Span start in the permuted row lanes (filled after the prefix sum).
    start: u32,
    /// Span end (exclusive).
    end: u32,
}

/// Hash of a packed endpoint pair (same mix family as `hash_row`).
#[inline]
fn hash_pair(packed: u64) -> u64 {
    fold((packed.rotate_left(5) ^ packed).wrapping_mul(SEED))
}

impl EndpointGroups {
    /// Creates an empty grouping.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the grouping over `table`'s rows, reusing all buffers.
    pub fn build(&mut self, table: &ColumnarTable) {
        // Span bounds and row ids are `u32`.
        assert!(
            table.len() as u64 <= u32::MAX as u64,
            "endpoint grouping is limited to 2^32 - 1 rows, got {}",
            table.len()
        );
        self.group_keys.clear();
        self.group_of.clear();
        self.group_of.resize(table.len(), EMPTY);
        // The slot table is sized to the number of *groups*, not rows —
        // groups are typically several times fewer, and the merge probes
        // this index once per outer row, so keeping it small keeps it
        // cache-resident. It grows on demand during pass one and retains
        // its size across rebuilds, so steady-state trials size it once.
        self.group_slot.clear();
        if self.slots.is_empty() {
            self.slots.resize(MIN_SLOTS, 0);
            self.slot_spans.resize(MIN_SLOTS, SlotSpan::default());
            self.epoch = 1;
        } else {
            self.epoch = self.epoch.wrapping_add(1);
            if self.epoch == 0 {
                self.slots.fill(0);
                self.epoch = 1;
            }
        }
        let mut mask = self.slots.len() - 1;
        // Pass one: assign a group id to every row, counting group sizes in
        // `starts` (shifted by one so the prefix sum lands in place).
        self.starts.clear();
        for r in 0..table.len() {
            if self.group_keys.len() * 2 >= self.slots.len() {
                self.grow_slots();
                mask = self.slots.len() - 1;
            }
            // The packed `(f1 << 32) | f0` pair is exactly the low half of
            // the packed key column.
            let packed = table.rows[r].key as u64;
            let hash = hash_pair(packed);
            let tag = slot_tag(self.epoch, hash);
            let mut slot = (hash as usize) & mask;
            let group = loop {
                let entry = self.slots[slot];
                if (entry >> 48) as u16 != self.epoch {
                    let g = self.group_keys.len() as u32;
                    self.slots[slot] = tag | g as u64;
                    self.slot_spans[slot].key = packed;
                    self.group_slot.push(slot as u32);
                    self.group_keys.push(packed);
                    self.starts.push(0);
                    break g;
                }
                if entry >> 32 == tag >> 32 {
                    let g = entry as u32;
                    if self.slot_spans[slot].key == packed {
                        break g;
                    }
                }
                slot = (slot + 1) & mask;
            };
            self.group_of[r] = group;
            self.starts[group as usize] += 1;
        }
        // Prefix sum: starts[g] becomes the span start of group g.
        let mut acc = 0u32;
        for s in &mut self.starts {
            let len = *s;
            *s = acc;
            acc += len;
        }
        self.starts.push(acc);
        // Pass two: scatter row ids into their group spans.
        self.cursors.clear();
        self.cursors
            .extend_from_slice(&self.starts[..self.starts.len() - 1]);
        self.rows.clear();
        self.rows.resize(table.len(), 0);
        self.grouped.clear();
        self.grouped.resize(table.len(), GroupedRow::default());
        self.grouped_sigs.clear();
        self.grouped_sigs.resize(table.len(), 0);
        for (r, &g) in self.group_of.iter().enumerate() {
            let c = &mut self.cursors[g as usize];
            let row = &table.rows[r];
            self.rows[*c as usize] = r as u32;
            self.grouped[*c as usize] = GroupedRow {
                sig_lo: row.sig_lo,
                sig_hi: table.hi(r),
                count: row.count,
                extras: (row.key >> 64) as u64,
            };
            self.grouped_sigs[*c as usize] = row.sig_lo;
            *c += 1;
        }
        // Pass three: copy each group's span bounds next to its slot, so a
        // probe resolves key, start and end from the one prefetched
        // payload line.
        for (g, &slot) in self.group_slot.iter().enumerate() {
            let span = &mut self.slot_spans[slot as usize];
            span.start = self.starts[g];
            span.end = self.starts[g + 1];
        }
    }

    /// Prefetches the slot cache line a [`spans_for`](Self::spans_for) /
    /// [`rows_for`](Self::rows_for) probe of `(start, end)` will read
    /// first. The merge's group probes are dependent random accesses with
    /// almost no work between them; issuing the prefetch a few outer rows
    /// ahead overlaps their miss latency.
    #[inline]
    pub fn prefetch_pair(&self, start: VertexId, end: VertexId) {
        #[cfg(target_arch = "x86_64")]
        if !self.slots.is_empty() {
            let packed = (start as u64) | ((end as u64) << 32);
            let slot = (hash_pair(packed) as usize) & (self.slots.len() - 1);
            // SAFETY: `slot` is masked into bounds; prefetch has no effect
            // beyond the cache.
            unsafe {
                std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                    self.slots.as_ptr().add(slot) as *const i8,
                );
                std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                    self.slot_spans.as_ptr().add(slot) as *const i8,
                );
            }
        }
    }

    /// Doubles the group slot table and re-indexes every group key.
    #[cold]
    fn grow_slots(&mut self) {
        let new_len = (self.slots.len() * 2).max(MIN_SLOTS);
        assert_ids_fit(new_len);
        self.slots.clear();
        self.slots.resize(new_len, 0);
        self.slot_spans.clear();
        self.slot_spans.resize(new_len, SlotSpan::default());
        self.epoch = 1;
        let mask = new_len - 1;
        for (g, &packed) in self.group_keys.iter().enumerate() {
            let hash = hash_pair(packed);
            let tag = slot_tag(self.epoch, hash);
            let mut slot = (hash as usize) & mask;
            while (self.slots[slot] >> 48) as u16 == self.epoch {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = tag | g as u64;
            self.slot_spans[slot].key = packed;
            self.group_slot[g] = slot as u32;
        }
    }

    /// Probes for the group of `(start, end)`: its span in the permuted row
    /// lanes, empty if the pair never occurs.
    #[inline]
    fn span_of(&self, start: VertexId, end: VertexId) -> Range<usize> {
        if self.slots.is_empty() {
            return 0..0;
        }
        let packed = (start as u64) | ((end as u64) << 32);
        let hash = hash_pair(packed);
        let tag = slot_tag(self.epoch, hash);
        let mask = self.slots.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            let entry = self.slots[slot];
            if (entry >> 48) as u16 != self.epoch {
                return 0..0;
            }
            if entry >> 32 == tag >> 32 {
                let p = &self.slot_spans[slot];
                if p.key == packed {
                    return p.start as usize..p.end as usize;
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The span of rows whose `(f0, f1)` equals `(start, end)`, as the pair
    /// of parallel lanes the merge scans: the dense low-signature words and
    /// the full permuted payloads (both empty if the pair never occurs).
    #[inline]
    pub fn spans_for(&self, start: VertexId, end: VertexId) -> (&[u64], &[GroupedRow]) {
        let span = self.span_of(start, end);
        (&self.grouped_sigs[span.clone()], &self.grouped[span])
    }

    /// The row ids whose `(f0, f1)` equals `(start, end)`, as one dense
    /// span (empty if the pair never occurs).
    pub fn rows_for(&self, start: VertexId, end: VertexId) -> &[u32] {
        &self.rows[self.span_of(start, end)]
    }

    /// Total allocated bytes across all scratch buffers.
    pub fn capacity_bytes(&self) -> usize {
        (self.group_of.capacity()
            + self.starts.capacity()
            + self.rows.capacity()
            + self.group_slot.capacity()
            + self.cursors.capacity())
            * std::mem::size_of::<u32>()
            + self.slot_spans.capacity() * std::mem::size_of::<SlotSpan>()
            + (self.slots.capacity() + self.group_keys.capacity() + self.grouped_sigs.capacity())
                * std::mem::size_of::<u64>()
            + self.grouped.capacity() * std::mem::size_of::<GroupedRow>()
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

    /// Mean distance of a group's slot from the home slot of its key's hash.
    fn mean_group_probe_distance(g: &EndpointGroups) -> f64 {
        let mask = g.slots.len() - 1;
        let total: usize = (g.group_keys.iter().zip(&g.group_slot))
            .map(|(&key, &slot)| (slot as usize).wrapping_sub(hash_pair(key) as usize) & mask)
            .sum();
        total as f64 / g.group_keys.len() as f64
    }

    /// The DP's own key shape — one hub start vertex, thousands of ends, a
    /// few signatures each — must spread over the slot table: uniform
    /// hashing at these load factors (1/2 for rows, 1/4..1/2 for groups)
    /// displaces a key by about half a slot on average. A multiplicative
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
            let mut groups = EndpointGroups::new();
            groups.build(&t);
            assert_eq!(groups.group_keys.len(), 4096);
            let pairs = mean_group_probe_distance(&groups);
            assert!(pairs < 2.0, "extras {extras}: mean group probe {pairs}");
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

    #[test]
    fn endpoint_groups_find_all_rows() {
        let mut t = ColumnarTable::new();
        t.add(path_key(1, 2), Signature::singleton(0), 1);
        t.add(path_key(1, 2), Signature::singleton(1), 2);
        t.add(path_key(1, 3), Signature::singleton(2), 3);
        t.add([1, 2, 9, NO_VERTEX], Signature::singleton(3), 4);
        let mut groups = EndpointGroups::new();
        groups.build(&t);
        let counts: u64 = groups
            .rows_for(1, 2)
            .iter()
            .map(|&r| t.row(r as usize).2)
            .sum();
        assert_eq!(counts, 7);
        assert_eq!(groups.rows_for(1, 3).len(), 1);
        assert_eq!(groups.rows_for(2, 1).len(), 0);
    }

    #[test]
    fn endpoint_group_spans_are_contiguous_and_ordered() {
        // Counting sort must keep each group's rows in insertion order and
        // cover every row exactly once.
        let mut t = ColumnarTable::new();
        for i in 0..100u32 {
            t.add(
                path_key(i % 3, i % 2),
                Signature::singleton((i % 100) as u8),
                1,
            );
        }
        let mut groups = EndpointGroups::new();
        groups.build(&t);
        let mut seen = vec![false; t.len()];
        for a in 0..3u32 {
            for b in 0..2u32 {
                let span = groups.rows_for(a, b);
                assert!(span.windows(2).all(|w| w[0] < w[1]), "insertion order");
                for &r in span {
                    assert!(!seen[r as usize], "row listed twice");
                    seen[r as usize] = true;
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
                path_key(i % 31, i % 37),
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
                groups
                    .rows_for(a, b)
                    .iter()
                    .map(|&r| t.row(r as usize).2)
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(total, t.total());
    }
}
