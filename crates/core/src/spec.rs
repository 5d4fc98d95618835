//! Relative atomicity specifications.
//!
//! §2 of the paper: "an atomic unit of `T_i` relative to `T_j` is a sequence
//! of operations of `T_i` such that no operations of `T_j` are allowed to be
//! executed within this sequence. `Atomicity(T_i, T_j)` denotes the ordered
//! sequence of atomic units of `T_i` relative to `T_j`."
//!
//! Following Farrag–Özsu's equivalent *breakpoint* formulation (which the
//! paper cites in §2), the partition of `T_i` relative to `T_j` is stored as
//! a strictly-increasing set of breakpoints `b ∈ {1, …, len(T_i)-1}`, each
//! meaning "a unit boundary before the operation at 0-based program index
//! `b`". No breakpoints ⇒ absolute atomicity (one unit); all breakpoints ⇒
//! free interleaving (every operation its own unit).
//!
//! [`AtomicitySpec::push_forward`] and [`AtomicitySpec::pull_backward`] are
//! the paper's §3 `PushForward(o, T_k)` / `PullBackward(o, T_k)`: the last /
//! first operation of the atomic unit containing `o` relative to `T_k`.
//!
//! # Storage
//!
//! A spec over `n` transactions has `n²` slots, but real specs repeat a few
//! breakpoint lists many times (every pair of an absolute spec holds the
//! empty list). So each distinct list is *interned* once in a CSR pool, and
//! each ordered pair holds only a `u32` list id; id 0 is the empty list.
//! The lengths, the ids and the pool sit behind one copy-on-write [`Arc`]:
//!
//! * memory is about `4·n²` bytes plus the distinct lists;
//! * [`Clone`] is a reference-count bump, so every scheduler, shard core
//!   and recovery pass that keeps its own copy shares one table;
//! * a setter on a shared spec copies the table once (copy-on-write), then
//!   interns without allocating per pair;
//! * [`AtomicitySpec::breakpoints`] is two indexed loads behind the `Arc`
//!   (the pair's id, then the list's span in the pool).
//!
//! A list a setter overwrites stays in the pool, so the pool holds every
//! distinct list the spec ever held; specs are built once and then read.

use crate::error::{Error, Result};
use crate::ids::{OpId, TxnId};
use crate::txn::TxnSet;
use std::fmt;
use std::ops::RangeInclusive;
use std::sync::Arc;

/// The relative atomicity specification for a whole transaction set: one
/// breakpoint set per *ordered* pair of distinct transactions.
///
/// Equality compares the breakpoint lists pair by pair, so two specs built
/// in different orders are equal whenever they say the same thing.
#[derive(Clone)]
pub struct AtomicitySpec {
    inner: Arc<Table>,
}

/// The shared storage behind an [`AtomicitySpec`].
#[derive(Clone)]
struct Table {
    /// Lengths of the transactions, indexed by `TxnId`.
    lens: Vec<u32>,
    /// `ids[i * n + j]` = pool id of the breakpoints of
    /// `Atomicity(T_i, T_j)`. Diagonal entries are 0 and unused.
    ids: Vec<u32>,
    pool: Pool,
}

/// Interned breakpoint lists in CSR form: list `k` is
/// `data[starts[k]..starts[k + 1]]`. Id 0 is the empty list and is never
/// entered in the hash index, so an all-zero id table is the absolute spec.
#[derive(Clone)]
struct Pool {
    starts: Vec<u32>,
    data: Vec<u32>,
    /// Open-addressing hash index over the ids `1..`, linear probing,
    /// `NO_ID` for a free bucket. Its length is 0 or a power of two kept
    /// at least twice the number of ids it holds.
    index: Vec<u32>,
}

const EMPTY: u32 = 0;
const NO_ID: u32 = u32::MAX;

impl Pool {
    fn new() -> Self {
        Pool {
            starts: vec![0, 0],
            data: Vec::new(),
            index: Vec::new(),
        }
    }

    fn list(&self, id: u32) -> &[u32] {
        let id = id as usize;
        &self.data[self.starts[id] as usize..self.starts[id + 1] as usize]
    }

    /// Cheap multiplicative hash in the style of FxHash. SipHash would
    /// dominate the cost of building a spec; the keys are short validated
    /// breakpoint lists, and a crafted collision costs probe steps, never
    /// a wrong id.
    fn hash(list: &[u32]) -> u64 {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mut h = (list.len() as u64).wrapping_mul(K);
        for &b in list {
            h = (h.rotate_left(5) ^ u64::from(b)).wrapping_mul(K);
        }
        h ^ (h >> 29)
    }

    /// The id of `list`, adding it to the pool if it is new.
    fn intern(&mut self, list: &[u32]) -> u32 {
        if list.is_empty() {
            return EMPTY;
        }
        let count = self.starts.len() - 1;
        if 2 * count >= self.index.len() {
            self.grow_index();
        }
        let mask = self.index.len() - 1;
        let mut bucket = Self::hash(list) as usize & mask;
        loop {
            match self.index[bucket] {
                NO_ID => break,
                id if self.list(id) == list => return id,
                _ => bucket = (bucket + 1) & mask,
            }
        }
        assert!(
            count < NO_ID as usize,
            "fewer than 2^32 - 1 distinct breakpoint lists"
        );
        let id = count as u32;
        self.data.extend_from_slice(list);
        let end = u32::try_from(self.data.len()).expect("breakpoint pool under 2^32 entries");
        self.starts.push(end);
        self.index[bucket] = id;
        id
    }

    fn grow_index(&mut self) {
        let len = (2 * self.index.len()).max(16);
        self.index.clear();
        self.index.resize(len, NO_ID);
        let mask = len - 1;
        for id in 1..(self.starts.len() - 1) as u32 {
            let mut bucket = Self::hash(self.list(id)) as usize & mask;
            while self.index[bucket] != NO_ID {
                bucket = (bucket + 1) & mask;
            }
            self.index[bucket] = id;
        }
    }
}

impl Table {
    fn slot(&self, i: TxnId, j: TxnId) -> usize {
        debug_assert_ne!(i, j, "Atomicity(T_i, T_i) is undefined");
        i.index() * self.lens.len() + j.index()
    }

    fn list(&self, slot: usize) -> &[u32] {
        self.pool.list(self.ids[slot])
    }
}

impl AtomicitySpec {
    /// Absolute atomicity: every transaction is a single atomic unit with
    /// respect to every other transaction. Under this spec the paper's
    /// classes collapse onto the traditional ones (Lemma 1).
    pub fn absolute(txns: &TxnSet) -> Self {
        let n = txns.len();
        AtomicitySpec {
            inner: Arc::new(Table {
                lens: txns.txns().iter().map(|t| t.len() as u32).collect(),
                ids: vec![EMPTY; n * n],
                pool: Pool::new(),
            }),
        }
    }

    /// Free interleaving: every operation is its own atomic unit with
    /// respect to every other transaction (Garcia-Molina's "arbitrarily
    /// interleaved" compatibility within a set).
    pub fn free(txns: &TxnSet) -> Self {
        let mut spec = Self::absolute(txns);
        let mut all = Vec::new();
        for i in txns.txn_ids() {
            all.clear();
            all.extend(1..spec.txn_len(i));
            for j in txns.txn_ids().filter(|&j| j != i) {
                spec.set_breakpoints(i, j, &all)
                    .expect("1..len(T_i) is a valid breakpoint set");
            }
        }
        spec
    }

    /// Number of transactions covered.
    pub fn txn_count(&self) -> usize {
        self.inner.lens.len()
    }

    /// Length of transaction `t` as recorded by the spec.
    pub fn txn_len(&self, t: TxnId) -> u32 {
        self.inner.lens[t.index()]
    }

    /// Sets the breakpoints of `Atomicity(T_i, T_j)`.
    ///
    /// `breakpoints` must be strictly increasing with every value in
    /// `1..len(T_i)`.
    pub fn set_breakpoints(&mut self, i: TxnId, j: TxnId, breakpoints: &[u32]) -> Result<()> {
        let n = self.txn_count();
        if i.index() >= n {
            return Err(Error::UnknownTxn(i));
        }
        if j.index() >= n {
            return Err(Error::UnknownTxn(j));
        }
        if i == j {
            return Err(Error::BadSpec(format!(
                "Atomicity({i}, {i}) is undefined: a transaction has no atomicity relative to itself"
            )));
        }
        let len = self.txn_len(i);
        for w in breakpoints.windows(2) {
            if w[0] >= w[1] {
                return Err(Error::BadSpec(format!(
                    "breakpoints must be strictly increasing, got {breakpoints:?}"
                )));
            }
        }
        if let (Some(&first), Some(&last)) = (breakpoints.first(), breakpoints.last()) {
            if first == 0 || last >= len {
                return Err(Error::BadSpec(format!(
                    "breakpoints of Atomicity({i}, {j}) must lie in 1..{len}, got {breakpoints:?}"
                )));
            }
        }
        let table = Arc::make_mut(&mut self.inner);
        let slot = table.slot(i, j);
        table.ids[slot] = table.pool.intern(breakpoints);
        Ok(())
    }

    /// Sets `Atomicity(T_i, T_j)` from unit sizes, e.g. `[2, 2]` for a
    /// 4-operation transaction split into two 2-operation units.
    pub fn set_unit_sizes(&mut self, i: TxnId, j: TxnId, sizes: &[u32]) -> Result<()> {
        if i.index() >= self.txn_count() {
            return Err(Error::UnknownTxn(i));
        }
        if sizes.contains(&0) {
            return Err(Error::Empty("atomic unit".into()));
        }
        let total: u32 = sizes.iter().sum();
        if total != self.txn_len(i) {
            return Err(Error::BadSpec(format!(
                "unit sizes {sizes:?} sum to {total}, but {i} has {} operations",
                self.txn_len(i)
            )));
        }
        let mut breakpoints = Vec::with_capacity(sizes.len().saturating_sub(1));
        let mut acc = 0;
        for &s in &sizes[..sizes.len() - 1] {
            acc += s;
            breakpoints.push(acc);
        }
        self.set_breakpoints(i, j, &breakpoints)
    }

    /// Sets `Atomicity(T_i, T_j)` from the paper's visual notation, with `|`
    /// separating units:
    ///
    /// ```
    /// # use relser_core::prelude::*;
    /// let txns = TxnSet::parse(&["r1[x] w1[x] w1[z] r1[y]", "r2[y] w2[y] r2[x]"]).unwrap();
    /// let mut spec = AtomicitySpec::absolute(&txns);
    /// spec.set_units_str(&txns, 0, 1, "r1[x] w1[x] | w1[z] r1[y]").unwrap();
    /// assert_eq!(spec.breakpoints(TxnId(0), TxnId(1)), &[2]);
    /// ```
    ///
    /// Every operation of `T_i` must appear, in program order, with the
    /// correct mode and object; `i`/`j` are 0-based indexes here.
    pub fn set_units_str(&mut self, txns: &TxnSet, i: usize, j: usize, s: &str) -> Result<()> {
        let ti = TxnId(i as u32);
        let tj = TxnId(j as u32);
        let txn = txns.get(ti).ok_or(Error::UnknownTxn(ti))?;
        let mut breakpoints = Vec::new();
        let mut cursor: u32 = 0;
        for (unit_idx, unit_src) in s.split('|').enumerate() {
            let unit_src = unit_src.trim();
            if unit_src.is_empty() {
                return Err(Error::BadSpec(format!(
                    "unit {unit_idx} of Atomicity({ti}, {tj}) is empty"
                )));
            }
            if unit_idx > 0 {
                breakpoints.push(cursor);
            }
            for tok in unit_src.split_whitespace() {
                let expected = txn.ops().get(cursor as usize).ok_or_else(|| {
                    Error::BadSpec(format!(
                        "Atomicity({ti}, {tj}) lists more operations than {ti} has (at `{tok}`)"
                    ))
                })?;
                let want = format!(
                    "{}{}[{}]",
                    expected.mode.letter(),
                    ti.0 + 1,
                    txns.objects().name(expected.object)
                );
                if tok != want {
                    return Err(Error::BadSpec(format!(
                        "Atomicity({ti}, {tj}): expected `{want}` at position {cursor}, found `{tok}`"
                    )));
                }
                cursor += 1;
            }
        }
        if cursor != txn.len() as u32 {
            return Err(Error::BadSpec(format!(
                "Atomicity({ti}, {tj}) covers {cursor} of {} operations",
                txn.len()
            )));
        }
        self.set_breakpoints(ti, tj, &breakpoints)
    }

    /// The breakpoints of `Atomicity(T_i, T_j)`.
    pub fn breakpoints(&self, i: TxnId, j: TxnId) -> &[u32] {
        let table = &*self.inner;
        table.list(table.slot(i, j))
    }

    /// Number of atomic units of `T_i` relative to `T_j`.
    pub fn unit_count(&self, i: TxnId, j: TxnId) -> usize {
        self.breakpoints(i, j).len() + 1
    }

    /// The index (0-based) of the atomic unit of `T_i` relative to
    /// `observer` that contains operation index `op_index`.
    pub fn unit_of_index(&self, i: TxnId, observer: TxnId, op_index: u32) -> usize {
        let b = self.breakpoints(i, observer);
        // Number of breakpoints <= op_index.
        b.partition_point(|&bp| bp <= op_index)
    }

    /// The unit containing operation `op`, relative to `observer`
    /// (`observer` must differ from `op.txn`).
    pub fn unit_of(&self, op: OpId, observer: TxnId) -> usize {
        self.unit_of_index(op.txn, observer, op.index)
    }

    /// Inclusive range of operation indices spanned by `unit` of
    /// `Atomicity(T_i, observer)`.
    pub fn unit_bounds(&self, i: TxnId, observer: TxnId, unit: usize) -> RangeInclusive<u32> {
        let b = self.breakpoints(i, observer);
        let first = if unit == 0 { 0 } else { b[unit - 1] };
        let last = if unit == b.len() {
            self.txn_len(i) - 1
        } else {
            b[unit] - 1
        };
        first..=last
    }

    /// `PushForward(o, T_k)` (§3): the *last* operation of the atomic unit
    /// of `o`'s transaction containing `o`, relative to `observer`.
    pub fn push_forward(&self, op: OpId, observer: TxnId) -> OpId {
        let unit = self.unit_of(op, observer);
        let last = *self.unit_bounds(op.txn, observer, unit).end();
        OpId::new(op.txn, last)
    }

    /// `PullBackward(o, T_k)` (§3): the *first* operation of the atomic
    /// unit of `o`'s transaction containing `o`, relative to `observer`.
    pub fn pull_backward(&self, op: OpId, observer: TxnId) -> OpId {
        let unit = self.unit_of(op, observer);
        let first = *self.unit_bounds(op.txn, observer, unit).start();
        OpId::new(op.txn, first)
    }

    /// `true` if every pair uses a single atomic unit — the traditional
    /// absolute-atomicity model.
    pub fn is_absolute(&self) -> bool {
        self.inner.ids.iter().all(|&id| id == EMPTY)
    }

    /// Renders `Atomicity(T_i, T_j)` in the paper's boxed-units style using
    /// `|` separators, e.g. `r1[x] w1[x] | w1[z] r1[y]`.
    pub fn display_pair(&self, txns: &TxnSet, i: TxnId, j: TxnId) -> String {
        let txn = txns.txn(i);
        let b = self.breakpoints(i, j);
        let mut parts = Vec::new();
        let mut next_break = b.iter().peekable();
        for (idx, _) in txn.ops().iter().enumerate() {
            if next_break.peek() == Some(&&(idx as u32)) {
                parts.push("|".to_string());
                next_break.next();
            }
            parts.push(txns.display_op(OpId::new(i, idx as u32)));
        }
        parts.join(" ")
    }

    /// The spec of the sub-universe that keeps transactions `keep` (new id
    /// `k` is original `keep[k]`), each truncated to `lens[k]` operations.
    /// Breakpoints at or past a truncated length are dropped.
    ///
    /// The pool is shared by value and pair ids are copied, so only a list
    /// that truncation actually shortens is interned anew.
    pub(crate) fn restrict(&self, keep: &[TxnId], lens: &[u32]) -> AtomicitySpec {
        let src = &*self.inner;
        let n = src.lens.len();
        let k = keep.len();
        let mut pool = src.pool.clone();
        let mut ids = vec![EMPTY; k * k];
        for (new_i, (&old_i, &len)) in keep.iter().zip(lens).enumerate() {
            let truncated = len < src.lens[old_i.index()];
            let row = &src.ids[old_i.index() * n..][..n];
            for (new_j, &old_j) in keep.iter().enumerate() {
                if new_i == new_j {
                    continue;
                }
                let mut id = row[old_j.index()];
                if truncated {
                    let list = src.pool.list(id);
                    let kept = list.partition_point(|&b| b < len);
                    if kept < list.len() {
                        id = pool.intern(&list[..kept]);
                    }
                }
                ids[new_i * k + new_j] = id;
            }
        }
        AtomicitySpec {
            inner: Arc::new(Table {
                lens: lens.to_vec(),
                ids,
                pool,
            }),
        }
    }
}

impl PartialEq for AtomicitySpec {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&*self.inner, &*other.inner);
        Arc::ptr_eq(&self.inner, &other.inner)
            || (a.lens == b.lens && (0..a.ids.len()).all(|slot| a.list(slot) == b.list(slot)))
    }
}

impl Eq for AtomicitySpec {}

impl fmt::Debug for AtomicitySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Lists<'a>(&'a Table);
        impl fmt::Debug for Lists<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list()
                    .entries((0..self.0.ids.len()).map(|slot| self.0.list(slot)))
                    .finish()
            }
        }
        f.debug_struct("AtomicitySpec")
            .field("lens", &self.inner.lens)
            .field("breaks", &Lists(&self.inner))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1() -> TxnSet {
        TxnSet::parse(&[
            "r1[x] w1[x] w1[z] r1[y]",
            "r2[y] w2[y] r2[x]",
            "w3[x] w3[y] w3[z]",
        ])
        .unwrap()
    }

    const T1: TxnId = TxnId(0);
    const T2: TxnId = TxnId(1);
    const T3: TxnId = TxnId(2);

    /// The full Figure 1 specification.
    fn fig1_spec(txns: &TxnSet) -> AtomicitySpec {
        let mut spec = AtomicitySpec::absolute(txns);
        spec.set_units_str(txns, 0, 1, "r1[x] w1[x] | w1[z] r1[y]")
            .unwrap();
        spec.set_units_str(txns, 0, 2, "r1[x] w1[x] | w1[z] | r1[y]")
            .unwrap();
        spec.set_units_str(txns, 1, 0, "r2[y] | w2[y] r2[x]")
            .unwrap();
        spec.set_units_str(txns, 1, 2, "r2[y] w2[y] | r2[x]")
            .unwrap();
        spec.set_units_str(txns, 2, 0, "w3[x] w3[y] | w3[z]")
            .unwrap();
        spec.set_units_str(txns, 2, 1, "w3[x] w3[y] | w3[z]")
            .unwrap();
        spec
    }

    #[test]
    fn absolute_spec_has_single_units() {
        let t = fig1();
        let spec = AtomicitySpec::absolute(&t);
        assert!(spec.is_absolute());
        assert_eq!(spec.unit_count(T1, T2), 1);
        assert_eq!(spec.unit_bounds(T1, T2, 0), 0..=3);
    }

    #[test]
    fn free_spec_has_singleton_units() {
        let t = fig1();
        let spec = AtomicitySpec::free(&t);
        assert!(!spec.is_absolute());
        assert_eq!(spec.unit_count(T1, T2), 4);
        for u in 0..4u32 {
            assert_eq!(spec.unit_bounds(T1, T2, u as usize), u..=u);
        }
    }

    #[test]
    fn figure1_units_parse_to_expected_breakpoints() {
        let t = fig1();
        let spec = fig1_spec(&t);
        assert_eq!(spec.breakpoints(T1, T2), &[2]);
        assert_eq!(spec.breakpoints(T1, T3), &[2, 3]);
        assert_eq!(spec.breakpoints(T2, T1), &[1]);
        assert_eq!(spec.breakpoints(T2, T3), &[2]);
        assert_eq!(spec.breakpoints(T3, T1), &[2]);
        assert_eq!(spec.breakpoints(T3, T2), &[2]);
    }

    #[test]
    fn push_forward_and_pull_backward_match_paper_examples() {
        // §3: "PushForward(r1[x], T2) is w1[x] and PullBackward(r1[y], T2)
        // is w1[z]."
        let t = fig1();
        let spec = fig1_spec(&t);
        let r1x = OpId::new(T1, 0);
        let r1y = OpId::new(T1, 3);
        assert_eq!(spec.push_forward(r1x, T2), OpId::new(T1, 1)); // w1[x]
        assert_eq!(spec.pull_backward(r1y, T2), OpId::new(T1, 2)); // w1[z]
    }

    #[test]
    fn unit_of_counts_breakpoints() {
        let t = fig1();
        let spec = fig1_spec(&t);
        // Atomicity(T1, T3) = [r1x w1x][w1z][r1y]
        assert_eq!(spec.unit_of(OpId::new(T1, 0), T3), 0);
        assert_eq!(spec.unit_of(OpId::new(T1, 1), T3), 0);
        assert_eq!(spec.unit_of(OpId::new(T1, 2), T3), 1);
        assert_eq!(spec.unit_of(OpId::new(T1, 3), T3), 2);
    }

    #[test]
    fn unit_bounds_cover_the_transaction() {
        let t = fig1();
        let spec = fig1_spec(&t);
        let mut covered = Vec::new();
        for u in 0..spec.unit_count(T1, T3) {
            covered.extend(spec.unit_bounds(T1, T3, u));
        }
        assert_eq!(covered, vec![0, 1, 2, 3]);
    }

    #[test]
    fn set_unit_sizes_equivalent_to_breakpoints() {
        let t = fig1();
        let mut a = AtomicitySpec::absolute(&t);
        a.set_unit_sizes(T1, T2, &[2, 2]).unwrap();
        assert_eq!(a.breakpoints(T1, T2), &[2]);
        // Wrong total rejected.
        assert!(a.set_unit_sizes(T1, T2, &[2, 3]).is_err());
        // Zero-size unit rejected.
        assert!(a.set_unit_sizes(T1, T2, &[0, 4]).is_err());
    }

    #[test]
    fn bad_breakpoints_rejected() {
        let t = fig1();
        let mut spec = AtomicitySpec::absolute(&t);
        assert!(spec.set_breakpoints(T1, T2, &[0]).is_err()); // 0 invalid
        assert!(spec.set_breakpoints(T1, T2, &[4]).is_err()); // == len invalid
        assert!(spec.set_breakpoints(T1, T2, &[2, 2]).is_err()); // not strict
        assert!(spec.set_breakpoints(T1, T2, &[3, 2]).is_err()); // decreasing
        assert!(spec.set_breakpoints(T1, T1, &[1]).is_err()); // diagonal
        assert!(spec.set_breakpoints(TxnId(9), T1, &[1]).is_err()); // unknown
        assert!(spec.set_breakpoints(T1, T2, &[1, 2, 3]).is_ok());
    }

    #[test]
    fn set_units_str_validates_coverage_and_tokens() {
        let t = fig1();
        let mut spec = AtomicitySpec::absolute(&t);
        // Missing an operation.
        assert!(spec.set_units_str(&t, 0, 1, "r1[x] w1[x] | w1[z]").is_err());
        // Wrong token.
        assert!(spec
            .set_units_str(&t, 0, 1, "w1[x] r1[x] | w1[z] r1[y]")
            .is_err());
        // Empty unit.
        assert!(spec
            .set_units_str(&t, 0, 1, "r1[x] w1[x] | | w1[z] r1[y]")
            .is_err());
        // Too many operations.
        assert!(spec
            .set_units_str(&t, 0, 1, "r1[x] w1[x] w1[z] r1[y] r1[y]")
            .is_err());
    }

    #[test]
    fn display_pair_roundtrips() {
        let t = fig1();
        let spec = fig1_spec(&t);
        assert_eq!(spec.display_pair(&t, T1, T2), "r1[x] w1[x] | w1[z] r1[y]");
        assert_eq!(spec.display_pair(&t, T1, T3), "r1[x] w1[x] | w1[z] | r1[y]");
        let absolute = AtomicitySpec::absolute(&t);
        assert_eq!(absolute.display_pair(&t, T3, T1), "w3[x] w3[y] w3[z]");
    }
}
