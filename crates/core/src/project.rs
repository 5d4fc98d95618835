//! Universe projection: restrict a `(TxnSet, AtomicitySpec)` pair to a
//! transaction subset (optionally with truncated program suffixes) and
//! map operation ids across the restriction.
//!
//! Three consumers need this:
//!
//! * the model checker's oracle suite (`relser-check`), to validate the
//!   *committed* transactions of a partial execution (crashed or
//!   given-up runs) as a complete schedule over the committed
//!   sub-universe;
//! * the counterexample shrinker, which minimizes a failing universe by
//!   deleting whole transactions and truncating program suffixes;
//! * the server's crash-recovery manager (`relser-server`), to
//!   re-certify the committed prefix recovered from the write-ahead log
//!   against the Theorem 1 RSG oracle.

use crate::error::Result;
use crate::ids::{OpId, TxnId};
use crate::schedule::Schedule;
use crate::spec::AtomicitySpec;
use crate::txn::TxnSet;

/// A sub-universe of an original `(TxnSet, AtomicitySpec)` pair, with the
/// id mapping needed to carry operations across.
pub struct Projection {
    /// The projected transaction set (dense new ids).
    pub txns: TxnSet,
    /// The projected atomicity specification: original breakpoints
    /// restricted to surviving pairs and clamped to truncated lengths.
    pub spec: AtomicitySpec,
    /// `kept[new]` = original id of projected transaction `new`.
    kept: Vec<TxnId>,
    /// `new_of[orig]` = projected index of original transaction `orig`,
    /// or `DROPPED`; the inverse of `kept`, for O(1) `from_original`.
    new_of: Vec<u32>,
}

const DROPPED: u32 = u32::MAX;

impl Projection {
    /// Projects onto `keep` (original ids, any order — the order becomes
    /// the new id order), truncating transaction `keep[k]` to its first
    /// `lens[k]` operations. Every length must be ≥ 1 and ≤ the original.
    pub fn new(
        txns: &TxnSet,
        spec: &AtomicitySpec,
        keep: &[TxnId],
        lens: &[u32],
    ) -> Result<Projection> {
        assert_eq!(keep.len(), lens.len());
        let mut sub = TxnSet::new();
        for (&t, &len) in keep.iter().zip(lens) {
            let txn = txns.txn(t);
            assert!(len >= 1 && len <= txn.len() as u32, "bad truncation");
            let pairs: Vec<_> = txn.ops()[..len as usize]
                .iter()
                .map(|op| (op.mode, txns.objects().name(op.object)))
                .collect();
            sub.add(&pairs)?;
        }
        let mut new_of = vec![DROPPED; txns.len()];
        // Reversed, so a transaction kept twice maps to its first position.
        for (new, &t) in keep.iter().enumerate().rev() {
            new_of[t.index()] = new as u32;
        }
        Ok(Projection {
            txns: sub,
            spec: spec.restrict(keep, lens),
            kept: keep.to_vec(),
            new_of,
        })
    }

    /// Projects onto `keep` with full (untruncated) program lengths.
    pub fn subset(txns: &TxnSet, spec: &AtomicitySpec, keep: &[TxnId]) -> Result<Projection> {
        let lens: Vec<u32> = keep.iter().map(|&t| txns.txn(t).len() as u32).collect();
        Projection::new(txns, spec, keep, &lens)
    }

    /// Original ids of the projected transactions, in new-id order.
    pub fn kept(&self) -> &[TxnId] {
        &self.kept
    }

    /// Maps an original-universe operation into the projection. `None`
    /// if its transaction was dropped or the operation truncated away.
    pub fn from_original(&self, op: OpId) -> Option<OpId> {
        let new = *self.new_of.get(op.txn.index())?;
        if new == DROPPED {
            return None;
        }
        let new_txn = TxnId(new);
        (op.index < self.txns.txn(new_txn).len() as u32).then(|| OpId::new(new_txn, op.index))
    }

    /// Maps a projected operation back to the original universe.
    pub fn to_original(&self, op: OpId) -> OpId {
        OpId::new(self.kept[op.txn.index()], op.index)
    }

    /// Interprets `log` (original-universe ops, e.g. a committed history)
    /// as a complete schedule over the projection. Errors if the mapped
    /// ops are not a valid permutation in program order — which for a
    /// committed history would itself be a service bug worth reporting.
    pub fn schedule(&self, log: &[OpId]) -> Result<Schedule> {
        let order: Vec<OpId> = log
            .iter()
            .filter_map(|&op| self.from_original(op))
            .collect();
        Schedule::new(&self.txns, order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::Figure1;

    #[test]
    fn subset_keeps_spec_rows() {
        let fig = Figure1::new();
        // Keep T1 and T3 (drop T2).
        let p = Projection::subset(&fig.txns, &fig.spec, &[TxnId(0), TxnId(2)]).unwrap();
        assert_eq!(p.txns.len(), 2);
        assert_eq!(p.txns.total_ops(), 7);
        // Atomicity(T1, T3) had breakpoints {2, 3}; T3 is new id 1.
        assert_eq!(p.spec.breakpoints(TxnId(0), TxnId(1)), &[2, 3]);
        // Atomicity(T3, T1) had breakpoint {2}.
        assert_eq!(p.spec.breakpoints(TxnId(1), TxnId(0)), &[2]);
    }

    #[test]
    fn truncation_clamps_breakpoints() {
        let fig = Figure1::new();
        // T1 truncated to its first 2 ops: breakpoints {2,3} wrt T3 are
        // out of range (must be < len) and get dropped.
        let p = Projection::new(&fig.txns, &fig.spec, &[TxnId(0), TxnId(2)], &[2, 3]).unwrap();
        assert_eq!(p.txns.txn(TxnId(0)).len(), 2);
        assert_eq!(p.spec.breakpoints(TxnId(0), TxnId(1)), &[] as &[u32]);
    }

    /// The per-pair formulation `Projection::new` replaced: an absolute
    /// spec over the sub-universe with every pair's filtered list set.
    fn naive_projected_spec(
        sub: &TxnSet,
        spec: &AtomicitySpec,
        keep: &[TxnId],
        lens: &[u32],
    ) -> AtomicitySpec {
        let mut out = AtomicitySpec::absolute(sub);
        for (new_i, &old_i) in keep.iter().enumerate() {
            for (new_j, &old_j) in keep.iter().enumerate() {
                if new_i != new_j {
                    let bps: Vec<u32> = spec
                        .breakpoints(old_i, old_j)
                        .iter()
                        .copied()
                        .filter(|&b| b < lens[new_i])
                        .collect();
                    out.set_breakpoints(TxnId(new_i as u32), TxnId(new_j as u32), &bps)
                        .unwrap();
                }
            }
        }
        out
    }

    #[test]
    fn projected_spec_matches_the_per_pair_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(2..9usize);
            let srcs: Vec<String> = (1..=n)
                .map(|t| {
                    let len = rng.random_range(1..6usize);
                    (0..len)
                        .map(|k| format!("{}{t}[o{}]", ['r', 'w'][k % 2], k % 3))
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect();
            let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
            let txns = TxnSet::parse(&refs).unwrap();
            let mut spec = AtomicitySpec::absolute(&txns);
            for i in txns.txn_ids() {
                for j in txns.txn_ids().filter(|&j| j != i) {
                    let bps: Vec<u32> = (1..txns.txn(i).len() as u32)
                        .filter(|_| rng.random_bool(0.5))
                        .collect();
                    spec.set_breakpoints(i, j, &bps).unwrap();
                }
            }
            let mut keep: Vec<TxnId> = txns.txn_ids().filter(|_| rng.random_bool(0.7)).collect();
            keep.reverse();
            for truncate in [false, true] {
                let lens: Vec<u32> = keep
                    .iter()
                    .map(|&t| {
                        let len = txns.txn(t).len() as u32;
                        if truncate {
                            rng.random_range(1..len + 1)
                        } else {
                            len
                        }
                    })
                    .collect();
                let p = Projection::new(&txns, &spec, &keep, &lens).unwrap();
                let want = naive_projected_spec(&p.txns, &spec, &keep, &lens);
                for i in p.txns.txn_ids() {
                    for j in p.txns.txn_ids().filter(|&j| j != i) {
                        assert_eq!(
                            p.spec.breakpoints(i, j),
                            want.breakpoints(i, j),
                            "seed {seed}, truncate {truncate}, pair ({i}, {j})"
                        );
                    }
                }
                assert_eq!(p.spec, want, "seed {seed}, truncate {truncate}");
                for t in txns.txn_ids() {
                    let op = OpId::new(t, 0);
                    let want = keep
                        .iter()
                        .position(|&k| k == t)
                        .map(|new| OpId::new(TxnId(new as u32), 0));
                    assert_eq!(p.from_original(op), want);
                }
            }
        }
    }

    #[test]
    fn op_mapping_roundtrips() {
        let fig = Figure1::new();
        let p = Projection::subset(&fig.txns, &fig.spec, &[TxnId(2), TxnId(0)]).unwrap();
        let orig = OpId::new(TxnId(2), 1);
        let new = p.from_original(orig).unwrap();
        assert_eq!(new, OpId::new(TxnId(0), 1));
        assert_eq!(p.to_original(new), orig);
        assert_eq!(p.from_original(OpId::new(TxnId(1), 0)), None, "T2 dropped");
    }

    #[test]
    fn committed_log_projects_to_schedule() {
        let fig = Figure1::new();
        let p = Projection::subset(&fig.txns, &fig.spec, &[TxnId(0)]).unwrap();
        // A full-universe history filtered down to T1's ops.
        let s = p.schedule(fig.s_ra().ops()).unwrap();
        assert_eq!(s.len(), 4);
        assert!(s.is_serial());
    }
}
