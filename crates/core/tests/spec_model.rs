//! Property test of the interned [`AtomicitySpec`] against a naive
//! `Vec<Vec<u32>>` reference model: one owned breakpoint list per ordered
//! pair, queried by brute force.
//!
//! Random sequences of `set_breakpoints`, `set_unit_sizes` and
//! `set_units_str` (valid and invalid) run against both. Lists are often
//! copied from another slot, so slots share pool entries and overwriting a
//! shared slot is common. Snapshots taken mid-sequence must keep their
//! contents while the original keeps changing (copy-on-write), and a spec
//! rebuilt from the model in another order must compare equal.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relser_core::ids::{OpId, TxnId};
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;

/// The reference: `breaks[i * n + j]` owns the list of `Atomicity(T_i, T_j)`.
#[derive(Clone)]
struct Model {
    lens: Vec<u32>,
    breaks: Vec<Vec<u32>>,
}

impl Model {
    fn n(&self) -> usize {
        self.lens.len()
    }

    fn get(&self, i: usize, j: usize) -> &[u32] {
        &self.breaks[i * self.n() + j]
    }

    /// The atomic units of `T_i` relative to `T_j` as inclusive ranges.
    fn units(&self, i: usize, j: usize) -> Vec<(u32, u32)> {
        let mut cuts = vec![0];
        cuts.extend_from_slice(self.get(i, j));
        cuts.push(self.lens[i]);
        cuts.windows(2).map(|w| (w[0], w[1] - 1)).collect()
    }
}

fn txn_set(lens: &[u32]) -> TxnSet {
    let srcs: Vec<String> = lens
        .iter()
        .enumerate()
        .map(|(t, &len)| {
            (0..len)
                .map(|k| {
                    let mode = ['r', 'w'][(t + k as usize) % 2];
                    format!("{mode}{}[o{}]", t + 1, k % 3)
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
    TxnSet::parse(&refs).unwrap()
}

/// A valid breakpoint list for a transaction of length `len`.
fn random_list(rng: &mut StdRng, len: u32) -> Vec<u32> {
    let p = [0.0, 0.3, 0.7, 1.0][rng.random_range(0..4usize)];
    (1..len).filter(|_| rng.random_bool(p)).collect()
}

/// The `|`-separated unit notation `set_units_str` parses.
fn units_str(txns: &TxnSet, i: usize, list: &[u32]) -> String {
    let t = TxnId(i as u32);
    let mut parts = Vec::new();
    for k in 0..txns.txn(t).len() as u32 {
        if list.contains(&k) {
            parts.push("|".to_string());
        }
        parts.push(txns.display_op(OpId::new(t, k)));
    }
    parts.join(" ")
}

/// Every query of the spec agrees with the model on every pair.
fn check(spec: &AtomicitySpec, model: &Model, txns: &TxnSet) -> Result<(), String> {
    let n = model.n();
    prop_assert_eq!(spec.txn_count(), n);
    let absolute = model.breaks.iter().all(Vec::is_empty);
    prop_assert_eq!(spec.is_absolute(), absolute);
    for i in 0..n {
        let ti = TxnId(i as u32);
        prop_assert_eq!(spec.txn_len(ti), model.lens[i]);
        for j in (0..n).filter(|&j| j != i) {
            let tj = TxnId(j as u32);
            prop_assert_eq!(spec.breakpoints(ti, tj), model.get(i, j));
            let units = model.units(i, j);
            prop_assert_eq!(spec.unit_count(ti, tj), units.len());
            for (u, &(first, last)) in units.iter().enumerate() {
                prop_assert_eq!(spec.unit_bounds(ti, tj, u), first..=last);
                for k in first..=last {
                    let op = OpId::new(ti, k);
                    prop_assert_eq!(spec.unit_of(op, tj), u);
                    prop_assert_eq!(spec.push_forward(op, tj), OpId::new(ti, last));
                    prop_assert_eq!(spec.pull_backward(op, tj), OpId::new(ti, first));
                }
            }
            prop_assert_eq!(
                spec.display_pair(txns, ti, tj),
                units_str(txns, i, model.get(i, j))
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn interned_spec_matches_the_naive_model(
        lens in proptest::collection::vec(1u32..=5, 2..=6),
        seed in any::<u64>(),
    ) {
        let txns = txn_set(&lens);
        let n = lens.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut spec = AtomicitySpec::absolute(&txns);
        let mut model = Model { lens: lens.clone(), breaks: vec![Vec::new(); n * n] };
        let mut snapshots: Vec<(AtomicitySpec, Model)> = Vec::new();

        for _ in 0..rng.random_range(0..40usize) {
            let i = rng.random_range(0..n);
            let j = (i + rng.random_range(1..n)) % n;
            let (ti, tj) = (TxnId(i as u32), TxnId(j as u32));
            // Half the time reuse a list another slot of row `i` holds, so
            // slots share pool entries and later overwrite shared ones.
            let list = if rng.random_bool(0.5) {
                let k = (i + rng.random_range(1..n)) % n;
                model.get(i, k).to_vec()
            } else {
                random_list(&mut rng, lens[i])
            };
            match rng.random_range(0..5u32) {
                0 => spec.set_breakpoints(ti, tj, &list).unwrap(),
                1 => {
                    let mut cuts = vec![0];
                    cuts.extend_from_slice(&list);
                    cuts.push(lens[i]);
                    let sizes: Vec<u32> = cuts.windows(2).map(|w| w[1] - w[0]).collect();
                    spec.set_unit_sizes(ti, tj, &sizes).unwrap();
                }
                2 => spec.set_units_str(&txns, i, j, &units_str(&txns, i, &list)).unwrap(),
                3 => {
                    // Rejected input leaves the spec as it was.
                    let before = spec.clone();
                    let bad = [vec![0], vec![lens[i]], vec![1, 1]];
                    let bad = &bad[rng.random_range(0..bad.len())];
                    prop_assert!(spec.set_breakpoints(ti, tj, bad).is_err());
                    prop_assert!(spec.set_breakpoints(ti, ti, &list).is_err());
                    prop_assert!(spec == before);
                    continue;
                }
                _ => {
                    snapshots.push((spec.clone(), model.clone()));
                    continue;
                }
            }
            model.breaks[i * n + j] = list;
        }

        check(&spec, &model, &txns)?;
        for (snap, snap_model) in &snapshots {
            check(snap, snap_model, &txns)?;
        }

        // The same contents built in another order, through detours that
        // intern lists the final spec never uses, compare equal.
        let mut rebuilt = AtomicitySpec::free(&txns);
        for i in (0..n).rev() {
            for j in (0..n).rev().filter(|&j| j != i) {
                let (ti, tj) = (TxnId(i as u32), TxnId(j as u32));
                let detour = random_list(&mut rng, lens[i]);
                rebuilt.set_breakpoints(ti, tj, &detour).unwrap();
                rebuilt.set_breakpoints(ti, tj, model.get(i, j)).unwrap();
            }
        }
        prop_assert!(rebuilt == spec);
        check(&rebuilt, &model, &txns)?;

        // ... and differ as soon as one pair does.
        if let Some(i) = (0..n).find(|&i| lens[i] > 1) {
            let j = (i + 1) % n;
            let mut other = model.get(i, j).to_vec();
            if other.is_empty() {
                other.push(1);
            } else {
                other.pop();
            }
            let (ti, tj) = (TxnId(i as u32), TxnId(j as u32));
            rebuilt.set_breakpoints(ti, tj, &other).unwrap();
            prop_assert!(rebuilt != spec);
        }
    }
}
