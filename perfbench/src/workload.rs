//! The benchmark's workloads, built only from the public generators.
//!
//! A workload fixes its transaction set's *size* and shape; the seed
//! picks the concrete set, its specification and every arrival order,
//! so the same seed always gives the same inputs. The specification
//! stores one slot per ordered transaction pair, so `n` is part of a
//! workload's definition: runs get longer by serving more lifetimes
//! over the same set, never by growing the set.

use rand::rngs::StdRng;
use rand::SeedableRng;
use relser_core::op::AccessMode;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_workload::banking::{banking, BankingConfig};
use relser_workload::random::random_spec;
use relser_workload::zipf::Zipf;

/// One named traffic mix.
pub struct Workload {
    /// The name passed to `--workload`.
    pub name: &'static str,
    /// What transactions the set holds.
    pub kind: Kind,
    /// Shard cores serving it.
    pub shards: usize,
    /// The open-loop offered rate, fixed once at about half the closed-
    /// loop goodput measured when the benchmark was defined. Never
    /// re-derived from a run.
    pub open_rate_tps: f64,
}

/// The transaction-set generators a workload is built from.
pub enum Kind {
    /// `txns` single-record read-modify-write transactions over
    /// `records` Zipf(θ)-popular records, with `random_spec` at
    /// `breakpoint_prob`.
    ZipfRmw {
        txns: usize,
        records: usize,
        theta: f64,
        breakpoint_prob: f64,
    },
    /// The paper's banking scenario with its own specification.
    Banking(BankingConfig),
}

const ZIPF_RMW: Kind = Kind::ZipfRmw {
    txns: 2048,
    records: 8192,
    theta: 0.4,
    breakpoint_prob: 0.4,
};

/// Every workload `--workload` accepts.
pub const WORKLOADS: [Workload; 3] = [
    // The request path and the n² set-up: conflicts are rare, and the
    // 2048² specification (about 100 MB) is larger than the L3 cache.
    Workload {
        name: "zipf-rmw",
        kind: ZIPF_RMW,
        shards: 1,
        open_rate_tps: 9000.0,
    },
    // The same traffic through shard routing and the N>1 serve path.
    Workload {
        name: "zipf-rmw-2shard",
        kind: ZIPF_RMW,
        shards: 2,
        open_rate_tps: 8000.0,
    },
    // The paper's scenario: transfers beside family credit audits and an
    // absolutely atomic bank-wide audit, so the scheduler blocks and
    // restarts. One shard, because cross-shard transactions are refused
    // over the wire.
    Workload {
        name: "banking-audit",
        kind: Kind::Banking(BankingConfig {
            families: 32,
            accounts_per_family: 8,
            customers_per_family: 16,
            transfers_per_customer: 2,
            credit_audits: true,
            bank_audit: true,
        }),
        shards: 1,
        open_rate_tps: 750.0,
    },
];

/// The workload named `name`, if any.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Salt separating the specification's random stream from the set's.
const SPEC_SALT: u64 = 0x5BEC_A70B_1C17_0000;

impl Workload {
    /// The transaction set and its specification for `seed`.
    pub fn generate(&self, seed: u64) -> (TxnSet, AtomicitySpec) {
        match &self.kind {
            Kind::ZipfRmw {
                txns,
                records,
                theta,
                breakpoint_prob,
            } => {
                let set = zipf_rmw_txns(*txns, *records, *theta, seed);
                let spec = random_spec(&set, *breakpoint_prob, seed ^ SPEC_SALT);
                (set, spec)
            }
            Kind::Banking(cfg) => {
                let sc = banking(cfg, seed);
                (sc.txns, sc.spec)
            }
        }
    }
}

fn zipf_rmw_txns(txns: usize, records: usize, theta: f64, seed: u64) -> TxnSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(records, theta);
    let names: Vec<String> = (0..records).map(|i| format!("r{i}")).collect();
    let mut set = TxnSet::new();
    for _ in 0..txns {
        let record = names[zipf.sample(&mut rng)].as_str();
        set.add(&[(AccessMode::Read, record), (AccessMode::Write, record)])
            .expect("a two-operation transaction is valid");
    }
    set
}
