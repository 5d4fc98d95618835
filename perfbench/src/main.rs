//! Wire-level benchmark of the supervised RSG-SGT transaction service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload zipf-rmw --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One run builds a workload's transaction set and specification from
//! the seed, then serves it for `--seconds` through several *lifetimes*:
//! each is one `serve_net_supervised_in` call (loopback TCP → reactor →
//! supervised shard cores → incremental `RsgSgt` → segmented WAL under
//! `FsyncPolicy::Always` on in-memory segment stores) that serves the
//! whole set once. Rounds of two closed-loop lifetimes and one open-loop
//! lifetime repeat, all untraced; a last closed-loop lifetime records the
//! core trace and times every request, for the per-layer numbers. Every lifetime's
//! output is checked; see `README.md` for the metrics and the checks.
//!
//! The last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer ones with `--trace 1`.

mod client;
mod cpu;
mod reference;
mod replay;
mod workload;

use client::{Load, Outcome, Plan};
use relser_core::ids::TxnId;
use relser_core::project::Projection;
use relser_core::spec::AtomicitySpec;
use relser_core::txn::TxnSet;
use relser_core::vclock;
use relser_net::{serve_net_supervised_in, NetConfig, SuperviseNetConfig, SupervisedNetReport};
use relser_protocols::rsg_sgt::RsgSgt;
use relser_protocols::Scheduler;
use relser_server::{recover_sharded_segments_with_certifier, Certifier};
use relser_wal::{MemSegmentStore, MemSegmentsHandle};
use relser_workload::stream::RequestStream;
use replay::{timed_replay, SchedulerTimes};
use std::cell::Cell;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use workload::Workload;

/// Times the workload is generated in one run; `setup_s` and
/// `workload.gen_ms` report the median.
const GEN_REPS: usize = 5;
/// Rounds of lifetimes a run serves even when `--seconds` is already
/// spent, so every median has at least this many samples.
const MIN_ROUNDS: usize = 3;
/// No new lifetime starts after this, whatever `--seconds` asks, so a
/// run that meets hanging lifetimes still ends well within 180 s.
const RUN_CAP: Duration = Duration::from_secs(100);
/// Transaction streams pipelined per connection, in both loops. Below
/// the server's `max_inflight` (32): with 32 per connection the
/// banking-audit open loop stalls (see README.md).
const STREAMS: usize = 8;
/// Closed loop: transactions not committed this long after the first
/// `Begin` fail.
const CLOSED_DEADLINE: Duration = Duration::from_secs(15);
/// Open loop: the deadline is the arrival span plus this.
const OPEN_GRACE: Duration = Duration::from_secs(5);
/// At most this many missing commits are listed per lifetime.
const LIST_MISSING: usize = 16;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: relser-perfbench --workload <zipf-rmw|zipf-rmw-2shard|banking-audit> --seed <u64> --seconds <1..=60> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=60"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The served universe: one transaction set and its specification.
struct Universe<'w> {
    workload: &'w Workload,
    txns: TxnSet,
    spec: AtomicitySpec,
    seed: u64,
}

/// What one lifetime left behind for the metrics.
struct Lifetime {
    outcome: Outcome,
    report: SupervisedNetReport,
    stores: Vec<MemSegmentsHandle>,
    /// `serve_net_supervised_in` called → client ready to send `Begin`.
    setup: Duration,
    /// The process's CPU time over `setup`.
    setup_cpu: Duration,
    /// The process's peak resident memory at that moment, in MiB.
    setup_rss_mb: f64,
    /// Every `RsgSgt::new` the service asked for.
    builds_ns: Vec<u64>,
    /// Acknowledged commits missing from the recovered committed set.
    missing: Vec<TxnId>,
}

impl Universe<'_> {
    fn scheduler(&self) -> RsgSgt {
        RsgSgt::new(&self.txns, &self.spec)
    }

    /// The arrival order of lifetime `index`.
    fn order(&self, index: u64) -> Vec<TxnId> {
        let seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(index);
        RequestStream::shuffled(&self.txns, seed).order().to_vec()
    }

    /// Serves the whole set once on fresh segment stores and checks what
    /// the service acknowledged against what it recovered.
    fn serve(
        &self,
        index: u64,
        load: Load,
        traced: bool,
        errors: &mut Vec<String>,
    ) -> Option<Lifetime> {
        let shards = self.workload.shards;
        let order = self.order(index);
        let deadline = match load {
            Load::Closed => CLOSED_DEADLINE,
            Load::Open { rate_tps } => {
                Duration::from_secs_f64(order.len() as f64 / rate_tps) + OPEN_GRACE
            }
        };
        let cfg = NetConfig {
            reactors: 1,
            record_trace: traced,
            ..NetConfig::default()
        };
        let plan = Plan {
            txns: &self.txns,
            order: &order,
            load,
            deadline,
            streams: STREAMS,
            time_requests: traced,
            seed: self.seed,
        };
        let stores: Vec<MemSegmentsHandle> =
            (0..shards).map(|_| MemSegmentStore::new().1).collect();
        let builds = Mutex::new(Vec::new());
        let core_clocks: Mutex<Vec<cpu::ThreadClock>> = Mutex::new(Vec::new());
        let core_cpu = || -> Duration {
            let clocks = core_clocks.lock().expect("core clock lock");
            clocks.iter().filter_map(|c| c.read()).sum()
        };
        let built = AtomicUsize::new(0);
        let setup_rss_mb = Cell::new(f64::NAN);
        let cores_ready = || {
            let ready = built.load(Ordering::SeqCst) >= shards;
            if ready {
                setup_rss_mb.set(peak_rss_mb());
            }
            ready
        };
        let sup = SuperviseNetConfig {
            shards,
            ..SuperviseNetConfig::default()
        };
        let cpu0 = cpu::process();
        let t0 = Instant::now();
        let served = serve_net_supervised_in(
            &self.txns,
            &self.spec,
            |_| {
                let t = Instant::now();
                let s = self.scheduler();
                builds
                    .lock()
                    .expect("build timer lock")
                    .push(t.elapsed().as_nanos() as u64);
                // Called on the shard core's own thread.
                let clock = cpu::ThreadClock::current();
                let mut clocks = core_clocks.lock().expect("core clock lock");
                if !clocks.contains(&clock) {
                    clocks.push(clock);
                }
                drop(clocks);
                built.fetch_add(1, Ordering::SeqCst);
                Box::new(s)
            },
            &cfg,
            &sup,
            &[],
            &stores,
            |addr| client::run(addr, &plan, &cores_ready, &core_cpu),
        );
        let (report, outcome) = match served {
            Ok(r) => r,
            Err(e) => {
                errors.push(format!("lifetime {index}: service failed: {e}"));
                return None;
            }
        };
        for e in &outcome.protocol_errors {
            errors.push(format!("lifetime {index}: {e}"));
        }
        if !outcome.double_acked.is_empty() {
            errors.push(format!(
                "lifetime {index}: acknowledged twice: {:?}",
                outcome.double_acked
            ));
        }
        for (shard, run) in report.runs.iter().enumerate() {
            if run.restarts > 0 || run.gave_up || run.output.crashed {
                errors.push(format!(
                    "lifetime {index}: shard {shard} crashed (restarts {}, gave up {})",
                    run.restarts, run.gave_up
                ));
            }
        }
        let mut recovered = vec![false; self.txns.len()];
        for &t in &report.recovery.committed {
            recovered[t.index()] = true;
        }
        let missing: Vec<TxnId> = outcome
            .acked
            .iter()
            .copied()
            .filter(|t| !recovered[t.index()])
            .collect();
        let setup = outcome.ready.map_or(Duration::ZERO, |r| r - t0);
        let setup_cpu = outcome.ready_cpu.saturating_sub(cpu0);
        Some(Lifetime {
            outcome,
            report,
            stores,
            setup,
            setup_cpu,
            setup_rss_mb: setup_rss_mb.get(),
            builds_ns: builds.into_inner().expect("build timer lock"),
            missing,
        })
    }

    /// Re-certifies the recovered committed history with the vector-clock
    /// certifier; returns its CPU time, or `None` (after recording why)
    /// when the history is not relatively serializable.
    fn certify(&self, lt: &Lifetime, index: u64, errors: &mut Vec<String>) -> Option<Duration> {
        let rec = &lt.report.recovery;
        if rec.committed.is_empty() {
            return Some(Duration::ZERO);
        }
        let projected = Projection::subset(&self.txns, &self.spec, &rec.committed)
            .and_then(|p| p.schedule(&rec.history).map(|s| (p, s)));
        let (projection, schedule) = match projected {
            Ok(ps) => ps,
            Err(e) => {
                errors.push(format!("lifetime {index}: recovered history invalid: {e}"));
                return None;
            }
        };
        let c = cpu::process();
        let verdict = vclock::certify(&projection.txns, &schedule, &projection.spec);
        let dt = cpu::process() - c;
        if !verdict.is_acyclic() {
            errors.push(format!(
                "lifetime {index}: recovered history is not relatively serializable"
            ));
            return None;
        }
        Some(dt)
    }

    /// Times a restart: sharded recovery over the lifetime's segment
    /// streams, which must agree with the service's own final merge.
    /// Returns its CPU time and its wall time.
    fn recover(
        &self,
        lt: &Lifetime,
        index: u64,
        errors: &mut Vec<String>,
    ) -> Option<(Duration, Duration)> {
        let segments: Vec<Vec<(u64, Vec<u8>)>> = lt.stores.iter().map(|h| h.segments()).collect();
        let c = cpu::process();
        let t = Instant::now();
        let rec = recover_sharded_segments_with_certifier(
            &self.txns,
            &self.spec,
            |_| Box::new(self.scheduler()) as Box<dyn Scheduler>,
            &segments,
            Certifier::VClock,
        );
        let dt = t.elapsed();
        let dc = cpu::process() - c;
        match rec {
            Ok(r) if r.committed == lt.report.recovery.committed => Some((dc, dt)),
            Ok(_) => {
                errors.push(format!(
                    "lifetime {index}: a restart recovered another committed set than the service"
                ));
                None
            }
            Err(e) => {
                errors.push(format!("lifetime {index}: restart recovery failed: {e}"));
                None
            }
        }
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 1) of `samples`; NaN when empty.
fn percentile(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// Median of `values`; NaN when empty.
fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process so far, in MiB.
fn peak_rss_mb() -> f64 {
    sys::max_rss_kib().map_or(f64::NAN, |kib| kib as f64 / 1024.0)
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// How many samples the value summarises, where that is meaningful.
    samples: Option<usize>,
}

fn metric(name: &'static str, unit: &'static str, value: f64, samples: Option<usize>) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let mut errors: Vec<String> = Vec::new();

    // Set-up: the transaction set and its n² specification.
    let mut gen_ms = Vec::with_capacity(GEN_REPS);
    let mut gen_cpu_s = Vec::with_capacity(GEN_REPS);
    let mut generated = None;
    for _ in 0..GEN_REPS {
        drop(generated.take());
        let c = cpu::process();
        let t = Instant::now();
        generated = Some(w.generate(args.seed));
        gen_ms.push(t.elapsed().as_secs_f64() * 1e3);
        gen_cpu_s.push((cpu::process() - c).as_secs_f64());
    }
    let (txns, spec) = generated.expect("generated at least once");
    let n = txns.len();
    let u = Universe {
        workload: w,
        txns,
        spec,
        seed: args.seed,
    };

    // Untraced lifetimes, in rounds.
    let measure = Duration::from_secs(args.seconds);
    let started = Instant::now();
    // Peak memory once set up (the set, its spec, every shard's scheduler
    // and a started server). What a lifetime adds on top depends on the
    // schedule it happens to produce, so it is reported unbounded, as
    // `bench.run_peak_rss_mb`.
    let mut peak_rss = f64::NAN;
    let closed = Load::Closed;
    let open = Load::Open {
        rate_tps: w.open_rate_tps,
    };
    let mut index: u64 = 0;
    let mut rounds = 0;
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut missing = 0usize;
    let mut goodput = Vec::new();
    let mut cpu_us_per_commit = Vec::new();
    let mut core_cpu_us_per_commit = Vec::new();
    let mut recovery_s = Vec::new();
    let mut recovery_wall_s = Vec::new();
    let mut certify_ms = Vec::new();
    let mut setup_s = Vec::new();
    let mut setup_wall_s = Vec::new();
    let mut builds_ms = Vec::new();
    let mut latency_ns = Vec::new();
    let mut late_ns = Vec::new();
    let mut missing_lines = Vec::new();
    let mut reference_ms = Vec::new();
    while (started.elapsed() < measure || rounds < MIN_ROUNDS) && started.elapsed() < RUN_CAP {
        // The gated figures come from closed-loop lifetimes, so a round
        // serves two of them.
        for load in [closed, closed, open] {
            let i = index;
            index += 1;
            let Some(lt) = u.serve(i, load, false, &mut errors) else {
                continue;
            };
            let o = &lt.outcome;
            attempted += n;
            failed += o.unfinished.len();
            missing += lt.missing.len();
            setup_s.push(lt.setup_cpu.as_secs_f64());
            setup_wall_s.push(lt.setup.as_secs_f64());
            if i == 0 {
                peak_rss = lt.setup_rss_mb;
            }
            builds_ms.extend(lt.builds_ns.iter().map(|&ns| ns as f64 / 1e6));
            if !lt.missing.is_empty() {
                let shown: Vec<u32> = lt.missing.iter().take(LIST_MISSING).map(|t| t.0).collect();
                missing_lines.push(format!(
                    "lifetime {i}: {} of {} acknowledged commits missing from recovery: {:?}{}",
                    lt.missing.len(),
                    o.acked.len(),
                    shown,
                    if lt.missing.len() > LIST_MISSING {
                        " ..."
                    } else {
                        ""
                    }
                ));
            }
            let certified = u.certify(&lt, i, &mut errors);
            match load {
                Load::Closed => {
                    if let (Some(first), Some(last)) = (o.first_begin, o.last_commit) {
                        goodput.push(o.acked.len() as f64 / (last - first).as_secs_f64());
                    }
                    if let (Some(all), Some(core)) = (o.server_cpu, o.core_cpu) {
                        if !o.acked.is_empty() {
                            let per_commit =
                                |d: Duration| d.as_secs_f64() * 1e6 / o.acked.len() as f64;
                            cpu_us_per_commit.push(per_commit(all));
                            core_cpu_us_per_commit.push(per_commit(core));
                        }
                    }
                    let restarted = u.recover(&lt, i, &mut errors);
                    if let (Some(c), Some((r_cpu, r_wall))) = (certified, restarted) {
                        certify_ms.push(c.as_secs_f64() * 1e3);
                        recovery_s.push(r_cpu.as_secs_f64());
                        recovery_wall_s.push(r_wall.as_secs_f64());
                    }
                }
                Load::Open { .. } => {
                    latency_ns.extend_from_slice(&o.latency_ns);
                    late_ns.extend_from_slice(&o.late_ns);
                }
            }
        }
        // The service's threads have ended, and the first round has
        // already taken `peak_rss_mb`.
        reference_ms.push(reference::run().as_secs_f64() * 1e3);
        rounds += 1;
    }

    // The traced lifetime: per-request client timers and core traces,
    // replayed through a timed scheduler.
    let traced = u.serve(index, closed, true, &mut errors);
    let mut times = SchedulerTimes::default();
    let mut traced_goodput = f64::NAN;
    let mut traced_wall_ns = f64::NAN;
    if let Some(lt) = &traced {
        u.certify(lt, index, &mut errors);
        for (shard, run) in lt.report.runs.iter().enumerate() {
            match timed_replay(u.scheduler(), &run.output.trace) {
                Ok(t) => times.merge(t),
                Err(e) => errors.push(format!("traced lifetime, shard {shard}: {e}")),
            }
        }
        let o = &lt.outcome;
        if let (Some(first), Some(last)) = (o.first_begin, o.last_commit) {
            traced_wall_ns = (last - first).as_nanos() as f64;
            traced_goodput = o.acked.len() as f64 / (last - first).as_secs_f64();
        }
    }

    let goodput_med = median(&goodput);
    let recovery_med = median(&recovery_s);
    let certify_med = median(&certify_ms);

    // Gated: what the service costs and how far it can be trusted, in
    // figures the host's CPU steal leaves alone (see README.md).
    let e2e = vec![
        metric(
            "core_cpu_us_per_commit",
            "us",
            median(&core_cpu_us_per_commit),
            Some(core_cpu_us_per_commit.len()),
        ),
        metric(
            "txn_fail_frac",
            "frac",
            ratio((failed + missing) as f64, attempted as f64),
            Some(attempted),
        ),
        metric(
            "setup_s",
            "s",
            median(&gen_cpu_s) + median(&setup_s),
            Some(setup_s.len()),
        ),
        metric("recovery_s", "s", recovery_med, Some(recovery_s.len())),
        metric("peak_rss_mb", "MB", peak_rss, None),
    ];

    let (layers, ok_layers) = match &traced {
        Some(lt) => (per_layer(lt, &times, traced_wall_ns), true),
        None => (Vec::new(), false),
    };
    let request_p50 = percentile(&times.request_ns, 0.5);
    // Unbounded: wall-clock figures, which CPU steal on a shared host
    // moves by more than any bound the benchmark may set (see README.md).
    let mut per = vec![
        metric("goodput_tps", "txn/s", goodput_med, Some(goodput.len())),
        metric(
            "commit_p50_ms",
            "ms",
            percentile(&latency_ns, 0.50) / 1e6,
            Some(latency_ns.len()),
        ),
        metric(
            "commit_p99_ms",
            "ms",
            percentile(&latency_ns, 0.99) / 1e6,
            Some(latency_ns.len()),
        ),
        metric(
            "bench.setup_wall_s",
            "s",
            median(&gen_ms) / 1e3 + median(&setup_wall_s),
            Some(setup_wall_s.len()),
        ),
        metric(
            "bench.recovery_wall_s",
            "s",
            median(&recovery_wall_s),
            Some(recovery_wall_s.len()),
        ),
        metric("workload.gen_ms", "ms", median(&gen_ms), Some(gen_ms.len())),
        metric(
            "protocols.new_ms",
            "ms",
            median(&builds_ms),
            Some(builds_ms.len()),
        ),
    ];
    per.extend(layers);
    per.extend([
        metric("core.certify_ms", "ms", certify_med, Some(certify_ms.len())),
        metric(
            "server.recovery_replay_ms",
            "ms",
            recovery_med * 1e3 - certify_med,
            Some(recovery_s.len()),
        ),
        metric(
            "net.overhead_us_p50",
            "us",
            traced.as_ref().map_or(f64::NAN, |lt| {
                percentile(&lt.outcome.rtt_op_ns, 0.5) - request_p50
            }) / 1e3,
            None,
        ),
        metric(
            "bench.gen_late_p99_ms",
            "ms",
            percentile(&late_ns, 0.99) / 1e6,
            Some(late_ns.len()),
        ),
        metric(
            "bench.trace_overhead_frac",
            "frac",
            1.0 - traced_goodput / goodput_med,
            None,
        ),
        metric("bench.run_peak_rss_mb", "MB", peak_rss_mb(), None),
        metric(
            "server.cpu_us_per_commit",
            "us",
            median(&cpu_us_per_commit),
            Some(cpu_us_per_commit.len()),
        ),
        metric(
            "bench.reference_ms",
            "ms",
            median(&reference_ms),
            Some(reference_ms.len()),
        ),
    ]);

    println!(
        "workload {} seed {} n {} shards {} reactors 1 fsync Always: {} lifetimes + 1 traced in {:.1} s",
        w.name,
        args.seed,
        n,
        w.shards,
        index,
        started.elapsed().as_secs_f64()
    );
    for m in e2e.iter().chain(&per) {
        let samples = m.samples.map_or(String::new(), |s| format!("n={s}"));
        println!(
            "{:<28} {:>16.6} {:<10} {}",
            m.name, m.value, m.unit, samples
        );
    }
    for line in &missing_lines {
        println!("{line}");
    }
    for e in &errors {
        eprintln!("error: {e}");
    }

    let reported = if args.trace { &per } else { &e2e };
    // Per-layer counts may legitimately be empty (a workload without
    // aborts has no abort time); end-to-end values never are.
    let mut correct = errors.is_empty() && ok_layers;
    let fields: Vec<String> = reported
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value
            } else {
                if !args.trace {
                    correct = false;
                }
                0.0
            };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        attempted.max(1),
        failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

/// The per-layer numbers of the traced lifetime.
fn per_layer(lt: &Lifetime, t: &SchedulerTimes, wall_ns: f64) -> Vec<Metric> {
    let o = &lt.outcome;
    let runs = &lt.report.runs;
    let sum = |f: &dyn Fn(&relser_server::core::CoreOutput) -> u64| -> f64 {
        runs.iter().map(|r| f(&r.output)).sum::<u64>() as f64
    };
    let acked = o.acked.len() as f64;
    let decisions = t.request_ns.len() as f64;
    let net = &lt.report.net;
    let grants = sum(&|c| c.grants);
    vec![
        metric(
            "protocols.request_ns_p50",
            "ns",
            percentile(&t.request_ns, 0.5),
            Some(t.request_ns.len()),
        ),
        metric(
            "protocols.request_ns_p99",
            "ns",
            percentile(&t.request_ns, 0.99),
            Some(t.request_ns.len()),
        ),
        metric(
            "protocols.commit_ns_p50",
            "ns",
            percentile(&t.commit_ns, 0.5),
            Some(t.commit_ns.len()),
        ),
        metric(
            "protocols.abort_ns_p50",
            "ns",
            percentile(&t.abort_ns, 0.5),
            Some(t.abort_ns.len()),
        ),
        metric(
            "protocols.busy_share",
            "frac",
            t.busy_ns as f64 / wall_ns,
            None,
        ),
        metric(
            "protocols.grant_frac",
            "frac",
            ratio(t.grants as f64, decisions),
            None,
        ),
        metric(
            "protocols.block_frac",
            "frac",
            ratio(t.blocks as f64, decisions),
            None,
        ),
        metric(
            "protocols.aborts_per_commit",
            "aborts/commit",
            ratio(t.aborts as f64, t.commits as f64),
            None,
        ),
        metric(
            "server.cmds_per_batch",
            "cmds/batch",
            ratio(sum(&|c| c.commands), sum(&|c| c.batches)),
            None,
        ),
        metric(
            "server.timeout_aborts",
            "count",
            sum(&|c| c.timeout_aborts),
            None,
        ),
        metric(
            "wal.bytes_per_commit",
            "B/commit",
            ratio(sum(&|c| c.wal.bytes), acked),
            None,
        ),
        metric(
            "wal.syncs_per_commit",
            "syncs/commit",
            ratio(sum(&|c| c.wal.syncs), acked),
            None,
        ),
        metric("wal.checkpoints", "count", sum(&|c| c.checkpoints), None),
        metric(
            "wal.retained_kb",
            "KiB",
            lt.stores.iter().map(|h| h.retained_bytes()).sum::<usize>() as f64 / 1024.0,
            None,
        ),
        metric(
            "net.rtt_begin_us_p50",
            "us",
            percentile(&o.rtt_begin_ns, 0.5) / 1e3,
            Some(o.rtt_begin_ns.len()),
        ),
        metric(
            "net.rtt_op_us_p50",
            "us",
            percentile(&o.rtt_op_ns, 0.5) / 1e3,
            Some(o.rtt_op_ns.len()),
        ),
        metric(
            "net.rtt_op_us_p99",
            "us",
            percentile(&o.rtt_op_ns, 0.99) / 1e3,
            Some(o.rtt_op_ns.len()),
        ),
        metric(
            "net.rtt_commit_us_p50",
            "us",
            percentile(&o.rtt_commit_ns, 0.5) / 1e3,
            Some(o.rtt_commit_ns.len()),
        ),
        metric(
            "net.retries_per_grant",
            "retries/grant",
            ratio(net.retries as f64, grants),
            None,
        ),
        metric("net.deferrals", "count", net.deferrals as f64, None),
        metric("net.sheds", "count", net.sheds as f64, None),
    ]
}

/// `getrusage(2)`, which std does not wrap.
mod sys {
    use std::ffi::{c_int, c_long};

    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    compile_error!("the benchmark's getrusage binding assumes 64-bit Linux");

    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s
    /// of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        utime: [c_long; 2],
        stime: [c_long; 2],
        maxrss: c_long,
        rest: [c_long; 13],
    }

    const RUSAGE_SELF: c_int = 0;

    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }

    /// The process's peak resident set size, in KiB.
    pub fn max_rss_kib() -> Option<u64> {
        let mut usage = Rusage {
            utime: [0; 2],
            stime: [0; 2],
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `usage` is a valid, exclusively borrowed `#[repr(C)]`
        // struct with the layout of `struct rusage` on 64-bit Linux, which
        // getrusage fills in; it outlives the call.
        let r = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
        (r == 0).then(|| u64::try_from(usage.maxrss).unwrap_or(0))
    }
}
