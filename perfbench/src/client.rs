//! The benchmark's own wire client: one thread multiplexing two
//! sessionful connections, in a closed or an open loop.
//!
//! It waits on its sockets with `ppoll(2)` and a nanosecond timeout set
//! to the next event (arrival, restart backoff or lifetime deadline), so
//! a response is handled as soon as it arrives and no latency it measures
//! is rounded to a read-timeout polling quantum.

use crate::cpu;
use relser_core::ids::{OpId, TxnId};
use relser_core::op::AccessMode;
use relser_core::txn::TxnSet;
use relser_net::wire::{ReqId, Request, Response};
use relser_server::restart_backoff;
use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Connections per lifetime.
pub const CONNECTIONS: usize = 2;

/// Give up on a transaction after this many incarnations.
const MAX_ATTEMPTS: u32 = 10_000;
const BACKOFF: Duration = Duration::from_micros(200);
const BACKOFF_MAX: Duration = Duration::from_millis(20);
/// Bound on waiting for a `Welcome` and for the shard cores to be built.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(60);

/// How transactions arrive. Either way each connection runs at most
/// [`Plan::streams`] transactions at once.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Every stream starts the next transaction as soon as its last one
    /// commits.
    Closed,
    /// Transaction `k` of the arrival order is due `k / rate` seconds
    /// after the first, on connection `k % CONNECTIONS`, whatever the
    /// server is doing. An arrival finding every stream of its connection
    /// busy waits client-side; its latency still counts from the due time.
    Open { rate_tps: f64 },
}

/// One lifetime's traffic.
pub struct Plan<'a> {
    pub txns: &'a TxnSet,
    /// Arrival order (a permutation of the set).
    pub order: &'a [TxnId],
    pub load: Load,
    /// Transactions not committed this long after the first `Begin` fail.
    pub deadline: Duration,
    /// Transaction streams pipelined per connection.
    pub streams: usize,
    /// Time every request from send to response.
    pub time_requests: bool,
    /// Seeds the restart-backoff jitter.
    pub seed: u64,
}

/// What the client saw during one lifetime.
#[derive(Default)]
pub struct Outcome {
    /// When both sessions were open and every shard core was built.
    pub ready: Option<Instant>,
    /// The process's CPU time at `ready`.
    pub ready_cpu: Duration,
    pub first_begin: Option<Instant>,
    pub last_commit: Option<Instant>,
    /// CPU time the service's threads (every thread but the client's)
    /// used from the first `Begin` to the last `Committed` (to the end of
    /// the lifetime, if not every transaction was acknowledged).
    pub server_cpu: Option<Duration>,
    /// The same span's CPU time of the shard cores' threads alone.
    pub core_cpu: Option<Duration>,
    /// Transactions acknowledged `Committed`, in ack order.
    pub acked: Vec<TxnId>,
    /// Transactions acknowledged more than once (a correctness failure).
    pub double_acked: Vec<TxnId>,
    /// Transactions never acknowledged: lost with a connection,
    /// abandoned at the attempt budget, or unfinished at the deadline.
    pub unfinished: Vec<TxnId>,
    /// Per transaction, arrival (open loop: scheduled; closed loop: first
    /// `Begin` sent) to `Committed`, restarts included. A failed
    /// transaction counts as the whole deadline.
    pub latency_ns: Vec<u64>,
    /// Open loop: how late the client noticed each arrival after its
    /// due time (the generator's own lateness).
    pub late_ns: Vec<u64>,
    /// Protocol violations and server-side connection errors seen
    /// (unknown request ids, unexpected responses, garbage frames, an
    /// `Error` or `Closing` mid-lifetime). Any is a correctness failure.
    pub protocol_errors: Vec<String>,
    /// With `time_requests`: send → response per request kind.
    pub rtt_begin_ns: Vec<u64>,
    pub rtt_op_ns: Vec<u64>,
    pub rtt_commit_ns: Vec<u64>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Begin,
    Op(u32),
    Commit,
    Done,
}

/// One transaction in flight on one connection.
struct Slot {
    conn: usize,
    txn: TxnId,
    n_ops: u32,
    phase: Phase,
    attempts: u32,
    /// The request awaiting its response, and when it was sent.
    waiting: Option<(ReqId, Instant)>,
    /// The request id this incarnation's commit is pinned to, so a
    /// retried commit stays deduplicated by the session table.
    commit_req: Option<ReqId>,
    ready_at: Instant,
    arrived: Instant,
    begun: bool,
}

struct Conn {
    sock: TcpStream,
    rbuf: Vec<u8>,
    out: Vec<u8>,
    by_req: HashMap<ReqId, usize>,
    alive: bool,
    /// Open loop: transactions running on this connection, and arrivals
    /// (with their due times) waiting for one of them to settle.
    active: usize,
    backlog: VecDeque<(TxnId, Instant)>,
}

/// Runs one lifetime's traffic against `addr`. `cores_ready` reports
/// whether every shard core has built its scheduler; no `Begin` is sent
/// before it does, so set-up never leaks into the timed traffic.
/// `core_cpu` reads the CPU time the shard cores' threads have used.
pub fn run(
    addr: SocketAddr,
    plan: &Plan<'_>,
    cores_ready: &dyn Fn() -> bool,
    core_cpu: &dyn Fn() -> Duration,
) -> Outcome {
    let mut out = Outcome::default();
    let mut conns = Vec::with_capacity(CONNECTIONS);
    for c in 0..CONNECTIONS {
        match open_session(addr, c as u64 + 1) {
            Ok(conn) => conns.push(conn),
            Err(e) => {
                out.protocol_errors
                    .push(format!("session {c} did not open: {e}"));
                for &txn in plan.order {
                    out.fail(txn, plan.deadline);
                }
                return out;
            }
        }
    }
    let waited = Instant::now();
    while !cores_ready() {
        if waited.elapsed() > HANDSHAKE_TIMEOUT {
            out.protocol_errors
                .push("shard cores never became ready".to_string());
            for &txn in plan.order {
                out.fail(txn, plan.deadline);
            }
            return out;
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    let start = Instant::now();
    out.ready = Some(start);
    out.ready_cpu = cpu::process();
    let deadline_at = start + plan.deadline;
    Client {
        plan,
        conns,
        slots: Vec::new(),
        free: Vec::new(),
        acked: vec![false; plan.txns.len()],
        next_req: 1,
        next_arrival: 0,
        start,
        server_cpu_at_begin: Duration::ZERO,
        core_cpu,
        core_cpu_at_begin: Duration::ZERO,
        out,
    }
    .drive(deadline_at)
}

fn open_session(addr: SocketAddr, session: u64) -> io::Result<Conn> {
    let mut sock = TcpStream::connect(addr)?;
    sock.set_nodelay(true)?;
    let mut buf = Vec::new();
    Request::Hello {
        req_id: 0,
        session,
        resume_from: 0,
    }
    .encode_into(&mut buf);
    sock.write_all(&buf)?;
    sock.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let mut rbuf = Vec::new();
    let mut tmp = [0u8; 256];
    loop {
        match Response::decode(&rbuf) {
            Ok((Response::Welcome { req_id: 0 }, n)) => {
                rbuf.drain(..n);
                break;
            }
            Ok((other, _)) => {
                return Err(io::Error::other(format!("expected Welcome, got {other:?}")))
            }
            Err(e) if e.is_incomplete() => {}
            Err(e) => return Err(io::Error::other(e)),
        }
        let n = sock.read(&mut tmp)?;
        if n == 0 {
            return Err(io::Error::from(ErrorKind::UnexpectedEof));
        }
        rbuf.extend_from_slice(&tmp[..n]);
    }
    sock.set_read_timeout(None)?;
    Ok(Conn {
        sock,
        rbuf,
        out: Vec::new(),
        by_req: HashMap::new(),
        alive: true,
        active: 0,
        backlog: VecDeque::new(),
    })
}

struct Client<'p, 'a> {
    plan: &'p Plan<'a>,
    conns: Vec<Conn>,
    slots: Vec<Slot>,
    /// Open loop: indices of settled slots, reused by later arrivals so
    /// the slot table stays as small as the concurrency.
    free: Vec<usize>,
    acked: Vec<bool>,
    next_req: ReqId,
    /// Next index into the arrival order not yet given to a slot.
    next_arrival: usize,
    start: Instant,
    /// `cpu::others()` when the first `Begin` was sent.
    server_cpu_at_begin: Duration,
    core_cpu: &'p dyn Fn() -> Duration,
    /// `core_cpu()` when the first `Begin` was sent.
    core_cpu_at_begin: Duration,
    out: Outcome,
}

impl Client<'_, '_> {
    fn drive(mut self, deadline_at: Instant) -> Outcome {
        if let Load::Closed = self.plan.load {
            for c in 0..CONNECTIONS {
                for _ in 0..self.plan.streams {
                    if let Some(txn) = self.claim() {
                        let slot = self.new_slot(c, txn, self.start);
                        self.slots.push(slot);
                    }
                }
            }
        }
        loop {
            let now = Instant::now();
            if now >= deadline_at {
                break;
            }
            self.arrive(now);
            self.send(now);
            if self.finished() {
                break;
            }
            let wake = self.next_wake(now).unwrap_or(deadline_at).min(deadline_at);
            self.wait_and_read(wake.saturating_duration_since(now));
        }
        if self.out.first_begin.is_some() && self.out.server_cpu.is_none() {
            self.take_cpu();
        }
        self.settle();
        self.out
    }

    /// Records the service's CPU time since the first `Begin`.
    fn take_cpu(&mut self) {
        self.out.server_cpu = Some(cpu::others().saturating_sub(self.server_cpu_at_begin));
        self.out.core_cpu = Some((self.core_cpu)().saturating_sub(self.core_cpu_at_begin));
    }

    fn claim(&mut self) -> Option<TxnId> {
        let txn = self.plan.order.get(self.next_arrival).copied();
        if txn.is_some() {
            self.next_arrival += 1;
        }
        txn
    }

    fn new_slot(&self, conn: usize, txn: TxnId, arrived: Instant) -> Slot {
        Slot {
            conn,
            txn,
            n_ops: self.plan.txns.txn(txn).len() as u32,
            phase: Phase::Begin,
            attempts: 1,
            waiting: None,
            commit_req: None,
            ready_at: arrived,
            arrived,
            begun: false,
        }
    }

    fn due(&self, k: usize, rate_tps: f64) -> Instant {
        self.start + Duration::from_secs_f64(k as f64 / rate_tps)
    }

    /// Open loop: starts (or queues) every arrival that is due.
    fn arrive(&mut self, now: Instant) {
        let Load::Open { rate_tps } = self.plan.load else {
            return;
        };
        while self.next_arrival < self.plan.order.len() {
            let k = self.next_arrival;
            let due = self.due(k, rate_tps);
            if due > now {
                break;
            }
            self.next_arrival += 1;
            self.out
                .late_ns
                .push(now.saturating_duration_since(due).as_nanos() as u64);
            self.start_or_queue(k % CONNECTIONS, self.plan.order[k], due);
        }
    }

    fn start_or_queue(&mut self, c: usize, txn: TxnId, due: Instant) {
        let conn = &mut self.conns[c];
        if !conn.alive {
            self.out.fail(txn, self.plan.deadline);
        } else if conn.active < self.plan.streams {
            conn.active += 1;
            let slot = self.new_slot(c, txn, due);
            match self.free.pop() {
                Some(i) => self.slots[i] = slot,
                None => self.slots.push(slot),
            }
        } else {
            conn.backlog.push_back((txn, due));
        }
    }

    /// Sends the next request of every slot that is ready.
    fn send(&mut self, now: Instant) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let conn = &mut self.conns[slot.conn];
            if slot.phase == Phase::Done
                || slot.waiting.is_some()
                || slot.ready_at > now
                || !conn.alive
            {
                continue;
            }
            let req_id = match (slot.phase, slot.commit_req) {
                (Phase::Commit, Some(pinned)) => pinned,
                _ => {
                    let id = self.next_req;
                    self.next_req += 1;
                    id
                }
            };
            let req = match slot.phase {
                Phase::Begin => {
                    if !slot.begun {
                        slot.begun = true;
                        if let Load::Closed = self.plan.load {
                            slot.arrived = now;
                        }
                        if self.out.first_begin.is_none() {
                            self.out.first_begin = Some(now);
                            self.server_cpu_at_begin = cpu::others();
                            self.core_cpu_at_begin = (self.core_cpu)();
                        }
                    }
                    Request::Begin {
                        req_id,
                        txn: slot.txn,
                    }
                }
                Phase::Op(index) => {
                    let op = OpId {
                        txn: slot.txn,
                        index,
                    };
                    let operation = self.plan.txns.op(op).expect("the op is in the set");
                    match operation.mode {
                        AccessMode::Read => Request::Read {
                            req_id,
                            op,
                            object: operation.object,
                        },
                        AccessMode::Write => Request::Write {
                            req_id,
                            op,
                            object: operation.object,
                        },
                    }
                }
                Phase::Commit => {
                    slot.commit_req = Some(req_id);
                    Request::Commit {
                        req_id,
                        txn: slot.txn,
                    }
                }
                Phase::Done => unreachable!("done slots are skipped"),
            };
            req.encode_into(&mut conn.out);
            slot.waiting = Some((req_id, now));
            conn.by_req.insert(req_id, i);
        }
        for c in 0..self.conns.len() {
            let conn = &mut self.conns[c];
            if conn.out.is_empty() || !conn.alive {
                continue;
            }
            let ok = conn.sock.write_all(&conn.out).is_ok();
            conn.out.clear();
            if !ok {
                self.kill(c);
            }
        }
    }

    fn live(&self) -> bool {
        self.slots.iter().any(|s| s.phase != Phase::Done)
    }

    fn finished(&self) -> bool {
        !self.live()
            && self.next_arrival >= self.plan.order.len()
            && self.conns.iter().all(|c| c.backlog.is_empty())
    }

    /// The earliest future arrival or backoff expiry, if any.
    fn next_wake(&self, now: Instant) -> Option<Instant> {
        let backoff = self
            .slots
            .iter()
            .filter(|s| s.phase != Phase::Done && s.waiting.is_none() && s.ready_at > now)
            .map(|s| s.ready_at)
            .min();
        let arrival = match self.plan.load {
            Load::Open { rate_tps } if self.next_arrival < self.plan.order.len() => {
                Some(self.due(self.next_arrival, rate_tps))
            }
            _ => None,
        };
        backoff.into_iter().chain(arrival).min()
    }

    fn wait_and_read(&mut self, timeout: Duration) {
        let mut fds: Vec<sys::PollFd> = self
            .conns
            .iter()
            .filter(|c| c.alive)
            .map(|c| sys::PollFd::readable(c.sock.as_raw_fd()))
            .collect();
        if fds.is_empty() {
            std::thread::sleep(timeout);
            return;
        }
        if let Err(e) = sys::wait_readable(&mut fds, timeout) {
            self.out.protocol_errors.push(format!("ppoll failed: {e}"));
            for c in 0..self.conns.len() {
                self.kill(c);
            }
            return;
        }
        let ready: Vec<bool> = fds.iter().map(|f| f.revents != 0).collect();
        let alive: Vec<usize> = (0..self.conns.len())
            .filter(|&c| self.conns[c].alive)
            .collect();
        for (c, r) in alive.into_iter().zip(ready) {
            if r {
                self.read(c);
            }
        }
    }

    fn read(&mut self, c: usize) {
        let mut tmp = [0u8; 16 * 1024];
        match self.conns[c].sock.read(&mut tmp) {
            Ok(0) => return self.kill(c),
            Ok(n) => self.conns[c].rbuf.extend_from_slice(&tmp[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => return,
            Err(_) => return self.kill(c),
        }
        let now = Instant::now();
        let mut at = 0;
        loop {
            let decoded = Response::decode(&self.conns[c].rbuf[at..]);
            match decoded {
                Ok((resp, n)) => {
                    at += n;
                    if !self.dispatch(c, resp, now) {
                        return self.kill(c);
                    }
                }
                Err(e) if e.is_incomplete() => break,
                Err(e) => {
                    self.out
                        .protocol_errors
                        .push(format!("connection {c}: undecodable response: {e}"));
                    return self.kill(c);
                }
            }
        }
        self.conns[c].rbuf.drain(..at);
    }

    /// Applies one response; `false` means the connection is unusable.
    fn dispatch(&mut self, c: usize, resp: Response, now: Instant) -> bool {
        if let Response::Error { .. } | Response::Closing { .. } = resp {
            // The server is giving up on this connection mid-lifetime.
            self.out
                .protocol_errors
                .push(format!("connection {c}: server sent {resp:?}"));
            return false;
        }
        let Some(i) = self.conns[c].by_req.remove(&resp.req_id()) else {
            self.out.protocol_errors.push(format!(
                "connection {c}: response to unknown request: {resp:?}"
            ));
            return false;
        };
        let slot = &mut self.slots[i];
        let Some((_, sent)) = slot.waiting.take() else {
            self.out
                .protocol_errors
                .push(format!("connection {c}: unexpected response {resp:?}"));
            return false;
        };
        let rtt = now.saturating_duration_since(sent).as_nanos() as u64;
        match resp {
            Response::Granted { .. } => {
                if self.plan.time_requests {
                    match slot.phase {
                        Phase::Begin => self.out.rtt_begin_ns.push(rtt),
                        _ => self.out.rtt_op_ns.push(rtt),
                    }
                }
                slot.phase = match slot.phase {
                    Phase::Begin if slot.n_ops == 0 => Phase::Commit,
                    Phase::Begin => Phase::Op(0),
                    Phase::Op(k) if k + 1 < slot.n_ops => Phase::Op(k + 1),
                    Phase::Op(_) => Phase::Commit,
                    Phase::Commit | Phase::Done => {
                        self.out
                            .protocol_errors
                            .push(format!("connection {c}: commit answered Granted"));
                        return false;
                    }
                };
            }
            Response::Committed { .. } => {
                if slot.phase != Phase::Commit {
                    self.out
                        .protocol_errors
                        .push(format!("connection {c}: non-commit answered Committed"));
                    return false;
                }
                if self.plan.time_requests {
                    self.out.rtt_commit_ns.push(rtt);
                }
                let txn = slot.txn;
                if std::mem::replace(&mut self.acked[txn.index()], true) {
                    self.out.double_acked.push(txn);
                } else {
                    self.out.acked.push(txn);
                }
                self.out
                    .latency_ns
                    .push(now.saturating_duration_since(slot.arrived).as_nanos() as u64);
                self.out.last_commit = Some(now);
                if self.out.acked.len() == self.plan.order.len() {
                    self.take_cpu();
                }
                self.finish_slot(i, now);
            }
            Response::Aborted { .. } => {
                slot.attempts += 1;
                if slot.attempts > MAX_ATTEMPTS {
                    self.out.fail(slot.txn, self.plan.deadline);
                    self.finish_slot(i, now);
                } else {
                    slot.phase = Phase::Begin;
                    slot.commit_req = None;
                    slot.ready_at = now
                        + restart_backoff(
                            BACKOFF,
                            BACKOFF_MAX,
                            self.plan.seed,
                            slot.txn,
                            slot.attempts,
                        );
                }
            }
            Response::Shed { .. } | Response::Recovering { .. } => {
                // Nothing was enqueued: resend the same request later.
                slot.ready_at = now + BACKOFF;
            }
            Response::Welcome { .. } => {
                self.out
                    .protocol_errors
                    .push(format!("connection {c}: unrequested Welcome"));
                return false;
            }
            Response::Error { .. } | Response::Closing { .. } => unreachable!("handled above"),
        }
        true
    }

    /// The slot's transaction is settled: closed loop starts the next
    /// arrival on the same stream, open loop frees the slot and starts
    /// the connection's oldest queued arrival, if any.
    fn finish_slot(&mut self, i: usize, now: Instant) {
        let c = self.slots[i].conn;
        if let Load::Closed = self.plan.load {
            match self.claim() {
                Some(txn) => self.slots[i] = self.new_slot(c, txn, now),
                None => self.slots[i].phase = Phase::Done,
            }
            return;
        }
        self.slots[i].phase = Phase::Done;
        self.free.push(i);
        self.conns[c].active -= 1;
        if let Some((txn, due)) = self.conns[c].backlog.pop_front() {
            self.start_or_queue(c, txn, due);
        }
    }

    /// The connection is gone: its unsettled transactions are lost.
    fn kill(&mut self, c: usize) {
        if !self.conns[c].alive {
            return;
        }
        self.conns[c].alive = false;
        self.conns[c].by_req.clear();
        for (txn, _) in std::mem::take(&mut self.conns[c].backlog) {
            self.out.fail(txn, self.plan.deadline);
        }
        for slot in self.slots.iter_mut().filter(|s| s.conn == c) {
            if slot.phase != Phase::Done {
                slot.phase = Phase::Done;
                self.out.fail(slot.txn, self.plan.deadline);
            }
        }
    }

    /// Everything still unsettled at the deadline failed.
    fn settle(&mut self) {
        for slot in self.slots.iter_mut().filter(|s| s.phase != Phase::Done) {
            slot.phase = Phase::Done;
            self.out.fail(slot.txn, self.plan.deadline);
        }
        for conn in &mut self.conns {
            for (txn, _) in std::mem::take(&mut conn.backlog) {
                self.out.fail(txn, self.plan.deadline);
            }
        }
        while let Some(txn) = self.claim() {
            self.out.fail(txn, self.plan.deadline);
        }
    }
}

impl Outcome {
    /// Records `txn` as failed; its latency counts as the whole deadline,
    /// so a failure always misses any latency limit.
    fn fail(&mut self, txn: TxnId, deadline: Duration) {
        self.unfinished.push(txn);
        self.latency_ns.push(deadline.as_nanos() as u64);
    }
}

/// `ppoll(2)`, the one call std does not wrap: a readiness wait with a
/// nanosecond timeout.
mod sys {
    use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
    use std::io;
    use std::time::Duration;

    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    compile_error!("the benchmark client's ppoll binding assumes 64-bit Linux");

    /// `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        fd: c_int,
        events: c_short,
        pub revents: c_short,
    }

    const POLLIN: c_short = 0x1;

    impl PollFd {
        pub fn readable(fd: c_int) -> PollFd {
            PollFd {
                fd,
                events: POLLIN,
                revents: 0,
            }
        }
    }

    /// `struct timespec` on 64-bit Linux (`time_t` is `long`).
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    /// Blocks until a descriptor in `fds` is readable (or hung up) or
    /// `timeout` passes. A signal interruption counts as a timeout.
    pub fn wait_readable(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
        let ts = Timespec {
            tv_sec: timeout.as_secs().min(c_long::MAX as u64) as c_long,
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        // SAFETY: `fds` is an exclusively borrowed slice of `fds.len()`
        // `#[repr(C)]` pollfd structs, which ppoll may write `revents`
        // into; `ts` is a valid timespec that outlives the call; a null
        // sigmask means the signal mask is left unchanged.
        let r = unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                &ts,
                std::ptr::null(),
            )
        };
        if r < 0 {
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        Ok(())
    }
}
