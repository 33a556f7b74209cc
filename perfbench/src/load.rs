//! Open-loop load against the daemon: request mixes, reply checking,
//! fixed-rate phases and the capacity ladder.
//!
//! Each request is due at `start + i / rate` and is timed from its due
//! time, so a stall charges every request it delays (no coordinated
//! omission). Requests are claimed in order by at most `conns` client
//! threads, one connection each.

use crate::daemon::{Conn, Daemon};
use crate::designs::Slot;
use crate::metrics::{quantile, Tally};
use pilfill_prng::rngs::StdRng;
use pilfill_prng::Rng;
use pilfill_serve::protocol::{
    DesignKey, DesignRef, EditOp, FillStatus, Reply, Request, ERR_UNKNOWN_DESIGN,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Context entries the daemon keeps by default.
pub const CTX_LRU: usize = 8;

/// Retries of a `Busy` reply before the request counts as refused.
const BUSY_RETRIES: u32 = 50;

/// What a request asks of its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// By-hash repeat of the variant.
    Repeat,
    /// Edit of the base into a dup-sink variant.
    DupSink,
    /// Edit of the base into a widen-segment variant.
    Widen,
    /// Inline upload of the variant's full text.
    Upload,
}

/// One planned request.
#[derive(Debug, Clone, Copy)]
pub struct Intent {
    /// Slot index.
    pub slot: usize,
    /// Variant index within the slot.
    pub variant: usize,
    /// Request kind.
    pub kind: Kind,
}

impl Intent {
    /// The wire request of this intent; a repeat names the design by
    /// `key`.
    pub fn request(&self, slots: &[Slot], key: DesignKey) -> Request {
        let slot = &slots[self.slot];
        let v = &slot.variants[self.variant];
        let design = match self.kind {
            Kind::Repeat => DesignRef::Hash(key),
            Kind::DupSink | Kind::Widen => DesignRef::Edit {
                base: slot.base_key(),
                ops: v.op.into_iter().collect(),
            },
            Kind::Upload => DesignRef::Inline(v.text.clone()),
        };
        Request::Fill {
            design,
            params: slot.params.clone(),
        }
    }
}

/// The ECO request mix, drawn from a seeded stream, over a working set
/// of `window` consecutive slots that advances by one slot every
/// `drift_every` requests: 60% by-hash repeats of the slot's current
/// version, 30% dup-sink edits, 5% widen edits and 5% inline re-uploads
/// of the base. A slot's first request is an inline upload.
pub struct Mix {
    rng: StdRng,
    /// Per slot, the variant the latest planned request asked for, or
    /// `None` before the slot's first request.
    current: Vec<Option<usize>>,
    window: usize,
    first: usize,
    /// Requests between advances of the working set (0: never).
    drift_every: usize,
    planned: usize,
}

impl Mix {
    /// A mix over `slots` slots.
    pub fn new(rng: StdRng, slots: usize, window: usize, drift_every: usize) -> Mix {
        Mix {
            rng,
            current: vec![None; slots],
            window: window.min(slots),
            first: 0,
            drift_every,
            planned: 0,
        }
    }

    /// The slots of the current working set.
    pub fn working_set(&self) -> Vec<usize> {
        let n = self.current.len();
        (0..self.window).map(|k| (self.first + k) % n).collect()
    }

    /// Marks `slots` as already uploaded (primed) on the base.
    pub fn primed(&mut self, slots: &[usize]) {
        for &s in slots {
            self.current[s] = Some(0);
        }
    }

    /// The next `n` intents.
    pub fn take(&mut self, slots: &[Slot], n: usize) -> Vec<Intent> {
        (0..n).map(|_| self.next(slots)).collect()
    }

    fn next(&mut self, slots: &[Slot]) -> Intent {
        self.planned += 1;
        if self.drift_every > 0 && self.planned.is_multiple_of(self.drift_every) {
            self.first = (self.first + 1) % slots.len();
        }
        let slot = (self.first + self.rng.gen_range(0..self.window)) % slots.len();
        let base = Intent {
            slot,
            variant: 0,
            kind: Kind::Upload,
        };
        let p: f64 = self.rng.gen();
        let kind = match p {
            p if p < 0.6 => Kind::Repeat,
            p if p < 0.9 => Kind::DupSink,
            p if p < 0.95 => Kind::Widen,
            _ => Kind::Upload,
        };
        let pool: Vec<usize> = (1..slots[slot].variants.len())
            .filter(|&i| kind_of(slots[slot].variants[i].op) == kind)
            .collect();
        let intent = match (self.current[slot], kind) {
            (None, _) | (_, Kind::Upload) => base,
            (_, Kind::DupSink | Kind::Widen) if !pool.is_empty() => Intent {
                slot,
                variant: pool[self.rng.gen_range(0..pool.len())],
                kind,
            },
            (Some(v), _) => Intent {
                slot,
                variant: v,
                kind: Kind::Repeat,
            },
        };
        self.current[slot] = Some(intent.variant);
        intent
    }
}

/// The request kind that reaches an edit variant.
pub fn kind_of(op: Option<EditOp>) -> Kind {
    match op {
        None => Kind::Upload,
        Some(EditOp::DupSink { .. }) => Kind::DupSink,
        Some(EditOp::WidenSegment { .. }) => Kind::Widen,
    }
}

/// The verdict on one reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// A fill whose blob equals the reference.
    Ok {
        /// Serving path.
        status: FillStatus,
        /// Server-side handling time in ns.
        server_ns: u64,
        /// The store key the daemon filed the design under.
        key: DesignKey,
    },
    /// Admission control refused the request.
    Busy,
    /// The store no longer holds the named design.
    UnknownDesign,
    /// A wrong or failed reply; the string names the reason.
    Wrong(String),
}

/// Checks a reply against the reference blob of the requested variant.
pub fn check_reply(reply: &Reply, expected_blob: &[u8]) -> Verdict {
    match reply {
        Reply::FillOk {
            status,
            server_ns,
            blob,
            design_hash,
        } if blob.as_slice() == expected_blob => Verdict::Ok {
            status: *status,
            server_ns: *server_ns,
            key: *design_hash,
        },
        Reply::FillOk { .. } => Verdict::Wrong("blob mismatch".to_string()),
        Reply::Busy { .. } => Verdict::Busy,
        Reply::Err { code, .. } if *code == ERR_UNKNOWN_DESIGN => Verdict::UnknownDesign,
        Reply::Err { code, message } => Verdict::Wrong(format!("error reply {code}: {message}")),
        other => Verdict::Wrong(format!("unexpected reply {other:?}")),
    }
}

/// What the client knows of the daemon: which contexts a model of its
/// LRU holds resident (by slot), and the store key the daemon last
/// returned for each design version.
pub struct ClientModel {
    mru: Vec<usize>,
    keys: HashMap<(usize, usize), DesignKey>,
}

impl ClientModel {
    /// An empty model.
    pub fn new() -> ClientModel {
        ClientModel {
            mru: Vec::new(),
            keys: HashMap::new(),
        }
    }

    /// Records a served fill of `slot`; `true` when the model held the
    /// slot resident before it.
    pub fn touch(&mut self, slot: usize) -> bool {
        let resident = self.mru.contains(&slot);
        self.mru.retain(|&s| s != slot);
        self.mru.insert(0, slot);
        self.mru.truncate(CTX_LRU);
        resident
    }
}

impl Default for ClientModel {
    fn default() -> Self {
        ClientModel::new()
    }
}

/// One completed request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Position in the phase's due order.
    pub index: usize,
    /// Send time minus due time, ms (the backlog a slow daemon builds).
    pub send_late_ms: f64,
    /// Send time minus the later of due time and the moment a client
    /// thread was free, ms (the generator's own lateness).
    pub gen_late_ms: f64,
    /// Completion minus due time, ms.
    pub latency_ms: f64,
    /// Round trip of the final attempt, ms.
    pub rtt_ms: f64,
    /// Serving path of the fill.
    pub status: FillStatus,
    /// Server-side handling time, ms.
    pub server_ms: f64,
    /// Whether a store miss was recovered on the way.
    pub recovered: bool,
    /// Completion time since the phase started, s.
    pub done_s: f64,
}

/// Per-phase daemon-side counts.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// `Busy` replies seen (retried or not).
    pub busy: u64,
    /// Unknown-design replies recovered by an inline upload.
    pub store_miss: u64,
    /// Cold replies for slots the LRU model held resident.
    pub cold_extra: u64,
}

impl Counts {
    fn merge(&mut self, o: &Counts) {
        self.busy += o.busy;
        self.store_miss += o.store_miss;
        self.cold_extra += o.cold_extra;
    }
}

/// The result of one load phase.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Completed requests.
    pub samples: Vec<Sample>,
    /// Attempted / failed requests.
    pub tally: Tally,
    /// Daemon-side counts.
    pub counts: Counts,
    /// Wall time from the first due time to the last completion, s.
    pub wall_s: f64,
}

impl PhaseResult {
    /// Latency quantile in ms over completed requests; a failed request
    /// counts as missing every limit (infinite latency).
    pub fn latency(&self, q: f64) -> f64 {
        let mut v: Vec<f64> = self.samples.iter().map(|s| s.latency_ms).collect();
        v.extend(std::iter::repeat_n(
            f64::INFINITY,
            self.tally.failed as usize,
        ));
        quantile(&v, q)
    }

    /// `true` when send lateness grew from the first to the last quarter
    /// of the phase (by more than 5 ms at the median): the daemon did
    /// not keep up with the offered rate.
    pub fn lateness_grows(&self) -> bool {
        let n = self.samples.len();
        if n < 8 {
            return false;
        }
        let q = n / 4;
        let late =
            |s: &[Sample]| quantile(&s.iter().map(|x| x.send_late_ms).collect::<Vec<_>>(), 0.5);
        late(&self.samples[n - q..]) - late(&self.samples[..q]) > 5.0
    }
}

/// Sends one intent and checks the reply. `Busy` is retried; a store
/// miss (the daemon evicted the named design or the edit's base) is
/// recovered by an inline upload of the requested design version, as a
/// client holding the design would.
fn exchange(
    conn: &mut Conn,
    slots: &[Slot],
    intent: &Intent,
    model: &Mutex<ClientModel>,
    counts: &mut Counts,
) -> Result<(FillStatus, u64, f64), (String, bool)> {
    let v = &slots[intent.slot].variants[intent.variant];
    let id = (intent.slot, intent.variant);
    let known = model
        .lock()
        .expect("client model lock")
        .keys
        .get(&id)
        .copied();
    let mut req = intent.request(slots, known.unwrap_or(v.key));
    let (mut busy, mut recovered) = (0, false);
    loop {
        let t = Instant::now();
        let reply = conn.request(&req).map_err(|e| match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                ("timeout".to_string(), false)
            }
            kind => (format!("io: {kind:?}"), false),
        })?;
        let rtt_ms = t.elapsed().as_secs_f64() * 1e3;
        match check_reply(&reply, &v.blob) {
            Verdict::Busy if busy < BUSY_RETRIES => {
                busy += 1;
                counts.busy += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            Verdict::Busy => {
                counts.busy += 1;
                return Err(("busy past retries".to_string(), false));
            }
            Verdict::UnknownDesign if !recovered => {
                recovered = true;
                counts.store_miss += 1;
                req = Intent {
                    kind: Kind::Upload,
                    ..*intent
                }
                .request(slots, v.key);
            }
            Verdict::UnknownDesign => {
                return Err(("unknown design after an inline upload".to_string(), true))
            }
            Verdict::Wrong(why) => return Err((why, true)),
            Verdict::Ok {
                status,
                server_ns,
                key,
            } => {
                model
                    .lock()
                    .expect("client model lock")
                    .keys
                    .insert(id, key);
                return Ok((status, server_ns, rtt_ms));
            }
        }
    }
}

/// Runs `intents` open-loop at `rate` requests per second over `conns`
/// connections. At an infinite rate every request is sent as soon as a
/// connection is free and is timed from that moment.
///
/// # Errors
///
/// A client connection that cannot be opened.
pub fn open_loop(
    daemon: &Daemon,
    slots: &[Slot],
    intents: &[Intent],
    rate: f64,
    conns: usize,
    model: &Mutex<ClientModel>,
) -> Result<PhaseResult, String> {
    phase(daemon, slots, intents, rate, conns, model, None)
}

/// Runs `intents` closed-loop over `conns` connections, each sending its
/// next request as soon as the previous reply is checked, until the
/// intents run out or `seconds` have passed.
///
/// # Errors
///
/// A client connection that cannot be opened.
pub fn closed_loop(
    daemon: &Daemon,
    slots: &[Slot],
    intents: &[Intent],
    conns: usize,
    model: &Mutex<ClientModel>,
    seconds: f64,
) -> Result<PhaseResult, String> {
    let stop = Instant::now() + Duration::from_secs_f64(seconds);
    phase(
        daemon,
        slots,
        intents,
        f64::INFINITY,
        conns,
        model,
        Some(stop),
    )
}

fn phase(
    daemon: &Daemon,
    slots: &[Slot],
    intents: &[Intent],
    rate: f64,
    conns: usize,
    model: &Mutex<ClientModel>,
    stop: Option<Instant>,
) -> Result<PhaseResult, String> {
    let mut clients = Vec::with_capacity(conns);
    for _ in 0..conns {
        clients.push(daemon.connect().map_err(|e| format!("connect: {e}"))?);
    }
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let parts: Vec<PhaseResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut conn| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = PhaseResult::default();
                    loop {
                        if stop.is_some_and(|t| Instant::now() >= t) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(intent) = intents.get(i) else { break };
                        let free = Instant::now();
                        let due_at = if rate.is_finite() { due(i) } else { free };
                        sleep_until(due_at);
                        let sent = Instant::now();
                        out.tally.attempted += 1;
                        let misses_before = out.counts.store_miss;
                        match exchange(&mut conn, slots, intent, model, &mut out.counts) {
                            Ok((status, server_ns, rtt_ms)) => {
                                let done = Instant::now();
                                let recovered = out.counts.store_miss > misses_before;
                                let resident =
                                    model.lock().expect("client model lock").touch(intent.slot);
                                if status == FillStatus::Cold && resident {
                                    out.counts.cold_extra += 1;
                                }
                                out.samples.push(Sample {
                                    index: i,
                                    send_late_ms: ms(sent.saturating_duration_since(due_at)),
                                    gen_late_ms: ms(
                                        sent.saturating_duration_since(due_at.max(free))
                                    ),
                                    latency_ms: ms(done.saturating_duration_since(due_at)),
                                    rtt_ms,
                                    status,
                                    server_ms: server_ns as f64 / 1e6,
                                    recovered,
                                    done_s: done.saturating_duration_since(start).as_secs_f64(),
                                });
                            }
                            Err((why, wrong)) => {
                                out.tally.fail(why, wrong);
                                if !wrong {
                                    if let Ok(c) = daemon.connect() {
                                        conn = c;
                                    }
                                }
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut result = PhaseResult {
        wall_s: start.elapsed().as_secs_f64(),
        ..PhaseResult::default()
    };
    for p in parts {
        result.samples.extend(p.samples);
        result.tally.merge(&p.tally);
        result.counts.merge(&p.counts);
    }
    result.samples.sort_by_key(|s| s.index);
    Ok(result)
}

/// Sends intents one at a time with no other load; returns the samples.
///
/// # Errors
///
/// A client connection that cannot be opened.
pub fn sequential(
    daemon: &Daemon,
    slots: &[Slot],
    intents: &[Intent],
    model: &Mutex<ClientModel>,
) -> Result<PhaseResult, String> {
    open_loop(daemon, slots, intents, f64::INFINITY, 1, model)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sleeps until `t`, spinning the last 200 µs for an accurate send time.
fn sleep_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Capacity search over a fixed geometric ladder of rates, bisected:
/// `probe(rate)` runs one step and returns the rate it sustained, or
/// `None` when the step missed the limit. Returns the rate sustained at
/// the highest passing rung; rung 0, picked well below the knee, is
/// probed last if no higher rung passed, and its sustained rate is
/// reported even if it failed.
pub fn ladder(
    rungs: &[f64],
    mut probe: impl FnMut(f64) -> Result<Option<f64>, String>,
) -> Result<f64, String> {
    let (mut lo, mut hi) = (0usize, rungs.len());
    let mut best = None;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        match probe(rungs[mid])? {
            Some(sustained) => {
                lo = mid;
                best = Some(sustained);
            }
            None => hi = mid,
        }
    }
    match best {
        Some(b) => Ok(b),
        None => Ok(probe(rungs[0])?.unwrap_or(rungs[0])),
    }
}

/// `n` rungs from `base` upward, 7% apart, so a one-rung flicker moves
/// the result by less than a tenth.
pub fn rungs(base: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|k| (base * 1.07f64.powi(k as i32)).round())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilfill_serve::protocol::DesignKey;

    fn ok_reply(blob: Vec<u8>) -> Reply {
        Reply::FillOk {
            status: FillStatus::Warm,
            server_ns: 1000,
            design_hash: DesignKey([0; 32]),
            blob,
        }
    }

    #[test]
    fn corrupted_blob_is_a_wrong_reply() {
        let expected = vec![1u8, 2, 3, 4];
        assert!(matches!(
            check_reply(&ok_reply(expected.clone()), &expected),
            Verdict::Ok { .. }
        ));
        let mut corrupt = expected.clone();
        corrupt[2] ^= 0x40;
        assert_eq!(
            check_reply(&ok_reply(corrupt), &expected),
            Verdict::Wrong("blob mismatch".into())
        );
        let short = expected[..3].to_vec();
        assert!(matches!(
            check_reply(&ok_reply(short), &expected),
            Verdict::Wrong(_)
        ));
    }

    #[test]
    fn error_replies_are_wrong_and_unknown_design_is_recoverable() {
        let err = Reply::Err {
            code: 3,
            message: "flow".into(),
        };
        assert!(matches!(check_reply(&err, &[]), Verdict::Wrong(_)));
        let unknown = Reply::Err {
            code: ERR_UNKNOWN_DESIGN,
            message: "gone".into(),
        };
        assert_eq!(check_reply(&unknown, &[]), Verdict::UnknownDesign);
        assert_eq!(
            check_reply(&Reply::Busy { inflight: 3 }, &[]),
            Verdict::Busy
        );
    }

    #[test]
    fn lru_model_evicts_beyond_capacity() {
        let mut m = ClientModel::new();
        for s in 0..CTX_LRU {
            assert!(!m.touch(s));
        }
        assert!(m.touch(0));
        assert!(!m.touch(CTX_LRU)); // evicts slot 1
        assert!(!m.touch(1));
    }

    #[test]
    fn ladder_finds_the_last_passing_rung() {
        let r = rungs(100.0, 12);
        assert!(r.windows(2).all(|w| w[1] / w[0] <= 1.1));
        let got = ladder(&r, |rate| Ok((rate <= 160.0).then_some(rate - 0.5))).expect("probe");
        assert_eq!(
            got,
            r.iter()
                .copied()
                .filter(|&x| x <= 160.0)
                .fold(0.0, f64::max)
                - 0.5
        );
    }
}
