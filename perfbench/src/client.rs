//! One closed-loop client: runs its op stream against a `StoreHandle`,
//! times every call, validates every reply and, in a traced run, records
//! a span and the universal-object counter deltas for every call.

use std::time::Instant;

use waitfree_sched::atomic::diag::{AtomicU64, Ordering};

use waitfree_store::{ShardedStore, StoreHandle};

use crate::check::{self, Fault};
use crate::stats::Hist;
use crate::workload::{Kind, Op, Spec, CLASSES, KINDS};

pub const CLIENTS: usize = 2;

pub type Store = ShardedStore<u64, u64>;
pub type Handle = StoreHandle<u64, u64>;

/// Universal-object counters of one `StoreHandle`, summed over its
/// shard handles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Steps {
    pub decides: u64,
    pub cas_failures: u64,
    pub invokes: u64,
    pub replayed: u64,
}

impl Steps {
    pub fn of(h: &Handle, shards: usize) -> Steps {
        let mut s = Steps::default();
        for i in 0..shards {
            let sh = h.shard_handle(i);
            s.decides += sh.decides() as u64;
            s.cas_failures += sh.cas_failures() as u64;
            s.invokes += sh.invokes() as u64;
            s.replayed += sh.replayed() as u64;
        }
        s
    }

    fn minus(self, o: Steps) -> Steps {
        Steps {
            decides: self.decides - o.decides,
            cas_failures: self.cas_failures - o.cas_failures,
            invokes: self.invokes - o.invokes,
            replayed: self.replayed - o.replayed,
        }
    }

    pub fn add(&mut self, o: Steps) {
        self.decides += o.decides;
        self.cas_failures += o.cas_failures;
        self.invokes += o.invokes;
        self.replayed += o.replayed;
    }
}

/// One traced call: kind, client, op index, start and end (ns since the
/// run's epoch), and the counters the call moved.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    pub client: u8,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub steps: Steps,
}

/// Calls and counter deltas of one kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct KindAgg {
    pub calls: u64,
    pub steps: Steps,
}

/// Store-wide maintenance gauges read through `ShardedStore::shard`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Maint {
    pub checkpoints: u64,
    pub reclaimed: u64,
    pub live_segments: u64,
    pub registry_slots: u64,
}

impl Maint {
    pub fn of(store: &Store) -> Maint {
        let mut m = Maint::default();
        for s in 0..store.shards() {
            let u = store.shard(s);
            m.checkpoints += u.checkpoints() as u64;
            m.reclaimed += u.reclaimed_segments() as u64;
            m.live_segments += u.live_segments() as u64;
            m.registry_slots = m.registry_slots.max(u.registry_slots() as u64);
        }
        m
    }
}

/// What the traced run keeps: spans in memory (up to a cap, written out
/// at the end), per-kind totals, and peak maintenance gauges.
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
    span_cap: usize,
    pub agg: [KindAgg; KINDS],
    prev: Steps,
    pub peak_live_segments: u64,
    pub peak_registry_slots: u64,
}

impl Trace {
    pub fn new(epoch: Instant, span_cap: usize) -> Self {
        Trace {
            epoch,
            spans: Vec::with_capacity(span_cap),
            span_cap,
            agg: [KindAgg::default(); KINDS],
            prev: Steps::default(),
            peak_live_segments: 0,
            peak_registry_slots: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span; `now` are the counters at its end.
    pub fn call(
        &mut self,
        kind: Kind,
        client: u8,
        op: u64,
        start: Instant,
        end: Instant,
        now: Steps,
    ) {
        let steps = now.minus(self.prev);
        self.prev = now;
        let a = &mut self.agg[kind as usize];
        a.calls += 1;
        a.steps.add(steps);
        if self.spans.len() < self.span_cap {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                kind,
                client,
                op,
                start_ns,
                end_ns,
                steps,
            });
        }
    }

    /// Take `now` as the counter baseline (a fresh handle).
    pub fn rebase(&mut self, now: Steps) {
        self.prev = now;
    }

    pub fn sample_maint(&mut self, m: Maint) {
        self.peak_live_segments = self.peak_live_segments.max(m.live_segments);
        self.peak_registry_slots = self.peak_registry_slots.max(m.registry_slots);
    }
}

/// The state one round shares between its clients.
pub struct Round {
    pub store: Store,
    pub spec: &'static Spec,
    /// The round's op budget, both clients together.
    pub budget: u64,
    /// Ops of the budget already claimed, in chunks of [`CHUNK`].
    pub claimed: AtomicU64,
    pub deadline: Instant,
    /// Ops each client has completed in this run, for the progress
    /// heartbeat (written every 64 ops).
    pub progress: [Padded; CLIENTS],
}

#[repr(align(128))]
#[derive(Default)]
pub struct Padded(pub AtomicU64);

/// Ops a client claims from the round budget at a time.
const CHUNK: u64 = 64;

/// Faults kept verbatim per client; later ones are only counted.
const KEEP_FAULTS: usize = 8;

/// One client's state across the rounds of a run.
pub struct Client {
    pub id: usize,
    stream: Vec<Op>,
    next: usize,
    pub hists: [Hist; CLASSES],
    writes: u32,
    /// Client calls completed (a `cas` op is a `get` and a `cas` call).
    pub calls: u64,
    /// Stream ops started, failed ones included.
    pub ops: u64,
    pub failed: u64,
    pub faults: Vec<String>,
    pub multi_cas_attempts: u64,
    pub multi_cas_commits: u64,
    pub max_threading_steps: usize,
    since_churn: u64,
    retire_next: bool,
    pub trace: Trace,
    /// Start and end of this client's part of the last round.
    pub window: (Instant, Instant),
}

impl Client {
    pub fn new(id: usize, stream: Vec<Op>, trace: Trace) -> Self {
        let now = Instant::now();
        Client {
            id,
            stream,
            next: 0,
            hists: std::array::from_fn(|_| Hist::new()),
            writes: 0,
            calls: 0,
            ops: 0,
            failed: 0,
            faults: Vec::new(),
            multi_cas_attempts: 0,
            multi_cas_commits: 0,
            max_threading_steps: 0,
            since_churn: 0,
            retire_next: true,
            trace,
            window: (now, now),
        }
    }

    /// Every key this client's stream touches, in stream order.
    pub fn stream_keys(&self) -> impl Iterator<Item = u32> + '_ {
        self.stream
            .iter()
            .flat_map(crate::workload::op_keys)
            .copied()
    }

    /// A fresh tag for one write (or one multi-op's pair of writes).
    fn tag(&mut self) -> u32 {
        self.writes = self.writes.wrapping_add(1);
        self.writes << 1 | self.id as u32
    }

    fn verdict(&mut self, r: Result<(), Fault>) {
        if let Err(f) = r {
            self.failed += 1;
            if self.faults.len() < KEEP_FAULTS {
                self.faults
                    .push(format!("client {} op {}: {f}", self.id, self.ops));
            }
        }
    }

    /// Close the call that started at `*t`: record its latency (and span)
    /// and make its end the next call's start.
    #[inline]
    fn lap<const TRACE: bool>(&mut self, kind: Kind, h: &Handle, shards: usize, t: &mut Instant) {
        let now = Instant::now();
        if let Some(c) = kind.class() {
            self.hists[c as usize].record(now.duration_since(*t).as_nanos() as u64);
        }
        if kind.class().is_some() && kind != Kind::Handle {
            self.calls += 1;
        }
        if TRACE {
            self.trace
                .call(kind, self.id as u8, self.ops, *t, now, Steps::of(h, shards));
        }
        *t = now;
    }

    /// Run this client's next ops until the round's budget is used up
    /// or its deadline passes. Consumes `h`.
    pub fn run<const TRACE: bool>(&mut self, r: &Round, mut h: Handle) {
        let shards = r.store.shards();
        if TRACE {
            self.trace.rebase(Steps::of(&h, shards));
        }
        let mut t = Instant::now();
        // Set first, so a client that panics still has its start.
        self.window = (t, t);
        let mut left = 0;
        // progress: bounded — every pass consumes one op of the finite
        // round budget.
        while t < r.deadline {
            if left == 0 {
                // ordering: Relaxed [no-edge] — a progress count for the
                // heartbeat; it publishes no data.
                r.progress[self.id].0.store(self.ops, Ordering::Relaxed);
                // ordering: Relaxed [no-edge] — the claim only divides the
                // budget; each client's ops touch no shared benchmark data.
                let got = r.claimed.fetch_add(CHUNK, Ordering::Relaxed);
                if got >= r.budget {
                    break;
                }
                left = CHUNK.min(r.budget - got);
            }
            left -= 1;
            let op = self.stream[self.next % self.stream.len()];
            self.next += 1;
            self.ops += 1;
            self.exec::<TRACE>(&mut h, shards, op, r.spec, &mut t);
            if let Some(every) = r.spec.churn_every {
                self.since_churn += 1;
                if self.since_churn == every {
                    self.since_churn = 0;
                    self.replace::<TRACE>(&r.store, &mut h, &mut t);
                }
            }
        }
        self.window.1 = t;
        self.max_threading_steps = self.max_threading_steps.max(h.max_threading_steps());
        // ordering: Relaxed [no-edge] — a progress count for the heartbeat.
        r.progress[self.id].0.store(self.ops, Ordering::Relaxed);
    }

    fn exec<const TRACE: bool>(
        &mut self,
        h: &mut Handle,
        shards: usize,
        op: Op,
        spec: &Spec,
        t: &mut Instant,
    ) {
        let [a, b, ..] = op.keys.map(u64::from);
        match op.kind {
            Kind::Get => {
                let v = h.get(&a);
                self.lap::<TRACE>(Kind::Get, h, shards, t);
                self.verdict(check::reply(a, v).map(drop));
            }
            Kind::Put => {
                let tag = self.tag();
                let prev = h.put(a, check::value(a, tag));
                self.lap::<TRACE>(Kind::Put, h, shards, t);
                self.verdict(check::reply(a, prev).map(drop));
            }
            Kind::Cas => {
                let v = h.get(&a);
                self.lap::<TRACE>(Kind::Get, h, shards, t);
                match check::reply(a, v) {
                    Ok(seen) => {
                        let new = check::value(a, self.tag());
                        let (ok, prev) = h.cas(a, Some(seen), Some(new));
                        self.lap::<TRACE>(Kind::Cas, h, shards, t);
                        self.verdict(check::cas(a, seen, ok, prev));
                    }
                    Err(f) => self.verdict(Err(f)),
                }
            }
            Kind::MultiGet => {
                let vs = h.multi_get(&op.keys.map(u64::from));
                self.lap::<TRACE>(Kind::MultiGet, h, shards, t);
                let r = op
                    .keys
                    .iter()
                    .zip(vs)
                    .try_for_each(|(&k, v)| check::reply(k.into(), v).map(drop));
                self.verdict(r);
            }
            Kind::MultiPut => {
                let tag = self.tag();
                h.multi_put([
                    (a, Some(check::value(a, tag))),
                    (b, Some(check::value(b, tag))),
                ]);
                self.lap::<TRACE>(Kind::MultiPut, h, shards, t);
            }
            Kind::MultiCas => {
                let vs = h.multi_get(&[a, b]);
                self.lap::<TRACE>(Kind::MultiGet, h, shards, t);
                let seen = check::reply(a, vs[0]).and_then(|va| Ok((va, check::reply(b, vs[1])?)));
                match seen {
                    Ok((va, vb)) => {
                        let tag = self.tag();
                        let writes = [
                            (a, Some(check::value(a, tag))),
                            (b, Some(check::value(b, tag))),
                        ];
                        let ok = h.multi_cas([(a, Some(va)), (b, Some(vb))], writes);
                        self.lap::<TRACE>(Kind::MultiCas, h, shards, t);
                        self.multi_cas_attempts += 1;
                        self.multi_cas_commits += u64::from(ok);
                        self.verdict(check::multi_cas(a, b, va, vb, ok));
                    }
                    Err(f) => self.verdict(Err(f)),
                }
            }
            Kind::Snapshot => {
                let snap = h.snapshot();
                self.lap::<TRACE>(Kind::Snapshot, h, shards, t);
                let keys = u64::from(spec.keys);
                self.verdict(check::snapshot(&snap.map, keys, keys / 2));
                drop(snap);
                // Checking and freeing a whole-store map is not the
                // next call's latency.
                *t = Instant::now();
            }
            k => unreachable!("{k:?} is not a stream op"),
        }
    }

    /// Replace the handle: register a new one, then retire-and-drop or
    /// plainly drop (crash) the old one, alternately.
    fn replace<const TRACE: bool>(&mut self, store: &Store, h: &mut Handle, t: &mut Instant) {
        let shards = store.shards();
        self.max_threading_steps = self.max_threading_steps.max(h.max_threading_steps());
        if TRACE {
            self.trace.sample_maint(Maint::of(store));
        }
        *t = Instant::now();
        let new = store.handle();
        self.lap::<TRACE>(Kind::Handle, h, shards, t);
        let mut old = std::mem::replace(h, new);
        if self.retire_next {
            old.retire();
            self.lap::<TRACE>(Kind::Retire, &old, shards, t);
        }
        self.retire_next = !self.retire_next;
        drop(old);
        if TRACE {
            self.trace.rebase(Steps::of(h, shards));
        }
        *t = Instant::now();
    }
}
