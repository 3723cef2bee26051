//! Closed-loop benchmark of `waitfree-store` over the public
//! `StoreHandle` API.
//!
//! One process runs one workload: two client threads, each sending its
//! next call only when the previous one returns. A run is a sequence of
//! rounds; each round builds a fresh store (set-up, outside the clients'
//! time), then the clients run their pre-generated op streams until the
//! round's op budget or the run's time is used up. Every call is timed
//! and every reply validated.
//!
//! `--trace 0` runs untraced rounds, times extra set-ups between them,
//! and reports the end-to-end metrics. `--trace 1`
//! alternates untraced and traced rounds, and reports the per-layer
//! metrics from the traced rounds plus the tracing overhead between
//! paired rounds.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! perfbench --list      # the workload names, one a line
//! ```
//!
//! While it runs it prints progress lines (`progress ops=<n> timed_s=<t>`,
//! so a caller can account for the ops of a run that dies) and one
//! `round` line per round to stdout; the last line is the result as one
//! JSON object.

mod check;
mod client;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::io::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use waitfree_sched::atomic::diag::{AtomicU64, Ordering};
use waitfree_sched::thread;
use waitfree_store::{route, StoreConfig};

use client::{Client, Handle, Maint, Round, Store, Trace, CLIENTS};
use stats::{median, reportable, Hist};
use workload::{Class, Kind, Spec, STREAM_LEN};

/// The helping bound `bench_store` enforces: a run whose worst invoke
/// threads past `4·clients + 8` decides has broken wait-freedom.
const MAX_THREADING_STEPS: usize = 4 * CLIENTS + 8;

/// An untraced run spends at most this share of its clients' time on
/// the extra set-ups it times for `setup_s`.
const SETUP_SHARE: f64 = 1.0 / 16.0;

/// Spans kept per client in a traced run; later calls are aggregated
/// only.
const SPANS_PER_CLIENT: usize = 1 << 16;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut spec, mut seed, mut seconds, mut trace, mut spans) = (None, None, None, false, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                spec = Some(workload::find(&val).ok_or_else(|| format!("unknown workload {val}"))?);
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--spans" => spans = Some(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        spans,
    })
}

/// Resident set size of this process, in bytes.
fn rss_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap_or_default();
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|p| p.parse().ok())
        .unwrap_or(0);
    pages * 4096
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand freed heap pages back to the kernel, so every round's RSS grows
/// from the same point instead of from the last round's leftovers.
fn trim_heap() {
    // SAFETY: glibc's `malloc_trim` only releases free memory inside the
    // allocator's own arenas; it takes no pointers and is thread-safe.
    unsafe {
        malloc_trim(0);
    }
}

/// The percentiles reported for each latency class.
const QUANTILES: [(f64, &str); 2] = [(0.5, "p50"), (0.99, "p99")];

/// Per-round results the run aggregates.
struct RoundOut {
    timed_s: f64,
    /// RSS at the end of the round's set-up, and its peak while the
    /// clients ran.
    rss0: u64,
    rss_peak: u64,
    ops: u64,
    calls: u64,
    /// The round ran its whole op budget (not cut by the deadline).
    full: bool,
    /// Per latency class: each of [`QUANTILES`] in ns (if reportable),
    /// and the sample count.
    latency: [([Option<u64>; 2], u64); workload::CLASSES],
    /// Checkpoints and reclaims during the round; gauges at its end.
    maint: Maint,
}

/// The rounds of one kind (traced or not) a run measured.
#[derive(Default)]
struct Window {
    rounds: Vec<RoundOut>,
}

impl Window {
    fn ops(&self) -> u64 {
        self.rounds.iter().map(|r| r.ops).sum()
    }

    /// The rounds a per-round statistic is taken over: those that ran
    /// their whole budget, or every round if none did. A round cut by
    /// the deadline ran less history, and its few ops make a noisy
    /// sample.
    fn used(&self) -> Vec<&RoundOut> {
        let full: Vec<&RoundOut> = self.rounds.iter().filter(|r| r.full).collect();
        if full.is_empty() {
            self.rounds.iter().collect()
        } else {
            full
        }
    }

    /// Median over the used rounds of calls per second.
    fn throughput(&self) -> f64 {
        let per: Vec<f64> = self.used().iter().map(|r| r.throughput()).collect();
        median(&per)
    }
}

impl RoundOut {
    fn throughput(&self) -> f64 {
        self.calls as f64 / self.timed_s
    }
}

/// One key per shard, found with the store's router: reading them
/// catches a fresh handle's replicas up during set-up.
fn shard_keys(cfg: &StoreConfig, spec: &Spec) -> Vec<u64> {
    (0..cfg.shards)
        .map(|s| {
            (0..u64::from(spec.keys))
                .find(|k| route(cfg.seed, cfg.shards, k) == s)
                .expect("every shard owns some key")
        })
        .collect()
}

fn setup(cfg: &StoreConfig, spec: &Spec, warm: &[u64]) -> (Store, Vec<Handle>) {
    let store = Store::new(cfg);
    let mut p = store.handle();
    for k in 0..u64::from(spec.keys) {
        p.put(k, check::value(k, 0));
    }
    p.retire();
    drop(p);
    let handles = (0..CLIENTS)
        .map(|_| {
            let mut h = store.handle();
            for k in warm {
                std::hint::black_box(h.get(k));
            }
            h
        })
        .collect();
    (store, handles)
}

/// Build and prefill a store and register the client handles, then drop
/// it all; return the build's time.
fn time_setup(cfg: &StoreConfig, spec: &Spec, warm: &[u64]) -> f64 {
    let t0 = Instant::now();
    let built = setup(cfg, spec, warm);
    let s = t0.elapsed().as_secs_f64();
    drop(built);
    s
}

/// Run one round on a fresh store: set it up, then let the clients run
/// until the round's budget is used up or `seconds` of client time have
/// passed. `timed_before` is the client time of the run's earlier
/// rounds, for the progress lines. With `time_setup_after`, one more
/// set-up is timed once the round's store is dropped, on the heap it
/// freed, and returned.
fn run_round<const TRACE: bool>(
    cfg: &StoreConfig,
    spec: &'static Spec,
    clients: &mut Vec<Client>,
    warm: &[u64],
    seconds: f64,
    timed_before: f64,
    time_setup_after: bool,
) -> (RoundOut, Option<f64>) {
    let t0 = Instant::now();
    let (store, handles) = setup(cfg, spec, warm);
    let setup_s = t0.elapsed().as_secs_f64();
    let rss0 = rss_bytes();
    let maint0 = Maint::of(&store);
    let go = Arc::new(Barrier::new(CLIENTS + 1));
    let round = Arc::new(Round {
        store: store.clone(),
        spec,
        budget: spec.round_ops,
        claimed: AtomicU64::new(0),
        deadline: Instant::now() + Duration::from_secs_f64(seconds),
        progress: Default::default(),
    });
    let ops_before: u64 = clients.iter().map(|c| c.ops).sum();
    let calls_before: u64 = clients.iter().map(|c| c.calls).sum();
    let joins: Vec<_> = clients
        .drain(..)
        .zip(handles)
        .map(|(mut c, h)| {
            let (round, go) = (Arc::clone(&round), Arc::clone(&go));
            thread::spawn(move || {
                go.wait();
                // A panic inside the store ends this client's round;
                // its state comes back either way.
                let r = panic::catch_unwind(AssertUnwindSafe(|| c.run::<TRACE>(&round, h)));
                (c, r.is_err())
            })
        })
        .collect();
    go.wait();
    let started = Instant::now();
    let mut rss_peak = rss0;
    // ordering: Relaxed [no-edge] — heartbeat counts; the joins below
    // order everything the clients did before it is read.
    let done = |i: usize| round.progress[i].0.load(Ordering::Relaxed);
    // progress: bounded — the clients stop at the round's deadline.
    while !joins.iter().all(|j| j.is_finished()) {
        thread::sleep(Duration::from_millis(100));
        rss_peak = rss_peak.max(rss_bytes());
        let timed = timed_before + started.elapsed().as_secs_f64();
        println!("progress ops={} timed_s={timed:.3}", done(0) + done(1));
    }
    for j in joins {
        let (mut c, panicked) = j.join().expect("a client's panics are caught");
        if panicked {
            // The op that panicked failed, and so did every op its
            // peer ran after it: the panicked client would have run
            // them.
            let unrun = done(1 - c.id).saturating_sub(done(c.id));
            c.ops += unrun;
            c.failed += unrun + 1;
            c.faults
                .push(format!("client {} panicked after {} ops", c.id, c.ops));
        }
        clients.push(c);
    }
    drop(round);
    rss_peak = rss_peak.max(rss_bytes());
    let ops: u64 = clients.iter().map(|c| c.ops).sum::<u64>() - ops_before;
    let calls: u64 = clients.iter().map(|c| c.calls).sum::<u64>() - calls_before;
    let mut merged = Hist::new();
    let latency = std::array::from_fn(|class| {
        for c in clients.iter_mut() {
            merged.merge(&c.hists[class]);
            c.hists[class].clear();
        }
        let q = QUANTILES.map(|(q, _)| reportable(&mut merged, q));
        let n = merged.len();
        merged.clear();
        (q, n)
    });
    let start = clients.iter().map(|c| c.window.0).min().expect("clients");
    let end = clients.iter().map(|c| c.window.1).max().expect("clients");
    let timed_s = end.duration_since(start).as_secs_f64();
    println!(
        "round traced={} ops={ops} setup_s={setup_s:.4} timed_s={timed_s:.4} rss0_mib={:.1} rss_peak_mib={:.1}",
        u8::from(TRACE),
        rss0 as f64 / f64::from(1 << 20),
        rss_peak as f64 / f64::from(1 << 20),
    );
    let mut maint = Maint::of(&store);
    maint.checkpoints -= maint0.checkpoints;
    maint.reclaimed -= maint0.reclaimed;
    drop(store);
    let extra_setup = time_setup_after.then(|| time_setup(cfg, spec, warm));
    trim_heap();
    let out = RoundOut {
        timed_s,
        rss0,
        rss_peak,
        full: ops == spec.round_ops,
        ops,
        calls,
        latency,
        maint,
    };
    (out, extra_setup)
}

/// Run rounds until `seconds` of client time have been measured. With
/// `trace`, rounds alternate untraced and traced, so both kinds see the
/// same stretch of host load. Without it every round is untraced, and
/// extra set-ups are timed between rounds, spread over the run, while
/// they have taken less than [`SETUP_SHARE`] of the clients' time.
/// Returns the untraced rounds, the traced rounds and the set-up times.
fn run_rounds(
    cfg: &StoreConfig,
    spec: &'static Spec,
    clients: &mut Vec<Client>,
    seconds: f64,
    trace: bool,
) -> (Window, Window, Vec<f64>) {
    let warm = shard_keys(cfg, spec);
    let (mut untraced, mut traced) = (Window::default(), Window::default());
    let mut setups = Vec::new();
    let mut timed = 0.0;
    // A sliver of remaining time would cost a whole set-up for a
    // handful of ops; the run ends short of it instead.
    while untraced.rounds.is_empty() || seconds - timed > 0.05 {
        let left = seconds - timed;
        let (r, setup) = if trace && untraced.rounds.len() > traced.rounds.len() {
            let (r, _) = run_round::<true>(cfg, spec, clients, &warm, left, timed, false);
            traced.rounds.push(r);
            (traced.rounds.last(), None)
        } else {
            let sample = !trace && setups.iter().sum::<f64>() <= SETUP_SHARE * timed;
            let (r, setup) = run_round::<false>(cfg, spec, clients, &warm, left, timed, sample);
            untraced.rounds.push(r);
            (untraced.rounds.last(), setup)
        };
        timed += r.expect("just pushed").timed_s;
        setups.extend(setup);
    }
    (untraced, traced, setups)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: u64,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

/// `num / den`, with `den` as the sample count; 0 when the workload
/// makes no such call.
fn ratio(name: &str, num: u64, den: u64, unit: &'static str) -> Metric {
    let v = if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    };
    metric(name, v, unit, den)
}

/// The end-to-end metrics: `setup_s` the median of the set-ups timed
/// between rounds, the others each a median over the window's used rounds (see
/// [`Window::used`]), with its sample count.
fn end_to_end(setups: &[f64], w: &Window, attempted: u64, failed: u64) -> Vec<Metric> {
    let used = w.used();
    let calls: u64 = used.iter().map(|r| r.calls).sum();
    let mut out = vec![
        metric("setup_s", median(setups), "s", setups.len() as u64),
        metric("throughput_ops_s", w.throughput(), "1/s", calls),
    ];
    for class in Class::ALL {
        let c = class as usize;
        let n: u64 = used.iter().map(|r| r.latency[c].1).sum();
        for (i, (_, label)) in QUANTILES.iter().enumerate() {
            // A percentile is reported only if every used round could
            // report it under the ten-beyond rule.
            let per: Option<Vec<f64>> = used
                .iter()
                .map(|r| r.latency[c].0[i].map(|ns| ns as f64))
                .collect();
            if let Some(per) = per {
                out.push(metric(
                    format!("{}_{label}_us", class.name()),
                    median(&per) / 1e3,
                    "us",
                    n,
                ));
            }
        }
    }
    // Peak RSS while the clients ran, over the RSS at the end of the
    // first round's set-up. Each round starts on a fresh store, but the
    // allocator keeps part of the last round's freed heap, so later
    // set-ups end higher; the first one is the baseline.
    let base = w.rounds.first().map_or(0, |r| r.rss0);
    let growth: Vec<f64> = used
        .iter()
        .map(|r| r.rss_peak.saturating_sub(base) as f64)
        .collect();
    out.push(metric(
        "rss_mib",
        median(&growth) / f64::from(1 << 20),
        "MiB",
        growth.len() as u64,
    ));
    out.push(ratio("error_rate", failed, attempted, "1"));
    out
}

fn per_layer(
    clients: &[Client],
    traced: &Window,
    untraced: &Window,
    route: (f64, u64),
) -> Vec<Metric> {
    let mut agg = [client::KindAgg::default(); workload::KINDS];
    for c in clients {
        for (a, b) in agg.iter_mut().zip(&c.trace.agg) {
            a.calls += b.calls;
            a.steps.add(b.steps);
        }
    }
    let sum = |kinds: &[Kind], f: fn(&client::Steps) -> u64| -> (u64, u64) {
        kinds.iter().fold((0, 0), |(n, c), &k| {
            (n + f(&agg[k as usize].steps), c + agg[k as usize].calls)
        })
    };
    let invokes = |s: &client::Steps| s.invokes;
    let replayed = |s: &client::Steps| s.replayed;
    let reads = [Kind::Get, Kind::MultiGet];
    let writes = [Kind::Put, Kind::Cas];
    let multis = [Kind::MultiPut, Kind::MultiCas];
    let (multi_inv, multi_n) = sum(&multis, invokes);
    let (snap_inv, snap_n) = sum(&[Kind::Snapshot], invokes);
    let (read_inv, read_n) = sum(&reads, invokes);
    let (read_rep, _) = sum(&reads, replayed);
    let (write_rep, write_n) = sum(&writes, replayed);
    let (all_inv, _) = sum(&Kind::ALL, invokes);
    let (all_dec, _) = sum(&Kind::ALL, |s| s.decides);
    let (all_casf, _) = sum(&Kind::ALL, |s| s.cas_failures);
    let attempts: u64 = clients.iter().map(|c| c.multi_cas_attempts).sum();
    let commits: u64 = clients.iter().map(|c| c.multi_cas_commits).sum();
    let max_steps = clients
        .iter()
        .map(|c| c.max_threading_steps)
        .max()
        .unwrap_or(0);
    let kops = traced.ops() as f64 / 1e3;
    let checkpoints: u64 = traced.rounds.iter().map(|r| r.maint.checkpoints).sum();
    let reclaimed: u64 = traced.rounds.iter().map(|r| r.maint.reclaimed).sum();
    let peak = |f: fn(&Maint) -> u64, g: fn(&Trace) -> u64| {
        let rounds = traced.rounds.iter().map(|r| f(&r.maint)).max().unwrap_or(0);
        clients.iter().map(|c| g(&c.trace)).fold(rounds, u64::max)
    };
    let live = peak(|m| m.live_segments, |t| t.peak_live_segments);
    let slots = peak(|m| m.registry_slots, |t| t.peak_registry_slots);
    vec![
        metric("router.route_ns", route.0, "ns", route.1),
        ratio("store.multi_invokes_per_op", multi_inv, multi_n, "1/op"),
        ratio("store.snapshot_invokes_per_op", snap_inv, snap_n, "1/op"),
        ratio("store.read_help_invokes_per_op", read_inv, read_n, "1/op"),
        ratio("store.multi_cas_commit_ratio", commits, attempts, "1"),
        ratio("universal.decides_per_invoke", all_dec, all_inv, "1/invoke"),
        ratio(
            "universal.cas_failures_per_invoke",
            all_casf,
            all_inv,
            "1/invoke",
        ),
        metric(
            "universal.max_threading_steps",
            max_steps as f64,
            "count",
            clients.len() as u64,
        ),
        ratio(
            "universal.positions_replayed_per_read",
            read_rep,
            read_n,
            "1/op",
        ),
        ratio(
            "universal.positions_replayed_per_write",
            write_rep,
            write_n,
            "1/op",
        ),
        metric(
            "maint.checkpoints_per_kop",
            checkpoints as f64 / kops,
            "1/kop",
            traced.ops(),
        ),
        metric(
            "maint.reclaimed_segments_per_kop",
            reclaimed as f64 / kops,
            "1/kop",
            traced.ops(),
        ),
        metric(
            "maint.live_segments",
            live as f64,
            "count",
            traced.rounds.len() as u64,
        ),
        metric(
            "maint.registry_slots",
            slots as f64,
            "count",
            traced.rounds.len() as u64,
        ),
        trace_overhead(untraced, traced),
    ]
}

/// The median over paired rounds (the i-th untraced and the i-th traced
/// round, both full if any pair is) of the traced round's throughput
/// loss, in percent. The pairs ran one after the other, so host drift
/// between them is small next to the run's.
fn trace_overhead(untraced: &Window, traced: &Window) -> Metric {
    let pairs: Vec<(&RoundOut, &RoundOut)> = untraced.rounds.iter().zip(&traced.rounds).collect();
    let full: Vec<_> = pairs.iter().filter(|(u, t)| u.full && t.full).collect();
    let used = if full.is_empty() { pairs.iter().collect() } else { full };
    let loss: Vec<f64> = used
        .iter()
        .map(|(u, t)| (1.0 - t.throughput() / u.throughput()) * 100.0)
        .collect();
    metric("trace.overhead_pct", median(&loss), "%", loss.len() as u64)
}

/// Time `route` over the run's keys with the store's seed: the mean of
/// one pass, median of five passes, each pass one span.
fn time_route(cfg: &StoreConfig, keys: &[u64], trace: &mut Trace) -> (f64, u64) {
    let per_call: Vec<f64> = (0..5)
        .map(|pass| {
            let t0 = Instant::now();
            let mut acc = 0usize;
            for k in keys {
                acc = acc.wrapping_add(route(cfg.seed, cfg.shards, std::hint::black_box(k)));
            }
            std::hint::black_box(acc);
            let t1 = Instant::now();
            trace.call(Kind::Route, u8::MAX, pass, t0, t1, client::Steps::default());
            t1.duration_since(t0).as_nanos() as f64 / keys.len() as f64
        })
        .collect();
    (median(&per_call), 5 * keys.len() as u64)
}

fn write_spans(path: &str, clients: &[Client], main: &Trace) -> std::io::Result<()> {
    let mut spans: Vec<&client::Span> = clients
        .iter()
        .flat_map(|c| &c.trace.spans)
        .chain(&main.spans)
        .collect();
    spans.sort_by_key(|s| s.start_ns);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "kind,client,op,start_ns,end_ns,decides,cas_failures,invokes,replayed"
    )?;
    for s in spans {
        let st = &s.steps;
        writeln!(
            out,
            "{},{},{},{},{},{},{},{},{}",
            s.kind.name(),
            s.client,
            s.op,
            s.start_ns,
            s.end_ns,
            st.decides,
            st.cas_failures,
            st.invokes,
            st.replayed
        )?;
    }
    out.flush()
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--list") {
        for w in &workload::WORKLOADS {
            println!("{}", w.name);
        }
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let spec = args.spec;

    let cfg = StoreConfig {
        checkpoint_every: spec.checkpoint_every,
        ..StoreConfig::default()
    };
    let epoch = Instant::now();
    let span_cap = if args.trace { SPANS_PER_CLIENT } else { 0 };
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|c| {
            Client::new(
                c,
                workload::stream(spec, args.seed, c, STREAM_LEN),
                Trace::new(epoch, span_cap),
            )
        })
        .collect();

    let mut main_trace = Trace::new(epoch, 8);
    let route_ns = if args.trace {
        let keys: Vec<u64> = clients[0].stream_keys().map(u64::from).collect();
        time_route(&cfg, &keys, &mut main_trace)
    } else {
        (0.0, 0)
    };
    let (untraced, traced, setups) =
        run_rounds(&cfg, spec, &mut clients, args.seconds, args.trace);

    let attempted: u64 = clients.iter().map(|c| c.ops).sum();
    let failed: u64 = clients.iter().map(|c| c.failed).sum();
    let mut faults: Vec<String> = clients
        .iter()
        .flat_map(|c| c.faults.iter().cloned())
        .collect();
    let max_steps = clients
        .iter()
        .map(|c| c.max_threading_steps)
        .max()
        .unwrap_or(0);
    if max_steps > MAX_THREADING_STEPS {
        faults.push(format!(
            "{max_steps} threading steps exceed the bound {MAX_THREADING_STEPS}"
        ));
    }
    let metrics = if args.trace {
        per_layer(&clients, &traced, &untraced, route_ns)
    } else {
        end_to_end(&setups, &untraced, attempted, failed)
    };
    if let (Some(path), true) = (&args.spans, args.trace) {
        if let Err(e) = write_spans(path, &clients, &main_trace) {
            faults.push(format!("writing spans to {path}: {e}"));
        }
    }
    let correct = failed == 0 && faults.is_empty();

    let mut js = format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\
         \"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"faults\":[{}],\"metrics\":{{",
        json_str(spec.name),
        args.seed,
        u8::from(args.trace),
        faults.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(","),
    );
    for (i, m) in metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            js,
            "{}{}:{{\"value\":{v},\"unit\":{},\"samples\":{}}}",
            if i == 0 { "" } else { "," },
            json_str(&m.name),
            json_str(m.unit),
            m.samples
        );
    }
    js.push_str("}}");
    println!("{js}");
}
