//! Workload definitions and seeded op-stream generation.
//!
//! Every client's stream is a pure function of `(workload, seed,
//! client)` and is generated before any timing starts; the store only
//! ever sees the generated ops.

/// One kind of call the benchmark makes. The first seven are client
/// calls on `StoreHandle`; the last three are benchmark-side calls that
/// the traced run records as spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Get,
    MultiGet,
    Put,
    /// A `get` of the key, then a `cas` from the value it returned.
    Cas,
    MultiPut,
    /// A `multi_get` of the pair, then a `multi_cas` from its values.
    MultiCas,
    Snapshot,
    Handle,
    Retire,
    Route,
}

pub const KINDS: usize = 10;

impl Kind {
    pub const ALL: [Kind; KINDS] = [
        Kind::Get,
        Kind::MultiGet,
        Kind::Put,
        Kind::Cas,
        Kind::MultiPut,
        Kind::MultiCas,
        Kind::Snapshot,
        Kind::Handle,
        Kind::Retire,
        Kind::Route,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Get => "get",
            Kind::MultiGet => "multi_get",
            Kind::Put => "put",
            Kind::Cas => "cas",
            Kind::MultiPut => "multi_put",
            Kind::MultiCas => "multi_cas",
            Kind::Snapshot => "snapshot",
            Kind::Handle => "handle",
            Kind::Retire => "retire",
            Kind::Route => "route",
        }
    }

    /// The latency class a call of this kind is reported under, if any.
    pub fn class(self) -> Option<Class> {
        match self {
            Kind::Get | Kind::MultiGet => Some(Class::Read),
            Kind::Put | Kind::Cas => Some(Class::Write),
            Kind::MultiPut | Kind::MultiCas => Some(Class::Multi),
            Kind::Snapshot => Some(Class::Snapshot),
            Kind::Handle => Some(Class::Handle),
            Kind::Retire | Kind::Route => None,
        }
    }
}

/// Latency classes: each end-to-end `<class>_p50_us`/`_p99_us` pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Read,
    Write,
    Multi,
    Snapshot,
    Handle,
}

pub const CLASSES: usize = 5;

impl Class {
    pub const ALL: [Class; CLASSES] = [
        Class::Read,
        Class::Write,
        Class::Multi,
        Class::Snapshot,
        Class::Handle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Write => "write",
            Class::Multi => "multi",
            Class::Snapshot => "snapshot",
            Class::Handle => "handle",
        }
    }
}

/// One generated op. Unused key slots are 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub kind: Kind,
    pub keys: [u32; 4],
}

/// How a workload picks keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Keys {
    /// Zipf(θ = 0.99) over every key, for every op kind.
    Zipf,
    /// Uniform, with the lower half of the key space reserved for
    /// multi-op pairs `(2p, 2p + 1)` and the upper half for `put`.
    /// Reads draw from both halves, so they meet multi-op locks.
    Paired,
}

/// A workload: key space, op mix and store shape.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub keys: u32,
    pub pick: Keys,
    /// Op kinds with their share of the stream, in percent.
    pub mix: &'static [(Kind, u32)],
    pub checkpoint_every: Option<usize>,
    /// Each client replaces its handle every this many ops.
    pub churn_every: Option<u64>,
    /// Ops (both clients together) per round. A round runs on a fresh
    /// store, which keeps an unbounded log's memory to one round's
    /// history.
    pub round_ops: u64,
}

pub const ZIPF_THETA: f64 = 0.99;

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "kv_read_mostly",
        keys: 65_536,
        pick: Keys::Zipf,
        mix: &[(Kind::Get, 95), (Kind::Put, 5)],
        checkpoint_every: None,
        churn_every: None,
        round_ops: 4_000_000,
    },
    Spec {
        name: "kv_write_heavy",
        keys: 65_536,
        pick: Keys::Zipf,
        mix: &[(Kind::Get, 20), (Kind::Put, 60), (Kind::Cas, 20)],
        checkpoint_every: None,
        churn_every: None,
        round_ops: 600_000,
    },
    Spec {
        name: "kv_cross_shard",
        keys: 4_096,
        pick: Keys::Paired,
        mix: &[
            (Kind::Get, 10),
            (Kind::MultiGet, 5),
            (Kind::Put, 55),
            (Kind::MultiPut, 20),
            (Kind::MultiCas, 9),
            (Kind::Snapshot, 1),
        ],
        checkpoint_every: None,
        churn_every: None,
        round_ops: 200_000,
    },
    Spec {
        name: "kv_churn_checkpointed",
        keys: 4_096,
        pick: Keys::Paired,
        mix: &[
            (Kind::Get, 30),
            (Kind::Put, 63),
            (Kind::MultiPut, 5),
            (Kind::Snapshot, 2),
        ],
        checkpoint_every: Some(64),
        churn_every: Some(256),
        round_ops: 400_000,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Ops generated per client; longer runs cycle through the stream.
pub const STREAM_LEN: usize = 1 << 20;

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Inverse-CDF Zipf sampler over ranks `[0, n)`; rank 0 is hottest and
/// a key is its rank.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u32, theta: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|i| {
                acc += 1.0 / f64::from(i).powf(theta);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        let i = self.cdf.partition_point(|&c| c <= u);
        i.min(self.cdf.len() - 1) as u32
    }
}

/// The stream seed for one client: distinct clients of one run, and
/// distinct runs, get unrelated streams.
fn stream_seed(seed: u64, client: usize) -> u64 {
    let mut r = Rng::new(seed ^ 0x243f_6a88_85a3_08d3);
    let base = r.next_u64();
    Rng::new(base ^ (client as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// Generate `len` ops for `client` of `spec` under `seed`.
pub fn stream(spec: &Spec, seed: u64, client: usize, len: usize) -> Vec<Op> {
    let mut rng = Rng::new(stream_seed(seed, client));
    let zipf = (spec.pick == Keys::Zipf).then(|| Zipf::new(spec.keys, ZIPF_THETA));
    let total: u32 = spec.mix.iter().map(|&(_, w)| w).sum();
    let half = spec.keys / 2;
    (0..len)
        .map(|_| {
            let mut roll = rng.below(total);
            let kind = spec
                .mix
                .iter()
                .find(|&&(_, w)| {
                    let hit = roll < w;
                    roll = roll.saturating_sub(w);
                    hit
                })
                .map(|&(k, _)| k)
                .expect("roll is below the mix total");
            let mut keys = [0u32; 4];
            match (&zipf, kind) {
                (_, Kind::Snapshot) => {}
                (Some(z), _) => keys[0] = z.sample(&mut rng),
                (None, Kind::Get) => keys[0] = rng.below(spec.keys),
                (None, Kind::Put | Kind::Cas) => keys[0] = half + rng.below(half),
                (None, Kind::MultiPut | Kind::MultiCas) => {
                    let p = rng.below(half / 2);
                    keys[0] = 2 * p;
                    keys[1] = 2 * p + 1;
                }
                (None, Kind::MultiGet) => {
                    for i in 0..4 {
                        keys[i] = loop {
                            let k = rng.below(spec.keys);
                            if !keys[..i].contains(&k) {
                                break k;
                            }
                        };
                    }
                }
                (None, k) => unreachable!("{k:?} is not generated"),
            }
            Op { kind, keys }
        })
        .collect()
}

/// Keys the op touches (one for single-key kinds, none for snapshot).
pub fn op_keys(op: &Op) -> &[u32] {
    match op.kind {
        Kind::MultiGet => &op.keys,
        Kind::MultiPut | Kind::MultiCas => &op.keys[..2],
        Kind::Snapshot | Kind::Handle | Kind::Retire | Kind::Route => &[],
        Kind::Get | Kind::Put | Kind::Cas => &op.keys[..1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEN: usize = 100_000;

    #[test]
    fn same_seed_gives_identical_streams() {
        for w in &WORKLOADS {
            assert_eq!(stream(w, 7, 0, LEN), stream(w, 7, 0, LEN), "{}", w.name);
            assert_eq!(stream(w, 7, 1, LEN), stream(w, 7, 1, LEN), "{}", w.name);
        }
    }

    #[test]
    fn different_seeds_and_clients_give_different_streams() {
        for w in &WORKLOADS {
            assert_ne!(stream(w, 7, 0, LEN), stream(w, 8, 0, LEN), "{}", w.name);
            assert_ne!(stream(w, 7, 0, LEN), stream(w, 7, 1, LEN), "{}", w.name);
        }
    }

    #[test]
    fn stream_mix_matches_workload_ratios_within_one_percent() {
        for w in &WORKLOADS {
            let ops = stream(w, 3, 0, LEN);
            let total: u32 = w.mix.iter().map(|&(_, p)| p).sum();
            assert_eq!(total, 100, "{}", w.name);
            for &(kind, pct) in w.mix {
                let n = ops.iter().filter(|o| o.kind == kind).count();
                let share = 100.0 * n as f64 / LEN as f64;
                assert!(
                    (share - f64::from(pct)).abs() < 1.0,
                    "{} {kind:?}: {share:.2}% vs {pct}%",
                    w.name
                );
            }
        }
    }

    #[test]
    fn keys_respect_the_key_layout() {
        for w in &WORKLOADS {
            let half = w.keys / 2;
            for op in stream(w, 11, 0, LEN) {
                for &k in op_keys(&op) {
                    assert!(k < w.keys);
                }
                if w.pick == Keys::Paired {
                    match op.kind {
                        Kind::Put => assert!(op.keys[0] >= half),
                        Kind::MultiPut | Kind::MultiCas => {
                            assert!(op.keys[1] < half && op.keys[0] % 2 == 0);
                            assert_eq!(op.keys[1], op.keys[0] + 1);
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(65_536, ZIPF_THETA);
        let mut rng = Rng::new(1);
        let hot = (0..100_000).filter(|_| z.sample(&mut rng) < 16).count();
        // The 16 hottest of 65,536 ranks carry about 29% of Zipf(0.99) mass.
        assert!((25_000..33_000).contains(&hot), "{hot}");
    }
}
