//! The per-shard replicated state machine.
//!
//! Each shard of a [`ShardedStore`](crate::ShardedStore) is one
//! `WfUniversal<ShardState<K, V, M>>`: a deterministic sequential
//! object decided into a consensus log and replayed identically by
//! every client. Everything the store guarantees — multi-key atomicity
//! and consistent snapshots included — is therefore expressed as *state
//! transitions of this machine*; the front-end in `lib.rs` only chooses
//! which ops to decide where.
//!
//! Three op families:
//!
//! * **Single-key** ([`ShardOp::Get`]/[`Put`](ShardOp::Put)/
//!   [`Cas`](ShardOp::Cas)/[`Update`](ShardOp::Update)) read or mutate
//!   `map` directly. *Any* op targeting a key locked by an in-flight
//!   multi-op — reads included — returns [`ShardResp::Blocked`] with
//!   the full holder descriptor — enough for the caller to *help* the
//!   multi-op to completion and retry. `Get` must block too: the
//!   multi's resolve lands on its shards at different log positions,
//!   so a reader free-riding past the locks could observe shard A
//!   after its resolve and shard B before it — a half-applied
//!   multi-op with no valid linearization.
//!
//! * **Multi-key two-phase** ([`ShardOp::Prepare`]/[`Resolve`](ShardOp::Resolve)/
//!   [`Settle`](ShardOp::Settle)).
//!   `Prepare` atomically locks every locally-owned key of the
//!   descriptor, evaluates the local expectations, and records an
//!   immutable vote. `Resolve` applies the writes (on commit), frees
//!   the locks, and leaves a tombstone. `Settle` — decided only after
//!   its sender saw `Resolve` acknowledged on *every* involved shard —
//!   retires the commit from the possibly-torn window that snapshot
//!   captures carry (see below). All three are idempotent under
//!   helping: a duplicate `Prepare` returns the recorded vote,
//!   duplicate `Resolve`/`Settle` ack. Votes are recorded exactly once
//!   per shard, so every resolver — initiator or helper — computes the
//!   same commit verdict.
//!
//! * **Snapshot markers** ([`ShardOp::Marker`]). Deciding `Marker{e}`
//!   captures this shard's contribution to global snapshot `e`
//!   ([`SnapPart`]). Consistency across shards is the *stamp rule*:
//!   every mutating op carries the epoch its client read **before**
//!   invoking ([`Ctx::epoch`]), and a mutation stamped `>= e` that gets
//!   decided before shard-local marker `e` triggers a pre-mutation
//!   *early capture* — the part is photographed before the mutation
//!   applies, so the straggler is excluded. See DESIGN §13 for the
//!   argument that this yields a causally consistent cut.
//!
//! All maps are `BTreeMap`/`BTreeSet` (not hash maps): the state must
//! be `Eq + Hash` for the linearizability checker, and iteration order
//! must be deterministic for replay.
//!
//! The key→value map sits behind an `Arc` and is copied on write: every
//! client replays every marker into its own replica (Herlihy §4.1), so a
//! capture must cost O(1), not O(|map|), in each of them. A capture
//! shares the map; the first write that meets a still-alive capture
//! copies it once (`Arc::make_mut`), and a replica whose capture is
//! already dropped — a non-owner's marker response, discarded as soon
//! as replay applies it — mutates in place.
//!
//! Ops are kept small for the same reason: every decided op stays in
//! the log, and is replayed into every replica, for the life of the log.
//! A mutation's [`Ctx`] is the epoch stamp plus a [`Know`] vector that
//! only the debug-build cut check reads, so release builds carry the
//! stamp alone. A multi-op descriptor is allocated once by its proposer
//! and shared by `Arc` from then on: the `Prepare` op, each replica's
//! `pending` entry and every `Blocked` answer hold the same allocation.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::Arc;

use waitfree_model::{ObjectSpec, Pid};

use crate::router::route;

/// Store-wide unique identity of one multi-key operation, drawn from a
/// shared counter so helpers and initiators name the same attempt.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MultiId(pub u64);

/// Causal context stamped on every mutating op by the invoking client.
/// It travels inside every decided mutation for the life of the log, so
/// it carries only what a build reads: in release builds it is the 8-B
/// epoch stamp alone, because [`Know`] is zero-sized there.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Ctx {
    /// The store epoch counter as read by the client immediately before
    /// this invoke. Drives snapshot early-capture (see module docs).
    pub epoch: u64,
    /// Shard versions this client has observed (from prior responses).
    /// Merged into the replica's own so the debug-build cut check can
    /// verify the snapshot against real cross-shard dependencies.
    pub know: Know,
}

/// Shard versions observed so far, indexed by shard: a client's (from
/// its responses), a replica's (merged from every op applied), or a
/// capture's (the replica's at the cut). The only reader is the snapshot
/// cut check (`know[s][t] <= version[t]`), which runs in builds with
/// `debug_assertions`; those builds carry the vector. Other builds carry
/// a zero-sized stand-in whose updates are no-ops, so release log
/// entries pay neither its bytes nor its allocation.
#[cfg(debug_assertions)]
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Know(Vec<u64>);

#[cfg(debug_assertions)]
impl Know {
    /// Nothing observed yet, on any of `nshards` shards.
    #[must_use]
    pub fn new(nshards: usize) -> Self {
        Know(vec![0; nshards])
    }

    /// Record that `shard` was seen at `version`.
    pub fn observe(&mut self, shard: usize, version: u64) {
        let seen = &mut self.0[shard];
        *seen = (*seen).max(version);
    }

    /// Take the entry-wise maximum with `other`.
    pub fn merge(&mut self, other: &Know) {
        for (seen, &v) in self.0.iter_mut().zip(&other.0) {
            *seen = (*seen).max(v);
        }
    }

    /// The observed version per shard, in shard order.
    #[must_use]
    pub fn versions(&self) -> &[u64] {
        &self.0
    }
}

/// Shard versions observed so far: zero-sized in builds without
/// `debug_assertions`, where no cut check reads them (see the
/// debug-build definition). The private field keeps construction to
/// [`Know::new`], as in debug builds, so callers compile in both.
#[cfg(not(debug_assertions))]
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Know(());

#[cfg(not(debug_assertions))]
impl Know {
    /// Nothing observed (there is nothing to hold).
    #[must_use]
    pub fn new(_nshards: usize) -> Self {
        Know(())
    }

    /// No-op: nothing reads observed versions in this build.
    pub fn observe(&mut self, _shard: usize, _version: u64) {}

    /// No-op: nothing reads observed versions in this build.
    pub fn merge(&mut self, _other: &Know) {}
}

/// A replica-side read outcome ([`ShardState::peek`]/
/// [`ShardState::peek_many`]): the value(s) plus the shard version at
/// the observed frontier, or the descriptor of the multi-op whose lock
/// blocks the read (for helper completion).
pub type Peek<T, K, V> = Result<(T, u64), Arc<MultiDesc<K, V>>>;

/// Full description of one multi-key atomic op, replicated to every
/// involved shard so *any* client holding it can finish the op.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MultiDesc<K: Ord, V> {
    pub id: MultiId,
    /// Per-key expectations (`None` = absent) evaluated at prepare
    /// time; empty for an unconditional `multi_put`.
    pub expects: BTreeMap<K, Option<V>>,
    /// Per-key writes applied on commit (`None` = remove).
    pub writes: BTreeMap<K, Option<V>>,
    /// Involved shards, ascending — the canonical lock order. Recorded
    /// here (not recomputed) so snapshot assembly can check
    /// all-or-nothing application against the intended shard set.
    pub shards: Vec<usize>,
}

impl<K: Ord + Hash, V> MultiDesc<K, V> {
    /// Keys of this descriptor owned by `shard` (expects ∪ writes).
    fn local_keys(&self, seed: u64, nshards: usize, shard: usize) -> Vec<&K> {
        let mut keys: Vec<&K> = self
            .expects
            .keys()
            .chain(self.writes.keys())
            .filter(|k| route(seed, nshards, *k) == shard)
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }
}

/// A prepared-but-unresolved multi-op on one shard.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PendingMulti<K: Ord, V> {
    /// The descriptor the proposer decided, shared with the log entry.
    pub desc: Arc<MultiDesc<K, V>>,
    /// This shard's vote, fixed at first prepare: local expectations
    /// held. Immutable thereafter — locks keep the inputs stable.
    pub vote: bool,
}

/// One shard's contribution to a global snapshot.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SnapPart<K: Ord, V> {
    pub epoch: u64,
    /// The shard's map at the cut, shared with the replica that took
    /// the capture: the replica's next write copies the map instead of
    /// mutating this one (module docs).
    pub map: Arc<BTreeMap<K, V>>,
    /// Multi-ops prepared but not yet resolved at the cut. Snapshot
    /// assembly patches these against `unsettled` elsewhere (torn-multi
    /// repair) — see [`crate::ShardedStore`] docs.
    pub pending: BTreeMap<MultiId, PendingMulti<K, V>>,
    /// Committed multi-ops not yet settled here (id → involved
    /// shards): the only commits that can be torn in this cut, so the
    /// only ones a capture needs to carry. Bounded by in-flight
    /// multi-ops (plus crashed resolvers), **not** by all commits ever
    /// — see [`ShardState::unsettled`].
    pub unsettled: BTreeMap<MultiId, Vec<usize>>,
    /// Mutation counter at the cut.
    pub version: u64,
    /// Observed shard versions at the cut (debug cut check).
    pub know: Know,
}

/// How [`ShardedStore::fetch_update`](crate::ShardedStore) transforms a
/// value. A merge is data, not a closure: it travels inside log
/// entries, so it must be `Eq + Hash + Debug` like any other op
/// payload, and `merge` must be deterministic.
pub trait Merge<V>: Clone + Eq + Hash + Debug {
    /// New value (`None` = remove) from the current one.
    fn merge(&self, current: Option<&V>) -> Option<V>;
}

/// The identity merge: `fetch_update` with `()` is a plain read that
/// still decides through the log (a linearization witness).
impl<V: Clone> Merge<V> for () {
    fn merge(&self, current: Option<&V>) -> Option<V> {
        current.cloned()
    }
}

/// Saturating-free additive merge for `i64` values, treating absent as
/// zero. The workhorse of the exact-count fault postconditions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Bump(pub i64);

impl Merge<i64> for Bump {
    fn merge(&self, current: Option<&i64>) -> Option<i64> {
        Some(current.copied().unwrap_or(0) + self.0)
    }
}

/// Operations decided into one shard's log.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ShardOp<K: Ord, V, M> {
    Get { key: K },
    /// Write (`Some`) or remove (`None`) one key.
    Put { key: K, val: Option<V>, ctx: Ctx },
    Cas { key: K, expect: Option<V>, new: Option<V>, ctx: Ctx },
    Update { key: K, merge: M, ctx: Ctx },
    /// The descriptor is shared: every clone of the op (announce,
    /// collect, log entry, each replica's `pending`) is a refcount bump.
    Prepare { desc: Arc<MultiDesc<K, V>>, ctx: Ctx },
    Resolve { id: MultiId, commit: bool, ctx: Ctx },
    /// Sent by a resolver *after* it observed `Resolve` acknowledged on
    /// every involved shard: this commit can no longer be torn in any
    /// consistent cut, so drop it from the capture window. Carries a
    /// `Ctx` so the stamp rule orders it against open snapshots like any
    /// other mutation — that ordering is what makes dropping it sound
    /// (see `ShardState::unsettled`); debug builds also check it.
    Settle { id: MultiId, ctx: Ctx },
    Marker { epoch: u64 },
}

/// Responses from one shard. Every variant carries the shard `version`
/// at response time so clients maintain their observed-version vector.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ShardResp<K: Ord, V> {
    /// `Get` result.
    Value { val: Option<V>, version: u64 },
    /// Previous value from `Put`/`Update`.
    Prev { prev: Option<V>, version: u64 },
    /// `Cas` outcome.
    CasResult { ok: bool, prev: Option<V>, version: u64 },
    /// `Prepare` accepted; this shard's vote.
    Vote { ok: bool, version: u64 },
    /// `Prepare` raced a finished multi: the recorded verdict.
    Resolved { commit: bool, version: u64 },
    /// The key (or a descriptor key) is locked by another in-flight
    /// multi-op; the full holder descriptor enables helping.
    Blocked { holder: Arc<MultiDesc<K, V>>, version: u64 },
    /// `Resolve` applied (or was already applied).
    Ack { version: u64 },
    /// `Marker` capture.
    Part(Box<SnapPart<K, V>>),
}

/// The shard state machine. See module docs.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ShardState<K: Ord, V, M> {
    /// This replica's shard index and the routing parameters — constants
    /// after construction, carried in-state so `apply` can route
    /// descriptor keys without out-of-band context.
    shard: usize,
    nshards: usize,
    seed: u64,
    /// Mutation counter: bumped by every state-changing transition.
    version: u64,
    /// Copy-on-write: shared with every live capture of this replica,
    /// mutated only through `Arc::make_mut` (module docs).
    map: Arc<BTreeMap<K, V>>,
    /// Key → holder of in-flight multi-op locks. A key appears here iff
    /// its holder is in `pending`.
    locks: BTreeMap<K, MultiId>,
    pending: BTreeMap<MultiId, PendingMulti<K, V>>,
    /// Commit tombstones. Kept for the life of the state: an
    /// arbitrarily stalled helper may re-send `Prepare` or `Resolve`
    /// for an ancient multi, and forgetting the verdict would re-lock
    /// keys or re-apply writes. Checkpoint/truncation of the *log*
    /// (PR 7) is unaffected — tombstones live in the state image, and
    /// one id costs one word.
    applied: BTreeSet<MultiId>,
    /// Abort tombstones, same retention argument.
    aborted: BTreeSet<MultiId>,
    /// Commits not yet settled here (id → involved shards): the window
    /// of multi-ops a snapshot capture could still observe torn, and
    /// the only commit bookkeeping captures carry. Why removal on
    /// [`ShardOp::Settle`] is sound: a settle is decided only after its
    /// sender saw `Resolve` acknowledged on every involved shard, and
    /// it carries a `Ctx`. If a cut includes the settle, the stamp rule
    /// forces the cut to include every involved shard's resolve too (a
    /// settle stamped at-or-after an open epoch early-captures the
    /// *pre-settle* state; one stamped before the epoch opened implies
    /// every resolve finished before the epoch opened) — so the commit
    /// is whole in that cut and needs no repair. Bounded by in-flight
    /// multi-ops plus resolvers that crashed between their last resolve
    /// and their settles (any later helper of the same multi re-settles).
    unsettled: BTreeMap<MultiId, Vec<usize>>,
    /// Max observed version per shard over all ops applied here.
    know: Know,
    /// Snapshot bookkeeping: every epoch `<= snap_floor` has its marker
    /// applied here; `snap_done` holds marker-applied epochs above the
    /// floor, compressed to ranges so a crashed snapshot (a permanent
    /// hole below later epochs) costs O(holes) memory, not one entry
    /// per later snapshot forever.
    snap_floor: u64,
    snap_done: EpochSet,
    /// Highest mutation stamp already swept by [`pre_capture`]
    /// (ShardState::pre_capture): epochs at or below it have their
    /// capture ensured (early, done, or ≤ floor), so each mutation only
    /// walks epochs *newly revealed* by its stamp — amortized O(1) per
    /// epoch, even when a crashed snapshot pins `snap_floor` forever.
    stamp_hi: u64,
    /// Pre-mutation captures for epochs whose marker has not reached
    /// this shard but whose existence a straggling mutation revealed
    /// (stamp rule, module docs). Claimed and removed by the marker;
    /// an entry whose snapshotter crashed before its marker stays
    /// claimable (the snapshotter may only be stalled) — one retained
    /// capture per crashed snapshot per shard is the leak bound.
    early: BTreeMap<u64, SnapPart<K, V>>,
    _merge: PhantomData<M>,
}

/// A set of `u64` epochs stored as disjoint, non-adjacent inclusive
/// ranges. All ops are `O(log |ranges|)`; memory is bounded by the
/// number of gaps between stored runs (crashed snapshots), not the
/// number of epochs ever inserted.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct EpochSet(BTreeMap<u64, u64>);

impl EpochSet {
    fn contains(&self, e: u64) -> bool {
        self.0.range(..=e).next_back().is_some_and(|(_, &end)| end >= e)
    }

    fn insert(&mut self, e: u64) {
        if self.contains(e) {
            return;
        }
        let mut start = e;
        let mut end = e;
        // !contains(e) means any predecessor range ends strictly below
        // e, so `pe + 1` cannot overflow.
        if let Some((&ps, &pe)) = self.0.range(..e).next_back() {
            if pe + 1 == e {
                start = ps;
            }
        }
        if e < u64::MAX {
            if let Some(&se) = self.0.get(&(e + 1)) {
                end = se;
                self.0.remove(&(e + 1));
            }
        }
        self.0.insert(start, end);
    }

    /// If a stored range starts exactly at `e`, remove it and return
    /// its (inclusive) end.
    fn take_run(&mut self, e: u64) -> Option<u64> {
        self.0.remove(&e)
    }

    #[cfg(test)]
    fn ranges(&self) -> usize {
        self.0.len()
    }
}

impl<K, V, M> ShardState<K, V, M>
where
    K: Clone + Ord + Hash + Debug,
    V: Clone + Eq + Hash + Debug,
    M: Merge<V>,
{
    #[must_use]
    pub fn new(shard: usize, nshards: usize, seed: u64) -> Self {
        ShardState {
            shard,
            nshards,
            seed,
            version: 0,
            map: Arc::new(BTreeMap::new()),
            locks: BTreeMap::new(),
            pending: BTreeMap::new(),
            applied: BTreeSet::new(),
            aborted: BTreeSet::new(),
            unsettled: BTreeMap::new(),
            know: Know::new(nshards),
            snap_floor: 0,
            snap_done: EpochSet::default(),
            stamp_hi: 0,
            early: BTreeMap::new(),
            _merge: PhantomData,
        }
    }

    /// Photograph the capture-relevant state *now*, for a marker or an
    /// early capture. The map is shared, not copied — a refcount bump;
    /// the replica's next write copies it if this capture is still
    /// alive. Only the unsettled commit window rides along — settled
    /// commits cannot be torn in any cut that could contain this
    /// capture (see `unsettled`), so the rest of the capture stays
    /// proportional to in-flight work, not history.
    fn part_now(&self, epoch: u64) -> SnapPart<K, V> {
        SnapPart {
            epoch,
            map: Arc::clone(&self.map),
            pending: self.pending.clone(),
            unsettled: self.unsettled.clone(),
            version: self.version,
            know: self.know.clone(),
        }
    }

    /// The stamp rule: a mutation stamped `stamp` proves every epoch in
    /// `(snap_floor, stamp]` was opened before it ran. Any such epoch
    /// whose marker has not reached this shard gets an early capture of
    /// the **pre-mutation** state, excluding the mutation from the cut.
    ///
    /// Each epoch is swept at most once (`stamp_hi` remembers how far
    /// previous mutations got), so the per-mutation cost is the number
    /// of epochs opened since the last mutation here — amortized O(1)
    /// per epoch even when a crashed snapshot wedges `snap_floor`.
    fn pre_capture(&mut self, stamp: u64) {
        let mut e = self.snap_floor.max(self.stamp_hi) + 1;
        // progress: bounded — `e` strictly increases each iteration and
        // stops at `stamp`; at most one capture is published per epoch.
        while e <= stamp {
            if !self.snap_done.contains(e) {
                let part = self.part_now(e);
                self.early.insert(e, part);
            }
            e += 1;
        }
        if stamp > self.stamp_hi {
            self.stamp_hi = stamp;
        }
    }

    /// Apply a mutating op's context: early-capture first (so an
    /// excluded op's effects — including its knowledge — stay out of
    /// the cut), then merge the client's observed-version vector.
    fn absorb(&mut self, ctx: &Ctx) {
        self.pre_capture(ctx.epoch);
        self.know.merge(&ctx.know);
    }

    /// The holder descriptor blocking `key`, if any: the proposer's own
    /// descriptor, shared, not copied.
    fn holder_of(&self, key: &K) -> Option<Arc<MultiDesc<K, V>>> {
        let id = self.locks.get(key)?;
        let pm = self
            .pending
            .get(id)
            .expect("a locked key's holder is pending (lock/pending invariant)");
        Some(Arc::clone(&pm.desc))
    }

    /// Replica-side read of `key` with the same lock discipline as the
    /// decided [`ShardOp::Get`]: `Err(holder)` when the key is locked
    /// by an in-flight multi-op, so a log-free reader
    /// ([`crate::StoreHandle::get`]) helps the multi to completion and
    /// retries instead of observing it half-applied. `Ok` carries the
    /// value and the shard version at the observed frontier (the
    /// version feeds the client's observed-version vector exactly as a
    /// decided [`ShardResp::Value`] would).
    ///
    /// # Errors
    ///
    /// The blocking multi-op's descriptor, for helping.
    pub fn peek(&self, key: &K) -> Peek<Option<V>, K, V> {
        match self.holder_of(key) {
            Some(holder) => Err(holder),
            None => Ok((self.map.get(key).cloned(), self.version)),
        }
    }

    /// [`Self::peek`] over several keys in one replica pass, for
    /// [`crate::StoreHandle::multi_get`]: every value is taken from the
    /// same observed frontier of this shard, or the first blocking
    /// holder is handed back for helping.
    ///
    /// # Errors
    ///
    /// As [`Self::peek`].
    pub fn peek_many<'k>(
        &self,
        keys: impl IntoIterator<Item = &'k K>,
    ) -> Peek<Vec<Option<V>>, K, V>
    where
        K: 'k,
    {
        let mut vals = Vec::new();
        for key in keys {
            match self.holder_of(key) {
                Some(holder) => return Err(holder),
                None => vals.push(self.map.get(key).cloned()),
            }
        }
        Ok((vals, self.version))
    }

    /// Write (`Some`) or remove (`None`) one key, returning the previous
    /// value. Every map mutation goes through here, and so through
    /// `Arc::make_mut`: the map is copied only if a capture still
    /// shares it (module docs).
    fn write(&mut self, key: &K, val: Option<V>) -> Option<V> {
        let map = Arc::make_mut(&mut self.map);
        match val {
            Some(v) => map.insert(key.clone(), v),
            None => map.remove(key),
        }
    }

    fn apply_writes_of(&mut self, desc: &MultiDesc<K, V>) {
        for (k, w) in &desc.writes {
            if route(self.seed, self.nshards, k) == self.shard {
                self.write(k, w.clone());
            }
        }
    }

    fn prepare(&mut self, desc: &Arc<MultiDesc<K, V>>) -> ShardResp<K, V> {
        let id = desc.id;
        if self.applied.contains(&id) {
            return ShardResp::Resolved { commit: true, version: self.version };
        }
        if self.aborted.contains(&id) {
            return ShardResp::Resolved { commit: false, version: self.version };
        }
        if let Some(pm) = self.pending.get(&id) {
            return ShardResp::Vote { ok: pm.vote, version: self.version };
        }
        let local = desc.local_keys(self.seed, self.nshards, self.shard);
        for k in &local {
            if let Some(holder) = self.locks.get(*k) {
                if *holder != id {
                    let holder = self
                        .holder_of(*k)
                        .expect("locked key has a pending holder");
                    return ShardResp::Blocked { holder, version: self.version };
                }
            }
        }
        let vote = desc
            .expects
            .iter()
            .filter(|(k, _)| route(self.seed, self.nshards, k) == self.shard)
            .all(|(k, expect)| self.map.get(k) == expect.as_ref());
        for k in local {
            self.locks.insert(k.clone(), id);
        }
        self.pending.insert(id, PendingMulti { desc: Arc::clone(desc), vote });
        self.version += 1;
        ShardResp::Vote { ok: vote, version: self.version }
    }

    fn resolve(&mut self, id: MultiId, commit: bool) -> ShardResp<K, V> {
        if self.applied.contains(&id) || self.aborted.contains(&id) {
            return ShardResp::Ack { version: self.version };
        }
        let Some(pm) = self.pending.remove(&id) else {
            // A resolve is only ever sent after a prepare decided on
            // this same log, so the id is pending or tombstoned; keep
            // the machine total anyway (apply never panics the log).
            return ShardResp::Ack { version: self.version };
        };
        for k in pm.desc.local_keys(self.seed, self.nshards, self.shard) {
            if self.locks.get(k) == Some(&id) {
                self.locks.remove(k);
            }
        }
        if commit {
            self.apply_writes_of(&pm.desc);
            self.applied.insert(id);
            self.unsettled.insert(id, pm.desc.shards.clone());
        } else {
            self.aborted.insert(id);
        }
        self.version += 1;
        ShardResp::Ack { version: self.version }
    }

    fn settle(&mut self, id: MultiId) -> ShardResp<K, V> {
        if self.unsettled.remove(&id).is_some() {
            self.version += 1;
        }
        ShardResp::Ack { version: self.version }
    }

    fn marker(&mut self, e: u64) -> ShardResp<K, V> {
        let part = match self.early.remove(&e) {
            Some(p) => p,
            None => self.part_now(e),
        };
        if e > self.snap_floor && !self.snap_done.contains(e) {
            self.snap_done.insert(e);
            if let Some(end) = self.snap_done.take_run(self.snap_floor + 1) {
                self.snap_floor = end;
            }
            // No `early` cleanup is needed at the floor: an early
            // capture exists only for an epoch whose marker has not
            // been applied here, and the floor only ever advances over
            // marker-applied epochs — so every `early` key is already
            // strictly above the floor.
        }
        ShardResp::Part(Box::new(part))
    }
}

impl<K, V, M> ObjectSpec for ShardState<K, V, M>
where
    K: Clone + Ord + Hash + Debug,
    V: Clone + Eq + Hash + Debug,
    M: Merge<V>,
{
    type Op = ShardOp<K, V, M>;
    type Resp = ShardResp<K, V>;

    fn apply(&mut self, _pid: Pid, op: &Self::Op) -> Self::Resp {
        match op {
            ShardOp::Get { key } => {
                // Reads must respect multi-op locks: the holder's
                // resolve lands shard by shard, so a read slipping past
                // the lock here could combine with a read on another
                // shard to observe the multi half-applied. Hand the
                // reader the descriptor to help instead.
                if let Some(holder) = self.holder_of(key) {
                    return ShardResp::Blocked { holder, version: self.version };
                }
                ShardResp::Value {
                    val: self.map.get(key).cloned(),
                    version: self.version,
                }
            }
            ShardOp::Put { key, val, ctx } => {
                self.absorb(ctx);
                if let Some(holder) = self.holder_of(key) {
                    return ShardResp::Blocked { holder, version: self.version };
                }
                let prev = self.write(key, val.clone());
                self.version += 1;
                ShardResp::Prev { prev, version: self.version }
            }
            ShardOp::Cas { key, expect, new, ctx } => {
                self.absorb(ctx);
                if let Some(holder) = self.holder_of(key) {
                    return ShardResp::Blocked { holder, version: self.version };
                }
                let prev = self.map.get(key).cloned();
                let ok = prev == *expect;
                if ok {
                    self.write(key, new.clone());
                    self.version += 1;
                }
                ShardResp::CasResult { ok, prev, version: self.version }
            }
            ShardOp::Update { key, merge, ctx } => {
                self.absorb(ctx);
                if let Some(holder) = self.holder_of(key) {
                    return ShardResp::Blocked { holder, version: self.version };
                }
                let prev = self.map.get(key).cloned();
                self.write(key, merge.merge(prev.as_ref()));
                self.version += 1;
                ShardResp::Prev { prev, version: self.version }
            }
            ShardOp::Prepare { desc, ctx } => {
                self.absorb(ctx);
                self.prepare(desc)
            }
            ShardOp::Resolve { id, commit, ctx } => {
                self.absorb(ctx);
                self.resolve(*id, *commit)
            }
            ShardOp::Settle { id, ctx } => {
                self.absorb(ctx);
                self.settle(*id)
            }
            ShardOp::Marker { epoch } => self.marker(*epoch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_set_compresses_adjacent_runs() {
        let mut s = EpochSet::default();
        for e in [1u64, 2, 3, 5, 6, 10] {
            s.insert(e);
        }
        assert_eq!(s.ranges(), 3, "{s:?}");
        s.insert(4); // bridges [1,3] and [5,6]
        assert_eq!(s.ranges(), 2, "{s:?}");
        for e in 1..=6 {
            assert!(s.contains(e));
        }
        assert!(!s.contains(7));
        assert!(s.contains(10));
        s.insert(10); // idempotent
        assert_eq!(s.ranges(), 2);
        assert_eq!(s.take_run(1), Some(6));
        assert!(!s.contains(3));
        assert_eq!(s.take_run(7), None);
    }

    type St = ShardState<u64, i64, ()>;

    fn ctx(epoch: u64) -> Ctx {
        Ctx { epoch, know: Know::new(1) }
    }

    fn desc(id: u64, writes: &[(u64, i64)]) -> Arc<MultiDesc<u64, i64>> {
        Arc::new(MultiDesc {
            id: MultiId(id),
            expects: BTreeMap::new(),
            writes: writes.iter().map(|&(k, v)| (k, Some(v))).collect(),
            shards: vec![0],
        })
    }

    fn part(resp: ShardResp<u64, i64>) -> SnapPart<u64, i64> {
        match resp {
            ShardResp::Part(p) => *p,
            r => panic!("marker answered {r:?}"),
        }
    }

    /// A settled commit leaves the capture window (so snapshot size
    /// tracks in-flight multis, not history) while its tombstone keeps
    /// answering stragglers.
    #[test]
    fn settle_retires_commits_from_captures_but_not_tombstones() {
        let mut st = St::new(0, 1, 0);
        let d = desc(9, &[(1, 10), (2, 20)]);
        st.apply(Pid(0), &ShardOp::Prepare { desc: d.clone(), ctx: ctx(0) });
        st.apply(Pid(0), &ShardOp::Resolve { id: d.id, commit: true, ctx: ctx(0) });
        let p = part(st.apply(Pid(0), &ShardOp::Marker { epoch: 1 }));
        assert!(p.unsettled.contains_key(&d.id), "unsettled commit rides the capture");
        st.apply(Pid(0), &ShardOp::Settle { id: d.id, ctx: ctx(0) });
        let p = part(st.apply(Pid(0), &ShardOp::Marker { epoch: 2 }));
        assert!(p.unsettled.is_empty(), "settled commit dropped from the capture");
        assert_eq!(p.map.get(&1), Some(&10));
        // The tombstone survives settling: a straggling helper's
        // prepare still gets the verdict, not a fresh lock.
        match st.apply(Pid(0), &ShardOp::Prepare { desc: d, ctx: ctx(0) }) {
            ShardResp::Resolved { commit: true, .. } => {}
            r => panic!("straggler prepare answered {r:?}"),
        }
    }

    /// A permanently open epoch (crashed snapshotter) must not make
    /// later mutations re-walk the epoch range, must keep later marker
    /// bookkeeping compressed, and must keep its own early capture
    /// claimable forever.
    #[test]
    fn stuck_epoch_costs_are_bounded() {
        let mut st = St::new(0, 1, 0);
        st.apply(Pid(0), &ShardOp::Put { key: 1, val: Some(1), ctx: ctx(0) });
        // Epochs 1..=4 open; markers for 2..=4 arrive (epoch 1 crashed
        // before reaching this shard). A mutation stamped 4 reveals all
        // four and early-captures them once.
        st.apply(Pid(0), &ShardOp::Put { key: 1, val: Some(2), ctx: ctx(4) });
        assert_eq!(st.early.len(), 4);
        assert_eq!(st.stamp_hi, 4);
        for e in 2..=4 {
            part(st.apply(Pid(0), &ShardOp::Marker { epoch: e }));
        }
        assert_eq!(st.early.len(), 1, "markers claimed their captures");
        assert_eq!(st.snap_floor, 0, "epoch 1's hole pins the floor");
        assert_eq!(st.snap_done.ranges(), 1, "done epochs stay one range");
        // Later mutations at the same stamp do no epoch work at all.
        st.apply(Pid(0), &ShardOp::Put { key: 1, val: Some(3), ctx: ctx(4) });
        assert_eq!(st.early.len(), 1);
        // The stalled snapshotter finally lands its marker: it claims
        // the early capture (pre-mutation state, excluding every write
        // stamped >= 1) and the floor snaps forward over the whole run.
        let p = part(st.apply(Pid(0), &ShardOp::Marker { epoch: 1 }));
        assert_eq!(p.map.get(&1), Some(&1), "early capture excluded stamped writes");
        assert_eq!(st.early.len(), 0);
        assert_eq!(st.snap_floor, 4);
        assert_eq!(st.snap_done.ranges(), 0);
    }

    /// Copy-on-write isolation. A capture — by marker or early — shares
    /// the replica's map. Each map-writing path (`Put`, successful
    /// `Cas`, `Update`, committing `Resolve`) then copies it, so the
    /// capture keeps the cut's contents while the replica moves on.
    /// Reads, a failed `Cas`, `Prepare` and `Settle` leave it shared.
    /// With no capture alive, a write mutates the map in place.
    #[test]
    fn captures_share_the_map_until_a_write_copies_it() {
        type Sb = ShardState<u64, i64, Bump>;
        let d = Arc::new(MultiDesc {
            id: MultiId(7),
            expects: BTreeMap::new(),
            writes: [(4, Some(40)), (1, None)].into_iter().collect(),
            shards: vec![0],
        });
        let failed_cas =
            |epoch| ShardOp::Cas { key: 2, expect: Some(-1), new: None, ctx: ctx(epoch) };
        for early in [false, true] {
            let mut st = Sb::new(0, 1, 0);
            st.apply(Pid(0), &ShardOp::Put { key: 1, val: Some(1), ctx: ctx(0) });
            let writes = [
                (ShardOp::Put { key: 2, val: Some(20), ctx: ctx(0) }, 2, 20),
                (ShardOp::Cas { key: 2, expect: Some(20), new: Some(21), ctx: ctx(0) }, 2, 21),
                (ShardOp::Update { key: 3, merge: Bump(5), ctx: ctx(0) }, 3, 5),
                (ShardOp::Resolve { id: d.id, commit: true, ctx: ctx(0) }, 4, 40),
            ];
            for (e, (write, key, val)) in (1u64..).zip(writes) {
                let captured = if early {
                    // A failed cas stamped `e` reveals epoch `e` before
                    // its marker: the early capture itself copies nothing.
                    st.apply(Pid(0), &failed_cas(e));
                    Arc::clone(&st.early[&e].map)
                } else {
                    part(st.apply(Pid(0), &ShardOp::Marker { epoch: e })).map
                };
                assert!(Arc::ptr_eq(&captured, &st.map), "capture shares the map");
                let before = (*captured).clone();
                st.apply(Pid(0), &ShardOp::Get { key: 2 });
                st.apply(Pid(0), &failed_cas(0));
                st.apply(Pid(0), &ShardOp::Prepare { desc: d.clone(), ctx: ctx(0) });
                st.apply(Pid(0), &ShardOp::Settle { id: d.id, ctx: ctx(0) });
                assert!(Arc::ptr_eq(&captured, &st.map), "non-writes leave the map shared");
                st.apply(Pid(0), &write);
                assert!(!Arc::ptr_eq(&captured, &st.map), "{write:?} copied the map");
                assert_eq!(*captured, before, "{write:?} left the capture as it was");
                assert_eq!(st.map.get(&key), Some(&val), "{write:?} reached the replica");
                if early {
                    let p = part(st.apply(Pid(0), &ShardOp::Marker { epoch: e }));
                    assert!(Arc::ptr_eq(&p.map, &captured), "the marker claims the capture");
                }
            }
            assert_eq!(st.map.get(&1), None, "the resolve's remove reached the replica");
            // The commit is now unsettled: settling it really mutates
            // the state, but not the map.
            let captured = part(st.apply(Pid(0), &ShardOp::Marker { epoch: 5 })).map;
            assert!(!captured.is_empty());
            st.apply(Pid(0), &ShardOp::Settle { id: d.id, ctx: ctx(0) });
            assert!(st.unsettled.is_empty());
            assert!(Arc::ptr_eq(&captured, &st.map), "settle leaves the map shared");
            // Once the last capture is dropped, a write needs no copy.
            drop(captured);
            let at = Arc::as_ptr(&st.map);
            st.apply(Pid(0), &ShardOp::Put { key: 9, val: Some(9), ctx: ctx(0) });
            assert_eq!(Arc::as_ptr(&st.map), at, "an unshared map is written in place");
        }
    }

    /// Every decided entry keeps its op for the life of the log, in every
    /// replica, so the op stays small: `Cas` (two inline values and a
    /// key) is the largest variant, and a multi-op descriptor rides
    /// behind an `Arc`. The descriptor is the proposer's own allocation
    /// all the way through: the op, the replica's `pending` entry and
    /// every `Blocked` answer share it.
    #[test]
    fn ops_stay_small_and_share_the_proposers_descriptor() {
        use std::mem::size_of;
        assert!(
            size_of::<ShardOp<u64, u64, ()>>() <= size_of::<Ctx>() + 40,
            "ShardOp is {} B with a {} B Ctx",
            size_of::<ShardOp<u64, u64, ()>>(),
            size_of::<Ctx>()
        );

        let mut st = St::new(0, 1, 0);
        let d = desc(5, &[(1, 10), (2, 20)]);
        let op = ShardOp::Prepare { desc: Arc::clone(&d), ctx: ctx(0) };
        st.apply(Pid(0), &op);
        assert!(Arc::ptr_eq(&st.pending[&d.id].desc, &d), "prepare stores it uncopied");
        match st.apply(Pid(0), &ShardOp::Put { key: 2, val: Some(0), ctx: ctx(0) }) {
            ShardResp::Blocked { holder, .. } => {
                assert!(Arc::ptr_eq(&holder, &d), "a blocked writer gets it uncopied");
            }
            r => panic!("put on a locked key answered {r:?}"),
        }
        let peeked = st.peek(&1).expect_err("a locked key blocks the replica read");
        assert!(Arc::ptr_eq(&peeked, &d), "a blocked reader gets it uncopied");
    }

    /// Reads on a locked key hand back the holder instead of a value —
    /// the spec-level half of the no-torn-reads guarantee.
    #[test]
    fn get_blocks_on_a_locked_key() {
        let mut st = St::new(0, 1, 0);
        let d = desc(3, &[(1, 10)]);
        st.apply(Pid(0), &ShardOp::Prepare { desc: d.clone(), ctx: ctx(0) });
        match st.apply(Pid(0), &ShardOp::Get { key: 1 }) {
            ShardResp::Blocked { holder, .. } => assert_eq!(holder.id, d.id),
            r => panic!("get on a locked key answered {r:?}"),
        }
        // An unrelated key still reads freely.
        match st.apply(Pid(0), &ShardOp::Get { key: 2 }) {
            ShardResp::Value { val: None, .. } => {}
            r => panic!("get on a free key answered {r:?}"),
        }
    }
}
