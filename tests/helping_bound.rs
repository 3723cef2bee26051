//! The O(n) helping bound of §4's universal construction, measured on
//! real threads: no operation's threading loop runs more than ~2n
//! consensus decides, because every log position periodically prefers
//! each thread's announced operation.
//!
//! The bound argument: when an operation is announced the log frontier
//! sits at some position F; within the next n positions one position's
//! preferred thread is the announcer, and whoever decides that position
//! proposes the announced entry. The announcer's own loop starts at most
//! n positions behind F (the shared hint lags each running thread by less
//! than n positions — it is republished every n-th iteration and once
//! after the loop), so it iterates at most ~2n times. We assert
//! `max_threading_steps <= 2n + 8`, slack for the startup positions.
//!
//! Both configurations of the object are measured (see
//! `common::CounterPath`): the hoisted hint publication may not loosen
//! the bound, and checkpoint truncation loosens it only by its cadence.
//! The `survivor` module restates the rule itself: a crashed announcer's
//! op is threaded within `n` invokes of a lone survivor.

mod common;

use waitfree::sched::thread;

use common::{CheckpointedPath, CounterPath, PtrPath};
use waitfree::objects::counter::CounterOp;

fn contention_round<P: CounterPath>() {
    let n = 4;
    let per = 400;
    let handles = P::create(n, per);
    let joins: Vec<_> = handles
        .into_iter()
        .map(|mut h| {
            thread::spawn(move || {
                for _ in 0..per {
                    h.invoke(CounterOp::Add(1));
                }
                (h.tid(), h.max_threading_steps())
            })
        })
        .collect();
    let bound = P::step_bound(n);
    for j in joins {
        let (tid, max_steps) = j.join().unwrap();
        assert!(
            max_steps <= bound,
            "[{}] thread {tid}: {max_steps} threading steps exceeds the O(n) bound {bound} \
             (n = {n})",
            P::NAME
        );
    }
}

#[test]
fn helping_bounds_threading_steps_under_contention() {
    contention_round::<PtrPath>();
}

/// The helping bound survives checkpointed truncation, with explicit
/// slack for the checkpoint positions themselves (see
/// `CheckpointedPath::step_bound`).
#[test]
fn helping_bound_survives_checkpointing_with_cadence_slack() {
    contention_round::<CheckpointedPath>();
}

/// The bound restated for dynamic membership: the `n` in `2n + 8` is the
/// registry high-water — peak *active* handles — not total arrivals.
/// After 64 generations of sequential churn the registry still holds one
/// slot, so a 4-way contention round that follows must obey the bound
/// with `hi = 4`, as if the 64 departed clients never existed.
#[test]
fn helping_bound_is_over_active_handles_not_arrivals() {
    use waitfree::objects::counter::Counter;
    use waitfree::sync::universal::WfUniversal;

    let obj = WfUniversal::new_dynamic(Counter::new(0), 500);
    for _ in 0..64 {
        let mut h = obj.register();
        h.invoke(CounterOp::Add(1));
        h.retire();
    }
    assert_eq!(obj.registry_slots(), 1, "sequential churn reuses one slot");

    let n = 4;
    let per = 200;
    let joins: Vec<_> = (0..n)
        .map(|_| obj.register())
        .map(|mut h| {
            thread::spawn(move || {
                for _ in 0..per {
                    h.invoke(CounterOp::Add(1));
                }
                (h.tid(), h.max_threading_steps())
            })
        })
        .collect();
    let hi = obj.registry_slots();
    assert_eq!(hi, n, "four concurrent registrants need four slots");
    for j in joins {
        let (tid, max_steps) = j.join().unwrap();
        assert!(
            max_steps <= 2 * hi + 8,
            "slot {tid}: {max_steps} threading steps exceeds the restated \
             O(active) bound (hi = {hi}, arrivals = {})",
            obj.total_arrivals()
        );
    }
}

/// The same bound with an adversarially stalled thread: helping means a
/// parked peer costs the survivors *nothing* in their own step count —
/// that is exactly what separates wait-free from lock-free.
#[cfg(feature = "failpoints")]
mod stall {
    use super::*;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;
    use waitfree::faults::failpoints::{self, FailpointConfig, FaultAction, Fire};
    use waitfree::faults::harness::spawn_workers;

    fn stall_round<P: CounterPath>() {
        failpoints::clear();

        const N: usize = 4;
        const PER: usize = 100;
        failpoints::configure(
            "universal::announced",
            FailpointConfig {
                action: FaultAction::Stall,
                fire: Fire::Nth(5),
                tid: Some(1),
                budget: Some(1),
            },
        );

        let handles: Arc<Vec<Mutex<Option<P>>>> = Arc::new(
            P::create(N, PER).into_iter().map(|h| Mutex::new(Some(h))).collect(),
        );
        let group = {
            let handles = Arc::clone(&handles);
            spawn_workers(N, move |tid| {
                let mut h = handles[tid].lock().unwrap().take().unwrap();
                for _ in 0..PER {
                    h.invoke(CounterOp::Add(1));
                }
                h.max_threading_steps()
            })
        };

        // Survivors finish with the victim still parked mid-operation.
        assert!(group.await_finished(N - 1, Duration::from_secs(60)), "[{}]", P::NAME);
        let bound = P::step_bound(N);
        for (tid, outcome) in group.finish().into_iter().enumerate() {
            let max_steps = outcome.completed().expect("all threads complete after release");
            assert!(
                max_steps <= bound,
                "[{}] thread {tid}: {max_steps} threading steps exceeds the O(n) bound {bound} \
                 (n = {N})",
                P::NAME
            );
        }
        failpoints::clear();
    }

    #[test]
    fn helping_bound_survives_an_injected_stall() {
        let _guard = failpoints::exclusive();
        stall_round::<PtrPath>();
        stall_round::<CheckpointedPath>();
    }
}

/// The per-op helping rule for one crashed announcer: position `k`
/// prefers slot `k mod n`, and a thread deciding it proposes that
/// slot's pending op. So an op left announced by a client that crashed
/// is threaded by the survivors without the client ever running again:
/// a lone survivor's invokes walk consecutive positions, and within
/// `n()` of them one position prefers the crashed slot. The check runs
/// from every starting position modulo `n`, so the crashed slot's
/// preferred position lands at each offset of the survivor's walk.
#[cfg(feature = "failpoints")]
mod survivor {
    use waitfree::faults::failpoints::{self, FailpointConfig, FaultAction, Fire};
    use waitfree::faults::harness::silence_crash_panics;
    use waitfree::objects::counter::{Counter, CounterOp, CounterResp};
    use waitfree::sync::universal::WfUniversal;

    /// The crashed client's op, distinct from the survivor's `Add(1)`s
    /// so a double application would show in the final count.
    const CRASHED_ADD: i64 = 1000;

    #[test]
    fn crashed_announcer_is_helped_within_n_survivor_invokes() {
        let _guard = failpoints::exclusive();
        silence_crash_panics();
        for slots in 2..=4usize {
            for warmup in 0..2 * slots {
                failpoints::clear();
                let obj = WfUniversal::new_dynamic(Counter::new(0), 64);
                let mut crashed = obj.register();
                let mut survivor = obj.register();
                // Idle peers only widen the rotation: `n()` counts them.
                let idle: Vec<_> = (2..slots).map(|_| obj.register()).collect();
                for _ in 0..warmup {
                    survivor.invoke(CounterOp::Add(1));
                }

                // Crash right after the announce is published: the op
                // is helpable and unthreaded, and the client is gone.
                failpoints::configure(
                    "universal::announced",
                    FailpointConfig {
                        action: FaultAction::Crash,
                        fire: Fire::Nth(1),
                        tid: None,
                        budget: Some(1),
                    },
                );
                let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    crashed.invoke(CounterOp::Add(CRASHED_ADD))
                }));
                failpoints::clear();
                assert!(died.is_err(), "the planned crash fires inside the invoke");
                let victim = (crashed.tid(), 0);
                drop(crashed);

                let n = survivor.n();
                assert_eq!(n, slots);
                for _ in 0..n {
                    survivor.invoke(CounterOp::Add(1));
                }
                let log = survivor.decided_log();
                let copies = log.iter().filter(|&&e| e == victim).count();
                assert_eq!(
                    copies, 1,
                    "n = {n}, warm-up {warmup}: the crashed op is threaded exactly once \
                     within n survivor invokes; log {log:?}"
                );
                let expect = (warmup + n) as i64 + CRASHED_ADD;
                assert_eq!(
                    survivor.invoke(CounterOp::Get),
                    CounterResp::Value(expect),
                    "n = {n}, warm-up {warmup}: the crashed op is counted once"
                );
                drop(idle);
            }
        }
    }
}
