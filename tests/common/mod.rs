//! Shared test plumbing: one abstraction over the two configurations of
//! the universal object (`waitfree::sync::universal`), the unbounded log
//! and the checkpointed one, so every fault-injection and helping-bound
//! scenario runs against both.
#![allow(dead_code)] // each test binary uses a different subset

use waitfree::objects::counter::{Counter, CounterOp, CounterResp};
use waitfree::sync::universal::{UniversalError, WfHandle, WfUniversal};

/// A wait-free counter built on one configuration of the universal
/// object. Both place the same `universal::*` failpoint sites at the
/// same algorithmic steps, so a single adversary plan stresses either.
pub trait CounterPath: Sized + Send + 'static {
    /// Short label for assertion messages.
    const NAME: &'static str;

    /// The `max_threading_steps` bound for `n` contending handles: the
    /// helping bound `2n + 8` (see `tests/helping_bound.rs`), plus any
    /// positions the configuration decides that carry no one's op.
    fn step_bound(n: usize) -> usize {
        2 * n + 8
    }

    /// One handle per thread, unbounded log.
    fn create(n: usize, max_ops: usize) -> Vec<Self>;
    /// One handle per thread with an explicit log-position cap, so
    /// `UniversalError::LogFull` is observable.
    fn create_capped(n: usize, max_ops: usize, capacity: usize) -> Vec<Self>;
    /// `invoke` on the underlying handle.
    fn invoke(&mut self, op: CounterOp) -> CounterResp;
    /// `try_invoke` on the underlying handle.
    fn try_invoke(&mut self, op: CounterOp) -> Result<CounterResp, UniversalError>;
    /// The handle's thread index.
    fn tid(&self) -> usize;
    /// Worst-case threading-loop iterations over the handle's life.
    fn max_threading_steps(&self) -> usize;
}

/// The pointer-CAS / segmented-log object without truncation.
pub struct PtrPath(pub WfHandle<Counter>);

impl CounterPath for PtrPath {
    const NAME: &'static str = "pointer";

    fn create(n: usize, max_ops: usize) -> Vec<Self> {
        WfUniversal::new(Counter::new(0), n, max_ops).into_iter().map(PtrPath).collect()
    }

    fn create_capped(n: usize, max_ops: usize, capacity: usize) -> Vec<Self> {
        WfUniversal::with_capacity(Counter::new(0), n, max_ops, capacity)
            .into_iter()
            .map(PtrPath)
            .collect()
    }

    fn invoke(&mut self, op: CounterOp) -> CounterResp {
        self.0.invoke(op)
    }

    fn try_invoke(&mut self, op: CounterOp) -> Result<CounterResp, UniversalError> {
        self.0.try_invoke(op)
    }

    fn tid(&self) -> usize {
        self.0.tid()
    }

    fn max_threading_steps(&self) -> usize {
        self.0.max_threading_steps()
    }
}

/// The pointer path with checkpointed log truncation: a checkpoint is
/// decided every few positions and segments behind every handle's
/// replay frontier are reclaimed mid-run — no fault-tolerance property
/// may depend on the truncated history staying allocated.
pub struct CheckpointedPath(pub WfHandle<Counter>);

/// Aggressive cadence so even short storm scenarios cross several
/// checkpoints and (usually) at least one segment reclaim.
pub const CHECKPOINT_EVERY: usize = 8;

impl CounterPath for CheckpointedPath {
    const NAME: &'static str = "checkpointed";

    /// A threading loop that spans k positions may also cross every
    /// checkpoint decided in that window (at most one per cadence, plus
    /// one race), and checkpoint entries carry no one's op — they are
    /// pure extra iterations. The bound stays O(n): the cadence adds a
    /// constant factor (1 + 1/every), not a dependence on history.
    fn step_bound(n: usize) -> usize {
        let base = 2 * n + 8;
        base + base / CHECKPOINT_EVERY + 2
    }

    fn create(n: usize, max_ops: usize) -> Vec<Self> {
        WfUniversal::new_checkpointed(Counter::new(0), n, max_ops, CHECKPOINT_EVERY)
            .into_iter()
            .map(CheckpointedPath)
            .collect()
    }

    fn create_capped(n: usize, max_ops: usize, capacity: usize) -> Vec<Self> {
        // A capped log never truncates (the cadence guard stops at the
        // LogFull edge), so the capped leg is the plain pointer path —
        // kept so capped scenarios still run under this label.
        WfUniversal::with_capacity(Counter::new(0), n, max_ops, capacity)
            .into_iter()
            .map(CheckpointedPath)
            .collect()
    }

    fn invoke(&mut self, op: CounterOp) -> CounterResp {
        self.0.invoke(op)
    }

    fn try_invoke(&mut self, op: CounterOp) -> Result<CounterResp, UniversalError> {
        self.0.try_invoke(op)
    }

    fn tid(&self) -> usize {
        self.0.tid()
    }

    fn max_threading_steps(&self) -> usize {
        self.0.max_threading_steps()
    }
}

// ---------------------------------------------------------------------
// Ordering-contract plumbing: load the workspace sources and extract
// the contract the same way `wf-lint` does, so tests can pin the pair
// graph statically and cross-validate it dynamically.
// ---------------------------------------------------------------------

use std::fs;
use std::path::Path;

/// Every `.rs` file in the workspace as `(workspace-relative path,
/// source)`, `/`-separated, sorted — the same corpus `wf-lint` scans.
/// The root test binaries run with the workspace root as
/// `CARGO_MANIFEST_DIR`, so no upward search is needed.
pub fn workspace_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    collect_rs(root, root, &mut out);
    out.sort();
    out
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(root, &path, out);
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .expect("walked path is under root")
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            let src = fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {rel}: {e}"));
            out.push((rel, src));
        }
    }
}
