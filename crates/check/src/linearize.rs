//! Wing–Gong style linearizability checking for RPC-mode histories.
//!
//! Each operation occupies a virtual-time interval `[invoke, ack]`. A
//! history is linearizable when there is a total order of the operations
//! that (a) respects real time — an op that acked before another was
//! invoked comes first — and (b) is legal under the sequential namespace
//! spec. The search explores candidates (pending ops whose invoke is ≤
//! the minimum pending ack) depth-first in recording order, which makes
//! simulator histories — where the server mutates state at invocation —
//! resolve greedily on the first path; memoizing explored done-sets and a
//! step budget bound the adversarial worst case.
//!
//! The search runs on an explicit stack, so its depth is not bounded by
//! the thread's stack. Pending ops sit in two ordered sets keyed by ack
//! and by invoke, so a node finds the minimum pending ack and its
//! candidates without scanning the history. The memo keys each done-set
//! by the window where it is not yet settled (everything below the first
//! pending op is done, nothing above the highest done op is), so a node
//! costs O(window), not O(history).
//!
//! Histories are partitioned by MDS epoch before checking: a failover is
//! a point event in the simulation, so effective operations from
//! different epochs never overlap, and the adaptive spec re-pins whatever
//! state the new epoch inherited (or lost, for volatile mechanisms).

use std::collections::{BTreeMap, BTreeSet, HashSet};

use cudele_obs::history::{HistoryEvent, HistoryOp, HistoryScope};

use crate::spec::{NamespaceSpec, Reject, Step, Undo};
use crate::Violation;

/// Spec steps the search may take before giving up. Simulator histories
/// resolve in O(n) steps; the budget only bites on adversarial inputs.
pub const DEFAULT_BUDGET: u64 = 5_000_000;

/// Checks every epoch partition of `events` for linearizability. Returns
/// the number of operations verified, or the first violation witness.
pub fn check(events: &[HistoryEvent]) -> Result<u64, Violation> {
    check_with_budget(events, DEFAULT_BUDGET)
}

/// [`check`] with `budget` spec steps per epoch instead of
/// [`DEFAULT_BUDGET`]; an epoch that exhausts it fails with its deepest
/// rejection as the witness.
pub fn check_with_budget(events: &[HistoryEvent], budget: u64) -> Result<u64, Violation> {
    // (recording index, event) for effective global namespace ops.
    let mut by_epoch: BTreeMap<u64, Vec<(usize, &HistoryEvent)>> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let in_scope = ev.scope == HistoryScope::Global
            && ev.result.effective()
            && !matches!(ev.op, HistoryOp::Merge { .. });
        if in_scope {
            by_epoch.entry(ev.epoch).or_default().push((i, ev));
        }
    }
    let mut checked = 0u64;
    for ops in by_epoch.values() {
        let mut search = Search::new(ops, budget);
        if !search.run() {
            let (index, detail) = match search.best_failure {
                Some((i, reject)) => (ops[i].0, reject.describe(ops[i].1)),
                None => (
                    ops[0].0,
                    "no linearization within search budget".to_string(),
                ),
            };
            return Err(Violation {
                checker: "linearizability".to_string(),
                index,
                detail,
            });
        }
        checked += ops.len() as u64;
    }
    Ok(checked)
}

/// One node of the depth-first search.
struct Frame {
    /// This node's candidates are `cands[start..]` (a node's children
    /// push theirs above and truncate them on backtrack); `next` is the
    /// next one to try.
    start: usize,
    next: usize,
    /// The op applied to reach this node, with what backtracking past
    /// it restores (`None` at the root).
    entered: Option<Entered>,
}

struct Entered {
    op: usize,
    undo: Undo,
    lo: usize,
    hi: usize,
}

struct Search<'a> {
    ops: &'a [(usize, &'a HistoryEvent)],
    /// Each op resolved against `spec`'s interned slots.
    steps: Vec<Step>,
    spec: NamespaceSpec,
    /// Pending ops as (ack, position) and (invoke, position).
    by_ack: BTreeSet<(u64, usize)>,
    by_invoke: BTreeSet<(u64, usize)>,
    /// The done-set, one bit per op position.
    done: Vec<u64>,
    /// First pending position: every op below it is done.
    lo: usize,
    /// One past the highest done position (0 when none is done).
    hi: usize,
    /// Done-sets already explored without success, each keyed by `lo`
    /// followed by the bitmap words spanning `lo..hi`.
    memo: HashSet<Box<[u64]>>,
    budget: u64,
    /// Deepest spec rejection seen: (op position, reason). With the
    /// search exhausted, this is the reported witness — the op that could
    /// not be linearized on the path that got furthest.
    best_failure: Option<(usize, Reject)>,
    best_depth: usize,
    frames: Vec<Frame>,
    cands: Vec<usize>,
}

impl<'a> Search<'a> {
    fn new(ops: &'a [(usize, &'a HistoryEvent)], budget: u64) -> Search<'a> {
        let mut spec = NamespaceSpec::new();
        let steps = ops.iter().map(|(_, ev)| spec.resolve(ev)).collect();
        Search {
            ops,
            steps,
            spec,
            by_ack: ops
                .iter()
                .enumerate()
                .map(|(p, (_, ev))| (ev.ack.0, p))
                .collect(),
            by_invoke: ops
                .iter()
                .enumerate()
                .map(|(p, (_, ev))| (ev.invoke.0, p))
                .collect(),
            done: vec![0; ops.len().div_ceil(64)],
            lo: 0,
            hi: 0,
            memo: HashSet::new(),
            budget,
            best_failure: None,
            best_depth: 0,
            frames: Vec::new(),
            cands: Vec::new(),
        }
    }

    fn is_done(&self, p: usize) -> bool {
        self.done[p / 64] & (1 << (p % 64)) != 0
    }

    /// Enters a node: an op can be linearized next only if it was invoked
    /// before every pending op acked — otherwise some pending op strictly
    /// precedes it in real time. Candidates are fixed on entry and tried
    /// in recording order.
    fn push_frame(&mut self, entered: Option<Entered>) {
        let start = self.cands.len();
        let &(min_ack, _) = self.by_ack.first().expect("an op is pending");
        let window = self.by_invoke.range(..=(min_ack, usize::MAX));
        self.cands.extend(window.map(|&(_, p)| p));
        self.cands[start..].sort_unstable();
        self.frames.push(Frame {
            start,
            next: start,
            entered,
        });
    }

    fn mark_done(&mut self, p: usize) {
        let (_, ev) = self.ops[p];
        self.by_ack.remove(&(ev.ack.0, p));
        self.by_invoke.remove(&(ev.invoke.0, p));
        self.done[p / 64] |= 1 << (p % 64);
        self.hi = self.hi.max(p + 1);
        while self.lo < self.ops.len() && self.is_done(self.lo) {
            self.lo += 1;
        }
    }

    fn unmark(&mut self, e: Entered) {
        let (_, ev) = self.ops[e.op];
        self.by_ack.insert((ev.ack.0, e.op));
        self.by_invoke.insert((ev.invoke.0, e.op));
        self.done[e.op / 64] &= !(1 << (e.op % 64));
        self.spec.revert(e.undo);
        self.lo = e.lo;
        self.hi = e.hi;
    }

    /// The current done-set's memo key. Bits below `lo` are all set and
    /// bits from `hi` on are all clear, so `lo` plus the words spanning
    /// `lo..hi` name the set exactly.
    fn memo_key(&self) -> Box<[u64]> {
        let first = self.lo / 64;
        let last = if self.hi > self.lo {
            (self.hi - 1) / 64 + 1
        } else {
            first
        };
        std::iter::once(self.lo as u64)
            .chain(self.done[first..last].iter().copied())
            .collect()
    }

    /// Depth-first search for a legal order of every op. Each spec step
    /// tried costs one unit of budget; running out fails the search.
    fn run(&mut self) -> bool {
        self.push_frame(None);
        while let Some(top) = self.frames.last_mut() {
            let Some(&p) = self.cands.get(top.next) else {
                // Every candidate failed here: backtrack.
                let frame = self.frames.pop().expect("top frame");
                self.cands.truncate(frame.start);
                if let Some(entered) = frame.entered {
                    self.unmark(entered);
                }
                continue;
            };
            top.next += 1;
            if self.budget == 0 {
                return false;
            }
            self.budget -= 1;
            match self.spec.apply_step(self.steps[p]) {
                Ok(undo) => {
                    let entered = Entered {
                        op: p,
                        undo,
                        lo: self.lo,
                        hi: self.hi,
                    };
                    self.mark_done(p);
                    if !self.memo.insert(self.memo_key()) {
                        self.unmark(entered);
                    } else if self.by_ack.is_empty() {
                        return true;
                    } else {
                        self.push_frame(Some(entered));
                    }
                }
                Err(reject) => {
                    let depth = self.ops.len() - self.by_ack.len();
                    if self.best_failure.is_none() || depth > self.best_depth {
                        self.best_depth = depth;
                        self.best_failure = Some((p, reject));
                    }
                }
            }
        }
        false
    }
}
