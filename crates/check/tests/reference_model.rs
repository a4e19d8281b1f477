//! Equivalence of the linearizability search with a reference model.
//!
//! `reference` is the checker as it was first written: a recursive
//! Wing–Gong DFS over a `BTreeMap` spec that rescans every op for
//! `min_ack` at each depth and memoizes full done-set clones. It is
//! quadratic and recurses once per op, but it defines what
//! `linearize::check` must return. The tests generate small random
//! multi-epoch histories — every op kind and result, renames across
//! dirs, readdirs, overlapping intervals, honest or with corrupted
//! observations — and require the whole `Result` (the op count, or the
//! witness index and detail) to be identical, under the default budget
//! and under budgets small enough to run out mid-search. The spec itself
//! is compared step by step as well, with random reverts.

use std::collections::BTreeMap;

use cudele_check::linearize;
use cudele_check::spec::NamespaceSpec;
use cudele_check::Violation;
use cudele_obs::history::{HistoryEvent, HistoryOp, HistoryResult, HistoryScope};
use cudele_sim::Nanos;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// The original recursive checker and its map-based spec, kept verbatim
/// apart from the budget parameter and the trimmed docs.
mod reference {
    use std::collections::{BTreeMap, HashSet};

    use cudele_check::Violation;
    use cudele_obs::history::{HistoryEvent, HistoryOp, HistoryResult, HistoryScope};

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Entry {
        Present(Option<u64>),
        Absent,
    }

    #[derive(Debug)]
    pub struct Undo(Vec<((u64, String), Option<Entry>)>);

    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct NamespaceSpec {
        entries: BTreeMap<(u64, String), Entry>,
    }

    impl NamespaceSpec {
        pub fn known_present_in(&self, dir: u64) -> u64 {
            self.entries
                .range((dir, String::new())..)
                .take_while(|((d, _), _)| *d == dir)
                .filter(|(_, e)| matches!(e, Entry::Present(_)))
                .count() as u64
        }

        pub fn entry(&self, dir: u64, name: &str) -> Option<Entry> {
            self.entries.get(&(dir, name.to_string())).copied()
        }

        fn set(&mut self, undo: &mut Undo, dir: u64, name: &str, e: Entry) {
            let key = (dir, name.to_string());
            let prev = self.entries.insert(key.clone(), e);
            undo.0.push((key, prev));
        }

        pub fn revert(&mut self, undo: Undo) {
            for (key, prev) in undo.0.into_iter().rev() {
                match prev {
                    Some(e) => self.entries.insert(key, e),
                    None => self.entries.remove(&key),
                };
            }
        }

        pub fn apply(&mut self, ev: &HistoryEvent) -> Result<Undo, String> {
            let mut undo = Undo(Vec::new());
            if !ev.result.effective() {
                return Ok(undo);
            }
            match &ev.op {
                HistoryOp::Create { dir, name } | HistoryOp::Mkdir { dir, name } => {
                    match ev.result {
                        HistoryResult::Ok => {
                            if let Some(Entry::Present(_)) = self.entry(*dir, name) {
                                return Err(format!(
                                    "{} of already-present name {dir}/{name} succeeded",
                                    op_kind(ev)
                                ));
                            }
                            let ino = if ev.ino != 0 { Some(ev.ino) } else { None };
                            self.set(&mut undo, *dir, name, Entry::Present(ino));
                        }
                        HistoryResult::Exists => match self.entry(*dir, name) {
                            Some(Entry::Absent) => {
                                return Err(format!(
                                    "{} of absent name {dir}/{name} returned EEXIST",
                                    op_kind(ev)
                                ));
                            }
                            Some(Entry::Present(_)) => {}
                            None => self.set(&mut undo, *dir, name, Entry::Present(None)),
                        },
                        _ => {}
                    }
                }
                HistoryOp::Unlink { dir, name } => match ev.result {
                    HistoryResult::Ok => {
                        if self.entry(*dir, name) == Some(Entry::Absent) {
                            return Err(format!("unlink of absent name {dir}/{name} succeeded"));
                        }
                        self.set(&mut undo, *dir, name, Entry::Absent);
                    }
                    HistoryResult::NoEnt => {
                        if let Some(Entry::Present(_)) = self.entry(*dir, name) {
                            return Err(format!(
                                "unlink of present name {dir}/{name} returned ENOENT"
                            ));
                        }
                        self.set(&mut undo, *dir, name, Entry::Absent);
                    }
                    _ => {}
                },
                HistoryOp::Rename {
                    src_dir,
                    src_name,
                    dst_dir,
                    dst_name,
                } => match ev.result {
                    HistoryResult::Ok => {
                        let src = self.entry(*src_dir, src_name);
                        if src == Some(Entry::Absent) {
                            return Err(format!(
                                "rename of absent name {src_dir}/{src_name} succeeded"
                            ));
                        }
                        let moved = match src {
                            Some(Entry::Present(ino)) => Entry::Present(ino),
                            _ => Entry::Present(None),
                        };
                        self.set(&mut undo, *src_dir, src_name, Entry::Absent);
                        self.set(&mut undo, *dst_dir, dst_name, moved);
                    }
                    HistoryResult::NoEnt => {
                        if let Some(Entry::Present(_)) = self.entry(*src_dir, src_name) {
                            return Err(format!(
                                "rename of present name {src_dir}/{src_name} returned ENOENT"
                            ));
                        }
                        self.set(&mut undo, *src_dir, src_name, Entry::Absent);
                    }
                    _ => {}
                },
                HistoryOp::Lookup { dir, name, found } => match found {
                    Some(ino) => match self.entry(*dir, name) {
                        Some(Entry::Absent) => {
                            return Err(format!("lookup found absent name {dir}/{name}"));
                        }
                        Some(Entry::Present(Some(prev))) if prev != *ino => {
                            return Err(format!(
                                "lookup of {dir}/{name} returned inode {ino}, expected {prev}"
                            ));
                        }
                        _ => self.set(&mut undo, *dir, name, Entry::Present(Some(*ino))),
                    },
                    None => {
                        if let Some(Entry::Present(_)) = self.entry(*dir, name) {
                            return Err(format!("lookup missed present name {dir}/{name}"));
                        }
                        self.set(&mut undo, *dir, name, Entry::Absent);
                    }
                },
                HistoryOp::Readdir { dir, entries } => {
                    let known = self.known_present_in(*dir);
                    if *entries < known {
                        return Err(format!(
                            "readdir of {dir} returned {entries} entries, {known} known present"
                        ));
                    }
                }
                HistoryOp::Merge { .. } => {}
            }
            Ok(undo)
        }
    }

    fn op_kind(ev: &HistoryEvent) -> &'static str {
        match ev.op {
            HistoryOp::Create { .. } => "create",
            HistoryOp::Mkdir { .. } => "mkdir",
            HistoryOp::Unlink { .. } => "unlink",
            HistoryOp::Rename { .. } => "rename",
            HistoryOp::Lookup { .. } => "lookup",
            HistoryOp::Readdir { .. } => "readdir",
            HistoryOp::Merge { .. } => "merge",
        }
    }

    pub fn check(events: &[HistoryEvent], budget: u64) -> Result<u64, Violation> {
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
            let mut search = Search {
                ops,
                done: vec![false; ops.len()],
                remaining: ops.len(),
                spec: NamespaceSpec::default(),
                memo: HashSet::new(),
                budget,
                best_failure: None,
                best_depth: 0,
            };
            if !search.dfs() {
                let (index, detail) = search.best_failure.unwrap_or_else(|| {
                    (
                        ops[0].0,
                        "no linearization within search budget".to_string(),
                    )
                });
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

    struct Search<'a> {
        ops: &'a [(usize, &'a HistoryEvent)],
        done: Vec<bool>,
        remaining: usize,
        spec: NamespaceSpec,
        memo: HashSet<Vec<bool>>,
        budget: u64,
        best_failure: Option<(usize, String)>,
        best_depth: usize,
    }

    impl Search<'_> {
        fn dfs(&mut self) -> bool {
            if self.remaining == 0 {
                return true;
            }
            let min_ack = self
                .ops
                .iter()
                .zip(&self.done)
                .filter(|(_, done)| !**done)
                .map(|((_, ev), _)| ev.ack)
                .min()
                .expect("remaining > 0");
            for i in 0..self.ops.len() {
                if self.done[i] || self.ops[i].1.invoke > min_ack {
                    continue;
                }
                if self.budget == 0 {
                    return false;
                }
                self.budget -= 1;
                match self.spec.apply(self.ops[i].1) {
                    Ok(undo) => {
                        self.done[i] = true;
                        self.remaining -= 1;
                        let unseen = self.memo.insert(self.done.clone());
                        if unseen && self.dfs() {
                            return true;
                        }
                        self.done[i] = false;
                        self.remaining += 1;
                        self.spec.revert(undo);
                    }
                    Err(detail) => {
                        let depth = self.ops.len() - self.remaining;
                        if self.best_failure.is_none() || depth > self.best_depth {
                            self.best_depth = depth;
                            self.best_failure = Some((self.ops[i].0, detail));
                        }
                    }
                }
            }
            false
        }
    }
}

/// The original session and eventual checkers, verbatim: the eventual
/// checker replays the whole history once per merge.
mod reference_eventual {
    use std::collections::{BTreeMap, BTreeSet};

    use cudele_check::Violation;
    use cudele_obs::history::{HistoryEvent, HistoryOp, HistoryScope};

    /// Names that some effective unlink or rename touches anywhere in the
    /// history. Reads of these names may legitimately flip between found and
    /// not-found under concurrent writers, so the monotonic and eventual
    /// checkers exempt them (conservative: never a false violation).
    pub fn unstable_names(events: &[HistoryEvent]) -> BTreeSet<(u64, String)> {
        let mut set = BTreeSet::new();
        for ev in events {
            if !ev.result.effective() {
                continue;
            }
            match &ev.op {
                HistoryOp::Unlink { dir, name } => {
                    set.insert((*dir, name.clone()));
                }
                HistoryOp::Rename {
                    src_dir,
                    src_name,
                    dst_dir,
                    dst_name,
                } => {
                    set.insert((*src_dir, src_name.clone()));
                    set.insert((*dst_dir, dst_name.clone()));
                }
                _ => {}
            }
        }
        set
    }

    /// Monotonic reads: once a client has seen a name in the global
    /// namespace, later lookups by the same client (same epoch) must keep
    /// seeing it, with the same inode. Names touched by unlink/rename are
    /// exempt. Returns lookups verified or the witness.
    pub fn monotonic_reads(events: &[HistoryEvent]) -> Result<u64, Violation> {
        let unstable = unstable_names(events);
        // (client, epoch, dir, name) -> last observed inode.
        let mut seen: BTreeMap<(u64, u64, u64, String), u64> = BTreeMap::new();
        let mut checked = 0u64;
        for (i, ev) in events.iter().enumerate() {
            let HistoryOp::Lookup { dir, name, found } = &ev.op else {
                continue;
            };
            if ev.scope != HistoryScope::Global || !ev.result.effective() {
                continue;
            }
            if unstable.contains(&(*dir, name.clone())) {
                continue;
            }
            checked += 1;
            let key = (ev.client, ev.epoch, *dir, name.clone());
            match (seen.get(&key), found) {
                (Some(prev), None) => {
                    return Err(Violation {
                        checker: "monotonic-reads".to_string(),
                        index: i,
                        detail: format!(
                            "client {} saw {dir}/{name} (inode {prev}) and then lost it",
                            ev.client
                        ),
                    });
                }
                (Some(prev), Some(ino)) if prev != ino => {
                    return Err(Violation {
                        checker: "monotonic-reads".to_string(),
                        index: i,
                        detail: format!(
                            "client {} read {dir}/{name} as inode {ino} after inode {prev}",
                            ev.client
                        ),
                    });
                }
                (_, Some(ino)) => {
                    seen.insert(key, *ino);
                }
                (None, None) => {}
            }
        }
        Ok(checked)
    }
    /// The client-local view a merge ships: names present per (dir, name),
    /// built by blind replay of the client's local ops up to the merge.
    fn covered_names(
        events: &[HistoryEvent],
        client: u64,
        up_to: cudele_sim::Nanos,
    ) -> BTreeSet<(u64, String)> {
        let mut present = BTreeSet::new();
        for ev in events {
            if ev.client != client || ev.scope != HistoryScope::Local || ev.ack > up_to {
                continue;
            }
            if !ev.result.effective() {
                continue;
            }
            match &ev.op {
                HistoryOp::Create { dir, name } | HistoryOp::Mkdir { dir, name } => {
                    present.insert((*dir, name.clone()));
                }
                HistoryOp::Unlink { dir, name } => {
                    present.remove(&(*dir, name.clone()));
                }
                // A rename with an absent source is a no-op: the remove in
                // the guard is the state change, and it fails cleanly.
                HistoryOp::Rename {
                    src_dir,
                    src_name,
                    dst_dir,
                    dst_name,
                } if present.remove(&(*src_dir, src_name.clone())) => {
                    present.insert((*dst_dir, dst_name.clone()));
                }
                _ => {}
            }
        }
        present
    }

    /// Checks every merge's visibility promise against the global reads that
    /// follow it. Returns the number of (merge, read) obligations verified,
    /// or the first violation witness.
    pub fn merge_visibility(events: &[HistoryEvent]) -> Result<u64, Violation> {
        let unstable = unstable_names(events);
        // Earliest merge ack covering each (epoch, dir, name): obligations.
        let mut visible_from: BTreeMap<(u64, u64, String), cudele_sim::Nanos> = BTreeMap::new();
        for ev in events {
            let HistoryOp::Merge { .. } = ev.op else {
                continue;
            };
            if ev.result != cudele_obs::history::HistoryResult::Ok {
                continue;
            }
            for (dir, name) in covered_names(events, ev.client, ev.invoke) {
                if unstable.contains(&(dir, name.clone())) {
                    continue;
                }
                let key = (ev.epoch, dir, name);
                let t = visible_from.entry(key).or_insert(ev.ack);
                if ev.ack < *t {
                    *t = ev.ack;
                }
            }
        }
        let mut checked = 0u64;
        for (i, ev) in events.iter().enumerate() {
            let HistoryOp::Lookup { dir, name, found } = &ev.op else {
                continue;
            };
            if ev.scope != HistoryScope::Global || !ev.result.effective() {
                continue;
            }
            let Some(from) = visible_from.get(&(ev.epoch, *dir, name.clone())) else {
                continue;
            };
            if ev.invoke < *from {
                continue;
            }
            checked += 1;
            if found.is_none() {
                return Err(Violation {
                    checker: "eventual-visibility".to_string(),
                    index: i,
                    detail: format!(
                        "client {} missed {dir}/{name} at t={} though its merge acked at t={}",
                        ev.client, ev.invoke.0, from.0
                    ),
                });
            }
        }
        Ok(checked)
    }
}

const DIRS: [u64; 2] = [1, 2];
const NAMES: [&str; 2] = ["a", "b"];

fn pick<T: Copy>(rng: &mut TestRng, xs: &[T]) -> T {
    xs[rng.index(xs.len())]
}

fn chance(rng: &mut TestRng, one_in: usize) -> bool {
    rng.index(one_in) == 0
}

/// A small random history. Ops take effect at a random point inside
/// their `[invoke, ack]` interval against a model namespace that starts
/// with unrecorded setup entries, so the honest results are linearizable;
/// then up to four observations are corrupted. Events are
/// recorded in ack order with occasional swaps, spread over up to three
/// epochs (or all in epoch 0), and mixed with local-scope ops, merges and
/// no-effect results that the search must ignore.
fn random_history(rng: &mut TestRng) -> Vec<HistoryEvent> {
    let n = 1 + rng.index(16);
    random_history_of(rng, n, 4)
}

/// [`random_history`] with `n` ops and up to `corrupt` corruptions, the
/// time span growing with `n` so the concurrency stays the same.
fn random_history_of(rng: &mut TestRng, n: usize, corrupt: usize) -> Vec<HistoryEvent> {
    let epochs = 1 + rng.index(3) as u64;
    let epoch_zero = chance(rng, 10);
    let span = 40 * n.div_ceil(16) as u64;
    let mut model: BTreeMap<(u64, &str), u64> = BTreeMap::new();
    let mut next_ino = 100u64;
    for dir in DIRS {
        for name in NAMES {
            if chance(rng, 4) {
                model.insert((dir, name), next_ino);
                next_ino += 1;
            }
        }
    }
    struct Planned {
        /// The point inside `[invoke, ack]` where the op takes effect.
        at: u64,
        invoke: u64,
        ack: u64,
        kind: usize,
        slot: (u64, &'static str),
        slot2: (u64, &'static str),
    }
    let mut plan: Vec<Planned> = (0..n)
        .map(|_| {
            let invoke = rng.index(span as usize) as u64;
            let len = if chance(rng, 4) {
                0
            } else {
                rng.index(8) as u64
            };
            Planned {
                at: invoke + rng.index(len as usize + 1) as u64,
                invoke,
                ack: invoke + len,
                kind: rng.index(8),
                slot: (pick(rng, &DIRS), pick(rng, &NAMES)),
                slot2: (pick(rng, &DIRS), pick(rng, &NAMES)),
            }
        })
        .collect();
    plan.sort_by_key(|p| p.at);
    let mut events = Vec::new();
    for p in plan {
        let Planned {
            at,
            invoke,
            ack,
            kind,
            slot: (dir, name),
            slot2: (dir2, name2),
        } = p;
        let key = (dir, name);
        // A local op runs against its client's own namespace: it sees
        // the global state but leaves it as it was.
        let local = chance(rng, 12).then(|| model.clone());
        let (op, result, ino) = match kind {
            0 | 1 => {
                let op = if kind == 0 {
                    HistoryOp::Create {
                        dir,
                        name: name.into(),
                    }
                } else {
                    HistoryOp::Mkdir {
                        dir,
                        name: name.into(),
                    }
                };
                if chance(rng, 10) {
                    (op, HistoryResult::NoEnt, 0)
                } else if let std::collections::btree_map::Entry::Vacant(slot) = model.entry(key) {
                    slot.insert(next_ino);
                    next_ino += 1;
                    let ino = if chance(rng, 5) { 0 } else { next_ino - 1 };
                    (op, HistoryResult::Ok, ino)
                } else {
                    (op, HistoryResult::Exists, 0)
                }
            }
            2 => {
                let result = if model.remove(&key).is_some() {
                    HistoryResult::Ok
                } else {
                    HistoryResult::NoEnt
                };
                let op = HistoryOp::Unlink {
                    dir,
                    name: name.into(),
                };
                (op, result, 0)
            }
            3 => {
                let op = HistoryOp::Rename {
                    src_dir: dir,
                    src_name: name.into(),
                    dst_dir: dir2,
                    dst_name: name2.into(),
                };
                match model.remove(&key) {
                    Some(ino) => {
                        model.insert((dir2, name2), ino);
                        (op, HistoryResult::Ok, 0)
                    }
                    None => (op, HistoryResult::NoEnt, 0),
                }
            }
            4 | 5 => {
                let found = model.get(&key).copied();
                let result = if found.is_some() {
                    HistoryResult::Ok
                } else {
                    HistoryResult::NoEnt
                };
                let op = HistoryOp::Lookup {
                    dir,
                    name: name.into(),
                    found,
                };
                (op, result, 0)
            }
            6 => {
                let present = model.keys().filter(|(d, _)| *d == dir).count() as u64;
                let op = HistoryOp::Readdir {
                    dir,
                    entries: present + rng.index(2) as u64,
                };
                (op, HistoryResult::Ok, 0)
            }
            _ => (
                HistoryOp::Merge {
                    events: rng.index(4) as u64,
                },
                HistoryResult::Ok,
                0,
            ),
        };
        let scope = match local {
            Some(global) => {
                model = global;
                HistoryScope::Local
            }
            None => HistoryScope::Global,
        };
        // Epochs cut the linearization, as failovers do.
        let epoch = if epoch_zero {
            0
        } else {
            1 + at * epochs / (span + 8 * (span / 40))
        };
        events.push(HistoryEvent {
            client: 1 + rng.index(4) as u64,
            scope,
            op,
            result,
            ino,
            invoke: Nanos(invoke),
            ack: Nanos(ack),
            epoch,
            trace_id: 0,
        });
    }
    events.sort_by_key(|e| e.ack);
    for i in 1..events.len() {
        if chance(rng, 6) {
            events.swap(i - 1, i);
        }
    }
    for _ in 0..rng.index(corrupt + 1) {
        let i = rng.index(events.len());
        damage(rng, &mut events[i]);
    }
    events
}

/// Corrupts one observation: a flipped or wrong lookup, a short readdir,
/// a different inode, or an arbitrary (possibly no-effect) result.
fn damage(rng: &mut TestRng, ev: &mut HistoryEvent) {
    const RESULTS: [HistoryResult; 8] = [
        HistoryResult::Ok,
        HistoryResult::Exists,
        HistoryResult::NoEnt,
        HistoryResult::Busy,
        HistoryResult::NoSession,
        HistoryResult::Timeout,
        HistoryResult::Fenced,
        HistoryResult::Err,
    ];
    match &mut ev.op {
        HistoryOp::Lookup { found, .. } if chance(rng, 2) => {
            *found = match found {
                Some(ino) if chance(rng, 2) => Some(*ino + 1),
                Some(_) => None,
                None => Some(100 + rng.index(12) as u64),
            };
        }
        HistoryOp::Readdir { entries, .. } if *entries > 0 && chance(rng, 2) => {
            *entries -= 1;
        }
        HistoryOp::Create { .. } | HistoryOp::Mkdir { .. } if chance(rng, 3) => {
            ev.ino = 100 + rng.index(12) as u64;
        }
        _ if chance(rng, 3) => ev.result = pick(rng, &RESULTS),
        _ => {
            ev.result = pick(rng, &RESULTS[..3]);
            if let HistoryOp::Lookup { found, .. } = &mut ev.op {
                *found = found.xor(Some(100 + rng.index(12) as u64));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8192))]

    #[test]
    fn search_matches_reference_model(seed in any::<u64>()) {
        let events = random_history(&mut TestRng::from_seed(seed));
        let want = reference::check(&events, linearize::DEFAULT_BUDGET);
        prop_assert_eq!(linearize::check(&events), want, "history: {:#?}", events);
    }

    #[test]
    fn search_spends_budget_like_reference_model(seed in any::<u64>(), budget in 0u64..40) {
        let events = random_history(&mut TestRng::from_seed(seed));
        let want = reference::check(&events, budget);
        prop_assert_eq!(
            linearize::check_with_budget(&events, budget),
            want,
            "budget {}, history: {:#?}",
            budget,
            events
        );
    }

    #[test]
    fn spec_steps_and_reverts_match_reference_model(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        let events = random_history(&mut rng);
        let mut got = NamespaceSpec::new();
        let mut want = reference::NamespaceSpec::default();
        for ev in &events {
            match (got.apply(ev), want.apply(ev)) {
                (Ok(g), Ok(w)) if chance(&mut rng, 3) => {
                    got.revert(g);
                    want.revert(w);
                }
                (Ok(_), Ok(_)) => {}
                (Err(g), Err(w)) => prop_assert_eq!(g, w),
                (g, w) => prop_assert!(false, "{:?} vs {:?} on {:?}", g.map(drop), w.map(drop), ev),
            }
            for dir in DIRS {
                prop_assert_eq!(got.known_present_in(dir), want.known_present_in(dir));
                for name in NAMES {
                    let g = got.entry(dir, name).map(|e| format!("{e:?}"));
                    let w = want.entry(dir, name).map(|e| format!("{e:?}"));
                    prop_assert_eq!(g, w);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn search_matches_reference_model_past_one_bitmap_word(seed in any::<u64>()) {
        // Windows that straddle 64-op word boundaries, under a budget
        // that keeps the reference model's O(n) nodes affordable.
        let mut rng = TestRng::from_seed(seed);
        let n = 64 + rng.index(160);
        let events = random_history_of(&mut rng, n, 1);
        let want = reference::check(&events, 5_000);
        prop_assert_eq!(linearize::check_with_budget(&events, 5_000), want);
    }
}

/// The generator reaches both verdicts, multi-epoch histories, and
/// every rejection the spec can report, so the equivalence above is not
/// vacuous.
#[test]
fn generator_covers_both_verdicts_and_every_rejection() {
    let mut clean = 0;
    let mut multi_epoch = 0;
    let mut details: Vec<String> = Vec::new();
    let mut out_of_budget = 0;
    for seed in 0..20_000u64 {
        let events = random_history(&mut TestRng::from_seed(seed));
        if let Err(v) = reference::check(&events, seed % 8) {
            out_of_budget += usize::from(v.detail.contains("within search budget"));
        }
        let epochs: std::collections::BTreeSet<u64> = events.iter().map(|e| e.epoch).collect();
        if epochs.len() > 1 {
            multi_epoch += 1;
        }
        match reference::check(&events, linearize::DEFAULT_BUDGET) {
            Ok(_) => clean += 1,
            Err(Violation { detail, .. }) => details.push(detail),
        }
    }
    assert!(
        clean > 5_000 && details.len() > 2_000,
        "clean {clean}, violating {}",
        details.len()
    );
    assert!(multi_epoch > 5_000, "multi-epoch {multi_epoch}");
    assert!(out_of_budget > 1_000, "out of budget {out_of_budget}");
    for needle in [
        "create of already-present",
        "mkdir of absent name",
        "returned EEXIST",
        "unlink of absent name",
        "unlink of present name",
        "rename of absent name",
        "rename of present name",
        "lookup found absent name",
        "expected",
        "lookup missed present name",
        "known present",
    ] {
        assert!(
            details.iter().any(|d| d.contains(needle)),
            "no witness mentions {needle:?}"
        );
    }
}

/// A random decoupled history: writers 7–9 make zero-width local ops
/// (in time order, except that a clock sometimes steps back) and merge
/// often, in one of two epochs; readers 1–2 look names up in the global
/// namespace before and after the merges, seeing them or not at random.
fn random_decoupled_history(rng: &mut TestRng) -> Vec<HistoryEvent> {
    const WRITERS: [u64; 3] = [7, 8, 9];
    const NAMES4: [&str; 4] = ["a", "b", "c", "d"];
    let mut clock = [0u64; 3];
    let mut events = Vec::new();
    for _ in 0..1 + rng.index(60) {
        let w = rng.index(WRITERS.len());
        let result = if chance(rng, 8) {
            pick(
                rng,
                &[
                    HistoryResult::Exists,
                    HistoryResult::NoEnt,
                    HistoryResult::Err,
                ],
            )
        } else {
            HistoryResult::Ok
        };
        let dir = pick(rng, &DIRS);
        let name = pick(rng, &NAMES4).to_string();
        let (client, scope, op, invoke, ack) = match rng.index(10) {
            0..=4 => {
                clock[w] = if chance(rng, 15) {
                    clock[w].saturating_sub(8)
                } else {
                    clock[w] + rng.index(5) as u64
                };
                let op = match rng.index(6) {
                    0 | 1 => HistoryOp::Create { dir, name },
                    2 => HistoryOp::Mkdir { dir, name },
                    3 => HistoryOp::Unlink { dir, name },
                    _ => HistoryOp::Rename {
                        src_dir: dir,
                        src_name: name,
                        dst_dir: pick(rng, &DIRS),
                        dst_name: pick(rng, &NAMES4).to_string(),
                    },
                };
                (WRITERS[w], HistoryScope::Local, op, clock[w], clock[w])
            }
            5 | 6 => {
                let invoke = clock[w] + rng.index(5) as u64;
                let op = HistoryOp::Merge {
                    events: rng.index(9) as u64,
                };
                let ack = invoke + rng.index(10) as u64;
                (WRITERS[w], HistoryScope::Global, op, invoke, ack)
            }
            _ => {
                let invoke =
                    rng.index(clock.iter().max().copied().unwrap_or(0) as usize + 20) as u64;
                let found = (!chance(rng, 3)).then_some(100);
                let op = HistoryOp::Lookup { dir, name, found };
                (
                    1 + rng.index(2) as u64,
                    HistoryScope::Global,
                    op,
                    invoke,
                    invoke + 1,
                )
            }
        };
        events.push(HistoryEvent {
            client,
            scope,
            op,
            result,
            ino: 0,
            invoke: Nanos(invoke),
            ack: Nanos(ack),
            epoch: 1 + rng.index(2) as u64,
            trace_id: 0,
        });
    }
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn session_and_eventual_checkers_match_reference_model(seed in any::<u64>()) {
        let events = random_decoupled_history(&mut TestRng::from_seed(seed));
        prop_assert_eq!(
            cudele_check::eventual::merge_visibility(&events),
            reference_eventual::merge_visibility(&events),
            "history: {:#?}",
            events
        );
        prop_assert_eq!(
            cudele_check::session::monotonic_reads(&events),
            reference_eventual::monotonic_reads(&events),
            "history: {:#?}",
            events
        );
    }
}

/// Three writers each merge after every third create, 600 merges in
/// all; readers then look every name up. The one-pass replay reports the
/// same verdict, witness and obligation count as the per-merge rescan.
#[test]
fn many_merges_per_client_match_reference_model() {
    let mut events = Vec::new();
    let mut t = 0u64;
    for round in 0..200u64 {
        for writer in [7u64, 8, 9] {
            for k in 0..3 {
                events.push(HistoryEvent {
                    client: writer,
                    scope: HistoryScope::Local,
                    op: HistoryOp::Create {
                        dir: 1,
                        name: format!("w{writer}-{round}-{k}"),
                    },
                    result: HistoryResult::Ok,
                    ino: 1000 + t,
                    invoke: Nanos(t),
                    ack: Nanos(t),
                    epoch: 0,
                    trace_id: 0,
                });
                t += 1;
            }
            events.push(HistoryEvent {
                client: writer,
                scope: HistoryScope::Global,
                op: HistoryOp::Merge { events: 3 },
                result: HistoryResult::Ok,
                ino: 0,
                invoke: Nanos(t),
                ack: Nanos(t + 2),
                epoch: 1,
                trace_id: 0,
            });
            t += 3;
        }
    }
    let names: Vec<(u64, String)> = events
        .iter()
        .filter_map(|e| match &e.op {
            HistoryOp::Create { dir, name } => Some((*dir, name.clone())),
            _ => None,
        })
        .collect();
    for (dir, name) in names {
        events.push(HistoryEvent {
            client: 2,
            scope: HistoryScope::Global,
            op: HistoryOp::Lookup {
                dir,
                name,
                found: Some(5),
            },
            result: HistoryResult::Ok,
            ino: 0,
            invoke: Nanos(t),
            ack: Nanos(t + 1),
            epoch: 1,
            trace_id: 0,
        });
        t += 2;
    }
    let got = cudele_check::eventual::merge_visibility(&events);
    assert_eq!(got, Ok(1800));
    assert_eq!(got, reference_eventual::merge_visibility(&events));
    // A reader that misses a name merged long ago is the witness.
    let last = events.len() - 1;
    if let HistoryOp::Lookup { found, .. } = &mut events[last - 100].op {
        *found = None;
    }
    let got = cudele_check::eventual::merge_visibility(&events);
    assert_eq!(got.as_ref().map_err(|v| v.index), Err(last - 100));
    assert_eq!(got, reference_eventual::merge_visibility(&events));
}

/// The decoupled generator reaches violations, clean histories with
/// obligations, and writers whose clocks step back.
#[test]
fn decoupled_generator_covers_both_verdicts() {
    let (mut violating, mut verified, mut backwards) = (0, 0, 0);
    for seed in 0..5_000u64 {
        let events = random_decoupled_history(&mut TestRng::from_seed(seed));
        match reference_eventual::merge_visibility(&events) {
            Err(_) => violating += 1,
            Ok(n) if n > 0 => verified += 1,
            Ok(_) => {}
        }
        let mut last: BTreeMap<u64, Nanos> = BTreeMap::new();
        for ev in events.iter().filter(|e| e.scope == HistoryScope::Local) {
            if last
                .insert(ev.client, ev.ack)
                .is_some_and(|prev| prev > ev.ack)
            {
                backwards += 1;
                break;
            }
        }
    }
    assert!(
        violating > 250 && verified > 250,
        "{violating} violating, {verified} verified"
    );
    assert!(backwards > 250, "{backwards} histories step back");
}
