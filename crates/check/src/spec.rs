//! The sequential namespace specification the checkers replay histories
//! against.
//!
//! The spec is *adaptive*: every `(dir, name)` slot starts out `Unknown`
//! and is pinned by the first effective observation that constrains it.
//! This makes the checkers sound against partial recordings — harness
//! setup (`setup_dir`) and pre-epoch state are not in the history, so a
//! lookup that finds a name the history never created pins the slot
//! `Present` instead of flagging a false violation.

use std::collections::{BTreeMap, HashMap};

use cudele_obs::history::{HistoryEvent, HistoryOp, HistoryResult};

/// What the spec knows about one `(dir, name)` slot. Slots never
/// constrained are unknown (unconstrained).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// The name exists; `Some(ino)` once an inode has been observed.
    Present(Option<u64>),
    /// The name does not exist.
    Absent,
}

/// Undo record for one [`NamespaceSpec::apply`]: the prior contents of
/// the (at most two) slots it wrote, so the linearizability search can
/// backtrack without cloning or allocating.
#[derive(Debug, Clone, Copy, Default)]
pub struct Undo {
    len: u8,
    writes: [(u32, Option<Entry>); 2],
}

/// One effective op resolved to interned slot ids: everything a spec
/// step needs, with no names left to hash.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    /// Constrains nothing: a no-effect result, an ENOENT create (about
    /// the parent, which the per-slot spec does not model), a merge.
    Nothing,
    /// create/mkdir succeeded: the slot must not be present.
    Create { slot: u32, ino: Option<u64> },
    /// create/mkdir returned EEXIST: the slot must not be absent.
    Exists { slot: u32 },
    /// unlink succeeded: the slot must not be absent.
    Unlink { slot: u32 },
    /// unlink or rename returned ENOENT, or a lookup missed: the slot
    /// must not be present.
    Missing { slot: u32 },
    /// rename succeeded: the source must not be absent; it moves to `dst`.
    Rename { src: u32, dst: u32 },
    /// A lookup found `ino`: the slot must not be absent or another inode.
    Found { slot: u32, ino: u64 },
    /// A readdir listed `entries` names of directory `dir` (a dense id).
    Readdir { dir: u32, entries: u64 },
}

/// Why a step contradicts the current state. [`Reject::describe`] turns
/// it into the witness text; only a reported witness is formatted.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Reject {
    /// The op implies the name was absent, but it is known present.
    Present,
    /// The op implies the name was present, but it is known absent.
    Absent,
    /// A lookup returned `got`, but the slot holds `expected`.
    Inode { got: u64, expected: u64 },
    /// A readdir listed fewer entries than are known present.
    Listed { entries: u64, known: u64 },
}

impl Reject {
    /// The witness text for `ev`, the op whose step was rejected.
    pub(crate) fn describe(self, ev: &HistoryEvent) -> String {
        let kind = ev.op_kind();
        let (dir, name) = match &ev.op {
            HistoryOp::Create { dir, name }
            | HistoryOp::Mkdir { dir, name }
            | HistoryOp::Unlink { dir, name }
            | HistoryOp::Lookup { dir, name, .. } => (*dir, name.as_str()),
            HistoryOp::Rename {
                src_dir, src_name, ..
            } => (*src_dir, src_name.as_str()),
            HistoryOp::Readdir { dir, .. } => (*dir, ""),
            HistoryOp::Merge { .. } => (0, ""),
        };
        let creates = matches!(ev.op, HistoryOp::Create { .. } | HistoryOp::Mkdir { .. });
        let lookup = matches!(ev.op, HistoryOp::Lookup { .. });
        match self {
            Reject::Present if creates => {
                format!("{kind} of already-present name {dir}/{name} succeeded")
            }
            Reject::Present if lookup => format!("lookup missed present name {dir}/{name}"),
            Reject::Present => format!("{kind} of present name {dir}/{name} returned ENOENT"),
            Reject::Absent if creates => {
                format!("{kind} of absent name {dir}/{name} returned EEXIST")
            }
            Reject::Absent if lookup => format!("lookup found absent name {dir}/{name}"),
            Reject::Absent => format!("{kind} of absent name {dir}/{name} succeeded"),
            Reject::Inode { got, expected } => {
                format!("lookup of {dir}/{name} returned inode {got}, expected {expected}")
            }
            Reject::Listed { entries, known } => {
                format!("readdir of {dir} returned {entries} entries, {known} known present")
            }
        }
    }
}

/// The sequential spec state: a partial map of the namespace over
/// interned slots. Each distinct `(dir, name)` gets a dense slot id the
/// first time the spec sees it, and each directory a dense id with a
/// count of its slots known present (the lower bound a readdir must
/// meet), kept up to date by every write and revert.
#[derive(Debug, Clone, Default)]
pub struct NamespaceSpec {
    /// Directory inode → dense directory id.
    dirs: HashMap<u64, u32>,
    /// Per directory id: name → slot id.
    names: Vec<HashMap<String, u32>>,
    /// Per directory id: slots known `Present`.
    present: Vec<u64>,
    /// Per slot id: (directory id, knowledge; `None` = unknown).
    slots: Vec<(u32, Option<Entry>)>,
}

impl NamespaceSpec {
    /// An empty (fully unknown) namespace.
    pub fn new() -> NamespaceSpec {
        NamespaceSpec::default()
    }

    /// Number of slots known `Present` in `dir` — the lower bound a
    /// readdir of `dir` must return.
    pub fn known_present_in(&self, dir: u64) -> u64 {
        self.dirs.get(&dir).map_or(0, |&d| self.present[d as usize])
    }

    /// Current knowledge about `(dir, name)`; `None` = unknown.
    pub fn entry(&self, dir: u64, name: &str) -> Option<Entry> {
        let d = *self.dirs.get(&dir)?;
        let slot = *self.names[d as usize].get(name)?;
        self.slots[slot as usize].1
    }

    /// Every known slot, ordered by `(dir, name)`.
    fn known(&self) -> BTreeMap<(u64, &str), Entry> {
        let mut out = BTreeMap::new();
        for (&dir, &d) in &self.dirs {
            for (name, &slot) in &self.names[d as usize] {
                if let Some(e) = self.slots[slot as usize].1 {
                    out.insert((dir, name.as_str()), e);
                }
            }
        }
        out
    }

    fn dir_id(&mut self, dir: u64) -> u32 {
        let next = u32::try_from(self.present.len()).expect("fewer than 2^32 directories");
        let d = *self.dirs.entry(dir).or_insert(next);
        if d == next {
            self.present.push(0);
            self.names.push(HashMap::new());
        }
        d
    }

    fn slot(&mut self, dir: u64, name: &str) -> u32 {
        let d = self.dir_id(dir);
        if let Some(&slot) = self.names[d as usize].get(name) {
            return slot;
        }
        let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 slots");
        self.names[d as usize].insert(name.to_string(), slot);
        self.slots.push((d, None));
        slot
    }

    /// Resolves `ev` to the step it takes, interning the slots it names.
    pub(crate) fn resolve(&mut self, ev: &HistoryEvent) -> Step {
        if !ev.result.effective() {
            return Step::Nothing;
        }
        match (&ev.op, ev.result) {
            (HistoryOp::Create { dir, name } | HistoryOp::Mkdir { dir, name }, r) => match r {
                HistoryResult::Ok => Step::Create {
                    slot: self.slot(*dir, name),
                    ino: (ev.ino != 0).then_some(ev.ino),
                },
                HistoryResult::Exists => Step::Exists {
                    slot: self.slot(*dir, name),
                },
                _ => Step::Nothing,
            },
            (HistoryOp::Unlink { dir, name }, HistoryResult::Ok) => Step::Unlink {
                slot: self.slot(*dir, name),
            },
            (HistoryOp::Unlink { dir, name }, HistoryResult::NoEnt) => Step::Missing {
                slot: self.slot(*dir, name),
            },
            (
                HistoryOp::Rename {
                    src_dir,
                    src_name,
                    dst_dir,
                    dst_name,
                },
                HistoryResult::Ok,
            ) => Step::Rename {
                src: self.slot(*src_dir, src_name),
                dst: self.slot(*dst_dir, dst_name),
            },
            (
                HistoryOp::Rename {
                    src_dir, src_name, ..
                },
                HistoryResult::NoEnt,
            ) => Step::Missing {
                slot: self.slot(*src_dir, src_name),
            },
            (HistoryOp::Lookup { dir, name, found }, _) => {
                let slot = self.slot(*dir, name);
                match found {
                    Some(ino) => Step::Found { slot, ino: *ino },
                    None => Step::Missing { slot },
                }
            }
            (HistoryOp::Readdir { dir, entries }, _) => Step::Readdir {
                dir: self.dir_id(*dir),
                entries: *entries,
            },
            // Merge visibility is checked by the eventual checker; as a
            // spec step it constrains nothing.
            _ => Step::Nothing,
        }
    }

    /// Sets a slot's knowledge, keeping its directory's present count,
    /// and returns the prior knowledge.
    fn put(&mut self, slot: u32, e: Option<Entry>) -> Option<Entry> {
        let (d, entry) = &mut self.slots[slot as usize];
        let prev = std::mem::replace(entry, e);
        let present = &mut self.present[*d as usize];
        *present -= u64::from(matches!(prev, Some(Entry::Present(_))));
        *present += u64::from(matches!(e, Some(Entry::Present(_))));
        prev
    }

    fn write(&mut self, undo: &mut Undo, slot: u32, e: Entry) {
        let prev = self.put(slot, Some(e));
        undo.writes[undo.len as usize] = (slot, prev);
        undo.len += 1;
    }

    /// Takes one resolved step, or reports why the state contradicts it.
    pub(crate) fn apply_step(&mut self, step: Step) -> Result<Undo, Reject> {
        let mut undo = Undo::default();
        let get = |spec: &Self, slot: u32| spec.slots[slot as usize].1;
        match step {
            Step::Nothing => {}
            Step::Create { slot, ino } => {
                if let Some(Entry::Present(_)) = get(self, slot) {
                    return Err(Reject::Present);
                }
                self.write(&mut undo, slot, Entry::Present(ino));
            }
            Step::Exists { slot } => match get(self, slot) {
                Some(Entry::Absent) => return Err(Reject::Absent),
                Some(Entry::Present(_)) => {}
                None => self.write(&mut undo, slot, Entry::Present(None)),
            },
            Step::Unlink { slot } => {
                if get(self, slot) == Some(Entry::Absent) {
                    return Err(Reject::Absent);
                }
                self.write(&mut undo, slot, Entry::Absent);
            }
            Step::Missing { slot } => {
                if let Some(Entry::Present(_)) = get(self, slot) {
                    return Err(Reject::Present);
                }
                self.write(&mut undo, slot, Entry::Absent);
            }
            Step::Rename { src, dst } => {
                let moved = match get(self, src) {
                    Some(Entry::Absent) => return Err(Reject::Absent),
                    Some(Entry::Present(ino)) => Entry::Present(ino),
                    None => Entry::Present(None),
                };
                self.write(&mut undo, src, Entry::Absent);
                self.write(&mut undo, dst, moved);
            }
            Step::Found { slot, ino } => match get(self, slot) {
                Some(Entry::Absent) => return Err(Reject::Absent),
                Some(Entry::Present(Some(prev))) if prev != ino => {
                    return Err(Reject::Inode {
                        got: ino,
                        expected: prev,
                    });
                }
                _ => self.write(&mut undo, slot, Entry::Present(Some(ino))),
            },
            Step::Readdir { dir, entries } => {
                let known = self.present[dir as usize];
                if entries < known {
                    return Err(Reject::Listed { entries, known });
                }
            }
        }
        Ok(undo)
    }

    /// Reverts one applied event (undo records must be reverted in LIFO
    /// order relative to their applies).
    pub fn revert(&mut self, undo: Undo) {
        for &(slot, prev) in undo.writes[..undo.len as usize].iter().rev() {
            self.put(slot, prev);
        }
    }

    /// Tries to take one step of the sequential spec with `ev`. Returns
    /// the undo record, or the reason the event is inconsistent with the
    /// current state. Non-effective results and merge events are no-ops.
    pub fn apply(&mut self, ev: &HistoryEvent) -> Result<Undo, String> {
        let step = self.resolve(ev);
        self.apply_step(step).map_err(|r| r.describe(ev))
    }
}

/// Two specs are equal when they know the same slots, however they
/// interned them.
impl PartialEq for NamespaceSpec {
    fn eq(&self, other: &NamespaceSpec) -> bool {
        self.known() == other.known()
    }
}

impl Eq for NamespaceSpec {}

/// Helper exposing the op kind for error messages without making
/// `HistoryOp::kind` public API of `cudele-obs`.
trait OpKind {
    fn op_kind(&self) -> &'static str;
}

impl OpKind for HistoryEvent {
    fn op_kind(&self) -> &'static str {
        match self.op {
            HistoryOp::Create { .. } => "create",
            HistoryOp::Mkdir { .. } => "mkdir",
            HistoryOp::Unlink { .. } => "unlink",
            HistoryOp::Rename { .. } => "rename",
            HistoryOp::Lookup { .. } => "lookup",
            HistoryOp::Readdir { .. } => "readdir",
            HistoryOp::Merge { .. } => "merge",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cudele_obs::history::HistoryScope;
    use cudele_sim::Nanos;

    fn ev(op: HistoryOp, result: HistoryResult, ino: u64) -> HistoryEvent {
        HistoryEvent {
            client: 1,
            scope: HistoryScope::Global,
            op,
            result,
            ino,
            invoke: Nanos(0),
            ack: Nanos(0),
            epoch: 1,
            trace_id: 0,
        }
    }

    #[test]
    fn create_lookup_unlink_cycle() {
        let mut s = NamespaceSpec::new();
        let create = ev(
            HistoryOp::Create {
                dir: 1,
                name: "f".into(),
            },
            HistoryResult::Ok,
            42,
        );
        s.apply(&create).unwrap();
        s.apply(&ev(
            HistoryOp::Lookup {
                dir: 1,
                name: "f".into(),
                found: Some(42),
            },
            HistoryResult::Ok,
            0,
        ))
        .unwrap();
        // A second create of the same name must not succeed.
        assert!(s.apply(&create).is_err());
        s.apply(&ev(
            HistoryOp::Unlink {
                dir: 1,
                name: "f".into(),
            },
            HistoryResult::Ok,
            0,
        ))
        .unwrap();
        assert!(s
            .apply(&ev(
                HistoryOp::Lookup {
                    dir: 1,
                    name: "f".into(),
                    found: Some(42),
                },
                HistoryResult::Ok,
                0,
            ))
            .is_err());
    }

    #[test]
    fn unknown_slots_absorb_unrecorded_setup() {
        let mut s = NamespaceSpec::new();
        // Setup created /job before recording started: a lookup that finds
        // it pins Present instead of flagging a violation.
        s.apply(&ev(
            HistoryOp::Lookup {
                dir: 1,
                name: "job".into(),
                found: Some(7),
            },
            HistoryResult::Ok,
            0,
        ))
        .unwrap();
        assert_eq!(s.entry(1, "job"), Some(Entry::Present(Some(7))));
        // But a different inode for the same name is stale.
        assert!(s
            .apply(&ev(
                HistoryOp::Lookup {
                    dir: 1,
                    name: "job".into(),
                    found: Some(9),
                },
                HistoryResult::Ok,
                0,
            ))
            .is_err());
    }

    #[test]
    fn revert_restores_prior_knowledge() {
        let mut s = NamespaceSpec::new();
        let u1 = s
            .apply(&ev(
                HistoryOp::Create {
                    dir: 1,
                    name: "f".into(),
                },
                HistoryResult::Ok,
                42,
            ))
            .unwrap();
        let before = s.clone();
        let u2 = s
            .apply(&ev(
                HistoryOp::Rename {
                    src_dir: 1,
                    src_name: "f".into(),
                    dst_dir: 2,
                    dst_name: "g".into(),
                },
                HistoryResult::Ok,
                0,
            ))
            .unwrap();
        assert_eq!(s.entry(2, "g"), Some(Entry::Present(Some(42))));
        s.revert(u2);
        assert_eq!(s, before);
        s.revert(u1);
        assert_eq!(s, NamespaceSpec::new());
    }

    #[test]
    fn readdir_is_a_lower_bound() {
        let mut s = NamespaceSpec::new();
        for name in ["a", "b"] {
            s.apply(&ev(
                HistoryOp::Create {
                    dir: 1,
                    name: name.into(),
                },
                HistoryResult::Ok,
                0,
            ))
            .unwrap();
        }
        // More entries than known is fine (setup files), fewer is not.
        assert!(s
            .apply(&ev(
                HistoryOp::Readdir { dir: 1, entries: 5 },
                HistoryResult::Ok,
                0
            ))
            .is_ok());
        assert!(s
            .apply(&ev(
                HistoryOp::Readdir { dir: 1, entries: 1 },
                HistoryResult::Ok,
                0
            ))
            .is_err());
    }
}
