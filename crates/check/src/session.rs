//! Session-guarantee checkers for decoupled and stream histories.
//!
//! Decoupled clients never see the global namespace between merges; what
//! they *are* promised is per-session sanity: their own local namespace
//! replays consistently (read-your-writes — the local mirror is exactly
//! the journal applied in order), and repeated global reads never travel
//! backwards in time (monotonic reads).

use std::collections::{BTreeMap, HashMap, HashSet};

use cudele_obs::history::{HistoryEvent, HistoryOp, HistoryScope};

use crate::spec::NamespaceSpec;
use crate::Violation;

/// Read-your-writes: each client's `local`-scope operations, replayed in
/// session order, must form a legal serial history of its namespace
/// mirror — a create acked to the client can never be contradicted by a
/// later op in the same session. Returns ops verified or the witness.
pub fn read_your_writes(events: &[HistoryEvent]) -> Result<u64, Violation> {
    let mut per_client: BTreeMap<u64, NamespaceSpec> = BTreeMap::new();
    let mut checked = 0u64;
    for (i, ev) in events.iter().enumerate() {
        if ev.scope != HistoryScope::Local || !ev.result.effective() {
            continue;
        }
        let spec = per_client.entry(ev.client).or_default();
        if let Err(detail) = spec.apply(ev) {
            return Err(Violation {
                checker: "read-your-writes".to_string(),
                index: i,
                detail: format!("client {}: {detail}", ev.client),
            });
        }
        checked += 1;
    }
    Ok(checked)
}

/// Names that some effective unlink or rename touches anywhere in the
/// history. Reads of these names may legitimately flip between found and
/// not-found under concurrent writers, so the monotonic and eventual
/// checkers exempt them (conservative: never a false violation).
pub fn unstable_names(events: &[HistoryEvent]) -> HashSet<(u64, &str)> {
    let mut set = HashSet::new();
    for ev in events {
        if !ev.result.effective() {
            continue;
        }
        match &ev.op {
            HistoryOp::Unlink { dir, name } => {
                set.insert((*dir, name.as_str()));
            }
            HistoryOp::Rename {
                src_dir,
                src_name,
                dst_dir,
                dst_name,
            } => {
                set.insert((*src_dir, src_name.as_str()));
                set.insert((*dst_dir, dst_name.as_str()));
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
    let mut seen: HashMap<(u64, u64, u64, &str), u64> = HashMap::new();
    let mut checked = 0u64;
    for (i, ev) in events.iter().enumerate() {
        let HistoryOp::Lookup { dir, name, found } = &ev.op else {
            continue;
        };
        if ev.scope != HistoryScope::Global || !ev.result.effective() {
            continue;
        }
        if unstable.contains(&(*dir, name.as_str())) {
            continue;
        }
        checked += 1;
        let key = (ev.client, ev.epoch, *dir, name.as_str());
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
