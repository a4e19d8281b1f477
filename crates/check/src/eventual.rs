//! Eventual-visibility-after-merge: the guarantee a decoupled policy
//! *does* make. Updates are invisible to the global namespace while they
//! sit in the client journal, but once a merge completes, every update it
//! carried must be observable by all clients.
//!
//! For each recorded merge by client `c` acked at `t`, the covered set is
//! `c`'s local namespace as of the merge's invocation (its local ops
//! replayed blind, exactly what the journal ships). Any effective global
//! lookup invoked at or after `t` in the merge's epoch must then find the
//! covered names. Names later unlinked or renamed by anyone are exempt
//! (see [`crate::session::unstable_names`]); inode equality is not
//! required here — blind merges may remap — only presence, which is what
//! "visible in the global namespace" means.

use std::collections::{HashMap, HashSet};

use cudele_obs::history::{HistoryEvent, HistoryOp, HistoryResult, HistoryScope};
use cudele_sim::Nanos;

use crate::session::unstable_names;
use crate::Violation;

/// Blind replay of one client-local op onto the names it has present.
fn replay<'e>(present: &mut HashSet<(u64, &'e str)>, ev: &'e HistoryEvent) {
    match &ev.op {
        HistoryOp::Create { dir, name } | HistoryOp::Mkdir { dir, name } => {
            present.insert((*dir, name));
        }
        HistoryOp::Unlink { dir, name } => {
            present.remove(&(*dir, name.as_str()));
        }
        // A rename with an absent source is a no-op: the remove in
        // the guard is the state change, and it fails cleanly.
        HistoryOp::Rename {
            src_dir,
            src_name,
            dst_dir,
            dst_name,
        } if present.remove(&(*src_dir, src_name.as_str())) => {
            present.insert((*dst_dir, dst_name));
        }
        _ => {}
    }
}

/// The earliest merge ack covering each `(epoch, dir, name)`: the
/// obligations later global lookups must meet. A merge covers its
/// client's effective local ops acked by the merge's invocation,
/// replayed in recording order.
///
/// One pass groups each client's local ops and successful merges; the
/// merges are then taken in invocation order, and each extends the
/// previous one's replay by the ops acked since. A client whose local
/// acks ever go backwards in recording order (the simulator's
/// synchronous sessions never do) is replayed from scratch per merge.
fn obligations<'e>(
    events: &'e [HistoryEvent],
    unstable: &HashSet<(u64, &str)>,
) -> HashMap<(u64, u64, &'e str), Nanos> {
    let mut locals: HashMap<u64, Vec<&HistoryEvent>> = HashMap::new();
    let mut merges: HashMap<u64, Vec<&HistoryEvent>> = HashMap::new();
    for ev in events {
        if let HistoryOp::Merge { .. } = ev.op {
            if ev.result == HistoryResult::Ok {
                merges.entry(ev.client).or_default().push(ev);
            }
        } else if ev.scope == HistoryScope::Local && ev.result.effective() {
            locals.entry(ev.client).or_default().push(ev);
        }
    }
    let mut visible_from = HashMap::new();
    for (client, mut merges) in merges {
        merges.sort_by_key(|m| m.invoke);
        let ops = locals.get(&client).map_or(&[][..], Vec::as_slice);
        let in_order = ops.windows(2).all(|w| w[0].ack <= w[1].ack);
        let mut present = HashSet::new();
        let mut replayed = 0;
        for m in merges {
            if in_order {
                let end = replayed + ops[replayed..].partition_point(|op| op.ack <= m.invoke);
                for op in &ops[replayed..end] {
                    replay(&mut present, op);
                }
                replayed = end;
            } else {
                present.clear();
                for op in ops.iter().filter(|op| op.ack <= m.invoke) {
                    replay(&mut present, op);
                }
            }
            for &(dir, name) in &present {
                if unstable.contains(&(dir, name)) {
                    continue;
                }
                let t = visible_from.entry((m.epoch, dir, name)).or_insert(m.ack);
                *t = (*t).min(m.ack);
            }
        }
    }
    visible_from
}

/// Checks every merge's visibility promise against the global reads that
/// follow it. Returns the number of (merge, read) obligations verified,
/// or the first violation witness.
pub fn merge_visibility(events: &[HistoryEvent]) -> Result<u64, Violation> {
    let unstable = unstable_names(events);
    let visible_from = obligations(events, &unstable);
    let mut checked = 0u64;
    for (i, ev) in events.iter().enumerate() {
        let HistoryOp::Lookup { dir, name, found } = &ev.op else {
            continue;
        };
        if ev.scope != HistoryScope::Global || !ev.result.effective() {
            continue;
        }
        let Some(from) = visible_from.get(&(ev.epoch, *dir, name.as_str())) else {
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
