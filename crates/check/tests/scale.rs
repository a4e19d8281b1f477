//! The linearizability checker at the scale the engine records: a
//! 160k-op, 8-client RPC history with overlapping intervals checks
//! clean without exhausting the stack, and one stale read injected deep
//! into it is reported at its own index.

use cudele_check::linearize;
use cudele_obs::history::{HistoryEvent, HistoryOp, HistoryResult, HistoryScope};
use cudele_sim::Nanos;

const CLIENTS: u64 = 8;
const OPS_PER_CLIENT: u64 = 20_000;

/// Each client issues its ops back to back, one per 80 ns period,
/// offset by 10 ns per client and 30–69 ns long, so every op overlaps
/// ops of several other clients. Three in four ops create a fresh name
/// (half the clients share a directory); the rest look up the name the
/// client created two ops before, or list a directory. The server
/// applies each op at its invocation, and the history records ops in
/// ack order, as the MDS does.
fn history() -> Vec<HistoryEvent> {
    let mut ops = Vec::new();
    for c in 0..CLIENTS {
        let dir = 1 + c % 2;
        for j in 0..OPS_PER_CLIENT {
            let invoke = j * 80 + c * 10;
            let ack = invoke + 30 + (j * 7 + c * 13) % 40;
            let op = match j % 8 {
                2 | 6 => HistoryOp::Lookup {
                    dir,
                    name: format!("c{c}-{}", j - 2),
                    found: Some(1000 + (j - 2) * CLIENTS + c),
                },
                7 => HistoryOp::Readdir { dir, entries: 0 },
                _ => HistoryOp::Create {
                    dir,
                    name: format!("c{c}-{j}"),
                },
            };
            ops.push(HistoryEvent {
                client: c + 1,
                scope: HistoryScope::Global,
                op,
                result: HistoryResult::Ok,
                ino: 1000 + j * CLIENTS + c,
                invoke: Nanos(invoke),
                ack: Nanos(ack),
                epoch: 1,
                trace_id: 0,
            });
        }
    }
    // Apply at invocation: a readdir lists what its directory holds then.
    ops.sort_by_key(|e| (e.invoke, e.client));
    let mut present = [0u64; 3];
    for ev in &mut ops {
        match &mut ev.op {
            HistoryOp::Create { dir, .. } => present[*dir as usize] += 1,
            HistoryOp::Readdir { dir, entries } => *entries = present[*dir as usize],
            _ => ev.ino = 0,
        }
    }
    ops.sort_by_key(|e| (e.ack, e.client));
    ops
}

#[test]
fn a_160k_op_history_checks_clean_without_recursion() {
    let events = history();
    assert_eq!(events.len(), 160_000);
    assert_eq!(linearize::check(&events), Ok(160_000));
}

#[test]
fn a_stale_read_deep_in_a_160k_op_history_is_the_witness() {
    let mut events = history();
    // Op 150,000 becomes a lookup that misses a name its own client
    // created (and saw acked) at least eight ops earlier.
    let at = 150_000;
    let stale = &mut events[at];
    let c = stale.client - 1;
    let j = (stale.invoke.0 - c * 10) / 80;
    let dir = 1 + c % 2;
    let name = format!("c{c}-{}", j / 8 * 8 - 8);
    stale.op = HistoryOp::Lookup {
        dir,
        name: name.clone(),
        found: None,
    };
    stale.result = HistoryResult::NoEnt;
    stale.ino = 0;
    let v = linearize::check(&events).unwrap_err();
    assert_eq!(v.index, at, "{v}");
    assert_eq!(v.detail, format!("lookup missed present name {dir}/{name}"));
}
