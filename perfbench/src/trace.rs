//! Host wall-clock spans around the calls the benchmark makes into each
//! layer, aggregated into per-layer self times.
//!
//! A span's self time is its duration minus the time its child spans
//! cover. The accounting runs on a stack as spans close, so nothing is
//! kept per call except the inclusive duration of each engine step (for
//! the step percentiles and the growth ratio). With tracing off, [`span`]
//! is a relaxed atomic load and a direct call.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The crates a span is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `cudele-sim`: the engine's own work between process steps.
    Sim,
    /// `cudele-bench`: the world and its client processes (step bodies).
    Bench,
    /// `cudele-client`: client-local journal appends and mounts.
    Client,
    /// `cudele-mds`: every call that reaches the metadata server.
    Mds,
    /// `cudele-rados`: object-store calls made by the server.
    Rados,
    /// `cudele-obs`: registry, timeline and histogram calls, history
    /// serialization and parsing.
    Obs,
    /// `cudele-check`: the linearizability and session checkers.
    Check,
    /// `cudele-workloads`: arrival-schedule generation.
    Workloads,
}

static ON: AtomicBool = AtomicBool::new(false);

struct Frame {
    layer: Option<Layer>,
    start: Instant,
    child_ns: u64,
}

/// What one traced pipeline measured.
#[derive(Debug, Default)]
pub struct Profile {
    /// Wall-clock of the whole traced pipeline.
    pub total_ns: u64,
    /// Time inside the pipeline not covered by any layer span.
    pub unattributed_ns: u64,
    /// Self time per layer, indexed by `Layer as usize`.
    pub self_ns: [u64; 8],
    /// Spans closed per layer, indexed by `Layer as usize`.
    pub calls: [u64; 8],
    /// Inclusive duration of every engine step, in step order.
    pub steps_ns: Vec<u64>,
    /// Bytes handed to the object store's write calls.
    pub rados_bytes_written: u64,
}

impl Profile {
    /// Self time of `layer`.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize]
    }

    /// Spans recorded for `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }
}

struct State {
    stack: Vec<Frame>,
    profile: Profile,
}

thread_local! {
    static STATE: RefCell<Option<State>> = const { RefCell::new(None) };
}

/// Starts a traced pipeline on this thread. Every [`span`] until
/// [`finish`] is charged to its layer.
pub fn start() {
    STATE.with(|s| {
        *s.borrow_mut() = Some(State {
            stack: vec![Frame {
                layer: None,
                start: Instant::now(),
                child_ns: 0,
            }],
            profile: Profile::default(),
        })
    });
    ON.store(true, Ordering::Relaxed);
}

/// Ends the traced pipeline and returns its profile.
pub fn finish() -> Profile {
    ON.store(false, Ordering::Relaxed);
    let state = STATE
        .with(|s| s.borrow_mut().take())
        .expect("trace::finish without trace::start");
    let mut stack = state.stack;
    assert_eq!(stack.len(), 1, "unbalanced spans at trace::finish");
    let root = stack.pop().expect("root frame");
    let mut profile = state.profile;
    profile.total_ns = root.start.elapsed().as_nanos() as u64;
    profile.unattributed_ns = profile.total_ns.saturating_sub(root.child_ns);
    profile
}

fn enter(layer: Layer) {
    STATE.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            st.stack.push(Frame {
                layer: Some(layer),
                start: Instant::now(),
                child_ns: 0,
            });
        }
    });
}

fn leave(is_step: bool) {
    let end = Instant::now();
    STATE.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            let f = st.stack.pop().expect("span stack underflow");
            let dur = end.duration_since(f.start).as_nanos() as u64;
            let layer = f.layer.expect("root frame closed as a span") as usize;
            st.profile.self_ns[layer] += dur.saturating_sub(f.child_ns);
            st.profile.calls[layer] += 1;
            if is_step {
                st.profile.steps_ns.push(dur);
            }
            if let Some(parent) = st.stack.last_mut() {
                parent.child_ns += dur;
            }
        }
    });
}

/// Runs `f` inside a span charged to `layer`.
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !ON.load(Ordering::Relaxed) {
        return f();
    }
    enter(layer);
    let r = f();
    leave(false);
    r
}

/// Runs one engine step's body inside a `bench` span whose inclusive
/// duration is kept for the step percentiles.
#[inline]
pub fn step<R>(f: impl FnOnce() -> R) -> R {
    if !ON.load(Ordering::Relaxed) {
        return f();
    }
    enter(Layer::Bench);
    let r = f();
    leave(true);
    r
}

/// Counts bytes written through the object store (traced runs only).
pub fn add_rados_bytes(n: u64) {
    if !ON.load(Ordering::Relaxed) {
        return;
    }
    STATE.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            st.profile.rados_bytes_written += n;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_times_partition_the_total() {
        let nap = |ms| std::thread::sleep(Duration::from_millis(ms));
        start();
        span(Layer::Mds, || {
            nap(2);
            span(Layer::Rados, || nap(20));
        });
        step(|| span(Layer::Obs, || nap(1)));
        nap(1);
        let p = finish();
        let attributed: u64 = p.self_ns.iter().sum();
        assert_eq!(attributed + p.unattributed_ns, p.total_ns);
        // The nested rados span is not part of the mds span's self time.
        assert!(p.self_ns(Layer::Mds) >= 2_000_000);
        assert!(p.self_ns(Layer::Mds) < 20_000_000);
        assert!(p.self_ns(Layer::Rados) >= 20_000_000);
        assert!(p.unattributed_ns >= 1_000_000);
        assert_eq!(p.calls(Layer::Bench), 1);
        assert_eq!(p.steps_ns.len(), 1);
        assert!(p.steps_ns[0] >= p.self_ns(Layer::Obs));
        // Tracing is off again: spans cost nothing and record nothing.
        span(Layer::Check, || nap(1));
    }
}
