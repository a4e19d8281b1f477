//! The timeline against a reference model: a plain linear-scan
//! re-statement of the recording, retention and merge rules (first-come-
//! kept windows per series, drops counted in underlying events, merge in
//! the source's insertion order). Whatever index the real timeline keeps
//! to find a window, its snapshot bytes, drop counter and retained-window
//! count must equal the model's for any schedule — out-of-order and
//! repeated window indices, all three series kinds, and merges that drop
//! whole windows at capacity.

use std::collections::BTreeMap;

use cudele_obs::timeline::{Point, PointStat, SeriesKind, SeriesSnap, TimelineSnapshot};
use cudele_obs::{Histogram, Registry};
use cudele_sim::Nanos;
use proptest::prelude::*;

/// Window width of every timeline under test.
const WINDOW: u64 = 100;
/// Windows retained per series: small, so most schedules overflow.
const CAP: usize = 8;

/// One recorded call: series kind (0 rate, 1 gauge, 2 latency), series
/// number, window index, offset inside the window, value, and whether a
/// latency sample carries a fresh trace root.
#[derive(Debug, Clone)]
struct Ev {
    kind: u8,
    series: u8,
    w: u64,
    off: u64,
    v: u64,
    traced: bool,
}

fn ev_strategy() -> impl Strategy<Value = Ev> {
    (0u8..3, 0u8..2, 0u64..24, 0u64..WINDOW, 0u64..5_000, 0u8..2).prop_map(
        |(kind, series, w, off, v, traced)| Ev {
            kind,
            series,
            w,
            off,
            v,
            traced: traced == 1,
        },
    )
}

fn series_name(e: &Ev) -> (String, SeriesKind) {
    match e.kind {
        0 => (format!("rate.{}", e.series), SeriesKind::Rate),
        1 => (format!("gauge.{}", e.series), SeriesKind::Gauge),
        _ => (format!("lat.{}", e.series), SeriesKind::Latency),
    }
}

/// A model window: its index and every sample it absorbed, in order, as
/// `(value, trace_id)` (for rate series the value is the event count).
#[derive(Debug, Clone)]
struct MWindow {
    idx: u64,
    samples: Vec<(u64, u64)>,
}

#[derive(Debug)]
struct MSeries {
    kind: SeriesKind,
    windows: Vec<MWindow>,
}

/// Events a window carries: the dropped-sample unit.
fn events(kind: SeriesKind, w: &MWindow) -> u64 {
    match kind {
        SeriesKind::Rate => w.samples.iter().map(|s| s.0).sum(),
        _ => w.samples.len() as u64,
    }
}

/// The reference timeline (plus the registry's span-id allocator, which
/// trace ids and merge rebasing depend on).
#[derive(Debug, Default)]
struct Model {
    series: BTreeMap<String, MSeries>,
    dropped: u64,
    next_id: u64,
}

impl Model {
    fn record(&mut self, e: &Ev) {
        let (name, kind) = series_name(e);
        let trace = if kind == SeriesKind::Latency && e.traced {
            self.next_id += 1;
            self.next_id
        } else {
            0
        };
        let lost = if kind == SeriesKind::Rate { e.v } else { 1 };
        let s = self.series.entry(name).or_insert(MSeries {
            kind,
            windows: Vec::new(),
        });
        match s.windows.iter().position(|w| w.idx == e.w) {
            Some(p) => s.windows[p].samples.push((e.v, trace)),
            None if s.windows.len() < CAP => s.windows.push(MWindow {
                idx: e.w,
                samples: vec![(e.v, trace)],
            }),
            None => self.dropped += lost,
        }
    }

    fn merge_from(&mut self, src: &Model) {
        let offset = self.next_id;
        for (name, s) in &src.series {
            let into = self.series.entry(name.clone()).or_insert(MSeries {
                kind: s.kind,
                windows: Vec::new(),
            });
            for w in &s.windows {
                let rebased: Vec<(u64, u64)> = w
                    .samples
                    .iter()
                    .map(|&(v, t)| (v, if t == 0 { 0 } else { t + offset }))
                    .collect();
                match into.windows.iter().position(|x| x.idx == w.idx) {
                    Some(p) => into.windows[p].samples.extend(rebased),
                    None if into.windows.len() < CAP => into.windows.push(MWindow {
                        idx: w.idx,
                        samples: rebased,
                    }),
                    None => self.dropped += events(s.kind, w),
                }
            }
        }
        self.dropped += src.dropped;
        self.next_id += src.next_id;
    }

    fn windows_recorded(&self) -> u64 {
        self.series.values().map(|s| s.windows.len() as u64).sum()
    }

    fn snapshot(&self) -> TimelineSnapshot {
        let series = self
            .series
            .iter()
            .map(|(name, s)| {
                let mut points: Vec<Point> = s
                    .windows
                    .iter()
                    .map(|w| Point {
                        window: w.idx,
                        t_ns: w.idx * WINDOW,
                        stat: point_stat(s.kind, w),
                    })
                    .collect();
                points.sort_by_key(|p| p.window);
                SeriesSnap {
                    name: name.clone(),
                    kind: s.kind,
                    points,
                }
            })
            .collect();
        TimelineSnapshot {
            window_ns: WINDOW,
            series,
            annotations: Vec::new(),
            windows_dropped: self.dropped,
            annotations_dropped: 0,
            slos: Vec::new(),
        }
    }
}

fn point_stat(kind: SeriesKind, w: &MWindow) -> PointStat {
    match kind {
        SeriesKind::Rate => {
            let count = events(kind, w);
            PointStat::Rate {
                count,
                per_s: count as f64 * 1e9 / WINDOW as f64,
            }
        }
        SeriesKind::Gauge => PointStat::Gauge {
            last: w.samples.last().map_or(0.0, |s| s.0 as f64),
        },
        SeriesKind::Latency => {
            let h = Histogram::default();
            for &(v, _) in &w.samples {
                h.record(v);
            }
            // First occurrence of the maximum keeps the trace link.
            let max = h.max();
            let worst_trace_id = w.samples.iter().find(|s| s.0 == max).map_or(0, |s| s.1);
            PointStat::Latency {
                count: h.count(),
                p50: h.percentile(50.0),
                p95: h.percentile(95.0),
                p99: h.percentile(99.0),
                max,
                worst_trace_id,
            }
        }
    }
}

fn registry() -> Registry {
    let reg = Registry::new();
    reg.timeline().configure(Nanos(WINDOW), CAP);
    reg
}

fn replay(reg: &Registry, model: &mut Model, events: &[Ev]) {
    let tl = reg.timeline();
    for e in events {
        let (name, kind) = series_name(e);
        let t = Nanos(e.w * WINDOW + e.off);
        match kind {
            SeriesKind::Rate => tl.add(&name, t, e.v),
            SeriesKind::Gauge => tl.gauge_at(&name, t, e.v as f64),
            SeriesKind::Latency if e.traced => {
                let root = reg.trace_root(0);
                tl.sample_traced(&name, t, e.v, root.trace_id);
            }
            SeriesKind::Latency => tl.sample(&name, t, e.v),
        }
        model.record(e);
    }
}

fn assert_matches(reg: &Registry, model: &Model) -> Result<(), TestCaseError> {
    let tl = reg.timeline();
    prop_assert_eq!(tl.snapshot().to_json(), model.snapshot().to_json());
    prop_assert_eq!(tl.dropped(), model.dropped);
    prop_assert_eq!(tl.windows_recorded(), model.windows_recorded());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Serial recording: every sample either lands in its window or is
    /// counted as dropped exactly where the linear scan says so.
    #[test]
    fn recording_matches_linear_scan_model(
        events in proptest::collection::vec(ev_strategy(), 0..300),
    ) {
        let reg = registry();
        let mut model = Model::default();
        replay(&reg, &mut model, &events);
        assert_matches(&reg, &model)?;
    }

    /// Merging two timelines into one that already holds windows: windows
    /// of the sources that find no room at the destination's cap drop
    /// whole, in the sources' insertion order, as in the model.
    #[test]
    fn merge_matches_linear_scan_model(
        dst_events in proptest::collection::vec(ev_strategy(), 0..120),
        a_events in proptest::collection::vec(ev_strategy(), 0..120),
        b_events in proptest::collection::vec(ev_strategy(), 0..120),
    ) {
        let (dst, a, b) = (registry(), registry(), registry());
        let (mut m_dst, mut m_a, mut m_b) = (Model::default(), Model::default(), Model::default());
        replay(&dst, &mut m_dst, &dst_events);
        replay(&a, &mut m_a, &a_events);
        replay(&b, &mut m_b, &b_events);
        assert_matches(&a, &m_a)?;
        assert_matches(&b, &m_b)?;
        dst.merge_from(&a);
        m_dst.merge_from(&m_a);
        assert_matches(&dst, &m_dst)?;
        dst.merge_from(&b);
        m_dst.merge_from(&m_b);
        assert_matches(&dst, &m_dst)?;
    }
}

/// A fixed merge that must drop at capacity: the destination holds
/// windows 0..8 of `rate.0`, the source adds window 3 (lands) and windows
/// 8 and 9 (dropped whole, 5 + 7 events).
#[test]
fn merge_drops_whole_windows_at_capacity() {
    let dst = registry();
    let src = registry();
    let mut m_dst = Model::default();
    let mut m_src = Model::default();
    let ev = |w: u64, v: u64| Ev {
        kind: 0,
        series: 0,
        w,
        off: 1,
        v,
        traced: false,
    };
    let dst_events: Vec<Ev> = (0..8).map(|w| ev(w, 1)).collect();
    replay(&dst, &mut m_dst, &dst_events);
    replay(&src, &mut m_src, &[ev(8, 5), ev(3, 2), ev(9, 7)]);
    dst.merge_from(&src);
    m_dst.merge_from(&m_src);
    assert_eq!(dst.timeline().dropped(), 12);
    assert_eq!(dst.timeline().windows_recorded(), 8);
    assert_eq!(
        dst.timeline().snapshot().to_json(),
        m_dst.snapshot().to_json()
    );
}
