//! The four workloads as single-threaded host pipelines, each split into
//! a set-up half (everything before the first simulated op) and an op
//! half. Both halves call the library's public entry points; the calls go
//! through [`crate::trace::span`] so a traced run can charge them to
//! their crate.
//!
//! An untraced pipeline runs the program's own client processes
//! (`RpcCreateProcess`, `DecoupledCreateProcess`, `OpenLoopProcess`), so
//! the end-to-end figures measure the step code users run. A traced
//! pipeline runs the instrumented copies in [`crate::procs`] instead; the
//! equivalence self-test holds them to the untraced pipeline byte for
//! byte.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use cudele::Policy;
use cudele_bench::{DecoupledCreateProcess, OpenLoopProcess, RpcCreateProcess, World};
use cudele_check::check_history;
use cudele_client::DecoupledClient;
use cudele_journal::InodeId;
use cudele_mds::{ClientId, MdLogConfig, MetadataServer};
use cudele_obs::history::History;
use cudele_obs::Histogram;
use cudele_rados::{InMemoryStore, ObjectStore};
use cudele_sim::{CostModel, Engine, Nanos, Process, RunReport};
use cudele_workloads::open_loop::{tenant_dir, ArrivalSpec};
use cudele_workloads::{client_dir, file_name};

use crate::procs::{DecoupledCreate, OpenLoopRpc, RpcCreate};
use crate::store::TimedStore;
use crate::trace::{span, Layer};

/// Post-merge visibility probes per client (`mdbench`'s `PROBE_LOOKUPS`).
const PROBE_LOOKUPS: u64 = 64;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 8 RPC clients creating in private directories, journal on.
    PosixCreate,
    /// 8 decoupled clients appending to their journals, then the merge.
    BatchfsMerge,
    /// A small posix run recorded, serialized, parsed and checked.
    HistoryCheck,
    /// Open-loop arrivals creating in zipf-shared hot directories.
    SharedOpenLoop,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PosixCreate,
        Workload::BatchfsMerge,
        Workload::HistoryCheck,
        Workload::SharedOpenLoop,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PosixCreate => "posix_create",
            Workload::BatchfsMerge => "batchfs_merge",
            Workload::HistoryCheck => "history_check",
            Workload::SharedOpenLoop => "shared_open_loop",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// `(clients, files per client)` of the measured run.
    pub fn full_size(self) -> (u32, u64) {
        match self {
            Workload::PosixCreate => (8, 20_000),
            Workload::BatchfsMerge => (8, 2_500),
            Workload::HistoryCheck => (8, 300),
            Workload::SharedOpenLoop => (3_000, 4),
        }
    }

    /// `(clients, files per client)` of the equivalence self-test.
    pub fn small_size(self) -> (u32, u64) {
        match self {
            Workload::PosixCreate => (2, 300),
            Workload::BatchfsMerge => (2, 500),
            Workload::HistoryCheck => (2, 150),
            Workload::SharedOpenLoop => (200, 4),
        }
    }

    /// The `mdbench --policy` this workload runs.
    pub fn policy_name(self) -> &'static str {
        match self {
            Workload::BatchfsMerge => "batchfs",
            _ => "posix",
        }
    }

    fn policy(self) -> Policy {
        match self {
            Workload::BatchfsMerge => Policy::batchfs(),
            _ => Policy::posix(),
        }
    }

    /// The `mdbench --mdlog-dispatch` this workload runs, when it is not
    /// the default (40 segments of 1024 events). `shared_open_loop`
    /// flushes every 2 segments so that its 12,000 creates reach the
    /// object store.
    pub fn mdlog_dispatch(self) -> Option<u32> {
        match self {
            Workload::SharedOpenLoop => Some(2),
            _ => None,
        }
    }
}

/// One pipeline's configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which pipeline.
    pub workload: Workload,
    /// Closed-loop clients, or open-loop arrivals.
    pub clients: u32,
    /// Creates per client.
    pub files: u64,
    /// Arrival-schedule seed (`shared_open_loop` only).
    pub seed: u64,
    /// Directory for the history file `history_check` writes and reads.
    pub scratch: PathBuf,
    /// Run the instrumented process copies in [`crate::procs`] and route
    /// object-store calls through the timing decorator.
    pub traced: bool,
    /// Keep the run's metrics, trace and timeline snapshots (self-test).
    pub snapshots: bool,
}

impl Config {
    /// The `mdbench --arrival` spec of `shared_open_loop`.
    pub fn arrival_spec(&self) -> String {
        format!(
            "poisson:rate=120,zipf=1.1,dirs=64,tenants=4,seed={}",
            self.seed
        )
    }

    /// The history file `history_check` writes and reads.
    pub fn history_path(&self) -> PathBuf {
        self.scratch
            .join(format!("history-{}.json", std::process::id()))
    }
}

/// FNV-1a over `bytes`: a fingerprint for comparing history files.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The simulation's outputs: what a faster program must still produce.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Model {
    /// Virtual instant the workload finished (merge end for batchfs).
    pub end_ns: u64,
    /// Engine steps.
    pub steps: u64,
    /// Processes that finished / never finished.
    pub finished: u64,
    pub unfinished: u64,
    /// Server counters.
    pub rpcs: u64,
    pub creates: u64,
    pub lookups: u64,
    pub merged_events: u64,
    pub revocations: u64,
    /// Sessions the pipeline opened.
    pub sessions: u64,
    /// Client-visible retry and timeout counters (must stay 0).
    pub retries: u64,
    pub timeouts: u64,
    /// Checker verdict (history_check only).
    pub ops_verified: u64,
    pub violations: u64,
    /// FNV-1a fingerprint of the history file (history_check only).
    pub history_hash: u64,
}

/// Recorder state read after the run; host-side telemetry, not model.
#[derive(Clone, Debug, Default)]
pub struct ObsStats {
    pub spans_recorded: u64,
    pub spans_dropped: u64,
    pub windows_recorded: u64,
    pub windows_dropped: u64,
    pub history_events: u64,
    pub history_bytes: u64,
    pub history_json_ns: u64,
    pub history_parse_ns: u64,
    pub journal_events: u64,
    pub journal_segments: u64,
    pub journal_bytes: u64,
}

/// What one pipeline produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Workload ops completed (creates, or ops verified).
    pub ops: u64,
    /// The summary `mdbench` renders for the same configuration.
    pub rendered: String,
    /// The verdict `cudele-bench check` renders (history_check only).
    pub verdict: String,
    /// The history file the pipeline wrote and checked (history_check
    /// only); left on disk for the caller to fingerprint and remove.
    pub history_file: Option<PathBuf>,
    pub model: Model,
    pub obs: ObsStats,
    /// What `mdbench --metrics-out`, `--trace-out` and `--timeline-out`
    /// would write, when [`Config::snapshots`] asks for it.
    pub snapshots: Option<[String; 3]>,
}

/// Everything built before the first simulated op.
pub enum Ready {
    Closed {
        eng: Engine<World>,
        dirs: Vec<InodeId>,
    },
    Open {
        eng: Engine<World>,
        last_arrival: Nanos,
        sojourn: Histogram,
    },
}

/// The world `mdbench` builds for a journaling policy with no faults.
fn world(cfg: &Config) -> World {
    let base: Arc<dyn ObjectStore> =
        span(Layer::Rados, || Arc::new(InMemoryStore::paper_default()));
    let os: Arc<dyn ObjectStore> = if cfg.traced {
        Arc::new(TimedStore(base))
    } else {
        base
    };
    let mut mdlog = MdLogConfig::default();
    if let Some(d) = cfg.workload.mdlog_dispatch() {
        mdlog.dispatch_size = d;
    }
    let server = span(Layer::Mds, || {
        MetadataServer::with_config(os, CostModel::calibrated(), Some(mdlog))
    });
    span(Layer::Bench, || World::new(server))
}

/// Builds the world, directories, sessions and (open loop) the arrival
/// schedule.
pub fn setup(cfg: &Config) -> Ready {
    let mut w = world(cfg);
    match cfg.workload {
        Workload::SharedOpenLoop => {
            let spec = ArrivalSpec::parse(&cfg.arrival_spec()).expect("arrival spec");
            let arrivals = span(Layer::Workloads, || spec.generate(cfg.clients as usize));
            let last_arrival = arrivals.last().map(|a| a.at).unwrap_or(Nanos::ZERO);
            let mut hot = HashMap::new();
            for a in &arrivals {
                if let std::collections::hash_map::Entry::Vacant(e) = hot.entry((a.tenant, a.dir)) {
                    let path = tenant_dir(a.tenant, a.dir);
                    let ino = span(Layer::Mds, || w.server.setup_dir(&path)).expect("hot dir");
                    e.insert(ino);
                }
            }
            let sojourn = span(Layer::Obs, || w.obs.histogram("bench.sojourn.ns"));
            let mut eng = span(Layer::Sim, || Engine::new(w));
            let starts: Vec<Nanos> = arrivals.iter().map(|a| a.at).collect();
            if cfg.traced {
                let mut procs = Vec::with_capacity(arrivals.len());
                for (i, a) in arrivals.iter().enumerate() {
                    let dir = hot[&(a.tenant, a.dir)];
                    let inner = RpcCreate::new(eng.world_mut(), i as u32, dir, cfg.files);
                    procs.push(OpenLoopRpc::new(inner, a.at));
                }
                span(Layer::Sim, || eng.add_arena(procs, &starts));
            } else {
                let mut procs = Vec::with_capacity(arrivals.len());
                for (i, a) in arrivals.iter().enumerate() {
                    let dir = hot[&(a.tenant, a.dir)];
                    procs.push(OpenLoopProcess::Rpc {
                        inner: RpcCreateProcess::new(eng.world_mut(), i as u32, dir, cfg.files),
                        arrival: a.at,
                        finishing: false,
                    });
                }
                eng.add_arena(procs, &starts);
            }
            Ready::Open {
                eng,
                last_arrival,
                sojourn,
            }
        }
        _ => {
            for c in 0..cfg.clients {
                span(Layer::Mds, || w.server.setup_dir(&client_dir(c))).expect("client dir");
            }
            let dirs: Vec<InodeId> = (0..cfg.clients)
                .map(|c| {
                    span(Layer::Mds, || w.server.store().resolve(&client_dir(c)))
                        .expect("resolve client dir")
                })
                .collect();
            let mut eng = span(Layer::Sim, || Engine::new(w));
            for c in 0..cfg.clients {
                let (path, dir, world) = (client_dir(c), dirs[c as usize], eng.world_mut());
                let p: Box<dyn Process<World>> =
                    match (cfg.workload == Workload::BatchfsMerge, cfg.traced) {
                        (true, true) => Box::new(DecoupledCreate::new(world, c, &path, cfg.files)),
                        (true, false) => {
                            Box::new(DecoupledCreateProcess::new(world, c, &path, cfg.files))
                        }
                        (false, true) => Box::new(RpcCreate::new(world, c, dir, cfg.files)),
                        (false, false) => Box::new(RpcCreateProcess::new(world, c, dir, cfg.files)),
                    };
                span(Layer::Sim, || eng.add_process(p));
            }
            Ready::Closed { eng, dirs }
        }
    }
}

/// Runs the simulated ops (and, for history_check, the record → check
/// pipeline) and renders what the user-facing tools would print.
pub fn run(cfg: &Config, ready: Ready) -> Result<Outcome, String> {
    let total_ops = u64::from(cfg.clients) * cfg.files;
    let composition = cfg.workload.policy().composition();
    let mut out = Outcome {
        ops: total_ops,
        ..Outcome::default()
    };
    // One session per client or arrival; the merge adds its own below.
    out.model.sessions = u64::from(cfg.clients);
    let (world, report, end) = match ready {
        Ready::Open {
            eng,
            last_arrival,
            sojourn,
        } => {
            let (world, report) = span(Layer::Sim, || eng.run());
            let end = report.slowest();
            let spec = cfg.arrival_spec();
            let r = &mut out.rendered;
            let _ = writeln!(
                r,
                "mdbench: open-loop `{spec}` -> {} arrivals x {} creates under `{composition}`",
                cfg.clients, cfg.files
            );
            let offered = cfg.clients as f64 / last_arrival.as_secs_f64().max(1e-9);
            let _ = writeln!(
                r,
                "  arrivals     : {} over {} ({offered:.0} clients/s offered)",
                cfg.clients, last_arrival
            );
            let _ = writeln!(
                r,
                "  completed    : {} ({:.0} creates/s aggregate)",
                end,
                total_ops as f64 / end.as_secs_f64().max(1e-9)
            );
            let (p50, p95, p99) = span(Layer::Obs, || {
                (
                    sojourn.percentile(50.0),
                    sojourn.percentile(95.0),
                    sojourn.percentile(99.0),
                )
            });
            let _ = writeln!(
                r,
                "  sojourn      : p50 {} p95 {} p99 {}",
                Nanos(p50 as u64),
                Nanos(p95 as u64),
                Nanos(p99 as u64),
            );
            let _ = writeln!(r, "  run          : {}", report.summary_json());
            (world, report, end)
        }
        Ready::Closed { eng, dirs } => {
            let (mut world, report) = span(Layer::Sim, || eng.run());
            let create_end = report.slowest();
            let mut merge_end = create_end;
            if cfg.workload == Workload::BatchfsMerge {
                for c in 0..cfg.clients {
                    let (idx, path, n) = (100 + c, client_dir(c), cfg.clients);
                    let end = if cfg.traced {
                        let mut p = DecoupledCreate::new(&mut world, idx, &path, cfg.files);
                        fill_journal(&mut p.client, idx, cfg.files);
                        let end = p.merge_at(&mut world, create_end, n);
                        span(Layer::Client, || drop(p));
                        end
                    } else {
                        let mut p = DecoupledCreateProcess::new(&mut world, idx, &path, cfg.files);
                        fill_journal(&mut p.client, idx, cfg.files);
                        p.merge_at(&mut world, create_end, n)
                    };
                    merge_end = merge_end.max(end);
                    out.model.sessions += 1;
                }
                for c in 0..cfg.clients {
                    let probe = ClientId(200 + c);
                    span(Layer::Mds, || world.server.set_now(merge_end));
                    for i in 0..cfg.files.min(PROBE_LOOKUPS) {
                        let name = file_name(100 + c, i);
                        let _ = span(Layer::Mds, || {
                            world.server.lookup(probe, dirs[c as usize], &name)
                        });
                    }
                    let _ = span(Layer::Mds, || world.server.readdir(probe, dirs[c as usize]));
                }
            }
            let r = &mut out.rendered;
            let _ = writeln!(
                r,
                "mdbench: {} clients x {} creates under `{composition}`",
                cfg.clients, cfg.files
            );
            let rate = |t: Nanos| total_ops as f64 / t.as_secs_f64();
            let _ = writeln!(
                r,
                "  create phase : {create_end} ({:.0} creates/s aggregate)",
                rate(create_end)
            );
            if merge_end > create_end {
                let _ = writeln!(
                    r,
                    "  with merge   : {merge_end} ({:.0} creates/s end-to-end)",
                    rate(merge_end)
                );
            }
            let _ = writeln!(r, "  run          : {}", report.summary_json());
            (world, report, merge_end)
        }
    };
    let counter = |name: &str| span(Layer::Obs, || world.obs.counter_value(name)).unwrap_or(0);
    let _ = writeln!(
        out.rendered,
        "  fault obs    : rados.fenced_writes={} client.rpc.timeouts={} \
client.rpc.retries={} mds.session.reconnects={}",
        counter("rados.fenced_writes"),
        counter("client.rpc.timeouts"),
        counter("client.rpc.retries"),
        counter("mds.session.reconnects"),
    );
    fill_model(&mut out, &world, &report, end);
    if cfg.snapshots {
        let mut timeline = world.tl.snapshot();
        let slos: Vec<_> = cudele_bench::mdbench::DEFAULT_SLOS
            .iter()
            .map(|s| cudele_obs::slo::SloSpec::parse(s).expect("default SLO"))
            .collect();
        timeline.slos = cudele_obs::slo::evaluate(&timeline, &slos);
        out.snapshots = Some([
            world.obs.metrics_json(),
            world.obs.chrome_trace_json(),
            timeline.to_json(),
        ]);
    }
    if cfg.workload == Workload::HistoryCheck {
        record_and_check(cfg, world, &mut out)?;
    } else {
        teardown(world);
    }
    Ok(out)
}

/// Appends the merge client's `files` creates to its journal.
fn fill_journal(client: &mut DecoupledClient, idx: u32, files: u64) {
    for i in 0..files {
        let name = file_name(idx, i);
        span(Layer::Client, || client.create(client.root, &name)).expect("merge journal create");
    }
}

/// Drops the world piece by piece, so its teardown is charged to the
/// crates that own the memory.
fn teardown(world: World) {
    let World {
        server,
        mds,
        traces,
        obs,
        tl,
    } = world;
    span(Layer::Mds, || drop(server));
    span(Layer::Obs, || drop((tl, obs)));
    drop((mds, traces));
}

fn fill_model(out: &mut Outcome, world: &World, report: &RunReport, end: Nanos) {
    let counter = |name: &str| span(Layer::Obs, || world.obs.counter_value(name)).unwrap_or(0);
    let c = span(Layer::Mds, || world.server.counters());
    let m = &mut out.model;
    m.end_ns = end.0;
    m.steps = report.steps;
    m.finished = report.finished;
    m.unfinished = report.unfinished;
    m.rpcs = c.rpcs;
    m.creates = c.creates;
    m.lookups = c.lookups;
    m.merged_events = c.merged_events;
    m.revocations = span(Layer::Mds, || world.server.caps().revocations());
    m.retries = counter("client.rpc.retries");
    m.timeouts = counter("client.rpc.timeouts");
    let o = &mut out.obs;
    span(Layer::Obs, || {
        o.spans_recorded = world.obs.span_count() as u64;
        o.spans_dropped = world.obs.spans_dropped();
        o.windows_recorded = world.tl.windows_recorded();
        o.windows_dropped = world.tl.dropped();
        o.history_events = world.obs.history_count() as u64;
    });
    o.journal_events = counter("journal.writer.events");
    o.journal_segments = counter("mds.mdlog.segments_flushed");
    o.journal_bytes = counter("mds.mdlog.bytes_flushed");
}

/// The user's history pipeline: `mdbench --history-out F` serializes and
/// writes the history, then `cudele-bench check F` reads, parses and
/// checks it. The world is gone before the check starts, as it is when
/// the two tools run as separate processes.
fn record_and_check(cfg: &Config, world: World, out: &mut Outcome) -> Result<(), String> {
    let t = Instant::now();
    let json = span(Layer::Obs, || world.obs.history_json("rpc"));
    out.obs.history_json_ns = t.elapsed().as_nanos() as u64;
    out.obs.history_bytes = json.len() as u64;
    teardown(world);
    let path = cfg.history_path();
    std::fs::write(&path, &json).map_err(|e| format!("{}: {e}", path.display()))?;
    drop(json);
    out.history_file = Some(path.clone());
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let t = Instant::now();
    let history = span(Layer::Obs, || History::parse(&text))?;
    out.obs.history_parse_ns = t.elapsed().as_nanos() as u64;
    let report = span(Layer::Check, || check_history(&history));
    let axioms = if report.mode == "rpc" {
        "linearizability, monotonic-reads"
    } else {
        "read-your-writes, monotonic-reads, eventual-visibility"
    };
    let v = &mut out.verdict;
    let _ = writeln!(
        v,
        "{}: mode={} events={} dropped={} ops_verified={} [{axioms}]",
        path.display(),
        report.mode,
        report.events,
        history.dropped,
        report.ops_checked,
    );
    if report.clean() {
        let _ = writeln!(v, "  verdict: OK");
    } else {
        let _ = writeln!(
            v,
            "  verdict: FAIL ({} axiom(s) violated)",
            report.violations.len()
        );
        for w in &report.violations {
            let _ = writeln!(v, "  witness: {w}");
        }
    }
    out.model.ops_verified = report.ops_checked;
    out.model.violations = report.violations.len() as u64;
    out.ops = report.ops_checked;
    Ok(())
}
