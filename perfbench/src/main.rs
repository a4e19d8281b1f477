//! `cudele-perfbench`: one benchmark pipeline per process, reported as one
//! JSON line on stdout. `run.py` (next to this package) builds it, calls
//! it repeatedly for `--seconds`, and aggregates the lines.
//!
//! ```text
//! cudele-perfbench run      WORKLOAD --scratch DIR [--seed N]
//! cudele-perfbench trace    WORKLOAD --scratch DIR [--seed N]
//! cudele-perfbench selftest WORKLOAD --scratch DIR [--seed N]
//! ```
//!
//! * `run` times set-up and the op phase once each with tracing off,
//!   running the program's own client processes, reads the peak RSS, and
//!   checks the model outputs.
//! * `trace` runs the pipeline traced and reports the per-layer split;
//!   `run.py` compares its model outputs and total with a `run` process.
//! * `selftest` runs the pipeline at a small size next to `mdbench::run`
//!   and `check::run_files` and requires identical output: the rendered
//!   summary, the metrics, trace, timeline and history files, and the
//!   check verdict (`errors`). It also requires the traced pipeline to
//!   match the untraced one (`trace_errors`).

mod pipeline;
mod procs;
mod store;
mod trace;

use std::fmt::Display;
use std::path::PathBuf;
use std::time::Instant;

use pipeline::{fnv1a, Config, Model, Outcome, Workload};
use trace::{Layer, Profile};

const USAGE: &str = "usage: cudele-perfbench run|trace|selftest WORKLOAD --scratch DIR [--seed N]
WORKLOAD is posix_create, batchfs_merge, history_check or shared_open_loop.
DIR receives the history and snapshot files the pipelines hand off.";

/// Pinned model outputs of the unseeded workloads at full size: a change
/// that simulates something else fails the run instead of getting faster.
fn pinned(w: Workload) -> Option<Model> {
    let m = match w {
        Workload::PosixCreate => Model {
            end_ns: 64_703_037_960,
            steps: 160_000,
            finished: 8,
            rpcs: 160_016,
            creates: 160_000,
            lookups: 8,
            sessions: 8,
            ..Model::default()
        },
        Workload::BatchfsMerge => Model {
            end_ns: 2_128_274_926,
            steps: 32,
            finished: 8,
            rpcs: 560,
            lookups: 512,
            merged_events: 20_000,
            sessions: 16,
            ..Model::default()
        },
        Workload::HistoryCheck => Model {
            end_ns: 980_157_160,
            steps: 2_400,
            finished: 8,
            rpcs: 2_416,
            creates: 2_400,
            lookups: 8,
            sessions: 8,
            ops_verified: 2_416,
            ..Model::default()
        },
        Workload::SharedOpenLoop => return None,
    };
    Some(m)
}

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    scratch: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mode = argv.get(1).ok_or("missing mode")?.clone();
    if !matches!(mode.as_str(), "run" | "trace" | "selftest") {
        return Err(format!("unknown mode {mode:?}"));
    }
    let name = argv.get(2).ok_or("missing workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let mut args = Args {
        mode,
        workload,
        seed: 1,
        scratch: PathBuf::new(),
    };
    let mut i = 3;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} requires a value", argv[i]))?;
        match argv[i].as_str() {
            "--seed" => args.seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--scratch" => args.scratch = PathBuf::from(value),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    if args.scratch.as_os_str().is_empty() {
        return Err("--scratch DIR is required".to_string());
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match args.mode.as_str() {
        "run" => run_mode(&args),
        "trace" => trace_mode(&args),
        _ => selftest_mode(&args),
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(msg) => {
            eprintln!("{}: {msg}", args.workload.name());
            std::process::exit(1);
        }
    }
}

fn config(args: &Args, (clients, files): (u32, u64), traced: bool) -> Config {
    Config {
        workload: args.workload,
        clients,
        files,
        seed: args.seed,
        scratch: args.scratch.clone(),
        traced,
        snapshots: false,
    }
}

/// Fingerprints and removes the history file the pipeline left behind.
fn finalize(out: &mut Outcome) -> Result<(), String> {
    if let Some(path) = out.history_file.take() {
        let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        out.model.history_hash = fnv1a(&bytes);
        std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Model checks every full-size run must pass; returns the failures.
fn check_model(cfg: &Config, out: &Outcome) -> Vec<String> {
    let m = &out.model;
    let mut errors = Vec::new();
    let mut expect = |what: &str, got: u64, want: u64| {
        if got != want {
            errors.push(format!("{what} = {got}, expected {want}"));
        }
    };
    expect("client.rpc.retries", m.retries, 0);
    expect("client.rpc.timeouts", m.timeouts, 0);
    expect("check violations", m.violations, 0);
    expect("unfinished processes", m.unfinished, 0);
    match pinned(cfg.workload) {
        Some(p) => {
            expect("end_ns", m.end_ns, p.end_ns);
            expect("steps", m.steps, p.steps);
            expect("finished", m.finished, p.finished);
            expect("rpcs", m.rpcs, p.rpcs);
            expect("creates", m.creates, p.creates);
            expect("lookups", m.lookups, p.lookups);
            expect("merged_events", m.merged_events, p.merged_events);
            expect("caps revocations", m.revocations, p.revocations);
            expect("sessions", m.sessions, p.sessions);
            expect("ops_verified", m.ops_verified, p.ops_verified);
        }
        None => {
            // Seeded: the schedule varies, its totals do not.
            let ops = u64::from(cfg.clients) * cfg.files;
            expect("finished", m.finished, u64::from(cfg.clients));
            expect("creates", m.creates, ops);
            expect("steps", m.steps, ops + u64::from(cfg.clients));
            if m.rpcs < m.creates + m.lookups {
                errors.push(format!(
                    "rpcs = {} below creates + lookups = {}",
                    m.rpcs,
                    m.creates + m.lookups
                ));
            }
        }
    }
    if cfg.workload == Workload::HistoryCheck && !out.verdict.contains("verdict: OK") {
        errors.push(format!("check verdict is not OK: {}", out.verdict.trim()));
    }
    errors
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// A flat JSON object builder (numbers, strings, raw nested objects).
struct Json(String);

impl Json {
    fn new() -> Json {
        Json(String::from("{"))
    }

    fn raw(&mut self, key: &str, value: impl Display) -> &mut Json {
        if self.0.len() > 1 {
            self.0.push_str(", ");
        }
        self.0.push_str(&format!("\"{key}\": {value}"));
        self
    }

    fn num(&mut self, key: &str, v: f64) -> &mut Json {
        if v.is_finite() {
            self.raw(key, v)
        } else {
            self.raw(key, "null")
        }
    }

    fn str(&mut self, key: &str, v: &str) -> &mut Json {
        self.raw(key, format!("\"{}\"", cudele_obs::escape_json(v)))
    }

    fn strs(&mut self, key: &str, v: &[String]) -> &mut Json {
        let items: Vec<String> = v
            .iter()
            .map(|s| format!("\"{}\"", cudele_obs::escape_json(s)))
            .collect();
        self.raw(key, format!("[{}]", items.join(", ")))
    }

    fn done(&mut self) -> String {
        self.0.push('}');
        std::mem::take(&mut self.0)
    }
}

fn model_json(m: &Model) -> String {
    Json::new()
        .raw("end_ns", m.end_ns)
        .raw("steps", m.steps)
        .raw("finished", m.finished)
        .raw("unfinished", m.unfinished)
        .raw("rpcs", m.rpcs)
        .raw("creates", m.creates)
        .raw("lookups", m.lookups)
        .raw("merged_events", m.merged_events)
        .raw("caps_revocations", m.revocations)
        .raw("sessions", m.sessions)
        .raw("retries", m.retries)
        .raw("timeouts", m.timeouts)
        .raw("ops_verified", m.ops_verified)
        .raw("violations", m.violations)
        .raw("history_hash", m.history_hash)
        .done()
}

fn run_mode(args: &Args) -> Result<String, String> {
    let cfg = config(args, args.workload.full_size(), false);
    let t = Instant::now();
    let ready = pipeline::setup(&cfg);
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut out = pipeline::run(&cfg, ready)?;
    let op_s = t.elapsed().as_secs_f64();
    finalize(&mut out)?;
    let errors = check_model(&cfg, &out);
    let o = &out.obs;
    Ok(Json::new()
        .str("workload", cfg.workload.name())
        .raw("ops", out.ops)
        .num("op_s", op_s)
        .num("ops_per_s", out.ops as f64 / op_s)
        .num("setup_s", setup_s)
        .num("peak_rss_mb", peak_rss_mb())
        .raw("spans_dropped", o.spans_dropped)
        .raw("windows_dropped", o.windows_dropped)
        .raw("model", model_json(&out.model))
        .strs("errors", &errors)
        .done())
}

/// Mean of the first and last tenth of `v`, as last ÷ first.
fn growth(v: &[u64]) -> f64 {
    let k = (v.len() / 10).max(1);
    if v.len() < 2 * k {
        return 1.0;
    }
    let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
    mean(&v[v.len() - k..]) / mean(&v[..k])
}

fn percentile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64 / 1e3
}

fn trace_mode(args: &Args) -> Result<String, String> {
    let cfg = config(args, args.workload.full_size(), true);
    trace::start();
    let ready = pipeline::setup(&cfg);
    let result = pipeline::run(&cfg, ready);
    let prof = trace::finish();
    let mut out = result?;
    finalize(&mut out)?;

    let mut errors = check_model(&cfg, &out);
    let attributed: u64 = prof.self_ns.iter().sum();
    if attributed + prof.unattributed_ns != prof.total_ns {
        errors.push(format!(
            "layer self times {attributed} ns + unattributed {} ns != total {} ns",
            prof.unattributed_ns, prof.total_ns
        ));
    }
    let mut m = Json::new();
    for (name, v) in layer_metrics(&out, &prof) {
        m.num(name, v);
    }
    Ok(Json::new()
        .str("workload", cfg.workload.name())
        .raw("ops", out.ops)
        .raw("model", model_json(&out.model))
        .strs("errors", &errors)
        .raw("metrics", m.done())
        .done())
}

fn layer_metrics(out: &Outcome, p: &Profile) -> Vec<(&'static str, f64)> {
    let m = &out.model;
    let o = &out.obs;
    let s = |l: Layer| secs(p.self_ns(l));
    let c = |l: Layer| p.calls(l) as f64;
    let steps = p.steps_ns.len() as f64;
    let mut sorted = p.steps_ns.clone();
    sorted.sort_unstable();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    vec![
        ("sim.steps", steps),
        ("sim.self_s", s(Layer::Sim)),
        (
            "sim.ns_per_step",
            if steps > 0.0 {
                p.self_ns(Layer::Sim) as f64 / steps
            } else {
                0.0
            },
        ),
        ("bench.step_self_s", s(Layer::Bench)),
        ("bench.step_us_p50", percentile_us(&sorted, 50.0)),
        ("bench.step_us_p99", percentile_us(&sorted, 99.0)),
        ("bench.step_samples", steps),
        ("bench.step_growth", growth(&p.steps_ns)),
        ("client.calls", c(Layer::Client)),
        ("client.self_s", s(Layer::Client)),
        ("mds.calls", c(Layer::Mds)),
        ("mds.self_s", s(Layer::Mds)),
        ("mds.rpcs", m.rpcs as f64),
        ("mds.creates", m.creates as f64),
        ("mds.lookups", m.lookups as f64),
        ("mds.lookups_per_create", ratio(m.lookups, m.creates)),
        ("mds.caps_revocations", m.revocations as f64),
        ("mds.merged_events", m.merged_events as f64),
        ("mds.sessions", m.sessions as f64),
        ("journal.events_flushed", o.journal_events as f64),
        ("journal.segments_flushed", o.journal_segments as f64),
        (
            "journal.bytes_per_event",
            ratio(o.journal_bytes, o.journal_events),
        ),
        ("rados.calls", c(Layer::Rados)),
        ("rados.self_s", s(Layer::Rados)),
        ("rados.bytes_written", p.rados_bytes_written as f64),
        ("obs.calls", c(Layer::Obs)),
        ("obs.self_s", s(Layer::Obs)),
        ("obs.spans_recorded", o.spans_recorded as f64),
        ("obs.spans_dropped", o.spans_dropped as f64),
        ("obs.windows_recorded", o.windows_recorded as f64),
        ("obs.windows_dropped", o.windows_dropped as f64),
        (
            "obs.span_keep_ratio",
            ratio(o.spans_recorded, o.spans_recorded + o.spans_dropped),
        ),
        ("obs.history_events", o.history_events as f64),
        ("obs.history_bytes", o.history_bytes as f64),
        ("obs.history_json_s", secs(o.history_json_ns)),
        ("obs.history_parse_s", secs(o.history_parse_ns)),
        ("check.self_s", s(Layer::Check)),
        ("check.ops_verified", m.ops_verified as f64),
        ("workloads.generate_s", s(Layer::Workloads)),
        ("trace.total_s", secs(p.total_ns)),
        (
            "trace.unattributed_share",
            ratio(p.unattributed_ns, p.total_ns),
        ),
    ]
}

fn selftest_mode(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let (clients, files) = w.small_size();
    let cfg = config(args, (clients, files), false);
    let path = cfg.history_path();
    let path_str = path.to_string_lossy().into_owned();
    let mut errors = Vec::new();

    const SNAPSHOTS: [&str; 3] = ["metrics", "trace", "timeline"];
    let snapshot_path = |kind: &str| {
        cfg.scratch
            .join(format!("selftest-{}-{kind}.json", std::process::id()))
    };
    let out_arg = |kind: &str| Some(snapshot_path(kind).to_string_lossy().into_owned());
    let md = cudele_bench::mdbench::BenchConfig {
        clients,
        files,
        policy: w.policy_name().to_string(),
        arrival: (w == Workload::SharedOpenLoop).then(|| cfg.arrival_spec()),
        mdlog_dispatch: w.mdlog_dispatch(),
        history_out: (w == Workload::HistoryCheck).then(|| path_str.clone()),
        metrics_out: out_arg(SNAPSHOTS[0]),
        trace_out: out_arg(SNAPSHOTS[1]),
        timeline_out: out_arg(SNAPSHOTS[2]),
        ..cudele_bench::mdbench::BenchConfig::default()
    };
    let user = cudele_bench::mdbench::run(&md)?;
    let mut user_snapshots = Vec::new();
    for kind in SNAPSHOTS {
        let p = snapshot_path(kind);
        user_snapshots
            .push(std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?);
        std::fs::remove_file(&p).map_err(|e| format!("{}: {e}", p.display()))?;
    }
    let mut user_verdict = String::new();
    let mut user_hash = 0;
    if w == Workload::HistoryCheck {
        user_verdict = cudele_bench::check::run_files(std::slice::from_ref(&path_str))?.rendered;
        let bytes = std::fs::read(&path).map_err(|e| format!("{path_str}: {e}"))?;
        user_hash = fnv1a(&bytes);
    }

    let mut outs = Vec::new();
    for traced in [false, true] {
        let cfg = Config {
            traced,
            snapshots: true,
            ..cfg.clone()
        };
        if traced {
            trace::start();
        }
        let ready = pipeline::setup(&cfg);
        let result = pipeline::run(&cfg, ready);
        if traced {
            trace::finish();
        }
        let mut out = result?;
        finalize(&mut out)?;
        outs.push(out);
    }
    let ours = &outs[0];
    if ours.rendered != user.rendered {
        errors.push(format!(
            "mdbench rendered\n{}but the benchmark pipeline rendered\n{}",
            user.rendered, ours.rendered
        ));
    }
    if ours.verdict != user_verdict {
        errors.push(format!(
            "check rendered\n{user_verdict}but the benchmark pipeline rendered\n{}",
            ours.verdict
        ));
    }
    let snapshots = ours.snapshots.as_ref().expect("snapshots requested");
    for (kind, (mine, theirs)) in SNAPSHOTS.iter().zip(snapshots.iter().zip(&user_snapshots)) {
        if mine != theirs {
            errors.push(format!("{kind} snapshot differs from mdbench --{kind}-out"));
        }
    }
    if ours.model.history_hash != user_hash {
        errors.push("history file differs from mdbench --history-out".to_string());
    }
    // Kept apart: the traced copies feed only the per-layer split.
    let mut trace_errors = Vec::new();
    if outs[1].model != ours.model
        || outs[1].rendered != ours.rendered
        || outs[1].snapshots != ours.snapshots
    {
        trace_errors.push("traced pipeline differs from the untraced one".to_string());
    }
    Ok(Json::new()
        .str("workload", w.name())
        .raw("clients", clients)
        .raw("files", files)
        .strs("errors", &errors)
        .strs("trace_errors", &trace_errors)
        .done())
}
