//! The client processes of a traced pipeline. Each one replays, call for
//! call and in the same order, the step of its counterpart in
//! `cudele_bench::world` (and `open_loop_run`), so the simulation is the
//! one `mdbench` runs. The difference is that every call into another
//! crate sits inside a span charged to that crate. Untraced pipelines run
//! the program's own processes; the equivalence self-test holds these
//! copies to them byte for byte.

use cudele_bench::World;
use cudele_client::{DecoupledClient, RpcClient};
use cudele_journal::InodeId;
use cudele_mds::{ClientId, OpCost};
use cudele_obs::history::{HistoryEvent, HistoryOp, HistoryResult, HistoryScope};
use cudele_obs::{observe_mechanism_at, Histogram, TraceCtx};
use cudele_sim::{Nanos, Process, Step};
use cudele_workloads::file_name;

use crate::trace::{self, span, Layer};

/// `World::charge_ctx`: each RPC queues on the MDS CPU, then the client
/// waits out its non-CPU latency; the obs calls sit in one span.
fn charge_ctx(world: &mut World, parent: TraceCtx, mut t: Nanos, costs: &[OpCost]) -> Nanos {
    for c in costs {
        let start = t;
        let served = world.mds.serve(t, c.mds_cpu);
        t = served + c.client_extra;
        if c.rpcs > 0 {
            span(Layer::Obs, || {
                let ctx = world.obs.trace_child(parent);
                observe_mechanism_at(&world.obs, "rpcs", ctx, start, t - start);
                let service_start = served - c.mds_cpu;
                let wait = service_start - start;
                world
                    .tl
                    .gauge_at("mds.rpc.backlog_ns", start, wait.0 as f64);
                if wait > Nanos::ZERO {
                    world
                        .obs
                        .child_span(ctx, "mds.queue_wait", "mds", start, wait);
                }
                world
                    .obs
                    .child_span(ctx, "mds.service", "mds", service_start, c.mds_cpu);
                world
                    .obs
                    .child_span(ctx, "net.rpc", "net", served, c.client_extra);
            });
        }
    }
    t
}

/// `RpcCreateProcess`: a closed-loop RPC client creating `total` files in
/// one directory through the full capability discipline.
pub struct RpcCreate {
    client: RpcClient,
    idx: u32,
    dir: InodeId,
    total: u64,
    done: u64,
    op_lat: Histogram,
    timeouts_seen: u64,
    retries_seen: u64,
    /// Completion instant of the most recent create.
    pub last_op_end: Nanos,
}

impl RpcCreate {
    /// Mounts the client (opens its session).
    pub fn new(world: &mut World, idx: u32, dir: InodeId, total: u64) -> RpcCreate {
        let client = span(Layer::Client, || {
            let (mut client, _) = RpcClient::mount(&mut world.server, ClientId(idx));
            client.attach_obs(&world.obs);
            client
        });
        RpcCreate {
            client,
            idx,
            dir,
            total,
            done: 0,
            op_lat: span(Layer::Obs, || world.obs.histogram("bench.op_latency.ns")),
            timeouts_seen: 0,
            retries_seen: 0,
            last_op_end: Nanos::ZERO,
        }
    }

    fn step_body(&mut self, now: Nanos, world: &mut World) -> Step {
        if self.done >= self.total {
            return Step::Done;
        }
        let name = file_name(self.idx, self.done);
        let root = span(Layer::Obs, || world.obs.trace_root(self.idx));
        let out = span(Layer::Mds, || {
            world.server.set_now(now);
            world.server.set_trace_ctx(Some(root));
            let out = self.client.create(&mut world.server, self.dir, &name);
            world.server.set_trace_ctx(None);
            out
        });
        if let Err(e) = out.result {
            panic!("client {} create failed: {e}", self.idx);
        }
        let t = charge_ctx(world, root, now, &out.costs);
        span(Layer::Obs, || {
            world.obs.end_span_args(
                root,
                "create",
                "client_op",
                now,
                t - now,
                vec![("file".to_string(), name)],
            );
            self.op_lat.record((t - now).0);
        });
        self.last_op_end = t;
        span(Layer::Obs, || {
            world.tl.add("bench.ops", t, 1);
            world
                .tl
                .sample_traced("bench.op_latency.ns", t, (t - now).0, root.trace_id);
            let timeouts = self.client.timeouts_seen;
            if timeouts > self.timeouts_seen {
                world
                    .tl
                    .add("client.rpc.timeouts", t, timeouts - self.timeouts_seen);
                self.timeouts_seen = timeouts;
            }
            let retries = self.client.retries_seen;
            if retries > self.retries_seen {
                world
                    .tl
                    .add("client.rpc.retries", t, retries - self.retries_seen);
                self.retries_seen = retries;
            }
        });
        self.done += 1;
        if self.done >= self.total {
            Step::Done
        } else {
            Step::ResumeAt(t)
        }
    }
}

impl Process<World> for RpcCreate {
    fn step(&mut self, now: Nanos, world: &mut World) -> Step {
        trace::step(|| self.step_body(now, world))
    }
}

/// `DecoupledCreateProcess`: a client appending `total` creates to its
/// in-memory journal in batches of 1000, with no RPCs.
pub struct DecoupledCreate {
    /// The decoupled client (its journal is what the merge ships).
    pub client: DecoupledClient,
    idx: u32,
    total: u64,
    done: u64,
    append: Nanos,
    op_lat: Histogram,
}

impl DecoupledCreate {
    /// Opens the session and decouples `dir_path` with `total` inodes.
    pub fn new(world: &mut World, idx: u32, dir_path: &str, total: u64) -> DecoupledCreate {
        span(Layer::Mds, || world.server.open_session(ClientId(idx)));
        let client = span(Layer::Client, || {
            let (dc, _) =
                DecoupledClient::decouple(&mut world.server, ClientId(idx), dir_path, total);
            let mut client = dc.expect("decouple");
            client.attach_obs(&world.obs);
            client
        });
        DecoupledCreate {
            client,
            idx,
            total,
            done: 0,
            append: world.server.cost_model().client_append,
            op_lat: span(Layer::Obs, || world.obs.histogram("bench.op_latency.ns")),
        }
    }

    /// `DecoupledCreateProcess::merge_at`: ships the journal to the MDS
    /// (Volatile Apply) at `t` and returns the merge completion instant.
    pub fn merge_at(&mut self, world: &mut World, t: Nanos, concurrent: u32) -> Nanos {
        let factor = world
            .server
            .cost_model()
            .volatile_apply_concurrency_factor(concurrent);
        let events = self.client.event_count();
        let root = span(Layer::Obs, || world.obs.trace_root(self.idx));
        let (result, cost, transfer) = span(Layer::Mds, || {
            world.server.set_now(t);
            world.server.set_trace_ctx(Some(root));
            let r = self.client.volatile_apply(&mut world.server);
            world.server.set_trace_ctx(None);
            r
        });
        result.expect("merge");
        let arrive = t + transfer;
        let served = world.mds.serve(arrive, cost.mds_cpu.scale(factor));
        let done = served + cost.client_extra;
        let epoch = world.server.epoch().0;
        span(Layer::Obs, || {
            world
                .obs
                .child_span(root, "net.transfer", "net", t, transfer);
            let va = world.obs.trace_child(root);
            observe_mechanism_at(&world.obs, "volatile_apply", va, arrive, done - arrive);
            let service_start = served - cost.mds_cpu.scale(factor);
            let wait = service_start - arrive;
            if wait > Nanos::ZERO {
                world
                    .obs
                    .child_span(va, "mds.queue_wait", "mds", arrive, wait);
            }
            world.obs.child_span(
                va,
                "mds.apply",
                "mds",
                service_start,
                cost.mds_cpu.scale(factor),
            );
            world
                .obs
                .child_span(va, "net.reply", "net", served, cost.client_extra);
            world.obs.end_span_args(
                root,
                "merge",
                "client_op",
                t,
                done - t,
                vec![("events".to_string(), self.done.to_string())],
            );
            world
                .obs
                .histogram("bench.merge_latency.ns")
                .record((done - t).0);
            world
                .tl
                .sample_traced("bench.merge_latency.ns", done, (done - t).0, root.trace_id);
            world.obs.record_history(HistoryEvent {
                client: u64::from(self.client.id.0),
                scope: HistoryScope::Global,
                op: HistoryOp::Merge { events },
                result: HistoryResult::Ok,
                ino: 0,
                invoke: t,
                ack: done,
                epoch,
                trace_id: root.trace_id,
            });
        });
        done
    }

    fn step_body(&mut self, now: Nanos, world: &mut World) -> Step {
        if self.done >= self.total {
            return Step::Done;
        }
        let batch = (self.total - self.done).min(1000);
        for k in 0..batch {
            let i = self.done;
            self.client.set_now(now + self.append * k);
            let name = file_name(self.idx, i);
            span(Layer::Client, || {
                self.client.create(self.client.root, &name)
            })
            .expect("decoupled create");
            self.done += 1;
        }
        let t = now + self.append * batch;
        span(Layer::Obs, || {
            for _ in 0..batch {
                self.op_lat.record(self.append.0);
            }
            world.tl.add("bench.ops", t, batch);
            world.tl.sample("bench.op_latency.ns", t, self.append.0);
            let root = world.obs.trace_root(self.idx);
            let acj = world.obs.trace_child(root);
            observe_mechanism_at(&world.obs, "append_client_journal", acj, now, t - now);
            world
                .obs
                .child_span(acj, "client.append", "client", now, t - now);
            world.obs.end_span_args(
                root,
                "append_batch",
                "client_op",
                now,
                t - now,
                vec![("ops".to_string(), batch.to_string())],
            );
        });
        if self.done >= self.total {
            // The final batch's time still elapses: one last wake-up that
            // immediately completes.
            self.total = 0;
        }
        Step::ResumeAt(t)
    }
}

impl Process<World> for DecoupledCreate {
    fn step(&mut self, now: Nanos, world: &mut World) -> Step {
        trace::step(|| self.step_body(now, world))
    }
}

/// `OpenLoopProcess::Rpc`: one arrival's RPC creates in its shared hot
/// directory, then its sojourn (arrival to last create done).
pub struct OpenLoopRpc {
    inner: RpcCreate,
    arrival: Nanos,
    finishing: bool,
}

impl OpenLoopRpc {
    /// Wraps the arrival's client.
    pub fn new(inner: RpcCreate, arrival: Nanos) -> OpenLoopRpc {
        OpenLoopRpc {
            inner,
            arrival,
            finishing: false,
        }
    }

    fn finish(arrival: Nanos, now: Nanos, world: &mut World) -> Step {
        span(Layer::Obs, || {
            world.tl.sample("bench.sojourn.ns", now, (now - arrival).0);
            world
                .obs
                .histogram("bench.sojourn.ns")
                .record((now - arrival).0);
        });
        Step::Done
    }

    fn step_body(&mut self, now: Nanos, world: &mut World) -> Step {
        if self.finishing {
            return OpenLoopRpc::finish(self.arrival, now, world);
        }
        match self.inner.step_body(now, world) {
            Step::Done => {
                let end = self.inner.last_op_end.max(now);
                if end > now {
                    self.finishing = true;
                    Step::ResumeAt(end)
                } else {
                    OpenLoopRpc::finish(self.arrival, now, world)
                }
            }
            s => s,
        }
    }
}

impl Process<World> for OpenLoopRpc {
    fn step(&mut self, now: Nanos, world: &mut World) -> Step {
        trace::step(|| self.step_body(now, world))
    }
}
