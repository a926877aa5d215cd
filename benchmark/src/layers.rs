//! The traced run: spans kept in memory around the benchmark's calls into
//! each layer, and the per-layer metrics derived from them.
//!
//! The program itself is not instrumented. The wire pass runs twice on
//! fresh stores: untraced, then with a span around a pseudo-random half of
//! the client calls (traced minus untraced samples of that pass is the
//! tracing overhead).
//! Then the same stream is replayed in-process on a fresh store, timing
//! calls into the public functions of each layer:
//! `ShardedEngine` (engine), `Engine::snapshot` and `UniversalTable::freeze`
//! (snapshot and storage), `plan_with` / `execute_collect_view` (query),
//! `TierSnapshot::survivors` (tier), the protocol codec and
//! `GroupCommit` (WAL). The insert events the partitioner records give the
//! core layer's own timings.

use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cind_model::Synopsis;
use cind_query::{execute_collect_view, plan_with, Parallelism, Query};
use cind_server::protocol::{decode_response, encode_response};
use cind_server::{GroupCommit, Response, ShardedEngine, WalCounters};
use cind_storage::{RealVfs, SegmentId, Vfs};
use cinderella_core::TierSnapshot;

use crate::inputs::{Inputs, Op};
use crate::run::{
    err, finish, median, memory_fs, record_counts, setup, sharded_options, wire_phase, RunDir,
    Spec, QUERY_THREADS, STORE,
};
use crate::{Args, Metric, Report};

/// Queries of the replay whose storage, query and tier calls are timed
/// (evenly spaced over the stream).
const LAYER_PROBES: usize = 2_000;
/// Group-commit round trips timed by the `wal.sync_us` probe.
const SYNC_PROBES: usize = 400;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// An in-memory span recorder. Off, it records nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn off() -> Self {
        Self {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn on() -> Self {
        Self {
            on: true,
            ..Self::off()
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; returns its id for [`Tracer::close`] (`None` when
    /// the tracer is off).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let now = self.now_ns();
            self.spans[id].end_ns = now;
        }
    }

    /// Durations of every span named `name`, in µs, in recording order.
    fn us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Total duration of the spans named `name`, in µs, per operation id.
    fn us_by_op(&self, name: &str) -> HashMap<u64, f64> {
        let mut out = HashMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.op).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e3;
        }
        out
    }

    /// [`Tracer::us`] restricted to spans of the given operations.
    fn us_of_ops(&self, name: &str, ops: &HashSet<u64>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && ops.contains(&s.op))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Writes every span as one tab-separated line:
    /// `id name start_ns end_ns parent op`.
    fn write(&self, path: &std::path::Path) -> Result<(), String> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\top").map_err(err)?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.op
            )
            .map_err(err)?;
        }
        out.flush().map_err(err)
    }
}

/// Per-operation differences `a[i] - b[i]` over the operations of one
/// kind (inserts or queries) that `pick` selects, with `b` looked up by
/// operation id.
fn paired(
    ops: &[Op],
    insert: bool,
    pick: impl Fn(usize) -> bool,
    a: &[f64],
    b: impl Fn(usize) -> Option<f64>,
) -> Vec<f64> {
    ops.iter()
        .enumerate()
        .filter(|(i, op)| matches!(op, Op::Insert(_)) == insert && pick(*i))
        .filter_map(|(i, _)| b(i).map(|b| a[i] - b))
        .collect()
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// The pruning inputs a snapshot holds: exact per-partition synopses, and
/// the tier's frozen filters when the tier is active.
type Pruning = (Vec<(SegmentId, Synopsis)>, Option<TierSnapshot>);

/// What the in-process replay measured beyond its spans.
struct Replay {
    /// Op ids of inserts during which the reorganizer ran a step.
    step_ops: HashSet<u64>,
    /// Op ids of queries right after a write, whose snapshot is rebuilt.
    rebuild_ops: HashSet<u64>,
    /// Insert events the partitioner recorded during the timed stream.
    events: Vec<cinderella_core::InsertEvent>,
    /// Encoded size of each query response.
    response_bytes: Vec<f64>,
}

/// Replays the preload and the timed stream on a fresh store, with spans
/// around the calls into each layer.
fn replay(spec: &Spec, inputs: &Inputs, dir: &RunDir, tr: &mut Tracer) -> Result<Replay, String> {
    let engine = ShardedEngine::open(Path::new(STORE), sharded_options(spec, true, &memory_fs()))
        .map_err(err)?;
    for r in engine.insert_batch(&inputs.preload) {
        r.map_err(err)?;
    }
    let shard = engine.shard_engine(0);
    let preload_len = inputs.preload.len();
    let parallelism = if QUERY_THREADS > 1 {
        Parallelism::Threads(QUERY_THREADS)
    } else {
        Parallelism::Sequential
    };
    let mut step_ops = HashSet::new();
    let mut rebuild_ops = HashSet::new();
    let mut response_bytes = Vec::new();
    let queries = inputs
        .ops
        .iter()
        .filter(|op| matches!(op, Op::Query(_)))
        .count();
    let probe_every = queries.div_ceil(LAYER_PROBES).max(1);
    let mut queries_seen = 0usize;
    let mut pruning: Option<Pruning> = None;
    let mut after_write = true;
    for (i, op) in inputs.ops.iter().enumerate() {
        let id = i as u64;
        match op {
            Op::Insert(e) => {
                let steps = shard.reorg_stats().steps;
                let s = tr.open("engine.insert", None, id);
                engine.insert(e).map_err(err)?;
                tr.close(s);
                pruning = None;
                after_write = true;
                if shard.reorg_stats().steps != steps {
                    step_ops.insert(id);
                }
            }
            Op::Query(attrs) => {
                if after_write {
                    rebuild_ops.insert(id);
                    after_write = false;
                }
                let root = tr.open("replay.query", None, id);
                let s = tr.open("engine.snapshot", root, id);
                drop(std::hint::black_box(shard.snapshot()));
                tr.close(s);
                let s = tr.open("engine.query", root, id);
                let (rows, stats) = engine.query(attrs).map_err(err)?;
                tr.close(s);
                let resp = Response::Rows { rows, stats };
                let s = tr.open("protocol.codec", root, id);
                let body = encode_response(&resp);
                let decoded = decode_response(&body).map_err(err)?;
                tr.close(s);
                std::hint::black_box(decoded);
                response_bytes.push(body.len() as f64);
                queries_seen += 1;
                if queries_seen.is_multiple_of(probe_every) {
                    shard.with_parts(|table, cindy| -> Result<(), String> {
                        let s = tr.open("storage.freeze", root, id);
                        let frozen = table.freeze();
                        tr.close(s);
                        let query =
                            Query::from_names(table.catalog(), attrs.iter().map(String::as_str))
                                .ok_or("query names an unknown attribute")?;
                        // The pruning inputs as a snapshot holds them, rebuilt
                        // only after a write.
                        let (pairs, tier) = pruning.get_or_insert_with(|| {
                            let catalog = cindy.catalog();
                            let pairs = catalog
                                .pruning_view()
                                .map(|(seg, syn, _)| (seg, syn.clone()))
                                .collect();
                            (pairs, catalog.tier_snapshot())
                        });
                        let s = tr.open("query.plan", root, id);
                        let plan = plan_with(
                            &query,
                            pairs.iter().map(|(seg, syn)| (*seg, syn)),
                            parallelism,
                        );
                        tr.close(s);
                        let s = tr.open("query.exec", root, id);
                        let out =
                            execute_collect_view(frozen.view(), &query, &plan).map_err(err)?;
                        tr.close(s);
                        std::hint::black_box(out);
                        if let Some(tier) = tier {
                            let s = tr.open("tier.plan", root, id);
                            std::hint::black_box(tier.survivors(query.synopsis()));
                            tr.close(s);
                        }
                        Ok(())
                    })?;
                }
                tr.close(root);
            }
        }
    }
    let mut events = shard.with_parts(|_, cindy| cindy.events().to_vec());
    events.drain(..preload_len.min(events.len()));
    sync_probe(inputs, dir, tr)?;
    Ok(Replay {
        step_ops,
        rebuild_ops,
        events,
        response_bytes,
    })
}

/// Times one `GroupCommit::submit` plus `wait_durable` (one fsync with a
/// zero gather window) of an average insert frame's size.
fn sync_probe(inputs: &Inputs, dir: &RunDir, tr: &mut Tracer) -> Result<(), String> {
    let entities = inputs.entities().count().max(1) as u64;
    let payload = vec![0x5A_u8; (inputs.user_bytes() / entities) as usize];
    let file = RealVfs.create(&dir.path("sync-probe.log")).map_err(err)?;
    let commit = GroupCommit::new(file, Duration::ZERO, Arc::new(WalCounters::default()));
    for i in 0..SYNC_PROBES {
        let s = tr.open("wal.sync", None, i as u64);
        commit.submit(&payload).map_err(err)?;
        commit
            .wait_durable(commit.ticket())
            .map_err(|k| format!("wal sync: {k:?}"))?;
        tr.close(s);
    }
    Ok(())
}

pub fn traced(args: &Args, spec: &Spec, inputs: &Inputs, dir: &RunDir) -> Result<Report, String> {
    let (mut live, _) = setup(spec, inputs)?;
    let cold = wire_phase(&mut live.client, &inputs.ops, &mut Tracer::off())?;
    let f0 = finish(spec, inputs, live, &cold, true)?;

    // The traced pass traces half of the operations; its untraced half is
    // the wire reference. It runs second, after the first pass has paid the
    // process's first-touch page faults, as the in-process replay does; the
    // first pass is the per-operation baseline of the tracing overhead.
    let mut tr = Tracer::on();
    let (mut live, _) = setup(spec, inputs)?;
    let p = wire_phase(&mut live.client, &inputs.ops, &mut tr)?;
    let f1 = finish(spec, inputs, live, &p, false)?;

    let mut checks = f0.checks;
    checks.extend(f1.checks);
    if f0.counts != f1.counts {
        checks.push(format!(
            "exact-repeat: untraced pass counted {:?}, traced pass {:?}",
            f0.counts, f1.counts
        ));
    }
    record_counts(args, &f0.counts, &mut checks)?;

    let r = replay(spec, inputs, dir, &mut tr)?;
    let trace_dir = std::path::Path::new(".bench_run").join("trace");
    std::fs::create_dir_all(&trace_dir).map_err(err)?;
    tr.write(&trace_dir.join(format!("{}-seed{}.tsv", args.workload.name(), args.seed)))?;

    let mut metrics = Vec::new();
    let mut m = |name, value, unit| metrics.push(Metric { name, value, unit });
    let (inserts, queries) = (p.inserts() as f64, p.queries() as f64);
    let ops = &inputs.ops;
    let io = (&p.io.0, &p.io.1);
    // Wire overheads: per operation, the untraced round trip of pass (2)
    // minus the in-process engine call of the replay on the same
    // operation, so that both sides cover the same operations.
    let engine_insert_of = tr.us_by_op("engine.insert");
    let snapshot_of = tr.us_by_op("engine.snapshot");
    let engine_query_of = tr.us_by_op("engine.query");
    let untraced = |i: usize| !p.traced[i];
    m(
        "server.socket_syscalls_per_op",
        ((io.1.net_reads + io.1.net_writes) - (io.0.net_reads + io.0.net_writes)) as f64
            / p.attempted() as f64,
        "count",
    );
    m(
        "server.wire_overhead_insert_us",
        median(&paired(ops, true, untraced, &p.op_us, |i| {
            engine_insert_of.get(&(i as u64)).copied()
        })),
        "us",
    );
    m(
        "server.wire_overhead_query_us",
        median(&paired(ops, false, untraced, &p.op_us, |i| {
            let id = i as u64;
            Some(snapshot_of.get(&id)? + engine_query_of.get(&id)?)
        })),
        "us",
    );
    let engine_insert = tr.us("engine.insert");
    let snapshot = tr.us("engine.snapshot");
    let engine_query: Vec<f64> = snapshot
        .iter()
        .zip(tr.us("engine.query"))
        .map(|(a, b)| a + b)
        .collect();
    m(
        "protocol.codec_us_per_query",
        median(&tr.us("protocol.codec")),
        "us",
    );
    m(
        "protocol.response_bytes_per_query",
        mean(&r.response_bytes),
        "bytes",
    );
    m("engine.insert_us", median(&engine_insert), "us");
    m("engine.query_us", median(&engine_query), "us");
    m(
        "engine.snapshot_rebuild_us",
        median(&tr.us_of_ops("engine.snapshot", &r.rebuild_ops)),
        "us",
    );
    let (split, plain): (Vec<_>, Vec<_>) = r.events.iter().partition(|e| e.outcome.is_split());
    let event_us = |v: &[&cinderella_core::InsertEvent]| -> Vec<f64> {
        v.iter().map(|e| e.duration.as_secs_f64() * 1e6).collect()
    };
    m("core.insert_us", median(&event_us(&plain)), "us");
    m("core.split_us", median(&event_us(&split)), "us");
    m("core.splits", p.splits as f64, "count");
    m(
        "core.ratings_per_insert",
        r.events.iter().map(|e| f64::from(e.ratings)).sum::<f64>() / r.events.len() as f64,
        "count",
    );
    m("tier.plan_us", median(&tr.us("tier.plan")), "us");
    m(
        "tier.false_positive_partitions_per_query",
        f0.tier.false_positives_per_query,
        "count",
    );
    m("tier.index_bytes", f0.tier.index_bytes as f64, "bytes");
    m("query.plan_us", median(&tr.us("query.plan")), "us");
    m("query.exec_us", median(&tr.us("query.exec")), "us");
    let s = &p.sums;
    m(
        "query.segments_read_per_query",
        s.segments_read as f64 / queries,
        "count",
    );
    m(
        "query.segments_pruned_per_query",
        s.segments_pruned as f64 / queries,
        "count",
    );
    m(
        "query.scan_precision",
        s.rows as f64 / s.entities_scanned.max(1) as f64,
        "ratio",
    );
    m("storage.freeze_us", median(&tr.us("storage.freeze")), "us");
    m(
        "storage.page_writes_per_insert",
        (p.stats.1.page_writes - p.stats.0.page_writes) as f64 / inserts,
        "count",
    );
    m(
        "storage.buffer_misses_per_query",
        s.physical_reads as f64 / queries,
        "count",
    );
    m(
        "wal.bytes_per_user_byte",
        f0.wal_bytes as f64 / f0.user_bytes as f64,
        "ratio",
    );
    m(
        "wal.syncs_per_insert",
        (io.1.wal_syncs - io.0.wal_syncs) as f64 / inserts,
        "count",
    );
    m("wal.sync_us", median(&tr.us("wal.sync")), "us");
    m(
        "recovery.rebuild_s",
        f0.rebuild_s.ok_or("the rebuild was not timed")?,
        "s",
    );
    m(
        "reorg.actions",
        (f0.reorg.resplits + f0.reorg.merges + f0.reorg.migrations) as f64,
        "count",
    );
    m(
        "reorg.entities_moved",
        f0.reorg.entities_moved as f64,
        "count",
    );
    m(
        "reorg.step_insert_us",
        median(&tr.us_of_ops("engine.insert", &r.step_ops)),
        "us",
    );
    // Tracing overhead: per operation, pass (2) minus the untraced pass
    // (1); the median of that difference over the traced half minus its
    // median over the untraced half, which cancels both the operations'
    // own cost and any drift between the two passes.
    let overhead = |insert: bool| {
        let cold_of = |i: usize| Some(cold.op_us[i]);
        median(&paired(ops, insert, |i| p.traced[i], &p.op_us, cold_of))
            - median(&paired(ops, insert, untraced, &p.op_us, cold_of))
    };
    m("trace.overhead_insert_us", overhead(true), "us");
    m("trace.overhead_query_us", overhead(false), "us");
    m("trace.spans", tr.spans.len() as f64, "count");
    Ok(Report {
        attempted: cold.attempted() + p.attempted(),
        failed: cold.failed() + p.failed(),
        metrics,
        check_failures: checks,
    })
}
