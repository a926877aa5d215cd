//! Set-up, the timed wire phase, the correctness checks and the
//! end-to-end metrics of one workload.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hasher};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cind_reorg::ReorgStats;
use cind_server::engine::{SNAPSHOT_FILE, WAL_FILE};
use cind_server::{
    shard_dir_name, Client, EngineOptions, EngineStats, IoCounters, ServeConfig, Server,
    ServerError, ServerHandle, ShardedEngine, ShardedOptions, WireEntity, MANIFEST_FILE,
};
use cind_sim::clock::VirtualClock;
use cind_sim::{FaultPlan, SimVfs};
use cind_storage::Vfs;
use cinderella_core::{Capacity, Cinderella, IndexTier, ReorgMode};

use crate::inputs::{Inputs, Op, SCAN_CAPACITY};
use crate::layers::Tracer;
use crate::model::{walk, Digest, Oracle};
use crate::{Args, Metric, Report, Workload};

/// Recoveries of the crashed store `recovery_s` takes its median over.
const RECOVERY_REPS: usize = 5;

/// Entities per `InsertBatch` frame during set-up.
const PRELOAD_BATCH: usize = 1_000;

/// How each workload configures the store. Every store is durable, with
/// the tiered pruning index and the reorganizer on, so that every layer
/// works in every workload; the workloads differ in data, capacity and the
/// mix of operations.
pub struct Spec {
    pub capacity: u64,
    pub reorg: ReorgMode,
}

pub fn spec(args: &Args) -> Spec {
    let capacity = match args.workload {
        Workload::Ingest => 5_000,
        Workload::Scan => SCAN_CAPACITY,
        Workload::Drift => 64,
    };
    Spec {
        capacity,
        reorg: if args.reorg_off {
            ReorgMode::Off
        } else {
            ReorgMode::Auto
        },
    }
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The pruning index of every store: the tiered filters from the first
/// partition on.
const TIER: IndexTier = IndexTier::Tiered;

/// Server workers, and scan threads per query: one each. The process runs
/// on one CPU (see `pin_to_one_cpu`), and the one closed-loop connection
/// keeps one thread busy at a time.
const WORKERS: usize = 1;
pub const QUERY_THREADS: usize = 1;

pub fn serve_config(spec: &Spec) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        query_threads: QUERY_THREADS,
        // One WAL sync per acknowledged write.
        group_commit_window: 0,
        reorg: spec.reorg,
        tier: TIER,
        ..ServeConfig::default()
    }
}

pub fn sharded_options(spec: &Spec, record_events: bool, fs: &Arc<SimVfs>) -> ShardedOptions {
    let mut engine = EngineOptions::from_serve(&serve_config(spec));
    engine.config.capacity = Capacity::MaxEntities(spec.capacity);
    engine.config.record_events = record_events;
    engine.vfs = Arc::clone(fs) as Arc<dyn Vfs>;
    ShardedOptions::new(engine, 1)
}

/// Where a store lives on its filesystem.
pub const STORE: &str = "store";

/// A fresh in-memory filesystem for one store. The WAL, group-commit,
/// checkpoint and recovery code run on it as on a disk; the shared virtual
/// disk's own fsync latency stays out of the figures (on the development
/// host it spread insert round trips by 0.27 of their median over five
/// runs) and is measured apart, as `wal.sync_us`.
pub fn memory_fs() -> Arc<SimVfs> {
    Arc::new(SimVfs::new(
        0,
        FaultPlan::none(),
        Arc::new(VirtualClock::new()),
    ))
}

/// The files of a one-shard store, relative to its directory.
fn store_files() -> [PathBuf; 3] {
    let shard = Path::new(&shard_dir_name(0)).to_path_buf();
    [
        PathBuf::from(MANIFEST_FILE),
        shard.join(SNAPSHOT_FILE),
        shard.join(WAL_FILE),
    ]
}

/// Bytes the store holds on `fs`.
fn store_bytes(fs: &SimVfs) -> u64 {
    let root = Path::new(STORE);
    store_files()
        .iter()
        .filter_map(|f| fs.file_len(&root.join(f)))
        .sum::<usize>() as u64
}

/// A copy of the store on a filesystem of its own.
fn copy_store(fs: &SimVfs) -> Result<Arc<SimVfs>, String> {
    let copy = memory_fs();
    let root = Path::new(STORE);
    for f in store_files() {
        let path = root.join(&f);
        if let Some(bytes) = fs.file_bytes(&path) {
            if let Some(parent) = path.parent() {
                copy.create_dir_all(parent).map_err(err)?;
            }
            let mut out = copy.create(&path).map_err(err)?;
            out.write_all(&bytes).map_err(err)?;
            out.sync().map_err(err)?;
        }
    }
    Ok(copy)
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The run's scratch directory inside the checkout, removed when the run
/// ends.
pub struct RunDir(PathBuf);

impl RunDir {
    fn create(args: &Args) -> Result<Self, String> {
        let dir = Path::new(".bench_run").join(format!(
            "{}-{}",
            args.workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(err)?;
        Ok(Self(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A started server with its one client connection.
pub struct Live {
    pub handle: ServerHandle,
    pub client: Client,
    pub fs: Arc<SimVfs>,
}

/// Store open, server start, connect and preload: what `setup_s` times.
pub fn setup(spec: &Spec, inputs: &Inputs) -> Result<(Live, f64), String> {
    let batches: Vec<Vec<WireEntity>> = inputs
        .preload
        .chunks(PRELOAD_BATCH)
        .map(<[_]>::to_vec)
        .collect();
    let fs = memory_fs();
    let t0 = Instant::now();
    let engine =
        ShardedEngine::open(Path::new(STORE), sharded_options(spec, false, &fs)).map_err(err)?;
    let handle = Server::start(Arc::new(engine), &serve_config(spec)).map_err(err)?;
    let mut client = Client::connect(("127.0.0.1", handle.port())).map_err(err)?;
    client
        .set_timeout(Some(Duration::from_secs(120)))
        .map_err(err)?;
    for batch in batches {
        for r in client.insert_batch(batch).map_err(err)? {
            r.map_err(|e| format!("preload insert failed: {e}"))?;
        }
    }
    Ok((Live { handle, client, fs }, t0.elapsed().as_secs_f64()))
}

/// Shuts down a set-up that is not measured further.
fn retire(live: Live) -> Result<(), String> {
    drop(live.client);
    live.handle.shutdown();
    live.handle.join().map(drop).map_err(err)
}

/// Sums of the `QueryStats` the server returned.
#[derive(Default)]
pub struct QuerySums {
    pub logical_reads: u64,
    pub physical_reads: u64,
    pub segments_read: u64,
    pub segments_pruned: u64,
    pub entities_scanned: u64,
    pub rows: u64,
}

/// What the timed phase saw.
pub struct Phase {
    pub insert_us: Vec<f64>,
    /// Round trips of the inserts the server answered with a split.
    pub split_us: Vec<f64>,
    pub query_us: Vec<f64>,
    /// Round trip of every operation, in stream order.
    pub op_us: Vec<f64>,
    /// Whether each operation was issued with a span around it.
    pub traced: Vec<bool>,
    pub acked: Vec<bool>,
    pub digests: Vec<Option<Digest>>,
    pub splits: u64,
    pub insert_failed: u64,
    pub query_failed: u64,
    pub sums: QuerySums,
    pub io: (IoCounters, IoCounters),
    pub stats: (EngineStats, EngineStats),
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        (self.insert_us.len() + self.query_us.len()) as u64
    }

    pub fn failed(&self) -> u64 {
        self.insert_failed + self.query_failed
    }

    /// Acknowledged operations per second of client round-trip time over
    /// the timed phase.
    pub fn ops_per_s(&self) -> f64 {
        let acked = self.acked.iter().filter(|a| **a).count() as f64;
        acked / self.op_us.iter().sum::<f64>() * 1e6
    }

    pub fn inserts(&self) -> u64 {
        self.insert_us.len() as u64
    }

    pub fn queries(&self) -> u64 {
        self.query_us.len() as u64
    }

    fn print_counts(&self) {
        println!(
            "ops: insert attempted {} failed {}; query attempted {} failed {}",
            self.inserts(),
            self.insert_failed,
            self.queries(),
            self.query_failed
        );
    }
}

/// `Busy` sheds and typed errors are failed operations; anything else
/// (transport, protocol) ends the run.
fn classify(e: ServerError) -> Result<(), String> {
    match e {
        ServerError::Busy | ServerError::Remote { .. } => Ok(()),
        other => Err(format!("transport failure: {other}")),
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A fair coin per operation id, the same in every run.
fn coin(id: u64) -> bool {
    let mut s = id;
    crate::inputs::splitmix(&mut s) & 1 == 1
}

/// Issues the stream on the one connection, timing each round trip.
pub fn wire_phase(client: &mut Client, ops: &[Op], tracer: &mut Tracer) -> Result<Phase, String> {
    let io0 = client.io_counters().map_err(err)?;
    let stats0 = client.stats().map_err(err)?;
    let mut p = Phase {
        insert_us: Vec::new(),
        split_us: Vec::new(),
        query_us: Vec::new(),
        op_us: Vec::with_capacity(ops.len()),
        traced: vec![false; ops.len()],
        acked: vec![false; ops.len()],
        digests: vec![None; ops.len()],
        splits: 0,
        insert_failed: 0,
        query_failed: 0,
        sums: QuerySums::default(),
        io: (io0, io0),
        stats: (stats0, stats0),
    };
    for (i, op) in ops.iter().enumerate() {
        let id = i as u64;
        match op {
            Op::Insert(e) => {
                let e = e.clone();
                // A traced pass traces a pseudo-random half of the
                // operations, so traced and untraced samples interleave in
                // time without lining up with the stream's periodic
                // structure (reorganizer steps every `epoch_ops` ops).
                let traced = tracer.is_on() && coin(id);
                let span = if traced {
                    tracer.open("wire.insert", None, id)
                } else {
                    None
                };
                let t0 = Instant::now();
                let r = client.insert(e);
                let dt = t0.elapsed();
                tracer.close(span);
                p.op_us.push(us(dt));
                p.insert_us.push(us(dt));
                p.traced[i] = traced;
                match r {
                    Ok((_, split)) => {
                        p.acked[i] = true;
                        if split {
                            p.splits += 1;
                            p.split_us.push(us(dt));
                        }
                    }
                    Err(e) => {
                        classify(e)?;
                        p.insert_failed += 1;
                    }
                }
            }
            Op::Query(attrs) => {
                let attrs = attrs.clone();
                let traced = tracer.is_on() && coin(id);
                let span = if traced {
                    tracer.open("wire.query", None, id)
                } else {
                    None
                };
                let t0 = Instant::now();
                let r = client.query(attrs);
                let dt = t0.elapsed();
                tracer.close(span);
                p.op_us.push(us(dt));
                p.query_us.push(us(dt));
                p.traced[i] = traced;
                match r {
                    Ok((rows, stats)) => {
                        let span = if traced {
                            tracer.open("client.digest", None, id)
                        } else {
                            None
                        };
                        p.digests[i] = Some(Digest::of(&rows));
                        tracer.close(span);
                        p.acked[i] = true;
                        let s = &mut p.sums;
                        s.logical_reads += stats.logical_reads;
                        s.physical_reads += stats.physical_reads;
                        s.segments_read += stats.segments_read;
                        s.segments_pruned += stats.segments_pruned;
                        s.entities_scanned += stats.entities_scanned;
                        s.rows += rows.len() as u64;
                    }
                    Err(e) => {
                        classify(e)?;
                        p.query_failed += 1;
                    }
                }
            }
        }
    }
    p.io.1 = client.io_counters().map_err(err)?;
    p.stats.1 = client.stats().map_err(err)?;
    p.print_counts();
    Ok(p)
}

/// Median of a sample (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile; the median interpolates between the middle
/// two samples.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if p == 50.0 && n.is_multiple_of(2) {
        return (s[n / 2 - 1] + s[n / 2]) / 2.0;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    s[rank.clamp(1, n) - 1]
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Figures of the tiered index, measured during the checks.
pub struct TierFigures {
    pub index_bytes: u64,
    pub false_positives_per_query: f64,
}

/// Checks, end-to-end metrics and the raw figures the traced run needs.
pub struct Finished {
    pub metrics: Vec<Metric>,
    pub checks: Vec<String>,
    /// Counts that depend only on the operation sequence.
    pub counts: String,
    pub wal_bytes: u64,
    pub user_bytes: u64,
    pub rebuild_s: Option<f64>,
    pub reorg: ReorgStats,
    pub tier: TierFigures,
}

/// Ends the run's server with a crash stop, reopens the store (timed),
/// checks every output and computes the end-to-end metrics.
pub fn finish(
    spec: &Spec,
    inputs: &Inputs,
    live: Live,
    phase: &Phase,
    time_rebuild: bool,
) -> Result<Finished, String> {
    let rss = rss_peak_mb();
    let mut checks = Vec::new();
    let mut metrics = Vec::new();
    let mut m = |name, value, unit| metrics.push(Metric { name, value, unit });
    m("ops_per_s", phase.ops_per_s(), "ops/s");
    m("insert_p50_us", median(&phase.insert_us), "us");
    m("split_insert_p50_us", median(&phase.split_us), "us");
    m("query_p50_us", median(&phase.query_us), "us");
    m("query_p90_us", percentile(&phase.query_us, 90.0), "us");
    m(
        "pages_per_query",
        phase.sums.logical_reads as f64 / phase.queries() as f64,
        "pages",
    );
    m("rss_peak_mb", rss, "MB");
    println!(
        "tails (us): insert p99 {:.1} p999 {:.1}; query p95 {:.1} p99 {:.1}",
        percentile(&phase.insert_us, 99.0),
        percentile(&phase.insert_us, 99.9),
        percentile(&phase.query_us, 95.0),
        percentile(&phase.query_us, 99.0),
    );

    let served = Arc::clone(live.handle.engine());
    let reorg = served.reorg_stats();
    let user_bytes = inputs.user_bytes();
    let fs = live.fs;
    let store = Path::new(STORE);
    let wal_bytes = fs
        .file_len(&store.join(shard_dir_name(0)).join(WAL_FILE))
        .ok_or("the store has no WAL")? as u64;
    drop(live.client);
    live.handle.hard_kill();
    drop(served);
    // Recover copies of the crashed store one at a time, then the store
    // itself, which is checked; `recovery_s` is the median.
    let mut recoveries = Vec::with_capacity(RECOVERY_REPS);
    for _ in 1..RECOVERY_REPS {
        let copy = copy_store(&fs)?;
        let t0 = Instant::now();
        drop(ShardedEngine::open(store, sharded_options(spec, false, &copy)).map_err(err)?);
        recoveries.push(t0.elapsed().as_secs_f64());
    }
    let t0 = Instant::now();
    let recovered = ShardedEngine::open(store, sharded_options(spec, false, &fs)).map_err(err)?;
    recoveries.push(t0.elapsed().as_secs_f64());
    println!("recoveries (s): {recoveries:?}");
    m("recovery_s", median(&recoveries), "s");
    let disk_bytes = store_bytes(&fs);
    m(
        "disk_bytes_per_user_byte",
        disk_bytes as f64 / user_bytes as f64,
        "ratio",
    );
    check_durable(&recovered, inputs, phase, &mut checks);
    let mut rebuild_s = None;
    if time_rebuild {
        let shard = recovered.shard_engine(0);
        rebuild_s = Some(shard.with_parts(|table, cindy| {
            let t0 = Instant::now();
            let rebuilt = Cinderella::rebuild(table, cindy.config().clone());
            let dt = t0.elapsed().as_secs_f64();
            rebuilt.map(|_| dt).map_err(err)
        })?);
    }
    let engine = Arc::new(recovered);
    let violations = engine.validate().map_err(err)?;
    if !violations.is_empty() {
        checks.push(format!("validate: {violations:?}"));
    }

    let oracle = check_answers(inputs, phase, &mut checks);
    let shard = engine.shard_engine(0);
    let w = shard.with_parts(|table, cindy| walk(table, cindy, &inputs.eff_queries));
    if (w.relevant, w.read) != w.program {
        checks.push(format!(
            "Definition 1: program sums {:?}, benchmark sums {:?}",
            w.program,
            (w.relevant, w.read)
        ));
    }
    if w.largest > spec.capacity {
        checks.push(format!(
            "a partition holds {} entities > B = {}",
            w.largest, spec.capacity
        ));
    }
    if w.entities != oracle.entities().len() as u64 {
        checks.push(format!(
            "store holds {} entities, {} were acknowledged",
            w.entities,
            oracle.entities().len()
        ));
    }
    m("efficiency", w.efficiency(), "ratio");
    let tier = check_tier(&shard, inputs, &w, &mut checks);
    drop(shard);
    if spec.reorg == ReorgMode::Auto && reorg.resplits + reorg.merges + reorg.migrations == 0 {
        checks.push("the reorganizer enacted no action".to_string());
    }

    // A graceful shutdown of a server over the recovered store must report
    // nothing.
    let handle = Server::start(engine, &serve_config(spec)).map_err(err)?;
    handle.shutdown();
    let report = handle.join().map_err(err)?;
    if !report.violations.is_empty() {
        checks.push(format!("shutdown report: {:?}", report.violations));
    }

    let counts = format!(
        "partitions={} relevant={} read={} pages={} splits={} reorg_actions={} wal_bytes={} disk_bytes={}",
        w.partitions.len(),
        w.relevant,
        w.read,
        phase.sums.logical_reads,
        phase.splits,
        reorg.resplits + reorg.merges + reorg.migrations,
        wal_bytes,
        disk_bytes
    );
    println!("counts: {counts}");
    Ok(Finished {
        metrics,
        checks,
        counts,
        wal_bytes,
        user_bytes,
        rebuild_s,
        reorg,
        tier,
    })
}

/// Every acknowledged insert is in the recovered store, with its attributes.
fn check_durable(
    recovered: &ShardedEngine,
    inputs: &Inputs,
    phase: &Phase,
    checks: &mut Vec<String>,
) {
    let shard = recovered.shard_engine(0);
    let missing = shard.with_parts(|table, _| {
        let catalog = table.catalog();
        let mut bad = 0u64;
        for (i, op) in inputs.ops.iter().enumerate() {
            let Op::Insert(want) = op else { continue };
            if !phase.acked[i] {
                continue;
            }
            let ok = table.get(cind_model::EntityId(want.id)).is_ok_and(|got| {
                let mut have: Vec<(&str, &cind_model::Value)> = got
                    .attrs()
                    .iter()
                    .map(|(a, v)| (catalog.name(*a).unwrap_or_default(), v))
                    .collect();
                let mut expect: Vec<(&str, &cind_model::Value)> =
                    want.attrs.iter().map(|(n, v)| (n.as_str(), v)).collect();
                have.sort_by(|a, b| a.0.cmp(b.0));
                expect.sort_by(|a, b| a.0.cmp(b.0));
                have == expect
            });
            bad += u64::from(!ok);
        }
        bad
    });
    if missing > 0 {
        checks.push(format!(
            "{missing} acknowledged inserts missing or altered after recovery"
        ));
    }
}

/// Replays the stream through the brute-force model and compares every
/// query's rows with what the server answered.
fn check_answers(inputs: &Inputs, phase: &Phase, checks: &mut Vec<String>) -> Oracle {
    let mut oracle = Oracle::default();
    for e in &inputs.preload {
        oracle.insert(e);
    }
    let mut wrong = 0u64;
    for (i, op) in inputs.ops.iter().enumerate() {
        match op {
            Op::Insert(e) if phase.acked[i] => oracle.insert(e),
            Op::Insert(_) => {}
            Op::Query(attrs) => {
                let Some(got) = phase.digests[i] else {
                    continue;
                };
                wrong += u64::from(got != oracle.answer(attrs));
            }
        }
    }
    if wrong > 0 {
        checks.push(format!(
            "{wrong} query answers differ from the brute-force evaluation"
        ));
    }
    oracle
}

/// The tiered index is active, and its survivors are a superset of the
/// exact survivor set the benchmark derives from the stored partitions.
fn check_tier(
    shard: &cind_server::Engine,
    inputs: &Inputs,
    w: &crate::model::Walk,
    checks: &mut Vec<String>,
) -> TierFigures {
    if !shard.tier_active() {
        checks.push("the tiered index is not active".to_string());
    }
    shard.with_parts(|table, cindy| {
        let index_bytes = cindy.catalog().index_resident_bytes() as u64;
        let Some(snap) = cindy.catalog().tier_snapshot() else {
            return TierFigures {
                index_bytes,
                false_positives_per_query: f64::NAN,
            };
        };
        let catalog = table.catalog();
        let mut fp_of: HashMap<&[String], u64> = HashMap::new();
        for q in &inputs.eff_queries {
            let syn = cind_model::Synopsis::from_attrs(
                table.universe(),
                q.iter().filter_map(|a| catalog.lookup(a)),
            );
            let (tiered, _) = snap.survivors(&syn);
            let exact = w.survivors(q);
            if !exact.iter().all(|s| tiered.binary_search(s).is_ok()) {
                checks.push(format!("tiered survivors miss exact survivors of {q:?}"));
            }
            fp_of.insert(
                q.as_slice(),
                (tiered.len() - exact.len().min(tiered.len())) as u64,
            );
        }
        let (mut fp, mut n) = (0u64, 0u64);
        for op in &inputs.ops {
            if let Op::Query(q) = op {
                fp += fp_of.get(q.as_slice()).copied().unwrap_or(0);
                n += 1;
            }
        }
        TierFigures {
            index_bytes,
            false_positives_per_query: fp as f64 / n.max(1) as f64,
        }
    })
}

/// Records the counts that depend only on the operation sequence, keyed by
/// workload, seed, run length and the benchmark executable, and flags any
/// difference from an earlier run with the same key.
pub fn record_counts(args: &Args, counts: &str, checks: &mut Vec<String>) -> Result<(), String> {
    let exe = std::fs::read(std::env::current_exe().map_err(err)?).map_err(err)?;
    let mut h = DefaultHasher::new();
    h.write(&exe);
    let dir = Path::new(".bench_run").join("ledger");
    std::fs::create_dir_all(&dir).map_err(err)?;
    let path = dir.join(format!(
        "{}{}-seed{}-{}s-{:016x}",
        args.workload.name(),
        if args.reorg_off { "-reorg-off" } else { "" },
        args.seed,
        args.seconds,
        h.finish()
    ));
    match std::fs::read_to_string(&path) {
        Ok(before) if before != counts => {
            checks.push(format!(
                "exact-repeat: counts were {before:?}, now {counts:?}"
            ));
        }
        Ok(_) => println!("exact-repeat: counts equal an earlier run with this seed"),
        Err(_) => std::fs::write(&path, counts).map_err(err)?,
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let spec = spec(args);
    let inputs = crate::inputs::generate(args.workload, args.seed, args.seconds);
    let dir = RunDir::create(args)?;
    if args.trace {
        return crate::layers::traced(args, &spec, &inputs, &dir);
    }
    let (mut live, first) = setup(&spec, &inputs)?;
    let phase = wire_phase(&mut live.client, &inputs.ops, &mut Tracer::off())?;
    let mut fin = finish(&spec, &inputs, live, &phase, false)?;
    // The other set-ups are timed after the measured store is gone, so
    // that their allocations stay out of `rss_peak_mb`.
    let mut setups = vec![first];
    for _ in 1..SETUP_REPS {
        let (live, dt) = setup(&spec, &inputs)?;
        setups.push(dt);
        retire(live)?;
    }
    println!("set-up runs (s): {setups:?}");
    fin.metrics.insert(
        0,
        Metric {
            name: "setup_s",
            value: median(&setups),
            unit: "s",
        },
    );
    let mut checks = fin.checks;
    record_counts(args, &fin.counts, &mut checks)?;
    Ok(Report {
        attempted: phase.attempted(),
        failed: phase.failed(),
        metrics: fin.metrics,
        check_failures: checks,
    })
}
