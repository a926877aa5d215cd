//! Seeded input generation. Everything the program receives is built here,
//! before any timing starts: the shape of each stream and the order of its
//! operations from fixed seeds, its values from `--seed`, its length from
//! the run length.

use std::collections::HashSet;

use cind_datagen::{
    DbpediaConfig, DbpediaGenerator, DriftConfig, DriftMode, DriftOp, DriftScenario,
    WorkloadBuilder,
};
use cind_model::{AttributeCatalog, Entity, Value};
use cind_server::protocol::{encode_request, frame};
use cind_server::{Request, WireEntity};

use crate::Workload;

/// One operation of the timed phase.
pub enum Op {
    Insert(WireEntity),
    Query(Vec<String>),
}

/// The generated inputs of one run.
pub struct Inputs {
    /// Entities loaded during set-up, through the server's batch insert.
    pub preload: Vec<WireEntity>,
    /// The timed operation stream, issued in order on one connection.
    pub ops: Vec<Op>,
    /// The query set `W` of Definition 1 for the `efficiency` metric.
    pub eff_queries: Vec<Vec<String>>,
}

impl Inputs {
    /// Every entity the run stores: the preload, then the stream's inserts.
    pub fn entities(&self) -> impl Iterator<Item = &WireEntity> {
        self.preload
            .iter()
            .chain(self.ops.iter().filter_map(|op| match op {
                Op::Insert(e) => Some(e),
                Op::Query(_) => None,
            }))
    }

    /// Bytes of every stored entity framed as a single-insert request
    /// (preload included): the "user bytes" that WAL and storage
    /// amplification divide by.
    pub fn user_bytes(&self) -> u64 {
        let mut buf = Vec::new();
        let mut total = 0u64;
        for e in self.entities() {
            buf.clear();
            frame(&encode_request(&Request::Insert(e.clone())), &mut buf);
            total += buf.len() as u64;
        }
        total
    }
}

/// Timed-phase operation rates the run lengths are calibrated against: the
/// phase issues `rate × seconds` operations, a fixed count, so that the
/// final partitioning (and every count derived from it) depends on the
/// inputs only, never on how fast the host is.
const INGEST_OPS_PER_S: usize = 4_000;
const SCAN_OPS_PER_S: usize = 2_600;
const DRIFT_OPS_PER_S: usize = 2_000;

/// Entities `ingest` loads during set-up, through the batch insert path,
/// and its single inserts per query in the timed phase.
const INGEST_PRELOAD: usize = 10_000;
const INGEST_INSERTS_PER_QUERY: usize = 100;
/// Entities of the `scan` catalog, and its partition capacity: enough
/// partitions for thousands of pruning candidates per query.
const SCAN_ENTITIES: usize = 10_000;
pub const SCAN_CAPACITY: u64 = 4;
/// `scan` queries per insert in the timed phase.
const SCAN_QUERIES_PER_INSERT: usize = 20;
/// The highest selectivity a `scan` query may have (the lowest Fig. 5
/// bins).
const SCAN_MAX_SELECTIVITY: f64 = 0.02;
/// Share of the drift scenario's operations that run before the timed
/// phase: their inserts are the set-up preload, their queries are dropped.
const DRIFT_PRELOAD_SHARE: f64 = 0.25;
/// The drift stream's inserts per query.
const DRIFT_INSERTS_PER_QUERY: f64 = 2.0;
/// Seed of the fixed order in which `ingest` and `scan` issue their
/// queries. The reorganizer acts on the heat the queries leave, so a
/// per-run order would give each run its own partitioning: over five seeds
/// it moved `ingest`'s pages per query by 0.09 of their median.
const QUERY_ORDER: u64 = 0x00C1_DE00_0000_0010;

/// SplitMix64: the benchmark's only random source besides the program's
/// own seeded generators.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A generator seed derived from the run seed and a per-use salt.
fn derive(seed: u64, salt: u64) -> u64 {
    let mut s = seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    splitmix(&mut s)
}

pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
    let secs = usize::try_from(seconds).expect("run length fits in usize");
    match workload {
        Workload::Ingest => ingest(seed, INGEST_OPS_PER_S * secs),
        Workload::Scan => scan(seed, SCAN_OPS_PER_S * secs),
        Workload::Drift => drift(seed, DRIFT_OPS_PER_S * secs),
    }
}

/// Paper-scale DBpedia-like entities (Fig. 4 calibration) with `attributes`
/// distinct attributes.
///
/// Which attributes each entity carries, and the insertion order, come from
/// the generator's default dataset seed, the same for every run: online
/// partitioning is chaotic in its input (over 60k inserts at B = 5000 one
/// sample of the distribution splits 193 times, another never), so a
/// per-run population would measure the draw, not the program. The run
/// seed re-draws every value (same type and shape per attribute).
fn dbpedia(n: usize, attributes: usize, seed: u64) -> (Vec<Entity>, AttributeCatalog) {
    let mut catalog = AttributeCatalog::new();
    let entities = DbpediaGenerator::new(DbpediaConfig {
        entities: n,
        attributes,
        ..DbpediaConfig::default()
    })
    .generate(&mut catalog);
    let mut rng = seed;
    let entities = entities
        .into_iter()
        .map(|e| {
            let attrs: Vec<_> = e
                .attrs()
                .iter()
                .map(|(a, v)| (*a, redraw(v, &mut rng)))
                .collect();
            Entity::new(e.id(), attrs).expect("same attribute set")
        })
        .collect();
    (entities, catalog)
}

/// A fresh value of the same type and stored size as `v`. Sizes must not
/// change: record sizes decide where freed page space is reused, hence
/// the scan order a split distributes members in, hence the partitioning.
fn redraw(v: &Value, rng: &mut u64) -> Value {
    let n = splitmix(rng);
    match v {
        Value::Bool(_) => Value::Bool(n & 1 == 1),
        Value::Int(_) => Value::Int((n % 100_000) as i64),
        Value::Float(_) => Value::Float((n % 10_000) as f64 / 100.0),
        Value::Text(s) => {
            let prefix = s.rfind('_').map_or("", |i| &s[..=i]);
            let width = s.len() - prefix.len();
            let digits = 10u64.pow(u32::try_from(width.min(18)).expect("small"));
            Value::Text(format!("{prefix}{:0width$}", n % digits))
        }
    }
}

fn to_wire(e: &Entity, catalog: &AttributeCatalog) -> WireEntity {
    WireEntity {
        id: e.id().0,
        attrs: e
            .attrs()
            .iter()
            .map(|(a, v)| (catalog.name(*a).expect("interned").to_string(), v.clone()))
            .collect(),
    }
}

fn names(attrs: &[cind_model::AttrId], catalog: &AttributeCatalog) -> Vec<String> {
    attrs
        .iter()
        .map(|a| catalog.name(*a).expect("interned").to_string())
        .collect()
}

/// Names of every attribute the given entities carry.
fn seen(entities: &[WireEntity]) -> HashSet<&str> {
    entities
        .iter()
        .flat_map(|e| &e.attrs)
        .map(|(name, _)| name.as_str())
        .collect()
}

/// Keeps the queries whose every attribute the store holds already, so that
/// no query fails with an unknown attribute.
fn known_only(pool: Vec<Vec<String>>, known: &HashSet<&str>) -> Vec<Vec<String>> {
    pool.into_iter()
        .filter(|q| q.iter().all(|a| known.contains(a.as_str())))
        .collect()
}

/// `count` queries in rounds over `pool`: every round issues each query
/// once, in its own order drawn from `rng`; the last round is cut short.
fn rounds(pool: &[Vec<String>], count: usize, rng: &mut u64) -> Vec<Vec<String>> {
    let mut out = Vec::with_capacity(count + pool.len());
    while out.len() < count {
        let mut round = pool.to_vec();
        shuffle(&mut round, rng);
        out.extend(round);
    }
    out.truncate(count);
    out
}

/// Paper-scale online loading: a batch preload, then single-entity insert
/// frames with one query of the paper's Fig. 5 representative set (three
/// per selectivity bin) after every `INGEST_INSERTS_PER_QUERY` inserts.
/// Definition 1 is taken over that set.
fn ingest(seed: u64, ops: usize) -> Inputs {
    let queries = ops / (INGEST_INSERTS_PER_QUERY + 1);
    let inserts = ops - queries;
    let (entities, catalog) = dbpedia(INGEST_PRELOAD + inserts, 100, derive(seed, 1));
    let wire: Vec<WireEntity> = entities.iter().map(|e| to_wire(e, &catalog)).collect();
    let (preload, stream) = wire.split_at(INGEST_PRELOAD);
    let specs = WorkloadBuilder::default().build(catalog.len(), &entities);
    let pool = known_only(
        WorkloadBuilder::representatives(&specs, &WorkloadBuilder::default_edges(), 3)
            .iter()
            .map(|s| names(&s.attrs, &catalog))
            .collect(),
        &seen(preload),
    );
    let mut next = rounds(&pool, queries, &mut QUERY_ORDER.clone()).into_iter();
    let mut out = Vec::with_capacity(ops);
    for (i, e) in stream.iter().enumerate() {
        out.push(Op::Insert(e.clone()));
        if (i + 1) % INGEST_INSERTS_PER_QUERY == 0 {
            if let Some(q) = next.next() {
                out.push(Op::Query(q));
            }
        }
    }
    Inputs {
        preload: preload.to_vec(),
        ops: out,
        eff_queries: pool,
    }
}

/// Selective queries over a preloaded small-capacity catalog, with one
/// insert of a held-out entity after every `SCAN_QUERIES_PER_INSERT`
/// queries: whole rounds over every Fig. 5 candidate in the lowest
/// selectivity bands (rare single attributes, plus any pair or triple
/// that rare).
fn scan(seed: u64, ops: usize) -> Inputs {
    let inserts = ops / (SCAN_QUERIES_PER_INSERT + 1);
    let queries = ops - inserts;
    let (entities, catalog) = dbpedia(SCAN_ENTITIES + inserts, 100, derive(seed, 4));
    let wire: Vec<WireEntity> = entities.iter().map(|e| to_wire(e, &catalog)).collect();
    let (preload, held_out) = wire.split_at(SCAN_ENTITIES);
    let specs = WorkloadBuilder::default().build(catalog.len(), &entities[..SCAN_ENTITIES]);
    let pool = known_only(
        specs
            .iter()
            .filter(|s| s.selectivity <= SCAN_MAX_SELECTIVITY)
            .map(|s| names(&s.attrs, &catalog))
            .collect(),
        &seen(preload),
    );
    let mut held_out = held_out.iter();
    let mut out = Vec::with_capacity(ops);
    for (i, q) in rounds(&pool, queries, &mut QUERY_ORDER.clone())
        .into_iter()
        .enumerate()
    {
        out.push(Op::Query(q));
        if (i + 1) % SCAN_QUERIES_PER_INSERT == 0 {
            if let Some(e) = held_out.next() {
                out.push(Op::Insert(e.clone()));
            }
        }
    }
    Inputs {
        preload: preload.to_vec(),
        ops: out,
        eff_queries: pool,
    }
}

/// Fisher–Yates shuffle driven by `rng`.
fn shuffle<T>(v: &mut [T], rng: &mut u64) {
    for i in (1..v.len()).rev() {
        let j = (splitmix(rng) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// The drift scenario stream: query focus rotates across attribute groups
/// phase by phase, two inserts per query. As with the DBpedia data, the
/// stream's shape comes from the scenario's default seed and the run seed
/// re-draws the values: a per-run stream moved pages per query by 6 % and
/// EFFICIENCY by 2 % between runs. The inserts of the stream's first
/// `DRIFT_PRELOAD_SHARE` are the set-up preload (its queries are dropped);
/// the rest is the timed phase. A query naming an attribute no earlier
/// insert carried is left out of the stream.
fn drift(seed: u64, ops: usize) -> Inputs {
    let preload_ops = (ops as f64 * DRIFT_PRELOAD_SHARE / (1.0 - DRIFT_PRELOAD_SHARE)) as usize;
    let mut catalog = AttributeCatalog::new();
    let stream = DriftScenario::new(DriftConfig {
        mode: DriftMode::Drift,
        ops: preload_ops + ops,
        query_share: 1.0 / (DRIFT_INSERTS_PER_QUERY + 1.0),
        ..DriftConfig::default()
    })
    .generate(&mut catalog, 0);
    let mut rng = derive(seed, 6);
    let mut known: HashSet<cind_model::AttrId> = HashSet::new();
    let mut preload = Vec::new();
    let mut out = Vec::with_capacity(stream.len());
    let mut queries = Vec::new();
    for (i, op) in stream.into_iter().enumerate() {
        let timed = i >= preload_ops;
        match op {
            DriftOp::Insert(e) => {
                known.extend(e.attrs().iter().map(|(a, _)| *a));
                let attrs: Vec<_> = e
                    .attrs()
                    .iter()
                    .map(|(a, v)| (*a, redraw(v, &mut rng)))
                    .collect();
                let e = Entity::new(e.id(), attrs).expect("same attribute set");
                if timed {
                    out.push(Op::Insert(to_wire(&e, &catalog)));
                } else {
                    preload.push(to_wire(&e, &catalog));
                }
            }
            DriftOp::Query(attrs) => {
                if timed && attrs.iter().all(|a| known.contains(a)) {
                    let q = names(&attrs, &catalog);
                    queries.push(q.clone());
                    out.push(Op::Query(q));
                }
            }
            DriftOp::Delete(_) => unreachable!("the drift mode emits no deletes"),
        }
    }
    Inputs {
        preload,
        ops: out,
        eff_queries: distinct(queries),
    }
}

fn distinct(queries: Vec<Vec<String>>) -> Vec<Vec<String>> {
    let mut seen = HashSet::new();
    queries
        .into_iter()
        .filter(|q| seen.insert(q.clone()))
        .collect()
}
