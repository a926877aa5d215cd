//! The benchmark's own model of what the program must answer: a
//! brute-force evaluation of every query over the live entity set, and
//! Definition 1 recomputed by walking each partition's stored entities.

use std::collections::{HashMap, HashSet};
use std::hash::{DefaultHasher, Hasher};

use cind_model::{Synopsis, Value};
use cind_server::WireEntity;
use cind_storage::{SegmentId, UniversalTable};
use cinderella_core::Cinderella;

/// An order-insensitive fingerprint of a multiset of result rows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    rows: u64,
    sum: u64,
    mixed: u64,
}

impl Digest {
    pub fn of(rows: &[Vec<Option<Value>>]) -> Self {
        let mut d = Self::default();
        for row in rows {
            d.add(row.iter().map(Option::as_ref));
        }
        d
    }

    fn add<'a>(&mut self, cells: impl Iterator<Item = Option<&'a Value>>) {
        let mut h = DefaultHasher::new();
        for cell in cells {
            match cell {
                None => h.write_u8(0),
                Some(Value::Bool(b)) => {
                    h.write_u8(1);
                    h.write_u8(u8::from(*b));
                }
                Some(Value::Int(i)) => {
                    h.write_u8(2);
                    h.write_i64(*i);
                }
                Some(Value::Float(f)) => {
                    h.write_u8(3);
                    h.write_u64(f.to_bits());
                }
                Some(Value::Text(s)) => {
                    h.write_u8(4);
                    h.write(s.as_bytes());
                    h.write_u8(0xFF);
                }
            }
        }
        let x = h.finish();
        let mut s = x;
        self.rows += 1;
        self.sum = self.sum.wrapping_add(x);
        self.mixed = self.mixed.wrapping_add(crate::inputs::splitmix(&mut s));
    }
}

/// The live entity set, with a posting list per attribute name.
#[derive(Default)]
pub struct Oracle {
    entities: Vec<WireEntity>,
    postings: HashMap<String, Vec<usize>>,
}

impl Oracle {
    pub fn insert(&mut self, e: &WireEntity) {
        let idx = self.entities.len();
        for (name, _) in &e.attrs {
            self.postings.entry(name.clone()).or_default().push(idx);
        }
        self.entities.push(e.clone());
    }

    pub fn entities(&self) -> &[WireEntity] {
        &self.entities
    }

    /// Brute-force answer of `SELECT attrs WHERE any IS NOT NULL`: every
    /// entity holding at least one requested attribute, projected in query
    /// order.
    pub fn answer(&self, attrs: &[String]) -> Digest {
        let mut hits: Vec<usize> = attrs
            .iter()
            .filter_map(|a| self.postings.get(a))
            .flatten()
            .copied()
            .collect();
        hits.sort_unstable();
        hits.dedup();
        let mut d = Digest::default();
        for i in hits {
            let e = &self.entities[i];
            d.add(
                attrs
                    .iter()
                    .map(|a| e.attrs.iter().find(|(n, _)| n == a).map(|(_, v)| v)),
            );
        }
        d
    }
}

/// What walking every partition's stored entities shows.
pub struct Walk {
    /// Definition 1's numerator and denominator, computed here.
    pub relevant: u64,
    pub read: u64,
    /// The same two sums as the program computes them.
    pub program: (u64, u64),
    /// Largest partition, in entities.
    pub largest: u64,
    /// Attribute names of each partition (the OR of its members).
    pub partitions: Vec<(SegmentId, HashSet<String>)>,
    pub entities: u64,
}

impl Walk {
    pub fn efficiency(&self) -> f64 {
        if self.read == 0 {
            1.0
        } else {
            self.relevant as f64 / self.read as f64
        }
    }

    /// Partitions whose attribute set meets the query: the exact survivor
    /// set of pruning.
    pub fn survivors(&self, attrs: &[String]) -> Vec<SegmentId> {
        self.partitions
            .iter()
            .filter(|(_, names)| attrs.iter().any(|a| names.contains(a)))
            .map(|(seg, _)| *seg)
            .collect()
    }
}

/// Walks one shard: Definition 1 over `queries` with `SIZE(e)` = cells,
/// both by hand and through the program's `efficiency_counters_for`.
pub fn walk(table: &UniversalTable, cindy: &Cinderella, queries: &[Vec<String>]) -> Walk {
    let catalog = table.catalog();
    let mut relevant = 0u64;
    let mut read = 0u64;
    let mut largest = 0u64;
    let mut entities = 0u64;
    let mut partitions = Vec::new();
    for seg in table.segment_ids() {
        let mut names: HashSet<String> = HashSet::new();
        let mut size = 0u64;
        let mut count = 0u64;
        table
            .scan(seg, |e| {
                let own: Vec<&str> = e
                    .attrs()
                    .iter()
                    .map(|(a, _)| catalog.name(*a).expect("interned"))
                    .collect();
                let cells = own.len() as u64;
                let hits = queries
                    .iter()
                    .filter(|q| q.iter().any(|a| own.contains(&a.as_str())));
                relevant += hits.count() as u64 * cells;
                names.extend(own.iter().map(|s| (*s).to_string()));
                size += cells;
                count += 1;
            })
            .expect("live segment scans");
        read += queries
            .iter()
            .filter(|q| q.iter().any(|a| names.contains(a)))
            .count() as u64
            * size;
        largest = largest.max(count);
        entities += count;
        partitions.push((seg, names));
    }
    let universe = table.universe();
    let syns: Vec<Synopsis> = queries
        .iter()
        .map(|q| Synopsis::from_attrs(universe, q.iter().filter_map(|a| catalog.lookup(a))))
        .collect();
    let program = cinderella_core::efficiency_counters_for(table, cindy, &syns);
    Walk {
        relevant,
        read,
        program,
        largest,
        partitions,
        entities,
    }
}
