//! Seeded request streams: the Zipf-skewed hot set, the cold
//! `(DS, l, algorithm)` stream, and the churn batches with the records
//! that predict what each keyword probe must find.

use std::collections::HashSet;

use sizel_core::engine::{Mutation, QueryOptions};
use sizel_storage::{Database, RowId, TupleRef, Value};
use sizel_util::prng::{Prng, Zipf};

use crate::setup::{Workload, COLD_ALGOS};

/// Seed of the fixed hot set.
const HOT_SET_SEED: u64 = 0x5eed_4075;

/// One keyword request: keywords plus options.
pub type Request = (String, QueryOptions);

/// Keyword names of the workload's DS entities: DBLP author names, or
/// TPC-H customer and supplier names.
pub fn ds_names(w: Workload, db: &Database) -> Vec<String> {
    let tables: &[&str] = if w.is_tpch() { &["Customer", "Supplier"] } else { &["Author"] };
    let mut names = Vec::new();
    for t in tables {
        let tid = db.table_id(t).expect("DS table exists");
        for (_, row) in db.table(tid).iter() {
            names.push(row[1].as_str().expect("name column is text").to_owned());
        }
    }
    names
}

/// Hot-set reads: `size` names with Zipf(1.0) skew and default
/// options. The set and its ranking are fixed so that every seed reads
/// keys of the same cost; the seed drives the sequence of draws.
pub struct HotSet {
    names: Vec<String>,
    zipf: Zipf,
}

impl HotSet {
    pub fn new(all: &[String], size: usize) -> HotSet {
        let mut rng = Prng::new(HOT_SET_SEED);
        let names: Vec<String> =
            rng.sample_distinct(all.len(), size).into_iter().map(|i| all[i].clone()).collect();
        let zipf = Zipf::new(names.len(), 1.0);
        HotSet { names, zipf }
    }

    pub fn keys(&self) -> impl Iterator<Item = Request> + '_ {
        self.names.iter().map(|n| (n.clone(), QueryOptions::default()))
    }

    pub fn next(&self, rng: &mut Prng) -> Request {
        (self.names[self.zipf.sample(rng)].clone(), QueryOptions::default())
    }
}

/// Cold reads: every `(name, l, algorithm)` key at most once per run,
/// l in the paper's 5..=50, prelim-l input.
pub struct ColdStream {
    names: Vec<String>,
    seen: HashSet<(usize, usize, usize)>,
    opts: QueryOptions,
}

impl ColdStream {
    pub fn new(w: Workload, names: Vec<String>) -> ColdStream {
        let opts = QueryOptions { source: w.source(), prelim: true, ..QueryOptions::default() };
        ColdStream { names, seen: HashSet::new(), opts }
    }

    pub fn next(&mut self, rng: &mut Prng) -> Request {
        loop {
            let key = (rng.range(0, self.names.len()), rng.range(5, 51), rng.range(0, 3));
            if self.seen.insert(key) {
                let opts = QueryOptions { l: key.1, algo: COLD_ALGOS[key.2], ..self.opts };
                return (self.names[key.0].clone(), opts);
            }
        }
    }
}

/// What the churn stream did to one inserted entity.
#[derive(Clone, Debug)]
pub struct ChurnRecord {
    pub pk: i64,
    pub row: TupleRef,
    /// Row pairs joined by the FK or junction rows this entity brought.
    pub joins: Vec<(TupleRef, TupleRef)>,
    pub renamed: bool,
    pub deleted: bool,
}

/// A keyword probe on a churned entity and the hit it must return.
pub struct Probe {
    pub keywords: String,
    pub expect: Option<TupleRef>,
}

/// The churn mix: each batch inserts an entity and a link row, renames
/// the entity of two batches back, and unlinks then deletes the entity
/// of four batches back (RESTRICT-legal order).
pub struct Churn {
    tpch: bool,
    entity: sizel_storage::TableId,
    link: sizel_storage::TableId,
    target: sizel_storage::TableId,
    first_pk: i64,
    first_link_pk: i64,
    entity_rows: u32,
    link_rows: u32,
    /// `(pk, row)` of the rows new links point at.
    targets: Vec<(i64, RowId)>,
    /// The nation every churned TPC-H customer references.
    nation: Option<TupleRef>,
    pub records: Vec<ChurnRecord>,
}

fn max_pk(db: &Database, table: sizel_storage::TableId) -> i64 {
    let t = db.table(table);
    t.iter().map(|(r, _)| t.pk_of(r)).max().unwrap_or(0)
}

impl Churn {
    pub fn new(w: Workload, db: &Database, rng: &mut Prng) -> Churn {
        let (entity, link, target) = if w.is_tpch() {
            ("Customer", "Orders", "Customer")
        } else {
            ("Author", "AuthorPaper", "Paper")
        };
        let id = |n: &str| db.table_id(n).expect("churn table exists");
        let (entity, link, target) = (id(entity), id(link), id(target));
        let tt = db.table(target);
        let mut targets: Vec<(i64, RowId)> = tt.iter().map(|(r, _)| (tt.pk_of(r), r)).collect();
        rng.shuffle(&mut targets);
        targets.truncate(256);
        Churn {
            tpch: w.is_tpch(),
            entity,
            link,
            target,
            first_pk: max_pk(db, entity) + 1,
            first_link_pk: max_pk(db, link) + 1,
            entity_rows: db.table(entity).len() as u32,
            link_rows: db.table(link).len() as u32,
            targets,
            nation: w.is_tpch().then(|| {
                let n = db.table_id("Nation").expect("Nation exists");
                TupleRef::new(n, db.table(n).by_pk(1).expect("nation 1 exists"))
            }),
            records: Vec::new(),
        }
    }

    fn name(pk: i64, renamed: bool) -> String {
        if renamed {
            format!("Wbench{pk} Zzchurn Revised")
        } else {
            format!("Wbench{pk} Zzchurn")
        }
    }

    fn entity_values(&self, pk: i64, renamed: bool) -> Vec<Value> {
        let name = Churn::name(pk, renamed).into();
        if self.tpch {
            vec![Value::Int(pk), name, Value::Float(0.0), Value::Int(1)]
        } else {
            vec![Value::Int(pk), name]
        }
    }

    /// The next batch; its effects are recorded before it is sent.
    pub fn next_batch(&mut self) -> Vec<Mutation> {
        let k = self.records.len();
        let pk = self.first_pk + k as i64;
        let j = self.first_link_pk + k as i64;
        let (target_pk, target_row) = self.targets[k % self.targets.len()];
        let (entity_name, link_name) =
            if self.tpch { ("Customer", "Orders") } else { ("Author", "AuthorPaper") };
        let link_values = if self.tpch {
            vec![Value::Int(j), Value::Int(pk), Value::Float(1000.0), Value::Int(1998)]
        } else {
            vec![Value::Int(j), Value::Int(pk), Value::Int(target_pk)]
        };
        let mut ms = vec![
            Mutation::insert(entity_name, self.entity_values(pk, false)),
            Mutation::insert(link_name, link_values),
        ];
        let row = TupleRef::new(self.entity, RowId(self.entity_rows + k as u32));
        let link_row = TupleRef::new(self.link, RowId(self.link_rows + k as u32));
        let mut joins = vec![(row, link_row)];
        if let Some(n) = self.nation {
            joins.push((row, n));
        }
        if !self.tpch {
            let target = TupleRef::new(self.target, target_row);
            joins.extend([(row, target), (link_row, target)]);
        }
        self.records.push(ChurnRecord { pk, row, joins, renamed: false, deleted: false });
        if k >= 2 {
            let r = &mut self.records[k - 2];
            r.renamed = true;
            let rpk = r.pk;
            ms.push(Mutation::update(entity_name, rpk, self.entity_values(rpk, true)));
        }
        if k >= 4 {
            let r = &mut self.records[k - 4];
            r.deleted = true;
            let (dpk, dj) = (r.pk, self.first_link_pk + (k - 4) as i64);
            ms.push(Mutation::delete(link_name, dj));
            ms.push(Mutation::delete(entity_name, dpk));
        }
        ms
    }

    /// The probe after batch `k`: the entity it inserted, the one it
    /// renamed (by its new name), or the one it deleted, in rotation.
    pub fn probe(&self, k: usize) -> Probe {
        let pick = if k >= 4 { k % 3 } else { 0 };
        let r = match pick {
            0 => &self.records[k],
            1 => &self.records[k - 2],
            _ => &self.records[k - 4],
        };
        let keywords = Churn::name(r.pk, pick == 1);
        Probe { keywords, expect: (!r.deleted).then_some(r.row) }
    }

    /// The probes over every churned entity, for the recovery check.
    pub fn all_probes(&self) -> Vec<Probe> {
        self.records
            .iter()
            .map(|r| Probe {
                keywords: Churn::name(r.pk, r.renamed),
                expect: (!r.deleted).then_some(r.row),
            })
            .collect()
    }
}
