//! Correctness checks computed apart from the program: the benchmark's
//! own tokenizer over the generated rows, the FK and junction adjacency
//! of those rows, and its own tree-knapsack DP for the size-l optimum.

use std::collections::{HashMap, HashSet};

use sizel_core::os::{Os, OsNodeId};
use sizel_net::WireResult;
use sizel_storage::{Database, TupleRef, Value};

/// Lowercased maximal runs of alphanumeric characters.
fn tokenize(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_lowercase())
        .collect()
}

fn pair(a: TupleRef, b: TupleRef) -> (TupleRef, TupleRef) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// What the generated rows say a reply must look like.
pub struct Oracle {
    tokens: HashMap<String, HashSet<TupleRef>>,
    edges: HashSet<(TupleRef, TupleRef)>,
    max_results: usize,
}

impl Oracle {
    pub fn new(db: &Database, ds_tables: &[String], max_results: usize) -> Oracle {
        let mut tokens: HashMap<String, HashSet<TupleRef>> = HashMap::new();
        for name in ds_tables {
            let tid = db.table_id(name).expect("DS table exists");
            let t = db.table(tid);
            let cols: Vec<usize> = t.schema.searchable_columns().collect();
            for (rid, row) in t.iter() {
                for &c in &cols {
                    if let Value::Text(s) = &row[c] {
                        for tok in tokenize(s) {
                            tokens.entry(tok).or_default().insert(TupleRef::new(tid, rid));
                        }
                    }
                }
            }
        }
        let mut edges = HashSet::new();
        for (tid, t) in db.tables() {
            let targets: Vec<(usize, sizel_storage::TableId)> = t
                .schema
                .fks
                .iter()
                .map(|fk| (fk.column, db.table_id(&fk.ref_table).expect("FK target exists")))
                .collect();
            for (rid, row) in t.iter() {
                let ends: Vec<TupleRef> = targets
                    .iter()
                    .filter_map(|&(col, target)| match row[col] {
                        Value::Int(k) => {
                            db.table(target).by_pk(k).map(|r| TupleRef::new(target, r))
                        }
                        _ => None,
                    })
                    .collect();
                let me = TupleRef::new(tid, rid);
                for &e in &ends {
                    edges.insert(pair(me, e));
                }
                if t.schema.is_junction && ends.len() == 2 {
                    edges.insert(pair(ends[0], ends[1]));
                }
            }
        }
        Oracle { tokens, edges, max_results }
    }

    /// Records a join the churn stream created (or `false`: removed).
    pub fn set_edge(&mut self, a: TupleRef, b: TupleRef, present: bool) {
        if present {
            self.edges.insert(pair(a, b));
        } else {
            self.edges.remove(&pair(a, b));
        }
    }

    /// Every DS tuple whose searchable text holds all keywords.
    pub fn matches(&self, keywords: &str) -> HashSet<TupleRef> {
        let mut out: Option<HashSet<TupleRef>> = None;
        for tok in tokenize(keywords) {
            let set = self.tokens.get(&tok).cloned().unwrap_or_default();
            out = Some(match out {
                None => set,
                Some(acc) => acc.intersection(&set).copied().collect(),
            });
        }
        out.unwrap_or_default()
    }

    /// Keyword → DS: a subset of the matching rows, `min(max_results,
    /// matches)` of them, global scores non-increasing; then every
    /// summary's shape.
    pub fn check_results(
        &self,
        keywords: &str,
        l: usize,
        results: &[WireResult],
    ) -> Result<(), String> {
        self.check_hits(&self.matches(keywords), keywords, l, results)
    }

    /// [`Oracle::check_results`] against an explicit match set (the
    /// churned rows the base scan does not hold).
    pub fn check_hits(
        &self,
        matches: &HashSet<TupleRef>,
        keywords: &str,
        l: usize,
        results: &[WireResult],
    ) -> Result<(), String> {
        let want = matches.len().min(self.max_results);
        if results.len() != want {
            return Err(format!("`{keywords}`: {} results, expected {want}", results.len()));
        }
        let mut seen = HashSet::new();
        for (i, r) in results.iter().enumerate() {
            if !matches.contains(&r.tds) || !seen.insert(r.tds) {
                return Err(format!("`{keywords}`: {:?} is not a distinct match", r.tds));
            }
            if i > 0 && r.global_score > results[i - 1].global_score {
                return Err(format!("`{keywords}`: global scores increase at rank {i}"));
            }
            self.check_summary(r, l).map_err(|e| format!("`{keywords}`: {e}"))?;
        }
        Ok(())
    }

    /// Summary shape: rooted at the DS, `min(l, |input|)` nodes, every
    /// node one level below a parent it is joined to, importance equal
    /// to the sum of node weights.
    pub fn check_summary(&self, r: &WireResult, l: usize) -> Result<(), String> {
        let s = &r.summary;
        let want = l.min(r.input_os_size);
        if s.len() != want || r.selected.len() != want {
            return Err(format!("summary of {:?} has {} nodes, expected {want}", r.tds, s.len()));
        }
        let root = &s[0];
        if root.tuple != r.tds || root.parent.is_some() || root.depth != 0 {
            return Err(format!("summary of {:?} is not rooted at its DS", r.tds));
        }
        for (i, n) in s.iter().enumerate().skip(1) {
            let p = n
                .parent
                .map(|p| p as usize)
                .filter(|&p| p < i)
                .ok_or_else(|| format!("node {i} of {:?} has no earlier parent", r.tds))?;
            if n.depth != s[p].depth + 1 {
                return Err(format!(
                    "node {i} of {:?}: depth {} under {}",
                    r.tds, n.depth, s[p].depth
                ));
            }
            if !self.edges.contains(&pair(n.tuple, s[p].tuple)) {
                return Err(format!(
                    "node {i} of {:?}: {:?} is not joined to its parent {:?}",
                    r.tds, n.tuple, s[p].tuple
                ));
            }
        }
        let sum: f64 = s.iter().map(|n| n.weight).sum();
        if !close(sum, r.importance) {
            return Err(format!("importance {} != node weight sum {sum}", r.importance));
        }
        Ok(())
    }
}

/// Equal up to floating-point summation order.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// The best importance of a connected, root-containing subtree of
/// `min(l, |os|)` nodes: tree knapsack, children merged bottom-up.
pub fn optimum(os: &Os, l: usize) -> f64 {
    let n = os.len();
    let k = l.min(n);
    let mut best: Vec<Vec<f64>> = vec![Vec::new(); n];
    // BFS ids: every child has a larger id than its parent.
    for v in (0..n).rev() {
        let id = OsNodeId(v as u32);
        let mut f = vec![f64::NEG_INFINITY, os.node(id).weight];
        for &c in os.children(id) {
            let g = std::mem::take(&mut best[c.index()]);
            let size = (f.len() - 1 + g.len() - 1).min(k);
            let mut merged = vec![f64::NEG_INFINITY; size + 1];
            for (a, &fa) in f.iter().enumerate().skip(1) {
                merged[a] = merged[a].max(fa);
                for (b, &gb) in g.iter().enumerate().skip(1) {
                    if a + b > size {
                        break;
                    }
                    merged[a + b] = merged[a + b].max(fa + gb);
                }
            }
            f = merged;
        }
        best[v] = f;
    }
    best[0][k]
}
