//! The traced run (`--trace 1`): per-layer figures from timed calls
//! into each crate's public functions, in-process.
//!
//! A layer called right after its parent would find the summary cache
//! (or the block cache) already warm, so each layer is timed on its own
//! freshly built replica fed the identical operation sequence: the wire
//! (`NetServer` + `NetClient`), the router (`batch_query_at`), the
//! shard (`summarize_batch`), and the engine (`summarize` and the
//! OS-generation and size-l calls under it). Spans of one request share
//! its id; a span's parent is the same request's span one layer up, and
//! a layer's self time is its span minus its children's.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use sizel_cluster::ClusterRouter;
use sizel_core::algo::{AlgoKind, AlgoScratch};
use sizel_core::durability::{encode_batch, DiskTierConfig};
use sizel_core::engine::{Mutation, QueryOptions, SizeLEngine};
use sizel_core::osgen::generate_os;
use sizel_core::prelim::generate_prelim;
use sizel_disk::{PagedStore, Wal};
use sizel_graph::{DataGraph, SchemaGraph};
use sizel_net::frame::Opcode;
use sizel_net::wire::{decode_reply, decode_request, encode_query_payload, encode_results_payload};
use sizel_net::{NetClient, NetConfig, NetServer};
use sizel_storage::TupleRef;
use sizel_util::prng::Prng;

use crate::setup::{self, Workload, PAGED_TABLES};
use crate::stream::{ds_names, Churn, ColdStream, HotSet, Request};
use crate::Args;

/// One operation of the traced sequence.
enum Op {
    Read(Request),
    Apply(Vec<Mutation>),
}

/// The workload's operation sequence, shorter than an end-to-end run:
/// the per-layer figures are means over it.
fn ops(w: Workload, seed: u64) -> Vec<Op> {
    let db = setup::generate(w);
    let names = ds_names(w, &db);
    let mut rng = Prng::new(seed);
    let mut churn = Churn::new(w, &db, &mut rng.fork(1));
    let hot = HotSet::new(&names, w.hot_keys());
    let mut rng = rng.fork(3);
    let mut out = Vec::new();
    match w {
        Workload::DblpWarm => {
            out.extend(hot.keys().map(Op::Read));
            out.extend((0..2000).map(|_| Op::Read(hot.next(&mut rng))));
        }
        Workload::TpchCold | Workload::DblpPaged => {
            let mut cold = ColdStream::new(w, names);
            let n = if w == Workload::TpchCold { 600 } else { 200 };
            out.extend((0..n).map(|_| Op::Read(cold.next(&mut rng))));
        }
        Workload::DblpWrite => {
            out.extend(hot.keys().map(Op::Read));
            for k in 0..40 {
                out.push(Op::Apply(churn.next_batch()));
                let p = churn.probe(k);
                out.push(Op::Read((p.keywords, QueryOptions::default())));
                out.extend((0..3).map(|_| Op::Read(hot.next(&mut rng))));
            }
        }
    }
    if w != Workload::DblpWrite {
        // Read workloads close with a short churn tail so the write-path
        // layers are measured on every workload.
        out.extend((0..10).map(|_| Op::Apply(churn.next_batch())));
    }
    out
}

/// A recorded span.
struct Span {
    name: &'static str,
    req: usize,
    parent: Option<usize>,
    start_ns: u128,
    end_ns: u128,
}

/// In-memory span log; with `on == false` calls run untimed.
struct Recorder {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    /// `(layer, request)` → span index, for parent links.
    by_req: HashMap<(&'static str, usize), usize>,
}

impl Recorder {
    fn new(on: bool) -> Recorder {
        Recorder { on, t0: Instant::now(), spans: Vec::new(), by_req: HashMap::new() }
    }

    /// Runs `f` inside span `name` of request `req` under `parent`'s
    /// span of the same request.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        req: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = self.t0.elapsed().as_nanos();
        let out = f();
        let end = self.t0.elapsed().as_nanos();
        let parent = parent.and_then(|p| self.by_req.get(&(p, req)).copied());
        self.by_req.insert((name, req), self.spans.len());
        self.spans.push(Span { name, req, parent, start_ns: start, end_ns: end });
        out
    }

    fn dur_us(&self, name: &'static str, req: usize) -> Option<f64> {
        let s = &self.spans[*self.by_req.get(&(name, req))?];
        Some((s.end_ns - s.start_ns) as f64 / 1e3)
    }

    /// Mean duration of every span called `name`.
    fn mean_us(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        mean(&d)
    }

    /// Mean self time per span of layer `name`: duration minus the
    /// durations of its children.
    fn self_us(&self, name: &str) -> f64 {
        let mut child = vec![0u128; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let d: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end_ns - s.start_ns).saturating_sub(child[i]) as f64 / 1e3)
            .collect();
        mean(&d)
    }

    fn write(&self, path: &Path) {
        let mut out = String::from("name\treq\tparent\tstart_ns\tend_ns\n");
        for s in &self.spans {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_else(|| "-".into());
            out.push_str(&format!(
                "{}\t{}\t{parent}\t{}\t{}\n",
                s.name, s.req, s.start_ns, s.end_ns
            ));
        }
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        }
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Builds an engine on freshly generated data, timing the build.
fn timed_engine(w: Workload, builds: &mut Vec<f64>) -> SizeLEngine {
    let db = setup::generate(w);
    let t0 = Instant::now();
    let e = setup::build_engine(w, db);
    builds.push(t0.elapsed().as_secs_f64());
    e
}

fn router(w: Workload, dir: &Path, builds: &mut Vec<f64>) -> Arc<ClusterRouter> {
    setup::router(w, timed_engine(w, builds), dir)
}

/// Postings a checkpoint of `tables` writes: one entry per row per FK
/// column, plus both orientations of every junction row.
fn posting_entries(db: &sizel_storage::Database, tables: &[sizel_storage::TableId]) -> u64 {
    tables
        .iter()
        .map(|&t| {
            let t = db.table(t);
            let per_row = t.schema.fks.len() + if t.schema.is_junction { 2 } else { 0 };
            (t.len() * per_row) as u64
        })
        .sum()
}

/// Everything the engine pass measures besides its spans.
#[derive(Default)]
struct CoreCounts {
    summaries: u64,
    reads: u64,
    prelim_nodes: u64,
    complete_nodes: u64,
    cond2: u64,
    full_joins: u64,
    joins: u64,
    tuples: u64,
    fast: u64,
    heap: u64,
    block_hits: u64,
    block_misses: u64,
    batches: u64,
    resorts: u64,
    compactions: u64,
    wal_bytes: u64,
}

/// The engine pass: `ds_hits`, `summarize`, and the calls beneath it on
/// each hit; `apply_batch` and a `DataGraph::build` after each batch.
fn core_pass(
    ops: &[Op],
    engine: &mut SizeLEngine,
    rec: &mut Recorder,
    graph_us: &mut Vec<f64>,
) -> CoreCounts {
    let mut c = CoreCounts::default();
    let mut scratch = AlgoScratch::new();
    let sg = SchemaGraph::from_database(engine.db());
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Read((kw, opts)) => {
                c.reads += 1;
                let hits = rec.span("core.ds_hits", Some("serve"), i, || engine.ds_hits(kw));
                for tds in hits {
                    c.summaries += 1;
                    let db = engine.db();
                    let (a0, p0) = (db.access().snapshot(), db.access().probes());
                    let d0 = engine.disk_stats().map(|d| d.store.cache).unwrap_or_default();
                    rec.span("core.summarize", Some("serve"), i, || engine.summarize(tds, *opts));
                    let db = engine.db();
                    let (a1, p1) = (db.access().snapshot(), db.access().probes());
                    let d1 = engine.disk_stats().map(|d| d.store.cache).unwrap_or_default();
                    c.joins += a1.joins - a0.joins;
                    c.tuples += a1.tuples - a0.tuples;
                    c.fast += p1.fast - p0.fast;
                    c.heap += p1.heap - p0.heap;
                    c.block_hits += d1.hits - d0.hits;
                    c.block_misses += d1.misses - d0.misses;
                    core_calls(engine, tds, *opts, rec, i, &mut scratch, &mut c);
                }
            }
            Op::Apply(ms) => {
                c.batches += 1;
                let m0 = engine.db().access().maint();
                let w0 = engine.disk_stats().map(|d| d.wal_bytes).unwrap_or(0);
                rec.span("core.apply_batch", None, i, || engine.apply_batch(ms.clone()))
                    .expect("churn batch applies");
                let m1 = engine.db().access().maint();
                c.resorts += m1.posting_resorts - m0.posting_resorts;
                c.compactions += m1.compactions - m0.compactions;
                c.wal_bytes += engine.disk_stats().map(|d| d.wal_bytes).unwrap_or(0) - w0;
                let t0 = Instant::now();
                std::hint::black_box(DataGraph::build(engine.db(), &sg));
                graph_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    c
}

/// OS generation and each size-l algorithm on one hit, timed apart.
fn core_calls(
    engine: &SizeLEngine,
    tds: TupleRef,
    opts: QueryOptions,
    rec: &mut Recorder,
    i: usize,
    scratch: &mut AlgoScratch,
    c: &mut CoreCounts,
) {
    let ctx = engine.context(tds.table);
    let (os, stats) =
        rec.span("core.prelim", None, i, || generate_prelim(&ctx, tds, opts.l, opts.source));
    c.prelim_nodes += os.len() as u64;
    c.cond2 += stats.cond2_probes;
    c.full_joins += stats.full_joins;
    let cutoff = Some(opts.l as u32 - 1);
    c.complete_nodes += generate_os(&ctx, tds, cutoff, opts.source).len() as u64;
    let mut chosen = None;
    for (name, algo) in [
        ("core.algo.optimal", AlgoKind::Optimal),
        ("core.algo.bottom_up", AlgoKind::BottomUp),
        ("core.algo.top_path", AlgoKind::TopPath),
    ] {
        let r = rec.span(name, None, i, || algo.compute_pooled(&os, opts.l, scratch));
        if algo == opts.algo {
            chosen = Some(r);
        }
    }
    let selected = chosen.expect("the read's algorithm is one of the three").selected;
    std::hint::black_box(rec.span("core.project", None, i, || os.project(&selected)));
}

pub fn run(args: &Args) {
    let w = args.workload;
    let work = args.dir.join(format!("trace-{}", std::process::id()));
    let result = run_in(args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {} trace: {e}", w.name());
            std::process::exit(1);
        }
    }
}

fn run_in(args: &Args, work: &Path) -> Result<String, String> {
    let w = args.workload;
    let ops = ops(w, args.seed);
    let reads = ops.iter().filter(|o| matches!(o, Op::Read(_))).count() as u64;
    let batches = ops.len() as u64 - reads;
    let mut rec = Recorder::new(true);
    let mut builds = Vec::new();

    // The wire: the deployed server in this process, one client.
    let wire = router(w, &work.join("wire"), &mut builds);
    let server = NetServer::bind(Arc::clone(&wire), "127.0.0.1:0", NetConfig::default())
        .map_err(|e| e.to_string())?;
    let mut client = NetClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let s0 = wire.stats();
    let fast0 = server.counters().fastpath_hits.load(std::sync::atomic::Ordering::Relaxed);
    for (i, op) in ops.iter().enumerate() {
        let reply = match op {
            Op::Read(req) => rec.span("net", None, i, || client.query(std::slice::from_ref(req))),
            Op::Apply(ms) => client.apply(ms),
        };
        match reply.map_err(|e| e.to_string())? {
            sizel_net::Reply::Results { .. } | sizel_net::Reply::Applied { .. } => {}
            other => return Err(format!("operation {i} failed: {other:?}")),
        }
    }
    let s1 = wire.stats();
    let fastpath =
        server.counters().fastpath_hits.load(std::sync::atomic::Ordering::Relaxed) - fast0;
    drop(client);
    drop(server);
    drop(wire);
    let hits = s1.total(|s| s.cache.hits) - s0.total(|s| s.cache.hits);
    let misses = s1.total(|s| s.cache.misses) - s0.total(|s| s.cache.misses);
    let computed = s1.total(|s| s.summaries_computed) - s0.total(|s| s.summaries_computed);
    let rewarmed = s1.refresh.rewarmed_keys - s0.refresh.rewarmed_keys;

    // The router, and the codec on its answers.
    let cluster = router(w, &work.join("cluster"), &mut builds);
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Read(req) => {
                let one = std::slice::from_ref(req);
                let (epoch, results) = rec
                    .span("cluster", Some("net"), i, || cluster.batch_query_at(one))
                    .map_err(|e| e.to_string())?;
                let round_trip = rec.span("net.codec", None, i, || {
                    let q = encode_query_payload(one);
                    let r = encode_results_payload(epoch, &results);
                    decode_request(Opcode::Query, &q).is_ok()
                        && decode_reply(Opcode::Results, &r).is_ok()
                });
                if !round_trip {
                    return Err(format!("read {i} does not survive the codec"));
                }
            }
            Op::Apply(ms) => {
                cluster.apply_batch(ms.clone()).map_err(|e| e.to_string())?;
            }
        }
    }
    drop(cluster);

    // The shard: `summarize_batch` on the router's hits.
    let serve = router(w, &work.join("serve"), &mut builds);
    let mut queue_us = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Read((kw, opts)) => {
                let shard = serve.shard(0);
                let hits = shard.engine().ds_hits(kw);
                let items: Vec<(TupleRef, QueryOptions)> =
                    hits.iter().map(|&t| (t, *opts)).collect();
                let c0 = shard.stats().summaries_computed;
                rec.span("serve", Some("cluster"), i, || shard.summarize_batch(&items));
                if shard.stats().summaries_computed - c0 == items.len() as u64 && !items.is_empty()
                {
                    queue_us.push(i);
                }
            }
            Op::Apply(ms) => {
                serve.apply_batch(ms.clone()).map_err(|e| e.to_string())?;
            }
        }
    }
    drop(serve);

    // The engine, with the same disk tier the server has.
    let mut engine = timed_engine(w, &mut builds);
    let mut disk = w.disk_config();
    disk.dir = work.join("core");
    engine.attach_disk(disk.clone()).map_err(|e| e.to_string())?;
    let mut graph_us = Vec::new();
    let t_on = Instant::now();
    let c = core_pass(&ops, &mut engine, &mut rec, &mut graph_us);
    let on_s = t_on.elapsed().as_secs_f64();
    drop(engine);

    // serve.queue_us: the shard's time on an all-miss read minus the
    // engine's own summarize time for the same keys.
    let queue: Vec<f64> = queue_us
        .iter()
        .filter_map(|&i| {
            let serve = rec.dur_us("serve", i)?;
            let core: Vec<f64> = rec
                .spans
                .iter()
                .filter(|s| s.req == i && s.name == "core.summarize")
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
                .collect();
            (!core.is_empty()).then(|| (serve - core.iter().sum::<f64>()) / core.len() as f64)
        })
        .collect();
    // net.wire_us and cluster.fanout_us, per read.
    let per_read = |upper: &'static str, lower: &'static str| -> f64 {
        let d: Vec<f64> = (0..ops.len())
            .filter_map(|i| Some(rec.dur_us(upper, i)? - rec.dur_us(lower, i)?))
            .collect();
        mean(&d)
    };
    let wire_us = per_read("net", "cluster");
    let fanout_us = per_read("cluster", "serve");

    // Recording off: the same engine pass on a fresh replica.
    let mut quiet = Recorder::new(false);
    let mut engine = timed_engine(w, &mut builds);
    disk.dir = work.join("quiet");
    engine.attach_disk(disk.clone()).map_err(|e| e.to_string())?;
    let t_off = Instant::now();
    core_pass(&ops, &mut engine, &mut quiet, &mut Vec::new());
    let off_s = t_off.elapsed().as_secs_f64();

    // Ranking and the data graph on their own.
    let db = engine.db();
    let sg = SchemaGraph::from_database(db);
    let t0 = Instant::now();
    let dg = DataGraph::build(db, &sg);
    graph_us.push(t0.elapsed().as_secs_f64() * 1e6);
    let ga = setup::authority(w, db, &sg, &dg);
    let t0 = Instant::now();
    std::hint::black_box(sizel_rank::compute(
        db,
        &sg,
        &dg,
        &ga,
        &sizel_rank::RankConfig::default(),
    ));
    let rank_s = t0.elapsed().as_secs_f64();
    drop(engine);

    // A checkpoint of the workload's pageable postings on a fresh build.
    let engine = timed_engine(w, &mut builds);
    let pageable: &[&str] =
        if w.is_tpch() { &["Orders", "Lineitem", "Partsupp"] } else { &PAGED_TABLES };
    let tables: Vec<_> =
        pageable.iter().map(|t| engine.db().table_id(t).expect("table exists")).collect();
    let store = PagedStore::new(&work.join("ckpt"), 1024).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    store.checkpoint_from(engine.db(), &tables).map_err(|e| e.to_string())?;
    let checkpoint_s = t0.elapsed().as_secs_f64();
    let seg_bytes = crate::procfs::dir_bytes(&work.join("ckpt"));
    let bytes_per_entry = seg_bytes as f64 / posting_entries(engine.db(), &tables).max(1) as f64;
    drop(engine);

    // The WAL on the run's own records, then their replay.
    let wal_dir: PathBuf = work.join("wal");
    std::fs::create_dir_all(&wal_dir).map_err(|e| e.to_string())?;
    let (mut wal, _) = Wal::open(&wal_dir.join("wal.log"), 1).map_err(|e| e.to_string())?;
    let mut append_us = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if let Op::Apply(ms) = op {
            let record = encode_batch(i as u64 + 1, ms);
            let t0 = Instant::now();
            wal.append(&record).map_err(|e| e.to_string())?;
            append_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    let wal_bytes = wal.len_bytes();
    drop(wal);
    let mut engine = timed_engine(w, &mut builds);
    let t0 = Instant::now();
    let report = engine.attach_disk(DiskTierConfig::new(&wal_dir)).map_err(|e| e.to_string())?;
    let replay_s = t0.elapsed().as_secs_f64();
    if report.batches_replayed as u64 != batches || report.batches_rejected != 0 {
        return Err(format!("replay of {batches} batches: {report:?}"));
    }
    drop(engine);

    builds.sort_by(f64::total_cmp);
    let build_s = builds[builds.len() / 2];
    let spans_path = args.dir.join(format!("spans-{}-{}.tsv", w.name(), args.seed));
    rec.write(&spans_path);
    let summaries = c.summaries.max(1) as f64;
    let metrics: Vec<(&str, f64, &str)> = vec![
        ("net.codec_us", rec.mean_us("net.codec"), "us"),
        ("net.wire_us", wire_us, "us"),
        ("net.fastpath_share", ratio(fastpath, reads), "ratio"),
        ("cluster.fanout_us", fanout_us, "us"),
        ("cluster.rewarmed_per_apply", ratio(rewarmed, batches), "count"),
        ("serve.cache_hit_ratio", ratio(hits, hits + misses), "ratio"),
        ("serve.queue_us", mean(&queue), "us"),
        ("serve.computed_per_read", ratio(computed, reads), "count"),
        ("core.ds_hits_us", rec.mean_us("core.ds_hits"), "us"),
        ("core.summarize_us", rec.mean_us("core.summarize"), "us"),
        ("core.prelim_us", rec.mean_us("core.prelim"), "us"),
        ("core.prelim_nodes", c.prelim_nodes as f64 / summaries, "count"),
        ("core.complete_nodes", c.complete_nodes as f64 / summaries, "count"),
        ("core.cond2_probes", c.cond2 as f64 / summaries, "count"),
        ("core.full_joins", c.full_joins as f64 / summaries, "count"),
        ("core.algo_us.optimal", rec.mean_us("core.algo.optimal"), "us"),
        ("core.algo_us.bottom_up", rec.mean_us("core.algo.bottom_up"), "us"),
        ("core.algo_us.top_path", rec.mean_us("core.algo.top_path"), "us"),
        ("core.project_us", rec.mean_us("core.project"), "us"),
        ("core.apply_batch_us", rec.mean_us("core.apply_batch"), "us"),
        ("core.build_s", build_s, "s"),
        ("core.replay_s", replay_s, "s"),
        ("graph.build_us", mean(&graph_us), "us"),
        ("rank.compute_s", rank_s, "s"),
        ("storage.joins_per_read", ratio(c.joins, c.reads), "count"),
        ("storage.tuples_per_read", ratio(c.tuples, c.reads), "count"),
        ("storage.fast_probe_share", ratio(c.fast, c.fast + c.heap), "ratio"),
        ("storage.resorts_per_batch", ratio(c.resorts, c.batches), "count"),
        ("storage.compactions_per_batch", ratio(c.compactions, c.batches), "count"),
        ("disk.block_hit_ratio", ratio(c.block_hits, c.block_hits + c.block_misses), "ratio"),
        ("disk.block_misses_per_read", ratio(c.block_misses, c.reads), "count"),
        ("disk.segment_bytes_per_entry", bytes_per_entry, "B"),
        ("disk.checkpoint_s", checkpoint_s, "s"),
        ("disk.wal_append_us", mean(&append_us), "us"),
        ("disk.wal_bytes_per_batch", ratio(wal_bytes, batches), "B"),
        ("trace.overhead_share", (on_s - off_s) / off_s, "ratio"),
    ];
    let self_time: Vec<String> = ["net", "cluster", "serve", "core.summarize"]
        .iter()
        .map(|l| format!("\"{l}\": {}", rec.self_us(l)))
        .collect();
    println!(
        "{{\"detail\": {{\"workload\": \"{}\", \"seed\": {}, \"reads\": {reads}, \"batches\": {batches}, \
         \"self_us\": {{{}}}, \"spans\": {}, \"spans_file\": \"{}\", \"wal_bytes_in_engine_pass\": {}}}}}",
        w.name(),
        args.seed,
        self_time.join(", "),
        rec.spans.len(),
        spans_path.display(),
        c.wal_bytes
    );
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {}}}",
        ops.len(),
        crate::client::json_metrics(&metrics)
    ))
}
