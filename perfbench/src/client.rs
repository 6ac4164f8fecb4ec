//! The end-to-end run: the server in a child process, one generator
//! thread on one loopback connection, every reply checked.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use sizel_core::algo::AlgoKind;
use sizel_core::engine::{Mutation, QueryOptions, SizeLEngine};
use sizel_core::osgen::OsSource;
use sizel_core::prelim::generate_prelim;
use sizel_net::frame::Opcode;
use sizel_net::wire::{decode_reply, encode_apply_into, encode_query_into, encode_summary_payload};
use sizel_net::{NetClient, Reply, WireResult};
use sizel_storage::TupleRef;
use sizel_util::prng::Prng;

use crate::check::{close, optimum, Oracle};
use crate::setup::{self, Workload};
use crate::stream::{ds_names, Churn, ColdStream, HotSet, Request};
use crate::{procfs, Args};

/// Reads per round of a read workload; runs stop at a round boundary.
const READ_ROUND: usize = 200;
/// Batches per second of `--seconds` in `dblp_write`.
const WRITE_BATCHES_PER_S: u64 = 30;
/// Hot reads after each batch in `dblp_write` (plus one churn probe).
const HOT_READS_PER_BATCH: usize = 8;
/// Length of one measurement window: read figures are the median over
/// the run's windows, so a burst of host noise moves one window, not
/// the run.
const WINDOW: Duration = Duration::from_secs(1);
/// Reads a window needs for its own p99 (ten samples beyond it): a
/// window closes once it is `WINDOW` long and holds this many reads.
const P99_MIN_READS: usize = 1000;
/// Consecutive applies per apply-latency window.
const APPLY_WINDOW: usize = 20;
/// Crash recoveries per run; `recovery_s` is their median.
const RECOVERIES: usize = 3;
/// Replies checked against the benchmark's own optimum per run.
const OPTIMUM_SAMPLES: usize = 12;

/// A server child process.
struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    port: u16,
    /// Set-up times, or the one recovery time.
    times: Vec<f64>,
}

impl ServerProc {
    fn spawn(w: Workload, dir: &Path, recover: bool) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        cmd.args(["serve", "--workload", w.name(), "--dir"]).arg(dir);
        if recover {
            cmd.arg("--recover");
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take();
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        BufReader::new(stdout).read_line(&mut line).map_err(|e| e.to_string())?;
        let mut f = line.split_whitespace();
        let mut proc = ServerProc { child, stdin, port: 0, times: Vec::new() };
        if f.next() != Some("READY") {
            return Err(format!("server did not start: {line:?}"));
        }
        proc.port = f.next().and_then(|p| p.parse().ok()).ok_or("no port")?;
        proc.times = f.filter_map(|t| t.parse().ok()).collect();
        Ok(proc)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn connect(&self) -> Result<NetClient, String> {
        let c = NetClient::connect(("127.0.0.1", self.port)).map_err(|e| e.to_string())?;
        c.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
        Ok(c)
    }

    /// SIGKILL, as a crash: nothing is flushed or shut down.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Orderly stop: closing stdin makes the server drop its stack.
    fn stop(&mut self) {
        self.stdin.take();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            self.kill();
        }
    }
}

/// Attempted and failed operations per operation type.
#[derive(Default)]
struct Ledger(BTreeMap<&'static str, (u64, u64)>);

impl Ledger {
    fn record(&mut self, kind: &'static str, ok: bool) {
        let e = self.0.entry(kind).or_default();
        e.0 += 1;
        e.1 += u64::from(!ok);
    }

    fn totals(&self) -> (u64, u64) {
        self.0.values().fold((0, 0), |(a, f), &(x, y)| (a + x, f + y))
    }
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 0.5)
}

fn send_query(c: &mut NetClient, req: &Request) -> Result<u64, String> {
    c.send_with(Opcode::Query, |buf| encode_query_into(buf, std::slice::from_ref(req)))
        .map_err(|e| format!("send: {e}"))
}

/// One keyword result list from a `Results` reply.
fn results_of(reply: Reply) -> Result<(u64, Vec<WireResult>), String> {
    match reply {
        Reply::Results { epoch, mut results } if results.len() == 1 => {
            Ok((epoch, results.pop().expect("one list")))
        }
        other => Err(format!("unexpected reply {other:?}")),
    }
}

/// One measurement window of the measured phase.
struct Window {
    ops: usize,
    secs: f64,
    cpu: f64,
    read_p50: f64,
    read_p99: f64,
}

/// Median over windows of one per-window figure.
fn median_of(windows: &[Window], f: impl Fn(&Window) -> f64) -> f64 {
    median(&windows.iter().map(f).collect::<Vec<_>>())
}

/// Median over consecutive `APPLY_WINDOW`-apply chunks of the chunk's
/// `q` percentile.
fn apply_percentile(apply_us: &[f64], q: f64) -> f64 {
    let per_chunk: Vec<f64> = apply_us
        .chunks(APPLY_WINDOW)
        .map(|c| {
            let mut c = c.to_vec();
            c.sort_by(f64::total_cmp);
            percentile(&c, q)
        })
        .collect();
    median(&per_chunk)
}

/// A checked, sampled reply: the request and its results.
type Sample = (Request, Vec<WireResult>);

struct Run<'a> {
    w: Workload,
    conn: NetClient,
    oracle: Oracle,
    ledger: Ledger,
    rng: Prng,
    read_us: Vec<f64>,
    apply_us: Vec<f64>,
    last_epoch: u64,
    samples: Vec<Sample>,
    churn: Churn,
    batches: Vec<Vec<Mutation>>,
    args: &'a Args,
    /// Server pid, for the per-window CPU reading.
    pid: u32,
    windows: Vec<Window>,
    /// Open window: start time, server CPU, ops and reads at its start.
    win: (Instant, f64, usize, usize),
}

impl Run<'_> {
    fn open_window(&mut self, ops: usize) {
        self.win = (Instant::now(), procfs::cpu_seconds(self.pid), ops, self.read_us.len());
    }

    /// Closes the open window once it is `WINDOW` long and holds
    /// `P99_MIN_READS` reads, and opens the next. With `last`, a final
    /// partial window counts if it holds half that (or is the only one).
    fn tick(&mut self, ops: usize, last: bool) {
        let (t0, cpu0, ops0, reads0) = self.win;
        let reads = self.read_us.len() - reads0;
        let full = t0.elapsed() >= WINDOW && reads >= P99_MIN_READS;
        let partial = last && ops > ops0 && (reads >= P99_MIN_READS / 2 || self.windows.is_empty());
        if !(full || partial) {
            return;
        }
        let mut lat = self.read_us[reads0..].to_vec();
        lat.sort_by(f64::total_cmp);
        self.windows.push(Window {
            ops: ops - ops0,
            secs: t0.elapsed().as_secs_f64(),
            cpu: procfs::cpu_seconds(self.pid) - cpu0,
            read_p50: percentile(&lat, 0.5),
            read_p99: percentile(&lat, 0.99),
        });
        self.open_window(ops);
    }

    /// One depth-1 keyword read, timed; `None` when the server failed
    /// it (`Busy`, `Error`, or an undecodable reply).
    fn read(&mut self, req: &Request) -> Result<Option<(u64, Vec<WireResult>)>, String> {
        let t0 = Instant::now();
        let id = send_query(&mut self.conn, req)?;
        let (op, payload) = self.conn.recv_for(id).map_err(|e| format!("recv: {e}"))?;
        self.read_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let reply = decode_reply(op, &payload).ok().filter(|_| op == Opcode::Results);
        self.ledger.record("read", reply.is_some());
        reply.map(results_of).transpose()
    }

    /// A checked hot or cold read at depth 1.
    fn checked_read(&mut self, req: &Request) -> Result<(), String> {
        if let Some((epoch, results)) = self.read(req)? {
            self.check_epoch(epoch)?;
            self.oracle.check_results(&req.0, req.1.l, &results)?;
        }
        Ok(())
    }

    fn check_epoch(&self, epoch: u64) -> Result<(), String> {
        if epoch < self.last_epoch {
            return Err(format!("read served at epoch {epoch} after ack of {}", self.last_epoch));
        }
        Ok(())
    }

    /// One churn batch over the wire, timed; checks the epoch advanced.
    fn apply_next(&mut self) -> Result<(), String> {
        let ms = self.churn.next_batch();
        let k = self.churn.records.len() - 1;
        for &(a, b) in &self.churn.records[k].joins {
            self.oracle.set_edge(a, b, true);
        }
        if k >= 4 {
            for &(a, b) in &self.churn.records[k - 4].joins {
                self.oracle.set_edge(a, b, false);
            }
        }
        let t0 = Instant::now();
        let id = self
            .conn
            .send_with(Opcode::ApplyBatch, |buf| encode_apply_into(buf, &ms))
            .map_err(|e| format!("send: {e}"))?;
        let (op, payload) = self.conn.recv_for(id).map_err(|e| format!("recv: {e}"))?;
        self.apply_us.push(t0.elapsed().as_secs_f64() * 1e6);
        self.batches.push(ms);
        match decode_reply(op, &payload) {
            Ok(Reply::Applied { epoch }) => {
                self.ledger.record("apply", true);
                if epoch <= self.last_epoch {
                    return Err(format!("ack epoch {epoch} after {}", self.last_epoch));
                }
                self.last_epoch = epoch;
            }
            // A failed batch leaves the churn records wrong; nothing
            // after it could be checked.
            _ => return Err(format!("apply of batch {k} failed: {op:?}")),
        }
        Ok(())
    }

    /// The keyword probe after batch `k`: found or not found exactly as
    /// the churn records predict.
    fn probe(&mut self, k: usize) -> Result<(), String> {
        let p = self.churn.probe(k);
        let req = (p.keywords.clone(), QueryOptions::default());
        if let Some((epoch, results)) = self.read(&req)? {
            self.check_epoch(epoch)?;
            let want: HashSet<TupleRef> = p.expect.into_iter().collect();
            self.oracle.check_hits(&want, &p.keywords, req.1.l, &results)?;
        }
        Ok(())
    }

    /// Pipelined cold reads until `--seconds` pass, in whole rounds.
    fn cold_phase(&mut self, stream: &mut ColdStream) -> Result<usize, String> {
        let depth = self.w.depth();
        let deadline = Duration::from_secs(self.args.seconds);
        let t0 = Instant::now();
        let mut inflight: HashMap<u64, (Instant, Request)> = HashMap::new();
        let mut sent = 0usize;
        let mut done = 0usize;
        self.open_window(0);
        loop {
            while inflight.len() < depth
                && (!sent.is_multiple_of(READ_ROUND) || sent == 0 || t0.elapsed() < deadline)
            {
                let req = stream.next(&mut self.rng);
                let id = send_query(&mut self.conn, &req)?;
                inflight.insert(id, (Instant::now(), req));
                sent += 1;
            }
            if inflight.is_empty() {
                self.tick(done, true);
                return Ok(sent);
            }
            let (id, op, payload) = self.conn.recv_any().map_err(|e| format!("recv: {e}"))?;
            let (sent_at, req) = inflight.remove(&id).ok_or("reply to an unknown request")?;
            self.read_us.push(sent_at.elapsed().as_secs_f64() * 1e6);
            done += 1;
            if done.is_multiple_of(READ_ROUND) {
                self.tick(done, false);
            }
            let reply = decode_reply(op, &payload).ok().filter(|_| op == Opcode::Results);
            self.ledger.record("read", reply.is_some());
            if let Some(reply) = reply {
                let (_, results) = results_of(reply)?;
                self.oracle.check_results(&req.0, req.1.l, &results)?;
                if self.samples.len() < OPTIMUM_SAMPLES && !results.is_empty() {
                    self.samples.push((req, results));
                }
            }
        }
    }

    /// Depth-1 hot reads until `--seconds` pass, in whole rounds; every
    /// reply byte-equal to the checked first answer for its key.
    fn warm_phase(&mut self, hot: &HotSet) -> Result<usize, String> {
        let mut expected: HashMap<String, Vec<u8>> = HashMap::new();
        for req in hot.keys() {
            let id = send_query(&mut self.conn, &req)?;
            let (op, payload) = self.conn.recv_for(id).map_err(|e| format!("recv: {e}"))?;
            let reply = decode_reply(op, &payload).ok().filter(|_| op == Opcode::Results);
            self.ledger.record("read", reply.is_some());
            let Some(reply) = reply else { continue };
            let (_, results) = results_of(reply)?;
            self.oracle.check_results(&req.0, req.1.l, &results)?;
            if self.samples.len() < OPTIMUM_SAMPLES && !results.is_empty() {
                self.samples.push((req.clone(), results));
            }
            expected.insert(req.0, payload);
        }
        self.read_us.clear();
        let deadline = Duration::from_secs(self.args.seconds);
        let t0 = Instant::now();
        let mut sent = 0usize;
        self.open_window(0);
        while !sent.is_multiple_of(READ_ROUND) || sent == 0 || t0.elapsed() < deadline {
            if sent.is_multiple_of(READ_ROUND) {
                self.tick(sent, false);
            }
            let req = hot.next(&mut self.rng);
            let t = Instant::now();
            let id = send_query(&mut self.conn, &req)?;
            let (op, payload) = self.conn.recv_for(id).map_err(|e| format!("recv: {e}"))?;
            self.read_us.push(t.elapsed().as_secs_f64() * 1e6);
            sent += 1;
            let ok = op == Opcode::Results;
            self.ledger.record("read", ok);
            if ok && expected.get(&req.0) != Some(&payload) {
                // Not byte-equal: decode to report what differs.
                let (_, results) = results_of(decode_reply(op, &payload).map_err(|e| e.0)?)?;
                self.oracle.check_results(&req.0, req.1.l, &results)?;
                return Err(format!("`{}`: reply changed without a write", req.0));
            }
        }
        self.tick(sent, true);
        Ok(sent)
    }

    /// `dblp_write`: each batch, then a churn probe and hot reads.
    fn write_phase(&mut self, hot: &HotSet) -> Result<usize, String> {
        let n = (WRITE_BATCHES_PER_S * self.args.seconds) as usize;
        let per_batch = 2 + HOT_READS_PER_BATCH;
        self.open_window(0);
        for k in 0..n {
            self.tick(k * per_batch, false);
            self.apply_next()?;
            self.probe(k)?;
            for _ in 0..HOT_READS_PER_BATCH {
                let req = hot.next(&mut self.rng);
                self.checked_read(&req)?;
            }
        }
        self.tick(n * per_batch, true);
        Ok(n * per_batch)
    }

    /// The answers to the recovery probe set: hot keys plus a keyword
    /// probe per churned entity.
    fn probe_set(&mut self, hot: &HotSet) -> Result<Vec<(Request, Vec<u8>)>, String> {
        let mut reqs: Vec<Request> = hot.keys().take(8).collect();
        for p in self.churn.all_probes() {
            reqs.push((p.keywords, QueryOptions::default()));
        }
        let mut out = Vec::with_capacity(reqs.len());
        for req in reqs {
            let id = send_query(&mut self.conn, &req)?;
            let (op, payload) = self.conn.recv_for(id).map_err(|e| format!("recv: {e}"))?;
            let ok = op == Opcode::Results;
            self.ledger.record("probe", ok);
            if ok {
                out.push((req, payload));
            }
        }
        Ok(out)
    }
}

/// Optimum checks on sampled replies against the local engine's input
/// OSs: Optimal equals the benchmark's DP; Bottom-Up and Top-Path never
/// exceed it; the prelim-l optimum equals the complete-OS optimum.
fn check_optimum(
    engine: &SizeLEngine,
    samples: &[Sample],
    gaps: &mut Vec<String>,
) -> Result<(), String> {
    for ((kw, opts), results) in samples {
        for r in results {
            let ctx = engine.context(r.tds.table);
            let (input, _) = generate_prelim(&ctx, r.tds, opts.l, opts.source);
            if input.len() != r.input_os_size {
                return Err(format!(
                    "`{kw}`: input OS has {} nodes, reply says {}",
                    input.len(),
                    r.input_os_size
                ));
            }
            let best = optimum(&input, opts.l);
            let cutoff = Some(opts.l as u32 - 1);
            let complete = sizel_core::osgen::generate_os(&ctx, r.tds, cutoff, opts.source);
            // Lemma 3 guarantees equality only under depth-monotone local
            // importance; elsewhere a shortfall is counted, not hidden.
            let full = optimum(&complete, opts.l);
            if best > full + 1e-9 * full.abs().max(1.0) {
                return Err(format!(
                    "`{kw}`: prelim-l optimum {best} exceeds the complete OS's {full}"
                ));
            }
            if !close(full, best) {
                if depth_monotone(&complete) {
                    return Err(format!(
                        "`{kw}` l={}: prelim-l optimum {best} below the complete OS's {full}",
                        opts.l
                    ));
                }
                gaps.push(format!("{kw}|l={}|{best}|{full}", opts.l));
            }
            let ok = match opts.algo {
                AlgoKind::Optimal => close(r.importance, best),
                _ => r.importance <= best + 1e-9 * best.abs().max(1.0),
            };
            if !ok {
                return Err(format!(
                    "`{kw}` l={} {:?}: importance {} against optimum {best}",
                    opts.l, opts.algo, r.importance
                ));
            }
        }
    }
    Ok(())
}

/// Whether no node outweighs its parent (Lemma 3's precondition).
fn depth_monotone(os: &sizel_core::os::Os) -> bool {
    os.iter().all(|(_, n)| n.parent.is_none_or(|p| n.weight <= os.node(p).weight))
}

/// `dblp_paged`: the Database source must give the graph source's answer.
fn check_source_equivalence(engine: &SizeLEngine, samples: &[Sample]) -> Result<(), String> {
    for ((kw, opts), results) in samples {
        for r in results {
            let graph = QueryOptions { source: OsSource::DataGraph, ..*opts };
            let local = engine.summarize(r.tds, graph);
            let payload = encode_summary_payload(sizel_storage::Epoch::default(), &local);
            let Ok(Reply::Summary { result, .. }) = decode_reply(Opcode::Summary, &payload) else {
                return Err("local summary does not round-trip".into());
            };
            if &result != r {
                return Err(format!("`{kw}`: Database-source reply differs from the graph source"));
            }
        }
    }
    Ok(())
}

pub(crate) fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(1);
}

pub fn run(args: &Args) {
    let work = args.dir.join(format!("run-{}", std::process::id()));
    let result = run_in(args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(lines) => {
            for l in lines {
                println!("{l}");
            }
        }
        Err(e) => fail(&e),
    }
}

fn run_in(args: &Args, work: &Path) -> Result<Vec<String>, String> {
    let w = args.workload;
    let srv_dir: PathBuf = work.join("server");
    let mut server = ServerProc::spawn(w, &srv_dir, false)?;
    let setup_s = median(&server.times);

    // The oracle and the local engine come from the same generator run
    // as the server's data; the request streams come from the seed.
    let db = setup::generate(w);
    let ds: Vec<String> = setup::ds_relations(w).into_iter().map(|(n, _)| n).collect();
    let oracle = Oracle::new(&db, &ds, 10);
    let names = ds_names(w, &db);
    let mut rng = Prng::new(args.seed);
    let churn = Churn::new(w, &db, &mut rng.fork(1));
    let hot = HotSet::new(&names, w.hot_keys());
    let mut cold = ColdStream::new(w, names);
    let mut engine = setup::build_engine(w, db);

    let mut run = Run {
        w,
        conn: server.connect()?,
        oracle,
        ledger: Ledger::default(),
        rng: rng.fork(3),
        read_us: Vec::new(),
        apply_us: Vec::new(),
        last_epoch: 0,
        samples: Vec::new(),
        churn,
        batches: Vec::new(),
        args,
        pid: server.pid(),
        windows: Vec::new(),
        win: (Instant::now(), 0.0, 0, 0),
    };
    if w.cold() {
        // Warm the connection and the code paths on keys the run never
        // repeats.
        for _ in 0..8 {
            let req = cold.next(&mut run.rng);
            run.checked_read(&req)?;
        }
        run.read_us.clear();
    }

    let pid = run.pid;
    let (cpu0, ctx0, steal0) =
        (procfs::cpu_seconds(pid), procfs::context_switches(pid), procfs::steal_ticks());
    let t0 = Instant::now();
    let ops = match w {
        Workload::DblpWarm => run.warm_phase(&hot)?,
        Workload::TpchCold | Workload::DblpPaged => run.cold_phase(&mut cold)?,
        Workload::DblpWrite => {
            for req in hot.keys() {
                run.checked_read(&req)?;
            }
            run.read_us.clear();
            run.write_phase(&hot)?
        }
    };
    let elapsed = t0.elapsed().as_secs_f64();
    let cpu = procfs::cpu_seconds(pid) - cpu0;
    let ctx = procfs::context_switches(pid) - ctx0;
    let steal = procfs::steal_ticks() - steal0;
    let reads = run.read_us.len();

    // Check the sampled replies of the measured phase at the base state.
    let mut gaps = Vec::new();
    if w != Workload::DblpWrite {
        check_optimum(&engine, &run.samples, &mut gaps)?;
        if w == Workload::DblpPaged {
            check_source_equivalence(&engine, &run.samples)?;
        }
        // The write tail: applies, each followed by its churn probe.
        for k in 0..w.tail_batches() {
            run.apply_next()?;
            run.probe(k)?;
        }
    }

    // Crash and recover: capture the live answers, SIGKILL the server,
    // restart it on the same WAL, and compare.
    let live = run.probe_set(&hot)?;
    let peak_rss_mib = procfs::peak_rss_mib(pid);
    server.kill();
    let disk_mib = procfs::dir_bytes(&srv_dir) as f64 / (1024.0 * 1024.0);
    // Each restart replays the same WAL from the same base, so every
    // recovery must land on the same answers.
    let mut recovery = Vec::new();
    let mut final_samples = Vec::new();
    for _ in 0..RECOVERIES {
        let mut recovered = ServerProc::spawn(w, &srv_dir, true)?;
        recovery.push(recovered.times.first().copied().ok_or("no recovery time")?);
        run.conn = recovered.connect()?;
        for (req, live_payload) in &live {
            let id = send_query(&mut run.conn, req)?;
            let (op, payload) = run.conn.recv_for(id).map_err(|e| format!("recv: {e}"))?;
            run.ledger.record("probe", op == Opcode::Results);
            let (epoch, results) = results_of(decode_reply(op, &payload).map_err(|e| e.0)?)?;
            if epoch != run.last_epoch {
                return Err(format!("recovered at epoch {epoch}, last ack was {}", run.last_epoch));
            }
            if &payload != live_payload {
                return Err(format!("`{}`: recovered answer differs from the live one", req.0));
            }
            if final_samples.len() < 4 && !results.is_empty() {
                final_samples.push((req.clone(), results));
            }
        }
        recovered.stop();
    }
    for p in run.churn.all_probes() {
        let req = (p.keywords, QueryOptions::default());
        let (_, bytes) = live.iter().find(|(r, _)| r.0 == req.0).ok_or("probe missing")?;
        let (_, results) = results_of(decode_reply(Opcode::Results, bytes).map_err(|e| e.0)?)?;
        let want: HashSet<TupleRef> = p.expect.into_iter().collect();
        run.oracle.check_hits(&want, &req.0, req.1.l, &results)?;
    }

    // The final state's optimum, on the local engine after the same
    // batches.
    for ms in std::mem::take(&mut run.batches) {
        engine.apply_batch(ms).map_err(|e| format!("local apply: {e}"))?;
    }
    check_optimum(&engine, &final_samples, &mut gaps)?;

    let apply_us = std::mem::take(&mut run.apply_us);
    let win = &run.windows;
    let read_p99 = median_of(win, |w| w.read_p99);
    let metrics = [
        ("setup_s", setup_s, "s"),
        ("read_p50_us", median_of(win, |w| w.read_p50), "us"),
        ("ops_per_s", median_of(win, |w| w.ops as f64 / w.secs), "1/s"),
        ("cpu_us_per_op", median_of(win, |w| w.cpu * 1e6 / w.ops as f64), "us"),
        ("peak_rss_mib", peak_rss_mib, "MiB"),
        ("apply_p50_us", apply_percentile(&apply_us, 0.5), "us"),
        ("apply_p90_us", apply_percentile(&apply_us, 0.9), "us"),
        ("recovery_s", median(&recovery), "s"),
        ("disk_mib", disk_mib, "MiB"),
    ];
    let ops_detail: Vec<String> = run
        .ledger
        .0
        .iter()
        .map(|(k, (a, f))| format!("\"{k}\": {{\"attempted\": {a}, \"failed\": {f}}}"))
        .collect();
    let window_p99: Vec<f64> = win.iter().map(|w| w.read_p99.round()).collect();
    let detail = [
        format!("\"workload\": \"{}\", \"seed\": {}", w.name(), args.seed),
        format!("\"measured_ops\": {ops}, \"reads\": {reads}, \"applies\": {}", apply_us.len()),
        format!("\"elapsed_s\": {elapsed}, \"server_cpu_s\": {cpu}"),
        format!("\"server_ctx_switches\": {ctx}, \"host_steal_ticks\": {steal}"),
        format!("\"windows\": {}, \"window_p99_us\": {window_p99:?}", win.len()),
        format!("\"read_p99_us\": {read_p99}, \"recovery_s\": {recovery:?}"),
        format!("\"ops\": {{{}}}, \"prelim_optimum_gaps\": {gaps:?}", ops_detail.join(", ")),
    ];
    let detail = format!("{{\"detail\": {{{}}}}}", detail.join(", "));
    let (attempted, failed) = run.ledger.totals();
    let result = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    Ok(vec![detail, result])
}
