//! Wire-level benchmark of the sizel serving stack.
//!
//! `perfbench run --workload W --seed N --seconds S --trace 0` starts the
//! deployed server (`perfbench serve`) in a child process, drives it over
//! loopback from one generator thread on one connection, checks every
//! reply against the benchmark's own oracle, and prints the end-to-end
//! metrics. `--trace 1` runs the in-process traced pass instead and
//! prints the per-layer metrics. See README.md.

mod check;
mod client;
mod procfs;
mod setup;
mod stream;
mod trace;

use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::time::Instant;

use setup::Workload;

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub dir: PathBuf,
    pub recover: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: Workload::DblpWarm,
        seed: 1,
        seconds: 10,
        trace: false,
        dir: PathBuf::from("perfbench/work"),
        recover: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--recover" {
            out.recover = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => {
                out.workload = Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?
            }
            "--seed" => out.seed = v.parse().map_err(bad)?,
            "--seconds" => out.seconds = v.parse().map_err(bad)?,
            "--trace" => out.trace = v == "1",
            "--dir" => out.dir = PathBuf::from(v),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

/// The server child: builds the deployed stack, reports set-up (or
/// recovery) time and its port, then serves until its stdin closes.
fn serve(args: &Args, started: Instant) {
    let w = args.workload;
    let mut line = String::new();
    let server = if args.recover {
        let server = setup::serve(w, setup::generate(w), &args.dir);
        line = format!("READY {} {}", server.local_addr().port(), started.elapsed().as_secs_f64());
        server
    } else {
        let mut times = Vec::new();
        let mut last = None;
        for i in 0..w.setup_builds() {
            // A fresh WAL and segment store per build; only the last stays.
            let _ = std::fs::remove_dir_all(&args.dir);
            let db = setup::generate(w);
            let t0 = Instant::now();
            let server = setup::serve(w, db, &args.dir);
            times.push(t0.elapsed().as_secs_f64());
            if i + 1 < w.setup_builds() {
                drop(server);
            } else {
                last = Some(server);
            }
        }
        let server = last.expect("at least one build");
        line.push_str(&format!("READY {}", server.local_addr().port()));
        for t in times {
            line.push_str(&format!(" {t}"));
        }
        server
    };
    // Flush our own writes (segments, WAL) before serving, so their
    // writeback does not land in the measured phase.
    sync_tree(&args.dir);
    println!("{line}");
    std::io::stdout().flush().expect("stdout");
    // Serve until the generator closes our stdin (or kills us).
    let mut sink = String::new();
    while std::io::stdin().lock().read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
        sink.clear();
    }
    drop(server);
}

/// `fsync` of every regular file under `dir`.
fn sync_tree(dir: &std::path::Path) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            sync_tree(&p);
        } else if let Ok(f) = std::fs::File::open(&p) {
            let _ = f.sync_all();
        }
    }
}

fn main() {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match argv.split_first() {
        Some((m, rest)) => (m.as_str(), rest),
        None => ("", &argv[..]),
    };
    let args = match parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match mode {
        "serve" => serve(&args, started),
        "run" if args.trace => trace::run(&args),
        "run" => client::run(&args),
        _ => {
            eprintln!(
                "usage: perfbench run --workload W --seed N --seconds S --trace 0|1\n       \
                 perfbench serve --workload W --dir D [--recover]"
            );
            std::process::exit(2);
        }
    }
}
