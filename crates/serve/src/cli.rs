//! The `temu-serve` command-line entry point, as a library function.
//!
//! Living in the library (rather than only in `src/bin/temu-serve.rs`)
//! lets other crates ship an identically-behaved binary under their own
//! name — the fleet crate's `temu-member` bin is exactly this, so the
//! fleet's integration tests always have a member binary via
//! `CARGO_BIN_EXE_temu-member` (cargo only exposes that env var for bins
//! of the crate under test).

use crate::server::MIN_METRICS_INTERVAL;
use crate::{ServeConfig, Server, ADDR_ENV};
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "usage: temu-serve [--addr HOST:PORT] [--store CACHE.jsonl] [--journal JOBS.jsonl] [--workers N] [--queue-limit N] [--member NAME] [--window-checkpoint N] [--metrics-log FILE.ndjson] [--metrics-interval MS]";

/// Parses `args` (without the program name), binds, prints the banner
/// lines scripts grep for (`temu-serve listening on ...`), and serves
/// until a client sends `shutdown`.
///
/// Exits the process with status 2 on a usage error and 1 when binding
/// fails (the address, or a durable file that cannot be opened) — this
/// *is* the `main` of `temu-serve` and `temu-member`.
pub fn serve_main(args: &[String]) {
    let mut config = ServeConfig::default();
    if let Ok(addr) = std::env::var(ADDR_ENV) {
        config.addr = addr;
    }
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{arg} takes {what}\n{USAGE}");
                exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => config.addr = value("an address"),
            "--store" => config.store = Some(PathBuf::from(value("a path"))),
            "--journal" => config.journal = Some(PathBuf::from(value("a path"))),
            "--member" => config.member = Some(value("a name")),
            "--workers" => {
                config.workers = value("a count").parse().unwrap_or_else(|_| {
                    eprintln!("--workers takes a positive integer\n{USAGE}");
                    exit(2);
                });
            }
            "--queue-limit" => {
                config.queue_limit = value("a count").parse().unwrap_or_else(|_| {
                    eprintln!("--queue-limit takes a positive integer\n{USAGE}");
                    exit(2);
                });
            }
            "--window-checkpoint" => {
                config.window_checkpoint = value("a window count").parse().unwrap_or_else(|_| {
                    eprintln!("--window-checkpoint takes a window count (0 disables)\n{USAGE}");
                    exit(2);
                });
            }
            "--metrics-log" => config.metrics_log = Some(PathBuf::from(value("a path"))),
            "--metrics-interval" => {
                let ms: u64 = value("milliseconds").parse().unwrap_or_else(|_| {
                    eprintln!("--metrics-interval takes milliseconds\n{USAGE}");
                    exit(2);
                });
                config.metrics_interval = std::time::Duration::from_millis(ms);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}\n{USAGE}");
                exit(2);
            }
        }
    }

    let server = match Server::bind(config.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("temu-serve: {e}");
            exit(1);
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("temu-serve listening on {addr}"),
        Err(e) => {
            eprintln!("temu-serve: no local address: {e}");
            exit(1);
        }
    }
    if let Some(name) = &config.member {
        println!("fleet member name: {name}");
    }
    match &config.store {
        Some(path) => {
            println!("cache store {}: {} entr(ies) preloaded", path.display(), server.cache_len());
        }
        None => println!("cache: in-memory only (pass --store to persist results)"),
    }
    // A restart that skipped records says so: damaged ones, and window
    // records whose state this build cannot read (another state version).
    let skipped = match server.skipped_records() {
        0 => String::new(),
        n => format!(", {n} unreadable record(s) skipped"),
    };
    match server.journal_path() {
        Some(path) => println!(
            "job journal {}: {} job(s) recovered and re-enqueued, {} mid-point state(s) recovered{skipped}",
            path.display(),
            server.recovered_jobs(),
            server.recovered_checkpoints(),
        ),
        None => println!("job journal: off (in-memory server; pass --store or --journal)"),
    }
    if let Some(path) = &config.metrics_log {
        println!(
            "metrics log {}: one snapshot every {} ms",
            path.display(),
            config.metrics_interval.max(MIN_METRICS_INTERVAL).as_millis()
        );
    }
    println!("{} worker(s), queue limit {}", config.workers.max(1), config.queue_limit.max(1));
    server.run();
    checkpoint_overhead_summary();
    println!("temu-serve: shut down");
}

/// Prints a one-line window-checkpoint cost summary at shutdown, read
/// from the process-wide metrics registry: capture (state serialization
/// in the emulator) plus the journal's write and fsync phases, so the
/// per-checkpoint cost is visible in every server run instead of
/// requiring a profiler.
fn checkpoint_overhead_summary() {
    let snapshot = temu_obs::global().snapshot();
    let recorded = snapshot.counters.get("serve.checkpoints_recorded").copied().unwrap_or(0);
    if recorded == 0 {
        return;
    }
    let mean_ms = |name: &str| {
        snapshot.histograms.get(name).map_or(0.0, |h| h.mean() / 1e6)
    };
    let capture = mean_ms("core.checkpoint_capture_ns");
    let write = mean_ms("serve.checkpoint_write_ns");
    let fsync = mean_ms("serve.checkpoint_fsync_ns");
    println!(
        "window checkpoints: {recorded} recorded, mean {:.2} ms each (capture {capture:.2} + write {write:.2} + fsync {fsync:.2})",
        capture + write + fsync
    );
}
