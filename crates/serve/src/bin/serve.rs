//! `retime-serve` — start the retiming daemon.
//!
//! ```text
//! retime-serve [--addr 127.0.0.1:0] [--workers N] [--queue-bound N]
//!              [--cache-dir DIR] [--cache-max-bytes N]
//!              [--memory-entries N] [--reactors N] [--verbose]
//! ```
//!
//! Prints the bound address on stdout (one line, flushed) so scripts can
//! bind port 0 and discover the kernel-chosen port, then serves until a
//! client sends `shutdown`.
//!
//! `--cache-dir` turns on the persistent content-addressed result cache:
//! finished payloads are written crash-safely (temp + fsync + atomic
//! rename) under sharded paths, recovered and re-served bit-identical
//! across restarts, and evicted LRU once the tier exceeds
//! `--cache-max-bytes` (default 1 GiB).
//!
//! `--cache-gc` (with `--cache-dir`) compacts the directory offline
//! instead of serving: orphaned `.tmp-*` leftovers and entries of
//! another cache-key version are deleted, every entry's digest is
//! re-verified (corrupt ones are quarantined), and a one-line report is
//! printed. Run it only while no daemon is serving
//! from that directory.
//!
//! The environment is read once, into a `retime_bench::RunConfig`.
//! With `RETIME_TRACE=1` (or `RETIME_TRACE_OUT=trace.json`) the daemon
//! records per-job spans — queue-wait vs execute, linked by job id — and
//! writes the Chrome-trace file plus a self-time profile on shutdown,
//! alongside the Prometheus `metrics` the protocol already exposes.
//! `RETIME_SERVE_CACHE_FAULT=abort-before-rename` arms the disk cache's
//! crash-recovery fault hook.

use std::io::Write;

use retime_bench::RunConfig;
use retime_serve::{Server, ServerConfig};

fn main() {
    let run = RunConfig::from_env();
    let trace = retime_trace::TraceSession::with_config(run.trace.clone());
    let mut config = ServerConfig::default();
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut cache_max_bytes: u64 = 1 << 30;
    let mut cache_gc = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = expect_value(&mut args, "--addr"),
            "--workers" => config.workers = expect_parsed(&mut args, "--workers"),
            "--queue-bound" => config.queue_bound = expect_parsed(&mut args, "--queue-bound"),
            "--cache-dir" => cache_dir = Some(expect_value(&mut args, "--cache-dir").into()),
            "--cache-max-bytes" => {
                cache_max_bytes = expect_parsed(&mut args, "--cache-max-bytes") as u64;
            }
            "--memory-entries" => {
                config.cache.memory_entries = expect_parsed(&mut args, "--memory-entries");
            }
            "--cache-gc" => cache_gc = true,
            "--reactors" => config.reactors = expect_parsed(&mut args, "--reactors"),
            "--verbose" | "-v" => config.verbose = true,
            "--help" | "-h" => {
                println!(
                    "usage: retime-serve [--addr HOST:PORT] [--workers N] \
                     [--queue-bound N] [--cache-dir DIR] [--cache-max-bytes N] \
                     [--cache-gc] [--memory-entries N] [--reactors N] [--verbose]"
                );
                return;
            }
            other => {
                eprintln!("retime-serve: unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }

    if cache_gc {
        let Some(dir) = cache_dir else {
            eprintln!("retime-serve: --cache-gc needs --cache-dir DIR");
            std::process::exit(2);
        };
        match retime_serve::disk::gc(&dir) {
            Ok(report) => {
                println!("retime-serve cache-gc {}: {report}", dir.display());
                trace.finish();
                return;
            }
            Err(e) => {
                eprintln!("retime-serve: cache-gc failed: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(dir) = cache_dir {
        config.cache.disk = Some(retime_serve::DiskCacheConfig {
            dir,
            max_bytes: cache_max_bytes,
            cache_fault: run.cache_fault,
        });
    }

    let handle = match Server::spawn(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("retime-serve: startup failed: {e}");
            std::process::exit(1);
        }
    };
    println!("retime-serve listening on {}", handle.addr());
    std::io::stdout().flush().ok();
    handle.wait();
    trace.finish();
}

fn expect_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("retime-serve: {flag} needs a value");
        std::process::exit(2);
    })
}

fn expect_parsed(args: &mut impl Iterator<Item = String>, flag: &str) -> usize {
    let raw = expect_value(args, flag);
    raw.parse().unwrap_or_else(|_| {
        eprintln!("retime-serve: {flag} wants a non-negative integer, got {raw:?}");
        std::process::exit(2);
    })
}
