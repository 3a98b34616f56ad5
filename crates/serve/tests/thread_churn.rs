//! Connection churn must not grow the server's thread count: every
//! connection is served by the fixed reactor threads.
//!
//! The check counts the whole process's threads, so this file holds
//! exactly one test. Sharing a test binary with other server tests made
//! it flaky: their servers start and stop threads in parallel with the
//! measurement.

use retime_serve::{Client, Server, ServerConfig};

fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

#[test]
fn connection_churn_grows_no_threads() {
    let handle = Server::spawn(ServerConfig::default()).expect("spawn server");
    let addr = handle.addr().to_string();
    // Warm once so lazily-spawned machinery (pool, reactors) exists.
    Client::connect(&addr)
        .expect("warm connect")
        .metrics_text()
        .expect("warm metrics");
    let before = thread_count();

    for _ in 0..40 {
        let mut client = Client::connect(&addr).expect("churn connect");
        client.metrics_text().expect("churn metrics");
    }
    let after = thread_count();
    assert_eq!(
        after, before,
        "40 connections must reuse the fixed reactor threads"
    );

    handle.shutdown();
    handle.wait();
}
