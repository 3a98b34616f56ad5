//! Crash-recovery battery for the persistent disk cache: kill the
//! daemon *between* the temp-file write and the atomic rename, restart,
//! and prove that every committed entry survives bit-identical while
//! the torn write is quarantined and counted.
//!
//! The kill is deterministic, not a race: `RETIME_SERVE_CACHE_FAULT=
//! abort-before-rename` makes [`retime_serve::disk`] call
//! `std::process::abort()` after the temp file is written and fsynced
//! but before it is renamed into place — exactly the window a real
//! crash would have to hit to leave a torn file.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};

use retime_serve::json::{parse, Json};
use retime_serve::{execute, prepare, resolve_circuit, CircuitRef, Client, JobSpec};

/// Two tiny inline netlists (fast to retime) plus a third distinct one
/// whose store will be the torn write.
const NETLISTS: [&str; 3] = [
    "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nq = DFF(g)\ng = AND(a, b)\nz = OR(g, q)\n",
    "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nq = DFF(g)\ng = OR(a, b)\nz = AND(g, q)\n",
    "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nq = DFF(g)\ng = NAND(a, b)\nz = OR(g, q)\n",
];

fn submit_line(netlist: &str) -> String {
    let escaped = netlist.replace('\n', "\\n");
    format!("{{\"cmd\":\"submit\",\"netlist\":\"{escaped}\",\"flow\":\"base\"}}")
}

/// The payload digest a direct in-process run of the same spec yields.
fn direct_sha(netlist: &str) -> String {
    let lib = retime_liberty::Library::fdsoi28();
    let spec = JobSpec::from_json(&parse(&submit_line(netlist)).unwrap()).unwrap();
    let resolved = resolve_circuit(
        &CircuitRef::Inline {
            name: "inline".to_string(),
            text: netlist.to_string(),
        },
        &lib,
    )
    .unwrap();
    let prepared = prepare(&spec, &resolved, &lib);
    execute(&prepared.key_config, &resolved, &lib)
        .unwrap()
        .payload_sha256
}

struct Daemon {
    child: Child,
    addr: String,
}

/// Starts the real `retime-serve` binary on a fresh port with the given
/// cache dir, reading the bound address off its banner line.
fn start_daemon(cache_dir: &Path, fault: Option<&str>) -> Daemon {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_retime-serve"));
    cmd.args(["--addr", "127.0.0.1:0", "--workers", "1", "--cache-dir"])
        .arg(cache_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    match fault {
        Some(mode) => cmd.env("RETIME_SERVE_CACHE_FAULT", mode),
        None => cmd.env_remove("RETIME_SERVE_CACHE_FAULT"),
    };
    let mut child = cmd.spawn().expect("spawn retime-serve");
    let stdout = child.stdout.take().expect("daemon stdout");
    let mut banner = String::new();
    BufReader::new(stdout)
        .read_line(&mut banner)
        .expect("read banner");
    let addr = banner
        .rsplit(' ')
        .next()
        .expect("banner has address")
        .trim()
        .to_string();
    Daemon { child, addr }
}

impl Daemon {
    fn client(&self) -> Client {
        Client::connect(&self.addr).expect("connect to daemon")
    }

    fn shutdown(mut self) {
        let _ = self.client().shutdown();
        let _ = self.child.wait();
    }
}

/// Submits a netlist and waits it out; returns the `result` reply.
fn run_job(client: &mut Client, netlist: &str) -> Json {
    let reply = client.request_line(&submit_line(netlist)).expect("submit");
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "submit rejected: {}",
        reply.render()
    );
    let id = reply.get("id").and_then(Json::as_u64).expect("job id");
    client.wait_result(id).expect("result")
}

fn count_files(dir: &Path, pred: impl Fn(&str) -> bool) -> usize {
    let mut n = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if pred(&path.file_name().unwrap_or_default().to_string_lossy()) {
                n += 1;
            }
        }
    }
    n
}

#[test]
fn torn_write_is_quarantined_and_survivors_serve_bit_identical() {
    let cache_dir = std::env::temp_dir().join(format!("retime-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    std::fs::create_dir_all(&cache_dir).expect("create cache dir");

    // Phase 1: populate the disk cache with two committed entries.
    let daemon = start_daemon(&cache_dir, None);
    let mut client = daemon.client();
    let mut expected = Vec::new();
    for netlist in &NETLISTS[..2] {
        let result = run_job(&mut client, netlist);
        assert_eq!(
            result.get("status").and_then(Json::as_str),
            Some("done"),
            "populate job failed: {}",
            result.render()
        );
        expected.push(
            result
                .get("payload_sha256")
                .and_then(Json::as_str)
                .expect("payload digest")
                .to_string(),
        );
    }
    drop(client);
    daemon.shutdown();
    assert_eq!(
        count_files(&cache_dir, |name| name.ends_with(".entry")),
        2,
        "two committed entry files on disk"
    );

    // Phase 2: arm the fault and crash mid-store on a third job. The
    // abort fires after the temp write, before the rename — the process
    // dies with a torn `*.tmp-*` file on disk and no reply sent.
    let faulted = start_daemon(&cache_dir, Some("abort-before-rename"));
    {
        let mut client = faulted.client();
        let reply = client
            .request_line(&submit_line(NETLISTS[2]))
            .expect("submit to faulted daemon");
        let id = reply.get("id").and_then(Json::as_u64).expect("job id");
        // The daemon aborts while storing; the waited result never
        // arrives and the connection drops.
        let err = client.wait_result(id);
        assert!(err.is_err(), "daemon should have died mid-store: {err:?}");
    }
    let status = {
        let mut child = faulted.child;
        child.wait().expect("faulted daemon exits")
    };
    assert!(!status.success(), "faulted daemon must abort, not exit 0");
    assert_eq!(
        count_files(&cache_dir, |name| name.contains(".tmp-")),
        1,
        "the crash left exactly one torn temp file"
    );

    // Phase 3: restart clean. Recovery must re-admit the two committed
    // entries, quarantine the torn temp, and count both in the metrics.
    let recovered = start_daemon(&cache_dir, None);
    let mut client = recovered.client();
    let metrics = client.metrics_text().expect("metrics");
    assert!(
        metrics.contains("retime_serve_cache_recovered_total 2\n"),
        "recovered counter: {metrics}"
    );
    assert!(
        metrics.contains("retime_serve_cache_discarded_total 1\n"),
        "discarded counter: {metrics}"
    );
    let quarantine = cache_dir.join("quarantine");
    assert_eq!(
        count_files(&quarantine, |name| name.contains(".tmp-")),
        1,
        "torn temp moved into quarantine/"
    );
    assert_eq!(
        count_files(&cache_dir, |name| name.contains(".tmp-")) - 1,
        0,
        "no torn temps outside quarantine/"
    );

    // Surviving entries serve from disk with zero solver work,
    // bit-identical to a direct in-process execute().
    for (netlist, want_sha) in NETLISTS[..2].iter().zip(&expected) {
        let result = run_job(&mut client, netlist);
        assert_eq!(
            result.get("status").and_then(Json::as_str),
            Some("done"),
            "recovered job failed: {}",
            result.render()
        );
        assert_eq!(
            result.get("solver_invocations").and_then(Json::as_u64),
            Some(0),
            "restart-warm hit must be solver-free: {}",
            result.render()
        );
        let got = result
            .get("payload_sha256")
            .and_then(Json::as_str)
            .expect("payload digest");
        assert_eq!(got, want_sha, "recovered payload diverged across restart");
        assert_eq!(
            *want_sha,
            direct_sha(netlist),
            "recovered payload diverged from direct execute()"
        );
    }
    let metrics = client.metrics_text().expect("metrics");
    assert!(
        metrics.contains("# TYPE retime_serve_cache_disk_hits_total counter"),
        "disk-hit family exported: {metrics}"
    );
    drop(client);
    recovered.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// The key this job had under the v3 scheme: the same fields, with the
/// derived clock named and no display name, and the canonical text,
/// behind the v3 preamble.
fn v3_key(netlist: &str) -> String {
    let lib = retime_liberty::Library::fdsoi28();
    let spec = JobSpec::from_json(&parse(&submit_line(netlist)).unwrap()).unwrap();
    let resolved = resolve_circuit(&spec.circuit, &lib).unwrap();
    let cfg = prepare(&spec, &resolved, &lib).key_config;
    retime_serve::sha256_hex(
        format!(
            "retime-serve-key-v3\nlib:{}\ncircuit:inline\nflow:{}\nc:{:016x}\nclock:derived\nmodel:{:?}\nverify:{}\nconvert:{}\n--\n{}",
            lib.name(),
            cfg.flow.name(),
            cfg.overhead.value().to_bits(),
            cfg.model,
            cfg.verify,
            cfg.convert,
            resolved.source_canonical,
        )
        .as_bytes(),
    )
}

/// A cache directory written under the v3 key scheme restarts with its
/// entry dropped — not re-admitted, not counted against the disk budget,
/// and never a hit (its payload is planted poisoned here) — and then
/// stores and serves the v4 entry.
#[test]
fn v3_entries_are_dropped_on_restart_and_v4_entries_replace_them() {
    use retime_serve::shard_rel_path;

    let cache_dir = std::env::temp_dir().join(format!("retime-v3-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let netlist = NETLISTS[0];
    let old_key = v3_key(netlist);
    let old_path = cache_dir.join(shard_rel_path(&old_key));
    {
        // An entry as v3 wrote it: a header without a key version.
        let poisoned = "{\"poisoned\":true}";
        let header = format!(
            "{{\"key\":\"{old_key}\",\"sha256\":\"{}\",\"len\":{},\"created_unix\":1}}\n",
            retime_serve::sha256_hex(poisoned.as_bytes()),
            poisoned.len(),
        );
        std::fs::create_dir_all(old_path.parent().unwrap()).unwrap();
        std::fs::write(&old_path, header + poisoned).expect("plant v3 entry");
    }

    let daemon = start_daemon(&cache_dir, None);
    let mut client = daemon.client();
    let metrics = client.metrics_text().expect("metrics");
    for line in [
        "retime_serve_cache_recovered_total 0\n",
        "retime_serve_cache_discarded_total 1\n",
        "retime_serve_cache_disk_entries 0\n",
        "retime_serve_cache_disk_bytes 0\n",
    ] {
        assert!(metrics.contains(line), "{line}: {metrics}");
    }
    assert!(!old_path.exists(), "the v3 entry is deleted");
    let reply = client.request_line(&submit_line(netlist)).expect("submit");
    assert_eq!(
        reply.get("cached"),
        Some(&Json::Bool(false)),
        "{}",
        reply.render()
    );
    let key = reply
        .get("key")
        .and_then(Json::as_str)
        .expect("key")
        .to_string();
    assert_ne!(key, old_key);
    let id = reply.get("id").and_then(Json::as_u64).expect("job id");
    let result = client.wait_result(id).expect("result");
    let sha = direct_sha(netlist);
    assert_eq!(
        result.get("payload_sha256").and_then(Json::as_str),
        Some(sha.as_str()),
        "{}",
        result.render()
    );
    drop(client);
    daemon.shutdown();
    assert!(
        cache_dir.join(shard_rel_path(&key)).is_file(),
        "the v4 entry is stored"
    );

    // After a restart the v4 entry is a disk hit.
    let restarted = start_daemon(&cache_dir, None);
    let mut client = restarted.client();
    let result = run_job(&mut client, netlist);
    assert_eq!(
        result.get("cached"),
        Some(&Json::Bool(true)),
        "{}",
        result.render()
    );
    assert_eq!(
        result.get("payload_sha256").and_then(Json::as_str),
        Some(sha.as_str())
    );
    drop(client);
    restarted.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}
