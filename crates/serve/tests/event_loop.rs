//! Hostile-client battery for the nonblocking event loop: dribbled
//! bytes, overlong lines, stalled readers, and half-open disconnects
//! mid-job. A misbehaving peer may only ever cost the server that one
//! connection — never a thread, a stall, or a leak. (Connection churn
//! lives in `thread_churn.rs`: it counts the process's threads, so it
//! needs a test binary of its own.)

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use retime_serve::json::Json;
use retime_serve::{Client, ConnLimits, Server, ServerConfig, ServerHandle};

const NETLIST: &str = "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nq = DFF(g)\ng = AND(a, b)\nz = OR(g, q)\n";

fn submit_line(netlist: &str) -> String {
    let escaped = netlist.replace('\n', "\\n");
    format!("{{\"cmd\":\"submit\",\"netlist\":\"{escaped}\",\"flow\":\"base\"}}\n")
}

fn spawn(config: ServerConfig) -> (ServerHandle, String) {
    let handle = Server::spawn(config).expect("spawn server");
    let addr = handle.addr().to_string();
    (handle, addr)
}

/// Polls the metrics endpoint until `pred` holds or the deadline hits.
fn wait_for_metrics(addr: &str, what: &str, pred: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut client = Client::connect(addr).expect("connect for metrics");
        let text = client.metrics_text().expect("metrics");
        if pred(&text) {
            return text;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last metrics:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn byte_at_a_time_submission_still_parses() {
    let (handle, addr) = spawn(ServerConfig::default());
    let stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);

    // Dribble the submit one byte per write: the reactor must buffer
    // partial lines across arbitrarily many reads before dispatching.
    for byte in submit_line(NETLIST).as_bytes() {
        writer.write_all(std::slice::from_ref(byte)).expect("write");
        writer.flush().expect("flush");
    }
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("submit reply");
    let v = retime_serve::json::parse(&reply).expect("submit json");
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "reply: {reply}");
    let id = v.get("id").and_then(Json::as_u64).expect("job id");

    // Same treatment for the waited result.
    for byte in format!("{{\"cmd\":\"result\",\"id\":{id},\"wait\":true}}\n").as_bytes() {
        writer.write_all(std::slice::from_ref(byte)).expect("write");
        writer.flush().expect("flush");
    }
    let mut result = String::new();
    reader.read_line(&mut result).expect("result reply");
    let v = retime_serve::json::parse(&result).expect("result json");
    assert_eq!(
        v.get("status").and_then(Json::as_str),
        Some("done"),
        "result: {result}"
    );

    drop((reader, writer));
    handle.shutdown();
    handle.wait();
}

#[test]
fn overlong_line_gets_structured_error_then_close() {
    let config = ServerConfig {
        limits: ConnLimits {
            max_line_bytes: 1024,
            ..ConnLimits::default()
        },
        ..ServerConfig::default()
    };
    let (handle, addr) = spawn(config);

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    // 4 KiB of not-a-line: no newline ever arrives, so only the cap can
    // stop the buffer growing.
    writer.write_all(&[b'x'; 4096]).expect("write junk");
    writer.flush().expect("flush");

    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("error reply");
    assert_eq!(
        reply.trim_end(),
        r#"{"ok":false,"error":"request line too long"}"#,
        "hostile line must get a structured rejection"
    );
    // ... and then the connection is closed, not left to fill further.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "no bytes after the rejection");

    // The server itself is unaffected.
    let mut client = Client::connect(&addr).expect("connect after hostility");
    assert!(client.metrics_text().is_ok());
    handle.shutdown();
    handle.wait();
}

#[test]
fn stalled_reader_is_disconnected_and_counted() {
    // A small write cap — big enough for any single reply, far too
    // small for a backlog — so the stall trips quickly once the kernel
    // socket buffers stop absorbing replies.
    let config = ServerConfig {
        limits: ConnLimits {
            write_buf_cap: 64 * 1024,
            ..ConnLimits::default()
        },
        ..ServerConfig::default()
    };
    let (handle, addr) = spawn(config);

    // The hostile client requests metrics 2000 times and never reads a
    // byte. Replies are a few KiB each — far more than the kernel
    // buffers plus the 64 KiB server-side cap can hold.
    let stalled = TcpStream::connect(&addr).expect("connect stalled");
    let mut writer = stalled.try_clone().expect("clone stream");
    let mut write_failed = false;
    for _ in 0..2000 {
        if writer.write_all(b"{\"cmd\":\"metrics\"}\n").is_err() {
            // Server already dropped us mid-loop: equally fine.
            write_failed = true;
            break;
        }
    }
    let _ = writer.flush();

    // A polite client stays responsive the whole time and eventually
    // observes the disconnect counter tick.
    let text = wait_for_metrics(&addr, "slow-client disconnect", |text| {
        text.contains("retime_serve_slow_client_disconnects_total 1\n")
    });
    assert!(
        text.contains("# TYPE retime_serve_slow_client_disconnects_total counter"),
        "family header exported: {text}"
    );
    let _ = write_failed; // either exit path proves the disconnect
    drop(stalled);
    handle.shutdown();
    handle.wait();
}

#[test]
fn half_open_disconnect_mid_job_cleans_the_waiter() {
    let (handle, addr) = spawn(ServerConfig::default());

    // Hold the worker pool so the job is guaranteed still pending when
    // the hostile client parks a waiter and vanishes.
    let mut control = Client::connect(&addr).expect("connect control");
    let reply = control.request_line("{\"cmd\":\"pause\"}").expect("pause");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));

    let id = {
        let stream = TcpStream::connect(&addr).expect("connect hostile");
        let mut writer = stream.try_clone().expect("clone stream");
        writer
            .write_all(submit_line(NETLIST).as_bytes())
            .expect("submit");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("submit reply");
        let v = retime_serve::json::parse(&reply).expect("submit json");
        assert_eq!(
            v.get("status").and_then(Json::as_str),
            Some("queued"),
            "pool is paused, job must queue: {reply}"
        );
        let id = v.get("id").and_then(Json::as_u64).expect("job id");
        // Park a waiter on the pending job, then go half-open: shut down
        // our write side and drop without ever reading the result.
        writer
            .write_all(format!("{{\"cmd\":\"result\",\"id\":{id},\"wait\":true}}\n").as_bytes())
            .expect("waited result");
        std::thread::sleep(Duration::from_millis(50));
        stream.shutdown(Shutdown::Both).expect("half-open shutdown");
        id
    };

    // The reactor must notice the hang-up and prune the parked waiter;
    // the open-connections gauge drops back to the control client alone.
    wait_for_metrics(&addr, "hostile connection reaped", |text| {
        text.lines().any(|l| {
            l.strip_prefix("retime_serve_open_connections ")
                .and_then(|n| n.trim().parse::<f64>().ok())
                .is_some_and(|n| n <= 2.0)
        })
    });

    // Release the pool: the worker completes the job and injects a wake
    // for a connection that no longer exists — which must be a no-op,
    // not a panic or a stall.
    let reply = control
        .request_line("{\"cmd\":\"resume\"}")
        .expect("resume");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
    let result = control.wait_result(id).expect("result after resume");
    assert_eq!(
        result.get("status").and_then(Json::as_str),
        Some("done"),
        "abandoned job still completes: {}",
        result.render()
    );

    drop(control);
    handle.shutdown();
    handle.wait();
}
