//! ECO warm-start tests over a real loopback socket: an overhead
//! re-spin of the same circuit misses the result cache (the key hashes
//! `c`) but checks the previous job's solved-instance memo out of the
//! warm pool, the served payloads stay bit-identical to direct cold flow
//! calls, and the memo counters show up in the metrics exposition.

use retime_liberty::EdlOverhead;
use retime_serve::job::{execute, prepare, resolve_circuit, CircuitRef, InputFormat, JobSpec};
use retime_serve::json::Json;
use retime_serve::{Client, Server, ServerConfig};
use retime_sta::DelayModel;
use retime_verify::FlowKind;

/// Parses the value of a single-sample Prometheus counter family out of
/// the exposition text, summing across labels.
fn counter_total(metrics: &str, family: &str) -> u64 {
    metrics
        .lines()
        .filter(|l| l.starts_with(family) && !l.starts_with('#'))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<u64>().ok())
        .sum()
}

#[test]
fn overhead_respin_checks_out_the_memo_bit_identically() {
    let handle = Server::spawn(ServerConfig {
        workers: 1, // serialize jobs so each re-spin sees the parked memo
        queue_bound: 16,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    // The ECO scenario: one circuit, one flow, three overhead re-spins.
    let mut served = Vec::new();
    for c in ["low", "medium", "high"] {
        let reply = client.submit_suite("s1488", "grar", c).expect("submit");
        assert_eq!(
            reply.get("ok"),
            Some(&Json::Bool(true)),
            "submit rejected: {}",
            reply.render()
        );
        // Every re-spin is a genuine cache miss — `c` is part of the key.
        assert_eq!(reply.get("cached"), Some(&Json::Bool(false)));
        let id = reply.get("id").and_then(Json::as_u64).expect("job id");
        let result = client.wait_result(id).expect("result");
        assert_eq!(result.get("status").and_then(Json::as_str), Some("done"));
        served.push(result.get("result").expect("payload").render());
    }

    // Warm re-use never leaks into results: every served payload is
    // bit-identical to a direct cold flow call at that overhead.
    let lib = retime_liberty::Library::fdsoi28();
    for (payload, c) in
        served
            .iter()
            .zip([EdlOverhead::LOW, EdlOverhead::MEDIUM, EdlOverhead::HIGH])
    {
        let spec = JobSpec {
            circuit: CircuitRef::Suite("s1488".to_string()),
            flow: FlowKind::Grar,
            overhead: c,
            model: DelayModel::PathBased,
            clock: None,
            verify: false,
            format: InputFormat::Bench,
            convert: false,
        };
        let circuit = resolve_circuit(&spec.circuit, &lib).expect("resolves");
        let prepared = prepare(&spec, &circuit, &lib);
        let direct = execute(&prepared.key_config, &circuit, &lib).expect("direct flow call");
        let direct_json = retime_serve::json::parse(&direct.payload).expect("payload parses");
        assert_eq!(payload, &direct_json.render(), "c = {}", c.value());
    }

    let metrics = client.metrics_text().expect("metrics");
    // Re-spins two and three checked a memo out of the pool…
    assert_eq!(
        counter_total(&metrics, "retime_serve_warm_resumed_jobs_total"),
        2,
        "{metrics}"
    );
    // …and every job's solve went through a memo: a hit when the
    // overhead left the instance unchanged, a cold solve otherwise (the
    // first job always solves cold).
    let hits = counter_total(&metrics, "retime_serve_warm_hits_total");
    let cold = counter_total(&metrics, "retime_serve_warm_cold_solves_total");
    assert!(cold >= 1, "{metrics}");
    assert_eq!(hits + cold, 3, "{metrics}");
    // The parked memo shows in the pool gauge.
    assert!(
        counter_total(&metrics, "retime_serve_warm_pool_entries") >= 1,
        "{metrics}"
    );

    client.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn distinct_clocks_do_not_share_a_warm_slot() {
    let handle = Server::spawn(ServerConfig {
        workers: 1,
        queue_bound: 16,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    // Same tiny inline circuit, two different clock overrides: the
    // clock changes the region pre-division (instance structure), so
    // the second job must *not* check out the first one's memo.
    let netlist = "INPUT(a)\\nOUTPUT(z)\\nq = DFF(a)\\ng = NOT(q)\\nz = NOT(g)\\n";
    for clock in ["2.0", "4.0"] {
        let reply = client
            .request_line(&format!(
                r#"{{"cmd":"submit","netlist":"{netlist}","flow":"grar","clock":{clock}}}"#
            ))
            .expect("submit");
        assert_eq!(
            reply.get("ok"),
            Some(&Json::Bool(true)),
            "{}",
            reply.render()
        );
        let id = reply.get("id").and_then(Json::as_u64).expect("job id");
        let result = client.wait_result(id).expect("result");
        assert_eq!(
            result.get("status").and_then(Json::as_str),
            Some("done"),
            "{}",
            result.render()
        );
    }

    let metrics = client.metrics_text().expect("metrics");
    assert_eq!(
        counter_total(&metrics, "retime_serve_warm_resumed_jobs_total"),
        0,
        "{metrics}"
    );
    assert_eq!(
        counter_total(&metrics, "retime_serve_warm_cold_solves_total"),
        2,
        "{metrics}"
    );

    client.shutdown().expect("shutdown");
    handle.wait();
}
