//! End-to-end drills of the benchmark service over real sockets.
//!
//! Every server binds port 0 and every store uses a unique temp
//! directory, so parallel `cargo test` runs never collide.

use picbench_core::{Campaign, CampaignEvent};
use picbench_server::client::ApiClient;
use picbench_server::server::{PicbenchServer, ServerConfig, ServerHandle};
use picbench_server::wire;
use picbench_synthllm::ModelProfile;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

fn start_default() -> ServerHandle {
    PicbenchServer::start(ServerConfig::default()).expect("server starts")
}

fn unique_temp_dir(tag: &str) -> PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "picbench-server-test-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ))
}

/// The canonical small submission used across these drills.
fn small_campaign_body(seed: u64) -> String {
    // Restrictions off and several samples so that some pass syntax and
    // run real simulations — that is what populates the shared cache
    // with re-servable entries.
    format!(
        r#"{{"problems": ["mzi-ps", "mzm"], "models": ["GPT-4"], "samples_per_problem": 8,
            "k_values": [1], "feedback_iters": [0, 1], "seed": {seed}, "restrictions": false}}"#
    )
}

fn submit(client: &ApiClient, body: &str) -> String {
    let response = client
        .request("POST", "/v1/campaigns", Some(body))
        .expect("submit");
    assert_eq!(response.status, 201, "unexpected: {}", response.body);
    response
        .json()
        .expect("json body")
        .get("id")
        .and_then(|v| v.as_str().map(String::from))
        .expect("campaign id")
}

fn stream_to_end(client: &ApiClient, id: &str) -> Vec<String> {
    let stream = client
        .open_stream(&format!("/v1/campaigns/{id}/events"))
        .expect("open stream");
    assert_eq!(stream.status, 200);
    stream.collect_lines().expect("drain stream")
}

/// The same campaign run in process, events captured through the same
/// wire encoding — the reference byte sequence a correct server must
/// reproduce.
fn in_process_reference(seed: u64) -> Vec<String> {
    let lines = Arc::new(Mutex::new(Vec::<String>::new()));
    let sink = Arc::clone(&lines);
    let campaign = Campaign::builder()
        .problem(picbench_problems::find("mzi-ps").unwrap())
        .problem(picbench_problems::find("mzm").unwrap())
        .profiles(&[ModelProfile::gpt4()])
        .samples_per_problem(8)
        .k_values([1])
        .feedback_iters([0, 1])
        .seed(seed)
        .restrictions(false)
        .threads(1)
        .observer(Arc::new(move |event: &CampaignEvent| {
            sink.lock().unwrap().push(wire::encode_event(event));
        }))
        .build()
        .unwrap();
    campaign.run();
    let captured = lines.lock().unwrap().clone();
    captured
}

#[test]
fn streamed_events_are_byte_identical_to_in_process_run() {
    let server = start_default();
    let client = ApiClient::new(server.addr());

    let id = submit(&client, &small_campaign_body(41));
    let streamed = stream_to_end(&client, &id);
    let reference = in_process_reference(41);
    assert_eq!(
        streamed, reference,
        "server stream must be byte-identical to the in-process observer sequence"
    );

    // Satellite: every streamed line round-trips through the codec.
    for line in &streamed {
        let event = wire::decode_event(line).expect("line decodes");
        assert_eq!(&wire::encode_event(&event), line);
    }

    // A late reader replays the identical byte sequence.
    assert_eq!(stream_to_end(&client, &id), reference);

    let status = client
        .request("GET", &format!("/v1/campaigns/{id}"), None)
        .unwrap();
    let status = status.json().unwrap();
    assert_eq!(
        status.get("state").and_then(|v| v.as_str()),
        Some("finished")
    );

    server.shutdown();
}

#[test]
fn custom_problem_sets_are_registered_and_runnable() {
    let server = start_default();
    let client = ApiClient::new(server.addr());

    let set_json = picbench_problems::problems_to_json(&[
        picbench_problems::find("mzi-ps").unwrap(),
        picbench_problems::find("mzm").unwrap(),
    ]);
    let created = client
        .request("POST", "/v1/problem-sets", Some(&set_json))
        .unwrap();
    assert_eq!(created.status, 201, "{}", created.body);
    let created = created.json().unwrap();
    let set_id = created
        .get("id")
        .and_then(|v| v.as_str())
        .unwrap()
        .to_string();
    assert_eq!(
        created
            .get("problems")
            .and_then(|v| v.as_array())
            .map(<[_]>::len),
        Some(2)
    );

    let body = format!(
        r#"{{"problem_set": "{set_id}", "models": ["GPT-4"], "samples_per_problem": 1,
            "k_values": [1], "feedback_iters": [0], "seed": 7}}"#
    );
    let id = submit(&client, &body);
    let lines = stream_to_end(&client, &id);
    let last = wire::decode_event(lines.last().unwrap()).unwrap();
    match last {
        CampaignEvent::CampaignFinished {
            cells_completed,
            cells_total,
            cancelled,
        } => {
            assert_eq!((cells_completed, cells_total, cancelled), (2, 2, false));
        }
        other => panic!("stream must end in campaign_finished, got {other:?}"),
    }

    // Validation failures are typed 400s, not sessions.
    for bad in [
        r#"{"problems": ["mzi-ps"], "models": ["no-such-model"]}"#,
        r#"{"problems": ["no-such-problem"], "models": ["GPT-4"]}"#,
        r#"{"problem_set": "ps-none", "models": ["GPT-4"]}"#,
        r#"{"models": ["GPT-4"]}"#,
        "not json",
    ] {
        let response = client.request("POST", "/v1/campaigns", Some(bad)).unwrap();
        assert_eq!(response.status, 400, "{bad} -> {}", response.body);
    }
    let missing = client.request("GET", "/v1/campaigns/c-999", None).unwrap();
    assert_eq!(missing.status, 404);
    let bad_route = client.request("GET", "/v1/nope", None).unwrap();
    assert_eq!(bad_route.status, 404);

    server.shutdown();
}

#[test]
fn cancellation_yields_a_well_formed_partial_stream() {
    let server = start_default();
    let client = ApiClient::new(server.addr());

    // Paced responses keep the campaign alive long enough to observe it
    // mid-flight; four cells so a cancel after the first leaves work
    // provably undone.
    let body = r#"{"problems": ["mzi-ps", "mzm"], "models": ["GPT-4"],
        "samples_per_problem": 2, "k_values": [1], "feedback_iters": [0, 1],
        "seed": 11, "pace_ms": 40}"#;
    let id = submit(&client, body);

    let mut stream = client
        .open_stream(&format!("/v1/campaigns/{id}/events"))
        .unwrap();
    let mut lines = Vec::new();
    // Read until the first cell completes, then cancel.
    loop {
        let line = stream.next_line().unwrap().expect("stream ended early");
        let is_cell_finished = matches!(
            wire::decode_event(&line).expect("well-formed line"),
            CampaignEvent::CellFinished { .. }
        );
        lines.push(line);
        if is_cell_finished {
            break;
        }
    }
    let cancelled = client
        .request("DELETE", &format!("/v1/campaigns/{id}"), None)
        .unwrap();
    assert_eq!(cancelled.status, 202);

    // Drain: the stream stays line-well-formed to its end.
    while let Some(line) = stream.next_line().unwrap() {
        lines.push(line);
    }
    let events: Vec<CampaignEvent> = lines
        .iter()
        .map(|l| wire::decode_event(l).expect("every line decodes"))
        .collect();
    match events.last().unwrap() {
        CampaignEvent::CampaignFinished {
            cells_completed,
            cells_total,
            cancelled,
        } => {
            assert!(*cancelled, "outcome must record the cancellation");
            assert!(
                cells_completed < cells_total,
                "cancel must land before the matrix finished ({cells_completed}/{cells_total})"
            );
        }
        other => panic!("partial stream must still end in campaign_finished, got {other:?}"),
    }

    let status = client
        .request("GET", &format!("/v1/campaigns/{id}"), None)
        .unwrap();
    assert_eq!(
        status.json().unwrap().get("state").and_then(|v| v.as_str()),
        Some("cancelled")
    );

    server.shutdown();
}

#[test]
fn tenants_share_the_cache_but_not_counters_or_sessions() {
    let server = start_default();
    let alice = ApiClient::new(server.addr()).with_tenant("alice");
    let bob = ApiClient::new(server.addr()).with_tenant("bob");

    let a_id = submit(&alice, &small_campaign_body(5));
    let a_lines = stream_to_end(&alice, &a_id);
    let b_id = submit(&bob, &small_campaign_body(5));
    let b_lines = stream_to_end(&bob, &b_id);

    // Identical submissions produce identical result streams; only the
    // cache-stats line may differ (bob's run is served from alice's
    // warmed cache, and each tenant sees only its own counters).
    let results_only = |lines: &[String]| -> Vec<String> {
        lines
            .iter()
            .filter(|l| {
                !matches!(
                    wire::decode_event(l).expect("line decodes"),
                    CampaignEvent::CacheStats(_)
                )
            })
            .cloned()
            .collect()
    };
    assert_eq!(results_only(&a_lines), results_only(&b_lines));

    let stats_of = |lines: &[String]| {
        lines
            .iter()
            .find_map(|l| match wire::decode_event(l).unwrap() {
                CampaignEvent::CacheStats(stats) => Some(stats),
                _ => None,
            })
            .expect("stream carries cache stats")
    };
    let a_stats = stats_of(&a_lines);
    let b_stats = stats_of(&b_lines);
    assert!(a_stats.misses > 0, "first tenant populates the cache");
    assert_eq!(b_stats.misses, 0, "identical rerun is fully cache-served");
    assert!(b_stats.response_hits > 0);

    // /v1/stats: per-tenant scopes partition the global counters.
    let stats = ApiClient::new(server.addr())
        .request("GET", "/v1/stats", None)
        .unwrap()
        .json()
        .unwrap();
    let counter = |v: &picbench_netlist::json::Value, path: &[&str]| -> u64 {
        let mut v = v.clone();
        for key in path {
            v = v
                .get(key)
                .cloned()
                .unwrap_or_else(|| panic!("missing {key}"));
        }
        v.as_f64().unwrap() as u64
    };
    for field in ["misses", "response_hits", "report_hits", "sim_hits"] {
        assert_eq!(
            counter(&stats, &["cache", field]),
            counter(&stats, &["tenants", "alice", field])
                + counter(&stats, &["tenants", "bob", field]),
            "global '{field}' must equal the sum over tenant scopes"
        );
    }
    assert_eq!(counter(&stats, &["sessions", "finished"]), 2);

    // Tenancy is structural: foreign sessions look absent.
    assert_eq!(
        bob.request("GET", &format!("/v1/campaigns/{a_id}"), None)
            .unwrap()
            .status,
        404
    );
    assert_eq!(
        alice
            .request("DELETE", &format!("/v1/campaigns/{b_id}"), None)
            .unwrap()
            .status,
        404
    );

    server.shutdown();
}

#[test]
fn deeply_nested_problem_set_is_a_400_and_the_server_keeps_serving() {
    let server = start_default();
    let client = ApiClient::new(server.addr());
    // 200 KB of nested brackets, far under the body limit: before the
    // parser's nesting cap this overflowed a worker's stack and aborted
    // the whole process.
    let hostile = "[".repeat(200 * 1024);
    let refused = client
        .request("POST", "/v1/problem-sets", Some(&hostile))
        .unwrap();
    assert_eq!(refused.status, 400, "{}", refused.body);
    assert!(refused.body.contains("nesting"), "{}", refused.body);
    let stats = client.request("GET", "/v1/stats", None).unwrap();
    assert_eq!(stats.status, 200, "{}", stats.body);
    server.shutdown();
}

#[test]
fn capacity_is_enforced_with_429() {
    let server = PicbenchServer::start(ServerConfig {
        max_sessions: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let client = ApiClient::new(server.addr());

    let body = r#"{"problems": ["mzi-ps"], "models": ["GPT-4"], "samples_per_problem": 2,
        "k_values": [1], "feedback_iters": [0], "seed": 3, "pace_ms": 40}"#;
    let id = submit(&client, body);
    let refused = client.request("POST", "/v1/campaigns", Some(body)).unwrap();
    assert_eq!(refused.status, 429);

    client
        .request("DELETE", &format!("/v1/campaigns/{id}"), None)
        .unwrap();
    // Shutdown drains the cancelled session cleanly.
    server.shutdown();
}

#[test]
fn store_tier_counters_surface_in_stats() {
    let dir = unique_temp_dir("store");
    let server = PicbenchServer::start(ServerConfig {
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let client = ApiClient::new(server.addr());

    let id = submit(&client, &small_campaign_body(13));
    stream_to_end(&client, &id);

    let stats = client
        .request("GET", "/v1/stats", None)
        .unwrap()
        .json()
        .unwrap();
    let writes = stats
        .get("store")
        .and_then(|s| s.get("writes"))
        .and_then(|v| v.as_f64())
        .unwrap();
    assert!(writes > 0.0, "campaign evaluations must hit the disk tier");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_drains_inflight_sessions() {
    let server = start_default();
    let addr = server.addr();
    let client = ApiClient::new(addr);

    let body = r#"{"problems": ["mzi-ps"], "models": ["GPT-4"], "samples_per_problem": 2,
        "k_values": [1], "feedback_iters": [0], "seed": 23, "pace_ms": 10}"#;
    let id = submit(&client, body);
    // Open the stream before shutdown begins, then drain it from a
    // separate thread while the server winds down.
    let stream = client
        .open_stream(&format!("/v1/campaigns/{id}/events"))
        .unwrap();
    assert_eq!(stream.status, 200);
    let reader = std::thread::spawn(move || stream.collect_lines().unwrap());
    // Shutdown must wait for the campaign and its stream, not cut them.
    server.shutdown();
    let lines = reader.join().unwrap();
    let last = wire::decode_event(lines.last().unwrap()).unwrap();
    assert!(matches!(
        last,
        CampaignEvent::CampaignFinished {
            cancelled: false,
            ..
        }
    ));
}
