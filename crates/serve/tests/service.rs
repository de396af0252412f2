//! End-to-end service tests: cache semantics over the wire, deadline
//! enforcement, panic isolation, overload shedding, graceful drain.

use std::sync::atomic::Ordering;

use varitune_libchar::{generate_nominal, GenerateConfig};
use varitune_serve::{xxh64, Client, LibEntry, Request, RetryPolicy, ServeConfig, Server};
use varitune_trace::json::{self, Json};

/// Silences expected poison-job panic output while forwarding everything
/// else (test assertion failures stay visible). Installed at most once.
fn silence_poison_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.starts_with("poison job") {
                prev(info);
            }
        }));
    });
}

fn liberty_text() -> String {
    let lib = generate_nominal(&GenerateConfig::full());
    varitune_liberty::write_library(&lib).unwrap()
}

/// A distinct-content variant of `text`: renames the library. Parses to a
/// semantically identical library under a different content hash.
fn variant(text: &str, i: usize) -> String {
    text.replacen("library (", &format!("library (v{i}_"), 1)
}

/// Builds a request payload with the library embedded.
fn request(kind: &str, id: &str, library: &str, extra: &str) -> String {
    let mut out = String::with_capacity(library.len() + 256);
    out.push_str(&format!(
        "{{\"kind\":\"{kind}\",\"id\":\"{id}\",\"library\":"
    ));
    json::write_escaped(&mut out, library);
    out.push_str(extra);
    out.push('}');
    out
}

fn fast_config() -> ServeConfig {
    ServeConfig {
        workers: 4,
        ..ServeConfig::for_tests()
    }
}

fn ok_body(response: &str) -> Json {
    let root = json::parse(response).unwrap_or_else(|e| panic!("bad response {response}: {e}"));
    root.get("ok")
        .unwrap_or_else(|| panic!("expected ok response, got {response}"))
        .clone()
}

fn error_code(response: &str) -> String {
    varitune_serve::protocol::response_error_code(response)
        .unwrap_or_else(|| panic!("expected error response, got {response}"))
}

#[test]
fn a_full_library_decodes_byte_for_byte() {
    let text = liberty_text();
    let mut escaped = String::new();
    json::write_escaped(&mut escaped, &text);
    assert!(
        escaped.len() > text.len() + 2,
        "the library carries escapes"
    );
    let req = Request::parse(&request("sta", "full", &text, "")).unwrap();
    assert!(req.library == text, "decoded library differs from the text");
    assert_eq!(req.library_hash, xxh64(text.as_bytes()));
}

#[test]
fn concurrent_identical_requests_characterize_exactly_once() {
    let server = Server::start(fast_config()).unwrap();
    let addr = server.addr();
    let text = variant(&liberty_text(), 1);
    let payload = request("sta", "same", &text, ",\"mc_libraries\":3");
    let responses: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let payload = payload.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.call(&payload).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // All six answered identically, but the expensive characterization ran
    // exactly once (single flight).
    for r in &responses {
        assert_eq!(r, &responses[0]);
        ok_body(r);
    }
    assert_eq!(
        server.registry().characterizations.load(Ordering::Relaxed),
        1,
        "one distinct library hash, one characterization"
    );
    let _ = server.shutdown();
}

#[test]
fn cache_hits_are_bit_identical_to_cold_computes() {
    let server = Server::start(fast_config()).unwrap();
    let text = variant(&liberty_text(), 2);
    let mut client = Client::connect(server.addr()).unwrap();
    let payload = request("sta", "cold", &text, ",\"mc_libraries\":3");
    let cold = client.call(&payload).unwrap();
    let warm = client.call(&payload).unwrap();
    assert_eq!(cold, warm, "hit must be byte-identical to the cold compute");
    // And identical on a *fresh server* (no cache at all): responses are a
    // function of the request, not of cache state.
    let server2 = Server::start(fast_config()).unwrap();
    let mut client2 = Client::connect(server2.addr()).unwrap();
    let fresh = client2.call(&payload).unwrap();
    assert_eq!(cold, fresh);
    let _ = server.shutdown();
    let _ = server2.shutdown();
}

#[test]
fn quarantined_library_never_enters_the_positive_cache() {
    let server = Server::start(fast_config()).unwrap();
    let text = variant(&liberty_text(), 3);
    // Poison one pin capacitance: the validator flags the non-finite
    // value, so strict screening must reject the library.
    let at = text.find("capacitance : ").unwrap() + "capacitance : ".len();
    let end = text[at..].find(';').unwrap() + at;
    let mut sick = text.clone();
    sick.replace_range(at..end, "nan");
    assert_ne!(sick, text, "corruption applied");
    let mut client = Client::connect(server.addr()).unwrap();
    let payload = request("sta", "sick", &sick, ",\"mc_libraries\":3");
    let first = client.call(&payload).unwrap();
    assert_eq!(error_code(&first), "rejected");
    // The rejection is negatively cached: a resubmit answers from memory
    // (no second screening compute)...
    let (_, computes_before, _, _) = server.registry().libs.stats.snapshot();
    let second = client.call(&payload).unwrap();
    assert_eq!(first, second, "negative result is deterministic too");
    let (hits_after, computes_after, _, _) = server.registry().libs.stats.snapshot();
    assert_eq!(computes_after, computes_before, "no re-screening");
    assert!(hits_after >= 1, "served from the negative cache");
    // ...and the hash can never come back as a positive entry: no flow was
    // built, no characterization ran.
    let hash = xxh64(sick.as_bytes());
    let entry = server
        .registry()
        .libs
        .peek(&varitune_serve::registry::LibKey::new(
            hash,
            varitune_core::quarantine::Strictness::Strict,
        ))
        .expect("entry cached");
    assert!(matches!(entry, LibEntry::Rejected { .. }));
    assert_eq!(
        server.registry().characterizations.load(Ordering::Relaxed),
        0
    );
    assert_eq!(server.registry().flows.len(), 0, "no positive flow entry");
    let _ = server.shutdown();
}

#[test]
fn deadline_expires_cleanly_and_server_survives() {
    let server = Server::start(fast_config()).unwrap();
    let text = variant(&liberty_text(), 4);
    let mut client = Client::connect(server.addr()).unwrap();
    // 0 ms deadline: fires at the first checkpoint, before characterization
    // can complete.
    let bait = request("sta", "dl", &text, ",\"mc_libraries\":3,\"deadline_ms\":0");
    let response = client.call(&bait).unwrap();
    assert_eq!(error_code(&response), "deadline");
    // The cancelled characterization was NOT cached as a result...
    assert_eq!(
        server.registry().characterizations.load(Ordering::Relaxed),
        0
    );
    // ...and the same request without a deadline now succeeds on the same
    // server, on the same connection.
    let ok = client
        .call(&request("sta", "dl2", &text, ",\"mc_libraries\":3"))
        .unwrap();
    ok_body(&ok);
    assert_eq!(
        server.registry().characterizations.load(Ordering::Relaxed),
        1
    );
    assert_eq!(server.stats().deadline_expired, 1);
    let _ = server.shutdown();
}

#[test]
fn poison_jobs_are_isolated_and_workers_survive() {
    silence_poison_panics();
    let server = Server::start(ServeConfig {
        workers: 2,
        allow_poison: true,
        ..fast_config()
    })
    .unwrap();
    let text = variant(&liberty_text(), 5);
    let mut client = Client::connect(server.addr()).unwrap();
    // More poison jobs than workers: if a panic killed its worker, the
    // pool would be gone halfway through and later calls would hang.
    for i in 0..6 {
        let response = client
            .call(&format!("{{\"kind\":\"poison\",\"id\":\"p{i}\"}}"))
            .unwrap();
        assert_eq!(error_code(&response), "panic");
    }
    assert_eq!(server.stats().panics_isolated, 6);
    // Real work still completes after every worker has caught panics.
    let ok = client
        .call(&request(
            "sta",
            "after-poison",
            &text,
            ",\"mc_libraries\":3",
        ))
        .unwrap();
    ok_body(&ok);
    let _ = server.shutdown();
}

#[test]
fn poison_is_refused_when_disabled() {
    let server = Server::start(fast_config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let response = client.call("{\"kind\":\"poison\",\"id\":\"no\"}").unwrap();
    assert_eq!(error_code(&response), "unsupported");
    assert_eq!(server.stats().panics_isolated, 0);
    let _ = server.shutdown();
}

#[test]
fn overload_sheds_and_seeded_retry_recovers() {
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..fast_config()
    })
    .unwrap();
    let addr = server.addr();
    let text = variant(&liberty_text(), 6);
    // Flood from many connections; with depth 1 and one worker, some calls
    // must shed. The retrying clients all converge to the same answer.
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let text = text.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let payload = request("sta", "flood", &text, ",\"mc_libraries\":3");
                    let policy = RetryPolicy {
                        max_retries: 40,
                        ..RetryPolicy::default()
                    };
                    client.call_with_retry(&payload, &policy, i).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for o in &outcomes {
        assert_eq!(
            o.response, outcomes[0].response,
            "retries converge to the deterministic answer"
        );
        ok_body(&o.response);
    }
    assert!(server.stats().jobs_shed > 0, "the flood must shed");
    assert_eq!(
        server.registry().characterizations.load(Ordering::Relaxed),
        1
    );
    let _ = server.shutdown();
}

#[test]
fn graceful_drain_finishes_queued_work_and_flushes_traces() {
    let server = Server::start(fast_config()).unwrap();
    let addr = server.addr();
    let text = variant(&liberty_text(), 7);
    let mut client = Client::connect(addr).unwrap();
    let ok = client
        .call(&request("sta", "pre-drain", &text, ",\"mc_libraries\":3"))
        .unwrap();
    ok_body(&ok);
    // Trigger the drain over the wire and pipeline a work request behind
    // it in the same segment, so the refusal is observable before the
    // draining server closes the (now idle) connection.
    use std::io::Write as _;
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let mut buf = Vec::new();
    varitune_serve::write_frame(&mut buf, "{\"kind\":\"shutdown\",\"id\":\"adm\"}").unwrap();
    varitune_serve::write_frame(
        &mut buf,
        &request("sta", "late", &text, ",\"mc_libraries\":3"),
    )
    .unwrap();
    stream.write_all(&buf).unwrap();
    let drained = varitune_serve::read_frame(&mut stream).unwrap().unwrap();
    ok_body(&drained);
    let refused = varitune_serve::read_frame(&mut stream).unwrap().unwrap();
    assert_eq!(error_code(&refused), "shutting_down");
    let report = server.shutdown();
    assert_eq!(report.stats.drain_refused, 1);
    assert_eq!(report.stats.jobs_completed, 1);
    // The pre-drain job's trace was captured and flushed: flow stages are
    // in its span tree.
    let (id, trace) = &report.traces[0];
    assert_eq!(id, "pre-drain");
    let names = trace.span_names();
    assert!(
        names.contains(&"flow.prepare"),
        "per-job trace has flow spans: {names:?}"
    );
}

#[test]
fn responses_identical_across_worker_counts() {
    let text = variant(&liberty_text(), 8);
    let jobs: Vec<String> = vec![
        request("sta", "w1", &text, ",\"mc_libraries\":3"),
        request("signoff", "w2", &text, ",\"mc_libraries\":3"),
        request(
            "tune",
            "w3",
            &text,
            ",\"mc_libraries\":3,\"method\":\"sigma ceiling\",\"param_micro\":20000",
        ),
    ];
    let run_at = |workers: usize| -> Vec<String> {
        let server = Server::start(ServeConfig {
            workers,
            ..fast_config()
        })
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let out = jobs.iter().map(|j| client.call(j).unwrap()).collect();
        let _ = server.shutdown();
        out
    };
    let one = run_at(1);
    one.iter().for_each(|r| {
        ok_body(r);
    });
    assert_eq!(one, run_at(2));
    assert_eq!(one, run_at(8));
}

#[test]
fn eviction_at_capacity_one_answers_like_a_default_server() {
    let base = liberty_text();
    let libs: Vec<String> = (40..44).map(|i| variant(&base, i)).collect();
    // One job kind per library, then the first library again (evicted on
    // the capacity-1 server) through the flow-only optimize kind.
    let jobs = [
        request("sta", "e0", &libs[0], ",\"mc_libraries\":3"),
        request("signoff", "e1", &libs[1], ",\"mc_libraries\":3"),
        request(
            "tune",
            "e2",
            &libs[2],
            ",\"mc_libraries\":3,\"method\":\"sigma ceiling\",\"param_micro\":20000",
        ),
        request("ssta", "e3", &libs[3], ",\"mc_libraries\":3"),
        request(
            "optimize",
            "e4",
            &libs[0],
            ",\"mc_libraries\":3,\"generations\":1,\"population\":2",
        ),
    ];
    let run = |config: ServeConfig| {
        let server = Server::start(config).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let responses: Vec<String> = jobs.iter().map(|j| client.call(j).unwrap()).collect();
        let stats = client.call("{\"kind\":\"stats\",\"id\":\"s\"}").unwrap();
        (server, responses, ok_body(&stats))
    };
    let (tiny, evicting, tiny_stats) = run(ServeConfig {
        lib_capacity: 1,
        flow_capacity: 1,
        baseline_capacity: 1,
        ..fast_config()
    });
    let (roomy, resident, roomy_stats) = run(fast_config());
    for r in &resident {
        ok_body(r);
    }
    assert_eq!(evicting, resident, "eviction never changes a response");
    assert!(tiny.registry().flows.len() <= 1);
    assert!(tiny.registry().libs.len() <= 1);
    assert!(tiny.registry().baselines.len() <= 1);
    let characterized = |s: &Server| s.registry().characterizations.load(Ordering::Relaxed);
    assert_eq!(characterized(&roomy), 4, "one per distinct library");
    assert_eq!(
        characterized(&tiny),
        5,
        "the evicted library characterized again"
    );
    let num = |body: &Json, key: &str| body.get(key).and_then(Json::as_u64).unwrap();
    // Five library and flow inserts into one slot each; four baselines
    // (optimize needs none).
    assert_eq!(num(&tiny_stats, "lib_cache_evictions"), 4);
    assert_eq!(num(&tiny_stats, "flow_cache_evictions"), 4);
    assert_eq!(num(&tiny_stats, "baseline_cache_evictions"), 3);
    for key in [
        "lib_cache_evictions",
        "flow_cache_evictions",
        "baseline_cache_evictions",
    ] {
        assert_eq!(num(&roomy_stats, key), 0, "{key}");
    }
    let _ = tiny.shutdown();
    let _ = roomy.shutdown();
}

#[test]
fn ping_and_stats_answer_inline() {
    let server = Server::start(fast_config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let pong = client.call("{\"kind\":\"ping\",\"id\":\"p\"}").unwrap();
    assert_eq!(ok_body(&pong).get("pong").and_then(Json::as_str), Some("1"));
    let stats = client.call("{\"kind\":\"stats\",\"id\":\"s\"}").unwrap();
    let body = ok_body(&stats);
    assert!(body.get("jobs_completed").and_then(Json::as_u64).is_some());
    assert!(body
        .get("characterizations")
        .and_then(Json::as_u64)
        .is_some());
    let _ = server.shutdown();
}

#[test]
fn ssta_job_reports_consistent_statistics_and_a_thread_stable_digest() {
    let server = Server::start(fast_config()).unwrap();
    let text = variant(&liberty_text(), 31);
    let mut client = Client::connect(server.addr()).unwrap();
    let first = client
        .call(&request("ssta", "s1", &text, ",\"mc_libraries\":3"))
        .unwrap();
    let body = ok_body(&first);
    assert_eq!(body.get("kind").and_then(Json::as_str), Some("ssta"));
    assert!(body.get("endpoints").and_then(Json::as_u64).unwrap() > 0);
    let f64_field = |b: &Json, key: &str| {
        f64::from_bits(
            b.get(&format!("{key}_bits"))
                .and_then(Json::as_u64)
                .unwrap(),
        )
    };
    assert!(f64_field(&body, "design_sigma") > 0.0);
    let y = f64_field(&body, "yield_at_clock");
    assert!((0.0..=1.0).contains(&y), "yield {y} out of range");
    let crit = f64_field(&body, "criticality_sum");
    assert!((crit - 1.0).abs() < 1e-9, "criticality sum {crit}");
    let digest = body.get("digest").and_then(Json::as_u64).unwrap();
    // Same request at 8 worker threads inside the job: a different flow
    // cache entry, the same bit-exact report digest.
    let eight = client
        .call(&request(
            "ssta",
            "s8",
            &text,
            ",\"mc_libraries\":3,\"threads\":8",
        ))
        .unwrap();
    let body8 = ok_body(&eight);
    assert_eq!(body8.get("digest").and_then(Json::as_u64), Some(digest));
    assert_eq!(
        f64_field(&body8, "design_mean").to_bits(),
        f64_field(&body, "design_mean").to_bits()
    );
    let _ = server.shutdown();
}
