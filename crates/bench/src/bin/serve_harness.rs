//! Load/robustness harness for the `varitune-serve` daemon.
//!
//! Drives a deterministic mixed-job stream — STA, signoff, tune, optimize,
//! strict-rejected libraries, zero-deadline bait, poison jobs — from
//! concurrent clients against a live loopback server, while an attacker
//! connection replays every [`FRAME_OPS`] corruption. Records p50/p99
//! latency, jobs/sec and the shed/retry/panic-isolated counters into
//! `BENCH_serve.json`, and asserts the robustness contract:
//!
//! * zero server deaths — every job gets a response, the server still
//!   answers `ping` after poison jobs, corrupted frames and deadlines;
//! * characterization count == distinct library hashes that completed a
//!   flow (single-flight caching, deadline-bait and rejected hashes
//!   excluded by construction);
//! * the concatenated per-job responses are byte-identical across a rerun
//!   and across worker counts 1/2/8 (full mode).
//!
//! Run with `--help` for the flags.

use std::panic;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;

use varitune_bench::corrupt::{corrupt_frame, FRAME_OPS};
use varitune_bench::harness::{self, Args, Kind, Obj, Spec, Value};
use varitune_core::TuningMethod;
use varitune_libchar::{generate_nominal, GenerateConfig};
use varitune_serve::{fnv1a64, Client, RetryPolicy, ServeConfig, Server};
use varitune_variation::rng::rng_from;

const SPEC: Spec = Spec {
    name: "serve_harness",
    flags: &[
        ("--jobs", Kind::Count(1000), "jobs in the mix"),
        ("--seed", Kind::Int(7), "seed of the mix"),
        ("--smoke", Kind::Switch, "<= 48 jobs, one run"),
    ],
    out: Some("BENCH_serve.json"),
    ids: None,
};

fn main() -> ExitCode {
    harness::main(&SPEC, std::env::args(), run)
}

/// Number of concurrent client connections driving the mix.
const CLIENTS: usize = 8;
/// Distinct work libraries (each a renamed copy of the pristine text, so
/// each has its own content hash but identical timing).
const WORK_VARIANTS: usize = 6;
/// Libraries used exclusively by zero-deadline bait jobs: their
/// characterizations always cancel, so they must never count.
const BAIT_VARIANTS: usize = 2;

/// What the mix generator promises each job will answer with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Ok,
    Rejected,
    Deadline,
    Panic,
}

/// One job of the deterministic mix: everything a client needs to issue it
/// and everything the checker needs to judge the response.
struct JobSpec {
    kind: &'static str,
    /// Index into the library texts (work variants, then bait variants),
    /// or `None` for poison jobs / the rejected library.
    variant: Option<usize>,
    sick: bool,
    /// Request fields beyond kind, id and library.
    extra: Obj,
    expect: Expect,
}

/// Builds job `i` of the mix. Pure in `(seed, i)`, so every run and every
/// worker count sees the identical request stream.
fn job_spec(seed: u64, i: usize) -> JobSpec {
    let mut rng = rng_from(seed, "serve-job", i as u64);
    let roll = rng.next_u64() % 100;
    let pick = |rng: &mut varitune_variation::Xoshiro256PlusPlus, n: usize| {
        (rng.next_u64() % n as u64) as usize
    };
    if roll < 40 {
        JobSpec {
            kind: "sta",
            variant: Some(pick(&mut rng, WORK_VARIANTS)),
            sick: false,
            extra: work(),
            expect: Expect::Ok,
        }
    } else if roll < 60 {
        JobSpec {
            kind: "signoff",
            variant: Some(pick(&mut rng, WORK_VARIANTS)),
            sick: false,
            extra: work(),
            expect: Expect::Ok,
        }
    } else if roll < 78 {
        let method = TuningMethod::ALL[pick(&mut rng, TuningMethod::ALL.len())];
        let param = [10_000u64, 20_000, 40_000][pick(&mut rng, 3)];
        JobSpec {
            kind: "tune",
            variant: Some(pick(&mut rng, WORK_VARIANTS)),
            sick: false,
            extra: work()
                .with("method", method.to_string())
                .with("param_micro", param),
            expect: Expect::Ok,
        }
    } else if roll < 84 {
        JobSpec {
            kind: "optimize",
            variant: Some(pick(&mut rng, WORK_VARIANTS)),
            sick: false,
            extra: work().with("generations", 1u64).with("population", 2u64),
            expect: Expect::Ok,
        }
    } else if roll < 90 {
        // Strict screening must refuse this library; repeats are answered
        // from the negative cache.
        JobSpec {
            kind: "sta",
            variant: None,
            sick: true,
            extra: work(),
            expect: Expect::Rejected,
        }
    } else if roll < 95 {
        // Zero-deadline bait on a bait-only library: the characterization
        // cancels at its first checkpoint, every time.
        JobSpec {
            kind: "sta",
            variant: Some(WORK_VARIANTS + pick(&mut rng, BAIT_VARIANTS)),
            sick: false,
            extra: work().with("deadline_ms", 0u64),
            expect: Expect::Deadline,
        }
    } else {
        JobSpec {
            kind: "poison",
            variant: None,
            sick: false,
            extra: Obj::new(),
            expect: Expect::Panic,
        }
    }
}

/// The request fields every work job carries: a 3-library characterization.
fn work() -> Obj {
    Obj::new().with("mc_libraries", 3u64)
}

fn render_request(spec: &JobSpec, id: &str, texts: &[String], sick: &str) -> String {
    let request = spec.extra.clone().with("kind", spec.kind).with("id", id);
    let library = if spec.sick {
        Some(sick)
    } else {
        spec.variant.map(|v| texts[v].as_str())
    };
    match library {
        Some(text) => request.with("library", text).render(),
        None => request.render(),
    }
}

/// Per-run results the report and the cross-run assertions consume.
struct RunOutcome {
    workers: usize,
    digest: u64,
    wall_ms: u64,
    latencies_us: Vec<u64>,
    retries_total: u64,
    mismatches: usize,
    stats: varitune_serve::StatsSnapshot,
    characterizations: u64,
    alive_at_end: bool,
}

#[allow(clippy::too_many_lines)]
fn run(args: &Args) -> Result<(), String> {
    let smoke = args.switch("--smoke");
    let seed = args.int("--seed");
    let jobs = if smoke {
        args.count("--jobs").min(48)
    } else {
        args.count("--jobs")
    };
    println!(
        "serve harness: {jobs} job(s), seed {seed}, {CLIENTS} client(s){}",
        if smoke { ", smoke" } else { "" }
    );

    // Library corpus: renamed copies of one pristine full library (distinct
    // content hashes, identical timing), bait-only copies, and one
    // strict-rejected copy (non-finite pin capacitance).
    let pristine = varitune_liberty::write_library(&generate_nominal(&GenerateConfig::full()))
        .map_err(|e| format!("generated library failed to serialize: {e}"))?;
    let texts: Vec<String> = (0..WORK_VARIANTS + BAIT_VARIANTS)
        .map(|v| pristine.replacen("library (", &format!("library (v{v}_"), 1))
        .collect();
    let sick = {
        let mut s = pristine.replacen("library (", "library (sick_", 1);
        let at = s.find("capacitance : ").map(|p| p + "capacitance : ".len());
        let at = at.ok_or("pristine text has no capacitance attribute")?;
        let end = s[at..].find(';').map(|p| p + at);
        let end = end.ok_or("malformed capacitance attribute")?;
        s.replace_range(at..end, "nan");
        s
    };

    // The mix, generated once; every run replays it identically.
    let specs: Vec<JobSpec> = (0..jobs).map(|i| job_spec(seed, i)).collect();
    let expected_characterizations = {
        let mut used = std::collections::BTreeSet::new();
        for s in &specs {
            if s.expect == Expect::Ok {
                if let Some(v) = s.variant {
                    used.insert(v);
                }
            }
        }
        used.len() as u64
    };
    let poison_jobs = specs.iter().filter(|s| s.expect == Expect::Panic).count() as u64;
    let bait_jobs = specs
        .iter()
        .filter(|s| s.expect == Expect::Deadline)
        .count() as u64;
    let sick_jobs = specs
        .iter()
        .filter(|s| s.expect == Expect::Rejected)
        .count() as u64;
    let attacks = FRAME_OPS.len() * (jobs / 200 + 1);

    // The poison jobs panic inside server workers by design; silence only
    // those messages, forward everything else.
    let prev_hook = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.starts_with("poison job") {
            prev_hook(info);
        }
    }));

    // Worker counts to sweep: the acceptance contract is byte-identical
    // responses across 1/2/8 plus a rerun; smoke keeps CI fast.
    let worker_runs: Vec<usize> = if smoke { vec![2] } else { vec![2, 1, 8, 2] };
    let mut outcomes: Vec<RunOutcome> = Vec::new();
    for &workers in &worker_runs {
        let _span = varitune_trace::span!("serve_harness.run");
        println!("  run: {workers} worker(s), {} attack frame(s)", attacks);
        let outcome = drive_run(workers, &specs, &texts, &sick, seed, attacks)
            .map_err(|e| format!("run with {workers} worker(s) failed: {e}"))?;
        outcomes.push(outcome);
    }

    // ---- Assertions --------------------------------------------------
    let mut failures = 0usize;
    for o in &outcomes {
        if !o.alive_at_end {
            failures += 1;
            eprintln!(
                "DEATH: server with {} worker(s) stopped answering",
                o.workers
            );
        }
        if o.mismatches > 0 {
            failures += 1;
            eprintln!(
                "MISMATCH: {} response(s) differed from expectation at {} worker(s)",
                o.mismatches, o.workers
            );
        }
        if o.characterizations != expected_characterizations {
            failures += 1;
            eprintln!(
                "CACHE: {} characterization(s) at {} worker(s), expected {} \
                 (distinct completed library hashes)",
                o.characterizations, o.workers, expected_characterizations
            );
        }
        if o.stats.panics_isolated != poison_jobs {
            failures += 1;
            eprintln!(
                "ISOLATION: {} panic(s) isolated at {} worker(s), expected {poison_jobs}",
                o.stats.panics_isolated, o.workers
            );
        }
        if o.stats.deadline_expired != bait_jobs {
            failures += 1;
            eprintln!(
                "DEADLINE: {} expiries at {} worker(s), expected {bait_jobs}",
                o.stats.deadline_expired, o.workers
            );
        }
        if o.stats.protocol_errors != attacks as u64 {
            failures += 1;
            eprintln!(
                "ATTACK: {} protocol error(s) at {} worker(s), expected {attacks}",
                o.stats.protocol_errors, o.workers
            );
        }
    }
    let digests_identical = outcomes.windows(2).all(|w| w[0].digest == w[1].digest);
    if !digests_identical {
        failures += 1;
        let all: Vec<String> = outcomes
            .iter()
            .map(|o| format!("{}w:{:016x}", o.workers, o.digest))
            .collect();
        eprintln!("DETERMINISM: digests differ across runs: {}", all.join(" "));
    }

    // ---- Report ------------------------------------------------------
    let measure = &outcomes[0];
    let mut lat = measure.latencies_us.clone();
    lat.sort_unstable();
    let pct = |p: f64| -> u64 {
        if lat.is_empty() {
            return 0;
        }
        let idx = ((lat.len() as f64 - 1.0) * p).round() as usize;
        lat[idx.min(lat.len() - 1)]
    };
    let jobs_per_sec = if measure.wall_ms == 0 {
        0.0
    } else {
        jobs as f64 * 1000.0 / measure.wall_ms as f64
    };

    let runs: Vec<Obj> = outcomes
        .iter()
        .map(|o| {
            Obj::new()
                .with("workers", o.workers)
                .with("digest", format!("{:016x}", o.digest))
                .with("wall_ms", o.wall_ms)
                .with("jobs_ok", o.stats.jobs_ok)
                .with("jobs_shed", o.stats.jobs_shed)
                .with("retries", o.retries_total)
                .with("panics_isolated", o.stats.panics_isolated)
                .with("deadline_expired", o.stats.deadline_expired)
                .with("jobs_rejected", o.stats.jobs_rejected)
                .with("protocol_errors", o.stats.protocol_errors)
                .with("characterizations", o.characterizations)
        })
        .collect();
    args.write_out(
        &Obj::new()
            .with("schema", "varitune-serve-harness/1")
            .with("host_hardware_threads", harness::hardware_threads())
            .with("jobs", jobs)
            .with("seed", seed)
            .with("clients", CLIENTS)
            .with("attack_frames", attacks)
            .with("poison_jobs", poison_jobs)
            .with("deadline_jobs", bait_jobs)
            .with("rejected_jobs", sick_jobs)
            .with("distinct_work_hashes", expected_characterizations)
            .with("p50_latency_us", pct(0.50))
            .with("p99_latency_us", pct(0.99))
            .with("jobs_per_sec", Value::Fixed(jobs_per_sec, 1))
            .with("digests_identical_across_runs", digests_identical)
            .with("zero_server_deaths", failures == 0)
            .with("runs", runs),
    )?;
    println!(
        "{jobs} job(s) x {} run(s): p50 {}us p99 {}us, {jobs_per_sec:.1} jobs/s, \
         {} failure(s) -> {}",
        outcomes.len(),
        pct(0.50),
        pct(0.99),
        failures,
        args.out()
    );
    if failures > 0 {
        return Err(format!("{failures} robustness failure(s)"));
    }
    Ok(())
}

/// Drives the whole mix (plus the frame attacks) against one fresh server
/// and returns the measured outcome.
fn drive_run(
    workers: usize,
    specs: &[JobSpec],
    texts: &[String],
    sick: &str,
    seed: u64,
    attacks: usize,
) -> Result<RunOutcome, String> {
    let server = Server::start(ServeConfig {
        workers,
        queue_depth: 4,
        allow_poison: true,
        retry_after_ms: 2,
        trace_capacity: 8,
        ..ServeConfig::for_tests()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();

    let results: Mutex<Vec<Option<(String, u64, u64)>>> = Mutex::new(vec![None; specs.len()]);
    let started = Instant::now();
    let attack_errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        // Attacker: every frame-corruption operator, repeatedly, on its own
        // connections, concurrent with the real load.
        scope.spawn(|| {
            use std::io::{Read as _, Write as _};
            for a in 0..attacks {
                let op = FRAME_OPS[a % FRAME_OPS.len()];
                let mut rng = rng_from(seed, "serve-attack", a as u64);
                let bytes = corrupt_frame(op, "{\"kind\":\"ping\",\"id\":\"atk\"}", &mut rng);
                match std::net::TcpStream::connect(addr) {
                    Ok(mut stream) => {
                        let _ = stream.write_all(&bytes);
                        let _ = stream.shutdown(std::net::Shutdown::Write);
                        let mut sink = Vec::new();
                        let _ = stream.read_to_end(&mut sink);
                    }
                    Err(e) => attack_errors
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(format!("attack {a} connect: {e}")),
                }
            }
        });
        // Clients: a fixed partition of the job stream per connection.
        for c in 0..CLIENTS {
            let results = &results;
            scope.spawn(move || {
                let Ok(mut client) = Client::connect(addr) else {
                    return;
                };
                let policy = RetryPolicy {
                    base_ms: 2,
                    max_ms: 200,
                    max_retries: 200,
                    seed,
                };
                for (i, spec) in specs.iter().enumerate() {
                    if i % CLIENTS != c {
                        continue;
                    }
                    let id = format!("job-{i}");
                    let payload = render_request(spec, &id, texts, sick);
                    let t0 = Instant::now();
                    match client.call_with_retry(&payload, &policy, i as u64) {
                        Ok(outcome) => {
                            let us = t0.elapsed().as_micros() as u64;
                            results
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)[i] =
                                Some((outcome.response, us, u64::from(outcome.retries)));
                        }
                        Err(_) => {
                            // Left as None: counted as a mismatch (a lost
                            // response is exactly what the harness hunts).
                        }
                    }
                }
            });
        }
    });
    let wall_ms = started.elapsed().as_millis() as u64;
    for e in attack_errors
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        eprintln!("serve_harness: {e}");
    }

    // Liveness probe after everything (poison, corruption, deadlines).
    let alive_at_end = Client::connect(addr)
        .and_then(|mut c| c.call("{\"kind\":\"ping\",\"id\":\"probe\"}"))
        .map(|r| r.contains("pong"))
        .unwrap_or(false);

    // Judge responses and fold the determinism digest (job order, not
    // completion order).
    let results = results
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut digest_input = String::new();
    let mut latencies = Vec::with_capacity(specs.len());
    let mut retries_total = 0u64;
    let mut mismatches = 0usize;
    for (i, (spec, slot)) in specs.iter().zip(&results).enumerate() {
        let Some((response, us, retries)) = slot else {
            mismatches += 1;
            eprintln!("LOST: job-{i} got no response at {workers} worker(s)");
            continue;
        };
        latencies.push(*us);
        retries_total += retries;
        digest_input.push_str(&format!("job-{i}\n{response}\n"));
        let code = varitune_serve::protocol::response_error_code(response);
        let verdict_ok = match spec.expect {
            Expect::Ok => code.is_none() && response.contains("\"ok\":"),
            Expect::Rejected => code.as_deref() == Some("rejected"),
            Expect::Deadline => code.as_deref() == Some("deadline"),
            Expect::Panic => code.as_deref() == Some("panic"),
        };
        if !verdict_ok {
            mismatches += 1;
            let head = &response[..response.len().min(160)];
            eprintln!(
                "UNEXPECTED: job-{i} ({}, {:?}): {head}",
                spec.kind, spec.expect
            );
        }
    }
    let digest = fnv1a64(digest_input.as_bytes());
    let characterizations = server
        .registry()
        .characterizations
        .load(std::sync::atomic::Ordering::Relaxed);
    let report = server.shutdown();
    Ok(RunOutcome {
        workers,
        digest,
        wall_ms,
        latencies_us: latencies,
        retries_total,
        mismatches,
        stats: report.stats,
        characterizations,
        alive_at_end,
    })
}
