//! Daemon traffic: a closed loop of [`CLIENTS`] connections against an
//! in-process `varitune-serve` server with as many workers. Daemon callers
//! wait for each reply, so each client sends its next job only when the
//! previous one answered.
//!
//! Set-up starts the server and warms it with one job per warm library
//! (parse, screen, characterize, baseline). `serve_hot` then sends a mixed
//! stream to the warm libraries, so every job is a cache hit; `serve_flood`
//! sends `sta` jobs, each on a library nobody sent before, so every job is
//! a miss and the caches fill and overflow.
//!
//! The server traces every job on its own; the per-layer metrics come from
//! those traces, as shares of the jobs' summed round trips.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use varitune_core::TuningMethod;
use varitune_serve::protocol::response_error_code;
use varitune_serve::{Client, RetryPolicy, ServeConfig, Server};
use varitune_trace::json;
use varitune_variation::rng::rng_from;

use crate::digest::Digest;
use crate::inputs;
use crate::metrics::percentile;
use crate::runner::{Finish, Ops, Plan, Workload};

/// Client connections, and server workers: one per core of the 2-core
/// host the baseline was measured on.
const CLIENTS: usize = 2;
/// Libraries warmed during set-up.
const WARM_LIBRARIES: usize = 2;
/// Capacity of each server cache layer. Below the default so a flood's
/// cached entries (tens of MB each, never freed today) stay within a
/// shared host's memory while still overflowing into the uncached path.
const CACHE_CAPACITY: usize = 16;
/// Length of the `serve_hot` job sequence before it repeats.
const HOT_SEQUENCE: usize = 300;
/// A `serve_hot` block: a fixed mix of ten jobs, and the cycle a pass only
/// stops at the end of.
const HOT_BLOCK: usize = 10;
/// Every job characterizes with this many Monte-Carlo libraries.
const MC_LIBRARIES: &str = ",\"mc_libraries\":3";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    Hot,
    Flood,
}

/// One job of the `serve_hot` sequence.
struct HotJob {
    kind: &'static str,
    library: usize,
    extra: String,
    /// Index of the first job with the same request, which this one must
    /// answer identically.
    group: usize,
}

pub struct Serve {
    traffic: Traffic,
    seed: u64,
    /// JSON-escaped Liberty texts of the warm libraries; a flood job
    /// renames the first one.
    libraries: Vec<String>,
    hot: Vec<HotJob>,
    traced_ops: usize,
}

impl Serve {
    pub fn new(traffic: Traffic, seed: u64, smoke: bool) -> Result<Self, String> {
        let text = inputs::liberty_text(&format!("s{seed}"))?;
        let mut escaped = String::with_capacity(text.len() + text.len() / 8);
        json::write_escaped(&mut escaped, &text);
        let libraries = (0..WARM_LIBRARIES)
            .map(|k| inputs::renamed(&escaped, &format!("w{k}")))
            .collect();
        Ok(Self {
            traffic,
            seed,
            libraries,
            hot: hot_sequence(seed),
            traced_ops: match (smoke, traffic) {
                (true, _) => 20,
                (false, Traffic::Hot) => 120,
                (false, Traffic::Flood) => 60,
            },
        })
    }

    /// Sends one `sta` job per warm library; returns the bytes sent and
    /// the summed round trips in milliseconds.
    fn warm_up(&self, server: &Server) -> Result<(usize, f64), String> {
        let mut client =
            Client::connect(server.addr()).map_err(|e| format!("warm-up connect: {e}"))?;
        let (mut frame_bytes, mut round_trip_ms) = (0, 0.0);
        for library in &self.libraries {
            let request = payload("sta", library, "");
            frame_bytes += request.len();
            let t0 = Instant::now();
            let response = client
                .call(&request)
                .map_err(|e| format!("warm-up job: {e}"))?;
            round_trip_ms += t0.elapsed().as_secs_f64() * 1e3;
            if !is_ok(&response) {
                return Err(format!("warm-up job failed: {response}"));
            }
        }
        Ok((frame_bytes, round_trip_ms))
    }

    /// The request payload of job `i`, and its group: jobs of one group
    /// must answer identically.
    fn request(&self, i: usize) -> (String, usize) {
        match self.traffic {
            Traffic::Hot => {
                let job = &self.hot[i % self.hot.len()];
                let payload = payload(job.kind, &self.libraries[job.library], &job.extra);
                (payload, job.group)
            }
            Traffic::Flood => {
                let library = inputs::renamed(&self.libraries[0], &format!("f{i}"));
                (payload("sta", &library, ""), 0)
            }
        }
    }
}

/// `serve_hot`'s mix: blocks of [`HOT_BLOCK`] jobs with exactly 4 sta,
/// 2 signoff, 3 tune and 1 ssta, shuffled per block, on a seeded warm
/// library. Fixed proportions keep the cost of a run steady across seeds.
fn hot_sequence(seed: u64) -> Vec<HotJob> {
    let mut rng = rng_from(seed, "serve-hot", 0);
    let mut jobs = Vec::with_capacity(HOT_SEQUENCE);
    while jobs.len() < HOT_SEQUENCE {
        let mut kinds: [&str; HOT_BLOCK] = [
            "sta", "sta", "sta", "sta", "signoff", "signoff", "tune", "tune", "tune", "ssta",
        ];
        inputs::shuffle(&mut kinds, &mut rng);
        for kind in kinds {
            let library = (rng.next_u64() % WARM_LIBRARIES as u64) as usize;
            let extra = if kind == "tune" {
                let method = TuningMethod::ALL[(rng.next_u64() % 5) as usize];
                let param = [10_000u64, 20_000, 40_000][(rng.next_u64() % 3) as usize];
                format!(",\"method\":\"{method}\",\"param_micro\":{param}")
            } else {
                String::new()
            };
            let group = jobs
                .iter()
                .position(|j: &HotJob| j.kind == kind && j.library == library && j.extra == extra)
                .unwrap_or(jobs.len());
            jobs.push(HotJob {
                kind,
                library,
                extra,
                group,
            });
        }
    }
    jobs
}

fn payload(kind: &str, escaped_library: &str, extra: &str) -> String {
    let mut p = String::with_capacity(escaped_library.len() + 128);
    p.push_str("{\"kind\":\"");
    p.push_str(kind);
    p.push_str("\",\"id\":\"job\",\"library\":");
    p.push_str(escaped_library);
    p.push_str(MC_LIBRARIES);
    p.push_str(extra);
    p.push('}');
    p
}

fn is_ok(response: &str) -> bool {
    response_error_code(response).is_none() && response.contains("\"ok\":")
}

/// `response` without its `lib_hash` member, the one field that differs
/// between renamed copies of a library.
fn without_lib_hash(response: &str) -> String {
    const KEY: &str = "\"lib_hash\":\"";
    let Some(start) = response.find(KEY) else {
        return response.to_string();
    };
    let value = start + KEY.len();
    let end = response[value..]
        .find('"')
        .map_or(response.len(), |e| value + e + 1);
    // Drop one adjacent comma so the remainder stays well formed.
    let (start, end) = if response[end..].starts_with(',') {
        (start, end + 1)
    } else if response[..start].ends_with(',') {
        (start - 1, end)
    } else {
        (start, end)
    };
    format!("{}{}", &response[..start], &response[end..])
}

/// One answered job.
struct Answer {
    group: usize,
    response: String,
    request_bytes: usize,
    latency_ms: f64,
    retries: u32,
}

pub struct State {
    server: Option<Server>,
    answers: Vec<Answer>,
    frame_bytes: usize,
    /// Summed round trips of the warm-up jobs.
    warm_up_ms: f64,
}

impl Workload for Serve {
    type State<'s> = State;

    fn cycle(&self) -> usize {
        match self.traffic {
            Traffic::Hot => HOT_BLOCK,
            Traffic::Flood => 1,
        }
    }

    fn traced_ops(&self) -> usize {
        self.traced_ops
    }

    fn with_setup<R>(&self, body: impl FnOnce(&mut State) -> R) -> Result<R, String> {
        let server = Server::start(ServeConfig {
            workers: CLIENTS,
            lib_capacity: CACHE_CAPACITY,
            flow_capacity: CACHE_CAPACITY,
            baseline_capacity: CACHE_CAPACITY,
            trace_capacity: 1 << 14,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("server failed to start: {e}"))?;
        let (frame_bytes, warm_up_ms) = match self.warm_up(&server) {
            Ok(warm) => warm,
            Err(e) => {
                let _ = server.shutdown();
                return Err(e);
            }
        };
        let mut state = State {
            server: Some(server),
            answers: Vec::new(),
            frame_bytes,
            warm_up_ms,
        };
        let result = body(&mut state);
        if let Some(server) = state.server.take() {
            let _ = server.shutdown();
        }
        Ok(result)
    }

    fn run_ops(&self, state: &mut State, plan: &Plan) -> Result<Ops, String> {
        let addr = state
            .server
            .as_ref()
            .ok_or("the server is already shut down")?
            .addr();
        let next = AtomicUsize::new(0);
        let answers: Mutex<Vec<(usize, Answer)>> = Mutex::new(Vec::new());
        let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..CLIENTS {
                scope.spawn(|| {
                    let mut client = match Client::connect(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            lock(&errors).push(format!("connect: {e}"));
                            return;
                        }
                    };
                    let policy = RetryPolicy {
                        base_ms: 2,
                        max_ms: 200,
                        max_retries: 200,
                        seed: self.seed,
                    };
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if !plan.admits(i) {
                            return;
                        }
                        let (request, group) = self.request(i);
                        let t0 = Instant::now();
                        match client.call_with_retry(&request, &policy, i as u64) {
                            Ok(outcome) => lock(&answers).push((
                                i,
                                Answer {
                                    group,
                                    response: outcome.response,
                                    request_bytes: request.len(),
                                    latency_ms: t0.elapsed().as_secs_f64() * 1e3,
                                    retries: outcome.retries,
                                },
                            )),
                            Err(e) => {
                                lock(&errors).push(format!("job {i}: {e}"));
                                return;
                            }
                        }
                    }
                });
            }
        });
        let errors = errors.into_inner().unwrap_or_else(|e| e.into_inner());
        if !errors.is_empty() {
            return Err(format!("client failure: {}", errors.join("; ")));
        }
        let mut answered = answers.into_inner().unwrap_or_else(|e| e.into_inner());
        answered.sort_by_key(|(i, _)| *i);
        let mut ops = Ops::default();
        for (_, answer) in answered {
            ops.op_ms.push(answer.latency_ms);
            ops.failed += usize::from(!is_ok(&answer.response));
            state.frame_bytes += answer.request_bytes;
            state.answers.push(answer);
        }
        Ok(ops)
    }

    fn finish(&self, state: &mut State) -> Result<Finish, String> {
        let server = state
            .server
            .take()
            .ok_or("the server is already shut down")?;
        let registry = server.registry();
        let characterizations = registry.characterizations.load(Ordering::Relaxed);
        // Every job kind served here fetches its baseline (prepared flow
        // plus synthesized baseline) exactly once.
        let (baseline_hits, ..) = registry.baselines.stats.snapshot();
        let drained = server.shutdown();

        let answers = &state.answers;
        let mut failures = Vec::new();
        let mut digest = Digest::default();
        let mut first_of_group: Vec<Option<String>> = Vec::new();
        for (i, answer) in answers.iter().enumerate() {
            if !is_ok(&answer.response) {
                failures.push(format!("job {i} failed: {:.200}", answer.response));
            }
            // Responses are functions of the request alone: repeats of one
            // request, and flood jobs once the library hash is dropped,
            // must match byte for byte.
            let canonical = match self.traffic {
                Traffic::Hot => answer.response.clone(),
                Traffic::Flood => without_lib_hash(&answer.response),
            };
            digest.bytes(canonical.as_bytes());
            if first_of_group.len() <= answer.group {
                first_of_group.resize(answer.group + 1, None);
            }
            match &first_of_group[answer.group] {
                None => first_of_group[answer.group] = Some(canonical),
                Some(first) if *first != canonical => {
                    failures.push(format!("job {i} differs from an identical earlier job"));
                }
                Some(_) => {}
            }
        }
        let distinct = match self.traffic {
            Traffic::Hot => WARM_LIBRARIES,
            Traffic::Flood => WARM_LIBRARIES + answers.len(),
        };
        let expected_ok = match self.traffic {
            Traffic::Hot => characterizations == WARM_LIBRARIES as u64,
            Traffic::Flood => characterizations <= distinct as u64,
        };
        if !expected_ok {
            failures.push(format!(
                "{characterizations} characterizations for {distinct} distinct libraries"
            ));
        }
        let latencies: Vec<f64> = answers.iter().map(|a| a.latency_ms).collect();
        Ok(Finish {
            digest: digest.value(),
            failures,
            layer_values: vec![
                ("serve.frame_mb", state.frame_bytes as f64 / 1e6),
                (
                    "serve.cache_hit_ratio",
                    baseline_hits as f64 / drained.stats.jobs_completed.max(1) as f64,
                ),
                (
                    "serve.retries",
                    answers.iter().map(|a| f64::from(a.retries)).sum(),
                ),
                ("serve.jobs_shed", drained.stats.jobs_shed as f64),
                ("serve.characterizations", characterizations as f64),
                (
                    "serve.job_p90_ms",
                    percentile(&latencies, 90.0).unwrap_or(0.0),
                ),
            ],
            // The work happens in the daemon's jobs, each traced on its own.
            traces: drained.traces.into_iter().map(|(_, t)| t).collect(),
            attributable_ms: Some(state.warm_up_ms + latencies.iter().sum::<f64>()),
        })
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lib_hash_removal_keeps_the_rest() {
        let r = "{\"id\":\"job\",\"ok\":{\"kind\":\"sta\",\"lib_hash\":\"00ff\",\"mean\":\"1\"}}";
        assert_eq!(
            without_lib_hash(r),
            "{\"id\":\"job\",\"ok\":{\"kind\":\"sta\",\"mean\":\"1\"}}"
        );
        let last = "{\"ok\":{\"a\":\"1\",\"lib_hash\":\"00ff\"}}";
        assert_eq!(without_lib_hash(last), "{\"ok\":{\"a\":\"1\"}}");
    }

    #[test]
    fn hot_mix_has_fixed_proportions() {
        let jobs = hot_sequence(5);
        assert_eq!(jobs.len(), HOT_SEQUENCE);
        let count = |k: &str| jobs.iter().filter(|j| j.kind == k).count();
        assert_eq!(count("sta"), 120);
        assert_eq!(count("signoff"), 60);
        assert_eq!(count("tune"), 90);
        assert_eq!(count("ssta"), 30);
        // Repeated requests share a group, so their answers are compared.
        let sta_w0 = jobs.iter().filter(|j| j.kind == "sta" && j.library == 0);
        let groups: std::collections::BTreeSet<_> = sta_w0.map(|j| j.group).collect();
        assert_eq!(groups.len(), 1);
    }
}
