//! The daemon: accept loop, per-connection threads, bounded worker pool.
//!
//! Fault-domain layering (outermost first):
//!
//! * The **accept loop** only hands sockets to connection threads; it can
//!   fail only on listener errors, which end accepting but leave live
//!   connections and workers untouched.
//! * A **connection thread** owns exactly one socket. Frame corruption —
//!   truncated or oversized length prefixes, invalid UTF-8, mid-frame
//!   disconnects — terminates (or answers on) *that* connection only.
//! * A **worker** runs each job under a scoped per-job trace recorder
//!   ([`varitune_trace::capture`]), a [`CancelToken`] deadline scope,
//!   and [`std::panic::catch_unwind`]. A panicking job becomes a
//!   structured `panic` error; the worker thread never dies.
//!
//! Admission is bounded: at [`ServeConfig::queue_depth`] queued jobs the
//! server sheds with `overloaded` + `retry_after_ms` instead of queueing.
//! [`Server::shutdown`] drains gracefully — new work is refused with
//! `shutting_down`, queued jobs complete, per-job traces are flushed into
//! the returned [`DrainReport`].

use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use varitune_core::{Comparison, EvolutionConfig, EvolutionaryOptimizer, Flow, FlowError};
use varitune_libchar::GenerateConfig;
use varitune_netlist::McuConfig;
use varitune_trace::FlowTrace;
use varitune_variation::{cancel, CancelToken};

use crate::hash::hex64;
use crate::protocol::{
    error_response, ok_response, write_frame, Body, ErrorCode, FrameError, JobError, JobKind,
    Request,
};
use crate::registry::{Baseline, FlowSpec, FlowTemplate, Registry};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Queued-job bound; above it the server sheds.
    pub queue_depth: usize,
    /// Whether `poison` jobs (deliberate panics) are honored. Off by
    /// default; harnesses turn it on to exercise panic isolation.
    pub allow_poison: bool,
    /// Most resident library-cache entries (screened + rejected); the
    /// least recently used is evicted beyond it.
    pub lib_capacity: usize,
    /// Most resident flow-cache entries (each holds a characterized
    /// library and its design).
    pub flow_capacity: usize,
    /// Most resident baseline-cache entries (each holds a synthesized
    /// baseline run).
    pub baseline_capacity: usize,
    /// `retry_after_ms` sent with shed responses.
    pub retry_after_ms: u64,
    /// Per-job trace captures kept for the drain report (older ones are
    /// dropped first).
    pub trace_capacity: usize,
    /// Library-generation parameters shaping characterization.
    pub generate: GenerateConfig,
    /// Design-generation parameters.
    pub mcu: McuConfig,
    /// Inter-cell correlation for path sigma.
    pub rho: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            allow_poison: false,
            lib_capacity: 64,
            flow_capacity: 64,
            baseline_capacity: 128,
            retry_after_ms: 5,
            trace_capacity: 1024,
            generate: GenerateConfig::full(),
            mcu: McuConfig::small_for_tests(),
            rho: 0.0,
        }
    }
}

impl ServeConfig {
    /// A small, fast configuration for tests and harnesses: the defaults
    /// (full library — the reduced generator config lacks cell families
    /// the MCU mapper needs — with the small test design) and a shallow
    /// queue so shed paths are easy to exercise.
    #[must_use]
    pub fn for_tests() -> Self {
        Self::default()
    }
}

/// Monotonic counters the server keeps. All relaxed: they are reporting,
/// not synchronization.
#[derive(Debug, Default)]
struct Stats {
    connections: AtomicU64,
    frames: AtomicU64,
    protocol_errors: AtomicU64,
    bad_requests: AtomicU64,
    jobs_enqueued: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_ok: AtomicU64,
    jobs_shed: AtomicU64,
    jobs_rejected: AtomicU64,
    deadline_expired: AtomicU64,
    panics_isolated: AtomicU64,
    drain_refused: AtomicU64,
}

/// A point-in-time copy of the server counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Frames successfully read.
    pub frames: u64,
    /// Frame-level failures (corruption, oversized prefixes, mid-frame
    /// disconnects).
    pub protocol_errors: u64,
    /// Frames that parsed as JSON but not as a valid request.
    pub bad_requests: u64,
    /// Jobs admitted to the queue.
    pub jobs_enqueued: u64,
    /// Jobs that ran to a response (ok or error).
    pub jobs_completed: u64,
    /// Jobs that responded ok.
    pub jobs_ok: u64,
    /// Jobs refused with `overloaded`.
    pub jobs_shed: u64,
    /// Jobs refused with `rejected` (screening).
    pub jobs_rejected: u64,
    /// Jobs that hit their deadline.
    pub deadline_expired: u64,
    /// Panics caught and converted to structured errors.
    pub panics_isolated: u64,
    /// Jobs refused because the server was draining.
    pub drain_refused: u64,
}

impl Stats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            frames: self.frames.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            jobs_enqueued: self.jobs_enqueued.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            jobs_ok: self.jobs_ok.load(Ordering::Relaxed),
            jobs_shed: self.jobs_shed.load(Ordering::Relaxed),
            jobs_rejected: self.jobs_rejected.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            panics_isolated: self.panics_isolated.load(Ordering::Relaxed),
            drain_refused: self.drain_refused.load(Ordering::Relaxed),
        }
    }
}

struct Job {
    request: Request,
    reply: mpsc::Sender<String>,
}

struct Shared {
    config: ServeConfig,
    registry: Registry,
    queue: Mutex<VecDeque<Job>>,
    queue_ready: Condvar,
    draining: AtomicBool,
    stats: Stats,
    /// Per-job trace captures, newest last, bounded by `trace_capacity`.
    traces: Mutex<VecDeque<(String, FlowTrace)>>,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn keep_trace(&self, id: String, trace: FlowTrace) {
        let mut traces = lock(&self.traces);
        if traces.len() >= self.config.trace_capacity {
            traces.pop_front();
        }
        traces.push_back((id, trace));
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// What [`Server::shutdown`] returns after the drain completes.
pub struct DrainReport {
    /// Final counter values.
    pub stats: StatsSnapshot,
    /// Per-job trace captures (job id, trace), oldest first, bounded by
    /// [`ServeConfig::trace_capacity`].
    pub traces: Vec<(String, FlowTrace)>,
}

/// A running server. Dropping without [`Server::shutdown`] detaches the
/// threads (they keep serving until process exit); call `shutdown` for a
/// graceful drain.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds, spawns the worker pool and the accept loop, and returns.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(config: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let template = FlowTemplate {
            generate: config.generate.clone(),
            mcu: config.mcu.clone(),
            rho: config.rho,
        };
        let registry = Registry::new(
            template,
            config.lib_capacity,
            config.flow_capacity,
            config.baseline_capacity,
        );
        let workers_n = config.workers.max(1);
        let shared = Arc::new(Shared {
            config,
            registry,
            queue: Mutex::new(VecDeque::new()),
            queue_ready: Condvar::new(),
            draining: AtomicBool::new(false),
            stats: Stats::default(),
            traces: Mutex::new(VecDeque::new()),
        });
        let mut workers = Vec::with_capacity(workers_n);
        for _ in 0..workers_n {
            let shared = shared.clone();
            workers.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = shared.clone();
            let connections = connections.clone();
            std::thread::spawn(move || accept_loop(&listener, &shared, &connections))
        };
        Ok(Self {
            addr,
            shared,
            accept: Some(accept),
            workers,
            connections,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// The registry (for tests and harness assertions).
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// Graceful drain: refuse new work, finish the queue, join every
    /// thread, flush per-job traces.
    #[must_use]
    pub fn shutdown(mut self) -> DrainReport {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.queue_ready.notify_all();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let handles: Vec<_> = lock(&self.connections).drain(..).collect();
        for conn in handles {
            let _ = conn.join();
        }
        let traces = lock(&self.shared.traces).drain(..).collect();
        DrainReport {
            stats: self.shared.stats.snapshot(),
            traces,
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.draining() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                let shared = shared.clone();
                let handle = std::thread::spawn(move || connection_loop(stream, &shared));
                lock(connections).push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

/// Reads frames off one socket until EOF, fatal corruption, or drain.
fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    // Short read timeout so an idle connection notices the drain flag.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_nodelay(true);
    let mut reader = stream;
    loop {
        let mut writer = match reader.try_clone() {
            Ok(w) => w,
            Err(_) => return,
        };
        match read_frame_patient(&mut reader, || shared.draining()) {
            PatientRead::Frame(payload) => {
                shared.stats.frames.fetch_add(1, Ordering::Relaxed);
                if !serve_frame(&payload, &mut writer, shared) {
                    return;
                }
            }
            // Clean EOF, or drain while no frame was in flight.
            PatientRead::Eof | PatientRead::Drained => return,
            PatientRead::Error(e) => {
                // Corruption (oversized prefix, invalid UTF-8, mid-frame
                // disconnect): answer if the socket still works, then
                // close. Only this connection is affected.
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let err = JobError::new(ErrorCode::BadRequest, format!("protocol error: {e}"));
                let _ = write_frame(&mut writer, &error_response("", &err));
                return;
            }
        }
    }
}

/// Outcome of one [`read_frame_patient`] call.
enum PatientRead {
    /// A complete, valid frame.
    Frame(String),
    /// The peer hung up cleanly between frames.
    Eof,
    /// The drain flag went up while no frame (or only part of one) was in
    /// flight; the connection should close without counting an error.
    Drained,
    /// Corruption or a hard socket failure.
    Error(FrameError),
}

/// Resumable framed read over a socket with a read timeout.
///
/// Unlike [`crate::protocol::read_frame`], a `WouldBlock`/`TimedOut`
/// mid-frame is *not* a
/// protocol error: large frames written by slow or contended peers arrive
/// across several timeout windows, and the read simply continues where it
/// left off. Timeouts only matter between frames (idle poll for the drain
/// flag) — except that once `draining` reports true, a stalled partial
/// frame is abandoned so shutdown cannot hang on a wedged peer.
fn read_frame_patient(r: &mut TcpStream, draining: impl Fn() -> bool) -> PatientRead {
    use std::io::{ErrorKind, Read as _};
    let stalled = |e: &std::io::Error| {
        matches!(
            e.kind(),
            ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
        )
    };
    let mut header = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return PatientRead::Eof,
            Ok(0) => {
                return PatientRead::Error(FrameError::Io(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "disconnect inside frame header",
                )))
            }
            Ok(n) => got += n,
            Err(e) if stalled(&e) => {
                if draining() {
                    return PatientRead::Drained;
                }
            }
            Err(e) => return PatientRead::Error(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(header);
    if len as usize > crate::protocol::MAX_FRAME {
        return PatientRead::Error(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    let mut filled = 0usize;
    while filled < payload.len() {
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return PatientRead::Error(FrameError::Io(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "disconnect inside frame payload",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if stalled(&e) => {
                if draining() {
                    return PatientRead::Drained;
                }
            }
            Err(e) => return PatientRead::Error(FrameError::Io(e)),
        }
    }
    match String::from_utf8(payload) {
        Ok(s) => PatientRead::Frame(s),
        Err(_) => PatientRead::Error(FrameError::Utf8),
    }
}

/// Handles one well-framed payload. Returns `false` when the connection
/// should close.
fn serve_frame(payload: &str, writer: &mut impl Write, shared: &Arc<Shared>) -> bool {
    let request = match Request::parse(payload) {
        Ok(r) => r,
        Err(msg) => {
            shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            let err = JobError::new(ErrorCode::BadRequest, msg);
            return write_frame(writer, &error_response("", &err)).is_ok();
        }
    };
    let response = match request.kind {
        // Admin kinds bypass the queue: they must answer even under full
        // load or drain.
        JobKind::Ping => ok_response(&request.id, Body::new().str("pong", "1").finish().as_str()),
        JobKind::Stats => {
            let s = shared.stats.snapshot();
            let (lib_hits, lib_computes, _, lib_evictions) = shared.registry.libs.stats.snapshot();
            let (flow_hits, flow_computes, flow_failures, flow_evictions) =
                shared.registry.flows.stats.snapshot();
            let (base_hits, base_computes, _, base_evictions) =
                shared.registry.baselines.stats.snapshot();
            let mut body = Body::new();
            body.num("connections", s.connections)
                .num("frames", s.frames)
                .num("protocol_errors", s.protocol_errors)
                .num("bad_requests", s.bad_requests)
                .num("jobs_enqueued", s.jobs_enqueued)
                .num("jobs_completed", s.jobs_completed)
                .num("jobs_ok", s.jobs_ok)
                .num("jobs_shed", s.jobs_shed)
                .num("jobs_rejected", s.jobs_rejected)
                .num("deadline_expired", s.deadline_expired)
                .num("panics_isolated", s.panics_isolated)
                .num("drain_refused", s.drain_refused)
                .num("lib_cache_hits", lib_hits)
                .num("lib_cache_computes", lib_computes)
                .num("lib_cache_evictions", lib_evictions)
                .num("flow_cache_hits", flow_hits)
                .num("flow_cache_computes", flow_computes)
                .num("flow_cache_failures", flow_failures)
                .num("flow_cache_evictions", flow_evictions)
                .num("baseline_cache_hits", base_hits)
                .num("baseline_cache_computes", base_computes)
                .num("baseline_cache_evictions", base_evictions)
                .num(
                    "characterizations",
                    shared.registry.characterizations.load(Ordering::Relaxed),
                );
            ok_response(&request.id, &body.finish())
        }
        JobKind::Shutdown => {
            shared.draining.store(true, Ordering::SeqCst);
            shared.queue_ready.notify_all();
            ok_response(&request.id, &Body::new().str("draining", "1").finish())
        }
        _ => match enqueue_and_wait(request, shared) {
            Ok(response) => response,
            Err(stop) => return !stop,
        },
    };
    write_frame(writer, &response).is_ok()
}

/// Admission control + synchronous wait for the worker's answer.
/// `Err(true)` means the connection must close.
fn enqueue_and_wait(request: Request, shared: &Arc<Shared>) -> Result<String, bool> {
    let id = request.id.clone();
    if shared.draining() {
        shared.stats.drain_refused.fetch_add(1, Ordering::Relaxed);
        let err = JobError::new(ErrorCode::ShuttingDown, "server is draining");
        return Ok(error_response(&id, &err));
    }
    let (reply, response_rx) = mpsc::channel();
    {
        let mut queue = lock(&shared.queue);
        if queue.len() >= shared.config.queue_depth {
            drop(queue);
            shared.stats.jobs_shed.fetch_add(1, Ordering::Relaxed);
            let err = JobError {
                code: ErrorCode::Overloaded,
                message: format!("queue full at depth {}", shared.config.queue_depth),
                retry_after_ms: Some(shared.config.retry_after_ms),
            };
            return Ok(error_response(&id, &err));
        }
        queue.push_back(Job { request, reply });
        shared.stats.jobs_enqueued.fetch_add(1, Ordering::Relaxed);
    }
    shared.queue_ready.notify_one();
    // The worker pool always answers: panics are caught, deadlines fire,
    // drain completes the queue. A recv error means the job was dropped
    // without a response — only possible if a worker thread died, which
    // the isolation layer exists to prevent; close the connection.
    response_rx.recv().map_err(|_| true)
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.draining() {
                    return; // queue empty + draining: done
                }
                queue = shared
                    .queue_ready
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let response = run_job(&job.request, shared);
        shared.stats.jobs_completed.fetch_add(1, Ordering::Relaxed);
        // The connection may have hung up; the job's work still counted.
        let _ = job.reply.send(response);
    }
}

/// Executes one job inside the full isolation stack: per-job trace
/// recorder, deadline scope, panic boundary.
fn run_job(request: &Request, shared: &Arc<Shared>) -> String {
    let deadline = request
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let token = match deadline {
        Some(at) => CancelToken::with_deadline(at),
        None => CancelToken::new(),
    };
    let (outcome, trace) = varitune_trace::capture(|| {
        catch_unwind(AssertUnwindSafe(|| {
            cancel::with_token(&token, || handle_job(request, shared))
        }))
    });
    shared.keep_trace(request.id.clone(), trace);
    match outcome {
        Ok(Ok(body)) => {
            shared.stats.jobs_ok.fetch_add(1, Ordering::Relaxed);
            ok_response(&request.id, &body)
        }
        Ok(Err(mut err)) => {
            if err.code == ErrorCode::Cancelled && deadline.is_some() {
                err = JobError::new(
                    ErrorCode::Deadline,
                    format!(
                        "deadline of {} ms expired",
                        request.deadline_ms.unwrap_or_default()
                    ),
                );
            }
            match err.code {
                ErrorCode::Deadline => {
                    shared
                        .stats
                        .deadline_expired
                        .fetch_add(1, Ordering::Relaxed);
                }
                ErrorCode::Rejected => {
                    shared.stats.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
            error_response(&request.id, &err)
        }
        Err(payload) => {
            shared.stats.panics_isolated.fetch_add(1, Ordering::Relaxed);
            let err = JobError::new(
                ErrorCode::Panic,
                format!("job panicked: {}", panic_message(payload.as_ref())),
            );
            error_response(&request.id, &err)
        }
    }
}

fn panic_message(payload: &dyn std::any::Any) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

impl From<FlowError> for JobError {
    fn from(e: FlowError) -> Self {
        match e {
            FlowError::Rejected { reason } => JobError::new(ErrorCode::Rejected, reason),
            FlowError::Cancelled => JobError::new(ErrorCode::Cancelled, "cancelled at checkpoint"),
            other => JobError::new(ErrorCode::Failed, other.to_string()),
        }
    }
}

fn spec_of(request: &Request) -> FlowSpec {
    FlowSpec {
        text_hash: request.library_hash,
        strictness: request.strictness,
        seed: request.seed,
        mc_libraries: request.mc_libraries,
        threads: request.threads,
    }
}

/// The work dispatcher. Returns the rendered ok-body or a structured
/// error.
fn handle_job(request: &Request, shared: &Arc<Shared>) -> Result<String, JobError> {
    match request.kind {
        JobKind::Poison => {
            if shared.config.allow_poison {
                panic!("poison job {}", request.id);
            }
            Err(JobError::new(
                ErrorCode::Unsupported,
                "poison jobs are disabled on this server",
            ))
        }
        JobKind::Sta => handle_sta(request, shared),
        JobKind::Ssta => handle_ssta(request, shared),
        JobKind::Signoff => handle_signoff(request, shared),
        JobKind::Tune => handle_tune(request, shared),
        JobKind::Optimize => handle_optimize(request, shared),
        // Admin kinds are answered on the connection thread.
        JobKind::Ping | JobKind::Stats | JobKind::Shutdown => Err(JobError::new(
            ErrorCode::BadRequest,
            "admin kinds are not queued",
        )),
    }
}

/// The request's (cached) flow, fetched once, and its (cached) baseline
/// at the request's clock.
fn flow_and_baseline(
    request: &Request,
    shared: &Shared,
) -> Result<(Arc<Flow>, Arc<Baseline>), JobError> {
    let spec = spec_of(request);
    let flow = shared.registry.flow(&request.library, spec)?;
    let baseline = shared
        .registry
        .baseline(&flow, spec, request.clock_period_ps)?;
    Ok((flow, baseline))
}

/// `sta` job: baseline statistical timing of the (cached) flow.
fn handle_sta(request: &Request, shared: &Arc<Shared>) -> Result<String, JobError> {
    let (_, baseline) = flow_and_baseline(request, shared)?;
    let mut body = Body::new();
    body.str("kind", "sta")
        .str("lib_hash", &hex64(request.library_hash))
        .num("clock_period_ps", request.clock_period_ps)
        .float("worst_slack", baseline.worst_slack)
        .float("mean", baseline.run.design.mean)
        .float("sigma", baseline.run.sigma())
        .float("area", baseline.run.area())
        .num("path_count", baseline.run.paths.len() as u64)
        .str("met_timing", &baseline.run.synthesis.met_timing.to_string());
    Ok(body.finish())
}

/// `ssta` job: statistical STA of the (cached) baseline — endpoint count,
/// design mean/sigma, criticality normalization, yield at the requested
/// clock, and the bit-exact report digest (identical for any `threads`).
fn handle_ssta(request: &Request, shared: &Arc<Shared>) -> Result<String, JobError> {
    let (flow, baseline) = flow_and_baseline(request, shared)?;
    let report = flow.ssta(&baseline.run, varitune_sta::SstaOptions::default())?;
    let mut body = Body::new();
    body.str("kind", "ssta")
        .str("lib_hash", &hex64(request.library_hash))
        .num("clock_period_ps", request.clock_period_ps)
        .num("endpoints", report.endpoints.len() as u64)
        .float("design_mean", report.design_mean())
        .float("design_sigma", report.design_sigma())
        .float("yield_at_clock", report.yield_at(request.clock_period_ns()))
        .float("criticality_sum", report.criticality_sum())
        .num("digest", report.digest());
    Ok(body.finish())
}

/// `signoff` job: baseline run plus the ingestion/screening ledger.
fn handle_signoff(request: &Request, shared: &Arc<Shared>) -> Result<String, JobError> {
    let (flow, baseline) = flow_and_baseline(request, shared)?;
    let mut body = Body::new();
    body.str("kind", "signoff")
        .str("lib_hash", &hex64(request.library_hash))
        .str("strictness", &flow.report.strictness.to_string())
        .num("parsed_cells", flow.report.parsed_cells as u64)
        .num("kept_cells", flow.report.kept_cells as u64)
        .num("degradations", flow.report.degradations.len() as u64)
        .float("worst_slack", baseline.worst_slack)
        .float("mean", baseline.run.design.mean)
        .float("sigma", baseline.run.sigma())
        .num("path_count", baseline.run.paths.len() as u64)
        .str("met_timing", &baseline.run.synthesis.met_timing.to_string());
    Ok(body.finish())
}

/// `tune` job: paper-method tuning compared against the cached baseline.
fn handle_tune(request: &Request, shared: &Arc<Shared>) -> Result<String, JobError> {
    let (flow, baseline) = flow_and_baseline(request, shared)?;
    let synth_cfg = varitune_synth::SynthConfig::with_clock_period(request.clock_period_ns());
    let (tuned, run) = flow.run_tuned(request.method, tuning_params(request), &synth_cfg)?;
    let cmp = Comparison::between(&baseline.run, &run);
    let mut body = Body::new();
    body.str("kind", "tune")
        .str("lib_hash", &hex64(request.library_hash))
        .str("method", &request.method.to_string())
        .num("param_micro", request.param_micro)
        .float("baseline_sigma", cmp.baseline_sigma)
        .float("tuned_sigma", cmp.tuned_sigma)
        .float("sigma_reduction_pct", cmp.sigma_reduction_pct())
        .float("area_increase_pct", cmp.area_increase_pct())
        .num("restricted_pins", tuned.restricted_pins as u64)
        .num("unrestricted_pins", tuned.unrestricted_pins as u64);
    Ok(body.finish())
}

fn tuning_params(request: &Request) -> varitune_core::TuningParams {
    use varitune_core::{TuningMethod, TuningParams};
    match request.method {
        TuningMethod::SigmaCeiling => TuningParams::with_sigma_ceiling(request.param()),
        TuningMethod::CellStrengthLoadSlope | TuningMethod::CellLoadSlope => {
            TuningParams::with_load_slope(request.param())
        }
        TuningMethod::CellStrengthSlewSlope | TuningMethod::CellSlewSlope => {
            TuningParams::with_slew_slope(request.param())
        }
    }
}

/// `optimize` job: deterministic evolutionary Pareto search.
fn handle_optimize(request: &Request, shared: &Arc<Shared>) -> Result<String, JobError> {
    let flow = shared.registry.flow(&request.library, spec_of(request))?;
    let synth_cfg = varitune_synth::SynthConfig::with_clock_period(request.clock_period_ns());
    let optimizer = EvolutionaryOptimizer::new(EvolutionConfig {
        seed: request.seed,
        population: request.population,
        generations: request.generations,
        threads: request.threads,
        seed_paper_methods: false,
    });
    let mut candidates = flow.optimize(&optimizer, &synth_cfg)?;
    // Deterministic front order: by (sigma bits, area bits).
    candidates.sort_by_key(|c| (c.run.sigma().to_bits(), c.run.area().to_bits()));
    let mut front = String::from("[");
    for (i, c) in candidates.iter().enumerate() {
        if i > 0 {
            front.push(',');
        }
        let mut point = Body::new();
        point
            .float("sigma", c.run.sigma())
            .float("area", c.run.area())
            .num("restricted_pins", c.tuned.restricted_pins as u64);
        front.push_str(&point.finish());
    }
    front.push(']');
    let mut body = Body::new();
    body.str("kind", "optimize")
        .str("lib_hash", &hex64(request.library_hash))
        .num("generations", request.generations as u64)
        .num("population", request.population as u64)
        .num("front_size", candidates.len() as u64)
        .raw("front", &front);
    Ok(body.finish())
}
