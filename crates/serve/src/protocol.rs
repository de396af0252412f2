//! Wire protocol: length-prefixed JSON frames, requests, and responses.
//!
//! A frame is a 4-byte big-endian length followed by that many bytes of
//! UTF-8 JSON in the [`varitune_trace::json`] subset (objects, arrays,
//! strings, unsigned integers — no floats or booleans). Floating-point
//! results are therefore rendered twice in responses: as a shortest
//! round-trip decimal *string* for humans and as the IEEE-754 bit pattern
//! in a `*_bits` integer for machines; both are deterministic.
//!
//! Request numerics arrive in integer units for the same reason: clock
//! periods in picoseconds (`clock_period_ps`), tuning parameters in
//! millionths (`param_micro`), deadlines in milliseconds (`deadline_ms`).

use std::fmt;
use std::io::{self, Read, Write};
use std::ops::RangeInclusive;

use varitune_core::quarantine::Strictness;
use varitune_core::TuningMethod;
use varitune_trace::json::{self, Json};

use crate::hash::xxh64;

/// Hard ceiling on a frame's payload size. A length prefix above this is a
/// protocol error (the connection is told so and closed), not an
/// allocation: a hostile 4 GiB prefix costs the server nothing.
pub const MAX_FRAME: usize = 16 << 20;

/// Error from [`read_frame`].
#[derive(Debug)]
pub enum FrameError {
    /// The underlying socket failed (including mid-frame disconnects,
    /// surfaced as `UnexpectedEof`).
    Io(io::Error),
    /// The length prefix exceeds [`MAX_FRAME`].
    TooLarge(u32),
    /// The payload is not valid UTF-8.
    Utf8,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o failed: {e}"),
            FrameError::TooLarge(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::Utf8 => f.write_str("frame payload is not valid utf-8"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame: 4-byte big-endian length, then the payload.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "payload exceeds u32 length"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Reads one frame. `Ok(None)` on a clean EOF *before* any header byte — a
/// peer hanging up between requests is not an error.
///
/// # Errors
///
/// [`FrameError::Io`] on socket failure or a disconnect after the frame
/// started (`UnexpectedEof`), [`FrameError::TooLarge`] on a hostile length
/// prefix, [`FrameError::Utf8`] on a non-UTF-8 payload.
pub fn read_frame(r: &mut impl Read) -> Result<Option<String>, FrameError> {
    let mut header = [0u8; 4];
    match r.read(&mut header)? {
        0 => return Ok(None),
        mut got => {
            while got < 4 {
                let n = r.read(&mut header[got..])?;
                if n == 0 {
                    return Err(FrameError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "disconnect inside frame header",
                    )));
                }
                got += n;
            }
        }
    }
    let len = u32::from_be_bytes(header);
    if len as usize > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        FrameError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("disconnect inside frame payload: {e}"),
        ))
    })?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| FrameError::Utf8)
}

/// What a request asks the server to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Prepare (or hit the cache for) the library's flow and report its
    /// baseline statistical timing.
    Sta,
    /// Statistical STA on the baseline: per-endpoint moments propagated as
    /// canonical first-order forms, criticality, and yield at the
    /// requested clock.
    Ssta,
    /// Tune the library with a paper method and compare against baseline.
    Tune,
    /// Baseline run plus the ingestion/screening ledger.
    Signoff,
    /// Evolutionary Pareto search; responds with the front.
    Optimize,
    /// Liveness probe; answered inline, never queued.
    Ping,
    /// Server counters; answered inline. Volatile by design (the only
    /// non-deterministic response kind).
    Stats,
    /// Begin a graceful drain.
    Shutdown,
    /// Deliberately panics inside the worker — exercises panic isolation.
    /// Only honored when [`crate::ServeConfig::allow_poison`] is set.
    Poison,
}

impl JobKind {
    /// Whether this kind goes through the bounded work queue (as opposed to
    /// being answered inline on the connection thread).
    #[must_use]
    pub fn is_work(self) -> bool {
        matches!(
            self,
            JobKind::Sta
                | JobKind::Ssta
                | JobKind::Tune
                | JobKind::Signoff
                | JobKind::Optimize
                | JobKind::Poison
        )
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "sta" => JobKind::Sta,
            "ssta" => JobKind::Ssta,
            "tune" => JobKind::Tune,
            "signoff" => JobKind::Signoff,
            "optimize" => JobKind::Optimize,
            "ping" => JobKind::Ping,
            "stats" => JobKind::Stats,
            "shutdown" => JobKind::Shutdown,
            "poison" => JobKind::Poison,
            _ => return None,
        })
    }
}

/// A parsed job request.
#[derive(Debug, Clone)]
pub struct Request {
    /// What to do.
    pub kind: JobKind,
    /// Caller-chosen id, echoed in the response.
    pub id: String,
    /// Liberty text of the library to serve. Required for work kinds.
    pub library: String,
    /// Content hash of `library` ([`xxh64`] of its bytes), computed once
    /// at decode: it keys every cache layer and is echoed as `lib_hash`.
    pub library_hash: u64,
    /// Master seed for characterization / search.
    pub seed: u64,
    /// Monte-Carlo libraries behind the statistical library.
    pub mc_libraries: usize,
    /// Worker threads *inside* the job (characterization, synthesis
    /// re-propagation). Results are bit-identical for any value.
    pub threads: usize,
    /// Ingestion policy.
    pub strictness: Strictness,
    /// Clock period in picoseconds.
    pub clock_period_ps: u64,
    /// Tuning method (tune jobs).
    pub method: TuningMethod,
    /// Tuning parameter in millionths (tune jobs): the sigma ceiling or
    /// slope threshold times 1e6.
    pub param_micro: u64,
    /// Per-request deadline in milliseconds, enforced cooperatively at flow
    /// checkpoints.
    pub deadline_ms: Option<u64>,
    /// Generations after the initial evaluation (optimize jobs).
    pub generations: usize,
    /// Random genomes seeded into the initial population (optimize jobs).
    pub population: usize,
}

fn parse_strictness(s: &str) -> Option<Strictness> {
    Some(match s {
        "strict" => Strictness::Strict,
        "quarantine" => Strictness::Quarantine,
        "best-effort" => Strictness::BestEffort,
        _ => return None,
    })
}

fn parse_method(s: &str) -> Option<TuningMethod> {
    TuningMethod::ALL
        .iter()
        .copied()
        .find(|m| m.to_string() == s)
}

/// A string member, or `None` when it is absent.
///
/// # Errors
///
/// The member's name when it is present but not a string (`null`
/// included).
fn str_member<'a>(root: &'a Json, key: &str) -> Result<Option<&'a str>, String> {
    match root.get(key) {
        None => Ok(None),
        Some(Json::String(s)) => Ok(Some(s)),
        Some(_) => Err(format!("\"{key}\" must be a string")),
    }
}

/// An unsigned integer member, or `None` when it is absent.
///
/// # Errors
///
/// The member's name when it is present but not an unsigned integer
/// (`null` included).
fn num_member(root: &Json, key: &str) -> Result<Option<u64>, String> {
    match root.get(key) {
        None => Ok(None),
        Some(Json::Number(n)) => Ok(Some(*n)),
        Some(_) => Err(format!("\"{key}\" must be an unsigned integer")),
    }
}

/// A numeric member, or `default` when it is absent.
///
/// # Errors
///
/// The member's name when it is not an unsigned integer, and its allowed
/// range when its value lies outside `range`.
fn bounded(
    root: &Json,
    key: &str,
    default: u64,
    range: RangeInclusive<u64>,
) -> Result<u64, String> {
    let value = num_member(root, key)?.unwrap_or(default);
    if range.contains(&value) {
        return Ok(value);
    }
    let allowed = match (*range.start(), *range.end()) {
        (lo, u64::MAX) => format!("at least {lo}"),
        (0, hi) => format!("at most {hi}"),
        (lo, hi) => format!("between {lo} and {hi}"),
    };
    Err(format!("\"{key}\" must be {allowed}, got {value}"))
}

impl Request {
    /// Parses a request payload. Absent optional members take documented
    /// defaults; a missing `kind`, a member of the wrong JSON type (`null`
    /// included), an unknown enum string, a non-object payload, a numeric
    /// member outside its range or a zero sigma ceiling is an error
    /// (answered as `bad_request`). The library text is moved out of the
    /// parsed tree, not copied.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem.
    pub fn parse(payload: &str) -> Result<Self, String> {
        let mut root = json::parse(payload).map_err(|e| e.to_string())?;
        let Json::Object(members) = &mut root else {
            return Err("request must be a JSON object".to_string());
        };
        let library = match members.iter_mut().find(|(key, _)| key == "library") {
            None => String::new(),
            Some((_, Json::String(text))) => std::mem::take(text),
            Some(_) => return Err("\"library\" must be a string".to_string()),
        };
        let kind = str_member(&root, "kind")?.ok_or("missing \"kind\"")?;
        let kind = JobKind::parse(kind).ok_or_else(|| format!("unknown kind {kind:?}"))?;
        let id = str_member(&root, "id")?.unwrap_or("").to_string();
        if kind.is_work() && kind != JobKind::Poison && library.is_empty() {
            return Err(format!("kind {kind:?} requires a \"library\""));
        }
        let strictness = match str_member(&root, "strictness")? {
            None => Strictness::Strict,
            Some(s) => parse_strictness(s).ok_or_else(|| format!("unknown strictness {s:?}"))?,
        };
        let method = match str_member(&root, "method")? {
            None => TuningMethod::SigmaCeiling,
            Some(s) => parse_method(s).ok_or_else(|| format!("unknown method {s:?}"))?,
        };
        let param_micro = num_member(&root, "param_micro")?.unwrap_or(20_000);
        // Sigma is positive everywhere, so a zero ceiling accepts no table
        // point: the tuner leaves every pin unrestricted and the job would
        // answer the untuned baseline. A slope threshold of 0 is a real
        // bound and stays accepted.
        if kind == JobKind::Tune && method == TuningMethod::SigmaCeiling && param_micro == 0 {
            return Err(format!(
                "\"param_micro\" must be at least 1 for method \"{method}\", got 0"
            ));
        }
        Ok(Self {
            kind,
            id,
            seed: num_member(&root, "seed")?.unwrap_or(7),
            mc_libraries: bounded(&root, "mc_libraries", 6, 1..=1024)? as usize,
            threads: bounded(&root, "threads", 1, 0..=64)? as usize,
            strictness,
            clock_period_ps: bounded(&root, "clock_period_ps", 8000, 1..=u64::MAX)?,
            method,
            param_micro,
            deadline_ms: num_member(&root, "deadline_ms")?,
            generations: bounded(&root, "generations", 2, 0..=64)? as usize,
            population: bounded(&root, "population", 4, 0..=256)? as usize,
            library_hash: xxh64(library.as_bytes()),
            library,
        })
    }

    /// Clock period in nanoseconds.
    #[must_use]
    pub fn clock_period_ns(&self) -> f64 {
        self.clock_period_ps as f64 / 1000.0
    }

    /// Tuning parameter as a float (`param_micro` / 1e6).
    #[must_use]
    pub fn param(&self) -> f64 {
        self.param_micro as f64 / 1e6
    }
}

/// Structured failure codes a response can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame parsed as JSON but is not a valid request.
    BadRequest,
    /// Screening refused the library under the requested strictness
    /// (permanent for this (library, strictness) pair; negatively cached).
    Rejected,
    /// The bounded queue is full; retry after `retry_after_ms`.
    Overloaded,
    /// The request's own deadline expired mid-flow.
    Deadline,
    /// Cancelled without a deadline (drain-time abort).
    Cancelled,
    /// The job panicked; the worker caught it and lives on.
    Panic,
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// The flow failed (synthesis / timing / statistics error).
    Failed,
    /// The request kind is recognized but disabled on this server.
    Unsupported,
}

impl ErrorCode {
    /// The wire string for this code.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Rejected => "rejected",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Deadline => "deadline",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::Panic => "panic",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Failed => "failed",
            ErrorCode::Unsupported => "unsupported",
        }
    }

    /// Whether a client retry can possibly succeed.
    #[must_use]
    pub fn is_retryable(self) -> bool {
        matches!(self, ErrorCode::Overloaded)
    }
}

/// A structured job failure, rendered into the `error` member of a
/// response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// Machine-readable code.
    pub code: ErrorCode,
    /// Human-readable account.
    pub message: String,
    /// For [`ErrorCode::Overloaded`]: how long the client should back off
    /// (its retry policy adds deterministic jitter on top).
    pub retry_after_ms: Option<u64>,
}

impl JobError {
    /// A failure with just a code and message.
    #[must_use]
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }
}

/// Renders a float deterministically for a response: shortest round-trip
/// decimal. Pair with [`bits`] so machines never re-parse decimals.
#[must_use]
pub fn fmt_f64(x: f64) -> String {
    format!("{x:?}")
}

/// IEEE-754 bit pattern of `x` for the `*_bits` response fields.
#[must_use]
pub fn bits(x: f64) -> u64 {
    x.to_bits()
}

/// Builder for the deterministic response JSON: fields render in insertion
/// order, strings escape through the shared trace escaper.
#[derive(Debug, Default)]
pub struct Body {
    out: String,
}

impl Body {
    /// An empty object body.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn sep(&mut self) {
        if !self.out.is_empty() {
            self.out.push(',');
        }
    }

    /// Adds a string member.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.sep();
        json::write_escaped(&mut self.out, key);
        self.out.push(':');
        json::write_escaped(&mut self.out, value);
        self
    }

    /// Adds an unsigned integer member.
    pub fn num(&mut self, key: &str, value: u64) -> &mut Self {
        self.sep();
        json::write_escaped(&mut self.out, key);
        self.out.push_str(&format!(":{value}"));
        self
    }

    /// Adds the decimal-string + `_bits` pair for a float.
    pub fn float(&mut self, key: &str, value: f64) -> &mut Self {
        self.str(key, &fmt_f64(value));
        self.num(&format!("{key}_bits"), bits(value))
    }

    /// Adds a raw, already-rendered JSON value.
    pub fn raw(&mut self, key: &str, rendered: &str) -> &mut Self {
        self.sep();
        json::write_escaped(&mut self.out, key);
        self.out.push(':');
        self.out.push_str(rendered);
        self
    }

    /// The rendered object.
    #[must_use]
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.out)
    }
}

/// Renders a success response: `{"id":…,"ok":<body>}`.
#[must_use]
pub fn ok_response(id: &str, body: &str) -> String {
    let mut out = String::with_capacity(body.len() + id.len() + 16);
    out.push_str("{\"id\":");
    json::write_escaped(&mut out, id);
    out.push_str(",\"ok\":");
    out.push_str(body);
    out.push('}');
    out
}

/// Renders a failure response: `{"id":…,"error":{…}}`.
#[must_use]
pub fn error_response(id: &str, error: &JobError) -> String {
    let mut body = Body::new();
    body.str("code", error.code.as_str());
    body.str("message", &error.message);
    if let Some(ms) = error.retry_after_ms {
        body.num("retry_after_ms", ms);
    }
    let mut out = String::new();
    out.push_str("{\"id\":");
    json::write_escaped(&mut out, id);
    out.push_str(",\"error\":");
    out.push_str(&body.finish());
    out.push('}');
    out
}

/// Pulls the error code string out of a rendered response, if it is an
/// error response.
#[must_use]
pub fn response_error_code(payload: &str) -> Option<String> {
    let root = json::parse(payload).ok()?;
    let code = root.get("error")?.get("code")?.as_str()?;
    Some(code.to_string())
}

/// Pulls `retry_after_ms` out of a rendered error response.
#[must_use]
pub fn response_retry_after_ms(payload: &str) -> Option<u64> {
    let root = json::parse(payload).ok()?;
    root.get("error")?.get("retry_after_ms")?.as_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"kind\":\"ping\"}").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "{\"kind\":\"ping\"}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocating() {
        let mut buf = u32::MAX.to_be_bytes().to_vec();
        buf.extend_from_slice(b"xx");
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(FrameError::TooLarge(u32::MAX))
        ));
    }

    #[test]
    fn truncated_header_and_payload_are_io_errors() {
        let buf = [0u8, 0, 1]; // 3 of 4 header bytes
        assert!(matches!(read_frame(&mut &buf[..]), Err(FrameError::Io(_))));
        let mut buf = 5u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"abc"); // 3 of 5 payload bytes
        assert!(matches!(read_frame(&mut &buf[..]), Err(FrameError::Io(_))));
    }

    #[test]
    fn invalid_utf8_payload_is_detected() {
        let mut buf = 2u32.to_be_bytes().to_vec();
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(read_frame(&mut &buf[..]), Err(FrameError::Utf8)));
    }

    #[test]
    fn request_parses_with_defaults() {
        let req = Request::parse(r#"{"kind":"sta","id":"j1","library":"library (x) {}"}"#).unwrap();
        assert_eq!(req.kind, JobKind::Sta);
        assert_eq!(req.id, "j1");
        assert_eq!(req.seed, 7);
        assert_eq!(req.strictness, Strictness::Strict);
        assert_eq!(req.clock_period_ps, 8000);
        assert!(req.deadline_ms.is_none());
        assert_eq!(req.library, "library (x) {}");
        assert_eq!(req.library_hash, xxh64(b"library (x) {}"));
        let twice = Request::parse(r#"{"kind":"sta","library":"a","library":"b"}"#).unwrap();
        assert_eq!(twice.library, "a", "the first member wins");
        // Every limit's boundary is accepted as sent.
        let bounds = [
            ("mc_libraries", 1),
            ("mc_libraries", 1024),
            ("generations", 64),
            ("population", 256),
            ("threads", 64),
            ("threads", 0),
            ("clock_period_ps", 1),
        ];
        for (field, value) in bounds {
            let payload = format!(r#"{{"kind":"optimize","library":"l","{field}":{value}}}"#);
            let req = Request::parse(&payload).unwrap();
            let got = match field {
                "mc_libraries" => req.mc_libraries as u64,
                "generations" => req.generations as u64,
                "population" => req.population as u64,
                "threads" => req.threads as u64,
                _ => req.clock_period_ps,
            };
            assert_eq!(got, value, "{field}");
        }
    }

    #[test]
    fn request_rejects_bad_inputs() {
        assert!(Request::parse("[]").is_err());
        assert!(Request::parse(r#"{"id":"x"}"#).is_err());
        assert!(Request::parse(r#"{"kind":"dance"}"#).is_err());
        assert!(
            Request::parse(r#"{"kind":"sta"}"#).is_err(),
            "library required"
        );
        assert!(Request::parse(r#"{"kind":"sta","library":"l","strictness":"??"}"#).is_err());
        assert!(Request::parse(r#"{"kind":"tune","library":"l","method":"??"}"#).is_err());
        // A field outside its range is named with the range, not clamped.
        let out_of_range = [
            ("mc_libraries", 0, "between 1 and 1024"),
            ("mc_libraries", 1025, "between 1 and 1024"),
            ("generations", 65, "at most 64"),
            ("population", 257, "at most 256"),
            ("threads", 65, "at most 64"),
            ("clock_period_ps", 0, "at least 1"),
        ];
        for (field, value, allowed) in out_of_range {
            let payload = format!(r#"{{"kind":"optimize","library":"l","{field}":{value}}}"#);
            assert_eq!(
                Request::parse(&payload).unwrap_err(),
                format!("\"{field}\" must be {allowed}, got {value}")
            );
        }
        // A member of the wrong JSON type, or null, is named with the type
        // it needs instead of silently taking its default.
        let numeric = [
            "seed",
            "mc_libraries",
            "threads",
            "clock_period_ps",
            "param_micro",
            "deadline_ms",
            "generations",
            "population",
        ];
        for field in numeric {
            for wrong in [r#""2000""#, "null", "[1]"] {
                let payload = format!(r#"{{"kind":"tune","library":"l","{field}":{wrong}}}"#);
                assert_eq!(
                    Request::parse(&payload).unwrap_err(),
                    format!("\"{field}\" must be an unsigned integer"),
                    "{field}: {wrong}"
                );
            }
        }
        for field in ["kind", "id", "strictness", "method", "library"] {
            for wrong in ["3", "null", "{}"] {
                let payload = match field {
                    "kind" => format!(r#"{{"library":"l","kind":{wrong}}}"#),
                    "library" => format!(r#"{{"kind":"sta","library":{wrong}}}"#),
                    _ => format!(r#"{{"kind":"tune","library":"l","{field}":{wrong}}}"#),
                };
                assert_eq!(
                    Request::parse(&payload).unwrap_err(),
                    format!("\"{field}\" must be a string"),
                    "{field}: {wrong}"
                );
            }
        }
        // A zero sigma ceiling would tune nothing and answer the baseline.
        assert_eq!(
            Request::parse(r#"{"kind":"tune","library":"l","param_micro":0}"#).unwrap_err(),
            "\"param_micro\" must be at least 1 for method \"sigma ceiling\", got 0"
        );
    }

    #[test]
    fn tune_parameter_boundaries_are_accepted() {
        let req = Request::parse(r#"{"kind":"tune","library":"l","param_micro":1}"#).unwrap();
        assert_eq!(
            (req.method, req.param_micro),
            (TuningMethod::SigmaCeiling, 1)
        );
        // A slope threshold of 0 is a real bound.
        let req = Request::parse(
            r#"{"kind":"tune","library":"l","method":"cell load slope","param_micro":0}"#,
        )
        .unwrap();
        assert_eq!(
            (req.method, req.param_micro),
            (TuningMethod::CellLoadSlope, 0)
        );
    }

    #[test]
    fn method_strings_round_trip() {
        for m in TuningMethod::ALL {
            assert_eq!(parse_method(&m.to_string()), Some(m));
        }
    }

    #[test]
    fn responses_render_deterministically() {
        let mut body = Body::new();
        body.str("kind", "sta")
            .float("sigma", 0.125)
            .num("paths", 3);
        let ok = ok_response("j\"7", &body.finish());
        assert_eq!(
            ok,
            "{\"id\":\"j\\\"7\",\"ok\":{\"kind\":\"sta\",\"sigma\":\"0.125\",\"sigma_bits\":4593671619917905920,\"paths\":3}}"
        );
        // The rendered response stays inside the trace JSON subset.
        assert!(json::parse(&ok).is_ok());
        let err = error_response(
            "j2",
            &JobError {
                code: ErrorCode::Overloaded,
                message: "queue full".to_string(),
                retry_after_ms: Some(5),
            },
        );
        assert_eq!(response_error_code(&err).as_deref(), Some("overloaded"));
        assert_eq!(response_retry_after_ms(&err), Some(5));
    }
}
