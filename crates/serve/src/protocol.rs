//! The `kfused` wire protocol: JSONL requests and responses.
//!
//! One request per line, one response per line, in both the stdin and
//! Unix-socket front-ends. Every type here maps 1:1 onto the JSON
//! schemas documented in `SERVING.md` at the repository root — that file
//! is the normative reference; this module is its implementation.
//!
//! Requests parse into [`Request`]; responses are built through
//! [`ok_response`] / [`error_response`] so field presence is uniform:
//! an `"ok": true` response always carries `result`, an `"ok": false`
//! response always carries `error.code` (one of [`ErrorCode`]) and
//! `error.message`, and the client-chosen `id` is echoed verbatim on
//! both (or `null` when the request carried none / could not be parsed).

use kfuse_ir::Program;
use serde::{Deserialize, Serialize};
use serde_json::{Map, Number, Value};

/// Wire-protocol version, reported by the `ping` op. Bumped on any
/// incompatible schema change.
pub const PROTOCOL_VERSION: u32 = 1;

/// One parsed request line.
///
/// `op` selects the operation; every other field is optional and
/// op-specific (see `SERVING.md` for which ops read which fields).
/// Unknown ops parse fine and are rejected with a structured
/// [`ErrorCode::Unsupported`] error rather than a parse failure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    /// Required in multi-worker daemons to match responses (which may
    /// complete out of submission order) back to requests.
    #[serde(default)]
    pub id: Option<String>,
    /// The operation: `"ping"`, `"solve"`, `"verify"`, `"stats"`, or
    /// `"shutdown"`.
    pub op: String,
    /// Inline program, as the `kfuse_ir::Program` JSON `kfuse example`
    /// emits. Exactly one of `program` / `example` is required for
    /// `solve` and `verify`.
    #[serde(default)]
    pub program: Option<InlineProgram>,
    /// Built-in example name (`kfuse_workloads::by_name`): `quickstart`,
    /// `rk3`, `fig3`, `scale-les`, `homme`, `suite`, `synth<N>`.
    #[serde(default)]
    pub example: Option<String>,
    /// Target device: `"k20x"` (default), `"k40"`, or `"gtx750ti"`.
    #[serde(default)]
    pub gpu: Option<String>,
    /// Solver seed; defaults to the daemon's `--seed` (17).
    #[serde(default)]
    pub seed: Option<u64>,
    /// Anytime budget in whole milliseconds, measured from *admission*
    /// (enqueue time), so queue wait counts against it. A request whose
    /// budget expires while still queued is rejected with
    /// [`ErrorCode::BudgetExceeded`]; one that expires mid-solve returns
    /// the best plan found so far (never below the greedy floor).
    #[serde(default)]
    pub budget_ms: Option<u64>,
    /// For `verify`: the plan to check, as groups of kernel indices
    /// (the same shape `solve` returns in `result.groups`).
    #[serde(default)]
    pub plan: Option<Vec<Vec<u32>>>,
}

/// A request's inline `program`, kept as the exact JSON text the client
/// sent. Reading the request line validates it as JSON and copies its
/// bytes, nothing more; the worker [parses](InlineProgram::parse) it only
/// when the daemon does not already hold the context of those very bytes.
///
/// JSON that is not a `Program` does not make the *request* malformed:
/// the worker answers its type error with [`ErrorCode::InvalidProgram`].
#[derive(Clone)]
pub struct InlineProgram {
    text: String,
}

impl InlineProgram {
    /// The program's JSON text, byte for byte as it stood in the request
    /// line (a request read from a `Value` tree carries the tree printed
    /// compactly).
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The program the text holds, or the type error that says why it is
    /// not one.
    pub fn parse(&self) -> Result<Program, String> {
        serde_json::from_str(&self.text).map_err(|e| e.to_string())
    }
}

/// What the text parses to, so that two requests read from different
/// texts of the same program print alike.
impl std::fmt::Debug for InlineProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("InlineProgram").field(&self.parse()).finish()
    }
}

impl Deserialize for InlineProgram {
    fn deserialize_value(v: Value) -> Result<Self, serde::Error> {
        let text = serde_json::to_string(&v).map_err(serde::Error::msg)?;
        Ok(InlineProgram { text })
    }

    fn deserialize_json(p: &mut serde::Scanner<'_>) -> Result<Self, serde::Error> {
        let text = p.value_text()?.to_owned();
        Ok(InlineProgram { text })
    }
}

impl Serialize for InlineProgram {
    fn serialize_value(&self) -> Result<Value, serde::Error> {
        serde_json::from_str(&self.text).map_err(serde::Error::msg)
    }
}

/// Structured error codes, the `error.code` values of the wire protocol.
///
/// The full table — with HTTP analogies, retry semantics and worked
/// examples — is in `SERVING.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON, or lacked a required field (`op`).
    MalformedRequest,
    /// The program was unresolvable: bad inline `program` JSON, failed
    /// `Program::validate`, unknown `example` name, or neither/both of
    /// `program` and `example` given.
    InvalidProgram,
    /// Backpressure: the bounded request queue is full. The request was
    /// *not* admitted; retry after `error.retry_after_ms` (429-style —
    /// the daemon never buffers unboundedly).
    QueueFull,
    /// The request's `budget_ms` elapsed before a worker could begin the
    /// solve (the queue ate the whole budget).
    BudgetExceeded,
    /// `verify` found error-severity diagnostics; they are listed in
    /// `error.diagnostics`.
    VerifierRejected,
    /// The daemon is draining after `shutdown`: in-flight requests
    /// finish, new ones are refused.
    ShuttingDown,
    /// The request parsed but asks for something the daemon cannot do:
    /// unknown `op`, unknown `gpu`, or an op/field combination the
    /// protocol does not define.
    Unsupported,
    /// A worker panicked while processing the request. The request is
    /// lost, the daemon is not: the worker takes the next job. A bug in
    /// the daemon, never the client's to fix — report it.
    InternalError,
}

impl ErrorCode {
    /// The stable snake_case wire string for this code.
    pub const fn as_str(self) -> &'static str {
        match self {
            ErrorCode::MalformedRequest => "malformed_request",
            ErrorCode::InvalidProgram => "invalid_program",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::BudgetExceeded => "budget_exceeded",
            ErrorCode::VerifierRejected => "verifier_rejected",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::InternalError => "internal_error",
        }
    }
}

/// Build a JSON object [`Value`] from `(key, value)` pairs, preserving
/// insertion order (responses are byte-reproducible in `--workers 1`
/// mode, so field order must be deterministic).
pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    let mut m = Map::new();
    for (k, v) in fields {
        m.insert(k.to_string(), v);
    }
    Value::Object(m)
}

/// The echoed `id` field: the client's string, or `null`.
fn id_value(id: Option<&str>) -> Value {
    match id {
        Some(s) => Value::String(s.to_string()),
        None => Value::Null,
    }
}

/// Serialize one success response line (no trailing newline).
pub fn ok_response(id: Option<&str>, result: Value) -> String {
    to_line(obj([
        ("id", id_value(id)),
        ("ok", Value::Bool(true)),
        ("result", result),
    ]))
}

/// Serialize one error response line (no trailing newline). `extra`
/// appends code-specific fields to the `error` object — e.g.
/// `retry_after_ms` for [`ErrorCode::QueueFull`] or `diagnostics` for
/// [`ErrorCode::VerifierRejected`].
pub fn error_response(
    id: Option<&str>,
    code: ErrorCode,
    message: &str,
    extra: Vec<(&str, Value)>,
) -> String {
    let mut err = Map::new();
    err.insert("code".into(), Value::String(code.as_str().into()));
    err.insert("message".into(), Value::String(message.into()));
    for (k, v) in extra {
        err.insert(k.to_string(), v);
    }
    to_line(obj([
        ("id", id_value(id)),
        ("ok", Value::Bool(false)),
        ("error", Value::Object(err)),
    ]))
}

/// Compact one-line JSON for a value (responses are JSONL: exactly one
/// `\n`-terminated line each, written with a single `write_all`).
fn to_line(v: Value) -> String {
    serde_json::to_string(&v).unwrap_or_else(|_| "{\"ok\":false}".into())
}

/// `u64` fingerprints travel as `"0x%016x"` strings: JSON numbers above
/// 2^53 lose precision in double-based parsers (Python is fine, but
/// JavaScript and `jq` are not).
pub fn hex_u64(v: u64) -> Value {
    Value::String(format!("0x{v:016x}"))
}

/// A JSON integer [`Value`].
pub fn num_u64(v: u64) -> Value {
    Value::Number(Number::from_u64(v))
}

/// A JSON float [`Value`] (non-finite maps to `null` at serialization,
/// per the data model).
pub fn num_f64(v: f64) -> Value {
    Value::Number(Number::from_f64(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_parses_with_defaults() {
        let r: Request = serde_json::from_str(r#"{"op":"ping"}"#).unwrap();
        assert_eq!(r.op, "ping");
        assert!(r.id.is_none() && r.program.is_none() && r.budget_ms.is_none());

        let r: Request =
            serde_json::from_str(r#"{"id":"a","op":"solve","example":"synth60","seed":3}"#)
                .unwrap();
        assert_eq!(r.id.as_deref(), Some("a"));
        assert_eq!(r.example.as_deref(), Some("synth60"));
        assert_eq!(r.seed, Some(3));
    }

    #[test]
    fn missing_op_is_a_parse_error() {
        assert!(serde_json::from_str::<Request>(r#"{"id":"a"}"#).is_err());
    }

    #[test]
    fn response_lines_have_stable_field_order() {
        let ok = ok_response(Some("r1"), obj([("objective", num_u64(1))]));
        assert!(ok.starts_with(r#"{"id":"r1","ok":true,"result":"#), "{ok}");
        let err = error_response(
            None,
            ErrorCode::QueueFull,
            "queue full",
            vec![("retry_after_ms", num_u64(50))],
        );
        assert!(
            err.starts_with(r#"{"id":null,"ok":false,"error":"#),
            "{err}"
        );
        assert!(err.contains(r#""code":"queue_full""#));
        assert!(err.contains(r#""retry_after_ms":50"#));
    }

    #[test]
    fn fingerprints_travel_as_hex_strings() {
        assert_eq!(
            hex_u64(0xDEAD_BEEF),
            Value::String("0x00000000deadbeef".into())
        );
    }
}
