//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, one response line per request, in order.
//! Requests name an operation in `"op"`:
//!
//! * `{"op":"retarget","hdl":"..."}` — retarget (or hit the cache) and
//!   return the content key.
//! * `{"op":"compile", "hdl"|"key":..., "source":..., "function":...,
//!   "options"?:{...}, "deadline_ms"?:N, "listing"?:bool}` — compile one
//!   kernel against the (cached) artifact.
//! * `{"op":"batch-compile", "hdl"|"key":..., "items":[...]}` — compile
//!   several kernels on one warm session.
//! * `{"op":"stats"}` — cache/pool/server counters.
//! * `{"op":"debug-traces"}` — dump the slow-compile flight recorder:
//!   the retained Chrome traces with their request ids and compile times.
//!
//! Responses are `{"ok":true, ...}` or `{"ok":false, "error":{"kind":...,
//! "message":...}}`, and the server appends a `request_id` field to
//! *every* response line — including `overloaded` rejections, `timeout`
//! and `internal` errors — so clients, the access log and the flight
//! recorder all correlate on one id.  Error kinds: `protocol`
//! (unparseable request), `overloaded` (admission control rejected the
//! connection), `timeout` (per-request deadline exceeded; carries
//! `phase`), `unknown-key` (compile by key missed the cache), `pipeline`
//! (retarget failed), `key-collision` (the cache holds the model's key
//! for a different model), `compile` (structured compile failure; carries
//! `class`, `phase` and the diagnostic fields), `internal` (the compiler
//! panicked; contained by the session boundary, carries `class` and
//! `phase` like `compile`), `no-recorder` (`debug-traces` with the
//! flight recorder disabled).

use crate::cache::CacheError;
use crate::digest::{parse_key, ModelKey};
use record_core::{CompileError, CompileOptions};
use record_probe::json::{self, Json};

/// How a request names the processor model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelRef {
    /// Inline HDL source (retargets on a cache miss).
    Hdl(String),
    /// A content key from an earlier `retarget` response (never
    /// retargets; misses report `unknown-key`).
    Key(ModelKey),
}

/// One kernel to compile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileItem {
    /// Mini-C translation unit.
    pub source: String,
    /// Function to compile.
    pub function: String,
    /// Compile options (deadline included, converted from `deadline_ms`).
    pub options: CompileOptions,
    /// Also render the assembly listing into the response.
    pub listing: bool,
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    Retarget {
        hdl: String,
    },
    Compile {
        model: ModelRef,
        item: CompileItem,
    },
    BatchCompile {
        model: ModelRef,
        items: Vec<CompileItem>,
    },
    Stats,
    DebugTraces,
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable description, reported to the client as a `protocol`
/// error.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line)?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing string field `op`")?;
    match op {
        "retarget" => Ok(Request::Retarget {
            hdl: req_str(&v, "hdl")?,
        }),
        "compile" => Ok(Request::Compile {
            model: model_ref(&v)?,
            item: compile_item(&v)?,
        }),
        "batch-compile" => {
            let items = v
                .get("items")
                .and_then(Json::as_arr)
                .ok_or("missing array field `items`")?;
            Ok(Request::BatchCompile {
                model: model_ref(&v)?,
                items: items.iter().map(compile_item).collect::<Result<_, _>>()?,
            })
        }
        "stats" => Ok(Request::Stats),
        "debug-traces" => Ok(Request::DebugTraces),
        other => Err(format!("unknown op `{other}`")),
    }
}

fn req_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn model_ref(v: &Json) -> Result<ModelRef, String> {
    match (v.get("hdl"), v.get("key")) {
        (Some(hdl), None) => Ok(ModelRef::Hdl(
            hdl.as_str()
                .ok_or("field `hdl` must be a string")?
                .to_owned(),
        )),
        (None, Some(key)) => {
            let key = key.as_str().ok_or("field `key` must be a string")?;
            Ok(ModelRef::Key(
                parse_key(key).ok_or_else(|| format!("malformed key `{key}`"))?,
            ))
        }
        _ => Err("exactly one of `hdl` or `key` is required".to_owned()),
    }
}

fn compile_item(v: &Json) -> Result<CompileItem, String> {
    let mut options = CompileOptions::default();
    if let Some(o) = v.get("options") {
        for (field, slot) in [
            ("baseline", &mut options.baseline as &mut bool),
            ("compaction", &mut options.compaction),
            ("allocate_registers", &mut options.allocate_registers),
        ] {
            if let Some(b) = o.get(field) {
                *slot = b
                    .as_bool()
                    .ok_or_else(|| format!("option `{field}` must be a boolean"))?;
            }
        }
        if let Some(p) = o.get("inject_panic") {
            let label = p.as_str().ok_or("option `inject_panic` must be a string")?;
            options.inject_panic = Some(
                record_core::CompilePhase::from_label(label)
                    .ok_or_else(|| format!("option `inject_panic`: unknown phase `{label}`"))?,
            );
        }
    }
    if let Some(ms) = v.get("deadline_ms") {
        let ms = ms
            .as_u64()
            .ok_or("`deadline_ms` must be a non-negative integer")?;
        options.deadline_ns = Some(ms.saturating_mul(1_000_000));
    }
    let listing = match v.get("listing") {
        Some(b) => b.as_bool().ok_or("`listing` must be a boolean")?,
        None => false,
    };
    Ok(CompileItem {
        source: req_str(v, "source")?,
        function: req_str(v, "function")?,
        options,
        listing,
    })
}

/// Builds an `{"ok":false}` response with a bare error kind.
pub fn error_response(kind: &str, message: &str) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj(vec![
                ("kind", Json::str(kind)),
                ("message", Json::str(message)),
            ]),
        ),
    ])
}

/// Builds the error response for a model the target cache has no
/// artifact for: `pipeline` when retargeting failed, `key-collision` when
/// the cache holds the model's key for a different model.
pub fn cache_error_response(e: &CacheError) -> Json {
    let kind = match e {
        CacheError::Retarget(_) => "pipeline",
        CacheError::KeyCollision(_) => "key-collision",
    };
    error_response(kind, &e.to_string())
}

/// Builds the error response for a compile failure: `timeout` for
/// deadline expiry, `compile` (with the full diagnostic) otherwise.
pub fn compile_error_response(e: &CompileError) -> Json {
    let class = e.classify();
    let kind = match e {
        CompileError::DeadlineExceeded { .. } => "timeout",
        CompileError::Internal { .. } => "internal",
        _ => "compile",
    };
    let mut error = vec![
        ("kind".to_owned(), Json::str(kind)),
        ("message".to_owned(), Json::str(e.to_string())),
        ("class".to_owned(), Json::str(class.kind)),
        ("phase".to_owned(), Json::str(class.phase.to_string())),
    ];
    if let Some(d) = e.diagnostic() {
        if let Some((line, col)) = d.span {
            error.push((
                "span".to_owned(),
                Json::Arr(vec![Json::num(u64::from(line)), Json::num(u64::from(col))]),
            ));
        }
        if let Some(i) = d.rt_index {
            error.push(("rt_index".to_owned(), Json::num(i as u64)));
        }
        if let Some(s) = &d.storage {
            error.push(("storage".to_owned(), Json::str(s.clone())));
        }
        if let Some(op) = d.op {
            error.push(("op".to_owned(), Json::str(op)));
        }
        if let Some(rid) = &d.request_id {
            error.push(("request_id".to_owned(), Json::str(rid.clone())));
        }
    }
    Json::Obj(vec![
        ("ok".to_owned(), Json::Bool(false)),
        ("error".to_owned(), Json::Obj(error)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::render_key;

    #[test]
    fn parses_compile_requests() {
        let line = r#"{"op":"compile","hdl":"processor p {}","source":"void f(){}","function":"f","options":{"compaction":false},"deadline_ms":250,"listing":true}"#;
        let Request::Compile { model, item } = parse_request(line).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(model, ModelRef::Hdl("processor p {}".to_owned()));
        assert_eq!(item.function, "f");
        assert!(!item.options.compaction);
        assert!(!item.options.baseline);
        assert_eq!(item.options.deadline_ns, Some(250_000_000));
        assert!(item.listing);
    }

    #[test]
    fn parses_key_references() {
        let key = crate::digest::model_key("processor p {}");
        let line = format!(
            r#"{{"op":"batch-compile","key":"{}","items":[{{"source":"s","function":"f"}}]}}"#,
            render_key(key)
        );
        let Request::BatchCompile { model, items } = parse_request(&line).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(model, ModelRef::Key(key));
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].options, record_core::CompileOptions::default());
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "not json",
            r#"{"op":"warp"}"#,
            r#"{"op":"compile","source":"s","function":"f"}"#,
            r#"{"op":"compile","hdl":"h","key":"0000000000000000","source":"s","function":"f"}"#,
            r#"{"op":"compile","hdl":"h","source":"s","function":"f","deadline_ms":-1}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad}");
        }
    }
}
