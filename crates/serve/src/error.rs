//! The uniform API error envelope shared by the server and the client.
//!
//! Every non-2xx response body is `{"error": {"code": "...", "message":
//! "..."}}`. The machine-readable [`ErrorCode`] is the contract — clients
//! branch on it instead of grepping message text — while the message stays
//! free-form for humans.

use baryon_sim::json::{self, Json};

/// Machine-readable error categories of the serve API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed HTTP or a body that is not UTF-8.
    BadRequest,
    /// The body is not valid JSON.
    InvalidJson,
    /// Valid JSON, but not a valid job spec.
    InvalidSpec,
    /// Unknown endpoint, unknown job, or a non-integer job ID.
    NotFound,
    /// Known endpoint, wrong method.
    MethodNotAllowed,
    /// The job exists but is in a state that forbids the action.
    Conflict,
    /// Backpressure: the job queue is full; retry later.
    QueueFull,
    /// The client has too many jobs in flight; retry after some finish.
    QuotaExceeded,
    /// The server is draining and refuses new work.
    ShuttingDown,
    /// A staged fleet policy failed validation.
    InvalidConfig,
    /// A config commit could not be completed (a shard failed its health
    /// probe or canary and the fleet rolled back, or a rollout is already
    /// in flight).
    RolloutFailed,
    /// Anything else that went wrong server-side.
    Internal,
}

impl ErrorCode {
    /// The wire string of this code (`"queue_full"`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::InvalidJson => "invalid_json",
            ErrorCode::InvalidSpec => "invalid_spec",
            ErrorCode::NotFound => "not_found",
            ErrorCode::MethodNotAllowed => "method_not_allowed",
            ErrorCode::Conflict => "conflict",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::QuotaExceeded => "quota_exceeded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::InvalidConfig => "invalid_config",
            ErrorCode::RolloutFailed => "rollout_failed",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire string back into a code.
    pub fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "bad_request" => ErrorCode::BadRequest,
            "invalid_json" => ErrorCode::InvalidJson,
            "invalid_spec" => ErrorCode::InvalidSpec,
            "not_found" => ErrorCode::NotFound,
            "method_not_allowed" => ErrorCode::MethodNotAllowed,
            "conflict" => ErrorCode::Conflict,
            "queue_full" => ErrorCode::QueueFull,
            "quota_exceeded" => ErrorCode::QuotaExceeded,
            "shutting_down" => ErrorCode::ShuttingDown,
            "invalid_config" => ErrorCode::InvalidConfig,
            "rollout_failed" => ErrorCode::RolloutFailed,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }

    /// The canonical HTTP status for this code.
    pub fn status(self) -> u16 {
        match self {
            ErrorCode::BadRequest
            | ErrorCode::InvalidJson
            | ErrorCode::InvalidSpec
            | ErrorCode::InvalidConfig => 400,
            ErrorCode::NotFound => 404,
            ErrorCode::MethodNotAllowed => 405,
            ErrorCode::Conflict | ErrorCode::RolloutFailed => 409,
            ErrorCode::QuotaExceeded => 429,
            ErrorCode::QueueFull | ErrorCode::ShuttingDown => 503,
            ErrorCode::Internal => 500,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A decoded error envelope: the typed code plus the human message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// Machine-readable category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    /// Builds the envelope.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ApiError {
        ApiError {
            code,
            message: message.into(),
        }
    }

    /// Serializes as `{"error": {"code": ..., "message": ...}}`.
    pub fn to_json(&self) -> Json {
        Json::obj([(
            "error",
            Json::obj([
                ("code", Json::from(self.code.as_str())),
                ("message", Json::from(self.message.as_str())),
            ]),
        )])
    }

    /// Decodes an envelope from a response body. Returns `None` unless the
    /// body is the exact `{"error": {"code", "message"}}` shape with a
    /// known code.
    pub fn from_body(body: &str) -> Option<ApiError> {
        let doc = json::parse(body).ok()?;
        let err = doc.get("error")?;
        let code = err.get("code")?.as_str()?;
        let message = err.get("message")?.as_str()?;
        Some(ApiError {
            code: ErrorCode::parse(code)?,
            message: message.to_owned(),
        })
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ApiError {}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [ErrorCode; 12] = [
        ErrorCode::BadRequest,
        ErrorCode::InvalidJson,
        ErrorCode::InvalidSpec,
        ErrorCode::NotFound,
        ErrorCode::MethodNotAllowed,
        ErrorCode::Conflict,
        ErrorCode::QueueFull,
        ErrorCode::QuotaExceeded,
        ErrorCode::ShuttingDown,
        ErrorCode::InvalidConfig,
        ErrorCode::RolloutFailed,
        ErrorCode::Internal,
    ];

    #[test]
    fn codes_round_trip_through_wire_strings() {
        for code in ALL {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("nope"), None);
    }

    #[test]
    fn every_code_maps_to_an_error_status() {
        for code in ALL {
            assert!((400..=599).contains(&code.status()), "{code}");
        }
    }

    #[test]
    fn envelope_round_trips_through_json() {
        let e = ApiError::new(ErrorCode::QueueFull, "queue full, retry later");
        let body = e.to_json().render();
        assert_eq!(
            body,
            r#"{"error":{"code":"queue_full","message":"queue full, retry later"}}"#
        );
        assert_eq!(ApiError::from_body(&body), Some(e));
    }

    #[test]
    fn malformed_envelopes_decode_to_none() {
        for bad in [
            "",
            "{}",
            r#"{"error":"flat string"}"#,
            r#"{"error":{"code":"nope","message":"x"}}"#,
            r#"{"error":{"code":"conflict"}}"#,
        ] {
            assert_eq!(ApiError::from_body(bad), None, "{bad}");
        }
    }
}
