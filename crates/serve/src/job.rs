//! Job specs, job lifecycle states, and typed submission errors.
//!
//! A job is one streaming sweep: a scenario name, a scheduling priority and
//! a full [`SweepConfig`].  Specs travel as JSON (parsed by the in-repo
//! [`Json`] reader), persist verbatim in the spool, and round-trip through
//! [`JobSpec::to_json`] / [`JobSpec::from_json`] so a restarted daemon
//! re-plans exactly what was submitted.

use ld_runner::json::Json;
use ld_runner::{ConfigError, DslError, SweepConfig};

/// Where a job is in its lifecycle.
///
/// ```text
/// Queued ──► Running ──► Completed
///   │           └──────► Failed
///   └────────► Canceled
/// ```
///
/// Transitions are exactly-once ([`crate::queue::JobTable::transition`]):
/// a cancel racing a worker's claim resolves to exactly one of `Running`
/// or `Canceled`, never both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting in the priority queue (or recovered from the
    /// spool and re-queued).
    Queued,
    /// Claimed by a worker; its report file is being streamed.
    Running,
    /// The sweep ran to completion; the report file is final.  (Cells may
    /// still have failed — the report records per-cell outcomes.)
    Completed,
    /// Planning or execution errored; the message is recorded.
    Failed,
    /// Removed from the queue before any worker claimed it.
    Canceled,
}

impl JobState {
    /// The lowercase wire name used in status JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Canceled => "canceled",
        }
    }

    /// Whether the job will never change state again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed | JobState::Canceled
        )
    }
}

/// The largest `config.max_n` a job may ask for.  Planning is linear in
/// `max_n` before any cell runs (about 0.66 KB per planned cell), so an
/// unbounded value would let one request ask the daemon for gigabytes.
/// 65,536 is 16 times the largest size any CI step or benchmark workload
/// sweeps (4,096).
pub const MAX_JOB_MAX_N: usize = 65_536;

/// One sweep-job submission: what to run and how urgently.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The scenario name, as listed by `GET /scenarios` / `ldx list` — or,
    /// when [`JobSpec::scenario_doc`] is set, the name the document
    /// declares.
    pub scenario: String,
    /// Scheduling priority: higher dequeues first; ties dequeue in
    /// submission order.  Defaults to 0.
    pub priority: u64,
    /// The full sweep configuration.  The server always runs jobs in
    /// deterministic-report mode, so these knobs fully determine the
    /// report bytes.
    pub config: SweepConfig,
    /// An inline DSL scenario document (see `ld_runner::dsl`) for jobs not
    /// backed by a built-in scenario.  Validated at submission; persists in
    /// the spool with the rest of the spec, so a restarted daemon re-plans
    /// file-defined jobs exactly like built-in ones.
    pub scenario_doc: Option<Json>,
}

impl JobSpec {
    /// A spec for `scenario` with default priority and config.
    pub fn new(scenario: impl Into<String>) -> Self {
        JobSpec {
            scenario: scenario.into(),
            priority: 0,
            config: SweepConfig::default(),
            scenario_doc: None,
        }
    }

    /// The wire/spool form: `{"scenario", "priority", "config": {...}}`
    /// with unset optional knobs rendered as `null`.
    pub fn to_json(&self) -> Json {
        let optional_u64 = |v: Option<u64>| v.map_or(Json::Null, Json::U64);
        let config = Json::object()
            .set("max_n", self.config.max_n)
            .set("threads", self.config.threads)
            .set("seed", self.config.seed)
            .set(
                "radius",
                self.config
                    .radius
                    .map_or(Json::Null, |r| Json::U64(r as u64)),
            )
            .set("node_budget", optional_u64(self.config.node_budget))
            .set("view_budget", optional_u64(self.config.view_budget))
            .set("shard_size", self.config.shard_size);
        let spec = Json::object()
            .set("scenario", self.scenario.as_str())
            .set("priority", self.priority)
            .set("config", config);
        match &self.scenario_doc {
            Some(doc) => spec.set("scenario_doc", doc.clone()),
            None => spec,
        }
    }

    /// Parses a submission body.  Missing `priority` defaults to 0 and a
    /// missing `config` (or any missing config key) defaults like the CLI;
    /// unknown config keys are rejected so typos fail loudly instead of
    /// silently sweeping the wrong thing, and so is a `max_n` above
    /// [`MAX_JOB_MAX_N`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::Malformed`] on structural problems.  (Scenario
    /// existence and [`SweepConfig::validate`] are the server's caller-side
    /// checks — see [`crate::server`].)
    pub fn from_json(json: &Json) -> Result<JobSpec, SubmitError> {
        let scenario = json
            .get("scenario")
            .and_then(Json::as_str)
            .ok_or_else(|| SubmitError::Malformed("missing string field 'scenario'".to_string()))?
            .to_string();
        let priority = match json.get("priority") {
            None | Some(Json::Null) => 0,
            Some(value) => value.as_u64().ok_or_else(|| {
                SubmitError::Malformed("'priority' must be a non-negative integer".to_string())
            })?,
        };
        let mut config = SweepConfig::default();
        match json.get("config") {
            None | Some(Json::Null) => {}
            Some(Json::Obj(fields)) => {
                for (key, value) in fields {
                    apply_config_field(&mut config, key, value)?;
                }
            }
            Some(_) => {
                return Err(SubmitError::Malformed(
                    "'config' must be an object".to_string(),
                ))
            }
        }
        if config.threads == 0 {
            return Err(SubmitError::Malformed(
                "'threads' must be at least 1".to_string(),
            ));
        }
        let scenario_doc = match json.get("scenario_doc") {
            None | Some(Json::Null) => None,
            // Kept verbatim: the server validates the document (and its
            // name) with `ScenarioDoc::parse` at submission time.
            Some(doc) => Some(doc.clone()),
        };
        Ok(JobSpec {
            scenario,
            priority,
            config,
            scenario_doc,
        })
    }
}

/// Applies one `config` object field, rejecting unknown keys and non-integer
/// values.
fn apply_config_field(
    config: &mut SweepConfig,
    key: &str,
    value: &Json,
) -> Result<(), SubmitError> {
    let number = |value: &Json| {
        value.as_u64().ok_or_else(|| {
            SubmitError::Malformed(format!("'{key}' must be a non-negative integer"))
        })
    };
    let optional = |value: &Json| match value {
        Json::Null => Ok(None),
        other => number(other).map(Some),
    };
    match key {
        "max_n" => {
            let max_n = number(value)?;
            if max_n > MAX_JOB_MAX_N as u64 {
                return Err(SubmitError::Malformed(format!(
                    "'max_n' must be at most {MAX_JOB_MAX_N}, got {max_n}"
                )));
            }
            config.max_n = max_n as usize;
        }
        "threads" => config.threads = number(value)? as usize,
        "seed" => config.seed = number(value)?,
        "radius" => config.radius = optional(value)?.map(|r| r as usize),
        "node_budget" => config.node_budget = optional(value)?,
        "view_budget" => config.view_budget = optional(value)?,
        "shard_size" => config.shard_size = number(value)? as usize,
        other => {
            return Err(SubmitError::Malformed(format!(
                "unknown config key '{other}'"
            )))
        }
    }
    Ok(())
}

/// One job as the state table tracks it.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// What was submitted.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// The failure message, for [`JobState::Failed`] jobs.
    pub message: Option<String>,
    /// Whether execution must go through the checkpoint-resume path (set
    /// for jobs recovered mid-flight from the spool).
    pub resume: bool,
}

impl JobRecord {
    /// A freshly queued record for `spec`.
    pub fn queued(spec: JobSpec) -> Self {
        JobRecord {
            spec,
            state: JobState::Queued,
            message: None,
            resume: false,
        }
    }
}

/// Why a submission was rejected.  Each variant carries a stable token and
/// an exit code so HTTP clients and CLI users see one consistent mapping —
/// the `Config` variant reuses [`ConfigError::token`] /
/// [`ConfigError::exit_code`] verbatim.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The body was not valid JSON or not a valid spec shape.
    Malformed(String),
    /// No scenario of the given name is registered.
    UnknownScenario(String),
    /// The spec parsed but its `SweepConfig` failed validation.
    Config(ConfigError),
    /// The spec's inline `scenario_doc` failed DSL validation — the token
    /// and exit code are the [`DslError`]'s own, so `POST /jobs` and
    /// `ldx run --file` reject one document identically.
    Dsl(DslError),
    /// The server is draining and accepts no new jobs.
    Draining,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Malformed(what) => write!(f, "malformed submission: {what}"),
            SubmitError::UnknownScenario(name) => write!(f, "unknown scenario '{name}'"),
            SubmitError::Config(e) => write!(f, "invalid config: {e}"),
            SubmitError::Dsl(e) => write!(f, "invalid scenario document: {e}"),
            SubmitError::Draining => write!(f, "server is draining; not accepting jobs"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl SubmitError {
    /// The HTTP status the server answers with.
    pub fn status(&self) -> u16 {
        match self {
            SubmitError::Draining => 503,
            _ => 400,
        }
    }

    /// The stable machine-readable token (`error` field of the body).
    pub fn token(&self) -> &'static str {
        match self {
            SubmitError::Malformed(_) => "malformed-request",
            SubmitError::UnknownScenario(_) => "unknown-scenario",
            SubmitError::Config(e) => e.token(),
            SubmitError::Dsl(e) => e.token(),
            SubmitError::Draining => "draining",
        }
    }

    /// The process exit code a CLI client should terminate with: config
    /// defects keep their distinct `ldx run` codes, everything else is 64
    /// (`EX_USAGE`).
    pub fn exit_code(&self) -> u8 {
        match self {
            SubmitError::Config(e) => e.exit_code(),
            SubmitError::Dsl(e) => e.exit_code(),
            _ => 64,
        }
    }

    /// The JSON error body: `{"error", "exit_code", "message"}`.
    pub fn body(&self) -> Json {
        Json::object()
            .set("error", self.token())
            .set("exit_code", u64::from(self.exit_code()))
            .set("message", self.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let spec = JobSpec {
            scenario: "section2-sweep".to_string(),
            priority: 7,
            config: SweepConfig {
                max_n: 64,
                threads: 3,
                seed: 42,
                radius: Some(2),
                node_budget: Some(1_000),
                view_budget: None,
                shard_size: 8,
            },
            scenario_doc: None,
        };
        let rendered = spec.to_json().render_compact();
        let parsed = JobSpec::from_json(&Json::parse(&rendered).expect("parse")).expect("spec");
        assert_eq!(parsed, spec);
        // A spec with no document must not gain a `scenario_doc` key: the
        // wire form of registry-backed jobs is unchanged.
        assert!(!rendered.contains("scenario_doc"));

        // A DSL-backed spec round-trips its document verbatim.
        let doc = Json::object()
            .set("schema", "ld-runner/scenario/v1")
            .set("name", "custom")
            .set(
                "workloads",
                Json::Arr(vec![Json::object().set("kind", "paths")]),
            );
        let dsl_spec = JobSpec {
            scenario: "custom".to_string(),
            scenario_doc: Some(doc),
            ..spec
        };
        let rendered = dsl_spec.to_json().render_compact();
        let parsed = JobSpec::from_json(&Json::parse(&rendered).expect("parse")).expect("spec");
        assert_eq!(parsed, dsl_spec);
    }

    #[test]
    fn defaults_fill_missing_fields() {
        let parsed =
            JobSpec::from_json(&Json::parse("{\"scenario\": \"section2-sweep\"}").expect("parse"))
                .expect("spec");
        assert_eq!(parsed.priority, 0);
        assert_eq!(parsed.config, SweepConfig::default());
    }

    #[test]
    fn malformed_specs_are_rejected_with_reasons() {
        let cases = [
            ("{}", "scenario"),
            ("{\"scenario\": \"s\", \"priority\": \"high\"}", "priority"),
            ("{\"scenario\": \"s\", \"config\": 3}", "config"),
            (
                "{\"scenario\": \"s\", \"config\": {\"max_m\": 4}}",
                "unknown config key",
            ),
            (
                "{\"scenario\": \"s\", \"config\": {\"threads\": 0}}",
                "threads",
            ),
        ];
        for (body, needle) in cases {
            let err =
                JobSpec::from_json(&Json::parse(body).expect("parse")).expect_err("must reject");
            assert!(
                err.to_string().contains(needle),
                "{body}: {err} should mention {needle}"
            );
            assert_eq!(err.status(), 400);
        }
    }

    #[test]
    fn max_n_is_bounded_at_admission() {
        let spec_with = |max_n: u64| {
            JobSpec::from_json(
                &Json::object()
                    .set("scenario", "section2-sweep")
                    .set("config", Json::object().set("max_n", max_n)),
            )
        };
        let limit = MAX_JOB_MAX_N as u64;
        assert_eq!(
            spec_with(limit)
                .expect("the limit itself is admitted")
                .config
                .max_n,
            MAX_JOB_MAX_N
        );
        for too_large in [limit + 1, u64::MAX] {
            let err = spec_with(too_large).expect_err("above the limit");
            assert!(matches!(err, SubmitError::Malformed(_)), "{err}");
            assert!(
                err.to_string().contains("'max_n' must be at most 65536"),
                "{err}"
            );
            assert_eq!(err.status(), 400);
        }
    }

    #[test]
    fn submit_errors_share_the_cli_exit_code_mapping() {
        let config_err = SubmitError::Config(ConfigError::ZeroMaxN);
        assert_eq!(config_err.exit_code(), ConfigError::ZeroMaxN.exit_code());
        assert_eq!(config_err.token(), ConfigError::ZeroMaxN.token());
        assert_eq!(config_err.status(), 400);
        assert_eq!(SubmitError::Draining.status(), 503);
        let body = config_err.body();
        assert_eq!(body.get("error").and_then(Json::as_str), Some("zero-max-n"));
        assert_eq!(body.get("exit_code").and_then(Json::as_u64), Some(65));
    }

    #[test]
    fn lifecycle_states_know_their_terminality() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Completed.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(JobState::Canceled.is_terminal());
        assert_eq!(JobState::Running.as_str(), "running");
    }
}
