//! A small plain-text format for phase schedules.
//!
//! Lets patterns be written by hand, checked into repositories, and fed
//! to the `nocsyn` command-line tool without a serialization dependency:
//!
//! ```text
//! # streaming pipeline, 4 cores
//! procs 4
//!
//! phase bytes=4096 compute=500
//!   0 -> 1
//!   2 -> 3
//!
//! phase                      # defaults: 4096 bytes, no compute gap
//!   1 -> 2
//! repeat 3                   # repeat everything above, 3 times total
//! ```
//!
//! Grammar (line oriented; `#` starts a comment anywhere):
//!
//! * `procs <n>` — required before the first phase, exactly once.
//! * `phase [bytes=<n>] [compute=<n>]` — opens a phase.
//! * `<src> -> <dst>` — adds a flow to the open phase.
//! * `repeat <k>` — repeats the schedule parsed so far `k` times total
//!   (may appear once, last).
//!
//! # Ingestion guarantee
//!
//! These parsers sit on the trust boundary: schedule and trace files are
//! *untrusted input*, and the contention model downstream is only as
//! sound as what crosses this boundary. The crate therefore guarantees:
//!
//! **No input byte-sequence causes [`parse_schedule`] or [`parse_trace`]
//! to panic, allocate unboundedly, or loop forever.** Every failure is a
//! typed [`ParseScheduleError`] carrying the 1-based offending line.
//!
//! Resource consumption is bounded by [`ParseLimits`] (serving-grade
//! defaults; override through the [`ParseOptions`] builder): input
//! size, line length, process count, phase
//! count (after `repeat` expansion), and message/flow count are all
//! capped *before* the corresponding allocation happens, so a hostile
//! `procs 99999999999` or a `repeat`-bomb is rejected with
//! [`ParseErrorKind::LimitExceeded`] instead of exhausting memory.
//! Windows line endings and a leading UTF-8 BOM are accepted; all other
//! malformed bytes are rejected, never mis-ingested.

use std::error::Error;
use std::fmt;

use crate::{Flow, ModelError, Phase, PhaseSchedule};

/// Resource limits enforced while parsing untrusted schedule/trace text.
///
/// Defaults are serving-grade: generous enough for every workload in this
/// repository (the largest generated benchmark is a few thousand
/// messages), tight enough that a single request cannot exhaust the
/// memory of a shared synthesis service. All limits are checked *before*
/// the guarded allocation or expansion is performed.
///
/// ```
/// use nocsyn_model::{ParseErrorKind, ParseLimits, ParseOptions};
/// let tight = ParseOptions::new().with_limits(ParseLimits::default().with_max_procs(8));
/// let err = tight.parse_schedule("procs 9\n").unwrap_err();
/// assert!(matches!(err.kind, ParseErrorKind::LimitExceeded { .. }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLimits {
    /// Largest accepted `procs <n>` value.
    pub max_procs: usize,
    /// Largest accepted phase count, *after* `repeat` expansion.
    pub max_phases: usize,
    /// Largest accepted message count (trace) or total flow count across
    /// all phases after `repeat` expansion (schedule).
    pub max_messages: usize,
    /// Longest accepted raw line, in bytes (comments included).
    pub max_line_len: usize,
    /// Largest accepted input, in bytes.
    pub max_input_bytes: usize,
}

impl Default for ParseLimits {
    fn default() -> Self {
        ParseLimits {
            max_procs: 1 << 20,        // 1 Mi end-nodes
            max_phases: 1 << 16,       // 64 Ki phases incl. repeats
            max_messages: 1 << 20,     // 1 Mi messages / flows
            max_line_len: 4096,        // bytes
            max_input_bytes: 16 << 20, // 16 MiB
        }
    }
}

impl ParseLimits {
    /// Replaces the `procs` cap.
    #[must_use]
    pub fn with_max_procs(mut self, n: usize) -> Self {
        self.max_procs = n;
        self
    }

    /// Replaces the phase-count cap (post-`repeat`).
    #[must_use]
    pub fn with_max_phases(mut self, n: usize) -> Self {
        self.max_phases = n;
        self
    }

    /// Replaces the message/flow-count cap.
    #[must_use]
    pub fn with_max_messages(mut self, n: usize) -> Self {
        self.max_messages = n;
        self
    }

    /// Replaces the line-length cap (bytes).
    #[must_use]
    pub fn with_max_line_len(mut self, n: usize) -> Self {
        self.max_line_len = n;
        self
    }

    /// Replaces the input-size cap (bytes).
    #[must_use]
    pub fn with_max_input_bytes(mut self, n: usize) -> Self {
        self.max_input_bytes = n;
        self
    }
}

/// Configured entry point for parsing untrusted schedule and trace
/// text — the single builder that replaces the old
/// `parse_*` / `parse_*_with` function pairs.
///
/// The zero-configuration calls stay as the free functions
/// [`parse_schedule`] and [`parse_trace`]; anything beyond the default
/// [`ParseLimits`] goes through here:
///
/// ```
/// use nocsyn_model::{ParseLimits, ParseOptions};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let opts = ParseOptions::new().with_limits(ParseLimits::default().with_max_procs(64));
/// let schedule = opts.parse_schedule("procs 4\nphase\n  0 -> 1\n")?;
/// let trace = opts.parse_trace("procs 2\nmsg 0 -> 1 start=0 finish=9\n")?;
/// assert_eq!(schedule.len(), 1);
/// assert_eq!(trace.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParseOptions {
    limits: ParseLimits,
}

impl ParseOptions {
    /// Options with the default [`ParseLimits`].
    pub fn new() -> Self {
        ParseOptions::default()
    }

    /// Replaces the resource limits enforced while parsing.
    #[must_use]
    pub fn with_limits(mut self, limits: ParseLimits) -> Self {
        self.limits = limits;
        self
    }

    /// The limits these options enforce.
    pub fn limits(&self) -> &ParseLimits {
        &self.limits
    }

    /// Parses a phase schedule (the format described at the
    /// [module level](self)) under these options.
    ///
    /// # Errors
    ///
    /// [`ParseScheduleError`] with the offending line on any syntactic,
    /// semantic or resource-limit problem. Never panics.
    pub fn parse_schedule(&self, input: &str) -> Result<PhaseSchedule, ParseScheduleError> {
        parse_schedule_impl(input, &self.limits)
    }

    /// Parses a timed trace (the companion `msg` format, see
    /// [`parse_trace`]) under these options.
    ///
    /// # Errors
    ///
    /// [`ParseScheduleError`] with the offending line on any problem.
    /// Never panics.
    pub fn parse_trace(&self, input: &str) -> Result<crate::Trace, ParseScheduleError> {
        parse_trace_impl(input, &self.limits)
    }

    /// Parses pattern text of either format under these options: any
    /// non-comment line starting with `msg ` makes it a trace, anything
    /// else is a phase schedule. This is the one autodetection rule; the
    /// CLI, the serve daemon and the certificate checker all read
    /// patterns through it.
    ///
    /// ```
    /// use nocsyn_model::{ParseOptions, Pattern};
    /// let opts = ParseOptions::new();
    /// let trace = opts.parse_pattern("procs 2\nmsg 0 -> 1 start=0 finish=9\n").unwrap();
    /// assert!(matches!(trace, Pattern::Trace(_)));
    /// let schedule = opts.parse_pattern("procs 2\n# msg 0 -> 1\nphase\n  0 -> 1\n").unwrap();
    /// assert!(matches!(schedule, Pattern::Schedule(_)));
    /// ```
    ///
    /// # Errors
    ///
    /// The chosen parser's [`ParseScheduleError`]. Never panics.
    pub fn parse_pattern(&self, input: &str) -> Result<Pattern, ParseScheduleError> {
        let is_trace = input
            .lines()
            .map(|l| l.split('#').next().unwrap_or("").trim())
            .any(|l| l.starts_with("msg "));
        if is_trace {
            self.parse_trace(input).map(Pattern::Trace)
        } else {
            self.parse_schedule(input).map(Pattern::Schedule)
        }
    }
}

/// Pattern text parsed by [`ParseOptions::parse_pattern`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pattern {
    /// A phase schedule.
    Schedule(PhaseSchedule),
    /// A timed trace.
    Trace(crate::Trace),
}

impl Pattern {
    /// Process count of the pattern.
    pub fn n_procs(&self) -> usize {
        match self {
            Pattern::Schedule(s) => s.n_procs(),
            Pattern::Trace(t) => t.n_procs(),
        }
    }
}

/// A parse failure, with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseScheduleError {
    /// 1-based line of the offending input.
    pub line: usize,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

/// The kinds of parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseErrorKind {
    /// The `procs` header is missing or appears after phases.
    MissingProcs,
    /// A second `procs` header appeared (the process count must be stated
    /// exactly once; silently re-binding it would re-scope every flow
    /// parsed since).
    DuplicateProcs,
    /// `procs 0` — a pattern needs at least one process.
    ZeroProcs,
    /// A directive or flow line could not be parsed.
    Malformed(String),
    /// A flow line appeared before any `phase` directive.
    FlowOutsidePhase,
    /// A semantic error from the model layer (self-loop, out of range,
    /// duplicate source...).
    Model(ModelError),
    /// `repeat` count must be at least 1.
    BadRepeat,
    /// A [`ParseLimits`] resource bound was exceeded; the offending
    /// quantity is named and both the requested and permitted values are
    /// carried for the caller's diagnostics.
    LimitExceeded {
        /// The limited quantity ("procs", "phases", "messages",
        /// "line bytes", "input bytes").
        what: &'static str,
        /// The value the input asked for.
        requested: u64,
        /// The configured bound it exceeded.
        limit: u64,
    },
}

impl fmt::Display for ParseScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            ParseErrorKind::MissingProcs => write!(f, "expected a `procs <n>` header first"),
            ParseErrorKind::DuplicateProcs => write!(f, "duplicate `procs` header"),
            ParseErrorKind::ZeroProcs => write!(f, "`procs` must be at least 1"),
            ParseErrorKind::Malformed(what) => write!(f, "cannot parse `{what}`"),
            ParseErrorKind::FlowOutsidePhase => {
                write!(f, "flow line outside any `phase` block")
            }
            ParseErrorKind::Model(e) => write!(f, "{e}"),
            ParseErrorKind::BadRepeat => write!(f, "repeat count must be at least 1"),
            ParseErrorKind::LimitExceeded {
                what,
                requested,
                limit,
            } => write!(f, "{what} {requested} exceeds the limit of {limit}"),
        }
    }
}

impl Error for ParseScheduleError {}

impl ParseScheduleError {
    /// The [`ParseErrorKind::fingerprint`] of this error's kind — the
    /// stable, value-free class id shared by every public error type in
    /// the workspace.
    pub fn fingerprint(&self) -> &'static str {
        self.kind.fingerprint()
    }
}

impl ParseErrorKind {
    /// A short, stable identifier for the error class — the fingerprint
    /// the fuzzing subsystem and telemetry deduplicate by. Unlike
    /// [`fmt::Display`], it never embeds input-derived values.
    pub fn fingerprint(&self) -> &'static str {
        match self {
            ParseErrorKind::MissingProcs => "missing-procs",
            ParseErrorKind::DuplicateProcs => "duplicate-procs",
            ParseErrorKind::ZeroProcs => "zero-procs",
            ParseErrorKind::Malformed(_) => "malformed",
            ParseErrorKind::FlowOutsidePhase => "flow-outside-phase",
            ParseErrorKind::Model(ModelError::InvertedInterval { .. }) => "model-inverted-interval",
            ParseErrorKind::Model(ModelError::SelfLoop { .. }) => "model-self-loop",
            ParseErrorKind::Model(ModelError::ProcOutOfRange { .. }) => "model-proc-out-of-range",
            ParseErrorKind::Model(ModelError::DuplicateSourceInPhase { .. }) => {
                "model-duplicate-source"
            }
            ParseErrorKind::Model(ModelError::DuplicateDestinationInPhase { .. }) => {
                "model-duplicate-destination"
            }
            ParseErrorKind::BadRepeat => "bad-repeat",
            ParseErrorKind::LimitExceeded { .. } => "limit-exceeded",
        }
    }
}

/// Strips a leading UTF-8 byte-order mark, which text editors on some
/// platforms prepend; it is presentation, not content.
fn strip_bom(input: &str) -> &str {
    input.strip_prefix('\u{feff}').unwrap_or(input)
}

/// Checks the whole-input and per-line byte budgets shared by both
/// parsers, returning the error for the first offending line.
fn check_input_budget(input: &str, limits: &ParseLimits) -> Result<(), ParseScheduleError> {
    if input.len() > limits.max_input_bytes {
        return Err(ParseScheduleError {
            line: 1,
            kind: ParseErrorKind::LimitExceeded {
                what: "input bytes",
                requested: input.len() as u64,
                limit: limits.max_input_bytes as u64,
            },
        });
    }
    for (idx, raw) in input.lines().enumerate() {
        if raw.len() > limits.max_line_len {
            return Err(ParseScheduleError {
                line: idx + 1,
                kind: ParseErrorKind::LimitExceeded {
                    what: "line bytes",
                    requested: raw.len() as u64,
                    limit: limits.max_line_len as u64,
                },
            });
        }
    }
    Ok(())
}

/// Parses a `procs` header value against the limits.
fn parse_procs_value(
    token: Option<&str>,
    line: &str,
    line_no: usize,
    limits: &ParseLimits,
) -> Result<usize, ParseScheduleError> {
    let err = |kind| ParseScheduleError {
        line: line_no,
        kind,
    };
    let n: usize = token
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| err(ParseErrorKind::Malformed(line.into())))?;
    if n == 0 {
        return Err(err(ParseErrorKind::ZeroProcs));
    }
    if n > limits.max_procs {
        return Err(err(ParseErrorKind::LimitExceeded {
            what: "procs",
            requested: n as u64,
            limit: limits.max_procs as u64,
        }));
    }
    Ok(n)
}

/// Parses the text format described at the [module level](self) under the
/// default [`ParseLimits`].
///
/// # Errors
///
/// [`ParseScheduleError`] with the offending line on any syntactic,
/// semantic or resource-limit problem. Never panics.
pub fn parse_schedule(input: &str) -> Result<PhaseSchedule, ParseScheduleError> {
    parse_schedule_impl(input, &ParseLimits::default())
}

fn parse_schedule_impl(
    input: &str,
    limits: &ParseLimits,
) -> Result<PhaseSchedule, ParseScheduleError> {
    let input = strip_bom(input);
    check_input_budget(input, limits)?;

    let mut n_procs: Option<usize> = None;
    let mut schedule: Option<PhaseSchedule> = None;
    let mut open: Option<Phase> = None;
    let mut repeat: Option<usize> = None;
    // Flows committed to closed phases plus the open phase, tracked so the
    // message cap is enforced incrementally, before `repeat` multiplies it.
    let mut n_flows: usize = 0;

    let err = |line: usize, kind: ParseErrorKind| ParseScheduleError { line, kind };

    for (idx, raw) in input.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if repeat.is_some() {
            return Err(err(
                line_no,
                ParseErrorKind::Malformed("content after `repeat`".into()),
            ));
        }

        let mut tokens = line.split_whitespace();
        // Invariant: `line` is non-empty after trim (checked above), so
        // split_whitespace yields at least one token. Destructure anyway —
        // defense in depth on the trust boundary beats an `expect`.
        let Some(head) = tokens.next() else {
            continue;
        };
        match head {
            "procs" => {
                if schedule.is_some() {
                    return Err(err(
                        line_no,
                        ParseErrorKind::Malformed("`procs` after phases began".into()),
                    ));
                }
                if n_procs.is_some() {
                    return Err(err(line_no, ParseErrorKind::DuplicateProcs));
                }
                n_procs = Some(parse_procs_value(tokens.next(), line, line_no, limits)?);
            }
            "phase" => {
                let Some(n) = n_procs else {
                    return Err(err(line_no, ParseErrorKind::MissingProcs));
                };
                let schedule = schedule.get_or_insert_with(|| PhaseSchedule::new(n));
                if let Some(done) = open.take() {
                    schedule
                        .push(done)
                        .map_err(|e| err(line_no, ParseErrorKind::Model(e)))?;
                }
                if schedule.len() + 1 > limits.max_phases {
                    return Err(err(
                        line_no,
                        ParseErrorKind::LimitExceeded {
                            what: "phases",
                            requested: schedule.len() as u64 + 1,
                            limit: limits.max_phases as u64,
                        },
                    ));
                }
                let mut phase = Phase::new();
                for opt in tokens {
                    match opt.split_once('=') {
                        Some(("bytes", v)) => {
                            let bytes = v
                                .parse()
                                .map_err(|_| err(line_no, ParseErrorKind::Malformed(opt.into())))?;
                            phase = phase.with_bytes(bytes);
                        }
                        Some(("compute", v)) => {
                            let ticks = v
                                .parse()
                                .map_err(|_| err(line_no, ParseErrorKind::Malformed(opt.into())))?;
                            phase = phase.with_compute(ticks);
                        }
                        _ => {
                            return Err(err(line_no, ParseErrorKind::Malformed(opt.into())));
                        }
                    }
                }
                open = Some(phase);
            }
            "repeat" => {
                let k: usize = tokens
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(line_no, ParseErrorKind::Malformed(line.into())))?;
                if k == 0 {
                    return Err(err(line_no, ParseErrorKind::BadRepeat));
                }
                // Bound the post-expansion size *before* `repeated` clones
                // anything: both the phase count and the total flow count
                // are multiplied by k.
                let phases_now =
                    schedule.as_ref().map_or(0, PhaseSchedule::len) + usize::from(open.is_some());
                if phases_now.saturating_mul(k) > limits.max_phases {
                    return Err(err(
                        line_no,
                        ParseErrorKind::LimitExceeded {
                            what: "phases",
                            requested: phases_now.saturating_mul(k) as u64,
                            limit: limits.max_phases as u64,
                        },
                    ));
                }
                if n_flows.saturating_mul(k) > limits.max_messages {
                    return Err(err(
                        line_no,
                        ParseErrorKind::LimitExceeded {
                            what: "messages",
                            requested: n_flows.saturating_mul(k) as u64,
                            limit: limits.max_messages as u64,
                        },
                    ));
                }
                repeat = Some(k);
            }
            _ => {
                // A flow line: `<src> -> <dst>` (whitespace optional
                // around the arrow).
                let joined: String = line.split_whitespace().collect();
                let Some((s, d)) = joined.split_once("->") else {
                    return Err(err(line_no, ParseErrorKind::Malformed(line.into())));
                };
                let (Ok(src), Ok(dst)) = (s.parse::<usize>(), d.parse::<usize>()) else {
                    return Err(err(line_no, ParseErrorKind::Malformed(line.into())));
                };
                let Some(phase) = open.as_mut() else {
                    return Err(err(line_no, ParseErrorKind::FlowOutsidePhase));
                };
                if n_flows + 1 > limits.max_messages {
                    return Err(err(
                        line_no,
                        ParseErrorKind::LimitExceeded {
                            what: "messages",
                            requested: n_flows as u64 + 1,
                            limit: limits.max_messages as u64,
                        },
                    ));
                }
                phase
                    .add(Flow::from_indices(src, dst))
                    .map_err(|e| err(line_no, ParseErrorKind::Model(e)))?;
                n_flows += 1;
            }
        }
    }

    let n =
        n_procs.ok_or_else(|| err(input.lines().count().max(1), ParseErrorKind::MissingProcs))?;
    let mut schedule = schedule.unwrap_or_else(|| PhaseSchedule::new(n));
    if let Some(done) = open.take() {
        let last = input.lines().count();
        schedule
            .push(done)
            .map_err(|e| err(last, ParseErrorKind::Model(e)))?;
    }
    Ok(match repeat {
        Some(k) => schedule.repeated(k),
        None => schedule,
    })
}

/// Parses a timed trace in the companion format under the default
/// [`ParseLimits`]: a `procs <n>` header followed by one
/// `msg <src> -> <dst> start=<t> finish=<t> [bytes=<n>]` line per
/// message.
///
/// ```
/// use nocsyn_model::text::parse_trace;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let trace = parse_trace("procs 2\nmsg 0 -> 1 start=0 finish=100 bytes=64\n")?;
/// assert_eq!(trace.len(), 1);
/// assert_eq!(trace.makespan().ticks(), 100);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// [`ParseScheduleError`] with the offending line on any problem. Never
/// panics.
pub fn parse_trace(input: &str) -> Result<crate::Trace, ParseScheduleError> {
    parse_trace_impl(input, &ParseLimits::default())
}

fn parse_trace_impl(input: &str, limits: &ParseLimits) -> Result<crate::Trace, ParseScheduleError> {
    use crate::Message;

    let input = strip_bom(input);
    check_input_budget(input, limits)?;

    let err = |line: usize, kind: ParseErrorKind| ParseScheduleError { line, kind };
    let mut trace: Option<crate::Trace> = None;

    for (idx, raw) in input.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        // Invariant: `line` is non-empty after trim (checked above), so
        // split_whitespace yields at least one token. Destructure anyway —
        // defense in depth on the trust boundary beats an `expect`.
        let Some(head) = tokens.next() else {
            continue;
        };
        match head {
            "procs" => {
                if let Some(t) = &trace {
                    let kind = if t.is_empty() {
                        ParseErrorKind::DuplicateProcs
                    } else {
                        ParseErrorKind::Malformed("`procs` after messages began".into())
                    };
                    return Err(err(line_no, kind));
                }
                let n = parse_procs_value(tokens.next(), line, line_no, limits)?;
                trace = Some(crate::Trace::new(n));
            }
            "msg" => {
                let Some(trace) = trace.as_mut() else {
                    return Err(err(line_no, ParseErrorKind::MissingProcs));
                };
                if trace.len() + 1 > limits.max_messages {
                    return Err(err(
                        line_no,
                        ParseErrorKind::LimitExceeded {
                            what: "messages",
                            requested: trace.len() as u64 + 1,
                            limit: limits.max_messages as u64,
                        },
                    ));
                }
                let rest: Vec<&str> = tokens.collect();
                // Expected shape: <src> -> <dst> start=.. finish=.. [bytes=..]
                let joined = rest.join(" ");
                let (endpoints, opts): (Vec<&str>, Vec<&str>) =
                    rest.iter().partition(|t| !t.contains('='));
                let ep = endpoints.join("");
                let Some((src, dst)) = ep.split_once("->") else {
                    return Err(err(line_no, ParseErrorKind::Malformed(joined)));
                };
                let (Ok(src), Ok(dst)) = (src.parse::<usize>(), dst.parse::<usize>()) else {
                    return Err(err(line_no, ParseErrorKind::Malformed(joined)));
                };
                let (mut start, mut finish, mut bytes) = (None, None, None);
                for opt in opts {
                    match opt.split_once('=') {
                        Some(("start", v)) => start = v.parse::<u64>().ok(),
                        Some(("finish", v)) => finish = v.parse::<u64>().ok(),
                        Some(("bytes", v)) => bytes = v.parse::<u32>().ok(),
                        _ => {
                            return Err(err(line_no, ParseErrorKind::Malformed(opt.into())));
                        }
                    }
                }
                let (Some(start), Some(finish)) = (start, finish) else {
                    return Err(err(
                        line_no,
                        ParseErrorKind::Malformed("msg needs start= and finish=".into()),
                    ));
                };
                let mut message =
                    Message::new(crate::ProcId(src), crate::ProcId(dst), start, finish)
                        .map_err(|e| err(line_no, ParseErrorKind::Model(e)))?;
                if let Some(b) = bytes {
                    message = message.with_bytes(b);
                }
                trace
                    .push(message)
                    .map_err(|e| err(line_no, ParseErrorKind::Model(e)))?;
            }
            other => {
                return Err(err(line_no, ParseErrorKind::Malformed(other.into())));
            }
        }
    }
    trace.ok_or_else(|| err(input.lines().count().max(1), ParseErrorKind::MissingProcs))
}

/// Renders a trace in the [`parse_trace`] format.
pub fn format_trace(trace: &crate::Trace) -> String {
    use std::fmt::Write as _;
    let mut out = format!("procs {}\n", trace.n_procs());
    for m in trace.messages() {
        let _ = writeln!(
            out,
            "msg {} -> {} start={} finish={} bytes={}",
            m.src().index(),
            m.dst().index(),
            m.start().ticks(),
            m.finish().ticks(),
            m.bytes()
        );
    }
    out
}

/// Renders a schedule back into the text format ([`parse_schedule`]'s
/// inverse up to comments and `repeat` folding).
pub fn format_schedule(schedule: &PhaseSchedule) -> String {
    use std::fmt::Write as _;
    let mut out = format!("procs {}\n", schedule.n_procs());
    for phase in schedule.iter() {
        let _ = write!(out, "\nphase bytes={}", phase.bytes());
        if phase.compute_ticks() > 0 {
            let _ = write!(out, " compute={}", phase.compute_ticks());
        }
        out.push('\n');
        for flow in phase.iter() {
            let _ = writeln!(out, "  {} -> {}", flow.src.index(), flow.dst.index());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# a sample pattern
procs 4

phase bytes=128 compute=50
  0 -> 1    # with a trailing comment
  2 -> 3

phase
  1->0
repeat 2
";

    #[test]
    fn parses_the_sample() {
        let s = parse_schedule(SAMPLE).unwrap();
        assert_eq!(s.n_procs(), 4);
        assert_eq!(s.len(), 4); // 2 phases x repeat 2
        let phases: Vec<_> = s.iter().collect();
        assert_eq!(phases[0].bytes(), 128);
        assert_eq!(phases[0].compute_ticks(), 50);
        assert_eq!(phases[0].len(), 2);
        assert_eq!(phases[1].len(), 1);
        assert_eq!(phases[1].bytes(), 4096); // default
    }

    #[test]
    fn round_trips_through_format() {
        let s = parse_schedule(SAMPLE).unwrap();
        let text = format_schedule(&s);
        let reparsed = parse_schedule(&text).unwrap();
        assert_eq!(s, reparsed);
    }

    #[test]
    fn error_reporting_carries_line_numbers() {
        let e = parse_schedule("procs 4\nphase\n  0 -> 0\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(matches!(
            e.kind,
            ParseErrorKind::Model(ModelError::SelfLoop { .. })
        ));

        let e = parse_schedule("phase\n  0 -> 1\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(matches!(e.kind, ParseErrorKind::MissingProcs));

        let e = parse_schedule("procs 4\n  0 -> 1\n").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::FlowOutsidePhase));

        let e = parse_schedule("procs 4\nphase\n  0 -> 1\nrepeat 0\n").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::BadRepeat));

        let e = parse_schedule("procs 4\nphase\n  zero -> 1\n").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::Malformed(_)));

        let e = parse_schedule("procs 4\nphase speed=9\n").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::Malformed(_)));
    }

    #[test]
    fn procs_after_phase_rejected() {
        let e = parse_schedule("procs 4\nphase\n 0 -> 1\nprocs 8\n").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::Malformed(_)));
    }

    #[test]
    fn duplicate_procs_rejected_before_phases() {
        let e = parse_schedule("procs 4\nprocs 8\nphase\n 0 -> 1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(matches!(e.kind, ParseErrorKind::DuplicateProcs));
        let e = parse_trace("procs 4\nprocs 8\n").unwrap_err();
        assert!(matches!(
            e.kind,
            ParseErrorKind::Malformed(_) | ParseErrorKind::DuplicateProcs
        ));
    }

    #[test]
    fn zero_procs_rejected() {
        assert!(matches!(
            parse_schedule("procs 0\n").unwrap_err().kind,
            ParseErrorKind::ZeroProcs
        ));
        assert!(matches!(
            parse_trace("procs 0\n").unwrap_err().kind,
            ParseErrorKind::ZeroProcs
        ));
    }

    #[test]
    fn huge_procs_hits_the_limit_not_the_allocator() {
        let e = parse_schedule("procs 99999999999\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(matches!(
            e.kind,
            ParseErrorKind::LimitExceeded { what: "procs", .. }
        ));
        let e = parse_trace("procs 99999999999\n").unwrap_err();
        assert!(matches!(
            e.kind,
            ParseErrorKind::LimitExceeded { what: "procs", .. }
        ));
    }

    #[test]
    fn repeat_bomb_is_rejected_before_expansion() {
        let input = "procs 4\nphase\n  0 -> 1\nrepeat 18446744073709551615\n";
        // usize::MAX repeats of one phase: must fail on the phase budget,
        // not attempt the clone.
        let e = parse_schedule(input).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(matches!(
            e.kind,
            ParseErrorKind::LimitExceeded { what: "phases", .. }
        ));
        // A small phase count but huge flow amplification trips the
        // message budget instead.
        let opts = ParseOptions::new().with_limits(
            ParseLimits::default()
                .with_max_phases(usize::MAX)
                .with_max_messages(10),
        );
        let e = opts
            .parse_schedule("procs 4\nphase\n 0 -> 1\n 2 -> 3\nrepeat 6\n")
            .unwrap_err();
        assert!(matches!(
            e.kind,
            ParseErrorKind::LimitExceeded {
                what: "messages",
                ..
            }
        ));
    }

    #[test]
    fn huge_repeat_of_an_empty_schedule_returns_immediately() {
        // Found by `nocsyn fuzz`: zero phases times any k passes the
        // size pre-checks (0 * k == 0), so `repeated` itself must not
        // loop k times over nothing.
        let s = parse_schedule("procs 4\nrepeat 99999999999\n").expect("valid, empty");
        assert!(s.is_empty());
        assert_eq!(s.n_procs(), 4);
    }

    #[test]
    fn per_line_and_whole_input_budgets() {
        let opts = ParseOptions::new().with_limits(ParseLimits::default().with_max_line_len(16));
        let long = format!("procs 4 {}\n", "#".repeat(64));
        let e = opts.parse_schedule(&long).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(matches!(
            e.kind,
            ParseErrorKind::LimitExceeded {
                what: "line bytes",
                ..
            }
        ));

        let opts = ParseOptions::new().with_limits(ParseLimits::default().with_max_input_bytes(8));
        let e = opts
            .parse_trace("procs 2\nmsg 0 -> 1 start=0 finish=1\n")
            .unwrap_err();
        assert!(matches!(
            e.kind,
            ParseErrorKind::LimitExceeded {
                what: "input bytes",
                ..
            }
        ));
    }

    #[test]
    fn message_budget_applies_per_msg_line() {
        let opts = ParseOptions::new().with_limits(ParseLimits::default().with_max_messages(1));
        let input = "procs 4\nmsg 0 -> 1 start=0 finish=1\nmsg 2 -> 3 start=0 finish=1\n";
        let e = opts.parse_trace(input).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(matches!(
            e.kind,
            ParseErrorKind::LimitExceeded {
                what: "messages",
                ..
            }
        ));
    }

    #[test]
    fn bom_and_crlf_are_tolerated() {
        let s = parse_schedule("\u{feff}procs 4\r\nphase\r\n  0 -> 1\r\n").unwrap();
        assert_eq!(s.n_procs(), 4);
        assert_eq!(s.len(), 1);
        let t = parse_trace("\u{feff}procs 2\r\nmsg 0 -> 1 start=0 finish=5\r\n").unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn out_of_range_flow_reports_model_error() {
        let e = parse_schedule("procs 2\nphase\n  0 -> 5\n").unwrap_err();
        assert!(matches!(
            e.kind,
            ParseErrorKind::Model(ModelError::ProcOutOfRange { .. })
        ));
    }

    #[test]
    fn empty_schedule_is_fine() {
        let s = parse_schedule("procs 3\n").unwrap();
        assert_eq!(s.n_procs(), 3);
        assert!(s.is_empty());
    }

    #[test]
    fn trace_round_trip() {
        let input =
            "procs 4\nmsg 0 -> 1 start=0 finish=100 bytes=64\nmsg 2 -> 3 start=50 finish=150\n";
        let trace = parse_trace(input).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.contention_set().len(), 1);
        let reparsed = parse_trace(&format_trace(&trace)).unwrap();
        assert_eq!(trace, reparsed);
    }

    #[test]
    fn trace_error_paths() {
        assert!(matches!(
            parse_trace("msg 0 -> 1 start=0 finish=1\n")
                .unwrap_err()
                .kind,
            ParseErrorKind::MissingProcs
        ));
        assert!(parse_trace("procs 2\nmsg 0 -> 1 start=5 finish=1\n").is_err());
        assert!(parse_trace("procs 2\nmsg 0 -> 1 finish=1\n").is_err());
        assert!(parse_trace("procs 2\nmsg 0 -> 1 start=0 finish=1 wat=2\n").is_err());
        assert!(parse_trace("procs 2\nblah\n").is_err());
        assert!(parse_trace("").is_err());
        // Out-of-range proc surfaces the model error.
        assert!(matches!(
            parse_trace("procs 2\nmsg 0 -> 9 start=0 finish=1\n")
                .unwrap_err()
                .kind,
            ParseErrorKind::Model(_)
        ));
    }

    #[test]
    fn fingerprints_are_stable_and_value_free() {
        let e = parse_schedule("procs 99999999999\n").unwrap_err();
        assert_eq!(e.kind.fingerprint(), "limit-exceeded");
        let e = parse_schedule("procs 4\nphase\n 0 -> 0\n").unwrap_err();
        assert_eq!(e.kind.fingerprint(), "model-self-loop");
        let e = parse_schedule("wat\n").unwrap_err();
        assert_eq!(e.kind.fingerprint(), "malformed");
    }

    #[test]
    fn options_expose_their_limits() {
        let opts = ParseOptions::new().with_limits(ParseLimits::default().with_max_procs(7));
        assert_eq!(opts.limits().max_procs, 7);
        assert_eq!(ParseOptions::default(), ParseOptions::new());
    }

    #[test]
    fn display_of_errors() {
        let e = parse_schedule("phase\n").unwrap_err();
        assert!(e.to_string().contains("line 1"));
        let e = parse_schedule("procs 99999999999\n").unwrap_err();
        assert!(e.to_string().contains("exceeds the limit"), "{e}");
    }
}
