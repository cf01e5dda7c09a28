//! A second certificate reader that walks a [`JsonValue`] tree built by
//! the reference JSON parser, written from the format description rather
//! than from the flat reader. Kept only as the differential-test
//! reference for [`Certificate::parse`], which must return the same
//! `Result` — error details included — on every input.

use super::{check_channel, Budget, CertError, CertWitness, Certificate, CERT_SCHEMA};
use crate::json::{self, JsonValue};
use crate::text::ParseLimits;
use crate::{sha256, Digest, Flow, FlowPair};

/// Parses certificate text into a tree first, then reads its fields.
pub(crate) fn parse(text: &str, limits: &ParseLimits) -> Result<Certificate, CertError> {
    if text.len() > limits.max_input_bytes {
        return Err(CertError::LimitExceeded("input bytes"));
    }
    let value = json::reference::parse(text).map_err(|e| CertError::Json {
        fingerprint: e.fingerprint(),
        detail: e.to_string(),
    })?;
    let fields = value
        .as_object()
        .ok_or(CertError::BadField("certificate"))?;
    let mut at = 0;
    let schema = take(fields, &mut at, "schema")
        .ok_or(CertError::MissingField("schema"))?
        .as_str()
        .ok_or(CertError::BadField("schema"))?;
    if schema != CERT_SCHEMA {
        return Err(CertError::SchemaUnsupported);
    }

    // The binding: the last field, a lowercase digest written exactly as
    // the renderer writes it, over every byte before its key.
    let (key, last) = fields.last().ok_or(CertError::MissingField("binding"))?;
    if key != "binding" {
        return Err(CertError::MissingField("binding"));
    }
    let hex = last.as_str().ok_or(CertError::BadField("binding"))?;
    let claimed = match Digest::from_hex(hex) {
        Some(d) if d.to_hex() == hex => d,
        _ => return Err(CertError::BadField("binding")),
    };
    let body = text.strip_suffix('\n').unwrap_or(text);
    let suffix = format!("\"binding\":\"{hex}\"}}");
    let Some(prefix) = body.strip_suffix(suffix.as_str()) else {
        return Err(CertError::BadField("binding"));
    };
    if !prefix.ends_with(',') {
        return Err(CertError::BadField("binding"));
    }
    if sha256(prefix.as_bytes()) != claimed {
        return Err(CertError::BindingMismatch);
    }

    let n_procs = take(fields, &mut at, "n_procs")
        .ok_or(CertError::MissingField("n_procs"))?
        .as_u64()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or(CertError::BadField("n_procs"))?;
    if n_procs == 0 || n_procs > limits.max_procs {
        return Err(CertError::LimitExceeded("n_procs"));
    }
    let contention_free = take(fields, &mut at, "contention_free")
        .ok_or(CertError::MissingField("contention_free"))?
        .as_bool()
        .ok_or(CertError::BadField("contention_free"))?;
    let mut budget = Budget {
        left: limits.max_messages,
    };

    let mut routes = std::collections::BTreeMap::new();
    let items = take(fields, &mut at, "routes")
        .ok_or(CertError::MissingField("routes"))?
        .as_array()
        .ok_or(CertError::BadField("routes"))?;
    let mut previous: Option<Flow> = None;
    for item in items {
        let entries = item.as_object().ok_or(CertError::BadField("routes"))?;
        let mut i = 0;
        let flow = parse_flow(
            take(entries, &mut i, "flow").ok_or(CertError::MissingField("flow"))?,
            n_procs,
            &mut budget,
        )?;
        let chans = parse_labels(
            take(entries, &mut i, "channels").ok_or(CertError::MissingField("channels"))?,
            "channels",
            &mut budget,
        )?;
        if i != entries.len() || previous.is_some_and(|p| p >= flow) {
            return Err(CertError::BadField("routes"));
        }
        previous = Some(flow);
        routes.insert(flow, chans);
    }

    let mut witnesses: Vec<CertWitness> = Vec::new();
    if let Some(items) = take(fields, &mut at, "witnesses") {
        let items = match items.as_array() {
            Some(items) if !items.is_empty() => items,
            _ => return Err(CertError::BadField("witnesses")),
        };
        for item in items {
            let entries = item.as_object().ok_or(CertError::BadField("witnesses"))?;
            let mut i = 0;
            let end = |name: &'static str, i: &mut usize| {
                take(entries, i, name).ok_or(CertError::MissingField(name))
            };
            let a = parse_flow(end("flow_a", &mut i)?, n_procs, &mut budget)?;
            let b = parse_flow(end("flow_b", &mut i)?, n_procs, &mut budget)?;
            let shared = parse_labels(end("shared", &mut i)?, "shared", &mut budget)?;
            let pair = FlowPair::new(a, b);
            let ordered = witnesses.last().is_none_or(|w| w.pair < pair);
            if i != entries.len() || a > b || shared.is_empty() || !ordered {
                return Err(CertError::BadField("witnesses"));
            }
            witnesses.push(CertWitness { pair, shared });
        }
    }

    let job = match take(fields, &mut at, "job") {
        None => None,
        Some(v) => match v.as_str() {
            Some(hex) if Digest::from_hex(hex).is_some() => Some(hex.to_string()),
            _ => return Err(CertError::BadField("job")),
        },
    };
    if at + 1 != fields.len() {
        return Err(CertError::BadField("certificate"));
    }

    Ok(Certificate {
        n_procs,
        contention_free,
        routes,
        witnesses,
        job,
        binding: Some(claimed),
    })
}

/// The field at `*at` if its key is `name` (advancing past it).
fn take<'a>(
    fields: &'a [(String, JsonValue)],
    at: &mut usize,
    name: &str,
) -> Option<&'a JsonValue> {
    let (key, value) = fields.get(*at)?;
    if key != name {
        return None;
    }
    *at += 1;
    Some(value)
}

fn parse_flow(v: &JsonValue, n_procs: usize, budget: &mut Budget) -> Result<Flow, CertError> {
    budget.spend()?;
    let ends = v.as_array().ok_or(CertError::BadField("flow"))?;
    if ends.len() != 2 {
        return Err(CertError::BadField("flow"));
    }
    let end = |v: &JsonValue| {
        v.as_u64()
            .and_then(|n| usize::try_from(n).ok())
            .ok_or(CertError::BadField("flow"))
    };
    let (src, dst) = (end(&ends[0])?, end(&ends[1])?);
    if src >= n_procs || dst >= n_procs {
        return Err(CertError::BadField("flow"));
    }
    Ok(Flow::from_indices(src, dst))
}

fn parse_labels(
    v: &JsonValue,
    name: &'static str,
    budget: &mut Budget,
) -> Result<Vec<String>, CertError> {
    let items = v.as_array().ok_or(CertError::BadField(name))?;
    let mut labels: Vec<String> = Vec::new();
    for item in items {
        budget.spend()?;
        let label = item.as_str().ok_or(CertError::BadField(name))?;
        check_channel(label)?;
        labels.push(label.to_string());
        if labels.windows(2).last().is_some_and(|w| w[0] >= w[1]) {
            return Err(CertError::BadField(name));
        }
    }
    Ok(labels)
}
