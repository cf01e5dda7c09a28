//! The certificate parser as first written: it walks a [`JsonValue`]
//! tree built by the reference JSON parser. Kept only as the
//! differential-test reference for the flat-document
//! [`Certificate::parse`], which must return the same `Result` — error
//! details included — on every input.

use std::collections::BTreeMap;

use super::{check_channel, Budget, CertError, CertWitness, Certificate, CERT_SCHEMA};
use crate::json::{self, JsonValue};
use crate::text::ParseLimits;
use crate::{Digest, Flow, FlowPair};

/// Parses certificate text into a tree first, then reads its fields.
pub(crate) fn parse(text: &str, limits: &ParseLimits) -> Result<Certificate, CertError> {
    if text.len() > limits.max_input_bytes {
        return Err(CertError::LimitExceeded("input bytes"));
    }
    let value = json::reference::parse(text).map_err(|e| CertError::Json {
        fingerprint: e.fingerprint(),
        detail: e.to_string(),
    })?;
    if value.as_object().is_none() {
        return Err(CertError::BadField("certificate"));
    }
    let schema = str_field(&value, "schema")?;
    if schema != CERT_SCHEMA {
        return Err(CertError::SchemaUnsupported);
    }
    let n_procs = usize_field(&value, "n_procs")?;
    if n_procs == 0 || n_procs > limits.max_procs {
        return Err(CertError::LimitExceeded("n_procs"));
    }
    let contention_free = value
        .get("contention_free")
        .ok_or(CertError::MissingField("contention_free"))?
        .as_bool()
        .ok_or(CertError::BadField("contention_free"))?;
    // Every flow or channel mention costs input bytes, so the input
    // budget already bounds memory; the message budget additionally
    // bounds element counts the way pattern parsing does.
    let mut mentions = Budget {
        left: limits.max_messages,
    };

    let items = array_field(&value, "cliques")?;
    let mut cliques = Vec::with_capacity(items.len());
    for c in items {
        let members = c.as_array().ok_or(CertError::BadField("cliques"))?;
        let mut clique = Vec::with_capacity(members.len());
        for m in members {
            clique.push(parse_flow(m, n_procs, &mut mentions)?);
        }
        cliques.push(clique);
    }

    let items = array_field(&value, "obligations")?;
    let mut obligations = Vec::with_capacity(items.len());
    for o in items {
        let ends = o.as_array().ok_or(CertError::BadField("obligations"))?;
        if ends.len() != 2 {
            return Err(CertError::BadField("obligations"));
        }
        let a = parse_flow(&ends[0], n_procs, &mut mentions)?;
        let b = parse_flow(&ends[1], n_procs, &mut mentions)?;
        obligations.push(FlowPair::new(a, b));
    }

    let mut routes = BTreeMap::new();
    for r in array_field(&value, "routes")? {
        let flow = parse_flow(
            r.get("flow").ok_or(CertError::MissingField("flow"))?,
            n_procs,
            &mut mentions,
        )?;
        let chans = parse_channels(r.get("channels"), "channels", &mut mentions)?;
        // Emitted routes are sorted and duplicate-free, and the checker
        // intersects them by merging, so any other order is refused
        // rather than trusted.
        if chans.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CertError::BadField("channels"));
        }
        if routes.insert(flow, chans).is_some() {
            return Err(CertError::BadField("routes"));
        }
    }

    let mut crossings = BTreeMap::new();
    for x in array_field(&value, "crossings")? {
        let ch = x
            .get("channel")
            .and_then(|v| v.as_str())
            .ok_or(CertError::BadField("crossings"))?;
        check_channel(ch)?;
        let items = x
            .get("flows")
            .and_then(|v| v.as_array())
            .ok_or(CertError::BadField("crossings"))?;
        let mut flows = Vec::with_capacity(items.len());
        for f in items {
            flows.push(parse_flow(f, n_procs, &mut mentions)?);
        }
        if crossings.insert(ch.to_string(), flows).is_some() {
            return Err(CertError::BadField("crossings"));
        }
    }

    let items = array_field(&value, "witnesses")?;
    let mut witnesses = Vec::with_capacity(items.len());
    for w in items {
        let a = parse_flow(
            w.get("flow_a").ok_or(CertError::MissingField("flow_a"))?,
            n_procs,
            &mut mentions,
        )?;
        let b = parse_flow(
            w.get("flow_b").ok_or(CertError::MissingField("flow_b"))?,
            n_procs,
            &mut mentions,
        )?;
        let shared = parse_channels(w.get("shared"), "shared", &mut mentions)?;
        witnesses.push(CertWitness {
            pair: FlowPair::new(a, b),
            shared,
        });
    }

    let job = match value.get("job") {
        None => None,
        Some(v) => {
            let hex = v.as_str().ok_or(CertError::BadField("job"))?;
            if Digest::from_hex(hex).is_none() {
                return Err(CertError::BadField("job"));
            }
            Some(hex.to_string())
        }
    };
    let binding = str_field(&value, "binding")?;
    if Digest::from_hex(binding).is_none() {
        return Err(CertError::BadField("binding"));
    }

    Ok(Certificate {
        n_procs,
        contention_free,
        cliques,
        obligations,
        routes,
        crossings,
        witnesses,
        job,
        claimed_binding: Some(binding.to_string()),
    })
}

fn str_field<'a>(value: &'a JsonValue, name: &'static str) -> Result<&'a str, CertError> {
    value
        .get(name)
        .ok_or(CertError::MissingField(name))?
        .as_str()
        .ok_or(CertError::BadField(name))
}

fn usize_field(value: &JsonValue, name: &'static str) -> Result<usize, CertError> {
    let raw = value
        .get(name)
        .ok_or(CertError::MissingField(name))?
        .as_u64()
        .ok_or(CertError::BadField(name))?;
    usize::try_from(raw).map_err(|_| CertError::BadField(name))
}

fn array_field<'a>(value: &'a JsonValue, name: &'static str) -> Result<&'a [JsonValue], CertError> {
    value
        .get(name)
        .ok_or(CertError::MissingField(name))?
        .as_array()
        .ok_or(CertError::BadField(name))
}

fn parse_flow(v: &JsonValue, n_procs: usize, budget: &mut Budget) -> Result<Flow, CertError> {
    budget.spend()?;
    let ends = v.as_array().ok_or(CertError::BadField("flow"))?;
    if ends.len() != 2 {
        return Err(CertError::BadField("flow"));
    }
    let src = ends[0]
        .as_u64()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or(CertError::BadField("flow"))?;
    let dst = ends[1]
        .as_u64()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or(CertError::BadField("flow"))?;
    if src >= n_procs || dst >= n_procs {
        return Err(CertError::BadField("flow"));
    }
    Ok(Flow::from_indices(src, dst))
}

fn parse_channels(
    v: Option<&JsonValue>,
    name: &'static str,
    budget: &mut Budget,
) -> Result<Vec<String>, CertError> {
    let items = v
        .and_then(|v| v.as_array())
        .ok_or(CertError::BadField(name))?;
    let mut chans = Vec::with_capacity(items.len());
    for item in items {
        budget.spend()?;
        let label = item.as_str().ok_or(CertError::BadField(name))?;
        check_channel(label)?;
        chans.push(label.to_string());
    }
    Ok(chans)
}
