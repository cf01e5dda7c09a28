//! The canonical synth-report JSON object — the one rendering shared by
//! `nocsyn synth --json`, the serve daemon's replies, and the cache.
//!
//! Byte-identity between a cache hit, the miss that populated it, and a
//! direct CLI run is a *construction* property, not a test-only
//! coincidence: all three paths call [`synth_json_object`] and store or
//! splice the returned string verbatim. The Pareto-front rendering
//! ([`pareto_point_object`], [`with_pareto_array`]) goes through the same
//! splice-don't-rerender discipline.

use nocsyn_engine::{JobOutcome, JobStatus};
use nocsyn_floorplan::place;
use nocsyn_model::json::JsonValue;
use nocsyn_synth::{ParetoPoint, SynthesisRequest};
use nocsyn_topo::verify_contention_free;

/// Renders the deterministic synth-report object for a completed (or
/// deadline-degraded) outcome, exactly as `nocsyn synth --json` prints
/// it (sans trailing newline). A flat outcome renders byte-identically
/// to the historical object; a decomposed outcome appends the
/// decomposition counters after the search counters.
///
/// The `contention_free` field re-runs the Theorem-1 check against the
/// pattern rather than trusting the report's own flag — the same
/// belt-and-braces the CLI has always done. For a decomposed outcome the
/// check runs on the *stitched* global network, so the flag certifies
/// the whole, not the parts.
///
/// # Panics
///
/// Panics if the outcome carries no result; callers dispatch on
/// `outcome.result` first (a failed job has nothing to render).
pub fn synth_json_object(request: &SynthesisRequest, outcome: &JobOutcome) -> String {
    let result = outcome
        .result
        .as_ref()
        .expect("synth_json_object requires an outcome with a result");
    let check = verify_contention_free(request.pattern().contention(), &result.routes);
    let status = if outcome.status == JobStatus::DeadlineExceeded {
        "deadline-exceeded"
    } else {
        "ok"
    };
    let r = &result.report;
    let mut fields = vec![
        ("command", JsonValue::from("synth")),
        ("status", JsonValue::from(status)),
        ("seed", JsonValue::from(request.seed())),
        ("switches", JsonValue::from(r.n_switches)),
        ("links", JsonValue::from(r.n_links)),
        ("max_degree", JsonValue::from(r.max_degree)),
        ("constraints_met", JsonValue::from(r.constraints_met)),
        (
            "contention_free",
            JsonValue::from(check.is_contention_free()),
        ),
        ("connectivity_links", JsonValue::from(r.connectivity_links)),
        ("rounds", JsonValue::from(r.rounds)),
        ("splits", JsonValue::from(r.splits)),
        ("moves_tried", JsonValue::from(r.moves_tried)),
        ("moves_accepted", JsonValue::from(r.moves_accepted)),
        ("reroutes_tried", JsonValue::from(r.reroutes_tried)),
        ("reroutes_accepted", JsonValue::from(r.reroutes_accepted)),
        ("reroutes_neutral", JsonValue::from(r.reroutes_neutral)),
    ];
    if let Some(d) = &outcome.decomposition {
        fields.push(("mode", JsonValue::from("decomposed")));
        fields.push(("clusters", JsonValue::from(d.clusters)));
        fields.push(("cut_flows", JsonValue::from(d.cut_flows)));
        fields.push(("stitch_links", JsonValue::from(d.stitch_links)));
        fields.push(("largest_cluster", JsonValue::from(d.largest_cluster)));
    }
    JsonValue::object(fields).to_string()
}

/// Renders one Pareto point as a JSON object: the objective coordinates,
/// the floorplan area model evaluated on the point's network (seeded
/// placement, so the bytes are seed-stable), and the point's full report
/// object spliced in verbatim.
pub fn pareto_point_object(point: &ParetoPoint, seed: u64, report: &str) -> String {
    let plan = place(&point.result.network, seed);
    let area = plan.area(&point.result.network);
    let obj = JsonValue::object([
        ("max_degree", JsonValue::from(point.max_degree)),
        ("switches", JsonValue::from(point.n_switches)),
        ("links", JsonValue::from(point.n_links)),
        ("feasible", JsonValue::from(point.feasible)),
        ("switch_area", JsonValue::from(area.switch_area)),
        ("link_area", JsonValue::from(area.link_area)),
        ("total_area", JsonValue::from(area.total())),
    ]);
    let mut s = obj.to_string();
    s.pop();
    s.push_str(",\"report\":");
    s.push_str(report);
    s.push('}');
    s
}

/// Splices a rendered `pareto` array into a base report object, keeping
/// every already-rendered byte intact: the base loses its closing brace,
/// gains `,"pareto":[...]}`. Every consumer of the combined object goes
/// through this one splice, so CLI and serve bytes agree.
pub fn with_pareto_array(base: &str, points: &[String]) -> String {
    let trunk = base
        .strip_suffix('}')
        .expect("base report is a JSON object");
    let mut s =
        String::with_capacity(trunk.len() + 16 + points.iter().map(String::len).sum::<usize>());
    s.push_str(trunk);
    s.push_str(",\"pareto\":[");
    s.push_str(&points.join(","));
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocsyn_engine::{Engine, Job};
    use nocsyn_model::parse_schedule;
    use nocsyn_synth::{AppPattern, SynthesisConfig, SynthesisMode};

    fn pattern() -> AppPattern {
        let schedule =
            parse_schedule("procs 4\nphase\n  0 -> 1\n  2 -> 3\nphase\n  0 -> 2\n").expect("valid");
        AppPattern::from_schedule(&schedule)
    }

    fn request(mode: SynthesisMode) -> SynthesisRequest {
        SynthesisRequest::builder(pattern())
            .config(SynthesisConfig::new().with_seed(5))
            .restarts(2)
            .mode(mode)
            .build()
            .expect("request builds")
    }

    #[test]
    fn object_is_deterministic_and_well_formed() {
        let request = request(SynthesisMode::Flat);
        let engine = Engine::new().with_workers(1);
        let a = engine
            .run(vec![Job::new("synth", request.clone())])
            .pop()
            .expect("one outcome");
        let b = engine
            .run(vec![Job::new("synth", request.clone())])
            .pop()
            .expect("one outcome");
        let ja = synth_json_object(&request, &a);
        let jb = synth_json_object(&request, &b);
        assert_eq!(ja, jb, "same inputs must render byte-identically");
        assert!(ja.starts_with(r#"{"command":"synth","status":"ok","seed":5,"#));
        assert!(!ja.contains("\"mode\""), "flat bytes carry no mode field");
        let parsed = nocsyn_model::json::parse(&ja).expect("well-formed");
        assert_eq!(
            parsed.get("contention_free").and_then(|v| v.as_bool()),
            Some(true)
        );
    }

    #[test]
    fn decomposed_outcome_appends_decomposition_counters() {
        let request = request(SynthesisMode::Decomposed { clusters: Some(2) });
        let outcome = Engine::new()
            .with_workers(2)
            .run(vec![Job::new("synth", request.clone())])
            .pop()
            .expect("one outcome");
        let json = synth_json_object(&request, &outcome);
        let parsed = nocsyn_model::json::parse(&json).expect("well-formed");
        assert_eq!(
            parsed.get("mode").and_then(|v| v.as_str()),
            Some("decomposed")
        );
        assert_eq!(parsed.get("clusters").and_then(|v| v.as_u64()), Some(2));
        assert!(parsed.get("cut_flows").is_some());
        assert!(parsed.get("stitch_links").is_some());
        assert_eq!(
            parsed.get("contention_free").and_then(|v| v.as_bool()),
            Some(true),
            "the stitched whole passes the global Theorem-1 check"
        );
    }

    #[test]
    fn pareto_splice_preserves_base_bytes() {
        let request = request(SynthesisMode::Flat);
        let outcome = Engine::new()
            .with_workers(1)
            .run(vec![Job::new("synth", request.clone())])
            .pop()
            .expect("one outcome");
        let base = synth_json_object(&request, &outcome);
        let result = outcome.result.expect("completed");
        let point = ParetoPoint {
            max_degree: 5,
            n_switches: result.report.n_switches,
            n_links: result.report.n_links,
            feasible: result.report.constraints_met,
            result,
        };
        let rendered = pareto_point_object(&point, request.seed(), &base);
        let combined = with_pareto_array(&base, std::slice::from_ref(&rendered));
        assert!(combined.starts_with(base.strip_suffix('}').expect("object")));
        let parsed = nocsyn_model::json::parse(&combined).expect("well-formed");
        let front = parsed.get("pareto").expect("pareto array present");
        assert_eq!(
            nocsyn_model::json::parse(&rendered).expect("point is JSON"),
            front.as_array().expect("array")[0],
        );
        // Rendering is a pure function: same point, same bytes.
        assert_eq!(rendered, pareto_point_object(&point, request.seed(), &base));
    }
}
